"""Tests of the benchmark's own machinery (not of twopoint's physics).

They run in a second or two: no workload body is executed.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import tracing
import worker
from tracing import PER_LAYER, SpanTable, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _table(spans):
    """SpanTable over synthetic (name, start, end, parent) tuples."""
    t = Tracer()
    for name, start, end, parent in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.values.append(0.0)
    return SpanTable(t)


def test_self_time_subtracts_the_union_of_child_intervals():
    table = _table([
        ("laws.run_balance", 0, 100, -1),
        ("laws.row", 10, 30, 0),
        ("laws.row", 20, 50, 0),  # overlaps the first child: counted once
        ("kernel.fft", 90, 120, 0),  # runs past its parent: clipped at 100
        ("laws.density", 12, 18, 1),  # grandchild: already inside a child
    ])
    assert table.self_ns(0) == 100 - (50 - 10) - (100 - 90)
    assert table.self_ns(1) == 20 - 6
    assert table.self_ns(4) == 6


def test_self_time_of_a_traced_nested_call():
    tracer = Tracer()

    def inner():
        return sum(range(2000))

    traced_inner = tracer.wrap("grid.reduce", inner)

    def outer():
        return traced_inner() + traced_inner()

    assert tracer.wrap("laws.row", outer)() == 2 * sum(range(2000))
    table = SpanTable(tracer)
    assert table.names == ["laws.row", "grid.reduce", "grid.reduce"]
    assert table.parents == [-1, 0, 0]
    children = table.duration_ns(1) + table.duration_ns(2)
    assert table.self_ns(0) == table.duration_ns(0) - children
    assert table.outermost({"laws.row", "grid.reduce"}) == [0]
    assert table.calling_layer(1) == "laws"


def _bindings():
    """Every name the tracer may patch, mapped to the object bound there."""
    import twopoint.harness  # noqa: F401  (harness is not imported by the package)

    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "twopoint" or name.startswith("twopoint."):
            out.update({(name, k): v for k, v in vars(module).items()})
            for k, v in vars(module).items():
                if isinstance(v, type) and v.__module__ == name:
                    out.update({(f"{name}.{k}", m): f for m, f in vars(v).items()})
    for module_name, attr, _ in tracing.KERNEL_TARGETS:
        out[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    return out


def test_restore_puts_back_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        patched = {key for key in before if during.get(key) is not before[key]}
        # names must be patched where they are looked up, not only where defined
        for key in (("twopoint.laws", "_pull_array"), ("twopoint.laws", "divergence"),
                    ("twopoint.laws", "volume_integral"), ("twopoint.discover", "residual"),
                    ("twopoint.discover", "_stack6"), ("twopoint.discover", "_pulled6"),
                    ("twopoint.harness", "run_balance"), ("twopoint.maxwell", "_pull_array"),
                    ("twopoint.maxwell.SpectralEngine", "advance"),
                    ("numpy.fft", "rfftn"), ("numpy", "einsum"), ("numpy.linalg", "svd")):
            assert key in patched, key
    after = _bindings()
    assert not [key for key in before if after.get(key) is not before[key]]
    assert not tracer._saved


def test_restore_happens_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("workload failed")
    after = _bindings()
    assert not [key for key in before if after.get(key) is not before[key]]


def test_traced_calls_nest_and_give_every_layer_metric():
    from twopoint import grid, laws, waves

    g = grid.GridSpec.cube(1.0, 8)
    tracer = Tracer()
    with tracer.installed():
        state = waves.random_band_limited(g, seed=1, kmax=1)
        laws.density(laws.law_inversion(), state)
    table = SpanTable(tracer)
    density = table.names.index("laws.density")
    pullback = table.names.index("grid.pullback")
    assert "laws.pulled" in [table.names[a] for a in table.ancestors(pullback)]
    assert density in table.ancestors(pullback)
    metrics = layer_metrics(table, {"check.order": 2.0})
    expected = {name for name, *_ in PER_LAYER} - {"trace.overhead_frac"}
    assert set(metrics) == expected
    assert metrics["laws.density_calls"] == 1
    assert metrics["grid.pullback_calls"] == 1
    assert metrics["grid.pullback_bytes"] == 2 * 6 * 8**3 * 8
    assert metrics["waves.init_calls"] == 1
    assert metrics["kernel.fft_calls.waves"] == 1
    assert metrics["check.order"] == 2.0


def _workload(body, checks=("a", "b")):
    from workloads import Workload

    return Workload("synthetic", "units", checks, {}, lambda seed, workdir: None, body)


def test_an_exception_in_a_workload_fails_its_checks_and_the_run_goes_on():
    def body(inputs):
        raise ValueError("boom")

    reps = worker.measure(_workload(body), None, seconds=0.0)
    assert len(reps) == 1 + worker.MIN_TIMED_REPS
    assert all(r["attempted"] == 2 and r["failed"] == ["a", "b"] for r in reps)


def test_a_check_the_body_does_not_report_counts_as_failed():
    from workloads import Outcome

    def body(inputs):
        return Outcome(work=1.0, checks={"a": (True, 0.5)})

    rep = worker.run_rep(_workload(body), None)
    assert rep["attempted"] == 2 and rep["failed"] == ["b"]
    assert rep["work"] == 1.0 and rep["checks"] == {"a": 0.5}


_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code_and_the_format():
    from workloads import WORKLOADS

    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, *_ in PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (unit, better) for _, unit, better, _ in PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    assert all(_UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stepping", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
