"""One benchmark process: set up one workload, then time or trace it.

run.py starts a fresh process for every measurement, so imports, caches and
peak memory start from nothing:

    python3 bench/worker.py --workload NAME --seed N --mode setup|measure|trace --seconds S

`setup` stops at the first timed call; `measure` repeats the workload body
untraced until S seconds are spent; `trace` alternates untraced and traced
repetitions.  The first repetition, inside those S seconds, warms caches and
is left out of the timings.  The last line of stdout is one JSON object for
run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_TIMED_REPS = 2
MAX_REPS = 200


def _finite(value):
    """JSON has no NaN: a read-out that is not finite (a failed fit) becomes 0."""
    return value if math.isfinite(value) else 0.0


def run_rep(workload, inputs):
    """Run the body once; an exception fails every check of this repetition."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        outcome = workload.body(inputs)
    except Exception:
        traceback.print_exc()
        outcome = None
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    work, checks, facts = (0.0, {}, {}) if outcome is None else (
        outcome.work, outcome.checks, outcome.facts)
    return {
        "wall": wall,
        "cpu": cpu,
        "work": work,
        "attempted": len(workload.checks),
        "failed": sorted(name for name in workload.checks if not checks.get(name, (False,))[0]),
        "checks": {name: _finite(value) for name, (_, value) in checks.items()},
        "facts": {name: _finite(value) for name, value in facts.items()},
    }


def _keep_going(reps, deadline):
    """Another repetition fits before the deadline (or too few are timed)."""
    timed = [r["wall"] for r in reps[1:]]
    if len(timed) < MIN_TIMED_REPS:
        return len(reps) < MAX_REPS
    return len(reps) < MAX_REPS and time.perf_counter() + statistics.median(timed) <= deadline


def measure(workload, inputs, seconds):
    deadline = time.perf_counter() + seconds
    reps = [run_rep(workload, inputs)]  # warm-up
    while _keep_going(reps, deadline):
        reps.append(run_rep(workload, inputs))
    return reps


def trace(workload, seed, workdir, inputs, seconds):
    """Alternate untraced and traced repetitions; traced ones include setup.

    Returns (untraced reps, traced reps, per-layer metrics of each traced rep).
    """
    from tracing import SpanTable, Tracer, layer_metrics

    deadline = time.perf_counter() + seconds
    plain = [run_rep(workload, inputs)]  # warm-up
    traced, layers = [], []
    while len(plain) + len(traced) < MAX_REPS:
        plain_walls = [r["wall"] for r in plain[1:]]
        traced_walls = [r["wall"] + r["setup"] for r in traced]
        if len(plain_walls) >= MIN_TIMED_REPS and len(traced_walls) >= MIN_TIMED_REPS:
            pair = statistics.median(plain_walls) + statistics.median(traced_walls)
            if time.perf_counter() + pair > deadline:
                break
        plain.append(run_rep(workload, inputs))
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            traced_inputs = workload.setup(seed, workdir)
            setup_s = time.perf_counter() - t0
            rep = run_rep(workload, traced_inputs)
        rep["setup"] = setup_s
        traced.append(rep)
        metrics = layer_metrics(SpanTable(tracer), rep["facts"])
        layers.append({name: _finite(value) for name, value in metrics.items()})
    return plain, traced, layers


def provenance(workload, seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "work_unit": workload.unit,
        "params": workload.params,
    }


def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.environ.pop("TWOPOINT_OUTPUT_DIR", None)  # outputs go where the configs say
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        inputs = workload.setup(args.seed, workdir)
        result = {"first_call": time.monotonic()}
        if args.mode == "measure":
            result["reps"] = measure(workload, inputs, args.seconds)
        elif args.mode == "trace":
            plain, traced, layers = trace(workload, args.seed, workdir, inputs, args.seconds)
            result["reps"] = plain + traced
            result["plain_walls"] = [r["wall"] for r in plain[1:]]
            result["traced_walls"] = [r["wall"] for r in traced]
            result["layers"] = layers
        if args.mode != "setup":
            result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["provenance"] = provenance(workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another worker still uses it
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
