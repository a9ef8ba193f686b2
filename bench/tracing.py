"""Outside-in tracing of the twopoint layers for the benchmark's traced run.

The tracer replaces public (and a few profiled private) callables of the
twopoint modules, and numpy's FFT, einsum and SVD entry points, with
wrappers that record one span per call: name, start and end from
`perf_counter_ns`, and the span that was open when the call began.  Spans
stay in memory until the traced run ends; `layer_metrics` then turns them
into the benchmark's per-layer metrics.  Nothing inside src/ changes.

A function is patched in every twopoint module that binds it, because
`from .grid import divergence` makes `laws` look the name up in its own
namespace.  Methods are patched on the class that defines them, numpy entry
points on numpy's own modules.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# Layers (package modules) whose own code calls numpy's FFT; the seventh,
# harness, reaches numpy only through these.
FFT_LAYERS = ("waves", "maxwell", "grid", "laws", "discover", "forge")


def _active_mode_frac(args, result):
    mask = getattr(args[0], "mask", None)  # the Yee engine steps every node
    return 1.0 if mask is None else float(mask.mean())


def _pullback_bytes(args, result):
    return float(args[0].nbytes + result.nbytes)


# (twopoint module, attribute or Class.method, span name, measure hook)
TARGETS = (
    ("waves", "random_band_limited", "waves.init", None),
    ("maxwell", "SpectralEngine.__init__", "maxwell.engine_init", _active_mode_frac),
    ("maxwell", "YeeEngine.__init__", "maxwell.engine_init", _active_mode_frac),
    ("maxwell", "SpectralEngine.advance", "maxwell.step", None),
    ("maxwell", "YeeEngine.advance", "maxwell.step", None),
    ("maxwell", "SpectralEngine.dense_coefficients", "maxwell.snapshot", None),
    ("maxwell", "YeeEngine.state", "maxwell.snapshot", None),
    ("maxwell", "CurrentSpec.profile_at", "maxwell.profile", None),
    ("maxwell", "UniformOscillating.profile_at", "maxwell.profile", None),
    ("maxwell", "PlaneWaveCurrent.profile_at", "maxwell.profile", None),
    ("maxwell", "ZeroCurrent.spatial_profile", "maxwell.profile", None),
    ("maxwell", "UniformOscillating.spatial_profile", "maxwell.profile", None),
    ("maxwell", "PlaneWaveCurrent.spatial_profile", "maxwell.profile", None),
    ("maxwell", "GaussianPulseCurrent.spatial_profile", "maxwell.profile", None),
    ("maxwell", "evolve", "maxwell.evolve", None),
    ("grid", "_pull_array", "grid.pullback", _pullback_bytes),
    ("grid", "divergence", "grid.divergence", None),
    ("grid", "volume_integral", "grid.reduce", None),
    ("laws", "_stack6", "laws.stack", None),
    ("laws", "_pulled6", "laws.pulled", None),
    ("laws", "density", "laws.density", None),
    ("laws", "flux", "laws.flux", None),
    ("laws", "source_power", "laws.source", None),
    ("laws", "_analysis_row", "laws.row", None),
    ("laws", "run_balance", "laws.run_balance", None),
    ("laws", "residual", "laws.residual", None),
    ("laws", "BalanceReport.to_csv", "laws.to_csv", None),
    ("discover", "discover_laws", "discover.discover_laws", None),
    ("discover", "_rows_for_step", "discover.rows", None),
    ("forge", "time_derivative_samples", "forge.probe", None),
    ("forge", "nullspace_invariants", "forge.nullspace", None),
    ("forge", "verify_invariant_drift", "forge.drift", None),
    ("forge", "sample_values", "forge.sample", None),
    ("harness", "main", "harness.main", None),
)

# (numpy module, attribute, span name)
KERNEL_TARGETS = tuple(
    ("numpy.fft", name, "kernel.fft")
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")
) + (
    ("numpy", "einsum", "kernel.einsum"),
    ("numpy.linalg", "svd", "kernel.svd"),
)


class Tracer:
    """Span recorder; spans live in parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.values = []
        self._open = []
        self._saved = []  # (owner, attribute, original) in patch order

    def wrap(self, name, fn, measure=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, values, open_spans = self.parents, self.values, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            values.append(0.0)
            ends.append(0)
            starts.append(clock())
            open_spans.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_spans.pop()
            if measure is not None:
                values[i] = measure(args, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "twopoint" or n.startswith("twopoint.")]
        for module_name, attr, span_name, measure in TARGETS:
            owner = importlib.import_module(f"twopoint.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self.wrap(span_name, cls.__dict__[method], measure))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, attr, span_name in KERNEL_TARGETS:
            owner = importlib.import_module(module_name)
            self._patch(owner, attr, self.wrap(span_name, getattr(owner, attr)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


class SpanTable:
    """Read-only queries over a finished trace."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.starts = tracer.starts
        self.ends = tracer.ends
        self.parents = tracer.parents
        self.values = tracer.values
        self.children = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                self.children[p].append(i)

    def duration_ns(self, i):
        return self.ends[i] - self.starts[i]

    def self_ns(self, i):
        """Duration minus the part of the span's interval its children cover."""
        lo, hi = self.starts[i], self.ends[i]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(self.children[i], key=self.starts.__getitem__):
            a, b = max(self.starts[c], lo), min(self.ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (hi - lo) - covered

    def ancestors(self, i):
        p = self.parents[i]
        while p >= 0:
            yield p
            p = self.parents[p]

    def under(self, i, names):
        return any(self.names[a] in names for a in self.ancestors(i))

    def outermost(self, names):
        """Spans named in `names` that are not nested inside another of them."""
        return [i for i, n in enumerate(self.names) if n in names and not self.under(i, names)]

    def calling_layer(self, i):
        """Layer of the nearest enclosing non-kernel span ("bench" if none)."""
        for a in self.ancestors(i):
            layer = self.names[a].split(".", 1)[0]
            if layer != "kernel":
                return layer
        return "bench"


def _seconds(table, spans):
    return sum(table.duration_ns(i) for i in spans) / 1e9


# Per-layer metrics: (name, unit, better, the end-to-end metric it should
# move and on which workload).  Times are inclusive unless marked self time.
PER_LAYER = (
    ("laws.row_calls", "count", "lower", "analysis rows x laws; the denominator of the per-row ratios"),
    ("laws.row_s", "s", "lower", "wall_s on spectral-balance (the analysis windows)"),
    ("laws.density_calls", "count", "lower", "wall_s on spectral-balance (D2, D3, D4); little on stepping"),
    ("laws.density_s", "s", "lower", "wall_s on spectral-balance; little on stepping"),
    ("laws.flux_calls", "count", "lower", "wall_s on spectral-balance; little on stepping"),
    ("laws.flux_s", "s", "lower", "wall_s on spectral-balance; little on stepping"),
    ("laws.stack_calls", "count", "lower", "wall_s on spectral-balance (D2 deletes _stack6)"),
    ("laws.stack_s", "s", "lower", "wall_s on spectral-balance (D2)"),
    ("kernel.einsum_calls", "count", "lower", "wall_s on spectral-balance (D3 sparse contractions)"),
    ("kernel.einsum_s", "s", "lower", "wall_s on spectral-balance (D3, D4)"),
    ("grid.pullback_calls", "count", "lower", "wall_s on spectral-balance (D3 shared pullbacks)"),
    ("grid.pullback_s", "s", "lower", "wall_s on spectral-balance"),
    ("grid.pullback_bytes", "bytes", "lower", "wall_s on spectral-balance; bytes computed from array sizes"),
    ("laws.pullbacks_per_row", "ratio", "lower", "wall_s on spectral-balance (3.0 on its free half at seed)"),
    ("maxwell.step_calls", "count", "lower", "fixed by the workload; the denominator of step time"),
    ("maxwell.step_s", "s", "lower", "wall_s on stepping (D4 RK4, Yee slice stencils); ~0 on spectral-balance"),
    ("maxwell.snapshot_calls", "count", "lower", "wall_s on stepping; peak_rss_mib on every workload"),
    ("maxwell.snapshot_s", "s", "lower", "wall_s on stepping"),
    ("laws.snapshots_per_row", "ratio", "lower", "wall_s on stepping (D3 lazy snapshots)"),
    ("maxwell.profile_calls", "count", "lower", "wall_s on stepping only, its gauss-dense part (D3 cached profiles)"),
    ("maxwell.profile_s", "s", "lower", "wall_s on stepping only, its gauss-dense part"),
    ("laws.source_calls", "count", "lower", "wall_s on stepping only, its gauss-dense part"),
    ("laws.source_s", "s", "lower", "wall_s on stepping only, its gauss-dense part"),
    ("maxwell.active_mode_frac", "ratio", "lower", "explains spectral-balance (masked engine) against stepping (dense, Yee)"),
    ("maxwell.engine_init_s", "s", "lower", "wall_s on every Maxwell workload; engine construction"),
    ("grid.divergence_calls", "count", "lower", "wall_s on spectral-balance"),
    ("grid.divergence_s", "s", "lower", "wall_s on spectral-balance"),
    ("grid.reduce_calls", "count", "lower", "wall_s on spectral-balance"),
    ("grid.reduce_s", "s", "lower", "wall_s on spectral-balance"),
    ("discover.rows_calls", "count", "lower", "wall_s on discover-forge only"),
    ("discover.rows_s", "s", "lower", "wall_s on discover-forge only (D3 product-rule rows)"),
    ("discover.svd_s", "s", "lower", "wall_s on discover-forge only (D3 reduced SVD)"),
    ("discover.holdout_s", "s", "lower", "wall_s on discover-forge only"),
    ("discover.kept_frac", "ratio", "higher", "candidates kept / near-null directions; discover-forge"),
    ("kernel.svd_calls", "count", "lower", "wall_s on discover-forge"),
    ("kernel.svd_s", "s", "lower", "wall_s and cpu_s on discover-forge (multithreaded LAPACK)"),
    ("forge.probe_s", "s", "lower", "wall_s on discover-forge"),
    ("forge.nullspace_s", "s", "lower", "wall_s on discover-forge"),
    ("forge.drift_s", "s", "lower", "wall_s on discover-forge"),
    ("forge.sample_calls", "count", "lower", "wall_s on discover-forge"),
    ("harness.main_s", "s", "lower", "wall_s on spectral-balance; self time of harness.main"),
    ("harness.csv_s", "s", "lower", "wall_s on spectral-balance"),
    ("waves.init_calls", "count", "lower", "setup_s on every workload"),
    ("waves.init_s", "s", "lower", "setup_s on every workload"),
    ("kernel.fft_calls", "count", "lower", "wall_s on stepping and spectral-balance"),
    ("kernel.fft_s", "s", "lower", "wall_s on stepping and spectral-balance"),
) + tuple(
    (f"kernel.fft_{kind}.{layer}", unit, "lower", f"kernel.fft_{kind} made from inside the {layer} layer")
    for layer in FFT_LAYERS
    for kind, unit in (("calls", "count"), ("s", "s"))
) + (
    ("check.defect_rel_max", "ratio", "lower", "accuracy read-out, not gated (the gate is the checks)"),
    ("check.order", "order", "higher", "accuracy read-out on stepping (yee-ladder), checked as 2.0 +/- 0.2"),
    ("check.projection_min", "ratio", "higher", "accuracy read-out on discover-forge"),
    ("check.drift_exponent_min", "order", "higher", "accuracy read-out on discover-forge"),
    ("trace.overhead_frac", "ratio", "lower", "traced minus untraced wall_s, as a share of untraced wall_s"),
)

FACT_METRICS = ("discover.kept_frac", "check.defect_rel_max", "check.order",
                "check.projection_min", "check.drift_exponent_min")


def layer_metrics(table: SpanTable, facts: dict) -> dict:
    """Every PER_LAYER metric except trace.overhead_frac, from one traced rep.

    `facts` carries the read-outs that only the workload's results know
    (the FACT_METRICS); missing ones are 0.
    """
    m = {}

    def calls_and_seconds(span_name):
        spans = table.outermost({span_name})
        m[f"{span_name}_calls"] = len(spans)
        m[f"{span_name}_s"] = _seconds(table, spans)
        return spans

    rows = calls_and_seconds("laws.row")
    calls_and_seconds("laws.density")
    calls_and_seconds("laws.flux")
    calls_and_seconds("laws.stack")
    calls_and_seconds("kernel.einsum")
    pullbacks = calls_and_seconds("grid.pullback")
    m["grid.pullback_bytes"] = float(sum(table.values[i] for i in pullbacks))
    row_names = {"laws.row"}
    pulled_in_rows = sum(1 for i in pullbacks if table.under(i, row_names))
    m["laws.pullbacks_per_row"] = pulled_in_rows / len(rows) if rows else 0.0
    calls_and_seconds("maxwell.step")
    snapshots = calls_and_seconds("maxwell.snapshot")
    m["laws.snapshots_per_row"] = len(snapshots) / len(rows) if rows else 0.0
    calls_and_seconds("maxwell.profile")
    calls_and_seconds("laws.source")
    inits = table.outermost({"maxwell.engine_init"})
    m["maxwell.active_mode_frac"] = (
        sum(table.values[i] for i in inits) / len(inits) if inits else 0.0
    )
    m["maxwell.engine_init_s"] = _seconds(table, inits)
    calls_and_seconds("grid.divergence")
    calls_and_seconds("grid.reduce")
    calls_and_seconds("discover.rows")
    in_discover = {"discover.discover_laws"}
    svds = calls_and_seconds("kernel.svd")
    m["discover.svd_s"] = _seconds(table, [i for i in svds if table.under(i, in_discover)])
    m["discover.holdout_s"] = _seconds(
        table, [i for i in table.outermost({"laws.residual"}) if table.under(i, in_discover)]
    )
    m["forge.probe_s"] = _seconds(table, table.outermost({"forge.probe"}))
    m["forge.nullspace_s"] = _seconds(table, table.outermost({"forge.nullspace"}))
    m["forge.drift_s"] = _seconds(table, table.outermost({"forge.drift"}))
    m["forge.sample_calls"] = len(table.outermost({"forge.sample"}))
    m["harness.main_s"] = sum(table.self_ns(i) for i in table.outermost({"harness.main"})) / 1e9
    m["harness.csv_s"] = _seconds(table, table.outermost({"laws.to_csv"}))
    calls_and_seconds("waves.init")
    ffts = calls_and_seconds("kernel.fft")
    for layer in FFT_LAYERS:
        mine = [i for i in ffts if table.calling_layer(i) == layer]
        m[f"kernel.fft_calls.{layer}"] = len(mine)
        m[f"kernel.fft_s.{layer}"] = _seconds(table, mine)
    for name in FACT_METRICS:
        m[name] = float(facts.get(name, 0.0))
    return m
