"""The benchmark workloads, written against the public twopoint API.

Four scenarios make three workloads: spectral-balance, stepping (the
gauss-dense and yee-ladder scenarios in turn) and discover-forge.

Each workload has a `setup(seed, workdir)` that makes its inputs from the
seed (and writes any config files) and a `body(inputs)` that does the timed
work and returns an `Outcome`: work units done, one verdict per named check,
and accuracy read-outs.  The checks use the acceptance tolerances of
tests/test_acceptance.py unchanged.

Calls go through module attributes (`laws.run_balance`, not a name imported
into this file) so that the traced run, which patches those attributes, sees
every call the benchmark makes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from twopoint import discover, forge, grid, harness, laws, maxwell, waves

DEFECT_TOL = 1e-7  # acceptance criteria 3 and 4
WORK_MOVED_MIN = 1e-4  # criterion 3: the source must visibly move Q
ORDER_RANGE = (1.8, 2.2)  # criterion 5, Yee residual order
PROJECTION_MIN = 0.999  # criterion 6
CORRUPTED_MAX = 0.5  # criterion 6
BURGERS_EXPONENT_MIN = 3.5  # criterion 8
ADVECTION_DRIFT_MAX = 1e-9  # criterion 7


@dataclass
class Outcome:
    """What one execution of a workload body produced."""

    work: float
    checks: dict  # check name -> (passed, measured value)
    facts: dict = field(default_factory=dict)  # accuracy read-outs by metric name


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # work unit counted by Outcome.work
    checks: tuple  # every check name the body reports
    params: dict  # fixed sizes, recorded in the provenance of each result
    setup: Callable
    body: Callable


def _check(ok, value):
    return bool(ok), float(value)


# ---------------------------------------------------------------------------
# spectral-balance: two `twopoint verify` runs through the CLI entry point
# ---------------------------------------------------------------------------

SB = {
    "dims": 64,
    "dt": 1e-3,
    "nsteps": 400,
    "stride": 200,
    "kmax": 2,
    "mean_b": (0.0, 0.2, 0.1),
    "uniform_amplitude": (0.05, 0.03, 0.04),
    "free_laws": ("local-energy", "inversion", "rotation z 1", "translation 0 0 16 0"),
    "driven_laws": ("inversion", "rotation z 1"),
}
SB_FREE_LABELS = ("local-energy", "inversion", "rotation", "translation-0-0-16-m0")
SB_DRIVEN_LABELS = ("inversion", "rotation")


def _verify_config(seed, out_dir, law_descriptors, driven):
    n = SB["dims"]
    h = 1.0 / n
    lines = [
        f"grid.dims = {n} {n} {n}",
        f"grid.spacing = {h!r} {h!r} {h!r}",
        "stepper = spectral",
        f"dt = {SB['dt']!r}",
        f"nsteps = {SB['nsteps']}",
        f"analysis.stride = {SB['stride']}",
        "initial.kind = random",
        f"initial.seed = {seed}",
        f"initial.kmax = {SB['kmax']}",
        "initial.mean_b = " + " ".join(repr(b) for b in SB["mean_b"]),
        f"output.dir = {out_dir}",
    ]
    if driven:
        lines += [
            "source.kind = uniform",
            "source.amplitude = " + " ".join(repr(a) for a in SB["uniform_amplitude"]),
            f"source.omega = {2.0 * np.pi!r}",
        ]
    lines += [f"law.{i} = {d}" for i, d in enumerate(law_descriptors, 1)]
    return "\n".join(lines) + "\n"


def _setup_spectral_balance(seed, workdir):
    runs = {}
    for half, descriptors, driven in (
        ("free", SB["free_laws"], False),
        ("driven", SB["driven_laws"], True),
    ):
        out_dir = os.path.join(workdir, f"out_{half}")
        path = os.path.join(workdir, f"verify_{half}.txt")
        with open(path, "w") as f:
            f.write(_verify_config(seed, out_dir, descriptors, driven))
        runs[half] = (path, out_dir)
    return runs


def _balance_csv(out_dir, label):
    """(Q, defect) columns of one balance_<law>.csv written by `verify`."""
    with open(os.path.join(out_dir, f"balance_{label}.csv"), newline="") as f:
        if f.readline().strip() != "# schema=1":
            raise ValueError(f"balance_{label}.csv lacks its schema line")
        rows = list(csv.DictReader(f))
    q = np.array([float(r["Q"]) for r in rows])
    defect = np.array([float(r["defect"]) for r in rows])
    return q, defect


def _body_spectral_balance(runs):
    # random_band_limited scales the band to unit energy and adds a uniform
    # mean_b, whose energy on the unit box is |mean_b|^2: the harness's
    # norm_scale, known without re-generating the field.
    scale = 1.0 + float(np.dot(SB["mean_b"], SB["mean_b"]))
    checks = {}
    worst = 0.0
    for half, labels in (("free", SB_FREE_LABELS), ("driven", SB_DRIVEN_LABELS)):
        path, out_dir = runs[half]
        code = harness.main(["verify", path])
        checks[f"{half}.exit_code"] = _check(code == harness.EXIT_OK, code)
        for label in labels:
            q, defect = _balance_csv(out_dir, label)
            if half == "free":
                rel = float(np.max(np.abs(q - q[0]))) / scale
                name = f"free.{label}.q_drift_rel"
            else:
                rel = float(np.max(np.abs(defect))) / scale
                name = f"driven.{label}.defect_rel"
            worst = max(worst, rel)
            checks[name] = _check(rel <= DEFECT_TOL, rel)
    n = SB["dims"]
    return Outcome(
        work=2.0 * n**3 * SB["nsteps"],
        checks=checks,
        facts={"check.defect_rel_max": worst},
    )


# ---------------------------------------------------------------------------
# gauss-dense: a space-filling Gaussian current forces the dense RK4 path
# ---------------------------------------------------------------------------

# The pulse's mean (k = 0) current meets the mean magnetic field head on, so
# the source moves Q by ~3e-3 of the field energy whatever the random modes
# do (2.9e-3 at worst over seeds 1-20), far above the 1e-4 check.
GD = {
    "dims": 48,
    "cfl_fraction": 0.5,
    "nsteps": 16,
    "stride": 4,
    "kmax": 2,
    "mean_b": (0.0, 0.6, 0.8),
    "center": (0.5, 0.5, 0.5),
    "width": 0.1,
    "polarization": (0.0, 3.0, 4.0),
}


def _setup_gauss_dense(seed, workdir):
    g = grid.GridSpec.cube(1.0, GD["dims"])
    initial = waves.random_band_limited(g, seed=seed, kmax=GD["kmax"], mean_b=GD["mean_b"])
    current = maxwell.GaussianPulseCurrent(
        center=GD["center"], width=GD["width"], polarization=GD["polarization"]
    )
    dt = GD["cfl_fraction"] * maxwell.cfl_max_dt(g, "spectral")
    return initial, current, dt


def _body_gauss_dense(inputs):
    initial, current, dt = inputs
    rep = laws.run_balance(initial, current, dt, GD["nsteps"], laws.law_inversion(),
                           analysis_stride=GD["stride"])
    defect = rep.max_defect / rep.norm_scale
    moved = rep.max_q_drift / rep.norm_scale
    return Outcome(
        work=float(GD["dims"] ** 3 * GD["nsteps"]),
        checks={
            "inversion.defect_rel": _check(defect <= DEFECT_TOL, defect),
            "inversion.work_moves_q": _check(moved > WORK_MOVED_MIN, moved),
        },
        facts={"check.defect_rel_max": defect},
    )


# ---------------------------------------------------------------------------
# yee-ladder: staggered leapfrog under joint (h, dt) halving
# ---------------------------------------------------------------------------

YL = {"levels": ((32, 16), (64, 32)), "cfl_fraction": 0.3, "kmax": 1}


def _setup_yee_ladder(seed, workdir):
    out = []
    for n, nsteps in YL["levels"]:
        g = grid.GridSpec.cube(1.0, n)
        initial = waves.random_band_limited(g, seed=seed, kmax=YL["kmax"])
        out.append((initial, YL["cfl_fraction"] * maxwell.cfl_max_dt(g, "yee"), nsteps))
    return out


def _body_yee_ladder(levels):
    residuals = []
    for initial, dt, nsteps in levels:
        rep = laws.run_balance(initial, maxwell.ZeroCurrent(), dt, nsteps,
                               laws.law_inversion(), stepper="yee",
                               analysis_stride=max(1, nsteps // 4))
        residuals.append(rep.max_r)
    # one halving step: the fitted order is the log2 ratio of the residuals
    order = float(np.log2(residuals[0] / residuals[1]))
    lo, hi = ORDER_RANGE
    return Outcome(
        work=float(sum(n**3 * nsteps for n, nsteps in YL["levels"])),
        checks={"inversion.residual_order": _check(lo <= order <= hi, order)},
        facts={"check.order": order},
    )


# ---------------------------------------------------------------------------
# stepping: gauss-dense then yee-ladder in one repetition
# ---------------------------------------------------------------------------

# The two stepping-bound scenarios share one workload so that each benchmark
# run can be long enough to average over the host's speed drift.


def _setup_stepping(seed, workdir):
    return _setup_gauss_dense(seed, workdir), _setup_yee_ladder(seed, workdir)


def _body_stepping(inputs):
    parts = {"gauss-dense": _body_gauss_dense(inputs[0]),
             "yee-ladder": _body_yee_ladder(inputs[1])}
    return Outcome(
        work=sum(p.work for p in parts.values()),
        checks={f"{name}.{check}": verdict for name, p in parts.items()
                for check, verdict in p.checks.items()},
        facts={k: v for p in parts.values() for k, v in p.facts.items()},
    )


# ---------------------------------------------------------------------------
# discover-forge: law discovery on an ensemble, then the 1D invariant forge
# ---------------------------------------------------------------------------

DF = {
    "dims": 16,
    "members": 24,
    "kmax": 2,
    "dt": 1.5e-5,
    "nsteps": 4,
    "burgers_points": (0.4, 1.2, 2.1, 3.3, 4.2, 5.3),
    "advection_points": (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi),
}


def _setup_discover_forge(seed, workdir):
    rng = np.random.Generator(np.random.PCG64(seed))
    member_seeds = rng.integers(0, 2**31, size=DF["members"])
    sample_seeds = rng.integers(0, 2**31, size=2)
    # Both PDEs are translation invariant, so shifting the data and the
    # sample points together keeps every check's meaning for any seed.
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    g = grid.GridSpec.cube(1.0, DF["dims"])
    initials = [waves.random_band_limited(g, seed=int(s), kmax=DF["kmax"])
                for s in member_seeds]
    return initials, [int(s) for s in sample_seeds], phase


def _corrupted(law):
    return laws.TwoPointLawSpec(law.map, law.time_shift_steps, law.W, -law.K,
                                law.source, label="corrupted")


def _body_discover_forge(inputs):
    initials, sample_seeds, phase = inputs
    checks = {}
    ensemble = [maxwell.evolve(s, maxwell.ZeroCurrent(), DF["dt"], DF["nsteps"])
                for s in initials]
    rows = 0
    kept = near_null = 0
    projections = []
    for name, amap, ref, sample_seed in (
        ("identity", grid.AffineMap.identity(), laws.law_local_energy(), sample_seeds[0]),
        ("inversion", grid.AffineMap.inversion(), laws.law_inversion(), sample_seeds[1]),
    ):
        result = discover.discover_laws(ensemble, amap, seed=sample_seed)
        rows += result.rows
        s = result.singular_values
        near_null += int(np.sum(s <= 1e-6 * s[0]))  # discover_laws' default svd_rel_tol
        kept += len(result.candidates)
        p = result.projection_of(ref)
        p_bad = result.projection_of(_corrupted(ref))
        projections.append(p)
        checks[f"{name}.projection"] = _check(p >= PROJECTION_MIN, p)
        checks[f"{name}.corrupted_projection"] = _check(p_bad <= CORRUPTED_MAX, p_bad)

    burgers = forge.Pde1D("burgers", n=128, nu=0.05)
    x = burgers.nodes()
    f0 = np.sin(x + phase) + 0.5 * np.cos(2.0 * (x + phase))
    points = np.mod(np.array(DF["burgers_points"]) - phase, burgers.length)
    exponents = {}
    for order in (3, 4):
        moments = forge.time_derivative_samples(burgers, f0, points, order, dt_probe=0.012)
        invariants = forge.nullspace_invariants(moments)
        results = forge.verify_invariant_drift(burgers, f0, invariants, 0.5,
                                               fit_window=(0.02, 0.12), drift_floor=1e-10)
        exponents[order] = [r.exponent for r in results if np.isfinite(r.exponent)]
    p3 = min(exponents[3], default=float("nan"))
    p4 = min(exponents[4], default=float("nan"))
    checks["burgers.order3_exponent"] = _check(p3 >= BURGERS_EXPONENT_MIN, p3)
    checks["burgers.order4_not_lower"] = _check(p4 >= p3, p4)

    advection = forge.Pde1D("advection", n=128, c=1.0)
    f0 = np.sin(advection.nodes() + phase)
    points = np.mod(np.array(DF["advection_points"]) - phase, advection.length)
    invariants = forge.nullspace_invariants(forge.time_derivative_samples(advection, f0, points, 2))
    results = forge.verify_invariant_drift(advection, f0, invariants, advection.length)
    drift = max(float(np.max(r.drift)) for r in results)
    checks["advection.nullspace_dim"] = _check(len(invariants) == 2, len(invariants))
    checks["advection.drift"] = _check(drift <= ADVECTION_DRIFT_MAX, drift)

    return Outcome(
        work=float(rows),
        checks=checks,
        facts={
            "check.projection_min": min(projections),
            "check.drift_exponent_min": min(exponents[3] + exponents[4], default=float("nan")),
            "discover.kept_frac": kept / near_null if near_null else 0.0,
        },
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectral-balance", "node-steps",
            ("free.exit_code",)
            + tuple(f"free.{label}.q_drift_rel" for label in SB_FREE_LABELS)
            + ("driven.exit_code",)
            + tuple(f"driven.{label}.defect_rel" for label in SB_DRIVEN_LABELS),
            SB, _setup_spectral_balance, _body_spectral_balance,
        ),
        Workload(
            "stepping", "node-steps",
            ("gauss-dense.inversion.defect_rel", "gauss-dense.inversion.work_moves_q",
             "yee-ladder.inversion.residual_order"),
            {"gauss-dense": GD, "yee-ladder": YL}, _setup_stepping, _body_stepping,
        ),
        Workload(
            "discover-forge", "collocation-rows",
            ("identity.projection", "identity.corrupted_projection",
             "inversion.projection", "inversion.corrupted_projection",
             "burgers.order3_exponent", "burgers.order4_not_lower",
             "advection.nullspace_dim", "advection.drift"),
            DF, _setup_discover_forge, _body_discover_forge,
        ),
    )
}
