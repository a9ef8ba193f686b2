"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 3 and 4 share two long 64^3 balance runs (session fixtures); the
rest are self-contained.  Tolerances are pinned here, not configurable.
"""

import filecmp
import os

import numpy as np
import pytest

from twopoint.discover import discover_laws
from twopoint.errors import NotARotation
from twopoint.forge import (
    Pde1D,
    nullspace_invariants,
    time_derivative_samples,
    verify_invariant_drift,
)
from twopoint.grid import AffineMap, GridSpec, volume_integral
from twopoint.harness import EXIT_OK, main
from twopoint.laws import (
    TwoPointLawSpec,
    density,
    law_inversion,
    law_local_energy,
    law_rotation,
    law_translation,
    residual,
    run_balance,
)
from twopoint.maxwell import UniformOscillating, ZeroCurrent, cfl_max_dt, evolve
from twopoint.waves import (
    PlaneWaveSpec,
    plane_wave,
    random_band_limited,
    standing_wave,
    twopoint_energy_analytic,
)

BOX = GridSpec.cube(1.0, 64)
WAVE = PlaneWaveSpec(amplitude=1.25, k=2.0 * np.pi * 4.0)
LAMBDA_NODES = 16  # one wavelength of the n = 4 mode on 64 nodes

RUN_SEED = 2026
RUN_DT = 1e-3
RUN_STEPS = 10_000  # 10 box-crossing times at c = 1, L = 1


def verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def shipped_laws(grid):
    return [
        law_local_energy(),
        law_inversion(),
        law_rotation(AffineMap.quarter_turn(2)),
        law_translation(grid, (0, 0, LAMBDA_NODES), 0),
    ]


@pytest.fixture(scope="module")
def free_run():
    initial = random_band_limited(BOX, seed=RUN_SEED, kmax=2, amplitude=1.0,
                                  mean_b=(0.0, 0.2, 0.1))
    reports = run_balance(initial, ZeroCurrent(), RUN_DT, RUN_STEPS,
                          shipped_laws(BOX), analysis_stride=200)
    return {rep.label: rep for rep in reports}


@pytest.fixture(scope="module")
def driven_run():
    initial = random_band_limited(BOX, seed=RUN_SEED, kmax=2, amplitude=1.0,
                                  mean_b=(0.0, 0.2, 0.1))
    j = UniformOscillating((0.05, 0.03, 0.04), omega=2.0 * np.pi)
    laws = [law_inversion(), law_rotation(AffineMap.quarter_turn(2))]
    reports = run_balance(initial, j, RUN_DT, RUN_STEPS, laws, analysis_stride=200)
    return {rep.label: rep for rep in reports}


@pytest.fixture(scope="module")
def discovery_ensemble():
    grid = GridSpec.cube(1.0, 16)
    return [
        evolve(random_band_limited(grid, seed=100 + i, kmax=2), ZeroCurrent(),
               1.5e-5, 4)
        for i in range(24)
    ]


def test_criterion_1_plane_wave_two_point_energy():
    state = plane_wave(WAVE, BOX, 0.0375)
    scale = BOX.volume * WAVE.amplitude**2
    worst = 0.0
    for nodes in (0, 4, 8, 16):  # d = 0, lambda/4, lambda/2, lambda
        d = nodes * BOX.spacing[2]
        law = law_translation(BOX, (0, 0, nodes), 0)
        q = volume_integral(density(law, state, state))
        expected = twopoint_energy_analytic(WAVE.amplitude, BOX.volume, WAVE.k, d)
        if abs(expected) > 1e-12 * scale:
            err = abs(q - expected) / abs(expected)
            ok = err <= 1e-8
        else:
            err = abs(q - expected) / scale
            ok = err <= 1e-10
        worst = max(worst, err)
        assert ok, f"d={nodes} nodes: err={err}"
    verdict(1, "plane-wave two-point energy vs Vol E0^2 cos(kd)", True,
            f"worst err {worst:.2e} <= 1e-8 rel / 1e-10 abs")


def test_criterion_2_standing_wave_time_independence():
    initial = standing_wave(WAVE, BOX, 0.0)
    period = 2.0 * np.pi / WAVE.omega
    dt = 1.2e-3
    nsteps = int(np.ceil(period / dt)) + 1
    law = law_translation(BOX, (0, 0, LAMBDA_NODES), 0)  # d = lambda, L = 4 lambda
    rep = run_balance(initial, ZeroCurrent(), dt, nsteps, law, analysis_stride=5)
    rel = rep.max_q_drift / abs(rep.Q[0])
    verdict(2, "standing-wave two-point energy time independence",
            rel <= 1e-8, f"relative variation {rel:.2e} <= 1e-8 over one period")


def test_criterion_3_inversion_global_balance(free_run, driven_run):
    free = free_run["inversion"]
    rel_free = free.max_q_drift / free.norm_scale
    driven = driven_run["inversion"]
    rel_driven = driven.max_defect / driven.norm_scale
    work_rel = driven.max_q_drift / driven.norm_scale
    ok = rel_free <= 1e-7 and rel_driven <= 1e-7 and work_rel > 1e-4
    verdict(3, "inversion law global balance, 10 crossing times at 64^3", ok,
            f"free |Q-Q0| {rel_free:.2e}, driven defect {rel_driven:.2e} "
            f"(work moved Q by {work_rel:.2e})")


def test_criterion_3_invariant_other_laws(free_run):
    # global-balance invariant: the same bound for every shipped law
    worst = max(rep.max_q_drift / rep.norm_scale for rep in free_run.values())
    verdict(3, "global balance of all shipped laws (invariant)", worst <= 1e-7,
            f"worst |Q-Q0| {worst:.2e} <= 1e-7")


def test_criterion_4_rotation_law(free_run, driven_run):
    free = free_run["rotation"]
    rel_free = free.max_q_drift / free.norm_scale
    driven = driven_run["rotation"]
    rel_driven = driven.max_defect / driven.norm_scale
    ok = rel_free <= 1e-7 and rel_driven <= 1e-7
    verdict(4, "rotation law global balance (quarter turn about z)", ok,
            f"free {rel_free:.2e}, driven defect {rel_driven:.2e}")


def test_criterion_4_improper_rotation_rejected():
    reflection = AffineMap(tuple(np.diag([1.0, 1.0, -1.0]).ravel()), (0.0, 0.0, 0.0))
    with pytest.raises(NotARotation):
        law_rotation(reflection)
    verdict(4, "improper rotation negative control", True,
            "det = -1 map rejected with NotARotation")


def test_criterion_5_yee_convergence_order():
    metrics = {}
    for level in range(3):
        n = 32 * 2**level
        grid = GridSpec.cube(1.0, n)
        initial = random_band_limited(grid, seed=5, kmax=1)
        laws = [law_local_energy(), law_inversion(),
                law_rotation(AffineMap.quarter_turn(2)),
                law_translation(grid, (0, 0, n // 4), 0)]
        dt = 0.3 * cfl_max_dt(grid, "yee")
        nsteps = 8 * 2**level
        reports = run_balance(initial, ZeroCurrent(), dt, nsteps, laws,
                              stepper="yee", analysis_stride=max(1, nsteps // 4))
        for rep in reports:
            metrics.setdefault(rep.label.split("-")[0], []).append(rep.max_r)
    orders = {
        label: float(-np.polyfit(np.arange(3), np.log2(vals), 1)[0])
        for label, vals in metrics.items()
    }
    ok = all(1.8 <= order <= 2.2 for order in orders.values())
    detail = " ".join(f"{k}={v:.2f}" for k, v in orders.items())
    verdict(5, "Yee pointwise residual order 2.0 +/- 0.2, joint (h, dt) halving",
            ok, detail)


def test_criterion_5_spectral_temporal_order():
    # driven run: the free step is exact, so the defect per law is the
    # O(dt^4) error of `_balance`'s cumulative-Simpson sum of the source work
    grid = GridSpec.cube(1.0, 16)
    from twopoint.maxwell import PlaneWaveCurrent

    j = PlaneWaveCurrent(mode=(0, 1, 0), polarization=(1.0, 0.0, 4.0),
                         omega=2.0 * np.pi)
    metrics = {}
    for level in range(3):
        dt = 0.004 / 2**level
        nsteps = 125 * 2**level
        initial = random_band_limited(grid, seed=3, kmax=1, amplitude=0.5)
        laws = [law_local_energy(), law_inversion(),
                law_rotation(AffineMap.quarter_turn(2)),
                law_translation(grid, (0, 0, 2), 0)]
        reports = run_balance(initial, j, dt, nsteps, laws,
                              analysis_stride=max(1, nsteps // 8))
        for rep in reports:
            metrics.setdefault(rep.label.split("-")[0], []).append(rep.max_defect)
    orders = {
        label: float(-np.polyfit(np.arange(3), np.log2(vals), 1)[0])
        for label, vals in metrics.items()
    }
    ok = all(3.5 <= order <= 4.5 for order in orders.values())
    detail = " ".join(f"{k}={v:.2f}" for k, v in orders.items())
    verdict(5, "spectral temporal order 4.0 +/- 0.5 (defect, dt ladder)", ok, detail)


def _corrupted(law):
    return TwoPointLawSpec(law.map, law.time_shift_steps, law.W, -law.K,
                           law.source, label="corrupted")


def test_criterion_6_discovery_recovers_known_laws(discovery_ensemble):
    ident = discover_laws(discovery_ensemble, AffineMap.identity(), seed=5)
    p_energy = ident.projection_of(law_local_energy())
    p_energy_bad = ident.projection_of(_corrupted(law_local_energy()))
    inv = discover_laws(discovery_ensemble, AffineMap.inversion(), seed=7)
    p_exotic = inv.projection_of(law_inversion())
    p_exotic_bad = inv.projection_of(_corrupted(law_inversion()))
    ok = (p_energy >= 0.999 and p_exotic >= 0.999
          and p_energy_bad <= 0.5 and p_exotic_bad <= 0.5)
    verdict(6, "discovery recovers local-energy and inversion laws", ok,
            f"proj(energy)={p_energy:.6f} proj(inversion)={p_exotic:.6f} "
            f"corrupted {p_energy_bad:.3f}/{p_exotic_bad:.3f} <= 0.5")


def test_criterion_7_forge_exact_linear_case():
    pde = Pde1D("advection", n=128, c=1.0)
    f0 = np.sin(pde.nodes())
    points = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    moments = time_derivative_samples(pde, f0, points, 2)
    inv = nullspace_invariants(moments)
    dim_ok = len(inv) == 2
    contains = all(
        np.linalg.norm(inv.alphas @ v) >= 1.0 - 1e-9
        for v in (np.array([1, 0, 1, 0]) / np.sqrt(2),
                  np.array([0, 1, 0, 1]) / np.sqrt(2))
    )
    period = pde.length / pde.c
    results = verify_invariant_drift(pde, f0, inv, period)
    max_drift = max(float(np.max(r.drift)) for r in results)
    ok = dim_ok and contains and max_drift <= 1e-9
    verdict(7, "invariant forge, exact advection case", ok,
            f"dim={len(inv)} basis-contained={contains} drift={max_drift:.2e} <= 1e-9")


def test_criterion_8_forge_burgers_drift_order():
    pde = Pde1D("burgers", n=128, nu=0.05)
    x = pde.nodes()
    f0 = np.sin(x) + 0.5 * np.cos(2 * x)
    points = np.array([0.4, 1.2, 2.1, 3.3, 4.2, 5.3])

    def exponents(order):
        moments = time_derivative_samples(pde, f0, points, order, dt_probe=0.012)
        inv = nullspace_invariants(moments)
        results = verify_invariant_drift(pde, f0, inv, 0.5,
                                         fit_window=(0.02, 0.12),
                                         drift_floor=1e-10)
        return [r.exponent for r in results if np.isfinite(r.exponent)]

    p3 = exponents(3)
    p4 = exponents(4)
    ok = bool(p3) and min(p3) >= 3.5 and bool(p4) and min(p4) >= min(p3)
    verdict(8, "invariant forge, Burgers drift exponents", ok,
            f"order-3 min p={min(p3):.2f} >= 3.5; order-4 min p={min(p4):.2f} "
            f"does not decrease")


def test_criterion_9_zero_shift_limits_reduce_to_local_energy():
    grid = GridSpec.cube(1.0, 16)
    initial = random_band_limited(grid, seed=9, kmax=2, mean_b=(0.0, 0.1, 0.0))
    j = UniformOscillating((0.03, 0.02, 0.01), omega=2.0 * np.pi)
    traj = evolve(initial, j, 1e-3, 40)
    ref = residual(traj, law_local_energy())
    worst = 0.0
    for law in (law_translation(grid, (0, 0, 0), 0),
                law_rotation(AffineMap.identity())):
        rep = residual(traj, law)
        for field in ("Q", "source_cum", "defect", "r_l2", "r_max"):
            a = getattr(rep, field)
            b = getattr(ref, field)
            finite = np.isfinite(b)
            worst = max(worst, float(np.max(np.abs(a[finite] - b[finite]), initial=0.0)))
    verdict(9, "translation(0,0) and rotation(I) match local energy", worst <= 1e-13,
            f"max report difference {worst:.2e} <= 1e-13")


def test_criterion_10_determinism(tmp_path):
    planewave_cfg = tmp_path / "pw.txt"
    planewave_cfg.write_text(
        "grid.dims = 64 64 64\n"
        "grid.spacing = 0.015625 0.015625 0.015625\n"
        "initial.k_mode = 4\n"
        "initial.amplitude = 1.25\n"
        "initial.time = 0.0375\n"
        "planewave.d_nodes = 0 4 8 16\n"
    )
    verify_cfg = tmp_path / "verify.txt"
    verify_cfg.write_text(
        "grid.dims = 16 16 16\n"
        "grid.spacing = 0.0625 0.0625 0.0625\n"
        "stepper = spectral\n"
        "dt = 0.001\n"
        "nsteps = 150\n"
        "analysis.stride = 25\n"
        "initial.kind = random\n"
        "initial.seed = 2026\n"
        "initial.kmax = 2\n"
        "initial.mean_b = 0.0 0.2 0.1\n"
        "source.kind = uniform\n"
        "source.amplitude = 0.05 0.03 0.04\n"
        "source.omega = 6.283185307179586\n"
        "law.1 = local-energy\n"
        "law.2 = inversion\n"
        "law.3 = rotation z 1\n"
        "law.4 = translation 0 0 4 0\n"
    )
    compared = 0
    for name, cfg in (("planewave", planewave_cfg), ("verify", verify_cfg)):
        out1 = tmp_path / f"{name}_1"
        out2 = tmp_path / f"{name}_2"
        assert main([name if name == "planewave" else "verify", str(cfg),
                     f"output.dir={out1}"]) == EXIT_OK
        assert main([name if name == "planewave" else "verify", str(cfg),
                     f"output.dir={out2}"]) == EXIT_OK
        for artifact in sorted(os.listdir(out1)):
            assert filecmp.cmp(out1 / artifact, out2 / artifact, shallow=False), artifact
            compared += 1
    verdict(10, "byte-identical CSVs on repeated runs", compared >= 6,
            f"{compared} artifacts compared byte for byte")
