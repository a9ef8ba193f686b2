"""Convergence-order study: the laws are continuum statements.

Balance residuals on a discrete trajectory are pure discretization error,
so they must shrink at the stepper's order under refinement.  The Yee
leapfrog shows 2nd-order pointwise residuals under joint (h, dt) halving;
the exact spectral step shows 4th-order global defects on a driven dt
ladder, from the Simpson sum of the source work.
"""

import numpy as np

from twopoint import (
    AffineMap,
    GridSpec,
    PlaneWaveCurrent,
    ZeroCurrent,
    cfl_max_dt,
    law_inversion,
    law_local_energy,
    law_rotation,
    random_band_limited,
    run_balance,
)


def fitted_order(values):
    return float(-np.polyfit(np.arange(len(values)), np.log2(values), 1)[0])


print("Yee leapfrog: pointwise residual, joint (h, dt) halving")
metrics = {}
for level in range(3):
    n = 16 * 2**level
    grid = GridSpec.cube(1.0, n)
    initial = random_band_limited(grid, seed=5, kmax=1)
    laws = [law_local_energy(), law_inversion(), law_rotation(AffineMap.quarter_turn(2))]
    dt = 0.3 * cfl_max_dt(grid, "yee")
    reports = run_balance(initial, ZeroCurrent(), dt, 8 * 2**level, laws,
                          stepper="yee", analysis_stride=2 * 2**level)
    for rep in reports:
        metrics.setdefault(rep.label, []).append(rep.max_r)
    print(f"  {n:3d}^3: " + "  ".join(f"{r.label}={r.max_r:.3e}" for r in reports))
for label, vals in metrics.items():
    print(f"  fitted order [{label}]: {fitted_order(vals):.2f}")

print("\nspectral: global defect, dt halving with a resonant drive")
grid = GridSpec.cube(1.0, 16)
current = PlaneWaveCurrent(mode=(0, 1, 0), polarization=(1.0, 0.0, 4.0),
                           omega=2 * np.pi)
metrics = {}
for level in range(3):
    dt = 0.004 / 2**level
    initial = random_band_limited(grid, seed=3, kmax=1, amplitude=0.5)
    laws = [law_local_energy(), law_inversion()]
    reports = run_balance(initial, current, dt, 125 * 2**level, laws,
                          analysis_stride=16 * 2**level)
    for rep in reports:
        metrics.setdefault(rep.label, []).append(rep.max_defect)
    print(f"  dt={dt:8.5f}: " + "  ".join(f"{r.label}={r.max_defect:.3e}"
                                          for r in reports))
for label, vals in metrics.items():
    print(f"  fitted order [{label}]: {fitted_order(vals):.2f}")

print("\n(Source-free spectral defects sit at rounding: the free step is exact;")
print("the driven run exposes the 4th order of the Simpson work sum.)")
