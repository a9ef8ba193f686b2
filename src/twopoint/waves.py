"""Closed-form field configurations used as oracles everywhere else.

The plane wave is

    E = E0 sin(k z - w t) x-hat,   B = E0 sin(k z - w t) y-hat,   w = k,

an exact solution of the unit-system Maxwell equations used by the steppers.
Its two-point translation energy has the closed form Vol * E0^2 * cos(k d)
for a shift d along the propagation axis, which is the main quantitative
target of the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidWavenumber
from .grid import FieldState, GridSpec


@dataclass(frozen=True)
class PlaneWaveSpec:
    """x-polarized wave moving along +/- z with common phase for E and B.

    amplitude  -- E0
    k          -- wavenumber along z; must equal 2 pi n / Lz on the target grid
    direction  -- +1 for the +z mover, -1 for the opposite mover
    """

    amplitude: float
    k: float
    direction: int = 1

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")

    @property
    def omega(self) -> float:
        return abs(self.k)

    def mode_number(self, grid: GridSpec) -> int:
        n = self.k * grid.lengths[2] / (2.0 * np.pi)
        if abs(n - round(n)) > 1e-9:
            raise InvalidWavenumber(
                f"k={self.k} is not an integer multiple of 2*pi/Lz={2 * np.pi / grid.lengths[2]}"
            )
        n = int(round(n))
        if abs(n) >= grid.dims[2] // 2:
            raise InvalidWavenumber(f"mode {n} is at or above the grid Nyquist limit")
        return n


def plane_wave(spec: PlaneWaveSpec, grid: GridSpec, t: float) -> FieldState:
    """Sample the travelling wave on the grid nodes at time t."""
    spec.mode_number(grid)
    z = grid.meshgrid()[2]
    phase = np.sin(spec.direction * spec.k * z - spec.omega * t)
    data = np.zeros((6, *grid.dims))
    data[0] = spec.amplitude * phase
    data[4] = spec.direction * spec.amplitude * phase
    return FieldState.from_data(grid, data, t)


def standing_wave(spec: PlaneWaveSpec, grid: GridSpec, t: float) -> FieldState:
    """Superpose the wave with its opposite mover so E has nodes at the walls.

    Built literally as the sum of two plane_wave calls; the result is
    E = 2 E0 sin(k z) cos(w t) x-hat, B = -2 E0 cos(k z) sin(w t) y-hat.
    """
    fwd = plane_wave(spec, grid, t)
    bwd = plane_wave(
        replace(spec, direction=-spec.direction, amplitude=-spec.amplitude), grid, t
    )
    return FieldState.from_data(grid, fwd.data + bwd.data, t)


def twopoint_energy_analytic(e0: float, vol: float, k: float, d: float) -> float:
    """Closed-form two-point translation energy of the plane wave."""
    return vol * e0 * e0 * float(np.cos(k * d))


# ---------------------------------------------------------------------------
# Seeded random band-limited initial data
# ---------------------------------------------------------------------------


def random_band_limited(
    grid: GridSpec,
    seed: int,
    kmax: int = 2,
    amplitude: float = 1.0,
    mean_b=(0.0, 0.0, 0.0),
) -> FieldState:
    """Random solenoidal (E, B) supported on integer modes |n_i| <= kmax.

    Coefficients are drawn from numpy's PCG64 generator in a fixed mode
    order, so the same seed reproduces the same field on every platform.
    Both fields are projected transverse to k mode by mode; `amplitude`
    rescales the result so that the energy integral (|E|^2 + |B|^2) dV
    equals amplitude**2.  A constant magnetic offset `mean_b` can be added
    (a valid Maxwell configuration) to give current-work terms a nonzero
    mean-field coupling.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if any(kmax >= n // 2 for n in grid.dims):
        raise ValueError("kmax must stay below the grid Nyquist mode")
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = np.zeros((6, *grid.dims), dtype=complex)
    rng_modes = [
        (nx, ny, nz)
        for nx in range(-kmax, kmax + 1)
        for ny in range(-kmax, kmax + 1)
        for nz in range(-kmax, kmax + 1)
        if (nx, ny, nz) != (0, 0, 0)
    ]
    for n in rng_modes:
        coeff = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        khat = np.asarray(n, dtype=float)
        khat /= np.linalg.norm(khat)
        for block in (0, 3):
            c = coeff[block : block + 3]
            coeff[block : block + 3] = c - (c @ khat) * khat
        idx = tuple(m % d for m, d in zip(n, grid.dims))
        spec[(slice(None), *idx)] += coeff
        conj_idx = tuple((-m) % d for m, d in zip(n, grid.dims))
        spec[(slice(None), *conj_idx)] += np.conj(coeff)
    data = np.real(np.fft.ifftn(spec, axes=(-3, -2, -1)))
    energy = np.sum(data * data) * grid.cell_volume
    if energy > 0.0:
        data *= amplitude / np.sqrt(energy)
    data[3] += mean_b[0]
    data[4] += mean_b[1]
    data[5] += mean_b[2]
    return FieldState.from_data(grid, data, 0.0)
