"""Closed-form field configurations used as oracles everywhere else.

The plane wave is

    E = E0 sin(k z - w t) x-hat,   B = E0 sin(k z - w t) y-hat,   w = k,

an exact solution of the unit-system Maxwell equations used by the steppers.
Its two-point translation energy has the closed form Vol * E0^2 * cos(k d)
for a shift d along the propagation axis, which is the main quantitative
target of the verification suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidWavenumber
from .grid import FieldState, GridSpec, _synthesize


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
    """Sample the travelling wave on the grid nodes at time t.

    The state also carries its one mode: sin(2 pi s z / Lz - w t) with
    s = direction * n holds N/2 (-i sgn s) exp(-i sgn(s) w t) at mode |s|
    of the rfftn half spectrum (N nodes).
    """
    s = spec.direction * spec.mode_number(grid)
    z = grid.meshgrid()[2]
    phase = np.sin(spec.direction * spec.k * z - spec.omega * t)
    data = np.zeros((6, *grid.dims))
    data[0] = spec.amplitude * phase
    data[4] = spec.direction * spec.amplitude * phase
    c = -0.5j * grid.num_nodes * np.sign(s) * np.exp(-1j * np.sign(s) * spec.omega * t)
    coeffs = np.zeros((6, 1), dtype=complex)
    coeffs[0] = spec.amplitude * c
    coeffs[4] = spec.direction * spec.amplitude * c
    return FieldState.from_data(grid, data, t, spectrum=(np.array([abs(s)]), coeffs))


def standing_wave(spec: PlaneWaveSpec, grid: GridSpec, t: float) -> FieldState:
    """Superpose the wave with its opposite mover so E has nodes at the walls.

    Built literally as the sum of two plane_wave calls, data and spectra
    (both at the one mode |s|); the result is
    E = 2 E0 sin(k z) cos(w t) x-hat, B = -2 E0 cos(k z) sin(w t) y-hat.
    """
    fwd = plane_wave(spec, grid, t)
    bwd = plane_wave(
        replace(spec, direction=-spec.direction, amplitude=-spec.amplitude), grid, t
    )
    (index, c_fwd), (_, c_bwd) = fwd.coefficients(), bwd.coefficients()
    return FieldState.from_data(grid, fwd.data + bwd.data, t, spectrum=(index, c_fwd + c_bwd))


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
    t: float = 0.0,
) -> FieldState:
    """Random solenoidal (E, B) at time t, supported on integer modes |n_i| <= kmax.

    Coefficients are drawn from numpy's PCG64 generator in a fixed mode
    order, so the same seed reproduces the same field on every platform.
    Both fields are projected transverse to k mode by mode, and each mode
    and its conjugate fill the block |nx|, |ny| <= kmax, 0 <= nz <= kmax of
    the rfftn half spectrum; `amplitude` rescales the block (by Parseval)
    so that the energy integral (|E|^2 + |B|^2) dV equals amplitude**2.  A
    constant magnetic offset `mean_b` can be added to the k = 0 mode (a
    valid Maxwell configuration) to give current-work terms a nonzero
    mean-field coupling.  The block is synthesised on the grid once, and
    the state carries it as `spectrum`.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if any(kmax >= n // 2 for n in grid.dims):
        raise ValueError("kmax must stay below the grid Nyquist mode")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = np.array(list(itertools.product(range(-kmax, kmax + 1), repeat=3)))
    n = n[np.any(n != 0, axis=1)]  # (modes, 3), in draw order
    draws = rng.standard_normal((len(n), 2, 6))  # per mode: 6 real parts, then 6 imaginary
    coeff = draws[:, 0] + 1j * draws[:, 1]
    khat = n / np.linalg.norm(n, axis=1, keepdims=True)
    for block in (0, 3):
        c = coeff[:, block : block + 3]
        coeff[:, block : block + 3] = c - np.einsum("mi,mi->m", c, khat)[:, None] * khat
    # the half spectrum holds nz >= 0; the nz = 0 plane takes both terms, and
    # no two modes of one term share an entry
    spec = np.zeros((6, 2 * kmax + 1, 2 * kmax + 1, kmax + 1), dtype=complex)
    up, down = n[:, 2] >= 0, n[:, 2] <= 0
    spec[:, kmax + n[up, 0], kmax + n[up, 1], n[up, 2]] += coeff[up].T
    spec[:, kmax - n[down, 0], kmax - n[down, 1], -n[down, 2]] += np.conj(coeff[down]).T
    # Parseval: a mode off the nz = 0 plane stands for its mirror too
    weight = np.where(np.arange(kmax + 1) == 0, 1.0, 2.0)
    energy = np.sum(weight * np.abs(spec) ** 2) * grid.cell_volume / grid.num_nodes
    if energy > 0.0:
        spec *= amplitude / np.sqrt(energy)
    spec[3:, kmax, kmax, 0] += np.asarray(mean_b, dtype=float) * grid.num_nodes
    band = np.arange(-kmax, kmax + 1)
    data = _synthesize(spec, (band, band, np.arange(kmax + 1)), grid.dims)
    nx, ny, nz = grid.dims
    index = np.ravel_multi_index(np.ix_(band % nx, band % ny, range(kmax + 1)),
                                 (nx, ny, nz // 2 + 1))
    return FieldState.from_data(grid, data, t, spectrum=(index.ravel(), spec.reshape(6, -1)))
