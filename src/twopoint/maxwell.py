"""Time integration of the source-driven Maxwell system.

Units are chosen so the field equations read

    dE/dt =  curl B - J
    dB/dt = -curl E

with c = mu0 = eps0 = 1.  Currents are prescribed functions of (x, t),
separable as profile(x) * time_factor(t), and are transverse (divergence
free) so E stays solenoidal and no charge density enters.

Two steppers are provided, both on the gathered rfftn coefficients of the
field's active modes: the exact per-mode propagator of the pseudo-spectral
equations (a current's drive by Gauss-Legendre) and a staggered Yee
leapfrog (2nd order, its periodic stencils applied as per-mode Fourier
symbols), so conservation-law residuals can be checked both at the noise
floor and through a convergence-order study.  Each engine states its per-mode
closed form once (the parts of a mode's vector and the real phase of the
step's eigenvalue, and the drive's weights on those parts), for every leap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Diverged, StepTooLarge
from .grid import (
    AffineMap,
    FieldState,
    GridSpec,
    _mode_numbers,
    _pull_array,
    _sampled_modes,
    _scatter,
    _wavenumbers,
    spectral_wavevectors,
)

CFL_SAFETY = {"yee": 0.9, "spectral": 0.5}
# 3-point Gauss-Legendre on [0, 1]
_GL_NODES = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GL_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

def _nonzero(index: np.ndarray, coeffs: np.ndarray):
    """The modes of (index, coeffs) whose coefficients are not all 0."""
    keep = np.any(coeffs != 0.0, axis=0)
    return index[keep], coeffs[:, keep]


def _on(index: np.ndarray, sub: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(c, len(index)) coefficients holding `coeffs` at the distinct modes
    `sub`, a subset of the sorted `index`, and 0 at the others."""
    out = np.zeros((len(coeffs), len(index)), dtype=complex)
    out[:, np.searchsorted(index, sub)] = coeffs
    return out


# ---------------------------------------------------------------------------
# Prescribed currents
# ---------------------------------------------------------------------------


class CurrentSpec:
    """Closed-form descriptor of J(x, t) = profile(x) * time_factor(t).

    An engine reads the profile only through `modes`, its rfftn coefficients
    on the engine's grid, once per run.  `spatial_profile` samples it, for
    stored trajectories (`laws.residual`) and `laws.source_power`, and
    `profile_at` at mapped points, which no balance run reads.
    `time_factor` takes a time or an array of times.
    """

    is_zero = False

    def spatial_profile(self, grid: GridSpec) -> np.ndarray:
        raise NotImplementedError

    def time_factor(self, t: float) -> float:
        raise NotImplementedError

    def profile_at(self, grid: GridSpec, amap=None) -> np.ndarray:
        """Profile evaluated at alpha x + beta: its samples pulled back (through
        the band-limited interpolant for a shift off the nodes)."""
        if amap is None:
            return self.spatial_profile(grid)
        return _pull_array(self.spatial_profile(grid), grid, amap)

    def modes(self, grid: GridSpec):
        """(distinct flat rfftn indices, (3, n) coefficients) of the
        profile's modes on `grid`; here those of its samples above the noise."""
        return _sampled_modes(np.fft.rfftn(self.spatial_profile(grid), axes=(-3, -2, -1)))


@dataclass(frozen=True)
class ZeroCurrent(CurrentSpec):
    is_zero = True

    def spatial_profile(self, grid):
        return np.zeros((3, *grid.dims))

    def time_factor(self, t):
        return np.zeros(np.shape(t))


@dataclass(frozen=True)
class UniformOscillating(CurrentSpec):
    """Spatially uniform J = amplitude * sin(omega t + phase).

    A uniform current is exactly divergence free; it drives only the mean
    (k = 0) mode of E.
    """

    amplitude: tuple
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amplitude", tuple(float(a) for a in self.amplitude))

    def spatial_profile(self, grid):
        out = np.empty((3, *grid.dims))
        for i in range(3):
            out[i] = self.amplitude[i]
        return out

    def profile_at(self, grid, amap=None):
        return self.spatial_profile(grid)

    def modes(self, grid):
        return np.array([0]), np.array(self.amplitude, dtype=complex)[:, None] * grid.num_nodes

    def time_factor(self, t):
        return np.sin(self.omega * np.asarray(t, dtype=float) + self.phase)


@dataclass(frozen=True)
class PlaneWaveCurrent(CurrentSpec):
    """J = p_perp cos(k . x) sin(omega t + phase_t).

    The wavevector is specified by integer mode numbers, k = 2 pi n / L per
    axis, so it is automatically compatible with the periodic box, and the
    polarization is projected transverse to k at construction.
    """

    mode: tuple
    polarization: tuple
    omega: float
    phase_t: float = 0.0

    def __post_init__(self):
        mode = tuple(int(n) for n in self.mode)
        if mode == (0, 0, 0):
            raise ValueError("use UniformOscillating for the k = 0 current")
        p = np.asarray(self.polarization, dtype=float)
        khat = np.asarray(mode, dtype=float)
        khat /= np.linalg.norm(khat)
        p = p - (p @ khat) * khat
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "polarization", tuple(p))

    def _kvec(self, grid):
        return np.array(
            [2.0 * np.pi * n / L for n, L in zip(self.mode, grid.lengths)]
        )

    def spatial_profile(self, grid):
        return self.profile_at(grid, AffineMap.identity())

    def profile_at(self, grid, amap=None):
        """The closed form at alpha x + beta, beta taken modulo the box: k . L
        is a whole number of turns, and a huge beta would overflow the phase."""
        if amap is None:
            return self.spatial_profile(grid)
        k = self._kvec(grid)
        y = np.einsum("ij,j...->i...", amap.alpha_matrix, np.stack(grid.meshgrid()))
        c = np.cos(k[0] * y[0] + k[1] * y[1] + k[2] * y[2]
                   + k @ np.remainder(amap.beta_vector, grid.lengths))
        return np.stack([p * c for p in self.polarization])

    def modes(self, grid):
        """cos(k . x) on N nodes holds N/2 at the modes n and -n of the full
        spectrum (N where they alias to one); the half spectrum keeps those
        with nz <= Nz / 2."""
        nx, ny, nz = grid.dims
        full = np.array([[s * m % d for m, d in zip(self.mode, grid.dims)] for s in (1, -1)])
        count = np.bincount(np.ravel_multi_index(full[full[:, 2] <= nz // 2].T,
                                                 (nx, ny, nz // 2 + 1)))
        index = np.flatnonzero(count)
        return index, np.array(self.polarization, dtype=complex)[:, None] * (
            0.5 * grid.num_nodes * count[index])

    def time_factor(self, t):
        return np.sin(self.omega * np.asarray(t, dtype=float) + self.phase_t)


@dataclass(frozen=True)
class GaussianPulseCurrent(CurrentSpec):
    """Localized pulse: polarization * gaussian(x - center) * gaussian(t - t0).

    The raw separable profile is not divergence free, so it is projected
    solenoidal in Fourier space on the grid it is sampled on (`_spectrum`);
    `modes` reads that spectrum, `spatial_profile` is its irfftn.
    """

    center: tuple
    width: float
    polarization: tuple
    t0: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "polarization", tuple(float(p) for p in self.polarization))

    def _spectrum(self, grid: GridSpec) -> np.ndarray:
        """rfftn of the projected profile from one sampling and one rfftn:
        per mode, the polarization projected transverse to k times the
        Gaussian's coefficient, made that of a real profile on the kz = 0
        and Nyquist planes, whose mirrored modes share a Nyquist k."""
        r2 = np.zeros(grid.dims)
        for x, c, L in zip(grid.meshgrid(), self.center, grid.lengths):
            d = np.remainder(x - c + 0.5 * L, L) - 0.5 * L
            r2 += d * d
        with np.errstate(over="ignore"):  # a float64 square overflows to inf, not an error
            bump = np.fft.rfftn(np.exp(-r2 / (2.0 * np.float64(self.width) ** 2)))
        k = spectral_wavevectors(grid)
        k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        p = self.polarization
        kp = (k[0] * p[0] + k[1] * p[1] + k[2] * p[2]) / np.where(k2 == 0.0, 1.0, k2)
        spectrum = np.stack([(pi - ki * kp) * bump for pi, ki in zip(p, k)])
        nx, ny, nz = grid.dims
        planes = [0, nz // 2] if nz % 2 == 0 else [0]
        plane = spectrum[..., planes]
        mirror = plane[:, -np.arange(nx) % nx][:, :, -np.arange(ny) % ny]
        spectrum[..., planes] = 0.5 * (plane + np.conj(mirror))
        return spectrum

    def spatial_profile(self, grid):
        return np.fft.irfftn(self._spectrum(grid), s=grid.dims, axes=(-3, -2, -1))

    def modes(self, grid):
        return _sampled_modes(self._spectrum(grid))

    def time_factor(self, t):
        with np.errstate(over="ignore"):  # as in _spectrum
            return np.exp(-((np.asarray(t, dtype=float) - self.t0) ** 2)
                          / (2.0 * np.float64(self.tau) ** 2))


# ---------------------------------------------------------------------------
# CFL limits
# ---------------------------------------------------------------------------


def cfl_max_dt(grid: GridSpec, stepper: str = "yee") -> float:
    """Largest stable step: safety / sqrt(sum h_i^-2).

    Documented safety constants: 0.9 for the Yee leapfrog; 0.5 for the
    spectral engine, whose free step is exact at any dt, for its drive
    quadrature (`SpectralEngine._weights`) and the balance's Simpson sum.
    """
    if stepper not in CFL_SAFETY:
        raise ValueError(f"unknown stepper {stepper!r}")
    return CFL_SAFETY[stepper] / np.sqrt(grid.inv_h2)


def _check_dt(grid, dt, stepper):
    if not np.isfinite(dt) or dt <= 0.0:
        raise StepTooLarge(f"dt must be positive, got {dt}")
    limit = cfl_max_dt(grid, stepper)
    if dt > limit * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt} exceeds {stepper} CFL limit {limit}")


# ---------------------------------------------------------------------------
# Engines
#
# Both steppers share one protocol, constructed as Engine(state, current, dt):
#   advance(k=1, dual=None)
#                      k steps: the stepper's own step at k = 1, closed forms
#                      beyond (the free step's k-th power e^{i k theta}, plus
#                      the drive's sum over the k steps, both from the engine's
#                      one `_split` and `_weights`) where they cost less;
#                      with a `dual`, the (k, 6, c) `pair` values of the k
#                      steps it passes, for any dual (a driven closed form
#                      works on the modes the current drives and the dual
#                      weighs: `_reach`)
#   energy()           int (|E|^2 + |B|^2) dV at the current step
#   analysis_grid      the grid the balance rows are evaluated on: the coarsest
#                      grid of the same box on which every quadratic quantity
#                      of the active modes is exact, where that grid is
#                      smaller than the engine's own, else the own grid
#   state(grid=None)   the collocated FieldState of the current step on the
#                      own grid (default) or the analysis grid; on the own
#                      grid, step 0 is the initial state itself, and any
#                      other is lazy, holding the step's coefficients, and
#                      its samples as well once they are read
#   profile()          the current's (3, ...) profile on the analysis grid
#   dual(mapped)       the (c, ...) arrays `mapped` on the analysis grid (the
#                      current's profile pulled back to each law map) as the
#                      weights that `pair` contracts the field with
#   pair(dual)         the (6, c) volume integrals of F_a q_c at the current
#                      step, with no snapshot
# ---------------------------------------------------------------------------


def _curl(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Curl of the gathered vector v for the per-axis derivative symbols d."""
    return d[[1, 2, 0]] * v[[2, 0, 1]] - d[[2, 0, 1]] * v[[1, 2, 0]]


class SpectralEngine:
    """The exact propagator on the active rfftn coefficients of the (E, B) field.

    The update is diagonal over wavevectors: per mode the free field obeys
    u' = i C u, C u = (k x B, -k x E), whose eigenvalues are 0 and +-|k|, so
    one step is e^{ihC} = I + i b C - c C^2, b = sin(|k| h) / |k|, c = (1 -
    cos(|k| h)) / |k|^2, and C^2 u = |k|^2 u - k (k . u) blockwise takes no
    second curl.  k is 0 along an axis at its Nyquist mode, whose imaginary
    part an irfftn drops, so the coefficients stay a real field's.  A
    current J = profile * f(t) adds its Duhamel integral over the step
    (`_weights`).  Only the active modes are stepped: those with a nonzero
    coefficient in the state's `coefficients()` or the current's `modes`
    (exact from a generator, a closed form or a stepped state, read or not;
    from an rfftn above ~1e-15 of the largest for sampled data, whose FFT
    round-trip noise is decoupled from the rest and keeps its norm).  A step
    makes no BLAS call: a woken second BLAS thread would spin after each
    small product.

    Both engines leap in closed form.  Per mode, the step M has one
    eigenvalue l = e^{i theta} on the transverse part, its conjugate on the
    rest of it and 1 on the longitudinal part, so M^p w = L w + cos(p theta)
    V w + sin(p theta) N w (`_split` gives theta), and a drive of weights
    sigma_j on a fixed vector g (`_weights`; `_g` holds its parts) sums over
    a leap to sigma's causal convolution with the powers of l, one cumulative
    sum as l^-j = conj(l^j); the step adds its drive from the same parts.
    """

    # steps times modes of one block of a driven leap's tables (about 3 MiB
    # of them); of 2^12 ... 2^18, it was within 15 % of the fastest on every
    # leap that `_leaps` takes in the sweep it quotes
    _LEAP_CELLS = 1 << 15

    def __init__(self, state: FieldState, current: CurrentSpec, dt: float):
        self._gather(state, current, dt)
        h, dims = self.dt, self.grid.dims
        k = self._per_mode([np.where(2 * np.abs(n) == d, 0.0, a) for n, d, a in
                            zip(_mode_numbers(dims), dims, _wavenumbers(dims, self.grid.spacing))])
        kx, ky, kz = k
        self._kappa = kappa = np.sqrt(kx * kx + ky * ky + kz * kz)
        self._ka = np.stack([ky, kz, kx, kz, kx, ky])  # row factors of C u
        self._kb = np.stack([kz, kx, ky, ky, kz, kx])
        self._ib = 1j * h * np.sinc(kappa * h / np.pi)  # i b; sinc does not cancel as |k| -> 0
        c = 0.5 * h * h * np.sinc(kappa * h / (2.0 * np.pi)) ** 2
        self._a = np.cos(kappa * h)  # 1 - c |k|^2, as - c C^2 u = - c |k|^2 u + c k (k . u)
        # k and c k per real and imaginary part, for real contractions
        self._k, self._ck = np.repeat(k, 2, axis=1), np.repeat(c * k, 2, axis=1)
        # h w e^{i |k| (h - s)} at the drive's Gauss-Legendre nodes s (`_weights`)
        self._gauss = h * _GL_WEIGHTS[:, None] * np.exp(1j * (h - h * _GL_NODES)[:, None] * kappa)
        self._g = self._drive_parts(self._jh)

    def _gather(self, state: FieldState, current: CurrentSpec, dt: float):
        """Set what every mode-space engine shares: the active modes (those of
        the state and of the current), the state's gathered `coefficients()`
        as `u`, the current profile's as `_jh` (None for no current), the
        snapshot layouts and the analysis grid.  Nothing here is scattered
        into an rfftn array of the grid."""
        grid = state.grid
        self.grid = grid
        self.current = current
        self.dt = float(dt)
        self.initial = state
        self.step_index = 0
        self.mask = np.zeros((*grid.dims[:2], grid.dims[2] // 2 + 1), dtype=bool)
        s_index, s_coeffs = _nonzero(*state.coefficients())
        self.mask.flat[s_index] = True
        if not current.is_zero:
            j_index, j_coeffs = _nonzero(*current.modes(grid))
            self.mask.flat[j_index] = True
        index = np.flatnonzero(self.mask)
        kz = index % self.mask.shape[2]  # Parseval: off these planes a mode is its mirror too
        self._weight = np.where((kz == 0) | (2 * kz == grid.dims[2]), 1.0, 2.0)
        self.u = _on(index, s_index, s_coeffs)
        self._jh = None if current.is_zero else _on(index, j_index, j_coeffs)
        # grid -> (flat rfftn index of each active mode, coefficient scale)
        self._layout = {grid: (index, 1.0)}
        self.analysis_grid = grid
        self._coarsen(self._per_mode(_mode_numbers(grid.dims)))

    def _per_mode(self, per_axis) -> np.ndarray:
        """(3, modes) values of the active modes from one rfftn-layout
        array per axis, in the order of the gathered coefficients."""
        return np.stack([a[i] for a, i in zip(per_axis, np.nonzero(self.mask))])

    def _coarsen(self, n: np.ndarray):
        """Add the coarsest grid on which the active modes' products are exact.

        Every field carries integer modes |n_i| <= K (n holds them per
        active mode), so a product of two has band 2K and the square of one
        4K.  On M >= 4K + 1 nodes per axis the samples of those products,
        their spectral divergence and their integrals are exact; M = 4K + 2
        (at least 4, the smallest grid) on every axis keeps each symmetry of
        the box a symmetry of the coarse grid.  The coarse grid is the
        analysis grid only where it has fewer nodes than the engine's; its
        coefficients are rescaled to sums over its nodes.
        """
        grid = self.grid
        k_band = int(np.max(np.abs(n), initial=0))
        m = max(4 * k_band + 2, 4)
        if any(m >= d for d in grid.dims):
            return
        self.analysis_grid = GridSpec((m, m, m), tuple(L / m for L in grid.lengths))
        self._layout[self.analysis_grid] = (
            np.ravel_multi_index((n[0] % m, n[1] % m, n[2]), (m, m, m // 2 + 1)),
            m**3 / grid.num_nodes,
        )

    # -- dynamics ----------------------------------------------------------

    def advance(self, k: int = 1, dual=None):
        """Apply k steps; with `dual`, return the (k, 6, c) `pair` values of
        the steps passed.

        One step is the stepper's own (`_step`).  A free leap is the k-th
        power of the step (`_power`); a driven one is closed form on the
        modes `_reach(dual)` (`_leap`) where `_leaps` finds that cheaper
        than the steps, and is taken one step at a time otherwise.
        """
        if k > 1 and self._g is None and dual is None:
            self.u = self._power(k)
            self.step_index += k
            return None
        if k > 1 and self._g is not None:
            r = self._reach(dual)
            if self._leaps(k, len(r)):
                return self._leap(k, dual, r)
        pairs = []
        for _ in range(k):
            self._step()
            self.step_index += 1
            if dual is not None:
                pairs.append(self.pair(dual))
        return None if dual is None else np.array(pairs)

    def _reach(self, dual) -> np.ndarray:
        """The active modes a driven leap works on, whatever the maps behind
        `dual`: those the current drives and those where `dual` weighs more
        than 1e-12 of its largest weight (FFT round-off is neglected)."""
        reach = np.any(self._jh != 0.0, axis=0)
        if dual is not None:
            weight = np.max(np.abs(dual), axis=0)
            reach |= weight > 1e-12 * np.max(weight)
        return np.flatnonzero(reach)

    def _leaps(self, k: int, near: int) -> bool:
        """Whether a driven leap of k steps on `near` of the active modes is
        expected to cost less than the steps, on costs counted in one mode
        of one step: a step with its pairing costs 400 + M for M active
        modes, a closed-form leap 3600 + M + k (30 + 5 R) for R = `near`
        (fitted to a sweep of both engines over leaps of 2-1000 steps, R/M
        of 0.0003-1 and M of 74, 2 600 and 18 512, on a 2-core x86 box: a
        Gaussian current drives every mode and steps, a uniform one on a
        64^3 `verify` drives one of 75 and leaps from k = 9).
        """
        modes = self.u.shape[1]
        return 3600 + modes + k * (30 + 5 * near) < k * (400 + modes)

    def _leap(self, k: int, dual, r: np.ndarray):
        """k steps in closed form on the modes r (`_reach(dual)`), in blocks
        whose tables hold at most `_LEAP_CELLS` steps times modes; the free
        part of the landing state is `_power`'s on every mode.

        Over a block of n steps from u, with the drive's weights (w0_j,
        sigma_j) of step j (`_weights`), the state after i + 1 steps is

            L u + Re(l^(i+1)) V u + Im(l^(i+1)) N u
                + (sum_{j <= i} w0_j) L g + Re(z_i) V g + Im(z_i) N g,

        z_i = sum_{j <= i} l^(i - j) sigma_j = l^i sum_{j <= i} conj(l^j) sigma_j
        (|l| = 1): one cumulative sum; a dual's pairs of those states are one
        contraction of the six parts' pairs.
        """
        # L g and V g are stored without their B rows, which are 0; `_at_nodes` needs all 6
        lg, vg = (np.concatenate((p[:, r], np.zeros(p[:, r].shape))) for p in self._g[:2])
        ng = self._g[2][:, r]
        block = max(1, self._LEAP_CELLS // max(len(r), 1))
        pairs = []
        for first in range(0, k, block):
            n = min(block, k - first)
            w0, sigma = self._weights(self.step_index + np.arange(n), r)
            split = self._split(self.u)  # column-wise, so its r columns are u[:, r]'s
            (lu, vu, nu), theta = split
            lp = np.exp(1j * np.arange(n + 1)[:, None] * theta[r])  # l^0 ... l^n
            z = lp[:-1] * np.cumsum(np.conj(lp[:-1]) * sigma, axis=0)
            c0, lp = np.cumsum(w0), lp[1:]
            if dual is not None:
                coef = np.stack([np.ones(lp.shape), lp.real, lp.imag,
                                 np.broadcast_to(c0[:, None], lp.shape), z.real, z.imag], axis=1)
                parts = np.stack([self._at_nodes(p, r) for p in
                                  (lu[:, r], vu[:, r], nu[:, r], lg, vg, ng)])
                pairs.append(np.einsum("iqm,qacm->iac", coef,
                                       np.real(parts[:, :, None] * dual[:, r])))
            self.u = self._power(n, split)
            self.u[:, r] += c0[-1] * lg + z[-1].real * vg + z[-1].imag * ng
            self.step_index += n
        return None if dual is None else np.concatenate(pairs)

    def _step(self):
        """One step e^{ihC} u = u + i b C u - c C^2 u blockwise, with C^2 u =
        |k|^2 u - k (k . u), plus the step's drive (`_weights`) if driven."""
        u = self.u
        out = self._ka * u[[5, 3, 4, 1, 2, 0]]
        out -= self._kb * u[[4, 5, 3, 2, 0, 1]]
        out *= self._ib  # i b C u
        out += self._a * u
        ku = np.einsum("ix,bix->bx", self._k, u.view(float).reshape(2, 3, -1))
        out += (self._ck * ku[:, None]).view(complex).reshape(6, -1)
        if self._g is not None:
            (w0,), (sigma,) = self._weights(np.array([self.step_index]), slice(None))
            lg, vg, ng = self._g  # g = (-J, 0): N g is 0 on E
            out[:3] += w0 * lg + sigma.real * vg
            out[3:] += sigma.imag * ng[3:]
        self.u = out

    def _power(self, k: int, split=None) -> np.ndarray:
        """`u` after k free steps: L u + Re(l^k) V u + Im(l^k) N u, l^k =
        e^{i k theta}, from `_split(u)` or the given one."""
        (lu, vu, nu), theta = self._split(self.u) if split is None else split
        lk = np.exp(1j * (k * theta))
        return lu + lk.real * vu + lk.imag * nu

    def _drive_parts(self, e):
        """(L g, V g, N g) of the drive's vector g = (-e, 0), L g and V g as
        their E rows, since both are 0 on B; None for no current."""
        if e is None:
            return None
        (lg, vg, ng), _ = self._split(np.concatenate((-e, 0.0 * e)))
        return lg[:3].copy(), vg[:3].copy(), ng

    def _split(self, w: np.ndarray) -> tuple:
        """((L w, V w, N w), theta) of the (6, modes) vectors w: L w is w's
        part in C's null space (the longitudinal part, all of w at the mean
        mode), V w = C^2 w / |k|^2 and N w = i C w / |k|, and theta = |k| h,
        the phase of the step's eigenvalue on C = |k|."""
        mean = self._kappa == 0.0
        kh = self._k[:, ::2] / np.where(mean, 1.0, self._kappa)  # `_k` holds k twice per mode
        lw = np.concatenate((kh * np.sum(kh * w[:3], axis=0), kh * np.sum(kh * w[3:], axis=0)))
        lw[:, mean] = w[:, mean]
        nw = 1j * np.concatenate((_curl(kh, w[3:]), -_curl(kh, w[:3])))
        return (lw, w - lw, nw), self._kappa * self.dt

    def _weights(self, steps: np.ndarray, r) -> tuple:
        """The drive's weights of the given steps from t: w0 = int_0^h f(t + s)
        ds on L g (per step) and the Duhamel integral sigma = int_0^h
        e^{i |k| (h - s)} f(t + s) ds (per step and mode r), both by 3-point
        Gauss-Legendre, whose per-mode weights `_gauss` the engine holds."""
        t = self.initial.t + steps * self.dt
        f = [self.current.time_factor(t + s) for s in self.dt * _GL_NODES]
        return (self.dt * sum(w * fq for w, fq in zip(_GL_WEIGHTS, f)),
                sum(np.multiply.outer(fq, wq) for fq, wq in zip(f, self._gauss[:, r])))

    # -- snapshots and pairings ------------------------------------------------

    def _at_nodes(self, w: np.ndarray, r=slice(None)) -> np.ndarray:
        """The collocated coefficients of the stepped vectors w at the modes r."""
        return w

    def _nodes(self) -> np.ndarray:
        """The gathered coefficients of the collocated field at the current step."""
        return self.u

    def energy(self) -> float:
        """int (|E|^2 + |B|^2) dV at the current step: Parseval over the
        active modes."""
        u = self._nodes()
        power = float(np.sum(self._weight * np.sum(u.real**2 + u.imag**2, axis=0)))
        return power * (self.grid.cell_volume / self.grid.num_nodes)

    def dense_coefficients(self, u: np.ndarray, grid: GridSpec) -> np.ndarray:
        """The gathered coefficients u scattered into the rfftn array of
        `grid` (the own grid or the analysis grid)."""
        index, scale = self._layout[grid]
        return _scatter(u * scale, index, grid.dims)

    def state(self, grid: Optional[GridSpec] = None) -> FieldState:
        """A lazy FieldState holding the current step's coefficients at the
        layout of `grid`: its samples are synthesised on their first read.
        Coefficients that are not finite raise Diverged naming the step."""
        grid = self.grid if grid is None else grid
        if grid not in self._layout:
            raise ValueError(f"no snapshots on grid {grid.dims}")
        step = self.step_index
        if step == 0 and grid == self.grid:
            return self.initial  # the exact data, not its FFT round trip
        u = self._nodes()
        if not np.all(np.isfinite(u)):
            raise Diverged(f"field is not finite at step {step}")
        index, scale = self._layout[grid]
        return FieldState.from_spectrum(grid, index, u * scale, self.initial.t + step * self.dt)

    def dual(self, mapped: np.ndarray) -> np.ndarray:
        """The weights that `pair` contracts the field with for the (c, ...)
        arrays `mapped` on the analysis grid: their conjugate rfftn
        coefficients at the active modes, times Parseval's weights (as in
        `energy`), the snapshot scale and cell volume over node count."""
        grid = self.analysis_grid
        index, scale = self._layout[grid]
        qh = np.fft.rfftn(mapped, axes=(-3, -2, -1)).reshape(len(mapped), -1)
        return np.conj(qh[:, index]) * (self._weight * (scale * grid.cell_volume / grid.num_nodes))

    def pair(self, dual: np.ndarray) -> np.ndarray:
        """(6, c) volume integrals of F_a q_c at the current step."""
        return np.real(self._nodes() @ dual.T)

    def profile(self) -> np.ndarray:
        """The current's (3, ...) profile on the analysis grid, synthesised
        from its coefficients."""
        grid = self.analysis_grid
        return np.fft.irfftn(self.dense_coefficients(self._jh, grid), s=grid.dims,
                             axes=(-3, -2, -1))


# ---------------------------------------------------------------------------
# Yee leapfrog engine
# ---------------------------------------------------------------------------


class YeeEngine(SpectralEngine):
    """Staggered leapfrog on the active modes: B lives at half steps, E at
    whole steps.

    Every stencil of the scheme is a constant-coefficient periodic stencil,
    so it is diagonal over the rfftn modes.  With z = exp(i k_a h_a) on axis
    a, the curls of E and of B take the forward and backward differences
    (z - 1) / h_a and (1 - 1/z) / h_a, and the 4th-order half-cell shift
    onto the staggered sites and back is (-1/z + 9 + 9 z - z^2) / 16 and
    (-1/z^2 + 9/z + 9 - z) / 16.  E_i sits half a cell along axis i, B_i
    along the two other axes, and J is staggered like E.  `u` holds the
    staggered E and B(t - dt/2); snapshots and pairings shift them back to
    the nodes on demand (B time-averaged to the whole step), so
    repeated stepping never filters the state.  Its `_split` returns the
    phase theta of the leapfrog's eigenvalues exp(+-i theta) per mode, so
    every power of them is on the unit circle by construction.
    """

    def __init__(self, state: FieldState, current: CurrentSpec, dt: float):
        self._gather(state, current, dt)
        dims = self.grid.dims
        z = self._per_mode([np.exp(2j * np.pi * n / d) for n, d in zip(_mode_numbers(dims), dims)])
        zi = 1.0 / z
        dth = self.dt / np.reshape(self.grid.spacing, (3, 1))
        self._dplus, self._dminus = dth * (z - 1.0), dth * (1.0 - zi)  # dt x differences
        up = (-zi + 9.0 + 9.0 * z - z * z) / 16.0
        down = (-zi * zi + 9.0 * zi + 9.0 - z) / 16.0
        # per row of u: E_i is shifted along axis i, B_i along the two others
        up, self._down = (np.concatenate((s, s[[1, 0, 0]] * s[[2, 2, 1]])) for s in (up, down))
        self._u0 = self.u
        self.u = up * self._u0
        # B is carried at t - dt/2; dB/dt = -curl E gives the backward half step
        self.u[3:] += 0.5 * _curl(self._dplus, self.u[:3])
        self._drive = None if self._jh is None else self.dt * up[:3] * self._jh
        self._g = self._drive_parts(self._drive)

    def advance(self, k: int = 1, dual=None):
        # bench/tracing.py times Yee steps and snapshots by patching this
        # class's own `advance` and `state`, so the class keeps both
        return super().advance(k, dual)

    def _step(self):
        t_half = self.initial.t + (self.step_index + 0.5) * self.dt
        b = self.u[3:] - _curl(self._dplus, self.u[:3])
        e = self.u[:3] + _curl(self._dminus, b)
        if self._drive is not None:
            e -= self.current.time_factor(t_half) * self._drive
        self.u = np.concatenate((e, b))

    def _split(self, w: np.ndarray) -> tuple:
        """((L w, V w, N w), theta) of the (6, modes) vectors w, for the free
        step M, which obeys M^2 = T M - I, T = 2 - curl- curl+ on E and 2 -
        curl+ curl- on B.  T/2 is 1 on the longitudinal part L w (E along
        d+, B along d-), which M keeps, and cos(theta) = 1 - s/2, s = sum
        |dt d+|^2, on the rest V w = w - L w, where N w = (M - cos(theta))
        V w / sin(theta); for v = V w, (M - cos(theta)) v = (curl- v_B -
        s/2 v_E, s/2 v_B - curl+ v_E)."""
        dp, dm = self._dplus, self._dminus
        s = np.sum(dp.real**2 + dp.imag**2, axis=0)
        mean = s == 0.0  # no curl: the whole mode is longitudinal
        s[mean] = 1.0
        lw = np.concatenate((dp * np.sum(dm * w[:3], axis=0),
                             dm * np.sum(dp * w[3:], axis=0))) / -s  # d- . d+ = -s
        lw[:, mean] = w[:, mean]
        v, half = w - lw, 0.5 * s
        theta = 2.0 * np.arcsin(np.sqrt(0.5 * half))
        nv = np.concatenate((_curl(dm, v[3:]) - half * v[:3], half * v[3:] - _curl(dp, v[:3])))
        return (lw, v, nv / np.sin(theta)), theta

    def _weights(self, steps: np.ndarray, r) -> tuple:
        """The drive f(t + dt/2) g of a step has the weight f on every part."""
        f = self.current.time_factor(self.initial.t + (steps + 0.5) * self.dt)
        return f, f[:, None]

    def _at_nodes(self, w: np.ndarray, r=slice(None)) -> np.ndarray:
        b = w[3:] - 0.5 * _curl(self._dplus[:, r], w[:3])  # B at the whole step
        return self._down[:, r] * np.concatenate((w[:3], b))

    def _nodes(self) -> np.ndarray:
        if self.step_index == 0:
            return self._u0  # the initial coefficients, never staggered
        return self._at_nodes(self.u)

    def state(self, grid: Optional[GridSpec] = None) -> FieldState:
        return super().state(grid)


# ---------------------------------------------------------------------------
# Public stepping API
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trajectory:
    """Uniformly spaced states of one evolution run."""

    states: list
    dt: float
    source: CurrentSpec

    def __post_init__(self):
        if not self.states:
            raise ValueError("trajectory needs at least one state")
        g = self.states[0].grid
        if any(s.grid != g for s in self.states):
            raise ValueError("trajectory states must share one grid")
        steps = np.diff([s.t for s in self.states])
        if not np.all(np.isclose(steps, self.dt, rtol=1e-9, atol=1e-12)):
            raise ValueError("trajectory states must be uniformly spaced")

    @property
    def grid(self) -> GridSpec:
        return self.states[0].grid

    def __len__(self):
        return len(self.states)


_ENGINES = {"spectral": SpectralEngine, "yee": YeeEngine}


def _engine(stepper: str, state: FieldState, j: CurrentSpec, dt: float):
    """The stepper's engine at `state`, once dt has passed its CFL check."""
    _check_dt(state.grid, dt, stepper)  # rejects unknown stepper names too
    return _ENGINES[stepper](state, j, dt)


def evolve(
    initial: FieldState,
    j: CurrentSpec,
    dt: float,
    nsteps: int,
    stepper: str = "spectral",
) -> Trajectory:
    """March nsteps steps and return all nsteps+1 states.

    The Yee run keeps its staggered mode coefficients for the whole
    trajectory and only shifts snapshots back to the nodes, so the leapfrog
    is never filtered by the collocation resampling.  Every state after the
    initial one is lazy (`SpectralEngine.state`): it synthesises its samples
    on their first read and keeps its coefficients, which discovery's fit
    rows read and `evolve` from it adopts, with no transform.  A step whose
    coefficients are not finite raises Diverged naming it.
    """
    if nsteps < 0:
        raise ValueError("nsteps must be >= 0")
    engine = _engine(stepper, initial, j, dt)
    states = [initial]
    for _ in range(nsteps):
        engine.advance()
        states.append(engine.state())
    return Trajectory(states, dt, j)
