"""Time integration of the source-driven Maxwell system.

Units are chosen so the field equations read

    dE/dt =  curl B - J
    dB/dt = -curl E

with c = mu0 = eps0 = 1.  Currents are prescribed functions of (x, t),
separable as profile(x) * time_factor(t), and are transverse (divergence
free) so E stays solenoidal and no charge density enters.

Two steppers are provided: a pseudo-spectral classical RK4 (near machine
precision on band-limited data) and a staggered Yee leapfrog (2nd order),
so conservation-law residuals can be checked both at the noise floor and
through a convergence-order study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Diverged, NonFiniteField, StepTooLarge
from .grid import (
    FieldState,
    GridSpec,
    VectorField,
    _mode_numbers,
    _pull_array,
    spectral_wavevectors,
)

CFL_SAFETY = {"yee": 0.9, "spectral": 0.5}

# Fraction of modes below which the spectral engine gathers active modes
# into flat arrays, and the relative coefficient magnitude below which a
# mode counts as inactive (FFT round-trip noise sits near 1e-17).
_MASK_FRACTION = 0.125
_MASK_REL_TOL = 1e-15


# ---------------------------------------------------------------------------
# Prescribed currents
# ---------------------------------------------------------------------------


class CurrentSpec:
    """Closed-form descriptor of J(x, t) = profile(x) * time_factor(t)."""

    is_zero = False

    def spatial_profile(self, grid: GridSpec) -> np.ndarray:
        raise NotImplementedError

    def time_factor(self, t: float) -> float:
        raise NotImplementedError

    def profile_at(self, grid: GridSpec, amap=None) -> np.ndarray:
        """Profile evaluated at alpha x + beta (exact, from the closed form)."""
        if amap is None:
            return self.spatial_profile(grid)
        return _pull_array(self.spatial_profile(grid), grid, amap)

    def sample(self, grid: GridSpec, t: float, amap=None) -> VectorField:
        """J (or J composed with an affine map) sampled on the grid nodes."""
        data = self.profile_at(grid, amap) * self.time_factor(t)
        return VectorField(grid, data, copy=False)


@dataclass(frozen=True)
class ZeroCurrent(CurrentSpec):
    is_zero = True

    def spatial_profile(self, grid):
        return np.zeros((3, *grid.dims))

    def time_factor(self, t):
        return 0.0


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

    def time_factor(self, t):
        return float(np.sin(self.omega * t + self.phase))


@dataclass(frozen=True)
class PlaneWaveCurrent(CurrentSpec):
    """J = p_perp cos(k . x + phase_x) sin(omega t + phase_t).

    The wavevector is specified by integer mode numbers, k = 2 pi n / L per
    axis, so it is automatically compatible with the periodic box, and the
    polarization is projected transverse to k at construction.
    """

    mode: tuple
    polarization: tuple
    omega: float
    phase_x: float = 0.0
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
        k = self._kvec(grid)
        x, y, z = grid.meshgrid()
        c = np.cos(k[0] * x + k[1] * y + k[2] * z + self.phase_x)
        return np.stack([p * c for p in self.polarization])

    def profile_at(self, grid, amap=None):
        if amap is None:
            return self.spatial_profile(grid)
        k = self._kvec(grid)
        x = np.stack(grid.meshgrid(), axis=0)
        y = np.einsum("ij,j...->i...", amap.alpha_matrix, x)
        arg = k[0] * y[0] + k[1] * y[1] + k[2] * y[2]
        # beta modulo the box: k . L is a whole number of turns, and a huge
        # beta would otherwise overflow the phase
        arg += k @ np.remainder(amap.beta_vector, grid.lengths) + self.phase_x
        c = np.cos(arg)
        return np.stack([p * c for p in self.polarization])

    def time_factor(self, t):
        return float(np.sin(self.omega * t + self.phase_t))


@dataclass(frozen=True)
class GaussianPulseCurrent(CurrentSpec):
    """Localized pulse: polarization * gaussian(x - center) * gaussian(t - t0).

    The raw separable profile is not divergence free, so it is projected
    solenoidal in Fourier space on the grid it is sampled on; mapped
    evaluation is a gather of that projected profile (through the
    interpolant only for a shift that is not a whole number of nodes).
    """

    center: tuple
    width: float
    polarization: tuple
    t0: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "polarization", tuple(float(p) for p in self.polarization))

    def spatial_profile(self, grid):
        mesh = grid.meshgrid()
        r2 = np.zeros(grid.dims)
        for x, c, L in zip(mesh, self.center, grid.lengths):
            d = np.remainder(x - c + 0.5 * L, L) - 0.5 * L
            r2 += d * d
        bump = np.exp(-r2 / (2.0 * self.width**2))
        raw = np.stack([p * bump for p in self.polarization])
        return _project_transverse(raw, grid)

    def time_factor(self, t):
        return float(np.exp(-((t - self.t0) ** 2) / (2.0 * self.tau**2)))


def _project_transverse(data: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Remove the longitudinal (curl-free) part of a vector sample."""
    kx, ky, kz = spectral_wavevectors(grid)
    k2 = kx**2 + ky**2 + kz**2
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    vh = np.fft.rfftn(data, axes=(-3, -2, -1))
    kdotv = kx * vh[0] + ky * vh[1] + kz * vh[2]
    vh[0] -= kx * kdotv / k2safe
    vh[1] -= ky * kdotv / k2safe
    vh[2] -= kz * kdotv / k2safe
    return np.fft.irfftn(vh, s=grid.dims, axes=(-3, -2, -1))


# ---------------------------------------------------------------------------
# CFL limits
# ---------------------------------------------------------------------------


def cfl_max_dt(grid: GridSpec, stepper: str = "yee") -> float:
    """Largest stable step: safety / sqrt(sum h_i^-2).

    Documented safety constants: 0.9 for the Yee leapfrog, 0.5 for the
    spectral RK4 (whose true stability edge on this grid is 2*sqrt(2)/pi
    ~ 0.9 in the same units).
    """
    if stepper not in CFL_SAFETY:
        raise ValueError(f"unknown stepper {stepper!r}")
    inv = sum(1.0 / h**2 for h in grid.spacing)
    return CFL_SAFETY[stepper] / np.sqrt(inv)


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
#   advance()          one step; rebinds the internal arrays, never writes
#                      into them, so old checkpoints stay valid
#   checkpoint()       the current step index and internal arrays, no copy
#   analysis_grid      the grid the balance rows are evaluated on: the engine's
#                      own grid, or for a masked spectral engine the coarsest
#                      grid of the same box on which every quadratic quantity
#                      of its fields is exact
#   state(checkpoint=None, grid=None)
#                      the collocated FieldState of a checkpoint (default: the
#                      current step) on the own grid (default) or the analysis
#                      grid; on the own grid, step 0 is the initial state itself
#   means()            volume integral of each of the 6 stacked components
# ---------------------------------------------------------------------------


def _stepped_state(grid: GridSpec, data: np.ndarray, step: int, t: float) -> FieldState:
    """FieldState.from_data for a stepped array; non-finite data is a
    divergence at that step."""
    try:
        return FieldState.from_data(grid, data, t)
    except NonFiniteField:
        raise Diverged(f"field is not finite at step {step}") from None


def _state_means(state: FieldState) -> np.ndarray:
    """Volume integral of each stacked component."""
    cv = state.grid.cell_volume
    return np.array([np.sum(c) * cv for c in state.data])


class SpectralEngine:
    """Classical RK4 on the rfftn coefficients of the stacked (E, B) field.

    The update is diagonal over wavevectors, so modes carrying less than
    ~1e-15 of the initial amplitude (FFT round-trip noise) and not touched
    by the current are dynamically decoupled from everything retained.  When
    they are few, the active coefficients are gathered into flat arrays:
    every retained mode then sees arithmetic identical, bit for bit, to
    dense stepping, and the omitted contribution to any snapshot stays at
    the noise level because |R(i w dt)| <= 1 for stable steps.
    """

    def __init__(self, state: FieldState, current: CurrentSpec, dt: float,
                 force_dense: bool = False):
        grid = state.grid
        self.grid = grid
        self.current = current
        self.dt = float(dt)
        self.initial = state
        self.step_index = 0
        u0 = np.fft.rfftn(state.data, axes=(-3, -2, -1))
        if current.is_zero:
            jh = None
        else:
            jh = np.fft.rfftn(current.spatial_profile(grid), axes=(-3, -2, -1))
        amp = np.max(np.abs(u0))
        active = np.any(np.abs(u0) > _MASK_REL_TOL * amp, axis=0)
        if jh is not None:
            jamp = np.max(np.abs(jh))
            active |= np.any(np.abs(jh) > _MASK_REL_TOL * jamp, axis=0)
        kx, ky, kz = spectral_wavevectors(grid)
        self.analysis_grid = grid
        if not force_dense and active.sum() <= _MASK_FRACTION * active.size:
            self.mask = active
            self.u = np.ascontiguousarray(u0[:, active])
            self.jh = np.ascontiguousarray(jh[:, active]) if jh is not None else None
            shape = active.shape
            self.k = tuple(
                np.broadcast_to(k, shape)[active].copy() for k in (kx, ky, kz)
            )
            self._coarsen(active)
        else:
            self.mask = None
            self.u = u0
            self.jh = jh
            self.k = (kx, ky, kz)

    def _coarsen(self, active):
        """Set the analysis grid of a masked engine with these active modes.

        Every field carries integer modes |n_i| <= K, so a product of two has
        band 2K and the square of one 4K.  On M >= 4K + 1 nodes per axis the
        samples of those products, their spectral divergence and their means
        are exact; M = 4K + 2 (at least 4, the smallest grid) on every axis
        keeps each symmetry of the box a symmetry of the coarse grid.  The
        coarse grid is used only where it has fewer nodes than the engine's.
        """
        grid = self.grid
        n = [modes[i] for modes, i in zip(_mode_numbers(grid.dims), np.nonzero(active))]
        k_band = max((int(np.max(np.abs(a))) for a in n if a.size), default=0)
        m = max(4 * k_band + 2, 4)
        if any(m >= d for d in grid.dims):
            return
        self.analysis_grid = GridSpec((m, m, m), tuple(L / m for L in grid.lengths))
        self._coarse_index = np.ravel_multi_index(
            (n[0] % m, n[1] % m, n[2]), (m, m, m // 2 + 1)
        )
        self._coarse_scale = m**3 / grid.num_nodes

    # -- dynamics ----------------------------------------------------------

    def rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        kx, ky, kz = self.k
        E, B = u[:3], u[3:]
        out = np.empty_like(u)
        out[0] = 1j * (ky * B[2] - kz * B[1])
        out[1] = 1j * (kz * B[0] - kx * B[2])
        out[2] = 1j * (kx * B[1] - ky * B[0])
        out[3] = -1j * (ky * E[2] - kz * E[1])
        out[4] = -1j * (kz * E[0] - kx * E[2])
        out[5] = -1j * (kx * E[1] - ky * E[0])
        if self.jh is not None:
            out[:3] -= self.jh * self.current.time_factor(t)
        return out

    def advance(self):
        dt = self.dt
        t = self.initial.t + self.step_index * dt
        u = self.u
        # k1 + 2 k2 + 2 k3 + k4, summed left to right as each stage is done,
        # so at most two stage arrays are alive at a time
        k = self.rhs(u, t)
        acc = k
        k = self.rhs(u + (0.5 * dt) * k, t + 0.5 * dt)
        acc = acc + 2.0 * k
        k = self.rhs(u + (0.5 * dt) * k, t + 0.5 * dt)
        acc = acc + 2.0 * k
        k = self.rhs(u + dt * k, t + dt)
        self.u = u + (dt / 6.0) * (acc + k)
        self.step_index += 1

    # -- snapshots -----------------------------------------------------------

    def checkpoint(self) -> tuple:
        return self.step_index, self.u

    def dense_coefficients(self, u: Optional[np.ndarray] = None) -> np.ndarray:
        u = self.u if u is None else u
        if self.mask is None:
            return u
        out = np.zeros((6, *self.mask.shape), dtype=complex)
        out[:, self.mask] = u
        return out

    def state(self, checkpoint: Optional[tuple] = None,
              grid: Optional[GridSpec] = None) -> FieldState:
        step, u = self.checkpoint() if checkpoint is None else checkpoint
        t = self.initial.t + step * self.dt
        if grid is None or grid == self.grid:
            if step == 0:
                return self.initial  # the exact data, not its FFT round trip
            data = np.fft.irfftn(
                self.dense_coefficients(u), s=self.grid.dims, axes=(-3, -2, -1)
            )
            return _stepped_state(self.grid, data, step, t)
        if grid != self.analysis_grid:
            raise ValueError(f"no snapshots on grid {grid.dims}")
        # the retained modes, rescaled to sums over the coarse nodes
        m = grid.dims[0]
        coarse = np.zeros((6, m * m * (m // 2 + 1)), dtype=complex)
        coarse[:, self._coarse_index] = u * self._coarse_scale
        data = np.fft.irfftn(
            coarse.reshape(6, m, m, m // 2 + 1), s=grid.dims, axes=(-3, -2, -1)
        )
        return _stepped_state(grid, data, step, t)

    def means(self) -> np.ndarray:
        """k = 0 coefficients times the cell volume (exact sums at step 0)."""
        if self.step_index == 0:
            return _state_means(self.initial)
        if self.mask is None:
            zero = self.u[:, 0, 0, 0]
        else:
            flat = np.flatnonzero(self.mask.ravel())
            pos = np.searchsorted(flat, 0)
            if pos < len(flat) and flat[pos] == 0:
                zero = self.u[:, pos]
            else:
                zero = np.zeros(6, dtype=complex)
        return np.real(zero) * self.grid.cell_volume


# ---------------------------------------------------------------------------
# Yee leapfrog engine
# ---------------------------------------------------------------------------


def _shift_half(f: np.ndarray, axis: int, direction: int) -> np.ndarray:
    """4th-order interpolation by half a cell along one axis (periodic).

    direction=+1 produces values at i+1/2 from node samples, direction=-1
    recovers node values from samples living at i+1/2.
    """
    if direction > 0:
        return (
            -np.roll(f, 1, axis) + 9.0 * f + 9.0 * np.roll(f, -1, axis) - np.roll(f, -2, axis)
        ) / 16.0
    return (
        -np.roll(f, 2, axis) + 9.0 * np.roll(f, 1, axis) + 9.0 * f - np.roll(f, -1, axis)
    ) / 16.0


# staggered site offsets: E_i sits half a cell along axis i, B_i along the
# two transverse axes
_E_AXES = ((0,), (1,), (2,))
_B_AXES = ((1, 2), (0, 2), (0, 1))


def _stagger(data: np.ndarray, axes_per_comp, direction: int, out=None) -> np.ndarray:
    out = np.empty_like(data) if out is None else out
    for i in range(3):
        comp = data[i]
        for ax in axes_per_comp[i]:
            comp = _shift_half(comp, ax, direction)
        out[i] = comp
    return out


class YeeEngine:
    """Staggered leapfrog: B lives at half steps, E at whole steps.

    The staggered state persists across the whole run; node-collocated
    snapshots are interpolated (4th order in space, B time-averaged to the
    whole step) on demand, so repeated stepping never filters the state.
    """

    def __init__(self, state: FieldState, current: CurrentSpec, dt: float):
        grid = state.grid
        self.grid = grid
        self.current = current
        self.dt = float(dt)
        self.initial = state
        self.step_index = 0
        self.h = grid.spacing
        self.E = _stagger(state.E.data, _E_AXES, +1)
        b0 = _stagger(state.B.data, _B_AXES, +1)
        # B is carried at t - dt/2; dB/dt = -curl E gives the backward half step
        self.Bh = b0 + 0.5 * self.dt * self._curl_e(self.E)
        self.analysis_grid = grid
        if current.is_zero:
            self.jE = None
        else:
            self.jE = _stagger(current.spatial_profile(grid), _E_AXES, +1)

    def _dplus(self, f, axis):
        return (np.roll(f, -1, axis) - f) / self.h[axis]

    def _dminus(self, f, axis):
        return (f - np.roll(f, 1, axis)) / self.h[axis]

    def _curl_e(self, e):
        out = np.empty_like(e)
        out[0] = self._dplus(e[2], 1) - self._dplus(e[1], 2)
        out[1] = self._dplus(e[0], 2) - self._dplus(e[2], 0)
        out[2] = self._dplus(e[1], 0) - self._dplus(e[0], 1)
        return out

    def _curl_b(self, b):
        out = np.empty_like(b)
        out[0] = self._dminus(b[2], 1) - self._dminus(b[1], 2)
        out[1] = self._dminus(b[0], 2) - self._dminus(b[2], 0)
        out[2] = self._dminus(b[1], 0) - self._dminus(b[0], 1)
        return out

    def advance(self):
        dt = self.dt
        t_half = self.initial.t + (self.step_index + 0.5) * dt
        self.Bh = self.Bh - dt * self._curl_e(self.E)
        dE = self._curl_b(self.Bh)
        if self.jE is not None:
            dE = dE - self.jE * self.current.time_factor(t_half)
        self.E = self.E + dt * dE
        self.step_index += 1

    def checkpoint(self) -> tuple:
        return self.step_index, self.E, self.Bh

    def state(self, checkpoint: Optional[tuple] = None,
              grid: Optional[GridSpec] = None) -> FieldState:
        # `grid` is None or the analysis grid, which is the engine's own
        step, e, bh = self.checkpoint() if checkpoint is None else checkpoint
        if step == 0:
            return self.initial
        b_next = bh - self.dt * self._curl_e(e)  # peek at t + dt/2
        b_node = 0.5 * (bh + b_next)
        data = np.empty((6, *self.grid.dims))
        _stagger(e, _E_AXES, -1, out=data[:3])
        _stagger(b_node, _B_AXES, -1, out=data[3:])
        return _stepped_state(self.grid, data, step, self.initial.t + step * self.dt)

    def means(self) -> np.ndarray:
        """Sums of the staggered arrays (exact sums at step 0): the snapshot's
        de-staggering preserves each mean, and the curl that time-centres B
        sums to zero over the periodic box."""
        if self.step_index == 0:
            return _state_means(self.initial)
        cv = self.grid.cell_volume
        return np.array([np.sum(c) * cv for c in (*self.E, *self.Bh)])


# ---------------------------------------------------------------------------
# Public stepping API
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trajectory:
    """Uniformly spaced states of one evolution run."""

    states: list
    dt: float
    source: CurrentSpec
    stepper: str

    def __post_init__(self):
        if not self.states:
            raise ValueError("trajectory needs at least one state")
        g = self.states[0].grid
        for a, b in zip(self.states, self.states[1:]):
            if a.grid != g or b.grid != g:
                raise ValueError("trajectory states must share one grid")
            if not np.isclose(b.t - a.t, self.dt, rtol=1e-9, atol=1e-12):
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


def _check_growth(state: FieldState, scale: float, step: int):
    m = max(np.max(np.abs(state.E.data)), np.max(np.abs(state.B.data)))
    if m > 1e6 * max(scale, 1.0):
        raise Diverged(f"field magnitude grew beyond 1e6 x initial scale at step {step}")


def evolve(
    initial: FieldState,
    j: CurrentSpec,
    dt: float,
    nsteps: int,
    stepper: str = "spectral",
) -> Trajectory:
    """March nsteps steps and return all nsteps+1 states.

    The Yee run keeps its staggered internal state for the whole trajectory
    and only interpolates snapshots, so the leapfrog is never filtered by
    the collocation resampling.  A state that is not finite raises Diverged
    naming its step, as does a last state grown beyond 1e6 x the initial
    magnitude.
    """
    if nsteps < 0:
        raise ValueError("nsteps must be >= 0")
    engine = _engine(stepper, initial, j, dt)
    scale = max(np.max(np.abs(initial.E.data)), np.max(np.abs(initial.B.data)))
    states = [initial]
    for _ in range(nsteps):
        engine.advance()
        states.append(engine.state())
    if nsteps:
        _check_growth(states[-1], scale, nsteps)
    return Trajectory(states, dt, j, stepper)
