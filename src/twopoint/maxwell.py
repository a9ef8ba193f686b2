"""Time integration of the source-driven Maxwell system.

Units are chosen so the field equations read

    dE/dt =  curl B - J
    dB/dt = -curl E

with c = mu0 = eps0 = 1.  Currents are prescribed functions of (x, t),
separable as profile(x) * time_factor(t), and are transverse (divergence
free) so E stays solenoidal and no charge density enters.

Two steppers are provided, both on the gathered rfftn coefficients of the
field's active modes: a pseudo-spectral classical RK4 (near machine
precision on band-limited data) and a staggered Yee leapfrog (2nd order,
its periodic stencils applied as per-mode Fourier symbols), so
conservation-law residuals can be checked both at the noise floor and
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
    _wavenumbers,
    spectral_wavevectors,
)

CFL_SAFETY = {"yee": 0.9, "spectral": 0.5}

# Relative coefficient magnitude below which the spectral engine counts a
# mode as inactive (FFT round-trip noise sits near 1e-17).
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
        with np.errstate(over="ignore"):  # a float64 square overflows to inf, not an error
            bump = np.exp(-r2 / (2.0 * np.float64(self.width) ** 2))
        raw = np.stack([p * bump for p in self.polarization])
        return _project_transverse(raw, grid)

    def time_factor(self, t):
        with np.errstate(over="ignore"):  # as in spatial_profile
            return float(np.exp(-(np.float64(t - self.t0) ** 2)
                                / (2.0 * np.float64(self.tau) ** 2)))


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
#   advance()          one step
#   analysis_grid      the grid the balance rows are evaluated on: the coarsest
#                      grid of the same box on which every quadratic quantity
#                      of the active modes is exact, where that grid is
#                      smaller than the engine's own, else the own grid
#   state(grid=None)   the collocated FieldState of the current step on the
#                      own grid (default) or the analysis grid; on the own
#                      grid, step 0 is the initial state itself
#   dual(q)            a (c, ...) field on the analysis grid as the weights
#                      that `pair` contracts the field's coefficients with
#   pair(dual)         the (6, c) volume integrals of F_a q_c at the current
#                      step, with no snapshot
# ---------------------------------------------------------------------------


def _stepped_state(grid: GridSpec, data: np.ndarray, step: int, t: float) -> FieldState:
    """FieldState.from_data for a stepped array; non-finite data is a
    divergence at that step."""
    try:
        return FieldState.from_data(grid, data, t)
    except NonFiniteField:
        raise Diverged(f"field is not finite at step {step}") from None


class SpectralEngine:
    """Classical RK4 on the active rfftn coefficients of the stacked (E, B) field.

    The update is diagonal over wavevectors: per mode the free field obeys
    u' = L u with L u = i (k x B, -k x E), and L^3 = -|k|^2 L, so one step is
    RK4's stability polynomial u + b L u + c L^2 u with real per-mode b, c;
    a current J = profile * f(t) adds three fixed vectors weighted by f at
    t, t + h/2 and t + h.  This regroups stage-by-stage RK4's arithmetic, so
    the two agree up to rounding (1.3e-15 of the largest coefficient after
    400 steps at 64^3).  Modes below ~1e-15 of the initial amplitude (FFT
    round-trip noise) and not touched by the current are decoupled from the
    rest and not stepped; their share of any snapshot stays at the noise
    level because |R(i w dt)| <= 1 for stable steps.
    """

    def __init__(self, state: FieldState, current: CurrentSpec, dt: float):
        jh = self._gather(state, current, dt)
        h = self.dt
        kx, ky, kz = self._per_mode(_wavenumbers(self.grid.dims, self.grid.spacing))
        self._ka = np.stack([ky, kz, kx, kz, kx, ky])  # row factors of _curl_pair
        self._kb = np.stack([kz, kx, ky, ky, kz, kx])
        hk2 = (kx * kx + ky * ky + kz * kz) * h * h
        self._ib = 1j * h * (1.0 - hk2 / 6.0)  # i b, as L = i C
        self._c = h * h * (0.5 - hk2 / 24.0)
        self._drive = None
        if jh is not None:
            # the current's share of k1 + 2 k2 + 2 k3 + k4 at t, t + h/2, t + h
            g = np.zeros_like(self.u)
            g[:3] = -jh
            cg = self._curl_pair(g)
            lg, llg = 1j * cg, -self._curl_pair(cg)
            self._drive = (h / 6.0 * (g + h * (1.0 - hk2 / 4.0) * lg + h * h / 2.0 * llg),
                           h / 6.0 * (4.0 * g + 2.0 * h * lg + h * h / 2.0 * llg),
                           h / 6.0 * g)

    def _gather(self, state: FieldState, current: CurrentSpec, dt: float):
        """Set what every mode-space engine shares: the active modes (those of
        the state and of the current), the state's gathered coefficients as
        `u`, the snapshot layouts and the analysis grid.  Returns the
        current profile's gathered coefficients, or None for no current."""
        grid = state.grid
        self.grid = grid
        self.current = current
        self.dt = float(dt)
        self.initial = state
        self.step_index = 0
        u0 = np.fft.rfftn(state.data, axes=(-3, -2, -1))
        amp = np.max(np.abs(u0))
        active = np.any(np.abs(u0) > _MASK_REL_TOL * amp, axis=0)
        jh = None
        if not current.is_zero:
            jh = np.fft.rfftn(current.spatial_profile(grid), axes=(-3, -2, -1))
            jamp = np.max(np.abs(jh))
            active |= np.any(np.abs(jh) > _MASK_REL_TOL * jamp, axis=0)
            jh = jh[:, active]
        self.mask = active
        self.u = np.ascontiguousarray(u0[:, active])
        # grid -> (flat rfftn index of each active mode, coefficient scale)
        self._layout = {grid: (np.flatnonzero(active), 1.0)}
        self.analysis_grid = grid
        self._coarsen(active)
        return jh

    def _per_mode(self, per_axis) -> np.ndarray:
        """(3, modes) values of the active modes from one rfftn-layout
        array per axis, in the order of the gathered coefficients."""
        return np.stack([a[i] for a, i in zip(per_axis, np.nonzero(self.mask))])

    def _coarsen(self, active):
        """Add the coarsest grid on which the active modes' products are exact.

        Every field carries integer modes |n_i| <= K, so a product of two has
        band 2K and the square of one 4K.  On M >= 4K + 1 nodes per axis the
        samples of those products, their spectral divergence and their integrals
        are exact; M = 4K + 2 (at least 4, the smallest grid) on every axis
        keeps each symmetry of the box a symmetry of the coarse grid.  The
        coarse grid is the analysis grid only where it has fewer nodes than
        the engine's; its coefficients are rescaled to sums over its nodes.
        """
        grid = self.grid
        n = self._per_mode(_mode_numbers(grid.dims))
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

    def _curl_pair(self, u: np.ndarray) -> np.ndarray:
        """C u = (k x B, -k x E) of u = (E, B), row by row; L u = i C u."""
        return self._ka * u[[5, 3, 4, 1, 2, 0]] - self._kb * u[[4, 5, 3, 2, 0, 1]]

    def advance(self):
        h = self.dt
        t = self.initial.t + self.step_index * h
        u = self.u
        cu = self._curl_pair(u)
        u = u + self._ib * cu - self._c * self._curl_pair(cu)  # L^2 = -C^2
        if self._drive is not None:
            f = self.current.time_factor
            p, q, r = self._drive
            u += f(t) * p + f(t + 0.5 * h) * q + f(t + h) * r
        self.u = u
        self.step_index += 1

    # -- snapshots and pairings ------------------------------------------------

    def _nodes(self) -> np.ndarray:
        """The gathered coefficients of the collocated field at the current step."""
        return self.u

    def dense_coefficients(self, u: np.ndarray, grid: GridSpec) -> np.ndarray:
        """The gathered coefficients u scattered into the rfftn array of
        `grid` (the own grid or the analysis grid)."""
        index, scale = self._layout[grid]
        nx, ny, nz = grid.dims
        out = np.zeros((6, nx * ny * (nz // 2 + 1)), dtype=complex)
        out[:, index] = u * scale
        return out.reshape(6, nx, ny, nz // 2 + 1)

    def state(self, grid: Optional[GridSpec] = None) -> FieldState:
        grid = self.grid if grid is None else grid
        if grid not in self._layout:
            raise ValueError(f"no snapshots on grid {grid.dims}")
        step = self.step_index
        if step == 0 and grid == self.grid:
            return self.initial  # the exact data, not its FFT round trip
        data = np.fft.irfftn(self.dense_coefficients(self._nodes(), grid), s=grid.dims,
                             axes=(-3, -2, -1))
        return _stepped_state(grid, data, step, self.initial.t + step * self.dt)

    def dual(self, q: np.ndarray) -> np.ndarray:
        """Conjugate rfftn coefficients of q at the active modes, weighted so
        that `pair` is Parseval's sum: 2 for a mode off the kz = 0 and
        Nyquist planes (it stands for its mirror too), times the snapshot
        scale and cell volume over the node count of the analysis grid."""
        grid = self.analysis_grid
        index, scale = self._layout[grid]
        half = grid.dims[2] // 2 + 1
        kz = index % half
        mirrored = (kz != 0) & (2 * kz != grid.dims[2])
        weight = np.where(mirrored, 2.0, 1.0) * (scale * grid.cell_volume / grid.num_nodes)
        qh = np.fft.rfftn(q, axes=(-3, -2, -1)).reshape(len(q), -1)
        return np.conj(qh[:, index]) * weight

    def pair(self, dual: np.ndarray) -> np.ndarray:
        """(6, c) volume integrals of F_a q_c at the current step."""
        return np.real(self._nodes() @ dual.T)


# ---------------------------------------------------------------------------
# Yee leapfrog engine
# ---------------------------------------------------------------------------


def _curl(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Curl of the gathered vector v for the per-axis derivative symbols d."""
    return d[[1, 2, 0]] * v[[2, 0, 1]] - d[[2, 0, 1]] * v[[1, 2, 0]]


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
    repeated stepping never filters the state.
    """

    def __init__(self, state: FieldState, current: CurrentSpec, dt: float):
        jh = self._gather(state, current, dt)
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
        self._drive = None if jh is None else self.dt * up[:3] * jh

    def advance(self):
        t_half = self.initial.t + (self.step_index + 0.5) * self.dt
        b = self.u[3:] - _curl(self._dplus, self.u[:3])
        e = self.u[:3] + _curl(self._dminus, b)
        if self._drive is not None:
            e -= self.current.time_factor(t_half) * self._drive
        self.u = np.concatenate((e, b))
        self.step_index += 1

    def _nodes(self) -> np.ndarray:
        if self.step_index == 0:
            return self._u0  # the initial coefficients, never staggered
        b = self.u[3:] - 0.5 * _curl(self._dplus, self.u[:3])  # B at the whole step
        return self._down * np.concatenate((self.u[:3], b))

    def state(self, grid: Optional[GridSpec] = None) -> FieldState:
        # bench/tracing.py times Yee snapshots by patching this class's own
        # `state`, so the class keeps one
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

    The Yee run keeps its staggered mode coefficients for the whole
    trajectory and only shifts snapshots back to the nodes, so the leapfrog
    is never filtered by the collocation resampling.  A state that is not finite raises Diverged
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
