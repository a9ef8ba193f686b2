"""Quadratic two-point conservation laws and their balance verification.

A law couples the stacked field F = (E, B) at x to its value at a mapped
point (and possibly a later time) through constant tensors:

    density   rho(x)  = W_ab   F_a(x) F_b(A x, t + m dt)
    flux      J_i(x)  = K_iab  F_a(x) F_b(A x, t + m dt)
    source    S(x)    = G_ab [ F_a(x) Js_b(A x, t+m dt) + Js_a(x) F_b(A x, t+m dt) ]

where Js is the driving current copied into both slots of a stacked
6-vector, so the block position inside G selects whether J couples to E or
to B.  Every law is normalized to the single balance form

    d rho / dt + div J = S,

and the pointwise residual is r = D_t rho + div J - S with a centered
2nd-order D_t on the stored trajectory.  The global defect is
D(t) = Q(t) - Q(0) - integral of the source power, which vanishes for an
exact law.  Fluxes and sources of the shipped laws therefore carry a fixed
overall sign relative to forms written with the divergence on the left.

Every law comes from one formula, `law_symmetry`, for a symmetry
x -> alpha x + beta of the box and a time shift of m steps.  With F~ the
field at (alpha x + beta, t + m dt), the mapped field E' = alpha^T E~,
B' = det(alpha) alpha^T B~ (B is a pseudovector) solves Maxwell again,
driven by J' = alpha^T J~, and F pairs with it (unit normalization):

    det +1, energy pairing    rho = E.E' + B.B'    J = E x B' + E' x B
                              S = -(J.E' + J'.E)
    det -1, duality pairing   rho = E.B' - B.E'    J = B' x B - E x E'
                              S = B.J' - J.B'

The shipped constructors are that formula at special maps, under their own
labels: local energy (alpha = I, beta = 0: rho = E.E + B.B, J = 2 E x B),
translation (alpha = I), rotation (det alpha = +1, beta = 0) and inversion
(alpha = -I, beta = 0: rho = B.E~ + B~.E, J = E x E~ - B x B~);
`law_of_map` is the one rule that names the law of a map.

The tensors of the shipped laws are sparse (6 of 36 W entries, 12 of 108 K
entries), so the pointwise kernels contract each tensor's nonzero entries
only, node by node, in the dense contraction's order: the values are
bit-identical to it.  A balance run
pulls the current's profile back once per map (each law's and its
inverse); the rows read those arrays, and the volume integral of S is a
fixed pairing of the field with them, evaluated at every step with no
snapshot.

A balance run evaluates its rows on the source's analysis grid.  For an
engine (spectral or Yee) whose fields carry modes |n_i| <= K that is the same box
on 4K + 2 nodes per axis, where every quadratic quantity above and its
square are sampled without aliasing, so Q, the source work and r_l2
equal their fine-grid values up to rounding; r_max is taken over the fine
nodes, from the coarse residual resampled in Fourier space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Diverged, GridMismatch, HistoryUnderflow, NonFiniteField, NotARotation
from .grid import (
    AffineMap,
    FieldState,
    GridSpec,
    ScalarField,
    VectorField,
    _gather_plan,
    _pull_array,
    _refine,
    divergence,
    volume_integral,
)
from .maxwell import CurrentSpec, Trajectory, _engine

_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_i, _j, _k] = 1.0
    _LEVI[_i, _k, _j] = -1.0


def _frozen(a: np.ndarray, shape) -> np.ndarray:
    out = np.array(a, dtype=float).reshape(shape)
    if not np.all(np.isfinite(out)):
        raise ValueError("law tensors must be finite")
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class TwoPointLawSpec:
    """One candidate balance law: (map, time shift, W, K, source tensor).

    The tensors are frozen at construction; the pointwise kernels contract
    them as they are stored.
    """

    map: AffineMap
    time_shift_steps: int
    W: np.ndarray
    K: np.ndarray
    source: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        self.time_shift_steps = int(self.time_shift_steps)
        if self.time_shift_steps < 0:
            raise ValueError("time shift must be a non-negative step count")
        self.W = _frozen(self.W, (6, 6))
        self.K = _frozen(self.K, (3, 6, 6))
        self.source = _frozen(self.source, (6, 6))

    def as_vector(self) -> np.ndarray:
        """(W, K) flattened to the 144-vector used by discovery projections."""
        return np.concatenate([self.W.ravel(), self.K.ravel()])


# ---------------------------------------------------------------------------
# Shipped laws
# ---------------------------------------------------------------------------


def law_symmetry(amap: AffineMap, m: int = 0, label: str = "symmetry") -> TwoPointLawSpec:
    """Two-point law of a symmetry x -> alpha x + beta of the box, with time
    shift m steps: the energy pairing for det alpha = +1, the duality
    pairing for det alpha = -1 (see the module docstring)."""
    pt = amap.alpha_matrix.T  # a signed permutation, so orthogonal
    eps_pt = np.einsum("ijk,kl->ijl", _LEVI, pt)
    w = np.zeros((6, 6))
    k = np.zeros((3, 6, 6))
    g = np.zeros((6, 6))
    if np.linalg.det(pt) > 0.0:
        w[:3, :3] = w[3:, 3:] = pt
        k[:, :3, 3:] = eps_pt
        k[:, 3:, :3] = np.einsum("ijk,jl->ikl", _LEVI, pt)
        g[:3, :3] = -pt
    else:
        w[:3, 3:] = w[3:, :3] = -pt
        k[:, :3, :3] = -eps_pt
        k[:, 3:, 3:] = eps_pt
        g[3:, 3:] = pt
    return TwoPointLawSpec(amap, m, w, k, g, label=label)


def law_local_energy() -> TwoPointLawSpec:
    """d/dt (E.E + B.B) + div(2 E x B) = -2 J.E."""
    return law_symmetry(AffineMap.identity(), label="local-energy")


def law_inversion() -> TwoPointLawSpec:
    """Two-point law of the inversion map x -> -x.

    rho = B(x).E(-x) + B(-x).E(x), flux E(x) x E(-x) - B(x) x B(-x),
    source -[B(x).J(-x) + B(-x).J(x)].
    """
    return law_symmetry(AffineMap.inversion(), label="inversion")


def law_rotation(rotation: AffineMap) -> TwoPointLawSpec:
    """Two-point law of a proper rotation map x -> R x: the energy pairing
    rho = E(x).R^T E(Rx) + B(x).R^T B(Rx).

    That form fails for det R = -1, so NotARotation is raised for an
    improper map, and for a shifted one; `law_symmetry` covers both.
    """
    if np.max(np.abs(rotation.beta_vector)) > 0.0:
        raise NotARotation("rotation law requires beta = 0")
    if np.linalg.det(rotation.alpha_matrix) < 0.0:
        raise NotARotation("improper map (det = -1) has no rotation-form law")
    return law_symmetry(rotation, label="rotation")


def law_translation(grid: GridSpec, nodes, dt_steps: int = 0) -> TwoPointLawSpec:
    """Two-point law pairing (x, t) with (x + dx, t + m dt), dx whole nodes.

    At nodes = (0,0,0) and m = 0 this is the local energy law, tensor for
    tensor (the zero-displacement limit).
    """
    label = "translation-{}-{}-{}-m{}".format(*(int(n) for n in nodes), int(dt_steps))
    return law_symmetry(AffineMap.node_translation(grid, nodes), dt_steps, label)


def law_of_map(amap: AffineMap, m: int, grid: GridSpec) -> TwoPointLawSpec:
    """The law of a map with time shift m steps: the shipped constructor
    whose label fits where one does, else `law_symmetry`."""
    a = amap.alpha_matrix
    b = amap.beta_vector
    unshifted = m == 0 and not np.any(b)
    if np.array_equal(a, np.eye(3)):
        nodes = b / np.asarray(grid.spacing)
        if unshifted:
            return law_local_energy()
        if np.all(np.abs(nodes - np.round(nodes)) < 1e-9):
            return law_translation(grid, tuple(int(n) for n in np.round(nodes)), m)
    elif unshifted and np.array_equal(a, -np.eye(3)):
        return law_inversion()
    elif unshifted and np.linalg.det(a) > 0.0:
        return law_rotation(amap)
    return law_symmetry(amap, m)


# ---------------------------------------------------------------------------
# Pointwise evaluation (F is the state's stacked (6, Nx, Ny, Nz) array)
# ---------------------------------------------------------------------------

_IDENTITY = AffineMap.identity()


def _contract(t: np.ndarray, f, g, out=None) -> np.ndarray:
    """sum over the nonzero entries c = t[a, b] of c f[a] g[b], node by
    node, added into `out` (default: a new zero array); f and g may be
    lists of rows.  An overflow is left to the caller's field wrapper.

    Bit-identical to np.einsum("ab,a...,b...->...", t, f, g): einsum
    accumulates (t_ab f_a) g_b from zero in row-major (a, b) order, a zero
    entry adds nothing to a finite sum, and a factor of +-1 is exact, so
    only the other coefficients are multiplied in.
    """
    out = np.zeros(f[0].shape) if out is None else out
    tmp = np.empty_like(out)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(*np.nonzero(t)):
            c = t[a, b]
            if abs(c) == 1.0:
                np.multiply(f[a], g[b], out=tmp)
            else:
                np.multiply(f[a], c, out=tmp)
                tmp *= g[b]
            if c == -1.0:
                out -= tmp
            else:
                out += tmp
    return out


def _stack6(state: FieldState) -> np.ndarray:
    return state.data


def _pulled6(state: FieldState, amap: AffineMap) -> np.ndarray:
    if amap == _IDENTITY:
        return _stack6(state)  # the gather would copy the array unchanged
    return _pull_array(_stack6(state), state.grid, amap)


def _paired(state_now: FieldState, state_shifted: Optional[FieldState], amap: AffineMap):
    """F of state_now and the pulled-back F of state_shifted (state_now
    when None), which must live on the same grid."""
    state_shifted = state_now if state_shifted is None else state_shifted
    if state_now.grid != state_shifted.grid:
        raise GridMismatch("paired states live on different grids")
    return _stack6(state_now), _pulled6(state_shifted, amap)


def density(law: TwoPointLawSpec, state_now: FieldState,
            state_shifted: Optional[FieldState] = None) -> ScalarField:
    """rho(x) = W_ab F_a(x) F_b(A x) with F_b drawn from the shifted state."""
    return _density(law, state_now.grid, *_paired(state_now, state_shifted, law.map))


def flux(law: TwoPointLawSpec, state_now: FieldState,
         state_shifted: Optional[FieldState] = None):
    """J_i(x) = K_iab F_a(x) F_b(A x)."""
    return _flux(law, state_now.grid, *_paired(state_now, state_shifted, law.map))


def source_power(law: TwoPointLawSpec, state_now: FieldState,
                 state_shifted: Optional[FieldState], j: CurrentSpec) -> ScalarField:
    """S(x) with J's sampled profile and its pullback under the law's map,
    at both times."""
    grid, times = state_now.grid, (state_now.t, (state_shifted or state_now).t)
    p = j.spatial_profile(grid)
    return _source(law, grid, *_paired(state_now, state_shifted, law.map), j, times,
                   (p, _pull_array(p, grid, law.map)))


# The three on F and the pulled-back F, which an analysis row shares

def _density(law, grid, f, g) -> ScalarField:
    return ScalarField(grid, _contract(law.W, f, g), copy=False)


def _flux(law, grid, f, g) -> VectorField:
    j = np.zeros((3, *f.shape[1:]))
    for i, k in enumerate(law.K):
        _contract(k, f, g, out=j[i])
    return VectorField(grid, j, copy=False)


def _source(law, grid, f, g, j, times, profiles) -> ScalarField:
    if j.is_zero:
        return ScalarField(grid, np.zeros(grid.dims), copy=False)
    jn = profiles[0] * j.time_factor(times[0])
    jm = profiles[1] * j.time_factor(times[1])
    s = _contract(law.source, f, [*jm, *jm])  # Js: the 3 profile rows twice, as views
    with np.errstate(over="ignore", invalid="ignore"):  # ScalarField reports it
        s += _contract(law.source, [*jn, *jn], g)
    return ScalarField(grid, s, copy=False)


# ---------------------------------------------------------------------------
# Balance bookkeeping
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BalanceReport:
    """Time series of one law's global balance on one trajectory.

    defect(t) = Q(t) - Q(0) - cumulative source power; r_l2 / r_max are norms
    of the pointwise residual D_t rho + div J - S (NaN at the window edges
    where the centered difference is unavailable).
    """

    label: str
    t: np.ndarray
    Q: np.ndarray
    source_cum: np.ndarray
    defect: np.ndarray
    r_l2: np.ndarray
    r_max: np.ndarray
    norm_scale: float

    @property
    def max_defect(self) -> float:
        return float(np.max(np.abs(self.defect)))

    @property
    def max_q_drift(self) -> float:
        return float(np.max(np.abs(self.Q - self.Q[0])))

    @property
    def max_r(self) -> float:
        vals = self.r_max[np.isfinite(self.r_max)]
        return float(np.max(vals)) if len(vals) else float("nan")

    def to_csv(self, path):
        write_csv(path, ("t", "Q", "source_cum", "defect", "r_l2", "r_max"),
                  zip(self.t, self.Q, self.source_cum, self.defect, self.r_l2, self.r_max))


def write_csv(path, header, rows):
    """Write a CSV file in the package's one format: the schema line below,
    the header, then one line per row, int and str cells as they are and any
    other as repr(float(v)), so every number reads back with float() exactly."""
    with open(path, "w", newline="") as f:
        f.write("# schema=1\n" + ",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(v) if isinstance(v, (int, str)) else repr(float(v))
                             for v in row) + "\n")


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of n >= 3 evenly spaced samples, 4th order: composite
    Simpson at even indices, a cubic (Adams-Moulton style) one-interval
    correction at odd ones (a quadratic one at index 1 when n = 3)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    out = np.zeros(n)
    inc = (dx / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(inc)
    if n >= 4:
        out[1] = (dx / 24.0) * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3])
    else:
        out[1] = (dx / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
    if n > 4:
        out[5::2] = out[4:-1:2] + (dx / 24.0) * (
            y[2:-3:2] - 5.0 * y[3:-2:2] + 19.0 * y[4:-1:2] + 9.0 * y[5::2]
        )
    if n > 3:
        out[3] = out[2] + (dx / 24.0) * (y[0] - 5.0 * y[1] + 19.0 * y[2] + 9.0 * y[3])
    return out


def _analysis_row(law, j, dt, get_state, a, nsteps, fine_grid, profiles):
    """Q and residual norms of one law at analysis step a, with `profiles`
    the current's profile and its pullback under the law's map.

    Each state a row reads is pulled back once, and its density, flux and
    source share it.  The states may live on a coarser grid than
    `fine_grid`, the grid of the run, if it holds their band-limited
    products exactly; r_max is still the largest |r| over the fine nodes.
    A row that overflows raises Diverged naming step a.
    """
    m = law.time_shift_steps
    s_now = get_state(a)
    grid = s_now.grid
    interior = 1 <= a <= nsteps - m - 1
    r_l2 = r_max = float("nan")

    def paired(b):
        return _paired(get_state(b), get_state(b + m), law.map)

    try:
        with np.errstate(over="ignore"):  # an overflow is reported below, naming the step
            f, g = paired(a)
            q = volume_integral(_density(law, grid, f, g))
            if interior:
                rho_next = _density(law, grid, *paired(a + 1)).data
                rho_prev = _density(law, grid, *paired(a - 1)).data
                r = (rho_next - rho_prev) / (2.0 * dt)
                r = r + divergence(_flux(law, grid, f, g)).data
                if not j.is_zero:
                    r = r - _source(law, grid, f, g, j, (s_now.t, get_state(a + m).t),
                                    profiles).data
                r_l2 = float(np.sqrt(volume_integral(ScalarField(grid, r * r, copy=False))))
                if grid != fine_grid:
                    r = _refine(r, grid, fine_grid)
                # no |r| temporary of the fine grid: a fresh 2 MiB array per row at
                # 64^3 is page-faulted in again whenever malloc has trimmed its heap
                r_max = abs(float(max(np.max(r), -np.min(r))))
    except NonFiniteField:
        q = float("nan")
    if not np.isfinite(q) or (interior and not (np.isfinite(r_l2) and np.isfinite(r_max))):
        raise Diverged(f"the {law.label} row is not finite at step {a}")
    return q, r_l2, r_max


# ---------------------------------------------------------------------------
# One balance loop: `residual` feeds it a stored trajectory, `run_balance`
# a stepping engine; both reach it through the engine protocol of `maxwell`
# ---------------------------------------------------------------------------


class _StoredSource:
    """A stored trajectory behind the engine protocol of `maxwell`, on the
    trajectory's own grid, pairing its states with the current's mapped
    profiles node by node."""

    def __init__(self, traj: Trajectory):
        self.states = traj.states
        self.current = traj.source
        self.analysis_grid = traj.grid
        self.step_index = 0

    def advance(self, k: int = 1, dual=None):
        """Move k states on; with `dual`, the (k, 6, c) pairs of each."""
        pairs = []
        for _ in range(k):
            self.step_index += 1
            if dual is not None:
                pairs.append(self.pair(dual))
        return None if dual is None else np.array(pairs)

    def state(self, grid: Optional[GridSpec] = None) -> FieldState:
        return self.states[self.step_index]

    def energy(self) -> float:
        s = self.state()
        return float(np.sum(s.E.data**2 + s.B.data**2) * s.grid.cell_volume)

    def profile(self) -> np.ndarray:
        return self.current.spatial_profile(self.analysis_grid)

    def dual(self, mapped: np.ndarray) -> np.ndarray:
        return mapped * self.analysis_grid.cell_volume

    def pair(self, dual: np.ndarray) -> np.ndarray:
        return np.einsum("axyz,cxyz->ac", self.state().data, dual)


def _pulled_profiles(source, maps) -> tuple:
    """The current's profile on the source's analysis grid, and its pullback
    under each distinct map: the one place a balance run maps the current."""
    profile = source.profile()
    return profile, {amap: _pull_array(profile, source.analysis_grid, amap)
                     for amap in dict.fromkeys(maps)}


def _check_pairs(pairs: np.ndarray, first: int, last: int):
    """Raise Diverged naming the first of steps first..last whose pairings
    are not finite."""
    bad = ~np.all(np.isfinite(pairs[first:last + 1].reshape(last + 1 - first, -1)), axis=1)
    if np.any(bad):
        raise Diverged(f"field is not finite at step {first + int(np.argmax(bad))}")


def _balance(source, laws, j: CurrentSpec, dt: float, nsteps: int, stride: int):
    """Balance report of one law, or the list of reports of a list of laws,
    over the nsteps steps of one source.

    `source` follows the engine protocol of `maxwell` (a stepping engine or
    a stored trajectory).  Q and the residual norms are evaluated at
    `stride` multiples, from snapshots on the source's analysis grid of
    the steps some row reads, held until no pending row reads them.  The
    run leaps from one such step to the next (`advance(k)`), so a free
    run's cost does not grow with nsteps.  A driven run's leaps return the
    pairings of every step they pass, for its source work: S is bilinear
    in F and J, so its volume integral is a fixed pairing of F with the
    current's profile P:

        int S dV = sum over the nonzero entries c = G[a, b] of
                   c [ f(t + m dt) <F_a(t), P~_b> + f(t) <F_b(t + m dt), P^-1_a> ]

    with P~ the profile at the law's mapped points and P^-1 the profile at
    the inverse-mapped ones (every map is a volume-preserving symmetry of
    the box).  `_pulled_profiles` builds them for every map once per run;
    the rows read the same arrays, and `dual` turns them into the weights
    that step 0's `pair` and each leap contract the field with.  The
    work's Simpson quadrature reads every step and keeps the stepper's
    order.  A step whose pairings or snapshot are not finite raises
    Diverged naming it.  `norm_scale` is the field energy at step 0.
    """
    single = isinstance(laws, TwoPointLawSpec)
    laws = [laws] if single else list(laws)
    if not laws:
        raise ValueError("need at least one law")
    if stride < 1:
        raise ValueError(f"analysis stride must be >= 1, got {stride}")
    m_max = max(law.time_shift_steps for law in laws)
    if nsteps < m_max + 2:
        raise HistoryUnderflow(f"need at least {m_max + 2} steps for shift {m_max}, "
                               f"have {nsteps}")
    last_q = nsteps - m_max
    analysis = [*range(0, last_q, stride), last_q]
    initial = source.state()
    for law in laws:  # each map must be a symmetry of the run's own grid
        _gather_plan(initial.grid, law.map)
    agrid = source.analysis_grid
    t0 = initial.t
    with np.errstate(over="ignore"):
        scale = source.energy()
    if not np.isfinite(scale):
        raise Diverged("field energy is not finite at step 0")

    profile, pulled, dual = None, {}, None  # pulled: map -> the profile there
    if not j.is_zero:
        profile, pulled = _pulled_profiles(
            source, [amap for law in laws for amap in (law.map, law.map.inverse())])
        cols = {amap: 3 * i for i, amap in enumerate(pulled)}  # its 3 columns in the dual
        dual = source.dual(np.concatenate(list(pulled.values())))
        pairs = np.zeros((nsteps + 1, 6, len(cols) * 3))
        with np.errstate(over="ignore", invalid="ignore"):  # `_check_pairs` names the step
            pairs[0] = source.pair(dual)
        _check_pairs(pairs, 0, 0)
        f = j.time_factor(t0 + dt * np.arange(nsteps + 1))

    reads = set()  # the steps some row reads, each law with its own m
    for law in laws:
        m = law.time_shift_steps
        for a in analysis:
            reads.update((a, a + m))
            if 1 <= a <= nsteps - m - 1:
                reads.update((a - 1, a + 1, a + m - 1, a + m + 1))

    def need(a: int) -> int:
        return a + m_max + (1 if 1 <= a <= nsteps - m_max - 1 else 0)

    window = {}
    rows = {id(law): [] for law in laws}
    ai = 0
    for n_sim in sorted(reads):
        if n_sim > source.step_index:
            first = source.step_index + 1
            with np.errstate(over="ignore", invalid="ignore"):  # as for step 0
                passed = source.advance(n_sim - source.step_index, dual)
            if dual is not None:
                pairs[first:n_sim + 1] = passed
                _check_pairs(pairs, first, n_sim)
        window[n_sim] = source.state(agrid)
        # every snapshot taken is read; synthesising a lazy one here, not
        # amid a row's temporaries, keeps the run's memory peak where it was
        try:
            window[n_sim].data
        except NonFiniteField:
            raise Diverged(f"field is not finite at step {n_sim}") from None
        while ai < len(analysis) and need(analysis[ai]) <= n_sim:
            a = analysis[ai]
            for law in laws:
                rows[id(law)].append(_analysis_row(
                    law, j, dt, window.__getitem__, a, nsteps, initial.grid,
                    (profile, pulled.get(law.map))
                ))
            ai += 1
            oldest = analysis[ai] - 1 if ai < len(analysis) else n_sim + 1  # read by a pending row
            window = {n: s for n, s in window.items() if n >= oldest}
    assert ai == len(analysis)

    idx = np.asarray(analysis)
    reports = []
    for law in laws:
        q, r_l2, r_max = (np.array(col) for col in zip(*rows[id(law)]))
        source_cum = np.zeros(len(idx))
        if dual is not None:
            m = law.time_shift_steps
            n_w = nsteps - m + 1
            w = np.zeros(n_w)
            fwd, inv = cols[law.map], cols[law.map.inverse()]
            for a, b in zip(*np.nonzero(law.source)):
                w += law.source[a, b] * (f[m:] * pairs[:n_w, a, fwd + b % 3]
                                         + f[:n_w] * pairs[m:, b, inv + a % 3])
            source_cum = cumulative_simpson(w, dt)[idx]
        reports.append(BalanceReport(law.label, t0 + dt * idx, q, source_cum,
                                     q - q[0] - source_cum, r_l2, r_max, scale))
    return reports[0] if single else reports


def residual(traj: Trajectory, laws, analysis_stride: int = 1):
    """Balance report of one law (a list of reports for a list of laws)
    over a stored trajectory.

    The time derivative is a centered 2nd-order difference of the stored
    states, so the report measures the law against the trajectory the
    stepper actually produced.
    """
    return _balance(_StoredSource(traj), laws, traj.source, traj.dt, len(traj) - 1,
                    analysis_stride)


def run_balance(
    initial: FieldState,
    j: CurrentSpec,
    dt: float,
    nsteps: int,
    laws,
    stepper: str = "spectral",
    analysis_stride: int = 1,
):
    """Evolve and verify one law or a list of laws in one pass, storing
    only a window.

    The same bookkeeping as `residual`, fed by a stepping engine instead of
    a stored trajectory.
    """
    return _balance(_engine(stepper, initial, j, dt), laws, j, dt, nsteps, analysis_stride)


# ---------------------------------------------------------------------------
# Law files (structured text, row-major number lists)
# ---------------------------------------------------------------------------


def save_law(law: TwoPointLawSpec, path):
    def fmt(arr):
        return " ".join(repr(float(v)) for v in np.asarray(arr).ravel())

    with open(path, "w") as f:
        f.write(f"label = {law.label}\n")
        f.write(f"map.alpha = {fmt(law.map.alpha)}\n")
        f.write(f"map.beta = {fmt(law.map.beta)}\n")
        f.write(f"dt_shift_steps = {law.time_shift_steps}\n")
        f.write(f"W = {fmt(law.W)}\n")
        f.write(f"K = {fmt(law.K)}\n")
        f.write(f"source = {fmt(law.source)}\n")


def load_law(path) -> TwoPointLawSpec:
    fields = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    amap = AffineMap(
        tuple(float(v) for v in fields["map.alpha"].split()),
        tuple(float(v) for v in fields["map.beta"].split()),
    )
    def arr(key, shape):
        return np.array([float(v) for v in fields[key].split()]).reshape(shape)

    return TwoPointLawSpec(
        amap,
        int(fields.get("dt_shift_steps", "0")),
        arr("W", (6, 6)),
        arr("K", (3, 6, 6)),
        arr("source", (6, 6)),
        label=fields.get("label", "custom"),
    )
