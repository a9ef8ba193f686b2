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
(alpha = -I, beta = 0: rho = B.E~ + B~.E, J = E x E~ - B x B~).

The tensors of the shipped laws are sparse (6 of 36 W entries, 12 of 108 K
entries), so each law lists its nonzero terms (a, b, coef) once, and the
pointwise kernels contract only those, node by node, in the dense
contraction's order: the values are bit-identical to it.  A balance
run builds the profiles of its driving current once, not per step, at
each law's map and its inverse: the volume integral of S is a fixed
pairing of the field with those profiles, which the engine evaluates on
its own coefficients at every step, with no snapshot.

A balance run evaluates its rows on the source's analysis grid.  For an
engine (spectral or Yee) whose fields carry modes |n_i| <= K that is the same box
on 4K + 2 nodes per axis, where every quadratic quantity above and its
square are sampled without aliasing, so Q, the source work and r_l2
equal their fine-grid values up to rounding; r_max is taken over the fine
nodes, from the coarse residual resampled in Fourier space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import Diverged, GridMismatch, HistoryUnderflow, NotARotation
from .grid import (
    AffineMap,
    FieldState,
    GridSpec,
    ScalarField,
    VectorField,
    _gather_open_indices,
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


def _nonzero_terms(t: np.ndarray) -> tuple:
    """The nonzero entries (a, b, coef) of a 6x6 tensor, in row-major order."""
    return tuple((int(a), int(b), float(t[a, b])) for a, b in zip(*np.nonzero(t)))


@dataclass(eq=False)
class TwoPointLawSpec:
    """One candidate balance law: (map, time shift, W, K, source tensor).

    The tensors are frozen at construction.  The pointwise kernels contract
    only their nonzero terms, listed on first use (discovery builds many
    laws that it never evaluates).
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

    @cached_property
    def _w_terms(self) -> tuple:
        return _nonzero_terms(self.W)

    @cached_property
    def _k_terms(self) -> tuple:
        return tuple(_nonzero_terms(k) for k in self.K)

    @cached_property
    def _source_terms(self) -> tuple:
        return _nonzero_terms(self.source)

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


# ---------------------------------------------------------------------------
# Pointwise evaluation (F is the state's stacked (6, Nx, Ny, Nz) array)
# ---------------------------------------------------------------------------

_IDENTITY = AffineMap.identity()


def _contract(terms, f: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """sum over terms (a, b, c) of c f[a] g[b], node by node, added into
    `out` (default: a new zero array).

    Bit-identical to np.einsum("ab,a...,b...->...", T, f, g) over the dense
    tensor T: einsum accumulates (T_ab f_a) g_b from zero in row-major
    (a, b) order, a zero entry adds nothing to a finite sum, and a factor
    of +-1 is exact, so only the other coefficients are multiplied in.
    """
    out = np.zeros(f.shape[1:]) if out is None else out
    tmp = np.empty_like(out)
    for a, b, c in terms:
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


def _check_pair(law, state_now, state_shifted):
    if state_now.grid != state_shifted.grid:
        raise GridMismatch("paired states live on different grids")


def density(law: TwoPointLawSpec, state_now: FieldState,
            state_shifted: Optional[FieldState] = None) -> ScalarField:
    """rho(x) = W_ab F_a(x) F_b(A x) with F_b drawn from the shifted state."""
    state_shifted = state_now if state_shifted is None else state_shifted
    _check_pair(law, state_now, state_shifted)
    f = _stack6(state_now)
    g = _pulled6(state_shifted, law.map)
    with np.errstate(over="ignore"):  # ScalarField reports it as NonFiniteField
        rho = _contract(law._w_terms, f, g)
    return ScalarField(state_now.grid, rho, copy=False)


def flux(law: TwoPointLawSpec, state_now: FieldState,
         state_shifted: Optional[FieldState] = None):
    """J_i(x) = K_iab F_a(x) F_b(A x)."""
    state_shifted = state_now if state_shifted is None else state_shifted
    _check_pair(law, state_now, state_shifted)
    f = _stack6(state_now)
    g = _pulled6(state_shifted, law.map)
    j = np.zeros((3, *f.shape[1:]))
    for i, terms in enumerate(law._k_terms):
        _contract(terms, f, g, out=j[i])
    return VectorField(state_now.grid, j, copy=False)


def source_power(law: TwoPointLawSpec, state_now: FieldState,
                 state_shifted: Optional[FieldState], j: CurrentSpec,
                 profiles: Optional[tuple] = None) -> ScalarField:
    """S(x) with J sampled from its closed form at both points and times.

    `profiles` is the pair (j.spatial_profile(grid), j.profile_at(grid,
    law.map)) when the caller has built it already.  Row b of the stacked
    current Js is row b % 3 of the profile.
    """
    state_shifted = state_now if state_shifted is None else state_shifted
    _check_pair(law, state_now, state_shifted)
    grid = state_now.grid
    if j.is_zero:
        return ScalarField(grid, np.zeros(grid.dims), copy=False)
    if profiles is None:
        profiles = (j.spatial_profile(grid), j.profile_at(grid, law.map))
    f = _stack6(state_now)
    g = _pulled6(state_shifted, law.map)
    jn = profiles[0] * j.time_factor(state_now.t)
    jm = profiles[1] * j.time_factor(state_shifted.t)
    terms = law._source_terms
    s = _contract([(a, b % 3, c) for a, b, c in terms], f, jm)
    s += _contract([(a % 3, b, c) for a, b, c in terms], jn, g)
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
        with open(path, "w", newline="") as f:
            f.write("# schema=1\n")
            f.write("t,Q,source_cum,defect,r_l2,r_max\n")
            for row in zip(self.t, self.Q, self.source_cum, self.defect,
                           self.r_l2, self.r_max):
                f.write(",".join(repr(float(v)) for v in row) + "\n")


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of evenly spaced samples, 4th order throughout:
    composite Simpson at even indices, a cubic (Adams-Moulton style)
    one-interval correction at odd ones."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * dx * (y[0] + y[1])
        return out
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


def _analysis_row(law, j, dt, get_state, a, nsteps, fine_grid, profiles=None):
    """Q and residual norms of one law at analysis step a (`profiles` as
    for `source_power`).

    The states may live on a coarser grid than `fine_grid`, the grid of the
    run, if it holds their band-limited products exactly; r_max is still
    the largest |r| over the fine nodes.
    """
    m = law.time_shift_steps
    s_now = get_state(a)
    s_sh = get_state(a + m)
    q = volume_integral(density(law, s_now, s_sh))
    if 1 <= a <= nsteps - m - 1:
        rho_next = density(law, get_state(a + 1), get_state(a + m + 1)).data
        rho_prev = density(law, get_state(a - 1), get_state(a + m - 1)).data
        r = (rho_next - rho_prev) / (2.0 * dt)
        r = r + divergence(flux(law, s_now, s_sh)).data
        if not j.is_zero:
            r = r - source_power(law, s_now, s_sh, j, profiles).data
        grid = s_now.grid
        r_l2 = float(np.sqrt(volume_integral(ScalarField(grid, r * r, copy=False))))
        if grid != fine_grid:
            r = _refine(r, grid, fine_grid)
        r_max = float(np.max(np.abs(r)))
    else:
        r_l2 = float("nan")
        r_max = float("nan")
    return q, r_l2, r_max


# ---------------------------------------------------------------------------
# One balance loop: `residual` feeds it a stored trajectory, `run_balance`
# a stepping engine; both reach it through the engine protocol of `maxwell`
# ---------------------------------------------------------------------------


class _StoredSource:
    """A stored trajectory behind the engine protocol of `maxwell`, on the
    trajectory's own grid."""

    def __init__(self, traj: Trajectory):
        self.states = traj.states
        self.analysis_grid = traj.grid
        self.step_index = 0

    def advance(self):
        self.step_index += 1

    def state(self, grid: Optional[GridSpec] = None) -> FieldState:
        return self.states[self.step_index]

    def dual(self, q: np.ndarray) -> np.ndarray:
        return q * self.analysis_grid.cell_volume

    def pair(self, dual: np.ndarray) -> np.ndarray:
        return np.einsum("axyz,cxyz->ac", self.state().data, dual)


def _balance(source, laws, j: CurrentSpec, dt: float, nsteps: int, stride: int):
    """Balance report of one law, or the list of reports of a list of laws,
    over the nsteps steps of one source.

    `source` follows the engine protocol of `maxwell` (a stepping engine or
    a stored trajectory).  Q and the residual norms are evaluated at
    `stride` multiples, from snapshots on the source's analysis grid; a
    window of the last m_max + 3 steps holds the snapshots of the steps
    some row reads, taken as the source reaches them.  The source work is
    evaluated at every step, so the Simpson quadrature of its integral
    keeps the stepper's order.  S is bilinear in F and J, so its volume
    integral is a fixed pairing of F with the current's profile P:

        int S dV = sum over source terms (a, b, c) of
                   c [ f(t + m dt) <F_a(t), P~_b> + f(t) <F_b(t + m dt), P^-1_a> ]

    with P~ the profile at the law's mapped points and P^-1 the profile at
    the inverse-mapped ones (every map is a volume-preserving symmetry of
    the box), so each step of a driven run makes one `pair` call against
    all the maps' profiles, built once for the run.  A step whose pairings
    or snapshot are not finite raises Diverged naming it.
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
    analysis = sorted(set(range(0, last_q + 1, stride)) | {last_q})
    initial = source.state()
    for law in laws:  # each map must be a symmetry of the run's own grid
        _gather_open_indices(initial.grid, law.map)
    agrid = source.analysis_grid
    t0 = initial.t
    with np.errstate(over="ignore"):
        scale = float(np.sum(initial.E.data**2 + initial.B.data**2) * initial.grid.cell_volume)
    if not np.isfinite(scale):
        raise Diverged("field energy is not finite at step 0")

    cols = {}  # map -> first of its 3 columns in the dual
    profiles = {}  # law map -> (profile, mapped profile) of the current
    dual = None
    if not j.is_zero:
        mapped = {}
        for law in laws:
            for amap in (law.map, law.map.inverse()):
                if amap not in cols:
                    cols[amap] = 3 * len(cols)
                    mapped[amap] = j.profile_at(agrid, amap)
        spatial = j.spatial_profile(agrid)
        profiles = {law.map: (spatial, mapped[law.map]) for law in laws}
        dual = source.dual(np.concatenate(list(mapped.values())))
    pairs = np.zeros((nsteps + 1, 6, len(cols) * 3))

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
    for n_sim in range(0, nsteps + 1):
        if n_sim > 0:
            source.advance()
        if dual is not None:
            pairs[n_sim] = source.pair(dual)
            if not np.all(np.isfinite(pairs[n_sim])):
                raise Diverged(f"field is not finite at step {n_sim}")
        window.pop(n_sim - m_max - 3, None)
        if n_sim in reads:
            window[n_sim] = source.state(agrid)
        while ai < len(analysis) and need(analysis[ai]) <= n_sim:
            a = analysis[ai]
            for law in laws:
                rows[id(law)].append(_analysis_row(
                    law, j, dt, window.__getitem__, a, nsteps, initial.grid,
                    profiles.get(law.map)
                ))
            ai += 1
    assert ai == len(analysis)

    f = np.array([j.time_factor(t) for t in t0 + dt * np.arange(nsteps + 1)])
    idx = np.asarray(analysis)
    reports = []
    for law in laws:
        m = law.time_shift_steps
        n_w = nsteps - m + 1
        w = np.zeros(n_w)
        if dual is not None:
            fwd, inv = cols[law.map], cols[law.map.inverse()]
            for a, b, c in law._source_terms:
                w += c * (f[m:] * pairs[:n_w, a, fwd + b % 3]
                          + f[:n_w] * pairs[m:, b, inv + a % 3])
        q, r_l2, r_max = (np.array(col) for col in zip(*rows[id(law)]))
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
