"""Numerical discovery of quadratic two-point conservation laws.

For a fixed map and time shift, every candidate law is a point in the
144-dimensional space (W, K).  Demanding that the pointwise residual

    r = d/dt [W_ab P_ab] + d/dx_i [K_iab P_ab] = 0,
    P_ab(x, t) = F_a(x, t) F_b(A x, t + m dt),

vanish at sampled collocation points of an ensemble of source-free
trajectories gives a linear system A v = 0 over v = (W, K).  Laws appear
as the near-nullspace of A: singular values at the time-differencing noise
floor, separated by orders of magnitude from the rest of the spectrum.
Returned candidates are unit Frobenius norm, ranked by singular value, and
post-verified on a held-out trajectory against the map's own law
(`laws.law_of_map`, which every symmetry of the box has, under the label
that `law.N` of the same map descriptor gets).

The rows are built at the sampled nodes only; P_ab is never formed on the
grid.  D_t P_ab is the centered difference of F_a F~_b at the nodes, and
d_i P_ab = (d_i F_a) F~_b + F_a d_i F~_b uses spectral gradients of the
twelve components of F and F~ at the nodes.  This equals spectral
differentiation of the sampled product only while the products are alias
free, 2 kmax < N/2; outside that range the product rule gives the exact
derivative at the nodes.  A fit member's rows read its stepped states,
which `evolve` leaves lazy (`FieldState.spectrum`), from their
coefficients: one staged transform per member reads the samples, bit for
bit those of the states, and the gradients at the sampled and mapped
nodes, and no state is synthesised unless a sub-node map shifts it.
Sampled states are gathered at the nodes and differentiated from their
rfftn.  The map acts through `grid` alone: its gather plan at the sampled
nodes, its pullback (`laws._pulled6`) on the hold-out, and alpha^T on F's
gradient.  A's singular values and vectors come from its R factor.  Since r
is linear in (W, K), the hold-out check, discovery's one whole-grid pass,
evaluates every near-null direction and the reference law in one pass
over the hold-out's nodes, a block of nodes at a time.

For the identity map the products P_ab are symmetric in (a, b), so the
antisymmetric parts of W and K are exactly unobservable and enlarge the
nullspace with pointwise-trivial directions (zero density, zero flux);
they are genuine if degenerate laws and are kept, since projections onto
the recovered subspace are unaffected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InsufficientData
from .grid import AffineMap, GridSpec, _gather_plan, _samples_at, _shifted_spectrum
from .laws import (
    TwoPointLawSpec,
    law_of_map,
    residual,  # unused here; the benchmark's tracer patches this binding
    _stack6,
    _pulled6,
)

MIN_ENSEMBLE = 20  # trajectories, the last of them held out
SVD_REL_TOL = 1e-6  # near-null: singular value <= SVD_REL_TOL * largest
POINTS_PER_TIME = 8  # collocation nodes per sampled step
TIMES_PER_TRAJ = 3  # sampled interior steps per fitted trajectory


@dataclass(eq=False)
class Candidate:
    """One recovered law with its diagnostics."""

    law: TwoPointLawSpec
    singular_value: float
    holdout_max_r: float


@dataclass(eq=False)
class DiscoveryResult:
    candidates: list
    singular_values: np.ndarray
    rows: int
    reference: TwoPointLawSpec  # the map's own law, the hold-out yardstick
    reference_max_r: float
    singular_gap: float  # smallest discarded singular value / largest kept one

    def basis(self) -> np.ndarray:
        """(n_candidates, 144) orthonormal rows spanning the recovered space."""
        return np.array([c.law.as_vector() for c in self.candidates])

    def projection_of(self, law: TwoPointLawSpec) -> float:
        """Norm of the law's (W, K) projection onto the recovered subspace."""
        if not self.candidates:
            return 0.0
        v = law.as_vector()
        v = v / np.linalg.norm(v)
        basis = self.basis()
        return float(np.linalg.norm(basis @ v))


def _unpack(v: np.ndarray):
    w = v[:36].reshape(6, 6)
    k = v[36:].reshape(3, 6, 6)
    return w, k


@functools.lru_cache(maxsize=16)
def _diff_matrix(n: int, h: float) -> np.ndarray:
    """Spectral differentiation matrix of a periodic axis: (D @ f)_i = f'(x_i)."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    d = np.fft.irfft(1j * k[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    d.flags.writeable = False  # shared by every caller through the cache
    return d


def _gradient(data: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral gradient (3, c, Nx, Ny, Nz) of (c, Nx, Ny, Nz) data, one product per axis."""
    dx, dy, dz = (_diff_matrix(n, h) for n, h in zip(grid.dims, grid.spacing))
    c, nx, ny, nz = data.shape
    gx = (dx @ data.reshape(c, nx, ny * nz)).reshape(data.shape)
    return np.stack([gx, dy @ data, data @ dz.T])


def _step_fields(traj, amap, m, n):
    """(F, F~) as (12, nodes) at steps n-1, n+1 and n, and the spectral
    gradient (3, 12, nodes) of the last, at every node in node order: F~ is
    F at step i + m pulled back along the map (`laws._pulled6`), and every
    node takes one product per axis."""
    grid = traj.grid

    def gather(i):
        return np.concatenate([_stack6(traj.states[i]).reshape(6, -1),
                               _pulled6(traj.states[i + m], amap).reshape(6, -1)])

    now = gather(n)
    return gather(n - 1), gather(n + 1), now, _gradient(now.reshape(12, *grid.dims),
                                                        grid).reshape(3, 12, -1)


def _read(traj, fields, grads, nodes):
    """(samples, gradients) of each field (i, shift) of `fields` at the flat
    node indices `nodes`: step i's state shifted by the sub-node `shift`
    (None for none), as (6, nodes) and, for the fields in `grads`, its
    spectral gradient (3, 6, nodes).

    An unshifted state's samples are its own: a lazy state's are read from
    its coefficients (`grid._samples_at`, bit for bit its samples, which
    stay unsynthesised), any other's gathered.  Gradients, and a shifted
    state's samples, come from coefficients: a lazy state's own, else the
    rfftn of its samples (times the shift's phases).  Fields that share a
    mode layout go through one staged transform.
    """
    grid = traj.grid
    every = np.arange(grid.dims[0] * grid.dims[1] * (grid.dims[2] // 2 + 1))
    samples, gradients, passes = {}, {}, {}
    for key in sorted(fields, key=grads.__contains__):  # gradients last, for `_samples_at`
        i, shift = key
        state = traj.states[i]
        if shift is not None:
            index, coeffs = every, _shifted_spectrum(state.data, grid, shift).reshape(6, -1)
        elif state.spectrum is not None:
            index, coeffs = state.spectrum
        else:
            samples[key] = state.data.reshape(6, -1)[:, nodes]
            if key not in grads:
                continue
            index, coeffs = every, np.fft.rfftn(state.data, axes=(-3, -2, -1)).reshape(6, -1)
        passes.setdefault(id(index), (index, []))[1].append((key, coeffs))
    for index, members in passes.values():
        keys = [key for key, _ in members]
        slopes = [key for key in keys if key in grads]
        values, slope = _samples_at(np.concatenate([c for _, c in members]), index, grid,
                                    nodes, 6 * len(slopes))
        for j, key in enumerate(keys):
            samples.setdefault(key, values[6 * j:6 * j + 6])
        for j, key in enumerate(slopes):
            gradients[key] = slope[:, 6 * j:6 * j + 6]
    return samples, gradients


def _point_fields(traj, amap, m, steps, points):
    """`_step_fields` at the flat node indices `points` only, for each
    interior step n of `steps` in turn: (12, nodes x steps) and (3, 12,
    nodes x steps).  F is read at the points and F~ at the nodes the map
    sends them to; F~'s gradient is alpha^T times F's there."""
    grid = traj.grid
    offsets, rest = _gather_plan(grid, amap)
    p = len(points)
    nodes = np.concatenate([points, sum(offsets).ravel()[points]])  # F's, then F~'s
    steps = [int(n) for n in np.atleast_1d(steps)]
    reads = [i for n in steps for i in (n - 1, n, n + 1)]
    fields = dict.fromkeys([(i, None) for i in reads] + [(i + m, rest) for i in reads])
    grads = {(n, None) for n in steps} | {(n + m, rest) for n in steps}
    samples, gradients = _read(traj, fields, grads, nodes)

    def values(i):
        return np.concatenate([samples[i, None][:, :p], samples[i + m, rest][:, p:]])

    def gradient(n):
        # einsum, not matmul: see `grid._synthesize`
        turned = np.einsum("ji,jcp->icp", amap.alpha_matrix, gradients[n + m, rest][..., p:])
        return np.concatenate([gradients[n, None][..., :p], turned], axis=1)

    per_step = [(values(n - 1), values(n + 1), values(n), gradient(n)) for n in steps]
    return tuple(np.concatenate(x, axis=-1) for x in zip(*per_step))


def _rows_at(fields, dt):
    """Collocation rows [D_t P_ab | d_i P_ab] at the nodes of `fields`.

    P_ab = F_a F~_b is never formed on the grid: D_t P is the centered
    difference of the products at the nodes, d_i P the product rule.
    """
    prev, nxt, now, grad = fields
    dp = (nxt[:6, None] * nxt[None, 6:] - prev[:6, None] * prev[None, 6:]) / (2.0 * dt)
    f, g = now[:6], now[6:]
    dpi = grad[:, :6, None] * g[None, None] + f[None, :, None] * grad[:, None, 6:]
    return np.concatenate([dp.reshape(36, -1), dpi.reshape(108, -1)]).T


def _rows_for_step(traj, amap, m, steps, points):
    """Collocation rows at the interior step(s) `steps`, sampled at the flat
    node indices `points`, a step's rows after the previous step's."""
    return _rows_at(_point_fields(traj, amap, m, steps, points), traj.dt)


def _holdout_max_r(traj, amap, m, v, block=1024):
    """max |r| over every node and interior step of traj, per column of v.

    The residual r = rows @ v is linear in (W, K), so one pass evaluates
    every column of the (144, k) matrix v; rows are taken `block` nodes at
    a time so the full-grid row matrix is never held at once.  It is
    discovery's one whole-grid pass, with one matrix product per axis: grid
    lines would gather each line once per node on it.
    """
    out = np.zeros(v.shape[1])
    for n in range(1, len(traj) - 1 - m):
        fields = _step_fields(traj, amap, m, n)
        for lo in range(0, traj.grid.num_nodes, block):
            r = _rows_at([x[..., lo:lo + block] for x in fields], traj.dt) @ v
            np.maximum(out, np.max(np.abs(r), axis=0), out=out)
    return out


def discover_laws(
    ensemble,
    amap: AffineMap,
    dt_shift_steps: int = 0,
    seed: int = 0,
) -> DiscoveryResult:
    """Recover (W, K) candidates for one map from source-free trajectories.

    The last ensemble member is held out of the fit and used to verify each
    candidate: its pointwise residual there must stay within 10x that of
    the map's own law, `DiscoveryResult.reference`.  Raises
    InsufficientData for undersized ensembles or rank-deficient sampling.
    """
    ensemble = list(ensemble)
    if len(ensemble) < MIN_ENSEMBLE:
        raise InsufficientData(
            f"need at least {MIN_ENSEMBLE} trajectories, got {len(ensemble)}"
        )
    m = int(dt_shift_steps)
    if m < 0:
        raise ValueError(f"time shift must be a non-negative step count, got {m}")
    grid = ensemble[0].grid
    for traj in ensemble:
        if traj.grid != grid:
            raise GridMismatch("discovery ensemble members live on different grids")
        if not traj.source.is_zero:
            raise InsufficientData("discovery ensembles must be source free")
        if len(traj) < m + 3:
            raise InsufficientData("trajectory too short for the requested shift")
    holdout = ensemble[-1]
    fit = ensemble[:-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = []
    for traj in fit:
        interior = np.arange(1, len(traj) - 1 - m)
        take = interior[np.linspace(0, len(interior) - 1, min(TIMES_PER_TRAJ, len(interior))).astype(int)]
        points = rng.choice(grid.num_nodes, size=POINTS_PER_TIME, replace=False)
        blocks.append(_rows_for_step(traj, amap, m, np.unique(take), points))
    a = np.concatenate(blocks, axis=0)
    if a.shape[0] < 144:
        raise InsufficientData(f"only {a.shape[0]} collocation rows for 144 unknowns")
    _, s, vh = np.linalg.svd(np.linalg.qr(a, mode="r"))  # R has A's s and vh
    if s[0] == 0.0:
        raise InsufficientData("collocation matrix is identically zero")
    near_null = s <= SVD_REL_TOL * s[0]
    reference = law_of_map(amap, m, grid)
    order = np.flatnonzero(near_null)[::-1]  # smallest singular values first
    hold_r = _holdout_max_r(holdout, amap, m,
                            np.hstack([vh[order].T, reference.as_vector()[:, None]]))
    ref_max_r = hold_r[-1]
    candidates = []
    for idx, r in zip(order, hold_r):
        if r > 10.0 * ref_max_r:
            continue
        w, k = _unpack(vh[idx])
        law = TwoPointLawSpec(
            amap, m, w, k, np.zeros((6, 6)), label=f"discovered-{len(candidates)}"
        )
        candidates.append(Candidate(law, float(s[idx]), float(r)))
    kept, dropped = s[near_null], s[~near_null]
    return DiscoveryResult(
        candidates=candidates,
        singular_values=s,
        rows=a.shape[0],
        reference=reference,
        reference_max_r=float(ref_max_r),
        singular_gap=float(dropped.min() / kept.max()) if kept.size else float("nan"),
    )
