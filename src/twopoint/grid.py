"""Periodic rectangular grids, sampled fields, and affine point-maps.

Everything downstream (steppers, conservation laws, discovery) is built on the
types here: a collocated periodic grid, scalar/vector fields sampled on its
nodes, and the symmetries x -> alpha x + beta of the periodic box (alpha a
signed permutation, beta any shift) used to pull a field back to mapped
evaluation points.  A pullback is an index gather, preceded by a Fourier
shift only when beta is not a whole number of nodes.  The divergence is
spectral (exact on band-limited data) with periodic wrap.

Fields are immutable values: construction freezes the underlying array, and
all operations return new fields.  Reductions use a fixed traversal order so
results are reproducible across runs and thread counts.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import GridMismatch, InvalidMap, NonFiniteField


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: node i sits at (i_x*hx, i_y*hy, i_z*hz).

    dims    -- node counts (Nx, Ny, Nz), each >= 4
    spacing -- node spacings (hx, hy, hz), each > 0
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        spacing = tuple(float(h) for h in self.spacing)
        if len(dims) != 3 or len(spacing) != 3:
            raise ValueError("GridSpec needs three dims and three spacings")
        if any(n < 4 for n in dims):
            raise ValueError(f"grid dims must be >= 4, got {dims}")
        if any(not np.isfinite(h) or h <= 0.0 for h in spacing):
            raise ValueError(f"grid spacings must be positive, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def lengths(self) -> tuple[float, float, float]:
        return tuple(n * h for n, h in zip(self.dims, self.spacing))

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacing
        return hx * hy * hz

    @property
    def volume(self) -> float:
        lx, ly, lz = self.lengths
        return lx * ly * lz

    @property
    def num_nodes(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1D node coordinate arrays along each axis."""
        return tuple(h * np.arange(n) for n, h in zip(self.dims, self.spacing))

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    @staticmethod
    def cube(length: float, n: int) -> "GridSpec":
        """Cubic box of side `length` with n nodes per axis."""
        h = float(length) / int(n)
        return GridSpec((n, n, n), (h, h, h))


@functools.lru_cache(maxsize=64)
def _wavenumbers(dims, spacing):
    """Angular wavenumbers for rfftn layout: full kx, ky and half kz."""
    kx = 2.0 * np.pi * np.fft.fftfreq(dims[0], d=spacing[0])
    ky = 2.0 * np.pi * np.fft.fftfreq(dims[1], d=spacing[1])
    kz = 2.0 * np.pi * np.fft.rfftfreq(dims[2], d=spacing[2])
    return kx, ky, kz


def _mode_numbers(dims) -> tuple:
    """Integer mode numbers along each axis of the rfftn layout of `dims`:
    the full axes 0 and 1 (negative modes last), the half axis 2."""
    full = [(np.arange(n) + n // 2) % n - n // 2 for n in dims[:2]]
    return (*full, np.arange(dims[2] // 2 + 1))


def spectral_wavevectors(grid: GridSpec):
    """Broadcastable (KX, KY, KZ) arrays matching the rfftn coefficient layout."""
    kx, ky, kz = _wavenumbers(grid.dims, grid.spacing)
    return kx[:, None, None], ky[None, :, None], kz[None, None, :]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _prep(data, shape, copy: bool) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"field data has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteField("field data contains non-finite values")
    if copy:
        arr = np.array(arr, order="C")
    elif not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return _freeze(arr)


@dataclass(eq=False)
class ScalarField:
    """One real value per grid node, shape (Nx, Ny, Nz)."""

    grid: GridSpec
    data: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        self.data = _prep(self.data, self.grid.dims, copy)


@dataclass(eq=False)
class VectorField:
    """Three collocated real components per node, shape (3, Nx, Ny, Nz)."""

    grid: GridSpec
    data: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        self.data = _prep(self.data, (3, *self.grid.dims), copy)

    @staticmethod
    def zeros(grid: GridSpec) -> "VectorField":
        return VectorField(grid, np.zeros((3, *grid.dims)), copy=False)


def _view(grid: GridSpec, data: np.ndarray) -> VectorField:
    """VectorField over rows of an array that is already checked and frozen."""
    field = object.__new__(VectorField)
    field.grid = grid
    field.data = data
    return field


class FieldState:
    """The pair (E, B) on one grid at one instant t.

    Both fields live in one frozen, C-contiguous (6, Nx, Ny, Nz) array
    `data`, E in rows 0-2 and B in rows 3-5; `E` and `B` are read-only
    views of it, so the stacked layout the laws contract needs no copy.
    """

    def __init__(self, E: VectorField, B: VectorField, t: float):
        if E.grid != B.grid:
            raise GridMismatch("E and B live on different grids")
        self._own(E.grid, _freeze(np.concatenate([E.data, B.data])), t)

    @classmethod
    def from_data(cls, grid: GridSpec, data, t: float) -> "FieldState":
        """State over a stacked (6, Nx, Ny, Nz) array, adopted without a copy
        when it is float64 and C-contiguous (the caller must not write to it)."""
        state = cls.__new__(cls)
        state._own(grid, _prep(data, (6, *grid.dims), copy=False), t)
        return state

    def _own(self, grid: GridSpec, data: np.ndarray, t: float):
        self.t = float(t)
        if not np.isfinite(self.t):
            raise ValueError("state time must be finite")
        self.grid = grid
        self.data = data
        self.E = _view(grid, data[:3])
        self.B = _view(grid, data[3:])


@dataclass(frozen=True)
class AffineMap:
    """Symmetry x -> alpha x + beta of the periodic box, taken modulo the box.

    alpha is a signed permutation (one of the 48 rotations and reflections
    that carry the coordinate axes onto each other) and beta any finite
    shift: the maps under which a periodic field pulls back to a periodic
    field.  Anything else raises InvalidMap.  alpha and beta are stored as
    flat tuples so maps are hashable (they key several internal caches).
    """

    alpha: tuple  # 9 floats, row-major 3x3, entries in {-1, 0, 1}
    beta: tuple  # 3 floats

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).reshape(3, 3)
        b = np.asarray(self.beta, dtype=float).reshape(3)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidMap("map coefficients must be finite")
        if not _is_signed_permutation(a):
            raise InvalidMap("alpha must be a signed permutation (a symmetry of the box)")
        object.__setattr__(self, "alpha", tuple(float(x) for x in np.round(a).ravel()))
        object.__setattr__(self, "beta", tuple(float(x) for x in b))

    @property
    def alpha_matrix(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float).reshape(3, 3)

    @property
    def beta_vector(self) -> np.ndarray:
        return np.asarray(self.beta, dtype=float)

    def inverse(self) -> "AffineMap":
        ainv = self.alpha_matrix.T  # orthogonal
        binv = -ainv @ self.beta_vector
        return AffineMap(tuple(ainv.ravel()), tuple(binv))

    # -- common constructors -------------------------------------------------

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(tuple(np.eye(3).ravel()), (0.0, 0.0, 0.0))

    @staticmethod
    def inversion() -> "AffineMap":
        return AffineMap(tuple((-np.eye(3)).ravel()), (0.0, 0.0, 0.0))

    @staticmethod
    def translation(beta) -> "AffineMap":
        return AffineMap(tuple(np.eye(3).ravel()), tuple(np.asarray(beta, float)))

    @staticmethod
    def node_translation(grid: GridSpec, nodes) -> "AffineMap":
        """Translation by an integer number of nodes along each axis."""
        nodes = np.asarray(nodes)
        beta = tuple(int(n) * h for n, h in zip(nodes, grid.spacing))
        return AffineMap.translation(beta)

    @staticmethod
    def quarter_turn(axis: int, quarters: int = 1) -> "AffineMap":
        """Proper rotation by quarters*90 degrees about a coordinate axis."""
        c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][quarters % 4]
        i, j = [(1, 2), (2, 0), (0, 1)][axis]
        r = np.eye(3)
        r[i, i] = c
        r[j, j] = c
        r[i, j] = -s
        r[j, i] = s
        return AffineMap(tuple(r.ravel()), (0.0, 0.0, 0.0))


def _is_signed_permutation(a: np.ndarray) -> bool:
    aa = np.abs(a)
    if not np.allclose(aa, np.round(aa), atol=1e-12):
        return False
    aa = np.round(aa)
    return bool(np.all(aa.sum(axis=0) == 1) and np.all(aa.sum(axis=1) == 1)
                and np.all((aa == 0) | (aa == 1)))


# ---------------------------------------------------------------------------
# Pullback: result(x) = field(alpha x + beta mod L), componentwise.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _gather_open_indices(grid: GridSpec, amap: AffineMap):
    """((I0, I1, I2), sub-node shift) with result[m] = shifted[I0, I1, I2][m].

    Output axis i draws from input axis j(i) (the nonzero column of row i of
    alpha); the map must pair axes of equal extent and spacing.  The index
    arrays carry alpha and the whole-node part of beta.  The rest of beta,
    if any, is returned as a 3-tuple shift of the input axes (None when beta
    is a whole number of nodes) for the Fourier interpolant to apply first.
    beta is first reduced modulo the box, so any finite shift splits cleanly.
    """
    a = amap.alpha_matrix
    b = np.remainder(amap.beta_vector, grid.lengths)
    out = []
    rest = [0.0, 0.0, 0.0]
    for i in range(3):
        j = int(np.argmax(np.abs(a[i])))
        s = int(a[i, j])
        if grid.dims[j] != grid.dims[i] or grid.spacing[j] != grid.spacing[i]:
            raise InvalidMap(
                f"map pairs axis {j} with axis {i} but their extents differ"
            )
        shift = b[i] / grid.spacing[i]
        nodes = int(round(shift))
        if abs(shift - nodes) > 1e-9:
            rest[i] = b[i] - nodes * grid.spacing[i]
        lookup = (s * np.arange(grid.dims[j]) + nodes) % grid.dims[i]
        shape = [1, 1, 1]
        shape[j] = grid.dims[j]
        out.append(lookup.reshape(shape))
    return tuple(out), (tuple(rest) if any(rest) else None)


def _pull_array(data: np.ndarray, grid: GridSpec, amap: AffineMap) -> np.ndarray:
    """Pull back an (..., Nx, Ny, Nz) array under the map."""
    (i0, i1, i2), rest = _gather_open_indices(grid, amap)
    if rest is not None:
        data = _shift_fourier(data, grid, rest)
    return data[..., i0, i1, i2]


def _shift_fourier(data: np.ndarray, grid: GridSpec, beta) -> np.ndarray:
    """Evaluate f(x + beta) through the band-limited interpolant."""
    kx, ky, kz = spectral_wavevectors(grid)
    phase = np.exp(1j * (kx * beta[0] + ky * beta[1] + kz * beta[2]))
    fh = np.fft.rfftn(data, axes=(-3, -2, -1))
    return np.fft.irfftn(fh * phase, s=grid.dims, axes=(-3, -2, -1))


def pullback(field, amap: AffineMap):
    """Resample a field at mapped points: result(x) = field(alpha x + beta).

    A whole-node beta makes this an index gather, bit-exact; a sub-node
    beta is first applied to the trigonometric interpolant (exact for
    band-limited data).  Components are moved, not mixed.
    """
    out = _pull_array(field.data, field.grid, amap)
    cls = VectorField if isinstance(field, VectorField) else ScalarField
    return cls(field.grid, out, copy=False)


# ---------------------------------------------------------------------------
# Differential operators and reductions
# ---------------------------------------------------------------------------


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field with periodic wrap."""
    g = v.grid
    kx, ky, kz = spectral_wavevectors(g)
    vh = np.fft.rfftn(v.data, axes=(-3, -2, -1))
    dh = 1j * (kx * vh[0] + ky * vh[1] + kz * vh[2])
    out = np.fft.irfftn(dh, s=g.dims, axes=(-3, -2, -1))
    return ScalarField(g, out, copy=False)


def _refine(data: np.ndarray, grid: GridSpec, fine: GridSpec) -> np.ndarray:
    """Samples on `fine` of the band-limited (Nx, Ny, Nz) array `data` on
    `grid`, a coarser grid of the same box: its rfftn, zero-padded.

    Modes at or above half of the coarse node count are dropped, so the
    data should have none.
    """
    fh = np.fft.rfftn(data)
    out = np.zeros((*fine.dims[:2], fine.dims[2] // 2 + 1), dtype=complex)
    src, dst = [], []
    for modes, m, n in zip(_mode_numbers(grid.dims), grid.dims, fine.dims):
        keep = np.flatnonzero(2 * np.abs(modes) < m)
        src.append(keep)
        dst.append(modes[keep] % n)
    out[np.ix_(*dst)] = fh[np.ix_(*src)] * (fine.num_nodes / grid.num_nodes)
    return np.fft.irfftn(out, s=fine.dims, axes=(0, 1, 2))


def volume_integral(s: ScalarField) -> float:
    """cell volume times the pairwise sum of all nodes, in fixed C order.

    numpy's pairwise summation over a contiguous buffer is deterministic for
    a given shape, which makes every reported integral reproducible across
    runs and thread counts.
    """
    return float(s.grid.cell_volume * np.sum(s.data.ravel(order="C")))
