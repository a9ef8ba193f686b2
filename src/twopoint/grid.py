"""Periodic rectangular grids, sampled fields, and affine point-maps.

Everything downstream (steppers, conservation laws, discovery) is built on the
types here: a collocated periodic grid, scalar/vector fields sampled on its
nodes, and the symmetries x -> alpha x + beta of the periodic box (alpha a
signed permutation, beta any shift) used to pull a field back to mapped
evaluation points.  A pullback is one flat gather along the map's cached
plan, after a Fourier shift only when beta is not a whole number of nodes.
The divergence is spectral (exact on band-limited data) with periodic wrap.

Fields are immutable values: construction freezes the underlying array, and
all operations return new fields.  Reductions use a fixed traversal order so
results are reproducible across runs and thread counts.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import GridMismatch, InvalidMap, NonFiniteField

MAX_NODES = np.iinfo(np.intp).max // 48  # nodes of the largest addressable (6, N) float64 array


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: node i sits at (i_x*hx, i_y*hy, i_z*hz).

    dims    -- node counts (Nx, Ny, Nz), each >= 4
    spacing -- node spacings (hx, hy, hz), each > 0, with a finite sum of
               h_i^-2, a nonzero cell volume and a finite box volume
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
        if dims[0] * dims[1] * dims[2] > MAX_NODES:
            raise ValueError(f"grid of more than {MAX_NODES} nodes: its (6, N) float64 field is "
                             "beyond the address space")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        try:  # nan fails every comparison, inf the box volume
            ok = (min(spacing) > 0.0 and 0.0 < self.inv_h2 < np.inf
                  and self.cell_volume > 0.0 and self.volume < np.inf)
        except (OverflowError, ZeroDivisionError):  # h^2 or a length beyond float range
            ok = False
        if not ok:
            raise ValueError(f"grid spacings {spacing} on {dims} nodes must be > 0 with a finite "
                             "sum of h^-2, a nonzero cell volume and a finite box volume")

    @property
    def inv_h2(self) -> float:
        """sum of h_i^-2, the denominator of the CFL limit."""
        return sum(1.0 / h**2 for h in self.spacing)

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


# Relative coefficient magnitude below which a mode of sampled data (a state
# without `spectrum`, a Gaussian current's profile) is inactive: FFT noise ~1e-17
_MASK_REL_TOL = 1e-15


def _sampled_modes(spectrum: np.ndarray):
    """(sorted flat rfftn indices, (c, n) coefficients) of the modes of
    sampled data above the FFT round-trip noise, from its (c, ...) rfftn."""
    dense = spectrum.reshape(len(spectrum), -1)
    index = np.flatnonzero(np.any(np.abs(dense) > _MASK_REL_TOL * np.max(np.abs(dense)), axis=0))
    return index, dense[:, index]


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

    `coefficients()` is the one way to a state's modes.  `spectrum` is None
    for sampled data, else (index, coeffs): distinct flat indices into the
    rfftn array of `data`, in any order, and their exact (6, n)
    coefficients, zero at every other index (and possibly at some of
    these).  A generator sets it beside `data`.  A stepped state
    (`from_spectrum`) is lazy: until something reads `data`, `E` or `B` it
    holds only `spectrum`.  The first read synthesises `data` once (one
    scatter and one irfftn) and checks it; reading never changes `spectrum`.
    """

    spectrum = None

    def __init__(self, E: VectorField, B: VectorField, t: float):
        if E.grid != B.grid:
            raise GridMismatch("E and B live on different grids")
        self._at(E.grid, t)
        self._own(_freeze(np.concatenate([E.data, B.data])))

    @classmethod
    def from_data(cls, grid: GridSpec, data, t: float, spectrum=None) -> "FieldState":
        """State over a stacked (6, Nx, Ny, Nz) array, adopted without a copy
        when it is float64 and C-contiguous (the caller must not write to it),
        with its `spectrum` when the caller has it."""
        state = cls.__new__(cls)
        state._at(grid, t)
        state._own(_prep(data, (6, *grid.dims), copy=False))
        if spectrum is not None:
            state.spectrum = tuple(_freeze(np.asarray(a)) for a in spectrum)
        return state

    @classmethod
    def from_spectrum(cls, grid: GridSpec, index: np.ndarray, coeffs: np.ndarray,
                      t: float) -> "FieldState":
        """Lazy state whose samples, synthesised on their first read, are the
        irfftn of the (6, n) complex `coeffs` at the distinct flat rfftn
        indices `index` of `grid` (zero elsewhere); it holds both as its
        `spectrum` without a copy (the caller must not write to them)."""
        state = cls.__new__(cls)
        state._at(grid, t)
        state.spectrum = (index, _freeze(coeffs))
        return state

    def coefficients(self):
        """(index, coeffs) of the state's modes: its `spectrum` where it holds
        one, else the sorted modes of its samples' rfftn above
        `_MASK_REL_TOL` of the largest coefficient."""
        if self.spectrum is not None:
            return self.spectrum
        return _sampled_modes(np.fft.rfftn(self.data, axes=(-3, -2, -1)))

    def _at(self, grid: GridSpec, t: float):
        self.t = float(t)
        if not np.isfinite(self.t):
            raise ValueError("state time must be finite")
        self.grid = grid

    def _own(self, data: np.ndarray):
        self.data = data
        self.E = _view(self.grid, data[:3])
        self.B = _view(self.grid, data[3:])

    def held_samples(self):
        """`data` if the state holds it, else None (a lazy state before its first read)."""
        return vars(self).get("data")

    def __getattr__(self, name):
        """`data`, `E` and `B` of a lazy state, at their first read: one
        scatter and one irfftn of `spectrum`, which the state keeps."""
        if name not in ("data", "E", "B") or self.spectrum is None:
            raise AttributeError(name)
        index, coeffs = self.spectrum
        dims = self.grid.dims
        self._own(_prep(np.fft.irfftn(_scatter(coeffs, index, dims), s=dims, axes=(-3, -2, -1)),
                        (6, *dims), copy=False))
        return getattr(self, name)


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
def _gather_plan(grid: GridSpec, amap: AffineMap):
    """(plan, sub-node shift): result.flat[m] = shifted.flat[sum(plan).flat[m]].

    The plan holds flat offsets per input axis, laid along the output axis
    they vary on, so the cache keeps Nx + Ny + Nz of them per map, not N.
    Output axis i draws from input axis j(i) (the nonzero column of row i of
    alpha); the map must pair axes of equal extent and spacing.  The plan
    carries alpha and the whole-node part of beta.  The rest of beta, if
    any, is returned as a 3-tuple shift of the input axes (None when beta
    is a whole number of nodes) for the Fourier interpolant to apply first.
    beta is first reduced modulo the box, so any finite shift splits cleanly.
    """
    a = amap.alpha_matrix
    b = np.remainder(amap.beta_vector, grid.lengths)
    out = []
    rest = [0.0, 0.0, 0.0]
    stride = (grid.dims[1] * grid.dims[2], grid.dims[2], 1)
    for i in range(3):
        j = int(np.argmax(np.abs(a[i])))
        s = int(a[i, j])
        if grid.dims[j] != grid.dims[i] or grid.spacing[j] != grid.spacing[i]:
            raise InvalidMap(f"map pairs axis {j} with axis {i} but their extents differ")
        shift = b[i] / grid.spacing[i]
        nodes = int(round(shift))
        if abs(shift - nodes) > 1e-9:
            rest[i] = b[i] - nodes * grid.spacing[i]
        lookup = (s * np.arange(grid.dims[j]) + nodes) % grid.dims[i]
        shape = [1, 1, 1]
        shape[j] = grid.dims[j]
        out.append((stride[i] * lookup).reshape(shape))
    return tuple(out), (tuple(rest) if any(rest) else None)


def _pull_array(data: np.ndarray, grid: GridSpec, amap: AffineMap) -> np.ndarray:
    """Pull back an (..., Nx, Ny, Nz) array under the map: one flat gather."""
    plan, rest = _gather_plan(grid, amap)
    if rest is not None:
        data = _shift_fourier(data, grid, rest)
    return np.take(data.reshape(*data.shape[:-3], -1), sum(plan).ravel(), -1).reshape(data.shape)


def _shifted_spectrum(data: np.ndarray, grid: GridSpec, beta) -> np.ndarray:
    """The rfftn of x -> f(x + beta), for the band-limited interpolant f of data."""
    kx, ky, kz = spectral_wavevectors(grid)
    phase = np.exp(1j * (kx * beta[0] + ky * beta[1] + kz * beta[2]))
    return np.fft.rfftn(data, axes=(-3, -2, -1)) * phase


def _shift_fourier(data: np.ndarray, grid: GridSpec, beta) -> np.ndarray:
    """Evaluate f(x + beta) through the band-limited interpolant."""
    return np.fft.irfftn(_shifted_spectrum(data, grid, beta), s=grid.dims, axes=(-3, -2, -1))


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


def _scatter(coeffs: np.ndarray, index: np.ndarray, dims) -> np.ndarray:
    """The (c, Nx, Ny, Nz // 2 + 1) rfftn array of `dims` holding the (c, n)
    `coeffs` at the flat indices `index` and 0 elsewhere."""
    nx, ny, nz = dims
    out = np.zeros((len(coeffs), nx * ny * (nz // 2 + 1)), dtype=complex)
    out[:, index] = coeffs
    return out.reshape(len(coeffs), nx, ny, nz // 2 + 1)


@functools.lru_cache(maxsize=16)
def _line_plan(grid: GridSpec, index_bytes: bytes):
    """How `_samples_at` lays out the modes at the flat rfftn indices held in
    `index_bytes`: each mode's column (its (ky, kz) pair) among the distinct
    columns and its x index; each column's kz among the distinct kz, its y
    index, its kz index and its weight in a real z line's sum (1 on the kz =
    0 and Nyquist planes, else 2, over Ny Nz); those kz; then i k along x
    per mode and along y and z per column, each 0 on its axis's Nyquist
    mode (whose derivative a real periodic line drops)."""
    nx, ny, nz = grid.dims
    half = nz // 2 + 1
    index = np.frombuffer(index_bytes, dtype=np.intp)
    mx, my, mz = np.unravel_index(index, (nx, ny, half))
    cols, col = np.unique(my * half + mz, return_inverse=True)
    cy, cz = cols // half, cols % half
    kzs, col_kz = np.unique(cz, return_inverse=True)
    weight = np.where((cz == 0) | (2 * cz == nz), 1.0, 2.0) / (ny * nz)
    ik = [1j * np.where(2 * np.abs(n[i]) == d, 0.0, k[i]) for n, k, i, d in zip(
        _mode_numbers(grid.dims), _wavenumbers(grid.dims, grid.spacing), (mx, cy, cz),
        grid.dims)]
    plan = (col, mx, col_kz, cy, cz, kzs, weight), ik
    for a in (*plan[0], *ik):
        a.flags.writeable = False  # shared by every caller through the cache
    return plan


def _samples_at(coeffs: np.ndarray, index: np.ndarray, grid: GridSpec, nodes: np.ndarray,
                slopes: int = 0):
    """(r, len(nodes)) samples at the flat node indices `nodes` of the r half
    spectra that hold the (r, n) `coeffs` at the distinct flat rfftn indices
    `index` of `grid` and 0 elsewhere, and the (3, slopes, len(nodes))
    spectral gradient there of the last `slopes` of them.

    The samples are bit for bit their irfftn's: numpy's own irfftn stages
    (ifft on axis 0, then on axis 1, then irfft on axis 2) run on the same
    lines, but only on those that reach the nodes: the x lines of the
    columns that hold a mode, the y lines through each node's x at each kz
    that holds one, and the z line through each node's (x, y).  Gradients
    need not match a transform bit for bit: d/dx takes i k_x before the x
    stage, d/dy and d/dz take i k per column after it, and each node's sum
    over its columns' y and z phases is one small product.
    """
    (col, mx, col_kz, cy, cz, kzs, weight), (ikx, iky, ikz) = _line_plan(
        grid, np.asarray(index, np.intp).tobytes())
    nx, ny, nz = grid.dims
    nodes, back = np.unique(nodes, return_inverse=True)
    px, py, pz = np.unravel_index(nodes, grid.dims)
    xs, at_x = np.unique(px, return_inverse=True)
    p = np.arange(len(nodes))
    rows, tail = len(coeffs), slice(len(coeffs) - slopes, len(coeffs))
    a = np.zeros((rows + slopes, len(cy), nx), dtype=complex)
    a[:rows, col, mx] = coeffs
    a[rows:, col, mx] = ikx * coeffs[tail]
    a = np.fft.ifft(a, axis=-1)[..., xs]  # (rows + slopes, columns, the nodes' x)
    b = np.zeros((rows, len(kzs), len(xs), ny), dtype=complex)
    b[:, col_kz, :, cy] = a[:rows].transpose(1, 0, 2)
    b = np.fft.ifft(b, axis=-1)[:, :, at_x, py]  # (rows, kz, nodes)
    c = np.zeros((rows, len(nodes), nz // 2 + 1), dtype=complex)
    c[..., kzs] = b.transpose(0, 2, 1)
    out = np.fft.irfft(c, n=nz, axis=-1)[:, p, pz][:, back]
    if not slopes:
        return out, None
    g = a[..., at_x]  # (rows + slopes, columns, nodes)
    g = np.concatenate([g[rows:], iky[:, None] * g[tail], ikz[:, None] * g[tail]])
    phase = weight[:, None] * np.exp(2j * np.pi * (np.outer(cy, py) % ny / ny
                                                   + np.outer(cz, pz) % nz / nz))
    return out, np.einsum("rcp,cp->rp", g, phase).real[:, back].reshape(3, slopes, -1)


def _roots(modes: np.ndarray, n: int) -> np.ndarray:
    """(n, len(modes)) table exp(2 pi i x m / n) / n over the nodes x, its
    phases reduced to the exact roots of unity (x m mod n) / n first."""
    return np.exp(2j * np.pi * (np.outer(np.arange(n), modes) % n / n)) / n


def _synthesize(block: np.ndarray, modes, dims) -> np.ndarray:
    """Samples on `dims` nodes of the half spectrum that holds `block`,
    shape (..., mx, my, mz), at the integer modes modes = (nx, ny, nz) and
    is zero elsewhere: its irfftn, for |nx|, |ny| below half the node count
    and nz = 0, 1, ..., mz - 1.

    A band-limited spectrum fills a small block of the rfftn array, so the
    x and y transforms are two mode-by-node products and only the z
    transform, one batched irfft, runs over every node.
    """
    nx, ny, _ = modes
    # einsum, not matmul: BLAS would wake a second thread whose spin-wait
    # after each small product doubles the CPU time
    g = np.einsum("yj,...ijz->...iyz", _roots(ny, dims[1]), block)
    g = np.einsum("xi,...iyz->...xyz", _roots(nx, dims[0]), g)
    return np.fft.irfft(g, n=dims[2], axis=-1)


def _refine(data: np.ndarray, grid: GridSpec, fine: GridSpec) -> np.ndarray:
    """Samples on `fine` of the band-limited (Nx, Ny, Nz) array `data` on
    `grid`, a coarser grid of the same box: its rfftn, synthesised there.

    Modes at or above half of the coarse node count are dropped, so the
    data should have none.
    """
    modes = _mode_numbers(grid.dims)
    keep = [np.flatnonzero(2 * np.abs(m) < n) for m, n in zip(modes, grid.dims)]
    block = np.fft.rfftn(data)[np.ix_(*keep)] * (fine.num_nodes / grid.num_nodes)
    return _synthesize(block, [m[k] for m, k in zip(modes, keep)], fine.dims)


def volume_integral(s: ScalarField) -> float:
    """cell volume times the pairwise sum of all nodes, in fixed C order.

    numpy's pairwise summation over a contiguous buffer is deterministic for
    a given shape, which makes every reported integral reproducible across
    runs and thread counts.
    """
    return float(s.grid.cell_volume * np.sum(s.data.ravel(order="C")))
