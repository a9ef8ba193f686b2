import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_ops import spectral_curl, zero_padded_refine
from twopoint.errors import InvalidMap
from twopoint.grid import (
    AffineMap,
    FieldState,
    GridSpec,
    ScalarField,
    VectorField,
    _refine,
    divergence,
    pullback,
    volume_integral,
)
from twopoint.laws import _stack6
from twopoint.maxwell import cfl_max_dt


@pytest.fixture
def grid():
    return GridSpec.cube(1.0, 16)


def sine_x_field(grid, axis=0, component=0):
    """component-hat * sin(2 pi x_axis / L_axis)."""
    x = grid.meshgrid()[axis]
    L = grid.lengths[axis]
    data = np.zeros((3, *grid.dims))
    data[component] = np.sin(2.0 * np.pi * x / L)
    return VectorField(grid, data, copy=False)


def random_band_limited_vector(grid, seed, kmax=2):
    rng = np.random.default_rng(seed)
    shape = (3, *grid.dims)
    spec = np.zeros((3, grid.dims[0], grid.dims[1], grid.dims[2]), dtype=complex)
    full = np.fft.fftn(rng.standard_normal(shape), axes=(-3, -2, -1))
    nx = np.fft.fftfreq(grid.dims[0]) * grid.dims[0]
    ny = np.fft.fftfreq(grid.dims[1]) * grid.dims[1]
    nz = np.fft.fftfreq(grid.dims[2]) * grid.dims[2]
    mask = (
        (np.abs(nx)[:, None, None] <= kmax)
        & (np.abs(ny)[None, :, None] <= kmax)
        & (np.abs(nz)[None, None, :] <= kmax)
    )
    spec[:, mask] = full[:, mask]
    data = np.real(np.fft.ifftn(spec, axes=(-3, -2, -1)))
    return VectorField(grid, data, copy=False)


class TestGridSpec:
    def test_extents(self, grid):
        assert grid.lengths == (1.0, 1.0, 1.0)
        assert grid.cell_volume == pytest.approx((1.0 / 16) ** 3)
        assert grid.volume == pytest.approx(1.0)

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            GridSpec((2, 16, 16), (0.1, 0.1, 0.1))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            GridSpec((8, 8, 8), (0.1, -0.1, 0.1))

    @settings(derandomize=True, max_examples=300)
    @given(spacing=st.tuples(*[st.one_of(st.floats(), st.floats(1e-170, 1e-140),
                                         st.floats(1e100, 1e160))] * 3))
    def test_accepted_spacings_keep_the_cfl_limit_and_volumes_in_range(self, spacing):
        try:
            g = GridSpec((8, 8, 8), spacing)
        except ValueError:  # only spacings far outside [1e-100, 1e50] are rejected
            assert not all(1e-100 <= h <= 1e50 for h in spacing)
            return
        assert 0.0 < cfl_max_dt(g, "spectral") < np.inf
        assert 0.0 < g.cell_volume and g.volume < np.inf


class TestFields:
    def test_vector_field_shape_check(self, grid):
        with pytest.raises(ValueError):
            VectorField(grid, np.zeros((3, 4, 4, 4)))

    def test_rejects_nan(self, grid):
        data = np.zeros((3, *grid.dims))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            VectorField(grid, data)

    def test_immutable(self, grid):
        f = VectorField.zeros(grid)
        with pytest.raises(ValueError):
            f.data[0, 0, 0, 0] = 1.0

    def test_field_state_is_one_stacked_array(self, grid):
        e = sine_x_field(grid, axis=1, component=2)
        b = sine_x_field(grid, axis=0, component=1)
        state = FieldState(e, b, 0.25)
        assert state.data.shape == (6, *grid.dims) and state.data.flags.c_contiguous
        assert np.array_equal(state.data, np.concatenate([e.data, b.data]))
        assert not np.shares_memory(state.data, e.data)  # one copy, owned by the state
        assert np.shares_memory(state.E.data, state.data)
        assert np.shares_memory(state.B.data, state.data)
        for arr in (state.data, state.E.data, state.B.data):
            assert not arr.flags.writeable
        assert _stack6(state) is state.data

    def test_field_state_from_data_adopts_the_array(self, grid):
        data = np.zeros((6, *grid.dims))
        state = FieldState.from_data(grid, data, 0.0)
        assert state.data is data and not data.flags.writeable
        assert state.B.grid == grid and state.B.data.shape == (3, *grid.dims)
        with pytest.raises(ValueError):
            FieldState.from_data(grid, np.zeros((3, *grid.dims)), 0.0)
        with pytest.raises(ValueError):
            FieldState.from_data(grid, np.zeros((6, *grid.dims)), np.inf)


def signed_permutations():
    """The 48 symmetries of the cube's axes: permutation matrices with signs."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            a = np.zeros((3, 3))
            a[range(3), perm] = signs
            out.append(a)
    return out


SIGNED_PERMUTATIONS = signed_permutations()
CUBE16 = GridSpec.cube(1.0, 16)
H16 = CUBE16.spacing[0]

# a shift in node units per axis: whole nodes, or whole nodes plus a fraction
node_shifts = st.one_of(
    st.tuples(*[st.integers(-40, 40)] * 3).map(lambda n: (np.array(n, float), True)),
    st.tuples(*[st.floats(-40.0, 40.0).filter(lambda x: abs(x - round(x)) > 1e-3)] * 3)
    .map(lambda n: (np.array(n), False)),
)


class TestAffineMap:
    def test_rejects_singular(self):
        with pytest.raises(InvalidMap):
            AffineMap(tuple(np.zeros(9)), (0.0, 0.0, 0.0))

    def test_grid_exact_requires_signed_permutation(self):
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        rotation_30 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        shear = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for a in (0.5 * np.eye(3), rotation_30, shear):
            with pytest.raises(InvalidMap):
                AffineMap(tuple(a.ravel()), (0.0, 0.0, 0.0))
        with pytest.raises(InvalidMap):
            AffineMap(tuple(np.eye(3).ravel()), (0.0, np.inf, 0.0))

    def test_quarter_turn_is_proper(self):
        for axis in range(3):
            r = AffineMap.quarter_turn(axis).alpha_matrix
            assert np.linalg.det(r) == pytest.approx(1.0)
            assert np.allclose(r @ r.T, np.eye(3))

    def test_inverse_round_trip(self):
        m = AffineMap.quarter_turn(2, 1)
        comp = m.inverse().alpha_matrix @ m.alpha_matrix
        assert np.allclose(comp, np.eye(3))
        assert len({tuple(a.ravel()) for a in SIGNED_PERMUTATIONS}) == 48
        for a in SIGNED_PERMUTATIONS:
            m = AffineMap(tuple(a.ravel()), (0.1, -2.0, 7.5))
            assert np.array_equal(m.inverse().alpha_matrix @ m.alpha_matrix, np.eye(3))
            assert np.array_equal(m.inverse().beta_vector, -a.T @ m.beta_vector)


class TestPullback:
    def test_identity_bit_exact(self, grid):
        f = random_band_limited_vector(grid, seed=1)
        g = pullback(f, AffineMap.identity())
        assert np.array_equal(g.data, f.data)

    def test_inversion_maps_nodes(self, grid):
        f = random_band_limited_vector(grid, seed=2)
        g = pullback(f, AffineMap.inversion())
        n = grid.dims[0]
        idx = (-np.arange(n)) % n
        expected = f.data[:, idx][:, :, idx][:, :, :, idx]
        assert np.array_equal(g.data, expected)

    def test_inversion_involution_bit_exact(self, grid):
        f = random_band_limited_vector(grid, seed=3)
        inv = AffineMap.inversion()
        g = pullback(pullback(f, inv), inv)
        assert np.array_equal(g.data, f.data)

    def test_fourier_half_box_shift_flips_sine(self, grid):
        f = sine_x_field(grid)
        m = AffineMap.translation((0.5, 0.0, 0.0))
        g = pullback(f, m)
        assert np.max(np.abs(g.data + f.data)) < 1e-12

    def test_grid_exact_round_trip(self, grid):
        f = random_band_limited_vector(grid, seed=4)
        m = AffineMap.node_translation(grid, (3, -5, 7))
        g = pullback(pullback(f, m), m.inverse())
        assert np.array_equal(g.data, f.data)

    def test_interpolated_round_trip_band_limited(self, grid):
        f = random_band_limited_vector(grid, seed=5, kmax=3)
        m = AffineMap.translation((0.13, 0.0, 0.0))
        g = pullback(pullback(f, m), m.inverse())
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(g.data - f.data)) < 1e-10 * scale

    def test_non_node_beta_evaluated_through_interpolant(self, grid):
        # sin(2 pi x) is band limited, so its interpolant is exact off the nodes
        m = AffineMap.translation((0.013, 0.0, 0.0))
        g = pullback(sine_x_field(grid), m)
        x = grid.meshgrid()[0]
        assert np.max(np.abs(g.data[0] - np.sin(2.0 * np.pi * (x + 0.013)))) < 1e-12
        assert np.all(g.data[1:] == 0.0)

    def test_shift_taken_modulo_the_box(self):
        g = GridSpec.cube(1.1, 16)
        f = random_band_limited_vector(g, seed=6, kmax=3)
        h, L = g.spacing[0], g.lengths[0]
        # whole boxes added to a whole-node shift leave the gather unchanged
        near = pullback(f, AffineMap.translation((3 * h, -2 * h, 0.0)))
        far = pullback(f, AffineMap.translation((3 * h + 5 * L, -2 * h - 7 * L, 0.0)))
        assert np.array_equal(far.data, near.data)
        # a huge finite shift is reduced to its place in the box first
        huge = pullback(f, AffineMap.translation((1e308, 0.0, 0.0)))
        inside = AffineMap.translation((float(np.remainder(1e308, L)), 0.0, 0.0))
        assert np.array_equal(huge.data, pullback(f, inside).data)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(index=st.integers(0, 47), shift=node_shifts)
    def test_round_trip_every_symmetry(self, index, shift):
        nodes, whole = shift
        f = random_band_limited_vector(CUBE16, seed=15, kmax=3)
        m = AffineMap(tuple(SIGNED_PERMUTATIONS[index].ravel()), tuple(nodes * H16))
        g = pullback(pullback(f, m), m.inverse())
        if whole:
            assert np.array_equal(g.data, f.data)
        else:
            assert np.max(np.abs(g.data - f.data)) <= 1e-10 * np.max(np.abs(f.data))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(index=st.integers(0, 47), shift=node_shifts)
    def test_pullback_matches_closed_form(self, index, shift):
        # f_c(x) = sum over modes of amp cos(k . x + phase), evaluated at alpha x + beta
        rng = np.random.default_rng(16)
        modes = 2.0 * np.pi * rng.integers(-3, 4, size=(5, 3))  # k for L = 1
        amp = rng.standard_normal((3, 5))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, 5))

        def closed_form(points):  # points: (3, Nx, Ny, Nz)
            arg = np.einsum("mi,i...->m...", modes, points)
            return np.stack([
                sum(amp[c, m] * np.cos(arg[m] + phase[c, m]) for m in range(5))
                for c in range(3)
            ])

        nodes, _ = shift
        a = SIGNED_PERMUTATIONS[index]
        beta = nodes * H16
        x = np.stack(CUBE16.meshgrid())
        f = VectorField(CUBE16, closed_form(x))
        g = pullback(f, AffineMap(tuple(a.ravel()), tuple(beta)))
        y = np.einsum("ij,j...->i...", a, x) + beta[:, None, None, None]
        assert np.max(np.abs(g.data - closed_form(y))) <= 1e-12


class TestDifferentialOperators:
    def test_divergence_of_constant_is_zero(self, grid):
        data = np.ones((3, *grid.dims))
        d = divergence(VectorField(grid, data))
        assert np.max(np.abs(d.data)) <= 1e-13

    def test_divergence_of_sine(self, grid):
        f = sine_x_field(grid)
        L = grid.lengths[0]
        x = grid.meshgrid()[0]
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        d = divergence(f)
        assert np.max(np.abs(d.data - expected)) <= 1e-10 * np.max(np.abs(expected))

    # the curl tests check the spectral-curl oracle that the law and
    # stepper tests take from field_ops
    def test_curl_of_gradient_type_field_vanishes(self, grid):
        f = sine_x_field(grid)  # x-only x-component
        c = spectral_curl(f)
        assert np.max(np.abs(c)) <= 1e-10

    def test_curl_of_sine_y_component(self, grid):
        f = sine_x_field(grid, axis=0, component=1)  # sin(2 pi x) y-hat
        c = spectral_curl(f)
        x = grid.meshgrid()[0]
        expected = 2 * np.pi * np.cos(2 * np.pi * x)
        assert np.max(np.abs(c[2] - expected)) <= 1e-10 * np.max(np.abs(expected))
        assert np.max(np.abs(c[:2])) <= 1e-10

    def test_curl_curl_identity(self, grid):
        v = random_band_limited_vector(grid, seed=9, kmax=3)
        cc = spectral_curl(VectorField(grid, spectral_curl(v)))
        # oracle: grad(div v) - laplacian v via direct FFT algebra
        kx = 2 * np.pi * np.fft.fftfreq(grid.dims[0], grid.spacing[0])[:, None, None]
        ky = 2 * np.pi * np.fft.fftfreq(grid.dims[1], grid.spacing[1])[None, :, None]
        kz = 2 * np.pi * np.fft.rfftfreq(grid.dims[2], grid.spacing[2])[None, None, :]
        vh = np.fft.rfftn(v.data, axes=(-3, -2, -1))
        div = 1j * (kx * vh[0] + ky * vh[1] + kz * vh[2])
        k2 = kx**2 + ky**2 + kz**2
        gh = np.stack([1j * kx * div, 1j * ky * div, 1j * kz * div]) + k2 * vh
        expected = np.fft.irfftn(gh, s=grid.dims, axes=(-3, -2, -1))
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(cc - expected)) <= 1e-10 * scale

    def test_divergence_of_curl_vanishes(self, grid):
        v = random_band_limited_vector(grid, seed=10, kmax=3)
        d = divergence(VectorField(grid, spectral_curl(v)))
        scale = np.max(np.abs(v.data))
        assert np.max(np.abs(d.data)) <= 1e-10 * scale


class TestVolumeIntegral:
    def test_unit_box(self, grid):
        s = ScalarField(grid, np.ones(grid.dims))
        assert volume_integral(s) == pytest.approx(1.0, rel=1e-14)

    def test_periodic_sine_integrates_to_zero(self, grid):
        x = grid.meshgrid()[0]
        s = ScalarField(grid, np.sin(2 * np.pi * x))
        assert abs(volume_integral(s)) <= 1e-12 * grid.num_nodes

    def test_sine_squared(self, grid):
        x = grid.meshgrid()[0]
        s = ScalarField(grid, np.sin(2 * np.pi * x) ** 2)
        assert volume_integral(s) == pytest.approx(0.5, rel=1e-12)

    def test_invariant_under_grid_exact_pullback(self, grid):
        f = random_band_limited_vector(grid, seed=11)
        s = ScalarField(grid, np.einsum("i...,i...->...", f.data, f.data))
        m = AffineMap.quarter_turn(2, 1)
        s2 = pullback(s, m)
        q1, q2 = volume_integral(s), volume_integral(s2)
        assert abs(q1 - q2) <= 1e-13 * abs(q1)


class TestRotationIdentity:
    """R(a x b) = (Ra) x (Rb) pointwise for the quarter turns: the identity
    behind the rotation law's flux, which holds only for det R = +1."""

    @pytest.mark.parametrize("axis,quarters", [(0, 1), (1, 1), (2, 1), (2, 2), (1, 3)])
    def test_signed_permutation_rotations(self, grid, axis, quarters):
        r = AffineMap.quarter_turn(axis, quarters).alpha_matrix
        a = random_band_limited_vector(grid, seed=13)
        b = random_band_limited_vector(grid, seed=14)

        def rotate(v):
            return np.einsum("ij,j...->i...", r, v)

        lhs = rotate(np.cross(a.data, b.data, axis=0))
        rhs = np.cross(rotate(a.data), rotate(b.data), axis=0)
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(scale, 1.0)


@pytest.mark.parametrize("coarse,fine,lengths", [
    ((10, 10, 10), (64, 64, 64), (1.0, 1.0, 1.0)),
    ((6, 8, 10), (16, 12, 20), (1.6, 2.4, 1.0)),
    ((5, 7, 9), (15, 13, 17), (1.5, 1.3, 1.7)),
], ids=["cube", "non-cubic", "odd-axes"])
def test_refine_matches_the_zero_padded_oracle(coarse, fine, lengths):
    # the synthesis kernel evaluates the same trigonometric interpolant as
    # zero padding plus a dense irfftn, from the coarse modes' block alone
    g, fg = (GridSpec(d, tuple(L / n for L, n in zip(lengths, d))) for d in (coarse, fine))
    data = np.random.default_rng(11).standard_normal(coarse)
    oracle = zero_padded_refine(data, g, fg)
    assert np.max(np.abs(_refine(data, g, fg) - oracle)) <= 1e-15 * np.max(np.abs(oracle))


SOURCES = sorted((Path(__file__).parent.parent / "src" / "twopoint").glob("*.py"))
GRID_ONLY = {"_MASK_REL_TOL", "_sampled_modes"}


def spectrum_knowledge(path):
    """(line, what) for every `.spectrum` attribute a source file touches,
    every `vars(` call (which would tell a state that holds samples from a
    lazy one) and every definition of a name in GRID_ONLY."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "spectrum":
            yield node.lineno, ".spectrum"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "vars"):
            yield node.lineno, "vars("
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in GRID_ONLY:
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, t.id) for t in targets
                        if isinstance(t, ast.Name) and t.id in GRID_ONLY)


def test_sources_are_found():
    assert "grid.py" in {p.name for p in SOURCES} and len(SOURCES) > 5


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_only_grid_knows_how_a_state_holds_its_modes(path):
    # every other module reaches a state's modes through `coefficients()` and
    # asks `held_samples()` whether it holds samples
    assert list(spectrum_knowledge(path)) == []


def reads_a_file(call: ast.Call) -> bool:
    """Whether a call is `open(` in a mode that reads (any but a constant
    "w", "a" or "x" without "+"), or a `.open(`, `.read_text(` or `.read_bytes(`."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("open", "read_text", "read_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax")
                and "+" not in mode.value)


def file_reads(path):
    """(module, enclosing definition, line) of every call in a source file
    that reads a file."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and reads_a_file(child):
                yield path.name, ".".join(scope), child.lineno
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text(), str(path)), ())


def test_only_config_load_reads_a_file():
    # configs and law files share one parser, its UTF-8 decoding and its
    # checks; the writers (`write_csv`, `save_law`, `harness._report`) open "w"
    reads = [read for path in SOURCES for read in file_reads(path)]
    assert [read[:2] for read in reads] == [("laws.py", "Config.load")], reads
