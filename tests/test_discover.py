import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from field_ops import whole_grid_rows
from test_maxwell import counted_ffts

import twopoint.discover as discover
import twopoint.grid as grid_module
import twopoint.laws as laws_module
from twopoint.discover import MIN_ENSEMBLE, SVD_REL_TOL, _rows_for_step, discover_laws
from twopoint.errors import GridMismatch, InsufficientData
from twopoint.grid import AffineMap, FieldState, GridSpec, spectral_wavevectors
from twopoint.laws import (
    TwoPointLawSpec,
    _pulled6,
    _stack6,
    law_inversion,
    law_local_energy,
    law_of_map,
    law_symmetry,
    residual,
)
from twopoint.maxwell import Trajectory, UniformOscillating, ZeroCurrent, evolve
from twopoint.waves import PlaneWaveSpec, plane_wave, random_band_limited

GRID = GridSpec.cube(1.0, 16)
DT_PROBE = 1.5e-5


def make_ensemble(n_members, base_seed=100, kmax=2, grid=GRID):
    out = []
    for i in range(n_members):
        s = random_band_limited(grid, seed=base_seed + i, kmax=kmax)
        out.append(evolve(s, ZeroCurrent(), DT_PROBE, 4))
    return out


@pytest.fixture(scope="module")
def ensemble():
    return make_ensemble(24)


def corrupted(law):
    """Sign-flipped flux: a plausible-looking but wrong law."""
    return TwoPointLawSpec(law.map, law.time_shift_steps, law.W, -law.K,
                          law.source, label="corrupted")


class TestIdentityMap:
    def test_recovers_local_energy_law(self, ensemble):
        result = discover_laws(ensemble, AffineMap.identity(), seed=5)
        assert len(result.candidates) >= 2  # energy law + degenerate directions
        assert result.projection_of(law_local_energy()) >= 0.999

    def test_corrupted_law_is_outside(self, ensemble):
        result = discover_laws(ensemble, AffineMap.identity(), seed=5)
        assert result.projection_of(corrupted(law_local_energy())) <= 0.5

    def test_candidates_are_unit_norm_and_verified(self, ensemble):
        result = discover_laws(ensemble, AffineMap.identity(), seed=5)
        for c in result.candidates:
            assert np.linalg.norm(c.law.as_vector()) == pytest.approx(1.0, abs=1e-12)
            assert c.holdout_max_r <= 10.0 * result.reference_max_r

    def test_singular_value_gap(self, ensemble):
        result = discover_laws(ensemble, AffineMap.identity(), seed=5)
        s = result.singular_values
        kept = s[s <= 1e-6 * s[0]]
        dropped = s[s > 1e-6 * s[0]]
        assert np.max(kept) <= 1e-2 * np.min(dropped)
        assert result.singular_gap == np.min(dropped) / np.max(kept)


class TestInversionMap:
    def test_recovers_exotic_law(self, ensemble):
        result = discover_laws(ensemble, AffineMap.inversion(), seed=7)
        assert result.projection_of(law_inversion()) >= 0.999

    def test_corrupted_exotic_is_outside(self, ensemble):
        result = discover_laws(ensemble, AffineMap.inversion(), seed=7)
        assert result.projection_of(corrupted(law_inversion())) <= 0.5

    def test_companion_law_also_recovered(self, ensemble):
        # the inversion map carries a second quadratic law:
        # rho = E.E~ - B.B~ with flux B~ x E - B x E~
        result = discover_laws(ensemble, AffineMap.inversion(), seed=7)
        w = np.zeros((6, 6))
        w[:3, :3] = np.eye(3)
        w[3:, 3:] = -np.eye(3)
        levi = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            levi[i, j, k] = 1.0
            levi[i, k, j] = -1.0
        k_t = np.zeros((3, 6, 6))
        k_t[:, :3, 3:] = np.transpose(levi, (0, 2, 1))  # (B~ x E)_i = eps_ijk E_k B~_j
        k_t[:, 3:, :3] = -levi  # -(B x E~)_i = -eps_ijk B_j E~_k
        companion = TwoPointLawSpec(AffineMap.inversion(), 0, w, k_t, np.zeros((6, 6)))
        assert result.projection_of(companion) >= 0.99

    def test_resampling_robustness(self):
        # different draws and shuffled order recover the same subspace
        r1 = discover_laws(make_ensemble(22, base_seed=300), AffineMap.inversion(), seed=1)
        shuffled = make_ensemble(22, base_seed=500)
        shuffled = shuffled[::-1]
        r2 = discover_laws(shuffled, AffineMap.inversion(), seed=2)
        assert len(r1.candidates) == len(r2.candidates)
        for c in r1.candidates:
            assert r2.projection_of(c.law) >= 0.999


def _signed(perm, signs, beta=(0.0, 0.0, 0.0)):
    alpha = np.eye(3)[list(perm)] * np.array(signs, dtype=float)[:, None]
    return AffineMap(tuple(alpha.ravel()), beta)


H = GRID.spacing[0]
ROTATION_Z = AffineMap.quarter_turn(2).alpha_matrix


class TestEveryBoxSymmetry:
    # maps no shipped constructor covers: both branches of the group, and
    # shifted or time-shifted maps
    @pytest.mark.parametrize("amap,m", [
        (_signed((0, 1, 2), (-1, 1, 1)), 0),  # mirror x
        (_signed((1, 0, 2), (1, 1, 1)), 0),  # the x <-> y swap
        (AffineMap(tuple((-ROTATION_Z).ravel()), (0.0, 0.0, 0.0)), 0),  # -R_z
        (AffineMap(tuple(ROTATION_Z.ravel()), (3 * H, 0.0, 5 * H)), 0),
        (AffineMap(tuple((-np.eye(3)).ravel()), (0.13, 0.4, 0.0)), 1),
    ], ids=["mirror-x", "swap-xy", "minus-rz", "shifted-rz", "shifted-inversion-m1"])
    def test_recovers_law_symmetry(self, ensemble, amap, m):
        result = discover_laws(ensemble, amap, m, seed=7)
        assert len(result.candidates) == 8
        assert result.projection_of(law_symmetry(amap, m)) >= 0.999


def spy(monkeypatch):
    """Discovery's `_rows_for_step` calls, as (args, rows), and its SVDs, as
    (u, s, vh), from now on: the last rows are the hold-out's."""
    calls = {"rows": [], "svd": []}
    rows_for_step, svd = discover._rows_for_step, np.linalg.svd

    def rows(*args):
        calls["rows"].append((args, rows_for_step(*args)))
        return calls["rows"][-1][1]

    def factor(*args, **kwargs):
        calls["svd"].append(svd(*args, **kwargs))
        return calls["svd"][-1]

    monkeypatch.setattr(discover, "_rows_for_step", rows)
    monkeypatch.setattr(np.linalg, "svd", factor)
    return calls


def screened(calls, result):
    """(144, k + 1): the near-null directions discovery screened, smallest
    singular value first, then the map's own law."""
    ((_, s, vh),) = calls["svd"]
    order = np.flatnonzero(s <= SVD_REL_TOL * s[0])[::-1]
    return np.hstack([vh[order].T, result.reference.as_vector()[:, None]])


def whole_grid_max_r(traj, amap, m, v):
    """(steps, k): max |r| over every node of each interior step, per column
    of v, from the whole-grid rows."""
    return np.array([np.max(np.abs(whole_grid_rows(traj, amap, m, n) @ v), axis=0)
                     for n in range(1, len(traj) - 1 - m)])


def assert_reference_is_sampled(holdout, result, calls):
    """The map's law's whole-grid max |r| on the hold-out is its balance
    residual's; the reported one is the whole-grid rows' max at the
    hold-out's sampled steps and points, so no larger."""
    (traj, amap, m, steps, points), held = calls["rows"][-1]
    assert traj is holdout and len(held) == result.holdout_rows
    assert list(steps) == list(range(1, len(holdout) - 1 - m))  # every interior step
    assert len(points) == -(-discover.HOLDOUT_ROWS // len(steps))
    r = [np.abs(whole_grid_rows(holdout, amap, m, n) @ result.reference.as_vector())
         for n in steps]
    whole = max(x.max() for x in r)
    assert whole == pytest.approx(residual(holdout, result.reference).max_r, rel=1e-5)
    sampled = max(x[points].max() for x in r)
    assert result.reference_max_r == pytest.approx(sampled, rel=1e-9)
    assert sampled <= whole


def rows_from_full_products(traj, amap, m, n, points):
    """Reference rows: products P_ab on the whole grid, differentiated by FFT."""
    grid = traj.grid

    def products(i):
        f = _stack6(traj.states[i])
        g = _pulled6(traj.states[i + m], amap)
        return np.einsum("a...,b...->ab...", f, g).reshape(36, *grid.dims)

    dp = (products(n + 1) - products(n - 1)) / (2.0 * traj.dt)
    ph = np.fft.rfftn(products(n), axes=(-3, -2, -1))
    grad = np.stack([
        np.fft.irfftn(1j * k * ph, s=grid.dims, axes=(-3, -2, -1))
        for k in spectral_wavevectors(grid)
    ])
    return np.concatenate(
        [dp.reshape(36, -1)[:, points].T, grad.reshape(108, -1)[:, points].T], axis=1
    )


SUB_NODE_RZ = AffineMap(tuple(ROTATION_Z.ravel()), (0.37 * H, 0.0, 5.2 * H))
SIGNED_PERMUTATIONS = [_signed(perm, signs) for perm in itertools.permutations(range(3))
                       for signs in itertools.product((1, -1), repeat=3)]


class TestPointSampledRows:
    # kmax = 2 throughout: products are alias free (2 kmax < N/2) on every axis
    @pytest.mark.parametrize("dims,amap,m", [
        ((16, 16, 16), AffineMap.identity(), 0),
        ((16, 16, 16), AffineMap.inversion(), 0),
        ((16, 16, 16), AffineMap.quarter_turn(2), 0),
        ((16, 16, 16), SUB_NODE_RZ, 0),
        ((16, 16, 16), AffineMap.inversion(), 1),
        ((16, 16, 12), AffineMap.quarter_turn(2), 0),
        ((12, 16, 20), AffineMap.inversion(), 0),
    ], ids=["identity", "inversion", "quarter-turn", "sub-node-rz", "inversion-m1",
            "16x16x12-rz", "12x16x20-inversion"])
    def test_product_rule_matches_full_grid_products(self, ensemble, dims, amap, m):
        if dims == GRID.dims:
            traj = ensemble[0]
        else:
            grid = GridSpec(dims, tuple(1.0 / n for n in dims))
            traj = make_ensemble(1, base_seed=40, grid=grid)[0]
        points = np.random.Generator(np.random.PCG64(3)).choice(traj.grid.num_nodes, 8,
                                                                replace=False)
        for n in range(1, len(traj) - 1 - m):
            new = _rows_for_step(traj, amap, m, n, points)
            old = rows_from_full_products(traj, amap, m, n, points)
            assert np.array_equal(new[:, :36], old[:, :36])
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(index=st.integers(0, 47), beta=st.sampled_from(["zero", "node", "sub-node"]),
           m=st.integers(0, 1), n=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_sampled_rows_are_the_whole_grid_rows_at_the_points(self, ensemble, index, beta,
                                                                 m, n, seed):
        # the grid lines through the points give the rows the whole-grid
        # products give there, for every symmetry of the box
        shift = {"zero": (0.0, 0.0, 0.0), "node": (3 * H, -H, 7 * H),
                 "sub-node": (0.4 * H, 2.7 * H, -0.1 * H)}[beta]
        amap = AffineMap(SIGNED_PERMUTATIONS[index].alpha, shift)
        traj = ensemble[index % 4]
        points = np.random.Generator(np.random.PCG64(seed)).choice(GRID.num_nodes, 8,
                                                                   replace=False)
        sampled = _rows_for_step(traj, amap, m, n, points)
        whole = whole_grid_rows(traj, amap, m, n)[points]
        assert np.array_equal(sampled[:, :36], whole[:, :36])
        assert np.max(np.abs(sampled - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("amap", [AffineMap.identity(), AffineMap.inversion()],
                             ids=["local-energy", "inversion"])
    def test_holdout_reference_is_its_max_over_the_sampled_rows(self, monkeypatch, ensemble,
                                                                 amap):
        calls = spy(monkeypatch)
        result = discover_laws(ensemble, amap, seed=3)
        assert_reference_is_sampled(ensemble[-1], result, calls)


class TestValidation:
    def test_small_ensemble_rejected(self):
        with pytest.raises(InsufficientData):
            discover_laws(make_ensemble(2), AffineMap.identity())

    def test_sourced_ensemble_rejected(self, ensemble):
        s = random_band_limited(GRID, seed=9, kmax=1)
        j = UniformOscillating((0.1, 0.0, 0.0), omega=1.0)
        bad = list(ensemble[:-1]) + [evolve(s, j, DT_PROBE, 4)]
        with pytest.raises(InsufficientData):
            discover_laws(bad, AffineMap.identity())

    def test_short_trajectory_rejected(self):
        members = make_ensemble(20)
        s = random_band_limited(GRID, seed=10, kmax=1)
        members[3] = evolve(s, ZeroCurrent(), DT_PROBE, 1)
        with pytest.raises(InsufficientData):
            discover_laws(members, AffineMap.identity())

    def test_negative_shift_rejected(self, ensemble):
        with pytest.raises(ValueError):
            discover_laws(ensemble, AffineMap.identity(), -1)

    def test_zero_fields_rejected(self):
        members = [evolve(random_band_limited(GRID, seed=i, kmax=1, amplitude=0.0),
                          ZeroCurrent(), DT_PROBE, 4) for i in range(MIN_ENSEMBLE)]
        with pytest.raises(InsufficientData, match="identically zero"):
            discover_laws(members, AffineMap.identity())

    @pytest.mark.parametrize("amap,near_null", [(AffineMap.inversion(), 140),
                                                (AffineMap.identity(), 142)],
                             ids=["inversion", "identity"])
    def test_directions_the_holdout_refutes_are_dropped(self, monkeypatch, amap, near_null):
        # z-travelling plane waves leave most of (W, K) unconstrained; a
        # random hold-out refutes every such direction against the map's law
        members = []
        for i, amplitude in enumerate(np.linspace(1.0, 3.2, 23)):
            spec = PlaneWaveSpec(amplitude, 2 * np.pi * (i % 3 + 1), direction=(-1) ** i)
            members.append(evolve(plane_wave(spec, GRID, 0.01 * i), ZeroCurrent(), DT_PROBE, 4))
        members.append(make_ensemble(1, base_seed=5)[0])
        calls = spy(monkeypatch)
        result = discover_laws(members, amap)
        r = np.max(np.abs(calls["rows"][-1][1] @ screened(calls, result)), axis=0)
        assert len(r) == near_null + 1 and r[-1] == result.reference_max_r > 0.0
        assert np.all(r[:-1] > 10.0 * result.reference_max_r)
        assert result.candidates == []

    @pytest.mark.parametrize("amap,m", [
        (AffineMap.identity(), 0),
        (AffineMap.inversion(), 0),
        (AffineMap.quarter_turn(2), 1),
        (_signed((0, 1, 2), (-1, 1, 1), (0.37 * H, 0.0, 2.6 * H)), 0),
    ], ids=["identity", "inversion", "quarter-turn-m1", "sub-node-mirror"])
    def test_sampled_screen_keeps_what_the_whole_grid_screen_kept(self, monkeypatch,
                                                                   ensemble, amap, m):
        calls = spy(monkeypatch)
        result = discover_laws(ensemble, amap, m, seed=7)
        v = screened(calls, result)
        r = whole_grid_max_r(ensemble[-1], amap, m, v).max(axis=0)
        kept = v[:, :-1].T[r[:-1] <= 10.0 * r[-1]]
        assert len(kept) == len(result.candidates) > 0
        assert np.array_equal(result.basis(), kept)

    @pytest.mark.parametrize("odd", [-1, 5], ids=["hold-out", "fit-member"])
    def test_member_on_another_grid_rejected(self, odd):
        members = make_ensemble(20, kmax=1, grid=GridSpec.cube(1.0, 8))
        members[odd] = make_ensemble(1, kmax=1, grid=GridSpec.cube(1.0, 12))[0]
        with pytest.raises(GridMismatch):
            discover_laws(members, AffineMap.inversion())


def synthesised_states(monkeypatch) -> list:
    """The lazy states whose samples are synthesised from now on, in order."""
    states = []
    first_read = FieldState.__getattr__

    def read(state, name):
        if state.spectrum is not None:
            states.append(state)
        return first_read(state, name)

    monkeypatch.setattr(FieldState, "__getattr__", read)
    return states


class TestWork:
    def test_no_state_is_synthesised_or_pulled_back(self, monkeypatch):
        # every member's rows, the hold-out's too, read their sampled nodes
        # from the coefficients of the lazy stepped states in one pass per
        # member, and a whole-node map neither pulls back nor transforms a state
        members = make_ensemble(24)  # unread, unlike the shared fixture
        synthesised = synthesised_states(monkeypatch)
        ffts = counted_ffts(monkeypatch)
        pullbacks = []

        def pull_array(data, grid, amap):
            pullbacks.append(data.shape)
            return original_pull(data, grid, amap)

        original_pull = grid_module._pull_array
        for module in (grid_module, laws_module):
            monkeypatch.setattr(module, "_pull_array", pull_array)
        calls = spy(monkeypatch)
        discover_laws(members, AffineMap.inversion(), seed=7)
        assert synthesised == []
        assert all(s.spectrum is not None for traj in members for s in traj.states[1:])
        assert pullbacks == [] and "rfftn" not in ffts
        assert [id(args[0]) for args, _ in calls["rows"]] == list(map(id, members))

    def test_a_read_ensemble_gives_the_unread_result(self):
        # reading a state keeps its coefficients, so whether anything read
        # the members first moves no row: the result is the same bit for bit
        unread, read = make_ensemble(24), make_ensemble(24)
        for traj in read:
            for state in traj.states:
                state.data
        for amap, seed in ((AffineMap.identity(), 5), (AffineMap.inversion(), 7)):
            a, b = (discover_laws(e, amap, seed=seed) for e in (unread, read))
            assert np.array_equal(a.singular_values, b.singular_values)
            assert np.array_equal(a.basis(), b.basis())
            assert a.reference_max_r == b.reference_max_r
            assert [c.holdout_max_r for c in a.candidates] == [
                c.holdout_max_r for c in b.candidates]


def white_noise(dims, seed, nsteps=4, dt=DT_PROBE):
    """A trajectory of independent white-noise samples: every mode, Nyquist
    modes included, and no spectrum held."""
    grid = GridSpec(dims, tuple(1.0 / n for n in dims))
    rng = np.random.Generator(np.random.PCG64(seed))
    states = [FieldState.from_data(grid, rng.standard_normal((6, *dims)), i * dt)
              for i in range(nsteps + 1)]
    return Trajectory(states, dt, ZeroCurrent())


def assert_sampled_rows_match(traj, amap, m, points):
    """The sampled rows of every interior step, in one pass, against the
    whole-grid rows at the points: D_t P bit for bit, the rest to 1e-12."""
    steps = np.arange(1, len(traj) - 1 - m)
    sampled = _rows_for_step(traj, amap, m, steps, points)
    assert np.array_equal(sampled, np.concatenate([
        _rows_for_step(traj, amap, m, n, points) for n in steps]))  # a pass per step
    whole = np.concatenate([whole_grid_rows(traj, amap, m, n)[points] for n in steps])
    assert np.array_equal(sampled[:, :36], whole[:, :36])
    assert np.max(np.abs(sampled - whole)) <= 1e-12 * np.max(np.abs(whole))


class TestFitRows:
    # rows read from coefficients (lazy states) or gathered (sampled data)
    # give the whole-grid rows at the points

    @pytest.mark.parametrize("dims", [(16, 16, 16), (12, 16, 20), (15, 15, 15)],
                             ids=["16-cubed", "12x16x20", "15-cubed"])
    @pytest.mark.parametrize("beta", ["zero", "node", "sub-node"])
    @pytest.mark.parametrize("m", [0, 1])
    def test_white_noise(self, dims, beta, m):
        traj = white_noise(dims, seed=sum(dims) + m)
        h = np.asarray(traj.grid.spacing)
        shift = {"zero": (0.0, 0.0, 0.0), "node": (2, -3, 5) * h,
                 "sub-node": (0.3, 1.6, -2.2) * h}[beta]
        points = np.random.Generator(np.random.PCG64(m)).choice(traj.grid.num_nodes, 8,
                                                                replace=False)
        for alpha in (np.eye(3), -np.eye(3), np.diag([1.0, -1.0, 1.0])):
            assert_sampled_rows_match(traj, AffineMap(tuple(alpha.ravel()), tuple(shift)),
                                      m, points)

    @pytest.mark.parametrize("amap", [AffineMap.inversion(), AffineMap.quarter_turn(0),
                                      AffineMap(tuple(ROTATION_Z.ravel()), (3 * H, 0.0, -H))],
                             ids=["inversion", "quarter-turn-x", "shifted-rz"])
    def test_yee_ensemble(self, amap):
        s = random_band_limited(GRID, seed=41, kmax=2)
        traj = evolve(s, ZeroCurrent(), DT_PROBE, 4, stepper="yee")
        points = np.random.Generator(np.random.PCG64(5)).choice(GRID.num_nodes, 8,
                                                                replace=False)
        _rows_for_step(traj, amap, 0, [1, 2, 3], points)
        assert all(state.spectrum is not None for state in traj.states[1:])
        assert_sampled_rows_match(traj, amap, 0, points)

    def test_one_step_shift_with_a_sub_node_map(self, monkeypatch):
        # F is read from the coefficients; only the states that F~ reads
        # are synthesised, to be shifted off the nodes
        traj = make_ensemble(1, base_seed=60)[0]
        points = np.random.Generator(np.random.PCG64(9)).choice(GRID.num_nodes, 8,
                                                                replace=False)
        synthesised = synthesised_states(monkeypatch)
        _rows_for_step(traj, SUB_NODE_RZ, 1, [1, 2], points)
        assert sorted(map(id, synthesised)) == sorted(map(id, traj.states[1:]))
        assert_sampled_rows_match(traj, SUB_NODE_RZ, 1, points)


class TestReferenceMatching:
    def test_identity(self):
        ref = law_of_map(AffineMap.identity(), 0, GRID)
        assert ref.label == "local-energy"

    def test_inversion(self):
        ref = law_of_map(AffineMap.inversion(), 0, GRID)
        assert ref.label == "inversion"

    def test_rotation(self):
        ref = law_of_map(AffineMap.quarter_turn(2), 0, GRID)
        assert ref.label == "rotation"
        reflection = AffineMap(tuple(np.diag([1.0, 1.0, -1.0]).ravel()), (0.0, 0.0, 0.0))
        ref = law_of_map(reflection, 0, GRID)
        expected = law_symmetry(reflection)
        assert ref.map == reflection and ref.time_shift_steps == 0
        for name in ("W", "K", "source"):
            assert np.array_equal(getattr(ref, name), getattr(expected, name)), name

    def test_translation(self):
        amap = AffineMap.node_translation(GRID, (0, 0, 3))
        ref = law_of_map(amap, 2, GRID)
        assert ref.label.startswith("translation")
        assert ref.time_shift_steps == 2

    def test_result_carries_the_maps_own_law(self, monkeypatch, ensemble):
        calls = spy(monkeypatch)
        result = discover_laws(ensemble, AffineMap.inversion(), seed=7)
        assert result.reference.label == "inversion"
        assert np.array_equal(result.reference.as_vector(), law_inversion().as_vector())
        assert_reference_is_sampled(ensemble[-1], result, calls)
