import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twopoint.discover as discover
import twopoint.laws as laws_module
from twopoint.discover import (
    MIN_ENSEMBLE,
    _holdout_max_r,
    _rows_at,
    _rows_for_step,
    _step_fields,
    discover_laws,
)
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
        whole = _rows_at(_step_fields(traj, amap, m, n), traj.dt)[points]
        assert np.array_equal(sampled[:, :36], whole[:, :36])
        assert np.max(np.abs(sampled - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("law", [law_local_energy(), law_inversion()],
                             ids=["local-energy", "inversion"])
    def test_blocked_holdout_matches_residual(self, ensemble, law):
        holdout = ensemble[-1]
        blocked = _holdout_max_r(holdout, law.map, 0, law.as_vector()[:, None], block=1000)
        assert blocked[0] == pytest.approx(residual(holdout, law).max_r, rel=1e-5)


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
        hold_r = []

        def holdout_max_r(*args, **kwargs):
            hold_r.append(original(*args, **kwargs))
            return hold_r[-1]

        original = discover._holdout_max_r
        monkeypatch.setattr(discover, "_holdout_max_r", holdout_max_r)
        result = discover_laws(members, amap)
        (r,) = hold_r
        assert len(r) == near_null + 1 and r[-1] == result.reference_max_r > 0.0
        assert np.all(r[:-1] > 10.0 * result.reference_max_r)
        assert result.candidates == []

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
    def test_only_the_holdouts_stepped_states_are_synthesised(self, monkeypatch):
        # fit rows read their sampled nodes from the coefficients of the
        # lazy stepped states and pull nothing back; only the hold-out's 4
        # stepped states are synthesised, and differentiated by whole-grid
        # products, at its 3 interior steps (n - 1, n + 1 and n at each),
        # each of whose F~ is pulled back through `grid`
        members = make_ensemble(24)  # unread, unlike the shared fixture
        synthesised = synthesised_states(monkeypatch)
        gradients, pullbacks, holdout = [], [], []

        def gradient(data, grid):
            gradients.append(data.shape)
            return original_gradient(data, grid)

        def pull_array(data, grid, amap):
            pullbacks.append((bool(holdout), data.shape))
            return original_pull(data, grid, amap)

        def holdout_max_r(*args, **kwargs):
            holdout.append(True)
            return original_holdout(*args, **kwargs)

        original_gradient, original_pull = discover._gradient, laws_module._pull_array
        original_holdout = discover._holdout_max_r
        monkeypatch.setattr(discover, "_gradient", gradient)
        monkeypatch.setattr(laws_module, "_pull_array", pull_array)
        monkeypatch.setattr(discover, "_holdout_max_r", holdout_max_r)
        discover_laws(members, AffineMap.inversion(), seed=7)
        assert sorted(map(id, synthesised)) == sorted(map(id, members[-1].states[1:]))
        assert all(s.spectrum is not None for traj in members[:-1] for s in traj.states[1:])
        assert gradients == [(12, *GRID.dims)] * 3
        assert pullbacks == [(True, (6, *GRID.dims))] * 9


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
    whole = np.concatenate([_rows_at(_step_fields(traj, amap, m, n), traj.dt)[points]
                            for n in steps])
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

    def test_result_carries_the_maps_own_law(self, ensemble):
        result = discover_laws(ensemble, AffineMap.inversion(), seed=7)
        assert result.reference.label == "inversion"
        assert result.reference_max_r == pytest.approx(
            residual(ensemble[-1], law_inversion()).max_r, rel=1e-5)
