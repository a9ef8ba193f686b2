import numpy as np
import pytest

from twopoint.discover import (
    _holdout_max_r,
    _rows_for_step,
    discover_laws,
    matching_reference_law,
)
from twopoint.errors import InsufficientData
from twopoint.grid import AffineMap, GridSpec, spectral_wavevectors
from twopoint.laws import (
    TwoPointLawSpec,
    _pulled6,
    _stack6,
    law_inversion,
    law_local_energy,
    law_symmetry,
    residual,
)
from twopoint.maxwell import UniformOscillating, ZeroCurrent, evolve
from twopoint.waves import random_band_limited

GRID = GridSpec.cube(1.0, 16)
DT_PROBE = 1.5e-5


def make_ensemble(n_members, base_seed=100, kmax=2):
    out = []
    for i in range(n_members):
        s = random_band_limited(GRID, seed=base_seed + i, kmax=kmax)
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


class TestPointSampledRows:
    @pytest.mark.parametrize(
        "amap",
        [AffineMap.identity(), AffineMap.inversion(), AffineMap.quarter_turn(2)],
        ids=["identity", "inversion", "quarter-turn"],
    )
    def test_product_rule_matches_full_grid_products(self, ensemble, amap):
        # kmax = 2 on 16^3: products are alias free (2 kmax < N/2)
        points = np.random.Generator(np.random.PCG64(3)).choice(GRID.num_nodes, 8, replace=False)
        for n in (1, 2, 3):
            new = _rows_for_step(ensemble[0], amap, 0, n, points)
            old = rows_from_full_products(ensemble[0], amap, 0, n, points)
            assert np.array_equal(new[:, :36], old[:, :36])
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

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


class TestReferenceMatching:
    def test_identity(self):
        ref = matching_reference_law(AffineMap.identity(), 0, GRID)
        assert ref.label == "local-energy"

    def test_inversion(self):
        ref = matching_reference_law(AffineMap.inversion(), 0, GRID)
        assert ref.label == "inversion"

    def test_rotation(self):
        ref = matching_reference_law(AffineMap.quarter_turn(2), 0, GRID)
        assert ref.label == "rotation"
        reflection = AffineMap(tuple(np.diag([1.0, 1.0, -1.0]).ravel()), (0.0, 0.0, 0.0))
        ref = matching_reference_law(reflection, 0, GRID)
        expected = law_symmetry(reflection)
        assert ref.map == reflection and ref.time_shift_steps == 0
        for name in ("W", "K", "source"):
            assert np.array_equal(getattr(ref, name), getattr(expected, name)), name

    def test_translation(self):
        amap = AffineMap.node_translation(GRID, (0, 0, 3))
        ref = matching_reference_law(amap, 2, GRID)
        assert ref.label.startswith("translation")
        assert ref.time_shift_steps == 2

    def test_result_carries_the_maps_own_law(self, ensemble):
        result = discover_laws(ensemble, AffineMap.inversion(), seed=7)
        assert result.reference.label == "inversion"
        assert result.reference_max_r == pytest.approx(
            residual(ensemble[-1], law_inversion()).max_r, rel=1e-5)
