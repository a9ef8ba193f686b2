import numpy as np
import pytest

from field_ops import full_spectrum_band_limited
from twopoint.errors import InvalidWavenumber
from twopoint.grid import (
    AffineMap,
    FieldState,
    GridSpec,
    ScalarField,
    divergence,
    pullback,
    volume_integral,
)
from twopoint.maxwell import SpectralEngine, ZeroCurrent
from twopoint.waves import (
    PlaneWaveSpec,
    plane_wave,
    random_band_limited,
    standing_wave,
    twopoint_energy_analytic,
)


def dot_integral(a, b):
    """Volume integral of the pointwise dot product a . b."""
    return volume_integral(ScalarField(a.grid, np.einsum("i...,i...->...", a.data, b.data)))


@pytest.fixture
def grid():
    return GridSpec.cube(1.0, 32)


@pytest.fixture
def spec():
    return PlaneWaveSpec(amplitude=1.5, k=2 * np.pi * 4)


class TestPlaneWave:
    def test_zero_phase_at_origin(self, grid, spec):
        state = plane_wave(spec, grid, 0.0)
        assert state.E.data[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_energy_density_averages_amplitude_squared(self, grid, spec):
        state = plane_wave(spec, grid, 0.123)
        q = dot_integral(state.E, state.E) + dot_integral(state.B, state.B)
        assert q == pytest.approx(grid.volume * spec.amplitude**2, rel=1e-12)

    def test_incompatible_wavenumber_rejected(self, grid):
        with pytest.raises(InvalidWavenumber):
            plane_wave(PlaneWaveSpec(amplitude=1.0, k=2.5), grid, 0.0)

    def test_above_nyquist_rejected(self, grid):
        with pytest.raises(InvalidWavenumber):
            plane_wave(PlaneWaveSpec(amplitude=1.0, k=2 * np.pi * 16), grid, 0.0)


class TestStandingWave:
    def test_nodes_at_walls_for_all_times(self, grid, spec):
        for t in np.linspace(0.0, 0.5, 7):
            state = standing_wave(spec, grid, t)
            assert np.max(np.abs(state.E.data[:, :, :, 0])) <= 1e-12

    def test_is_sum_of_two_plane_waves(self, grid, spec):
        from dataclasses import replace

        t = 0.37
        s = standing_wave(spec, grid, t)
        fwd = plane_wave(spec, grid, t)
        bwd = plane_wave(replace(spec, direction=-1, amplitude=-spec.amplitude), grid, t)
        assert np.array_equal(s.E.data, fwd.E.data + bwd.E.data)
        assert np.array_equal(s.B.data, fwd.B.data + bwd.B.data)

    def test_closed_form(self, grid, spec):
        t = 0.21
        s = standing_wave(spec, grid, t)
        z = grid.meshgrid()[2]
        e_exact = 2 * spec.amplitude * np.sin(spec.k * z) * np.cos(spec.omega * t)
        b_exact = -2 * spec.amplitude * np.cos(spec.k * z) * np.sin(spec.omega * t)
        assert np.max(np.abs(s.E.data[0] - e_exact)) <= 1e-13
        assert np.max(np.abs(s.B.data[1] - b_exact)) <= 1e-13


class TestTwoPointEnergyAnalytic:
    def test_zero_shift_gives_usual_energy(self):
        assert twopoint_energy_analytic(2.0, 3.0, 5.0, 0.0) == pytest.approx(12.0)

    def test_quarter_wavelength_vanishes(self):
        k = 2 * np.pi * 4
        d = (2 * np.pi / k) / 4
        assert twopoint_energy_analytic(1.0, 1.0, k, d) == pytest.approx(0.0, abs=1e-15)

    def test_half_wavelength_is_negative(self):
        k = 2 * np.pi * 4
        d = (2 * np.pi / k) / 2
        assert twopoint_energy_analytic(1.0, 1.0, k, d) == pytest.approx(-1.0)

    def test_matches_numerical_two_point_density_for_grid_exact_shifts(self, grid, spec):
        # direct quadrature of E(x+d).E(x) + B(x+d).B(x) over the box
        t = 0.42
        state = plane_wave(spec, grid, t)
        lam_nodes = grid.dims[2] // 4  # one wavelength of the n=4 mode
        for nodes in (0, 2, lam_nodes // 2, lam_nodes, 3):
            m = AffineMap.node_translation(grid, (0, 0, nodes))
            es = pullback(state.E, m)
            bs = pullback(state.B, m)
            q = dot_integral(es, state.E) + dot_integral(bs, state.B)
            d = nodes * grid.spacing[2]
            expected = twopoint_energy_analytic(spec.amplitude, grid.volume, spec.k, d)
            assert q == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestRandomBandLimited:
    def test_deterministic_across_calls(self, grid):
        a = random_band_limited(grid, seed=42, kmax=2)
        b = random_band_limited(grid, seed=42, kmax=2)
        assert np.array_equal(a.E.data, b.E.data)
        assert np.array_equal(a.B.data, b.B.data)

    def test_different_seeds_differ(self, grid):
        a = random_band_limited(grid, seed=1)
        b = random_band_limited(grid, seed=2)
        assert not np.allclose(a.E.data, b.E.data)

    def test_solenoidal(self, grid):
        s = random_band_limited(grid, seed=3, kmax=2)
        for f in (s.E, s.B):
            d = divergence(f)
            assert np.max(np.abs(d.data)) <= 1e-11 * np.max(np.abs(f.data))

    def test_energy_normalization(self, grid):
        s = random_band_limited(grid, seed=4, kmax=2, amplitude=1.3)
        q = dot_integral(s.E, s.E) + dot_integral(s.B, s.B)
        assert q == pytest.approx(1.3**2, rel=1e-12)

    def test_mean_b_offset(self, grid):
        s = random_band_limited(grid, seed=5, kmax=1, mean_b=(0.0, 0.2, 0.1))
        assert np.mean(s.B.data[1]) == pytest.approx(0.2, abs=1e-12)
        assert np.mean(s.B.data[2]) == pytest.approx(0.1, abs=1e-12)
        assert np.mean(s.E.data[0]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dims,spacing", [
        ((64, 64, 64), (1 / 64, 1 / 64, 1 / 64)),
        ((16, 12, 20), (0.1, 0.2, 0.05)),
        ((15, 13, 17), (0.1, 0.1, 0.1)),
    ], ids=["cube", "non-cubic", "odd-axes"])
    def test_half_spectrum_matches_full_spectrum_oracle(self, dims, spacing):
        g = GridSpec(dims, spacing)
        mean_b = (0.0, 0.2, 0.1)
        s = random_band_limited(g, seed=7, kmax=2, amplitude=1.3, mean_b=mean_b)
        oracle = full_spectrum_band_limited(g, seed=7, kmax=2, amplitude=1.3, mean_b=mean_b)
        assert np.max(np.abs(s.data - oracle)) <= 1e-15 * np.max(np.abs(oracle))
        energy = np.sum(s.data * s.data) * g.cell_volume
        assert abs(energy - (1.3**2 + np.dot(mean_b, mean_b) * g.volume)) <= 1e-14
        # the engine finds the same modes: 124 band modes fill 74 half-spectrum
        # entries, plus the mean mode of mean_b
        engine = SpectralEngine(s, ZeroCurrent(), 1e-4)
        ref = SpectralEngine(FieldState.from_data(g, oracle, 0.0), ZeroCurrent(), 1e-4)
        assert np.array_equal(engine.mask, ref.mask)
        assert engine.mask.sum() == 75
        assert engine.analysis_grid.dims == ref.analysis_grid.dims == (10, 10, 10)
