import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twopoint.forge as forge
from field_ops import forge_rk4
from twopoint.errors import Diverged, StepTooLarge
from twopoint.forge import (
    InvariantCoefficients,
    MomentMatrix,
    Pde1D,
    evolve_1d,
    nullspace_invariants,
    sample_values,
    suggested_max_dt,
    time_derivative_samples,
    verify_invariant_drift,
)

ADVECTION = Pde1D("advection", n=128, c=1.0)
FOUR_POINTS = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def advected_sine(pde):
    return np.sin(pde.nodes())


class TestEvolve1D:
    def test_advection_full_period_returns(self):
        pde = ADVECTION
        f0 = advected_sine(pde)
        period = pde.length / pde.c
        nsteps = 400
        _, series = evolve_1d(pde, f0, period / nsteps, nsteps)
        err = np.max(np.abs(series[-1] - f0))
        assert err <= 1e-8

    def test_burgers_mass_conserved(self):
        pde = Pde1D("burgers", n=128, nu=0.05)
        f0 = np.sin(pde.nodes()) + 0.5 * np.cos(2 * pde.nodes())
        dt = 0.5 * suggested_max_dt(pde, f0)
        _, series = evolve_1d(pde, f0, dt, 200)
        masses = series.sum(axis=1) * pde.dx
        assert np.max(np.abs(masses - masses[0])) <= 1e-10

    def test_constant_under_advection_unchanged(self):
        pde = ADVECTION
        f0 = np.full(pde.n, 0.7)
        _, series = evolve_1d(pde, f0, 0.01, 50)
        assert np.array_equal(series[-1], f0)

    def test_kdv_mass_conserved(self):
        pde = Pde1D("kdv", n=64)
        f0 = 0.1 * np.sin(pde.nodes())
        dt = 0.5 * suggested_max_dt(pde, f0)
        _, series = evolve_1d(pde, f0, dt, 50)
        masses = series.sum(axis=1) * pde.dx
        assert np.max(np.abs(masses - masses[0])) <= 1e-12

    def test_step_too_large(self):
        pde = ADVECTION
        with pytest.raises(StepTooLarge):
            evolve_1d(pde, advected_sine(pde), 1.0, 10)

    def test_divergence_detected(self):
        # backward viscous Burgers is anti-diffusive and blows up
        pde = Pde1D("burgers", n=128, nu=0.5)
        rng = np.random.default_rng(0)
        f0 = np.sin(pde.nodes()) + 0.01 * rng.standard_normal(pde.n)
        dt = 0.9 * suggested_max_dt(pde, f0)
        _, step = forge_rk4(pde, f0, -dt, 400)
        assert step == 7
        with pytest.raises(Diverged, match=f"at step {step}$"):
            evolve_1d(pde, f0, -dt, 400)


class TestCoefficientStepping:
    """evolve_1d steps rfft coefficients; the real-space RK4 of `forge_rk4`
    is the reference, which it must match to rounding."""

    CASES = {
        "advection": (Pde1D("advection", c=1.3), lambda x: np.sin(x) + 0.3 * np.cos(3 * x + 0.2)),
        "burgers": (Pde1D("burgers", nu=0.05), lambda x: np.sin(x) + 0.5 * np.cos(2 * x)),
        "inviscid": (Pde1D("burgers"), lambda x: 0.5 * np.sin(x) + 0.2 * np.cos(2 * x)),
        "kdv": (Pde1D("kdv", n=64), lambda x: 0.1 * np.sin(x) + 0.05 * np.cos(3 * x)),
    }

    @staticmethod
    def assert_matches_oracle(pde, f0, dt, nsteps):
        ref, blown = forge_rk4(pde, f0, dt, nsteps)
        assert blown is None
        _, series = evolve_1d(pde, f0, dt, nsteps)
        assert np.array_equal(series[0], f0)
        assert np.max(np.abs(series - ref)) <= 1e-13 * np.max(np.abs(ref))

    # backward viscous Burgers is anti-diffusive: test_divergence_detected
    @pytest.mark.parametrize("case, sign", [("advection", 1), ("advection", -1), ("burgers", 1),
                                            ("inviscid", 1), ("inviscid", -1), ("kdv", 1),
                                            ("kdv", -1)])
    def test_matches_real_space_rk4(self, case, sign):
        pde, shape = self.CASES[case]
        f0 = shape(pde.nodes())
        self.assert_matches_oracle(pde, f0, sign * 0.9 * suggested_max_dt(pde, f0), 40)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(case=st.sampled_from([("advection", 1), ("advection", -1), ("burgers", 1),
                                 ("inviscid", 1), ("inviscid", -1), ("kdv", 1), ("kdv", -1)]),
           amps=st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6),
           frac=st.floats(0.05, 1.0))
    def test_band_limited_data_match_real_space_rk4(self, case, amps, frac):
        name, sign = case
        pde = self.CASES[name][0]
        x = pde.nodes()
        f0 = sum(a * np.sin(m * x) + b * np.cos(m * x)
                 for m, a, b in zip((1, 2, 3), amps[::2], amps[1::2]))
        self.assert_matches_oracle(pde, f0, sign * frac * suggested_max_dt(pde, f0), 16)

    @pytest.mark.parametrize("case, per_step", [("advection", 0), ("burgers", 8), ("kdv", 8)])
    def test_transforms_per_step(self, monkeypatch, case, per_step):
        pde, shape = self.CASES[case]
        f0 = shape(pde.nodes())
        dt = 0.5 * suggested_max_dt(pde, f0)
        calls = {"rfft": 0, "irfft": 0}

        def counted(name):
            transform = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        nsteps = 12
        evolve_1d(pde, f0, dt, nsteps)
        # one rfft of f0 and one batched synthesis of the series per run
        assert calls == {"rfft": 1 + nsteps * per_step // 2, "irfft": 1 + nsteps * per_step // 2}


class TestSampling:
    def test_matches_nodes(self):
        pde = ADVECTION
        f = np.sin(3 * pde.nodes()) + 0.2 * np.cos(pde.nodes())
        got = sample_values(pde, f, pde.nodes()[:10])
        assert np.max(np.abs(got - f[:10])) <= 1e-12

    def test_off_grid_band_limited_exact(self):
        pde = ADVECTION
        f = np.sin(2 * pde.nodes())
        pts = np.array([0.13, 1.77, 4.9])
        got = sample_values(pde, f, pts)
        assert np.max(np.abs(got - np.sin(2 * pts))) <= 1e-12


class TestMomentMatrix:
    def test_advected_sine_rows(self):
        c = 1.0
        m = time_derivative_samples(ADVECTION, advected_sine(ADVECTION), FOUR_POINTS, 2)
        expected_k1 = -c * np.cos(FOUR_POINTS)
        expected_k2 = -(c**2) * np.sin(FOUR_POINTS)
        assert np.max(np.abs(m.matrix[0] - expected_k1)) <= 1e-6
        assert np.max(np.abs(m.matrix[1] - expected_k2)) <= 1e-6
        assert not m.extrapolation_suspect

    def test_constant_gives_zero_rows(self):
        pde = Pde1D("burgers", n=64, nu=0.1)
        f0 = np.full(pde.n, 1.3)
        m = time_derivative_samples(pde, f0, FOUR_POINTS, 2)
        assert np.max(np.abs(m.matrix)) <= 1e-10
        assert not m.extrapolation_suspect

    def test_burgers_first_row_matches_rhs_oracle(self):
        pde = Pde1D("burgers", n=128, nu=0.05)
        x = pde.nodes()
        f0 = np.sin(x) + 0.3 * np.cos(2 * x)
        pts = np.array([0.5, 1.9, 3.3, 5.1])
        m = time_derivative_samples(pde, f0, pts, 1)
        # independent oracle: -f f_x + nu f_xx evaluated spectrally
        k = pde.wavenumbers()
        fh = np.fft.rfft(f0)
        fx = np.fft.irfft(1j * k * fh, n=pde.n)
        fxx = np.fft.irfft(-(k**2) * fh, n=pde.n)
        rhs = -f0 * fx + pde.nu * fxx
        expected = sample_values(pde, rhs, pts)
        rel = np.max(np.abs(m.matrix[0] - expected)) / np.max(np.abs(expected))
        assert rel <= 1e-5

    def test_probe_blow_up_names_dt_probe(self):
        # the backward probe of viscous Burgers is anti-diffusive
        pde = Pde1D("burgers", n=128, nu=0.5)
        rng = np.random.default_rng(0)
        f0 = np.sin(pde.nodes()) + 0.01 * rng.standard_normal(pde.n)
        dt_probe = 3.0 * suggested_max_dt(pde, f0)
        with pytest.raises(Diverged, match="reduce dt_probe"):
            time_derivative_samples(pde, f0, FOUR_POINTS, 2, dt_probe=dt_probe)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            time_derivative_samples(ADVECTION, advected_sine(ADVECTION), FOUR_POINTS, 7)


class TestNullspace:
    def test_advection_four_point_basis(self):
        m = time_derivative_samples(ADVECTION, advected_sine(ADVECTION), FOUR_POINTS, 2)
        inv = nullspace_invariants(m)
        assert len(inv) == 2
        basis = inv.alphas
        for expected in (np.array([1, 0, 1, 0]) / np.sqrt(2),
                         np.array([0, 1, 0, 1]) / np.sqrt(2)):
            proj = np.linalg.norm(basis @ expected)
            assert proj == pytest.approx(1.0, abs=1e-9)

    def test_rank_nullity_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rows = rng.integers(1, 6)
            p = rng.integers(2, 9)
            mat = rng.standard_normal((rows, p))
            m = MomentMatrix(mat, np.arange(p, dtype=float), rows)
            inv = nullspace_invariants(m, tol=1e-10)
            rank = np.linalg.matrix_rank(mat, tol=1e-10 * np.linalg.norm(mat, 2))
            assert len(inv) == p - rank

    def test_zero_matrix_full_basis(self):
        m = MomentMatrix(np.zeros((3, 5)), np.arange(5.0), 3)
        inv = nullspace_invariants(m)
        assert len(inv) == 5
        assert np.allclose(inv.alphas @ inv.alphas.T, np.eye(5))

    def test_unit_norm_and_annihilation(self):
        pde = Pde1D("burgers", n=128, nu=0.05)
        f0 = np.sin(pde.nodes()) + 0.4 * np.cos(2 * pde.nodes())
        pts = np.array([0.3, 1.1, 2.0, 3.2, 4.4, 5.6])
        m = time_derivative_samples(pde, f0, pts, 3)
        inv = nullspace_invariants(m)
        for alpha in inv.alphas:
            assert np.linalg.norm(alpha) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(m.matrix @ alpha)) <= 1e-6 * np.max(np.abs(m.matrix))

    def test_equivariance_bit_level(self):
        pde = Pde1D("burgers", n=128, nu=0.05)
        f0 = np.sin(pde.nodes()) + 0.4 * np.cos(2 * pde.nodes())
        pts = np.array([0.3, 1.1, 2.0, 3.2, 4.4, 5.6])
        perm = np.array([4, 0, 5, 2, 1, 3])
        m1 = time_derivative_samples(pde, f0, pts, 3)
        m2 = time_derivative_samples(pde, f0, pts[perm], 3)
        inv1 = nullspace_invariants(m1)
        inv2 = nullspace_invariants(m2)
        assert np.array_equal(inv1.alphas[:, perm], inv2.alphas)

    def test_monotone_in_order(self):
        pde = Pde1D("burgers", n=128, nu=0.08)
        rng = np.random.default_rng(11)
        x = pde.nodes()
        for trial in range(4):
            f0 = sum(
                rng.normal() * np.sin((k + 1) * x) + rng.normal() * np.cos((k + 1) * x)
                for k in range(2)
            )
            pts = np.sort(rng.uniform(0, pde.length, size=6))
            dims = []
            for order in (1, 2, 3, 4):
                m = time_derivative_samples(pde, f0, pts, order, dt_probe=0.02)
                dims.append(len(nullspace_invariants(m)))
            assert all(a >= b for a, b in zip(dims, dims[1:]))


class TestDrift:
    def test_exact_invariant_advected_sine(self):
        m = time_derivative_samples(ADVECTION, advected_sine(ADVECTION), FOUR_POINTS, 2)
        inv = nullspace_invariants(m)
        period = ADVECTION.length / ADVECTION.c
        results = verify_invariant_drift(ADVECTION, advected_sine(ADVECTION), inv, period)
        for res in results:
            assert np.max(res.drift) <= 1e-9

    def test_constant_field_zero_drift(self):
        pde = ADVECTION
        f0 = np.full(pde.n, 2.0)
        m = time_derivative_samples(pde, f0, FOUR_POINTS, 2)
        inv = nullspace_invariants(m)
        results = verify_invariant_drift(pde, f0, inv, 1.0)
        assert results
        for res in results:
            assert np.max(res.drift) <= 1e-12

    def test_zero_data_full_basis_zero_drift(self):
        pde = ADVECTION
        f0 = np.zeros(pde.n)
        m = time_derivative_samples(pde, f0, FOUR_POINTS, 3)
        assert np.all(m.matrix == 0.0)
        inv = nullspace_invariants(m)
        assert len(inv) == 4
        results = verify_invariant_drift(pde, f0, inv, 1.0)
        for res in results:
            assert np.max(res.drift) == 0.0

    def test_linear_two_mode_truncation_is_exact(self):
        # 2 Fourier modes -> 4-dim dynamics; P > 4 points, order 4 kills it
        pde = ADVECTION
        x = pde.nodes()
        f0 = np.sin(x) + 0.6 * np.cos(2 * x + 0.3)
        pts = np.array([0.0, 0.9, 1.7, 2.8, 3.9, 4.7, 5.5])
        m = time_derivative_samples(pde, f0, pts, 4, dt_probe=0.025)
        inv = nullspace_invariants(m, tol=1e-6)
        assert len(inv) == len(pts) - 4
        results = verify_invariant_drift(pde, f0, inv, pde.length / pde.c)
        for res in results:
            assert np.max(res.drift) <= 1e-7

    def test_burgers_order3_drift_exponent(self):
        pde = Pde1D("burgers", n=128, nu=0.05)
        x = pde.nodes()
        f0 = np.sin(x) + 0.5 * np.cos(2 * x)
        pts = np.array([0.4, 1.2, 2.1, 3.3, 4.2, 5.3])
        m = time_derivative_samples(pde, f0, pts, 3, dt_probe=0.01)
        inv = nullspace_invariants(m)
        results = verify_invariant_drift(
            pde, f0, inv, 0.5, fit_window=(0.02, 0.12), drift_floor=1e-10
        )
        exps = [r.exponent for r in results if np.isfinite(r.exponent)]
        assert exps, "no measurable drift exponents"
        assert max(exps) >= 3.5


def counted_ffts(monkeypatch) -> list:
    """The names of numpy's 1D FFT entry points called from now on."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestDriftRun:
    """The last drift run is kept, so orders checked on one f0 march it once."""

    PDE = Pde1D("burgers", n=128, nu=0.05)
    POINTS = np.array([0.4, 1.2, 2.1, 3.3, 4.2, 5.3])

    def f0(self):
        x = self.PDE.nodes()
        return np.sin(x + 0.7) + 0.5 * np.cos(2.0 * (x + 0.7))

    def invariants(self, f0, order):
        return nullspace_invariants(time_derivative_samples(self.PDE, f0, self.POINTS, order,
                                                            dt_probe=0.012))

    def drift(self, f0, inv):
        return verify_invariant_drift(self.PDE, f0, inv, 0.5, fit_window=(0.02, 0.12),
                                      drift_floor=1e-10)

    @staticmethod
    def assert_same(results, fresh):
        assert len(results) == len(fresh)
        for a, b in zip(results, fresh):
            for name in ("times", "values", "drift"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert np.array_equal(a.exponent, b.exponent, equal_nan=True)

    def test_orders_on_one_f0_march_once(self, monkeypatch):
        f0 = self.f0()
        inv = {order: self.invariants(f0, order) for order in (3, 4)}
        forge._LAST_DRIFT_RUN.clear()
        calls = counted_ffts(monkeypatch)
        third = self.drift(f0, inv[3])
        # one rfft of f0 and 8 transforms per Burgers step: 128 steps of 0.5 / 128
        assert calls == ["rfft"] + ["irfft", "rfft"] * 4 * 128
        fourth = self.drift(f0, inv[4])
        assert len(calls) == 1 + 8 * 128
        (spectra,) = forge._LAST_DRIFT_RUN.values()
        assert not spectra.flags.writeable
        for order, results in ((3, third), (4, fourth)):
            forge._LAST_DRIFT_RUN.clear()
            self.assert_same(results, self.drift(f0, inv[order]))

    def test_an_f0_one_ulp_away_marches_again(self, monkeypatch):
        f0 = self.f0()
        inv = InvariantCoefficients(np.eye(2), self.POINTS[:2])
        verify_invariant_drift(self.PDE, f0, inv, 0.5)
        near = f0.copy()
        near[17] = np.nextafter(near[17], np.inf)
        calls = counted_ffts(monkeypatch)
        verify_invariant_drift(self.PDE, f0, inv, 0.5)
        assert calls == []
        verify_invariant_drift(self.PDE, near, inv, 0.5)
        assert len(calls) >= 2 * 128
        calls.clear()
        verify_invariant_drift(self.PDE, f0, inv, 0.5)  # one run is kept, the last
        assert len(calls) >= 2 * 128

    def test_a_run_that_raised_is_not_kept(self, monkeypatch):
        # test_divergence_detected's backward viscous Burgers, 64 drift steps
        pde = Pde1D("burgers", n=128, nu=0.5)
        rng = np.random.default_rng(0)
        f0 = np.sin(pde.nodes()) + 0.01 * rng.standard_normal(pde.n)
        inv = InvariantCoefficients(np.eye(1), np.array([1.0]))
        verify_invariant_drift(self.PDE, self.f0(), inv, 0.5)
        kept = dict(forge._LAST_DRIFT_RUN)
        horizon = -0.9 * forge.DRIFT_SAMPLES * suggested_max_dt(pde, f0)
        with pytest.raises(Diverged, match="at step 7$"):
            verify_invariant_drift(pde, f0, inv, horizon)
        assert forge._LAST_DRIFT_RUN.keys() == kept.keys()
        calls = counted_ffts(monkeypatch)
        with pytest.raises(Diverged, match="at step 7$"):
            verify_invariant_drift(pde, f0, inv, horizon)
        assert calls
