import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_ops import (
    dense_rk4, leapfrog_power, projected_gaussian, rk4_power, scattered_snapshot, spectral_curl,
    yee_leapfrog,
)
from twopoint.errors import InvalidMap, NonFiniteField, StepTooLarge
from twopoint.grid import (
    AffineMap, FieldState, GridSpec, ScalarField, VectorField, _gather_plan,
    _mode_numbers, _pull_array, divergence, volume_integral,
)
from twopoint.laws import _pulled_profiles
from twopoint.maxwell import (
    GaussianPulseCurrent,
    PlaneWaveCurrent,
    SpectralEngine,
    Trajectory,
    UniformOscillating,
    YeeEngine,
    ZeroCurrent,
    cfl_max_dt,
    evolve,
)
from twopoint.waves import PlaneWaveSpec, plane_wave, random_band_limited


def l2_error(a: FieldState, b: FieldState) -> float:
    num = np.sum((a.E.data - b.E.data) ** 2 + (a.B.data - b.B.data) ** 2)
    den = np.sum(b.E.data**2 + b.B.data**2)
    return float(np.sqrt(num / den))


class TestCfl:
    def test_cubic_yee_value(self):
        g = GridSpec((8, 8, 8), (1.0, 1.0, 1.0))
        assert cfl_max_dt(g, "yee") == pytest.approx(0.9 / np.sqrt(3.0))

    def test_halving_h_halves_dt(self):
        g1 = GridSpec.cube(1.0, 16)
        g2 = GridSpec.cube(1.0, 32)
        assert cfl_max_dt(g1, "yee") == pytest.approx(2.0 * cfl_max_dt(g2, "yee"))

    def test_anisotropic_limit(self):
        # hx -> large: limit 0.9 * hy*hz / sqrt(hy^2 + hz^2)
        hy, hz = 0.2, 0.1
        g = GridSpec((4, 16, 16), (1e9, hy, hz))
        expected = 0.9 * hy * hz / np.sqrt(hy**2 + hz**2)
        assert cfl_max_dt(g, "yee") == pytest.approx(expected, rel=1e-6)

    def test_step_too_large(self):
        g = GridSpec.cube(1.0, 16)
        state = random_band_limited(g, seed=0, kmax=2)
        with pytest.raises(StepTooLarge):
            evolve(state, ZeroCurrent(), 10.0 * cfl_max_dt(g, "spectral"), 1)


class TestStepSpectral:
    def test_zero_fields_stay_zero(self):
        g = GridSpec.cube(1.0, 8)
        zero = FieldState(VectorField.zeros(g), VectorField.zeros(g), 0.0)
        out = evolve(zero, ZeroCurrent(), 0.01, 1).states[1]
        assert np.all(out.E.data == 0.0)
        assert np.all(out.B.data == 0.0)

    @pytest.mark.parametrize("cfl_fraction,bound", [(0.2, 2e-8), (0.15, 1e-8)])
    def test_plane_wave_one_period(self, cfl_fraction, bound):
        # oracle: the closed-form wave returns to itself after one period;
        # RK4 leaves a phase lag of nsteps * (w dt)^5 / 120
        g = GridSpec.cube(1.0, 64)
        spec = PlaneWaveSpec(amplitude=1.0, k=2 * np.pi * 4)
        period = 2 * np.pi / spec.omega
        dt = cfl_fraction * cfl_max_dt(g, "spectral")
        nsteps = int(np.ceil(period / dt))
        dt = period / nsteps
        initial = plane_wave(spec, g, 0.0)
        engine = SpectralEngine(initial, ZeroCurrent(), dt)
        for _ in range(nsteps):
            engine.advance()
        err = l2_error(engine.state(), initial)
        theory = nsteps * (spec.omega * dt) ** 5 / 120.0
        assert err <= bound
        assert err <= 1.2 * theory

    def test_divergence_b_stays_small(self):
        g = GridSpec.cube(1.0, 16)
        state = random_band_limited(g, seed=1, kmax=2)
        traj = evolve(state, ZeroCurrent(), 0.5 * cfl_max_dt(g, "spectral"), 1000)
        d = divergence(traj.states[-1].B)
        scale = np.max(np.abs(traj.states[-1].B.data))
        assert np.max(np.abs(d.data)) <= 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("j", [
        UniformOscillating((0.1, 0.2, 0.0), omega=2 * np.pi),
        GaussianPulseCurrent((0.5, 0.4, 0.5), 0.2, (0.0, 0.0, 1.0), t0=0.004, tau=0.01),
    ], ids=["uniform", "gaussian"])
    def test_masked_engine_matches_dense(self, j):
        g = GridSpec.cube(1.0, 16)
        state = random_band_limited(g, seed=2, kmax=1)
        dt = 0.002
        engine = SpectralEngine(state, j, dt)
        assert engine.mask.mean() < 1
        for _ in range(5):
            engine.advance()
        dense = dense_rk4(state, j, dt, 5)
        # the per-mode polynomial is stage-by-stage RK4 regrouped: equal up
        # to rounding
        retained = dense[:, engine.mask]
        assert np.max(np.abs(engine.u - retained)) <= 1e-14 * np.max(np.abs(engine.u))
        # snapshots differ only by the dropped round-trip noise modes
        a = engine.state()
        b = np.fft.irfftn(dense, s=g.dims, axes=(-3, -2, -1))
        scale = np.max(np.abs(b[:3]))
        assert np.max(np.abs(a.E.data - b[:3])) <= 1e-13 * scale
        assert np.max(np.abs(a.B.data - b[3:])) <= 1e-13 * scale

    def test_mean_mode_is_active_only_with_a_mean(self):
        g = GridSpec.cube(1.0, 16)
        for mean_b in ((0.0, 0.0, 0.0), (0.0, 0.2, 0.1)):
            state = random_band_limited(g, seed=3, kmax=1, mean_b=mean_b)
            assert SpectralEngine(state, ZeroCurrent(), 0.002).mask[0, 0, 0] == any(mean_b)


class TestPairing:
    CURRENTS = {
        "zero": ZeroCurrent(),
        "uniform": UniformOscillating((0.3, -0.2, 0.1), omega=2 * np.pi),
        "planewave": PlaneWaveCurrent((1, -2, 1), (1.0, 0.5, 0.0), omega=3.0),
        # narrow enough to carry Nyquist modes, so the run keeps its own grid
        "gaussian": GaussianPulseCurrent((0.5, 0.4, 0.5), 0.1, (0.0, 0.0, 1.0)),
    }

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    @pytest.mark.parametrize("dims", [(16, 16, 16), (16, 24, 12), (15, 16, 16), (16, 12, 15)])
    @pytest.mark.parametrize("current", sorted(CURRENTS))
    def test_pair_of_dual_is_the_snapshot_integral(self, engine_cls, dims, current):
        g = GridSpec(dims, tuple(1.0 / n for n in dims))
        state = random_band_limited(g, seed=5, kmax=2, mean_b=(0.0, 0.2, 0.1))
        engine = engine_cls(state, self.CURRENTS[current], 0.3 * cfl_max_dt(g, "yee"))
        agrid = engine.analysis_grid
        assert (agrid == g) == (current == "gaussian")
        q = np.random.default_rng(6).standard_normal((4, *agrid.dims))
        dual = engine.dual(q)
        for step in range(3):
            if step:
                engine.advance()
            snapshot = engine.state(agrid).data
            expected = np.einsum("axyz,cxyz->ac", snapshot, q) * agrid.cell_volume
            assert np.max(np.abs(engine.pair(dual) - expected)) <= 1e-14 * np.max(np.abs(expected))

    @staticmethod
    def nyquist_currents(dims):
        """Plane-wave currents whose mode has a Nyquist component: alone
        ("nyquist") and beside a component 1 ("mixed")."""
        axis = next(i for i, n in enumerate(dims) if n % 2 == 0)
        pure = [0, 0, 0]
        pure[axis] = dims[axis] // 2
        mixed = list(pure)
        mixed[(axis + 1) % 3] = 1
        return {name: PlaneWaveCurrent(tuple(mode), tuple(np.cross(mode, (0.3, 0.5, 0.7))),
                                       omega=3.0)
                for name, mode in (("nyquist", pure), ("mixed", mixed))}

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    @pytest.mark.parametrize("dims", [(16, 16, 16), (16, 24, 12), (15, 16, 16), (16, 12, 15)])
    @pytest.mark.parametrize("current", ["uniform", "planewave", "nyquist", "mixed", "gaussian"])
    @pytest.mark.parametrize("shift", ["zero", "whole", "sub"])
    def test_balance_puts_the_current_at_each_map(self, engine_cls, dims, current, shift):
        # every signed permutation that is a symmetry of the grid, at one shift
        g = GridSpec(dims, tuple(1.0 / n for n in dims))
        h = g.spacing
        beta = {"zero": (0.0, 0.0, 0.0), "whole": (3 * h[0], -2 * h[1], 5 * h[2]),
                "sub": (0.13, 0.4, 0.07)}[shift]
        maps = []
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                amap = AffineMap(tuple((np.eye(3)[list(perm)] * np.array(signs)[:, None]).ravel()),
                                 beta)
                try:
                    _gather_plan(g, amap)
                except InvalidMap:
                    continue
                maps.append(amap)
        assert len(maps) == {(16, 16, 16): 48, (15, 16, 16): 16}.get(dims, 8)
        j = dict(self.CURRENTS, **self.nyquist_currents(dims))[current]
        state = random_band_limited(g, seed=5, kmax=1, mean_b=(0.0, 0.2, 0.1))
        engine = engine_cls(state, j, 0.3 * cfl_max_dt(g, "yee"))
        agrid = engine.analysis_grid
        # the Gaussian and the Nyquist modes keep the own grid: the sub-node
        # shift of a Nyquist plane
        assert (agrid == g) == (current in ("gaussian", "nyquist", "mixed"))
        profile, pulled = _pulled_profiles(engine, maps)
        assert list(pulled) == maps
        scale = np.max(np.abs(profile))
        assert np.max(np.abs(profile - j.spatial_profile(agrid))) <= 1e-13 * scale
        for amap, mapped in pulled.items():
            if current == "mixed" and shift == "sub":
                # the closed form shifts cos(k . x) with its own k; a pullback
                # shifts the sampled profile's band-limited interpolant, which
                # turns a Nyquist component by a cosine on the kz = 0 plane
                expected = _pull_array(j.spatial_profile(agrid), agrid, amap)
            else:
                expected = j.profile_at(agrid, amap)
            assert np.max(np.abs(mapped - expected)) <= 1e-13 * scale


class TestRk4Polynomial:
    @staticmethod
    def travelling_mode(g, n, direction):
        """E = p sin(k.x), B = direction * khat x p sin(k.x): one rfftn mode,
        an eigenvector of the free-field operator with eigenvalue
        -direction * i |k|."""
        k = 2.0 * np.pi * np.asarray(n) / np.asarray(g.lengths)
        khat = k / np.linalg.norm(k)
        p = np.cross(khat, [0.3, -0.5, 0.8])
        phase = np.sin(sum(ki * xi for ki, xi in zip(k, g.meshgrid())))
        data = np.concatenate([np.multiply.outer(p, phase),
                               direction * np.multiply.outer(np.cross(khat, p), phase)])
        return FieldState.from_data(g, data, 0.0), np.linalg.norm(k)

    @pytest.mark.parametrize("n", [(0, 0, 1), (0, 0, 7), (1, 2, 3), (7, 7, 7)])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_one_step_is_the_stability_polynomial(self, n, direction):
        # at the spectral CFL limit, kappa h runs up to 1.37 for mode (7, 7, 7)
        g = GridSpec.cube(1.0, 16)
        dt = cfl_max_dt(g, "spectral")
        state, kappa = self.travelling_mode(g, n, direction)
        engine = SpectralEngine(state, ZeroCurrent(), dt)
        mode = np.argmax(np.max(np.abs(engine.u), axis=0))  # beside round-off modes
        u0 = engine.u[:, mode]
        engine.advance()
        z = -direction * 1j * kappa * dt
        r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert np.max(np.abs(engine.u[:, mode] - r * u0)) <= 1e-15 * np.max(np.abs(u0))

    DRIVES = {
        "planewave": PlaneWaveCurrent(mode=(1, -2, 3), polarization=(3.0, 10.0, -4.0),
                                      omega=5.0, phase_t=0.2),
        # the mean mode, where the drive's vector is all longitudinal (L g = g)
        "uniform": UniformOscillating((3.0, -2.0, 1.0), omega=4.0, phase=0.4),
        # every mode
        "gaussian": GaussianPulseCurrent((0.5, 0.4, 0.5), 0.15, (0.0, 10.0, 5.0),
                                         t0=0.32, tau=0.05),
    }

    @pytest.mark.parametrize("current", sorted(DRIVES))
    @pytest.mark.parametrize("start, nsteps", [("zero", 1), ("random", 4)])
    def test_driven_step_matches_stage_by_stage(self, current, start, nsteps):
        g = GridSpec.cube(1.0, 16)
        dt = cfl_max_dt(g, "spectral")
        if start == "zero":
            state = FieldState(VectorField.zeros(g), VectorField.zeros(g), 0.3)
        else:
            state = random_band_limited(g, seed=6, kmax=2, mean_b=(0.0, 0.2, 0.1), t=0.3)
        j = self.DRIVES[current]
        engine = SpectralEngine(state, j, dt)
        for _ in range(nsteps):
            engine.advance()
        dense = dense_rk4(state, j, dt, nsteps)[:, engine.mask]
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(engine.u - dense)) <= 1e-14 * scale
        free = dense_rk4(state, ZeroCurrent(), dt, nsteps)[:, engine.mask]
        assert np.max(np.abs(dense - free)) > 0.05 * scale  # the drive is not round-off


class TestLongLeap:
    """A free leap of up to 10^12 steps against the closed form of the
    step's power written out per stepper (`field_ops`): Yee's powers stay on
    the unit circle, which a complex power of exp(i theta) would leave."""

    @pytest.mark.parametrize("engine_cls, stepper, oracle",
                             [(SpectralEngine, "spectral", rk4_power),
                              (YeeEngine, "yee", leapfrog_power)], ids=["spectral", "yee"])
    @pytest.mark.parametrize("k", [199, 10**4, 10**6, 10**9, 10**12])
    def test_free_leap_matches_the_closed_form(self, engine_cls, stepper, oracle, k):
        g = GridSpec.cube(1.0, 12)
        state = random_band_limited(g, seed=4, kmax=2, mean_b=(0.0, 0.02, 0.01))
        dt = 0.5 * cfl_max_dt(g, stepper)
        engine = engine_cls(state, ZeroCurrent(), dt)
        expected = oracle(engine.u, g, engine.mask, dt, k)
        engine.advance(k)
        assert engine.step_index == k
        assert np.max(np.abs(engine.u - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestLeap:
    """advance(k) of a free engine, a closed form, against k single steps."""

    LEAPS = (2, 3, 199, 10_000)

    @staticmethod
    def state_with_nyquist(g):
        """A random field with a mean, plus a mode with a Nyquist component
        along x beside a unit one along y; sampled, so the engine takes its
        coefficients from an rfftn."""
        mode = np.array([g.dims[0] // 2, 1, 0])
        k = 2.0 * np.pi * mode / np.asarray(g.lengths)
        p = np.cross(k, (0.3, 0.5, 0.7))
        p *= 0.5 / np.linalg.norm(p)
        wave = np.cos(sum(ki * xi for ki, xi in zip(k, g.meshgrid())))
        data = random_band_limited(g, seed=9, kmax=2, mean_b=(0.0, 0.2, 0.1)).data.copy()
        data[:3] += np.multiply.outer(p, wave)
        return FieldState.from_data(g, data, 0.0)

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    @pytest.mark.parametrize("dims", [(16, 16, 16), (12, 16, 20), (16, 12, 15)],
                             ids=["cubic", "non-cubic", "odd-axis"])
    def test_leap_matches_single_steps(self, engine_cls, dims):
        g = GridSpec(dims, tuple(1.0 / n for n in dims))
        state = self.state_with_nyquist(g)
        dt = 0.3 * cfl_max_dt(g, "yee")
        stepped = engine_cls(state, ZeroCurrent(), dt)
        n = stepped._per_mode(_mode_numbers(dims))
        assert stepped.mask[0, 0, 0] and np.any(2 * np.abs(n[0]) == dims[0])
        for k in self.LEAPS:
            while stepped.step_index < k:
                stepped.advance()
            leapt = engine_cls(state, ZeroCurrent(), dt)
            leapt.advance(k)
            assert leapt.step_index == k
            scale = np.max(np.abs(stepped.u))
            assert np.max(np.abs(leapt.u - stepped.u)) <= 1e-12 * scale, k
            # the mean mode is left as it is
            assert np.array_equal(leapt.u[:, 0], stepped.u[:, 0])

    CURRENTS = {
        "zero": ZeroCurrent(),
        "uniform": UniformOscillating((0.3, -0.2, 0.1), omega=2 * np.pi, phase=0.4),
        "planewave": PlaneWaveCurrent((1, -2, 1), (1.0, 0.5, 0.0), omega=3.0),
        "gaussian": GaussianPulseCurrent((0.5, 0.4, 0.5), 0.2, (0.0, 0.0, 1.0),
                                         t0=0.01, tau=0.02),
    }
    MAPS = (AffineMap.inversion(), AffineMap.quarter_turn(2, 1), AffineMap.quarter_turn(2, 3),
            AffineMap.translation((0.03, 0.0, 0.1)))

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    @settings(derandomize=True, deadline=None, max_examples=24)
    @given(current=st.sampled_from(sorted(CURRENTS)), k=st.integers(2, 64),
           start=st.integers(0, 5))
    def test_driven_leap_matches_single_steps(self, engine_cls, current, k, start):
        g = GridSpec.cube(1.0, 12)
        state = random_band_limited(g, seed=5, kmax=2, mean_b=(0.0, 0.2, 0.1), t=0.003)
        j, dt = self.CURRENTS[current], 0.4 * cfl_max_dt(g, "yee")
        stepped, leapt, closed = (engine_cls(state, j, dt) for _ in range(3))
        if j.is_zero:
            mapped = np.ones((2, *stepped.analysis_grid.dims))
        else:
            mapped = np.concatenate(list(_pulled_profiles(stepped, self.MAPS)[1].values()))
        dual = stepped.dual(mapped)
        for engine in (stepped, leapt, closed):
            engine.advance(start)
        ref = np.concatenate([stepped.advance(1, dual) for _ in range(k)])
        results = [(leapt, leapt.advance(k, dual))]
        if not j.is_zero:  # the closed form itself, which a Gaussian's leap passes by
            results.append((closed, closed._leap(k, dual, closed._reach(dual))))
        for engine, p in results:
            assert engine.step_index == stepped.step_index == start + k
            assert p.shape == ref.shape
            assert np.max(np.abs(p - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(engine.u - stepped.u)) <= 1e-13 * np.max(np.abs(stepped.u))

    def test_a_one_step_leap_is_the_step(self):
        g = GridSpec.cube(1.0, 12)
        state = random_band_limited(g, seed=2, kmax=2)
        j = UniformOscillating((0.1, 0.0, 0.2), omega=1.0)
        for engine_cls in (SpectralEngine, YeeEngine):
            a, b = engine_cls(state, j, 0.01), engine_cls(state, j, 0.01)
            dual = a.dual(np.ones((1, *a.analysis_grid.dims)))
            b.advance()
            assert np.array_equal(a.advance(1, dual), b.pair(dual)[None])
            assert np.array_equal(a.u, b.u)

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    def test_a_dual_of_any_arrays_is_leapt_on_every_mode(self, engine_cls):
        # the mapped current's dual reaches a few modes; one of arbitrary
        # arrays reaches every active mode, and the closed form is exact for it
        g = GridSpec.cube(1.0, 12)
        state = random_band_limited(g, seed=5, kmax=2, mean_b=(0.0, 0.2, 0.1))
        j, dt, k = self.CURRENTS["planewave"], 0.4 * cfl_max_dt(g, "yee"), 64
        stepped, leapt = engine_cls(state, j, dt), engine_cls(state, j, dt)
        modes = leapt.u.shape[1]
        mapped = np.concatenate(list(_pulled_profiles(stepped, self.MAPS)[1].values()))
        assert 4 * len(leapt._reach(stepped.dual(mapped))) < modes
        q = np.random.default_rng(6).standard_normal((2, *stepped.analysis_grid.dims))
        dual = stepped.dual(q)
        r = leapt._reach(dual)
        assert np.array_equal(r, np.arange(modes))
        ref = np.concatenate([stepped.advance(1, dual) for _ in range(k)])
        p = leapt._leap(k, dual, r)
        assert leapt.step_index == stepped.step_index == k
        assert np.max(np.abs(p - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(leapt.u - stepped.u)) <= 1e-13 * np.max(np.abs(stepped.u))

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    @pytest.mark.parametrize("kind", ["generated", "sampled"])
    def test_energy_is_the_dense_sum(self, engine_cls, kind):
        g = GridSpec((16, 12, 15), (1.0 / 16, 1.0 / 12, 1.0 / 15))
        state = random_band_limited(g, seed=4, kmax=2, mean_b=(0.1, 0.0, 0.3))
        assert state.modes is not None  # coefficients handed over by the generator
        if kind == "sampled":  # coefficients from an rfftn of the samples
            state = FieldState.from_data(g, state.data, 0.0)
        engine = engine_cls(state, ZeroCurrent(), 0.3 * cfl_max_dt(g, "yee"))
        for k in (0, 1, 2):  # step 0, one step, then a leap
            if k:
                engine.advance(k)
            s = engine.state()
            dense = np.sum(s.E.data**2 + s.B.data**2) * g.cell_volume
            assert abs(engine.energy() - dense) <= 1e-14 * dense


FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


def counted_ffts(monkeypatch) -> list:
    """The names of numpy's FFT entry points called from now on, in order."""
    calls = []
    for name in FFT_NAMES:
        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestLazyState:
    """Stepped states hold their coefficients until their samples are read."""

    @pytest.mark.parametrize("stepper", ["spectral", "yee"])
    def test_no_fft_until_a_read_then_one_irfftn(self, monkeypatch, stepper):
        g = GridSpec.cube(1.0, 12)
        s = random_band_limited(g, seed=3, kmax=1)
        dt = 0.3 * cfl_max_dt(g, stepper)
        engine = {"spectral": SpectralEngine, "yee": YeeEngine}[stepper](s, ZeroCurrent(), dt)
        assert engine.analysis_grid != g
        calls = counted_ffts(monkeypatch)
        traj = evolve(s, ZeroCurrent(), dt, 3, stepper=stepper)
        engine.advance(2)
        states = [*traj.states[1:], engine.state(), engine.state(engine.analysis_grid)]
        assert calls == []
        for state, read in zip(states, itertools.cycle(("data", "E", "B"))):
            assert state.spectrum is not None
            getattr(state, read)
            assert calls == ["irfftn"]
            assert state.spectrum is None and state.modes is None
            state.data, state.E, state.B
            assert calls == ["irfftn"]
            calls.clear()

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    @pytest.mark.parametrize("dims", [(16, 16, 16), (16, 12, 15), (15, 15, 15)],
                             ids=["cubic", "16x12x15", "odd-cubic"])
    @pytest.mark.parametrize("on", ["own", "analysis"])
    def test_samples_are_the_eager_snapshots(self, engine_cls, dims, on):
        g = GridSpec(dims, tuple(1.0 / n for n in dims))
        s = random_band_limited(g, seed=11, kmax=1, mean_b=(0.1, 0.0, -0.2))
        engine = engine_cls(s, UniformOscillating((0.2, 0.1, 0.0), omega=3.0),
                            0.4 * cfl_max_dt(g, "spectral"))
        grid = g if on == "own" else engine.analysis_grid
        assert (grid == g) == (on == "own")
        engine.advance(3)
        state = engine.state(grid)
        assert state.grid == grid and state.t == pytest.approx(3 * engine.dt)
        assert np.array_equal(state.data, scattered_snapshot(engine, grid))

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    @pytest.mark.parametrize("current", ["zero", "uniform"])
    def test_a_held_state_keeps_its_step(self, engine_cls, current):
        g = GridSpec.cube(1.0, 16)
        s = random_band_limited(g, seed=12, kmax=1)
        j = {"zero": ZeroCurrent(),
             "uniform": UniformOscillating((0.3, 0.0, 0.1), omega=2.0)}[current]
        engine = engine_cls(s, j, 0.3 * cfl_max_dt(g, "spectral"))
        engine.advance(2)
        grids = (g, engine.analysis_grid)
        held = [engine.state(grid) for grid in grids]
        expected = [scattered_snapshot(engine, grid) for grid in grids]
        for k in (1, 199):
            engine.advance(k)
        assert engine.step_index == 202
        for state, samples in zip(held, expected):
            assert state.spectrum is not None
            assert np.array_equal(state.data, samples)

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    def test_an_engine_adopts_an_unread_states_spectrum(self, monkeypatch, engine_cls):
        # no synthesis and no rfftn: the continuation of 3 RK4 steps is the
        # 6 straight steps bit for bit; Yee re-staggers the collocated
        # coefficients, as it does from the synthesised samples
        g = GridSpec.cube(1.0, 32)
        s = random_band_limited(g, seed=13, kmax=2, mean_b=(0.0, 0.2, 0.1))
        dt = 0.3 * cfl_max_dt(g, "yee")
        straight = engine_cls(s, ZeroCurrent(), dt)
        for _ in range(3):
            straight.advance()
        lazy = straight.state()
        calls = counted_ffts(monkeypatch)
        engine = engine_cls(lazy, ZeroCurrent(), dt)
        engine.advance()
        assert calls == [] and lazy.spectrum is not None
        if engine_cls is SpectralEngine:
            for _ in range(2):
                engine.advance()
            for _ in range(3):
                straight.advance()
            assert np.array_equal(engine.u, straight.u)
        else:
            sampled = engine_cls(FieldState.from_data(g, lazy.data, lazy.t), ZeroCurrent(), dt)
            sampled.advance()
            assert np.max(np.abs(engine.u - sampled.u)) <= 1e-15 * np.max(np.abs(sampled.u))

    def test_samples_are_checked_on_their_first_read(self):
        g = GridSpec.cube(1.0, 8)
        coeffs = np.zeros((6, 2), dtype=complex)
        coeffs[2, 1] = np.nan
        state = FieldState.from_spectrum(g, np.array([0, 1]), coeffs, 0.5)
        for _ in range(2):  # the coefficients are kept for the next read
            with pytest.raises(NonFiniteField):
                state.B
            assert state.spectrum is not None


class TestStepYee:
    def test_zero_fields_stay_zero(self):
        g = GridSpec.cube(1.0, 8)
        zero = FieldState(VectorField.zeros(g), VectorField.zeros(g), 0.0)
        out = evolve(zero, ZeroCurrent(), 0.01, 1, stepper="yee").states[1]
        assert np.all(out.E.data == 0.0)

    @pytest.mark.parametrize("dims", [(32, 32, 32), (16, 24, 12), (15, 16, 16)])
    @pytest.mark.parametrize("current", ["zero", "uniform", "planewave", "gaussian"])
    def test_engine_matches_real_space_leapfrog(self, dims, current):
        g = GridSpec(dims, tuple(1.0 / n for n in dims))
        j = {"zero": ZeroCurrent(),
             "uniform": UniformOscillating((0.3, -0.2, 0.1), omega=2 * np.pi),
             "planewave": PlaneWaveCurrent((1, -2, 1), (1.0, 0.5, 0.0), omega=3.0),
             "gaussian": GaussianPulseCurrent((0.5, 0.4, 0.5), 0.2, (0.0, 0.0, 1.0),
                                              t0=0.01, tau=0.02)}[current]
        state = random_band_limited(g, seed=4, kmax=2, mean_b=(0.0, 0.2, 0.1))
        dt, nsteps = 0.5 * cfl_max_dt(g, "yee"), 32
        engine = YeeEngine(state, j, dt)
        for _ in range(nsteps):
            engine.advance()
        expected = yee_leapfrog(state, j, dt, nsteps)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(engine.state().data - expected)) <= 1e-14 * scale
        # paired with a uniform profile: the means, with no snapshot
        ones = np.ones((1, *engine.analysis_grid.dims))
        assert np.allclose(engine.pair(engine.dual(ones))[:, 0],
                           np.sum(expected, axis=(1, 2, 3)) * g.cell_volume,
                           rtol=0, atol=1e-14 * scale * g.volume)

    def test_plane_wave_error_refines_second_order(self):
        spec = PlaneWaveSpec(amplitude=1.0, k=2 * np.pi)
        period = 2 * np.pi / spec.omega
        errs = []
        for n in (16, 32):
            g = GridSpec.cube(1.0, n)
            dt = 0.4 * cfl_max_dt(g, "yee")
            nsteps = int(np.ceil(period / dt))
            dt = period / nsteps
            traj = evolve(plane_wave(spec, g, 0.0), ZeroCurrent(), dt, nsteps, stepper="yee")
            exact = plane_wave(spec, g, traj.states[-1].t)
            errs.append(l2_error(traj.states[-1], exact))
        ratio = errs[0] / errs[1]
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15

    def test_energy_defect_refines_second_order(self):
        defects = []
        for n in (16, 32):
            g = GridSpec.cube(1.0, n)
            spec = PlaneWaveSpec(amplitude=1.0, k=2 * np.pi)
            dt = 0.4 * cfl_max_dt(g, "yee")
            traj = evolve(plane_wave(spec, g, 0.0), ZeroCurrent(), dt, 100, stepper="yee")

            def energy(s):
                return volume_integral(ScalarField(g, np.einsum("i...,i...->...", s.data, s.data)))

            q = [energy(s) for s in traj.states]
            defects.append(max(abs(v - q[0]) for v in q))
        order = np.log2(defects[0] / defects[1])
        assert order >= 1.8

    def test_time_reversal_recovers_to_stepper_order(self):
        def round_trip_error(n, nsteps):
            g = GridSpec.cube(1.0, n)
            state = random_band_limited(g, seed=3, kmax=1)
            dt = 0.3 * cfl_max_dt(g, "yee")
            fwd = evolve(state, ZeroCurrent(), dt, nsteps, stepper="yee")
            end = fwd.states[-1]
            flipped = FieldState(end.E, VectorField(g, -end.B.data, copy=False), 0.0)
            back = evolve(flipped, ZeroCurrent(), dt, nsteps, stepper="yee")
            rec = back.states[-1]
            recovered = FieldState(rec.E, VectorField(g, -rec.B.data, copy=False), 0.0)
            return l2_error(recovered, FieldState(state.E, state.B, 0.0))

        e1 = round_trip_error(16, 20)
        e2 = round_trip_error(32, 40)  # joint (h, dt) halving over the same window
        assert e1 <= 0.05
        assert e1 / e2 >= 3.0  # at least 2nd-order recovery


class TestEvolve:
    def test_zero_steps_returns_singleton(self):
        g = GridSpec.cube(1.0, 8)
        state = random_band_limited(g, seed=4, kmax=1)
        traj = evolve(state, ZeroCurrent(), 0.001, 0)
        assert len(traj) == 1
        assert traj.states[0] is state

    @pytest.mark.parametrize("stepper", ["bogus", ""])
    def test_unknown_stepper_rejected(self, stepper):
        g = GridSpec.cube(1.0, 8)
        state = random_band_limited(g, seed=4, kmax=1)
        with pytest.raises(ValueError, match="unknown stepper"):
            evolve(state, ZeroCurrent(), 0.001, 1, stepper=stepper)

    def test_evolve_matches_repeated_steps(self):
        g = GridSpec.cube(1.0, 8)
        state = random_band_limited(g, seed=5, kmax=1)
        dt = 0.002
        traj = evolve(state, ZeroCurrent(), dt, 3)
        manual = state
        for _ in range(3):
            manual = evolve(manual, ZeroCurrent(), dt, 1).states[1]
        assert l2_error(traj.states[-1], manual) <= 1e-12

    def test_linearity(self):
        g = GridSpec.cube(1.0, 8)
        s1 = random_band_limited(g, seed=6, kmax=1)
        s2 = random_band_limited(g, seed=7, kmax=1)
        a, b = 0.7, -1.3
        combo = FieldState(
            VectorField(g, a * s1.E.data + b * s2.E.data, copy=False),
            VectorField(g, a * s1.B.data + b * s2.B.data, copy=False),
            0.0,
        )
        dt, n = 0.002, 20
        t_combo = evolve(combo, ZeroCurrent(), dt, n).states[-1]
        t1 = evolve(s1, ZeroCurrent(), dt, n).states[-1]
        t2 = evolve(s2, ZeroCurrent(), dt, n).states[-1]
        expect_e = a * t1.E.data + b * t2.E.data
        expect_b = a * t1.B.data + b * t2.B.data
        scale = np.sqrt(np.sum(expect_e**2 + expect_b**2))
        err = np.sqrt(
            np.sum((t_combo.E.data - expect_e) ** 2 + (t_combo.B.data - expect_b) ** 2)
        )
        assert err <= 1e-11 * scale

    def test_trajectory_validates_spacing(self):
        g = GridSpec.cube(1.0, 8)
        s0 = random_band_limited(g, seed=8, kmax=1)
        s1 = FieldState(s0.E, s0.B, 0.5)
        with pytest.raises(ValueError):
            Trajectory([s0, s1], dt=0.1, source=ZeroCurrent())


def sampled(j, grid, t, amap=None) -> VectorField:
    """J (composed with amap) sampled on the grid nodes at time t."""
    return VectorField(grid, j.profile_at(grid, amap) * j.time_factor(t))


class TestCurrents:
    def test_plane_wave_current_is_transverse(self):
        g = GridSpec.cube(1.0, 16)
        j = PlaneWaveCurrent(mode=(0, 0, 2), polarization=(1.0, 0.5, 0.7), omega=1.0)
        assert j.polarization[2] == pytest.approx(0.0)
        field = sampled(j, g, t=0.4)
        d = divergence(field)
        assert np.max(np.abs(d.data)) <= 1e-10

    @pytest.mark.parametrize("dims", [(16, 16, 16), (16, 24, 12), (15, 16, 16), (16, 12, 15)])
    def test_gaussian_modes_are_the_spectrum_of_the_sampled_profile(self, dims):
        # narrow enough to fill the kz = 0 and Nyquist planes
        g = GridSpec(dims, tuple(1.0 / n for n in dims))
        j = GaussianPulseCurrent(center=(0.3, 0.5, 0.6), width=0.08, polarization=(1.0, 2.0, 3.0))
        expected = np.fft.rfftn(projected_gaussian(j, g), axes=(-3, -2, -1)).reshape(3, -1)
        index, coeffs = j.modes(g)
        dense = np.zeros_like(expected)
        dense[:, index] = coeffs  # a mode left out is below 1e-15 of the largest
        assert np.max(np.abs(dense - expected)) <= 1e-15 * np.max(np.abs(expected))
        profile = projected_gaussian(j, g)
        assert np.max(np.abs(j.spatial_profile(g) - profile)) <= 1e-15 * np.max(np.abs(profile))

    def test_gaussian_current_is_projected_transverse(self):
        g = GridSpec.cube(1.0, 16)
        j = GaussianPulseCurrent(center=(0.5, 0.5, 0.5), width=0.12, polarization=(0.0, 0.0, 1.0))
        field = sampled(j, g, t=0.0)
        d = divergence(field)
        assert np.max(np.abs(d.data)) <= 1e-10 * np.max(np.abs(field.data))

    def test_mapped_sampling_matches_gather(self):
        from twopoint.grid import AffineMap, pullback

        g = GridSpec.cube(1.0, 16)
        j = PlaneWaveCurrent(mode=(0, 0, 2), polarization=(1.0, 0.0, 0.0), omega=1.0)
        m = AffineMap.inversion()
        direct = sampled(j, g, 0.3, amap=m)
        via_pullback = pullback(sampled(j, g, 0.3), m)
        assert np.max(np.abs(direct.data - via_pullback.data)) <= 1e-12

    def test_plane_wave_profile_takes_shift_modulo_the_box(self):
        from twopoint.grid import AffineMap

        g = GridSpec((8, 12, 16), (0.15, 0.1, 0.0625))
        j = PlaneWaveCurrent(mode=(1, -2, 3), polarization=(0.3, 1.0, -0.4), omega=1.0)
        lx, ly, _ = g.lengths
        beta = np.array([0.37, -0.21, 0.05])
        a = AffineMap.quarter_turn(2).alpha
        near = j.profile_at(g, AffineMap(a, tuple(beta)))
        far = j.profile_at(g, AffineMap(a, tuple(beta + (3 * lx, -2 * ly, 0.0))))
        assert np.max(np.abs(far - near)) <= 1e-12
        huge = j.profile_at(g, AffineMap(a, (1e308, 0.0, 0.0)))
        assert np.all(np.isfinite(huge))

    def test_uniform_drives_mean_e(self):
        g = GridSpec.cube(1.0, 8)
        zero = FieldState(VectorField.zeros(g), VectorField.zeros(g), 0.0)
        omega = 2 * np.pi
        j = UniformOscillating((1.0, 0.0, 0.0), omega=omega)
        dt, n = 0.001, 500
        traj = evolve(zero, j, dt, n)
        # dE/dt = -J  =>  Ex(t) = (cos(w t) - 1) / w
        t = n * dt
        expected = (np.cos(omega * t) - 1.0) / omega
        mean_ex = float(np.mean(traj.states[-1].E.data[0]))
        assert mean_ex == pytest.approx(expected, abs=1e-8)


class TestPlaneWaveOracle:
    def test_satisfies_discrete_maxwell(self):
        g = GridSpec.cube(1.0, 32)
        spec = PlaneWaveSpec(amplitude=1.3, k=2 * np.pi * 3)
        t = 0.21
        state = plane_wave(spec, g, t)
        z = g.meshgrid()[2]
        dephase = -spec.omega * np.cos(spec.k * z - spec.omega * t) * spec.amplitude
        de_dt = np.zeros((3, *g.dims))
        db_dt = np.zeros((3, *g.dims))
        de_dt[0] = dephase
        db_dt[1] = dephase
        assert np.max(np.abs(de_dt - spectral_curl(state.B))) <= 1e-10 * spec.omega
        assert np.max(np.abs(db_dt + spectral_curl(state.E))) <= 1e-10 * spec.omega
