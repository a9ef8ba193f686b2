import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint.errors import (Diverged, GridMismatch, HistoryUnderflow, InvalidMap,
                             NonFiniteField, NotARotation)
from twopoint.grid import (
    AffineMap,
    FieldState,
    GridSpec,
    VectorField,
    _refine,
    pullback,
    volume_integral,
)
from twopoint.laws import (
    _LEVI,
    TwoPointLawSpec,
    _contract,
    _pulled6,
    cumulative_simpson,
    density,
    flux,
    law_inversion,
    law_local_energy,
    law_rotation,
    law_symmetry,
    law_translation,
    load_law,
    residual,
    run_balance,
    save_law,
    source_power,
)
from twopoint.maxwell import (
    GaussianPulseCurrent,
    PlaneWaveCurrent,
    SpectralEngine,
    UniformOscillating,
    YeeEngine,
    ZeroCurrent,
    cfl_max_dt,
    evolve,
)
from twopoint.waves import PlaneWaveSpec, plane_wave, random_band_limited


@pytest.fixture
def grid():
    return GridSpec.cube(1.0, 16)


def uniform_state(grid, e=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0), t=0.0):
    ed = np.zeros((3, *grid.dims))
    bd = np.zeros((3, *grid.dims))
    for i in range(3):
        ed[i] = e[i]
        bd[i] = b[i]
    return FieldState(VectorField(grid, ed), VectorField(grid, bd), t)


def even_state(grid, seed):
    """Mirror-symmetric data: F(x) = F(-x) componentwise."""
    raw = random_band_limited(grid, seed=seed, kmax=2)
    n = grid.dims[0]
    idx = (-np.arange(n)) % n

    def sym(d):
        return 0.5 * (d + d[:, idx][:, :, idx][:, :, :, idx])

    return FieldState(
        VectorField(grid, sym(raw.E.data)),
        VectorField(grid, sym(raw.B.data)),
        0.0,
    )


class TestConstructors:
    def test_local_energy_density_is_field_energy(self, grid):
        law = law_local_energy()
        s = random_band_limited(grid, seed=1)
        rho = density(law, s, s)
        expected = np.einsum("i...,i...->...", s.data, s.data)
        assert np.max(np.abs(rho.data - expected)) <= 1e-13

    def test_local_energy_on_plane_wave(self, grid):
        law = law_local_energy()
        spec = PlaneWaveSpec(amplitude=1.2, k=2 * np.pi * 2)
        s = plane_wave(spec, grid, 0.3)
        q = volume_integral(density(law, s, s))
        assert q == pytest.approx(grid.volume * spec.amplitude**2, rel=1e-12)

    def test_rotation_at_identity_equals_local_energy(self):
        rot = law_rotation(AffineMap.identity())
        ref = law_local_energy()
        assert np.array_equal(rot.W, ref.W)
        assert np.array_equal(rot.K, ref.K)
        assert np.array_equal(rot.source, ref.source)

    def test_translation_at_zero_equals_local_energy(self, grid):
        tr = law_translation(grid, (0, 0, 0), 0)
        ref = law_local_energy()
        assert np.array_equal(tr.W, ref.W)
        assert np.array_equal(tr.K, ref.K)
        assert np.array_equal(tr.source, ref.source)

    def test_improper_rotation_rejected(self):
        reflection = AffineMap(tuple(np.diag([1.0, 1.0, -1.0]).ravel()), (0, 0, 0))
        with pytest.raises(NotARotation):
            law_rotation(reflection)

    def test_rotation_with_offset_rejected(self, grid):
        m = AffineMap.node_translation(grid, (1, 0, 0))
        with pytest.raises(NotARotation):
            law_rotation(m)

    def test_involutive_laws_have_symmetric_w(self):
        for law in (law_inversion(), law_local_energy()):
            assert np.array_equal(law.W, law.W.T)

    def test_negative_time_shift_rejected(self, grid):
        with pytest.raises(ValueError):
            law_translation(grid, (0, 0, 1), -1)


class TestDensity:
    def test_inversion_density_vanishes_on_plane_wave(self, grid):
        # E along x-hat and B along y-hat stay orthogonal under inversion
        law = law_inversion()
        s = plane_wave(PlaneWaveSpec(amplitude=1.0, k=2 * np.pi * 2), grid, 0.17)
        rho = density(law, s, s)
        assert np.max(np.abs(rho.data)) <= 1e-13

    def test_mirror_symmetric_reduces_to_2eb(self, grid):
        law = law_inversion()
        s = even_state(grid, seed=2)
        rho = density(law, s, s)
        expected = 2.0 * np.einsum("i...,i...->...", s.E.data, s.B.data)
        assert np.max(np.abs(rho.data - expected)) <= 1e-12

    def test_matches_brute_force_quadrature(self):
        # independent oracle: explicit loop over nodes
        g = GridSpec.cube(1.0, 8)
        s = random_band_limited(g, seed=3, kmax=2)
        law = law_inversion()
        q = volume_integral(density(law, s, s))
        e, b = s.E.data, s.B.data
        n = g.dims[0]
        acc = 0.0
        for i in range(n):
            for jj in range(n):
                for k in range(n):
                    mi, mj, mk = (-i) % n, (-jj) % n, (-k) % n
                    acc += b[:, i, jj, k] @ e[:, mi, mj, mk]
                    acc += b[:, mi, mj, mk] @ e[:, i, jj, k]
        expected = acc * g.cell_volume
        assert q == pytest.approx(expected, rel=1e-12)

    def test_rotation_density_on_uniform_x_field(self, grid):
        law = law_rotation(AffineMap.quarter_turn(2))
        s = uniform_state(grid, e=(1.0, 0.0, 0.0))
        rho = density(law, s, s)
        assert np.max(np.abs(rho.data)) <= 1e-14

    def test_swap_invariance_for_inversion(self, grid):
        # exchanging the roles of x and Ax leaves the density unchanged
        law = law_inversion()
        s = random_band_limited(grid, seed=4)
        rho = density(law, s, s)
        rho_m = pullback(rho, law.map)
        assert np.max(np.abs(rho.data - rho_m.data)) <= 1e-13

    def test_plane_wave_translation_value(self, grid):
        spec = PlaneWaveSpec(amplitude=1.5, k=2 * np.pi * 4)
        s = plane_wave(spec, grid, 0.4)
        lam_nodes = grid.dims[2] // 4
        law = law_translation(grid, (0, 0, lam_nodes // 2), 0)  # half wavelength
        q = volume_integral(density(law, s, s))
        assert q == pytest.approx(-grid.volume * spec.amplitude**2, rel=1e-10)

    def test_grid_mismatch(self, grid):
        law = law_local_energy()
        other = random_band_limited(GridSpec.cube(1.0, 8), seed=1)
        mine = random_band_limited(grid, seed=1)
        with pytest.raises(GridMismatch):
            density(law, mine, other)


class TestFlux:
    def test_identity_law_gives_doubled_poynting(self, grid):
        law = law_local_energy()
        s = plane_wave(PlaneWaveSpec(amplitude=1.0, k=2 * np.pi * 2), grid, 0.11)
        f = flux(law, s, s)
        expected = 2.0 * np.cross(s.E.data, s.B.data, axis=0)
        assert np.max(np.abs(f.data - expected)) <= 1e-13

    def test_inversion_flux_isolates_bb_term(self, grid):
        # balance-normalized sign: with E = 0 the flux is -B(x) x B(-x)
        law = law_inversion()
        s = random_band_limited(grid, seed=5)
        s = FieldState(VectorField.zeros(grid), s.B, 0.0)
        f = flux(law, s, s)
        expected = -np.cross(s.B.data, pullback(s.B, law.map).data, axis=0)
        assert np.max(np.abs(f.data - expected)) <= 1e-13

    def test_rotation_flux_formula(self, grid):
        amap = AffineMap.quarter_turn(2)
        law = law_rotation(amap)
        s = random_band_limited(grid, seed=6)
        f = flux(law, s, s)
        rt = amap.alpha_matrix.T  # inverse rotation on the mapped components
        rb = np.einsum("ij,j...->i...", rt, pullback(s.B, amap).data)
        re = np.einsum("ij,j...->i...", rt, pullback(s.E, amap).data)
        expected = np.cross(s.E.data, rb, axis=0) + np.cross(re, s.B.data, axis=0)
        assert np.max(np.abs(f.data - expected)) <= 1e-12

    def test_rotation_law_closes_under_maxwell(self, grid):
        # analytic RHS substitution: d rho/dt + div flux = 0 for J = 0
        from field_ops import spectral_curl
        from twopoint.grid import _pull_array, divergence
        from twopoint.laws import _pulled6, _stack6

        amap = AffineMap.quarter_turn(2)
        law = law_rotation(amap)
        s = random_band_limited(grid, seed=61, kmax=2)
        de = spectral_curl(s.B)
        db = -spectral_curl(s.E)
        f = _stack6(s)
        df = np.concatenate([de, db], axis=0)
        g = _pulled6(s, amap)
        dg = _pull_array(df, grid, amap)
        drho = np.einsum("ab,a...,b...->...", law.W, df, g)
        drho += np.einsum("ab,a...,b...->...", law.W, f, dg)
        r = drho + divergence(flux(law, s, s)).data
        assert np.max(np.abs(r)) <= 1e-11 * np.max(np.abs(drho))


class TestSourcePower:
    def test_zero_current(self, grid):
        law = law_inversion()
        s = random_band_limited(grid, seed=7)
        sp = source_power(law, s, s, ZeroCurrent())
        assert np.all(sp.data == 0.0)

    def test_inversion_couples_only_b(self, grid):
        law = law_inversion()
        s = uniform_state(grid, e=(1.0, 2.0, 3.0), b=(0.0, 0.0, 0.0))
        j = UniformOscillating((1.0, 1.0, 1.0), omega=1.0, phase=np.pi / 2)
        sp = source_power(law, s, s, j)
        assert np.max(np.abs(sp.data)) <= 1e-14

    def test_uniform_b_uniform_j(self, grid):
        # balance-normalized sign: S = -[B.J~ + J.B~] = -2 B.J for constants
        law = law_inversion()
        b = (0.3, -0.2, 0.5)
        s = uniform_state(grid, b=b)
        j = UniformOscillating((1.0, 2.0, -1.0), omega=1.0, phase=np.pi / 2)  # J(0)=amp
        sp = source_power(law, s, s, j)
        expected = -2.0 * (0.3 * 1.0 + -0.2 * 2.0 + 0.5 * -1.0)
        assert np.max(np.abs(sp.data - expected)) <= 1e-13


_ENTRY = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0]),
                   st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


class TestSparseKernels:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(entries=st.lists(_ENTRY, min_size=36, max_size=36),
           seed=st.integers(0, 2**32 - 1))
    def test_contract_matches_dense_einsum(self, entries, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((6, 8, 8, 8))
        g = rng.standard_normal((6, 8, 8, 8))
        t = np.array(entries).reshape(6, 6)
        assert np.array_equal(_contract(t, f, g),
                              np.einsum("ab,a...,b...->...", t, f, g))
        # the source form: a 3-row current profile stands for both halves of Js
        j = rng.standard_normal((3, 8, 8, 8))
        j6 = np.concatenate([j, j])
        assert np.array_equal(_contract(t, f, [*j, *j]),
                              np.einsum("ab,a...,b...->...", t, f, j6))
        assert np.array_equal(_contract(t, [*j, *j], g),
                              np.einsum("ab,a...,b...->...", t, j6, g))

    def test_shipped_laws_are_sparse(self):
        for law in (law_local_energy(), law_inversion(),
                    law_rotation(AffineMap.quarter_turn(0, 1))):
            assert np.count_nonzero(law.W) == 6
            assert np.count_nonzero(law.K) == 12

    def test_overflowing_kernels_raise_nonfinite_without_warnings(self):
        # pyproject turns every RuntimeWarning into an error
        grid = GridSpec.cube(1.0, 8)
        s = random_band_limited(grid, seed=4, kmax=2, amplitude=1e155, t=0.5)
        j = UniformOscillating((1e155, 1e155, 1e155), omega=1.0)  # sin(0.5) != 0
        law = law_inversion()
        for kernel, args in ((density, (law, s)), (flux, (law, s)),
                             (source_power, (law, s, s, j))):
            with pytest.raises(NonFiniteField):
                kernel(*args)

    def test_identity_pullback_is_the_state_array(self, grid):
        s = random_band_limited(grid, seed=3, kmax=2)
        assert _pulled6(s, AffineMap.identity()) is s.data
        shifted = AffineMap.translation((1.0, 0.0, 0.0))  # one whole box length
        assert np.array_equal(_pulled6(s, shifted), s.data)

    def test_gaussian_profile_built_a_fixed_number_of_times(self, grid, monkeypatch):
        # the Gaussian is sampled once per run, for the engine's `modes`;
        # the rows' profile comes from its coefficients, and the dual from
        # that profile's pullbacks.  A run makes 1 + 1 + 1 + nsteps + 2 x
        # rows transforms: the sampled bump, the profile on the analysis
        # grid, the dual's one rfftn of the pulled-back profiles, one per
        # snapshot and two per interior row's divergence (5 rows at 4
        # steps, 17 at 12)
        calls = {"sampled": 0, "spatial_profile": 0, "fft": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GaussianPulseCurrent, "_spectrum",
                            counted("sampled", GaussianPulseCurrent._spectrum))
        monkeypatch.setattr(GaussianPulseCurrent, "spatial_profile",
                            counted("spatial_profile", GaussianPulseCurrent.spatial_profile))
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted("fft", getattr(np.fft, name)))
        small = GridSpec.cube(1.0, 8)
        s = random_band_limited(small, seed=4, kmax=1)
        j = GaussianPulseCurrent((0.5, 0.5, 0.5), 0.2, (0.0, 1.0, 0.0), t0=0.002, tau=0.003)
        laws = [law_local_energy(), law_inversion(), law_translation(small, (0, 1, 0), 1)]
        counts = []
        for nsteps in (4, 12):
            calls.update(dict.fromkeys(calls, 0))
            run_balance(s, j, 1e-3, nsteps, laws, analysis_stride=2)
            counts.append(dict(calls))
        assert counts == [{"sampled": 1, "spatial_profile": 0, "fft": 17},
                          {"sampled": 1, "spatial_profile": 0, "fft": 49}]


@pytest.mark.parametrize("stepper,engine", [("spectral", SpectralEngine), ("yee", YeeEngine)])
@pytest.mark.parametrize("current", ["zero", "uniform", "gaussian"])
def test_non_finite_step_diverges_naming_it(grid, monkeypatch, stepper, engine, current):
    original = engine.advance

    def advance(self, k=1, dual=None):
        pairs = original(self, k, dual)
        if self.step_index == 3:
            self.u = np.full_like(self.u, np.inf)
        return pairs

    monkeypatch.setattr(engine, "advance", advance)
    j = {"zero": ZeroCurrent(),
         "uniform": UniformOscillating((0.02, 0.0, 0.01), omega=2 * np.pi),
         "gaussian": GaussianPulseCurrent((0.5, 0.5, 0.5), 0.2, (0.0, 1.0, 0.0))}[current]
    s = random_band_limited(grid, seed=5, kmax=1)
    dt = 0.3 * cfl_max_dt(grid, stepper)
    with np.errstate(invalid="ignore"):  # inf - inf while stepping on
        with pytest.raises(Diverged, match="at step 3$"):
            run_balance(s, j, dt, 8, [law_local_energy(), law_inversion()], stepper=stepper)
        with pytest.raises(Diverged, match="at step 3$"):
            evolve(s, j, dt, 8, stepper=stepper)


@pytest.mark.parametrize("stepper", ["spectral", "yee"])
def test_a_strongly_driven_stable_run_evolves(stepper):
    # the current grows the field far beyond its initial size; nothing is
    # unstable, so evolve completes as run_balance does
    g = GridSpec.cube(1.0, 8)
    s = random_band_limited(g, seed=3, kmax=1, amplitude=1e-3)
    j = UniformOscillating((1e11, 0.0, 0.0), omega=1.0)
    traj = evolve(s, j, 1e-3, 40, stepper=stepper)
    assert np.max(np.abs(traj.states[-1].E.data)) > 1e6 * np.max(np.abs(s.E.data))
    rep = run_balance(s, j, 1e-3, 40, law_local_energy(), stepper=stepper, analysis_stride=10)
    assert rep.max_defect <= 1e-5 * np.max(np.abs(rep.Q))


@pytest.mark.parametrize("stepper", ["spectral", "yee"])
@pytest.mark.parametrize("size,step", [("current", 1), ("state", 0)])
def test_pairings_that_overflow_name_their_step_without_a_warning(stepper, size, step):
    # a 1e160 current drives a field whose pairings with it overflow at the
    # first step; a state of energy 1e300 whose mean B meets that current
    # overflows them at step 0, though its energy is finite.  RuntimeWarnings
    # are errors here, so the pairing's overflow must stay silent
    g = GridSpec.cube(1.0, 8)
    s = random_band_limited(g, seed=3, kmax=1, **(
        {"amplitude": 1e150, "mean_b": (0.0, 1e150, 0.0)} if size == "state" else {}))
    j = UniformOscillating((1e160, 0.0, 0.0), omega=1.0)
    with pytest.raises(Diverged, match=f"^field is not finite at step {step}$"):
        run_balance(s, j, 1e-3, 40, law_local_energy(), stepper=stepper, analysis_stride=10)


def _leaps(grid, monkeypatch, engine, stepper, j):
    """The k of each `advance` call of a 400-step run at stride 200, whose
    rows at 0, 200 and 400 read steps 0, 199, 200, 201 and 400."""
    leaps = []
    original = engine.advance

    def advance(self, k=1, dual=None):
        leaps.append(k)
        return original(self, k, dual)

    monkeypatch.setattr(engine, "advance", advance)
    s = random_band_limited(grid, seed=2, kmax=2, mean_b=(0.0, 0.2, 0.1))
    laws = [law_local_energy(), law_inversion(), law_translation(grid, (0, 0, 3), 0)]
    run_balance(s, j, 1e-3, 400, laws, stepper=stepper, analysis_stride=200)
    return leaps


@pytest.mark.parametrize("stepper,engine", [("spectral", SpectralEngine), ("yee", YeeEngine)])
def test_free_runs_leap_between_the_steps_rows_read(grid, monkeypatch, stepper, engine):
    leaps = _leaps(grid, monkeypatch, engine, stepper, ZeroCurrent())
    assert sum(leaps) == 400 and len(leaps) <= len({0, 199, 200, 201, 400})


@pytest.mark.parametrize("stepper,engine", [("spectral", SpectralEngine), ("yee", YeeEngine)])
@pytest.mark.parametrize("current", ["uniform", "planewave"])
def test_driven_runs_leap_between_the_steps_rows_read(grid, monkeypatch, stepper, engine,
                                                      current):
    # each leap returns the pairings of the steps it passes, so the source
    # work is still integrated over every step
    j = {"uniform": UniformOscillating((0.02, 0.0, 0.01), omega=2 * np.pi),
         "planewave": PlaneWaveCurrent((1, 2, 0), (0.0, 0.0, 1.0), omega=2 * np.pi)}[current]
    leaps = _leaps(grid, monkeypatch, engine, stepper, j)
    assert sum(leaps) == 400 and len(leaps) <= len({0, 199, 200, 201, 400})


def test_norm_scale_is_the_initial_field_energy(grid):
    s = random_band_limited(grid, seed=6, kmax=2, mean_b=(0.1, 0.0, 0.2))
    dense = np.sum(s.E.data**2 + s.B.data**2) * grid.cell_volume
    traj = evolve(s, ZeroCurrent(), 1e-3, 4)
    assert residual(traj, law_local_energy()).norm_scale == dense  # the stored state's sum
    for stepper in ("spectral", "yee"):  # Parseval over the engine's coefficients
        rep = run_balance(s, ZeroCurrent(), 1e-3, 4, law_local_energy(), stepper=stepper)
        assert abs(rep.norm_scale - dense) <= 1e-14 * dense


class TestResidual:
    def test_static_fields_zero_residual(self, grid):
        s = uniform_state(grid, e=(0.1, 0.2, 0.3), b=(-0.4, 0.5, 0.6))
        traj = evolve(s, ZeroCurrent(), 0.002, 6)
        for law in (law_local_energy(), law_inversion()):
            rep = residual(traj, law)
            assert rep.max_r <= 1e-13
            assert rep.max_defect <= 1e-13

    def test_spectral_residual_refines_second_order_in_dt(self, grid):
        s = random_band_limited(grid, seed=8, kmax=2)
        law = law_inversion()
        r_at = []
        for dt in (1.6e-3, 0.8e-3, 0.4e-3):
            traj = evolve(s, ZeroCurrent(), dt, 8)
            rep = residual(traj, law)
            r_at.append(rep.max_r)
        orders = np.log2(np.array(r_at[:-1]) / np.array(r_at[1:]))
        assert np.all(orders >= 1.8)

    def test_yee_residual_refines_jointly(self):
        spec = PlaneWaveSpec(amplitude=1.0, k=2 * np.pi)
        norms = []
        for n in (16, 32):
            g = GridSpec.cube(1.0, n)
            dt = 0.3 * cfl_max_dt(g, "yee")
            traj = evolve(plane_wave(spec, g, 0.0), ZeroCurrent(), dt, 10, stepper="yee")
            rep = residual(traj, law_local_energy())
            norms.append(rep.max_r)
        ratio = norms[0] / norms[1]
        assert 4.0 * 0.8 <= ratio <= 4.0 * 1.25

    def test_translation_with_time_shift(self, grid):
        s = random_band_limited(grid, seed=9, kmax=2)
        dt = 1e-3
        law = law_translation(grid, (0, 0, 3), dt_steps=2)
        traj = evolve(s, ZeroCurrent(), dt, 12)
        rep = residual(traj, law)
        # the shifted pairing is still an exact law: the pointwise residual
        # is centered-difference small and the global defect near noise
        assert rep.max_r <= 5e-2
        assert rep.max_defect <= 1e-9 * rep.norm_scale

    def test_history_underflow(self, grid):
        s = random_band_limited(grid, seed=10, kmax=1)
        traj = evolve(s, ZeroCurrent(), 1e-3, 3)
        law = law_translation(grid, (0, 0, 1), dt_steps=2)
        with pytest.raises(HistoryUnderflow):
            residual(traj, law)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_analysis_stride_below_one_rejected(self, grid, stride):
        s = random_band_limited(grid, seed=10, kmax=1)
        with pytest.raises(ValueError, match="stride"):
            run_balance(s, ZeroCurrent(), 1e-3, 4, law_inversion(), analysis_stride=stride)
        with pytest.raises(ValueError, match="stride"):
            residual(evolve(s, ZeroCurrent(), 1e-3, 4), law_inversion(), analysis_stride=stride)

    def test_inversion_global_balance_short_run(self, grid):
        s = random_band_limited(grid, seed=11, kmax=2)
        rep = run_balance(s, ZeroCurrent(), 1e-3, 600, law_inversion(),
                          analysis_stride=30)
        assert rep.max_q_drift <= 1e-8 * rep.norm_scale

    @pytest.mark.parametrize("stepper", ["spectral", "yee"])
    @pytest.mark.parametrize("current", ["zero", "uniform"])
    def test_streaming_matches_posthoc(self, grid, stepper, current):
        s = random_band_limited(grid, seed=12, kmax=1, mean_b=(0.0, 0.1, 0.0))
        if current == "zero":
            j = ZeroCurrent()
        else:
            j = UniformOscillating((0.02, 0.0, 0.01), omega=2 * np.pi)
        dt, n = 1e-3, 24
        law = law_inversion()
        stream = run_balance(s, j, dt, n, law, stepper=stepper)
        post = residual(evolve(s, j, dt, n, stepper=stepper), law)
        # streaming evaluates the rows on the coarse analysis grid and takes
        # the field means from the engine's own arrays; the stored path reads
        # fine snapshots and sums them
        assert_reports_agree(stream, post)

    @pytest.mark.parametrize("stepper", ["spectral", "yee"])
    def test_each_law_reads_the_steps_of_its_own_shift(self, grid, stepper):
        # 20 steps at stride 6 with m_max = 2: the last analysis step is
        # a = 18, an interior row of the m = 0 law, which reads step 17; no
        # row of the m = 2 law reads it
        s = random_band_limited(grid, seed=16, kmax=1, mean_b=(0.0, 0.1, 0.0))
        j = PlaneWaveCurrent((1, 2, 0), (0.0, 0.0, 1.0), omega=2 * np.pi)
        dt, n, stride = 1e-3, 20, 6
        laws = [law_translation(grid, (0, 0, 3), 0), law_translation(grid, (0, 0, 3), 2)]
        traj = evolve(s, j, dt, n, stepper=stepper)
        runs = {"stream": lambda ls: run_balance(s, j, dt, n, ls, stepper, stride),
                "stored": lambda ls: residual(traj, ls, stride)}
        for name, run in runs.items():
            together = run(laws)
            assert np.isfinite(together[0].r_max[-1]), name  # an interior row
            for rep, law in zip(together, laws):
                alone = run(law)
                k = len(rep.t)
                for field in ("t", "Q", "source_cum", "defect", "r_l2", "r_max"):
                    a, b = getattr(rep, field), getattr(alone, field)[:k]
                    if name == "stored":
                        assert np.array_equal(a, b, equal_nan=True), (name, law.label, field)
                    else:  # the two runs may leap between different steps, in
                        # closed form where `_leaps` takes it: rounding, which D_t rho
                        # divides by dt in the residual.  With every leap forced into
                        # closed form the moves were <= 1.1e-16 E and 1.9e-16 E/dt
                        scale = rep.norm_scale / (dt if field.startswith("r_") else 1.0)
                        assert np.allclose(a, b, rtol=0, atol=1e-14 * scale,
                                           equal_nan=True), (name, law.label, field)

    def test_sourced_defect_small_but_work_nonzero(self, grid):
        s = random_band_limited(grid, seed=13, kmax=1, mean_b=(0.0, 0.2, 0.1))
        j = UniformOscillating((0.05, 0.03, 0.04), omega=2 * np.pi)
        dt, n = 1e-3, 2000
        reports = run_balance(
            s, j, dt, n,
            [law_inversion(), law_rotation(AffineMap.quarter_turn(2))],
            analysis_stride=100,
        )
        for rep in reports:
            assert rep.max_defect <= 1e-8 * rep.norm_scale
        # the work term is genuinely exercised
        assert reports[0].max_q_drift >= 1e-4 * reports[0].norm_scale

    def test_yee_streaming_balance(self):
        g = GridSpec.cube(1.0, 16)
        s = random_band_limited(g, seed=14, kmax=1)
        dt = 0.3 * cfl_max_dt(g, "yee")
        rep = run_balance(s, ZeroCurrent(), dt, 40, law_local_energy(),
                          stepper="yee", analysis_stride=5)
        assert rep.max_defect <= 1e-2 * rep.norm_scale  # 2nd-order stepper
        assert np.isfinite(rep.max_r)


def assert_reports_agree(coarse, fine):
    """The stated agreement of a coarse-grid (or engine-means) balance run
    with the fine-grid one: Q and defect to 1e-13 absolute, source_cum to
    1e-15 absolute, r_max to 1e-9 relative."""
    for name, atol in (("Q", 1e-13), ("source_cum", 1e-15), ("defect", 1e-13)):
        assert np.allclose(getattr(coarse, name), getattr(fine, name),
                           rtol=0, atol=atol), name
    finite = np.isfinite(fine.r_max)
    assert np.array_equal(finite, np.isfinite(coarse.r_max))
    assert np.allclose(coarse.r_max[finite], fine.r_max[finite], rtol=1e-9, atol=0)


_SIGNED_PERMUTATIONS = [
    np.eye(3)[list(perm)] * np.array(signs)[:, None]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
]


def symmetry_law(alpha, beta, m):
    return law_symmetry(AffineMap(tuple(alpha.ravel()), beta), m)


def shipped_tensors(alpha):
    """(W, K, source) as the shipped constructors wrote them out by hand
    before `law_symmetry`: the rotation form with R^T, the local energy
    form (R = I) and the inversion form."""
    w = np.zeros((6, 6))
    k = np.zeros((3, 6, 6))
    g = np.zeros((6, 6))
    if np.array_equal(alpha, -np.eye(3)):
        w[:3, 3:] = w[3:, :3] = np.eye(3)
        k[:, :3, :3] = _LEVI
        k[:, 3:, 3:] = -_LEVI
        g[3:, 3:] = -np.eye(3)
    elif np.array_equal(alpha, np.eye(3)):
        w = np.eye(6)
        k[:, :3, 3:] = _LEVI
        k[:, 3:, :3] = np.transpose(_LEVI, (0, 2, 1))
        g[:3, :3] = -np.eye(3)
    else:
        rt = alpha.T
        w[:3, :3] = w[3:, 3:] = rt
        k[:, :3, 3:] = np.einsum("ijk,kl->ijl", _LEVI, rt)
        k[:, 3:, :3] = np.einsum("ijk,jl->ikl", _LEVI, rt)
        g[:3, :3] = -rt
    return w, k, g


_PROPER = [a for a in _SIGNED_PERMUTATIONS if np.linalg.det(a) > 0]


class TestLawSymmetry:
    CURRENTS = {
        "zero": ZeroCurrent(),
        "uniform": UniformOscillating((0.05, 0.03, 0.04), omega=2 * np.pi),
        "planewave": PlaneWaveCurrent((1, 2, 0), (0.0, 0.0, 1.0), omega=2 * np.pi),
    }

    def test_reproduces_every_shipped_constructor(self, grid):
        cases = [(law_local_energy(), np.eye(3), "local-energy"),
                 (law_inversion(), -np.eye(3), "inversion"),
                 (law_translation(grid, (1, -2, 3), 2), np.eye(3), "translation-1--2-3-m2")]
        cases += [(law_rotation(AffineMap(tuple(a.ravel()), (0.0, 0.0, 0.0))), a, "rotation")
                  for a in _PROPER]
        assert len(cases) == 27
        for law, alpha, label in cases:
            assert law.label == label
            general = law_symmetry(law.map, law.time_shift_steps)
            for name, hand in zip(("W", "K", "source"), shipped_tensors(alpha)):
                assert np.array_equal(getattr(law, name), hand), (label, name)
                assert np.array_equal(getattr(general, name), hand), (label, name)

    @pytest.mark.parametrize("current", sorted(CURRENTS))
    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("shift", ["zero", "whole", "sub"])
    def test_all_48_maps_close(self, grid, shift, m, current):
        h = grid.spacing[0]
        beta = {"zero": (0.0, 0.0, 0.0), "whole": (3 * h, 0.0, 5 * h),
                "sub": (0.13, 0.4, 0.0)}[shift]
        laws = [symmetry_law(a, beta, m) for a in _SIGNED_PERMUTATIONS]
        s = random_band_limited(grid, seed=21, kmax=2, mean_b=(0.0, 0.2, 0.1))
        reports = run_balance(s, self.CURRENTS[current], 1e-3, 8, laws, analysis_stride=4)
        worst = max(rep.max_defect / rep.norm_scale for rep in reports)
        assert worst <= 1e-7


class TestAnalysisGrid:
    CURRENTS = TestLawSymmetry.CURRENTS

    def test_masked_engine_picks_the_coarsest_exact_grid(self):
        g = GridSpec.cube(1.0, 32)
        s = random_band_limited(g, seed=1, kmax=2)
        engine = SpectralEngine(s, ZeroCurrent(), 1e-3)
        assert engine.analysis_grid == GridSpec.cube(1.0, 10)  # 4 kmax + 2 nodes
        # a plane-wave current's mode widens the band
        j = PlaneWaveCurrent((0, 3, 0), (1.0, 0.0, 0.0), omega=1.0)
        assert SpectralEngine(s, j, 1e-3).analysis_grid == GridSpec.cube(1.0, 14)
        # the Yee engine steps the same active modes
        assert YeeEngine(s, ZeroCurrent(), 1e-3).analysis_grid == GridSpec.cube(1.0, 10)
        # every mode below the Nyquist mode is active: 62 coarse nodes >= 32
        full = random_band_limited(g, seed=1, kmax=15)
        assert SpectralEngine(full, ZeroCurrent(), 1e-3).analysis_grid == g

    @pytest.mark.parametrize("engine_cls", [SpectralEngine, YeeEngine])
    def test_coarse_state_is_the_fine_state_resampled(self, engine_cls):
        g = GridSpec.cube(1.0, 16)
        s = random_band_limited(g, seed=2, kmax=1, mean_b=(0.0, 0.1, 0.0))
        engine = engine_cls(s, self.CURRENTS["planewave"], 1e-3)
        coarse_grid = engine.analysis_grid
        assert coarse_grid.dims == (10, 10, 10)
        for _ in range(3):
            engine.advance()
        coarse = engine.state(grid=coarse_grid)
        fine = engine.state()
        assert coarse.grid == coarse_grid and coarse.t == fine.t
        for c in range(6):
            assert np.allclose(_refine(coarse.data[c], coarse_grid, g), fine.data[c],
                               rtol=0, atol=1e-14)
        with pytest.raises(ValueError):
            engine.state(grid=GridSpec.cube(1.0, 12))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(alpha=st.sampled_from(range(48)), shift=st.sampled_from(["zero", "whole", "sub"]),
           m=st.sampled_from([0, 2]), current=st.sampled_from(sorted(CURRENTS)))
    @example(alpha=7, shift="sub", m=2, current="planewave")  # inversion
    @example(alpha=46, shift="whole", m=0, current="uniform")  # an improper swap
    def test_coarse_rows_match_fine_rows(self, alpha, shift, m, current):
        g = GridSpec.cube(1.0, 32)
        h = g.spacing[0]
        beta = {"zero": (0.0, 0.0, 0.0), "whole": (3 * h, -5 * h, 16 * h),
                "sub": (0.13, 0.4, 0.07)}[shift]
        law = symmetry_law(_SIGNED_PERMUTATIONS[alpha], beta, m)
        s = random_band_limited(g, seed=alpha, kmax=2, mean_b=(0.0, 0.2, 0.1))
        j = self.CURRENTS[current]
        dt, n = 1e-3, 6
        coarse = run_balance(s, j, dt, n, law, analysis_stride=2)
        fine = residual(evolve(s, j, dt, n), law, analysis_stride=2)
        assert_reports_agree(coarse, fine)
        assert coarse.max_defect <= 1e-9 * coarse.norm_scale  # the law closes

    def test_masked_run_reads_no_dense_coefficients(self, grid, monkeypatch):
        calls = []
        original = SpectralEngine.dense_coefficients

        def counted(self, u, grid):
            if grid == self.grid:  # analysis-grid snapshots are expected
                calls.append(1)
            return original(self, u, grid)

        monkeypatch.setattr(SpectralEngine, "dense_coefficients", counted)
        s = random_band_limited(grid, seed=6, kmax=1)
        laws = [law_local_energy(), law_inversion(), law_translation(grid, (0, 0, 3), 1)]
        for j in self.CURRENTS.values():
            run_balance(s, j, 1e-3, 12, laws, analysis_stride=3)
        assert calls == []

    def test_own_grid_when_the_coarse_one_is_not_smaller(self):
        g = GridSpec.cube(1.0, 8)
        s = random_band_limited(g, seed=7, kmax=2, mean_b=(0.0, 0.2, 0.1))
        laws = [law_local_energy(), law_inversion(), law_translation(g, (1, -2, 3), 1)]
        for name in ("zero", "planewave"):
            j = self.CURRENTS[name]
            assert SpectralEngine(s, j, 1e-3).analysis_grid == g  # 10 nodes >= 8
            traj = evolve(s, j, 1e-3, 10)
            for law in laws:
                rep = run_balance(s, j, 1e-3, 10, law, analysis_stride=3)
                post = residual(traj, law, analysis_stride=3)
                # a run leaps between the steps its rows read: rounding (Q moved
                # by <= 2.1e-16 E, source_cum by <= 7.9e-21 E, also with every
                # driven leap forced into closed form)
                if name == "zero":
                    assert not np.any(rep.source_cum) and not np.any(post.source_cum)
                else:  # the engine pairs its coefficients with the current in
                    # Fourier space, the stored path sums over the nodes
                    assert np.allclose(rep.source_cum, post.source_cum, rtol=0,
                                       atol=1e-18 * rep.norm_scale)
                for field in ("Q", "defect"):
                    assert np.allclose(getattr(rep, field), getattr(post, field), rtol=0,
                                       atol=1e-13 * rep.norm_scale), field
                for field in ("r_l2", "r_max"):
                    assert np.allclose(getattr(rep, field), getattr(post, field),
                                       rtol=1e-12, atol=0, equal_nan=True), field

    @pytest.mark.parametrize("stepper", ["spectral", "yee"])
    def test_streamed_and_stored_source_work_agree_at_a_nyquist_mixed_mode(self, stepper):
        # a sub-node shift of a current mode with a Nyquist component beside
        # another: both paths pull the same sampled profile back, where the
        # closed form at the mapped points gave a gap of 3.4e-5 of E here
        g = GridSpec.cube(1.0, 8)
        s = random_band_limited(g, seed=7, kmax=1, mean_b=(0.0, 0.2, 0.1))
        j = PlaneWaveCurrent((4, 1, 0), (3.0, -12.0, 5.0), omega=3.0)
        law = law_symmetry(AffineMap.translation((0.13, 0.4, 0.07)))
        stream = run_balance(s, j, 1e-3, 40, law, stepper=stepper, analysis_stride=5)
        post = residual(evolve(s, j, 1e-3, 40, stepper=stepper), law, analysis_stride=5)
        assert np.max(np.abs(stream.source_cum)) > 1e-5 * stream.norm_scale
        for field in ("source_cum", "defect"):
            assert np.allclose(getattr(stream, field), getattr(post, field), rtol=0,
                               atol=1e-15 * stream.norm_scale), field

    def test_map_is_checked_on_the_run_grid(self):
        # x and z have equal lengths but 16 and 8 nodes: the swap is not a
        # symmetry of the grid, though it is one of the 10^3 analysis grid
        g = GridSpec((16, 16, 8), (1.0 / 16, 1.0 / 16, 1.0 / 8))
        s = random_band_limited(g, seed=8, kmax=1)
        assert SpectralEngine(s, ZeroCurrent(), 1e-3).analysis_grid.dims == (6, 6, 6)
        swap = AffineMap((0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        with pytest.raises(InvalidMap):
            run_balance(s, ZeroCurrent(), 1e-3, 4, symmetry_law(swap.alpha_matrix, swap.beta, 0))

    @pytest.mark.parametrize("stepper", ["spectral", "yee"])
    def test_driven_runs_take_no_more_snapshots_than_free_runs(self, grid, monkeypatch,
                                                               stepper):
        calls = []
        original = SpectralEngine.state  # the Yee engine's snapshots go through it too

        def counted(self, grid=None):
            calls.append(1)
            return original(self, grid)

        monkeypatch.setattr(SpectralEngine, "state", counted)
        s = random_band_limited(grid, seed=9, kmax=1, mean_b=(0.0, 0.2, 0.1))
        dt = 0.3 * cfl_max_dt(grid, stepper)
        laws = [law_inversion(), law_translation(grid, (0, 0, 3), 2)]
        currents = dict(self.CURRENTS, gaussian=GaussianPulseCurrent(
            (0.5, 0.4, 0.5), 0.2, (0.0, 0.0, 1.0)))
        counts = {}
        for name, j in currents.items():
            calls.clear()
            run_balance(s, j, dt, 16, laws, stepper=stepper, analysis_stride=5)
            counts[name] = len(calls)
        assert all(n <= counts["zero"] for n in counts.values()), counts


class TestPlaneWaveTwoPointTable:
    def test_cos_kd_for_grid_exact_shifts(self):
        g = GridSpec.cube(1.0, 64)
        spec = PlaneWaveSpec(amplitude=1.25, k=2 * np.pi * 4)
        s = plane_wave(spec, g, 0.0375)
        lam_nodes = 16
        for nodes, cos_kd in ((0, 1.0), (4, 0.0), (8, -1.0), (16, 1.0), (2, np.sqrt(0.5))):
            law = law_translation(g, (0, 0, nodes), 0)
            q = volume_integral(density(law, s, s))
            expected = g.volume * spec.amplitude**2 * cos_kd
            if cos_kd == 0.0:
                assert abs(q) <= 1e-10 * g.volume * spec.amplitude**2
            else:
                assert q == pytest.approx(expected, rel=1e-8)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 21])  # 4-8: every branch's first use
    def test_exact_on_cubics(self, n):
        x = np.linspace(0.0, 2.0, n)
        y = 3 * x**3 - x + 2
        exact = 0.75 * x**4 - 0.5 * x**2 + 2 * x
        out = cumulative_simpson(y, x[1] - x[0])
        assert np.max(np.abs(out - exact)) <= 1e-12

    def test_three_samples_exact_on_quadratics(self):
        # the shortest series a balance run integrates (nsteps = m + 2)
        x = np.array([0.0, 0.25, 0.5])
        out = cumulative_simpson(5 * x**2 - 2 * x + 1, 0.25)
        assert np.max(np.abs(out - (5 / 3 * x**3 - x**2 + x))) <= 1e-15

    def test_fourth_order_on_sine(self):
        errs = []
        for n in (32, 64):
            x = np.linspace(0.0, 1.0, n + 1)
            out = cumulative_simpson(np.sin(2 * np.pi * x), x[1] - x[0])
            exact = (1 - np.cos(2 * np.pi * x)) / (2 * np.pi)
            errs.append(np.max(np.abs(out - exact)))
        assert errs[0] / errs[1] >= 8.0  # at least 3rd order everywhere


class TestLawFiles:
    def test_round_trip(self, tmp_path, grid):
        law = law_translation(grid, (1, -2, 3), dt_steps=2)
        path = tmp_path / "t.law"
        save_law(law, path)
        back = load_law(path)
        assert np.array_equal(back.W, law.W)
        assert np.array_equal(back.K, law.K)
        assert np.array_equal(back.source, law.source)
        assert back.map.alpha == law.map.alpha
        assert back.map.beta == law.map.beta
        assert back.time_shift_steps == 2
        assert back.label == law.label
        text = path.read_text()
        assert "exactness" not in text
        # a `map.exactness` line, as older files carry, is ignored
        old_format = text.replace("dt_shift_steps", "map.exactness = grid_exact\ndt_shift_steps")
        path.write_text(old_format)
        assert load_law(path).map == law.map
