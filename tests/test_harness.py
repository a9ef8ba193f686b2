import contextlib
import filecmp
import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint.harness import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INSUFFICIENT,
    EXIT_OK,
    EXIT_TOLERANCE,
    Config,
    ConfigError,
    build_law,
    main,
)
from twopoint.grid import AffineMap, GridSpec
from twopoint.laws import law_local_energy, save_law, TwoPointLawSpec


def write_config(path, text):
    path.write_text(text)
    return str(path)


def run_cleanly(argv) -> tuple:
    """(exit code, stdout and stderr) of main(argv), after checking that
    the code is one of the documented five and nothing printed a traceback."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_TOLERANCE, EXIT_CONFIG, EXIT_DIVERGED, EXIT_INSUFFICIENT)
    assert "Traceback" not in printed.getvalue()
    return code, printed.getvalue()


VERIFY_BASE = """
# small spectral balance run
grid.dims = 16 16 16
grid.spacing = 0.0625 0.0625 0.0625
stepper = spectral
dt = 0.001
nsteps = 120
analysis.stride = 20
initial.kind = random
initial.seed = 7
initial.kmax = 2
law.1 = local-energy
law.2 = inversion
law.3 = rotation z 1
law.4 = translation 0 0 3 0
tolerance.defect_rel = 1e-7
"""
PLANEWAVE_SOURCE = """
source.kind = planewave
source.mode = 1 2 0
source.polarization = 0 0 1
source.omega = 6.283185307179586
"""
VERIFY_SMALL = VERIFY_BASE.replace("grid.dims = 16 16 16", "grid.dims = 8 8 8").replace(
    "grid.spacing = 0.0625 0.0625 0.0625", "grid.spacing = 0.125 0.125 0.125")
FORGE_SMALL = """
forge.pde = advection
forge.resolution = 32
forge.points = 0.0 1.5 3.0 4.5
forge.order = 2
forge.horizon = 0.5
forge.nu = 0
"""


class TestConfig:
    def test_parse_and_overrides(self, tmp_path):
        path = write_config(tmp_path / "c.txt", "a.b = 1 2 3\nname = x # comment\n")
        cfg = Config.load(path, ["name=y"])
        assert cfg.ints("a.b") == [1, 2, 3]
        assert cfg.str("name") == "y"

    def test_missing_key(self, tmp_path):
        cfg = Config.load(write_config(tmp_path / "c.txt", "a = 1\n"))
        with pytest.raises(ConfigError):
            cfg.str("missing")

    def test_bad_line(self, tmp_path):
        with pytest.raises(ConfigError):
            Config.load(write_config(tmp_path / "c.txt", "just words\n"))

    def test_build_law_descriptors(self):
        g = GridSpec.cube(1.0, 16)
        assert build_law("local-energy", g).label == "local-energy"
        assert build_law("inversion", g).label == "inversion"
        assert build_law("rotation z 1", g).label == "rotation"
        law = build_law("translation 0 0 4 2", g)
        assert law.time_shift_steps == 2

    def test_unread_key_warns_and_keeps_the_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "f.txt", FORGE_SMALL)
        assert main(["forge", cfg, "forge.tol=1e-3", f"output.dir={tmp_path / 'out'}"]) == EXIT_OK
        err = capsys.readouterr().err
        assert err == "config warning: keys not read by forge: forge.tol\n"

    def test_readme_verify_example_reads_every_key(self, tmp_path, capsys, monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = readme.split("Example `verify` config:")[1].split("```")[1]
        cfg = write_config(tmp_path / "v.txt", example)
        small = ["grid.dims=8 8 8", "grid.spacing=0.125 0.125 0.125", "nsteps=4",
                 "analysis.stride=2", "law.4=translation 0 0 2 0"]
        main(["verify", cfg, *small, f"output.dir={tmp_path / 'out'}"])
        # output.dir counts as read when the environment overrides it
        monkeypatch.setenv("TWOPOINT_OUTPUT_DIR", str(tmp_path / "env_out"))
        main(["verify", cfg, *small])
        captured = capsys.readouterr()
        assert captured.out.count("law=translation-0-0-2-m0") == 2
        assert captured.err == ""


class TestVerify:
    def test_passes_and_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)
        code = main(["verify", cfg, f"output.dir={tmp_path/'out'}"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "balance_local-energy.csv").exists()
        first = (tmp_path / "out" / "balance_inversion.csv").read_text().splitlines()
        assert first[0] == "# schema=1"
        assert first[1] == "t,Q,source_cum,defect,r_l2,r_max"

    def test_zero_field_all_defects_zero(self, tmp_path):
        text = VERIFY_BASE.replace("initial.kind = random", "initial.kind = random") + (
            "initial.amplitude = 0.0\n"
        )
        cfg = write_config(tmp_path / "z.txt", text)
        code = main(["verify", cfg, f"output.dir={tmp_path/'out'}"])
        assert code == EXIT_OK
        body = (tmp_path / "out" / "balance_inversion.csv").read_text().splitlines()[2:]
        defects = [float(line.split(",")[3]) for line in body]
        assert all(d == 0.0 for d in defects)

    def test_corrupted_law_fails_tolerance(self, tmp_path):
        good = law_local_energy()
        bad = TwoPointLawSpec(good.map, 0, good.W, np.zeros((3, 6, 6)), good.source,
                              label="k-zeroed")
        law_path = tmp_path / "bad.law"
        save_law(bad, law_path)
        text = VERIFY_BASE + f"law.5 = custom {law_path}\ntolerance.residual_max = 1.0\n"
        cfg = write_config(tmp_path / "bad.txt", text)
        code = main(["verify", cfg, f"output.dir={tmp_path/'out'}"])
        assert code == EXIT_TOLERANCE
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "law=k-zeroed" in summary and "FAIL" in summary

    def test_config_error_exit(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", "grid.dims = 16 16\n")
        assert main(["verify", cfg]) == EXIT_CONFIG

    def test_cfl_violation_exits_diverged(self, tmp_path):
        text = VERIFY_BASE.replace("dt = 0.001", "dt = 1.0")
        cfg = write_config(tmp_path / "c.txt", text)
        assert main(["verify", cfg, f"output.dir={tmp_path/'out'}"]) == EXIT_DIVERGED


    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(stride=st.integers(-3, 3), nsteps=st.integers(-3, 4),
           stepper=st.sampled_from(["spectral", "yee", "bogus", ""]),
           kmax=st.sampled_from(["2", "0", "4"]),  # 4 is the Nyquist mode of 8 nodes
           dims=st.sampled_from(["8 8 8", "8.7 8 8"]),
           amplitude=st.sampled_from(["1.0", "1e160", "inf", "nan"]),
           mean_b=st.sampled_from(["0 0 0", "0 nan 0"]),
           huge_shift=st.booleans(), planewave=st.booleans())
    # kmax, dims, amplitude, mean_b and huge_shift each alone on an otherwise
    # runnable config (huge_shift also under a plane-wave current, whose
    # mapped profile takes the shift); random draws seldom leave every other
    # input valid
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="yee", kmax="0", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="spectral", kmax="4", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8.7 8 8",
             amplitude="1.0", mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8",
             amplitude="1e160", mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=1, nsteps=3, stepper="yee", kmax="2", dims="8 8 8", amplitude="1e160",
             mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="inf",
             mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="yee", kmax="2", dims="8 8 8", amplitude="nan",
             mean_b="0 0 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 nan 0", huge_shift=False, planewave=False)
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=True, planewave=False)
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=True, planewave=True)
    def test_bad_balance_inputs_exit_cleanly(self, tmp_path_factory, stride, nsteps,
                                             stepper, kmax, dims, amplitude, mean_b,
                                             huge_shift, planewave):
        tmp = tmp_path_factory.mktemp("v")
        text = VERIFY_SMALL + (PLANEWAVE_SOURCE if planewave else "")
        if huge_shift:  # a finite shift far outside the box, taken modulo the box
            good = law_local_energy()
            law_path = tmp / "far.law"
            save_law(TwoPointLawSpec(AffineMap.translation((1e308, 0.0, 0.0)), 0, good.W,
                                     good.K, good.source, label="far"), law_path)
            text += f"law.5 = custom {law_path}\n"
        cfg = write_config(tmp / "v.txt", text)
        code, printed = run_cleanly([
            "verify", cfg, f"analysis.stride={stride}", f"nsteps={nsteps}",
            f"stepper={stepper}", f"initial.kmax={kmax}", f"grid.dims={dims}",
            f"initial.amplitude={amplitude}", f"initial.mean_b={mean_b}",
            f"output.dir={tmp / 'out'}"])
        if (stride < 1 or nsteps < 0 or stepper not in ("spectral", "yee")
                or kmax != "2" or dims != "8 8 8" or amplitude in ("inf", "nan")
                or mean_b != "0 0 0"):
            assert code == EXIT_CONFIG
        elif nsteps < 2:
            assert code == EXIT_INSUFFICIENT
        elif amplitude == "1e160":  # the field energy overflows
            assert code == EXIT_DIVERGED and "step 0" in printed
        elif huge_shift:
            assert code in (EXIT_OK, EXIT_TOLERANCE) and "law=far" in printed

    def test_random_state_starts_at_initial_time(self, tmp_path):
        cfg = write_config(tmp_path / "v.txt", VERIFY_SMALL + PLANEWAVE_SOURCE)
        code = main(["verify", cfg, "nsteps=4", "analysis.stride=2", "initial.time=5.0",
                     f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_OK
        for path in (tmp_path / "out").glob("balance_*.csv"):
            first_row = path.read_text().splitlines()[2]
            assert float(first_row.split(",")[0]) == 5.0, path.name

    def test_map_of_another_grid_exits_2(self, tmp_path, capsys):
        # x and z have equal lengths but not equal node counts; the spectral
        # rows run on a 6^3 analysis grid, where the swap would be a symmetry
        law_path = tmp_path / "swap.law"
        save_law(TwoPointLawSpec(AffineMap((0, 0, 1, 0, 1, 0, 1, 0, 0), (0, 0, 0)), 0,
                                 np.eye(6), np.zeros((3, 6, 6)), np.zeros((6, 6))), law_path)
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE + f"law.5 = custom {law_path}\n")
        code = main(["verify", cfg, "grid.dims=16 16 8", "grid.spacing=0.0625 0.0625 0.125",
                     "initial.kmax=1", "nsteps=4", "analysis.stride=2",
                     f"output.dir={tmp_path / 'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "extents differ" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,override", [
        ("converge", "refinement.factor=0"),
        ("converge", "refinement.factor=1"),
        ("planewave", "initial.k_mode=0"),
        ("planewave", "initial.k_mode=4"),  # the Nyquist mode of 8 nodes
    ])
    def test_bad_refinement_and_mode_exit_2(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL + "refinement.levels = 3\n")
        code = main([command, cfg, override, f"output.dir={tmp_path / 'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "Traceback" not in err


    @pytest.mark.parametrize("command", ["verify", "converge"])
    def test_laws_sharing_a_label_exit_2(self, tmp_path, capsys, command):
        # both are labelled "rotation", so they would write one balance_rotation.csv
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL + "refinement.levels = 3\n")
        code = main([command, cfg, "law.5=rotation x 3", f"output.dir={tmp_path / 'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "law.3 and law.5" in err and "Traceback" not in err
        assert not list((tmp_path / "out").glob("*.csv"))


class TestConverge:
    def test_single_level_is_config_error(self, tmp_path):
        text = VERIFY_BASE + "refinement.levels = 1\n"
        cfg = write_config(tmp_path / "c.txt", text)
        assert main(["converge", cfg, f"output.dir={tmp_path/'out'}"]) == EXIT_CONFIG

    def test_yee_ladder_order_two(self, tmp_path):
        text = """
grid.dims = 8 8 8
grid.spacing = 0.125 0.125 0.125
stepper = yee
cfl_fraction = 0.3
nsteps = 8
initial.kind = random
initial.seed = 5
initial.kmax = 1
law.1 = local-energy
law.2 = inversion
refinement.levels = 3
"""
        cfg = write_config(tmp_path / "c.txt", text)
        code = main(["converge", cfg, f"output.dir={tmp_path/'out'}"])
        assert code == EXIT_OK
        summary = (tmp_path / "out" / "orders_summary.txt").read_text()
        assert "PASS" in summary and "FAIL" not in summary
        orders = (tmp_path / "out" / "orders.csv").read_text().splitlines()
        assert orders[0] == "# schema=1"

    def test_spectral_dt_ladder_order_four(self, tmp_path):
        # a strong resonant plane-wave current makes the O(dt^4) forced error
        # dominate the superconvergent O(dt^5) free-field defect; it must
        # propagate off the rotation axis to couple to the rotation law
        text = """
grid.dims = 16 16 16
grid.spacing = 0.0625 0.0625 0.0625
stepper = spectral
dt = 0.004
nsteps = 125
initial.kind = random
initial.seed = 3
initial.kmax = 1
initial.amplitude = 0.5
source.kind = planewave
source.mode = 0 1 0
source.polarization = 1.0 0.0 4.0
source.omega = 6.283185307179586
law.1 = local-energy
law.2 = inversion
law.3 = rotation z 1
law.4 = translation 0 0 2 0
refinement.levels = 3
"""
        cfg = write_config(tmp_path / "c.txt", text)
        code = main(["converge", cfg, f"output.dir={tmp_path/'out'}"])
        summary = (tmp_path / "out" / "orders_summary.txt").read_text()
        assert code == EXIT_OK, summary
        for line in summary.splitlines():
            if line.startswith("law="):
                order = float(line.split("fitted_order=")[1].split()[0])
                assert 3.5 <= order <= 4.5

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(levels=st.sampled_from(["3", "2", "x"]), factor=st.sampled_from(["2", "1", "-2"]),
           stepper=st.sampled_from(["spectral", "yee", "bogus"]),
           nsteps=st.sampled_from(["8", "1", "-1"]), dt=st.sampled_from(["0.001", "-1", "10"]))
    @example(levels="3", factor="2", stepper="yee", nsteps="8", dt="0.001")
    @example(levels="3", factor="2", stepper="spectral", nsteps="1", dt="0.001")
    @example(levels="3", factor="2", stepper="spectral", nsteps="8", dt="10")
    def test_bad_converge_inputs_exit_cleanly(self, tmp_path_factory, levels, factor,
                                              stepper, nsteps, dt):
        tmp = tmp_path_factory.mktemp("c")
        cfg = write_config(tmp / "c.txt", VERIFY_SMALL)
        code, _ = run_cleanly([
            "converge", cfg, f"refinement.levels={levels}", f"refinement.factor={factor}",
            f"stepper={stepper}", f"nsteps={nsteps}", f"dt={dt}", f"output.dir={tmp / 'out'}"])
        if (levels != "3" or factor != "2" or stepper == "bogus" or nsteps == "-1"
                or dt == "-1"):
            assert code == EXIT_CONFIG
        elif dt == "10":  # beyond the CFL limit
            assert code == EXIT_DIVERGED
        elif nsteps == "1":
            assert code == EXIT_INSUFFICIENT


class TestDiscover:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(amap=st.sampled_from(["identity", "inversion", "rotation z 1",
                                 "translation 0 0 1 2", "rotation x 1", "bogus"]),
           ensemble=st.sampled_from(["20", "2", "x"]), kmax=st.sampled_from(["1", "0", "4"]),
           top=st.sampled_from(["2", "0", "-1"]), seed=st.sampled_from(["0", "-5", "1.5"]))
    @example(amap="inversion", ensemble="20", kmax="1", top="2", seed="0")
    @example(amap="translation 0 0 1 2", ensemble="20", kmax="1", top="0", seed="0")
    @example(amap="inversion", ensemble="20", kmax="1", top="2", seed="-5")
    @example(amap="inversion", ensemble="20", kmax="1", top="-1", seed="0")
    def test_bad_discover_inputs_exit_cleanly(self, tmp_path_factory, amap, ensemble, kmax,
                                              top, seed):
        tmp = tmp_path_factory.mktemp("d")
        cfg = write_config(tmp / "d.txt", "grid.dims = 8 8 4\n"
                           "grid.spacing = 0.125 0.125 0.25\n")
        code, _ = run_cleanly([
            "discover", cfg, f"discover.map={amap}", f"discover.ensemble={ensemble}",
            f"discover.kmax={kmax}", f"discover.top={top}", f"discover.seed={seed}",
            f"output.dir={tmp / 'out'}"])
        if amap == "bogus" or ensemble == "x":
            assert code == EXIT_CONFIG
        elif ensemble == "2":  # checked before the other keys and the map's extents
            assert code == EXIT_INSUFFICIENT
        elif (amap == "rotation x 1" or kmax != "1" or top == "-1"
              or seed in ("-5", "1.5")):
            assert code == EXIT_CONFIG

    def test_small_ensemble_exit(self, tmp_path):
        text = """
grid.dims = 8 8 8
grid.spacing = 0.125 0.125 0.125
discover.map = identity
discover.ensemble = 2
"""
        cfg = write_config(tmp_path / "c.txt", text)
        assert main(["discover", cfg, f"output.dir={tmp_path/'out'}"]) == EXIT_INSUFFICIENT

    def test_identity_discovery_writes_candidates(self, tmp_path):
        text = """
grid.dims = 16 16 16
grid.spacing = 0.0625 0.0625 0.0625
discover.map = identity
discover.ensemble = 22
discover.seed = 11
discover.kmax = 2
discover.top = 3
"""
        cfg = write_config(tmp_path / "c.txt", text)
        code = main(["discover", cfg, f"output.dir={tmp_path/'out'}"])
        assert code == EXIT_OK
        report = (tmp_path / "out" / "discovery_report.txt").read_text()
        assert "projection[local-energy]=" in report
        proj = float(report.split("projection[local-energy]=")[1].splitlines()[0])
        assert proj >= 0.999
        assert (tmp_path / "out" / "candidate_00.law").exists()


# a law file complete but for its map, which is not a symmetry of the box
LAW_TAIL = ("map.alpha = {alpha}\nmap.beta = 0 0 0\nW = " + " 0" * 36
            + "\nK = " + " 0" * 108 + "\nsource = " + " 0" * 36 + "\n")

DISCOVER_BASE = """
grid.dims = 16 16 8
grid.spacing = 0.0625 0.0625 0.125
discover.map = identity
discover.ensemble = 20
"""


class TestMapDescriptors:
    @pytest.mark.parametrize("descriptor", [
        "rotation",
        "rotation q 1",
        "rotation z 1.5",
        "translation 0 0 x 0",
        "translation 1 2",
        "translation 0 0 1 -1",
        "identity 1",
        "rotation x 1",  # pairs the 16-node y axis with the 8-node z axis
    ])
    def test_bad_discover_map_exits_2(self, tmp_path, capsys, descriptor):
        cfg = write_config(tmp_path / "c.txt", DISCOVER_BASE)
        code = main(["discover", cfg, f"discover.map={descriptor}",
                     f"output.dir={tmp_path/'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("descriptor", ["rotation z q", "translation 0 0 x 0"])
    def test_bad_law_map_exits_2(self, tmp_path, capsys, descriptor):
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)
        code = main(["verify", cfg, f"law.5={descriptor}", f"output.dir={tmp_path/'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "Traceback" not in err


    @pytest.mark.parametrize("content", [
        None,  # no file at all
        "map.alpha = 1 0 0 0 1 0 0 0 1\nW = 0\n",  # map.beta missing
        "map.alpha = 1 0 0 0 1 0 0 0 1\nmap.beta = 0 0 0\nW = 1 2\nK = 0\nsource = 0\n",
        LAW_TAIL.format(alpha="0.8660254037844387 -0.5 0 0.5 0.8660254037844387 0 0 0 1"),
        LAW_TAIL.format(alpha="1 1 0 0 1 0 0 0 1"),
    ], ids=["missing-file", "missing-key", "bad-shape", "rotation-30deg", "shear"])
    def test_bad_custom_law_file_exits_2(self, tmp_path, capsys, content):
        law_path = tmp_path / "c.law"
        if content is not None:
            law_path.write_text(content)
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)
        code = main(["verify", cfg, f"law.5=custom {law_path}",
                     f"output.dir={tmp_path/'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and str(law_path) in err
        assert "Traceback" not in err


class TestForge:
    def test_advection_four_point_case(self, tmp_path):
        text = """
forge.pde = advection
forge.resolution = 128
forge.c = 1.0
forge.points = 0.0 1.5707963267948966 3.141592653589793 4.71238898038469
forge.order = 2
forge.horizon = 6.283185307179586
forge.f0 = 1 1.0 0.0
"""
        cfg = write_config(tmp_path / "c.txt", text)
        code = main(["forge", cfg, f"output.dir={tmp_path/'out'}"])
        assert code == EXIT_OK
        summary = (tmp_path / "out" / "forge_summary.txt").read_text()
        assert "nullspace_dim=2" in summary
        for line in summary.splitlines():
            if line.startswith("invariant="):
                drift = float(line.split("max_drift=")[1].split()[0])
                assert drift <= 1e-9
        drift_csv = (tmp_path / "out" / "drift_00.csv").read_text().splitlines()
        assert drift_csv[1] == "t,g_value,drift"


class TestForgeAndPlaneWaveInputs:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(pde=st.sampled_from(["advection", "burgers", "bogus"]),
           resolution=st.sampled_from(["32", "8", "40.5"]),
           order=st.sampled_from(["2", "9", "0"]),
           points=st.sampled_from(["0.0 1.5 3.0 4.5", "", "0 x"]),
           nu=st.sampled_from(["0", "-1", "nan"]),
           c=st.sampled_from(["1.0", "0"]))
    # each of the five rejected values alone on an otherwise runnable config,
    # and advection at zero speed (no stability limit on the step)
    @example(pde="advection", resolution="8", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0")
    @example(pde="bogus", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0")
    @example(pde="advection", resolution="32", order="9", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0")
    @example(pde="advection", resolution="32", order="2", points="", nu="0", c="1.0")
    @example(pde="advection", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="0")
    @example(pde="burgers", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="-1",
             c="1.0")
    @example(pde="burgers", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0")
    def test_bad_forge_inputs_exit_cleanly(self, tmp_path_factory, pde, resolution, order,
                                           points, nu, c):
        tmp = tmp_path_factory.mktemp("f")
        cfg = write_config(tmp / "f.txt", FORGE_SMALL)
        code, _ = run_cleanly(["forge", cfg, f"forge.pde={pde}", f"forge.resolution={resolution}",
                               f"forge.order={order}", f"forge.points={points}",
                               f"forge.nu={nu}", f"forge.c={c}", f"output.dir={tmp / 'out'}"])
        if (pde == "bogus" or resolution != "32" or order != "2"
                or points != "0.0 1.5 3.0 4.5" or nu != "0"):
            assert code == EXIT_CONFIG
        else:
            assert code == EXIT_OK

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(amplitude=st.sampled_from(["1.25", "1e200", "inf"]),
           k_mode=st.sampled_from(["1", "0", "4"]),  # 4 is the Nyquist mode of 8 nodes
           d_nodes=st.sampled_from(["0 1 -2", "x"]),
           dims=st.sampled_from(["8 8 8", "8 8"]))
    @example(amplitude="1e200", k_mode="1", d_nodes="0 1 -2", dims="8 8 8")
    @example(amplitude="1.25", k_mode="1", d_nodes="0 1 -2", dims="8 8 8")
    def test_bad_planewave_inputs_exit_cleanly(self, tmp_path_factory, amplitude, k_mode,
                                               d_nodes, dims):
        tmp = tmp_path_factory.mktemp("p")
        cfg = write_config(tmp / "p.txt", VERIFY_SMALL)
        code, _ = run_cleanly(["planewave", cfg, f"initial.amplitude={amplitude}",
                               f"initial.k_mode={k_mode}", f"planewave.d_nodes={d_nodes}",
                               f"grid.dims={dims}", f"output.dir={tmp / 'out'}"])
        if amplitude == "inf" or k_mode != "1" or d_nodes != "0 1 -2" or dims != "8 8 8":
            assert code == EXIT_CONFIG
        elif amplitude == "1e200":  # the two-point energy overflows
            assert code == EXIT_DIVERGED
        else:
            assert code == EXIT_OK


class TestPlaneWave:
    def test_table_matches_analytic(self, tmp_path, capsys):
        text = """
grid.dims = 64 64 64
grid.spacing = 0.015625 0.015625 0.015625
initial.k_mode = 4
initial.amplitude = 1.25
initial.time = 0.0375
planewave.d_nodes = 0 4 8 16
"""
        cfg = write_config(tmp_path / "c.txt", text)
        code = main(["planewave", cfg, f"output.dir={tmp_path/'out'}"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        body = (tmp_path / "out" / "planewave.csv").read_text().splitlines()
        assert body[1] == "d_nodes,d,Q_analytic,Q_numeric,abs_err"


class TestDeterminism:
    def test_verify_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["verify", cfg, f"output.dir={out1}"]) == EXIT_OK
        assert main(["verify", cfg, f"output.dir={out2}"]) == EXIT_OK
        for name in sorted(os.listdir(out1)):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("TWOPOINT_OUTPUT_DIR", str(env_out))
        assert main(["verify", cfg]) == EXIT_OK
        assert (env_out / "summary.txt").exists()
