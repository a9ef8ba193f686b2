import contextlib
import filecmp
import io
import os
import subprocess
import sys
import time
import warnings
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
from twopoint.laws import law_local_energy, law_symmetry, save_law, TwoPointLawSpec


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
# every key a current of any kind reads, each valid on 8^3
SOURCE_KEYS = """
source.amplitude = 0.05 0.03 0.04
source.omega = 6.283185307179586
source.mode = 1 2 0
source.polarization = 0 0 1
source.center = 0.5 0.5 0.5
source.width = 0.2
source.tau = 0.01
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


def python_m_twopoint(*argv):
    """`python -m twopoint *argv` in a fresh process on this checkout's src."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "twopoint", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_twopoint_exits_with_the_command_code(tmp_path):
    cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)

    def run(*overrides):
        return python_m_twopoint("verify", cfg, *overrides, f"output.dir={tmp_path / 'out'}")

    bad = run("law.1=bogus")
    assert bad.returncode == EXIT_CONFIG and bad.stderr.startswith("config error:")
    ok = run("grid.dims=8 8 8", "grid.spacing=0.125 0.125 0.125", "initial.kmax=1",
             "nsteps=4", "analysis.stride=2", "law.4=translation 0 0 2 0")
    assert ok.returncode == EXIT_OK, ok.stderr
    assert ok.stdout.startswith("verify: stepper=spectral")
    assert (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("overrides,step", [
    (["source.kind=uniform", "source.amplitude=1e160 0 0"], 1),
    (["source.kind=uniform", "source.amplitude=1e160 0 0", "stepper=yee"], 1),
    (["source.kind=planewave", "source.polarization=0 1e300 0"], 1),
    (["source.kind=gaussian", "source.polarization=0 0 1e300", "source.width=0.2",
      "source.tau=0.01", "source.center=0.5 0.5 0.5"], 1),
    (["source.kind=uniform", "source.amplitude=1e160 0 0", "initial.amplitude=1e150",
      "initial.mean_b=0 1e150 0"], 0),
], ids=["uniform", "uniform-yee", "planewave", "gaussian", "huge-state"])
def test_a_driven_run_that_overflows_prints_only_its_verdict(tmp_path, overrides, step):
    # numpy's overflow warnings would precede the verdict on stderr; the
    # pairings are checked instead, and the verdict names the step
    cfg = write_config(tmp_path / "v.txt", VERIFY_SMALL + PLANEWAVE_SOURCE)
    run = python_m_twopoint("verify", cfg, *overrides, f"output.dir={tmp_path / 'out'}")
    assert run.returncode == EXIT_DIVERGED
    assert run.stderr == f"numerical failure: field is not finite at step {step}\n"


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

    @pytest.mark.parametrize("source", [[], ["source.kind=uniform", "source.amplitude=0.1 0 0",
                                              "source.omega=1.0"]], ids=["zero", "uniform"])
    def test_step_count_beyond_the_address_space_exits_2_at_once(self, tmp_path, source):
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL)  # analysis.stride = 20
        start = time.perf_counter()
        code, printed = run_cleanly(["verify", cfg, *source, "nsteps=1" + "0" * 30,
                                     f"output.dir={tmp_path / 'out'}"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG and "steps" in printed
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("stepper", ["spectral", "yee"])
    def test_free_run_of_a_trillion_steps_ends_with_a_verdict(self, tmp_path, stepper):
        # a free run leaps between the steps its rows read and allocates
        # nothing per step; RK4's damping, or the leapfrog's dispersion, over
        # 1e12 steps may fail the tolerance, so only the verdict is asked for
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL)
        start = time.perf_counter()
        code, printed = run_cleanly(["verify", cfg, f"stepper={stepper}", "nsteps=1000000000000",
                                     "analysis.stride=100000000000",
                                     f"output.dir={tmp_path / 'out'}"])
        assert time.perf_counter() - start < 2.0
        assert code in (EXIT_OK, EXIT_TOLERANCE) and printed.count("law=") == 4

    def test_cfl_violation_exits_diverged(self, tmp_path):
        text = VERIFY_BASE.replace("dt = 0.001", "dt = 1.0")
        cfg = write_config(tmp_path / "c.txt", text)
        assert main(["verify", cfg, f"output.dir={tmp_path/'out'}"]) == EXIT_DIVERGED


    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(stride=st.integers(-3, 3), nsteps=st.integers(-3, 4),
           stepper=st.sampled_from(["spectral", "yee", "bogus", ""]),
           kmax=st.sampled_from(["2", "0", "4"]),  # 4 is the Nyquist mode of 8 nodes
           dims=st.sampled_from(["8 8 8", "8.7 8 8"]),
           amplitude=st.sampled_from(["1.0", "1e140", "1e160", "inf", "nan"]),
           mean_b=st.sampled_from(["0 0 0", "0 nan 0"]),
           huge_shift=st.booleans(), planewave=st.booleans(),
           tolerance=st.sampled_from(["defect_rel=1e-7", "defect_rel=-1e-7",
                                      "residual_max=-1.0"]),
           # on all three axes: 1e-200 and 1e-160 overflow sum h^-2 (1/h^2 is inf,
           # or h^2 is 0), 1e300 the box volume, 1e-150 underflows the cell volume
           spacing=st.sampled_from(["0.125", "1e-200", "1e300", "1e-160", "1e-150"]),
           step=st.sampled_from(["dt=0.001", "cfl_fraction=0.5"]))
    # kmax, dims, amplitude, mean_b, huge_shift, a negative tolerance and each
    # spacing alone on an otherwise runnable config (huge_shift also under a
    # plane-wave current, whose mapped profile takes the shift); random draws
    # seldom leave every other input valid
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="yee", kmax="0", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="4", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8.7 8 8",
             amplitude="1.0", mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8",
             amplitude="1e160", mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=1, nsteps=3, stepper="yee", kmax="2", dims="8 8 8", amplitude="1e160",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1e140",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=1, nsteps=3, stepper="yee", kmax="2", dims="8 8 8", amplitude="1e140",
             mean_b="0 0 0", huge_shift=False, planewave=True,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="inf",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="yee", kmax="2", dims="8 8 8", amplitude="nan",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 nan 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=True, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=True, planewave=True,
             tolerance="defect_rel=1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=True,
             tolerance="defect_rel=-1e-7", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="yee", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="residual_max=-1.0", spacing="0.125", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="1e-200", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="1e300", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="1e-160", step="dt=0.001")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="1e-150", step="cfl_fraction=0.5")
    @example(stride=2, nsteps=4, stepper="spectral", kmax="2", dims="8 8 8", amplitude="1.0",
             mean_b="0 0 0", huge_shift=False, planewave=False,
             tolerance="defect_rel=1e-7", spacing="0.125", step="cfl_fraction=0.5")
    def test_bad_balance_inputs_exit_cleanly(self, tmp_path_factory, stride, nsteps,
                                             stepper, kmax, dims, amplitude, mean_b,
                                             huge_shift, planewave, tolerance, spacing, step):
        tmp = tmp_path_factory.mktemp("v")
        text = VERIFY_SMALL.replace("dt = 0.001\n", "") + (PLANEWAVE_SOURCE if planewave else "")
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
            f"tolerance.{tolerance}", f"grid.spacing={spacing} {spacing} {spacing}", step,
            f"output.dir={tmp / 'out'}"])
        if (stride < 1 or nsteps < 0 or stepper not in ("spectral", "yee")
                or kmax != "2" or dims != "8 8 8" or amplitude in ("inf", "nan")
                or mean_b != "0 0 0" or tolerance != "defect_rel=1e-7" or spacing != "0.125"):
            assert code == EXIT_CONFIG
        elif nsteps < 2:
            assert code == EXIT_INSUFFICIENT
        elif amplitude == "1e160":  # the field energy overflows
            assert code == EXIT_DIVERGED and "step 0" in printed
        elif amplitude == "1e140":  # the field energy is finite, an interior row's r * r is not
            assert "Warning" not in printed
            if stride < nsteps:
                assert code == EXIT_DIVERGED and "step" in printed
            else:
                assert code in (EXIT_OK, EXIT_TOLERANCE)
        elif huge_shift:
            assert code in (EXIT_OK, EXIT_TOLERANCE) and "law=far" in printed

    # the energy of unit-amplitude data on the unit box: random data is
    # scaled to it, a standing wave superposes two travelling ones
    @pytest.mark.parametrize("kind,energy", [("random", 1.0), ("planewave", 1.0),
                                             ("standingwave", 2.0)])
    def test_every_initial_kind_starts_at_initial_time(self, tmp_path, kind, energy):
        cfg = write_config(tmp_path / "v.txt", VERIFY_SMALL + PLANEWAVE_SOURCE)
        code = main(["verify", cfg, "nsteps=4", "analysis.stride=2", "initial.time=5.0",
                     f"initial.kind={kind}", f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_OK
        for path in (tmp_path / "out").glob("balance_*.csv"):
            first_row = path.read_text().splitlines()[2]
            assert float(first_row.split(",")[0]) == 5.0, path.name
        first_row = (tmp_path / "out" / "balance_local-energy.csv").read_text().splitlines()[2]
        assert float(first_row.split(",")[1]) == pytest.approx(energy, rel=1e-12)

    @pytest.mark.parametrize("overrides,expected", [
        (["tolerance.residual_max=1"], EXIT_INSUFFICIENT),
        ([], EXIT_OK),
    ])
    def test_residual_tolerance_with_no_interior_row_exits_4(self, tmp_path, overrides,
                                                              expected):
        # stride = nsteps: rows at steps 0 and 10, and neither has both neighbours
        cfg = write_config(tmp_path / "v.txt", VERIFY_SMALL)
        out = tmp_path / "out"
        code, printed = run_cleanly(["verify", cfg, "nsteps=10", "analysis.stride=10",
                                     *overrides, f"output.dir={out}"])
        assert code == expected, printed
        if expected == EXIT_INSUFFICIENT:
            assert printed.startswith("insufficient data:") and printed.count("\n") == 1
            assert "local-energy" in printed
            assert not list(out.iterdir())

    @pytest.mark.parametrize("dims", ["100000 100000 100000", "8 8 " + "9" * 300],
                             ids=["petabytes", "300-digit"])
    def test_grid_beyond_the_address_space_exits_2(self, tmp_path, dims):
        # 1e15 nodes: the first array would take petabytes, which no machine
        # can map, so it is refused at once and nothing is allocated; a
        # (6, N) float64 array of 64 * 10^300 nodes cannot even be addressed
        cfg = write_config(tmp_path / "v.txt", VERIFY_SMALL)
        code, printed = run_cleanly(["verify", cfg, f"grid.dims={dims}",
                                     f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_CONFIG
        assert printed.startswith("config error:") and printed.count("\n") == 1
        assert len(printed) < 200

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


    @pytest.mark.parametrize("overrides", [
        ["source.kind=planewave", "source.mode=0 0 0"],
        ["source.kind=planewave", "source.mode=1 2"],
        ["source.kind=planewave", "source.polarization=0 1"],
        ["source.kind=planewave", "source.mode=9 0 0"],  # beyond the Nyquist mode of 8 nodes
        ["source.kind=planewave", "source.mode=0 4 0"],  # the Nyquist mode itself
        ["source.kind=uniform", "source.amplitude=1 2"],
        ["source.kind=uniform", "source.amplitude=1 2 3 4"],
        ["source.kind=gaussian", "source.polarization=0 1"],
        ["source.kind=gaussian", "source.center=0.5 0.5"],
        ["source.kind=gaussian", "source.width=0"],
        ["source.kind=gaussian", "source.width=-0.1"],
        ["source.kind=gaussian", "source.tau=0"],
        ["source.kind=gaussian", "source.width=1e-200"],  # its square underflows to 0
        ["source.kind=gaussian", "source.tau=1e-200"],
        ["source.kind=uniform", "source.omega=1e300"],  # |omega| dt >= pi
        ["source.kind=planewave", "source.omega=-1e300"],
        ["initial.mean_b=0 1"],
        ["initial.mean_b=0 1 2 3"],
    ])
    def test_vector_or_source_that_cannot_mean_what_it_says_exits_2(self, tmp_path,
                                                                     overrides):
        cfg = write_config(tmp_path / "v.txt", VERIFY_SMALL + SOURCE_KEYS)
        code, printed = run_cleanly(["verify", cfg, "nsteps=4", "analysis.stride=2", *overrides,
                                     f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_CONFIG
        assert printed.startswith("config error:")

    @pytest.mark.parametrize("command", ["verify", "converge"])
    def test_unresolved_source_omega_exits_2(self, tmp_path, command):
        # dt = 0.001: omega dt = 3.141 < pi runs, 3.142 >= pi is aliased;
        # converge checks its base dt, the largest
        cfg = write_config(tmp_path / "c.txt",
                           VERIFY_SMALL + SOURCE_KEYS + "refinement.levels = 3\n")
        for omega, resolved in (("3141", True), ("3142", False)):
            code, printed = run_cleanly([command, cfg, "nsteps=4", "source.kind=uniform",
                                         f"source.omega={omega}",
                                         f"output.dir={tmp_path / omega}"])
            assert (code == EXIT_CONFIG) != resolved, printed

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(kind=st.sampled_from(["uniform", "planewave", "gaussian", "bogus"]),
           vector=st.sampled_from(["0 1 0", "0 1", "1 0 0 1", "0 nan 1"]),
           mode=st.sampled_from(["1 2 0", "0 0 0", "-3 0 0", "0 9 0"]),
           width=st.sampled_from(["0.2", "0", "-1", "1e-200", "1e200"]),
           tau=st.sampled_from(["0.01", "0", "1e-200", "1e200"]),
           t0=st.sampled_from(["0", "1e200"]))
    @example(kind="gaussian", vector="0 1 0", mode="1 2 0", width="0.2", tau="0.01", t0="0")
    @example(kind="gaussian", vector="0 1 0", mode="1 2 0", width="0.2", tau="0.01", t0="1e200")
    @example(kind="planewave", vector="0 1 0", mode="-3 0 0", width="0.2", tau="0.01", t0="0")
    def test_bad_source_inputs_exit_cleanly(self, tmp_path_factory, kind, vector, mode,
                                            width, tau, t0):
        tmp = tmp_path_factory.mktemp("s")
        cfg = write_config(tmp / "v.txt", VERIFY_SMALL + SOURCE_KEYS)
        vector_key = {"uniform": "source.amplitude"}.get(kind, "source.polarization")
        code, _ = run_cleanly([
            "verify", cfg, "nsteps=4", "analysis.stride=2", f"source.kind={kind}",
            f"{vector_key}={vector}", f"source.center={vector}", f"source.mode={mode}",
            f"source.width={width}", f"source.tau={tau}", f"source.t0={t0}",
            f"output.dir={tmp / 'out'}"])
        valid = kind != "bogus" and vector == "0 1 0"
        if kind == "planewave":
            valid = valid and mode in ("1 2 0", "-3 0 0")
        if kind == "gaussian":  # a huge scale is valid: it runs, or it diverges
            valid = valid and width not in ("0", "-1", "1e-200") and tau not in ("0", "1e-200")
        assert (code == EXIT_CONFIG) != valid


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

    def test_huge_refinement_factor_exits_2_with_a_short_message(self, tmp_path):
        # the Yee ladder's refined grids are beyond the address space; the
        # message abbreviates their node counts
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL + "refinement.levels = 3\n")
        code, printed = run_cleanly(["converge", cfg, "stepper=yee",
                                     "refinement.factor=1" + "0" * 300,
                                     f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_CONFIG and printed.startswith("config error:")
        assert len(printed) < 200

    @pytest.mark.parametrize("source", [[], ["source.kind=uniform", "source.amplitude=0.1 0 0",
                                              "source.omega=1.0"]], ids=["zero", "uniform"])
    def test_huge_refinement_factor_of_the_spectral_ladder_exits_2(self, tmp_path, source):
        # the spectral ladder keeps its grid, but its finest level's step
        # count is beyond the address space; refused before any level runs
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL + "refinement.levels = 3\n")
        code, printed = run_cleanly(["converge", cfg, "stepper=spectral", *source,
                                     "refinement.factor=1" + "0" * 300,
                                     f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_CONFIG and printed.startswith("config error:")
        assert "steps" in printed and len(printed) < 200
        assert not list((tmp_path / "out").iterdir())

    def test_refined_grid_out_of_float_range_exits_2(self, tmp_path):
        # h = 3e-108 has a cell volume of 2.5e-323, which h/4, the finest of
        # three Yee levels, underflows to 0; the base grid itself is valid
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL + "refinement.levels = 3\n")
        args = [cfg, "stepper=yee", "grid.spacing=3e-108 3e-108 3e-108", "nsteps=8"]
        code, printed = run_cleanly(["verify", *args, f"output.dir={tmp_path / 'v'}"])
        assert code == EXIT_DIVERGED and "CFL" in printed  # dt = 0.001 is far too large
        code, printed = run_cleanly(["converge", *args, f"output.dir={tmp_path / 'c'}"])
        assert code == EXIT_CONFIG and printed.startswith("config error:")
        assert not list((tmp_path / "c").iterdir())

    @pytest.mark.parametrize("stepper", ["spectral", "yee"])
    @pytest.mark.parametrize("levels", ["100000000", "1000000000000000000"])
    @pytest.mark.parametrize("nsteps", ["0", "4"])
    def test_huge_refinement_levels_exit_2_at_once(self, tmp_path, stepper, levels, nsteps):
        cfg = write_config(tmp_path / "c.txt", VERIFY_SMALL)
        start = time.perf_counter()
        code, printed = run_cleanly([
            "converge", cfg, f"refinement.levels={levels}", f"stepper={stepper}",
            f"nsteps={nsteps}", f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_CONFIG and "refinement.factor" in printed
        assert time.perf_counter() - start < 1.0

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

    def test_warns_when_nothing_is_kept(self, tmp_path, capsys):
        # at h = 0.002 the dt = 1.5e-5 differencing floor lies above 1e-6 s0
        text = """
grid.dims = 16 16 16
grid.spacing = 0.002 0.002 0.002
discover.map = inversion
discover.ensemble = 24
discover.seed = 7
discover.kmax = 2
"""
        cfg = write_config(tmp_path / "c.txt", text)
        code = main(["discover", cfg, f"output.dir={tmp_path / 'out'}"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        report = (tmp_path / "out" / "discovery_report.txt").read_text()
        assert "nullspace_dim=0\n" in report and "projection[inversion]=0.0\n" in report
        assert os.listdir(tmp_path / "out") == ["discovery_report.txt"]
        (line,) = captured.err.splitlines()
        assert line.startswith("discover warning: map=inversion kept no law; smallest s/s0=")
        assert line.endswith(", tolerance 1e-06")
        assert float(line.split("s/s0=")[1].split(",")[0]) > 1e-6
        assert "warning" not in report and "warning" not in captured.out


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

    # law.N and discover.map read one grammar and name a map's law by one rule
    @pytest.mark.parametrize("descriptor, amap, m, label", [
        ("identity", AffineMap.identity(), 0, "local-energy"),
        ("local-energy", AffineMap.identity(), 0, "local-energy"),
        ("inversion", AffineMap.inversion(), 0, "inversion"),
        ("rotation z 0", AffineMap.identity(), 0, "local-energy"),
        ("rotation z 1", AffineMap.quarter_turn(2, 1), 0, "rotation"),
        ("rotation z 2", AffineMap.quarter_turn(2, 2), 0, "rotation"),
        ("translation 0 0 0 0", AffineMap.identity(), 0, "local-energy"),
        ("translation 0 0 0 2", AffineMap.identity(), 2, "translation-0-0-0-m2"),
        ("translation 1 -2 3 2", AffineMap.translation((0.125, -0.25, 0.75)), 2,
         "translation-1--2-3-m2"),
    ])
    def test_law_and_discover_name_a_map_alike(self, tmp_path, capsys, descriptor, amap, m,
                                               label):
        law = build_law(descriptor, GridSpec((8, 8, 4), (0.125, 0.125, 0.25)))
        assert (law.label, law.map, law.time_shift_steps) == (label, amap, m)
        expected = law_symmetry(amap, m)
        for name in ("W", "K", "source"):
            assert np.array_equal(getattr(law, name), getattr(expected, name)), name
        cfg = write_config(tmp_path / "d.txt", "grid.dims = 8 8 4\n"
                           "grid.spacing = 0.125 0.125 0.25\n"
                           "discover.ensemble = 20\ndiscover.kmax = 1\ndiscover.top = 0\n")
        dmap = "identity" if descriptor == "local-energy" else descriptor
        code = main(["discover", cfg, f"discover.map={dmap}", f"output.dir={tmp_path / 'out'}"])
        assert code == EXIT_OK
        assert f"projection[{label}]=" in capsys.readouterr().out

    @pytest.mark.parametrize("descriptor", ["rotation z q", "translation 0 0 x 0"])
    def test_bad_law_map_exits_2(self, tmp_path, capsys, descriptor):
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)
        code = main(["verify", cfg, f"law.5={descriptor}", f"output.dir={tmp_path/'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("descriptor", ["bogus", "inversion 1", "custom", ""])
    def test_bad_law_descriptor_lists_every_law_form(self, tmp_path, capsys, descriptor):
        cfg = write_config(tmp_path / "v.txt", VERIFY_BASE)
        code = main(["verify", cfg, f"law.1={descriptor}", f"output.dir={tmp_path/'out'}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and err.startswith("config error:")
        if descriptor != "custom":  # which says that it needs a file path
            for form in ("local-energy", "custom FILE", "identity", "inversion",
                         "rotation x|y|z QUARTERS", "translation NX NY NZ MSTEPS"):
                assert form in err, form


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
    @pytest.mark.parametrize("horizon", ["1e30", "1e300"])
    def test_horizon_beyond_a_drift_run_exits_2(self, tmp_path, capsys, horizon):
        # refused before any evolution: the drift run would take every step
        cfg = write_config(tmp_path / "f.txt", FORGE_SMALL)
        start = time.perf_counter()
        code = main(["forge", cfg, f"forge.horizon={horizon}", f"output.dir={tmp_path / 'out'}"])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "Traceback" not in err

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(pde=st.sampled_from(["advection", "burgers", "bogus"]),
           resolution=st.sampled_from(["32", "8", "40.5"]),
           order=st.sampled_from(["2", "9", "0"]),
           # repeated points: equal, and equal modulo forge.length = 2 pi
           points=st.sampled_from(["0.0 1.5 3.0 4.5", "", "0 x", "0.5 0.5 1.0",
                                   "0.0 1.5 6.283185307179586"]),
           nu=st.sampled_from(["0", "-1", "nan"]),
           c=st.sampled_from(["1.0", "0"]),
           horizon=st.sampled_from(["0.5", "0", "-1"]))
    # each rejected value alone on an otherwise runnable config,
    # and advection at zero speed (no stability limit on the step)
    @example(pde="advection", resolution="8", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0", horizon="0.5")
    @example(pde="bogus", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0", horizon="0.5")
    @example(pde="advection", resolution="32", order="9", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0", horizon="0.5")
    @example(pde="advection", resolution="32", order="2", points="", nu="0", c="1.0", horizon="0.5")
    @example(pde="advection", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="0", horizon="0.5")
    @example(pde="burgers", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="-1",
             c="1.0", horizon="0.5")
    @example(pde="burgers", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0", horizon="0.5")
    @example(pde="advection", resolution="32", order="2", points="0.5 0.5 1.0", nu="0",
             c="1.0", horizon="0.5")
    @example(pde="advection", resolution="32", order="2", points="0.0 1.5 6.283185307179586",
             nu="0", c="1.0", horizon="0.5")
    @example(pde="advection", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0", horizon="0")
    @example(pde="burgers", resolution="32", order="2", points="0.0 1.5 3.0 4.5", nu="0",
             c="1.0", horizon="-1")
    def test_bad_forge_inputs_exit_cleanly(self, tmp_path_factory, pde, resolution, order,
                                           points, nu, c, horizon):
        tmp = tmp_path_factory.mktemp("f")
        cfg = write_config(tmp / "f.txt", FORGE_SMALL)
        code, _ = run_cleanly(["forge", cfg, f"forge.pde={pde}", f"forge.resolution={resolution}",
                               f"forge.order={order}", f"forge.points={points}",
                               f"forge.nu={nu}", f"forge.c={c}", f"forge.horizon={horizon}",
                               f"output.dir={tmp / 'out'}"])
        if (pde == "bogus" or resolution != "32" or order != "2"
                or points != "0.0 1.5 3.0 4.5" or nu != "0" or horizon != "0.5"):
            assert code == EXIT_CONFIG
        else:
            assert code == EXIT_OK

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(amplitude=st.sampled_from(["1.25", "1e200", "inf"]),
           k_mode=st.sampled_from(["1", "0", "4"]),  # 4 is the Nyquist mode of 8 nodes
           d_nodes=st.sampled_from(["0 1 -2", "x"]),
           dims=st.sampled_from(["8 8 8", "8 8"]),
           spacing=st.sampled_from(["0.125", "1e150"]))  # 1e150: the box volume overflows
    @example(amplitude="1e200", k_mode="1", d_nodes="0 1 -2", dims="8 8 8", spacing="0.125")
    @example(amplitude="1.25", k_mode="1", d_nodes="0 1 -2", dims="8 8 8", spacing="0.125")
    @example(amplitude="1.25", k_mode="1", d_nodes="0 1 -2", dims="8 8 8", spacing="1e150")
    def test_bad_planewave_inputs_exit_cleanly(self, tmp_path_factory, amplitude, k_mode,
                                               d_nodes, dims, spacing):
        tmp = tmp_path_factory.mktemp("p")
        cfg = write_config(tmp / "p.txt", VERIFY_SMALL)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # each would print to the CLI's stderr
            code, _ = run_cleanly(["planewave", cfg, f"initial.amplitude={amplitude}",
                                   f"initial.k_mode={k_mode}", f"planewave.d_nodes={d_nodes}",
                                   f"grid.dims={dims}", f"grid.spacing={spacing} {spacing} {spacing}",
                                   f"output.dir={tmp / 'out'}"])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if (amplitude == "inf" or k_mode != "1" or d_nodes != "0 1 -2" or dims != "8 8 8"
                or spacing != "0.125"):
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


# command -> (config, overrides, header of each CSV file it writes)
OUTPUT_RUNS = {
    "verify": (VERIFY_SMALL, ["nsteps=4", "analysis.stride=2"], {
        f"balance_{label}.csv": "t,Q,source_cum,defect,r_l2,r_max"
        for label in ("local-energy", "inversion", "rotation", "translation-0-0-3-m0")}),
    "converge": (VERIFY_SMALL + "refinement.levels = 3\n", ["stepper=yee", "nsteps=8"],
                 {"orders.csv": "law,level,h,dt,r_max,defect"}),
    "discover": ("grid.dims = 8 8 4\ngrid.spacing = 0.125 0.125 0.25\n",
                 ["discover.map=inversion", "discover.ensemble=20", "discover.kmax=1"], {}),
    "forge": (FORGE_SMALL, [], {"coefficients.csv": "invariant,alpha_0,alpha_1,alpha_2,alpha_3",
                                "drift_00.csv": "t,g_value,drift",
                                "drift_01.csv": "t,g_value,drift"}),
    "planewave": (VERIFY_SMALL, ["initial.k_mode=1", "planewave.d_nodes=0 1 -2"],
                  {"planewave.csv": "d_nodes,d,Q_analytic,Q_numeric,abs_err"}),
}
INTEGER_COLUMNS = {"level", "invariant", "d_nodes"}


class TestOutputFiles:
    @pytest.mark.parametrize("command", sorted(OUTPUT_RUNS))
    def test_every_csv_cell_parses(self, tmp_path, command):
        text, overrides, headers = OUTPUT_RUNS[command]
        out = tmp_path / "out"
        run_cleanly([command, write_config(tmp_path / "c.txt", text), *overrides,
                     f"output.dir={out}"])
        tables = {p.name: p.read_text().splitlines() for p in out.glob("*.csv")}
        assert {name: lines[:2] for name, lines in tables.items()} == {
            name: ["# schema=1", header] for name, header in headers.items()}
        for name, lines in tables.items():
            columns = lines[1].split(",")
            assert len(lines) > 2, name
            for line in lines[2:]:
                for column, cell in zip(columns, line.split(","), strict=True):
                    if column in INTEGER_COLUMNS:
                        int(cell)
                    elif column != "law":
                        float(cell)


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
