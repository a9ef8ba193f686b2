"""Config-driven experiment runner.

One experiment per invocation:

    twopoint verify    config.txt [key=value ...]
    twopoint converge  config.txt [key=value ...]
    twopoint discover  config.txt [key=value ...]
    twopoint forge     config.txt [key=value ...]
    twopoint planewave config.txt [key=value ...]

Configs are flat UTF-8 `key = value` text, read by `laws.Config` as law
files are ('#' starts a comment, number lists are space separated);
command-line overrides apply after the file, and keys the command never
reads are named in a warning on stderr.  The output directory comes from
`output.dir`, overridable with the environment variable
TWOPOINT_OUTPUT_DIR.  Every CSV file is written by `laws.write_csv` and
every run summary by `_report` (which also prints it); identical configs
and seeds reproduce both byte for byte.

Exit codes: 0 success, 1 tolerance failure, 2 config error, 3 numerical
divergence, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .discover import MIN_ENSEMBLE, SVD_REL_TOL, discover_laws
from .errors import (
    ConfigError,
    Diverged,
    HistoryUnderflow,
    InsufficientData,
    InvalidMap,
    InvalidWavenumber,
    NonFiniteField,
    StepTooLarge,
)
from .forge import (
    MAX_ORDER,
    Pde1D,
    nullspace_invariants,
    suggested_max_dt,
    time_derivative_samples,
    verify_invariant_drift,
)
from .grid import MAX_NODES, AffineMap, GridSpec, volume_integral
from .laws import (
    Config,
    density,
    law_of_map,
    law_translation,
    load_law,
    run_balance,
    save_law,
    write_csv,
)
from .maxwell import (
    CFL_SAFETY,
    GaussianPulseCurrent,
    PlaneWaveCurrent,
    UniformOscillating,
    ZeroCurrent,
    cfl_max_dt,
    evolve,
)
from .waves import (
    PlaneWaveSpec,
    plane_wave,
    random_band_limited,
    standing_wave,
    twopoint_energy_analytic,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INSUFFICIENT = 4

OUTPUT_ENV_VAR = "TWOPOINT_OUTPUT_DIR"


def output_dir(cfg: Config) -> str:
    configured = cfg.str("output.dir", "out")  # read even when the environment wins
    out = os.environ.get(OUTPUT_ENV_VAR) or configured
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _three(read, key, default=None) -> tuple:
    """A vector config value of exactly three entries (`read` is
    Config.floats or Config.ints)."""
    values = read(key, default)
    if len(values) != 3:
        raise ConfigError(f"{key} needs three entries, got {len(values)}")
    return tuple(values)


def _scale(cfg: Config, key: str, default=None) -> float:
    """A Gaussian scale: > 0, with a float64 square that does not underflow
    to 0 (the profile would be 0/0)."""
    value = cfg.float(key, default)
    if not (value > 0.0 and value * value > 0.0):
        raise ConfigError(f"{key} must be > 0 with a nonzero float64 square, got {value!r}")
    return value


def build_grid(cfg: Config, scale: int = 1) -> GridSpec:
    """The configured grid, refined `scale` times on every axis."""
    dims = _three(cfg.ints, "grid.dims")
    spacing = _three(cfg.floats, "grid.spacing")
    try:
        return GridSpec(tuple(n * scale for n in dims), tuple(h / scale for h in spacing))
    except (ValueError, OverflowError) as exc:  # an integer beyond float range included
        raise ConfigError(f"bad grid: {exc}") from exc


def build_count(cfg: Config, key: str, default=None) -> int:
    """A seed or count: an integer >= 0."""
    n = cfg.int(key, default)
    if n < 0:
        raise ConfigError(f"{key} must be >= 0, got {n}")
    return n


def build_kmax(cfg: Config, key: str, grid: GridSpec) -> int:
    """Band limit of random initial data: 1 <= kmax < min(dims) / 2."""
    kmax = cfg.int(key, 2)
    top = min(grid.dims) // 2 - 1
    if not 1 <= kmax <= top:
        raise ConfigError(f"{key} must be in [1, {top}] on grid {grid.dims}, got {kmax}")
    return kmax


def build_plane_wave(cfg: Config, grid: GridSpec, default_mode: int) -> PlaneWaveSpec:
    """Plane wave along z; sampling it checks the mode against the Nyquist limit."""
    n = cfg.int("initial.k_mode", default_mode)
    if n == 0:
        raise ConfigError("initial.k_mode must be nonzero (mode 0 is a zero field)")
    return PlaneWaveSpec(
        amplitude=cfg.float("initial.amplitude", 1.0),
        k=2.0 * np.pi * n / grid.lengths[2],
    )


def build_initial(cfg: Config, grid: GridSpec):
    kind = cfg.str("initial.kind")
    t0 = cfg.float("initial.time", 0.0)
    if kind in ("planewave", "standingwave"):
        spec = build_plane_wave(cfg, grid, 1)
        maker = plane_wave if kind == "planewave" else standing_wave
        return maker(spec, grid, t0)
    if kind == "random":
        if not cfg.has("initial.seed"):
            raise ConfigError("random initial data requires initial.seed")
        return random_band_limited(
            grid,
            seed=build_count(cfg, "initial.seed"),
            kmax=build_kmax(cfg, "initial.kmax", grid),
            amplitude=cfg.float("initial.amplitude", 1.0),
            mean_b=_three(cfg.floats, "initial.mean_b", "0 0 0"),
            t=t0,
        )
    raise ConfigError(f"unknown initial.kind {kind!r}")


def build_source(cfg: Config, grid: GridSpec):
    """The driving current; a plane-wave mode must be below the Nyquist
    mode on every axis, and the library rejects the zero mode."""
    kind = cfg.str("source.kind", "zero")
    try:
        if kind == "zero":
            return ZeroCurrent()
        if kind == "uniform":
            return UniformOscillating(
                amplitude=_three(cfg.floats, "source.amplitude"),
                omega=cfg.float("source.omega"),
            )
        if kind == "planewave":
            mode = _three(cfg.ints, "source.mode")
            if any(2 * abs(n) >= d for n, d in zip(mode, grid.dims)):
                raise ConfigError(f"source.mode {mode} is not below the Nyquist mode "
                                  f"(|n_i| < N_i/2) of grid {grid.dims}")
            return PlaneWaveCurrent(
                mode=mode,
                polarization=_three(cfg.floats, "source.polarization"),
                omega=cfg.float("source.omega"),
            )
        if kind == "gaussian":
            return GaussianPulseCurrent(
                center=_three(cfg.floats, "source.center"),
                width=_scale(cfg, "source.width"),
                polarization=_three(cfg.floats, "source.polarization"),
                t0=cfg.float("source.t0", 0.0),
                tau=_scale(cfg, "source.tau", 1.0),
            )
    except ValueError as exc:
        raise ConfigError(f"bad source: {exc}") from exc
    raise ConfigError(f"unknown source.kind {kind!r}")


_AXES = {"x": 0, "y": 1, "z": 2}
_MAP_ARITY = {"identity": 0, "inversion": 0, "rotation": 2, "translation": 4}
_MAP_FORMS = "identity | inversion | rotation x|y|z QUARTERS | translation NX NY NZ MSTEPS"
_LAW_FORMS = f"local-energy | custom FILE | {_MAP_FORMS}"


def _build_map(descriptor: str, grid: GridSpec, forms: str = _MAP_FORMS) -> tuple:
    """(map, time shift in steps) of a map descriptor, checked for form;
    a malformed one raises ConfigError listing `forms`.

    Rotations turn about axis x, y or z; translations carry three node
    shifts and a non-negative time shift in steps.
    """
    parts = descriptor.split()
    name, args = (parts[0], parts[1:]) if parts else ("", [])
    if _MAP_ARITY.get(name) != len(args):
        raise ConfigError(f"bad descriptor {descriptor!r}; expected {forms}")
    if name == "rotation":
        if args[0] not in _AXES:
            raise ConfigError(f"bad rotation axis in {descriptor!r}; expected x, y or z")
        args = [_AXES[args[0]], args[1]]
    try:
        ints = [int(a) for a in args]
    except ValueError as exc:
        raise ConfigError(f"non-integer argument in {descriptor!r}") from exc
    if name == "rotation":
        return AffineMap.quarter_turn(*ints), 0
    if name == "translation":
        if ints[3] < 0:
            raise ConfigError(f"negative time shift in {descriptor!r}")
        return AffineMap.node_translation(grid, ints[:3]), ints[3]
    return getattr(AffineMap, name)(), 0


def build_law(descriptor: str, grid: GridSpec):
    """The law of a `law.N` descriptor: `custom FILE`, or a map descriptor
    (`local-energy` spells `identity`), named by `laws.law_of_map`."""
    parts = descriptor.split()
    if parts[:1] == ["custom"]:
        if len(parts) != 2:
            raise ConfigError("custom law needs a file path")
        try:
            return load_law(parts[1])
        except (ConfigError, ValueError, InvalidMap) as exc:
            raise ConfigError(f"bad law file {parts[1]}: {exc}") from exc
    if parts == ["local-energy"]:
        descriptor = "identity"
    return law_of_map(*_build_map(descriptor, grid, _LAW_FORMS), grid)


def build_laws(cfg: Config, grid: GridSpec):
    """law.1, law.2, ...; two laws whose labels share an output file are an error."""
    laws = []
    keys = {}  # slug of a label -> the key of the law that has it
    i = 1
    while cfg.has(f"law.{i}"):
        law = build_law(cfg.str(f"law.{i}"), grid)
        slug = _slug(law.label)
        if slug in keys:
            raise ConfigError(f"{keys[slug]} and law.{i} are both labelled {law.label!r} "
                              f"(they would share balance_{slug}.csv)")
        keys[slug] = f"law.{i}"
        laws.append(law)
        i += 1
    if not laws:
        raise ConfigError("no laws configured (law.1 = ...)")
    return laws


def build_stepper(cfg: Config) -> str:
    stepper = cfg.str("stepper", "spectral")
    if stepper not in CFL_SAFETY:
        raise ConfigError(f"unknown stepper {stepper!r}; expected one of {sorted(CFL_SAFETY)}")
    return stepper


def resolve_dt(cfg: Config, grid: GridSpec, stepper: str) -> float:
    if cfg.has("dt"):
        return cfg.float("dt")
    if cfg.has("cfl_fraction"):
        return float(cfg.float("cfl_fraction") * cfl_max_dt(grid, stepper))
    raise ConfigError("set either dt or cfl_fraction")


def _balance_run(cfg: Config, grid: GridSpec, stepper: str, dt: float, nsteps: int, stride: int):
    """Reports of the configured laws on the configured initial state and
    current, stepped nsteps times by dt.  An oscillating current must turn
    its phase by less than pi per step; a faster one is aliased by the
    stepper to another frequency."""
    initial, source, laws = build_initial(cfg, grid), build_source(cfg, grid), build_laws(cfg, grid)
    omega = getattr(source, "omega", 0.0)  # uniform and plane-wave currents have one
    if not abs(omega) * dt < np.pi:
        raise ConfigError(f"source.omega = {omega!r} is not resolved by "
                          f"dt = {dt!r}: |omega| dt must be < pi")
    return run_balance(initial, source, dt, nsteps, laws, stepper=stepper, analysis_stride=stride)


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in label)


def _report(path, lines, ok=True) -> int:
    """Write a run summary's lines to `path`, print them, return the exit code of `ok`."""
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: Config) -> int:
    out = output_dir(cfg)
    grid = build_grid(cfg)
    stepper = build_stepper(cfg)
    dt = resolve_dt(cfg, grid, stepper)
    nsteps = build_count(cfg, "nsteps")
    if nsteps > MAX_NODES:  # a driven run keeps pairings of every step
        raise ConfigError(f"nsteps is beyond {MAX_NODES} steps")
    stride = cfg.int("analysis.stride", 1)
    if stride < 1:
        raise ConfigError(f"analysis.stride must be >= 1, got {stride}")
    defect_tol = cfg.float("tolerance.defect_rel", 1e-7)
    r_tol = cfg.float("tolerance.residual_max", 0.0)
    if min(defect_tol, r_tol) < 0.0:
        raise ConfigError("tolerance.defect_rel and tolerance.residual_max must be >= 0")
    r_tol = r_tol or None

    reports = _balance_run(cfg, grid, stepper, dt, nsteps, stride)
    unchecked = [rep.label for rep in reports if np.isnan(rep.max_r)]
    if r_tol is not None and unchecked:
        raise InsufficientData("tolerance.residual_max has no residual to check: no analysis "
                               f"row of {', '.join(unchecked)} is interior")
    all_pass = True
    lines = [f"verify: stepper={stepper} dt={dt!r} nsteps={nsteps} grid={grid.dims}"]
    for rep in reports:
        rep.to_csv(os.path.join(out, f"balance_{_slug(rep.label)}.csv"))
        rel_defect = rep.max_defect / max(rep.norm_scale, 1e-300)
        ok = rel_defect <= defect_tol
        if r_tol is not None:
            ok = ok and rep.max_r <= r_tol
        all_pass = all_pass and ok
        lines.append(
            f"law={rep.label} max_defect_rel={rel_defect!r} max_r={rep.max_r!r} "
            f"tol={defect_tol!r} {'PASS' if ok else 'FAIL'}"
        )
    return _report(os.path.join(out, "summary.txt"), lines, all_pass)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _fit_order(values):
    """Least-squares slope of log2(metric) against level index, negated."""
    levels = np.arange(len(values))
    logs = np.log2(np.maximum(np.asarray(values), 1e-300))
    return float(-np.polyfit(levels, logs, 1)[0])


def cmd_converge(cfg: Config) -> int:
    out = output_dir(cfg)
    levels = cfg.int("refinement.levels", 0)
    if levels < 3:
        raise ConfigError("refinement.levels must be >= 3")
    stepper = build_stepper(cfg)
    factor = cfg.int("refinement.factor", 2)
    if factor < 2:
        raise ConfigError(f"refinement.factor must be >= 2, got {factor}")
    scale = 1
    for _ in range(levels - 1):  # factor^(levels - 1), never formed past the bound
        scale *= factor
        if scale > MAX_NODES:
            raise ConfigError(f"refinement.factor^{levels - 1} is beyond {MAX_NODES} steps")
    # the Yee ladder refines the grid; every level's grid and steps are checked up front
    grids = [build_grid(cfg, factor**level if stepper == "yee" else 1)
             for level in range(levels)]
    base_dt = resolve_dt(cfg, grids[0], stepper)
    base_nsteps = build_count(cfg, "nsteps")
    if base_nsteps * scale > MAX_NODES:  # a run keeps pairings of every step
        raise ConfigError(f"nsteps x refinement.factor^{levels - 1} is beyond {MAX_NODES} steps")
    # the fitted metric, its column in the rows of orders.csv and its least order
    metric, column, min_order = ("residual", 4, 1.8) if stepper == "yee" else ("defect", 5, 3.5)

    rows = []
    for level, grid in enumerate(grids):
        scale = factor**level
        dt = base_dt / scale
        nsteps = base_nsteps * scale
        # level 0 checks the current against the base dt, the largest
        reports = _balance_run(cfg, grid, stepper, dt, nsteps, max(1, nsteps // 8))
        rows += [(rep.label, level, grid.spacing[0], dt, rep.max_r, rep.max_defect)
                 for rep in reports]

    write_csv(os.path.join(out, "orders.csv"),
              ("law", "level", "h", "dt", "r_max", "defect"), rows)

    all_pass = True
    lines = [f"converge: stepper={stepper} levels={levels} metric={metric}"]
    for label in dict.fromkeys(row[0] for row in rows):
        order = _fit_order([row[column] for row in rows if row[0] == label])
        ok = order >= min_order
        all_pass = all_pass and ok
        lines.append(
            f"law={label} fitted_order={order!r} min={min_order!r} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return _report(os.path.join(out, "orders_summary.txt"), lines, all_pass)


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------


def cmd_discover(cfg: Config) -> int:
    out = output_dir(cfg)
    grid = build_grid(cfg)
    amap, m_steps = _build_map(cfg.str("discover.map"), grid)
    n_members = cfg.int("discover.ensemble")
    if n_members < MIN_ENSEMBLE:
        raise InsufficientData(f"discover.ensemble={n_members} is below {MIN_ENSEMBLE}")
    seed = build_count(cfg, "discover.seed", 0)
    kmax = build_kmax(cfg, "discover.kmax", grid)
    top = build_count(cfg, "discover.top", 8)
    ensemble = [
        evolve(random_band_limited(grid, seed=seed + i, kmax=kmax), ZeroCurrent(), 1.5e-5, 4)
        for i in range(n_members)
    ]
    result = discover_laws(ensemble, amap, m_steps, seed=seed)
    if not result.candidates:
        s = result.singular_values
        print(f"discover warning: map={cfg.str('discover.map')} kept no law; smallest "
              f"s/s0={float(s[-1] / s[0])!r}, tolerance {SVD_REL_TOL!r}", file=sys.stderr)
    for i, cand in enumerate(result.candidates[:top]):
        save_law(cand.law, os.path.join(out, f"candidate_{i:02d}.law"))

    lines = [
        f"discover: map={cfg.str('discover.map')} ensemble={n_members} "
        f"rows={result.rows}",
        f"holdout_rows={result.holdout_rows}",
        f"nullspace_dim={len(result.candidates)}",
        "singular_values_kept=" + " ".join(
            repr(c.singular_value) for c in result.candidates
        ),
        f"reference_max_r={result.reference_max_r!r}",
        f"singular_gap={result.singular_gap!r}",
        f"projection[{result.reference.label}]={result.projection_of(result.reference)!r}",
    ]
    return _report(os.path.join(out, "discovery_report.txt"), lines)


# ---------------------------------------------------------------------------
# forge
# ---------------------------------------------------------------------------


def _build_f0(cfg: Config, pde: Pde1D):
    triplets = cfg.floats("forge.f0", "1 1.0 0.0")
    if len(triplets) % 3:
        raise ConfigError("forge.f0 must be (mode, sin_amp, cos_amp) triplets")
    x = pde.nodes()
    f0 = np.zeros(pde.n)
    for i in range(0, len(triplets), 3):
        mode, a_sin, a_cos = triplets[i : i + 3]
        f0 += a_sin * np.sin(mode * x) + a_cos * np.cos(mode * x)
    return f0


def cmd_forge(cfg: Config) -> int:
    out = output_dir(cfg)
    try:
        pde = Pde1D(
            kind=cfg.str("forge.pde", "advection"),
            length=cfg.float("forge.length", 2.0 * np.pi),
            n=cfg.int("forge.resolution", 128),
            c=cfg.float("forge.c", 1.0),
            nu=cfg.float("forge.nu", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"bad forge PDE: {exc}") from exc
    points = np.array(cfg.floats("forge.points"))
    if not len(points):
        raise ConfigError("forge.points needs at least one point")
    if len(np.unique(np.mod(points, pde.length))) < len(points):
        raise ConfigError("forge.points repeats a point (modulo forge.length)")
    order = cfg.int("forge.order", 2)
    if not 1 <= order <= MAX_ORDER:
        raise ConfigError(f"forge.order must be in [1, {MAX_ORDER}], got {order}")
    horizon = cfg.float("forge.horizon", 1.0)
    if horizon <= 0.0:
        raise ConfigError(f"forge.horizon must be > 0, got {horizon!r}")
    f0 = _build_f0(cfg, pde)
    if horizon / suggested_max_dt(pde, f0) > MAX_NODES // pde.n:  # a drift run takes every step
        raise ConfigError(f"forge.horizon = {horizon!r} needs more steps than a drift run can take")
    moments = time_derivative_samples(pde, f0, points, order)
    invariants = nullspace_invariants(moments)
    results = verify_invariant_drift(pde, f0, invariants, horizon)

    write_csv(os.path.join(out, "coefficients.csv"),
              ["invariant"] + [f"alpha_{i}" for i in range(len(points))],
              ((i, *alpha) for i, alpha in enumerate(invariants.alphas)))
    for i, res in enumerate(results):
        write_csv(os.path.join(out, f"drift_{i:02d}.csv"), ("t", "g_value", "drift"),
                  zip(res.times, res.values, res.drift))

    lines = [
        f"forge: pde={pde.kind} P={len(points)} N_order={order} "
        f"nullspace_dim={len(invariants)}",
        f"extrapolation_suspect={moments.extrapolation_suspect}",
    ]
    for i, res in enumerate(results):
        lines.append(
            f"invariant={i} max_drift={float(np.max(res.drift))!r} "
            f"fitted_exponent={res.exponent!r}"
        )
    return _report(os.path.join(out, "forge_summary.txt"), lines)


# ---------------------------------------------------------------------------
# planewave
# ---------------------------------------------------------------------------


def cmd_planewave(cfg: Config) -> int:
    out = output_dir(cfg)
    grid = build_grid(cfg)
    spec = build_plane_wave(cfg, grid, 4)
    e0 = spec.amplitude
    t = cfg.float("initial.time", 0.0)
    state = plane_wave(spec, grid, t)
    d_nodes = cfg.ints("planewave.d_nodes", "0")
    scale = grid.volume * e0 * e0
    rows = []
    for nodes in d_nodes:
        d = nodes * grid.spacing[2]
        law = law_translation(grid, (0, 0, nodes), 0)
        q = volume_integral(density(law, state, state))
        expected = twopoint_energy_analytic(e0, grid.volume, spec.k, d)
        err = abs(q - expected)
        if abs(expected) > 1e-12 * scale:
            ok = err <= 1e-8 * abs(expected)
        else:
            ok = err <= 1e-10 * scale  # absolute branch where cos(kd) ~ 0
        rows.append((nodes, d, expected, q, err, ok))
    write_csv(os.path.join(out, "planewave.csv"),
              ("d_nodes", "d", "Q_analytic", "Q_numeric", "abs_err"),
              (row[:5] for row in rows))
    lines = [f"{'d_nodes':>8} {'d':>12} {'Q_analytic':>16} {'Q_numeric':>16} {'status':>8}"]
    lines += [f"{nodes:8d} {d:12.6f} {expected:16.9e} {q:16.9e} {'ok' if ok else 'FAIL':>8}"
              for nodes, d, expected, q, _, ok in rows]
    return _report(os.path.join(out, "planewave_summary.txt"), lines, all(ok for *_, ok in rows))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "verify": cmd_verify,
    "converge": cmd_converge,
    "discover": cmd_discover,
    "forge": cmd_forge,
    "planewave": cmd_planewave,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twopoint",
        description="Maxwell two-point conservation-law experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the experiment config")
        p.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_args(argv)
    try:
        cfg = Config.load(args.config, args.overrides)
        code = _COMMANDS[args.command](cfg)
        unread = sorted(set(cfg.entries) - cfg.read)
        if unread:
            print(f"config warning: keys not read by {args.command}: {' '.join(unread)}",
                  file=sys.stderr)
        return code
    except (ConfigError, InvalidMap, InvalidWavenumber, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)  # MemoryError: a grid too large
        return EXIT_CONFIG
    except (InsufficientData, HistoryUnderflow) as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (Diverged, StepTooLarge, NonFiniteField) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
