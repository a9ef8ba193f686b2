"""Benchmark of the twopoint package: three workloads, end-to-end and per-layer.

    python3 bench/run.py --workload spectral-balance --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all             # every workload in turn
    python3 bench/run.py --workload stepping --traced
    python3 bench/run.py --list                     # workload and metric names

Each measurement runs in a fresh `bench/worker.py` process built from the
checkout's own src/.  With --trace 0 the untraced run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 (or --traced) a run that alternates
untraced and traced repetitions reports the per-layer metrics.  Every
metric is printed by name with its unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
when every check passed, 1 when a check failed and 2 when the checkout has
no twopoint sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SOURCE = os.path.join(ROOT, "src", "twopoint", "__init__.py")
DEFAULT_SEED = 2026
# Fresh processes that only set up, on top of the measuring process, so that
# setup_s is a median of SETUP_PROBES + 1 samples.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def spawn(workload, seed, mode, seconds=0.0):
    """Run one worker process; returns (spawn time, parsed result or None)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(float(seconds))]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker {mode} of {workload} timed out", file=sys.stderr)
        return t_spawn, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {mode} of {workload} exited with {proc.returncode}", file=sys.stderr)
        return t_spawn, None
    return t_spawn, json.loads(lines[-1])


def end_to_end(workload, seed, seconds):
    """Untraced run: returns (result, {metric: (value, samples)})."""
    setup = []
    for _ in range(SETUP_PROBES):
        t_spawn, probe = spawn(workload, seed, "setup")
        if probe is None:
            return None, {}
        setup.append(probe["first_call"] - t_spawn)
    t_spawn, result = spawn(workload, seed, "measure", seconds)
    if result is None:
        return None, {}
    setup.append(result["first_call"] - t_spawn)
    timed = result["reps"][1:]
    samples = {
        "wall_s": [r["wall"] for r in timed],
        "work_per_s": [r["work"] / r["wall"] for r in timed],
        "cpu_s": [r["cpu"] for r in timed],
        "setup_s": setup,
        "peak_rss_mib": [result["peak_rss_kib"] / 1024.0],
    }
    return result, {k: (statistics.median(v), v) for k, v in samples.items()}


def per_layer(workload, seed, seconds):
    """Traced run: returns (result, {metric: (value, samples)})."""
    _, result = spawn(workload, seed, "trace", seconds)
    if result is None:
        return None, {}
    layers = result["layers"]
    out = {name: (statistics.median(l[name] for l in layers), [l[name] for l in layers])
           for name in layers[0]}
    plain = statistics.median(result["plain_walls"])
    traced = statistics.median(result["traced_walls"])
    out["trace.overhead_frac"] = ((traced - plain) / plain,
                                  [(t - plain) / plain for t in result["traced_walls"]])
    return result, out


def run_workload(spec, workload, seed, seconds, traced):
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    names = {m["name"] for m in declared}
    result, metrics = (per_layer if traced else end_to_end)(workload, seed, seconds)
    mode = "traced" if traced else "untraced"
    print(f"== {workload}  seed={seed}  {mode}")
    if result is None:
        print("   FAILED: the worker process produced no result")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if set(metrics) != names:
        raise SystemExit(f"metrics {sorted(set(metrics) ^ names)} do not match BENCHMARK.json")

    reps = result["reps"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    for m in declared:
        value, samples = metrics[m["name"]]
        if len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            note = f"median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g}"
        else:
            note = "single sample"
        print(f"   {m['name']:<28} {value:>14.6g} {m['unit']:<8} {note}")
    print(f"   {'fail_frac':<28} {failed / attempted:>14.6g} {'ratio':<8} "
          f"{failed} of {attempted} checks failed over {len(reps)} reps")
    for r in reps:
        for name in r["failed"]:
            print(f"   FAILED check {name} = {r['checks'].get(name, 'not reported')!r}")
    sha, dirty = git_state()
    prov = dict(result["provenance"], workload=workload, mode=mode, git_sha=sha,
                git_dirty=dirty, seconds=seconds, reps=len(reps))
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }


def list_names(spec):
    from tracing import PER_LAYER

    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<18} {w['why']}")
    print("end-to-end metrics (untraced run, --trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14} {m['unit']:<8} {m['better']} is better, bound {m['bound']}")
    print(f"  {'fail_frac':<14} {'ratio':<8} failed / attempted checks, the JSON's "
          "'failed' and 'attempted'")
    print("per-layer metrics (traced run, --trace 1) and what each should move:")
    for name, unit, better, moves in PER_LAYER:
        print(f"  {name:<28} {unit:<6} {better:<6} {moves}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--list", action="store_true", help="print workload and metric names")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    spec = load_spec()
    if args.list:
        list_names(spec)
        return 0
    if not os.path.isfile(SOURCE):
        print(f"no twopoint sources at {os.path.relpath(SOURCE, ROOT)}: nothing to measure",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        parser.error(f"--workload must be one of {names} or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    traced = bool(args.trace) or args.traced

    results = {w: run_workload(spec, w, args.seed, seconds, traced) for w in chosen}
    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        for w, r in results.items():
            print(f"{w} " + json.dumps(r))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
