#!/usr/bin/env python3
"""A/B wall-time comparison of two perfbench driver builds.

    python3 tools/perf_ab.py BASE NEW --workload NAME --seed N[,N...] \
        [--sim-threads T] [--pairs K]

BASE and NEW are source trees whose perfbench driver is already built
(python3 perfbench/run.py builds it into <tree>/.bench_build/perfbench), or
paths to perfbench_driver binaries. For each seed in turn, the two drivers
run in K alternating pairs (BASE first in even pairs, NEW first in odd
ones), one process each, so slow drift of a shared host hits both sides
alike.

Prints, per seed and for every end-to-end metric and the child's user CPU
time, the median of each side, the median of the per-pair ratios NEW / BASE
and the number of pairs NEW won (lower is better for all of them); then one
run_s row per seed with both sides' quartiles, and one run_s verdict per
seed: "gain" when NEW won at least nine tenths of the pairs (ties count for
neither side) and its median is lower than BASE's by more than BASE's
interquartile range, otherwise "unresolved". Exits 1 when the virtual
outputs differ -- on any seed, a digest of NEW differs from BASE's, or a
run reports failed operations or failed checks -- or a driver exits
non-zero, and 2 on usage errors (including a missing driver).
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

DRIVER = Path(".bench_build") / "perfbench" / "perfbench_driver"
METRICS = ("setup_s", "run_s", "peak_rss_mb", "op_p50_ms", "op_tail_ms")


def driver_path(arg):
    path = Path(arg).resolve()
    if path.is_dir():
        path = path / DRIVER
    if not path.is_file():
        print(f"perf_ab: no perfbench driver at {path}; build it with "
              "python3 perfbench/run.py in that tree", file=sys.stderr)
        sys.exit(2)
    return path


def run_once(driver, args, seed):
    """One driver process: its result JSON plus the child's user CPU."""
    cmd = [str(driver), "--workload", args.workload, "--seed", str(seed),
           "--trace", "0"]
    if args.sim_threads is not None:
        cmd += ["--sim-threads", str(args.sim_threads)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=driver.parent)
    user_s = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perf_ab: {driver} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = dict(result["e2e"])
    metrics["user_cpu_s"] = user_s
    return result, metrics


def quartiles(values):
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new):
    """"gain" or "unresolved" for two lists of paired samples, lower better.

    A gain needs NEW to win at least 9 of every 10 pairs and the medians to
    differ by more than BASE's own spread (q3 - q1): with one binary's run_s
    spanning tens of percent on a shared host, anything less is noise.
    """
    won = sum(n < b for b, n in zip(base, new))
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    if 10 * won >= 9 * len(base) and bmed - nmed > bq3 - bq1:
        return "gain"
    return "unresolved"


def run_seed(drivers, args, seed):
    """K alternating pairs on one seed: samples per side, and problems."""
    samples = {"base": [], "new": []}
    digests = {"base": set(), "new": set()}
    problems = []
    for k in range(args.pairs):
        order = ("base", "new") if k % 2 == 0 else ("new", "base")
        for side in order:
            result, metrics = run_once(drivers[side], args, seed)
            samples[side].append(metrics)
            digests[side].add(result["digest"])
            if result["failed"] or not result["checks_ok"]:
                problems.append(f"seed {seed} {side} pair {k}: "
                                f"{result['failed']} failed, "
                                f"problems {result['problems']}")
        print(f"seed {seed} pair {k + 1}/{args.pairs}: run_s base "
              f"{samples['base'][-1]['run_s']:.4f} new "
              f"{samples['new'][-1]['run_s']:.4f}", flush=True)

    print(f"{'metric':<12} {'base':>12} {'new':>12} {'new/base':>9} won")
    for name in (*METRICS, "user_cpu_s"):
        base = [s[name] for s in samples["base"]]
        new = [s[name] for s in samples["new"]]
        ratios = [n / b for b, n in zip(base, new) if b > 0]
        ratio = f"{statistics.median(ratios):9.3f}" if ratios else f"{'-':>9}"
        won = sum(n < b for b, n in zip(base, new))
        print(f"{name:<12} {statistics.median(base):12.4f} "
              f"{statistics.median(new):12.4f} {ratio} {won}/{args.pairs}")

    print(f"digests: base {', '.join(sorted(digests['base']))}; "
          f"new {', '.join(sorted(digests['new']))}")
    if digests["base"] != digests["new"] or len(digests["base"]) != 1:
        problems.append(f"seed {seed}: virtual outputs differ")
    return samples, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True,
                        help="one seed, or several separated by commas")
    parser.add_argument("--sim-threads", type=int)
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        seeds = [int(s) for s in args.seed.split(",")]
    except ValueError:
        parser.error("--seed takes integers separated by commas")
    drivers = {"base": driver_path(args.base), "new": driver_path(args.new)}

    rows = []
    problems = []
    for seed in seeds:
        samples, seed_problems = run_seed(drivers, args, seed)
        problems += seed_problems
        base = [s["run_s"] for s in samples["base"]]
        new = [s["run_s"] for s in samples["new"]]
        rows.append((seed, quartiles(base), quartiles(new),
                     statistics.median(n / b for b, n in zip(base, new)),
                     sum(n < b for b, n in zip(base, new)),
                     verdict(base, new)))

    print(f"{'seed':>6}  {'base run_s q1 / median / q3':>28}  "
          f"{'new run_s q1 / median / q3':>28}  {'new/base':>8}  won")
    for seed, bq, nq, ratio, won, _ in rows:
        print(f"{seed:>6}  {bq[0]:8.4f} {bq[1]:9.4f} {bq[2]:9.4f}  "
              f"{nq[0]:8.4f} {nq[1]:9.4f} {nq[2]:9.4f}  {ratio:8.3f}  "
              f"{won}/{args.pairs}")
    for seed, bq, nq, _, won, result in rows:
        print(f"verdict seed {seed}: {result} (won {won}/{args.pairs}, "
              f"median drop {bq[1] - nq[1]:.4f} s vs base IQR "
              f"{bq[2] - bq[0]:.4f} s)")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
