#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the benchmark driver
(perfbench/driver.cpp plus the SIPHoc libraries from src/) into
.bench_build/perfbench, then runs whole iterations of the workload for about
S seconds, one driver process per iteration, and aggregates them:

  * end-to-end metrics (--trace 0) are medians over the iterations;
  * per-layer metrics (--trace 1) come from iterations run with spans on,
    alternated with untraced ones so the tracing overhead can be reported.

Every iteration's outputs are checked (see check_iterations); the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. Progress and host facts go to the lines before it.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = (
    "olsr-city-200",
    "olsr-city-200-sharded",
    "voice-aodv-100",
    "registrar-store-1m",
)
SHARDED = {"olsr-city-200-sharded"}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

PER_LAYER = {
    "span.converge_share": "ratio",
    "span.register_share": "ratio",
    "span.call_share": "ratio",
    "span.voice_share": "ratio",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.windows": "count",
    "sim.windows_serialized_ratio": "ratio",
    "proc.cpu_util": "ratio",
    "proc.vol_ctx_switches_per_window": "count",
    "net.frames.routing": "count",
    "net.frames.sip": "count",
    "net.frames.rtp": "count",
    "net.deliveries_per_frame": "ratio",
    "net.unicast_unreachable": "count",
    "net.host.no_route_drops": "count",
    "net.us_per_rtp_frame": "us",
    "routing.control_packets": "count",
    "routing.control_bytes": "bytes",
    "routing.piggyback_bytes": "bytes",
    "routing.route_discoveries": "count",
    "routing.discovery_failures": "count",
    "olsr.hello_tx": "count",
    "olsr.tc_tx": "count",
    "olsr.tc_forwarded": "count",
    "routing.us_per_ctrl_packet": "us",
    "slp.lookups": "count",
    "slp.hit_ratio": "ratio",
    "slp.lookup_timeouts": "count",
    "slp.adverts_piggybacked": "count",
    "sip.retransmits": "count",
    "sip.tx_timeouts": "count",
    "proxy.slp_lookups": "count",
    "proxy.slp_hit_ratio": "ratio",
    "proxy.requests_forwarded": "count",
    "proxy.not_found": "count",
    "rtp.packets_tx": "count",
    "rtp.packets_rx": "count",
    "rtp.late_drops": "count",
    "rtp.mos_p50": "MOS",
    "rtp.mos_p10": "MOS",
    "store.preload_per_s": "1/s",
    "store.lookups_per_s": "1/s",
    "store.refreshes_per_s": "1/s",
    "store.upsert_ns_p50": "ns",
    "store.upsert_ns_p99": "ns",
    "store.shard_skew": "ratio",
    "store.vol_ctx_switches": "count",
    "store.bytes_per_binding": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# Every process this script starts is waited for; a run must end within
# 180 s, so a single driver call never gets more than this.
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    """A condition under which the benchmark prints no result."""


def log(message):
    print(message, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr so stdout stays clean."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no SIPHoc sources under {ROOT / 'src'}; run from "
                         "the root of a source checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator], 600)
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs], 840)
    if not DRIVER.is_file():
        raise BenchError("build produced no perfbench_driver")


def source_digest():
    """sha256 over the sources the driver is built from (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or "unknown"


def run_iteration(workload, seed, traced, index, extra=(), deadline=None):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", *extra]
    if traced:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{workload}-seed{seed}-iter{index}.json")]
    timeout = DRIVER_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.monotonic()))
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def check_iterations(iterations, thread_check=None):
    """Returns the list of problems; empty means the outputs are correct.

    Each iteration checks itself (invariants, call and REGISTER outcomes,
    every store lookup against the contact last written). Across iterations
    of one seed the virtual outputs must be identical, and a sharded
    simulation must give the same digest on one thread as on several.
    """
    problems = []
    for it in iterations:
        if not it["checks_ok"]:
            problems += [f"iteration check: {p}" for p in it["problems"]]
        if it["failed"] != 0:
            problems.append(f"{it['failed']} of {it['attempted']} operations "
                            "failed")
    digests = sorted({it["digest"] for it in iterations})
    if len(digests) > 1:
        problems.append("virtual outputs differ between iterations of one "
                        f"seed: digests {', '.join(digests)}")
    if thread_check is not None and thread_check["digest"] != iterations[0]["digest"]:
        problems.append("sharded digest depends on sim_threads: "
                        f"{thread_check['digest']} at 1 thread vs "
                        f"{iterations[0]['digest']}")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    build()
    extra = ("--inject", args.inject) if args.inject else ()
    traced_run = bool(args.trace)

    # Whole iterations until the next one would overrun --seconds. A traced
    # run alternates untraced and traced iterations (at least one of each).
    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + DRIVER_TIMEOUT_S
    min_iterations = 2 if traced_run else 1
    iterations = []
    while True:
        traced = traced_run and len(iterations) % 2 == 1
        it = run_iteration(args.workload, args.seed, traced, len(iterations),
                           extra, hard_deadline)
        iterations.append(it)
        log(f"iteration {len(iterations)}: traced={int(traced)} "
            f"setup_s={it['e2e']['setup_s']:.4f} run_s={it['e2e']['run_s']:.4f} "
            f"digest={it['digest']} info={json.dumps(it['info'])}")
        per_iteration = (time.monotonic() - start) / len(iterations)
        if (len(iterations) >= min_iterations and
                time.monotonic() + per_iteration > deadline):
            break

    thread_check = None
    if traced_run and args.workload in SHARDED:
        thread_check = run_iteration(args.workload, args.seed, False,
                                     len(iterations),
                                     ("--sim-threads", "1", *extra),
                                     hard_deadline)
        log(f"sim_threads=1 digest={thread_check['digest']}")

    # The driver itself refuses to run when built with a sanitizer.
    host = dict(iterations[0]["host"])
    host["git_commit"] = git_commit()
    host["source_sha256"] = source_digest()
    log(f"host: {json.dumps(host, sort_keys=True)}")

    problems = check_iterations(iterations, thread_check)
    for p in problems:
        log(f"CHECK FAILED: {p}")

    untraced = [it for it in iterations if not it["traced"]]
    traced_its = [it for it in iterations if it["traced"]]
    if traced_run:
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [it["layers"].get(name, 0.0) for it in traced_its]
            metrics[name] = {"value": median(values), "unit": unit}
        overhead = (median([it["e2e"]["run_s"] for it in traced_its]) /
                    median([it["e2e"]["run_s"] for it in untraced]))
        metrics["trace.overhead_ratio"]["value"] = overhead
        metrics["trace.spans"]["value"] = median(
            [it["info"]["spans"] for it in traced_its])
        log(f"tracing overhead: traced run_s / untraced run_s = {overhead:.4f}"
            f" (spans in {TRACE_DIR.relative_to(ROOT)})")
    else:
        metrics = {name: {"value": median([it["e2e"][name] for it in untraced]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
        info = untraced[0]["info"]
        log(f"op latency: p50 and p{info['op_tail_percentile']:g} over "
            f"{info['op_samples']:.0f} samples per iteration, "
            f"{len(untraced)} iterations")

    print(json.dumps({
        "correct": not problems,
        "attempted": int(sum(it["attempted"] for it in iterations)),
        "failed": int(sum(it["failed"] for it in iterations)),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
