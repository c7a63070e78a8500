#!/usr/bin/env python3
"""Tests of the benchmark's own correctness checks.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; the driver is built on first use
(see run.py). Each check is shown to fail on the fault it guards against:
a digest that differs between iterations of one seed, a store lookup that
returns a stale contact, a stale contact that only the final read-back of
the store can see, a lookup that misses a binding, and a sharded
simulation whose outputs depend on its thread count. The last test runs the
benchmark from a directory without the program sources, where it must exit
non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def driver(*args):
    proc = subprocess.run([str(run.DRIVER), *args], cwd=run.ROOT, text=True,
                          stdout=subprocess.PIPE, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(*args):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, text=True, stdout=subprocess.PIPE,
                          timeout=175)
    return proc.returncode, proc.stdout


def fake_iteration(digest, failed=0):
    return {"digest": digest, "checks_ok": True, "problems": [],
            "failed": failed, "attempted": 10}


class CheckIterations(unittest.TestCase):
    def test_equal_digests_pass(self):
        its = [fake_iteration("aa"), fake_iteration("aa")]
        self.assertEqual(run.check_iterations(its), [])

    def test_digest_mismatch_fails(self):
        its = [fake_iteration("aa"), fake_iteration("bb")]
        self.assertTrue(any("digests" in p for p in run.check_iterations(its)))

    def test_thread_dependent_digest_fails(self):
        problems = run.check_iterations([fake_iteration("aa")],
                                        thread_check=fake_iteration("bb"))
        self.assertTrue(any("sim_threads" in p for p in problems))

    def test_failed_operations_fail(self):
        problems = run.check_iterations([fake_iteration("aa", failed=1)])
        self.assertTrue(any("operations failed" in p for p in problems))


class DriverChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_stale_contact_is_a_failure(self):
        r = driver("--workload", "registrar-store-1m", "--seed", "3",
                   "--inject", "stale")
        self.assertFalse(r["checks_ok"])
        self.assertGreater(r["failed"], 0)
        self.assertGreater(r["info"]["stale"], 0)
        self.assertEqual(r["info"]["misses"], 0)

    def test_missing_binding_is_a_failure(self):
        r = driver("--workload", "registrar-store-1m", "--seed", "3",
                   "--inject", "missing")
        self.assertFalse(r["checks_ok"])
        self.assertGreater(r["info"]["misses"], 0)

    def test_stale_contact_seen_only_by_the_read_back_is_a_failure(self):
        r = driver("--workload", "registrar-store-1m", "--seed", "3",
                   "--inject", "stale-after")
        self.assertFalse(r["checks_ok"])
        self.assertEqual(r["failed"], 1)
        self.assertEqual(r["info"]["final_stale"], 1)
        self.assertEqual(r["info"]["stale"], 0)

    def test_wrong_digest_is_reported(self):
        # A traced run always makes two iterations (one untraced, one traced).
        code, out = bench("--workload", "olsr-city-200", "--seed", "3",
                          "--seconds", "1", "--trace", "1",
                          "--inject", "digest")
        self.assertEqual(code, 0)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("virtual outputs differ", out)

    def test_sharded_digest_is_independent_of_threads(self):
        digests = {driver("--workload", "olsr-city-200-sharded", "--seed", "3",
                          "--sim-threads", threads)["digest"]
                   for threads in ("1", "2", "4")}
        self.assertEqual(len(digests), 1)

    def test_without_program_sources_it_fails(self):
        bare = run.ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "voice-aodv-100",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=175)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
