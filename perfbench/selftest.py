"""Self-tests of the benchmark itself (about a minute on two cores):

    python3 perfbench/selftest.py

They run real workload jobs, so they are kept out of the package's test
suite.
"""

import copy
import math
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
import tracing
from job import load_references, run_child, verdict_ok
from workloads import WORKLOADS

TRACED_WORKLOAD = "switch-big243"


def traced_job(dump: Path):
    argv = WORKLOADS[TRACED_WORKLOAD].argv(0)
    res = run_child([sys.executable, str(run.BENCH_DIR / "child.py"), "traced", str(dump)],
                    argv)
    return res, tracing.load(dump)


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        base = Path(cls.tmp.name)
        cls.runs = [traced_job(base / f"run{k}.spans") for k in range(2)]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_traced_verdict_matches_reference(self):
        refs = load_references()
        for res, _ in self.runs:
            self.assertTrue(verdict_ok(res, refs))

    def test_counts_repeat_exactly(self):
        (_, a), (_, b) = self.runs
        self.assertEqual(a.counts, b.counts)
        self.assertEqual(a.span_counts, b.span_counts)
        self.assertEqual(list(a.parent), list(b.parent))
        for name in ("ffield.mul", "liealg.bracket", "dpalgebra.echelon_reduce"):
            self.assertGreater(a.calls(name), 0, name)
        la, lb = tracing.layer_metrics(a), tracing.layer_metrics(b)
        for key in la:
            if not key.endswith("_s"):
                self.assertEqual(la[key], lb[key], key)

    def test_top_level_spans_account_for_job_time(self):
        for _, tr in self.runs:
            job_s = tr.header["job_s"]
            top = tr.top_level_s()
            self.assertLessEqual(top, job_s)
            self.assertGreater(top, 0.99 * job_s)
            # self times partition the top-level spans
            _, self_s = tr.times()
            self.assertTrue(math.isclose(sum(self_s.values()), top, rel_tol=1e-6))

    def test_no_target_missing(self):
        for _, tr in self.runs:
            self.assertEqual(tr.header["missing"], [])


class PausedJob(unittest.TestCase):
    def test_stopped_time_is_left_out(self):
        # a child that burns 1 s of CPU, stopped for 0.3 s after every 0.2 s
        burn = ("import time\nt = time.process_time()\n"
                "while time.process_time() - t < 1.0: pass")
        pauses = []
        res = run_child([sys.executable, "-c"], [burn],
                        lambda: (pauses.append(1), time.sleep(0.3)), 0.2)
        self.assertEqual(res.exit_code, 0)
        self.assertGreaterEqual(len(pauses), 3)
        self.assertLess(res.wall_s, res.cpu_s + 0.25)


class VerdictCheck(unittest.TestCase):
    def test_corrupted_digest_fails_every_job(self):
        refs = load_references()
        bad = copy.deepcopy(refs)
        for ref in bad.values():
            ref["digest"] = "0" * len(ref["digest"])
        jobs, failed, _ = run.end_to_end("verify-az243", 0, 0.0, bad)
        self.assertEqual(failed / len(jobs), 1.0)
        self.assertTrue(all(verdict_ok(j, refs) for j in jobs))


if __name__ == "__main__":
    unittest.main()
