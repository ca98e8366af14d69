"""Self-test of the benchmark's failure accounting, checks and tracer.

Run from the repository root: ``python3 perfbench/selftest.py``.  It shows
that a nonzero exit, a missing, corrupted or changed output is counted as a
failure and never timed as a success.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import numpy as np

import checks
import run
import tracing
from checks import CheckError

CONST_S2 = {"gamma": 2.0, "avg_chordal": 2.0 / 3.0}


def _cmd(key, check=lambda d, v: checks.check_constants(d, "s2"), group="constants"):
    return run.Command(key, group, ["constants", "--space", "s2"], check)


def _result(data, rc=0, wall=1.0):
    return run.Result(rc, wall, 50.0, data)


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def test_nonzero_exit_is_a_failure(self):
        res = run.spawn(["-c", "import sys; sys.exit('boom')"], self.tmp / "x.json")
        judge = run.Judge()
        self.assertEqual(res.rc, 1)
        self.assertFalse(judge(_cmd("x"), res))
        self.assertEqual((judge.attempted, len(judge.failures)), (1, 1))
        self.assertIn("boom", judge.failures[0])

    def test_missing_output_is_a_failure(self):
        res = run.spawn(["-c", "pass"], self.tmp / "x.json")
        self.assertEqual((res.rc, res.data), (0, None))
        self.assertFalse(run.Judge()(_cmd("x"), res))

    def test_corrupted_output_is_a_failure(self):
        cmd = _cmd("constants-s2")
        good = run.spawn(["-m", "crosp.cli", *cmd.argv(0, self.tmp)], self.tmp / f"{cmd.key}.json")
        self.assertTrue(run.Judge()(cmd, good))
        doc = json.loads(good.data)
        doc["gamma"] *= 1 + 1e-9
        for bad in (json.dumps(doc).encode(), good.data[:-20], b""):
            judge = run.Judge()
            self.assertFalse(judge(cmd, _result(bad)), bad[:40])
            self.assertEqual(len(judge.failures), 1)

    def test_changed_output_is_a_failure(self):
        judge = run.Judge()
        cmd = _cmd("spaces", check=lambda d, v: None, group="startup")
        self.assertTrue(judge(cmd, _result(b"{}")))
        self.assertFalse(judge(cmd, _result(b"{ }")))
        self.assertTrue(judge(cmd, _result(b"{}")))
        self.assertEqual((judge.attempted, len(judge.failures)), (3, 1))

    def test_failed_pass_is_not_timed(self):
        cmds = [_cmd("spaces", group="startup"), _cmd("closed", group="closed")]
        passes = [(True, [_result(b"", wall=1.0), _result(b"", wall=2.0)]),
                  (False, [_result(b"", wall=0.1), _result(b"", rc=3, wall=0.1)]),
                  (True, [_result(b"", wall=1.0), _result(b"", wall=4.0)])]
        metrics, detail = run.summarize(cmds, passes)
        self.assertEqual(metrics["wall_s"], 4.0)
        self.assertEqual(detail["group_median_s"]["closed_s"], 3.0)
        self.assertEqual((detail["passes"], detail["clean_passes"]), (3, 2))


class Checks(unittest.TestCase):
    def test_identity(self):
        n, lam = 10, 7.0
        tau = CONST_S2["avg_chordal"] * n * n - CONST_S2["gamma"] * lam
        checks.check_identity(lam, tau, CONST_S2, n)
        with self.assertRaises(CheckError):
            checks.check_identity(lam * (1 + 1e-6), tau, CONST_S2, n)

    def test_quaternion_oracle_matches_crosp(self):
        sys.path.insert(0, str(run.SRC))
        from crosp import discrepancy, parse_space, sample_uniform

        space = parse_space("hp2")
        n = 600  # more rows than one block of the oracle
        pts = sample_uniform(space, n, np.random.default_rng(5))
        tau = checks.quaternion_chordal_sum(pts.points.reshape(n, -1))
        self.assertAlmostEqual(tau / discrepancy.pair_sum(space, pts), 1.0, delta=1e-13)
        checks.check_pair_sum(tau * (1 + 1e-12), tau)
        with self.assertRaises(CheckError):
            checks.check_pair_sum(tau * (1 + 1e-8), tau)

    def test_mc_within_four_stderr(self):
        doc = {"value": 10.0, "stderr": 0.1, "samples": 100}
        checks.check_mc(doc, 10.39, 100)
        with self.assertRaises(CheckError):
            checks.check_mc(doc, 10.41, 100)

    def test_series_within_tol_times_pairs(self):
        checks.check_series({"value": 1.0}, 1.0 + 0.9e-6, 1e-8, 10)
        with self.assertRaises(CheckError):
            checks.check_series({"value": 1.0}, 1.0 + 1.1e-6, 1e-8, 10)

    def test_verify_must_pass(self):
        doc = {"reports": [{"verdict": "pass"}], "all_passed": True}
        checks.check_verify(json.dumps(doc).encode())
        doc["all_passed"] = False
        with self.assertRaises(CheckError):
            checks.check_verify(json.dumps(doc).encode())

    def test_pointset_reloads_with_n_points(self):
        pts = [[1.0, 0.0, 0.0], [0.0, math.sqrt(0.5), math.sqrt(0.5)]]
        doc = {"space": {"family": "s", "n": 2}, "points": pts}
        checks.check_pointset(json.dumps(doc).encode(), "s2", 2)
        for n, points in ((3, pts), (2, [pts[0], [1.0, 1.0, 0.0]])):
            with self.assertRaises(CheckError):
                checks.check_pointset(json.dumps({**doc, "points": points}).encode(), "s2", n)


class Tracing(unittest.TestCase):
    def test_self_time_excludes_child_spans(self):
        t = tracing.Tracer()
        inner = t._wrap("inner", lambda: time.sleep(0.05), None)
        outer = t._wrap("outer", lambda: (inner(), time.sleep(0.02)), None)
        outer()
        self.assertGreaterEqual(t.self_s["inner"], 0.05)
        self.assertLess(abs(t.self_s["outer"] - (t.total_s["outer"] - t.total_s["inner"])), 1e-9)
        self.assertLess(t.self_s["outer"], 0.045)

    def test_missing_target_is_an_error(self):
        sys.path.insert(0, str(run.SRC))
        import crosp.cli  # noqa: F401  (loads every crosp module)
        from crosp import spaces

        kernel = spaces.cos_geodesic_matrix
        self.addCleanup(setattr, tracing, "TARGETS", tracing.TARGETS)
        tracing.TARGETS = [*tracing.TARGETS, ("spaces", "no_such_function", None)]
        with self.assertRaises(AttributeError):
            tracing.Tracer().install()
        self.assertIs(spaces.cos_geodesic_matrix, kernel)  # nothing was wrapped

    def test_importtime_counts_outermost_entries(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:       100 |        150 |   scipy",
            "import time:        70 |         70 |   scipy.special",
            "import time:        10 |        530 | crosp",
        ])
        got = tracing.parse_importtime(text)
        self.assertEqual(got, {"crosp": 530e-6, "scipy": 220e-6, "numpy": 300e-6})


if __name__ == "__main__":
    unittest.main()
