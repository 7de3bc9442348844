"""Self-test of the benchmark on a tiny input (2D, N=33, square init).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every metric is emitted with a unit, that span self times are
non-negative and fit inside their parent span, that the traced counts agree
with the run's history, and that the correctness gate rejects a tampered
gamma and a history that differs between repeats.
"""

from __future__ import annotations

import json
import sys
import unittest

import run
from workloads import SELFTEST, make_config

sys.path.insert(0, str(run.ROOT / "src"))


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.plain, cls.plain_report = run.bench("selftest", SELFTEST, 0, 1, False)
        cls.traced, cls.traced_report = run.bench("selftest", SELFTEST, 3, 1, True)

    def test_every_metric_has_a_unit(self):
        for result, names in ((self.plain, run.END_TO_END), (self.traced, run.PER_LAYER)):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), set(names))
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], names[name])
                self.assertIsInstance(m["value"], (int, float), name)
            json.dumps(result)

    def test_end_to_end_values_are_positive(self):
        for name, m in self.plain["metrics"].items():
            self.assertGreater(m["value"], 0.0, name)

    def test_eval_fail_frac_is_reported(self):
        self.assertTrue(any(line.startswith("eval_fail_frac") for line in self.plain_report))

    def test_self_times_fit_inside_parents(self):
        with open(run.WORK_DIR / "spans-selftest-seed3.jsonl") as fh:
            spans = [json.loads(line) for line in fh]
        self.assertTrue(spans)
        duration = [rec["end"] - rec["start"] for rec in spans]
        self_s = list(duration)
        for rec, d in zip(spans, duration):
            if rec["parent"] >= 0:
                parent = spans[rec["parent"]]
                self.assertGreaterEqual(rec["start"], parent["start"])
                self.assertLessEqual(rec["end"], parent["end"])
                self_s[rec["parent"]] -= d
        for rec, s in zip(spans, self_s):
            self.assertGreaterEqual(s, -1e-9, rec["name"])
            if rec["parent"] >= 0:
                self.assertLessEqual(s, duration[rec["parent"]], rec["name"])

        m = {k: v["value"] for k, v in self.traced["metrics"].items()}
        for key in m:
            if key.endswith((".s", ".self_s", ".self_share")):
                self.assertGreaterEqual(m[key], 0.0, key)
        self.assertLessEqual(m["biharmonic.tone.self_s"], m["biharmonic.tone.s"])
        self.assertLessEqual(m["biharmonic.factor.s"] + m["biharmonic.solve.s"]
                             + m["biharmonic.assemble.s"], m["biharmonic.tone.s"])
        self.assertLessEqual(m["biharmonic.tone.s"], m["trace.wall_s"])
        shares = [m[k] for k in m if k.endswith(".self_share")]
        self.assertAlmostEqual(sum(shares), 100.0, places=6)

    def test_traced_counts_match_history(self):
        m = {k: v["value"] for k, v in self.traced["metrics"].items()}
        self.assertEqual(m["search.evals"],
                         m["biharmonic.tone.calls"] - m["biharmonic.tone.failures"])
        self.assertEqual(m["biharmonic.factor.calls"], m["biharmonic.tone.calls"])
        self.assertEqual(m["biharmonic.assemble.calls"], m["biharmonic.tone.calls"])
        self.assertAlmostEqual(m["search.accept_ratio"],
                               m["search.accepted"] / m["search.evals"])

    def test_gate_rejects_tampered_gamma(self):
        from platetone import search
        from platetone.field_grid import make_grid
        import worker

        config = search.RunConfig(**make_config(SELFTEST, 0))
        result = search.optimize(config)
        grid = make_grid(config.dim, config.nodes_per_side, config.radius_B)
        field = result.tone.eigenfield
        honest = worker.check_pair(grid, result.mask, field, result.gamma)
        self.assertTrue(all(c["ok"] for c in honest.values()))
        tampered = worker.check_pair(grid, result.mask, field, result.gamma * 1.01)
        self.assertFalse(tampered["eigen_residual"]["ok"])
        self.assertFalse(tampered["rayleigh_quotient"]["ok"])

    def test_gate_names_each_failure(self):
        src = str(run.ROOT / "src" / "platetone" / "__init__.py")
        good = {"platetone_file": src, "history_sha256": "a",
                "checks": {"eigen_residual": {"ok": True, "value": 0.0}}}
        bad = dict(good, history_sha256="b",
                   checks={"eigen_residual": {"ok": False, "value": 1.0}})
        attempted, failed, names = run.gate([good, bad], [], dict(good))
        self.assertEqual(attempted, 5)
        self.assertEqual(failed, 2)
        self.assertEqual(names, ["rep1:eigen_residual", "history_repeat"])
        attempted, failed, names = run.gate([good], [], dict(bad, checks={}))
        self.assertEqual((attempted, failed, names), (3, 1, ["trace_reproduces"]))


if __name__ == "__main__":
    unittest.main()
