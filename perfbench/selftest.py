"""Self-tests of the benchmark: oracles, input generator, tracer, metric lists.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import time
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class VerifyOracle(unittest.TestCase):
    def setUp(self):
        self.text = oracle.expected_verify_text()

    def test_accepts_expected_report(self):
        self.assertEqual(oracle.check_verify(self.text, 0), [])

    def test_rejects_flipped_verdict(self):
        doctored = self.text.replace("verdict: pass", "verdict: fail", 1)
        self.assertTrue(oracle.check_verify(doctored, 0))

    def test_rejects_zero_instances(self):
        doctored = self.text.replace("tested: 13\n", "tested: 0\n")
        self.assertNotEqual(doctored, self.text)
        problems = oracle.check_verify(doctored, 0)
        self.assertIn("ribbon_correspondence tested 0 instances", problems)

    def test_rejects_wrong_count(self):
        doctored = self.text.replace("tested: 374\n", "tested: 373\n")
        self.assertTrue(oracle.check_verify(doctored, 0))

    def test_rejects_wrong_exit_code(self):
        self.assertTrue(oracle.check_verify(self.text, 1))

    def test_rejects_missing_witness(self):
        doctored = self.text.replace("witness: found", "witness: missing", 1)
        self.assertTrue(oracle.check_verify(doctored, 0))


class OpcalcOracle(unittest.TestCase):
    good = {"name": "operation_calculus", "tested": 1174, "failed": 0, "verdict": True}

    def test_accepts(self):
        self.assertEqual(oracle.check_opcalc(self.good, 1000), [])

    def test_rejects_doctored(self):
        for change in ({"verdict": False}, {"tested": 0}, {"failed": 1}, {"name": "x"}):
            self.assertTrue(oracle.check_opcalc(dict(self.good, **change), 1000), change)


class ClassifyOracle(unittest.TestCase):
    specs = gen.generate(3)

    def first(self, kind, verb):
        return next(s for s in self.specs if s.kind == kind and s.argv[-1] == verb)

    def test_invalid_classify_must_exit_2(self):
        s = self.first("invalid", "classify")
        self.assertEqual(oracle.check_classify(s, 2, "", "error: x: bad\n"), [])
        self.assertTrue(oracle.check_classify(s, 0, "", "error: x: bad\n"))
        self.assertTrue(oracle.check_classify(s, 2, "", "Traceback (most recent call last):\n"))

    def test_invalid_check_needs_a_real_witness(self):
        s = self.first("invalid", "check")
        n = s.expect["n"]
        top = " ".join(gen.labels(n)[-3:]).replace(" ", ",")
        good = "valid: no\nreason: symmetric exchange fails at X={}, Y={%s}, u=%d\n" % (top, n - 2)
        self.assertEqual(oracle.check_classify(s, 0, good, ""), [])
        bogus = "valid: no\nreason: symmetric exchange fails at X={}, Y={}, u=1\n"
        self.assertTrue(oracle.check_classify(s, 0, bogus, ""))

    def test_binary_matrix_must_reproduce_the_file(self):
        s = self.first("gf2sym", "classify")
        n = s.expect["n"]
        rows = s.expect["rows"]
        even = "yes" if len({bin(m).count("1") & 1 for m in gen.d_of_a(rows)}) == 1 else "no"
        printed = "|".join("".join(str((r >> j) & 1) for j in range(n)) for r in rows)
        out = "even: %s\nbinary: yes\nbinary-twist: {}\nbinary-matrix: %s\nbipartite: yes\neulerian: no\n"
        self.assertEqual(oracle.check_classify(s, 0, out % (even, printed), ""), [])
        flipped = ("1" if printed[0] == "0" else "0") + printed[1:]
        self.assertTrue(oracle.check_classify(s, 0, out % (even, flipped), ""))

    def test_ribbon_parity_must_match_orientability(self):
        s = self.first("ribbon", "to-dm")
        ground = "ground: " + " ".join(gen.labels(s.expect["n"]))
        empty = "feasible: {}\n" if s.expect["vertices"] == 1 else ""
        mixed = ground + "\n" + empty + "feasible: {1}\nfeasible: {1,2}\n"
        if s.expect["orientable"]:
            self.assertTrue(oracle.check_classify(s, 0, mixed, ""))
        self.assertTrue(oracle.check_classify(s, 1, mixed, ""))


class Generator(unittest.TestCase):
    def test_same_seed_same_digest(self):
        self.assertEqual(gen.digest(gen.generate(7)), gen.digest(gen.generate(7)))

    def test_other_seed_other_digest(self):
        self.assertNotEqual(gen.digest(gen.generate(7)), gen.digest(gen.generate(8)))

    def test_mix_is_stratified(self):
        a, b = gen.generate(7), gen.generate(8)
        self.assertEqual([(s.kind, s.argv, s.expect["n"]) for s in a], [(s.kind, s.argv, s.expect["n"]) for s in b])
        self.assertEqual(len(a), 100)

    def test_switching_signed_graphs_are_orientable(self):
        for seed in range(3):
            ribbons = [s for s in gen.generate(seed) if s.kind == "ribbon"]
            self.assertTrue(any(s.expect["orientable"] for s in ribbons))
            self.assertTrue(any(not s.expect["orientable"] for s in ribbons))


class Tracing(unittest.TestCase):
    def test_self_times_add_up_to_the_root(self):
        tr = tracer.Tracer()
        leaf = tr.wrap(lambda: time.sleep(0.002), "leaf")
        mid = tr.wrap(lambda: [leaf() for _ in range(3)], "mid")
        tr.root(lambda: [mid(), leaf()])
        calls, self_s = tr.layer_totals()
        root = tr.end[0] - tr.start[0]
        self.assertAlmostEqual(sum(self_s.values()), root, places=9)
        self.assertEqual(calls[tr._ids["leaf"]], 4)
        self.assertGreater(self_s[tr._ids["leaf"]], 0.007)

    def test_install_and_uninstall_restore_every_name(self):
        import dmx
        import dmx.cli
        import dmx.core
        import dmx.verify

        before = (
            dmx.core.exchange_violation_masks,
            dmx.verify.exchange_violation_masks,
            dmx.verify.SUITE["contraction_bipartite"],
            dmx.core.SetSystem.__dict__["twist"],
            dmx.matroid.Matroid.__dict__["circuits"],
            dmx.cli.main,
        )
        tr = tracer.Tracer()
        undo = tracer.install(tr)
        try:
            self.assertIsNot(dmx.verify.exchange_violation_masks, before[1])
            self.assertIs(dmx.verify.exchange_violation_masks, dmx.exchange_violation_masks)
            d = dmx.DeltaMatroid.from_sets("12", [(), "12"])
            self.assertEqual(dmx.lower_matroid(d).circuits, (0b01, 0b10))
        finally:
            undo()
        after = (
            dmx.core.exchange_violation_masks,
            dmx.verify.exchange_violation_masks,
            dmx.verify.SUITE["contraction_bipartite"],
            dmx.core.SetSystem.__dict__["twist"],
            dmx.matroid.Matroid.__dict__["circuits"],
            dmx.cli.main,
        )
        self.assertEqual([a is b for a, b in zip(before, after)], [True] * len(before))
        m = tr.metrics()
        self.assertEqual(m["core.exchange.calls"], 1)
        self.assertEqual(m["matroid.circuits.calls"], 1)
        self.assertEqual(m["matroid.lower.calls"], 1)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_percentile(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertAlmostEqual(run.percentile(list(range(11)), 90), 9.0)


if __name__ == "__main__":
    unittest.main()
