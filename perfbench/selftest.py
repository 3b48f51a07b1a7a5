"""Self-test of the benchmark's own code; takes a few seconds.

    python3 perfbench/selftest.py

Checks the independent reference residual on hand-worked symbols and on the
benchmark's symmetric constructions, the self-time arithmetic on a
hand-built span tree, that tracing puts every module attribute back, and
that each workload runs to its end, untraced and traced, on shortened
inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import SCALED, SPECS  # noqa: E402

REVERSAL_2 = {"family": "reversal", "n": 2}


class ReferenceResidual(unittest.TestCase):
    def test_mirrored_even_symbol_is_symmetric(self):
        self.assertEqual(reference.residual({2: 1.0, -2: 1.0}, REVERSAL_2, 8), 0.0)

    def test_odd_symbol_is_not_symmetric(self):
        value = reference.residual({1: 1.0}, REVERSAL_2, 8)
        self.assertGreater(value, 0.5)
        self.assertEqual(reference.verdict(value), "not_symmetric")

    def test_symmetric_constructions(self):
        rng = np.random.default_rng(0)
        for _, spec in SPECS:
            for band in (0, 1, 5, 12):
                symbol = inputs.symmetric(rng, spec, band)
                n = 4 * reference.period(spec) * (band + 2)
                self.assertLessEqual(reference.residual(symbol, spec, n), 1e-14, (spec, band))

    def test_generic_inputs_are_not_symmetric(self):
        rng = np.random.default_rng(1)
        for _, spec in SPECS:
            symbol = inputs.generic(rng, spec, 6)
            n = 4 * reference.period(spec) * 8
            self.assertGreater(reference.residual(symbol, spec, n), 0.1, spec)

    def test_json_round_trip(self):
        rng = np.random.default_rng(2)
        for _, spec in SPECS:
            symbol = inputs.generic(rng, spec, 3)
            self.assertEqual(inputs.from_json(inputs.to_json(symbol, spec), spec), symbol)

    def test_scaled_slice_is_near_symmetric(self):
        for text, coeffs in SCALED:
            spec = dict(SPECS)[text]
            value = reference.residual(coeffs, spec, 16)
            self.assertLess(value, reference.SYMMETRY_TOL, text)
            self.assertGreater(value, 0.0, text)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # [op, span_id, parent_id, name, start, end]
        spans = [
            [0, 0, None, "root", 0.0, 10.0],
            [0, 1, 0, "a", 1.0, 3.0],
            [0, 2, 0, "b", 2.0, 4.0],      # overlaps a: [1, 4] is covered once
            [0, 3, 0, "c", 9.0, 12.0],     # clipped to the root's end
            [0, 4, 1, "a.child", 1.5, 2.0],
        ]
        own = tracing.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(own[1], 2.0 - 0.5)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 0.5)
        totals = tracing.layer_totals(spans)
        self.assertEqual(totals["root"]["calls"], 1)
        self.assertAlmostEqual(totals["a"]["self"], 1.5)

    def test_wrappers_are_removed(self):
        before = [getattr(m, a) for m, a, _, _ in tracing.TARGETS]
        classes = [c.__dict__[a] for c, a, _ in tracing.CLASS_TARGETS]
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            tracing.cli.main(["check", "--symbol", "z^2 + z^-2", "--spec", "reversal:2",
                              "--output", os.devnull])
        self.assertEqual(before, [getattr(m, a) for m, a, _, _ in tracing.TARGETS])
        self.assertEqual(classes, [c.__dict__[a] for c, a, _ in tracing.CLASS_TARGETS])
        names = {span[3] for span in tracer.spans}
        self.assertTrue({"cli.main", "symbols.parse", "symmetry.residual",
                         "toeplitz.truncate", "conditions.condition_reports"} <= names)
        self.assertEqual(tracer.spans[0][3], "cli.main")
        self.assertTrue(all(span[2] is not None for span in tracer.spans[1:]))

    def test_reference_speed_uses_the_bracketing_probes(self):
        from worker import at_reference_speed
        # sample i follows probe i; it is rescaled by the mean of probes
        # i-1 .. i+2, as far as they exist
        scaled = at_reference_speed([1.0] * 4, [0, 1, 2, 3], [1.0, 2.0, 3.0, 6.0], 1.0)
        for got, want in zip(scaled, [1 / 2, 1 / 3, 3 / 11, 2 / 9]):
            self.assertAlmostEqual(got, want)

    def test_paused_tracer_records_nothing(self):
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            tracer.paused = True
            tracing.conditions.explore_transposition(5, 1, 3, 11, 2, 0)
        self.assertEqual(tracer.spans, [])
        self.assertEqual(dict(tracer.counters), {})

    def test_explorer_relation_evaluation_is_traced(self):
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            tracing.conditions.explore_transposition(5, 1, 3, 11, 2, 0)
        totals = tracing.layer_totals(tracer.spans)
        # per trial: the raw-table evaluation and the closed-form check with
        # its own evaluation
        self.assertGreaterEqual(totals["conditions.condition_reports"]["calls"], 3)
        self.assertGreater(totals["conditions.condition_reports"]["self"], 0.0)


class Workloads(unittest.TestCase):
    def run_bench(self, trace: int) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--smoke",
               "--seconds", "0.5", "--seed", "3", "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170,
                              cwd=os.path.dirname(HERE))
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_results(self, results: dict):
        self.assertEqual(set(results), {"oracle-wide", "crossval-narrow", "explore-sweep"})
        for name, result in results.items():
            self.assertTrue(result["correct"], name)
            self.assertGreaterEqual(result["attempted"], 1, name)
        crossval = results["crossval-narrow"]
        per_round = 2 * len(SPECS) + len(SCALED)
        self.assertEqual(crossval["attempted"] % per_round, 0)
        self.assertEqual(crossval["failed"], crossval["attempted"] // per_round * len(SCALED))
        self.assertEqual(results["oracle-wide"]["failed"], 0)
        self.assertEqual(results["explore-sweep"]["failed"], 0)

    def test_untraced(self):
        results = self.run_bench(0)
        self.check_results(results)
        for result in results.values():
            self.assertEqual(set(result["metrics"]),
                             {"setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"})

    def test_traced(self):
        results = self.run_bench(1)
        self.check_results(results)
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
        for result in results.values():
            self.assertEqual(set(result["metrics"]), per_layer)
        self.assertGreater(results["oracle-wide"]["metrics"]["cli.output_bytes"]["value"], 0)
        self.assertGreater(results["crossval-narrow"]["metrics"]["conditions.sampler.ms"]["value"], 0)
        explore = results["explore-sweep"]["metrics"]
        self.assertGreater(explore["conditions.explore.self_ms"]["value"], 0)
        self.assertGreater(explore["conditions.condition_reports.self_ms"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
