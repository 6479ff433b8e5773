"""Self-tests of the benchmark harness (stdlib only).

    python3 -m unittest discover -s perfbench/tests
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import unittest
from contextlib import redirect_stderr
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, extra=None):
    return [name, start, end, parent, "op", extra]


class SelfTimeTest(unittest.TestCase):
    # 0: a [0, 10] with children 1: b [1, 4] (child 2: c [2, 3]) and 3: d [5, 9];
    # 4: e [12, 13] is a second root; 5: f [3, 6] overlaps b inside a.
    SPANS = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),
        span("d", 5.0, 9.0, 0),
        span("e", 12.0, 13.0),
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_overlapping_children_are_counted_once(self):
        spans = self.SPANS + [span("f", 3.0, 6.0, 0)]
        # a's children now cover [1, 9]: 8 of its 10 seconds.
        self.assertEqual(tracing.self_times(spans)[0], 2.0)

    def test_self_times_and_gaps_add_up_to_the_wall_time(self):
        self.assertEqual(tracing.uncovered(self.SPANS, 0.0, 15.0), 4.0)
        out = tracing.layer_metrics(self.SPANS, 0.0, 15.0)
        self.assertEqual(out["trace.unaccounted_s"], 0.0)

    def test_layer_metrics_read_self_total_and_counts(self):
        spans = [
            span("cli.main", 0.0, 5.0),
            span("graphs.enumerate_class", 1.0, 4.0, 0, {"scan_maps": 27}),
            span("monoid.from_elements", 2.0, 3.5, 1, {"closure_elements": 6}),
            span("congruence.enumerate_quotient", 6.0, 7.0, -1, {"classes_final": 6}),
            span("congruence.enumerate_quotient", 8.0, 10.0, -1, {"classes_reached": 9}),
        ]
        out = tracing.layer_metrics(spans, 0.0, 10.0)
        self.assertEqual(out["cli.self_s"], 2.0)
        self.assertEqual(out["graphs.enumerate_self_s"], 1.5)
        self.assertEqual(out["monoid.from_elements_s"], 1.5)
        self.assertEqual(out["graphs.scan_maps"], 27)
        self.assertEqual(out["monoid.closure_elements"], 6)
        self.assertEqual(out["congruence.verified_s"], 1.0)
        self.assertEqual(out["congruence.exceeded_s"], 2.0)
        self.assertEqual(out["congruence.classes_reached"], 9)
        self.assertEqual(out["calls.congruence.enumerate_quotient"], 2)
        self.assertEqual(out["calls.wordclosure.word_closure_size"], 0)
        self.assertEqual(out["trace.unaccounted_s"], 0.0)


class ReferenceTest(unittest.TestCase):
    CHEAP = ["census:3", "verify:end:3", "gens:wend:3", "regular:swend:3", "rank:end:3"]

    @classmethod
    def setUpClass(cls):
        import starendo
        import starendo.cli  # noqa: F401

        cls.se = starendo
        ops = {op.id: op for w in workloads.WORKLOADS for op in workloads.operations(w)}
        cls.ops = [ops[i] for i in cls.CHEAP]

    def test_right_references_pass(self):
        for op in self.ops:
            self.assertIsNone(workloads.execute(self.se, op, {}), op.id)

    def test_wrong_reference_is_a_failure(self):
        for op in self.ops:
            if op.kind == "census":
                wrong = {**op.expected, "end": op.expected["end"] + 1}
            elif op.kind == "gens":
                wrong = False
            else:
                wrong = op.expected + 1
            bad = dataclasses.replace(op, expected=wrong)
            self.assertIsNotNone(workloads.execute(self.se, bad, {}), op.id)

    def test_failed_operation_counts_and_marks_the_run_wrong(self):
        ok = {"id": "census:3", "s": 0.1, "ref_s": 0.1, "error": None}
        bad = {"id": "census:4", "s": 0.2, "ref_s": 0.2, "error": "rows differ"}
        passes = [
            {"ops": ops, "wall_s": 0.3, "wall_ref_s": 0.3, "setup_s": 0.05,
             "setup_ref_s": 0.05, "max_rss_kib": 2048, "traced": False}
            for ops in ([ok, bad], [ok, ok])
        ]
        with redirect_stderr(io.StringIO()):
            result, table = run.summarize("census", 0, {"passes": passes, "setups": passes},
                                          trace=False)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (False, 4, 1))
        rows = {name: (value, count) for name, value, _, count in table}
        self.assertEqual(rows["fail_frac"], (0.25, 4))
        self.assertEqual(rows["wall_s"][1], 2)
        self.assertEqual(set(result["metrics"]),
                         {"wall_s", "slowest_op_s", "peak_rss_mib", "setup_s"})


class SpeedTest(unittest.TestCase):
    def test_reference_seconds_weigh_by_loop_rate(self):
        # 2 s while the loop ran at 250/s and 125/s: 1.5 s at 1/REF_LOOP_S per second.
        r = speed.REF_LOOP_S
        self.assertAlmostEqual(speed.reference_seconds(2.0, [r, 2 * r]), 1.5)

    def test_probe_clock_leaves_the_probe_out(self):
        with speed.SpeedProbe() as probe:
            t0, c0 = time.perf_counter(), probe.clock()
            while time.perf_counter() - t0 < 3 * speed.INTERVAL_S:
                pass
            t1, c1 = time.perf_counter(), probe.clock()
        loops = probe.loops(c0, c1)
        self.assertGreaterEqual(len(loops), 2)
        # Each tick runs two kernels whose geometric mean it records.
        self.assertGreaterEqual((t1 - t0) - (c1 - c0), 2 * sum(loops))
        self.assertLess((t1 - t0) - (c1 - c0), (t1 - t0) / 2)


class SeedTest(unittest.TestCase):
    def test_seed_only_permutes_the_operations(self):
        for w in workloads.WORKLOADS:
            canonical = sorted(workloads.operations(w), key=lambda op: op.id)
            seen = set()
            for seed in range(4):
                orders = list(islice(workloads.pass_orders(w, seed), 3))
                self.assertEqual(orders, list(islice(workloads.pass_orders(w, seed), 3)))
                for order in orders:
                    self.assertEqual(sorted(order, key=lambda op: op.id), canonical)
                    seen.add(tuple(op.id for op in order))
            self.assertGreater(len(seen), 1, w)


class WorkerTest(unittest.TestCase):
    def test_traced_pass_reports_consistent_spans(self):
        order = "gens:end:3,regular:wend:4,rank:end:3,gens:end:4"
        proc = subprocess.run(
            [sys.executable, run.WORKER, "structure", repr(time.monotonic()), "1", order],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual([op["error"] for op in doc["ops"]], [None] * 4)
        layers = doc["layers"]
        self.assertLess(abs(layers["trace.unaccounted_s"]), run.UNACCOUNTED_TOLERANCE_S)
        self.assertEqual(layers["calls.bench.op"], 4)
        self.assertEqual(layers["calls.cli.main"], 3)
        self.assertEqual(layers["calls.graphs.enumerate_class"], 4)
        self.assertEqual(layers["calls.monoid.rank_exact"], 1)
        self.assertEqual(layers["graphs.scan_maps"], 3 ** 3 + 4 ** 4)
        self.assertEqual(layers["graphs.regular_elements"], 88)
        names = {s[tracing.NAME] for s in doc["spans"]}
        self.assertLessEqual(names, set(tracing.SPAN_NAMES))


if __name__ == "__main__":
    unittest.main()
