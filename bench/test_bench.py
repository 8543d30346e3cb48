"""Tests of the benchmark's own code: span arithmetic and output checks.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)

Every checker must pass a consistent hand-made output and reject one that
has been made wrong on purpose.
"""

import copy
import os
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import spans  # noqa: E402

# One trace of eleven snapshots, 100 ms apart, 1 MB per snapshot.
T_US = [i * 100_000 for i in range(11)]
ACKED = [i * 1_000_000 for i in range(11)]
TRUTH = {"a": (T_US, ACKED)}
Y_TRUE = 8.0 * ACKED[-1] / T_US[-1]


def record(method, param, stop_ms, early, estimate, completed, trace_id="a",
           tier="1", rtt_bin="2"):
    return {
        "trace_id": trace_id, "method": method, "param": param,
        "stop_ms": repr(float(stop_ms)), "bytes_early": str(early),
        "bytes_full": str(ACKED[-1]), "estimate": repr(estimate),
        "rel_error": repr(abs(Y_TRUE - estimate) / Y_TRUE),
        "tier": tier, "rtt_bin": rtt_bin, "ran_to_completion": "1" if completed else "0",
    }


def static_record(cap):
    i = next((i for i, b in enumerate(ACKED) if b >= cap and T_US[i] > 0), None)
    if i is None or i == len(ACKED) - 1:
        return record("static", f"cap_bytes={cap}", T_US[-1] / 1000.0, ACKED[-1], Y_TRUE, True)
    return record("static", f"cap_bytes={cap}", T_US[i] / 1000.0, ACKED[i],
                  8.0 * ACKED[i] / T_US[i], False)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        s = [
            ["root", 0.0, 10.0, -1, 0, None],
            ["a", 1.0, 3.0, 0, 0, None],
            ["b", 2.0, 4.0, 0, 0, None],      # overlaps a: union 1..4
            ["c", 5.0, 6.0, 0, 0, None],
            ["grandchild", 5.2, 5.7, 3, 0, None],
        ]
        self.assertEqual(spans.self_times(s), [6.0, 2.0, 2.0, 0.5, 0.5])

    def test_child_outside_parent_is_clipped(self):
        s = [["p", 0.0, 2.0, -1, 0, None], ["c", 1.5, 3.0, 0, 0, None]]
        self.assertEqual(spans.self_times(s)[0], 1.5)

    def test_percentile_interpolates_like_numpy(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(spans.percentile(xs, 50), 3.0)
        self.assertAlmostEqual(spans.percentile(xs, 99), 4.96)
        self.assertEqual(spans.percentile(xs, 0), 1.0)
        self.assertEqual(spans.percentile(xs, 100), 5.0)
        self.assertEqual(spans.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            spans.percentile([], 50)

    def test_percentile_of_medians_counts_each_key_once(self):
        keys = ["a", "a", "a", "b", "b", "c"]
        values = [1.0, 9.0, 2.0, 4.0, 6.0, 3.0]
        # medians: a 2.0, b 5.0, c 3.0; one slow call of "a" is not a tail
        self.assertEqual(spans.percentile_of_medians(keys, values, 100), 5.0)
        self.assertEqual(spans.percentile_of_medians(keys, values, 50), 3.0)
        self.assertEqual(spans.percentile_of_medians(keys, values, 0), 2.0)
        with self.assertRaises(ValueError):
            spans.percentile_of_medians(["a"], [1.0, 2.0], 50)

    def test_decode_counted_once_per_file(self):
        s = []
        for group in (1, 2):
            for _ in range(2):          # each command decodes x.jsonl twice
                outer = len(s)
                s.append(["traceio.parse_trace", 0.0, 1.0, -1, group, "x.jsonl"])
                s.append(["traceio.parse_trace", 0.1, 0.9, outer, group, None])
        m = spans.layer_metrics(s, startup_s=0.25)
        self.assertEqual(m["traceio.parse_trace.files"], 4)
        self.assertEqual(m["traceio.parse_trace.decodes_per_trace"], 2.0)
        self.assertAlmostEqual(m["traceio.parse_trace.self_s"], 4 * 0.2 + 4 * 0.8)
        self.assertEqual(m["cli.startup_s"], 0.25)

    def test_stride_counts(self):
        s = [
            ["engine.Session.feed", 0.0, 1.0, -1, 7, None],
            ["engine.guard", 0.1, 0.2, 0, 7, True],
            ["mlp.predict_proba", 0.3, 0.4, 0, 7, 1],
            ["engine.Session.feed", 2.0, 3.0, -1, 7, None],
            ["engine.guard", 2.1, 2.2, 3, 7, False],
            ["mlp.predict_proba", 4.0, 4.5, -1, 0, 10],   # batched, outside a session
        ]
        m = spans.layer_metrics(s, startup_s=0.0)
        self.assertEqual(m["engine.strides.judged"], 2)
        self.assertEqual(m["engine.guard.suppressed"], 1)
        self.assertEqual(m["engine.classifier.calls_per_stride"], 0.5)
        self.assertEqual(m["mlp.predict_proba.rows"], 11)

    def test_install_wraps_imported_names_and_restores(self):
        from speedtrim import engine, label, traceio

        original = traceio.resample
        rec = spans.Recorder()
        restore = spans.install(rec)
        try:
            self.assertIsNot(engine.resample, original)
            self.assertIs(engine.resample, label.resample)
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "t.jsonl")
                with open(path, "w") as fh:
                    fh.write('{"id": "t", "duration_us": 200000}\n')
                    for t, b in ((0, 0), (100000, 10), (200000, 20)):
                        fh.write(f'{{"t_us": {t}, "bytes_acked": {b}, "cwnd_bytes": 1,'
                                 f' "bytes_in_flight": 0, "rtt_us": 5, "retrans": 0,'
                                 f' "dup_acks": 0, "pipe_full": 0}}\n')
                traceio.resample(traceio.parse_trace(path))
        finally:
            restore()
        self.assertIs(engine.resample, original)
        m = spans.layer_metrics(rec.spans, startup_s=0.0)
        self.assertEqual(m["traceio.parse_trace.files"], 1)
        self.assertEqual(m["core.Trace.calls"], 1)
        self.assertEqual(m["traceio.resample.calls"], 1)


class CorpusAndRecordChecks(unittest.TestCase):
    def test_manifest(self):
        good = [{"id": "a", "total_bytes": str(ACKED[-1]), "y_true_mbps": repr(Y_TRUE)}]
        self.assertEqual(checks.check_manifest(good, TRUTH), [])
        bad = copy.deepcopy(good)
        bad[0]["total_bytes"] = str(ACKED[-1] - 1)
        self.assertTrue(checks.check_manifest(bad, TRUTH))
        bad = copy.deepcopy(good)
        bad[0]["y_true_mbps"] = repr(Y_TRUE * 1.01)
        self.assertTrue(checks.check_manifest(bad, TRUTH))

    def test_records(self):
        good = [record("bbr", "k=1", 500.0, ACKED[5], 7.5, False),
                record("bbr", "k=3", 1000.0, ACKED[-1], Y_TRUE, True)]
        self.assertEqual(checks.check_records(good, TRUTH), [])
        for field, value in (("bytes_early", str(ACKED[-1] + 1)),
                             ("rel_error", "0.5"),
                             ("bytes_full", str(ACKED[-1] - 1))):
            bad = copy.deepcopy(good)
            bad[0][field] = value
            self.assertTrue(checks.check_records(bad, TRUTH), field)
        bad = copy.deepcopy(good)
        bad[1]["bytes_early"] = str(ACKED[5])       # completed run with early bytes
        self.assertTrue(checks.check_records(bad, TRUTH))

    def test_numpy_scalar_repr_is_read_as_its_number(self):
        self.assertEqual(checks.num("np.float64(0.25)"), 0.25)
        self.assertEqual(checks.num("0.25"), 0.25)

    def test_static_stop_recomputed(self):
        good = [static_record(cap) for cap in (2_500_000, 5_000_000, 20_000_000)]
        self.assertEqual(checks.check_static(good, TRUTH), [])
        bad = copy.deepcopy(good)
        bad[0]["stop_ms"] = repr(400.0)
        self.assertTrue(checks.check_static(bad, TRUTH))
        bad = copy.deepcopy(good)
        bad[1]["bytes_early"] = str(ACKED[6])
        self.assertTrue(checks.check_static(bad, TRUTH))

    def test_monotone(self):
        good = [record("bbr", "k=1", 500.0, ACKED[5], 8.0, False),
                record("bbr", "k=3", 1000.0, ACKED[-1], Y_TRUE, True),
                record("tsh", "tol_pct=10.0", 1000.0, ACKED[-1], Y_TRUE, True),
                record("tsh", "tol_pct=30.0", 500.0, ACKED[5], 8.0, False)]
        self.assertEqual(checks.check_monotone(good), [])
        bad = copy.deepcopy(good)
        bad[0]["stop_ms"], bad[1]["stop_ms"] = bad[1]["stop_ms"], bad[0]["stop_ms"]
        self.assertTrue(checks.check_monotone(bad))
        bad = copy.deepcopy(good)
        bad[2]["stop_ms"], bad[3]["stop_ms"] = bad[3]["stop_ms"], bad[2]["stop_ms"]
        self.assertTrue(checks.check_monotone(bad))


class FrontierAndGroupChecks(unittest.TestCase):
    def setUp(self):
        # two traces in different groups, two tolerances
        self.records = [
            record("ml", "5.0", 500.0, ACKED[5], 78.0, False, "a", "1", "2"),
            record("ml", "5.0", 1000.0, ACKED[-1], Y_TRUE, True, "b", "3", "0"),
            record("ml", "35.0", 500.0, ACKED[5], 50.0, False, "a", "1", "2"),
            record("ml", "35.0", 500.0, ACKED[5], 90.0, False, "b", "3", "0"),
        ]
        for r in self.records:
            r["bytes_full"] = str(ACKED[-1])

    def frontier(self):
        import statistics

        rows = []
        for p in ("5.0", "35.0"):
            recs = [r for r in self.records if r["param"] == p]
            early = sum(int(r["bytes_early"]) for r in recs)
            full = sum(int(r["bytes_full"]) for r in recs)
            rows.append({"method": "ml", "param": p, "n": str(len(recs)),
                         "median_rel_error": repr(statistics.median(
                             float(r["rel_error"]) for r in recs)),
                         "transfer_fraction": repr(early / full)})
        return rows

    def test_frontier(self):
        good = self.frontier()
        self.assertEqual(checks.check_frontier(good, self.records), [])
        for field, value in (("median_rel_error", "0.3"), ("transfer_fraction", "0.9"),
                             ("n", "3")):
            bad = copy.deepcopy(good)
            bad[1][field] = value
            self.assertTrue(checks.check_frontier(bad, self.records), field)

    def groups(self, strategy, choices, median, transfer):
        return [{"strategy": strategy, "group": g, "param": p,
                 "median_rel_error": repr(median), "transfer_fraction": repr(transfer)}
                for g, p in choices.items()]

    def test_groups(self):
        full = ACKED[-1]
        # trace a at eps 5 (error 0.025), trace b run to completion
        e_a = abs(Y_TRUE - 78.0) / Y_TRUE
        good = (self.groups("speed-only", {"1": "5.0", "3": ""},
                            (e_a + 0.0) / 2, (ACKED[5] + full) / (2 * full))
                + self.groups("oracle", {"a": "5.0", "b": "5.0"},
                              (e_a + 0.0) / 2, (ACKED[5] + full) / (2 * full)))
        self.assertEqual(checks.check_groups(good, self.records), [])
        # eps 35 gives trace a an error of 0.375: above the constraint
        bad = copy.deepcopy(good)
        bad[0]["param"] = "35.0"
        self.assertTrue(checks.check_groups(bad, self.records))
        bad = copy.deepcopy(good)
        bad[2]["param"] = "35.0"
        self.assertTrue(checks.check_groups(bad, self.records))
        bad = copy.deepcopy(good)
        bad[1]["transfer_fraction"] = "0.5"
        self.assertTrue(checks.check_groups(bad, self.records))

    def test_train_mse(self):
        self.assertEqual(checks.check_train_mse([3.0, 2.0, 2.0, 1.0]), [])
        self.assertTrue(checks.check_train_mse([3.0, 2.0, 2.5]))


class LiveChecks(unittest.TestCase):
    def setUp(self):
        self.streams = {0: (T_US, ACKED), 1: (T_US, ACKED), 2: (T_US, ACKED)}
        self.refs = {0: (500.0, ACKED[5], 7.9, False),
                     1: (T_US[-1] / 1000.0, ACKED[-1], Y_TRUE, True)}
        self.outcomes = [(0, self.refs[0]), (1, self.refs[1]), (0, self.refs[0])]
        self.failures = [(2, "ValidationError")]

    def check(self, outcomes=None, refs=None, failures=None):
        return checks.check_live(self.outcomes if outcomes is None else outcomes,
                                 self.refs if refs is None else refs, self.streams,
                                 self.failures if failures is None else failures, {2})

    def test_consistent_outcomes_pass(self):
        self.assertEqual(self.check(), [])

    def test_session_differs_from_replay(self):
        self.assertTrue(self.check(outcomes=[(0, (500.0, ACKED[5], 7.8, False))]))

    def test_stop_off_stride_or_at_the_end(self):
        refs = {0: (400.0, ACKED[4], 7.9, False), 1: (1000.0, ACKED[-1], 8.0, False)}
        self.assertTrue(self.check(outcomes=[(0, refs[0])], refs=refs))
        self.assertTrue(self.check(outcomes=[(1, refs[1])], refs=refs))

    def test_bytes_not_at_the_stop(self):
        refs = {0: (500.0, ACKED[6], 7.9, False)}
        self.assertTrue(self.check(outcomes=[(0, refs[0])], refs=refs))

    def test_failures_only_on_dipped_streams_with_validation_error(self):
        self.assertTrue(self.check(failures=[]))
        self.assertTrue(self.check(failures=[(2, "ValidationError"), (0, "ValidationError")]))
        self.assertTrue(self.check(failures=[(2, "SessionError")]))


if __name__ == "__main__":
    unittest.main()
