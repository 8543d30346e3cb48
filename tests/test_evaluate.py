import csv
import shutil

import numpy as np
import pytest

from speedtrim import evaluate as E
from speedtrim.engine import Policy
from speedtrim.traceio import read_corpus, resample

import util


def rec(tid="t0", method="ml", param="15", stop=5000.0, early=50, full=100,
        err=0.1, tier=1, rtt_bin=0, complete=False):
    return E.Record(tid, method, param, stop, early, full, 100.0, err,
                    tier, rtt_bin, complete)


class TestRecord:
    @pytest.mark.parametrize("full", [0, -5])
    def test_nonpositive_full_bytes_rejected(self, full):
        with pytest.raises(ValueError, match=r"bytes_full must be positive.*trace 't7'"):
            rec(tid="t7", full=full)


class TestEvaluateMethod:
    def test_full_policy_identity(self, small_corpus):
        records = E.evaluate_method(small_corpus, "full")
        agg = E.aggregates(records)
        assert agg["median_rel_error"] == 0.0
        assert agg["transfer_fraction"] == 1.0

    def test_static_small_cap_fraction(self, small_corpus):
        cap = 100_000  # smaller than every trace's total bytes
        totals = [small_corpus.summary(t).total_bytes for t in small_corpus.ids]
        assert min(totals) > cap
        records = E.evaluate_method(small_corpus, "static", cap)
        agg = E.aggregates(records)
        expect = len(totals) * cap / sum(totals)
        # stops land on the first snapshot at or past the cap
        assert agg["transfer_fraction"] == pytest.approx(expect, rel=0.25)
        assert all(r.bytes_early >= cap for r in records)

    def test_ml_matches_engine_replay(self, small_corpus, small_regressor,
                                      small_classifier15):
        from speedtrim.engine import run_trace
        policy = Policy(small_regressor, small_classifier15, 15.0)
        records = E.evaluate_method(small_corpus, "ml", 15.0,
                                    policies={15.0: policy})
        for r in records[:10]:
            out = run_trace(small_corpus.load(r.trace_id), policy)
            assert r.stop_ms == out.stop_time_ms
            assert r.bytes_early == out.bytes_at_stop

    @pytest.mark.parametrize("method, values, label", [
        ("static", ("10MB", 10 ** 7, 1e7), "cap_bytes=10000000"),
        ("bbr", ("3", 3, 3.0), "k=3"),
        ("tsh", ("10", 10, 10.0), "tol_pct=10.0"),
        ("cis", ("0.7", 0.7), "beta=0.7"),
    ])
    def test_param_label_from_text_or_number(self, small_corpus, method, values, label):
        for value in values:
            records = E.evaluate_method(small_corpus, method, value)
            assert {r.param for r in records} == {label}, value

    def test_unknown_method(self, small_corpus):
        with pytest.raises(ValueError, match="unknown method"):
            E.evaluate_method(small_corpus, "wat", 1)

    def test_shuffle_invariance(self, small_corpus):
        records = E.evaluate_method(small_corpus, "bbr", 3)
        by_id = {r.trace_id: r for r in records}
        again = E.evaluate_method(small_corpus, "bbr", 3)
        assert {r.trace_id: r for r in again} == by_id


class TestParetoSweep:
    def test_bbr_sweep_shape_and_monotonicity(self, small_corpus):
        points, by_param = E.pareto_sweep(small_corpus, "bbr", [1, 2, 3, 5, 7])
        assert len(points) == 5
        fractions = [p.transfer_fraction for p in points]
        assert fractions == sorted(fractions)
        # per-trace stop times are monotone too
        for a, b in zip([1, 2, 3, 5], [2, 3, 5, 7]):
            for ra, rb in zip(by_param[a], by_param[b]):
                assert ra.stop_ms <= rb.stop_ms

    def test_single_parameter_frontier(self, small_corpus):
        points, _ = E.pareto_sweep(small_corpus, "tsh", [25])
        assert E.nondominated(points) == points

    def test_empty_params_rejected(self, small_corpus):
        with pytest.raises(ValueError):
            E.pareto_sweep(small_corpus, "bbr", [])


class TestOnePassSweep:
    """pareto_sweep walks the corpus once, traces outside, parameters inside."""

    @pytest.mark.parametrize("method, params", [
        ("static", ["10MB", 25_000_000, "50MB"]),
        ("bbr", [1, 3, 5, 7]),
        ("tsh", [10, 20.0, "30"]),
        ("cis", [0.7, 0.8, 0.9]),
        ("ml", [10.0, 15.0]),
    ])
    def test_records_equal_per_parameter_evaluation(self, small_corpus, small_regressor,
                                                    small_classifier15, method, params):
        policies = {eps: Policy(small_regressor, small_classifier15, eps)
                    for eps in (10.0, 15.0)} if method == "ml" else None
        points, by_param = E.pareto_sweep(small_corpus, method, params, policies=policies)
        assert list(by_param) == params
        for p, point in zip(params, points):
            records = E.evaluate_method(small_corpus, method, p, policies=policies)
            assert by_param[p] == records
            assert point == E.frontier_point(records)

    def test_repeated_parameter_keeps_one_point_each(self, small_corpus):
        points, by_param = E.pareto_sweep(small_corpus, "bbr", [3, 5, 3])
        assert [p.param for p in points] == ["k=3", "k=5", "k=3"]
        assert by_param[3] == E.evaluate_method(small_corpus, "bbr", 3)

    def test_each_trace_decoded_and_resampled_once(self, small_corpus, monkeypatch):
        corpus = read_corpus(small_corpus.root)
        files = {fn: 1 for fn, _ in corpus.entries}
        decodes = util.count_decodes(monkeypatch)
        resampled = []

        def counting_resample(trace):
            resampled.append(trace.id)
            return resample(trace)

        monkeypatch.setattr(E, "resample", counting_resample)
        E.pareto_sweep(corpus, "bbr", [1, 3, 5, 7])
        assert decodes == files
        assert resampled == corpus.ids

    def test_static_sweep_resamples_no_trace(self, small_corpus, monkeypatch):
        # the static cap reads the trace's own byte counts, not frames
        corpus = read_corpus(small_corpus.root)
        decodes = util.count_decodes(monkeypatch)
        resampled = []

        def counting_resample(trace):
            resampled.append(trace.id)
            return resample(trace)

        monkeypatch.setattr(E, "resample", counting_resample)
        E.pareto_sweep(corpus, "static", ["10MB", "25MB"])
        assert decodes == {fn: 1 for fn, _ in corpus.entries}
        assert resampled == []

    def test_without_manifest_each_trace_decoded_once(self, small_corpus, tmp_path,
                                                      monkeypatch):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root, ignore=shutil.ignore_patterns("manifest.csv"))
        corpus = read_corpus(str(root))
        decodes = util.count_decodes(monkeypatch)
        _, by_param = E.pareto_sweep(corpus, "tsh", [10, 30])
        assert decodes == {fn: 1 for fn, _ in corpus.entries}
        assert by_param[10] == E.evaluate_method(small_corpus, "tsh", 10)

    def test_full_records_decode_nothing(self, small_corpus, monkeypatch):
        corpus = read_corpus(small_corpus.root)
        decodes = util.count_decodes(monkeypatch)
        records = E.evaluate_method(corpus, "full")
        assert not decodes
        assert [r.trace_id for r in records] == corpus.ids
        assert [r.bytes_early for r in records] == [
            small_corpus.summary(tid).total_bytes for tid in corpus.ids]


class TestNondominated:
    def test_strict_domination_removed(self):
        a = E.FrontierPoint("m", "1", 0.1, 0.2, 1.0, 10)
        b = E.FrontierPoint("m", "2", 0.2, 0.3, 1.0, 10)
        c = E.FrontierPoint("m", "3", 0.05, 0.5, 1.0, 10)
        out = E.nondominated([a, b, c])
        assert a in out and c in out and b not in out

    def test_ties_survive(self):
        a = E.FrontierPoint("m", "1", 0.1, 0.2, 1.0, 10)
        b = E.FrontierPoint("m", "2", 0.1, 0.2, 1.0, 10)
        assert E.nondominated([a, b]) == [a, b]


class TestSelectAdaptive:
    def test_most_aggressive_qualifying(self):
        # eps=5: 12% err / 0.3 transfer; eps=15: 19% err / 0.1 transfer
        by_param = {
            5: [rec(f"t{i}", param="5", early=30, err=0.12) for i in range(5)],
            15: [rec(f"t{i}", param="15", early=10, err=0.19) for i in range(5)],
        }
        policy = E.select_adaptive(by_param, "global")
        assert policy.choices["all"] == 15

    def test_no_qualifying_parameter(self):
        by_param = {5: [rec(err=0.5)], 15: [rec(err=0.9)]}
        policy = E.select_adaptive(by_param, "global")
        assert policy.choices["all"] is None

    def test_oracle_per_test(self):
        by_param = {
            5: [rec("a", early=40, err=0.1), rec("b", early=40, err=0.5)],
            15: [rec("a", early=10, err=0.25), rec("b", early=10, err=0.3)],
        }
        policy = E.select_adaptive(by_param, "oracle")
        assert policy.choices["a"] == 5      # only eps=5 meets the bound
        assert policy.choices["b"] is None   # nothing qualifies

    def test_constraint_satisfied_after_application(self, small_corpus):
        points, by_param = E.pareto_sweep(small_corpus, "tsh", [20, 25, 30, 35])
        full = E.evaluate_method(small_corpus, "full")
        for strategy in E.STRATEGIES:
            policy = E.select_adaptive(by_param, strategy)
            applied = E.apply_group_policy(by_param, full, policy)
            assert len(applied) == len(small_corpus)
            # per group, the constraint holds on the split it was chosen on
            groups = {}
            for r in applied:
                groups.setdefault(E.group_key(r, strategy), []).append(r)
            for key, rs in groups.items():
                if policy.choices.get(key) is not None:
                    med = float(np.median([r.rel_error for r in rs]))
                    assert med < 0.20, (strategy, key)


class TestPercentileCurve:
    def test_monotone_in_percentile(self, small_corpus):
        _, by_param = E.pareto_sweep(small_corpus, "tsh", [20, 25, 30, 35])
        curve = E.percentile_curve(by_param, [50, 75, 90, 95])
        values = [v for _, v in curve]
        assert values == sorted(values)

    def test_p50_matches_global_adaptive_transfer(self, small_corpus):
        _, by_param = E.pareto_sweep(small_corpus, "tsh", [20, 25, 30, 35])
        curve = dict(E.percentile_curve(by_param, [50]))
        policy = E.select_adaptive(by_param, "global")
        chosen = policy.choices["all"]
        if chosen is None:
            assert curve[50] == 1.0
        else:
            expect = E.aggregates(by_param[chosen])["transfer_fraction"]
            # p50 uses a <= bound while selection uses <; they agree except
            # exactly on the boundary
            assert curve[50] <= expect + 1e-12

    def test_huge_bound_gives_global_minimum(self, small_corpus):
        _, by_param = E.pareto_sweep(small_corpus, "bbr", [1, 3, 7])
        curve = dict(E.percentile_curve(by_param, [50], bound_pct=10_000))
        fractions = [E.aggregates(r)["transfer_fraction"] for r in by_param.values()]
        assert curve[50] == pytest.approx(min(fractions))

    def test_bad_percentiles(self):
        with pytest.raises(ValueError):
            E.percentile_curve({}, [40])
        with pytest.raises(ValueError):
            E.percentile_curve({}, [90, 75])


class TestCsvRoundTrip:
    def test_aggregates_recomputable_from_records_csv(self, small_corpus, tmp_path):
        records = E.evaluate_method(small_corpus, "bbr", 3)
        path = str(tmp_path / "records.csv")
        E.write_records_csv(path, records)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = [float(r["rel_error"]) for r in rows]
        early = sum(int(r["bytes_early"]) for r in rows)
        full = sum(int(r["bytes_full"]) for r in rows)
        agg = E.aggregates(records)
        assert float(np.median(errors)) == agg["median_rel_error"]
        assert early / full == agg["transfer_fraction"]

    def test_frontier_csv(self, small_corpus, tmp_path):
        points, _ = E.pareto_sweep(small_corpus, "bbr", [1, 2, 3, 5, 7])
        path = str(tmp_path / "frontier.csv")
        E.write_frontier_csv(path, points, E.nondominated(points))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
