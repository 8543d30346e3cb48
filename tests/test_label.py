import numpy as np
import pytest

from speedtrim import label
from speedtrim.core import rel_error
from speedtrim.traceio import REGRESSOR_ARITY, regressor_input, resample

import util


def naive_scan(ws, regressor, epsilon_pct, y_true, stride_ms=500):
    """Independent per-stride scan: predict one input at a time."""
    t = stride_ms
    while t <= ws.duration_ms:
        pred = float(regressor.predict(regressor_input(ws, t).features))
        if rel_error(y_true, pred) <= epsilon_pct / 100.0:
            return t
        t += stride_ms
    return None


class TestStrideTimes:
    def test_counting(self):
        assert label.stride_times(10000) == list(range(500, 10001, 500))
        assert label.stride_times(499) == []
        assert label.stride_times(1000, 500) == [500, 1000]

    def test_stride_must_be_whole_windows(self):
        assert label.stride_times(1000, 100) == list(range(100, 1001, 100))
        with pytest.raises(ValueError, match="not a multiple of window 100"):
            label.stride_times(1000, 250)


class TestRegressionDataset:
    def test_sample_count(self, small_corpus):
        X, y, meta = label.build_regression_dataset(small_corpus)
        assert X.shape == (len(small_corpus) * 20, REGRESSOR_ARITY)
        assert len(y) == len(meta) == len(X)

    def test_targets_constant_per_trace(self, small_corpus):
        _, y, meta = label.build_regression_dataset(small_corpus)
        by_trace = {}
        for (tid, _), target in zip(meta, y):
            by_trace.setdefault(tid, set()).add(target)
        assert all(len(v) == 1 for v in by_trace.values())

    def test_early_sample_uses_padding(self, small_corpus):
        tid = small_corpus.ids[0]
        ws = resample(small_corpus.load(tid))
        X, _, meta = label.build_regression_dataset(small_corpus)
        i = meta.index((tid, 500))
        np.testing.assert_array_equal(X[i], regressor_input(ws, 500).features)
        assert regressor_input(ws, 500).n_padded == 15


class TestOracleStopTime:
    def test_perfect_regressor_first_stride(self, small_corpus):
        tid = small_corpus.ids[0]
        trace = small_corpus.load(tid)
        y = small_corpus.summary(tid).y_true_mbps
        assert label.oracle_stop_time(trace, util.constant_regressor(y), 20) == 500

    def test_zero_regressor_never_qualifies(self, small_corpus):
        trace = small_corpus.load(small_corpus.ids[0])
        assert label.oracle_stop_time(trace, util.constant_regressor(0.0), 20) is None

    def test_matches_naive_scan(self, small_corpus, small_regressor):
        for tid in small_corpus.ids[:10]:
            trace = small_corpus.load(tid)
            ws = resample(trace)
            y = small_corpus.summary(tid).y_true_mbps
            for eps in (5, 15, 35):
                got = label.oracle_stop_time(ws, small_regressor, eps, y_true=y)
                assert got == naive_scan(ws, small_regressor, eps, y), (tid, eps)


class TestOracleLabeling:
    def test_step_function(self, small_corpus, small_regressor):
        for tid in small_corpus.ids[:10]:
            ws = resample(small_corpus.load(tid))
            y = small_corpus.summary(tid).y_true_mbps
            lab = label.oracle_labeling(tid, ws, small_regressor, 15, y)
            diffs = np.diff(lab.labels.astype(int))
            assert np.all(diffs >= 0), "labels must be a step function"
            if lab.t_star_ms is None:
                assert not lab.labels.any()
            else:
                k = lab.t_star_ms // lab.stride_ms - 1
                assert not lab.labels[:k].any() and lab.labels[k:].all()

    def test_t_star_weakly_decreasing_in_epsilon(self, small_corpus, small_regressor):
        for tid in small_corpus.ids[:10]:
            ws = resample(small_corpus.load(tid))
            y = small_corpus.summary(tid).y_true_mbps
            stars = [label.oracle_labeling(tid, ws, small_regressor, e, y).t_star_ms
                     for e in label.EPSILON_SWEEP]
            cleaned = [s if s is not None else 10 ** 9 for s in stars]
            assert cleaned == sorted(cleaned, reverse=True)


class TestClassificationDataset:
    def test_step_construction(self, small_corpus):
        # a regressor whose error crosses epsilon at a known stride
        tid = small_corpus.ids[0]
        y = small_corpus.summary(tid).y_true_mbps
        X, labels, meta = label.build_classification_dataset(
            small_corpus, util.constant_regressor(y), 20)
        mine = [(t, l) for (tr, t), l in zip(meta, labels) if tr == tid]
        assert all(l == 1 for _, l in mine)  # perfect regressor: t* = 500

    def test_positive_rate_weakly_increases_with_epsilon(self, small_corpus,
                                                         small_regressor):
        rates = []
        for eps in label.EPSILON_SWEEP:
            _, labels, _ = label.build_classification_dataset(
                small_corpus, small_regressor, eps)
            rates.append(labels.mean())
        assert rates == sorted(rates)

    def test_all_negative_when_no_t_star(self, small_corpus):
        _, labels, _ = label.build_classification_dataset(
            small_corpus, util.constant_regressor(0.0), 5)
        assert not labels.any()

    def test_reconstruction_deterministic(self, small_corpus, small_regressor):
        a = label.build_classification_dataset(small_corpus, small_regressor, 15)
        b = label.build_classification_dataset(small_corpus, small_regressor, 15)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]
