import numpy as np
import pytest

from speedtrim import label
from speedtrim.core import WINDOW_MS, rel_error
from speedtrim.traceio import REGRESSOR_ARITY, REGRESSOR_WINDOWS, regressor_input, resample

import util


def naive_scan(ws, regressor, epsilon_pct, y_true, stride_ms=500):
    """Independent per-stride scan: predict one input at a time."""
    t = stride_ms
    while t <= len(ws) * WINDOW_MS:
        pred = float(regressor.predict(regressor_input(ws, t)))
        if rel_error(y_true, pred) <= epsilon_pct / 100.0:
            return t
        t += stride_ms
    return None


def labeling(corpus, tid, regressor):
    ws = resample(corpus.load(tid))
    return ws, label.oracle_labeling(ws, regressor, corpus.summary(tid).y_true_mbps)


class TestStrideTimes:
    def test_counting(self):
        assert label.stride_times(10000) == list(range(500, 10001, 500))
        assert label.stride_times(499) == []
        assert label.stride_times(1000) == [500, 1000]


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
        np.testing.assert_array_equal(X[i], regressor_input(ws, 500))
        # five windows exist at 500 ms: the first 15 of 20 rows repeat frame 0
        rows = X[i, :-1].reshape(REGRESSOR_WINDOWS, -1)
        np.testing.assert_array_equal(rows[:15], np.repeat(ws[:1], 15, axis=0))
        np.testing.assert_array_equal(rows[15:], ws[:5])


class TestOracleStopTime:
    def test_perfect_regressor_first_stride(self, small_corpus):
        tid = small_corpus.ids[0]
        y = small_corpus.summary(tid).y_true_mbps
        _, lab = labeling(small_corpus, tid, util.constant_regressor(y))
        assert lab.t_star_ms(20) == 500

    def test_zero_regressor_never_qualifies(self, small_corpus):
        _, lab = labeling(small_corpus, small_corpus.ids[0], util.constant_regressor(0.0))
        assert lab.t_star_ms(20) is None

    def test_matches_naive_scan(self, small_corpus, small_regressor):
        for tid in small_corpus.ids[:10]:
            ws, lab = labeling(small_corpus, tid, small_regressor)
            y = small_corpus.summary(tid).y_true_mbps
            for eps in (5, 15, 35):
                assert lab.t_star_ms(eps) == naive_scan(ws, small_regressor, eps, y), (tid, eps)

    def test_errors_are_rel_error_per_stride(self, small_corpus, small_regressor):
        tid = small_corpus.ids[0]
        ws, lab = labeling(small_corpus, tid, small_regressor)
        y = small_corpus.summary(tid).y_true_mbps
        assert lab.stride_times == list(range(500, 10001, 500))
        want = [rel_error(y, float(small_regressor.predict(regressor_input(ws, t))))
                for t in lab.stride_times]
        assert lab.errors.tolist() == want

    def test_nonpositive_truth_rejected(self, small_corpus, small_regressor):
        ws = resample(small_corpus.load(small_corpus.ids[0]))
        for y in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be positive"):
                label.oracle_labeling(ws, small_regressor, y)


class TestOracleLabeling:
    def test_step_function(self, small_corpus, small_regressor):
        for tid in small_corpus.ids[:10]:
            _, lab = labeling(small_corpus, tid, small_regressor)
            labels = lab.labels(15)
            assert np.all(np.diff(labels.astype(int)) >= 0), "labels must be a step function"
            t_star = lab.t_star_ms(15)
            if t_star is None:
                assert not labels.any()
            else:
                k = lab.stride_times.index(t_star)
                assert not labels[:k].any() and labels[k:].all()

    def test_t_star_weakly_decreasing_in_epsilon(self, small_corpus, small_regressor):
        for tid in small_corpus.ids[:10]:
            _, lab = labeling(small_corpus, tid, small_regressor)
            stars = [lab.t_star_ms(e) for e in label.EPSILON_SWEEP]
            cleaned = [s if s is not None else 10 ** 9 for s in stars]
            assert cleaned == sorted(cleaned, reverse=True)


class TestClassificationDataset:
    def test_step_construction(self, small_corpus):
        # a perfect regressor: t* = 500 on every trace
        tid = small_corpus.ids[0]
        y = small_corpus.summary(tid).y_true_mbps
        X, labels, meta = label.build_classification_dataset(
            small_corpus, util.constant_regressor(y), (20,))
        assert labels.shape == (len(X), 1)
        mine = [l for (tr, _), (l,) in zip(meta, labels) if tr == tid]
        assert len(mine) == 20 and all(l == 1 for l in mine)

    def test_positive_rate_weakly_increases_with_epsilon(self, small_corpus,
                                                         small_regressor):
        _, labels, _ = label.build_classification_dataset(
            small_corpus, small_regressor, label.EPSILON_SWEEP)
        rates = labels.mean(axis=0).tolist()
        assert rates == sorted(rates)

    def test_all_negative_when_no_t_star(self, small_corpus):
        _, labels, _ = label.build_classification_dataset(
            small_corpus, util.constant_regressor(0.0), (5,))
        assert not labels.any()

    def test_reconstruction_deterministic(self, small_corpus, small_regressor):
        a = label.build_classification_dataset(small_corpus, small_regressor, (15,))
        b = label.build_classification_dataset(small_corpus, small_regressor, (15,))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_columns_equal_single_epsilon_labels(self, small_corpus, small_regressor):
        X, labels, meta = label.build_classification_dataset(
            small_corpus, small_regressor, label.EPSILON_SWEEP)
        assert labels.shape == (len(X), len(label.EPSILON_SWEEP))
        for j, eps in enumerate(label.EPSILON_SWEEP):
            Xj, labels_j, meta_j = label.build_classification_dataset(
                small_corpus, small_regressor, (eps,))
            assert Xj.tobytes() == X.tobytes() and meta_j == meta
            assert labels_j[:, 0].tobytes() == labels[:, j].tobytes(), eps
        # and each column is the per-trace step from oracle_labeling
        pos = 0
        for tid in small_corpus.ids:
            _, lab = labeling(small_corpus, tid, small_regressor)
            n = len(lab.stride_times)
            for j, eps in enumerate(label.EPSILON_SWEEP):
                np.testing.assert_array_equal(labels[pos:pos + n, j], lab.labels(eps))
            pos += n
        assert pos == len(X)
