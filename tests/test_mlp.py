import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speedtrim import mlp
from speedtrim.core import N_FEATURES, WINDOW_MS
from speedtrim.mlp import (
    CACHE_LINE,
    SIGMA_FLOOR,
    MlpModel,
    MlpParams,
    _aligned,
    _history_end,
    _init_weights,
    loss_and_grads,
    train_mlp,
)
from speedtrim.traceio import CLASSIFIER_ARITY, CLASSIFIER_WINDOWS, classifier_input, resample

import util


def toy_elapsed_set(n=400, seed=0):
    """Stop iff the elapsed feature >= 5000 ms; linearly separable on one
    coordinate by construction."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 6))
    X[:, -1] = rng.uniform(500, 10000, size=n)
    y = (X[:, -1] >= 5000).astype(float)
    # exact separability witness: the threshold on that single column
    assert X[y == 1, -1].min() > X[y == 0, -1].max()
    return X, y


def finite_diff(weights, X, y, li, kind, idx, h=1e-5):
    import copy
    w = [list(map(np.copy, pair)) for pair in weights]
    w[li][kind].flat[idx] += h
    up, _ = loss_and_grads([tuple(p) for p in w], X, y)
    w = [list(map(np.copy, pair)) for pair in weights]
    w[li][kind].flat[idx] -= h
    down, _ = loss_and_grads([tuple(p) for p in w], X, y)
    return (up - down) / (2 * h)


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences_every_layer(self, seed):
        rng = np.random.default_rng(seed)
        weights = _init_weights(7, (5, 3), rng)
        X = rng.standard_normal((12, 7))
        y = rng.integers(0, 2, size=12).astype(float)
        _, grads = loss_and_grads(weights, X, y)
        for li in range(len(weights)):
            for kind in (0, 1):
                size = weights[li][kind].size
                for idx in rng.choice(size, size=min(4, size), replace=False):
                    num = finite_diff(weights, X, y, li, kind, int(idx))
                    ana = grads[li][kind].flat[int(idx)]
                    denom = max(abs(num), abs(ana), 1e-8)
                    assert abs(num - ana) / denom < 1e-4, (li, kind, idx)


class TestTraining:
    def test_separable_toy_high_accuracy(self):
        X, y = toy_elapsed_set()
        params = MlpParams(hidden=(16,), epochs=150, batch_size=64, learning_rate=1e-2)
        model = train_mlp(X, y, params, seed=1)
        acc = np.mean((model.predict_proba(X) >= 0.5) == (y == 1))
        assert acc >= 0.99

    def test_all_positive_labels(self):
        X, _ = toy_elapsed_set(200)
        params = MlpParams(hidden=(8,), epochs=150, batch_size=64, learning_rate=1e-2)
        model = train_mlp(X, np.ones(200), params)
        assert np.all(model.predict_proba(X) >= 0.9)

    def test_trained_toy_late_elapsed_stops(self):
        X, y = toy_elapsed_set()
        params = MlpParams(hidden=(16,), epochs=150, batch_size=64, learning_rate=1e-2)
        model = train_mlp(X, y, params, seed=1)
        x = np.zeros(6)
        x[-1] = 9500.0
        assert float(model.predict_proba(x)) > 0.5

    def test_nonbinary_labels_rejected(self):
        X, _ = toy_elapsed_set(50)
        with pytest.raises(ValueError, match="binary"):
            train_mlp(X, np.full(50, 0.5), MlpParams(hidden=(4,)))

    def test_widths_come_from_the_data(self):
        X, y = toy_elapsed_set(50)
        model = train_mlp(X[:, :4], y, MlpParams(hidden=(3, 2), epochs=1))
        assert [W.shape for W, _ in model.weights] == [(4, 3), (3, 2), (2, 1)]
        assert model.n_features == 4

    def test_deterministic(self):
        X, y = toy_elapsed_set(100)
        params = MlpParams(hidden=(8,), epochs=5)
        a = train_mlp(X, y, params, seed=3)
        b = train_mlp(X, y, params, seed=3)
        for (Wa, ba), (Wb, bb) in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_loss_curve_decreases_overall(self):
        X, y = toy_elapsed_set()
        model = train_mlp(X, y, MlpParams(hidden=(16,), epochs=30), seed=2)
        assert model.loss_curve[-1] < model.loss_curve[0]


class TestPredict:
    def test_zero_weights_give_half(self):
        model = util.constant_classifier(0.5, n_features=9)
        assert float(model.predict_proba(np.zeros(9))) == 0.5
        assert float(model.predict_proba(np.ones(9))) == 0.5

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(6)
        params = MlpParams(hidden=(4,))
        model = MlpModel(_init_weights(5, params.hidden, rng), params, [])
        p = model.predict_proba(rng.standard_normal((50, 5)) * 10)
        assert np.all((p > 0) & (p < 1))

    def test_arity_mismatch(self):
        model = util.constant_classifier(0.5, n_features=9)
        with pytest.raises(ValueError, match="expects 9"):
            model.predict_proba(np.zeros(10))
        # neither one row nor rows: a stack of matrices, a 0-D value
        for X in (np.zeros((2, 9, 9)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"expects one row of shape \(9,\) or rows "
                                                 r"of shape \(rows, 9\)"):
                model.predict_proba(X)

    def test_shape_contract(self):
        rng = np.random.default_rng(7)
        params = MlpParams(hidden=(4,))
        model = MlpModel(_init_weights(5, params.hidden, rng), params, [])
        X = rng.standard_normal((3, 5))
        assert model.predict_proba(np.zeros((0, 5))).shape == (0,)
        assert model.predict_proba(X[:1]).shape == (1,)
        one = model.predict_proba(X[0])
        assert isinstance(one, np.float64) and one == model.predict_proba(X[:1])[0]


class TestFoldedForward:
    """train_mlp folds the standardization into the first layer, and
    predict_proba, which skips the zero-filled history, agrees with the
    dense forward pass over every column."""

    @pytest.fixture(scope="class")
    def rows(self, small_corpus):
        # a test's classifier input after w windows, w = 0 … 100, then all zeros
        frames = resample(small_corpus.load(small_corpus.ids[7]))
        rows = [classifier_input(frames, max(w, 1) * WINDOW_MS)
                for w in range(CLASSIFIER_WINDOWS + 1)]
        rows[0][:-1] = 0.0
        rows.append(np.zeros(CLASSIFIER_ARITY))
        for w, row in enumerate(rows[:-1]):
            assert not row[w * N_FEATURES:-1].any()
        return np.array(rows)

    @pytest.fixture(scope="class", params=["default", "single-layer"])
    def model(self, request, small_classifier15, small_classification15):
        if request.param == "default":
            assert small_classifier15.params.hidden == MlpParams().hidden == (256, 64)
            return small_classifier15
        # the initial weights, with the corpus's standardization folded in
        return train_mlp(*small_classification15, MlpParams(hidden=(), epochs=0), seed=11)

    @pytest.mark.parametrize("hidden", [(), (256, 64)], ids=["single-layer", "default"])
    def test_training_folds_the_standardization(self, small_classification15, rows, hidden):
        # with no epochs the weights are the initial ones: the folded model
        # predicts what standardizing every column and the dense pass give
        X, y = small_classification15
        assert (X.std(axis=0) < SIGMA_FLOOR).any()      # a floored column too
        model = train_mlp(X, y, MlpParams(hidden=hidden, epochs=0), seed=11)
        weights = _init_weights(X.shape[1], hidden, np.random.default_rng(11))
        mean, std = X.mean(axis=0), np.maximum(X.std(axis=0), SIGMA_FLOOR)
        for Z in (rows, X[::7]):
            _, z = mlp._forward(weights, (Z - mean) / std)
            np.testing.assert_allclose(model.predict_proba(Z), 1.0 / (1.0 + np.exp(-z)),
                                       rtol=0, atol=1e-12)

    def test_each_row_matches_the_dense_reference(self, model, rows):
        for w, row in enumerate(rows):
            assert abs(model.predict_proba(row) - util.dense_predict_proba(model, row)) <= 1e-12, w

    def test_mixed_batch_equals_the_single_rows(self, model, rows):
        order = np.random.default_rng(12).permutation(len(rows))
        batch = model.predict_proba(rows[order])
        single = np.array([model.predict_proba(row) for row in rows[order]])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch, util.dense_predict_proba(model, rows[order]),
                                   rtol=0, atol=1e-12)
        # the rows span the sigmoid, not only its saturated ends
        assert np.ptp(batch) > 0.1

    def test_history_end_is_flatnonzeros(self, model, rows, monkeypatch):
        # the reversed argmax finds the k that flatnonzero does, on NaN,
        # -0.0, all zeros, a full history and every fill in between; the
        # same k gives bit-identical p_stop, one row and a batch alike
        def reference(values):
            nonzero = np.flatnonzero(values)
            return nonzero[-1] + 1 if len(nonzero) else 0

        odd = np.zeros((6, CLASSIFIER_ARITY))
        odd[0, 40] = np.nan
        odd[1, 40] = -0.0
        odd[2, [3, 40]] = (1.0, -0.0)
        odd[3, :-1] = 1.0
        odd[4, -2] = np.nan
        odd[:, -1] = 1500.0
        cases = np.vstack([rows, odd])
        for row in cases:
            assert _history_end(row[:-1]) == reference(row[:-1])
        for mask in (cases[:, :-1].any(axis=0), odd[:3, :-1].any(axis=0), np.zeros(0, bool)):
            assert _history_end(mask) == reference(mask)
        got = [model.predict_proba(row) for row in cases] + [model.predict_proba(cases)]
        monkeypatch.setattr(mlp, "_history_end", reference)
        want = [model.predict_proba(row) for row in cases] + [model.predict_proba(cases)]
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    def test_weights_it_predicts_with_start_on_a_cache_line(self, model):
        for W, _ in model.weights:
            assert W.ctypes.data % CACHE_LINE == 0 and W.flags.c_contiguous

    def test_aligned_copy_is_equal_wherever_the_input_starts(self):
        flat = np.random.default_rng(13).standard_normal(1 + 7 * 5)
        for a in (flat[1:].reshape(7, 5), flat[1:].reshape(7, 5).T, flat[:1].reshape(1, 1)):
            out = _aligned(a)
            assert out.ctypes.data % CACHE_LINE == 0 and out.flags.c_contiguous
            assert out.shape == a.shape and out.tobytes() == np.ascontiguousarray(a).tobytes()


class TestSigmoidClamp:
    @staticmethod
    def logit_model(logit: float) -> MlpModel:
        """One layer of zero weights: every row's logit is the bias."""
        return MlpModel([(np.zeros((4, 1)), np.array([logit]))], MlpParams(hidden=()), [])

    @settings(max_examples=300, deadline=None)
    @given(logit=st.one_of(st.floats(-709.0, 709.0), st.floats(709.0, 1e300),
                           st.sampled_from([-709.0, -708.5, 0.0, 36.7, 745.2])))
    def test_p_stop_unchanged_from_minus_709_up(self, logit):
        model = self.logit_model(logit)
        want = 1.0 / (1.0 + np.exp(-np.float64(logit)))
        assert model.predict_proba(np.zeros(4)) == want
        assert model.predict_proba(np.zeros((2, 4))).tolist() == [want, want]

    def test_no_overflow_warning_below_the_clamp(self):
        model = self.logit_model(-800.0)
        X = np.zeros((3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = model.predict_proba(np.zeros(4))
            loss, grads = loss_and_grads(model.weights, X, np.array([0.0, 1.0, 0.0]))
        assert 0.0 < p < 1e-300
        assert np.isfinite(loss) and all(np.isfinite(g).all() for layer in grads for g in layer)

