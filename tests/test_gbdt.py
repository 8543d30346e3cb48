import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speedtrim.gbdt import EPS_GAIN, GbdtModel, GbdtParams, train_gbdt
from speedtrim.modelio import dump_model, load_model_bytes
from speedtrim.traceio import REGRESSOR_ARITY

from util import NO_TREES


def toy_step_data():
    rng = np.random.default_rng(0)
    X = rng.random((200, 3))
    y = np.where(X[:, 0] < 0.5, 10.0, 20.0)
    return X, y


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GbdtParams(max_depth=0)
        with pytest.raises(ValueError):
            GbdtParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GbdtParams(learning_rate=1.5)
        with pytest.raises(ValueError, match="unknown objective"):
            GbdtParams(objective="mae")

    def test_rel_objective_is_a_hook_only(self):
        # the relative-error loss is not implemented; "rel" is refused like
        # any other unknown objective (a ValueError, exit 3 from the CLI)
        with pytest.raises(ValueError, match="unknown objective"):
            GbdtParams(objective="rel")


class TestTraining:
    def test_single_sample(self):
        model = train_gbdt(np.ones((1, 4)), np.array([42.0]),
                           GbdtParams(n_trees=5))
        assert model.predict(np.ones((1, 4)))[0] == pytest.approx(42.0)

    def test_one_split_recovers_step(self):
        X, y = toy_step_data()
        model = train_gbdt(X, y, GbdtParams(max_depth=1, n_trees=1, learning_rate=1.0))
        np.testing.assert_allclose(model.predict(X), y)
        assert model.predict(np.array([0.3, 0.5, 0.5])) == pytest.approx(10.0)

    def test_beats_mean_predictor(self):
        rng = np.random.default_rng(1)
        X = rng.random((1000, 8))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] * X[:, 2] + 0.05 * rng.standard_normal(1000)
        model = train_gbdt(X, y, GbdtParams(n_trees=200, max_depth=4, objective="mse"))
        assert model.train_mse[-1] < float(np.var(y))

    def test_mse_nonincreasing(self):
        X, _ = toy_step_data()
        rng = np.random.default_rng(2)
        y = np.sin(X[:, 0] * 6) + rng.standard_normal(200) * 0.2
        for lr in (0.05, 0.3, 1.0):
            model = train_gbdt(X, y, GbdtParams(n_trees=60, max_depth=3,
                                                learning_rate=lr, objective="mse"))
            mse = np.array(model.train_mse)
            assert np.all(np.diff(mse) <= 1e-12), f"lr={lr}"

    def test_last_train_mse_is_the_served_models(self):
        # training adds each tree's leaves through predict's descent, in
        # predict's order, so the last recorded MSE is the served model's
        rng = np.random.default_rng(5)
        X = rng.random((300, 6))
        y = np.sin(4.0 * X[:, 0]) + X[:, 2] * X[:, 5] + 0.1 * rng.standard_normal(300)
        model = train_gbdt(X, y, GbdtParams(n_trees=40, max_depth=4, learning_rate=0.3,
                                            objective="mse"))
        assert model.train_mse[-1] == float(np.mean((y - model.predict(X)) ** 2))

    def test_permutation_invariance(self):
        X, y = toy_step_data()
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(X))
        a = train_gbdt(X, y, GbdtParams(n_trees=20, max_depth=3))
        b = train_gbdt(X[perm], y[perm], GbdtParams(n_trees=20, max_depth=3))
        np.testing.assert_allclose(a.predict(X), b.predict(X), rtol=1e-12)

    def test_nan_rejected(self):
        X, y = toy_step_data()
        X = X.copy()
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="NaN|finite"):
            train_gbdt(X, y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            train_gbdt(np.ones((5, 2)), np.ones(4))

    def test_min_samples_leaf_respected(self):
        X, y = toy_step_data()
        model = train_gbdt(X, y, GbdtParams(n_trees=5, max_depth=6,
                                            min_samples_leaf=30))
        # every leaf of the fitted trees is a mean over >= 30 samples, so
        # at most floor(200/30) = 6 leaves per tree
        offsets = model.forest["offsets"]
        assert len(offsets) == 6
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            n_leaves = int(np.sum(model.forest["feature"][lo:hi] < 0))
            assert n_leaves <= 6


def reference_split(Xn: np.ndarray, gn: np.ndarray, k: int):
    """(feature, threshold) of the best split of one node's own rows, which
    it sorts afresh, or None: the first of the highest-scoring splits
    between two distinct values with ``k`` rows or more on each side."""
    n, d = Xn.shape
    o = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, o, axis=0)
    left_sum = np.cumsum(gn[o], axis=0)[:-1]
    total = float(gn.sum())
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    score = left_sum ** 2 / n_left + (total - left_sum) ** 2 / (n - n_left)
    valid = Xs[1:] > Xs[:-1]
    valid[:k - 1] = valid[n - k:] = False
    score = np.where(valid, score, -np.inf)
    i, f = np.unravel_index(np.argmax(score), score.shape)
    if not score[i, f] > total * total / n + EPS_GAIN:
        return None
    thr = 0.5 * (Xs[i, f] + Xs[i + 1, f])
    return int(f), float(thr if thr > Xs[i, f] else Xs[i + 1, f])


def reference_train(X: np.ndarray, y: np.ndarray, params: GbdtParams) -> GbdtModel:
    """``train_gbdt`` node by node: each node copies its rows out of ``X``
    and sorts them afresh, so no sort order passes from a node to its
    children; each row's leaf value is recorded as its leaf is reached."""
    y = np.log(y) if params.objective == "log-mse" else y
    base = float(y.mean())
    pred = np.full(len(X), base)
    trees, train_mse = [], []
    for _ in range(params.n_trees):
        g = y - pred
        nodes = [[-1, 0.0, 0, 0, 0.0]]      # feature, threshold, left, right, value
        leaf = np.empty(len(X))

        def grow(node, rows, depth):
            nodes[node][4] = value = float(g[rows].mean())
            split = None
            if depth < params.max_depth and len(rows) >= max(2, 2 * params.min_samples_leaf):
                split = reference_split(X[rows], g[rows], params.min_samples_leaf)
            if split is None:
                leaf[rows] = value
                return
            left, right = len(nodes), len(nodes) + 1
            nodes.extend([[-1, 0.0, left, left, 0.0], [-1, 0.0, right, right, 0.0]])
            nodes[node][:4] = *split, left, right
            go_left = X[rows, split[0]] < split[1]
            grow(left, rows[go_left], depth + 1)
            grow(right, rows[~go_left], depth + 1)

        grow(0, np.arange(len(X)), 0)
        trees.append(nodes)
        pred = pred + params.learning_rate * leaf
        train_mse.append(float(np.mean((y - pred) ** 2)))
    columns = list(zip(*(node for tree in trees for node in tree)))
    forest = dict(zip(("feature", "threshold", "left", "right", "value"), columns))
    forest["offsets"] = np.cumsum([0] + [len(tree) for tree in trees])
    return GbdtModel(base, forest, params, X.shape[1], train_mse)


class TestTrainerEquivalence:
    """train_gbdt, which partitions one set of sort orders top-down, gives
    the forest of a trainer that sorts every node's rows afresh, byte for
    byte."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 300),
           n_features=st.integers(1, 8), n_values=st.sampled_from([2, 3, 5, 40, 10 ** 6]),
           depth=st.integers(1, 6), min_leaf=st.integers(1, 30),
           n_trees=st.integers(1, 8), learning_rate=st.floats(0.05, 1.0),
           objective=st.sampled_from(["mse", "log-mse"]))
    def test_random_data_with_ties(self, seed, n_rows, n_features, n_values, depth, min_leaf,
                                   n_trees, learning_rate, objective):
        rng = np.random.default_rng(seed)
        # few distinct values make ties in most sort orders.  The last
        # feature coarsens the first, so both can split off the same rows,
        # summed in the orders their sorts give: which split scores higher
        # turns on those orders down to the last bit.
        X = rng.integers(0, n_values, (n_rows, n_features)).astype(np.float64)
        X[:, -1] = X[:, 0] // 2
        y = np.exp(X[:, 0] / n_values + rng.standard_normal(n_rows))
        params = GbdtParams(max_depth=depth, n_trees=n_trees, learning_rate=learning_rate,
                            min_samples_leaf=min_leaf, objective=objective)
        model = train_gbdt(X, y, params)
        want = reference_train(X, y, params)
        assert dump_model(model) == dump_model(want)
        assert model.train_mse == want.train_mse


class TestPredict:
    def test_zero_tree_base(self):
        model = GbdtModel(100.0, NO_TREES, GbdtParams(objective="mse"), 7, [])
        assert model.predict(np.zeros(7)) == 100.0
        np.testing.assert_array_equal(model.predict(np.ones((3, 7))), 100.0)

    def test_arity_mismatch(self):
        model = GbdtModel(1.0, NO_TREES, GbdtParams(), 7, [])
        with pytest.raises(ValueError, match="arity"):
            model.predict(np.zeros(8))
        # neither one row nor rows: a stack of matrices, a 0-D value
        for X in (np.zeros((2, 7, 7)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"expects one row of shape \(7,\) or rows "
                                                 r"of shape \(rows, 7\)"):
                model.predict(X)

    @pytest.mark.parametrize("forest", ["none", "trained"])
    def test_shape_contract(self, forest):
        X, y = toy_step_data()
        model = (GbdtModel(1.0, NO_TREES, GbdtParams(), 3, []) if forest == "none"
                 else train_gbdt(X, y, GbdtParams(n_trees=5, max_depth=2)))
        assert model.predict(np.zeros((0, 3))).shape == (0,)
        assert model.predict(X[:1]).shape == (1,)
        one = model.predict(X[0])
        assert isinstance(one, np.float64) and one == model.predict(X[:1])[0]

    def test_nonfinite_rejected(self):
        model = GbdtModel(1.0, NO_TREES, GbdtParams(), 2, [])
        with pytest.raises(ValueError):
            model.predict(np.array([1.0, np.inf]))

    def test_equals_node_by_node_walk(self):
        rng = np.random.default_rng(4)
        X = rng.random((300, 6))
        y = np.exp(2.0 * X[:, 0] + np.where(X[:, 3] < 0.4, 1.0, 0.0)) + 0.1
        # min leaf 40 of 300 rows stops many branches above depth 5
        params = GbdtParams(n_trees=25, max_depth=5, min_samples_leaf=40,
                            objective="log-mse")
        model = train_gbdt(X, y, params)
        f = model.forest
        assert np.any(np.diff(f["offsets"]) < 2 ** (params.max_depth + 1) - 1)

        def walk(x):
            out = model.base_prediction
            for lo in f["offsets"][:-1]:
                node = 0
                while f["feature"][lo + node] >= 0:
                    i = lo + node
                    node = f["left"][i] if x[f["feature"][i]] < f["threshold"][i] else f["right"][i]
                out += params.learning_rate * f["value"][lo + node]
            return np.exp(out)

        Xq = rng.random((50, 6))
        want = np.array([walk(x) for x in Xq])
        back = load_model_bytes(dump_model(model))
        for m in (model, back):
            np.testing.assert_array_equal(m.predict(Xq), want)
            np.testing.assert_array_equal(m.predict(Xq[7]), want[7])

    def test_trained_on_constant_trace(self, small_corpus, small_regressor):
        # sanity: on the corpus it was trained on, late-stride predictions
        # land near ground truth for most traces
        from speedtrim import label
        from speedtrim.traceio import resample
        errs = []
        for tid in small_corpus.ids:
            ws = resample(small_corpus.load(tid))
            y = small_corpus.summary(tid).y_true_mbps
            errs.append(label.oracle_labeling(ws, small_regressor, y).errors[-1])
        assert np.median(errs) < 0.10


def random_forest(rng, n_trees: int, depth: int, n_features: int, leaf_p: float) -> dict:
    """Packed forest of complete depth-``depth`` trees in which each inner
    node is a leaf with probability ``leaf_p`` (its subtree stays in the
    arrays, unreachable).  Nodes past each root are shuffled, so children
    sit anywhere in their tree."""
    size = 2 ** (depth + 1) - 1
    heap = np.arange(size)
    leaf = (heap >= size // 2) | (rng.random((n_trees, size)) < leaf_p)
    pos = np.hstack([np.zeros((n_trees, 1), dtype=np.int64),
                     1 + np.argsort(rng.random((n_trees, size - 1)), axis=1)])

    def child(k):
        return np.take_along_axis(pos, np.broadcast_to(np.minimum(2 * heap + k, size - 1),
                                                       pos.shape), axis=1)

    by_heap = {
        "feature": np.where(leaf, -1, rng.integers(n_features, size=(n_trees, size))),
        "threshold": rng.random((n_trees, size)),
        "left": np.where(leaf, pos, child(1)),
        "right": np.where(leaf, pos, child(2)),
        # magnitudes spread over four decades, so the order of the sum matters
        "value": rng.standard_normal((n_trees, size)) * 10.0 ** rng.uniform(-4, 0, (n_trees, size)),
    }
    forest = {}
    for name, heap_values in by_heap.items():
        packed = np.empty_like(heap_values)
        np.put_along_axis(packed, pos, heap_values, axis=1)
        forest[name] = packed.ravel()
    forest["offsets"] = np.arange(n_trees + 1) * size
    return forest


def reference_predict(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Tree by tree, in order: each tree's leaf, scaled, added to the sum."""
    f, lr = model.forest, model.params.learning_rate
    rows = np.arange(len(X))
    out = np.full(len(X), model.base_prediction)
    for lo in f["offsets"][:-1]:
        node = np.zeros(len(X), dtype=np.int64)
        for _ in range(model.params.max_depth):
            i = lo + node
            go_left = X[rows, np.maximum(f["feature"][i], 0)] < f["threshold"][i]
            node = np.where(f["feature"][i] < 0, node,
                            np.where(go_left, f["left"][i], f["right"][i]))
        out += lr * f["value"][lo + node]
    return np.exp(out) if model.params.objective == "log-mse" else out


def assert_predict_is_reference(model: GbdtModel, X: np.ndarray) -> None:
    want = reference_predict(model, X)
    batch = model.predict(X)
    np.testing.assert_array_equal(batch, want)
    for i, x in enumerate(X):
        one = model.predict(x)
        assert one.tobytes() == want[i].tobytes() == batch[i].tobytes(), i


class TestPredictEquivalence:
    """The batched, tree-parallel sum equals the in-order per-tree loop bit
    for bit, so predictions do not depend on how trees are descended."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_trees=st.integers(0, 300),
           depth=st.integers(1, 7), n_features=st.integers(1, 10),
           leaf_p=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
           objective=st.sampled_from(["mse", "log-mse"]),
           learning_rate=st.floats(1e-3, 1.0), base=st.floats(-5.0, 5.0),
           n_rows=st.integers(1, 20))
    def test_random_forests(self, seed, n_trees, depth, n_features, leaf_p, objective,
                            learning_rate, base, n_rows):
        rng = np.random.default_rng(seed)
        forest = random_forest(rng, n_trees, depth, n_features, leaf_p)
        params = GbdtParams(max_depth=depth, n_trees=max(n_trees, 1),
                            learning_rate=learning_rate, objective=objective)
        model = GbdtModel(base, forest, params, n_features, [])
        X = rng.random((n_rows, n_features))
        # the first row lands exactly on some roots' thresholds: it goes right
        roots = forest["offsets"][:-1]
        split = forest["feature"][roots] >= 0
        X[0, forest["feature"][roots][split]] = forest["threshold"][roots][split]
        assert_predict_is_reference(model, X)

    def test_paper_scale_forest(self):
        # the paper's regressor: 1500 trees of depth 7, learning rate 0.03
        rng = np.random.default_rng(8)
        forest = random_forest(rng, 1500, 7, REGRESSOR_ARITY, 0.0)
        for objective in ("mse", "log-mse"):
            params = GbdtParams(max_depth=7, n_trees=1500, learning_rate=0.03,
                                objective=objective)
            model = GbdtModel(3.0, forest, params, REGRESSOR_ARITY, [])
            assert_predict_is_reference(model, rng.random((20, REGRESSOR_ARITY)))
