"""Gradient-boosted regression trees with a squared-error objective, by
default on log targets (``log-mse``).

Exact greedy splits (no histogramming): feature columns are argsorted
once per fit.  A tree node holds its rows as ascending ids into the one
training matrix, and the same ids in each feature's sort order; a split
divides both with one boolean mask, which keeps them ascending and
sorted.  Split search is a cumulative-sum scan per node over the values
read through those ids, and no node keeps a copy of its rows.  Leaf
values are the mean residual, which makes per-round training MSE
nonincreasing for any learning rate in (0, 1].

A forest is one set of packed node arrays (``FOREST_DTYPES``): the trees'
nodes back to back, tree t at ``offsets[t]:offsets[t + 1]``.  A node goes
left iff ``x[feature] < threshold``; ``feature`` is -1 at a leaf, whose
``left`` and ``right`` point to itself.  Child indices are local to their
tree.  These arrays are both the in-memory model and what ``modelio``
writes to disk.

A model also derives descent tables from its packed arrays, once, when
it is built; they never reach the file.  They are indexed by doubled
node ids (node i of the forest is id 2·i): the clipped feature, the
threshold and the leaf value each repeated twice, and a child table
that holds, at 2·i and 2·i + 1, the forest-wide doubled id of node i's
right and left child.  One level of the descent of a 1-D row ``x`` is
then ``node = child[node + (x[feature[node]] < threshold[node])]`` over
the flat vector of one node id per tree: no per-tree start to add, no
multiply and no row offset.  A 2-D batch runs the same loop on
``x = X.ravel()`` and adds each row's offset into it to the feature ids
it reads.  The table is ordered [right, left] and indexed by
``x < threshold``, never by ``x >= threshold``, which differs from it
where a threshold is NaN.

A model checks its forest as it casts the arrays to ``FOREST_DTYPES``,
which must keep every value, and as it derives these tables, so a bad
forest is a ``ValueError`` whether it is built in memory or loaded.  The
check walks from the roots until it reaches only leaves: that many
levels are the forest's depth, which ``max_depth`` bounds.

Prediction descends all trees together, the forest's depth in levels
(leaves point to themselves), and sums a row's terms
``[base, lr·leaf_1, …, lr·leaf_T]`` with one ``np.add.accumulate``: one
row's on its 1-D leaf vector, a batch's along the rows of its
(rows, trees) leaf matrix.  An accumulate adds strictly left to right (a
reduce may add pairwise), so a prediction is the tree-by-tree sum bit for
bit, for one row or a batch.  Labeling predicts every stride of a trace
as one batch, a live session its stop stride as one row, and training
adds each new tree's leaves through the same descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_GAIN = 1e-12

FOREST_DTYPES = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
                 "right": np.int32, "value": np.float64, "offsets": np.int64}


@dataclass(frozen=True)
class GbdtParams:
    max_depth: int = 6
    n_trees: int = 200
    learning_rate: float = 0.1
    min_samples_leaf: int = 1
    objective: str = "log-mse"

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.objective not in ("mse", "log-mse"):
            raise ValueError(f"unknown objective {self.objective!r}")


def _packed(forest: dict) -> dict[str, np.ndarray]:
    """The forest's arrays cast to ``FOREST_DTYPES``.  Raises ``ValueError``
    naming an array whose values the cast changes: a fraction, a NaN or an
    out-of-range value in an integer array, or an integer that float64
    rounds."""
    packed = {}
    for name, dtype in FOREST_DTYPES.items():
        arr = np.asarray(forest[name])
        with np.errstate(invalid="ignore", over="ignore"):
            cast = arr.astype(dtype, copy=False)
            back = cast.astype(arr.dtype)
        # both ways, as neither alone sees every change: a wrapped integer
        # casts back to itself, and a rounded one compares equal in float64
        if not (np.array_equal(cast, arr, equal_nan=True)
                and np.array_equal(back, arr, equal_nan=True)):
            raise ValueError(f"gbdt {name} holds a value that changes under the cast to "
                             f"{np.dtype(dtype).name}")
        packed[name] = cast
    return packed


def _descent(forest: dict[str, np.ndarray], n_features: int,
             max_depth: int) -> tuple:
    """Descent tables of a packed forest, by doubled node id: feature,
    threshold, child (right then left), value, the roots; and the forest's
    depth.  Raises ``ValueError`` for a forest no descent can serve."""
    feature, threshold, left, right, value, offsets = (forest[k] for k in FOREST_DTYPES)
    n_nodes = value.size
    if any(forest[name].shape != (n_nodes,) for name in FOREST_DTYPES if name != "offsets"):
        raise ValueError("gbdt node arrays differ in length")
    # neighbours are compared, not differenced: an int64 difference wraps
    if (offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0
            or offsets[-1] != n_nodes or np.any(offsets[1:] <= offsets[:-1])):
        raise ValueError("gbdt offsets must rise from 0 to the node count, "
                         "one node or more per tree")
    sizes = np.diff(offsets)
    start = np.repeat(offsets[:-1], sizes)
    local = np.arange(n_nodes) - start
    leaf = feature == -1
    for name, child in (("left", left), ("right", right)):
        if np.any((child < 0) | (child >= np.repeat(sizes, sizes))):
            raise ValueError(f"gbdt {name} child index outside its tree")
        if np.any(child[leaf] != local[leaf]):
            raise ValueError(f"gbdt {name} of a leaf does not point to the leaf itself")
    if np.any((feature < -1) | (feature >= n_features)):
        raise ValueError(f"gbdt feature index outside -1..{n_features - 1}")
    for name in ("threshold", "value"):
        if not np.isfinite(forest[name]).all():
            raise ValueError(f"gbdt {name} holds a value that is not finite")
    # the nodes reached from the roots, one level per step, until none of
    # them is a split node.  A tree without a cycle runs out of split nodes
    # within its size in levels, so a walk past that has met a cycle.
    reached = np.zeros(n_nodes, dtype=bool)
    reached[offsets[:-1]] = True
    for depth in range(min(max_depth, int(sizes.max(initial=0))) + 1):
        at = np.flatnonzero(reached & ~leaf)
        if not len(at):
            break
        reached[:] = False
        reached[start[at] + left[at]] = True
        reached[start[at] + right[at]] = True
    if len(at):
        raise ValueError(f"gbdt left/right: a descent of max_depth {max_depth} "
                         "levels can end on a split node")
    child = np.empty(2 * n_nodes, dtype=np.intp)
    child[0::2] = 2 * (start + right)   # x < threshold is False: go right
    child[1::2] = 2 * (start + left)
    return (np.repeat(np.maximum(feature, 0).astype(np.intp), 2), np.repeat(threshold, 2),
            child, np.repeat(value, 2), 2 * offsets[:-1].astype(np.intp), depth)


def _leaf_values(descent: tuple, X: np.ndarray) -> np.ndarray:
    """Leaf value every tree gives a row: shape (trees,) for one 1-D row,
    (rows, trees) for a 2-D batch.

    All trees descend together, one level per step; since leaves point to
    themselves, the forest's depth in steps puts every row at a leaf of
    every tree, and a step past it changes nothing.  A row reads its
    features at the node's feature ids as they are.  A batch reads
    ``X.ravel()`` at the feature ids plus each row's offset into it, so
    its first step, one step at least, broadcasts the root ids to
    (rows, trees).
    """
    feature, threshold, child, value, node, depth = descent
    if X.ndim == 1:
        x, row_base = X, None
    else:
        x = X.ravel()
        row_base = np.arange(len(X))[:, None] * X.shape[1]
        depth = max(depth, 1)
    # the feature ids a batch reads go unnamed, so they are freed as soon
    # as x is read: holding them to the end of the step made a 20000-row,
    # one-tree pass about 10% slower on a 2-vCPU Xeon
    for _ in range(depth):
        node = child[node + (x[feature[node] if row_base is None else feature[node] + row_base]
                             < threshold[node])]
    return value[node]


class _TreeBuilder:
    def __init__(self, max_depth: int, min_leaf: int):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        i = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(i)
        self.right.append(i)
        self.value.append(0.0)
        return i

    def build(self, X: np.ndarray, g: np.ndarray, order: np.ndarray) -> dict[str, np.ndarray]:
        """Grow one tree on the rows of ``X`` with gradients ``g``, given
        each feature's stable sort order of all rows (one column per
        feature); returns it as a one-tree forest."""
        root = self._new_node()
        self._grow(root, X, g, np.arange(len(X)), order, depth=0)
        cols = {"feature": self.feature, "threshold": self.threshold, "left": self.left,
                "right": self.right, "value": self.value, "offsets": [0, len(self.value)]}
        return {name: np.asarray(cols[name], dtype=dtype)
                for name, dtype in FOREST_DTYPES.items()}

    def _grow(self, node: int, X, g, rows, order, depth: int) -> None:
        """``rows`` are the node's row ids into ``X``, ascending; ``order``
        holds the same ids sorted by each feature."""
        gn = g[rows]
        n = len(rows)
        self.value[node] = float(gn.mean())
        if depth >= self.max_depth or n < 2 * self.min_leaf or n < 2:
            return
        split = self._best_split(X, g, order, float(gn.sum()))
        if split is None:
            return
        f, thr = split
        self.feature[node] = f
        self.threshold[node] = thr
        left = self._new_node()
        right = self._new_node()
        self.left[node] = left
        self.right[node] = right
        # a boolean mask keeps each side's ids ascending and, taken column
        # by column, each of its sort orders sorted
        goes_left = X[:, f] < thr
        for child, side in ((left, goes_left), (right, ~goes_left)):
            side_order = order.T[side[order].T].reshape(order.shape[1], -1).T
            self._grow(child, X, g, rows[side[rows]], side_order, depth + 1)

    def _best_split(self, X, g, order, total: float):
        """(feature, threshold) of the best split of the rows that
        ``order`` sorts, whose gradients sum to ``total``; None when no
        split gains."""
        n, d = order.shape
        Xs = X[order, np.arange(d)]
        csum = np.cumsum(g[order], axis=0)
        n_left = np.arange(1, n, dtype=np.float64)[:, None]
        left_sum = csum[:-1]
        score = left_sum ** 2 / n_left + (total - left_sum) ** 2 / (n - n_left)
        valid = Xs[1:] > Xs[:-1]
        k = self.min_leaf
        valid[: k - 1] = False
        valid[n - k:] = False
        score = np.where(valid, score, -np.inf)
        flat = int(np.argmax(score))
        baseline = total * total / n
        if not np.isfinite(score.flat[flat]) or score.flat[flat] <= baseline + EPS_GAIN:
            return None
        i, f = divmod(flat, d)
        thr = 0.5 * (Xs[i, f] + Xs[i + 1, f])
        if not (thr > Xs[i, f]):
            thr = Xs[i + 1, f]
        return f, float(thr)


class GbdtModel:
    """Additive ensemble: base prediction + lr-weighted outputs of a packed forest."""

    def __init__(self, base_prediction: float, forest: dict, params: GbdtParams,
                 n_features: int, train_mse: list[float]):
        self.base_prediction = float(base_prediction)
        self.forest = _packed(forest)
        self.params = params
        self.n_features = int(n_features)
        if np.ndim(train_mse) != 1:
            raise ValueError("gbdt train_mse must be 1-D")
        self.train_mse = list(train_mse)
        self._descent = _descent(self.forest, self.n_features, params.max_depth)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Prediction for one row of shape (n_features,), a scalar, or for
        rows of shape (rows, n_features), an array of shape (rows,)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim not in (1, 2):
            raise ValueError(f"feature shape mismatch: model expects one row of shape "
                             f"({self.n_features},) or rows of shape (rows, {self.n_features}), "
                             f"got shape {X.shape}")
        if X.shape[-1] != self.n_features:
            raise ValueError(
                f"feature arity mismatch: model expects {self.n_features}, got {X.shape[-1]}")
        if not np.isfinite(X).all():
            raise ValueError("non-finite features")
        # [base, lr·leaf_1, …, lr·leaf_T] accumulated strictly left to right:
        # the tree-by-tree sum, bit for bit.  Scaled and summed in place in
        # the leaf vector or (rows, trees) leaf matrix, whose first term
        # takes the base; a batch's sums are copied out so the result does
        # not keep the matrix alive.
        terms = _leaf_values(self._descent, X)
        if not terms.shape[-1]:
            out = np.full(X.shape[:-1], self.base_prediction)[()]
        elif X.ndim == 1:
            terms *= self.params.learning_rate
            terms[0] += self.base_prediction
            out = np.add.accumulate(terms, out=terms)[-1]
        else:
            terms *= self.params.learning_rate
            terms[:, 0] += self.base_prediction
            out = np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()
        if self.params.objective == "log-mse":
            out = np.exp(out)
        return out


def train_gbdt(X: np.ndarray, y: np.ndarray, params: GbdtParams = GbdtParams()) -> GbdtModel:
    """Fit boosted trees to (features, target) pairs by residual fitting."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a nonempty 2-D array")
    if len(X) != len(y):
        raise ValueError("X and y length mismatch")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("NaN or infinite values in training data")
    if params.objective == "log-mse":
        # squared error in log space: relative-error-like behavior on
        # targets spanning orders of magnitude
        if np.any(y <= 0):
            raise ValueError("log-mse requires positive targets")
        y = np.log(y)

    base = float(y.mean())
    pred = np.full(len(X), base)
    order = np.argsort(X, axis=0, kind="stable")

    trees: list[dict[str, np.ndarray]] = []
    train_mse: list[float] = []
    for _ in range(params.n_trees):
        builder = _TreeBuilder(params.max_depth, params.min_samples_leaf)
        tree = builder.build(X, y - pred, order)
        trees.append(tree)
        leaf = _leaf_values(_descent(tree, X.shape[1], params.max_depth), X)[:, 0]
        pred = pred + params.learning_rate * leaf
        train_mse.append(float(np.mean((y - pred) ** 2)))

    forest = {name: np.concatenate([t[name] for t in trees])
              for name in FOREST_DTYPES if name != "offsets"}
    forest["offsets"] = np.cumsum([0] + [len(t["value"]) for t in trees])
    return GbdtModel(base, forest, params, X.shape[1], train_mse)
