"""Feed-forward binary classifier trained with BCE and Adam.

Plain numpy: ReLU hidden layers, a sigmoid output, and per-feature input
standardization stored with the model.  Training runs `_forward` on
standardized inputs; `loss_and_grads` is a pure function of the weights so
gradients can be checked against finite differences.

A model keeps its weights and standardization as trained, and so as its
file holds them, but predicts through a first layer with the
standardization folded in: ``W0 / std`` and ``b0 - (mean / std) @ W0``.
An input of exactly 0 then adds nothing to the first layer, so
`predict_proba` multiplies only the columns up to the last nonzero one
before the final column (elapsed ms): the zero-filled history of an early
stride costs nothing.  One 1-D row is computed on 1-D arrays, with no
promotion to a (1, n) batch.  This needs every ``input_std`` finite and > 0,
and the folded layer finite (a tiny std overflows it), which a model
checks when it is built, in memory or loaded.
The weight matrices it predicts with are copies that start on a cache
line: a one-row product over a block that fits in cache runs up to twice
as fast from an aligned start, and the allocator's own start varies from
one load to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_FLOOR = 1e-6
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CACHE_LINE = 64     # bytes


@dataclass(frozen=True)
class MlpParams:
    """Hidden-layer widths and training settings; the input width comes
    from the data and the output is one logit."""

    hidden: tuple = (256, 64)
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 20

    def __post_init__(self):
        if not all(width >= 1 for width in self.hidden):
            raise ValueError("hidden widths must be >= 1")


def _aligned(a: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 copy of ``a`` whose data starts on a cache line."""
    buf = np.empty(a.size + CACHE_LINE // 8)
    start = -buf.ctypes.data % CACHE_LINE // 8
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    return out


def _init_weights(n_features: int, hidden: tuple, rng: np.random.Generator):
    widths = (n_features, *hidden, 1)
    weights = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        scale = np.sqrt(2.0 / fan_in)
        W = rng.standard_normal((fan_in, fan_out)) * scale
        b = np.zeros(fan_out)
        weights.append((W, b))
    return weights


def _forward(weights, X: np.ndarray):
    """Returns (activations per layer, final logits)."""
    acts = [X]
    h = X
    for i, (W, b) in enumerate(weights):
        z = h @ W + b
        if i < len(weights) - 1:
            h = np.maximum(z, 0.0)
            acts.append(h)
        else:
            return acts, z[:, 0]
    raise AssertionError("unreachable")


def _bce_from_logits(z: np.ndarray, y: np.ndarray) -> float:
    # stable: max(z,0) - z*y + log1p(exp(-|z|))
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def loss_and_grads(weights, X: np.ndarray, y: np.ndarray):
    """Mean BCE and its gradient for every weight matrix and bias."""
    acts, z = _forward(weights, X)
    loss = _bce_from_logits(z, y)

    n = len(X)
    grads = [None] * len(weights)
    # d loss / d logit for mean BCE
    dz = (1.0 / (1.0 + np.exp(-z)) - y)[:, None] / n
    grads[-1] = (acts[-1].T @ dz, dz.sum(axis=0))
    dh = dz @ weights[-1][0].T
    for i in range(len(weights) - 2, -1, -1):
        dzi = dh * (acts[i + 1] > 0.0)
        W, _ = weights[i]
        grads[i] = (acts[i].T @ dzi, dzi.sum(axis=0))
        if i:       # no gradient flows into the inputs
            dh = dzi @ W.T
    return loss, grads


def _check_layers(weights, input_mean: np.ndarray, input_std: np.ndarray, hidden: tuple,
                  loss_curve: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first layer with the standardization folded in, ``W0 / std``
    and ``b0 - (mean / std) @ W0``.  Rejects arrays that do not give the
    layer widths (that of ``input_mean``, the ``hidden`` widths, one
    output) or that hold a value the folded first layer cannot serve."""
    for name, arr in (("input_mean", input_mean), ("loss_curve", loss_curve)):
        if arr.ndim != 1:
            raise ValueError(f"mlp {name} must be 1-D")
    widths = (len(input_mean), *hidden, 1)
    if len(weights) != len(widths) - 1:
        raise ValueError(f"mlp has {len(weights)} layers, layer widths "
                         f"{list(widths)} need {len(widths) - 1}")
    arrays = {"input_std": input_std}
    shapes = {"input_std": widths[:1]}
    for i, (W, b) in enumerate(weights):
        arrays[f"W{i}"], arrays[f"b{i}"] = W, b
        shapes[f"W{i}"] = (widths[i], widths[i + 1])
        shapes[f"b{i}"] = (widths[i + 1],)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"mlp {name} has shape {arrays[name].shape}, layer widths "
                             f"{list(widths)} need {shape}")
    if not np.all(np.isfinite(input_std) & (input_std > 0)):
        raise ValueError("mlp input_std must be finite and > 0")
    arrays["input_mean"] = input_mean
    for name in ("input_mean", *shapes):
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"mlp {name} holds a value that is not finite")
    # a tiny std overflows the fold: checked here, so no warning escapes
    W0, b0 = weights[0]
    with np.errstate(over="ignore", invalid="ignore"):
        folded = (W0 / input_std[:, None], b0 - (input_mean / input_std) @ W0)
    for name, arr in zip(("first layer", "first-layer bias"), folded):
        if not np.isfinite(arr).all():
            raise ValueError(f"mlp input_std folds into a {name} that is not finite")
    return folded


class MlpModel:
    """Trained classifier: weights plus input normalization and metadata."""

    def __init__(self, weights, input_mean: np.ndarray, input_std: np.ndarray,
                 params: MlpParams, loss_curve: list[float]):
        self.weights = [(np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64))
                        for W, b in weights]
        self.input_mean = np.asarray(input_mean, dtype=np.float64)
        self.input_std = np.asarray(input_std, dtype=np.float64)
        self.params = params
        W0, b0 = _check_layers(self.weights, self.input_mean, self.input_std, params.hidden,
                               np.asarray(loss_curve))
        self.loss_curve = list(loss_curve)
        self._layers = [(_aligned(W0), b0)]
        self._layers += [(_aligned(W), b) for W, b in self.weights[1:]]

    @property
    def n_features(self) -> int:
        return self.weights[0][0].shape[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(stop) for one row of shape (n_features,), a scalar, or for rows
        of shape (rows, n_features), an array of shape (rows,)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim not in (1, 2):
            raise ValueError(f"feature shape mismatch: model expects one row of shape "
                             f"({self.n_features},) or rows of shape (rows, {self.n_features}), "
                             f"got shape {X.shape}")
        if X.shape[-1] != self.n_features:
            raise ValueError(
                f"feature arity mismatch: model expects {self.n_features}, got {X.shape[-1]}")
        # columns past the last nonzero one before the final column add
        # nothing to the folded first layer; a full history keeps them all
        (W, b), *rest = self._layers
        nonzero = np.flatnonzero(X[:-1] if X.ndim == 1 else X[:, :-1].any(axis=0))
        k = nonzero[-1] + 1 if len(nonzero) else 0
        z = X[..., :k] @ W[:k] + X[..., -1:] * W[-1] + b
        for W, b in rest:
            z = np.maximum(z, 0.0) @ W + b
        return 1.0 / (1.0 + np.exp(-z[..., 0]))


def train_mlp(X: np.ndarray, y: np.ndarray, params: MlpParams = MlpParams(),
              seed: int = 0) -> MlpModel:
    """Mini-batch Adam on mean BCE; deterministic under ``seed``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a nonempty 2-D array")
    if len(X) != len(y):
        raise ValueError("X and y length mismatch")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be binary (0/1)")

    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), SIGMA_FLOOR)
    Xn = (X - mean) / std

    rng = np.random.default_rng(seed)
    weights = _init_weights(X.shape[1], params.hidden, rng)
    # (array, first moment, second moment) per weight matrix and bias, in
    # the order loss_and_grads gives their gradients; updated in place
    adam = [(w, np.zeros_like(w), np.zeros_like(w)) for layer in weights for w in layer]

    n = len(Xn)
    step = 0
    loss_curve: list[float] = []
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    for _ in range(params.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n, params.batch_size):
            idx = perm[lo: lo + params.batch_size]
            loss, grads = loss_and_grads(weights, Xn[idx], y[idx])
            step += 1
            corr1 = 1 - b1 ** step
            corr2 = 1 - b2 ** step
            for (w, m, v), g in zip(adam, (g for layer in grads for g in layer)):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                w -= params.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + eps)
            epoch_loss += loss
            n_batches += 1
        loss_curve.append(epoch_loss / max(n_batches, 1))

    return MlpModel(weights, mean, std, params, loss_curve)
