"""Versioned binary container for trained models.

Layout: magic, format version, model kind, params JSON blob, a named
array section, and a trailing CRC32 over everything before it.  Arrays
are written raw (dtype + shape + C-order bytes), so a given model
serializes byte-identically across runs.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .core import replace_from_json
from .gbdt import FOREST_DTYPES, GbdtModel, GbdtParams
from .mlp import MlpModel, MlpParams

MAGIC = b"STPM"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Corrupt, truncated, or incompatible model file."""


def _write_bytes(fh, data: bytes) -> None:
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _read_bytes(fh) -> bytes:
    raw = fh.read(4)
    if len(raw) != 4:
        raise ModelFormatError("truncated model file")
    (n,) = struct.unpack("<I", raw)
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError("truncated model file")
    return data


def _write_arrays(fh, arrays: dict[str, np.ndarray]) -> None:
    fh.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        _write_bytes(fh, name.encode("utf-8"))
        _write_bytes(fh, arr.dtype.str.encode("ascii"))
        fh.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        _write_bytes(fh, arr.tobytes())


def _read_arrays(fh) -> dict[str, np.ndarray]:
    raw = fh.read(4)
    if len(raw) != 4:
        raise ModelFormatError("truncated model file")
    (count,) = struct.unpack("<I", raw)
    arrays = {}
    for _ in range(count):
        name = _read_bytes(fh).decode("utf-8", errors="replace")
        code = _read_bytes(fh).decode("ascii", errors="replace")
        try:
            dtype = np.dtype(code)
        except (TypeError, ValueError, SyntaxError):   # numpy parses some codes as Python
            raise ModelFormatError(f"array {name!r}: unknown dtype {code!r}") from None
        if dtype.kind not in "iuf":
            raise ModelFormatError(f"array {name!r}: dtype {dtype.str!r} is not "
                                   "an integer or floating-point type")
        raw = fh.read(1)
        if len(raw) != 1:
            raise ModelFormatError("truncated model file")
        (ndim,) = struct.unpack("<B", raw)
        shape = []
        for _ in range(ndim):
            raw = fh.read(8)
            if len(raw) != 8:
                raise ModelFormatError("truncated model file")
            shape.append(struct.unpack("<Q", raw)[0])
        data = _read_bytes(fh)
        if len(data) != dtype.itemsize * math.prod(shape):
            raise ModelFormatError(f"array {name!r}: {len(data)} bytes do not fill "
                                   f"shape {tuple(shape)} of {dtype.str}")
        try:
            arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:   # more or larger dimensions than numpy allows
            raise ModelFormatError(f"array {name!r}: {exc}") from None
    return arrays


def _model_payload(model) -> tuple[str, dict, dict[str, np.ndarray]]:
    if isinstance(model, GbdtModel):
        arrays = dict(model.forest)
        arrays["meta"] = np.array([model.base_prediction, model.n_features], dtype=np.float64)
        arrays["train_mse"] = np.asarray(model.train_mse, dtype=np.float64)
        return "gbdt", asdict(model.params), arrays
    if isinstance(model, MlpModel):
        arrays = {}
        for i, (W, b) in enumerate(model.weights):
            arrays[f"W{i}"] = W
            arrays[f"b{i}"] = b
        arrays["input_mean"] = model.input_mean
        arrays["input_std"] = model.input_std
        arrays["loss_curve"] = np.asarray(model.loss_curve, dtype=np.float64)
        return "mlp", asdict(model.params), arrays
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def _check_forest(forest: dict[str, np.ndarray], n_features: int, max_depth: int) -> None:
    """Reject packed arrays that would send a descent out of its own tree,
    stop it short of a leaf after ``max_depth`` levels, or give it a
    threshold or leaf value that is not finite."""
    n_nodes = forest["value"].size
    if any(forest[name].shape != (n_nodes,) for name in FOREST_DTYPES if name != "offsets"):
        raise ModelFormatError("gbdt node arrays differ in length")
    offsets = forest["offsets"]
    # neighbours are compared, not differenced: an int64 difference wraps
    if (offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0
            or offsets[-1] != n_nodes or np.any(offsets[1:] <= offsets[:-1])):
        raise ModelFormatError("gbdt offsets must rise from 0 to the node count, "
                               "one node or more per tree")
    sizes = np.diff(offsets)
    tree_size = np.repeat(sizes, sizes)
    start = np.repeat(offsets[:-1], sizes)
    local = np.arange(n_nodes) - start
    leaf = forest["feature"] == -1
    for name in ("left", "right"):
        child = forest[name]
        if np.any((child < 0) | (child >= tree_size)):
            raise ModelFormatError(f"gbdt {name} child index outside its tree")
        if np.any(child[leaf] != local[leaf]):
            raise ModelFormatError(f"gbdt {name} of a leaf does not point to the leaf itself")
    feature = forest["feature"]
    if np.any((feature < -1) | (feature >= n_features)):
        raise ModelFormatError(f"gbdt feature index outside -1..{n_features - 1}")
    for name in ("threshold", "value"):
        if not np.isfinite(forest[name]).all():
            raise ModelFormatError(f"gbdt {name} holds a value that is not finite")
    # every node max_depth levels below a root, by either branch, is a leaf.
    # Past a tree's size in levels, a split node is still reached only
    # through a cycle, so more levels change nothing.
    reached = np.zeros(n_nodes, dtype=bool)
    reached[offsets[:-1]] = True
    for _ in range(min(max_depth, int(sizes.max(initial=0)))):
        at = np.flatnonzero(reached)
        reached[:] = False
        reached[start[at] + forest["left"][at]] = True
        reached[start[at] + forest["right"][at]] = True
    if not leaf[reached].all():
        raise ModelFormatError(f"gbdt left/right: a descent of max_depth {max_depth} "
                               "levels can end on a split node")


def _params(cls, params: dict):
    """The params dataclass a model file's JSON block describes."""
    try:
        return replace_from_json(cls(), params, cls.__name__)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def _check_mlp(arrays: dict[str, np.ndarray], hidden: tuple) -> None:
    """Reject arrays that do not give the layer widths: the input width of
    ``input_mean``, then the ``hidden`` widths, then one output.  Reject
    values the folded first layer cannot serve: every weight, bias and
    mean finite, every ``input_std`` finite and > 0."""
    n = len(hidden) + 1
    names = ["input_mean", "input_std", *(f"{kind}{i}" for i in range(n) for kind in "Wb"),
             "loss_curve"]
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ModelFormatError(f"mlp model lacks arrays {missing}")
    for name in ("input_mean", "loss_curve"):
        if arrays[name].ndim != 1:
            raise ModelFormatError(f"mlp {name} must be 1-D")
    widths = (len(arrays["input_mean"]), *hidden, 1)
    shapes = {"input_std": widths[:1]}
    for i in range(n):
        shapes[f"W{i}"] = (widths[i], widths[i + 1])
        shapes[f"b{i}"] = (widths[i + 1],)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ModelFormatError(
                f"mlp {name} has shape {arrays[name].shape}, layer widths "
                f"{list(widths)} need {shape}")
    std = arrays["input_std"]
    if not np.all(np.isfinite(std) & (std > 0)):
        raise ModelFormatError("mlp input_std must be finite and > 0")
    for name in ("input_mean", *shapes):
        if not np.isfinite(arrays[name]).all():
            raise ModelFormatError(f"mlp {name} holds a value that is not finite")


def _restore(kind: str, params: dict, arrays: dict[str, np.ndarray]):
    if kind == "gbdt":
        missing = [name for name in (*FOREST_DTYPES, "meta", "train_mse") if name not in arrays]
        if missing:
            raise ModelFormatError(f"gbdt model lacks arrays {missing}")
        meta = arrays["meta"]
        if meta.shape != (2,) or not np.isfinite(meta).all() or meta[1] < 0 or meta[1] % 1:
            raise ModelFormatError("gbdt meta must hold a finite base prediction "
                                   "and a whole feature count")
        base, n_features = meta
        p = _params(GbdtParams, params)
        # checked before the model derives its descent tables from it
        forest = {name: np.asarray(arrays[name], dtype=dtype)
                  for name, dtype in FOREST_DTYPES.items()}
        _check_forest(forest, int(n_features), p.max_depth)
        return GbdtModel(float(base), forest, p, int(n_features), list(arrays["train_mse"]))
    if kind == "mlp":
        p = _params(MlpParams, params)
        _check_mlp(arrays, p.hidden)
        weights = [(arrays[f"W{i}"], arrays[f"b{i}"]) for i in range(len(p.hidden) + 1)]
        return MlpModel(weights, arrays["input_mean"], arrays["input_std"], p,
                        list(arrays["loss_curve"]))
    raise ModelFormatError(f"unknown model kind {kind!r}")


def dump_model(model) -> bytes:
    kind, params, arrays = _model_payload(model)
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    _write_bytes(buf, kind.encode("ascii"))
    _write_bytes(buf, json.dumps(params, sort_keys=True).encode("utf-8"))
    _write_arrays(buf, arrays)
    body = buf.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def load_model_bytes(data: bytes):
    if len(data) < 12 or data[:4] != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    body, crc_raw = data[:-4], data[-4:]
    if len(crc_raw) != 4 or zlib.crc32(body) != struct.unpack("<I", crc_raw)[0]:
        raise ModelFormatError("checksum mismatch (truncated or corrupt file)")
    fh = io.BytesIO(body[4:])
    (version,) = struct.unpack("<I", fh.read(4))
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    try:
        kind = _read_bytes(fh).decode("ascii")
        params = json.loads(_read_bytes(fh).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"model kind or parameter block: {exc}") from None
    if not isinstance(params, dict):
        raise ModelFormatError("parameter block is not a JSON object")
    arrays = _read_arrays(fh)
    return _restore(kind, params, arrays)


def save_model(model, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(dump_model(model))


def load_model(path: str):
    with open(path, "rb") as fh:
        return load_model_bytes(fh.read())
