"""Versioned binary container for trained models.

Layout: magic, format version, model kind, params JSON blob, a named
array section, and a trailing CRC32 over everything before it.  Arrays
are written raw (dtype + shape + C-order bytes), so a given model
serializes byte-identically across runs.  Each kind's arrays are the
model's own in-memory layout: the packed forest of a ``gbdt``, and the
weights of an ``mlp`` with the input standardization folded into its
first layer.  The loader checks this framing and that each kind's arrays
are present, once each; what makes the arrays a valid model is checked
by the model's own constructor.
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
from .gbdt import GbdtModel, GbdtParams
from .mlp import MlpModel, MlpParams

MAGIC = b"STPM"
FORMAT_VERSION = 2


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
        try:
            name = _read_bytes(fh).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"array name block: {exc}") from None
        if name in arrays:
            raise ModelFormatError(f"array {name!r} appears twice")
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
        arrays["loss_curve"] = np.asarray(model.loss_curve, dtype=np.float64)
        return "mlp", asdict(model.params), arrays
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def _present(kind: str, arrays: dict[str, np.ndarray], names) -> None:
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ModelFormatError(f"{kind} model lacks arrays {missing}")


def _restore(kind: str, params: dict, arrays: dict[str, np.ndarray]):
    """The model a file's kind, parameter block and arrays describe.  The
    params class checks the block, and the model's constructor its arrays:
    either raises ``ValueError``."""
    if kind == "gbdt":
        forest = ("feature", "threshold", "left", "right", "value", "offsets")
        _present(kind, arrays, (*forest, "meta", "train_mse"))
        meta = arrays["meta"]   # this format's packing of the two scalars
        if meta.shape != (2,) or not np.isfinite(meta).all() or meta[1] < 0 or meta[1] % 1:
            raise ModelFormatError("gbdt meta must hold a finite base prediction "
                                   "and a whole feature count")
        base, n_features = meta
        p = replace_from_json(GbdtParams(), params, "GbdtParams")
        return GbdtModel(float(base), {name: arrays[name] for name in forest}, p,
                         int(n_features), arrays["train_mse"])
    if kind == "mlp":
        p = replace_from_json(MlpParams(), params, "MlpParams")
        n = len(p.hidden) + 1
        _present(kind, arrays, (*(f"{w}{i}" for i in range(n) for w in "Wb"), "loss_curve"))
        weights = [(arrays[f"W{i}"], arrays[f"b{i}"]) for i in range(n)]
        return MlpModel(weights, p, arrays["loss_curve"])
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
    try:
        return _restore(kind, params, arrays)
    except ValueError as exc:   # this module's, or a params or model class's rule
        raise ModelFormatError(str(exc)) from None


def save_model(model, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(dump_model(model))


def load_model(path: str):
    with open(path, "rb") as fh:
        return load_model_bytes(fh.read())
