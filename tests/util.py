"""Hand-built traces and stub models shared across test modules."""

from __future__ import annotations

import collections
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

from speedtrim import traceio
from speedtrim.synth import (
    MAX_ATTEMPTS,
    MSS_BYTES,
    RTT_BIN_RANGES,
    TIER_Y_RANGES,
    GenSpec,
    _event_multiplier,
    _log_uniform,
    ramp_mean_fraction,
)
from speedtrim.core import (
    CUMULATIVE_FIELDS,
    F_CUM_AVG,
    F_PIPE_FULL,
    F_TPUT,
    N_FEATURES,
    SNAPSHOT_FIELDS,
    STD_CHANNELS,
    Snapshot,
    TerminationOutcome,
    Trace,
    ValidationError,
)
from speedtrim.engine import Session
from speedtrim.gbdt import GbdtModel, GbdtParams
from speedtrim.mlp import MlpModel, MlpParams, _forward
from speedtrim.traceio import CLASSIFIER_ARITY, REGRESSOR_ARITY, ParseError


def make_trace(t_us, bytes_acked, *, id="t", duration_us=None, rtt_us=20000,
               cwnd_bytes=100000, bytes_in_flight=50000, retrans=0, dup_acks=0,
               pipe_full=0):
    """Trace from explicit timestamp/byte arrays; other columns constant
    unless an array is given."""
    t_us = np.asarray(t_us, dtype=np.int64)
    n = len(t_us)

    def col(v):
        arr = np.asarray(v, dtype=np.int64)
        return arr if arr.ndim else np.full(n, arr)

    cols = {
        "t_us": t_us,
        "bytes_acked": col(bytes_acked),
        "cwnd_bytes": col(cwnd_bytes),
        "bytes_in_flight": col(bytes_in_flight),
        "rtt_us": col(rtt_us),
        "retrans": col(retrans),
        "dup_acks": col(dup_acks),
        "pipe_full": col(pipe_full),
    }
    if duration_us is None:
        duration_us = int(t_us[-1])
    return Trace(id, duration_us, cols)


def constant_rate_trace(rate_mbps: float, duration_s: float = 10.0,
                        snap_ms: float = 10.0, **kw) -> Trace:
    """Exactly constant throughput: bytes = rate * t / 8 at every snapshot."""
    n = int(round(duration_s * 1000 / snap_ms))
    t_us = (np.arange(n + 1) * snap_ms * 1000).astype(np.int64)
    bytes_acked = (rate_mbps * t_us / 8.0).astype(np.int64)
    return make_trace(t_us, bytes_acked, **kw)


def rate_profile_trace(rates_mbps, seg_s: float, snap_ms: float = 10.0, **kw) -> Trace:
    """Piecewise-constant rate: one segment of seg_s seconds per entry."""
    per_seg = int(round(seg_s * 1000 / snap_ms))
    step_us = snap_ms * 1000.0
    incs = []
    for r in rates_mbps:
        incs.extend([r * step_us / 8.0] * per_seg)
    bytes_acked = np.concatenate([[0.0], np.cumsum(incs)]).astype(np.int64)
    t_us = (np.arange(len(bytes_acked)) * step_us).astype(np.int64)
    return make_trace(t_us, bytes_acked, **kw)


def snapshot(t_us, bytes_acked, **kw) -> Snapshot:
    defaults = dict(cwnd_bytes=100000, bytes_in_flight=50000, rtt_us=20000,
                    retrans=0, dup_acks=0, pipe_full=0)
    defaults.update(kw)
    return Snapshot(t_us=t_us, bytes_acked=bytes_acked, **defaults)


def trace_snapshot_dicts(trace: Trace) -> list[dict]:
    return [
        {name: int(getattr(trace, name)[i]) for name in SNAPSHOT_FIELDS}
        for i in range(len(trace))
    ]


def feed_trace(trace: Trace, policy) -> TerminationOutcome:
    """Feed a trace to a Session one snapshot at a time, as a live test
    would; the reference that engine.run_trace replay must match."""
    session = Session(policy)
    for snap in trace.snapshots:
        if session.feed(snap).stopping:
            break
    if not session.terminal:
        session.end_of_trace()
    return session.finalize(trace.summarize().y_true_mbps)


# Packed arrays of a forest with no trees.
NO_TREES = {"feature": [], "threshold": [], "left": [], "right": [], "value": [], "offsets": [0]}


def constant_regressor(value: float, n_features: int = REGRESSOR_ARITY) -> GbdtModel:
    """Zero-tree model: predicts `value` for any input (base only)."""
    return GbdtModel(value, NO_TREES, GbdtParams(objective="mse"), n_features, [])


def constant_classifier(p_stop: float, n_features: int = CLASSIFIER_ARITY) -> MlpModel:
    """Single-layer stub whose output sigmoid is pinned near p_stop."""
    logit = np.log(p_stop / (1.0 - p_stop)) if 0 < p_stop < 1 else (
        50.0 if p_stop >= 1 else -50.0)
    weights = [(np.zeros((n_features, 1)), np.array([logit]))]
    return MlpModel(weights, MlpParams(hidden=()), [])


def dense_predict_proba(model: MlpModel, X):
    """p_stop the plain way: the dense forward pass over every column of X
    through the stored weights (no skipped columns)."""
    X = np.asarray(X, dtype=np.float64)
    _, z = _forward(model.weights, np.atleast_2d(X))
    p = 1.0 / (1.0 + np.exp(-z))
    return p[0] if X.ndim == 1 else p


class DenseClassifier(MlpModel):
    """A classifier that predicts through dense_predict_proba."""

    def __init__(self, model: MlpModel):
        super().__init__(model.weights, model.params, model.loss_curve)

    def predict_proba(self, X):
        return dense_predict_proba(self, X)


def count_decodes(monkeypatch) -> collections.Counter:
    """Counter of the file names traceio.parse_trace decodes from now on.

    A decode is a call on a path; the call parse_trace then makes on the
    open file is not counted again.
    """
    counts = collections.Counter()
    original = traceio.parse_trace

    def counting(stream, *args, **kwargs):
        if isinstance(stream, (str, os.PathLike)):
            counts[os.path.basename(stream)] += 1
        return original(stream, *args, **kwargs)

    monkeypatch.setattr(traceio, "parse_trace", counting)
    return counts


def count_trace_builds(monkeypatch) -> list[str]:
    """A list that gains the id of every core.Trace built from now on."""
    built = []
    original = Trace.__init__

    def counting(self, id, *args, **kwargs):
        built.append(id)
        original(self, id, *args, **kwargs)

    monkeypatch.setattr(Trace, "__init__", counting)
    return built


def reference_validate(snap: Snapshot) -> None:
    """Snapshot.validate as one loop over the fields, a type check and an
    int64 range check each, then the range rules: the reference the
    straight-line check must agree with, pass for pass and message for
    message."""
    for name, value in zip(SNAPSHOT_FIELDS, snap):
        if type(value) is not int:  # not bool
            if not isinstance(value, np.integer):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            value = int(value)
        if not -(1 << 63) <= value < 1 << 63:
            raise ValidationError(
                f"{name} outside the 64-bit integer range at t_us={snap.t_us}")
    if snap.rtt_us <= 0:
        raise ValidationError(f"rtt_us must be > 0, got {snap.rtt_us}")
    if snap.bytes_in_flight < 0:
        raise ValidationError("bytes_in_flight must be >= 0")
    if snap.t_us < 0:
        raise ValidationError("t_us must be >= 0")


def reference_parse_trace(stream, default_id: str = "trace") -> Trace:
    """traceio.parse_trace as it was with a json.loads and type check per
    line: the reference the bulk parser must agree with.

    It differs from the bulk parser in three ways, each a later fix: it
    reports a value outside int64 only after every line passed the other
    checks, it accepts a header duration_us outside int64, and an invalid
    UTF-8 byte, a line nested too deep or an integer literal past Python's
    digit limit escapes as the decoder's error, without a line number.
    """
    if isinstance(stream, io.TextIOBase):
        lines = stream.read().splitlines()
    else:
        lines = stream.read().decode("utf-8").splitlines()

    trace_id = default_id
    duration_us = None
    header = 0
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
        if lineno == 1 and "t_us" not in obj:
            trace_id = str(obj.get("id", default_id))
            if "duration_us" in obj:
                duration_us = obj["duration_us"]
                if type(duration_us) is not int:
                    raise ParseError(f"line 1: non-integer duration_us {duration_us!r}")
            header = 1
            continue
        try:
            row = tuple([obj[k] for k in SNAPSHOT_FIELDS])
        except KeyError:
            missing = [k for k in SNAPSHOT_FIELDS if k not in obj]
            raise ParseError(f"line {lineno}: missing keys {missing}") from None
        for k, value in zip(SNAPSHOT_FIELDS, row):
            if type(value) is not int:
                raise ParseError(f"line {lineno}: non-integer field {k}={value!r}")
        rows.append(row)

    if not rows:
        raise ParseError("no snapshots")
    try:
        data = np.array(rows, dtype=np.int64)
    except OverflowError:
        int64 = range(-(1 << 63), 1 << 63)
        i = next(i for i, row in enumerate(rows) if any(v not in int64 for v in row))
        lineno = [n for n, line in enumerate(lines, start=1) if line.strip()][header + i]
        raise ParseError(f"line {lineno}: value outside the 64-bit integer range") from None
    order = np.argsort(data[:, 0], kind="stable")
    data = data[order]
    if data[0, 0] < 0:
        raise ValidationError(f"trace {trace_id!r}: negative t_us {int(data[0, 0])}")
    if np.any(np.diff(data[:, 0]) <= 0):
        raise ValidationError(f"trace {trace_id!r}: nonmonotonic timestamps")

    cols = {name: data[:, i].copy() for i, name in enumerate(SNAPSHOT_FIELDS)}
    for name in CUMULATIVE_FIELDS:
        cols[name] = traceio._repair_cumulative(cols[name], name, trace_id)
    if cols["bytes_acked"][-1] <= 0:
        raise ValidationError(f"trace {trace_id!r}: no bytes acked by the last snapshot")
    if duration_us is None:
        duration_us = int(cols["t_us"][-1])
    return Trace(trace_id, duration_us, cols)


def reference_window_frames(cols, w_of, n: int):
    """The frames of windows [0, n) of the snapshots ``cols`` (int64
    columns in SNAPSHOT_FIELDS order), each in window ``w_of``, built
    window by window in plain Python: each channel's values are listed,
    then summed one at a time in snapshot order.  traceio.resample must
    match it bit for bit."""
    rows = [tuple(map(int, row)) for row in zip(*cols)]
    windows = [int(w) for w in w_of]
    frames = np.zeros((n, N_FEATURES))

    def stats(values):
        total = squares = 0.0
        for v in values:
            total += v
            squares += v * v
        safe = max(float(len(values)), 1.0)
        mean = total / safe
        return mean, math.sqrt(max(squares / safe - mean * mean, 0.0))

    for w in range(n):
        members = [i for i, wi in enumerate(windows) if wi == w]
        before = frames[w - 1] if w else None
        if not members:
            if before is not None:
                frames[w] = before
                frames[w, list(STD_CHANNELS)] = 0.0
            continue
        levels = [(float(rows[i][2]), float(rows[i][3]), rows[i][4] / 1000.0) for i in members]
        for ch, values in zip((3, 5, 7), zip(*levels)):
            frames[w, ch], frames[w, ch + 1] = stats(values)
        deltas = []
        for i in members:
            if not i:
                continue
            last = rows[i - 1]
            d = [float(rows[i][k]) - float(last[k]) for k in (0, 1, 5, 6)]
            deltas.append((8.0 * d[1] / d[0], d[2], d[3]))
        inst, retrans, dup_acks = zip(*deltas) if deltas else ((), (), ())
        frames[w, F_TPUT] = stats(inst)[0]
        frames[w, 9], frames[w, 10] = stats(retrans)
        frames[w, 11], frames[w, 12] = stats(dup_acks)
        t, acked = rows[members[-1]][:2]
        if t > 0:
            frames[w, F_CUM_AVG] = 8.0 * acked / t
        pipe_full = max([0.0] + [float(rows[i][7]) for i in members])
        if before is not None:
            pipe_full = max(pipe_full, before[F_PIPE_FULL])
        frames[w, F_PIPE_FULL] = pipe_full
    return frames


def _reference_pipe_full_counter(t_us: np.ndarray, inst_rate: np.ndarray,
                                 round_us: float) -> np.ndarray:
    """synth._pipe_full_counter as it was: a loop over Python lists."""
    counts = [0]
    max_bw = 0.0
    plateau_rounds = 0
    total = 0
    round_end = round_us
    round_max = 0.0
    # over Python lists: indexing a NumPy array per element is several times slower
    for t, rate in zip(t_us[1:].tolist(), inst_rate.tolist()):
        if rate > round_max:
            round_max = rate
        if t >= round_end:
            if max_bw > 0 and round_max < 1.25 * max_bw:
                plateau_rounds += 1
            else:
                plateau_rounds = 0
            if plateau_rounds >= 3:
                total += 1
            max_bw = max(max_bw, round_max)
            round_max = 0.0
            round_end += round_us
        counts.append(total)
    return np.array(counts, dtype=np.int64)


def _reference_simulate(rng: np.random.Generator, spec: GenSpec, trace_id: str,
                        capacity: float, tau_s: float, base_rtt_ms: float) -> Trace:
    """synth._simulate as it was: AR(1) noise over NumPy scalars, and every
    telemetry channel and the Trace built for every draw."""
    duration_us = int(round(spec.duration_s * 1e6))
    step_us = spec.snapshot_ms * 1000.0
    n_steps = int(round(duration_us / step_us))

    t_us = (np.arange(n_steps + 1) * step_us).astype(np.float64)
    if spec.timestamp_jitter_ms > 0:
        jitter = rng.uniform(-spec.timestamp_jitter_ms, spec.timestamp_jitter_ms,
                             size=n_steps + 1) * 1000.0
        jitter[0] = 0.0
        jitter[-1] = 0.0
        t_us = t_us + jitter
    t_us = np.round(t_us).astype(np.int64)
    t_us[-1] = duration_us

    t_mid_s = (t_us[:-1] + t_us[1:]) / 2.0 / 1e6
    ramp = 1.0 - np.exp(-t_mid_s / tau_s) if tau_s > 0 else np.ones_like(t_mid_s)

    # Startup transient in two phases: a short slow-start over/undershoot,
    # then a settling plateau offset from the sustained rate. Both offsets
    # carry a random sign, so early windows cannot resolve the final rate.
    shape = np.ones_like(t_mid_s)
    if spec.transient_spread > 0:
        t1 = rng.uniform(*spec.transient_span)
        amp1 = rng.uniform(max(0.05, spec.transient_spread - 0.05),
                           spec.transient_spread)
        level1 = max(1.0 + (-amp1 if rng.random() < 0.5 else amp1), 0.1)
        t2 = t1 + rng.uniform(*spec.plateau_span)
        amp2 = rng.uniform(max(0.02, spec.plateau_spread - 0.10),
                           spec.plateau_spread + 0.10)
        level2 = max(1.0 + (-amp2 if rng.random() < 0.5 else amp2), 0.1)
        shape = np.where(t_mid_s < t1, level1,
                         np.where(t_mid_s < t2, level2, 1.0))

    if spec.noise_rel_std > 0 and spec.ar_coeff < 1.0:
        eps = rng.standard_normal(n_steps)
        noise = np.empty(n_steps)
        scale = spec.noise_rel_std * math.sqrt(1.0 - spec.ar_coeff ** 2)
        acc = 0.0
        for i in range(n_steps):
            acc = spec.ar_coeff * acc + scale * eps[i]
            noise[i] = acc
    else:
        noise = np.zeros(n_steps)

    mult = np.clip(1.0 + noise, 0.05, None)
    mult *= _event_multiplier(rng, t_mid_s, spec.dropout_rate, spec.duration_s,
                              mult=0.05, mean_len_s=0.25)
    mult *= _event_multiplier(rng, t_mid_s, spec.burst_rate, spec.duration_s,
                              mult=1.8, mean_len_s=0.1)
    inst_rate = capacity * ramp * shape * mult               # Mbps per interval

    dt_us = np.diff(t_us).astype(np.float64)
    byte_increments = inst_rate * dt_us / 8.0
    bytes_acked = np.zeros(n_steps + 1)
    bytes_acked[1:] = np.cumsum(byte_increments)
    bytes_acked = np.floor(bytes_acked).astype(np.int64)

    base_rtt_us = base_rtt_ms * 1000.0
    util = np.concatenate([[0.0], inst_rate / capacity])
    # Queueing inflation with a per-trace coefficient and per-sample jitter,
    # so RTT growth tracks load qualitatively without fixing the scale.
    queue_coeff = rng.uniform(0.05, 0.50)
    rtt_noise = rng.lognormal(0.0, 0.08, size=n_steps + 1)
    rtt_us = np.round(base_rtt_us * (1.0 + queue_coeff * util) * rtt_noise)
    rtt_us = np.maximum(rtt_us.astype(np.int64), 1)

    rate_per_snap = np.concatenate([[0.0], inst_rate])
    cwnd_bytes = np.maximum(
        np.round(rate_per_snap * rtt_us / 8.0).astype(np.int64), MSS_BYTES)
    bif = np.round(cwnd_bytes * rng.uniform(0.75, 1.0, size=n_steps + 1)).astype(np.int64)
    bif[0] = 0

    dropout_active = mult < 0.5
    retx_inc = rng.poisson(0.02, size=n_steps) + rng.poisson(2.0, size=n_steps) * dropout_active
    retrans = np.zeros(n_steps + 1, dtype=np.int64)
    retrans[1:] = np.cumsum(retx_inc)
    dup_inc = 3 * retx_inc + rng.poisson(0.05, size=n_steps)
    dup_acks = np.zeros(n_steps + 1, dtype=np.int64)
    dup_acks[1:] = np.cumsum(dup_inc)

    pipe_full = _reference_pipe_full_counter(t_us, inst_rate, base_rtt_us)

    return Trace(trace_id, duration_us, {
        "t_us": t_us,
        "bytes_acked": bytes_acked,
        "cwnd_bytes": cwnd_bytes,
        "bytes_in_flight": bif,
        "rtt_us": rtt_us,
        "retrans": retrans,
        "dup_acks": dup_acks,
        "pipe_full": pipe_full,
    })


def reference_gen_trace(spec: GenSpec, index: int) -> tuple[Trace, str]:
    """synth.gen_trace as it was, with each draw's Trace summarized to test
    its tier and RTT bin: the reference the generator must equal by bytes.
    It shares with the generator only helpers it has kept unchanged."""
    pick_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index, 0xA5)))
    eff = spec
    if eff.mode == "balanced":
        target_tier = index % 5
    elif eff.mode == "natural":
        target_tier = int(pick_rng.choice(5, p=np.asarray(eff.tier_weights) / sum(eff.tier_weights)))
    else:
        raise ValueError(f"unknown mode {eff.mode!r}")
    target_bin = int(pick_rng.choice(5, p=np.asarray(eff.rtt_bin_weights) / sum(eff.rtt_bin_weights)))

    # Slow links and high-RTT paths are noisier and less stationary, so
    # their early windows are less predictive of the final rate.
    d = eff.difficulty_coupling * max((4 - target_tier) / 4.0, target_bin / 4.0)
    if d > 0:
        plo, phi = eff.plateau_span
        eff = replace(eff,
                      noise_rel_std=min(0.45, eff.noise_rel_std * (1.0 + 2.5 * d)),
                      ar_coeff=min(0.95, eff.ar_coeff + 0.28 * d),
                      dropout_rate=min(0.30, eff.dropout_rate * (1.0 + 3.0 * d)),
                      burst_rate=min(0.15, eff.burst_rate * (1.0 + 2.0 * d)),
                      plateau_spread=min(0.36, eff.plateau_spread + 0.24 * d),
                      plateau_span=(plo + 1.5 * d, phi + 1.5 * d))

    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index, attempt)))
        tau = rng.uniform(*eff.ramp_tau_range)
        y_target = _log_uniform(rng, *TIER_Y_RANGES[target_tier])
        frac = ramp_mean_fraction(tau, eff.duration_s)
        capacity = float(np.clip(y_target / frac, *eff.capacity_range))
        base_rtt = _log_uniform(rng, *RTT_BIN_RANGES[target_bin])
        trace = _reference_simulate(rng, eff, f"t{index:05d}", capacity, tau, base_rtt)
        s = trace.summarize()
        if s.speed_tier == target_tier and s.rtt_bin == target_bin:
            return trace, spec.preset
    raise ValueError(
        f"trace {index}: no draw landed in tier {target_tier}/bin {target_bin} "
        f"after {MAX_ATTEMPTS} attempts")
