"""Trace ingestion, 100 ms resampling, and model-ready feature views.

The on-disk trace format is UTF-8 JSON Lines: an optional header object
``{"id", "duration_us"}`` followed by one object per snapshot with keys
t_us, bytes_acked, cwnd_bytes, bytes_in_flight, rtt_us, retrans,
dup_acks, pipe_full.  A corpus is a directory of ``*.jsonl`` files plus
``index.csv`` (file,id); a trace's summary is computed from the trace when
it is decoded.  ``write_corpus`` also writes the summaries to
``manifest.csv``, for provenance and checks; no reader opens it.

Window statistics have one kernel, in plain Python: ``fold_window`` adds
a window's snapshots to its running sums one at a time in snapshot order,
and ``window_frame`` turns the sums into the window's frame.  A live
session fills a ``FrameBuffer`` as its snapshots arrive; ``resample``
fills one from a whole trace.  So the frames the models train on, the
baselines read, and a live or replayed session decides on all come from
the same code.  On a 2-core Xeon, ``resample`` takes about 1.3 ms for a
10 s trace of 1001 snapshots (median of 30 rounds over 8 traces).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import os
import shutil
import tempfile
from typing import NoReturn

import numpy as np

from .core import (
    CUMULATIVE_FIELDS,
    N_FEATURES,
    SNAPSHOT_FIELDS,
    STD_CHANNELS,
    STRIDE_MS,
    WINDOW_MS,
    Trace,
    TraceSummary,
    ValidationError,
)

REGRESSOR_WINDOWS = 20          # most recent 2 s
CLASSIFIER_WINDOWS = 100        # full 10 s history
REGRESSOR_ARITY = REGRESSOR_WINDOWS * N_FEATURES + 1
CLASSIFIER_ARITY = CLASSIFIER_WINDOWS * N_FEATURES + 1

MANIFEST_COLUMNS = ("id", "y_true_mbps", "total_bytes", "min_rtt_ms", "tier", "rtt_bin", "preset",
                    "duration_ms")


class ParseError(ValueError):
    """Malformed trace file; message carries the offending line number."""


def _repair_cumulative(values: np.ndarray, name: str, trace_label: str) -> np.ndarray:
    """Fix a single one-sample dip in a cumulative counter; reject worse."""
    drops = np.flatnonzero(values[1:] < values[:-1]) + 1    # no int64 difference: it wraps
    if len(drops) == 0:
        return values
    i = int(drops[0])
    recovers = i + 1 < len(values) and values[i + 1] >= values[i - 1]
    if len(drops) > 1 or not recovers:
        raise ValidationError(f"trace {trace_label!r}: {name} decreases (not a 1-sample glitch)")
    out = values.copy()
    out[i] = out[i - 1]
    return out


_SCAN = json.JSONDecoder().scan_once     # the C scanner json.loads runs
_ROW = operator.itemgetter(*SNAPSHOT_FIELDS)
_INT64 = range(-(1 << 63), 1 << 63)
# one snapshot line as dump_trace writes it; json.dumps writes an int as its repr
_SNAPSHOT_LINE = "{{" + ", ".join(f'"{k}": {{}}' for k in SNAPSHOT_FIELDS) + "}}\n"


def parse_trace(stream, default_id: str = "trace") -> Trace:
    """Parse a JSON-Lines stream, or a file whose errors name it, into a validated Trace."""
    if isinstance(stream, (str, os.PathLike)):
        with open(stream, "rb") as fh:
            try:
                return parse_trace(fh, default_id=default_id)
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{os.fsdecode(stream)}: {exc}") from None
    raw = stream.read()
    try:
        text = raw if isinstance(raw, str) else raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count lines as splitlines does, up to and including the bad byte's line
        lineno = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"line {lineno}: invalid UTF-8 ({exc.reason})") from None
    lines = text.splitlines()

    # Decode each non-blank line with the C scanner; json.loads takes a line
    # the scanner does not consume whole (padding, or an error to report).
    objs = []
    try:
        for line in filter(str.strip, lines):
            try:
                obj, end = _SCAN(line, 0)
            except StopIteration:
                end = -1
            objs.append(obj if end == len(line) else json.loads(line))
    except (ValueError, RecursionError):
        _raise_first_error(lines)
    # Column-wise checks; when one fails, the line loop finds and names the line.
    header = bool(objs) and bool(lines[0].strip()) and type(objs[0]) is dict \
        and "t_us" not in objs[0]
    head = objs[0] if header else {}
    trace_id = str(head.get("id", default_id))
    duration_us = head.get("duration_us", 0)
    snaps = objs[header:]
    if (type(duration_us) is not int or duration_us not in _INT64
            or set(map(type, snaps)) != {dict}):
        _raise_first_error(lines)
    try:
        values = list(itertools.chain.from_iterable(map(_ROW, snaps)))
        if set(map(type, values)) != {int}:
            _raise_first_error(lines)
        data = np.fromiter(values, np.int64, len(values)).reshape(len(snaps), -1)
    except (KeyError, OverflowError):
        _raise_first_error(lines)
    order = np.argsort(data[:, 0], kind="stable")
    data = data[order]
    if data[0, 0] < 0:
        raise ValidationError(f"trace {trace_id!r}: negative t_us {int(data[0, 0])}")
    if np.any(data[1:, 0] <= data[:-1, 0]):
        raise ValidationError(f"trace {trace_id!r}: nonmonotonic timestamps")

    cols = {name: data[:, i].copy() for i, name in enumerate(SNAPSHOT_FIELDS)}
    for name in CUMULATIVE_FIELDS:
        cols[name] = _repair_cumulative(cols[name], name, trace_id)
    if cols["bytes_acked"][-1] <= 0:
        raise ValidationError(f"trace {trace_id!r}: no bytes acked by the last snapshot")
    if "duration_us" not in head:
        duration_us = int(cols["t_us"][-1])
    return Trace(trace_id, duration_us, cols)


def _raise_first_error(lines: list[str]) -> NoReturn:
    """Raise the ParseError of the first bad line in file order.

    Runs only after a column-wise check in parse_trace failed, so some line
    is bad or no line is a snapshot: it always raises.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: malformed JSON ({exc.msg})") from None
        except ValueError:      # an integer literal past Python's digit limit
            raise ParseError(f"line {lineno}: value outside the 64-bit integer range") from None
        except RecursionError:
            raise ParseError(f"line {lineno}: malformed JSON (nesting too deep)") from None
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
        if lineno == 1 and "t_us" not in obj:
            duration_us = obj.get("duration_us", 0)
            if type(duration_us) is not int:
                raise ParseError(f"line 1: non-integer duration_us {duration_us!r}")
            if duration_us not in _INT64:
                raise ParseError("line 1: duration_us outside the 64-bit integer range")
            continue
        try:
            row = _ROW(obj)
        except KeyError:
            missing = [k for k in SNAPSHOT_FIELDS if k not in obj]
            raise ParseError(f"line {lineno}: missing keys {missing}") from None
        # JSON true, 1.9 and "7" decode to bool, float and str: none is an int
        for k, value in zip(SNAPSHOT_FIELDS, row):
            if type(value) is not int:
                raise ParseError(f"line {lineno}: non-integer field {k}={value!r}")
        if any(value not in _INT64 for value in row):
            raise ParseError(f"line {lineno}: value outside the 64-bit integer range")
    raise ParseError("no snapshots")


def dump_trace(trace: Trace) -> bytes:
    """Serialize a Trace to its JSON-Lines wire form (round-trip exact)."""
    head = json.dumps({"id": trace.id, "duration_us": trace.duration_us}) + "\n"
    cols = [getattr(trace, name).tolist() for name in SNAPSHOT_FIELDS]
    return (head + "".join(map(_SNAPSHOT_LINE.format, *cols))).encode("utf-8")


# fold_window's running sums of one window, in this order: the level count
# and the delta count; sum and sum of squares of cwnd, bif, rtt in ms and
# the retrans and dup_acks deltas; the sum of instantaneous throughput; and
# the largest pipe-full count, at least 0.
EMPTY_WINDOW = (0.0,) * 14
_STD = list(STD_CHANNELS)
_FOLD_EVERY = 16        # snapshots a FrameBuffer holds before folding them


def fold_window(sums: tuple, snapshots, prev) -> tuple:
    """The running sums ``sums`` of one window with ``snapshots`` added.

    ``snapshots`` are the window's next snapshots in order, and ``prev``
    the snapshot before them (None for a test's first).  Each value is
    added one at a time in snapshot order, in float64: a difference of
    floats, ``8.0 * dA / dT``, ``rtt / 1000.0`` and a square by
    multiplying.  Folding a window in several calls gives the sums of one
    call.
    """
    (n, n_d, cwnd_s, cwnd_q, bif_s, bif_q, rtt_s, rtt_q,
     retrans_s, retrans_q, dup_s, dup_q, tput_s, pipe) = sums
    has_prev = prev is not None
    if has_prev:
        t0, acked0, retrans0, dup0 = float(prev[0]), float(prev[1]), float(prev[5]), float(prev[6])
    for t, acked, cwnd, bif, rtt, retrans, dup_acks, pipe_full in snapshots:
        t, acked, retrans, dup_acks = float(t), float(acked), float(retrans), float(dup_acks)
        v = float(cwnd)
        cwnd_s += v
        cwnd_q += v * v
        v = float(bif)
        bif_s += v
        bif_q += v * v
        v = float(rtt) / 1000.0
        rtt_s += v
        rtt_q += v * v
        n += 1.0
        v = float(pipe_full)
        if v > pipe:
            pipe = v
        if has_prev:
            v = retrans - retrans0
            retrans_s += v
            retrans_q += v * v
            v = dup_acks - dup0
            dup_s += v
            dup_q += v * v
            tput_s += 8.0 * (acked - acked0) / (t - t0)
            n_d += 1.0
        has_prev = True
        t0, acked0, retrans0, dup0 = t, acked, retrans, dup_acks
    return (n, n_d, cwnd_s, cwnd_q, bif_s, bif_q, rtt_s, rtt_q,
            retrans_s, retrans_q, dup_s, dup_q, tput_s, pipe)


def window_frame(sums: tuple, last) -> tuple:
    """The frame, in channel order, of a window that holds a snapshot, from
    its running sums and its last snapshot ``last``: means over
    ``max(count, 1.0)`` and stds ``sqrt(max(squares / count - mean**2,
    0.0))``."""
    (n, n_d, cwnd_s, cwnd_q, bif_s, bif_q, rtt_s, rtt_q,
     retrans_s, retrans_q, dup_s, dup_q, tput_s, pipe) = sums
    n_d = max(n_d, 1.0)
    cwnd, bif, rtt = cwnd_s / n, bif_s / n, rtt_s / n
    retrans, dup = retrans_s / n_d, dup_s / n_d
    sqrt = math.sqrt
    t, acked = last[0], last[1]
    return (tput_s / n_d, 8.0 * float(acked) / float(t) if t > 0 else 0.0, pipe,
            cwnd, sqrt(max(cwnd_q / n - cwnd * cwnd, 0.0)),
            bif, sqrt(max(bif_q / n - bif * bif, 0.0)),
            rtt, sqrt(max(rtt_q / n - rtt * rtt, 0.0)),
            retrans, sqrt(max(retrans_q / n_d - retrans * retrans, 0.0)),
            dup, sqrt(max(dup_q / n_d - dup * dup, 0.0)))


class FrameBuffer:
    """The frames of a test's first ``n`` windows, built as its snapshots
    arrive in time order, for a live session and ``resample`` alike.
    Windows ``[0, filled)`` hold frames; window ``filled`` is open: its
    running sums, and at most 16 held snapshots not yet folded in."""

    def __init__(self, n: int):
        self.frames = np.empty((n, N_FEATURES))
        self.filled = 0
        self._sums = EMPTY_WINDOW
        self._held = []             # held, not yet in the sums
        self._prev = None           # last snapshot in the sums

    def place(self, w: int) -> None:
        """Open window w > filled: zero frames before the first snapshot, else close(w)."""
        if self._prev is None and not self._held:
            self.frames[:w] = 0.0
            self.filled = w
        else:
            self.close(w)

    def hold(self, snapshot) -> None:
        """Hold the open window's next snapshot, folding every 16."""
        held = self._held
        held.append(snapshot)
        if len(held) == _FOLD_EVERY:
            self._fold()

    def close(self, w: int) -> None:
        """Write the open window's frame, carry it forward over the empty
        windows before window w with the std channels zeroed, and open w."""
        self._fold()
        frames, k = self.frames, self.filled
        frames[k] = window_frame(self._sums, self._prev)
        if w > k + 1:
            frames[k + 1:w] = frames[k]
            frames[k + 1:w, _STD] = 0.0
        self.filled, self._sums = w, EMPTY_WINDOW

    def _fold(self) -> None:
        held = self._held
        if held:
            self._sums = fold_window(self._sums, held, self._prev)
            self._prev = held[-1]
            held.clear()


def resample(trace: Trace) -> np.ndarray:
    """Resample a trace to WINDOW_MS windows of per-channel statistics: a
    read-only (n_windows, N_FEATURES) float64 array of frames.

    Statistics cover snapshots whose t_us falls in [w*W, (w+1)*W); the
    final snapshot of the trace, when it lands exactly on the trailing
    boundary, folds into the last window so a 10 s trace yields exactly
    100 frames.  Windows without snapshots carry the previous frame
    forward with zeroed std channels; windows before the first snapshot
    stay zero: a FrameBuffer builds them, as it does a live session's.
    """
    win_us = WINDOW_MS * 1000
    n_windows = math.ceil(trace.t_us[-1] / win_us)
    w_of = np.minimum(trace.t_us // win_us, n_windows - 1).tolist()
    rows = zip(*[getattr(trace, name).tolist() for name in SNAPSHOT_FIELDS])
    buf = FrameBuffer(n_windows)
    for w, row in zip(w_of, rows):
        if w > buf.filled:
            buf.place(w)
        buf.hold(row)
    buf.close(n_windows)
    buf.frames.setflags(write=False)
    return buf.frames


def stride_times(duration_ms: float) -> list[int]:
    """Decision-stride boundaries in (0, duration_ms], ms."""
    return list(range(STRIDE_MS, int(duration_ms) + 1, STRIDE_MS))


def _window_end(frames: np.ndarray, t_ms: int) -> int:
    """Number of whole windows up to t_ms; t_ms must be a window boundary
    of the frames past their start."""
    if t_ms < WINDOW_MS:
        raise ValueError(f"t_ms must be >= {WINDOW_MS}, got {t_ms}")
    if t_ms % WINDOW_MS != 0:
        raise ValueError(f"t_ms must be a multiple of {WINDOW_MS}, got {t_ms}")
    end = t_ms // WINDOW_MS
    if end > len(frames):
        raise ValueError(f"t_ms={t_ms} beyond end of series ({len(frames)} windows)")
    return end


def regressor_input(frames: np.ndarray, t_ms: int) -> np.ndarray:
    """Most recent 2 s of frames ending at t_ms, then t_ms: shape (261,).

    When fewer than 20 windows exist, the missing leading slots repeat
    the earliest frame.
    """
    end = _window_end(frames, t_ms)
    start = end - REGRESSOR_WINDOWS
    features = np.empty(REGRESSOR_ARITY)
    if start < 0:
        rows = features[:-1].reshape(REGRESSOR_WINDOWS, N_FEATURES)
        rows[:-start] = frames[0]
        rows[-start:] = frames[:end]
    else:
        features[:-1] = frames[start:end].ravel()
    features[-1] = t_ms
    return features


def classifier_input(frames: np.ndarray, t_ms: int) -> np.ndarray:
    """Frames up to t_ms, zero-filled to 100 windows, then t_ms: shape (1301,)."""
    end = min(_window_end(frames, t_ms), CLASSIFIER_WINDOWS)
    features = np.zeros(CLASSIFIER_ARITY)
    features[:end * N_FEATURES] = frames[:end].ravel()
    features[-1] = t_ms
    return features


# ---------------------------------------------------------------------------
# Corpus handling


class Corpus:
    """A directory of trace files plus an index.  A trace's summary comes
    from the trace alone: computed at its first decode, or handed in by
    write_corpus, which computed it from the trace it wrote."""

    def __init__(self, root: str, entries: list[tuple[str, str]],
                 summaries: dict[str, TraceSummary] | None = None):
        self.root = root
        self.entries = entries          # (filename, trace id), index order
        self.ids = [tid for _, tid in entries]
        self._file_of = {tid: fn for fn, tid in entries}
        self._summaries = summaries or {}

    def __len__(self) -> int:
        return len(self.entries)

    def load(self, trace_id: str) -> Trace:
        path = os.path.join(self.root, self._file_of[trace_id])
        trace = parse_trace(path, default_id=trace_id)
        if trace.id != trace_id:
            raise ValidationError(
                f"{path}: header id {trace.id!r} is not the index id {trace_id!r}")
        if trace_id not in self._summaries:
            self._summaries[trace_id] = trace.summarize()
        return trace

    def traces(self):
        for tid in self.ids:
            yield self.load(tid)

    def summary(self, trace_id: str) -> TraceSummary:
        if trace_id not in self._summaries:
            self.load(trace_id)     # records the summary
        return self._summaries[trace_id]


def read_corpus(root: str) -> Corpus:
    """The corpus that root's index.csv lists; a header without a column,
    a short row or an id listed twice raises ValueError naming it."""
    index_path = os.path.join(root, "index.csv")
    if not os.path.exists(index_path):
        raise FileNotFoundError(f"no index.csv under {root}")
    entries = []
    listed = set()
    with open(index_path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("file", "id") if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{index_path}: no column {', '.join(missing)}")
        for row in reader:
            where = f"{index_path} line {reader.line_num}"
            if None in row.values():
                raise ValueError(f"{where}: fewer cells than the header")
            if row["id"] in listed:
                raise ValueError(f"{where}: trace id {row['id']!r} is listed twice")
            listed.add(row["id"])
            entries.append((row["file"], row["id"]))
    if not entries:
        raise ValueError(f"{index_path}: lists no trace")
    return Corpus(root, entries)


def write_corpus(root: str, traces_and_presets) -> Corpus:
    """Write traces plus index.csv and manifest.csv under root.

    ``traces_and_presets`` yields (Trace, preset_name) pairs.  Files go to a hidden
    directory under root, then into root (index.csv last): a failure leaves root as it was.
    """
    os.makedirs(root, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".partial-", dir=root)
    entries, summaries, manifest = [], {}, []
    try:
        for trace, preset in traces_and_presets:
            filename = f"{trace.id}.jsonl"
            # the id names a file in root: one printable path component of <= 255 bytes
            if (not filename.isprintable() or os.path.basename(filename) != filename
                    or len(filename.encode()) > 255):
                raise ValidationError(f"trace id {trace.id!r} cannot name a corpus file")
            if trace.id in summaries:
                raise ValidationError(f"duplicate trace id {trace.id!r}")
            with open(os.path.join(staging, filename), "wb") as fh:
                fh.write(dump_trace(trace))
            entries.append((filename, trace.id))
            s = summaries[trace.id] = trace.summarize()
            manifest.append([s.id, repr(s.y_true_mbps), s.total_bytes, repr(s.min_rtt_ms),
                             s.speed_tier, s.rtt_bin, preset, repr(s.duration_ms)])
        for name, header, rows in (("index.csv", ("file", "id"), entries),
                                   ("manifest.csv", MANIFEST_COLUMNS, manifest)):
            with open(os.path.join(staging, name), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        for name in [fn for fn, _ in entries] + ["manifest.csv", "index.csv"]:
            os.replace(os.path.join(staging, name), os.path.join(root, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return Corpus(root, entries, summaries)
