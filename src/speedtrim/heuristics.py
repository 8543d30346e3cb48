"""Baseline stopping rules: static byte cap, BBR pipe-full, TSH, CIS.

All rules except the static cap operate on the frames ``resample`` gives
and fire at the fixed 500 ms decision strides.  When a rule never fires,
the test runs to completion and its estimate is the full-run cumulative
average, i.e. exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import F_CUM_AVG, F_PIPE_FULL, F_TPUT, WINDOW_MS, Trace
from .traceio import stride_times

# Trailing window over which TSH requires throughput to stay within tolerance.
TSH_WINDOW_MS = 1000
# Fraction of samples the CIS crucial interval must cover.
CIS_COVERAGE = 0.8


@dataclass(frozen=True)
class HeuristicResult:
    # when no early stop fired: the end of the last window for a frame rule,
    # the last snapshot's time for the static cap
    stop_time_ms: float
    estimate_mbps: float
    stopped_early: bool


def _full_run(frames: np.ndarray) -> HeuristicResult:
    return HeuristicResult(len(frames) * WINDOW_MS, float(frames[-1, F_CUM_AVG]), False)


def _cum_avg_at(frames: np.ndarray, t_ms: int) -> float:
    return float(frames[t_ms // WINDOW_MS - 1, F_CUM_AVG])


def stop_static(trace: Trace, cap_bytes: int) -> HeuristicResult:
    """Stop at the first snapshot delivering at least cap_bytes."""
    cap_bytes = _cap_bytes(cap_bytes)
    t_last = int(trace.t_us[-1])
    # require t > 0 so the cumulative average at the stop is well defined
    hits = np.flatnonzero((trace.bytes_acked >= cap_bytes) & (trace.t_us > 0))
    if len(hits) == 0:
        return HeuristicResult(t_last / 1000.0, 8.0 * int(trace.bytes_acked[-1]) / t_last, False)
    i = int(hits[0])
    t_us = int(trace.t_us[i])
    return HeuristicResult(t_us / 1000.0, 8.0 * int(trace.bytes_acked[i]) / t_us, t_us < t_last)


def stop_bbr(frames: np.ndarray, k: int) -> HeuristicResult:
    """Stop at the first stride with at least k cumulative pipe-full events."""
    k = _k(k)
    pf = frames[:, F_PIPE_FULL]
    for t_ms in stride_times(len(frames) * WINDOW_MS):
        end = t_ms // WINDOW_MS
        if pf[:end].max() >= k and end < len(frames):
            return HeuristicResult(t_ms, _cum_avg_at(frames, t_ms), True)
    return _full_run(frames)


def stop_tsh(frames: np.ndarray, tol_pct: float) -> HeuristicResult:
    """Stop once instantaneous throughput stays within tol of its running
    average for the trailing TSH_WINDOW_MS."""
    tol_pct = _tol_pct(tol_pct)
    need = TSH_WINDOW_MS // WINDOW_MS
    inst = frames[:, F_TPUT]
    avg = frames[:, F_CUM_AVG]
    tol = tol_pct / 100.0
    for t_ms in stride_times(len(frames) * WINDOW_MS):
        end = t_ms // WINDOW_MS
        if end < need:
            continue
        lo = end - need
        window_avg = avg[lo:end]
        if np.any(window_avg <= 0):
            continue
        dev = np.abs(inst[lo:end] - window_avg) / window_avg
        if np.all(dev <= tol) and end < len(frames):
            return HeuristicResult(t_ms, _cum_avg_at(frames, t_ms), True)
    return _full_run(frames)


def crucial_interval(samples: np.ndarray, coverage: float = CIS_COVERAGE) -> tuple[float, float]:
    """Shortest interval containing at least `coverage` of the samples."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    w = max(1, int(np.ceil(coverage * n)))
    if w >= n:
        return float(s[0]), float(s[-1])
    spans = s[w - 1:] - s[: n - w + 1]
    i = int(np.argmin(spans))
    return float(s[i]), float(s[i + w - 1])


def interval_similarity(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Jaccard similarity of two closed intervals; 1.0 when both degenerate."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    inter = max(0.0, hi - lo)
    union = max(a[1], b[1]) - min(a[0], b[0])
    if union <= 0.0:
        # both intervals degenerate to the same point
        return 1.0
    return inter / union


def stop_cis(frames: np.ndarray, beta: float) -> HeuristicResult:
    """Stop once consecutive crucial intervals are at least beta-similar.

    The reported estimate is the interval midpoint (the CIS-style
    aggregate).
    """
    beta = _beta(beta)
    inst = frames[:, F_TPUT]
    prev_interval = None
    for t_ms in stride_times(len(frames) * WINDOW_MS):
        end = t_ms // WINDOW_MS
        interval = crucial_interval(inst[:end])
        if prev_interval is not None and end < len(frames):
            if interval_similarity(prev_interval, interval) >= beta:
                return HeuristicResult(t_ms, 0.5 * (interval[0] + interval[1]), True)
        prev_interval = interval
    return _full_run(frames)


def parse_size(text) -> int:
    """Parse sizes like 250MB, 1GB, 512KB, 1000B, or plain byte counts; a
    number is taken as a byte count."""
    if not isinstance(text, str):
        return int(text)
    text = text.strip().upper()
    units = {"GB": 10 ** 9, "MB": 10 ** 6, "KB": 10 ** 3, "B": 1}
    for suffix, mult in units.items():
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * mult)
    return int(text)


def _parameter(key: str, convert, valid, rule: str):
    """The parser of a baseline parameter: ``convert`` turns a CLI value
    (text) or a library value (a number) into it, and ``valid`` holds its
    range; any other value is a ValueError naming the range."""
    def parse(value):
        try:
            parsed = convert(value)
            ok = valid(parsed)
        except (ValueError, OverflowError):     # int() of NaN, of inf
            ok = False
        if not ok:
            raise ValueError(f"{key} must be {rule}, got {value!r}")
        return parsed
    return parse


_cap_bytes = _parameter("cap_bytes", parse_size, lambda cap: cap > 0, "a finite size > 0 bytes")
_k = _parameter("k", int, lambda k: k >= 1, "an integer >= 1")
_tol_pct = _parameter("tol_pct", float, lambda tol: 0.0 < tol < math.inf, "a finite number > 0")
_beta = _parameter("beta", float, lambda beta: 0.0 < beta <= 1.0, "in (0, 1]")

# Each baseline's one parameter: the keyword its stop rule takes and its
# parser, which every stop rule also applies to its argument.
BASELINE_PARAMS = {
    "static": ("cap_bytes", _cap_bytes),
    "bbr": ("k", _k),
    "tsh": ("tol_pct", _tol_pct),
    "cis": ("beta", _beta),
}


def run_heuristic(name: str, trace: Trace, frames: np.ndarray, value) -> HeuristicResult:
    """Run one baseline with its parameter value, parsed by BASELINE_PARAMS."""
    if name == "static":
        return stop_static(trace, value)
    if name == "bbr":
        return stop_bbr(frames, value)
    if name == "tsh":
        return stop_tsh(frames, value)
    if name == "cis":
        return stop_cis(frames, value)
    raise ValueError(f"unknown heuristic {name!r}")
