"""Online termination pipeline: one session per test.

A session buffers raw snapshots, evaluates the stop classifier at each
decision stride (after a variability guard), and invokes the regressor
exactly once when the test stops early.  End of trace is always a valid
stop; the engine never fails a test, late stopping only costs data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CONTINUE,
    F_TPUT,
    REASON_CLASSIFIER,
    REASON_END_OF_TRACE,
    SNAPSHOT_FIELDS,
    STD_CHANNELS,
    Snapshot,
    StopDecision,
    TerminationOutcome,
    Trace,
    Verdict,
    WindowSeries,
    rel_error,
)
from .gbdt import GbdtModel
from .mlp import MlpModel, predict_stop_prob
from .traceio import STRIDE_MS, classifier_input, regressor_input, resample


@dataclass(frozen=True)
class GuardConfig:
    """Variability fallback: suppress stopping while the trailing-window
    coefficient of variation of instantaneous throughput is too high."""

    enabled: bool = True
    v_max: float = 0.8
    window_ms: int = 2000


@dataclass(frozen=True)
class Policy:
    regressor: GbdtModel
    classifier: MlpModel
    epsilon_pct: float
    stride_ms: int = STRIDE_MS
    threshold: float = 0.5
    guard: GuardConfig = field(default_factory=GuardConfig)


def variability_guard(ws: WindowSeries, t_ms: int, guard: GuardConfig) -> bool:
    """True when stopping is allowed at t_ms; False suppresses the stop."""
    if not guard.enabled:
        return True
    end = t_ms // ws.window_ms
    lo = max(0, end - guard.window_ms // ws.window_ms)
    window = ws.frames[lo:end, F_TPUT]
    if len(window) == 0:
        return True
    mean = float(window.mean())
    std = float(window.std())
    if std == 0.0:
        return True
    if mean <= 0.0:
        return False
    return std / mean <= guard.v_max


def _pad_series(ws: WindowSeries, n_target: int) -> WindowSeries:
    """Extend a series to n_target windows by carrying the last frame."""
    if len(ws) >= n_target:
        return ws
    frames = np.zeros((n_target, ws.frames.shape[1]))
    frames[: len(ws)] = ws.frames
    tail = ws.frames[-1].copy()
    tail[list(STD_CHANNELS)] = 0.0
    frames[len(ws):] = tail
    filled = np.ones(n_target, dtype=bool)
    filled[: len(ws)] = ws.filled
    return WindowSeries(window_ms=ws.window_ms, frames=frames, filled=filled)


class SessionError(RuntimeError):
    pass


class Session:
    """Sequential per-test state machine driven by snapshots."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self._cols: dict[str, list[int]] = {name: [] for name in SNAPSHOT_FIELDS}
        self._next_stride_ms = policy.stride_ms
        self._terminal: StopDecision | None = None
        self._finalized = False
        self._stop_ms: int | None = None
        self._stop_series: WindowSeries | None = None
        self._regressor_calls = 0
        self.classifier_latency_s: list[float] = []
        self.regressor_latency_s: float | None = None

    @property
    def terminal(self) -> bool:
        return self._terminal is not None

    def feed(self, snapshot: Snapshot) -> StopDecision:
        if self.terminal:
            raise SessionError("feed after stop")
        snapshot.validate()
        ts = self._cols["t_us"]
        if ts and snapshot.t_us <= ts[-1]:
            raise SessionError(
                f"out-of-order snapshot: t_us={snapshot.t_us} after {ts[-1]}")
        for name in SNAPSHOT_FIELDS:
            self._cols[name].append(getattr(snapshot, name))
        # strict inequality: a stride is judged at the first snapshot past
        # its boundary, so the final stride of a trace is never an early stop
        while self._next_stride_ms * 1000 < snapshot.t_us:
            t_ms = self._next_stride_ms
            self._next_stride_ms += self.policy.stride_ms
            decision = self._evaluate_stride(t_ms)
            if decision.stopping:
                self._terminal = decision
                self._stop_ms = t_ms
                return decision
        return CONTINUE

    def _prefix_series(self, t_ms: int) -> WindowSeries | None:
        upto_us = t_ms * 1000
        n = sum(1 for t in self._cols["t_us"] if t < upto_us)
        if n < 2:
            return None
        cols = {name: np.asarray(vals[:n], dtype=np.int64)
                for name, vals in self._cols.items()}
        trace = Trace("session", upto_us, cols)
        return _pad_series(resample(trace), t_ms // 100)

    def _evaluate_stride(self, t_ms: int, ws: WindowSeries | None = None) -> StopDecision:
        if ws is None:
            ws = self._prefix_series(t_ms)
        if ws is None:
            return CONTINUE
        if not variability_guard(ws, t_ms, self.policy.guard):
            return CONTINUE
        t0 = time.perf_counter()
        p = predict_stop_prob(self.policy.classifier, classifier_input(ws, t_ms))
        self.classifier_latency_s.append(time.perf_counter() - t0)
        if p >= self.policy.threshold:
            self._stop_series = ws
            return StopDecision(Verdict.STOP, REASON_CLASSIFIER)
        return CONTINUE

    def end_of_trace(self) -> StopDecision:
        """Declare the stream complete; stopping here is always valid."""
        if self.terminal:
            return self._terminal
        if not self._cols["t_us"]:
            raise SessionError("end_of_trace before any snapshot")
        self._terminal = StopDecision(Verdict.STOP, REASON_END_OF_TRACE)
        self._stop_ms = int(self._cols["t_us"][-1] // 1000)
        return self._terminal

    def finalize(self, y_true_mbps: float | None = None) -> TerminationOutcome:
        """Produce the session outcome; callable once, after termination."""
        if not self.terminal:
            raise SessionError("finalize before terminal state")
        if self._finalized:
            raise SessionError("finalize called twice")
        self._finalized = True
        t_arr = np.asarray(self._cols["t_us"], dtype=np.int64)
        b_arr = np.asarray(self._cols["bytes_acked"], dtype=np.int64)

        if self._terminal.reason == REASON_CLASSIFIER:
            stop_us = self._stop_ms * 1000
            idx = int(np.searchsorted(t_arr, stop_us, side="right")) - 1
            bytes_at_stop = int(b_arr[idx])
            t0 = time.perf_counter()
            estimate = float(self.policy.regressor.predict(
                regressor_input(self._stop_series, self._stop_ms).features))
            self.regressor_latency_s = time.perf_counter() - t0
            self._regressor_calls += 1
            assert self._regressor_calls <= 1
            err = rel_error(y_true_mbps, estimate) if y_true_mbps is not None else None
            return TerminationOutcome(
                stop_time_ms=float(self._stop_ms),
                bytes_at_stop=bytes_at_stop,
                estimate_mbps=estimate,
                rel_error=err,
                ran_to_completion=False,
                reason=self._terminal.reason,
            )

        # ran to completion: report the full-run aggregate, error zero
        estimate = 8.0 * int(b_arr[-1]) / int(t_arr[-1])
        return TerminationOutcome(
            stop_time_ms=float(t_arr[-1]) / 1000.0,
            bytes_at_stop=int(b_arr[-1]),
            estimate_mbps=estimate,
            rel_error=0.0,
            ran_to_completion=True,
            reason=self._terminal.reason,
        )


def run_trace(trace: Trace, policy: Policy,
              y_true_mbps: float | None = None) -> TerminationOutcome:
    """Replay a recorded trace through a policy.

    Replay resamples once and evaluates strides on prefix views of the
    full series, which is decision-for-decision identical to feeding
    snapshots one at a time (tests compare the two).
    """
    if y_true_mbps is None:
        y_true_mbps = trace.summarize().y_true_mbps
    session = Session(policy)
    for name in SNAPSHOT_FIELDS:
        session._cols[name] = list(getattr(trace, name))
    ws = resample(trace)
    t_last_us = int(trace.t_us[-1])
    t_ms = policy.stride_ms
    while t_ms * 1000 < t_last_us:
        decision = session._evaluate_stride(t_ms, ws)
        if decision.stopping:
            session._terminal = decision
            session._stop_ms = t_ms
            break
        t_ms += policy.stride_ms
    if not session.terminal:
        session.end_of_trace()
    return session.finalize(y_true_mbps)
