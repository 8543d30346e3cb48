"""Online termination pipeline: one session per test.

A session builds its 100 ms frames as snapshots arrive, in one
``traceio.FrameBuffer`` that holds a whole capped test; ``resample`` fills
the same kind of buffer from a whole trace.  A snapshot in a later window
than the open one closes the open window, and any empty windows up to the
snapshot carry its frame forward with the std channels zeroed.  At each
decision stride the frames before the boundary are therefore already
built: the session evaluates the stop classifier (after a variability
guard), and invokes the regressor exactly once when the test stops early.
Replay feeds a recorded trace through the same session.  End of trace is
always a valid stop; the engine never fails a test, late stopping only
costs data.

A feed that judges no stride costs about 2.3 us per snapshot of a natural
10 ms trace (2-core Xeon, median of 30 rounds over 8 traces).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    CONTINUE,
    CUMULATIVE_FIELDS,
    F_TPUT,
    GUARD_V_MAX,
    GUARD_WINDOW_MS,
    MAX_TEST_US,
    REASON_CLASSIFIER,
    REASON_END_OF_TRACE,
    SNAPSHOT_FIELDS,
    STOP_THRESHOLD,
    Snapshot,
    StopDecision,
    TerminationOutcome,
    Trace,
    ValidationError,
    rel_error,
)
from .gbdt import GbdtModel
from .mlp import MlpModel
from .traceio import STRIDE_MS, WINDOW_MS, FrameBuffer, classifier_input, regressor_input
from .traceio import resample  # noqa: F401  engine.resample stays available to its readers

_CUMULATIVE = [SNAPSHOT_FIELDS.index(name) for name in CUMULATIVE_FIELDS]
# Windows of a test that reaches the MAX_TEST_US cap: a session's frames.
_WINDOW_US = WINDOW_MS * 1000
_MAX_WINDOWS = MAX_TEST_US // _WINDOW_US


@dataclass(frozen=True)
class Policy:
    regressor: GbdtModel
    classifier: MlpModel
    epsilon_pct: float


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """float(values.mean()) and float(values.std()) of a non-empty 1-D
    array, through the reductions they run but without their wrappers."""
    n = len(values)
    mean = float(np.add.reduce(values) / n)
    dev = values - mean
    return mean, math.sqrt(np.add.reduce(dev * dev) / n)


def variability_guard(frames: np.ndarray, t_ms: int) -> bool:
    """True when stopping is allowed at t_ms; False suppresses the stop while
    the coefficient of variation of instantaneous throughput over the
    trailing GUARD_WINDOW_MS exceeds GUARD_V_MAX."""
    end = t_ms // WINDOW_MS
    lo = max(0, end - GUARD_WINDOW_MS // WINDOW_MS)
    window = frames[lo:end, F_TPUT]
    if len(window) == 0:
        return True
    mean, std = _mean_std(window)
    if std == 0.0:
        return True
    if mean <= 0.0:
        return False
    return std / mean <= GUARD_V_MAX


class SessionError(RuntimeError):
    pass


class Session:
    """Sequential per-test state machine driven by snapshots."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self._buf = FrameBuffer(_MAX_WINDOWS)
        self._last: Snapshot | None = None  # last snapshot received
        self._second_us: int | None = None  # t_us of the second snapshot received
        self._next_stride_ms = STRIDE_MS
        self._terminal: StopDecision | None = None
        self._finalized = False
        self._stop_ms: int | None = None
        self.classifier_latency_s: list[float] = []
        self.regressor_latency_s: float | None = None

    @property
    def terminal(self) -> bool:
        return self._terminal is not None

    def feed(self, snapshot: Snapshot) -> StopDecision:
        if self._terminal is not None:
            raise SessionError("feed after stop")
        snapshot.validate()
        t_us = snapshot[0]
        last = self._last
        if last is not None:
            if t_us <= last[0]:
                raise SessionError(f"out-of-order snapshot: t_us={t_us} after {last[0]}")
            # the counters of _CUMULATIVE, tested at once; the loop names the first
            if (snapshot[1] < last[1] or snapshot[5] < last[5] or snapshot[6] < last[6]
                    or snapshot[7] < last[7]):
                for k in _CUMULATIVE:
                    if snapshot[k] < last[k]:
                        raise ValidationError(f"{SNAPSHOT_FIELDS[k]} decreases at t_us={t_us}")
        if t_us > MAX_TEST_US:
            raise ValidationError(f"t_us {t_us} exceeds the test-length cap "
                                  f"of {MAX_TEST_US} us")
        w = int(t_us) // _WINDOW_US
        buf = self._buf
        if w > buf.filled:
            buf.place(w)
        # strict inequality: a stride is judged at the first snapshot past
        # its boundary, so the final stride of a trace is never an early stop
        while self._next_stride_ms * 1000 < t_us:
            t_ms = self._next_stride_ms
            self._next_stride_ms += STRIDE_MS
            decision = self._evaluate_stride(t_ms)
            if decision.stopping:
                self._terminal = decision
                self._stop_ms = t_ms
                return decision
        buf.hold(snapshot)
        if last is not None and self._second_us is None:
            self._second_us = t_us
        self._last = snapshot
        return CONTINUE

    def _evaluate_stride(self, t_ms: int) -> StopDecision:
        # the snapshot past the boundary closed every window before it; a
        # stride is judged once two snapshots lie strictly before it
        second = self._second_us
        if second is None or second >= t_ms * 1000:
            return CONTINUE
        frames = self._buf.frames[:t_ms // WINDOW_MS]
        if not variability_guard(frames, t_ms):
            return CONTINUE
        t0 = time.perf_counter()
        p = self.policy.classifier.predict_proba(classifier_input(frames, t_ms))
        self.classifier_latency_s.append(time.perf_counter() - t0)
        if p >= STOP_THRESHOLD:
            return StopDecision(REASON_CLASSIFIER)
        return CONTINUE

    def end_of_trace(self) -> StopDecision:
        """Declare the stream complete; stopping here is always valid."""
        if self.terminal:
            return self._terminal
        if self._second_us is None:
            n = int(self._last is not None)
            raise ValidationError(f"a test needs >= 2 snapshots, got {n}")
        if self._last.bytes_acked <= 0:
            raise ValidationError(f"no bytes acked by the last snapshot (t_us={self._last.t_us})")
        self._terminal = StopDecision(REASON_END_OF_TRACE)
        return self._terminal

    def finalize(self, y_true_mbps: float | None = None) -> TerminationOutcome:
        """Produce the session outcome; callable once, after termination."""
        if not self.terminal:
            raise SessionError("finalize before terminal state")
        if self._finalized:
            raise SessionError("finalize called twice")
        self._finalized = True
        early = self._terminal.reason == REASON_CLASSIFIER
        t_last, bytes_last = int(self._last.t_us), int(self._last.bytes_acked)
        if early:
            # the snapshot that triggered the stop lies past the boundary,
            # so the last one received is the last at or before it
            t0 = time.perf_counter()
            estimate = float(self.policy.regressor.predict(
                regressor_input(self._buf.frames[:self._buf.filled], self._stop_ms)))
            self.regressor_latency_s = time.perf_counter() - t0
            stop_ms = float(self._stop_ms)
            err = rel_error(y_true_mbps, estimate) if y_true_mbps is not None else None
        else:
            # ran to completion: report the full-run aggregate, error zero
            stop_ms, estimate, err = t_last / 1000.0, 8.0 * bytes_last / t_last, 0.0
        return TerminationOutcome(
            stop_time_ms=stop_ms,
            bytes_at_stop=bytes_last,
            estimate_mbps=estimate,
            rel_error=err,
            ran_to_completion=not early,
            reason=self._terminal.reason,
        )


def run_trace(trace: Trace, policy: Policy,
              y_true_mbps: float | None = None) -> TerminationOutcome:
    """Replay a recorded trace through a policy: feed its snapshots to a
    Session one at a time, as a live test would."""
    if y_true_mbps is None:
        y_true_mbps = trace.summarize().y_true_mbps
    session = Session(policy)
    columns = [getattr(trace, name).tolist() for name in SNAPSHOT_FIELDS]
    for row in zip(*columns):
        if session.feed(Snapshot(*row)).stopping:
            break
    else:
        session.end_of_trace()
    return session.finalize(y_true_mbps)
