"""Online termination pipeline: one session per test.

A session builds its 100 ms frames as snapshots arrive, in place in one
fixed frame buffer that holds a whole capped test.  A snapshot in a later
window than the open one closes the open window: its frame is written,
and any empty windows up to the snapshot's carry it forward with the std
channels zeroed.  The open window's snapshots are folded into its running
sums with ``traceio.fold_window`` when it closes and whenever 16 are
held, so a session holds few snapshots whatever their rate.  At each
decision stride the frames before the boundary are therefore already
built: the session evaluates the stop classifier (after a variability
guard), and invokes the regressor exactly once when the test stops early.
Replay feeds a recorded trace through the same session.  End of trace is
always a valid stop; the engine never fails a test, late stopping only
costs data.

A feed that judges no stride costs about 1.8 us per snapshot of a natural
10 ms trace (2-core Xeon, best of 15 passes over 8 traces): about 0.4 us
checks the snapshot (``Snapshot.validate``), about 0.9 us folds and writes
its windows, and the rest is the ordering and counter checks.
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
    N_FEATURES,
    REASON_CLASSIFIER,
    REASON_END_OF_TRACE,
    SNAPSHOT_FIELDS,
    STD_CHANNELS,
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
from .traceio import (
    EMPTY_WINDOW,
    STRIDE_MS,
    WINDOW_MS,
    classifier_input,
    fold_window,
    regressor_input,
    window_frame,
)
from .traceio import resample  # noqa: F401  engine.resample stays available to its readers

_CUMULATIVE = [SNAPSHOT_FIELDS.index(name) for name in CUMULATIVE_FIELDS]
# Windows of a test that reaches the MAX_TEST_US cap: a session's frames.
_WINDOW_US = WINDOW_MS * 1000
_MAX_WINDOWS = MAX_TEST_US // _WINDOW_US
# Snapshots of the open window a session holds before folding them into
# its running sums.
_FOLD_EVERY = 16
_STD = list(STD_CHANNELS)


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
        self._frames = np.empty((_MAX_WINDOWS, N_FEATURES))
        self._filled = 0                    # windows [0, _filled) hold frames
        self._sums = EMPTY_WINDOW           # window _filled's running sums
        self._held: list[Snapshot] = []     # received, not yet in the sums
        self._prev: Snapshot | None = None  # last snapshot in the sums
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
        if last is None:
            self._frames[:w] = 0.0          # no snapshot before: zero frames
            self._filled = w
        elif w > self._filled:
            self._close(w)
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
        held = self._held
        held.append(snapshot)
        if len(held) == _FOLD_EVERY:
            self._fold()
        if last is not None and self._second_us is None:
            self._second_us = t_us
        self._last = snapshot
        return CONTINUE

    def _fold(self) -> None:
        held = self._held
        if held:
            self._sums = fold_window(self._sums, held, self._prev)
            self._prev = held[-1]
            held.clear()

    def _close(self, w: int) -> None:
        """Write the open window's frame, carry it forward over the empty
        windows before window w, and open window w."""
        self._fold()
        buf, k = self._frames, self._filled
        buf[k] = window_frame(self._sums, self._prev)
        if w > k + 1:
            carried = buf[k].copy()
            carried[_STD] = 0.0
            buf[k + 1:w] = carried
        self._filled, self._sums = w, EMPTY_WINDOW

    def _evaluate_stride(self, t_ms: int) -> StopDecision:
        # the snapshot past the boundary closed every window before it; a
        # stride is judged once two snapshots lie strictly before it
        second = self._second_us
        if second is None or second >= t_ms * 1000:
            return CONTINUE
        frames = self._frames[:t_ms // WINDOW_MS]
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
                regressor_input(self._frames[:self._filled], self._stop_ms)))
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
