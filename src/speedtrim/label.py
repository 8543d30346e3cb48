"""Sliding-window datasets and oracle stop-time labeling.

Stage-1 samples pair a 2 s regressor view at each decision stride with
the trace's final throughput.  The oracle stop time t* is the earliest
stride where the trained regressor's relative error falls within the
operator tolerance; Stage-2 labels are 1 at and after t*, 0 before.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import rel_error
from .gbdt import GbdtModel
from .traceio import (
    CLASSIFIER_ARITY,
    REGRESSOR_ARITY,
    STRIDE_MS,
    Corpus,
    WindowSeries,
    classifier_input,
    regressor_input,
    resample,
    stride_times,
)

EPSILON_SWEEP = (5, 10, 15, 20, 25, 30, 35)


@dataclass(frozen=True)
class OracleLabeling:
    """Per-trace labeling: t* and the binary label per stride."""

    trace_id: str
    t_star_ms: int | None
    stride_ms: int
    labels: np.ndarray          # one entry per stride, step function


def build_regression_dataset(corpus: Corpus, stride_ms: int = STRIDE_MS):
    """One (features, y_true) sample per (trace, stride).

    Returns (X, y, meta) with meta a list of (trace_id, t_ms).
    """
    rows, targets, meta = [], [], []
    for trace in corpus.traces():
        summary = corpus.summary(trace.id)
        ws = resample(trace)
        times = stride_times(ws.duration_ms, stride_ms)
        if not times:
            warnings.warn(f"trace {trace.id!r} shorter than one stride, skipped")
            continue
        for t_ms in times:
            rows.append(regressor_input(ws, t_ms).features)
            targets.append(summary.y_true_mbps)
            meta.append((trace.id, t_ms))
    if not rows:
        raise ValueError("corpus produced no samples")
    X = np.vstack(rows)
    assert X.shape[1] == REGRESSOR_ARITY
    return X, np.asarray(targets), meta


def stride_predictions(ws: WindowSeries, regressor: GbdtModel,
                       stride_ms: int = STRIDE_MS) -> tuple[list[int], np.ndarray]:
    """Regressor prediction at every decision stride of one series."""
    times = stride_times(ws.duration_ms, stride_ms)
    if not times:
        return [], np.zeros(0)
    X = np.vstack([regressor_input(ws, t).features for t in times])
    return times, regressor.predict(X)


def oracle_stop_time(trace, regressor: GbdtModel, epsilon_pct: float,
                     y_true: float | None = None,
                     stride_ms: int = STRIDE_MS) -> int | None:
    """Earliest stride where the regressor's relative error is within eps."""
    ws = trace if isinstance(trace, WindowSeries) else resample(trace)
    if y_true is None:
        y_true = float(ws.frames[-1, 1])
    times, preds = stride_predictions(ws, regressor, stride_ms)
    tol = epsilon_pct / 100.0
    for t_ms, pred in zip(times, preds):
        if rel_error(y_true, float(pred)) <= tol:
            return t_ms
    return None


def oracle_labeling(trace_id: str, ws: WindowSeries, regressor: GbdtModel,
                    epsilon_pct: float, y_true: float,
                    stride_ms: int = STRIDE_MS) -> OracleLabeling:
    times, preds = stride_predictions(ws, regressor, stride_ms)
    tol = epsilon_pct / 100.0
    errors = np.array([rel_error(y_true, float(p)) for p in preds])
    qualifying = np.flatnonzero(errors <= tol)
    t_star = int(times[qualifying[0]]) if len(qualifying) else None
    labels = np.zeros(len(times), dtype=np.int8)
    if t_star is not None:
        labels[qualifying[0]:] = 1
    return OracleLabeling(trace_id, t_star, stride_ms, labels)


def build_classification_dataset(corpus: Corpus, regressor: GbdtModel,
                                 epsilon_pct: float, stride_ms: int = STRIDE_MS):
    """Labeled (classifier_input, stop/continue) samples for one epsilon.

    Returns (X, labels, meta) with meta a list of (trace_id, t_ms);
    traces whose t* never arrives contribute all-negative samples.
    """
    rows, labels, meta = [], [], []
    for trace in corpus.traces():
        summary = corpus.summary(trace.id)
        ws = resample(trace)
        lab = oracle_labeling(trace.id, ws, regressor, epsilon_pct,
                              summary.y_true_mbps, stride_ms)
        times = stride_times(ws.duration_ms, stride_ms)
        for t_ms, y in zip(times, lab.labels):
            rows.append(classifier_input(ws, t_ms).features)
            labels.append(int(y))
            meta.append((trace.id, t_ms))
    if not rows:
        raise ValueError("corpus produced no samples")
    X = np.vstack(rows)
    assert X.shape[1] == CLASSIFIER_ARITY
    return X, np.asarray(labels, dtype=np.float64), meta
