"""Sliding-window datasets and oracle stop-time labeling.

Stage-1 samples pair a 2 s regressor view at each decision stride with
the trace's final throughput.  One labeling pass per trace gives the
trained regressor's relative error at every stride; for any operator
tolerance, the oracle stop time t* is the earliest stride where that
error falls within it, and Stage-2 labels are 1 at and after t*, 0 before.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gbdt import GbdtModel
from .traceio import (
    CLASSIFIER_ARITY,
    REGRESSOR_ARITY,
    WINDOW_MS,
    Corpus,
    classifier_input,
    regressor_input,
    resample,
    stride_times,
)

EPSILON_SWEEP = (5, 10, 15, 20, 25, 30, 35)


@dataclass(frozen=True)
class OracleLabeling:
    """One trace's regressor errors per decision stride; t* and the labels
    for any tolerance derive from them."""

    stride_times: list[int]
    errors: np.ndarray          # |y_true - prediction| / y_true, one per stride

    def labels(self, epsilon_pct: float) -> np.ndarray:
        """0 before t*, 1 at and after it; all 0 when t* never arrives."""
        return np.logical_or.accumulate(self.errors <= epsilon_pct / 100.0).astype(np.int8)

    def t_star_ms(self, epsilon_pct: float) -> int | None:
        """Earliest stride where the error is within epsilon_pct percent."""
        hit = np.flatnonzero(self.errors <= epsilon_pct / 100.0)
        return self.stride_times[hit[0]] if len(hit) else None


def build_regression_dataset(corpus: Corpus):
    """One (features, y_true) sample per (trace, stride).

    Returns (X, y, meta) with meta a list of (trace_id, t_ms).
    """
    rows, targets, meta = [], [], []
    for trace in corpus.traces():
        summary = corpus.summary(trace.id)
        frames = resample(trace)
        times = stride_times(len(frames) * WINDOW_MS)
        if not times:
            warnings.warn(f"trace {trace.id!r} shorter than one stride, skipped")
            continue
        for t_ms in times:
            rows.append(regressor_input(frames, t_ms))
            targets.append(summary.y_true_mbps)
            meta.append((trace.id, t_ms))
    if not rows:
        raise ValueError("corpus produced no samples")
    X = np.vstack(rows)
    assert X.shape[1] == REGRESSOR_ARITY
    return X, np.asarray(targets), meta


def oracle_labeling(frames: np.ndarray, regressor: GbdtModel, y_true: float) -> OracleLabeling:
    """The regressor's relative error at every decision stride of one trace's
    frames, from one batched prediction."""
    if y_true <= 0:
        raise ValueError(f"true throughput must be positive, got {y_true}")
    times = stride_times(len(frames) * WINDOW_MS)
    if not times:
        return OracleLabeling(times, np.zeros(0))
    preds = regressor.predict(np.vstack([regressor_input(frames, t) for t in times]))
    # the arithmetic of core.rel_error, elementwise in float64
    return OracleLabeling(times, np.abs(y_true - preds) / y_true)


def build_classification_dataset(corpus: Corpus, regressor: GbdtModel, epsilons):
    """Labeled (classifier_input, stop/continue) samples for every epsilon.

    Returns (X, labels, meta): one feature row and one label column per
    epsilon for each (trace, stride), and meta a list of (trace_id, t_ms).
    Traces whose t* never arrives contribute all-negative samples.
    """
    rows, labels, meta = [], [], []
    for trace in corpus.traces():
        frames = resample(trace)
        lab = oracle_labeling(frames, regressor, corpus.summary(trace.id).y_true_mbps)
        rows += [classifier_input(frames, t_ms) for t_ms in lab.stride_times]
        meta += [(trace.id, t_ms) for t_ms in lab.stride_times]
        labels.append(np.column_stack([lab.labels(eps) for eps in epsilons]))
    if not rows:
        raise ValueError("corpus produced no samples")
    X = np.vstack(rows)
    assert X.shape[1] == CLASSIFIER_ARITY
    return X, np.vstack(labels).astype(np.float64), meta
