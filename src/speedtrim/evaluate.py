"""Corpus-level evaluation: per-test outcomes, Pareto sweeps, adaptive
per-group parameter selection, and tail-percentile analysis.

Accuracy is median relative error; efficiency is cumulative transfer
(sum of early bytes over sum of full-run bytes).  Data savings is one
minus the transfer fraction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Trace, rel_error
from .engine import Policy, run_trace
from .heuristics import BASELINE_PARAMS, run_heuristic
from .traceio import Corpus, resample

STRATEGIES = ("global", "speed-only", "rtt-only", "rtt+speed", "oracle")
DEFAULT_CONSTRAINT_PCT = 20.0


@dataclass(frozen=True)
class Record:
    """Outcome of one (trace, method, parameter) evaluation."""

    trace_id: str
    method: str
    param: str
    stop_ms: float
    bytes_early: int
    bytes_full: int
    estimate_mbps: float
    rel_error: float
    tier: int
    rtt_bin: int
    ran_to_completion: bool

    def __post_init__(self):
        # a record aggregates as it stands or not at all: no NaN, no negative share
        where = f"(trace {self.trace_id!r})"
        if self.bytes_full <= 0:
            raise ValueError(f"bytes_full must be positive, got {self.bytes_full} {where}")
        if not 0 <= self.bytes_early <= self.bytes_full:
            raise ValueError(f"bytes_early must be in [0, bytes_full], got {self.bytes_early} "
                             f"with bytes_full {self.bytes_full} {where}")
        for name in ("stop_ms", "estimate_mbps", "rel_error"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r} {where}")
        for name in ("stop_ms", "rel_error"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r} {where}")


@dataclass(frozen=True)
class FrontierPoint:
    method: str
    param: str
    median_rel_error: float
    transfer_fraction: float
    total_gb: float
    n_records: int


@dataclass(frozen=True)
class GroupPolicy:
    """Per-group chosen parameter (None means no early termination)."""

    strategy: str
    choices: dict


def _bytes_at(trace: Trace, stop_ms: float) -> int:
    idx = int(np.searchsorted(trace.t_us, int(round(stop_ms * 1000.0)), side="right")) - 1
    return int(trace.bytes_acked[max(idx, 0)])


def evaluate_method(corpus: Corpus, method: str, param=None, *,
                    policies: dict | None = None) -> list[Record]:
    """Per-trace termination records for one (method, parameter) setting.

    `method` is full, ml, or a baseline named in `BASELINE_PARAMS`, whose
    parser reads `param` (text or a number); for ml, `policies` maps
    epsilon to an engine Policy.  Full records come from the trace
    summaries alone, each computed at its trace's first decode.
    """
    return _sweep(corpus, method, [param], policies)[param]


def _sweep(corpus: Corpus, method: str, params: list, policies) -> dict:
    """Records per parameter, in corpus order, from one pass over the corpus:
    each trace is decoded, and for a baseline other than the static cap,
    which reads the trace alone, resampled, once for all.  A run to
    completion, of any method, is recorded from the trace's summary."""
    if method in BASELINE_PARAMS:
        key, parse = BASELINE_PARAMS[method]
        values = {p: parse(p) for p in params}
    elif method in ("full", "ml"):
        values = dict.fromkeys(params)
    else:
        raise ValueError(f"unknown method {method!r}")
    records = {p: [] for p in values}
    for tid in corpus.ids:
        trace = None if method == "full" else corpus.load(tid)
        s = corpus.summary(tid)
        frames = resample(trace) if method in BASELINE_PARAMS and method != "static" else None
        completed = (s.duration_ms, s.total_bytes, s.y_true_mbps, 0.0)
        for p, value in values.items():
            # (stop_ms, bytes_early, estimate, rel_error) of an early stop, else None
            if method == "full":
                label, early_stop = "", None
            elif method == "ml":
                out = run_trace(trace, policies[p], y_true_mbps=s.y_true_mbps)
                label = str(p)
                early_stop = None if out.ran_to_completion else (
                    out.stop_time_ms, out.bytes_at_stop, out.estimate_mbps, out.rel_error)
            else:
                res = run_heuristic(method, trace, frames, value)
                label, stop_ms, estimate = f"{key}={value}", res.stop_time_ms, res.estimate_mbps
                early_stop = (stop_ms, _bytes_at(trace, stop_ms), estimate,
                              rel_error(s.y_true_mbps, estimate)) if res.stopped_early else None
            stop_ms, early, estimate, err = early_stop or completed
            records[p].append(Record(tid, method, label, stop_ms, early, s.total_bytes,
                                     estimate, err, s.speed_tier, s.rtt_bin, early_stop is None))
    return records


def aggregates(records: list[Record]) -> dict:
    errors = np.array([r.rel_error for r in records])
    early = sum(r.bytes_early for r in records)
    full = sum(r.bytes_full for r in records)
    fraction = early / full if full else 1.0
    pcts = (50, 75, 90, 95, 99)
    return {
        "n": len(records),
        "median_rel_error": float(np.median(errors)) if len(errors) else 0.0,
        "transfer_fraction": fraction,
        "data_savings": 1.0 - fraction,
        "total_gb_early": early / 1e9,
        "error_percentiles": {
            p: float(np.percentile(errors, p)) for p in pcts
        } if len(errors) else {},
    }


def frontier_point(records: list[Record]) -> FrontierPoint:
    agg = aggregates(records)
    first = records[0]
    return FrontierPoint(first.method, first.param, agg["median_rel_error"],
                         agg["transfer_fraction"], agg["total_gb_early"], agg["n"])


def pareto_sweep(corpus: Corpus, method: str, params: list, *,
                 policies: dict | None = None) -> tuple[list[FrontierPoint], dict]:
    """One frontier point per parameter; returns (points, records_by_param)."""
    if not params:
        raise ValueError("need at least one parameter")
    records_by_param = _sweep(corpus, method, params, policies)
    return [frontier_point(records_by_param[p]) for p in params], records_by_param


def nondominated(points: list[FrontierPoint]) -> list[FrontierPoint]:
    """Points not strictly dominated in (median error, transfer fraction)."""
    out = []
    for p in points:
        dominated = any(
            q.median_rel_error < p.median_rel_error
            and q.transfer_fraction < p.transfer_fraction
            for q in points
        )
        if not dominated:
            out.append(p)
    return out


def group_key(record: Record, strategy: str):
    if strategy == "global":
        return "all"
    if strategy == "speed-only":
        return record.tier
    if strategy == "rtt-only":
        return record.rtt_bin
    if strategy == "rtt+speed":
        return (record.tier, record.rtt_bin)
    if strategy == "oracle":
        return record.trace_id
    raise ValueError(f"unknown strategy {strategy!r}")


def _subset(records: list[Record], ids: set | None) -> list[Record]:
    if ids is None:
        return records
    return [r for r in records if r.trace_id in ids]


def select_adaptive(records_by_param: dict, strategy: str, *,
                    constraint_pct: float = DEFAULT_CONSTRAINT_PCT,
                    selection_ids: set | None = None) -> GroupPolicy:
    """Pick, per group, the most aggressive parameter whose group-median
    error stays below the constraint; None when no parameter qualifies.

    The oracle strategy degenerates to per-test choices with a per-test
    error bound instead of a median.
    """
    bound = constraint_pct / 100.0
    params = list(records_by_param)
    choices: dict = {}

    if strategy == "oracle":
        per_trace: dict[str, list] = {}
        for p in params:
            for r in _subset(records_by_param[p], selection_ids):
                per_trace.setdefault(r.trace_id, []).append((p, r))
        for tid, options in per_trace.items():
            qualifying = [(r.bytes_early, params.index(p), p)
                          for p, r in options if r.rel_error <= bound]
            choices[tid] = min(qualifying)[2] if qualifying else None
        return GroupPolicy(strategy, choices)

    by_group: dict = {}
    for p in params:
        for r in _subset(records_by_param[p], selection_ids):
            by_group.setdefault(group_key(r, strategy), {}).setdefault(p, []).append(r)
    for group, recs_by_p in by_group.items():
        qualifying = []
        for p in params:
            recs = recs_by_p.get(p, [])
            if not recs:
                continue
            agg = aggregates(recs)
            if agg["median_rel_error"] < bound:
                qualifying.append((agg["transfer_fraction"],
                                   agg["median_rel_error"], params.index(p), p))
        choices[group] = min(qualifying)[3] if qualifying else None
    return GroupPolicy(strategy, choices)


def apply_group_policy(records_by_param: dict, full_records: list[Record],
                       policy: GroupPolicy, ids: set | None = None) -> list[Record]:
    """Resolve each trace to its group's chosen parameter's record (or the
    full-run record when the group does not terminate early)."""
    full_by_id = {r.trace_id: r for r in _subset(full_records, ids)}
    by_param_id = {
        p: {r.trace_id: r for r in _subset(recs, ids)}
        for p, recs in records_by_param.items()
    }
    out = []
    for tid, full in full_by_id.items():
        key = group_key(full, policy.strategy)
        param = policy.choices.get(key)
        out.append(by_param_id[param][tid] if param is not None else full)
    return out


def percentile_curve(records_by_param: dict, percentiles: list[float], *,
                     bound_pct: float = DEFAULT_CONSTRAINT_PCT,
                     ids: set | None = None) -> list[tuple[float, float]]:
    """Minimal transfer over configurations whose p-th percentile error
    stays within the bound; 1.0 when none qualifies."""
    if any(not (50 <= p < 100) for p in percentiles) or list(percentiles) != sorted(percentiles):
        raise ValueError("percentiles must be ascending in [50, 100)")
    bound = bound_pct / 100.0
    stats = []
    for p, recs in records_by_param.items():
        recs = _subset(recs, ids)
        errors = np.array([r.rel_error for r in recs])
        fraction = aggregates(recs)["transfer_fraction"]
        stats.append((errors, fraction))
    out = []
    for pct in percentiles:
        feasible = [frac for errors, frac in stats
                    if len(errors) and float(np.percentile(errors, pct)) <= bound]
        out.append((pct, min(feasible) if feasible else 1.0))
    return out


# ---------------------------------------------------------------------------
# CSV emission (formats documented in docs/formats.md)


RECORD_COLUMNS = ("trace_id", "method", "param", "stop_ms", "bytes_early", "bytes_full",
                  "estimate", "rel_error", "tier", "rtt_bin", "ran_to_completion")


def write_records_csv(path: str, records: list[Record]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_COLUMNS)
        for r in records:
            w.writerow([r.trace_id, r.method, r.param, repr(r.stop_ms),
                        r.bytes_early, r.bytes_full, repr(r.estimate_mbps),
                        repr(r.rel_error), r.tier, r.rtt_bin,
                        int(r.ran_to_completion)])


def read_records_csv(path: str) -> list[Record]:
    """Records of a records.csv; a bad row raises ValueError naming its line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path} line {reader.line_num}"
            missing = [c for c in RECORD_COLUMNS if row.get(c) is None]
            if missing:
                raise ValueError(f"{where}: missing {', '.join(missing)}")
            ran = row["ran_to_completion"]
            if ran not in ("0", "1"):
                raise ValueError(f"{where}: ran_to_completion must be 0 or 1, got {ran!r}")
            try:
                r = Record(row["trace_id"], row["method"], row["param"],
                           float(row["stop_ms"]), int(row["bytes_early"]),
                           int(row["bytes_full"]), float(row["estimate"]),
                           float(row["rel_error"]), int(row["tier"]), int(row["rtt_bin"]),
                           ran == "1")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            records.append(r)
    return records


def write_frontier_csv(path: str, points: list[FrontierPoint],
                       frontier: list[FrontierPoint]) -> None:
    on_frontier = {(q.method, q.param) for q in frontier}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "param", "median_rel_error", "transfer_fraction",
                    "data_savings", "total_gb", "n", "nondominated"])
        for p in points:
            w.writerow([p.method, p.param, repr(p.median_rel_error),
                        repr(p.transfer_fraction), repr(1.0 - p.transfer_fraction),
                        repr(p.total_gb), p.n_records,
                        int((p.method, p.param) in on_frontier)])


def write_groups_csv(path: str, policies: list[GroupPolicy],
                     applied_aggregates: dict) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "group", "param", "median_rel_error",
                    "transfer_fraction"])
        for policy in policies:
            agg = applied_aggregates[policy.strategy]
            for group in sorted(policy.choices, key=str):
                param = policy.choices[group]
                w.writerow([policy.strategy, group,
                            "" if param is None else param,
                            repr(agg["median_rel_error"]),
                            repr(agg["transfer_fraction"])])

