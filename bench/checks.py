"""Output checks that do not trust the program.

Each check recomputes a value from the raw inputs with the standard
library, or tests a property the method must have.  Every check returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
import statistics

CONSTRAINT = 0.20
STRIDE_MS = 500


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def read_trace_columns(path: str) -> tuple[list[int], list[int]]:
    """(t_us, bytes_acked) of one JSONL trace, header line skipped."""
    t_us, acked = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if "t_us" not in obj:
                continue
            t_us.append(int(obj["t_us"]))
            acked.append(int(obj["bytes_acked"]))
    return t_us, acked


def num(text: str) -> float:
    """A float cell; accepts the ``np.float64(x)`` repr that some records
    carry (see CHANGES.md) as the number x."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_corpus_truth(corpus_dir: str) -> dict:
    """trace id -> (t_us, bytes_acked) read from the corpus's JSONL files."""
    truth = {}
    for row in read_csv(os.path.join(corpus_dir, "index.csv")):
        truth[row["id"]] = read_trace_columns(os.path.join(corpus_dir, row["file"]))
    return truth


def check_manifest(manifest_rows: list[dict], truth: dict) -> list[str]:
    """total_bytes and y_true = 8*bytes/t_last agree with the raw snapshots."""
    errors = []
    if {r["id"] for r in manifest_rows} != set(truth):
        errors.append("manifest ids differ from index ids")
    for r in manifest_rows:
        if r["id"] not in truth:
            continue
        t_us, acked = truth[r["id"]]
        if int(r["total_bytes"]) != acked[-1]:
            errors.append(f"{r['id']}: total_bytes {r['total_bytes']} != {acked[-1]}")
        y = 8.0 * acked[-1] / t_us[-1]
        if not close(num(r["y_true_mbps"]), y):
            errors.append(f"{r['id']}: y_true_mbps {r['y_true_mbps']} != {y!r}")
    return errors


def check_records(records: list[dict], truth: dict) -> list[str]:
    """Byte accounting and the relative-error identity of every record."""
    errors = []
    for r in records:
        tag = f"{r['method']}[{r['param']}] {r['trace_id']}"
        if r["trace_id"] not in truth:
            errors.append(f"{tag}: unknown trace")
            continue
        t_us, acked = truth[r["trace_id"]]
        early, full = int(r["bytes_early"]), int(r["bytes_full"])
        if full != acked[-1]:
            errors.append(f"{tag}: bytes_full {full} != {acked[-1]}")
        if early > full:
            errors.append(f"{tag}: bytes_early {early} > bytes_full {full}")
        err = num(r["rel_error"])
        if r["ran_to_completion"] == "1" and (early != full or err != 0.0):
            errors.append(f"{tag}: run to completion with bytes {early}/{full}, error {err}")
        y_true = 8.0 * acked[-1] / t_us[-1]
        if not close(err, abs(y_true - num(r["estimate"])) / y_true):
            errors.append(f"{tag}: rel_error {err} != |y_true - estimate| / y_true")
    return errors


def param_value(label: str) -> float:
    """Numeric parameter of a records.csv label such as 'k=3' or '5.0'."""
    return float(label.rpartition("=")[2])


def check_static(records: list[dict], truth: dict) -> list[str]:
    """Static-cap stops recomputed exactly from the raw snapshots."""
    errors = []
    for r in records:
        if r["method"] != "static":
            continue
        cap = int(param_value(r["param"]))
        t_us, acked = truth[r["trace_id"]]
        hit = next((i for i, (t, b) in enumerate(zip(t_us, acked))
                    if b >= cap and t > 0), None)
        if hit is None or t_us[hit] >= t_us[-1]:
            want = (t_us[-1] / 1000.0, acked[-1], "1")
        else:
            want = (t_us[hit] / 1000.0, acked[hit], "0")
        got = (num(r["stop_ms"]), int(r["bytes_early"]), r["ran_to_completion"])
        if got != want:
            errors.append(f"static[{r['param']}] {r['trace_id']}: got {got}, want {want}")
    return errors


# Direction in which each heuristic's stop time moves as its parameter grows.
MONOTONE = {"static": 1, "bbr": 1, "cis": 1, "tsh": -1}


def check_monotone(records: list[dict]) -> list[str]:
    """Stop times are monotone in each heuristic's parameter, per trace."""
    errors = []
    by_key: dict = {}
    for r in records:
        if r["method"] in MONOTONE:
            by_key.setdefault((r["method"], r["trace_id"]), []).append(
                (param_value(r["param"]), num(r["stop_ms"])))
    for (method, tid), pairs in by_key.items():
        stops = [s for _, s in sorted(pairs)]
        if MONOTONE[method] < 0:
            stops.reverse()
        if any(b < a for a, b in zip(stops, stops[1:])):
            errors.append(f"{method} {tid}: stop times {stops} not monotone in the parameter")
    return errors


def check_frontier(frontier_rows: list[dict], records: list[dict]) -> list[str]:
    """frontier.csv medians and transfer fractions recomputed from records."""
    errors = []
    groups: dict = {}
    for r in records:
        groups.setdefault((r["method"], r["param"]), []).append(r)
    if {(f["method"], f["param"]) for f in frontier_rows} != set(groups):
        errors.append("frontier rows and record parameters differ")
    for f in frontier_rows:
        recs = groups.get((f["method"], f["param"]), [])
        if not recs:
            continue
        median = statistics.median(num(r["rel_error"]) for r in recs)
        early = sum(int(r["bytes_early"]) for r in recs)
        full = sum(int(r["bytes_full"]) for r in recs)
        tag = f"frontier {f['method']}[{f['param']}]"
        if not close(num(f["median_rel_error"]), median):
            errors.append(f"{tag}: median {f['median_rel_error']} != {median!r}")
        if not close(num(f["transfer_fraction"]), early / full):
            errors.append(f"{tag}: transfer {f['transfer_fraction']} != {early / full!r}")
        if int(f["n"]) != len(recs):
            errors.append(f"{tag}: n {f['n']} != {len(recs)}")
    return errors


def _group_of(strategy: str, r: dict) -> str:
    tier, rtt_bin = int(r["tier"]), int(r["rtt_bin"])
    return {
        "global": "all",
        "speed-only": str(tier),
        "rtt-only": str(rtt_bin),
        "rtt+speed": str((tier, rtt_bin)),
        "oracle": r["trace_id"],
    }[strategy]


def check_groups(group_rows: list[dict], ml_records: list[dict]) -> list[str]:
    """Every choice in groups.csv meets the error constraint, recomputed
    from the ML records: a group median below it for the group strategies,
    a per-test bound for the oracle.  The applied aggregates of each
    strategy are recomputed too."""
    errors = []
    by_param: dict = {}
    for r in ml_records:
        by_param.setdefault(param_value(r["param"]), {})[r["trace_id"]] = r
    ids = sorted({r["trace_id"] for r in ml_records})
    any_param = next(iter(by_param.values()), {})
    rows_by_strategy: dict = {}
    for g in group_rows:
        rows_by_strategy.setdefault(g["strategy"], []).append(g)
    for strategy, rows in rows_by_strategy.items():
        choice = {g["group"]: (param_value(g["param"]) if g["param"] else None) for g in rows}
        for group, p in choice.items():
            if p is None:
                continue
            if p not in by_param:
                errors.append(f"{strategy}/{group}: parameter {p} has no records")
                continue
            members = [r for r in by_param[p].values() if _group_of(strategy, r) == group]
            errs = [num(r["rel_error"]) for r in members]
            if not errs:
                errors.append(f"{strategy}/{group}: no records in the group")
            elif strategy == "oracle" and errs[0] > CONSTRAINT:
                errors.append(f"oracle/{group}: error {errs[0]} above {CONSTRAINT}")
            elif strategy != "oracle" and not statistics.median(errs) < CONSTRAINT:
                errors.append(f"{strategy}/{group}: median error "
                              f"{statistics.median(errs)} not below {CONSTRAINT}")
        applied = []
        for tid in ids:
            ref = any_param[tid]
            p = choice.get(_group_of(strategy, ref))
            if p is None or p not in by_param:
                applied.append((0.0, int(ref["bytes_full"]), int(ref["bytes_full"])))
            else:
                r = by_param[p][tid]
                applied.append((num(r["rel_error"]), int(r["bytes_early"]),
                                int(r["bytes_full"])))
        median = statistics.median(e for e, _, _ in applied)
        transfer = sum(b for _, b, _ in applied) / sum(f for _, _, f in applied)
        for g in rows:
            if not (close(num(g["median_rel_error"]), median)
                    and close(num(g["transfer_fraction"]), transfer)):
                errors.append(f"{strategy}: applied ({g['median_rel_error']}, "
                              f"{g['transfer_fraction']}) != ({median!r}, {transfer!r})")
                break
    return errors


def check_train_mse(train_mse: list[float]) -> list[str]:
    """Boosting with mean-residual leaves never raises the training loss."""
    bad = [i for i in range(1, len(train_mse)) if train_mse[i] > train_mse[i - 1]]
    return [f"train_mse rises at round {i}" for i in bad[:3]]


def check_live(outcomes: list, references: dict, streams: dict, failures: list,
               dipped: set) -> list[str]:
    """Live sessions against replay and the stopping rules.

    ``outcomes`` lists (stream index, (stop_ms, bytes, estimate,
    ran_to_completion)) per finished session; ``references`` maps a stream
    index to the same tuple from run_trace on the parsed wire form.
    ``streams`` maps an index to its (t_us, bytes_acked); ``failures``
    lists (stream index, exception name) per failed session; ``dipped``
    holds the streams that carry an injected bytes_acked dip.
    """
    errors = []
    if {i for i, _ in failures} != dipped:
        errors.append(f"failed streams {sorted({i for i, _ in failures})} "
                      f"!= dipped streams {sorted(dipped)}")
    if dipped & {i for i, _ in outcomes}:
        errors.append(f"dipped streams {sorted(dipped & {i for i, _ in outcomes})} finished")
    for i, exc in failures:
        if exc != "ValidationError":
            errors.append(f"stream {i}: failed with {exc}, not ValidationError")
    for i, got in outcomes:
        if got != references.get(i):
            errors.append(f"stream {i}: session {got} != replay {references.get(i)}")
        stop_ms, acked_at_stop, _, completed = got
        t_us, acked = streams[i]
        if completed:
            if (stop_ms, acked_at_stop) != (t_us[-1] / 1000.0, acked[-1]):
                errors.append(f"stream {i}: completed run reports {got}")
            continue
        if stop_ms % STRIDE_MS != 0 or stop_ms * 1000 >= t_us[-1]:
            errors.append(f"stream {i}: early stop at {stop_ms} ms is off-stride or too late")
            continue
        j = bisect.bisect_right(t_us, int(stop_ms) * 1000) - 1
        if acked_at_stop != acked[j]:
            errors.append(f"stream {i}: bytes {acked_at_stop} != {acked[j]} at {stop_ms} ms")
    return errors
