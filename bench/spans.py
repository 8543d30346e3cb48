"""In-memory spans around calls into speedtrim's public functions.

A ``Recorder`` wraps functions and methods from the benchmark's side:
each wrapped call appends one span (name, start, end, parent index,
group id, note).  Spans stay in memory until the caller writes them out.
``install`` patches every module attribute that holds the original
function, so a name imported with ``from x import f`` is wrapped where
its callers look it up.

``layer_metrics`` turns a span list into the per-layer figures the
benchmark reports; ``self_times``, ``percentile`` and
``percentile_of_medians`` are the arithmetic it rests on.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time

NAME, START, END, PARENT, GROUP, NOTE = range(6)


class Recorder:
    """Collects spans from one thread; ``group`` tags the current
    command or live session."""

    def __init__(self):
        self.spans: list[list] = []
        self.group = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.group, None]
            rec.spans.append(span)
            rec._stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                rec._stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return wrapper


def _rows(args, result):
    x = args[1]
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) == 1 else int(shape[0])


def _path_or_none(args, result):
    return os.fspath(args[0]) if isinstance(args[0], (str, os.PathLike)) else None


def _saved_bytes(args, result):
    return os.path.getsize(args[1])


def _verdict(args, result):
    return bool(result)


# (module, attribute path, span name, note) for every wrapped call.
TARGETS = (
    ("speedtrim.traceio", "parse_trace", "traceio.parse_trace", _path_or_none),
    ("speedtrim.traceio", "dump_trace", "traceio.dump_trace", None),
    ("speedtrim.traceio", "resample", "traceio.resample", None),
    ("speedtrim.traceio", "regressor_input", "traceio.regressor_input", None),
    ("speedtrim.traceio", "classifier_input", "traceio.classifier_input", None),
    ("speedtrim.core", "Trace.__init__", "core.Trace", None),
    ("speedtrim.synth", "gen_trace", "synth.gen_trace", None),
    ("speedtrim.label", "build_regression_dataset", "label.build_regression_dataset", None),
    ("speedtrim.label", "build_classification_dataset",
     "label.build_classification_dataset", None),
    ("speedtrim.label", "oracle_labeling", "label.oracle_labeling", None),
    ("speedtrim.gbdt", "train_gbdt", "gbdt.train_gbdt", None),
    ("speedtrim.gbdt", "GbdtModel.predict", "gbdt.predict", _rows),
    ("speedtrim.mlp", "train_mlp", "mlp.train_mlp", None),
    ("speedtrim.mlp", "MlpModel.predict_proba", "mlp.predict_proba", _rows),
    ("speedtrim.engine", "Session.feed", "engine.Session.feed", None),
    ("speedtrim.engine", "Session.finalize", "engine.Session.finalize", None),
    ("speedtrim.engine", "variability_guard", "engine.guard", _verdict),
    ("speedtrim.engine", "run_trace", "engine.run_trace", None),
    ("speedtrim.heuristics", "stop_static", "heuristics.static", None),
    ("speedtrim.heuristics", "stop_bbr", "heuristics.bbr", None),
    ("speedtrim.heuristics", "stop_tsh", "heuristics.tsh", None),
    ("speedtrim.heuristics", "stop_cis", "heuristics.cis", None),
    ("speedtrim.evaluate", "evaluate_method", "evaluate.evaluate_method", None),
    ("speedtrim.evaluate", "write_records_csv", "evaluate.write_records_csv", None),
    ("speedtrim.evaluate", "select_adaptive", "evaluate.select_adaptive", None),
    ("speedtrim.evaluate", "aggregates", "evaluate.aggregates", None),
    ("speedtrim.modelio", "save_model", "modelio.save_model", _saved_bytes),
    ("speedtrim.modelio", "load_model", "modelio.load_model", None),
    ("speedtrim.cli", "main", "cli.main", None),
)


def install(recorder: Recorder, targets=TARGETS):
    """Wrap every target; returns a function that restores the originals."""
    import importlib

    undo = []
    for module_name, path, span_name, note in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(span_name, orig, note))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(module, path)
        wrapper = recorder.wrap(span_name, orig, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("speedtrim"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile_of_medians(keys, values, q: float) -> float:
    """Percentile over keys of each key's median value.

    ``keys[i]`` names the operation ``values[i]`` timed; an operation
    timed several times counts once, at its median, so a tail reflects
    which operations cost more rather than which calls a busy host
    slowed down."""
    groups: dict = {}
    for key, value in zip(keys, values, strict=True):
        groups.setdefault(key, []).append(value)
    return percentile([statistics.median(xs) for xs in groups.values()], q)


def layer_metrics(spans, startup_s: float) -> dict[str, float]:
    """Per-layer counts and self times from one traced round.

    ``startup_s`` is the summed time from process start to ``cli.main``
    over the round's commands, which no span can see.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t

    def sum_notes(name):
        return sum(s[NOTE] for s in spans if s[NAME] == name)

    # a decode is one parse_trace call that opened a path; the call it
    # makes on the open file is not a second decode
    files_per_group: dict[int, list[str]] = {}
    for s in spans:
        if s[NAME] == "traceio.parse_trace" and s[NOTE] is not None:
            files_per_group.setdefault(s[GROUP], []).append(s[NOTE])
    files = sum(len(v) for v in files_per_group.values())
    distinct = sum(len(set(v)) for v in files_per_group.values())
    judged = calls.get("engine.guard", 0)
    suppressed = sum(1 for s in spans if s[NAME] == "engine.guard" and not s[NOTE])
    classifier_calls = sum(
        1 for s in spans
        if s[NAME] == "mlp.predict_proba" and s[PARENT] >= 0
        and _ancestor(spans, s, "engine.Session.feed", "engine.run_trace"))

    m = {
        "traceio.parse_trace.files": files,
        "traceio.parse_trace.self_s": self_s.get("traceio.parse_trace", 0.0),
        "traceio.parse_trace.decodes_per_trace": files / distinct if distinct else 0.0,
        "traceio.dump_trace.self_s": self_s.get("traceio.dump_trace", 0.0),
        "traceio.resample.calls": calls.get("traceio.resample", 0),
        "traceio.resample.self_s": self_s.get("traceio.resample", 0.0),
        "traceio.regressor_input.self_s": self_s.get("traceio.regressor_input", 0.0),
        "traceio.classifier_input.self_s": self_s.get("traceio.classifier_input", 0.0),
        "core.Trace.calls": calls.get("core.Trace", 0),
        "core.Trace.self_s": self_s.get("core.Trace", 0.0),
        "synth.gen_trace.self_s": self_s.get("synth.gen_trace", 0.0),
        "label.build_regression_dataset.self_s":
            self_s.get("label.build_regression_dataset", 0.0),
        "label.build_classification_dataset.calls":
            calls.get("label.build_classification_dataset", 0),
        "label.build_classification_dataset.self_s":
            self_s.get("label.build_classification_dataset", 0.0),
        "label.oracle_labeling.self_s": self_s.get("label.oracle_labeling", 0.0),
        "gbdt.train_gbdt.self_s": self_s.get("gbdt.train_gbdt", 0.0),
        "gbdt.predict.calls": calls.get("gbdt.predict", 0),
        "gbdt.predict.rows": sum_notes("gbdt.predict"),
        "gbdt.predict.self_s": self_s.get("gbdt.predict", 0.0),
        "mlp.train_mlp.self_s": self_s.get("mlp.train_mlp", 0.0),
        "mlp.predict_proba.calls": calls.get("mlp.predict_proba", 0),
        "mlp.predict_proba.rows": sum_notes("mlp.predict_proba"),
        "mlp.predict_proba.self_s": self_s.get("mlp.predict_proba", 0.0),
        "engine.Session.feed.calls": calls.get("engine.Session.feed", 0),
        "engine.Session.feed.self_s": self_s.get("engine.Session.feed", 0.0),
        "engine.strides.judged": judged,
        "engine.guard.suppressed": suppressed,
        "engine.classifier.calls_per_stride": classifier_calls / judged if judged else 0.0,
        "engine.Session.finalize.self_s": self_s.get("engine.Session.finalize", 0.0),
        "engine.run_trace.calls": calls.get("engine.run_trace", 0),
        "engine.run_trace.self_s": self_s.get("engine.run_trace", 0.0),
        "heuristics.static.self_s": self_s.get("heuristics.static", 0.0),
        "heuristics.bbr.self_s": self_s.get("heuristics.bbr", 0.0),
        "heuristics.tsh.self_s": self_s.get("heuristics.tsh", 0.0),
        "heuristics.cis.self_s": self_s.get("heuristics.cis", 0.0),
        "evaluate.evaluate_method.self_s": self_s.get("evaluate.evaluate_method", 0.0),
        "evaluate.write_records_csv.self_s": self_s.get("evaluate.write_records_csv", 0.0),
        "evaluate.select_adaptive.self_s": self_s.get("evaluate.select_adaptive", 0.0),
        "evaluate.aggregates.calls": calls.get("evaluate.aggregates", 0),
        "modelio.save_model.self_s": self_s.get("modelio.save_model", 0.0),
        "modelio.load_model.calls": calls.get("modelio.load_model", 0),
        "modelio.load_model.self_s": self_s.get("modelio.load_model", 0.0),
        "modelio.model_bytes": sum_notes("modelio.save_model"),
        "cli.startup_s": startup_s,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    return m


def _ancestor(spans, span, *names) -> bool:
    p = span[PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False
