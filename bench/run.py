#!/usr/bin/env python3
"""End-to-end benchmark of speedtrim: the CLI pipeline and live sessions.

    python3 bench/run.py --workload pipeline|live --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported and run
from ./src.  A round is the README walkthrough in an empty directory, one
``speedtrim`` process per command: two ``synth``, ``train-regressor``,
seven ``train-classifier``, ``sweep --method ml``, four baseline sweeps and
``select``.  Once the round's eps=5 classifier exists, a slice of live
tests runs after each command: streams fed snapshot by snapshot through
``Session.feed`` with the round's models, in a closed loop over a fixed
number of open sessions.  Rounds repeat until S seconds have passed, at
least MIN_ROUNDS of them; every round's outputs are checked (checks.py).

The last line of standard output is one JSON object: ``correct``,
``attempted`` (commands plus live sessions), ``failed`` (live sessions on
streams that carry an injected one-sample bytes_acked dip, which the file
parser repairs and ``Session.feed`` rejects) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
round with ``--trace 1``.  The live tails are percentiles of medians: every
judged stride of a stream, and every stream's stop, recurs in each pass of
each round, and counts once, at the median of its times.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

sys.path[:0] = [SRC, BENCH_DIR]
try:
    import speedtrim
    from speedtrim import engine, modelio, synth, traceio
    from speedtrim.core import SNAPSHOT_FIELDS, Snapshot
except ImportError as exc:
    sys.exit(f"cannot import speedtrim from {SRC}: {exc}")

import checks  # noqa: E402
import spans  # noqa: E402

EPSILONS = (5, 10, 15, 20, 25, 30, 35)
BASELINES = (
    ("static", "10MB,25MB,50MB,100MB"),
    ("bbr", "1,3,5,10"),
    ("tsh", "10,20,30"),
    ("cis", "0.7,0.8,0.9"),
)
# Model sizes of the acceptance fixture: 60 trees, depth 5, min leaf 20; 6 MLP epochs.
MODEL_CONFIG = {
    "gbdt": {"n_trees": 60, "max_depth": 5, "min_samples_leaf": 20, "objective": "log-mse"},
    "mlp": {"epochs": 6},
}
LIVE_EPSILON = 5
FIRST_LIVE_COMMAND = 3      # train-classifier --epsilon 5; live slices follow it
DIP_EVERY = 20              # one stream in 20 carries a bytes_acked dip
DIP_SEED = 7919             # dipped streams do not depend on --seed
# The training corpus and the model seed are fixed, so every run trains and
# serves the same models; --seed varies the eval corpus and the live streams.
TRAIN_SEED = 1001
MODEL_SEED = 7
SETUP_REPEATS = 3
MIN_ROUNDS = 2              # rounds per run, however short --seconds is
STRIDE_US = 500_000


@dataclass(frozen=True)
class Workload:
    n_train: int            # balanced training corpus
    n_eval: int             # natural-mode evaluation corpus
    n_streams: int          # live stream pool, every DIP_EVERY-th one dipped
    passes: int             # live sessions per stream per round
    concurrency: int        # live sessions open at once


# 220 streams, 209 undipped, nearly all of which stop early: the estimate
# tail (p95 over streams) has about ten streams beyond it.
WORKLOADS = {
    "pipeline": Workload(n_train=14, n_eval=20, n_streams=220, passes=2, concurrency=8),
    "live": Workload(n_train=14, n_eval=6, n_streams=220, passes=3, concurrency=32),
}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s",
    "live_decision_ms_mean": "ms", "live_decision_ms_p95_of_medians": "ms",
    "live_estimate_ms_mean": "ms", "live_estimate_ms_p95_of_medians": "ms",
    "live_tests_per_s": "1/s",
}
STAGES = ("synth_s", "train_regressor_s", "train_classifiers_s", "sweep_ml_s",
          "sweep_baselines_s", "select_s")


class BenchError(RuntimeError):
    pass


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up: run directory, config, live streams


@dataclass
class Stream:
    snapshots: list
    columns: list           # one list per SNAPSHOT_FIELDS entry
    y_true: float
    dipped: bool

    @property
    def t_us(self) -> list:
        return self.columns[0]

    @property
    def acked(self) -> list:
        return self.columns[1]


def wire_form(trace_id: str, stream: Stream) -> bytes:
    """JSON-Lines wire form of a stream, written with the standard library."""
    lines = [json.dumps({"id": trace_id, "duration_us": stream.t_us[-1]})]
    for row in zip(*stream.columns):
        lines.append(json.dumps(dict(zip(SNAPSHOT_FIELDS, row))))
    return ("\n".join(lines) + "\n").encode()


def make_stream(trace, dip: bool) -> Stream:
    columns = [getattr(trace, name).tolist() for name in SNAPSHOT_FIELDS]
    t_us, acked = columns[0], columns[1]
    if dip:
        # one sample drops below its predecessor and the next recovers,
        # before the first 500 ms stride is judged
        j = next(j for j in range(1, len(t_us) - 1)
                 if t_us[j] >= 200_000 and acked[j - 1] > 0)
        if t_us[j + 1] >= STRIDE_US:
            raise BenchError(f"trace {trace.id}: no room for a dip before the first stride")
        acked[j] = acked[j - 1] - 1
    snapshots = [Snapshot(*row) for row in zip(*columns)]
    return Stream(snapshots, columns, 8.0 * acked[-1] / t_us[-1], dip)


def setup(workload: Workload, seed: int, run_dir: str) -> list[Stream]:
    """Make the run directory and config; generate the live stream pool."""
    if os.path.exists(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        json.dump(dict(MODEL_CONFIG, seed=MODEL_SEED), fh, indent=2)
    spec = synth.GenSpec(mode="natural", seed=seed + 3)
    dip_spec = synth.GenSpec(mode="natural", seed=DIP_SEED)
    streams = []
    for i in range(workload.n_streams):
        dip = i % DIP_EVERY == DIP_EVERY - 1
        trace, _ = synth.gen_trace(dip_spec if dip else spec, i)
        streams.append(make_stream(trace, dip))
    return streams


# ---------------------------------------------------------------------------
# Pipeline: one speedtrim process per command


def pipeline_commands(workload: Workload, seed: int) -> list[tuple[str, list[str]]]:
    cfg = ["--config", "../config.json"]
    models = ["--regressor", "models/regressor.bin", "--models-dir", "models"]
    cmds = [
        ("synth_s", ["synth", *cfg, "--n", str(workload.n_train), "--mode", "balanced",
                     "--seed", str(TRAIN_SEED), "--out", "train"]),
        ("synth_s", ["synth", *cfg, "--n", str(workload.n_eval), "--mode", "natural",
                     "--seed", str(seed + 2), "--out", "eval"]),
        ("train_regressor_s", ["train-regressor", *cfg, "--corpus", "train",
                               "--out", "models/regressor.bin"]),
    ]
    for eps in EPSILONS:
        cmds.append(("train_classifiers_s", [
            "train-classifier", *cfg, "--corpus", "train",
            "--regressor", "models/regressor.bin", "--epsilon", str(eps),
            "--out", f"models/classifier_eps{eps}.bin"]))
    cmds.append(("sweep_ml_s", [
        "sweep", *cfg, "--corpus", "eval", "--method", "ml",
        "--params", ",".join(map(str, EPSILONS)), *models, "--out", "out/ml"]))
    for method, params in BASELINES:
        cmds.append(("sweep_baselines_s", [
            "sweep", *cfg, "--corpus", "eval", "--method", method,
            "--params", params, "--out", f"out/{method}"]))
    cmds.append(("select_s", ["select", *cfg, "--corpus", "eval", *models,
                              "--constraint", "20", "--out", "out/select"]))
    return cmds


def run_command(args: list[str], round_dir: str, spans_path: str | None) -> float:
    """Run one speedtrim command (through the tracing shim when
    spans_path is given); returns its wall time."""
    if spans_path is None:
        argv = [sys.executable, "-m", "speedtrim.cli", *args]
    else:
        argv = [sys.executable, os.path.join(BENCH_DIR, "shim.py"), spans_path, "--", *args]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               BENCH_SPAWN_T=repr(time.time()))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=round_dir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"speedtrim {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return elapsed


def check_pipeline(round_dir: str) -> tuple[list[str], list[dict]]:
    """All pipeline checks of one round; returns (errors, ML frontier rows)."""
    errors = []
    truths = {}
    for corpus in ("train", "eval"):
        cdir = os.path.join(round_dir, corpus)
        truths[corpus] = checks.read_corpus_truth(cdir)
        errors += checks.check_manifest(
            checks.read_csv(os.path.join(cdir, "manifest.csv")), truths[corpus])
    truth = truths["eval"]
    all_records = []
    for method in ["ml"] + [m for m, _ in BASELINES]:
        out = os.path.join(round_dir, "out", method)
        records = checks.read_csv(os.path.join(out, "records.csv"))
        frontier = checks.read_csv(os.path.join(out, "frontier.csv"))
        all_records += records
        errors += checks.check_records(records, truth)
        errors += checks.check_frontier(frontier, records)
        if method == "ml":
            ml_frontier = frontier
            errors += checks.check_groups(
                checks.read_csv(os.path.join(round_dir, "out", "select", "groups.csv")),
                records)
    errors += checks.check_static(all_records, truth)
    errors += checks.check_monotone(all_records)
    regressor = modelio.load_model(os.path.join(round_dir, "models", "regressor.bin"))
    errors += checks.check_train_mse(regressor.train_mse)
    return errors, ml_frontier


# ---------------------------------------------------------------------------
# Live: closed loop over a fixed number of open sessions


@dataclass
class LiveResult:
    decision_ms: list = field(default_factory=list)
    decision_keys: list = field(default_factory=list)  # (stream, stride) per decision_ms
    estimate_ms: list = field(default_factory=list)
    estimate_keys: list = field(default_factory=list)  # stream per estimate_ms
    feeding_s: float = 0.0
    outcomes: list = field(default_factory=list)   # (stream, (stop_ms, bytes, estimate, completed))
    failures: list = field(default_factory=list)   # (stream, exception name)


def load_policy(round_dir: str):
    models = os.path.join(round_dir, "models")
    return engine.Policy(modelio.load_model(os.path.join(models, "regressor.bin")),
                  modelio.load_model(os.path.join(models, f"classifier_eps{LIVE_EPSILON}.bin")),
                  float(LIVE_EPSILON))


def _outcome(o) -> tuple:
    return (o.stop_time_ms, o.bytes_at_stop, o.estimate_mbps, o.ran_to_completion)


def run_live(policy, streams: list, order: list, concurrency: int, result: LiveResult,
             recorder=None) -> None:
    """Feed the streams named in ``order``, each through a new Session,
    round robin over ``concurrency`` open sessions; the next session opens
    when one ends.  Appends to ``result``."""
    pending = iter(order)

    def open_next():
        i = next(pending, None)
        return None if i is None else [i, engine.Session(policy), 0, STRIDE_US]

    clock = time.perf_counter
    t_start = clock()
    slots = [s for s in (open_next() for _ in range(concurrency)) if s is not None]
    while slots:
        k = 0
        while k < len(slots):
            slot = slots[k]
            i, session, pos, boundary = slot
            stream = streams[i]
            snap = stream.snapshots[pos]
            if recorder is not None:
                recorder.group = i
            done = False
            try:
                t0 = clock()
                decision = session.feed(snap)
                t1 = clock()
            except (ValueError, RuntimeError) as exc:
                result.failures.append((i, type(exc).__name__))
                done = True
            else:
                if snap.t_us > boundary:
                    result.decision_ms.append((t1 - t0) * 1e3)
                    result.decision_keys.append((i, boundary))
                    slot[3] = -(-snap.t_us // STRIDE_US) * STRIDE_US
                slot[2] = pos = pos + 1
                if decision.stopping:
                    t0 = clock()
                    out = session.finalize(stream.y_true)
                    result.estimate_ms.append((clock() - t0) * 1e3)
                    result.estimate_keys.append(i)
                    result.outcomes.append((i, _outcome(out)))
                    done = True
                elif pos == len(stream.snapshots):
                    session.end_of_trace()
                    result.outcomes.append((i, _outcome(session.finalize(stream.y_true))))
                    done = True
            if done:
                nxt = open_next()
                if nxt is None:
                    slots.pop(k)
                    continue
                slots[k] = nxt
            k += 1
    result.feeding_s += clock() - t_start


def replay_references(policy, streams: list) -> tuple[dict, list[str]]:
    """run_trace on the parsed wire form of every undipped stream; a
    dipped stream's wire form must parse, with the dip repaired."""
    refs, errors = {}, []
    for i, stream in enumerate(streams):
        trace = traceio.parse_trace(io.BytesIO(wire_form(f"s{i}", stream)))
        if stream.dipped:
            if trace.bytes_acked.tolist() == stream.acked:
                errors.append(f"stream {i}: the parser left the dip in place")
            continue
        refs[i] = _outcome(engine.run_trace(trace, policy))
    return refs, errors


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class Round:
    stages: dict
    live: LiveResult
    elapsed_s: float
    span_files: list


class Runner:
    def __init__(self, workload: Workload, seed: int, run_dir: str, streams: list):
        self.workload = workload
        self.run_dir = run_dir
        self.streams = streams
        self.commands = pipeline_commands(workload, seed)
        self.rounds: list[Round] = []
        self.errors: list[str] = []
        self.references = None
        self.frontier: list[dict] = []

    @property
    def ops_per_round(self) -> int:
        return len(self.commands) + len(self.streams) * self.workload.passes

    def live_slices(self) -> list[list[int]]:
        """The round's live sessions, split over the commands from the
        eps=5 classifier on."""
        order = [i for _ in range(self.workload.passes) for i in range(len(self.streams))]
        n = len(self.commands) - FIRST_LIVE_COMMAND
        return [order[j * len(order) // n:(j + 1) * len(order) // n] for j in range(n)]

    def round(self, spans_dir: str | None = None, recorder=None) -> Round:
        round_dir = os.path.join(self.run_dir, f"round{len(self.rounds)}")
        os.makedirs(round_dir)
        stages = dict.fromkeys(STAGES, 0.0)
        live = LiveResult()
        slices = self.live_slices()
        span_files = []
        policy = None
        t0 = time.perf_counter()
        for k, (stage, args) in enumerate(self.commands):
            spans_path = None if spans_dir is None else os.path.join(spans_dir, f"cmd{k:02d}.json")
            stages[stage] += run_command(args, round_dir, spans_path)
            if spans_path is not None:
                span_files.append(spans_path)
            if k < FIRST_LIVE_COMMAND:
                continue
            if policy is None:
                policy = load_policy(round_dir)
            restore = None if recorder is None else spans.install(recorder)
            try:
                run_live(policy, self.streams, slices[k - FIRST_LIVE_COMMAND],
                         self.workload.concurrency, live, recorder)
            finally:
                if restore is not None:
                    restore()
        elapsed = time.perf_counter() - t0

        errors, self.frontier = check_pipeline(round_dir)
        self.errors += errors
        if self.references is None:
            self.references, ref_errors = replay_references(policy, self.streams)
            self.errors += ref_errors
        self.errors += checks.check_live(
            live.outcomes, self.references,
            {i: (s.t_us, s.acked) for i, s in enumerate(self.streams)},
            live.failures, {i for i, s in enumerate(self.streams) if s.dipped})
        shutil.rmtree(round_dir)
        rnd = Round(stages, live, elapsed, span_files)
        self.rounds.append(rnd)
        return rnd


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.abspath(speedtrim.__file__).startswith(SRC + os.sep):
        log(f"speedtrim imported from {speedtrim.__file__}, not from {SRC}")
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            streams = setup(workload, args.seed, run_dir)
            setup_times.append(time.perf_counter() - t0)
        # the stream pool lives for the whole run: keep the collector from
        # rescanning it during the program's calls
        gc.freeze()
        runner = Runner(workload, args.seed, run_dir, streams)
        if args.trace:
            metrics = traced_metrics(runner, args)
        else:
            t_start = time.perf_counter()
            while (len(runner.rounds) < MIN_ROUNDS
                   or time.perf_counter() - t_start < args.seconds):
                runner.round()
            metrics = end_to_end(setup_times, runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for e in runner.errors[:20]:
        log(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.ops_per_round * len(runner.rounds),
        "failed": sum(len(r.live.failures) for r in runner.rounds),
        "metrics": metrics,
    }))
    return 0


def end_to_end(setup_times: list, runner: Runner) -> dict:
    rounds = runner.rounds
    decision = [x for r in rounds for x in r.live.decision_ms]
    estimate = [x for r in rounds for x in r.live.estimate_ms]
    finished = sum(len(r.live.outcomes) for r in rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(sum(r.stages.values()) for r in rounds),
        "live_decision_ms_mean": statistics.fmean(decision),
        "live_decision_ms_p95_of_medians": spans.percentile_of_medians(
            [k for r in rounds for k in r.live.decision_keys], decision, 95),
        "live_estimate_ms_mean": statistics.fmean(estimate),
        "live_estimate_ms_p95_of_medians": spans.percentile_of_medians(
            [k for r in rounds for k in r.live.estimate_keys], estimate, 95),
        "live_tests_per_s": finished / sum(r.live.feeding_s for r in rounds),
    }
    describe(runner, len(decision), len(estimate), finished)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def describe(runner: Runner, n_judged: int, n_stops: int, n_finished: int) -> None:
    """Reference figures on standard error: rounds, live stop times, the
    ML frontier of the last round."""
    log(f"{len(runner.rounds)} round(s); {n_judged} judged strides, {n_stops} early stops, "
        f"{n_finished} finished sessions")
    for name in ("decision", "estimate"):
        ms = [x for r in runner.rounds for x in getattr(r.live, f"{name}_ms")]
        log(f"live {name} ms over all calls: p50 {spans.percentile(ms, 50):.3f}  "
            f"p95 {spans.percentile(ms, 95):.3f}  p99 {spans.percentile(ms, 99):.3f}")
    for r in runner.rounds:
        log("  ".join(f"{k} {v:.2f}" for k, v in r.stages.items())
            + f"  live_feeding_s {r.live.feeding_s:.2f}")
    stops = [o[0] for r in runner.rounds for _, o in r.live.outcomes if not o[3]]
    if stops:
        log("live early-stop times, ms: p10 %.0f  p25 %.0f  p50 %.0f  p75 %.0f  p90 %.0f"
            % tuple(spans.percentile(stops, q) for q in (10, 25, 50, 75, 90)))
    for f in runner.frontier:
        log(f"ml eps={f['param']}: median error {float(f['median_rel_error']):.3f}, "
            f"transfer {float(f['transfer_fraction']):.3f}")


def traced_metrics(runner: Runner, args) -> dict:
    """One untraced round, then one traced set-up and round on the same
    inputs."""
    untraced = runner.round()
    recorder = spans.Recorder()
    recorder.group = -1
    restore = spans.install(recorder)
    try:
        setup(runner.workload, args.seed, runner.run_dir)
    finally:
        restore()
    spans_dir = os.path.join(runner.run_dir, "spans")
    os.makedirs(spans_dir)
    traced = runner.round(spans_dir, recorder)

    merged = list(recorder.spans)
    startup = 0.0
    for k, path in enumerate(traced.span_files):
        with open(path) as fh:
            data = json.load(fh)
        startup += data["startup_s"]
        base = len(merged)
        for s in data["spans"]:
            if s[spans.PARENT] >= 0:
                s[spans.PARENT] += base
            s[spans.GROUP] = 1_000_000 + k
            merged.append(s)
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, f"spans-{args.workload}-s{args.seed}.json"), "w") as fh:
        json.dump(merged, fh)

    layer = spans.layer_metrics(merged, startup)
    for stage in STAGES:
        layer[f"stage.{stage}"] = untraced.stages[stage]
    layer["bench.round_untraced_s"] = untraced.elapsed_s
    layer["bench.round_traced_s"] = traced.elapsed_s
    layer["bench.tracing_overhead_s"] = traced.elapsed_s - untraced.elapsed_s
    for stage in STAGES:
        log(f"{stage:22s} untraced {untraced.stages[stage]:8.3f}  "
            f"traced {traced.stages[stage]:8.3f}")
    log(f"{'live feeding s':22s} untraced {untraced.live.feeding_s:8.3f}  "
        f"traced {traced.live.feeding_s:8.3f}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in layer.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("model_bytes"):
        return "bytes"
    if name.endswith(("per_trace", "per_stride")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
