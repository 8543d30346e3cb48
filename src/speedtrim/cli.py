"""Command-line entry point wiring the modules into reproducible pipelines.

Exit codes: 0 ok, 2 usage, 3 data error, 4 model error.  Logs go to
stderr; data goes to files.  Every artifact-producing subcommand writes a
manifest (config hash, seed, input checksums) and its config next to its
outputs: ``manifest.json`` in a directory, ``<stem>.manifest.json`` beside
a model file ``<stem>.bin``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

from . import evaluate, heuristics, label, modelio, synth, traceio
from .config import RunConfig
from .core import ValidationError
from .engine import Policy, run_trace
from .gbdt import GbdtModel, train_gbdt
from .mlp import MlpModel, train_mlp
from .modelio import ModelFormatError
from .traceio import CLASSIFIER_ARITY, REGRESSOR_ARITY

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(prefix: str, command: str, config: RunConfig,
                    inputs: list[str]) -> None:
    """Write ``<prefix>manifest.json`` and ``<prefix>config.json``; the
    prefix is ``dir/`` for an output directory, ``stem.`` for a model file."""
    manifest = {
        "command": command,
        "config_hash": config.hash(),
        "seed": config.seed,
        "inputs": {os.path.basename(p): _sha256(p) for p in sorted(inputs)},
    }
    with open(prefix + "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(prefix + "config.json", "w") as fh:
        fh.write(config.to_json())


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


# the model class and input width each model role takes
_MODEL_ROLES = {"regressor": (GbdtModel, REGRESSOR_ARITY),
                "classifier": (MlpModel, CLASSIFIER_ARITY)}


def _load_models(paths_and_roles: list[tuple[str, str]]) -> list:
    """The model in each file; once all have loaded, each must fit its role."""
    models = [modelio.load_model(path) for path, _ in paths_and_roles]
    for model, (path, role) in zip(models, paths_and_roles):
        cls, n_features = _MODEL_ROLES[role]
        if not isinstance(model, cls) or model.n_features != n_features:
            raise ModelFormatError(
                f"{path}: a {role} must be a {cls.__name__} over {n_features} features")
    return models


def epsilon(text) -> float:
    """A tolerance ε in percent, from a command line or config value: a
    finite number > 0, else ValueError."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"epsilon must be a finite number > 0, got {text!r}")
    return value


def _parse_params(items: list, parse) -> list:
    """Each --params item parsed; a value given twice is a data error."""
    values = [parse(item) for item in items]
    for i, value in enumerate(values):
        first = values.index(value)
        if first < i:
            raise ValueError(f"--params gives {value!r} twice: as {items[first]!r} "
                             f"and as {items[i]!r}")
    return values


def _classifier_name(eps: float) -> str:
    """File name of ε's classifier: ε in full, without a trailing ``.0``
    (``classifier_eps5.bin``, ``classifier_eps12.5.bin``)."""
    return f"classifier_eps{repr(eps).removesuffix('.0')}.bin"


def _load_policies(args, epsilons, classifier: str | None = None) -> dict:
    """A policy per ε: the --regressor with ``classifier`` when given, else
    with ε's classifier file under --models-dir."""
    paths = [classifier or os.path.join(args.models_dir, _classifier_name(eps))
             for eps in epsilons]
    regressor, *classifiers = _load_models(
        [(args.regressor, "regressor")] + [(path, "classifier") for path in paths])
    return {eps: Policy(regressor, model, eps)
            for eps, model in zip(epsilons, classifiers)}


def _corpus_inputs(corpus_dir: str) -> list[str]:
    return [os.path.join(corpus_dir, name) for name in ("index.csv", "manifest.csv")
            if os.path.exists(os.path.join(corpus_dir, name))]


def cmd_synth(args) -> int:
    config = _load_config(args)
    flags = {"n_traces": args.n, "mode": args.mode}
    spec = dataclasses.replace(config.genspec, seed=config.seed,
                               **{k: v for k, v in flags.items() if v is not None})
    config = dataclasses.replace(config, genspec=spec)
    corpus = synth.gen_corpus(spec, args.out)
    _write_manifest(os.path.join(args.out, ""), "synth", config, _corpus_inputs(args.out))
    _log(f"generated {len(corpus)} traces under {args.out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    config = _load_config(args)
    files = sorted(
        os.path.join(args.input, f) for f in os.listdir(args.input)
        if f.endswith(".jsonl")
    ) if os.path.isdir(args.input) else [args.input]
    if not files:
        _log(f"no .jsonl files under {args.input}")
        return EXIT_DATA
    ids = [os.path.splitext(os.path.basename(path))[0] for path in files]
    traceio.write_corpus(args.out, ((traceio.parse_trace(path, default_id=tid), "ingested")
                                    for path, tid in zip(files, ids)))
    _write_manifest(os.path.join(args.out, ""), "ingest", config, files)
    _log(f"ingested {len(files)} traces into {args.out}")
    return EXIT_OK


def cmd_train_regressor(args) -> int:
    config = _load_config(args)
    corpus = traceio.read_corpus(args.corpus)
    X, y, _ = label.build_regression_dataset(corpus)
    _log(f"training regressor on {len(X)} samples ({config.gbdt.n_trees} trees)")
    model = train_gbdt(X, y, config.gbdt)
    modelio.save_model(model, args.out)
    _write_manifest(os.path.splitext(args.out)[0] + ".", "train-regressor", config,
                    _corpus_inputs(args.corpus))
    _log(f"final training MSE {model.train_mse[-1]:.4f} -> {args.out}")
    return EXIT_OK


def cmd_train_classifier(args) -> int:
    config = _load_config(args)
    corpus = traceio.read_corpus(args.corpus)
    (regressor,) = _load_models([(args.regressor, "regressor")])
    X, labels, _ = label.build_classification_dataset(corpus, regressor, (args.epsilon,))
    _log(f"training classifier (epsilon={args.epsilon}) on {len(X)} samples")
    model = train_mlp(X, labels[:, 0], config.mlp, seed=config.seed)
    out = args.out or _classifier_name(args.epsilon)
    modelio.save_model(model, out)
    _write_manifest(os.path.splitext(out)[0] + ".", "train-classifier", config,
                    _corpus_inputs(args.corpus) + [args.regressor])
    _log(f"final BCE {model.loss_curve[-1]:.4f} -> {out}")
    return EXIT_OK


def cmd_run(args) -> int:
    _load_config(args)   # no key changes a replay, but a bad file is still a data error
    trace = traceio.parse_trace(args.trace)
    eps = 15.0 if args.epsilon is None else args.epsilon
    (policy,) = _load_policies(args, [eps], args.classifier).values()
    outcome = run_trace(trace, policy)
    print(json.dumps({
        "trace_id": trace.id,
        "stop_time_ms": outcome.stop_time_ms,
        "bytes_at_stop": outcome.bytes_at_stop,
        "estimate_mbps": outcome.estimate_mbps,
        "rel_error": outcome.rel_error,
        "ran_to_completion": outcome.ran_to_completion,
        "reason": outcome.reason,
    }, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args)
    corpus = traceio.read_corpus(args.corpus)
    if args.method == "ml":
        params = _parse_params(args.params.split(","), epsilon)
        policies = _load_policies(args, params)
    else:
        _, parse = heuristics.BASELINE_PARAMS[args.method]
        params = _parse_params(args.params.split(","), parse)
        policies = None
    os.makedirs(args.out, exist_ok=True)
    points, records_by_param = evaluate.pareto_sweep(
        corpus, args.method, params, policies=policies)
    frontier = evaluate.nondominated(points)
    evaluate.write_frontier_csv(os.path.join(args.out, "frontier.csv"), points, frontier)
    all_records = [r for p in params for r in records_by_param[p]]
    evaluate.write_records_csv(os.path.join(args.out, "records.csv"), all_records)
    _write_manifest(os.path.join(args.out, ""), "sweep", config, _corpus_inputs(args.corpus))
    _log(f"swept {args.method} over {len(params)} parameters -> {args.out}")
    return EXIT_OK


def cmd_select(args) -> int:
    config = _load_config(args)
    corpus = traceio.read_corpus(args.corpus)
    given = args.params.split(",") if args.params else label.EPSILON_SWEEP
    epsilons = _parse_params(given, epsilon)
    policies = _load_policies(args, epsilons)
    _, records_by_param = evaluate.pareto_sweep(corpus, "ml", epsilons, policies=policies)
    full_records = evaluate.evaluate_method(corpus, "full")
    os.makedirs(args.out, exist_ok=True)
    group_policies = []
    applied = {}
    for strategy in evaluate.STRATEGIES:
        gp = evaluate.select_adaptive(records_by_param, strategy,
                                      constraint_pct=args.constraint)
        group_policies.append(gp)
        applied[strategy] = evaluate.aggregates(
            evaluate.apply_group_policy(records_by_param, full_records, gp))
    evaluate.write_groups_csv(os.path.join(args.out, "groups.csv"),
                              group_policies, applied)
    _write_manifest(os.path.join(args.out, ""), "select", config, _corpus_inputs(args.corpus))
    for strategy in evaluate.STRATEGIES:
        agg = applied[strategy]
        _log(f"{strategy}: transfer {agg['transfer_fraction']:.3f}, "
             f"median error {agg['median_rel_error']:.3f}")
    return EXIT_OK


def cmd_report(args) -> int:
    records = evaluate.read_records_csv(args.records)
    if not records:
        _log("no records")
        return EXIT_DATA
    agg = evaluate.aggregates(records)
    print(json.dumps({key: agg[key] for key in (
        "n", "median_rel_error", "transfer_fraction", "data_savings", "error_percentiles")},
        indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run-config file")
    common.add_argument("--seed", type=int, help="override config seed")
    parser = argparse.ArgumentParser(
        prog="speedtrim",
        description="Early termination of speed tests: data, models, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus",
                       parents=[common])
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=["balanced", "natural"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate and import external traces", parents=[common])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-regressor", help="fit the throughput regressor", parents=[common])
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_regressor)

    p = sub.add_parser("train-classifier", help="fit the stop classifier", parents=[common])
    p.add_argument("--corpus", required=True)
    p.add_argument("--regressor", required=True)
    p.add_argument("--epsilon", type=epsilon, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("run", help="replay one trace through a policy", parents=[common])
    p.add_argument("--trace", required=True)
    p.add_argument("--regressor", required=True)
    classifier = p.add_mutually_exclusive_group()
    classifier.add_argument("--classifier")
    classifier.add_argument("--models-dir", dest="models_dir")
    p.add_argument("--epsilon", type=epsilon,
                   help="picks the classifier under --models-dir (default 15)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="Pareto sweep of one method", parents=[common])
    p.add_argument("--corpus", required=True)
    p.add_argument("--method", required=True,
                   choices=[*heuristics.BASELINE_PARAMS, "ml"])
    p.add_argument("--params", required=True, help="comma-separated values")
    p.add_argument("--regressor")
    p.add_argument("--models-dir", dest="models_dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("select", help="adaptive per-group parameter selection", parents=[common])
    p.add_argument("--corpus", required=True)
    p.add_argument("--regressor", required=True)
    p.add_argument("--models-dir", dest="models_dir", required=True)
    p.add_argument("--params", help="epsilon list, comma-separated")
    p.add_argument("--constraint", type=epsilon, default=evaluate.DEFAULT_CONSTRAINT_PCT,
                   help="error bound in percent, a finite number > 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("report", help="aggregate a records.csv", parents=[common])
    p.add_argument("--records", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _check_model_flags(parser: argparse.ArgumentParser, args) -> None:
    """Usage error (exit 2) when no classifier path can be formed, or when
    ε would go unread."""
    if args.command == "run" and args.classifier is None and args.models_dir is None:
        parser.error("run needs --classifier or --models-dir")
    if args.command == "run" and args.classifier is not None and args.epsilon is not None:
        parser.error("run takes --epsilon with --models-dir, not with --classifier, "
                     "whose file it would not read")
    if args.command == "sweep" and args.method == "ml":
        for flag, value in (("--regressor", args.regressor), ("--models-dir", args.models_dir)):
            if value is None:
                parser.error(f"sweep --method ml needs {flag}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_model_flags(parser, args)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        _log(f"model error: {exc}")
        return EXIT_MODEL
    except (traceio.ParseError, ValidationError, FileNotFoundError, ValueError) as exc:
        _log(f"data error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
