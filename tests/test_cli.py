import csv
import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil

import numpy as np
import pytest

from speedtrim import core, evaluate, synth
from speedtrim.cli import build_parser, main
from speedtrim.config import RunConfig
from speedtrim.gbdt import GbdtParams
from speedtrim.label import EPSILON_SWEEP
from speedtrim.mlp import MlpParams

import util


def sha_tree(root):
    """Map of relative path -> sha256 for every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run(*argv):
    return main(list(argv))


class TestSynth:
    def test_deterministic_directory(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("synth", "--n", "10", "--seed", "7", "--out", a) == 0
        assert run("synth", "--n", "10", "--seed", "7", "--out", b) == 0
        assert sha_tree(a) == sha_tree(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("synth", "--n", "5", "--seed", "1", "--out", a)
        run("synth", "--n", "5", "--seed", "2", "--out", b)
        ha = {k: v for k, v in sha_tree(a).items() if k.endswith(".jsonl")}
        hb = {k: v for k, v in sha_tree(b).items() if k.endswith(".jsonl")}
        assert ha != hb

    def test_manifest_written(self, tmp_path):
        out = str(tmp_path / "c")
        run("synth", "--n", "5", "--seed", "3", "--out", out)
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert "index.csv" in manifest["inputs"]

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--preset", "bogus", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [("--preset", "hard"), ("--hard-fraction", "0.5")])
    def test_generator_settings_are_config_keys_only(self, tmp_path, capsys, flag):
        # genspec.preset names the base preset; a share of hard traces is gone
        with pytest.raises(SystemExit) as exc:
            run("synth", *flag, "--out", str(tmp_path / "x"))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_genspec_keys_apply_on_top_of_its_preset(self, tmp_path):
        config, out = tmp_path / "config.json", tmp_path / "hard"
        config.write_text(json.dumps(
            {"genspec": {"preset": "hard", "noise_rel_std": 0.5, "n_traces": 2}}))
        assert run("synth", "--config", str(config), "--seed", "3", "--out", str(out)) == 0
        with open(out / "genspec.json") as fh:
            written = json.load(fh)
        hard = dataclasses.asdict(synth.PRESETS["hard"])
        assert written == dict(hard, noise_rel_std=0.5, n_traces=2, seed=3, **{
            k: list(v) for k, v in hard.items() if isinstance(v, tuple)})
        with open(out / "manifest.csv", newline="") as fh:
            assert [row["preset"] for row in csv.DictReader(fh)] == ["hard", "hard"]

    def test_unknown_preset_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"genspec": {"preset": "bogus"}}')
        capsys.readouterr()
        assert run("synth", "--config", str(config), "--out", str(tmp_path / "x")) == 3
        assert "unknown preset 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mode, keys", [
        ("balanced", "genspec.capacity_range decides"),
        ("natural", "genspec.capacity_range and tier_weights decide"),
    ])
    def test_unreachable_tier_names_the_config_keys(self, tmp_path, capsys, mode, keys):
        # a 2 Mbps capacity cap leaves tier 1 out of reach; the config passes
        # every check, so the generator's message names the keys to change
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"genspec": {"mode": mode, "capacity_range": [1, 2]}}))
        capsys.readouterr()
        assert run("synth", "--n", "3", "--config", str(config), "--out", str(tmp_path / "x")) == 3
        err = capsys.readouterr().err
        assert "no draw landed in tier 1 (26.5-98 Mbps)/bin" in err
        assert f"{keys} which tiers can be reached (capacity_range is 1-2 Mbps)" in err

    def test_failed_synth_leaves_no_partial_corpus(self, tmp_path, capsys):
        # trace 0 is drawn and written before trace 1 finds no draw
        out = tmp_path / "x"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"genspec": {"capacity_range": [1, 2]}}))
        assert run("synth", "--n", "3", "--config", str(config), "--out", str(out)) == 3
        assert os.listdir(out) == []
        # a corpus already there stays as it was
        assert run("synth", "--n", "2", "--out", str(out)) == 0
        before = sha_tree(out)
        assert run("synth", "--n", "3", "--config", str(config), "--out", str(out)) == 3
        assert sha_tree(out) == before
        assert sorted(os.listdir(tmp_path)) == ["config.json", "x"]

    def test_no_trace_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"genspec": {"n_traces": 0}}')
        for args in (["--n", "0"], ["--config", str(config)]):
            capsys.readouterr()
            assert run("synth", *args, "--out", str(tmp_path / "x")) == 3
            assert "n_traces must lie in [1, inf], got 0" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()


class TestIngest:
    def test_round_trip(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        trace = util.constant_rate_trace(50.0, duration_s=2)
        from speedtrim.traceio import dump_trace
        (raw / "probe.jsonl").write_bytes(dump_trace(trace))
        out = str(tmp_path / "corpus")
        assert run("ingest", "--in", str(raw), "--out", out) == 0
        from speedtrim.traceio import read_corpus
        corpus = read_corpus(out)
        assert len(corpus) == 1

    def test_corrupt_input_is_data_error(self, tmp_path, capsys):
        from speedtrim.traceio import dump_trace
        zero_bytes = dump_trace(util.make_trace([0, 500_000, 1_000_000], 0, id="idle"))
        huge = dump_trace(util.make_trace([0, 500_000, 1_000_000], [0, 10, 20], id="huge"))
        huge = huge.replace(b'"bytes_acked": 20', b'"bytes_acked": %d' % 2 ** 70)
        early = dump_trace(util.make_trace([0, 500_000, 1_000_000], [0, 10, 20], id="early"))
        early = early.replace(b'"t_us": 0,', b'"t_us": -500000,')     # a Trace rejects it
        long = dump_trace(util.make_trace([0, 500_000, 1_000_000], [0, 10, 20], id="long"))
        long = long.replace(b'"t_us": 1000000', b'"t_us": 60000001')
        for i, (content, message) in enumerate([
            (b"{not json\n", "line 1: malformed JSON"),
            (b"[1, 2]\n", "line 1: expected a JSON object, got list"),
            (zero_bytes, "trace 'idle': no bytes acked"),
            (huge, "line 4: value outside the 64-bit integer range"),
            (early, "trace 'early': negative t_us -500000"),
            (long, "trace 'long': last t_us 60000001 exceeds the test-length cap"),
            (b'{"id": "x", "duration_us": %d}\n' % 2 ** 70 + zero_bytes.split(b"\n", 1)[1],
             "line 1: duration_us outside the 64-bit integer range"),
            (b"{}\n" + b"[" * 200000 + b"]" * 200000 + b"\n",
             "line 2: malformed JSON (nesting too deep)"),
            (zero_bytes.replace(b'"id"', b'"\xffd"'), "line 1: invalid UTF-8"),
        ]):
            raw = tmp_path / f"raw{i}"
            raw.mkdir()
            (raw / "bad.jsonl").write_bytes(content)
            capsys.readouterr()
            assert run("ingest", "--in", str(raw), "--out", str(tmp_path / f"c{i}")) == 3
            assert message in capsys.readouterr().err


    def test_failed_ingest_leaves_no_partial_corpus(self, tmp_path, capsys):
        from speedtrim.traceio import dump_trace
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "a.jsonl").write_bytes(dump_trace(util.constant_rate_trace(50.0, duration_s=1)))
        (raw / "b.jsonl").write_bytes(b"{not json\n")
        capsys.readouterr()
        assert run("ingest", "--in", str(raw), "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["out", "raw"]
        assert os.listdir(tmp_path / "out") == []
        # the error names the bad file
        assert f"data error: {raw / 'b.jsonl'}: line 1: malformed JSON" in err

    @pytest.mark.parametrize("trace_id", ["../up", "a/b", "a" * 300, "tab\there"])
    def test_id_must_name_a_corpus_file(self, tmp_path, capsys, trace_id):
        # a header id becomes the trace's file name under --out
        from speedtrim.traceio import dump_trace
        raw = tmp_path / "raw"
        raw.mkdir()
        trace = util.constant_rate_trace(50.0, duration_s=1, id=trace_id)
        (raw / "x.jsonl").write_bytes(dump_trace(trace))
        assert run("ingest", "--in", str(raw), "--out", str(tmp_path / "out")) == 3
        assert "cannot name a corpus file" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["out", "raw"]
        assert os.listdir(tmp_path / "out") == []

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        from speedtrim.traceio import dump_trace
        raw = tmp_path / "raw"
        raw.mkdir()
        for name, rate in (("a", 50.0), ("b", 60.0)):
            trace = util.constant_rate_trace(rate, duration_s=1, id="same")
            (raw / f"{name}.jsonl").write_bytes(dump_trace(trace))
        assert run("ingest", "--in", str(raw), "--out", str(tmp_path / "out")) == 3
        assert "duplicate trace id 'same'" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--frobnicate", "--out", "x")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("train-regressor", "--corpus", "c", "--out", "r.bin"), ("--trees", "3")),
        (("train-regressor", "--corpus", "c", "--out", "r.bin"), ("--depth", "3")),
        (("train-classifier", "--corpus", "c", "--regressor", "r.bin", "--epsilon", "15"),
         ("--epochs", "1")),
        (("run", "--trace", "t.jsonl", "--regressor", "r.bin", "--classifier", "c.bin"),
         ("--no-guard",)),
    ], ids=["trees", "depth", "epochs", "no-guard"])
    def test_model_and_guard_settings_are_config_keys_only(self, argv, flag, capsys):
        # gbdt.n_trees, gbdt.max_depth and mlp.epochs set these; the guard is fixed
        with pytest.raises(SystemExit) as exc:
            run(*argv, *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("run", "--trace", "t.jsonl", "--regressor", "r.bin"), "--classifier or --models-dir"),
        (("sweep", "--corpus", "c", "--method", "ml", "--params", "15",
          "--regressor", "r.bin", "--out", "o"), "--models-dir"),
        (("sweep", "--corpus", "c", "--method", "ml", "--params", "15",
          "--models-dir", "m", "--out", "o"), "--regressor"),
    ])
    def test_no_model_path_is_usage_error(self, argv, flag, capsys):
        # checked before any file is read, so the paths need not exist
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert f"needs {flag}" in capsys.readouterr().err

    def test_run_takes_one_classifier_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("run", "--trace", "t.jsonl", "--regressor", "r.bin", "--classifier", "c.bin",
                "--models-dir", "m")
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_run_epsilon_goes_with_models_dir_only(self, capsys):
        # ε picks a file under --models-dir; beside --classifier nothing reads it
        with pytest.raises(SystemExit) as exc:
            run("run", "--trace", "t.jsonl", "--regressor", "r.bin", "--classifier", "c.bin",
                "--epsilon", "5")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--epsilon" in err and "--classifier" in err

    def test_missing_corpus(self, tmp_path):
        assert run("train-regressor", "--corpus", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "m.bin")) == 3

    def test_corrupt_model(self, tmp_path, cli_pipeline):
        bad = tmp_path / "bad.bin"
        data = bytearray(open(cli_pipeline["regressor"], "rb").read())
        data[len(data) // 2] ^= 0xFF
        bad.write_bytes(bytes(data))
        trace_path = cli_pipeline["trace_path"]
        assert run("run", "--trace", trace_path, "--regressor", str(bad),
                   "--classifier", cli_pipeline["classifier"]) == 4


@pytest.fixture(scope="module")
def cli_pipeline(tmp_path_factory):
    """Small end-to-end artifact set: corpus, regressor, one classifier."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus_dir = str(root / "corpus")
    regressor = str(root / "models" / "regressor.bin")
    classifier = str(root / "models" / "classifier_eps15.bin")
    config = root / "config.json"
    config.write_text(json.dumps({"gbdt": {"n_trees": 15, "max_depth": 4},
                                  "mlp": {"epochs": 3}}))
    assert run("synth", "--n", "10", "--seed", "11", "--out", corpus_dir) == 0
    assert run("train-regressor", "--config", str(config), "--corpus", corpus_dir,
               "--seed", "11", "--out", regressor) == 0
    assert run("train-classifier", "--config", str(config), "--corpus", corpus_dir,
               "--regressor", regressor, "--epsilon", "15", "--seed", "11",
               "--out", classifier) == 0
    with open(os.path.join(corpus_dir, "index.csv"), newline="") as fh:
        first = next(csv.DictReader(fh))
    return {
        "root": root,
        "corpus": corpus_dir,
        "regressor": regressor,
        "classifier": classifier,
        "models_dir": str(root / "models"),
        "trace_path": os.path.join(corpus_dir, first["file"]),
    }


class TestPipeline:
    def test_run_outputs_json(self, cli_pipeline, capsys):
        assert run("run", "--trace", cli_pipeline["trace_path"],
                   "--regressor", cli_pipeline["regressor"],
                   "--classifier", cli_pipeline["classifier"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0 < out["stop_time_ms"] <= 10_000
        assert out["reason"] in ("classifier", "end-of-trace")

    @pytest.mark.parametrize("method, params, labels", [
        ("static", "10MB,25MB", ["cap_bytes=10000000", "cap_bytes=25000000"]),
        ("bbr", "1,2,3,5,7", ["k=1", "k=2", "k=3", "k=5", "k=7"]),
        ("tsh", "10,20,30", ["tol_pct=10.0", "tol_pct=20.0", "tol_pct=30.0"]),
        ("cis", "0.7,0.9", ["beta=0.7", "beta=0.9"]),
    ], ids=["static", "bbr", "tsh", "cis"])
    def test_sweep_bbr_frontier(self, cli_pipeline, tmp_path, method, params, labels):
        out = str(tmp_path / "sweep")
        assert run("sweep", "--corpus", cli_pipeline["corpus"],
                   "--method", method, "--params", params,
                   "--out", out) == 0
        with open(os.path.join(out, "frontier.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["param"] for r in rows] == labels
        assert {r["nondominated"] for r in rows} <= {"0", "1"}
        with open(os.path.join(out, "records.csv"), newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["param"] for r in records] == [p for p in labels for _ in range(10)]
        if method != "static":
            # stride stops and full runs are whole milliseconds, written as ints
            assert all(r["stop_ms"].isdigit() for r in records)

    def test_sweep_static_accepts_sizes(self, cli_pipeline, tmp_path):
        out = str(tmp_path / "sweep")
        assert run("sweep", "--corpus", cli_pipeline["corpus"],
                   "--method", "static", "--params", "10MB,25MB",
                   "--out", out) == 0
        # the records hold plain numbers that report reads back
        assert run("report", "--records", os.path.join(out, "records.csv")) == 0

    def test_report_matches_records(self, cli_pipeline, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        run("sweep", "--corpus", cli_pipeline["corpus"], "--method", "bbr",
            "--params", "3", "--out", out)
        capsys.readouterr()
        assert run("report", "--records", os.path.join(out, "records.csv")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 10
        assert 0 <= report["transfer_fraction"] <= 1
        with open(os.path.join(out, "records.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = np.array([float(r["rel_error"]) for r in rows])
        fraction = (sum(int(r["bytes_early"]) for r in rows)
                    / sum(int(r["bytes_full"]) for r in rows))
        assert report == {
            "n": 10,
            "median_rel_error": float(np.median(errors)),
            "transfer_fraction": fraction,
            "data_savings": 1.0 - fraction,
            "error_percentiles": {str(p): float(np.percentile(errors, p))
                                  for p in (50, 75, 90, 95, 99)},
        }

    def test_report_bad_row_is_data_error(self, cli_pipeline, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        run("sweep", "--corpus", cli_pipeline["corpus"], "--method", "bbr",
            "--params", "3", "--out", out)
        with open(os.path.join(out, "records.csv"), newline="") as fh:
            reader = csv.DictReader(fh)
            columns, rows = reader.fieldnames, list(reader)
        good = rows[0]
        for i, (row, drop, message) in enumerate([
            (good, "rel_error", "line 2: missing rel_error"),
            (good, "ran_to_completion", "line 3: missing ran_to_completion"),
            (dict(good, bytes_early="lots"), None, "line 3: invalid literal"),
            (dict(good, rel_error="np.float64(0.1)"), None,
             "line 3: could not convert string to float"),
            (dict(good, bytes_full="0"), None, "line 3: bytes_full must be positive, got 0"),
            (dict(good, ran_to_completion="7"), None,
             "line 3: ran_to_completion must be 0 or 1, got '7'"),
        ]):
            path = str(tmp_path / f"bad{i}.csv")
            with open(path, "w", newline="") as fh:
                if drop == "rel_error":
                    # the column is gone from the header and every row
                    keep = [c for c in columns if c != drop]
                    w = csv.DictWriter(fh, keep, extrasaction="ignore")
                    w.writeheader()
                    w.writerow(row)
                else:
                    w = csv.writer(fh)
                    w.writerow(columns)
                    w.writerow([good[c] for c in columns])
                    # a short row when drop names the last column
                    w.writerow([row[c] for c in columns if c != drop])
            capsys.readouterr()
            assert run("report", "--records", path) == 3, message
            assert message in capsys.readouterr().err

    def test_sweep_and_select_decode_each_trace_once(self, cli_pipeline, tmp_path,
                                                     monkeypatch):
        corpus = cli_pipeline["corpus"]
        models = tmp_path / "models"
        models.mkdir()
        for eps in (10, 15):
            shutil.copy(cli_pipeline["classifier"], models / f"classifier_eps{eps}.bin")
        with open(os.path.join(corpus, "index.csv"), newline="") as fh:
            once = {row["file"]: 1 for row in csv.DictReader(fh)}
        decodes = util.count_decodes(monkeypatch)
        for argv in (
            ["sweep", "--corpus", corpus, "--method", "bbr", "--params", "1,3,5",
             "--out", str(tmp_path / "sweep")],
            ["select", "--corpus", corpus, "--regressor", cli_pipeline["regressor"],
             "--models-dir", str(models), "--params", "10,15", "--out", str(tmp_path / "select")],
        ):
            decodes.clear()
            assert run(*argv) == 0
            assert decodes == once, argv[0]

    def test_select_writes_groups(self, cli_pipeline, tmp_path):
        out = str(tmp_path / "select")
        assert run("select", "--corpus", cli_pipeline["corpus"],
                   "--regressor", cli_pipeline["regressor"],
                   "--models-dir", cli_pipeline["models_dir"],
                   "--params", "15", "--out", out) == 0
        with open(os.path.join(out, "groups.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        strategies = {r["strategy"] for r in rows}
        assert strategies == {"global", "speed-only", "rtt-only",
                              "rtt+speed", "oracle"}


# A config file as bench/run.py writes it: a few gbdt and mlp keys and a seed.
BENCH_CONFIG = {"gbdt": {"n_trees": 60, "max_depth": 5, "min_samples_leaf": 20,
                         "objective": "log-mse"},
                "mlp": {"epochs": 6}, "seed": 7}


class TestEpsilon:
    """ε is a finite number > 0 wherever it is given; its classifier file
    names it in full, and records and groups label it as a float."""

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5", "1e400"])
    def test_bad_epsilon_flag_is_usage_error(self, value, capsys):
        # checked by the parser, before any file is read
        with pytest.raises(SystemExit) as exc:
            run("run", "--trace", "t.jsonl", "--regressor", "r.bin", "--classifier", "c.bin",
                "--epsilon", value)
        assert exc.value.code == 2
        assert f"invalid epsilon value: '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "select"])
    @pytest.mark.parametrize("params", ["inf", "15,nan", "0"])
    def test_bad_ml_params_are_data_errors(self, cli_pipeline, tmp_path, capsys, command, params):
        argv = [command, "--corpus", cli_pipeline["corpus"], "--regressor",
                cli_pipeline["regressor"], "--models-dir", cli_pipeline["models_dir"],
                "--params", params, "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert run(*argv, *(["--method", "ml"] if command == "sweep" else [])) == 3
        assert "epsilon must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, method, params, repeat", [
        ("sweep", "static", "10MB,10000000", "10000000 twice: as '10MB' and as '10000000'"),
        ("sweep", "bbr", "3,3", "3 twice: as '3' and as '3'"),
        ("sweep", "ml", "5,5.0", "5.0 twice: as '5' and as '5.0'"),
        ("select", None, "15,10,15.0", "15.0 twice: as '15' and as '15.0'"),
    ])
    def test_repeated_params_are_data_errors(self, cli_pipeline, tmp_path, capsys,
                                             command, method, params, repeat):
        # a repeat would count each trace twice in records.csv and the frontier
        argv = [command, "--corpus", cli_pipeline["corpus"], "--regressor",
                cli_pipeline["regressor"], "--models-dir", cli_pipeline["models_dir"],
                "--params", params, "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert run(*argv, *(["--method", method] if method else [])) == 3
        assert f"--params gives {repeat}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, params, rule", [
        *[("static", value, "cap_bytes must be a finite size > 0 bytes")
          for value in ("nan", "inf", "infMB", "-5", "0")],
        *[("bbr", value, "k must be an integer >= 1") for value in ("nan", "0", "-5", "1.5")],
        *[("tsh", value, "tol_pct must be a finite number > 0")
          for value in ("nan", "inf", "-5", "0")],
        *[("cis", value, "beta must be in (0, 1]") for value in ("nan", "inf", "0", "1.5")],
    ])
    def test_bad_baseline_params_are_data_errors(self, cli_pipeline, tmp_path, capsys,
                                                 method, params, rule):
        # checked where the value is parsed, before --out is made
        capsys.readouterr()
        assert run("sweep", "--corpus", cli_pipeline["corpus"], "--method", method,
                   "--params", params, "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert f"data error: {rule}, got '{params}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
    def test_bad_constraint_is_usage_error(self, value, capsys):
        # a constraint no group meets, or every group meets, would go unnoticed
        with pytest.raises(SystemExit) as exc:
            run("select", "--corpus", "c", "--regressor", "r.bin", "--models-dir", "m",
                "--constraint", value, "--out", "o")
        assert exc.value.code == 2
        assert f"invalid epsilon value: '{value}'" in capsys.readouterr().err

    def test_constraint_defaults_to_the_evaluate_default(self):
        args = build_parser().parse_args(["select", "--corpus", "c", "--regressor", "r.bin",
                                          "--models-dir", "m", "--out", "o"])
        assert args.constraint == evaluate.DEFAULT_CONSTRAINT_PCT

    def test_fractional_epsilon_names_its_classifier(self, cli_pipeline, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open("config.json", "w") as fh:
            json.dump({"mlp": {"epochs": 1}}, fh)
        assert run("train-classifier", "--config", "config.json", "--corpus",
                   cli_pipeline["corpus"], "--regressor", cli_pipeline["regressor"],
                   "--epsilon", "12.5") == 0
        assert os.path.exists("classifier_eps12.5.bin")
        assert run("run", "--trace", cli_pipeline["trace_path"], "--regressor",
                   cli_pipeline["regressor"], "--models-dir", ".", "--epsilon", "12.5") == 0
        assert run("sweep", "--corpus", cli_pipeline["corpus"], "--method", "ml",
                   "--params", "12.5", "--regressor", cli_pipeline["regressor"],
                   "--models-dir", ".", "--out", "sweep") == 0
        with open(os.path.join("sweep", "records.csv"), newline="") as fh:
            assert {r["param"] for r in csv.DictReader(fh)} == {"12.5"}

    @pytest.fixture
    def sweep_models(self, cli_pipeline, tmp_path):
        """A models directory with a classifier file for every ε of EPSILON_SWEEP."""
        models = tmp_path / "sweep_models"
        models.mkdir()
        for eps in EPSILON_SWEEP:
            shutil.copy(cli_pipeline["classifier"], models / f"classifier_eps{eps}.bin")
        return str(models)

    def select_groups(self, cli_pipeline, models_dir, out, *flags):
        """groups.csv text of a select run with a constraint every ε meets."""
        assert run("select", "--corpus", cli_pipeline["corpus"],
                   "--regressor", cli_pipeline["regressor"], "--models-dir", models_dir,
                   *flags, "--constraint", "100", "--out", str(out)) == 0
        return (out / "groups.csv").read_text()

    def test_select_labels_epsilon_as_a_float(self, cli_pipeline, sweep_models, tmp_path):
        sweep = {repr(float(eps)) for eps in EPSILON_SWEEP}
        for flags, labels in (([], sweep), (["--params", "15"], {"15.0"})):
            out = tmp_path / f"select{len(flags)}"
            groups = self.select_groups(cli_pipeline, sweep_models, out, *flags)
            params = {r["param"] for r in csv.DictReader(groups.splitlines())}
            assert params - {""} and params <= labels | {""}, flags

    def test_select_without_params_takes_the_epsilon_sweep(self, cli_pipeline, sweep_models,
                                                           tmp_path):
        default = self.select_groups(cli_pipeline, sweep_models, tmp_path / "default")
        given = self.select_groups(cli_pipeline, sweep_models, tmp_path / "given", "--params",
                                   ",".join(map(str, EPSILON_SWEEP)))
        assert default == given


class TestConfig:
    def test_written_config_reproduces_the_run(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("synth", "--n", "3", "--seed", "5", "--mode", "natural", "--out", a) == 0
        # the config carries the seed, count and mode; the flags are not repeated
        assert run("synth", "--config", os.path.join(a, "config.json"), "--out", b) == 0
        assert sha_tree(a) == sha_tree(b)
        # the run's seed is the generator's: genspec holds none of its own
        with open(os.path.join(a, "config.json")) as fh:
            written = json.load(fh)
        assert written["seed"] == 5 and "seed" not in written["genspec"]

    def test_every_section_round_trips(self, cli_pipeline):
        path = os.path.join(cli_pipeline["models_dir"], "classifier_eps15.config.json")
        with open(path) as fh:
            assert RunConfig.from_file(path).to_json() == fh.read()

    def test_each_model_keeps_its_own_provenance(self, cli_pipeline):
        models = cli_pipeline["models_dir"]
        assert sorted(os.listdir(models)) == [
            "classifier_eps15.bin", "classifier_eps15.config.json",
            "classifier_eps15.manifest.json", "regressor.bin", "regressor.config.json",
            "regressor.manifest.json"]
        manifests = {}
        for stem in ("regressor", "classifier_eps15"):
            with open(os.path.join(models, f"{stem}.manifest.json")) as fh:
                manifests[stem] = json.load(fh)
        assert manifests["regressor"]["command"] == "train-regressor"
        assert sorted(manifests["regressor"]["inputs"]) == ["index.csv", "manifest.csv"]
        assert manifests["classifier_eps15"]["command"] == "train-classifier"
        assert sorted(manifests["classifier_eps15"]["inputs"]) == [
            "index.csv", "manifest.csv", "regressor.bin"]
        config = RunConfig.from_file(os.path.join(models, "regressor.config.json"))
        assert (config.gbdt.n_trees, config.gbdt.max_depth, config.seed) == (15, 4, 11)

    def test_bench_config_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BENCH_CONFIG))
        assert RunConfig.from_file(str(path)) == RunConfig(
            seed=7, gbdt=GbdtParams(n_trees=60, max_depth=5, min_samples_leaf=20,
                                    objective="log-mse"), mlp=MlpParams(epochs=6))

    def test_left_out_keys_keep_the_defaults(self):
        config = RunConfig.from_dict({"gbdt": {"n_trees": 60}, "mlp": {"epochs": 2},
                                      "genspec": {"n_traces": 7}})
        assert config.gbdt == dataclasses.replace(RunConfig().gbdt, n_trees=60)
        assert config.mlp == dataclasses.replace(RunConfig().mlp, epochs=2)
        assert config.genspec == dataclasses.replace(synth.PRESETS["default"], n_traces=7)

    @pytest.mark.parametrize("config, message", [
        ('{"gbdt": {"foo": 1}}', "unknown gbdt parameter 'foo'"),
        ("[1]", "config is not a JSON object"),
        ('{"stride_ms": 500}', "unknown config parameter 'stride_ms'"),
        # the guard and the stop threshold are fixed, like the decision grid:
        # any guard section, well-typed or not, is an unknown key
        *[pytest.param(config, "unknown config parameter 'guard'",
                       id=f"{config}-guard is not a config parameter")
          for config in ('{"guard": "on"}', '{"guard": {"enabled": 1}}',
                         '{"guard": {"v_max": "x"}}', '{"guard": {"window_ms": 2000}}')],
        ('{"threshold": 0.5}', "unknown config parameter 'threshold'"),
        ('{"genspec": {"preset": "bogus"}}', "unknown preset 'bogus'"),
        ('{"genspec": {"preset": ["hard"]}}', "unknown preset ['hard']"),
        ('{"genspec": {"hard_fraction": 0.5}}', "unknown genspec parameter 'hard_fraction'"),
        ('{"seed": 7.0}', "config parameter 'seed' has type float"),
        ('{"genspec": {"capacity_range": [1, "10"]}}',
         "genspec parameter 'capacity_range' item has type str"),
        ('{"mlp": {"learning_rate": NaN}}', "mlp parameter 'learning_rate' is not a finite number"),
        # row subsampling, dropout and the Adam constants are no longer knobs
        ('{"gbdt": {"subsample": 0.7}}', "unknown gbdt parameter 'subsample'"),
        ('{"gbdt": {"seed": 3}}', "unknown gbdt parameter 'seed'"),
        ('{"mlp": {"dropout": 0.2}}', "unknown mlp parameter 'dropout'"),
        ('{"mlp": {"adam_beta1": 0.9}}', "unknown mlp parameter 'adam_beta1'"),
        # ε lists are command arguments, the run's seed is the one seed, and
        # the MLP's input and output widths come from the data
        ('{"epsilons": [5, 10]}', "unknown config parameter 'epsilons'"),
        ('{"mlp": {"seed": 3}}', "unknown mlp parameter 'seed'"),
        ('{"mlp": {"layers": [1301, 256, 64, 1]}}', "unknown mlp parameter 'layers'"),
        ('{"genspec": {"seed": 9}}', "unknown genspec parameter 'seed'"),
        ('{"mlp": {"hidden": [256, 0]}}', "mlp: hidden widths must be >= 1"),
        ('{"gbdt": {"n_trees": 0}}', "gbdt: n_trees must be >= 1"),
        ('{"genspec": {"snapshot_ms": 0}}', "genspec: snapshot_ms must lie in"),
        # settings inside the limits that could never draw a valid trace
        ('{"genspec": {"duration_s": 60, "snapshot_ms": 1}}',
         "genspec: timestamp_jitter_ms 2.0 can tie or reorder two snapshot times"),
        ('{"genspec": {"timestamp_jitter_ms": 1000, "snapshot_ms": 1}}',
         "genspec: timestamp_jitter_ms 1000.0 can tie or reorder two snapshot times"),
        ('{"genspec": {"snapshot_ms": 1000, "duration_s": 0.5}}',
         "genspec: duration_s 0.5 holds no step of snapshot_ms 1000.0"),
        ('{"genspec": {"plateau_span": [2, 1]}}',
         "genspec: plateau_span must run from low to high, got (2.0, 1.0)"),
        ('{"genspec": {"capacity_range": [100, 10]}}',
         "genspec: capacity_range must run from low to high"),
        ('{"genspec": {"rtt_bin_weights": [0, 0, 0, 0, 0]}}',
         "genspec: rtt_bin_weights must have a finite sum > 0"),
        ('{"genspec": {"tier_weights": [1e308, 1e308, 0, 0, 0]}}',
         "genspec: tier_weights must have a finite sum > 0"),
        ('{"gbdt": ', "Expecting value"),
    ])
    def test_bad_config_is_data_error_naming_the_key(self, cli_pipeline, tmp_path, capsys,
                                                    config, message):
        path = tmp_path / "config.json"
        path.write_text(config)
        capsys.readouterr()
        assert run("run", "--config", str(path), "--trace", cli_pipeline["trace_path"],
                   "--regressor", cli_pipeline["regressor"],
                   "--classifier", cli_pipeline["classifier"]) == 3
        assert message in capsys.readouterr().err

    def test_formats_doc_lists_every_key(self):
        """docs/formats.md's --config table names exactly RunConfig's fields
        and, for each section, the fields of its class (genspec without the
        seed, which is the run's); its decision-grid paragraph names every
        constant of core's decision grid."""
        path = os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")
        with open(path) as fh:
            doc = fh.read()
        table = doc.split("The accepted keys are:")[1].split("\n\n")[1]
        documented = {}
        for row in table.splitlines()[2:]:
            key, value = row.strip("|").split("|")
            # an object row lists its fields before the first parenthesis
            fields = re.findall(r"`(\w+)`", value.split("(")[0]) if "object:" in value else None
            documented[re.search(r"`(\w+)`", key).group(1)] = fields
        config = RunConfig()
        expected = {}
        for f in dataclasses.fields(config):
            section = getattr(config, f.name)
            expected[f.name] = ([g.name for g in dataclasses.fields(section)
                                 if (f.name, g.name) != ("genspec", "seed")]
                                if dataclasses.is_dataclass(section) else None)
        assert documented == expected
        grid = doc.split("The decision grid is fixed")[1].split("\n\n")[0]
        source = inspect.getsource(core).split("# Decision grid:")[1].split("\n\n")[0]
        constants = set(re.findall(r"^([A-Z_]+) = ", source, re.M))
        assert constants >= {"WINDOW_MS", "STRIDE_MS", "GUARD_WINDOW_MS", "GUARD_V_MAX",
                             "STOP_THRESHOLD"}
        assert constants <= set(re.findall(r"`(?:core\.)?([A-Z_]+)`", grid))

    def test_good_config_runs(self, cli_pipeline, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BENCH_CONFIG))
        assert run("run", "--config", str(path), "--trace", cli_pipeline["trace_path"],
                   "--regressor", cli_pipeline["regressor"],
                   "--classifier", cli_pipeline["classifier"]) == 0
