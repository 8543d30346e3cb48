import copy
import itertools
import json
import struct
import warnings
import zlib

import numpy as np
import pytest

from speedtrim import modelio
from speedtrim.gbdt import GbdtModel, GbdtParams, train_gbdt
from speedtrim.mlp import MlpModel, MlpParams, train_mlp
from speedtrim.modelio import (
    ModelFormatError,
    dump_model,
    load_model,
    load_model_bytes,
    save_model,
)


@pytest.fixture(scope="module")
def gbdt_model():
    rng = np.random.default_rng(0)
    X = rng.random((150, 5))
    y = 2.0 * X[:, 0] + X[:, 3]
    return train_gbdt(X, y, GbdtParams(n_trees=12, max_depth=3))


@pytest.fixture(scope="module")
def mlp_model():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 5))
    y = (X[:, 0] > 0).astype(float)
    return train_mlp(X, y, MlpParams(hidden=(4,), epochs=5))


class TestRoundTrip:
    def test_gbdt_predictions_bit_exact(self, gbdt_model):
        back = load_model_bytes(dump_model(gbdt_model))
        rng = np.random.default_rng(2)
        X = rng.random((100, 5))
        np.testing.assert_array_equal(back.predict(X), gbdt_model.predict(X))
        assert back.train_mse == gbdt_model.train_mse
        assert back.params == gbdt_model.params

    def test_mlp_predictions_bit_exact(self, mlp_model):
        back = load_model_bytes(dump_model(mlp_model))
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 5))
        np.testing.assert_array_equal(back.predict_proba(X), mlp_model.predict_proba(X))
        assert back.params == mlp_model.params

    def test_serialization_is_byte_deterministic(self, gbdt_model, mlp_model):
        assert dump_model(gbdt_model) == dump_model(gbdt_model)
        assert dump_model(mlp_model) == dump_model(mlp_model)
        assert dump_model(load_model_bytes(dump_model(gbdt_model))) == dump_model(gbdt_model)

    def test_file_round_trip(self, tmp_path, gbdt_model):
        path = str(tmp_path / "m.bin")
        save_model(gbdt_model, path)
        back = load_model(path)
        assert back.base_prediction == gbdt_model.base_prediction


class TestCorruption:
    def test_truncated_file(self, gbdt_model):
        blob = dump_model(gbdt_model)
        with pytest.raises(ModelFormatError, match="checksum|truncated"):
            load_model_bytes(blob[:-10])

    def test_flipped_byte(self, gbdt_model):
        blob = bytearray(dump_model(gbdt_model))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ModelFormatError):
            load_model_bytes(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(ModelFormatError, match="magic"):
            load_model_bytes(b"NOPE" + b"\x00" * 64)

    def test_version_mismatch(self, gbdt_model, mlp_model):
        # version 1 held the classifier's weights as trained, so its W0 and
        # b0 must never be read as the folded first layer
        for model, version in itertools.product((gbdt_model, mlp_model), (1, 99)):
            blob = bytearray(dump_model(model)[:-4])
            blob[4] = version  # format version field
            blob += struct.pack("<I", zlib.crc32(bytes(blob)))
            with pytest.raises(ModelFormatError, match=f"unsupported format version {version}$"):
                load_model_bytes(bytes(blob))

    def test_array_written_twice(self, tmp_path, mlp_model):
        from speedtrim.cli import EXIT_MODEL, main
        from speedtrim.traceio import dump_trace
        import util
        # b0 renamed: the file holds two arrays named W0
        classifier = tmp_path / "classifier.bin"
        classifier.write_bytes(with_block(dump_model(mlp_model), b"b0", b"W0"))
        with pytest.raises(ModelFormatError, match="array 'W0' appears twice"):
            load_model(str(classifier))
        regressor = str(tmp_path / "regressor.bin")
        save_model(util.constant_regressor(50.0), regressor)
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))
        assert main(["run", "--trace", str(trace), "--regressor", regressor,
                     "--classifier", str(classifier)]) == EXIT_MODEL


def _drop_offsets(f):
    del f["offsets"]


def _shorten_value(f):
    f["value"] = f["value"][:-1]


def _swap_offsets(f):
    f["offsets"][[1, 2]] = f["offsets"][[2, 1]]


def _empty_tree(f):
    f["offsets"][2] = f["offsets"][1]


def _offsets_wrapping(f):
    # offsets fall by 3 * 2**62 between these, which as an int64
    # difference wraps to +2**62
    f["offsets"][1:3] = 3 * 2 ** 61, -3 * 2 ** 61


def _child_into_next_tree(f):
    f["left"][0] = f["offsets"][1]


def _negative_child(f):
    f["right"][0] = -1


def _feature_past_arity(f):
    f["feature"][0] = 5


def _scalar_value(f):
    f["value"] = f["value"][0]


def _first_leaf(f) -> int:
    """A leaf of the first tree, whose root is a split."""
    leaf = int(np.flatnonzero(f["feature"] == -1)[0])
    assert 0 < leaf < f["offsets"][1]
    return leaf


def _leaf_left_to_root(f):
    f["left"][_first_leaf(f)] = 0


def _leaf_right_to_root(f):
    f["right"][_first_leaf(f)] = 0


def _root_left_to_itself(f):
    # in range and no leaf touched, but every descent of tree 0 that goes
    # left at the root stays on a split node
    f["left"][0] = 0


def _nan_values(f):
    f["value"][:] = np.nan


def _nan_threshold(f):
    f["threshold"][0] = np.nan


def _infinite_threshold(f):
    f["threshold"][0] = np.inf


class TestForestValidation:
    """Arrays corrupted before dump_model: the CRC is valid, the forest is not."""

    @pytest.mark.parametrize("corrupt, match", [
        (_drop_offsets, "lacks arrays"),
        (_shorten_value, "differ in length"),
        (_scalar_value, "differ in length"),
        (_swap_offsets, "offsets"),
        (_empty_tree, "offsets"),
        (_offsets_wrapping, "offsets"),
        (_child_into_next_tree, "left child index outside its tree"),
        (_negative_child, "right child index outside its tree"),
        (_feature_past_arity, "feature index"),
        (_leaf_left_to_root, "left of a leaf does not point to the leaf itself"),
        (_leaf_right_to_root, "right of a leaf does not point to the leaf itself"),
        (_root_left_to_itself, "max_depth 3 levels can end on a split node"),
        (_nan_values, "value holds a value that is not finite"),
        (_nan_threshold, "threshold holds a value that is not finite"),
        (_infinite_threshold, "threshold holds a value that is not finite"),
    ])
    def test_rejected_on_load(self, gbdt_model, corrupt, match):
        bad = copy.deepcopy(gbdt_model)
        corrupt(bad.forest)
        with pytest.raises(ModelFormatError, match=match):
            load_model_bytes(dump_model(bad))

    def test_cli_exits_4(self, tmp_path):
        from speedtrim.cli import EXIT_MODEL, EXIT_OK, main
        from speedtrim.traceio import REGRESSOR_ARITY, dump_trace
        import util
        # full-width models, so the run exits 4 for the forest alone
        rng = np.random.default_rng(5)
        regressor = train_gbdt(rng.random((60, REGRESSOR_ARITY)), rng.uniform(1, 100, 60),
                               GbdtParams(n_trees=3, max_depth=3))
        classifier = str(tmp_path / "classifier.bin")
        save_model(util.constant_classifier(0.5), classifier)
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))
        for corrupt in (None, _child_into_next_tree, _nan_values):
            bad = copy.deepcopy(regressor)
            if corrupt:
                corrupt(bad.forest)
            path = str(tmp_path / f"{getattr(corrupt, '__name__', 'intact')}.bin")
            save_model(bad, path)
            assert main(["run", "--trace", str(trace), "--regressor", path,
                         "--classifier", classifier]) == (EXIT_MODEL if corrupt else EXIT_OK)


def with_entry(arr: np.ndarray, value: float) -> np.ndarray:
    """A copy of arr with its last entry set to value."""
    out = arr.copy()
    out.flat[-1] = value
    return out


def dump_edited(model, edit) -> bytes:
    """dump_model after edit(params, arrays): a valid CRC over a bad payload."""
    kind, params, arrays = modelio._model_payload(model)
    edit(params, arrays)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelio, "_model_payload", lambda _: (kind, params, arrays))
        return dump_model(model)


class TestParamsAndMlpValidation:
    """Parameter blocks and mlp arrays edited before dump_model (valid CRC)."""

    @pytest.mark.parametrize("model, edit, match", [
        pytest.param("gbdt", lambda p, a: p.update(colour="red"),
                     "unknown GbdtParams parameter 'colour'", id="gbdt-unknown-key"),
        pytest.param("gbdt", lambda p, a: p.update(max_depth="5"),
                     "'max_depth' has type str", id="gbdt-str-for-int"),
        pytest.param("gbdt", lambda p, a: p.update(max_depth=True),
                     "'max_depth' has type bool", id="gbdt-bool-for-int"),
        pytest.param("gbdt", lambda p, a: p.update(n_trees=0),
                     "n_trees must be >= 1", id="gbdt-zero-trees"),
        # the fixture's trees are 3 levels deep
        pytest.param("gbdt", lambda p, a: p.update(max_depth=2),
                     "max_depth 2 levels can end on a split node", id="gbdt-trees-too-deep"),
        pytest.param("gbdt", lambda p, a: a.update(train_mse=a["train_mse"][None, :]),
                     "gbdt train_mse must be 1-D", id="gbdt-train_mse-2d"),
        pytest.param("mlp", lambda p, a: p.update(colour="red"),
                     "unknown MlpParams parameter 'colour'", id="mlp-unknown-key"),
        pytest.param("mlp", lambda p, a: p.update(hidden="4"),
                     "'hidden' has type str", id="mlp-str-layers"),
        pytest.param("mlp", lambda p, a: p.update(hidden=[0]), "hidden widths must be >= 1",
                     id="mlp-zero-width"),
        pytest.param("mlp", lambda p, a: a.pop("b1"), r"lacks arrays \['b1'\]", id="mlp-no-b1"),
        pytest.param("mlp", lambda p, a: a.pop("W0"), r"lacks arrays \['W0'\]", id="mlp-no-W0"),
        pytest.param("mlp", lambda p, a: a.pop("loss_curve"), "lacks arrays",
                     id="mlp-no-loss_curve"),
        pytest.param("mlp", lambda p, a: a.update(W1=a["W1"][:3]), "W1 has shape",
                     id="mlp-W1-rows"),
        pytest.param("mlp", lambda p, a: a.update(b0=a["b0"][None, :]), "b0 has shape",
                     id="mlp-b0-2d"),
        # W0's rows give the input width
        pytest.param("mlp", lambda p, a: a.update(W0=a["W0"][:, 0]),
                     "W0 must be 2-D", id="mlp-W0-1d"),
        pytest.param("mlp", lambda p, a: p.update(hidden=[3]), "W0 has shape",
                     id="mlp-layers-disagree"),
        pytest.param("mlp", lambda p, a: a.update(loss_curve=np.zeros((2, 2))),
                     "loss_curve must be 1-D", id="mlp-loss_curve-2d"),
        # every weight and bias must be finite
        *(pytest.param("mlp", lambda p, a, k=key, v=value: a.update({k: with_entry(a[k], v)}),
                       f"mlp {key} holds a value that is not finite", id=f"mlp-{key}-{value}")
          for key, value in (("W0", np.inf), ("b0", np.nan), ("W1", -np.inf), ("b1", np.nan))),
    ])
    def test_rejected_on_load(self, gbdt_model, mlp_model, model, edit, match):
        model = {"gbdt": gbdt_model, "mlp": mlp_model}[model]
        blob = dump_edited(model, edit)
        with pytest.raises(ModelFormatError, match=match):
            load_model_bytes(blob)

    def test_cli_exits_4(self, tmp_path, gbdt_model, mlp_model):
        from speedtrim.cli import EXIT_MODEL, main
        from speedtrim.traceio import dump_trace
        import util
        good = str(tmp_path / "good.bin")
        save_model(gbdt_model, good)
        extra_param = tmp_path / "regressor.bin"
        extra_param.write_bytes(dump_edited(
            gbdt_model, lambda p, a: p.update(colour="red")))
        no_bias = tmp_path / "classifier.bin"
        no_bias.write_bytes(dump_edited(mlp_model, lambda p, a: a.pop("b1")))
        nan_weight = tmp_path / "nan_weight.bin"
        nan_weight.write_bytes(dump_edited(
            mlp_model, lambda p, a: a.update(W0=with_entry(a["W0"], np.nan))))
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))
        for regressor, classifier in ((extra_param, good), (good, no_bias), (good, nan_weight)):
            assert main(["run", "--trace", str(trace), "--regressor", str(regressor),
                         "--classifier", str(classifier)]) == EXIT_MODEL

    @pytest.mark.parametrize("model, key, value", [
        ("gbdt", "subsample", 1.0), ("gbdt", "seed", 0), ("mlp", "dropout", 0.0),
        ("mlp", "adam_beta1", 0.9), ("mlp", "adam_beta2", 0.999), ("mlp", "adam_eps", 1e-8),
        ("mlp", "layers", [5, 4, 1]), ("mlp", "seed", 0),
    ])
    def test_removed_parameter_exits_4_naming_it(self, tmp_path, capsys, gbdt_model,
                                                 mlp_model, model, key, value):
        # files written while these were parameters hold them: they no longer load
        from speedtrim.cli import EXIT_MODEL, main
        from speedtrim.traceio import dump_trace
        import util
        path = str(tmp_path / "model.bin")
        with open(path, "wb") as fh:
            fh.write(dump_edited({"gbdt": gbdt_model, "mlp": mlp_model}[model],
                                 lambda p, a: p.update({key: value})))
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))
        capsys.readouterr()
        assert main(["run", "--trace", str(trace), "--regressor", path,
                     "--classifier", path]) == EXIT_MODEL
        assert f"parameter '{key}'" in capsys.readouterr().err


class TestRulesOfTheModelClass:
    """The loader's checks are the model classes' own, and a forest
    descends its own depth, which max_depth only bounds."""

    def test_max_depth_bounds_the_descent_but_does_not_set_it(self, gbdt_model):
        back = load_model_bytes(dump_edited(gbdt_model, lambda p, a: p.update(max_depth=100000)))
        assert back.params.max_depth == 100000
        # the fixture's trees are 3 levels deep
        assert back._descent[-1] == gbdt_model._descent[-1] == 3
        X = np.random.default_rng(9).random((50, 5))
        assert back.predict(X).tobytes() == gbdt_model.predict(X).tobytes()
        assert back.predict(X[0]).tobytes() == gbdt_model.predict(X[0]).tobytes()

    def test_bad_forest_built_in_memory_gets_the_loaders_message(self, gbdt_model):
        bad = copy.deepcopy(gbdt_model)
        _child_into_next_tree(bad.forest)
        with pytest.raises(ModelFormatError) as loaded:
            load_model_bytes(dump_model(bad))
        with pytest.raises(ValueError, match="gbdt left child index outside its tree") as built:
            GbdtModel(bad.base_prediction, bad.forest, bad.params, bad.n_features, [])
        assert str(built.value) == str(loaded.value)

    def test_bad_mlp_built_in_memory_gets_the_loaders_message(self, mlp_model):
        bad = copy.deepcopy(mlp_model)
        bad.weights[0][0][0, 0] = np.nan
        with pytest.raises(ModelFormatError) as loaded:
            load_model_bytes(dump_model(bad))
        with pytest.raises(ValueError, match="mlp W0 holds a value that is not finite") as built:
            MlpModel(bad.weights, bad.params, [])
        assert str(built.value) == str(loaded.value)

    def test_bad_train_mse_built_in_memory_gets_the_loaders_message(self, gbdt_model):
        # list() of a 2-D array would hold its rows as the per-tree MSEs
        train_mse = np.array([gbdt_model.train_mse])
        bad = copy.deepcopy(gbdt_model)
        bad.train_mse = train_mse
        with pytest.raises(ModelFormatError) as loaded:
            load_model_bytes(dump_model(bad))
        with pytest.raises(ValueError, match="gbdt train_mse must be 1-D") as built:
            GbdtModel(bad.base_prediction, bad.forest, bad.params, bad.n_features, train_mse)
        assert str(built.value) == str(loaded.value)


def _with_array(model, name: str, arr: np.ndarray):
    """A copy of a gbdt model whose forest holds arr under name, uncast."""
    bad = copy.deepcopy(model)
    bad.forest[name] = arr
    return bad


class TestForestDtypes:
    """A forest array loads in another integer or float dtype only when
    the cast to its own dtype keeps every value."""

    @pytest.mark.parametrize("name, dtype, at, value", [
        pytest.param("left", np.float64, 0, 1.7, id="fractional-child"),
        pytest.param("left", np.float64, 1, np.nan, id="nan-child"),
        pytest.param("right", np.int64, 0, 2 ** 32 + 2, id="child-past-int32"),
        pytest.param("feature", np.float64, 0, 0.5, id="fractional-feature"),
        pytest.param("offsets", np.uint64, -1, 2 ** 64 - 1, id="offset-past-int64"),
        pytest.param("threshold", np.int64, 0, 2 ** 53 + 1, id="threshold-float64-rounds"),
    ])
    def test_inexact_cast_rejected(self, gbdt_model, name, dtype, at, value):
        arr = gbdt_model.forest[name].astype(dtype)
        arr[at] = value
        bad = _with_array(gbdt_model, name, arr)
        message = f"gbdt {name} holds a value that changes under the cast"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFormatError, match=message):
                load_model_bytes(dump_model(bad))
            with pytest.raises(ValueError, match=message):
                GbdtModel(bad.base_prediction, bad.forest, bad.params, bad.n_features, [])

    def test_exact_i8_and_f8_arrays_load(self, gbdt_model):
        X = np.random.default_rng(3).random((40, 5))
        for name in ("feature", "left", "right", "offsets", "threshold", "value"):
            for dtype in (np.int64, np.float64):
                arr = gbdt_model.forest[name]
                if not np.array_equal(arr.astype(dtype), arr):
                    continue        # a fractional threshold or value has no <i8 form
                blob = dump_model(_with_array(gbdt_model, name, arr.astype(dtype)))
                assert np.dtype(dtype).str.encode() in blob
                back = load_model_bytes(blob)
                assert back.forest[name].dtype == gbdt_model.forest[name].dtype
                assert back.predict(X).tobytes() == gbdt_model.predict(X).tobytes()

    def test_cli_exits_4(self, tmp_path):
        from speedtrim.cli import EXIT_MODEL, main
        from speedtrim.traceio import REGRESSOR_ARITY, dump_trace
        import util
        rng = np.random.default_rng(5)
        regressor = train_gbdt(rng.random((60, REGRESSOR_ARITY)), rng.uniform(1, 100, 60),
                               GbdtParams(n_trees=3, max_depth=3))
        left = regressor.forest["left"].astype(np.float64)
        left[0] += 0.7
        path, classifier = str(tmp_path / "r.bin"), str(tmp_path / "c.bin")
        save_model(_with_array(regressor, "left", left), path)
        save_model(util.constant_classifier(0.5), classifier)
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))
        assert main(["run", "--trace", str(trace), "--regressor", path,
                     "--classifier", classifier]) == EXIT_MODEL


def with_block(blob: bytes, old: bytes, new: bytes) -> bytes:
    """blob with its first length-prefixed block `old` (a kind, parameter
    block, array name or dtype string) replaced by `new` and a recomputed
    CRC."""
    body = blob[:-4]
    tag = struct.pack("<I", len(old)) + old
    i = body.index(tag)
    body = body[:i] + struct.pack("<I", len(new)) + new + body[i + len(tag):]
    return body + struct.pack("<I", zlib.crc32(body))


class TestArrayDtypes:
    """A dtype string rewritten in a dumped model, with the CRC made valid again."""

    @pytest.mark.parametrize("model", ["gbdt", "mlp"])
    @pytest.mark.parametrize("new, match", [
        pytest.param(b"<x8", "unknown dtype '<x8'", id="unknown"),
        pytest.param(b"|O8", "dtype '|O8' is not an integer or floating-point type",
                     id="object"),
        pytest.param(b"<f4", "bytes do not fill shape", id="wrong-size"),
        pytest.param(b"04", "unknown dtype '04'", id="python-literal"),
        pytest.param(b",", "unknown dtype ','", id="python-syntax"),
    ])
    def test_rejected_on_load(self, gbdt_model, mlp_model, model, new, match):
        model = {"gbdt": gbdt_model, "mlp": mlp_model}[model]
        blob = with_block(dump_model(model), b"<f8", new)
        with pytest.raises(ModelFormatError, match=match):
            load_model_bytes(blob)

    def test_cli_exits_4(self, tmp_path, gbdt_model, mlp_model):
        from speedtrim.cli import EXIT_MODEL, main
        from speedtrim.traceio import dump_trace
        import util
        good_regressor, good_classifier = tmp_path / "r.bin", tmp_path / "c.bin"
        good_regressor.write_bytes(dump_model(gbdt_model))
        good_classifier.write_bytes(dump_model(mlp_model))
        unknown = tmp_path / "unknown.bin"
        unknown.write_bytes(with_block(dump_model(gbdt_model), b"<f8", b"<x8"))
        obj = tmp_path / "object.bin"
        obj.write_bytes(with_block(dump_model(mlp_model), b"<f8", b"|O8"))
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))
        for regressor, classifier in ((unknown, good_classifier), (good_regressor, obj)):
            assert main(["run", "--trace", str(trace), "--regressor", str(regressor),
                         "--classifier", str(classifier)]) == EXIT_MODEL


# (block to replace, replacement, error) per header block that does not decode
BAD_BLOCKS = [
    pytest.param("params", b"[1, 2]", "parameter block is not a JSON object",
                 id="params-list"),
    pytest.param("params", b'"gbdt"', "parameter block is not a JSON object",
                 id="params-string"),
    pytest.param("params", b"{not json", "parameter block: Expecting property name",
                 id="params-not-json"),
    pytest.param("params", b'{"n_trees": "\xff"}', "'utf-8' codec can't decode",
                 id="params-not-utf8"),
    pytest.param("kind", "\u00e9t\u00e9".encode(), "'ascii' codec can't decode",
                 id="kind-not-ascii"),
    pytest.param("array", b"\xffname", "lacks arrays", id="array-name-not-utf8"),
]


def with_bad_block(model, which: str, new: bytes) -> bytes:
    kind, params, _ = modelio._model_payload(model)
    old = {"params": json.dumps(params, sort_keys=True).encode(), "kind": kind.encode(),
           "array": b"meta" if kind == "gbdt" else b"loss_curve"}[which]
    return with_block(dump_model(model), old, new)


class TestHeaderBlocks:
    """The kind, the parameter block or an array name rewritten in a dumped
    model, with the CRC made valid again."""

    @pytest.mark.parametrize("model", ["gbdt", "mlp"])
    @pytest.mark.parametrize("which, new, match", BAD_BLOCKS)
    def test_rejected_on_load(self, gbdt_model, mlp_model, model, which, new, match):
        model = {"gbdt": gbdt_model, "mlp": mlp_model}[model]
        with pytest.raises(ModelFormatError, match=match):
            load_model_bytes(with_bad_block(model, which, new))

    @pytest.mark.parametrize("which, new, match", BAD_BLOCKS)
    def test_cli_exits_4(self, tmp_path, gbdt_model, mlp_model, which, new, match):
        from speedtrim.cli import EXIT_MODEL, main
        from speedtrim.traceio import dump_trace
        import util
        good_regressor, good_classifier = tmp_path / "r.bin", tmp_path / "c.bin"
        good_regressor.write_bytes(dump_model(gbdt_model))
        good_classifier.write_bytes(dump_model(mlp_model))
        bad_regressor, bad_classifier = tmp_path / "bad_r.bin", tmp_path / "bad_c.bin"
        bad_regressor.write_bytes(with_bad_block(gbdt_model, which, new))
        bad_classifier.write_bytes(with_bad_block(mlp_model, which, new))
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))
        for regressor, classifier in ((bad_regressor, good_classifier),
                                      (good_regressor, bad_classifier)):
            assert main(["run", "--trace", str(trace), "--regressor", str(regressor),
                         "--classifier", str(classifier)]) == EXIT_MODEL


class TestArity:
    def test_loaded_model_names_expected_arity(self, mlp_model):
        back = load_model_bytes(dump_model(mlp_model))
        with pytest.raises(ValueError, match="expects 5, got 7"):
            back.predict_proba(np.zeros(7))

    def test_cli_checks_each_model_role(self, tmp_path, gbdt_model, mlp_model):
        # a model of the wrong kind or input width exits 4 from `run`,
        # where it used to load and then fail at its first prediction
        from speedtrim.cli import EXIT_MODEL, EXIT_OK, main
        from speedtrim.traceio import dump_trace
        import util
        files = {"regressor": util.constant_regressor(50.0),
                 "classifier": util.constant_classifier(0.5),
                 "narrow_regressor": gbdt_model, "narrow_classifier": mlp_model}
        for name, model in files.items():
            save_model(model, str(tmp_path / name))
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(dump_trace(util.constant_rate_trace(50.0)))

        def run(regressor, classifier):
            return main(["run", "--trace", str(trace), "--regressor", str(tmp_path / regressor),
                         "--classifier", str(tmp_path / classifier)])

        assert run("regressor", "classifier") == EXIT_OK
        for regressor, classifier in (("narrow_regressor", "classifier"),
                                      ("regressor", "narrow_classifier"),
                                      ("classifier", "classifier"),
                                      ("regressor", "regressor")):
            assert run(regressor, classifier) == EXIT_MODEL, (regressor, classifier)


class TestMetaAndShapes:
    """Values a dumped model's arrays may not hold, with a valid CRC."""

    @pytest.mark.parametrize("n_features", [float("nan"), float("inf"), 2.5, -1.0])
    def test_bad_feature_count_rejected(self, gbdt_model, n_features):
        blob = dump_edited(gbdt_model, lambda p, a: a["meta"].__setitem__(1, n_features))
        with pytest.raises(ModelFormatError, match="gbdt meta"):
            load_model_bytes(blob)

    def test_non_finite_base_rejected(self, gbdt_model):
        blob = dump_edited(gbdt_model, lambda p, a: a["meta"].__setitem__(0, float("nan")))
        with pytest.raises(ModelFormatError, match="gbdt meta"):
            load_model_bytes(blob)

    @pytest.mark.parametrize("dim", [2 ** 62, 2 ** 63, 2 ** 64 - 1])
    def test_empty_array_with_huge_dimension_rejected(self, gbdt_model, dim):
        # zero elements fill a (0, dim) shape, so only numpy's limits object
        blob = dump_edited(gbdt_model, lambda p, a: a.update(extra=np.zeros((0, 1))))
        body = blob[:-4]
        header = b"extra\x03\x00\x00\x00<f8" + struct.pack("<B2Q", 2, 0, 1)
        assert body.count(header) == 1
        body = body.replace(header, header[:-8] + struct.pack("<Q", dim))
        with pytest.raises(ModelFormatError, match="array 'extra'"):
            load_model_bytes(body + struct.pack("<I", zlib.crc32(body)))
