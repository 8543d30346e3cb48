"""Fuzzed input files through the CLI, in-process: every outcome is an exit
code, never a traceback.

``ingest`` reads trace files (exit 0 or 3); model loading reads model files
(a model or ``ModelFormatError``; ``speedtrim run`` exits 0 or 4); ``synth``
and ``run`` read ``--config`` files (exit 0 or 3).
"""

import dataclasses
import itertools
import json
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from speedtrim.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, main
from speedtrim.config import RunConfig
from speedtrim.core import CUMULATIVE_FIELDS, SNAPSHOT_FIELDS
from speedtrim.modelio import ModelFormatError, load_model_bytes
from speedtrim.synth import GenSpec

FUZZ = settings(max_examples=150, deadline=None)

# JSON values a trace line may hold: small and huge integers, and the
# non-integers the parser must reject
VALUES = st.one_of(st.integers(0, 3), st.integers(0, 10 ** 7), st.integers(-2 ** 70, 2 ** 70),
                   st.floats(), st.booleans(), st.none(), st.text(max_size=3))
LINE = st.one_of(st.dictionaries(st.sampled_from(SNAPSHOT_FIELDS), VALUES),
                 st.dictionaries(st.text(max_size=4), VALUES, max_size=3), VALUES)
# ids become file names in the corpus
IDS = st.one_of(st.text(max_size=12), st.text(max_size=300), VALUES,
                st.sampled_from(["../up", "a/b", "a" * 300, "nul\0"]))
HEADER = st.fixed_dictionaries({}, optional={"id": IDS, "duration_us": VALUES})


@st.composite
def trace_files(draw) -> bytes:
    """Near-miss trace files: a valid trace's JSON lines with an optional
    header, some values or lines replaced, a few bytes overwritten, or a cut."""
    n = draw(st.integers(2, 6))
    cols = {"t_us": sorted(draw(st.sets(st.integers(0, 10 ** 7), min_size=n, max_size=n)))}
    for name in SNAPSHOT_FIELDS[1:]:
        values = draw(st.lists(st.integers(1, 10 ** 6), min_size=n, max_size=n))
        cols[name] = list(itertools.accumulate(values)) if name in CUMULATIVE_FIELDS else values
    objs = [dict(zip(cols, row)) for row in zip(*cols.values())]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()) and isinstance(objs[i], dict):
            objs[i][draw(st.sampled_from(SNAPSHOT_FIELDS))] = draw(VALUES)
        else:
            objs[i] = draw(LINE)
    if draw(st.booleans()):
        objs.insert(0, draw(HEADER))
    data = bytearray("\n".join(json.dumps(o) for o in objs).encode())
    for _ in range(draw(st.integers(0, 2))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(0, len(data)))]) if draw(st.booleans()) else bytes(data)


class TestIngest:
    @FUZZ
    @given(content=st.one_of(st.binary(max_size=400), trace_files()))
    def test_any_bytes_exit_0_or_3(self, content):
        with tempfile.TemporaryDirectory() as root:
            raw = os.path.join(root, "raw")
            os.mkdir(raw)
            with open(os.path.join(raw, "fuzz.jsonl"), "wb") as fh:
                fh.write(content)
            out = os.path.join(root, "out")
            assert main(["ingest", "--in", raw, "--out", out]) in (EXIT_OK, EXIT_DATA)
            # nothing is written outside the output directory
            assert sorted(os.listdir(root)) in (["raw"], ["out", "raw"])


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def header_regions(blob: bytes) -> list[range]:
    """Byte ranges of a dumped model's structure: magic, version, kind and
    parameter blocks, and each array's name, dtype, shape, length prefix
    and first 16 data bytes.  Flips there reach the loader's checks;
    flips in the bulk of the weights only change numbers."""
    pos = 8
    regions = [range(0, 8)]

    def block():
        nonlocal pos
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + n
        return n

    for _ in range(2):                  # kind, parameter block
        start = pos
        block()
        regions.append(range(start, pos))
    (count,) = struct.unpack_from("<I", blob, pos)
    regions.append(range(pos, pos + 4))
    pos += 4
    for _ in range(count):
        start = pos
        block()                         # name
        block()                         # dtype
        pos += 1 + 8 * blob[pos]        # ndim, shape
        regions.append(range(start, min(pos + 4 + 16, len(blob) - 4)))
        block()                         # data
    return regions


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """blob with up to four bytes overwritten, mostly in its structure,
    and perhaps cut short; the CRC is made valid again."""
    body = bytearray(blob[:-4])
    hot = header_regions(blob)
    for _ in range(draw(st.integers(1, 4))):
        region = draw(st.sampled_from(hot + [range(len(body))]))
        body[draw(st.sampled_from(region))] = draw(st.integers(0, 255))
    if draw(st.integers(0, 3)) == 0:
        body = body[:draw(st.integers(0, len(body)))]
    return with_crc(bytes(body))


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """A small corpus, regressor and ε=15 classifier made by the CLI."""
    root = tmp_path_factory.mktemp("walkthrough")
    corpus, models = str(root / "corpus"), root / "models"
    paths = {"regressor": str(models / "regressor.bin"),
             "classifier": str(models / "classifier_eps15.bin")}
    config = str(root / "config.json")
    with open(config, "w") as fh:
        json.dump({"gbdt": {"n_trees": 5, "max_depth": 3}, "mlp": {"epochs": 1}}, fh)
    assert main(["synth", "--n", "6", "--seed", "3", "--out", corpus]) == EXIT_OK
    assert main(["train-regressor", "--config", config, "--corpus", corpus,
                 "--out", paths["regressor"]]) == EXIT_OK
    assert main(["train-classifier", "--config", config, "--corpus", corpus,
                 "--regressor", paths["regressor"], "--epsilon", "15",
                 "--out", paths["classifier"]]) == EXIT_OK
    blobs = {role: open(path, "rb").read() for role, path in paths.items()}
    return Walkthrough(dict(paths, blobs=blobs, trace=os.path.join(corpus, "t00000.jsonl")))


class Walkthrough(dict):
    def __repr__(self):     # keeps the model bytes out of failure reports
        return "walkthrough"


class TestModelFiles:
    @pytest.mark.parametrize("role", ["regressor", "classifier"])
    def test_header_regions_cover_every_array(self, walkthrough, role):
        blob = walkthrough["blobs"][role]
        regions = header_regions(blob)
        assert max(r.stop for r in regions) <= len(blob) - 4
        names = {"regressor": [b"meta", b"train_mse"], "classifier": [b"W0", b"loss_curve"]}
        for name in names[role]:
            tag = blob.index(struct.pack("<I", len(name)) + name)
            assert any(r.start == tag for r in regions), name

    @pytest.mark.parametrize("role", ["regressor", "classifier"])
    @FUZZ
    @given(data=st.data())
    def test_corrupt_model_loads_or_is_rejected(self, walkthrough, role, data):
        blob = data.draw(corrupted(walkthrough["blobs"][role]))
        try:
            load_model_bytes(blob)
        except ModelFormatError:
            pass

    @pytest.mark.parametrize("role", ["regressor", "classifier"])
    @settings(FUZZ, max_examples=60)
    @given(data=st.data())
    def test_run_exits_0_or_4(self, walkthrough, role, data):
        blob = data.draw(corrupted(walkthrough["blobs"][role]))
        with tempfile.TemporaryDirectory() as root:
            paths = dict((k, walkthrough[k]) for k in ("regressor", "classifier"))
            paths[role] = os.path.join(root, "model.bin")
            with open(paths[role], "wb") as fh:
                fh.write(blob)
            code = main(["run", "--trace", walkthrough["trace"], "--regressor",
                         paths["regressor"], "--classifier", paths["classifier"]])
        assert code in (EXIT_OK, EXIT_MODEL)


# any JSON value, non-finite floats (which json writes and reads) among them
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
              st.sampled_from([10 ** 400, -(2 ** 63)])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)


def near(value):
    """JSON values of a field's own type, from zero to past twice its default."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(0, 2 * value + 1)
    if isinstance(value, float):
        return st.floats(0.0, 2 * value + 1.0)
    if isinstance(value, tuple):
        return st.lists(near(value[0]), min_size=len(value) - 1, max_size=len(value) + 1)
    return st.sampled_from([value, "x"])


def json_object(instance):
    """A JSON object for a params dataclass: up to three of its keys or a
    removed one, each with any JSON value or one of its own type; a
    dataclass field takes such an object or any JSON value."""
    values = {}
    for f in dataclasses.fields(instance):
        value = getattr(instance, f.name)
        own = json_object(value) if dataclasses.is_dataclass(value) else near(value)
        values[f.name] = st.one_of(own, JSON)
    values["window_ms"] = JSON
    keys = st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: values[k] for k in ks}))


CONFIGS = st.one_of(json_object(RunConfig()), JSON)
# configs that change the generator alone, so more of them reach it
GENSPECS = st.fixed_dictionaries({"genspec": json_object(GenSpec())})


def write_config(root: str, config) -> str:
    path = os.path.join(root, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


class TestConfigFiles:
    @settings(FUZZ, max_examples=80)
    @given(config=st.one_of(CONFIGS, GENSPECS))
    def test_synth_exits_0_or_3(self, config):
        with tempfile.TemporaryDirectory() as root:
            argv = ["synth", "--config", write_config(root, config), "--n", "1",
                    "--out", os.path.join(root, "out")]
            assert main(argv) in (EXIT_OK, EXIT_DATA)

    @settings(FUZZ, max_examples=80)
    @given(config=CONFIGS)
    def test_run_exits_0_or_3(self, walkthrough, config):
        with tempfile.TemporaryDirectory() as root:
            argv = ["run", "--config", write_config(root, config), "--trace", walkthrough["trace"],
                    "--regressor", walkthrough["regressor"],
                    "--classifier", walkthrough["classifier"]]
            assert main(argv) in (EXIT_OK, EXIT_DATA)
