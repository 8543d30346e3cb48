import dataclasses
import sys

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from speedtrim import label, synth
from speedtrim.gbdt import GbdtParams, train_gbdt
from speedtrim.mlp import MlpParams, train_mlp


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """30 balanced traces, default preset; shared and read-only."""
    spec = dataclasses.replace(synth.preset_spec("default"), n_traces=30, seed=1234)
    return synth.gen_corpus(spec, str(tmp_path_factory.mktemp("corpus")))


@pytest.fixture(scope="session")
def small_regressor(small_corpus):
    X, y, _ = label.build_regression_dataset(small_corpus)
    params = GbdtParams(max_depth=4, n_trees=40)
    return train_gbdt(X, y, params)


@pytest.fixture(scope="session")
def small_classification15(small_corpus, small_regressor):
    """The small corpus's classifier rows and their ε=15 labels."""
    X, labels, _ = label.build_classification_dataset(small_corpus, small_regressor, (15.0,))
    return X, labels[:, 0]


@pytest.fixture(scope="session")
def small_classifier15(small_classification15):
    X, y = small_classification15
    return train_mlp(X, y, MlpParams(epochs=4), seed=5)
