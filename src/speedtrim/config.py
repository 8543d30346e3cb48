"""Declarative run configuration with stable hashing for provenance."""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .core import replace_from_json
from .engine import GuardConfig
from .gbdt import GbdtParams
from .label import EPSILON_SWEEP
from .mlp import MlpParams
from .synth import GenSpec


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs; serialized into output directories."""

    seed: int = 0
    epsilons: tuple = EPSILON_SWEEP
    genspec: GenSpec = dataclasses.field(default_factory=GenSpec)
    gbdt: GbdtParams = dataclasses.field(
        default_factory=lambda: GbdtParams(objective="log-mse"))
    mlp: MlpParams = dataclasses.field(default_factory=MlpParams)
    guard: GuardConfig = dataclasses.field(default_factory=GuardConfig)

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        """The defaults with the keys a JSON object gives; ValueError names a bad key."""
        return replace_from_json(cls(), d, "config")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "rb") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"config {path}: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    def hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
