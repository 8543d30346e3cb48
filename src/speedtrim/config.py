"""Declarative run configuration with stable hashing for provenance."""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .core import replace_from_json
from .engine import GuardConfig
from .gbdt import GbdtParams
from .mlp import MlpParams
from .synth import GenSpec


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs; serialized into output directories.
    ``seed`` is the run's one seed, so ``genspec`` is read and written
    without its own: ``synth`` stamps ``seed`` into the generator."""

    seed: int = 0
    genspec: GenSpec = dataclasses.field(default_factory=GenSpec)
    gbdt: GbdtParams = dataclasses.field(default_factory=GbdtParams)
    mlp: MlpParams = dataclasses.field(default_factory=MlpParams)
    guard: GuardConfig = dataclasses.field(default_factory=GuardConfig)

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        """The defaults with the keys a JSON object gives; ValueError names a bad key."""
        if type(d) is dict and type(d.get("genspec")) is dict and "seed" in d["genspec"]:
            raise ValueError("unknown genspec parameter 'seed'")
        return replace_from_json(cls(), d, "config")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "rb") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"config {path}: {exc}") from None

    def _as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        del d["genspec"]["seed"]
        return d

    def to_json(self) -> str:
        return json.dumps(self._as_dict(), indent=2, sort_keys=True) + "\n"

    def hash(self) -> str:
        payload = json.dumps(self._as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
