"""Declarative run configuration with stable hashing for provenance."""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .core import replace_from_json
from .gbdt import GbdtParams
from .mlp import MlpParams
from .synth import GenSpec, preset_spec


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs; serialized into output directories.
    ``seed`` is the run's one seed, so ``genspec`` is read and written
    without its own: ``synth`` stamps ``seed`` into the generator.
    ``genspec.preset`` names the generator preset the section's other keys
    apply on top of."""

    seed: int = 0
    genspec: GenSpec = dataclasses.field(default_factory=GenSpec)
    gbdt: GbdtParams = dataclasses.field(default_factory=GbdtParams)
    mlp: MlpParams = dataclasses.field(default_factory=MlpParams)

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        """The defaults with the keys a JSON object gives; ValueError names a bad key."""
        base = cls()
        genspec = d.get("genspec") if type(d) is dict else None
        if type(genspec) is dict:
            if "seed" in genspec:
                raise ValueError("unknown genspec parameter 'seed'")
            base = dataclasses.replace(base, genspec=preset_spec(genspec.get("preset", "default")))
        return replace_from_json(base, d, "config")

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
