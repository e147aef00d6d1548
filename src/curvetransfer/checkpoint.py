"""Model checkpoint: weights, scalers, dimensions, and provenance, as JSON.

Floats are emitted with Python's shortest-round-trip repr, so a load/save
cycle preserves every weight bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DataValidationError
from .scaling import CurveScalers
from .seqnet import PARAM_NAMES, ModelParams

FORMAT_VERSION = 1

STAGES = ("pretrained", "finetuned")


@dataclass
class ModelCheckpoint:
    """Trained model bundle: parameters, feature scalers, and provenance."""

    params: ModelParams
    scalers: CurveScalers
    sequence_length: int
    seed: int
    source_dataset: str
    stage: str

    @property
    def input_dim(self) -> int:
        return self.params.input_dim

    @property
    def hidden_dim(self) -> int:
        return self.params.hidden_dim

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "input_dim": self.params.input_dim,
            "hidden_dim": self.params.hidden_dim,
            "sequence_length": self.sequence_length,
            "seed": self.seed,
            "provenance": {"source_dataset": self.source_dataset, "stage": self.stage},
            "feature_scalers": self.scalers.to_dict(),
            "weights": {name: getattr(self.params, name).tolist() for name in PARAM_NAMES},
        }

    @staticmethod
    def from_dict(doc: dict) -> "ModelCheckpoint":
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise DataValidationError(f"unsupported checkpoint format_version: {version}")
        params = ModelParams.from_named(int(doc["input_dim"]), int(doc["hidden_dim"]), doc["weights"])
        provenance = doc.get("provenance", {})
        return ModelCheckpoint(
            params=params,
            scalers=CurveScalers.from_dict(doc["feature_scalers"]),
            sequence_length=int(doc["sequence_length"]),
            seed=int(doc["seed"]),
            source_dataset=str(provenance.get("source_dataset", "")),
            stage=str(provenance.get("stage", "")),
        )


def save_checkpoint(checkpoint: ModelCheckpoint, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataValidationError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return ModelCheckpoint.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DataValidationError):
            raise
        raise DataValidationError(f"{path}: malformed checkpoint: {exc}") from exc
