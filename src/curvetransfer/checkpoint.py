"""Model checkpoint: weights, scalers, dimensions, and provenance, as JSON.

Floats are emitted with Python's shortest-round-trip repr, so a load/save
cycle preserves every weight bit-exactly. Loading is strict: the dimensions,
sequence length and seed must be JSON integers, the sequence length at least
1, every scaler bound a finite number, and input_dim one more than the number
of parameter scalers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .curves import _write_json
from .errors import DataValidationError
from .scaling import CurveScalers
from .seqnet import PARAM_NAMES, ModelParams

FORMAT_VERSION = 1

INTEGER_FIELDS = ("input_dim", "hidden_dim", "sequence_length", "seed")


@dataclass
class ModelCheckpoint:
    """Trained model bundle: parameters, feature scalers, and provenance."""

    params: ModelParams
    scalers: CurveScalers
    sequence_length: int
    seed: int
    source_dataset: str
    stage: str

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
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise DataValidationError(f"unsupported checkpoint format_version: {version}")
        for key in INTEGER_FIELDS:
            if isinstance(doc[key], bool) or not isinstance(doc[key], int):
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        if doc["sequence_length"] < 1:
            raise ValueError(f"sequence_length must be >= 1, got {doc['sequence_length']}")
        scalers = CurveScalers.from_dict(doc["feature_scalers"])
        if doc["input_dim"] != scalers.input_dim:
            raise ValueError(
                f"input_dim {doc['input_dim']} does not match 1 + {scalers.arity} parameter scalers"
            )
        params = ModelParams.from_named(doc["input_dim"], doc["hidden_dim"], doc["weights"])
        provenance = doc.get("provenance", {})
        return ModelCheckpoint(
            params=params,
            scalers=scalers,
            sequence_length=doc["sequence_length"],
            seed=doc["seed"],
            source_dataset=str(provenance.get("source_dataset", "")),
            stage=str(provenance.get("stage", "")),
        )


def save_checkpoint(checkpoint: ModelCheckpoint, path: str | Path) -> None:
    """Write the checkpoint as strict JSON; a non-finite value raises ValueError and writes nothing."""
    _write_json(checkpoint.to_dict(), Path(path))


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
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DataValidationError):
            raise
        raise DataValidationError(f"{path}: malformed checkpoint: {exc}") from exc
