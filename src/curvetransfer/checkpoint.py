"""Model checkpoint: weights, scalers, dimensions, and provenance, as JSON.

Format version 2, the only one read: the header holds the dimensions,
sequence length, seed, provenance and feature scalers as JSON; ``"weights"``
is one base64 string holding ``ModelParams.flat`` as little-endian float64,
in the layout the ``ModelParams`` docstring fixes. The raw block makes a
load/save cycle bit-exact by construction, and loading decodes no decimal
floats.

Any other ``format_version``, version 1's per-name decimal weights included,
is rejected. Every stage is seed-deterministic, so re-running the ``pretrain``
or ``finetune`` that made an old file writes the same weights in format 2.

Loading is strict: the dimensions, sequence length and seed must be JSON
integers, the seed at least 0 and the others at least 1, every scaler bound a
finite number with a finite span, input_dim one more than the number of
parameter scalers, and every weight finite and of its expected size.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import _read_json, _write_json
from .errors import DataValidationError, check_int
from .scaling import CurveScalers
from .seqnet import ModelParams

FORMAT_VERSION = 2

# Each integer header field and its least value.
INTEGER_FIELDS = {"input_dim": 1, "hidden_dim": 1, "sequence_length": 1, "seed": 0}

# Byte order of the weight block, fixed so a file reads the same on any machine.
WEIGHT_DTYPE = np.dtype("<f8")


class _UnsupportedVersion(DataValidationError):
    """A checkpoint in a format this version does not read; :func:`load_checkpoint` does not call it malformed."""


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
        """The checkpoint document; a non-finite weight raises ValueError."""
        flat = self.params.flat
        if not np.isfinite(flat).all():
            raise ValueError("cannot save checkpoint: non-finite weight value")
        return {
            "format_version": FORMAT_VERSION,
            "input_dim": self.params.input_dim,
            "hidden_dim": self.params.hidden_dim,
            "sequence_length": self.sequence_length,
            "seed": self.seed,
            "provenance": {"source_dataset": self.source_dataset, "stage": self.stage},
            "feature_scalers": self.scalers.to_dict(),
            "weights": base64.b64encode(flat.astype(WEIGHT_DTYPE, copy=False).tobytes()).decode("ascii"),
        }

    @staticmethod
    def from_dict(doc: dict) -> "ModelCheckpoint":
        version = doc.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:  # a bool is not an int here
            raise _UnsupportedVersion(
                f"unsupported checkpoint format_version: {version}; "
                f"re-run pretrain or finetune to write format {FORMAT_VERSION}"
            )
        for key, low in INTEGER_FIELDS.items():
            check_int(key, doc[key], low)
        scalers = CurveScalers.from_dict(doc["feature_scalers"])
        if doc["input_dim"] != scalers.input_dim:
            raise ValueError(
                f"input_dim {doc['input_dim']} does not match 1 + {scalers.arity} parameter scalers"
            )
        params = ModelParams(doc["input_dim"], doc["hidden_dim"], _decode_weights(doc["weights"]))
        provenance = doc.get("provenance", {})
        return ModelCheckpoint(
            params=params,
            scalers=scalers,
            sequence_length=doc["sequence_length"],
            seed=doc["seed"],
            source_dataset=str(provenance.get("source_dataset", "")),
            stage=str(provenance.get("stage", "")),
        )


def _decode_weights(weights) -> np.ndarray:
    """The weight block as a writable native float64 vector.

    Rejects a non-string, invalid base64, a partial float64 and a non-finite
    value; ``ModelParams`` then checks the length against the dimensions.
    """
    if not isinstance(weights, str):
        raise ValueError(f"weights must be a base64 string, got {type(weights).__name__}")
    try:
        raw = base64.b64decode(weights, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise ValueError(f"weights: invalid base64: {exc}") from None
    if len(raw) % WEIGHT_DTYPE.itemsize:
        raise ValueError(f"weights: {len(raw)} bytes is not a whole number of float64 values")
    flat = np.frombuffer(raw, dtype=WEIGHT_DTYPE).astype(np.float64)
    if not np.isfinite(flat).all():
        raise ValueError("weights: non-finite values")
    return flat


def save_checkpoint(checkpoint: ModelCheckpoint, path: str | Path) -> None:
    """Write the checkpoint as strict JSON; a non-finite value raises ValueError and writes nothing."""
    _write_json(checkpoint.to_dict(), Path(path))


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    doc = _read_json(path, "checkpoint")
    try:
        return ModelCheckpoint.from_dict(doc)
    except _UnsupportedVersion:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: malformed checkpoint: {exc}") from exc
