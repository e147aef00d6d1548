"""Min-max feature scaling fit on training curves only.

Pre-training on polymer-scale curves and fine-tuning on metal-scale curves
only share a feature space because every input (strain, each process
parameter) and the stress target are scaled to [0, 1] over the training split.
Values outside the training range scale outside [0, 1]; that is permitted.
Process parameters are matched by POSITION, so curves from datasets with
different parameter names can share one scaler set as long as the arity
matches; :func:`padded_curves` pads shorter ones once, where the arity is fixed.
:class:`FeatureScaler` is the one min-max rule; :func:`fit_scalers`, the DOE corners
(``transfer.select_extreme_training_samples``) and ``synthgen.generate_dataset`` use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import RawCurve
from .errors import DataValidationError


@dataclass(frozen=True)
class FeatureScaler:
    """Min-max scaler for one feature; constant features map to 0."""

    name: str
    vmin: float
    vmax: float

    @property
    def degenerate(self) -> bool:
        return self.vmax <= self.vmin

    def scale(self, values):
        values = np.asarray(values, dtype=float)
        if self.degenerate:
            return np.zeros_like(values)
        return (values - self.vmin) / (self.vmax - self.vmin)

    def unscale(self, values):
        values = np.asarray(values, dtype=float)
        if self.degenerate:
            return np.full_like(values, self.vmin)
        return values * (self.vmax - self.vmin) + self.vmin

    def to_dict(self) -> dict:
        return {"name": self.name, "min": self.vmin, "max": self.vmax}

    @staticmethod
    def from_dict(d: dict) -> "FeatureScaler":
        """Rejects a min or max that is not a finite JSON number, or a span max - min
        that overflows float64 (ValueError)."""
        for key in ("min", "max"):
            value = d[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"scaler {d['name']!r}: {key} must be a finite number, got {value!r}")
        scaler = FeatureScaler(name=str(d["name"]), vmin=float(d["min"]), vmax=float(d["max"]))
        if not math.isfinite(scaler.vmax - scaler.vmin):
            raise ValueError(
                f"scaler {d['name']!r}: span max - min of [{scaler.vmin!r}, {scaler.vmax!r}] is not finite"
            )
        return scaler


@dataclass(frozen=True)
class CurveScalers:
    """Scalers for the strain input, each positional parameter, and the stress target."""

    strain: FeatureScaler
    params: tuple[FeatureScaler, ...]
    stress: FeatureScaler

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def input_dim(self) -> int:
        return 1 + len(self.params)

    def to_dict(self) -> dict:
        return {
            "strain": self.strain.to_dict(),
            "params": [p.to_dict() for p in self.params],
            "stress": self.stress.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "CurveScalers":
        return CurveScalers(
            strain=FeatureScaler.from_dict(d["strain"]),
            params=tuple(FeatureScaler.from_dict(p) for p in d["params"]),
            stress=FeatureScaler.from_dict(d["stress"]),
        )


def check_arity(curve: RawCurve, arity: int, pad: bool = False) -> None:
    """Reject a curve with more than ``arity`` parameters, or with fewer unless ``pad``."""
    n = len(curve.params)
    if n > arity or (n < arity and not pad):
        suffix = "" if pad else " (padding disabled)"
        raise DataValidationError(f"sample {curve.sample_id!r} has {n} parameters, expected {arity}{suffix}")


def padded_curves(curves: list[RawCurve], arity: int, pad: bool) -> list[RawCurve]:
    """The curves with ``params`` zero-padded to ``arity`` positions, as ``param_<i>: 0.0``.

    Returns ``curves`` itself if none needs padding. Rejects what :func:`check_arity`
    rejects, and a parameter that already has the name padding would give.
    """
    if all(len(c.params) == arity for c in curves):
        return curves
    padded = []
    for curve in curves:
        check_arity(curve, arity, pad)
        zeros = {f"param_{i}": 0.0 for i in range(len(curve.params), arity)}
        clash = sorted(zeros.keys() & curve.params.keys())
        if clash:
            raise DataValidationError(
                f"sample {curve.sample_id!r}: parameter {clash[0]!r} is named like a padded position"
            )
        padded.append(replace(curve, params={**curve.params, **zeros}))
    return padded


def _fit(name: str, values: np.ndarray) -> FeatureScaler:
    """The min-max scaler of all of one feature's values; a span max - min that is not finite is rejected."""
    scaler = FeatureScaler(name, float(np.min(values)), float(np.max(values)))
    if not math.isfinite(scaler.vmax - scaler.vmin):
        raise DataValidationError(f"feature {name!r}: non-finite span of [{scaler.vmin!r}, {scaler.vmax!r}]")
    return scaler


def fit_scalers(train_curves: list[RawCurve]) -> CurveScalers:
    """Per-feature min-max over the training curves only.

    The curves must share one arity (:func:`padded_curves` pads them to one).
    Each feature is fit over all its values at once, so a NaN anywhere is
    refused whatever the curve order. Parameter names are recorded for audit
    from the first curve alone. A span max - min that overflows is rejected.
    """
    if not train_curves:
        raise DataValidationError("fit_scalers requires at least one training curve")
    arity = max(len(c.params) for c in train_curves)
    for curve in train_curves:
        check_arity(curve, arity)
    columns = np.array([c.param_values() for c in train_curves])
    return CurveScalers(
        strain=_fit("strain", np.concatenate([c.strain for c in train_curves])),
        params=tuple(_fit(name, columns[:, i]) for i, name in enumerate(train_curves[0].params)),
        stress=_fit("stress", np.concatenate([c.stress for c in train_curves])),
    )
