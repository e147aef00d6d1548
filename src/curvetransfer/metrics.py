"""Predictive-error metrics: MAPE, RMSE, R2, and Pearson correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MAPE_EPSILON = 1e-6


@dataclass(frozen=True)
class MetricSummary:
    """Per-evaluation metric bundle.

    ``n_points`` counts the evaluated pairs; ``n_excluded`` counts the points
    dropped by the MAPE near-zero guard (they still contribute to RMSE and R2).
    """

    mape: float
    rmse: float
    r2: float
    n_points: int
    n_excluded: int


def _as_pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float arrays; raises ValueError unless they have one shape, are not empty and are finite."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty input")
    for values, what in ((actual, "actual values"), (predicted, "predictions")):
        if not np.isfinite(values).all():
            raise ValueError(f"{int(np.sum(~np.isfinite(values)))} of {values.size} {what} are not finite")
    return actual, predicted


def _check_epsilon(epsilon) -> None:
    """Raise ValueError unless ``epsilon`` is an int or float, finite and > 0 (a bool is not one)."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)) or not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"MAPE epsilon must be a finite number > 0, got {epsilon!r}")


# These functions call ndarray methods (``x.sum()``), which run the same
# reductions as ``np.sum(x)`` without its dispatch wrapper. ``_as_pair``
# rejects input that is not finite, so a metric can only overflow to
# infinity: each one then raises ValueError naming the metric. Every caller
# runs the kernels under ``np.errstate(over="ignore")``, so that no overflow
# warning escapes.


def _overflow_check(value: float, name: str) -> float:
    if abs(value) == math.inf:
        raise ValueError(f"{name} overflows float64")
    return value


def _rmse(squared_error: np.ndarray) -> float:
    return _overflow_check(float(np.sqrt(squared_error.mean())), "rmse")


def _r2(actual: np.ndarray, squared_error: np.ndarray) -> float:
    if actual.size < 2:
        raise ValueError("r2 requires at least 2 points")
    if (actual == actual[0]).all():
        raise ValueError("r2 undefined for constant actual values (zero variance)")
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    if ss_tot == math.inf:
        raise ValueError("r2 undefined: the total sum of squares overflows float64")
    if ss_tot == 0.0:  # distinct values whose squared deviations all underflow
        raise ValueError("r2 undefined: the total sum of squares underflows to 0")
    ss_res = float(squared_error.sum())
    return _overflow_check(1.0 - ss_res / ss_tot, "r2")


def mape(actual, predicted, epsilon: float = DEFAULT_MAPE_EPSILON) -> float:
    """Mean absolute percentage error, in percent.

    Points with |actual| < epsilon are excluded from the mean: tensile curves
    start at stress ~0 and the relative error is undefined there. Raises if
    every point is excluded, and first if ``epsilon`` is not a finite
    number > 0.
    """
    _check_epsilon(epsilon)
    actual, predicted = _as_pair(actual, predicted)
    abs_actual = np.abs(actual)
    mask = abs_actual >= epsilon
    if not mask.any():
        raise ValueError(f"all {actual.size} points below epsilon={epsilon}, MAPE undefined")
    with np.errstate(over="ignore"):
        value = float((np.abs(actual[mask] - predicted[mask]) / abs_actual[mask]).mean()) * 100.0
    return _overflow_check(value, "mape")


def mape_excluded_count(actual, epsilon: float = DEFAULT_MAPE_EPSILON) -> int:
    """Number of points the MAPE near-zero guard would drop."""
    _check_epsilon(epsilon)
    actual = np.asarray(actual, dtype=float)
    return int((np.abs(actual) < epsilon).sum())


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    actual, predicted = _as_pair(actual, predicted)
    with np.errstate(over="ignore"):
        return _rmse((actual - predicted) ** 2)


def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot. May be negative."""
    actual, predicted = _as_pair(actual, predicted)
    with np.errstate(over="ignore"):
        return _r2(actual, (actual - predicted) ** 2)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    xs, ys = _as_pair(xs, ys)
    if xs.size < 2:
        raise ValueError("pearson requires at least 2 points")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("pearson undefined when either input has zero variance")
    dx = xs - np.mean(xs)
    dy = ys - np.mean(ys)
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    return float(np.sum(dx * dy) / (sx * sy))


def summarize(actual, predicted, epsilon: float = DEFAULT_MAPE_EPSILON) -> MetricSummary:
    """All three error metrics plus point counts for one prediction run.

    Raises ValueError if an actual value or a prediction is not finite, and
    if a metric overflows float64, so no metric reads NaN or infinity.
    Computes the squared error once, for the kernels of :func:`rmse` and
    :func:`r2`; each value is bitwise the public function's, and each bad
    input raises what those functions raise, in the same order, after the
    epsilon and finiteness checks.
    """
    _check_epsilon(epsilon)
    actual, predicted = _as_pair(actual, predicted)
    with np.errstate(over="ignore"):
        squared_error = (actual - predicted) ** 2
        return MetricSummary(
            mape=mape(actual, predicted, epsilon),
            rmse=_rmse(squared_error),
            r2=_r2(actual, squared_error),
            n_points=int(actual.size),
            n_excluded=mape_excluded_count(actual, epsilon),
        )
