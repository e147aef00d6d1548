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


def _check_finite(values: np.ndarray, what: str) -> None:
    """Raise ValueError, counting the bad values, unless every one of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{int(np.sum(~np.isfinite(values)))} of {values.size} {what} are not finite")


def _as_pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float arrays; raises ValueError unless they have one shape, are not empty and are finite."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty input")
    _check_finite(actual, "actual values")
    _check_finite(predicted, "predictions")
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


def _unit_exponent(values: np.ndarray) -> int:
    """The e for which ``np.ldexp(values, -e)`` has its largest magnitude in [0.5, 1); that scaling is exact."""
    return math.frexp(float(np.abs(values).max()))[1]


def _rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """The RMSE of the pair scaled by ``2**-e``, scaled back by ``2**e``, with e the larger unit exponent.

    No scaled square can then overflow or lose its value below the normal
    range, so only a true RMSE beyond float64 overflows.
    """
    exponent = max(_unit_exponent(actual), _unit_exponent(predicted))
    residual = np.ldexp(actual, -exponent) - np.ldexp(predicted, -exponent)
    return _overflow_check(float(np.ldexp(np.sqrt((residual**2).mean()), exponent)), "rmse")


def _r2(actual: np.ndarray, predicted: np.ndarray) -> float:
    """1 - SS_res / SS_tot of the pair scaled by ``2**-_unit_exponent(actual)``.

    The ratio is unchanged, and SS_tot can then neither overflow nor underflow
    to 0; only SS_res can overflow, for a fit about 1e308 times worse.
    """
    if actual.size < 2:
        raise ValueError("r2 requires at least 2 points")
    if (actual == actual[0]).all():
        raise ValueError("r2 undefined for constant actual values (zero variance)")
    exponent = -_unit_exponent(actual)
    actual, predicted = np.ldexp(actual, exponent), np.ldexp(predicted, exponent)
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    ss_res = float(((actual - predicted) ** 2).sum())
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
    """Number of points the MAPE near-zero guard would drop; raises ValueError if a value is not finite."""
    _check_epsilon(epsilon)
    actual = np.asarray(actual, dtype=float)
    _check_finite(actual, "actual values")
    return int((np.abs(actual) < epsilon).sum())


def rmse(actual, predicted) -> float:
    """Root mean squared error.

    Both inputs are scaled by the power of two that puts their largest
    magnitude in [0.5, 1), as in :func:`r2`, so every finite input whose RMSE
    float64 holds gets its true value.
    """
    actual, predicted = _as_pair(actual, predicted)
    with np.errstate(over="ignore"):
        return _rmse(actual, predicted)


def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot. May be negative.

    Both inputs are scaled by the power of two that puts max |actual| in
    [0.5, 1), as in :func:`pearson`, so every finite input gets its true value.
    """
    actual, predicted = _as_pair(actual, predicted)
    with np.errstate(over="ignore"):
        return _r2(actual, predicted)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient.

    Each input is first scaled by the power of two that puts its largest
    magnitude in [0.5, 1). That leaves the result unchanged, and afterwards
    no sum can overflow and no standard deviation underflow, so no finite
    input loses its value to the range of float64.
    """
    xs, ys = _as_pair(xs, ys)
    if xs.size < 2:
        raise ValueError("pearson requires at least 2 points")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("pearson undefined when either input has zero variance")
    xs, ys = np.ldexp(xs, -_unit_exponent(xs)), np.ldexp(ys, -_unit_exponent(ys))
    dx = xs - np.mean(xs)
    dy = ys - np.mean(ys)
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    return float(np.sum(dx * dy) / (sx * sy))


def summarize(actual, predicted, epsilon: float = DEFAULT_MAPE_EPSILON) -> MetricSummary:
    """All three error metrics plus point counts for one prediction run.

    Raises ValueError if an actual value or a prediction is not finite, and
    if a metric overflows float64, so no metric reads NaN or infinity.
    :func:`mape` checks the epsilon and the pair, once; the kernels of
    :func:`rmse` and :func:`r2` then only compute. Each value is bitwise the
    public function's, and each bad input raises what those functions
    raise, in the same order.
    """
    mape_value = mape(actual, predicted, epsilon)
    actual, predicted = np.asarray(actual, dtype=float), np.asarray(predicted, dtype=float)
    with np.errstate(over="ignore"):
        return MetricSummary(
            mape=mape_value,
            rmse=_rmse(actual, predicted),
            r2=_r2(actual, predicted),
            n_points=int(actual.size),
            n_excluded=int((np.abs(actual) < epsilon).sum()),
        )
