"""Predictive-error metrics: MAPE, RMSE, R2, and Pearson correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_number

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


def _unit_exponent(magnitudes: np.ndarray, what: str) -> int:
    """The e for which ``np.ldexp(values, -e)`` has its largest magnitude in [0.5, 1); that scaling is exact.

    ``magnitudes`` is ``np.abs(values)`` (empty reads as 0). The largest is finite only
    when every value is, so otherwise this raises ValueError, counting the bad ``what``.
    """
    largest = float(magnitudes.max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError(f"{int((~np.isfinite(magnitudes)).sum())} of {magnitudes.size} {what} are not finite")
    return math.frexp(largest)[1]


def _as_pair(actual, predicted) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Both as float arrays, ``|actual|``, then their unit exponents.

    ValueError unless they share a non-empty shape and are finite.
    """
    actual, predicted = np.asarray(actual, dtype=float), np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty input")
    abs_actual = np.abs(actual)
    actual_exponent = _unit_exponent(abs_actual, "actual values")
    return actual, predicted, abs_actual, actual_exponent, _unit_exponent(np.abs(predicted), "predictions")


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


def _rmse(actual: np.ndarray, predicted: np.ndarray, exponent: int) -> float:
    """The RMSE of the pair scaled by ``2**-exponent``, scaled back; ``exponent`` is the larger unit exponent.

    No scaled square can then overflow or lose its value below the normal
    range, so only a true RMSE beyond float64 overflows.
    """
    residual = np.ldexp(actual, -exponent) - np.ldexp(predicted, -exponent)
    return _overflow_check(float(np.ldexp(np.sqrt((residual**2).mean()), exponent)), "rmse")


def _r2(actual: np.ndarray, predicted: np.ndarray, exponent: int) -> float:
    """1 - SS_res / SS_tot of the pair scaled by ``2**-exponent``, with ``exponent`` the unit exponent of ``actual``.

    The ratio is unchanged, and SS_tot can then neither overflow nor underflow
    to 0; only SS_res can overflow, for a fit about 1e308 times worse.
    """
    if actual.size < 2:
        raise ValueError("r2 requires at least 2 points")
    if (actual == actual[0]).all():
        raise ValueError("r2 undefined for constant actual values (zero variance)")
    actual, predicted = np.ldexp(actual, -exponent), np.ldexp(predicted, -exponent)
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
    check_number("MAPE epsilon", epsilon, positive=True)
    actual, predicted, abs_actual, _, _ = _as_pair(actual, predicted)
    mask = abs_actual >= epsilon
    if not mask.any():
        raise ValueError(f"all {actual.size} points below epsilon={epsilon}, MAPE undefined")
    with np.errstate(over="ignore"):
        value = float((np.abs(actual[mask] - predicted[mask]) / abs_actual[mask]).mean()) * 100.0
    return _overflow_check(value, "mape")


def mape_excluded_count(actual, epsilon: float = DEFAULT_MAPE_EPSILON) -> int:
    """Number of points the MAPE near-zero guard would drop; raises ValueError if a value is not finite."""
    check_number("MAPE epsilon", epsilon, positive=True)
    magnitudes = np.abs(np.asarray(actual, dtype=float))
    _unit_exponent(magnitudes, "actual values")
    return int((magnitudes < epsilon).sum())


def rmse(actual, predicted) -> float:
    """Root mean squared error.

    Both inputs are scaled by the power of two that puts their largest
    magnitude in [0.5, 1), as in :func:`r2`, so every finite input whose RMSE
    float64 holds gets its true value.
    """
    actual, predicted, _, *exponents = _as_pair(actual, predicted)
    with np.errstate(over="ignore"):
        return _rmse(actual, predicted, max(exponents))


def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot. May be negative.

    Both inputs are scaled by the power of two that puts max |actual| in
    [0.5, 1), as in :func:`pearson`, so every finite input gets its true value.
    """
    actual, predicted, _, exponent, _ = _as_pair(actual, predicted)
    with np.errstate(over="ignore"):
        return _r2(actual, predicted, exponent)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient.

    Each input is first scaled by the power of two that puts its largest
    magnitude in [0.5, 1). That leaves the result unchanged, and afterwards
    no sum can overflow and no standard deviation underflow, so no finite
    input loses its value to the range of float64.
    """
    xs, ys, _, x_exponent, y_exponent = _as_pair(xs, ys)
    if xs.size < 2:
        raise ValueError("pearson requires at least 2 points")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("pearson undefined when either input has zero variance")
    xs, ys = np.ldexp(xs, -x_exponent), np.ldexp(ys, -y_exponent)
    dx = xs - np.mean(xs)
    dy = ys - np.mean(ys)
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    return float(np.sum(dx * dy) / (sx * sy))


def summarize(actual, predicted, epsilon: float = DEFAULT_MAPE_EPSILON) -> MetricSummary:
    """All three error metrics plus point counts for one prediction run.

    Raises ValueError if an actual value or a prediction is not finite, and
    if a metric overflows float64, so no metric reads NaN or infinity.
    :func:`mape` checks the epsilon and the pair, once; one magnitude pass per
    input then gives the excluded count and the exponents that the kernels of
    :func:`rmse` and :func:`r2` scale by. Each value is bitwise the public
    function's, and each bad input raises what they raise, in the same order.
    """
    mape_value = mape(actual, predicted, epsilon)
    actual, predicted = np.asarray(actual, dtype=float), np.asarray(predicted, dtype=float)
    abs_actual = np.abs(actual)
    exponents = _unit_exponent(abs_actual, "actual values"), _unit_exponent(np.abs(predicted), "predictions")
    with np.errstate(over="ignore"):
        return MetricSummary(
            mape=mape_value,
            rmse=_rmse(actual, predicted, max(exponents)),
            r2=_r2(actual, predicted, exponents[0]),
            n_points=int(actual.size),
            n_excluded=int((abs_actual < epsilon).sum()),
        )
