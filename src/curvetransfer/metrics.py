"""Predictive-error metrics: MAPE, RMSE, R2, and Pearson correlation."""

from __future__ import annotations

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
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty input")
    return actual, predicted


# These functions call ndarray methods (``x.sum()``), which run the same
# reductions as ``np.sum(x)`` without its dispatch wrapper.


def _rmse(squared_error: np.ndarray) -> float:
    return float(np.sqrt(squared_error.mean()))


def _r2(actual: np.ndarray, squared_error: np.ndarray) -> float:
    if actual.size < 2:
        raise ValueError("r2 requires at least 2 points")
    if (actual == actual[0]).all():
        raise ValueError("r2 undefined for constant actual values (zero variance)")
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    ss_res = float(squared_error.sum())
    return 1.0 - ss_res / ss_tot


def mape(actual, predicted, epsilon: float = DEFAULT_MAPE_EPSILON) -> float:
    """Mean absolute percentage error, in percent.

    Points with |actual| < epsilon are excluded from the mean: tensile curves
    start at stress ~0 and the relative error is undefined there. Raises if
    every point is excluded.
    """
    actual, predicted = _as_pair(actual, predicted)
    abs_actual = np.abs(actual)
    mask = abs_actual >= epsilon
    if not mask.any():
        raise ValueError(f"all {actual.size} points below epsilon={epsilon}, MAPE undefined")
    return float((np.abs(actual[mask] - predicted[mask]) / abs_actual[mask]).mean()) * 100.0


def mape_excluded_count(actual, epsilon: float = DEFAULT_MAPE_EPSILON) -> int:
    """Number of points the MAPE near-zero guard would drop."""
    actual = np.asarray(actual, dtype=float)
    return int((np.abs(actual) < epsilon).sum())


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    actual, predicted = _as_pair(actual, predicted)
    return _rmse((actual - predicted) ** 2)


def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot. May be negative."""
    actual, predicted = _as_pair(actual, predicted)
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

    Raises ValueError if a prediction is not finite, so no metric reads
    NaN or infinity. Computes the squared error once, for the kernels of
    :func:`rmse` and :func:`r2`; each value is bitwise the public
    function's, and each bad input raises what those functions raise, in
    the same order.
    """
    actual, predicted = _as_pair(actual, predicted)
    if not np.isfinite(predicted).all():
        raise ValueError(f"{int(np.sum(~np.isfinite(predicted)))} of {predicted.size} predictions are not finite")
    squared_error = (actual - predicted) ** 2
    return MetricSummary(
        mape=mape(actual, predicted, epsilon),
        rmse=_rmse(squared_error),
        r2=_r2(actual, squared_error),
        n_points=int(actual.size),
        n_excluded=mape_excluded_count(actual, epsilon),
    )
