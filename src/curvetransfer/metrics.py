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


def mape(actual, predicted, epsilon: float = DEFAULT_MAPE_EPSILON) -> float:
    """Mean absolute percentage error, in percent.

    Points with |actual| < epsilon are excluded from the mean: tensile curves
    start at stress ~0 and the relative error is undefined there. Raises if
    every point is excluded.
    """
    actual, predicted = _as_pair(actual, predicted)
    mask = np.abs(actual) >= epsilon
    if not np.any(mask):
        raise ValueError(f"all {actual.size} points below epsilon={epsilon}, MAPE undefined")
    return float(np.mean(np.abs(actual[mask] - predicted[mask]) / np.abs(actual[mask]))) * 100.0


def mape_excluded_count(actual, epsilon: float = DEFAULT_MAPE_EPSILON) -> int:
    """Number of points the MAPE near-zero guard would drop."""
    actual = np.asarray(actual, dtype=float)
    return int(np.sum(np.abs(actual) < epsilon))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    actual, predicted = _as_pair(actual, predicted)
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot. May be negative."""
    actual, predicted = _as_pair(actual, predicted)
    if actual.size < 2:
        raise ValueError("r2 requires at least 2 points")
    if np.all(actual == actual[0]):
        raise ValueError("r2 undefined for constant actual values (zero variance)")
    ss_tot = float(np.sum((actual - np.mean(actual)) ** 2))
    ss_res = float(np.sum((actual - predicted) ** 2))
    return 1.0 - ss_res / ss_tot


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
    NaN or infinity.
    """
    actual, predicted = _as_pair(actual, predicted)
    if not np.all(np.isfinite(predicted)):
        raise ValueError(f"{int(np.sum(~np.isfinite(predicted)))} of {predicted.size} predictions are not finite")
    return MetricSummary(
        mape=mape(actual, predicted, epsilon),
        rmse=rmse(actual, predicted),
        r2=r2(actual, predicted),
        n_points=int(actual.size),
        n_excluded=mape_excluded_count(actual, epsilon),
    )
