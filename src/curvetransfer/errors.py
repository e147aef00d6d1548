"""Exception types shared across the package, and the one check per kind of scalar."""

import math


class DataValidationError(ValueError):
    """Raised when input data (CSV, manifest, curve, plan) fails validation."""


class TrainingDivergenceError(RuntimeError):
    """Raised when a training loss becomes non-finite."""


def check_int(name: str, value, low: int) -> None:
    """DataValidationError unless ``value`` is a plain ``int`` (not a bool) of at least ``low``.

    A numpy integer is refused: the value goes into JSON, and ``json.dumps`` cannot write one.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise DataValidationError(f"{name} must be an integer >= {low}, got {_shown(value)}")


def check_number(name: str, value, positive: bool = False):
    """``value`` if it is a finite int or float (not a bool), and > 0 if ``positive``; else DataValidationError.

    An int too large for a float is refused as not finite.
    """
    try:
        finite = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite or (positive and value <= 0):
        raise DataValidationError(f"{name} must be a finite number{' > 0' if positive else ''}, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """``repr(value)``; an int with more digits than ``repr`` converts is shown by its size."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"
