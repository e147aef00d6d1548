"""Closed-form checks and invariants for MAPE, RMSE, R2, and Pearson."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvetransfer.metrics import mape, mape_excluded_count, pearson, r2, rmse, summarize


BAD_EPSILONS = [0.0, -0.0, -1e-6, np.nan, np.inf, -np.inf, True, False, "1e-6", None, np.float32(1e-6)]
EPSILON_CALLS = {
    "mape": lambda actual, predicted, epsilon: mape(actual, predicted, epsilon),
    "mape_excluded_count": lambda actual, predicted, epsilon: mape_excluded_count(actual, epsilon),
    "summarize": lambda actual, predicted, epsilon: summarize(actual, predicted, epsilon),
}


class TestEpsilonValidation:
    @pytest.mark.parametrize("epsilon", BAD_EPSILONS, ids=repr)
    @pytest.mark.parametrize("call", list(EPSILON_CALLS))
    def test_bad_epsilon_rejected(self, call, epsilon):
        with pytest.raises(ValueError, match="MAPE epsilon must be a finite number > 0"):
            EPSILON_CALLS[call]([0.0, 1.0], [1.0, 1.0], epsilon)

    @pytest.mark.parametrize("call", list(EPSILON_CALLS))
    def test_epsilon_checked_before_the_data(self, call):
        with pytest.raises(ValueError, match="MAPE epsilon must be a finite number > 0, got nan"):
            EPSILON_CALLS[call]([], [1.0], float("nan"))

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-6, 1, np.float64(0.5), 3.0], ids=repr)
    def test_finite_positive_epsilon_accepted(self, epsilon):
        assert mape([2.0, 4.0], [1.0, 4.0], epsilon) == (25.0 if epsilon <= 2.0 else 0.0)
        assert mape_excluded_count([2.0, 4.0], epsilon) == (0 if epsilon <= 2.0 else 1)


class TestMape:
    def test_ten_percent_each(self):
        assert abs(mape([100.0, 200.0], [110.0, 180.0]) - 10.0) < 1e-12

    def test_perfect_prediction(self):
        assert mape([50.0, 75.0], [50.0, 75.0]) == 0.0

    def test_zero_guard_excludes_point(self):
        s = summarize([0.0, 100.0], [5.0, 100.0], epsilon=1e-6)
        assert s.mape == 0.0
        assert s.n_excluded == 1
        assert s.n_points == 2

    def test_all_excluded_rejected(self):
        with pytest.raises(ValueError, match="below epsilon"):
            mape([0.0, 0.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mape([1.0], [1.0, 2.0])


class TestRmse:
    def test_three_four_five(self):
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < 1e-12

    def test_identical(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_pair(self):
        assert rmse([1.0], [3.0]) == 2.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        a, p = rng.random(30), rng.random(30)
        perm = rng.permutation(30)
        assert abs(rmse(a, p) - rmse(a[perm], p[perm])) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse([], [])


class TestR2:
    def test_perfect(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_zero(self):
        actual = np.array([1.0, 2.0, 3.0])
        assert abs(r2(actual, np.full(3, actual.mean()))) < 1e-12

    def test_can_be_negative(self):
        assert abs(r2([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) - (-3.0)) < 1e-12

    def test_constant_actual_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            r2([0.4, 0.4, 0.4], [1.0, 2.0, 3.0])


class TestPearson:
    def test_positive_affine(self):
        xs = np.array([0.1, 0.4, 0.9, 1.7])
        assert abs(pearson(xs, 2.0 * xs + 1.0) - 1.0) < 1e-12

    def test_negation(self):
        xs = np.array([0.1, 0.4, 0.9])
        assert abs(pearson(xs, -xs) + 1.0) < 1e-12

    def test_distance_error_row(self):
        # Published distance/error quadruple with a strong linear relation.
        xs = [0.173, 0.100, 0.097, 0.085]
        ys = [42.07, 9.80, 9.49, 7.01]
        assert abs(pearson(xs, ys) - 0.996) < 1e-3

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        xs, ys = rng.random(20), rng.random(20)
        base = pearson(xs, ys)
        assert abs(pearson(3.0 * xs + 7.0, ys) - base) < 1e-10
        assert abs(pearson(xs, 0.5 * ys - 2.0) - base) < 1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestSummarize:
    def test_consistency_on_perfect_fit(self):
        y = np.array([10.0, 20.0, 35.0])
        s = summarize(y, y)
        assert s.mape == 0.0 and s.rmse == 0.0 and s.r2 == 1.0
        assert s.n_points == 3 and s.n_excluded == 0

    def test_random_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            actual = rng.random(15) * 100 + 1.0
            predicted = actual + rng.normal(0, 5, size=15)
            s = summarize(actual, predicted)
            assert s.mape >= 0.0
            assert s.rmse >= 0.0
            assert s.r2 <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_rejected(self, bad):
        with pytest.raises(ValueError, match="1 of 3 predictions are not finite"):
            summarize(np.array([10.0, 20.0, 35.0]), np.array([10.0, bad, 35.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_actual_rejected(self, bad):
        with pytest.raises(ValueError, match="1 of 3 actual values are not finite"):
            summarize(np.array([10.0, bad, 35.0]), np.array([10.0, 20.0, 35.0]))

    # Finite inputs whose metric overflows float64, each the first failing check.
    # The suite turns RuntimeWarning into an error, so these also show that no
    # overflow warning escapes.
    @pytest.mark.parametrize("actual, predicted, message", [
        ([1.0, 2.0], [1e308, 2.0], "mape overflows float64"),
        ([1.0, 2.0], [1e200, 2.0], "rmse overflows float64"),
        ([-1e200, 1e200], [-1e200, 1e200], "r2 undefined: the total sum of squares overflows float64"),
        ([0.0, 1e-170], [0.0, 1e-170], "r2 undefined: the total sum of squares underflows to 0"),
        ([0.0, 1e-160], [1.0, 1e-160], "r2 overflows float64"),
    ])
    def test_overflowing_metric_rejected(self, actual, predicted, message):
        with pytest.raises(ValueError, match=message):
            summarize(actual, predicted, epsilon=1e-300)
        public = {"mape": lambda: mape(actual, predicted, 1e-300), "rmse": lambda: rmse(actual, predicted),
                  "r2": lambda: r2(actual, predicted)}[message.split()[0]]
        with pytest.raises(ValueError, match=message):
            public()


def reference_summary(actual, predicted, epsilon):
    """``summarize``'s checks and formulas written out in full, each metric on its own.

    Returns ``(mape, rmse, r2)`` as bytes, the point count and the excluded
    count, or raises what ``summarize`` must raise, in its order.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(actual)):
        raise ValueError(f"{int(np.sum(~np.isfinite(actual)))} of {actual.size} actual values are not finite")
    if not np.all(np.isfinite(predicted)):
        raise ValueError(f"{int(np.sum(~np.isfinite(predicted)))} of {predicted.size} predictions are not finite")
    mask = np.abs(actual) >= epsilon
    if not np.any(mask):
        raise ValueError(f"all {actual.size} points below epsilon={epsilon}, MAPE undefined")
    with np.errstate(over="ignore"):
        mape_value = float(np.mean(np.abs(actual[mask] - predicted[mask]) / np.abs(actual[mask]))) * 100.0
        if mape_value == np.inf:
            raise ValueError("mape overflows float64")
        rmse_value = float(np.sqrt(np.mean((actual - predicted) ** 2)))
        if rmse_value == np.inf:
            raise ValueError("rmse overflows float64")
        if actual.size < 2:
            raise ValueError("r2 requires at least 2 points")
        if np.all(actual == actual[0]):
            raise ValueError("r2 undefined for constant actual values (zero variance)")
        ss_tot = float(np.sum((actual - np.mean(actual)) ** 2))
    if ss_tot == np.inf:
        raise ValueError("r2 undefined: the total sum of squares overflows float64")
    if ss_tot == 0.0:
        raise ValueError("r2 undefined: the total sum of squares underflows to 0")
    r2_value = 1.0 - float(np.sum((actual - predicted) ** 2)) / ss_tot
    if r2_value == -np.inf:
        raise ValueError("r2 overflows float64")
    excluded = int(np.sum(np.abs(actual) < epsilon))
    return np.array([mape_value, rmse_value, r2_value]).tobytes(), actual.size, excluded


# Few distinct values, zeros and near-zeros among them, so ties, constant
# inputs and all-excluded inputs come up often.
metric_values = st.sampled_from([0.0, -0.0, 1e-9, -1e-7, 0.5, 3.0, -250.0]) | st.floats(-1e6, 1e6)
# Values that are not finite, or whose squares, sums or ratios overflow or underflow float64.
extreme_values = st.sampled_from([np.nan, np.inf, -np.inf, 1e-170, -1e-160, 1e160, 1e200, -1.7e308])


@st.composite
def metric_inputs(draw):
    size = draw(st.integers(0, 12))
    actual = draw(st.lists(metric_values, min_size=size, max_size=size))
    other = draw(st.sampled_from([size, size, size, size + 1, max(size - 1, 0)]))
    predicted = draw(st.lists(metric_values, min_size=other, max_size=other))
    for values in (actual, predicted):
        if values and draw(st.integers(0, 2)) == 0:
            values[draw(st.integers(0, len(values) - 1))] = draw(extreme_values)
    return actual, predicted, draw(st.sampled_from([1e-6, 1e-3, 1.0]))


class TestSummarizeOnePass:
    @settings(max_examples=400, deadline=None)
    @given(metric_inputs())
    def test_equals_reference_and_public_functions_bitwise(self, case):
        actual, predicted, epsilon = case
        try:
            expected = reference_summary(actual, predicted, epsilon)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                summarize(actual, predicted, epsilon)
            assert str(raised.value) == str(exc)
            return
        s = summarize(actual, predicted, epsilon)
        assert (np.array([s.mape, s.rmse, s.r2]).tobytes(), s.n_points, s.n_excluded) == expected
        assert type(s.n_points) is int and type(s.n_excluded) is int
        public = [mape(actual, predicted, epsilon), rmse(actual, predicted), r2(actual, predicted)]
        assert np.array(public).tobytes() == expected[0]
        assert mape_excluded_count(actual, epsilon) == expected[2]

    @pytest.mark.parametrize("actual, predicted, message", [
        ([1.0, 2.0], [1.0], "length mismatch"),
        ([], [], "empty input"),
        ([1.0, 2.0], [np.nan, 1.0], "1 of 2 predictions are not finite"),
        ([0.0, 0.0], [np.inf, 1.0], "1 of 2 predictions are not finite"),
        ([np.nan, 1.0], [np.inf, 1.0], "1 of 2 actual values are not finite"),
        ([1.0, 2.0], [1e308, 1e200], "mape overflows"),
        ([0.0, 1e-9], [1.0, 1.0], "below epsilon"),
        ([2.0], [1.0], "r2 requires at least 2 points"),
        ([0.4, 0.4], [1.0, 2.0], "constant actual"),
    ])
    def test_first_failing_check_wins(self, actual, predicted, message):
        with pytest.raises(ValueError, match=message):
            summarize(actual, predicted)


class TestPublicMetricsRejectNonFiniteInput:
    """Each public metric runs ``summarize``'s finiteness check, so bad input never reads as a number."""

    @pytest.mark.parametrize("metric, actual, predicted, message", [
        (mape, [np.nan, 1.0], [1.0, 1.0], "1 of 2 actual values are not finite"),
        (mape, [1.0, 2.0], [1.0, -np.inf], "1 of 2 predictions are not finite"),
        (rmse, [np.inf, 1.0], [1.0, 1.0], "1 of 2 actual values are not finite"),
        (rmse, [1.0, 2.0], [np.nan, np.nan], "2 of 2 predictions are not finite"),
        (r2, [np.inf, 1.0], [1.0, 1.0], "1 of 2 actual values are not finite"),
        (r2, [1.0, 2.0], [np.inf, 1.0], "1 of 2 predictions are not finite"),
        (pearson, [np.nan, 1.0, 2.0], [1.0, 2.0, 3.0], "1 of 3 actual values are not finite"),
        (pearson, [1.0, 2.0, 3.0], [1.0, np.inf, 3.0], "1 of 3 predictions are not finite"),
    ])
    def test_non_finite_value_raises(self, metric, actual, predicted, message):
        with pytest.raises(ValueError, match=message):
            metric(actual, predicted)
