"""Closed-form checks and invariants for MAPE, RMSE, R2, and Pearson."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvetransfer import metrics
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

    # Scaling both inputs by one power of two scales the RMSE by it. Unscaled,
    # the squared errors fall into the subnormal range (2**-540) or below the
    # smallest subnormal (2**-600, 2**-1000), or they overflow (2**600, 2**1000).
    @pytest.mark.parametrize("exponent", [-1000, -600, -540, 600, 1000])
    def test_scales_with_a_power_of_two(self, exponent):
        actual, predicted = np.array([1.0, 1.5, 2.0]), np.array([1.1, 1.4, 2.3])
        expected = np.ldexp(rmse(actual, predicted), exponent).tobytes()
        scaled = np.ldexp(actual, exponent), np.ldexp(predicted, exponent)
        assert np.float64(rmse(*scaled)).tobytes() == expected
        assert np.float64(summarize(*scaled, epsilon=5e-324).rmse).tobytes() == expected

    def test_true_value_beyond_float64_rejected(self):
        with pytest.raises(ValueError, match="rmse overflows float64"):
            rmse([1.7e308, -1.7e308], [-1.7e308, 1.7e308])


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

    # Scaling both inputs by one power of two leaves R2 unchanged. Unscaled, the
    # squared deviations of the actual values fall into the subnormal range
    # (2**-520 and below) or underflow to 0 (2**-540 and below), or their sum
    # overflows (2**600).
    @pytest.mark.parametrize("exponent", [-600, -540, -535, -530, -520, 600])
    def test_invariant_under_power_of_two_scaling(self, exponent):
        actual, predicted = np.array([1.0, 1.5, 2.0]), np.array([1.1, 1.4, 2.3])
        expected = np.float64(r2(actual, predicted)).tobytes()
        scaled = np.ldexp(actual, exponent), np.ldexp(predicted, exponent)
        assert np.float64(r2(*scaled)).tobytes() == expected
        assert np.float64(summarize(*scaled, epsilon=5e-324).r2).tobytes() == expected


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

    # Finite inputs at the edges of float64, each with its exact correlation.
    # Unscaled, the sum of squares of 1e200 overflows, that of 1e-200
    # underflows to 0, and the squared deviations of 1e-161 fall into the
    # subnormal range, which read 1.0. The suite turns RuntimeWarning into an
    # error, so these also show that no warning escapes.
    @pytest.mark.parametrize("xs, ys, expected", [
        ([1e200, -1e200, 0.0], [1.0, 2.0, 3.0], -0.5),
        ([1.0, 2.0, 3.0], [1e200, -1e200, 0.0], -0.5),
        ([1.7e308, 1.7e308, 1.0], [1.0, 2.0, 3.0], -0.75 ** 0.5),
        ([1e-200, 2e-200, 3e-200], [1.0, 2.0, 3.0], 1.0),
        ([1.0, 2.0, 3.0], [3e-200, 2e-200, 1e-200], -1.0),
        ([1e-161, 2e-161, 3e-161], [1e-161, 2e-161, 4e-161], 9 / 84 ** 0.5),
    ])
    def test_true_value_at_any_finite_scale(self, xs, ys, expected):
        assert pearson(xs, ys) == pytest.approx(expected, rel=1e-15)


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
    # overflow warning escapes. The RMSE is never first here: a residual whose
    # RMSE float64 cannot hold already overflows MAPE's difference.
    @pytest.mark.parametrize("actual, predicted, message", [
        ([1.0, 2.0], [1e308, 2.0], "mape overflows float64"),
        ([1.0, 2.0], [1e200, 2.0], "r2 overflows float64"),
        ([0.0, 1e-160], [1.0, 1e-160], "r2 overflows float64"),
    ])
    def test_overflowing_metric_rejected(self, actual, predicted, message):
        with pytest.raises(ValueError, match=message):
            summarize(actual, predicted, epsilon=1e-300)
        public = {"mape": lambda: mape(actual, predicted, 1e-300), "rmse": lambda: rmse(actual, predicted),
                  "r2": lambda: r2(actual, predicted)}[message.split()[0]]
        with pytest.raises(ValueError, match=message):
            public()

    # Unscaled, the total sum of squares of the first pair overflows and that
    # of the second underflows to 0; scaled, each is a perfect fit.
    @pytest.mark.parametrize("values", [[-1e200, 1e200], [0.0, 1e-170]])
    def test_extreme_total_sum_of_squares_is_scaled_away(self, values):
        assert summarize(values, values, epsilon=1e-300).r2 == 1.0
        assert r2(values, values) == 1.0


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
        # RMSE is scaled back from the pair scaled by 2**-e, which puts max(|actual|, |predicted|) in [0.5, 1).
        e = max(np.frexp(np.max(np.abs(actual)))[1], np.frexp(np.max(np.abs(predicted)))[1])
        rmse_value = float(np.ldexp(np.sqrt(np.mean((np.ldexp(actual, -e) - np.ldexp(predicted, -e)) ** 2)), e))
        if rmse_value == np.inf:
            raise ValueError("rmse overflows float64")
        if actual.size < 2:
            raise ValueError("r2 requires at least 2 points")
        if np.all(actual == actual[0]):
            raise ValueError("r2 undefined for constant actual values (zero variance)")
        # R2 is unchanged by scaling both inputs by 2**-e, which puts max |actual| in [0.5, 1).
        e = np.frexp(np.max(np.abs(actual)))[1]
        actual_s, predicted_s = np.ldexp(actual, -e), np.ldexp(predicted, -e)
        ss_tot = float(np.sum((actual_s - np.mean(actual_s)) ** 2))
        r2_value = 1.0 - float(np.sum((actual_s - predicted_s) ** 2)) / ss_tot
    if r2_value == -np.inf:
        raise ValueError("r2 overflows float64")
    excluded = int(np.sum(np.abs(actual) < epsilon))
    return np.array([mape_value, rmse_value, r2_value]).tobytes(), actual.size, excluded


def reference_pearson(xs, ys):
    """``pearson``'s checks and formula written out in full; raises what ``pearson`` must raise, in its order."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if xs.size == 0:
        raise ValueError("empty input")
    for values, what in ((xs, "actual values"), (ys, "predictions")):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{int(np.sum(~np.isfinite(values)))} of {values.size} {what} are not finite")
    if xs.size < 2:
        raise ValueError("pearson requires at least 2 points")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("pearson undefined when either input has zero variance")
    # Each input scaled by 2**-e, which puts its largest magnitude in [0.5, 1).
    dx, dy = (np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1]) for v in (xs, ys))
    dx, dy = dx - np.mean(dx), dy - np.mean(dy)
    return float(np.sum(dx * dy) / (float(np.sqrt(np.sum(dx * dx))) * float(np.sqrt(np.sum(dy * dy)))))


def assert_summary_equals_reference(actual, predicted, epsilon):
    """``summarize`` and the public metrics give ``reference_summary``'s values bitwise, or raise its message."""
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


def assert_pearson_equals_reference(xs, ys):
    try:
        expected = reference_pearson(xs, ys)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            pearson(xs, ys)
        assert str(raised.value) == str(exc)
        return
    assert np.float64(pearson(xs, ys)).tobytes() == np.float64(expected).tobytes()


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
        assert_summary_equals_reference(*case)

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


def test_summarize_checks_its_input_once(monkeypatch):
    calls = {"check_number": 0, "_as_pair": 0}
    for name in calls:
        check = getattr(metrics, name)

        def counted(*args, _check=check, _name=name, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counted)
    summarize([1.0, 2.0, 3.0], [1.1, 2.0, 2.9])
    assert calls == {"check_number": 1, "_as_pair": 1}


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
        (lambda actual, _: mape_excluded_count(actual), [np.nan, 1.0], None, "1 of 2 actual values are not finite"),
    ])
    def test_non_finite_value_raises(self, metric, actual, predicted, message):
        with pytest.raises(ValueError, match=message):
            metric(actual, predicted)


PUBLIC_METRICS = {
    "mape": mape,
    "mape_excluded_count": lambda actual, predicted: mape_excluded_count(actual),
    "rmse": rmse,
    "r2": r2,
    "pearson": pearson,
    "summarize": summarize,
}


@st.composite
def pairs_with_non_finite_values(draw):
    """A finite pair of one size, then NaN or +-inf at random positions of either input, at least one in all."""
    size = draw(st.integers(1, 12))
    pair = [draw(st.lists(metric_values, min_size=size, max_size=size)) for _ in range(2)]
    bad = []
    for values in pair:
        positions = draw(st.sets(st.integers(0, size - 1), max_size=size))
        for i in positions:
            values[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        bad.append(len(positions))
    assume(any(bad))
    return *pair, bad


@st.composite
def finite_pairs_at_any_scale(draw):
    """A finite pair from ``metric_inputs``' values, both scaled by one power of two in 2**-1000..2**1000."""
    size = draw(st.integers(1, 12))
    exponent = draw(st.integers(-1000, 1000))
    actual, predicted = (np.ldexp(draw(st.lists(metric_values, min_size=size, max_size=size)), exponent)
                         for _ in range(2))
    return actual, predicted, draw(st.sampled_from([1e-6, 5e-324, 1.0]))


class TestPublicMetricsProperties:
    @settings(max_examples=300, deadline=None)
    @given(pairs_with_non_finite_values(), st.sampled_from(sorted(PUBLIC_METRICS)))
    def test_non_finite_values_counted_actual_first(self, case, metric):
        actual, predicted, (bad_actual, bad_predicted) = case
        if not bad_actual and metric == "mape_excluded_count":  # it never reads the predictions
            assert mape_excluded_count(actual) == int(np.sum(np.abs(actual) < 1e-6))
            return
        expected = (f"{bad_actual} of {len(actual)} actual values are not finite" if bad_actual
                    else f"{bad_predicted} of {len(predicted)} predictions are not finite")
        with pytest.raises(ValueError) as raised:
            PUBLIC_METRICS[metric](actual, predicted)
        assert str(raised.value) == expected

    @settings(max_examples=300, deadline=None)
    @given(finite_pairs_at_any_scale())
    def test_equal_references_bitwise_at_any_scale(self, case):
        actual, predicted, epsilon = case
        assert_summary_equals_reference(actual, predicted, epsilon)
        assert_pearson_equals_reference(actual, predicted)

    def test_excluded_count_of_empty_input_is_zero(self):
        assert mape_excluded_count([]) == 0
