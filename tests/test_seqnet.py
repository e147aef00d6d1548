"""LSTM forward/backward correctness, optimizers, and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curvetransfer import transfer
from curvetransfer.errors import TrainingDivergenceError
from curvetransfer.scaling import fit_scalers
from curvetransfer.seqnet import (
    HIDDEN_DIM,
    PARAM_NAMES,
    ModelParams,
    TrainConfig,
    backward,
    forward_sequence,
    init_params,
    optimizer_step,
    init_optimizer_state,
    predict_series,
    train,
    _StepWorkspace,
    _sigmoid,
)
from curvetransfer.synthgen import standard_suite

from conftest import evaluate_loss, loss_mse
from step_oracle import (
    CellState,
    gradient_check,
    lstm_cell_forward,
    oracle_backward,
    oracle_forward_sequence,
    oracle_train,
)


def sign_split_sigmoid(z):
    """Reference logistic: 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, through masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, 709.9, -709.9, 746.0, -746.0, 5e-324, -5e-324]


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS), min_size=1, max_size=40))
    def test_matches_sign_split_reference_bitwise(self, values):
        z = np.array(values)
        assert _sigmoid(z).tobytes() == sign_split_sigmoid(z).tobytes()

    def test_limits_and_nan(self):
        out = _sigmoid(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert out[0] == out[1] == 0.5 and out[2] == 1.0 and out[3] == 0.0
        assert np.isnan(out[4])


def zero_params(input_dim=2, hidden_dim=3):
    params = init_params(0, input_dim, hidden_dim)
    for name in PARAM_NAMES:
        getattr(params, name)[:] = 0.0
    return params


class TestInitParams:
    def test_deterministic(self):
        a = init_params(123, 3, 8)
        b = init_params(123, 3, 8)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_shapes(self):
        p = init_params(0, 3, 32)
        assert p.W_fx.shape == (32, 3)
        assert p.W_fh.shape == (32, 32)
        assert p.b_f.shape == (32,)
        assert p.W_out.shape == (1, 32)
        assert p.b_out.shape == (1,)

    def test_seeds_differ(self):
        a = init_params(1, 3, 4)
        b = init_params(2, 3, 4)
        assert not np.array_equal(a.W_fx, b.W_fx)

    def test_biases_zero_and_bounds(self):
        p = init_params(7, 5, 6)
        assert np.all(p.b_f == 0) and np.all(p.b_out == 0)
        s = math.sqrt(6.0 / (5 + 6))
        assert np.all(np.abs(p.W_fx) <= s)


class TestCellForward:
    def test_all_zero_params(self):
        params = zero_params()
        state, gates = lstm_cell_forward(params, np.zeros(2), CellState.zeros(3))
        f, i, o, g = gates.reshape(4, 3)
        np.testing.assert_allclose(f, 0.5)
        np.testing.assert_allclose(i, 0.5)
        np.testing.assert_allclose(o, 0.5)
        np.testing.assert_allclose(g, 0.0)
        np.testing.assert_allclose(state.c, 0.0)
        np.testing.assert_allclose(state.h, 0.0)

    def test_forget_gate_saturation_preserves_cell(self):
        params = zero_params()
        params.b_f[:] = 50.0  # sigmoid saturates to ~1
        prev = CellState(h=np.zeros(3), c=np.array([0.3, -0.7, 1.2]))
        state, _ = lstm_cell_forward(params, np.zeros(2), prev)
        np.testing.assert_allclose(state.c, prev.c, rtol=1e-12)

    def test_activation_ranges(self):
        rng = np.random.default_rng(3)
        params = init_params(3, 4, 8)
        state = CellState.zeros(8)
        for _ in range(50):
            state, gates = lstm_cell_forward(params, rng.normal(size=4), state)
            for gate in gates.reshape(4, 8)[:3]:  # f, i, o
                assert np.all((gate > 0) & (gate < 1))
            assert np.all(np.abs(state.h) < 1)
            assert np.all(np.isfinite(state.c))

    def test_dimension_mismatch(self):
        params = zero_params(input_dim=2)
        with pytest.raises(ValueError, match="expected shape"):
            lstm_cell_forward(params, np.zeros(5), CellState.zeros(3))


def scalar_lstm_reference(params, window):
    """Independent hidden_dim=1 LSTM implemented with plain Python floats."""
    assert params.hidden_dim == 1

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    h, c = 0.0, 0.0
    for row in window:
        x = [float(v) for v in row]
        zf = params.W_fh[0, 0] * h + sum(params.W_fx[0, j] * x[j] for j in range(len(x))) + params.b_f[0]
        zi = params.W_ih[0, 0] * h + sum(params.W_ix[0, j] * x[j] for j in range(len(x))) + params.b_i[0]
        zg = params.W_ch[0, 0] * h + sum(params.W_cx[0, j] * x[j] for j in range(len(x))) + params.b_c[0]
        zo = params.W_oh[0, 0] * h + sum(params.W_ox[0, j] * x[j] for j in range(len(x))) + params.b_o[0]
        f, i, g, o = sig(zf), sig(zi), math.tanh(zg), sig(zo)
        c = f * c + i * g
        h = o * math.tanh(c)
    return params.W_out[0, 0] * h + params.b_out[0]


class TestForwardSequence:
    def test_all_zero_params_predict_zero(self):
        params = zero_params()
        pred, (gates, _, _) = forward_sequence(params, np.ones((4, 2)))
        assert pred == 0.0
        assert len(gates) == 4

    def test_single_step_equals_cell_plus_output(self):
        params = init_params(9, 2, 3)
        x = np.array([[0.4, -0.2]])
        state, _ = lstm_cell_forward(params, x[0], CellState.zeros(3))
        expected = float(params.W_out[0] @ state.h + params.b_out[0])
        pred, _ = forward_sequence(params, x)
        assert abs(pred - expected) < 1e-15

    def test_matches_manual_cell_iteration(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            params = init_params(trial, 3, 8)
            window = rng.normal(size=(6, 3))
            state = CellState.zeros(8)
            for x_t in window:
                state, _ = lstm_cell_forward(params, x_t, state)
            expected = float(params.W_out[0] @ state.h + params.b_out[0])
            pred, (gates, _, _) = forward_sequence(params, window)
            assert abs(pred - expected) < 1e-12
            assert len(gates) == 6

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 8), st.integers(1, 4), st.integers(1, 8))
    def test_activations_match_cell_iteration(self, data, hidden_dim, input_dim, n):
        values = st.floats(-3.0, 3.0)
        params = init_params(data.draw(st.integers(0, 2**16)), input_dim, hidden_dim)
        params.b[:] = data.draw(arrays(float, params.b.shape, elements=values))
        window = data.draw(arrays(float, (n, input_dim), elements=values))
        _, (gates, cs, hs) = forward_sequence(params, window)
        assert gates.shape == (n, 4 * hidden_dim)
        assert cs.shape == hs.shape == (n + 1, hidden_dim)
        assert np.all(cs[0] == 0.0) and np.all(hs[0] == 0.0)
        state = CellState.zeros(hidden_dim)
        for t, x_t in enumerate(window):
            state, gate_row = lstm_cell_forward(params, x_t, state)
            np.testing.assert_allclose(gates[t], gate_row, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cs[t + 1], state.c, rtol=0, atol=1e-12)
            np.testing.assert_allclose(hs[t + 1], state.h, rtol=0, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            params = init_params(100 + trial, 2, 1)
            for name in ("b_f", "b_i", "b_c", "b_o"):
                getattr(params, name)[:] = rng.normal(scale=2.0)
            window = rng.normal(size=(6, 2))
            pred, _ = forward_sequence(params, window)
            assert abs(pred - scalar_lstm_reference(params, window)) < 1e-12

    def test_saturated_gates_hand_value(self):
        # Forget open, input open, candidate saturated to tanh(large) = 1,
        # output open: after t steps c = t, h = tanh(t).
        params = zero_params(input_dim=1, hidden_dim=1)
        params.b_f[:] = 60.0
        params.b_i[:] = 60.0
        params.b_c[:] = 60.0
        params.b_o[:] = 60.0
        params.W_out[0, 0] = 1.0
        pred, _ = forward_sequence(params, np.zeros((3, 1)))
        assert abs(pred - math.tanh(3.0)) < 1e-9

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            forward_sequence(zero_params(), np.zeros((0, 2)))


def random_lstm_case(seed, hidden_dim, input_dim, n, batch, scale):
    """Seeded parameters with weights times ``scale`` and random biases, B (n, d) windows, B targets."""
    # scale 40 drives most gate pre-activations deep into saturation.
    rng = np.random.default_rng(seed)
    params = init_params(seed, input_dim, hidden_dim)
    params.flat *= scale
    params.b[:] = rng.normal(scale=scale, size=params.b.shape)
    params.b_out[:] = rng.normal()
    return params, rng.normal(size=(batch, n, input_dim)), rng.normal(size=batch)


def random_series_case(seed, hidden_dim, input_dim, n, n_windows, scale):
    """``random_lstm_case``'s parameters and an (n_windows + n - 1, d) row series holding n_windows windows."""
    params, rows, _ = random_lstm_case(seed, hidden_dim, input_dim, 1, n_windows + n - 1, scale)
    return params, rows[:, 0]


def per_window_predictions(params, rows, n):
    """``forward_sequence`` over each length-n window of ``rows``, one window at a time."""
    return np.array([forward_sequence(params, rows[j : j + n])[0] for j in range(len(rows) - n + 1)])


def assert_series_bitwise_equal(params, rows, n):
    predictions = predict_series(params, rows, n)
    assert predictions.shape == (len(rows) - n + 1,) and predictions.dtype == np.float64
    assert predictions.tobytes() == per_window_predictions(params, rows, n).tobytes()


class TestPredictSeries:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 33),
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(1, 300),
        st.sampled_from([1.0, 4.0, 40.0]),
    )
    def test_bitwise_equal_to_forward_sequence(self, seed, hidden_dim, input_dim, n, n_windows, scale):
        params, rows = random_series_case(seed, hidden_dim, input_dim, n, n_windows, scale)
        assert_series_bitwise_equal(params, rows, n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(2, 300),
        st.sampled_from([1.0, 4.0, 40.0]),
    )
    def test_large_batches_bitwise_equal(self, seed, input_dim, n, n_windows, scale):
        # The pipeline's hidden size, with series past one curve's windows.
        params, rows = random_series_case(seed, HIDDEN_DIM, input_dim, n, n_windows, scale)
        assert_series_bitwise_equal(params, rows, n)

    # One window: R == n rows, so the input projection is a GEMM over n rows
    # (a GEMV when n == 1), the call forward_sequence makes.
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    @pytest.mark.parametrize("input_dim", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_one_window_bitwise_equal(self, n, input_dim, scale):
        params, rows = random_series_case(3, HIDDEN_DIM, input_dim, n, 1, scale)
        assert_series_bitwise_equal(params, rows, n)

    @pytest.mark.parametrize("input_dim", [1, 3])
    @pytest.mark.parametrize("n_windows", [1, 2, 45, 300])
    def test_window_length_one_bitwise_equal(self, n_windows, input_dim):
        params, rows = random_series_case(5, HIDDEN_DIM, input_dim, 1, n_windows, 4.0)
        assert_series_bitwise_equal(params, rows, 1)

    @pytest.mark.parametrize("n", [1, 5])
    def test_long_series_bitwise_equal(self, n):
        params, rows = random_series_case(11, HIDDEN_DIM, 3, n, 5000, 1.0)
        assert_series_bitwise_equal(params, rows, n)

    # Step 0 skips W_h @ 0 and reads the input projection as its
    # pre-activation, so a step-0 zero may differ in sign from
    # forward_sequence's; the cases below feed it zeros of both signs.
    @pytest.mark.parametrize("input_dim", [1, 3])
    @pytest.mark.parametrize("n_windows", [1, 2, 7])
    def test_zero_inputs_and_negative_zero_bias_bitwise_equal(self, input_dim, n_windows):
        params, _ = random_series_case(7, HIDDEN_DIM, input_dim, 4, n_windows, 1.0)
        params.b[:] = -0.0
        rows = np.zeros((n_windows + 3, input_dim))
        predictions = predict_series(params, rows, 4)
        assert predictions.tobytes() == per_window_predictions(params, rows, 4).tobytes()
        # Every gate pre-activation is a zero, so h stays zero and only b_out is left.
        assert predictions.tobytes() == np.full(n_windows, params.b_out[0]).tobytes()

    @pytest.mark.parametrize("n_windows", [1, 2, 7])
    def test_negative_zero_input_projection_bitwise_equal(self, n_windows):
        # Inputs of -5e-324 make every product with W_x underflow to a zero;
        # forward_sequence's projection then holds exact -0.0 entries.
        params, _ = random_series_case(7, HIDDEN_DIM, 1, 4, n_windows, 1.0)
        params.b[:] = -0.0
        rows = np.full((n_windows + 3, 1), -5e-324)
        xz = np.dot(params.W_x, rows[:4].T) + params.b[:, None]
        assert ((xz[:, 0] == 0) & np.signbit(xz[:, 0])).any()
        assert_series_bitwise_equal(params, rows, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["W_h", "W_x", "b", "W_out", "b_out"])
    @pytest.mark.parametrize("n_windows", [1, 3])
    def test_non_finite_parameters_rejected(self, bad, where, n_windows):
        params = init_params(0, 2, 4)
        getattr(params, where).flat[0] = bad
        with pytest.raises(ValueError, match="parameters hold a non-finite value"):
            predict_series(params, np.zeros((n_windows + 2, 2)), 3)

    def test_whole_suite_bitwise_equal(self):
        sources, targets, _ = standard_suite(0)
        plateau = next(ds for ds in sources if ds.name == "poly_plateau")
        ckpt = transfer.pretrain(plateau.curves, TrainConfig(epochs=1), plateau.name)
        n = ckpt.sequence_length
        curves = [curve for ds in sources + targets for curve in ds.curves]
        assert len(curves) == 127
        for curve in curves:
            rows = transfer._curve_features(curve, ckpt.scalers)[:-1]
            assert_series_bitwise_equal(ckpt.params, rows, n)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 2), ()])
    def test_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            predict_series(zero_params(), np.zeros(shape), 1)

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError, match="row columns 3 != input_dim 2"):
            predict_series(zero_params(), np.zeros((6, 3)), 4)

    @pytest.mark.parametrize("rows, n", [(0, 1), (3, 4), (4, 8)])
    def test_fewer_rows_than_window_rejected(self, rows, n):
        with pytest.raises(ValueError, match=f"{rows} rows hold no window of length {n}"):
            predict_series(zero_params(), np.zeros((rows, 2)), n)

    @pytest.mark.parametrize("n", [0, -1, True, 2.0, "2", None])
    def test_bad_window_length_rejected(self, n):
        with pytest.raises(ValueError, match="window length n must be an integer >= 1"):
            predict_series(zero_params(), np.zeros((6, 2)), n)


class TestLossMse:
    def test_identical(self):
        assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_three_four(self):
        assert loss_mse([0.0, 0.0], [3.0, 4.0]) == 12.5

    def test_single_pair(self):
        assert loss_mse([1.0], [2.0]) == 1.0

    def test_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_mse([1.0], [1.0, 2.0])


class TestBackward:
    def test_zero_residual_zero_gradients(self):
        params = zero_params()
        window = np.ones((3, 2))
        pred, _ = forward_sequence(params, window)
        grads = backward(params, window, target=pred)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(grads, name), 0.0)

    def test_output_bias_gradient(self):
        params = init_params(5, 2, 4)
        window = np.random.default_rng(0).normal(size=(3, 2))
        pred, _ = forward_sequence(params, window)
        target = pred - 1.5
        grads = backward(params, window, target)
        assert abs(grads.b_out[0] - 2.0 * (pred - target)) < 1e-12

    @pytest.mark.parametrize("window", [np.zeros((3, 3)), np.zeros((0, 2)), np.zeros(2), np.zeros((1, 3, 2))])
    def test_window_refused_by_forward_sequences_rule(self, window):
        params = init_params(5, 2, 4)
        with pytest.raises(ValueError) as want:
            forward_sequence(params, window)
        with pytest.raises(ValueError) as got:
            backward(params, window, 0.0)
        assert str(got.value) == str(want.value)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for trial in range(3):
            params = init_params(trial, 3, 4)
            window = rng.normal(size=(5, 3))
            target = float(rng.normal())
            assert gradient_check(params, window, target) < 1e-4


class TestGradientCheck:
    def test_injected_fault_detected(self):
        params = init_params(2, 3, 4)
        window = np.random.default_rng(2).normal(size=(5, 3))
        target = 0.7
        grads = backward(params, window, target)
        grads.W_cx[:] = 0.0
        assert gradient_check(params, window, target, grads=grads) > 0.5

    def test_zero_params_matching_target(self):
        params = zero_params()
        window = np.zeros((3, 2))
        assert gradient_check(params, window, target=0.0) == 0.0


class TestOptimizerStep:
    def test_sgd_arithmetic(self):
        config = TrainConfig(epochs=1, learning_rate=0.1, optimizer="sgd")
        params = zero_params()
        params.b_out[0] = 0.5
        grads = ModelParams(params.input_dim, params.hidden_dim)
        grads.b_out[0] = 1.0
        state = init_optimizer_state(params, config)
        optimizer_step(params, grads, config, state)
        assert abs(params.b_out[0] - 0.4) < 1e-15

    def test_zero_gradients_no_change(self):
        for optimizer in ("sgd", "adam"):
            config = TrainConfig(epochs=1, learning_rate=0.1, optimizer=optimizer)
            params = init_params(3, 2, 3)
            before = {name: getattr(params, name).copy() for name in PARAM_NAMES}
            grads = ModelParams(params.input_dim, params.hidden_dim)
            state = init_optimizer_state(params, config)
            optimizer_step(params, grads, config, state)
            for name in PARAM_NAMES:
                np.testing.assert_array_equal(getattr(params, name), before[name])

    def test_two_sgd_steps_accumulate(self):
        config = TrainConfig(epochs=1, learning_rate=0.2, optimizer="sgd")
        params = zero_params()
        grads = ModelParams(params.input_dim, params.hidden_dim)
        grads.b_c[:] = 3.0
        state = init_optimizer_state(params, config)
        optimizer_step(params, grads, config, state)
        optimizer_step(params, grads, config, state)
        np.testing.assert_allclose(params.b_c, -2 * 0.2 * 3.0)


def line_task(n_windows=40, n=4):
    # Predict the next value of y = 0.8 x on a sliding window.
    xs = np.linspace(0.0, 1.0, n_windows + n)
    windows = [xs[i : i + n].reshape(-1, 1) for i in range(n_windows)]
    targets = [0.8 * xs[i + n] for i in range(n_windows)]
    return windows, np.array(targets)


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("learning_rate", True),
        ("learning_rate", "1e-3"),
        ("epochs", True),
        ("epochs", 2.0),
        ("sequence_length", True),
        ("sequence_length", 5.0),
        ("seed", False),
        ("seed", 1.5),
        ("seed", "0"),
    ])
    def test_bad_config_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{"epochs": 1, field: value})

    def test_negative_seed_rejected(self):
        # numpy's generators refuse a negative seed deep inside training; the config refuses it first.
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
            TrainConfig(epochs=1, seed=-1)

    def test_single_epoch_single_pass(self):
        windows, targets = line_task(10)
        params = init_params(0, 1, 4)
        _, history = train(params, windows, targets, TrainConfig(epochs=1, seed=0))
        assert len(history) == 1

    def test_loss_decreases_on_line_task(self):
        windows, targets = line_task()
        params = init_params(0, 1, 8)
        initial = evaluate_loss(params, windows, targets)
        params, history = train(
            params, windows, targets, TrainConfig(epochs=60, learning_rate=5e-3, seed=0)
        )
        assert history[-1] < history[0]
        assert evaluate_loss(params, windows, targets) < initial

    def test_deterministic_history(self):
        windows, targets = line_task(15)
        config = TrainConfig(epochs=5, seed=9)
        _, h1 = train(init_params(1, 1, 4), windows, targets, config)
        _, h2 = train(init_params(1, 1, 4), windows, targets, config)
        assert h1 == h2

    def test_divergence_aborts_with_epoch(self):
        windows, targets = line_task(10)
        params = init_params(0, 1, 4)
        config = TrainConfig(epochs=50, learning_rate=1e12, optimizer="sgd", seed=0)
        with pytest.raises(TrainingDivergenceError, match="epoch"):
            train(params, windows, targets, config)

    def test_non_finite_last_update_aborts(self):
        # One window: the only update comes after the only loss, and overflows.
        window = np.random.default_rng(0).normal(size=(1, 5, 3))
        config = TrainConfig(epochs=1, learning_rate=1e308, optimizer="sgd")
        with pytest.raises(TrainingDivergenceError, match="non-finite parameters after the last update of epoch 1"):
            train(init_params(0, 3), window, np.array([5.0]), config)

    def test_column_targets_rejected(self):
        windows, targets = line_task(10)
        with pytest.raises(ValueError, match=r"targets: expected shape \(10,\), got \(10, 1\)"):
            train(init_params(0, 1, 4), windows, targets[:, None], TrainConfig(epochs=1))

    @pytest.mark.parametrize("shape", [(4, 1), (0, 4, 1), (3, 0, 1), (2, 3, 4, 1)])
    def test_windows_not_a_non_empty_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty 3-D"):
            train(init_params(0, 1, 4), np.zeros(shape), np.zeros(shape[0]), TrainConfig(epochs=1))

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError, match="window columns 3 != input_dim 2"):
            train(init_params(0, 2, 4), np.zeros((5, 4, 3)), np.zeros(5), TrainConfig(epochs=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("in_target", [False, True])
    def test_non_finite_data_names_first_bad_window(self, bad, in_target):
        windows, targets = line_task(10)
        windows = np.array(windows)
        for idx in (6, 3):
            if in_target:
                targets[idx] = bad
            else:
                windows[idx, 2, 0] = bad
        params = init_params(0, 1, 4)
        before = params.flat.copy()
        with pytest.raises(ValueError, match="window 3 or its target holds a non-finite value"):
            train(params, windows, targets, TrainConfig(epochs=1))
        assert np.array_equal(params.flat, before)


def assert_train_matches_oracle(params, windows, targets, config):
    got, got_history = train(params.copy(), windows, targets, config)
    want, want_history = oracle_train(params.copy(), windows, targets, config)
    assert np.array_equal(got.flat, want.flat)
    assert got_history == want_history


class TestTrainOracle:
    """``train`` against the fresh-array step in ``step_oracle``, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 5, 8, 16, 32, 33]),
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(1, 40),
        st.integers(1, 3),
        st.sampled_from(["adam", "sgd"]),
        st.sampled_from([1e-3, 3e-2]),
        st.sampled_from([1.0, 4.0, 40.0]),
    )
    def test_bitwise_equal_to_oracle(
        self, seed, hidden_dim, input_dim, n, n_windows, epochs, optimizer, lr, scale
    ):
        params, windows, targets = random_lstm_case(seed, hidden_dim, input_dim, n, n_windows, scale)
        config = TrainConfig(epochs=epochs, learning_rate=lr, optimizer=optimizer, seed=seed)
        assert_train_matches_oracle(params, windows, targets, config)

        # The public wrappers return what the oracle's step returns, byte for byte.
        prediction, activations = forward_sequence(params, windows[0])
        want_prediction, want_activations = oracle_forward_sequence(params, windows[0])
        assert prediction == want_prediction
        for got, want in zip(activations, want_activations):
            assert got.tobytes() == want.tobytes()
        grads = backward(params, windows[0], targets[0])
        want_grads = oracle_backward(params, want_activations, windows[0], targets[0])
        assert grads.flat.tobytes() == want_grads.flat.tobytes()

    def test_divergence_at_the_oracle_epoch(self):
        windows, targets = line_task(10)
        config = TrainConfig(epochs=50, learning_rate=1e12, optimizer="sgd", seed=0)
        with pytest.raises(TrainingDivergenceError) as want:
            oracle_train(init_params(0, 1, 4), windows, targets, config)
        with pytest.raises(TrainingDivergenceError) as got:
            train(init_params(0, 1, 4), windows, targets, config)
        assert str(got.value) == str(want.value)

    def test_poly_plateau_pretrain(self):
        sources, _, _ = standard_suite(0)
        plateau = next(ds for ds in sources if ds.name == "poly_plateau")
        config = TrainConfig(epochs=2)
        scalers = fit_scalers(plateau.curves)
        windows, targets = transfer.window_dataset(plateau.curves, scalers, config.sequence_length)
        params = init_params(config.seed, scalers.input_dim)
        assert_train_matches_oracle(params, windows, targets, config)


def window_layout(layout, windows, rng):
    """``windows`` (or, for "sliding", fresh windows of the same shape) in the given memory layout."""
    if layout == "c":
        return np.ascontiguousarray(windows)
    if layout == "fortran":
        return np.asfortranarray(windows)
    if layout == "strided":
        stack = np.zeros((2 * len(windows),) + windows.shape[1:])
        stack[::2] = windows
        return stack[::2]
    # The (L - n, n, d) view transfer._curve_windows builds over an (L, d) feature series.
    n_windows, n, d = windows.shape
    features = rng.normal(size=(n_windows + n, d))
    return np.lib.stride_tricks.sliding_window_view(features, n, axis=0)[:-1].transpose(0, 2, 1)


class TestWindowLayouts:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 5, 8, 32, 33]),
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(1, 30),
        st.sampled_from(["adam", "sgd"]),
        st.sampled_from([1.0, 40.0]),
        st.sampled_from(["c", "fortran", "strided", "sliding"]),
    )
    def test_train_equals_oracle_on_every_layout(
        self, seed, hidden_dim, input_dim, n, n_windows, optimizer, scale, layout
    ):
        params, windows, targets = random_lstm_case(seed, hidden_dim, input_dim, n, n_windows, scale)
        windows = window_layout(layout, windows, np.random.default_rng(seed))
        assert windows.shape == (n_windows, n, input_dim)
        config = TrainConfig(epochs=2, learning_rate=3e-2, optimizer=optimizer, seed=seed)
        assert_train_matches_oracle(params, windows, targets, config)


class TestDotEqualsMatmul:
    """The step's ``np.dot`` calls give ``np.matmul``'s bytes on the operands the workspace binds.

    The kernels call ``np.dot``, which dispatches faster; the oracle step
    calls ``np.matmul``. A numpy or OpenBLAS that routes one form to another
    BLAS kernel (GEMV, GEMM, dot, or a copy-and-GEMM) can sum in another
    order, and this fails first.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 4),
        st.integers(1, 8),
        st.sampled_from([1.0, 40.0]),
        st.sampled_from(["c", "fortran", "strided", "sliding"]),
    )
    def test_every_blas_call_of_the_step(self, seed, hidden_dim, input_dim, n, scale, layout):
        rng = np.random.default_rng(seed)
        params, windows, _ = random_lstm_case(seed, hidden_dim, input_dim, n, 3, scale)
        window = window_layout(layout, windows, rng)[1]
        ws = _StepWorkspace(params, n)
        hs = ws.activations[2]
        hs[1:] = rng.normal(size=(n, hidden_dim))
        ws.dz[...] = rng.normal(scale=scale, size=ws.dz.shape)
        calls = [
            (ws.W_x, window.T, ws.xz),
            (ws.W_h, hs[n - 1], ws.z),
            (ws.W_h_T, ws.dz[0], ws.dh),
            (ws.dz_T, ws.hs_prev, ws.grads.W_h),
            (ws.dz_T, window, ws.grads.W_x),
        ]
        for a, b, out in calls:
            np.dot(a, b, out)
            assert out.tobytes() == np.matmul(a, b, out=np.empty_like(out)).tobytes()
        assert np.dot(ws.w_out, ws.h_n).tobytes() == np.matmul(ws.w_out, ws.h_n).tobytes()
        np.add.reduce(ws.dz, 0, None, ws.grads.b)
        assert ws.grads.b.tobytes() == np.sum(ws.dz, axis=0).tobytes()


class TestBufferOwnership:
    """Each call owns its buffers: nothing one call returns is written by a later call."""

    def test_later_calls_leave_returned_arrays_alone(self):
        params, windows, targets = random_lstm_case(5, 8, 3, 6, 12, 4.0)
        _, activations = forward_sequence(params, windows[0])
        saved = [a.tobytes() for a in activations]
        grads = backward(params, windows[0], targets[0])
        saved_grads = grads.flat.tobytes()

        forward_sequence(params, windows[1])
        backward(params, windows[1], targets[1])
        train(params.copy(), windows, targets, TrainConfig(epochs=1))
        assert [a.tobytes() for a in activations] == saved
        assert grads.flat.tobytes() == saved_grads

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_backward_reads_a_window_of_any_layout(self, layout):
        params, windows, targets = random_lstm_case(7, 8, 3, 6, 2, 4.0)
        window = windows[0]
        _, want_activations = oracle_forward_sequence(params, window)
        want = oracle_backward(params, want_activations, window, targets[0]).flat.tobytes()
        given = {"c": np.ascontiguousarray(window), "fortran": np.asfortranarray(window),
                 "strided": np.repeat(window, 2, axis=1)[:, ::2]}[layout]
        assert given.tobytes() == window.tobytes()
        grads = backward(params, given, targets[0])
        assert grads.flat.tobytes() == want
        given[...] = np.nan  # the gradient is the caller's: a later write to the window leaves it alone
        assert grads.flat.tobytes() == want

    def test_train_calls_on_copies_agree(self):
        params, windows, targets = random_lstm_case(6, 8, 3, 6, 12, 4.0)
        config = TrainConfig(epochs=2, seed=6)
        want, want_history = oracle_train(params.copy(), windows, targets, config)
        for _ in range(2):
            got, got_history = train(params.copy(), windows, targets, config)
            assert np.array_equal(got.flat, want.flat)
            assert got_history == want_history
