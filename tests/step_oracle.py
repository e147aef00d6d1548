"""Test-only LSTM oracles: the single-step cell, finite differences and the fresh-array step.

``lstm_cell_forward`` is one cell step in the standard forget-gate form, the
reference ``forward_sequence`` is checked against step by step.
``gradient_check`` compares BPTT gradients with central finite differences of
the package's own forward kernel.

The ``oracle_*`` functions are the package's per-window forward, backward,
optimizer and training loop bodies from before the step moved to in-place
kernels, kept unchanged apart from their names. ``seqnet.train`` must equal
``oracle_train`` bit for bit on ``ModelParams.flat`` and on the loss history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curvetransfer import seqnet
from curvetransfer.errors import TrainingDivergenceError
from curvetransfer.seqnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ModelParams,
    OptimizerState,
    TrainConfig,
    backward,
    init_optimizer_state,
)


@dataclass
class CellState:
    """LSTM hidden and cell state vectors, each of length hidden_dim."""

    h: np.ndarray
    c: np.ndarray

    @staticmethod
    def zeros(hidden_dim: int) -> "CellState":
        return CellState(np.zeros(hidden_dim), np.zeros(hidden_dim))


def lstm_cell_forward(
    params: ModelParams, x_t: np.ndarray, prev: CellState
) -> tuple[CellState, np.ndarray]:
    """One LSTM cell step in the standard forget-gate form.

    Returns the new state and the step's (4h,) gate row: the f, i, o sigmoid
    gates, then the tanh candidate g, in STACK_ORDER.
    """
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != (params.input_dim,):
        raise ValueError(f"x_t: expected shape ({params.input_dim},), got {x_t.shape}")
    h_prev, c_prev = prev.h, prev.c
    f = seqnet._sigmoid(params.W_fh @ h_prev + params.W_fx @ x_t + params.b_f)
    i = seqnet._sigmoid(params.W_ih @ h_prev + params.W_ix @ x_t + params.b_i)
    g = np.tanh(params.W_ch @ h_prev + params.W_cx @ x_t + params.b_c)
    c = f * c_prev + i * g
    o = seqnet._sigmoid(params.W_oh @ h_prev + params.W_ox @ x_t + params.b_o)
    h = o * np.tanh(c)
    return CellState(h=h, c=c), np.concatenate((f, i, o, g))


def gradient_check(
    params: ModelParams,
    window: np.ndarray,
    target: float,
    delta: float = 1e-5,
    grads: ModelParams | None = None,
) -> float:
    """Worst relative error between BPTT gradients and central finite differences.

    The relative error uses denominator max(|g|, |g_fd|, 1e-8) per parameter
    entry. Pass precomputed ``grads`` to check a candidate gradient (fault
    injection); otherwise :func:`backward` is called.
    """
    window = np.asarray(window, dtype=float)
    if grads is None:
        grads = backward(params, window, target)
    # One workspace serves every perturbed forward: its views follow params.flat.
    ws = seqnet._StepWorkspace(params, len(window))

    def loss_at() -> float:
        return (seqnet._forward_into(ws, window) - target) ** 2

    flat = params.flat
    worst = 0.0
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + delta
        loss_plus = loss_at()
        flat[idx] = original - delta
        loss_minus = loss_at()
        flat[idx] = original
        g_fd = (loss_plus - loss_minus) / (2.0 * delta)
        g = grads.flat[idx]
        rel = abs(g - g_fd) / max(abs(g), abs(g_fd), 1e-8)
        if rel > worst:
            worst = rel
    return worst


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; it is exp(-z) for z >= 0 and exp(z) below.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def oracle_forward_sequence(
    params: ModelParams, window: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the cell over all rows of a window from a zero initial state.

    Returns the scalar prediction W_out . h_n + b_out (normalized-stress
    units) and the window's activations ``(gates, cs, hs)`` that
    :func:`oracle_backward` reads. Row t of the (n, 4h) ``gates`` is step t's gate
    row as :func:`lstm_cell_forward` returns it; ``cs`` and ``hs`` are the
    (n + 1, h) cell and hidden states, row 0 the zero initial state and row
    t + 1 the state after step t. Equivalent to iterating
    :func:`lstm_cell_forward`, with the four gate products fused into one
    multiply by the gate-stacked W_h per step.
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[0] == 0:
        raise ValueError(f"window must be a non-empty 2-D matrix, got shape {window.shape}")
    if window.shape[1] != params.input_dim:
        raise ValueError(f"window columns {window.shape[1]} != input_dim {params.input_dim}")
    n, hd = window.shape[0], params.hidden_dim
    W_h = params.W_h
    xz = params.W_x @ window.T + params.b[:, None]  # input contributions for every step at once
    gates = np.empty((n, 4 * hd))
    cs = np.zeros((n + 1, hd))
    hs = np.zeros((n + 1, hd))
    h, c = hs[0], cs[0]
    for t in range(n):
        z = W_h @ h + xz[:, t]
        row = gates[t]
        row[: 3 * hd] = _sigmoid(z[: 3 * hd])
        f, i, o, g = row[:hd], row[hd : 2 * hd], row[2 * hd : 3 * hd], row[3 * hd :]
        np.tanh(z[3 * hd :], out=g)
        c = np.add(f * c, i * g, out=cs[t + 1])
        h = np.multiply(o, np.tanh(c), out=hs[t + 1])
    prediction = float(params.W_out[0] @ h + params.b_out[0])
    return prediction, (gates, cs, hs)


def oracle_backward(
    params: ModelParams,
    activations: tuple[np.ndarray, np.ndarray, np.ndarray],
    window: np.ndarray,
    target: float,
) -> ModelParams:
    """Exact gradients of the squared error (pred - target)^2 for one window.

    ``activations`` is the ``(gates, cs, hs)`` triple :func:`oracle_forward_sequence`
    returned for this window. Backpropagates through the output layer and all
    time steps; the gradient has the layout of ``params``.
    """
    gates, cs, hs = activations
    window = np.asarray(window, dtype=float)
    n = window.shape[0]
    if len(gates) != n:
        raise ValueError(f"activation/window mismatch: {len(gates)} steps for {n} rows")
    hd = params.hidden_dim
    W_h = params.W_h

    prediction = float(params.W_out[0] @ hs[n] + params.b_out[0])
    dpred = 2.0 * (prediction - target)

    tanh_cs = np.tanh(cs[1:])
    dh = dpred * params.W_out[0, :]
    dc = np.zeros(hd)
    dz = np.empty((n, 4 * hd))  # per-step pre-activation gradients, gate order (f, i, o, c)
    for t in range(n - 1, -1, -1):
        row = gates[t]
        f, i, o, g = row[:hd], row[hd : 2 * hd], row[2 * hd : 3 * hd], row[3 * hd :]
        tanh_c = tanh_cs[t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c ** 2)
        dz_t = dz[t]
        dz_t[:hd] = dc * cs[t] * f * (1.0 - f)
        dz_t[hd : 2 * hd] = dc * g * i * (1.0 - i)
        dz_t[2 * hd : 3 * hd] = do * o * (1.0 - o)
        dz_t[3 * hd :] = dc * i * (1.0 - g ** 2)
        dh = W_h.T @ dz_t
        dc = dc * f

    grads = ModelParams(params.input_dim, hd, np.empty_like(params.flat))
    np.matmul(dz.T, hs[:n], out=grads.W_h)  # summed outer products over all steps
    np.matmul(dz.T, window, out=grads.W_x)
    np.sum(dz, axis=0, out=grads.b)
    grads.W_out[0] = dpred * hs[n]
    grads.b_out[0] = dpred
    return grads


def oracle_optimizer_step(
    params: ModelParams,
    grads: ModelParams,
    config: TrainConfig,
    state: OptimizerState,
) -> ModelParams:
    """Apply one parameter update in place; returns the same ModelParams.

    sgd is the plain update theta <- theta - lr * grad; adam keeps
    bias-corrected first/second moment estimates.
    """
    dims, grad_dims = (params.input_dim, params.hidden_dim), (grads.input_dim, grads.hidden_dim)
    if grad_dims != dims:
        raise ValueError(f"gradient (input_dim, hidden_dim) {grad_dims} != parameters' {dims}")
    theta, g = params.flat, grads.flat
    lr = config.learning_rate
    if config.optimizer == "sgd":
        theta -= lr * g
        return params

    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    theta -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    return params


def oracle_train(
    params: ModelParams,
    windows,
    targets,
    config: TrainConfig,
) -> tuple[ModelParams, list[float]]:
    """Per-window (batch size 1) training over seed-shuffled epochs.

    ``windows`` is a (W, n, d) array (or anything ``np.asarray`` turns into
    one) and ``targets`` holds the W values they predict. Each epoch visits
    every window once in a freshly shuffled order and records the mean
    squared error observed during the pass. Deterministic for a fixed seed;
    aborts with a diagnostic if the loss goes non-finite.
    """
    windows = np.asarray(windows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if len(windows) == 0 or len(windows) != len(targets):
        raise ValueError(f"need matching non-empty windows/targets, got {len(windows)}/{len(targets)}")
    rng = np.random.default_rng(config.seed)
    state = init_optimizer_state(params, config)
    loss_history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(windows))
        total = np.float64(0.0)
        # Divergence produces huge residuals; let them saturate to inf quietly
        # and abort on the non-finite epoch mean.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in order:
                window = windows[idx]
                target = float(targets[idx])
                prediction, activations = oracle_forward_sequence(params, window)
                residual = np.float64(prediction) - np.float64(target)
                total += residual * residual
                grads = oracle_backward(params, activations, window, target)
                oracle_optimizer_step(params, grads, config, state)
        epoch_loss = float(total / len(windows))
        if not np.isfinite(epoch_loss):
            raise TrainingDivergenceError(
                f"training diverged: non-finite loss {epoch_loss} at epoch {epoch + 1}"
            )
        loss_history.append(epoch_loss)
    return params, loss_history
