"""From-scratch LSTM sequence regressor: forward pass, BPTT, optimizers, training loop.

One LSTM layer (forget/input/output gates, persistent cell state) followed by
a fully connected layer that maps the final hidden state to a single stress
output. Everything is double precision numpy; gradients are exact and checked
against central finite differences. The test-only oracles (the single-step
cell, the finite-difference check and the fresh-array training step) live in
``tests/step_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergenceError, check_int, check_number

# Row order of the gate-stacked blocks in ModelParams.flat.
STACK_ORDER = ("f", "i", "o", "c")

# Fixed name order of the initialization draws.
PARAM_NAMES = (
    "W_fh", "W_fx", "b_f",
    "W_ih", "W_ix", "b_i",
    "W_ch", "W_cx", "b_c",
    "W_oh", "W_ox", "b_o",
    "W_out", "b_out",
)

OPTIMIZERS = ("sgd", "adam")

# Hidden units of every LSTM the pipeline builds.
HIDDEN_DIM = 32

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _sigmoid(
    z: np.ndarray, out: np.ndarray | None = None, den: np.ndarray | None = None
) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so no exp
    # overflows: the denominator is 1 + exp(-|z|) and the numerator
    # exp(min(z, 0)), which is exactly 1 for z >= 0. ``den`` is optional
    # scratch of z's shape for the denominator.
    den = np.abs(z, den)
    np.negative(den, den)
    np.exp(den, den)
    np.add(den, 1.0, den)
    # np.minimum deprecates a positional ``out``.
    out = np.minimum(z, 0.0, out=out)
    np.exp(out, out)
    return np.divide(out, den, out)


def _cell_step(z_sig, z_g, sig, den, g, f, i, o, c_prev, c, tmp, h) -> None:
    """One LSTM cell step into the given buffers; both forward loops run it.

    Writes the gates ``sig`` (``f``, ``i``, ``o`` are its views) and ``g`` from
    the pre-activations ``z_sig`` and ``z_g``, then c = f * c_prev + i * g and
    h = o * tanh(c); ``den`` and ``tmp`` are scratch, ``c_prev`` may be ``c``.
    A numpy call on 32-128 elements costs mostly its dispatch, so every ufunc
    is bound once and takes its output by position (augmented assignment or
    a keyword ``out=`` costs about 0.1-0.5 us more).
    """
    add, multiply, tanh = np.add, np.multiply, np.tanh
    _sigmoid(z_sig, sig, den)
    tanh(z_g, g)
    multiply(f, c_prev, c)
    multiply(i, g, tmp)
    add(c, tmp, c)
    tanh(c, tmp)
    multiply(o, tmp, h)


class ModelParams:
    """All learnable parameters of the LSTM regressor, held in one float64 vector.

    ``flat`` holds, in order, the gate-stacked blocks W_h (4h, h), W_x (4h, d)
    and b (4h,), then the output layer W_out (1, h) and b_out (1,). Gate rows
    are stacked (f, i, o, c) so the three sigmoid gates are contiguous. The
    five blocks and the 12 per-gate arrays of PARAM_NAMES (hidden-to-gate
    (h, h), input-to-gate (h, d), bias (h,)) are views into ``flat``, so
    writing through any of them writes the vector. Gradients use the same
    type and layout.
    """

    def __init__(self, input_dim: int, hidden_dim: int, flat: np.ndarray | None = None):
        h, d = hidden_dim, input_dim
        o_x, o_b, o_out = 4 * h * h, 4 * h * (h + d), 4 * h * (h + d + 1)
        size = o_out + h + 1
        if flat is None:
            flat = np.zeros(size)
        if flat.shape != (size,) or flat.dtype != np.float64:
            raise ValueError(f"flat: expected float64 shape ({size},), got {flat.dtype} {flat.shape}")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.flat = flat
        self.W_h = flat[:o_x].reshape(4 * h, h)
        self.W_x = flat[o_x:o_b].reshape(4 * h, d)
        self.b = flat[o_b:o_out]
        self.W_out = flat[o_out : o_out + h].reshape(1, h)
        self.b_out = flat[o_out + h :]
        for k, g in enumerate(STACK_ORDER):
            rows = slice(k * h, (k + 1) * h)
            setattr(self, f"W_{g}h", self.W_h[rows])
            setattr(self, f"W_{g}x", self.W_x[rows])
            setattr(self, f"b_{g}", self.b[rows])

    def copy(self) -> "ModelParams":
        return ModelParams(self.input_dim, self.hidden_dim, self.flat.copy())


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; loss is fixed to mean squared error."""

    epochs: int
    learning_rate: float = 1e-3
    sequence_length: int = 5
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("sequence_length", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        check_number("learning_rate", self.learning_rate, positive=True)
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


def init_params(seed: int, input_dim: int, hidden_dim: int = HIDDEN_DIM) -> ModelParams:
    """Seed-determined initial parameters.

    Each weight matrix is drawn uniformly from [-s, s] with
    s = sqrt(6 / (fan_in + fan_out)); biases start at zero.
    """
    check_int("seed", seed, 0)
    check_int("input_dim", input_dim, 1)
    check_int("hidden_dim", hidden_dim, 1)
    rng = np.random.default_rng(seed)
    params = ModelParams(input_dim, hidden_dim)
    for name in PARAM_NAMES:
        if name.startswith("W"):
            view = getattr(params, name)
            fan_out, fan_in = view.shape
            s = np.sqrt(6.0 / (fan_in + fan_out))
            view[...] = rng.uniform(-s, s, size=view.shape)
    return params


class _StepWorkspace:
    """Every buffer and view one training step on an (n, d) window touches, bound once.

    Owns the activations ``(gates, cs, hs)``, the scratch of the forward and
    the backward pass (one ``tmp`` serves both), the gradient ``grads``, and
    each time step's views: ``forward_steps`` (t = 0..n-1; the input column,
    then :func:`_cell_step`'s views) and ``backward_steps`` (t = n-1..0).
    The parameter block views are bound to ``params.flat``, which the
    optimizer updates in place. So neither :func:`_forward_into` nor
    :func:`_backward_into` slices or allocates. Each call of :func:`train`,
    :func:`forward_sequence` and :func:`backward` builds its own; none is
    shared between calls, and none binds arrays it does not own.
    """

    def __init__(self, params: ModelParams, n: int):
        hd = params.hidden_dim
        h3 = 3 * hd
        # Row 0 of cs and hs is the zero initial state; the kernel never writes it.
        gates, cs, hs = self.activations = (
            np.empty((n, 4 * hd)), np.zeros((n + 1, hd)), np.zeros((n + 1, hd))
        )
        self.W_h, self.W_x, self.W_h_T = params.W_h, params.W_x, params.W_h.T
        self.b_col, self.w_out, self.b_out = params.b[:, None], params.W_out[0], params.b_out
        self.tmp = np.empty(hd)
        self.h_n = hs[n]
        self.xz = np.empty((4 * hd, n))
        self.z = np.empty(4 * hd)
        self.z_sig, self.z_g = self.z[:h3], self.z[h3:]
        self.den = np.empty(h3)
        self.cs_steps = cs[1:]
        self.gates_sig, self.gates_g = gates[:, :h3], gates[:, h3:]
        self.tanh_cs, self.dtanh_cs = np.empty((n, hd)), np.empty((n, hd))
        self.one_minus_sig, self.dtanh_g = np.empty((n, h3)), np.empty((n, hd))
        self.dh, self.dc = np.empty(hd), np.empty(hd)
        self.dz = dz = np.empty((n, 4 * hd))
        self.dz_T, self.hs_prev = dz.T, hs[:n]
        self.grads = ModelParams(params.input_dim, hd)
        self.grad_w_out = self.grads.W_out[0]
        # Per step: the three sigmoid gates as one block, then f, i, o, g.
        gate_views = [(row[:h3], row[:hd], row[hd : 2 * hd], row[2 * hd : h3], row[h3:]) for row in gates]
        self.forward_steps = tuple(
            (self.xz[:, t], sig, f, i, o, g, cs[t], cs[t + 1], hs[t], hs[t + 1])
            for t, (sig, f, i, o, g) in enumerate(gate_views)
        )
        self.backward_steps = tuple(
            (
                f, i, o, g, sig, cs[t],
                self.tanh_cs[t], self.dtanh_cs[t], self.one_minus_sig[t], self.dtanh_g[t],
                dz[t], dz[t, :hd], dz[t, hd : 2 * hd], dz[t, 2 * hd : h3], dz[t, :h3], dz[t, h3:],
            )
            for t, (sig, f, i, o, g) in reversed(list(enumerate(gate_views)))
        )


def _forward_into(ws: _StepWorkspace, window: np.ndarray) -> float:
    """The forward pass of one (n, d) window, written into the workspace ``ws``.

    Fills ``ws.activations``: the (n, 4h) gate rows and rows 1..n of the
    (n + 1, h) cell and hidden states, whose row 0 holds the zero initial
    state. Returns the prediction. The per-step loop only unpacks
    ``ws.forward_steps`` and writes into bound buffers: it allocates nothing
    and slices nothing. Ufuncs are called as in :func:`_cell_step`, and every
    BLAS product is an ``np.dot``, which dispatches faster than ``np.matmul``
    and gives its bytes. :func:`forward_sequence` and :func:`train` run it;
    it shares the cell step with :func:`predict_series` and the output layer
    with :func:`backward`, and only the projections and buffers differ.
    """
    add, dot = np.add, np.dot
    xz = ws.xz
    dot(ws.W_x, window.T, xz)  # input contributions for every step at once
    add(xz, ws.b_col, xz)
    W_h, z, z_sig, z_g, den, tmp = ws.W_h, ws.z, ws.z_sig, ws.z_g, ws.den, ws.tmp
    for xz_t, sig, f, i, o, g, c_prev, c, h_prev, h in ws.forward_steps:
        dot(W_h, h_prev, z)
        add(z, xz_t, z)
        _cell_step(z_sig, z_g, sig, den, g, f, i, o, c_prev, c, tmp, h)
    return _output_layer(ws)


def _output_layer(ws: _StepWorkspace) -> float:
    """The prediction W_out . h_n + b_out from the last hidden state in ``ws``."""
    return float(np.dot(ws.w_out, ws.h_n) + ws.b_out[0])


def forward_sequence(
    params: ModelParams, window: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the cell over all rows of a window from a zero initial state.

    Returns the scalar prediction W_out . h_n + b_out (normalized-stress
    units) and the window's activations ``(gates, cs, hs)`` that
    :func:`backward` reads. Row t of the (n, 4h) ``gates`` is step t's gate
    row (f, i, o, g in STACK_ORDER); ``cs`` and ``hs`` are the (n + 1, h)
    cell and hidden states, row 0 the zero initial state and row t + 1 the
    state after step t. Equivalent to iterating the single-step cell oracle
    in ``tests/step_oracle.py``, with the four gate products fused into one
    multiply by the gate-stacked W_h per step.
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[0] == 0:
        raise ValueError(f"window must be a non-empty 2-D matrix, got shape {window.shape}")
    if window.shape[1] != params.input_dim:
        raise ValueError(f"window columns {window.shape[1]} != input_dim {params.input_dim}")
    ws = _StepWorkspace(params, window.shape[0])
    prediction = _forward_into(ws, window)
    return prediction, ws.activations


def predict_series(params: ModelParams, rows: np.ndarray, n: int) -> np.ndarray:
    """Predictions for every length-n window of an (R, d) row series, all windows stepped together.

    Window j is rows j..j+n-1. Returns the (R - n + 1,) predictions, bitwise
    equal to ``[forward_sequence(params, rows[j : j + n])[0] for j in
    range(R - n + 1)]``. Each row is projected once, in the product
    :func:`forward_sequence` makes (a GEMM over rows, a stacked GEMV per row
    when n == 1), and step t of all B = R - n + 1 windows reads projected rows
    t..t+B-1. The hidden projection is one GEMV per window (a stacked matmul)
    and the output one dot per window: a GEMM sums in another order and would
    move predictions in the last bit. The cell update is :func:`_cell_step`
    on (B, .) blocks allocated once per call, with c updated in place. Step 0
    skips ``W_h @ 0`` and its add, which for finite parameters changes at most
    the sign of a zero in the pre-activation, never the cell or hidden state;
    parameters holding a non-finite value (``inf * 0`` is NaN) raise ValueError.
    """
    check_int("window length n", n, 1)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"rows must be a 2-D (R, d) matrix, got shape {rows.shape}")
    if rows.shape[1] != params.input_dim:
        raise ValueError(f"row columns {rows.shape[1]} != input_dim {params.input_dim}")
    if rows.shape[0] < n:
        raise ValueError(f"{rows.shape[0]} rows hold no window of length {n}")
    if not np.isfinite(params.flat).all():
        raise ValueError("parameters hold a non-finite value")
    R, hd = len(rows), params.hidden_dim
    B, h3 = R - n + 1, 3 * hd
    add, matmul = np.add, np.matmul
    W_h, W_x = params.W_h, params.W_x
    # The transposed product W_x @ rows.T is not bitwise equal to this from about R = 200 rows on.
    xz = np.empty((R, 4 * hd))
    if n == 1:
        matmul(W_x, rows[:, :, None], xz[:, :, None])
    else:
        matmul(rows, W_x.T, xz)
    add(xz, params.b, xz)
    # c starts as the zero state; h is first written at step 0, which never reads it.
    h, c, tmp = np.empty((B, hd)), np.zeros((B, hd)), np.empty((B, hd))
    z = np.empty((B, 4 * hd))
    # Contiguous gate blocks: exp and tanh run slower into strided outputs.
    sig, den, g = np.empty((B, h3)), np.empty((B, h3)), np.empty((B, hd))
    f, i, o = sig[:, :hd], sig[:, hd : 2 * hd], sig[:, 2 * hd :]
    z_col, h_col = z[:, :, None], h[:, :, None]
    for t in range(n):
        xz_t = xz[t : t + B]
        if t == 0:
            z_t = xz_t  # W_h @ 0 adds only signed zeros
        else:
            matmul(W_h, h_col, z_col)
            add(z, xz_t, z)
            z_t = z
        # c is updated in place: it is both c_prev and c.
        _cell_step(z_t[:, :h3], z_t[:, h3:], sig, den, g, f, i, o, c, c, tmp, h)
    return np.vecdot(h, params.W_out[0]) + params.b_out[0]


def _backward_into(ws: _StepWorkspace, window: np.ndarray, dpred: float) -> None:
    """BPTT for one window from the activations in ``ws``, written into ``ws.grads``.

    ``dpred`` is the derivative of the loss by the prediction. The
    pre-activation gradients go to ``ws.dz`` (n, 4h). Factors that depend on
    one operand are taken over all steps at once; each product keeps the
    left-to-right order of the per-step formulas (for the forget gate,
    dc * c_prev * f * (1 - f)), because forming f * (1 - f) first would move
    the gradients in the last bits. Like :func:`_forward_into`, and in its
    call form, the per-step loop only unpacks ``ws.backward_steps``: it
    allocates nothing and slices nothing.
    """
    add, subtract, multiply, square, dot = np.add, np.subtract, np.multiply, np.square, np.dot
    tanh_cs, dtanh_cs, dtanh_g = ws.tanh_cs, ws.dtanh_cs, ws.dtanh_g
    np.tanh(ws.cs_steps, tanh_cs)
    square(tanh_cs, dtanh_cs)
    subtract(1.0, dtanh_cs, dtanh_cs)  # 1 - tanh(c)^2
    subtract(1.0, ws.gates_sig, ws.one_minus_sig)  # 1 - f, 1 - i, 1 - o
    square(ws.gates_g, dtanh_g)
    subtract(1.0, dtanh_g, dtanh_g)  # 1 - g^2
    W_h_T, dh, dc, tmp = ws.W_h_T, ws.dh, ws.dc, ws.tmp
    multiply(dpred, ws.w_out, dh)
    dc.fill(0.0)
    for (
        f, i, o, g, sig, c_prev, tanh_c, dtanh_c, one_minus_sig, dtanh_g_t,
        dz_t, dz_f, dz_i, dz_o, dz_sig, dz_g,
    ) in ws.backward_steps:
        # dc = dc + dh * o * (1 - tanh(c)^2)
        multiply(dh, o, tmp)
        multiply(tmp, dtanh_c, tmp)
        add(dc, tmp, dc)
        # Gate order (f, i, o, c): dc * c_prev, dc * g, dh * tanh(c), then
        # times each sigmoid gate and its complement.
        multiply(dc, c_prev, dz_f)
        multiply(dc, g, dz_i)
        multiply(dh, tanh_c, dz_o)
        multiply(dz_sig, sig, dz_sig)
        multiply(dz_sig, one_minus_sig, dz_sig)
        multiply(dc, i, dz_g)
        multiply(dz_g, dtanh_g_t, dz_g)
        dot(W_h_T, dz_t, dh)
        multiply(dc, f, dc)

    grads = ws.grads
    dot(ws.dz_T, ws.hs_prev, grads.W_h)  # summed outer products over all steps
    dot(ws.dz_T, window, grads.W_x)
    add.reduce(ws.dz, 0, None, grads.b)
    multiply(dpred, ws.h_n, ws.grad_w_out)
    grads.b_out[0] = dpred


def backward(
    params: ModelParams,
    activations: tuple[np.ndarray, np.ndarray, np.ndarray],
    window: np.ndarray,
    target: float,
) -> ModelParams:
    """Exact gradients of the squared error (pred - target)^2 for one window.

    ``activations`` is the ``(gates, cs, hs)`` triple :func:`forward_sequence`
    returned for this window; it is copied into a fresh workspace, so it is
    never written and writing it later leaves the gradient alone. Backpropagates
    through :func:`_output_layer` and all time steps; the gradient has the
    layout of ``params``.
    """
    window = np.asarray(window, dtype=float)
    n = window.shape[0]
    ws = _StepWorkspace(params, n)
    for name, own, given in zip(("gates", "cs", "hs"), ws.activations, activations):
        if np.shape(given) != own.shape:
            raise ValueError(
                f"activation/window mismatch: {name} has shape {np.shape(given)}, "
                f"expected {own.shape} for {n} rows"
            )
        own[...] = given
    _backward_into(ws, window, 2.0 * (_output_layer(ws) - target))
    return ws.grads


@dataclass
class OptimizerState:
    """Adam moment estimates over ``ModelParams.flat`` and step counter (None for sgd).

    ``scratch`` holds two vectors of ``flat``'s size that each update writes
    its intermediate terms into, so a step allocates nothing.
    """

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def init_optimizer_state(params: ModelParams, config: TrainConfig) -> OptimizerState:
    scratch = (np.empty_like(params.flat), np.empty_like(params.flat))
    if config.optimizer == "adam":
        return OptimizerState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), scratch=scratch)
    return OptimizerState(scratch=scratch)


def optimizer_step(
    params: ModelParams,
    grads: ModelParams,
    config: TrainConfig,
    state: OptimizerState,
) -> ModelParams:
    """Apply one parameter update in place; returns the same ModelParams.

    sgd is the plain update theta <- theta - lr * grad; adam keeps
    bias-corrected first/second moment estimates. Each expression is
    evaluated in its written order, through ``state.scratch``, in
    :func:`_forward_into`'s call form.
    """
    dims, grad_dims = (params.input_dim, params.hidden_dim), (grads.input_dim, grads.hidden_dim)
    if grad_dims != dims:
        raise ValueError(f"gradient (input_dim, hidden_dim) {grad_dims} != parameters' {dims}")
    theta, g = params.flat, grads.flat
    lr = config.learning_rate
    s1, s2 = state.scratch
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    if config.optimizer == "sgd":
        subtract(theta, multiply(lr, g, s1), theta)
        return params

    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    # m <- beta1 * m + (1 - beta1) * g
    multiply(m, ADAM_BETA1, m)
    add(m, multiply(1.0 - ADAM_BETA1, g, s1), m)
    # v <- beta2 * v + (1 - beta2) * g * g
    multiply(v, ADAM_BETA2, v)
    multiply(1.0 - ADAM_BETA2, g, s1)
    multiply(s1, g, s1)
    add(v, s1, v)
    # theta <- theta - lr * (m / bias1) / (sqrt(v / bias2) + eps)
    divide(m, bias1, s1)
    multiply(lr, s1, s1)
    divide(v, bias2, s2)
    np.sqrt(s2, s2)
    add(s2, ADAM_EPS, s2)
    divide(s1, s2, s1)
    subtract(theta, s1, theta)
    return params


def train(
    params: ModelParams,
    windows,
    targets,
    config: TrainConfig,
) -> tuple[ModelParams, list[float]]:
    """Per-window (batch size 1) training over seed-shuffled epochs.

    ``windows`` is a (W, n, d) array (or anything ``np.asarray`` turns into
    one) and ``targets`` the (W,) values they predict. Each epoch visits
    every window once in a freshly shuffled order and records the mean
    squared error observed during the pass. Deterministic for a fixed seed.
    Raises ValueError for malformed or non-finite data, naming the first
    window that holds a non-finite value, and TrainingDivergenceError if the
    loss goes non-finite or the last update leaves a non-finite parameter.
    One workspace per call (see ``_StepWorkspace``) owns every buffer the
    step writes and binds every view it reads, so the per-window loop
    allocates nothing and slices nothing beyond taking the window itself;
    each ufunc of the step takes its output by position (see :func:`_cell_step`).
    """
    windows = np.asarray(windows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if windows.ndim != 3 or windows.shape[0] == 0 or windows.shape[1] == 0:
        raise ValueError(f"windows must be a non-empty 3-D (W, n, d) stack, got shape {windows.shape}")
    if windows.shape[2] != params.input_dim:
        raise ValueError(f"window columns {windows.shape[2]} != input_dim {params.input_dim}")
    if targets.shape != (len(windows),):
        raise ValueError(f"targets: expected shape ({len(windows)},), got {targets.shape}")
    finite = np.isfinite(windows).all(axis=(1, 2)) & np.isfinite(targets)
    if not finite.all():
        raise ValueError(f"window {int(np.argmin(finite))} or its target holds a non-finite value")

    ws = _StepWorkspace(params, windows.shape[1])
    rng = np.random.default_rng(config.seed)
    state = init_optimizer_state(params, config)
    loss_history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(windows))
        total = 0.0
        # Divergence produces huge residuals; let them saturate to inf quietly
        # and abort on the non-finite epoch mean.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in order:
                window = windows[idx]
                residual = _forward_into(ws, window) - float(targets[idx])
                total += residual * residual
                _backward_into(ws, window, 2.0 * residual)
                optimizer_step(params, ws.grads, config, state)
        epoch_loss = total / len(windows)
        if not math.isfinite(epoch_loss):
            raise TrainingDivergenceError(
                f"training diverged: non-finite loss {epoch_loss} at epoch {epoch + 1}"
            )
        loss_history.append(epoch_loss)
    # The loss never sees the last update; a non-finite parameter there
    # would reach predict_series, which rejects it.
    if not np.isfinite(params.flat).all():
        raise TrainingDivergenceError(
            f"training diverged: non-finite parameters after the last update of epoch {config.epochs}"
        )
    return params, loss_history
