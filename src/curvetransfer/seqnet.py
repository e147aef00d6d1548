"""From-scratch LSTM sequence regressor: forward pass, BPTT, optimizers, training loop.

One LSTM layer (forget/input/output gates, persistent cell state) followed by
a fully connected layer that maps the final hidden state to a single stress
output. Everything is double precision numpy; gradients are exact and checked
against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergenceError

# Row order of the gate-stacked blocks in ModelParams.flat.
STACK_ORDER = ("f", "i", "o", "c")

# Fixed name order: drives initialization draws and serialization.
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


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so no exp
    # overflows: the denominator is 1 + exp(-|z|) and the numerator
    # exp(min(z, 0)), which is exactly 1 for z >= 0.
    den = np.exp(-np.abs(z))
    den += 1.0
    out = np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    return np.divide(out, den, out=out)


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

    @classmethod
    def from_named(cls, input_dim: int, hidden_dim: int, arrays: dict) -> "ModelParams":
        """Parameters from one array per name in PARAM_NAMES; rejects bad shapes and non-finite values."""
        params = cls(input_dim, hidden_dim)
        for name in PARAM_NAMES:
            view = getattr(params, name)
            arr = np.asarray(arrays[name], dtype=float)
            if arr.shape != view.shape:
                raise ValueError(f"{name}: expected shape {view.shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite values")
            view[...] = arr
        return params

    def copy(self) -> "ModelParams":
        return ModelParams(self.input_dim, self.hidden_dim, self.flat.copy())


@dataclass
class CellState:
    """LSTM hidden and cell state vectors, each of length hidden_dim."""

    h: np.ndarray
    c: np.ndarray

    @staticmethod
    def zeros(hidden_dim: int) -> "CellState":
        return CellState(np.zeros(hidden_dim), np.zeros(hidden_dim))


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; loss is fixed to mean squared error."""

    epochs: int
    learning_rate: float = 1e-3
    sequence_length: int = 5
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "sequence_length", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.sequence_length < 1:
            raise ValueError(f"sequence_length must be >= 1, got {self.sequence_length}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


def init_params(seed: int, input_dim: int, hidden_dim: int = HIDDEN_DIM) -> ModelParams:
    """Seed-determined initial parameters.

    Each weight matrix is drawn uniformly from [-s, s] with
    s = sqrt(6 / (fan_in + fan_out)); biases start at zero.
    """
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    params = ModelParams(input_dim, hidden_dim)
    for name in PARAM_NAMES:
        if name.startswith("W"):
            view = getattr(params, name)
            fan_out, fan_in = view.shape
            s = np.sqrt(6.0 / (fan_in + fan_out))
            view[...] = rng.uniform(-s, s, size=view.shape)
    return params


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
    f = _sigmoid(params.W_fh @ h_prev + params.W_fx @ x_t + params.b_f)
    i = _sigmoid(params.W_ih @ h_prev + params.W_ix @ x_t + params.b_i)
    g = np.tanh(params.W_ch @ h_prev + params.W_cx @ x_t + params.b_c)
    c = f * c_prev + i * g
    o = _sigmoid(params.W_oh @ h_prev + params.W_ox @ x_t + params.b_o)
    h = o * np.tanh(c)
    return CellState(h=h, c=c), np.concatenate((f, i, o, g))


def _forward_into(
    params: ModelParams,
    window: np.ndarray,
    gates: np.ndarray,
    cs: np.ndarray,
    hs: np.ndarray,
    xz: np.ndarray,
    z: np.ndarray,
) -> float:
    """The forward pass of one (n, d) window, written into caller-owned buffers.

    Fills ``gates`` (n, 4h) and rows 1..n of ``cs`` and ``hs`` (n + 1, h),
    whose row 0 must hold the zero initial state; ``xz`` (4h, n) and ``z``
    (4h,) are scratch. Returns the prediction. This is the only copy of the
    forward arithmetic: :func:`forward_sequence` and :func:`train` both run it.
    """
    hd = params.hidden_dim
    np.matmul(params.W_x, window.T, out=xz)  # input contributions for every step at once
    xz += params.b[:, None]
    W_h = params.W_h
    h, c = hs[0], cs[0]
    for t in range(len(window)):
        np.matmul(W_h, h, out=z)
        z += xz[:, t]
        row = gates[t]
        f, i, o, g = row[:hd], row[hd : 2 * hd], row[2 * hd : 3 * hd], row[3 * hd :]
        _sigmoid(z[: 3 * hd], out=row[: 3 * hd])
        np.tanh(z[3 * hd :], out=g)
        c = np.add(f * c, i * g, out=cs[t + 1])
        h = np.multiply(o, np.tanh(c), out=hs[t + 1])
    return float(params.W_out[0] @ h + params.b_out[0])


def forward_sequence(
    params: ModelParams, window: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the cell over all rows of a window from a zero initial state.

    Returns the scalar prediction W_out . h_n + b_out (normalized-stress
    units) and the window's activations ``(gates, cs, hs)`` that
    :func:`backward` reads. Row t of the (n, 4h) ``gates`` is step t's gate
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
    gates = np.empty((n, 4 * hd))
    cs = np.zeros((n + 1, hd))
    hs = np.zeros((n + 1, hd))
    prediction = _forward_into(params, window, gates, cs, hs, np.empty((4 * hd, n)), np.empty(4 * hd))
    return prediction, (gates, cs, hs)


def predict_windows(params: ModelParams, windows: np.ndarray) -> np.ndarray:
    """Predictions for a (B, n, d) stack of independent windows, all B stepped together.

    Returns the (B,) predictions, bitwise equal to
    ``[forward_sequence(params, w)[0] for w in windows]``. Each step keeps
    :func:`forward_sequence`'s BLAS calls: the hidden projection is one GEMV
    per window (a stacked matmul), not a ``(B, h) @ W_h.T`` GEMM, and the
    output is a dot per window. A GEMM sums in another order, so it would
    move predictions in the last bit.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[1] == 0:
        raise ValueError(f"windows must be a non-empty 3-D (B, n, d) stack, got shape {windows.shape}")
    if windows.shape[2] != params.input_dim:
        raise ValueError(f"window columns {windows.shape[2]} != input_dim {params.input_dim}")
    if len(windows) == 1:
        # numpy runs a one-row product as a GEMV; forward_sequence is the exact path.
        return np.array([forward_sequence(params, windows[0])[0]])
    (B, n, _), hd = windows.shape, params.hidden_dim
    W_h, W_x, b = params.W_h, params.W_x, params.b
    h, c = np.zeros((B, hd)), np.zeros((B, hd))
    xz, z = np.empty((B, 4 * hd)), np.empty((B, 4 * hd))
    for t in range(n):
        x_t = windows[:, t]
        # forward_sequence projects a window's n input rows with one GEMM, or a
        # GEMV when n == 1; each step here makes the same call for all B rows.
        if n == 1:
            np.matmul(W_x, x_t[:, :, None], out=xz[:, :, None])
        else:
            np.matmul(x_t, W_x.T, out=xz)
        xz += b
        np.matmul(W_h, h[:, :, None], out=z[:, :, None])
        z += xz
        sig = _sigmoid(z[:, : 3 * hd])
        f, i, o = sig[:, :hd], sig[:, hd : 2 * hd], sig[:, 2 * hd :]
        c = f * c + i * np.tanh(z[:, 3 * hd :])
        h = o * np.tanh(c)
    return np.vecdot(h, params.W_out[0]) + params.b_out[0]


def loss_mse(predictions, targets) -> float:
    """Mean squared error."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("empty input")
    return float(np.mean((predictions - targets) ** 2))


def _backward_into(
    params: ModelParams,
    gates: np.ndarray,
    cs: np.ndarray,
    hs: np.ndarray,
    window: np.ndarray,
    dpred: float,
    dz: np.ndarray,
    grads: ModelParams,
) -> None:
    """BPTT for one window from its forward activations, written into ``grads``.

    ``dpred`` is the derivative of the loss by the prediction and ``dz``
    (n, 4h) is scratch for the per-step pre-activation gradients. Factors that
    depend on one operand are taken over all steps at once; each product keeps
    the left-to-right order of the per-step formulas (for the forget gate,
    dc * c_prev * f * (1 - f)), because forming f * (1 - f) first would move
    the gradients in the last bits.
    """
    n, hd = len(gates), params.hidden_dim
    h3 = 3 * hd
    W_h_T = params.W_h.T
    tanh_cs = np.tanh(cs[1:])
    dtanh_cs = 1.0 - tanh_cs ** 2
    one_minus_sig = 1.0 - gates[:, :h3]  # 1 - f, 1 - i, 1 - o
    dtanh_g = 1.0 - gates[:, h3:] ** 2
    dh = dpred * params.W_out[0]
    dc = np.zeros(hd)
    tmp = np.empty(hd)
    for t in range(n - 1, -1, -1):
        row, dz_t = gates[t], dz[t]
        f, i, o, g = row[:hd], row[hd : 2 * hd], row[2 * hd : h3], row[h3:]
        # dc = dc + dh * o * (1 - tanh(c)^2)
        np.multiply(dh, o, out=tmp)
        tmp *= dtanh_cs[t]
        dc += tmp
        # Gate order (f, i, o, c): dc * c_prev, dc * g, dh * tanh(c), then
        # times each sigmoid gate and its complement.
        np.multiply(dc, cs[t], out=dz_t[:hd])
        np.multiply(dc, g, out=dz_t[hd : 2 * hd])
        np.multiply(dh, tanh_cs[t], out=dz_t[2 * hd : h3])
        dz_t[:h3] *= row[:h3]
        dz_t[:h3] *= one_minus_sig[t]
        np.multiply(dc, i, out=dz_t[h3:])
        dz_t[h3:] *= dtanh_g[t]
        np.matmul(W_h_T, dz_t, out=dh)
        dc *= f

    np.matmul(dz.T, hs[:n], out=grads.W_h)  # summed outer products over all steps
    np.matmul(dz.T, window, out=grads.W_x)
    np.sum(dz, axis=0, out=grads.b)
    np.multiply(dpred, hs[n], out=grads.W_out[0])
    grads.b_out[0] = dpred


def backward(
    params: ModelParams,
    activations: tuple[np.ndarray, np.ndarray, np.ndarray],
    window: np.ndarray,
    target: float,
) -> ModelParams:
    """Exact gradients of the squared error (pred - target)^2 for one window.

    ``activations`` is the ``(gates, cs, hs)`` triple :func:`forward_sequence`
    returned for this window. Backpropagates through the output layer and all
    time steps; the gradient has the layout of ``params``.
    """
    gates, cs, hs = activations
    window = np.asarray(window, dtype=float)
    n = window.shape[0]
    if len(gates) != n:
        raise ValueError(f"activation/window mismatch: {len(gates)} steps for {n} rows")
    prediction = float(params.W_out[0] @ hs[n] + params.b_out[0])
    grads = ModelParams(params.input_dim, params.hidden_dim)
    dz = np.empty((n, 4 * params.hidden_dim))
    _backward_into(params, gates, cs, hs, window, 2.0 * (prediction - target), dz, grads)
    return grads


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
        _, activations = forward_sequence(params, window)
        grads = backward(params, activations, window, target)

    def loss_at() -> float:
        prediction, _ = forward_sequence(params, window)
        return (prediction - target) ** 2

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
    evaluated in its written order, through ``state.scratch``.
    """
    dims, grad_dims = (params.input_dim, params.hidden_dim), (grads.input_dim, grads.hidden_dim)
    if grad_dims != dims:
        raise ValueError(f"gradient (input_dim, hidden_dim) {grad_dims} != parameters' {dims}")
    theta, g = params.flat, grads.flat
    lr = config.learning_rate
    s1, s2 = state.scratch
    if config.optimizer == "sgd":
        theta -= np.multiply(lr, g, out=s1)
        return params

    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    # m <- beta1 * m + (1 - beta1) * g
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=s1)
    # v <- beta2 * v + (1 - beta2) * g * g
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=s1)
    s1 *= g
    v += s1
    # theta <- theta - lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.divide(m, bias1, out=s1)
    np.multiply(lr, s1, out=s1)
    np.divide(v, bias2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 /= s2
    theta -= s1
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
    loss goes non-finite. The step's activation and gradient buffers are
    allocated once per call.
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

    n, hd = windows.shape[1], params.hidden_dim
    gates = np.empty((n, 4 * hd))
    cs = np.zeros((n + 1, hd))
    hs = np.zeros((n + 1, hd))
    xz = np.empty((4 * hd, n))
    z = np.empty(4 * hd)
    dz = np.empty((n, 4 * hd))
    grads = ModelParams(params.input_dim, hd)
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
                prediction = _forward_into(params, window, gates, cs, hs, xz, z)
                residual = np.float64(prediction) - np.float64(target)
                total += residual * residual
                _backward_into(params, gates, cs, hs, window, 2.0 * (prediction - target), dz, grads)
                optimizer_step(params, grads, config, state)
        epoch_loss = float(total / len(windows))
        if not np.isfinite(epoch_loss):
            raise TrainingDivergenceError(
                f"training diverged: non-finite loss {epoch_loss} at epoch {epoch + 1}"
            )
        loss_history.append(epoch_loss)
    return params, loss_history
