"""Properties of the flat parameter buffer: shared-memory views, checkpoint round trip, Adam arithmetic."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from curvetransfer.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from curvetransfer.scaling import CurveScalers, FeatureScaler
from curvetransfer.seqnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PARAM_NAMES,
    ModelParams,
    TrainConfig,
    init_optimizer_state,
    init_params,
    optimizer_step,
)

dims = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@given(dims)
def test_named_views_tile_flat(dims):
    input_dim, hidden_dim, seed = dims
    params = init_params(seed, input_dim, hidden_dim)
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    for name in PARAM_NAMES + ("W_h", "W_x", "b"):
        assert np.shares_memory(getattr(params, name), params.flat), name
    assert sum(getattr(params, name).size for name in PARAM_NAMES) == params.flat.size
    params.W_ix[-1, -1] = 7.5
    assert params.W_x[2 * hidden_dim - 1, -1] == 7.5


@settings(max_examples=25)
@given(dims)
def test_checkpoint_round_trip_bit_exact(tmp_path_factory, dims):
    input_dim, hidden_dim, seed = dims
    params = init_params(seed, input_dim, hidden_dim)
    rng = np.random.default_rng(seed)
    params.flat[:] = rng.normal(size=params.flat.size) * 10.0 ** rng.integers(-300, 300, size=params.flat.size)
    scalers = CurveScalers(
        strain=FeatureScaler("strain", 0.0, 1.0),
        params=tuple(FeatureScaler(f"p{i}", 0.0, 2.0) for i in range(input_dim - 1)),
        stress=FeatureScaler("stress", 0.0, 100.0),
    )
    ckpt = ModelCheckpoint(params, scalers, sequence_length=5, seed=seed,
                           source_dataset="src", stage="pretrained")
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.params.flat.tobytes() == params.flat.tobytes()
    for name in PARAM_NAMES:
        assert getattr(loaded.params, name).tobytes() == getattr(params, name).tobytes()
    assert (loaded.scalers, loaded.sequence_length, loaded.seed, loaded.source_dataset, loaded.stage) == (
        scalers, 5, seed, "src", "pretrained"
    )


def adam_reference(theta: float, g: float, lr: float, steps: int) -> float:
    """Kingma & Ba's update for one scalar parameter under a constant gradient."""
    m = v = 0.0
    for t in range(1, steps + 1):
        m = m * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
        v = v * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
        theta -= lr * (m / (1.0 - ADAM_BETA1 ** t)) / (math.sqrt(v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)
    return theta


@given(dims, st.floats(min_value=1e-5, max_value=1.0))
def test_three_adam_steps_match_scalar_reference(dims, lr):
    input_dim, hidden_dim, seed = dims
    params = init_params(seed, input_dim, hidden_dim)
    theta0 = params.flat.copy()
    grads = ModelParams(input_dim, hidden_dim)
    grads.flat[:] = np.random.default_rng(seed).normal(size=grads.flat.size)
    config = TrainConfig(epochs=1, learning_rate=lr, optimizer="adam")
    state = init_optimizer_state(params, config)
    for _ in range(3):
        optimizer_step(params, grads, config, state)
    expected = [adam_reference(float(t), float(g), lr, 3) for t, g in zip(theta0, grads.flat)]
    assert params.flat.tolist() == expected
