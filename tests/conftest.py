"""Shared fixtures: tiny manifest/CSV writers for ingestion tests, and test-only oracles."""

import json

import numpy as np
import pytest


def write_curve_csv(path, strain, stress):
    lines = ["strain,stress"]
    lines += [f"{e},{s}" for e, s in zip(strain, stress)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(tmp_path, name="demo", role="target", schema=None, samples=None):
    """Write a manifest plus per-sample CSVs; returns the manifest path.

    ``samples`` maps sample_id -> (strain, stress, params).
    """
    schema = schema if schema is not None else [{"name": "speed", "unit": "mm/s"}]
    samples = samples if samples is not None else {
        "1": ([0.0, 0.01, 0.02], [0.0, 10.0, 20.0], {"speed": 10.0}),
        "2": ([0.0, 0.01, 0.02], [0.0, 12.0, 24.0], {"speed": 20.0}),
    }
    entries = []
    for sid, (strain, stress, params) in samples.items():
        fname = f"{sid}.csv"
        write_curve_csv(tmp_path / fname, strain, stress)
        entries.append({"id": sid, "file": fname, "params": params})
    manifest = {"name": name, "role": role, "param_schema": schema, "samples": entries}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path


@pytest.fixture
def simple_manifest(tmp_path):
    return write_manifest(tmp_path)


def linear_curve(sample_id="s", n=30, slope=1000.0, max_strain=0.05, params=None):
    from curvetransfer.curves import RawCurve

    strain = np.linspace(0.0, max_strain, n)
    return RawCurve(sample_id, strain, slope * strain, params or {})


def euclidean_distance(a, b):
    """Point-by-point sum of squared stress differences of two gridded curves (no warping)."""
    return float(np.sum((a - b) ** 2))


BRUTE_FORCE_MAX_LEN = 10


def brute_force_dtw(a, b) -> float:
    """Exhaustive-enumeration DTW over all valid alignment paths.

    Test oracle for :func:`curvetransfer.similarity.dtw_distance`: recursively
    explores every monotone path from (0, 0) to (K-1, L-1) without memoization
    and returns the minimum total squared-difference cost. Exponential in
    sequence length, hence the length cap.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    K, L = len(a), len(b)
    if K == 0 or L == 0:
        raise ValueError("sequences must be non-empty")
    if K > BRUTE_FORCE_MAX_LEN or L > BRUTE_FORCE_MAX_LEN:
        raise ValueError(f"sequences longer than {BRUTE_FORCE_MAX_LEN} are intractable to enumerate")
    d = [[(ai - bj) ** 2 for bj in b] for ai in a]

    def best_from(k: int, l: int) -> float:
        cost = d[k][l]
        if k == K - 1 and l == L - 1:
            return cost
        best = None
        if k + 1 < K:
            best = best_from(k + 1, l)
        if l + 1 < L:
            v = best_from(k, l + 1)
            best = v if best is None or v < best else best
        if k + 1 < K and l + 1 < L:
            v = best_from(k + 1, l + 1)
            best = v if v < best else best
        return cost + best

    return best_from(0, 0)


def loss_mse(predictions, targets) -> float:
    """Mean squared error."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("empty input")
    return float(np.mean((predictions - targets) ** 2))


def evaluate_loss(params, windows, targets):
    """Forward-only mean squared error of the model on a set of windows."""
    from curvetransfer.seqnet import forward_sequence

    predictions = [forward_sequence(params, w)[0] for w in windows]
    return loss_mse(predictions, targets)
