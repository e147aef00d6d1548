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
    return float(np.sum((a.stress_norm - b.stress_norm) ** 2))


def evaluate_loss(params, windows, targets):
    """Forward-only mean squared error of the model on a set of windows."""
    from curvetransfer.seqnet import forward_sequence, loss_mse

    predictions = [forward_sequence(params, w)[0] for w in windows]
    return loss_mse(predictions, targets)
