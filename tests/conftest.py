"""Shared fixtures: tiny manifest/CSV writers for ingestion tests, and test-only oracles."""

import copy
import dataclasses
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


def normalize_curve(curve):
    """Divide strain and stress by their own maxima so both axes span [0, 1].

    Test oracle for the divide in :func:`curvetransfer.curves.grid_curves`.
    Requires a validated curve with positive strain and stress maxima; the
    maxima map to exactly 1.
    """
    from curvetransfer.errors import DataValidationError

    max_strain = float(np.max(curve.strain))
    max_stress = float(np.max(curve.stress))
    if max_strain <= 0.0:
        raise DataValidationError(
            f"sample {curve.sample_id!r}: max strain is {max_strain}, cannot normalize"
        )
    if max_stress <= 0.0:
        raise DataValidationError(
            f"sample {curve.sample_id!r}: max stress is {max_stress} (flat curve), cannot normalize"
        )
    return curve.strain / max_strain, curve.stress / max_stress


def resample_to_grid(strain_norm, stress_norm, n, sample_id=""):
    """Normalized stress linearly interpolated at the n evenly spaced grid points of [0, 1].

    Test oracle for the resampling in :func:`curvetransfer.curves.grid_curves`.
    Grid points below the smallest strain carry the first stress value
    (constant-left extension); points above the largest strain carry the last.
    """
    from curvetransfer.errors import DataValidationError

    strain_norm = np.asarray(strain_norm, dtype=float)
    stress_norm = np.asarray(stress_norm, dtype=float)
    if np.any(np.diff(strain_norm) <= 0):
        raise DataValidationError(f"sample {sample_id!r}: strain must be strictly increasing")
    return np.interp(np.linspace(0.0, 1.0, n), strain_norm, stress_norm)


def composition(curve, n):
    """Gridding one raw curve step by step: validate, normalize, resample.

    The per-curve oracle for :func:`curvetransfer.curves.grid_curves`: on the
    validated curve it must give these bytes, and on a curve that this raises
    for it must raise the same message.
    """
    from curvetransfer.curves import validate_curve

    strain_norm, stress_norm = normalize_curve(validate_curve(curve))
    return resample_to_grid(strain_norm, stress_norm, n, sample_id=curve.sample_id)


def euclidean_distance(a, b):
    """Point-by-point sum of squared stress differences of two gridded curves (no warping)."""
    return float(np.sum((a - b) ** 2))


def average_dtw(source, target) -> float:
    """Mean DTW distance over all source x target curve pairs of gridded (N,) arrays.

    The one-source case of :func:`curvetransfer.similarity._mean_dtws`; it
    checks every pair's length before it stacks the lists.
    """
    from curvetransfer.similarity import _check_same_length, _mean_dtws

    if not source or not target:
        raise ValueError("average_dtw requires non-empty curve lists")
    for p in source:
        for m in target:
            _check_same_length(p, m)
    return _mean_dtws([np.stack(source)], np.stack(target))[0]


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


def list_dp_cumulative_cost(local) -> np.ndarray:
    """Cumulative-cost matrix of the DTW recurrence, filled row by row in Python lists.

    Test oracle for :func:`curvetransfer.similarity.cumulative_cost` and the
    anti-diagonal sweep behind it: the first cell copies the local cost, the
    first row and column are running sums, and each interior cell adds its
    local cost to the cheapest of its diagonal, upper and left predecessors.
    """
    local = np.asarray(local, dtype=float)
    n, m = local.shape
    loc = local.tolist()
    rows = [[0.0] * m for _ in range(n)]
    rows[0][0] = loc[0][0]
    for l in range(1, m):
        rows[0][l] = loc[0][l] + rows[0][l - 1]
    for k in range(1, n):
        cur, prev, lk = rows[k], rows[k - 1], loc[k]
        cur[0] = lk[0] + prev[0]
        for l in range(1, m):
            best = prev[l - 1]
            if prev[l] < best:
                best = prev[l]
            if cur[l - 1] < best:
                best = cur[l - 1]
            cur[l] = lk[l] + best
    return np.array(rows)


def reference_extreme_training_samples(dataset):
    """The two DOE-corner sample ids: the smallest and the largest sum of min-max scaled parameters.

    Test oracle for :func:`curvetransfer.transfer.select_extreme_training_samples`,
    with its own span arithmetic (a constant column spans 1.0) and two full
    sorts: ties break toward the smaller sample_id, and the two ids differ.
    """
    from curvetransfer.errors import DataValidationError

    if len(dataset.curves) < 2:
        raise DataValidationError(f"dataset {dataset.name!r} needs >= 2 samples, has {len(dataset.curves)}")
    matrix = np.array([c.param_values() for c in dataset.curves], dtype=float)
    if matrix.shape[1] == 0:
        raise DataValidationError(f"dataset {dataset.name!r} has no process parameters")
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    scores = ((matrix - lo) / span).sum(axis=1)
    ids = dataset.sample_ids()
    by_min = sorted(zip(scores, ids), key=lambda e: (e[0], e[1]))
    low_id = by_min[0][1]
    by_max = sorted(zip(scores, ids), key=lambda e: (-e[0], e[1]))
    high_id = next(sid for _, sid in by_max if sid != low_id)
    return low_id, high_id


def reference_generate_dataset(spec, doe, seed, name="synthetic", role="source", units=None):
    """One curve per full-factorial DOE point, each computed on its own.

    Test oracle for :func:`curvetransfer.synthgen.generate_dataset`, which
    computes every curve of a dataset in one array block: per DOE point its
    modifier, strains, ``linspace``, clipped post-yield position, stress and
    noise from ``default_rng([seed, idx])``, one curve at a time.
    """
    from curvetransfer.curves import Dataset, ParamField, RawCurve
    from curvetransfer.errors import DataValidationError
    from curvetransfer.synthgen import _MODIFIER_LIMIT, _doe_points, _post_yield_stress

    if not doe or any(len(levels) == 0 for levels in doe.values()):
        raise DataValidationError("DOE must declare at least one level per parameter")
    units = units or {}
    schema = [ParamField(pname, units.get(pname, "-")) for pname in doe]
    spans = {
        pname: (min(levels), max(levels) - min(levels) if max(levels) > min(levels) else 1.0)
        for pname, levels in doe.items()
    }
    curves = []
    for idx, params in enumerate(_doe_points(doe)):
        m = 0.0
        for pname, value in params.items():
            lo, span = spans[pname]
            scaled = (value - lo) / span
            m += spec.param_sensitivity.get(pname, 0.0) * (scaled - 0.5)
        m = float(np.clip(m, -_MODIFIER_LIMIT, _MODIFIER_LIMIT))

        yield_strain = spec.yield_strain * (1.0 + 0.25 * m)
        failure_strain = spec.failure_strain * (1.0 + 0.5 * m)
        yield_stress = spec.base_modulus * yield_strain
        strain = np.linspace(0.0, failure_strain, spec.points_per_curve)
        stress = np.where(
            strain <= yield_strain,
            spec.base_modulus * strain,
            _post_yield_stress(
                spec,
                np.clip((strain - yield_strain) / (failure_strain - yield_strain), 0.0, 1.0),
                yield_stress,
            ),
        )
        stress = stress * (1.0 + m)
        if spec.noise_sd > 0:
            rng = np.random.default_rng([seed, idx])
            stress = stress + rng.normal(0.0, spec.noise_sd * (1.0 + m), size=stress.shape)
        stress = np.maximum(stress, 0.0)
        curves.append(RawCurve(str(idx + 1), strain, stress, params))
    return Dataset(name=name, role=role, param_schema=schema, curves=curves)


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


def with_stress_unit(report_doc: dict, factor: float) -> dict:
    """A copy of a report document with every RMSE and every predicted stress multiplied by ``factor``."""
    doc = copy.deepcopy(report_doc)
    for sample in doc["per_sample"]:
        sample["rmse"] *= factor
        sample["predicted"] = [v * factor for v in sample["predicted"]]
    doc["aggregate"]["rmse"] *= factor
    return doc


def flat_sample(dataset, sample_id):
    """``dataset`` with sample ``sample_id``'s stress set to zero, a curve no grid can normalize."""
    curves = [dataclasses.replace(c, stress=0.0 * c.stress) if c.sample_id == sample_id else c
              for c in dataset.curves]
    return dataclasses.replace(dataset, curves=curves)


def record_train_starts(monkeypatch) -> list:
    """Wrap ``transfer.train``; the returned list gets ``(params, params.flat.tobytes())`` of each call's start."""
    from curvetransfer import transfer

    started = []
    real_train = transfer.train

    def recording_train(params, *args):
        started.append((params, params.flat.tobytes()))
        return real_train(params, *args)

    monkeypatch.setattr(transfer, "train", recording_train)
    return started
