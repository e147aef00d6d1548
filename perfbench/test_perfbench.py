"""Tests of the benchmark itself: traced counts, golden coverage, contract shape.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The count cross-check runs each workload traced and requires every traced
call count to equal the count derived from the inputs, so a wrapper that
misses a binding site fails here instead of under-reporting.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_source_tree()

import tracer  # noqa: E402
import workloads  # noqa: E402
from curvetransfer import metrics, seqnet, synthgen, transfer  # noqa: E402

SEEDS = (run.DEFAULT_SEED, run.CONFIRM_SEED)


def _windows(curve) -> int:
    return curve.n_points() - workloads.SEQUENCE_LENGTH


def _traced(ops):
    t = tracer.Tracer()
    t.install()
    try:
        outputs = [op.run() for op in ops]
    finally:
        t.uninstall()
    return t.stats(), outputs


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_counts(seed):
    ops = workloads.WORKLOADS["rank"].suite_ops(seed, None)
    stats, _ = _traced(ops)
    sources, targets, _ = synthgen.standard_suite(seed)
    source_curves = sum(len(ds.curves) for ds in sources)
    assert source_curves * 2 == 200
    assert stats["similarity.rank_sources"]["calls"] == len(targets) == len(ops)
    assert stats["similarity.dtw_distance"]["calls"] == 200 * len(ops)
    assert stats["curves.grid_curve"]["calls"] == (source_curves + 2) * len(ops)
    assert stats["seqnet.forward_sequence"]["calls"] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_dtw_tl_counts(seed):
    sources, targets, _ = synthgen.standard_suite(seed)
    op = workloads.WORKLOADS["dtw_tl"].suite_ops(seed, None)[0]
    assert op.key == (str(seed), "metal_plateau")
    stats, (report,) = _traced([op])
    selected = next(ds for ds in sources if ds.name == report.selected_source)
    target = targets[0]
    train = [target.curve_by_id(sid) for sid in report.plan.target_train_ids]
    test = [target.curve_by_id(sid) for sid in report.plan.target_test_ids]
    steps = (workloads.PRETRAIN_EPOCHS * sum(map(_windows, selected.curves))
             + workloads.EPOCHS * sum(map(_windows, train)))
    forwards = steps + sum(map(_windows, test))
    assert (steps, forwards) == (11_350, 11_665)
    assert stats["seqnet.optimizer_step"]["calls"] == steps
    assert stats["seqnet.backward"]["calls"] == steps
    assert stats["seqnet.forward_sequence"]["calls"] == forwards
    assert stats["seqnet.train"]["calls"] == 2
    assert stats["transfer.predict_curve"]["calls"] == len(test)
    assert stats["similarity.dtw_distance"]["calls"] == 200


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_counts(seed, tmp_path):
    sources, targets, _ = synthgen.standard_suite(seed)
    datasets = sources + targets
    ops = workloads.WORKLOADS["evaluate"].suite_ops(seed, tmp_path)
    stats, _ = _traced(ops)
    n_curves = sum(len(ds.curves) for ds in datasets)
    n_windows = sum(_windows(c) for ds in datasets for c in ds.curves)
    assert (n_curves, n_windows) == (127, 5215)
    assert stats["cli.main"]["calls"] == len(datasets) == len(ops)
    assert stats["curves.load_dataset"]["calls"] == len(datasets)
    assert stats["checkpoint.load_checkpoint"]["calls"] == len(datasets)
    assert stats["transfer.predict_curve"]["calls"] == n_curves
    assert stats["metrics.summarize"]["calls"] == n_curves
    assert stats["seqnet.forward_sequence"]["calls"] == n_windows
    assert stats["seqnet.backward"]["calls"] == 0


def test_tracer_self_time_and_uninstall():
    original = seqnet.train
    t = tracer.Tracer()
    t.install()
    assert transfer.train is seqnet.train is not original
    metrics.summarize([1.0, 2.0, 3.0], [1.1, 2.0, 2.9])
    t.uninstall()
    assert transfer.train is seqnet.train is original
    stats = t.stats()
    parent = stats["metrics.summarize"]
    children = sum(stats[f"metrics.{f}"]["s"] for f in ("mape", "mape_excluded_count", "rmse", "r2"))
    assert parent["calls"] == 1 and stats["metrics.mape"]["calls"] == 1
    assert parent["self_s"] == pytest.approx(parent["s"] - children, abs=1e-12)


def test_golden_covers_every_suite_seed():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    items = {"rank": 3, "dtw_tl": 3, "evaluate": 7}
    assert set(golden) == set(items)
    for name, per_suite in items.items():
        assert sorted(golden[name], key=int) == [str(s) for s in range(workloads.SUITE_SEEDS)]
        assert all(len(v) == per_suite for v in golden[name].values())


def test_matches_allows_rounding_only():
    golden = {"mape": 12.5, "selected": "a", "sha256": "x"}
    assert workloads.matches({"mape": 12.5 * (1 + 1e-13), "selected": "a", "sha256": "y"}, golden)
    assert not workloads.matches({"mape": 12.5 * (1 + 1e-6), "selected": "a", "sha256": "x"}, golden)
    assert not workloads.matches({"mape": 12.5, "selected": "b", "sha256": "x"}, golden)
    assert not workloads.matches({"mape": float("nan"), "selected": "a", "sha256": "x"}, golden)


def test_benchmark_json_matches_run():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
