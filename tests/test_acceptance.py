"""Acceptance gate: every release criterion, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive pipeline
criteria use the pinned synthetic suite at desk scale.
"""

import json
import time

import numpy as np
import pytest

from curvetransfer.checkpoint import load_checkpoint, save_checkpoint
from curvetransfer.cli import main
from curvetransfer.metrics import mape, pearson, r2, rmse, summarize
from curvetransfer.seqnet import (
    TrainConfig,
    backward,
    init_params,
)
from curvetransfer.similarity import (
    dtw_distance,
    rank_sources,
)
from curvetransfer.synthgen import FamilySpec, generate_dataset, standard_suite
from curvetransfer.transfer import (
    ExperimentPlan,
    finetune,
    pretrain,
    run_source_sweep,
    run_variant,
    select_extreme_training_samples,
)

from conftest import brute_force_dtw, euclidean_distance, record_train_starts
from step_oracle import gradient_check


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_grid(rng, n=120):
    return rng.random(n)


def extreme_split(dataset):
    lo, hi = select_extreme_training_samples(dataset)
    train_ids = [lo, hi]
    test_ids = [s for s in dataset.sample_ids() if s not in train_ids]
    return train_ids, test_ids


PIPELINE_CONFIG = dict(epochs=15, learning_rate=3e-3)
PIPELINE_PRETRAIN_EPOCHS = 10


def pipeline_plan(variant, sources, target, seed):
    train_ids, test_ids = extreme_split(target)
    return ExperimentPlan(
        variant=variant,
        source_datasets=[s.name for s in sources],
        target_dataset=target.name,
        target_train_ids=train_ids,
        target_test_ids=test_ids,
        config=TrainConfig(seed=seed, **PIPELINE_CONFIG),
        pretrain_epochs=PIPELINE_PRETRAIN_EPOCHS,
    )


def test_criterion_1_dtw_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        length = int(rng.integers(2, 9))
        a = rng.random(length)
        b = rng.random(length)
        fast = dtw_distance(a, b)
        oracle = brute_force_dtw(a, b)
        worst = max(worst, abs(fast - oracle))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-12 and elapsed < 5.0,
           f"200 pairs len<=8, max |dtw - brute_force| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dtw_identities():
    rng = np.random.default_rng(7)
    curves = [random_grid(rng) for _ in range(100)]
    start = time.perf_counter()
    ok = True
    for c in curves:
        ok = ok and dtw_distance(c, c) == 0.0
    for a, b in zip(curves[::2], curves[1::2]):
        forward_d = dtw_distance(a, b)
        ok = ok and abs(forward_d - dtw_distance(b, a)) < 1e-12
        ok = ok and forward_d <= euclidean_distance(a, b) + 1e-12
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 5.0,
           f"identity/symmetry/euclidean bound over 100 random 120-pt curves, {elapsed:.2f}s")


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    instances = [(1, 4), (1, 5), (1, 6), (4, 107), (4, 108), (4, 109), (4, 110), (32, 7), (32, 8), (32, 9)]
    for hidden_dim, seed in instances:
        params = init_params(seed, 3, hidden_dim)
        window = rng.normal(size=(5, 3))
        target = float(rng.normal())
        worst = max(worst, gradient_check(params, window, target))
    # injected fault: zeroing one gate's input weights must be detected
    params = init_params(1, 3, 4)
    window = rng.normal(size=(5, 3))
    grads = backward(params, window, 0.3)
    grads.W_ix[:] = 0.0
    fault_error = gradient_check(params, window, 0.3, grads=grads)
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-4 and fault_error >= 1e-4 and elapsed < 30.0,
           f"10 instances h in {{1,4,32}}: max rel err {worst:.2e}; "
           f"injected fault err {fault_error:.2e}; {elapsed:.1f}s")


def test_criterion_4_literal_transfer(tmp_path, monkeypatch):
    spec = FamilySpec(family="hardening", base_modulus=2000.0, yield_strain=0.02,
                      ultimate_stress=60.0, failure_strain=0.06,
                      param_sensitivity={"p": 0.3}, noise_sd=0.2, points_per_curve=20)
    source = generate_dataset(spec, {"p": [1.0, 2.0, 3.0]}, seed=5, name="src")
    checkpoint = pretrain(source.curves, TrainConfig(epochs=2, seed=5), "src")
    save_checkpoint(checkpoint, tmp_path / "ckpt.json")

    # The weights the fine-tuning stage's training starts from, as handed to train.
    started = record_train_starts(monkeypatch)
    pretrained = checkpoint.params.flat.tobytes()
    handed = [checkpoint.params, load_checkpoint(tmp_path / "ckpt.json").params]
    for params in handed:
        finetune(params, source.curves, TrainConfig(epochs=1, seed=5), "tgt")
    # Training starts from a bitwise copy, and the caller's weights are left as they were.
    ok = len(started) == 2 and all(
        flat == pretrained == params.flat.tobytes() and not np.shares_memory(trained.flat, params.flat)
        for (trained, flat), params in zip(started, handed)
    )
    report(4, ok, "finetune starts from the checkpoint's weights bitwise, including after JSON round trip")


def test_criterion_5_metric_closed_forms():
    checks = [
        abs(mape([100.0, 200.0], [110.0, 180.0]) - 10.0) < 1e-12,
        mape([50.0], [50.0]) == 0.0,
        summarize([0.0, 100.0], [5.0, 100.0], 1e-6).mape == 0.0,
        summarize([0.0, 100.0], [5.0, 100.0], 1e-6).n_excluded == 1,
        abs(rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < 1e-12,
        rmse([1.0], [3.0]) == 2.0,
        r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0,
        abs(r2([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) - (-3.0)) < 1e-12,
        abs(pearson([1.0, 2.0, 3.0], [3.0, 5.0, 7.0]) - 1.0) < 1e-12,
    ]
    table_row = pearson([0.173, 0.100, 0.097, 0.085], [42.07, 9.80, 9.49, 7.01])
    checks.append(abs(table_row - 0.996) <= 1e-3)
    report(5, all(checks), f"closed forms exact; published 4-point row pearson {table_row:.4f}")


@pytest.mark.slow
def test_criterion_6_source_selection_recovery(tmp_path):
    start = time.perf_counter()
    hits = 0
    total = 0
    for seed in range(20):
        suite_dir = tmp_path / f"suite{seed}"
        assert main(["synth", "--seed", str(seed), "--out", str(suite_dir)]) == 0
        ground_truth = json.loads((suite_dir / "ground_truth.json").read_text())["ground_truth"]
        source_flags = []
        for src in ("poly_plateau", "poly_hardening", "poly_yield_drop", "poly_brittle"):
            source_flags += ["--sources", str(suite_dir / src / "manifest.json")]
        for target_name, expected in ground_truth.items():
            out = suite_dir / f"rank_{target_name}.json"
            rc = main(["rank", *source_flags,
                       "--target", str(suite_dir / target_name / "manifest.json"),
                       "--out", str(out)])
            assert rc == 0
            total += 1
            if json.loads(out.read_text())["selected"] == expected:
                hits += 1
    elapsed = time.perf_counter() - start
    report(6, hits / total >= 0.9 and elapsed < 120.0,
           f"cmd_rank ground-truth recovery {hits}/{total} over 20 seeds, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_variant_ordering():
    start = time.perf_counter()
    beats_vanilla = 0
    beats_tl_all = 0
    seeds = range(10)
    for seed in seeds:
        sources, targets, _ = standard_suite(seed)
        target = targets[seed % 3]
        mapes = {}
        for variant in ("vanilla", "tl_all", "dtw_tl"):
            plan = pipeline_plan(variant, sources, target, seed)
            mapes[variant] = run_variant(plan, sources + [target]).aggregate_mape
        if mapes["dtw_tl"] <= mapes["vanilla"]:
            beats_vanilla += 1
        if mapes["dtw_tl"] <= mapes["tl_all"]:
            beats_tl_all += 1
        print(f"  seed {seed} ({target.name}): vanilla {mapes['vanilla']:.1f}%  "
              f"tl_all {mapes['tl_all']:.1f}%  dtw_tl {mapes['dtw_tl']:.1f}%")
    elapsed = time.perf_counter() - start
    n = len(seeds)
    report(7, beats_vanilla >= 0.7 * n and beats_tl_all >= 0.7 * n and elapsed < 300.0,
           f"dtw_tl <= vanilla in {beats_vanilla}/{n}, <= tl_all in {beats_tl_all}/{n}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_distance_error_correlation():
    positive = 0
    seeds = range(10)
    for seed in seeds:
        sources, targets, _ = standard_suite(seed)
        target = targets[0]
        plan = pipeline_plan("dtw_tl", sources, target, seed)
        entries, correlation = run_source_sweep(plan, sources + [target])
        if correlation > 0:
            positive += 1
        print(f"  seed {seed}: pearson(avg_dtw, mape) = {correlation:+.3f}")
    report(8, positive >= 0.8 * len(seeds),
           f"positive DTW-vs-MAPE correlation in {positive}/{len(seeds)} seeds")


def test_criterion_9_pipeline_determinism(tmp_path):
    suite_dir = tmp_path / "suite"
    assert main(["synth", "--seed", "13", "--out", str(suite_dir)]) == 0
    args = [
        "pipeline", "--variant", "dtw_tl",
        "--sources", str(suite_dir / "poly_plateau" / "manifest.json"),
        "--sources", str(suite_dir / "poly_brittle" / "manifest.json"),
        "--target", str(suite_dir / "metal_plateau" / "manifest.json"),
        "--seed", "13",
        "--epochs", "3", "--pretrain-epochs", "2",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    report(9, same, "two identical cmd_pipeline invocations produced byte-identical report.json")


def test_criterion_10_performance_floor():
    rng = np.random.default_rng(3)
    a, b = random_grid(rng), random_grid(rng)
    dtw_distance(a, b)  # warm-up
    best = min(
        (lambda t0: (dtw_distance(a, b), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(5)
    )

    spec_kw = dict(base_modulus=2000.0, yield_strain=0.018, ultimate_stress=48.0,
                   failure_strain=0.1, param_sensitivity={"speed": 0.2, "temp": -0.1},
                   noise_sd=0.3, points_per_curve=40)
    doe = {"speed": [10.0, 20.0, 30.0, 40.0, 50.0],
           "temp": [220.0, 230.0, 240.0, 250.0, 260.0]}
    sources = [
        generate_dataset(FamilySpec(family=f, **spec_kw), doe, seed=k, name=f"s{k}")
        for k, f in enumerate(("plateau", "hardening", "plateau", "hardening"))
    ]
    assert all(len(ds.curves) == 25 for ds in sources)
    target_train = sources[0].curves[:2]

    start = time.perf_counter()
    rank_sources(sources, target_train, 120)  # 4 x 25 x 2 = 200 DTW calls
    rank_elapsed = time.perf_counter() - start
    report(10, best < 0.010 and rank_elapsed < 2.0,
           f"single 120x120 DTW {best*1e3:.2f} ms; 200-call ranking {rank_elapsed:.2f} s")
