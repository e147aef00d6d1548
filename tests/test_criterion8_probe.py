"""Diagnostic probe behind the criterion-8 write-up: which distance, and which training seed, set the sign.

Criterion 8 asks Pearson(avg DTW, MAPE) > 0 over the 4 sources in at least 8
of 10 seeds, where one number is both the suite seed and the training seed.
This probe prints two tables:

1. per suite seed 0-9, the sweep's MAPEs correlated against the mean source
   distance under unconstrained DTW (the default), derivative DTW (Keogh &
   Pazzani 2001), a 12-cell Sakoe-Chiba band, squared Euclidean distance, and
   the Spearman rank correlation of unconstrained DTW;
2. per suite 0, 5, 7 and 1, the sign of the correlation as only
   ``TrainConfig.seed`` varies over 0-4, and the correlation of the 5-seed mean
   MAPEs.

It runs 30 source sweeps at the acceptance config (about 3 minutes on 2
cores), so pytest skips it; run it as a script:

    PYTHONPATH=src python tests/test_criterion8_probe.py
"""

from dataclasses import replace

import numpy as np
import pytest

from curvetransfer.curves import grid_curves
from curvetransfer.metrics import pearson
from curvetransfer.similarity import cumulative_cost, dtw_distance, local_distance_matrix
from curvetransfer.synthgen import standard_suite
from curvetransfer.transfer import run_source_sweep

from conftest import euclidean_distance
from test_acceptance import extreme_split, pipeline_plan

GRID_N = 120
BAND = 12
TRAIN_SEED_SUITES = (0, 5, 7, 1)
TRAIN_SEEDS = range(5)


def derivative(curve):
    """Keogh & Pazzani's slope estimate at each interior point, the ends copying their neighbours."""
    d = ((curve[1:-1] - curve[:-2]) + (curve[2:] - curve[:-2]) / 2) / 2
    return np.concatenate([d[:1], d, d[-1:]])


def banded_dtw(a, b):
    local = local_distance_matrix(a, b)
    i, j = np.indices(local.shape)
    local[np.abs(i - j) > BAND] = np.inf
    return float(cumulative_cost(local)[-1, -1])


def mean_distance(distance, source, target):
    return float(np.mean([distance(s, t) for s in source for t in target]))


def ranks(values):
    return np.argsort(np.argsort(values)).astype(float)


def distance_row(suite_seed):
    """Pearson of the sweep's MAPEs against each distance's per-source means, for one suite seed."""
    sources, targets, _ = standard_suite(suite_seed)
    target = targets[0]
    plan = pipeline_plan("dtw_tl", sources, target, suite_seed)
    entries, correlation = run_source_sweep(plan, sources + [target])
    dtw, mapes = [e[1] for e in entries], [e[2] for e in entries]
    train_ids, _ = extreme_split(target)
    target_grid = grid_curves([target.curve_by_id(sid) for sid in train_ids], GRID_N)
    source_grids = [grid_curves(ds.curves, GRID_N) for ds in sources]

    def correlate(distance):
        return pearson([mean_distance(distance, s, target_grid) for s in source_grids], mapes)

    return {
        "dtw": correlation,
        "derivative_dtw": correlate(lambda a, b: dtw_distance(derivative(a), derivative(b))),
        "band_dtw": correlate(banded_dtw),
        "euclidean": correlate(euclidean_distance),
        "spearman_dtw": pearson(ranks(dtw), ranks(mapes)),
    }


def train_seed_row(suite_seed):
    """Per train seed, the sweep's correlation; and the correlation of the mean MAPEs over the seeds."""
    sources, targets, _ = standard_suite(suite_seed)
    target = targets[0]
    plan = pipeline_plan("dtw_tl", sources, target, suite_seed)
    correlations, mapes, dtw = [], [], None
    for seed in TRAIN_SEEDS:
        entries, correlation = run_source_sweep(
            replace(plan, config=replace(plan.config, seed=seed)), sources + [target]
        )
        correlations.append(correlation)
        mapes.append([e[2] for e in entries])
        dtw = [e[1] for e in entries]
    return correlations, pearson(dtw, np.mean(mapes, axis=0).tolist())


@pytest.mark.skip(reason="diagnostic probe of 30 acceptance-config sweeps; run this file as a script")
def test_criterion8_probe():
    main()


def main():
    names = ("dtw", "derivative_dtw", "band_dtw", "euclidean", "spearman_dtw")
    rows = [distance_row(seed) for seed in range(10)]
    print("distance         | Pearson > 0 | lowest")
    for name in names:
        values = [row[name] for row in rows]
        print(f"{name:16} | {sum(v > 0 for v in values):4}/10     | {min(values):+.3f}")
    print("\nsuite | train seeds 0-4: Pearson            | > 0 | Pearson of the mean MAPEs")
    for suite_seed in TRAIN_SEED_SUITES:
        correlations, of_means = train_seed_row(suite_seed)
        shown = " ".join(f"{c:+.3f}" for c in correlations)
        print(f"{suite_seed:5} | {shown} | {sum(c > 0 for c in correlations)}/5 | {of_means:+.3f}")


if __name__ == "__main__":
    main()
