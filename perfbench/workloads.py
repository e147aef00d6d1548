"""The benchmark's workloads: inputs from a seed, the timed operation, its checks.

Every input comes from ``synthgen.standard_suite(suite_seed)``; the program
sees only the generated datasets. A run seed selects suite seeds modulo
``SUITE_SEEDS``, the range for which ``golden.json`` holds the outputs the
parent commit produced, so every seed has a golden to check against.

Each workload is a closed loop with one operation in flight. Its operations
form a cycle (every target of every suite seed, or every dataset of the
suite), and a run repeats whole cycles: as many as fill ``--seconds`` at the
nominal cycle time measured on the parent commit. The work of a run is thus
fixed by the seed and ``--seconds`` alone, and its time is comparable
across commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from curvetransfer import checkpoint, cli, curves, seqnet, similarity, synthgen, transfer

SUITE_SEEDS = 16

# Acceptance configuration of the paper's headline path.
EPOCHS = 15
PRETRAIN_EPOCHS = 10
LEARNING_RATE = 3e-3
SEQUENCE_LENGTH = 5
OPTIMIZER = "adam"

# Two float outputs agree when they differ by no more than float64 rounding
# accumulated over the ~1e4 sequential training steps behind them.
REL_TOL = 1e-9


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``result`` turns its output into checkable values."""

    key: tuple[str, str]  # (suite seed, item) in golden.json
    run: Callable[[], object]
    result: Callable[[object], dict]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _split(target):
    train_ids = list(transfer.select_extreme_training_samples(target))
    test_ids = [sid for sid in target.sample_ids() if sid not in train_ids]
    return train_ids, test_ids


def _train_config(seed: int, epochs: int) -> seqnet.TrainConfig:
    return seqnet.TrainConfig(
        epochs=epochs,
        learning_rate=LEARNING_RATE,
        sequence_length=SEQUENCE_LENGTH,
        optimizer=OPTIMIZER,
        seed=seed,
    )


class Workload:
    name = ""
    suites_per_run = 1
    nominal_cycle_s = 1.0
    setup_repeats = 5
    epochs_per_op = 0

    def suite_seeds(self, seed: int) -> list[int]:
        return [(seed + j) % SUITE_SEEDS for j in range(self.suites_per_run)]

    def suite_ops(self, suite_seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> list[Op]:
        """Build the inputs of one run; one cycle of its operations."""
        ops = []
        for suite_seed in self.suite_seeds(seed):
            ops.extend(self.suite_ops(suite_seed, workdir / f"suite{suite_seed}"))
        return ops

    def n_ops(self, cycle: int, seconds: float) -> int:
        return cycle * max(1, round(seconds / self.nominal_cycle_s))


class Rank(Workload):
    """DTW source selection alone: ``rank_sources`` per target, no training."""

    name = "rank"
    suites_per_run = 3
    nominal_cycle_s = 6.2

    def suite_ops(self, suite_seed, workdir):
        sources, targets, _ = synthgen.standard_suite(suite_seed)
        ops = []
        for target in targets:
            train_ids, _ = _split(target)
            train_curves = [target.curve_by_id(sid) for sid in train_ids]
            ops.append(Op(
                key=(str(suite_seed), target.name),
                run=lambda s=sources, t=train_curves: similarity.rank_sources(s, t),
                result=_ranking_result,
            ))
        return ops


def _ranking_result(ranking) -> dict:
    entries = [[name, float(d)] for name, d in ranking.entries]
    return {
        "entries": entries,
        "selected": ranking.selected,
        "sha256": _sha256(json.dumps([entries, ranking.selected]).encode()),
    }


class DtwTl(Workload):
    """One ``run_variant(dtw_tl)`` per target at the acceptance config."""

    name = "dtw_tl"
    nominal_cycle_s = 22.0
    epochs_per_op = PRETRAIN_EPOCHS + EPOCHS

    def suite_ops(self, suite_seed, workdir):
        sources, targets, _ = synthgen.standard_suite(suite_seed)
        ops = []
        for target in targets:
            train_ids, test_ids = _split(target)
            plan = transfer.ExperimentPlan(
                variant="dtw_tl",
                source_datasets=[ds.name for ds in sources],
                target_dataset=target.name,
                target_train_ids=train_ids,
                target_test_ids=test_ids,
                config=_train_config(suite_seed, EPOCHS),
                pretrain_epochs=PRETRAIN_EPOCHS,
            )
            datasets = sources + [target]
            ops.append(Op(
                key=(str(suite_seed), target.name),
                run=lambda p=plan, d=datasets: transfer.run_variant(p, d),
                result=_report_result,
            ))
        return ops


def _report_result(report) -> dict:
    # Serialized exactly as the CLI writes report.json.
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return {
        "mape": float(report.aggregate_mape),
        "selected": report.selected_source,
        "sha256": _sha256(text.encode()),
    }


class Evaluate(Workload):
    """``curvetransfer evaluate`` of a pre-trained checkpoint on every suite dataset."""

    name = "evaluate"
    nominal_cycle_s = 0.96
    setup_repeats = 3

    def suite_ops(self, suite_seed, workdir):
        sources, targets, _ = synthgen.standard_suite(suite_seed)
        manifests = {}
        for ds in sources + targets:
            manifests[ds.name] = curves.save_dataset(ds, workdir / ds.name)
        plateau = next(ds for ds in sources if ds.name == "poly_plateau")
        ckpt = transfer.pretrain(
            plateau.curves, _train_config(suite_seed, PRETRAIN_EPOCHS), plateau.name
        )
        ckpt_path = workdir / "checkpoint.json"
        checkpoint.save_checkpoint(ckpt, ckpt_path)
        ops = []
        for name, manifest in manifests.items():
            out = workdir / f"evaluate-{name}.json"
            argv = ["evaluate", "--checkpoint", str(ckpt_path), "--target", str(manifest),
                    "--out", str(out)]
            ops.append(Op(
                key=(str(suite_seed), name),
                run=lambda a=argv, o=out: _evaluate_cli(a, o),
                result=_evaluate_result,
            ))
        return ops


def _evaluate_cli(argv: list[str], out: Path) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"evaluate exited {code}")
    return out.read_bytes()


def _evaluate_result(data: bytes) -> dict:
    return {**json.loads(data)["aggregate"], "sha256": _sha256(data)}


WORKLOADS = {w.name: w for w in (Rank(), DtwTl(), Evaluate())}


def matches(value, golden) -> bool:
    """Equal up to float rounding (REL_TOL); the sha256 digests are not compared here."""
    if isinstance(golden, dict):
        return golden.keys() == value.keys() and all(
            k == "sha256" or matches(value[k], golden[k]) for k in golden
        )
    if isinstance(golden, list):
        return len(value) == len(golden) and all(map(matches, value, golden))
    if isinstance(golden, float):
        return isinstance(value, float) and math.isclose(value, golden, rel_tol=REL_TOL, abs_tol=0.0)
    return value == golden

