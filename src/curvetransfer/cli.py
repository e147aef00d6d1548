"""Command-line entry point: ingestion, ranking, training, evaluation, synthetic suite.

Exit codes: 0 success, 1 usage error, 2 data/validation error or an output
path that cannot be written, 3 training divergence. Every command is
deterministic given its flags; the seed falls back to the CURVETRANSFER_SEED
environment variable when --seed is omitted.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .curves import DEFAULT_GRID_N, Dataset, grid_curves, load_dataset, save_dataset
from .curves import _csv_text, _write_json, _write_text
from .errors import DataValidationError, TrainingDivergenceError
from .metrics import DEFAULT_MAPE_EPSILON
from .scaling import padded_curves
from .seqnet import OPTIMIZERS, TrainConfig
from .similarity import cumulative_cost, dtw_path, local_distance_matrix, rank_sources
from .synthgen import standard_suite
from .transfer import (
    VARIANTS,
    Evaluation,
    ExperimentPlan,
    _dataset_map,
    _pretrain_pool,
    _stage_errors,
    evaluate,
    finetune,
    pretrain,
    run_variant,
    select_extreme_training_samples,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_ids(raw: str) -> list[str]:
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    if not ids:
        raise DataValidationError(f"no sample ids in {raw!r}")
    if len(set(ids)) != len(ids):
        raise DataValidationError(f"repeated sample id in {raw!r}")
    return ids


def _train_ids(args, target: Dataset) -> list[str]:
    """--train-ids if given, else the two DOE-corner samples."""
    if args.train_ids:
        return _parse_ids(args.train_ids)
    return list(select_extreme_training_samples(target))


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        sequence_length=args.seq_len,
        optimizer=args.optimizer,
        seed=args.seed,
    )


def _int_at_least(low: int):
    """The type of an integer flag: ASCII digits only (no sign, space, ``_`` or other digits) and at least ``low``."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()):
            raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
        try:
            value = int(text)
        except ValueError:  # more digits than int() converts
            raise argparse.ArgumentTypeError(
                f"must be an integer of at most {sys.get_int_max_str_digits()} digits, got {len(text)} digits"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


_seed = _int_at_least(0)


def _positive_float(text: str) -> float:
    """The type of a float flag: ASCII only, no ``_`` or surrounding space, and a positive finite number."""
    try:
        value = float(text) if text.isascii() and "_" not in text and text == text.strip() else math.nan
    except ValueError:  # not a number at all
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _print_summary(evaluation: Evaluation) -> None:
    print(f"MAPE: {evaluation.aggregate_mape:.2f}%  RMSE: {evaluation.aggregate_rmse:.2f}  "
          f"R2: {evaluation.aggregate_r2:.4f}")


def cmd_ingest(args) -> int:
    dataset = load_dataset(args.manifest)
    schema = ", ".join(f"{p.name} [{p.unit}]" for p in dataset.param_schema)
    print(f"dataset: {dataset.name}")
    print(f"role: {dataset.role}")
    print(f"samples: {len(dataset.curves)}")
    print(f"parameters: {schema}")
    points = [c.n_points() for c in dataset.curves]
    print(f"points per sample: min {min(points)}, max {max(points)}")
    return EXIT_OK


def _dump_dtw_pair(source: Dataset, target_curve, n: int, out_dir: Path) -> None:
    local = local_distance_matrix(*grid_curves([source.curves[0], target_curve], n))
    cumulative = cumulative_cost(local)
    for label, matrix in (("local", local), ("cumulative", cumulative)):
        rows = ([i, *row] for i, row in enumerate(matrix.tolist()))
        _write_text(out_dir / f"{source.name}_{label}.csv", _csv_text(["", *range(n)], rows))
    _write_text(out_dir / f"{source.name}_path.csv", _csv_text(["k", "l"], dtw_path(cumulative)))


def cmd_rank(args) -> int:
    sources = [load_dataset(path) for path in args.sources]
    target = load_dataset(args.target)
    _dataset_map(sources + [target])  # the one name check: no source twice, the target not among them
    train_ids = _train_ids(args, target)
    train_curves = [target.curve_by_id(sid) for sid in train_ids]
    ranking = rank_sources(sources, train_curves, args.grid_n)
    doc = {
        **ranking.to_dict(),
        "target": target.name,
        "train_ids": train_ids,
        "grid_n": args.grid_n,
        "seed": args.seed,
    }
    if args.out:
        _write_json(doc, Path(args.out))
    if args.dump_dtw:
        for source in sources:
            _dump_dtw_pair(source, train_curves[0], args.grid_n, Path(args.dump_dtw))
    for name, d in ranking.entries:
        print(f"{name}: {d:.6f}")
    print(f"selected: {ranking.selected}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    sources = [load_dataset(path) for path in args.sources]
    _dataset_map(sources)  # a source named twice would be pooled twice
    config = _train_config(args)
    arity = max(len(ds.param_schema) for ds in sources)
    pool, name = _pretrain_pool(sources, args.seed, arity, args.pad_params)
    checkpoint = pretrain(pool, config, name)
    save_checkpoint(checkpoint, args.out)
    print(f"pretrained on {name}: {len(pool)} curves -> {args.out}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    source_ckpt = load_checkpoint(args.checkpoint) if args.checkpoint else None
    target = load_dataset(args.target)
    train_ids = _train_ids(args, target)
    train_curves = [target.curve_by_id(sid) for sid in train_ids]
    params0 = None  # no checkpoint: fresh seeded weights on the target's own arity, as pipeline's vanilla
    if source_ckpt is not None:
        with _stage_errors("finetune", target.name):
            train_curves = padded_curves(train_curves, source_ckpt.scalers.arity, args.pad_params)
        params0 = source_ckpt.params
    checkpoint = finetune(params0, train_curves, _train_config(args), target.name)
    save_checkpoint(checkpoint, args.out)
    print(f"finetuned on {target.name} (train ids {','.join(train_ids)}) -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    target = load_dataset(args.target)
    test_ids = _parse_ids(args.test_ids) if args.test_ids else target.sample_ids()
    test_curves = [target.curve_by_id(sid) for sid in test_ids]
    test_curves = padded_curves(test_curves, checkpoint.scalers.arity, args.pad_params)
    evaluation = evaluate(checkpoint, test_curves, args.mape_epsilon)
    if args.out:
        _write_json({"dataset": target.name, **evaluation.to_dict(with_predicted=False)}, Path(args.out))
    _print_summary(evaluation)
    return EXIT_OK


def _check_can_be_dir(path: Path) -> None:
    """Raise OSError unless ``path`` is a writable directory or could be made one, creating nothing.

    The nearest of ``path`` and its ancestors that exists must be a directory
    this process may write to.
    """
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(existing))


def cmd_pipeline(args) -> int:
    sources = [load_dataset(path) for path in args.sources or []]
    target = load_dataset(args.target)
    train_ids = _train_ids(args, target)
    test_ids = [sid for sid in target.sample_ids() if sid not in set(train_ids)]
    config = _train_config(args)
    plan = ExperimentPlan(
        variant=args.variant,
        source_datasets=[ds.name for ds in sources],
        target_dataset=target.name,
        target_train_ids=train_ids,
        target_test_ids=test_ids,
        config=config,
        grid_n=args.grid_n,
        pad_params=args.pad_params,
        mape_epsilon=args.mape_epsilon,
        pretrain_epochs=args.pretrain_epochs,
    )
    out_dir = Path(args.out)
    _check_can_be_dir(out_dir)  # before the fit; the directory is made when the first file is written
    report = run_variant(plan, sources + [target])

    _write_json(report.to_dict(), out_dir / "report.json")
    if report.dtw_ranking is not None:
        _write_json(report.dtw_ranking.to_dict(), out_dir / "ranking.json")
    n = config.sequence_length
    header = ["strain", "stress_actual", "stress_predicted"]
    for sample in report.per_sample:
        curve = target.curve_by_id(sample.sample_id)
        rows = zip(curve.strain[n:].tolist(), curve.stress[n:].tolist(), sample.predicted.tolist())
        _write_text(out_dir / "predictions" / f"{sample.sample_id}.csv", _csv_text(header, rows))

    print(f"variant: {report.plan.variant}")
    if report.selected_source:
        print(f"selected source: {report.selected_source}")
    _print_summary(report)
    return EXIT_OK


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    sources, targets, ground_truth = standard_suite(args.seed)
    for dataset in sources + targets:
        save_dataset(dataset, out_dir / dataset.name)
    _write_json({"seed": args.seed, "ground_truth": ground_truth}, out_dir / "ground_truth.json")
    print(f"wrote {len(sources)} source and {len(targets)} target datasets to {out_dir}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Building it costs milliseconds (every ``add_argument`` makes a help
    formatter), about a tenth of one ``evaluate``. Parsing never changes
    it: each call fills a fresh namespace, and ``append`` flags copy their
    list, so nothing carries over from one :func:`main` call to the next.
    A flag that several commands take is defined once, in an ``add_help=False``
    parent parser that each of those commands lists in ``parents``, so the
    staged commands parse it exactly as ``pipeline`` does.
    """
    parser = _Parser(prog="curvetransfer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    seed, pad, grid, split, train, epsilon = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    seed.add_argument("--seed", type=_seed, default=None)
    pad.add_argument("--pad-params", action="store_true")
    epsilon.add_argument("--mape-epsilon", type=_positive_float, default=DEFAULT_MAPE_EPSILON,
                         help="|stress| below this (MPa) is excluded from MAPE (default %(default)g)")
    grid.add_argument("--grid-n", type=_int_at_least(2), default=DEFAULT_GRID_N)
    split.add_argument(
        "--train-ids",
        help="comma-separated target training sample ids (default: the two DOE-corner samples, "
        "the scaled-parameter-sum extremes)",
    )
    train.add_argument("--seq-len", type=_int_at_least(1), default=TrainConfig.sequence_length,
                       help="window length n (default %(default)s)")
    train.add_argument("--epochs", type=_int_at_least(1), default=100, help="training epochs (default 100)")
    train.add_argument("--lr", type=_positive_float, default=TrainConfig.learning_rate,
                       help="learning rate (default %(default)g)")
    train.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainConfig.optimizer)

    p = sub.add_parser("ingest", help="validate a dataset manifest and print a summary")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rank", parents=[split, grid, seed],
                       help="rank source datasets by average DTW distance to the target")
    p.add_argument("--sources", action="append", required=True, help="source manifest (repeatable)")
    p.add_argument("--target", required=True, help="target manifest")
    p.add_argument("--out", help="write ranking JSON here")
    p.add_argument("--dump-dtw", help="dump local/cumulative matrices and path CSVs to this dir")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pretrain", parents=[seed, pad, train],
                       help="pre-train a model on one or more source datasets")
    p.add_argument("--sources", action="append", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", parents=[split, seed, pad, train],
                       help="fine-tune a checkpoint, or fresh weights, on target training samples")
    p.add_argument("--checkpoint", help="checkpoint to start from (default: fresh seeded weights, i.e. vanilla)")
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", parents=[pad, epsilon], help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--test-ids", help="comma-separated sample ids (default: all)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", parents=[split, grid, seed, pad, train, epsilon],
                       help="run one experiment variant end to end")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--sources", action="append", help="source manifest (repeatable)")
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--pretrain-epochs", type=_int_at_least(1), default=None,
        help="epoch cap for the pre-training stage (default: same as --epochs)",
    )
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("synth", parents=[seed], help="generate the synthetic source/target suite")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help itself
        return int(exc.code or 0)
    if "seed" in args and args.seed is None:
        env = os.environ.get("CURVETRANSFER_SEED", "0")
        try:
            args.seed = _seed(env)
        except argparse.ArgumentTypeError as exc:
            print(f"error: CURVETRANSFER_SEED {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except DataValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        # Every read maps its own OSError, so this is an output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
