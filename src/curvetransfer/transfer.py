"""Transfer-learning pipeline: windowing, training-set selection, pre-train / fine-tune, evaluation, experiments.

Windows hold n consecutive rows of [scaled strain, scaled process parameters]
and predict the scaled stress at the following point. Parameters enter every
row of a window unchanged (they are constant per sample), and windows never
span sample boundaries. Fine-tuning updates all parameters, starting from the
source model's weights copied verbatim.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from .checkpoint import ModelCheckpoint
from .curves import DEFAULT_GRID_N, Dataset, RawCurve
from .errors import DataValidationError, TrainingDivergenceError, check_int, check_number
from .metrics import DEFAULT_MAPE_EPSILON, MetricSummary, pearson, summarize
from .scaling import CurveScalers, FeatureScaler, check_arity, fit_scalers, padded_curves
from .seqnet import ModelParams, TrainConfig, init_params, predict_series, train
from .similarity import SourceRanking, rank_sources

VARIANTS = ("vanilla", "tl_all", "dtw_tl")


@dataclass
class ExperimentPlan:
    """One experiment: variant, datasets, target split, and training config."""

    variant: str
    source_datasets: list[str]
    target_dataset: str
    target_train_ids: list[str]
    target_test_ids: list[str]
    config: TrainConfig
    grid_n: int = DEFAULT_GRID_N
    pad_params: bool = False
    mape_epsilon: float = DEFAULT_MAPE_EPSILON
    # Pre-training sees far more windows per epoch than fine-tuning; this
    # caps the pre-training stage separately (None: use config.epochs).
    pretrain_epochs: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DataValidationError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for label, ids in (("train", self.target_train_ids), ("test", self.target_test_ids)):
            if len(set(ids)) != len(ids):
                raise DataValidationError(f"{label} ids contain duplicates: {ids}")
        overlap = set(self.target_train_ids) & set(self.target_test_ids)
        if overlap:
            raise DataValidationError(f"train/test ids overlap: {sorted(overlap)}")
        if not self.target_train_ids:
            raise DataValidationError("target_train_ids must not be empty")
        if not self.target_test_ids:
            raise DataValidationError("target_test_ids must not be empty")
        check_int("grid_n", self.grid_n, 2)
        if self.variant != "vanilla" and not self.source_datasets:
            raise DataValidationError(f"variant {self.variant!r} requires source datasets")
        check_number("mape_epsilon", self.mape_epsilon, positive=True)
        if self.pretrain_epochs is not None:
            check_int("pretrain_epochs", self.pretrain_epochs, 1)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "sources": list(self.source_datasets),
            "target": self.target_dataset,
            "train_ids": list(self.target_train_ids),
            "test_ids": list(self.target_test_ids),
            "grid_n": self.grid_n,
            "pad_params": self.pad_params,
            "mape_epsilon": self.mape_epsilon,
            "pretrain_epochs": self.pretrain_epochs,
            "train_config": asdict(self.config),
        }


@dataclass(frozen=True)
class SampleEval:
    """Per-sample prediction metrics plus the predicted stress tail."""

    sample_id: str
    metrics: MetricSummary
    predicted: np.ndarray

    def to_dict(self) -> dict:
        """The metrics as JSON values; the predicted tail is left out."""
        return {"sample_id": self.sample_id, **vars(self.metrics)}


@dataclass
class Evaluation:
    """A checkpoint's per-sample results on some curves, and their means."""

    per_sample: list[SampleEval]
    aggregate_mape: float
    aggregate_rmse: float
    aggregate_r2: float

    def to_dict(self, with_predicted: bool = True) -> dict:
        """``per_sample`` and ``aggregate``; each sample's predicted tail unless ``with_predicted`` is false."""
        return {
            "per_sample": [
                {**s.to_dict(), "predicted": s.predicted.tolist()} if with_predicted else s.to_dict()
                for s in self.per_sample
            ],
            "aggregate": {"mape": self.aggregate_mape, "rmse": self.aggregate_rmse, "r2": self.aggregate_r2},
        }


@dataclass(kw_only=True)
class EvalReport(Evaluation):
    """Full result of one experiment run: the evaluation plus the plan; the variant is ``plan.variant``.

    The fields it adds are keyword-only, so a positional call that puts ``plan`` first raises.
    """

    plan: ExperimentPlan
    dtw_ranking: SourceRanking | None = None

    @property
    def selected_source(self) -> str | None:
        """The ranking's selected source; None without a ranking."""
        return None if self.dtw_ranking is None else self.dtw_ranking.selected

    def to_dict(self) -> dict:
        doc = {
            "variant": self.plan.variant,
            "plan": self.plan.to_dict(),
            "seed": self.plan.config.seed,
            **super().to_dict(),
        }
        if self.dtw_ranking is not None:
            doc["selected_source"] = self.selected_source
            doc["dtw_ranking"] = self.dtw_ranking.to_dict()
        return doc


def _check_predictable(curve: RawCurve, n: int) -> None:
    if curve.n_points() <= n:
        raise DataValidationError(
            f"sample {curve.sample_id!r} has {curve.n_points()} points, "
            f"need more than sequence length {n}"
        )


def _curve_features(curve: RawCurve, scalers: CurveScalers) -> np.ndarray:
    """The curve's (L, d) feature rows [scaled strain, scaled params...], one per point."""
    check_arity(curve, scalers.arity)
    strain = scalers.strain.scale(curve.strain)
    scaled_params = np.array([s.scale(v) for s, v in zip(scalers.params, curve.param_values())])
    features = np.empty((len(strain), scalers.input_dim))
    features[:, 0] = strain
    features[:, 1:] = scaled_params
    return features


def _curve_windows(curve: RawCurve, scalers: CurveScalers, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The curve's L - n windows as one read-only (L - n, n, d) view, and the scaled stress each predicts.

    Window t is feature rows t..t+n-1 and predicts the stress at point
    t + n: the length-n windows of the first L - 1 feature rows, the rows
    ``predict_curve`` hands to ``predict_series``. Needs L > n.
    """
    rows = _curve_features(curve, scalers)[:-1]
    windows = np.lib.stride_tricks.sliding_window_view(rows, n, axis=0).swapaxes(1, 2)
    return windows, scalers.stress.scale(curve.stress)[n:]


def window_dataset(curves: list[RawCurve], scalers: CurveScalers, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slide length-n windows over every curve; each window predicts the next stress.

    Returns ``(windows, targets)``: a curve of L points yields L - n windows,
    stacked in curve order into one (W, n, d) array, and ``targets`` holds the
    (W,) scaled stress each window predicts. A curve with <= n points is
    refused, as ``predict_curve`` refuses it: skipping it would leave its
    samples out of a stage whose scalers were fit on them.
    """
    check_int("sequence length", n, 1)
    if not curves:
        raise DataValidationError("window_dataset requires at least one curve")
    for curve in curves:
        _check_predictable(curve, n)
    windows, targets = zip(*(_curve_windows(curve, scalers, n) for curve in curves))
    return np.concatenate(windows), np.concatenate(targets)


def select_extreme_training_samples(dataset: Dataset) -> tuple[str, str]:
    """The two samples at the parameter-space corners of the DOE.

    Each parameter column is min-max scaled over the dataset (``scaling.FeatureScaler``);
    the samples with the smallest and largest scaled-parameter sums are returned
    (all-minimum and all-maximum corners). Ties break toward the smaller sample_id,
    and the two returned ids are always distinct. A column whose span overflows
    is refused naming the dataset.
    """
    if len(dataset.curves) < 2:
        raise DataValidationError(f"dataset {dataset.name!r} needs >= 2 samples, has {len(dataset.curves)}")
    matrix = np.array([c.param_values() for c in dataset.curves], dtype=float)
    if matrix.shape[1] == 0:
        raise DataValidationError(f"dataset {dataset.name!r} has no process parameters")
    try:
        scaled = [FeatureScaler(name, col.min(), col.max()).scale(col)
                  for name, col in zip(dataset.curves[0].params, matrix.T)]
    except DataValidationError as exc:
        raise DataValidationError(f"dataset {dataset.name!r}: {exc}") from exc
    scores = np.stack(scaled, axis=1).sum(axis=1)
    ids = dataset.sample_ids()
    low_id = min(zip(scores, ids))[1]
    return low_id, min((-score, sid) for score, sid in zip(scores, ids) if sid != low_id)[1]


def concat_shuffle_sources(datasets: list[Dataset], seed: int) -> list[RawCurve]:
    """The pre-training pool: one dataset's curves in file order, or all datasets' curves shuffled with ``seed``."""
    if not datasets:
        raise DataValidationError("concat_shuffle_sources requires at least one dataset")
    curves = [c for ds in datasets for c in ds.curves]
    if len(datasets) == 1:
        return curves
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(curves))
    return [curves[i] for i in order]


@contextmanager
def _stage_errors(stage: str, dataset_name: str):
    """Name the stage and the dataset in errors: bad data is a data error, a divergence a training failure."""
    try:
        yield
    except TrainingDivergenceError as exc:
        raise TrainingDivergenceError(f"{stage} on dataset {dataset_name!r}: {exc}") from exc
    except ValueError as exc:
        raise DataValidationError(f"{stage} on dataset {dataset_name!r}: {exc}") from exc


def _pretrain_pool(sources: list[Dataset], seed: int, arity: int, pad: bool) -> tuple[list[RawCurve], str]:
    """The one pre-training pool of ``sources`` (see ``concat_shuffle_sources``), padded to ``arity``, and its name."""
    name = "+".join(ds.name for ds in sources)
    with _stage_errors("pretrain", name):
        return padded_curves(concat_shuffle_sources(sources, seed), arity, pad), name


def _train_stage(
    stage: str, dataset_name: str, params: ModelParams | None, curves: list[RawCurve], config: TrainConfig
) -> ModelCheckpoint:
    """One stage: fit scalers on ``curves``, train from a copy of ``params`` (None: fresh seeded weights)."""
    if not curves:
        raise DataValidationError(f"{stage} requires a non-empty curve list")
    with _stage_errors(stage, dataset_name):
        scalers = fit_scalers(curves)
        params = init_params(config.seed, scalers.input_dim) if params is None else params.copy()
        windows, targets = window_dataset(curves, scalers, config.sequence_length)
        params, _ = train(params, windows, targets, config)
    return ModelCheckpoint(
        params=params,
        scalers=scalers,
        sequence_length=config.sequence_length,
        seed=config.seed,
        source_dataset=dataset_name,
        stage={"pretrain": "pretrained", "finetune": "finetuned"}[stage],
    )


def pretrain(
    source_curves: list[RawCurve],
    config: TrainConfig,
    dataset_name: str = "source",
) -> ModelCheckpoint:
    """Train a fresh model on the source curves, which share one arity; scalers are fit on them."""
    return _train_stage("pretrain", dataset_name, None, source_curves, config)


def finetune(
    params_init: ModelParams | None,
    target_train_curves: list[RawCurve],
    config: TrainConfig,
    dataset_name: str = "target",
) -> ModelCheckpoint:
    """Continue training from the given parameters on the target training curves.

    This is the transfer: the stage trains a verbatim copy of ``params_init``
    (a pretrained checkpoint's ``params``) with a fresh optimizer state, and
    leaves the caller's weights untouched; None starts from fresh seeded
    weights (the vanilla baseline). Scalers are refit on the target training
    split; all parameters update (no freezing). A training curve with no
    more points than the sequence length is refused before anything is
    trained, with ``run_variant``'s message for a target curve (no stage
    prefix); ``pretrain`` refuses one too, naming the stage and the pool.
    """
    for curve in target_train_curves:
        _check_predictable(curve, config.sequence_length)
    return _train_stage("finetune", dataset_name, params_init, target_train_curves, config)


def predict_curve(checkpoint: ModelCheckpoint, curve: RawCurve) -> np.ndarray:
    """Predicted stress (MPa) at positions n..len-1 of the curve.

    The first n points seed the first window and receive no prediction. The
    curve's L - n windows are the length-n windows of its first L - 1
    feature rows, the rows ``_curve_windows`` slides training's windows
    over, and run through the LSTM in one batched pass. Features are scaled
    with the checkpoint's scalers; values outside the training range simply
    scale outside [0, 1]. A curve whose parameter count is not the
    checkpoint's is rejected; ``scaling.padded_curves`` pads a shorter one
    first.
    """
    n = checkpoint.sequence_length
    _check_predictable(curve, n)
    rows = _curve_features(curve, checkpoint.scalers)[:-1]
    return checkpoint.scalers.stress.unscale(predict_series(checkpoint.params, rows, n))


def _dataset_map(datasets: list[Dataset]) -> dict[str, Dataset]:
    mapping: dict[str, Dataset] = {}
    for ds in datasets:
        if ds.name in mapping:
            raise DataValidationError(f"duplicate dataset name {ds.name!r}")
        mapping[ds.name] = ds
    return mapping


def _split_target(plan: ExperimentPlan, target: Dataset) -> tuple[list[RawCurve], list[RawCurve]]:
    # curve_by_id raises for an unknown id, train ids first, so every id is known below.
    train_curves = [target.curve_by_id(sid) for sid in plan.target_train_ids]
    test_curves = [target.curve_by_id(sid) for sid in plan.target_test_ids]
    known = set(target.sample_ids())
    covered = set(plan.target_train_ids) | set(plan.target_test_ids)
    if covered != known:
        raise DataValidationError(
            f"train/test ids must cover dataset {target.name!r} exactly; "
            f"missing {sorted(known - covered)}"
        )
    return train_curves, test_curves


def _resolve_arity(plan: ExperimentPlan, target: Dataset, sources: list[Dataset]) -> int:
    arities = {target.name: len(target.param_schema)}
    for ds in sources:
        arities[ds.name] = len(ds.param_schema)
    distinct = set(arities.values())
    if len(distinct) == 1:
        return distinct.pop()
    if not plan.pad_params:
        raise DataValidationError(
            f"parameter-schema lengths differ across datasets ({arities}); "
            "set pad_params to pad shorter schemas with zero columns"
        )
    return max(distinct)


def _summarize_sample(
    curve: RawCurve, n: int, predicted: np.ndarray, epsilon: float
) -> MetricSummary:
    """``summarize`` of the curve's stress tail; an undefined metric names the sample."""
    try:
        return summarize(curve.stress[n:], predicted, epsilon)
    except ValueError as exc:
        raise DataValidationError(f"sample {curve.sample_id!r}: {exc}") from exc


def evaluate(
    checkpoint: ModelCheckpoint,
    curves: list[RawCurve],
    epsilon: float = DEFAULT_MAPE_EPSILON,
) -> Evaluation:
    """Predict each curve's stress tail, score it, and average MAPE, RMSE and R2 over the curves."""
    if not curves:
        raise DataValidationError("evaluate requires at least one curve")
    check_number("evaluate: MAPE epsilon", epsilon, positive=True)
    n = checkpoint.sequence_length
    per_sample = []
    for curve in curves:
        predicted = predict_curve(checkpoint, curve)
        summary = _summarize_sample(curve, n, predicted, epsilon)
        per_sample.append(SampleEval(curve.sample_id, summary, predicted))
    keys = ("mape", "rmse", "r2")
    with np.errstate(over="ignore"):
        means = [float(np.mean([getattr(s.metrics, key) for s in per_sample])) for key in keys]
    for key, mean in zip(keys, means):
        if not np.isfinite(mean):
            raise DataValidationError(f"aggregate {key} overflows float64")
    return Evaluation(per_sample, *means)


def _prepare(plan: ExperimentPlan, datasets):
    """Resolve the plan's datasets, split the target, and pad the split to the datasets' one arity.

    The resolved names must be distinct (``_dataset_map``): a repeated source
    would be pooled twice, and a target among its sources would put its own
    test curves in the pre-training pool (and dtw_tl would select it).

    Returns (sources, train_curves, test_curves).
    """
    name_map = _dataset_map(datasets)
    names = [plan.target_dataset, *plan.source_datasets]
    for i, name in enumerate(names):
        if name not in name_map:
            raise DataValidationError(f"unknown {'source' if i else 'target'} dataset {name!r}")
    target, *sources = _dataset_map([name_map[name] for name in names]).values()
    train_curves, test_curves = _split_target(plan, target)
    # predict_curve's length rule on the whole split and on every source a variant may pool
    # (dtw_tl ranks all of them), and every metric's preconditions on the test tails, before
    # any ranking or training is spent.
    n = plan.config.sequence_length
    for curve in test_curves:
        _check_predictable(curve, n)
        _summarize_sample(curve, n, curve.stress[n:], plan.mape_epsilon)
    for curve in train_curves:
        _check_predictable(curve, n)
    candidates = sources if plan.variant != "vanilla" else []
    for ds in candidates:
        with _stage_errors("pretrain", ds.name):
            for curve in ds.curves:
                _check_predictable(curve, n)
    arity = _resolve_arity(plan, target, candidates)
    train_curves = padded_curves(train_curves, arity, plan.pad_params)
    test_curves = padded_curves(test_curves, arity, plan.pad_params)
    return sources, train_curves, test_curves


def _fit(
    plan: ExperimentPlan, sources: list[Dataset], train_curves: list[RawCurve], test_curves: list[RawCurve]
) -> Evaluation:
    """The one fit chain behind ``run_variant`` and ``run_source_sweep``.

    Pretrain on the pool of ``sources`` and hand its weights to ``finetune``,
    which copies them verbatim, or, with no sources (vanilla), hand it None
    for fresh seeded weights; then fine-tune on the target training curves
    and evaluate on the test curves.
    """
    params0 = None
    if sources:
        pool, pool_name = _pretrain_pool(sources, plan.config.seed, len(train_curves[0].params), plan.pad_params)
        pre_config = replace(plan.config, epochs=plan.pretrain_epochs or plan.config.epochs)
        params0 = pretrain(pool, pre_config, pool_name).params
    checkpoint = finetune(params0, train_curves, plan.config, plan.target_dataset)
    return evaluate(checkpoint, test_curves, plan.mape_epsilon)


def run_variant(plan: ExperimentPlan, datasets) -> EvalReport:
    """Execute one experiment variant end to end and evaluate on the target test split.

    vanilla trains from scratch on the target training split; tl_all pre-trains
    on the pool of every source; dtw_tl ranks sources by average DTW distance
    to the target TRAINING curves and pre-trains on the selected source's pool
    only, then fine-tunes. Deterministic for fixed seeds and inputs.
    """
    sources, train_curves, test_curves = _prepare(plan, datasets)
    pooled, ranking = [], None
    if plan.variant == "tl_all":
        pooled = sources
    elif plan.variant == "dtw_tl":
        ranking = rank_sources(sources, train_curves, plan.grid_n)
        pooled = [ds for ds in sources if ds.name == ranking.selected]
    evaluation = _fit(plan, pooled, train_curves, test_curves)
    return EvalReport(**vars(evaluation), plan=plan, dtw_ranking=ranking)


def run_source_sweep(plan: ExperimentPlan, datasets) -> tuple[list[tuple[str, float, float]], float]:
    """Fine-tune once per candidate source and correlate avg DTW with test MAPE.

    Returns ([(source, avg_dtw, aggregate_mape)], pearson) over all sources in
    the plan, in plan order; this is the per-target experiment behind the
    distance-vs-error tables. Each source's fit is the one ``run_variant``
    makes for dtw_tl when that source is selected, so the plan's variant must
    be dtw_tl. Two points always give +-1, so fewer than three sources are
    rejected before anything is trained.
    """
    if len(plan.source_datasets) < 3:
        raise DataValidationError(f"run_source_sweep requires at least 3 source datasets, got {len(plan.source_datasets)}")
    if plan.variant != "dtw_tl":
        raise DataValidationError(f"run_source_sweep requires variant 'dtw_tl', got {plan.variant!r}")
    sources, train_curves, test_curves = _prepare(plan, datasets)
    avg_dtw = dict(rank_sources(sources, train_curves, plan.grid_n).entries)
    entries = []
    for ds in sources:
        evaluation = _fit(plan, [ds], train_curves, test_curves)
        entries.append((ds.name, avg_dtw[ds.name], evaluation.aggregate_mape))
    correlation = pearson([e[1] for e in entries], [e[2] for e in entries])
    return entries, correlation
