"""Stress-strain curve transfer learning with DTW-based source selection."""

from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .curves import (
    Dataset,
    ParamField,
    RawCurve,
    grid_curve,
    grid_curves,
    load_dataset,
    save_dataset,
    validate_curve,
)
from .errors import DataValidationError, TrainingDivergenceError
from .metrics import MetricSummary, mape, pearson, r2, rmse, summarize
from .scaling import CurveScalers, FeatureScaler, fit_scalers
from .seqnet import (
    ModelParams,
    TrainConfig,
    backward,
    forward_sequence,
    init_params,
    optimizer_step,
    predict_series,
    train,
)
from .similarity import (
    SourceRanking,
    cumulative_cost,
    dtw_distance,
    dtw_path,
    local_distance_matrix,
    rank_sources,
)
from .synthgen import FamilySpec, generate_dataset, standard_suite
from .transfer import (
    EvalReport,
    Evaluation,
    ExperimentPlan,
    concat_shuffle_sources,
    evaluate,
    finetune,
    predict_curve,
    pretrain,
    run_source_sweep,
    run_variant,
    select_extreme_training_samples,
    transfer_init,
    window_dataset,
)

__version__ = "0.1.0"
