"""Every scalar the library is handed is checked by one of two rules: ``errors.check_int`` or ``check_number``."""

import ast
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from curvetransfer import errors
from curvetransfer.checkpoint import INTEGER_FIELDS, ModelCheckpoint, load_checkpoint
from curvetransfer.curves import RawCurve, grid_curve, grid_curves, load_dataset
from curvetransfer.errors import DataValidationError, check_int, check_number
from curvetransfer.metrics import mape, mape_excluded_count, summarize
from curvetransfer.scaling import FeatureScaler, fit_scalers
from curvetransfer.seqnet import ModelParams, TrainConfig, init_params, predict_series
from curvetransfer.transfer import ExperimentPlan, evaluate, window_dataset

from conftest import linear_curve, write_manifest


def _curve() -> RawCurve:
    return linear_curve(n=30, params={"p": 1.0})


def _checkpoint() -> ModelCheckpoint:
    return ModelCheckpoint(ModelParams(2, 3), fit_scalers([_curve()]), 5, 0, "src", "pretrained")


def _plan(**kw) -> ExperimentPlan:
    return ExperimentPlan(variant="vanilla", source_datasets=[], target_dataset="t", target_train_ids=["1"],
                          target_test_ids=["2"], config=TrainConfig(epochs=1), **kw)


def _load_speed(value):
    with tempfile.TemporaryDirectory() as tmp:
        load_dataset(write_manifest(Path(tmp), samples={"1": ([0.0, 0.01], [0.0, 1.0], {"speed": value})}))


# (entry, name in the message, least value, call with the value under test)
INT_SITES = [
    ("TrainConfig.epochs", "epochs", 1, lambda v: TrainConfig(epochs=v)),
    ("TrainConfig.sequence_length", "sequence_length", 1, lambda v: TrainConfig(epochs=1, sequence_length=v)),
    ("TrainConfig.seed", "seed", 0, lambda v: TrainConfig(epochs=1, seed=v)),
    ("init_params.seed", "seed", 0, lambda v: init_params(v, 2)),
    ("init_params.input_dim", "input_dim", 1, lambda v: init_params(0, v)),
    ("init_params.hidden_dim", "hidden_dim", 1, lambda v: init_params(0, 2, v)),
    ("predict_series.n", "window length n", 1, lambda v: predict_series(ModelParams(2, 3), np.zeros((6, 2)), v)),
    ("ExperimentPlan.grid_n", "grid_n", 2, lambda v: _plan(grid_n=v)),
    ("ExperimentPlan.pretrain_epochs", "pretrain_epochs", 1, lambda v: _plan(pretrain_epochs=v)),
    ("window_dataset.n", "sequence length", 1, lambda v: window_dataset([_curve()], fit_scalers([_curve()]), v)),
    ("grid_curves.n", "grid size", 2, lambda v: grid_curves([_curve()], v)),
    ("grid_curve.n", "grid size", 2, lambda v: grid_curve(_curve(), v)),
    *[(f"ModelCheckpoint.from_dict.{key}", key, low,
       lambda v, key=key: ModelCheckpoint.from_dict({**_checkpoint().to_dict(), key: v}))
      for key, low in INTEGER_FIELDS.items()],
]

# (entry, name in the message, whether the value must be > 0, call, whether the value comes from JSON)
NUMBER_SITES = [
    ("TrainConfig.learning_rate", "learning_rate", True, lambda v: TrainConfig(epochs=1, learning_rate=v), False),
    ("ExperimentPlan.mape_epsilon", "mape_epsilon", True, lambda v: _plan(mape_epsilon=v), False),
    ("mape", "MAPE epsilon", True, lambda v: mape([1.0], [1.0], v), False),
    ("mape_excluded_count", "MAPE epsilon", True, lambda v: mape_excluded_count([1.0], v), False),
    ("summarize", "MAPE epsilon", True, lambda v: summarize([1.0, 2.0], [1.0, 2.0], v), False),
    ("evaluate", "evaluate: MAPE epsilon", True, lambda v: evaluate(_checkpoint(), [_curve()], v), False),
    ("FeatureScaler.from_dict.min", "scaler 'p': min", False,
     lambda v: FeatureScaler.from_dict({"name": "p", "min": v, "max": 1.0}), False),
    ("FeatureScaler.from_dict.max", "scaler 'p': max", False,
     lambda v: FeatureScaler.from_dict({"name": "p", "min": 0.0, "max": v}), False),
    ("load_dataset.parameter", "sample '1' parameter 'speed'", False, _load_speed, True),
]


def _int_cases():
    for entry, name, low, call in INT_SITES:
        for label, value in [("True", True), ("2.5", 2.5), ("'7'", "7"), ("None", None),
                             ("np.int64(7)", np.int64(7)), ("nan", math.nan), ("low-1", low - 1)]:
            if not (name == "pretrain_epochs" and value is None):  # None: the stage runs config.epochs
                yield pytest.param(name, low, call, value, id=f"{entry}-{label}")


def _number_cases():
    for entry, name, positive, call, from_json in NUMBER_SITES:
        least = ("0", 0) if positive else ("inf", math.inf)
        for label, value in [("True", True), ("'7'", "7"), ("None", None), ("np.int64(7)", np.int64(7)),
                             ("10**400", 10**400), ("nan", math.nan), least]:
            if not (from_json and isinstance(value, np.integer)):  # json.dumps cannot write a numpy int
                yield pytest.param(name, positive, call, value, id=f"{entry}-{label}")


@pytest.mark.parametrize("name, low, call, value", _int_cases())
def test_every_int_site_refuses_the_same_values_in_one_wording(name, low, call, value):
    with pytest.raises(DataValidationError) as excinfo:
        call(value)
    assert str(excinfo.value).endswith(f"{name} must be an integer >= {low}, got {value!r}")


@pytest.mark.parametrize("name, positive, call, value", _number_cases())
def test_every_number_site_refuses_the_same_values_in_one_wording(name, positive, call, value):
    with pytest.raises(DataValidationError) as excinfo:
        call(value)
    bound = " > 0" if positive else ""
    assert str(excinfo.value).endswith(f"{name} must be a finite number{bound}, got {value!r}")


@pytest.mark.parametrize("value", [0, 7, 10**400])
def test_check_int_accepts_a_plain_int_at_its_bound_or_above(value):
    check_int("n", value, 0)


@pytest.mark.parametrize("value", [5e-324, 3, np.float64(0.5), 1.7e308])
def test_check_number_returns_a_finite_positive_number(value):
    assert check_number("x", value, positive=True) is value


def test_an_int_beyond_repr_is_refused_as_data():
    # repr() refuses an int of more than sys.get_int_max_str_digits() digits with a plain ValueError.
    with pytest.raises(DataValidationError) as excinfo:
        TrainConfig(epochs=1, seed=-(10**5000))
    assert str(excinfo.value) == "seed must be an integer >= 0, got an int of 16610 bits"
    with pytest.raises(DataValidationError) as excinfo:
        TrainConfig(epochs=1, learning_rate=10**5000)
    assert str(excinfo.value) == "learning_rate must be a finite number > 0, got an int of 16610 bits"


@pytest.mark.parametrize("key", list(INTEGER_FIELDS))
def test_checkpoint_integer_field_error_names_the_file(tmp_path, key):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({**_checkpoint().to_dict(), key: 2.5}), encoding="utf-8")
    with pytest.raises(DataValidationError) as excinfo:
        load_checkpoint(path)
    low = INTEGER_FIELDS[key]
    assert str(excinfo.value) == f"{path}: malformed checkpoint: {key} must be an integer >= {low}, got 2.5"


def test_checkpoint_scaler_span_error_names_the_file(tmp_path):
    doc = _checkpoint().to_dict()
    doc["feature_scalers"]["stress"].update(min=-1.7e308, max=1.7e308)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataValidationError) as excinfo:
        load_checkpoint(path)
    assert str(excinfo.value) == (
        f"{path}: malformed checkpoint: feature 'stress': non-finite span of [-1.7e+308, 1.7e+308]"
    )


def test_unsupported_version_is_not_called_malformed(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({**_checkpoint().to_dict(), "format_version": 1}), encoding="utf-8")
    with pytest.raises(DataValidationError) as excinfo:
        load_checkpoint(path)
    assert str(excinfo.value).startswith("unsupported checkpoint format_version: 1;")


@pytest.mark.parametrize("vmin, vmax", [(-1.7e308, 1.7e308), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_feature_scaler_refuses_a_span_that_is_not_finite(vmin, vmax):
    with pytest.raises(DataValidationError) as excinfo:
        FeatureScaler("p", np.float64(vmin), np.float64(vmax))
    assert str(excinfo.value) == f"feature 'p': non-finite span of [{vmin!r}, {vmax!r}]"


def test_bool_exclusion_is_written_only_in_errors():
    # A bool is an int to isinstance; the one place that says it is not a number is errors.py.
    found = []
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                    found.append(path.stem)
    assert found and set(found) == {"errors"}
