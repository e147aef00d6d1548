"""Scaling, windowing, training-set selection, transfer, and the experiment runner."""

import ast
import base64
import dataclasses
import functools
import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvetransfer import transfer
from curvetransfer.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from curvetransfer.curves import Dataset, ParamField, RawCurve
from curvetransfer.errors import DataValidationError
from curvetransfer.metrics import MetricSummary
from curvetransfer.scaling import FeatureScaler, fit_scalers, padded_curves
from curvetransfer.seqnet import PARAM_NAMES, TrainConfig, forward_sequence, init_params
from curvetransfer.synthgen import FamilySpec, generate_dataset, standard_suite
from curvetransfer.transfer import (
    ExperimentPlan,
    concat_shuffle_sources,
    finetune,
    predict_curve,
    pretrain,
    run_source_sweep,
    run_variant,
    select_extreme_training_samples,
    transfer_init,
    window_dataset,
)

from conftest import evaluate_loss, linear_curve, reference_extreme_training_samples, with_stress_unit


# Laser power (W) x scanning speed (mm/s) for the 32-sample L-PBF aluminum
# DOE at 0.1 mm hatch spacing; samples 1 and 20 sit at the parameter corners.
ALSI10MG_DOE_1 = {
    "1": (60, 250), "2": (160, 250), "3": (160, 800), "4": (160, 1350),
    "5": (260, 250), "6": (260, 800), "7": (260, 1350), "8": (260, 1900),
    "9": (360, 250), "10": (360, 800), "11": (360, 1350), "12": (360, 1900),
    "13": (360, 2450), "14": (360, 3000), "15": (460, 250), "16": (460, 800),
    "17": (460, 1350), "18": (460, 1900), "19": (460, 2450), "20": (460, 3000),
    "21": (110, 250), "22": (210, 250), "23": (60, 500), "24": (110, 500),
    "25": (160, 500), "26": (210, 500), "27": (260, 500), "28": (360, 500),
    "29": (460, 500), "30": (110, 800), "31": (210, 800), "32": (210, 1350),
}


def param_dataset(doe, name="ds"):
    curves = [
        RawCurve(sid, np.array([0.0, 0.01, 0.02]), np.array([0.0, 50.0, 100.0]),
                 {"laser_power": float(p), "scan_speed": float(v)})
        for sid, (p, v) in doe.items()
    ]
    schema = [ParamField("laser_power", "W"), ParamField("scan_speed", "mm/s")]
    return Dataset(name, "target", schema, curves)


class TestFitScalers:
    def test_midpoint_scales_to_half(self):
        curves = [linear_curve(n=5, max_strain=0.04, params={"p": 1.0})]
        scalers = fit_scalers(curves)
        assert abs(float(scalers.strain.scale(0.02)) - 0.5) < 1e-12

    def test_constant_parameter_degenerate(self):
        curves = [linear_curve(sample_id=str(i), params={"p": 7.0}) for i in range(3)]
        scalers = fit_scalers(curves)
        assert scalers.params[0].degenerate
        np.testing.assert_array_equal(scalers.params[0].scale(np.array([7.0, 7.0])), 0.0)

    def test_out_of_range_values_exceed_unit_interval(self):
        curves = [linear_curve(max_strain=0.04, params={"p": 1.0})]
        scalers = fit_scalers(curves)
        assert float(scalers.strain.scale(0.08)) > 1.0
        assert float(scalers.strain.scale(-0.01)) < 0.0

    def test_roundtrip_unscale(self):
        curves = [linear_curve(params={"p": 1.0})]
        scalers = fit_scalers(curves)
        values = np.array([0.0, 12.3, 50.0])
        np.testing.assert_allclose(scalers.stress.unscale(scalers.stress.scale(values)), values)

    @pytest.mark.parametrize("feature", ["strain", "speed", "stress"])
    def test_overflowing_span_rejected_naming_the_feature(self, feature):
        values = {"strain": (0.0, 1.0), "speed": (0.0, 1.0), "stress": (0.0, 1.0)}
        values[feature] = (-1.7e308, 1.7e308)
        curves = [RawCurve(str(i), np.array([values["strain"][i]]), np.array([values["stress"][i]]),
                           {"speed": values["speed"][i]}) for i in range(2)]
        with pytest.raises(DataValidationError, match=f"feature '{feature}': non-finite span"):
            fit_scalers(curves)

    def test_large_finite_span_accepted(self):
        curves = [linear_curve(sample_id=str(i), params={"speed": v})
                  for i, v in enumerate((-8e307, 8e307))]
        assert fit_scalers(curves).params[0] == FeatureScaler("speed", -8e307, 8e307)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_nan_refused_whatever_the_curve_order(self, order):
        # Fit per curve and then merged, a NaN was caught only in the first curve:
        # min(0.0, nan) is 0.0 but min(nan, 0.0) is nan.
        clean = linear_curve(sample_id="a", n=12, params={"p": 1.0})
        nan = linear_curve(sample_id="b", n=12, params={"p": 2.0})
        nan.stress[-1] = np.nan
        curves = [(clean, nan)[i] for i in order]
        with pytest.raises(DataValidationError) as excinfo:
            fit_scalers(curves)
        assert str(excinfo.value) == "feature 'stress': non-finite span of [nan, nan]"


class TestFeatureScalerFromDict:
    def test_infinite_span_rejected_naming_the_scaler(self):
        with pytest.raises(ValueError, match="scaler 'stress': span max - min .* is not finite"):
            FeatureScaler.from_dict({"name": "stress", "min": -1.7e308, "max": 1.7e308})

    def test_large_finite_span_accepted(self):
        scaler = FeatureScaler.from_dict({"name": "stress", "min": -8e307, "max": 8e307})
        assert scaler == FeatureScaler("stress", -8e307, 8e307)


class TestWindowDataset:
    def test_window_count(self):
        curves = [linear_curve(n=7, params={"p": 1.0})]
        scalers = fit_scalers(curves)
        windows, _ = window_dataset(curves, scalers, 5)
        assert len(windows) == 2

    def test_windows_never_cross_curves(self):
        curves = [
            linear_curve(sample_id="a", n=6, params={"p": 1.0}),
            linear_curve(sample_id="b", n=6, params={"p": 2.0}),
        ]
        scalers = fit_scalers(curves)
        windows, _ = window_dataset(curves, scalers, 5)
        assert len(windows) == 2
        param_column = windows[:, :, 1]
        assert np.all(param_column == param_column[:, :1])  # no window mixes the two curves' rows
        np.testing.assert_array_equal(param_column[:, 0], [0.0, 1.0])  # a's window, then b's

    def test_param_columns_constant_within_window(self):
        curves = [linear_curve(n=10, params={"p": 3.0, "q": 9.0})]
        scalers = fit_scalers(curves)
        windows, _ = window_dataset(curves, scalers, 4)
        for window in windows:
            assert np.all(window[:, 1] == window[0, 1])
            assert np.all(window[:, 2] == window[0, 2])

    def test_features_in_unit_interval_on_train_split(self):
        rng = np.random.default_rng(0)
        curves = []
        for i in range(4):
            strain = np.sort(rng.random(20)) * 0.1
            strain[0] = 0.0
            curves.append(RawCurve(str(i), strain, rng.random(20) * 300, {"p": float(i)}))
        scalers = fit_scalers(curves)
        windows, targets = window_dataset(curves, scalers, 5)
        for window in windows:
            assert np.all(window >= -1e-12) and np.all(window <= 1 + 1e-12)
        assert np.all(targets >= -1e-12) and np.all(targets <= 1 + 1e-12)

    def test_short_curves_skipped_with_warning(self):
        curves = [
            linear_curve(sample_id="short", n=4, params={"p": 1.0}),
            linear_curve(sample_id="long", n=10, params={"p": 2.0}),
        ]
        scalers = fit_scalers(curves)
        with pytest.warns(UserWarning, match="short"):
            windows, _ = window_dataset(curves, scalers, 5)
        assert len(windows) == 10 - 5
        assert np.all(windows[:, :, 1] == 1.0)  # long's scaled p; short's would be 0

    def test_all_short_rejected(self):
        curves = [linear_curve(n=3, params={"p": 1.0})]
        scalers = fit_scalers(curves)
        with pytest.warns(UserWarning):
            with pytest.raises(DataValidationError, match="no usable windows"):
                window_dataset(curves, scalers, 5)


def random_curve(seed, length, n_params):
    rng = np.random.default_rng(seed)
    strain = np.cumsum(rng.random(length)) * 0.01
    params = {f"p{k}": float(rng.uniform(1.0, 100.0)) for k in range(n_params)}
    return RawCurve("r", strain, rng.random(length) * 300.0, params)


def reference_features(curve, scalers):
    """Per-point [scaled strain, scaled params...] rows, built column by column."""
    columns = [scalers.strain.scale(curve.strain)]
    columns += [np.full(curve.n_points(), s.scale(v)) for s, v in zip(scalers.params, curve.param_values())]
    return np.column_stack(columns)


window_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    extra=st.integers(1, 32),
    n_params=st.integers(0, 3),
)


class TestCurveWindows:
    @settings(max_examples=60, deadline=None)
    @given(**window_cases)
    def test_windows_and_targets_equal_slices(self, seed, n, extra, n_params):
        curve = random_curve(seed, n + extra, n_params)  # L = n + extra <= 40
        scalers = fit_scalers([curve])
        features = reference_features(curve, scalers)
        stress_scaled = scalers.stress.scale(curve.stress)
        windows, targets = transfer._curve_windows(curve, scalers, n)
        assert windows.shape == (extra, n, 1 + n_params)
        assert targets.shape == (extra,)
        for t in range(extra):
            assert windows[t].flags.c_contiguous
            assert np.array_equal(windows[t], features[t : t + n])
            assert targets[t] == stress_scaled[t + n]

    @settings(max_examples=30, deadline=None)
    @given(**window_cases)
    def test_predict_curve_equals_per_slice_loop(self, seed, n, extra, n_params):
        curve = random_curve(seed, n + extra, n_params)
        scalers = fit_scalers([curve])
        ckpt = ModelCheckpoint(init_params(seed, 1 + n_params, 4), scalers, n, 0, "r", "pretrained")
        features = reference_features(curve, scalers)
        reference = scalers.stress.unscale(
            np.array([forward_sequence(ckpt.params, features[t : t + n])[0] for t in range(extra)])
        )
        assert np.array_equal(predict_curve(ckpt, curve), reference)

    @settings(max_examples=30, deadline=None)
    @given(**window_cases)
    def test_predict_curve_reads_the_training_windows(self, seed, n, extra, n_params):
        # Training and inference must see the same features: predict_curve
        # unscales forward_sequence over the windows _curve_windows builds.
        curve = random_curve(seed, n + extra, n_params)
        scalers = fit_scalers([curve])
        params = init_params(seed, 1 + n_params, 4)
        params.b[:] = np.random.default_rng(seed).normal(size=params.b.shape)
        ckpt = ModelCheckpoint(params, scalers, n, 0, "r", "pretrained")
        windows, _ = transfer._curve_windows(curve, scalers, n)
        expected = np.array([forward_sequence(params, w)[0] for w in windows])
        predicted = predict_curve(ckpt, curve)
        assert predicted.shape == (extra,)
        assert predicted.tobytes() == scalers.stress.unscale(expected).tobytes()


@st.composite
def corner_datasets(draw):
    """2-30 samples over 1-10 parameters: some columns constant, some rows repeated, ids shuffled.

    From eight parameters on, numpy sums a row in eight interleaved partial
    sums; small integer levels and repeated rows tie scores, so ties break on the id.
    """
    n_samples, n_params = draw(st.integers(2, 30)), draw(st.integers(1, 10))
    value = st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6)
    columns = [[draw(value)] * n_samples if draw(st.booleans())
               else draw(st.lists(value, min_size=n_samples, max_size=n_samples))
               for _ in range(n_params)]
    rows = list(zip(*columns))
    for i in range(1, n_samples):
        if draw(st.integers(0, 3)) == 0:
            rows[i] = rows[draw(st.integers(0, i - 1))]
    ids = draw(st.permutations([str(k) for k in range(1, n_samples + 1)]))
    names = [f"p{k}" for k in range(n_params)]
    curves = [RawCurve(sid, np.array([0.0, 0.01]), np.array([0.0, 1.0]), dict(zip(names, row)))
              for sid, row in zip(ids, rows)]
    return Dataset("ds", "target", [ParamField(name) for name in names], curves)


class TestSelectExtremeTrainingSamples:
    @settings(max_examples=300, deadline=None)
    @given(corner_datasets())
    def test_matches_the_two_sort_oracle(self, ds):
        assert select_extreme_training_samples(ds) == reference_extreme_training_samples(ds)

    def test_doe_grid_corners(self):
        doe = {
            str(i + 1): (speed, temp)
            for i, (speed, temp) in enumerate(
                (s, t) for s in (10, 20, 30, 40, 50) for t in (220, 230, 240, 250, 260)
            )
        }
        ds = param_dataset(doe)
        low, high = select_extreme_training_samples(ds)
        assert ds.curve_by_id(low).params == {"laser_power": 10.0, "scan_speed": 220.0}
        assert ds.curve_by_id(high).params == {"laser_power": 50.0, "scan_speed": 260.0}

    def test_published_aluminum_doe_corners(self):
        ds = param_dataset(ALSI10MG_DOE_1)
        assert select_extreme_training_samples(ds) == ("1", "20")

    def test_two_samples_returns_both(self):
        ds = param_dataset({"7": (100, 100), "3": (100, 100)})
        assert select_extreme_training_samples(ds) == ("3", "7")

    def test_requires_two_samples(self):
        ds = param_dataset({"1": (1, 1)})
        with pytest.raises(DataValidationError, match=">= 2 samples"):
            select_extreme_training_samples(ds)


class TestConcatShuffleSources:
    def make_sources(self, counts=(3, 4)):
        sets = []
        for k, count in enumerate(counts):
            curves = [linear_curve(sample_id=f"{k}-{i}", params={"p": float(i)}) for i in range(count)]
            sets.append(Dataset(f"src{k}", "source", [ParamField("p")], curves))
        return sets

    def test_permutation_of_all_curves(self):
        sets = self.make_sources()
        pool = concat_shuffle_sources(sets, seed=0)
        assert len(pool) == 7
        assert {c.sample_id for c in pool} == {c.sample_id for ds in sets for c in ds.curves}

    def test_deterministic(self):
        sets = self.make_sources()
        ids1 = [c.sample_id for c in concat_shuffle_sources(sets, seed=5)]
        ids2 = [c.sample_id for c in concat_shuffle_sources(sets, seed=5)]
        assert ids1 == ids2

    def test_one_dataset_keeps_file_order(self):
        (single,) = self.make_sources(counts=(5,))
        pool = concat_shuffle_sources([single], seed=0)
        assert all(a is b for a, b in zip(pool, single.curves, strict=True))
        assert pool is not single.curves

    def test_four_polymer_sized_pools(self):
        spec = FamilySpec(family="hardening", base_modulus=2000.0, yield_strain=0.02,
                          ultimate_stress=60.0, failure_strain=0.06, points_per_curve=8)
        doe = {"speed": [10.0, 20.0, 30.0, 40.0, 50.0], "temp": [220.0, 230.0, 240.0, 250.0, 260.0]}
        sets = [generate_dataset(spec, doe, seed=k, name=f"poly{k}") for k in range(4)]
        assert all(len(ds.curves) == 25 for ds in sets)
        assert len(concat_shuffle_sources(sets, seed=1)) == 100


def small_config(**kw):
    defaults = dict(epochs=3, learning_rate=1e-3, sequence_length=5, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_source(seed=0, name="src"):
    spec = FamilySpec(family="plateau", base_modulus=2000.0, yield_strain=0.018,
                      ultimate_stress=48.0, failure_strain=0.1,
                      param_sensitivity={"p": 0.2}, noise_sd=0.1, points_per_curve=20)
    return generate_dataset(spec, {"p": [1.0, 2.0, 3.0]}, seed, name=name)


class TestPretrainTransferFinetune:
    def test_pretrain_loss_decreases(self):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(epochs=25, learning_rate=5e-3), ds.name)
        assert ckpt.stage == "pretrained"
        assert ckpt.source_dataset == "src"

    def test_pretrain_deterministic_bytes(self, tmp_path):
        ds = small_source()
        for run in (1, 2):
            ckpt = pretrain(ds.curves, small_config(), ds.name)
            save_checkpoint(ckpt, tmp_path / f"run{run}.json")
        assert (tmp_path / "run1.json").read_bytes() == (tmp_path / "run2.json").read_bytes()

    def test_pretrain_empty_rejected(self):
        with pytest.raises(DataValidationError, match="non-empty"):
            pretrain([], small_config())

    def test_transfer_init_copies_exactly(self):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(), ds.name)
        params = transfer_init(ckpt)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(params, name), getattr(ckpt.params, name))
        # a fresh copy, not an alias
        params.b_out[0] += 1.0
        assert ckpt.params.b_out[0] != params.b_out[0]

    def test_transfer_init_dimension_gate(self):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(), ds.name)  # input_dim = 2
        target = [linear_curve(sample_id=str(i), n=12, params={"a": i, "b": 1.0, "c": 2.0})
                  for i in range(2)]  # input_dim = 4
        with pytest.raises(DataValidationError, match="input_dim") as raised:
            finetune(transfer_init(ckpt), target, small_config(), "tgt")
        assert str(raised.value) == "finetune on dataset 'tgt': window columns 4 != input_dim 2"

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(), ds.name)
        save_checkpoint(ckpt, tmp_path / "ckpt.json")
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(loaded.params, name), getattr(ckpt.params, name))
        assert loaded.scalers == ckpt.scalers
        assert loaded.sequence_length == ckpt.sequence_length
        assert loaded.stage == ckpt.stage

    def test_finetune_improves_on_matching_target(self):
        source = small_source(seed=1)
        target = small_source(seed=2, name="tgt")
        config = small_config(epochs=20, learning_rate=5e-3)
        ckpt = pretrain(source.curves, config, source.name)
        params0 = transfer_init(ckpt)
        tuned = finetune(params0, target.curves, config, target.name)

        scalers = tuned.scalers
        windows, targets = window_dataset(target.curves, scalers, config.sequence_length)
        loss_before = evaluate_loss(params0, windows, targets)
        loss_after = evaluate_loss(tuned.params, windows, targets)
        assert loss_after < loss_before

    def test_finetune_from_none_is_finetune_from_fresh_seeded_weights(self, tmp_path):
        # The vanilla baseline: the weights pretrain starts from, then the finetune stage.
        ds = small_source(name="tgt")
        config = small_config()
        fresh = finetune(None, ds.curves, config, ds.name)
        seeded = finetune(init_params(config.seed, 1 + len(ds.param_schema)), ds.curves, config, ds.name)
        save_checkpoint(fresh, tmp_path / "none.json")
        save_checkpoint(seeded, tmp_path / "seeded.json")
        assert (tmp_path / "none.json").read_bytes() == (tmp_path / "seeded.json").read_bytes()
        assert fresh.stage == "finetuned"
        assert fresh.params.flat.tobytes() == pretrain(ds.curves, config, ds.name).params.flat.tobytes()

    @pytest.mark.parametrize("start", ["fresh", "params"])
    def test_short_training_curve_refused_before_training(self, monkeypatch, start):
        # Skipped with a warning, the short curve would leave the stage training on the long one alone.
        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(transfer, "train", no_training)
        curves = [linear_curve(sample_id="1", n=46, params={"p": 1.0}),
                  linear_curve(sample_id="9", n=4, params={"p": 2.0})]
        params0 = None if start == "fresh" else init_params(0, 2, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError) as excinfo:
                finetune(params0, curves, small_config(), "tgt")
        assert str(excinfo.value) == "sample '9' has 4 points, need more than sequence length 5"

    def test_finetune_does_not_mutate_input_params(self):
        target = small_source(seed=3, name="tgt")
        params0 = init_params(0, 2, 8)
        before = {name: getattr(params0, name).copy() for name in PARAM_NAMES}
        finetune(params0, target.curves, small_config(), target.name)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(params0, name), before[name])

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_non_finite_training_data_is_a_data_error(self, stage):
        # Parameters of +-1.7e308 span an infinite range: the top one would scale to inf / inf = nan.
        curves = [linear_curve(sample_id=str(i), n=12, params={"p": p})
                  for i, p in enumerate((-1.7e308, 1.7e308))]
        with pytest.raises(DataValidationError, match=f"{stage} on dataset 'huge': feature 'p': non-finite span"):
            if stage == "pretrain":
                pretrain(curves, small_config(), "huge")
            else:
                finetune(init_params(0, 2, 8), curves, small_config(), "huge")

    def test_finetune_deterministic(self, tmp_path):
        target = small_source(seed=4, name="tgt")
        for run in (1, 2):
            ckpt = finetune(init_params(1, 2, 8), target.curves, small_config(), target.name)
            save_checkpoint(ckpt, tmp_path / f"ft{run}.json")
        assert (tmp_path / "ft1.json").read_bytes() == (tmp_path / "ft2.json").read_bytes()


class TestPredictCurve:
    def test_non_finite_prediction_names_the_sample(self):
        curve = linear_curve(sample_id="s7", n=10, params={"p": 1.0})
        predicted = np.full(curve.n_points() - 5, 1.0)
        predicted[2] = np.inf
        with pytest.raises(DataValidationError, match="sample 's7': 1 of 5 predictions are not finite"):
            transfer._summarize_sample(curve, 5, predicted, 1e-6)

    def test_prediction_length(self):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(), ds.name)
        curve = ds.curves[0]
        predicted = predict_curve(ckpt, curve)
        assert len(predicted) == curve.n_points() - ckpt.sequence_length

    def test_inverse_scaling(self):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(), ds.name)
        assert abs(float(ckpt.scalers.stress.unscale(0.5))
                   - (ckpt.scalers.stress.vmin + ckpt.scalers.stress.vmax) / 2) < 1e-12

    def test_overfit_single_curve_tracks_actual(self):
        curve = linear_curve(n=25, slope=2000.0, max_strain=0.05, params={"p": 1.0})
        config = small_config(epochs=300, learning_rate=1e-2)
        ckpt = pretrain([curve], config, "one")
        predicted = predict_curve(ckpt, curve)
        actual = curve.stress[config.sequence_length:]
        rel = np.abs(predicted - actual) / np.max(actual)
        assert float(np.mean(rel)) < 0.05

    def test_too_short_curve_rejected(self):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(), ds.name)
        stub = linear_curve(n=5, params={"p": 1.0})
        with pytest.raises(DataValidationError, match="sequence length"):
            predict_curve(ckpt, stub)


def suite_plan(variant, sources, target, config=None, **kw):
    train_ids = list(select_extreme_training_samples(target))
    test_ids = [sid for sid in target.sample_ids() if sid not in train_ids]
    return ExperimentPlan(
        variant=variant,
        source_datasets=[s.name for s in sources],
        target_dataset=target.name,
        target_train_ids=train_ids,
        target_test_ids=test_ids,
        config=config or small_config(),
        **kw,
    )


@pytest.fixture(scope="module")
def suite():
    return standard_suite(0)


class TestRunVariant:
    def test_vanilla_report_has_no_ranking(self, suite):
        sources, targets, _ = suite
        plan = suite_plan("vanilla", sources, targets[0])
        report = run_variant(plan, sources + [targets[0]])
        doc = report.to_dict()
        assert "dtw_ranking" not in doc
        assert "selected_source" not in doc
        assert len(doc["per_sample"]) == len(plan.target_test_ids)

    def test_dtw_tl_selects_ground_truth(self, suite):
        sources, targets, gt = suite
        target = targets[2]
        plan = suite_plan("dtw_tl", sources, target, pretrain_epochs=1)
        report = run_variant(plan, sources + [target])
        assert report.selected_source == gt[target.name]
        doc = report.to_dict()
        assert doc["dtw_ranking"]["selected"] == gt[target.name]
        distances = [e["avg_dtw"] for e in doc["dtw_ranking"]["entries"]]
        assert distances == sorted(distances)

    def test_aggregate_is_mean_of_per_sample(self, suite):
        sources, targets, _ = suite
        target = targets[1]
        plan = suite_plan("vanilla", sources, target)
        report = run_variant(plan, sources + [target])
        checkpoint = pretrain([target.curve_by_id(sid) for sid in plan.target_train_ids],
                              small_config(), target.name)
        evaluation = transfer.evaluate(checkpoint, [target.curve_by_id(sid) for sid in plan.target_test_ids])
        for result in (report, evaluation):
            doc = result.to_dict()
            for key in ("mape", "rmse", "r2"):
                mean = np.mean([getattr(s.metrics, key) for s in result.per_sample])
                assert getattr(result, f"aggregate_{key}") == float(mean)
                assert doc["aggregate"][key] == getattr(result, f"aggregate_{key}")
        assert all("predicted" not in s for s in evaluation.to_dict(with_predicted=False)["per_sample"])

    def test_report_fields_are_keyword_only(self):
        with pytest.raises(TypeError, match="positional"):
            transfer.EvalReport(None, [], 0.0, 0.0, 0.0)

    def test_evaluate_without_curves_rejected(self):
        checkpoint = pretrain(small_source().curves, small_config(epochs=1), "src")
        with pytest.raises(DataValidationError, match="at least one curve"):
            transfer.evaluate(checkpoint, [])

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf"), True, "1e-6"], ids=repr)
    def test_evaluate_rejects_bad_epsilon_before_predicting(self, monkeypatch, epsilon):
        checkpoint = pretrain(small_source().curves, small_config(epochs=1), "src")

        def no_prediction(*args, **kwargs):
            raise AssertionError("predict_curve ran")

        monkeypatch.setattr(transfer, "predict_curve", no_prediction)
        with pytest.raises(DataValidationError, match="evaluate: MAPE epsilon must be a finite number > 0"):
            transfer.evaluate(checkpoint, small_source().curves, epsilon)

    @pytest.mark.parametrize("key", ["mape", "r2"])
    def test_evaluate_rejects_an_overflowing_aggregate(self, monkeypatch, key):
        # Each sample's metrics are finite, but two MAPEs of 1e308 (or R2s of -1e308) sum past float64.
        checkpoint = pretrain(small_source().curves, small_config(epochs=1), "src")
        values = {"mape": 1.0, "rmse": 1.0, "r2": 0.5, key: 1e308 if key == "mape" else -1e308}
        monkeypatch.setattr(transfer, "summarize", lambda *args: MetricSummary(**values, n_points=3, n_excluded=0))
        with pytest.raises(DataValidationError, match=f"aggregate {key} overflows float64"):
            transfer.evaluate(checkpoint, small_source().curves[:2])

    def test_deterministic_reports(self, suite):
        sources, targets, _ = suite
        plan = suite_plan("vanilla", sources, targets[0])
        r1 = run_variant(plan, sources + [targets[0]])
        r2 = run_variant(plan, sources + [targets[0]])
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)

    def test_train_test_overlap_rejected(self, suite):
        sources, targets, _ = suite
        target = targets[0]
        with pytest.raises(DataValidationError, match="overlap"):
            ExperimentPlan(
                variant="vanilla", source_datasets=[], target_dataset=target.name,
                target_train_ids=["1", "2"], target_test_ids=["2", "3"],
                config=small_config(),
            )

    @pytest.mark.parametrize("missing", ["target", "source"])
    def test_unknown_dataset_rejected(self, suite, missing):
        sources, targets, _ = suite
        plan = suite_plan("vanilla", sources, targets[0])
        gone = targets[0] if missing == "target" else sources[1]
        with pytest.raises(DataValidationError) as excinfo:
            run_variant(plan, [ds for ds in sources + [targets[0]] if ds is not gone])
        assert str(excinfo.value) == f"unknown {missing} dataset {gone.name!r}"

    @pytest.mark.parametrize("bad", ["target_as_source", "source_twice"])
    @pytest.mark.parametrize("variant", ["vanilla", "tl_all", "dtw_tl", "sweep"])
    def test_repeated_dataset_name_rejected_before_training(self, suite, monkeypatch, variant, bad):
        # A target among its sources would pretrain on its own test curves
        # (and dtw_tl would select it); a repeated source would be pooled twice.
        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(transfer, "train", no_training)
        sources, targets, _ = suite
        target = next(t for t in targets if t.name == "metal_plateau")
        repeated = target if bad == "target_as_source" else sources[0]
        plan = suite_plan("dtw_tl" if variant == "sweep" else variant, sources, target)
        plan.source_datasets.insert(1, repeated.name)
        run = run_source_sweep if variant == "sweep" else run_variant
        with pytest.raises(DataValidationError) as excinfo:
            run(plan, sources + [target])
        assert str(excinfo.value) == f"duplicate dataset name {repeated.name!r}"

    @pytest.mark.parametrize("variant", transfer.VARIANTS)
    def test_short_training_curve_refused_before_training(self, suite, monkeypatch, variant):
        # Skipping the curve would train on the other sample's windows alone
        # while the report still lists it among the train ids.
        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(transfer, "train", no_training)
        sources, targets, _ = suite
        target = dataclasses.replace(targets[0], curves=[
            dataclasses.replace(c, strain=c.strain[:4], stress=c.stress[:4]) if c.sample_id == "9" else c
            for c in targets[0].curves
        ])
        plan = suite_plan(variant, sources, target, small_config(epochs=2))
        assert plan.target_train_ids == ["1", "9"]
        with pytest.raises(DataValidationError) as excinfo:
            run_variant(plan, sources + [target])
        assert str(excinfo.value) == "sample '9' has 4 points, need more than sequence length 5"

    @pytest.mark.parametrize("n_sources", [0, 1, 2])
    def test_sweep_needs_three_sources_before_training(self, suite, monkeypatch, n_sources):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(transfer, "train", no_training)
        sources, targets, _ = suite
        plan = suite_plan("dtw_tl" if n_sources else "vanilla", sources[:n_sources], targets[0])
        with pytest.raises(DataValidationError) as excinfo:
            run_source_sweep(plan, sources + [targets[0]])
        assert str(excinfo.value) == f"run_source_sweep requires at least 3 source datasets, got {n_sources}"

    @pytest.mark.parametrize("missing", ["target", "source"])
    def test_sweep_unknown_dataset_rejected(self, suite, missing):
        sources, targets, _ = suite
        plan = suite_plan("dtw_tl", sources, targets[0])
        datasets = [ds for ds in sources + [targets[0]]
                    if ds is not (targets[0] if missing == "target" else sources[0])]
        with pytest.raises(DataValidationError, match=f"unknown {missing}"):
            run_source_sweep(plan, datasets)

    @pytest.mark.parametrize(
        "variant, fault",
        [pytest.param(v, "epsilon", id=v) for v in ("vanilla", "dtw_tl", "sweep")]
        + [pytest.param(v, f, id=f"{v}-{f}")
           for f in ("short_test_curve", "one_point_tail", "constant_tail")
           for v in ("vanilla", "dtw_tl", "sweep")],
    )
    def test_mape_epsilon_checked_before_training(self, suite, monkeypatch, variant, fault):
        def no_training(*args, **kwargs):
            raise AssertionError(f"training ran before the {fault} check")

        monkeypatch.setattr(transfer, "pretrain", no_training)
        monkeypatch.setattr(transfer, "finetune", no_training)
        sources, targets, _ = suite
        target = targets[0]
        first_test = next(c for c in target.curves
                          if c.sample_id not in select_extreme_training_samples(target))
        kw, detail = {}, ""
        if fault == "epsilon":
            kw = dict(mape_epsilon=1e9)
        elif fault == "short_test_curve":  # the first test curve has exactly sequence_length points
            kw = dict(config=small_config(sequence_length=first_test.n_points()))
            detail = " has [0-9]+ points, need more than sequence length"
        elif fault == "one_point_tail":  # ... and here sequence_length + 1 points
            kw = dict(config=small_config(sequence_length=first_test.n_points() - 1))
            detail = ": r2 requires at least 2 points"
        else:  # the first test curve's stress is constant after the first window
            stress = first_test.stress.copy()
            stress[small_config().sequence_length :] = stress[-1]
            target = dataclasses.replace(target, curves=[
                dataclasses.replace(c, stress=stress) if c is first_test else c for c in target.curves
            ])
            detail = ": r2 undefined for constant actual values"
        plan = suite_plan("dtw_tl" if variant == "sweep" else variant, sources, target, **kw)
        run = run_source_sweep if variant == "sweep" else run_variant
        with pytest.raises(DataValidationError, match=f"sample {plan.target_test_ids[0]!r}{detail}"):
            run(plan, sources + [target])

    def test_split_must_cover_dataset(self, suite):
        sources, targets, _ = suite
        target = targets[0]
        plan = ExperimentPlan(
            variant="vanilla", source_datasets=[], target_dataset=target.name,
            target_train_ids=["1"], target_test_ids=["2"],
            config=small_config(),
        )
        with pytest.raises(DataValidationError, match="cover"):
            run_variant(plan, sources + [target])

    @pytest.mark.parametrize(
        "train_ids, test_ids, unknown",
        [(["1", "98"], ["2"], "98"), (["98"], ["99"], "98"), (["1"], ["2", "99"], "99")],
    )
    def test_unknown_sample_named_before_coverage_train_first(self, suite, train_ids, test_ids, unknown):
        sources, targets, _ = suite
        target = targets[0]
        plan = ExperimentPlan(
            variant="vanilla", source_datasets=[], target_dataset=target.name,
            target_train_ids=train_ids, target_test_ids=test_ids,
            config=small_config(),
        )
        with pytest.raises(DataValidationError) as excinfo:
            run_variant(plan, sources + [target])
        assert str(excinfo.value) == f"dataset {target.name!r} has no sample {unknown!r}"

    def test_no_test_leakage_into_training_windows(self, suite):
        sources, targets, _ = suite
        target = targets[0]
        plan = suite_plan("vanilla", sources, target)
        train_curves = [target.curve_by_id(sid) for sid in plan.target_train_ids]
        scalers = fit_scalers(train_curves)
        n = plan.config.sequence_length
        windows, _ = window_dataset(train_curves, scalers, n)

        def scaled_params(curve):
            return tuple(float(s.scale(v)) for s, v in zip(scalers.params, curve.param_values()))

        assert len(windows) == sum(c.n_points() - n for c in train_curves)
        window_params = {tuple(w[0, 1:]) for w in windows}
        assert window_params == {scaled_params(c) for c in train_curves}
        test_params = {scaled_params(target.curve_by_id(sid)) for sid in plan.target_test_ids}
        assert window_params.isdisjoint(test_params)


def rescale(dataset, stress=1.0, strain=1.0, params=1.0):
    """The dataset with every stress, strain and process-parameter value multiplied by its factor."""
    curves = [
        dataclasses.replace(c, strain=c.strain * strain, stress=c.stress * stress,
                            params={name: value * params for name, value in c.params.items()})
        for c in dataset.curves
    ]
    return dataclasses.replace(dataset, curves=curves)


@functools.lru_cache(maxsize=None)
def metamorphic_report(suite_seed, variant, target_factor=1.0, source_factor=1.0, drop=None,
                       strain_factor=1.0, param_factor=1.0):
    """``run_variant`` on ``targets[0]`` of a suite (2 epochs, 1 pretrain epoch).

    Stresses are rescaled by the target and source factors, every dataset's
    strains and process parameters by theirs, and source ``drop`` is left out.
    """
    sources, targets, _ = standard_suite(suite_seed)
    every = {"strain": strain_factor, "params": param_factor}
    sources = [rescale(ds, source_factor, **every) for ds in sources if ds.name != drop]
    target = rescale(targets[0], target_factor, **every)
    plan = suite_plan(variant, sources, target, small_config(epochs=2), pretrain_epochs=1)
    return run_variant(plan, sources + [target])


@pytest.mark.parametrize("variant", ["tl_all", "dtw_tl"])
@pytest.mark.parametrize("suite_seed", [0, 1])
class TestUnitChangeMetamorphic:
    """A power-of-two change of stress unit is exact, and each stage's scalers divide it out.

    The target and the sources are rescaled apart: the relations hold only
    because the pretrain fits its scalers on the sources and the finetune
    refits them on the target training split, and the DTW ranking divides
    each curve by its own maximum stress.
    """

    def test_target_stress_times_2_pow_10_scales_only_rmse_and_predictions(self, suite_seed, variant):
        base = metamorphic_report(suite_seed, variant).to_dict()
        scaled = metamorphic_report(suite_seed, variant, target_factor=2.0**10).to_dict()
        assert scaled == with_stress_unit(base, 2.0**10)

    def test_source_stress_times_2_pow_minus_4_changes_nothing(self, suite_seed, variant):
        base = metamorphic_report(suite_seed, variant).to_dict()
        assert metamorphic_report(suite_seed, variant, source_factor=2.0**-4).to_dict() == base


@pytest.mark.parametrize("variant", ["vanilla", "dtw_tl"])
@pytest.mark.parametrize("suite_seed", [0, 1])
class TestEveryDatasetUnitChangeMetamorphic:
    """A power-of-two change of one unit on every dataset at once.

    Min-max scaling and the DTW grid's divide by each curve's maxima take
    the factor out exactly, so only a stage that reads a raw unit, or
    rescales it inexactly, can change a bit.
    """

    def test_stress_times_2_pow_10_scales_only_rmse_and_predictions(self, suite_seed, variant):
        base = metamorphic_report(suite_seed, variant).to_dict()
        scaled = metamorphic_report(suite_seed, variant, target_factor=2.0**10, source_factor=2.0**10)
        assert bits(scaled.to_dict()) == bits(with_stress_unit(base, 2.0**10))

    def test_strain_times_2_pow_minus_3_changes_nothing(self, suite_seed, variant):
        base = metamorphic_report(suite_seed, variant).to_dict()
        assert bits(metamorphic_report(suite_seed, variant, strain_factor=2.0**-3).to_dict()) == bits(base)

    def test_every_parameter_times_4_changes_nothing(self, suite_seed, variant):
        base = metamorphic_report(suite_seed, variant).to_dict()
        assert bits(metamorphic_report(suite_seed, variant, param_factor=4.0).to_dict()) == bits(base)


def bits(doc) -> str:
    """JSON text of ``doc``: equal texts mean equal keys and bitwise-equal floats (``-0.0`` included)."""
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("suite_seed", [0, 1])
class TestLeaveOutSourceMetamorphic:
    """Leaving out a source changes only the entries that name it.

    Each source's mean DTW is summed from its own columns of one sweep, and
    each column is swept on its own, so the other means keep their bits.
    Without the left-out source, dtw_tl selects and pretrains on the same
    source, and every sweep row is the same fit.
    """

    def test_dtw_tl_report_without_an_unselected_source(self, suite_seed):
        full = metamorphic_report(suite_seed, "dtw_tl")
        unselected = [name for name, _ in full.dtw_ranking.entries[1:]]
        assert len(unselected) == 3
        for drop in unselected:
            expected = full.to_dict()
            expected["plan"]["sources"].remove(drop)
            expected["dtw_ranking"]["entries"] = [
                e for e in expected["dtw_ranking"]["entries"] if e["source"] != drop
            ]
            assert bits(metamorphic_report(suite_seed, "dtw_tl", drop=drop).to_dict()) == bits(expected)

    def test_sweep_rows_without_any_one_source(self, suite_seed):
        plan = metamorphic_report(suite_seed, "dtw_tl").plan
        sources, targets, _ = standard_suite(suite_seed)
        datasets = sources + [targets[0]]
        rows, _ = run_source_sweep(plan, datasets)
        for drop in plan.source_datasets:
            fewer = dataclasses.replace(plan, source_datasets=[n for n in plan.source_datasets if n != drop])
            assert bits(run_source_sweep(fewer, datasets)[0]) == bits([row for row in rows if row[0] != drop])


def test_one_source_tl_all_is_the_dtw_tl_run():
    # One dataset's pool is its curves in file order, whichever variant pools it.
    sources, targets, _ = standard_suite(0)
    only = [s for s in sources if s.name == "poly_hardening"]
    reports = [
        run_variant(suite_plan(variant, only, targets[0], small_config(epochs=2), pretrain_epochs=1),
                    only + [targets[0]])
        for variant in ("tl_all", "dtw_tl")
    ]
    assert reports[1].selected_source == "poly_hardening"
    tl_all, dtw_tl = (transfer.Evaluation.to_dict(report) for report in reports)
    assert bits(tl_all) == bits(dtw_tl)


def source_calls(name: str) -> list[str]:
    """``module.function`` of each call of ``name`` in the package's modules, in file order."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.append(f"{module}.{where}")
            visit(child, module, child.name if isinstance(child, ast.FunctionDef) else where)

    for path in sorted(Path(transfer.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return found


def test_every_pretraining_pool_is_built_by_one_helper():
    assert source_calls("concat_shuffle_sources") == ["transfer._pretrain_pool"]
    assert source_calls("_pretrain_pool") == ["cli.cmd_pretrain", "transfer._fit"]
    # The CLI pads only the target curves it hands to a checkpoint, never a pool.
    assert [c for c in source_calls("padded_curves") if c.startswith("cli.")] == ["cli.cmd_finetune", "cli.cmd_evaluate"]
    assert list(inspect.signature(transfer._fit).parameters) == ["plan", "sources", "train_curves", "test_curves"]


def test_every_run_checks_its_dataset_names_once():
    # One name check per CLI command; _prepare maps the given datasets, then checks the plan's resolved names.
    assert source_calls("_dataset_map") == ["cli.cmd_rank", "cli.cmd_pretrain", "transfer._prepare", "transfer._prepare"]
    assert not any("_load_sources" in path.read_text(encoding="utf-8") for path in Path(transfer.__file__).parent.glob("*.py"))
    # Training windows and predict_curve's rows are one sliding view, with no hand-computed strides.
    assert source_calls("as_strided") == []


def test_every_training_stage_runs_one_body():
    # Fresh weights and scalers are made in one place, the stage body both public stages call.
    assert source_calls("init_params") == ["transfer._train_stage"]
    assert source_calls("fit_scalers") == ["transfer._train_stage"]
    assert source_calls("_train_stage") == ["transfer.pretrain", "transfer.finetune"]
    assert list(inspect.signature(transfer._train_stage).parameters) == [
        "stage", "dataset_name", "params", "curves", "config"
    ]


def test_every_min_max_position_is_one_feature_scaler():
    # The LSTM's features, the DOE-corner choice and the synthetic DOE modifier
    # place a value between its column's min and max by one rule.
    assert source_calls("FeatureScaler") == [
        "scaling.from_dict", "scaling._fit", "synthgen.generate_dataset", "transfer.select_extreme_training_samples",
    ]


def test_both_forward_loops_share_one_cell_step_and_output_layer():
    # train's per-window forward and predict_series' batched one run one cell
    # update; the batch-1 forward and backward read one output expression.
    assert source_calls("_sigmoid") == ["seqnet._cell_step"]
    assert source_calls("_cell_step") == ["seqnet._forward_into", "seqnet.predict_series"]
    assert source_calls("_output_layer") == ["seqnet._forward_into", "seqnet.backward"]


def test_sweep_entry_of_selected_source_is_the_dtw_tl_run():
    report = metamorphic_report(0, "dtw_tl")
    sources, targets, _ = standard_suite(0)
    entries, _ = run_source_sweep(report.plan, sources + [targets[0]])
    assert [name for name, _, _ in entries] == report.plan.source_datasets
    assert sorted(((name, d) for name, d, _ in entries), key=lambda e: (e[1], e[0])) == report.dtw_ranking.entries
    assert {name: mape for name, _, mape in entries}[report.selected_source] == report.aggregate_mape


class TestCheckpointErrors:
    def test_non_finite_weight_raises_before_writing(self, tmp_path):
        ds = small_source()
        ckpt = pretrain(ds.curves, small_config(), ds.name)
        ckpt.params.W_fh[0, 0] = float("nan")
        path = tmp_path / "out" / "ckpt.json"
        with pytest.raises(ValueError, match="non-finite weight"):
            save_checkpoint(ckpt, path)
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataValidationError, match="invalid JSON"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        ds = small_source()
        doc = pretrain(ds.curves, small_config(), ds.name).to_dict()
        doc["format_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataValidationError, match="format_version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("sequence_length", 0, ">= 1"),
            ("sequence_length", -3, ">= 1"),
            ("sequence_length", True, "integer"),
            ("sequence_length", 2.7, "integer"),
            ("sequence_length", "5", "integer"),
            ("input_dim", 2.0, "integer"),
            ("hidden_dim", "32", "integer"),
            ("hidden_dim", 0, ">= 1"),
            ("hidden_dim", -1, ">= 1"),
            ("seed", None, "integer"),
            ("scaler_min", "NaN", "finite number"),
            ("scaler_min", float("inf"), "finite number"),
            ("scaler_max", False, "finite number"),
            ("scaler_arity", None, "parameter scalers"),
            ("format_version", 1, "format_version"),
            ("format_version", True, "format_version"),
            ("format_version", 2.0, "format_version"),
            ("provenance", "junk", "malformed"),
        ],
    )
    def test_tampered_fields(self, tmp_path, field, value, match):
        ds = small_source()
        doc = pretrain(ds.curves, small_config(), ds.name).to_dict()
        param_scalers = doc["feature_scalers"]["params"]
        if field == "scaler_min":
            param_scalers[0]["min"] = value
        elif field == "scaler_max":
            param_scalers[0]["max"] = value
        elif field == "scaler_arity":  # one scaler more than input_dim - 1
            param_scalers.append(dict(param_scalers[0]))
        else:
            doc[field] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataValidationError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "tamper, match",
        [
            ("missing", "weights"),
            ("list", "base64 string"),
            ("bad_base64", "invalid base64"),
            ("non_ascii", "invalid base64"),
            ("one_byte_short", "whole number of float64"),
            ("one_value_short", "expected float64 shape"),
            ("one_value_long", "expected float64 shape"),
            ("nan", "non-finite"),
            ("inf", "non-finite"),
        ],
    )
    def test_bad_weight_block(self, tmp_path, tamper, match):
        ds = small_source()
        doc = pretrain(ds.curves, small_config(), ds.name).to_dict()
        raw = base64.b64decode(doc["weights"])
        flat = np.frombuffer(raw, dtype="<f8").copy()
        if tamper == "missing":
            del doc["weights"]
        elif tamper == "list":
            doc["weights"] = flat.tolist()
        elif tamper == "bad_base64":  # a lax decoder would skip the "!" and read the right bytes
            doc["weights"] = doc["weights"][:4] + "!" + doc["weights"][4:]
        elif tamper == "non_ascii":
            doc["weights"] = "\u00e9" + doc["weights"][1:]
        elif tamper == "one_byte_short":
            doc["weights"] = base64.b64encode(raw[:-1]).decode("ascii")
        elif tamper == "one_value_short":
            doc["weights"] = base64.b64encode(raw[:-8]).decode("ascii")
        elif tamper == "one_value_long":
            doc["weights"] = base64.b64encode(raw + raw[:8]).decode("ascii")
        else:
            flat[7] = float(tamper)
            doc["weights"] = base64.b64encode(flat.tobytes()).decode("ascii")
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataValidationError, match="malformed checkpoint") as info:
            load_checkpoint(path)
        assert info.match(match)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(DataValidationError, match="invalid JSON"):
            load_checkpoint(path)


class TestPlanValidation:
    def test_unknown_variant(self):
        with pytest.raises(DataValidationError, match="variant"):
            ExperimentPlan(
                variant="tl_some", source_datasets=["a"], target_dataset="t",
                target_train_ids=["1"], target_test_ids=["2"], config=small_config(),
            )

    def test_tl_variant_needs_sources(self):
        with pytest.raises(DataValidationError, match="requires source"):
            ExperimentPlan(
                variant="dtw_tl", source_datasets=[], target_dataset="t",
                target_train_ids=["1"], target_test_ids=["2"], config=small_config(),
            )

    @pytest.mark.parametrize("train_ids, test_ids", [(["1", "1", "9"], ["2"]), (["1"], ["2", "3", "2"])])
    def test_duplicate_ids_rejected(self, train_ids, test_ids):
        with pytest.raises(DataValidationError, match="duplicates"):
            ExperimentPlan(
                variant="vanilla", source_datasets=[], target_dataset="t",
                target_train_ids=train_ids, target_test_ids=test_ids, config=small_config(),
            )

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf"), True, "1e-6"])
    def test_bad_mape_epsilon_rejected(self, epsilon):
        with pytest.raises(DataValidationError, match="mape_epsilon"):
            ExperimentPlan(
                variant="vanilla", source_datasets=[], target_dataset="t",
                target_train_ids=["1"], target_test_ids=["2"], config=small_config(),
                mape_epsilon=epsilon,
            )

    @pytest.mark.parametrize("grid_n", [1, 0, -1, 2.5, "7", True])
    def test_bad_grid_n_rejected(self, grid_n):
        with pytest.raises(DataValidationError, match="grid_n must be >= 2"):
            ExperimentPlan(
                variant="vanilla", source_datasets=[], target_dataset="t",
                target_train_ids=["1"], target_test_ids=["2"], config=small_config(),
                grid_n=grid_n,
            )

    @pytest.mark.parametrize("epochs", [0, -3, True, 2.5, "4"])
    def test_bad_pretrain_epochs_rejected(self, epochs):
        with pytest.raises(DataValidationError, match="pretrain_epochs"):
            ExperimentPlan(
                variant="vanilla", source_datasets=[], target_dataset="t",
                target_train_ids=["1"], target_test_ids=["2"], config=small_config(),
                pretrain_epochs=epochs,
            )

    def test_plan_echo_includes_config(self):
        plan = ExperimentPlan(
            variant="vanilla", source_datasets=[], target_dataset="t",
            target_train_ids=["1"], target_test_ids=["2"],
            config=small_config(epochs=9, learning_rate=0.5),
            pretrain_epochs=4,
        )
        doc = plan.to_dict()
        assert doc["train_config"]["epochs"] == 9
        assert doc["train_config"]["learning_rate"] == 0.5
        assert doc["pretrain_epochs"] == 4


class TestSchemaMismatch:
    def make_pair(self, n_source_params=2, n_target_params=3):
        src_curves = [
            linear_curve(sample_id=str(i), n=12,
                         params={f"s{j}": float(i + j) for j in range(n_source_params)})
            for i in range(3)
        ]
        src = Dataset("src", "source", [ParamField(f"s{j}") for j in range(n_source_params)], src_curves)
        tgt_curves = [
            linear_curve(sample_id=str(i), n=12,
                         params={f"t{j}": float(i * j + 1) for j in range(n_target_params)})
            for i in range(3)
        ]
        tgt = Dataset("tgt", "target", [ParamField(f"t{j}") for j in range(n_target_params)], tgt_curves)
        return src, tgt

    def test_unequal_arity_rejected_without_padding(self):
        src, tgt = self.make_pair()
        plan = ExperimentPlan(
            variant="tl_all", source_datasets=["src"], target_dataset="tgt",
            target_train_ids=["0", "1"], target_test_ids=["2"],
            config=small_config(),
        )
        with pytest.raises(DataValidationError, match="pad_params"):
            run_variant(plan, [src, tgt])

    def test_padding_allows_unequal_arity(self):
        src, tgt = self.make_pair()
        plan = ExperimentPlan(
            variant="tl_all", source_datasets=["src"], target_dataset="tgt",
            target_train_ids=["0", "1"], target_test_ids=["2"],
            config=small_config(), pad_params=True,
        )
        report = run_variant(plan, [src, tgt])
        assert len(report.per_sample) == 1

    @pytest.mark.parametrize("variant", ["tl_all", "dtw_tl"])
    def test_padding_equals_an_explicit_zero_column(self, variant):
        # A one-parameter target and source, padded, run bit for bit as the same
        # datasets with their second column written out as param_1 = 0.0. tl_all
        # pools that source with a two-parameter one, so the pad value shows.
        def short_and_explicit(name, role, first, curves):
            explicit = [dataclasses.replace(c, params={**c.params, "param_1": 0.0}) for c in curves]
            return (Dataset(name, role, [ParamField(first)], curves),
                    Dataset(name, role, [ParamField(first), ParamField("param_1")], explicit))

        src, _ = self.make_pair()
        src2 = short_and_explicit("src2", "source", "s0", [
            dataclasses.replace(c, stress=c.stress * 0.5, params={"s0": c.params["s0"]}) for c in src.curves
        ])
        tgt = short_and_explicit("tgt", "target", "t0", [
            linear_curve(sample_id=str(i), n=12, slope=900.0 + 50 * i, params={"t0": float(i + 1)})
            for i in range(3)
        ])
        docs = []
        for form in (0, 1):
            plan = ExperimentPlan(
                variant=variant, source_datasets=["src", "src2"], target_dataset="tgt",
                target_train_ids=["0", "1"], target_test_ids=["2"],
                config=small_config(), pad_params=True,
            )
            docs.append(json.dumps(run_variant(plan, [src, src2[form], tgt[form]]).to_dict(), sort_keys=True))
        assert docs[0] == docs[1]


class TestPaddedCurves:
    def curve(self, params, sample_id="a"):
        return RawCurve(sample_id, np.array([0.0, 1.0]), np.array([0.0, 2.0]), params)

    def test_curves_of_the_arity_come_back_as_given(self):
        curves = [self.curve({"x": 1.0, "y": 2.0}), self.curve({"u": 3.0, "v": 4.0}, "b")]
        assert padded_curves(curves, 2, pad=True) is curves
        assert padded_curves(curves, 2, pad=False) is curves

    def test_shorter_curve_gets_zero_columns_named_by_position(self):
        curves = [self.curve({"x": 1.0}), self.curve({"u": 3.0, "v": 4.0}, "b")]
        padded = padded_curves(curves, 3, pad=True)
        assert [c.params for c in padded] == [{"x": 1.0, "param_1": 0.0, "param_2": 0.0},
                                              {"u": 3.0, "v": 4.0, "param_2": 0.0}]
        assert [c.sample_id for c in padded] == ["a", "b"]
        assert curves[0].params == {"x": 1.0}
        assert [s.name for s in fit_scalers(padded).params] == ["x", "param_1", "param_2"]

    @pytest.mark.parametrize("params, arity, pad, message", [
        ({"x": 1.0}, 2, False, "sample 'a' has 1 parameters, expected 2 (padding disabled)"),
        ({"x": 1.0, "y": 2.0, "z": 3.0}, 2, True, "sample 'a' has 3 parameters, expected 2"),
        ({"x": 1.0, "y": 2.0, "z": 3.0}, 2, False, "sample 'a' has 3 parameters, expected 2 (padding disabled)"),
        ({"param_1": 5.0}, 2, True, "sample 'a': parameter 'param_1' is named like a padded position"),
        ({"param_2": 5.0, "y": 1.0}, 3, True, "sample 'a': parameter 'param_2' is named like a padded position"),
    ])
    def test_rejected(self, params, arity, pad, message):
        with pytest.raises(DataValidationError) as raised:
            padded_curves([self.curve(params)], arity, pad=pad)
        assert str(raised.value).startswith(message)

    def test_fit_scalers_rejects_mixed_arity(self):
        curves = [self.curve({"x": 1.0}), self.curve({"u": 3.0, "v": 4.0}, "b")]
        with pytest.raises(DataValidationError, match=r"^sample 'a' has 1 parameters, expected 2 \(padding disabled\)$"):
            fit_scalers(curves)


# Each stage takes curves of one arity; padding is the one data step before them.
ONE_ARITY_STAGES = [
    transfer.pretrain, transfer.finetune, transfer._train_stage, transfer.window_dataset,
    transfer._curve_windows, transfer._curve_features, transfer.predict_curve, transfer.evaluate,
    transfer._fit, fit_scalers,
]


@pytest.mark.parametrize("stage", ONE_ARITY_STAGES, ids=lambda f: f.__name__)
def test_stage_takes_no_arity_or_padding_argument(stage):
    assert not {"pad", "param_arity", "arity"} & set(inspect.signature(stage).parameters)
