"""Synthetic curve families: determinism, shapes, and suite structure."""

import numpy as np
import pytest

from curvetransfer.curves import load_dataset, save_dataset, validate_curve, grid_curve
from curvetransfer.errors import DataValidationError
from curvetransfer.similarity import rank_sources
from curvetransfer.synthgen import FamilySpec, generate_dataset, standard_suite
from curvetransfer.transfer import select_extreme_training_samples

from conftest import average_dtw


def brittle_spec(**kw):
    defaults = dict(family="brittle", base_modulus=6000.0, yield_strain=0.01,
                    ultimate_stress=75.0, failure_strain=0.0125, points_per_curve=20)
    defaults.update(kw)
    return FamilySpec(**defaults)


SMALL_DOE = {"speed": [10.0, 30.0, 50.0], "temp": [220.0, 240.0, 260.0]}


class TestFamilySpec:
    def test_yield_must_precede_failure(self):
        with pytest.raises(DataValidationError, match="yield_strain"):
            brittle_spec(yield_strain=0.02, failure_strain=0.01)

    def test_plateau_needs_headroom_above_yield(self):
        with pytest.raises(DataValidationError, match="exceed"):
            FamilySpec(family="plateau", base_modulus=2000.0, yield_strain=0.02,
                       ultimate_stress=30.0, failure_strain=0.1)  # yield stress 40 > 30

    def test_yield_drop_plateau_below_peak(self):
        with pytest.raises(DataValidationError, match="below"):
            FamilySpec(family="yield_drop", base_modulus=2000.0, yield_strain=0.02,
                       ultimate_stress=50.0, failure_strain=0.1)  # yield stress 40 < 50

    def test_unknown_family(self):
        with pytest.raises(DataValidationError, match="family"):
            brittle_spec(family="rubbery")


class TestGenerateDataset:
    def test_noiseless_brittle_exactly_linear(self):
        spec = brittle_spec(noise_sd=0.0)
        ds = generate_dataset(spec, {"speed": [10.0]}, seed=0)
        curve = ds.curves[0]
        np.testing.assert_allclose(curve.stress, spec.base_modulus * curve.strain, rtol=1e-12)

    def test_deterministic(self):
        spec = brittle_spec(noise_sd=0.5, param_sensitivity={"speed": 0.1})
        a = generate_dataset(spec, SMALL_DOE, seed=7)
        b = generate_dataset(spec, SMALL_DOE, seed=7)
        for ca, cb in zip(a.curves, b.curves):
            np.testing.assert_array_equal(ca.stress, cb.stress)
            np.testing.assert_array_equal(ca.strain, cb.strain)

    def test_seeds_differ(self):
        spec = brittle_spec(noise_sd=0.5)
        a = generate_dataset(spec, SMALL_DOE, seed=1)
        b = generate_dataset(spec, SMALL_DOE, seed=2)
        assert not np.array_equal(a.curves[0].stress, b.curves[0].stress)

    def test_five_by_five_doe_gives_25_curves(self):
        doe = {"speed": [10.0, 20.0, 30.0, 40.0, 50.0],
               "temp": [220.0, 230.0, 240.0, 250.0, 260.0]}
        ds = generate_dataset(brittle_spec(), doe, seed=0)
        assert len(ds.curves) == 25
        assert ds.curves[0].params == {"speed": 10.0, "temp": 220.0}
        assert ds.curves[-1].params == {"speed": 50.0, "temp": 260.0}

    def test_curves_pass_validation_unmodified(self):
        spec = FamilySpec(family="plateau", base_modulus=2000.0, yield_strain=0.018,
                          ultimate_stress=48.0, failure_strain=0.1,
                          param_sensitivity={"speed": 0.1, "temp": 0.1},
                          noise_sd=0.2, points_per_curve=40)
        ds = generate_dataset(spec, SMALL_DOE, seed=3)
        for curve in ds.curves:
            cleaned = validate_curve(curve)
            np.testing.assert_array_equal(cleaned.strain, curve.strain)
            np.testing.assert_array_equal(cleaned.stress, curve.stress)

    def test_doe_points_produce_distinct_curves(self):
        spec = brittle_spec(noise_sd=0.0, param_sensitivity={"speed": 0.2, "temp": 0.1})
        ds = generate_dataset(spec, SMALL_DOE, seed=0)
        maxima = {float(np.max(c.stress)) for c in ds.curves}
        assert len(maxima) > 1


@pytest.fixture(scope="module")
def suite():
    return standard_suite(11)


class TestStandardSuite:
    def test_layout(self, suite):
        sources, targets, gt = suite
        assert len(sources) == 4 and len(targets) == 3
        assert all(ds.role == "source" for ds in sources)
        assert all(ds.role == "target" for ds in targets)
        assert set(gt.keys()) == {ds.name for ds in targets}
        assert set(gt.values()) <= {ds.name for ds in sources}

    def test_each_target_maps_to_one_source(self, suite):
        _, _, gt = suite
        assert len(set(gt.values())) == len(gt)

    def test_target_stress_scale_is_tenfold(self, suite):
        sources, targets, gt = suite
        by_name = {ds.name: ds for ds in sources}
        for tgt in targets:
            src = by_name[gt[tgt.name]]
            t_max = np.mean([np.max(c.stress) for c in tgt.curves])
            s_max = np.mean([np.max(c.stress) for c in src.curves])
            assert 8.0 < t_max / s_max < 12.0

    def test_rank_sources_recovers_ground_truth(self, suite):
        sources, targets, gt = suite
        for tgt in targets:
            lo, hi = select_extreme_training_samples(tgt)
            train_curves = [tgt.curve_by_id(lo), tgt.curve_by_id(hi)]
            ranking = rank_sources(sources, train_curves, 120)
            assert ranking.selected == gt[tgt.name]

    def test_same_family_dtw_below_cross_family(self, suite):
        sources, targets, gt = suite
        by_name = {ds.name: ds for ds in sources}
        for tgt in targets:
            target_grids = [grid_curve(c, 120) for c in tgt.curves]
            matched = by_name[gt[tgt.name]]
            matched_avg = average_dtw([grid_curve(c, 120) for c in matched.curves], target_grids)
            for src in sources:
                if src.name == matched.name:
                    continue
                other_avg = average_dtw([grid_curve(c, 120) for c in src.curves], target_grids)
                assert matched_avg < other_avg

    def test_manifest_round_trip(self, suite, tmp_path):
        sources, _, _ = suite
        manifest = save_dataset(sources[0], tmp_path / sources[0].name)
        loaded = load_dataset(manifest)
        assert loaded.name == sources[0].name
        assert loaded.sample_ids() == sources[0].sample_ids()
        for a, b in zip(loaded.curves, sources[0].curves):
            np.testing.assert_allclose(a.stress, b.stress, rtol=0, atol=0)
            assert a.params == b.params
