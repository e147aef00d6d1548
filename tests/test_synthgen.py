"""Synthetic curve families: determinism, shapes, and suite structure."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvetransfer import synthgen
from curvetransfer.curves import load_dataset, save_dataset, validate_curve, grid_curve
from curvetransfer.errors import DataValidationError
from curvetransfer.similarity import rank_sources
from curvetransfer.synthgen import FAMILIES, FamilySpec, generate_dataset, standard_suite
from curvetransfer.transfer import select_extreme_training_samples

from conftest import average_dtw, reference_generate_dataset


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

    def test_overflowing_doe_span_refused(self):
        # Over a span of inf the DOE modifier, and so every stress, would be NaN.
        with pytest.raises(DataValidationError) as excinfo:
            generate_dataset(brittle_spec(param_sensitivity={"speed": 0.2}), {"speed": [-1.7e308, 1.7e308]}, seed=0)
        assert str(excinfo.value) == "feature 'speed': non-finite span of [-1.7e+308, 1.7e+308]"

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


def assert_datasets_bitwise_equal(got, want):
    assert (got.name, got.role, got.param_schema) == (want.name, want.role, want.param_schema)
    assert len(got.curves) == len(want.curves)
    for a, b in zip(got.curves, want.curves):
        assert a.sample_id == b.sample_id
        assert list(a.params.items()) == list(b.params.items())
        for x, y in ((a.strain, b.strain), (a.stress, b.stress)):
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()


@st.composite
def specs_and_does(draw):
    """A valid FamilySpec of any family with a 1-3 parameter DOE of 1-5 levels each."""
    family = draw(st.sampled_from(FAMILIES))
    base_modulus = draw(st.floats(100.0, 50000.0))
    yield_strain = draw(st.floats(0.001, 0.05))
    failure_strain = yield_strain * draw(st.floats(1.05, 30.0))
    if family in ("plateau", "hardening"):
        ratio = draw(st.floats(1.05, 3.0))
    else:
        ratio = draw(st.floats(0.1, 0.95))
    names = [f"p{k}" for k in range(draw(st.integers(1, 3)))]
    doe = {name: draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5)) for name in names}
    # Some parameters have no sensitivity entry; large ones reach the modifier clip.
    sensitivity = {name: draw(st.floats(-1.5, 1.5)) for name in names if draw(st.booleans())}
    spec = FamilySpec(
        family=family, base_modulus=base_modulus, yield_strain=yield_strain,
        ultimate_stress=ratio * base_modulus * yield_strain, failure_strain=failure_strain,
        param_sensitivity=sensitivity,
        noise_sd=draw(st.just(0.0) | st.floats(0.01, 5.0)),
        points_per_curve=draw(st.integers(2, 80)),
    )
    return spec, doe, draw(st.integers(0, 2**32 - 1))


class TestBlockGenerationMatchesPerCurveOracle:
    @settings(max_examples=200, deadline=None)
    @given(specs_and_does())
    def test_random_specs_bitwise(self, case):
        spec, doe, seed = case
        assert_datasets_bitwise_equal(
            generate_dataset(spec, doe, seed, name="x", role="target"),
            reference_generate_dataset(spec, doe, seed, name="x", role="target"),
        )

    def test_standard_suites_bitwise(self, monkeypatch):
        got = [standard_suite(seed) for seed in range(64)]
        monkeypatch.setattr(synthgen, "generate_dataset", reference_generate_dataset)
        for seed, (sources, targets, gt) in enumerate(got):
            ref_sources, ref_targets, ref_gt = standard_suite(seed)
            assert gt == ref_gt
            for ds, ref in zip(sources + targets, ref_sources + ref_targets, strict=True):
                assert_datasets_bitwise_equal(ds, ref)


def suite_digest(seed):
    """sha256 over every curve of ``standard_suite(seed)``: id, params, strain bytes, stress bytes."""
    sources, targets, _ = standard_suite(seed)
    h = hashlib.sha256()
    for ds in sources + targets:
        for curve in ds.curves:
            h.update(repr((curve.sample_id, list(curve.params.items()))).encode())
            h.update(curve.strain.tobytes())
            h.update(curve.stress.tobytes())
    return h.hexdigest()


# Recorded from the per-curve generator, for the suite seeds the benchmark
# workloads run (perfbench's SUITE_SEEDS = 16), so a drift in the generated
# data fails here and not only in the goldens downstream.
SUITE_DIGESTS = [
    "60fbb94701ac891e953ba23c44af63b1c48875c3089c3f458301489b35bca666",
    "ee0fcde99357f8929207cbc5ce7b368aa52203b213f578d080115a325058ccae",
    "b75724b13be9d1e45323795b98da6fc7c8216823dc628f049c90e226f4cf8e0e",
    "a172460ae516534f81a1e8b7c1c2d8df8f9c84b7da3e1af92476f90b0188b80b",
    "60930ef630606a3a132fbd94d8dd022639dfec3f886dd42072790bc7c5632549",
    "9dbec9f489e1fb647b058a829d9b00f13f36c3eda93536f15366d8d127581261",
    "3bac452bc7e2d3db5229d20b07d715ce77ac88435d57438b43614cb895695d0e",
    "b070ad703874fc7293976ec5bff14fb0b1fbb2b483ecd4320c40cc18bf21dabb",
    "12ec12b330a85ae587ca42868b8773d490435b535a65fe8a72d9abb0905baad2",
    "456beff94b62d6a665225959ad2b311cc893a18a5a1c61f4a09422f04cfec53d",
    "b590b30cea3da031348ca159f2c214f31ab94f17f644b375f5821121929970a5",
    "364f1a4b6532234d27bbf601ab2e60e75da2aa69789e47556bfe14adc45d6a11",
    "29d23525597a2f0aac96f9b57df59db5abe0247bcbf871df94ea2e73994daf7a",
    "3744007fd8b79353a7f3d2a58f3b902e42d79dbf8b0bdeb98d2f3e8677238f46",
    "a5e5e4aebb2b29f936c5f40f08bcb2088b9d5abcd1ef2a3d9a78348544cd2cba",
    "5b975e58ba6d785bf82504fd0027774a7dbe21f6f13ee3ce6b5b1fc572ad740e",
]


@pytest.mark.parametrize("seed", range(len(SUITE_DIGESTS)))
def test_standard_suite_digest(seed):
    assert suite_digest(seed) == SUITE_DIGESTS[seed]
