"""Curve validation, gridding, and manifest ingestion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvetransfer.curves import (
    Dataset,
    ParamField,
    RawCurve,
    grid_curve,
    grid_curves,
    load_dataset,
    save_dataset,
    validate_curve,
)
from curvetransfer.errors import DataValidationError
from curvetransfer.similarity import rank_sources

from conftest import composition, normalize_curve, write_curve_csv, write_manifest


# Table B.3-style DOE: 18 carbon-steel samples, 2 build angles x 3 nozzle
# angles x 3 repeats.
CARBON_STEEL_DOE = [
    (str(i + 1), ba, na)
    for i, (ba, na) in enumerate(
        (ba, na) for ba in (0.0, 45.0) for na in (0.0, 22.5, 45.0) for _ in range(3)
    )
]


def merge_oracle(strain, stress):
    """Sort, merge and clamp as validate_curve did when every curve went through np.unique."""
    order = np.argsort(strain, kind="stable")
    strain, stress = strain[order], stress[order]
    uniq, inverse, counts = np.unique(strain, return_inverse=True, return_counts=True)
    if len(uniq) != len(strain):
        strain, stress = uniq, np.bincount(inverse, weights=stress) / counts
    return strain, np.maximum(stress, 0.0)


@st.composite
def curves_with_repeated_strains(draw):
    """Unsorted strains from a few levels, so most draws repeat some, with signed zeros."""
    size = draw(st.integers(2, 40))
    levels = st.sampled_from([-0.0, 0.0, 0.01, 0.02, 0.025, 0.1])
    strain = np.array(draw(st.lists(levels, min_size=size, max_size=size)))
    stress = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    return strain, stress


class TestValidateCurve:
    @settings(max_examples=200, deadline=None)
    @given(curves_with_repeated_strains())
    def test_merge_matches_unique_oracle_bitwise(self, arrays):
        strain, stress = arrays
        expected_strain, expected_stress = merge_oracle(strain, stress)
        if len(expected_strain) < 2:
            with pytest.raises(DataValidationError, match="fewer than 2 distinct"):
                validate_curve(RawCurve("s", strain, stress))
            return
        cleaned = validate_curve(RawCurve("s", strain, stress))
        assert cleaned.strain.tobytes() == expected_strain.tobytes()
        assert cleaned.stress.tobytes() == expected_stress.tobytes()

    def test_duplicate_strains_merged_by_averaging(self):
        curve = RawCurve("s", np.array([0.0, 0.01, 0.01, 0.02]), np.array([0.0, 10.0, 12.0, 20.0]))
        cleaned = validate_curve(curve)
        np.testing.assert_allclose(cleaned.strain, [0.0, 0.01, 0.02])
        np.testing.assert_allclose(cleaned.stress, [0.0, 11.0, 20.0])

    def test_negative_stress_clamped_to_zero(self):
        curve = RawCurve("s", np.array([0.0, 0.01]), np.array([-0.3, 5.0]))
        cleaned = validate_curve(curve)
        assert cleaned.stress[0] == 0.0
        assert cleaned.stress[1] == 5.0

    def test_single_point_rejected(self):
        with pytest.raises(DataValidationError, match="at least 2"):
            validate_curve(RawCurve("s", np.array([0.0]), np.array([0.0])))

    def test_all_duplicate_strains_rejected(self):
        curve = RawCurve("s", np.array([0.01, 0.01, 0.01]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DataValidationError, match="fewer than 2 distinct"):
            validate_curve(curve)

    def test_non_finite_rejected(self):
        with pytest.raises(DataValidationError, match="non-finite"):
            validate_curve(RawCurve("s", np.array([0.0, np.nan]), np.array([0.0, 1.0])))

    def test_unsorted_input_sorted(self):
        curve = RawCurve("s", np.array([0.02, 0.0, 0.01]), np.array([20.0, 0.0, 10.0]))
        cleaned = validate_curve(curve)
        np.testing.assert_allclose(cleaned.strain, [0.0, 0.01, 0.02])
        np.testing.assert_allclose(cleaned.stress, [0.0, 10.0, 20.0])


class TestNormalizeCurve:
    def test_divides_by_maxima(self):
        curve = RawCurve("s", np.array([0.0, 0.02, 0.04]), np.array([0.0, 200.0, 400.0]))
        strain_n, stress_n = normalize_curve(curve)
        np.testing.assert_allclose(strain_n, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(stress_n, [0.0, 0.5, 1.0])

    def test_nonzero_start(self):
        curve = RawCurve("s", np.array([0.01, 0.03]), np.array([5.0, 10.0]))
        strain_n, stress_n = normalize_curve(curve)
        np.testing.assert_allclose(strain_n, [1.0 / 3.0, 1.0])
        np.testing.assert_allclose(stress_n, [0.5, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            strain = np.sort(rng.random(12)) + 0.01
            stress = rng.random(12) * 300 + 1.0
            curve = validate_curve(RawCurve("s", strain, stress))
            s1, q1 = normalize_curve(curve)
            s2, q2 = normalize_curve(RawCurve("s", s1, q1))
            np.testing.assert_allclose(s2, s1, atol=1e-15)
            np.testing.assert_allclose(q2, q1, atol=1e-15)
            assert s1.max() == 1.0 and q1.max() == 1.0

    def test_flat_curve_rejected(self):
        curve = RawCurve("s", np.array([0.0, 0.01]), np.array([0.0, 0.0]))
        with pytest.raises(DataValidationError, match="max stress"):
            normalize_curve(curve)


def _interp_reference(x, xs, ys):
    # Independent pointwise linear interpolation with constant extension.
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            w = (x - xs[i]) / (xs[i + 1] - xs[i])
            return ys[i] * (1 - w) + ys[i + 1] * w
    raise AssertionError("unreachable")


def resampled(xs, ys, n):
    """grid_curves on a curve whose strain and stress maxima are 1, so the divide leaves it as it is."""
    return grid_curves([RawCurve("s", np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))], n)[0]


class TestResampleToGrid:
    """Resampling as it shows through grid_curves."""

    def test_linear_segment(self):
        gc = resampled(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 3)
        assert gc.shape == (3,)
        np.testing.assert_allclose(gc, [0.0, 0.5, 1.0])

    def test_constant_left_extension(self):
        gc = resampled(np.array([0.2, 1.0]), np.array([0.1, 1.0]), 120)
        below = np.linspace(0.0, 1.0, 120) < 0.2
        assert below.sum() > 0
        np.testing.assert_allclose(gc[below], 0.1)
        assert gc[-1] == 1.0

    def test_piecewise_interpolation_matches_reference(self):
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.array([0.0, 1.0, 1.0])
        gc = resampled(xs, ys, 5)
        # grid point 0.25 lies mid-segment: hand value 0.5
        assert abs(gc[1] - 0.5) < 1e-15
        for g, v in zip(np.linspace(0.0, 1.0, 5), gc):
            assert abs(v - _interp_reference(g, xs, ys)) < 1e-12

    def test_random_curves_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.integers(2, 9)
            xs = np.sort(rng.random(k))
            xs[-1] = 1.0
            xs = np.unique(xs)
            ys = rng.random(len(xs))
            ys /= ys.max()
            gc = resampled(xs, ys, 37)
            for g, v in zip(np.linspace(0.0, 1.0, 37), gc):
                assert abs(v - _interp_reference(g, xs, ys)) < 1e-12

    def test_grid_invariants(self):
        gc = resampled(np.array([0.0, 1.0]), np.array([0.3, 1.0]), 120)
        grid = np.linspace(0.0, 1.0, 120)
        assert len(gc) == 120
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)
        assert np.all((gc >= 0) & (gc <= 1 + 1e-12))

    def test_exact_at_coincident_points(self):
        xs = np.linspace(0.0, 1.0, 11)  # every xs lands on the 11-point grid
        ys = np.sin(xs * 3) ** 2
        ys /= ys.max()
        gc = resampled(xs, ys, 11)
        np.testing.assert_allclose(gc, ys, atol=1e-12)

    def test_round_trip_on_grid(self):
        grid = np.linspace(0.0, 1.0, 50)
        values = np.clip(np.cumsum(np.random.default_rng(3).random(50)) / 30.0, 0, 1)
        values /= values.max()
        gc = resampled(grid, values, 50)
        np.testing.assert_allclose(gc, values, atol=1e-12)

    def test_too_few_grid_points(self):
        with pytest.raises(DataValidationError, match=">= 2"):
            resampled(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1)


class TestLoadDataset:
    def test_happy_path(self, simple_manifest):
        ds = load_dataset(simple_manifest)
        assert len(ds.curves) == 2
        assert ds.sample_ids() == ["1", "2"]
        assert ds.curves[0].params == {"speed": 10.0}

    def test_schema_mismatch(self, tmp_path):
        path = write_manifest(
            tmp_path,
            samples={"1": ([0.0, 0.01], [0.0, 1.0], {"speed": 1.0, "laser_power": 200.0})},
        )
        with pytest.raises(DataValidationError, match="laser_power"):
            load_dataset(path)

    def test_missing_parameter(self, tmp_path):
        path = write_manifest(tmp_path, samples={"1": ([0.0, 0.01], [0.0, 1.0], {})})
        with pytest.raises(DataValidationError, match="missing parameters"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "value", ["NaN", float("nan"), float("inf"), float("-inf"), "abc", None, True, pytest.param(10**400, id="int-beyond-float")]
    )
    def test_bad_parameter_value(self, tmp_path, value):
        path = write_manifest(tmp_path, samples={"1": ([0.0, 0.01], [0.0, 1.0], {"speed": value})})
        with pytest.raises(DataValidationError, match="speed"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "where, value",
        [(where, value)
         for where in ("name", "role", "sample id", "param_schema name", "param_schema unit")
         for value in (["x"], None, 1, True)]
        + [("name", ""), ("role", ""), ("sample id", "")],
    )
    def test_bad_text_field(self, tmp_path, where, value):
        path = write_manifest(tmp_path)
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if where == "sample id":
            manifest["samples"][0]["id"] = value
        elif where.startswith("param_schema"):
            manifest["param_schema"][0][where.split()[1]] = value
        else:
            manifest[where] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DataValidationError, match=where):
            load_dataset(path)

    def test_missing_curve_file(self, tmp_path):
        path = write_manifest(tmp_path)
        (tmp_path / "1.csv").unlink()
        with pytest.raises(DataValidationError, match="1.csv"):
            load_dataset(path)

    def test_malformed_row(self, tmp_path):
        path = write_manifest(tmp_path)
        (tmp_path / "1.csv").write_text("strain,stress\n0.0,abc\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="malformed"):
            load_dataset(path)

    def test_wrong_header(self, tmp_path):
        path = write_manifest(tmp_path)
        (tmp_path / "1.csv").write_text("eps,sigma\n0.0,0.0\n0.1,1.0\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="header"):
            load_dataset(path)

    def test_duplicate_sample_id(self, tmp_path):
        write_curve_csv(tmp_path / "a.csv", [0.0, 0.01], [0.0, 1.0])
        manifest = {
            "name": "dup",
            "role": "target",
            "param_schema": [],
            "samples": [
                {"id": "1", "file": "a.csv", "params": {}},
                {"id": "1", "file": "a.csv", "params": {}},
            ],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DataValidationError, match="duplicate sample_id"):
            load_dataset(path)

    def test_carbon_steel_doe_shape(self, tmp_path):
        samples = {}
        rng = np.random.default_rng(0)
        for sid, build_angle, nozzle_angle in CARBON_STEEL_DOE:
            strain = np.linspace(0.0, 0.2, 25)
            stress = 3000.0 * strain + rng.random(25)
            samples[sid] = (
                strain.tolist(),
                stress.tolist(),
                {"build_angle": build_angle, "nozzle_angle": nozzle_angle},
            )
        path = write_manifest(
            tmp_path,
            name="carbon_steel",
            role="target",
            schema=[{"name": "build_angle", "unit": "deg"}, {"name": "nozzle_angle", "unit": "deg"}],
            samples=samples,
        )
        ds = load_dataset(path)
        assert len(ds.curves) == 18
        assert [p.name for p in ds.param_schema] == ["build_angle", "nozzle_angle"]


def test_grid_curve_end_to_end():
    curve = RawCurve("s", np.array([0.0, 0.01, 0.01, 0.05]), np.array([-1.0, 10.0, 12.0, 50.0]))
    gc = grid_curve(validate_curve(curve), 60)
    assert isinstance(gc, np.ndarray) and gc.dtype == np.float64
    assert len(gc) == 60
    assert gc[-1] == 1.0


@st.composite
def mixed_curve(draw, sample_id):
    """A valid raw curve of 2-12 points: clean, unsorted, with repeated strains, or with negative stress."""
    size = draw(st.integers(2, 12))
    strain = np.cumsum(draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size)))
    strain += strain[-1] * draw(st.floats(-0.9, 0.5))
    kind = draw(st.sampled_from(["clean", "unsorted", "duplicate", "negative"]))
    low = -1e3 if kind == "negative" else 0.0
    stress = np.array(draw(st.lists(st.floats(low, 1e3), min_size=size, max_size=size)))
    stress[draw(st.integers(0, size - 1))] = draw(st.floats(1.0, 1e3))
    if kind == "duplicate" and size > 2:
        k = draw(st.integers(1, size - 2))
        strain[k] = strain[k - 1]
    if kind in ("unsorted", "duplicate"):
        order = np.array(draw(st.permutations(range(size))))
        strain, stress = strain[order], stress[order]
    return RawCurve(sample_id, strain, stress)


def mixed_curves(min_size, max_size):
    return st.integers(min_size, max_size).flatmap(
        lambda size: st.tuples(*[mixed_curve(str(k)) for k in range(size)]).map(list)
    )


# Each raises in composition: at validation, normalization or resampling.
BAD_CURVES = {
    "nan_stress": ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
    "inf_strain": ([0.0, np.inf, 1.0], [0.0, 0.5, 1.0]),
    "flat": ([0.0, 0.5, 1.0], [0.0, 0.0, 0.0]),
    "negative_flat": ([0.0, 0.5, 1.0], [-1.0, -2.0, -0.5]),
    "max_strain_not_positive": ([-0.3, -0.2, 0.0], [1.0, 2.0, 3.0]),
    "one_distinct_strain": ([0.2, 0.2, 0.2], [1.0, 2.0, 3.0]),
    "merges_after_normalizing": ([0.0, 5e-324, 2.0], [1.0, 2.0, 3.0]),
    "one_point": ([0.5], [1.0]),
    "unequal_lengths": ([0.0, 0.5, 1.0], [1.0, 2.0]),
}


def expected_grid(curves, n):
    """The rows of the per-curve composition, or the first exception it raises in list order."""
    try:
        return np.array([composition(c, n) for c in curves]).reshape(len(curves), n), None
    except DataValidationError as exc:
        return None, exc


class TestGridCurves:
    @settings(max_examples=200, deadline=None)
    @given(mixed_curves(1, 8), st.integers(2, 40))
    def test_rows_equal_composition_bitwise(self, curves, n):
        expected, error = expected_grid(curves, n)
        assert error is None
        got = grid_curves([validate_curve(c) for c in curves], n)
        assert got.shape == (len(curves), n) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        mixed_curves(0, 6),
        st.lists(st.tuples(st.sampled_from(sorted(BAD_CURVES)), st.integers(0, 6)), min_size=1, max_size=3),
        st.integers(2, 40),
    )
    def test_bad_list_raises_first_failure_in_order(self, curves, bad, n):
        curves = [validate_curve(c) for c in curves]
        for name, position in bad:
            strain, stress = BAD_CURVES[name]
            curves.insert(position, RawCurve(f"bad_{name}", np.array(strain), np.array(stress)))
        expected, error = expected_grid(curves, n)
        assert error is not None
        with pytest.raises(type(error)) as raised:
            grid_curves(curves, n)
        assert str(raised.value) == str(error)

    @pytest.mark.parametrize("name", sorted(BAD_CURVES))
    def test_each_bad_curve_raises_as_grid_curve(self, name):
        strain, stress = BAD_CURVES[name]
        curve = RawCurve("bad", np.array(strain), np.array(stress))
        with pytest.raises(DataValidationError) as expected:
            composition(curve, 10)
        with pytest.raises(DataValidationError) as raised:
            grid_curves([RawCurve("ok", np.array([0.0, 1.0]), np.array([0.0, 1.0])), curve], 10)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(DataValidationError) as raised:
            grid_curve(curve, 10)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("kind, strain", [("unsorted", [0.5, 0.0, 1.0]), ("repeated", [0.0, 0.5, 0.5, 1.0])])
    @pytest.mark.parametrize("caller", ["grid_curves", "rank_sources"])
    def test_raw_curve_raises_naming_its_sample(self, kind, strain, caller):
        ok = RawCurve("ok", np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        raw = RawCurve(f"raw_{kind}", np.array(strain), np.linspace(1.0, 2.0, len(strain)))
        call = {
            "grid_curves": lambda: grid_curves([ok, raw], 10),
            "rank_sources": lambda: rank_sources([Dataset("src", "source", [], [ok])], [ok, raw], 10),
        }[caller]
        with pytest.raises(DataValidationError, match=f"sample 'raw_{kind}': strain must be strictly increasing"):
            call()
        assert composition(raw, 10).shape == (10,)  # cleaning alone would have gridded it

    def test_empty_list(self):
        assert grid_curves([], 7).shape == (0, 7)


@pytest.mark.parametrize("n", [2.5, "7", None, True, 1])
@pytest.mark.parametrize("grid", ["grid_curve", "grid_curves"])
def test_bad_grid_size_rejected(grid, n):
    curve = RawCurve("s", np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    call = {
        "grid_curve": lambda: grid_curve(curve, n),
        "grid_curves": lambda: grid_curves([curve], n),
    }[grid]
    with pytest.raises(DataValidationError, match="grid size must be"):
        call()


class TestSaveDataset:
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("stress", float("nan"), "non-finite strain or stress"),
            ("strain", float("inf"), "non-finite strain or stress"),
            ("param", float("inf"), "not JSON compliant"),
        ],
    )
    def test_non_finite_value_raises_before_any_file(self, tmp_path, field, value, match):
        strain, stress, params = np.array([0.0, 0.01, 0.02]), np.array([0.0, 10.0, 20.0]), {"speed": 10.0}
        if field == "stress":
            stress[1] = value
        elif field == "strain":
            strain[2] = value
        else:
            params["speed"] = value
        good = RawCurve("1", np.array([0.0, 0.01, 0.02]), np.array([0.0, 5.0, 9.0]), {"speed": 5.0})
        bad = RawCurve("2", strain, stress, params)
        dataset = Dataset("demo", "target", [ParamField("speed")], [good, bad])
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=match):
            save_dataset(dataset, out_dir)
        assert not out_dir.exists()


@pytest.mark.parametrize("sample_id", ["../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
def test_dataset_rejects_sample_id_that_is_not_a_file_name(sample_id):
    curve = RawCurve(sample_id, np.array([0.0, 0.01]), np.array([0.0, 1.0]))
    with pytest.raises(DataValidationError) as raised:
        Dataset("demo", "target", [], [curve])
    assert "'demo'" in str(raised.value) and repr(sample_id) in str(raised.value)
