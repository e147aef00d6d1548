"""Fuzz of manifest and CSV ingestion: malformed input raises DataValidationError and nothing else."""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curvetransfer.curves import Dataset, load_dataset
from curvetransfer.errors import DataValidationError

VALID_CSV = "strain,stress\n0.0,0.0\n0.01,10.0\n0.02,20.0\n"

# No path separators, so a string used as a curve-file name stays inside the manifest's directory.
leaf_text = st.text(st.characters(blacklist_characters="/\\"), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | leaf_text,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
non_finite = st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "-1e999"])
# No CSV delimiters or quotes, so the text stays one cell, and no lone surrogates,
# which cannot be written to a UTF-8 file.
non_numeric = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'), max_size=6
).filter(lambda s: not _is_number(s))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_csv_row(text: str):
    return next(csv.reader(io.StringIO(text, newline="")), None)


def _valid_manifest() -> dict:
    return {
        "name": "fuzz",
        "role": "target",
        "param_schema": [{"name": "speed", "unit": "mm/s"}],
        "samples": [
            {"id": "1", "file": "1.csv", "params": {"speed": 10.0}},
            {"id": "2", "file": "2.csv", "params": {"speed": 20.0}},
        ],
    }


def _load(manifest, csv_text: str | bytes = VALID_CSV, raw_manifest: bytes | None = None):
    """Write the manifest and two CSVs to a fresh directory and load them."""
    csv_bytes = csv_text.encode("utf-8") if isinstance(csv_text, str) else csv_text
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("1.csv", "2.csv"):
            (tmp / name).write_bytes(csv_bytes)
        path = tmp / "manifest.json"
        if raw_manifest is None:
            path.write_text(json.dumps(manifest), encoding="utf-8")
        else:
            path.write_bytes(raw_manifest)
        return load_dataset(path)


def _rejected(manifest, csv_text: str | bytes = VALID_CSV, raw_manifest: bytes | None = None) -> bool:
    try:
        _load(manifest, csv_text, raw_manifest)
    except DataValidationError:
        return True
    return False


def test_valid_manifest_loads():
    assert len(_load(_valid_manifest()).curves) == 2


@pytest.mark.parametrize("key", ["name", "role", "param_schema", "samples"])
def test_missing_top_level_key(key):
    manifest = _valid_manifest()
    del manifest[key]
    assert _rejected(manifest)


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("key", ["id", "file", "params"])
def test_missing_sample_key(index, key):
    manifest = _valid_manifest()
    del manifest["samples"][index][key]
    assert _rejected(manifest)


def test_empty_samples():
    manifest = _valid_manifest()
    manifest["samples"] = []
    assert _rejected(manifest)


@settings(max_examples=100, deadline=None)
@given(json_values.filter(lambda v: not isinstance(v, dict)))
def test_manifest_not_an_object(value):
    assert _rejected(value)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=20))
def test_manifest_arbitrary_bytes(raw):
    try:
        json.loads(raw)
    except ValueError:
        assert _rejected(None, raw_manifest=raw)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["name", "role", "param_schema", "samples", "sample", "id", "file", "params",
                     "schema_entry", "param_value"]),
    json_values,
)
def test_any_value_anywhere_loads_or_raises_data_error(where, value):
    manifest = _valid_manifest()
    sample = manifest["samples"][0]
    if where in ("name", "role", "param_schema", "samples"):
        manifest[where] = value
    elif where == "sample":
        manifest["samples"][0] = value
    elif where == "schema_entry":
        manifest["param_schema"][0] = value
    elif where == "param_value":
        sample["params"]["speed"] = value
    else:
        sample[where] = value
    try:
        dataset = _load(manifest)
    except DataValidationError:
        return
    assert isinstance(dataset, Dataset)
    assert isinstance(dataset.name, str) and dataset.name
    for curve in dataset.curves:
        assert isinstance(curve.sample_id, str) and curve.sample_id
        assert all(math.isfinite(v) for v in curve.params.values())


@pytest.mark.parametrize("text", ["12", "1_000", "\u0665", " 12 ", "1e3", "inf"])
def test_param_value_must_be_a_json_number(text):
    # float() takes every one of these strings; a parameter value is a JSON number.
    manifest = _valid_manifest()
    manifest["samples"][0]["params"]["speed"] = text
    with pytest.raises(DataValidationError) as excinfo:
        _load(manifest)
    assert str(excinfo.value).endswith(f": sample '1' parameter 'speed': not a number: {text!r}")


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=20).filter(lambda h: _first_csv_row(h) != ["strain", "stress"]))
def test_bad_csv_header(header):
    assert _rejected(_valid_manifest(), VALID_CSV.replace("strain,stress", header, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), non_numeric | non_finite)
def test_bad_csv_cell(cell, text):
    rows = [line.split(",") for line in VALID_CSV.splitlines()[1:]]
    rows[cell // 2][cell % 2] = text
    csv_text = "strain,stress\n" + "\n".join(",".join(row) for row in rows) + "\n"
    assert _rejected(_valid_manifest(), csv_text)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40) | st.builds(lambda b: b"strain,stress\n" + b, st.binary(max_size=40)))
def test_csv_arbitrary_bytes_loads_or_raises_data_error(raw):
    try:
        _load(_valid_manifest(), raw)
    except DataValidationError:
        pass
