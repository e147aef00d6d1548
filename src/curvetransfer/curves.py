"""Curve and dataset handling: CSV/manifest ingestion, cleaning, gridding.

A dataset is a named collection of tensile test records. Each record holds one
measured (strain, stress) sequence plus the constant process parameters the
sample was fabricated with. :func:`load_dataset` cleans every curve it reads
with :func:`validate_curve`. Before any similarity computation,
:func:`grid_curves` normalizes each clean curve (each axis divided by its own
maximum) and resamples it onto a common evenly spaced strain grid; it refuses
a curve that still needs cleaning.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataValidationError

DEFAULT_GRID_N = 120

CSV_HEADER = ["strain", "stress"]

ROLES = ("source", "target")


@dataclass(frozen=True)
class RawCurve:
    """One sample's measured stress-strain record plus its process parameters.

    strain is dimensionless (mm/mm), stress is in MPa. ``params`` is an
    ordered name -> value map whose keys must match the owning dataset's
    parameter schema exactly. A raw curve may be unsorted or repeat a strain;
    gridding needs a clean one, which :func:`validate_curve` makes and
    :func:`load_dataset` returns.
    """

    sample_id: str
    strain: np.ndarray
    stress: np.ndarray
    params: dict[str, float] = field(default_factory=dict)

    def n_points(self) -> int:
        return len(self.strain)

    def param_values(self) -> np.ndarray:
        return np.array(list(self.params.values()), dtype=float)


@dataclass(frozen=True)
class ParamField:
    name: str
    unit: str = "-"


def _check_file_name(value: str, label: str) -> None:
    if value in (".", "..") or any(c in value for c in "/\\\0"):
        raise DataValidationError(
            f"{label} cannot name a file: it must not be '.' or '..' or hold '/', '\\' or NUL"
        )


@dataclass
class Dataset:
    """Named collection of curves sharing one process-parameter schema."""

    name: str
    role: str
    param_schema: list[ParamField]
    curves: list[RawCurve]

    def __post_init__(self):
        # The name prefixes the files rank --dump-dtw writes.
        _check_file_name(self.name, f"dataset name {self.name!r}")
        if self.role not in ROLES:
            raise DataValidationError(
                f"dataset {self.name!r}: role must be one of {ROLES}, got {self.role!r}"
            )
        schema_names = [p.name for p in self.param_schema]
        if len(set(schema_names)) != len(schema_names):
            raise DataValidationError(f"dataset {self.name!r}: duplicate parameter names in schema")
        seen: set[str] = set()
        for curve in self.curves:
            # The id names the sample's CSV file (save_dataset, pipeline predictions).
            _check_file_name(curve.sample_id, f"dataset {self.name!r}: sample_id {curve.sample_id!r}")
            if curve.sample_id in seen:
                raise DataValidationError(
                    f"dataset {self.name!r}: duplicate sample_id {curve.sample_id!r}"
                )
            seen.add(curve.sample_id)
            if list(curve.params.keys()) != schema_names:
                raise DataValidationError(
                    f"dataset {self.name!r}, sample {curve.sample_id!r}: parameters "
                    f"{list(curve.params)} do not match schema {schema_names}"
                )

    def sample_ids(self) -> list[str]:
        return [c.sample_id for c in self.curves]

    def curve_by_id(self, sample_id: str) -> RawCurve:
        for curve in self.curves:
            if curve.sample_id == sample_id:
                return curve
        raise DataValidationError(f"dataset {self.name!r} has no sample {sample_id!r}")


def validate_curve(curve: RawCurve) -> RawCurve:
    """Clean one raw curve so downstream normalization is well defined.

    Points are sorted by strain, consecutive duplicate strain values are merged
    by averaging their stresses, and negative stress readings are clamped to 0.
    The result has strictly increasing strain.

    Raises
    ------
    DataValidationError
        On non-finite values, mismatched sequence lengths, or fewer than two
        distinct strain values after merging.
    """
    strain = np.asarray(curve.strain, dtype=float)
    stress = np.asarray(curve.stress, dtype=float)
    if strain.ndim != 1 or stress.ndim != 1 or len(strain) != len(stress):
        raise DataValidationError(
            f"sample {curve.sample_id!r}: strain and stress must be 1-D sequences of equal length"
        )
    if len(strain) < 2:
        raise DataValidationError(f"sample {curve.sample_id!r}: need at least 2 points")
    if not (np.all(np.isfinite(strain)) and np.all(np.isfinite(stress))):
        raise DataValidationError(f"sample {curve.sample_id!r}: non-finite strain or stress value")

    order = np.argsort(strain, kind="stable")
    strain = strain[order]
    stress = stress[order]

    # Merge runs of equal strain by averaging their stresses.
    if np.any(strain[1:] == strain[:-1]):
        uniq, inverse, counts = np.unique(strain, return_inverse=True, return_counts=True)
        merged = np.bincount(inverse, weights=stress) / counts
        strain, stress = uniq, merged
    if len(strain) < 2:
        raise DataValidationError(
            f"sample {curve.sample_id!r}: fewer than 2 distinct strain values after merging"
        )

    stress = np.maximum(stress, 0.0)
    return RawCurve(curve.sample_id, strain, stress, dict(curve.params))


def _check_grid_size(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DataValidationError(f"grid size must be an int, got {n!r}")
    if n < 2:
        raise DataValidationError(f"grid size must be >= 2, got {n}")


def grid_curve(curve: RawCurve, n: int = DEFAULT_GRID_N) -> np.ndarray:
    """One clean curve's (n,) normalized stress on the grid: row 0 of :func:`grid_curves`."""
    return grid_curves([curve], n)[0]


def grid_curves(curves: list[RawCurve], n: int = DEFAULT_GRID_N) -> np.ndarray:
    """The (C, n) stack of each clean curve's normalized stress at ``np.linspace(0, 1, n)``.

    Gridding needs clean curves, as :func:`validate_curve` returns and
    :func:`load_dataset` yields: finite, with strictly increasing strain.
    The curves are concatenated once, and each check runs once over the
    concatenation: finite values, positive maxima, and strictly increasing
    strain after the divide by the positive maximum. That last check implies
    the raw strain increases, and it also catches two neighbouring strains that
    the divide merges. Negative stress is clamped and each curve is divided by
    its own maxima (so both maxima map to exactly 1); then one ``np.interp``
    per curve reads one shared grid, with constant extension past either end.
    If any curve fails a check, the first one in list order raises
    :class:`DataValidationError` naming its sample, and nothing is gridded. An
    unsorted curve or a repeated strain raises "strain must be strictly
    increasing"; it is never cleaned here.
    """
    _check_grid_size(n)
    points = [(np.asarray(c.strain, dtype=float), np.asarray(c.stress, dtype=float)) for c in curves]
    shaped = [
        k for k, (strain, stress) in enumerate(points)
        if strain.ndim == 1 and stress.ndim == 1 and len(strain) == len(stress) and len(strain) >= 2
    ]
    clean = np.zeros(len(curves), dtype=bool)
    bounds = []
    if shaped:
        lengths = np.array([len(points[k][0]) for k in shaped])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        strain = np.concatenate([points[k][0] for k in shaped])
        stress = np.concatenate([points[k][1] for k in shaped])
        finite = np.isfinite(strain) & np.isfinite(stress)
        stress = np.maximum(stress, 0.0)
        max_strain = np.maximum.reduceat(strain, starts)
        max_stress = np.maximum.reduceat(stress, starts)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            strain_norm = strain / np.repeat(max_strain, lengths)
            stress_norm = stress / np.repeat(max_stress, lengths)
        rises = np.empty(len(strain), dtype=bool)
        rises[1:] = strain_norm[1:] > strain_norm[:-1]
        rises[starts] = True  # a curve's first point has no predecessor
        clean[shaped] = (
            np.logical_and.reduceat(finite & rises, starts)
            & (max_strain > 0.0)
            & (max_stress > 0.0)
        )
        bounds = list(zip(starts.tolist(), ends.tolist()))
    if not clean.all():
        raise _check_failure(curves[int(np.argmin(clean))])
    grid = np.linspace(0.0, 1.0, n)
    out = np.empty((len(curves), n))
    for k, (lo, hi) in enumerate(bounds):
        out[k] = np.interp(grid, strain_norm[lo:hi], stress_norm[lo:hi])
    return out


def _check_failure(curve: RawCurve) -> DataValidationError:
    """Why ``curve`` fails :func:`grid_curves`' check, with the message of the first failing step.

    :func:`validate_curve` raises for a bad structure, fewer than 2 points, a
    non-finite value or fewer than 2 distinct strains. Otherwise the cleaned
    curve's maxima must be positive, and its strain must stay strictly
    increasing once divided by its maximum. A curve that would pass once
    cleaned is a raw curve: its message says where cleaning happens.
    """
    cleaned = validate_curve(curve)
    max_strain = float(np.max(cleaned.strain))
    max_stress = float(np.max(cleaned.stress))
    if max_strain <= 0.0:
        return DataValidationError(
            f"sample {curve.sample_id!r}: max strain is {max_strain}, cannot normalize"
        )
    if max_stress <= 0.0:
        return DataValidationError(
            f"sample {curve.sample_id!r}: max stress is {max_stress} (flat curve), cannot normalize"
        )
    message = f"sample {curve.sample_id!r}: strain must be strictly increasing"
    if np.all(np.diff(cleaned.strain / max_strain) > 0):
        message += " (a raw curve: load_dataset and validate_curve sort it and merge repeated strains)"
    return DataValidationError(message)


def _read_curve_csv(path: Path, sample_id: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    # ValueError: a NUL or lone surrogate in the file name, or bytes that are not UTF-8.
    except (OSError, ValueError, csv.Error) as exc:
        raise DataValidationError(f"sample {sample_id!r}: cannot read curve file {path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != CSV_HEADER:
        raise DataValidationError(f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header}")
    strain, stress = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataValidationError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        try:
            strain.append(float(row[0]))
            stress.append(float(row[1]))
        except ValueError as exc:
            raise DataValidationError(f"{path}:{lineno}: malformed number: {exc}") from exc
    return np.array(strain), np.array(stress)


def _param_value(raw, where: str) -> float:
    # A JSON number only: float() would also take true/false, "1_000", " 12 " and "٥".
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DataValidationError(f"{where}: not a number: {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # a JSON integer beyond float range
        raise DataValidationError(f"{where}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DataValidationError(f"{where}: non-finite value {raw!r}")
    return value


def _text_field(raw, where: str, non_empty: bool = False) -> str:
    if not isinstance(raw, str):  # str() would turn ["x"] or null into a name
        raise DataValidationError(f"{where} must be a string, got {raw!r}")
    if non_empty and not raw:
        raise DataValidationError(f"{where} must not be empty")
    return raw


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and validate a dataset from a JSON manifest.

    The manifest is an object ``{name, role, param_schema: [{name, unit}],
    samples: [{id, file, params: {name: value}}]}`` with curve-file paths
    relative to the manifest. ``samples`` must not be empty, and every
    parameter value must be a finite number. The dataset ``name`` and every
    sample ``id`` are non-empty strings; ``role`` and each schema ``name`` and
    ``unit`` are strings, and an id must be usable as a file name (no ``/``,
    ``\\`` or NUL, not ``.`` or ``..``). Every referenced CSV is parsed and
    cleaned via :func:`validate_curve`, so every returned curve is clean and
    :func:`grid_curves` takes it as it is. Any malformed input raises
    :class:`DataValidationError`.
    """
    manifest_path = Path(manifest_path)
    manifest = _read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict):
        raise DataValidationError(f"{manifest_path}: manifest must be a JSON object")
    for key in ("name", "role", "param_schema", "samples"):
        if key not in manifest:
            raise DataValidationError(f"{manifest_path}: manifest missing key {key!r}")
    entries, samples = manifest["param_schema"], manifest["samples"]
    if not (isinstance(entries, list) and all(isinstance(p, dict) and "name" in p for p in entries)):
        raise DataValidationError(f"{manifest_path}: param_schema must be a list of objects with a name")
    if not (isinstance(samples, list) and samples):
        raise DataValidationError(f"{manifest_path}: samples must be a non-empty list")

    name = _text_field(manifest["name"], f"{manifest_path}: name", non_empty=True)
    role = _text_field(manifest["role"], f"{manifest_path}: role")
    schema = [
        ParamField(
            _text_field(p["name"], f"{manifest_path}: param_schema name"),
            _text_field(p.get("unit", "-"), f"{manifest_path}: param_schema unit"),
        )
        for p in entries
    ]
    schema_names = [p.name for p in schema]

    curves = []
    base = manifest_path.parent
    for sample in samples:
        if not isinstance(sample, dict):
            raise DataValidationError(f"{manifest_path}: sample entry must be an object, got {sample!r}")
        for key in ("id", "file", "params"):
            if key not in sample:
                raise DataValidationError(f"{manifest_path}: sample entry missing key {key!r}")
        sample_id = _text_field(sample["id"], f"{manifest_path}: sample id", non_empty=True)
        declared = sample["params"]
        if not (isinstance(declared, dict) and isinstance(sample["file"], str)):
            raise DataValidationError(
                f"{manifest_path}: sample {sample_id!r} needs a params object and a file name string"
            )
        extra = set(declared) - set(schema_names)
        missing = set(schema_names) - set(declared)
        if extra:
            raise DataValidationError(
                f"{manifest_path}: sample {sample_id!r} declares parameters {sorted(extra)} "
                f"absent from schema {schema_names}"
            )
        if missing:
            raise DataValidationError(
                f"{manifest_path}: sample {sample_id!r} missing parameters {sorted(missing)}"
            )
        params = {
            name: _param_value(declared[name], f"{manifest_path}: sample {sample_id!r} parameter {name!r}")
            for name in schema_names
        }
        strain, stress = _read_curve_csv(base / sample["file"], sample_id)
        curves.append(validate_curve(RawCurve(sample_id, strain, stress, params)))

    return Dataset(name, role, schema, curves)


def _read_json(path: str | Path, what: str):
    """The JSON value in ``path``; a file that cannot be read or parsed raises DataValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataValidationError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or bytes that are not UTF-8
        raise DataValidationError(f"{path}: invalid JSON: {exc}") from exc


def _csv_text(header: list, rows) -> str:
    """CSV in the csv module's default dialect, CRLF line ends; a float cell is its shortest repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_text(path: Path, text: str) -> None:
    """The package's one file writer: ``text`` as UTF-8, line ends as given, parent directory created."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(doc: dict, path: Path) -> None:
    """Write ``doc`` as strict, sorted, indented JSON plus a newline, creating the parent directory.

    The text is built before the file is opened, so a NaN or infinity raises
    ValueError and leaves no file behind.
    """
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write a dataset as manifest.json plus one CSV per sample; returns the manifest path.

    Output round-trips through :func:`load_dataset`. Every file's text is
    built before the first file is created, so a non-finite strain, stress or
    parameter value raises ValueError and leaves no file behind.
    """
    out_dir = Path(out_dir)
    samples, csv_texts = [], []
    for curve in dataset.curves:
        strain, stress = np.asarray(curve.strain, dtype=float), np.asarray(curve.stress, dtype=float)
        if not (np.isfinite(strain).all() and np.isfinite(stress).all()):
            raise ValueError(f"sample {curve.sample_id!r}: non-finite strain or stress value")
        fname = f"{curve.sample_id}.csv"
        csv_texts.append((fname, _csv_text(CSV_HEADER, zip(strain.tolist(), stress.tolist()))))
        samples.append({"id": curve.sample_id, "file": fname, "params": dict(curve.params)})
    manifest = {
        "name": dataset.name,
        "role": dataset.role,
        "param_schema": [{"name": p.name, "unit": p.unit} for p in dataset.param_schema],
        "samples": samples,
    }
    manifest_path = out_dir / "manifest.json"
    _write_json(manifest, manifest_path)
    for fname, text in csv_texts:
        _write_text(out_dir / fname, text)
    return manifest_path
