"""The benchmark's per-layer metric names must name public functions of the package.

``perfbench/run.py`` looks its traced spans up by ``<module>.<function>``, so
renaming or removing a function it names makes every traced run fail. This
test reads ``BENCHMARK.json`` (without editing it) and fails first.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# Metrics the benchmark derives from other spans, not read from one function's span.
DERIVED = {"trace.run_s", "similarity.dtw_cells_per_s"}


def _span_metrics():
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return [name for name in names if name not in DERIVED]


@pytest.mark.parametrize("metric", _span_metrics())
def test_per_layer_metric_names_a_public_function(metric):
    parts = metric.split(".")
    assert len(parts) == 3, f"{metric}: expected <module>.<function>.<stat>"
    module_name, function, _ = parts
    module = importlib.import_module(f"curvetransfer.{module_name}")
    obj = getattr(module, function, None)
    assert not function.startswith("_"), f"{metric}: {function} is private"
    assert inspect.isfunction(obj), f"curvetransfer.{module_name} has no function {function!r}"
    assert obj.__module__ == module.__name__, f"{function} is imported into {module_name}, not defined there"
