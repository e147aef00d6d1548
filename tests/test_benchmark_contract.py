"""The benchmark's per-layer metric names must name public functions of the package.

``perfbench/run.py`` looks its traced spans up by ``<module>.<function>``, so
renaming or removing a function it names makes every traced run fail. This
test reads ``BENCHMARK.json`` (without editing it) and fails first. It also
checks what ``perfbench``'s tracer self-test assumes of ``metrics``, which
that test (outside this suite) would otherwise be the first to see.
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


def _assert_public_function(module_name: str, function: str) -> None:
    module = importlib.import_module(f"curvetransfer.{module_name}")
    obj = getattr(module, function, None)
    assert not function.startswith("_"), f"{module_name}.{function} is private"
    assert inspect.isfunction(obj), f"curvetransfer.{module_name} has no function {function!r}"
    assert obj.__module__ == module.__name__, f"{function} is imported into {module_name}, not defined there"


@pytest.mark.parametrize("metric", _span_metrics())
def test_per_layer_metric_names_a_public_function(metric):
    parts = metric.split(".")
    assert len(parts) == 3, f"{metric}: expected <module>.<function>.<stat>"
    _assert_public_function(*parts[:2])


# The spans perfbench/test_perfbench.py::test_tracer_self_time_and_uninstall
# reads by name as the children of one traced ``summarize``.
@pytest.mark.parametrize("function", ["mape", "mape_excluded_count", "rmse", "r2"])
def test_tracer_self_test_names_a_public_metric(function):
    _assert_public_function("metrics", function)


def test_summarize_calls_module_level_mape_once(monkeypatch):
    """The tracer self-test expects one traced ``mape`` span per ``summarize``; the tracer rebinds ``metrics.mape``."""
    metrics = importlib.import_module("curvetransfer.metrics")
    mape, calls = metrics.mape, []

    def counted(*args, **kwargs):
        calls.append(args)
        return mape(*args, **kwargs)

    monkeypatch.setattr(metrics, "mape", counted)
    metrics.summarize([1.0, 2.0, 3.0], [1.1, 2.0, 2.9])
    assert len(calls) == 1
