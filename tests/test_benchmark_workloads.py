"""The benchmark's workloads still run on the package and reproduce their goldens.

``perfbench/workloads.py`` reads the package's public API (``run_variant``'s
report and its ``aggregate_mape``, ``cli.main``, ``rank_sources``, ...), and
``perfbench/golden.json`` holds each operation's output. This test loads that
file without editing it, runs the first operation of each workload at suite
seed 0 and compares the result with its golden, digest included, so a change
that breaks what the benchmark reads fails here and not only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SUITE_SEED = 0


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while the class is built
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def golden():
    with open(PERFBENCH / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["rank", "dtw_tl", "evaluate"])
def test_first_op_matches_golden(name, workloads, golden, tmp_path):
    op = workloads.WORKLOADS[name].suite_ops(SUITE_SEED, tmp_path)[0]
    result = op.result(op.run())
    seed, item = op.key
    expected = golden[name][seed][item]
    assert workloads.matches(result, expected), (result, expected)
    assert result["sha256"] == expected["sha256"]
