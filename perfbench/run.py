"""curvetransfer benchmark: DTW ranking, the dtw_tl pipeline and CLI evaluation.

One workload per run:

    python3 perfbench/run.py --workload rank --seed 0 --seconds 20 --trace 0

prints every metric with its unit, checks each operation's output against
``golden.json`` and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). A traced run wraps the package's public
functions from outside (see ``tracer.py``) and writes its spans to
``perfbench/out/``.

Times are seconds at a fixed reference machine speed: a gauge (``speed.py``)
times fixed reference work before, during and after each op and each set-up,
and scales the wall time by the gauge's reading. The wall times are printed
beside them.

All workloads, each in its own process, with medians and quartiles over
``--runs`` seeds and, with ``--trace 1``, one traced run each:

    python3 perfbench/run.py --workload all --runs 10 --seed 0 --trace 1

Seeds: the default is 0. A change that claims a gain confirms it on seed 13
as well, whose suite seeds (13-15) lie outside the inputs of ``--runs 10``
from seed 0; keep it out of the runs made while the change is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
CONFIRM_SEED = 13

WORKLOAD_NAMES = ("rank", "dtw_tl", "evaluate")
DETAIL_PREFIX = "perfbench-detail "
P90_MIN_SAMPLES = 100

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("similarity.dtw_distance.calls", "count"),
    ("similarity.dtw_distance.mean_us", "us"),
    ("similarity.rank_sources.calls", "count"),
    ("similarity.rank_sources.s", "s"),
    ("similarity.dtw_cells_per_s", "1/s"),
    ("curves.grid_curve.calls", "count"),
    ("curves.grid_curve.s", "s"),
    ("curves.load_dataset.calls", "count"),
    ("curves.load_dataset.s", "s"),
    ("seqnet.forward_sequence.calls", "count"),
    ("seqnet.forward_sequence.mean_us", "us"),
    ("seqnet.backward.calls", "count"),
    ("seqnet.backward.mean_us", "us"),
    ("seqnet.optimizer_step.calls", "count"),
    ("seqnet.optimizer_step.mean_us", "us"),
    ("seqnet.train.calls", "count"),
    ("seqnet.train.s", "s"),
    ("seqnet.train.self_s", "s"),
    ("seqnet.train.epoch_s", "s"),
    ("transfer.pretrain.s", "s"),
    ("transfer.finetune.s", "s"),
    ("transfer.window_dataset.s", "s"),
    ("transfer.predict_curve.calls", "count"),
    ("transfer.predict_curve.mean_us", "us"),
    ("transfer.run_variant.self_s", "s"),
    ("checkpoint.load_checkpoint.calls", "count"),
    ("checkpoint.load_checkpoint.s", "s"),
    ("metrics.summarize.calls", "count"),
    ("metrics.summarize.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.run_s", "s"),
)

NO_WAIT_NOTE = "wait: none measured; the program is single-threaded with no queues"


def use_source_tree() -> None:
    package = ROOT / "src" / "curvetransfer" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _openblas() -> dict:
    """OpenBLAS thread setting, and its build string and thread count when numpy bundles it."""
    import ctypes

    import numpy as np

    info = {"env": {k: os.environ.get(k, "unset")
                    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["config"] = f"{blas.get('name')} {blas.get('version')}"
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        lib = ctypes.CDLL(str(path))
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        info["config"] = lib.scipy_openblas_get_config64_().decode()
        info["threads"] = lib.scipy_openblas_get_num_threads64_()
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
    }


def load_caveat(nproc: int, before: tuple, after: tuple) -> str:
    return (
        f"caveat: {nproc}-core machine that may be shared; 1-min load {before[0]:.2f} before, "
        f"{after[0]:.2f} after; compare medians of many runs made on one machine, not single runs"
    )


def layer_metrics(stats: dict, speed: float, run_s: float, epochs: int, dtw_cells: int) -> dict:
    """The PER_LAYER metrics from the tracer's per-function stats.

    Span times are wall times, including any gauge tick that fell inside a
    span (a few percent of the run); ``speed`` (reference seconds per wall
    second of the run) puts them on the same scale as ``run_s``.
    """
    stats = {
        name: {"calls": fs["calls"], "s": fs["s"] * speed, "self_s": fs["self_s"] * speed}
        for name, fs in stats.items()
    }
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.run_s":
            value = run_s
        elif name == "similarity.dtw_cells_per_s":
            dtw = stats["similarity.dtw_distance"]
            value = dtw["calls"] * dtw_cells / dtw["s"] if dtw["calls"] else 0.0
        elif name == "seqnet.train.epoch_s":
            value = stats["seqnet.train"]["s"] / epochs if epochs else 0.0
        else:
            function, stat = name.rsplit(".", 1)
            fs = stats[function]
            if stat == "mean_us":
                value = fs["s"] / fs["calls"] * 1e6 if fs["calls"] else 0.0
            else:
                value = fs[stat]
        values[name] = {"value": value, "unit": unit}
    return values


def _setup(workload, seed: int, tmp: Path, gauge) -> tuple[list, list[float], list[float]]:
    """Set up ``setup_repeats`` times; the ops of the last set-up, and each one's wall and scaled time."""
    walls, scaled = [], []
    for k in range(workload.setup_repeats):
        ops, wall, ref = gauge.measure(lambda: workload.setup(seed, tmp / f"setup{k}"))
        walls.append(wall)
        scaled.append(ref)
    return ops, walls, scaled


def _run_op(op):
    try:
        return op.run(), None
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return None, exc


def _timed_loop(ops: list, n_ops: int, gauge, tracer) -> tuple[list, list[float], list[float]]:
    """Run ``n_ops`` ops back to back; each op's output, wall time and reference-speed time."""
    outputs, walls, scaled = [], [], []
    for i in range(n_ops):
        op = ops[i % len(ops)]
        if tracer:
            tracer.begin_op(i)
        (output, error), wall, ref = gauge.measure(lambda: _run_op(op))
        outputs.append((op, output, error))
        walls.append(wall)
        scaled.append(ref)
    return outputs, walls, scaled


def _check(workloads, outputs: list, golden: dict) -> tuple[int, int, list[float]]:
    """Failed ops, bit-identical outputs and the MAPEs of the correct outputs."""
    failed = exact = 0
    mapes = []
    for op, output, error in outputs:
        expected = golden.get(op.key[0], {}).get(op.key[1])
        if error is not None:
            print(f"op {op.key} failed: {type(error).__name__}: {error}", file=sys.stderr)
            failed += 1
            continue
        result = op.result(output)
        if expected is None or not workloads.matches(result, expected):
            print(f"op {op.key} output differs from golden: {result}", file=sys.stderr)
            failed += 1
            continue
        exact += result["sha256"] == expected["sha256"]
        if "mape" in result:
            mapes.append(result["mape"])
    return failed, exact, mapes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    use_source_tree()
    import workloads
    from curvetransfer.curves import DEFAULT_GRID_N
    from speed import SpeedGauge
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    env = environment()
    load_before = os.getloadavg()
    gauge = SpeedGauge()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"work-{name}-") as tmp, gauge.ticking():
        ops, setup_walls, setup_scaled = _setup(workload, seed, Path(tmp), gauge)
        n_ops = workload.n_ops(len(ops), seconds)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            outputs, walls, scaled = _timed_loop(ops, n_ops, gauge, tracer)
        finally:
            if tracer:
                tracer.uninstall()

    failed, exact, mapes = _check(workloads, outputs, golden)
    load_after = os.getloadavg()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s, run_wall_s = sum(scaled), sum(walls)

    if trace:
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
        tracer.write(spans_path)
        epochs = n_ops * workload.epochs_per_op
        metrics = layer_metrics(tracer.stats(), run_s / run_wall_s, run_s, epochs,
                                DEFAULT_GRID_N ** 2)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    detail = {
        "workload": name,
        "seed": seed,
        "suite_seeds": workload.suite_seeds(seed),
        "trace": int(trace),
        "ops": n_ops,
        "setup_s": setup_scaled,
        "setup_wall_s": setup_walls,
        "latencies_s": scaled,
        "latencies_wall_s": walls,
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "mape_pct": statistics.fmean(mapes) if mapes else None,
        "failed": failed,
        "digest_match": exact,
        "env": env,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    print(f"workload {name}: seed {seed}, suite seeds {detail['suite_seeds']}, "
          f"{n_ops} ops, closed loop with one op in flight, trace {int(trace)}")
    print(f"times are seconds at the reference machine speed; this run ran at "
          f"{run_wall_s / run_s:.3f}x the reference time (wall run {run_wall_s:.6g} s, "
          f"wall op p50 {statistics.median(walls):.6g} s, "
          f"wall setup {statistics.median(setup_walls):.6g} s)")
    for key, value in metrics.items():
        print(f"{key:34s} {value['value']:.6g} {value['unit']}")
    if trace:
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        print(_p90_line(scaled))
        print(_mape_line(detail["mape_pct"], name))
    print(f"fail_ratio {failed / n_ops:.6g} ({failed}/{n_ops} ops failed)")
    print(f"digest_match {exact}/{n_ops - failed} outputs bit-identical to golden")
    print(NO_WAIT_NOTE)
    print(f"env: {json.dumps(env)}")
    print(load_caveat(env["nproc"], load_before, load_after))
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": n_ops, "failed": failed,
                      "metrics": metrics}))
    return 0


def _p90_line(latencies: list[float]) -> str:
    if len(latencies) < P90_MIN_SAMPLES:
        return f"op_p90_s n/a: {len(latencies)} ops < {P90_MIN_SAMPLES}"
    return f"op_p90_s {statistics.quantiles(latencies, n=10)[-1]:.6g} s (n={len(latencies)})"


def _mape_line(mape: float | None, name: str) -> str:
    if mape is None:
        return f"mape_pct n/a: {name} makes no predictions"
    return f"mape_pct {mape:.6g} %"


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}")
    detail = next(json.loads(l[len(DETAIL_PREFIX):]) for l in lines if l.startswith(DETAIL_PREFIX))
    return json.loads(lines[-1]), detail


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _spread_row(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    q1, q3 = _quartiles(values)
    spread = (q3 - q1) / med if med else float("nan")
    return f"{name:14s} {unit:5s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}"


def run_all(seed: int, seconds: float, runs: int, trace: bool) -> int:
    """Every workload in its own processes; medians, quartiles and pooled p90 over the runs."""
    failed_any = False
    for name in WORKLOAD_NAMES:
        results = [_child(name, seed + r, seconds, 0) for r in range(runs)]
        print(f"== {name}: {runs} run(s), seeds {seed}..{seed + runs - 1}, {seconds:g} s each ==")
        print(f"{'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'IQR/med':>8s}")
        for metric, unit in END_TO_END:
            print(_spread_row(metric, unit, [res["metrics"][metric]["value"] for res, _ in results]))
        pooled = [x for _, d in results for x in d["latencies_s"]]
        print(_p90_line(pooled) + " pooled over the runs")
        mapes = [d["mape_pct"] for _, d in results if d["mape_pct"] is not None]
        print(_mape_line(statistics.median(mapes) if mapes else None, name))
        attempted = sum(res["attempted"] for res, _ in results)
        failed = sum(res["failed"] for res, _ in results)
        exact = sum(d["digest_match"] for _, d in results)
        failed_any |= failed > 0
        print(f"fail_ratio     {failed / attempted:.6g} ({failed}/{attempted} ops)")
        print(f"digest_match   {exact}/{attempted - failed} outputs bit-identical to golden")
        if trace:
            traced, _ = _child(name, seed, seconds, 1)
            failed_any |= traced["failed"] > 0
            print(f"per-layer, traced run at seed {seed}:")
            for metric, value in traced["metrics"].items():
                print(f"  {metric:34s} {value['value']:.6g} {value['unit']}")
            run_s = [res["metrics"]["run_s"]["value"] for res, _ in results]
            untraced = statistics.median(run_s)
            iqr = _quartiles(run_s)[1] - _quartiles(run_s)[0]
            overhead = traced["metrics"]["trace.run_s"]["value"] - untraced
            print(f"tracing overhead: traced run_s - median untraced run_s = {overhead:.4g} s "
                  f"({overhead / untraced:.2%}); {'above' if abs(overhead) > iqr else 'within'} "
                  f"the untraced runs' IQR of {iqr:.4g} s")
        print()
    env = results[-1][1]
    print(NO_WAIT_NOTE)
    print(f"env: {json.dumps(env['env'])}")
    print(load_caveat(env["env"]["nproc"], env["loadavg_before"], env["loadavg_after"]))
    return 1 if failed_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="target length of the timed phase; sets the fixed work of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: untraced runs per workload, seeds seed.. seed+runs-1")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be > 0 and --runs >= 1")
    if args.workload == "all":
        use_source_tree()
        return run_all(args.seed, args.seconds, args.runs, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
