"""End-to-end CLI behavior: commands, exit codes, determinism, round trips."""

import argparse
import base64
import csv
import dataclasses
import hashlib
import json
import random
import shutil
import struct
import sys
import warnings

import pytest

from curvetransfer import cli, transfer
from curvetransfer.checkpoint import load_checkpoint, save_checkpoint
from curvetransfer.cli import _write_json, build_parser, main
from curvetransfer.curves import Dataset, RawCurve, load_dataset, save_dataset
from curvetransfer.seqnet import OPTIMIZERS, PARAM_NAMES, TrainConfig
from curvetransfer.transfer import VARIANTS

from conftest import with_stress_unit, write_manifest


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
    return out


def manifest_of(suite_dir, name):
    return str(suite_dir / name / "manifest.json")


def source_args(suite_dir):
    args = []
    for name in ("poly_plateau", "poly_hardening", "poly_yield_drop", "poly_brittle"):
        args += ["--sources", manifest_of(suite_dir, name)]
    return args


class TestSynth:
    def test_writes_all_manifests_and_ground_truth(self, suite_dir):
        names = [p.name for p in suite_dir.iterdir() if p.is_dir()]
        assert len([n for n in names if n.startswith("poly_")]) == 4
        assert len([n for n in names if n.startswith("metal_")]) == 3
        gt = json.loads((suite_dir / "ground_truth.json").read_text())
        assert set(gt["ground_truth"]) == {"metal_plateau", "metal_hardening", "metal_yield_drop"}

    def test_output_reingests(self, suite_dir):
        ds = load_dataset(suite_dir / "poly_plateau" / "manifest.json")
        assert len(ds.curves) == 25
        assert ds.role == "source"

    def test_seeds_change_contents(self, tmp_path):
        assert main(["synth", "--seed", "4", "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--seed", "5", "--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "poly_plateau" / "1.csv").read_text()
        csv_b = (tmp_path / "b" / "poly_plateau" / "1.csv").read_text()
        assert csv_a != csv_b


class TestIngest:
    def test_summary_output(self, suite_dir, capsys):
        assert main(["ingest", "--manifest", manifest_of(suite_dir, "metal_plateau")]) == 0
        out = capsys.readouterr().out
        assert "metal_plateau" in out
        assert "samples: 9" in out

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        rc = main(["ingest", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err


class TestRank:
    def test_selects_ground_truth(self, suite_dir, tmp_path):
        out = tmp_path / "ranking.json"
        rc = main(
            ["rank", *source_args(suite_dir),
             "--target", manifest_of(suite_dir, "metal_yield_drop"),
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        gt = json.loads((suite_dir / "ground_truth.json").read_text())["ground_truth"]
        assert doc["selected"] == gt["metal_yield_drop"]
        distances = [e["avg_dtw"] for e in doc["entries"]]
        assert distances == sorted(distances)

    def test_overflowing_doe_span_exits_2(self, suite_dir, tmp_path, capsys):
        # With no --train-ids the DOE corners are scored through a FeatureScaler,
        # which refuses a span of inf before numpy can overflow on it.
        target = tmp_path / "target"
        target.mkdir()
        curve = ([0.0, 0.01, 0.02, 0.03], [0.0, 10.0, 20.0, 25.0])
        manifest = write_manifest(target, samples={
            sid: (*curve, {"speed": speed}) for sid, speed in (("1", -1.7e308), ("2", 0.0), ("3", 1.7e308))
        })
        out = tmp_path / "ranking.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["rank", "--sources", manifest_of(suite_dir, "poly_brittle"),
                       "--target", str(manifest), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: feature 'speed': non-finite span of [-1.7e+308, 1.7e+308]"
        ]
        assert not out.exists()

    def test_single_source_selected_trivially(self, suite_dir, tmp_path):
        out = tmp_path / "ranking.json"
        rc = main(
            ["rank", "--sources", manifest_of(suite_dir, "poly_brittle"),
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["selected"] == "poly_brittle"

    def test_unreadable_manifest_exits_2(self, suite_dir, tmp_path, capsys):
        missing = tmp_path / "missing" / "manifest.json"
        rc = main(
            ["rank", "--sources", str(missing),
             "--target", manifest_of(suite_dir, "metal_plateau")]
        )
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("command, blocker, below", [
        ("evaluate", "dir", None),
        ("pretrain", "dir", None),
        ("finetune", "dir", None),
        ("evaluate", "file", "x.json"),
        ("rank", "file", None),
        ("synth", "file", None),
        ("pipeline", "file", None),
        ("pipeline", "file", "x"),
    ])
    def test_unwritable_output_exits_2(
        self, suite_dir, tmp_path, capsys, monkeypatch, command, blocker, below
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("pipeline fitted before checking --out")

        monkeypatch.setattr(cli, "run_variant", no_fit)
        ckpt = tmp_path / "pre.json"
        source = ["--sources", manifest_of(suite_dir, "poly_plateau")]
        assert main(["pretrain", *source, "--out", str(ckpt), "--epochs", "1"]) == 0
        path = tmp_path / "blocker"
        if blocker == "dir":
            path.mkdir()
        else:
            path.write_text("")
        out = str(path / below if below else path)
        target = ["--target", manifest_of(suite_dir, "metal_plateau")]
        argv = {
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), *target, "--out", out],
            "pretrain": ["pretrain", *source, "--epochs", "1", "--out", out],
            "finetune": ["finetune", "--checkpoint", str(ckpt), *target, "--epochs", "1", "--out", out],
            "rank": ["rank", *source, *target, "--dump-dtw", out],
            "synth": ["synth", "--out", out],
            "pipeline": ["pipeline", "--variant", "vanilla", *target, "--epochs", "1", "--out", out],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_dump_dtw_matrices(self, suite_dir, tmp_path):
        dump = tmp_path / "dtw"
        rc = main(
            ["rank", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--grid-n", "40", "--dump-dtw", str(dump)]
        )
        assert rc == 0
        local = (dump / "poly_plateau_local.csv").read_text().splitlines()
        assert len(local) == 41  # header + 40 rows
        assert local[0].split(",")[1:] == [str(i) for i in range(40)]
        path_rows = (dump / "poly_plateau_path.csv").read_text().splitlines()
        assert path_rows[0] == "k,l"
        assert path_rows[1] == "0,0"
        assert path_rows[-1] == "39,39"

    def test_shuffled_and_duplicated_rows_rank_as_sorted(self, suite_dir, tmp_path):
        # load_dataset cleans each curve it reads, so the order of the CSV rows and
        # repeated rows do not reach the gridding.
        rng = random.Random(0)
        names = ("poly_plateau", "poly_hardening", "poly_yield_drop", "poly_brittle", "metal_plateau")
        for name in names:
            (tmp_path / name).mkdir()
            for path in (suite_dir / name).iterdir():
                text = path.read_text(encoding="utf-8")
                if path.suffix == ".csv":
                    header, *rows = text.splitlines()
                    rows += rng.sample(rows, len(rows) // 3)
                    rng.shuffle(rows)
                    text = "\n".join([header, *rows]) + "\n"
                (tmp_path / name / path.name).write_text(text, encoding="utf-8")
        outputs = []
        for root in (suite_dir, tmp_path):
            out = tmp_path / f"ranking_{len(outputs)}.json"
            rc = main(["rank", *source_args(root), "--target", manifest_of(root, "metal_plateau"),
                       "--seed", "0", "--out", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# sha256 of `rank --seed 0 --out` for every target of suite seeds 0-2.
# DTW uses only IEEE min, add, subtract and square, so these bytes are the same on any machine.
RANK_GOLDEN = {
    (0, "metal_plateau"): "2b8d9f58407dda0138951d5d5cb5ee5eb035a2af7ca7d2ef9d35ca2636610a81",
    (0, "metal_hardening"): "3c0f51454acbb1643fd88d261a4bfa8041005510f15dca64108e4e95bbeefa9a",
    (0, "metal_yield_drop"): "f7f6d21da9bf64590885b6257d2619cda1467f758db930ed01f51b1370a23db0",
    (1, "metal_plateau"): "f69f3ddc30476c7df3f04ebd07752500aa821e30e831da70eafef8883478bdf0",
    (1, "metal_hardening"): "8ddf633fbe9b0dcdd069d582520a08798a42b091ba2383b05577825f1bf61fa0",
    (1, "metal_yield_drop"): "61a6f21e8cda18ea5ba6b54090e28f6cb3ea40bfe66d65dd6b6ea449ef7361d4",
    (2, "metal_plateau"): "f6034b21e68ac34c41f2d2b935de22a33f0e3e43ce116c7cfe8954a06ef3ced6",
    (2, "metal_hardening"): "3073dca62a417bfe61c5f76cb11b7cb25a5f083827455b88a0e6a46925645976",
    (2, "metal_yield_drop"): "1eb26623a4dce46c8e96d15b8d289d5c8c319f0aed08b16a1c0c7ff531d2ea75",
}


class TestRankGolden:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ranking_bytes_match_golden(self, seed, tmp_path):
        suite = tmp_path / "suite"
        assert main(["synth", "--seed", str(seed), "--out", str(suite)]) == 0
        digests = {}
        for target in ("metal_plateau", "metal_hardening", "metal_yield_drop"):
            out = tmp_path / f"{target}.json"
            rc = main(["rank", *source_args(suite), "--target", manifest_of(suite, target),
                       "--seed", "0", "--out", str(out)])
            assert rc == 0
            digests[seed, target] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {key: d for key, d in RANK_GOLDEN.items() if key[0] == seed}


# sha256 of `pipeline --seed 0 --out` report.json on metal_hardening of
# suite seed 0 at a small config, per variant, and of `evaluate --out` for a
# one-epoch checkpoint pre-trained on poly_plateau's curves in file order, on
# the same target. Training and inference run through BLAS, so unlike
# RANK_GOLDEN these bytes hold for one numpy/OpenBLAS build (numpy 2.4,
# OpenBLAS 0.3.31, x86-64).
GOLDEN_TRAIN = ["--seed", "0", "--epochs", "2", "--pretrain-epochs", "1", "--seq-len", "5"]
PIPELINE_GOLDEN = {
    "vanilla": "2d1c739230d6f800384b9c11347941377cc1426a9f7805ea61fc12b1d1a42cfb",
    "tl_all": "8a09fa1be41386869a5789adbdc099f81001d7e78eeca8f9a70ab579f0b7dc97",
    "dtw_tl": "4e817e0884acf72251bb027bd2bcd61256f95e356b25687438a56827ab1d593f",
}
EVALUATE_GOLDEN = "178c91ccf158c161a52b16183479173a4423c0b03be5ea6fe03c4baecb1c9b8f"


@pytest.fixture(scope="module")
def golden_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_suite")
    assert main(["synth", "--seed", "0", "--out", str(out)]) == 0
    return out


class TestTrainGolden:
    @pytest.mark.parametrize("variant", sorted(PIPELINE_GOLDEN))
    def test_report_bytes_match_golden(self, variant, golden_suite, tmp_path):
        rc = main(["pipeline", "--variant", variant, *source_args(golden_suite),
                   "--target", manifest_of(golden_suite, "metal_hardening"),
                   *GOLDEN_TRAIN, "--out", str(tmp_path)])
        assert rc == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == PIPELINE_GOLDEN[variant]

    def test_evaluate_bytes_match_golden(self, golden_suite, tmp_path):
        ckpt, out = tmp_path / "pre.json", tmp_path / "eval.json"
        assert main(["pretrain", "--sources", manifest_of(golden_suite, "poly_plateau"),
                     "--out", str(ckpt), "--seed", "0", "--epochs", "1"]) == 0
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--target", manifest_of(golden_suite, "metal_hardening"), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EVALUATE_GOLDEN


class TestStagedChainReproducesPipeline:
    """``pretrain``, ``finetune`` and ``evaluate`` run by hand give ``pipeline``'s numbers bit for bit.

    ``tl_all`` pre-trains on every source, ``dtw_tl`` on the source ``rank``
    selects; both commands build the pool by the one rule of
    ``transfer._pretrain_pool``. ``vanilla`` skips ``pretrain``: ``finetune``
    with no ``--checkpoint`` starts from fresh seeded weights.
    """

    @pytest.mark.parametrize("suite_seed", [0, 3])
    @pytest.mark.parametrize("variant", ["vanilla", "tl_all", "dtw_tl"])
    def test_per_sample_and_aggregate_metrics_equal(self, variant, suite_seed, tmp_path):
        suite = tmp_path / "suite"
        assert main(["synth", "--seed", str(suite_seed), "--out", str(suite)]) == 0
        seed, target = ["--seed", str(suite_seed)], ["--target", manifest_of(suite, "metal_plateau")]
        assert main(["pipeline", "--variant", variant, *source_args(suite), *target, *seed,
                     "--epochs", "2", "--pretrain-epochs", "1", "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())

        pool = source_args(suite)
        if variant == "dtw_tl":
            ranking = tmp_path / "ranking.json"
            assert main(["rank", *source_args(suite), *target, *seed, "--out", str(ranking)]) == 0
            selected = json.loads(ranking.read_text())["selected"]
            assert selected == report["selected_source"]
            pool = ["--sources", manifest_of(suite, selected)]
        pre, fine, out = tmp_path / "pre.json", tmp_path / "fine.json", tmp_path / "eval.json"
        start = []
        if variant != "vanilla":
            assert main(["pretrain", *pool, *seed, "--epochs", "1", "--out", str(pre)]) == 0
            start = ["--checkpoint", str(pre)]
        assert main(["finetune", *start, *target, *seed, "--epochs", "2", "--out", str(fine)]) == 0
        assert main(["evaluate", "--checkpoint", str(fine), *target,
                     "--test-ids", ",".join(report["plan"]["test_ids"]), "--out", str(out)]) == 0

        staged = json.loads(out.read_text())
        expected = [{k: v for k, v in sample.items() if k != "predicted"} for sample in report["per_sample"]]
        assert json.dumps(staged["per_sample"]) == json.dumps(expected)
        assert json.dumps(staged["aggregate"]) == json.dumps(report["aggregate"])

    def test_evaluate_takes_pipelines_mape_epsilon(self, tmp_path):
        suite, fine = tmp_path / "suite", tmp_path / "fine.json"
        assert main(["synth", "--seed", "0", "--out", str(suite)]) == 0
        common = ["--target", manifest_of(suite, "metal_plateau"), "--seed", "0", "--epochs", "2"]
        assert main(["pipeline", "--variant", "vanilla", *common, "--mape-epsilon", "200",
                     "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert main(["finetune", *common, "--out", str(fine)]) == 0
        aggregates = []
        for epsilon in (["--mape-epsilon", "200"], []):
            out = tmp_path / f"eval{len(epsilon)}.json"
            assert main(["evaluate", "--checkpoint", str(fine), "--target", manifest_of(suite, "metal_plateau"),
                         "--test-ids", ",".join(report["plan"]["test_ids"]), *epsilon, "--out", str(out)]) == 0
            aggregates.append(json.loads(out.read_text())["aggregate"])
        assert json.dumps(aggregates[0]) == json.dumps(report["aggregate"])
        # Without the flag evaluate scores at the default epsilon, which excludes fewer points here.
        assert aggregates[1]["mape"] != aggregates[0]["mape"]


def tree_digest(root) -> str:
    """sha256 over the sorted (relative path, file sha256) pairs of every file under ``root``."""
    lines = sorted(
        f"{path.relative_to(root).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in root.rglob("*") if path.is_file()
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# tree_digest of everything one command writes, on suite seed 0: every CSV's
# CRLF line ends and shortest-repr floats, and every JSON file's layout. The
# pipeline and pretrain bytes hold for one numpy/OpenBLAS build, as above.
OUTPUT_GOLDEN = {
    "synth": "d7a33bcb3878a314393d5931d8649a54e7b39b628fbd26c3d67bc0b33d693b0a",
    "rank": "ee1c362b560add304fd4ba29b3fe1207cf1e3f4e5a4cf6fee9eb222eedd9864d",
    "pipeline": "ccc8402b71f8176ccb56f44640074ff40d7dd57d9bde7bd8275f3554ee0038a7",
    "pretrain": "dd0e2a423f234ac6cc0bf9a9f669b714f3ad302836f274dc9e0b4862e4f67c7a",
}


class TestOutputBytes:
    @pytest.mark.parametrize("command", sorted(OUTPUT_GOLDEN))
    def test_written_files_match_golden(self, command, golden_suite, tmp_path):
        out = tmp_path / "out"
        target = ["--target", manifest_of(golden_suite, "metal_plateau")]
        argv = {
            "synth": ["synth", "--seed", "0", "--out", str(out)],
            "rank": ["rank", "--sources", manifest_of(golden_suite, "poly_plateau"),
                     "--sources", manifest_of(golden_suite, "poly_hardening"), *target, "--seed", "0",
                     "--grid-n", "8", "--out", str(out / "ranking.json"), "--dump-dtw", str(out / "dtw")],
            "pipeline": ["pipeline", "--variant", "vanilla", *target, "--epochs", "1", "--seed", "0",
                         "--out", str(out)],
            "pretrain": ["pretrain", "--sources", manifest_of(golden_suite, "poly_plateau"), "--epochs", "1",
                         "--seed", "0", "--out", str(out / "pre.json")],
        }[command]
        assert main(argv) == 0
        assert tree_digest(out) == OUTPUT_GOLDEN[command]


# Every command that takes --seed, with its other required flags. The files
# are never read: the usage errors tested with these are caught first.
REQUIRED_FLAGS = {
    "rank": ["--sources", "s.json", "--target", "t.json"],
    "pretrain": ["--sources", "s.json", "--out", "c.json"],
    "finetune": ["--checkpoint", "c.json", "--target", "t.json", "--out", "f.json"],
    "pipeline": ["--variant", "vanilla", "--target", "t.json", "--out", "run"],
    "synth": ["--out", "suite"],
}


class TestUsageErrors:
    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["rank"]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_variant_exits_1(self, suite_dir, capsys):
        rc = main(
            ["pipeline", "--variant", "bogus",
             "--target", manifest_of(suite_dir, "metal_plateau"), "--out", "x"]
        )
        assert rc == 1

    @pytest.mark.parametrize("command", ["pretrain", "pipeline"])
    @pytest.mark.parametrize("flag", ["--epochs=0", "--seq-len=0", "--lr=0", "--lr=-1e-3", "--lr=nan"])
    def test_non_positive_train_flag_exits_1(self, command, flag, capsys):
        assert main([command, *REQUIRED_FLAGS[command], flag]) == 1
        assert flag.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", "\u0665", "+2", " 2 ", "2.0", "0x2"])
    @pytest.mark.parametrize("command, flag", [("pretrain", "--epochs"), ("pretrain", "--seq-len"),
                                               ("pipeline", "--pretrain-epochs"), ("rank", "--grid-n")])
    def test_integer_flag_takes_ascii_digits_only(self, command, flag, value, tmp_path, monkeypatch, capsys):
        # int() takes the first four; --seed never did, and now no integer flag does.
        monkeypatch.chdir(tmp_path)
        assert main([command, *REQUIRED_FLAGS[command], flag, value]) == 1
        last_line = capsys.readouterr().err.splitlines()[-1]
        assert flag in last_line and "non-negative integer" in last_line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["\u0665e-3", "1_0", " 2 ", "2 ", "\t1e-3", "\uff12", "abc"])
    @pytest.mark.parametrize("command, flag", [("pretrain", "--lr"), ("pipeline", "--lr"),
                                               ("pipeline", "--mape-epsilon")])
    def test_float_flag_takes_ascii_text_only(self, command, flag, value, tmp_path, monkeypatch, capsys):
        # float() takes all but the last; a float flag, like an integer flag, takes plain ASCII text.
        monkeypatch.chdir(tmp_path)
        assert main([command, *REQUIRED_FLAGS[command], flag, value]) == 1
        last_line = capsys.readouterr().err.splitlines()[-1]
        assert flag in last_line and f"must be a positive finite number, got {value!r}" in last_line
        assert list(tmp_path.iterdir()) == []

    def test_non_positive_pretrain_epochs_exits_1(self, capsys):
        assert main(["pipeline", *REQUIRED_FLAGS["pipeline"], "--pretrain-epochs=0"]) == 1
        assert "--pretrain-epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_pretrain_epochs_is_pipeline_only(self, command, capsys):
        assert main([command, *REQUIRED_FLAGS[command], "--pretrain-epochs", "1"]) == 1
        assert "unrecognized arguments: --pretrain-epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "pipeline"])
    @pytest.mark.parametrize("value", ["0", "1", "-1", "abc"])
    def test_bad_grid_n_exits_1(self, command, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, *REQUIRED_FLAGS[command], f"--grid-n={value}"]) == 1
        assert "--grid-n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", "", "1e3"])
    def test_bad_seed_flag_exits_1(self, command, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CURVETRANSFER_SEED", raising=False)
        assert main([command, *REQUIRED_FLAGS[command], f"--seed={value}"]) == 1
        last_line = capsys.readouterr().err.splitlines()[-1]
        assert "--seed" in last_line and "non-negative integer" in last_line

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_seed_beyond_int_conversion_exits_1(self, via, tmp_path, monkeypatch, capsys):
        # int() refuses more than sys.get_int_max_str_digits() digits with a ValueError.
        monkeypatch.chdir(tmp_path)
        digits = "9" * 5000
        argv = ["synth", "--out", "suite"]
        if via == "env":
            monkeypatch.setenv("CURVETRANSFER_SEED", digits)
        else:
            monkeypatch.delenv("CURVETRANSFER_SEED", raising=False)
            argv += ["--seed", digits]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        name = "CURVETRANSFER_SEED" if via == "env" else "argument --seed:"
        assert lines[-1].endswith(f"{name} must be an integer of at most {sys.get_int_max_str_digits()} digits, "
                                  "got 5000 digits")
        assert len(lines) == 1 if via == "env" else lines[-1].startswith("curvetransfer synth: error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", "", "1e3"])
    def test_bad_env_seed_exits_1(self, command, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CURVETRANSFER_SEED", value)
        assert main([command, *REQUIRED_FLAGS[command]]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "CURVETRANSFER_SEED" in lines[0]
        assert list(tmp_path.iterdir()) == []


def subcommands():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def parser_action(command, flag):
    return subcommands()[command]._option_string_actions[flag]


# Each command's option strings, sorted, each with its ``required`` flag.
FLAG_SURFACE = {
    "ingest": [("--help", False), ("--manifest", True), ("-h", False)],
    "rank": [("--dump-dtw", False), ("--grid-n", False), ("--help", False), ("--out", False), ("--seed", False),
             ("--sources", True), ("--target", True), ("--train-ids", False), ("-h", False)],
    "pretrain": [("--epochs", False), ("--help", False), ("--lr", False), ("--optimizer", False), ("--out", True),
                 ("--pad-params", False), ("--seed", False), ("--seq-len", False), ("--sources", True),
                 ("-h", False)],
    "finetune": [("--checkpoint", False), ("--epochs", False), ("--help", False), ("--lr", False),
                 ("--optimizer", False), ("--out", True), ("--pad-params", False), ("--seed", False),
                 ("--seq-len", False), ("--target", True), ("--train-ids", False), ("-h", False)],
    "evaluate": [("--checkpoint", True), ("--help", False), ("--mape-epsilon", False), ("--out", False),
                 ("--pad-params", False), ("--target", True), ("--test-ids", False), ("-h", False)],
    "pipeline": [("--epochs", False), ("--grid-n", False), ("--help", False), ("--lr", False),
                 ("--mape-epsilon", False), ("--optimizer", False), ("--out", True), ("--pad-params", False),
                 ("--pretrain-epochs", False), ("--seed", False), ("--seq-len", False), ("--sources", False),
                 ("--target", True), ("--train-ids", False), ("--variant", True), ("-h", False)],
    "synth": [("--help", False), ("--out", True), ("--seed", False), ("-h", False)],
}


class TestFlagsFollowTheLibrary:
    @pytest.mark.parametrize("command", ["pretrain", "finetune", "pipeline"])
    def test_train_flags_are_train_config_defaults_and_choices(self, command):
        args = build_parser().parse_args([command, *REQUIRED_FLAGS[command]])
        defaults = TrainConfig(epochs=args.epochs)
        assert (args.seq_len, args.lr, args.optimizer) == (
            defaults.sequence_length, defaults.learning_rate, defaults.optimizer
        )
        assert parser_action(command, "--optimizer").choices is OPTIMIZERS

    def test_variant_choices_are_the_library_tuple(self):
        assert parser_action("pipeline", "--variant").choices is VARIANTS

    def test_each_command_keeps_its_flags(self):
        surface = {command: sorted((flag, action.required) for action in p._actions for flag in action.option_strings)
                   for command, p in subcommands().items()}
        assert surface == FLAG_SURFACE

    @pytest.mark.parametrize(
        "flag", ["--seed", "--pad-params", "--grid-n", "--train-ids", "--seq-len", "--epochs", "--lr", "--optimizer",
                 "--mape-epsilon"]
    )
    def test_shared_flags_are_one_definition(self, flag):
        # One action per shared flag, so every staged command parses it as pipeline does.
        commands = [command for command, surface in FLAG_SURFACE.items() if (flag, False) in surface]
        assert len(commands) >= 2
        assert all(parser_action(command, flag) is parser_action(commands[0], flag) for command in commands)


FAST_TRAIN = ["--epochs", "3", "--seq-len", "5", "--lr", "1e-3"]


class TestPipeline:
    def test_vanilla_writes_report_without_ranking(self, suite_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["pipeline", "--variant", "vanilla",
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--seed", "1", "--out", str(out), *FAST_TRAIN]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "vanilla"
        assert "dtw_ranking" not in report
        assert not (out / "ranking.json").exists()
        preds = list((out / "predictions").glob("*.csv"))
        assert len(preds) == 7  # 9 samples minus 2 training
        header = preds[0].read_text().splitlines()[0]
        assert header == "strain,stress_actual,stress_predicted"

    def test_dtw_tl_writes_ranking(self, suite_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["pipeline", "--variant", "dtw_tl", *source_args(suite_dir),
             "--target", manifest_of(suite_dir, "metal_hardening"),
             "--seed", "1", "--out", str(out),
             *FAST_TRAIN, "--pretrain-epochs", "1"]
        )
        assert rc == 0
        ranking = json.loads((out / "ranking.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert report["selected_source"] == ranking["selected"]

    def test_target_stress_unit_change_scales_only_rmse_and_predictions(self, suite_dir, tmp_path):
        # A copy of the synth target with every stress x 2**10: exact in the CSV's shortest repr.
        scaled_dir = tmp_path / "metal_hardening"
        scaled_dir.mkdir()
        for path in (suite_dir / "metal_hardening").iterdir():
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".csv":
                header, *rows = text.splitlines()
                rows = [f"{strain},{float(stress) * 2**10!r}" for strain, stress in (r.split(",") for r in rows)]
                text = "\n".join([header, *rows]) + "\n"
            (scaled_dir / path.name).write_text(text, encoding="utf-8")
        runs = {}
        for label, target in (("base", suite_dir), ("scaled", tmp_path)):
            runs[label] = tmp_path / f"run_{label}"
            assert main(["pipeline", "--variant", "dtw_tl", *source_args(suite_dir),
                         "--target", manifest_of(target, "metal_hardening"), "--seed", "0",
                         "--out", str(runs[label]), "--epochs", "2", "--pretrain-epochs", "1"]) == 0
        base, scaled = (json.loads((runs[k] / "report.json").read_text()) for k in ("base", "scaled"))
        assert scaled == with_stress_unit(base, 2**10)
        assert (runs["scaled"] / "ranking.json").read_bytes() == (runs["base"] / "ranking.json").read_bytes()

    def test_prediction_csvs_match_report(self, suite_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["pipeline", "--variant", "vanilla",
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--seed", "1", "--out", str(out), *FAST_TRAIN]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        for sample in report["per_sample"]:
            with open(out / "predictions" / f"{sample['sample_id']}.csv", newline="", encoding="utf-8") as fh:
                column = [float(row["stress_predicted"]) for row in csv.DictReader(fh)]
            assert column == sample["predicted"]

    def test_byte_identical_reports(self, suite_dir, tmp_path):
        args = [
            "pipeline", "--variant", "vanilla",
            "--target", manifest_of(suite_dir, "metal_plateau"),
            "--seed", "7", *FAST_TRAIN,
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()

    @pytest.mark.parametrize("variant", ["vanilla", "tl_all", "dtw_tl"])
    def test_sample_id_prefix_changes_only_the_ids(self, suite_dir, tmp_path, variant):
        # A common prefix keeps the ids' lexicographic order, so the extreme-sample
        # tie-break picks the same training curves; nothing else reads an id.
        prefix = "renamed_"
        renamed = shutil.copytree(suite_dir, tmp_path / "renamed")
        for manifest in renamed.glob("*/manifest.json"):
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            for sample in doc["samples"]:
                sample["id"] = prefix + sample["id"]
            _write_json(doc, manifest)
        runs = {}
        for label, suite in (("base", suite_dir), ("renamed", renamed)):
            runs[label] = tmp_path / f"run_{label}"
            assert main(["pipeline", "--variant", variant, *source_args(suite),
                         "--target", manifest_of(suite, "metal_hardening"), "--seed", "0",
                         "--out", str(runs[label]), "--epochs", "2", "--pretrain-epochs", "1"]) == 0
        base = json.loads((runs["base"] / "report.json").read_text(encoding="utf-8"))
        for key in ("train_ids", "test_ids"):
            base["plan"][key] = [prefix + sid for sid in base["plan"][key]]
        for sample in base["per_sample"]:
            sample["sample_id"] = prefix + sample["sample_id"]
        assert (runs["renamed"] / "report.json").read_text(encoding="utf-8") == (
            json.dumps(base, indent=2, sort_keys=True) + "\n"
        )
        base_preds = sorted(p.name for p in (runs["base"] / "predictions").iterdir())
        assert sorted(p.name for p in (runs["renamed"] / "predictions").iterdir()) == [
            prefix + name for name in base_preds
        ]
        for name in base_preds:
            assert (runs["renamed"] / "predictions" / (prefix + name)).read_bytes() == (
                runs["base"] / "predictions" / name
            ).read_bytes()
        if variant == "dtw_tl":
            assert (runs["renamed"] / "ranking.json").read_bytes() == (runs["base"] / "ranking.json").read_bytes()

    def test_explicit_train_ids(self, suite_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["pipeline", "--variant", "vanilla",
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--train-ids", "1,9", "--seed", "2", "--out", str(out), *FAST_TRAIN]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["plan"]["train_ids"] == ["1", "9"]

    @pytest.mark.parametrize("epsilon", ["nan", "0", "-1"])
    def test_bad_mape_epsilon_exits_1(self, suite_dir, tmp_path, capsys, epsilon):
        rc = main(
            ["pipeline", "--variant", "vanilla",
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--out", str(tmp_path / "run"), f"--mape-epsilon={epsilon}"]
        )
        assert rc == 1
        assert "--mape-epsilon" in capsys.readouterr().err

    def test_mape_epsilon_above_every_stress_exits_2(self, suite_dir, tmp_path, capsys):
        rc = main(
            ["pipeline", "--variant", "vanilla",
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--out", str(tmp_path / "run"), "--mape-epsilon", "1e9",
             "--epochs", "1"]
        )
        assert rc == 2
        assert "sample '2'" in capsys.readouterr().err

    def test_short_source_curves_name_the_stage(self, suite_dir, tmp_path, capsys):
        # Every source curve has 45 points and every target curve 50, so the target
        # split passes the length check and the first source listed is refused.
        argv = ["pipeline", "--variant", "dtw_tl",
                "--sources", manifest_of(suite_dir, "poly_plateau"),
                "--sources", manifest_of(suite_dir, "poly_hardening"),
                "--target", manifest_of(suite_dir, "metal_plateau"),
                "--seq-len", "47", "--epochs", "1", "--out", str(tmp_path / "run")]
        first = load_dataset(manifest_of(suite_dir, "poly_plateau")).curves[0]
        assert first.n_points() == 45
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: pretrain on dataset 'poly_plateau': sample {first.sample_id!r} has 45 points, "
            "need more than sequence length 47\n"
        )
        assert not (tmp_path / "run").exists()

    def test_divergence_exits_3(self, suite_dir, tmp_path, capsys):
        rc = main(
            ["pipeline", "--variant", "vanilla",
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--seed", "0", "--out", str(tmp_path / "run"),
             "--epochs", "60", "--lr", "1e12", "--optimizer", "sgd"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "diverged" in err
        assert "finetune" in err and "metal_plateau" in err


    def test_non_finite_training_data_exits_2(self, tmp_path, capsys):
        # Speeds of +-1.7e308 span an infinite range, so one sample's scaled speed is
        # inf / inf = nan; that is bad data (exit 2), not a divergence (exit 3).
        strain, stress = [0.01 * k for k in range(8)], [10.0 * k for k in range(8)]
        path = write_manifest(tmp_path, name="huge", role="source", samples={
            "1": (strain, stress, {"speed": -1.7e308}),
            "2": (strain, stress, {"speed": 1.7e308}),
        })
        rc = main(["pretrain", "--sources", str(path), "--out", str(tmp_path / "ckpt.json"),
                   "--seed", "0", "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "pretrain on dataset 'huge'" in err and "non-finite" in err
        assert "diverged" not in err


def one_parameter_copy(suite_dir, dataset, tmp_path, name=None):
    """Save ``dataset`` with its first parameter only, renamed to ``name`` if given; its manifest path."""
    full = load_dataset(manifest_of(suite_dir, dataset))
    first = full.param_schema[0]
    kept = dataclasses.replace(first, name=name or first.name)
    curves = [RawCurve(c.sample_id, c.strain, c.stress, {kept.name: c.params[first.name]}) for c in full.curves]
    return str(save_dataset(Dataset(full.name, full.role, [kept], curves), tmp_path / f"{dataset}-short"))


class TestCheckpointCommands:
    def test_pretrain_finetune_evaluate_chain(self, suite_dir, tmp_path, capsys):
        ckpt = tmp_path / "pre.json"
        rc = main(
            ["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--out", str(ckpt), "--seed", "0", "--epochs", "2"]
        )
        assert rc == 0
        doc = json.loads(ckpt.read_text())
        assert doc["provenance"]["stage"] == "pretrained"

        tuned = tmp_path / "fine.json"
        rc = main(
            ["finetune", "--checkpoint", str(ckpt),
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--out", str(tuned), "--seed", "0", "--epochs", "2"]
        )
        assert rc == 0
        doc = json.loads(tuned.read_text())
        assert doc["provenance"]["stage"] == "finetuned"

        report = tmp_path / "eval.json"
        rc = main(
            ["evaluate", "--checkpoint", str(tuned),
             "--target", manifest_of(suite_dir, "metal_plateau"), "--out", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert len(doc["per_sample"]) == 9
        assert "MAPE" in capsys.readouterr().out

    def test_evaluate_with_explicit_test_ids(self, suite_dir, tmp_path):
        ckpt = tmp_path / "pre.json"
        assert main(
            ["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--out", str(ckpt), "--seed", "0", "--epochs", "1"]
        ) == 0
        report = tmp_path / "eval.json"
        rc = main(
            ["evaluate", "--checkpoint", str(ckpt),
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--test-ids", "3,5", "--out", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert [s["sample_id"] for s in doc["per_sample"]] == ["3", "5"]

    def test_evaluate_fewer_parameters_needs_pad_params(self, suite_dir, tmp_path, capsys):
        ckpt = tmp_path / "pre.json"
        assert main(
            ["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--out", str(ckpt), "--seed", "0", "--epochs", "1"]
        ) == 0
        full = load_dataset(manifest_of(suite_dir, "metal_plateau"))
        assert len(full.param_schema) == 2
        argv = ["evaluate", "--checkpoint", str(ckpt),
                "--target", one_parameter_copy(suite_dir, "metal_plateau", tmp_path),
                "--out", str(tmp_path / "eval.json")]
        assert main(argv) == 2
        assert "(padding disabled)" in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()
        assert main(argv + ["--pad-params"]) == 0
        assert len(json.loads((tmp_path / "eval.json").read_text())["per_sample"]) == len(full.curves)

    def test_pretrain_mixed_arity_needs_pad_params(self, suite_dir, tmp_path, capsys):
        # The one-parameter source is listed first, so the shuffled pool starts
        # with one of its curves at seed 0, and the scaler names show the padded position.
        ckpt = tmp_path / "pre.json"
        argv = ["pretrain", "--sources", one_parameter_copy(suite_dir, "poly_brittle", tmp_path),
                "--sources", manifest_of(suite_dir, "poly_plateau"),
                "--out", str(ckpt), "--seed", "0", "--epochs", "1"]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: pretrain on dataset 'poly_brittle+poly_plateau': "
            "sample '19' has 1 parameters, expected 2 (padding disabled)\n"
        )
        assert not ckpt.exists()
        assert main(argv + ["--pad-params"]) == 0
        scalers = json.loads(ckpt.read_text())["feature_scalers"]["params"]
        assert [s["name"] for s in scalers] == ["print_speed", "param_1"]
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == "116694adf0e9fa694e7fb723b657358390106d1ffe3b6bac1a4d46a1eceada3d"

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate", "pipeline", "pipeline-source"])
    def test_padded_name_that_a_parameter_has_exits_2(self, suite_dir, tmp_path, capsys, command):
        # The one parameter left is named param_1: padding would give its name
        # to position 1 and overwrite the measured value with 0.0.
        ckpt = tmp_path / "pre.json"
        assert main(["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
                     "--out", str(ckpt), "--seed", "0", "--epochs", "1"]) == 0
        short = one_parameter_copy(suite_dir, "metal_plateau", tmp_path, name="param_1")
        out = tmp_path / "out"
        argv = {
            "pretrain": ["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
                         "--sources", short, "--epochs", "1"],
            "finetune": ["finetune", "--checkpoint", str(ckpt), "--target", short, "--epochs", "1"],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--target", short],
            "pipeline": ["pipeline", "--variant", "tl_all", "--sources", manifest_of(suite_dir, "poly_plateau"),
                         "--target", short, "--epochs", "1"],
            "pipeline-source": ["pipeline", "--variant", "tl_all", "--sources", short,
                                "--target", manifest_of(suite_dir, "metal_hardening"), "--epochs", "1"],
        }[command]
        where = {
            "pretrain": "pretrain on dataset 'poly_plateau+metal_plateau': ",
            "finetune": "finetune on dataset 'metal_plateau': ",
            "pipeline-source": "pretrain on dataset 'metal_plateau': ",
        }.get(command, "")
        capsys.readouterr()
        assert main(argv + ["--pad-params", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}sample '") and err.count("\n") == 1
        assert err.endswith("': parameter 'param_1' is named like a padded position\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "finetune", "evaluate"])
    def test_unknown_sample_id_exits_2(self, suite_dir, tmp_path, capsys, command):
        ckpt = tmp_path / "pre.json"
        assert main(
            ["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--out", str(ckpt), "--seed", "0", "--epochs", "1"]
        ) == 0
        target = ["--target", manifest_of(suite_dir, "metal_plateau")]
        argv = {
            "rank": ["rank", "--sources", manifest_of(suite_dir, "poly_plateau"), *target,
                     "--train-ids", "nope,1"],
            "finetune": ["finetune", "--checkpoint", str(ckpt), *target, "--train-ids", "nope,1",
                         "--out", str(tmp_path / "fine.json"), "--epochs", "1"],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), *target, "--test-ids", "nope"],
        }[command]
        assert main(argv) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "finetune"])
    def test_short_training_curve_exits_2_before_training(self, suite_dir, tmp_path, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(transfer, "train", no_training)
        full = load_dataset(manifest_of(suite_dir, "metal_plateau"))
        curves = [dataclasses.replace(c, strain=c.strain[:4], stress=c.stress[:4]) if c.sample_id == "9" else c
                  for c in full.curves]
        target = ["--target", str(save_dataset(dataclasses.replace(full, curves=curves), tmp_path / "cut"))]
        out = tmp_path / "out"
        argv = {
            "pipeline": ["pipeline", "--variant", "dtw_tl", *source_args(suite_dir), *target],
            "finetune": ["finetune", *target],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out), "--epochs", "1"]) == 2
        assert capsys.readouterr().err == "error: sample '9' has 4 points, need more than sequence length 5\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "pipeline"])
    def test_short_source_curve_exits_2_before_training(self, suite_dir, tmp_path, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(transfer, "train", no_training)
        full = load_dataset(manifest_of(suite_dir, "poly_plateau"))
        last = full.curves[-1]
        curves = [*full.curves[:-1], dataclasses.replace(last, strain=last.strain[:4], stress=last.stress[:4])]
        cut = str(save_dataset(dataclasses.replace(full, curves=curves), tmp_path / "cut"))
        out = tmp_path / "out"
        argv = {
            "pretrain": ["pretrain", "--sources", cut],
            "pipeline": ["pipeline", "--variant", "dtw_tl", "--sources", cut,
                         *source_args(suite_dir)[2:], "--target", manifest_of(suite_dir, "metal_plateau")],
        }[command]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out), "--epochs", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: pretrain on dataset 'poly_plateau': sample {last.sample_id!r} has 4 points, "
            "need more than sequence length 5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "finetune", "evaluate", "pipeline"])
    def test_repeated_sample_id_exits_2(self, suite_dir, tmp_path, capsys, command):
        ckpt = tmp_path / "pre.json"
        assert main(
            ["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--out", str(ckpt), "--seed", "0", "--epochs", "1"]
        ) == 0
        target = ["--target", manifest_of(suite_dir, "metal_plateau")]
        argv = {
            "rank": ["rank", "--sources", manifest_of(suite_dir, "poly_plateau"), *target,
                     "--train-ids", "1,1,9"],
            "finetune": ["finetune", "--checkpoint", str(ckpt), *target, "--train-ids", "1,1,9",
                         "--out", str(tmp_path / "fine.json"), "--epochs", "1"],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), *target, "--test-ids", "3,5,3"],
            "pipeline": ["pipeline", "--variant", "vanilla", *target, "--train-ids", "1,1,9",
                         "--out", str(tmp_path / "run"), "--epochs", "1"],
        }[command]
        assert main(argv) == 2
        assert "repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", ["sequence_length=0", "sequence_length=2.7",
                                        "scaler_min=NaN", "extra_scaler", "stress_span=inf",
                                        "weights=missing", "weights=list", "weights=bad_base64",
                                        "weights=one_byte_short", "weights=nan"])
    def test_tampered_checkpoint_exits_2(self, suite_dir, tmp_path, capsys, tamper):
        ckpt = tmp_path / "pre.json"
        assert main(
            ["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--out", str(ckpt), "--seed", "0", "--epochs", "1"]
        ) == 0
        doc = json.loads(ckpt.read_text())
        param_scalers = doc["feature_scalers"]["params"]
        if tamper == "sequence_length=0":
            doc["sequence_length"] = 0
        elif tamper == "sequence_length=2.7":
            doc["sequence_length"] = 2.7
        elif tamper == "scaler_min=NaN":
            param_scalers[0]["min"] = "NaN"
        elif tamper == "stress_span=inf":
            # Each bound is finite, but max - min overflows: unscaled predictions and metrics would be infinite.
            doc["feature_scalers"]["stress"].update({"min": -1.7e308, "max": 1.7e308})
        elif tamper == "extra_scaler":
            param_scalers.append(dict(param_scalers[0]))
        elif tamper == "weights=missing":
            del doc["weights"]
        elif tamper == "weights=list":
            doc["weights"] = [0.0] * 4641
        elif tamper == "weights=bad_base64":
            doc["weights"] = doc["weights"][:-4] + "@@@="
        else:
            raw = base64.b64decode(doc["weights"])
            raw = struct.pack("<d", float("nan")) + raw[8:] if tamper == "weights=nan" else raw[:-1]
            doc["weights"] = base64.b64encode(raw).decode("ascii")
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["evaluate", "--checkpoint", str(ckpt),
                   "--target", manifest_of(suite_dir, "metal_plateau")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "malformed checkpoint" in err
        if tamper == "stress_span=inf":
            assert "feature 'stress': non-finite span" in err

    @pytest.mark.parametrize("hidden_dim", [None, 10**6])
    def test_version_1_checkpoint_exits_2(self, suite_dir, tmp_path, capsys, hidden_dim):
        ckpt, out = tmp_path / "pre.json", tmp_path / "eval.json"
        assert main(["pretrain", "--sources", manifest_of(suite_dir, "poly_plateau"),
                     "--out", str(ckpt), "--seed", "0", "--epochs", "1"]) == 0
        params = load_checkpoint(ckpt).params
        # The older format: one nested list of decimal floats per weight name. At
        # hidden_dim 10**6 a reader that trusted the header would allocate 29 TiB.
        doc = {**json.loads(ckpt.read_text()), "format_version": 1,
               "weights": {name: getattr(params, name).tolist() for name in PARAM_NAMES}}
        if hidden_dim is not None:
            doc["hidden_dim"] = hidden_dim
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["evaluate", "--checkpoint", str(ckpt),
                   "--target", manifest_of(suite_dir, "metal_plateau"), "--out", str(out)])
        assert rc == 2
        assert "format_version" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_checkpoint_exits_2(self, suite_dir, tmp_path, capsys):
        ckpt = tmp_path / "pre.json"
        ckpt.write_bytes(b"\xff\xfe" + '{"format_version": 2}'.encode("utf-16-le"))
        rc = main(["evaluate", "--checkpoint", str(ckpt),
                   "--target", manifest_of(suite_dir, "metal_plateau")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_env_seed_fallback(self, suite_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVETRANSFER_SEED", "42")
        out = tmp_path / "ranking.json"
        rc = main(
            ["rank", "--sources", manifest_of(suite_dir, "poly_plateau"),
             "--target", manifest_of(suite_dir, "metal_plateau"),
             "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["seed"] == 42


class TestOverflowingMetrics:
    """A metric that overflows float64 on finite data exits 2 with one error line and writes no file.

    A metric whose true value float64 holds is reported, however large its squares.
    """

    @staticmethod
    def assert_one_error_line(capsys, *words):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words), err

    @pytest.mark.parametrize("with_out", [False, True])
    def test_evaluate_with_huge_output_weights_exits_2(self, golden_suite, tmp_path, capsys, with_out):
        # Every W_out weight 1e200: finite, so the checkpoint loads, but the residual sum of squares overflows.
        ckpt, out = tmp_path / "pre.json", tmp_path / "eval.json"
        assert main(["pretrain", "--sources", manifest_of(golden_suite, "poly_plateau"),
                     "--out", str(ckpt), "--seed", "0", "--epochs", "1"]) == 0
        checkpoint = load_checkpoint(ckpt)
        checkpoint.params.W_out[:] = 1e200
        save_checkpoint(checkpoint, ckpt)
        capsys.readouterr()
        argv = ["evaluate", "--checkpoint", str(ckpt), "--target", manifest_of(golden_suite, "metal_plateau")]
        assert main(argv + (["--out", str(out)] if with_out else [])) == 2
        self.assert_one_error_line(capsys, "sample '1': r2 overflows float64")
        assert not out.exists()

    def test_pipeline_on_stresses_times_2_pow_660_scales_only_rmse_and_predictions(self, golden_suite, tmp_path):
        # Every stress is finite (at most about 5e198), and so is every RMSE
        # (about 3.3e200 in the aggregate), though the squared errors are not.
        target = load_dataset(manifest_of(golden_suite, "metal_plateau"))
        curves = [dataclasses.replace(c, stress=c.stress * 2.0**660) for c in target.curves]
        save_dataset(dataclasses.replace(target, curves=curves), tmp_path / "scaled")
        reports = {}
        for label, manifest in (("base", manifest_of(golden_suite, "metal_plateau")),
                                ("scaled", str(tmp_path / "scaled" / "manifest.json"))):
            out = tmp_path / f"run_{label}"
            assert main(["pipeline", "--variant", "vanilla", "--target", manifest,
                         "--epochs", "1", "--seed", "0", "--out", str(out)]) == 0
            reports[label] = json.loads((out / "report.json").read_text())
        assert reports["scaled"] == with_stress_unit(reports["base"], 2.0**660)


class TestWriteJson:
    def test_non_finite_value_raises_before_writing(self, tmp_path):
        path = tmp_path / "run" / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json({"mape": float("inf")}, path)
        assert not path.exists()


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_sources_do_not_carry_over(self, suite_dir, tmp_path):
        target = ["--target", manifest_of(suite_dir, "metal_plateau"), "--seed", "1"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["rank", *source_args(suite_dir), *target, "--out", str(first)]) == 0
        assert main(["rank", "--sources", manifest_of(suite_dir, "poly_brittle"), *target,
                     "--out", str(second)]) == 0
        assert len(json.loads(first.read_text())["entries"]) == 4
        assert [e["source"] for e in json.loads(second.read_text())["entries"]] == ["poly_brittle"]

    def test_seed_fallback_is_read_per_call(self, suite_dir, tmp_path, monkeypatch):
        rank = ["rank", "--sources", manifest_of(suite_dir, "poly_plateau"),
                "--target", manifest_of(suite_dir, "metal_plateau")]
        seeds = []
        for env, flag in (("42", []), ("42", ["--seed", "7"]), ("5", []), (None, [])):
            if env is None:
                monkeypatch.delenv("CURVETRANSFER_SEED", raising=False)
            else:
                monkeypatch.setenv("CURVETRANSFER_SEED", env)
            out = tmp_path / f"ranking{len(seeds)}.json"
            assert main([*rank, *flag, "--out", str(out)]) == 0
            seeds.append(json.loads(out.read_text())["seed"])
        assert seeds == [42, 7, 5, 0]


class TestManifestValidationThroughCli:
    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            samples={"1": ([0.0, 0.01], [0.0, 1.0], {"speed": 1.0, "laser_power": 2.0})},
        )
        assert main(["ingest", "--manifest", str(path)]) == 2
        assert "laser_power" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "rank"])
    def test_empty_manifest_exits_2(self, suite_dir, tmp_path, capsys, command):
        path = write_manifest(tmp_path, samples={})
        argv = {
            "ingest": ["ingest", "--manifest", str(path)],
            "rank": ["rank", "--sources", str(path),
                     "--target", manifest_of(suite_dir, "metal_plateau")],
        }[command]
        assert main(argv) == 2
        assert "non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("sample_id", ["../../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_sample_id_that_is_not_a_file_name_exits_2(self, suite_dir, tmp_path, capsys, command, sample_id):
        # The id names predictions/<id>.csv and save_dataset's <id>.csv.
        manifest = json.loads((suite_dir / "metal_plateau" / "manifest.json").read_text(encoding="utf-8"))
        for sample in manifest["samples"]:
            sample["file"] = str(suite_dir / "metal_plateau" / sample["file"])
        manifest["samples"][3]["id"] = sample_id
        path = tmp_path / "data" / "manifest.json"
        path.parent.mkdir()
        path.write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "runs" / "run"
        argv = {
            "ingest": ["ingest", "--manifest", str(path)],
            "pipeline": ["pipeline", "--variant", "vanilla", "--target", str(path),
                         "--seed", "0", "--out", str(out), *FAST_TRAIN],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'metal_plateau'" in err and repr(sample_id) in err
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["data", "data/manifest.json"]

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
    @pytest.mark.parametrize("command", ["ingest", "rank"])
    def test_dataset_name_that_is_not_a_file_name_exits_2(self, suite_dir, tmp_path, capsys, command, name):
        # The name prefixes rank --dump-dtw's <name>_{local,cumulative,path}.csv.
        manifest = json.loads((suite_dir / "poly_plateau" / "manifest.json").read_text(encoding="utf-8"))
        for sample in manifest["samples"]:
            sample["file"] = str(suite_dir / "poly_plateau" / sample["file"])
        manifest["name"] = name
        path = tmp_path / "data" / "manifest.json"
        path.parent.mkdir()
        path.write_text(json.dumps(manifest), encoding="utf-8")
        argv = {
            "ingest": ["ingest", "--manifest", str(path)],
            "rank": ["rank", "--sources", str(path), "--target", manifest_of(suite_dir, "metal_plateau"),
                     "--grid-n", "8", "--dump-dtw", str(tmp_path / "out" / "dump")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"dataset name {name!r} cannot name a file" in err
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["data", "data/manifest.json"]

    @pytest.mark.parametrize("command", ["rank", "pretrain", "pipeline"])
    def test_repeated_source_exits_2(self, suite_dir, tmp_path, capsys, command):
        # Two --sources naming one dataset would pool its curves twice.
        source = manifest_of(suite_dir, "poly_plateau")
        out = tmp_path / "out"
        rest = {
            "rank": ["--target", manifest_of(suite_dir, "metal_plateau"), "--out", str(out)],
            "pretrain": ["--out", str(out), *FAST_TRAIN],
            "pipeline": ["--variant", "tl_all", "--target", manifest_of(suite_dir, "metal_plateau"),
                         "--out", str(out), *FAST_TRAIN],
        }[command]
        capsys.readouterr()
        assert main([command, "--sources", source, "--sources", source, "--seed", "0", *rest]) == 2
        assert capsys.readouterr() == ("", "error: duplicate dataset name 'poly_plateau'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "pipeline"])
    def test_target_among_sources_exits_2(self, suite_dir, tmp_path, capsys, command):
        # A target among the sources would be ranked against itself and selected,
        # and pipeline would pretrain on the target's own test curves.
        target = manifest_of(suite_dir, "metal_plateau")
        out, dump = tmp_path / "out", tmp_path / "dump"
        rest = {
            "rank": ["--out", str(out), "--dump-dtw", str(dump)],
            "pipeline": ["--variant", "tl_all", "--out", str(out), *FAST_TRAIN],
        }[command]
        capsys.readouterr()
        assert main([command, "--sources", target, "--sources", manifest_of(suite_dir, "poly_plateau"),
                     "--target", target, "--seed", "0", *rest]) == 2
        assert capsys.readouterr() == ("", "error: duplicate dataset name 'metal_plateau'\n")
        assert not out.exists() and not dump.exists()

    def test_nan_parameter_exits_2(self, tmp_path, capsys):
        # json.dumps writes the literal NaN, which the loader reads as a number; the string "NaN" is not one.
        path = write_manifest(
            tmp_path, samples={"1": ([0.0, 0.01], [0.0, 1.0], {"speed": float("nan")})}
        )
        assert main(["ingest", "--manifest", str(path)]) == 2
        assert "parameter 'speed' must be a finite number, got nan" in capsys.readouterr().err
