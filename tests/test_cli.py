import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import soilyield
from soilyield import cli, forest, persist, pipeline
from soilyield.cli import main
from soilyield.metrics import mae, rmse
from soilyield.persist import load_model, save_model
from soilyield.pipeline import RunConfig
from soilyield.report import ModelScore, build_report, write_comparison_csv

GOLDEN_TRAIN_LOG = """\
input: synthetic_soil.csv
rows_read: 50
rows_dropped: 0
rows_kept: 50
train_rows: 40
test_rows: 10
seed: 3
test_ratio: 0.2
model mlr: training_r2=0.409894 solver=cholesky file=model_mlr.json
model ridge: training_r2=0.374687 lambda=1.0 solver=cholesky file=model_ridge.json
model forest: training_r2=0.881736 trees=20 oob_r2=-0.041949 file=model_forest.json
"""

# SHA-256 of the model files the ``trained`` fixture writes.
GOLDEN_MODEL_DIGESTS = {
    "mlr": "6d37dd0ac039cc94f0f4cddf31c7d431873c65a87dfd5f5d6cb4a0824e41ed03",
    "ridge": "c631eacbd27d15a5d53a3807ed9555830b7c2dbea41984b391963f53a5b489b5",
    "forest": "fa596a243e0d397d8e25ccb5115e20e25cd42739f0e4f703d1faf529f606e4d8",
}

# SHA-256 of what ``evaluate`` writes for the ``trained`` fixture's three models at seed 3.
GOLDEN_EVALUATE_DIGESTS = {
    "comparison.csv": "67cd9428a991d8d91ae9cd259b2e14e41fb4bae7d551214cc20bdd178a28d2c3",
    "comparison.svg": "d9a49c5d2bdf1750c5505e2588789b175a4ba2ff19db1241a0277f7940b44c43",
}


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


def synth_csv(directory: Path, n=50, seed=3) -> Path:
    assert main(["synth", "--n", str(n), "--seed", str(seed),
                 "--output-dir", str(directory)]) == 0
    return directory / "synthetic_soil.csv"


def with_column(csv_path: Path, path: Path, column: str, value) -> Path:
    """A copy of ``csv_path`` at ``path`` whose ``column`` holds ``value(i)`` in data row i."""
    lines = csv_path.read_text().splitlines()
    at = lines[0].split(",").index(column)
    rows = [line.split(",") for line in lines[1:]]
    for i, cells in enumerate(rows):
        cells[at] = value(i)
    path.write_text("\n".join([lines[0]] + [",".join(cells) for cells in rows]) + "\n")
    return path


def scale_columns(csv_path: Path, path: Path, powers: dict) -> Path:
    """A copy of ``csv_path`` at ``path`` with each column ``c`` of ``powers`` times 10**powers[c]."""
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    factors = [10.0 ** powers.get(name, 0) for name in header]
    rows = [",".join(repr(float(v) * f) for v, f in zip(line.split(","), factors))
            for line in lines[1:]]
    path.write_text("\n".join([lines[0]] + rows) + "\n")
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A shared synth + train run used by the read-only command tests."""
    out = tmp_path_factory.mktemp("trained")
    csv_path = synth_csv(out)
    assert main(["train", "--input", str(csv_path), "--output-dir", str(out),
                 "--seed", "3", "--trees", "20"]) == 0
    return out, csv_path


class TestSynth:
    def test_deterministic_and_golden_hashed(self, tmp_path):
        a = synth_csv(tmp_path / "a", n=500, seed=7)
        b = synth_csv(tmp_path / "b", n=500, seed=7)
        assert a.read_bytes() == b.read_bytes()
        # Frozen after the first verified run.
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "e9f5e3690845fad60321c66daa360f3c315c0311b95eae90f4779ff1709630ae"
        )

    def test_ph_values_within_range(self, tmp_path):
        path = synth_csv(tmp_path, n=200, seed=1)
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        ph_col = header.index("pH")
        values = [float(r.split(",")[ph_col]) for r in rows[1:]]
        assert min(values) >= 4.0 and max(values) <= 9.0

    def test_two_seeds_differ_in_yield_same_schema(self, tmp_path):
        a = synth_csv(tmp_path / "a", n=30, seed=1)
        b = synth_csv(tmp_path / "b", n=30, seed=2)
        a_lines, b_lines = a.read_text().splitlines(), b.read_text().splitlines()
        assert a_lines[0] == b_lines[0]
        assert a_lines[1:] != b_lines[1:]

    def test_too_few_rows_is_validation_error(self, tmp_path, capsys):
        code, _, err = run(["synth", "--n", "5", "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "error" in err


class TestTrain:
    def test_writes_three_models_and_golden_log(self, trained):
        out, _ = trained
        for kind in ("mlr", "ridge", "forest"):
            assert (out / f"model_{kind}.json").exists()
        assert (out / "train_log.txt").read_text() == GOLDEN_TRAIN_LOG
        echoed = json.loads((out / "run_config.json").read_text())
        assert echoed["seed"] == 3 and echoed["trees"] == 20

    def test_model_files_are_golden_hashed(self, trained):
        out, _ = trained
        for kind, digest in GOLDEN_MODEL_DIGESTS.items():
            assert hashlib.sha256((out / f"model_{kind}.json").read_bytes()).hexdigest() == digest

    def test_byte_order_mark_trains_identical_models(self, trained, tmp_path):
        _, csv_path = trained
        bom = tmp_path / "bom" / csv_path.name
        bom.parent.mkdir()
        bom.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        out = tmp_path / "out"
        assert main(["train", "--input", str(bom), "--output-dir", str(out),
                     "--seed", "3", "--trees", "20"]) == 0
        for kind, digest in GOLDEN_MODEL_DIGESTS.items():
            assert hashlib.sha256((out / f"model_{kind}.json").read_bytes()).hexdigest() == digest
        assert (out / "train_log.txt").read_text() == GOLDEN_TRAIN_LOG

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_forest_training_r2_comes_from_the_fit(self, trained, tmp_path, monkeypatch, workers):
        # The fit routes each training row once per tree; train routes none of them again.
        def second_routing(*args):
            raise AssertionError("train routed its training rows through predict_forest")

        monkeypatch.setattr(pipeline, "predict_forest", second_routing)
        _, csv_path = trained
        out = tmp_path / "out"
        assert main(["train", "--input", str(csv_path), "--output-dir", str(out),
                     "--seed", "3", "--trees", "20", "--workers", workers]) == 0
        assert (out / "train_log.txt").read_text() == GOLDEN_TRAIN_LOG

    def test_blank_lines_are_not_rows(self, trained, tmp_path):
        _, csv_path = trained
        lines = csv_path.read_text().splitlines()
        spaced = tmp_path / "spaced" / csv_path.name
        spaced.parent.mkdir()
        spaced.write_text("\n".join(lines[:10] + ["", ""] + lines[10:]) + "\n\n\n")
        out = tmp_path / "out"
        assert main(["train", "--input", str(spaced), "--output-dir", str(out),
                     "--seed", "3", "--trees", "20"]) == 0
        assert (out / "train_log.txt").read_text() == GOLDEN_TRAIN_LOG
        for kind, digest in GOLDEN_MODEL_DIGESTS.items():
            assert hashlib.sha256((out / f"model_{kind}.json").read_bytes()).hexdigest() == digest

    def test_header_and_blank_lines_only_exits_2(self, trained, tmp_path, capsys):
        _, csv_path = trained
        blank = tmp_path / "blank.csv"
        blank.write_text(csv_path.read_text().splitlines()[0] + "\n\n\n")
        code, _, err = run(["train", "--input", str(blank), "--output-dir", str(tmp_path)],
                           capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "no data rows" in err

    def test_repeated_header_column_exits_2(self, trained, tmp_path, capsys):
        _, csv_path = trained
        lines = csv_path.read_text().splitlines()
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join([lines[0] + ",pH"] + [r + ",7.0" for r in lines[1:]]) + "\n")
        code, _, err = run(["train", "--input", str(doubled), "--output-dir", str(tmp_path)],
                           capsys)
        assert code == 2
        assert err.count("\n") == 1 and "pH" in err

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        csv_path = synth_csv(tmp_path, n=40, seed=5)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["train", "--input", str(csv_path), "--output-dir", str(out),
                         "--seed", "5", "--trees", "10"]) == 0
            outs.append(out)
        for name in ("model_mlr.json", "model_ridge.json", "model_forest.json",
                     "train_log.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_target_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        lines = synth_csv(tmp_path, n=20, seed=1).read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, h in enumerate(header) if h != "yield"]
        bad.write_text("\n".join(",".join(r.split(",")[i] for i in keep) for r in lines) + "\n")
        code, _, err = run(["train", "--input", str(bad), "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "yield" in err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(["train", "--input", str(tmp_path / "none.csv"),
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 2

    def test_constant_column_writes_strict_json(self, tmp_path, capsys):
        # A constant training column makes the Gram matrix singular, so its
        # condition estimate is infinite, which strict JSON cannot hold.
        lines = synth_csv(tmp_path, n=120, seed=3).read_text().splitlines()
        cu = lines[0].split(",").index("Cu")
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            cells[cu] = "1.5"
        flat = tmp_path / "flat_cu.csv"
        flat.write_text("\n".join([lines[0]] + [",".join(cells) for cells in rows]) + "\n")
        assert main(["train", "--input", str(flat), "--output-dir", str(tmp_path),
                     "--model", "mlr"]) == 0
        model_path = tmp_path / "model_mlr.json"

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        obj = json.loads(model_path.read_text(), parse_constant=reject)
        assert obj["payload"]["diagnostics"]["condition_estimate"] is None
        bundle = load_model(model_path)
        assert bundle.model.diagnostics.condition_estimate == math.inf
        resaved = tmp_path / "resaved.json"
        save_model(bundle, resaved)
        assert resaved.read_bytes() == model_path.read_bytes()
        code, _, _ = run(["predict", str(model_path), "--input", str(flat),
                          "--output-dir", str(tmp_path / "pred")], capsys)
        assert code == 0

    def test_constant_target_names_the_column_and_file(self, tmp_path, capsys):
        # The mean of forty 7.77s is not 7.77: R² used to log 1.000000 for a constant target.
        flat = with_column(synth_csv(tmp_path, n=40), tmp_path / "flat.csv", "yield",
                           lambda i: "7.77")
        out = tmp_path / "out"
        code, _, err = run(["train", "--input", str(flat), "--output-dir", str(out)], capsys)
        assert code == 3
        assert err == ("error: target column 'yield' of flat.csv is constant over its "
                       "32 training rows\n")
        assert not out.exists()

    @pytest.mark.parametrize("model", ["all", "ridge", "forest"])
    def test_split_under_two_training_rows_exits_2_naming_test_ratio(self, tmp_path, capsys,
                                                                     model):
        csv_path = synth_csv(tmp_path, n=10)
        out = tmp_path / "out"
        code, _, err = run(["train", "--input", str(csv_path), "--output-dir", str(out),
                            "--test-ratio", "0.9", "--model", model], capsys)
        assert code == 2
        assert err == ("error: --test-ratio 0.9 leaves 1 training row of 10; "
                       "training needs at least 2\n")
        assert not out.exists()

    def test_negative_lambda_exits_2_before_writing(self, tmp_path, capsys):
        # The ridge fit refuses it after the mlr model used to be saved.
        csv_path = synth_csv(tmp_path, n=30)
        out = tmp_path / "out"
        code, _, err = run(["train", "--input", str(csv_path), "--output-dir", str(out),
                            "--lambda", "-1", "--trees", "3"], capsys)
        assert code == 2
        assert err.startswith("error: lambda must be a nonnegative real") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("power", [200, -200], ids=["overflow", "underflow"])
    def test_target_whose_sums_of_squares_leave_float_range_exits_3(self, tmp_path, capsys,
                                                                   power):
        # Training R² used to log nan (overflow) or call the target constant (underflow).
        scaled = scale_columns(synth_csv(tmp_path, n=40), tmp_path / "scaled.csv",
                               {"yield": power})
        out = tmp_path / "out"
        code, _, err = run(["train", "--input", str(scaled), "--output-dir", str(out),
                            "--trees", "3"], capsys)
        assert code == 3
        assert err == ("error: the sums of squares overflow or underflow float64; "
                       "rescale the values\n")
        assert not out.exists()

    def test_constant_target_exits_3_before_writing(self, tmp_path, capsys):
        # Training R² is undefined for a constant target; the first model used to be
        # saved before its log line found that out.
        flat = with_column(synth_csv(tmp_path, n=40), tmp_path / "flat.csv", "yield",
                           lambda i: "2.5")
        capsys.readouterr()
        out = tmp_path / "out"
        code, stdout, err = run(["train", "--input", str(flat), "--output-dir", str(out),
                                 "--trees", "3"], capsys)
        assert code == 3
        assert stdout == "" and err.count("\n") == 1 and "constant" in err
        assert not out.exists()

    def test_all_constant_features_exit_3_before_writing(self, tmp_path, capsys):
        # With every feature constant, the mlr solve has no direction to fit.
        flat = synth_csv(tmp_path, n=120)
        for column in flat.read_text().splitlines()[0].split(",")[:-1]:  # all but yield
            flat = with_column(flat, tmp_path / "flat.csv", column, lambda i: "1.5")
        capsys.readouterr()
        out = tmp_path / "out"
        code, stdout, err = run(["train", "--input", str(flat), "--output-dir", str(out),
                                 "--model", "mlr"], capsys)
        assert code == 3
        assert stdout == ""
        assert err == "error: design matrix has no usable directions (all features constant)\n"
        assert not out.exists()

    def test_column_whose_spread_overflows_exits_2_naming_it(self, tmp_path, capsys):
        # Both bounds are finite but max - min is not: scaling would turn rows into NaN.
        huge = with_column(synth_csv(tmp_path, n=40), tmp_path / "huge.csv", "pH",
                           lambda i: "1e308" if i % 2 else "-1e308")
        out = tmp_path / "out"
        code, _, err = run(["train", "--input", str(huge), "--output-dir", str(out)], capsys)
        assert code == 2
        assert err == "error: column 'pH': max - min overflows\n"
        assert not out.exists()

    def test_single_model_selection(self, tmp_path):
        csv_path = synth_csv(tmp_path, n=30, seed=2)
        assert main(["train", "--input", str(csv_path), "--output-dir", str(tmp_path),
                     "--model", "ridge", "--lambda", "2.5"]) == 0
        assert (tmp_path / "model_ridge.json").exists()
        assert not (tmp_path / "model_mlr.json").exists()
        assert load_model(tmp_path / "model_ridge.json").model.regularization_lambda == 2.5


class TestEvaluate:
    def test_scores_and_artifacts(self, trained, capsys, tmp_path):
        out, csv_path = trained
        models = [str(out / f"model_{k}.json") for k in ("forest", "ridge", "mlr")]
        code, stdout, _ = run(["evaluate", *models, "--input", str(csv_path),
                               "--output-dir", str(tmp_path), "--seed", "3"], capsys)
        assert code == 0
        assert stdout.splitlines()[0].split()[0] == "model"
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "comparison.svg").exists()

    def test_reordered_columns_score_identically(self, trained, tmp_path, capsys):
        out, csv_path = trained
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        order = list(reversed(range(len(header))))
        reordered = tmp_path / "reordered.csv"
        reordered.write_text(
            "\n".join(",".join(r.split(",")[i] for i in order) for r in lines) + "\n"
        )
        model = str(out / "model_forest.json")
        code, base_out, _ = run(["evaluate", model, "--input", str(csv_path),
                                 "--output-dir", str(tmp_path / "a"), "--seed", "3"], capsys)
        assert code == 0
        code, reord_out, _ = run(["evaluate", model, "--input", str(reordered),
                                  "--output-dir", str(tmp_path / "b"), "--seed", "3"], capsys)
        assert code == 0

        def table_lines(text):
            return [line for line in text.splitlines() if not line.startswith("wrote ")]

        assert table_lines(base_out) == table_lines(reord_out)
        assert (tmp_path / "a" / "comparison.csv").read_bytes() == \
               (tmp_path / "b" / "comparison.csv").read_bytes()

    def test_model_for_another_target_exits_2(self, trained, tmp_path, capsys):
        _, csv_path = trained
        lines = csv_path.read_text().splitlines()
        extra = tmp_path / "height.csv"
        extra.write_text("\n".join([lines[0] + ",height"]
                                   + [f"{r},{1.5 + i % 7 * 0.25}" for i, r in enumerate(lines[1:])])
                         + "\n")
        out = tmp_path / "out"
        assert main(["train", "--input", str(extra), "--output-dir", str(out), "--seed", "3",
                     "--model", "mlr", "--target", "height"]) == 0
        code, stdout, err = run(["evaluate", str(out / "model_mlr.json"), "--input", str(extra),
                                 "--output-dir", str(out), "--seed", "3"], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "'height'" in err and "'yield'" in err
        assert not (out / "comparison.csv").exists()
        code, _, _ = run(["evaluate", str(out / "model_mlr.json"), "--input", str(extra),
                          "--output-dir", str(out), "--seed", "3", "--target", "height"], capsys)
        assert code == 0

    @pytest.mark.parametrize("change", ["seed", "test_ratio", "input"])
    def test_model_from_another_split_exits_2(self, trained, tmp_path, capsys, change):
        out, csv_path = trained
        flags = {"seed": ["--seed", "8"], "test_ratio": ["--seed", "3", "--test-ratio", "0.3"],
                 "input": ["--seed", "3"]}[change]
        if change == "input":  # one row fewer: every row after it lands in another split
            shorter = tmp_path / "shorter.csv"
            shorter.write_text("\n".join(csv_path.read_text().splitlines()[:-1]) + "\n")
            csv_path = shorter
        models = [out / f"model_{k}.json" for k in ("forest", "ridge", "mlr")]
        code, _, err = run(["evaluate", *map(str, models), "--input", str(csv_path),
                            "--output-dir", str(tmp_path / "eval"), *flags], capsys)
        assert code == 2
        assert err == (f"error: {models[0]}: model was not trained on this split "
                       "(seed/test_ratio/input differ)\n")
        assert not (tmp_path / "eval" / "comparison.csv").exists()

    def test_split_check_is_necessary_not_sufficient(self, tmp_path, capsys):
        # On distinct rows no other seed's split shares the training extremes; with
        # every row written twice one can, and its model is scored as if it fit.
        csv_path = synth_csv(tmp_path, n=40, seed=7)
        doubled = tmp_path / "doubled.csv"
        lines = csv_path.read_text().splitlines()
        twice = [row for row in lines[1:] for _ in range(2)]
        doubled.write_text("\n".join([lines[0]] + twice) + "\n")
        refused = "model was not trained on this split (seed/test_ratio/input differ)\n"
        for data, trained_at, others, code in ((csv_path, 0, range(1, 31), 2),
                                               (doubled, 2, [3], 0)):
            out = tmp_path / data.stem
            flags = ["--input", str(data), "--output-dir", str(out)]
            assert main(["train", *flags, "--model", "mlr", "--seed", str(trained_at)]) == 0
            for t in others:
                got, _, err = run(["evaluate", str(out / "model_mlr.json"), *flags,
                                   "--seed", str(t)], capsys)
                assert (got, err.endswith(refused)) == (code, code == 2), t

    def test_second_model_of_one_kind_exits_2(self, trained, tmp_path, capsys):
        # comparison.csv names a model by its kind, and compare refuses a repeated one.
        out, csv_path = trained
        model = str(out / "model_forest.json")
        code, _, err = run(["evaluate", model, model, "--input", str(csv_path),
                            "--output-dir", str(tmp_path), "--seed", "3"], capsys)
        assert code == 2
        assert err == f"error: {model}: a second forest model to evaluate\n"
        assert not (tmp_path / "comparison.csv").exists()

    def test_same_split_scores_are_unchanged(self, trained, tmp_path, capsys):
        out, csv_path = trained
        models = [str(out / f"model_{k}.json") for k in ("forest", "ridge", "mlr")]
        code, _, _ = run(["evaluate", *models, "--input", str(csv_path),
                          "--output-dir", str(tmp_path), "--seed", "3"], capsys)
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("comparison.csv", "comparison.svg")}
        assert digests == GOLDEN_EVALUATE_DIGESTS

    def test_one_row_test_split_exits_2_before_reading_a_model(self, tmp_path, capsys):
        csv_path = synth_csv(tmp_path, n=10)
        flags = ["--input", str(csv_path), "--output-dir", str(tmp_path), "--test-ratio", "0.1"]
        assert main(["train", "--model", "forest", "--trees", "5", *flags]) == 0
        for model in (tmp_path / "model_forest.json", tmp_path / "missing.json"):
            code, _, err = run(["evaluate", str(model), *flags], capsys)
            assert code == 2
            assert err == "error: --test-ratio 0.1 leaves 1 test row of 10; scoring needs at least 2\n"
        assert not (tmp_path / "comparison.csv").exists()

    def test_zero_variance_test_target_exits_3(self, trained, tmp_path, capsys):
        out, csv_path = trained
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        ycol = header.index("yield")
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[ycol] = "42.0"
            rows.append(",".join(cells))
        flat = tmp_path / "flat.csv"
        flat.write_text(lines[0] + "\n" + "\n".join(rows) + "\n")
        code, _, err = run(["evaluate", str(out / "model_mlr.json"), "--input", str(flat),
                            "--output-dir", str(tmp_path), "--seed", "3"], capsys)
        assert code == 3
        assert "constant" in err


class TestPredict:
    def test_bundled_sample_rows_get_predictions(self, trained, tmp_path, capsys):
        out, _ = trained
        sample = resources.files("soilyield").joinpath("data/sample_soil.csv")
        code, _, _ = run(["predict", str(out / "model_forest.json"),
                          "--input", str(sample), "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0].endswith(",predicted_yield")
        assert len(lines) == 4  # header + 2 rows + audit footer
        assert lines[-1].startswith("# clamped_cells=")
        predicted = float(lines[1].split(",")[-1])
        assert np.isfinite(predicted) and predicted >= 0

    def test_empty_prediction_file_exits_2(self, trained, tmp_path, capsys):
        out, _ = trained
        empty = tmp_path / "empty.csv"
        empty.write_text("pH,EC,OC,P,K,Ca,Mg,S,Zn,Fe,Mn,Cu\n")
        code, _, err = run(["predict", str(out / "model_mlr.json"),
                            "--input", str(empty), "--output-dir", str(tmp_path)], capsys)
        assert code == 2

    def test_predictions_match_in_memory_model(self, trained, tmp_path, capsys):
        from soilyield.dataset import drop_incomplete_rows, load_csv, soil_schema
        from soilyield.pipeline import predict_bundle

        out, csv_path = trained
        model_path = out / "model_forest.json"
        code, _, _ = run(["predict", str(model_path), "--input", str(csv_path),
                          "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        written = np.array([float(r.split(",")[-1]) for r in lines[1:-1]])

        header = csv_path.read_text().splitlines()[0].split(",")
        d = drop_incomplete_rows(load_csv(csv_path, soil_schema(header, target=None)))
        expected, _ = predict_bundle(load_model(model_path), d)
        assert np.array_equal(written, expected)

    def test_rows_past_one_write_block_are_csv_writer_bytes(self, trained, tmp_path, capsys):
        from soilyield.dataset import drop_incomplete_rows, load_csv, soil_schema
        from soilyield.pipeline import predict_bundle

        out, _ = trained
        model_path = out / "model_forest.json"
        csv_path = synth_csv(tmp_path / "big", n=2500, seed=9)  # 1024-row blocks: 2 and a part
        code, _, _ = run(["predict", str(model_path), "--input", str(csv_path),
                          "--output-dir", str(tmp_path)], capsys)
        assert code == 0

        d = drop_incomplete_rows(load_csv(csv_path, soil_schema(FEATURES, target=None)))
        predictions, clamped = predict_bundle(load_model(model_path), d)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(list(d.column_names) + ["predicted_yield"])
        writer.writerows(row + [p] for row, p in zip(d.rows, predictions.tolist()))
        expected.write(f"# clamped_cells={clamped} rows_dropped=0\n")
        assert (tmp_path / "predictions.csv").read_text() == expected.getvalue()

    def test_own_output_predicts_the_same_without_drops(self, trained, tmp_path, capsys):
        # The footer of predictions.csv is a comment line, not a row with blank cells.
        out, csv_path = trained
        model_path = str(out / "model_forest.json")
        first, second = tmp_path / "first" / "predictions.csv", tmp_path / "second"
        assert run(["predict", model_path, "--input", str(csv_path),
                    "--output-dir", str(first.parent)], capsys)[0] == 0
        assert run(["predict", model_path, "--input", str(first),
                    "--output-dir", str(second)], capsys)[0] == 0
        again = (second / "predictions.csv").read_text()
        assert again.splitlines()[-1].endswith(" rows_dropped=0")
        assert again == first.read_text()


class TestModelFileReading:
    """A forest file's trees are cut out of its text where that is provably exact; a file
    the cut declines is read whole and predicts the same bytes."""

    @staticmethod
    def predict(model, csv_path, out, capsys):
        assert run(["predict", str(model), "--input", str(csv_path), "--output-dir", str(out)],
                   capsys)[0] == 0
        return (out / "predictions.csv").read_bytes()

    @pytest.mark.parametrize("variant", ["canonical", "trees-target", "indented", "escaped-key"])
    def test_declined_files_predict_the_same(self, trained, tmp_path, capsys, monkeypatch,
                                             variant):
        out, csv_path = trained
        canonical = out / "model_forest.json"
        expected = self.predict(canonical, csv_path, tmp_path / "expected", capsys)
        model = tmp_path / "model.json"
        if variant == "canonical":
            model = canonical
        elif variant == "trees-target":  # "trees" is then also the target's name
            header, rows = csv_path.read_text().split("\n", 1)
            renamed = tmp_path / "renamed.csv"
            renamed.write_text(header.replace("yield", "trees") + "\n" + rows)
            assert run(["train", "--input", str(renamed), "--output-dir", str(tmp_path),
                        "--seed", "3", "--trees", "20", "--model", "forest",
                        "--target", "trees"]) == 0
            model = tmp_path / "model_forest.json"
        elif variant == "indented":
            model.write_text(json.dumps(json.loads(canonical.read_text()), indent=1))
        else:
            model.write_text(canonical.read_text().replace('"trees"', '"\\u0074rees"'))

        whole_file_reads = []
        load_whole = persist._load_whole
        monkeypatch.setattr(persist, "_load_whole", lambda text, where: (
            whole_file_reads.append(where) or load_whole(text, where)))
        assert self.predict(model, csv_path, tmp_path / "got", capsys) == expected
        assert whole_file_reads == ([] if variant == "canonical" else [str(model)])


class TestNonUtf8Files:
    @pytest.mark.parametrize("kind", ["model", "csv", "config"])
    def test_error_names_the_file(self, trained, tmp_path, capsys, kind):
        out, csv_path = trained
        files = {"model": out / "model_forest.json", "csv": csv_path}
        if kind == "config":
            files["config"] = tmp_path / "cfg.json"
            files["config"].write_text("{}")
        bad = tmp_path / f"bad-{kind}"
        bad.write_bytes(b"\xff" + files[kind].read_bytes())
        files[kind] = bad
        argv = ["predict", str(files["model"]), "--input", str(files["csv"]),
                "--output-dir", str(tmp_path / "out")]
        if kind == "config":
            argv += ["--config", str(files["config"])]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8 text (") and err.count("\n") == 1


# Any JSON value, with the integers too large for a float and the non-finite floats.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from([10**400, -10**400, 2**63, 2**70, -(2**63)]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=1), st.integers()),
)


# The fields of a model file outside its trees, as paths; an integer picks a list entry.
SCALER_FIELDS = [(scaler, *rest) for scaler in ("feature_scaler", "target_scaler")
                 for rest in [(), ("columns",), ("columns", 0), ("min",), ("min", 0),
                              ("max",), ("max", 0)]]
COMMON_FIELDS = [("format_version",), ("feature_names",), ("feature_names", 0),
                 ("target_name",), *SCALER_FIELDS]
LINEAR_FIELDS = COMMON_FIELDS + [
    ("payload", "coefficients"), ("payload", "coefficients", 0), ("payload", "intercept"),
    ("payload", "lambda"), ("payload", "diagnostics"),
    ("payload", "diagnostics", "condition_estimate"),
    ("payload", "diagnostics", "training_r2"), ("payload", "diagnostics", "solver"),
]
NON_TREE_FIELDS = {
    "mlr": LINEAR_FIELDS,
    "ridge": LINEAR_FIELDS,
    "forest": COMMON_FIELDS + [("payload", "params"), ("payload", "oob_r2")] + [
        ("payload", "params", key) for key in (
            "n_trees", "max_depth", "min_samples_split", "min_samples_leaf", "max_features",
            "seed", "bootstrap")
    ],
}


def tree_chain(depth):
    """Preorder nodes of a tree whose splits each hold a leaf on the left."""
    nodes = []
    for _ in range(depth):
        nodes += [{"f": 0, "t": 0.5}, {"v": 1.0, "n": 1}]
    return nodes + [{"v": 2.0, "n": 1}]


DROP = object()  # as an edited value: remove the key instead
FEATURES = ["pH", "EC", "OC", "P", "K", "Ca", "Mg", "S", "Zn", "Fe", "Mn", "Cu"]


def predict_with_edited_model(trained, tmp_path, capsys, kind, path, value):
    """Replace (or with DROP, remove) the JSON value at ``path`` in a trained model file,
    then predict."""
    out, _ = trained
    obj = json.loads((out / f"model_{kind}.json").read_text())
    *parents, last = path
    node = obj
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return predict_with_model(obj, tmp_path, capsys)


def predict_with_model(obj, tmp_path, capsys):
    """Write ``obj`` as a model file, then predict the bundled sample with it."""
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(obj))
    sample = resources.files("soilyield").joinpath("data/sample_soil.csv")
    return run(["predict", str(damaged), "--input", str(sample),
                "--output-dir", str(tmp_path)], capsys)


class TestDamagedModelFiles:
    @pytest.mark.parametrize("kind, path, value", [
        ("forest", ("payload", "trees", 0, 0, "f"), -1),
        ("forest", ("payload", "trees", 0, 0, "f"), 99),
        ("forest", ("payload", "trees", 0, 0, "t"), math.nan),
        ("forest", ("payload", "trees", 0, -1, "v"), math.inf),
        ("forest", ("payload", "trees", 0), tree_chain(3000)[:-1]),
        ("ridge", ("payload", "coefficients", 0), -math.inf),
        ("mlr", ("payload", "intercept"), math.nan),
        ("mlr", ("feature_scaler", "min", 0), math.nan),
        ("mlr", ("encodings",), {"texture": {"loam": 0}}),
        ("forest", ("payload", "trees", 0, 0, "t"), 10**400),
        ("forest", ("payload", "trees", 0, -1, "n"), 0),
        ("forest", ("payload", "trees", 0, -1, "n"), -5),
        ("forest", ("payload", "trees", 0, -1, "n"), 2**70),
        ("forest", ("payload", "oob_r2"), 10**400),
        ("mlr", ("payload", "diagnostics", "training_r2"), -10**400),
        ("mlr", ("target_scaler", "max", 0), 10**400),
        ("mlr", ("feature_scaler", "min", 0), "0.5"),
        ("mlr", ("target_scaler", "min", 0), True),
        ("mlr", ("feature_scaler", "columns", 0), 7),
        ("forest", ("feature_names", 0), 7),
        ("mlr", ("feature_scaler", "columns"), [FEATURES[1], FEATURES[0], *FEATURES[2:]]),
        ("mlr", ("target_scaler", "columns"), ["not_yield"]),
        ("mlr", ("format_version",), True),
        ("forest", ("format_version",), 1.0),
        ("ridge", ("payload", "lambda"), math.nan),
        ("mlr", ("payload", "diagnostics", "condition_estimate"), -1.0),
        ("ridge", ("payload", "diagnostics", "solver"), "qr"),
        ("mlr", ("payload", "diagnostics", "training_r2"), 2.0),
        ("ridge", ("payload", "diagnostics", "training_r2"), DROP),
        ("forest", ("payload", "oob_r2"), math.inf),
        ("forest", ("payload", "oob_r2"), DROP),
        ("forest", ("payload", "params", "max_depth"), True),
        ("forest", ("payload", "params", "max_depth"), DROP),
        ("forest", ("payload", "params", "max_features"), 13),
        ("forest", ("payload", "params", "max_depth"), 10**400),
        ("forest", ("payload", "params", "min_samples_split"), 2**63),
        ("forest", ("payload", "params", "min_samples_leaf"), 10**400),
        ("ridge", ("payload", "lambda"), -1.0),
        ("ridge", ("payload", "coefficients"), [0.5]),
        ("mlr", ("feature_scaler", "min", 0), 1e300),
        ("forest", ("model_kind",), "svm"),
    ], ids=["feature-index-negative", "feature-index-past-end", "nan-threshold",
            "inf-leaf-value", "truncated-deep-chain", "inf-coefficient", "nan-intercept",
            "nan-scaler-min", "nonempty-encodings", "threshold-too-large-for-float",
            "leaf-count-zero", "leaf-count-negative", "leaf-count-past-int64",
            "oob-r2-too-large-for-float", "training-r2-too-large-for-float",
            "scaler-max-too-large-for-float",
            "string-feature-scaler-min", "bool-target-scaler-min", "number-scaler-column",
            "number-feature-name", "swapped-feature-scaler-columns",
            "renamed-target-scaler-column", "bool-format-version", "float-format-version",
            "nan-lambda", "negative-condition-estimate", "unknown-solver",
            "training-r2-above-one", "missing-training-r2", "inf-oob-r2", "missing-oob-r2",
            "bool-max-depth", "missing-max-depth", "max-features-past-end",
            "max-depth-past-int64", "min-samples-split-past-int64",
            "min-samples-leaf-past-int64", "negative-lambda", "too-few-coefficients",
            "scaler-min-above-max", "unknown-model-kind"])
    def test_predict_exits_2_with_one_line(self, trained, tmp_path, capsys, kind, path, value):
        code, _, err = predict_with_edited_model(trained, tmp_path, capsys, kind, path, value)
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'damaged.json'}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["mlr", "forest"])
    def test_target_scaler_spread_overflow_exits_2_naming_the_file(self, trained, tmp_path,
                                                                   capsys, kind):
        # Predictions used to come out as inf, with an overflow warning.
        out, _ = trained
        obj = json.loads((out / f"model_{kind}.json").read_text())
        obj["target_scaler"].update(min=[-1e308], max=[1e308])
        code, stdout, err = predict_with_model(obj, tmp_path, capsys)
        assert code == 2
        assert stdout == "" and err.count("\n") == 1
        assert "damaged.json: target_scaler: column 'yield': max - min overflows" in err
        assert not (tmp_path / "predictions.csv").exists()

    def test_top_level_array_names_the_file(self, trained, tmp_path, capsys):
        out, _ = trained
        code, _, err = predict_with_model([json.loads((out / "model_forest.json").read_text())],
                                          tmp_path, capsys)
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'damaged.json'}: ") and err.count("\n") == 1

    def test_deep_tree_loads_without_depth_cap(self, trained, tmp_path, capsys):
        code, _, _ = predict_with_edited_model(
            trained, tmp_path, capsys, "forest", ("payload", "trees", 0), tree_chain(3000))
        assert code == 0

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_tree_damage_exits_0_or_2(self, trained, tmp_path, capsys, data):
        out, _ = trained
        obj = json.loads((out / "model_forest.json").read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            tree = data.draw(st.sampled_from(obj["payload"]["trees"]))
            if not tree:
                continue
            pos = data.draw(st.integers(0, len(tree) - 1))
            key = data.draw(st.sampled_from("ftvn"))
            edit = data.draw(st.sampled_from(["set", "drop-key", "drop-node"]))
            if edit == "set":
                tree[pos][key] = data.draw(JSON_VALUES)
            elif edit == "drop-key":
                tree[pos].pop(key, None)
            else:
                del tree[pos]
        code, _, err = predict_with_model(obj, tmp_path, capsys)
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_other_field_damage_exits_0_or_2(self, trained, tmp_path, capsys, data):
        out, _ = trained
        kind = data.draw(st.sampled_from(["mlr", "ridge", "forest"]))
        obj = json.loads((out / f"model_{kind}.json").read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            *parents, last = data.draw(st.sampled_from(NON_TREE_FIELDS[kind]))
            node = obj
            for key in parents:
                node = node.get(key) if isinstance(node, dict) else None
            if isinstance(last, int):
                if not isinstance(node, list) or not node:
                    continue
                last %= len(node)
            elif not isinstance(node, dict):
                continue
            if data.draw(st.booleans()):
                node[last] = data.draw(JSON_VALUES)
            elif isinstance(node, list) or last in node:
                del node[last]
        code, _, err = predict_with_model(obj, tmp_path, capsys)
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


# A clean table that test_any_csv_damage_exits_0_2_or_3 damages.
INGEST_ROWS = np.round(np.random.default_rng(5).uniform(0.5, 60.0, size=(24, 13)), 3).tolist()
ODD_CELLS = ["", " ", "abc", "nan", "-inf", "1e400", "1e300", '"1,5"', '"2\n3"', '"4"',
             '"unclosed', "\x00", "7\x00", "x" * 131073]


@st.composite
def damaged_csvs(draw):
    """Bytes of a soil CSV with ragged rows, odd cells, blank lines, a BOM, invalid
    UTF-8 or a cut."""
    header = FEATURES + ["yield"]
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(header)))
        header[i:i] = [draw(st.sampled_from(["", "junk", "pH", '"Zn"', " yield ", '"a\nb"']))]
    n_rows = len(INGEST_ROWS) - draw(st.integers(0, len(INGEST_ROWS)))  # mostly near all
    rows = [header] + [[repr(v) for v in row] for row in INGEST_ROWS[:n_rows]]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell", "truncate", "extend", "blank"]))
        if edit == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif edit == "truncate":
            del rows[i][draw(st.integers(0, len(rows[i]))):]
        elif edit == "extend":
            rows[i].append(draw(st.sampled_from(ODD_CELLS)))
        else:
            rows.insert(i, [])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(",".join(r) for r in rows) + draw(st.sampled_from(["", newline]))).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 4)) == 0:
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00"])) + data[pos:]
    if draw(st.integers(0, 6)) == 0:
        data = data[:len(data) - draw(st.integers(0, len(data)))]
    return data


class TestCsvIngestion:
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=damaged_csvs())
    @example(data=b"")
    @example(data=b"\xef\xbb\xbf\n\n")
    @example(data=",".join(FEATURES + ["yield"]).encode() + b"\n\n")
    def test_any_csv_damage_exits_0_2_or_3(self, tmp_path, capsys, data):
        path = tmp_path / "soil.csv"
        path.write_bytes(data)
        code, _, err = run(["train", "--input", str(path), "--output-dir", str(tmp_path / "out"),
                            "--trees", "3"], capsys)
        assert code in (0, 2, 3)
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1


# Any JSON value, nested containers included; the ints stay small enough to train
# quickly, or lie past what a field can hold.
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats()
    | st.sampled_from([2**63, 2**64, -(2**63), 10**400, -(10**400), 1e300])
    | st.text(max_size=3) | st.sampled_from(["all", "forest", "ridge", "yield", "pH", "0.2"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4)
# Values of each type a RunConfig annotation names, edges included; strings are
# the few a field can take, or paths under the working directory.
CONFIG_TYPED = {
    "int": st.integers(-3, 30) | st.sampled_from([2**63 - 1, 2**63, 2**64]),
    "float": st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 1e-300, 1e300, 2**63, -1]),
    "bool": st.booleans(),
    "None": st.none(),
}
CONFIG_STRINGS = {
    "input_path": ["soil.csv", "missing.csv", ""],
    "output_dir": ["out", "a/b", ""],
    "model": ["all", "mlr", "ridge", "forest", "trees"],
    "target_column": ["yield", "pH", "N", "Yield", ""],
}


@st.composite
def config_objects(draw):
    """A --config object of RunConfig keys, each value mostly of a type its field takes
    and otherwise any JSON value, now and then with an unknown key."""
    config = {}
    fields = dataclasses.fields(RunConfig)
    for f in draw(st.lists(st.sampled_from(fields), unique_by=lambda f: f.name, max_size=6)):
        if draw(st.integers(0, 9)) == 9:
            config[f.name] = draw(CONFIG_VALUES)
            continue
        kinds = f.type.split(" | ")
        typed = [st.sampled_from(CONFIG_STRINGS[f.name]) if kind == "str" else CONFIG_TYPED[kind]
                 for kind in kinds]
        value = draw(st.one_of(typed))
        if f.name == "trees" and isinstance(value, int) and value > 30:
            value = 2**63  # past what ForestParams takes, rather than a forest that never ends
        config[f.name] = value
    if draw(st.integers(0, 4)) == 4:
        config[draw(st.sampled_from(["tress", "", "Seed"]))] = draw(CONFIG_VALUES)
    return config


class TestConfigJson:
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=config_objects(), input_flag=st.booleans())
    @example(config={"test_ratio": 0.65}, input_flag=False)  # 10 training rows for mlr
    def test_any_config_exits_0_or_2(self, tmp_path, capsys, monkeypatch, config, input_flag):
        # --input on the command line, unless the config names one and input_flag is set.
        monkeypatch.chdir(tmp_path)
        if not (tmp_path / "soil.csv").exists():
            (tmp_path / "soil.csv").write_bytes(synth_csv(tmp_path / "synth", n=30).read_bytes())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["train", "--config", str(cfg)]
        if "input_path" not in config or not input_flag:
            args += ["--input", "soil.csv"]
        if "trees" not in config:
            args += ["--trees", "3"]
        code, _, err = run(args, capsys)
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                             ids=["missing", "invalid-json", "array"])
    def test_bad_config_file_exits_2_naming_it(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        code, _, err = run(["synth", "--n", "10", "--output-dir", str(out),
                            "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(cfg) in err
        assert not out.exists()

    @pytest.mark.parametrize("model, code", [("all", 2), ("mlr", 2), ("ridge", 0), ("forest", 0)])
    def test_split_too_small_for_mlr_exits_2(self, tmp_path, capsys, model, code):
        # A test_ratio that leaves no more training rows than features used to exit 3.
        csv_path = synth_csv(tmp_path, n=30, seed=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"test_ratio": 0.65, "model": model, "trees": 3}))
        out = tmp_path / "out"
        result, _, err = run(["train", "--input", str(csv_path), "--output-dir", str(out),
                              "--config", str(cfg)], capsys)
        assert result == code
        if code == 2:
            assert err.startswith("error: mlr needs more training rows than features")
            assert err.count("\n") == 1 and not out.exists()


class TestCorrelate:
    def test_csv_has_unit_diagonal(self, trained, tmp_path, capsys):
        _, csv_path = trained
        code, _, _ = run(["correlate", "--input", str(csv_path),
                          "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        rows = (tmp_path / "correlation.csv").read_text().splitlines()
        labels = rows[0].split(",")[1:]
        for i, line in enumerate(rows[1:]):
            cells = line.split(",")
            assert cells[0] == labels[i]
            assert float(cells[1 + i]) == 1.0

    def test_golden_heatmap_snapshot(self, tmp_path, capsys):
        csv_path = synth_csv(tmp_path, n=20, seed=2)
        code, _, _ = run(["correlate", "--input", str(csv_path),
                          "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        digest = hashlib.sha256((tmp_path / "correlation_heatmap.svg").read_bytes()).hexdigest()
        # Frozen after visual review of the rendered file.
        assert digest == "8bfbddb93611e259b7a07ece4c864baae3787f0bddbda250ece67873eb2ea5de"

    def test_column_whose_sum_of_squares_overflows_exits_2_naming_it(self, tmp_path, capsys):
        # It used to write nan into 13 cells of correlation.csv.
        huge = with_column(synth_csv(tmp_path, n=40), tmp_path / "huge.csv", "pH",
                           lambda i: "1e308" if i % 2 else "-1e308")
        out = tmp_path / "out"
        code, _, err = run(["correlate", "--input", str(huge), "--output-dir", str(out)], capsys)
        assert code == 2
        assert err == "error: column 'pH': its sum of squares overflows or underflows float64\n"
        assert not out.exists()

    def test_pair_whose_sums_multiply_past_float_exits_2_naming_it(self, tmp_path, capsys):
        # pH and EC scaled alike: their product of sums overflowed and r was written as 0.0.
        scaled = scale_columns(synth_csv(tmp_path, n=40), tmp_path / "scaled.csv",
                               {"pH": 100, "EC": 100})
        out = tmp_path / "out"
        code, _, err = run(["correlate", "--input", str(scaled), "--output-dir", str(out)],
                           capsys)
        assert code == 2
        assert err == ("error: columns 'pH' and 'EC': the product of their sums of squares "
                       "overflows or underflows float64\n")
        assert not out.exists()

    def test_constant_column_correlates_exactly_0(self, tmp_path, capsys):
        # 7.77's mean over 40 rows does not round back to 7.77: Cu's cells were noise.
        flat = with_column(synth_csv(tmp_path, n=40, seed=7), tmp_path / "flat.csv", "Cu",
                           lambda i: "7.77")
        code, _, _ = run(["correlate", "--input", str(flat), "--output-dir", str(tmp_path)],
                         capsys)
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "correlation.csv").read_text().splitlines()]
        at = rows[0].index("Cu")
        expected = [float(i == at) for i in range(1, len(rows))]
        assert [float(row[at]) for row in rows[1:]] == expected
        assert [float(cell) for cell in rows[at][1:]] == expected

    def test_single_row_exits_2(self, tmp_path, capsys):
        csv_path = synth_csv(tmp_path, n=20, seed=2)
        lines = csv_path.read_text().splitlines()
        one = tmp_path / "one.csv"
        one.write_text("\n".join(lines[:2]) + "\n")
        code, _, err = run(["correlate", "--input", str(one),
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 2


# A comparison table that test_any_metrics_csv_damage_exits_0_or_2 damages.
COMPARISON_ROWS = [["model", "r2", "rmse", "mae", "n_test"], ["forest", "0.946", "1.0", "0.8", "40"],
                   ["ridge", "0.794", "2.0", "1.5", "40"], ["mlr", "-0.7431", "2.1", "1.6", "40"]]
COMPARISON_CELLS = ["", "nan", "inf", "-inf", "1e308", "-1e308", "-5", "0", "x", "forest",
                    '"1,5"', '"unclosed', "\x00", "9" * 131073]


@st.composite
def damaged_comparisons(draw):
    """Bytes of a comparison CSV with odd cells, ragged or repeated rows, blank lines,
    a BOM, invalid UTF-8 or a cut."""
    rows = [COMPARISON_ROWS[0]] + [
        [cell if draw(st.integers(0, 11)) else draw(st.sampled_from(COMPARISON_CELLS))
         for cell in row]
        for row in COMPARISON_ROWS[1:]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(rows) - 1))  # the header only by the byte edits below
        edit = draw(st.sampled_from(["truncate", "extend", "blank", "repeat"]))
        if edit == "truncate":
            rows[i] = rows[i][:draw(st.integers(0, len(rows[i])))]
        elif edit == "extend":
            rows[i] = rows[i] + [draw(st.sampled_from(COMPARISON_CELLS))]
        elif edit == "blank":
            rows.insert(i, [])
        else:
            rows.insert(i, rows[i])
    data = ("\n".join(",".join(r) for r in rows) + "\n").encode()
    if draw(st.integers(0, 4)) == 0:
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 4)) == 0:
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00"])) + data[pos:]
    if draw(st.integers(0, 6)) == 0:
        data = data[:len(data) - draw(st.integers(0, len(data)))]
    return data


class TestCompare:
    def test_rerenders_from_metrics_csv(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(
            "model,r2,rmse,mae,n_test\n"
            "forest,0.946,1.0,0.8,40\n"
            "ridge,0.794,2.0,1.5,40\n"
            "mlr,0.7431,2.1,1.6,40\n"
        )
        code, _, _ = run(["compare", "--input", str(metrics),
                          "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        table = (tmp_path / "comparison.txt").read_text()
        assert table.splitlines()[1].split()[0] == "forest"
        svg = (tmp_path / "comparison.svg").read_text()
        assert ">0.95<" in svg and ">forest<" in svg

    @pytest.mark.parametrize("rows, message", [
        (b"forest,nan,1.0,0.8,40\n", "r2=nan"),
        (b"forest,0.9,inf,0.8,40\n", "rmse=inf"),
        (b"forest,0.9,1.0,-inf,40\n", "mae=-inf"),
        (b"forest,0.9,1.0,0.8,-5\n", "n_test -5 is under 2"),
        (b"forest,0.9,1.0,0.8,0\n", "n_test 0 is under 2"),
        (b"forest,0.9,1.0,5.0,0\n", "mae 5.0 exceeds rmse 1.0"),
        (b"forest,0.9,1.0,0.8,1\n", "n_test 1 is under 2"),
        (b"forest,0.9,1.0,1.0000001,40\n", "mae 1.0000001 exceeds rmse 1.0"),
        (b"", "no model rows"),
        (b"forest,0.9,1.0,0.8,40\nridge,0.8,2.0,1.5,40\nforest,0.7,1.0,0.8,40\n",
         "row 3: model 'forest' listed twice"),
        (b"forest," + b"9" * 131073 + b",1.0,0.8,40\n", "field larger than field limit"),
        (b"\xff,0.9,1.0,0.8,40\n", "not UTF-8 text ("),
    ], ids=["nan-r2", "inf-rmse", "inf-mae", "negative-n-test", "zero-n-test",
            "mae-above-rmse", "one-row-n-test", "mae-just-above-rmse", "header-only",
            "repeated-model", "oversized-field", "not-utf8"])
    def test_damaged_metrics_csv_exits_2(self, tmp_path, capsys, rows, message):
        metrics = tmp_path / "metrics.csv"
        metrics.write_bytes(b"model,r2,rmse,mae,n_test\n" + rows)
        code, _, err = run(["compare", "--input", str(metrics),
                            "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith(f"error: {metrics}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out" / "comparison.svg").exists()

    def test_mae_rounded_past_rmse_is_accepted(self, tmp_path, capsys):
        # 31 errors of +-123.456: the computed mae exceeds the computed rmse in the last bits.
        errors = np.array([123.456, -123.456] * 15 + [123.456])
        score = ModelScore("forest", 0.5, rmse(np.zeros(31), errors),
                           mae(np.zeros(31), errors), 31)
        assert score.mae > score.rmse
        metrics = tmp_path / "metrics.csv"
        write_comparison_csv(build_report([score]), metrics)
        code, _, _ = run(["compare", "--input", str(metrics),
                          "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 0

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=damaged_comparisons())
    def test_any_metrics_csv_damage_exits_0_or_2(self, tmp_path, capsys, data):
        metrics = tmp_path / "metrics.csv"
        metrics.write_bytes(data)
        out = tmp_path / "out"
        code, _, err = run(["compare", "--input", str(metrics), "--output-dir", str(out)], capsys)
        assert code in (0, 2)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            models = [line.split()[0] for line in
                      (out / "comparison.txt").read_text().splitlines()[1:]]
            assert len(set(models)) == len(models)
            geometry = re.findall(r' (?:x|y|width|height)="([^"]*)"',
                                  (out / "comparison.svg").read_text())
            assert geometry and all(math.isfinite(float(v)) for v in geometry)


class TestConfigPrecedence:
    def test_cli_overrides_config_file_overrides_defaults(self, tmp_path):
        csv_path = synth_csv(tmp_path, n=30, seed=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "trees": 7, "test_ratio": 0.5}))
        out = tmp_path / "out"
        assert main(["train", "--input", str(csv_path), "--output-dir", str(out),
                     "--config", str(cfg), "--trees", "9"]) == 0
        echoed = json.loads((out / "run_config.json").read_text())
        assert echoed["trees"] == 9          # CLI wins
        assert echoed["test_ratio"] == 0.5   # config file wins
        assert echoed["ridge_lambda"] == 1.0  # default

    @pytest.mark.parametrize("field, value", [
        ("input_path", 7), ("output_dir", None), ("model", 3), ("seed", 3.0),
        ("test_ratio", "0.2"), ("ridge_lambda", math.inf), ("trees", "100"),
        ("max_depth", 2.5), ("min_samples_split", True), ("min_leaf", "1"),
        ("max_features", [3]), ("bootstrap", 1), ("workers", 1.0),
        ("target_column", None), ("n", "500"),
        pytest.param("ridge_lambda", 10**400, id="ridge_lambda-too-large-for-float"),
    ])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, monkeypatch, field, value):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        code, _, err = run(["synth", "--config", str(cfg)], capsys)
        assert code == 2
        assert f"config {field} must be" in err and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["max_depth", "min_samples_split", "min_leaf"])
    def test_forest_setting_past_int64_exits_2_before_writing(self, tmp_path, capsys, field):
        csv_path = synth_csv(tmp_path, n=30, seed=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: 10**30, "trees": 5}))
        out = tmp_path / "out"
        code, _, err = run(["train", "--input", str(csv_path), "--output-dir", str(out),
                            "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "2**63" in err
        assert not out.exists()

    def test_max_features_past_feature_count_exits_2_before_writing(self, tmp_path, capsys):
        # Checked only when the forest is fitted, after the linear models, which used
        # to be saved by then.
        csv_path = synth_csv(tmp_path, n=30, seed=4)
        out = tmp_path / "out"
        code, _, err = run(["train", "--input", str(csv_path), "--output-dir", str(out),
                            "--trees", "3", "--max-features", "13"], capsys)
        assert code == 2
        assert err == "error: max_features must lie in [1, 12], got 13\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "correlate"])
    @pytest.mark.parametrize("target", ["pH", "N"])
    def test_feature_as_target_exits_2(self, trained, tmp_path, capsys, command, target):
        out, csv_path = trained
        models = [str(out / "model_mlr.json")] if command == "evaluate" else []
        code, _, err = run([command, *models, "--input", str(csv_path), "--target", target,
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "--target" in err and f"'{target}'" in err
        assert not any(tmp_path.iterdir())

    def test_integer_for_float_field_still_accepted(self, tmp_path):
        csv_path = synth_csv(tmp_path, n=30, seed=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ridge_lambda": 2, "max_depth": None}))
        assert main(["train", "--input", str(csv_path), "--output-dir", str(tmp_path),
                     "--model", "ridge", "--config", str(cfg)]) == 0
        assert load_model(tmp_path / "model_ridge.json").model.regularization_lambda == 2.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tress": 9}))
        code, _, err = run(["synth", "--output-dir", str(tmp_path),
                            "--config", str(cfg)], capsys)
        assert code == 2
        assert "tress" in err

    def test_persisted_config_reexecutes_identically(self, tmp_path):
        csv_path = synth_csv(tmp_path, n=30, seed=6)
        out1 = tmp_path / "one"
        assert main(["train", "--input", str(csv_path), "--output-dir", str(out1),
                     "--seed", "6", "--trees", "8"]) == 0
        cfg = json.loads((out1 / "run_config.json").read_text())
        cfg["output_dir"] = str(tmp_path / "two")
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        for name in ("model_mlr.json", "model_ridge.json", "model_forest.json"):
            assert (out1 / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestOptionalColumns:
    def test_train_and_predict_with_n_and_b_features(self, tmp_path, capsys):
        base = synth_csv(tmp_path, n=40, seed=8)
        lines = base.read_text().splitlines()
        rng = np.random.default_rng(8)
        widened = tmp_path / "with_nb.csv"
        body = [f"N,B,{lines[0]}"]
        for line in lines[1:]:
            n_val, b_val = rng.uniform(100, 400), rng.uniform(0.2, 1.5)
            body.append(f"{n_val:.2f},{b_val:.3f},{line}")
        widened.write_text("\n".join(body) + "\n")

        out = tmp_path / "out"
        assert main(["train", "--input", str(widened), "--output-dir", str(out),
                     "--model", "forest", "--trees", "5", "--seed", "8"]) == 0
        bundle = load_model(out / "model_forest.json")
        assert "N" in bundle.feature_names and "B" in bundle.feature_names

        code, _, _ = run(["predict", str(out / "model_forest.json"),
                          "--input", str(widened), "--output-dir", str(out)], capsys)
        assert code == 0

        # A prediction file without the optional columns cannot feed this model.
        code, _, err = run(["predict", str(out / "model_forest.json"),
                            "--input", str(base), "--output-dir", str(out)], capsys)
        assert code == 2
        assert "N" in err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [["train"], ["evaluate", "model.json"],
                                      ["predict", "model.json"], ["correlate"], ["compare"]],
                             ids=lambda argv: argv[0])
    def test_command_without_input_exits_2(self, tmp_path, capsys, argv):
        code, _, err = run(argv + ["--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "--input" in err

    @pytest.mark.parametrize("command", ["synth", "train", "evaluate", "predict", "correlate",
                                         "compare"])
    def test_refusal_leaves_no_output_dir(self, trained, tmp_path, capsys, command):
        # Each refusal here comes after the command has read its input.
        models, csv_path = trained
        header_only = tmp_path / "header_only.csv"
        header_only.write_text(csv_path.read_text().splitlines()[0] + "\n")
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("\n".join(csv_path.read_text().splitlines()[:2]) + "\n")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("model,r2,rmse,mae,n_test\nforest,0.9,1.0,5.0,40\n")
        argv = {
            "synth": ["synth", "--n", "5"],
            "train": ["train", "--input", str(csv_path), "--trees", "3", "--max-features", "13"],
            "evaluate": ["evaluate", str(models / "model_mlr.json"), "--input", str(csv_path),
                         "--seed", "4"],  # trained at seed 3
            "predict": ["predict", str(models / "model_mlr.json"), "--input", str(header_only)],
            "correlate": ["correlate", "--input", str(one_row)],
            "compare": ["compare", "--input", str(metrics)],
        }[command]
        out = tmp_path / "out"
        code, stdout, err = run(argv + ["--output-dir", str(out)], capsys)
        assert code == 2
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train", "evaluate", "predict", "correlate",
                                         "compare"])
    def test_negative_seed_exits_2_naming_it(self, trained, tmp_path, capsys, command):
        models, csv_path = trained
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("model,r2,rmse,mae,n_test\nforest,0.9,1.0,0.5,40\n")
        argv = {
            "synth": ["synth", "--n", "20"],
            "train": ["train", "--input", str(csv_path), "--trees", "3"],
            "evaluate": ["evaluate", str(models / "model_mlr.json"), "--input", str(csv_path)],
            "predict": ["predict", str(models / "model_mlr.json"), "--input", str(csv_path)],
            "correlate": ["correlate", "--input", str(csv_path)],
            "compare": ["compare", "--input", str(metrics)],
        }[command]
        out = tmp_path / "out"
        code, stdout, err = run(argv + ["--seed", "-1", "--output-dir", str(out)], capsys)
        assert (code, stdout, err) == (2, "", "error: config seed must be >= 0, got -1\n")
        assert not out.exists()
        assert run(argv + ["--seed", "3", "--output-dir", str(out)]) == 0  # trained at seed 3

    def test_unwritable_output_dir_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("I am a file, not a directory")
        code, _, err = run(["synth", "--n", "10",
                            "--output-dir", str(blocker / "sub")], capsys)
        assert code == 4
        assert "error" in err

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 7.28 TiB")],
                             ids=["bare", "numpy"])
    def test_out_of_memory_exits_4(self, tmp_path, capsys, monkeypatch, exc):
        # Stands in for `synth --n 1000000000000`, whose arrays numpy cannot allocate.
        def run_synth(cfg):
            raise exc

        monkeypatch.setattr(cli, "run_synth", run_synth)
        code, out, err = run(["synth", "--n", "10", "--output-dir", str(tmp_path)], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert str(exc) in err


class TestTracedNames:
    def test_pipeline_calls_the_forest_under_its_own_names(self):
        # perfbench's tracer wraps each function pipeline imported under its module and
        # name; a wrapper or rebinding here would read its forest metrics as 0.
        assert pipeline.fit_forest is forest.fit_forest
        assert pipeline.predict_forest is forest.predict_forest


# A number as a text file may hold it, or a word Python reads as a non-finite float.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf(?:inity)?)\b",
                    re.IGNORECASE)


class TestExtremeScales:
    """Finite inputs whose arithmetic leaves float64's range: each command either
    writes finite numbers or refuses with exit 2 or 3 and writes nothing."""

    @settings(max_examples=80, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(powers=st.dictionaries(st.sampled_from(FEATURES + ["yield"]),
                                  st.integers(-300, 300), min_size=1, max_size=4))
    @example(powers={"yield": 200})
    @example(powers={"yield": -200})
    @example(powers={"pH": 100, "EC": 100})
    @example(powers={"pH": -100, "EC": -100, "yield": 150})
    def test_every_command_writes_finite_numbers_or_nothing(self, tmp_path, capsys, powers):
        base = tmp_path / "synthetic_soil.csv"
        if not base.exists():
            synth_csv(tmp_path, n=40)
        # Not a random name: run_config.json holds the paths, and "tmp1e400x" reads as inf.
        work = tmp_path / f"case{len(list(tmp_path.glob('case*')))}"
        work.mkdir()
        soil = str(scale_columns(base, work / "soil.csv", powers))
        out = {name: work / name for name in ("train", "correlate", "evaluate", "compare",
                                               "mlr", "ridge", "forest")}
        codes = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes["train"] = main(["train", "--input", soil, "--trees", "3",
                                   "--output-dir", str(out["train"])])
            codes["correlate"] = main(["correlate", "--input", soil,
                                       "--output-dir", str(out["correlate"])])
            if codes["train"] == 0:
                models = [str(out["train"] / f"model_{kind}.json")
                          for kind in ("mlr", "ridge", "forest")]
                codes["evaluate"] = main(["evaluate", *models, "--input", soil,
                                          "--output-dir", str(out["evaluate"])])
                for kind, model in zip(("mlr", "ridge", "forest"), models):
                    codes[kind] = main(["predict", model, "--input", soil,
                                        "--output-dir", str(out[kind])])
            if codes.get("evaluate") == 0:
                codes["compare"] = main(["compare", "--output-dir", str(out["compare"]),
                                         "--input", str(out["evaluate"] / "comparison.csv")])
        capsys.readouterr()
        for name, code in codes.items():
            assert code in (0, 2, 3), name
            if code:
                assert not out[name].exists(), name
                continue
            for path in out[name].iterdir():
                for token in NUMBER.findall(path.read_text()):
                    assert math.isfinite(float(token)), (name, path.name, token)


def run_python(*args, **kwargs):
    """Run this interpreter on the same package as this test, installed or not."""
    package_root = str(Path(soilyield.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = run_python("-m", "soilyield", "synth", "--n", "10", "--output-dir", str(tmp_path))
        assert result.returncode == 0
        assert (tmp_path / "synthetic_soil.csv").exists()

    def test_package_root_imports_nothing(self):
        # Each command imports the modules it uses; the package itself loads none.
        result = run_python("-c", "import sys, soilyield; print(soilyield.__version__); "
                            "print(sorted(m for m in sys.modules if m.startswith(("
                            "'soilyield.', 'numpy'))))", check=True)
        assert result.stdout.splitlines() == ["0.1.0", "[]"]

    def test_cli_import_loads_no_network_or_pool_stack(self):
        # Modules the host's site may preload are already there before numpy's snapshot.
        result = run_python("-c", "import json, sys, numpy; before = set(sys.modules); "
                            "import soilyield.cli; print(json.dumps(sorted(set(sys.modules) - before)))",
                            check=True)
        added = json.loads(result.stdout)
        assert "soilyield.pipeline" in added
        stacks = {"xml", "urllib", "http", "email", "ssl", "concurrent", "multiprocessing"}
        assert [m for m in added if m.split(".")[0] in stacks] == []

    def test_benchmark_layers_name_traced_functions(self):
        # The benchmark's tracer wraps what the pipeline imports from other soilyield
        # modules, its run_* functions, Dataset.matrix and synth.generate; a per-layer
        # timing or call count named after anything else would read 0.
        traced = {"dataset.Dataset.matrix", "synth.generate"} | {
            f"{value.__module__.rsplit('.', 1)[1]}.{attr}"
            for attr, value in vars(pipeline).items()
            if inspect.isfunction(value) and value.__module__.startswith("soilyield.")
            and (value.__module__ != pipeline.__name__ or attr.startswith("run_"))
        }
        spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
        layers = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                  if m["name"].endswith((".total_s", ".self_s", ".calls"))}
        assert layers and sorted(layers - traced) == []

    def test_run_config_is_frozen_dataclass(self):
        cfg = RunConfig(seed=1)
        with pytest.raises(Exception):
            cfg.seed = 2
