import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import soilyield
from soilyield.cli import main
from soilyield.persist import load_model, save_model
from soilyield.pipeline import RunConfig

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
            "min-samples-leaf-past-int64"])
    def test_predict_exits_2_with_one_line(self, trained, tmp_path, capsys, kind, path, value):
        code, _, err = predict_with_edited_model(trained, tmp_path, capsys, kind, path, value)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_single_row_exits_2(self, tmp_path, capsys):
        csv_path = synth_csv(tmp_path, n=20, seed=2)
        lines = csv_path.read_text().splitlines()
        one = tmp_path / "one.csv"
        one.write_text("\n".join(lines[:2]) + "\n")
        code, _, err = run(["correlate", "--input", str(one),
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 2


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
        assert not out.exists() or not list(out.iterdir())

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
    def test_unwritable_output_dir_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("I am a file, not a directory")
        code, _, err = run(["synth", "--n", "10",
                            "--output-dir", str(blocker / "sub")], capsys)
        assert code == 4
        assert "error" in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # The child process imports the same package as this test, installed or not.
        package_root = str(Path(soilyield.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "soilyield", "synth", "--n", "10",
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert (tmp_path / "synthetic_soil.csv").exists()

    def test_run_config_is_frozen_dataclass(self):
        cfg = RunConfig(seed=1)
        with pytest.raises(Exception):
            cfg.seed = 2
