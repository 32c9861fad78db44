import json

import numpy as np
import pytest

from soilyield.errors import SchemaViolationError, UnsupportedVersionError
from soilyield.forest import ForestParams, fit_forest, predict_forest
from soilyield.linear import fit_mlr, fit_ridge, predict_linear
from soilyield.persist import ModelBundle, load_model, save_model
from soilyield.preprocess import NormalizationParams
from soilyield.synth import generate


def scaler(names, mins, maxs):
    return NormalizationParams(columns=tuple(names),
                               mins=np.asarray(mins, dtype=float),
                               maxs=np.asarray(maxs, dtype=float))


def training_data(n=60, seed=5):
    d = generate(n, seed=seed)
    X = d.matrix(d.feature_names)
    y = d.matrix(("yield",)).ravel()
    return d, X, y


def make_bundle(kind, seed=5):
    d, X, y = training_data(seed=seed)
    if kind == "mlr":
        model = fit_mlr(X, y, d.feature_names)
    elif kind == "ridge":
        model = fit_ridge(X, y, 1.5, d.feature_names)
    else:
        model = fit_forest(X, y, ForestParams(n_trees=20, seed=seed), d.feature_names)
    return ModelBundle(
        kind=kind,
        feature_names=d.feature_names,
        target_name="yield",
        feature_scaler=scaler(d.feature_names, X.min(axis=0), X.max(axis=0)),
        target_scaler=scaler(("yield",), [y.min()], [y.max()]),
        model=model,
    ), X


def bundle_predict(bundle, X):
    if bundle.kind == "forest":
        return predict_forest(bundle.model, X)
    return predict_linear(bundle.model, X)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["mlr", "ridge", "forest"])
    def test_predictions_bit_identical_after_round_trip(self, kind, tmp_path):
        bundle, X = make_bundle(kind)
        path = tmp_path / f"{kind}.json"
        save_model(bundle, path)
        loaded = load_model(path)

        rng = np.random.default_rng(17)
        probe = rng.uniform(X.min(axis=0), X.max(axis=0), size=(100, X.shape[1]))
        before = bundle_predict(bundle, probe)
        after = bundle_predict(loaded, probe)
        assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize("kind", ["mlr", "ridge", "forest"])
    def test_save_load_save_is_byte_identical(self, kind, tmp_path):
        bundle, _ = make_bundle(kind)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_model(bundle, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_scalers_survive(self, tmp_path):
        bundle, _ = make_bundle("ridge")
        path = tmp_path / "m.json"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.target_name == "yield"
        assert loaded.feature_names == bundle.feature_names
        assert np.array_equal(loaded.feature_scaler.mins, bundle.feature_scaler.mins)
        assert np.array_equal(loaded.target_scaler.maxs, bundle.target_scaler.maxs)
        assert loaded.model.regularization_lambda == 1.5


class TestRejection:
    def test_truncated_file_is_rejected(self, tmp_path):
        bundle, _ = make_bundle("forest")
        path = tmp_path / "m.json"
        save_model(bundle, path)
        full = path.read_text()
        for cut in (10, len(full) // 2, len(full) - 5):
            path.write_text(full[:cut])
            with pytest.raises(SchemaViolationError):
                load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all {")
        with pytest.raises(SchemaViolationError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "missing.json")

    def test_unsupported_version(self, tmp_path):
        bundle, _ = make_bundle("mlr")
        path = tmp_path / "m.json"
        save_model(bundle, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = 2
        path.write_text(json.dumps(obj))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_missing_version_key(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"model_kind": "mlr"}))
        with pytest.raises(SchemaViolationError):
            load_model(path)

    def test_wrong_coefficient_count(self, tmp_path):
        bundle, _ = make_bundle("mlr")
        path = tmp_path / "m.json"
        save_model(bundle, path)
        obj = json.loads(path.read_text())
        obj["payload"]["coefficients"].append(1.0)
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaViolationError):
            load_model(path)

    def test_trailing_tree_nodes_rejected(self, tmp_path):
        bundle, _ = make_bundle("forest")
        path = tmp_path / "m.json"
        save_model(bundle, path)
        obj = json.loads(path.read_text())
        obj["payload"]["trees"][0].append({"v": 1.0, "n": 1})
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaViolationError):
            load_model(path)

    def test_tree_count_must_match_params(self, tmp_path):
        bundle, _ = make_bundle("forest")
        path = tmp_path / "m.json"
        save_model(bundle, path)
        obj = json.loads(path.read_text())
        obj["payload"]["trees"] = obj["payload"]["trees"][:-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaViolationError):
            load_model(path)

    def test_feature_names_must_be_strings(self, tmp_path):
        bundle, _ = make_bundle("mlr")
        path = tmp_path / "m.json"
        save_model(bundle, path)
        obj = json.loads(path.read_text())
        obj["feature_names"][0] = 7
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaViolationError):
            load_model(path)
