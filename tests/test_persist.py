import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilyield.errors import SchemaViolationError, UnsupportedVersionError
from soilyield.forest import ForestModel, ForestParams, Tree, fit_forest, predict_forest
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


def encode_tree(tree):
    """A tree's preorder node list as dicts, the reference for the text ``save_model`` writes."""
    return [
        {"f": f, "t": t} if f >= 0 else {"v": v, "n": n}
        for f, t, v, n in zip(tree.feature.tolist(), tree.threshold.tolist(),
                              tree.value.tolist(), tree.count.tolist())
    ]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-7, 1e16, -1e16, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3]


@st.composite
def trees(draw, n_features):
    """A valid preorder tree whose numbers come from edge values and arbitrary finite ones."""
    numbers = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    nodes, waiting, open_slots = [], [], 1
    while open_slots:
        if nodes and nodes[-1][0] < 0:
            nodes[waiting.pop()][2] = len(nodes)
        open_slots -= 1
        if len(nodes) < 60 and draw(st.booleans()):
            waiting.append(len(nodes))
            nodes.append([draw(st.integers(0, n_features - 1)), draw(numbers), -1, 0.0, 0])
            open_slots += 2
        else:
            count = draw(st.sampled_from([1, 2**63 - 1]) | st.integers(1, 2**63 - 1))
            nodes.append([-1, 0.0, -1, draw(numbers), count])
    return Tree(*(np.array(column) for column in zip(*nodes)))


def forest_bundle(tree_list):
    bundle, _ = make_bundle("mlr")
    params = ForestParams(n_trees=len(tree_list), max_features=3)
    model = ForestModel(trees=tuple(tree_list), params=params,
                        feature_names=bundle.feature_names, oob_r2=None)
    return ModelBundle(kind="forest", feature_names=bundle.feature_names, target_name="yield",
                       feature_scaler=bundle.feature_scaler, target_scaler=bundle.target_scaler,
                       model=model)


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


class TestTreeText:
    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tree_list=st.lists(trees(12), min_size=1, max_size=4))
    def test_bytes_equal_json_dumps_of_node_dicts(self, tmp_path, tree_list):
        path = tmp_path / "forest.json"
        save_model(forest_bundle(tree_list), path)
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        obj["payload"]["trees"] = [encode_tree(t) for t in tree_list]
        expected = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        assert text == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["threshold", "value"])
    def test_non_finite_number_raises_before_writing(self, tmp_path, field, bad):
        split_then_leaves = Tree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]),
                                 np.array([2, -1, -1]), np.array([0.0, 1.0, 2.0]),
                                 np.array([0, 3, 4]))
        getattr(split_then_leaves, field)[0 if field == "threshold" else 2] = bad
        path = tmp_path / "forest.json"
        with pytest.raises(ValueError):
            save_model(forest_bundle([split_then_leaves]), path)
        assert not path.exists()


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
