import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilyield import persist
from soilyield.errors import SchemaViolationError, ValidationError
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


def whole_text(bundle):
    """The forest file built as one string, the reference for the file ``save_model`` streams."""
    obj = {
        "format_version": persist.FORMAT_VERSION,
        "model_kind": bundle.kind,
        "feature_names": list(bundle.feature_names),
        "target_name": bundle.target_name,
        "feature_scaler": persist._scaler_to_obj(bundle.feature_scaler),
        "target_scaler": persist._scaler_to_obj(bundle.target_scaler),
        "encodings": {},
        "payload": persist._payload(bundle),
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      ensure_ascii=False) + "\n"
    head, _, tail = text.partition('"trees":[]')
    # A fresh leaf-repr dict per tree, where save_model shares one across the forest.
    trees = [persist._tree_text(tree, persist._LeafReprs()) for tree in bundle.model.trees]
    return head + '"trees":[' + ",".join(trees) + "]" + tail


def encode_tree(tree):
    """A tree's preorder node list as dicts, the reference for the text ``save_model`` writes."""
    return [
        {"f": f, "t": x} if f >= 0 else {"v": x, "n": n}
        for f, x, n in zip(tree.feature.tolist(), tree.number.tolist(), tree.count.tolist())
    ]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-7, 1e16, -1e16, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3]


@st.composite
def trees(draw, n_features):
    """A valid preorder tree whose numbers come from edge values and arbitrary finite ones."""
    numbers = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    nodes, open_slots = [], 1
    while open_slots:
        open_slots -= 1
        if len(nodes) < 60 and draw(st.booleans()):
            nodes.append([draw(st.integers(0, n_features - 1)), draw(numbers), 0])
            open_slots += 2
        else:
            count = draw(st.sampled_from([1, 2**63 - 1]) | st.integers(1, 2**63 - 1))
            nodes.append([-1, draw(numbers), count])
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

    def test_shared_leaf_reprs_keep_each_zero_and_repeat_values(self):
        # 0.0 == -0.0 as dict keys, so a forest-wide cache must not hand one the other's text.
        leaves = [[0.0, 0.1], [-0.0, 0.1], [0.1, 0.0], [1 / 3, -0.0]]
        leaf_reprs = persist._LeafReprs()
        for values in leaves:
            tree = Tree(np.array([0, -1, -1]), np.array([0.5, *values]), np.array([0, 2, 3]))
            expected = json.dumps(encode_tree(tree), sort_keys=True, separators=(",", ":"))
            assert persist._tree_text(tree, leaf_reprs) == expected
        assert sorted(leaf_reprs) == [0.1, 1 / 3]

    def test_leaf_reprs_past_the_cap_are_written_uncached(self, monkeypatch):
        monkeypatch.setattr(persist, "_LEAF_REPRS", 2)
        values = [0.1, 0.2, 0.3, 0.1, 0.3]
        tree = Tree(np.array([0, 0, 0, 0, -1, -1, -1, -1, -1]),
                    np.array([0.5] * 4 + values), np.array([0] * 4 + [1] * 5))
        leaf_reprs = persist._LeafReprs()
        expected = json.dumps(encode_tree(tree), sort_keys=True, separators=(",", ":"))
        assert persist._tree_text(tree, leaf_reprs) == expected
        assert sorted(leaf_reprs) == [0.1, 0.2]

    @pytest.mark.parametrize("n_trees, target_name", [(1, "yield"), (100, "yield"),
                                                      (100, "récolte")])
    def test_streamed_file_equals_whole_text(self, tmp_path, n_trees, target_name):
        path = forest_file(tmp_path / "forest.json", target_name, n_trees)
        assert path.read_text(encoding="utf-8") == whole_text(load_model(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("node", [0, 2], ids=["threshold", "value"])
    def test_non_finite_number_raises_before_writing(self, tmp_path, node, bad):
        split_then_leaves = Tree(np.array([0, -1, -1]), np.array([0.5, 1.0, 2.0]),
                                 np.array([0, 3, 4]))
        split_then_leaves.number[node] = bad
        path = tmp_path / "forest.json"
        with pytest.raises(ValueError):
            save_model(forest_bundle([split_then_leaves]), path)
        assert not path.exists()
        # A refused save must not truncate a model already at the path either.
        save_model(make_bundle("forest")[0], path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_model(forest_bundle([split_then_leaves]), path)
        assert path.read_bytes() == before


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
        with pytest.raises(ValidationError, match="m.json: format_version 2 not supported$"):
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


def whole_file_load(path):
    """The reference reader: ``json.loads`` of the whole text, then the bundle checks."""
    text = path.read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolationError(f"{path}: not valid JSON ({exc})") from None
    return persist._bundle(obj, str(path))


def assert_same_bundle(a, b):
    assert (a.kind, a.feature_names, a.target_name) == (b.kind, b.feature_names, b.target_name)
    for left, right in ((a.feature_scaler, b.feature_scaler), (a.target_scaler, b.target_scaler)):
        assert left.columns == right.columns
        assert left.mins.tobytes() == right.mins.tobytes()
        assert left.maxs.tobytes() == right.maxs.tobytes()
    assert (a.model.params, a.model.oob_r2) == (b.model.params, b.model.oob_r2)
    assert len(a.model.trees) == len(b.model.trees)
    for s, t in zip(a.model.trees, b.model.trees):
        for x, y in zip(s, t, strict=True):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def in_payload_last(text, member):
    """``text`` with ``member`` added as the last member of a canonical file's payload."""
    return text.replace(']]},"target_name"', ']],' + member + '},"target_name"', 1)


def outcome(load, path):
    """The bundle ``load`` returns, or the type and message of what it raises."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def reordered(text):
    """The same model with the keys of every object in reverse order, written compactly."""
    def reverse(value):
        if isinstance(value, dict):
            return {k: reverse(value[k]) for k in reversed(list(value))}
        if isinstance(value, list):
            return [reverse(v) for v in value]
        return value
    return json.dumps(reverse(json.loads(text)), separators=(",", ":"))


@st.composite
def mutated(draw, text):
    """``text`` edited in the ways that could fool a reader that cuts the trees out."""
    if draw(st.booleans()):
        text = reordered(text)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["last-key", "trees", "escape", "node-key", "space",
                                      "cut", "flip"]))
        pos = draw(st.integers(0, len(text)))
        if edit == "space":
            text = text[:pos] + draw(st.sampled_from([" ", "\n", "\t", "\r\n"])) + text[pos:]
        elif edit == "escape":
            key = draw(st.sampled_from(['"trees"', '"payload"', '"f"', '"n_trees"']))
            text = text.replace(key, key[0] + "\\u%04x" % ord(key[1]) + key[2:], 1)
        elif edit == "trees":
            extra = draw(st.sampled_from(['"trees":[]', '"trees":[[{"v":1.0,"n":1}]]',
                                          '"\\u0074rees":[]']))
            at = draw(st.sampled_from(['"payload":{', '{"encodings"', '"params":{']))
            text = (text.replace(at, at + extra + ",", 1) if at.endswith("{") else
                    text.replace(at, "{" + extra + "," + at[1:], 1))
        elif edit == "last-key":
            text = in_payload_last(text, draw(st.sampled_from(
                ['"trees":[]', '"\\u0074rees":[]', '"trees":[[{"v":1.0,"n":1}]]', '"x":1'])))
        elif edit == "node-key":
            extra = draw(st.sampled_from(['"x":"],[",', '"x":"]]",', '"x":[[1],[2]],',
                                          '"trees":[],', '"x":"\\"],[",']))
            at = draw(st.sampled_from(['{"f":', '{"n":', '{"t":', '{"v":']))
            hit = text.find(at, pos)
            if hit >= 0:
                text = text[:hit + 1] + extra + text[hit + 1:]
        elif edit == "cut":
            text = text[:pos]
        elif pos < len(text):
            text = text[:pos] + draw(st.sampled_from('"\\[]{},:0 -.eNt')) + text[pos + 1:]
    return text


class TestCutReader:
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tree_list=st.lists(trees(12), min_size=1, max_size=4), data=st.data())
    def test_loads_like_whole_file_reader(self, tmp_path, tree_list, data):
        path = tmp_path / "forest.json"
        save_model(forest_bundle(tree_list), path)
        assert_same_bundle(load_model(path), whole_file_load(path))
        path.write_text(data.draw(mutated(path.read_text(encoding="utf-8"))), encoding="utf-8")
        got, expected = outcome(load_model, path), outcome(whole_file_load, path)
        if isinstance(expected, ModelBundle):
            assert_same_bundle(got, expected)
        else:
            assert got == expected

    @pytest.mark.parametrize("edit", [
        # A second key read as "trees", after the payload's own: the last one counts.
        lambda text: in_payload_last(text, '"\\u0074rees":[]'),
        lambda text: in_payload_last(text, '"trees":[]'),
        # The only "trees" key is not the payload's.
        lambda text: in_payload_last(text.replace('"trees":[', '"other":[', 1),
                                     '"x":{"trees":[[{"v":1.0,"n":1}],[{"v":1.0,"n":1}]]}'),
        # A feature index past the model's 12 features.
        lambda text: re.sub(r'\{"f":\d+', '{"f":12', text, count=1),
        # No comma between two trees.
        lambda text: text.replace("],[", "]:[", 1),
    ], ids=["escaped-second-trees-key", "second-trees-key", "trees-outside-payload",
            "feature-index-past-end", "trees-not-comma-separated"])
    def test_text_a_careless_cut_would_misread(self, tmp_path, edit):
        path = tmp_path / "forest.json"
        save_model(forest_bundle([make_bundle("forest")[0].model.trees[0]] * 2), path)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        expected = outcome(whole_file_load, path)
        assert not isinstance(expected, ModelBundle)
        assert outcome(load_model, path) == expected

    def test_trees_saved_by_save_model_are_cut(self, tmp_path, monkeypatch):
        bundle, _ = make_bundle("forest")
        path = tmp_path / "forest.json"
        save_model(bundle, path)
        monkeypatch.setattr(persist, "_load_whole", None)  # fails if called
        assert_same_bundle(load_model(path), bundle)


def forest_file(path, target_name, n_trees=100):
    """A forest of ``n_trees`` trees saved by ``save_model`` under ``target_name``."""
    d, X, y = training_data(n=100, seed=11)
    model = fit_forest(X, y, ForestParams(n_trees=n_trees, seed=3), d.feature_names)
    bundle, _ = make_bundle("mlr")
    save_model(ModelBundle(kind="forest", feature_names=bundle.feature_names,
                           target_name=target_name, feature_scaler=bundle.feature_scaler,
                           target_scaler=scaler((target_name,), bundle.target_scaler.mins,
                                                bundle.target_scaler.maxs),
                           model=model), path)
    return path


def traced_peak(call):
    """The tracemalloc peak of one ``call()``."""
    call()  # imports and caches settle outside the measurement
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadMemory:
    def test_forest_load_peak_is_a_small_multiple_of_the_file(self, tmp_path):
        # Parsing every node into a dict first peaked near 13 times the file's bytes.
        path = forest_file(tmp_path / "forest.json", "yield")
        assert traced_peak(lambda: load_model(path)) < 6 * path.stat().st_size

    def test_non_ascii_target_forest_is_cut(self, tmp_path, monkeypatch):
        # Written as \u escapes, such a name sent the file to the whole-file reader.
        path = forest_file(tmp_path / "forest.json", "récolte")
        whole_file_reads = []
        load_whole = persist._load_whole
        monkeypatch.setattr(persist, "_load_whole", lambda text, where: (
            whole_file_reads.append(where) or load_whole(text, where)))
        assert load_model(path).target_name == "récolte"
        assert traced_peak(lambda: load_model(path)) < 6 * path.stat().st_size
        assert whole_file_reads == []


class TestTreeMemory:
    def test_fitted_and_loaded_trees_hold_24_bytes_per_node(self, tmp_path):
        # Three 8-byte numbers per node: the feature, the threshold or leaf value, the count.
        bundle, _ = make_bundle("forest")
        path = tmp_path / "forest.json"
        save_model(bundle, path)
        for model in (bundle.model, load_model(path).model):
            for tree in model.trees:
                assert sum(a.nbytes for a in tree) == 24 * len(tree.feature)


class TestSaveMemory:
    def test_forest_save_peak_is_a_small_fraction_of_the_file(self, tmp_path):
        # Building the file as one string first peaked near twice its bytes.
        path = forest_file(tmp_path / "forest.json", "yield")
        bundle = load_model(path)
        assert traced_peak(lambda: save_model(bundle, path)) <= 0.25 * path.stat().st_size
