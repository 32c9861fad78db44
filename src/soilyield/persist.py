"""Versioned JSON persistence for fitted models.

A model file bundles everything prediction needs: the model payload, the
feature order, and the min-max parameters for features and target.
Serialization is canonical (sorted keys, shortest round-trip floats), so
saving a loaded model reproduces the file byte for byte and reloaded models
predict bit-identically.  Loading checks every index and number a
prediction reads, so a damaged file fails here rather than predicting
wrong values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import reading_text
from .errors import SchemaViolationError, ValidationError
from .forest import ForestModel, ForestParams, Tree
from .linear import FitDiagnostics, LinearModel
from .preprocess import NormalizationParams

FORMAT_VERSION = 1
MODEL_KINDS = ("mlr", "ridge", "forest")  # the order train fits and logs "all" in
SOLVERS = ("cholesky", "svd")
_TREES = '"trees":['  # a forest payload's trees array opens here, and only here
_CHUNK = 65536  # characters a load reads at a time, so the file is never held whole
_LEAF_REPRS = 4096  # about 130 bytes each with its float, so a save keeps at most ~0.5 MB


@dataclass(frozen=True)
class ModelBundle:
    kind: str
    feature_names: tuple[str, ...]
    target_name: str
    feature_scaler: NormalizationParams
    target_scaler: NormalizationParams
    model: "LinearModel | ForestModel"

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")


class _LeafReprs(dict):
    """The ``repr`` of the first ``_LEAF_REPRS`` leaf values met, as a forest's leaves share
    few values; not of 0.0 or -0.0, which are equal keys with different text."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value and len(self) < _LEAF_REPRS:
            self[value] = text
        return text


def _tree_text(tree: Tree, leaf_reprs: _LeafReprs) -> str:
    """The tree's preorder node list as the JSON text ``json.dumps`` would write.

    A split is ``{"f":feature,"t":threshold}`` and a leaf ``{"n":count,"v":value}``,
    keys sorted and floats in ``float.__repr__``, which is how the json module
    writes them.
    """
    return "[" + ",".join(
        f'{{"f":{f},"t":{t!r}}}' if f >= 0 else f'{{"n":{n},"v":{leaf_reprs[t]}}}'
        for f, t, n in zip(tree.feature.tolist(), tree.number.tolist(), tree.count.tolist())
    ) + "]"


def _decode_tree(nodes: list, n_features: int, where: str) -> Tree:
    """Read a tree from its preorder node list, in one pass without recursion.

    ``waiting`` counts the splits still waiting for their right child; the
    node after a leaf is the right child of the latest of them.  Values of
    the types ``save_model`` writes are checked inline; anything else goes
    through the general checks, which convert it or name what is wrong.
    """
    if not isinstance(nodes, list) or not nodes:
        raise SchemaViolationError(f"{where}: must be a non-empty node list")
    feature: list[int] = []
    number: list[float] = []
    count: list[int] = []
    waiting = 0
    isfinite = math.isfinite
    for pos, entry in enumerate(nodes):
        if type(entry) is not dict:
            raise SchemaViolationError(f"{where} node {pos} is not an object")
        if pos and feature[-1] < 0:
            if not waiting:
                raise SchemaViolationError(f"{where}: {len(nodes) - pos} trailing nodes")
            waiting -= 1
        if "f" in entry:
            f = entry["f"]
            if type(f) is not int or not 0 <= f < n_features:
                _expect(entry, "f", int, f"{where} node {pos}")  # raises unless an int
                raise SchemaViolationError(f"{where} node {pos}: feature index {f} out of range")
            t = entry.get("t")
            if type(t) is not float or not isfinite(t):
                t = _number(entry, "t", f"{where} node {pos}")
            waiting += 1
            feature.append(f)
            number.append(t)
            count.append(0)
        else:
            n = entry.get("n")
            if type(n) is not int or not 1 <= n < 2**63:  # the range of the int64 count array
                _expect(entry, "n", int, f"{where} node {pos}")  # raises unless an int
                raise SchemaViolationError(f"{where} node {pos}: leaf count {n} out of range")
            v = entry.get("v")
            if type(v) is not float or not isfinite(v):
                v = _number(entry, "v", f"{where} node {pos}")
            feature.append(-1)
            number.append(v)
            count.append(n)
    if waiting:
        raise SchemaViolationError(f"{where}: ended before all children were read")
    return Tree(np.array(feature), np.array(number), np.array(count))


def _expect(obj: dict, key: str, typ, where: str):
    if key not in obj:
        raise SchemaViolationError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
        name = typ.__name__ if isinstance(typ, type) else "number"
        raise SchemaViolationError(f"{where}: key {key!r} must be {name}")
    return value


def _number(obj: dict, key, where: str, finite: bool = True,
            nullable: bool = False) -> float | None:
    """The number at ``key`` as a float, finite unless ``finite`` is false; None
    where ``nullable`` and the file holds null there."""
    if nullable and obj.get(key, 0) is None:
        return None
    value = _expect(obj, key, (int, float), where)
    try:
        value = float(value)
    except OverflowError:
        raise SchemaViolationError(f"{where}: key {key!r} is too large for a float") from None
    if finite and not math.isfinite(value):
        raise SchemaViolationError(f"{where}: key {key!r} must be finite, got {value}")
    return value


def _r2(obj: dict, key: str, where: str) -> float | None:
    """An R² score, finite and at most 1, or None where the file holds null."""
    value = _number(obj, key, where, finite=False, nullable=True)
    if value is not None and not (math.isfinite(value) and value <= 1.0):
        raise SchemaViolationError(f"{where}: key {key!r} must be a finite R² of at most 1, "
                                   f"got {value}")
    return value


def _finite_list(values: list, where: str) -> list[float]:
    indexed = dict(enumerate(values))
    return [_number(indexed, i, where) for i in indexed]


def _strings(obj: dict, key: str, where: str) -> tuple[str, ...]:
    values = _expect(obj, key, list, where)
    if not all(isinstance(v, str) for v in values):
        raise SchemaViolationError(f"{where}: every entry of {key!r} must be a string")
    return tuple(values)


def _scaler_to_obj(p: NormalizationParams) -> dict:
    return {
        "columns": list(p.columns),
        "min": [float(v) for v in p.mins],
        "max": [float(v) for v in p.maxs],
    }


def _scaler_from_obj(obj, where: str) -> NormalizationParams:
    if not isinstance(obj, dict):
        raise SchemaViolationError(f"{where}: scaler must be an object")
    cols = _strings(obj, "columns", where)
    mins = _finite_list(_expect(obj, "min", list, where), f"{where}: min")
    maxs = _finite_list(_expect(obj, "max", list, where), f"{where}: max")
    try:
        return NormalizationParams(columns=cols, mins=np.asarray(mins), maxs=np.asarray(maxs))
    except ValueError as exc:
        raise SchemaViolationError(f"{where}: {exc}") from None


def _payload(bundle: ModelBundle) -> dict:
    model = bundle.model
    if isinstance(model, LinearModel):
        return {
            "intercept": model.intercept,
            "coefficients": [float(v) for v in model.coefficients],
            "lambda": model.regularization_lambda,
            "diagnostics": {
                # A singular Gram matrix has an infinite estimate, which JSON cannot hold.
                "condition_estimate": (model.diagnostics.condition_estimate
                                       if math.isfinite(model.diagnostics.condition_estimate)
                                       else None),
                "training_r2": model.diagnostics.training_r2,
                "solver": model.diagnostics.solver,
            },
        }
    return {
        "params": asdict(model.params),
        "oob_r2": model.oob_r2,
        "trees": [],  # save_model writes each tree's text here
    }


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "model_kind": bundle.kind,
        "feature_names": list(bundle.feature_names),
        "target_name": bundle.target_name,
        "feature_scaler": _scaler_to_obj(bundle.feature_scaler),
        "target_scaler": _scaler_to_obj(bundle.target_scaler),
        # Format v1 reserved this key for categorical encodings; every soil
        # column is numeric, so it is always written empty.
        "encodings": {},
        "payload": _payload(bundle),
    }
    # Names go out as UTF-8, not \u escapes, so a name free of quotes, backslashes
    # and control characters leaves no backslash that would make _load_cut decline.
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      ensure_ascii=False) + "\n"
    trees = bundle.model.trees if isinstance(bundle.model, ForestModel) else ()
    # Strict JSON for the trees too: refuse a non-finite number before the file is opened.
    for i, tree in enumerate(trees):
        if not np.isfinite(tree.number).all():
            raise ValueError(f"tree {i} holds a non-finite threshold or leaf value, "
                             "which JSON cannot hold")
    # Every key is fixed and every string escapes its quotes, so only a forest payload's
    # own key reads '"trees":['.  Trees go out one by one: the file is never held whole.
    head, opening, tail = text.partition(_TREES)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + opening)
        leaf_reprs = _LeafReprs()
        for i, tree in enumerate(trees):
            fh.write(("," if i else "") + _tree_text(tree, leaf_reprs))
        fh.write(tail)


def load_model(path: str | Path) -> ModelBundle:
    """Read a model file, cutting a forest's trees out of the text where that is exact.

    ``_load_cut`` reads the file a chunk at a time and decodes each tree as it
    comes in, so neither the file nor a forest's nodes as dicts are held whole.
    Any file it declines, or that fails on the way, is read whole: the whole-file
    reader's bundle or error is the answer, so the cut changes neither.
    """
    path = Path(path)
    with reading_text(path), path.open(encoding="utf-8") as fh:
        bundle = _load_cut(fh, str(path))
        if bundle is None:
            fh.seek(0)
            bundle = _load_whole(fh.read(), str(path))
    return bundle


def _load_cut(fh, where: str) -> ModelBundle | None:
    """The bundle read from the open file ``fh`` with the trees array cut out, or None.

    With no backslash in the text every ``"`` delimits a string, so no key
    is spelled with escapes.  The trees are parsed with the json module's own
    scanner, each right after the last, so the cut span is the array a
    whole-file parse reads there, and the text with ``[]`` in its place parses
    to the same object but for the trees.  That array is the payload's
    ``trees`` when ``"trees"`` occurs nowhere else and the payload's
    ``trees`` reads ``[]``.  A tree is parsed once the text read holds a ``]``
    after its start, where it ends unless it holds a ``]`` itself, as no tree
    ``save_model`` writes does; a parse that fails there declines the file.
    """
    try:
        head, seen = "", 0
        while head.find(_TREES, seen) < 0:
            chunk = fh.read(_CHUNK)
            if not chunk or "\\" in chunk:
                return None
            seen = max(0, len(head) - len(_TREES) + 1)
            head += chunk
        head, _, text = head.partition(_TREES)
        raw_decode = json.JSONDecoder().raw_decode
        trees, pos, seen = [], 0, 0  # text[pos:] opens with the next tree, its comma or "]"
        while (close := text.find("]", seen)) < 0 or text[pos] != "]":
            if close < 0:
                chunk = fh.read(_CHUNK)
                if not chunk or "\\" in chunk:
                    return None
                text, seen, pos = text[pos:], len(text) - pos, 0  # drop the parsed text
                text += chunk
                continue
            if trees and text[pos] != ",":
                return None
            nodes, pos = raw_decode(text, pos + bool(trees))
            # Feature indices are checked against the model's feature count below.
            trees.append(_decode_tree(nodes, 2**63, where))
            nodes, seen = None, pos  # the tree's dicts go before the next tree is parsed
        rest = head + _TREES + text[pos:] + fh.read()
        if "\\" in rest or rest.count('"trees"') != 1:
            return None
        obj = json.loads(rest)
        if obj["payload"]["trees"] != []:
            return None
        bundle = _bundle(obj, where, trees)
        if any(t.feature.max() >= len(bundle.feature_names) for t in trees):
            return None
        return bundle
    except MemoryError:  # the whole-file reader needs more memory still
        raise
    except Exception:  # whatever failed, the whole-file reader gives the answer or the error
        return None


def _load_whole(text: str, where: str) -> ModelBundle:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolationError(f"{where}: not valid JSON ({exc})") from None
    return _bundle(obj, where)


def _bundle(obj, where: str, trees: list[Tree] | None = None) -> ModelBundle:
    """Check a parsed model file; ``trees``, if given, are a forest's trees decoded
    already, with feature indices the caller checks."""
    if not isinstance(obj, dict):
        raise SchemaViolationError(f"{where}: top level must be an object")
    if "format_version" not in obj:
        raise SchemaViolationError(f"{where}: missing format_version")
    if type(obj["format_version"]) is not int or obj["format_version"] != FORMAT_VERSION:
        raise ValidationError(
            f"{where}: format_version {obj['format_version']!r} not supported"
        )
    kind = _expect(obj, "model_kind", str, where)
    if kind not in MODEL_KINDS:
        raise SchemaViolationError(f"{where}: unknown model_kind {kind!r}")
    feature_names = _strings(obj, "feature_names", where)
    target_name = _expect(obj, "target_name", str, where)
    feature_scaler = _scaler_from_obj(obj.get("feature_scaler"), f"{where}: feature_scaler")
    target_scaler = _scaler_from_obj(obj.get("target_scaler"), f"{where}: target_scaler")
    # Scalers apply by position, so their columns must be the model's, in its order.
    if feature_scaler.columns != feature_names:
        raise SchemaViolationError(f"{where}: feature_scaler columns differ from feature_names")
    if target_scaler.columns != (target_name,):
        raise SchemaViolationError(f"{where}: target_scaler columns differ from target_name")
    if _expect(obj, "encodings", dict, where):
        raise SchemaViolationError(f"{where}: encodings must be empty; every column is numeric")
    payload = _expect(obj, "payload", dict, where)
    if kind == "forest":
        model = _forest_from_payload(payload, len(feature_names), where, trees)
    else:
        model = _linear_from_payload(payload, feature_names, where)
    return ModelBundle(kind, feature_names, target_name, feature_scaler, target_scaler, model)


def _linear_from_payload(payload: dict, feature_names: tuple[str, ...], where: str) -> LinearModel:
    coefficients = _finite_list(_expect(payload, "coefficients", list, where),
                                f"{where}: coefficients")
    diag_obj = _expect(payload, "diagnostics", dict, where)
    condition = _number(diag_obj, "condition_estimate", where, finite=False, nullable=True)
    if condition is None:  # a singular Gram matrix's infinite estimate
        condition = math.inf
    if not condition >= 1.0:
        raise SchemaViolationError(
            f"{where}: condition_estimate must be at least 1, got {condition}"
        )
    solver = _expect(diag_obj, "solver", str, where)
    if solver not in SOLVERS:
        raise SchemaViolationError(f"{where}: unknown solver {solver!r}")
    lam = _number(payload, "lambda", where)
    intercept = _number(payload, "intercept", where)
    diagnostics = FitDiagnostics(condition, _r2(diag_obj, "training_r2", where), solver)
    if len(coefficients) != len(feature_names):
        raise SchemaViolationError(f"{where}: {len(coefficients)} coefficients for "
                                   f"{len(feature_names)} feature names")
    try:
        return LinearModel(intercept=intercept, coefficients=np.asarray(coefficients),
                           regularization_lambda=lam, diagnostics=diagnostics)
    except ValueError as exc:
        raise SchemaViolationError(f"{where}: {exc}") from None


def _forest_from_payload(payload: dict, n_features: int, where: str,
                         trees: list[Tree] | None = None) -> ForestModel:
    params_obj = _expect(payload, "params", dict, where)
    max_depth = (None if params_obj.get("max_depth", 0) is None
                 else _expect(params_obj, "max_depth", int, where))
    try:
        params = ForestParams(
            n_trees=_expect(params_obj, "n_trees", int, where),
            max_depth=max_depth,
            min_samples_split=_expect(params_obj, "min_samples_split", int, where),
            min_samples_leaf=_expect(params_obj, "min_samples_leaf", int, where),
            max_features=_expect(params_obj, "max_features", int, where),
            seed=_expect(params_obj, "seed", int, where),
            bootstrap=_expect(params_obj, "bootstrap", bool, where),
        )
        params.resolved(n_features)  # refuses more max_features than features
    except ValueError as exc:
        raise SchemaViolationError(f"{where}: {exc}") from None
    trees_obj = _expect(payload, "trees", list, where) if trees is None else trees
    if len(trees_obj) != params.n_trees:
        raise SchemaViolationError(
            f"{where}: payload has {len(trees_obj)} trees, params say {params.n_trees}"
        )
    if trees is None:
        trees = [_decode_tree(t, n_features, f"{where}: tree {i}")
                 for i, t in enumerate(trees_obj)]
    return ForestModel(tuple(trees), params, n_features, _r2(payload, "oob_r2", where))
