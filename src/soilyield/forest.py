"""Random-forest regression built from variance-reduction binary trees.

Splits maximize the weighted variance reduction
Var(parent) - (nL/n) Var(left) - (nR/n) Var(right), with thresholds at
midpoints between consecutive distinct sorted feature values.  Ties are
broken by lowest feature index, then lowest threshold.

Determinism contract: every tree draws from its own generator derived as
``SeedSequence(seed, spawn_key=(tree_index,))``, so fitting is bit-identical
no matter how tree construction is scheduled; within a tree, candidate
features are drawn per node before recursing left then right.  Node scans
canonicalize sample order by sorting on (feature value, target value), which
makes the chosen split independent of training row order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, LengthMismatchError, TooFewRowsError, ZeroVarianceError
from .metrics import r2_score

# Below this many samples a node is grown in Python lists: numpy's per-call
# overhead outweighs its vector speed there, and most of a forest's nodes are
# that small.
_SMALL_NODE = 48

# Two candidate features whose impurity decreases agree to within this
# fraction of the parent variance are a tie; distinct true reductions on
# continuous targets differ by far more, while equal-partition candidates
# computed through different float paths differ by far less.
REDUCTION_TIE_RTOL = 1e-9


class Tree(NamedTuple):
    """One regression tree as parallel arrays over its nodes in preorder.

    Node 0 is the root and a split's left child is the node after it, the
    order model files store.  Fields a node does not use hold -1 or 0.
    """

    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray  # a row goes left when x[feature] <= threshold
    right: np.ndarray  # index of a split's right child
    value: np.ndarray  # leaf prediction
    count: np.ndarray  # training samples in a leaf


def tree_from_nodes(nodes: Sequence[Sequence]) -> Tree:
    """Build a tree from preorder ``[feature, threshold, right, value, count]`` rows."""
    return Tree(*(np.array(column) for column in zip(*nodes)))


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | None = None  # None resolves to ceil(d / 3) at fit time
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1 or None")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        # Leaf counts are int64, so no fit can need a larger size or depth.
        for name in ("n_trees", "max_depth", "min_samples_split", "min_samples_leaf",
                     "max_features"):
            if (getattr(self, name) or 0) >= 2**63:
                raise ValueError(f"{name} must be below 2**63")


@dataclass(frozen=True, eq=False)
class ForestModel:
    trees: tuple[Tree, ...]
    params: ForestParams
    feature_names: tuple[str, ...]
    oob_r2: float | None


class SplitChoice(NamedTuple):
    feature: int
    threshold: float
    impurity_decrease: float


def _pairwise_sum(a: Sequence[float]) -> float:
    """numpy's pairwise summation of a float64 vector, bit for bit.

    ``np.sum(a)`` is ``0.0 + _pairwise_sum(a)``: numpy starts its reduction
    from 0.0 and adds this.  Copying it lets a node held in Python lists
    get the same means and sums, to the last bit, as one held in arrays.
    """
    n = len(a)
    if n < 8:
        res = -0.0
        for v in a:
            res += v
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _scan_feature_scalar(xs: list[float], ys: list[float], sse_parent: float,
                         min_leaf: int) -> tuple[float, float] | None:
    m = len(xs)
    pairs = sorted(zip(xs, ys))
    s_t = 0.0
    q_t = 0.0
    for _, yv in pairs:
        s_t += yv
        q_t += yv * yv
    best: tuple[float, float] | None = None
    s_l = 0.0
    q_l = 0.0
    for p in range(1, m):
        yv = pairs[p - 1][1]
        s_l += yv
        q_l += yv * yv
        if pairs[p - 1][0] == pairs[p][0]:
            continue
        if p < min_leaf or m - p < min_leaf:
            continue
        sse_l = q_l - s_l * s_l / p
        s_r = s_t - s_l
        sse_r = (q_t - q_l) - s_r * s_r / (m - p)
        reduction = (sse_parent - sse_l - sse_r) / m
        if reduction > 0.0 and (best is None or reduction > best[1]):
            threshold = 0.5 * (pairs[p - 1][0] + pairs[p][0])
            if threshold == pairs[p][0]:
                threshold = pairs[p - 1][0]
            best = (threshold, reduction)
    return best


def _scan_features_numpy(xs: np.ndarray, ys: np.ndarray, sse_parent: float,
                         min_leaf: int) -> list[tuple[float, float] | None]:
    """Each column's best (threshold, reduction), scanning all of ``xs`` at once.

    Two stable sorts, by target and then by value, put each column in
    ``lexsort((ys, x))`` order; cumulative sums run down the columns.
    """
    m = xs.shape[0]
    by_y = np.argsort(ys, kind="stable")
    xs = xs[by_y]
    order = np.argsort(xs, axis=0, kind="stable")
    xs = np.take_along_axis(xs, order, axis=0)
    ys = ys[by_y][order]
    cs = np.cumsum(ys, axis=0)
    cq = np.cumsum(ys * ys, axis=0)
    k = np.arange(1, m)[:, None]
    s_l = cs[:-1]
    q_l = cq[:-1]
    s_t = cs[-1]
    q_t = cq[-1]
    sse_l = q_l - s_l * s_l / k
    sse_r = (q_t - q_l) - (s_t - s_l) ** 2 / (m - k)
    reduction = (sse_parent - sse_l - sse_r) / m
    valid = (xs[:-1] != xs[1:]) & (k >= min_leaf) & (m - k >= min_leaf)
    reduction[~valid] = -np.inf
    j = reduction.argmax(axis=0)  # first max = lowest threshold
    columns = np.arange(xs.shape[1])
    lo = xs[j, columns]
    hi = xs[j + 1, columns]
    threshold = 0.5 * (lo + hi)
    # Adjacent floats: keep the <= rule partition intact.
    threshold = np.where(threshold == hi, lo, threshold)
    return [(t, r) if r > 0.0 else None
            for t, r in zip(threshold.tolist(), reduction[j, columns].tolist())]


def _node_target(rows: list[int], y: np.ndarray,
                 y_list: list[float]) -> tuple[float, list[float] | np.ndarray | None]:
    """The node's mean target, and its targets less that mean (None when constant).

    Centred targets keep the scans' sums well conditioned.  A node under
    ``_SMALL_NODE`` rows works on Python lists, a larger one on arrays;
    both give the same bits.
    """
    m = len(rows)
    if m < _SMALL_NODE:
        ys = [y_list[i] for i in rows]
        mean = (0.0 + _pairwise_sum(ys)) / m
        return mean, None if ys.count(ys[0]) == m else [v - mean for v in ys]
    ys = y[rows]
    mean = float(ys.mean())
    return mean, None if (ys == ys[0]).all() else ys - mean


def _split_node(rows: list[int], X: np.ndarray, X_list: list[list[float]], yc,
                features: list[int], min_leaf: int) -> SplitChoice | None:
    """Best split of a node whose rows are sorted, given its centred targets ``yc``."""
    m = len(rows)
    if m < _SMALL_NODE:
        s_t = 0.0 + _pairwise_sum(yc)
        q_t = 0.0 + _pairwise_sum([v * v for v in yc])
        sse_parent = q_t - s_t * s_t / m
        xrows = [X_list[i] for i in rows]
        found = [_scan_feature_scalar([x[f] for x in xrows], yc, sse_parent, min_leaf)
                 for f in features]
    else:
        s_t = float(np.sum(yc))
        q_t = float(np.sum(yc * yc))
        sse_parent = q_t - s_t * s_t / m
        found = _scan_features_numpy(X[np.ix_(rows, features)], yc, sse_parent, min_leaf)
    tie_band = REDUCTION_TIE_RTOL * sse_parent / m
    best: SplitChoice | None = None
    for f, split in zip(features, found):
        if split is not None and (best is None or split[1] > best.impurity_decrease + tie_band):
            best = SplitChoice(f, split[0], split[1])
    return best


def best_split(rows, X, y, candidate_features: Sequence[int],
               min_samples_leaf: int = 1) -> SplitChoice | None:
    """Best (feature, threshold) among the candidates, or None.

    Returns None when the node target is constant, no threshold produces
    children of at least ``min_samples_leaf`` samples, or every candidate
    feature is constant.  Within a feature the lowest threshold wins a
    tie; across features a later feature only displaces an earlier one
    when its reduction is larger by more than REDUCTION_TIE_RTOL times
    the parent variance, so equal-partition candidates resolve to the
    lowest feature index.
    """
    rows = np.sort(np.asarray(rows, dtype=np.intp)).tolist()
    if len(rows) < 2:
        return None
    _, yc = _node_target(rows, y, y.tolist())
    if yc is None:
        return None
    features = sorted(int(f) for f in candidate_features)
    return _split_node(rows, X, X.tolist(), yc, features, min_samples_leaf)


class _CandidateDraws:
    """``sorted(rng.choice(d, size=k, replace=False).tolist())``, replayed in Python.

    For d up to 10,000, numpy's ``choice`` is Floyd's sampling algorithm
    over Lemire's unbiased bounded draws from 32-bit words, followed by a
    shuffle that sorting discards.  This copy reads the same words from a
    PCG64 generator's raw 64-bit outputs, each output giving its low half
    then its high half, and ``close`` leaves the generator exactly where
    the ``choice`` calls would have.
    """

    _CHUNK = 256  # raw outputs read at a time; ``close`` gives back the unused ones

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise ValueError(f"trees draw from a PCG64 generator, got {type(bitgen).__name__}")
        self._bitgen = bitgen
        self._start = bitgen.state
        # A 32-bit draw made before (the bootstrap's, say) may have left
        # the high half of an output buffered; it is the next word.
        self._carry = self._start["has_uint32"]
        self._words = [self._start["uinteger"]] if self._carry else []
        self._pos = 0

    def _word(self) -> int:
        if self._pos == len(self._words):
            raw = self._bitgen.random_raw(self._CHUNK)
            self._words += np.column_stack([raw & 0xFFFFFFFF, raw >> 32]).ravel().tolist()
        word = self._words[self._pos]
        self._pos += 1
        return word

    def _below(self, n: int) -> int:
        """Lemire's unbiased draw from [0, n)."""
        m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32

    def sample(self, d: int, k: int) -> list[int]:
        picked: list[int] = []
        for j in range(d - k, d):
            v = self._below(j + 1) if j else 0
            picked.append(j if v in picked else v)
        for i in range(k, 1, -1):  # numpy's shuffle of the picks
            self._below(i)
        picked.sort()
        return picked

    def close(self) -> None:
        """Rewind the generator to just after the words drawn."""
        used = self._pos - self._carry  # words taken from raw outputs
        state = self._start
        if used > 0:
            outputs = (used + 1) // 2
            self._bitgen.state = state
            self._bitgen.advance(outputs)
            state = self._bitgen.state
            state["has_uint32"] = used % 2
            state["uinteger"] = self._words[self._carry + 2 * outputs - 1]
        elif self._pos:  # only the buffered word was drawn
            state = dict(state, has_uint32=0)
        self._bitgen.state = state


def _resolve_max_features(max_features: int | None, d: int) -> int:
    mf = math.ceil(d / 3) if max_features is None else max_features
    if not 1 <= mf <= d:
        raise ValueError(f"max_features must lie in [1, {d}], got {mf}")
    return mf


def fit_tree(X, y, rows, params: ForestParams, rng: np.random.Generator) -> Tree:
    """Grow one regression tree over the given (multiset of) row indices.

    ``rng`` must be PCG64-backed, as ``np.random.default_rng`` makes it:
    candidate features are replayed from its raw stream.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    if rows.size < 1:
        raise ValueError("need at least one row to grow a tree")
    d = X.shape[1]
    mf = _resolve_max_features(params.max_features, d)
    draws = _CandidateDraws(rng)
    X_list = X.tolist()
    y_list = y.tolist()
    nodes: list[list] = []
    # Depth first, left before right, so nodes and rng draws come in preorder.
    # An entry holds a node's sorted rows, its depth, and the split it is the
    # right child of, if any.
    stack: list[tuple[list[int], int, list | None]] = [(rows.tolist(), 0, None)]
    while stack:
        rows, depth, parent = stack.pop()
        if parent is not None:
            parent[2] = len(nodes)
        mean, yc = _node_target(rows, y, y_list)
        choice = None
        if (yc is not None and len(rows) >= params.min_samples_split
                and (params.max_depth is None or depth < params.max_depth)):
            choice = _split_node(rows, X, X_list, yc, draws.sample(d, mf),
                                 params.min_samples_leaf)
        if choice is None:
            nodes.append([-1, 0.0, -1, mean, len(rows)])
            continue
        f, t = choice.feature, choice.threshold
        node = [f, t, -1, 0.0, 0]
        nodes.append(node)
        stack.append(([i for i in rows if X_list[i][f] > t], depth + 1, node))
        stack.append(([i for i in rows if X_list[i][f] <= t], depth + 1, None))
    draws.close()
    return tree_from_nodes(nodes)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def _fit_one_tree(args) -> tuple[Tree, np.ndarray | None]:
    X, y, params, tree_index = args
    rng = _tree_rng(params.seed, tree_index)
    n = X.shape[0]
    if params.bootstrap:
        drawn = rng.integers(0, n, size=n)
        rows = np.sort(drawn)
        oob = np.ones(n, dtype=bool)
        oob[drawn] = False
    else:
        rows = np.arange(n)
        oob = None
    return fit_tree(X, y, rows, params, rng), oob


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fit_forest(X, y, params: ForestParams,
               feature_names: Sequence[str] | None = None,
               workers: int = 1) -> ForestModel:
    """Fit ``params.n_trees`` bootstrap trees.

    ``workers`` caps the worker processes, which never outnumber the trees
    or the CPUs this process may use; with one, trees are fitted in this
    process.  It only controls scheduling: the fitted model is
    bit-identical for any worker count because each tree owns a derived
    generator.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(
            f"X must be (n, d) and y length n, got {X.shape} and {y.shape}"
        )
    n, d = X.shape
    if n < 2:
        raise TooFewRowsError(f"need at least 2 rows, got {n}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    resolved = replace(params, max_features=_resolve_max_features(params.max_features, d))
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"x{i}" for i in range(d)
    )
    if len(names) != d:
        raise DimensionMismatchError(f"expected {d} feature names, got {len(names)}")

    tasks = [(X, y, resolved, t) for t in range(resolved.n_trees)]
    # The pool starts all its processes at once, so it gets no more than can be busy.
    pool_size = min(workers, resolved.n_trees, _usable_cpus())
    if pool_size <= 1:
        results = [_fit_one_tree(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(_fit_one_tree, tasks))

    trees = tuple(tree for tree, _ in results)
    oob_r2 = _oob_r2(X, y, results) if resolved.bootstrap else None
    return ForestModel(trees=trees, params=resolved, feature_names=names, oob_r2=oob_r2)


def _oob_r2(X: np.ndarray, y: np.ndarray, results) -> float | None:
    """R² of each row's mean prediction over the trees that left it out, or
    None where ``r2_score`` finds it undefined (under two such rows, or a constant y)."""
    sums = np.zeros(X.shape[0])
    for tree, oob in results:
        sums[oob] += predict_tree(tree, X[oob])
    counts = np.sum([oob for _, oob in results], axis=0)
    covered = counts > 0
    try:
        return r2_score(y[covered], sums[covered] / counts[covered])
    except (LengthMismatchError, ZeroVarianceError):
        return None


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf value each row of ``X`` reaches, routing all rows one level per step."""
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        split = tree.feature[at] >= 0
        rows, at = rows[split], at[split]
        left = X[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(left, at + 1, tree.right[at])
    return tree.value[node]


def predict_forest(m: ForestModel, X) -> np.ndarray:
    """Per row, the arithmetic mean of the routed leaf values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(m.feature_names):
        raise DimensionMismatchError(
            f"expected shape (n, {len(m.feature_names)}), got {X.shape}"
        )
    return sum(predict_tree(tree, X) for tree in m.trees) / len(m.trees)
