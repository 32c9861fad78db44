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
from array import array
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .linear import _as_xy, _check_rows, _names
from .metrics import r2_if_defined

# A scan call pads its nodes to the widest, so nodes of up to 8 rows, of up
# to 48 and more go to separate calls, each of at most this many padded
# cells (nodes x candidates x width) unless one node alone has more.
_WIDTH_CLASSES = (8, 48)
_SCAN_CELLS = 8192

# Two candidate features whose impurity decreases agree to within this
# fraction of the parent variance are a tie; distinct true reductions on
# continuous targets differ by far more, while equal-partition candidates
# computed through different float paths differ by far less.
REDUCTION_TIE_RTOL = 1e-9

# Rows at a leaf keep stepping there in place; they leave the routing arrays
# once every this many levels.
_COMPACT_EVERY = 4


class Tree(NamedTuple):
    """One regression tree as parallel arrays over its nodes in preorder, as model files
    store them.

    Node 0 is the root, a split's left child is the node after it, and its
    right child the node after its left subtree.
    """

    feature: np.ndarray  # -1 marks a leaf
    number: np.ndarray  # a split's threshold (x[feature] <= it goes left), a leaf's prediction
    count: np.ndarray  # training samples in a leaf, 0 at a split


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

    def resolved(self, d: int) -> ForestParams:
        """These settings for ``d`` features, with max_features None as ceil(d / 3)."""
        mf = math.ceil(d / 3) if self.max_features is None else self.max_features
        if not 1 <= mf <= d:
            raise ValueError(f"max_features must lie in [1, {d}], got {mf}")
        return replace(self, max_features=mf)


@dataclass(frozen=True, eq=False)
class ForestModel:
    trees: tuple[Tree, ...]
    params: ForestParams
    feature_names: tuple[str, ...]
    oob_r2: float | None
    # Each training row's prediction, from the fit; not saved, so None once loaded.
    training_predictions: np.ndarray | None = None


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


def _node_target(rows: list[int], y_list: list[float], may_split: bool) -> tuple[float, float | None]:
    """A node's mean target and, if it may split and is not constant, its
    centred sum of squares: numpy's pairwise sums in row order, bit for bit."""
    m = len(rows)
    ys = [y_list[i] for i in rows]
    mean = (0.0 + _pairwise_sum(ys)) / m
    if not may_split or ys.count(ys[0]) == m:
        return mean, None
    yc = [v - mean for v in ys]
    s = 0.0 + _pairwise_sum(yc)
    return mean, (0.0 + _pairwise_sum([v * v for v in yc])) - s * s / m


def _rank_tables(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's position in ``lexsort((y, x))`` per feature, from f * (n + 1) on, and
    x and y by position (flat); a feature's last position, past every row, pads a scan."""
    n, d = X.shape
    order = np.array([np.lexsort((y, X[:, f])) for f in range(d)])
    ranks = np.full((d, n + 1), n)
    np.put_along_axis(ranks, order, np.arange(n), axis=1)
    by_rank = np.zeros((2, d, n + 1))
    by_rank[0, :, :n] = np.take_along_axis(X.T, order, axis=1)
    by_rank[1, :, :n] = y[order]
    return ranks + (n + 1) * np.arange(d)[:, None], by_rank[0].ravel(), by_rank[1].ravel()


def _best_splits(tables, nodes, features: np.ndarray, min_leaf: int) -> list[tuple | None]:
    """Each node's best (feature, threshold, reduction) among its candidates, or None, in one batch.

    ``nodes`` holds (rows, mean, sse_parent), ``features`` a sorted row of
    candidates per node.  A (node, feature) pair's rows are sorted by
    position, which is (x, y) order (rows that tie on both give equal terms),
    and its prefix sums run down a padded column in the order a loop over the
    node would add them: a node's result depends on nothing else in the batch.
    """
    if not nodes:
        return []
    ranks, x_by_rank, y_by_rank = tables
    stride, k = ranks.shape[1], features.shape[1]
    # Everything per node or per (node, candidate) column is laid out once, by size.
    order = sorted(range(len(nodes)), key=lambda i: len(nodes[i][0]))
    rows, means, sse_parent = zip(*map(nodes.__getitem__, order))
    widths = list(map(len, rows))
    m, sse_parent = np.array(widths), np.array(sse_parent)
    bands = REDUCTION_TIE_RTOL * sse_parent / m
    features = features[order]
    starts = features * stride
    flat = np.fromiter(chain.from_iterable(rows), np.intp, m.sum())
    edges = np.cumsum(np.r_[0, m])  # node i's rows in ``flat`` lie in [edges[i], edges[i + 1])
    col_m, col_mean, col_sse = (np.repeat(v, k) for v in (m, means, sse_parent))
    thresholds, reductions = np.empty((2, len(nodes) * k))
    a = 0
    while a < len(widths):
        # One call takes nodes of one width class, padded to the widest.
        limit = next((w for w in _WIDTH_CLASSES if widths[a] <= w), math.inf)
        b = a + 1
        while (b < len(widths) and (width := widths[b]) <= limit
               and (b - a + 1) * k * width <= _SCAN_CELLS):
            b += 1
        width = widths[b - 1]
        padded = np.full((b - a, width), stride - 1)
        padded[np.arange(width) < m[a:b, None]] = flat[edges[a]:edges[b]]
        at = np.take(ranks, starts[a:b, :, None] + padded[:, None])
        at.sort(axis=2)
        # Positions down axis 0 and one (node, candidate) pair per column: the gathers
        # below write C-ordered arrays, so each later step is a pass over whole rows.
        at = at.reshape(-1, width).T
        cols, ncol = slice(a * k, b * k), at.shape[1]
        mc, col = col_m[cols], np.arange(ncol)
        xs = np.take(x_by_rank, at)
        ys = np.take(y_by_rank, at)
        ys -= col_mean[cols]
        cs = np.cumsum(ys, axis=0)
        ys *= ys
        cq = np.cumsum(ys, axis=0)
        last = (mc - 1) * ncol + col  # flat cells of each column's last row
        s_t, q_t = cs.take(last), cq.take(last)
        s_l, q_l = cs[:-1], cq[:-1]
        p = np.arange(1.0, width)[:, None]
        n_r = mc - p
        # Past a node's last row the right side is empty; those cells are masked.
        invalid = (xs[:-1] == xs[1:]) | (n_r < min_leaf)
        if min_leaf > 1:
            invalid |= p < min_leaf
        sse_l = s_l * s_l
        sse_l /= p
        np.subtract(q_l, sse_l, out=sse_l)
        sse_r = s_t - s_l
        sse_r *= sse_r
        sse_r /= np.maximum(n_r, 1.0, out=n_r)
        np.subtract(q_t - q_l, sse_r, out=sse_r)
        reduction = np.subtract(col_sse[cols], sse_l, out=sse_l)
        reduction -= sse_r
        reduction /= mc
        reduction[invalid] = -np.inf
        pick = reduction.argmax(axis=0) * ncol + col  # first max = lowest threshold
        reductions[cols] = reduction.take(pick)
        lo, hi = xs.take(pick), xs.take(pick + ncol)
        threshold = 0.5 * (lo + hi)
        # Adjacent floats: keep the <= rule partition intact.
        thresholds[cols] = np.where(threshold == hi, lo, threshold)
        a = b
    best = _resolve_ties(reductions.reshape(-1, k), bands)
    back = np.argsort(order)  # each node's place in the size order
    cell = (np.arange(0, len(reductions), k) + best)[back]
    return [(f, t, r) if c >= 0 else None
            for c, f, t, r in zip(best[back].tolist(), features.take(cell).tolist(),
                                  thresholds.take(cell).tolist(), reductions.take(cell).tolist())]


def _resolve_ties(reductions: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """Per row, the candidate that a walk in order holds at the end, or -1 for none: a
    positive reduction displaces the one held when larger by more than the row's band."""
    best = np.full(len(reductions), -1)
    bar = np.zeros(len(reductions))  # 0, then the reduction held plus the band (if above 0)
    for c, r in enumerate(reductions.T):
        take = r > bar
        best[take] = c
        np.maximum(r + bands, 0.0, out=bar, where=take)
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
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rows = np.sort(np.asarray(rows, dtype=np.intp)).tolist()
    if len(rows) < 2:
        return None
    mean, sse_parent = _node_target(rows, y.tolist(), True)
    if sse_parent is None:
        return None
    features = np.array([sorted(int(f) for f in candidate_features)])
    choice = _best_splits(_rank_tables(X, y), [(rows, mean, sse_parent)], features,
                          min_samples_leaf)[0]
    return None if choice is None else SplitChoice(*choice)


def _draw_bounds(d: int, k: int) -> np.ndarray:
    """The bounds of the draws one ``rng.choice(d, size=k, replace=False)`` makes, in
    order: Floyd's ``j + 1`` for each j in range(d - k, d), then the shuffle's k, ..., 2;
    int64, which numpy draws below about 6 times as fast as uint64."""
    return np.array([*range(d - k + 1, d + 1), *range(k, 1, -1)], dtype=np.int64)


def _floyd_block(values: np.ndarray, d: int, k: int) -> np.ndarray:
    """Each row's sorted ``rng.choice(d, size=k, replace=False)`` from its row of draws
    below ``_draw_bounds(d, k)``: Floyd's steps over all rows at once, then a sort per row."""
    picks: list[np.ndarray] = []  # Floyd's picks so far, a column each
    for i, j in enumerate(range(d - k, d)):
        drawn = values[:, i]
        if picks:
            seen = picks[0] == drawn
            for earlier in picks[1:]:
                seen |= earlier == drawn
            drawn = np.where(seen, j, drawn)
        picks.append(drawn)
    block = np.column_stack(picks)
    block.sort(axis=1)
    return block


class _CandidateDraws:
    """``sorted(rng.choice(d, size=k, replace=False).tolist())``, replayed in numpy blocks.

    For d up to 10,000, numpy's ``choice`` is Floyd's sampling algorithm over
    bounded draws from 32-bit words, then a shuffle that sorting discards.
    ``rng.integers`` below an array of ``_draw_bounds``, in its default int64,
    makes each draw from the same words, a rejected word drawn again included
    (a dtype under 32 bits would share words between draws), so one call makes
    ``_BLOCK`` draws.  ``close`` leaves the generator where the ``choice``
    calls would have, for any numpy bit generator.  Above 10,000 features
    ``choice`` shuffles when k > d // 50: the picks stay Floyd's, not its.
    """

    # Draws computed at once, about what a tree grown on 400 rows makes; only the
    # current block is kept.
    _BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._shape = (0, 0)  # the current block's (d, k)
        self._picks = array("B")  # the block's draws, one after another
        self._next = 0  # where the next draw starts in ``_picks``

    def sample(self, d: int, k: int) -> list[int]:
        i = self._next
        if i == len(self._picks) or (d, k) != self._shape:
            self._start_block(d, k)
            i = 0
        self._next = i + k
        return self._picks[i:i + k].tolist()

    def _draw(self, rows: int) -> np.ndarray:  # ``rows`` draws of the current shape
        bounds = _draw_bounds(*self._shape)
        return self._rng.integers(0, bounds, size=(rows, bounds.size))

    def _start_block(self, d: int, k: int) -> None:
        self.close()
        self._state = self._rng.bit_generator.state  # where the block's words begin
        self._shape, self._next = (d, k), 0
        block = _floyd_block(self._draw(self._BLOCK), d, k)
        # Picks lie in [0, d), so the narrowest unsigned type keeps the block small.
        kind = np.min_scalar_type(d - 1)
        self._picks = array(kind.char, block.astype(kind).tobytes())

    def close(self) -> None:
        """Set the generator just after the draws taken."""
        if self._next < len(self._picks):  # a block used whole left it there already
            self._rng.bit_generator.state = self._state
            self._draw(self._next // self._shape[1])


def _grow(X: np.ndarray, y: np.ndarray, params: ForestParams,
          roots: list[tuple[np.ndarray, np.random.Generator]]) -> list[tuple[Tree, np.ndarray]]:
    """Grow one tree per (sorted rows, generator) pair of ``roots``, all in lockstep, each
    with the preorder node every row of ``X`` reaches in it, as the narrowest unsigned ints.

    In each step every unfinished tree settles leaves in preorder up to
    its next node that may split, and draws that node's candidates; one
    ``_best_splits`` call serves the step's nodes.  Each tree gets the
    nodes and draws that growing it alone would give.
    """
    d = X.shape[1]
    k = params.resolved(d).max_features
    max_depth = math.inf if params.max_depth is None else params.max_depth
    min_split = params.min_samples_split
    tables = _rank_tables(X, y)
    columns, y_list = X.T.tolist(), y.tolist()
    ids = list(range(X.shape[0]))  # the row lists hold these ints, not copies of them
    # Per tree: a depth-first stack of (sorted rows, depth), left popped before
    # right; the draws; and the preorder nodes, three float64s each in Tree's
    # field order.
    trees = [([(list(map(ids.__getitem__, rows.tolist())), 0)], _CandidateDraws(rng),
              array("d")) for rows, rng in roots]
    growing = trees
    while growing:
        batch = []
        for tree in growing:
            stack, draws, nodes = tree
            while stack:
                rows, depth = stack.pop()
                may_split = len(rows) >= min_split and depth < max_depth
                mean, sse_parent = _node_target(rows, y_list, may_split)
                if sse_parent is not None:
                    batch.append((tree, rows, depth, mean, sse_parent, draws.sample(d, k)))
                    break
                nodes.extend((-1, mean, len(rows)))
        choices = _best_splits(tables, [(b[1], b[3], b[4]) for b in batch],
                               np.array([b[5] for b in batch]), params.min_samples_leaf)
        for ((stack, _, nodes), rows, depth, mean, _, _), choice in zip(batch, choices):
            if choice is None:
                nodes.extend((-1, mean, len(rows)))
                continue
            f, t, _ = choice
            column = columns[f]
            stack.append(([i for i in rows if column[i] > t], depth + 1))
            stack.append(([i for i in rows if column[i] <= t], depth + 1))
            nodes.extend((f, t, 0))
        growing = [b[0] for b in batch if b[0][0]]
    fitted = []
    for _, draws, nodes in trees:
        draws.close()
        f, number, count = np.array(nodes).reshape(-1, 3).T
        del nodes[:]  # every tree's nodes are held at once, so free them as we go
        tree = Tree(f.astype(np.int64), number.copy(), count.astype(np.int64))
        leaf, order = _route(tree, X)
        fitted.append((tree, order.astype(np.min_scalar_type(order.size - 1))[leaf]))
    return fitted


def fit_tree(X, y, rows, params: ForestParams, rng: np.random.Generator) -> Tree:
    """Grow one regression tree over the given (multiset of) row indices.

    ``rng`` is left where per-node ``rng.choice`` draws of the candidates would leave it."""
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    if rows.size < 1:
        raise ValueError("need at least one row to grow a tree")
    return _grow(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64), params,
                 [(rows, rng)])[0][0]


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


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
    generator.  Each tree routes the training rows once, where it was
    grown, for both ``oob_r2`` and ``training_predictions``.
    """
    X, y = _as_xy(X, y)
    n, d = X.shape
    if n < 2:
        raise ValidationError(f"need at least 2 rows, got {n}")
    resolved = params.resolved(d)
    names = _names(feature_names, d)

    # A tree's bootstrap comes first from its generator, its candidates after.
    rngs = [_tree_rng(resolved.seed, t) for t in range(resolved.n_trees)]
    roots = [(np.sort(rng.integers(0, n, size=n)) if resolved.bootstrap else np.arange(n), rng)
             for rng in rngs]
    # Each worker grows one contiguous block of trees.  The pool starts all
    # its processes at once, so it gets no more than can be busy.
    pool_size = min(workers, resolved.n_trees, _usable_cpus())
    size = -(-resolved.n_trees // max(pool_size, 1))
    blocks = [roots[i:i + size] for i in range(0, resolved.n_trees, size)]
    if len(blocks) == 1:
        grown = [_grow(X, y, resolved, roots)]
    else:
        # Imported here: the pool's import brings multiprocessing and socket, which
        # only a run with more than one worker uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            # Folding only once every block is in: beside the pool's unpickling it
            # raised the peak RSS by about 0.4 MB.
            grown = list(pool.map(partial(_grow, X, y, resolved), blocks))
    trees, leaves = zip(*chain.from_iterable(grown))
    return ForestModel(trees, resolved, names, *_fold(trees, leaves, y, roots))


def _fold(trees, leaves, y: np.ndarray, roots) -> tuple[float | None, np.ndarray]:
    """The R² of each row's mean leaf value over the trees that left it out (None where
    undefined: under two such rows, as always without bootstrap, or a constant y), and each
    row's mean over all trees.  Both sums add leaf values tree by tree from 0, as
    ``predict_forest`` and a per-tree out-of-bag routing add them."""
    total, oob_sums, counts = np.zeros((3, len(y)))
    for tree, leaf, (rows, _) in zip(trees, leaves, roots):
        values = tree.number[leaf]
        total += values
        oob = np.bincount(rows, minlength=len(y)) == 0
        oob_sums[oob] += values[oob]
        counts += oob
    covered = counts > 0
    return r2_if_defined(y[covered], oob_sums[covered] / counts[covered]), total / len(trees)


def _sibling_order(tree: Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tree renumbered so that the split of preorder rank k has its children at
    2k + 1 and 2k + 2, as (right child, feature, threshold, preorder node) per new id.

    A leaf is its own right child, with feature 0 and threshold NaN: no x is
    <= NaN, so a row at a leaf steps to the same leaf.  A split's right child
    is the next preorder node with as many subtrees open before it: the
    nodes of its left subtree all have more.
    """
    split = tree.feature >= 0
    at = np.flatnonzero(split)
    step = np.where(split, 1, -1)
    level = np.argsort(np.cumsum(step) - step, kind="stable")  # by open subtrees, then preorder
    following = np.empty_like(level)  # the next node with as many open, per node
    following[level[:-1]] = level[1:]
    left = np.arange(1, 2 * at.size, 2)
    new = np.zeros(split.size, dtype=np.intp)  # each preorder node's new id
    new[at + 1] = left
    new[following[at]] = left + 1
    second = new.copy()
    second[at] = left + 1
    order = np.empty_like(new)
    order[new] = np.arange(split.size)
    return (second[order], np.where(split, tree.feature, 0)[order],
            np.where(split, tree.number, np.nan)[order], order)


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf value each row of ``X`` reaches."""
    node, order = _route(tree, X)
    return tree.number[order][node]


def _route(tree: Tree, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leaf each row of ``X`` reaches, by its id in ``_sibling_order``, and the
    preorder node of each such id; all rows are routed one level per step.

    A step reads each row's feature with one gather from the flat row-major
    ``X``; a row at the split whose right child is r moves to r - 1 when
    x <= threshold, else to r, so a NaN goes right as in a row-by-row walk.
    """
    X = np.ascontiguousarray(X)
    flat = X.ravel()
    second, feature, threshold, order = _sibling_order(tree)
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0] if second[0] else 0)  # a lone leaf routes no row
    at, base = node[rows], rows * X.shape[1]
    while rows.size:
        for _ in range(_COMPACT_EVERY):
            at = second[at] - (flat[feature[at] + base] <= threshold[at])
        node[rows] = at
        live = second[at] != at
        rows, at, base = rows[live], at[live], base[live]
    return node, order


def predict_forest(m: ForestModel, X) -> np.ndarray:
    """Per row, the arithmetic mean of the routed leaf values."""
    X = np.ascontiguousarray(X, dtype=np.float64)  # row-major once, not per tree
    _check_rows(X, len(m.feature_names))
    return sum(predict_tree(tree, X) for tree in m.trees) / len(m.trees)
