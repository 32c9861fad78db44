"""Random-forest regression built from variance-reduction binary trees.

Splits maximize the weighted variance reduction
Var(parent) - (nL/n) Var(left) - (nR/n) Var(right), with thresholds at
midpoints between consecutive distinct sorted feature values.  Ties are
broken by lowest feature index, then lowest threshold.

Determinism contract: every tree draws from its own generator derived as
``SeedSequence(seed, spawn_key=(tree_index,))``, so fitting is bit-identical
no matter how tree construction is scheduled; within a tree, each node that
may split draws its candidate features as one ``rng.choice`` call would, in
the depth-first, left-then-right order the tree grows in, replayed from a
block of draws per tree read once a step by every tree at once.  Node scans
canonicalize sample order by sorting on (feature value, target value), which
makes the chosen split independent of training row order.  Node means and
centred sums of squares are ``np.sum``'s to the bit, for a batch of nodes at once.

A block of trees grows in lockstep with its bookkeeping in numpy arrays:
each tree keeps a stack of the nodes that may split (id, rows, target and
depth), each step appends its splits and their children to flat node
records, and the end of the fit lays every tree's preorder arrays out from
those records, by subtree sizes walked over the steps' parent ids.  Trees
route rows in groups, every (tree, row) pair of a group stepping down its
tree in one set of arrays: the training rows where the trees grew, and the
rows a prediction scores.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from array import array
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .linear import _as_xy, _check_rows
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

# A tree's stack of nodes that may split holds this many before it first doubles.
_STACK_START = 16

# Rows at a leaf keep stepping there in place; they leave the routing arrays
# once every this many levels.
_COMPACT_EVERY = 4

# Trees route rows together, one (tree, row) pair per element of the routing
# arrays, at most this many pairs at once unless one tree alone has more rows.
_ROUTE_PAIRS = 2**12


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
    n_features: int
    oob_r2: float | None
    # Each training row's prediction, from the fit; not saved, so None once loaded.
    training_predictions: np.ndarray | None = None


def _node_targets(y: np.ndarray, rows: np.ndarray, sizes: np.ndarray,
                  may_split: bool | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's mean target, centred sum of squares, and whether it may split and is not
    constant, for nodes whose rows lie one after another in ``rows``.

    Every sum is ``np.sum``'s of the node's values in row order, bit for bit:
    ``np.add.reduceat`` copies a segment's first element and adds numpy's
    pairwise sum of the rest to it, so each node's segment starts with a 0.0,
    as ``np.sum`` starts from 0.0.  ``may_split`` is a bool or one per node.
    """
    ys = y[rows]
    starts = sizes.cumsum() - sizes
    pads = starts + np.arange(sizes.size)  # each node's 0.0, just ahead of its values
    values = np.ones(ys.size + sizes.size, dtype=bool)
    values[pads] = False
    padded = np.zeros(values.size)
    splits = may_split & (np.maximum.reduceat(ys, starts) > np.minimum.reduceat(ys, starts))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as Python floats give
        padded[values] = ys
        means = np.add.reduceat(padded, pads) / sizes
        ys -= means.repeat(sizes)
        padded[values] = ys
        s = np.add.reduceat(padded, pads)
        padded *= padded
        sse = np.add.reduceat(padded, pads) - s * s / sizes
    return means, sse, splits


def _partition(X: np.ndarray, rows: np.ndarray, sizes: np.ndarray, features: np.ndarray,
               thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's rows with ``x[feature] <= threshold``, then its rows above it, each run
    in the node's row order, as one array; and the size of each of those 2 x nodes runs.
    Node i's rows are the ``sizes[i]`` after node i - 1's in ``rows``."""
    right = X[rows, features.repeat(sizes)] > thresholds.repeat(sizes)
    # 2 * node + goes right, in the narrowest type, which numpy sorts fastest.
    key = np.arange(0, 2 * sizes.size, 2, dtype=np.min_scalar_type(2 * sizes.size))
    key = key.repeat(sizes)
    key += right
    return rows[key.argsort(kind="stable")], np.bincount(key, minlength=2 * sizes.size)


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


def _best_splits(tables, rows: np.ndarray, sizes: np.ndarray, means: np.ndarray,
                 sse_parent: np.ndarray, features: np.ndarray,
                 min_leaf: int) -> tuple[np.ndarray, ...]:
    """Each node's best candidate (its column in ``features``, or -1 for none), feature,
    threshold and reduction, for a batch of nodes in ascending size order.

    Node i's rows are the ``sizes[i]`` after node i - 1's in ``rows``; it has
    target mean ``means[i]``, centred sum of squares ``sse_parent[i]`` and a
    sorted row of candidates ``features[i]``.  A (node, feature) pair's rows
    are sorted by position, which is (x, y) order (rows that tie on both give
    equal terms), and its prefix sums run down a padded column in the order a
    loop over the node would add them: a node's result depends on nothing
    else in the batch.  Where a node has no split, its other values are
    meaningless.
    """
    ranks, x_by_rank, y_by_rank = tables
    stride, k = ranks.shape[1], features.shape[1]
    # Everything per node or per (node, candidate) column is laid out once.
    widths = sizes.tolist()
    bands = REDUCTION_TIE_RTOL * sse_parent / sizes
    starts = features * stride
    edges = [0, *sizes.cumsum().tolist()]  # node i's rows lie in rows[edges[i]:edges[i + 1]]
    col_m, col_mean, col_sse = (v.repeat(k) for v in (sizes, means, sse_parent))
    thresholds, reductions = np.empty((2, len(widths) * k))
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
        padded[np.arange(width) < sizes[a:b, None]] = rows[edges[a]:edges[b]]
        at = ranks.take(starts[a:b, :, None] + padded[:, None])
        at.sort(axis=2)
        # Positions down axis 0 and one (node, candidate) pair per column: the gathers
        # below write C-ordered arrays, so each later step is a pass over whole rows.
        at = at.reshape(-1, width).T
        cols, ncol = slice(a * k, b * k), at.shape[1]
        mc, col = col_m[cols], np.arange(ncol)
        xs = x_by_rank.take(at)
        ys = y_by_rank.take(at)
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
    cell = np.arange(0, len(reductions), k) + best
    return best, features.take(cell), thresholds.take(cell), reductions.take(cell)


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


class _StepDraws:
    """Each tree's ``sorted(rng.choice(d, size=k, replace=False).tolist())`` per step of
    ``_grow``, replayed in numpy blocks of ``_BLOCK`` steps.

    A tree draws once a step until its stack empties, so a tree's draw index
    is the step number, and the trees drawing in a step all drew in the one
    before.  For d up to 10,000, ``choice`` is Floyd's sampling algorithm over
    bounded draws from 32-bit words, then a shuffle that sorting discards.
    ``rng.integers`` below an array of ``_draw_bounds``, in its default int64,
    makes each draw from the same words, a rejected word drawn again included
    (a dtype under 32 bits would share words between draws), so one call
    makes a tree's block and its picks equal the ``choice`` calls', call for
    call, for any numpy bit generator.  A generator ends where its last block
    left it, not where those calls would.  Above 10,000 features ``choice``
    shuffles when k > d // 50: the picks stay Floyd's.
    """

    # Draws per tree computed at once, about what a tree grown on 400 rows makes.
    _BLOCK = 256

    def __init__(self, rngs: Sequence[np.random.Generator], d: int, k: int):
        self._rngs, self._shape, self._bounds = rngs, (d, k), _draw_bounds(d, k)
        # Each tree's block of picks, in [0, d): the narrowest unsigned type keeps it small.
        self._picks = np.empty((len(rngs), self._BLOCK, k), np.min_scalar_type(d - 1))
        self._step = 0

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next draw of each of ``trees``, one row of sorted picks each."""
        i = self._step % self._BLOCK
        if i == 0:  # one tree at a time, so that one block of words is held at once
            for t in trees.tolist():
                values = self._rngs[t].integers(0, self._bounds,
                                                size=(self._BLOCK, self._bounds.size))
                self._picks[t] = _floyd_block(values, *self._shape)
        self._step += 1
        return self._picks[trees, i].astype(np.intp)


def _grow(X: np.ndarray, y: np.ndarray, params: ForestParams,
          roots: list[tuple[np.ndarray, np.random.Generator]]) -> list[tuple[Tree, np.ndarray]]:
    """Grow one tree per (sorted rows, generator) pair of ``roots``, all in lockstep, each
    with the preorder node every row of ``X`` reaches in it, as the narrowest unsigned ints.

    Nodes get ids in the order they are made, the roots first.  Every tree's
    rows lie in one array, a node's rows in one run of it, which a split
    reorders into its left rows, then its right rows.  Each tree has a stack,
    in arrays, of its nodes that may split, so a node that may not is a leaf
    as soon as it is made.  In each step every tree with a node on its stack
    pops it, one gather reads every popped node's candidates from the trees'
    blocks of draws (``_StepDraws``), one ``_best_splits`` call scans the
    popped nodes in size order, and one pass partitions the rows of those
    that split, computes their children's targets, and pushes each child that
    may split, the right one first.  A step records the ids, features and
    thresholds of its splits and its children's means and sizes.  From those
    records ``_lay_out`` takes each node's subtree size (last step first),
    then its preorder place (first step first), and lays every tree's
    ``Tree`` arrays out in preorder, all trees together, once.  Each tree
    gets the nodes and draws that growing it alone would give.  Then every
    row of ``X`` is routed through the trees, a group of them at a time
    (``_route``).
    """
    d = X.shape[1]
    k = params.resolved(d).max_features
    max_depth = math.inf if params.max_depth is None else params.max_depth
    min_split = params.min_samples_split
    tables = _rank_tables(X, y)
    n_trees = len(roots)
    draws = _StepDraws([rng for _, rng in roots], d, k)
    rows = np.concatenate([r for r, _ in roots]).astype(np.min_scalar_type(len(X) - 1))
    root_sizes = np.array([r.size for r, _ in roots])
    # Roots get their targets one at a time, so that no call holds every root's rows at once.
    root_means, sse, ok = map(np.concatenate, zip(*(
        _node_targets(y, r, np.array([r.size]), r.size >= min_split and max_depth > 0)
        for r, _ in roots)))
    # A stacked node is a column of its tree's stack: its mean, centred sum of squares,
    # id, first row in ``rows``, size and depth.  A stack grows one node a step at most.
    stack = np.empty((6, n_trees, _STACK_START))
    stack[:, :, 0] = (root_means, sse, np.arange(n_trees), np.cumsum(root_sizes) - root_sizes,
                      root_sizes, np.zeros(n_trees))
    height = ok.astype(np.intp)
    # Per step, one after another: the ids of the nodes that split, their children's means
    # (left then right), their thresholds, their children's sizes and their features.
    # Ids, sizes and features are kept as the narrowest unsigned ints that hold them.
    steps = []  # the nodes that split in each step
    made = [array(t) for t in (np.min_scalar_type(2 * rows.size).char, "d", "d",
                               np.min_scalar_type(root_sizes.max()).char,
                               np.min_scalar_type(d - 1).char)]
    n_nodes = n_trees
    live = height.nonzero()[0]
    while live.size:
        tops = height[live] - 1
        height[live] = tops
        top = stack[:, live, tops]
        order = top[4].argsort(kind="stable")
        top, trees = top[:, order], live[order]
        ids, starts, sizes, depths = top[2:].astype(np.intp)
        features = draws.take(trees)
        ends = sizes.cumsum()
        at = (starts - ends + sizes).repeat(sizes) + np.arange(ends[-1])  # in ``rows``
        node_rows = rows[at]
        best, feature, threshold, _ = _best_splits(tables, node_rows, sizes, top[0], top[1],
                                                   features, params.min_samples_leaf)
        split = best >= 0
        sel = split.nonzero()[0]
        if sel.size:
            if sel.size < split.size:
                keep = split.repeat(sizes)
                at, node_rows = at[keep], node_rows[keep]
            ids, starts, depths, trees = ids[sel], starts[sel], depths[sel] + 1, trees[sel]
            feature, threshold = feature[sel], threshold[sel]
            children, counts = _partition(X, node_rows, sizes[sel], feature, threshold)
            rows[at] = children
            del at, node_rows  # in the first step, every root's rows
            may_split = (counts >= min_split) & (depths < max_depth).repeat(2)
            means, sse, ok = _node_targets(y, children, counts, may_split)
            steps.append(sel.size)
            for buffer, values in zip(made, (ids, means, threshold, counts, feature)):
                buffer.frombytes(values.astype(buffer.typecode, copy=False).tobytes())
            # The left child goes above the right one, so that it is popped first.
            place = height[trees].repeat(2)
            place[::2] += ok[1::2]
            height[trees] = place[::2] + ok[::2]
            if height.max() > stack.shape[2]:
                stack = np.concatenate((stack, np.empty_like(stack)), axis=2)
            firsts = starts.repeat(2)
            firsts[1::2] += counts[::2]
            push = ok.nonzero()[0]
            stack[:, trees.repeat(2)[push], place[push]] = np.array((
                means, sse, np.arange(n_nodes, n_nodes + counts.size), firsts, counts,
                depths.repeat(2)))[:, push]
            n_nodes += counts.size
        live = height.nonzero()[0]
    del rows, stack, tables, draws  # before the routing, which would set the fit's peak
    feature, number, count, bounds = _lay_out(root_means, root_sizes, steps, made)
    trees = [Tree(feature[a:b], number[a:b], count[a:b]) for a, b in zip(bounds, bounds[1:])]
    preorder = (np.arange(t.feature.size, dtype=np.min_scalar_type(t.feature.size - 1))
                for t in trees)
    return list(zip(trees, _route(trees, preorder, X)))


def _lay_out(root_means: np.ndarray, root_sizes: np.ndarray, steps: list[int],
             made: list[array]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The ``Tree`` arrays of a block of trees, one tree after another, each in preorder,
    and where each tree starts and the last ends, from ``_grow``'s step records.

    Each node's subtree size comes first, the last step's nodes first; then
    its place, the first step's nodes first: a root's after the trees before
    it, a left child's just after its parent, a right child's after its
    left sibling's subtree.  ``made`` is emptied as its records are used, and
    the three arrays are made one at a time, so that they overlap little.
    """
    made.reverse()  # so that each record pops off in the order it is used
    n_trees = root_means.size
    ids = _frombuffer(made.pop())
    n_nodes = n_trees + 2 * ids.size
    at = np.ones(n_nodes, dtype=np.min_scalar_type(n_nodes))  # sizes, then places
    end, i = n_nodes, ids.size
    for n in reversed(steps):
        start = end - 2 * n
        at[ids[i - n:i]] += at[start:end:2] + at[start + 1:end:2]
        end, i = start, i - n
    at[:n_trees] = np.cumsum(at[:n_trees]) - at[:n_trees]
    start, i = n_trees, 0
    for n in steps:
        end = start + 2 * n
        first = at[ids[i:i + n]] + 1
        at[start + 1:end:2] = first + at[start:end:2]  # after the left subtree
        at[start:end:2] = first
        start, i = end, i + n
    parents = at[ids]
    del ids
    number = np.empty(n_nodes)
    number[at[:n_trees]] = root_means
    number[at[n_trees:]] = _frombuffer(made.pop())
    number[parents] = _frombuffer(made.pop())
    count = np.zeros(n_nodes, np.int64)
    count[at[:n_trees]] = root_sizes
    count[at[n_trees:]] = _frombuffer(made.pop())
    count[parents] = 0
    bounds = [*at[:n_trees].tolist(), n_nodes]
    del at
    feature = np.full(n_nodes, -1)
    feature[parents] = _frombuffer(made.pop())
    return feature, number, count, bounds


def _frombuffer(values: array) -> np.ndarray:
    return np.frombuffer(values, values.typecode)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fit_forest(X, y, params: ForestParams, workers: int = 1) -> ForestModel:
    """Fit ``params.n_trees`` bootstrap trees.

    ``workers`` caps the processes forked to grow the trees, never more than
    the trees or the CPUs this process may use; with one, or without
    ``os.fork``, trees are fitted in this process.  It only controls
    scheduling: the model is bit-identical for any worker count because each
    tree owns a derived generator.  Each tree routes the training rows once,
    where it was grown, for both ``oob_r2`` and ``training_predictions``.
    """
    X, y = _as_xy(X, y)
    n, d = X.shape
    if n < 2:
        raise ValidationError(f"need at least 2 rows, got {n}")
    resolved = params.resolved(d)

    # A tree's bootstrap comes first from its generator, its candidates after.
    rngs = [_tree_rng(resolved.seed, t) for t in range(resolved.n_trees)]
    roots = [(np.sort(rng.integers(0, n, size=n)) if resolved.bootstrap else np.arange(n), rng)
             for rng in rngs]
    # Each worker grows one contiguous block of trees.  Every worker starts at once,
    # so there are no more than can be busy.
    n_workers = min(workers, resolved.n_trees, _usable_cpus())
    size = -(-resolved.n_trees // max(n_workers, 1))
    blocks = [roots[i:i + size] for i in range(0, resolved.n_trees, size)]
    if len(blocks) == 1 or not hasattr(os, "fork"):
        grown = [_grow(X, y, resolved, roots)]
    else:
        # Folding only once every block is in: folding each block as it was read
        # raised the peak RSS by about 0.4 MB.
        grown = _fork_map(partial(_grow, X, y, resolved), blocks)
    trees, leaves = zip(*chain.from_iterable(grown))
    return ForestModel(trees, resolved, d, *_fold(trees, leaves, y, roots))


def _fork_map(fn, blocks: list) -> list:
    """``[fn(block) for block in blocks]``, each call in a child forked for it that
    pipes its result or exception back pickled; this process only reads them, in
    order.  A child's exception is raised here; a child that ends without a result,
    as one the OOM killer ends does, raises ``MemoryError``.  No child outlives the call."""
    running = {}  # pid: the read end of its pipe, until it is reaped
    try:
        for block in blocks:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(w, "wb") as pipe:
                        try:
                            result = True, fn(block)
                        except Exception as exc:
                            result = False, exc
                        pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)  # so that the pipe ends where its child does
            running[pid] = open(r, "rb")
        results = []
        for number, pid in enumerate(list(running), 1):
            with running[pid] as pipe:
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    ok = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if ok is None:
                ended = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise MemoryError(f"tree-fitting worker {number} of {len(blocks)} ended "
                                  f"without a result ({ended})")
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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


def _sibling_order(tree: Tree, labels: np.ndarray,
                   first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tree renumbered from id ``first`` so that the split of preorder rank k has its
    children at first + 2k + 1 and first + 2k + 2, as (right child, feature, threshold,
    label) per new id, where ``labels`` holds one label per preorder node.

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
    return (second[order] + first, np.where(split, tree.feature, 0)[order],
            np.where(split, tree.number, np.nan)[order], labels[order])


def _route(trees: Sequence[Tree], labels: Iterable[np.ndarray],
           X: np.ndarray) -> Iterator[np.ndarray]:
    """For each tree in turn, the label of the leaf each row of ``X`` reaches in it; the
    t-th of ``labels`` holds a label per preorder node of ``trees[t]``, and is read only
    when its tree's group routes.

    Trees route in groups, as many as keep a group within ``_ROUTE_PAIRS``
    (tree, row) pairs, and at least one.  A group's trees are renumbered by
    ``_sibling_order`` and laid one after another, so every pair steps down
    its own tree in the same arrays, one level per step.  A step reads each
    pair's feature with one gather from the flat row-major ``X``; a pair at
    the split whose right child is r moves to r - 1 when x <= threshold, else
    to r, so a NaN goes right as in a row-by-row walk.
    """
    n, d = np.shape(X)
    flat = np.ascontiguousarray(X).ravel()
    size, labels = max(1, _ROUTE_PAIRS // max(n, 1)), iter(labels)
    for i in range(0, len(trees), size):
        group = trees[i:i + size]
        roots = list(accumulate((tree.feature.size for tree in group), initial=0))
        # ``map`` stops at the end of ``group``, its first iterable: a label per tree.
        parts = map(_sibling_order, group, labels, roots)
        base = np.arange(n) * d  # each row's first cell in ``flat``
        if len(group) == 1:  # the tree's arrays as they are, with no copies
            (second, feature, threshold, label), = parts
            node = np.zeros(n, dtype=np.intp)
        else:  # filled a tree at a time, so that one tree's arrays are held at once
            second, feature = np.empty((2, roots[-1]), dtype=np.intp)
            threshold, label = np.empty(roots[-1]), []
            for a, b, part in zip(roots, roots[1:], parts):
                second[a:b], feature[a:b], threshold[a:b] = part[:3]
                label.append(part[3])
            label = np.concatenate(label)
            node, base = np.repeat(roots[:-1], n), np.tile(base, len(group))
        rows, at = np.arange(node.size), node
        while rows.size:
            for _ in range(_COMPACT_EVERY):
                at = second[at] - (flat[feature[at] + base] <= threshold[at])
            node[rows] = at
            live = second[at] != at
            rows, at, base = rows[live], at[live], base[live]
        yield from label[node].reshape(len(group), n)


def predict_forest(m: ForestModel, X) -> np.ndarray:
    """Per row, the arithmetic mean of the routed leaf values, added tree by tree from 0."""
    X = np.ascontiguousarray(X, dtype=np.float64)  # row-major once, not per group of trees
    _check_rows(X, m.n_features)
    total = np.zeros(len(X))
    for values in _route(m.trees, (tree.number for tree in m.trees), X):
        total += values
    return total / len(m.trees)
