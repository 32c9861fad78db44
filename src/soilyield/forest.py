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

from .errors import TooFewRowsError
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
    order = sorted(range(len(nodes)), key=lambda i: len(nodes[i][0]))
    thresholds, reductions = np.empty((2, *features.shape))
    bands = np.empty(len(nodes))
    while order:
        # One call takes nodes of one width class, padded to the widest.
        limit = next((w for w in _WIDTH_CLASSES if len(nodes[order[0]][0]) <= w), math.inf)
        stop = 1
        while (stop < len(order) and (width := len(nodes[order[stop]][0])) <= limit
               and (stop + 1) * k * width <= _SCAN_CELLS):
            stop += 1
        chunk, order = order[:stop], order[stop:]
        rows, means, sse_parent = zip(*(nodes[i] for i in chunk))
        m, sse_parent = np.array([len(r) for r in rows]), np.array(sse_parent)
        bands[chunk] = REDUCTION_TIE_RTOL * sse_parent / m
        width = len(rows[-1])
        padded = np.full((len(chunk), width), stride - 1)
        padded[np.arange(width) < m[:, None]] = np.fromiter(chain.from_iterable(rows), np.intp,
                                                             m.sum())
        at = np.take(ranks, (features[chunk] * stride)[:, :, None] + padded[:, None])
        at.sort(axis=2)
        # Positions down axis 0 and one (node, candidate) pair per column: the gathers
        # below write C-ordered arrays, so each later step is a pass over whole rows.
        at = at.reshape(-1, width).T
        col = np.arange(at.shape[1])
        m = np.repeat(m, k)
        xs = np.take(x_by_rank, at)
        ys = np.take(y_by_rank, at) - np.repeat(means, k)
        cs, cq = np.cumsum(ys, axis=0), np.cumsum(ys * ys, axis=0)
        s_t, q_t = cs[m - 1, col], cq[m - 1, col]
        s_l, q_l = cs[:-1], cq[:-1]
        p = np.arange(1.0, width)[:, None]
        n_r = m - p
        sse_l = q_l - s_l * s_l / p
        # Past a node's last row the right side is empty; those cells are masked.
        sse_r = (q_t - q_l) - (s_t - s_l) ** 2 / np.maximum(n_r, 1.0)
        reduction = (np.repeat(sse_parent, k) - sse_l - sse_r) / m
        valid = (xs[:-1] != xs[1:]) & ((p >= min_leaf) & (n_r >= min_leaf))
        reduction = np.where(valid, reduction, -np.inf)
        j = reduction.argmax(axis=0)  # first max = lowest threshold
        reductions[chunk] = reduction[j, col].reshape(-1, k)
        lo, hi = xs[j, col], xs[j + 1, col]
        threshold = 0.5 * (lo + hi)
        # Adjacent floats: keep the <= rule partition intact.
        thresholds[chunk] = np.where(threshold == hi, lo, threshold).reshape(-1, k)
    best = _resolve_ties(reductions, bands)
    pick = np.arange(len(nodes)), best
    return [(f, t, r) if c >= 0 else None
            for c, f, t, r in zip(best.tolist(), features[pick].tolist(),
                                  thresholds[pick].tolist(), reductions[pick].tolist())]


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
    """The bounds of the 32-bit draws one ``rng.choice(d, size=k, replace=False)`` makes, in
    order: Floyd's ``j + 1`` for each j in range(d - k, d) but 0, then the shuffle's k, ..., 2."""
    return np.array([j + 1 for j in range(d - k, d) if j] + list(range(k, 1, -1)), dtype=np.uint64)


def _floyd_block(words: np.ndarray, d: int, k: int) -> np.ndarray | None:
    """Each row's sorted ``rng.choice(d, size=k, replace=False)`` from its row of 32-bit
    words, or None if Lemire's method rejects any word of the block.

    Without a rejection a draw takes one word per bound of ``_draw_bounds``,
    so the rows line up with the calls.
    """
    bounds = _draw_bounds(d, k)
    m = words * bounds
    if ((m & 0xFFFFFFFF) < (2**32 - bounds) % bounds).any():
        return None
    v = m >> 32
    picks: list[np.ndarray] = []  # Floyd's picks so far, a column each
    for i, j in enumerate(range(d - k, d)):
        if not j:  # d == k: the first pick is 0, drawn from no word
            picks.append(np.zeros(len(words), dtype=np.uint64))
            continue
        drawn = v[:, i - (d == k)]
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

    For d up to 10,000, numpy's ``choice`` is Floyd's sampling algorithm
    over Lemire's unbiased bounded draws from 32-bit words, followed by a
    shuffle that sorting discards.  This copy reads the same words from a
    PCG64 generator's raw 64-bit outputs, each output giving its low half
    then its high half, and computes ``_BLOCK`` draws at a time with
    ``_floyd_block``; a block with a rejected word is drawn by ``choice``
    itself instead.  ``close`` leaves the generator exactly where the
    ``choice`` calls would have.
    """

    # Draws computed at once, about what a tree grown on 400 rows makes; only the
    # current block is kept.
    _BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise ValueError(f"trees draw from a PCG64 generator, got {type(bitgen).__name__}")
        self._rng = rng
        self._bitgen = bitgen
        self._state = bitgen.state  # where the current block's words begin
        self._shape = (0, 0)  # the current block's (d, k)
        self._picks = array("B")  # the block's draws, one after another
        self._next = 0  # where the next draw starts in ``_picks``
        self._width = 0  # words per draw, without a rejection
        self._states: list[dict] | None = None  # the state after each draw, after a rejection

    def sample(self, d: int, k: int) -> list[int]:
        i = self._next
        if i == len(self._picks) or (d, k) != self._shape:
            self._start_block(d, k)
            i = 0
        self._next = i + k
        return self._picks[i:i + k].tolist()

    def _start_block(self, d: int, k: int) -> None:
        self.close()
        size = self._BLOCK
        state = self._state = self._bitgen.state
        # A 32-bit draw made before (the bootstrap's, say) may have left the
        # high half of an output buffered; it is the next word.
        carry = [state["uinteger"]] if state["has_uint32"] else []
        width = len(_draw_bounds(d, k))
        raw = self._bitgen.random_raw((size * width - len(carry) + 1) // 2)
        words = np.empty(len(carry) + 2 * raw.size, dtype=np.uint64)
        words[:len(carry)] = carry
        words[len(carry)::2] = raw & 0xFFFFFFFF
        words[len(carry) + 1::2] = raw >> 32
        block = _floyd_block(words[:size * width].reshape(size, width), d, k)
        self._states = None
        if block is None:
            self._bitgen.state = state
            rows, self._states = [], []
            for _ in range(size):
                rows.append(np.sort(self._rng.choice(d, size=k, replace=False)))
                self._states.append(self._bitgen.state)
            block = np.array(rows)
        # Picks lie in [0, d), so the narrowest unsigned type keeps the block small.
        kind = np.min_scalar_type(d - 1)
        self._picks = array(kind.char, block.astype(kind).tobytes())
        self._shape, self._next, self._width = (d, k), 0, width

    def close(self) -> None:
        """Rewind the generator to just after the draws taken."""
        drawn = self._next // self._shape[1] if self._shape[1] else 0
        state = self._state
        if self._states is not None:
            self._bitgen.state = self._states[drawn - 1] if drawn else state
            return
        used = drawn * self._width
        if used:
            used -= state["has_uint32"]  # words taken from raw outputs
            if used:
                self._bitgen.state = state
                self._bitgen.advance((used - 1) // 2)
                high = self._bitgen.random_raw() >> 32
                state = self._bitgen.state
                # numpy keeps the last output's high half, buffered if unused.
                state["has_uint32"], state["uinteger"] = used % 2, high
            else:  # only the buffered word was drawn
                state = dict(state, has_uint32=0)
        self._bitgen.state = state


def _grow(X: np.ndarray, y: np.ndarray, params: ForestParams,
          roots: list[tuple[np.ndarray, np.random.Generator]]) -> list[Tree]:
    """Grow one tree per (sorted rows, generator) pair of ``roots``, all in lockstep.

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
        fitted.append(Tree(f.astype(np.int64), number.copy(), count.astype(np.int64)))
    return fitted


def fit_tree(X, y, rows, params: ForestParams, rng: np.random.Generator) -> Tree:
    """Grow one regression tree over the given (multiset of) row indices.

    ``rng`` must be PCG64-backed, as ``np.random.default_rng`` makes it:
    candidate features are replayed from its raw stream.
    """
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    if rows.size < 1:
        raise ValueError("need at least one row to grow a tree")
    return _grow(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64), params,
                 [(rows, rng)])[0]


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
    generator.
    """
    X, y = _as_xy(X, y)
    n, d = X.shape
    if n < 2:
        raise TooFewRowsError(f"need at least 2 rows, got {n}")
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
        trees = _grow(X, y, resolved, roots)
    else:
        # Imported here: the pool's import brings multiprocessing and socket, which
        # only a run with more than one worker uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            trees = [tree for block in pool.map(partial(_grow, X, y, resolved), blocks)
                     for tree in block]
    oob_r2 = _oob_r2(X, y, trees, roots) if resolved.bootstrap else None
    return ForestModel(trees=tuple(trees), params=resolved, feature_names=names, oob_r2=oob_r2)


def _oob_r2(X: np.ndarray, y: np.ndarray, trees, roots) -> float | None:
    """R² of each row's mean prediction over the trees that left it out, or
    None where it is undefined (under two such rows, or a constant y)."""
    oob = np.ones((len(trees), X.shape[0]), dtype=bool)
    sums = np.zeros(X.shape[0])
    for tree, mask, (rows, _) in zip(trees, oob, roots):
        mask[rows] = False
        sums[mask] += predict_tree(tree, X[mask])
    counts = oob.sum(axis=0)
    covered = counts > 0
    return r2_if_defined(y[covered], sums[covered] / counts[covered])


def _sibling_order(tree: Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tree renumbered so that the split of preorder rank k has its children at
    2k + 1 and 2k + 2, as (right child, feature, threshold, value) per new id.

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
            np.where(split, tree.number, np.nan)[order], tree.number[order])


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf value each row of ``X`` reaches, routing all rows one level per step.

    A step reads each row's feature with one gather from the flat row-major
    ``X``; a row at the split whose right child is r moves to r - 1 when
    x <= threshold, else to r, so a NaN goes right as in a row-by-row walk.
    """
    X = np.ascontiguousarray(X)
    flat = X.ravel()
    second, feature, threshold, value = _sibling_order(tree)
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0] if second[0] else 0)  # a lone leaf routes no row
    at, base = node[rows], rows * X.shape[1]
    while rows.size:
        for _ in range(_COMPACT_EVERY):
            at = second[at] - (flat[feature[at] + base] <= threshold[at])
        node[rows] = at
        live = second[at] != at
        rows, at, base = rows[live], at[live], base[live]
    return value[node]


def predict_forest(m: ForestModel, X) -> np.ndarray:
    """Per row, the arithmetic mean of the routed leaf values."""
    X = np.ascontiguousarray(X, dtype=np.float64)  # row-major once, not per tree
    _check_rows(X, len(m.feature_names))
    return sum(predict_tree(tree, X) for tree in m.trees) / len(m.trees)
