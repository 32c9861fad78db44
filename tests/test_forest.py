import gc
import hashlib
import math
import os
import re
import struct
import time
import tracemalloc
from typing import NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilyield.dataset import CANONICAL_FEATURES
from soilyield.errors import ValidationError
from soilyield import forest
from soilyield.forest import (
    ForestModel,
    ForestParams,
    Tree,
    _best_splits,
    _StepDraws,
    _draw_bounds,
    _floyd_block,
    _grow,
    _node_targets,
    _rank_tables,
    _resolve_ties,
    _route,
    _tree_rng,
    fit_forest,
    predict_forest,
)
from soilyield.metrics import r2_score
from soilyield.synth import generate


# One node's split, one tree's fit and one tree's routing: the trainer's own scan,
# lockstep growth and router with one node, root or tree, kept as test references.
class SplitChoice(NamedTuple):
    feature: int
    threshold: float
    impurity_decrease: float


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
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    if len(rows) < 2:
        return None
    sizes = np.array([rows.size])
    mean, sse_parent, splits = _node_targets(y, rows, sizes, True)
    if not splits[0]:
        return None
    features = np.array([sorted(int(f) for f in candidate_features)])
    best, *choice = _best_splits(_rank_tables(X, y), rows, sizes, mean, sse_parent, features,
                                 min_samples_leaf)
    return None if best[0] < 0 else SplitChoice(*(v.item() for v in choice))


def fit_tree(X, y, rows, params: ForestParams, rng: np.random.Generator) -> Tree:
    """Grow one regression tree over the given (multiset of) row indices: ``_grow`` with
    one root, so it equals the same tree grown in lockstep with others, from the same node
    records, stack and end-of-fit preorder layout.

    Each node that may split draws its candidates once, from a block of draws replayed
    from ``rng``, and ``rng`` is left where per-node ``rng.choice`` draws of the candidates
    would leave it."""
    rows = np.sort(np.asarray(rows, dtype=np.intp))
    if rows.size < 1:
        raise ValueError("need at least one row to grow a tree")
    return _grow(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64), params,
                 [(rows, rng)])[0][0]


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf value each row of ``X`` reaches: ``_route`` with one tree."""
    return next(_route([tree], [tree.number], X))


def pairwise_sum(a):
    """numpy's pairwise summation of a float64 vector, bit for bit, one value at a time.

    ``np.sum(a)`` is ``0.0 + pairwise_sum(a)``: numpy starts its reduction
    from 0.0 and adds this.  The reference for the batched node targets.
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
    return pairwise_sum(a[:half]) + pairwise_sum(a[half:])


def node_target(rows, y_list, may_split):
    """A node's mean target and, if it may split and is not constant, its centred sum of
    squares, from Python lists, one node at a time: the trainer's per-node reference."""
    m = len(rows)
    ys = [y_list[i] for i in rows]
    mean = (0.0 + pairwise_sum(ys)) / m
    if not may_split or ys.count(ys[0]) == m:
        return mean, None
    yc = [v - mean for v in ys]
    s = 0.0 + pairwise_sum(yc)
    return mean, (0.0 + pairwise_sum([v * v for v in yc])) - s * s / m


def brute_force_split(rows, X, y, candidate_features, min_samples_leaf=1):
    """Exhaustive enumeration of every candidate threshold.

    Variances computed directly with np.var.  Tie contract mirrors the
    documented rule: lowest threshold within a feature (strictly better
    reduction wins), and across features a later feature displaces an
    earlier one only when better by more than 1e-9 of the parent variance.
    """
    rows = np.asarray(rows)
    ys = y[rows]
    m = rows.size
    if m < 2 or np.all(ys == ys[0]):
        return None
    parent = float(np.var(ys))
    tie_band = 1e-9 * parent
    best = None
    for f in sorted(int(f) for f in candidate_features):
        feature_best = None
        xs = X[rows, f]
        distinct = np.unique(xs)
        for a, b in zip(distinct[:-1], distinct[1:]):
            threshold = 0.5 * (a + b)
            if threshold == b:
                threshold = a
            left = ys[xs <= threshold]
            right = ys[xs > threshold]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            reduction = (parent
                         - len(left) / m * float(np.var(left))
                         - len(right) / m * float(np.var(right)))
            if reduction > 0 and (feature_best is None or reduction > feature_best[2]):
                feature_best = (f, float(threshold), reduction)
        if feature_best is not None and (best is None or feature_best[2] > best[2] + tie_band):
            best = feature_best
    return best


def lexsort_scan(xs, ys, sse_parent, min_leaf):
    """One column's best (threshold, reduction), in ``lexsort((ys, xs))`` order."""
    m = xs.shape[0]
    order = np.lexsort((ys, xs))
    xs = xs[order]
    ys = ys[order]
    k = np.arange(1, m)
    valid = (xs[:-1] != xs[1:]) & (k >= min_leaf) & (m - k >= min_leaf)
    cs = np.cumsum(ys)
    cq = np.cumsum(ys * ys)
    sse_l = cq[:-1] - cs[:-1] * cs[:-1] / k
    sse_r = (cq[-1] - cq[:-1]) - (cs[-1] - cs[:-1]) ** 2 / (m - k)
    reduction = (sse_parent - sse_l - sse_r) / m
    reduction[~valid] = -np.inf
    j = int(np.argmax(reduction))
    if reduction[j] <= 0.0:
        return None
    threshold = 0.5 * (xs[j] + xs[j + 1])
    if threshold == xs[j + 1]:
        threshold = xs[j]
    return float(threshold), float(reduction[j])


def random_split_instance(rng, n_max=30, d_max=4, n_min=2):
    n = int(rng.integers(n_min, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    if rng.random() < 0.5:
        X = rng.integers(0, 5, size=(n, d)).astype(float)  # duplicates likely
    else:
        X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return X, y


class TestBestSplit:
    def test_step_function_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        choice = best_split(np.arange(4), X, y, [0])
        assert choice is not None
        assert choice.feature == 0
        assert choice.threshold == 2.5
        # Parent variance 25 is fully eliminated.
        assert choice.impurity_decrease == pytest.approx(25.0, abs=1e-12)

    def test_constant_target_has_no_split(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.full(8, 3.3)
        assert best_split(np.arange(8), X, y, [0]) is None

    def test_identical_features_tie_break_to_lowest_index(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        choice = best_split(np.arange(4), X, y, [0, 1])
        assert choice.feature == 0
        # Offering only the duplicate column picks it instead.
        assert best_split(np.arange(4), X, y, [1]).feature == 1

    def test_constant_feature_yields_none(self):
        X = np.full((6, 1), 2.0)
        y = np.arange(6.0)
        assert best_split(np.arange(6), X, y, [0]) is None

    def test_min_samples_leaf_gates_thresholds(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 60.0])
        unrestricted = best_split(np.arange(6), X, y, [0], min_samples_leaf=1)
        assert unrestricted.threshold == 4.5
        gated = best_split(np.arange(6), X, y, [0], min_samples_leaf=2)
        assert gated is not None
        assert gated.threshold == 3.5

    def test_agrees_with_brute_force_on_small_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            X, y = random_split_instance(rng)
            rows = np.arange(X.shape[0])
            min_leaf = int(rng.integers(1, 4))
            features = list(range(X.shape[1]))
            ours = best_split(rows, X, y, features, min_samples_leaf=min_leaf)
            oracle = brute_force_split(rows, X, y, features, min_samples_leaf=min_leaf)
            if oracle is None:
                assert ours is None
            else:
                assert ours is not None
                assert (ours.feature, ours.threshold) == (oracle[0], oracle[1])
                assert ours.impurity_decrease == pytest.approx(oracle[2], rel=1e-9, abs=1e-9)

    def test_agrees_with_brute_force_on_large_nodes(self):
        # Nodes this size take the vectorized scan path.
        rng = np.random.default_rng(101)
        for _ in range(30):
            X, y = random_split_instance(rng, n_max=120, d_max=4)
            if X.shape[0] < 60:
                continue
            rows = np.arange(X.shape[0])
            features = list(range(X.shape[1]))
            ours = best_split(rows, X, y, features)
            oracle = brute_force_split(rows, X, y, features)
            assert (ours.feature, ours.threshold) == (oracle[0], oracle[1])
            assert ours.impurity_decrease == pytest.approx(oracle[2], rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m, min_leaf", [
        (47, 1), (48, 1), (49, 1), (48, 5), (96, 1), (144, 4),
    ])
    def test_agrees_with_brute_force_either_side_of_small_node(self, m, min_leaf):
        # Sizes either side of the 48-row scan width class and well past it.
        rng = np.random.default_rng(107 + m + min_leaf)
        instances = [random_split_instance(rng, n_min=m, n_max=m) for _ in range(20)]
        # Few distinct x and y values, so many rows tie on x and on (x, y).
        instances += [(rng.integers(0, 3, size=(m, 4)).astype(float),
                       rng.integers(0, 4, size=m) * 0.1) for _ in range(20)]
        for X, y in instances:
            rows = rng.integers(0, m, size=m) if rng.random() < 0.5 else np.arange(m)
            features = list(range(X.shape[1]))
            ours = best_split(rows, X, y, features, min_samples_leaf=min_leaf)
            oracle = brute_force_split(rows, X, y, features, min_samples_leaf=min_leaf)
            if oracle is None:
                assert ours is None
            else:
                assert (ours.feature, ours.threshold) == (oracle[0], oracle[1])
                assert ours.impurity_decrease == pytest.approx(oracle[2], rel=1e-9, abs=1e-9)

    def test_fused_scan_matches_per_column_lexsort_bit_for_bit(self):
        # Tied x values with different targets: the order of the cumulative
        # sums, and so the last bits of each reduction, depends on the
        # target being the second sort key.  One batch mixes every width
        # class, tied x and (x, y) pairs and bootstrap duplicates.
        rng = np.random.default_rng(113)
        n = 150
        X = rng.integers(0, 4, size=(n, 5)).astype(float)
        X[:, 4] = rng.normal(size=n)
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        y[: n // 2] = np.round(y[: n // 2], 0)
        tables = _rank_tables(X, y)
        nodes, features = [], []
        while len(nodes) < 120:
            m = int(rng.integers(2, n + 1))
            rows = np.sort(rng.integers(0, n, size=m)).tolist()
            mean, sse_parent = node_target(rows, y.tolist(), True)
            if sse_parent is not None:
                nodes.append((rows, mean, sse_parent))
                features.append(sorted(rng.choice(5, size=3, replace=False).tolist()))
        for min_leaf in range(1, 6):
            choices = best_splits_of(tables, nodes, np.array(features), min_leaf)
            for (rows, mean, sse_parent), fs, choice in zip(nodes, features, choices):
                # The per-column reference, then the documented tie rule across columns.
                expected = None
                for f in fs:
                    found = lexsort_scan(X[rows, f], y[rows] - mean, sse_parent, min_leaf)
                    if found is not None and (expected is None or found[1] > expected[2]
                                              + 1e-9 * sse_parent / len(rows)):
                        expected = (f, *found)
                assert choice_bits(choice) == choice_bits(expected)

    def test_node_result_independent_of_its_batch(self):
        rng = np.random.default_rng(127)
        n = 300
        X = rng.integers(0, 6, size=(n, 4)).astype(float)
        y = np.round(rng.normal(size=n), 1)
        tables = _rank_tables(X, y)
        nodes = []
        for m in rng.integers(2, 200, size=60).tolist() + [3, 5, 8, 9, 47, 48, 49, 200]:
            rows = np.sort(rng.integers(0, n, size=m)).tolist()
            mean, sse_parent = node_target(rows, y.tolist(), True)
            if sse_parent is not None:
                nodes.append((rows, mean, sse_parent))
        features = np.array([sorted(rng.choice(4, size=2, replace=False)) for _ in nodes])
        alone = [best_splits_of(tables, [node], features[i:i + 1], 2)[0]
                 for i, node in enumerate(nodes)]
        assert sum(choice is not None for choice in alone) > len(nodes) // 2
        # Three random sub-batches, then one batch of every node: all three width classes.
        orders = [rng.permutation(len(nodes))[: int(rng.integers(2, len(nodes) + 1))]
                  for _ in range(3)] + [rng.permutation(len(nodes))]
        assert {min(i for i, w in enumerate((8, 48, math.inf)) if len(rows) <= w)
                for rows, _, _ in nodes} == {0, 1, 2}
        for order in orders:
            choices = best_splits_of(tables, [nodes[i] for i in order], features[order], 2)
            assert list(map(choice_bits, choices)) == [choice_bits(alone[i]) for i in order]

    def test_tie_band_is_measured_from_the_candidate_held(self):
        # The second candidate beats the first by more than the band, the third beats
        # the second by less: the walk keeps the second where an argmax takes the third.
        r0, band = 0.25, 1e-3
        reductions = np.array([[r0, r0 + 1.5 * band, r0 + 2 * band]])
        assert _resolve_ties(reductions, np.array([band])).tolist() == [1]
        assert reductions.argmax() == 2

    def test_tie_walk_matches_a_loop_over_each_node(self):
        rng = np.random.default_rng(131)
        reductions = rng.choice([-np.inf, np.nan, -1.0, 0.0, 0.5, 1.0, 1.0 + 1e-10, 1.0 + 3e-9,
                                 2.0, np.inf], size=(500, 4))
        bands = rng.choice([0.0, 1e-9, 1.0, -1e-9, -1.0], size=500)  # sse_parent may round below 0
        expected = []
        for rs, band in zip(reductions.tolist(), bands.tolist()):
            best = -1
            for c, r in enumerate(rs):
                if r > 0.0 and (best < 0 or r > rs[best] + band):
                    best = c
            expected.append(best)
        assert _resolve_ties(reductions, bands).tolist() == expected

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            X, y = random_split_instance(rng)
            rows = np.arange(X.shape[0])
            features = list(range(X.shape[1]))
            base = best_split(rows, X, y, features)
            shuffled = best_split(rng.permutation(rows), X, y, features)
            if base is None:
                assert shuffled is None
            else:
                assert (base.feature, base.threshold) == (shuffled.feature, shuffled.threshold)

    def test_duplicate_rows_supported(self):
        X = np.array([[1.0], [2.0]])
        y = np.array([0.0, 10.0])
        choice = best_split(np.array([0, 0, 1, 1]), X, y, [0])
        assert choice.threshold == 1.5


def float_bits(value):
    """The float's eight bytes, so that -0.0 and 0.0 differ."""
    return struct.pack("<d", value)


def choice_bits(choice):
    """A split's feature and the bits of its threshold and reduction."""
    return None if choice is None else (choice[0], *map(float_bits, choice[1:]))


def as_choices(best, *choice):
    """``_best_splits``' arrays as one (feature, threshold, reduction) or None per node."""
    return [tuple(v) if c >= 0 else None
            for c, *v in zip(best.tolist(), *(a.tolist() for a in choice))]


def best_splits_of(tables, nodes, features, min_leaf):
    """``_best_splits`` for (rows, mean, sse_parent) nodes in any order, with one
    (feature, threshold, reduction) or None per node, in the nodes' order."""
    order = sorted(range(len(nodes)), key=lambda i: len(nodes[i][0]))
    rows, means, sse_parent = zip(*(nodes[i] for i in order))
    found = _best_splits(tables, np.concatenate(rows), np.array([len(r) for r in rows]),
                         np.array(means), np.array(sse_parent), features[order], min_leaf)
    back = np.argsort(order)
    return as_choices(*(a[back] for a in found))


def targets_of(y, nodes, may_split):
    """``_node_targets`` for nodes given as row lists into ``y``, as (mean, sse) pairs with
    None for the sse of a node that may not split or is constant."""
    sizes = np.array([len(rows) for rows in nodes])
    means, sse, splits = _node_targets(y, np.concatenate(nodes), sizes, may_split)
    return [(mean, v if ok else None)
            for mean, v, ok in zip(means.tolist(), sse.tolist(), splits.tolist())]


def targets_bits(targets):
    """The bits of each (mean, sse) pair's numbers, None kept."""
    return [tuple(None if v is None else float_bits(v) for v in t) for t in targets]


class TestNodeTarget:
    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
    def test_bit_equal_to_numpy_either_side_of_128_rows(self, m):
        # Numpy adds up to 128 values in eight lanes and splits longer runs in two.
        rng = np.random.default_rng(m)
        y = rng.normal(size=400) * 10.0 ** rng.integers(-8, 9, size=400)
        batch = []
        for _ in range(20):
            rows = np.sort(rng.integers(0, 400, size=m)).tolist()
            ys = y[rows]
            mean = float(np.sum(ys)) / m
            yc = ys - mean
            s = float(np.sum(yc))
            constant = bool((ys == ys[0]).all())
            expected = (mean, None if constant else float(np.sum(yc * yc)) - s * s / m)
            [got] = targets_of(y, [rows], True)
            assert [float_bits(v) for v in got if v is not None] == \
                [float_bits(v) for v in expected if v is not None]
            assert targets_of(y, [rows], False) == [(got[0], None)]
            batch.append((rows, got))
        # The same bits for the 20 nodes in one batch.
        assert targets_bits(targets_of(y, [rows for rows, _ in batch], True)) == \
            targets_bits(got for _, got in batch)

    def test_constant_node_has_no_sum_of_squares(self):
        y = np.array([-0.0, 0.0, 1.5])
        for rows in ([0, 1], [0, 1] * 100, [2] * 129):
            [(mean, sse)] = targets_of(y, [rows], True)
            assert sse is None
            assert float_bits(mean) == float_bits(float(np.sum(y[rows])) / len(rows))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nodes=st.lists(
        st.tuples(st.sampled_from([7, 8, 127, 128, 129, 256, 257]) | st.integers(1, 300),
                  st.sampled_from(["spread", "constant", "zeros"]), st.booleans()),
        min_size=1, max_size=8))
    def test_batch_gives_the_per_node_reference_bits(self, seed, nodes):
        # Targets over 16 decades with -0.0 and 0.0 among them; rows drawn with
        # replacement, as a bootstrap draws them; constant nodes, a node of signed
        # zeros, and nodes that may and may not split, all in one batch.
        rng = np.random.default_rng(seed)
        y = rng.normal(size=400) * 10.0 ** rng.integers(-8, 9, size=400)
        y[:40:2], y[1:40:2] = -0.0, 0.0
        batch = []
        for m, kind, may_split in nodes:
            if kind == "spread":
                rows = rng.integers(0, 400, size=m)
            elif kind == "constant":
                rows = np.full(m, rng.integers(40, 400))
            else:
                rows = rng.integers(0, 40, size=m)
            batch.append((np.sort(rows).tolist(), may_split))
        y_list = y.tolist()
        expected = [node_target(rows, y_list, may_split) for rows, may_split in batch]
        got = targets_of(y, [rows for rows, _ in batch], np.array([s for _, s in batch]))
        assert targets_bits(got) == targets_bits(expected)


class TestPairwiseSum:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300))
    def test_matches_numpy_sum_bit_for_bit(self, values):
        with np.errstate(over="ignore", invalid="ignore"):  # huge values may sum to inf or nan
            expected = float(np.sum(np.array(values, dtype=np.float64)))
        assert float_bits(0.0 + pairwise_sum(values)) == float_bits(expected)
        if values:  # the batched targets' mean is this sum over the count
            [(mean, _)] = targets_of(np.array(values), [list(range(len(values)))], False)
            assert float_bits(mean) == float_bits(expected / len(values))

    @pytest.mark.parametrize("n", [7, 8, 128, 129])
    def test_branch_edges(self, n):
        # Magnitudes spread over 16 decades, so that summing in the order of the
        # neighbouring branch would round differently in many of these arrays.
        rng = np.random.default_rng(n)
        for _ in range(50):
            values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
            expected = float(np.sum(values))
            assert float_bits(0.0 + pairwise_sum(values.tolist())) == float_bits(expected)
            [(mean, _)] = targets_of(values, [list(range(n))], False)
            assert float_bits(mean) == float_bits(expected / n)


def sequential_floyd(values, d, k):
    """``sorted(rng.choice(d, size=k, replace=False))`` from one draw's bounded values
    (``_draw_bounds(d, k)``'s, in order), one Floyd step at a time, as numpy takes them."""
    picked = []
    for v, j in zip(values, range(d - k, d)):
        picked.append(j if v in picked else v)
    return sorted(picked)


class ChoiceDraws:
    """Each popped node's candidates from its own ``rng.choice`` call: the draws
    ``_StepDraws`` replays.  ``calls`` counts each tree's draws."""

    def __init__(self, rngs, d, k):
        self._rngs, self._d, self._k = rngs, d, k
        self.calls = [0] * len(rngs)

    def take(self, trees):
        picks = []
        for t in trees.tolist():
            self.calls[t] += 1
            picks.append(sorted(self._rngs[t].choice(self._d, self._k, replace=False).tolist()))
        return np.array(picks, dtype=np.intp).reshape(len(trees), self._k)


def draw_with_choice(monkeypatch):
    """Make ``_grow`` draw with ``ChoiceDraws``; the list of those it makes."""
    made = []

    def make(*args):
        made.append(ChoiceDraws(*args))
        return made[-1]

    monkeypatch.setattr(forest, "_StepDraws", make)
    return made


def step_draws(rngs, d, k, counts):
    """Each tree's picks from ``_StepDraws`` over steps in which tree t draws while the step
    is below ``counts[t]``, the trees of a step in descending order (``_grow`` passes
    them in node size order); and the draws object."""
    draws = _StepDraws(rngs, d, k)
    got = [[] for _ in counts]
    counts = np.array(counts)
    for step in range(counts.max(initial=0)):
        trees = np.flatnonzero(counts > step)[::-1]
        picks = draws.take(trees)
        assert picks.dtype == np.intp and picks.shape == (trees.size, k)
        for t, row in zip(trees.tolist(), picks.tolist()):
            got[t].append(row)
    return got, draws


def choice_picks(rng, d, k, count):
    return [sorted(rng.choice(d, size=k, replace=False).tolist()) for _ in range(count)]


def with_prior(make, prior):
    """Two generators from ``make()``, each after ``prior`` 32-bit draws."""
    rngs = make(), make()
    for rng in rngs:
        rng.integers(0, 400, size=prior)
    return rngs


def draw_shapes(ks):
    """A (d, k) for d up to 14 and k from ``ks(d)``."""
    return st.integers(1, 14).flatmap(lambda d: st.tuples(st.just(d), ks(d)))


def draw_blocks(counts):
    """A block of one to four trees, each a (prior 32-bit draws, draw count)."""
    return st.lists(st.tuples(st.integers(0, 9), counts), min_size=1, max_size=4)


def assert_replays_choice(seed, d, k, trees):
    """Each tree of a block, from its own generator after its prior draws, gets the picks
    of its ``rng.choice`` calls from ``_StepDraws``."""
    pairs = [with_prior(lambda: np.random.default_rng([seed, t]), prior)
             for t, (prior, _) in enumerate(trees)]
    counts = [count for _, count in trees]
    got, _ = step_draws([ours for ours, _ in pairs], d, k, counts)
    for picks, (_, reference), count in zip(got, pairs, counts, strict=True):
        assert picks == choice_picks(reference, d, k, count)


class TestCandidateDraws:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), shape=draw_shapes(lambda d: st.integers(1, d)),
           trees=draw_blocks(st.integers(0, 60)))
    def test_replays_numpy_choice(self, seed, shape, trees):
        # An odd number of prior 32-bit draws leaves half an output buffered.
        assert_replays_choice(seed, *shape, trees)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           shape=draw_shapes(lambda d: st.sampled_from(sorted({1, d, (d + 1) // 2}))),
           trees=draw_blocks(st.integers(0, 700) | st.sampled_from([255, 256, 257, 512])))
    def test_replays_numpy_choice_across_blocks(self, seed, shape, trees):
        # Trees that stop at different steps: before, at and past the end of a block of
        # draws, and after no draw at all (a root leaf); d == k and k == 1 among the shapes.
        assert_replays_choice(seed, *shape, trees)

    def test_block_of_trees_stopping_at_block_edges(self):
        assert_replays_choice(7, 12, 4, [(t % 2, count) for t, count in
                                         enumerate([0, 256, 700, 1, 512, 255, 257])])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 14), rows=st.integers(1, 40),
           data=st.data())
    def test_block_step_matches_sequential_floyd(self, seed, d, rows, data):
        k = data.draw(st.integers(1, d))
        bounds = _draw_bounds(d, k)
        values = np.random.default_rng(seed).integers(0, bounds, size=(rows, len(bounds)))
        expected = [sequential_floyd(row, d, k) for row in values.tolist()]
        assert _floyd_block(values, d, k).tolist() == expected

    def test_keeps_one_chunk_of_words(self):
        ours = np.random.default_rng(41)
        reference = np.random.default_rng(41)
        draws = _StepDraws([ours], 12, 4)
        for _ in range(10_000):
            expected = sorted(reference.choice(12, size=4, replace=False).tolist())
            assert draws.take(np.array([0])).tolist() == [expected]
            # At most one block is held per tree: its picks, and no words.
            assert draws._picks.shape == (1, _StepDraws._BLOCK, 4)

    def test_rejected_word_is_drawn_again(self):
        # A buffered word of 0 lies below Lemire's rejection threshold for a
        # bound that is not a power of two, such as choice(12, 4)'s first, 9.
        ours = np.random.default_rng(5)
        reference = np.random.default_rng(5)
        for rng in (ours, reference):
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
        got, _ = step_draws([ours], 12, 4, [1])
        assert got == [choice_picks(reference, 12, 4, 1)]

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64])
    @pytest.mark.parametrize("seed, shapes", [
        (3, [(12, 4, [2 * _StepDraws._BLOCK + 7, 0, _StepDraws._BLOCK])]),
        (4, [(14, 5, [_StepDraws._BLOCK])]),
        (5, [(7, 7, [300, 3]), (1, 1, [3]), (9, 1, [40, 300])]),
        (6, [(12, 4, [70]), (5, 2, [140, 70]), (13, 13, [70])]),
    ])
    def test_replays_numpy_choice_for_any_bit_generator(self, bit_generator, seed, shapes):
        # Per (d, k), a block of trees with their draw counts.  An odd number of prior
        # 32-bit draws leaves half a 64-bit output buffered.
        for d, k, counts in shapes:
            pairs = [with_prior(lambda: np.random.Generator(bit_generator([seed, t])), 3)
                     for t in range(len(counts))]
            got, _ = step_draws([ours for ours, _ in pairs], d, k, counts)
            for picks, (_, reference), count in zip(got, pairs, counts):
                assert picks == choice_picks(reference, d, k, count)

    @pytest.mark.parametrize("d, k", [(255, 85), (256, 86), (257, 86), (300, 100), (10_000, 3334)])
    def test_replays_numpy_choice_with_wide_picks(self, d, k):
        # Past 256 features a block holds its picks as uint16 instead of uint8.
        ours, reference = with_prior(lambda: np.random.default_rng(d), 3)
        got, draws = step_draws([ours], d, k, [3])
        assert got == [choice_picks(reference, d, k, 3)]
        assert draws._picks.itemsize == (1 if d <= 256 else 2)


def tree_from_nodes(nodes):
    """A tree from preorder ``[feature, number, count]`` rows."""
    return Tree(*(np.array(column) for column in zip(*nodes)))


def leaf(value, count):
    """One leaf in the preorder rows ``tree_from_nodes`` takes."""
    return [-1, value, count]


def split(feature, threshold):
    return [feature, threshold, 0]


def right_children(tree: Tree) -> list[int]:
    """Each node's right child, found by a walk with a stack of the splits waiting
    for one (the node after a leaf is the latest one's); -1 at a leaf."""
    right, waiting = [-1] * len(tree.feature), []
    for i, f in enumerate(tree.feature.tolist()):
        if i and tree.feature[i - 1] < 0:
            right[waiting.pop()] = i
        if f >= 0:
            waiting.append(i)
    return right


def assert_same_tree(a: Tree, b: Tree):
    for field, x, y in zip(Tree._fields, a, b, strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y), field


def exact_fit_params(seed=0):
    return ForestParams(n_trees=1, min_samples_leaf=1, max_depth=None,
                        min_samples_split=2, max_features=None, seed=seed,
                        bootstrap=False)


class TestFitTree:
    def test_min_samples_split_stops_immediately(self):
        X = np.arange(5.0).reshape(-1, 1)
        y = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        params = ForestParams(min_samples_split=10, max_features=1)
        tree = fit_tree(X, y, np.arange(5), params, np.random.default_rng(0))
        assert_same_tree(tree, tree_from_nodes([leaf(4.0, 5)]))

    def test_exact_fit_regime_reproduces_targets(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        params = ForestParams(max_features=3)
        tree = fit_tree(X, y, np.arange(30), params, np.random.default_rng(1))
        assert np.array_equal(predict_tree(tree, X), y)

    def test_leaves_no_reference_cycle(self):
        # A cycle would keep each tree's node arrays alive until the cyclic collector runs.
        rng = np.random.default_rng(31)
        X = rng.normal(size=(400, 12))
        y = rng.normal(size=400)
        rows = rng.integers(0, 400, size=400)
        gc.collect()
        gc.disable()
        try:
            fit_tree(X, y, rows, ForestParams(max_features=4), np.random.default_rng(0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_any_bit_generator_grows_the_tree_choice_draws(self, monkeypatch):
        # MT19937 makes 32-bit words natively; the reference draws each node's
        # candidates with rng.choice itself.  500 rows make over one block of draws.
        d = generate(500, seed=12)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        rows = np.random.default_rng(2).integers(0, 500, size=500)
        rng = np.random.Generator(np.random.MT19937(9))
        tree = fit_tree(X, y, rows, ForestParams(max_features=4), rng)
        made = draw_with_choice(monkeypatch)
        reference = np.random.Generator(np.random.MT19937(9))
        assert_same_tree(tree, fit_tree(X, y, rows, ForestParams(max_features=4), reference))
        assert len(made) == 1 and made[0].calls[0] > _StepDraws._BLOCK

    def test_depth_one_tree_structure(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        params = ForestParams(max_depth=1, max_features=1)
        tree = fit_tree(X, y, np.arange(4), params, np.random.default_rng(0))
        expected = tree_from_nodes([split(0, 2.5), leaf(0.0, 2), leaf(10.0, 2)])
        assert_same_tree(tree, expected)


def mixed_block():
    """One X with rows for roots of every kind ``_grow`` meets, and the roots' rows: one
    row; a constant y; one row many times; a chain of 150 rows with y = 4.0 ** x, which
    splits its top row off at every level, 149 levels deep; a chain of 150 pairs that
    share every x but not y, whose unsplittable pairs wait on the stack all the way
    down; and a bootstrap of synth rows."""
    d = generate(200, seed=31)
    i = np.arange(150.0)
    chain = np.repeat(i[:, None], 12, axis=1)
    flat = np.random.default_rng(31).normal(size=(10, 12))
    X = np.vstack((d.matrix(CANONICAL_FEATURES), chain, np.repeat(chain, 2, axis=0), flat))
    y = np.concatenate((d.matrix(("yield",)).ravel(), 4.0 ** i,
                        np.repeat(4.0 ** i, 2) * np.tile([1.0, 1.5], 150), np.full(10, 4.25)))
    roots = [np.array([7]), np.arange(650, 660), np.full(20, 11), np.arange(200, 350),
             np.arange(350, 650), np.sort(np.random.default_rng(32).integers(0, 200, size=200))]
    return X, y, roots


class TestLockstep:
    @pytest.mark.parametrize("max_depth", [0, 1, None])
    @pytest.mark.parametrize("min_samples_split", [2, 25])
    def test_each_tree_of_a_mixed_block_is_its_tree_grown_alone(self, max_depth,
                                                                 min_samples_split):
        # 25 rows to split leaves the first three roots leaves at once.
        X, y, roots = mixed_block()
        params = ForestParams(max_depth=max_depth, min_samples_split=min_samples_split)
        rngs = [np.random.default_rng(100 + t) for t in range(len(roots))]
        grown = forest._grow(X, y, params, list(zip(roots, rngs)))
        for t, (rows, rng, (tree, leaf)) in enumerate(zip(roots, rngs, grown, strict=True)):
            alone = np.random.default_rng(100 + t)
            assert_same_tree(tree, fit_tree(X, y, rows, params, alone))
            assert rng.bit_generator.state == alone.bit_generator.state
            assert tree.number[leaf].tobytes() == predict_tree(tree, X).tobytes()
        if max_depth is None and min_samples_split == 2:
            # Both chains grew all the way down: a split and a leaf per level.
            assert [len(tree.feature) for tree, _ in grown[3:5]] == [299, 299]

    def test_a_block_routes_its_rows_in_groups_of_trees(self):
        # Twice mixed_block's roots and its two chains again: 14 trees over 670 rows
        # route 6, 6 and 2 at a time.
        X, y, roots = mixed_block()
        roots = roots * 2 + roots[3:5]
        per_group = forest._ROUTE_PAIRS // len(X)
        assert len(roots) > 2 * per_group and len(roots) % per_group
        params = ForestParams()
        rngs = [np.random.default_rng(200 + t) for t in range(len(roots))]
        grown = forest._grow(X, y, params, list(zip(roots, rngs)))
        for t, (rows, rng, (tree, leaf)) in enumerate(zip(roots, rngs, grown, strict=True)):
            alone = np.random.default_rng(200 + t)
            assert_same_tree(tree, fit_tree(X, y, rows, params, alone))
            assert rng.bit_generator.state == alone.bit_generator.state
            assert leaf.dtype.kind == "u" and leaf.tolist() == leaf_level_by_level(tree, X).tolist()


def fail_first_block(X, y, params, roots):
    """A ``_grow`` whose block holding tree 0 fails at once while any other sleeps 30 s."""
    if roots[0][1].bit_generator.seed_seq.spawn_key == (0,):
        raise ValueError("first block failed")
    time.sleep(30)


class TestFitForest:
    def test_constant_target_predicts_constant(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 3))
        y = np.full(20, 6.5)
        model = fit_forest(X, y, ForestParams(n_trees=5, seed=1))
        assert np.all(predict_forest(model, X) == 6.5)

    def test_single_tree_without_bootstrap_is_exact(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        model = fit_forest(X, y, exact_fit_params())
        preds = predict_forest(model, X)
        assert np.array_equal(preds, y)
        assert r2_score(y, preds) == 1.0

    def test_same_params_same_model(self):
        d = generate(60, seed=4)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        params = ForestParams(n_trees=8, seed=11)
        a = fit_forest(X, y, params)
        b = fit_forest(X, y, params)
        assert len(a.trees) == len(b.trees)
        for tree_a, tree_b in zip(a.trees, b.trees):
            assert_same_tree(tree_a, tree_b)
        assert a.oob_r2 == b.oob_r2

    def test_worker_count_never_changes_predictions(self):
        d = generate(200, seed=9)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        params = ForestParams(n_trees=30, seed=9)
        serial = predict_forest(fit_forest(X, y, params, workers=1), X)
        parallel = predict_forest(fit_forest(X, y, params, workers=8), X)
        assert serial.tobytes() == parallel.tobytes()
        # Golden digest from the first verified single-worker run.
        assert hashlib.sha256(serial.tobytes()).hexdigest() == (
            "de3e94f8ba42afab90a032fb3b29db26337d72fd87f6acb847d5930928f30bd1"
        )

    @pytest.mark.parametrize("workers, n_trees, cpus, pool_size", [
        (64, 10, 2, 2), (64, 2, 64, 2), (2, 10, 8, 2), (64, 1, 2, None), (8, 10, 1, None),
    ])
    def test_pool_never_outnumbers_trees_or_cpus(self, monkeypatch, workers, n_trees, cpus,
                                                 pool_size):
        requested = []

        def recording_runner(fn, blocks):
            """Runs the blocks in this process and records how many it was handed."""
            requested.append(len(blocks))
            return [fn(block) for block in blocks]

        monkeypatch.setattr(forest, "_fork_map", recording_runner)
        monkeypatch.setattr(forest, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        params = ForestParams(n_trees=n_trees, seed=2)
        model = fit_forest(X, y, params, workers=workers)
        assert requested == ([] if pool_size is None else [pool_size])
        serial = fit_forest(X, y, params)
        assert predict_forest(model, X).tobytes() == predict_forest(serial, X).tobytes()

    def test_without_fork_workers_fit_in_this_process(self, monkeypatch):
        # As on a platform without os.fork: two workers asked for, no child forked.
        d = generate(120, seed=8)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        params = ForestParams(n_trees=6, seed=5)
        serial = fit_forest(X, y, params, workers=1)

        def no_fork_map(fn, blocks):
            raise AssertionError("fit_forest forked without os.fork")

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(forest, "_fork_map", no_fork_map)
        monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
        model = fit_forest(X, y, params, workers=2)
        for tree, reference in zip(model.trees, serial.trees, strict=True):
            assert_same_tree(tree, reference)
        assert model.oob_r2 == serial.oob_r2
        assert model.training_predictions.tobytes() == serial.training_predictions.tobytes()

    def test_failed_block_leaves_no_child_running(self, monkeypatch):
        # The first block fails at once while the other would grow for 30 s: the fit
        # raises the first block's error, and the other block's child is ended and reaped.
        forked = []
        real_fork = os.fork

        def recording_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(forest, "_grow", fail_first_block)
        monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(17)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="first block failed"):
            fit_forest(rng.normal(size=(30, 3)), rng.normal(size=30),
                       ForestParams(n_trees=4, seed=2), workers=2)
        assert time.perf_counter() - start < 10
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("rounded, params", [
        (False, ForestParams(n_trees=6, seed=3)),
        (False, ForestParams(n_trees=5, seed=4, bootstrap=False, max_features=12)),
        (True, ForestParams(n_trees=6, seed=5, max_depth=4)),
        (True, ForestParams(n_trees=6, seed=6, min_samples_leaf=3)),
        (False, ForestParams(n_trees=6, seed=7, min_samples_leaf=5, max_features=1)),
        (True, ForestParams(n_trees=4, seed=8, max_features=12, min_samples_split=6)),
    ])
    def test_trees_equal_one_tree_fits(self, rounded, params):
        d = generate(160, seed=12)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        if rounded:
            X, y = np.round(X, 0), np.round(y, 0)
        model = fit_forest(X, y, params)
        resolved = params.resolved(12)
        for t, tree in enumerate(model.trees):
            rng = _tree_rng(params.seed, t)
            rows = rng.integers(0, 160, size=160) if params.bootstrap else np.arange(160)
            assert_same_tree(tree, fit_tree(X, y, rows, resolved, rng))

    def test_usable_cpus_within_machine(self):
        assert 1 <= forest._usable_cpus() <= (os.cpu_count() or 1)

    def test_predictions_bounded_by_training_range(self):
        rng = np.random.default_rng(19)
        d = generate(80, seed=2)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        model = fit_forest(X, y, ForestParams(n_trees=12, seed=3))
        probe = rng.normal(scale=50.0, size=(40, X.shape[1]))
        preds = predict_forest(model, probe)
        assert np.all(preds >= y.min()) and np.all(preds <= y.max())

    def test_deeper_trees_fit_training_data_no_worse(self):
        d = generate(100, seed=6)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        fine = fit_forest(X, y, ForestParams(n_trees=10, seed=21, min_samples_leaf=1))
        coarse = fit_forest(X, y, ForestParams(n_trees=10, seed=21, min_samples_leaf=5))
        assert r2_score(y, predict_forest(fine, X)) >= r2_score(y, predict_forest(coarse, X))

    def test_oob_score_populated_with_bootstrap(self):
        d = generate(120, seed=8)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        model = fit_forest(X, y, ForestParams(n_trees=20, seed=5))
        assert model.oob_r2 is not None
        assert fit_forest(X, y, ForestParams(n_trees=3, seed=5, bootstrap=False)).oob_r2 is None

    def test_draw_fallback_grows_the_same_trees(self, monkeypatch):
        # Every node's candidates drawn by rng.choice: an odd row count leaves the bootstrap's
        # last word buffered, and 501 rows make each tree more than one block of draws.
        d = generate(501, seed=3)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        params = ForestParams(n_trees=5, seed=13)
        expected = fit_forest(X, y, params)
        made = draw_with_choice(monkeypatch)
        model = fit_forest(X, y, params)
        for tree, reference in zip(model.trees, expected.trees, strict=True):
            assert_same_tree(tree, reference)
        assert model.oob_r2 == expected.oob_r2
        assert len(made) == 1 and min(made[0].calls) > _StepDraws._BLOCK

    def test_too_few_rows(self):
        with pytest.raises(ValidationError, match="^need at least 2 rows, got 1$"):
            fit_forest(np.array([[1.0]]), np.array([1.0]), ForestParams(n_trees=2))


class TestFitMemory:
    def test_fit_peak_is_a_small_multiple_of_the_trees(self):
        # The fit's own records of its nodes are narrower than the trees they become, and
        # the trees' arrays are laid out one at a time once the records are in.
        d = generate(400, seed=7)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        params = ForestParams(n_trees=100, seed=7)
        fit_forest(X, y, params)  # imports and caches settle outside the measurement
        tracemalloc.start()
        try:
            model = fit_forest(X, y, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sum(array.nbytes for tree in model.trees for array in tree)


def leaf_level_by_level(tree: Tree, X):
    """Reference router: the rows not yet at a leaf step one level, in preorder ids; the
    leaf each row reaches."""
    right = np.array(right_children(tree))
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        split = tree.feature[at] >= 0
        rows, at = rows[split], at[split]
        left = X[rows, tree.feature[at]] <= tree.number[at]
        node[rows] = np.where(left, at + 1, right[at])
    return node


def route_level_by_level(tree: Tree, X):
    return tree.number[leaf_level_by_level(tree, X)]


@st.composite
def routing_cases(draw):
    """A few random valid preorder trees over d features and an X to route through them.

    Thresholds come from the same finite values as X's cells, so that
    ``x <= threshold`` ties occur; X also holds NaN, +-inf and -0.0, and is
    C-ordered, Fortran-ordered or a strided column slice.
    """
    d = draw(st.integers(1, 4))
    finite = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                           max_size=5)) + [0.0]
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        # Splits in preorder; a leading run of them makes a left spine deeper than 8.
        decisions = iter([True] * draw(st.integers(0, 12))
                         + draw(st.lists(st.booleans(), max_size=40)))
        nodes, open_slots = [], 1  # the subtrees still to write
        while open_slots:
            open_slots -= 1
            if next(decisions, False):
                nodes.append(split(draw(st.integers(0, d - 1)), draw(st.sampled_from(finite))))
                open_slots += 2
            else:
                nodes.append(leaf(float(len(nodes)), 1))  # a distinct value per leaf
        trees.append(tree_from_nodes(nodes))
    n = draw(st.integers(0, 12))
    cells = draw(st.lists(st.sampled_from(finite + [-0.0, math.nan, math.inf, -math.inf]),
                          min_size=2 * n * d, max_size=2 * n * d))
    wide = np.array(cells, dtype=np.float64).reshape(n, 2 * d)
    X = draw(st.sampled_from([np.ascontiguousarray(wide[:, :d]), np.asfortranarray(wide[:, :d]),
                              wide[:, ::2]]))
    return trees, X


class TestPredictForest:
    def test_mean_of_tree_predictions(self):
        model = ForestModel(
            trees=(tree_from_nodes([leaf(4.0, 1)]), tree_from_nodes([leaf(6.0, 1)])),
            params=ForestParams(n_trees=2, max_features=1),
            n_features=1,
            oob_r2=None,
        )
        assert predict_forest(model, [[0.0]])[0] == 5.0

    def test_single_leaf_forest_is_constant(self):
        model = ForestModel(
            trees=(tree_from_nodes([leaf(2.5, 10)]),),
            params=ForestParams(n_trees=1, max_features=1),
            n_features=1,
            oob_r2=None,
        )
        assert np.all(predict_forest(model, [[-9.0], [0.0], [9.0]]) == 2.5)

    def test_value_at_threshold_routes_left(self):
        tree = tree_from_nodes([split(0, 2.5), leaf(-1.0, 1), leaf(1.0, 1)])
        model = ForestModel(
            trees=(tree,),
            params=ForestParams(n_trees=1, max_features=1),
            n_features=1,
            oob_r2=None,
        )
        assert predict_forest(model, [[2.5]])[0] == -1.0
        assert predict_forest(model, [[2.5000001]])[0] == 1.0

    def test_tree_walk_matches_one_row_at_a_time(self):
        d = generate(80, seed=2)
        X = d.matrix(CANONICAL_FEATURES)
        model = fit_forest(X, d.matrix(("yield",)).ravel(), ForestParams(n_trees=5, seed=3))
        probe = np.random.default_rng(23).normal(scale=20.0, size=(60, X.shape[1]))
        rows = np.vstack([X, probe])
        for tree in model.trees:
            right = right_children(tree)
            expected = []
            for x in rows:
                i = 0
                while tree.feature[i] >= 0:
                    i = i + 1 if x[tree.feature[i]] <= tree.number[i] else right[i]
                expected.append(tree.number[i])
            assert np.array_equal(predict_tree(tree, rows), expected)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(routing_cases())
    def test_routes_like_level_by_level_walk(self, case):
        trees, X = case
        for tree in trees:
            assert predict_tree(tree, X).tobytes() == route_level_by_level(tree, X).tobytes()
        model = ForestModel(trees=tuple(trees), params=ForestParams(n_trees=len(trees)),
                            n_features=X.shape[1], oob_r2=None)
        expected = sum(route_level_by_level(tree, X) for tree in trees) / len(trees)
        assert predict_forest(model, X).tobytes() == expected.tobytes()

    def test_groups_of_trees_route_like_level_by_level_walk(self):
        # 250 rows route 16 trees at a time, so 21 trees take a whole group and part of
        # one; a lone leaf of -0.0 sits in the first, NaN and infinite cells in X.
        d = generate(80, seed=2)
        X = d.matrix(CANONICAL_FEATURES)
        fitted = fit_forest(X, d.matrix(("yield",)).ravel(), ForestParams(n_trees=20, seed=3))
        trees = (*fitted.trees[:9], tree_from_nodes([leaf(-0.0, 3)]), *fitted.trees[9:])
        rng = np.random.default_rng(29)
        probe = rng.normal(scale=20.0, size=(170, X.shape[1]))
        odd = rng.random(probe.shape) < 0.05
        probe[odd] = rng.choice([math.nan, math.inf, -math.inf], size=odd.sum())
        rows = np.vstack([X, probe])
        per_group = forest._ROUTE_PAIRS // len(rows)
        assert per_group < len(trees) < 2 * per_group
        model = ForestModel(trees=trees, params=ForestParams(n_trees=len(trees)),
                            n_features=fitted.n_features, oob_r2=None)
        expected = sum(route_level_by_level(tree, rows) for tree in trees) / len(trees)
        assert predict_forest(model, rows).tobytes() == expected.tobytes()
        assert predict_forest(model, np.asfortranarray(rows)).tobytes() == expected.tobytes()
        # Every tree a lone leaf: a whole group of them, then part of one.
        stumps = fit_forest(X, d.matrix(("yield",)).ravel(),
                            ForestParams(n_trees=20, max_depth=0, seed=3))
        assert all(tree.feature.tolist() == [-1] for tree in stumps.trees)
        expected = sum(route_level_by_level(tree, rows) for tree in stumps.trees) / 20
        assert predict_forest(stumps, rows).tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        model = ForestModel(
            trees=(tree_from_nodes([leaf(1.0, 1)]),),
            params=ForestParams(n_trees=1, max_features=1),
            n_features=1,
            oob_r2=None,
        )
        with pytest.raises(ValidationError, match=re.escape("expected shape (n, 1), got (1, 2)")):
            predict_forest(model, [[1.0, 2.0]])


def per_chunk_scan(tables, nodes, features, min_leaf):
    """``_best_splits`` as it was written before its bookkeeping moved out of the chunk
    loop: each chunk re-derives its sizes, means, bands, starts and rows, and picks
    cells with 2-D fancy indexing.  The reference for the scan's bits."""
    if not nodes:
        return []
    ranks, x_by_rank, y_by_rank = tables
    stride, k = ranks.shape[1], features.shape[1]
    order = sorted(range(len(nodes)), key=lambda i: len(nodes[i][0]))
    thresholds, reductions = np.empty((2, *features.shape))
    bands = np.empty(len(nodes))
    while order:
        limit = next((w for w in forest._WIDTH_CLASSES if len(nodes[order[0]][0]) <= w), math.inf)
        stop = 1
        while (stop < len(order) and (width := len(nodes[order[stop]][0])) <= limit
               and (stop + 1) * k * width <= forest._SCAN_CELLS):
            stop += 1
        chunk, order = order[:stop], order[stop:]
        rows, means, sse_parent = zip(*(nodes[i] for i in chunk))
        m, sse_parent = np.array([len(r) for r in rows]), np.array(sse_parent)
        bands[chunk] = forest.REDUCTION_TIE_RTOL * sse_parent / m
        width = len(rows[-1])
        padded = np.full((len(chunk), width), stride - 1)
        padded[np.arange(width) < m[:, None]] = [i for r in rows for i in r]
        at = np.take(ranks, (features[chunk] * stride)[:, :, None] + padded[:, None])
        at.sort(axis=2)
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
        sse_r = (q_t - q_l) - (s_t - s_l) ** 2 / np.maximum(n_r, 1.0)
        reduction = (np.repeat(sse_parent, k) - sse_l - sse_r) / m
        valid = (xs[:-1] != xs[1:]) & ((p >= min_leaf) & (n_r >= min_leaf))
        reduction = np.where(valid, reduction, -np.inf)
        j = reduction.argmax(axis=0)
        reductions[chunk] = reduction[j, col].reshape(-1, k)
        lo, hi = xs[j, col], xs[j + 1, col]
        threshold = 0.5 * (lo + hi)
        thresholds[chunk] = np.where(threshold == hi, lo, threshold).reshape(-1, k)
    best = _resolve_ties(reductions, bands)
    pick = np.arange(len(nodes)), best
    return [(f, t, r) if c >= 0 else None
            for c, f, t, r in zip(best.tolist(), features[pick].tolist(),
                                  thresholds[pick].tolist(), reductions[pick].tolist())]


def per_tree_oob_r2(X, y, trees, samples):
    """The out-of-bag R² with each tree's left-out rows routed through it on their own."""
    oob = np.ones((len(trees), X.shape[0]), dtype=bool)
    sums = np.zeros(X.shape[0])
    for tree, mask, rows in zip(trees, oob, samples):
        mask[rows] = False
        sums[mask] += predict_tree(tree, X[mask])
    counts = oob.sum(axis=0)
    covered = counts > 0
    return r2_score(y[covered], sums[covered] / counts[covered])


class TestScanBookkeeping:
    def test_scan_equals_the_per_chunk_scan_on_recorded_batches(self, monkeypatch):
        batches = []
        scan = forest._best_splits

        def record(*batch):
            batches.append(batch)
            return scan(*batch)

        monkeypatch.setattr(forest, "_best_splits", record)
        d = generate(800, seed=7)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        fit_forest(X, y, ForestParams(n_trees=2, seed=7, min_samples_leaf=3, max_features=12))
        fit_forest(X[:300], y[:300], ForestParams(n_trees=6, seed=8))
        fit_forest(np.round(X[:200], 0), np.round(y[:200], 0),
                   ForestParams(n_trees=3, seed=9, min_samples_leaf=5, max_depth=6))
        widths = [(w, features.shape[1]) for _, _, sizes, _, _, features, _ in batches
                  for w in sizes.tolist()]
        # Nodes past every width class, and nodes whose candidates alone pass the cell cap.
        assert any(w > forest._WIDTH_CLASSES[-1] for w, _ in widths)
        assert any(w * k > forest._SCAN_CELLS for w, k in widths)
        assert {min_leaf for *_, min_leaf in batches} == {1, 3, 5}
        assert max(len(sizes) for _, _, sizes, *_ in batches) > 1
        for tables, rows, sizes, means, sse_parent, features, min_leaf in batches:
            got = as_choices(*scan(tables, rows, sizes, means, sse_parent, features, min_leaf))
            starts = (np.cumsum(sizes) - sizes).tolist()
            nodes = [(rows[a:a + m], mean, sse) for a, m, mean, sse in
                     zip(starts, sizes.tolist(), means.tolist(), sse_parent.tolist())]
            expected = per_chunk_scan(tables, nodes, features, min_leaf)
            assert list(map(choice_bits, got)) == list(map(choice_bits, expected))


class TestRoutedOnce:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("params", [
        ForestParams(n_trees=8, seed=3),
        ForestParams(n_trees=5, seed=4, bootstrap=False),
        ForestParams(n_trees=8, seed=5, min_samples_leaf=4),
        ForestParams(n_trees=8, seed=6, max_depth=3),
    ], ids=["default", "no-bootstrap", "min-leaf-4", "max-depth-3"])
    def test_training_predictions_are_predict_forest_bytes(self, workers, params):
        d = generate(150, seed=14)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        model = fit_forest(X, y, params, workers=workers)
        assert model.training_predictions.tobytes() == predict_forest(model, X).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rounded, params", [
        (False, ForestParams(n_trees=8, seed=3)),
        (True, ForestParams(n_trees=12, seed=5, min_samples_leaf=3)),
        (False, ForestParams(n_trees=6, seed=7, max_depth=4, max_features=12)),
    ])
    def test_oob_r2_equals_per_tree_routing(self, workers, rounded, params):
        d = generate(150, seed=15)
        X = d.matrix(CANONICAL_FEATURES)
        y = d.matrix(("yield",)).ravel()
        if rounded:
            X, y = np.round(X, 0), np.round(y, 0)
        model = fit_forest(X, y, params, workers=workers)
        samples = [_tree_rng(params.seed, t).integers(0, 150, size=150)
                   for t in range(params.n_trees)]
        # Some rows are in every tree's sample, so the score skips them.
        assert np.logical_and.reduce([np.bincount(s, minlength=150) > 0 for s in samples]).any()
        assert model.oob_r2 == per_tree_oob_r2(X, y, model.trees, samples)


GRID_SETTINGS = [{"min_samples_leaf": 3}, {"min_samples_leaf": 5}, {"max_depth": 5},
                 {"max_depth": 0}, {"bootstrap": False}, {"max_features": 1},
                 {"max_features": 12}, {"min_samples_split": 5}]


def grid_digest(workers):
    """SHA-256 over every tree array, ``oob_r2`` and ``training_predictions`` of 72 forests:
    160, 400 and 800 rows; raw inputs, X rounded and y rounded (ties on x, on y and on
    both); each of ``GRID_SETTINGS`` on its own."""
    digest = hashlib.sha256()
    d = generate(800, seed=23)
    X_all = d.matrix(CANONICAL_FEATURES)
    y_all = d.matrix(("yield",)).ravel()
    for n in (160, 400, 800):
        X, y = X_all[:n], y_all[:n]
        for inputs in ((X, y), (np.round(X, 0), y), (X, np.round(y, 0))):
            for seed, setting in enumerate(GRID_SETTINGS):
                model = fit_forest(*inputs, ForestParams(n_trees=2, seed=seed, **setting),
                                   workers=workers)
                for tree in model.trees:
                    for array in tree:
                        digest.update(array.dtype.str.encode() + array.tobytes())
                digest.update(repr(model.oob_r2).encode())
                digest.update(model.training_predictions.tobytes())
    return digest.hexdigest()


class TestForestGrid:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_digest(self, workers):
        # Taken from the trainer that grew each node's children from Python lists and
        # computed their targets one node at a time.
        assert grid_digest(workers) == (
            "fb236b91d855bd90f3ee30698fb9c107a00ab5de82b55499a19dc0c614ac583d")
