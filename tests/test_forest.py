import concurrent.futures
import gc
import hashlib
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilyield.errors import ValidationError
from soilyield import forest
from soilyield.forest import (
    ForestModel,
    ForestParams,
    Tree,
    _best_splits,
    _CandidateDraws,
    _draw_bounds,
    _floyd_block,
    _node_target,
    _pairwise_sum,
    _rank_tables,
    _resolve_ties,
    _tree_rng,
    best_split,
    fit_forest,
    fit_tree,
    predict_forest,
    predict_tree,
)
from soilyield.metrics import r2_score
from soilyield.synth import generate


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
            mean, sse_parent = _node_target(rows, y.tolist(), True)
            if sse_parent is not None:
                nodes.append((rows, mean, sse_parent))
                features.append(sorted(rng.choice(5, size=3, replace=False).tolist()))
        for min_leaf in range(1, 6):
            choices = _best_splits(tables, nodes, np.array(features), min_leaf)
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
            mean, sse_parent = _node_target(rows, y.tolist(), True)
            if sse_parent is not None:
                nodes.append((rows, mean, sse_parent))
        features = np.array([sorted(rng.choice(4, size=2, replace=False)) for _ in nodes])
        alone = [_best_splits(tables, [node], features[i:i + 1], 2)[0]
                 for i, node in enumerate(nodes)]
        assert sum(choice is not None for choice in alone) > len(nodes) // 2
        # Three random sub-batches, then one batch of every node: all three width classes.
        orders = [rng.permutation(len(nodes))[: int(rng.integers(2, len(nodes) + 1))]
                  for _ in range(3)] + [rng.permutation(len(nodes))]
        assert {min(i for i, w in enumerate((8, 48, math.inf)) if len(rows) <= w)
                for rows, _, _ in nodes} == {0, 1, 2}
        for order in orders:
            choices = _best_splits(tables, [nodes[i] for i in order], features[order], 2)
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


class TestNodeTarget:
    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
    def test_bit_equal_to_numpy_either_side_of_128_rows(self, m):
        # _pairwise_sum adds up to 128 values in eight lanes and splits longer runs in two.
        rng = np.random.default_rng(m)
        y = rng.normal(size=400) * 10.0 ** rng.integers(-8, 9, size=400)
        for _ in range(20):
            rows = np.sort(rng.integers(0, 400, size=m)).tolist()
            ys = y[rows]
            mean = float(np.sum(ys)) / m
            yc = ys - mean
            s = float(np.sum(yc))
            constant = bool((ys == ys[0]).all())
            expected = (mean, None if constant else float(np.sum(yc * yc)) - s * s / m)
            got = _node_target(rows, y.tolist(), True)
            assert [float_bits(v) for v in got if v is not None] == \
                [float_bits(v) for v in expected if v is not None]
            assert _node_target(rows, y.tolist(), False) == (got[0], None)

    def test_constant_node_has_no_sum_of_squares(self):
        y = np.array([-0.0, 0.0, 1.5])
        for rows in ([0, 1], [0, 1] * 100, [2] * 129):
            mean, sse = _node_target(rows, y.tolist(), True)
            assert sse is None
            assert float_bits(mean) == float_bits(float(np.sum(y[rows])) / len(rows))


class TestPairwiseSum:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300))
    def test_matches_numpy_sum_bit_for_bit(self, values):
        with np.errstate(over="ignore", invalid="ignore"):  # huge values may sum to inf or nan
            expected = float(np.sum(np.array(values, dtype=np.float64)))
        assert float_bits(0.0 + _pairwise_sum(values)) == float_bits(expected)

    @pytest.mark.parametrize("n", [7, 8, 128, 129])
    def test_branch_edges(self, n):
        # Magnitudes spread over 16 decades, so that summing in the order of the
        # neighbouring branch would round differently in many of these arrays.
        rng = np.random.default_rng(n)
        for _ in range(50):
            values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
            expected = float(np.sum(values))
            assert float_bits(0.0 + _pairwise_sum(values.tolist())) == float_bits(expected)


def sequential_floyd(values, d, k):
    """``sorted(rng.choice(d, size=k, replace=False))`` from one draw's bounded values
    (``_draw_bounds(d, k)``'s, in order), one Floyd step at a time, as numpy takes them."""
    picked = []
    for v, j in zip(values, range(d - k, d)):
        picked.append(j if v in picked else v)
    return sorted(picked)


class ChoiceDraws:
    """Each node's candidates from its own ``rng.choice`` call: the draws
    ``_CandidateDraws`` replays."""

    def __init__(self, rng):
        self._rng = rng

    def sample(self, d, k):
        return sorted(self._rng.choice(d, size=k, replace=False).tolist())

    def close(self):
        pass


class TestCandidateDraws:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), prior=st.integers(0, 9),
           picks=st.lists(st.integers(1, 14).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(1, d))), min_size=1, max_size=60))
    def test_replays_numpy_choice(self, seed, prior, picks):
        # An odd number of prior 32-bit draws leaves half an output buffered.
        ours = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        ours.integers(0, 400, size=prior)
        reference.integers(0, 400, size=prior)
        draws = _CandidateDraws(ours)
        for d, k in picks:
            expected = sorted(reference.choice(d, size=k, replace=False).tolist())
            assert draws.sample(d, k) == expected
        draws.close()
        assert ours.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), prior=st.integers(0, 9),
           shape=st.integers(1, 14).flatmap(lambda d: st.tuples(
               st.just(d), st.sampled_from(sorted({1, d, (d + 1) // 2})))),
           count=st.integers(0, 700))
    def test_replays_numpy_choice_across_blocks(self, seed, prior, shape, count):
        # One (d, k) per example, as a tree draws; enough draws to cross blocks,
        # d == k and k == 1 among the shapes, and no draw at all (a root leaf).
        d, k = shape
        ours = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        ours.integers(0, 400, size=prior)
        reference.integers(0, 400, size=prior)
        draws = _CandidateDraws(ours)
        for _ in range(count):
            assert draws.sample(d, k) == sorted(reference.choice(d, size=k, replace=False).tolist())
        draws.close()
        assert ours.bit_generator.state == reference.bit_generator.state

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
        draws = _CandidateDraws(ours)
        for _ in range(10_000):
            expected = sorted(reference.choice(12, size=4, replace=False).tolist())
            assert draws.sample(12, 4) == expected
            # At most one block is held: its picks, and no words.
            assert len(draws._picks) <= 4 * _CandidateDraws._BLOCK
        draws.close()
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_rejected_word_is_drawn_again(self):
        # A buffered word of 0 lies below Lemire's rejection threshold for a
        # bound that is not a power of two, such as choice(12, 4)'s first, 9.
        ours = np.random.default_rng(5)
        reference = np.random.default_rng(5)
        for rng in (ours, reference):
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
        draws = _CandidateDraws(ours)
        assert draws.sample(12, 4) == sorted(reference.choice(12, size=4, replace=False).tolist())
        draws.close()
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64])
    @pytest.mark.parametrize("seed, shapes", [
        (3, [(12, 4)] * (2 * _CandidateDraws._BLOCK + 7)),
        (4, [(14, 5)] * _CandidateDraws._BLOCK),
        (5, [(7, 7)] * 300 + [(1, 1)] * 3 + [(9, 1)] * 40),
        (6, [(12, 4), (5, 2), (5, 2), (13, 13)] * 70),
    ])
    def test_replays_numpy_choice_for_any_bit_generator(self, bit_generator, seed, shapes):
        # An odd number of prior 32-bit draws leaves half a 64-bit output buffered.
        ours = np.random.Generator(bit_generator(seed))
        reference = np.random.Generator(bit_generator(seed))
        ours.integers(0, 400, size=3)
        reference.integers(0, 400, size=3)
        draws = _CandidateDraws(ours)
        for d, k in shapes:
            assert draws.sample(d, k) == sorted(reference.choice(d, size=k, replace=False).tolist())
        draws.close()
        # MT19937's state holds an array, so the streams after it are compared instead:
        # 32-bit words first, which take a buffered half-output, then raw outputs.
        for read in (lambda rng: rng.integers(0, 2**32, size=3, dtype=np.uint32),
                     lambda rng: rng.bit_generator.random_raw(4)):
            assert read(ours).tolist() == read(reference).tolist()

    @pytest.mark.parametrize("d, k", [(255, 85), (256, 86), (257, 86), (300, 100), (10_000, 3334)])
    def test_replays_numpy_choice_with_wide_picks(self, d, k):
        # Past 256 features a block holds its picks as uint16 instead of uint8.
        ours = np.random.default_rng(d)
        reference = np.random.default_rng(d)
        ours.integers(0, 400, size=3)
        reference.integers(0, 400, size=3)
        draws = _CandidateDraws(ours)
        for _ in range(3):
            assert draws.sample(d, k) == sorted(reference.choice(d, size=k, replace=False).tolist())
        assert draws._picks.itemsize == (1 if d <= 256 else 2)
        draws.close()
        assert ours.bit_generator.state == reference.bit_generator.state


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
        # A cycle would keep each tree's list copy of X alive until the cyclic collector runs.
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
        X = d.matrix(d.feature_names)
        y = d.matrix(("yield",)).ravel()
        rows = np.random.default_rng(2).integers(0, 500, size=500)
        rng = np.random.Generator(np.random.MT19937(9))
        tree = fit_tree(X, y, rows, ForestParams(max_features=4), rng)
        monkeypatch.setattr(forest, "_CandidateDraws", ChoiceDraws)
        reference = np.random.Generator(np.random.MT19937(9))
        assert_same_tree(tree, fit_tree(X, y, rows, ForestParams(max_features=4), reference))
        assert rng.bit_generator.random_raw(4).tolist() == \
            reference.bit_generator.random_raw(4).tolist()

    def test_depth_one_tree_structure(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        params = ForestParams(max_depth=1, max_features=1)
        tree = fit_tree(X, y, np.arange(4), params, np.random.default_rng(0))
        expected = tree_from_nodes([split(0, 2.5), leaf(0.0, 2), leaf(10.0, 2)])
        assert_same_tree(tree, expected)


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
        X = d.matrix(d.feature_names)
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
        X = d.matrix(d.feature_names)
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

        class RecordingPool:
            """Runs the trees in this process and records the pool size asked for."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # fit_forest imports the pool only when it starts one, so it finds it here.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(forest, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        params = ForestParams(n_trees=n_trees, seed=2)
        model = fit_forest(X, y, params, workers=workers)
        assert requested == ([] if pool_size is None else [pool_size])
        serial = fit_forest(X, y, params)
        assert predict_forest(model, X).tobytes() == predict_forest(serial, X).tobytes()

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
        X = d.matrix(d.feature_names)
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
        X = d.matrix(d.feature_names)
        y = d.matrix(("yield",)).ravel()
        model = fit_forest(X, y, ForestParams(n_trees=12, seed=3))
        probe = rng.normal(scale=50.0, size=(40, X.shape[1]))
        preds = predict_forest(model, probe)
        assert np.all(preds >= y.min()) and np.all(preds <= y.max())

    def test_deeper_trees_fit_training_data_no_worse(self):
        d = generate(100, seed=6)
        X = d.matrix(d.feature_names)
        y = d.matrix(("yield",)).ravel()
        fine = fit_forest(X, y, ForestParams(n_trees=10, seed=21, min_samples_leaf=1))
        coarse = fit_forest(X, y, ForestParams(n_trees=10, seed=21, min_samples_leaf=5))
        assert r2_score(y, predict_forest(fine, X)) >= r2_score(y, predict_forest(coarse, X))

    def test_oob_score_populated_with_bootstrap(self):
        d = generate(120, seed=8)
        X = d.matrix(d.feature_names)
        y = d.matrix(("yield",)).ravel()
        model = fit_forest(X, y, ForestParams(n_trees=20, seed=5))
        assert model.oob_r2 is not None
        assert fit_forest(X, y, ForestParams(n_trees=3, seed=5, bootstrap=False)).oob_r2 is None

    def test_draw_fallback_grows_the_same_trees(self, monkeypatch):
        # Every node's candidates drawn by rng.choice: an odd row count leaves the bootstrap's
        # last word buffered, and 501 rows make each tree more than one block of draws.
        d = generate(501, seed=3)
        X = d.matrix(d.feature_names)
        y = d.matrix(("yield",)).ravel()
        params = ForestParams(n_trees=5, seed=13)
        expected = fit_forest(X, y, params)
        monkeypatch.setattr(forest, "_CandidateDraws", ChoiceDraws)
        model = fit_forest(X, y, params)
        for tree, reference in zip(model.trees, expected.trees, strict=True):
            assert_same_tree(tree, reference)
        assert model.oob_r2 == expected.oob_r2

    def test_too_few_rows(self):
        with pytest.raises(ValidationError, match="^need at least 2 rows, got 1$"):
            fit_forest(np.array([[1.0]]), np.array([1.0]), ForestParams(n_trees=2))


def route_level_by_level(tree: Tree, X):
    """Reference router: the rows not yet at a leaf step one level, in preorder ids."""
    right = np.array(right_children(tree))
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        split = tree.feature[at] >= 0
        rows, at = rows[split], at[split]
        left = X[rows, tree.feature[at]] <= tree.number[at]
        node[rows] = np.where(left, at + 1, right[at])
    return tree.number[node]


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
            feature_names=("a",),
            oob_r2=None,
        )
        assert predict_forest(model, [[0.0]])[0] == 5.0

    def test_single_leaf_forest_is_constant(self):
        model = ForestModel(
            trees=(tree_from_nodes([leaf(2.5, 10)]),),
            params=ForestParams(n_trees=1, max_features=1),
            feature_names=("a",),
            oob_r2=None,
        )
        assert np.all(predict_forest(model, [[-9.0], [0.0], [9.0]]) == 2.5)

    def test_value_at_threshold_routes_left(self):
        tree = tree_from_nodes([split(0, 2.5), leaf(-1.0, 1), leaf(1.0, 1)])
        model = ForestModel(
            trees=(tree,),
            params=ForestParams(n_trees=1, max_features=1),
            feature_names=("a",),
            oob_r2=None,
        )
        assert predict_forest(model, [[2.5]])[0] == -1.0
        assert predict_forest(model, [[2.5000001]])[0] == 1.0

    def test_tree_walk_matches_one_row_at_a_time(self):
        d = generate(80, seed=2)
        X = d.matrix(d.feature_names)
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
                            feature_names=tuple(f"x{i}" for i in range(X.shape[1])), oob_r2=None)
        expected = sum(route_level_by_level(tree, X) for tree in trees) / len(trees)
        assert predict_forest(model, X).tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        model = ForestModel(
            trees=(tree_from_nodes([leaf(1.0, 1)]),),
            params=ForestParams(n_trees=1, max_features=1),
            feature_names=("a",),
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

        def record(tables, nodes, features, min_leaf):
            batches.append((tables, nodes, features, min_leaf))
            return scan(tables, nodes, features, min_leaf)

        monkeypatch.setattr(forest, "_best_splits", record)
        d = generate(800, seed=7)
        X = d.matrix(d.feature_names)
        y = d.matrix(("yield",)).ravel()
        fit_forest(X, y, ForestParams(n_trees=2, seed=7, min_samples_leaf=3, max_features=12))
        fit_forest(X[:300], y[:300], ForestParams(n_trees=6, seed=8))
        fit_forest(np.round(X[:200], 0), np.round(y[:200], 0),
                   ForestParams(n_trees=3, seed=9, min_samples_leaf=5, max_depth=6))
        widths = [(len(rows), features.shape[1]) for _, nodes, features, _ in batches
                  for rows, _, _ in nodes]
        # Nodes past every width class, and nodes whose candidates alone pass the cell cap.
        assert any(w > forest._WIDTH_CLASSES[-1] for w, _ in widths)
        assert any(w * k > forest._SCAN_CELLS for w, k in widths)
        assert {min_leaf for *_, min_leaf in batches} == {1, 3, 5}
        assert max(len(nodes) for _, nodes, _, _ in batches) > 1
        for tables, nodes, features, min_leaf in batches:
            got = scan(tables, nodes, features, min_leaf)
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
        X = d.matrix(d.feature_names)
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
        X = d.matrix(d.feature_names)
        y = d.matrix(("yield",)).ravel()
        if rounded:
            X, y = np.round(X, 0), np.round(y, 0)
        model = fit_forest(X, y, params, workers=workers)
        samples = [_tree_rng(params.seed, t).integers(0, 150, size=150)
                   for t in range(params.n_trees)]
        # Some rows are in every tree's sample, so the score skips them.
        assert np.logical_and.reduce([np.bincount(s, minlength=150) > 0 for s in samples]).any()
        assert model.oob_r2 == per_tree_oob_r2(X, y, model.trees, samples)
