import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from soilyield.dataset import CANONICAL_FEATURES, Dataset, train_test_split
from soilyield.errors import ValidationError
from soilyield.preprocess import (
    CorrelationMatrix,
    NormalizationParams,
    apply_minmax,
    fit_minmax,
    invert_minmax,
    out_of_range_count,
    pearson_correlation,
    render_heatmap,
)
from soilyield.synth import generate

GOLDEN_DIR = Path(__file__).parent / "data"


def numeric_dataset(matrix, names=None):
    values = np.array(matrix, dtype=float)
    names = names or [f"c{i}" for i in range(values.shape[1])]
    return Dataset(tuple(names), values, rows_read=len(values))


def params(mins, maxs, names=None):
    mins = np.asarray(mins, dtype=float)
    names = names or tuple(f"c{i}" for i in range(len(mins)))
    return NormalizationParams(columns=tuple(names), mins=mins,
                               maxs=np.asarray(maxs, dtype=float))


class TestFitMinmax:
    def test_simple_column(self):
        d = numeric_dataset([[0.0], [5.0], [10.0]])
        p = fit_minmax(d, d.column_names)
        assert p.mins[0] == 0.0 and p.maxs[0] == 10.0

    def test_constant_column(self):
        d = numeric_dataset([[7.0], [7.0], [7.0]])
        p = fit_minmax(d, d.column_names)
        assert p.mins[0] == 7.0 and p.maxs[0] == 7.0

    def test_two_column_toy(self):
        d = numeric_dataset([[1.0, 100.0], [3.0, 200.0]])
        p = fit_minmax(d, d.column_names)
        assert list(p.mins) == [1.0, 100.0]
        assert list(p.maxs) == [3.0, 200.0]

    def test_fit_uses_only_selected_rows(self):
        d = numeric_dataset([[0.0], [50.0], [1000.0]])
        p = fit_minmax(replace(d, values=d.values[np.array([0, 1])]), d.column_names)
        assert p.maxs[0] == 50.0

    def test_fits_only_the_named_columns_in_their_order(self):
        d = numeric_dataset([[1.0, 100.0, -5.0], [3.0, 200.0, 5.0]])
        p = fit_minmax(d, ("c2", "c0"))
        assert p.columns == ("c2", "c0")
        assert list(p.mins) == [-5.0, 1.0] and list(p.maxs) == [5.0, 3.0]

    def test_empty_selection(self):
        d = numeric_dataset(np.empty((0, 1)))
        with pytest.raises(ValidationError,
                           match="^cannot fit normalization on an empty row selection$"):
            fit_minmax(d, d.column_names)

    def test_peak_is_the_training_cells_it_reads(self):
        # The fit copies the named columns of the rows it is given and nothing more; a copy
        # of every row taken before selecting the training rows peaked at 2.42 times them.
        d = generate(20_000, seed=7)
        train_rows, _ = train_test_split(d, 0.2, seed=7)
        train = replace(d, values=d.values[train_rows])
        fit_minmax(train, CANONICAL_FEATURES)  # imports and caches settle outside
        tracemalloc.start()
        try:
            fit_minmax(train, CANONICAL_FEATURES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * train.n_rows * len(CANONICAL_FEATURES) * 8


class TestApplyMinmax:
    def test_midpoint(self):
        assert apply_minmax(params([0.0], [10.0]), [5.0])[0] == 0.5

    def test_constant_column_maps_to_zero(self):
        assert apply_minmax(params([7.0], [7.0]), [7.0])[0] == 0.0

    def test_out_of_range_clamped(self):
        p = params([0.0], [10.0])
        assert apply_minmax(p, [12.0])[0] == 1.0
        assert apply_minmax(p, [-3.0])[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="^expected 1 columns, got 2$"):
            apply_minmax(params([0.0], [1.0]), [1.0, 2.0])

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            mins = rng.normal(size=k)
            maxs = mins + np.abs(rng.normal(size=k)) * rng.integers(0, 2, size=k)
            p = params(mins, maxs)
            x = rng.normal(scale=100.0, size=(8, k))
            z = apply_minmax(p, x)
            assert np.all(z >= 0.0) and np.all(z <= 1.0)

    @pytest.mark.parametrize("x", [
        np.array([[5.0, 7.0, 0.5], [-3.0, 7.0, 2.0], [12.0, 8.0, -0.0], [0.0, 6.0, 1.0]]),
        np.array([[np.inf, np.inf, -np.inf], [-np.inf, -np.inf, np.inf]]),
        np.array([[np.nan, np.nan, 0.25], [1e308, -1e308, np.nan]]),
        np.array([10.0, 7.0, 0.75]),  # one row
        np.array([[3, 7, 1], [-4, 9, 0]]),  # ints
    ], ids=["out-of-range", "infinities", "nan", "row", "ints"])
    @pytest.mark.parametrize("read_only", [False, True])
    def test_equals_the_expression_bit_for_bit(self, x, read_only):
        # Scaling one copy in place runs the same ufuncs in the same order as the
        # expression below, which made a full-size temporary for each step.
        def expression(params, x):
            x = np.asarray(x, dtype=np.float64)
            spread = params.maxs - params.mins
            safe = np.where(spread > 0, spread, 1.0)
            z = np.clip((x - params.mins) / safe, 0.0, 1.0)
            return np.where(spread > 0, z, 0.0)

        p = params([0.0, 7.0, -1.0], [10.0, 7.0, 1.0])  # the middle column is constant
        before = x.copy()
        x.setflags(write=not read_only)
        expected, got = expression(p, x), apply_minmax(p, x)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(got, x)

    def test_out_of_range_count(self):
        p = params([0.0, 0.0], [1.0, 1.0])
        x = np.array([[0.5, 2.0], [-1.0, 0.5], [0.1, 0.9]])
        assert out_of_range_count(p, x) == 2


class TestInvertMinmax:
    def test_midpoint(self):
        assert invert_minmax(params([0.0], [10.0]), [0.5])[0] == 5.0

    def test_roundtrip_within_tolerance(self):
        p = params([1.0], [4.0])
        x = np.array([3.7])
        back = invert_minmax(p, apply_minmax(p, x))
        assert abs(back[0] - 3.7) < 1e-12

    def test_constant_column(self):
        assert invert_minmax(params([7.0], [7.0]), [0.0])[0] == 7.0

    def test_roundtrip_random_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            mins = rng.uniform(-50, 0, size=k)
            maxs = mins + rng.uniform(0.5, 100, size=k)
            p = params(mins, maxs)
            x = rng.uniform(mins, maxs, size=(6, k))
            back = invert_minmax(p, apply_minmax(p, x))
            assert np.max(np.abs(back - x)) < 1e-12


class TestPearsonCorrelation:
    def test_self_correlation_is_one(self):
        d = numeric_dataset([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
        c = pearson_correlation(d)
        assert c.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation_is_minus_one(self):
        d = numeric_dataset([[1.0, -1.0], [2.0, -2.0], [5.0, -5.0]])
        c = pearson_correlation(d)
        assert c.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_derived_case(self):
        # r = 3 / sqrt(2 * 14/3), evaluated with the plain Pearson formula.
        d = numeric_dataset([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]])
        c = pearson_correlation(d)
        assert c.values[0, 1] == pytest.approx(0.9819805060619659, abs=1e-12)

    def test_zero_variance_column(self):
        d = numeric_dataset([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        c = pearson_correlation(d)
        assert c.values[0, 1] == 0.0
        assert c.values[1, 1] == 1.0

    def test_constant_column_whose_mean_rounds_off_correlates_exactly_0(self):
        # The mean of 40 cells of 7.77 is 7.77 - 8.9e-16, so the centred column is not 0;
        # it used to correlate as rounding noise of up to 1.2e-15.
        x = np.random.default_rng(7).normal(size=(40, 3))
        d = numeric_dataset(np.column_stack([x[:, :2], np.full(40, 7.77), x[:, 2]]))
        values = pearson_correlation(d).values
        assert values[2].tolist() == values[:, 2].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_too_few_rows(self):
        d = numeric_dataset([[1.0, 2.0]])
        with pytest.raises(ValidationError, match="^need at least 2 rows, got 1$"):
            pearson_correlation(d)

    def test_column_whose_sum_of_squares_overflows_is_refused_by_name(self):
        d = numeric_dataset([[1.0, 1e308], [2.0, -1e308], [4.0, 1e308]], names=["EC", "pH"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="column 'pH': its sum of squares overflows"):
                pearson_correlation(d)

    @pytest.mark.parametrize("scale", [1e100, 1e-100], ids=["overflow", "underflow"])
    def test_pair_whose_product_of_sums_leaves_float_range_is_refused(self, scale):
        # r is about 1; the product of the two sums of squares is inf or 0, which gave 0.
        x = np.array([1.0, 2.0, 4.0, 7.0])
        d = numeric_dataset(np.column_stack([x, x + 0.5, x]) * [scale, scale, 1.0],
                            names=["pH", "EC", "OC"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="columns 'pH' and 'EC': the product"):
                pearson_correlation(d)
        assert pearson_correlation(numeric_dataset(d.values[:, [0, 2]])).values[0, 1] == \
            pytest.approx(1.0)

    def test_column_whose_sum_of_squares_underflows_is_refused_by_name(self):
        # Squares of about 1e-400 sum to 0, which read as a constant column and gave r = 0.
        d = numeric_dataset([[1.0, 1e-200], [2.0, 3e-200], [4.0, 2e-200]], names=["EC", "Zn"])
        with pytest.raises(ValidationError, match="column 'Zn': its sum of squares overflows "
                                                  "or underflows"):
            pearson_correlation(d)

    def test_constant_column_beside_a_large_one_still_correlates_0(self):
        d = numeric_dataset([[1e150, 5.0], [2e150, 5.0], [4e150, 5.0]])
        assert pearson_correlation(d).values[0, 1] == 0.0

    def test_matrix_invariants_on_random_data(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(2, 7))
            d = numeric_dataset(rng.normal(size=(n, k)))
            c = pearson_correlation(d)
            assert np.array_equal(c.values, c.values.T)
            assert np.max(np.abs(np.diag(c.values) - 1.0)) <= 1e-12
            assert np.max(np.abs(c.values)) <= 1.0 + 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        base = pearson_correlation(numeric_dataset(np.column_stack([x, y])))
        for a, b in ((2.0, 3.0), (0.004, -17.0), (123.0, 0.0)):
            scaled = pearson_correlation(numeric_dataset(np.column_stack([a * x + b, y])))
            assert scaled.values[0, 1] == pytest.approx(base.values[0, 1], abs=1e-10)


class TestRenderHeatmap:
    def test_identity_matrix_cells(self, tmp_path):
        c = CorrelationMatrix(labels=("a", "b"), values=np.eye(2))
        path = tmp_path / "h.svg"
        render_heatmap(c, path)
        text = path.read_text()
        assert text.count("<rect") == 5  # background + 4 cells
        assert text.count('fill="#c0392b" fill-opacity="1.0000"') == 2
        assert text.count('fill-opacity="0.0000"') == 2

    def test_full_negative_cell_is_opaque_gray(self, tmp_path):
        c = CorrelationMatrix(labels=("a", "b"),
                              values=np.array([[1.0, -1.0], [-1.0, 1.0]]))
        path = tmp_path / "h.svg"
        render_heatmap(c, path)
        assert 'fill="#7f8c8d" fill-opacity="1.0000"' in path.read_text()

    def test_golden_snapshot(self, tmp_path):
        # Frozen after visual review of the generated file.
        c = CorrelationMatrix(
            labels=("pH", "K", "yield"),
            values=np.array([[1.0, 0.5, -0.25], [0.5, 1.0, 0.0], [-0.25, 0.0, 1.0]]),
        )
        path = tmp_path / "heatmap.svg"
        render_heatmap(c, path)
        assert path.read_bytes() == (GOLDEN_DIR / "heatmap_3x3.svg").read_bytes()
