import re
import warnings

import numpy as np
import pytest

from soilyield.errors import NumericalError, ValidationError
from soilyield.metrics import (
    NutrientCounts,
    classify_levels,
    default_nutrient_thresholds,
    mae,
    nutrient_index,
    r2_if_defined,
    r2_score,
    rmse,
)


class TestR2Score:
    def test_perfect_prediction(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_prediction_scores_zero(self):
        y = [1.0, 2.0, 3.0]
        assert r2_score(y, [2.0, 2.0, 2.0]) == 0.0

    def test_hand_evaluated_case(self):
        # RSS = 0.01 + 0.01 + 0.04 = 0.06, TSS = 2, so R^2 = 0.97.
        assert r2_score([1.0, 2.0, 3.0], [1.1, 1.9, 3.2]) == pytest.approx(0.97, abs=1e-12)

    def test_worse_than_mean_is_negative(self):
        assert r2_score([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) < 0.0

    def test_constant_target_raises(self):
        with pytest.raises(NumericalError, match=re.escape(
                "y_true is constant, R^2 is undefined (TSS = 0)")):
            r2_score([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_constant_target_with_a_rounded_mean_raises(self):
        # The mean of five 7.77s is not 7.77, so TSS comes out near 4e-30, not 0.
        assert np.mean([7.77] * 5) != 7.77
        with pytest.raises(NumericalError, match=re.escape(
                "y_true is constant, R^2 is undefined (TSS = 0)")):
            r2_score([7.77] * 5, [7.0, 7.5, 7.77, 8.0, 9.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=re.escape(
                "y_true and y_pred must be equal-length vectors, got (2,) and (3,)")):
            r2_score([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="^need at least 2 values, got 1$"):
            r2_score([1.0], [1.0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n)
            if np.all(y == y[0]):
                continue
            pred = y + rng.normal(scale=0.3, size=n)
            shift = float(rng.normal(scale=100.0))
            assert r2_score(y + shift, pred + shift) == pytest.approx(
                r2_score(y, pred), rel=1e-10, abs=1e-10)

    def test_rss_identity_with_rmse(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            y = rng.normal(size=n)
            if np.all(y == y[0]):
                continue
            pred = rng.normal(size=n)
            rss = float(((y - pred) ** 2).sum())
            assert abs(rss - n * rmse(y, pred) ** 2) < 1e-10


class TestR2IfDefined:
    @pytest.mark.parametrize("y", [[], [4.0]], ids=["no-values", "one-value"])
    def test_under_two_values_is_none(self, y):
        assert r2_if_defined(y, y) is None

    def test_constant_y_true_is_none(self):
        assert r2_if_defined([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) is None
        assert r2_if_defined([7.77] * 5, [7.0, 7.5, 7.77, 8.0, 9.0]) is None

    def test_equals_r2_score_where_defined(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=30)
        pred = y + rng.normal(scale=0.5, size=30)
        assert np.float64(r2_if_defined(y, pred)).tobytes() == np.float64(
            r2_score(y, pred)).tobytes()

    def test_overflow_still_raises(self):
        with pytest.raises(NumericalError, match="overflow or underflow"):
            r2_if_defined([1e200, -1e200, 0.0], [0.0, 0.0, 0.0])


class TestRmseMae:
    def test_perfect_prediction_is_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_direct_arithmetic_case(self):
        # rmse = sqrt((9 + 16) / 2), mae = (3 + 4) / 2.
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355339059327378, abs=1e-12)
        assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5

    def test_constant_offset(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=20)
        for c in (0.5, -2.25, 10.0):
            assert rmse(y, y + c) == pytest.approx(abs(c), abs=1e-12)
            assert mae(y, y + c) == pytest.approx(abs(c), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=re.escape(
                "y_true and y_pred must be equal-length vectors, got (1,) and (2,)")):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValidationError, match="^need at least 1 value, got 0$"):
            mae([], [])


class TestSumsOutOfFloatRange:
    """Scores whose sums of squares overflow to inf or underflow to 0 are refused."""

    Y = np.array([1.0, 2.0, 4.0, 7.0, 3.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
    def test_r2_refuses(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow or underflow"):
                r2_score(self.Y * scale, self.Y * scale * 0.9)

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
    def test_rmse_refuses(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow or underflow"):
                rmse(self.Y * scale, self.Y * scale * 0.5)

    def test_exact_predictions_of_tiny_values_are_not_an_underflow(self):
        assert rmse(self.Y * 1e-200, self.Y * 1e-200) == 0.0

    def test_rss_that_underflows_beside_a_normal_tss_scores(self):
        # Errors of about 1e-165 square to 0, a loss far below the TSS of about 1e-299.
        y = self.Y * 1e-150
        assert np.all(y + 1e-165 != y)
        assert r2_score(y, y + 1e-165) == 1.0
        with pytest.raises(NumericalError, match="overflow or underflow"):
            rmse(y, y + 1e-165)

    def test_largest_sums_in_range_still_score(self):
        y = self.Y * 1e150
        assert r2_score(y, y) == 1.0
        assert rmse(y, y * 0.5) == pytest.approx(0.5 * np.sqrt(np.mean(self.Y ** 2)) * 1e150)


class TestNutrientIndex:
    def test_all_low_is_one(self):
        assert nutrient_index(NutrientCounts(nl=10, nm=0, nh=0, nt=10)) == 1.0

    def test_all_high_is_three(self):
        assert nutrient_index(NutrientCounts(nl=0, nm=0, nh=10, nt=10)) == 3.0

    def test_mixed_counts(self):
        assert nutrient_index(NutrientCounts(nl=2, nm=3, nh=5, nt=10)) == 2.3

    def test_zero_total(self):
        with pytest.raises(ValidationError, match=re.escape("no samples analyzed (nt = 0)")):
            nutrient_index(NutrientCounts(nl=0, nm=0, nh=0, nt=0))

    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            NutrientCounts(nl=1, nm=1, nh=1, nt=4)
        with pytest.raises(ValueError):
            NutrientCounts(nl=-1, nm=2, nh=0, nt=1)

    def test_always_within_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            nl, nm, nh = (int(v) for v in rng.integers(0, 20, size=3))
            if nl + nm + nh == 0:
                continue
            ni = nutrient_index(NutrientCounts(nl, nm, nh, nl + nm + nh))
            assert 1.0 <= ni <= 3.0


class TestClassifyLevels:
    def test_strict_boundaries(self):
        counts = classify_levels([1.0, 5.0, 5.0, 9.0, 10.0, 12.0], low=5.0, high=10.0)
        assert counts == NutrientCounts(nl=1, nm=4, nh=1, nt=6)

    def test_feeds_nutrient_index(self):
        counts = classify_levels([1.0, 7.0, 20.0, 30.0], low=5.0, high=10.0)
        assert nutrient_index(counts) == 2.25

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            classify_levels([1.0], low=5.0, high=2.0)

    def test_bundled_defaults_are_well_formed(self):
        thresholds = default_nutrient_thresholds()
        assert {"N", "P", "K"} <= set(thresholds)
        for spec in thresholds.values():
            assert 0 < spec["low"] <= spec["high"]
