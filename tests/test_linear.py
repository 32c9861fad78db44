import numpy as np
import pytest

from soilyield.errors import (
    DimensionMismatchError,
    NegativeLambdaError,
    SingularSystemError,
    UnderdeterminedError,
)
from soilyield.linear import CONDITION_LIMIT, fit_mlr, fit_ridge, predict_linear


def pinv_oracle(X, y):
    """Least squares through the pseudo-inverse of the design matrix.

    Independent of the centered normal-equations path under test; returns
    (intercept, coefficients).
    """
    design = np.column_stack([np.ones(len(X)), X])
    beta = np.linalg.pinv(design) @ y
    return beta[0], beta[1:]


def ridge_oracle(X, y, lam):
    """Ridge as the pseudo-inverse of the lambda-augmented centered system."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = X - X.mean(axis=0)
    yc = y - y.mean()
    aug = np.vstack([xc, np.sqrt(lam) * np.eye(X.shape[1])])
    target = np.concatenate([yc, np.zeros(X.shape[1])])
    beta = np.linalg.pinv(aug) @ target
    return y.mean() - beta @ X.mean(axis=0), beta


def random_instance(rng, n_max=50, d_max=10):
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(d + 2, max(d + 3, n_max + 1)))
    X = rng.normal(size=(n, d))
    beta = rng.normal(scale=3.0, size=d)
    y = rng.normal() + X @ beta + rng.normal(scale=0.5, size=n)
    return X, y


class TestFitMlr:
    def test_exact_line(self):
        m = fit_mlr([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0])
        assert m.intercept == pytest.approx(1.0, abs=1e-12)
        assert m.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert m.diagnostics.training_r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_feature_exact_plane(self):
        # Data constructed as y = 1 + 2*x1 + 4*x2.
        X = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
        y = [3.0, 5.0, 7.0, 1.0]
        oracle_b0, oracle_beta = pinv_oracle(np.asarray(X), np.asarray(y))
        assert oracle_b0 == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(oracle_beta, [2.0, 4.0], atol=1e-10)
        m = fit_mlr(X, y)
        assert m.intercept == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(m.coefficients, [2.0, 4.0], atol=1e-10)

    def test_matches_pinv_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            X, y = random_instance(rng)
            m = fit_mlr(X, y)
            b0, beta = pinv_oracle(X, y)
            assert abs(m.intercept - b0) < 1e-8
            assert np.max(np.abs(m.coefficients - beta)) < 1e-8

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_mlr([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])

    def test_all_constant_features_is_singular(self):
        X = np.full((6, 2), 3.0)
        y = np.arange(6.0)
        with pytest.raises(SingularSystemError):
            fit_mlr(X, y)

    def test_collinear_columns_fall_back_to_svd(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        X = np.column_stack([x, x])  # exactly collinear
        y = 2.0 + 3.0 * x
        m = fit_mlr(X, y)
        assert m.diagnostics.solver == "svd"
        b0, beta = pinv_oracle(X, y)
        assert abs(m.intercept - b0) < 1e-8
        assert np.max(np.abs(m.coefficients - beta)) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X, y = random_instance(rng)
            m = fit_mlr(X, y)
            residual = y - predict_linear(m, X)
            xc = X - X.mean(axis=0)
            assert np.max(np.abs(xc.T @ residual)) < 1e-8 * np.linalg.norm(y)

    def test_mean_prediction_equals_mean_target(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            X, y = random_instance(rng)
            m = fit_mlr(X, y)
            assert predict_linear(m, X).mean() == pytest.approx(y.mean(), abs=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(31)
        X, y = random_instance(rng, n_max=30, d_max=5)
        base = fit_mlr(X, y)
        scale = 40.0
        X2 = X.copy()
        X2[:, 0] *= scale
        scaled = fit_mlr(X2, y)
        assert scaled.coefficients[0] == pytest.approx(base.coefficients[0] / scale, rel=1e-8)
        assert np.max(np.abs(predict_linear(scaled, X2) - predict_linear(base, X))) < 1e-8


class TestFitRidge:
    def test_lambda_zero_matches_mlr(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            X, y = random_instance(rng)
            a = fit_mlr(X, y)
            b = fit_ridge(X, y, 0.0)
            assert abs(a.intercept - b.intercept) < 1e-8
            assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-8

    def test_one_dimensional_closed_form(self):
        # Centered data: slope = sum(xy) / (sum(x^2) + lambda) = 2/4.
        m = fit_ridge([[-1.0], [1.0]], [-1.0, 1.0], 2.0)
        assert abs(m.coefficients[0] - 0.5) < 1e-12
        assert abs(m.intercept) < 1e-12

    def test_one_dimensional_closed_form_random(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            lam = float(rng.uniform(0.0, 20.0))
            xc = x - x.mean()
            yc = y - y.mean()
            slope = float((xc * yc).sum() / ((xc * xc).sum() + lam))
            m = fit_ridge(x.reshape(-1, 1), y, lam)
            assert m.coefficients[0] == pytest.approx(slope, abs=1e-12)
            assert m.intercept == pytest.approx(y.mean() - slope * x.mean(), abs=1e-12)

    def test_matches_augmented_pinv_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            X, y = random_instance(rng, n_max=30, d_max=6)
            lam = float(rng.uniform(0.01, 50.0))
            m = fit_ridge(X, y, lam)
            b0, beta = ridge_oracle(X, y, lam)
            assert abs(m.intercept - b0) < 1e-8
            assert np.max(np.abs(m.coefficients - beta)) < 1e-8

    def test_infinite_shrinkage_limit(self):
        rng = np.random.default_rng(61)
        X = rng.uniform(size=(30, 4))
        y = rng.uniform(low=1.0, high=9.0, size=30)
        m = fit_ridge(X, y, 1e12)
        assert np.max(np.abs(m.coefficients)) < 1e-6
        assert m.intercept == pytest.approx(y.mean(), abs=1e-6)

    def test_shrinkage_monotonicity(self):
        rng = np.random.default_rng(67)
        lambdas = (0.0, 0.1, 1.0, 10.0, 1e3)
        for _ in range(20):
            X, y = random_instance(rng, n_max=40, d_max=8)
            norms = [float(np.linalg.norm(fit_ridge(X, y, lam).coefficients))
                     for lam in lambdas]
            for small, large in zip(norms, norms[1:]):
                assert small >= large - 1e-12

    def test_ill_conditioned_system_takes_svd_path(self):
        # A constant column leaves only the tiny penalty on its direction of the Gram matrix.
        rng = np.random.default_rng(73)
        X = np.column_stack([rng.uniform(size=(40, 3)), np.full(40, 0.5)])
        y = 1.0 + X[:, :3] @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=40)
        m = fit_ridge(X, y, 1e-13)
        assert m.diagnostics.solver == "svd"
        assert m.diagnostics.condition_estimate > CONDITION_LIMIT
        b0, beta = ridge_oracle(X, y, 1e-13)
        assert abs(m.intercept - b0) < 1e-8
        assert np.max(np.abs(m.coefficients - beta)) < 1e-8

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambdaError):
            fit_ridge([[1.0]], [1.0], -0.5)

    def test_mean_prediction_equals_mean_target(self):
        rng = np.random.default_rng(71)
        X, y = random_instance(rng)
        m = fit_ridge(X, y, 5.0)
        assert predict_linear(m, X).mean() == pytest.approx(y.mean(), abs=1e-10)


class TestPredictLinear:
    def test_single_row(self):
        m = fit_mlr([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0])
        assert predict_linear(m, [[3.0]])[0] == pytest.approx(7.0, abs=1e-10)

    def test_zero_coefficients_give_intercept(self):
        rng = np.random.default_rng(73)
        X = rng.normal(size=(10, 3))
        y = np.full(10, 4.25)
        m = fit_ridge(X, y, 1.0)
        assert np.allclose(predict_linear(m, X), 4.25, atol=1e-10)

    def test_exact_fit_reproduces_targets(self):
        rng = np.random.default_rng(79)
        X = rng.normal(size=(12, 3))
        y = 0.5 + X @ np.array([1.0, -2.0, 0.25])
        m = fit_mlr(X, y)
        assert np.max(np.abs(predict_linear(m, X) - y)) < 1e-10

    def test_dimension_mismatch(self):
        m = fit_mlr([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0])
        with pytest.raises(DimensionMismatchError):
            predict_linear(m, [[1.0, 2.0]])
