"""Multiple linear regression and ridge regression via exact solves.

Both fits run on the centered system: with column means removed, the
coefficients solve (Xc'Xc + lambda*I) beta = Xc'yc and the intercept is
recovered as mean(y) - beta . mean(X), which leaves the intercept
unpenalized.  The Gram matrix is factorized with Cholesky; when its
condition estimate exceeds 1e12 (or the factorization fails) the solver
falls back to a rank-revealing SVD least-squares solve and says so in the
fit diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import r2_if_defined

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FitDiagnostics:
    condition_estimate: float
    training_r2: float | None
    solver: str  # "cholesky" | "svd"


@dataclass(frozen=True, eq=False)
class LinearModel:
    intercept: float
    coefficients: np.ndarray
    feature_names: tuple[str, ...]
    regularization_lambda: float
    diagnostics: FitDiagnostics

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.feature_names):
            raise ValueError(f"{len(self.coefficients)} coefficients for "
                             f"{len(self.feature_names)} feature names")
        if self.regularization_lambda < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.regularization_lambda}")


def _as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValidationError(
            f"y must be a length-{X.shape[0]} vector, got shape {y.shape}"
        )
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    return X, y


def _check_rows(X: np.ndarray, d: int) -> None:
    if X.ndim != 2 or X.shape[1] != d:
        raise ValidationError(f"expected shape (n, {d}), got {X.shape}")


def _names(feature_names: Sequence[str] | None, d: int) -> tuple[str, ...]:
    if feature_names is None:
        return tuple(f"x{i}" for i in range(d))
    names = tuple(feature_names)
    if len(names) != d:
        raise ValidationError(f"expected {d} feature names, got {len(names)}")
    return names


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ell = np.linalg.cholesky(a)
    d = b.shape[0]
    z = np.empty(d)
    for i in range(d):
        z[i] = (b[i] - ell[i, :i] @ z[:i]) / ell[i, i]
    beta = np.empty(d)
    for i in range(d - 1, -1, -1):
        beta[i] = (z[i] - ell[i + 1:, i] @ beta[i + 1:]) / ell[i, i]
    return beta


def _solve_centered(X: np.ndarray, y: np.ndarray, lam: float,
                    feature_names: Sequence[str] | None) -> LinearModel:
    """The model fitted on the centered system with penalty ``lam``."""
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    xc = X - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(X.shape[1])
    rhs = xc.T @ yc
    cond = float(np.linalg.cond(gram))
    solver = "cholesky"
    beta = None
    if math.isfinite(cond) and cond <= CONDITION_LIMIT:
        try:
            beta = _cholesky_solve(gram, rhs)
        except np.linalg.LinAlgError:
            beta = None
    if beta is None:
        solver = "svd"
        if lam > 0:
            # Ridge as an augmented least-squares problem keeps the
            # penalty exact under the rank-revealing solve.
            aug = np.vstack([xc, math.sqrt(lam) * np.eye(X.shape[1])])
            target = np.concatenate([yc, np.zeros(X.shape[1])])
        else:
            aug, target = xc, yc
        beta, _, rank, _ = np.linalg.lstsq(aug, target, rcond=None)
        if rank == 0:
            raise NumericalError(
                "design matrix has no usable directions (all features constant)"
            )
    intercept = y_mean - float(beta @ x_mean)
    return LinearModel(
        intercept=intercept,
        coefficients=beta,
        feature_names=_names(feature_names, X.shape[1]),
        regularization_lambda=lam,
        diagnostics=FitDiagnostics(cond, r2_if_defined(y, intercept + X @ beta), solver),
    )


def fit_mlr(X, y, feature_names: Sequence[str] | None = None) -> LinearModel:
    """Least-squares fit of y on X with an intercept."""
    X, y = _as_xy(X, y)
    n, d = X.shape
    if n <= d:
        raise NumericalError(f"need more rows than features: n={n}, d={d}")
    return _solve_centered(X, y, 0.0, feature_names)


def fit_ridge(X, y, lam: float, feature_names: Sequence[str] | None = None) -> LinearModel:
    """L2-penalized least squares; the intercept is not penalized."""
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)) or lam < 0:
        raise ValidationError(f"lambda must be a nonnegative real, got {lam!r}")
    X, y = _as_xy(X, y)
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValidationError(f"need at least one row and one feature, got {X.shape}")
    return _solve_centered(X, y, float(lam), feature_names)


def predict_linear(m: LinearModel, X) -> np.ndarray:
    """Row-wise intercept + X . coefficients."""
    X = np.asarray(X, dtype=np.float64)
    _check_rows(X, len(m.coefficients))
    return m.intercept + X @ m.coefficients
