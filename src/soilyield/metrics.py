"""Evaluation metrics and the soil-fertility nutrient index."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError


_FLOAT = np.finfo(np.float64)


def _as_pair(y_true, y_pred, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ValidationError(
            f"y_true and y_pred must be equal-length vectors, got {yt.shape} and {yp.shape}"
        )
    if yt.shape[0] < minimum:
        raise ValidationError(f"need at least {minimum} values, got {yt.shape[0]}")
    return yt, yp


def _sum_of_squares(d: np.ndarray, floor: float = _FLOAT.tiny) -> float:
    """``(d ** 2).sum()``, refused on overflow or when a nonzero ``d`` sums below ``floor``
    (default: the smallest normal float).  Call it under np.errstate, as ``d`` is made."""
    s = float((d ** 2).sum())
    if not s <= _FLOAT.max or (s < floor and d.any()):
        raise NumericalError("the sums of squares overflow or underflow float64; "
                             "rescale the values")
    return s


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination, 1 - RSS/TSS.

    May be negative for predictors worse than the mean.  A constant
    y_true makes the score undefined (TSS = 0) and raises.
    """
    yt, yp = _as_pair(y_true, y_pred, minimum=2)
    if yt.min() == yt.max():  # a rounded mean can leave a TSS just above 0
        raise NumericalError("y_true is constant, R^2 is undefined (TSS = 0)")
    with np.errstate(all="ignore"):
        tss = _sum_of_squares(yt - yt.mean())
        rss = _sum_of_squares(yt - yp, floor=0.0)  # under a normal TSS, an underflow is noise
    return 1.0 - rss / tss


def r2_if_defined(y_true, y_pred) -> float | None:
    """``r2_score``, or None where it is undefined (under two values, or a constant y_true)."""
    yt = np.asarray(y_true, dtype=np.float64)
    if yt.size < 2 or yt.min() == yt.max():
        return None
    return r2_score(yt, y_pred)


def rmse(y_true, y_pred) -> float:
    yt, yp = _as_pair(y_true, y_pred, minimum=1)
    with np.errstate(all="ignore"):
        return float(np.sqrt(_sum_of_squares(yt - yp) / len(yt)))


def mae(y_true, y_pred) -> float:
    yt, yp = _as_pair(y_true, y_pred, minimum=1)
    return float(np.abs(yt - yp).mean())


@dataclass(frozen=True)
class NutrientCounts:
    """Samples classified into low / medium / high fertility classes."""

    nl: int
    nm: int
    nh: int
    nt: int

    def __post_init__(self) -> None:
        if min(self.nl, self.nm, self.nh, self.nt) < 0:
            raise ValueError("counts must be nonnegative")
        if self.nl + self.nm + self.nh != self.nt:
            raise ValueError(
                f"class counts {self.nl}+{self.nm}+{self.nh} must sum to nt={self.nt}"
            )


def nutrient_index(c: NutrientCounts) -> float:
    """Weighted class mean (nl*1 + nm*2 + nh*3) / nt, always in [1, 3]."""
    if c.nt == 0:
        raise ValidationError("no samples analyzed (nt = 0)")
    return (c.nl + 2 * c.nm + 3 * c.nh) / c.nt


def classify_levels(values: Sequence[float], low: float, high: float) -> NutrientCounts:
    """Count values below ``low``, above ``high``, and between (inclusive)."""
    if not low <= high:
        raise ValueError(f"low threshold {low} must not exceed high threshold {high}")
    nl = sum(1 for v in values if v < low)
    nh = sum(1 for v in values if v > high)
    nt = len(values)
    return NutrientCounts(nl=nl, nm=nt - nl - nh, nh=nh, nt=nt)


def default_nutrient_thresholds() -> dict[str, dict[str, float]]:
    """Bundled low/high cutoffs per nutrient.

    These are conventional soil-testing norms shipped as editable
    defaults, not survey-calibrated values; pass explicit thresholds to
    :func:`classify_levels` for real assessments.
    """
    from importlib import resources  # no command calls this, so no command imports it

    raw = resources.files("soilyield").joinpath("data/nutrient_thresholds.json")
    payload = json.loads(raw.read_text(encoding="utf-8"))
    return {k: v for k, v in payload.items() if not k.startswith("_")}
