"""Feature scaling and correlation analysis.

Min-max parameters are fitted on training rows only and reused verbatim for
test and prediction rows, so later stages can never peek at held-out data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import ValidationError
from . import svgutil


@dataclass(frozen=True, eq=False)
class NormalizationParams:
    """Per-column training min/max, in a fixed column order."""

    columns: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.columns) == self.mins.shape[0] == self.maxs.shape[0]):
            raise ValueError("columns, mins, and maxs must have equal length")
        if np.any(self.mins > self.maxs):
            raise ValueError("per-column min must not exceed max")
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.maxs - self.mins)
        if not finite.all():  # (x - min) / (max - min) would give NaN or inf
            raise ValueError(f"column {self.columns[finite.argmin()]!r}: max - min overflows")


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    labels: tuple[str, ...]
    values: np.ndarray


def fit_minmax(d: Dataset, columns: Sequence[str]) -> NormalizationParams:
    """Per-column min and max of ``columns`` over every row of ``d`` (the training rows)."""
    if not d.n_rows:
        raise ValidationError("cannot fit normalization on an empty row selection")
    m = d.matrix(columns)
    return NormalizationParams(columns=tuple(columns), mins=m.min(axis=0), maxs=m.max(axis=0))


def _check_width(params: NormalizationParams, x: np.ndarray) -> None:
    if x.shape[-1] != len(params.columns):
        raise ValidationError(
            f"expected {len(params.columns)} columns, got {x.shape[-1]}"
        )


def apply_minmax(params: NormalizationParams, x) -> np.ndarray:
    """Map values to [0, 1] via (x - min) / (max - min).

    Constant columns map to 0.0; values outside the training range are
    clamped so the output always lies in [0, 1].  Accepts a single row
    vector or a row-major matrix.
    """
    x = np.array(x, dtype=np.float64)  # the one copy, scaled in place; the input stays as it was
    _check_width(params, x)
    spread = params.maxs - params.mins
    np.subtract(x, params.mins, out=x)
    np.clip(np.divide(x, np.where(spread > 0, spread, 1.0), out=x), 0.0, 1.0, out=x)
    x[..., spread == 0] = 0.0
    return x


def invert_minmax(params: NormalizationParams, z) -> np.ndarray:
    """Map normalized values back to original units: min + z * (max - min)."""
    z = np.asarray(z, dtype=np.float64)
    _check_width(params, z)
    return params.mins + z * (params.maxs - params.mins)


def out_of_range_count(params: NormalizationParams, x) -> int:
    """Count cells that apply_minmax would clamp."""
    x = np.asarray(x, dtype=np.float64)
    _check_width(params, x)
    return int(np.count_nonzero((x < params.mins) | (x > params.maxs)))


def pearson_correlation(d: Dataset) -> CorrelationMatrix:
    """Pearson coefficients between all pairs of columns of ``d``.

    A constant column correlates exactly 0 with every other column (the
    coefficient is undefined there) and 1 with itself.  A column whose centred
    sum of squares leaves float64's normal range is refused, as is a pair of
    varying columns whose two sums multiply out of it; each names its columns.
    """
    if d.n_rows < 2:
        raise ValidationError(f"need at least 2 rows, got {d.n_rows}")
    columns = d.column_names
    m = d.matrix(columns)
    with np.errstate(all="ignore"):  # out-of-range sums are refused below
        centered = m - m.mean(axis=0)
        sumsq = (centered * centered).sum(axis=0)
        denoms = np.outer(sumsq, sumsq)
    tiny = np.finfo(np.float64).tiny
    varies = m.min(axis=0) < m.max(axis=0)
    bad = ~np.isfinite(sumsq) | varies & (sumsq < tiny)
    if bad.any():
        raise ValidationError(f"column {columns[bad.argmax()]!r}: its sum of squares overflows "
                              "or underflows float64")
    in_range = (tiny <= denoms) & np.isfinite(denoms)
    pairs = np.argwhere(np.triu(np.outer(varies, varies) & ~in_range, 1))
    if pairs.size:
        a, b = (columns[i] for i in pairs[0])
        raise ValidationError(f"columns {a!r} and {b!r}: the product of their sums of "
                              "squares overflows or underflows float64")
    k = len(columns)
    values = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            if varies[i] and varies[j]:
                r = float((centered[:, i] * centered[:, j]).sum() / np.sqrt(denoms[i, j]))
                values[i, j] = values[j, i] = r
    return CorrelationMatrix(labels=tuple(columns), values=values)


_POSITIVE_FILL = "#c0392b"  # red: positive correlation
_NEGATIVE_FILL = "#7f8c8d"  # gray: negative correlation

_CELL = 46.0
_MARGIN_LEFT = 80.0
_MARGIN_TOP = 80.0
_PAD = 12.0


def render_heatmap(c: CorrelationMatrix, path: str | Path) -> None:
    """Write the matrix as a static SVG grid.

    Positive cells are red, negative cells gray, with opacity proportional
    to |r|; each cell prints its value to two decimals.
    """
    k = len(c.labels)
    width = _MARGIN_LEFT + k * _CELL + _PAD
    height = _MARGIN_TOP + k * _CELL + _PAD
    body = [svgutil.rect(0, 0, width, height, "#ffffff")]
    for j, label in enumerate(c.labels):
        x = _MARGIN_LEFT + (j + 0.5) * _CELL
        body.append(svgutil.text(
            x, _MARGIN_TOP - 8, label, anchor="start",
            transform=f"rotate(-50 {svgutil.num(x)} {svgutil.num(_MARGIN_TOP - 8)})",
        ))
        y = _MARGIN_TOP + (j + 0.5) * _CELL + 4
        body.append(svgutil.text(_MARGIN_LEFT - 8, y, label, anchor="end"))
    for i in range(k):
        for j in range(k):
            r = float(c.values[i, j])
            x = _MARGIN_LEFT + j * _CELL
            y = _MARGIN_TOP + i * _CELL
            fill = _POSITIVE_FILL if r >= 0 else _NEGATIVE_FILL
            body.append(svgutil.rect(
                x, y, _CELL, _CELL, fill,
                opacity=min(abs(r), 1.0), stroke="#dddddd",
            ))
            body.append(svgutil.text(
                x + _CELL / 2, y + _CELL / 2 + 4, f"{r:.2f}", size=10,
            ))
    Path(path).write_text(svgutil.document(width, height, body), encoding="utf-8")
