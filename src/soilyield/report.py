"""Model comparison artifacts: metrics table, ranking, and bar chart."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import _records, reading_text
from .errors import SchemaViolationError
from .metrics import mae, r2_score, rmse
from . import svgutil


_HEADER = ["model", "r2", "rmse", "mae", "n_test"]
# mae <= rmse for any errors; computed, the two can differ in the last bits.
_MAE_RTOL = 1e-9


@dataclass(frozen=True)
class ModelScore:
    model_name: str
    r2: float
    rmse: float
    mae: float
    n_test: int


@dataclass(frozen=True)
class EvaluationReport:
    entries: tuple[ModelScore, ...]  # by descending R², ties by name


def score_predictions(model_name: str, y_true, y_pred) -> ModelScore:
    """Score one model on held-out data."""
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    return ModelScore(model_name, r2_score(yt, yp), rmse(yt, yp), mae(yt, yp), int(yt.shape[0]))


def build_report(entries: Sequence[ModelScore]) -> EvaluationReport:
    """Rank models by descending R^2; ties break alphabetically."""
    if not entries:
        raise ValueError("need at least one model entry")
    return EvaluationReport(tuple(sorted(entries, key=lambda e: (-e.r2, e.model_name))))


def write_comparison_csv(report: EvaluationReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for e in report.entries:
            writer.writerow([e.model_name, repr(e.r2), repr(e.rmse), repr(e.mae), e.n_test])


def read_comparison_csv(path: str | Path) -> EvaluationReport:
    """Load a previously written comparison table (for re-rendering).

    The file is read as ``load_csv`` reads one: UTF-8 with an optional
    byte-order mark, blank lines skipped, a malformed or non-UTF-8 file
    refused with its name.  Each model appears once, with an R² that is
    finite and at most 1, finite non-negative errors with ``mae`` at most
    ``rmse``, and an ``n_test`` of at least 2, the fewest rows R² scores.
    """
    path = Path(path)
    entries: dict[str, ModelScore] = {}
    with reading_text(path), path.open("r", encoding="utf-8-sig", newline="") as fh:
        records = _records(fh, path)
        header = next(records, None)
        if header is None or [h.strip() for h in header[:5]] != _HEADER:
            raise SchemaViolationError(f"{path}: expected header {','.join(_HEADER)}")
        for i, row in enumerate(records, start=1):
            if len(row) < 5:
                raise SchemaViolationError(f"{path}: row {i} has {len(row)} cells")
            try:
                e = ModelScore(model_name=row[0], r2=float(row[1]), rmse=float(row[2]),
                               mae=float(row[3]), n_test=int(row[4]))
            except ValueError as exc:
                raise SchemaViolationError(f"{path}: row {i}: {exc}") from None
            if not (-math.inf < e.r2 <= 1 and 0 <= e.rmse < math.inf and 0 <= e.mae < math.inf):
                raise SchemaViolationError(
                    f"{path}: row {i}: scores must be finite with r2 <= 1 and rmse, mae >= 0, "
                    f"got r2={e.r2!r} rmse={e.rmse!r} mae={e.mae!r}"
                )
            if e.mae > e.rmse * (1 + _MAE_RTOL):
                raise SchemaViolationError(
                    f"{path}: row {i}: mae {e.mae!r} exceeds rmse {e.rmse!r}")
            if e.n_test < 2:
                raise SchemaViolationError(f"{path}: row {i}: n_test {e.n_test} is under 2")
            if e.model_name in entries:
                raise SchemaViolationError(f"{path}: row {i}: model {e.model_name!r} listed twice")
            entries[e.model_name] = e
    if not entries:
        raise SchemaViolationError(f"{path}: no model rows")
    return build_report(list(entries.values()))


def format_comparison_table(report: EvaluationReport) -> str:
    """Fixed-width text table, ranking order."""
    lines = [f"{'model':<10} {'r2':>10} {'rmse':>10} {'mae':>10} {'n_test':>7}"]
    for e in report.entries:
        lines.append(
            f"{e.model_name:<10} {e.r2:>10.4f} {e.rmse:>10.4f} {e.mae:>10.4f} {e.n_test:>7d}"
        )
    return "\n".join(lines) + "\n"


_BAR_FILL = "#2e6da4"
_BAR_W = 80.0
_GAP = 40.0
_CHART_H = 220.0
_MARGIN = 50.0


def render_comparison_svg(report: EvaluationReport, path: str | Path) -> None:
    """Bar chart of R^2 per model, sorted descending, labeled to 2 decimals.

    Negative scores draw downward from the zero baseline.
    """
    k = len(report.entries)
    width = 2 * _MARGIN + k * _BAR_W + (k - 1) * _GAP
    top = max([1.0] + [e.r2 for e in report.entries])
    bottom = min([0.0] + [e.r2 for e in report.entries])
    scale = _CHART_H / (top - bottom)
    base_y = _MARGIN + 20 + (top - 0.0) * scale
    height = base_y + abs(bottom) * scale + 60

    body = [svgutil.rect(0, 0, width, height, "#ffffff")]
    body.append(svgutil.text(width / 2, 24, "Model accuracy comparison (R^2)", size=14))
    body.append(svgutil.line(_MARGIN / 2, base_y, width - _MARGIN / 2, base_y))
    for i, e in enumerate(report.entries):
        x = _MARGIN + i * (_BAR_W + _GAP)
        h = abs(e.r2) * scale
        y = base_y - h if e.r2 >= 0 else base_y
        body.append(svgutil.rect(x, y, _BAR_W, h, _BAR_FILL))
        label_y = y - 6 if e.r2 >= 0 else y + h + 14
        body.append(svgutil.text(x + _BAR_W / 2, label_y, f"{e.r2:.2f}", size=12))
        body.append(svgutil.text(x + _BAR_W / 2, base_y + abs(bottom) * scale + 30,
                                 e.model_name, size=12))
    Path(path).write_text(svgutil.document(width, height, body), encoding="utf-8")
