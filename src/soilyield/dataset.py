"""Tabular soil data: canonical columns, CSV ingestion, cleaning, and splitting.

A :class:`Dataset` is a named float64 matrix, with NaN for a missing or
unparseable cell; a soil dataset holds its features, then its target.  All
downstream stages consume datasets produced here, so row order and cell
values are preserved exactly as parsed.
"""

from __future__ import annotations

import csv
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ValidationError

# Canonical soil-test columns.  The twelve required nutrients mirror the
# standard sample sheet; N and B appear on some sheets only, so they are
# optional.  The target column is the observed leaf yield.
CANONICAL_FEATURES: tuple[str, ...] = (
    "pH", "EC", "OC", "P", "K", "Ca", "Mg", "S", "Zn", "Fe", "Mn", "Cu",
)
OPTIONAL_FEATURES: tuple[str, ...] = ("N", "B")
TARGET_COLUMN = "yield"

# Canonical on-disk feature order; the target column follows the features.
_FEATURE_ORDER: tuple[str, ...] = (
    "pH", "EC", "OC", "N", "P", "K", "Ca", "Mg", "S", "Zn", "Fe", "Mn", "Cu", "B",
)
_WRITE_BLOCK = 1024  # CSV rows formatted per step


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named float64 matrix: ``values`` is ``(n_rows, len(column_names))``, NaN
    where a cell is missing.  ``rows_read`` counts the rows parsed from the
    source and ``rows_dropped`` those that cleaning removed since."""

    column_names: tuple[str, ...]
    values: np.ndarray
    rows_read: int
    rows_dropped: int = 0

    def __post_init__(self) -> None:
        names = self.column_names
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if self.values.ndim != 2 or self.values.shape[1] != len(names):
            raise ValueError(
                f"values must have shape (n_rows, {len(names)}), got {self.values.shape}"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def rows(self) -> list[list[float]]:
        """The cells as Python floats, row by row."""
        return self.values.tolist()

    def matrix(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """The named columns (default: all of them) as a new C-ordered matrix.

        Holds NaN for missing cells until the dataset is cleaned.
        """
        if columns is None:
            columns = self.column_names
        position = {name: i for i, name in enumerate(self.column_names)}
        return self.values.take([position[c] for c in columns], axis=1)


def soil_schema(header: Sequence[str], target: str | None = TARGET_COLUMN) -> tuple[str, ...]:
    """The columns to read from a soil CSV with this header: the features in
    canonical order, then ``target``.

    The twelve required nutrient columns must all be present; N and B are
    included when the header has them.  ``target`` names the yield column
    and may be ``None`` for prediction files (then a ``yield`` column in
    the header is simply left out).
    """
    missing = [c for c in CANONICAL_FEATURES if c not in header]
    if missing:
        raise ValidationError(f"header is missing required columns: {', '.join(missing)}")
    if target is not None and target not in header:
        raise ValidationError(f"header is missing the target column {target!r}")
    features = tuple(c for c in _FEATURE_ORDER if c in CANONICAL_FEATURES or c in header)
    return features + (() if target is None else (target,))


def load_csv(
    path: str | Path,
    schema: Sequence[str] | Callable[[list[str]], Sequence[str]],
) -> Dataset:
    """Parse a UTF-8 comma-delimited file into a :class:`Dataset`.

    ``schema`` is the list of column names to read, or a function that builds
    it from the header.  A leading byte-order mark, blank lines and data lines
    whose first cell starts with ``#`` (such as a ``predictions.csv`` footer)
    are skipped.  Each named column must appear in the header exactly once.
    Empty or unparseable cells become NaN and the row is kept until cleaning.
    Row order is preserved.
    """
    path = Path(path)
    with reading_text(path), path.open("r", encoding="utf-8-sig", newline="") as fh:
        records = _records(fh, path)
        first = next(records, None)
        if first is None:
            raise ValidationError(f"{path}: file is empty")
        header = [h.strip() for h in first]
        if callable(schema):
            schema = schema(header)
        absent = [c for c in schema if c not in header]
        if absent:
            raise ValidationError(f"{path}: columns not found in header: {', '.join(absent)}")
        repeated = [c for c in schema if header.count(c) > 1]
        if repeated:
            raise ValidationError(
                f"{path}: columns named more than once in header: {', '.join(repeated)}"
            )
        positions = [header.index(c) for c in schema]
        cells = array("d")  # row after row, so no list is held per row
        append = cells.append
        n_rows = 0
        for raw in records:
            if raw[0].startswith("#"):
                continue
            n_rows += 1
            for pos in positions:
                try:
                    append(float(raw[pos]))
                except (IndexError, ValueError):
                    append(math.nan)
    if not n_rows:
        raise ValidationError(f"{path}: no data rows")
    values = np.frombuffer(cells, dtype=np.float64).reshape(n_rows, len(positions))
    return Dataset(tuple(schema), values, rows_read=n_rows)


@contextmanager
def reading_text(path: Path) -> Iterator[None]:
    """Wrap a block that reads the text file ``path``: FileNotFoundError if it is
    absent, and a ValidationError naming it if the block meets bytes that are not
    UTF-8."""
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        yield
    except UnicodeDecodeError as exc:  # a file decodes as it is read
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None


def _records(fh, path: Path) -> Iterator[list[str]]:
    """The non-blank records of an open CSV file."""
    try:
        yield from (raw for raw in csv.reader(fh) if raw)
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_csv(d: Dataset, path: str | Path) -> None:
    """Write the dataset back to CSV with shortest round-trip numbers."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        write_csv(fh, d.column_names, d.values)


def write_csv(fh: TextIO, header: Sequence[str], *columns: np.ndarray) -> None:
    """Write ``header`` and the rows of ``columns`` side by side (2-D blocks of columns
    or 1-D single columns) to an open text file, in the bytes ``csv.writer`` would write.

    ``csv.writer`` formats a float with ``repr``.  Rows go out ``_WRITE_BLOCK`` at a
    time, so no list is held per row of the whole table.
    """
    csv.writer(fh, lineterminator="\n").writerow(header)
    for i in range(0, len(columns[0]), _WRITE_BLOCK):
        block = np.column_stack([c[i:i + _WRITE_BLOCK] for c in columns])
        fh.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())


def drop_incomplete_rows(d: Dataset) -> Dataset:
    """Keep only rows whose cells are all present and finite."""
    kept = d.values[np.isfinite(d.values).all(axis=1)]
    if kept.shape[0] == 0:
        raise ValidationError(f"all {d.n_rows} rows had missing or non-finite cells")
    return replace(d, values=kept, rows_dropped=d.rows_dropped + d.n_rows - kept.shape[0])


def train_test_split(d: Dataset, test_ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniformly random partition of the row indices, as sorted ``(train, test)`` arrays.

    The same (dataset size, ratio, seed) triple yields identical indices on
    every platform; the generator is numpy's PCG64.  The test size is
    ``round(test_ratio * n_rows)`` clamped so both sides stay non-empty.
    """
    if not (isinstance(test_ratio, float) and 0.0 < test_ratio < 1.0):
        raise ValidationError(f"test_ratio must lie in (0, 1), got {test_ratio!r}")
    n = d.n_rows
    if n < 2:
        raise ValidationError(f"need at least 2 rows to split, got {n}")
    n_test = int(round(test_ratio * n))
    n_test = max(1, min(n_test, n - 1))
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])
