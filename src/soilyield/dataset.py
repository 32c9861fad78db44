"""Tabular soil data: canonical schema, CSV ingestion, cleaning, and splitting.

A :class:`Dataset` is a column-ordered table held as one float64 matrix,
with NaN for a missing or unparseable cell.  All downstream stages consume
datasets produced here, so row order and cell values are preserved exactly
as parsed.
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

# Canonical on-disk column order: pH,EC,OC,N,P,K,Ca,Mg,S,Zn,Fe,Mn,Cu,B,yield
_CANONICAL_ORDER: tuple[str, ...] = (
    "pH", "EC", "OC", "N", "P", "K", "Ca", "Mg", "S", "Zn", "Fe", "Mn",
    "Cu", "B", TARGET_COLUMN,
)
_WRITE_BLOCK = 1024  # CSV rows formatted per step


@dataclass(frozen=True)
class ColumnSchema:
    """Declares how one numeric column is used."""

    name: str
    role: str = "feature"  # feature | target

    def __post_init__(self) -> None:
        if self.role not in ("feature", "target"):
            raise ValueError(f"unknown column role {self.role!r}")


@dataclass(frozen=True)
class Provenance:
    """Where the rows came from and how many were discarded on the way."""

    source: str
    rows_read: int
    rows_dropped: int = 0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of cells under ``schema``: ``values`` is ``(n_rows, len(schema))``
    float64, NaN where a cell is missing."""

    schema: tuple[ColumnSchema, ...]
    values: np.ndarray
    provenance: Provenance

    def __post_init__(self) -> None:
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        targets = [c for c in self.schema if c.role == "target"]
        if len(targets) > 1:
            raise ValueError("at most one target column allowed")
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

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema if c.role == "feature")

    @property
    def target_name(self) -> str | None:
        for c in self.schema:
            if c.role == "target":
                return c.name
        return None

    @property
    def model_columns(self) -> tuple[str, ...]:
        """The features, then the target if any."""
        target = self.target_name
        return self.feature_names + (() if target is None else (target,))

    def matrix(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """The named columns (default: ``model_columns``) as a new C-ordered matrix.

        Holds NaN for missing cells until the dataset is cleaned.
        """
        if columns is None:
            columns = self.model_columns
        position = {c.name: i for i, c in enumerate(self.schema)}
        return self.values.take([position[c] for c in columns], axis=1)


@dataclass(frozen=True)
class SplitIndices:
    """A seeded train/test partition of row indices."""

    train: tuple[int, ...]
    test: tuple[int, ...]


def soil_schema(header: Sequence[str], target: str | None = TARGET_COLUMN) -> tuple[ColumnSchema, ...]:
    """Build the canonical soil schema for a CSV header.

    The twelve required nutrient columns must all be present; N and B are
    included when the header has them.  ``target`` names the yield column
    and may be ``None`` for prediction files (then a ``yield`` column in
    the header is simply left out of the schema).
    """
    missing = [c for c in CANONICAL_FEATURES if c not in header]
    if missing:
        raise ValidationError(f"header is missing required columns: {', '.join(missing)}")
    if target is not None and target not in header:
        raise ValidationError(f"header is missing the target column {target!r}")

    columns = []
    order = _CANONICAL_ORDER if target in (None, TARGET_COLUMN) else _CANONICAL_ORDER + (target,)
    for name in order:
        if name == target:
            columns.append(ColumnSchema(name, "target"))
        elif name in CANONICAL_FEATURES or (name in OPTIONAL_FEATURES and name in header):
            columns.append(ColumnSchema(name))
    return tuple(columns)


def load_csv(
    path: str | Path,
    schema: Sequence[ColumnSchema] | Callable[[list[str]], Sequence[ColumnSchema]],
) -> Dataset:
    """Parse a UTF-8 comma-delimited file into a :class:`Dataset`.

    ``schema`` is the column list, or a function that builds it from the
    header.  A leading byte-order mark, blank lines and data lines whose first
    cell starts with ``#`` (such as a ``predictions.csv`` footer) are skipped.
    Each schema column must appear in the header exactly once.  Empty or
    unparseable cells become NaN and the row is kept until cleaning.  Row
    order is preserved.
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
        absent = [c.name for c in schema if c.name not in header]
        if absent:
            raise ValidationError(f"{path}: columns not found in header: {', '.join(absent)}")
        repeated = [c.name for c in schema if header.count(c.name) > 1]
        if repeated:
            raise ValidationError(
                f"{path}: columns named more than once in header: {', '.join(repeated)}"
            )
        positions = [header.index(c.name) for c in schema]
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
    return Dataset(tuple(schema), values, Provenance(str(path), rows_read=n_rows))


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
    """Keep only rows whose feature/target cells are all present and finite."""
    kept = d.values[np.isfinite(d.values).all(axis=1)]
    dropped = d.n_rows - kept.shape[0]
    if kept.shape[0] == 0:
        raise ValidationError(f"all {d.n_rows} rows had missing or non-finite cells")
    provenance = replace(d.provenance, rows_dropped=d.provenance.rows_dropped + dropped)
    return Dataset(schema=d.schema, values=kept, provenance=provenance)


def train_test_split(d: Dataset, test_ratio: float, seed: int) -> SplitIndices:
    """Seeded uniformly random partition of the row indices.

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
    test = tuple(sorted(int(i) for i in perm[:n_test]))
    train = tuple(sorted(int(i) for i in perm[n_test:]))
    return SplitIndices(train=train, test=test)
