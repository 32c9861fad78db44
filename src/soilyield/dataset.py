"""Tabular soil data: canonical schema, CSV ingestion, cleaning, and splitting.

A :class:`Dataset` is an immutable column-ordered table.  Cells are floats
(possibly non-finite) or ``None`` for missing.
All downstream stages consume datasets produced here, so row order and cell
values are preserved exactly as parsed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    AllRowsDroppedError,
    EmptyInputError,
    HeaderMismatchError,
    InvalidRatioError,
    TooFewRowsError,
)

Cell = float | None

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


@dataclass(frozen=True)
class SoilSample:
    """One soil measurement row, optionally labelled with a leaf yield.

    ``n`` and ``b`` are optional because not every sample sheet reports
    them; ``yield_label`` is absent on prediction inputs.
    """

    ph: float
    ec: float
    oc: float
    p: float
    k: float
    ca: float
    mg: float
    s: float
    zn: float
    fe: float
    mn: float
    cu: float
    n: float | None = None
    b: float | None = None
    yield_label: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.ph <= 14.0:
            raise ValueError(f"pH {self.ph} outside [0, 14]")
        for name in ("ec", "oc", "p", "k", "ca", "mg", "s", "zn", "fe",
                     "mn", "cu", "n", "b", "yield_label"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value < 0):
                raise ValueError(f"{name} must be a nonnegative finite value, got {value}")


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


@dataclass(frozen=True)
class Dataset:
    schema: tuple[ColumnSchema, ...]
    rows: tuple[tuple, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        targets = [c for c in self.schema if c.role == "target"]
        if len(targets) > 1:
            raise ValueError("at most one target column allowed")
        width = len(self.schema)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

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

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.schema):
            if c.name == name:
                return i
        raise KeyError(name)

    def matrix(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """Extract the named columns as a float matrix.

        Only valid once every requested cell is present, i.e. after
        cleaning.
        """
        if columns is None:
            columns = self.feature_names
            if self.target_name is not None:
                columns = columns + (self.target_name,)
        idx = [self.column_index(c) for c in columns]
        out = np.empty((self.n_rows, len(idx)), dtype=np.float64)
        for j, ci in enumerate(idx):
            for i, row in enumerate(self.rows):
                cell = row[ci]
                if not isinstance(cell, float):
                    raise ValueError(
                        f"column {columns[j]!r} row {i} is not numeric: {cell!r}"
                    )
                out[i, j] = cell
        return out

    def is_complete_row(self, i: int) -> bool:
        for cell in self.rows[i]:
            if cell is None or not math.isfinite(cell):
                return False
        return True


@dataclass(frozen=True)
class SplitIndices:
    """A seeded train/test partition of row indices."""

    train: tuple[int, ...]
    test: tuple[int, ...]
    seed: int
    test_ratio: float


def soil_schema(header: Sequence[str], target: str | None = TARGET_COLUMN) -> tuple[ColumnSchema, ...]:
    """Build the canonical soil schema for a CSV header.

    The twelve required nutrient columns must all be present; N and B are
    included when the header has them.  ``target`` names the yield column
    and may be ``None`` for prediction files (then a ``yield`` column in
    the header is simply left out of the schema).
    """
    missing = [c for c in CANONICAL_FEATURES if c not in header]
    if missing:
        raise HeaderMismatchError(f"header is missing required columns: {', '.join(missing)}")
    if target is not None and target not in header:
        raise HeaderMismatchError(f"header is missing the target column {target!r}")

    columns = []
    order = _CANONICAL_ORDER if target in (None, TARGET_COLUMN) else _CANONICAL_ORDER + (target,)
    for name in order:
        if name == target:
            columns.append(ColumnSchema(name, "target"))
        elif name in CANONICAL_FEATURES or (name in OPTIONAL_FEATURES and name in header):
            columns.append(ColumnSchema(name))
    return tuple(columns)


def load_csv(path: str | Path, schema: Sequence[ColumnSchema]) -> Dataset:
    """Parse a UTF-8 comma-delimited file into a :class:`Dataset`.

    A leading byte-order mark is skipped.  Each schema column must appear
    in the header exactly once.  Empty or unparseable cells become missing
    (``None``) and the row is kept until cleaning.  Row order is preserved.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        absent = [c.name for c in schema if c.name not in header]
        if absent:
            raise HeaderMismatchError(
                f"{path}: columns not found in header: {', '.join(absent)}"
            )
        repeated = [c.name for c in schema if header.count(c.name) > 1]
        if repeated:
            raise HeaderMismatchError(
                f"{path}: columns named more than once in header: {', '.join(repeated)}"
            )
        positions = [header.index(c.name) for c in schema]
        rows = []
        for raw in reader:
            cells = []
            for pos in positions:
                token = raw[pos].strip() if pos < len(raw) else ""
                cells.append(_parse_cell(token))
            rows.append(tuple(cells))
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    return Dataset(
        schema=tuple(schema),
        rows=tuple(rows),
        provenance=Provenance(source=str(path), rows_read=len(rows)),
    )


def _parse_cell(token: str) -> Cell:
    if token == "":
        return None
    try:
        return float(token)
    except ValueError:
        return None


def save_csv(d: Dataset, path: str | Path) -> None:
    """Write the dataset back to CSV with shortest round-trip numbers."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(d.column_names)
        for row in d.rows:
            writer.writerow([_format_cell(cell) for cell in row])


def _format_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    return repr(cell)


def drop_incomplete_rows(d: Dataset) -> Dataset:
    """Keep only rows whose feature/target cells are all present and finite."""
    kept = tuple(row for i, row in enumerate(d.rows) if d.is_complete_row(i))
    dropped = d.n_rows - len(kept)
    if not kept:
        raise AllRowsDroppedError(
            f"all {d.n_rows} rows had missing or non-finite cells"
        )
    provenance = replace(d.provenance, rows_dropped=d.provenance.rows_dropped + dropped)
    return Dataset(schema=d.schema, rows=kept, provenance=provenance)


def train_test_split(d: Dataset, test_ratio: float, seed: int) -> SplitIndices:
    """Seeded uniformly random partition of the row indices.

    The same (dataset size, ratio, seed) triple yields identical indices on
    every platform; the generator is numpy's PCG64.  The test size is
    ``round(test_ratio * n_rows)`` clamped so both sides stay non-empty.
    """
    if not (isinstance(test_ratio, float) and 0.0 < test_ratio < 1.0):
        raise InvalidRatioError(f"test_ratio must lie in (0, 1), got {test_ratio!r}")
    n = d.n_rows
    if n < 2:
        raise TooFewRowsError(f"need at least 2 rows to split, got {n}")
    n_test = int(round(test_ratio * n))
    n_test = max(1, min(n_test, n - 1))
    perm = np.random.default_rng(seed).permutation(n)
    test = tuple(sorted(int(i) for i in perm[:n_test]))
    train = tuple(sorted(int(i) for i in perm[n_test:]))
    return SplitIndices(train=train, test=test, seed=seed, test_ratio=test_ratio)


_FIELD_BY_COLUMN = {
    "pH": "ph", "EC": "ec", "OC": "oc", "N": "n", "P": "p", "K": "k",
    "Ca": "ca", "Mg": "mg", "S": "s", "Zn": "zn", "Fe": "fe", "Mn": "mn",
    "Cu": "cu", "B": "b", TARGET_COLUMN: "yield_label",
}


def to_soil_samples(d: Dataset) -> list[SoilSample]:
    """Convert complete rows of a canonical-schema dataset to samples."""
    for required in CANONICAL_FEATURES:
        if required not in d.column_names:
            raise HeaderMismatchError(f"dataset lacks canonical column {required!r}")
    samples = []
    for i, row in enumerate(d.rows):
        if not d.is_complete_row(i):
            continue
        kwargs = {}
        for col, cell in zip(d.schema, row):
            field = _FIELD_BY_COLUMN.get(col.name)
            if field is not None:
                kwargs[field] = cell
        samples.append(SoilSample(**kwargs))
    return samples
