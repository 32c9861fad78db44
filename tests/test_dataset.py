import csv
import io
import math
import re
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilyield import dataset
from soilyield.dataset import (
    _WRITE_BLOCK,
    CANONICAL_FEATURES,
    Dataset,
    drop_incomplete_rows,
    load_csv,
    save_csv,
    soil_schema,
    train_test_split,
    _records,
)
from soilyield.errors import ValidationError
from soilyield.synth import generate

CANONICAL_HEADER = CANONICAL_FEATURES + ("yield",)


def bundled_sample_path():
    return resources.files("soilyield").joinpath("data/sample_soil.csv")


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def small_dataset(cells):
    """A dataset of the given rows; ``None`` is a missing cell."""
    names = tuple(f"c{i}" for i in range(len(cells[0])))
    values = np.array([[math.nan if c is None else c for c in r] for r in cells])
    return Dataset(names, values, rows_read=len(cells))


class TestLoadCsv:
    def test_bundled_sample_parses_to_two_complete_samples(self):
        d = load_csv(bundled_sample_path(), soil_schema(CANONICAL_HEADER))
        assert d.column_names == CANONICAL_HEADER
        assert d.n_rows == 2 and np.isfinite(d.values).all()
        assert d.rows[0] == [5.3, 0.16, 0.75, 13.0, 52.0, 2.8, 1.3,
                             19.82, 2.48, 13.75, 38.07, 1.005, 50.36]
        assert d.rows[1][-1] == 48.62

        # Layout contracts: matrices are C-ordered (the linear solvers' bytes
        # depend on it) and cells are Python floats whose repr round-trips
        # (CSV writers print them with repr).
        for columns in (None, ("yield", "pH"), ("Cu",)):
            assert d.matrix(columns).flags.c_contiguous
        for row in d.rows:
            for cell in row:
                assert type(cell) is float and float(repr(cell)) == cell

    def test_header_only_file_is_empty_input(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", ",".join(CANONICAL_HEADER) + "\n")
        with pytest.raises(ValidationError, match="empty.csv: no data rows"):
            load_csv(path, soil_schema(CANONICAL_HEADER))

    def test_unparseable_numeric_cell_becomes_missing(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,b\n1.5,abc\n2.0,3.0\n")
        schema = ("a", "b")
        d = load_csv(path, schema)
        assert d.n_rows == 2  # row retained until cleaning
        assert d.rows[0][0] == 1.5 and math.isnan(d.rows[0][1])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", "\na,b\n\n1,2\n\n3,4\n\n")
        d = load_csv(path, ("a", "b"))
        assert d.rows == [[1.0, 2.0], [3.0, 4.0]]
        assert d.rows_read == 2

    def test_schema_may_be_built_from_the_header(self, tmp_path):
        path = write_csv(tmp_path / "built.csv", "b, a ,junk\n1,2,3\n")
        headers = []
        d = load_csv(path, lambda header: headers.append(header) or ("a",))
        assert headers == [["b", "a", "junk"]]
        assert d.rows == [[2.0]]

    def test_malformed_record_is_validation_error(self, tmp_path):
        path = write_csv(tmp_path / "long.csv", "a\n" + "1" * 200_000 + "\n")
        with pytest.raises(ValidationError, match="field limit"):
            load_csv(path, ("a",))

    def test_missing_schema_column_is_header_mismatch(self, tmp_path):
        path = write_csv(tmp_path / "cols.csv", "a,b\n1,2\n")
        with pytest.raises(ValidationError, match="cols.csv: columns not found in header: zz$"):
            load_csv(path, ("a", "zz"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", ("a",))

    def test_extra_header_columns_are_ignored(self, tmp_path):
        path = write_csv(tmp_path / "extra.csv", "a,junk,b\n1,zzz,2\n")
        d = load_csv(path, ("a", "b"))
        assert d.rows == [[1.0, 2.0]]

    def test_roundtrip_after_cleaning_is_cell_identical(self, tmp_path):
        path = write_csv(
            tmp_path / "rt.csv",
            "a,b\n1.5,2.25\n0.1,1e-3\n,4.0\n13.0,50.36\n",
        )
        schema = ("a", "b")
        cleaned = drop_incomplete_rows(load_csv(path, schema))
        out = tmp_path / "rt_out.csv"
        save_csv(cleaned, out)
        reloaded = load_csv(out, schema)
        assert reloaded.rows == cleaned.rows


def load_csv_by_rows(path, schema):
    """``load_csv`` as it was with a list per row: the reference for the flat reader."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        records = _records(fh, path)
        first = next(records, None)
        if first is None:
            raise ValidationError(f"{path}: file is empty")
        header = [h.strip() for h in first]
        if callable(schema):
            schema = schema(header)
        absent = [c for c in schema if c not in header]
        if absent:
            raise ValidationError(
                f"{path}: columns not found in header: {', '.join(absent)}")
        repeated = [c for c in schema if header.count(c) > 1]
        if repeated:
            raise ValidationError(
                f"{path}: columns named more than once in header: {', '.join(repeated)}")
        positions = [header.index(c) for c in schema]
        rows = []
        for raw in records:
            if raw[0].startswith("#"):
                continue
            cells = []
            for pos in positions:
                try:
                    cells.append(float(raw[pos]))
                except (IndexError, ValueError):
                    cells.append(math.nan)
            rows.append(cells)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return Dataset(tuple(schema), np.array(rows, dtype=np.float64), rows_read=len(rows))


CSV_CELLS = (st.sampled_from(["", " ", "abc", "nan", "-nan", "-inf", "1e400", '"1,5"', '"4"',
                              '" 7 "', "1_0", "#3", "-0.0", "5e-324"])
             | st.floats(allow_nan=False).map(repr) | st.integers(-9, 99).map(str))


@st.composite
def csv_texts(draw):
    """A CSV text with ragged rows, comment and blank lines, a BOM, quoted commas and cells
    that do not parse, under a header that may lack, repeat or add columns."""
    header = draw(st.permutations(["a", "b", "c"]))
    header = header[:draw(st.integers(1, 3))] + draw(st.lists(
        st.sampled_from(["a", " b ", "junk", '"c,d"', ""]), max_size=2))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind == "row":
            lines.append(",".join(draw(st.lists(CSV_CELLS, max_size=5))))
        else:
            lines.append("# a comment, with commas" if kind == "comment" else "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + newline


def dataset_outcome(load, path, schema):
    """What ``load`` returns, as comparable values, or the type and message it raises."""
    try:
        d = load(path, schema)
    except Exception as exc:
        return type(exc), str(exc)
    return d.column_names, d.values.shape, d.values.tobytes(), d.rows_read, d.rows_dropped


class TestFlatReader:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), columns=st.lists(st.sampled_from("abc"), min_size=1, unique=True))
    def test_reads_like_a_list_per_row(self, tmp_path, text, columns):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        schema = tuple(columns)
        assert dataset_outcome(load_csv, path, schema) == dataset_outcome(
            load_csv_by_rows, path, schema)

    def test_load_peak_is_a_small_multiple_of_the_file(self, tmp_path):
        # A list of Python floats per row peaked near 8 times the CSV's bytes.
        path = tmp_path / "soil.csv"
        save_csv(generate(3000, seed=5), path)
        load_csv(path, soil_schema)  # imports and caches settle outside the measurement
        tracemalloc.start()
        try:
            load_csv(path, soil_schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size


class TestBenchmarkCalls:
    # The calls the benchmark makes: its ingestion ladder (``ingest_ladder`` in
    # perfbench/harness.py) and its unlabeled-file writer (``write_unlabeled`` in
    # perfbench/workloads.py).
    def test_saved_synth_reloads_bit_for_bit(self, tmp_path):
        d = generate(50, 7)
        path = tmp_path / "synth.csv"
        save_csv(d, path)
        m = drop_incomplete_rows(load_csv(path, soil_schema(d.column_names))).matrix()
        assert m.tobytes() == d.values.tobytes()
        assert d.rows == d.values.tolist()


class TestSaveCsv:
    def test_save_peak_is_under_the_file_and_bytes_are_csv_writer_bytes(self, tmp_path):
        # A list of Python floats per row of the whole table peaked near 6 times the file.
        d = generate(10_000, seed=5)
        path = tmp_path / "soil.csv"
        save_csv(d, path)  # imports and caches settle outside the measurement
        tracemalloc.start()
        try:
            save_csv(d, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size
        expected = io.StringIO(newline="")
        csv.writer(expected, lineterminator="\n").writerows([d.column_names] + d.rows)
        assert path.read_text(encoding="utf-8") == expected.getvalue()


    @pytest.mark.parametrize("widths", [(1,), (3, 1), (1, 1)], ids=["one-column", "block+column",
                                                                    "two-columns"])
    def test_block_text_is_csv_writer_text_for_any_float(self, widths):
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16,
                    1e-5, 0.1, 2.5, 1.7976931348623157e308, 123456789.0]
        rng = np.random.default_rng(21)
        n = 2 * _WRITE_BLOCK + 5  # rows across two block boundaries
        # The first a 2-D block (one column wide or more), the rest 1-D columns.
        columns = [rng.choice(specials, size=(n, w) if not i else n) for i, w in enumerate(widths)]
        header = [f"c{i}" for i in range(sum(widths))]
        got = io.StringIO(newline="")
        dataset.write_csv(got, header, *columns)
        expected = io.StringIO(newline="")
        csv.writer(expected, lineterminator="\n").writerows(
            [header] + np.column_stack(columns).tolist())
        assert got.getvalue() == expected.getvalue()
        assert got.getvalue().count("\n") == n + 1


class TestSoilSchema:
    def test_optional_columns_join_when_present(self):
        header = ("N",) + CANONICAL_FEATURES + ("B", "yield")
        names = soil_schema(header)
        assert "N" in names and "B" in names
        assert names[-1] == "yield"

    def test_missing_required_column_raises(self):
        header = tuple(c for c in CANONICAL_HEADER if c != "Zn")
        with pytest.raises(ValidationError, match="^header is missing required columns: Zn$"):
            soil_schema(header)

    def test_prediction_schema_has_no_target(self):
        assert "yield" not in soil_schema(CANONICAL_HEADER, target=None)

    def test_missing_target_raises(self):
        with pytest.raises(ValidationError, match="^header is missing the target column 'yield'$"):
            soil_schema(CANONICAL_FEATURES, target="yield")


class TestDropIncompleteRows:
    def test_drops_rows_with_missing_cells(self):
        d = small_dataset([[1.0, 2.0], [None, 3.0], [4.0, 5.0]])
        cleaned = drop_incomplete_rows(d)
        assert cleaned.rows == [[1.0, 2.0], [4.0, 5.0]]
        assert cleaned.rows_dropped == 1

    def test_no_missing_cells_is_identity(self):
        d = small_dataset([[1.0, 2.0], [3.0, 4.0]])
        cleaned = drop_incomplete_rows(d)
        assert cleaned.rows == d.rows
        assert cleaned.rows_dropped == 0

    def test_all_rows_missing_raises(self):
        d = small_dataset([[None, 1.0], [2.0, None]])
        with pytest.raises(ValidationError, match="^all 2 rows had missing or non-finite cells$"):
            drop_incomplete_rows(d)

    def test_non_finite_cells_count_as_incomplete(self):
        d = small_dataset([[float("nan"), 1.0], [math.inf, 2.0], [3.0, 4.0]])
        cleaned = drop_incomplete_rows(d)
        assert cleaned.rows == [[3.0, 4.0]]
        assert cleaned.rows_dropped == 2

    def test_cleaning_is_idempotent(self):
        d = small_dataset([[1.0, None], [2.0, 3.0], [4.0, 5.0]])
        once = drop_incomplete_rows(d)
        twice = drop_incomplete_rows(once)
        assert twice.rows == once.rows
        assert (twice.rows_read, twice.rows_dropped) == (once.rows_read, once.rows_dropped)


class TestTrainTestSplit:
    def test_partition_sizes_and_disjointness(self):
        d = small_dataset([[float(i)] for i in range(10)])
        s = train_test_split(d, 0.2, seed=0)
        assert len(s.train) == 8 and len(s.test) == 2
        assert set(s.train) | set(s.test) == set(range(10))
        assert set(s.train) & set(s.test) == set()

    def test_deterministic(self):
        d = small_dataset([[float(i)] for i in range(25)])
        assert train_test_split(d, 0.3, seed=9) == train_test_split(d, 0.3, seed=9)

    def test_golden_indices(self):
        # Frozen from the first verified run of the seeded generator.
        d = small_dataset([[float(i)] for i in range(20)])
        s = train_test_split(d, 0.25, seed=3)
        assert s.test == (3, 8, 12, 16, 18)

    def test_different_seeds_differ(self):
        d = small_dataset([[float(i)] for i in range(100)])
        s1 = train_test_split(d, 0.2, seed=1)
        s2 = train_test_split(d, 0.2, seed=2)
        # Frozen golden sets from the first verified run.
        assert s1.test == (5, 6, 8, 16, 17, 19, 20, 34, 38, 43, 48, 55, 56,
                           60, 67, 80, 81, 85, 87, 99)
        assert s2.test == (7, 10, 14, 25, 34, 47, 48, 52, 56, 59, 61, 69, 73,
                           79, 84, 88, 90, 91, 92, 94)
        assert s1.test != s2.test

    def test_partition_property_random(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            ratio = float(rng.uniform(0.05, 0.95))
            d = small_dataset([[float(i)] for i in range(n)])
            s = train_test_split(d, ratio, seed=int(rng.integers(0, 2**32)))
            assert sorted(s.train + s.test) == list(range(n))
            assert len(s.train) >= 1 and len(s.test) >= 1

    def test_invalid_ratio(self):
        d = small_dataset([[1.0], [2.0]])
        for ratio in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValidationError,
                               match=re.escape(f"test_ratio must lie in (0, 1), got {ratio!r}")):
                train_test_split(d, ratio, seed=0)

    def test_too_few_rows(self):
        d = small_dataset([[1.0]])
        with pytest.raises(ValidationError, match="^need at least 2 rows to split, got 1$"):
            train_test_split(d, 0.5, seed=0)
