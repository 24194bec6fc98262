import csv
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfchar import AmdahlFit, fit_mpi_shares, project, report
from perfchar.exceptions import ParameterError
from perfchar.ingest import read_columns
from perfchar.report import (
    atomic_write_text,
    emit_plot_data,
    gnuplot_loglog_script,
    write_sidecar_metadata,
)


def read_lines(path):
    return path.read_text().splitlines()


class TestEmitPlotData:
    def test_single_point_curve_is_two_lines(self, tmp_path):
        path = emit_plot_data([np.array([1]), np.array([2.5])], tmp_path / "one.csv", header=["x", "y"])
        lines = read_lines(path)
        assert len(lines) == 2
        assert lines[0] == "x,y"

    def test_rows_sorted_by_x(self, tmp_path):
        emit_plot_data(
            [np.array([4, 1, 2]), np.array([1.0, 2.0, 0.5])], tmp_path / "sorted.csv", header=["x", "y"]
        )
        xs = [row.split(",")[0] for row in read_lines(tmp_path / "sorted.csv")[1:]]
        assert xs == ["1", "2", "4"]

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_plot_data([[], []], tmp_path / "empty.csv", header=["x", "y"])

    def test_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_plot_data([np.array([1]), np.array([2]), np.array([3])], tmp_path / "bad.csv",
                           header=["x", "y"])

    def test_column_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_plot_data([np.array([1, 2]), np.array([3])], tmp_path / "bad.csv", header=["x", "y"])

    def test_nan_in_float_array_is_blank_after_numbers(self, tmp_path):
        path = emit_plot_data(
            [np.array([np.nan, 2.0, -1.0]), ["a", "b", "c"]], tmp_path / "nan.csv", header=["x", "y"]
        )
        assert read_lines(path) == ["x,y", "-1.0,c", "2.0,b", ",a"]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_float_is_parameter_error(self, tmp_path, bad):
        path = tmp_path / "inf.csv"
        with pytest.raises(ParameterError, match="inf.csv: column y holds an infinite value"):
            emit_plot_data([["a", "b"], np.array([1.0, bad])], path, header=["x", "y"])
        assert not path.exists()

    def test_ideal_projection_efficiency_column(self, tmp_path):
        fit = AmdahlFit(a=1.0, b=0.0, sigma_a=0, sigma_b=0, residual=0)
        points = project(fit, [1, 2, 4, 8])
        columns = [np.array([pt.units for pt in points]), np.array([pt.speedup for pt in points]),
                   np.array([pt.efficiency for pt in points])]
        path = emit_plot_data(columns, tmp_path / "proj.csv", header=["p", "speedup", "efficiency"])
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert all(float(r["efficiency"]) == 1.0 for r in parsed)

    def test_share_curve_shapes(self, tmp_path):
        fit = fit_mpi_shares([(p, 1.26 * p + 3.86, 19.59) for p in (1, 2, 4, 8, 16)])
        procs = (1, 2, 4, 8, 16)
        columns = [["lb"] * 5 + ["com"] * 5, np.array([*procs, *procs]),
                   np.array([fit.a * p + fit.b for p in procs] + [fit.c] * 5)]
        path = emit_plot_data(columns, tmp_path / "shares.csv", header=["series", "p", "share_pct"])
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        lb = [float(r["share_pct"]) for r in parsed if r["series"] == "lb"]
        com = {float(r["share_pct"]) for r in parsed if r["series"] == "com"}
        assert lb == sorted(lb) and lb[0] < lb[-1]
        assert len(com) == 1  # constant series


def format_value(value) -> str:
    """Stable text form: full-precision floats, plain ints, strings as-is unless csv would quote them."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    value = "" if value is None else str(value)
    needs_quotes = set(value) & set(',"\r\n') or value.lstrip().startswith("#")
    return '"' + value.replace('"', '""') + '"' if needs_quotes else value


def _row_sort_key(row):
    """The order of the row-at-a-time writer: numbers (bools too) before text, None as ""."""
    key = []
    for value in row:
        if isinstance(value, (bool, np.bool_)):
            key.append((0, float(bool(value)), ""))
        elif isinstance(value, (int, float, np.integer, np.floating)):
            key.append((0, float(value), ""))
        else:
            key.append((1, 0.0, "" if value is None else str(value)))
    return tuple(key)


def reference_plot_data(rows, header) -> str:
    """Row-at-a-time emission: the definition emit_plot_data must match."""
    lines = [",".join(header)]
    for row in sorted((tuple(r) for r in rows), key=_row_sort_key):
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
# Integers that float64 cannot all tell apart: ties in the sort key.
big_ints = st.one_of(
    st.integers(2**53 - 2, 2**53 + 3),
    st.sampled_from([2**63 - 1, 2**63 - 512, -(2**63), 2**62 + 1]),
)
# Outside the BMP, a trailing NUL, which a numpy U array would drop, what csv quotes, and
# what starts a comment line.
texts = st.text(alphabet=["a", "b", "\x00", "\U0001F600", "\u00e9", ",", '"', "\r", "\n", "#", " ", "\t"],
                max_size=3)
zeros = st.sampled_from([0.0, -0.0, 1.0, 2.5])
# (dtype or None for a list of str, cell strategy): the two kinds of column the writer takes.
columns = st.sampled_from([
    (None, texts),
    (None, st.just("")),
    (None, st.text(alphabet="ab", max_size=2)),
    (np.int64, st.one_of(st.integers(-3, 3), big_ints)),
    (np.float64, st.one_of(zeros, finite)),
    (np.float64, st.one_of(zeros, st.just(math.nan))),
    (np.float64, st.one_of(finite, st.just(math.nan))),
    (bool, st.booleans()),
])


@st.composite
def tables(draw):
    """(columns for emit_plot_data, the same table as rows for the reference)."""
    kinds = draw(st.lists(columns, min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    table, rows = [], []
    for dtype, cell in kinds:
        values = [draw(cell) for _ in range(n)]
        table.append(values if dtype is None else np.array(values, dtype=dtype))
        # An array's cells reach the reference as numpy scalars, a NaN as a blank.
        rows.append(values if dtype is None else ["" if v != v else v for v in table[-1]])
    return table, list(zip(*rows))


class TestQuotedCells:
    LABELS = ["stencil, 7pt", 'say "hi"', '"', ",", 'a,"b"', "plain", "two\nlines", "cr\rhere", "crlf\r\nend"]

    def test_csv_reader_and_read_columns_read_the_cells_back(self, tmp_path):
        path = emit_plot_data([self.LABELS, np.arange(len(self.LABELS), dtype=float)], tmp_path / "q.csv",
                              header=["label", "x"])
        expected = sorted(zip(self.LABELS, map(repr, map(float, range(len(self.LABELS))))))
        with open(path, newline="", encoding="utf-8") as handle:
            assert [tuple(row) for row in csv.reader(handle)] == [("label", "x"), *expected]
        # read_columns joins the lines of a quoted cell without their line breaks.
        cells = [cell for _, block in read_columns(path, ("label", "x")) for cell in zip(*block)]
        assert [cell for cell in cells if cell[0] in self.LABELS[:6]] == \
            [cell for cell in expected if cell[0] in self.LABELS[:6]]
        assert len(cells) == len(self.LABELS)


    def test_cell_led_by_a_hash_is_not_read_as_a_comment(self, tmp_path):
        labels = ["#hot", " \t#warm", "cold", "a#b"]
        path = emit_plot_data([labels, np.arange(len(labels), dtype=float)], tmp_path / "h.csv",
                              header=["label", "x"])
        assert path.read_text().splitlines()[1:] == ['" \t#warm",1.0', '"#hot",0.0', "a#b,3.0", "cold,2.0"]
        cells = [cell for _, (block,) in read_columns(path, ("label",)) for cell in block]
        assert cells == ["#warm", "#hot", "a#b", "cold"]


class TestEmitMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(tables(), st.sampled_from([report.BLOCK_ROWS, 1, 2, 5]))
    def test_bytes_equal_row_at_a_time_emission(self, tmp_path_factory, table, block):
        columns, rows = table
        header = [f"c{i}" for i in range(len(columns))]
        with mock.patch.object(report, "BLOCK_ROWS", block):
            path = emit_plot_data(columns, tmp_path_factory.mktemp("emit") / "out.csv", header)
        assert path.read_bytes() == reference_plot_data(rows, header).encode()


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "first\n")
        atomic_write_text(target, "second\n")
        assert target.read_text() == "second\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_unwritable_path_raises_os_error(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("plain file")
        with pytest.raises(OSError):
            emit_plot_data([np.array([1]), np.array([2])], blocker / "out.csv", header=["x", "y"])


class TestSidecar:
    def test_metadata_contains_timestamp_and_payload(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x\n")
        sidecar = write_sidecar_metadata(data, {"command": "test"})
        meta = json.loads(sidecar.read_text())
        assert meta["command"] == "test"
        assert meta["data_file"] == "data.csv"
        assert "written_at" in meta


class TestGnuplot:
    def test_script_references_inputs(self):
        script = gnuplot_loglog_script([("a.csv", "1:2"), ("b.csv", "2:3")], "out.png", "t", "x", "y")
        assert "set logscale xy" in script
        assert "'a.csv' using 1:2 " in script and "'b.csv' using 2:3 " in script
        assert "out.png" in script
