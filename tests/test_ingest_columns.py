"""The column-wise ingest path against the row-at-a-time reference.

``ingest_reference`` keeps the runs, pairwise, share and kernel-point
readers, the aggregation, the weak-link search and the per-point roofline
classification as first written. On drawn files the column-wise code must
accept and reject the same rows with the same messages, and give
bit-identical records, group statistics, matrices, warnings, links, share
groups, kernel points and classifications.
"""

import csv
import dataclasses
import io
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from perfchar import ingest, report
from perfchar.exceptions import ParameterError, RowError
from perfchar.ingest import (
    RUNS_COLUMNS,
    KernelTable,
    build_pairwise_matrix,
    detect_weak_links,
    parse_kernel_points,
    parse_pairwise_bandwidth,
    parse_runs,
    parse_share_groups,
)
from perfchar.roofline import KernelPoint, build_roofline, classify, classify_many
from test_cli import KERNEL_CELLS
from test_golden import digests
from test_grouping import stats_by_key


def error(exc: Exception) -> tuple:
    """An error's type, message, and the rows or pairs it carries."""
    extra = getattr(exc, "failures", None) or getattr(exc, "missing_pairs", None)
    return type(exc).__name__, str(exc), extra


def outcome(fn, *args, **kwargs):
    """repr of the result, or the error."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:  # the comparison is of which error, so every kind counts
        return error(exc)


def matrix_outcome(fn, *args, **kwargs):
    """Like ``outcome``, with the matrix compared bit for bit."""
    try:
        m = fn(*args, **kwargs)
    except Exception as exc:
        return error(exc)
    return "ok", m.node_ids, m.bandwidth.tobytes(), repr(m.asymmetry_warnings), m.message_size


# Python's int() takes " +5", "1_000" and Unicode digits; float() takes "infinity".
INT_CELLS = st.one_of(
    st.integers(-1, 130).map(str),
    st.sampled_from([" +5", "1_000", "٣", "0", "-3", "1.5", "", "abc", "1e2",
                     "99999999999999999999", "9223372036854775807", "9223372036854775808"]),
)
FLOAT_CELLS = st.one_of(
    st.floats(1e-3, 1e6).map(repr),
    st.sampled_from(["infinity", "-inf", "nan", "NaN", "", "abc", "0", "-1.5", "1_0.5",
                     " 2.5", "1e308", "٣.5", "0x10"]),
)
METRIC_CELLS = st.one_of(
    st.floats(1e-3, 1e6).map(lambda v: f"{v!r} MLUP/s"),
    st.sampled_from(["", "5", "5 MLUP/s", "7.5   GFlop/s", "nan MLUP/s", "inf x/s", "-2 MLUP/s",
                     "abc MLUP/s", "1_000 MLUP/s", "3 steps", "0 MLUP/s"]),
)
STAMP_CELLS = st.sampled_from(["", "2018-11-01T00:00:00Z", "2018-11-01", "yesterday",
                               "2020-01-01T00:00:00+01:00", "2018-13-01"])
NAME_CELLS = st.sampled_from(["p", "q", " r ", "", '"a,b"', '"multi\nline"'])


def run_row(draw):
    cells = [draw(NAME_CELLS), draw(st.sampled_from(["a", "b"])), draw(st.sampled_from(["c", "d"])),
             draw(INT_CELLS), draw(INT_CELLS), draw(FLOAT_CELLS), draw(FLOAT_CELLS),
             draw(METRIC_CELLS), draw(STAMP_CELLS)]
    return ",".join(cells[: draw(st.sampled_from([9, 9, 9, 9, 10, 7, 4]))])


@st.composite
def runs_csv(draw):
    lines = ["# leading note", ",".join(RUNS_COLUMNS)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["# comment", "  # indented", "", "   "]))
        lines.append(run_row(draw) if kind == "row" else kind)
    return "\n".join(lines) + "\n"


@st.composite
def valid_runs_csv(draw):
    """Rows that all parse, so the statistics are compared on many groups."""
    lines = [",".join(RUNS_COLUMNS)]
    for _ in range(draw(st.integers(1, 40))):
        cells = [draw(st.sampled_from(["p", "q", "r"])), draw(st.sampled_from(["a", "b"])), "c",
                 str(draw(st.sampled_from([1, 2, 4, 8]))), "4",
                 repr(draw(st.floats(1e-3, 1e4))),
                 draw(st.one_of(st.just(""), st.floats(1.0, 1e6).map(repr))),
                 draw(st.one_of(st.just(""), st.just("3 steps"),
                                st.floats(1e-2, 1e5).map(lambda v: f"{v!r} MLUP/s"))),
                 "2018-11-01T00:00:00Z"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["p", " +5", "1_000", "٣", "infinity", "nan", "", " ", "12.5 MLUP/s",
                     "2018-11-01", "junk"]),
)


@st.composite
def runs_json(draw):
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        entry = {name: draw(JSON_VALUES) for name in RUNS_COLUMNS}
        if draw(st.integers(0, 9)) == 0:
            entry.pop(draw(st.sampled_from(RUNS_COLUMNS)))
        entries.append(entry)
    return json.dumps(entries)


def same_statistics(fn, ref_fn) -> bool:
    """``fn`` aggregates as the reference does, except where the reference's stddev
    overflows (an OverflowError): there ``fn`` fails with an InvalidDataError."""
    expected = outcome(ref_fn)
    if expected[0] == "OverflowError":
        return outcome(fn)[0] == "InvalidDataError"
    return outcome(fn) == expected


def compare_runs(path):
    expected = outcome(ref.parse_runs, path)
    assert outcome(lambda: list(parse_runs(path))) == expected
    if expected[0] != "ok":
        return
    records, table = ref.parse_runs(path), parse_runs(path)
    for key in (("app", "platform", "compiler"), ("nodes",), ("platform",), ("compiler", "time")):
        assert same_statistics(lambda: stats_by_key(table, key), lambda: ref.aggregate(records, key))
    rates = [r for r in records if r.app_metric is not None and r.app_metric.is_rate()]
    assert same_statistics(
        lambda: stats_by_key(table.take(np.flatnonzero(table.is_rate())), value="metric_value"),
        lambda: ref.aggregate(rates, value=lambda r: r.app_metric.value),
    )


class TestRunsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(text=runs_csv())
    def test_csv(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("runs") / "runs.csv"
        path.write_text(text, encoding="utf-8")
        compare_runs(path)

    @settings(max_examples=150, deadline=None)
    @given(text=valid_runs_csv())
    def test_valid_csv(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("runs") / "runs.csv"
        path.write_text(text, encoding="utf-8")
        compare_runs(path)

    @settings(max_examples=200, deadline=None)
    @given(text=runs_json())
    def test_json(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("runs") / "runs.json"
        path.write_text(text, encoding="utf-8")
        compare_runs(path)

    def test_valid_file_is_read_as_columns(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(",".join(RUNS_COLUMNS) + "\n"
                        "p,a,c,1,64,251.64,82200,266.7 MLUP/s,2018-11-01T01:00:00Z\n"
                        "p,a,c,2,64,130.5,,3 steps,\n# note\nq,b,c,4,1,1e-3,1.0,,2018-11-01\n")
        with mock.patch.object(ingest, "_failing_rows", side_effect=AssertionError("a block was halved")):
            got = outcome(lambda: list(parse_runs(path)))
        assert got == outcome(ref.parse_runs, path)
        assert got[0] == "ok"


NODES = ["n1", "n2", "n3", "n4"]
BW_CELLS = st.one_of(
    st.floats(1e-3, 1e4).map(repr), st.floats(1e-3, 1e4).map(repr), st.floats(1e-3, 1e4).map(repr),
    st.sampled_from(["1_000", "infinity", "nan", "", "junk", "0", "-1", "1e308", "9e307"]),
)
SIZE_CELLS = st.sampled_from(["4096", "4096", "4096", "65536", " +4096", "4_096", "x", ""])
UNIT_CELLS = st.sampled_from(["", "", "GB/s", "MB/s", "mbs", " gbs ", "MB/S", "furlong/s"])


@st.composite
def pairwise_csv(draw):
    lines = ["# pairwise", "node_a,node_b,msg_bytes,bandwidth_gbs,unit"]
    clean = draw(st.booleans())
    pairs = [(a, b) for a in NODES for b in NODES if a != b]
    for _ in range(draw(st.integers(0, 24))):
        a, b = draw(st.sampled_from(pairs))
        if clean:
            cells = [a, b, "4096", repr(draw(st.floats(1e-3, 1e4))),
                     draw(st.sampled_from(["", "GB/s", "MB/s"]))]
        else:
            kind = draw(st.sampled_from(["row"] * 6 + ["# c", "", "short", "self"]))
            if kind not in ("row", "short", "self"):
                lines.append(kind)
                continue
            cells = [a, a if kind == "self" else b, draw(SIZE_CELLS), draw(BW_CELLS),
                     draw(UNIT_CELLS)]
            if kind == "short":
                cells = cells[:3]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def compare_pairwise(path, thresholds=(0.0, 0.1, 0.5)):
    for size in (None, 4096, 65536, 8192):
        new = matrix_outcome(parse_pairwise_bandwidth, path, message_size=size)
        assert new == matrix_outcome(ref.parse_pairwise_bandwidth, path, message_size=size)
        if new[0] == "ok":
            matrix = parse_pairwise_bandwidth(path, message_size=size)
            for threshold in thresholds:
                assert outcome(detect_weak_links, matrix, threshold) == \
                    outcome(ref.detect_weak_links, matrix, threshold)


class TestPairwiseAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(text=pairwise_csv())
    def test_csv(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        path.write_text(text, encoding="utf-8")
        compare_pairwise(path)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES),
                      st.sampled_from([4096, 4096, 65536, "4096", "x"]),
                      st.one_of(st.floats(1e-3, 1e4), st.floats(allow_nan=True),
                                st.sampled_from(["1_000", "junk", None])),
                      st.sampled_from([None, "GB/s", "MB/s", " mbs ", "furlong/s"])),
            max_size=16,
        )
    )
    def test_json(self, tmp_path_factory, rows):
        entries = [{"node_a": a, "node_b": b, "msg_bytes": size, "bandwidth_gbs": bw, "unit": unit}
                   for a, b, size, bw, unit in rows]
        path = tmp_path_factory.mktemp("pairs") / "pairs.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        compare_pairwise(path)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from(NODES + ["n5", "n6"]), st.sampled_from(NODES + ["n5", "n6"]),
                      st.one_of(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4),
                                st.floats(allow_nan=True, allow_infinity=True))),
            max_size=40,
        ),
        threshold=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matrix_and_weak_links(self, entries, threshold):
        new = matrix_outcome(build_pairwise_matrix, entries, 4096)
        assert new == matrix_outcome(ref.build_pairwise_matrix, entries, 4096)
        if new[0] == "ok":
            matrix = build_pairwise_matrix(entries, 4096)
            assert outcome(detect_weak_links, matrix, threshold) == \
                outcome(ref.detect_weak_links, matrix, threshold)


@st.composite
def two_size_pairwise_csv(draw):
    """Every pair at 4096 and 65536 bytes with a unit column, and at most one bad row at 65536."""
    lines = ["node_a,node_b,msg_bytes,bandwidth_gbs,unit"]
    for size in ("4096", "65536"):
        for i, a in enumerate(NODES):
            for b in NODES[i + 1:]:
                for x, y in draw(st.sampled_from([[(a, b)], [(b, a)], [(a, b), (b, a)]])):
                    unit = draw(st.sampled_from(["", "GB/s", "MB/s"]))
                    value = draw(st.floats(1e-3, 1e4)) * (1000.0 if unit == "MB/s" else 1.0)
                    lines.append(f"{x},{y},{size},{value!r},{unit}")
    if draw(st.booleans()):
        a, b = draw(st.permutations(NODES))[:2]
        bad = draw(st.sampled_from([f"{a},{a},65536,5.0,", f"{a},{b},65536,0,GB/s",
                                    f"{a},{b},65536,junk,", f"{a},{b},65536,5.0,furlong/s",
                                    f"{a},{b},65536,inf,MB/s"]))
        lines.insert(draw(st.integers(1, len(lines))), bad)
    return "\n".join(lines) + "\n"


class TestTwoSizePairwiseAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(text=two_size_pairwise_csv())
    def test_csv(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        path.write_text(text, encoding="utf-8")
        compare_pairwise(path)

    @pytest.mark.parametrize("size", [None, 4096])
    def test_valid_file_is_read_as_columns(self, size, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("node_a,node_b,msg_bytes,bandwidth_gbs,unit\n"
                        "n1,n2,4096,5.0,\nn2,n1,4096,5100,MB/s\n# note\nn1,n3,4096,4.5,GB/s\nn2,n3,4096,4, gbs \n"
                        + ("" if size is None else "n1,n2,65536,9.0,mbs\n"))
        with mock.patch.object(ingest, "_failing_rows", side_effect=AssertionError("a block was halved")):
            got = matrix_outcome(parse_pairwise_bandwidth, path, message_size=size)
        assert got == matrix_outcome(ref.parse_pairwise_bandwidth, path, message_size=size)
        assert got[0] == "ok"


@st.composite
def pairwise_layouts(draw):
    """Every pair at both sizes in mixed units, in size sections or shuffled so that blocks mix sizes;
    some directed pairs measured again in the same direction, and perhaps one bad row at either size."""
    rows = []
    for size in ("4096", "65536"):
        for i, a in enumerate(NODES):
            for b in NODES[i + 1:]:
                rows += [(x, y, size) for x, y in draw(st.sampled_from([[(a, b)], [(b, a)], [(a, b), (b, a)]]))]
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))  # measured again: the last value wins
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    lines = ["node_a,node_b,msg_bytes,bandwidth_gbs,unit"]
    for a, b, size in rows:
        unit = draw(st.sampled_from(["", "GB/s", "MB/s", " mbs "]))
        value = draw(st.floats(1e-3, 1e4)) * (1000.0 if unit.strip() in ("MB/s", "mbs") else 1.0)
        lines.append(f"{a},{b},{size},{value!r},{unit}")
    if draw(st.booleans()):
        a, b = draw(st.permutations(NODES))[:2]
        size = draw(st.sampled_from(["4096", "65536"]))
        bad = draw(st.sampled_from([f"{a},{a},{size},5.0,", f"{a},{b},{size},0,GB/s", f"{a},{b},{size},junk,",
                                    f"{a},{b},{size},5.0,furlong/s", f"{a},{b},{size},inf,MB/s"]))
        lines.insert(draw(st.integers(1, len(lines))), bad)
    return "\n".join(lines) + "\n"


class TestPairwiseLayoutsAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(text=pairwise_layouts())
    def test_every_block_size(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        path.write_text(text, encoding="utf-8")
        for block in (1, 2, 3, report.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block):
                compare_pairwise(path)

    def test_repeated_pair_keeps_its_last_value_within_and_across_blocks(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("node_a,node_b,msg_bytes,bandwidth_gbs,unit\n"
                        "n1,n2,4096,1.0,\nn1,n2,4096,2.0,\nn1,n3,65536,7.0,MB/s\nn2,n3,4096,3.0,\n"
                        "n1,n3,4096,4.0,\nn1,n2,4096,5000,MB/s\nn3,n1,4096,6.0,GB/s\n")
        for block in (1, 2, 3, report.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block):
                matrix = parse_pairwise_bandwidth(path, message_size=4096)
                assert matrix.pair_value("n1", "n2") == 5.0, f"BLOCK_ROWS = {block}"
                compare_pairwise(path)


def share_outcome(parse, path, fields):
    """Each group's key and the bits of its points in sorted order, or the error."""
    try:
        groups = parse(path, fields)
    except Exception as exc:  # the comparison is of which error, so every kind counts
        return error(exc)
    if isinstance(groups, dict):  # the reference's: each group's points in file order
        keys, points = list(groups), [sorted(points) for points in groups.values()]
    else:
        keys, groups = groups
        points = np.split(groups.points, np.cumsum(groups.sizes)[:-1])
    return "ok", [(key, [tuple(map(float.hex, point)) for point in map(tuple, group)])
                  for key, group in zip(keys, points)]


SHARE_FIELDS = ("app", "platform", "procs", "lb_share_pct", "com_share_pct")
# Keys that tie, that join to one label ("a/b/c") or sort otherwise as labels, or that need quotes.
SHARE_KEYS = st.sampled_from([("a", "b/c"), ("a/b", "c"), ("a", "z"), ("a!", "b"), ("a", "z"), (" a ", "z"),
                              ("x,y", "z")])
PROCS_CELLS = st.sampled_from(["1", "2", "2", "4", "16", "0", "-0.0", "0.5", "1e308", "1_0"])
SHARE_PCT_CELLS = st.sampled_from(["0", "0.0", "-0.0", "5", "5.0", "12.5", "20", "100"])
BAD_SHARE_CELLS = st.sampled_from(["nan", "inf", "-inf", "x", "", "0x10"])


@st.composite
def shares_text(draw):
    """A share CSV or JSON: tied and colliding keys, repeated procs, equal lb and com, -0.0, some bad cells."""
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        cells = [draw(PROCS_CELLS), draw(SHARE_PCT_CELLS), draw(SHARE_PCT_CELLS)]
        if draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, 2))] = draw(BAD_SHARE_CELLS)
        rows.append([*draw(SHARE_KEYS), *cells])
    if draw(st.booleans()):
        return "shares.json", json.dumps([{name: json_value(draw, cell) if name not in SHARE_FIELDS[:2] else cell
                                           for name, cell in zip(SHARE_FIELDS, row)} for row in rows])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([SHARE_FIELDS, *rows])
    return "shares.csv", out.getvalue()


class TestSharesAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(file=shares_text(), fields=st.sampled_from([("app", "platform"), ("platform", "app"), ("app",), ()]))
    def test_every_block_size(self, tmp_path_factory, file, fields):
        name, text = file
        path = tmp_path_factory.mktemp("shares") / name
        path.write_text(text, encoding="utf-8")
        expected = share_outcome(ref.parse_share_groups, path, fields)
        for block in (1, 2, 3, report.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block):
                assert share_outcome(parse_share_groups, path, fields) == expected, f"BLOCK_ROWS = {block}"

    def test_keys_with_one_label_stay_two_groups_in_key_order(self, tmp_path):
        path = tmp_path / "shares.csv"
        path.write_text("app,platform,procs,lb_share_pct,com_share_pct\n"
                        "a/b,c,1,5,20\na!,b,1,5,20\na,z,1,5,20\na,b/c,2,6,20\na,b/c,1,5,20\n")
        keys, groups = parse_share_groups(path, ("app", "platform"))
        assert keys == [("a", "b/c"), ("a", "z"), ("a!", "b"), ("a/b", "c")]
        assert groups.sizes.tolist() == [2, 1, 1, 1]
        assert groups.points.tolist() == [[1.0, 5.0, 20.0], [2.0, 6.0, 20.0], *[[1.0, 5.0, 20.0]] * 3]

    def test_valid_file_is_read_as_columns(self, tmp_path):
        path = tmp_path / "shares.csv"
        path.write_text("app,platform,procs,lb_share_pct,com_share_pct\n"
                        "a,p,4,-0.0,20\na,p,2,0.0,0\nb,p,2,5,5\na,p,2,0,-0.0\n# note\na,p,1,5,20\n")
        with mock.patch.object(ingest, "_failing_rows", side_effect=AssertionError("a block was halved")):
            got = share_outcome(parse_share_groups, path, ("app", "platform"))
        assert got == share_outcome(ref.parse_share_groups, path, ("app", "platform"))
        assert got[0] == "ok"

    def test_bad_rows_give_the_per_row_error(self, tmp_path):
        path = tmp_path / "shares.csv"
        path.write_text("platform,procs,lb_share_pct,com_share_pct\n"
                        "p,1,5,20\np,x,6,20\np,4,inf,20\n# note\nq,1,5,\nq,2,6,20\n")
        for block in (1, report.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block), pytest.raises(RowError) as info:
                parse_share_groups(path, ("platform",))
            assert str(info.value) == (
                "3 invalid row(s): line 3: could not convert string to float: 'x'; "
                "line 4: procs, lb_share_pct, com_share_pct must be finite; "
                "line 6: could not convert string to float: ''")


KERNEL_FIELDS = ("label", "intensity", "flops", "loads", "stores", "access_bytes", "gflops", "time_share_pct")
VALID_CELLS = st.floats(0, 1e4).map(repr)
# Mostly valid, so that whole blocks of rows parse; bad cells are still drawn.
NUMBER_CELLS = st.one_of(VALID_CELLS, VALID_CELLS, VALID_CELLS, KERNEL_CELLS)
ACCESS_CELLS = st.one_of(st.sampled_from(["", "4", "8", "16"]), KERNEL_CELLS)
OPTIONAL_CELLS = st.one_of(st.just(""), st.just(""), st.floats(0, 100).map(repr), st.just("nan"), KERNEL_CELLS)


def json_value(draw, text):
    """A JSON value whose text, as read_columns gives it, is ``text``, or a number it reads as."""
    if not text:
        return draw(st.sampled_from([None, ""]))
    try:
        number = json.loads(text)
    except ValueError:
        return text
    return draw(st.sampled_from([text, number]))


@st.composite
def kernels_text(draw):
    """A CSV or JSON kernel-point file: intensity rows, counter rows or both, with blank, NaN and bad cells."""
    form = draw(st.sampled_from(["intensity", "counters", "mixed"]))
    header = [name for name in KERNEL_FIELDS if name not in draw(st.sets(st.sampled_from(KERNEL_FIELDS[5:])))]
    if draw(st.integers(0, 19)) == 0:
        header.remove("label")
    rows = []
    for i in range(draw(st.integers(0, 10))):
        by_intensity = form == "intensity" or form == "mixed" and draw(st.booleans())
        cells = {"label": f"k{i}", "intensity": draw(NUMBER_CELLS) if by_intensity else "",
                 **{name: draw(NUMBER_CELLS) for name in ("flops", "loads", "stores")},
                 "access_bytes": draw(ACCESS_CELLS), "gflops": draw(OPTIONAL_CELLS),
                 "time_share_pct": draw(OPTIONAL_CELLS)}
        rows.append([cells[name] for name in header])
    if draw(st.booleans()):
        return "kernels.json", json.dumps([{name: json_value(draw, cell) for name, cell in zip(header, row)}
                                           for row in rows])
    return "kernels.csv", "\n".join(map(",".join, [header, *rows])) + "\n"


def reference_kernels(path):
    """The reference's points as a KernelTable, NaN for an absent measurement or share."""
    points = ref.parse_kernel_points(path)
    floats = np.array([(p.intensity, p.measured_perf, p.time_share) for p in points], float)  # None: NaN
    return KernelTable([p.label for p in points], *floats.reshape(-1, 3).T)


def kernel_outcome(parse, path):
    """Each point's label and the bits of its numbers, read from the KernelTable columns, or the error."""
    try:
        table = parse(path)
    except Exception as exc:  # the comparison is of which error, so every kind counts
        return error(exc)
    columns = (table.intensity.tolist(), table.measured_perf.tolist(), table.time_share.tolist())
    return "ok", [(label, *map(float.hex, values)) for label, *values in zip(table.label, *columns)]


class TestKernelPointsAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(file=kernels_text())
    def test_every_block_size(self, tmp_path_factory, file):
        name, text = file
        path = tmp_path_factory.mktemp("kernels") / name
        path.write_text(text, encoding="utf-8")
        expected = kernel_outcome(reference_kernels, path)
        for block in (1, 2, 3, report.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block):
                assert kernel_outcome(parse_kernel_points, path) == expected, f"BLOCK_ROWS = {block}"

    @pytest.mark.parametrize("text", [
        "label,intensity,gflops,time_share_pct\na,0.5,1.5,\nb,-0.0,,40\nc,1e-320,0,\n",
        "label,flops,loads,stores,access_bytes,gflops\na,1e9,1e8,1e8,,2.5\nb,-0.0,1,0,4,\nc,0,1,1,16,0\n",
        # Counter cells beside an intensity are not read, so junk there passes.
        "label,intensity,flops\nk,1,abc\n",
        "label,intensity,flops,loads,stores,access_bytes\nk,1,abc,,x,junk\nm,,1,1,1,4\nn,2,1,1,1,0\n",
    ])
    def test_valid_block_is_read_as_columns(self, text, tmp_path):
        path = tmp_path / "kernels.csv"
        path.write_text(text)
        with mock.patch.object(ingest, "_failing_rows", side_effect=AssertionError("a block was halved")):
            points = kernel_outcome(parse_kernel_points, path)
        assert points == kernel_outcome(reference_kernels, path)
        assert points[0] == "ok"


#: Blanks a CSV cell is padded with: ASCII ones, an ASCII control that str.strip() removes, and
#: Unicode spaces (no-break, thin, ideographic). None of them breaks a line for str.splitlines().
PADS = (" ", "\t", "\x1f", "\xa0", "\u2009", "\u3000")


def padding(data):
    """A function that pads a cell with blanks from a set drawn once per file, and may quote it."""
    blanks = st.text(st.sampled_from(data.draw(st.lists(st.sampled_from(PADS), min_size=1, unique=True))),
                     max_size=2)
    quoted = data.draw(st.booleans())

    def pad(cell):
        cell = data.draw(blanks) + cell + data.draw(blanks)
        return f'"{cell}"' if quoted and data.draw(st.booleans()) else cell

    return pad


def padded_file(tmp_path_factory, data, header, cells):
    """A CSV file of ``header`` and the rows ``cells(draw)`` gives, every cell padded."""
    pad, rows = padding(data), [cells(data.draw) for _ in range(data.draw(st.integers(1, 8)))]
    path = tmp_path_factory.mktemp("padded") / "padded.csv"
    path.write_text("\n".join([",".join(header), *(",".join(map(pad, row)) for row in rows)]) + "\n",
                    encoding="utf-8")
    return path


def same_as_reference_at_every_block_size(read, expected):
    for block in (1, 2, 3, report.BLOCK_ROWS):
        with mock.patch.object(ingest, "BLOCK_ROWS", block):
            assert read() == expected, f"BLOCK_ROWS = {block}"


class TestPaddedCellsAgainstReference:
    """Every reader strips each CSV cell of the blanks str.strip() removes, as the reference does."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_runs(self, tmp_path_factory, data):
        path = padded_file(tmp_path_factory, data, RUNS_COLUMNS, lambda draw: [
            draw(st.sampled_from(["tx2", "skl"])), "alya", "gnu", draw(st.sampled_from(["1", "2", "4"])), "64",
            repr(draw(st.floats(1e-3, 1e4))), draw(st.sampled_from(["", "8.5e4"])),
            draw(st.sampled_from(["", "1.5 MLUP/s", "266.7  GFlop/s"])),
            draw(st.sampled_from(["", "2018-11-01T00:00:00Z"]))])
        same_as_reference_at_every_block_size(lambda: outcome(lambda: list(parse_runs(path))),
                                              outcome(ref.parse_runs, path))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pairwise(self, tmp_path_factory, data):
        pairs = [(a, b) for i, a in enumerate(NODES[:3]) for b in NODES[i + 1:3]]
        path = padded_file(tmp_path_factory, data, ("node_a", "node_b", "msg_bytes", "bandwidth_gbs", "unit"),
                           lambda draw: [*draw(st.sampled_from(pairs)), draw(st.sampled_from(["4096", "65536"])),
                                         repr(draw(st.floats(1e-3, 1e4))), draw(st.sampled_from(["", "MB/s"]))])
        sizes = (None, 4096, 65536)
        same_as_reference_at_every_block_size(
            lambda: [matrix_outcome(parse_pairwise_bandwidth, path, message_size=size) for size in sizes],
            [matrix_outcome(ref.parse_pairwise_bandwidth, path, message_size=size) for size in sizes])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_shares(self, tmp_path_factory, data):
        path = padded_file(tmp_path_factory, data, SHARE_FIELDS, lambda draw: [
            draw(st.sampled_from(["a", "b c"])), "p", draw(PROCS_CELLS), draw(SHARE_PCT_CELLS), "20"])
        same_as_reference_at_every_block_size(lambda: share_outcome(parse_share_groups, path, ("app", "platform")),
                                              share_outcome(ref.parse_share_groups, path, ("app", "platform")))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kernel_points(self, tmp_path_factory, data):
        path = padded_file(tmp_path_factory, data, ("label", "intensity", "gflops", "access_bytes"),
                           lambda draw: [draw(st.sampled_from(["k", "k 2"])), draw(st.sampled_from(["0.5", "12"])),
                                         draw(st.sampled_from(["", "1.5"])), draw(st.sampled_from(["", "8"]))])
        same_as_reference_at_every_block_size(lambda: kernel_outcome(parse_kernel_points, path),
                                              kernel_outcome(reference_kernels, path))

    def test_blanks_are_the_characters_strip_removes(self):
        # read_columns leaves a column unstripped when str.split() finds no blank in its text.
        chars = [chr(code) for code in range(sys.maxunicode + 1)]
        assert {c for c in chars if not c.strip()} == {c for c in chars if not c.split()}


def table_cells(table):
    """Every column of a RunTable, arrays as their dtype and bytes."""
    columns = (getattr(table, f.name) for f in dataclasses.fields(table))
    return [(c.dtype.str, c.tobytes()) if isinstance(c, np.ndarray) else c for c in columns]


def run_table_outcome(path):
    """The columns of the RunTable that parse_runs reads, or the error."""
    try:
        return table_cells(parse_runs(path))
    except Exception as exc:  # the comparison is of which error, so every kind counts
        return error(exc)


# Metrics with and without a unit or a value; JSON cells are not stripped, and a JSON number is a cell.
EDGE_METRICS = ["5", "5 MLUP/s", "266.7  GFlop/s", ""]
JSON_EDGE_METRICS = [*EDGE_METRICS, "  5   MLUP per s  ", 5, 2.5]
BAD_METRICS = ["abc MLUP/s", "inf MLUP/s"]
JSON_BAD_METRICS = [*BAD_METRICS, "   "]
EDGE_STAMPS = ["2018-11-01T00:00:00Z", "2018-11-01T01:00:00+01:00", "2018-11-01T00:00:00.250-05:30",
               "2018-11-01 12:00:00.500000", ""]


def edge_runs(tmp_path, metrics, stamps, suffix):
    """A runs file of two rows per metric; node counts 1, 2, 4 and the ``stamps`` are taken in turn."""
    rows = [dict(zip(RUNS_COLUMNS, ("p", "a", "c", (1, 2, 4)[i % 3], 64, 10.5 + i, 2e4, metric,
                                    stamps[i % len(stamps)]))) for i, metric in enumerate(metrics * 2)]
    path = tmp_path / f"runs{suffix}"
    path.write_text(json.dumps(rows) if suffix == ".json" else "\n".join(
        [",".join(RUNS_COLUMNS), *(",".join(map(str, row.values())) for row in rows)]) + "\n")
    return path


class TestRunsEdgeCellsAgainstReference:
    """Edge cells give the reference's RunTable bit for bit, or its RowError text, at every block size."""

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_valid_cells(self, tmp_path, suffix):
        path = edge_runs(tmp_path, JSON_EDGE_METRICS if suffix == ".json" else EDGE_METRICS, EDGE_STAMPS, suffix)
        same_as_reference_at_every_block_size(lambda: run_table_outcome(path),
                                              table_cells(ingest.RunTable.from_records(ref.parse_runs(path))))

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_bad_cells(self, tmp_path, suffix):
        # The bad timestamp is on every sixth row, so in many blocks.
        metrics = [*EDGE_METRICS, *BAD_METRICS] if suffix == ".csv" else [*JSON_EDGE_METRICS, *JSON_BAD_METRICS]
        path = edge_runs(tmp_path, metrics, [*EDGE_STAMPS, "2018-13-01T00:00:00Z"], suffix)
        expected = outcome(ref.parse_runs, path)
        assert expected[0] == "RowError"
        same_as_reference_at_every_block_size(lambda: run_table_outcome(path), expected)


NUMBERS = st.floats(0, exclude_min=True, allow_infinity=False)  # subnormals included
# Cells with ',' or '"' are quoted when written. No blank, which the reader strips at a cell's ends, and no '#',
# which starts a comment line.
TEXTS = st.text("abXY09-_./,\"", max_size=5)


@st.composite
def run_records(draw):
    """A RunRecord whose numbers may be Python ints and floats or numpy scalars."""
    def number(values, numpy_type):
        return draw(st.one_of(values, values.map(numpy_type)))

    counts = st.integers(1, 2**63 - 1)
    metric = st.builds(ingest.AppMetric, st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                                   st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
                                                   st.integers(-10**6, 10**6)),
                       st.sampled_from(["", "MLUP/s", "GFlop/s", "time steps"]))
    return ingest.RunRecord(draw(TEXTS), draw(TEXTS), draw(TEXTS), number(counts, np.int64), number(counts, np.int64),
                            number(st.one_of(NUMBERS, st.integers(1, 10**6)), np.float64),
                            draw(st.one_of(st.none(), NUMBERS, NUMBERS.map(np.float64))), draw(st.none() | metric),
                            draw(st.sampled_from(EDGE_STAMPS)))


class TestRecordsAsRead:
    """RunTable.from_records(records) is the table parse_runs reads from serialize_runs(records)."""

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(run_records(), max_size=8))
    def test_same_columns_and_dtypes(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("records") / "runs.csv"
        path.write_text(ingest.serialize_runs(records), encoding="utf-8")
        assert table_cells(ingest.RunTable.from_records(records)) == table_cells(parse_runs(path))

    def test_no_records(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(ingest.serialize_runs([]), encoding="utf-8")
        assert table_cells(ingest.RunTable.from_records([])) == table_cells(parse_runs(path))

    def test_a_numpy_float_is_written_as_its_float(self):
        record = ingest.RunRecord("tx2", "lbc", "gnu", 1, 64, np.float64(1.5), np.float64(2.0),
                                  ingest.AppMetric(np.float64(5.0), "MLUP/s"))
        assert ingest.serialize_runs([record]).splitlines()[1] == "tx2,lbc,gnu,1,64,1.5,2.0,5.0 MLUP/s,"


INTENSITIES = st.one_of(st.floats(0, 1e4), st.floats(0, 1e308),
                        st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e308]))
# Measurements so small that the headroom overflows are drawn often, so that one list holds several.
MEASUREMENTS = st.one_of(st.none(), st.floats(0, 1e4), st.sampled_from([0.0, 5e-324, 1e-320, 1e-310, 1e308]),
                         st.sampled_from([5e-324, 1e-320]))
PEAKS = st.one_of(st.floats(1e-3, 1e6), st.just(1e300))


class TestClassifyManyAgainstPerPoint:
    @settings(max_examples=400, deadline=None)
    @given(peaks=st.tuples(PEAKS, PEAKS), rows=st.lists(st.tuples(INTENSITIES, MEASUREMENTS), max_size=12))
    def test_same_verdicts_or_first_error(self, peaks, rows):
        model = build_roofline(*peaks)
        points = [KernelPoint(f"k{i}", intensity, measured) for i, (intensity, measured) in enumerate(rows)]
        try:
            expected, failure = [ref.classify(model, p) for p in points], None
        except ParameterError as exc:
            failure = str(exc)
        measured = np.array([math.nan if m is None else m for _, m in rows], dtype=float)
        try:
            bound, sustained, headroom, above_roof = classify_many(
                model, [p.label for p in points], np.array([i for i, _ in rows], dtype=float), measured)
        except ParameterError as exc:
            assert str(exc) == failure
            return
        assert failure is None
        assert bound == [c.bound for c in expected]
        assert [v.hex() for v in sustained.tolist()] == [float(c.sustained).hex() for c in expected]
        assert [None if math.isnan(v) else v.hex() for v in headroom.tolist()] == \
            [None if c.headroom is None else c.headroom.hex() for c in expected]
        assert above_roof.tolist() == [c.above_roof for c in expected]
        assert [repr(classify(model, p)) for p in points] == list(map(repr, expected))


# Recorded with the row-at-a-time reader, before the pairwise path was made
# column-wise. The fixture has pairs measured in one and in both directions,
# an asymmetric pair, a directed pair measured twice, MB/s rows, and rows at a
# second message size.
MIXED_NETWORK = (
    ["analyze", "network", "--in", "{fx}/pairwise_mixed.csv", "--message-size", "4096",
     "--out-dir", "{out}"],
    {
        "stdout": "19c7a0b32f4527f7e043963b96221e2f4ec334c24307e82a0eb099bebcfdb506",
        "node_medians.csv": "92aff324d607f6e040c46b621c93c1c11d0c948a0632890d2562b6b82b6c81c6",
        "weak_links.csv": "0aefda272b74f0f55d405909d71ffc8dd95e4d7f6c8f4182a65d23645a1a9c63",
    },
)


def test_mixed_network_outputs_match_recorded_digests(fixtures_dir, tmp_path):
    argv, expected = MIXED_NETWORK
    assert digests(argv, fixtures_dir, tmp_path) == expected
