"""The column-wise ingest path against the row-at-a-time reference.

``ingest_reference`` keeps the runs and pairwise readers, the aggregation and
the weak-link search as first written. On drawn files the column-wise code
must accept and reject the same rows with the same messages, and give
bit-identical records, group statistics, matrices, warnings and links.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from perfchar.ingest import (
    RUNS_COLUMNS,
    build_pairwise_matrix,
    detect_weak_links,
    parse_pairwise_bandwidth,
    parse_runs,
)
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
                     "99999999999999999999"]),
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


def test_mixed_network_outputs_match_recorded_digests(fixtures_dir, tmp_path, capsys):
    argv, expected = MIXED_NETWORK
    assert digests(argv, fixtures_dir, tmp_path, capsys) == expected
