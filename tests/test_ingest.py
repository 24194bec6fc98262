import csv
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from perfchar import (
    AppMetric,
    RunRecord,
    RunTable,
    detect_weak_links,
    parse_pairwise_bandwidth,
    parse_runs,
    serialize_runs,
)
from perfchar.exceptions import (
    IncompleteMatrixError,
    InvalidDataError,
    ParameterError,
    RowError,
    SchemaError,
)
from perfchar import ingest, report
from perfchar.ingest import MAX_GBS, PairwiseBandwidthMatrix, build_pairwise_matrix, read_columns
from test_grouping import stats_by_key

RUNS_HEADER = "platform,app,compiler,nodes,ranks_per_node,time_s,energy_j,app_metric,timestamp"


def write_runs(tmp_path, *rows, name="runs.csv"):
    path = tmp_path / name
    path.write_text("\n".join([RUNS_HEADER, *rows]) + "\n")
    return path


def record(time=10.0, **overrides) -> RunRecord:
    base = dict(
        platform="p", app="a", compiler="c", nodes=1, ranks_per_node=1, time=time
    )
    base.update(overrides)
    return RunRecord(**base)


class TestParseRuns:
    def test_header_only(self, tmp_path):
        assert list(parse_runs(write_runs(tmp_path))) == []

    def test_energy_row(self, tmp_path):
        path = write_runs(
            tmp_path, "dibona-tx2,alya,gnu,1,64,347.40,90170,,2018-11-01T00:00:00Z"
        )
        (rec,) = parse_runs(path)
        assert rec.time == 347.40
        assert rec.energy == 90170.0
        assert rec.energy / 1000.0 == pytest.approx(90.17)
        assert rec.app_metric is None

    def test_rate_metric_parsed(self, tmp_path):
        path = write_runs(
            tmp_path, "dibona-tx2,lbc,gnu,1,64,251.64,82200,266.7 MLUP/s,2018-11-01T01:00:00Z"
        )
        (rec,) = parse_runs(path)
        assert rec.app_metric == AppMetric(266.7, "MLUP/s")
        assert rec.app_metric.is_rate()

    def test_zero_time_is_row_error(self, tmp_path):
        path = write_runs(tmp_path, "p,a,c,1,1,0,,,2018-11-01T00:00:00Z")
        with pytest.raises(RowError) as err:
            parse_runs(path)
        assert err.value.failures[0][0] == 2  # line number of the bad row

    def test_all_bad_rows_reported(self, tmp_path):
        path = write_runs(
            tmp_path,
            "p,a,c,1,1,0,,,2018-11-01T00:00:00Z",
            "p,a,c,1,1,10,,,2018-11-01T00:00:00Z",
            "p,a,c,0,1,10,,,2018-11-01T00:00:00Z",
        )
        with pytest.raises(RowError) as err:
            parse_runs(path)
        assert [line for line, _ in err.value.failures] == [2, 4]

    def test_line_numbers_account_for_comments(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text(
            "# a note\n"
            f"{RUNS_HEADER}\n"
            "# another note\n"
            "p,a,c,1,1,0,,,2018-11-01T00:00:00Z\n"
        )
        with pytest.raises(RowError) as err:
            parse_runs(path)
        assert err.value.failures[0][0] == 4  # physical line in the file

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("platform,app,compiler\nx,y,z\n")
        with pytest.raises(SchemaError):
            parse_runs(path)

    def test_json_input(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "platform": "p", "app": "a", "compiler": "c",
                        "nodes": 2, "ranks_per_node": 4, "time_s": 12.5,
                        "energy_j": None, "app_metric": "100.0 MLUP/s",
                        "timestamp": "2020-01-01T00:00:00+00:00",
                    }
                ]
            )
        )
        (rec,) = parse_runs(path)
        assert rec.nodes == 2
        assert rec.app_metric.value == 100.0

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["time", "energy", "app_metric"])
    def test_non_finite_record_rejected(self, field, value):
        fields = {"time": 10.0, "energy": 500.0, "app_metric": AppMetric(1.0, "MLUP/s")}
        fields[field] = AppMetric(value, "MLUP/s") if field == "app_metric" else value
        with pytest.raises(ParameterError):
            record(**fields)

    def test_blank_json_app_metric_is_row_error(self, tmp_path):
        entry = {"platform": "p", "app": "a", "compiler": "c", "nodes": 1,
                 "ranks_per_node": 1, "time_s": 10.0, "energy_j": None,
                 "app_metric": "100.0 MLUP/s", "timestamp": ""}
        path = tmp_path / "runs.json"
        path.write_text(json.dumps([entry, {**entry, "app_metric": " "}]))
        with pytest.raises(RowError, match="1 invalid row.*line 2: could not convert"):
            parse_runs(path)

    @pytest.mark.parametrize("nodes,ranks", [(str(10**400), "1"), ("1", str(2**63)),
                                             (str(-10**400), "1")],
                             ids=["nodes-1e400", "ranks-2^63", "nodes-minus-1e400"])
    def test_count_beyond_int64_is_row_error(self, tmp_path, nodes, ranks):
        path = write_runs(tmp_path, "p,a,c,1,1,10,,,", f"p,a,c,{nodes},{ranks},10,,,")
        with pytest.raises(RowError, match="1 invalid row.*line 3:"):
            parse_runs(path)

    def test_largest_int64_count_is_accepted(self, tmp_path):
        (rec,) = parse_runs(write_runs(tmp_path, f"p,a,c,{2**63 - 1},1,10,,,"))
        assert rec.nodes == 2**63 - 1

    def test_bad_timestamp(self, tmp_path):
        path = write_runs(tmp_path, "p,a,c,1,1,10,,,yesterday")
        with pytest.raises(RowError):
            parse_runs(path)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="datetime.fromisoformat takes these from Python 3.11")
    @pytest.mark.parametrize("stamp", ["2019-01-01T00:00:00.5+00:00", "20190101T000000", "2019-01-01T00:00:00.5Z"])
    def test_timestamps_that_python_3_11_accepts(self, tmp_path, stamp):
        (rec,) = parse_runs(write_runs(tmp_path, f"p,a,c,1,1,10,,,{stamp}"))
        assert rec.timestamp == stamp

    def test_fixture_round_trip(self, tmp_path, fixtures_dir):
        records = parse_runs(fixtures_dir / "energy_node_runs.csv")
        assert len(records) == 20
        out = tmp_path / "canonical.csv"
        out.write_text(serialize_runs(records))
        assert list(parse_runs(out)) == list(records)

    def test_run_table_slices_and_compares_as_records(self, fixtures_dir):
        runs = parse_runs(fixtures_dir / "energy_node_runs.csv")
        records = list(runs)
        assert isinstance(runs[2:6], RunTable)
        assert list(runs[2:6]) == records[2:6]
        assert list(runs[::-3]) == records[::-3]
        assert runs[-1] == records[-1]


def stats(records):
    """The statistics of the one group (a, p, c) of ``records``, by group_stats."""
    return stats_by_key(RunTable.from_records(records))[("a", "p", "c")]


class TestAggregate:
    def test_mean_and_sample_stddev(self):
        records = [record(time=t) for t in (1.0, 2.0, 3.0)]
        group = stats(records)
        assert group.mean == 2.0
        assert group.stddev == pytest.approx(1.0)
        assert group.n == 3

    def test_single_record(self):
        group = stats([record(time=5.0)])
        assert group.stddev == 0.0
        assert group.n == 1

    def test_identical_pair(self):
        group = stats([record(time=5.0), record(time=5.0)])
        assert group.stddev == 0.0

    def test_mean_within_group_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            times = rng.uniform(1.0, 100.0, rng.integers(1, 12))
            group = stats([record(time=float(t)) for t in times])
            assert min(times) <= group.mean <= max(times)

    def test_stddev_shift_invariant(self):
        rng = np.random.default_rng(4)
        times = rng.uniform(10.0, 20.0, 8)
        base = stats([record(time=float(t)) for t in times])
        shifted = stats([record(time=float(t + 123.0)) for t in times])
        assert shifted.stddev == pytest.approx(base.stddev, rel=1e-9)

    def test_overflowing_spread_is_invalid_data(self):
        with pytest.raises(InvalidDataError, match="time values of group a/p/c overflow"):
            stats([record(time=t) for t in (1e200, 1.0)])

    def test_overflowing_sum_keeps_inf_statistics(self):
        group = stats([record(time=1.7e308)] * 2)
        assert group.mean == math.inf and group.stddev == math.inf


PAIRWISE_HEADER = "node_a,node_b,msg_bytes,bandwidth_gbs"


def write_pairwise(tmp_path, *rows, header=PAIRWISE_HEADER, name="pairs.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


class TestPairwiseMatrix:
    def test_two_nodes_mirror(self, tmp_path):
        path = write_pairwise(tmp_path, "n1,n2,4096,9.5")
        matrix = parse_pairwise_bandwidth(path)
        assert matrix.node_ids == ("n1", "n2")
        assert matrix.pair_value("n1", "n2") == 9.5
        assert matrix.pair_value("n2", "n1") == 9.5
        assert np.isnan(matrix.bandwidth[0, 0])

    def test_missing_pair_named(self, tmp_path):
        rows = ["n1,n2,4096,9.5", "n1,n3,4096,9.5", "n1,n4,4096,9.5", "n2,n3,4096,9.5", "n2,n4,4096,9.5"]
        path = write_pairwise(tmp_path, *rows)
        with pytest.raises(IncompleteMatrixError) as err:
            parse_pairwise_bandwidth(path)
        assert ("n3", "n4") in err.value.missing_pairs

    def test_bidirectional_average_and_warning(self, tmp_path):
        path = write_pairwise(tmp_path, "n1,n2,4096,10.0", "n2,n1,4096,8.0")
        matrix = parse_pairwise_bandwidth(path)
        assert matrix.pair_value("n1", "n2") == 9.0
        assert len(matrix.asymmetry_warnings) == 1

    def test_close_directions_do_not_warn(self, tmp_path):
        path = write_pairwise(tmp_path, "n1,n2,4096,10.0", "n2,n1,4096,9.8")
        assert parse_pairwise_bandwidth(path).asymmetry_warnings == ()

    def test_mbs_unit_converted(self, tmp_path):
        path = write_pairwise(
            tmp_path, "n1,n2,4096,9500,MB/s", header=PAIRWISE_HEADER + ",unit"
        )
        assert parse_pairwise_bandwidth(path).pair_value("n1", "n2") == pytest.approx(9.5)

    def test_multiple_sizes_need_selection(self, tmp_path):
        path = write_pairwise(tmp_path, "n1,n2,4096,9.5", "n1,n2,8192,10.5")
        with pytest.raises(SchemaError):
            parse_pairwise_bandwidth(path)
        assert parse_pairwise_bandwidth(path, message_size=4096).pair_value("n1", "n2") == 9.5
        assert parse_pairwise_bandwidth(path, message_size=8192).pair_value("n1", "n2") == 10.5

    def test_only_selected_size_is_assembled(self, tmp_path):
        # n3 appears only at 8192 B, so that matrix lacks (n2, n3).
        path = write_pairwise(tmp_path, "n1,n2,4096,9.5", "n1,n2,8192,10.5", "n3,n1,8192,10.0")
        assert parse_pairwise_bandwidth(path, message_size=4096).node_ids == ("n1", "n2")
        with pytest.raises(IncompleteMatrixError) as err:
            parse_pairwise_bandwidth(path, message_size=8192)
        assert err.value.missing_pairs == (("n2", "n3"),)

    def test_json_pairwise_input(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(
            json.dumps(
                [
                    {"node_a": "n1", "node_b": "n2", "msg_bytes": 4096, "bandwidth_gbs": 9.5},
                    {"node_a": "n2", "node_b": "n1", "msg_bytes": 4096, "bandwidth_gbs": 9.5},
                ]
            )
        )
        assert parse_pairwise_bandwidth(path).pair_value("n1", "n2") == 9.5

    def test_fixture_row_medians_match_generator(self, fixtures_dir):
        matrix = parse_pairwise_bandwidth(fixtures_dir / "pairwise_8node.csv")
        assert matrix.node_ids == tuple(f"node{i:02d}" for i in range(1, 9))
        for i in range(8):
            assert matrix.row_medians[i] == 9.5


@st.composite
def bounded_matrices(draw):
    """Symmetric bandwidth matrices of 3 to 320 nodes, values in [5e-324, MAX_GBS], NaN diagonal."""
    n = draw(st.integers(3, 320))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = rng.uniform(math.log(5e-324), math.log(MAX_GBS), (n, n))
    edges = np.array([5e-324, 1e-310, 1.0, 8.9e307, MAX_GBS])
    values = np.where(rng.random((n, n)) < draw(st.floats(0, 1)), rng.choice(edges, (n, n)), np.exp(exponents))
    upper = np.triu(np.clip(values, 5e-324, MAX_GBS), 1)
    bandwidth = upper + upper.T
    np.fill_diagonal(bandwidth, np.nan)
    return PairwiseBandwidthMatrix(tuple(f"n{i}" for i in range(n)), bandwidth, 4096)


class TestRowMedians:
    @settings(max_examples=100, deadline=None)
    @given(matrix=bounded_matrices())
    def test_matches_one_median_per_row(self, matrix):
        per_row = np.array([np.nanmedian(row) for row in matrix.bandwidth])
        assert np.isfinite(matrix.row_medians).all()
        assert matrix.row_medians.tobytes() == per_row.tobytes()


class TestWeakLinks:
    def build_uniform(self, n=8, value=10.0):
        entries = [
            (f"n{i}", f"n{j}", value) for i in range(n) for j in range(i + 1, n)
        ]
        return build_pairwise_matrix(entries, 4096)

    def test_uniform_matrix_clean(self):
        assert detect_weak_links(self.build_uniform()) == []

    def test_planted_pair_is_unique_detection(self, fixtures_dir):
        matrix = parse_pairwise_bandwidth(fixtures_dir / "pairwise_8node.csv")
        links = detect_weak_links(matrix, threshold=0.10)
        assert len(links) == 1
        assert (links[0].node_a, links[0].node_b) == ("node02", "node07")
        assert links[0].deficit == pytest.approx(0.15, abs=0.001)

    def test_threshold_zero_lists_every_below_median_pair(self):
        entries = [("a", "b", 10.0), ("a", "c", 9.0), ("b", "c", 11.0)]
        matrix = build_pairwise_matrix(entries, 4096)
        links = detect_weak_links(matrix, threshold=0.0)
        pairs = {(w.node_a, w.node_b) for w in links}
        assert pairs == {("a", "b"), ("a", "c")}

    def test_scale_invariance(self, fixtures_dir):
        matrix = parse_pairwise_bandwidth(fixtures_dir / "pairwise_8node.csv")
        scaled = type(matrix)(
            node_ids=matrix.node_ids,
            bandwidth=matrix.bandwidth * 3.0,
            message_size=matrix.message_size,
        )
        original = detect_weak_links(matrix)
        rescaled = detect_weak_links(scaled)
        assert [(w.node_a, w.node_b) for w in rescaled] == [
            (w.node_a, w.node_b) for w in original
        ]
        for a, b in zip(original, rescaled):
            assert b.deficit == pytest.approx(a.deficit, rel=1e-12)

    def test_self_pair_rejected(self):
        with pytest.raises(ParameterError):
            build_pairwise_matrix([("a", "a", 5.0)], 4096)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1, 1.0, 2.0])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ParameterError, match="threshold"):
            detect_weak_links(self.build_uniform(), threshold=threshold)


def dict_reader_rows(text, columns, optional=()):
    """The row reader as first written, on csv.DictReader: the reference for read_columns."""
    kept = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if not line.lstrip().startswith("#")
    ]
    reader = csv.DictReader(line for _, line in kept)
    for row in reader:
        row = {k: (v or "").strip() for k, v in row.items() if k is not None}
        yield kept[min(reader.line_num, len(kept)) - 1][0], [
            row.get(name, "") for name in (*columns, *optional)
        ]


def read_all(path, columns, optional=()):
    """The blocks of read_columns joined: every row's line number, and each column's cells."""
    blocks = list(read_columns(path, columns, optional))
    return ([line for lines, _ in blocks for line in lines],
            [[cell for _, cells in blocks for cell in cells[i]] for i in range(len(columns) + len(optional))])


csv_fields = st.sampled_from(["a", " b ", "", "1.5", '"q,x"', '"two\nlines"', "c\td"])
csv_lines = st.one_of(
    st.lists(csv_fields, min_size=1, max_size=6).map(",".join),
    st.sampled_from(["", "# note", "  # indented note", "   "]),
)


# No quotes: with these the reader splits lines on commas. Splitting the text
# into lines also breaks at \x0b, \x1c and \u2028.
plain_fields = st.sampled_from(["a", " b ", "", "1.5", "c\td", "\x00", "é ü", "名前", "p\x0bq",
                                "r\x1cs", "\u2028", "\xa0t\xa0"])


@st.composite
def plain_csv(draw):
    """(header, text): rows all of the header's width, or of any width, among blank and comment lines."""
    header = draw(st.lists(st.sampled_from(["x", "y", "z", "u"]), min_size=2, max_size=4))
    ragged = draw(st.booleans())
    lines = ["# leading note", ",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 5 + ["", "   ", "\t", "# note", "  # indented note"]))
        width = draw(st.integers(1, 7)) if ragged else len(header)
        fields = draw(st.lists(plain_fields, min_size=width, max_size=width))
        lines.append(",".join(fields) if kind == "row" else kind)
    return header, "\n".join(lines) + "\n"


EDGES = st.text(st.sampled_from([" ", "\t", "\x1f", "\xa0", "\u3000"]), max_size=2)


@st.composite
def edged_csv(draw):
    """(header, text): quote-free rows of 1 to 4 columns, cells edged by blanks, among blank and comment
    lines, with rows that are short, long, or a pair whose comma counts are off in opposite directions."""
    header = ["x", "y", "z", "u"][:draw(st.integers(1, 4))]
    width = len(header)

    def row(fields):
        return ",".join(draw(EDGES) + draw(st.sampled_from(["a", "1.5", "", "b c", "é"])) + draw(EDGES)
                        for _ in range(fields))

    lines = ["# leading note", ",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "pair", "", "   ", "# note"]))
        if kind == "pair" and width > 1:
            lines += [row(width - 1), row(width + 1)][::draw(st.sampled_from([1, -1]))]
        elif kind == "short":
            lines.append(row(max(width - 1, 1)))
        elif kind == "long":
            lines.append(row(width + draw(st.integers(1, 3))))
        else:
            lines.append(row(width) if kind in ("row", "pair") else kind)
    return header, "".join(line + draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\x0b", "\u2028"])) for line in lines)


class TestReadColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        header=st.permutations(["x", "y", "z", "u"]).flatmap(
            lambda names: st.integers(2, 4).map(lambda n: names[:n])
        ),
        lines=st.lists(csv_lines, max_size=8),
    )
    def test_matches_dict_reader(self, tmp_path_factory, header, lines):
        text = "\n".join(["# leading note", ",".join(header), *lines]) + "\n"
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        path.write_text(text)
        columns, optional = tuple(header[:2]), ("u", "y", "w")
        lines, cells = read_all(path, columns, optional)
        assert list(zip(lines, map(list, zip(*cells)))) == list(
            dict_reader_rows(text, columns, optional)
        )

    @settings(max_examples=300, deadline=None)
    @given(drawn=plain_csv())
    def test_quote_free_text_matches_dict_reader(self, tmp_path_factory, drawn):
        header, text = drawn
        assert '"' not in text
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        path.write_text(text, encoding="utf-8")
        columns, optional = tuple(header[:2]), ("u", "y", "w")
        try:
            expected = list(dict_reader_rows(text, columns, optional))
        except csv.Error:  # a NUL, before Python 3.11
            with pytest.raises(SchemaError):
                read_all(path, columns, optional)
            return
        lines, cells = read_all(path, columns, optional)
        assert list(zip(lines, map(list, zip(*cells)))) == expected

    @settings(max_examples=300, deadline=None)
    @given(drawn=edged_csv())
    def test_quote_free_text_matches_csv_reader_at_every_block_size(self, tmp_path_factory, drawn):
        header, text = drawn
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        path.write_text(text, encoding="utf-8", newline="")
        columns, optional = tuple(header[:1]), ("u", "y", "w")
        expected = list(ref.read_rows(path, columns, optional))  # csv.reader, then str.strip on each cell
        for block in (1, 2, 3, report.BLOCK_ROWS):
            with mock.patch.object(ingest, "BLOCK_ROWS", block):
                lines, cells = read_all(path, columns, optional)
            assert list(zip(lines, map(list, zip(*cells)))) == expected, f"BLOCK_ROWS = {block}"

    def test_duplicate_column_reads_last(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y,x\n1,2,3\n")
        lines, cells = read_all(path, ("x", "y"))
        assert (list(lines), cells) == ([2], [["3"], ["2"]])
