"""Block edges: every reader gives the same result, or the same error, at every block size.

``read_columns`` hands its parsers about ``BLOCK_ROWS`` rows at a time. Drawn
files are read with the smallest block size, a few small ones and the
default, and compared with a read in one block: the line numbers, cells,
records, matrices, groups, points and error texts must all be equal. Runs
and kernel points are also compared with the row-at-a-time reference, as a
reader checks a block's numbers on each column's (least, greatest).
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from perfchar import ingest, report
from perfchar.exceptions import RowError
from perfchar.ingest import (
    RUNS_COLUMNS,
    parse_kernel_points,
    parse_pairwise_bandwidth,
    parse_runs,
    parse_share_groups,
)
from test_ingest import read_all
from test_ingest_columns import (
    kernel_outcome,
    matrix_outcome,
    outcome,
    pairwise_csv,
    reference_kernels,
    run_row,
    runs_json,
    share_outcome,
    table_cells,
)

BLOCK_SIZES = (1, 2, 3, report.BLOCK_ROWS)

# Every break str.splitlines knows; "\n" most often, so that blocks have edges to cut at.
BREAKS = st.sampled_from(["\n"] * 8 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])


def same_at_every_block_size(read):
    """``read()`` gives at every block size what it gives in one block."""
    with mock.patch.object(ingest, "BLOCK_ROWS", 1 << 30):
        expected = read()
    for block in BLOCK_SIZES:
        with mock.patch.object(ingest, "BLOCK_ROWS", block):
            assert read() == expected, f"BLOCK_ROWS = {block}"
    return expected


def rebroken(draw, text):
    """``text`` with each "\\n" replaced by a line break drawn from BREAKS."""
    return "".join(line + draw(BREAKS) for line in text.split("\n")[:-1])


@st.composite
def runs_file(draw):
    """Runs rows, ragged, quoted and bad ones too, among comment and blank lines; a column may repeat."""
    header = [*RUNS_COLUMNS, *draw(st.sampled_from([(), ("energy_j",), ("app", "extra")]))]
    lines = ["# leading note", ",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["# comment", "  # indented", "", "   "]))
        lines.append(run_row(draw) if kind == "row" else kind)
    return rebroken(draw, "\n".join(lines) + "\n")


SHARE_CELLS = st.sampled_from(["16", "32.5", " 64 ", "", "nan", "inf", "x", '"1,5"', '"7\n"'])


@st.composite
def shares_file(draw):
    lines = ["app,platform,procs,lb_share_pct,com_share_pct"]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 5 + ["# c", ""]))
        cells = [draw(st.sampled_from(["a", "b"])), draw(st.sampled_from(["p", " q", '"r,s"'])),
                 *(draw(SHARE_CELLS) for _ in range(3))]
        lines.append(",".join(cells[:draw(st.integers(1, 5))]) if kind == "row" else kind)
    return rebroken(draw, "\n".join(lines) + "\n")


# A block's rules are checked on each column's (least, greatest): NaN, -0.0 and the extreme floats and
# counts are the edges of that check.
POINT_CELLS = st.sampled_from(["", "", "0.5", "12", "1e3", "-1", "inf", "x", '"2.5"', "nan", "-0.0", "5e-324",
                               "1e308"])
ACCESS_CELLS = st.sampled_from(["", "0", "8", "9223372036854775808"])


@st.composite
def kernels_file(draw):
    lines = ["label,intensity,flops,loads,stores,access_bytes,gflops,time_share_pct"]
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 5 + ["# c", ""]))
        cells = [f"k{i}", *(draw(POINT_CELLS) for _ in range(4)), draw(ACCESS_CELLS),
                 *(draw(POINT_CELLS) for _ in range(2))]
        lines.append(",".join(cells) if kind == "row" else kind)
    return rebroken(draw, "\n".join(lines) + "\n")


def written(tmp_path_factory, text, name):
    path = tmp_path_factory.mktemp("blocks") / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


class TestEveryBlockSize:
    @settings(max_examples=200, deadline=None)
    @given(text=runs_file())
    def test_runs_csv(self, tmp_path_factory, text):
        path = written(tmp_path_factory, text, "runs.csv")
        same_at_every_block_size(lambda: outcome(read_all, path, RUNS_COLUMNS, ("extra", "none")))
        same_at_every_block_size(lambda: outcome(lambda: table_cells(parse_runs(path))))
        assert outcome(lambda: list(parse_runs(path))) == outcome(ref.parse_runs, path)

    @settings(max_examples=100, deadline=None)
    @given(text=runs_json())
    def test_runs_json(self, tmp_path_factory, text):
        path = written(tmp_path_factory, text, "runs.json")
        same_at_every_block_size(lambda: outcome(lambda: table_cells(parse_runs(path))))
        assert outcome(lambda: list(parse_runs(path))) == outcome(ref.parse_runs, path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pairwise_csv(self, tmp_path_factory, data):
        path = written(tmp_path_factory, rebroken(data.draw, data.draw(pairwise_csv())), "pairs.csv")
        for size in (None, 4096, 65536):
            same_at_every_block_size(lambda: matrix_outcome(parse_pairwise_bandwidth, path, message_size=size))

    @settings(max_examples=100, deadline=None)
    @given(text=shares_file())
    def test_shares(self, tmp_path_factory, text):
        path = written(tmp_path_factory, text, "shares.csv")
        same_at_every_block_size(lambda: share_outcome(parse_share_groups, path, ("app", "platform")))

    @settings(max_examples=100, deadline=None)
    @given(text=kernels_file())
    def test_kernel_points(self, tmp_path_factory, text):
        path = written(tmp_path_factory, text, "kernels.csv")
        assert same_at_every_block_size(lambda: kernel_outcome(parse_kernel_points, path)) == \
            kernel_outcome(reference_kernels, path)


RUNS_HEADER = ",".join(RUNS_COLUMNS)


def test_block_edge_does_not_split_a_quoted_row(tmp_path):
    # With one row per block, the second line of the quoted platform would start a block.
    path = tmp_path / "runs.csv"
    path.write_text(f'{RUNS_HEADER}\nmn4,alya,gnu,2,48,5.0,,,\n"tx2,\nrack 1",alya,gnu,1,64,10.0,,,\n'
                    "mn4,alya,gnu,4,48,3.0,,,\n")
    with mock.patch.object(ingest, "BLOCK_ROWS", 1):
        runs = parse_runs(path)
    assert runs.platform == ["mn4", "tx2,rack 1", "mn4"]
    assert runs.nodes.tolist() == [2, 1, 4]


def test_bad_rows_of_different_blocks_are_one_error_in_file_order(tmp_path):
    good = "p,a,c,1,1,10.0,,,"
    path = tmp_path / "runs.csv"
    path.write_text("\n".join([RUNS_HEADER, "p,a,c,0,1,10.0,,,", good, good, "# note", good,
                               "p,a,c,1,1,-1,,,", good]) + "\n")
    message = same_at_every_block_size(lambda: outcome(parse_runs, path))
    assert message[:2] == ("RowError", "2 invalid row(s): line 2: nodes must be >= 1; "
                                       "line 7: time must be finite and > 0")


def test_a_declined_block_whose_rows_all_pass_is_an_error():
    blocks = [(range(2, 4), [["a", "b"], ["1", "2"]]), (range(5, 7), [["c", "d"], ["3", "4"]])]

    def convert(cells):  # refuses the second block whole, and neither of its rows
        if cells[0] == ["c", "d"]:
            raise ValueError("declined")
        return cells

    with pytest.raises(RuntimeError, match="^line 5: the column check declined a block whose rows all pass$"):
        ingest._each_block(blocks, convert)


def test_a_reader_never_drops_a_declined_block(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("\n".join([RUNS_HEADER, "# note", "p,a,c,1,1,10.0,,,", "p,a,c,2,1,5.0,,,"]) + "\n")
    run_table = ingest._run_table

    def refuse_two_rows_or_more(cells, *rest):
        if len(cells[0]) > 1:
            raise ValueError("declined")
        return run_table(cells, *rest)

    with mock.patch.object(ingest, "_run_table", side_effect=refuse_two_rows_or_more):
        with pytest.raises(RuntimeError, match="^line 3: "):
            parse_runs(path)


@pytest.mark.parametrize("bad, most", [([1000], 25), ([1, 4096], 47)])
def test_halving_converts_a_block_about_twice_per_level_per_bad_row(bad, most):
    # A refused block of 4,096 rows is halved down to each bad row: 12 levels, two conversions each.
    lines = range(1, 4097)
    cells = [[str(-line if line in bad else line) for line in lines]]
    calls = []

    def convert(cells):
        calls.append(len(cells[0]))
        if min(map(int, cells[0])) < 0:
            raise ValueError("negative")
        return cells

    with pytest.raises(RowError) as info:
        ingest._each_block([(lines, cells)], convert)
    assert info.value.failures == tuple((line, "negative") for line in bad)
    assert len(calls) <= most


def test_equal_texts_are_one_object_across_blocks(tmp_path):
    path = tmp_path / "runs.csv"
    rows = [f"{platform},alya,gnu,{n},1,1.5,,{n} MLUP/s,2020-01-01" for n in range(1, 9)
            for platform in ("tx2", "skl")]
    path.write_text("\n".join([RUNS_HEADER, *rows]) + "\n")
    with mock.patch.object(ingest, "BLOCK_ROWS", 3):
        runs = parse_runs(path)
    for column in (runs.platform, runs.app, runs.compiler, runs.metric_unit, runs.timestamp):
        assert len(set(map(id, column))) == len(set(column))


def test_json_entries_are_numbered_across_blocks(tmp_path):
    path = tmp_path / "runs.json"
    entries = [dict(zip(RUNS_COLUMNS, ["p", "a", "c", n, 1, 1.0, None, None, None])) for n in (1, 0, 2, 0)]
    path.write_text(json.dumps(entries))
    with mock.patch.object(ingest, "BLOCK_ROWS", 1), pytest.raises(RowError) as info:
        parse_runs(path)
    assert [line for line, _ in info.value.failures] == [2, 4]


def test_pairwise_parse_holds_one_block_at_a_time(tmp_path):
    # 320 nodes, every pair in one direction at two message sizes: 102,080 rows, 3.4 MB of text.
    n, rng = 320, np.random.default_rng(1)
    first, second = np.triu_indices(n, 1)
    lines = ["node_a,node_b,msg_bytes,bandwidth_gbs"]
    for size, base in ((4096, 6.0), (65536, 11.5)):
        values = base * (1.0 + rng.uniform(-0.03, 0.03, len(first)))
        lines += [f"n{a:03d},n{b:03d},{size},{v!r}" for a, b, v in zip(first.tolist(), second.tolist(),
                                                                         values.tolist())]
    path = tmp_path / "pairs.csv"
    path.write_text("\n".join(lines) + "\n")
    del lines
    parse_pairwise_bandwidth(path, message_size=4096)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        matrix = parse_pairwise_bandwidth(path, message_size=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matrix.node_ids) == n
    assert peak <= 11 * 2**20
