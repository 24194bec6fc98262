"""Fast tests of the benchmark itself: inputs, output checks and tiny runs.

Run from the repository root with ``python3 -m pytest perfbench``; the
project's own suite (``tests/``) does not collect them.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from perfchar.cli import main as cli_main  # noqa: E402

TINY = inputs.SIZES["tiny"]
SIZE = inputs.MESSAGE_SIZES[0]


def test_same_seed_gives_identical_inputs(tmp_path):
    first = inputs.write_inputs(7, TINY, tmp_path / "a")
    second = inputs.write_inputs(7, TINY, tmp_path / "b")
    other = inputs.write_inputs(8, TINY, tmp_path / "c")
    for kind, paths in first.paths.items():
        for part, path in enumerate(paths):
            assert path.read_bytes() == second.paths[kind][part].read_bytes(), (kind, part)
            assert path.read_bytes() != other.paths[kind][part].read_bytes(), (kind, part)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Tiny inputs, every CLI call run once, and the truth to check against."""
    base = tmp_path_factory.mktemp("outputs")
    inp = inputs.write_inputs(3, TINY, base / "in")
    out = base / "out"
    triad = ["--elements", "4096", "--threads", "1", "--reps", "3"]
    for op in run.build_ops(inp, out, triad, 1):
        code, _, err = run.run_op(cli_main, op, out)
        assert code == 0, (op.id, err)
    return inp, out


#: Output file -> (the check that reads it, the column a "wrong value" changes).
CASES = {
    "energy-1/energy.csv": (lambda t, d: checks.check_energy(d / "energy.csv", t["runs"][1]),
                            "edp_kjs"),
    "compare-0/compare.csv": (lambda t, d: checks.check_compare(d / "compare.csv", t["runs"][0]),
                              "stddev"),
    "amdahl-runs-0/scaling_fits.csv": (lambda t, d: checks.check_amdahl_runs(d, t["runs"][0]), "a"),
    "amdahl-fits-1/scaling_fits.csv": (lambda t, d: checks.check_amdahl_fits(d, t["fits"][1]), "b"),
    "amdahl-fits-0/scaling_projection.csv":
        (lambda t, d: checks.check_amdahl_fits(d, t["fits"][0]), "speedup"),
    "gustafson-0/scaling_fits.csv":
        (lambda t, d: checks.check_gustafson(d, t["fits"][0]), "sigma_a"),
    "shares-1/mpi_share_fits.csv": (lambda t, d: checks.check_shares(d, t["shares"][1]), "c"),
    f"network{SIZE}-0/weak_links.csv":
        (lambda t, d: checks.check_network(d, t["pairwise"][0], SIZE), "bandwidth_gbs"),
    f"network{SIZE}-0/node_medians.csv":
        (lambda t, d: checks.check_network(d, t["pairwise"][0], SIZE), "median_gbs"),
    "roofline-0/roofline_points.csv":
        (lambda t, d: checks.check_roofline(d, t["kernels"][0]), "sustained_gflops"),
    "roofline-0/roofline_curve.csv":
        (lambda t, d: checks.check_roofline(d, t["kernels"][0]), "gflops"),
    "bench-mem-0/mem.csv": (lambda t, d: checks.check_bench_mem(
        d / "mem.csv", (d.parent / "bench-mem-0.stdout").read_text(), 4096, None), "best_gbs"),
}


def _wrong_value(rows, column):
    value = float(rows[0][column])
    rows[0][column] = "nan" if column == "best_gbs" else repr(value * 1.001 + 1e-3)
    return rows


def _missing_row(rows, column):
    return rows[:-1]


@pytest.mark.parametrize("corrupt", [_wrong_value, _missing_row], ids=["wrong-value", "missing-row"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_check_rejects_corrupted_output(outputs, name, corrupt):
    inp, out = outputs
    path = out / name
    check_with, column = CASES[name]
    check_with(inp.truth, path.parent)  # the untouched output passes
    original = path.read_bytes()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header, rows = reader.fieldnames, list(reader)
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(corrupt(rows, column))
        with pytest.raises(checks.CheckError):
            check_with(inp.truth, path.parent)
    finally:
        path.write_bytes(original)


def test_bench_mem_check_rejects_a_length_below_the_rule(outputs):
    _, out = outputs
    with pytest.raises(checks.CheckError):
        checks.check_bench_mem(out / "bench-mem-0/mem.csv",
                               (out / "bench-mem-0.stdout").read_text(), 4096, 8192)


@pytest.fixture
def tiny_checkout(tmp_path, monkeypatch):
    """A checkout whose workloads all use tiny inputs and a 1 MiB cache."""
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "SIZES", {"full": TINY, "probe": TINY})
    monkeypatch.setattr(run, "PROBE_TRIAD_ELEMENTS", 1 << 14)
    real_facts = run.host_facts
    monkeypatch.setattr(run, "host_facts", lambda: {**real_facts(), "llc_bytes": 1 << 20})
    return tmp_path


@pytest.mark.parametrize("workload,trace", [
    ("bulk-ingest", 0), ("fits-many", 0), ("fits-many", 1), ("instruments", 0),
])
def test_tiny_run_completes(tiny_checkout, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = run.spans.PER_LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    path = tiny_checkout / ".perfbench_work/results" / f"{workload}-seed5-trace{trace}.json"
    record = json.loads(path.read_text())
    assert record["seed"] == 5 and record["rounds"] >= run.MIN_ROUNDS
    # 2 files each of runs, fits and shares, 1 of pairwise and kernels; 2 probe triads or 1
    assert record["calls_per_round"] == (16 if workload == "instruments" else 17)
    assert result["attempted"] == record["rounds"] * record["calls_per_round"] + 2 * trace


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "bulk-ingest", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
