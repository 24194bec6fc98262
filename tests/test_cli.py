import contextlib
import csv
import dataclasses
import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfchar.cli import main
from perfchar.ingest import SHARE_COLUMNS, RunRecord
from perfchar.microbench import _available_cpus
from perfchar.scalefit import AMDAHL_MAX_ITER, AMDAHL_START, AMDAHL_TOL
from refdata import EXPECTED_EDP_KJS, EXPECTED_MLUP_PER_J, MPI_SHARE_PARAMS


RUNS_HEADER = "platform,app,compiler,nodes,ranks_per_node,time_s,energy_j,app_metric,timestamp"


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def assert_one_error_line(capsys, kind, *fragments):
    """Exit 1 was reported as exactly one CLI error line, not a traceback."""
    err = capsys.readouterr().err
    assert err.startswith(f"perfchar: error: {kind}:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "perfchar" in capsys.readouterr().out

    def test_missing_input_file(self, capsys):
        assert main(["analyze", "energy", "--in", "/nonexistent/runs.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("perfchar: error:")
        assert err.strip().count("\n") == 0

    def test_validation_failure_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "platform,app,compiler,nodes,ranks_per_node,time_s,energy_j,app_metric,timestamp\n"
            "p,a,c,1,1,0,,,2020-01-01T00:00:00Z\n"
        )
        assert main(["analyze", "energy", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "RowError" in err


class TestSpecShow:
    def test_prints_peaks(self, fixtures_dir, capsys):
        code = main(["spec", "show", str(fixtures_dir / "platforms" / "dibona-tx2.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "170.64 GB/s" in out
        assert "32.00 / 16.00 GFlop/s" in out
        assert "16777216" in out

    def test_second_platform(self, fixtures_dir, capsys):
        main(["spec", "show", str(fixtures_dir / "platforms" / "marenostrum4.json")])
        out = capsys.readouterr().out
        assert "134.40 / 67.20 GFlop/s" in out
        assert "153.60 GB/s" in out
        assert "17301504" in out


class TestAnalyzeEnergy:
    def test_edp_matches_reference_table(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        code = main(
            ["analyze", "energy", "--in", str(fixtures_dir / "energy_node_runs.csv"),
             "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 20
        for row in rows:
            key = (row["app"], row["platform"], row["compiler"])
            expected = EXPECTED_EDP_KJS[key]
            assert float(row["edp_kjs"]) == pytest.approx(expected, rel=0.005)
        lbc = {
            (r["app"], r["platform"], r["compiler"]): r
            for r in rows if r["app"] == "lbc"
        }
        for key, expected in EXPECTED_MLUP_PER_J.items():
            assert float(lbc[key]["work_per_joule"]) == pytest.approx(expected, abs=0.01)
            assert lbc[key]["work_unit"] == "MLUP/J"

    @pytest.mark.parametrize("column", ["time_s", "energy_j", "app_metric"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_is_row_error(self, column, value, tmp_path, capsys):
        cells = {"time_s": "10.0", "energy_j": "5000.0", "app_metric": "100.0 MLUP/s"}
        cells[column] = f"{value} MLUP/s" if column == "app_metric" else value
        runs = tmp_path / "runs.csv"
        runs.write_text(
            f"{RUNS_HEADER}\n"
            "p,a,c,1,1,10.0,5000.0,100.0 MLUP/s,2020-01-01T00:00:00Z\n"
            f"p,a,c,2,1,{cells['time_s']},{cells['energy_j']},{cells['app_metric']},"
            "2020-01-01T00:10:00Z\n"
        )
        out = tmp_path / "energy.csv"
        assert main(["analyze", "energy", "--in", str(runs), "--out", str(out)]) == 1
        assert_one_error_line(capsys, "RowError", "1 invalid row(s): line 3:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "row",
        ["p,a,c,2,1,1e200,1e200,,",  # edp: 1e197 kJ times 1e200 s
         "p,a,c,2,1,1e200,1e-10,1e200 MLUP/s,"],  # work: 1e200 MLUP/s times 1e200 s per 1e-10 J
    )
    def test_overflowing_derived_metric_is_one_error_line(self, row, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\n# a note\np,a,c,1,1,10.0,5000.0,,\n{row}\n")
        out = tmp_path / "energy.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would end the call
            assert main(["analyze", "energy", "--in", str(runs), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr() == ("", "perfchar: error: InvalidDataError: "
                                           f"{runs}: line 4: edp_kjs or work_per_joule overflows\n")

    def test_node_count_beyond_int64_is_row_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\np,a,c,1,1,10.0,5000.0,,\np,a,c,{10**400},1,10.0,5000.0,,\n")
        out = tmp_path / "energy.csv"
        assert main(["analyze", "energy", "--in", str(runs), "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        main(["analyze", "energy", "--in", str(runs), "--out", str(out)])
        assert_one_error_line(capsys, "RowError", "1 invalid row(s): line 3:", "nodes")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["a" * 200_000, '"' + "a" * 200_000 + '"'], ids=["plain", "quoted"])
    def test_cell_above_csv_field_limit_is_schema_error(self, cell, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\np,a,c,1,1,10.0,,,\n# note\np,{cell},c,1,1,10.0,,,\n")
        out = tmp_path / "energy.csv"
        assert main(["analyze", "energy", "--in", str(runs), "--out", str(out)]) == 1
        assert_one_error_line(capsys, "SchemaError", f"{runs}: line 4:", "field limit")
        assert not out.exists()

    def test_blank_json_app_metric_is_row_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.json"
        runs.write_text(json.dumps([dict(zip(RUNS_HEADER.split(","),
                                             ["p", "a", "c", 1, 1, 10.0, None, " ", ""]))]))
        assert main(["analyze", "energy", "--in", str(runs)]) == 1
        assert_one_error_line(capsys, "RowError", "1 invalid row(s): line 1:")

    def test_sidecar_written(self, fixtures_dir, tmp_path):
        out = tmp_path / "energy.csv"
        main(["analyze", "energy", "--in", str(fixtures_dir / "energy_node_runs.csv"),
              "--out", str(out)])
        meta = json.loads((tmp_path / "energy.csv.meta.json").read_text())
        assert meta["command"] == "analyze energy"
        assert "written_at" in meta

    def test_output_does_not_depend_on_block_size(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        outputs = []
        for block in (1 << 16, 3):
            monkeypatch.setattr("perfchar.cli.BLOCK_ROWS", block)
            monkeypatch.setattr("perfchar.report.BLOCK_ROWS", block)
            out = tmp_path / f"energy-{block}.csv"
            assert main(["analyze", "energy", "--in", str(fixtures_dir / "energy_node_runs.csv"),
                         "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]


class TestAnalyzeScaling:
    def test_amdahl_fit_from_runs(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "scal"
        code = main(
            ["analyze", "scaling", "--model", "amdahl",
             "--in", str(fixtures_dir / "amdahl_runs.csv"), "--out-dir", str(out_dir)]
        )
        assert code == 0
        (fit_row,) = read_csv(out_dir / "scaling_fits.csv")
        assert fit_row["group"] == "alya/dibona-tx2/gnu"
        assert float(fit_row["a"]) == pytest.approx(0.96, abs=1e-6)
        assert float(fit_row["b"]) == pytest.approx(0.0, abs=1e-6)
        proj = read_csv(out_dir / "scaling_projection.csv")
        assert len(proj) == 10  # default projection grid
        ps = [float(r["p"]) for r in proj]
        assert ps == sorted(ps)

    def test_amdahl_sidecar_records_fit_settings(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "scal"
        main(["analyze", "scaling", "--model", "amdahl",
              "--in", str(fixtures_dir / "amdahl_runs.csv"), "--out-dir", str(out_dir)])
        meta = json.loads((out_dir / "scaling_fits.csv.meta.json").read_text())
        assert meta["fit_weighting"] == "1/speedup"
        assert meta["fit_start"] == list(AMDAHL_START)
        assert meta["fit_max_iter"] == AMDAHL_MAX_ITER
        assert meta["fit_tol"] == AMDAHL_TOL

    def test_gustafson_fit_from_rates(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "weak"
        code = main(
            ["analyze", "scaling", "--model", "gustafson",
             "--in", str(fixtures_dir / "gustafson_runs.csv"), "--out-dir", str(out_dir)]
        )
        assert code == 0
        (fit_row,) = read_csv(out_dir / "scaling_fits.csv")
        assert float(fit_row["a"]) == pytest.approx(0.817, abs=1e-9)

    def test_gustafson_without_rates_fails(self, fixtures_dir, tmp_path, capsys):
        code = main(
            ["analyze", "scaling", "--model", "gustafson",
             "--in", str(fixtures_dir / "amdahl_runs.csv"), "--out-dir", str(tmp_path / "x")]
        )
        assert code == 1
        assert "InvalidDataError" in capsys.readouterr().err

    def test_gustafson_zero_base_rate_fails(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(
            f"{RUNS_HEADER}\n"
            "tx2,lbc,gnu,1,64,100.0,,0 MLUP/s,\n"
            "tx2,lbc,gnu,2,64,100.0,,181.7 MLUP/s,\n"
            "tx2,lbc,gnu,4,64,100.0,,345.1 MLUP/s,\n"
        )
        code = main(["analyze", "scaling", "--model", "gustafson", "--in", str(runs),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "InvalidDataError", "positive rate")

    @pytest.mark.parametrize(
        "rows",
        [
            # one (group, nodes) cell whose values, if aggregated, overflow the stddev
            ["tx2,lbc,gnu,1,64,100.0,,1e200 steps,", "tx2,lbc,gnu,1,64,100.0,,1 steps,"],
            # the failing group's own rates overflow; a non-rate row fails it
            ["tx2,lbc,gnu,1,64,100.0,,1e200 MLUP/s,", "tx2,lbc,gnu,1,64,100.0,,1 MLUP/s,",
             "tx2,lbc,gnu,2,64,100.0,,5 steps,"],
            # a later group's rates overflow; an earlier group has no rate
            ["tx2,a1,gnu,1,64,100.0,,5 steps,", "tx2,a2,gnu,1,64,100.0,,1e200 MLUP/s,",
             "tx2,a2,gnu,1,64,100.0,,1 MLUP/s,"],
        ],
    )
    def test_gustafson_failing_group_stops_before_aggregating(self, rows, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("\n".join([RUNS_HEADER, *rows, ""]))
        code = main(["analyze", "scaling", "--model", "gustafson", "--in", str(runs),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "InvalidDataError", "positive rate")

    def test_mpi_share_fit(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "shares"
        code = main(
            ["analyze", "scaling", "--model", "mpi-shares",
             "--in", str(fixtures_dir / "mpi_shares.csv"),
             "--group", "platform", "--out-dir", str(out_dir)]
        )
        assert code == 0
        rows = {r["group"]: r for r in read_csv(out_dir / "mpi_share_fits.csv")}
        for platform, (a, b, c) in MPI_SHARE_PARAMS.items():
            row = rows[platform]
            assert float(row["a"]) == pytest.approx(a, abs=1e-6)
            assert float(row["b"]) == pytest.approx(b, abs=1e-6)
            assert float(row["c"]) == pytest.approx(c, abs=1e-6)
        tx2 = rows["dibona-tx2"]
        assert float(tx2["critical_lb_only"]) == pytest.approx(76.3, abs=0.1)
        assert float(tx2["critical_lb_plus_com"]) == pytest.approx(60.7, abs=0.1)
        curves = read_csv(out_dir / "mpi_share_curves.csv")
        assert {r["series"] for r in curves} == {"lb", "com"}

    def test_subnormal_slope_critical_point_is_one_error_line(self, tmp_path, capsys):
        shares = tmp_path / "shares.csv"
        shares.write_text("platform,procs,lb_share_pct,com_share_pct\n"
                          "p,1,0,20\np,2,1e-310,20\np,3,2e-310,20\n")
        code = main(["analyze", "scaling", "--model", "mpi-shares", "--group", "platform",
                     "--in", str(shares), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "InvalidDataError", "group p:", "not finite")
        assert not (tmp_path / "out" / "mpi_share_fits.csv").exists()

    def test_singular_fit_is_one_error_line(self, tmp_path, capsys):
        # The group before it is reported; the singular one writes no uncertainties of inf.
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\n" + "".join(
            f"p,{app},c,{nodes},1,{time},,,\n" for app, scale in (("a", 1), ("b", 10**17))
            for nodes, time in ((scale, 10), (2 * scale, 5), (3 * scale, 4))))
        code = main(["analyze", "scaling", "--model", "amdahl", "--in", str(runs), "--group", "app",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("a: a = ") and captured.out.count("\n") == 1
        assert captured.err == ("perfchar: error: InvalidDataError: the fit's uncertainties are not finite: "
                                "its normal matrix is singular or ill-conditioned\n")
        assert not (tmp_path / "out" / "scaling_fits.csv").exists()

    def test_non_numeric_share_is_row_error(self, tmp_path, capsys):
        shares = tmp_path / "shares.csv"
        shares.write_text(
            "# note\n"
            "platform,app,compiler,procs,lb_share_pct,com_share_pct\n"
            "p,a,c,16,5.0,20.0\n"
            "p,a,c,abc,6.0,20.0\n"
        )
        code = main(["analyze", "scaling", "--model", "mpi-shares", "--in", str(shares),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "RowError", "line 4:", "abc")

    @pytest.mark.parametrize("column", [3, 4, 5])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_share_is_row_error(self, column, value, tmp_path, capsys):
        row = ["p", "a", "c", "32", "6.0", "20.0"]
        row[column] = value
        shares = tmp_path / "shares.csv"
        shares.write_text(
            "platform,app,compiler,procs,lb_share_pct,com_share_pct\n"
            "p,a,c,16,5.0,20.0\n" + ",".join(row) + "\np,a,c,64,7.0,20.0\n"
        )
        code = main(["analyze", "scaling", "--model", "mpi-shares", "--in", str(shares),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "RowError", "1 invalid row(s): line 3:", "must be finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_share_sums_that_overflow_are_one_error_line(self, tmp_path, capsys):
        shares = tmp_path / "shares.csv"
        shares.write_text("platform,procs,lb_share_pct,com_share_pct\n"
                          "p,2,5.0,20.0\np,8,6.0,20.0\np,32,7.0,20.0\np,1e308,8.0,20.0\n")
        code = main(["analyze", "scaling", "--model", "mpi-shares", "--group", "platform",
                     "--in", str(shares), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "InvalidDataError", "p = 1e+308 overflow the share fit")
        assert not (tmp_path / "out").exists()

    def test_share_sum_that_overflows_prints_no_warning(self, tmp_path):
        shares = tmp_path / "shares.csv"
        shares.write_text("platform,procs,lb_share_pct,com_share_pct\np,1,1e308,1e308\np,2,10,20\np,4,12,20\n")
        code, err, caught = run_quietly(["analyze", "scaling", "--model", "mpi-shares", "--group", "platform",
                                         "--in", str(shares), "--out-dir", str(tmp_path / "out")])
        assert (code, caught) == (1, [])
        assert err == "perfchar: error: InvalidDataError: shares must lie within [0, 100] percent\n"

    def test_share_file_lacking_a_group_column_is_schema_error(self, fixtures_dir, tmp_path, capsys):
        code = main(["analyze", "scaling", "--model", "mpi-shares",
                     "--in", str(fixtures_dir / "mpi_shares.csv"),
                     "--group", "nosuchfield", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "SchemaError", "missing mandatory column(s) ['nosuchfield']")

    def test_projection_grid_override(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "proj"
        main(
            ["analyze", "scaling", "--model", "amdahl",
             "--in", str(fixtures_dir / "amdahl_runs.csv"),
             "--project", "1", "--out-dir", str(out_dir)]
        )
        (row,) = read_csv(out_dir / "scaling_projection.csv")
        # Baseline projection: speedup 1 + b with the fitted (near-zero) overhead.
        assert float(row["speedup"]) == pytest.approx(1.0, abs=1e-5)

    # app_metric and energy are RunRecord fields whose values do not order.
    @pytest.mark.parametrize(
        "model,field",
        [("amdahl", "nosuchfield"), ("gustafson", "nosuchfield"),
         ("gustafson", "app_metric"), ("amdahl", "energy")],
        ids=["amdahl", "gustafson", "gustafson-app_metric", "amdahl-energy"],
    )
    def test_unknown_group_field_is_parameter_error(self, model, field, fixtures_dir, tmp_path,
                                                    capsys):
        code = main(["analyze", "scaling", "--model", model,
                     "--in", str(fixtures_dir / "gustafson_runs.csv"),
                     "--group", f"app,{field}", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "ParameterError", field, "platform, app, compiler")

    @pytest.mark.parametrize(
        "model,source",
        [("amdahl", "amdahl_runs.csv"), ("gustafson", "gustafson_runs.csv"),
         ("mpi-shares", "mpi_shares.csv")],
    )
    def test_empty_group_is_parameter_error(self, model, source, fixtures_dir, tmp_path, capsys):
        code = main(["analyze", "scaling", "--model", model,
                     "--in", str(fixtures_dir / source),
                     "--group", ",", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "ParameterError", "--group")
        assert not (tmp_path / "out").exists()

    def test_non_numeric_projection_is_parameter_error(self, fixtures_dir, tmp_path, capsys):
        code = main(["analyze", "scaling", "--model", "amdahl",
                     "--in", str(fixtures_dir / "amdahl_runs.csv"),
                     "--project", "0,abc", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "ParameterError", "0,abc")

    @pytest.mark.parametrize("model,source", [("amdahl", "amdahl_runs.csv"),
                                              ("gustafson", "gustafson_runs.csv")])
    def test_non_finite_projection_is_parameter_error(self, model, source, fixtures_dir, tmp_path,
                                                      capsys):
        code = main(["analyze", "scaling", "--model", model, "--in", str(fixtures_dir / source),
                     "--project", "2,nan,inf", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().out == ""  # raised before any group is fitted
        main(["analyze", "scaling", "--model", model, "--in", str(fixtures_dir / source),
              "--project", "2,inf", "--out-dir", str(tmp_path / "out")])
        assert_one_error_line(capsys, "ParameterError", "must be finite", "2,inf")
        assert not (tmp_path / "out").exists()

    def test_mpi_shares_ignores_the_projection_list(self, fixtures_dir, tmp_path, capsys):
        argv = ["analyze", "scaling", "--model", "mpi-shares",
                "--in", str(fixtures_dir / "mpi_shares.csv")]
        assert main([*argv, "--out-dir", str(tmp_path / "a")]) == 0
        expected = capsys.readouterr()
        assert main([*argv, "--project", "2,nan,inf", "--out-dir", str(tmp_path / "b")]) == 0
        assert capsys.readouterr() == expected
        for name in ("mpi_share_fits.csv", "mpi_share_curves.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("model", ["amdahl", "gustafson"])
    @pytest.mark.parametrize("body", ["", "# no runs yet\n"])
    def test_runs_file_without_rows_is_one_error_line(self, model, body, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\n{body}")
        for project in ("4", "0,4"):
            code = main(["analyze", "scaling", "--model", model, "--in", str(runs),
                         "--project", project, "--out-dir", str(tmp_path / "out")])
            assert code == 1
            assert_one_error_line(capsys, "ParameterError", "refusing to emit an empty series")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model,source", [("amdahl", "amdahl_groups_runs.csv"),
                                              ("gustafson", "gustafson_runs.csv")])
    def test_projection_below_one_fails_after_the_first_group(self, model, source, fixtures_dir,
                                                              tmp_path, capsys):
        argv = ["analyze", "scaling", "--model", model, "--in", str(fixtures_dir / source)]
        assert main([*argv, "--out-dir", str(tmp_path / "all")]) == 0
        first_line = capsys.readouterr().out.splitlines(keepends=True)[0]
        assert main([*argv, "--project", "0,4", "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == first_line
        assert captured.err == "perfchar: error: ParameterError: unit count p must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_failing_group_reports_the_groups_before_it(self, tmp_path, capsys):
        # In sorted order a3 is the third group and has two node counts; a4,
        # which could be fitted, comes after it and is not reported.
        rows = [
            f"tx2,{app},gnu,{nodes},64,{time},,,"
            for app, times in (("a1", (100.0, 52.0, 28.0)), ("a2", (200.0, 104.0, 57.0, 33.0)),
                               ("a3", (100.0, 55.0)), ("a4", (100.0, 55.0, 30.0)))
            for nodes, time in zip((1, 2, 4, 8), times)
        ]
        runs = tmp_path / "runs.csv"
        runs.write_text("\n".join([RUNS_HEADER, *rows, ""]))
        code = main(["analyze", "scaling", "--model", "amdahl", "--in", str(runs),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "a1/tx2/gnu: a = 0.9600 +- 0.0000, b = -0.0000 +- 0.0000\n"
            "a2/tx2/gnu: a = 0.9541 +- 0.0007, b = 0.0018 +- 0.0036\n"
        )
        assert captured.err.startswith("perfchar: error: UnderdeterminedError:")
        assert captured.err.count("\n") == 1


SCALING_INPUTS = {
    "amdahl": "amdahl_groups_runs.csv",
    "gustafson": "gustafson_runs.csv",
    "mpi-shares": "mpi_shares.csv",
}
GROUP_NAMES = sorted({*(f.name for f in dataclasses.fields(RunRecord)), *SHARE_COLUMNS})


class TestScalingInputsProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from(sorted(SCALING_INPUTS)),
        group=st.lists(
            st.one_of(st.sampled_from(GROUP_NAMES),
                      st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)),
            min_size=1, max_size=3,
        ),
    )
    def test_exit_zero_or_one_error_line(self, fixtures_dir, tmp_path_factory, model, group):
        out_dir = tmp_path_factory.mktemp("scaling")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", "scaling", "--model", model,
                         "--in", str(fixtures_dir / SCALING_INPUTS[model]),
                         "--group", ",".join(group), "--out-dir", str(out_dir)])
        text = err.getvalue()
        if code == 0:
            assert text == ""
            fits = "mpi_share_fits.csv" if model == "mpi-shares" else "scaling_fits.csv"
            for row in read_csv(out_dir / fits):
                # Each group is labelled by its value of every --group field.
                parts = row["group"].split("/")
                assert len(parts) == len(group) and all(parts)
        else:
            assert code == 1
            assert text.startswith("perfchar: error: ")
            assert text.count("\n") == 1
            assert "Traceback" not in text


class TestAnalyzeNetwork:
    def test_weak_link_detection(self, fixtures_dir, tmp_path, capsys):
        out_dir = tmp_path / "net"
        code = main(
            ["analyze", "network", "--in", str(fixtures_dir / "pairwise_8node.csv"),
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        (link,) = read_csv(out_dir / "weak_links.csv")
        assert (link["node_a"], link["node_b"]) == ("node02", "node07")
        assert float(link["deficit_pct"]) == pytest.approx(15.0, abs=0.1)
        medians = read_csv(out_dir / "node_medians.csv")
        assert len(medians) == 8
        assert "1 weak link(s)" in capsys.readouterr().out

    def test_one_median_per_node(self, fixtures_dir, tmp_path, monkeypatch):
        calls = []
        nanmedian = np.nanmedian
        monkeypatch.setattr(np, "nanmedian", lambda *a, **k: calls.append(1) or nanmedian(*a, **k))
        code = main(["analyze", "network", "--in", str(fixtures_dir / "pairwise_8node.csv"),
                     "--out-dir", str(tmp_path / "net")])
        assert code == 0
        assert len(calls) == 1  # all 8 rows at once, shared by the weak links and node_medians.csv

    def write_two_sizes(self, tmp_path, *extra_rows):
        """Complete 4096 B rows over four nodes; 65536 B rows lack (n2, n3)."""
        lines = ["node_a,node_b,msg_bytes,bandwidth_gbs"]
        for size in (4096, 65536):
            for i in range(4):
                for j in range(i + 1, 4):
                    if not (size == 65536 and (i, j) == (2, 3)):
                        lines.append(f"n{i},n{j},{size},10.0")
        source = tmp_path / "sweep.csv"
        source.write_text("\n".join([*lines, *extra_rows]) + "\n")
        return source

    def test_incomplete_other_size_does_not_matter(self, tmp_path, capsys):
        source = self.write_two_sizes(tmp_path)
        code = main(["analyze", "network", "--in", str(source), "--message-size", "4096",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert "4 nodes at message size 4096" in capsys.readouterr().out
        code = main(["analyze", "network", "--in", str(source), "--message-size", "65536",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "IncompleteMatrixError", "(n2, n3)")

    @pytest.mark.parametrize(
        "row", ["n1,n2,65536,abc", "n1,n2,65536,10.0,furlong/s", "n1,n1,65536,10.0",
                "n1,n2,65536,0", "n1,n2,65536,inf"],
    )
    def test_bad_row_at_other_size_still_fails(self, tmp_path, capsys, row):
        source = self.write_two_sizes(tmp_path, row)
        if row.count(",") == 4:
            text = source.read_text().replace("bandwidth_gbs\n", "bandwidth_gbs,unit\n", 1)
            source.write_text(text)
        code = main(["analyze", "network", "--in", str(source), "--message-size", "4096",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "RowError", "line 13:")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1", "2"])
    def test_threshold_outside_unit_interval_is_parameter_error(self, threshold, fixtures_dir,
                                                                tmp_path, capsys):
        code = main(["analyze", "network", "--in", str(fixtures_dir / "pairwise_8node.csv"),
                     "--threshold", threshold, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "ParameterError", "threshold")
        assert not (tmp_path / "out").exists()

    def test_pair_mean_that_overflows_is_one_error_line(self, tmp_path, capsys):
        source = tmp_path / "pairs.csv"
        source.write_text("node_a,node_b,msg_bytes,bandwidth_gbs\n"
                          "n1,n2,4096,1.7e308\nn2,n1,4096,1.7e308\nn1,n3,4096,1\nn2,n3,4096,1\n")
        code = main(["analyze", "network", "--in", str(source), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "RowError", "2 invalid row(s): line 2:", "; line 3:",
                              f"must be at most {sys.float_info.max / 2!r} GB/s")
        assert not (tmp_path / "out").exists()

    def test_one_direction_above_the_bound_is_row_error(self, tmp_path, capsys):
        source = tmp_path / "pairs.csv"
        source.write_text("node_a,node_b,msg_bytes,bandwidth_gbs\n"
                          "n1,n2,4096,1.7e308\nn1,n3,4096,1\nn2,n3,4096,1\n")
        code = main(["analyze", "network", "--in", str(source), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, "RowError", "1 invalid row(s): line 2: bandwidth for pair (n1, n2)")

    def test_bandwidth_at_the_bound_gives_finite_medians(self, tmp_path):
        bound = sys.float_info.max / 2
        source = tmp_path / "pairs.csv"
        source.write_text("node_a,node_b,msg_bytes,bandwidth_gbs\n"
                          f"n1,n2,4096,{bound!r}\nn2,n1,4096,{bound!r}\nn1,n3,4096,1\nn2,n3,4096,1\n")
        out_dir = tmp_path / "out"
        code, err, caught = run_quietly(["analyze", "network", "--in", str(source), "--out-dir", str(out_dir)])
        assert (code, err, caught) == (0, "", [])
        medians = {r["node"]: float(r["median_gbs"]) for r in read_csv(out_dir / "node_medians.csv")}
        assert medians == {"n1": (bound + 1.0) / 2.0, "n2": (bound + 1.0) / 2.0, "n3": 1.0}

    def test_clean_matrix_writes_header_only(self, tmp_path):
        source = tmp_path / "clean.csv"
        lines = ["node_a,node_b,msg_bytes,bandwidth_gbs"]
        for i in range(4):
            for j in range(i + 1, 4):
                lines.append(f"n{i},n{j},4096,10.0")
        source.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        assert main(["analyze", "network", "--in", str(source), "--out-dir", str(out_dir)]) == 0
        assert read_csv(out_dir / "weak_links.csv") == []


class TestAnalyzeRoofline:
    def test_phase_points_classified(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "roof"
        code = main(
            ["analyze", "roofline", "--spec", str(fixtures_dir / "platforms" / "dibona-tx2.json"),
             "--bandwidth-gbs", "228.62",
             "--points", str(fixtures_dir / "alya_phase_points.csv"),
             "--out-dir", str(out_dir), "--gnuplot"]
        )
        assert code == 0
        points = read_csv(out_dir / "roofline_points.csv")
        assert len(points) == 5
        assert all(r["bound"] == "memory-bound" for r in points)
        curve = read_csv(out_dir / "roofline_curve.csv")
        assert {"intensity", "gflops", "label"} == set(curve[0].keys())
        assert (out_dir / "roofline.gp").exists()

    def test_explicit_peaks(self, tmp_path, capsys):
        out_dir = tmp_path / "roof2"
        code = main(
            ["analyze", "roofline", "--flops-gflops", "32.0", "--bandwidth-gbs", "228.62",
             "--scope", "core", "--out-dir", str(out_dir)]
        )
        assert code == 0
        assert "ridge 0.13997" in capsys.readouterr().out

    def test_counter_columns_accepted(self, tmp_path):
        points = tmp_path / "counters.csv"
        points.write_text(
            "label,flops,loads,stores\n"
            "assembly,9e9,10e9,2.5e9\n"
        )
        out_dir = tmp_path / "roof3"
        code = main(
            ["analyze", "roofline", "--flops-gflops", "32.0", "--bandwidth-gbs", "228.62",
             "--points", str(points), "--out-dir", str(out_dir)]
        )
        assert code == 0
        (row,) = read_csv(out_dir / "roofline_points.csv")
        assert float(row["intensity"]) == pytest.approx(0.09, rel=1e-12)
        assert row["bound"] == "memory-bound"

    def test_non_numeric_intensity_is_row_error(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("label,intensity\nassembly,0.09\n# note\nsolver,abc\n")
        code = main(
            ["analyze", "roofline", "--flops-gflops", "32.0", "--bandwidth-gbs", "228.62",
             "--points", str(points), "--out-dir", str(tmp_path / "roof")]
        )
        assert code == 1
        assert_one_error_line(capsys, "RowError", "line 4:", "abc")

    def test_needs_peaks(self, tmp_path):
        assert main(["analyze", "roofline", "--out-dir", str(tmp_path / "r")]) == 1

    def test_zero_bandwidth_overrides_spec(self, fixtures_dir, tmp_path, capsys):
        code = main(["analyze", "roofline",
                     "--spec", str(fixtures_dir / "platforms" / "dibona-tx2.json"),
                     "--bandwidth-gbs", "0", "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert_one_error_line(capsys, "ParameterError", "roofline peaks must be finite and positive")

    @pytest.mark.parametrize("flops", ["nan", "inf"])
    def test_non_finite_peak_is_parameter_error(self, flops, tmp_path, capsys):
        code = main(["analyze", "roofline", "--flops-gflops", flops, "--bandwidth-gbs", "10",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert_one_error_line(capsys, "ParameterError", "roofline peaks must be finite and positive")

    @pytest.mark.parametrize("flops, bandwidth", [("1e-300", "1e300"), ("1e300", "1e-300")])
    def test_ridge_out_of_range_names_both_peaks(self, flops, bandwidth, tmp_path, capsys):
        code = main(["analyze", "roofline", "--flops-gflops", flops, "--bandwidth-gbs", bandwidth,
                     "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert_one_error_line(capsys, "ParameterError", "peak_flops / peak_bandwidth",
                              f"{float(flops)!r} / {float(bandwidth)!r}")

    def run_points(self, tmp_path, text):
        points = tmp_path / "points.csv"
        points.write_text(text)
        return main(["analyze", "roofline", "--flops-gflops", "100", "--bandwidth-gbs", "10",
                     "--points", str(points), "--out-dir", str(tmp_path / "roof")])

    @pytest.mark.parametrize(
        "header, row, message",
        [
            ("label,intensity", "k,inf", "intensity must be finite"),
            ("label,intensity", "k,nan", "intensity must be finite"),
            ("label,intensity,gflops", "k,1,inf", "measured_perf must be finite"),
            ("label,intensity,gflops", "k,1,nan", "measured_perf must be finite"),
            ("label,flops,loads,stores", "k,1e400,1,1", "intensity must be finite"),
        ],
    )
    def test_non_finite_kernel_point_is_row_error(self, header, row, message, tmp_path, capsys):
        assert self.run_points(tmp_path, f"{header}\n{row}\n") == 1
        assert_one_error_line(capsys, "RowError", "line 2:", message)
        assert not (tmp_path / "roof").exists()

    def test_overflowing_headroom_is_parameter_error(self, tmp_path, capsys):
        # A finite, positive measurement whose headroom 10 / 1e-320 overflows.
        assert self.run_points(tmp_path, "label,intensity,gflops\nk,1,1e-320\n") == 1
        assert_one_error_line(capsys, "ParameterError", "headroom")
        assert not (tmp_path / "roof").exists()

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("label,intensity\nk,1e308\n", "ParameterError"),  # the curve's upper end overflows
            ("label,intensity\nk,1e-310\nj,10\n", "ParameterError"),  # more than 10^308 apart
            ("label,flops,loads,stores,access_bytes\nk,1,1,1," + "9" * 400 + "\n", "RowError"),
        ],
    )
    def test_extreme_finite_point_is_one_error_line(self, text, kind, tmp_path, capsys):
        assert self.run_points(tmp_path, text) == 1
        assert_one_error_line(capsys, kind)
        assert not (tmp_path / "roof").exists()

    @pytest.mark.parametrize(
        "text, intensity",
        [
            ("label,intensity\nj,10\nk,5e-324\n", "5e-324"),  # half of it rounds to 0
            ("label,intensity\nj,10\nk,1e-306\n", "1e-306"),  # the curve's ratio overflows
            ("label,intensity\nk,1e308\nj,10\n", "1e+308"),  # twice it overflows
        ],
    )
    def test_curve_range_error_names_the_point(self, text, intensity, tmp_path, capsys):
        assert self.run_points(tmp_path, text) == 1
        assert_one_error_line(capsys, "ParameterError", f"kernel 'k': intensity {intensity} ")
        assert not (tmp_path / "roof").exists()


#: Cells for the kernel-point property test: finite, infinite, NaN, subnormal,
#: huge, junk and empty.
KERNEL_CELLS = st.one_of(
    st.floats(min_value=0, max_value=1e4).map(repr),
    st.floats().map(repr),
    st.integers(min_value=-3, max_value=10**30).map(str),
    st.sampled_from(["", "abc", "1e400", "-1e400", "5e-324", "1e-320", "1e308", "9" * 400, " 2 "]),
)
KERNEL_HEADER = "label,intensity,flops,loads,stores,access_bytes,gflops,time_share_pct"


class TestRooflineInputsProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.one_of(st.just(""), KERNEL_CELLS), *[KERNEL_CELLS] * 4,
                      st.one_of(st.just(""), KERNEL_CELLS), st.one_of(st.just(""), KERNEL_CELLS)),
            min_size=1, max_size=3,
        ),
    )
    def test_exit_zero_or_one_error_line(self, tmp_path_factory, rows):
        tmp = tmp_path_factory.mktemp("roofline")
        points = tmp / "points.csv"
        points.write_text("\n".join([KERNEL_HEADER, *(",".join((f"k{i}", *row))
                                                      for i, row in enumerate(rows))]) + "\n")
        out_dir = tmp / "roof"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", "roofline", "--flops-gflops", "100", "--bandwidth-gbs", "10",
                         "--points", str(points), "--out-dir", str(out_dir)])
        text = err.getvalue()
        assert not caught  # a warning would be printed on stderr outside the test
        if code == 0:
            assert text == ""
            for name in ("roofline_curve.csv", "roofline_points.csv"):
                cells = (out_dir / name).read_text().replace("\n", ",").split(",")
                assert not {"inf", "-inf", "nan"} & {cell.lower() for cell in cells}
        else:
            assert code == 1
            assert text.startswith("perfchar: error: ")
            assert text.count("\n") == 1
            assert "Traceback" not in text


class TestReportCompare:
    def test_time_comparison(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(
            ["report", "compare", "--in", str(fixtures_dir / "energy_node_runs.csv"),
             "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "alya" in text
        rows = read_csv(out)
        alya = {
            (r["platform"], r["compiler"]): r for r in rows if r["app"] == "alya"
        }
        assert alya[("dibona-x86", "intel")]["rank"] == "1"
        assert float(alya[("dibona-x86", "intel")]["delta_pct"]) == 0.0

    def test_rate_comparison(self, fixtures_dir, tmp_path):
        out = tmp_path / "cmp.csv"
        main(["report", "compare", "--in", str(fixtures_dir / "energy_node_runs.csv"),
              "--metric", "rate", "--out", str(out)])
        rows = read_csv(out)
        assert all(r["app"] == "lbc" for r in rows)  # only lbc carries rates

    def test_overflowing_time_spread_is_one_error_line(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\n" + "".join(
            f"{platform},a,c,1,1,{time},,,\n"
            for platform, time in (("p", 1e200), ("p", 1.0), ("q", 2.0))
        ))
        assert main(["report", "compare", "--in", str(runs)]) == 1
        assert_one_error_line(capsys, "InvalidDataError", "time values of group a/p/c overflow")

    def test_zero_best_rate_is_one_error_line(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\np1,lbc,gnu,1,64,10.0,,0 MLUP/s,\np2,lbc,gnu,1,64,10.0,,-1 MLUP/s,\n")
        out = tmp_path / "cmp.csv"
        assert main(["report", "compare", "--metric", "rate", "--in", str(runs), "--out", str(out)]) == 1
        assert_one_error_line(capsys, "InvalidDataError", "app lbc", "best rate mean is 0")
        assert not out.exists()


    @pytest.mark.parametrize("metric, rows", [
        ("time", [("p1", "1e308", ""), ("p1", "1e308", ""), ("p2", "1.0", "")]),
        ("rate", [("p1", "10.0", "1e-300 MLUP/s"), ("p2", "10.0", "-1e300 MLUP/s")]),
    ])
    def test_cell_that_is_not_finite_is_one_error_line(self, metric, rows, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\n" + "".join(f"{p},lbc,gnu,1,64,{t},,{m},\n" for p, t, m in rows))
        out = tmp_path / "cmp.csv"
        assert main(["report", "compare", "--metric", metric, "--in", str(runs), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("perfchar: error: InvalidDataError: "
                                "app lbc: a mean, stddev or delta_pct is not finite\n")
        assert not out.exists()


# Finite numbers at the ends of the float range, whose sums, means and ratios overflow or underflow.
EXTREMES = st.sampled_from(["1.0", "2.5", "1e308", "1.7e308", "8.9e307", "5e-324", "1e-300", "1e-310"])
SIGNED_EXTREMES = st.one_of(EXTREMES, EXTREMES.map("-{}".format), st.just("0"))


def assert_two_way_contract(code, err, caught, data_files):
    """Exit 0 with an empty stderr and no inf or nan in a data file, or exit 1 with one error line."""
    assert not caught  # a warning would be printed on stderr outside the test
    if code == 0:
        assert err == ""
        for path in data_files:
            cells = path.read_text().replace("\n", ",").split(",")
            assert not {"inf", "-inf", "nan"} & {cell.lower() for cell in cells}
    else:
        assert code == 1
        assert err.startswith("perfchar: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def run_quietly(argv):
    """main's exit code, stderr and warnings, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), caught


class TestExtremeInputsProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        metric=st.sampled_from(["time", "rate"]),
        rows=st.lists(st.tuples(st.sampled_from(["p1", "p2"]), st.sampled_from(["a", "b"]), EXTREMES,
                                st.one_of(EXTREMES, EXTREMES.map("-{}".format), st.just("0"))),
                      min_size=1, max_size=6),
    )
    def test_report_compare(self, tmp_path_factory, metric, rows):
        tmp = tmp_path_factory.mktemp("compare")
        runs = tmp / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\n" + "".join(f"{p},{app},c,1,1,{t},,{rate} MLUP/s,\n"
                                                     for p, app, t, rate in rows))
        out = tmp / "cmp.csv"
        code, err, caught = run_quietly(["report", "compare", "--metric", metric, "--in", str(runs),
                                         "--out", str(out)])
        assert_two_way_contract(code, err, caught, [out])

    @settings(max_examples=150, deadline=None)
    @given(forward=st.lists(EXTREMES, min_size=3, max_size=3),
           backward=st.lists(st.one_of(st.none(), EXTREMES), min_size=3, max_size=3))
    def test_analyze_network(self, tmp_path_factory, forward, backward):
        tmp = tmp_path_factory.mktemp("network")
        pairs = [("n1", "n2"), ("n1", "n3"), ("n2", "n3")]
        lines = [f"{a},{b},4096,{bw}" for (a, b), bw in zip(pairs, forward)]
        lines += [f"{b},{a},4096,{bw}" for (a, b), bw in zip(pairs, backward) if bw is not None]
        source = tmp / "pairs.csv"
        source.write_text("\n".join(["node_a,node_b,msg_bytes,bandwidth_gbs", *lines]) + "\n")
        out = tmp / "net"
        code, err, caught = run_quietly(["analyze", "network", "--in", str(source), "--out-dir", str(out)])
        assert_two_way_contract(code, err, caught, [out / "node_medians.csv", out / "weak_links.csv"])


    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(SIGNED_EXTREMES, SIGNED_EXTREMES, SIGNED_EXTREMES), min_size=3, max_size=5))
    def test_share_fit(self, tmp_path_factory, rows):
        tmp = tmp_path_factory.mktemp("shares")
        shares = tmp / "shares.csv"
        shares.write_text("platform,procs,lb_share_pct,com_share_pct\n" + "".join(f"p,{','.join(row)}\n"
                                                                           for row in rows))
        out = tmp / "out"
        code, err, caught = run_quietly(["analyze", "scaling", "--model", "mpi-shares", "--group", "platform",
                                         "--in", str(shares), "--out-dir", str(out)])
        assert_two_way_contract(code, err, caught, sorted(out.glob("*.csv")))

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.one_of(SIGNED_EXTREMES, st.just(""))] * 3,
                                   st.sampled_from(["MLUP/s", "GFlop/s", "steps"])), min_size=1, max_size=5))
    def test_analyze_energy(self, tmp_path_factory, rows):
        tmp = tmp_path_factory.mktemp("energy")
        runs = tmp / "runs.csv"
        runs.write_text(f"{RUNS_HEADER}\n" + "".join(f"p,a,c,1,1,{t},{e},{f'{rate} {unit}' if rate else ''},\n"
                                                     for t, e, rate, unit in rows))
        out = tmp / "energy.csv"
        code, err, caught = run_quietly(["analyze", "energy", "--in", str(runs), "--out", str(out)])
        assert_two_way_contract(code, err, caught, [out])


class TestBenchCommands:
    def test_bench_mem_small(self, tmp_path, capsys):
        out = tmp_path / "mem.csv"
        code = main(
            ["bench", "mem", "--elements", "100000", "--threads", "1", "--reps", "2",
             "--pin", "none", "--out", str(out)]
        )
        assert code == 0
        (row,) = read_csv(out)
        assert row["threads"] == "1"
        assert float(row["best_gbs"]) > 0
        assert "best GB/s" in capsys.readouterr().out

    def test_bench_mem_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["bench", "mem", "--elements", "100000", "--threads", "1,2", "--reps", "2",
             "--out", str(out)]
        )
        assert code == 0
        assert [r["threads"] for r in read_csv(out)] == ["1", "2"]

    def test_bench_flops(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        code = main(
            ["bench", "flops", "--precision", "double", "--mode", "vector",
             "--duration", "0.12", "--out", str(out)]
        )
        assert code == 0
        (row,) = read_csv(out)
        assert row["mode"] == "vector"
        assert float(row["gflops"]) > 0

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_bench_flops_non_finite_duration(self, duration, capsys):
        assert main(["bench", "flops", "--duration", duration]) == 1
        assert_one_error_line(capsys, "ParameterError", "duration must be finite")

    def test_bench_flops_threads_beyond_cpus(self, monkeypatch, capsys):
        import perfchar.cli

        def no_run(*args, **kwargs):
            raise AssertionError("a kernel started before the thread check")

        monkeypatch.setattr(perfchar.cli, "run_fma_kernel", no_run)
        count = len(_available_cpus()) + 1
        assert main(["bench", "flops", "--duration", "0.1", "--threads", f"1,{count}"]) == 1
        assert_one_error_line(capsys, "ParameterError", f"threads ({count}) exceed available cpus")

    def test_bench_mem_provenance(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["bench", "mem", "--elements", "100000", "--threads", "1,2", "--reps", "2",
             "--out", str(out)]
        )
        assert code == 0
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["kernel"] in ("native", "numpy")
        assert meta["counted_bytes_per_element"] == 24
        assert meta["moved_bytes_per_element"] == {"native": 24, "numpy": 40}[meta["kernel"]]
        assert meta["array_alignment_bytes"] % 4096 == 0
        assert "peak_bandwidth_gbs" not in meta
        assert "elements=100000 " in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "threads,best_gbs"

    def test_bench_mem_spec_records_peak_fraction(self, tmp_path, monkeypatch, fixtures_dir, capsys):
        import perfchar.microbench

        monkeypatch.setattr(perfchar.microbench, "stream_min_elements", lambda spec: 1)
        out = tmp_path / "mem.csv"
        code = main(
            ["bench", "mem", "--elements", "100000", "--reps", "2", "--out", str(out),
             "--spec", str(fixtures_dir / "platforms" / "dibona-tx2.json")]
        )
        assert code == 0
        meta = json.loads((tmp_path / "mem.csv.meta.json").read_text())
        (row,) = read_csv(out)
        assert meta["peak_bandwidth_gbs"] == pytest.approx(170.64)
        assert meta["best_over_peak"] == {"1": float(row["best_gbs"]) / meta["peak_bandwidth_gbs"]}
        assert f"kernel={meta['kernel']}" in capsys.readouterr().out

    def test_sizing_violation_via_cli(self, fixtures_dir, capsys):
        code = main(
            ["bench", "mem", "--elements", "1000", "--reps", "1",
             "--spec", str(fixtures_dir / "platforms" / "dibona-tx2.json")]
        )
        assert code == 1
        assert "SizingError" in capsys.readouterr().err


class TestDeterminismAndAtomicity:
    def test_no_temp_files_left(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "net"
        main(["analyze", "network", "--in", str(fixtures_dir / "pairwise_8node.csv"),
              "--out-dir", str(out_dir)])
        assert not list(out_dir.glob("*.tmp"))

    def test_repeat_invocation_is_byte_identical(self, fixtures_dir, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            main(["analyze", "scaling", "--model", "amdahl",
                  "--in", str(fixtures_dir / "amdahl_runs.csv"), "--out-dir", str(d)])
        for name in ("scaling_fits.csv", "scaling_projection.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
