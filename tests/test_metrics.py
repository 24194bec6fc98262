import pytest

from perfchar import (
    AppMetric,
    RunRecord,
    RunTable,
    compare_platforms,
    energy_metrics,
)
from perfchar.exceptions import EmptyComparisonError


def record(platform, app, compiler, time, energy=None, rate=None):
    return RunRecord(
        platform=platform,
        app=app,
        compiler=compiler,
        nodes=1,
        ranks_per_node=64,
        time=time,
        energy=energy,
        app_metric=None if rate is None else AppMetric(rate, "MLUP/s"),
    )


class TestEnergyMetrics:
    def test_edp(self):
        em = energy_metrics(record("dibona-tx2", "alya", "gnu", 347.40, energy=90170.0))
        assert em.e2s_kj == pytest.approx(90.17)
        assert em.edp_kjs == pytest.approx(31325.1, rel=0.005)

    def test_rounded_inputs_stay_close(self):
        em = energy_metrics(record("dibona-tx2", "graph500", "gnu", 39.84, energy=12000.0))
        assert em.edp_kjs == pytest.approx(477.98, rel=0.005)
        assert em.edp_kjs == pytest.approx(478.08, rel=1e-12)  # exact product of inputs

    def test_work_per_joule(self):
        em = energy_metrics(
            record("dibona-tx2", "lbc", "gnu", 251.64, energy=82200.0, rate=266.7)
        )
        assert em.work_per_joule.unit == "MLUP/J"
        assert em.work_per_joule.value == pytest.approx(0.82, abs=0.01)

    def test_missing_energy_not_available(self):
        assert energy_metrics(record("p", "a", "c", 10.0)) is None

    def test_non_rate_metric_skipped(self):
        rec = RunRecord(
            platform="p", app="a", compiler="c", nodes=1, ranks_per_node=1,
            time=10.0, energy=1000.0, app_metric=AppMetric(5.0, "GB"),
        )
        assert energy_metrics(rec).work_per_joule is None

    def test_definitional_closure(self):
        rec = record("p", "a", "c", 123.4, energy=5678.0, rate=42.5)
        em = energy_metrics(rec)
        left = em.work_per_joule.value * (em.e2s_kj * 1000.0)
        right = rec.app_metric.value * rec.time
        assert left == pytest.approx(right, rel=1e-9)

    def test_edp_factor_exchange(self):
        doubled_energy = energy_metrics(record("p", "a", "c", 10.0, energy=2000.0))
        doubled_time = energy_metrics(record("p", "a", "c", 20.0, energy=1000.0))
        assert doubled_energy.edp_kjs == doubled_time.edp_kjs


class TestComparePlatforms:
    def test_cross_platform_delta(self):
        records = [
            record("dibona-x86", "alya", "gnu", 236.13),
            record("dibona-tx2", "alya", "gnu", 347.40),
        ]
        table = compare_platforms(RunTable.from_records(records))
        cells = dict(table.rows)["alya"]
        tx2 = cells[("dibona-tx2", "gnu")]
        x86 = cells[("dibona-x86", "gnu")]
        assert x86.rank == 1 and x86.delta_pct == 0.0
        assert tx2.rank == 2
        assert tx2.delta_pct == pytest.approx(32.0, abs=0.5)

    def test_identical_groups_zero_delta(self):
        records = [
            record("p1", "app", "gnu", 100.0),
            record("p2", "app", "gnu", 100.0),
        ]
        cells = dict(compare_platforms(RunTable.from_records(records)).rows)["app"]
        assert all(cell.delta_pct == 0.0 for cell in cells.values())

    def test_single_platform_rejected(self):
        records = [
            record("only", "app", "gnu", 100.0),
            record("only", "app", "intel", 90.0),
        ]
        with pytest.raises(EmptyComparisonError):
            compare_platforms(RunTable.from_records(records))

    def test_no_shared_app_rejected(self):
        records = [record("p1", "app1", "gnu", 10.0), record("p2", "app2", "gnu", 10.0)]
        with pytest.raises(EmptyComparisonError):
            compare_platforms(RunTable.from_records(records))

    def test_rate_metric_ranks_higher_better(self):
        records = [
            record("p1", "lbc", "gnu", 100.0, rate=266.7),
            record("p2", "lbc", "gnu", 100.0, rate=285.2),
        ]
        cells = dict(compare_platforms(RunTable.from_records(records), metric="rate").rows)["lbc"]
        assert cells[("p2", "gnu")].rank == 1
        assert cells[("p1", "gnu")].delta_pct == pytest.approx(
            100.0 * (1.0 - 266.7 / 285.2), rel=1e-12
        )

    def test_renderers(self, fixtures_dir):
        from perfchar import parse_runs

        table = compare_platforms(parse_runs(fixtures_dir / "energy_node_runs.csv"))
        text = table.to_text()
        assert "alya" in text and "dibona-tx2/gnu" in text
        columns = table.to_csv_columns()
        assert list(columns)[0] == "app"
        assert {len(c) for c in columns.values()} == {20}  # one row per (app, column) cell
