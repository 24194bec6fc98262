"""The columnar group-by against the per-group loops it replaced.

``group_stats``, ``compare_platforms`` and ``speedup_points`` must give the
results of ``grouping_reference`` bit for bit, in the same order, and fail
with the same error. The draws hold repeated keys and (key, nodes) cells,
equal means, -0.0 and negative rates, spreads whose squares overflow, and
records without a positive rate, on which a weak-scaling group fails.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouping_reference as ref
from perfchar.exceptions import EmptyComparisonError
from perfchar.ingest import GROUP_FIELDS, AppMetric, RunRecord, RunTable, group_stats
from perfchar.metrics import compare_platforms, speedup_points
from perfchar.scalefit import PointGroups

# Few distinct values, so keys repeat and means tie.
TIMES = st.one_of(st.sampled_from([1.0, 2.0, 0.5, 3.0]), st.floats(1e-3, 1e4))
RATES = st.one_of(st.sampled_from([1.0, 2.0, 5.0]), st.floats(1e-2, 1e4))
# 1e200 beside 1.0 in one group overflows the square of its spread, +-1.7e308
# overflow the sum, and rates of 0, -0.0 or below fail weak scaling.
EXTREME_TIMES = st.one_of(TIMES, st.sampled_from([1e200, 1e-300, 1.7e308]))
EXTREME_RATES = st.one_of(
    RATES, st.sampled_from([0.0, -0.0, -1.0, 1e200, -1e200, 1.7e308, -1.7e308]), st.floats(-1e4, 1e4)
)
STAMPS = st.sampled_from(["", "2018-11-01T00:00:00Z", "2018-11-01", "2020-01-01T00:00:00+01:00"])


@st.composite
def records(draw, min_size=0):
    """Run records; in half the draws, values that overflow, and records without a positive rate."""
    extreme = draw(st.booleans())
    times, rates = (EXTREME_TIMES, EXTREME_RATES) if extreme else (TIMES, RATES)
    units = st.sampled_from(["MLUP/s", "MLUP/s", "GFlop/s", "steps", None]) if extreme else st.just("MLUP/s")
    rows = []
    for _ in range(draw(st.integers(min_size, 24))):
        unit = draw(units)
        rows.append(RunRecord(
            draw(st.sampled_from(["p", "q", "r"])), draw(st.sampled_from(["a", "b"])),
            draw(st.sampled_from(["c", "d"])), draw(st.sampled_from([1, 2, 4, 8, 2**40])),
            draw(st.sampled_from([1, 64])), draw(times),
            draw(st.one_of(st.none(), st.sampled_from([1.0, 5e3, 1e200 if extreme else 2.0]))),
            None if unit is None else AppMetric(draw(rates), unit),
            draw(STAMPS),
        ))
    return rows


def outcome(fn, *args, **kwargs):
    """repr of the result, or the error's type and message; a numpy warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", repr(fn(*args, **kwargs))
        except Exception as exc:  # the comparison is of which error, so every kind counts
            return type(exc).__name__, str(exc)


def stats_by_key(runs, fields=("app", "platform", "compiler"), value="time"):
    """group_stats in the reference's form: key -> AggregateStats, groups in first-seen order."""
    keys, first, n, mean, stddev = group_stats(runs, fields, value)
    seen = np.argsort(first)
    return {keys[g]: ref.AggregateStats(*stats) for g, *stats in
            zip(seen.tolist(), mean[seen].tolist(), stddev[seen].tolist(), n[seen].tolist())}


def key_fields(draw, first: str) -> tuple[str, ...]:
    """``first``, then up to two more GROUP_FIELDS members."""
    return (first, *draw(st.lists(st.sampled_from(GROUP_FIELDS), max_size=2)))


class TestAggregate:
    @pytest.mark.parametrize("first", GROUP_FIELDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=records())
    def test_matches_reference(self, first, data, rows):
        fields = key_fields(data.draw, first)
        table = RunTable.from_records(rows)
        for value in ("time", "energy", "metric_value"):
            expected = outcome(ref.aggregate, rows, fields, value=value)
            assert outcome(stats_by_key, table, fields, value=value) == expected

    @settings(max_examples=60, deadline=None)
    @given(rows=records())
    def test_rates_match_reference(self, rows):
        table = RunTable.from_records(rows)
        rates = table.take(np.flatnonzero(table.is_rate()))
        expected = outcome(ref.aggregate, list(rates), ("app",), value="metric_value")
        assert outcome(stats_by_key, rates, ("app",), value="metric_value") == expected

    def test_overflow_names_the_first_group_seen(self):
        # Group b overflows at an earlier record, but group a is seen first.
        rows = [RunRecord("p", app, "c", 1, 1, time) for app, time in
                [("a", 1.0), ("b", 1e200), ("b", 1.0), ("a", 1e200)]]
        table = RunTable.from_records(rows)
        assert outcome(stats_by_key, table) == outcome(ref.aggregate, rows)
        assert outcome(stats_by_key, table) == ("InvalidDataError", "time values of group a/p/c overflow")


class TestComparePlatforms:
    @pytest.mark.parametrize("metric", ["time", "rate"])
    @settings(max_examples=120, deadline=None)
    @given(rows=records())
    def test_matches_reference(self, metric, rows):
        expected = outcome(ref.compare_platforms, rows, metric)
        got = outcome(compare_platforms, RunTable.from_records(rows), metric)
        refused = first_refused_app(rows, metric) if expected[0] in ("ok", "ZeroDivisionError") else None
        if refused is not None:  # a best rate mean of 0, or a cell that is not finite
            assert got[0] == "InvalidDataError"
            assert got[1].startswith(f"app {refused[0]}: {refused[1]}")
        else:
            assert got == expected

    @pytest.mark.parametrize("metric, cells, app", [
        ("time", [("p1", 1e308), ("p1", 1e308), ("p2", 1.0)], "a"),  # a mean and stddev of inf
        ("rate", [("p1", 1e-300), ("p2", -1e300)], "a"),  # a delta_pct of inf
        ("time", [("p1", 1.7e308), ("p1", 1.7e308), ("p2", 1.7e308), ("p2", 1.7e308)], "a"),  # inf / inf
    ])
    def test_cell_that_is_not_finite_names_the_app(self, metric, cells, app):
        rows = [RunRecord("q", "b", "c", 1, 1, 1.0, None, AppMetric(1.0, "MLUP/s")),
                RunRecord("r", "b", "c", 1, 1, 2.0, None, AppMetric(2.0, "MLUP/s")),
                *(RunRecord(platform, app, "c", 1, 1, value if metric == "time" else 1.0, None,
                            AppMetric(value, "MLUP/s")) for platform, value in cells)]
        assert outcome(compare_platforms, RunTable.from_records(rows), metric) == \
            ("InvalidDataError", f"app {app}: a mean, stddev or delta_pct is not finite")
        assert first_refused_app(rows, metric) == (app, "a mean, stddev or delta_pct is not finite")

    def test_equal_means_rank_in_first_seen_order(self):
        rows = [RunRecord(platform, "a", compiler, 1, 1, 2.0) for platform, compiler in
                [("q", "d"), ("p", "c"), ("q", "c"), ("p", "d")]]
        table = compare_platforms(RunTable.from_records(rows))
        cells = table.rows[0][1]
        assert [cells[col].rank for col in [("q", "d"), ("p", "c"), ("q", "c"), ("p", "d")]] == [1, 2, 3, 4]
        assert repr(table) == repr(ref.compare_platforms(rows))


def first_refused_app(rows, metric):
    """The first app, in sorted order, whose reference row divides by a best rate mean of 0 or
    holds a mean, stddev or delta_pct that is not finite, and why; None when there is none."""
    for app in sorted({r.app for r in rows}):
        try:
            table = ref.compare_platforms([r for r in rows if r.app == app], metric)
        except ZeroDivisionError:
            return app, "the best rate mean is 0"
        except EmptyComparisonError:  # one platform only: not compared
            continue
        cells = table.rows[0][1].values()
        if not np.isfinite([(c.mean, c.stddev, c.delta_pct) for c in cells]).all():
            return app, "a mean, stddev or delta_pct is not finite"
    return None


def speedups(runs, fields, model, fn):
    """``fn``'s labels, its points as group sizes and rows, and its failure as a type and a message."""
    labels, points, failure = fn(runs, fields, model)
    if not isinstance(points, PointGroups):  # the reference's lists of (nodes, speedup) pairs
        points = PointGroups.from_groups(points, 2)
    failure = failure and (type(failure).__name__, str(failure))
    return labels, points.sizes.tolist(), points.points.tolist(), failure


class TestSpeedupPoints:
    @pytest.mark.parametrize("model", ["amdahl", "gustafson"])
    @pytest.mark.parametrize("first", GROUP_FIELDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=records(min_size=1))
    def test_matches_reference(self, model, first, data, rows):
        fields = key_fields(data.draw, first)
        table = RunTable.from_records(rows)
        expected = outcome(speedups, table, fields, model, ref.speedup_points)
        assert outcome(speedups, table, fields, model, speedup_points) == expected

    def test_gustafson_failure_keeps_the_groups_before_it(self):
        rows = [RunRecord("p", app, "c", nodes, 1, 1.0, None, AppMetric(rate, unit))
                for app, nodes, rate, unit in [("b", 1, 4.0, "MLUP/s"), ("a", 2, 4.0, "MLUP/s"),
                                               ("c", 1, 1.0, "steps"), ("a", 1, 2.0, "MLUP/s")]]
        labels, points, failure = speedup_points(RunTable.from_records(rows), ("app",), "gustafson")
        assert labels == ["a", "b"]
        assert (points.sizes.tolist(), points.points.tolist()) == ([2, 1], [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        assert "positive rate" in str(failure)
        assert outcome(speedups, RunTable.from_records(rows), ("app",), "gustafson", speedup_points) == \
            outcome(speedups, RunTable.from_records(rows), ("app",), "gustafson", ref.speedup_points)
