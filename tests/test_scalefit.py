import dataclasses
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdahl_reference import fit_amdahl_reference
import scalefit_reference
from scalefit_reference import fit_gustafson_reference, fit_mpi_shares_reference, project_reference
from perfchar import (
    AmdahlFit,
    GustafsonFit,
    MpiShareFit,
    critical_units,
    eval_amdahl,
    eval_gustafson,
    fit_amdahl,
    fit_amdahl_many,
    fit_gustafson,
    fit_gustafson_many,
    fit_mpi_shares,
    fit_mpi_shares_many,
    project,
    project_many,
    share_decomposition,
    weak_scaling_size,
)
from perfchar.exceptions import (
    InvalidDataError,
    ParameterError,
    PerfcharError,
    UnderdeterminedError,
)
from perfchar.scalefit import A_LOWER_BOUND, AMDAHL_GRID, ProjectionPoint, _inverse, _lstsq
from refdata import AMDAHL_PARAM_ROWS, GUSTAFSON_PARAM_ROWS

SIX_POINT_GRID = (1, 2, 4, 8, 16, 32)


def amdahl_points(a, b, grid=SIX_POINT_GRID):
    return [(p, eval_amdahl(a, b, p)) for p in grid]


class TestEvalAmdahl:
    def test_fully_parallel(self):
        assert eval_amdahl(1.0, 0.0, 8) == 8.0

    def test_published_parameters(self):
        assert eval_amdahl(0.96, -0.685, 16) == pytest.approx(9.315, rel=1e-12)

    def test_baseline_closed_form(self):
        for b in (-0.5, 0.0, 0.7):
            assert eval_amdahl(0.9, b, 1) == pytest.approx(1.0 + b, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            eval_amdahl(0.0, 0.0, 4)
        with pytest.raises(ParameterError):
            eval_amdahl(1.2, 0.0, 4)
        with pytest.raises(ParameterError):
            eval_amdahl(0.9, 0.0, 0.5)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            a = rng.uniform(0.05, 0.999)
            b = rng.uniform(-1.5, 1.5)
            grid = np.linspace(1, 4096, 200)
            values = [eval_amdahl(a, b, p) for p in grid]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
            assert all(v <= 1.0 / (1.0 - a) + b + 1e-9 for v in values)


class TestFitAmdahl:
    def test_noiseless_recovery(self):
        fit = fit_amdahl(amdahl_points(0.96, -0.685))
        assert fit.a == pytest.approx(0.96, abs=1e-6)
        assert fit.b == pytest.approx(-0.685, abs=1e-6)
        assert fit.residual < 1e-12

    def test_linear_speedup_hits_bounds(self):
        fit = fit_amdahl([(p, float(p)) for p in SIX_POINT_GRID])
        assert fit.a == pytest.approx(1.0, abs=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-9)

    def test_noisy_two_sigma_coverage(self):
        # With six points (four degrees of freedom) the two-sigma band of a
        # chi-square-scaled covariance covers ~88% of trials, measured 86/100
        # with this seed sequence; the ten-point grid below clears 90.
        a_true, b_true = 0.96, -0.685
        clean = amdahl_points(a_true, b_true)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = [(p, s * (1.0 + 0.01 * rng.standard_normal())) for p, s in clean]
            fit = fit_amdahl(noisy)
            if abs(fit.a - a_true) <= 2 * fit.sigma_a:
                hits += 1
        assert hits >= 80

    def test_noisy_two_sigma_coverage_dense_grid(self):
        a_true, b_true = 0.96, -0.685
        grid = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
        clean = amdahl_points(a_true, b_true, grid)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = [(p, s * (1.0 + 0.01 * rng.standard_normal())) for p, s in clean]
            fit = fit_amdahl(noisy)
            if abs(fit.a - a_true) <= 2 * fit.sigma_a:
                hits += 1
        assert hits >= 90

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_amdahl([(1, 1.0), (2, 1.8)])
        with pytest.raises(UnderdeterminedError):
            fit_amdahl([(2, 1.8), (2, 1.9), (2, 2.0)])

    def test_singular_fit_is_invalid_data(self):
        points = [(1e17, 1.0), (2e17, 2.0), (3e17, 2.5)]
        with pytest.raises(InvalidDataError, match="uncertainties are not finite"):
            fit_amdahl(points)
        assert _outcome(_reference(points)) == _outcome(fit_amdahl_many([points])[0])

    def test_ill_conditioned_fit_is_invalid_data(self):
        # The variance of a comes out negative here, and would be clamped to a sigma of 0.
        with pytest.raises(InvalidDataError, match="uncertainties are not finite"):
            fit_amdahl([(1e13, 1.0), (2e13, 2.0), (3e13, 2.5)])

    @pytest.mark.parametrize("speedups", [(1e200, 1.5e200, 2e200), (1.0, 1e-200, 1e-250)])
    def test_weights_beyond_float_range_are_invalid_data(self, speedups):
        # The squared weights 1/s**2 underflow, or overflow: one error, and no RuntimeWarning.
        with pytest.raises(InvalidDataError, match="uncertainties are not finite"):
            fit_amdahl(list(zip((1, 2, 4), speedups)))

    def test_sigma_scales_with_noise(self):
        rng = np.random.default_rng(5)
        clean = amdahl_points(0.95, -0.5, (1, 2, 3, 4, 6, 8, 12, 16, 24, 32))
        small = fit_amdahl([(p, s * (1 + 0.002 * rng.standard_normal())) for p, s in clean])
        large = fit_amdahl([(p, s * (1 + 0.02 * rng.standard_normal())) for p, s in clean])
        assert large.sigma_a > small.sigma_a


class TestGustafson:
    def test_eval_published_parameter(self):
        assert eval_gustafson(0.817, 16) == pytest.approx(13.255, rel=1e-12)

    def test_eval_at_one_is_exactly_one(self):
        for a in np.random.default_rng(9).uniform(0.0, 1.0, 25):
            assert eval_gustafson(float(a), 1) == 1.0

    def test_constant_speedup_gives_zero(self):
        assert fit_gustafson([(p, 1.0) for p in (1, 2, 4, 8)]).a == 0.0

    def test_perfect_scaling_gives_one(self):
        assert fit_gustafson([(p, float(p)) for p in (1, 2, 4, 8)]).a == 1.0

    @pytest.mark.parametrize("label,a_true", GUSTAFSON_PARAM_ROWS)
    def test_exact_recovery(self, label, a_true):
        points = [(p, eval_gustafson(a_true, p)) for p in (1, 2, 4, 8, 16)]
        fit = fit_gustafson(points)
        assert fit.a == pytest.approx(a_true, abs=1e-9)
        assert fit.residual <= 1e-18

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_gustafson([(4, 3.0), (4, 3.1)])


class TestMpiShares:
    PARAMS = (1.26, 3.86, 19.59)

    def share_points(self, a, b, c, grid=(1, 2, 4, 8, 16)):
        return [(p, a * p + b, c) for p in grid]

    def test_exact_recovery(self):
        fit = fit_mpi_shares(self.share_points(*self.PARAMS))
        assert fit.a == pytest.approx(1.26, abs=1e-9)
        assert fit.b == pytest.approx(3.86, abs=1e-9)
        assert fit.c == pytest.approx(19.59, abs=1e-9)
        assert fit.sigma_c == pytest.approx(0.0, abs=1e-9)

    def test_constant_balance_share(self):
        fit = fit_mpi_shares([(p, 7.5, 20.0) for p in (1, 2, 4)])
        assert fit.a == pytest.approx(0.0, abs=1e-12)
        assert fit.b == pytest.approx(7.5, abs=1e-12)

    def test_two_points_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_mpi_shares([(1, 5.0, 20.0), (2, 6.0, 20.0)])

    def test_share_sum_above_100_rejected(self):
        with pytest.raises(InvalidDataError):
            fit_mpi_shares([(1, 50.0, 55.0), (2, 52.0, 55.0), (4, 54.0, 55.0)])

    def test_rank_deficient_fit_is_invalid_data(self):
        # lstsq cannot tell the slope from the intercept at these unit counts; the true slope is 0.8.
        points = [(1e8 + k, lb, 20.0) for k, lb in enumerate((10.0, 12.0, 11.0, 13.0))]
        with pytest.raises(InvalidDataError, match="uncertainties are not finite"):
            fit_mpi_shares(points)

    @pytest.mark.parametrize("procs", [-16.0, 0.0, 0.5])
    def test_unit_count_below_one_rejected(self, procs):
        points = [(procs, 5.0, 20.0), (2.0, 6.0, 20.0), (4.0, 7.0, 20.0)]
        with pytest.raises(ParameterError, match="unit counts must be >= 1"):
            fit_mpi_shares(points)
        assert _outcome_of(fit_mpi_shares_reference, points) == _outcome_of(fit_mpi_shares, points)

    def test_too_few_distinct_counts_fail_before_a_count_below_one(self):
        with pytest.raises(UnderdeterminedError):
            fit_mpi_shares([(0.5, 5.0, 20.0), (2.0, 6.0, 20.0), (2.0, 7.0, 20.0)])

    def test_share_out_of_range_rejected(self):
        with pytest.raises(InvalidDataError):
            fit_mpi_shares([(1, -1.0, 20.0), (2, 5.0, 20.0), (4, 6.0, 20.0)])

    def test_fitted_line_outside_the_percent_range_is_invalid_data(self):
        # Every share lies in [0, 100], but the fitted load-balance line is below 0 at p = 1.
        with pytest.raises(InvalidDataError, match=r"^fitted shares leave \[0, 100\] percent at observed p$"):
            fit_mpi_shares([(1, 0.0, 0.0), (2, 0.0, 0.0), (3, 10.0, 0.0)])

    def test_variance_of_minus_inf_is_invalid_data(self):
        # Sums of p**2 would underflow to 0, and inv() give a variance of -inf; a unit count below 1 fails first.
        points = [(1e-200, 10.0, 5.0), (2e-200, 20.0, 5.0), (3e-200, 31.0, 6.0)]
        with pytest.raises(ParameterError, match="unit counts must be >= 1"):
            fit_mpi_shares(points)
        assert _outcome_of(fit_mpi_shares_reference, points) == _outcome_of(fit_mpi_shares, points)

    def test_critical_units_both_definitions(self):
        fit = fit_mpi_shares(self.share_points(*self.PARAMS))
        lb_only = critical_units(fit, 100.0, "lb_only")
        lb_com = critical_units(fit, 100.0, "lb_plus_com")
        assert lb_only.units == pytest.approx((100.0 - 3.86) / 1.26, rel=1e-9)
        assert lb_com.units == pytest.approx((100.0 - 3.86 - 19.59) / 1.26, rel=1e-9)
        assert lb_only.units == pytest.approx(76.3, abs=0.1)
        assert lb_com.units == pytest.approx(60.7, abs=0.1)

    def test_no_critical_point_with_flat_slope(self):
        fit = MpiShareFit(a=0.0, b=5.0, c=20.0, sigma_a=0, sigma_b=0, sigma_c=0, residual=0)
        assert critical_units(fit, 100.0, "lb_only") is None

    @pytest.mark.parametrize("definition", ["lb_only", "lb_plus_com"])
    def test_critical_point_beyond_floats_is_invalid_data(self, definition):
        fit = MpiShareFit(a=1e-310, b=0.0, c=20.0, sigma_a=0, sigma_b=0, sigma_c=0, residual=0)
        with pytest.raises(InvalidDataError, match=f"{definition} critical point is not finite"):
            critical_units(fit, 100.0, definition)

    def test_bad_definition(self):
        fit = fit_mpi_shares(self.share_points(*self.PARAMS))
        with pytest.raises(ParameterError):
            critical_units(fit, 100.0, "something")


class TestShareIdentity:
    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t_cal, t_com, t_lb = rng.uniform(0.001, 100.0, 3)
            cal, com, lb = share_decomposition(t_cal, t_com, t_lb)
            assert cal + com + lb == pytest.approx(1.0, abs=1e-9)

    def test_negative_component_rejected(self):
        with pytest.raises(ParameterError):
            share_decomposition(-1.0, 1.0, 1.0)

    def test_zero_total_rejected(self):
        with pytest.raises(ParameterError):
            share_decomposition(0.0, 0.0, 0.0)


class TestProjection:
    def test_ideal_amdahl_efficiency(self):
        fit = AmdahlFit(a=1.0, b=0.0, sigma_a=0, sigma_b=0, residual=0)
        for point in project(fit, [1, 2, 4, 8, 64]):
            assert point.efficiency == pytest.approx(1.0, rel=1e-12)

    def test_gustafson_efficiency(self):
        fit = GustafsonFit(a=0.817, sigma_a=0, residual=0)
        (point,) = project(fit, [16])
        assert point.speedup == pytest.approx(13.255, rel=1e-12)
        assert point.efficiency == pytest.approx(13.255 / 16, rel=1e-12)

    def test_single_point_baselines(self):
        amdahl = AmdahlFit(a=0.9, b=-0.2, sigma_a=0, sigma_b=0, residual=0)
        (pa,) = project(amdahl, [1])
        assert pa.speedup == pytest.approx(0.8, rel=1e-12)
        gustafson = GustafsonFit(a=0.5, sigma_a=0, residual=0)
        (pg,) = project(gustafson, [1])
        assert pg.speedup == 1.0

    def test_unexpected_fit_type(self):
        with pytest.raises(ParameterError):
            project(object(), [1, 2])


class TestWeakScalingSize:
    def test_cubed_domain(self):
        size = weak_scaling_size((256, 256, 32), (2, 2, 16))
        assert size.global_dims == (512, 512, 512)
        assert size.total_cells == 512**3
        assert size.memory_bytes / 2**30 == pytest.approx(41.0, rel=0.02)

    def test_shorter_decomposition(self):
        size = weak_scaling_size((256, 256, 32), (2, 2, 12))
        assert size.global_dims == (512, 512, 384)
        assert size.memory_bytes / 2**30 == pytest.approx(31.0, rel=0.02)

    def test_identity_decomposition(self):
        size = weak_scaling_size((100, 40, 7), (1, 1, 1))
        assert size.global_dims == (100, 40, 7)
        assert size.memory_bytes == 100 * 40 * 7 * 41 * 8

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            weak_scaling_size((0, 1, 1), (1, 1, 1))
        with pytest.raises(ParameterError):
            weak_scaling_size((1, 1), (1, 1, 1))


class TestPublishedParameterRecovery:
    # Grids start at p=2: the strongly negative overhead rows put the model
    # curve below zero at p=1, which is not a representable speedup sample.
    @pytest.mark.parametrize("label,a_true,b_true", AMDAHL_PARAM_ROWS)
    def test_noiseless_recovery(self, label, a_true, b_true):
        fit = fit_amdahl(amdahl_points(a_true, b_true, grid=(2, 4, 8, 16, 32, 64)))
        assert fit.a == pytest.approx(a_true, abs=1e-6)
        assert fit.b == pytest.approx(b_true, abs=1e-6)


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _outcome(fit_or_error):
    """Comparable form of a fit result: exception type and message, or the bits of every field."""
    if isinstance(fit_or_error, Exception):
        return type(fit_or_error).__name__, str(fit_or_error)
    fit = fit_or_error
    return ("AmdahlFit", *(_bits(v) for v in (fit.a, fit.b, fit.sigma_a, fit.sigma_b, fit.residual)))


def _reference(points):
    try:
        return fit_amdahl_reference(points)
    except PerfcharError as exc:
        return exc


@st.composite
def _scaling_group(draw):
    """3-10 (p, speedup) points: on the model, with noise, or arbitrary; some invalid."""
    n = draw(st.integers(3, 10))
    pmin = draw(st.sampled_from((1, 2, 4)))
    kind = draw(st.sampled_from(("model", "noisy", "noisy", "arbitrary", "invalid")))
    if kind == "arbitrary":
        p = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
        s = draw(st.lists(st.floats(0.05, 80.0), min_size=n, max_size=n))
        return list(zip(p, s))
    p = [pmin * 2**k for k in range(n)]
    a = draw(st.sampled_from((1.0, draw(st.floats(0.3, 1.0)))))
    b = 1.0 - eval_amdahl(a, 0.0, pmin)
    s = [eval_amdahl(a, b, q) for q in p]
    if kind == "noisy":
        s = [v * (1.0 + draw(st.floats(-0.03, 0.03))) for v in s]
    elif kind == "invalid":
        s[draw(st.integers(0, n - 1))] = draw(st.sampled_from((0.0, -1.0)))
        if draw(st.booleans()):
            p[0] = 0.5
    return list(zip(p, s))


def _profiled_ssr(points, a):
    """The weighted SSR of the strong-scaling model at a, with b at its least-squares value."""
    p, s = np.array(sorted(points), dtype=float).T
    w = 1.0 / s
    d = s - 1.0 / ((1.0 - a) + a / p)
    return float(np.sum((w * (d - np.sum(w * w / np.sum(w * w) * d))) ** 2))


def _exact_ssr(points, fit):
    """The weighted SSR of a strong-scaling fit, in exact rational arithmetic."""
    a, b = Fraction(fit.a), Fraction(fit.b)
    return float(sum(((Fraction(s) - 1 / ((1 - a) + a / Fraction(p)) - b) / Fraction(s)) ** 2 for p, s in points))


def _noisy_recovery_groups():
    """The noisy rows of acceptance criterion 4: ten parameter rows, 100 seeds each."""
    grid = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
    groups = []
    for _, a_true, b_true in AMDAHL_PARAM_ROWS:
        clean = amdahl_points(a_true, b_true, grid)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            groups.append([(p, s * (1.0 + 0.01 * rng.standard_normal())) for p, s in clean])
    return groups


def _measured_groups(count=400, seed=7):
    """Speedups as the CLI forms them, against the time at the smallest of 3-8 arbitrary node counts."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(count):
        n = int(rng.integers(3, 9))
        p = np.sort(rng.choice(np.arange(1, 4097), n, replace=False)).astype(float)
        a = rng.uniform(0.3, 1.0)
        noise = rng.uniform(0.0, 0.3) * rng.standard_normal(n)
        times = 100.0 / np.array([eval_amdahl(a, 0.0, q) for q in p]) * np.abs(1.0 + noise) + 1e-9
        groups.append(list(zip(p.tolist(), (times[0] / times).tolist())))
    return groups


class TestFitAmdahlManyMatchesReference:
    """The batched fit gives every group its one-group result, bit for bit, and fits
    at least as well as the damped Gauss-Newton loop kept in amdahl_reference."""

    @settings(max_examples=150, deadline=None)
    @given(groups=st.lists(_scaling_group(), min_size=1, max_size=12))
    def test_random_groups(self, groups):
        got = fit_amdahl_many(groups)
        assert len(got) == len(groups)
        for points, result in zip(groups, got):
            try:
                alone = fit_amdahl(points)
            except PerfcharError as exc:
                alone = exc
            assert _outcome(result) == _outcome(alone)

    def test_long_groups(self):
        # Sums over more than eight points take numpy's pairwise path.
        rng = np.random.default_rng(3)
        groups = []
        for n in (3, 9, 12, 17, 33):
            p = np.arange(1, n + 1)
            s = [eval_amdahl(0.93, -0.2, q) * (1 + 0.01 * rng.standard_normal()) for q in p]
            groups.append(list(zip(p.tolist(), s)))
        for points, result in zip(groups, fit_amdahl_many(groups)):
            assert _outcome(result) == _outcome(fit_amdahl(points))

    @pytest.mark.parametrize("make_groups", [_noisy_recovery_groups, _measured_groups])
    def test_residual_no_higher_than_reference(self, make_groups):
        groups = make_groups()
        for points, result in zip(groups, fit_amdahl_many(groups)):
            reference = _reference(points)
            if isinstance(reference, PerfcharError):
                continue  # the loop can stop without converging; the fit then still returns
            assert isinstance(result, AmdahlFit), points
            # Where b is large against the residuals, rounding puts a computed SSR some 1e-12 off
            # its exact value, and the loop keeps only steps whose computed SSR falls.
            assert result.residual <= reference.residual * (1 + 1e-12) + 1e-17 or \
                _exact_ssr(points, result) <= _exact_ssr(points, reference) * (1 + 1e-12) + 1e-17, points

    @settings(max_examples=150, deadline=None)
    @given(groups=st.lists(_scaling_group(), min_size=1, max_size=12))
    def test_residual_no_higher_than_at_any_grid_point(self, groups):
        for points, result in zip(groups, fit_amdahl_many(groups)):
            if isinstance(result, AmdahlFit):
                assert result.residual == _profiled_ssr(points, result.a)
                assert result.residual <= min(_profiled_ssr(points, a) for a in AMDAHL_GRID.tolist()), points

    def test_errors_keep_their_group(self):
        good = amdahl_points(0.96, -0.685)
        results = fit_amdahl_many([good, [(1, 1.0), (2, 1.8)], good, [(1, 1.0), (2, -1.0), (4, 2.0)]])
        assert isinstance(results[0], AmdahlFit) and isinstance(results[2], AmdahlFit)
        assert _outcome(results[0]) == _outcome(results[2]) == _outcome(fit_amdahl(good))
        assert isinstance(results[1], UnderdeterminedError)
        assert isinstance(results[3], ParameterError)
        assert fit_amdahl_many([]) == []

    def test_singular_matrix_leaves_the_others_alone(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((4, 2, 2))
        stack[2] = [[1.0, 2.0], [2.0, 4.0]]
        result = _inverse(stack)
        assert np.isnan(result[2]).all()
        for k in (0, 1, 3):
            assert np.array_equal(result[k], np.linalg.inv(stack[k]))


def _closed_form_outcome(result):
    """Exception type and message, or the result's type and the bits of every float field."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    fields = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
    return (type(result).__name__, *(_bits(v) if isinstance(v, float) else v for v in fields))


def _outcome_of(call, *args, **kwargs):
    try:
        return _closed_form_outcome(call(*args, **kwargs))
    except PerfcharError as exc:
        return _closed_form_outcome(exc)


UNIT_COUNTS = (1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512)


@st.composite
def _share_group(draw):
    """0-29 share points, often with a repeated p: on the model with noise, or arbitrary; some invalid,
    some with p below 1."""
    n = draw(st.one_of(st.integers(0, 9), st.integers(10, 29)))
    p = draw(st.lists(st.sampled_from(UNIT_COUNTS) | st.sampled_from((0.0, 0.5)), min_size=n, max_size=n))
    if draw(st.booleans()):
        lb = draw(st.lists(st.floats(0.0, 70.0), min_size=n, max_size=n))
        com = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
    else:
        a, b, c = draw(st.floats(-0.05, 0.3)), draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 40.0))
        noise = draw(st.lists(st.floats(-0.5, 0.5), min_size=2 * n, max_size=2 * n))
        lb = [abs(a * q + b + e) for q, e in zip(p, noise)]
        com = [abs(c + e) for e in noise[n:]]
    if n and draw(st.integers(0, 4)) == 0:
        (lb if draw(st.booleans()) else com)[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from((-1.0, 100.5))
        )
    return list(zip(p, lb, com))


@st.composite
def _weak_group(draw):
    """0-12 (p, speedup) points, often with a repeated p; some with p below 1."""
    n = draw(st.integers(0, 12))
    p = draw(st.lists(st.sampled_from((0.5, *UNIT_COUNTS)), min_size=n, max_size=n))
    a = draw(st.floats(-0.2, 1.2))
    noise = draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n))
    return [(q, ((1.0 - a) + a * q) * (1.0 + e)) for q, e in zip(p, noise)]


@st.composite
def _projected_fit(draw):
    if draw(st.booleans()):
        return AmdahlFit(a=draw(st.floats(1e-6, 1.0)), b=draw(st.floats(-2.0, 2.0)),
                         sigma_a=0.0, sigma_b=0.0, residual=0.0)
    return GustafsonFit(a=draw(st.floats(0.0, 1.0)), sigma_a=0.0, residual=0.0)


class TestClosedFormManyMatchReference:
    """The batched closed-form fits and projection match the per-group reference, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(groups=st.lists(_share_group(), min_size=1, max_size=12))
    def test_share_groups(self, groups):
        got = fit_mpi_shares_many(groups)
        assert len(got) == len(groups)
        for points, result in zip(groups, got):
            expected = _outcome_of(fit_mpi_shares_reference, points)
            assert _closed_form_outcome(result) == expected
            assert _outcome_of(fit_mpi_shares, points) == expected

    @settings(max_examples=150, deadline=None)
    @given(groups=st.lists(_weak_group(), min_size=1, max_size=12))
    def test_weak_groups(self, groups):
        got = fit_gustafson_many(groups)
        assert len(got) == len(groups)
        for points, result in zip(groups, got):
            expected = _outcome_of(fit_gustafson_reference, points)
            assert _closed_form_outcome(result) == expected
            assert _outcome_of(fit_gustafson, points) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        fits=st.lists(_projected_fit(), min_size=1, max_size=12),
        p_list=st.lists(st.one_of(st.sampled_from((0, 0.5, *UNIT_COUNTS)), st.floats(1.0, 1e6)),
                        max_size=12),
    )
    def test_projection(self, fits, p_list):
        try:
            units, speedup, efficiency = project_many(fits, p_list)
        except PerfcharError as exc:
            for fit in fits:
                assert _outcome_of(project_reference, fit, p_list) == _closed_form_outcome(exc)
            return
        for fit, *row in zip(fits, speedup.tolist(), efficiency.tolist()):
            expected = [_closed_form_outcome(point) for point in project_reference(fit, p_list)]
            got = [_closed_form_outcome(point) for point in map(ProjectionPoint, units, *row)]
            assert got == expected
            assert [_closed_form_outcome(point) for point in project(fit, p_list)] == expected

    @settings(max_examples=150, deadline=None)
    @given(a=st.floats(-0.1, 1.1), b=st.floats(-2.0, 2.0),
           p=st.one_of(st.sampled_from((0, 0.5, *UNIT_COUNTS)), st.floats(1.0, 1e6)))
    def test_model_evaluation(self, a, b, p):
        assert _outcome_of(eval_amdahl, a, b, p) == \
            _outcome_of(scalefit_reference.eval_amdahl, a, b, p)
        assert _outcome_of(eval_gustafson, a, p) == \
            _outcome_of(scalefit_reference.eval_gustafson, a, p)

    def test_errors_keep_their_group(self):
        good = [(16, 5.0, 20.0), (32, 7.0, 20.5), (64, 11.2, 19.5)]
        results = fit_mpi_shares_many([good, [(16, 5.0, 20.0), (16, 5.5, 20.0), (32, 6.0, 20.0)],
                                       good, [(16, 60.0, 50.0), (32, 61.0, 50.0), (64, 62.0, 30.0)]])
        assert _closed_form_outcome(results[0]) == _closed_form_outcome(results[2])
        assert _closed_form_outcome(results[0]) == _outcome_of(fit_mpi_shares_reference, good)
        assert isinstance(results[1], UnderdeterminedError)
        assert str(results[3]) == "load-balance and communication shares exceed 100% at p = [16.0, 32.0]"
        assert fit_mpi_shares_many([]) == fit_gustafson_many([]) == []

    def test_empty_projection(self):
        fit = GustafsonFit(a=0.5, sigma_a=0.0, residual=0.0)
        units, speedup, efficiency = project_many([fit, fit], [])
        assert units == [] and speedup.shape == efficiency.shape == (2, 0)


#: Share groups of four points that make one stack: a full-rank design, a numerically rank-1 one
#: (unit counts 1e8 ... 1e8+3), one with p up to 1e150, one with a repeated p, and two whose
#: singular values' ratio is about 2x and 0.57x lstsq's cut-off, eps * 4 (unit counts from 2.5e7 and 4.7e7).
MIXED_SHARE_GROUPS = [
    [(1, 5.0, 20.0), (2, 6.1, 20.5), (4, 7.9, 19.5), (8, 12.2, 20.0)],
    [(1e8 + k, lb, 20.0) for k, lb in enumerate((10.0, 12.0, 11.0, 13.0))],
    [(1, 5.0, 20.0), (1e50, 6.0, 20.0), (1e100, 7.0, 20.0), (1e150, 8.0, 20.0)],
    [(1, 5.0, 20.0), (2, 6.0, 20.5), (2, 6.2, 19.5), (4, 8.1, 20.0)],
    [(2.5e7 + k, lb, 20.0) for k, lb in enumerate((10.0, 12.0, 11.0, 13.0))],
    [(4.7e7 + k, lb, 20.0) for k, lb in enumerate((10.0, 12.0, 11.0, 13.0))],
]


class TestStackedSolvers:
    """The one-call solvers give each matrix of a stack what numpy's per-matrix call gives it."""

    def test_lstsq_matches_numpy_per_group(self):
        points = np.array(MIXED_SHARE_GROUPS)
        design = np.stack((points[:, :, 0], np.ones_like(points[:, :, 0])), axis=2)
        coef, rank, singular = _lstsq(design, points[:, :, 1])
        assert rank.tolist() == [2, 1, 1, 2, 2, 1]
        for k, (d, y) in enumerate(zip(design, points[:, :, 1])):
            expected_coef, _, expected_rank, expected_singular = np.linalg.lstsq(d, y, rcond=None)
            assert coef[k].tobytes() == expected_coef.tobytes()
            assert rank[k] == expected_rank
            assert singular[k].tobytes() == expected_singular.tobytes()

    def test_share_fits_of_a_mixed_stack_match_one_group_fits(self):
        results = fit_mpi_shares_many(MIXED_SHARE_GROUPS)
        assert [type(result) for result in results] == [MpiShareFit, InvalidDataError, InvalidDataError,
                                                        MpiShareFit, MpiShareFit, InvalidDataError]
        for points, result in zip(MIXED_SHARE_GROUPS, results):
            assert _closed_form_outcome(result) == _outcome_of(fit_mpi_shares, points)

    def test_inverse_of_singular_and_non_finite_matrices(self):
        stack = np.random.default_rng(3).standard_normal((7, 2, 2))
        stack[1] = [[1.0, 2.0], [2.0, 4.0]]
        stack[3] = [[math.nan, 1.0], [1.0, 1.0]]
        stack[5] = [[math.inf, 1.0], [1.0, 1.0]]
        result = _inverse(stack)
        for k, matrix in enumerate(stack):
            try:
                assert result[k].tobytes() == np.linalg.inv(matrix).tobytes(), k
            except np.linalg.LinAlgError:
                assert np.isnan(result[k]).all(), k


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_share_point_is_invalid_data(self, bad, column):
        points = [[16.0, 5.0, 20.0], [32.0, 7.0, 20.0], [64.0, 11.0, 20.0]]
        points[1][column] = bad
        with pytest.raises(InvalidDataError, match="must be finite"):
            fit_mpi_shares(map(tuple, points))

    @pytest.mark.parametrize("fit_one", [fit_gustafson, fit_amdahl])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_speedup_point_is_invalid_data(self, fit_one, bad):
        with pytest.raises(InvalidDataError, match="must be finite"):
            fit_one([(1, 1.0), (2, bad), (4, 3.5), (8, 6.0)])
        with pytest.raises(InvalidDataError, match="must be finite"):
            fit_one([(1, 1.0), (bad, 2.0), (4, 3.5), (8, 6.0)])

    def test_weak_fit_that_overflows_names_the_largest_p(self):
        good = [(1, 1.0), (2, 2.0), (4, 4.0)]
        near = [(1, 1.0), (1.0000000000000002, 1e140), (1.0000000000000004, 1.0)]  # sums finite, sigma_a not
        results = fit_gustafson_many([good, [(1, 1.0), (2, 2.0), (2**62, 1e300)], near])
        assert results[0] == fit_gustafson_reference(good)
        assert [type(result) for result in results[1:]] == [InvalidDataError] * 2
        assert str(results[1]) == "unit counts up to p = 4.611686018427388e+18 overflow the weak-scaling fit"
        assert str(results[2]) == "unit counts up to p = 1.0000000000000004 overflow the weak-scaling fit"

    def test_strong_fit_whose_weight_overflows_is_one_error(self):
        # The weight 1/s of a speedup of 1e-320 overflows; the suite makes a stray warning an error.
        (result,) = fit_amdahl_many([[(1, 1.0), (2, 1e-320), (4, 1.0)]])
        assert type(result) is InvalidDataError
        assert str(result) == ("the fit's uncertainties are not finite: "
                               "its normal matrix is singular or ill-conditioned")

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_projection_unit_count(self, bad):
        fit = AmdahlFit(a=0.9, b=0.0, sigma_a=0.0, sigma_b=0.0, residual=0.0)
        with pytest.raises(ParameterError, match="must be finite"):
            project(fit, [2, bad])


class TestImport:
    def test_grid_is_the_union_of_its_two_parts(self):
        # The sidecar's fit_grid key records the grid; it is the one np.union1d gives, bit for bit.
        union = np.union1d(np.linspace(A_LOWER_BOUND, 1.0, 17), 1.0 - np.geomspace(0.1, 1e-9, 16))
        assert AMDAHL_GRID.dtype == union.dtype
        assert AMDAHL_GRID.tobytes() == union.tobytes()

    def test_cli_import_does_not_load_numpy_ma(self):
        def loads_ma(module):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
                str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))}
            code = f"import sys, {module}; print('numpy.ma' in sys.modules)"
            result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                    check=True)
            return result.stdout.strip() == "True"

        if loads_ma("numpy"):
            pytest.skip("import numpy alone loads numpy.ma with this numpy")
        assert not loads_ma("perfchar.cli")
