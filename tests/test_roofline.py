import math

import numpy as np
import pytest

from perfchar import (
    CounterSample,
    KernelPoint,
    arithmetic_intensity,
    build_roofline,
    classify,
    roofline_curve,
    sustained_perf,
)
from perfchar.exceptions import ParameterError
from perfchar.roofline import COMPUTE_BOUND, MEMORY_BOUND


@pytest.fixture
def tx2_core_model():
    # Single-precision per-core compute peak against the measured node bandwidth.
    return build_roofline(32.0, 228.62, scope="core")


class TestBuildRoofline:
    def test_ridge_from_measured_peaks(self, tx2_core_model):
        assert tx2_core_model.ridge_intensity == pytest.approx(0.13997, abs=5e-6)

    def test_unit_peaks(self):
        assert build_roofline(1.0, 1.0).ridge_intensity == 1.0

    def test_ridge_from_theoretical_peaks(self):
        assert build_roofline(67.2, 153.60).ridge_intensity == pytest.approx(0.4375, rel=1e-12)

    @pytest.mark.parametrize(
        "flops,bandwidth",
        [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)],
    )
    def test_non_positive_peaks(self, flops, bandwidth):
        with pytest.raises(ParameterError, match="finite and positive"):
            build_roofline(flops, bandwidth)


class TestSustainedPerf:
    def test_ridge_attains_compute_peak(self, tx2_core_model):
        value = sustained_perf(tx2_core_model, tx2_core_model.ridge_intensity)
        assert value == pytest.approx(tx2_core_model.peak_flops, abs=1e-12)

    def test_memory_bound_branch(self, tx2_core_model):
        assert sustained_perf(tx2_core_model, 0.05) == pytest.approx(11.431, rel=1e-12)

    def test_compute_plateau(self, tx2_core_model):
        assert sustained_perf(tx2_core_model, 10 * tx2_core_model.ridge_intensity) == 32.0

    def test_negative_intensity(self, tx2_core_model):
        with pytest.raises(ParameterError):
            sustained_perf(tx2_core_model, -0.1)

    def test_continuity_at_ridge(self, tx2_core_model):
        ridge = tx2_core_model.ridge_intensity
        for eps in (1e-6, 1e-9, 1e-12):
            below = sustained_perf(tx2_core_model, ridge - eps)
            above = sustained_perf(tx2_core_model, ridge + eps)
            assert abs(above - below) <= tx2_core_model.peak_bandwidth * eps + 1e-12

    def test_equals_min_form_and_monotone(self, tx2_core_model):
        rng = np.random.default_rng(7)
        grid = np.sort(rng.uniform(0.0, 10.0, 500))
        values = [sustained_perf(tx2_core_model, i) for i in grid]
        for intensity, value in zip(grid, values):
            assert value == min(32.0, 228.62 * intensity)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestArithmeticIntensity:
    def test_balanced(self):
        assert arithmetic_intensity(CounterSample(flops=64, loads=4, stores=4)) == 1.0

    def test_counter_scale_inputs(self):
        sample = CounterSample(flops=9e9, loads=10e9, stores=2.5e9)
        assert arithmetic_intensity(sample) == pytest.approx(0.09, rel=1e-12)

    def test_no_flops(self):
        assert arithmetic_intensity(CounterSample(flops=0, loads=1, stores=0)) == 0.0

    def test_zero_accesses(self):
        with pytest.raises(ParameterError):
            arithmetic_intensity(CounterSample(flops=10, loads=0, stores=0))

    def test_inverse_scaling_in_accesses(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            flops = rng.uniform(1, 1e9)
            loads = rng.uniform(1, 1e9)
            stores = rng.uniform(0, 1e9)
            one = arithmetic_intensity(CounterSample(flops, loads, stores))
            two = arithmetic_intensity(CounterSample(flops, 2 * loads, 2 * stores))
            assert two == pytest.approx(one / 2, rel=1e-12)


class TestClassify:
    def test_below_ridge_is_memory_bound(self, tx2_core_model):
        result = classify(tx2_core_model, KernelPoint("assembly", 0.09))
        assert result.bound == MEMORY_BOUND
        assert result.headroom is None

    def test_ridge_tie_break_is_compute_bound(self, tx2_core_model):
        result = classify(tx2_core_model, KernelPoint("ridge", tx2_core_model.ridge_intensity))
        assert result.bound == COMPUTE_BOUND

    def test_above_ridge_is_compute_bound(self, tx2_core_model):
        assert classify(tx2_core_model, KernelPoint("dense", 1.0)).bound == COMPUTE_BOUND

    def test_headroom(self, tx2_core_model):
        result = classify(tx2_core_model, KernelPoint("kern", 0.05, measured_perf=2.0))
        assert result.headroom == pytest.approx(11.431 / 2.0, rel=1e-12)
        assert not result.above_roof

    def test_measurement_above_roof_warns(self, tx2_core_model):
        point = KernelPoint("noisy", 0.05, measured_perf=20.0)
        result = classify(tx2_core_model, point)
        assert result.above_roof
        assert result.bound == MEMORY_BOUND

    def test_invalid_points(self):
        with pytest.raises(ParameterError):
            KernelPoint("bad", -0.1)
        with pytest.raises(ParameterError):
            KernelPoint("bad", 0.1, measured_perf=-1.0)
        with pytest.raises(ParameterError):
            KernelPoint("bad", 0.1, time_share=1.5)


class TestCurve:
    def test_density_and_order(self, tx2_core_model):
        curve = roofline_curve(tx2_core_model, 0.01, 100.0)
        assert len(curve) == 4 * 64 + 1  # four decades at 64 points each
        intensities = [i for i, _ in curve]
        assert intensities == sorted(intensities)
        assert intensities[0] == pytest.approx(0.01, rel=1e-9)
        assert intensities[-1] == pytest.approx(100.0, rel=1e-9)
        perfs = [p for _, p in curve]
        assert all(b >= a - 1e-12 for a, b in zip(perfs, perfs[1:]))

    def test_bad_range(self, tx2_core_model):
        with pytest.raises(ParameterError):
            roofline_curve(tx2_core_model, 0.0, 1.0)
        with pytest.raises(ParameterError):
            roofline_curve(tx2_core_model, 1.0, 0.5)
