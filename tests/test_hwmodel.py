import math

import pytest

from perfchar import (
    PlatformSpec,
    VectorUnitSpec,
    load_platform_spec,
    node_peak_flops,
    peak_bandwidth,
    peak_flops,
    stream_min_elements,
)
from perfchar.exceptions import (
    InvalidSpecError,
    MissingVectorUnitError,
    ParameterError,
)
from perfchar.hwmodel import platform_spec_from_dict


def make_spec(**overrides) -> PlatformSpec:
    base = dict(
        name="synthetic",
        sockets=2,
        cores_per_socket=16,
        frequency=2.0,
        vector_units=(VectorUnitSpec("vu", 128, 2, 2),),
        memory_channels=4,
        channel_peak=20.0,
        llc_per_socket=16 << 20,
        l1_size=32768,
        l2_size=262144,
    )
    base.update(overrides)
    return PlatformSpec(**base)


class TestPeakFlops:
    def test_neon_single(self, dibona_tx2):
        assert peak_flops(dibona_tx2, "single", "vector") == 32.00

    def test_neon_double(self, dibona_tx2):
        assert peak_flops(dibona_tx2, "double", "vector") == 16.00

    def test_avx512_single(self, marenostrum4):
        assert peak_flops(marenostrum4, "single", "vector") == 134.40

    def test_avx512_double(self, marenostrum4):
        assert peak_flops(marenostrum4, "double", "vector") == 67.20

    def test_scalar_collapses_to_one_element(self, dibona_tx2):
        assert peak_flops(dibona_tx2, "double", "scalar") == 8.00
        assert peak_flops(dibona_tx2, "single", "scalar") == 8.00

    def test_vector_mode_without_unit(self):
        spec = make_spec(vector_units=(), scalar_issue_per_cycle=2)
        with pytest.raises(MissingVectorUnitError):
            peak_flops(spec, "double", "vector")

    def test_scalar_without_any_issue_rate(self):
        spec = make_spec(vector_units=())
        with pytest.raises(InvalidSpecError):
            peak_flops(spec, "double", "scalar")

    def test_scalar_issue_override(self):
        spec = make_spec(scalar_issue_per_cycle=1)
        assert peak_flops(spec, "double", "scalar") == 4.0
        assert peak_flops(spec, "double", "vector") == 16.0

    def test_bad_arguments(self, dibona_tx2):
        with pytest.raises(ParameterError):
            peak_flops(dibona_tx2, "half", "vector")
        with pytest.raises(ParameterError):
            peak_flops(dibona_tx2, "double", "simd")

    @pytest.mark.parametrize("width", [64, 128, 256, 512])
    @pytest.mark.parametrize("precision,bits", [("single", 32), ("double", 64)])
    def test_vector_is_scalar_times_lanes(self, width, precision, bits):
        if width < bits:
            pytest.skip("register narrower than one element")
        spec = make_spec(vector_units=(VectorUnitSpec("vu", width, 2, 2),))
        vector = peak_flops(spec, precision, "vector")
        scalar = peak_flops(spec, precision, "scalar")
        assert vector == scalar * (width // bits)

    def test_node_peak_is_per_core_times_cores(self, dibona_tx2):
        per_core = peak_flops(dibona_tx2, "double", "vector")
        assert node_peak_flops(dibona_tx2, "double", "vector") == per_core * 64

    def test_widest_unit_wins(self):
        spec = make_spec(
            vector_units=(
                VectorUnitSpec("narrow", 128, 2, 2),
                VectorUnitSpec("wide", 512, 2, 2),
            )
        )
        assert peak_flops(spec, "double", "vector") == 8 * 2 * 2.0 * 2


class TestPeakBandwidth:
    def test_eight_channels(self, dibona_tx2):
        assert peak_bandwidth(dibona_tx2) == 170.64

    def test_six_channels(self, marenostrum4):
        # 6 * 25.60 rounds one ulp away from the decimal literal.
        assert peak_bandwidth(marenostrum4) == pytest.approx(153.60, abs=1e-12)

    def test_single_channel_identity(self):
        spec = make_spec(memory_channels=1, channel_peak=10.0)
        assert peak_bandwidth(spec) == 10.0

    def test_linear_in_channels(self):
        for channels in (1, 2, 3, 6):
            single = peak_bandwidth(make_spec(memory_channels=channels))
            double = peak_bandwidth(make_spec(memory_channels=2 * channels))
            assert double == pytest.approx(2 * single, rel=1e-15)

    def test_zero_channels_rejected_at_construction(self):
        with pytest.raises(InvalidSpecError):
            make_spec(memory_channels=0)


class TestStreamSizing:
    def test_32_mib_cache(self, dibona_tx2):
        assert stream_min_elements(dibona_tx2) == 16_777_216

    def test_33_mib_cache(self, marenostrum4):
        assert stream_min_elements(marenostrum4) == 17_301_504

    def test_small_cache_hits_floor(self):
        assert stream_min_elements(make_spec(llc_per_socket=1 << 20)) == 10_000_000

    @pytest.mark.parametrize("llc", [1 << 20, 16 << 20, 20_000_001, 32 << 20, 256 << 20])
    def test_floor_and_cache_bound(self, llc):
        elements = stream_min_elements(make_spec(llc_per_socket=llc))
        assert elements >= 10_000_000
        assert elements >= math.ceil(4 * llc / 8) or elements == 10_000_000
        if 4 * llc / 8 > 10_000_000:
            assert elements >= llc / 2


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("sockets", 0),
            ("cores_per_socket", 0),
            ("frequency", 0.0),
            ("channel_peak", 0.0),
            ("llc_per_socket", 0),
            ("scalar_issue_per_cycle", 0),
        ],
    )
    def test_invariants(self, field, value):
        with pytest.raises(InvalidSpecError):
            make_spec(**{field: value})

    def test_bad_register_width(self):
        with pytest.raises(InvalidSpecError):
            VectorUnitSpec("vu", 96, 2, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["sockets", "cores_per_socket", "frequency", "memory_channels",
                                       "channel_peak", "llc_per_socket", "l1_size", "l2_size",
                                       "scalar_issue_per_cycle"])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=field):
            make_spec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["issue_per_cycle", "flops_per_instruction"])
    def test_non_finite_unit_number_rejected(self, field, value):
        numbers = {"register_width": 128, "issue_per_cycle": 2, "flops_per_instruction": 2, field: value}
        with pytest.raises(InvalidSpecError, match=field):
            VectorUnitSpec("vu", **numbers)

    @pytest.mark.parametrize("field, value", [
        ("sockets", 1.5), ("cores_per_socket", 32.5), ("memory_channels", 7.9), ("llc_per_socket", 33554432.5),
        ("l1_size", 0.5), ("l2_size", 1.25), ("scalar_issue_per_cycle", 1.5),
    ])
    def test_fractional_count_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=f"^{field} must be a whole number, got {value!r}$"):
            make_spec(**{field: value})

    @pytest.mark.parametrize("field", ["issue_per_cycle", "flops_per_instruction"])
    def test_fractional_unit_count_rejected(self, field):
        numbers = {"register_width": 128, "issue_per_cycle": 2, "flops_per_instruction": 2, field: 2.5}
        with pytest.raises(InvalidSpecError, match=f"^{field} must be a whole number"):
            VectorUnitSpec("vu", **numbers)

    @pytest.mark.parametrize("field", ["l1_size", "l2_size"])
    def test_negative_cache_size_rejected(self, field):
        with pytest.raises(InvalidSpecError, match="l1_size and l2_size must be >= 0"):
            make_spec(**{field: -5})

    def test_whole_float_count_accepted(self):
        assert make_spec(sockets=2.0, l1_size=0).cores_per_node == 2.0 * make_spec().cores_per_socket

    @pytest.mark.parametrize("overrides", [
        dict(frequency=1e308),  # every flops peak
        dict(channel_peak=1e308),  # the bandwidth peak
        dict(sockets=1e200, cores_per_socket=1e200),  # the core count
        dict(llc_per_socket=1e308),  # four times the cache, the sizing rule's bound
        dict(vector_units=(), scalar_issue_per_cycle=1e308),  # the scalar peak alone
        dict(vector_units=(VectorUnitSpec("vu", 128, 10**400, 2),)),  # no float holds the product
        dict(frequency=10**400),  # an int peak no float holds
        dict(channel_peak=10**400),
        dict(sockets=10**400),
    ])
    def test_overflowing_limit_rejected(self, overrides):
        with pytest.raises(InvalidSpecError, match="overflows"):
            make_spec(**overrides)

    def test_finite_limits_accepted(self):
        spec = make_spec(sockets=2, cores_per_socket=10**6, frequency=1e6, llc_per_socket=1 << 40)
        assert peak_flops(spec, "single", "vector") == 16e6
        assert stream_min_elements(spec) == 1 << 39

    def test_cores_per_node(self, dibona_tx2):
        assert dibona_tx2.cores_per_node == 64


class TestSpecSerialization:
    def test_fixture_files_load(self, dibona_tx2, marenostrum4):
        assert dibona_tx2.name == "dibona-tx2"
        assert marenostrum4.frequency == 2.1
        assert marenostrum4.vector_units[0].register_width == 512

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidSpecError):
            platform_spec_from_dict({"name": "x", "bogus": 1})

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidSpecError):
            load_platform_spec(path)
