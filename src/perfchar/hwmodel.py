"""Declared platform descriptions and the hardware limits derived from them.

Specs are loaded from JSON files whose fields mirror :class:`PlatformSpec`
one-to-one; nothing is probed from the running host.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .exceptions import InvalidSpecError, MissingVectorUnitError, ParameterError

PRECISION_BITS = {"single": 32, "double": 64}
MODES = ("scalar", "vector")
VALID_REGISTER_WIDTHS = (64, 128, 256, 512)

#: STREAM-style sizing floor: arrays never shrink below ten million elements.
STREAM_ELEMENT_FLOOR = 10_000_000

#: Size of one array element in the sizing rule (double precision).
STREAM_ELEMENT_BYTES = 8


def _refuse_bad_numbers(spec) -> None:
    """Raise InvalidSpecError at the first field of ``spec`` that is NaN, infinite, or a fractional int."""
    for field in fields(spec):
        name, value = field.name, getattr(spec, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidSpecError(f"{name} must be finite, got {value!r}")
        if isinstance(value, float) and field.type.startswith("int") and not value.is_integer():
            raise InvalidSpecError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class VectorUnitSpec:
    """One SIMD unit: register width, issue rate, and flops per instruction."""

    extension_name: str
    register_width: int  # bits
    issue_per_cycle: int
    flops_per_instruction: int  # 2 for fused multiply-add

    def __post_init__(self):
        if self.register_width not in VALID_REGISTER_WIDTHS:
            raise InvalidSpecError(
                f"register_width must be one of {VALID_REGISTER_WIDTHS}, "
                f"got {self.register_width}"
            )
        if self.issue_per_cycle < 1:
            raise InvalidSpecError("issue_per_cycle must be >= 1")
        if self.flops_per_instruction < 1:
            raise InvalidSpecError("flops_per_instruction must be >= 1")
        _refuse_bad_numbers(self)


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of one compute node.

    ``memory_channels`` and ``channel_peak`` describe whatever scope the spec
    author declares (the shipped fixtures mirror published per-socket channel
    counts); ``peak_bandwidth`` simply multiplies them. Cache sizes are bytes.
    ``scalar_issue_per_cycle`` overrides the assumption that scalar FMA issues
    at the vector unit's rate.
    """

    name: str
    sockets: int
    cores_per_socket: int
    frequency: float  # GHz
    vector_units: tuple[VectorUnitSpec, ...]
    memory_channels: int
    channel_peak: float  # GB/s per channel
    llc_per_socket: int  # bytes
    l1_size: int = 0  # bytes
    l2_size: int = 0  # bytes
    scalar_issue_per_cycle: int | None = None

    def __post_init__(self):
        if self.sockets < 1:
            raise InvalidSpecError("sockets must be >= 1")
        if self.cores_per_socket < 1:
            raise InvalidSpecError("cores_per_socket must be >= 1")
        if self.frequency <= 0:
            raise InvalidSpecError("frequency must be > 0")
        if self.memory_channels < 1:
            raise InvalidSpecError("memory_channels must be >= 1")
        if self.channel_peak <= 0:
            raise InvalidSpecError("channel_peak must be > 0")
        if self.llc_per_socket <= 0:
            raise InvalidSpecError("llc_per_socket must be > 0")
        if min(self.l1_size, self.l2_size) < 0:
            raise InvalidSpecError("l1_size and l2_size must be >= 0")
        if self.scalar_issue_per_cycle is not None and self.scalar_issue_per_cycle < 1:
            raise InvalidSpecError("scalar_issue_per_cycle must be >= 1 when set")
        object.__setattr__(self, "vector_units", tuple(self.vector_units))
        _refuse_bad_numbers(self)
        try:  # and so must every limit derived from them, as a float; single precision has the top peaks
            defined = [m for m in MODES if self.vector_units or m == "scalar" and self.scalar_issue_per_cycle]
            largest = max(map(float, [self.cores_per_node, peak_bandwidth(self), 4 * self.llc_per_socket,
                                      *(peak_flops(self, "single", m) for m in defined)]))
        except OverflowError:  # an int that no float holds
            largest = math.inf
        if largest == math.inf:
            raise InvalidSpecError(f"spec '{self.name}': a peak, core count or cache bound overflows")

    @property
    def cores_per_node(self) -> int:
        return self.sockets * self.cores_per_socket

    def widest_vector_unit(self) -> VectorUnitSpec:
        if not self.vector_units:
            raise MissingVectorUnitError(f"spec '{self.name}' declares no vector unit")
        return max(self.vector_units, key=lambda u: u.register_width)


def peak_flops(spec: PlatformSpec, precision: str = "double", mode: str = "vector") -> float:
    """Theoretical floating-point peak of one core, in GFlop/s.

    peak = elements_per_register * issue_per_cycle * frequency_GHz * flops_per_instruction,
    where the register holds one element in scalar mode.
    """
    if precision not in PRECISION_BITS:
        raise ParameterError(f"precision must be one of {sorted(PRECISION_BITS)}, got {precision!r}")
    if mode not in MODES:
        raise ParameterError(f"mode must be 'scalar' or 'vector', got {mode!r}")

    if mode == "vector":
        unit = spec.widest_vector_unit()
        elements = unit.register_width // PRECISION_BITS[precision]
        issue = unit.issue_per_cycle
        flops_per_inst = unit.flops_per_instruction
    else:
        elements = 1
        if spec.vector_units:
            unit = spec.widest_vector_unit()
            issue = spec.scalar_issue_per_cycle or unit.issue_per_cycle
            flops_per_inst = unit.flops_per_instruction
        elif spec.scalar_issue_per_cycle is not None:
            issue = spec.scalar_issue_per_cycle
            flops_per_inst = 2  # fused multiply-add assumed
        else:
            raise InvalidSpecError(
                f"spec '{spec.name}' has no vector unit and no scalar_issue_per_cycle; "
                "the scalar issue rate cannot be derived"
            )
    return elements * issue * spec.frequency * flops_per_inst


def node_peak_flops(spec: PlatformSpec, precision: str = "double", mode: str = "vector") -> float:
    """Per-node peak: the per-core peak times the node's core count."""
    return peak_flops(spec, precision, mode) * spec.cores_per_node


def peak_bandwidth(spec: PlatformSpec) -> float:
    """Theoretical memory bandwidth in GB/s: channels times per-channel rate."""
    return spec.memory_channels * spec.channel_peak


def stream_min_elements(spec: PlatformSpec) -> int:
    """Smallest valid array length (8-byte elements) for bandwidth benchmarking.

    The arrays must hold at least ten million elements and at least four times
    the last-level cache, so cached lines cannot masquerade as memory traffic.
    """
    cache_bound = -(-4 * spec.llc_per_socket // STREAM_ELEMENT_BYTES)  # ceil division
    return max(STREAM_ELEMENT_FLOOR, cache_bound)


def platform_spec_from_dict(data: dict) -> PlatformSpec:
    """Build a spec from a plain dict (parsed JSON)."""
    if not isinstance(data, dict):
        raise InvalidSpecError(f"platform spec must be an object, got {type(data).__name__}")
    payload = dict(data)
    units = payload.pop("vector_units", [])
    try:
        unit_specs = tuple(VectorUnitSpec(**u) for u in units)
        return PlatformSpec(vector_units=unit_specs, **payload)
    except TypeError as exc:
        raise InvalidSpecError(f"bad platform spec fields: {exc}") from exc


def load_platform_spec(path: str | Path) -> PlatformSpec:
    """Load a spec from a JSON file whose keys mirror the dataclass fields."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and integers past the digit limit
        raise InvalidSpecError(f"{path}: not valid JSON: {exc}") from exc
    return platform_spec_from_dict(data)
