"""Roofline models: performance ceilings, arithmetic intensity, classification.

A model is the single-ceiling kind: sustained performance is
``min(peak_flops, peak_bandwidth * intensity)`` and the ridge intensity
separates the memory-bound regime from the compute-bound one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import ParameterError

MEMORY_BOUND = "memory-bound"
COMPUTE_BOUND = "compute-bound"

#: Sampling density for emitted roofline curves (points per decade, log axis).
CURVE_POINTS_PER_DECADE = 64


@dataclass(frozen=True)
class RooflineModel:
    """Compute peak (GFlop/s), bandwidth peak (GB/s), and their ridge (Flop/Byte).

    ``scope`` records what the compute peak refers to (one core, one node, ...)
    so models of different granularity cannot be mixed silently.
    """

    peak_flops: float
    peak_bandwidth: float
    scope: str = "node"

    def __post_init__(self):
        if not (0 < self.peak_flops < math.inf and 0 < self.peak_bandwidth < math.inf):
            raise ParameterError("roofline peaks must be finite and positive")
        if not 0 < self.ridge_intensity < math.inf:
            raise ParameterError("roofline ridge peak_flops / peak_bandwidth must be finite and > 0, "
                                 f"got {self.peak_flops!r} / {self.peak_bandwidth!r}")

    @property
    def ridge_intensity(self) -> float:
        return self.peak_flops / self.peak_bandwidth


@dataclass(frozen=True)
class CounterSample:
    """Hardware-counter totals for one kernel: flops plus load/store counts."""

    flops: float
    loads: float
    stores: float
    access_bytes: int = 8

    def __post_init__(self):
        if self.flops < 0:
            raise ParameterError("flops must be >= 0")
        if not (0 <= self.loads < math.inf and 0 <= self.stores < math.inf):
            raise ParameterError("loads and stores must be finite and >= 0")
        if not 0 < self.access_bytes < 2**63:  # a larger int does not convert to float
            raise ParameterError("access_bytes must be > 0 and < 2**63")


@dataclass(frozen=True)
class KernelPoint:
    """One kernel placed on the roofline: intensity plus optional measurements."""

    label: str
    intensity: float
    measured_perf: float | None = None  # GFlop/s
    time_share: float | None = None  # fraction of total run time

    def __post_init__(self):
        if not 0 <= self.intensity < math.inf:
            raise ParameterError("intensity must be finite and >= 0")
        if self.measured_perf is not None and not 0 <= self.measured_perf < math.inf:
            raise ParameterError("measured_perf must be finite and >= 0 when present")
        if self.time_share is not None and not 0 <= self.time_share <= 1:
            raise ParameterError("time_share must be within [0, 1] when present")


@dataclass(frozen=True)
class Classification:
    """Roofline verdict for one kernel point."""

    label: str
    bound: str  # MEMORY_BOUND or COMPUTE_BOUND
    sustained: float  # ceiling at the point's intensity, GFlop/s
    headroom: float | None  # sustained / measured, when a measurement exists
    above_roof: bool  # measurement exceeds the ceiling (counter noise)


def build_roofline(peak_flops: float, peak_bandwidth: float, scope: str = "node") -> RooflineModel:
    """Construct a model from a compute peak (GFlop/s) and a bandwidth peak (GB/s)."""
    return RooflineModel(peak_flops, peak_bandwidth, scope)


def sustained_perf(model: RooflineModel, intensity: float) -> float:
    """Ceiling at the given intensity: min(peak_flops, peak_bandwidth * intensity)."""
    if intensity < 0:
        raise ParameterError("intensity must be >= 0")
    return min(model.peak_flops, model.peak_bandwidth * intensity)


def arithmetic_intensity(sample: CounterSample) -> float:
    """Flops per byte moved: flops / ((loads + stores) * access_bytes)."""
    moved = (sample.loads + sample.stores) * sample.access_bytes
    if moved <= 0:
        raise ParameterError("intensity is undefined without memory accesses")
    if moved == math.inf:
        raise ParameterError("bytes moved, (loads + stores) * access_bytes, overflows")
    return sample.flops / moved


def classify(model: RooflineModel, point: KernelPoint) -> Classification:
    """Place a kernel point: memory-bound strictly below the ridge, else compute-bound.

    A measurement above the ceiling is flagged in ``above_roof`` rather than
    rejected; counter-based intensity carries measurement error. A measurement
    so small that the headroom overflows is rejected.
    """
    sustained = sustained_perf(model, point.intensity)
    bound = MEMORY_BOUND if point.intensity < model.ridge_intensity else COMPUTE_BOUND
    headroom = None
    if point.measured_perf is not None and point.measured_perf > 0:
        headroom = sustained / point.measured_perf
        if headroom == math.inf:
            raise ParameterError(
                f"kernel '{point.label}': headroom {sustained:.4g} / {point.measured_perf:.4g} overflows"
            )
    above_roof = headroom is not None and point.measured_perf > sustained
    return Classification(point.label, bound, sustained, headroom, above_roof)


def roofline_curve(
    model: RooflineModel,
    intensity_min: float,
    intensity_max: float,
) -> list[tuple[float, float]]:
    """Sample (intensity, ceiling) pairs for plotting, CURVE_POINTS_PER_DECADE per log decade."""
    if not (0 < intensity_min < intensity_max and intensity_max / intensity_min < math.inf):
        raise ParameterError("need 0 < intensity_min < intensity_max with a finite ratio, "
                             f"got {intensity_min!r}, {intensity_max!r}")
    decades = math.log10(intensity_max / intensity_min)
    n = max(2, int(round(decades * CURVE_POINTS_PER_DECADE)) + 1)
    step = decades / (n - 1)
    curve = []
    for i in range(n):
        intensity = intensity_min * 10 ** (i * step)
        curve.append((intensity, sustained_perf(model, intensity)))
    return curve
