"""Roofline models: performance ceilings, arithmetic intensity, classification.

A model is the single-ceiling kind: sustained performance is
``min(peak_flops, peak_bandwidth * intensity)`` and the ridge intensity
separates the memory-bound regime from the compute-bound one.

Kernel points are read and classified as columns. The ``check_*`` functions
hold their rules, on (least, greatest) spans, for the dataclasses and the
reader alike; ``classify`` is the one-point case of ``classify_many``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError

MEMORY_BOUND = "memory-bound"
COMPUTE_BOUND = "compute-bound"

#: Sampling density for emitted roofline curves (points per decade, log axis).
CURVE_POINTS_PER_DECADE = 64


def span(values: np.ndarray) -> tuple[float, float]:
    """The (least, greatest) of ``values``: NaN in both when one is NaN, (inf, -inf) when there are none.

    Every rule on a value is a range check that NaN breaks, so it holds for the
    span exactly when it holds for each value, and always for no values.
    """
    return values.min(initial=math.inf), values.max(initial=-math.inf)


def span_of(value: float | None) -> tuple[float, float]:
    """The span of one value, or of none when it is None (absent)."""
    return (math.inf, -math.inf) if value is None else (value, value)


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
        check_counters((self.flops, self.flops), (self.loads, self.loads), (self.stores, self.stores),
                       (self.access_bytes, self.access_bytes))


def check_counters(flops, loads, stores, access_bytes) -> None:
    """Raises ParameterError for the first CounterSample rule that the (least, greatest) spans break."""
    if flops[0] < 0:  # NaN passes here, and fails as the intensity
        raise ParameterError("flops must be >= 0")
    if not (0 <= loads[0] and loads[1] < math.inf and 0 <= stores[0] and stores[1] < math.inf):
        raise ParameterError("loads and stores must be finite and >= 0")
    if not (0 < access_bytes[0] and access_bytes[1] < 2**63):  # a larger int does not convert to float
        raise ParameterError("access_bytes must be > 0 and < 2**63")


@dataclass(frozen=True)
class KernelPoint:
    """One kernel placed on the roofline: intensity plus optional measurements."""

    label: str
    intensity: float
    measured_perf: float | None = None  # GFlop/s
    time_share: float | None = None  # fraction of total run time

    def __post_init__(self):
        check_point((self.intensity, self.intensity), span_of(self.measured_perf), span_of(self.time_share))


def check_point(intensity, measured_perf, time_share) -> None:
    """Raises ParameterError for the first KernelPoint rule that the (least, greatest) spans break."""
    if not (0 <= intensity[0] and intensity[1] < math.inf):
        raise ParameterError("intensity must be finite and >= 0")
    if not (0 <= measured_perf[0] and measured_perf[1] < math.inf):
        raise ParameterError("measured_perf must be finite and >= 0 when present")
    if not (0 <= time_share[0] and time_share[1] <= 1):
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
    check_bytes_moved((moved, moved))
    return sample.flops / moved


def check_bytes_moved(moved) -> None:
    """Raises ParameterError unless the (least, greatest) bytes moved are > 0 and finite."""
    if moved[0] <= 0:
        raise ParameterError("intensity is undefined without memory accesses")
    if moved[1] == math.inf:
        raise ParameterError("bytes moved, (loads + stores) * access_bytes, overflows")


def classify_many(model: RooflineModel, labels: list[str], intensity: np.ndarray,
                  measured: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Each kernel point's bound (memory-bound strictly below the ridge), ceiling, headroom and above-roof flag.

    ``measured`` is NaN where absent; headroom, sustained / measured, is NaN there and for a measurement of 0.
    A measurement above the ceiling is only flagged (counter noise); one whose headroom overflows is a
    ParameterError naming the first such point."""
    positive = measured > 0
    with np.errstate(over="ignore"):  # an overflow reads inf, as a Python float does
        sustained = np.minimum(model.peak_flops, model.peak_bandwidth * intensity)
        headroom = np.divide(sustained, measured, out=np.full(len(sustained), np.nan), where=positive)
    overflow = np.flatnonzero(np.isinf(headroom))
    if overflow.size:
        i = overflow[0]
        raise ParameterError(f"kernel '{labels[i]}': headroom {float(sustained[i]):.4g} / "
                             f"{float(measured[i]):.4g} overflows")
    bound = list(map((COMPUTE_BOUND, MEMORY_BOUND).__getitem__, (intensity < model.ridge_intensity).tolist()))
    return bound, sustained, headroom, positive & (measured > sustained)


def classify(model: RooflineModel, point: KernelPoint) -> Classification:
    """The ``classify_many`` verdict of one kernel point."""
    measured = math.nan if point.measured_perf is None else point.measured_perf
    bound, sustained, headroom, above_roof = classify_many(
        model, [point.label], np.array([point.intensity], float), np.array([measured], float))
    headroom = headroom.item()
    return Classification(point.label, bound[0], sustained.item(), None if math.isnan(headroom) else headroom,
                          bool(above_roof[0]))


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
