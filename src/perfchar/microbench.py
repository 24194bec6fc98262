"""In-process microbenchmarks: streaming-triad bandwidth and FMA throughput.

Triad: ``a[i] = b[i] + q * c[i]`` over three page-aligned arrays of 8-byte
elements, best of N repetitions, with 24 bytes counted per element (two
reads, one write, the STREAM convention) and a bit-exact verification pass
at the end. The kernel is one C loop built once per process with the local
``cc`` and called through ctypes, which releases the interpreter lock so
worker threads overlap; without a usable compiler it is two numpy passes,
which move 40 bytes per element for the same 24 counted.

FMA throughput is a portable numpy loop (numpy also releases the lock in its
inner loops): eight independent accumulator chains of ``acc = acc * m + d``
updates, counted as two flops per element per update; ``vector`` mode uses a
cache-resident block per chain, ``scalar`` mode a single element. It shows
what high-level code can sustain, not the hand-tuned assembly limit, so read
it against declared peaks as an upper bound rather than a target.

Only one benchmark may run at a time per process; concurrent runs would
corrupt each other's measurements.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import (
    BenchmarkBusyError,
    CapabilityError,
    KernelCorruptionError,
    ParameterError,
    ResourceError,
    SizingError,
)
from .hwmodel import PlatformSpec, stream_min_elements

TRIAD_SCALAR_Q = 3.0
TRIAD_WARMUP_PASSES = 2
TRIAD_BYTES_PER_ELEMENT = 24  # two 8-byte reads and one 8-byte write per element
#: Bytes each kernel reads and writes per element, write-allocate traffic not included.
TRIAD_MOVED_BYTES = {"native": 24, "numpy": 40}
TRIAD_ALIGNMENT = mmap.PAGESIZE  # every triad array starts on a page boundary
TRIAD_SOURCE = """
void triad(double *restrict a, const double *restrict b, const double *restrict c,
           double q, long lo, long hi)
{
    for (long i = lo; i < hi; i++)
        a[i] = b[i] + q * c[i];
}
"""
#: The triad inputs repeat one seeded block in [1, 2), cheaper than a draw per element; a
#: prime length keeps a pass at a shifted power-of-two offset from verifying by chance.
TRIAD_FILL_BLOCK = (1 << 16) + 1

FMA_CHAINS = 8
FMA_VECTOR_ELEMENTS = 16384  # 8 chains * 16384 doubles = 1 MiB working set
FMA_WARMUP_SECONDS = 0.1
FMA_MIN_DURATION = 0.1

PRECISION_DTYPES = {"single": np.float32, "double": np.float64}
MODES = ("scalar", "vector")
PINNING_POLICIES = ("interleaved", "compact", "none")
VERIFY_BLOCK = 1 << 20

_run_lock = threading.Lock()


@contextmanager
def _exclusive_run():
    if not _run_lock.acquire(blocking=False):
        raise BenchmarkBusyError("another benchmark is already running in this process")
    try:
        yield
    finally:
        _run_lock.release()


def _available_cpus() -> list[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def require_cpus(threads: int) -> None:
    """Refuse a thread count above the cpus this process may run on."""
    available = len(_available_cpus())
    if threads > available:
        raise ParameterError(f"threads ({threads}) exceed available cpus ({available})")


@functools.cache
def _native_triad():
    """The C triad ``triad(a, b, c, q, lo, hi)``, or None when it cannot be built or loaded."""
    import subprocess  # here, not at the top: it adds about 5 ms to every CLI start
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            source, library = Path(tmp, "triad.c"), Path(tmp, "triad.so")
            source.write_text(TRIAD_SOURCE)
            # No FMA contraction (gcc's default on aarch64): verify_triad is bit-exact.
            command = [compiler, "-O3", "-ffp-contract=off", "-shared", "-fPIC", "-o", library, source]
            subprocess.run(command, check=True, capture_output=True)
            kernel = ctypes.CDLL(str(library)).triad  # stays mapped once the file is gone
    except (OSError, subprocess.CalledProcessError):
        return None
    kernel.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_double, ctypes.c_long, ctypes.c_long]
    kernel.restype = None
    return kernel


def _page_aligned(n: int) -> np.ndarray:
    """n float64 elements starting on a page boundary, sliced from one page more."""
    raw = np.empty(n + TRIAD_ALIGNMENT // 8)
    skip = -raw.ctypes.data % TRIAD_ALIGNMENT // 8
    return raw[skip:skip + n]


def _cpu_assignment(threads: int, pinning: str, sockets: int) -> list[int] | None:
    """Map worker index to cpu id, or None when pinning is off or unavailable.

    "interleaved" deals workers round-robin across sockets (the cpu range is
    split into ``sockets`` contiguous blocks); "compact" fills cpus in order.
    """
    if pinning == "none" or not hasattr(os, "sched_setaffinity"):
        return None
    cpus = _available_cpus()
    if pinning == "compact" or sockets <= 1:
        return [cpus[i % len(cpus)] for i in range(threads)]
    per_socket = max(1, len(cpus) // sockets)
    assignment = []
    for i in range(threads):
        socket = i % sockets
        offset = i // sockets
        idx = socket * per_socket + (offset % per_socket)
        assignment.append(cpus[idx % len(cpus)])
    return assignment


@dataclass(frozen=True)
class TriadConfig:
    """Triad run parameters: array length, workers, repetitions, pinning policy."""

    elements: int  # 8-byte elements per array
    threads: int = 1
    repetitions: int = 200
    pinning: str = "interleaved"

    def __post_init__(self):
        if self.elements < 1:
            raise ParameterError("elements must be >= 1")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")
        if self.elements < self.threads:
            raise ParameterError("need at least one element per thread")
        if self.repetitions < 1:
            raise ParameterError("repetitions must be >= 1")
        if self.pinning not in PINNING_POLICIES:
            raise ParameterError(f"pinning must be one of {PINNING_POLICIES}, got {self.pinning!r}")


@dataclass(frozen=True)
class BandwidthResult:
    """Best-of-N triad bandwidth plus every repetition for variance reporting."""

    best: float  # GB/s
    per_repetition: tuple[float, ...]
    threads: int
    elements: int
    q: float = TRIAD_SCALAR_Q
    warmup_passes: int = TRIAD_WARMUP_PASSES
    pinning: str = "interleaved"
    pinned: bool = False
    kernel: str = "native"  # a key of TRIAD_MOVED_BYTES

    def __post_init__(self):
        if not self.per_repetition:
            raise ParameterError("at least one repetition is required")
        if any(v <= 0 for v in self.per_repetition):
            raise ParameterError("bandwidth values must be positive")
        if self.best != max(self.per_repetition):
            raise ParameterError("best must equal the per-repetition maximum")

    @property
    def moved_bytes_per_element(self) -> int:
        return TRIAD_MOVED_BYTES[self.kernel]


@dataclass(frozen=True)
class ThroughputResult:
    """Sustained FMA throughput for one precision/mode combination."""

    gflops: float
    precision: str
    mode: str
    duration: float  # measured seconds, not the requested budget
    threads: int = 1
    chains: int = FMA_CHAINS
    elements_per_operation: int = FMA_VECTOR_ELEMENTS

    def __post_init__(self):
        if not self.gflops > 0 or not self.duration > 0:
            raise ParameterError("throughput and duration must be positive")


@dataclass(frozen=True)
class SweepPoint:
    threads: int
    value: float  # GB/s for triad sweeps, GFlop/s for FMA sweeps


def run_stream_triad(config: TriadConfig, spec: PlatformSpec | None = None) -> BandwidthResult:
    """Measure sustainable memory bandwidth with the triad kernel.

    When a platform spec is supplied the array length must respect its sizing
    rule. After the timed passes the output array is checked element-for-
    element against ``b + q*c``; any mismatch raises KernelCorruptionError.
    """
    with _exclusive_run():
        require_cpus(config.threads)
        if spec is not None:
            minimum = stream_min_elements(spec)
            if config.elements < minimum:
                raise SizingError(
                    f"elements {config.elements} below the sizing rule minimum "
                    f"{minimum} for spec '{spec.name}'"
                )
        try:
            b, c, a = (_page_aligned(config.elements) for _ in range(3))
        except MemoryError as exc:
            raise ResourceError(
                f"cannot allocate 3 arrays of {config.elements} elements "
                f"({3 * config.elements * 8 / 1e9:.2f} GB)"
            ) from exc

        rng = np.random.default_rng(12345)
        for x in (b, c):  # in place: a temporary array would move where later runs' arrays land
            rng.random(out=x[:TRIAD_FILL_BLOCK])
            x[:TRIAD_FILL_BLOCK] += 1.0
            for lo in range(TRIAD_FILL_BLOCK, len(x), TRIAD_FILL_BLOCK):
                x[lo:lo + TRIAD_FILL_BLOCK] = x[:min(TRIAD_FILL_BLOCK, len(x) - lo)]

        native = _native_triad()  # built here, before any worker starts
        sockets = spec.sockets if spec is not None else 1
        cpus = _cpu_assignment(config.threads, config.pinning, sockets)
        q = TRIAD_SCALAR_Q
        bounds = [
            (i * config.elements // config.threads, (i + 1) * config.elements // config.threads)
            for i in range(config.threads)
        ]

        start = threading.Barrier(config.threads + 1)
        done = threading.Barrier(config.threads + 1)
        stop = threading.Event()

        def worker(index: int) -> None:
            if cpus is not None:
                try:
                    os.sched_setaffinity(0, {cpus[index]})
                except OSError:
                    pass
            lo, hi = bounds[index]
            a_s, b_s, c_s = a[lo:hi], b[lo:hi], c[lo:hi]
            pointers = (a.ctypes.data, b.ctypes.data, c.ctypes.data)
            while True:
                try:
                    start.wait()
                    if stop.is_set():
                        return
                    if native is not None:
                        native(*pointers, q, lo, hi)
                    else:
                        np.multiply(c_s, q, out=a_s)
                        np.add(a_s, b_s, out=a_s)
                    done.wait()
                except threading.BrokenBarrierError:
                    return

        workers = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(config.threads)
        ]
        for w in workers:
            w.start()

        counted_bytes = TRIAD_BYTES_PER_ELEMENT * config.elements
        timings = []
        try:
            for rep in range(TRIAD_WARMUP_PASSES + config.repetitions):
                t0 = time.perf_counter()
                start.wait()
                done.wait()
                t1 = time.perf_counter()
                if rep >= TRIAD_WARMUP_PASSES:
                    timings.append(counted_bytes / 1e9 / (t1 - t0))
        finally:
            stop.set()
            try:
                start.wait(timeout=10.0)
            except threading.BrokenBarrierError:
                pass
            done.abort()  # release workers caught mid-pass by an interrupt
            for w in workers:
                w.join(timeout=10.0)

        verify_triad(a, b, c, q)

        return BandwidthResult(
            best=max(timings),
            per_repetition=tuple(timings),
            threads=config.threads,
            elements=config.elements,
            q=q,
            warmup_passes=TRIAD_WARMUP_PASSES,
            pinning=config.pinning,
            pinned=cpus is not None,
            kernel="numpy" if native is None else "native",
        )


def verify_triad(a: np.ndarray, b: np.ndarray, c: np.ndarray, q: float) -> None:
    """Check a == b + q*c bit-exactly, block by block; raise on any mismatch."""
    for lo in range(0, len(a), VERIFY_BLOCK):
        hi = min(lo + VERIFY_BLOCK, len(a))
        expected = np.multiply(c[lo:hi], q)
        np.add(expected, b[lo:hi], out=expected)
        if not np.array_equal(a[lo:hi], expected):
            bad = int(np.flatnonzero(a[lo:hi] != expected)[0]) + lo
            raise KernelCorruptionError(
                f"triad verification failed at element {bad}: "
                f"got {a[bad]!r}, expected {expected[bad - lo]!r}"
            )


def _fma_spin(acc: list, addend: list, mult, deadline_from: float) -> tuple[int, float]:
    """Run chain updates until the time budget elapses; returns (iters, elapsed)."""
    iters = 0
    batch = 16
    t0 = time.perf_counter()
    while True:
        for _ in range(batch):
            for k in range(len(acc)):
                np.multiply(acc[k], mult, out=acc[k])
                np.add(acc[k], addend[k], out=acc[k])
        iters += batch
        elapsed = time.perf_counter() - t0
        if elapsed >= deadline_from:
            return iters, elapsed


def run_fma_kernel(
    precision: str, mode: str, duration: float, threads: int = 1
) -> ThroughputResult:
    """Measure multiply-add throughput with dependency-free accumulator chains.

    Each chain update ``acc = acc * m + d`` counts as two flops per element.
    The values orbit a fixed point near 1.0, so the result is independent of
    run length and array content. A short untimed warm-up precedes the
    measurement to let the clock settle.
    """
    if precision not in PRECISION_DTYPES:
        raise CapabilityError(
            f"precision {precision!r} not supported; supported: {sorted(PRECISION_DTYPES)}",
            supported=tuple(sorted(PRECISION_DTYPES)),
        )
    if mode not in MODES:
        raise CapabilityError(
            f"mode {mode!r} not supported; supported: {MODES}", supported=MODES
        )
    if not (np.isfinite(duration) and duration >= FMA_MIN_DURATION):
        raise ParameterError(f"duration must be finite and >= {FMA_MIN_DURATION} s, got {duration}")
    if threads < 1:
        raise ParameterError("threads must be >= 1")

    dtype = PRECISION_DTYPES[precision]
    elements = FMA_VECTOR_ELEMENTS if mode == "vector" else 1
    mult = dtype(0.999999)

    with _exclusive_run():
        totals = [0] * threads
        elapsed = [0.0] * threads
        barrier = threading.Barrier(threads)

        def body(index: int) -> None:
            acc = [np.full(elements, 1.0, dtype=dtype) for _ in range(FMA_CHAINS)]
            addend = [np.full(elements, 1e-6, dtype=dtype) for _ in range(FMA_CHAINS)]
            _fma_spin(acc, addend, mult, FMA_WARMUP_SECONDS)
            barrier.wait()
            totals[index], elapsed[index] = _fma_spin(acc, addend, mult, duration)

        if threads == 1:
            body(0)
        else:
            ts = [threading.Thread(target=body, args=(i,), daemon=True) for i in range(threads)]
            for t in ts:
                t.start()
            for t in ts:
                t.join()

        wall = max(elapsed)
        flops = 2.0 * elements * FMA_CHAINS * sum(totals)
        return ThroughputResult(
            gflops=flops / wall / 1e9,
            precision=precision,
            mode=mode,
            duration=wall,
            threads=threads,
            chains=FMA_CHAINS,
            elements_per_operation=elements,
        )


def thread_sweep(
    kind: str,
    thread_counts: list[int],
    *,
    elements: int | None = None,
    repetitions: int = 20,
    duration: float = 0.25,
) -> list[SweepPoint]:
    """Run one kernel per thread count and return the (threads, metric) curve.

    Triad runs use the default pinning and no spec; FMA runs are double-precision vector.
    """
    if kind not in ("triad", "fma"):
        raise ParameterError(f"kind must be 'triad' or 'fma', got {kind!r}")
    if not thread_counts:
        raise ParameterError("thread_counts must not be empty")
    if list(thread_counts) != sorted(thread_counts):
        raise ParameterError("thread counts must be sorted ascending")
    points = []
    for count in thread_counts:
        if kind == "triad":
            if elements is None:
                raise ParameterError("a triad sweep needs the array length")
            config = TriadConfig(elements=elements, threads=count, repetitions=repetitions)
            value = run_stream_triad(config).best
        else:
            value = run_fma_kernel("double", "vector", duration, threads=count).gflops
        points.append(SweepPoint(threads=count, value=value))
    return points
