"""In-process microbenchmarks: streaming-triad bandwidth and FMA throughput.

Triad: ``a[i] = b[i] + q * c[i]`` over three page-aligned arrays of 8-byte
elements, best of N repetitions, with 24 bytes counted per element (two
reads, one write, the STREAM convention) and a bit-exact verification pass
at the end. The untimed work runs on one set-up thread per usable cpu: each
fills its pieces of ``b`` and ``c`` from one seeded block and writes one
element per page of its piece of ``a``, so every page is first touched
before the timed passes; after them, each checks its own pieces with numpy,
in blocks that need 512 KiB of scratch per thread. A page lives on the
socket of the thread that first touches it (ccNUMA first touch), so when
the workers are pinned across sockets each worker's slice is set up by the
cpus of that worker's socket block; otherwise the pieces split the arrays
evenly and the set-up threads are not pinned.
The workers meet at one barrier before each pass and after the
last; a pass is timed between consecutive moments at which the last worker
reaches it, with no other thread taking part, and two warm-up passes are
not reported. The kernel is one C loop built once per process with the local
``cc`` and called through ctypes, which releases the interpreter lock so
worker threads overlap. On x86-64 it writes ``a`` with streaming stores and
moves exactly the 24 bytes it counts: 512-bit stores, after a scalar step to
64-byte alignment, where the CPU reports AVX-512F at run time, and 128-bit
stores otherwise; the result records the width. Elsewhere ordinary stores also
read ``a``'s lines in (write-allocate). Without a usable compiler it is two
numpy passes, which move 40 bytes per element for the same 24 counted.

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
from .hwmodel import MODES, PRECISION_BITS, PlatformSpec, stream_min_elements

TRIAD_SCALAR_Q = 3.0
TRIAD_WARMUP_PASSES = 2
TRIAD_BYTES_PER_ELEMENT = 24  # two 8-byte reads and one 8-byte write per element
#: Bytes each kernel reads and writes per element, write-allocate traffic not included.
TRIAD_MOVED_BYTES = {"native": 24, "numpy": 40}
TRIAD_ALIGNMENT = mmap.PAGESIZE  # every triad array starts on a page boundary
#: On x86-64 (every compiler there defines __SSE2__) ``a`` is written with streaming stores,
#: which skip the read of its lines that an ordinary store's write-allocate costs; other ISAs
#: compile the plain loop. Where the CPU reports AVX-512F at run time the stores are 512 bits
#: wide, one per 64-byte line after a scalar step to 64-byte alignment; otherwise they are 128
#: bits wide, after a step to 16-byte alignment. A compiler too old for the 512-bit function, or
#: -DTRIAD_NO_AVX512, leaves only the 128-bit one. The multiply and the add stay separate, so
#: verify_triad is bit-exact. ``triad_store_bits()`` returns the width ``triad`` picks: 512, 128,
#: or 0 for the plain loop.
TRIAD_SOURCE = """
#ifdef __SSE2__
#include <immintrin.h>
#include <stdint.h>

static void triad_128(double *restrict a, const double *restrict b, const double *restrict c,
                      double q, long lo, long hi)
{
    long i = lo;
    for (; i < hi && (uintptr_t)(a + i) % 16 != 0; i++)
        a[i] = b[i] + q * c[i];
    const __m128d vq = _mm_set1_pd(q);
    for (; i + 2 <= hi; i += 2)
        _mm_stream_pd(a + i, _mm_add_pd(_mm_loadu_pd(b + i), _mm_mul_pd(vq, _mm_loadu_pd(c + i))));
    for (; i < hi; i++)
        a[i] = b[i] + q * c[i];
    _mm_sfence();
}

#if (__GNUC__ >= 5 || __clang_major__ >= 4) && !defined(TRIAD_NO_AVX512)
#define TRIAD_AVX512
__attribute__((target("avx512f")))
static void triad_512(double *restrict a, const double *restrict b, const double *restrict c,
                      double q, long lo, long hi)
{
    long i = lo;
    for (; i < hi && (uintptr_t)(a + i) % 64 != 0; i++)
        a[i] = b[i] + q * c[i];
    const __m512d vq = _mm512_set1_pd(q);
    for (; i + 8 <= hi; i += 8)
        _mm512_stream_pd(a + i, _mm512_add_pd(_mm512_loadu_pd(b + i), _mm512_mul_pd(vq, _mm512_loadu_pd(c + i))));
    for (; i < hi; i++)
        a[i] = b[i] + q * c[i];
    _mm_sfence();
}
#endif

int triad_store_bits(void)
{
#ifdef TRIAD_AVX512
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 512;
#endif
    return 128;
}

void triad(double *restrict a, const double *restrict b, const double *restrict c,
           double q, long lo, long hi)
{
#ifdef TRIAD_AVX512
    if (triad_store_bits() == 512) {
        triad_512(a, b, c, q, lo, hi);
        return;
    }
#endif
    triad_128(a, b, c, q, lo, hi);
}
#else
int triad_store_bits(void) { return 0; }

void triad(double *restrict a, const double *restrict b, const double *restrict c,
           double q, long lo, long hi)
{
    for (long i = lo; i < hi; i++)
        a[i] = b[i] + q * c[i];
}
#endif
"""
#: The triad inputs repeat one seeded block in [1, 2), cheaper than a draw per element; a
#: prime length keeps a pass at a shifted power-of-two offset from verifying by chance.
TRIAD_FILL_BLOCK = (1 << 16) + 1
#: Where the set-up threads first touch the triad's pages; the ``bench mem`` sidecar records it.
TRIAD_FIRST_TOUCH = (
    "workers pinned across sockets: each worker's slice is set up by the cpus of its socket block; "
    "otherwise [0, n) is split evenly over the usable cpus, unpinned"
)

FMA_CHAINS = 8
FMA_VECTOR_ELEMENTS = 16384  # 8 chains * 16384 doubles = 1 MiB working set
FMA_WARMUP_SECONDS = 0.1
FMA_MIN_DURATION = 0.1

PINNING_POLICIES = ("interleaved", "compact", "none")
VERIFY_BLOCK = 1 << 16  # triad elements checked at once: 512 KiB of scratch per checking thread

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


def require_cpus(*counts: int) -> None:
    """Refuse thread counts that are none, below 1, not ascending, or above the usable cpus.

    The first rule broken, in that order, is the error; every count is checked before any run.
    """
    if not counts:
        raise ParameterError("no thread counts given")
    if min(counts) < 1:
        raise ParameterError("threads must be >= 1")
    if list(counts) != sorted(counts):
        raise ParameterError("thread counts must be sorted ascending")
    available = len(_available_cpus())
    if counts[-1] > available:
        raise ParameterError(f"threads ({counts[-1]}) exceed available cpus ({available})")


@functools.cache
def _native_triad(*flags: str):
    """The C triad ``triad(a, b, c, q, lo, hi)``, or None when it cannot be built or loaded.

    TRIAD_SOURCE is compiled with ``cc``, the module's flags and then ``flags``, once per process
    and flag set. The kernel's ``store_bits`` attribute is the width of the streaming stores its
    run-time dispatch picks on this CPU: 512 or 128 on x86, 0 for the plain loop.
    """
    import subprocess  # here, not at the top: it adds about 5 ms to every CLI start
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            source, path = Path(tmp, "triad.c"), Path(tmp, "triad.so")
            source.write_text(TRIAD_SOURCE)
            # No FMA contraction (gcc's default on aarch64): verify_triad is bit-exact.
            command = [compiler, "-O3", "-ffp-contract=off", *flags, "-shared", "-fPIC", "-o", path, source]
            subprocess.run(command, check=True, capture_output=True)
            library = ctypes.CDLL(str(path))  # stays mapped once the file is gone
            kernel = library.triad
            store_bits = library.triad_store_bits()
    except (OSError, subprocess.CalledProcessError):
        return None
    kernel.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_double, ctypes.c_long, ctypes.c_long]
    kernel.restype = None
    kernel.store_bits = store_bits
    return kernel


def _page_aligned(n: int) -> np.ndarray:
    """n float64 elements starting on a page boundary, sliced from one page more."""
    raw = np.empty(n + TRIAD_ALIGNMENT // 8)
    skip = -raw.ctypes.data % TRIAD_ALIGNMENT // 8
    return raw[skip:skip + n]


def _socket_blocks(cpus: list[int], sockets: int) -> list[list[int]]:
    """The usable cpus cut into ``sockets`` contiguous blocks, the model of a socket.

    Each block holds ``len(cpus) // sockets`` cpus, at least one, and the last also holds the
    cpus left over, so every cpu lies in exactly one block.
    """
    per_socket = max(1, len(cpus) // sockets)
    return [cpus[s * per_socket:(s + 1) * per_socket] for s in range(sockets - 1)] + [
        cpus[(sockets - 1) * per_socket:]
    ]


def _cpu_assignment(threads: int, pinning: str, sockets: int, cpus: list[int]) -> list[int] | None:
    """Map each of at most ``len(cpus)`` workers to a cpu, or None when pinning is off or unavailable.

    "interleaved" deals workers round-robin across the socket blocks; "compact" fills cpus in order.
    """
    if pinning == "none" or not hasattr(os, "sched_setaffinity"):
        return None
    if pinning == "compact" or sockets <= 1:
        return cpus[:threads]
    blocks = _socket_blocks(cpus, sockets)
    return [blocks[i % sockets][i // sockets % len(blocks[0])] for i in range(threads)]


def _split(ranges: list[tuple[int, int]], parts: int) -> list[list[tuple[int, int]]]:
    """Cut the ranges, laid end to end, into ``parts`` runs of near-equal length.

    A run is the list of (lo, hi) pieces it covers, in order; it is empty when there are more
    parts than elements.
    """
    total = sum(hi - lo for lo, hi in ranges)
    cuts = [k * total // parts for k in range(parts + 1)]
    runs = [[] for _ in range(parts)]
    offset = 0  # where the current range starts, laid end to end
    for lo, hi in ranges:
        for k, run in enumerate(runs):
            start, stop = max(cuts[k], offset), min(cuts[k + 1], offset + hi - lo)
            if start < stop:
                run.append((lo + start - offset, lo + stop - offset))
        offset += hi - lo
    return runs


def _setup_split(
    bounds: list[tuple[int, int]], worker_cpus: list[int] | None, cpus: list[int], sockets: int
) -> list[tuple[int | None, list[tuple[int, int]]]]:
    """The triad's set-up threads: for each, the cpu to pin it to (None: unpinned) and its pieces.

    With the workers (slices ``bounds``, cpus ``worker_cpus``) pinned across sockets, the cpus of
    each socket block split the slices of the workers pinned in that block, so a page is first
    touched on the socket of the worker that uses it. Otherwise [0, n) is split evenly over all
    usable ``cpus``. The pieces cover [0, n) once, each thread has at least one, and there are
    never more threads than cpus.
    """
    if worker_cpus is None or sockets <= 1:
        plan = [(None, run) for run in _split([(0, bounds[-1][1])], len(cpus))]
    else:
        plan = []
        for block in _socket_blocks(cpus, sockets):
            slices = [bound for bound, cpu in zip(bounds, worker_cpus) if cpu in block]
            if slices:
                plan += zip(block, _split(slices, len(block)))
    return [(cpu, run) for cpu, run in plan if run]


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
    """Every repetition's triad bandwidth, in GB/s, and the best of them."""

    per_repetition: tuple[float, ...]
    threads: int
    elements: int
    pinning: str = "interleaved"
    pinned: bool = False
    kernel: str = "native"  # a key of TRIAD_MOVED_BYTES
    store_bits: int = 0  # width of the native kernel's streaming stores to ``a``; 0: none
    setup_threads: int = 1  # threads that set up and checked the arrays

    def __post_init__(self):
        if not self.per_repetition:
            raise ParameterError("at least one repetition is required")
        if any(v <= 0 for v in self.per_repetition):
            raise ParameterError("bandwidth values must be positive")

    @property
    def best(self) -> float:
        return max(self.per_repetition)

    @property
    def moved_bytes_per_element(self) -> int:
        return TRIAD_MOVED_BYTES[self.kernel]

    @property
    def streaming_stores(self) -> bool:
        """The native kernel wrote ``a`` bypassing the caches."""
        return self.store_bits > 0


@dataclass(frozen=True)
class ThroughputResult:
    """Sustained FMA throughput for one precision/mode combination."""

    gflops: float
    precision: str
    mode: str
    duration: float  # measured seconds, not the requested budget
    threads: int = 1

    def __post_init__(self):
        if not self.gflops > 0 or not self.duration > 0:
            raise ParameterError("throughput and duration must be positive")


@dataclass(frozen=True)
class SweepPoint:
    threads: int
    value: float  # GB/s for triad sweeps, GFlop/s for FMA sweeps


def _on_workers(body, barrier: threading.Barrier, cpus: list[int] | None = None) -> None:
    """Run ``body(index)`` on one daemon thread per party of ``barrier``, pinned to ``cpus[index]``.

    A worker that raises aborts the barrier, so the others leave their next wait; once all
    have ended, the first exception raised is raised here. An interrupt of the caller aborts
    the barrier too and gives each worker 10 s to end.
    """
    errors = []  # a failed worker's exception comes first, then the ones its abort raised

    def run(index: int) -> None:
        if cpus is not None:
            try:
                os.sched_setaffinity(0, {cpus[index]})
            except OSError:
                pass
        try:
            body(index)
        except BaseException as exc:  # raised again in the caller below
            errors.append(exc)
            barrier.abort()

    workers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(barrier.parties)]
    for w in workers:
        w.start()
    try:
        for w in workers:
            w.join()
    except BaseException:
        barrier.abort()
        for w in workers:
            w.join(timeout=10.0)
        raise
    if errors:
        raise errors[0]


def _repeat_fill_block(x: np.ndarray, lo: int, hi: int) -> None:
    """Fill ``x[lo:hi]`` beyond its first TRIAD_FILL_BLOCK elements with that block, repeated."""
    lo = max(lo, TRIAD_FILL_BLOCK)
    while lo < hi:
        start = lo % TRIAD_FILL_BLOCK
        stop = min(hi, lo + TRIAD_FILL_BLOCK - start)
        x[lo:stop] = x[start:start + stop - lo]
        lo = stop


def _on_setup_threads(plan: list[tuple[int | None, list[tuple[int, int]]]], work) -> None:
    """Run ``work(index, lo, hi)`` over every piece of ``plan``: thread ``index`` takes entry
    ``index``'s pieces, pinned to its cpu."""
    def body(index: int) -> None:
        for lo, hi in plan[index][1]:
            work(index, lo, hi)

    cpus = None if plan[0][0] is None else [cpu for cpu, _ in plan]
    _on_workers(body, threading.Barrier(len(plan)), cpus)


def _triad_arrays(n: int, plan: list[tuple[int | None, list[tuple[int, int]]]]):
    """The triad's ``a``, ``b`` and ``c``, page-aligned and set up by the threads of ``plan``.

    The main thread draws the seeded blocks into ``b`` and ``c``; each set-up thread repeats them
    over its pieces and writes the first element of each page that starts in its pieces of ``a``,
    so that all three arrays' pages are first touched on that thread's cpu.
    """
    try:
        b, c, a = (_page_aligned(n) for _ in range(3))
    except MemoryError as exc:
        raise ResourceError(f"cannot allocate 3 arrays of {n} elements ({3 * n * 8 / 1e9:.2f} GB)") from exc
    rng = np.random.default_rng(12345)
    for x in (b, c):  # in place: a temporary array would move where later runs' arrays land
        rng.random(out=x[:TRIAD_FILL_BLOCK])
        x[:TRIAD_FILL_BLOCK] += 1.0

    def set_up(index: int, lo: int, hi: int) -> None:
        for x in (b, c):
            _repeat_fill_block(x, lo, hi)
        page = TRIAD_ALIGNMENT // 8  # a page's first element, as ``a`` starts on a page boundary
        a[lo + -lo % page:hi:page] = 0.0  # faults a's pages in here, not in the first warm-up pass

    _on_setup_threads(plan, set_up)
    return a, b, c


def run_stream_triad(config: TriadConfig, spec: PlatformSpec | None = None) -> BandwidthResult:
    """Measure sustainable memory bandwidth with the triad kernel.

    When a platform spec is supplied the array length must respect its sizing
    rule. After the timed passes the output array is checked element-for-
    element against ``b + q*c``; any mismatch raises KernelCorruptionError
    naming the lowest mismatching element.
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
        native = _native_triad()  # built here, before any thread starts
        sockets = spec.sockets if spec is not None else 1
        usable = _available_cpus()
        cpus = _cpu_assignment(config.threads, config.pinning, sockets, usable)
        q = TRIAD_SCALAR_Q
        bounds = [
            (i * config.elements // config.threads, (i + 1) * config.elements // config.threads)
            for i in range(config.threads)
        ]
        plan = _setup_split(bounds, cpus, usable, sockets)
        a, b, c = _triad_arrays(config.elements, plan)

        stamps = []  # the barrier action runs once per crossing, in the last worker to arrive
        barrier = threading.Barrier(config.threads, action=lambda: stamps.append(time.perf_counter()))

        def body(index: int) -> None:
            lo, hi = bounds[index]
            a_s, b_s, c_s = a[lo:hi], b[lo:hi], c[lo:hi]
            pointers = (a.ctypes.data, b.ctypes.data, c.ctypes.data)
            for _ in range(TRIAD_WARMUP_PASSES + config.repetitions):
                barrier.wait()
                if native is not None:
                    native(*pointers, q, lo, hi)
                else:
                    np.multiply(c_s, q, out=a_s)
                    np.add(a_s, b_s, out=a_s)
            barrier.wait()

        _on_workers(body, barrier, cpus)
        counted_bytes = TRIAD_BYTES_PER_ELEMENT * config.elements
        timed = stamps[TRIAD_WARMUP_PASSES:]
        timings = [counted_bytes / 1e9 / (t1 - t0) for t0, t1 in zip(timed, timed[1:])]

        mismatches = []  # the first of each piece that has one
        # Allocated here, not in the threads: glibc keeps a thread's allocations resident in
        # that thread's arena after the thread ends.
        scratch = [np.empty(min(VERIFY_BLOCK, config.elements)) for _ in plan]

        def check(index: int, lo: int, hi: int) -> None:
            mismatch = _first_mismatch(a, b, c, q, lo, hi, scratch[index])
            if mismatch is not None:
                mismatches.append(mismatch)

        _on_setup_threads(plan, check)
        if mismatches:
            raise _corruption(*min(mismatches))

        return BandwidthResult(
            per_repetition=tuple(timings),
            threads=config.threads,
            elements=config.elements,
            pinning=config.pinning,
            pinned=cpus is not None,
            kernel="numpy" if native is None else "native",
            store_bits=0 if native is None else native.store_bits,
            setup_threads=len(plan),
        )


def _first_mismatch(a, b, c, q: float, lo: int, hi: int, scratch: np.ndarray):
    """The first index in [lo, hi) where ``a != b + q*c``, with both values; None if there is none.

    The check is bit-exact and runs ``len(scratch)`` elements at a time.
    """
    for start in range(lo, hi, len(scratch)):
        stop = min(start + len(scratch), hi)
        expected = np.multiply(c[start:stop], q, out=scratch[:stop - start])
        np.add(expected, b[start:stop], out=expected)
        if not np.array_equal(a[start:stop], expected):
            k = int(np.flatnonzero(a[start:stop] != expected)[0])
            return start + k, float(a[start + k]), float(expected[k])
    return None


def _corruption(index: int, got: float, expected: float) -> KernelCorruptionError:
    """The one error line for a mismatch at ``index``: the value found and the value expected."""
    return KernelCorruptionError(
        f"triad verification failed at element {index}: got {got!r}, expected {expected!r}"
    )


def verify_triad(a: np.ndarray, b: np.ndarray, c: np.ndarray, q: float) -> None:
    """Check a == b + q*c bit-exactly, VERIFY_BLOCK elements at a time; raise on any mismatch."""
    mismatch = _first_mismatch(a, b, c, q, 0, len(a), np.empty(min(VERIFY_BLOCK, len(a))))
    if mismatch is not None:
        raise _corruption(*mismatch)


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
    if precision not in PRECISION_BITS:
        raise CapabilityError(
            f"precision {precision!r} not supported; supported: {sorted(PRECISION_BITS)}",
            supported=tuple(sorted(PRECISION_BITS)),
        )
    if mode not in MODES:
        raise CapabilityError(
            f"mode {mode!r} not supported; supported: {MODES}", supported=MODES
        )
    if not (np.isfinite(duration) and duration >= FMA_MIN_DURATION):
        raise ParameterError(f"duration must be finite and >= {FMA_MIN_DURATION} s, got {duration}")
    require_cpus(threads)

    dtype = np.dtype(f"float{PRECISION_BITS[precision]}").type
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

        _on_workers(body, barrier)

        wall = max(elapsed)
        flops = 2.0 * elements * FMA_CHAINS * sum(totals)
        return ThroughputResult(
            gflops=flops / wall / 1e9,
            precision=precision,
            mode=mode,
            duration=wall,
            threads=threads,
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
    require_cpus(*thread_counts)
    if kind == "triad" and elements is None:
        raise ParameterError("a triad sweep needs the array length")
    if kind == "fma":
        return [SweepPoint(count, run_fma_kernel("double", "vector", duration, threads=count).gflops)
                for count in thread_counts]
    configs = [TriadConfig(elements, count, repetitions) for count in thread_counts]
    return [SweepPoint(config.threads, run_stream_triad(config).best) for config in configs]
