import contextlib
import ctypes
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from perfchar import (
    ThroughputResult,
    TriadConfig,
    peak_bandwidth,
    peak_flops,
    run_fma_kernel,
    run_stream_triad,
    thread_sweep,
)
from perfchar.exceptions import (
    BenchmarkBusyError,
    CapabilityError,
    KernelCorruptionError,
    ParameterError,
    SizingError,
)
from perfchar import microbench
from perfchar.microbench import (
    TRIAD_ALIGNMENT,
    TRIAD_FILL_BLOCK,
    _available_cpus,
    _cpu_assignment,
    _native_triad,
    _page_aligned,
    _run_lock,
    _setup_split,
    verify_triad,
)

SMALL = 100_000  # big enough to time, small enough to keep the suite quick


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started running, rather than hang a later one."""
    before = set(threading.enumerate())
    yield
    leftover = [t for t in threading.enumerate() if t not in before]
    for thread in leftover:
        thread.join(timeout=2.0)
    assert not [t.name for t in leftover if t.is_alive()]


def raised_by(call, *args, **kwargs):
    """Run ``call`` on a helper thread; fail if it hangs, else return what it raised."""
    raised = []

    def run():
        try:
            call(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(timeout=30)
    assert not helper.is_alive(), f"{call.__name__} hung"
    return raised


class TestTriadConfig:
    def test_defaults(self):
        config = TriadConfig(elements=SMALL)
        assert config.repetitions == 200
        assert config.pinning == "interleaved"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(elements=0),
            dict(elements=SMALL, threads=0),
            dict(elements=2, threads=4),
            dict(elements=SMALL, repetitions=0),
            dict(elements=SMALL, pinning="spiral"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            TriadConfig(**kwargs)


class TestTriad:
    def test_sizing_rule_enforced_with_spec(self, dibona_tx2):
        config = TriadConfig(elements=SMALL, repetitions=1)
        with pytest.raises(SizingError):
            run_stream_triad(config, spec=dibona_tx2)

    def test_small_run_verifies_and_reports(self):
        config = TriadConfig(elements=SMALL, threads=1, repetitions=5, pinning="none")
        result = run_stream_triad(config)
        assert len(result.per_repetition) == 5
        assert result.best == max(result.per_repetition)
        assert all(v > 0 for v in result.per_repetition)

    def test_two_threads_verify(self):
        config = TriadConfig(elements=SMALL, threads=2, repetitions=3)
        result = run_stream_triad(config)
        assert result.threads == 2
        assert result.pinned  # affinity is available on this platform

    def test_threads_beyond_cpus_rejected(self):
        import os

        count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        config = TriadConfig(elements=SMALL, threads=count + 1, repetitions=1)
        with pytest.raises(ParameterError):
            run_stream_triad(config)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_worker_exception_is_raised(self, monkeypatch, threads):
        def failing(*args):
            raise MemoryError("worker out of memory")

        failing.store_bits = 0
        monkeypatch.setattr(microbench, "_native_triad", lambda: failing)
        raised = raised_by(run_stream_triad, TriadConfig(elements=SMALL, threads=threads, repetitions=2))
        assert [type(exc) for exc in raised] == [MemoryError]
        assert not _run_lock.locked()

    def test_interrupt_releases_the_workers(self, monkeypatch):
        real_join = threading.Thread.join

        def join(thread, timeout=None):  # the caller's wait for its workers is interrupted
            if timeout is None:
                raise KeyboardInterrupt
            real_join(thread, timeout)

        monkeypatch.setattr(threading.Thread, "join", join)
        with pytest.raises(KeyboardInterrupt):
            run_stream_triad(TriadConfig(elements=SMALL, threads=2, repetitions=1000))
        assert not _run_lock.locked()

    def test_concurrent_runs_rejected(self):
        config = TriadConfig(elements=SMALL, repetitions=1)
        assert _run_lock.acquire(blocking=False)
        try:
            with pytest.raises(BenchmarkBusyError):
                run_stream_triad(config)
        finally:
            _run_lock.release()


@pytest.fixture
def fresh_native_build():
    """Forget the cached native triad before and after the test."""
    _native_triad.cache_clear()
    yield
    _native_triad.cache_clear()


@pytest.fixture
def native():
    """The built C triad kernel; the test is skipped where it cannot be built."""
    kernel = _native_triad()
    if kernel is None:
        pytest.skip("no C compiler on PATH")
    return kernel


#: Slice starts at every offset into a 64-byte line and one line on, and lengths that leave no
#: full vector, every tail of a 128-bit or a 512-bit loop, one line either way of a step, or many.
SLICE_STARTS = tuple(range(9))
SLICE_LENGTHS = (*range(18), 63, 64, 65, 4099)
SENTINEL = -7.25


def _kernel_slice(kernel, lo, hi):
    """Run ``kernel`` over [lo, hi) of page-aligned arrays; return a, b, c.

    ``a`` starts as SENTINEL everywhere, with four elements beyond ``hi``.
    """
    rng = np.random.default_rng(lo * 7919 + hi)
    a, b, c = (_page_aligned(hi + 4) for _ in range(3))
    a.fill(SENTINEL)
    b[:], c[:] = 1.0 + rng.random(hi + 4), 1.0 + rng.random(hi + 4)
    kernel(a.ctypes.data, b.ctypes.data, c.ctypes.data, 3.0, lo, hi)
    return a, b, c


def assert_same_slices(kernel, other):
    """Both kernels write every slice of SLICE_STARTS x SLICE_LENGTHS bit for bit alike."""
    for lo, length in itertools.product(SLICE_STARTS, SLICE_LENGTHS):
        built = [_kernel_slice(k, lo, lo + length)[0] for k in (kernel, other)]
        assert np.array_equal(built[0].view(np.uint64), built[1].view(np.uint64)), (lo, length)


class TestTriadKernels:
    def test_numpy_kernel_when_native_unavailable(self, monkeypatch):
        monkeypatch.setattr(microbench, "_native_triad", lambda: None)
        result = run_stream_triad(TriadConfig(elements=SMALL, threads=2, repetitions=2))
        assert result.kernel == "numpy"
        assert result.moved_bytes_per_element == 40
        assert result.store_bits == 0
        assert result.streaming_stores is False

    def test_numpy_kernel_without_compiler(self, monkeypatch, tmp_path, fresh_native_build):
        monkeypatch.setenv("PATH", str(tmp_path))  # an empty directory: no cc
        assert _native_triad() is None
        result = run_stream_triad(TriadConfig(elements=SMALL, repetitions=2))
        assert result.kernel == "numpy"
        assert result.moved_bytes_per_element == 40

    def test_failed_build_falls_back(self, monkeypatch, tmp_path, fresh_native_build):
        fake_cc = tmp_path / "cc"
        fake_cc.write_text("#!/bin/sh\nexit 1\n")
        fake_cc.chmod(0o755)
        monkeypatch.setenv("PATH", str(tmp_path))
        assert _native_triad() is None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_native_kernel_verifies(self, threads, native):
        # An odd length leaves each worker a slice that is not a multiple of the vector width.
        config = TriadConfig(elements=SMALL + 3, threads=threads, repetitions=2)
        result = run_stream_triad(config)  # verify_triad raises on any mismatch
        assert result.kernel == "native"
        assert result.moved_bytes_per_element == 24
        assert result.store_bits == native.store_bits
        assert result.streaming_stores is (native.store_bits > 0)

    @pytest.mark.parametrize("lo", SLICE_STARTS)
    @pytest.mark.parametrize("length", SLICE_LENGTHS)
    def test_native_kernel_writes_exactly_its_slice(self, native, lo, length):
        hi = lo + length
        a, b, c = _kernel_slice(native, lo, hi)
        expected = b[lo:hi] + 3.0 * c[lo:hi]
        assert np.array_equal(a[lo:hi].view(np.uint64), expected.view(np.uint64))
        outside = np.concatenate([a[:lo], a[hi:]])
        assert np.array_equal(outside, np.full(len(outside), SENTINEL))

    def test_plain_loop_matches_the_native_kernel(self, native):
        # -U__SSE2__ builds the branch other ISAs compile: ordinary stores, no movntpd.
        plain = _native_triad("-U__SSE2__")
        assert plain.store_bits == 0
        assert_same_slices(native, plain)

    def test_128_bit_stores_match_the_default_build(self, native):
        if native.store_bits == 0:
            pytest.skip("no streaming stores on this ISA")
        # -DTRIAD_NO_AVX512 drops the 512-bit function, as a compiler too old for it does.
        narrow = _native_triad("-DTRIAD_NO_AVX512")
        assert narrow.store_bits == 128
        assert_same_slices(native, narrow)

    def test_dispatch_picks_the_widest_stores_the_cpu_has(self, native):
        flags = set()
        with contextlib.suppress(OSError):
            with open("/proc/cpuinfo") as cpuinfo:
                flags = {f for line in cpuinfo if line.startswith("flags") for f in line.split()}
        if native.store_bits == 0 or not flags:
            pytest.skip("no streaming stores on this ISA, or no cpu flags to read")
        assert native.store_bits == (512 if "avx512f" in flags else 128)

    def test_warmup_passes_are_not_reported(self, native, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            native(*args)

        counting.store_bits = native.store_bits
        monkeypatch.setattr(microbench, "_native_triad", lambda: counting)
        result = run_stream_triad(TriadConfig(elements=SMALL, threads=1, repetitions=5))
        assert len(calls) == microbench.TRIAD_WARMUP_PASSES + 5
        assert len(result.per_repetition) == 5

    def test_native_corruption_is_not_a_fallback(self, monkeypatch):
        def corrupt(a, b, c, q, lo, hi):  # writes nothing but one wrong value per slice
            ctypes.c_double.from_address(a + 8 * lo).value = -1.0

        monkeypatch.setattr(microbench, "_native_triad", lambda: corrupt)
        with pytest.raises(KernelCorruptionError, match="element 0"):
            run_stream_triad(TriadConfig(elements=SMALL, repetitions=1))

    @pytest.mark.parametrize("n", [1, 511, 1 << 20, (1 << 20) + 3])
    def test_page_aligned(self, n):
        array = _page_aligned(n)
        assert array.ctypes.data % 4096 == 0
        assert len(array) == n
        assert array.dtype == np.float64


def serial_fill(n):
    """``b`` and ``c`` as one thread filled them: a seeded block each, repeated block by block."""
    b, c = np.empty(n), np.empty(n)
    rng = np.random.default_rng(12345)
    for x in (b, c):
        rng.random(out=x[:TRIAD_FILL_BLOCK])
        x[:TRIAD_FILL_BLOCK] += 1.0
        for lo in range(TRIAD_FILL_BLOCK, n, TRIAD_FILL_BLOCK):
            x[lo:lo + TRIAD_FILL_BLOCK] = x[:min(TRIAD_FILL_BLOCK, n - lo)]
    return b, c


def spied_arrays(monkeypatch):
    """Record the (a, b, c) and the set-up plan of every triad run."""
    real, seen = microbench._triad_arrays, []

    def triad_arrays(n, plan):
        arrays = real(n, plan)
        seen.append((arrays, plan))
        return arrays

    monkeypatch.setattr(microbench, "_triad_arrays", triad_arrays)
    return seen


def python_kernel(n, corrupt=()):
    """A triad kernel on raw pointers, as the native one is called, that zeroes the ``corrupt`` elements."""
    def kernel(a, b, c, q, lo, hi):
        a, b, c = (np.ctypeslib.as_array((ctypes.c_double * n).from_address(p)) for p in (a, b, c))
        np.multiply(c[lo:hi], q, out=a[lo:hi])
        np.add(a[lo:hi], b[lo:hi], out=a[lo:hi])
        for i in corrupt:
            if lo <= i < hi:
                a[i] = 0.0

    kernel.store_bits = 0
    return kernel


FAKE_CPUS = list(range(8))  # two sockets of four cpus each


class TestTriadSetUp:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_parallel_fill_equals_the_serial_fill(self, monkeypatch, cpus):
        n = 3 * TRIAD_FILL_BLOCK + 5
        monkeypatch.setattr(microbench, "_available_cpus", lambda: list(range(cpus)))
        seen = spied_arrays(monkeypatch)
        result = run_stream_triad(TriadConfig(elements=n, repetitions=1, pinning="none"))
        ((a, b, c), plan), = seen
        assert result.setup_threads == len(plan) == cpus
        for got, want in zip((b, c), serial_fill(n)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_every_page_of_a_is_written_during_set_up(self, monkeypatch):
        def poisoned(n):  # fresh pages read 0.0, so start from NaN to see the writes
            array = _page_aligned(n)
            array.fill(np.nan)
            return array

        monkeypatch.setattr(microbench, "_page_aligned", poisoned)
        n = 40 * TRIAD_ALIGNMENT // 8 + 3  # 41 pages, cut into pieces that do not start on a page
        plan = _setup_split([(0, n)], None, [0, 1, 2], 1)
        a, b, c = microbench._triad_arrays(n, plan)
        page_starts = a[::TRIAD_ALIGNMENT // 8]
        assert len(page_starts) == 41 and not page_starts.any()

    def test_interleaved_and_compact_workers_on_fake_cpus(self):
        assert _cpu_assignment(4, "interleaved", 2, FAKE_CPUS) == [0, 4, 1, 5]
        assert _cpu_assignment(4, "compact", 2, FAKE_CPUS) == [0, 1, 2, 3]
        assert _cpu_assignment(4, "none", 2, FAKE_CPUS) is None

    @pytest.mark.parametrize("pinning", ["interleaved", "compact"])
    @pytest.mark.parametrize("threads", range(1, 9))
    @pytest.mark.parametrize("n", [8, 1001, 3 * TRIAD_FILL_BLOCK + 5])
    def test_split_places_each_piece_on_its_workers_socket(self, pinning, threads, n):
        bounds = [(i * n // threads, (i + 1) * n // threads) for i in range(threads)]
        workers = _cpu_assignment(threads, pinning, 2, FAKE_CPUS)
        plan = _setup_split(bounds, workers, FAKE_CPUS, 2)
        setup_cpus = [cpu for cpu, _ in plan]
        assert len(setup_cpus) == len(set(setup_cpus)) <= len(FAKE_CPUS)
        pieces = sorted((lo, hi, cpu) for cpu, run in plan for lo, hi in run)
        assert all(lo < hi for lo, hi, _ in pieces)
        assert [lo for lo, _, _ in pieces] == [0] + [hi for _, hi, _ in pieces[:-1]]
        assert pieces[-1][1] == n
        for lo, hi, cpu in pieces:
            (worker,) = [w for w, (start, stop) in enumerate(bounds) if start <= lo and hi <= stop]
            assert cpu // 4 == workers[worker] // 4  # the worker's socket block

    @pytest.mark.parametrize("sockets, workers", [(1, [0, 1]), (2, None)])
    def test_split_is_even_and_unpinned_without_placement(self, sockets, workers):
        n = 1001
        plan = _setup_split([(0, n // 2), (n // 2, n)], workers, FAKE_CPUS, sockets)
        assert [cpu for cpu, _ in plan] == [None] * len(FAKE_CPUS)
        assert [run for _, run in plan] == [[(k * n // 8, (k + 1) * n // 8)] for k in range(8)]

    def test_no_more_set_up_threads_than_elements(self):
        plan = _setup_split([(0, 3)], None, FAKE_CPUS, 1)
        assert [run for _, run in plan] == [[(0, 1)], [(1, 2)], [(2, 3)]]


class TestTriadCheck:
    def test_lowest_mismatch_over_all_pieces_is_reported(self, monkeypatch):
        n = 4 * TRIAD_FILL_BLOCK
        first, last = 17, n - 3  # in the first and in the last of four set-up pieces
        monkeypatch.setattr(microbench, "_available_cpus", lambda: [0, 1, 2, 3])
        monkeypatch.setattr(microbench, "_native_triad", lambda: python_kernel(n, (last, first)))
        seen = spied_arrays(monkeypatch)
        with pytest.raises(KernelCorruptionError) as caught:
            run_stream_triad(TriadConfig(elements=n, repetitions=1, pinning="none"))
        ((a, b, c), plan), = seen
        assert plan[0][1][0][0] <= first < plan[0][1][-1][1] and plan[-1][1][0][0] <= last
        with pytest.raises(KernelCorruptionError) as serial:
            verify_triad(a, b, c, microbench.TRIAD_SCALAR_Q)
        assert str(caught.value) == str(serial.value)
        assert f"element {first}:" in str(caught.value)

    def test_no_mismatch_is_lost_between_many_check_threads(self, monkeypatch):
        # More check threads than cores, switching often: a lost report of the lowest fails.
        cpus, n = 16, 16 * TRIAD_FILL_BLOCK
        corrupt = [k * n // cpus + 5 for k in range(cpus)]  # one in every piece
        monkeypatch.setattr(microbench, "_available_cpus", lambda: list(range(cpus)))
        monkeypatch.setattr(microbench, "_native_triad", lambda: python_kernel(n, corrupt[::-1]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with pytest.raises(KernelCorruptionError, match=f"element {corrupt[0]}:"):
                    run_stream_triad(TriadConfig(elements=n, repetitions=1, pinning="none"))
        finally:
            sys.setswitchinterval(interval)

    def test_clean_run_with_the_python_kernel_verifies(self, monkeypatch):
        n = 2 * TRIAD_FILL_BLOCK + 1
        monkeypatch.setattr(microbench, "_native_triad", lambda: python_kernel(n))
        result = run_stream_triad(TriadConfig(elements=n, threads=2, repetitions=1))
        assert result.setup_threads == len(_available_cpus())

    @pytest.mark.parametrize("step", ["_repeat_fill_block", "_first_mismatch"])
    def test_set_up_or_check_thread_exception_is_raised(self, monkeypatch, step):
        def failing(*args):
            raise MemoryError(f"{step} out of memory")

        monkeypatch.setattr(microbench, step, failing)
        raised = raised_by(run_stream_triad, TriadConfig(elements=SMALL, threads=2, repetitions=1))
        assert [type(exc) for exc in raised] == [MemoryError]
        assert not _run_lock.locked()


class TestVerifyTriad:
    def test_clean_pass(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(1, 2, 1000)
        c = rng.uniform(1, 2, 1000)
        a = np.multiply(c, 3.0)
        np.add(a, b, out=a)
        verify_triad(a, b, c, 3.0)

    def test_corruption_detected(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(1, 2, 1000)
        c = rng.uniform(1, 2, 1000)
        a = b + 3.0 * c
        a[537] += 1e-9
        with pytest.raises(KernelCorruptionError, match="element 537"):
            verify_triad(a, b, c, 3.0)

    def test_corruption_in_a_later_block_detected(self):
        n = 3 * microbench.VERIFY_BLOCK + 5
        b, c = np.arange(n, dtype=float), np.full(n, 0.5)
        a = b + 3.0 * c
        a[n - 2] = 0.0
        with pytest.raises(KernelCorruptionError, match=f"element {n - 2}:"):
            verify_triad(a, b, c, 3.0)

    def test_error_line_reads_plain_floats(self):
        n = 3 * microbench.VERIFY_BLOCK + 5
        b, c = np.arange(n, dtype=float), np.full(n, 0.5)
        a = b + 3.0 * c
        a[n - 2] = 0.0
        with pytest.raises(KernelCorruptionError) as caught:
            verify_triad(a, b, c, 3.0)
        assert str(caught.value) == f"triad verification failed at element {n - 2}: got 0.0, expected {n - 0.5}"

    def test_scratch_under_one_mib_at_bench_mem_probe_size(self):
        n = 1 << 20
        b, c = np.arange(n, dtype=float), np.full(n, 0.5)
        a = b + 3.0 * c
        tracemalloc.start()
        try:
            verify_triad(a, b, c, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


def spied_chains(monkeypatch):
    """Record the accumulator chains every ``_fma_spin`` call updates."""
    real_spin, chains = microbench._fma_spin, []

    def spin(acc, *args):
        chains.append(acc)
        return real_spin(acc, *args)

    monkeypatch.setattr(microbench, "_fma_spin", spin)
    return chains


class TestFmaKernel:
    def test_vector_double(self, monkeypatch):
        chains = spied_chains(monkeypatch)
        result = run_fma_kernel("double", "vector", 0.15)
        assert result.gflops > 0
        assert chains and all(len(acc) >= 8 and acc[0].size > 1 for acc in chains)

    def test_scalar_uses_one_element(self, monkeypatch):
        chains = spied_chains(monkeypatch)
        run_fma_kernel("double", "scalar", 0.1)
        assert chains and all(chain.size == 1 for acc in chains for chain in acc)

    def test_vector_at_least_scalar(self):
        vector = run_fma_kernel("double", "vector", 0.15)
        scalar = run_fma_kernel("double", "scalar", 0.15)
        assert vector.gflops >= scalar.gflops

    def test_single_precision_supported(self):
        assert run_fma_kernel("single", "vector", 0.1).precision == "single"

    def test_below_declared_peak(self, testhost):
        result = run_fma_kernel("double", "vector", 0.15)
        assert result.gflops <= 1.05 * peak_flops(testhost, "double", "vector")

    def test_duration_doubling_is_steady(self):
        # Back-to-back pairs so host time-slicing hits both samples alike; a
        # genuine duration dependence of the kernel would fail every pair.
        gaps = []
        for _ in range(10):
            short = run_fma_kernel("double", "vector", 0.25).gflops
            long = run_fma_kernel("double", "vector", 0.5).gflops
            gaps.append(abs(long - short) / short)
            if gaps[-1] < 0.05:
                break
        assert min(gaps) < 0.05, f"pair gaps: {[f'{g:.3f}' for g in gaps]}"

    def test_unsupported_precision(self):
        with pytest.raises(CapabilityError) as err:
            run_fma_kernel("half", "vector", 0.2)
        assert "double" in err.value.supported

    def test_unsupported_mode(self):
        with pytest.raises(CapabilityError) as err:
            run_fma_kernel("double", "sve", 0.2)
        assert "vector" in err.value.supported

    def test_short_duration_rejected(self):
        with pytest.raises(ParameterError):
            run_fma_kernel("double", "vector", 0.05)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ParameterError, match="finite"):
            run_fma_kernel("double", "vector", duration)

    def test_result_invariants(self):
        with pytest.raises(ParameterError):
            ThroughputResult(gflops=0.0, precision="double", mode="vector", duration=1.0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_worker_exception_is_raised(self, monkeypatch, threads):
        real_spin = microbench._fma_spin
        calls = itertools.count()

        def spin(*args):
            if next(calls) == 0:  # only the first worker to start fails
                raise MemoryError("worker out of memory")
            return real_spin(*args)

        monkeypatch.setattr(microbench, "_fma_spin", spin)
        raised = raised_by(run_fma_kernel, "double", "vector", 0.1, threads=threads)
        assert [type(exc) for exc in raised] == [MemoryError]
        assert not _run_lock.locked()

    def test_threads_beyond_cpus_start_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        with pytest.raises(ParameterError, match="exceed available cpus"):
            run_fma_kernel("double", "vector", 0.1, threads=len(_available_cpus()) + 1)


class TestThreadSweep:
    def test_single_count(self):
        points = thread_sweep("triad", [1], elements=SMALL, repetitions=2)
        assert len(points) == 1
        assert points[0].threads == 1

    def test_monotone_thread_field(self):
        points = thread_sweep("triad", [1, 2], elements=SMALL, repetitions=2)
        assert [p.threads for p in points] == [1, 2]
        assert all(p.value > 0 for p in points)

    def test_sweep_max_at_least_single_thread(self):
        points = thread_sweep("triad", [1, 2], elements=2_000_000, repetitions=3)
        best = max(p.value for p in points)
        assert best >= points[0].value

    def test_fma_sweep_three_counts(self):
        counts = [min(count, len(_available_cpus())) for count in (1, 2, 4)]
        points = thread_sweep("fma", counts, duration=0.12)
        assert [p.threads for p in points] == counts
        assert all(p.value > 0 for p in points)

    def test_unsorted_counts_rejected(self):
        with pytest.raises(ParameterError):
            thread_sweep("triad", [2, 1], elements=SMALL)

    def test_triad_needs_elements(self):
        with pytest.raises(ParameterError):
            thread_sweep("triad", [1])

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            thread_sweep("netperf", [1])

    @pytest.mark.parametrize("kind, counts, elements, message", [
        ("triad", "too many", SMALL, "exceed available cpus"),
        ("triad", [1, 2], 1, "need at least one element per thread"),
        ("fma", "too many", None, "exceed available cpus"),
        ("fma", [0, 1], None, "threads must be >= 1"),
    ], ids=["triad-too-many-threads", "triad-fewer-elements-than-threads", "fma-too-many-threads",
            "fma-zero-threads"])
    def test_every_count_is_checked_before_the_first_run(self, monkeypatch, kind, counts, elements, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a kernel ran before every count was checked")

        monkeypatch.setattr(microbench, "run_stream_triad", no_run)
        monkeypatch.setattr(microbench, "run_fma_kernel", no_run)
        if counts == "too many":
            counts = [1, len(_available_cpus()) + 1]
        with pytest.raises(ParameterError, match=message):
            thread_sweep(kind, counts, elements=elements, repetitions=1, duration=0.1)


class TestBandwidthBound:
    def test_counted_bandwidth_below_declared_peak(self, testhost):
        config = TriadConfig(elements=2_000_000, threads=2, repetitions=4)
        result = run_stream_triad(config)
        assert result.best <= 1.05 * peak_bandwidth(testhost)

    def test_full_size_saturation(self):
        # 0.9x slack: adding threads must not lose more than placement effects.
        import os

        max_threads = min(
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 2, 4
        )
        # The two configurations alternate over three rounds and each side's best
        # counts, so that a drift in the host's speed does not land on one side only.
        configs = [TriadConfig(elements=16_777_216, threads=t, repetitions=3) for t in (1, max_threads)]
        rounds = [[run_stream_triad(config).best for config in configs] for _ in range(3)]
        single, full = map(max, zip(*rounds))
        assert full >= 0.9 * single
