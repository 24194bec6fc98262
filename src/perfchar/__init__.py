"""perfchar: performance characterization and scalability projection toolkit.

Declared hardware limits, portable microbenchmarks, roofline analysis,
energy metrics, and scaling-law fitting over ingested measurement data.
"""

__version__ = "0.1.0"

from .exceptions import PerfcharError
from .hwmodel import (
    PlatformSpec,
    VectorUnitSpec,
    load_platform_spec,
    node_peak_flops,
    peak_bandwidth,
    peak_flops,
    stream_min_elements,
)
from .ingest import (
    AppMetric,
    PairwiseBandwidthMatrix,
    RunRecord,
    RunTable,
    WeakLink,
    detect_weak_links,
    parse_pairwise_bandwidth,
    parse_runs,
    serialize_runs,
)
from .metrics import (
    EnergyMetrics,
    compare_platforms,
    energy_metrics,
)
from .microbench import (
    BandwidthResult,
    ThroughputResult,
    TriadConfig,
    run_fma_kernel,
    run_stream_triad,
    thread_sweep,
)
from .roofline import (
    CounterSample,
    KernelPoint,
    RooflineModel,
    arithmetic_intensity,
    build_roofline,
    classify,
    roofline_curve,
    sustained_perf,
)
from .scalefit import (
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
