"""Multi-core timeslot-allocation arbiter with a stress-test harness.

Greedy maximal-matching allocation over batches of timeslots, scaled out
three ways: a pipelined ring of allocator contexts, parallel lanes with
post-hoc reconciliation, and backlog/alloc/postalloc lane sets coupled by an
invertible shuffle distributor.
"""

from .model import (
    AdmittedBatch,
    AllocationMode,
    Architecture,
    BatchBitmaps,
    Config,
    ConfigError,
    Demand,
    Metrics,
    RunResult,
    throughput_bps,
    timeslot_duration,
)
from .kernel import GreedyKernel, lru_order
from .oracle import (
    bin_index,
    canonical_order,
    oracle_allocate,
    oracle_replay,
    verify_admitted,
    verify_maximal,
)
from .permutation import PermutationSpec
from .workload import (
    Arrival,
    TraceFormatError,
    WorkloadSpec,
    WorkloadStream,
    mean_t_for_load,
    record_trace,
    replay_trace,
)
from .pipeline import run_pipeline_deterministic
from .parallel import reconcile, run_parallel_deterministic
from .shuffle import bench_distributor, run_shuffle_deterministic
from .stress import (
    SearchError,
    SearchResult,
    VerifyingSink,
    auto_search,
    paced_probe,
    run_deterministic,
    run_paced,
    sustain_check,
)

__version__ = "0.1.0"

__all__ = [
    "AdmittedBatch",
    "AllocationMode",
    "Architecture",
    "Arrival",
    "BatchBitmaps",
    "Config",
    "ConfigError",
    "Demand",
    "GreedyKernel",
    "Metrics",
    "PermutationSpec",
    "RunResult",
    "SearchError",
    "SearchResult",
    "TraceFormatError",
    "VerifyingSink",
    "WorkloadSpec",
    "WorkloadStream",
    "auto_search",
    "bench_distributor",
    "bin_index",
    "canonical_order",
    "lru_order",
    "mean_t_for_load",
    "oracle_allocate",
    "oracle_replay",
    "paced_probe",
    "reconcile",
    "record_trace",
    "replay_trace",
    "run_deterministic",
    "run_paced",
    "run_parallel_deterministic",
    "run_pipeline_deterministic",
    "run_shuffle_deterministic",
    "sustain_check",
    "throughput_bps",
    "timeslot_duration",
    "verify_admitted",
    "verify_maximal",
]
