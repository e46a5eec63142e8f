"""Stress harness: paced load generation, sustain checks, max-load search.

A paced run wires generator threads, each through its own conduit, to one
``engine.PacedMachine`` stepping the architecture's engine (``PipelineRing``,
``ParallelRound`` or ``ShuffleEngine``).  Shuffle gets one generator per
backlog shard, drawing from that shard's slice of the sources; the others
get one.  The run samples the demand/allocation gap while the wall clock
runs, and tears everything down with exact conservation accounting.
``auto_search`` drives repeated paced runs to find the maximum sustainable
load: it shrinks the interarrival mean by a factor while the allocator keeps
up, backs off to the last sustained value on failure, decays the factor and
repeats until the factor is exhausted.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import (
    AdmittedBatch,
    Architecture,
    Config,
    Demand,
    Metrics,
    RunResult,
    throughput_bps,
)
from .conduits import SpscQueue
from .engine import PacedMachine
from .oracle import verify_admitted
from .parallel import ParallelRound, run_parallel_deterministic
from .pipeline import PipelineRing, run_pipeline_deterministic
from .shuffle import ShuffleEngine, run_shuffle_deterministic
from .workload import Arrival, WorkloadSpec, WorkloadStream, shard_spec

#: Generator lag beyond which a run is flagged overloaded (conduits full and
#: arrivals overdue by this much wall time).
_OVERLOAD_GRACE_NS = 250_000_000

_SAMPLE_INTERVAL_S = 0.05


class SearchError(RuntimeError):
    """auto_search could not begin: the initial load is not sustainable."""


@dataclass
class GapSample:
    at_ns: int
    demanded: int
    allocated: int

    @property
    def gap(self) -> int:
        return self.demanded - self.allocated


class VerifyingSink:
    """Streaming batch sink: checks capacity and that no batch starts before
    the previous one ends, keeps counts, drops the batch."""

    def __init__(self) -> None:
        self.batches = 0
        self.edges = 0
        self.violations = 0
        self.first_violation = None
        self.next_free_slot = 0  # first slot after the previous batch
        self.out_of_order = 0

    def __call__(self, batch: AdmittedBatch) -> None:
        self.batches += 1
        self.edges += len(batch.edges)
        violation = verify_admitted(batch)
        if violation is not None:
            self.violations += 1
            if self.first_violation is None:
                self.first_violation = violation
        # a batch starting inside the previous one hands its slots out twice
        if batch.base_slot < self.next_free_slot:
            self.out_of_order += 1
        self.next_free_slot = batch.base_slot + batch.batch_size


class _GeneratorThread(threading.Thread):
    """Pushes one workload stream into a machine at its arrival pace."""

    def __init__(
        self,
        stream: WorkloadStream,
        push: Callable[[Demand], bool],
        stop_event: threading.Event,
        start_ns: int,
    ) -> None:
        super().__init__(name="workload-gen", daemon=True)
        self.stream = stream
        self.push = push
        self.stop_event = stop_event
        self.start_ns = start_ns
        self.demanded_slots = 0
        self.demanded_count = 0
        self.overloaded = False

    def run(self) -> None:
        stream = self.stream
        pending: Optional[Demand] = None
        pending_due_ns = 0
        while not self.stop_event.is_set():
            now = time.monotonic_ns() - self.start_ns
            if pending is None:
                arrival = stream.peek()
                if arrival.arrival_ns > now:
                    wait_s = min((arrival.arrival_ns - now) / 1e9, 0.002)
                    time.sleep(wait_s)
                    continue
                stream.next_arrival()
                pending = Demand(arrival.src, arrival.dst, arrival.size)
                pending_due_ns = arrival.arrival_ns
            if self.push(pending):
                self.demanded_slots += pending.remaining
                self.demanded_count += 1
                pending = None
            else:
                if now - pending_due_ns > _OVERLOAD_GRACE_NS:
                    self.overloaded = True
                time.sleep(0.0002)


def run_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    sink: Optional[Callable[[AdmittedBatch], None]] = None,
    **kwargs,
) -> RunResult:
    """Dispatch a deterministic replay to the configured architecture."""
    if cfg.architecture is Architecture.PIPELINED:
        return run_pipeline_deterministic(cfg, arrivals, sink=sink, **kwargs)
    if cfg.architecture is Architecture.PARALLEL:
        return run_parallel_deterministic(cfg, arrivals, sink=sink, **kwargs)
    return run_shuffle_deterministic(cfg, arrivals, sink=sink, **kwargs)


#: The engine each architecture's paced machine steps.
ENGINES = {
    Architecture.PIPELINED: PipelineRing,
    Architecture.PARALLEL: ParallelRound,
    Architecture.SHUFFLE: ShuffleEngine,
}


def run_paced(
    cfg: Config,
    spec: WorkloadSpec,
    duration_s: float,
    sink: Optional[Callable[[AdmittedBatch], None]] = None,
) -> Tuple[RunResult, List[GapSample]]:
    """One wall-clock stress run; returns the result and the gap samples."""
    own_sink = VerifyingSink() if sink is None else None
    feeds = cfg.sets if cfg.architecture is Architecture.SHUFFLE else 1
    specs = [spec] if feeds == 1 else [shard_spec(spec, x, feeds) for x in range(feeds)]
    conduits = [SpscQueue(cfg.mailbox_depth) for _ in specs]
    engine = ENGINES[cfg.architecture](cfg)
    machine = PacedMachine(engine, cfg, sink if sink is not None else own_sink, conduits)
    stop_generators = threading.Event()
    start_ns = time.monotonic_ns()
    generators = [
        _GeneratorThread(WorkloadStream(feed), conduit.try_put, stop_generators, start_ns)
        for feed, conduit in zip(specs, conduits)
    ]

    machine.start()
    for gen in generators:
        gen.start()

    samples: List[GapSample] = []
    deadline = start_ns + int(duration_s * 1e9)
    while True:
        now = time.monotonic_ns()
        # a failed engine thread sets the machine's stop event: end the run early
        if now >= deadline or machine.stop_event.is_set():
            break
        samples.append(
            GapSample(
                now - start_ns,
                sum(g.demanded_slots for g in generators),
                engine.allocated_slots,
            )
        )
        time.sleep(_SAMPLE_INTERVAL_S)

    stop_generators.set()
    for gen in generators:
        gen.join()
    wall_ns = time.monotonic_ns() - start_ns
    machine.stop_and_join()

    metrics = Metrics()
    metrics.demanded_slots = sum(g.demanded_slots for g in generators)
    metrics.allocated_slots = engine.allocated_slots
    metrics.pending_slots = machine.pending_slots()
    metrics.cancelled_then_reissued = engine.cancelled_slots
    metrics.wall_elapsed_ns = wall_ns
    metrics.throughput_bps = throughput_bps(
        metrics.allocated_slots, cfg.mtu_bytes, wall_ns
    )
    metrics.overloaded = any(g.overloaded for g in generators)
    metrics.lane_counters = machine.lane_counters()
    if own_sink is not None:
        metrics.lane_counters["verify"] = {
            "batches": own_sink.batches,
            "violations": own_sink.violations,
            "out_of_order": own_sink.out_of_order,
        }
    samples.append(GapSample(wall_ns, metrics.demanded_slots, metrics.allocated_slots))
    return RunResult(metrics), samples


def sustain_check(
    samples: Sequence[GapSample], gap_bound: int, overloaded: bool = False
) -> bool:
    """Did the allocator keep up: gap bounded throughout, no conduit overflow."""
    if overloaded:
        return False
    return all(sample.gap <= gap_bound for sample in samples)


#: A probe runner maps (mean_interarrival_ns, duration_s) to
#: (sustained, achieved_bps).
ProbeRunner = Callable[[float, float], Tuple[bool, float]]


@dataclass
class SearchResult:
    mean_interarrival_ns: float
    load_bps: float
    trajectory: List[Tuple[float, bool]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mean_interarrival_ns": self.mean_interarrival_ns,
            "load_bps": self.load_bps,
            "trajectory": [
                {"mean_t_ns": m, "sustained": ok} for m, ok in self.trajectory
            ],
        }


def auto_search(
    probe: ProbeRunner,
    initial_mean_t_ns: float,
    initial_factor: float = 2.0,
    min_factor: float = 1.05,
    probe_duration_s: float = 2.0,
    budget_s: Optional[float] = 60.0,
) -> SearchResult:
    """Geometric descent on the interarrival mean, bracketing the threshold.

    The reported load never exceeds an observed failing load: failures always
    push the search back to the last sustained mean before the factor decays.
    """
    if initial_factor <= 1.0 or min_factor <= 1.0:
        raise ValueError("search factors must be > 1")
    started = time.monotonic()
    trajectory: List[Tuple[float, bool]] = []

    sustained, achieved = probe(initial_mean_t_ns, probe_duration_s)
    trajectory.append((initial_mean_t_ns, sustained))
    if not sustained:
        raise SearchError(
            f"initial load not sustainable at mean_t {initial_mean_t_ns:.0f} ns; "
            "start the search from a larger interarrival mean"
        )
    best_mean_t = initial_mean_t_ns
    best_bps = achieved

    factor = initial_factor
    while True:
        if budget_s is not None and time.monotonic() - started > budget_s:
            break
        candidate = best_mean_t / factor
        sustained, achieved = probe(candidate, probe_duration_s)
        trajectory.append((candidate, sustained))
        if sustained:
            best_mean_t = candidate
            best_bps = achieved
            continue
        if factor <= min_factor:
            # failed within the resolution limit: the threshold is bracketed
            # to a relative width of min_factor - 1
            break
        factor = max(math.sqrt(factor), min_factor)
    return SearchResult(best_mean_t, best_bps, trajectory)


def paced_probe(cfg: Config, spec_template: WorkloadSpec) -> ProbeRunner:
    """Probe runner over real paced runs of the configured architecture."""

    def probe(mean_t_ns: float, duration_s: float) -> Tuple[bool, float]:
        spec = WorkloadSpec(
            seed=spec_template.seed,
            num_nodes=spec_template.num_nodes,
            mean_interarrival_ns=mean_t_ns,
            size_mean_packets=spec_template.size_mean_packets,
            size_stddev_packets=spec_template.size_stddev_packets,
            duration_s=duration_s,
        )
        result, samples = run_paced(cfg, spec, duration_s)
        ok = sustain_check(samples, cfg.gap_bound, result.metrics.overloaded)
        return ok, result.metrics.throughput_bps

    return probe
