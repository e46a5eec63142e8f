"""Workloads and the two measured phases: deterministic replay and paced runs.

Every workload is one traffic family (node count, demand-size distribution,
replay load, two paced rates) and runs both phases, so every end-to-end
metric is measured on every workload.  A pass alternates the phases:

* replay: the seeded trace is generated and round-tripped through the trace
  CSV (``setup_s``), then replayed with ``stress.run_deterministic`` through
  four configurations, a round at a time.  Allocated slots per unit of host
  time (see ``reference_loop_s``) is the gated figure, slots per
  wall-second is recorded next to it.
* paced: ``stress.run_paced`` drives each architecture from its single
  generator thread (an open loop) at a light rate, where demand latency is
  measured, and at an overload rate, where goodput is measured.

Every emitted batch goes through ``gate.check_run``.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from slotarbiter import oracle, stress
from slotarbiter import workload as wl
from slotarbiter.model import AdmittedBatch, AllocationMode, Architecture, Config, Demand

import gate

MTU_BYTES = 1500
LINK_RATE_BPS = 10 * 10**9


@dataclass(frozen=True)
class Family:
    """One workload: the inputs both phases are generated from."""

    name: str
    why: str
    num_nodes: int
    size_mean: float
    size_sd: float
    replay_load: float  # share of fabric capacity offered by the replay trace
    replay_demands: int
    light_rate: float  # demands per second
    overload_rate: float


WORKLOADS: Dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            name="backlog",
            why=(
                "256 nodes, paper sizes, 0.9-load replay: a deep backlog, so kernel revisits, "
                "re-binning, parallel cancels and full shuffle bins dominate; paced at 5k and 30k/s"
            ),
            num_nodes=256,
            size_mean=10.0,
            size_sd=3.0,
            replay_load=0.9,
            replay_demands=8000,
            light_rate=5000.0,
            overload_rate=30000.0,
        ),
        Family(
            name="sparse",
            why=(
                "1024 nodes, 1.5-packet demands, 0.02-load replay: served on first visit, so "
                "per-arrival and per-batch costs dominate, backlog paths idle; paced at 5k and 150k/s"
            ),
            num_nodes=1024,
            size_mean=1.5,
            size_sd=1.0,
            replay_load=0.02,
            replay_demands=16000,
            light_rate=5000.0,
            overload_rate=150000.0,
        ),
    )
}


REPLAY_NAMES = ("pipelined", "pipelined_per_slot", "parallel", "shuffle")
PACED_ARCHS = ("pipelined", "parallel", "shuffle")


def replay_configs(num_nodes: int) -> Dict[str, Config]:
    """Replay configurations; the single-context pipelines are oracle-comparable."""
    return {
        "pipelined": Config(num_nodes, cores=1, mode=AllocationMode.BATCH),
        "pipelined_per_slot": Config(num_nodes, cores=1, mode=AllocationMode.PER_SLOT),
        "parallel": Config(num_nodes, architecture=Architecture.PARALLEL, lanes=2),
        "shuffle": Config(num_nodes, architecture=Architecture.SHUFFLE, sets=2),
    }


ORACLE_MODE = {"pipelined": AllocationMode.BATCH, "pipelined_per_slot": AllocationMode.PER_SLOT}


def paced_configs(num_nodes: int) -> Dict[str, Config]:
    """Paced configurations: at most five threads each on a two-core host."""
    return {
        "pipelined": Config(num_nodes, cores=2, mode=AllocationMode.BATCH),
        "parallel": Config(num_nodes, architecture=Architecture.PARALLEL, lanes=2),
        "shuffle": Config(num_nodes, architecture=Architecture.SHUFFLE, sets=1),
    }


PACED_RATES = ("light", "overload")

#: Paced runs per (architecture, rate).  The reported value is the median of
#: the repeats, so one light run caught in a GIL convoy does not set it.
PACED_REPEATS = {"light": 6, "overload": 2}

#: Share of a pass's measuring time given to replay rounds and to each paced
#: rate.  Overload runs only feed ungated figures and per-layer metrics, so
#: they get the least.
TIME_SHARE = {"replay": 0.4, "light": 0.35, "overload": 0.25}

#: Set-up repeats; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: An overload run must leave at least this share of the offered slots
#: unserved, or it measured the offered rate rather than capacity.
SATURATION_SHARE = 0.1


def figure_names() -> List[Tuple[str, str, bool]]:
    """Every end-to-end figure as (name, unit, gated).

    Gated figures are the end-to-end metrics.  The others are printed and
    recorded but not gated, because their run-to-run spread on a shared
    two-vCPU host exceeds any useful bound: raw replay slots per second (the
    host's speed drifts by up to 2x), light-rate latency (it follows the
    host's steal share, 0.5% to 16% from run to run, through every GIL
    handoff) and overload goodput (each run settles in one of two GIL
    regimes, generator-starved or lane-starved).
    """
    names: List[Tuple[str, str, bool]] = [("setup_s", "s", True)]
    names += [(f"{c}.replay_slots_per_ref_loop", "slots/ref_loop", True) for c in REPLAY_NAMES]
    names += [(f"{c}.replay_slots_per_s", "slots/s", False) for c in REPLAY_NAMES]
    names += [(f"{arch}.latency_p50_us", "us", False) for arch in PACED_ARCHS]
    names += [(f"{arch}.latency_p90_us", "us", False) for arch in PACED_ARCHS]
    names += [(f"{arch}.overload_goodput_slots_per_s", "slots/s", False) for arch in PACED_ARCHS]
    return names


def e2e_names() -> List[str]:
    return [name for name, _, gated in figure_names() if gated]


def figure_unit(name: str) -> str:
    return next(unit for n, unit, _ in figure_names() if n == name)


def figure_precondition(name: str) -> Optional[str]:
    """The paced run label whose precondition a figure depends on, if any."""
    arch = name.split(".", 1)[0]
    if name.endswith(("latency_p50_us", "latency_p90_us")):
        return f"paced:{arch}:light"
    if name.endswith("overload_goodput_slots_per_s"):
        return f"paced:{arch}:overload"
    return None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def replay_spec(family: Family, seed: int) -> wl.WorkloadSpec:
    mean_t = wl.mean_t_for_load(
        family.replay_load, family.num_nodes, LINK_RATE_BPS, MTU_BYTES, family.size_mean
    )
    return wl.WorkloadSpec(seed, family.num_nodes, mean_t, family.size_mean, family.size_sd)


def paced_spec(family: Family, seed: int, rate: float, duration_s: float) -> wl.WorkloadSpec:
    return wl.WorkloadSpec(
        seed, family.num_nodes, 1e9 / rate, family.size_mean, family.size_sd, duration_s=duration_s
    )


def set_up(family: Family, seed: int, csv_path: str, on_phase: Callable[[str], None]) -> Tuple[List[wl.Arrival], List[float]]:
    """Generate the replay trace and round-trip it through the trace CSV.

    Repeated ``SETUP_REPEATS`` times; returns the round-tripped arrivals and
    the wall time of every repeat.
    """
    on_phase("setup")
    times: List[float] = []
    arrivals: List[wl.Arrival] = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            generated = wl.WorkloadStream(replay_spec(family, seed)).take(family.replay_demands)
            wl.record_trace(generated, csv_path)
            arrivals = wl.replay_trace(csv_path)
            times.append(time.perf_counter() - t0)
            if arrivals != generated:
                raise RuntimeError("trace CSV round-trip changed the arrivals")
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(csv_path)
    return arrivals, times


# ---------------------------------------------------------------------------
# Replay phase
# ---------------------------------------------------------------------------


@dataclass
class ReplaySample:
    wall_s: float
    cpu_s: float
    slots: int
    batches: int
    digest: str
    cancelled: int
    drained: int
    reference_s: float


@dataclass
class ReplayOutcome:
    samples: Dict[str, List[ReplaySample]] = field(default_factory=dict)
    oracle_s: Dict[str, float] = field(default_factory=dict)
    oracle_digest: Dict[str, str] = field(default_factory=dict)
    demands: int = 0

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {"demands": self.demands, "oracle_s": self.oracle_s,
                                  "oracle_digest": self.oracle_digest, "configs": {}}
        for name, samples in self.samples.items():
            out["configs"][name] = {
                "rounds": len(samples),
                "slots": samples[0].slots,
                "batches": samples[0].batches,
                "drained": samples[0].drained,
                "cancelled": samples[0].cancelled,
                "digest": samples[0].digest,
                "wall_s_median": statistics.median(s.wall_s for s in samples),
                "cpu_s_median": statistics.median(s.cpu_s for s in samples),
                "wall_s": [round(s.wall_s, 6) for s in samples],
                "cpu_s": [round(s.cpu_s, 6) for s in samples],
                "reference_s": [round(s.reference_s, 6) for s in samples],
            }
        return out


def _drained(result) -> int:
    counters = result.metrics.lane_counters
    if "position_drained" in counters:
        return sum(counters["position_drained"])
    return sum(counters.get("drained", []))


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies of the whole host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]), sum(int(x) for x in fields[1:])


def steal_share(start: Optional[Tuple[int, int]], end: Optional[Tuple[int, int]]) -> Optional[float]:
    """Share of the host's CPU time stolen by the hypervisor between two reads."""
    if start is None or end is None or end[1] == start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: a gauge of the host's speed.

    The loop is independent of slotarbiter, so it moves only when the host
    does; it is recorded next to every timed call to tell host drift apart
    from a change in the code.
    """
    table: Dict[int, Tuple[int, int]] = {}
    t0 = time.perf_counter()
    for i in range(20_000):
        table[i & 1023] = (i, i + 1)
        pair = [i, i >> 1]
        pair.sort()
    return time.perf_counter() - t0


@contextlib.contextmanager
def isolated_heap() -> Iterator[None]:
    """Collect, then freeze what the benchmark holds (traces, oracle edges,
    regenerated arrivals) so the timed call's garbage collections scan only
    the objects that call creates."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class Replayer:
    """Replays one trace through every configuration, a round at a time.

    The oracle runs once up front.  Each round runs every configuration
    once, in an order that rotates per round; checking happens outside the
    timed call.
    """

    def __init__(
        self,
        arrivals: Sequence[wl.Arrival],
        num_nodes: int,
        ledger: gate.Ledger,
        on_phase: Callable[[str], None],
        on_replayed: Callable[[int, int], None],
    ) -> None:
        self.arrivals = arrivals
        self.ledger = ledger
        self.on_phase = on_phase
        self.on_replayed = on_replayed
        self.configs = replay_configs(num_nodes)
        self.outcome = ReplayOutcome(demands=len(arrivals))
        self.rounds = 0
        self.busy_s = 0.0
        self._pairs = [(a.src, a.dst) for a in arrivals]
        self._sizes = [a.size for a in arrivals]
        timed = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in arrivals]
        self._expected: Dict[str, List[gate.Edge]] = {}
        for mode in (AllocationMode.BATCH, AllocationMode.PER_SLOT):
            on_phase(f"oracle:{mode.value}")
            with isolated_heap():
                t0 = time.perf_counter()
                batches, _ = oracle.oracle_replay(timed, 8, mode)
                self.outcome.oracle_s[mode.value] = time.perf_counter() - t0
            self._expected[mode.value] = gate.sorted_edges(batches)
            self.outcome.oracle_digest[mode.value] = gate.edge_digest(self._expected[mode.value])

    def round(self) -> None:
        started = time.perf_counter()
        names = list(self.configs)
        shift = self.rounds % len(names)
        for name in names[shift:] + names[:shift]:
            self._replay(name)
        self.rounds += 1
        self.busy_s += time.perf_counter() - started

    def _replay(self, name: str) -> None:
        self.on_phase(f"replay:{name}")
        before = reference_loop_s()
        with isolated_heap():
            t0 = time.perf_counter()
            c0 = time.process_time()
            result = stress.run_deterministic(self.configs[name], self.arrivals)
            cpu = time.process_time() - c0
            wall = time.perf_counter() - t0
        reference = (before + reference_loop_s()) / 2
        self.on_replayed(result.metrics.allocated_slots, len(self.arrivals))
        self.on_phase(f"check:{name}")
        edges = gate.sorted_edges(result.batches)
        mode = ORACLE_MODE.get(name)
        verdict = gate.check_run(
            result.batches, self._pairs, self._sizes, result.metrics, must_drain=True,
            expected=self._expected[mode.value] if mode is not None else None, edges=edges,
        )
        digest = gate.edge_digest(edges)
        seen = self.outcome.samples.setdefault(name, [])
        if seen and seen[0].digest != digest:
            verdict.failed = verdict.demands
            verdict.faults.append(f"determinism: round {self.rounds} digest {digest} != {seen[0].digest}")
        self.ledger.record(f"replay:{name}", verdict)
        seen.append(ReplaySample(
            wall, cpu, result.metrics.allocated_slots, len(result.batches), digest,
            result.metrics.cancelled_then_reissued, _drained(result), reference,
        ))


# ---------------------------------------------------------------------------
# Paced phase
# ---------------------------------------------------------------------------


class StampedSink:
    """Batch sink that stamps each batch with the wall time it arrived."""

    def __init__(self) -> None:
        self.batches: List[Tuple[int, AdmittedBatch]] = []

    def __call__(self, batch: AdmittedBatch) -> None:
        self.batches.append((time.monotonic_ns(), batch))


class GeneratorProbe:
    """Records the paced run's start time, every accepted push and refusals.

    ``run_paced`` keeps its start time and generator inside; the probe swaps
    in a generator subclass for the duration of one run to observe both.
    """

    def __init__(self) -> None:
        self.start_ns: Optional[int] = None
        self.push_ns: List[int] = []
        self.refusals = 0
        self.generators = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        original = stress._GeneratorThread
        probe = self

        class ProbedGenerator(original):
            def __init__(self, stream, push, stop_event, start_ns):
                probe.start_ns = start_ns
                probe.generators += 1
                stamps = probe.push_ns

                def recorded_push(demand: Demand) -> bool:
                    accepted = push(demand)
                    if accepted:
                        stamps.append(time.monotonic_ns())
                    else:
                        probe.refusals += 1
                    return accepted

                super().__init__(stream, recorded_push, stop_event, start_ns)

        stress._GeneratorThread = ProbedGenerator
        try:
            yield
        finally:
            stress._GeneratorThread = original


class ArrivalLog:
    """The paced stream regenerated from its spec, extended on demand."""

    def __init__(self, spec: wl.WorkloadSpec) -> None:
        self._stream = wl.WorkloadStream(spec)
        self.arrivals: List[wl.Arrival] = []

    def first(self, count: int) -> List[wl.Arrival]:
        while len(self.arrivals) < count:
            self.arrivals.extend(self._stream.take(4096))
        return self.arrivals[:count]

    def due_by(self, at_ns: int) -> List[wl.Arrival]:
        while not self.arrivals or self.arrivals[-1].arrival_ns <= at_ns:
            self.arrivals.extend(self._stream.take(4096))
        lo, hi = 0, len(self.arrivals)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.arrivals[mid].arrival_ns <= at_ns:
                lo = mid + 1
            else:
                hi = mid
        return self.arrivals[:lo]


def completion_latencies_ns(
    due: Sequence[wl.Arrival], stamped: Sequence[Tuple[int, AdmittedBatch]], start_ns: int
) -> List[float]:
    """Per-demand latency from due time to the batch that completes it.

    Completion is per-(src, dst) FIFO: a pair's k-th demand completes when the
    pair's granted slots reach the sum of its first k demand sizes.  A demand
    not complete when the run ends has infinite latency.
    """
    targets: Dict[Tuple[int, int], deque] = {}
    cumulative: Counter = Counter()
    for idx, a in enumerate(due):
        pair = (a.src, a.dst)
        cumulative[pair] += a.size
        targets.setdefault(pair, deque()).append((cumulative[pair], idx))
    latency = [math.inf] * len(due)
    granted: Counter = Counter()
    for at_ns, batch in stamped:
        for _, src, dst in batch.edges:
            pair = (src, dst)
            granted[pair] += 1
            queue = targets.get(pair)
            while queue and queue[0][0] <= granted[pair]:
                _, idx = queue.popleft()
                latency[idx] = at_ns - (start_ns + due[idx].arrival_ns)
    return latency


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class PacedRun:
    arch: str
    rate: str
    wall_s: float
    allocated: int
    batches: int
    slot_clock_ratio: float
    overloaded: bool
    pushed: int
    due: int
    refusals: int
    lateness_us: List[float]
    reference_s: float
    steal_share: Optional[float]
    latency_us: Optional[List[float]] = None
    saturated: Optional[bool] = None

    @property
    def goodput(self) -> float:
        return self.allocated / self.wall_s

    def summary(self) -> Dict[str, object]:
        lat = sorted(self.lateness_us)
        out: Dict[str, object] = {
            "wall_s": self.wall_s,
            "reference_s": self.reference_s,
            "host_steal_share": self.steal_share,
            "allocated_slots": self.allocated,
            "goodput_slots_per_s": self.goodput,
            "batches": self.batches,
            "batches_per_s": self.batches / self.wall_s,
            "slot_clock_ratio": self.slot_clock_ratio,
            "overloaded": self.overloaded,
            "due_demands": self.due,
            "pushed_demands": self.pushed,
            "push_refusals": self.refusals,
            "gen_lateness_p50_us": nearest_rank(lat, 0.5),
            "gen_lateness_p99_us": nearest_rank(lat, 0.99),
        }
        if self.latency_us is not None:
            values = sorted(self.latency_us)
            out.update({
                "latency_samples": len(values),
                "latency_incomplete": sum(1 for v in values if math.isinf(v)),
                "latency_p50_us": nearest_rank(values, 0.5),
                "latency_p90_us": nearest_rank(values, 0.9),
                "latency_p99_us": nearest_rank(values, 0.99),
            })
        if self.saturated is not None:
            out["saturated"] = self.saturated
        return out


def paced_run(
    arch: str, cfg: Config, spec: wl.WorkloadSpec, rate: str, duration_s: float,
    log: ArrivalLog, ledger: gate.Ledger,
) -> PacedRun:
    sink = StampedSink()
    probe = GeneratorProbe()
    before = reference_loop_s()
    ticks = cpu_ticks()
    with probe.installed(), isolated_heap():
        result, _ = stress.run_paced(cfg, spec, duration_s, sink=sink)
    stolen = steal_share(ticks, cpu_ticks())
    reference = (before + reference_loop_s()) / 2
    if probe.generators != 1 or probe.start_ns is None:
        raise RuntimeError(f"expected one paced generator, saw {probe.generators}")
    m = result.metrics
    start_ns = probe.start_ns
    pushed = log.first(len(probe.push_ns))
    due = log.due_by(m.wall_elapsed_ns)
    batches = [b for _, b in sink.batches]
    verdict = gate.check_run(
        batches, [(a.src, a.dst) for a in pushed], [a.size for a in pushed], m, must_drain=False
    )
    ledger.record(f"paced:{arch}:{rate}", verdict)
    lateness = [(t - start_ns - a.arrival_ns) / 1000.0 for t, a in zip(probe.push_ns, pushed)]
    run = PacedRun(
        arch=arch, rate=rate, wall_s=m.wall_elapsed_ns / 1e9, allocated=m.allocated_slots,
        batches=len(batches),
        slot_clock_ratio=len(batches) * cfg.batch_size * cfg.slot_ns / m.wall_elapsed_ns,
        overloaded=m.overloaded, pushed=len(pushed), due=len(due), refusals=probe.refusals,
        lateness_us=lateness, reference_s=reference, steal_share=stolen,
    )
    if rate == "light":
        run.latency_us = [v / 1000.0 for v in completion_latencies_ns(due, sink.batches, start_ns)]
        p90 = nearest_rank(sorted(run.latency_us), 0.9)
        if m.overloaded or math.isinf(p90):
            ledger.fail_precondition(
                f"paced:{arch}:light",
                f"light rate was not light (overloaded={m.overloaded}, p90={p90})",
            )
    else:
        due_slots = sum(a.size for a in due)
        run.saturated = due_slots - m.allocated_slots > SATURATION_SHARE * due_slots
        if not run.saturated:
            ledger.fail_precondition(
                f"paced:{arch}:overload",
                f"overload rate did not saturate ({m.allocated_slots} of {due_slots} slots served)",
            )
    return run


# ---------------------------------------------------------------------------
# One pass over a workload
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    setup_s: List[float]
    replay: ReplayOutcome
    paced: Dict[Tuple[str, str], List[PacedRun]]

    def figures(self) -> Dict[str, float]:
        """Every end-to-end figure: medians over replay rounds and paced repeats."""
        values: Dict[str, float] = {"setup_s": statistics.median(self.setup_s)}
        for name, samples in self.replay.samples.items():
            values[f"{name}.replay_slots_per_s"] = statistics.median(s.slots / s.wall_s for s in samples)
            values[f"{name}.replay_slots_per_ref_loop"] = statistics.median(
                s.slots * s.reference_s / s.wall_s for s in samples
            )
        for (arch, rate), runs in self.paced.items():
            if rate == "light":
                per_run = [sorted(run.latency_us or []) for run in runs]
                values[f"{arch}.latency_p50_us"] = statistics.median(nearest_rank(v, 0.5) for v in per_run)
                values[f"{arch}.latency_p90_us"] = statistics.median(nearest_rank(v, 0.9) for v in per_run)
            else:
                values[f"{arch}.overload_goodput_slots_per_s"] = statistics.median(run.goodput for run in runs)
        return {name: values[name] for name, _, _ in figure_names()}

    def e2e(self) -> Dict[str, float]:
        figures = self.figures()
        return {name: figures[name] for name in e2e_names()}

    def summary(self) -> Dict[str, object]:
        return {
            "setup_s": self.setup_s,
            "replay": self.replay.summary(),
            "paced": {
                f"{arch}.{rate}": [run.summary() for run in runs]
                for (arch, rate), runs in self.paced.items()
            },
        }


def run_pass(
    family: Family, seed: int, seconds: float, ledger: gate.Ledger, scratch_dir: str,
    on_phase: Callable[[str], None] = lambda phase: None,
    on_replayed: Callable[[int, int], None] = lambda slots, demands: None,
) -> Pass:
    """Set up, then alternate replay rounds with paced runs for ``seconds``.

    Interleaving spreads both phases over the whole pass, so slow drift in
    the host's speed reaches every metric alike instead of one phase.
    """
    csv_path = os.path.join(scratch_dir, f"trace-{family.name}-{seed}-{os.getpid()}.csv")
    arrivals, setup_s_values = set_up(family, seed, csv_path, on_phase)
    replayer = Replayer(arrivals, family.num_nodes, ledger, on_phase, on_replayed)
    configs = paced_configs(family.num_nodes)
    archs = list(configs)
    # each rate's repeats are spread evenly over the pass, and the
    # architecture order rotates per repeat
    slots = [
        ((repeat + 0.5) / PACED_REPEATS[rate], rate, archs[repeat % len(archs):] + archs[:repeat % len(archs)])
        for rate in PACED_RATES
        for repeat in range(PACED_REPEATS[rate])
    ]
    tasks = [(rate, arch) for _, rate, order in sorted(slots) for arch in order]
    replay_budget = seconds * TIME_SHARE["replay"]
    run_s: Dict[str, float] = {}
    logs: Dict[str, Tuple[wl.WorkloadSpec, ArrivalLog]] = {}
    for rate in PACED_RATES:
        run_s[rate] = max(0.5, seconds * TIME_SHARE[rate] / (PACED_REPEATS[rate] * len(archs)))
        demands_per_s = family.light_rate if rate == "light" else family.overload_rate
        spec = paced_spec(family, seed, demands_per_s, run_s[rate])
        logs[rate] = (spec, ArrivalLog(spec))
    paced: Dict[Tuple[str, str], List[PacedRun]] = {}
    for index, (rate, arch) in enumerate(tasks):
        while replayer.rounds == 0 or replayer.busy_s < replay_budget * (index + 1) / (len(tasks) + 1):
            replayer.round()
        spec, log = logs[rate]
        on_phase(f"paced:{arch}:{rate}")
        paced.setdefault((arch, rate), []).append(
            paced_run(arch, configs[arch], spec, rate, run_s[rate], log, ledger)
        )
    while replayer.busy_s < replay_budget:
        replayer.round()
    on_phase("idle")
    return Pass(setup_s_values, replayer.outcome, paced)
