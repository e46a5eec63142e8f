"""Synthetic demand workload and trace record/replay.

The stress workload has Poisson arrivals, source and destination drawn
uniformly (src != dst) and a clamped-Gaussian request size.  Sampling is done
in numpy blocks so a stream can keep up with paced runs, and the whole stream
is reproducible from its seed.  Traces round-trip through a small CSV format
with the header ``arrival_ns,src,dst,size_packets``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import Demand

TRACE_HEADER = ["arrival_ns", "src", "dst", "size_packets"]

_BLOCK = 4096


class TraceFormatError(ValueError):
    """Malformed trace row; the message carries the 1-based line number."""


@dataclass(frozen=True, slots=True)
class Arrival:
    """One demand request as it enters the system."""

    arrival_ns: int
    src: int
    dst: int
    size: int


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic demand stream."""

    seed: int
    num_nodes: int
    mean_interarrival_ns: float
    size_mean_packets: float = 10.0
    size_stddev_packets: float = 3.0
    duration_s: float = 5.0
    src_range: Optional[Tuple[int, int]] = None  # half-open [lo, hi)

    def __post_init__(self) -> None:
        if self.mean_interarrival_ns <= 0:
            raise ValueError("mean_interarrival_ns must be positive")
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        if self.src_range is not None:
            lo, hi = self.src_range
            if not (0 <= lo < hi <= self.num_nodes):
                raise ValueError(f"bad src_range {self.src_range}")

    def offered_load_bps(self, mtu_bytes: int) -> float:
        """Mean offered load of this stream in bits/second."""
        return self.size_mean_packets * mtu_bytes * 8 * 1e9 / self.mean_interarrival_ns


class WorkloadStream:
    """Reproducible arrival stream; iterate or pull blocks with ``take``."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
        self._clock_ns = 0.0
        self._buffer: List[Arrival] = []
        self._pos = 0

    def _refill(self) -> None:
        spec = self.spec
        rng = self._rng
        deltas = rng.exponential(spec.mean_interarrival_ns, _BLOCK)
        sizes = np.rint(rng.normal(spec.size_mean_packets, spec.size_stddev_packets, _BLOCK))
        np.clip(sizes, 1, None, out=sizes)
        if spec.src_range is not None:
            lo, hi = spec.src_range
            srcs = rng.integers(lo, hi, _BLOCK)
        else:
            srcs = rng.integers(0, spec.num_nodes, _BLOCK)
        dsts = rng.integers(0, spec.num_nodes, _BLOCK)
        clash = dsts == srcs
        while clash.any():
            dsts[clash] = rng.integers(0, spec.num_nodes, int(clash.sum()))
            clash = dsts == srcs
        times = self._clock_ns + np.cumsum(deltas)
        self._clock_ns = float(times[-1])
        self._buffer = [
            Arrival(int(t), int(s), int(d), int(z))
            for t, s, d, z in zip(times, srcs, dsts, sizes)
        ]
        self._pos = 0

    def next_arrival(self) -> Arrival:
        if self._pos >= len(self._buffer):
            self._refill()
        arrival = self._buffer[self._pos]
        self._pos += 1
        return arrival

    def peek(self) -> Arrival:
        if self._pos >= len(self._buffer):
            self._refill()
        return self._buffer[self._pos]

    def take(self, count: int) -> List[Arrival]:
        return [self.next_arrival() for _ in range(count)]

    def __iter__(self) -> Iterator[Arrival]:
        while True:
            yield self.next_arrival()


class ArrivalCursor:
    """Releases a trace's arrivals as demands, in arrival-time order.

    The sort is stable, so arrivals stamped with the same time keep their
    trace order.
    """

    def __init__(self, arrivals: Sequence[Arrival]) -> None:
        self._ordered = sorted(arrivals, key=lambda a: a.arrival_ns)
        self._pos = 0

    def release(self, until_ns: int) -> List[Demand]:
        """Every not yet released arrival due at or before ``until_ns``."""
        released: List[Demand] = []
        ordered = self._ordered
        while self._pos < len(ordered) and ordered[self._pos].arrival_ns <= until_ns:
            a = ordered[self._pos]
            released.append(Demand(a.src, a.dst, a.size))
            self._pos += 1
        return released

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._ordered)


def shard_range(num_nodes: int, shard: int, num_shards: int) -> Tuple[int, int]:
    """Half-open source range of ``shard`` when the sources are cut into
    ``num_shards`` contiguous slices."""
    return (
        (shard * num_nodes + num_shards - 1) // num_shards,
        ((shard + 1) * num_nodes + num_shards - 1) // num_shards,
    )


def shard_of(src: int, num_nodes: int, num_shards: int) -> int:
    """The shard whose ``shard_range`` holds ``src``."""
    return min(src * num_shards // num_nodes, num_shards - 1)


def shard_spec(spec: WorkloadSpec, shard: int, num_shards: int) -> WorkloadSpec:
    """Per-shard sub-stream: a slice of the source space, 1/K of the load.

    Each shard draws from an independent sub-seed derived from the master
    seed, and its interarrival mean is scaled so the shards jointly offer the
    same load as the single-stream spec.
    """
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard {shard} out of range [0, {num_shards})")
    sub_seed = int(np.random.SeedSequence([spec.seed, shard]).generate_state(1)[0])
    return replace(
        spec,
        seed=sub_seed,
        mean_interarrival_ns=spec.mean_interarrival_ns * num_shards,
        src_range=shard_range(spec.num_nodes, shard, num_shards),
    )


def mean_t_for_load(
    load_fraction: float,
    num_nodes: int,
    link_rate_bps: float,
    mtu_bytes: int,
    size_mean_packets: float = 10.0,
) -> float:
    """Interarrival mean (ns) that offers ``load_fraction`` of total capacity."""
    if load_fraction <= 0:
        raise ValueError("load_fraction must be positive")
    offered_bps = load_fraction * num_nodes * link_rate_bps
    demands_per_s = offered_bps / (size_mean_packets * mtu_bytes * 8)
    return 1e9 / demands_per_s


def record_trace(arrivals: Sequence[Arrival], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for a in arrivals:
            writer.writerow([a.arrival_ns, a.src, a.dst, a.size])


def replay_trace(path: str) -> List[Arrival]:
    """Load a trace CSV; raises TraceFormatError with the offending line.

    Rows must name two distinct non-negative node ids and a size of at least
    one packet.  Whether the ids fit a node count is the caller's to check.
    """
    arrivals: List[Arrival] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return arrivals
        if [h.strip() for h in header] != TRACE_HEADER:
            raise TraceFormatError(f"line 1: expected header {','.join(TRACE_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceFormatError(f"line {lineno}: expected 4 columns, got {len(row)}")
            try:
                arrival = Arrival(int(row[0]), int(row[1]), int(row[2]), int(row[3]))
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            if not 0 <= arrival.src != arrival.dst >= 0 < arrival.size:
                raise TraceFormatError(
                    f"line {lineno}: need src != dst, both >= 0, and size_packets >= 1; "
                    f"got src {arrival.src}, dst {arrival.dst}, size_packets {arrival.size}"
                )
            arrivals.append(arrival)
    return arrivals
