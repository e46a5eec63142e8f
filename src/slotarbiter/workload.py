"""Synthetic demand workload and trace record/replay.

The stress workload has Poisson arrivals, source and destination drawn
uniformly (src != dst) and a clamped-Gaussian request size.  Sampling is done
in numpy blocks so a stream can keep up with paced runs, and the whole stream
is reproducible from its seed.

Traces round-trip through a small CSV format: the header
``arrival_ns,src,dst,size_packets``, then one row of four int fields per
arrival, every line ended by ``\r\n`` as ``csv.writer`` ends it.  A file that
is exactly what ``record_trace`` writes (canonical) is loaded a column at a
time.  Any other file, such as one hand-edited or saved with LF line ends,
goes through the row loop, which accepts what ``csv.reader`` and ``int()``
accept and is the only source of the line-numbered ``TraceFormatError``.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import NEVER_ALLOCATED, Demand, DemandRow

TRACE_HEADER = ["arrival_ns", "src", "dst", "size_packets"]

_HEADER_LINE = ",".join(TRACE_HEADER) + "\r\n"

_BLOCK = 4096


class TraceFormatError(ValueError):
    """Malformed trace row; the message carries the 1-based line number."""


class Arrival(NamedTuple):
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


class WorkloadStream:
    """Reproducible arrival stream; pull arrivals one at a time or in blocks
    with ``take``."""

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
        # astype truncates toward zero, like int()
        self._buffer = _arrivals(
            times.astype(np.int64).tolist(),
            srcs.tolist(),
            dsts.tolist(),
            sizes.astype(np.int64).tolist(),
        )
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
        taken: List[Arrival] = []
        while len(taken) < count:
            if self._pos >= len(self._buffer):
                self._refill()
            end = min(len(self._buffer), self._pos + count - len(taken))
            taken += self._buffer[self._pos : end]
            self._pos = end
        return taken


def _arrivals(*columns: List[int]) -> List[Arrival]:
    """One ``Arrival`` per row of four equal-length columns, built without a
    Python frame per arrival."""
    return list(map(tuple.__new__, repeat(Arrival), zip(*columns)))


class ArrivalCursor:
    """Releases a trace's arrivals as ``(src, dst, size, 0)`` rows, by arrival time.

    The sort is stable, so arrivals stamped with the same time keep their
    trace order.  Building the cursor checks every arrival once, raising the
    ValueError its ``Demand`` would raise, or one naming the first arrival
    with a node outside ``[0, num_nodes)``.
    """

    def __init__(self, arrivals: Sequence[Arrival], num_nodes: int) -> None:
        ordered = sorted(arrivals, key=attrgetter("arrival_ns"))
        self._rows: List[DemandRow] = [(a.src, a.dst, a.size, NEVER_ALLOCATED) for a in ordered]
        bad = next((row for row in self._rows if row[0] == row[1] or row[2] < 1
                    or not (0 <= row[0] < num_nodes and 0 <= row[1] < num_nodes)), None)
        if bad is not None:
            Demand(*bad)  # raises, unless only a node is out of range
            arrival = ordered[self._rows.index(bad)]
            raise ValueError(f"{arrival} names a node outside [0, {num_nodes})")
        self._times = [a.arrival_ns for a in ordered]
        self._total = sum(map(itemgetter(2), self._rows))
        self._pos = 0

    def release(self, until_ns: int) -> List[DemandRow]:
        """Every not yet released arrival due at or before ``until_ns``."""
        start = self._pos
        self._pos = bisect_right(self._times, until_ns, start)
        return self._rows[start : self._pos]

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._rows)

    @property
    def released_slots(self) -> int:
        """Total size of every arrival released so far.  Read in O(1) once
        the cursor is exhausted, which is when ``engine.replay`` reads it;
        before that it sums the released rows."""
        if self.exhausted:
            return self._total
        return sum(map(itemgetter(2), self._rows[: self._pos]))


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


def _render(arrivals: Sequence[Arrival]) -> str:
    """The trace rows of ``arrivals``, byte for byte as ``csv.writer`` writes
    int fields."""
    return ("%d,%d,%d,%d\r\n" * len(arrivals)) % tuple(chain.from_iterable(arrivals))


def record_trace(arrivals: Sequence[Arrival], path: str) -> None:
    """Write ``arrivals`` as a trace CSV; every field must be an int."""
    with open(path, "w", newline="") as fh:
        fh.write(_HEADER_LINE + _render(arrivals))


def replay_trace(path: str) -> List[Arrival]:
    """Load a trace CSV; raises TraceFormatError with the offending line.

    Rows must name two distinct non-negative node ids and a size of at least
    one packet.  Whether the ids fit a node count is the caller's to check.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    if text.startswith(_HEADER_LINE):
        arrivals = _canonical_arrivals(text[len(_HEADER_LINE):])
        if arrivals is not None:
            return arrivals
    return _replay_rows(text)


def _canonical_arrivals(body: str) -> Optional[List[Arrival]]:
    """The arrivals of a valid body that ``_render`` would write, or None.

    None sends the body to the row loop, the only place that names a bad
    line.  ``loadtxt`` reads spaces, ``+`` and leading zeros, and some numpy
    versions read ``1.0`` as an int; ``_render`` writes none of these, so a
    body that re-renders to itself parses, row for row, as the row loop
    parses it.
    """
    if not body or body[0] not in "-0123456789":  # loadtxt warns on a body without data
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 4:
        return None
    src, dst, size = table[:, 1], table[:, 2], table[:, 3]
    if src.min() < 0 or dst.min() < 0 or size.min() < 1 or (src == dst).any():
        return None
    arrivals = _arrivals(*(column.tolist() for column in table.T))
    return arrivals if _render(arrivals) == body else None


def _replay_rows(text: str) -> List[Arrival]:
    """Parse a trace a row at a time, as ``csv.reader`` splits ``text``; the
    source of every ``TraceFormatError``."""
    arrivals: List[Arrival] = []
    reader = csv.reader(io.StringIO(text, newline=""))
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
