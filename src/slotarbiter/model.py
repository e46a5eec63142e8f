"""Shared domain model for the timeslot-allocation arbiter.

Everything here is plain data: node ids, demands, per-batch availability
bitmaps, admitted batches, run configuration and run metrics.  The types are
immutable (or single-owner, in the case of bitmaps) so they can be copied or
handed between execution lanes without locks.

Slot numbering convention: logical timeslots are counted from 1.  A
``last_alloc`` of 0 means "never allocated" and sorts as maximally starved
under the LRU priority policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Tuple

NEVER_ALLOCATED = 0

#: Batch sizes the stress benchmarks sweep over.  1 is permitted as the
#: degenerate single-slot batch used by the small matching examples.
VALID_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)


class ConfigError(ValueError):
    """Invalid configuration value (zero rate, bad batch size, ...)."""


class Architecture(Enum):
    PIPELINED = "pipelined"
    PARALLEL = "parallel"
    SHUFFLE = "shuffle"


class AllocationMode(Enum):
    """How much of a batch a drained demand may claim in one visit.

    PER_SLOT gives one timeslot per drain and parks the survivor in the
    allocator's extra lists; BATCH gives up to a full batch in one visit and
    emits the survivor immediately.
    """

    PER_SLOT = "per-slot"
    BATCH = "batch"


def timeslot_duration(mtu_bytes: int, link_rate_bps: int) -> int:
    """Nanoseconds to transmit one MTU at line rate, rounded to nearest ns."""
    if mtu_bytes <= 0 or link_rate_bps <= 0:
        raise ConfigError(
            f"mtu_bytes and link_rate_bps must be positive, "
            f"got {mtu_bytes} / {link_rate_bps}"
        )
    return round(mtu_bytes * 8 * 1_000_000_000 / link_rate_bps)


def throughput_bps(allocated_slots: int, mtu_bytes: int, wall_elapsed_ns: int) -> float:
    """Allocation throughput in bits/second over a wall-clock window."""
    if wall_elapsed_ns <= 0:
        raise ValueError(f"wall_elapsed_ns must be positive, got {wall_elapsed_ns}")
    return allocated_slots * mtu_bytes * 8 * 1_000_000_000 / wall_elapsed_ns


@dataclass(frozen=True, slots=True)
class Demand:
    """An outstanding (src, dst) request for ``remaining`` timeslots.

    ``last_alloc`` is the absolute index of the last timeslot granted to this
    pair and doubles as the LRU priority key (0 = never allocated).
    """

    src: int
    dst: int
    remaining: int
    last_alloc: int = NEVER_ALLOCATED

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"demand with src == dst == {self.src}")
        if self.remaining < 1:
            raise ValueError(f"demand must request at least 1 slot, got {self.remaining}")


@dataclass(frozen=True, slots=True)
class AdmittedBatch:
    """Edges admitted for one batch of consecutive timeslots.

    ``edges`` holds (slot_offset, src, dst) with slot_offset in
    [0, batch_size); absolute timeslot = base_slot + slot_offset.
    """

    base_slot: int
    batch_size: int
    edges: Tuple[Tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.edges)

    def absolute_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (absolute_slot, src, dst) for every admitted edge."""
        for offset, src, dst in self.edges:
            yield self.base_slot + offset, src, dst


class BatchBitmaps:
    """Free-slot bitmaps for one batch: one word per node per role.

    Bit j set means the node is free at slot offset j (1 = free).  Source and
    destination roles are independent, so a node may send and receive in the
    same timeslot.  Bits are only ever cleared within a batch.
    """

    __slots__ = ("batch_size", "full", "src", "dst")

    def __init__(self, num_nodes: int, batch_size: int) -> None:
        self.batch_size = batch_size
        self.full = (1 << batch_size) - 1
        self.src = [self.full] * num_nodes
        self.dst = [self.full] * num_nodes

    def claim(self, src: int, dst: int, offset: int) -> None:
        bit = ~(1 << offset)
        self.src[src] &= bit
        self.dst[dst] &= bit


@dataclass
class Metrics:
    """Counters for one run; conservation must hold at quiescence."""

    demanded_slots: int = 0
    allocated_slots: int = 0
    pending_slots: int = 0
    cancelled_then_reissued: int = 0
    wall_elapsed_ns: int = 0
    throughput_bps: float = 0.0
    overloaded: bool = False
    lane_counters: Dict[str, object] = field(default_factory=dict)

    def conservation_ok(self) -> bool:
        return self.demanded_slots == self.allocated_slots + self.pending_slots

    def to_dict(self) -> Dict[str, object]:
        return {
            "demanded_slots": self.demanded_slots,
            "allocated_slots": self.allocated_slots,
            "pending_slots": self.pending_slots,
            "cancelled_then_reissued": self.cancelled_then_reissued,
            "wall_elapsed_ns": self.wall_elapsed_ns,
            "throughput_bps": self.throughput_bps,
            "overloaded": self.overloaded,
            "lane_counters": self.lane_counters,
        }


@dataclass
class RunResult:
    """Outcome of one run: metrics plus any collected admitted batches."""

    metrics: Metrics
    batches: List[AdmittedBatch] = field(default_factory=list)


@dataclass(frozen=True)
class Config:
    """Frozen run configuration shared by every architecture."""

    num_nodes: int
    architecture: Architecture = Architecture.PIPELINED
    mode: AllocationMode = AllocationMode.BATCH
    batch_size: int = 8
    link_rate_bps: int = 10 * 10**9
    mtu_bytes: int = 1500
    cores: int = 1
    lanes: int = 1
    sets: int = 1
    gap_bound: int = 10_000
    mailbox_depth: int = 4096
    bin_capacity: int = 64
    mid_pipeline_ingest: bool = False

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigError(f"num_nodes must be >= 2, got {self.num_nodes}")
        if self.batch_size not in VALID_BATCH_SIZES:
            raise ConfigError(
                f"batch_size must be one of {VALID_BATCH_SIZES}, got {self.batch_size}"
            )
        if self.mtu_bytes <= 0 or self.link_rate_bps <= 0:
            raise ConfigError("mtu_bytes and link_rate_bps must be positive")
        for name in ("cores", "lanes", "sets", "bin_capacity"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.mailbox_depth < 1:
            raise ConfigError("mailbox_depth must be >= 1")
        if self.gap_bound < 0:
            raise ConfigError("gap_bound must be >= 0")

    @property
    def slot_ns(self) -> int:
        return timeslot_duration(self.mtu_bytes, self.link_rate_bps)
