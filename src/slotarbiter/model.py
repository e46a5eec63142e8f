"""Shared domain model for the timeslot-allocation arbiter.

Everything here is plain data: node ids, demands, per-batch availability
bitmaps, admitted batches (one claim mask per served row, with per-slot
edges built on demand), run configuration and run metrics.  The types are
immutable (or single-owner, in the case of bitmaps) so they can be copied or
handed between execution lanes without locks; the engines carry demands as
plain ``DemandRow`` tuples, of which a validated ``Demand`` is one.

Slot numbering convention: logical timeslots are counted from 1.  A
``last_alloc`` of 0 means "never allocated" and sorts as maximally starved
under the LRU priority policy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

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


class DemandRow(NamedTuple):
    """The fields of a demand; the engines carry them as plain tuples."""

    src: int
    dst: int
    remaining: int
    last_alloc: int = NEVER_ALLOCATED


class Demand(DemandRow):
    """An outstanding (src, dst) request for ``remaining`` timeslots: a
    validated row, equal to the plain tuple of its four fields.

    ``last_alloc`` is the absolute index of the last timeslot granted to this
    pair and doubles as the LRU priority key (0 = never allocated).
    """

    __slots__ = ()

    def __new__(cls, src: int, dst: int, remaining: int, last_alloc: int = NEVER_ALLOCATED):
        self = tuple.__new__(cls, (src, dst, remaining, last_alloc))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"demand with src == dst == {self.src}")
        if self.remaining < 1:
            raise ValueError(f"demand must request at least 1 slot, got {self.remaining}")


Edge = Tuple[int, int, int]  # (slot_offset, src, dst), or (absolute_slot, src, dst)

#: ``_OFFSETS[lane][byte]``: the offsets of the set bits of ``byte`` in byte
#: lane ``lane`` of a mask (bit j of the byte is offset 8 * lane + j), ascending.
_OFFSETS = tuple(tuple(tuple(8 * lane + j for j in range(8) if byte >> j & 1) for byte in range(256))
                 for lane in range(8))


class AdmittedBatch:
    """The claims admitted for one batch of consecutive timeslots.

    A claim is a row whose first two fields are a src and a dst, and a mask
    whose bit j is offset j in [0, batch_size), timeslot ``base_slot + j``.
    The engines use ``from_claims``; ``AdmittedBatch(base_slot, batch_size,
    edges)`` makes one claim per ``(slot_offset, src, dst)`` edge.  ``edges``
    is built on first read, in claim order and then ascending offset, from
    ``_OFFSETS``.  ``len`` is a popcount; batches compare by their edges.
    """

    __slots__ = ("base_slot", "batch_size", "rows", "masks", "_edges")

    def __init__(self, base_slot: int, batch_size: int, edges: Tuple[Edge, ...]) -> None:
        self.base_slot, self.batch_size, self._edges = base_slot, batch_size, edges
        self.rows: Sequence[Sequence[int]] = [edge[1:] for edge in edges]
        self.masks: Sequence[int] = [1 << edge[0] for edge in edges]

    @classmethod
    def from_claims(cls, base_slot: int, batch_size: int, rows: Sequence[Sequence[int]],
                    masks: Sequence[int]) -> "AdmittedBatch":
        batch = cls(base_slot, batch_size, ())
        batch.rows, batch.masks, batch._edges = rows, masks, None
        return batch

    @property
    def edges(self) -> Tuple[Edge, ...]:
        if self._edges is None:
            first = _OFFSETS[0]
            self._edges = tuple([(o, row[0], row[1]) for row, mask in zip(self.rows, self.masks)
                                 for o in (first[mask] if mask < 256 else [
                                     j for lane in range((mask.bit_length() + 7) >> 3)
                                     for j in _OFFSETS[lane][mask >> 8 * lane & 255]])])
        return self._edges

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.masks))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AdmittedBatch) and self.base_slot == other.base_slot
                and self.batch_size == other.batch_size and self.edges == other.edges)

    def absolute_edges(self) -> Iterator[Edge]:
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
        return asdict(self)


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
        for name in ("cores", "lanes", "sets"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.mailbox_depth < 1:
            raise ConfigError("mailbox_depth must be >= 1")
        if self.gap_bound < 0:
            raise ConfigError("gap_bound must be >= 0")

    @property
    def slot_ns(self) -> int:
        return timeslot_duration(self.mtu_bytes, self.link_rate_bps)
