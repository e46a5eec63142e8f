"""Reference allocator and output verifiers.

This module is the ground truth the architectures are checked against.  It
trades speed for obviousness: slot occupancy is tracked with per-slot sets of
used sources and destinations, and allocation is a plain sequential scan over
an explicit demand order supplied by the caller.  Nothing here shares code
with the bitmap kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .model import AdmittedBatch, AllocationMode, Demand


@dataclass(frozen=True)
class CapacityViolation:
    slot: int
    node: int
    role: str

    def __str__(self) -> str:
        return f"node {self.node} used twice as {self.role} in slot {self.slot}"


@dataclass(frozen=True)
class MaximalityWitness:
    demand: Demand
    slot: int


class OracleState:
    """Per-slot used-source / used-destination sets for one batch."""

    def __init__(self, batch_size: int) -> None:
        self.batch_size = batch_size
        self.used_src: List[Set[int]] = [set() for _ in range(batch_size)]
        self.used_dst: List[Set[int]] = [set() for _ in range(batch_size)]

    def free_offsets(self, src: int, dst: int) -> List[int]:
        return [
            j
            for j in range(self.batch_size)
            if src not in self.used_src[j] and dst not in self.used_dst[j]
        ]

    def take(self, src: int, dst: int, offset: int) -> None:
        self.used_src[offset].add(src)
        self.used_dst[offset].add(dst)


def oracle_allocate(
    ordered: Sequence[Demand],
    batch_size: int,
    mode: AllocationMode = AllocationMode.BATCH,
    base_slot: int = 1,
) -> Tuple[AdmittedBatch, List[Demand]]:
    """Textbook sequential greedy over an explicit demand order.

    BATCH mode: each demand takes as many free slots as it can (up to the
    batch width) in one visit, then its survivor joins the remainders.
    PER_SLOT mode mirrors the kernel's extra lists: one slot per visit, the
    survivor parks in the extra list of that slot, and the extra lists drain
    in ascending slot order afterwards; survivors that still hold slots flush
    last, in extra order.  Remainders come back in that exact flow order.
    """
    state = OracleState(batch_size)
    edges: List[Tuple[int, int, int]] = []
    remainders: List[Demand] = []

    if mode is AllocationMode.BATCH:
        for demand in ordered:
            free = state.free_offsets(demand.src, demand.dst)[: demand.remaining]
            if not free:
                remainders.append(demand)
                continue
            for offset in free:
                state.take(demand.src, demand.dst, offset)
                edges.append((offset, demand.src, demand.dst))
            left = demand.remaining - len(free)
            if left > 0:
                remainders.append(Demand(demand.src, demand.dst, left, base_slot + free[-1]))
        return AdmittedBatch(base_slot, batch_size, tuple(edges)), remainders

    extra: List[List[Demand]] = [[] for _ in range(batch_size)]

    def one_slot(demand: Demand) -> Optional[Demand]:
        free = state.free_offsets(demand.src, demand.dst)
        if not free:
            return demand
        offset = free[0]
        state.take(demand.src, demand.dst, offset)
        edges.append((offset, demand.src, demand.dst))
        if demand.remaining > 1:
            extra[offset].append(
                Demand(demand.src, demand.dst, demand.remaining - 1, base_slot + offset)
            )
        return None

    for demand in ordered:
        leftover = one_slot(demand)
        if leftover is not None:
            remainders.append(leftover)
    flush: List[Demand] = []
    for offset in range(batch_size):
        pos = 0
        while pos < len(extra[offset]):
            demand = extra[offset][pos]
            pos += 1
            leftover = one_slot(demand)
            if leftover is not None:
                flush.append(leftover)
        extra[offset] = []
    remainders.extend(flush)
    return AdmittedBatch(base_slot, batch_size, tuple(edges)), remainders


def verify_admitted(batch: AdmittedBatch) -> Optional[CapacityViolation]:
    """Check per-slot per-role uniqueness claim by claim: the first clash in
    edge order (lowest offset, source role first), or None if the batch is valid."""
    used_src: Dict[int, int] = {}
    used_dst: Dict[int, int] = {}
    for row, mask in zip(batch.rows, batch.masks):
        src, dst = row[0], row[1]
        held_src, held_dst = used_src.get(src, 0), used_dst.get(dst, 0)
        clash = mask & (held_src | held_dst)
        if clash:
            low = clash & -clash
            slot = batch.base_slot + low.bit_length() - 1
            if held_src & low:
                return CapacityViolation(slot, src, "src")
            return CapacityViolation(slot, dst, "dst")
        used_src[src] = held_src | mask
        used_dst[dst] = held_dst | mask
    return None


def verify_maximal(
    batch: AdmittedBatch, remainders: Iterable[Demand], batch_size: int
) -> Optional[MaximalityWitness]:
    """A remainder with a slot free at both endpoints disproves maximality."""
    state = OracleState(batch_size)
    for offset, src, dst in batch.edges:
        state.take(src, dst, offset)
    for demand in remainders:
        free = state.free_offsets(demand.src, demand.dst)
        if free:
            return MaximalityWitness(demand, batch.base_slot + free[0])
    return None


def bin_index(last_alloc: int, current: int, num_bins: int = 32) -> int:
    """Coarse LRU bin for a demand: larger allocation gap, higher priority.

    bin = (num_bins - 1) - min(gap, num_bins - 1), so a just-allocated demand
    (gap 0) lands in the lowest-priority bin and anything starved for at
    least num_bins - 1 slots lands in bin 0.
    """
    gap = current - last_alloc
    if gap < 0:
        raise ValueError(f"last_alloc {last_alloc} is ahead of current {current}")
    top = num_bins - 1
    return top - min(gap, top)


def canonical_order(pending: Sequence[Demand], current: int, num_bins: int = 32) -> List[Demand]:
    """The system-wide LRU drain order: stable sort by coarse bin index."""
    return sorted(pending, key=lambda d: bin_index(d.last_alloc, current, num_bins))


def oracle_replay(
    arrivals: Sequence[Tuple[int, Demand]],
    batch_size: int,
    mode: AllocationMode = AllocationMode.BATCH,
    slot_ns: int = 1200,
    num_bins: int = 32,
    max_batches: int = 100_000,
) -> Tuple[List[AdmittedBatch], List[Demand]]:
    """Single-lane reference run over a timed arrival sequence.

    ``arrivals`` holds (arrival_ns, demand) in arrival order.  Per batch, the
    demands released by the batch's start time join the previous remainders
    (remainders first), the whole set is stably sorted into LRU order and fed
    to ``oracle_allocate``.  Runs until drained or ``max_batches``.
    """
    batches: List[AdmittedBatch] = []
    pending: List[Demand] = []
    base = 1
    cursor = 0
    for _ in range(max_batches):
        release_ns = (base - 1) * slot_ns
        while cursor < len(arrivals) and arrivals[cursor][0] <= release_ns:
            pending.append(arrivals[cursor][1])
            cursor += 1
        if not pending and cursor >= len(arrivals):
            break
        ordered = canonical_order(pending, base, num_bins)
        batch, pending = oracle_allocate(ordered, batch_size, mode, base)
        batches.append(batch)
        base += batch_size
    return batches, pending
