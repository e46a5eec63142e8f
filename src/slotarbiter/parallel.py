"""Parallel allocation: every lane works the same batch, then reconcile.

Lanes hold private bitmaps and their own pending demand rows; incoming rows
are dealt round-robin to the lanes and stay in their lane for life.  Each
batch a lane puts its pending set in the system-wide LRU order
(``kernel.lru_order``, the order the oracle's ``canonical_order`` sorts
into) and claims slots for all of it in one ``kernel.allocate_slots`` pass,
whose per-demand claim masks become the lane's allocation records.
Because the bitmaps are private, two lanes can admit edges that contend on a
source or destination; the reconciliation stage works on the claim masks:
the lowest lane that claimed a (slot, role, node) wins it, and a record
keeps only the offsets no lower lane claimed for its source or destination.
Cancelled slots are restored to their demands, whose rows re-enter the
lane's pending set with the last-allocation key rolled back, so nothing is
ever lost.

All lanes advance to the next batch together.  ``ParallelRound`` is the
engine (``engine.py``) over them: ``admit`` deals demands round-robin to the
lanes, and ``emit`` runs every lane's allocation, the reconciliation and
every lane's absorb for one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import BatchSink, replay
from .kernel import allocate_slots, lru_order
from .model import AdmittedBatch, BatchBitmaps, Config, DemandRow, RunResult
from .workload import Arrival

Edge = Tuple[int, int, int]  # (slot_offset, src, dst)


@dataclass(slots=True)
class AllocationRecord:
    """Per-demand outcome of one lane's batch, kept for post-hoc cancellation.

    ``mask`` holds the offsets the lane claimed and ``left`` the remaining
    count after the claim; ``kept`` is the part of ``mask`` that stood,
    which ``reconcile`` sets.
    """

    src: int
    dst: int
    mask: int
    prev_last_alloc: int
    left: int
    kept: int


@dataclass
class LaneAdmission:
    """One lane's fragment for the batch being reconciled.

    ``edges`` are the lane's claims, in record order and then ascending
    offset: the expansion of the records' masks.
    """

    lane_id: int
    base_slot: int
    batch_size: int
    edges: List[Edge]
    records: List[AllocationRecord]


@dataclass
class ReconcileResult:
    final: AdmittedBatch
    cancelled: int


def reconcile(fragments: Sequence[LaneAdmission]) -> ReconcileResult:
    """Cancel contending claims: the lowest lane that claimed a (slot, role,
    node) wins it, even when its own edge loses the other role.

    Walking the fragments in lane order, a record keeps the offsets of its
    claim mask that no lower lane claimed for its source or its destination,
    and sets ``kept`` to them; a consistent fragment set therefore passes
    through unchanged.  ``final`` holds the kept edges in lane order, then
    record order, then ascending offset.  Fragments must all target the same
    base slot.
    """
    if not fragments:
        raise ValueError("reconcile needs at least one fragment")
    base = fragments[0].base_slot
    width = fragments[0].batch_size
    if any(f.base_slot != base for f in fragments):
        raise ValueError("fragments target different base slots")

    taken_src: Dict[int, int] = {}  # node -> OR of lower lanes' claims
    taken_dst: Dict[int, int] = {}
    final: List[Edge] = []
    claimed = 0
    for frag in sorted(fragments, key=attrgetter("lane_id")):
        claimed += len(frag.edges)
        whole = True
        for rec in frag.records:
            src = rec.src
            dst = rec.dst
            mask = rec.mask
            on_src = taken_src.get(src, 0)
            on_dst = taken_dst.get(dst, 0)
            kept = rec.kept = mask & ~(on_src | on_dst)
            if kept != mask:
                whole = False
            taken_src[src] = on_src | mask
            taken_dst[dst] = on_dst | mask
        if whole:
            final.extend(frag.edges)
            continue
        for rec in frag.records:
            bits = rec.kept
            while bits:
                low = bits & -bits
                final.append((low.bit_length() - 1, rec.src, rec.dst))
                bits ^= low

    return ReconcileResult(AdmittedBatch(base, width, tuple(final)), claimed - len(final))


def apply_cancellations(
    base_slot: int, records: Sequence[AllocationRecord]
) -> Tuple[List[DemandRow], int, int]:
    """Rebuild a lane's surviving demand rows from its reconciled records.

    The revoked offsets are those of ``mask`` outside ``kept``: remaining
    grows by their count, and last_alloc points to the last kept slot (or
    rolls back to its pre-batch value when everything was revoked).
    Returns (requeue, revoked_slots, kept_slots).
    """
    requeue: List[DemandRow] = []
    revoked_total = 0
    kept_total = 0
    for rec in records:
        kept = rec.kept
        granted = kept.bit_count()
        revoked = rec.mask.bit_count() - granted
        revoked_total += revoked
        kept_total += granted
        remaining = rec.left + revoked
        if remaining == 0:
            continue
        last_alloc = base_slot + kept.bit_length() - 1 if kept else rec.prev_last_alloc
        requeue.append((rec.src, rec.dst, remaining, last_alloc))
    return requeue, revoked_total, kept_total


class Lane:
    """One allocation lane: private bitmaps, private pending set.

    The lane defers its survivors to ``absorb``: their rows are rebuilt from
    the allocation records once reconciliation has decided which slots
    actually stood, so a demand is never live twice.
    """

    def __init__(self, lane_id: int, cfg: Config) -> None:
        self.lane_id = lane_id
        self.cfg = cfg
        self.pending: List[DemandRow] = []
        self.last_records: List[AllocationRecord] = []
        self.allocated_slots = 0
        self.drained = 0
        self.cancelled_slots = 0

    def allocate(self, base_slot: int) -> LaneAdmission:
        """Greedy batch-style pass over the pending set in LRU order."""
        ordered = lru_order(self.pending, base_slot)
        bitmaps = BatchBitmaps(self.cfg.num_nodes, self.cfg.batch_size)
        edges: List[Edge] = []
        masks = allocate_slots(bitmaps, ordered, edges)
        records: List[AllocationRecord] = []
        unserved: List[DemandRow] = []
        for demand, mask in zip(ordered, masks):
            if mask:
                src, dst, remaining, last_alloc = demand
                records.append(
                    AllocationRecord(src, dst, mask, last_alloc, remaining - mask.bit_count(), mask)
                )
            else:
                unserved.append(demand)
        self.drained += len(ordered)
        self.pending = unserved
        self.last_records = records
        return LaneAdmission(self.lane_id, base_slot, self.cfg.batch_size, edges, records)

    def absorb(self, base_slot: int) -> None:
        requeue, revoked, kept = apply_cancellations(base_slot, self.last_records)
        self.pending.extend(requeue)
        self.allocated_slots += kept
        self.cancelled_slots += revoked
        self.last_records = []

    def pending_slots(self) -> int:
        return sum(d[2] for d in self.pending)


class ParallelRound:
    """The lanes and the round that moves them all one batch on."""

    def __init__(self, cfg: Config) -> None:
        self.batch = cfg.batch_size
        self.lanes = [Lane(i, cfg) for i in range(cfg.lanes)]
        self.next_base = 1
        self.allocated_slots = 0
        self._rr = 0

    def admit(self, demands: Sequence[DemandRow]) -> bool:
        """Deal ``demands`` round-robin to the lanes' pending sets."""
        lanes = self.lanes
        for demand in demands:
            lanes[self._rr % len(lanes)].pending.append(demand)
            self._rr += 1
        return any(lane.pending for lane in lanes)

    def emit(self) -> List[AdmittedBatch]:
        """Every lane allocates batch ``next_base``, reconcile, every lane absorbs."""
        base = self.next_base
        result = reconcile([lane.allocate(base) for lane in self.lanes])
        for lane in self.lanes:
            lane.absorb(base)
        self.allocated_slots += len(result.final.edges)
        self.next_base += self.batch
        return [result.final]

    def close(self) -> List[AdmittedBatch]:
        return []

    @property
    def cancelled_slots(self) -> int:
        return sum(lane.cancelled_slots for lane in self.lanes)

    def pending_slots(self) -> int:
        return sum(lane.pending_slots() for lane in self.lanes)

    def counters(self) -> Dict[str, object]:
        return {
            "drained": [lane.drained for lane in self.lanes],
            "allocated": [lane.allocated_slots for lane in self.lanes],
            "cancelled": [lane.cancelled_slots for lane in self.lanes],
        }


def run_parallel_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_batches: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Replay a trace through a ``ParallelRound`` (see ``engine.replay``)."""
    return replay(ParallelRound(cfg), cfg, arrivals, max_batches, sink)
