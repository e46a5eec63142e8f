"""Parallel allocation: every lane works the same batch, then reconcile.

Lanes hold private bitmaps and their own pending demand rows; incoming rows
are dealt round-robin to the lanes and stay in their lane for life.  Each
batch a lane puts its pending set in the system-wide LRU order
(``kernel.lru_order``, the order the oracle's ``canonical_order`` sorts
into) and claims slots for all of it in one ``kernel.allocate_slots`` pass.
Its fragment carries what that pass produced: the served rows in pass order,
their claim masks and the lane's bitmaps after the pass.  Because the bitmaps
are private, two lanes can claim slots that contend on a source or
destination; the reconciliation stage works on the masks: the lowest lane
that claimed a (slot, role, node) wins it, and a claim keeps only the
offsets no lower lane claimed for its source or destination.  The batch it
emits is every lane's rows with their kept masks.  Cancelled
slots are restored to their demands, whose rows re-enter the lane's pending
set with the last-allocation key rolled back, so nothing is ever lost.

All lanes advance to the next batch together.  ``ParallelRound`` is the
engine (``engine.py``) over them: ``admit`` deals demands round-robin to the
lanes, and ``emit`` runs every lane's allocation, the reconciliation and
every lane's absorb for one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import BatchSink, replay
from .kernel import allocate_slots, lru_order, settle
from .model import AdmittedBatch, BatchBitmaps, Config, DemandRow, Edge, RunResult
from .workload import Arrival

@dataclass
class LaneAdmission:
    """One lane's fragment for the batch being reconciled.

    ``rows`` are the demands the lane's pass served, in pass order, and
    ``masks`` their claimed offsets; ``bitmaps`` are the lane's rows after
    the pass, the full rows minus exactly those masks.  ``reconcile`` sets
    ``kept``, the part of each mask that stood, only when some claim was
    cut; ``None`` means every claim stood.
    """

    lane_id: int
    base_slot: int
    batch_size: int
    rows: List[DemandRow]
    masks: List[int]
    bitmaps: BatchBitmaps
    kept: Optional[List[int]] = None

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The claims as ``(slot_offset, src, dst)`` edges, built on each read."""
        batch = AdmittedBatch.from_claims(self.base_slot, self.batch_size, self.rows, self.masks)
        return batch.edges


@dataclass
class ReconcileResult:
    final: AdmittedBatch
    cancelled: int


def reconcile(fragments: Sequence[LaneAdmission]) -> ReconcileResult:
    """Cancel contending claims: the lowest lane that claimed a (slot, role,
    node) wins it, even when its own edge loses the other role.

    The lowest lane wins everything it claimed, so its claims pass through
    whole and its free rows start the running "still free" rows.  Each higher
    lane, in lane order, keeps of a claim's mask the offsets still free for
    its source and its destination, then clears the whole mask from the
    running rows.  ``final`` holds every lane's rows with their kept masks,
    in lane order and then row order; ``cancelled`` counts the slots cut.
    Fragments must all target the same base slot.
    """
    if not fragments:
        raise ValueError("reconcile needs at least one fragment")
    base = fragments[0].base_slot
    width = fragments[0].batch_size
    if any(f.base_slot != base for f in fragments):
        raise ValueError("fragments target different base slots")

    first, *rest = sorted(fragments, key=attrgetter("lane_id"))
    out_rows = list(first.rows)
    out_masks = list(first.masks)
    cancelled = 0
    free_src = first.bitmaps.src  # offsets no lower lane claimed, per node
    free_dst = first.bitmaps.dst
    if len(rest) > 1:  # lanes below the top one clear their claims from copies
        free_src = list(free_src)
        free_dst = list(free_dst)
    for i, frag in enumerate(rest, 1):
        rows = frag.rows
        masks = frag.masks
        # a lane's own claims on one node are disjoint, so every claim can be
        # checked before any of the lane's masks is cleared
        kept = [mask & free_src[src] & free_dst[dst] for (src, dst, _, _), mask in zip(rows, masks)]
        if kept != masks:
            frag.kept = kept
            cancelled += sum(map(int.bit_count, masks)) - sum(map(int.bit_count, kept))
        out_rows += rows
        out_masks += kept
        if i < len(rest):  # the top lane's claims bind no later lane
            for (src, dst, _, _), mask in zip(rows, masks):
                free_src[src] &= ~mask
                free_dst[dst] &= ~mask

    return ReconcileResult(AdmittedBatch.from_claims(base, width, out_rows, out_masks), cancelled)


class Lane:
    """One allocation lane: private bitmaps, private pending set.

    The lane defers its served rows to ``absorb``: their survivors are
    rebuilt from the last fragment's rows, masks and ``kept`` once
    reconciliation has decided which slots actually stood, so a demand is
    never live twice.
    """

    def __init__(self, lane_id: int, cfg: Config) -> None:
        self.lane_id = lane_id
        self.cfg = cfg
        self.pending: List[DemandRow] = []
        self.last_admission: Optional[LaneAdmission] = None
        self.allocated_slots = 0
        self.drained = 0
        self.cancelled_slots = 0

    def allocate(self, base_slot: int) -> LaneAdmission:
        """Greedy batch-style pass over the pending set in LRU order."""
        ordered = lru_order(self.pending, base_slot)
        bitmaps = BatchBitmaps(self.cfg.num_nodes, self.cfg.batch_size)
        masks = allocate_slots(bitmaps, ordered)
        self.drained += len(ordered)
        self.pending = [demand for demand, mask in zip(ordered, masks) if not mask]
        self.last_admission = LaneAdmission(
            self.lane_id, base_slot, self.cfg.batch_size,
            list(compress(ordered, masks)), list(filter(None, masks)), bitmaps)
        return self.last_admission

    @property
    def last_records(self) -> List[DemandRow]:
        """The rows the last ``allocate`` served, until ``absorb`` takes them."""
        return self.last_admission.rows if self.last_admission else []

    def absorb(self, base_slot: int) -> None:
        """Requeue the survivors of the last fragment and count its slots.

        A served row is settled on its kept offsets only, so revoked offsets
        are restored, and a row whose every offset was revoked is unchanged.
        """
        frag = self.last_admission
        kept = frag.masks if frag.kept is None else frag.kept
        self.pending += settle(frag.rows, kept, base_slot)
        granted = sum(map(int.bit_count, kept))
        self.allocated_slots += granted
        self.cancelled_slots += sum(map(int.bit_count, frag.masks)) - granted
        self.last_admission = None

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
        count = len(lanes)
        rr = self._rr
        for i, lane in enumerate(lanes):
            lane.pending.extend(demands[(i - rr) % count :: count])
        self._rr = rr + len(demands)
        return any(lane.pending for lane in lanes)

    def emit(self) -> List[AdmittedBatch]:
        """Every lane allocates batch ``next_base``, reconcile, every lane absorbs."""
        base = self.next_base
        result = reconcile([lane.allocate(base) for lane in self.lanes])
        for lane in self.lanes:
            lane.absorb(base)
        self.allocated_slots += len(result.final)
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
