"""Single-lane greedy allocation kernel.

The kernel is the unit of work each pipeline context schedules: its pending
demands are put in LRU order by ``lru_order`` and matched against per-node
availability bitmaps with an AND + find-first-set probe.  Two drain modes
exist:

* PER_SLOT: a drained demand gets at most one timeslot, then parks in the
  extra list of the slot it received.  The extra lists drain after the
  pending demands and their survivors stay inside the kernel until the batch
  is finished.  This deliberately keeps the known head-of-pipeline
  accumulation behaviour so the batch-mode improvement is measurable against
  it.
* BATCH: a drained demand greedily claims consecutive free slots up to the
  batch width, and any survivor flows out immediately; it never re-enters
  this kernel.

``lru_order`` is the one LRU rule in the package: the pipeline contexts, the
parallel lanes and the shuffle shards all drain in its order.
``allocate_slots`` is the one greedy pass, and all three call it once per
sweep, lane batch or bin: it claims slots for a whole ordered demand list and
returns one mask of claimed offsets per demand, and the caller builds the
survivors from the masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import AdmittedBatch, AllocationMode, BatchBitmaps, Demand

#: Coarse LRU priority levels: a demand starved for this many slots less one
#: ranks with every demand starved longer.
NUM_PRIORITY_BINS = 32


def first_free_slot(src_row: int, dst_row: int) -> Optional[int]:
    """Lowest slot offset free in both rows, or None if none is."""
    joint = src_row & dst_row
    if joint == 0:
        return None
    return (joint & -joint).bit_length() - 1


def lru_order(
    demands: Sequence[Demand], current: int, num_bins: int = NUM_PRIORITY_BINS
) -> List[Demand]:
    """The demands in coarse LRU order, without a Python sort key.

    A demand's priority is its allocation gap ``current - last_alloc``,
    clamped at ``num_bins - 1``: the larger, the earlier it drains, and ties
    keep their given order.  So every demand with ``last_alloc`` at or below
    the floor ``current - (num_bins - 1)`` comes first, in its given order,
    followed by the rest stably sorted by ``last_alloc``.  Returns the same
    objects.  Raises ValueError when a ``last_alloc`` is ahead of ``current``.
    """
    floor = current - (num_bins - 1)
    old = [d for d in demands if d.last_alloc <= floor]
    if len(old) == len(demands):
        return old
    recent = sorted((d for d in demands if d.last_alloc > floor), key=attrgetter("last_alloc"))
    if recent[-1].last_alloc > current:
        raise ValueError(f"last_alloc {recent[-1].last_alloc} is ahead of current {current}")
    old.extend(recent)
    return old


@dataclass
class SweepResult:
    """What one drain sweep produced."""

    edges: List[Tuple[int, int, int]] = field(default_factory=list)
    outflow: List[Demand] = field(default_factory=list)
    drained: int = 0


def allocate_slots(
    bitmaps: BatchBitmaps, demands: Sequence[Demand], edges: List[Tuple[int, int, int]]
) -> List[int]:
    """One greedy pass: each demand, in the given order, claims its lowest
    offsets free in both its source's and its destination's row, up to its
    remaining count.

    Clears every claim from the rows, appends ``(offset, src, dst)`` to
    ``edges`` in demand order and then ascending offset, and returns one mask
    of claimed offsets per demand (0 for a demand that got nothing).
    """
    src_rows = bitmaps.src
    dst_rows = bitmaps.dst
    masks: List[int] = []
    add_mask = masks.append
    add_edge = edges.append
    for demand in demands:
        src = demand.src
        dst = demand.dst
        mask = src_rows[src] & dst_rows[dst]
        if mask:
            need = demand.remaining
            if need < mask.bit_count():
                above = mask
                for _ in range(need):
                    above &= above - 1
                mask ^= above  # the lowest ``need`` joint-free offsets
            src_rows[src] ^= mask
            dst_rows[dst] ^= mask
            bits = mask
            while bits:
                low = bits & -bits
                add_edge((low.bit_length() - 1, src, dst))
                bits ^= low
        add_mask(mask)
    return masks


class GreedyKernel:
    """Stateful allocation kernel for one execution lane.

    Owns the pending demands, the per-slot extra lists, the bitmaps and the
    admitted edges for the batch it is currently assigned.  ``reset`` rebinds
    it to a new batch; ``ingest`` queues incoming demands; ``sweep`` drains
    everything queued or parked; and ``finish`` flushes the retained per-slot
    survivors and returns the AdmittedBatch.  Instances are single-owner and
    may move between lanes at batch boundaries only.
    """

    def __init__(
        self,
        num_nodes: int,
        batch_size: int,
        mode: AllocationMode = AllocationMode.BATCH,
    ) -> None:
        self.num_nodes = num_nodes
        self.batch_size = batch_size
        self.mode = mode
        self.base_slot = 0
        self.pending: List[Demand] = []
        self.extra: List[List[Demand]] = [[] for _ in range(batch_size)]
        self.bitmaps = BatchBitmaps(num_nodes, batch_size)
        self.edges: List[Tuple[int, int, int]] = []

    def is_empty(self) -> bool:
        """Whether no demand is queued or parked."""
        return not self.pending and not any(self.extra)

    def reset(self, base_slot: int) -> None:
        """Rebind to a fresh batch: new bitmaps, cleared admissions."""
        if not self.is_empty():
            raise RuntimeError("kernel reset with live demands")
        self.base_slot = base_slot
        self.bitmaps = BatchBitmaps(self.num_nodes, self.batch_size)
        self.edges = []

    def ingest(self, demands: Iterable[Demand]) -> None:
        """Queue demands behind the ones already pending."""
        self.pending.extend(demands)

    def sweep(self) -> SweepResult:
        """Drain the pending demands in LRU order, then the extra lists.

        In BATCH mode a demand that cannot be allocated flows out as it is,
        and a partly served one flows out as its survivor.  In PER_SLOT mode
        each demand gets one slot per visit and parks in the extra list of
        that slot; the extra lists then drain in ascending slot order, so a
        demand hops forward through them collecting further slots.  A pending
        demand that gets no slot flows out; a parked one that gets none stays
        parked.
        """
        result = SweepResult()
        ordered = lru_order(self.pending, self.base_slot)
        self.pending = []
        result.drained = len(ordered)
        bitmaps = self.bitmaps
        base_slot = self.base_slot
        edges = result.edges
        outflow = result.outflow
        if self.mode is AllocationMode.BATCH:
            masks = allocate_slots(bitmaps, ordered, edges)
            for demand, mask in zip(ordered, masks):
                if not mask:
                    outflow.append(demand)
                    continue
                left = demand.remaining - mask.bit_count()
                if left:
                    outflow.append(
                        Demand(demand.src, demand.dst, left, base_slot + mask.bit_length() - 1)
                    )
        else:
            extra = self.extra

            def claim_one(demand: Demand) -> bool:
                offset = first_free_slot(bitmaps.src[demand.src], bitmaps.dst[demand.dst])
                if offset is None:
                    return False
                bitmaps.claim(demand.src, demand.dst, offset)
                edges.append((offset, demand.src, demand.dst))
                if demand.remaining > 1:
                    extra[offset].append(
                        Demand(demand.src, demand.dst, demand.remaining - 1, base_slot + offset)
                    )
                return True

            for demand in ordered:
                if not claim_one(demand):
                    outflow.append(demand)
            # A re-allocated demand always lands at a strictly higher offset
            # than the extra list it came from, so one ascending pass visits
            # every hop, and no list grows while it is being drained.
            for offset, parked in enumerate(extra):
                if parked:
                    result.drained += len(parked)
                    extra[offset] = [demand for demand in parked if not claim_one(demand)]
        self.edges.extend(edges)
        return result

    def finish(self) -> Tuple[AdmittedBatch, List[Demand]]:
        """Close the batch: emit admissions and flush retained survivors."""
        leftovers: List[Demand] = []
        for parked in self.extra:
            leftovers.extend(parked)
            parked.clear()
        if self.pending:  # only possible if finish is called without a sweep
            leftovers.extend(lru_order(self.pending, self.base_slot))
            self.pending = []
        batch = AdmittedBatch(self.base_slot, self.batch_size, tuple(self.edges))
        return batch, leftovers

    def pending_slots(self) -> int:
        """Remaining slot count of every demand still inside the kernel."""
        parked = [d for queue in self.extra for d in queue]
        return sum(d.remaining for d in self.pending + parked)
