"""Single-lane greedy allocation kernel.

The kernel is the unit of work each pipeline context schedules: its pending
demands are put in LRU order by ``lru_order`` and matched against per-node
availability bitmaps with an AND, then a find-first-set probe (PER_SLOT) or
byte table lookups (BATCH).  Two drain modes exist:

* PER_SLOT: a drained demand gets at most one timeslot, then parks in the
  extra list of the slot it received as a plain ``(src, dst, left)`` entry
  whose ``last_alloc`` is ``base_slot`` plus the list's offset.  The extra
  lists drain after the pending demands, and their entries stay inside the
  kernel until ``finish`` turns them back into demand rows.  This deliberately
  keeps the known head-of-pipeline accumulation behaviour so the batch-mode
  improvement is measurable against it.
* BATCH: a drained demand greedily claims consecutive free slots up to the
  batch width, and any survivor flows out immediately; it never re-enters
  this kernel.

Demands go in and out as plain ``model.DemandRow`` tuples.  ``lru_order`` is
the one LRU rule in the package: the pipeline contexts, the parallel lanes
and the shuffle shards all drain in its order.  ``allocate_slots`` is the one
greedy pass, and all three call it once per sweep, lane batch or bin: it
claims slots for a whole ordered demand list, a byte of each joint-free mask
at a time, and returns one claim mask per demand, with nothing built per
slot.  ``settle`` is the one survivor rule.  A kernel's batch is its claims:
the served rows and their masks, or one ``(row, low)`` per PER_SLOT hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import _OFFSETS, AdmittedBatch, AllocationMode, BatchBitmaps, DemandRow

#: Coarse LRU priority levels: a demand starved for this many slots less one
#: ranks with every demand starved longer.
NUM_PRIORITY_BINS = 32


def lru_order(
    demands: Sequence[DemandRow], current: int, num_bins: int = NUM_PRIORITY_BINS
) -> List[DemandRow]:
    """The demands in coarse LRU order, without a Python sort key.

    A demand's priority is its allocation gap ``current - last_alloc``,
    clamped at ``num_bins - 1``: the larger, the earlier it drains, and ties
    keep their given order.  So every demand with ``last_alloc`` at or below
    the floor ``current - (num_bins - 1)`` comes first, in its given order,
    followed by the rest stably sorted by ``last_alloc``.  Returns the same
    objects.  Raises ValueError when a ``last_alloc`` is ahead of ``current``.
    """
    floor = current - (num_bins - 1)
    old = [d for d in demands if d[3] <= floor]
    if len(old) == len(demands):
        return old
    recent = sorted((d for d in demands if d[3] > floor), key=itemgetter(3))
    if recent[-1][3] > current:
        raise ValueError(f"last_alloc {recent[-1][3]} is ahead of current {current}")
    old.extend(recent)
    return old


@dataclass
class SweepResult:
    """What one sweep produced: the rows that left, the count drained, the slots claimed."""

    outflow: List[DemandRow] = field(default_factory=list)
    drained: int = 0
    allocated: int = 0


#: ``_LOWEST[k][byte]``: the lowest ``k`` set bits of ``byte``, for k in 0..8.
_LOWEST = tuple(tuple(sum(1 << j for j in bits[:k]) for bits in _OFFSETS[0]) for k in range(9))


def allocate_slots(bitmaps: BatchBitmaps, demands: Sequence[DemandRow]) -> List[int]:
    """One greedy pass: each demand, in the given order, claims its lowest
    offsets free in both its source's and its destination's row, up to its
    remaining count.

    Clears every claim from the rows and returns one mask of claimed offsets
    per demand (0 for a demand that got nothing).  A mask wider than a byte is
    claimed one byte lane at a time, lowest lane first.
    """
    src_rows = bitmaps.src
    dst_rows = bitmaps.dst
    lowest = _LOWEST
    masks: List[int] = []
    add_mask = masks.append
    for src, dst, need, _ in demands:
        mask = src_rows[src] & dst_rows[dst]
        if mask:
            if mask < 256:
                mask = lowest[need if need < 8 else 8][mask]
            else:
                free, mask, shift = mask, 0, 0
                while need and free >> shift:
                    take = lowest[need if need < 8 else 8][free >> shift & 255]
                    mask |= take << shift
                    need -= take.bit_count()
                    shift += 8
            src_rows[src] ^= mask
            dst_rows[dst] ^= mask
        add_mask(mask)
    return masks


def settle(rows: Sequence[DemandRow], masks: Sequence[int], base_slot: int,
           spent: Optional[List[Tuple[int, int, int]]] = None) -> List[DemandRow]:
    """The one survivor rule: a row that claimed ``mask`` in the batch at
    ``base_slot`` has ``remaining - popcount(mask)`` slots left, and its
    ``last_alloc`` becomes ``base_slot + bit_length(mask) - 1``.

    Returns the rows with slots left, in row order, each unserved one as the
    same object.  A spent row is dropped, or appended to ``spent`` as
    ``(src, dst, last_alloc)`` when that is given.
    """
    last = base_slot - 1
    survivors: List[DemandRow] = []
    keep = survivors.append
    for row, mask in zip(rows, masks):
        if not mask:
            keep(row)
            continue
        left = row[2] - mask.bit_count()
        if left:
            keep((row[0], row[1], left, last + mask.bit_length()))
        elif spent is not None:
            spent.append((row[0], row[1], last + mask.bit_length()))
    return survivors


class GreedyKernel:
    """Stateful allocation kernel for one execution lane.

    Owns the pending demands, the per-slot extra lists, the bitmaps and the
    claims (``rows``, ``masks``) of its current batch.  ``reset`` rebinds it
    to a new batch; ``ingest`` queues incoming demands; ``sweep`` drains
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
        self.pending: List[DemandRow] = []
        self.extra: List[List[Tuple[int, int, int]]] = [[] for _ in range(batch_size)]
        self.bitmaps = BatchBitmaps(num_nodes, batch_size)
        self.rows: List[Tuple[int, ...]] = []
        self.masks: List[int] = []

    def is_empty(self) -> bool:
        """Whether no demand is queued or parked."""
        return not self.pending and not any(self.extra)

    def reset(self, base_slot: int) -> None:
        """Rebind to a fresh batch: new bitmaps, cleared admissions."""
        if not self.is_empty():
            raise RuntimeError("kernel reset with live demands")
        self.base_slot = base_slot
        self.bitmaps = BatchBitmaps(self.num_nodes, self.batch_size)
        self.rows = []
        self.masks = []

    def ingest(self, demands: Iterable[DemandRow]) -> None:
        """Queue demands behind the ones already pending."""
        self.pending.extend(demands)

    def sweep(self) -> SweepResult:
        """Drain the pending demands in LRU order, then the extra lists.

        In BATCH mode a demand that cannot be allocated flows out as it is,
        and a partly served one flows out as its survivor.  In PER_SLOT mode
        each demand gets one slot per visit and parks in the extra list of
        that slot as a ``(src, dst, left)`` entry, whose ``last_alloc`` is
        ``base_slot`` plus the list's offset; the extra lists then drain in
        ascending slot order, so an entry hops forward through them collecting
        further slots.  A pending demand that gets no slot flows out as the
        same object; a parked entry that gets none stays parked, in order.
        Each hop is claimed as the row or entry it served and its one-bit mask.
        """
        result = SweepResult()
        ordered = lru_order(self.pending, self.base_slot)
        self.pending = []
        result.drained = len(ordered)
        bitmaps = self.bitmaps
        if self.mode is AllocationMode.BATCH:
            masks = allocate_slots(bitmaps, ordered)
            result.outflow = settle(ordered, masks, self.base_slot)
            self.rows += compress(ordered, masks)
            self.masks += filter(None, masks)
            result.allocated = sum(map(int.bit_count, masks))
        else:
            outflow = result.outflow
            src_rows = bitmaps.src
            dst_rows = bitmaps.dst
            extra = self.extra
            hops = len(self.masks)
            add_row = self.rows.append
            add_mask = self.masks.append
            for demand in ordered:
                src, dst, remaining, _ = demand
                joint = src_rows[src] & dst_rows[dst]
                if not joint:
                    outflow.append(demand)
                    continue
                low = joint & -joint
                src_rows[src] ^= low
                dst_rows[dst] ^= low
                add_row(demand)
                add_mask(low)
                if remaining > 1:
                    extra[low.bit_length() - 1].append((src, dst, remaining - 1))
            # A re-allocated entry always lands at a strictly higher offset
            # than the extra list it came from, so one ascending pass visits
            # every hop, and no list grows while it is being drained.
            for offset, parked in enumerate(extra):
                if parked:
                    result.drained += len(parked)
                    stay: List[Tuple[int, int, int]] = []
                    for entry in parked:
                        src, dst, left = entry
                        joint = src_rows[src] & dst_rows[dst]
                        if not joint:
                            stay.append(entry)
                            continue
                        low = joint & -joint
                        src_rows[src] ^= low
                        dst_rows[dst] ^= low
                        add_row(entry)
                        add_mask(low)
                        if left > 1:
                            extra[low.bit_length() - 1].append((src, dst, left - 1))
                    extra[offset] = stay
            result.allocated = len(self.masks) - hops
        return result

    def finish(self) -> Tuple[AdmittedBatch, List[DemandRow]]:
        """Close the batch: emit admissions and flush retained survivors, each
        parked entry as the row ``(src, dst, left, base_slot + offset)``."""
        leftovers: List[DemandRow] = []
        for offset, parked in enumerate(self.extra):
            if parked:
                last_alloc = self.base_slot + offset
                leftovers.extend([(src, dst, left, last_alloc) for src, dst, left in parked])
                parked.clear()
        if self.pending:  # ingested since the last sweep, e.g. a flush the ring handed on
            leftovers.extend(lru_order(self.pending, self.base_slot))
            self.pending = []
        batch = AdmittedBatch.from_claims(self.base_slot, self.batch_size, self.rows, self.masks)
        return batch, leftovers

    def pending_slots(self) -> int:
        """Remaining slot count of every demand still inside the kernel."""
        parked = sum(left for queue in self.extra for _, _, left in queue)
        return parked + sum(d[2] for d in self.pending)
