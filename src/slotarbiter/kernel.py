"""Single-lane greedy allocation kernel.

The kernel is the unit of work each pipeline context schedules: demands are
coarse-sorted into LRU priority bins and matched against per-node
availability bitmaps with an AND + find-first-set probe.  Two drain modes
exist:

* PER_SLOT: a drained demand gets at most one timeslot, then parks in the
  extra bin of the slot it received.  Extra bins drain after the coarse bins
  and their survivors stay inside the kernel until the batch is finished.
  This deliberately keeps the known head-of-pipeline accumulation behaviour
  so the batch-mode improvement is measurable against it.
* BATCH: a drained demand greedily claims consecutive free slots up to the
  batch width, and any survivor flows out immediately; it never re-enters
  this kernel's bins.

Coarse bins drain in ascending index order, so a bin is never drained
before every higher-priority bin has been.  ``allocate_slots`` is the
batch-style claim of one demand on its own; the parallel lanes and the
shuffle alloc stage call it directly, over demands that ``lru_order`` put in
coarse-bin order without a Python sort key per demand.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple

from .model import AdmittedBatch, AllocationMode, BatchBitmaps, Demand


def first_free_slot(src_row: int, dst_row: int) -> Optional[int]:
    """Lowest slot offset free in both rows, or None if none is."""
    joint = src_row & dst_row
    if joint == 0:
        return None
    return (joint & -joint).bit_length() - 1


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


def lru_order(demands: Sequence[Demand], current: int, num_bins: int = 32) -> List[Demand]:
    """The demands stably sorted by ``bin_index``, without a Python sort key.

    ``bin_index`` ranks a demand by ``max(last_alloc, current - (num_bins - 1))``:
    every demand at or below that floor ties in bin 0 and keeps its place,
    and above it the bin grows with ``last_alloc`` one for one.  So the floor
    demands in their given order, followed by the rest stably sorted by
    ``last_alloc``, is exactly ``sorted(demands, key=bin_index(...))``, with
    the same objects.  Raises ValueError, as ``bin_index`` does, when a
    ``last_alloc`` is ahead of ``current``.
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


class PriorityBins:
    """Coarse LRU bins plus the per-slot extra bins.

    Each live demand sits in exactly one bin queue; arrival order is kept
    within a bin (stable sort overall).
    """

    def __init__(self, num_bins: int, batch_size: int) -> None:
        self.num_bins = num_bins
        self.coarse: List[Deque[Demand]] = [deque() for _ in range(num_bins)]
        self.extra: List[Deque[Demand]] = [deque() for _ in range(batch_size)]

    def insert(self, demand: Demand, current: int) -> None:
        """File one demand behind the others in its coarse bin."""
        self.coarse[bin_index(demand.last_alloc, current, self.num_bins)].append(demand)

    def is_empty(self) -> bool:
        return not any(self.coarse) and not any(self.extra)

    def live_demands(self) -> Iterator[Demand]:
        for q in self.coarse:
            yield from q
        for q in self.extra:
            yield from q


@dataclass
class SweepResult:
    """What one drain sweep produced."""

    edges: List[Tuple[int, int, int]] = field(default_factory=list)
    outflow: List[Demand] = field(default_factory=list)
    drained: int = 0


def allocate_slots(
    bitmaps: BatchBitmaps, demand: Demand, base_slot: int
) -> Tuple[List[int], Optional[Demand]]:
    """Batch-style allocation of one demand against the bitmaps.

    Claims the lowest joint-free offsets of the batch, up to the demand's
    remaining count.  Returns the claimed offsets and the surviving demand,
    or None if it was fully satisfied.
    """
    joint = bitmaps.joint_free(demand.src, demand.dst)
    need = demand.remaining
    offsets: List[int] = []
    while joint and need:
        offset = (joint & -joint).bit_length() - 1
        bitmaps.claim(demand.src, demand.dst, offset)
        offsets.append(offset)
        joint &= joint - 1
        need -= 1
    if not offsets:
        return offsets, demand
    left = demand.remaining - len(offsets)
    if left == 0:
        return offsets, None
    return offsets, Demand(demand.src, demand.dst, left, base_slot + offsets[-1])


def allocate_batch(
    bins: PriorityBins,
    bitmaps: BatchBitmaps,
    mode: AllocationMode,
    base_slot: int,
) -> SweepResult:
    """Drain every bin greedily against the batch bitmaps.

    Coarse bins drain in ascending index order (highest priority first); in
    PER_SLOT mode the extra bins then drain in ascending slot order, letting
    a demand hop forward through them and collect further slots.  Demands
    that cannot be allocated flow out in drain order in BATCH mode; in
    PER_SLOT mode a demand that already holds a slot is retained in its extra
    bin instead of flowing out.
    """
    result = SweepResult()
    for queue in bins.coarse:
        while queue:
            demand = queue.popleft()
            result.drained += 1
            if mode is AllocationMode.BATCH:
                _allocate_batch_style(bitmaps, demand, base_slot, result)
            else:
                _allocate_one_slot(bins, bitmaps, demand, base_slot, result, from_extra=False)
    if mode is AllocationMode.PER_SLOT:
        _drain_extras(bins, bitmaps, base_slot, result)
    return result


def _allocate_batch_style(
    bitmaps: BatchBitmaps, demand: Demand, base_slot: int, result: SweepResult
) -> None:
    offsets, survivor = allocate_slots(bitmaps, demand, base_slot)
    if not offsets:
        result.outflow.append(demand)
        return
    for offset in offsets:
        result.edges.append((offset, demand.src, demand.dst))
    if survivor is not None:
        result.outflow.append(survivor)


def _allocate_one_slot(
    bins: PriorityBins,
    bitmaps: BatchBitmaps,
    demand: Demand,
    base_slot: int,
    result: SweepResult,
    from_extra: bool,
) -> bool:
    """PER_SLOT visit: one slot then park in the extra bin of that slot.

    Returns True when a slot was claimed.  A demand that cannot allocate
    flows out if it came from a coarse bin, and is retained (re-parked) if it
    already holds slots from this batch.
    """
    offset = first_free_slot(bitmaps.src[demand.src], bitmaps.dst[demand.dst])
    if offset is None:
        if not from_extra:
            result.outflow.append(demand)
        return False
    bitmaps.claim(demand.src, demand.dst, offset)
    result.edges.append((offset, demand.src, demand.dst))
    if demand.remaining > 1:
        survivor = Demand(demand.src, demand.dst, demand.remaining - 1, base_slot + offset)
        bins.extra[offset].append(survivor)
    return True


def _drain_extras(
    bins: PriorityBins, bitmaps: BatchBitmaps, base_slot: int, result: SweepResult
) -> None:
    # A re-allocated demand always lands at a strictly higher offset than the
    # extra bin it came from, so one ascending pass visits every hop.
    parked: List[Tuple[int, Demand]] = []
    for offset in range(len(bins.extra)):
        queue = bins.extra[offset]
        while queue:
            demand = queue.popleft()
            result.drained += 1
            if not _allocate_one_slot(bins, bitmaps, demand, base_slot, result, from_extra=True):
                parked.append((offset, demand))
    for offset, demand in parked:
        bins.extra[offset].append(demand)


class GreedyKernel:
    """Stateful allocation kernel for one execution lane.

    Owns the bins, the bitmaps and the admitted edges for the batch it is
    currently assigned.  ``reset`` rebinds it to a new batch; ``ingest`` files
    incoming demands; ``sweep`` drains everything currently enabled; and
    ``finish`` flushes the retained per-slot survivors and returns the
    AdmittedBatch.  Instances are single-owner and may move between lanes at
    batch boundaries only.
    """

    def __init__(
        self,
        num_nodes: int,
        batch_size: int,
        num_bins: int = 32,
        mode: AllocationMode = AllocationMode.BATCH,
    ) -> None:
        self.num_nodes = num_nodes
        self.batch_size = batch_size
        self.num_bins = num_bins
        self.mode = mode
        self.base_slot = 0
        self.bins = PriorityBins(num_bins, batch_size)
        self.bitmaps = BatchBitmaps(num_nodes, batch_size)
        self.edges: List[Tuple[int, int, int]] = []

    def reset(self, base_slot: int) -> None:
        """Rebind to a fresh batch: new bitmaps, cleared admissions."""
        if not self.bins.is_empty():
            raise RuntimeError("kernel reset with live demands in bins")
        self.base_slot = base_slot
        self.bitmaps = BatchBitmaps(self.num_nodes, self.batch_size)
        self.edges = []

    def ingest(self, demands: Iterable[Demand]) -> None:
        """File demands FIFO into the coarse bins."""
        for demand in demands:
            self.bins.insert(demand, self.base_slot)

    def sweep(self) -> SweepResult:
        """Drain all bins against the current batch."""
        result = allocate_batch(self.bins, self.bitmaps, self.mode, self.base_slot)
        self.edges.extend(result.edges)
        return result

    def finish(self) -> Tuple[AdmittedBatch, List[Demand]]:
        """Close the batch: emit admissions and flush retained survivors."""
        leftovers: List[Demand] = []
        for queue in self.bins.extra:
            while queue:
                leftovers.append(queue.popleft())
        for queue in self.bins.coarse:
            while queue:  # only possible if finish is called without a sweep
                leftovers.append(queue.popleft())
        batch = AdmittedBatch(self.base_slot, self.batch_size, tuple(self.edges))
        return batch, leftovers

    def pending_slots(self) -> int:
        """Remaining slot count of every demand still inside the kernel."""
        return sum(d.remaining for d in self.bins.live_demands())
