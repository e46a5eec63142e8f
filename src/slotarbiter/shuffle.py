"""Random-shuffle architecture: backlog / alloc / postalloc lane triples.

Each lane set owns one third of the allocator's job.  Backlog shards hold the
per-(src, dst) dedup table for a contiguous slice of the source space, fill
demands into fixed-capacity bins in LRU order, and hand the bins to the
distributor.  Round i sends shard x's bin to alloc set (A*x + B) mod K; the
alloc lane only scans the bin against its private bitmaps and fills the
result bits; the postalloc lane splits spent from remaining entries, emits
the admitted edges, and the inverse distributor carries the bin back to its
origin shard based on the same round's parameters.  Bins travel through
single-slot mailboxes, one writer and one reader each, so no lane ever shares
a live bin.

Set s of round r allocates the batch starting at slot 1 + (r*S + s)*B, so S
consecutive batches are worked concurrently and emitted in slot order.
"""

from __future__ import annotations

import heapq
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .conduits import LaneThread, Mailbox, SpscQueue, join_lanes
from .kernel import allocate_slots, lru_order
from .model import (
    AdmittedBatch,
    Architecture,
    BatchBitmaps,
    Config,
    Demand,
    Metrics,
    RunResult,
)
from .permutation import PermutationSpec
from .workload import Arrival, ArrivalCursor

BatchSink = Callable[[AdmittedBatch], None]

Edge = Tuple[int, int, int]


@dataclass
class Bin:
    """Fixed-capacity demand container circulated between the lanes."""

    origin: int
    round_index: int = 0
    capacity: int = 64
    sent_ns: int = 0  # monotonic stamp of the latest send to an alloc set
    entries: List[Demand] = field(default_factory=list)
    result_bits: List[int] = field(default_factory=list)
    completed: List[Tuple[int, int, int]] = field(default_factory=list)  # (src, dst, last_alloc)
    remainders: List[Demand] = field(default_factory=list)

    def clear(self) -> None:
        self.entries = []
        self.result_bits = []
        self.completed = []
        self.remainders = []

    def pending_slots(self) -> int:
        return sum(d.remaining for d in self.entries) + sum(
            d.remaining for d in self.remainders
        )


@dataclass
class PairState:
    accrued: int = 0
    in_flight: bool = False
    last_alloc: int = 0


class BacklogShard:
    """Dedup table plus staging for one slice of the source space.

    At most one live demand per (src, dst) exists anywhere in the system:
    while a pair is in flight, further requests only bump its accrued count,
    and the accrual is reissued as a fresh demand when the live copy
    completes.
    """

    def __init__(self, shard_id: int, src_lo: int, src_hi: int, num_bins: int = 32) -> None:
        self.shard_id = shard_id
        self.src_lo = src_lo
        self.src_hi = src_hi
        self.num_bins = num_bins
        self.table: Dict[Tuple[int, int], PairState] = {}
        self.staging: List[Demand] = []
        self.ingested_slots = 0

    def ingest(self, demand: Demand) -> None:
        if not self.src_lo <= demand.src < self.src_hi:
            raise ValueError(
                f"src {demand.src} outside shard {self.shard_id} range "
                f"[{self.src_lo}, {self.src_hi})"
            )
        self.ingested_slots += demand.remaining
        pair = (demand.src, demand.dst)
        state = self.table.get(pair)
        if state is None:
            state = PairState()
            self.table[pair] = state
        if state.in_flight:
            state.accrued += demand.remaining
        else:
            state.in_flight = True
            self.staging.append(
                Demand(demand.src, demand.dst, demand.remaining, state.last_alloc)
            )

    def fill_bin(self, bin_: Bin, current_base: int) -> None:
        """Move staged demands into the bin, most-starved first.

        The staging list is put in ``lru_order`` for ``current_base``: the
        bin takes its head and the rest stays staged in that order.
        """
        ordered = lru_order(self.staging, current_base, self.num_bins)
        take = ordered[: bin_.capacity]
        bin_.entries = take
        bin_.result_bits = [0] * len(take)
        self.staging = ordered[len(take):]

    def absorb_return(self, bin_: Bin) -> None:
        """Take a returned bin apart: close spent pairs, restage remainders."""
        for src, dst, last_alloc in bin_.completed:
            state = self.table[(src, dst)]
            state.last_alloc = last_alloc
            if state.accrued > 0:
                self.staging.append(Demand(src, dst, state.accrued, last_alloc))
                state.accrued = 0
            else:
                state.in_flight = False
        for demand in bin_.remainders:
            self.table[(demand.src, demand.dst)].last_alloc = demand.last_alloc
            self.staging.append(demand)
        bin_.clear()

    def pending_slots(self) -> int:
        pending = sum(d.remaining for d in self.staging)
        pending += sum(s.accrued for s in self.table.values())
        return pending


def alloc_process(bin_: Bin, bitmaps: BatchBitmaps, base_slot: int) -> None:
    """Fill the bin's result bits: batch-greedy per entry, in bin order.

    No sorting happens here; the backlog fill order is the priority order.
    The entries themselves are left untouched.
    """
    for idx, entry in enumerate(bin_.entries):
        offsets, _ = allocate_slots(bitmaps, entry, base_slot)
        bits = 0
        for offset in offsets:
            bits |= 1 << offset
        bin_.result_bits[idx] = bits


def postalloc_process(bin_: Bin, base_slot: int) -> List[Edge]:
    """Split the bin by outcome and return the admitted edges.

    Spent entries become completions, partially served entries become
    remainder demands with their LRU key advanced, untouched entries ride
    back unchanged.  The splits are stored on the bin for the trip home.
    """
    edges: List[Edge] = []
    completed: List[Tuple[int, int, int]] = []
    remainders: List[Demand] = []
    for entry, bits in zip(bin_.entries, bin_.result_bits):
        granted = bits.bit_count()
        if granted:
            last_offset = bits.bit_length() - 1
            mask = bits
            while mask:
                offset = (mask & -mask).bit_length() - 1
                edges.append((offset, entry.src, entry.dst))
                mask &= mask - 1
            if granted == entry.remaining:
                completed.append((entry.src, entry.dst, base_slot + last_offset))
            else:
                remainders.append(
                    Demand(
                        entry.src,
                        entry.dst,
                        entry.remaining - granted,
                        base_slot + last_offset,
                    )
                )
        else:
            remainders.append(entry)
    bin_.entries = []
    bin_.result_bits = []
    bin_.completed = completed
    bin_.remainders = remainders
    return edges


def shard_for_src(src: int, num_nodes: int, shards: int) -> int:
    return min(src * shards // num_nodes, shards - 1)


def _shard_ranges(num_nodes: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous source ranges, the exact inverse of shard_for_src."""
    return [
        ((x * num_nodes + shards - 1) // shards, ((x + 1) * num_nodes + shards - 1) // shards)
        for x in range(shards)
    ]


def _check_origin(origin: int, bin_: Bin) -> None:
    if origin != bin_.origin:
        raise RuntimeError(
            f"inverse distributor sent shard {bin_.origin}'s bin of round "
            f"{bin_.round_index} to shard {origin}"
        )


def run_shuffle_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_rounds: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Single-thread replay of the full circulation, one bin per shard per round."""
    num_sets = cfg.sets
    batch = cfg.batch_size
    perm = PermutationSpec(num_sets)
    shards = [
        BacklogShard(x, lo, hi, cfg.num_priority_bins)
        for x, (lo, hi) in enumerate(_shard_ranges(cfg.num_nodes, num_sets))
    ]
    batches: List[AdmittedBatch] = []
    collect = sink is None
    emit = batches.append if collect else sink

    cursor = ArrivalCursor(arrivals)
    metrics = Metrics()
    slot_ns = cfg.slot_ns

    def base_for(set_id: int, round_index: int) -> int:
        return 1 + (round_index * num_sets + set_id) * batch

    for round_index in range(max_rounds):
        for demand in cursor.release((base_for(0, round_index) - 1) * slot_ns):
            shards[shard_for_src(demand.src, cfg.num_nodes, num_sets)].ingest(demand)
            metrics.demanded_slots += demand.remaining
        if metrics.demanded_slots == metrics.allocated_slots and cursor.exhausted:
            break

        routed: Dict[int, Bin] = {}
        for shard in shards:
            target = perm.permute(shard.shard_id, round_index)
            bin_ = Bin(origin=shard.shard_id, round_index=round_index, capacity=cfg.bin_capacity)
            shard.fill_bin(bin_, base_for(target, round_index))
            routed[target] = bin_

        for set_id in range(num_sets):
            bin_ = routed[set_id]
            base = base_for(set_id, round_index)
            bitmaps = BatchBitmaps(cfg.num_nodes, batch)
            alloc_process(bin_, bitmaps, base)
            edges = postalloc_process(bin_, base)
            emit(AdmittedBatch(base, batch, tuple(edges)))
            metrics.allocated_slots += len(edges)
            origin = perm.invert(set_id, round_index)
            _check_origin(origin, bin_)
            shards[origin].absorb_return(bin_)

    metrics.pending_slots = sum(shard.pending_slots() for shard in shards)
    metrics.lane_counters = {
        "staging": [len(shard.staging) for shard in shards],
    }
    return RunResult(metrics, batches)


# ---------------------------------------------------------------------------
# Paced (threaded) driver
# ---------------------------------------------------------------------------


class _SlotOrderedEmitter:
    """Re-orders concurrent postalloc emissions into slot order."""

    def __init__(self, sink: BatchSink) -> None:
        self.sink = sink
        self._lock = threading.Lock()
        self._heap: List[Tuple[int, AdmittedBatch]] = []
        self._next = 0

    def emit(self, batch_index: int, batch: AdmittedBatch) -> None:
        with self._lock:
            heapq.heappush(self._heap, (batch_index, batch))
            while self._heap and self._heap[0][0] == self._next:
                _, ready = heapq.heappop(self._heap)
                self.sink(ready)
                self._next += 1

    def flush(self) -> None:
        with self._lock:
            while self._heap:
                _, ready = heapq.heappop(self._heap)
                self.sink(ready)


#: Per-shard staging ceiling in paced mode; the ingest conduit backs up (and
#: the generator reports overload) rather than staging growing unbounded.
_STAGING_HIGH_WATER = 8192


class _BacklogLane(LaneThread):
    def __init__(self, machine: "ShuffleMachine", shard: BacklogShard) -> None:
        super().__init__(f"backlog-{shard.shard_id}", machine.stop_event, self.work)
        self.m = machine
        self.shard = shard
        self.pool: Deque[Bin] = deque(
            Bin(origin=shard.shard_id, capacity=machine.cfg.bin_capacity)
            for _ in range(machine.cfg.bins_per_set)
        )
        self.outstanding: Deque[int] = deque()  # target set per sent round, FIFO
        self.round_index = 0
        self.sent_bins = 0
        self.latencies: List[int] = []  # ns from send to return, per circulation

    def _absorb_one(self, block: bool) -> bool:
        if not self.outstanding:
            return False
        target = self.outstanding[0]
        mailbox = self.m.inv_grid[target][self.shard.shard_id]
        bin_ = mailbox.take(timeout=0.01) if block else mailbox.try_take()
        if bin_ is None:
            return False
        self.latencies.append(time.monotonic_ns() - bin_.sent_ns)
        self.outstanding.popleft()
        self.shard.absorb_return(bin_)
        self.pool.append(bin_)
        return True

    def work(self) -> None:
        m = self.m
        conduit = m.ingest_conduits[self.shard.shard_id]
        while not m.stop_event.is_set():
            while len(self.shard.staging) < _STAGING_HIGH_WATER:
                demand = conduit.try_take()
                if demand is None:
                    break
                self.shard.ingest(demand)
            while self._absorb_one(block=False):
                pass
            if not self.pool:
                self._absorb_one(block=True)
                continue
            bin_ = self.pool.popleft()
            bin_.round_index = self.round_index
            target = m.perm.permute(self.shard.shard_id, self.round_index)
            self.shard.fill_bin(bin_, m.base_for(target, self.round_index))
            mailbox = m.dist_grid[self.shard.shard_id][target]
            bin_.sent_ns = time.monotonic_ns()
            while not mailbox.put(bin_, timeout=0.01):
                if m.stop_event.is_set():
                    self.pool.appendleft(bin_)
                    return
            self.outstanding.append(target)
            self.round_index += 1
            self.sent_bins += 1


class _AllocLane(LaneThread):
    def __init__(self, machine: "ShuffleMachine", set_id: int) -> None:
        super().__init__(f"alloc-{set_id}", machine.stop_event, self.work)
        self.m = machine
        self.set_id = set_id
        self.round_index = 0
        self.processed_bins = 0

    def work(self) -> None:
        m = self.m
        cfg = m.cfg
        while not m.stop_event.is_set():
            src_shard = m.perm.invert(self.set_id, self.round_index)
            bin_ = m.dist_grid[src_shard][self.set_id].take(timeout=0.01)
            if bin_ is None:
                continue
            # the mailbox was picked with invert(); check the bin with permute()
            if (
                bin_.round_index != self.round_index
                or m.perm.permute(bin_.origin, bin_.round_index) != self.set_id
            ):
                raise RuntimeError(
                    f"alloc set {self.set_id} of round {self.round_index} took shard "
                    f"{bin_.origin}'s bin of round {bin_.round_index}"
                )
            base = m.base_for(self.set_id, self.round_index)
            bitmaps = BatchBitmaps(cfg.num_nodes, cfg.batch_size)
            alloc_process(bin_, bitmaps, base)
            while not m.to_post[self.set_id].put(bin_, timeout=0.01):
                if m.stop_event.is_set():
                    m.stash_orphan(bin_)
                    return
            self.round_index += 1
            self.processed_bins += 1


class _PostallocLane(LaneThread):
    def __init__(self, machine: "ShuffleMachine", set_id: int) -> None:
        super().__init__(f"postalloc-{set_id}", machine.stop_event, self.work)
        self.m = machine
        self.set_id = set_id
        self.round_index = 0
        self.allocated_slots = 0

    def work(self) -> None:
        m = self.m
        while not m.stop_event.is_set():
            bin_ = m.to_post[self.set_id].take(timeout=0.01)
            if bin_ is None:
                continue
            base = m.base_for(self.set_id, self.round_index)
            edges = postalloc_process(bin_, base)
            self.allocated_slots += len(edges)
            m.emitter.emit(
                self.round_index * m.cfg.sets + self.set_id,
                AdmittedBatch(base, m.cfg.batch_size, tuple(edges)),
            )
            origin = m.perm.invert(self.set_id, self.round_index)
            _check_origin(origin, bin_)
            while not m.inv_grid[self.set_id][origin].put(bin_, timeout=0.01):
                if m.stop_event.is_set():
                    m.stash_orphan(bin_)
                    return
            self.round_index += 1


class ShuffleMachine:
    """Paced shuffle driver: K backlog lanes plus an alloc/postalloc pair per set."""

    def __init__(self, cfg: Config, sink: BatchSink) -> None:
        self.cfg = cfg
        num_sets = cfg.sets
        self.perm = PermutationSpec(num_sets)
        self.stop_event = threading.Event()
        self.emitter = _SlotOrderedEmitter(sink)
        self.ingest_conduits = [SpscQueue(cfg.mailbox_depth) for _ in range(num_sets)]
        self.dist_grid = [[Mailbox() for _ in range(num_sets)] for _ in range(num_sets)]
        self.inv_grid = [[Mailbox() for _ in range(num_sets)] for _ in range(num_sets)]
        self.to_post = [Mailbox() for _ in range(num_sets)]
        self.shards = [
            BacklogShard(x, lo, hi, cfg.num_priority_bins)
            for x, (lo, hi) in enumerate(_shard_ranges(cfg.num_nodes, num_sets))
        ]
        self.backlog_lanes = [_BacklogLane(self, shard) for shard in self.shards]
        self.alloc_lanes = [_AllocLane(self, s) for s in range(num_sets)]
        self.postalloc_lanes = [_PostallocLane(self, s) for s in range(num_sets)]
        self.lanes = self.backlog_lanes + self.alloc_lanes + self.postalloc_lanes
        self._orphans: List[Bin] = []
        self._orphan_lock = threading.Lock()

    def base_for(self, set_id: int, round_index: int) -> int:
        return 1 + (round_index * self.cfg.sets + set_id) * self.cfg.batch_size

    def stash_orphan(self, bin_: Bin) -> None:
        with self._orphan_lock:
            self._orphans.append(bin_)

    def push(self, demand: Demand) -> bool:
        shard = shard_for_src(demand.src, self.cfg.num_nodes, self.cfg.sets)
        return self.ingest_conduits[shard].try_put(demand)

    def allocated_slots(self) -> int:
        return sum(lane.allocated_slots for lane in self.postalloc_lanes)

    def start(self) -> None:
        for lane in self.lanes:
            lane.start()

    def stop_and_join(self) -> None:
        join_lanes(self.stop_event, self.lanes)
        self.emitter.flush()

    def pending_slots(self) -> int:
        pending = sum(shard.pending_slots() for shard in self.shards)
        for conduit in self.ingest_conduits:
            pending += sum(d.remaining for d in conduit.snapshot())
        bins: List[Bin] = list(self._orphans)
        for lane in self.backlog_lanes:
            bins.extend(lane.pool)
        mailboxes = [mb for grid in (self.dist_grid, self.inv_grid) for row in grid for mb in row]
        bins.extend(mb.peek() for mb in mailboxes + self.to_post if mb.full)
        return pending + sum(bin_.pending_slots() for bin_ in bins)

    def lane_counters(self) -> dict:
        return {
            "sent_bins": [lane.sent_bins for lane in self.backlog_lanes],
            "processed_bins": [lane.processed_bins for lane in self.alloc_lanes],
            "allocated": [lane.allocated_slots for lane in self.postalloc_lanes],
        }


# ---------------------------------------------------------------------------
# Distributor microbenchmark
# ---------------------------------------------------------------------------


#: Slots each standing-backlog demand asks for: more than any bench serves,
#: so every pair stays live and every returned bin restages full.
_STANDING_DEMAND = 1 << 40


def bench_distributor(
    num_sets: int,
    circulations: int = 1000,
    entries_per_bin: int = 64,
    num_nodes: int = 256,
    batch_size: int = 8,
) -> Dict[str, float]:
    """Measure bin circulation latency through backlog -> alloc -> postalloc.

    Runs a real ShuffleMachine with one bin per set.  A standing backlog of
    ``entries_per_bin`` distinct pairs per shard keeps every bin full, and
    each backlog lane records the send-to-return time of its bin.  The first
    ``circulations`` samples of every set make up the returned latency stats,
    in microseconds.

    The interpreter's thread switch interval is dropped for the duration of
    the bench: the default 5 ms quantum would swamp the handoffs being
    measured.
    """
    cfg = Config(
        num_nodes,
        architecture=Architecture.SHUFFLE,
        batch_size=batch_size,
        sets=num_sets,
        bins_per_set=1,
        bin_capacity=entries_per_bin,
    )
    machine = ShuffleMachine(cfg, lambda batch: None)
    for shard in machine.shards:
        width = shard.src_hi - shard.src_lo
        for i in range(entries_per_bin):
            src = shard.src_lo + i % width
            shard.ingest(Demand(src, (src + 1 + i // width) % num_nodes, _STANDING_DEMAND))
    lanes = machine.backlog_lanes
    prev_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        machine.start()
        # a lane that raises sets the stop event; stop_and_join re-raises
        stop = machine.stop_event
        while not stop.is_set() and any(len(lane.latencies) < circulations for lane in lanes):
            time.sleep(0.001)
    finally:
        machine.stop_and_join()
        sys.setswitchinterval(prev_interval)

    flat = sorted(lat for lane in lanes for lat in lane.latencies[:circulations])
    if not flat:
        raise RuntimeError("distributor bench produced no samples")
    mean_ns = sum(flat) / len(flat)
    return {
        "sets": float(num_sets),
        "circulations": float(len(flat)),
        "mean_us": mean_ns / 1000.0,
        "p50_us": flat[len(flat) // 2] / 1000.0,
        "p99_us": flat[min(len(flat) - 1, int(len(flat) * 0.99))] / 1000.0,
    }
