"""Random-shuffle architecture: backlog shards, alloc sets, distributor.

Backlog shards hold the per-(src, dst) dedup table for a contiguous slice of
the source space and fill demands into fixed-capacity bins in LRU order.
Round r sends shard x's bin to alloc set (A*x + B) mod K; the set scans the
bin against fresh bitmaps and fills the result bits (``alloc_process``), then
splits spent from remaining entries and emits the admitted edges
(``postalloc_process``), and the inverse distributor carries the bin back to
its origin shard based on the same round's parameters.

``ShuffleEngine`` is the only copy of a round.  The deterministic replay
steps it once per round of replayed time; the paced ``ShuffleMachine`` steps
it from its single thread.

Set s of round r allocates the batch starting at slot 1 + (r*S + s)*B, so a
round emits S consecutive batches, in slot order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    """Fixed-capacity demand container circulated from a shard to a set and back."""

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


class ShuffleEngine:
    """One shuffle allocator: K backlog shards, K alloc sets, the distributor.

    ``step`` runs one round.  Every shard fills its bin and the distributor
    carries it to alloc set ``permute(x, r)``; every set allocates and splits
    the bin it takes, and the inverse distributor carries the bin home.  Bins
    travel through two K x K grids of one-slot mailboxes, ``dist[x][y]`` out
    and ``inv[y][x]`` back, and every cell is empty again when a round ends.
    """

    def __init__(self, cfg: Config) -> None:
        self.cfg = cfg
        num_sets = cfg.sets
        self.perm = PermutationSpec(num_sets)
        self.shards = [
            BacklogShard(x, lo, hi, cfg.num_priority_bins)
            for x, (lo, hi) in enumerate(_shard_ranges(cfg.num_nodes, num_sets))
        ]
        self.dist = [[Mailbox() for _ in range(num_sets)] for _ in range(num_sets)]
        self.inv = [[Mailbox() for _ in range(num_sets)] for _ in range(num_sets)]
        self.round_index = 0
        self.allocated_slots = 0
        self.circulation_ns: List[int] = []  # send-to-return time of every bin

    def base_for(self, set_id: int, round_index: int) -> int:
        return 1 + (round_index * self.cfg.sets + set_id) * self.cfg.batch_size

    def step(self) -> List[AdmittedBatch]:
        """Run one round; return its batches in slot order."""
        cfg = self.cfg
        perm = self.perm
        r = self.round_index
        for shard in self.shards:
            x = shard.shard_id
            target = perm.permute(x, r)
            bin_ = Bin(origin=x, round_index=r, capacity=cfg.bin_capacity)
            shard.fill_bin(bin_, self.base_for(target, r))
            bin_.sent_ns = time.monotonic_ns()
            self.dist[x][target].try_put(bin_)

        batches: List[AdmittedBatch] = []
        for y in range(cfg.sets):
            bin_ = self.dist[perm.invert(y, r)][y].try_take()
            # the cell was picked with invert(); check the bin with permute()
            if bin_ is None or bin_.round_index != r or perm.permute(bin_.origin, r) != y:
                got = "no bin" if bin_ is None else (
                    f"shard {bin_.origin}'s bin of round {bin_.round_index}"
                )
                raise RuntimeError(f"inverse distributor gave alloc set {y} of round {r} {got}")
            base = self.base_for(y, r)
            alloc_process(bin_, BatchBitmaps(cfg.num_nodes, cfg.batch_size), base)
            edges = postalloc_process(bin_, base)
            batches.append(AdmittedBatch(base, cfg.batch_size, tuple(edges)))
            self.allocated_slots += len(edges)
            self.inv[y][bin_.origin].try_put(bin_)

        for shard in self.shards:
            x = shard.shard_id
            bin_ = self.inv[perm.permute(x, r)][x].try_take()
            self.circulation_ns.append(time.monotonic_ns() - bin_.sent_ns)
            shard.absorb_return(bin_)
        self.round_index += 1
        return batches

    def pending_slots(self) -> int:
        return sum(shard.pending_slots() for shard in self.shards)


def run_shuffle_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_rounds: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Single-thread replay of the full circulation, one bin per shard per round."""
    engine = ShuffleEngine(cfg)
    batches: List[AdmittedBatch] = []
    emit = batches.append if sink is None else sink

    cursor = ArrivalCursor(arrivals)
    metrics = Metrics()
    slot_ns = cfg.slot_ns

    for _ in range(max_rounds):
        released = cursor.release((engine.base_for(0, engine.round_index) - 1) * slot_ns)
        for demand in released:
            engine.shards[shard_for_src(demand.src, cfg.num_nodes, cfg.sets)].ingest(demand)
            metrics.demanded_slots += demand.remaining
        if metrics.demanded_slots == engine.allocated_slots and cursor.exhausted:
            break
        for batch in engine.step():
            emit(batch)

    metrics.allocated_slots = engine.allocated_slots
    metrics.pending_slots = engine.pending_slots()
    metrics.lane_counters = {
        "staging": [len(shard.staging) for shard in engine.shards],
    }
    return RunResult(metrics, batches)


#: Per-shard staging ceiling in paced mode; the ingest conduit backs up (and
#: the generator reports overload) rather than staging growing unbounded.
_STAGING_HIGH_WATER = 8192


def _circulation_stats(samples_ns: Sequence[int]) -> Dict[str, float]:
    """Mean, p50 and p99 of circulation times, in microseconds."""
    flat = sorted(samples_ns)
    return {
        "mean_us": sum(flat) / len(flat) / 1000.0,
        "p50_us": flat[len(flat) // 2] / 1000.0,
        "p99_us": flat[min(len(flat) - 1, int(len(flat) * 0.99))] / 1000.0,
    }


class ShuffleMachine:
    """Paced shuffle: one thread steps the engine.

    Each pass moves demands from the per-shard ingest conduits into the
    shards, at most up to ``_STAGING_HIGH_WATER`` staged each, and runs one
    round.
    """

    def __init__(self, cfg: Config, sink: BatchSink) -> None:
        self.cfg = cfg
        self.sink = sink
        self.engine = ShuffleEngine(cfg)
        self.ingest_conduits = [SpscQueue(cfg.mailbox_depth) for _ in range(cfg.sets)]
        self.stop_event = threading.Event()
        self.runner = LaneThread("shuffle", self.stop_event, target=self._run)

    def _run(self) -> None:
        engine = self.engine
        feeds = list(zip(engine.shards, self.ingest_conduits))
        while not self.stop_event.is_set():
            for shard, conduit in feeds:
                while len(shard.staging) < _STAGING_HIGH_WATER:
                    demand = conduit.try_take()
                    if demand is None:
                        break
                    shard.ingest(demand)
            idle = not any(shard.staging for shard in engine.shards)
            for batch in engine.step():
                self.sink(batch)
            # Yield once per round so the generators can refill the conduits;
            # rest for 100 us when there was nothing to allocate.
            time.sleep(0.0001 if idle else 0)

    def push(self, demand: Demand) -> bool:
        shard = shard_for_src(demand.src, self.cfg.num_nodes, self.cfg.sets)
        return self.ingest_conduits[shard].try_put(demand)

    def allocated_slots(self) -> int:
        return self.engine.allocated_slots

    def start(self) -> None:
        self.runner.start()

    def stop_and_join(self) -> None:
        join_lanes(self.stop_event, [self.runner])

    def pending_slots(self) -> int:
        queued = sum(d.remaining for c in self.ingest_conduits for d in c.snapshot())
        return queued + self.engine.pending_slots()

    def lane_counters(self) -> dict:
        engine = self.engine
        counters = {
            "rounds": engine.round_index,
            "emitted_batches": engine.round_index * self.cfg.sets,
            "allocated": engine.allocated_slots,
            "circulations": len(engine.circulation_ns),
        }
        if engine.circulation_ns:
            stats = _circulation_stats(engine.circulation_ns)
            counters["circulation_p50_us"] = stats["p50_us"]
            counters["circulation_p99_us"] = stats["p99_us"]
        return counters


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

    Steps a ShuffleEngine ``circulations`` rounds.  A standing backlog of
    ``entries_per_bin`` distinct pairs per shard keeps every bin full, and the
    engine records the send-to-return time of every bin.  Returns the latency
    stats of all ``circulations * num_sets`` samples, in microseconds.
    """
    cfg = Config(
        num_nodes,
        architecture=Architecture.SHUFFLE,
        batch_size=batch_size,
        sets=num_sets,
        bin_capacity=entries_per_bin,
    )
    engine = ShuffleEngine(cfg)
    for shard in engine.shards:
        width = shard.src_hi - shard.src_lo
        for i in range(entries_per_bin):
            src = shard.src_lo + i % width
            shard.ingest(Demand(src, (src + 1 + i // width) % num_nodes, _STANDING_DEMAND))
    for _ in range(circulations):
        engine.step()
    if not engine.circulation_ns:
        raise RuntimeError("distributor bench produced no samples")
    return {
        "sets": float(num_sets),
        "circulations": float(len(engine.circulation_ns)),
        **_circulation_stats(engine.circulation_ns),
    }
