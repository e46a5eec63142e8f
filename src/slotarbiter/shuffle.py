"""Random-shuffle architecture: backlog shards, alloc sets, distributor.

Backlog shards hold the per-(src, dst) dedup table for a contiguous slice of
the source space.  Each round, every shard x of the K takes its whole staged
backlog in LRU order (``fill_bin``) and deals it round-robin into K bins, and
the distributor sends bin k to alloc set (permute(x, r) + k) mod K, so every
set gets one bin from every shard.  A set checks each bin's round, index and
target before it claims slots for its K bins against one shared set of fresh
bitmaps, one ``kernel.allocate_slots`` pass per bin whose per-entry masks are
the result bits (``alloc_process``); it splits spent from remaining entries
and emits the claims, served entries and masks, as one batch
(``postalloc_process``), and the inverse distributor carries every bin home.

``ShuffleEngine`` is the only copy of a round, behind the engine contract
of ``engine.py``: ``admit`` routes demands to their shards and ``emit`` runs
one round.

Set s of round r allocates the batch starting at slot 1 + (r*S + s)*B, so a
round emits S consecutive batches, in slot order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .conduits import Mailbox
from .engine import BatchSink, replay
from .kernel import allocate_slots, lru_order, settle
from .model import AdmittedBatch, Architecture, BatchBitmaps, Config, Demand, DemandRow, RunResult
from .permutation import PermutationSpec
from .workload import Arrival, shard_range

@dataclass
class Bin:
    """Demand-row container circulated from a shard to a set and back."""

    origin: int
    round_index: int = 0
    index: int = 0  # k among the origin shard's K bins of the round
    capacity: int = 0  # the count ``fill_bin`` took, so a filled bin is full
    sent_ns: int = 0  # monotonic stamp of the origin shard's send of the round's bins
    entries: List[DemandRow] = field(default_factory=list)
    result_bits: List[int] = field(default_factory=list)
    completed: List[Tuple[int, int, int]] = field(default_factory=list)  # (src, dst, last_alloc)
    remainders: List[DemandRow] = field(default_factory=list)

    def clear(self) -> None:
        self.entries = []
        self.result_bits = []
        self.completed = []
        self.remainders = []


class BacklogShard:
    """Dedup table plus staging for one slice of the source space.

    At most one live demand per (src, dst) exists anywhere in the system:
    ``live`` maps each pair in flight to the slots requested for it since it
    went live, which are reissued as a fresh demand when the live copy
    completes.  ``last_alloc`` keeps every pair's LRU key across its trips.
    """

    def __init__(self, shard_id: int, src_lo: int, src_hi: int) -> None:
        self.shard_id = shard_id
        self.src_lo = src_lo
        self.src_hi = src_hi
        self.live: Dict[Tuple[int, int], int] = {}
        self.last_alloc: Dict[Tuple[int, int], int] = {}
        self.staging: List[DemandRow] = []

    def ingest(self, rows: Iterable[DemandRow]) -> None:
        """Stage each row whose pair is not live; accrue the rest on their pair."""
        lo = self.src_lo
        hi = self.src_hi
        live = self.live
        last_of = self.last_alloc
        stage = self.staging.append
        for row in rows:
            src, dst, remaining, last_alloc = row
            if not lo <= src < hi:
                raise ValueError(
                    f"src {src} outside shard {self.shard_id} range [{lo}, {hi})"
                )
            pair = (src, dst)
            if pair in live:
                live[pair] += remaining
                continue
            live[pair] = 0
            # staged rows carry the pair's LRU key; a fresh pair's is 0 already
            key = last_of.get(pair, 0)
            stage(row if last_alloc == key else (src, dst, remaining, key))

    def fill_bin(self, bin_: Bin, current_base: int) -> None:
        """Move every staged demand into the bin, most-starved first.

        The bin takes the staging list in ``lru_order`` for ``current_base``
        and sets its capacity to the count taken; staging is left empty.  The
        engine fills one bin per shard per round and deals it.
        """
        bin_.entries = lru_order(self.staging, current_base)
        bin_.capacity = len(bin_.entries)
        self.staging = []

    def absorb_return(self, bin_: Bin) -> None:
        """Take a returned bin apart: close spent pairs, restage remainders."""
        live = self.live
        for src, dst, last_alloc in bin_.completed:
            pair = (src, dst)
            self.last_alloc[pair] = last_alloc
            accrued = live[pair]
            if accrued:
                self.staging.append((src, dst, accrued, last_alloc))
                live[pair] = 0
            else:
                del live[pair]
        # a remainder's pair key is read only after a completion sets it
        self.staging.extend(bin_.remainders)
        bin_.clear()

    def pending_slots(self) -> int:
        return sum(d[2] for d in self.staging) + sum(self.live.values())


def alloc_process(bin_: Bin, bitmaps: BatchBitmaps) -> None:
    """Claim slots for the bin with one ``allocate_slots`` pass, in bin order.

    No sorting happens here; the backlog fill order is the priority order.
    The entries themselves are left untouched; the pass's masks become the
    result bits.
    """
    bin_.result_bits = allocate_slots(bitmaps, bin_.entries)


def postalloc_process(bin_: Bin, base_slot: int) -> Tuple[List[DemandRow], List[int]]:
    """Settle the bin's entries and return the claims ``alloc_process`` made:
    the served entries, in bin order, and their masks.

    Spent entries become completions and the rest remainder rows (see
    ``kernel.settle``), stored on the bin for the trip home.
    """
    entries, bits = bin_.entries, bin_.result_bits
    completed: List[Tuple[int, int, int]] = []
    remainders = settle(entries, bits, base_slot, completed)
    bin_.clear()
    bin_.completed = completed
    bin_.remainders = remainders
    return list(compress(entries, bits)), list(filter(None, bits))


class ShuffleEngine:
    """One shuffle allocator: K backlog shards, K alloc sets, the distributor.

    ``emit`` runs one full-width round.  Every shard deals its whole staged
    backlog, in LRU order, round-robin into K bins (bin k gets entries k,
    k + K, ...), and the distributor carries its bin k to alloc set
    ``(permute(x, r) + k) mod K``, so each set gets one bin from every
    shard.  Set y takes its bin k from shard ``invert((y - k) mod K, r)``
    and checks the bin's round, its index and ``permute(origin, r) + index
    == y`` (mod K), raising ``RuntimeError`` on any mismatch; it allocates its
    K bins in ascending k into one batch.  The inverse distributor carries
    every bin home.  Bins travel through two K x K grids of one-slot
    mailboxes, ``dist[x][y]`` out and ``inv[y][x]`` back: each cell carries
    exactly one bin per round and is empty again when the round ends.  One
    circulation sample per shard per round runs from the shard's send of its
    K bins to the return of its last one.
    """

    cancelled_slots = 0

    def __init__(self, cfg: Config) -> None:
        self.cfg = cfg
        num_sets = cfg.sets
        self.perm = PermutationSpec(num_sets)
        self.shards = [
            BacklogShard(x, *shard_range(cfg.num_nodes, x, num_sets)) for x in range(num_sets)
        ]
        self.dist = [[Mailbox() for _ in range(num_sets)] for _ in range(num_sets)]
        self.inv = [[Mailbox() for _ in range(num_sets)] for _ in range(num_sets)]
        self.round_index = 0
        self.allocated_slots = 0
        self.circulation_ns: List[int] = []  # one send-to-last-return time per shard per round

    def base_for(self, set_id: int, round_index: int) -> int:
        return 1 + (round_index * self.cfg.sets + set_id) * self.cfg.batch_size

    @property
    def next_base(self) -> int:
        return self.base_for(0, self.round_index)

    def admit(self, demands: Sequence[DemandRow]) -> bool:
        """Split the demands by the shard that owns their source; each shard
        ingests its part in one call."""
        shards = self.shards
        num_sets = len(shards)
        num_nodes = self.cfg.num_nodes
        parts: List[List[DemandRow]] = [[] for _ in shards]
        add = [part.append for part in parts]
        for demand in demands:
            # ``shard_of`` inlined; an out-of-range source still lands in a
            # shard, and that shard's range check rejects it
            add[demand[0] * num_sets // num_nodes % num_sets](demand)
        for shard, part in zip(shards, parts):
            if part:
                shard.ingest(part)
        return any(shard.staging for shard in shards)

    def emit(self) -> List[AdmittedBatch]:
        """Run one round; return its batches in slot order."""
        cfg = self.cfg
        perm = self.perm
        num_sets = cfg.sets
        r = self.round_index
        first_base = self.base_for(0, r)
        for shard in self.shards:
            x = shard.shard_id
            take = Bin(origin=x)
            shard.fill_bin(take, first_base)
            target = perm.permute(x, r)
            sent_ns = time.monotonic_ns()
            for k in range(num_sets):
                bin_ = Bin(x, r, k, sent_ns=sent_ns, entries=take.entries[k::num_sets])
                self.dist[x][(target + k) % num_sets].try_put(bin_)

        batches: List[AdmittedBatch] = []
        for y in range(num_sets):
            base = self.base_for(y, r)
            bitmaps = BatchBitmaps(cfg.num_nodes, cfg.batch_size)
            rows: List[DemandRow] = []
            masks: List[int] = []
            for k in range(num_sets):
                bin_ = self.dist[perm.invert((y - k) % num_sets, r)][y].try_take()
                # the cell was picked with invert(); check the bin with permute()
                if (
                    bin_ is None
                    or bin_.round_index != r
                    or bin_.index != k
                    or (perm.permute(bin_.origin, r) + k) % num_sets != y
                ):
                    got = "no bin" if bin_ is None else (
                        f"shard {bin_.origin}'s bin {bin_.index} of round {bin_.round_index}"
                    )
                    raise RuntimeError(
                        f"inverse distributor gave alloc set {y} of round {r} {got} as bin {k}"
                    )
                alloc_process(bin_, bitmaps)
                served, claimed = postalloc_process(bin_, base)
                rows += served
                masks += claimed
                self.inv[y][bin_.origin].try_put(bin_)
            batches.append(AdmittedBatch.from_claims(base, cfg.batch_size, rows, masks))
            self.allocated_slots += len(batches[-1])

        for shard in self.shards:
            x = shard.shard_id
            target = perm.permute(x, r)
            for k in range(num_sets):
                bin_ = self.inv[(target + k) % num_sets][x].try_take()
                shard.absorb_return(bin_)
            self.circulation_ns.append(time.monotonic_ns() - bin_.sent_ns)
        self.round_index += 1
        return batches

    def close(self) -> List[AdmittedBatch]:
        return []

    def pending_slots(self) -> int:
        return sum(shard.pending_slots() for shard in self.shards)

    def counters(self) -> Dict[str, object]:
        counters: Dict[str, object] = {
            "staging": [len(shard.staging) for shard in self.shards],
            "rounds": self.round_index,
            "allocated": self.allocated_slots,
            "circulations": len(self.circulation_ns),
        }
        if self.circulation_ns:
            stats = _circulation_stats(self.circulation_ns)
            counters["circulation_p50_us"] = stats["p50_us"]
            counters["circulation_p99_us"] = stats["p99_us"]
        return counters


def run_shuffle_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_rounds: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Replay a trace through a ``ShuffleEngine`` (see ``engine.replay``)."""
    return replay(ShuffleEngine(cfg), cfg, arrivals, max_rounds, sink)


def _circulation_stats(samples_ns: Sequence[int]) -> Dict[str, float]:
    """Mean, p50 and p99 of circulation times, in microseconds."""
    flat = sorted(samples_ns)
    return {
        "mean_us": sum(flat) / len(flat) / 1000.0,
        "p50_us": flat[len(flat) // 2] / 1000.0,
        "p99_us": flat[min(len(flat) - 1, int(len(flat) * 0.99))] / 1000.0,
    }


# ---------------------------------------------------------------------------
# Distributor microbenchmark
# ---------------------------------------------------------------------------


#: Slots each standing-backlog demand asks for: more than any bench serves,
#: so every pair stays live and every returned entry is restaged.
_STANDING_DEMAND = 1 << 40


def bench_distributor(
    num_sets: int,
    circulations: int = 1000,
    entries_per_shard: int = 64,
    num_nodes: int = 256,
    batch_size: int = 8,
) -> Dict[str, float]:
    """Measure bin circulation latency through backlog -> alloc -> postalloc.

    Steps a ShuffleEngine ``circulations`` rounds.  Each shard holds a
    standing backlog of ``entries_per_shard`` distinct pairs and hands all of
    it out every round, dealt across its K bins.  One circulation sample runs
    from a shard's send of its K bins to the return of its last one.  Returns
    the latency stats of all ``circulations * num_sets`` samples, in
    microseconds.
    """
    cfg = Config(num_nodes, Architecture.SHUFFLE, batch_size=batch_size, sets=num_sets)
    engine = ShuffleEngine(cfg)
    for shard in engine.shards:
        width = shard.src_hi - shard.src_lo
        rows = []
        for i in range(entries_per_shard):
            src = shard.src_lo + i % width
            rows.append(Demand(src, (src + 1 + i // width) % num_nodes, _STANDING_DEMAND))
        shard.ingest(rows)
    for _ in range(circulations):
        engine.emit()
    if not engine.circulation_ns:
        raise RuntimeError("distributor bench produced no samples")
    return {
        "sets": float(num_sets),
        "circulations": float(len(engine.circulation_ns)),
        **_circulation_stats(engine.circulation_ns),
    }
