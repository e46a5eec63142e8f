"""Pipelined allocator: a ring of kernel contexts over consecutive batches.

The context at the head of the ring holds the oldest batch and is the only
consumer of QHead, the ingestion conduit.  Every context drains its inbound
conduit, sweeps its kernel and forwards survivors to the neighbour handling
the next batch.  When the head completes its tenure it emits its admitted
batch, re-seeds at the tail with fresh bitmaps, and the next context becomes
head.  Forwarded demands are tagged with the first batch allowed to consider
them, so a survivor forwarded at batch b is never drained before b + 1.

Two drivers are provided: a deterministic single-thread round-robin (used for
replay, equivalence and the worked examples) and a paced one-thread-per-
context driver for wall-clock stress runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from .conduits import SpscQueue
from .kernel import GreedyKernel
from .model import (
    AdmittedBatch,
    Config,
    Demand,
    Metrics,
    RunResult,
    throughput_bps,
)
from .workload import Arrival, ArrivalCursor

BatchSink = Callable[[AdmittedBatch], None]

#: Demands pulled from QHead per head pass in paced mode, so rotation stays
#: timely under overload.
_QHEAD_CHUNK = 512

#: Stop pulling from QHead while this many survivors wait for a slow
#: downstream conduit; ingestion backpressure keeps memory bounded.
_FORWARD_HIGH_WATER = 4096

#: Ceiling on unallocated slots circulating inside the ring.  Ingestion
#: pauses above it, so overload backs up into QHead instead of RAM.
_INFLIGHT_SLOT_LIMIT = 262_144


@dataclass
class _Context:
    kernel: GreedyKernel
    base_slot: int
    in_q: Deque[Tuple[int, Demand]] = field(default_factory=deque)


def run_pipeline_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_steps: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Single-lane replay: contexts step round-robin, head first.

    Arrivals are released into QHead once the head's batch start time passes
    their arrival time.  The run ends when every released demand has been
    satisfied (or ``max_steps`` is hit), then the still-unemitted batches are
    flushed in slot order.
    """
    num_ctx = cfg.cores
    batch = cfg.batch_size
    slot_ns = cfg.slot_ns
    contexts = [
        _Context(
            GreedyKernel(cfg.num_nodes, batch, cfg.num_priority_bins, cfg.mode),
            base_slot=1 + i * batch,
        )
        for i in range(num_ctx)
    ]
    for ctx in contexts:
        ctx.kernel.reset(ctx.base_slot)

    batches: List[AdmittedBatch] = []
    collect = sink is None
    emit = batches.append if collect else sink

    qhead: Deque[Demand] = deque()
    cursor = ArrivalCursor(arrivals)
    ingest_pos = num_ctx // 2 if cfg.mid_pipeline_ingest else 0

    metrics = Metrics()
    live_slots = 0
    next_base = 1 + num_ctx * batch
    head = 0
    pos_drained = [0] * num_ctx

    for _ in range(max_steps):
        for demand in cursor.release((contexts[head].base_slot - 1) * slot_ns):
            qhead.append(demand)
            metrics.demanded_slots += demand.remaining
            live_slots += demand.remaining

        for pos in range(num_ctx):
            ctx = contexts[(head + pos) % num_ctx]
            feed: List[Demand] = []
            while ctx.in_q and ctx.in_q[0][0] <= ctx.base_slot:
                feed.append(ctx.in_q.popleft()[1])
            if pos == ingest_pos:
                while qhead:
                    feed.append(qhead.popleft())
            if feed or not ctx.kernel.bins.is_empty():
                ctx.kernel.ingest(feed)
                result = ctx.kernel.sweep()
                pos_drained[pos] += result.drained
                live_slots -= len(result.edges)
                nxt = contexts[((head + pos) % num_ctx + 1) % num_ctx]
                tag = ctx.base_slot + batch
                for demand in result.outflow:
                    nxt.in_q.append((tag, demand))

        head_ctx = contexts[head]
        admitted, flush = head_ctx.kernel.finish()
        nxt = contexts[(head + 1) % num_ctx]
        tag = head_ctx.base_slot + batch
        for demand in flush:
            nxt.in_q.append((tag, demand))
        emit(admitted)
        metrics.allocated_slots += len(admitted.edges)
        head_ctx.kernel.reset(next_base)
        head_ctx.base_slot = next_base
        next_base += batch
        head = (head + 1) % num_ctx

        if live_slots == 0 and cursor.exhausted:
            break

    # flush the batches still riding the ring, oldest first
    for pos in range(num_ctx):
        ctx = contexts[(head + pos) % num_ctx]
        admitted, flush = ctx.kernel.finish()
        emit(admitted)
        metrics.allocated_slots += len(admitted.edges)
        for demand in flush:
            ctx.in_q.append((ctx.base_slot, demand))

    pending = sum(d.remaining for d in qhead)
    pending += sum(item[1].remaining for ctx in contexts for item in ctx.in_q)
    metrics.pending_slots = pending
    metrics.lane_counters = {"position_drained": pos_drained}
    return RunResult(metrics, batches)


class _PipelineShared:
    """Rotation state; written only by the current token holder.

    ``taken_slots`` is written only by the current ingestor, which the token
    also serializes.
    """

    __slots__ = ("head_idx", "deadline_ns", "next_base", "taken_slots")

    def __init__(self, num_ctx: int, batch: int) -> None:
        self.head_idx = 0
        self.deadline_ns = 0
        self.next_base = 1 + num_ctx * batch
        self.taken_slots = 0


class _ContextLane(threading.Thread):
    def __init__(
        self,
        idx: int,
        cfg: Config,
        shared: _PipelineShared,
        qhead: SpscQueue,
        in_q: SpscQueue,
        out_q: SpscQueue,
        sink: BatchSink,
        sink_lock: threading.Lock,
        stop_event: threading.Event,
        allocated_total: Callable[[], int],
    ) -> None:
        super().__init__(name=f"alloc-ctx-{idx}", daemon=True)
        self.idx = idx
        self.cfg = cfg
        self.shared = shared
        self.qhead = qhead
        self.in_q = in_q
        self.out_q = out_q
        self.sink = sink
        self.sink_lock = sink_lock
        self.stop_event = stop_event
        self.allocated_total = allocated_total
        self.kernel = GreedyKernel(
            cfg.num_nodes, cfg.batch_size, cfg.num_priority_bins, cfg.mode
        )
        self.base_slot = 1 + idx * cfg.batch_size
        self.kernel.reset(self.base_slot)
        self.allocated_slots = 0
        self.drained = 0
        self.emitted_batches = 0
        self._held: Optional[Tuple[int, Demand]] = None
        self._forward_backlog: Deque[Tuple[int, Demand]] = deque()
        self._tenure_ns = cfg.batch_size * cfg.slot_ns
        self._ingest_offset = cfg.cores // 2 if cfg.mid_pipeline_ingest else 0

    # -- helpers ---------------------------------------------------------

    def _is_ingestor(self) -> bool:
        return (self.idx - self.shared.head_idx) % self.cfg.cores == self._ingest_offset

    def _push_forward(self) -> None:
        while self._forward_backlog:
            if self.out_q.try_put(self._forward_backlog[0]):
                self._forward_backlog.popleft()
            else:
                return

    def _forward(self, demands: Sequence[Demand], tag: int) -> None:
        for demand in demands:
            self._forward_backlog.append((tag, demand))
        self._push_forward()

    def _gather_feed(self) -> List[Demand]:
        feed: List[Demand] = []
        while True:
            item = self._held if self._held is not None else self.in_q.try_take()
            self._held = None
            if item is None:
                break
            if item[0] > self.base_slot:
                self._held = item
                break
            feed.append(item[1])
        if (
            self._is_ingestor()
            and len(self._forward_backlog) < _FORWARD_HIGH_WATER
            and self.shared.taken_slots - self.allocated_total() < _INFLIGHT_SLOT_LIMIT
        ):
            for _ in range(_QHEAD_CHUNK):
                demand = self.qhead.try_take()
                if demand is None:
                    break
                feed.append(demand)
                self.shared.taken_slots += demand.remaining
        return feed

    # -- main loop -------------------------------------------------------

    def run(self) -> None:
        cfg = self.cfg
        while not self.stop_event.is_set():
            worked = False
            self._push_forward()
            feed = self._gather_feed()
            if feed or not self.kernel.bins.is_empty():
                self.kernel.ingest(feed)
                result = self.kernel.sweep()
                self.drained += result.drained
                self.allocated_slots += len(result.edges)
                self._forward(result.outflow, self.base_slot + cfg.batch_size)
                worked = True
            if self.shared.head_idx == self.idx:
                now = time.monotonic_ns()
                if now >= self.shared.deadline_ns:
                    self._rotate(now)
                    worked = True
            if not worked:
                time.sleep(0.0001)

    def _rotate(self, now: int) -> None:
        cfg = self.cfg
        admitted, flush = self.kernel.finish()
        self._forward(flush, self.base_slot + cfg.batch_size)
        with self.sink_lock:
            self.sink(admitted)
        self.emitted_batches += 1
        self.base_slot = self.shared.next_base
        self.kernel.reset(self.base_slot)
        self.shared.next_base += cfg.batch_size
        self.shared.deadline_ns = max(now, self.shared.deadline_ns + self._tenure_ns)
        # token release must come last: the next holder owns the shared state
        self.shared.head_idx = (self.idx + 1) % cfg.cores

    def pending_slots(self) -> int:
        pending = self.kernel.pending_slots()
        if self._held is not None:
            pending += self._held[1].remaining
        pending += sum(d.remaining for _, d in self._forward_backlog)
        return pending


class PipelineMachine:
    """Paced pipeline: one thread per context plus the QHead conduit."""

    def __init__(self, cfg: Config, sink: BatchSink) -> None:
        self.cfg = cfg
        self.qhead = SpscQueue(cfg.mailbox_depth)
        self.stop_event = threading.Event()
        shared = _PipelineShared(cfg.cores, cfg.batch_size)
        shared.deadline_ns = time.monotonic_ns()
        sink_lock = threading.Lock()
        conduits = [SpscQueue(cfg.mailbox_depth) for _ in range(cfg.cores)]
        self.lanes = [
            _ContextLane(
                i,
                cfg,
                shared,
                self.qhead,
                conduits[i],
                conduits[(i + 1) % cfg.cores],
                sink,
                sink_lock,
                self.stop_event,
                self.allocated_slots,
            )
            for i in range(cfg.cores)
        ]
        self._conduits = conduits
        self._final_batches: List[AdmittedBatch] = []
        self._sink = sink

    def push(self, demand: Demand) -> bool:
        return self.qhead.try_put(demand)

    def allocated_slots(self) -> int:
        return sum(lane.allocated_slots for lane in self.lanes)

    def start(self) -> None:
        for lane in self.lanes:
            lane.start()

    def stop_and_join(self) -> None:
        self.stop_event.set()
        for lane in self.lanes:
            lane.join()
        # emit the in-flight batches so verification sees every claimed slot
        for lane in sorted(self.lanes, key=lambda c: c.base_slot):
            admitted, flush = lane.kernel.finish()
            self._sink(admitted)
            for demand in flush:
                lane._forward_backlog.append((lane.base_slot, demand))

    def pending_slots(self) -> int:
        pending = sum(lane.pending_slots() for lane in self.lanes)
        pending += sum(d.remaining for d in self.qhead.drain())
        for conduit in self._conduits:
            pending += sum(d.remaining for _, d in conduit.drain())
        return pending

    def lane_counters(self) -> dict:
        return {
            "drained": [lane.drained for lane in self.lanes],
            "allocated": [lane.allocated_slots for lane in self.lanes],
            "emitted_batches": [lane.emitted_batches for lane in self.lanes],
        }
