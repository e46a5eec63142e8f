"""Pipelined allocator: a ring of kernel contexts over consecutive batches.

The context at the head of the ring holds the oldest batch.  Fresh demands
enter at the ingest position (the head, or mid-ring).  Every context feeds
its inbound queue to its kernel, sweeps it and forwards its survivors, as one
list, to the neighbour handling the next batch.  When the head completes its
tenure it emits its admitted batch, re-seeds at the tail with fresh bitmaps,
and the next context becomes head.  Each forwarded list is tagged with the first
batch allowed to consider it, so a survivor forwarded at batch b is never
drained before b + 1.

``PipelineRing`` holds that state and its three steps (sweep, rotate,
close).  Two drivers schedule it: a deterministic loop that rotates after
every sweep (replay, equivalence and the worked examples), and a paced
machine whose single thread rotates whenever a tenure of wall time passes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from .conduits import LaneThread, SpscQueue, join_lanes
from .kernel import GreedyKernel
from .model import AdmittedBatch, Config, Demand, Metrics, RunResult
from .workload import Arrival, ArrivalCursor

BatchSink = Callable[[AdmittedBatch], None]

#: Demands taken from QHead per pass in paced mode, so rotation stays timely
#: under overload.
_QHEAD_CHUNK = 512

#: Ceiling on unallocated slots circulating inside the ring.  Ingestion
#: pauses above it, so overload backs up into QHead instead of RAM.
_INFLIGHT_SLOT_LIMIT = 262_144


@dataclass
class _Context:
    kernel: GreedyKernel
    base_slot: int
    in_q: Deque[Tuple[int, List[Demand]]] = field(default_factory=deque)


class PipelineRing:
    """The ring's contexts, its head, and the steps both drivers schedule."""

    def __init__(self, cfg: Config) -> None:
        self.batch = cfg.batch_size
        self.contexts = [
            _Context(
                GreedyKernel(cfg.num_nodes, cfg.batch_size, cfg.mode),
                base_slot=1 + i * cfg.batch_size,
            )
            for i in range(cfg.cores)
        ]
        for ctx in self.contexts:
            ctx.kernel.reset(ctx.base_slot)
        self.head = 0
        self.next_base = 1 + cfg.cores * cfg.batch_size
        self.ingest_pos = cfg.cores // 2 if cfg.mid_pipeline_ingest else 0
        self.position_drained = [0] * cfg.cores
        self.allocated_slots = 0

    def _forward(self, idx: int, demands: List[Demand]) -> None:
        """Hand survivors of context ``idx`` to its successor, for the next batch."""
        if demands:
            tag = self.contexts[idx].base_slot + self.batch
            self.contexts[(idx + 1) % len(self.contexts)].in_q.append((tag, demands))

    def sweep(self, fresh: Sequence[Demand]) -> bool:
        """One pass over the ring, head first; ``fresh`` enters at the ingest position.

        Returns whether any context had work.
        """
        num_ctx = len(self.contexts)
        worked = False
        for pos in range(num_ctx):
            idx = (self.head + pos) % num_ctx
            ctx = self.contexts[idx]
            feed: List[Demand] = []
            while ctx.in_q and ctx.in_q[0][0] <= ctx.base_slot:
                feed.extend(ctx.in_q.popleft()[1])
            if pos == self.ingest_pos:
                feed.extend(fresh)
            if feed or not ctx.kernel.is_empty():
                ctx.kernel.ingest(feed)
                result = ctx.kernel.sweep()
                self.position_drained[pos] += result.drained
                self.allocated_slots += len(result.edges)
                self._forward(idx, result.outflow)
                worked = True
        return worked

    def rotate(self) -> AdmittedBatch:
        """Close the head's batch, re-seed it at the tail, advance the head."""
        ctx = self.contexts[self.head]
        admitted, flush = ctx.kernel.finish()
        self._forward(self.head, flush)
        ctx.kernel.reset(self.next_base)
        ctx.base_slot = self.next_base
        self.next_base += self.batch
        self.head = (self.head + 1) % len(self.contexts)
        return admitted

    def close(self) -> List[AdmittedBatch]:
        """Finish every batch still riding the ring, oldest first.

        Their survivors stay in the inbound queues, where ``pending_slots``
        counts them.
        """
        num_ctx = len(self.contexts)
        closed: List[AdmittedBatch] = []
        for pos in range(num_ctx):
            ctx = self.contexts[(self.head + pos) % num_ctx]
            admitted, flush = ctx.kernel.finish()
            closed.append(admitted)
            if flush:
                ctx.in_q.append((ctx.base_slot, flush))
        return closed

    def pending_slots(self) -> int:
        return sum(
            ctx.kernel.pending_slots()
            + sum(d.remaining for _, demands in ctx.in_q for d in demands)
            for ctx in self.contexts
        )


def run_pipeline_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_steps: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Single-thread replay: release, sweep the ring, rotate; then close.

    Arrivals are released at the ingest position once the head's batch start
    time passes their arrival time.  The run ends when every released demand
    has been satisfied (or ``max_steps`` is hit), then the still-unemitted
    batches are closed in slot order.
    """
    ring = PipelineRing(cfg)
    batches: List[AdmittedBatch] = []
    emit = batches.append if sink is None else sink
    cursor = ArrivalCursor(arrivals)
    metrics = Metrics()
    slot_ns = cfg.slot_ns

    for _ in range(max_steps):
        fresh = cursor.release((ring.contexts[ring.head].base_slot - 1) * slot_ns)
        metrics.demanded_slots += sum(d.remaining for d in fresh)
        ring.sweep(fresh)
        emit(ring.rotate())
        if metrics.demanded_slots == ring.allocated_slots and cursor.exhausted:
            break

    for admitted in ring.close():
        emit(admitted)
    metrics.allocated_slots = ring.allocated_slots
    metrics.pending_slots = ring.pending_slots()
    metrics.lane_counters = {"position_drained": ring.position_drained}
    return RunResult(metrics, batches)


class PipelineMachine:
    """Paced pipeline: one thread steps the ring against the wall clock.

    It takes demands from QHead while the ring's in-flight slots stay under
    ``_INFLIGHT_SLOT_LIMIT``, sweeps, and rotates whenever the head's tenure
    (one batch of slot times) has passed.
    """

    def __init__(self, cfg: Config, sink: BatchSink) -> None:
        self.cfg = cfg
        self.sink = sink
        self.qhead: SpscQueue[Demand] = SpscQueue(cfg.mailbox_depth)
        self.ring = PipelineRing(cfg)
        self.taken_slots = 0
        self.emitted_batches = 0
        self.stop_event = threading.Event()
        self.runner = LaneThread("pipeline", self.stop_event, target=self._run)

    def _run(self) -> None:
        ring = self.ring
        qhead = self.qhead
        tenure_ns = self.cfg.batch_size * self.cfg.slot_ns
        deadline_ns = time.monotonic_ns()
        while not self.stop_event.is_set():
            fresh: List[Demand] = []
            if self.taken_slots - ring.allocated_slots < _INFLIGHT_SLOT_LIMIT:
                for _ in range(_QHEAD_CHUNK):
                    demand = qhead.try_take()
                    if demand is None:
                        break
                    fresh.append(demand)
                    self.taken_slots += demand.remaining
            worked = ring.sweep(fresh)
            now = time.monotonic_ns()
            if now >= deadline_ns:
                self.sink(ring.rotate())
                self.emitted_batches += 1
                deadline_ns = max(now, deadline_ns + tenure_ns)
                # Let the generator run once per batch: without a yield it
                # waits out a whole switch interval while QHead goes unfed,
                # and a yield on every pass slows the ring under load.
                time.sleep(0)
            elif not worked:
                time.sleep(0.0001)

    def push(self, demand: Demand) -> bool:
        return self.qhead.try_put(demand)

    def allocated_slots(self) -> int:
        return self.ring.allocated_slots

    def start(self) -> None:
        self.runner.start()

    def stop_and_join(self) -> None:
        join_lanes(self.stop_event, [self.runner])
        # emit the in-flight batches so verification sees every claimed slot
        for admitted in self.ring.close():
            self.sink(admitted)

    def pending_slots(self) -> int:
        return self.ring.pending_slots() + sum(d.remaining for d in self.qhead.snapshot())

    def lane_counters(self) -> dict:
        return {
            "position_drained": self.ring.position_drained,
            "allocated": self.ring.allocated_slots,
            "emitted_batches": self.emitted_batches,
        }
