"""Pipelined allocator: a ring of kernel contexts over consecutive batches.

The context at the head of the ring holds the oldest batch.  Fresh demands
enter at the ingest position (the head, or mid-ring).  Every context feeds
its inbound queue to its kernel, sweeps it and forwards its survivors, as one
list of ``(src, dst, remaining, last_alloc)`` rows, to the neighbour handling
the next batch.  When the head completes its tenure it emits its admitted
batch, re-seeds at the tail with fresh bitmaps, and the next context becomes
head.  Each forwarded list is tagged with the first batch allowed to consider
it, so a survivor forwarded at batch b is never drained before b + 1.

``PipelineRing`` holds that state behind the engine contract of
``engine.py``: ``admit`` sweeps the ring, ``emit`` rotates it and ``close``
finishes every batch still riding it.  The replay loop emits after every
sweep; the paced machine sweeps on every pass and emits whenever a tenure of
wall time has passed, so in a slow slot clock the ring sweeps several times
per tenure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .engine import BatchSink, replay
from .kernel import GreedyKernel
from .model import AdmittedBatch, Config, DemandRow, RunResult
from .workload import Arrival


@dataclass
class _Context:
    kernel: GreedyKernel
    base_slot: int
    in_q: Deque[Tuple[int, List[DemandRow]]] = field(default_factory=deque)


class PipelineRing:
    """The ring's contexts, its head, and the engine steps over them."""

    cancelled_slots = 0

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
        self.reseed_base = 1 + cfg.cores * cfg.batch_size  # the tail's next batch
        self.ingest_pos = cfg.cores // 2 if cfg.mid_pipeline_ingest else 0
        self.position_drained = [0] * cfg.cores
        self.allocated_slots = 0
        self.closed = False

    @property
    def next_base(self) -> int:
        return self.contexts[self.head].base_slot

    def _forward(self, idx: int, demands: List[DemandRow]) -> None:
        """Hand survivors of context ``idx`` to its successor, for the next batch."""
        if demands:
            tag = self.contexts[idx].base_slot + self.batch
            self.contexts[(idx + 1) % len(self.contexts)].in_q.append((tag, demands))

    def admit(self, fresh: Sequence[DemandRow]) -> bool:
        """One pass over the ring, head first; ``fresh`` enters at the ingest position.

        Returns whether any context had work.
        """
        num_ctx = len(self.contexts)
        worked = False
        for pos in range(num_ctx):
            idx = (self.head + pos) % num_ctx
            ctx = self.contexts[idx]
            feed: List[DemandRow] = []
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

    def emit(self) -> List[AdmittedBatch]:
        """Close the head's batch, re-seed it at the tail, advance the head."""
        ctx = self.contexts[self.head]
        admitted, flush = ctx.kernel.finish()
        self._forward(self.head, flush)
        ctx.kernel.reset(self.reseed_base)
        ctx.base_slot = self.reseed_base
        self.reseed_base += self.batch
        self.head = (self.head + 1) % len(self.contexts)
        return [admitted]

    def close(self) -> List[AdmittedBatch]:
        """Finish every batch still riding the ring, oldest first, once.

        Their survivors stay in the inbound queues, where ``pending_slots``
        counts them.
        """
        if self.closed:
            return []
        self.closed = True
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
            + sum(d[2] for _, demands in ctx.in_q for d in demands)
            for ctx in self.contexts
        )

    def counters(self) -> Dict[str, object]:
        return {"position_drained": self.position_drained, "allocated": self.allocated_slots}


def run_pipeline_deterministic(
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_steps: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Replay a trace through a ``PipelineRing`` (see ``engine.replay``)."""
    return replay(PipelineRing(cfg), cfg, arrivals, max_steps, sink)
