"""Pipelined allocator: a ring of kernel contexts over consecutive batches.

The context at the head of the ring holds the oldest batch.  Fresh demands
enter at the ingest position (the head, or mid-ring).  Every context sweeps
what it holds and hands its survivors, as one list of ``(src, dst,
remaining, last_alloc)`` rows, to the context that holds the next batch.
The tail's survivors wait for the batch that the next ``emit`` re-seeds:
the head emits its admitted batch and rejoins at the tail with fresh bitmaps
and those rows, and the next context becomes head.

``PipelineRing`` holds that state behind the engine contract of
``engine.py``: ``admit`` sweeps the ring, ``emit`` rotates it and ``close``
finishes every batch still riding it.  The replay loop emits after every
sweep; the paced machine sweeps on every pass and emits whenever a tenure of
wall time has passed, so in a slow slot clock the ring sweeps several times
per tenure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .engine import BatchSink, replay
from .kernel import GreedyKernel
from .model import AdmittedBatch, Config, DemandRow, RunResult
from .workload import Arrival


class PipelineRing:
    """The ring's kernels, head first, and the engine steps over them."""

    cancelled_slots = 0

    def __init__(self, cfg: Config) -> None:
        self.stride = cfg.cores * cfg.batch_size  # slots from a batch to its context's next
        self.kernels = [GreedyKernel(cfg.num_nodes, cfg.batch_size, cfg.mode)
                        for _ in range(cfg.cores)]
        for i, kernel in enumerate(self.kernels):
            kernel.reset(1 + i * cfg.batch_size)
        self.waiting: List[DemandRow] = []  # the tail's survivors, for the next re-seed
        self.ingest_pos = cfg.cores // 2 if cfg.mid_pipeline_ingest else 0
        self.position_drained = [0] * cfg.cores
        self.allocated_slots = 0
        self.closed = False

    @property
    def next_base(self) -> int:
        return self.kernels[0].base_slot

    def admit(self, fresh: Sequence[DemandRow]) -> bool:
        """One pass over the ring, head first; ``fresh`` enters at the ingest position.

        Returns whether any context had work.
        """
        worked = False
        feed: List[DemandRow] = []
        for pos, kernel in enumerate(self.kernels):
            if pos == self.ingest_pos:
                feed.extend(fresh)
            if feed or not kernel.is_empty():
                kernel.ingest(feed)
                result = kernel.sweep()
                self.position_drained[pos] += result.drained
                self.allocated_slots += result.allocated
                feed = result.outflow
                worked = True
        self.waiting.extend(feed)
        return worked

    def emit(self) -> List[AdmittedBatch]:
        """Close the head's batch, re-seed it at the tail, advance the head."""
        kernel = self.kernels.pop(0)
        admitted, flush = kernel.finish()
        kernel.reset(kernel.base_slot + self.stride)
        kernel.ingest(self.waiting)
        self.waiting = []
        self.kernels.append(kernel)
        self.kernels[0].ingest(flush)
        return [admitted]

    def close(self) -> List[AdmittedBatch]:
        """Finish every batch still riding the ring, oldest first, once.

        Their survivors join ``waiting``, where ``pending_slots`` counts them.
        """
        if self.closed:
            return []
        self.closed = True
        closed: List[AdmittedBatch] = []
        for kernel in self.kernels:
            admitted, flush = kernel.finish()
            closed.append(admitted)
            self.waiting.extend(flush)
        return closed

    def pending_slots(self) -> int:
        return sum(k.pending_slots() for k in self.kernels) + sum(d[2] for d in self.waiting)

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
