"""The one scheduler of every architecture: a replay loop and a paced machine.

``pipeline.PipelineRing``, ``parallel.ParallelRound`` and
``shuffle.ShuffleEngine`` hold each architecture's allocation logic behind
the small ``Engine`` contract.  ``replay`` steps an engine through a trace
on the caller's thread; ``PacedMachine`` steps it against the wall clock on
one thread of its own, fed by one conduit per generator.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from .conduits import SpscQueue
from .model import AdmittedBatch, Config, Demand, Metrics, RunResult
from .workload import Arrival, ArrivalCursor

BatchSink = Callable[[AdmittedBatch], None]

#: Demands a paced pass takes from one conduit, so the clock is checked
#: often under overload.
_TAKE_PER_PASS = 512

#: Ceiling on slots a paced machine has taken in but not yet allocated.
#: Admission pauses at it, so overload backs up into the conduits (where the
#: generators report it) instead of into the backlog that every batch
#: re-visits.  Chosen by overload goodput on both benchmark workloads.
_SLOT_LIMIT = 4096


class Engine(Protocol):
    next_base: int  # the first slot the next ``emit`` hands out
    allocated_slots: int
    cancelled_slots: int  # revoked by reconciliation, then handed out again

    def admit(self, demands: Sequence[Demand]) -> bool:
        """Take new demands, do the work that needs no new batch, and say
        whether the engine holds work."""

    def emit(self) -> List[AdmittedBatch]:
        """Close the next batch or batches, in slot order."""

    def close(self) -> List[AdmittedBatch]:
        """Finish what is still in flight when a run ends."""

    def pending_slots(self) -> int: ...

    def counters(self) -> Dict[str, object]: ...


def replay(
    engine: Engine,
    cfg: Config,
    arrivals: Sequence[Arrival],
    max_steps: int = 100_000,
    sink: Optional[BatchSink] = None,
) -> RunResult:
    """Single-thread replay: per step release, test for drained, admit, emit.

    Arrivals are released once the slot time of ``next_base`` reaches their
    arrival time.  The run ends when every released demand is allocated and
    the trace is exhausted, or after ``max_steps`` steps; then ``close``
    emits what is still in flight.
    """
    batches: List[AdmittedBatch] = []
    out = batches.append if sink is None else sink
    cursor = ArrivalCursor(arrivals)
    slot_ns = cfg.slot_ns
    demanded = 0
    for _ in range(max_steps):
        fresh = cursor.release((engine.next_base - 1) * slot_ns)
        demanded += sum(d.remaining for d in fresh)
        # nothing is ever dropped, so live work is exactly the running gap
        if demanded == engine.allocated_slots and cursor.exhausted:
            break
        engine.admit(fresh)
        for batch in engine.emit():
            out(batch)
    for batch in engine.close():
        out(batch)
    metrics = Metrics(
        demanded, engine.allocated_slots, engine.pending_slots(), engine.cancelled_slots
    )
    metrics.lane_counters = engine.counters()
    return RunResult(metrics, batches)


class PacedMachine:
    """One thread steps an engine against the wall clock.

    Each pass takes up to ``_TAKE_PER_PASS`` demands from every conduit,
    unless ``_SLOT_LIMIT`` taken slots are still unallocated, and admits them.
    It emits once the slot time of ``next_base`` has passed, and the deadline
    advances by the slots emitted.  Slot time that a late pass has already
    lost is skipped and counted as ``missed_slots``, so emitted plus missed
    slot time follows the wall clock.  A pass ahead of the clock with no work
    rests for 100 us.  An exception in the thread stops the machine, and
    ``stop_and_join`` re-raises it.
    """

    def __init__(
        self, engine: Engine, cfg: Config, sink: BatchSink, conduits: Sequence[SpscQueue]
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self.sink = sink
        self.conduits = list(conduits)
        self.taken_slots = 0
        self.emitted_batches = 0
        self.missed_slots = 0
        self.error: Optional[BaseException] = None
        self.stop_event = threading.Event()
        self.thread = threading.Thread(target=self._run, name="engine", daemon=True)

    def _run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:
            self.error = exc
            self.stop_event.set()

    def _loop(self) -> None:
        engine = self.engine
        slot_ns = self.cfg.slot_ns
        deadline_ns = time.monotonic_ns()  # wall time of next_base's slot
        while not self.stop_event.is_set():
            fresh: List[Demand] = []
            if self.taken_slots - engine.allocated_slots < _SLOT_LIMIT:
                for conduit in self.conduits:
                    for _ in range(_TAKE_PER_PASS):
                        demand = conduit.try_take()
                        if demand is None:
                            break
                        fresh.append(demand)
                        self.taken_slots += demand.remaining
            worked = engine.admit(fresh)
            now = time.monotonic_ns()
            if now >= deadline_ns:
                for batch in engine.emit():
                    self.sink(batch)
                    self.emitted_batches += 1
                    deadline_ns += batch.batch_size * slot_ns
                if now > deadline_ns:
                    missed = (now - deadline_ns) // slot_ns
                    self.missed_slots += missed
                    deadline_ns += missed * slot_ns
                # Let the generators run once per emit: without a yield they
                # wait out a whole switch interval while the conduits go
                # unfed, and a yield on every pass slows the engine under load.
                time.sleep(0)
            elif not worked:
                time.sleep(0.0001)

    def start(self) -> None:
        self.thread.start()

    def stop_and_join(self) -> None:
        """Stop and join the thread, re-raise its error, then emit what
        ``close`` finishes, so verification sees every claimed slot."""
        self.stop_event.set()
        self.thread.join()
        if self.error is not None:
            raise self.error
        for batch in self.engine.close():
            self.sink(batch)

    def pending_slots(self) -> int:
        queued = sum(d.remaining for conduit in self.conduits for d in conduit.snapshot())
        return queued + self.engine.pending_slots()

    def lane_counters(self) -> Dict[str, object]:
        return dict(
            self.engine.counters(),
            emitted_batches=self.emitted_batches,
            missed_slots=self.missed_slots,
        )
