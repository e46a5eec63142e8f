"""Span tracer installed around slotarbiter's public functions from outside.

Nothing in ``src/`` is edited: ``patch_function``/``patch_method`` swap a
function or method for a wrapper and ``uninstall`` puts the originals back.  A function
that another module imported by name (``from .kernel import allocate_slots``)
is patched under every name that refers to it in a loaded ``slotarbiter``
module, so ``slotarbiter.shuffle.allocate_slots`` is traced too.

Each span records its name, start, end, parent span (a per-thread stack) and
thread.  Aggregates are kept per thread, so worker threads of a paced run
never race on a shared counter, and are merged when read.  Spans stay in
memory, capped per (phase, name) and overall, and are written out at the end.

A layer's self time is its span duration minus the part its child spans
cover.  The wrapper itself costs time: ``calibrate`` measures that cost per
nested span, and ``Tracer.inclusive_ns`` / ``Tracer.self_ns`` subtract it.
"""

from __future__ import annotations

import csv
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# A hook gets (thread_state, args, result_or_None) and records counters.
Hook = Callable[["ThreadState", tuple, object], None]

#: Spans written out per (phase, name) and in all; aggregates cover every call.
SPANS_PER_NAME = 400
SPANS_TOTAL = 150_000


@dataclass
class Aggregate:
    """Span totals for one (phase, name)."""

    calls: int = 0
    dur_ns: int = 0
    self_ns: int = 0
    nested: int = 0  # descendant spans, at any depth
    children: int = 0  # direct child spans

    def add(self, other: "Aggregate") -> None:
        self.calls += other.calls
        self.dur_ns += other.dur_ns
        self.self_ns += other.self_ns
        self.nested += other.nested
        self.children += other.children


class ThreadState:
    """Stack and aggregates of one thread; only that thread writes them."""

    __slots__ = ("name", "stack", "agg", "sums", "highs")

    def __init__(self) -> None:
        self.name = threading.current_thread().name
        self.stack: List[list] = []
        self.agg: Dict[Tuple[str, str], Aggregate] = {}
        self.sums: Dict[Tuple[str, str], int] = {}
        self.highs: Dict[Tuple[str, str], int] = {}


class Tracer:
    """Span recorder; ``phase`` labels everything recorded until changed."""

    def __init__(self, span_cap: int = SPANS_TOTAL) -> None:
        self.phase = "idle"
        self.span_cap = span_cap
        self.spans: List[tuple] = []
        self.cost_ns = 0.0  # whole wrapper cost seen by the enclosing span
        self.outer_ns = 0.0  # part of it that lands in the parent's self time
        self._logged: Dict[Tuple[str, str], int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[ThreadState] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def state(self) -> ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def add(self, st: ThreadState, key: str, value: int) -> None:
        k = (self.phase, key)
        st.sums[k] = st.sums.get(k, 0) + value

    def high(self, st: ThreadState, key: str, value: int) -> None:
        k = (self.phase, key)
        if value > st.highs.get(k, -1):
            st.highs[k] = value

    def span(self, name: str, fn: Callable, before: Optional[Hook] = None,
             after: Optional[Hook] = None) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``."""
        tracer = self
        ids = self._ids

        def traced(*args, **kwargs):
            st = tracer.state()
            if before is not None:
                before(st, args, None)
            stack = st.stack
            frame = [0, 0, 0, next(ids)]  # child ns, nested, children, span id
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                phase = tracer.phase
                key = (phase, name)
                agg = st.agg.get(key)
                if agg is None:
                    agg = st.agg[key] = Aggregate()
                agg.calls += 1
                agg.dur_ns += dur
                agg.self_ns += dur - frame[0]
                agg.nested += frame[1]
                agg.children += frame[2]
                parent_id = 0
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += frame[1] + 1
                    parent[2] += 1
                    parent_id = parent[3]
                logged = tracer._logged.get(key, 0)
                if logged < SPANS_PER_NAME and len(tracer.spans) < tracer.span_cap:
                    tracer._logged[key] = logged + 1
                    tracer.spans.append((frame[3], parent_id, phase, name, st.name, t0, t1))
            if after is not None:
                after(st, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so calls are only counted; used where a span is too dear."""
        tracer = self

        def counted(*args, **kwargs):
            tracer.add(tracer.state(), key, 1)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------

    def patch_function(self, module, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` under every alias in loaded slotarbiter modules."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slotarbiter" or mod_name.startswith("slotarbiter.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, alias, original))
                    setattr(mod, alias, wrapper)

    def patch_method(self, cls, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- reading ---------------------------------------------------------

    def merged(self) -> Tuple[Dict[Tuple[str, str], Aggregate], Dict[Tuple[str, str], int],
                              Dict[Tuple[str, str], int]]:
        agg: Dict[Tuple[str, str], Aggregate] = {}
        sums: Dict[Tuple[str, str], int] = {}
        highs: Dict[Tuple[str, str], int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, value in list(st.agg.items()):
                agg.setdefault(key, Aggregate()).add(value)
            for key, value in list(st.sums.items()):
                sums[key] = sums.get(key, 0) + value
            for key, value in list(st.highs.items()):
                highs[key] = max(highs.get(key, -1), value)
        return agg, sums, highs

    def inclusive_ns(self, agg: Aggregate) -> float:
        """Span time with the wrapper cost of every nested span removed."""
        return max(agg.dur_ns - agg.nested * self.cost_ns, 0.0)

    def self_ns(self, agg: Aggregate) -> float:
        """Self time with the outer wrapper cost of direct children removed."""
        return max(agg.self_ns - agg.children * self.outer_ns, 0.0)

    def write_spans(self, path: str) -> int:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "parent_id", "phase", "name", "thread", "start_ns", "end_ns"])
            writer.writerows(self.spans)
        return len(self.spans)


def calibrate(rounds: int = 20_000) -> Tuple[float, float]:
    """Wrapper cost per nested span: (seen by the parent, outside the child).

    A traced parent calls a traced no-op ``rounds`` times; the parent's
    duration per call is the whole cost a nested span adds to its ancestors,
    and the parent's self time per call is the part outside the child span.
    """
    probe = Tracer(span_cap=0)

    def noop() -> None:
        return None

    child = probe.span("noop", noop)

    def loop() -> None:
        for _ in range(rounds):
            child()

    parent = probe.span("loop", loop)
    bare_start = perf_counter_ns()
    for _ in range(rounds):
        noop()
    bare_ns = (perf_counter_ns() - bare_start) / rounds
    samples: List[Tuple[float, float]] = []
    for _ in range(5):
        probe._local = threading.local()
        probe._states = []
        parent()
        agg, _, _ = probe.merged()
        whole = agg[("idle", "loop")]
        cost = whole.dur_ns / rounds - bare_ns
        outer = whole.self_ns / rounds - bare_ns
        samples.append((max(cost, 0.0), max(outer, 0.0)))
    return min(samples)
