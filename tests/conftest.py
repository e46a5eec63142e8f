"""Shared helpers for the test suite."""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

from slotarbiter import Demand, VerifyingSink
from slotarbiter.workload import Arrival


def edges_of(batches) -> List[Tuple[int, int, int]]:
    """Flatten batches to a sorted list of (absolute_slot, src, dst)."""
    return sorted(edge for batch in batches for edge in batch.absolute_edges())


def make_trace(
    seed: int,
    count: int,
    num_nodes: int,
    mean_interarrival_ns: float = 1500.0,
    unique_pairs: bool = True,
    size_mean: float = 10.0,
) -> List[Arrival]:
    """Seeded random trace; unique (src, dst) pairs unless told otherwise."""
    rng = np.random.default_rng(seed)
    seen = set()
    trace: List[Arrival] = []
    t = 0.0
    while len(trace) < count:
        src = int(rng.integers(0, num_nodes))
        dst = int(rng.integers(0, num_nodes))
        if src == dst:
            continue
        if unique_pairs:
            if (src, dst) in seen:
                continue
            seen.add((src, dst))
        t += float(rng.exponential(mean_interarrival_ns))
        size = max(1, int(round(rng.normal(size_mean, 3.0))))
        trace.append(Arrival(int(t), src, dst, size))
    return trace


@st.composite
def small_trace(draw, unique_pairs: bool = False):
    """A few nodes, repeated pairs (unless ``unique_pairs``), bursts that share
    one ``arrival_ns``, and sizes 1–20, so survivors contend.

    Three in four traces are long bursts (24–40 demands) that arrive mostly at
    the first three instants, with sizes above the widest batch tried (8) drawn
    often; the rest are short (up to 6 demands).  A long burst leaves several
    partly served survivors in one batch, whose ``last_alloc`` stamps then
    decide the LRU order of the next.
    """
    num_nodes = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)).filter(
        lambda p: p[0] != p[1])
    instant = st.one_of(st.integers(0, 2), st.integers(0, 8)).map(lambda k: k * 1000)
    size = st.one_of(st.integers(1, 3), st.integers(1, 12), st.integers(9, 20))
    row = st.tuples(instant, pair, size)
    long_burst = draw(st.integers(0, 3)) > 0
    rows = draw(st.lists(row, min_size=24, max_size=40) if long_burst
                else st.lists(row, max_size=6))
    if unique_pairs:
        first = {}
        for r in rows:
            first.setdefault(r[1], r)
        rows = list(first.values())
    trace = [Arrival(t, src, dst, size) for t, (src, dst), size in rows]
    trace.sort(key=lambda a: a.arrival_ns)
    return num_nodes, trace


#: A ``small_trace`` demands at most 800 slots and every architecture serves
#: at least one per batch while any is pending, so it drains in fewer than
#: this many batches; an allocator that loses or stalls demands fails fast.
MAX_REPLAY_STEPS = 1_000


def assert_replay_invariants(res, trace: List[Arrival], batch_size: int) -> None:
    """Capacity, conservation, no pair over-allocated, and batches in slot
    order with no overlapping ranges, for a replay of ``trace``."""
    sink = VerifyingSink()
    for batch in res.batches:
        sink(batch)
    assert sink.violations == 0, sink.first_violation
    assert sink.out_of_order == 0
    assert all(b.batch_size == batch_size for b in res.batches)
    assert all(0 <= o < batch_size for b in res.batches for o, _, _ in b.edges)
    m = res.metrics
    assert m.conservation_ok()
    assert m.demanded_slots == sum(a.size for a in trace)
    demanded: Counter = Counter()
    for a in trace:
        demanded[(a.src, a.dst)] += a.size
    allocated = Counter((src, dst) for _, src, dst in edges_of(res.batches))
    assert all(count <= demanded[pair] for pair, count in allocated.items())
    assert sum(allocated.values()) == m.allocated_slots


@pytest.fixture
def four_node_trace() -> List[Arrival]:
    """The four-node matching example: order matters, batch width 1."""
    return [
        Arrival(0, 1, 3, 1),
        Arrival(0, 4, 2, 1),
        Arrival(0, 2, 3, 1),
        Arrival(0, 2, 1, 1),
        Arrival(0, 3, 4, 1),
    ]


@pytest.fixture
def four_node_demands(four_node_trace) -> List[Demand]:
    return [Demand(a.src, a.dst, a.size) for a in four_node_trace]


FOUR_NODE_ADMITTED = {(1, 3), (4, 2), (2, 1), (3, 4)}
FOUR_NODE_REMAINDER = (2, 3)
