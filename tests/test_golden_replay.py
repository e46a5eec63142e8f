"""Golden replay table: each architecture's replay output, pinned.

Every case replays a trace drawn with the stdlib ``random.Random(seed)``
(integer draws only, so the traces do not move with numpy or libm) and
compares the edge digest, the batch count and the allocated, pending and
cancelled slots against values recorded before the drivers were merged into
``slotarbiter.engine``.  A change that means to alter replay output updates
the table: ``python tests/test_golden_replay.py`` prints the current rows.

``ORDERED_GOLDEN`` pins the order of each batch's edges as well, which the
sorted digest above does not.

``SCHEDULE_CASES`` drive a ``PipelineRing`` by a fixed schedule that replay
never takes: several admits, one of them empty, before each emit.
"""

from __future__ import annotations

import hashlib
import random
from typing import List

import pytest

from slotarbiter import (
    AllocationMode,
    Architecture,
    Config,
    run_parallel_deterministic,
    run_pipeline_deterministic,
    run_shuffle_deterministic,
)
from slotarbiter.pipeline import PipelineRing
from slotarbiter.workload import Arrival, ArrivalCursor

from conftest import edges_of

PER_SLOT = AllocationMode.PER_SLOT
PARALLEL = Architecture.PARALLEL
SHUFFLE = Architecture.SHUFFLE

RUNNERS = {
    Architecture.PIPELINED: run_pipeline_deterministic,
    PARALLEL: run_parallel_deterministic,
    SHUFFLE: run_shuffle_deterministic,
}

#: trace name -> (seed, demands, nodes, max interarrival gap ns, max size)
TRACES = {
    # about 0.8 of fabric capacity at 10 Gbps: survivors and contention
    "dense": (11, 400, 32, 1000, 20),
    # short demands on a wider fabric, mostly served on first visit
    "sparse": (12, 500, 64, 400, 3),
}


def golden_trace(name: str) -> List[Arrival]:
    seed, count, nodes, max_gap, max_size = TRACES[name]
    rng = random.Random(seed)
    trace: List[Arrival] = []
    t = 0
    for _ in range(count):
        t += rng.randrange(max_gap)
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes - 1)
        dst += dst >= src
        trace.append(Arrival(t, src, dst, rng.randint(1, max_size)))
    return trace


def digest(batches) -> str:
    return hashlib.sha256(repr(edges_of(batches)).encode()).hexdigest()[:16]


#: (case id, trace, config keywords, step limit)
CASES = [
    ("pipe-1", "dense", {"cores": 1}, 100_000),
    ("pipe-2", "dense", {"cores": 2}, 100_000),
    ("pipe-3", "dense", {"cores": 3}, 100_000),
    ("pipe-3-mid", "dense", {"cores": 3, "mid_pipeline_ingest": True}, 100_000),
    ("pipe-4-mid", "dense", {"cores": 4, "mid_pipeline_ingest": True}, 100_000),
    ("pipe-2-b4", "dense", {"cores": 2, "batch_size": 4}, 100_000),
    ("pipe-2-cut", "dense", {"cores": 2}, 6),
    ("slot-1", "dense", {"cores": 1, "mode": PER_SLOT}, 100_000),
    ("slot-2", "dense", {"cores": 2, "mode": PER_SLOT}, 100_000),
    ("slot-3", "dense", {"cores": 3, "mode": PER_SLOT}, 100_000),
    ("slot-2-mid", "dense", {"cores": 2, "mode": PER_SLOT, "mid_pipeline_ingest": True}, 100_000),
    ("slot-4", "dense", {"cores": 4, "mode": PER_SLOT}, 100_000),
    ("slot-1-sparse", "sparse", {"cores": 1, "mode": PER_SLOT}, 100_000),
    ("slot-3-sparse", "sparse", {"cores": 3, "mode": PER_SLOT}, 100_000),
    ("pipe-2-sparse", "sparse", {"cores": 2}, 100_000),
    ("par-1", "dense", {"architecture": PARALLEL, "lanes": 1}, 100_000),
    ("par-2", "dense", {"architecture": PARALLEL, "lanes": 2}, 100_000),
    ("par-3", "dense", {"architecture": PARALLEL, "lanes": 3}, 100_000),
    ("par-2-b16", "dense", {"architecture": PARALLEL, "lanes": 2, "batch_size": 16}, 100_000),
    ("par-2-cut", "dense", {"architecture": PARALLEL, "lanes": 2}, 6),
    ("par-3-sparse", "sparse", {"architecture": PARALLEL, "lanes": 3}, 100_000),
    ("par-4", "dense", {"architecture": PARALLEL, "lanes": 4}, 100_000),
    ("par-4-sparse", "sparse", {"architecture": PARALLEL, "lanes": 4}, 100_000),
    ("shuf-1", "dense", {"architecture": SHUFFLE, "sets": 1}, 100_000),
    ("shuf-2", "dense", {"architecture": SHUFFLE, "sets": 2}, 100_000),
    ("shuf-3", "dense", {"architecture": SHUFFLE, "sets": 3}, 100_000),
    ("shuf-2-cut", "dense", {"architecture": SHUFFLE, "sets": 2}, 6),
    ("shuf-3-sparse", "sparse", {"architecture": SHUFFLE, "sets": 3}, 100_000),
]

#: case id -> (digest, batches, allocated, pending, cancelled)
GOLDEN = {
    "pipe-1": ("fccbd02bfcdd25be", 38, 4206, 0, 0),
    "pipe-2": ("fb1abcb88a79eff0", 38, 4206, 0, 0),
    "pipe-3": ("b2a617648e4996be", 38, 4206, 0, 0),
    "pipe-3-mid": ("d8235c843a51c34a", 39, 4206, 0, 0),
    "pipe-4-mid": ("d2f209c7b954bd88", 40, 4206, 0, 0),
    "pipe-2-b4": ("65c6454705303818", 75, 4206, 0, 0),
    "pipe-2-cut": ("1b6a9e357e02c078", 8, 733, 259, 0),
    "slot-1": ("323da13af430ea16", 38, 4206, 0, 0),
    "slot-2": ("e3734716610a9583", 39, 4206, 0, 0),
    "slot-3": ("4ecd079908f04fac", 40, 4206, 0, 0),
    "slot-2-mid": ("a03c364464ab5783", 40, 4206, 0, 0),
    "slot-4": ("4ecd079908f04fac", 41, 4206, 0, 0),
    "slot-1-sparse": ("8068b5bc6754d1ae", 13, 1018, 0, 0),
    "slot-3-sparse": ("8068b5bc6754d1ae", 15, 1018, 0, 0),
    "pipe-2-sparse": ("008e2d1412e6901d", 14, 1018, 0, 0),
    "par-1": ("fccbd02bfcdd25be", 37, 4206, 0, 0),
    "par-2": ("52d3bce457c2bbfd", 38, 4206, 0, 2235),
    "par-3": ("d5a48424bb1c5a2a", 41, 4206, 0, 3646),
    "par-2-b16": ("7a526cb055164d89", 20, 4206, 0, 2154),
    "par-2-cut": ("5c3db42d4ab81496", 6, 599, 393, 272),
    "par-3-sparse": ("2f95d66f44f8bfa7", 13, 1018, 0, 448),
    "par-4": ("21e36343a5b8477b", 44, 4206, 0, 5439),
    "par-4-sparse": ("8de82519447b6829", 14, 1018, 0, 620),
    "shuf-1": ("aafbd6ec5309df09", 37, 4206, 0, 0),
    "shuf-2": ("e3f079c471d87b97", 40, 4206, 0, 0),
    "shuf-3": ("1e669c6a4197de0f", 48, 4206, 0, 0),
    "shuf-2-cut": ("4533620f43bf4bb2", 12, 1276, 842, 0),
    "shuf-3-sparse": ("393b41dec06a0774", 15, 1018, 0, 0),
}


def ordered_digest(batches) -> str:
    """Digest of every batch's base slot and its edges in the order given."""
    return hashlib.sha256(repr([(b.base_slot, b.edges) for b in batches]).encode()).hexdigest()[:16]


#: case id of ``CASES`` -> ``ordered_digest`` of its batches
ORDERED_GOLDEN = {
    "pipe-1": "01d776d1fbd23846",
    "pipe-2": "5453f329adef173f",
    "pipe-3-mid": "4635f63c655ce498",
    "pipe-2-b4": "ce85e8a93833c144",
    "pipe-2-cut": "3f87428e23ecf1bf",
    "slot-1": "00ec1ad7e0cc3de9",
    "slot-2": "e4c5d5014febf132",
    "slot-4": "684699f55758b638",
    "slot-3-sparse": "4936fc676f974e0a",
    "pipe-2-sparse": "aff516eb43860e8e",
    "par-2": "181b6d47d393d306",
    "par-2-b16": "d2cc552d16780403",
    "par-2-cut": "646ec39355578f52",
    "par-4": "9dbe8758e08675fd",
    "par-4-sparse": "c0d9dff2cdc4a0bf",
    "shuf-2": "60ed5a268cfcf7be",
    "shuf-2-cut": "16eab2ee311d3504",
    "shuf-3-sparse": "fe53532199a1b0d3",
}


def replay_case(trace_name: str, kwargs: dict, steps: int):
    nodes = TRACES[trace_name][2]
    cfg = Config(num_nodes=nodes, **kwargs)
    return RUNNERS[cfg.architecture](cfg, golden_trace(trace_name), steps)


def row(res) -> tuple:
    m = res.metrics
    return (digest(res.batches), len(res.batches), m.allocated_slots, m.pending_slots,
            m.cancelled_then_reissued)


@pytest.mark.parametrize("case, trace_name, kwargs, steps", CASES, ids=[c[0] for c in CASES])
def test_replay_matches_golden_row(case, trace_name, kwargs, steps):
    res = replay_case(trace_name, kwargs, steps)
    assert row(res) == GOLDEN[case]
    assert res.metrics.conservation_ok()


@pytest.mark.parametrize("case", sorted(ORDERED_GOLDEN))
def test_replay_edge_order_matches_golden(case):
    _, trace_name, kwargs, steps = next(c for c in CASES if c[0] == case)
    assert ordered_digest(replay_case(trace_name, kwargs, steps).batches) == ORDERED_GOLDEN[case]


#: (case id, trace, config keywords, steps)
SCHEDULE_CASES = [
    ("ring-pipe-1", "dense", {"cores": 1}, 60),
    ("ring-pipe-2", "dense", {"cores": 2}, 60),
    ("ring-pipe-4", "dense", {"cores": 4}, 60),
    ("ring-pipe-4-mid", "dense", {"cores": 4, "mid_pipeline_ingest": True}, 60),
    ("ring-pipe-2-cut", "dense", {"cores": 2}, 8),
    ("ring-slot-1", "dense", {"cores": 1, "mode": PER_SLOT}, 60),
    ("ring-slot-2-mid", "dense", {"cores": 2, "mode": PER_SLOT, "mid_pipeline_ingest": True}, 60),
    ("ring-slot-4", "dense", {"cores": 4, "mode": PER_SLOT}, 60),
    ("ring-slot-4-cut", "dense", {"cores": 4, "mode": PER_SLOT}, 8),
    ("ring-pipe-2-sparse", "sparse", {"cores": 2}, 60),
]

#: case id -> (digest, batches, allocated, pending, position_drained)
SCHEDULE_GOLDEN = {
    "ring-pipe-1": ("422c40eb2ba5d759", 61, 4206, 0, (2734,)),
    "ring-pipe-2": ("6dbc606f11b20142", 62, 4206, 0, (400, 2212)),
    "ring-pipe-4": ("b5864e2f3973d18c", 64, 4206, 0, (400, 365, 330, 1337)),
    "ring-pipe-4-mid": ("576e1c5d065234ec", 64, 4206, 0, (0, 0, 400, 2212)),
    "ring-pipe-2-cut": ("37fca79c08f74215", 10, 1017, 439, (141, 284)),
    "ring-slot-1": ("7e98060d68247478", 61, 4206, 0, (11132,)),
    "ring-slot-2-mid": ("bbc17f0234a223fd", 62, 4206, 0, (6247, 6429)),
    "ring-slot-4": ("5a102db0c5167657", 64, 4206, 0, (5468, 3253, 1717, 656)),
    "ring-slot-4-cut": ("b90d9f6ae58f8f5f", 12, 1069, 387, (1152, 507, 226, 24)),
    "ring-pipe-2-sparse": ("008e2d1412e6901d", 62, 1018, 0, (500, 5)),
}


def schedule_case(trace_name: str, kwargs: dict, steps: int) -> tuple:
    """Each step releases its arrivals, admits them in 2 or 3 chunks with an
    empty admit after the first, and emits once; then the ring is closed.

    Returns the row of ``SCHEDULE_GOLDEN`` and the demanded slot count.
    """
    nodes = TRACES[trace_name][2]
    cfg = Config(num_nodes=nodes, **kwargs)
    ring = PipelineRing(cfg)
    cursor = ArrivalCursor(golden_trace(trace_name), nodes)
    batches = []
    demanded = 0
    for step in range(steps):
        fresh = cursor.release((ring.next_base - 1) * cfg.slot_ns)
        demanded += sum(d[2] for d in fresh)
        parts = 2 + step % 2
        cuts = [len(fresh) * k // parts for k in range(parts + 1)]
        for k in range(parts):
            ring.admit(fresh[cuts[k]:cuts[k + 1]])
            if k == 0:
                ring.admit([])
        batches.extend(ring.emit())
    batches.extend(ring.close())
    row_ = (digest(batches), len(batches), ring.allocated_slots, ring.pending_slots(),
            tuple(ring.position_drained))
    return row_, demanded


@pytest.mark.parametrize("case, trace_name, kwargs, steps", SCHEDULE_CASES,
                         ids=[c[0] for c in SCHEDULE_CASES])
def test_scheduled_ring_matches_golden_row(case, trace_name, kwargs, steps):
    row_, demanded = schedule_case(trace_name, kwargs, steps)
    assert row_ == SCHEDULE_GOLDEN[case]
    assert demanded == row_[2] + row_[3]


if __name__ == "__main__":
    for case, trace_name, kwargs, steps in CASES:
        digest_, *counts = row(replay_case(trace_name, kwargs, steps))
        print(f'    "{case}": ("{digest_}", {", ".join(map(str, counts))}),')
    print()
    for case, trace_name, kwargs, steps in CASES:
        if case in ORDERED_GOLDEN:
            print(f'    "{case}": "{ordered_digest(replay_case(trace_name, kwargs, steps).batches)}",')
    print()
    for case, trace_name, kwargs, steps in SCHEDULE_CASES:
        digest_, *counts = schedule_case(trace_name, kwargs, steps)[0]
        print(f'    "{case}": ("{digest_}", {", ".join(map(str, counts))}),')
