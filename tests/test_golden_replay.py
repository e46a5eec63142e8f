"""Golden replay table: each architecture's replay output, pinned.

Every case replays a trace drawn with the stdlib ``random.Random(seed)``
(integer draws only, so the traces do not move with numpy or libm) and
compares the edge digest, the batch count and the allocated, pending and
cancelled slots against values recorded before the drivers were merged into
``slotarbiter.engine``.  A change that means to alter replay output updates
the table: ``python tests/test_golden_replay.py`` prints the current rows.
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
from slotarbiter.workload import Arrival

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
    ("pipe-2-sparse", "sparse", {"cores": 2}, 100_000),
    ("par-1", "dense", {"architecture": PARALLEL, "lanes": 1}, 100_000),
    ("par-2", "dense", {"architecture": PARALLEL, "lanes": 2}, 100_000),
    ("par-3", "dense", {"architecture": PARALLEL, "lanes": 3}, 100_000),
    ("par-2-b16", "dense", {"architecture": PARALLEL, "lanes": 2, "batch_size": 16}, 100_000),
    ("par-2-cut", "dense", {"architecture": PARALLEL, "lanes": 2}, 6),
    ("par-3-sparse", "sparse", {"architecture": PARALLEL, "lanes": 3}, 100_000),
    ("shuf-1", "dense", {"architecture": SHUFFLE, "sets": 1}, 100_000),
    ("shuf-2", "dense", {"architecture": SHUFFLE, "sets": 2}, 100_000),
    ("shuf-3", "dense", {"architecture": SHUFFLE, "sets": 3}, 100_000),
    ("shuf-2-bin4", "dense", {"architecture": SHUFFLE, "sets": 2, "bin_capacity": 4}, 100_000),
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
    "pipe-2-sparse": ("008e2d1412e6901d", 14, 1018, 0, 0),
    "par-1": ("fccbd02bfcdd25be", 37, 4206, 0, 0),
    "par-2": ("52d3bce457c2bbfd", 38, 4206, 0, 2235),
    "par-3": ("d5a48424bb1c5a2a", 41, 4206, 0, 3646),
    "par-2-b16": ("7a526cb055164d89", 20, 4206, 0, 2154),
    "par-2-cut": ("5c3db42d4ab81496", 6, 599, 393, 272),
    "par-3-sparse": ("2f95d66f44f8bfa7", 13, 1018, 0, 448),
    "shuf-1": ("f738f2ed6b5cd0e3", 37, 4206, 0, 0),
    "shuf-2": ("95bcd76f25e9726d", 58, 4206, 0, 0),
    "shuf-3": ("61ddcc4c3ebf2bee", 87, 4206, 0, 0),
    "shuf-2-bin4": ("a9a7f9da2f4f9e49", 202, 4206, 0, 0),
    "shuf-2-cut": ("d977c23b4efdddd2", 12, 1027, 1091, 0),
    "shuf-3-sparse": ("0412eddf86253849", 18, 1018, 0, 0),
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


if __name__ == "__main__":
    for case, trace_name, kwargs, steps in CASES:
        digest_, *counts = row(replay_case(trace_name, kwargs, steps))
        print(f'    "{case}": ("{digest_}", {", ".join(map(str, counts))}),')
