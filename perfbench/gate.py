"""Correctness gate: every output the benchmark times is checked here.

A check that fails marks the demands it implicates as failed: a pair-level
fault (a node used twice in a slot, a pair given more slots than it asked
for, an edge that differs from the oracle) marks that pair's demands; a
run-level fault (batches out of slot order, broken conservation, a replay
that did not drain) marks every demand of the run.  ``failed_fraction`` is
failed demands over demands checked.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from slotarbiter import oracle
from slotarbiter.model import AdmittedBatch, Metrics

Pair = Tuple[int, int]
Edge = Tuple[int, int, int]  # (absolute slot, src, dst)


@dataclass
class Verdict:
    """Outcome of checking one run's output."""

    demands: int
    failed: int = 0
    faults: List[str] = field(default_factory=list)


def sorted_edges(batches: Iterable[AdmittedBatch]) -> List[Edge]:
    return sorted(edge for batch in batches for edge in batch.absolute_edges())


def edge_digest(edges: Sequence[Edge]) -> str:
    """Order-independent fingerprint of an admitted-edge set (pass it sorted)."""
    return hashlib.sha256(repr(edges).encode()).hexdigest()[:16]


def check_run(
    batches: Sequence[AdmittedBatch],
    demand_pairs: Sequence[Pair],
    demand_sizes: Sequence[int],
    metrics: Metrics,
    must_drain: bool,
    expected: Optional[Sequence[Edge]] = None,
    edges: Optional[Sequence[Edge]] = None,
) -> Verdict:
    """Check one run; ``demand_pairs``/``demand_sizes`` are the demands it took in.

    ``expected`` is the oracle's sorted edge list, compared edge for edge;
    ``edges`` is this run's sorted edge list when the caller already has it.
    """
    bad_pairs: Set[Pair] = set()
    run_faults: List[str] = []
    faults: List[str] = []

    prev_end = None
    for batch in batches:
        violation = oracle.verify_admitted(batch)
        if violation is not None:
            faults.append(f"capacity: {violation}")
            slot_offset = violation.slot - batch.base_slot
            role = 1 if violation.role == "src" else 2
            for edge in batch.edges:
                if edge[0] == slot_offset and edge[role] == violation.node:
                    bad_pairs.add((edge[1], edge[2]))
        if prev_end is not None and batch.base_slot < prev_end:
            run_faults.append(f"order: batch at slot {batch.base_slot} overlaps or precedes slot {prev_end - 1}")
        if any(not 0 <= edge[0] < batch.batch_size for edge in batch.edges):
            run_faults.append(f"range: edge outside batch at slot {batch.base_slot}")
        prev_end = batch.base_slot + batch.batch_size

    demanded: Counter = Counter()
    for pair, size in zip(demand_pairs, demand_sizes):
        demanded[pair] += size
    granted: Counter = Counter()
    for batch in batches:
        for _, src, dst in batch.edges:
            granted[(src, dst)] += 1
    for pair, count in granted.items():
        if count > demanded.get(pair, 0):
            faults.append(f"over-allocation: pair {pair} got {count} of {demanded.get(pair, 0)} slots")
            bad_pairs.add(pair)

    if not metrics.conservation_ok():
        run_faults.append(
            f"conservation: demanded {metrics.demanded_slots} != allocated "
            f"{metrics.allocated_slots} + pending {metrics.pending_slots}"
        )
    if must_drain and metrics.pending_slots != 0:
        run_faults.append(f"drain: {metrics.pending_slots} slots still pending")

    if expected is not None:
        mine = edges if edges is not None else sorted_edges(batches)
        if list(mine) != list(expected):
            diff = set(mine).symmetric_difference(expected)
            faults.append(f"oracle: {len(diff)} edges differ from oracle_replay")
            bad_pairs.update((src, dst) for _, src, dst in diff)

    verdict = Verdict(demands=len(demand_pairs))
    if run_faults:
        verdict.failed = len(demand_pairs)
    else:
        verdict.failed = sum(1 for pair in demand_pairs if pair in bad_pairs)
    verdict.faults = run_faults + faults
    return verdict


@dataclass
class Ledger:
    """Running totals of demands checked and failed across a benchmark run."""

    attempted: int = 0
    failed: int = 0
    faults: Dict[str, List[str]] = field(default_factory=dict)
    # a paced run whose rate did not produce its intended regime; its figure
    # is withheld, but the outputs were still correct
    preconditions: Dict[str, List[str]] = field(default_factory=dict)

    def record(self, label: str, verdict: Verdict) -> None:
        self.attempted += verdict.demands
        self.failed += verdict.failed
        if verdict.faults:
            self.faults.setdefault(label, []).extend(verdict.faults[:5])

    def fail_precondition(self, label: str, reason: str) -> None:
        self.preconditions.setdefault(label, []).append(reason)

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.faults
