"""Reference allocator and verifiers, checked against brute force."""

import os
import subprocess
import sys
from itertools import combinations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import slotarbiter
from slotarbiter import (
    AdmittedBatch,
    AllocationMode,
    Demand,
    canonical_order,
    oracle_allocate,
    verify_admitted,
    verify_maximal,
)
from slotarbiter.model import VALID_BATCH_SIZES
from slotarbiter.oracle import CapacityViolation

from conftest import FOUR_NODE_ADMITTED


def brute_force_max_matching(demands, batch_size=1):
    """Largest admissible subset, by exhaustive subset search (test-only)."""
    best = 0
    for r in range(len(demands), 0, -1):
        for subset in combinations(demands, r):
            used_src, used_dst = set(), set()
            ok = True
            for d in subset:
                if d.src in used_src or d.dst in used_dst:
                    ok = False
                    break
                used_src.add(d.src)
                used_dst.add(d.dst)
            if ok:
                return r
        if best:
            break
    return best


def brute_force_is_maximal(admitted_pairs, all_demands):
    used_src = {s for s, _ in admitted_pairs}
    used_dst = {d for _, d in admitted_pairs}
    for dem in all_demands:
        if (dem.src, dem.dst) not in admitted_pairs:
            if dem.src not in used_src and dem.dst not in used_dst:
                return False
    return True


class TestOracleAllocate:
    def test_four_node_matching(self, four_node_demands):
        batch, remainders = oracle_allocate(four_node_demands, 1)
        assert {(s, d) for _, s, d in batch.edges} == FOUR_NODE_ADMITTED
        assert [(r.src, r.dst) for r in remainders] == [(2, 3)]

    def test_reversed_order_still_maximal(self, four_node_demands):
        batch, remainders = oracle_allocate(list(reversed(four_node_demands)), 1)
        assert verify_maximal(batch, remainders, 1) is None

    def test_output_always_valid_and_maximal(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            demands = []
            for _ in range(int(rng.integers(0, 15))):
                src, dst = int(rng.integers(0, 6)), int(rng.integers(0, 6))
                if src == dst:
                    continue
                demands.append(Demand(src, dst, int(rng.integers(1, 5))))
            batch, rem = oracle_allocate(demands, 4)
            assert verify_admitted(batch) is None
            assert verify_maximal(batch, rem, 4) is None

    def test_agrees_with_brute_force_maximality(self):
        """Exhaustive: every instance with <= 4 nodes and <= 4 demands, batch 1."""
        pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
        rng = np.random.default_rng(0)
        for count in range(1, 5):
            for _ in range(200):
                chosen = [pairs[i] for i in rng.choice(len(pairs), count, replace=False)]
                demands = [Demand(s, d, 1) for s, d in chosen]
                batch, rem = oracle_allocate(demands, 1)
                admitted_pairs = {(s, d) for _, s, d in batch.edges}
                assert brute_force_is_maximal(admitted_pairs, demands)

    def test_half_approximation_of_maximum(self):
        """Greedy maximal is at least half the maximum matching size."""
        pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
        rng = np.random.default_rng(1)
        for _ in range(300):
            count = int(rng.integers(1, 9))
            idx = rng.choice(len(pairs), min(count, len(pairs)), replace=False)
            demands = [Demand(pairs[i][0], pairs[i][1], 1) for i in idx]
            batch, _ = oracle_allocate(demands, 1)
            maximum = brute_force_max_matching(demands)
            assert 2 * len(batch.edges) >= maximum


class TestVerifyAdmitted:
    def test_four_node_matching_ok(self, four_node_demands):
        batch, _ = oracle_allocate(four_node_demands, 1)
        assert verify_admitted(batch) is None

    def test_duplicate_dst_detected(self):
        batch = AdmittedBatch(5, 2, ((0, 1, 3), (0, 2, 3)))
        violation = verify_admitted(batch)
        assert violation is not None
        assert violation.node == 3 and violation.role == "dst" and violation.slot == 5

    def test_duplicate_src_detected(self):
        batch = AdmittedBatch(1, 2, ((1, 1, 2), (1, 1, 3)))
        violation = verify_admitted(batch)
        assert violation is not None
        assert violation.node == 1 and violation.role == "src"

    def test_empty_batch_ok(self):
        assert verify_admitted(AdmittedBatch(1, 8, ())) is None


def per_edge_verify(batch):
    """The per-edge check: the first edge, in edge order, whose (slot, src)
    or (slot, dst) an earlier edge holds; the source role is checked first."""
    seen_src, seen_dst = set(), set()
    for offset, src, dst in batch.edges:
        slot = batch.base_slot + offset
        if (offset, src) in seen_src:
            return CapacityViolation(slot, src, "src")
        if (offset, dst) in seen_dst:
            return CapacityViolation(slot, dst, "dst")
        seen_src.add((offset, src))
        seen_dst.add((offset, dst))
    return None


@st.composite
def _claims_with_clashes(draw):
    """Valid claims over a few nodes, then up to three injected claims that
    reuse a source, a destination or both of a drawn claim at its offsets."""
    batch_size = draw(st.sampled_from(VALID_BATCH_SIZES))
    full = (1 << batch_size) - 1
    node = st.integers(0, 5)
    held_src, held_dst = {}, {}
    rows, masks = [], []
    for _ in range(draw(st.integers(0, 12))):
        src, dst = draw(node), draw(node)
        mask = draw(st.integers(0, full)) & ~(held_src.get(src, 0) | held_dst.get(dst, 0))
        held_src[src] = held_src.get(src, 0) | mask
        held_dst[dst] = held_dst.get(dst, 0) | mask
        rows.append((src, dst, 9, 0))
        masks.append(mask)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        role = draw(st.sampled_from(["src", "dst", "both"]))
        src = rows[i][0] if role != "dst" else draw(node)
        dst = rows[i][1] if role != "src" else draw(node)
        mask = (masks[i] | draw(st.integers(0, full))) & draw(st.integers(0, full))
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, (src, dst, 9))
        masks.insert(at, mask)
    return draw(st.integers(1, 500)), batch_size, rows, masks


class TestVerifyClaims:
    """The claim check against the per-edge check."""

    @example(drawn=(9, 8, [(1, 2, 3, 0), (3, 2, 3, 0)], [0b0110, 0b1100]))
    @example(drawn=(9, 8, [(1, 2, 3, 0), (1, 4, 3, 0)], [0b0110, 0b1100]))
    @example(drawn=(1, 64, [(1, 2, 3, 0), (2, 1, 3), (1, 1, 3)], [1 << 63 | 1 << 9, 1 << 40, 1 << 9 | 1 << 40]))
    @given(_claims_with_clashes())
    def test_first_violation_equals_per_edge_check(self, drawn):
        base, batch_size, rows, masks = drawn
        claims = AdmittedBatch.from_claims(base, batch_size, rows, masks)
        expected = per_edge_verify(claims)
        assert verify_admitted(claims) == expected
        # the same edges, one claim per edge
        assert verify_admitted(AdmittedBatch(base, batch_size, claims.edges)) == expected

    def test_duplicated_edge_caught(self):
        batch = AdmittedBatch.from_claims(9, 8, [(1, 2, 3, 0)], [0b1010])
        doubled = AdmittedBatch(9, 8, batch.edges + batch.edges[:1])
        assert verify_admitted(batch) is None
        assert verify_admitted(doubled) == CapacityViolation(10, 1, "src")

    def test_clash_flagged_under_optimize_flag(self):
        script = (
            "from slotarbiter import AdmittedBatch, VerifyingSink, verify_admitted\n"
            "batch = AdmittedBatch.from_claims(9, 8, [(1, 2, 3, 0), (1, 4, 2, 0)], [0b0110, 0b1100])\n"
            "sink = VerifyingSink()\n"
            "sink(batch)\n"
            "print(verify_admitted(batch), '|', sink.violations, sink.first_violation, sink.slots)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(slotarbiter.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        clash = "node 1 used twice as src in slot 11"
        assert proc.stdout.strip() == f"{clash} | 1 {clash} 4", proc.stdout


class TestVerifyMaximal:
    def test_oracle_output_ok(self, four_node_demands):
        batch, rem = oracle_allocate(four_node_demands, 1)
        assert verify_maximal(batch, rem, 1) is None

    def test_removed_edge_found(self, four_node_demands):
        batch, rem = oracle_allocate(four_node_demands, 1)
        # drop one admitted edge: its demand now has a free joint slot
        weakened = AdmittedBatch(batch.base_slot, batch.batch_size, batch.edges[1:])
        removed = batch.edges[0]
        rem = rem + [Demand(removed[1], removed[2], 1)]
        witness = verify_maximal(weakened, rem, 1)
        assert witness is not None
        assert (witness.demand.src, witness.demand.dst) == (removed[1], removed[2])


class TestCanonicalOrder:
    def test_stable_lru_sort(self):
        a = Demand(1, 2, 5, last_alloc=0)
        b = Demand(2, 3, 5, last_alloc=90)
        c = Demand(3, 4, 5, last_alloc=0)
        ordered = canonical_order([b, a, c], current=100)
        # both never-allocated demands outrank the recent one, input order kept
        assert ordered == [a, c, b]
