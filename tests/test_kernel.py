"""Allocation kernel: bins, bitmap matching, both drain modes."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import slotarbiter
from slotarbiter import (
    AllocationMode,
    Demand,
    GreedyKernel,
    bin_index,
    canonical_order,
    first_free_slot,
    lru_order,
    oracle_allocate,
)
from slotarbiter.kernel import allocate_slots
from slotarbiter.model import VALID_BATCH_SIZES, BatchBitmaps


class TestFirstFreeSlot:
    def test_all_free(self):
        assert first_free_slot(0xFF, 0xFF) == 0

    def test_exhausted_source(self):
        assert first_free_slot(0x00, 0xFF) is None

    def test_hand_evaluated_intersection(self):
        # src free {2,4,5,7}, dst free {0,2,7} -> joint {2,7} -> 2
        src = (1 << 2) | (1 << 4) | (1 << 5) | (1 << 7)
        dst = (1 << 0) | (1 << 2) | (1 << 7)
        assert first_free_slot(src, dst) == 2


class TestBinIndex:
    def test_just_allocated_is_lowest_priority(self):
        assert bin_index(10, 10) == 31

    def test_starved_clamps_to_top(self):
        assert bin_index(0, 32) == 0
        assert bin_index(0, 1000) == 0

    def test_formula(self):
        # bin = 31 - min(gap, 31)
        assert bin_index(0, 10) == 21
        assert bin_index(5, 9) == 27

    def test_monotone_nonincreasing_in_gap(self):
        bins = [bin_index(0, gap) for gap in range(0, 65)]
        assert all(b1 >= b2 for b1, b2 in zip(bins, bins[1:]))

    def test_future_last_alloc_rejected(self):
        with pytest.raises(ValueError):
            bin_index(5, 4)


@st.composite
def _backlog(draw):
    """A current slot and demands whose last_alloc is at most that slot."""
    current = draw(st.integers(0, 200))
    last_alloc = st.one_of(
        st.just(0),
        st.just(current),
        st.integers(max(0, current - 40), current),
        st.integers(0, current),
    )
    demands = draw(st.lists(
        st.builds(lambda src, n, last: Demand(src, src + 1, n, last),
                  st.integers(0, 5), st.integers(1, 4), last_alloc),
        max_size=40,
    ))
    return current, demands


class TestLruOrder:
    @given(_backlog(), st.sampled_from([1, 2, 32]))
    def test_same_objects_in_same_order_as_oracle(self, backlog, num_bins):
        current, demands = backlog
        got = lru_order(demands, current, num_bins)
        want = canonical_order(demands, current, num_bins)
        assert len(got) == len(want)
        assert all(g is w for g, w in zip(got, want))

    @given(_backlog(), st.sampled_from([1, 2, 32]), st.integers(1, 50), st.data())
    def test_future_last_alloc_rejected(self, backlog, num_bins, ahead, data):
        current, demands = backlog
        at = data.draw(st.integers(0, len(demands)))
        demands.insert(at, Demand(7, 8, 1, current + ahead))
        with pytest.raises(ValueError):
            lru_order(demands, current, num_bins)

    def test_future_check_survives_optimize_flag(self):
        script = (
            "from slotarbiter import Demand, lru_order\n"
            "try:\n"
            "    lru_order([Demand(1, 2, 1, 5), Demand(2, 3, 1, 9)], 8)\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(slotarbiter.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ValueError: last_alloc 9"), proc.stdout


class TestSortIntoBins:
    """The kernel drains its pending demands in LRU order."""

    @staticmethod
    def _drain_order(demands, base_slot):
        kernel = GreedyKernel(8, 8)
        kernel.reset(base_slot)
        kernel.ingest(demands)
        result = kernel.sweep()
        kernel.finish()
        # disjoint pairs never contend, so the edges list the pairs in drain order
        return list(dict.fromkeys((s, d) for _, s, d in result.edges))

    def test_gap_order(self):
        recent = Demand(3, 4, 5, last_alloc=40)
        starved = Demand(1, 2, 5, last_alloc=0)
        assert self._drain_order([recent, starved], 40) == [(1, 2), (3, 4)]

    def test_empty_input_no_change(self):
        kernel = GreedyKernel(4, 8)
        kernel.ingest([])
        assert kernel.is_empty()

    def test_fifo_within_bin(self):
        a = Demand(1, 2, 5)
        b = Demand(3, 4, 5)
        c = Demand(5, 6, 5)
        assert self._drain_order([a, b, c], 1) == [(1, 2), (3, 4), (5, 6)]
        assert self._drain_order([c, b, a], 1) == [(5, 6), (3, 4), (1, 2)]


@st.composite
def _pass_input(draw):
    """Partly claimed rows of a random width, and demands over few nodes, so
    nodes and whole pairs repeat and sizes run from 1 past the width."""
    batch_size = draw(st.sampled_from(VALID_BATCH_SIZES))
    num_nodes = draw(st.integers(2, 5))
    full = (1 << batch_size) - 1
    rows = st.lists(st.one_of(st.just(full), st.integers(0, full)),
                    min_size=num_nodes, max_size=num_nodes)
    src_rows, dst_rows = draw(rows), draw(rows)
    pair = st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)).filter(
        lambda p: p[0] != p[1])
    demands = draw(st.lists(
        st.builds(lambda p, n: Demand(p[0], p[1], n), pair, st.integers(1, batch_size + 2)),
        max_size=16,
    ))
    return batch_size, src_rows, dst_rows, demands


def _reference_pass(src_rows, dst_rows, demands):
    """Slot by slot, demand by demand, with ``first_free_slot``."""
    src_rows, dst_rows = list(src_rows), list(dst_rows)
    masks, edges = [], []
    for demand in demands:
        mask = 0
        for _ in range(demand.remaining):
            offset = first_free_slot(src_rows[demand.src], dst_rows[demand.dst])
            if offset is None:
                break
            src_rows[demand.src] &= ~(1 << offset)
            dst_rows[demand.dst] &= ~(1 << offset)
            mask |= 1 << offset
            edges.append((offset, demand.src, demand.dst))
        masks.append(mask)
    return masks, edges


class TestAllocateSlots:
    """The one greedy pass, against a per-demand loop."""

    @given(_pass_input())
    def test_pass_equals_per_demand_loop(self, drawn):
        batch_size, src_rows, dst_rows, demands = drawn
        bitmaps = BatchBitmaps(len(src_rows), batch_size)
        bitmaps.src, bitmaps.dst = list(src_rows), list(dst_rows)
        edges = []
        masks = allocate_slots(bitmaps, demands, edges)

        assert (masks, edges) == _reference_pass(src_rows, dst_rows, demands)
        claimed_src = [0] * len(src_rows)
        claimed_dst = [0] * len(dst_rows)
        for demand, mask in zip(demands, masks):
            assert mask.bit_count() <= demand.remaining
            claimed_src[demand.src] |= mask
            claimed_dst[demand.dst] |= mask
        for start, claimed, final in ((src_rows, claimed_src, bitmaps.src),
                                      (dst_rows, claimed_dst, bitmaps.dst)):
            assert all(c & ~s == 0 for s, c in zip(start, claimed))
            assert final == [s & ~c for s, c in zip(start, claimed)]
        for demand, mask in zip(demands, masks):
            if mask.bit_count() < demand.remaining:
                assert bitmaps.src[demand.src] & bitmaps.dst[demand.dst] == 0

    def test_takes_lowest_joint_offsets_and_skips_blocked(self):
        bitmaps = BatchBitmaps(4, 8)
        bitmaps.dst[2] = 0b1011_0110
        edges = []
        masks = allocate_slots(
            bitmaps, [Demand(0, 2, 3), Demand(1, 2, 5), Demand(3, 1, 2)], edges)
        assert masks == [0b0001_0110, 0b1010_0000, 0b0000_0011]
        assert edges == [(1, 0, 2), (2, 0, 2), (4, 0, 2), (5, 1, 2), (7, 1, 2),
                         (0, 3, 1), (1, 3, 1)]
        assert bitmaps.dst[2] == 0


def _sweep(demands, batch_size, mode, base_slot=1, num_nodes=16):
    kernel = GreedyKernel(num_nodes, batch_size, mode)
    kernel.reset(base_slot)
    kernel.ingest(demands)
    return kernel.sweep(), kernel


class TestAllocateBatch:
    def test_four_node_single_slot_matching(self, four_node_demands):
        result, _ = _sweep(four_node_demands, 1, AllocationMode.BATCH, num_nodes=5)
        admitted = {(s, d) for _, s, d in result.edges}
        assert admitted == {(1, 3), (4, 2), (2, 1), (3, 4)}
        assert [(d.src, d.dst) for d in result.outflow] == [(2, 3)]

    def test_batch_mode_worked_example_first_core(self):
        demands = [Demand(1, 2, 100), Demand(3, 2, 2)]
        result, _ = _sweep(demands, 8, AllocationMode.BATCH)
        assert [(o, s, d) for o, s, d in result.edges] == [
            (o, 1, 2) for o in range(8)
        ]
        assert result.outflow[0] == Demand(1, 2, 92, last_alloc=8)
        assert result.outflow[1] == Demand(3, 2, 2, last_alloc=0)

    def test_batch_mode_worked_example_second_core(self):
        # LRU puts the untouched pair first at the next context
        demands = [Demand(1, 2, 92, last_alloc=8), Demand(3, 2, 2, last_alloc=0)]
        result, _ = _sweep(demands, 8, AllocationMode.BATCH, base_slot=9)
        slots = sorted((9 + o, s, d) for o, s, d in result.edges)
        assert slots[:2] == [(9, 3, 2), (10, 3, 2)]
        assert slots[2:] == [(s, 1, 2) for s in range(11, 17)]
        assert result.outflow == [Demand(1, 2, 86, last_alloc=16)]

    def test_empty_bins(self):
        result, _ = _sweep([], 8, AllocationMode.BATCH)
        assert result.edges == [] and result.outflow == []

    def test_per_slot_parks_in_extra_bin(self):
        result, bins = _sweep([Demand(1, 2, 100)], 8, AllocationMode.PER_SLOT)
        # one slot per drain, then hops through the extra bins
        assert len(result.edges) == 8
        assert result.outflow == []
        parked = [d for q in bins.extra for d in q]
        assert parked == [Demand(1, 2, 92, last_alloc=8)]

    def test_per_slot_unallocatable_flows_out(self):
        demands = [Demand(1, 2, 1), Demand(3, 2, 1)]
        result, _ = _sweep(demands, 1, AllocationMode.PER_SLOT)
        assert len(result.edges) == 1
        assert result.outflow == [Demand(3, 2, 1)]


class TestKernelOracleEquivalence:
    """The kernel must match the sequential reference on the same drain order."""

    @pytest.mark.parametrize("mode", [AllocationMode.BATCH, AllocationMode.PER_SLOT])
    def test_random_instances(self, mode):
        rng = np.random.default_rng(2024)
        for trial in range(10_000):
            num_nodes = int(rng.integers(2, 9))
            batch_size = int(rng.choice([1, 4, 8]))
            count = int(rng.integers(0, 12))
            demands = []
            for _ in range(count):
                src = int(rng.integers(0, num_nodes))
                dst = int(rng.integers(0, num_nodes))
                if src == dst:
                    continue
                demands.append(
                    Demand(src, dst, int(rng.integers(1, 12)), int(rng.integers(0, 3)))
                )
            base = int(rng.integers(3, 20))

            kernel = GreedyKernel(num_nodes, batch_size, mode=mode)
            kernel.reset(base)
            kernel.ingest(sorted(demands, key=lambda d: bin_index(d.last_alloc, base)))
            sweep = kernel.sweep()
            batch, flush = kernel.finish()

            ordered = sorted(demands, key=lambda d: bin_index(d.last_alloc, base))
            expected_batch, expected_rem = oracle_allocate(ordered, batch_size, mode, base)

            assert sorted(batch.edges) == sorted(expected_batch.edges), (
                f"trial {trial}: edges diverge"
            )
            assert sweep.outflow + flush == expected_rem, f"trial {trial}: remainders diverge"


class TestMaximality:
    def test_no_remainder_has_free_joint_slot(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            demands = []
            for _ in range(int(rng.integers(1, 20))):
                src = int(rng.integers(0, 8))
                dst = int(rng.integers(0, 8))
                if src == dst:
                    continue
                demands.append(Demand(src, dst, int(rng.integers(1, 10))))
            result, _ = _sweep(demands, 8, AllocationMode.BATCH, num_nodes=8)
            used_src = {}
            used_dst = {}
            for o, s, d in result.edges:
                used_src.setdefault(o, set()).add(s)
                used_dst.setdefault(o, set()).add(d)
            for rem in result.outflow:
                for offset in range(8):
                    both_free = rem.src not in used_src.get(offset, set()) and (
                        rem.dst not in used_dst.get(offset, set())
                    )
                    assert not both_free, "remainder had a jointly free slot"


class TestKernelFairness:
    def test_two_contenders_share_destination(self):
        """Always-backlogged demands to one destination alternate batches."""
        kernel = GreedyKernel(4, 8, mode=AllocationMode.BATCH)
        pending = [Demand(1, 3, 10_000), Demand(2, 3, 10_000)]
        got = {1: [], 2: []}
        base = 1
        for _ in range(128):
            kernel.reset(base)
            ordered = sorted(pending, key=lambda d: bin_index(d.last_alloc, base))
            kernel.ingest(ordered)
            result = kernel.sweep()
            kernel.finish()
            for o, s, _ in result.edges:
                got[s].append(base + o)
            survivors = {d.src: d for d in result.outflow}
            pending = [survivors[1], survivors[2]]
            base += 8

        slots = {src: set(v) for src, v in got.items()}
        total = 128 * 8
        # any window of 16 slots: per-contender counts differ by at most 8
        for start in range(1, total - 16):
            window = range(start, start + 16)
            c1 = sum(1 for s in window if s in slots[1])
            c2 = sum(1 for s in window if s in slots[2])
            assert abs(c1 - c2) <= 8
