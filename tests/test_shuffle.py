"""Shuffle architecture: backlog dedup, bin circulation, distributor."""

import os
import subprocess
import sys
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slotarbiter
from slotarbiter import (
    Architecture,
    Config,
    Demand,
    VerifyingSink,
    bench_distributor,
    oracle_replay,
    run_paced,
    run_shuffle_deterministic,
    verify_admitted,
)
from slotarbiter.model import BatchBitmaps
from slotarbiter.shuffle import (
    BacklogShard,
    Bin,
    alloc_process,
    postalloc_process,
)
from slotarbiter.workload import Arrival, WorkloadSpec, shard_of, shard_range

from conftest import (
    MAX_REPLAY_STEPS,
    assert_replay_invariants,
    edges_of,
    make_trace,
    small_trace,
)


def cfg(**kw):
    defaults = dict(num_nodes=64, batch_size=8, sets=1, architecture=Architecture.SHUFFLE)
    defaults.update(kw)
    return Config(**defaults)


class TestBacklogShard:
    def test_fresh_pair_goes_live(self):
        shard = BacklogShard(0, 0, 8)
        shard.ingest(Demand(1, 2, 50))
        assert shard.table[(1, 2)].in_flight
        assert shard.staging == [Demand(1, 2, 50, 0)]

    def test_second_request_accrues_no_duplicate(self):
        shard = BacklogShard(0, 0, 8)
        shard.ingest(Demand(1, 2, 50))
        shard.ingest(Demand(1, 2, 30))
        assert shard.table[(1, 2)].accrued == 30
        assert len(shard.staging) == 1  # single live copy

    def test_completion_reissues_accrued(self):
        shard = BacklogShard(0, 0, 8)
        shard.ingest(Demand(1, 2, 50))
        shard.ingest(Demand(1, 2, 30))
        bin_ = Bin(origin=0, capacity=4)
        shard.fill_bin(bin_, current_base=1)
        bin_.completed = [(1, 2, 50)]
        bin_.remainders = []
        bin_.entries = []
        shard.absorb_return(bin_)
        # accrual reissued as a new live demand with the pair's LRU key
        assert shard.staging == [Demand(1, 2, 30, 50)]
        assert shard.table[(1, 2)].accrued == 0
        assert shard.table[(1, 2)].in_flight

    def test_completion_without_accrual_clears_flag(self):
        shard = BacklogShard(0, 0, 8)
        shard.ingest(Demand(1, 2, 5))
        bin_ = Bin(origin=0, capacity=4)
        shard.fill_bin(bin_, 1)
        bin_.completed = [(1, 2, 5)]
        shard.absorb_return(bin_)
        assert not shard.table[(1, 2)].in_flight
        assert shard.staging == []

    def test_fill_is_lru_ordered_and_capacity_bounded(self):
        shard = BacklogShard(0, 0, 8)
        shard.ingest(Demand(1, 2, 5))
        shard.staging.append(Demand(2, 3, 5, last_alloc=90))
        shard.staging.append(Demand(3, 4, 5, last_alloc=0))
        bin_ = Bin(origin=0, capacity=2)
        shard.fill_bin(bin_, current_base=100)
        assert [(d.src, d.dst) for d in bin_.entries] == [(1, 2), (3, 4)]
        assert [(d.src, d.dst) for d in shard.staging] == [(2, 3)]  # waits, not dropped

    def test_fill_keeps_starved_in_staging_order_then_sorts_recent(self):
        shard = BacklogShard(0, 0, 8)
        shard.staging = [
            Demand(1, 2, 5, last_alloc=50),
            Demand(2, 3, 5, last_alloc=90),
            Demand(3, 4, 5, last_alloc=0),
            Demand(4, 5, 5, last_alloc=80),
        ]
        bin_ = Bin(origin=0, capacity=3)
        # at slot 100 with 32 bins, last_alloc <= 69 ties in bin 0
        shard.fill_bin(bin_, current_base=100)
        assert [d.last_alloc for d in bin_.entries] == [50, 0, 80]
        assert [d.last_alloc for d in shard.staging] == [90]

    def test_out_of_range_src_rejected(self):
        shard = BacklogShard(0, 0, 8)
        with pytest.raises(ValueError):
            shard.ingest(Demand(9, 2, 5))


class TestAllocProcess:
    def test_non_contending_bin_fully_allocated(self):
        bin_ = Bin(origin=0, capacity=8)
        bin_.entries = [Demand(0, 1, 3), Demand(2, 3, 8), Demand(4, 5, 20)]
        bin_.result_bits = [0, 0, 0]
        alloc_process(bin_, BatchBitmaps(8, 8))
        assert [bits.bit_count() for bits in bin_.result_bits] == [3, 8, 8]

    def test_same_destination_order_decides(self):
        bin_ = Bin(origin=0, capacity=8)
        bin_.entries = [Demand(0, 2, 8), Demand(1, 2, 8)]
        bin_.result_bits = [0, 0]
        alloc_process(bin_, BatchBitmaps(4, 8))
        assert bin_.result_bits[0].bit_count() == 8
        assert bin_.result_bits[1] == 0

    def test_empty_bin_unchanged(self):
        bin_ = Bin(origin=0)
        alloc_process(bin_, BatchBitmaps(4, 8))
        assert bin_.entries == [] and bin_.result_bits == []


class TestPostallocProcess:
    def test_spent_entry_completes(self):
        bin_ = Bin(origin=0)
        bin_.entries = [Demand(0, 1, 2)]
        alloc_process(bin_, BatchBitmaps(4, 8))
        assert bin_.result_bits == [0b11]
        edges = postalloc_process(bin_, base_slot=9)
        assert edges == [(0, 0, 1), (1, 0, 1)]
        assert bin_.completed == [(0, 1, 10)]
        assert bin_.remainders == []
        assert bin_.edges == [] and bin_.entries == []

    def test_partial_entry_becomes_remainder(self):
        bin_ = Bin(origin=0)
        bin_.entries = [Demand(1, 2, 100)]
        bin_.result_bits = [0xFF]
        postalloc_process(bin_, base_slot=1)
        assert bin_.remainders == [Demand(1, 2, 92, last_alloc=8)]

    def test_zero_grant_rides_back_unchanged(self):
        entry = Demand(1, 2, 5, last_alloc=3)
        bin_ = Bin(origin=0)
        bin_.entries = [entry]
        bin_.result_bits = [0]
        edges = postalloc_process(bin_, base_slot=9)
        assert edges == []
        assert bin_.remainders == [entry]


class TestShardPartition:
    def test_ranges_invert_shard_of(self):
        for nodes, shards in [(10, 4), (256, 2), (256, 4), (7, 3), (64, 8)]:
            for src in range(nodes):
                x = shard_of(src, nodes, shards)
                lo, hi = shard_range(nodes, x, shards)
                assert lo <= src < hi, (nodes, shards, src)


class TestDeterministic:
    def test_single_set_equals_oracle(self):
        trace = make_trace(31, 400, 64)
        res = run_shuffle_deterministic(cfg(bin_capacity=10**6), trace)
        arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
        expected, _ = oracle_replay(arrivals, 8)
        assert edges_of(res.batches) == edges_of(expected)
        assert res.metrics.conservation_ok()

    def test_origin_return_asserted_every_circulation(self):
        # the runner asserts invert() sends every bin home; a full run is the test
        trace = make_trace(32, 300, 64, unique_pairs=False)
        res = run_shuffle_deterministic(cfg(sets=4), trace)
        assert res.metrics.conservation_ok()

    def test_origin_check_survives_optimize_flag(self):
        # a wrong inverse must fail loudly even where asserts are stripped
        script = textwrap.dedent(
            """
            from slotarbiter import Architecture, Config, run_shuffle_deterministic
            from slotarbiter.permutation import PermutationSpec
            from slotarbiter.workload import Arrival

            invert = PermutationSpec.invert
            PermutationSpec.invert = lambda self, y, i: (invert(self, y, i) + 1) % self.size
            cfg = Config(num_nodes=16, sets=2, architecture=Architecture.SHUFFLE)
            trace = [Arrival(0, 1, 2, 3), Arrival(0, 9, 3, 3)]
            try:
                run_shuffle_deterministic(cfg, trace)
            except RuntimeError as exc:
                print("RuntimeError:", exc)
            """
        )
        src_dir = os.path.dirname(os.path.dirname(slotarbiter.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("RuntimeError: inverse distributor"), proc.stdout

    def test_emitted_in_slot_order_across_sets(self):
        trace = make_trace(33, 300, 64, unique_pairs=False)
        res = run_shuffle_deterministic(cfg(sets=2), trace)
        bases = [b.base_slot for b in res.batches]
        assert bases == sorted(bases)

    def test_capacity_invariant_all_batches(self):
        trace = make_trace(34, 400, 32, unique_pairs=False)
        res = run_shuffle_deterministic(cfg(num_nodes=32, sets=2), trace)
        assert all(verify_admitted(b) is None for b in res.batches)

    def test_adversarial_duplicates_single_copy(self):
        # many requests for the same pair: conservation must count accruals once
        trace = [Arrival(i * 10, 1, 2, 10) for i in range(50)]
        trace += [Arrival(i * 10 + 5, 3, 2, 1) for i in range(50)]
        res = run_shuffle_deterministic(cfg(num_nodes=8), trace)
        m = res.metrics
        assert m.demanded_slots == 50 * 10 + 50
        assert m.conservation_ok()
        assert m.pending_slots == 0

    def test_small_bins_conserve(self):
        trace = make_trace(35, 400, 32, unique_pairs=False)
        res = run_shuffle_deterministic(
            cfg(num_nodes=32, sets=2, bin_capacity=4), trace, max_rounds=200_000
        )
        assert res.metrics.conservation_ok()
        assert res.metrics.pending_slots == 0

    def test_shard_set_visits_balanced(self):
        """Each shard's bins reach each set within 1 of evenly over any window."""
        trace = make_trace(36, 200, 64, unique_pairs=False)
        # run long enough for several full permutation periods
        from slotarbiter.permutation import PermutationSpec

        spec = PermutationSpec(2)
        rounds = 64
        counts = {(x, y): 0 for x in range(2) for y in range(2)}
        for i in range(rounds):
            for x in range(2):
                counts[(x, spec.permute(x, i))] += 1
        assert all(abs(c - rounds / 2) <= 1 for c in counts.values())


_batch_sizes = st.sampled_from([1, 4, 8])


class TestGeneratedTraces:
    """Properties over generated traces, at 1-4 sets."""

    @settings(max_examples=150, deadline=None)
    @given(small_trace(), _batch_sizes, st.integers(1, 4), st.sampled_from([1, 4, 64]))
    def test_invariants(self, drawn, batch_size, sets, bin_capacity):
        num_nodes, trace = drawn
        res = run_shuffle_deterministic(
            cfg(num_nodes=num_nodes, batch_size=batch_size, sets=sets,
                bin_capacity=bin_capacity), trace, MAX_REPLAY_STEPS)
        assert_replay_invariants(res, trace, batch_size)
        assert res.metrics.pending_slots == 0

    # A shard merges a repeated pair into its live demand and the oracle does
    # not, so the two agree only on traces of distinct pairs.
    @settings(max_examples=150, deadline=None)
    @given(small_trace(unique_pairs=True), _batch_sizes)
    def test_single_set_equals_oracle(self, drawn, batch_size):
        num_nodes, trace = drawn
        res = run_shuffle_deterministic(
            cfg(num_nodes=num_nodes, batch_size=batch_size, bin_capacity=10**6), trace,
            MAX_REPLAY_STEPS)
        arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
        expected, pending = oracle_replay(arrivals, batch_size)
        assert edges_of(res.batches) == edges_of(expected)
        assert res.metrics.pending_slots == sum(d.remaining for d in pending)


class TestPaced:
    def test_single_set_conserves_and_verifies(self):
        sink = VerifyingSink()
        config = cfg()
        spec = WorkloadSpec(seed=6, num_nodes=64, mean_interarrival_ns=1_000_000)
        result, _ = run_paced(config, spec, 0.6, sink=sink)
        m = result.metrics
        assert m.conservation_ok()
        assert sink.violations == 0
        assert sink.out_of_order == 0
        assert m.allocated_slots > 0

    def test_four_sets_conserve_and_verify(self):
        sink = VerifyingSink()
        config = cfg(sets=4, num_nodes=64)
        spec = WorkloadSpec(seed=7, num_nodes=64, mean_interarrival_ns=500_000)
        result, _ = run_paced(config, spec, 0.8, sink=sink)
        m = result.metrics
        assert m.conservation_ok()
        assert sink.violations == 0
        assert sink.out_of_order == 0
        assert m.allocated_slots > 0

    def test_reports_rounds_and_circulation_latency(self):
        spec = WorkloadSpec(seed=8, num_nodes=64, mean_interarrival_ns=500_000)
        result, _ = run_paced(cfg(sets=2), spec, 0.4)
        counters = result.metrics.lane_counters
        assert counters["rounds"] > 0
        assert counters["emitted_batches"] == counters["circulations"] == 2 * counters["rounds"]
        assert counters["allocated"] == result.metrics.allocated_slots
        assert 0 < counters["circulation_p50_us"] <= counters["circulation_p99_us"]

    def test_alloc_lane_checks_its_routing(self, monkeypatch):
        # invert() both picks the alloc lane's mailbox and names the origin the
        # postalloc lane checks, so only a permute() check at alloc sees this
        from slotarbiter.permutation import PermutationSpec

        invert = PermutationSpec.invert
        monkeypatch.setattr(
            PermutationSpec, "invert", lambda self, y, i: (invert(self, y, i) + 1) % self.size
        )
        spec = WorkloadSpec(seed=7, num_nodes=64, mean_interarrival_ns=500_000)
        with pytest.raises(RuntimeError, match="alloc set"):
            run_paced(cfg(sets=2), spec, 0.8)


class TestBenchDistributor:
    def test_quick_run_reports_every_circulation(self):
        before = set(threading.enumerate())
        stats = bench_distributor(2, circulations=20)
        assert stats["circulations"] == 40.0
        assert 0 < stats["p50_us"] <= stats["p99_us"]
        assert [t for t in threading.enumerate() if t not in before] == []
