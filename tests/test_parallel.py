"""Parallel lanes with reconciliation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotarbiter import (
    Architecture,
    Config,
    Demand,
    VerifyingSink,
    oracle_replay,
    reconcile,
    run_paced,
    run_parallel_deterministic,
    run_pipeline_deterministic,
    verify_admitted,
)
from slotarbiter.parallel import AllocationRecord, LaneAdmission, apply_cancellations
from slotarbiter.workload import Arrival, WorkloadSpec

from conftest import (
    MAX_REPLAY_STEPS,
    assert_replay_invariants,
    edges_of,
    make_trace,
    small_trace,
)


def cfg(**kw):
    defaults = dict(num_nodes=64, batch_size=8, lanes=2, architecture=Architecture.PARALLEL)
    defaults.update(kw)
    return Config(**defaults)


def fragment(lane_id, edges, base=1, batch=8, records=None):
    return LaneAdmission(lane_id, base, batch, edges, records or [])


class TestReconcile:
    def test_lowest_lane_wins_dst_contention(self):
        f0 = fragment(0, [(3, 1, 2)])
        f1 = fragment(1, [(3, 4, 2)])
        result = reconcile([f0, f1])
        assert result.final.edges == ((3, 1, 2),)
        assert result.cancelled_edges == {(1, 3, 4, 2)}
        assert verify_admitted(result.final) is None

    def test_lowest_lane_wins_src_contention(self):
        f0 = fragment(0, [(0, 5, 1)])
        f1 = fragment(1, [(0, 5, 2)])
        result = reconcile([f0, f1])
        assert result.final.edges == ((0, 5, 1),)

    def test_disjoint_fragments_pass_through(self):
        f0 = fragment(0, [(0, 1, 2), (1, 3, 4)])
        f1 = fragment(1, [(0, 5, 6), (2, 7, 8)])
        result = reconcile([f0, f1])
        assert sorted(result.final.edges) == sorted(f0.edges + f1.edges)
        assert not result.cancelled_edges

    def test_single_lane_identity(self):
        f0 = fragment(0, [(0, 1, 2), (5, 3, 4)])
        result = reconcile([f0])
        assert sorted(result.final.edges) == sorted(f0.edges)
        assert not result.cancelled_edges

    def test_idempotent_on_consistent_set(self):
        f0 = fragment(0, [(0, 1, 2)])
        f1 = fragment(1, [(1, 1, 2)])  # same pair, different slot: no contention
        first = reconcile([f0, f1])
        again = reconcile(
            [
                fragment(0, [e for e in first.final.edges][:1]),
                fragment(1, [e for e in first.final.edges][1:]),
            ]
        )
        assert sorted(again.final.edges) == sorted(first.final.edges)
        assert not again.cancelled_edges

    def test_mismatched_bases_rejected(self):
        with pytest.raises(ValueError):
            reconcile([fragment(0, [], base=1), fragment(1, [], base=9)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reconcile([])

    def test_randomized_fragments_always_reconcile_validly(self):
        import numpy as np

        rng = np.random.default_rng(17)
        for _ in range(500):
            lanes = int(rng.integers(1, 5))
            fragments = []
            total_edges = 0
            for lane_id in range(lanes):
                used_src, used_dst = set(), set()
                edges = []
                for _ in range(int(rng.integers(0, 12))):
                    offset = int(rng.integers(0, 8))
                    src = int(rng.integers(0, 6))
                    dst = int(rng.integers(0, 6))
                    # keep each fragment internally consistent, like a lane would
                    if (offset, src) in used_src or (offset, dst) in used_dst:
                        continue
                    used_src.add((offset, src))
                    used_dst.add((offset, dst))
                    edges.append((offset, src, dst))
                total_edges += len(edges)
                fragments.append(fragment(lane_id, edges))
            result = reconcile(fragments)
            assert verify_admitted(result.final) is None
            assert len(result.final.edges) + len(result.cancelled_edges) == total_edges


class TestApplyCancellations:
    def test_revoked_slots_restored_exactly(self):
        # lane 1 allocated offsets [2, 5] for (4, 2); offset 5 was cancelled
        rec = AllocationRecord(4, 2, [2, 5], prev_last_alloc=0, residual=None)
        requeue, revoked, kept = apply_cancellations(
            1, 9, [rec], {(1, 5, 4, 2)}
        )
        assert revoked == 1 and kept == 1
        assert requeue == [Demand(4, 2, 1, last_alloc=11)]  # 9 + kept offset 2

    def test_fully_revoked_rolls_back_priority(self):
        rec = AllocationRecord(4, 2, [0], prev_last_alloc=77, residual=None)
        requeue, revoked, kept = apply_cancellations(0, 9, [rec], {(0, 0, 4, 2)})
        assert requeue == [Demand(4, 2, 1, last_alloc=77)]
        assert revoked == 1 and kept == 0

    def test_residual_merges_with_revoked(self):
        residual = Demand(4, 2, 10, last_alloc=16)
        rec = AllocationRecord(4, 2, [6, 7], prev_last_alloc=0, residual=residual)
        requeue, revoked, kept = apply_cancellations(
            2, 9, [rec], {(2, 7, 4, 2)}
        )
        # 10 leftover + 1 revoked, last kept offset 6 -> slot 15
        assert requeue == [Demand(4, 2, 11, last_alloc=15)]

    def test_untouched_record_keeps_residual_only(self):
        residual = Demand(1, 2, 3, last_alloc=8)
        rec = AllocationRecord(1, 2, [5, 6, 7], prev_last_alloc=0, residual=residual)
        requeue, revoked, kept = apply_cancellations(0, 1, [rec], set())
        assert requeue == [residual.__class__(1, 2, 3, 8)]
        assert revoked == 0 and kept == 3


class TestDeterministic:
    def test_single_lane_equals_pipeline(self):
        trace = make_trace(21, 400, 64)
        par = run_parallel_deterministic(cfg(lanes=1), trace)
        pipe = run_pipeline_deterministic(
            Config(num_nodes=64, batch_size=8, cores=1), trace
        )
        assert edges_of(par.batches) == edges_of(pipe.batches)

    def test_single_lane_equals_oracle(self):
        trace = make_trace(22, 400, 64)
        par = run_parallel_deterministic(cfg(lanes=1), trace)
        arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
        expected, _ = oracle_replay(arrivals, 8)
        assert edges_of(par.batches) == edges_of(expected)

    def test_non_contending_trace_no_cancellations(self):
        # disjoint sources and destinations across all demands
        trace = [Arrival(0, i, 32 + i, 4) for i in range(16)]
        res = run_parallel_deterministic(cfg(lanes=4), trace)
        assert res.metrics.cancelled_then_reissued == 0
        assert res.metrics.conservation_ok()

    def test_hot_destination_capacity_bound(self):
        # every demand shares one destination: at most batch_size slots per batch
        trace = [Arrival(0, src, 63, 16) for src in range(8)]
        res = run_parallel_deterministic(cfg(lanes=4), trace)
        for batch in res.batches:
            to_hot = [e for e in batch.edges if e[2] == 63]
            assert len(to_hot) <= 8
        assert all(verify_admitted(b) is None for b in res.batches)
        assert res.metrics.conservation_ok()

    def test_contention_cancels_but_conserves(self):
        trace = make_trace(23, 400, 16, unique_pairs=False)
        res = run_parallel_deterministic(cfg(num_nodes=16, lanes=4), trace)
        m = res.metrics
        assert m.conservation_ok()
        assert m.pending_slots == 0
        assert m.cancelled_then_reissued > 0  # 16 nodes, 4 lanes: contention is certain
        assert all(verify_admitted(b) is None for b in res.batches)

    def test_total_slots_served_despite_cancellations(self):
        trace = [Arrival(0, s, d, 5) for s in range(4) for d in range(4) if s != d]
        res = run_parallel_deterministic(cfg(num_nodes=4, lanes=3), trace)
        assert res.metrics.allocated_slots == sum(5 for s in range(4) for d in range(4) if s != d)
        assert res.metrics.conservation_ok()


_batch_sizes = st.sampled_from([1, 4, 8])


class TestGeneratedTraces:
    """Properties over generated traces, at 1-4 lanes."""

    @settings(max_examples=150, deadline=None)
    @given(small_trace(), _batch_sizes, st.integers(1, 4))
    def test_invariants(self, drawn, batch_size, lanes):
        num_nodes, trace = drawn
        res = run_parallel_deterministic(
            cfg(num_nodes=num_nodes, batch_size=batch_size, lanes=lanes), trace, MAX_REPLAY_STEPS)
        assert_replay_invariants(res, trace, batch_size)
        assert res.metrics.pending_slots == 0

    @settings(max_examples=150, deadline=None)
    @given(small_trace(), _batch_sizes)
    def test_single_lane_equals_oracle(self, drawn, batch_size):
        num_nodes, trace = drawn
        res = run_parallel_deterministic(
            cfg(num_nodes=num_nodes, batch_size=batch_size, lanes=1), trace, MAX_REPLAY_STEPS)
        arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
        expected, pending = oracle_replay(arrivals, batch_size)
        assert edges_of(res.batches) == edges_of(expected)
        assert res.metrics.pending_slots == sum(d.remaining for d in pending)


class TestPaced:
    def test_light_load_conserves_and_verifies(self):
        sink = VerifyingSink()
        config = cfg(lanes=2)
        spec = WorkloadSpec(seed=4, num_nodes=64, mean_interarrival_ns=1_000_000)
        result, _ = run_paced(config, spec, 0.6, sink=sink)
        m = result.metrics
        assert m.conservation_ok()
        assert sink.violations == 0
        assert m.allocated_slots > 0
