"""Pipelined architecture: forwarding, rotation, emission, paced driver."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from slotarbiter import (
    AllocationMode,
    Architecture,
    Config,
    Demand,
    VerifyingSink,
    oracle_replay,
    run_paced,
    run_pipeline_deterministic,
    verify_admitted,
)
from slotarbiter.workload import Arrival, WorkloadSpec

from conftest import FOUR_NODE_ADMITTED, MAX_REPLAY_STEPS, edges_of, make_trace, small_trace


def cfg(**kw):
    defaults = dict(num_nodes=64, batch_size=8, cores=1)
    defaults.update(kw)
    return Config(**defaults)


class TestDeterministic:
    def test_four_node_trace_single_context(self, four_node_trace):
        res = run_pipeline_deterministic(cfg(num_nodes=5, batch_size=1), four_node_trace, max_steps=1)
        assert {(s, d) for _, s, d in res.batches[0].edges} == FOUR_NODE_ADMITTED
        assert res.metrics.pending_slots == 1

    def test_remainder_loops_to_next_batch(self, four_node_trace):
        res = run_pipeline_deterministic(cfg(num_nodes=5, batch_size=1), four_node_trace)
        # the blocked pair lands in the following timeslot
        assert (2, 2, 3) in edges_of(res.batches)
        assert res.metrics.conservation_ok()
        assert res.metrics.pending_slots == 0

    def test_batch_mode_worked_example_two_contexts(self):
        trace = [Arrival(0, 1, 2, 100), Arrival(0, 3, 2, 2)]
        res = run_pipeline_deterministic(cfg(num_nodes=4, cores=2), trace, max_steps=2)
        edges = edges_of(res.batches)
        assert [(s, sd, dd) for s, sd, dd in edges if s <= 8] == [
            (slot, 1, 2) for slot in range(1, 9)
        ]
        assert [(s, sd, dd) for s, sd, dd in edges if 9 <= s <= 10] == [
            (9, 3, 2),
            (10, 3, 2),
        ]
        assert [(s, sd, dd) for s, sd, dd in edges if 11 <= s <= 16] == [
            (slot, 1, 2) for slot in range(11, 17)
        ]

    def test_empty_system_emits_empty_batches(self):
        res = run_pipeline_deterministic(cfg(cores=4), [], max_steps=10)
        # drained before the first step: only close emits, one batch per context
        assert len(res.batches) == 4
        assert all(len(b.edges) == 0 for b in res.batches)
        assert res.metrics.demanded_slots == 0
        assert res.metrics.allocated_slots == 0

    def test_unallocatable_demand_forwards_until_free(self):
        # two bulk flows to one destination: the second must be admitted at a
        # later context's batch, not dropped
        trace = [Arrival(0, 1, 2, 8), Arrival(0, 3, 2, 8)]
        res = run_pipeline_deterministic(cfg(num_nodes=4, cores=4), trace)
        edges = edges_of(res.batches)
        first_of_3 = min(s for s, src, _ in edges if src == 3)
        assert first_of_3 == 9  # batch of the second context
        assert res.metrics.conservation_ok()

    def test_emission_order_strictly_increasing(self):
        trace = make_trace(5, 200, 64)
        res = run_pipeline_deterministic(cfg(cores=4), trace)
        bases = [b.base_slot for b in res.batches]
        assert bases == sorted(bases)
        assert len(set(bases)) == len(bases)

    def test_ring_rotation_base_progression(self):
        res = run_pipeline_deterministic(cfg(cores=8), [], max_steps=24)
        bases = [b.base_slot for b in res.batches]
        # head batches advance one batch width per rotation
        assert bases == [1 + 8 * i for i in range(len(bases))]

    def test_capacity_invariant_every_batch(self):
        trace = make_trace(6, 400, 32, unique_pairs=False)
        res = run_pipeline_deterministic(cfg(num_nodes=32, cores=4), trace)
        assert all(verify_admitted(b) is None for b in res.batches)

    def test_pipeline_inequality(self):
        """Work done at position p never falls below position p+1."""
        trace = make_trace(7, 600, 64, unique_pairs=False)
        res = run_pipeline_deterministic(cfg(cores=4), trace)
        drained = res.metrics.lane_counters["position_drained"]
        assert all(a >= b for a, b in zip(drained, drained[1:])), drained

    def test_oracle_equivalence_single_context(self):
        trace = make_trace(8, 500, 64)
        res = run_pipeline_deterministic(cfg(), trace)
        arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
        expected, _ = oracle_replay(arrivals, 8)
        assert edges_of(res.batches) == edges_of(expected)

    def test_oracle_equivalence_per_slot_mode(self):
        trace = make_trace(9, 300, 32)
        res = run_pipeline_deterministic(
            cfg(num_nodes=32, mode=AllocationMode.PER_SLOT), trace
        )
        arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
        expected, _ = oracle_replay(arrivals, 8, mode=AllocationMode.PER_SLOT)
        assert edges_of(res.batches) == edges_of(expected)

    def test_conservation_with_duplicate_pairs(self):
        trace = make_trace(10, 500, 16, unique_pairs=False)
        res = run_pipeline_deterministic(cfg(num_nodes=16, cores=3), trace)
        m = res.metrics
        assert m.conservation_ok()
        assert m.demanded_slots == sum(a.size for a in trace)
        assert m.pending_slots == 0


_modes = st.sampled_from([AllocationMode.BATCH, AllocationMode.PER_SLOT])
_batch_sizes = st.sampled_from([1, 4, 8])


class TestGeneratedTraces:
    """Properties over generated traces, not only hand-picked seeds."""

    @settings(max_examples=300, deadline=None)
    @given(small_trace(), _batch_sizes, _modes)
    def test_single_context_equals_oracle(self, drawn, batch_size, mode):
        num_nodes, trace = drawn
        res = run_pipeline_deterministic(
            cfg(num_nodes=num_nodes, batch_size=batch_size, mode=mode), trace, MAX_REPLAY_STEPS)
        arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
        expected, pending = oracle_replay(arrivals, batch_size, mode=mode)
        assert edges_of(res.batches) == edges_of(expected)
        assert res.metrics.pending_slots == sum(d.remaining for d in pending)

    @settings(max_examples=150, deadline=None)
    @given(small_trace(), _batch_sizes, _modes, st.integers(2, 4), st.booleans())
    def test_multi_context_invariants(self, drawn, batch_size, mode, cores, mid):
        num_nodes, trace = drawn
        res = run_pipeline_deterministic(
            cfg(num_nodes=num_nodes, batch_size=batch_size, mode=mode, cores=cores,
                mid_pipeline_ingest=mid), trace, MAX_REPLAY_STEPS)
        assert all(verify_admitted(b) is None for b in res.batches)
        m = res.metrics
        assert m.conservation_ok()
        assert m.demanded_slots == sum(a.size for a in trace)
        demanded = Counter()
        for a in trace:
            demanded[(a.src, a.dst)] += a.size
        allocated = Counter((src, dst) for _, src, dst in edges_of(res.batches))
        assert all(count <= demanded[pair] for pair, count in allocated.items())
        assert sum(allocated.values()) == m.allocated_slots
        bases = [b.base_slot for b in res.batches]
        assert bases == [1 + batch_size * i for i in range(len(bases))]
        assert all(0 <= o < batch_size for b in res.batches for o, _, _ in b.edges)


class TestMidPipelineIngestion:
    def test_both_satisfy_conservation(self):
        trace = make_trace(11, 400, 64, unique_pairs=False)
        on = run_pipeline_deterministic(cfg(cores=4, mid_pipeline_ingest=True), trace)
        off = run_pipeline_deterministic(cfg(cores=4), trace)
        assert on.metrics.conservation_ok() and off.metrics.conservation_ok()
        assert on.metrics.allocated_slots == off.metrics.allocated_slots

    def test_admission_latency_bound(self):
        """First admission per pair differs by at most ring length in slots."""
        trace = make_trace(12, 200, 64)
        pipeline_length, batch = 4, 8
        on = run_pipeline_deterministic(
            cfg(cores=pipeline_length, mid_pipeline_ingest=True), trace
        )
        off = run_pipeline_deterministic(cfg(cores=pipeline_length), trace)

        def first_admission(batches):
            first = {}
            for slot, src, dst in edges_of(batches):
                first.setdefault((src, dst), slot)
            return first

        fa_on, fa_off = first_admission(on.batches), first_admission(off.batches)
        assert fa_on.keys() == fa_off.keys()
        bound = pipeline_length * batch
        for pair in fa_off:
            assert abs(fa_on[pair] - fa_off[pair]) <= bound, pair


class TestPaced:
    def test_light_load_conserves_and_verifies(self):
        sink = VerifyingSink()
        config = Config(
            num_nodes=64, batch_size=8, cores=2, architecture=Architecture.PIPELINED
        )
        spec = WorkloadSpec(seed=2, num_nodes=64, mean_interarrival_ns=1_000_000)
        result, samples = run_paced(config, spec, 0.6, sink=sink)
        m = result.metrics
        assert m.conservation_ok()
        assert sink.violations == 0
        assert sink.out_of_order == 0
        assert m.allocated_slots > 0
        assert not m.overloaded

    def test_overload_flag_under_crush(self):
        config = Config(num_nodes=64, batch_size=8, cores=2, mailbox_depth=256)
        spec = WorkloadSpec(seed=3, num_nodes=64, mean_interarrival_ns=300.0)
        result, samples = run_paced(config, spec, 0.6)
        m = result.metrics
        assert m.conservation_ok()
        assert m.pending_slots > 0

    def test_single_context_ring_feeds_itself(self):
        # degenerate pipeline: the context's out conduit is its own in conduit
        sink = VerifyingSink()
        config = Config(num_nodes=16, batch_size=8, cores=1)
        spec = WorkloadSpec(seed=8, num_nodes=16, mean_interarrival_ns=500_000)
        result, _ = run_paced(config, spec, 0.5, sink=sink)
        m = result.metrics
        assert m.conservation_ok()
        assert sink.violations == 0
        assert m.allocated_slots > 0

    def test_per_slot_paced_conserves(self):
        sink = VerifyingSink()
        config = Config(
            num_nodes=32, batch_size=8, cores=2, mode=AllocationMode.PER_SLOT
        )
        spec = WorkloadSpec(seed=9, num_nodes=32, mean_interarrival_ns=200_000)
        result, _ = run_paced(config, spec, 0.6, sink=sink)
        m = result.metrics
        assert m.conservation_ok()
        assert sink.violations == 0
        assert m.allocated_slots > 0
