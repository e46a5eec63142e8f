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
from slotarbiter.kernel import allocate_slots
from slotarbiter.model import VALID_BATCH_SIZES, AdmittedBatch, BatchBitmaps
from slotarbiter.parallel import Lane, LaneAdmission
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


def fragment(lane_id, edges, base=1, batch=8, num_nodes=16):
    """A lane's fragment with one served row per edge, in edge order; its
    bitmaps are the full rows minus the edges."""
    bitmaps = BatchBitmaps(num_nodes, batch)
    for o, src, dst in edges:
        bitmaps.src[src] &= ~(1 << o)
        bitmaps.dst[dst] &= ~(1 << o)
    rows = [(src, dst, 1, 0) for _, src, dst in edges]
    masks = [1 << o for o, _, _ in edges]
    return LaneAdmission(lane_id, base, batch, rows, masks, bitmaps)


def offsets_of(mask):
    return [o for o in range(mask.bit_length()) if mask >> o & 1]


def kept_offsets(frag):
    """The offsets each served row kept; no ``kept`` list means all stood."""
    return [offsets_of(kept) for kept in (frag.masks if frag.kept is None else frag.kept)]


class TestReconcile:
    def test_lowest_lane_wins_dst_contention(self):
        f0 = fragment(0, [(3, 1, 2)])
        f1 = fragment(1, [(3, 4, 2)])
        result = reconcile([f0, f1])
        assert result.final.edges == ((3, 1, 2),)
        assert result.cancelled == 1
        assert kept_offsets(f0) == [[3]] and kept_offsets(f1) == [[]]
        assert verify_admitted(result.final) is None

    def test_lowest_lane_wins_src_contention(self):
        f0 = fragment(0, [(0, 5, 1)])
        f1 = fragment(1, [(0, 5, 2)])
        result = reconcile([f0, f1])
        assert result.final.edges == ((0, 5, 1),)

    def test_cancelled_claim_still_wins_its_other_role(self):
        # lane 1 loses src 1 at slot 0 to lane 0 but still holds dst 5 there,
        # so lane 2's edge into 5 is cancelled too
        f0 = fragment(0, [(0, 1, 2)])
        f1 = fragment(1, [(0, 1, 5)])
        f2 = fragment(2, [(0, 6, 5)])
        result = reconcile([f2, f0, f1])
        assert result.final.edges == ((0, 1, 2),)
        assert result.cancelled == 2

    def test_disjoint_fragments_pass_through(self):
        f0 = fragment(0, [(0, 1, 2), (1, 3, 4)])
        f1 = fragment(1, [(0, 5, 6), (2, 7, 8)])
        result = reconcile([f0, f1])
        assert sorted(result.final.edges) == sorted(f0.edges + f1.edges)
        assert result.cancelled == 0
        assert f0.kept is None and f1.kept is None

    def test_single_lane_identity(self):
        f0 = fragment(0, [(0, 1, 2), (5, 3, 4)])
        result = reconcile([f0])
        assert sorted(result.final.edges) == sorted(f0.edges)
        assert result.cancelled == 0

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
        assert again.cancelled == 0

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
            assert len(result.final.edges) + result.cancelled == total_edges


def reference_reconcile(fragments):
    """The per-edge rule: the lowest lane claiming (offset, role, node) wins;
    an edge stands only if its lane won both roles.  Returns the final edges
    and the (lane_id, offset, src, dst) keys of the cancelled ones."""
    src_winner, dst_winner = {}, {}
    for frag in fragments:
        for offset, src, dst in frag.edges:
            for winner, key in ((src_winner, (offset, src)), (dst_winner, (offset, dst))):
                if key not in winner or frag.lane_id < winner[key]:
                    winner[key] = frag.lane_id
    final, cancelled = [], set()
    for frag in sorted(fragments, key=lambda f: f.lane_id):
        for offset, src, dst in frag.edges:
            if src_winner[(offset, src)] == frag.lane_id == dst_winner[(offset, dst)]:
                final.append((offset, src, dst))
            else:
                cancelled.add((frag.lane_id, offset, src, dst))
    return final, cancelled


@st.composite
def _lane_passes(draw):
    """1-4 lanes, each one ``allocate_slots`` pass over its own demand list on
    a few shared nodes, with repeated nodes and pairs."""
    width = draw(st.sampled_from(VALID_BATCH_SIZES))
    num_nodes = draw(st.integers(2, 5))
    base = draw(st.integers(1, 1000))
    pair = st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)).filter(
        lambda p: p[0] != p[1])
    demand = st.builds(
        lambda p, size, last: Demand(p[0], p[1], size, last),
        pair, st.integers(1, 2 * width), st.integers(0, base - 1))
    lanes = []
    for lane_id in range(draw(st.integers(1, 4))):
        demands = draw(st.lists(demand, max_size=10))
        bitmaps = BatchBitmaps(num_nodes, width)
        masks = allocate_slots(bitmaps, demands)
        edges = AdmittedBatch.from_claims(base, width, demands, masks).edges
        claims, rows, served, start = [], [], [], 0
        for d, mask in zip(demands, masks):
            if not mask:
                continue
            granted = mask.bit_count()
            claims.append((d, [e[0] for e in edges[start:start + granted]]))
            start += granted
            rows.append(d)
            served.append(mask)
        lanes.append((LaneAdmission(lane_id, base, width, rows, served, bitmaps), claims))
    return base, lanes


def absorbed(frag):
    """A lane's pending rows and slot counts after it absorbs ``frag``."""
    lane = Lane(frag.lane_id, cfg(num_nodes=len(frag.bitmaps.src), batch_size=frag.batch_size))
    lane.last_admission = frag
    lane.absorb(frag.base_slot)
    return lane.pending, lane.cancelled_slots, lane.allocated_slots


class TestReconcileMatchesPerEdgeRule:
    """The mask reconcile and absorb against the per-edge rule."""

    @settings(max_examples=400, deadline=None)
    @given(_lane_passes(), st.randoms(use_true_random=False))
    def test_equivalence(self, drawn, rnd):
        base, lanes = drawn
        fragments = [frag for frag, _ in lanes]
        expected_final, cancelled = reference_reconcile(fragments)
        rnd.shuffle(fragments)  # the stage orders them by lane_id itself
        result = reconcile(fragments)
        assert list(result.final.edges) == expected_final
        assert result.cancelled == len(cancelled)
        for frag, claims in lanes:
            expected_requeue, revoked_total, kept_total = [], 0, 0
            for got, (d, offsets) in zip(kept_offsets(frag), claims):
                kept = [o for o in offsets if (frag.lane_id, o, d.src, d.dst) not in cancelled]
                assert got == kept
                revoked_total += len(offsets) - len(kept)
                kept_total += len(kept)
                if d.remaining > len(kept):
                    last = base + max(kept) if kept else d.last_alloc
                    expected_requeue.append(Demand(d.src, d.dst, d.remaining - len(kept), last))
            assert absorbed(frag) == (expected_requeue, revoked_total, kept_total)


def claim(base, row, mask, kept=None):
    """A one-row fragment: ``row`` claimed ``mask``, of which ``kept`` stood
    (all of it when ``kept`` is None)."""
    src, dst, _, _ = row
    bitmaps = BatchBitmaps(8, 8)
    bitmaps.src[src] ^= mask
    bitmaps.dst[dst] ^= mask
    return LaneAdmission(1, base, 8, [row], [mask], bitmaps, None if kept is None else [kept])


class TestLaneAbsorb:
    def test_revoked_slots_restored_exactly(self):
        # lane 1 allocated offsets [2, 5] for (4, 2); offset 5 was cancelled
        requeue, revoked, kept = absorbed(claim(9, Demand(4, 2, 2, 0), 0b100100, kept=0b100))
        assert revoked == 1 and kept == 1
        assert requeue == [Demand(4, 2, 1, last_alloc=11)]  # 9 + kept offset 2

    def test_fully_revoked_rolls_back_priority(self):
        requeue, revoked, kept = absorbed(claim(9, Demand(4, 2, 1, 77), 0b1, kept=0))
        assert requeue == [Demand(4, 2, 1, last_alloc=77)]
        assert revoked == 1 and kept == 0

    def test_residual_merges_with_revoked(self):
        # offsets [6, 7] claimed of 12 asked; offset 7 was cancelled
        requeue, revoked, kept = absorbed(
            claim(9, Demand(4, 2, 12, 0), 0b11000000, kept=0b1000000))
        # 10 leftover + 1 revoked, last kept offset 6 -> slot 15
        assert requeue == [Demand(4, 2, 11, last_alloc=15)]

    def test_untouched_record_keeps_residual_only(self):
        # offsets [5, 6, 7] claimed of 6 asked; nothing was cancelled
        requeue, revoked, kept = absorbed(claim(1, Demand(1, 2, 6, 0), 0b11100000))
        assert requeue == [Demand(1, 2, 3, 8)]
        assert revoked == 0 and kept == 3


class TestLaneFragment:
    """What ``reconcile`` relies on: a fragment's bitmaps are the full rows
    minus exactly its claim masks."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bitmaps_are_full_rows_minus_masks(self, data):
        width = data.draw(st.sampled_from(VALID_BATCH_SIZES))
        num_nodes = data.draw(st.integers(2, 5))
        base = data.draw(st.integers(1, 1000))
        pair = st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)).filter(
            lambda p: p[0] != p[1])
        lane = Lane(0, cfg(num_nodes=num_nodes, batch_size=width))
        lane.pending = data.draw(st.lists(st.builds(
            lambda p, size, last: Demand(p[0], p[1], size, last),
            pair, st.integers(1, 2 * width), st.integers(0, base - 1)), max_size=12))
        frag = lane.allocate(base)
        full = BatchBitmaps(num_nodes, width)
        for (src, dst, _, _), mask in zip(frag.rows, frag.masks):
            assert mask and full.src[src] & mask == mask and full.dst[dst] & mask == mask
            full.src[src] ^= mask
            full.dst[dst] ^= mask
        assert frag.bitmaps.src == full.src and frag.bitmaps.dst == full.dst
        assert list(frag.edges) == [(o, src, dst) for (src, dst, _, _), mask in zip(frag.rows, frag.masks)
                              for o in offsets_of(mask)]
        assert lane.last_records == frag.rows


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

    def test_contended_run_cancels_conserves_and_verifies(self):
        # 16 nodes shared by 3 lanes: contended claims are cancelled and reissued
        sink = VerifyingSink()
        config = cfg(num_nodes=16, lanes=3)
        spec = WorkloadSpec(seed=6, num_nodes=16, mean_interarrival_ns=200_000)
        result, _ = run_paced(config, spec, 0.6, sink=sink)
        m = result.metrics
        assert m.cancelled_then_reissued > 0
        assert m.conservation_ok()
        assert sink.violations == 0 and sink.out_of_order == 0
        assert m.allocated_slots > 0
