"""Domain model: timeslot arithmetic, config validation, bitmaps."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slotarbiter import (
    AdmittedBatch,
    BatchBitmaps,
    Config,
    ConfigError,
    Demand,
    Metrics,
    throughput_bps,
    timeslot_duration,
)

from slotarbiter.model import VALID_BATCH_SIZES

from conftest import claim


class TestTimeslotDuration:
    def test_default_link(self):
        assert timeslot_duration(1500, 10 * 10**9) == 1200

    def test_faster_link_scales_down(self):
        assert timeslot_duration(1500, 100 * 10**9) == 120

    def test_jumbo_frame_scales_up(self):
        assert timeslot_duration(9000, 10 * 10**9) == 7200

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigError):
            timeslot_duration(1500, 0)

    def test_zero_mtu_rejected(self):
        with pytest.raises(ConfigError):
            timeslot_duration(0, 10**9)

    def test_homogeneity(self):
        # degree 1 in mtu, degree -1 in rate
        base = timeslot_duration(1500, 10 * 10**9)
        assert timeslot_duration(3 * 1500, 10 * 10**9) == pytest.approx(3 * base, abs=1)
        assert timeslot_duration(1500, 2 * 10 * 10**9) == pytest.approx(base / 2, abs=1)


class TestThroughput:
    def test_direct_arithmetic(self):
        assert throughput_bps(10**6, 1500, 10**9) == pytest.approx(1.2e10)

    def test_zero_allocations(self):
        assert throughput_bps(0, 1500, 10**9) == 0

    def test_full_load_256_nodes(self):
        # 256 slots every 1200 ns saturates 256 links at 10 Gbps each
        assert throughput_bps(256, 1500, 1200) == pytest.approx(2.56e12)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            throughput_bps(1, 1500, 0)


class TestDemand:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Demand(3, 3, 1)

    def test_zero_remaining_rejected(self):
        with pytest.raises(ValueError):
            Demand(1, 2, 0)

    def test_immutable(self):
        d = Demand(1, 2, 5)
        with pytest.raises(AttributeError):
            d.remaining = 4


class TestConfig:
    def test_defaults(self):
        cfg = Config(num_nodes=256)
        assert cfg.batch_size == 8
        assert cfg.slot_ns == 1200

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            Config(num_nodes=4, batch_size=3)

    def test_single_slot_batch_allowed(self):
        assert Config(num_nodes=4, batch_size=1).batch_size == 1

    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            Config(num_nodes=1)


class TestBatchBitmaps:
    def test_starts_all_free(self):
        bm = BatchBitmaps(4, 8)
        assert bm.src == [0xFF] * 4
        assert bm.dst == [0xFF] * 4

    def test_claim_clears_both_roles(self):
        bm = BatchBitmaps(4, 8)
        claim(bm, 0, 1, 3)
        assert not (bm.src[0] >> 3) & 1
        assert not (bm.dst[1] >> 3) & 1
        # other roles untouched
        assert (bm.dst[0] >> 3) & 1
        assert (bm.src[1] >> 3) & 1

    def test_roles_independent(self):
        # a node may send and receive in the same slot
        bm = BatchBitmaps(4, 8)
        claim(bm, 1, 3, 0)
        claim(bm, 3, 1, 0)
        assert not (bm.src[1] & 1) and not (bm.dst[3] & 1)
        assert not (bm.src[3] & 1) and not (bm.dst[1] & 1)


@st.composite
def _claims(draw):
    """A base slot, a batch width, and claims of rows over a few nodes (4-field
    demand rows and 3-field parked entries) with masks within the width, so
    wide batches get masks spanning several byte lanes."""
    batch_size = draw(st.sampled_from(VALID_BATCH_SIZES))
    full = (1 << batch_size) - 1
    node = st.integers(0, 5)
    row = st.one_of(st.tuples(node, node, st.integers(1, 9), st.integers(0, 50)),
                    st.tuples(node, node, st.integers(1, 9)))
    claims = draw(st.lists(st.tuples(row, st.one_of(st.integers(0, full), st.just(full))),
                           max_size=12))
    return draw(st.integers(1, 500)), batch_size, [r for r, _ in claims], [m for _, m in claims]


class TestAdmittedBatch:
    def test_absolute_edges(self):
        batch = AdmittedBatch(9, 8, ((0, 1, 2), (7, 3, 4)))
        assert list(batch.absolute_edges()) == [(9, 1, 2), (16, 3, 4)]

    @example(drawn=(1, 64, [(0, 1, 5, 0), (2, 1, 3), (3, 4, 9, 7)],
                    [0x8000_0000_0000_0001, 0xFF00_00FF_0F0F_F0F0, 0x0100]))
    @example(drawn=(17, 16, [(1, 2, 9, 0), (2, 1, 4)], [0xFFFF, 0x8080]))
    @given(_claims())
    def test_claims_and_edges_agree(self, drawn):
        base, batch_size, rows, masks = drawn
        expected = tuple((o, row[0], row[1]) for row, mask in zip(rows, masks)
                         for o in range(batch_size) if mask >> o & 1)
        claims = AdmittedBatch.from_claims(base, batch_size, rows, masks)
        edges = AdmittedBatch(base, batch_size, expected)
        assert claims.edges == expected and claims.edges is claims.edges
        assert edges.edges is expected
        assert claims == edges and edges == claims
        assert len(claims) == len(edges) == len(expected)
        assert list(claims.absolute_edges()) == list(edges.absolute_edges()) == [
            (base + o, src, dst) for o, src, dst in expected]

    def test_equality_needs_same_slots(self):
        batch = AdmittedBatch.from_claims(9, 8, [(1, 2, 3, 0)], [0b101])
        assert batch == AdmittedBatch(9, 8, ((0, 1, 2), (2, 1, 2)))
        assert batch != AdmittedBatch(1, 8, ((0, 1, 2), (2, 1, 2)))
        assert batch != AdmittedBatch(9, 8, ((2, 1, 2), (0, 1, 2)))
        assert batch != AdmittedBatch.from_claims(9, 8, [(1, 2, 3, 0)], [0b110])


class TestMetrics:
    def test_conservation(self):
        m = Metrics(demanded_slots=10, allocated_slots=6, pending_slots=4)
        assert m.conservation_ok()
        m.pending_slots = 3
        assert not m.conservation_ok()
