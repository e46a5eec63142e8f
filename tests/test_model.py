"""Domain model: timeslot arithmetic, config validation, bitmaps."""

import pytest

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
        bm.claim(0, 1, 3)
        assert not (bm.src[0] >> 3) & 1
        assert not (bm.dst[1] >> 3) & 1
        # other roles untouched
        assert (bm.dst[0] >> 3) & 1
        assert (bm.src[1] >> 3) & 1

    def test_roles_independent(self):
        # a node may send and receive in the same slot
        bm = BatchBitmaps(4, 8)
        bm.claim(1, 3, 0)
        bm.claim(3, 1, 0)
        assert not (bm.src[1] & 1) and not (bm.dst[3] & 1)
        assert not (bm.src[3] & 1) and not (bm.dst[1] & 1)


class TestAdmittedBatch:
    def test_absolute_edges(self):
        batch = AdmittedBatch(9, 8, ((0, 1, 2), (7, 3, 4)))
        assert list(batch.absolute_edges()) == [(9, 1, 2), (16, 3, 4)]


class TestMetrics:
    def test_conservation(self):
        m = Metrics(demanded_slots=10, allocated_slots=6, pending_slots=4)
        assert m.conservation_ok()
        m.pending_slots = 3
        assert not m.conservation_ok()
