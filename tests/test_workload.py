"""Workload generation statistics and trace round-trips."""

import pytest

from slotarbiter import (
    TraceFormatError,
    WorkloadSpec,
    WorkloadStream,
    mean_t_for_load,
    record_trace,
    replay_trace,
)
from slotarbiter.workload import shard_spec


def spec(**kw):
    defaults = dict(seed=11, num_nodes=256, mean_interarrival_ns=1000.0)
    defaults.update(kw)
    return WorkloadSpec(**defaults)


class TestStream:
    def test_deterministic_per_seed(self):
        a = WorkloadStream(spec()).take(5000)
        b = WorkloadStream(spec()).take(5000)
        assert a == b

    def test_different_seed_differs(self):
        a = WorkloadStream(spec()).take(100)
        b = WorkloadStream(spec(seed=12)).take(100)
        assert a != b

    def test_empirical_interarrival_mean(self):
        arrivals = WorkloadStream(spec()).take(1_000_000)
        mean = arrivals[-1].arrival_ns / len(arrivals)
        assert mean == pytest.approx(1000.0, rel=0.01)

    def test_empirical_size_mean(self):
        arrivals = WorkloadStream(spec()).take(200_000)
        mean = sum(a.size for a in arrivals) / len(arrivals)
        assert mean == pytest.approx(10.0, rel=0.02)

    def test_no_self_loops_and_sizes_clamped(self):
        arrivals = WorkloadStream(spec(size_stddev_packets=8.0)).take(50_000)
        assert all(a.src != a.dst for a in arrivals)
        assert all(a.size >= 1 for a in arrivals)
        assert all(0 <= a.src < 256 and 0 <= a.dst < 256 for a in arrivals)

    def test_arrival_times_nondecreasing(self):
        arrivals = WorkloadStream(spec()).take(10_000)
        assert all(x.arrival_ns <= y.arrival_ns for x, y in zip(arrivals, arrivals[1:]))

    def test_src_range_respected(self):
        arrivals = WorkloadStream(spec(src_range=(16, 32))).take(5000)
        assert all(16 <= a.src < 32 for a in arrivals)
        assert all(a.src != a.dst for a in arrivals)


class TestShardSpec:
    def test_ranges_cover_without_overlap(self):
        base = spec(num_nodes=10)
        ranges = [shard_spec(base, x, 4).src_range for x in range(4)]
        covered = sorted(n for lo, hi in ranges for n in range(lo, hi))
        assert covered == list(range(10))

    def test_load_split(self):
        base = spec(mean_interarrival_ns=1000.0)
        sub = shard_spec(base, 0, 4)
        assert sub.mean_interarrival_ns == 4000.0

    def test_sub_seeds_differ(self):
        base = spec()
        seeds = {shard_spec(base, x, 4).seed for x in range(4)}
        assert len(seeds) == 4


class TestMeanTForLoad:
    def test_full_load_256(self):
        # 256 nodes x 10 Gbps, size 10 MTUs: 2.56 Tbps / 120 kbit per demand
        mean_t = mean_t_for_load(1.0, 256, 10e9, 1500)
        demands_per_s = 1e9 / mean_t
        assert demands_per_s * 10 * 1500 * 8 == pytest.approx(2.56e12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mean_t_for_load(0, 256, 10e9, 1500)


class TestTraceRoundTrip:
    def test_lossless(self, tmp_path):
        arrivals = WorkloadStream(spec()).take(500)
        path = tmp_path / "trace.csv"
        record_trace(arrivals, str(path))
        assert replay_trace(str(path)) == arrivals

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert replay_trace(str(path)) == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("arrival_ns,src,dst,size_packets\n")
        assert replay_trace(str(path)) == []

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b,c\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            replay_trace(str(path))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_ns,src,dst,size_packets\n0,1,2,3\n5,x,2,3\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            replay_trace(str(path))

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_ns,src,dst,size_packets\n0,1,2\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            replay_trace(str(path))

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_ns,src,dst,size_packets\n0,2,2,1\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            replay_trace(str(path))

    @pytest.mark.parametrize("row,got", [
        ("5,1,2,0", "src 1, dst 2, size_packets 0"),
        ("5,1,2,-3", "src 1, dst 2, size_packets -3"),
        ("5,-1,3,1", "src -1, dst 3, size_packets 1"),
        ("5,3,-1,1", "src 3, dst -1, size_packets 1"),
    ])
    def test_out_of_range_row_reports_line(self, tmp_path, row, got):
        path = tmp_path / "bad.csv"
        path.write_text(f"arrival_ns,src,dst,size_packets\n0,1,2,3\n{row}\n")
        with pytest.raises(TraceFormatError, match=f"^line 3: .*; got {got}$"):
            replay_trace(str(path))
