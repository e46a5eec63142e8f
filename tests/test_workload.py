"""Workload generation statistics, the arrival cursor and trace round-trips."""

import csv
import hashlib
import io
import os
import subprocess
import sys
import textwrap
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

import slotarbiter
from slotarbiter import (
    AllocationMode,
    Architecture,
    Config,
    TraceFormatError,
    WorkloadSpec,
    WorkloadStream,
    mean_t_for_load,
    record_trace,
    replay_trace,
    run_deterministic,
)
from slotarbiter.workload import Arrival, ArrivalCursor, _replay_rows, shard_spec


def spec(**kw):
    defaults = dict(seed=11, num_nodes=256, mean_interarrival_ns=1000.0)
    defaults.update(kw)
    return WorkloadSpec(**defaults)


class TestStream:
    def test_deterministic_per_seed(self):
        a = WorkloadStream(spec()).take(5000)
        b = WorkloadStream(spec()).take(5000)
        assert a == b

    def test_stream_matches_recorded_digest(self):
        # recorded when each arrival was built with int() per field; pins the
        # truncation of times and sizes and the block boundary of ``take``
        stream = WorkloadStream(spec(seed=7, num_nodes=64, mean_interarrival_ns=333.3,
                                     size_mean_packets=4.0, size_stddev_packets=2.5))
        arrivals = stream.take(3) + [stream.next_arrival(), stream.peek()] + stream.take(5000)
        rows = [(a.arrival_ns, a.src, a.dst, a.size) for a in arrivals]
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "0331b3919a940ca5"
        assert all(type(v) is int for row in rows for v in row)

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


_ARRIVAL = st.builds(
    Arrival,
    st.integers(0, 5).map(lambda k: k * 1000),  # few instants, so many ties
    st.integers(0, 3),
    st.integers(4, 7),
    st.integers(1, 20),
)

#: One replay config per architecture, and the per-slot pipeline.
_EVERY_ARCHITECTURE = {
    "pipelined": Config(8),
    "pipelined-per-slot": Config(8, mode=AllocationMode.PER_SLOT),
    "parallel": Config(8, architecture=Architecture.PARALLEL, lanes=2),
    "shuffle": Config(8, architecture=Architecture.SHUFFLE, sets=2),
}


class TestArrivalCursor:
    @given(st.lists(_ARRIVAL, max_size=30), st.lists(st.integers(-1000, 7000), max_size=8))
    def test_releases_concatenate_to_the_stably_sorted_rows(self, arrivals, cuts):
        cursor = ArrivalCursor(arrivals, 8)
        released = []
        last = -1001
        assert cursor.released_slots == 0
        for cut in sorted(cuts) + [7000]:
            batch = cursor.release(cut)
            # each release holds exactly the arrivals due in (last cut, cut]
            assert len(batch) == sum(last < a.arrival_ns <= cut for a in arrivals)
            assert cursor.released_slots == sum(a.size for a in arrivals if a.arrival_ns <= cut)
            released.extend(batch)
            last = cut
        ordered = sorted(arrivals, key=lambda a: a.arrival_ns)
        assert released == [(a.src, a.dst, a.size, 0) for a in ordered]
        assert all(type(row) is tuple for row in released)
        assert cursor.exhausted

    def test_release_before_the_first_arrival_is_empty(self):
        cursor = ArrivalCursor([Arrival(500, 1, 2, 3)], 8)
        assert cursor.release(499) == []
        assert not cursor.exhausted
        assert cursor.release(500) == [(1, 2, 3, 0)]

    @pytest.mark.parametrize(
        "bad",
        [Arrival(2000, 3, 3, 4), Arrival(2000, 3, 4, 0), Arrival(2000, -1, 4, 2),
         Arrival(2000, 8, 4, 2), Arrival(2000, 3, -1, 2), Arrival(2000, 3, 8, 2)],
        ids=["src-equals-dst", "size-zero", "src-negative", "src-past-end", "dst-negative",
             "dst-past-end"],
    )
    @pytest.mark.parametrize("name", list(_EVERY_ARCHITECTURE))
    def test_invalid_arrival_fails_every_architecture(self, name, bad):
        trace = [Arrival(0, 1, 2, 3), bad, Arrival(4000, 2, 5, 1)]
        expected = r"src == dst|at least 1 slot|names a node outside \[0, 8\)$"
        with pytest.raises(ValueError, match=expected):
            run_deterministic(_EVERY_ARCHITECTURE[name], trace)

    def test_invalid_arrival_check_survives_optimize_flag(self):
        script = textwrap.dedent(
            """
            from slotarbiter import AllocationMode, Architecture, Config, run_deterministic
            from slotarbiter.workload import Arrival

            configs = [
                Config(8),
                Config(8, mode=AllocationMode.PER_SLOT),
                Config(8, architecture=Architecture.PARALLEL, lanes=2),
                Config(8, architecture=Architecture.SHUFFLE, sets=2),
            ]
            for bad in (Arrival(0, 3, 3, 4), Arrival(0, 3, 4, 0), Arrival(0, -1, 4, 2),
                        Arrival(0, 8, 4, 2), Arrival(0, 3, -1, 2), Arrival(0, 3, 8, 2)):
                for cfg in configs:
                    try:
                        run_deterministic(cfg, [Arrival(0, 1, 2, 3), bad])
                    except ValueError as exc:
                        print("ValueError:", exc)
            """
        )
        src_dir = os.path.dirname(os.path.dirname(slotarbiter.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 24, proc.stdout
        assert all(line.startswith("ValueError: demand") for line in lines[:8]), proc.stdout
        assert all(line.endswith("names a node outside [0, 8)") for line in lines[8:]), proc.stdout


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


#: Arrivals the row loop accepts: ties and negative times, wide sizes, node ids
#: 0-4095 with src != dst.
_TRACE_ARRIVAL = st.builds(
    Arrival,
    st.one_of(st.integers(-3, 3), st.integers(-2**62, 2**62)),
    st.integers(0, 4095),
    st.integers(0, 4094),
    st.integers(1, 2**31),
).map(lambda a: a._replace(dst=a.dst + (a.dst >= a.src)))


def _edit_field(edit, at=None):
    """Corruption that rewrites one field of the line: ``edit(value, fields)``."""
    def corrupt(line, field):
        fields = line[:-2].split(",")
        k = field if at is None else at
        fields[k] = edit(fields[k], fields)
        return ",".join(fields) + "\r\n"
    return corrupt


#: One change each to a recorded trace line, given with its \r\n end:
#: ``corruption(line, field)`` returns the text that replaces it.
_CORRUPTIONS = [
    lambda line, field: line + "\r\n",  # a blank line after it
    lambda line, field: line[:-2] + "\n",  # LF end
    lambda line, field: line[:-2] + "\r",  # a lone CR end
    lambda line, field: line[:-2].replace(",", "\r", 1) + "\r\n",  # a lone CR inside
    lambda line, field: line[:-2].rsplit(",", 1)[0] + "\r\n",  # 3 fields
    lambda line, field: line[:-2] + ",7\r\n",  # 5 fields
    _edit_field(lambda v, _: " " + v),
    _edit_field(lambda v, _: "+" + v),
    _edit_field(lambda v, _: "0" + v),
    _edit_field(lambda v, _: "1_000"),
    _edit_field(lambda v, _: v + "_0"),
    _edit_field(lambda v, _: v + ".0"),
    _edit_field(lambda v, _: "#" + v),
    _edit_field(lambda v, _: '"' + v + '"'),
    _edit_field(lambda v, fields: fields[1], at=2),  # self-loop
    _edit_field(lambda v, _: "0", at=3),  # size 0
    _edit_field(lambda v, _: "-1", at=1),  # negative src
    _edit_field(lambda v, _: "-1", at=2),  # negative dst
]


class TestTraceRoundTrip:
    def test_recorded_bytes_match_csv_writer(self, tmp_path):
        arrivals = [Arrival(0, 1, 2, 3), Arrival(1500, 4095, 0, 2**31), Arrival(-7, 3, 9, 1)]
        path = tmp_path / "trace.csv"
        record_trace(arrivals, str(path))
        expected = (b"arrival_ns,src,dst,size_packets\r\n0,1,2,3\r\n"
                    b"1500,4095,0,2147483648\r\n-7,3,9,1\r\n")
        assert path.read_bytes() == expected
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["arrival_ns", "src", "dst", "size_packets"])
        writer.writerows(arrivals)
        assert reference.getvalue().encode() == expected

    @given(st.lists(_TRACE_ARRIVAL, max_size=40))
    def test_round_trip_returns_the_recorded_arrivals(self, tmp_path_factory, arrivals):
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        record_trace(arrivals, str(path))
        replayed = replay_trace(str(path))
        assert replayed == arrivals
        assert all(type(a) is Arrival for a in replayed)

    @given(st.lists(_TRACE_ARRIVAL, min_size=1, max_size=8), st.sampled_from(_CORRUPTIONS),
           st.integers(0, 7), st.integers(0, 3))
    def test_corrupted_trace_reads_as_the_row_loop_reads_it(
        self, tmp_path_factory, arrivals, corruption, row, field
    ):
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        record_trace(arrivals, str(path))
        lines = path.read_bytes().decode().splitlines(keepends=True)
        row = 1 + row % len(arrivals)
        lines[row] = corruption(lines[row], field)
        path.write_bytes("".join(lines).encode())
        with open(path, newline="") as fh:
            text = fh.read()
        try:
            expected = _replay_rows(text)
        except TraceFormatError as exc:
            with pytest.raises(TraceFormatError) as caught:
                replay_trace(str(path))
            assert str(caught.value) == str(exc)
        else:
            replayed = replay_trace(str(path))
            assert replayed == expected
            assert all(type(a) is Arrival for a in replayed)

    def test_header_and_blank_lines_read_empty_without_warning(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_bytes(b"arrival_ns,src,dst,size_packets\r\n\r\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert replay_trace(str(path)) == []

    def test_values_past_int64_round_trip(self, tmp_path):
        arrivals = [Arrival(2**64, 1, 2, 3), Arrival(-2**63 - 1, 2, 1, 2**70)]
        path = tmp_path / "trace.csv"
        record_trace(arrivals, str(path))
        assert replay_trace(str(path)) == arrivals

    def test_canonical_bad_rows_raise_under_optimize_flag(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            from slotarbiter import TraceFormatError, record_trace, replay_trace
            from slotarbiter.workload import Arrival

            for bad in (Arrival(5, 2, 2, 1), Arrival(5, 2, 3, 0), Arrival(5, -1, 3, 1)):
                record_trace([Arrival(0, 1, 2, 3), bad], sys.argv[1])
                try:
                    replay_trace(sys.argv[1])
                except TraceFormatError as exc:
                    print(exc)
            """
        )
        src_dir = os.path.dirname(os.path.dirname(slotarbiter.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(tmp_path / "trace.csv")],
            env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"line 3: need src != dst, both >= 0, and size_packets >= 1; got {got}"
            for got in ("src 2, dst 2, size_packets 1", "src 2, dst 3, size_packets 0",
                        "src -1, dst 3, size_packets 1")
        ], proc.stdout

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
