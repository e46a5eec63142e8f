"""CLI surface: run, verify, trace generation."""

import csv
import json

import pytest

from slotarbiter.cli import main


def write_four_node_trace(path):
    rows = [(0, 1, 3, 1), (0, 4, 2, 1), (0, 2, 3, 1), (0, 2, 1, 1), (0, 3, 4, 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ns", "src", "dst", "size_packets"])
        writer.writerows(rows)


class TestRunDeterministic:
    def test_trace_replay_writes_metrics_and_admitted(self, tmp_path):
        trace = tmp_path / "trace.csv"
        write_four_node_trace(trace)
        out = tmp_path / "metrics.json"
        admitted = tmp_path / "admitted.csv"
        rc = main(
            [
                "run", "--arch", "pipelined", "--nodes", "5", "--batch-size", "1",
                "--cores", "1", "--trace-in", str(trace),
                "--admitted-out", str(admitted), "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        metrics = payload["metrics"]
        assert metrics["demanded_slots"] == 5
        assert metrics["allocated_slots"] == 5
        assert metrics["pending_slots"] == 0
        with open(admitted) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["slot", "src", "dst"]
        assert len(rows) == 6  # header + 5 edges

    @pytest.mark.parametrize("arch,flag,value", [
        ("parallel", "--lanes", "2"),
        ("shuffle", "--sets", "2"),
    ])
    def test_other_architectures_replay(self, tmp_path, arch, flag, value):
        trace = tmp_path / "trace.csv"
        write_four_node_trace(trace)
        out = tmp_path / "metrics.json"
        rc = main(
            [
                "run", "--arch", arch, "--nodes", "5", "--batch-size", "1",
                flag, value, "--trace-in", str(trace), "--out", str(out),
            ]
        )
        assert rc == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["demanded_slots"] == metrics["allocated_slots"] + metrics["pending_slots"]

    def test_missing_load_knob_errors(self, tmp_path):
        rc = main(["run", "--nodes", "8"])
        assert rc == 2

    def test_invalid_config_reports_cleanly(self, capsys):
        rc = main(["run", "--nodes", "8", "--batch-size", "3", "--mean-t", "1000"])
        assert rc == 2
        assert "batch_size" in capsys.readouterr().err

    def test_missing_trace_file_reports_cleanly(self, capsys):
        rc = main(["run", "--nodes", "8", "--trace-in", "/nonexistent/t.csv"])
        assert rc == 2

    def test_malformed_trace_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("arrival_ns,src,dst,size_packets\n0,x,2,1\n")
        rc = main(["run", "--nodes", "8", "--trace-in", str(bad)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_zero_size_row_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("arrival_ns,src,dst,size_packets\n0,1,2,1\n0,3,4,0\n")
        rc = main(["run", "--nodes", "8", "--trace-in", str(bad)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0,1,8,1", "0,9,2,1"])
    def test_node_outside_nodes_rejected(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        admitted = tmp_path / "admitted.csv"
        bad.write_text(f"arrival_ns,src,dst,size_packets\n0,1,2,1\n{row}\n")
        rc = main(["run", "--nodes", "8", "--trace-in", str(bad), "--admitted-out", str(admitted)])
        assert rc == 2
        assert "--nodes is 8" in capsys.readouterr().err
        assert not admitted.exists()


class TestTraceOut:
    def test_generates_replayable_trace(self, tmp_path):
        trace = tmp_path / "gen.csv"
        rc = main(
            [
                "run", "--nodes", "16", "--mean-t", "100000",
                "--duration", "0.01", "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["arrival_ns", "src", "dst", "size_packets"]
        assert len(rows) > 1


class TestVerify:
    def test_valid_admitted_passes(self, tmp_path):
        admitted = tmp_path / "adm.csv"
        admitted.write_text("slot,src,dst\n1,1,3\n1,4,2\n2,2,3\n")
        assert main(["verify", "--admitted", str(admitted)]) == 0

    def test_capacity_violation_detected(self, tmp_path):
        admitted = tmp_path / "adm.csv"
        admitted.write_text("slot,src,dst\n1,1,3\n1,4,3\n")
        assert main(["verify", "--admitted", str(admitted)]) == 1

    def test_overallocation_against_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        write_four_node_trace(trace)
        admitted = tmp_path / "adm.csv"
        admitted.write_text("slot,src,dst\n1,1,3\n2,1,3\n")  # pair demanded once
        assert main(["verify", "--admitted", str(admitted), "--trace", str(trace)]) == 1

    def test_run_then_verify_round_trip(self, tmp_path):
        trace = tmp_path / "trace.csv"
        write_four_node_trace(trace)
        admitted = tmp_path / "adm.csv"
        main(
            [
                "run", "--nodes", "5", "--batch-size", "1", "--cores", "2",
                "--trace-in", str(trace), "--admitted-out", str(admitted),
            ]
        )
        assert main(["verify", "--admitted", str(admitted), "--trace", str(trace)]) == 0
