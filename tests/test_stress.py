"""Stress harness: sustain gate, the adaptive load search, paced machines."""

import threading
import time

import pytest

from slotarbiter import (
    AdmittedBatch,
    Architecture,
    Config,
    Demand,
    SearchError,
    VerifyingSink,
    auto_search,
    run_paced,
    sustain_check,
)
from slotarbiter import kernel, parallel, shuffle
from slotarbiter.conduits import SpscQueue
from slotarbiter.engine import PacedMachine
from slotarbiter.stress import ENGINES, GapSample
from slotarbiter.workload import WorkloadSpec


def samples_from_gaps(gaps):
    return [GapSample(i * 10**9, g, 0) for i, g in enumerate(gaps)]


class TestSustainCheck:
    def test_zero_load_passes(self):
        assert sustain_check(samples_from_gaps([0, 0, 0]), gap_bound=10)

    def test_growing_gap_fails(self):
        gaps = [i * 5000 for i in range(10)]  # overload: gap grows linearly
        assert not sustain_check(samples_from_gaps(gaps), gap_bound=10_000)

    def test_bounded_gap_passes(self):
        gaps = [3000, 8000, 5000, 9000]
        assert sustain_check(samples_from_gaps(gaps), gap_bound=10_000)

    def test_overflow_fails_regardless_of_gap(self):
        assert not sustain_check(samples_from_gaps([0]), gap_bound=10, overloaded=True)


def make_threshold_probe(threshold_bps, size_mean=10, mtu=1500):
    calls = []

    def probe(mean_t_ns, duration_s):
        offered = size_mean * mtu * 8 * 1e9 / mean_t_ns
        sustained = offered <= threshold_bps
        calls.append((mean_t_ns, sustained))
        return sustained, min(offered, threshold_bps)

    probe.calls = calls
    return probe


class TestAutoSearch:
    def test_converges_within_min_factor(self):
        threshold = 2.35e9
        probe = make_threshold_probe(threshold)
        result = auto_search(
            probe, initial_mean_t_ns=5e6, min_factor=1.05, probe_duration_s=0, budget_s=None
        )
        assert result.load_bps == pytest.approx(threshold, rel=0.05)

    def test_result_never_above_observed_failure(self):
        probe = make_threshold_probe(7.7e8)
        result = auto_search(
            probe, initial_mean_t_ns=1e7, min_factor=1.02, probe_duration_s=0, budget_s=None
        )
        failing_means = [m for m, ok in result.trajectory if not ok]
        assert failing_means, "search should have probed past the threshold"
        assert all(result.mean_interarrival_ns > m for m in failing_means)

    def test_factor_shrinks_on_failure(self):
        probe = make_threshold_probe(1e9)
        result = auto_search(
            probe, initial_mean_t_ns=1e7, initial_factor=4.0, min_factor=1.1,
            probe_duration_s=0, budget_s=None,
        )
        # every failure is followed by a retry closer to the last success
        means = [m for m, _ in result.trajectory]
        assert means[0] == 1e7
        assert result.load_bps <= 1e9

    def test_never_sustainable_raises(self):
        probe = make_threshold_probe(0.0)
        with pytest.raises(SearchError, match="larger interarrival"):
            auto_search(probe, initial_mean_t_ns=1e6, probe_duration_s=0, budget_s=None)

    def test_bad_factors_rejected(self):
        probe = make_threshold_probe(1e9)
        with pytest.raises(ValueError):
            auto_search(probe, 1e6, initial_factor=1.0)

    def test_trajectory_serializes(self):
        probe = make_threshold_probe(5e8)
        result = auto_search(probe, 1e7, probe_duration_s=0, budget_s=None)
        payload = result.to_dict()
        assert payload["load_bps"] == result.load_bps
        assert all({"mean_t_ns", "sustained"} <= set(p) for p in payload["trajectory"])

    def test_capacity_ceiling(self):
        # sustainable everywhere up to the node capacity ceiling
        ceiling = 256 * 10e9
        probe = make_threshold_probe(ceiling)
        result = auto_search(
            probe, initial_mean_t_ns=1e6, min_factor=1.05, probe_duration_s=0, budget_s=None
        )
        assert result.load_bps == pytest.approx(ceiling, rel=0.05)


class TestVerifyingSink:
    @staticmethod
    def _out_of_order(bases, width=8):
        sink = VerifyingSink()
        for base in bases:
            sink(AdmittedBatch(base, width, ()))
        return sink.out_of_order

    def test_consecutive_batches_in_order(self):
        assert self._out_of_order([1, 9, 17, 33]) == 0

    def test_overlapping_batch_counted(self):
        # slots 5-8 were already handed out by the batch at slot 1
        assert self._out_of_order([1, 5]) == 1

    def test_repeated_and_earlier_batches_counted(self):
        assert self._out_of_order([9, 9, 1]) == 2


#: architecture -> (lane config, the stage patched to raise in a lane)
MACHINES = {
    Architecture.PIPELINED: ({"cores": 2}, (kernel.GreedyKernel, "sweep")),
    Architecture.PARALLEL: ({"lanes": 2}, (parallel, "reconcile")),
    Architecture.SHUFFLE: ({"sets": 2}, (shuffle, "postalloc_process")),
}


def machine_cfg(arch, **kw):
    return Config(num_nodes=32, batch_size=8, architecture=arch, **{**MACHINES[arch][0], **kw})


def paced_machine(cfg, sink):
    """The paced machine ``run_paced`` would build for ``cfg``, with one conduit."""
    return PacedMachine(ENGINES[cfg.architecture](cfg), cfg, sink, [SpscQueue(cfg.mailbox_depth)])


class TestPacedMachines:
    @pytest.mark.parametrize("arch", list(MACHINES), ids=lambda a: a.value)
    def test_failing_lane_fails_the_run(self, arch, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected lane fault")

        owner, name = MACHINES[arch][1]
        monkeypatch.setattr(owner, name, boom)
        before = set(threading.enumerate())
        spec = WorkloadSpec(seed=5, num_nodes=32, mean_interarrival_ns=200_000)
        with pytest.raises(RuntimeError, match="injected lane fault"):
            run_paced(machine_cfg(arch), spec, 5.0)
        assert [t for t in threading.enumerate() if t not in before] == []

    @pytest.mark.parametrize("arch", list(MACHINES), ids=lambda a: a.value)
    def test_shutdown_accounting_is_idempotent(self, arch):
        machine = paced_machine(machine_cfg(arch, mailbox_depth=64), lambda batch: None)
        demanded = 0

        def push_all():
            nonlocal demanded
            for i in range(400):
                src = i % 32
                demand = Demand(src, (src + 1 + i // 32) % 32, 5)
                if machine.conduits[0].try_put(demand):
                    demanded += demand.remaining

        machine.start()
        push_all()
        time.sleep(0.05)
        machine.stop_and_join()
        push_all()  # left in the conduits: nothing takes them any more
        pending = machine.pending_slots()
        assert machine.pending_slots() == pending
        assert demanded == machine.engine.allocated_slots + pending

    @pytest.mark.parametrize(
        "arch, kw",
        [
            (Architecture.PIPELINED, {}),
            (Architecture.PARALLEL, {}),
            (Architecture.SHUFFLE, {"sets": 1}),
            (Architecture.SHUFFLE, {"sets": 2}),
        ],
        ids=["pipelined", "parallel", "shuffle-1", "shuffle-2"],
    )
    def test_one_engine_thread(self, arch, kw):
        before = set(threading.enumerate())
        machine = paced_machine(machine_cfg(arch, **kw), lambda batch: None)
        machine.start()
        try:
            assert len([t for t in threading.enumerate() if t not in before]) == 1
        finally:
            machine.stop_and_join()


class TestSlotClock:
    """Paced machines hand out slot time in step with the wall clock."""

    @staticmethod
    def _spans(cfg):
        batch_ns = cfg.batch_size * cfg.slot_ns
        shuffle_run = cfg.architecture is Architecture.SHUFFLE
        pipelined = cfg.architecture is Architecture.PIPELINED
        emit_ns = (cfg.sets if shuffle_run else 1) * batch_ns
        close_ns = (cfg.cores if pipelined else 0) * batch_ns
        return emit_ns, close_ns

    @pytest.mark.parametrize("arch", list(MACHINES), ids=lambda a: a.value)
    def test_slow_clock_never_runs_ahead_of_wall_time(self, arch):
        # 15 Mbps links: a batch of slots lasts 6.4 ms, longer than a pass
        cfg = machine_cfg(arch, link_rate_bps=15_000_000)
        spec = WorkloadSpec(seed=3, num_nodes=32, mean_interarrival_ns=1_000_000)
        sink = VerifyingSink()
        result, _ = run_paced(cfg, spec, 1.0, sink=sink)
        emit_ns, close_ns = self._spans(cfg)
        emitted_ns = sink.batches * cfg.batch_size * cfg.slot_ns
        # the machine stops a moment after the run reads its wall time
        assert emitted_ns <= result.metrics.wall_elapsed_ns + emit_ns + close_ns + 2_000_000
        assert result.metrics.allocated_slots > 0

    @pytest.mark.parametrize("arch", list(MACHINES), ids=lambda a: a.value)
    def test_overloaded_clock_counts_the_slot_time_it_misses(self, arch):
        # 10 Gbps links and about twice the slots the machine can allocate:
        # every pass is late, so most slot time is missed, and counted
        cfg = machine_cfg(arch)
        spec = WorkloadSpec(seed=4, num_nodes=32, mean_interarrival_ns=20_000)
        result, _ = run_paced(cfg, spec, 1.0)
        counters = result.metrics.lane_counters
        assert counters["emitted_batches"] > 0 and counters["missed_slots"] > 0
        clock_ns = (counters["emitted_batches"] * cfg.batch_size + counters["missed_slots"]) * cfg.slot_ns
        # one pass, which the slot limit keeps to milliseconds, with room for
        # a GIL switch interval or two on a busy host
        assert abs(clock_ns - result.metrics.wall_elapsed_ns) <= 50_000_000
