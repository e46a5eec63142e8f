"""Stress harness: sustain gate, the adaptive load search, paced machines."""

import threading
import time

import pytest

from slotarbiter import (
    Architecture,
    Config,
    Demand,
    SearchError,
    auto_search,
    run_paced,
    sustain_check,
)
from slotarbiter import kernel, parallel, shuffle
from slotarbiter.stress import GapSample, _build_machine
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


#: architecture -> (lane config, the stage patched to raise in a lane)
MACHINES = {
    Architecture.PIPELINED: ({"cores": 2}, (kernel.GreedyKernel, "sweep")),
    Architecture.PARALLEL: ({"lanes": 2}, (parallel, "reconcile")),
    Architecture.SHUFFLE: ({"sets": 2}, (shuffle, "postalloc_process")),
}


def machine_cfg(arch, **kw):
    return Config(num_nodes=32, batch_size=8, architecture=arch, **{**MACHINES[arch][0], **kw})


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
        machine = _build_machine(machine_cfg(arch, mailbox_depth=64), lambda batch: None)
        demanded = 0

        def push_all():
            nonlocal demanded
            for i in range(400):
                src = i % 32
                demand = Demand(src, (src + 1 + i // 32) % 32, 5)
                if machine.push(demand):
                    demanded += demand.remaining

        machine.start()
        push_all()
        time.sleep(0.05)
        machine.stop_and_join()
        push_all()  # left in the conduits: nothing takes them any more
        pending = machine.pending_slots()
        assert machine.pending_slots() == pending
        assert demanded == machine.allocated_slots() + pending

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
        machine = _build_machine(machine_cfg(arch, **kw), lambda batch: None)
        machine.start()
        try:
            assert len([t for t in threading.enumerate() if t not in before]) == 1
        finally:
            machine.stop_and_join()
