"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.  Criterion 7 needs at least 12 physical cores and is skipped
with a notice on smaller hosts.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from slotarbiter import (
    AllocationMode,
    Architecture,
    Config,
    Demand,
    PermutationSpec,
    VerifyingSink,
    auto_search,
    bench_distributor,
    oracle_replay,
    paced_probe,
    run_deterministic,
    run_paced,
    run_parallel_deterministic,
    run_pipeline_deterministic,
    run_shuffle_deterministic,
    sustain_check,
)
from slotarbiter.workload import Arrival, WorkloadSpec, mean_t_for_load

from conftest import FOUR_NODE_ADMITTED, edges_of, make_trace


@pytest.fixture
def report(capfd):
    """Per-criterion reporter: the PASS/FAIL line always reaches the terminal."""

    def _report(criterion: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        line = f"[{tag}] {criterion}" + (f" ({detail})" if detail else "")
        with capfd.disabled():
            print(line, flush=True)
        assert ok, f"{criterion}: {detail}"

    return _report


class TestCriterion01FourNodeMatching:
    def test_greedy_matching_reproduction(self, four_node_trace, report):
        cfg = Config(num_nodes=5, batch_size=1, cores=1)
        res = run_pipeline_deterministic(cfg, four_node_trace, max_steps=1)
        admitted = {(s, d) for _, s, d in res.batches[0].edges}
        pending_ok = res.metrics.pending_slots == 1
        report(
            "criterion 1: four-node matching trace reproduces exactly",
            admitted == FOUR_NODE_ADMITTED and pending_ok,
            f"admitted={sorted(admitted)} pending_slots={res.metrics.pending_slots}",
        )


class TestCriterion02BatchModeWorkedExample:
    def test_two_context_batch_mode_slots(self, report):
        trace = [Arrival(0, 1, 2, 100), Arrival(0, 3, 2, 2)]
        cfg = Config(num_nodes=4, batch_size=8, cores=2)
        res = run_pipeline_deterministic(cfg, trace, max_steps=2)
        edges = [e for e in edges_of(res.batches) if e[0] <= 16]
        bulk = sorted(s for s, src, _ in edges if src == 1)
        small = sorted(s for s, src, _ in edges if src == 3)
        ok = bulk == list(range(1, 9)) + list(range(11, 17)) and small == [9, 10]
        report(
            "criterion 2: batch-mode worked example slots 1-8 / 9-10 / 11-16",
            ok,
            f"bulk={bulk} small={small}",
        )


class TestCriterion03OracleEquivalence:
    def test_ten_seeded_traces_all_architectures(self, report):
        mismatches = []
        for seed in range(10):
            trace = make_trace(1000 + seed, 10_000, 256, mean_interarrival_ns=200.0)
            arrivals = [(a.arrival_ns, Demand(a.src, a.dst, a.size)) for a in trace]
            expected = edges_of(oracle_replay(arrivals, 8)[0])

            runs = {
                "pipelined": run_pipeline_deterministic(
                    Config(num_nodes=256, cores=1), trace
                ),
                "parallel": run_parallel_deterministic(
                    Config(num_nodes=256, lanes=1, architecture=Architecture.PARALLEL),
                    trace,
                ),
                "shuffle": run_shuffle_deterministic(
                    Config(num_nodes=256, sets=1, architecture=Architecture.SHUFFLE), trace
                ),
            }
            for name, res in runs.items():
                if edges_of(res.batches) != expected:
                    mismatches.append((seed, name))
                if not res.metrics.conservation_ok():
                    mismatches.append((seed, name, "conservation"))
        report(
            "criterion 3: oracle equivalence on 10 traces x 10^4 demands",
            not mismatches,
            f"mismatches={mismatches}" if mismatches else "30/30 runs identical",
        )


#: (architecture, lane config) -> paced 5 s run at 50% offered load
STRESS_CASES = [
    (Architecture.PIPELINED, {"cores": 4}),
    (Architecture.PARALLEL, {"lanes": 2}),
    (Architecture.SHUFFLE, {"sets": 2}),
]


@pytest.fixture(scope="module")
def paced_results():
    mean_t = mean_t_for_load(0.5, 256, 10e9, 1500)
    results = {}
    for arch, extra in STRESS_CASES:
        cfg = Config(num_nodes=256, batch_size=8, architecture=arch, **extra)
        spec = WorkloadSpec(seed=40, num_nodes=256, mean_interarrival_ns=mean_t)
        sink = VerifyingSink()
        result, _ = run_paced(cfg, spec, 5.0, sink=sink)
        results[arch.value] = (result, sink)
    return results


class TestCriterion04CapacityInvariant:
    def test_zero_violations_every_architecture(self, paced_results, report):
        detail = {
            name: f"{sink.batches} batches, {sink.violations} violations, "
            f"overloaded={result.metrics.overloaded}, "
            f"missed_slots={result.metrics.lane_counters['missed_slots']}"
            for name, (result, sink) in paced_results.items()
        }
        ok = all(
            sink.violations == 0 and sink.batches > 0
            for _, sink in paced_results.values()
        )
        report("criterion 4: zero capacity violations in 5 s paced runs", ok, str(detail))

    def test_criterion_05_conservation_at_drain(self, paced_results, report):
        detail = {}
        ok = True
        for name, (result, _) in paced_results.items():
            m = result.metrics
            detail[name] = (
                f"{m.demanded_slots} == {m.allocated_slots} + {m.pending_slots}, "
                f"overloaded={m.overloaded}, missed_slots={m.lane_counters['missed_slots']}"
            )
            ok = ok and m.conservation_ok()
        report("criterion 5: conservation at drain of every stress run", ok, str(detail))


class TestCriterion06PermutationProperties:
    def test_bijection_and_inverse_exhaustive(self, report):
        bad = None
        for k in (2, 4, 8, 16):
            spec = PermutationSpec(k)
            for i in range(10_000):
                column = [spec.permute(x, i) for x in range(k)]
                if len(set(column)) != k:
                    bad = (k, i, "not a bijection")
                    break
                if any(spec.invert(column[x], i) != x for x in range(k)):
                    bad = (k, i, "inverse mismatch")
                    break
            if bad:
                break
        report(
            "criterion 6: distributor columns bijective with exact inverse",
            bad is None,
            f"K in 2,4,8,16 x 10^4 rounds" if bad is None else str(bad),
        )


class TestCriterion07RelativeScaling:
    def test_shuffle_set_scaling(self, report, capfd):
        cores = os.cpu_count() or 1
        if cores < 12:
            with capfd.disabled():
                print(
                    f"[SKIP] criterion 7: relative scaling needs >= 12 physical "
                    f"cores, host has {cores}",
                    flush=True,
                )
            pytest.skip(f"requires >= 12 physical cores, host has {cores}")
        throughput = {}
        for sets in (1, 2, 4):
            cfg = Config(
                num_nodes=256, batch_size=8, sets=sets,
                architecture=Architecture.SHUFFLE, gap_bound=4000,
            )
            spec = WorkloadSpec(seed=41, num_nodes=256, mean_interarrival_ns=1e7)
            search = auto_search(
                paced_probe(cfg, spec), initial_mean_t_ns=1e7,
                probe_duration_s=2.5, budget_s=55.0,
            )
            throughput[sets] = search.load_bps
        r2 = throughput[2] / throughput[1]
        r4 = throughput[4] / throughput[1]
        report(
            "criterion 7: shuffle scaling 2 sets >= 1.6x and 4 sets >= 2.8x",
            r2 >= 1.6 and r4 >= 2.8,
            f"ratios {r2:.2f} / {r4:.2f}",
        )


class TestCriterion08BatchModeGain:
    def test_batch_mode_sustains_more_load(self, report):
        # The slot clock is slowed (15 Mbps links) so a context's tenure is a
        # real wall-time window at interpreter speeds.  That reproduces the
        # per-batch occupancy regime the original comparison ran at; with
        # line-rate slots a desk-scale run would only ever see a couple of
        # demands per batch and neither drain mode would be exercised.
        loads = {}
        for mode in (AllocationMode.BATCH, AllocationMode.PER_SLOT):
            cfg = Config(
                num_nodes=256, batch_size=8, cores=4, mode=mode,
                gap_bound=4000, link_rate_bps=15_000_000,
            )
            spec = WorkloadSpec(seed=42, num_nodes=256, mean_interarrival_ns=1e7)
            search = auto_search(
                paced_probe(cfg, spec), initial_mean_t_ns=1e7,
                probe_duration_s=2.0, budget_s=55.0,
            )
            loads[mode] = search.load_bps
        ratio = loads[AllocationMode.BATCH] / loads[AllocationMode.PER_SLOT]
        report(
            "criterion 8: batch mode sustains >= 1.2x per-slot load",
            ratio >= 1.2,
            f"batch {loads[AllocationMode.BATCH]/1e6:.1f} Mbps vs "
            f"per-slot {loads[AllocationMode.PER_SLOT]/1e6:.1f} Mbps, ratio {ratio:.2f}",
        )


def _window_fairness(batches, total_slots, window=64, tolerance=8):
    """Worst |per-flow count - window/2| over every sliding window."""
    owner = np.zeros(total_slots + 1, dtype=np.int8)
    for slot, src, _ in edges_of(batches):
        if slot <= total_slots:
            owner[slot] = src
    worst = 0
    for src in (1, 2):
        hits = np.cumsum(np.concatenate([[0], (owner == src).astype(np.int64)[1:]]))
        for start in range(1, total_slots - window + 2):
            count = hits[start + window - 1] - hits[start - 1]
            worst = max(worst, abs(count - window // 2))
            if worst > tolerance:
                return worst
    return worst


class TestCriterion09Fairness:
    TOTAL = 10_000

    def test_pipeline_batch_mode_shared_destination(self, report):
        size = self.TOTAL // 2 + 200
        trace = [Arrival(0, 1, 3, size), Arrival(0, 2, 3, size)]
        cfg = Config(num_nodes=4, batch_size=8, cores=2)
        res = run_pipeline_deterministic(
            cfg, trace, max_steps=self.TOTAL // 8 + cfg.cores + 2
        )
        worst = _window_fairness(res.batches, self.TOTAL)
        report(
            "criterion 9a: pipeline fairness within batch_size per 64-slot window",
            worst <= 8,
            f"worst deviation {worst} slots",
        )

    def test_shuffle_shared_destination(self, report):
        size = self.TOTAL // 2 + 200
        trace = [Arrival(0, 1, 3, size), Arrival(0, 2, 3, size)]
        cfg = Config(num_nodes=4, batch_size=8, sets=1, architecture=Architecture.SHUFFLE)
        res = run_shuffle_deterministic(cfg, trace, max_rounds=self.TOTAL // 8 + 2)
        worst = _window_fairness(res.batches, self.TOTAL)
        report(
            "criterion 9b: shuffle fairness within batch_size per 64-slot window",
            worst <= 8,
            f"worst deviation {worst} slots",
        )


class TestCriterion10AutoSearchConvergence:
    def test_mock_runner_threshold(self, report):
        threshold = 4.2e9

        def probe(mean_t_ns, duration_s):
            offered = 10 * 1500 * 8 * 1e9 / mean_t_ns
            return offered <= threshold, min(offered, threshold)

        result = auto_search(
            probe, initial_mean_t_ns=1e7, min_factor=1.05,
            probe_duration_s=0.0, budget_s=None,
        )
        rel_err = abs(result.load_bps - threshold) / threshold
        failing = [m for m, ok in result.trajectory if not ok]
        never_above = all(result.mean_interarrival_ns > m for m in failing)
        report(
            "criterion 10: auto_search within 5% of known threshold, bracketed",
            rel_err <= 0.05 and never_above,
            f"rel_err {rel_err:.3f}, {len(result.trajectory)} probes",
        )


class TestCriterion11DistributorLatency:
    def test_circulation_latency_trend(self, report):
        one = bench_distributor(1, circulations=800)
        four = bench_distributor(4, circulations=800)
        ratio = four["mean_us"] / one["mean_us"]
        report(
            "criterion 11: 4-set circulation latency <= 10x 1-set latency",
            ratio <= 10.0,
            f"{one['mean_us']:.0f} us -> {four['mean_us']:.0f} us, ratio {ratio:.2f}",
        )
