"""Which slotarbiter functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  ``install`` wraps the public functions the
per-layer metrics below need; ``per_layer`` turns the traced pass's spans
and counters, plus counters from the untraced pass, into named metrics.
``cli`` is argument parsing only and is not traced.  See README.md for which
end-to-end metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Tuple

from slotarbiter import conduits, kernel, model, oracle, parallel, permutation, pipeline
from slotarbiter import shuffle, stress, workload

import bench
from tracer import Aggregate, ThreadState, Tracer

Metric = Tuple[float, str]  # (value, unit)


def install(tr: Tracer) -> None:
    """Wrap every traced function; ``tr.uninstall()`` restores them."""

    def span(name, before=None, after=None):
        return lambda fn: tr.span(name, fn, before, after)

    def count_len(key, arg_index):
        def hook(st: ThreadState, args: tuple, result) -> None:
            tr.add(st, key, len(args[arg_index]))
        return hook

    # kernel
    tr.patch_method(kernel.GreedyKernel, "sweep", span(
        "kernel.sweep", after=lambda st, a, r: tr.add(st, "kernel.drained", r.drained)))
    tr.patch_method(kernel.GreedyKernel, "ingest", span("kernel.ingest"))
    tr.patch_method(kernel.GreedyKernel, "finish", span("kernel.finish"))
    tr.patch_method(kernel.GreedyKernel, "reset", span("kernel.reset"))
    tr.patch_function(kernel, "allocate_slots", span("kernel.allocate_slots"))
    # model: a span per Demand would dwarf the constructor, so only count
    tr.patch_method(model.Demand, "__post_init__", lambda fn: tr.counter("model.demands", fn))
    # drivers
    tr.patch_function(pipeline, "run_pipeline_deterministic", span("pipeline.run_deterministic"))
    tr.patch_function(parallel, "run_parallel_deterministic", span("parallel.run_deterministic"))
    tr.patch_function(shuffle, "run_shuffle_deterministic", span("shuffle.run_deterministic"))
    tr.patch_function(stress, "run_deterministic", span("stress.run_deterministic"))
    tr.patch_function(stress, "run_paced", span("stress.run_paced"))
    # parallel
    tr.patch_method(parallel.Lane, "allocate", span("parallel.Lane.allocate"))
    tr.patch_method(parallel.Lane, "absorb", span(
        "parallel.Lane.absorb",
        before=lambda st, a, r: tr.add(st, "parallel.records", len(a[0].last_records))))
    tr.patch_function(parallel, "reconcile", span(
        "parallel.reconcile",
        before=lambda st, a, r: tr.add(st, "parallel.fragment_edges", sum(len(f.edges) for f in a[0]))))
    # shuffle
    tr.patch_method(shuffle.BacklogShard, "ingest", span("shuffle.BacklogShard.ingest"))

    def before_fill(st, a, r):
        tr.high(st, "shuffle.staging_high_water", len(a[0].staging))

    def after_fill(st, a, r):
        tr.add(st, "shuffle.filled", len(a[1].entries))
        tr.add(st, "shuffle.capacity", a[1].capacity)

    tr.patch_method(shuffle.BacklogShard, "fill_bin", span(
        "shuffle.BacklogShard.fill_bin", before=before_fill, after=after_fill))
    tr.patch_method(shuffle.BacklogShard, "absorb_return", span("shuffle.BacklogShard.absorb_return"))
    tr.patch_function(shuffle, "alloc_process", span(
        "shuffle.alloc_process", before=lambda st, a, r: tr.add(st, "shuffle.alloc_entries", len(a[0].entries))))
    tr.patch_function(shuffle, "postalloc_process", span(
        "shuffle.postalloc_process", before=lambda st, a, r: tr.add(st, "shuffle.post_entries", len(a[0].entries))))
    # permutation
    tr.patch_method(permutation.PermutationSpec, "permute", span("permutation.permute"))
    tr.patch_method(permutation.PermutationSpec, "invert", span("permutation.invert"))
    # oracle
    tr.patch_function(oracle, "oracle_replay", span(
        "oracle.oracle_replay", before=count_len("oracle.demands", 0)))
    tr.patch_function(oracle, "verify_admitted", span(
        "oracle.verify_admitted", before=lambda st, a, r: tr.add(st, "oracle.edges", len(a[0].edges))))
    # workload
    tr.patch_method(workload.WorkloadStream, "take", span(
        "workload.take", after=lambda st, a, r: tr.add(st, "workload.arrivals", len(r))))
    tr.patch_function(workload, "record_trace", span(
        "workload.record_trace", before=count_len("workload.rows", 0)))
    tr.patch_function(workload, "replay_trace", span("workload.replay_trace"))
    # conduits: non-blocking calls are ops; blocking calls count as blocked time
    put_stamp: Dict[int, int] = {}

    def after_try_put(st, a, r):
        if r:
            tr.high(st, "conduits.spsc_high_water", len(a[0]))
        else:
            tr.add(st, "conduits.spsc_refusals", 1)

    for attr in ("try_put", "put"):
        tr.patch_method(conduits.SpscQueue, attr, span(
            f"conduits.SpscQueue.{attr}", after=after_try_put))
    for attr in ("try_take", "take", "drain"):
        tr.patch_method(conduits.SpscQueue, attr, span(f"conduits.SpscQueue.{attr}"))

    def stamp_put(st, a, r):
        if r:
            put_stamp[id(a[0])] = time.perf_counter_ns()

    def stamp_take(st, a, r):
        if r is not None:
            stamped = put_stamp.pop(id(a[0]), None)
            if stamped is not None:
                tr.add(st, "conduits.handoff_ns", time.perf_counter_ns() - stamped)
                tr.add(st, "conduits.handoffs", 1)

    for attr in ("try_put", "put"):
        tr.patch_method(conduits.Mailbox, attr, span(f"conduits.Mailbox.{attr}", after=stamp_put))
    for attr in ("try_take", "take"):
        tr.patch_method(conduits.Mailbox, attr, span(f"conduits.Mailbox.{attr}", after=stamp_take))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class _View:
    """Read access to the merged trace for one or more phases."""

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        self.agg, self.sums, self.highs = tr.merged()

    def _agg(self, phases: List[str], name: str) -> Aggregate:
        total = Aggregate()
        for phase in phases:
            found = self.agg.get((phase, name))
            if found is not None:
                total.add(found)
        return total

    def incl(self, phases: List[str], *names: str) -> float:
        return sum(self.tr.inclusive_ns(self._agg(phases, n)) for n in names)

    def self_time(self, phases: List[str], name: str) -> float:
        return self.tr.self_ns(self._agg(phases, name))

    def calls(self, phases: List[str], *names: str) -> int:
        return sum(self._agg(phases, n).calls for n in names)

    def sum(self, phases: List[str], key: str) -> int:
        return sum(self.sums.get((phase, key), 0) for phase in phases)

    def high(self, phases: List[str], key: str) -> int:
        return max([self.highs.get((phase, key), 0) for phase in phases] or [0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


SPSC_OPS = ("conduits.SpscQueue.try_put", "conduits.SpscQueue.try_take", "conduits.SpscQueue.drain")
BLOCKING = ("conduits.SpscQueue.put", "conduits.SpscQueue.take",
            "conduits.Mailbox.put", "conduits.Mailbox.take")


def per_layer(tr: Tracer, traced: "bench.Pass", untraced: "bench.Pass") -> Dict[str, Metric]:
    """Per-layer metrics: span-derived from ``traced``, counters from ``untraced``."""
    v = _View(tr)
    out: Dict[str, Metric] = {}
    pipe = ["replay:pipelined"]
    par = ["replay:parallel"]
    shf = ["replay:shuffle"]

    # kernel (pipelined replay, except allocate_slots which shuffle calls directly)
    out["kernel.sweep_ns_per_drained"] = (
        _ratio(v.incl(pipe, "kernel.sweep"), v.sum(pipe, "kernel.drained")), "ns")
    out["kernel.drained_per_demand"] = (
        _ratio(v.sum(pipe, "kernel.drained"), v.sum(pipe, "replay.demands")), "ratio")
    out["kernel.ingest_ns_per_demand"] = (
        _ratio(v.incl(pipe, "kernel.ingest"), v.sum(pipe, "replay.demands")), "ns")
    out["kernel.finish_reset_ns_per_batch"] = (
        _ratio(v.incl(pipe, "kernel.finish", "kernel.reset"), v.calls(pipe, "kernel.finish")), "ns")
    out["kernel.allocate_slots_ns_per_call"] = (
        _ratio(v.incl(shf, "kernel.allocate_slots"), v.calls(shf, "kernel.allocate_slots")), "ns")
    # model
    for name in bench.REPLAY_NAMES:
        phase = [f"replay:{name}"]
        out[f"model.demands_per_slot.{name}"] = (
            _ratio(v.sum(phase, "model.demands"), v.sum(phase, "replay.slots")), "ratio")
    # pipeline
    out["pipeline.driver_self_ns_per_batch"] = (
        _ratio(v.self_time(pipe, "pipeline.run_deterministic"), v.calls(pipe, "kernel.finish")), "ns")
    # parallel
    batches = v.calls(par, "parallel.reconcile")
    out["parallel.allocate_ns_per_batch"] = (_ratio(v.incl(par, "parallel.Lane.allocate"), batches), "ns")
    out["parallel.reconcile_ns_per_edge"] = (
        _ratio(v.incl(par, "parallel.reconcile"), v.sum(par, "parallel.fragment_edges")), "ns")
    out["parallel.absorb_ns_per_record"] = (
        _ratio(v.incl(par, "parallel.Lane.absorb"), v.sum(par, "parallel.records")), "ns")
    first_parallel = untraced.replay.samples["parallel"][0]
    out["parallel.cancel_ratio"] = (_ratio(first_parallel.cancelled, first_parallel.slots), "ratio")
    # shuffle
    out["shuffle.ingest_ns_per_demand"] = (
        _ratio(v.incl(shf, "shuffle.BacklogShard.ingest"), v.calls(shf, "shuffle.BacklogShard.ingest")), "ns")
    out["shuffle.fill_bin_ns_per_bin"] = (
        _ratio(v.incl(shf, "shuffle.BacklogShard.fill_bin"), v.calls(shf, "shuffle.BacklogShard.fill_bin")), "ns")
    out["shuffle.staging_high_water"] = (float(v.high(shf, "shuffle.staging_high_water")), "count")
    out["shuffle.bin_fill_ratio"] = (
        _ratio(v.sum(shf, "shuffle.filled"), v.sum(shf, "shuffle.capacity")), "ratio")
    out["shuffle.alloc_ns_per_entry"] = (
        _ratio(v.incl(shf, "shuffle.alloc_process"), v.sum(shf, "shuffle.alloc_entries")), "ns")
    out["shuffle.postalloc_ns_per_entry"] = (
        _ratio(v.incl(shf, "shuffle.postalloc_process"), v.sum(shf, "shuffle.post_entries")), "ns")
    out["shuffle.absorb_ns_per_bin"] = (
        _ratio(v.incl(shf, "shuffle.BacklogShard.absorb_return"),
               v.calls(shf, "shuffle.BacklogShard.absorb_return")), "ns")
    out["permutation.ns_per_call"] = (
        _ratio(v.incl(shf, "permutation.permute", "permutation.invert"),
               v.calls(shf, "permutation.permute", "permutation.invert")), "ns")
    # workload (set-up)
    setup = ["setup"]
    out["workload.ns_per_arrival"] = (
        _ratio(v.incl(setup, "workload.take"), v.sum(setup, "workload.arrivals")), "ns")
    out["workload.trace_roundtrip_ns_per_row"] = (
        _ratio(v.incl(setup, "workload.record_trace", "workload.replay_trace"),
               v.sum(setup, "workload.rows")), "ns")
    # oracle
    ora = ["oracle:batch"]
    out["oracle.ns_per_demand"] = (
        _ratio(v.incl(ora, "oracle.oracle_replay"), v.sum(ora, "oracle.demands")), "ns")
    pipelined_wall = sorted(s.wall_s for s in untraced.replay.samples["pipelined"])
    out["oracle.kernel_ratio"] = (
        _ratio(pipelined_wall[len(pipelined_wall) // 2], untraced.replay.oracle_s["batch"]), "ratio")
    checks = [f"check:{name}" for name in bench.REPLAY_NAMES]
    out["oracle.verify_ns_per_edge"] = (
        _ratio(v.incl(checks, "oracle.verify_admitted"), v.sum(checks, "oracle.edges")), "ns")

    # paced: conduits pooled over the three architectures, per rate
    archs = list(bench.PACED_ARCHS)
    for rate in bench.PACED_RATES:
        phases = [f"paced:{arch}:{rate}" for arch in archs]
        out[f"conduits.spsc_ns_per_op.{rate}"] = (
            _ratio(v.incl(phases, *SPSC_OPS), v.calls(phases, *SPSC_OPS)), "ns")
        out[f"conduits.spsc_refusals.{rate}"] = (float(v.sum(phases, "conduits.spsc_refusals")), "count")
        out[f"conduits.spsc_high_water.{rate}"] = (float(v.high(phases, "conduits.spsc_high_water")), "count")
        out[f"conduits.mailbox_ns_per_handoff.{rate}"] = (
            _ratio(v.sum(phases, "conduits.handoff_ns"), v.sum(phases, "conduits.handoffs")), "ns")
        out[f"conduits.blocked_ns.{rate}"] = (v.incl(phases, *BLOCKING), "ns")
        runs = [run for arch in archs for run in untraced.paced[(arch, rate)]]
        lateness = sorted(x for run in runs for x in run.lateness_us)
        out[f"stress.gen_lateness_p50_us.{rate}"] = (bench.nearest_rank(lateness, 0.5), "us")
        out[f"stress.gen_lateness_p99_us.{rate}"] = (bench.nearest_rank(lateness, 0.99), "us")
        out[f"stress.push_refusals.{rate}"] = (float(sum(run.refusals for run in runs)), "count")
        for arch in archs:
            repeats = untraced.paced[(arch, rate)]
            out[f"{arch}.batches_per_s.{rate}"] = (
                statistics.median(run.batches / run.wall_s for run in repeats), "1/s")
            out[f"{arch}.slot_clock_ratio.{rate}"] = (
                statistics.median(run.slot_clock_ratio for run in repeats), "ratio")

    # tracing overhead: the slowdown of every end-to-end figure, >= 1 when slower
    traced_figures = traced.figures()
    for name, value in untraced.figures().items():
        slower_is_larger = bench.figure_unit(name) in ("s", "us")
        ratio = (_ratio(traced_figures[name], value) if slower_is_larger
                 else _ratio(value, traced_figures[name]))
        out[f"trace.overhead.{name}"] = (ratio, "ratio")
    out["trace.span_cost_ns"] = (tr.cost_ns, "ns")
    return out

