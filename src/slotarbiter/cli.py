"""arbiter-bench command line interface.

Subcommands:
  run                paced stress run, auto-search, or deterministic trace replay
  verify             check an admitted-edges file against the capacity invariant
  bench-distributor  measure bin circulation latency per lane-set count
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .model import AdmittedBatch, AllocationMode, Architecture, Config, ConfigError
from .oracle import verify_admitted
from .shuffle import bench_distributor
from .stress import SearchError, auto_search, paced_probe, run_deterministic, run_paced
from .workload import (
    TraceFormatError,
    WorkloadSpec,
    WorkloadStream,
    mean_t_for_load,
    record_trace,
    replay_trace,
)

ADMITTED_HEADER = ["slot", "src", "dst"]


def _build_config(args: argparse.Namespace) -> Config:
    return Config(
        num_nodes=args.nodes,
        architecture=Architecture(args.arch),
        mode=AllocationMode(args.mode),
        batch_size=args.batch_size,
        cores=args.cores,
        lanes=args.lanes,
        sets=args.sets,
        gap_bound=args.gap_bound,
        mailbox_depth=args.mailbox_depth,
        bin_capacity=args.bin_capacity,
        mid_pipeline_ingest=args.mid_pipeline_ingest,
    )


def _write_admitted(path: str, batches: List[AdmittedBatch]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ADMITTED_HEADER)
        for batch in batches:
            for slot, src, dst in batch.absolute_edges():
                writer.writerow([slot, src, dst])


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    payload: Dict[str, object] = {
        "arch": args.arch,
        "nodes": args.nodes,
        "batch_size": args.batch_size,
        "mode": args.mode,
        "seed": args.seed,
    }

    if args.trace_out:
        if args.mean_t is None:
            print("error: --trace-out needs --mean-t", file=sys.stderr)
            return 2
        spec = WorkloadSpec(
            seed=args.seed,
            num_nodes=args.nodes,
            mean_interarrival_ns=args.mean_t,
            duration_s=args.duration,
        )
        stream = WorkloadStream(spec)
        arrivals = []
        horizon_ns = args.duration * 1e9
        while True:
            arrival = stream.peek()
            if arrival.arrival_ns > horizon_ns:
                break
            arrivals.append(stream.next_arrival())
        record_trace(arrivals, args.trace_out)
        print(f"wrote {len(arrivals)} arrivals to {args.trace_out}")
        return 0

    if args.trace_in:
        arrivals = replay_trace(args.trace_in)
        outside = next((a for a in arrivals if max(a.src, a.dst) >= args.nodes), None)
        if outside is not None:
            node = max(outside.src, outside.dst)
            print(f"error: trace names node {node}, but --nodes is {args.nodes}", file=sys.stderr)
            return 2
        result = run_deterministic(cfg, arrivals)
        if args.admitted_out:
            _write_admitted(args.admitted_out, result.batches)
        payload["mode_of_run"] = "deterministic"
        payload["metrics"] = result.metrics.to_dict()
    elif args.auto_search:
        initial = args.mean_t or mean_t_for_load(
            0.01, args.nodes, cfg.link_rate_bps, cfg.mtu_bytes
        )
        spec = WorkloadSpec(
            seed=args.seed, num_nodes=args.nodes, mean_interarrival_ns=initial
        )
        search = auto_search(
            paced_probe(cfg, spec),
            initial_mean_t_ns=initial,
            probe_duration_s=args.probe_duration,
            budget_s=args.duration,
        )
        payload["mode_of_run"] = "auto-search"
        payload["search"] = search.to_dict()
        print(f"max sustainable load: {search.load_bps / 1e9:.3f} Gbps")
    else:
        if args.mean_t is None:
            print("error: need --mean-t or --auto-search or --trace-in", file=sys.stderr)
            return 2
        spec = WorkloadSpec(
            seed=args.seed,
            num_nodes=args.nodes,
            mean_interarrival_ns=args.mean_t,
            duration_s=args.duration,
        )
        result, samples = run_paced(cfg, spec, args.duration)
        payload["mode_of_run"] = "paced"
        payload["metrics"] = result.metrics.to_dict()
        payload["gap_samples"] = [
            {"at_ns": s.at_ns, "gap": s.gap} for s in samples
        ]
        print(
            f"allocated {result.metrics.allocated_slots} slots, "
            f"{result.metrics.throughput_bps / 1e9:.3f} Gbps"
        )

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"metrics written to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    edges: List[Tuple[int, int, int]] = []
    with open(args.admitted, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ADMITTED_HEADER:
            print(f"error: expected header {','.join(ADMITTED_HEADER)}", file=sys.stderr)
            return 2
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                slot, src, dst = (int(v) for v in row)
            except ValueError:
                print(f"error: line {lineno}: non-integer field", file=sys.stderr)
                return 2
            edges.append((slot, src, dst))

    batch = AdmittedBatch(0, max((s for s, _, _ in edges), default=0) + 1, tuple(edges))
    violation = verify_admitted(batch)
    if violation is not None:
        print(f"capacity violation: {violation}")
        return 1

    if args.trace:
        demanded: Dict[Tuple[int, int], int] = defaultdict(int)
        for arrival in replay_trace(args.trace):
            demanded[(arrival.src, arrival.dst)] += arrival.size
        allocated: Dict[Tuple[int, int], int] = defaultdict(int)
        for _, src, dst in edges:
            allocated[(src, dst)] += 1
        for pair, count in allocated.items():
            if count > demanded.get(pair, 0):
                print(
                    f"over-allocation: pair {pair} got {count} slots, "
                    f"demanded {demanded.get(pair, 0)}"
                )
                return 1
    print(f"ok: {len(edges)} admitted edges pass the capacity invariant")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    report = []
    for sets in args.sets:
        stats = bench_distributor(sets, circulations=args.circulations)
        report.append(stats)
        print(
            f"{sets} set(s): mean {stats['mean_us']:.2f} us, "
            f"p50 {stats['p50_us']:.2f} us, p99 {stats['p99_us']:.2f} us"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arbiter-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="stress run / search / trace replay")
    run.add_argument("--arch", choices=[a.value for a in Architecture], default="pipelined")
    run.add_argument("--nodes", type=int, default=256)
    run.add_argument("--batch-size", type=int, default=8)
    run.add_argument("--mode", choices=[m.value for m in AllocationMode], default="batch")
    run.add_argument("--cores", type=int, default=4, help="pipeline contexts")
    run.add_argument("--lanes", type=int, default=2, help="parallel lanes")
    run.add_argument("--sets", type=int, default=1, help="shuffle lane sets")
    run.add_argument("--duration", type=float, default=5.0, help="seconds")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--mean-t", type=float, default=None, help="mean interarrival ns")
    run.add_argument("--auto-search", action="store_true")
    run.add_argument("--probe-duration", type=float, default=2.0)
    run.add_argument("--gap-bound", type=int, default=10_000)
    run.add_argument("--mailbox-depth", type=int, default=4096)
    run.add_argument("--bin-capacity", type=int, default=64)
    run.add_argument("--mid-pipeline-ingest", action="store_true")
    run.add_argument("--trace-in", default=None)
    run.add_argument("--trace-out", default=None)
    run.add_argument("--admitted-out", default=None)
    run.add_argument("--out", default=None, help="metrics JSON path")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="check an admitted-edges CSV")
    verify.add_argument("--admitted", required=True)
    verify.add_argument("--trace", default=None)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench-distributor", help="bin circulation latency")
    bench.add_argument("--sets", type=int, nargs="+", default=[1, 2, 4])
    bench.add_argument("--circulations", type=int, default=2000)
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, SearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
