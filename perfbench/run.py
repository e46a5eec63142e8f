"""slotarbiter benchmark: replay throughput, paced latency and overload goodput.

Usage, from the repository root:

    python3 perfbench/run.py --workload backlog --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped.  ``--trace 1`` runs the same pass untraced and then traced, and
prints the per-layer metrics, including the traced/untraced ratio of every
end-to-end metric; its spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
demands checked and ``failed`` the demands a correctness check caught
(``failed_fraction`` is their ratio).  ``correct`` is false, and the exit
code 1, when a check failed.  A paced run whose rate missed its regime (a
light rate that is not light, an overload rate that does not saturate) is
reported as a failed precondition, and its ungated figure is withheld.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it is missing."""
    package = ROOT / "src" / "slotarbiter" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import slotarbiter

    if Path(slotarbiter.__file__).resolve() != package.resolve():
        print(f"error: imported slotarbiter from {slotarbiter.__file__}, not the checkout",
              file=sys.stderr)
        sys.exit(2)


def host_facts() -> Dict[str, object]:
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=False)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "switch_interval_s": sys.getswitchinterval(),
        "git_commit": commit,
    }


def finite(value: float):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one pass, split between replay and paced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_package()
    import bench
    import gate

    family = bench.WORKLOADS.get(args.workload)
    if family is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT_DIR.mkdir(exist_ok=True)
    started = time.time()
    ticks_at_start = bench.cpu_ticks()
    ledger = gate.Ledger()
    # a traced run splits its time between an untraced and a traced pass, so
    # it takes about as long as an untraced run
    pass_seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = bench.run_pass(family, args.seed, pass_seconds, ledger, str(OUT_DIR))
    details: Dict[str, object] = {
        "workload": family.name,
        "why": family.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "untraced": untraced.summary(),
    }

    metrics: Dict[str, Tuple[float, str]]
    if args.trace:
        import layers
        from tracer import Tracer, calibrate

        tr = Tracer()
        tr.cost_ns, tr.outer_ns = calibrate()

        def set_phase(phase: str) -> None:
            tr.phase = phase

        def count_replay(slots: int, demands: int) -> None:
            tr.add(tr.state(), "replay.slots", slots)
            tr.add(tr.state(), "replay.demands", demands)

        layers.install(tr)
        try:
            traced = bench.run_pass(
                family, args.seed, pass_seconds, ledger, str(OUT_DIR),
                on_phase=set_phase, on_replayed=count_replay,
            )
        finally:
            tr.uninstall()
        metrics = layers.per_layer(tr, traced, untraced)
        stem = f"{family.name}-seed{args.seed}"
        spans_path = OUT_DIR / f"spans-{stem}.csv"
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["spans_written"] = tr.write_spans(str(spans_path))
        details["traced"] = traced.summary()
        details["traced_figures"] = traced.figures()
        details["tracer_cost_ns"] = {"nested_span": tr.cost_ns, "outer": tr.outer_ns}
    else:
        metrics = {name: (value, bench.figure_unit(name)) for name, value in untraced.e2e().items()}

    details["host"]["steal_share"] = bench.steal_share(ticks_at_start, bench.cpu_ticks())
    figures = untraced.figures()
    gated = bench.e2e_names()
    withheld = {
        name: ledger.preconditions[label]
        for name in figures
        for label in [bench.figure_precondition(name)]
        if label in ledger.preconditions
    }
    details["figures"] = {
        name: {
            "value": None if name in withheld else finite(value),
            "unit": bench.figure_unit(name),
            "gated": name in gated,
            "precondition_failed": withheld.get(name),
        }
        for name, value in figures.items()
    }
    details["attempted"] = ledger.attempted
    details["failed"] = ledger.failed
    details["failed_fraction"] = ledger.failed_fraction
    details["faults"] = ledger.faults
    details["preconditions_failed"] = ledger.preconditions
    details["elapsed_s"] = time.time() - started
    details["metrics"] = {name: {"value": finite(v), "unit": u} for name, (v, u) in metrics.items()}
    out_path = OUT_DIR / f"result-{family.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=1, default=str))

    host = details["host"]
    print(f"# workload {family.name} seed {args.seed} trace {args.trace}: "
          f"{host['nproc']} cpus ({host['cpu_model']}), python {host['python']}, "
          f"numpy {host['numpy']}, switch interval {host['switch_interval_s']} s, "
          f"commit {host['git_commit']}")
    print(f"# demands checked {ledger.attempted}, failed {ledger.failed} "
          f"(failed_fraction {ledger.failed_fraction:.6f}); details in {out_path.relative_to(ROOT)}")
    for label, faults in ledger.faults.items():
        for fault in faults:
            print(f"# FAULT {label}: {fault}")
    for label, reasons in ledger.preconditions.items():
        for reason in reasons:
            print(f"# PRECONDITION FAILED {label}: {reason}")
    if not args.trace:
        print(f"# not gated (too noisy on a shared host to bound); host steal share "
              f"{details['host']['steal_share']}:")
        for name, value in figures.items():
            if name in withheld:
                print(f"#  {name:46s} withheld: precondition failed")
            elif name not in gated:
                print(f"#  {name:46s} {value:16.6g} {bench.figure_unit(name)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    correct = ledger.correct and all(finite(v) is not None for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": finite(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
