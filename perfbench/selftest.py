"""Self-test of the benchmark itself; run ``python3 perfbench/selftest.py``.

1. The correctness gate fires: a clean replay passes, and a copy of its batch
   stream with one duplicated edge and one over-allocated pair is caught.
2. Seeds are deterministic: the same seed gives identical arrivals and an
   identical admitted-edge digest per replay configuration on two runs, and
   a different seed gives a different trace.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from typing import List

from run import import_package


def main() -> int:
    import_package()
    import bench
    import gate
    from slotarbiter import stress
    from slotarbiter.model import AdmittedBatch

    results: List[bool] = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    family = dataclasses.replace(bench.WORKLOADS["backlog"], replay_demands=1500)
    configs = bench.replay_configs(family.num_nodes)

    def arrivals_for(seed: int):
        with tempfile.TemporaryDirectory() as tmp:
            arrivals, _ = bench.set_up(family, seed, os.path.join(tmp, "trace.csv"), lambda p: None)
        return arrivals

    # -- 1. the gate fires on a corrupted batch stream ---------------------
    arrivals = arrivals_for(7)
    pairs = [(a.src, a.dst) for a in arrivals]
    sizes = [a.size for a in arrivals]
    result = stress.run_deterministic(configs["pipelined"], arrivals)
    clean = gate.check_run(result.batches, pairs, sizes, result.metrics, must_drain=True)
    report("clean replay passes the gate", clean.failed == 0 and not clean.faults,
           f"{clean.demands} demands, faults={clean.faults[:2]}")

    batches = list(result.batches)
    victim = next(i for i, b in enumerate(batches) if b.edges)
    first = batches[victim]
    batches[victim] = AdmittedBatch(first.base_slot, first.batch_size, first.edges + first.edges[:1])
    dup = gate.check_run(batches, pairs, sizes, result.metrics, must_drain=True)
    dup_pair = first.edges[0][1:]
    report("duplicated edge is caught", dup.failed > 0 and any("capacity" in f for f in dup.faults),
           f"failed {dup.failed} demands of pair {dup_pair}")

    batches = list(result.batches)
    extra = _free_edge(batches)
    if extra is None:
        report("over-allocated pair is caught", False, "no free slot to corrupt")
    else:
        index, offset, src, dst = extra
        b = batches[index]
        batches[index] = AdmittedBatch(b.base_slot, b.batch_size, b.edges + ((offset, src, dst),))
        over = gate.check_run(batches, pairs, sizes, result.metrics, must_drain=True)
        report("over-allocated pair is caught",
               over.failed > 0 and any("over-allocation" in f for f in over.faults),
               f"failed {over.failed} demands of pair {(src, dst)}")

    ledger = gate.Ledger()
    ledger.record("clean", clean)
    ledger.record("corrupt", dup)
    report("a caught fault makes the run incorrect (non-zero exit)",
           not ledger.correct and ledger.failed_fraction > 0,
           f"failed_fraction {ledger.failed_fraction:.4f}")

    # -- 2. seeds are deterministic ---------------------------------------
    again = arrivals_for(7)
    report("same seed gives identical arrivals", again == arrivals, f"{len(arrivals)} arrivals")
    other = arrivals_for(8)
    report("different seed gives a different trace", other != arrivals)
    for name, cfg in configs.items():
        digests = [
            gate.edge_digest(gate.sorted_edges(stress.run_deterministic(cfg, trace).batches))
            for trace in (arrivals, again)
        ]
        report(f"{name}: identical admitted-edge digest on two runs", digests[0] == digests[1],
               " vs ".join(digests))

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


def _free_edge(batches):
    """An (index, offset, src, dst) whose src and dst are both idle in that slot,
    for a pair that already appears in the stream (so it is fully served)."""
    served = {(src, dst) for b in batches for _, src, dst in b.edges}
    for index, b in enumerate(batches):
        for offset in range(b.batch_size):
            busy_src = {s for o, s, _ in b.edges if o == offset}
            busy_dst = {d for o, _, d in b.edges if o == offset}
            for src, dst in served:
                if src not in busy_src and dst not in busy_dst:
                    return index, offset, src, dst
    return None


if __name__ == "__main__":
    sys.exit(main())
