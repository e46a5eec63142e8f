"""What the traced benchmark in ``perfbench/`` needs from the package.

``perfbench/layers.py`` patches slotarbiter's functions and methods by name,
and its per-layer metrics divide what those patches record by a count: the
kernel's by the sweeps, finishes and drained demands of the pipelined replay
and by the ``allocate_slots`` calls of the shuffle replay; the parallel and
shuffle metrics by the lane, reconcile, shard and permutation calls and the
edge, record, capacity and entry sums of their replays; and
``conduits.mailbox_ns_per_handoff.*`` by the Mailbox handoffs of paced runs.
A patched name that is gone, or a count that stays 0, makes
``perfbench/run.py --trace 1`` exit 1; these tests fail first.  The last
test runs ``perfbench/selftest.py``, the benchmark's check of its own gate
and seeds, so a change to how demands are represented runs it too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from slotarbiter import Architecture, Config, conduits, run_deterministic, run_paced
from slotarbiter.workload import WorkloadSpec

from conftest import make_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layers_install_finds_every_name_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tr = Tracer()
    patched = []
    try:
        layers.install(tr)
        patched = list(tr._restore)
    finally:
        tr.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


@pytest.fixture
def traced_replays(monkeypatch):
    """Replay a small trace under every bench replay config, traced as ``run.py`` does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import layers
    from tracer import Tracer

    trace = make_trace(4, 300, 32, unique_pairs=False)
    tr = Tracer()
    try:
        layers.install(tr)
        for name, cfg in bench.replay_configs(32).items():
            tr.phase = f"replay:{name}"
            run_deterministic(cfg, trace)
    finally:
        tr.uninstall()
    return tr.merged()


@pytest.mark.parametrize("phase", ["replay:pipelined", "replay:pipelined_per_slot"])
def test_pipelined_replay_feeds_the_kernel_metrics(traced_replays, phase):
    agg, sums, _ = traced_replays
    assert agg[(phase, "kernel.sweep")].calls > 0
    assert agg[(phase, "kernel.finish")].calls > 0
    assert sums[(phase, "kernel.drained")] > 0


def test_shuffle_replay_calls_allocate_slots(traced_replays):
    agg, _, _ = traced_replays
    assert agg[("replay:shuffle", "kernel.allocate_slots")].calls > 0


def test_parallel_replay_feeds_the_parallel_metrics(traced_replays):
    agg, sums, _ = traced_replays
    for name in ("parallel.Lane.allocate", "parallel.reconcile"):
        assert agg[("replay:parallel", name)].calls > 0, name
    for key in ("parallel.fragment_edges", "parallel.records"):
        assert sums[("replay:parallel", key)] > 0, key


def test_shuffle_replay_feeds_the_shuffle_metrics(traced_replays):
    agg, sums, _ = traced_replays
    for name in ("shuffle.BacklogShard.ingest", "shuffle.BacklogShard.fill_bin",
                 "shuffle.BacklogShard.absorb_return",
                 "permutation.permute", "permutation.invert"):
        assert agg[("replay:shuffle", name)].calls > 0, name
    for key in ("shuffle.capacity", "shuffle.alloc_entries", "shuffle.post_entries"):
        assert sums[("replay:shuffle", key)] > 0, key


def test_paced_shuffle_hands_bins_through_mailboxes(monkeypatch):
    try_take = conduits.Mailbox.try_take
    handoffs = 0

    def counted(self):
        nonlocal handoffs
        value = try_take(self)
        if value is not None:
            handoffs += 1
        return value

    monkeypatch.setattr(conduits.Mailbox, "try_take", counted)
    cfg = Config(num_nodes=64, architecture=Architecture.SHUFFLE, sets=2)
    spec = WorkloadSpec(seed=3, num_nodes=64, mean_interarrival_ns=500_000)
    result, _ = run_paced(cfg, spec, 0.5)
    assert result.metrics.conservation_ok()
    assert handoffs >= 1


def test_perfbench_selftest_passes():
    """The benchmark's own self-check (gate firing, seed determinism) passes
    against the package as it stands."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[FAIL]" not in proc.stdout, proc.stdout
