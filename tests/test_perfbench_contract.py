"""What the traced benchmark in ``perfbench/`` needs from the package.

``perfbench/layers.py`` patches slotarbiter's functions and methods by name,
and its ``conduits.mailbox_ns_per_handoff.*`` metrics divide the Mailbox
handoff time of paced runs by their handoff count.  A patched name that is
gone, or paced runs that hand no bin through a Mailbox, make
``perfbench/run.py --trace 1`` exit 1; these tests fail first.
"""

from pathlib import Path

from slotarbiter import Architecture, Config, conduits, run_paced
from slotarbiter.workload import WorkloadSpec

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
