from __future__ import annotations

from pathlib import Path

import lcmlat


def test_tracer_binds_every_traced_function(monkeypatch):
    """The benchmark's tracer finds each function it traces, so renaming or
    deleting one fails here and not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()  # raises when a traced function is bound nowhere
    finally:
        tracer.uninstall()
    assert not hasattr(lcmlat.ideals.lcm_lattice, "__wrapped__")


def test_every_workload_checks_its_first_item(monkeypatch):
    """Each benchmark workload runs and passes its check on its first item,
    so a change to the code it calls fails here and not only in a benchmark
    run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    assert set(workloads.WORKLOADS) == {
        "betti-large", "verify-pool", "sweep6", "oracle"
    }
    for name, workload in workloads.WORKLOADS.items():
        _item_id, x = workload.setup(1)[0]
        assert workload.check(x, workload.run(x)), name
