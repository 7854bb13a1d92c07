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
    traced as in a ``--trace 1`` run, so a change to the code it calls or to
    what the tracer's counters read fails here and not only in a benchmark
    run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans
    import workloads

    assert set(workloads.WORKLOADS) == {
        "betti-large", "verify-pool", "sweep6", "oracle"
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, workload in workloads.WORKLOADS.items():
            item_id, x = workload.setup(1)[0]
            with tracer.item(item_id):
                result = workload.run(x)
            assert workload.check(x, result), name
    finally:
        tracer.uninstall()
    assert tracer.counts["homology.sparse_rank.gfp.calls"] > 0
