"""Tracing for the per-layer metrics.

``Tracer.install`` rebinds every ``lcmlat.*`` attribute that holds one of the
traced functions (module globals such as ``resolutions.open_interval_order_complex``
as well as the ``FiniteLattice.from_below_masks`` staticmethod) to a wrapper
that records a span and the counts taken from the call's arguments and
result.  Spans stay in memory; ``run.py`` writes them out at exit.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import lcmlat.homology as homology


def _field_name(field) -> str:
    return "qq" if field.characteristic == 0 else "gfp"


def _rank_span(mat, field):
    return f"homology.sparse_rank.{_field_name(field)}"


def _count_rank(counts, result, mat, field):
    counts[f"homology.sparse_rank.{_field_name(field)}.cols"] += mat.shape[1]


def _count_boundary(counts, result, *_args):
    counts["homology.boundary_matrix.nnz"] += result.nnz


def _count_char0_skip(counts, result, K, field=None):
    if field is None and max(map(len, K.faces_by_dim.values())) >= (
        homology.CHAR0_CONFIRM_COLUMNS
    ):
        counts["homology.char0_skipped"] += 1


def _count_faces(counts, result, *_args):
    counts["lattice.open_interval_order_complex.faces"] += sum(
        len(faces) for d, faces in result.faces_by_dim.items() if d >= 0
    )


def _count_intervals(counts, result, L, *_args, **_kwargs):
    counts["resolutions.lattice_betti_table.intervals"] += L.n - 1
    counts["resolutions.intervals_nonzero"] += len(
        {m for (i, m) in result.multigraded if i > 0}
    )


def _count_subsets(counts, result, ideal, *_args):
    counts["taylor.taylor_betti.subsets"] += 1 << ideal.ngens


#: (module, attribute, span name or callable giving it, counter or None)
TARGETS = (
    ("homology", "sparse_rank", _rank_span, _count_rank),
    ("homology", "boundary_matrix", "homology.boundary_matrix", _count_boundary),
    ("homology", "reduced_homology_ranks", "homology.reduced_homology_ranks",
     _count_char0_skip),
    ("lattice", "open_interval_order_complex", "lattice.open_interval_order_complex",
     _count_faces),
    ("resolutions", "lattice_betti_table", "resolutions.lattice_betti_table",
     _count_intervals),
    ("lattice", "FiniteLattice.from_below_masks", "lattice.from_below_masks", None),
    ("graphs", "edge_ideal_lattice", "graphs.edge_ideal_lattice", None),
    ("lattice", "property_report", "lattice.property_report", None),
    ("ideals", "lcm_lattice", "ideals.lcm_lattice", None),
    ("graphs", "graph_side_verdicts", "graphs.graph_side_verdicts", None),
    ("graphs", "linearly_presented", "graphs.linearly_presented", None),
    ("lattice", "is_isomorphic", "lattice.is_isomorphic", None),
    ("ideals", "phan_ideal", "ideals.phan_ideal", None),
    ("ideals", "ideal_height", "ideals.ideal_height", None),
    ("taylor", "taylor_betti", "taylor.taylor_betti", _count_subsets),
)

#: Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = (
    *(
        (f"homology.sparse_rank.{f}.{stat}", unit, "lower")
        for f in ("gfp", "qq")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("cols", "count"))
    ),
    ("homology.boundary_matrix.calls", "count", "lower"),
    ("homology.boundary_matrix.self_s", "s", "lower"),
    ("homology.boundary_matrix.nnz", "count", "lower"),
    ("homology.char0_skipped", "count", "lower"),
    ("lattice.open_interval_order_complex.calls", "count", "lower"),
    ("lattice.open_interval_order_complex.self_s", "s", "lower"),
    ("lattice.open_interval_order_complex.faces", "count", "lower"),
    ("resolutions.lattice_betti_table.calls", "count", "lower"),
    ("resolutions.lattice_betti_table.self_s", "s", "lower"),
    ("resolutions.lattice_betti_table.intervals", "count", "lower"),
    ("resolutions.intervals_nonzero_ratio", "ratio", "higher"),
    ("lattice.from_below_masks.calls", "count", "lower"),
    ("lattice.from_below_masks.self_s", "s", "lower"),
    ("graphs.edge_ideal_lattice.self_s", "s", "lower"),
    ("lattice.property_report.self_s", "s", "lower"),
    ("ideals.lcm_lattice.calls", "count", "lower"),
    ("ideals.lcm_lattice.self_s", "s", "lower"),
    ("graphs.graph_side_verdicts.self_s", "s", "lower"),
    ("graphs.linearly_presented.self_s", "s", "lower"),
    ("lattice.is_isomorphic.calls", "count", "lower"),
    ("lattice.is_isomorphic.self_s", "s", "lower"),
    ("ideals.phan_ideal.self_s", "s", "lower"),
    ("ideals.ideal_height.self_s", "s", "lower"),
    ("taylor.taylor_betti.calls", "count", "lower"),
    ("taylor.taylor_betti.self_s", "s", "lower"),
    ("taylor.taylor_betti.subsets", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)


class Tracer:
    """Collects spans (name, start_ns, end_ns, parent index, item id) and
    counts for the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._item = None
        self._undo = []

    def take(self):
        """Return and clear the spans and counts gathered so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    @contextmanager
    def item(self, item_id):
        """Root span of one workload item; spans inside it carry its id."""
        self._item = item_id
        try:
            with self._span("item"):
                yield
        finally:
            self._item = None

    @contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._item)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if not self._stack:  # outside a workload item, e.g. in a check
                return fn(*args, **kwargs)
            span = name(*args, **kwargs) if callable(name) else name
            with self._span(span):
                result = fn(*args, **kwargs)
            self.counts[span + ".calls"] += 1
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every lcmlat attribute holding a traced function."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "lcmlat"]
        classes = {
            id(v): v
            for m in modules
            for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("lcmlat")
        }
        for module, attr, name, count in TARGETS:
            owner = sys.modules[f"lcmlat.{module}"]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, attr.split(".")[-1])
            wrapper = self._wrap(fn, name, count)
            bound = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, key, value, wrapper)
                        bound += 1
            for cls in classes.values():
                for key, value in list(vars(cls).items()):
                    if isinstance(value, staticmethod) and value.__func__ is fn:
                        self._rebind(cls, key, value, staticmethod(wrapper))
                        bound += 1
            if not bound:
                raise RuntimeError(f"lcmlat.{module}.{attr} is bound nowhere")

    def _rebind(self, owner, key, old, new):
        self._undo.append((owner, key, old))
        setattr(owner, key, new)

    def uninstall(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)


def layer_stats(spans, counts) -> dict:
    """Calls, self seconds and counts per span name for one traced pass.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = Counter(counts)
    for (name, start, end, _parent, _item), inner in zip(spans, child_ns):
        stats[name + ".self_s"] += (end - start - inner) / 1e9
    intervals = stats["resolutions.lattice_betti_table.intervals"]
    stats["resolutions.intervals_nonzero_ratio"] = (
        stats["resolutions.intervals_nonzero"] / intervals if intervals else 0.0
    )
    return stats
