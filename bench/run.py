"""lcmlat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-manifest

Builds the workload's inputs from the seed, then runs passes over them for
S seconds and checks every output.  With ``--trace 0`` it reports the
end-to-end metrics: set-up time (median of several fresh processes), the
wall and CPU time of one pass with each item at its fastest time in the run,
and peak resident memory.  With
``--trace 1`` it runs untraced passes for half the time and traced passes for
the rest, and reports the per-layer metrics of the traced passes plus the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A copy of the result with
its run context, and in traced runs the spans, go to ``bench/results/``.

``--write-manifest`` regenerates ``BENCHMARK.json`` from the tables here and
in ``workloads.py`` and ``spans.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from math import ceil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

RUN_SECONDS = 25
#: Fresh processes timed for setup_s, spread between the passes so that they
#: see the box's speed over the whole run; the median is reported.
SETUP_PROBES = 7
#: (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
TAIL_PERCENTILES = (99.9, 99, 90, 50)


def _load_lcmlat():
    """Import lcmlat from this checkout's src/, never from anywhere else."""
    if not (SRC / "lcmlat" / "__init__.py").is_file():
        sys.exit(f"bench: no lcmlat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lcmlat

    if Path(lcmlat.__file__).resolve().parent != SRC / "lcmlat":
        sys.exit(f"bench: imported lcmlat from {lcmlat.__file__}, not {SRC}")


def _parse(argv):
    ap = argparse.ArgumentParser(description="lcmlat benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        ap.error("--workload is required")
    return args


def _setup_probe(workload: str, seed: int) -> None:
    """Child process body: time importing lcmlat and building the inputs."""
    t0 = time.perf_counter()
    _load_lcmlat()
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(seed)
    print(repr(time.perf_counter() - t0))


def _setup_seconds(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.split()[-1])


def _run_pass(w, inputs, tracer=None):
    """One timed pass; the outputs are checked afterwards, untimed."""
    outputs, latencies, cpu_times = [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for item_id, x in inputs:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = w.run(x)
            else:
                with tracer.item(item_id):
                    out = w.run(x)
        except Exception as exc:  # an item that raises counts as failed
            out = exc
        latencies.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
        outputs.append(out)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    failed = 0
    for (item_id, x), out in zip(inputs, outputs):
        try:
            ok = not isinstance(out, Exception) and w.check(x, out)
        except Exception as exc:
            out, ok = exc, False
        if not ok:
            failed += 1
            print(f"FAILED item {item_id}", file=sys.stderr)
            if isinstance(out, Exception):
                traceback.print_exception(out, file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "latencies": latencies,
            "cpu_times": cpu_times, "failed": failed}


def _passes(w, inputs, seconds, tracer=None, between=None):
    """Passes until ``seconds`` have gone by, at least one; ``between`` runs
    before each pass, untimed."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        if between is not None:
            between()
        out.append(_run_pass(w, inputs, tracer))
        if tracer is not None:
            out[-1]["trace"] = tracer.take()
    return out


def _pass_cost(passes, key="latencies"):
    """One pass with each item at its fastest time among ``passes``."""
    return sum(map(min, zip(*(p[key] for p in passes))))


def _item_tail(samples):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, nearest-rank; None when there are too few."""
    s = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = ceil(p / 100 * len(s))
        if rank and len(s) - rank >= 10:
            return p, s[rank - 1]
    return None


def _p50(samples):
    s = sorted(samples)
    return s[ceil(len(s) / 2) - 1]


def _git_commit():
    """HEAD of the checkout from the files under .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _context(args, **extra):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for f in sorted((SRC / "lcmlat").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1] for ln in fh if ln.startswith("model name"))
            cpu_model = next(models, "").strip() or None
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _end_to_end(args, w, inputs):
    setups = []

    def probe():
        if len(setups) < SETUP_PROBES:
            setups.append(_setup_seconds(args.workload, args.seed))

    passes = _passes(w, inputs, args.seconds, between=probe)
    while len(setups) < SETUP_PROBES:
        probe()
    # The shared box's speed swings by up to 2x within a second, so a pass is
    # costed item by item at each item's fastest time in the run.
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": _pass_cost(passes),
        "cpu_s": _pass_cost(passes, "cpu_times"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "passes": len(passes),
        "items_per_pass": len(inputs),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
    }
    if w.per_item:
        latencies = [t for p in passes for t in p["latencies"]]
        info["item_samples"] = len(latencies)
        info["item_p50_ms"] = _p50(latencies) * 1e3
        tail = _item_tail(latencies)
        if tail is not None:
            info["item_tail_percentile"] = tail[0]
            info["item_tail_ms"] = tail[1] * 1e3
    units = {name: unit for name, unit, _b, _x in END_TO_END}
    return passes, {k: (v, units[k]) for k, v in metrics.items()}, info, True


def _per_layer(args, w, inputs):
    import spans

    untraced = _passes(w, inputs, args.seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _passes(w, inputs, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    stats = [spans.layer_stats(*p["trace"]) for p in traced]
    repeatable = True
    metrics = {}
    for name, unit, _better in spans.PER_LAYER:
        values = [s[name] for s in stats]
        if unit == "s":
            metrics[name] = (float(statistics.median(values)), unit)
        elif name != "bench.trace_overhead":
            metrics[name] = (values[0], unit)
            if any(v != values[0] for v in values):
                print(f"count {name} differs between passes: {values}", file=sys.stderr)
                repeatable = False
    untraced_wall = _pass_cost(untraced)
    traced_wall = _pass_cost(traced)
    metrics["bench.trace_overhead"] = (traced_wall / untraced_wall, "ratio")
    info = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "items_per_pass": len(inputs),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
    }
    _write_spans(args, traced)
    return untraced + traced, metrics, info, repeatable


def _write_spans(args, traced):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for k, p in enumerate(traced):
            for name, start, end, parent, item in p["trace"][0]:
                fh.write(json.dumps([k, name, start, end, parent, item]) + "\n")


def manifest() -> dict:
    import spans
    from workloads import WORKLOADS

    for w in WORKLOADS.values():
        if len(w.why) > 200 or "\n" in w.why:
            raise ValueError(f"workload {w.name}: 'why' must be one line, <= 200 chars")
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in spans.PER_LAYER
        ],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    _load_lcmlat()
    from workloads import WORKLOADS

    if args.write_manifest:
        text = json.dumps(manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    inputs = w.setup(args.seed)
    measure = _per_layer if args.trace else _end_to_end
    passes, metrics, info, repeatable = measure(args, w, inputs)

    attempted = len(passes) * len(inputs)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and repeatable
    context = _context(args, **info)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:g}")
    if "item_p50_ms" in info:
        line = f"item_p50_ms {info['item_p50_ms']:.4f}"
        if "item_tail_ms" in info:
            line += (f"  item_tail_ms {info['item_tail_ms']:.4f}"
                     f" (p{info['item_tail_percentile']:g})")
        print(line + f" over {info['item_samples']} items")
    print("context " + json.dumps(context))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "context": context}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
