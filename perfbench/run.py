#!/usr/bin/env python3
"""Seeded end-to-end benchmark of sierpindex, with an optional traced run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout; without it the command fails before measuring anything.

``--trace 0`` measures the end-to-end metrics with tracing off: whole passes
of the workload's ops until ``--seconds`` have elapsed, each op slot keeping
its fastest pass, and set-up time (import plus parsing every base, in fresh
interpreters between passes, median of several).
``--trace 1`` traces set-up, the checks and one pass, running every op of
that pass once untraced and once traced to give ``trace_overhead_frac``, and
reports the per-layer metrics. Either way every op's answer is checked; a
mismatch makes the run exit 1. The last stdout line is the JSON result; the
full result with provenance (and the spans, when traced) goes to ``--out``.
See README.md for the workloads and the layer-to-metric table.
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
import tempfile
import time
from collections import Counter
from pathlib import Path

# One client, no worker threads: BLAS thread pools stay at one thread, here
# and in the set-up children, so set-up time does not depend on whether a
# second core happens to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Span names whose summed self time is reported as ``<name>.self_s``.
TIMED_SPANS = (
    "closedform.sierpinski_randic",
    "closedform.polymeric_randic",
    "closedform.IndexReport.to_json_dict",
    "closedform.edge_class_counts",
    "closedform.vertex_class_counts",
    "cli.render",
    "construct.sierpinski_graph",
    "construct.polymeric_graph",
    "construct.census_edge_classes",
    "construct.census_vertex_classes",
    "graphs.randic_index",
    "graphs.parse_edge_list",
    "graphs.render_edge_list",
)

#: Work counts the benchmark records at the same call sites.
COUNTS = (
    "closedform.base_edges",
    "closedform.nt_bits",
    "cli.render.bytes",
    "construct.expansion.vertices",
    "construct.expansion.edges",
    "graphs.randic_index.edges",
    "graphs.parse_edge_list.edges",
)

#: Failure counts by the layer whose call raised, and exception type.
FAILURES = (
    "closedform.failed.OverflowError",
    "closedform.failed.ValueError",
    "closedform.failed.NonFiniteValue",
)

PER_LAYER = (
    {f"{name}.self_s": "s" for name in TIMED_SPANS}
    | {name: "count" for name in COUNTS + FAILURES + ("failed.other",)}
    | {"trace_overhead_frac": "frac"}
)

SETUP_CHILD = """
import json, sys, time
texts = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import sierpindex
for text in texts:
    sierpindex.parse_edge_list(text)
print(repr(time.perf_counter() - start))
"""


def import_package():
    """Import sierpindex from this checkout's ``src/``, or return None."""
    if not (SRC / "sierpindex" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import sierpindex

    if Path(sierpindex.__file__).resolve().parent != SRC / "sierpindex":
        return None
    return sierpindex


def setup_sample(payload: str) -> float:
    """Import plus parse of every base in a fresh interpreter, as a CLI user
    pays it on every call. ``payload`` is the JSON list of edge-list texts."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        input=payload, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(op, tr):
    start = time.perf_counter_ns()
    try:
        out, err = op.run(tr), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, err = None, exc
    return out, err, time.perf_counter_ns() - start


def invalid(problem) -> bool:
    """A ``workloads.Invalid`` output: a failed op, not a wrong answer."""
    return hasattr(problem, "kind")


class Tally:
    """Outcome of every measured op."""

    def __init__(self):
        self.ok_ns: list[int] = []
        self.op_ns = 0
        self.attempted = 0
        self.errors: Counter = Counter()
        self.kinds: Counter = Counter()
        self.mismatches: list[str] = []
        self.passes: list[tuple[list[int], int]] = []  # per pass: ok latencies, op time

    def add(self, op, out, err, ns, tr) -> bool:
        """Count one op; True if it returned a checked answer."""
        self.attempted += 1
        self.op_ns += ns
        self.kinds[op.kind] += 1
        if err is not None:
            self.errors[type(err).__name__] += 1
            return False
        problem = op.check(out)
        if problem is None:
            self.ok_ns.append(ns)
            return True
        if invalid(problem):
            self.errors[problem.kind] += 1
            if tr.enabled:
                tr.failures[f"{problem.layer}.failed.{problem.kind}"] += 1
        else:
            self.mismatches.append(problem)
        return False

    @property
    def failed(self) -> int:
        return self.attempted - len(self.ok_ns)


def measure(wl, graphs, seconds: float, null, setup_payload: str, setup_repeats: int):
    """Whole passes, with tracing off, until ``seconds`` of wall time.

    Op ``i`` of every pass is the same work (the same cell, or a base of the
    same size), so each op slot keeps its fastest time over the passes, and
    counts as correct only if it was correct in every pass. Set-up samples are
    taken between passes, as evenly over the run as the passes allow, until
    there are ``setup_repeats``; any still missing are taken at the end."""
    tally, passes, setup = Tally(), 0, []
    slots: list[list] = []  # per op slot: [best ns, correct in every pass]
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        ok0, ns0 = len(tally.ok_ns), tally.op_ns
        for i, op in enumerate(wl.make_pass(passes, null, graphs)):
            out, err, ns = run_op(op, null)
            ok = tally.add(op, out, err, ns, null)
            del out
            if passes == 0:
                slots.append([ns, ok])
            else:
                slots[i][0] = min(slots[i][0], ns)
                slots[i][1] = slots[i][1] and ok
        tally.passes.append((tally.ok_ns[ok0:], tally.op_ns - ns0))
        passes += 1
        elapsed = time.perf_counter() - start
        due = setup_repeats if seconds <= 0 else min(setup_repeats, int(setup_repeats * elapsed / seconds) + 1)
        while len(setup) < due:
            setup.append(setup_sample(setup_payload))
    setup += [setup_sample(setup_payload) for _ in range(setup_repeats - len(setup))]
    return tally, passes, slots, setup


def p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def end_to_end(tally, slots, setup: list[float]) -> dict:
    """Rates and latencies come from each op slot's fastest pass: on a shared
    host the machine's speed drifts by a quarter over tens of seconds, and the
    fastest of several identical runs of an op is the figure that drift
    disturbs least."""
    best_ok = [ns for ns, ok in slots if ok]
    return {
        "setup_s": statistics.median(setup),
        "ok_ops_per_s": len(best_ok) / (sum(ns for ns, _ in slots) / 1e9),
        "op_p50_ms": statistics.median(best_ok) / 1e6,
        "op_p99_ms": p99(best_ok) / 1e6,
        "ok_frac": len(best_ok) / len(slots),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(wl, graphs, tr, null) -> tuple[Tally, float]:
    """One pass; each op runs untraced and traced, alternating which is first."""
    tally = Tally()
    plain_ns = traced_ns = 0
    for i, op in enumerate(wl.make_pass(0, tr, graphs)):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tr.root("op", i):
                    out, err, ns = run_op(op, tr)
                traced_ns += ns
                tally.add(op, out, err, ns, tr)
            else:
                out, err, ns = run_op(op, null)
                plain_ns += ns
                problem = op.check(out) if err is None else None
                if problem is not None and not invalid(problem):
                    tally.mismatches.append(problem)
            del out
    return tally, traced_ns / plain_ns - 1


def layer_metrics(tr, overhead: float) -> tuple[dict, dict]:
    by_name = tracing.self_seconds_by_name(tr.spans)
    values = {f"{name}.self_s": sum(by_name.get(name, {}).values()) for name in TIMED_SPANS}
    values |= {name: tr.counts[name] for name in COUNTS}
    values |= {name: tr.failures[name] for name in FAILURES}
    values["failed.other"] = sum(c for k, c in tr.failures.items() if k not in FAILURES)
    values["trace_overhead_frac"] = overhead
    return values, by_name


def provenance(sx, args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "sierpindex").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "sierpindex_version": sx.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "deep_levels", "oracle_verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for result and span files")
    parser.add_argument("--tiny", action="store_true", help="smoke size, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    sx = import_package()
    if sx is None:
        print(f"error: no sierpindex package under {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports sierpindex, so only once it is found

    size = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, size)
    null = tracing.NullTracer()
    tr = tracing.Tracer() if args.trace else null
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    texts = wl.base_texts()
    setup: list[float] = []
    with tr.root("setup", 0):
        graphs = {name: workloads.parse(tr, text) for name, text in texts.items()}
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        checks = wl.prep(tr, texts, graphs, workdir)

    if args.trace:
        tally, overhead = measure_traced(wl, graphs, tr, null)
        passes, slots = 1, None
        values, by_name = layer_metrics(tr, overhead)
        units = PER_LAYER
        tr.write_jsonl(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        tally, passes, slots, setup = measure(wl, graphs, args.seconds, null,
                                              json.dumps(list(texts.values())), size.setup_repeats)
        values = end_to_end(tally, slots, setup)
        by_name = None
        units = END_TO_END

    problems = [c.problem for c in checks if c.problem] + tally.mismatches
    correct = not problems
    # An op is an op slot: it runs once per pass, and fails if any run failed.
    # Its count does not depend on how many passes fit in the run.
    attempted = tally.attempted if slots is None else len(slots)
    failed = tally.failed if slots is None else sum(not ok for _, ok in slots)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "provenance": provenance(sx, args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "executions": tally.attempted,
        "failed_executions": tally.failed,
        "op_counts": dict(tally.kinds),  # executions by kind
        "failures_by_type": dict(tally.errors),  # failed executions by type
        "failures_by_layer": dict(tr.failures) if args.trace else None,
        "mismatches": problems[:50],
        "checks": [{"label": c.label, "problem": c.problem} for c in checks],
        "latency_samples": len(tally.ok_ns),
        "op_slot_best_ms": None if slots is None else [ns / 1e6 if ok else None for ns, ok in slots],
        "pass_ok_ops_per_s": [len(ok) / (ns / 1e9) for ok, ns in tally.passes],
        "setup_samples_s": setup,
        "self_s_by_phase": by_name,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} passes={passes} attempted={attempted} failed={failed} "
          f"executions={tally.attempted} failed_executions={tally.failed}")
    for kind, count in sorted(tally.errors.items()):
        print(f"  failed with {kind}: {count}")
    for problem in problems[:10]:
        print(f"  MISMATCH {problem}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
