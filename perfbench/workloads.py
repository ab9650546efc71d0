"""The three seeded workloads: inputs, ops, reference checks and CLI parity.

Every workload is a closed loop with one client. An op is one callable that
goes into the package only through the tracer; everything an op's check
needs (references, inputs, edge-list text) is built before the op runs and
outside its timed region. ``specialized`` is used only as a reference.

sweep
    Two seeded random connected bases (n=200/m=1e3 and n=400/m=2e3), fresh
    per pass. Each gets S and P with float alpha in {-0.5, 1} and exact
    alpha=1, one op per (variant, alpha) sweeping t over {2, 20}, plus one S
    query with the per-edge breakdown rendered to JSON. Nearly all time is the
    per-base compile in ``closedform``. Checks: float alpha=1 against exact
    alpha=1, the breakdown against the plain query, and (before the loop) an
    oracle cell on a small base from the same generator plus CLI parity of
    the small breakdown query.

deep_levels
    The 13 corpus bases, S and P, t on a log-spaced grid over [2, 1e4] (the
    same cells for every seed and pass, in a seeded order), alpha float
    {-1, -0.5, 0.5, 2} or exact {1, 2};
    each op is compute + ``to_json_dict`` + ``json.dumps(indent=2)``, which is
    what ``sierpindex closed`` prints. Compile is negligible; big-int levels,
    report building and huge-int rendering carry the load. Float overflow and
    the 4300-digit int->str limit make some cells fail; they are counted, not
    skipped.

oracle_verify
    K4, demo7, C6 and K2_3, each with an S cell at the largest t with
    n**t <= 3e3 and a P cell at the largest t with at most 1.5e3 vertices. A
    cell builds the expansion, runs ``randic_index`` at alpha=-0.5 and exact
    alpha=1 against the closed form, compares the censuses with the closed
    counters (S only) and round-trips the edge list. Construction, ``Graph``
    canonicalisation, the censuses and edge-list I/O do the work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import sierpindex as sx
from sierpindex import cli, specialized

REL_TOL = 1e-9

SWEEP_TS = (2, 20)
DEEP_TMAX = 10_000

#: Independent random streams per seed: one per pass, one for the checks.
PASS_STREAM, CHECK_STREAM = 0, 1


@dataclass(frozen=True)
class Size:
    sweep_bases: tuple[tuple[int, int], ...]
    sweep_oracle: tuple[int, int, int]  # n, m, t of the small oracle base
    deep_strata: int
    deep_oracle_vertices: int
    oracle_s_vertices: int
    oracle_p_vertices: int
    setup_repeats: int


FULL = Size(
    sweep_bases=((200, 1_000), (400, 2_000)),
    sweep_oracle=(12, 30, 3),
    deep_strata=32,
    deep_oracle_vertices=4_096,
    oracle_s_vertices=3_000,
    oracle_p_vertices=1_500,
    setup_repeats=15,
)

#: Smoke size for the benchmark's own tests: same code paths, small inputs.
TINY = Size(
    sweep_bases=((40, 100), (80, 200)),
    sweep_oracle=(8, 14, 2),
    deep_strata=3,
    deep_oracle_vertices=1_024,
    oracle_s_vertices=3_000,
    oracle_p_vertices=2_000,
    setup_repeats=1,
)


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]  # tracer -> output; the only timed part
    check: Callable[[Any], str | None]  # output -> mismatch description or None


class Invalid(str):
    """An output that is not an answer (a non-finite float the program should
    have refused): counted as a failed op like an exception, not as a wrong
    answer."""

    layer = "closedform"
    kind = "NonFiniteValue"


def invalid_value(report) -> Invalid | None:
    if report.exact is None and not math.isfinite(report.value):
        return Invalid(f"{report.variant} t={report.t} alpha={report.alpha:g}: value {report.value!r}")
    return None


@dataclass
class Check:
    label: str
    problem: str | None


# -- inputs ------------------------------------------------------------------

def edge_list_text(n: int, edges) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def random_connected_text(seed_words: list[int], n: int, m: int) -> str:
    """Edge-list text of a random connected simple graph: a random recursive
    tree on a shuffled vertex order plus uniform extra edges."""
    rng = np.random.default_rng(seed_words)
    perm = rng.permutation(n) + 1
    parent_pos = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    tree = zip(perm[1:].tolist(), perm[parent_pos].tolist())
    edges = [(u, v) if u < v else (v, u) for u, v in tree]
    seen = set(edges)
    while len(edges) < m:
        draw = rng.integers(1, n + 1, size=(2 * (m - len(edges)), 2)).tolist()
        for u, v in draw:
            e = (u, v) if u < v else (v, u)
            if u != v and e not in seen:
                seen.add(e)
                edges.append(e)
                if len(edges) == m:
                    break
    edges.sort()
    return edge_list_text(n, edges)


#: The 13 corpus bases, from the package's named builders, with the family
#: formula (if any) that serves as a reference for S and for P.
CORPUS = {
    "K2": (lambda: sx.complete_graph(2), ("complete", (2,)), ("complete", (2,))),
    "K3": (lambda: sx.complete_graph(3), ("complete", (3,)), ("complete", (3,))),
    "K4": (lambda: sx.complete_graph(4), ("complete", (4,)), ("complete", (4,))),
    "K5": (lambda: sx.complete_graph(5), ("complete", (5,)), ("complete", (5,))),
    "C4": (lambda: sx.cycle_graph(4), ("cycle", (4,)), ("regular", (4, 2, 0))),
    "C5": (lambda: sx.cycle_graph(5), ("cycle", (5,)), ("regular", (5, 2, 0))),
    "C6": (lambda: sx.cycle_graph(6), ("cycle", (6,)), ("regular", (6, 2, 0))),
    "P3": (lambda: sx.path_graph(3), ("path", (3,)), None),
    "P4": (lambda: sx.path_graph(4), ("path", (4,)), None),
    "P5": (lambda: sx.path_graph(5), ("path", (5,)), None),
    "K1_3": (lambda: sx.star_graph(3), ("star", (3,)), None),
    "K2_3": (lambda: sx.complete_bipartite_graph(2, 3), ("semiregular", (2, 3, 3, 2)), None),
    "demo7": (sx.demo_graph, None, None),
}


def corpus_texts(names) -> dict[str, str]:
    out = {}
    for name in names:
        g = CORPUS[name][0]()
        out[name] = edge_list_text(g.n, g.edges.tolist())
    return out


# -- shared pieces -------------------------------------------------------------

VARIANTS = {
    "S": ("closedform.sierpinski_randic", sx.sierpinski_randic,
          "construct.sierpinski_graph", sx.sierpinski_graph),
    "P": ("closedform.polymeric_randic", sx.polymeric_randic,
          "construct.polymeric_graph", sx.polymeric_graph),
}


def vertex_count(n: int, variant: str, t: int) -> int:
    return n ** t if variant == "S" else (n + 1) * sx.repunit(n, t)


def closed(tr, base, variant: str, t: int, params, breakdown: bool = False):
    name, fn, _, _ = VARIANTS[variant]
    report = tr.call(name, fn, base, t, params, include_breakdown=breakdown)
    if tr.enabled:
        tr.count("closedform.base_edges", base.m)
        tr.count("closedform.nt_bits", (base.n ** t).bit_length())
    return report


def render(tr, report) -> str:
    """JSON text exactly as ``sierpindex closed`` writes it."""
    def dump():
        doc = tr.call("closedform.IndexReport.to_json_dict", report.to_json_dict)
        return json.dumps(doc, indent=2) + "\n"

    text = tr.call("cli.render", dump)
    if tr.enabled:
        tr.count("cli.render.bytes", len(text))
    return text


def result_of(report):
    return report.exact if report.exact is not None else report.value


def mismatch(got, want, what: str) -> str | None:
    """Equality for two ints, relative error REL_TOL otherwise."""
    if isinstance(got, int) and isinstance(want, int):
        # no str() of the ints: it may exceed the int->str digit limit
        if got == want:
            return None
        return f"{what}: exact values differ ({got.bit_length()} vs {want.bit_length()} bits)"
    try:
        g, w = float(got), float(want)
    except OverflowError:
        return f"{what}: value outside double range on one side only"
    if not (math.isfinite(g) and math.isfinite(w)) or abs(g - w) > REL_TOL * abs(w):
        return f"{what}: {g!r} vs {w!r}"
    return None


def first_problem(problems) -> str | None:
    return next((p for p in problems if p is not None), None)


def params_label(p: sx.IndexParams) -> str:
    return f"{'exact ' if p.exact else ''}alpha={p.alpha:g}"


# -- the oracle cell -------------------------------------------------------------

def oracle_cell(tr, base, variant: str, t: int, params_list) -> dict:
    """Build the expansion and read off everything the closed form claims."""
    _, _, build_name, build = VARIANTS[variant]
    built = tr.call(build_name, build, base, t)
    if tr.enabled:
        tr.count("construct.expansion.vertices", built.n)
        tr.count("construct.expansion.edges", built.m)
    out = {"variant": variant, "t": t, "base": base, "built": built, "pairs": []}
    for p in params_list:
        direct = tr.call("graphs.randic_index", sx.randic_index, built, p)
        if tr.enabled:
            tr.count("graphs.randic_index.edges", built.m)
        out["pairs"].append((p, direct, result_of(closed(tr, base, variant, t, p))))
    if variant == "S":
        out["census_e"] = tr.call("construct.census_edge_classes", sx.census_edge_classes, base, t)
        out["closed_e"] = [
            tr.call("closedform.edge_class_counts", sx.edge_class_counts, base, x, y, t)
            for x, y in base.iter_edges()
        ]
        out["census_v"] = tr.call("construct.census_vertex_classes", sx.census_vertex_classes, base, t)
        out["closed_v"] = [
            tr.call("closedform.vertex_class_counts", sx.vertex_class_counts, base, x, t)
            for x in range(1, base.n + 1)
        ]
    text = tr.call("graphs.render_edge_list", sx.render_edge_list, built)
    out["parsed"] = parse(tr, text)
    return out


def parse(tr, text: str):
    g = tr.call("graphs.parse_edge_list", sx.parse_edge_list, text)
    if tr.enabled:
        tr.count("graphs.parse_edge_list.edges", g.m)
    return g


def check_oracle_cell(out: dict) -> str | None:
    base, built, variant, t = out["base"], out["built"], out["variant"], out["t"]
    where = f"{variant} t={t} n={base.n}"
    problems = [
        None if built.n == vertex_count(base.n, variant, t)
        else f"{where}: built {built.n} vertices",
        None if out["parsed"] == built else f"{where}: edge-list round trip changed the graph",
    ]
    problems += [mismatch(c, d, f"{where} {params_label(p)} closed vs oracle") for p, d, c in out["pairs"]]
    if variant == "S":
        closed_e = [(e.x, e.y, e.as_tuple()) for e in out["closed_e"]]
        census_e = [(e.x, e.y, e.as_tuple()) for e in out["census_e"]]
        closed_v = [(v.x, v.c0, v.c1) for v in out["closed_v"]]
        census_v = [(v.x, v.c0, v.c1) for v in out["census_v"]]
        problems.append(None if closed_e == census_e else f"{where}: edge census differs")
        problems.append(None if closed_v == census_v else f"{where}: vertex census differs")
    return first_problem(problems)


def cli_closed_text(workdir: str, base_text: str, variant: str, t: int, params, breakdown=False):
    """Bytes ``sierpindex closed`` prints for one query, or the exception type
    / exit code it failed with."""
    path = os.path.join(workdir, "base.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(base_text)
    argv = ["closed", path, "--variant", variant, "--t", str(t), f"--alpha={params.alpha!r}"]
    argv += ["--exact"] * params.exact + ["--breakdown"] * breakdown
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except Exception as exc:  # the CLI lets some errors escape as tracebacks
        return f"raised {type(exc).__name__}"
    return stdout.getvalue() if rc == 0 else f"exit {rc}"


def parity_check(tr, workdir, base_text, variant, t, params, breakdown, op_id, label) -> Check:
    """The benchmark's parse -> compute -> render equals the CLI's output."""
    with tr.root("check", op_id):
        try:
            ours = render(tr, closed(tr, parse(tr, base_text), variant, t, params, breakdown))
        except Exception as exc:
            ours = f"raised {type(exc).__name__}"
    theirs = cli_closed_text(workdir, base_text, variant, t, params, breakdown)
    both_failed = not ours.startswith("{") and not theirs.startswith("{")
    ok = ours == theirs or both_failed
    return Check(f"cli parity {label}", None if ok else f"{label}: benchmark and CLI output differ")


# -- workloads ---------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.check_ids = itertools.count()  # op ids of the "check" root spans

    def base_texts(self) -> dict[str, str]:
        """Edge-list text of every base parsed during set-up."""
        raise NotImplementedError

    def prep(self, tr, texts: dict, graphs: dict, workdir: str) -> list[Check]:
        """Checks that run once, before the measured loop."""
        raise NotImplementedError

    def make_pass(self, j: int, tr, graphs: dict) -> list[Op]:
        """Ops of pass ``j``, with their references ready."""
        raise NotImplementedError


FLOAT_HALF = sx.IndexParams(-0.5)
EXACT_ONE = sx.IndexParams(1.0, exact=True)


class Sweep(Workload):
    name = "sweep"

    def _texts(self, j: int) -> dict[str, str]:
        return {
            f"random{n}": random_connected_text([PASS_STREAM, self.seed, j, i], n, m)
            for i, (n, m) in enumerate(self.size.sweep_bases)
        }

    def base_texts(self):
        return self._texts(0)

    def prep(self, tr, texts, graphs, workdir):
        n, m, t = self.size.sweep_oracle
        text = random_connected_text([CHECK_STREAM, self.seed], n, m)
        checks = []
        for variant in "SP":
            with tr.root("check", next(self.check_ids)):
                out = oracle_cell(tr, parse(tr, text), variant, t,
                                  (FLOAT_HALF, sx.IndexParams(1.0), EXACT_ONE))
            checks.append(Check(f"oracle {variant} t={t} on random n={n} m={m}", check_oracle_cell(out)))
        small = next(iter(texts.values()))
        checks.append(parity_check(tr, workdir, small, "S", max(SWEEP_TS), FLOAT_HALF,
                                   True, next(self.check_ids), "S breakdown on the small base"))
        return checks

    def make_pass(self, j, tr, graphs):
        if j > 0:
            graphs = {name: sx.parse_edge_list(text) for name, text in self._texts(j).items()}
        exact_seen: dict = {}
        plain_seen: dict = {}
        ops = []
        for name, base in graphs.items():
            for variant in "SP":
                # exact first: it is the reference for float alpha=1
                for params in (EXACT_ONE, sx.IndexParams(1.0), FLOAT_HALF):
                    ops.append(self._op(base, (name, variant), params, exact_seen, plain_seen))
            ops.append(self._breakdown_op(base, (name, "S", max(SWEEP_TS)), plain_seen))
        return ops

    def _op(self, base, key, params, exact_seen, plain_seen):
        """One t-sweep: the same base, variant and alpha at every level."""
        _, variant = key
        ts = SWEEP_TS

        def run(tr):
            return [closed(tr, base, variant, t, params) for t in ts]

        def check(reports):
            problems = []
            for t, report in zip(ts, reports):
                value = result_of(report)
                if params.exact:
                    exact_seen[key + (t,)] = value
                    problems.append(None if isinstance(value, int) and value > 0
                                    else f"{key} t={t}: bad exact value")
                    continue
                plain_seen[key + (t, params.alpha)] = value
                if params.alpha == 1.0:
                    problems.append(mismatch(value, exact_seen[key + (t,)],
                                             f"{key} t={t} float vs exact alpha=1"))
                else:
                    problems.append(None if math.isfinite(value) and value > 0
                                    else f"{key} t={t}: bad value {value!r}")
            return first_problem(problems)

        return Op(variant, run, check)

    @staticmethod
    def _breakdown_op(base, key, plain_seen):
        _, variant, t = key

        def run(tr):
            report = closed(tr, base, variant, t, FLOAT_HALF, breakdown=True)
            return report, render(tr, report)

        def check(out):
            report, text = out
            return first_problem((
                mismatch(report.value, plain_seen[key + (FLOAT_HALF.alpha,)], f"{key} breakdown vs plain"),
                None if len(report.breakdown.edge_weights) == base.m else f"{key}: breakdown edge count",
                None if f'"value": {json.dumps(report.value)}' in text else f"{key}: rendered value",
            ))

        return Op("S+breakdown", run, check)


ALPHAS_DEEP = (
    sx.IndexParams(-1.0), sx.IndexParams(-0.5), sx.IndexParams(0.5), sx.IndexParams(2.0),
    sx.IndexParams(1.0, exact=True), sx.IndexParams(2.0, exact=True),
)


class DeepLevels(Workload):
    name = "deep_levels"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self._refs: dict = {}  # cell -> [(label, value)]
        self._oracle: dict = {}  # (name, variant, t) -> oracle cell output
        self._cells = None

    def base_texts(self):
        return corpus_texts(CORPUS)

    def cells(self) -> list[tuple[str, str, int, sx.IndexParams]]:
        """Per base, variant and alpha one t at the log-midpoint of each of
        ``deep_strata`` equal strata of [2, DEEP_TMAX], in a seeded order.

        The cell set is the same for every seed and every pass, so the share
        of failing ops is a property of the program, not of the seed or of
        how many passes fit in the run; the seed sets the order."""
        if self._cells is None:
            rng = np.random.default_rng([PASS_STREAM, self.seed])
            strata = self.size.deep_strata
            lo, hi = math.log(2), math.log(DEEP_TMAX)
            out = []
            for name in CORPUS:
                for variant in "SP":
                    for params in ALPHAS_DEEP:
                        for k in range(strata):
                            t = int(math.exp(lo + (k + 0.5) / strata * (hi - lo)))
                            out.append((name, variant, min(max(t, 2), DEEP_TMAX), params))
            self._cells = [out[i] for i in rng.permutation(len(out))]
        return self._cells

    def prep(self, tr, texts, graphs, workdir):
        cells = self.cells()
        rng = np.random.default_rng([CHECK_STREAM, self.seed])
        checks = []
        for i in rng.choice(len(cells), size=6, replace=False).tolist():
            name, variant, t, params = cells[i]
            checks.append(parity_check(tr, workdir, texts[name], variant, t, params, False,
                                       next(self.check_ids), f"{variant} {name} t={t} {params_label(params)}"))
        return checks

    def _family(self, name, variant, t, params):
        fam = CORPUS[name][1 if variant == "S" else 2]
        if fam is None:
            return None
        family, args = fam
        fn = specialized.sierpinski_specialized if variant == "S" else specialized.polymeric_specialized
        try:
            value = fn(family, args, t, float(params.alpha))
            value = value.total if isinstance(value, sx.PolymericParts) else value
        except OverflowError:
            return None
        return value if math.isfinite(value) else None

    def _references(self, tr, graphs, cell) -> list[tuple[str, Any]]:
        name, variant, t, params = cell
        base = graphs[name]
        refs = []
        family = self._family(name, variant, t, params)
        if family is not None:
            refs.append(("family formula", family))
        if float(params.alpha).is_integer() and params.alpha >= 1:
            other = sx.IndexParams(params.alpha, exact=not params.exact)
            with tr.root("check", next(self.check_ids)):
                try:
                    twin = result_of(closed(tr, base, variant, t, other))
                except OverflowError:
                    twin = math.inf  # the float twin is out of double range
            if isinstance(twin, int) or math.isfinite(twin):
                refs.append(("float/exact agreement", twin))
        if vertex_count(base.n, variant, t) <= self.size.deep_oracle_vertices:
            key = (name, variant, t)
            if key not in self._oracle:
                with tr.root("check", next(self.check_ids)):
                    out = oracle_cell(tr, base, variant, t, ALPHAS_DEEP)
                problem = check_oracle_cell(out)
                self._oracle[key] = ({p: d for p, d, _ in out["pairs"]}, problem)
            directs, problem = self._oracle[key]
            refs.append(("oracle", problem or directs[params]))
        return refs

    def make_pass(self, j, tr, graphs):
        ops = []
        for cell in self.cells():
            if cell not in self._refs:
                self._refs[cell] = self._references(tr, graphs, cell)
            ops.append(self._op(graphs[cell[0]], cell, self._refs[cell]))
        return ops

    @staticmethod
    def _op(base, cell, refs):
        name, variant, t, params = cell

        def run(tr):
            report = closed(tr, base, variant, t, params)
            return report, render(tr, report)

        def check(out):
            report, text = out
            value = result_of(report)
            where = f"{variant} {name} t={t} {params_label(params)}"
            problems = [
                invalid_value(report),
                None if report.t == t and text.endswith("}\n") else f"{where}: report/render",
            ]
            for label, ref in refs:
                if isinstance(ref, str):  # the oracle cell itself disagreed with the closed form
                    problems.append(f"{where}: {ref}")
                else:
                    problems.append(mismatch(value, ref, f"{where} vs {label}"))
            return first_problem(problems)

        return Op(variant, run, check)


class OracleVerify(Workload):
    name = "oracle_verify"
    NAMES = ("K4", "demo7", "C6", "K2_3")

    def base_texts(self):
        return corpus_texts(self.NAMES)

    def _largest_t(self, n, variant, limit):
        t = 1
        while vertex_count(n, variant, t + 1) <= limit:
            t += 1
        return t

    def cells(self, graphs):
        out = []
        for name in self.NAMES:
            n = graphs[name].n
            out.append((name, "S", self._largest_t(n, "S", self.size.oracle_s_vertices)))
            out.append((name, "P", self._largest_t(n, "P", self.size.oracle_p_vertices)))
        return out

    def prep(self, tr, texts, graphs, workdir):
        cells = self.cells(graphs)
        rng = np.random.default_rng([CHECK_STREAM, self.seed])
        name, variant, t = cells[int(rng.integers(len(cells)))]
        return [parity_check(tr, workdir, texts[name], variant, t, FLOAT_HALF, False,
                             next(self.check_ids), f"{variant} {name} t={t}")]

    def make_pass(self, j, tr, graphs):
        return [
            Op(variant, lambda tr, b=graphs[name], v=variant, t=t:
               oracle_cell(tr, b, v, t, (FLOAT_HALF, EXACT_ONE)), check_oracle_cell)
            for name, variant, t in self.cells(graphs)
        ]


WORKLOADS = {w.name: w for w in (Sweep, DeepLevels, OracleVerify)}
