"""Command-line front end: argument parsing, I/O and the exit table.

Subcommands: ``gen`` (named families), ``expand`` (explicit construction),
``closed`` (closed-form index), ``direct`` (index of an explicit graph),
``verify`` (closed form vs construction sweep; nonzero exit on mismatch) and
``bench`` (closed form vs construction timings, CSV). Sizes, the budget check
and every refusal's text come from the library.

The vertex budget comes from ``--budget`` when given, else from the
``SIERPINDEX_VERTEX_BUDGET`` environment variable, else the built-in default.
Exit codes: 0 ok, 1 verify mismatch, 2 bad input, 3 vertex budget exceeded,
4 result out of double range.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import suppress
from typing import Callable, NamedTuple

from . import closedform, construct, graphs
from .graphs import GraphError

_ENV_BUDGET = "SIERPINDEX_VERTEX_BUDGET"


class _Variant(NamedTuple):
    build: Callable  # (base, t, budget) -> Graph
    labels: Callable  # (base, t) -> one label per vertex id


_VARIANTS = {
    "S": _Variant(construct.sierpinski_graph, construct.vertex_labels),
    "P": _Variant(construct.polymeric_graph, construct.polymeric_vertex_labels),
}


def _load_graph(path: str) -> graphs.Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graphs.parse_edge_list(fh.read())


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(_ENV_BUDGET)
    with suppress(ValueError):
        return int(env) if env else construct.DEFAULT_VERTEX_BUDGET
    raise ValueError(f"{_ENV_BUDGET} must be an integer, got {env!r}")


def _parse_t_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    with suppress(ValueError):  # a level below 1 is refused where it is used
        if out := range(int(lo), int(hi) + 1) if sep else range(int(text), int(text) + 1):
            return out
    raise ValueError(f"bad t range {text!r}")


def _json_text(doc) -> str:
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # with finite alpha, only an overflowed float is non-finite
        raise OverflowError(str(exc)) from None


# -- subcommand handlers -------------------------------------------------------

def _cmd_gen(args) -> int:
    g = graphs.generate_family(args.family, args.params)
    _write_out(graphs.render_edge_list(g), args.out)
    return 0


def _cmd_expand(args) -> int:
    base = _load_graph(args.graph)
    variant = _VARIANTS[args.variant]
    g = variant.build(base, args.t, _budget(args))
    labels = variant.labels(base, args.t) if args.labels else None
    _write_out(graphs.render_edge_list(g), args.out)
    if labels is not None:
        with open(args.labels, "w", encoding="utf-8") as fh:
            fh.writelines(f"{vid}\t{label}\n" for vid, label in enumerate(labels, 1))
    return 0


def _cmd_closed(args) -> int:
    base = _load_graph(args.graph)
    params = graphs.IndexParams(args.alpha, exact=args.exact)
    report = closedform.compile_index(base, params, args.variant).at(args.t, args.breakdown)
    _write_out(_json_text(report.to_json_dict()), args.out)
    return 0


def _cmd_direct(args) -> int:
    if args.degree_sum and args.exact:
        raise ValueError("--exact applies to the randic index only, not to --degree-sum")
    g = _load_graph(args.graph)
    if args.degree_sum:
        index, value = "degree_power_sum", graphs.degree_power_sum(g, args.alpha)
    else:
        index, value = "randic", graphs.randic_index(g, graphs.IndexParams(args.alpha, exact=args.exact))
    doc = {"index": index, "alpha": args.alpha, "value": closedform._float_or_none(value)}
    if args.exact:
        doc["exact"] = str(value)
    _write_out(_json_text(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    budget = _budget(args)
    variants = sorted(set(args.variant or _VARIANTS))
    # every alpha is an IndexParams, and so checked, before the first build
    alphas = [graphs.IndexParams(alpha).alpha for alpha in sorted(set(args.alpha or [-1.0, -0.5, 0.5, 1.0, 2.0]))]
    ts = _parse_t_range(args.t)

    cells = []
    for path in sorted(set(args.graphs)):
        base = _load_graph(path)
        for variant in variants:
            forms = None  # one count table, weighed per alpha, after the first build has passed the budget
            for t in ts:
                built = _VARIANTS[variant].build(base, t, budget)
                if forms is None:
                    table = closedform.count_table(base, variant)
                    forms = {alpha: table.weigh(alpha) for alpha in alphas}
                for alpha in alphas:
                    closed = forms[alpha].at(t).value
                    oracle = graphs.randic_index(built, alpha)
                    cells.append(
                        {
                            "graph": path,
                            "variant": variant,
                            "t": t,
                            "alpha": alpha,
                            "closed": closed,
                            "oracle": oracle,
                            "pass": closed == oracle,
                        }
                    )

    failed = sum(not c["pass"] for c in cells)
    header = f"{'graph':<24} {'var':<3} {'t':>3} {'alpha':>7}  {'closed':<24} {'oracle':<24}  status"
    print(header)
    print("-" * len(header))
    for c in cells:
        print(
            f"{c['graph']:<24} {c['variant']:<3} {c['t']:>3} {c['alpha']:>7.3g}  "
            f"{c['closed']!r:<24} {c['oracle']!r:<24}  {'ok' if c['pass'] else 'FAIL'}"
        )
    print(f"{len(cells)} cells: {len(cells) - failed} ok, {failed} failed")
    if args.out:
        doc = {"cells": cells, "passed": len(cells) - failed, "failed": failed, "ok": failed == 0}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(doc))
    return 0 if failed == 0 else 1


def _cmd_bench(args) -> int:
    base = _load_graph(args.graph)
    budget = _budget(args)
    variant = _VARIANTS[args.variant]
    lines = ["variant,t,closed_ns,construct_ns,vertices,edges"]
    for t in _parse_t_range(args.t):
        start = time.perf_counter_ns()  # a whole per-call closed form: compile and evaluate
        closedform.compile_index(base, args.alpha, args.variant).at(t)
        closed_ns = time.perf_counter_ns() - start
        vertices, edges = construct._expansion_size(base.n, base.m, t, args.variant)
        try:  # the builder refuses a level past the budget
            start = time.perf_counter_ns()
            built = variant.build(base, t, budget)
            construct_ns = str(time.perf_counter_ns() - start)
            if (built.n, built.m) != (vertices, edges):
                raise ArithmeticError(f"built {(built.n, built.m)}, expected {(vertices, edges)}")
        except construct.VertexBudgetError:
            construct_ns = "skipped: budget"
        lines.append(f"{args.variant},{t},{closed_ns},{construct_ns},{vertices},{edges}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


# -- parser ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sierpindex",
        description="Degree-product indices of Sierpinski-type and polymeric expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=None,
                       help=f"vertex budget for explicit construction (or ${_ENV_BUDGET})")

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("gen", help="generate a named family member as an edge list")
    p.add_argument("family", choices=sorted(graphs._FAMILIES))
    p.add_argument("params", nargs="*", type=int)
    add_out(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("expand", help="explicitly construct an expansion")
    p.add_argument("graph")
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--labels", default=None, help="also write an 'id<TAB>label' sidecar file")
    add_budget(p)
    add_out(p)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("closed", help="closed-form index of an expansion (JSON)")
    p.add_argument("graph")
    p.add_argument("--variant", choices=tuple(_VARIANTS), required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--breakdown", action="store_true", help="include the term breakdown")
    p.add_argument("--exact", action="store_true", help="exact integers (integer alpha >= 1)")
    add_out(p)
    p.set_defaults(fn=_cmd_closed)

    p = sub.add_parser("direct", help="index of an explicit graph file (JSON)")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--exact", action="store_true", help="exact integers (integer alpha >= 1); not with --degree-sum")
    p.add_argument("--degree-sum", action="store_true",
                   help="sum deg(v)**alpha over vertices instead of the edge index")
    add_out(p)
    p.set_defaults(fn=_cmd_direct)

    p = sub.add_parser("verify", help="sweep closed form against explicit construction")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--variant", action="append", choices=tuple(_VARIANTS))
    p.add_argument("--t", default="2..3", help="level or range, e.g. 2 or 2..3")
    p.add_argument("--alpha", action="append", type=float,
                   help="repeatable; default -1 -0.5 0.5 1 2")
    add_budget(p)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench", help="closed form vs construction timings (CSV)")
    p.add_argument("graph")
    p.add_argument("--variant", choices=tuple(_VARIANTS), default="S")
    p.add_argument("--t", default="2..8", help="level or range, e.g. 2..50")
    p.add_argument("--alpha", type=float, default=-0.5)
    add_budget(p)
    add_out(p)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except construct.VertexBudgetError as exc:  # an OverflowError: must come first
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: out of double range: {exc}", file=sys.stderr)
        return 4
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
