"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.
"""

import math
import time

import networkx as nx
import pytest

import sierpindex as sx
from sierpindex import cli
from sierpindex.specialized import DISPUTED_PRINTS

from conftest import ALPHAS, TRIANGLE_FREE, build_corpus
from disputed_prints import bounds_envelope_printed, sierpinski_regular_printed

TOL = 1e-9


def _close(a, b, tol=TOL):
    return abs(a - b) <= max(tol * abs(b), 1e-12)


def _passed(num, label):
    print(f"\nACCEPTANCE {num} ({label}): PASS")


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.iter_edges())
    return G


def test_criterion_1_counter_exactness():
    start = time.perf_counter()
    corpus = build_corpus()
    cells = 0
    for name, g in corpus.items():
        for t in (2, 3):
            for census in sx.census_edge_classes(g, t):
                closed = sx.edge_class_counts(g, census.x, census.y, t)
                assert closed.as_tuple() == census.as_tuple(), (name, t, census)
                cells += 1
            for census in sx.census_vertex_classes(g, t):
                closed = sx.vertex_class_counts(g, census.x, t)
                assert (closed.c0, closed.c1) == (census.c0, census.c1), (name, t, census)
                cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"counter sweep took {elapsed:.1f}s"
    assert cells > 200
    _passed(1, f"counter exactness, {cells} cells in {elapsed:.2f}s")


def test_criterion_2_expansion_oracle_equivalence():
    corpus = build_corpus()
    for name, g in corpus.items():
        for t in (2, 3):
            built = sx.sierpinski_graph(g, t)
            for alpha in ALPHAS:
                closed = sx.sierpinski_randic(g, t, alpha).value
                oracle = sx.randic_index(built, alpha)
                assert _close(closed, oracle), (name, t, alpha, closed, oracle)
    # known closed values
    assert _close(sx.sierpinski_randic(corpus["K3"], 2, -0.5).value, 2 + math.sqrt(6))
    for t in (2, 3, 4, 5):
        want = {a: 2 ** (a + 1) + (2 ** t - 3) * 2 ** (2 * a) for a in ALPHAS}
        for alpha in ALPHAS:
            assert _close(sx.sierpinski_randic(corpus["K2"], t, alpha).value, want[alpha])
    _passed(2, "expansion closed form vs construction")


def test_criterion_3_polymeric_oracle_equivalence():
    corpus = build_corpus()
    for name, g in corpus.items():
        for t in (1, 2, 3):
            built = sx.polymeric_graph(g, t)
            for alpha in ALPHAS:
                closed = sx.polymeric_randic(g, t, alpha).value
                oracle = sx.randic_index(built, alpha)
                assert _close(closed, oracle), (name, t, alpha, closed, oracle)
    # the two level-2 identities hold structurally and numerically
    assert nx.is_isomorphic(to_nx(sx.polymeric_graph(corpus["K2"], 2)),
                            to_nx(sx.sierpinski_graph(corpus["K3"], 2)))
    assert nx.is_isomorphic(to_nx(sx.polymeric_graph(corpus["K3"], 2)),
                            to_nx(sx.sierpinski_graph(corpus["K4"], 2)))
    for alpha in ALPHAS:
        assert _close(sx.polymeric_randic(corpus["K2"], 2, alpha).value,
                      sx.sierpinski_randic(corpus["K3"], 2, alpha).value)
        assert _close(sx.polymeric_randic(corpus["K3"], 2, alpha).value,
                      sx.sierpinski_randic(corpus["K4"], 2, alpha).value)
    _passed(3, "polymeric closed form vs construction")


def test_criterion_4_specialization_consistency():
    corpus = build_corpus()
    regular = {"K2": (2, 1, 0), "K3": (3, 2, 1), "K4": (4, 3, 4), "K5": (5, 4, 10),
               "C4": (4, 2, 0), "C5": (5, 2, 0), "C6": (6, 2, 0)}
    semiregular = {"K1_3": (1, 3, 3, 1), "K2_3": (2, 3, 3, 2), "C4": (2, 2, 2, 2)}
    checked = 0
    for t in (2, 3):
        for alpha in ALPHAS:
            for name, (n, d, tau) in regular.items():
                want = sx.sierpinski_randic(corpus[name], t, alpha).value
                assert _close(sx.sierpinski_regular(n, d, tau, t, alpha), want)
                parts = sx.polymeric_regular(n, d, tau, t, alpha)
                assert _close(parts.total, sx.polymeric_randic(corpus[name], t, alpha).value)
                checked += 2
            for n in (2, 3, 4, 5):
                key = f"K{n}"
                assert _close(sx.sierpinski_complete(n, t, alpha),
                              sx.sierpinski_randic(corpus[key], t, alpha).value)
                assert _close(sx.polymeric_complete(n, t, alpha).total,
                              sx.polymeric_randic(corpus[key], t, alpha).value)
                checked += 2
            for n in (4, 5, 6):
                assert _close(sx.sierpinski_cycle(n, t, alpha),
                              sx.sierpinski_randic(corpus[f"C{n}"], t, alpha).value)
                checked += 1
            assert _close(sx.sierpinski_star(3, t, alpha),
                          sx.sierpinski_randic(corpus["K1_3"], t, alpha).value)
            for n in (2, 3, 4, 5):
                assert _close(sx.sierpinski_path(n, t, alpha),
                              sx.sierpinski_randic(corpus[f"P{n}"] if n > 2 else corpus["K2"], t, alpha).value)
                checked += 1
            for name, quad in semiregular.items():
                assert _close(sx.sierpinski_semiregular(*quad, t, alpha),
                              sx.sierpinski_randic(corpus[name], t, alpha).value)
                checked += 1
    for alpha in ALPHAS:
        for name, (n, d, tau) in regular.items():
            assert _close(sx.polymeric_level1_regular(n, d, alpha),
                          sx.polymeric_randic(corpus[name], 1, alpha).value)
        for n in (2, 3, 4, 5):
            assert _close(sx.polymeric_level1_complete(n, alpha),
                          sx.polymeric_randic(corpus[f"K{n}"], 1, alpha).value)
        for name, quad in semiregular.items():
            assert _close(sx.polymeric_level1_semiregular(*quad, alpha),
                          sx.polymeric_randic(corpus[name], 1, alpha).value)
        checked += 11

    # the typo detector must not be silent: every disputed print is documented
    # with its diverging term AND demonstrably diverges from the oracle-backed form
    assert DISPUTED_PRINTS["sierpinski_regular"]["term"]
    printed = sierpinski_regular_printed(3, 2, 1, 2, -0.5)
    true_value = sx.sierpinski_randic(corpus["K3"], 2, -0.5).value
    assert not _close(printed, true_value)
    assert DISPUTED_PRINTS["sierpinski_randic_bounds"]["term"]
    lo_p, hi_p = bounds_envelope_printed(corpus["C4"], 2, 1.0)
    assert not _close(lo_p, sx.sierpinski_randic(corpus["C4"], 2, 1.0).value)
    _passed(4, f"specialization consistency, {checked} comparisons + "
               f"{len(DISPUTED_PRINTS)} documented print discrepancies")


def test_criterion_5_bounds():
    corpus = build_corpus()
    for name in TRIANGLE_FREE:
        g = corpus[name]
        regular = sx.degree_profile(g).is_regular
        for t in (2, 3):
            for alpha in (-0.5, 1.0):
                lo, hi = sx.sierpinski_randic_bounds(g, t, alpha)
                value = sx.sierpinski_randic(g, t, alpha).value
                slack = max(1e-12 * abs(value), 1e-12)
                assert lo <= value + slack <= hi + 2 * slack, (name, t, alpha)
                if regular:
                    assert _close(lo, value) and _close(hi, value), (name, t, alpha)
    for name in ("C4", "C6"):
        for t in (2, 3):
            for alpha in (-0.5, 1.0):
                lo, hi = sx.sierpinski_randic_bounds(corpus[name], t, alpha)
                value = sx.sierpinski_randic(corpus[name], t, alpha).value
                assert _close(lo, value) and _close(hi, value)
    for name in ("K1_3", "P4"):
        for t in (2, 3):
            for alpha in (-0.5, 1.0):
                lo, hi = sx.sierpinski_randic_bounds(corpus[name], t, alpha)
                value = sx.sierpinski_randic(corpus[name], t, alpha).value
                assert value - lo > 1e-6 and hi - value > 1e-6, (name, t, alpha)
    _passed(5, "triangle-free bounds: sandwich, regular equality, irregular strictness")


def test_criterion_6_exact_alpha_one():
    corpus = build_corpus()
    exact_one = sx.IndexParams(1, exact=True)
    for name, g in corpus.items():
        for t in (2, 3):
            closed = sx.sierpinski_randic(g, t, exact_one).exact
            built = sx.randic_index(sx.sierpinski_graph(g, t), exact_one)
            assert closed == built, (name, t)
    k5 = corpus["K5"]
    best = None
    for _ in range(5):
        start = time.perf_counter_ns()
        report = sx.sierpinski_randic(k5, 100, exact_one)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    assert report.exact > 10 ** 40
    assert best < 10_000_000, f"K5 t=100 exact took {best / 1e6:.2f} ms"
    _passed(6, f"exact alpha=1 equality; K5 t=100 closed form in {best / 1e6:.3f} ms")


def test_criterion_7_scaling_benchmark(tmp_path, capsys):
    base = sx.complete_graph(3)
    path = tmp_path / "k3.txt"
    path.write_text(sx.render_edge_list(base))
    csv = tmp_path / "bench.csv"
    budget = 20_000  # refuses construction at 3**t > budget, i.e. t >= 10
    rc = cli.main(["bench", str(path), "--variant", "S", "--t", "2..50",
                   "--alpha", "-0.5", "--budget", str(budget), "--out", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "variant,t,closed_ns,construct_ns,vertices,edges"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 49
    for r in rows:
        t = int(r[1])
        assert int(r[2]) > 0  # closed-form timing present at every t
        assert int(r[4]) == 3 ** t
        if 3 ** t <= budget:
            assert int(r[3]) > 0
        else:
            assert r[3] == "skipped: budget"
    assert sum(r[3] == "skipped: budget" for r in rows) == 41  # t = 10..50 refused

    # growth guard: best-of-five closed evaluations stay near-flat in t; an
    # exponential evaluator could never satisfy the cap at t = 50
    def best_of(t):
        best = None
        for _ in range(5):
            start = time.perf_counter_ns()
            sx.sierpinski_randic(base, t, -0.5)
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best

    floor = 20_000  # ns; guard against noise on a near-zero baseline
    baseline = max(min(best_of(t) for t in (2, 3, 4, 5)), floor)
    top = max(best_of(t) for t in (48, 49, 50))
    assert top <= 40 * baseline, f"closed form slowed down: {baseline} ns -> {top} ns"
    assert top < 10_000_000  # and stays far below 10 ms outright
    _passed(7, f"scaling: 41 constructions refused, closed form {baseline}..{top} ns over t=2..50")
