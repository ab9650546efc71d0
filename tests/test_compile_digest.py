"""The integers :func:`sierpindex.compile_index` produces, pinned by one digest.

The bases are the 13 corpus bases; seeded random bases on both sides of the
triangle kernels' edge-count switch, at 80 edges (where it was) and at 96
(where it is); one the size of the larger ``sweep`` base; and seeded small
graphs, many with isolated vertices or several components. For each base,
both variants and nine exponents, the digest takes ``parts``, ``total``,
``level1``, ``den`` and the weights of the compiled form, or the refusal's
type and message in its place. A change to how a base is counted or weighed
that moves any of these integers fails here.
"""

import hashlib
import random
from itertools import combinations

import sierpindex as sx

from conftest import build_corpus, random_graph

#: sha256 of every compiled form below, computed before the small-base count-and-weigh rewrite
DIGEST = "1a53a2447f4a965a45d04413fc5a31c31ba950a6f074a00603e7c1953943c8ce"

PARAMS = (-300.0, -1.0, -0.5, 0.5, 2.0, 300.0, *(sx.IndexParams(a, exact=True) for a in (1, 2, 3)))


def seeded_small_graphs(count: int = 40, max_n: int = 9) -> list[sx.Graph]:
    """Graphs as ``small_graphs()`` draws them: 2 to ``max_n`` vertices and any
    nonempty edge set of any density, so that many have isolated vertices."""
    rng = random.Random(17)
    out = []
    for _ in range(count):
        n, density = rng.randint(2, max_n), rng.random()
        pool = list(combinations(range(1, n + 1), 2))
        out.append(sx.Graph(n, [e for e in pool if rng.random() < density] or [rng.choice(pool)]))
    return out


def bases() -> list[sx.Graph]:
    kernel = [random_graph(seed, n, m) for seed, n, m in ((1, 20, 80), (2, 20, 81), (1, 20, 96), (2, 20, 97),
                                                           (3, 400, 2000))]
    return [*build_corpus().values(), *kernel, *seeded_small_graphs()]


def compiled(base: sx.Graph, variant: str, params) -> str:
    try:
        form = sx.compile_index(base, params, variant)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((form.parts, form.total, form.level1, form.den, sorted(form.weights.items())))


def digest() -> str:
    h = hashlib.sha256()
    for base in bases():
        for variant in "SP":
            for params in PARAMS:
                h.update(compiled(base, variant, params).encode())
                h.update(b"\n")
    return h.hexdigest()


def test_every_compiled_integer_is_unchanged():
    assert digest() == DIGEST
