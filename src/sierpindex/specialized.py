"""Family-specific closed forms for the expansion indices.

Each function evaluates a reduced formula for one base family (complete,
cycle, star, path, regular, bipartite semiregular). The test suite checks
every formula against the general evaluators and against explicit
construction; :data:`DISPUTED_PRINTS` records the circulating formula
variants that fail that audit, together with the diverging term.
"""

from __future__ import annotations

import math
import operator

from .closedform import PolymericParts, _int_ratio
from .construct import _int_arg, repunit
from .graphs import IndexParams

#: Formula variants seen in print that do not survive the construction-oracle
#: audit. Keys name the corrected public function; values identify the exact
#: diverging term and a small witness. The corrected forms below are the ones
#: validated against the general evaluators in the test suite.
DISPUTED_PRINTS: dict[str, dict[str, str]] = {
    "sierpinski_regular": {
        "term": "coefficient of the mixed degree class d**alpha * (d+1)**alpha",
        "corrected": "(n**(t-1) - n*repunit(n, t-2)) * d**2 - 6 * n**(t-2) * triangles",
        "printed": "(n**(t-1) + repunit(n, t-1)) * d**2 - 6 * n**(t-2) * triangles",
        "witness": "triangle base (n=3, d=2, triangles=1, t=2): census gives 6 mixed copies, the printed coefficient gives 10",
    },
    "sierpinski_randic_bounds": {
        "term": "all three envelope groups",
        "corrected": "lead*(n-2*d_out)*R + (lead*d_in - d_out*rep)*(2R + e*M) + (lead+(2*d_in+1)*rep)*(R + e*M + m*e**2)",
        "printed": "lead*(n-d_out)*R + 2*(lead*d_in - d_out*rep)*(R + e*M) + (lead+(2*d_in+1)*rep)*(R + 2*e*M) + (lead+(2*d_in+1)*rep)*m*e**2",
        "witness": "4-cycle at t=2, alpha=1: printed envelope gives 212 on both sides, the built value is 132; the corrected envelope collapses to 132 as the regular case requires",
    },
}


# -- plain expansion families --------------------------------------------------

def sierpinski_regular(n: int, degree: int, triangles: int, t: int, alpha: float) -> float:
    """Index of the level-``t`` expansion of a ``degree``-regular base with
    ``triangles`` triangles (corrected mixed-class coefficient, see
    :data:`DISPUTED_PRINTS`)."""
    n, d = _check_regular(n, degree)
    triangles, t = _check_triangles(n, d, triangles), _int_arg(t, 2)
    IndexParams(alpha)
    psi1, psi2 = repunit(n, t - 1), repunit(n, t - 2)
    lead = n ** (t - 2)
    same = _int_ratio(n ** (t - 1) * d * (n - 2 * d), 2) + 3 * lead * triangles
    mixed = (n ** (t - 1) - n * psi2) * d * d - 6 * lead * triangles
    bumped = _int_ratio(n * d * psi1, 2) + n * d * d * psi2 + 3 * lead * triangles
    return math.fsum(
        (
            same * d ** (2 * alpha),
            mixed * d ** alpha * (d + 1) ** alpha,
            bumped * (d + 1) ** (2 * alpha),
        )
    )


def sierpinski_complete(n: int, t: int, alpha: float) -> float:
    """Complete base on ``n`` vertices, ``n >= 2``."""
    n, t = _int_arg(n, 2, "n"), _int_arg(t, 2)
    IndexParams(alpha)
    return n ** (alpha + 1) * (n - 1) ** (alpha + 1) + (
        n ** (2 * alpha + t + 1) - 2 * n ** (2 * alpha + 2) + n ** (2 * alpha + 1)
    ) / 2


def sierpinski_cycle(n: int, t: int, alpha: float) -> float:
    """Cycle base, ``n >= 4`` (the 3-cycle is the complete graph on 3)."""
    n, t = _int_arg(n, 4, "n"), _int_arg(t, 2)
    IndexParams(alpha)
    psi1, psi2 = repunit(n, t - 1), repunit(n, t - 2)
    return math.fsum(
        (
            4 ** alpha * n ** (t - 1) * (n - 4),
            4 * 6 ** alpha * (n ** (t - 1) - n * psi2),
            9 ** alpha * n * (psi1 + 4 * psi2),
        )
    )


def sierpinski_semiregular(n1: int, n2: int, d1: int, d2: int, t: int, alpha: float) -> float:
    """Bipartite base with uniform part degrees ``d1`` / ``d2``."""
    n1, n2, d1, d2 = _check_semiregular(n1, n2, d1, d2)
    t = _int_arg(t, 2)
    IndexParams(alpha)
    n = n1 + n2
    lead, psi2 = n ** (t - 2), repunit(n, t - 2)
    return math.fsum(
        (
            n1 * lead * d1 ** (alpha + 1) * d2 ** alpha * (n - d1 - d2),
            n1 * d1 ** (alpha + 1) * (d2 + 1) ** alpha * (d2 * lead - d1 * psi2),
            n2 * (d1 + 1) ** alpha * d2 ** (alpha + 1) * (d1 * lead - d2 * psi2),
            n1 * d1 * (d1 + 1) ** alpha * (d2 + 1) ** alpha * (lead + (d1 + d2 + 1) * psi2),
        )
    )


def sierpinski_star(r: int, t: int, alpha: float) -> float:
    """Star base with ``r >= 2`` leaves."""
    r, t = _int_arg(r, 2, "r"), _int_arg(t, 2)
    IndexParams(alpha)
    return math.fsum(
        (
            (r + 1) ** alpha * ((r + 1) ** (t - 1) * (r - 1) + 1),
            2 ** alpha * r ** (alpha + 1),
            (2 * (r + 1)) ** alpha * (2 * (r + 1) ** (t - 1) - r - 2),
        )
    )


def sierpinski_path(n: int, t: int, alpha: float) -> float:
    """Path base on ``n >= 2`` vertices (two-term form for ``n = 2``)."""
    n, t = _int_arg(n, 2, "n"), _int_arg(t, 2)
    IndexParams(alpha)
    if n == 2:
        return 2 ** (alpha + 1) + (2 ** t - 3) * 2 ** (2 * alpha)
    lead, psi2 = n ** (t - 2), repunit(n, t - 2)
    return math.fsum(
        (
            2 ** alpha * lead * (n - 3) * (2 ** alpha * n - 2 ** (alpha + 2) + 2),
            3 ** alpha * (2 ** (alpha + 2) * (n - 3) * (lead - psi2) + 4 * lead - 2 * psi2),
            2 ** (2 * alpha + 1) * (lead - 2 * psi2),
            3 ** alpha
            * (3 ** alpha * (n - 3) * (lead + 5 * psi2) + 2 ** (alpha + 1) * (lead + 4 * psi2)),
        )
    )


# -- polymeric families ---------------------------------------------------------

def polymeric_level1_regular(n: int, degree: int, alpha: float) -> float:
    """Level-1 polymeric index for a ``degree``-regular base."""
    n, d = _check_regular(n, degree)
    IndexParams(alpha)
    return n ** (alpha + 1) * (d + 1) ** alpha + n * d * (d + 1) ** (2 * alpha) / 2


def polymeric_level1_complete(n: int, alpha: float) -> float:
    n = _int_arg(n, 2, "n")
    IndexParams(alpha)
    return n ** (2 * alpha + 1) * (n + 1) / 2


def polymeric_level1_semiregular(n1: int, n2: int, d1: int, d2: int, alpha: float) -> float:
    n1, n2, d1, d2 = _check_semiregular(n1, n2, d1, d2)
    IndexParams(alpha)
    n = n1 + n2
    return n ** alpha * (n1 * (d1 + 1) ** alpha + n2 * (d2 + 1) ** alpha) + n1 * d1 * (
        (d1 + 1) * (d2 + 1)
    ) ** alpha


def polymeric_regular(n: int, degree: int, triangles: int, t: int, alpha: float) -> PolymericParts:
    """Seven-part polymeric index for a ``degree``-regular base, ``t >= 2``."""
    n, d = _check_regular(n, degree)
    tau, t = _check_triangles(n, d, triangles), _int_arg(t, 2)
    IndexParams(alpha)
    psi1, psi2 = repunit(n, t - 1), repunit(n, t - 2)
    lead = n ** (t - 2)
    hubp = (n + 1) ** alpha
    p1, p2, p3 = (d + 1) ** alpha, (d + 2) ** alpha, (d + 3) ** alpha
    # telescoped level sums, exactly integral
    mid_hub = _int_ratio(t - 2 - n * psi2, 1 - n)     # sum_{i=2..t-1} repunit(i-1)
    mid_copy = _int_ratio(t - 2 - psi2, 1 - n)        # sum_{i=2..t-1} repunit(i-2)
    links = _int_ratio(t - 1 - psi1, 1 - n)           # sum_{i=1..t-1} repunit(i-1)

    hub_root = n ** (alpha + 1) * p2
    first_copy = _int_ratio(n * d, 2) * p2 * p2
    hub_mid = hubp * (n * n * psi2 * p2 + n * d * mid_hub * (p3 - p2))
    copies_mid = math.fsum(
        (
            p2 * p2 * psi2 * (_int_ratio(n * d * (n - 2 * d), 2) + 3 * tau),
            p2 * p3 * ((n * d * d - 6 * tau) * psi2 - n * d * d * mid_copy),
            p3 * p3 * ((3 * tau + _int_ratio(n * d, 2)) * psi2 + _int_ratio(n * d * (2 * d + 1), 2) * mid_copy),
        )
    )
    level_links = hubp * (n * psi1 * p2 + n * d * links * (p3 - p2))
    hub_top = hubp * (p1 * (n ** t - n * d * psi1) + n * d * psi1 * p2)
    copies_top = math.fsum(
        (
            p1 * p1 * lead * (_int_ratio(n * d * (n - 2 * d), 2) + 3 * tau),
            p1 * p2 * (d * d * (n ** (t - 1) - n * psi2) - 6 * lead * tau),
            p2 * p2 * (_int_ratio(n * d * psi1, 2) + n * d * d * psi2 + 3 * lead * tau),
        )
    )
    return PolymericParts(hub_root, first_copy, hub_mid, copies_mid, level_links, hub_top, copies_top)


def polymeric_complete(n: int, t: int, alpha: float) -> PolymericParts:
    """Seven-part polymeric index for a complete base, ``t >= 2``."""
    n, t = _int_arg(n, 2, "n"), _int_arg(t, 2)
    IndexParams(alpha)
    psi1, psi2 = repunit(n, t - 1), repunit(n, t - 2)
    q1, q2 = (n + 1) ** alpha, (n + 1) ** (2 * alpha)
    r1 = (n + 2) ** alpha
    return PolymericParts(
        n ** (alpha + 1) * q1,
        _int_ratio(n * (n - 1), 2) * q2,
        n * (t - 2) * q2 + n * q1 * r1 * (2 + n * psi2 - t),
        (t - 2) * n * (n - 1) * q1 * r1
        + (n + 2) ** (2 * alpha) * _int_ratio(n ** 3 * psi2 + (t - 2) * (n - 2 * n * n), 2),
        (t - 1) * n * q2 + n * q1 * r1 * (psi1 - (t - 1)),
        n ** (alpha + 1) * q1 + (n ** t - n) * q2,
        (n - 1) * n ** (alpha + 1) * q1 + _int_ratio(n ** (t + 1) - 2 * n * n + n, 2) * q2,
    )


# -- dispatchers -----------------------------------------------------------------

_SIERPINSKI_DISPATCH = {
    "complete": sierpinski_complete,
    "cycle": sierpinski_cycle,
    "star": sierpinski_star,
    "path": sierpinski_path,
    "regular": sierpinski_regular,
    "semiregular": sierpinski_semiregular,
}


def sierpinski_specialized(family: str, params: tuple, t: int, alpha: float) -> float:
    """Dispatch to a family formula: ``complete | cycle | star | path |
    regular | semiregular`` with family-specific ``params``."""
    try:
        fn = _SIERPINSKI_DISPATCH[family]
    except KeyError:
        raise ValueError(f"no specialized formula for family {family!r}") from None
    return fn(*params, t, alpha)


_POLYMERIC_LEVEL1_DISPATCH = {
    "complete": polymeric_level1_complete,
    "regular": polymeric_level1_regular,
    "semiregular": polymeric_level1_semiregular,
}

_POLYMERIC_DISPATCH = {"complete": polymeric_complete, "regular": polymeric_regular}


def polymeric_specialized(family: str, params: tuple, t: int, alpha: float) -> float | PolymericParts:
    """Dispatch to a polymeric family formula; level 1 returns a plain value,
    higher levels return the seven-part split."""
    t = _int_arg(t, 1)
    table = _POLYMERIC_LEVEL1_DISPATCH if t == 1 else _POLYMERIC_DISPATCH
    try:
        fn = table[family]
    except KeyError:
        raise ValueError(f"no level-{t} polymeric formula for family {family!r}") from None
    return fn(*params, alpha) if t == 1 else fn(*params, t, alpha)


def _check_regular(n: int, degree: int) -> tuple[int, int]:
    n, degree = _int_arg(n, 2, "n"), _int_arg(degree, 1, "degree")
    if degree > n - 1 or (n * degree) % 2:
        raise ValueError("not a valid regular degree profile")
    return n, degree


def _check_triangles(n: int, d: int, triangles: int) -> int:
    """``triangles`` as an int, refused when no ``d``-regular graph on ``n``
    vertices has that many. Two rules hold for the base and for its complement,
    which is ``(n-1-d)``-regular with ``C(n, 3) - n*d*(n-1-d)/2 - triangles``
    triangles (Goodman's identity): an edge's triangles (common neighbours) lie
    in ``[2d - n, d - 1]``, so no class count is < 0; and a 2-regular graph is
    disjoint cycles, its triangles 3-cycles and every other cycle on at least
    4 vertices. The rules are exact unless ``3 <= d <= n - 4``, where they are
    only necessary."""
    triangles = operator.index(triangles)
    complement = math.comb(n, 3) - n * d * (n - 1 - d) // 2 - triangles
    for k, tri in ((d, triangles), (n - 1 - d, complement)):
        bounded = max(0, n * k * (2 * k - n)) <= 6 * tri <= n * k * (k - 1)
        if not bounded or k == 2 and n - 3 * tri in (1, 2, 3):
            raise ValueError(f"{triangles} triangles is impossible for a {d}-regular base on {n} vertices")
    return triangles


def _check_semiregular(n1: int, n2: int, d1: int, d2: int) -> tuple[int, int, int, int]:
    n1, n2 = _int_arg(n1, 1, "n1"), _int_arg(n2, 1, "n2")
    d1, d2 = _int_arg(d1, 1, "d1"), _int_arg(d2, 1, "d2")
    if d1 > n2 or d2 > n1 or n1 * d1 != n2 * d2:
        raise ValueError("not a valid bipartite semiregular degree profile")
    return n1, n2, d1, d2
