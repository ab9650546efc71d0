"""The family formulas as printed corollaries: per base family, the level-``t``
expansion's edges as exact ``(count, a, b)`` terms, ``count`` edges with end
degrees ``a`` and ``b``; a polymeric level is seven tables, one per
:class:`sierpindex.PolymericParts` field.

They are derived by hand, import nothing from ``sierpindex`` and assume valid
parameters, so they are a reference independent of the package: the test suite
proves each one equal to the count table of the profile that its public family
formula writes, for every parameter value.
"""


def repunit(n: int, k: int) -> int:
    """``1 + n + ... + n**(k-1)``."""
    return (n ** k - 1) // (n - 1)


def ratio(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert not r, f"{num}/{den} is not integral"
    return q


def regular_copies(n: int, d: int, tau: int, lead: int, rep: int, shift: int) -> tuple:
    """Edge copies of a ``d``-regular base with ``tau`` triangles at end degrees
    ``d + shift`` and up: ``lead`` per level, ``rep`` carried over from deeper
    levels (``n**(t-2)`` and ``repunit(n, t-2)`` at level ``t``)."""
    a = d + shift
    return (
        (lead * (ratio(n * d * (n - 2 * d), 2) + 3 * tau), a, a),
        (n * d * d * (lead - rep) - 6 * lead * tau, a, a + 1),
        (lead * (ratio(n * d, 2) + 3 * tau) + rep * ratio(n * d * (2 * d + 1), 2), a + 1, a + 1),
    )


# -- plain expansion families, t >= 2 -------------------------------------------

def sierpinski_regular(n: int, d: int, triangles: int, t: int) -> tuple:
    return (regular_copies(n, d, triangles, n ** (t - 2), repunit(n, t - 2), 0),)


def sierpinski_complete(n: int, t: int) -> tuple:
    return (((n * (n - 1), n - 1, n), (ratio(n ** (t + 1) - 2 * n * n + n, 2), n, n)),)


def sierpinski_cycle(n: int, t: int) -> tuple:
    lead, psi2 = n ** (t - 2), repunit(n, t - 2)
    return (((n * (n - 4) * lead, 2, 2), (4 * n * (lead - psi2), 2, 3), (n * (lead + 5 * psi2), 3, 3)),)


def sierpinski_semiregular(n1: int, n2: int, d1: int, d2: int, t: int) -> tuple:
    n, m = n1 + n2, n1 * d1
    lead, psi2 = n ** (t - 2), repunit(n, t - 2)
    return ((
        (m * (n - d1 - d2) * lead, d1, d2), (m * (d2 * lead - d1 * psi2), d1, d2 + 1),
        (m * (d1 * lead - d2 * psi2), d1 + 1, d2), (m * (lead + (d1 + d2 + 1) * psi2), d1 + 1, d2 + 1)),)


def sierpinski_star(r: int, t: int) -> tuple:
    top = (r + 1) ** (t - 1)
    return ((((r - 1) * top + 1, 1, r + 1), (r, 2, r), (2 * top - r - 2, 2, r + 1)),)


def sierpinski_path(n: int, t: int) -> tuple:
    if n == 2:
        return (((2, 1, 2), (2 ** t - 3, 2, 2)),)
    lead, psi2 = n ** (t - 2), repunit(n, t - 2)
    return ((
        (2 * (n - 3) * lead, 1, 2),
        (4 * lead - 2 * psi2, 1, 3),
        ((n * n - 7 * n + 14) * lead - 4 * psi2, 2, 2),
        ((4 * n - 10) * lead - (4 * n - 20) * psi2, 2, 3),
        ((n - 3) * (lead + 5 * psi2), 3, 3),
    ),)


# -- polymeric families: level 1, then the seven parts at t >= 2 -----------------

def polymeric_level1_regular(n: int, d: int) -> tuple:
    return (((n, n, d + 1), (ratio(n * d, 2), d + 1, d + 1)),)


def polymeric_level1_complete(n: int) -> tuple:
    return (((ratio(n * (n + 1), 2), n, n),),)


def polymeric_level1_semiregular(n1: int, n2: int, d1: int, d2: int) -> tuple:
    n = n1 + n2
    return (((n1, n, d1 + 1), (n2, n, d2 + 1), (n1 * d1, d1 + 1, d2 + 1)),)


def polymeric_regular(n: int, d: int, tau: int, t: int) -> tuple:
    psi1, psi2 = repunit(n, t - 1), repunit(n, t - 2)
    # telescoped level sums, exactly integral
    mid_hub = ratio(t - 2 - n * psi2, 1 - n)     # sum_{i=2..t-1} repunit(i-1)
    mid_copy = ratio(t - 2 - psi2, 1 - n)        # sum_{i=2..t-1} repunit(i-2)
    links = ratio(t - 1 - psi1, 1 - n)           # sum_{i=1..t-1} repunit(i-1)
    nd, hub = n * d, n + 1  # a hub below the root has degree n + 1
    return (
        ((n, n, d + 2),),
        ((ratio(nd, 2), d + 2, d + 2),),
        ((n * n * psi2 - nd * mid_hub, hub, d + 2), (nd * mid_hub, hub, d + 3)),
        regular_copies(n, d, tau, psi2, mid_copy, 2),
        ((n * psi1 - nd * links, hub, d + 2), (nd * links, hub, d + 3)),
        ((n ** t - nd * psi1, hub, d + 1), (nd * psi1, hub, d + 2)),
        regular_copies(n, d, tau, n ** (t - 2), psi2, 1),
    )


def polymeric_complete(n: int, t: int) -> tuple:
    psi1, psi2 = repunit(n, t - 1), repunit(n, t - 2)
    return (
        ((n, n, n + 1),),
        ((ratio(n * (n - 1), 2), n + 1, n + 1),),
        ((n * (t - 2), n + 1, n + 1), (n * (2 + n * psi2 - t), n + 1, n + 2)),
        ((n * (n - 1) * (t - 2), n + 1, n + 2),
         (ratio(n ** 3 * psi2 + (t - 2) * (n - 2 * n * n), 2), n + 2, n + 2)),
        ((n * (t - 1), n + 1, n + 1), (n * (psi1 - t + 1), n + 1, n + 2)),
        ((n, n, n + 1), (n ** t - n, n + 1, n + 1)),
        ((n * (n - 1), n, n + 1), (ratio(n ** (t + 1) - 2 * n * n + n, 2), n + 1, n + 1)),
    )


#: per public family formula, its printed table, called with the formula's
#: parameters and, except at level 1, the level
TABLES = {fn.__name__: fn for fn in (
    sierpinski_regular, sierpinski_complete, sierpinski_cycle, sierpinski_semiregular, sierpinski_star,
    sierpinski_path, polymeric_level1_regular, polymeric_level1_complete, polymeric_level1_semiregular,
    polymeric_regular, polymeric_complete)}
