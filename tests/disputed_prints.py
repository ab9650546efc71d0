"""The circulating formula prints that ``specialized.DISPUTED_PRINTS`` records.

They are wrong, and kept only so the test suite can show each one diverging
from the construction oracle at the documented term.
"""

import math

from sierpindex import Graph, degree_power_sum, randic_index, repunit


def sierpinski_regular_printed(n: int, degree: int, triangles: int, t: int, alpha: float) -> float:
    """The disputed print of ``specialized.sierpinski_regular``."""
    d = degree
    psi1, psi2 = repunit(n, t - 1), repunit(n, t - 2)
    lead = n ** (t - 2)
    same = n ** (t - 1) * d * (n - 2 * d) / 2 + 3 * lead * triangles
    mixed = (n ** (t - 1) + psi1) * d * d - 6 * lead * triangles
    bumped = n * d * psi1 / 2 + n * d * d * psi2 + 3 * lead * triangles
    return math.fsum(
        (
            same * d ** (2 * alpha),
            mixed * d ** alpha * (d + 1) ** alpha,
            bumped * (d + 1) ** (2 * alpha),
        )
    )


def bounds_envelope_printed(base: Graph, t: int, alpha: float) -> tuple[float, float]:
    """The disputed print of ``sierpinski_randic_bounds``. Fails the
    collapse-to-equality property on regular bases (e.g. the 4-cycle at t=2)."""
    n = base.n
    lead, rep = n ** (t - 2), repunit(n, t - 2)
    degs = base.degrees().tolist()[1:]
    dmin, dmax = min(degs), max(degs)
    r_base = randic_index(base, alpha)
    m_next = degree_power_sum(base, alpha + 1)
    m1 = 2 * base.m

    def printed(d_in: int, d_out: int, e: float) -> float:
        return (
            lead * (n - d_out) * r_base
            + 2 * (lead * d_in - d_out * rep) * (r_base + m_next * e)
            + (lead + (2 * d_in + 1) * rep) * (r_base + 2 * m_next * e)
            + (lead + (2 * d_in + 1) * rep) * (m1 / 2) * e * e
        )

    e_low = (dmin + 1) ** alpha - dmax ** alpha
    e_high = (dmax + 1) ** alpha - dmin ** alpha
    return printed(dmin, dmax, e_low), printed(dmax, dmin, e_high)
