#!/usr/bin/env python3
"""Cross-check the closed forms against brute-force construction.

Every value the closed forms produce is reproduced here the slow way: build
the expansion outright, read off degrees, and sum (deg(u) * deg(v)) ** alpha
over its edges. Both sides weigh an edge with the same rounded power and round
the exact sum once, so every value must be the oracle's, bit for bit: the run
lists any mismatch and exits 1.
"""

import sys

import sierpindex as sx

BASES = {
    "triangle": sx.complete_graph(3),
    "4-cycle": sx.cycle_graph(4),
    "4-path": sx.path_graph(4),
    "3-star": sx.star_graph(3),
    "demo": sx.demo_graph(),
}
ALPHAS = (-1.0, -0.5, 0.5, 1.0, 2.0)
VARIANTS = (("S", sx.sierpinski_randic, sx.sierpinski_graph), ("P", sx.polymeric_randic, sx.polymeric_graph))

mismatches = []
for name, base in BASES.items():
    for t in (2, 3):
        for variant, closed, build in VARIANTS:
            built = build(base, t)
            for alpha in ALPHAS:
                value, oracle = closed(base, t, alpha).value, sx.randic_index(built, alpha)
                if value != oracle:
                    mismatches.append(f"{name} {variant} t={t} alpha={alpha:g}: closed {value!r}, built {oracle!r}")
print(f"checked {len(BASES)} bases x 2 levels x {len(ALPHAS)} exponents, both variants: "
      f"{len(mismatches)} differ from the built expansion")
if mismatches:
    print("\n".join(mismatches))
    sys.exit(1)

# The breakdown shows where a value comes from: the base edges by class
# (end degrees, triangles), one row per class with its edge count.
report = sx.sierpinski_randic(sx.demo_graph(), 2, -0.5, include_breakdown=True)
print(f"\ndemo base, two levels, alpha=-1/2: value {report.value:.10f}")
for c in report.breakdown.classes:
    terms = ", ".join(f"{term.count} at {term.degrees}" for term in c.terms)
    print(f"  {c.edges} edge(s) of degrees {c.degrees}, {c.triangles} triangle(s): {terms} -> {c.weight:.10f} each")
print(f"  class of each base edge: {list(report.breakdown.edge_class)}")

# For triangle-free bases there is also a two-sided envelope; it pinches to
# the exact value exactly when the base is regular.
for name in ("4-cycle", "3-star"):
    base = BASES[name]
    lo, hi = sx.sierpinski_randic_bounds(base, 3, -0.5)
    value = sx.sierpinski_randic(base, 3, -0.5).value
    print(f"\n{name}, three levels: {lo:.6f} <= {value:.6f} <= {hi:.6f}")
