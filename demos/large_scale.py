#!/usr/bin/env python3
"""Why the closed forms exist: explicit construction dies exponentially.

The expansion of a 5-vertex base at level 100 has 5**100 vertices; nothing
builds that. The closed forms answer in microseconds, and in exact mode they
return the full integer even when it no longer fits in a double. A base
compiled once answers any level with one power of n and one division.
"""

import time

import sierpindex as sx
from sierpindex.construct import VertexBudgetError

k5 = sx.complete_graph(5)

# Construction refuses politely once the vertex budget is exceeded.
try:
    sx.sierpinski_graph(k5, 100)
except VertexBudgetError as exc:
    print("construction at level 100:", exc)

# The closed form does not care.
start = time.perf_counter_ns()
report = sx.sierpinski_randic(k5, 100, sx.IndexParams(1, exact=True))
micros = (time.perf_counter_ns() - start) / 1e3
digits = str(report.exact)
print(f"\nexact alpha=1 value at level 100 ({micros:.0f} us, {len(digits)} digits):")
print(f"  {digits[:30]}...{digits[-10:]}")

# One compiled form answers every level: the base is compiled once per exponent,
# then each level costs one power of n and one division on integers about t
# digits long. Float mode works while the value itself fits in a double (it
# grows like n**t, so that caps out near level 440 here); exact mode has no
# ceiling.
print("\nmode                   compile   level   per-level time")
for params, levels in ((sx.IndexParams(-0.5), (10, 100, 400)), (sx.IndexParams(1, exact=True), (10, 100, 1000))):
    start = time.perf_counter_ns()
    form = sx.compile_index(k5, params, "S")
    compile_micros = (time.perf_counter_ns() - start) / 1e3
    mode = "exact" if params.exact else f"float (alpha={params.alpha})"
    for t in levels:
        start = time.perf_counter_ns()
        form.at(t)
        micros = (time.perf_counter_ns() - start) / 1e3
        print(f"{mode:<20} {compile_micros:>7.1f} us {t:>7}   {micros:>10.1f} us")

# Small instances stay honest: at a size we *can* build, both roads agree.
built = sx.sierpinski_graph(k5, 3)
closed = sx.sierpinski_randic(k5, 3, -0.5).value
oracle = sx.randic_index(built, -0.5)
print(f"\nlevel 3 cross-check: closed {closed:.12f} vs built {oracle:.12f}")
