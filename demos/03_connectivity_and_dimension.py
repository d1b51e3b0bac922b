#!/usr/bin/env python3
"""Strong connectedness and the entropy/dimension of the survivor sets.

The central subgraph may or may not be strongly connected; both the
reachability criterion and the coarser endpoint test are evaluated, and the
per-component spectral radii show where the dimension lives.  Along the
reflected-block chains the radius (hence the entropy) stays constant while
the base grows.
"""

from univoque import (TILDE, build_graph, component_dimensions, connectivity_report,
                      dimension_of, new_base_context, r_chain, spectral_radius)
from univoque.digits import format_seq

for M, beta in [(4, "4331(0)"), (1, "111001010(0)"), (4, "322(0)"),
                (1, "111001000111001(0)")]:
    ctx = new_base_context(M, beta)
    rep = connectivity_report(ctx)
    print(f"M={M} beta={beta:20s} strongly connected: {rep.strongly_connected!s:5s} "
          f"(endpoint test {rep.sufficient_b2})")

print()
ctx = new_base_context(1, "111001000111001(0)")
rep = component_dimensions(ctx)
for names, r in rep.per_scc:
    print(f"  component of {len(names):2d} vertices: radius {r:.5f}")
print(f"  transfer hypothesis (core component dominates): {rep.core_equals_overall}")

print()
print("radius along the chain of beta=322(0):")
base = new_base_context(4, "322(0)")
for k in range(4):
    ctx = r_chain(base, k)
    g = build_graph(ctx, TILDE)
    r, _ = spectral_radius(g)
    dim, _ = dimension_of(g, ctx)
    print(f"  k={k}: beta={format_seq(ctx.beta):16s} q~{ctx.q_approx(6)} radius {r:.9f} "
          f"dimension {dim:.6f}")
