#!/usr/bin/env python3
"""Classifying bases and ordering their partition points.

A base is entered through the greedy expansion of 1.  The library decides
whether 1 has a unique expansion there, is a limit of such bases, or merely
has a unique doubly infinite expansion -- and for the two non-trivial
classes it lays out the partition points of the interval [0, M/(q-1)] in
exact order, with every coincidence detected symbolically.
"""

from univoque import new_base_context, golden_ratio_base, order_points
from univoque.digits import format_seq

for M, beta in [(1, "11(0)"), (1, "111(0)"), (4, "322(0)"), (3, "331(0)"), (2, "2(0)")]:
    ctx = new_base_context(M, beta)
    print(f"M={M} beta={beta:12s} class={ctx.base_class.value:12s} "
          f"alpha={format_seq(ctx.alpha):16s} q~{ctx.q_approx(8)}")

print()
print("the smallest admissible bases per alphabet:")
for M in range(1, 5):
    g = golden_ratio_base(M)
    print(f"  M={M}: beta={format_seq(g.beta):6s} q~{g.q_approx(8)}")

print()
trib = new_base_context(1, "111(0)")
order = order_points(trib)
print("partition points for beta=111(0):", order.chain())
for cls, value, key in zip(order.classes, order.values, order.keys):
    print(f"  {'='.join(cls):8s} value {value.decimal(10)}  expansion {format_seq(key)}")
