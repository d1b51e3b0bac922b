#!/usr/bin/env python3
"""Building the interval graphs and reading off their language.

The infinite label paths of the full graph spell the unique doubly infinite
expansions (limit-class bases) or the unique expansions (in-between bases).
The brute-force oracle recomputes the same prefix sets straight from the
lexicographic conditions, with no graph in sight -- the two must agree.
"""

from univoque import (FULL, TILDE, build_graph, enumerate_admissible_words,
                      new_base_context, path_words, v_successor)
from univoque.digits import format_seq
from univoque.oracle import U_PREFIX, V_PREFIX

trib = new_base_context(1, "111(0)")
g = build_graph(trib, FULL)
print(f"full graph of beta=111(0): {len(g.vertices)} vertices")
for i, k, j in sorted(g.edges):
    print(f"  {g.gap_name(i)} --{k}--> {g.gap_name(j)}")

print()
for L in range(1, 9):
    words = path_words(g, L)
    oracle = enumerate_admissible_words(trib, L, V_PREFIX)
    print(f"  L={L}: {len(words):4d} words, oracle agrees: {words == oracle}")

succ = v_successor(trib)
print()
print(f"successor base beta={format_seq(succ.beta)}: its unique expansions are the")
print("doubly-infinite-unique expansions of the seed:")
for L in (3, 6):
    a = enumerate_admissible_words(trib, L, V_PREFIX)
    b = enumerate_admissible_words(succ, L, U_PREFIX)
    print(f"  L={L}: sets equal: {a == b}")

print()
print("DOT output of the central subgraph:")
print(build_graph(trib, TILDE).to_dot())
