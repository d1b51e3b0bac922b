"""Walks over finite transition systems given as successor maps.

Every finite labeled transition system of the package -- the interval
graphs, their subset automaton, the follower automaton of the lexicographic
bounds and the remainder graph of an expansion count -- is walked here, on
one plain successor map ``node -> [(label, target)]``.  Nodes are any
hashable values; every target of a map is one of its keys.  This module
imports nothing from the package.

A run with one move per node -- a greedy expansion, a forced-digit tail, the
cycle word of a graph level or of a follower-automaton component -- is
followed by ``orbit`` to its first repeated node, which closes its cycle.

The label words of a deterministic map (no node has two moves with one
label), such as the subset automaton of a graph or the follower automaton,
are its runs: ``count_words`` counts them node by node for any length, and
``words`` lists them depth-first once the count is within ``WORD_CAP``.
"""

from __future__ import annotations

import math

WORD_CAP = 10**6         # words ``words`` will list


def explore(roots, moves, cap=None):
    """The successor map of everything reachable from ``roots``.

    ``moves(node)`` gives a node's ``(label, target)`` pairs and is called
    once per node.  Returns None once the map holds more than ``cap`` nodes.
    """
    succ = {}
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        if v in succ:
            continue
        succ[v] = out = moves(v)
        if cap is not None and len(succ) > cap:
            return None
        frontier.extend(w for _k, w in out if w not in succ)
    return succ


def orbit(start, step, cap=None):
    """The run from ``start`` up to its first repeated node.

    ``step(node)`` gives the node's one ``(label, target)`` move, or None
    where the run stops.  Returns ``(nodes, labels, k)``: ``labels[i]`` is
    read on leaving ``nodes[i]``, and the last move returns to ``nodes[k]``;
    k is None when ``step`` stopped the run at ``nodes[-1]``.  Returns None
    once the run passes ``cap`` nodes.
    """
    index, labels = {}, []
    node = start
    while node not in index:
        if cap is not None and len(index) >= cap:
            return None
        index[node] = len(index)
        move = step(node)
        if move is None:
            return list(index), labels, None
        label, node = move
        labels.append(label)
    return list(index), labels, index[node]


def tarjan(succ):
    """Strongly connected components of ``succ`` (node -> [(label, target)]).

    Iterative Tarjan from the roots in ``succ``'s order; every target must
    be a key.  Components come out sinks first, each a list of nodes.
    """
    index, low = {}, {}
    stack, onstack = [], set()
    comps = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for _k, w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def cyclic(succ, comp):
    """Whether the component ``comp`` carries a cycle: it has two nodes or
    more, or its one node has a self-loop."""
    v = comp[0]
    return len(comp) > 1 or any(w == v for _k, w in succ[v])


def alive(succ, accept=cyclic):
    """The nodes that reach a component passing ``accept(succ, comp)``; with
    the default test, the nodes with an infinite path.

    Tarjan lists components sinks first, so each component's successors
    are decided before it is.
    """
    live = set()
    for comp in tarjan(succ):
        if accept(succ, comp) or any(w in live for v in comp for _k, w in succ[v]):
            live.update(comp)
    return live


def count_words(succ, start, L, cap=None):
    """Number of length-L label words read from ``start`` in the
    deterministic map ``succ``: its runs, counted node by node.  With
    ``cap``, counts saturate at cap + 1, which still decides "more than
    cap" and keeps every sum small."""
    if L < 0:
        raise ValueError(f"word length must be nonnegative, got {L}")
    top = math.inf if cap is None else cap + 1
    counts = {start: 1}
    for _ in range(L):
        nxt = {}
        for v, c in counts.items():
            for _k, w in succ[v]:
                nxt[w] = min(nxt.get(w, 0) + c, top)
        counts = nxt
    return min(sum(counts.values()), top)


def words(succ, start, L):
    """The set of length-L label words read from ``start`` in the
    deterministic map ``succ``, listed depth-first.

    The words are counted first, saturating past ``WORD_CAP``; more than
    ``WORD_CAP`` of them raise ValueError before any is listed.
    """
    if count_words(succ, start, L, WORD_CAP) > WORD_CAP:
        raise ValueError(f"more than {WORD_CAP} words of length {L}: "
                         "they exceed the enumeration cap")
    out = set()
    stack = [(start, ())]
    while stack:
        v, w = stack.pop()
        if len(w) == L:
            out.add(w)
            continue
        stack.extend((u, w + (k,)) for k, u in succ[v])
    return out
