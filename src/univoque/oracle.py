"""Brute-force reference implementations used by the tests.

Nothing here touches the graph or the expansion-search machinery; words are
enumerated straight from the lexicographic conditions, and expansion counts
are bounded by counting feasible digit prefixes level by level, merged by
remainder, each digit read from its definition with exact arithmetic.  The
shared dependencies are the exact-arithmetic layer, the digit layer and the
successor-map walks of ``walk``, whose word listing serves the graphs too.

The word oracle runs on the follower automaton ``digits.LexAutomaton``,
whose states record, for the prefix read so far, which tail constraints are
still tied with alpha.  The tail search of ``expansions`` runs on the same
automaton; the oracle checks the graphs, which it never imports.  A word is
a valid prefix if some infinite continuation never violates a constraint
(weak mode), respectively additionally breaks every tie at some finite time
(strict mode, where a tie surviving forever would mean equality with the
bound).  One exploration of the automaton decides both from its components
(``LexAutomaton.admissible``): a state is alive when it reaches a cycle, and
good when it reaches a branching component or a simple cycle whose word,
read once around it, leaves ties that ``LexAutomaton.periodic_ok`` breaks.
"""

from __future__ import annotations

from .base import SearchBoundError
from .digits import LexAutomaton, strict_mode
from .walk import orbit, words

U_PREFIX = "U_PREFIX"    # prefixes of unique expansions (strict bounds)
V_PREFIX = "V_PREFIX"    # prefixes of unique doubly infinite expansions (weak bounds)
BRUTE_NODE_BUDGET = 200_000  # nodes of the feasible-prefix tree below its root


def enumerate_admissible_words(ctx, L, mode=V_PREFIX):
    """All length-L prefixes of sequences satisfying the mode's conditions.

    V_PREFIX: weak two-sided bounds (tails at most alpha, reflected tails at
    most alpha, at triggered positions) -- the quasi-greedy expansions of
    points with a unique doubly infinite expansion.  U_PREFIX: the strict
    bounds -- unique expansions.  Enumeration is a pruned DFS over the
    follower automaton's admissible part; no graph machinery is involved.
    The automaton is deterministic, so its runs are the words, and
    ``walk.words`` lists them (ValueError past its ``WORD_CAP``), the same
    walk that lists the label words of a graph.
    """
    if L < 0:
        raise ValueError(f"word length must be nonnegative, got {L}")
    ctx.require_graph_class()
    auto = LexAutomaton(ctx.M, ctx.alpha.per)
    return words(auto.admissible(strict_mode(mode, U_PREFIX, V_PREFIX)), auto.start(), L)


def brute_count_expansions(ctx, x, depth):
    """Expansion-count bounds by exhaustive prefix enumeration.

    Returns (lower, upper): ``upper`` is the number of feasible digit
    prefixes of the given length, ``lower`` counts those whose remainder is
    provably pinned to a unique tail (the forced-digit walk from it closes a
    cycle without ever meeting a second feasible digit).  The true count
    lies in between when every branching of x resolves within the depth.
    The feasible digits of a remainder v are, by definition, the d in 0..M
    from ceil(q*v - kappa) to floor(q*v), each bound settled on a canonical
    element (rational only when constant, and then enclosed exactly).
    Prefixes are counted by remainder one level at a time, as
    ``walk.count_words`` counts words, so the work follows the distinct
    remainders of each level.  A tree of more than ``BRUTE_NODE_BUDGET``
    nodes below its root raises SearchBoundError once the count meets that
    many.
    """
    if depth < 0:
        raise ValueError(f"oracle depth must be nonnegative, got {depth}")
    if depth > 24:
        raise ValueError("oracle depth is capped at 24")
    field, M = ctx.field, ctx.M
    kappa = field.reduce(ctx.kappa.elem)

    def floor(a):
        return field.settle(a, lambda n, D: n // D)

    def feasible(v):
        # v and kappa are canonical, so are q*v once reduced and each q*v - d
        qv = field.reduce(field.mul_gen(v))
        lo, hi = max(0, -floor(field.sub(kappa, qv))), min(M, floor(qv))
        return [(d, field.add_int(qv, -d)) for d in range(lo, hi + 1)]

    def forced(v):
        moves = feasible(v)
        return moves[0] if len(moves) == 1 else None

    level, nodes = {field.reduce(x.elem): 1}, 0
    for _ in range(depth):
        nxt = {}
        for v, c in level.items():
            moves = feasible(v)
            nodes += c * len(moves)
            if nodes > BRUTE_NODE_BUDGET:
                raise SearchBoundError(f"the feasible-prefix tree to depth {depth} has more than "
                                       f"{BRUTE_NODE_BUDGET} nodes; ask for a smaller depth")
            for _d, w in moves:
                nxt[w] = nxt.get(w, 0) + c
        level = nxt
    pinned = {}
    for v in level:
        # the forced-digit run from v closes a cycle, or stops at a branching
        if v not in pinned:
            run, _digits, k = orbit(v, forced)
            pinned.update(dict.fromkeys(run, k is not None))
    return sum(c for v, c in level.items() if pinned[v]), sum(level.values())
