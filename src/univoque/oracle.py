"""Brute-force reference implementations used by the tests.

Nothing here touches the graph or the expansion-search machinery; words are
enumerated straight from the lexicographic conditions, and expansion counts
are bounded by exhaustive prefix enumeration with exact arithmetic.  The
only shared dependency is the exact-arithmetic layer.

The word oracle runs on a follower automaton whose states record, for the
prefix read so far, which tail constraints are still tied with the bound
sequence: an upper tie at offset i means the next digit is compared with
alpha[i], a lower tie compares with the reflected bound.  Since alpha is
periodic the offsets live modulo its period and the automaton is finite.
A word is a valid prefix if some infinite continuation never violates a
constraint (weak mode), respectively additionally breaks every tie at some
finite time (strict mode, where a tie surviving forever would mean equality
with the bound).
"""

from __future__ import annotations

U_PREFIX = "U_PREFIX"    # prefixes of unique expansions (strict bounds)
V_PREFIX = "V_PREFIX"    # prefixes of unique doubly infinite expansions (weak bounds)


class LexAutomaton:
    """Follower automaton of the two-sided shift conditions against alpha."""

    def __init__(self, M, alpha_period):
        self.M = M
        self.alpha = tuple(alpha_period)
        self.N = len(self.alpha)
        self._trans = {}
        self._alive = None
        self._good = None

    def start(self):
        return (frozenset(), frozenset())

    def step(self, state, d):
        """Advance by one digit; None when a constraint is violated."""
        upper, lower = state
        nu, nl = set(), set()
        for i in upper:
            ai = self.alpha[i]
            if d > ai:
                return None
            if d == ai:
                nu.add((i + 1) % self.N)
        for i in lower:
            bi = self.M - self.alpha[i]
            if d < bi:
                return None
            if d == bi:
                nl.add((i + 1) % self.N)
        if d < self.M:
            nu.add(0)
        if d > 0:
            nl.add(0)
        return (frozenset(nu), frozenset(nl))

    def run(self, word):
        state = self.start()
        for d in word:
            state = self.step(state, d)
            if state is None:
                return None
        return state

    # --- reachable state space and acceptance sets --------------------------

    def _explore(self):
        if self._trans:
            return
        frontier = [self.start()]
        seen = {self.start()}
        while frontier:
            s = frontier.pop()
            moves = {}
            for d in range(self.M + 1):
                t = self.step(s, d)
                if t is not None:
                    moves[d] = t
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
            self._trans[s] = moves

    def alive_states(self):
        """States admitting some infinite violation-free continuation."""
        if self._alive is not None:
            return self._alive
        self._explore()
        alive = set(self._trans)
        changed = True
        while changed:
            changed = False
            for s in list(alive):
                if not any(t in alive for t in self._trans[s].values()):
                    alive.discard(s)
                    changed = True
        self._alive = alive
        return alive

    def good_states(self):
        """States admitting a continuation along which every tie breaks.

        Greatest fixpoint: a state is good when, moving only through good
        states, some finite continuation discharges all ties currently held
        (newer ties are then discharged by iterating the argument from the
        state reached).
        """
        if self._good is not None:
            return self._good
        good = set(self.alive_states())
        changed = True
        while changed:
            changed = False
            for s in list(good):
                if not self._can_discharge(s, good):
                    good.discard(s)
                    changed = True
        self._good = good
        return good

    def _can_discharge(self, s, allowed):
        seen = {(s, s[0], s[1])}
        frontier = [(s, s[0], s[1])]
        while frontier:
            cur, au, al = frontier.pop()
            if not au and not al:
                return True
            for d, t in self._trans[cur].items():
                if t not in allowed:
                    continue
                nau = frozenset((i + 1) % self.N for i in au if d == self.alpha[i])
                nal = frozenset((i + 1) % self.N for i in al if d == self.M - self.alpha[i])
                key = (t, nau, nal)
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
        return False

    def prefix_ok(self, word, strict):
        state = self.run(word)
        if state is None:
            return False
        return state in (self.good_states() if strict else self.alive_states())


def enumerate_admissible_words(ctx, L, mode=V_PREFIX):
    """All length-L prefixes of sequences satisfying the mode's conditions.

    V_PREFIX: weak two-sided bounds (tails at most alpha, reflected tails at
    most alpha, at triggered positions) -- the quasi-greedy expansions of
    points with a unique doubly infinite expansion.  U_PREFIX: the strict
    bounds -- unique expansions.  Enumeration is a pruned DFS over the
    follower automaton; no graph machinery is involved.
    """
    if L > 12:
        raise ValueError("oracle word enumeration is capped at length 12")
    ctx.require_graph_class()
    auto = LexAutomaton(ctx.M, ctx.alpha.per)
    strict = mode == U_PREFIX
    accept = auto.good_states() if strict else auto.alive_states()
    out = set()
    stack = [(auto.start(), ())]
    while stack:
        s, w = stack.pop()
        if len(w) == L:
            out.add(w)
            continue
        for d in range(ctx.M + 1):
            t = auto.step(s, d)
            if t is not None and t in accept:
                stack.append((t, w + (d,)))
    return out


def brute_count_expansions(ctx, x, depth):
    """Expansion-count bounds by exhaustive prefix enumeration.

    Returns (lower, upper): ``upper`` is the number of feasible digit
    prefixes of the given length, ``lower`` counts those whose remainder is
    provably pinned to a unique tail (the forced-digit walk from it closes a
    cycle without ever meeting a second feasible digit).  The true count
    lies in between when every branching of x resolves within the depth.
    """
    if depth > 24:
        raise ValueError("oracle depth is capped at 24")
    kappa = ctx.kappa

    def feasible(v):
        out = []
        qv = v.mul_gen()
        for d in range(ctx.M + 1):
            nxt = qv - d
            if nxt.sign() >= 0 and (nxt - kappa).sign() <= 0:
                out.append((d, nxt))
        return out

    pinned_cache = {}

    def pinned(v):
        if v in pinned_cache:
            return pinned_cache[v]
        seen = set()
        cur = v
        result = True
        while cur not in seen:
            seen.add(cur)
            moves = feasible(cur)
            if len(moves) != 1:
                result = False
                break
            cur = moves[0][1]
        for w in seen:
            pinned_cache.setdefault(w, result)
        pinned_cache[v] = result
        return result

    lower = upper = 0
    stack = [(x, 0)]
    while stack:
        v, k = stack.pop()
        if k == depth:
            upper += 1
            if pinned(v):
                lower += 1
            continue
        for _d, nxt in feasible(v):
            stack.append((nxt, k + 1))
    return lower, upper
