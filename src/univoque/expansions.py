"""Digit expansions of concrete points and exact expansion counting.

Expansions of x are infinite paths in the digit-transition system whose
states are exact remainders: from value v the digit d is feasible when
q*v - d stays inside [0, M/(q-1)].  When q is a Pisot number, the
remainders of a point of Q(q) form a finite set, and exhaustive exploration
(``walk.explore``, on remainders in their reduced form,
``NumberField.reduce``) decides, from the strongly connected components
that ``walk.tarjan`` lists, whether the point has finitely many expansions
(and then materializes all of them, each cycle word read by
``walk.orbit``) or reaches a branching cycle, which yields infinitely many.
For other bases the remainders may never repeat; the state cap then bounds
the search and the answer is CAP_EXCEEDED.

Exact arithmetic runs only where it can change the answer, and once: the
feasible digits of a remainder are read from one enclosure of q*v on the
field's current isolating interval and one enclosure of M/(q-1),
taken once per context (refining q only narrows it), and q*v - M/(q-1) is
formed, and an exact sign computed, only for a digit that these leave
undecided.  A remainder's moves, and what they imply, are facts about the
base, so the context keeps every remainder it has met in one map
(``_RemainderMap``, memoized by ``base.memo``), where it is a small int id
and its moves are ``(digit, id)`` pairs.  The map serves counts and greedy
runs alike: the greedy digit is the largest move, and a point lies in
[0, M/(q-1)] exactly when it has a move.  A count decides each remainder it
reaches, once: its number of expansions (or infinitely many) and, on a
deterministic cycle, its tail word.  A later count explores and splits into
components only the remainders no count has decided, so points that share
tails, such as the witnesses x_m, walk each remainder once.  A count's cap
is checked against the map's size, and only a larger map is walked from the
point.  A run that leaves more than ``DEFAULT_STATE_CAP`` remainders there
empties the map.

The witness constructor produces, for any admissible tail sequence, a point
with exactly m expansions for each m >= 1, by prefixing the tail with
``1 0^((m-1)N)``.  Every tail condition is a run of the follower automaton
``digits.LexAutomaton`` (owned by the digit layer and shared with the word
oracle) from one start tie set: ``f_family_filter`` runs it over a given
tail's preperiod and one period.  The least admissible tail is searched on
the automaton's admissible part from the state after the reflected period:
that part is empty exactly when no admissible tail starts with that
period, and otherwise one depth-first walk reads its moves and tests each
word by its state.  Both stand after a period and leave only the ties of
that state to ``LexAutomaton.periodic_ok``, the check its good states are
built on.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import digits as dg
from .algebraic import value_of_sequence
from .base import SearchBoundError, memo
from .digits import EpSeq, LexAutomaton
from .walk import cyclic, explore, orbit, tarjan

EXACT = "EXACT"
INFINITE_CYCLE = "INFINITE_CYCLE"
CAP_EXCEEDED = "CAP_EXCEEDED"

DEFAULT_STATE_CAP = 10_000
TAIL_NODE_BUDGET = 200_000       # search nodes of one default_tail call
QUASI_GREEDY_STEP_BOUND = 4096   # greedy digits before a remainder must repeat
WITNESS_ZERO_BOUND = 1000        # zeros (m - 1) N after the leading 1 of a witness


class RangeError(ValueError):
    """The point lies outside [0, M/(q-1)]."""


class PeriodicityBoundError(SearchBoundError):
    """No eventually periodic structure found within the step bound."""


class TailSearchBudgetError(SearchBoundError):
    """The least-tail search visited more than ``TAIL_NODE_BUDGET`` nodes."""

    def __init__(self, nodes, period, max_period):
        super().__init__(f"tail search stopped after {nodes} nodes (budget), "
                         f"at period {period} of at most {max_period}")
        self.nodes, self.period, self.max_period = nodes, period, max_period


def _feasible_moves(field, M, kappa, kbox, v):
    """The moves ``(d, q*v - d)`` with 0 <= q*v - d <= kappa, d increasing.

    The feasible digits are the integers in [q*v - kappa, q*v].
    ``field.enclosure(q*v)`` on the field's current isolating interval and
    ``kbox``, ``field.enclosure(kappa)`` taken on it or on an earlier
    (wider) one, settle every digit outside both bounds; only a digit inside
    one costs an exact sign, and only such a digit forms q*v - d - kappa.
    For d = 0 the sign of q*v, just enclosed, is read as the sign of v, so
    no sign repeats an enclosure and q is never moved here.
    """
    qv = field.mul_gen(v)
    alo, ahi, ad = field.enclosure(qv)
    klo, khi, kd = kbox
    # q*v - kappa lies in [lo/D, hi/D]
    lo, hi, D = alo * kd - khi * ad, ahi * kd - klo * ad, ad * kd
    moves = []
    for d in range(max(0, -(-lo // D)), min(M, ahi // ad) + 1):
        u = field.add_int(qv, -d)
        if d * ad > alo and field.sign(u if d else v) < 0:
            continue
        if d * D < hi and field.sign(field.sub(u, kappa)) > 0:
            continue
        moves.append((d, u))
    return moves


class _RemainderMap:
    """The remainders a context has met, as a graph on small int ids.

    ``intern(v)`` gives the reduced element v an id the first time it is
    met, and ``moves(i)`` the ``(digit, id)`` moves of id i, computed once
    from one enclosure of kappa, ``kbox``, and reduced on a reducible field,
    where remainders are hashed.  A count decides each id it reaches, once: its
    number of expansions in ``count`` (``math.inf`` when a branching cycle
    is reachable) and, for an id on a deterministic cycle, the tail word
    read from it in ``tails``.
    Built once per context (``memo``); the map is the one part of a memoized
    value that grows, and ``_walk`` bounds it.
    """

    __slots__ = ("field", "M", "kappa", "kbox", "ids", "elems", "out", "count", "tails")

    def __init__(self, ctx):
        self.field, self.M, self.kappa = ctx.field, ctx.M, ctx.kappa.elem
        self.kbox = self.field.enclosure(self.kappa)
        self.ids, self.elems, self.out = {}, [], []
        self.count, self.tails = {}, {}

    def intern(self, v):
        i = self.ids.get(v)
        if i is None:
            i = self.ids[v] = len(self.elems)
            self.elems.append(v)
            self.out.append(None)
        return i

    def moves(self, i):
        out = self.out[i]
        if out is None:
            field = self.field
            out = _feasible_moves(field, self.M, self.kappa, self.kbox, self.elems[i])
            if field.reducible:
                out = [(d, field.reduce(u)) for d, u in out]
            out = self.out[i] = [(d, self.intern(u)) for d, u in out]
        return out

    def decide(self, succ):
        """Decide every id of ``succ``, the successor map of undecided ids
        (decided targets dropped).  Tarjan lists components sinks first, so
        each component is decided from decided successors: counts add and
        infinity absorbs.  A cyclic component is one deterministic cycle,
        one expansion from each of its ids, when each of its ids has a
        single move, and infinitely many otherwise."""
        moves, count, tails = self.moves, self.count, self.tails
        for comp in tarjan(succ):
            if not cyclic(succ, comp):
                ks = [count[w] for _d, w in moves(comp[0])]
                k = math.inf if math.inf in ks else sum(ks)
            elif all(len(moves(v)) == 1 for v in comp):
                cycle, tail, _k = orbit(comp[0], lambda v: moves(v)[0])
                for i, v in enumerate(cycle):
                    tails[v] = tuple(tail[i:] + tail[:i])
                k = 1
            else:
                k = math.inf
            for v in comp:
                count[v] = k

    def clear(self):
        for table in (self.ids, self.elems, self.out, self.count, self.tails):
            table.clear()


def _walk(ctx, x, run):
    """``run(root, rmap)`` for the id of x in the context's remainder map.
    Since q <= M + 1, kappa >= 1 and the digit ranges [d, d + kappa] cover
    [0, q*kappa] = [0, M + kappa]: x lies in [0, kappa] exactly when it has
    a move, and RangeError is raised when it has none.  A run that leaves
    more than ``DEFAULT_STATE_CAP`` remainders in the map empties it."""
    rmap = memo(ctx, _RemainderMap)
    root = rmap.intern(ctx.field.reduce(x.elem))
    if not rmap.moves(root):
        raise RangeError("value outside the expandable interval")
    out = run(root, rmap)
    if len(rmap.ids) > DEFAULT_STATE_CAP:
        rmap.clear()
    return out


def greedy_expand(ctx, x, L):
    """First L digits of the lexicographically largest expansion of x: each
    is the largest move of its remainder v, which for v in [0, kappa] is the
    largest d with q*v - d >= 0, since q*kappa - M = kappa >= 1.  ValueError
    for a negative L, before the walk."""
    def run(v, rmap):
        out = []
        for _ in range(L):
            d, v = rmap.moves(v)[-1]
            out.append(d)
        return tuple(out)

    if L < 0:
        raise ValueError(f"expansion length must be nonnegative, got {L}")
    return _walk(ctx, x, run)


def quasi_greedy_expand(ctx, x):
    """The lexicographically largest infinite expansion of x, as an EpSeq.

    ``walk.orbit`` follows the greedy remainders until one repeats.  Zero
    is its own greedy remainder, and the only one (v = q*v forces v = 0): a
    run whose cycle is (0) is a finite greedy expansion, whose last digit is
    decremented and followed by the expansion of 1.  Points with more than
    ``QUASI_GREEDY_STEP_BOUND`` nonzero greedy remainders raise, never
    truncate.
    """
    bound = QUASI_GREEDY_STEP_BOUND
    run = _walk(ctx, x, lambda root, rmap: orbit(root, lambda v: rmap.moves(v)[-1], bound + 1))
    if run is not None:
        _remainders, digits, k = run
        pre, per = tuple(digits[:k]), tuple(digits[k:])
        # one remainder per digit; 0, the cycle exactly when per == (0,), is not counted
        if len(digits) - (per == (0,)) <= bound:
            if per == (0,) and pre:
                return EpSeq(dg.word_minus(pre) + ctx.alpha.pre, ctx.alpha.per)
            return EpSeq(pre, per)
    raise PeriodicityBoundError(f"no periodic remainder within {bound} steps")


class ExpansionCount(namedtuple("ExpansionCount", "kind count witnesses",
                                defaults=(None, ()))):
    """A count's ``kind``; for EXACT also the ``count`` and its witnesses."""

    __slots__ = ()

    def __repr__(self):
        if self.kind == EXACT:
            return f"ExpansionCount(EXACT({self.count}))"
        return f"ExpansionCount({self.kind})"


def count_expansions(ctx, x, cap=DEFAULT_STATE_CAP):
    """Count the expansions of x by exact exploration of its remainder graph.

    Returns EXACT(k) with all k expansions as witnesses when every reachable
    cycle is deterministic (each cycle state has a single feasible digit),
    INFINITE_CYCLE when some branching state lies on a cycle, and
    CAP_EXCEEDED when more than ``cap`` distinct remainders, or more than
    ``cap`` expansions, appear.  A branching state above deterministic
    cycles only leaves finitely many expansions.

    The remainders that earlier counts on the context decided are not
    walked again: the count explores the undecided ones alone (more than
    ``cap`` of them are CAP_EXCEEDED at once), decides them from the
    decided ones below, and reads the number of expansions of x from the
    map, which holds every remainder x reaches: only a map of more than
    ``cap`` remainders is walked from x, over its stored moves.
    """
    if cap < 0:
        raise ValueError(f"state cap must be nonnegative, got {cap}")

    def run(root, rmap):
        count, moves, tails = rmap.count, rmap.moves, rmap.tails
        if root not in count:
            succ = explore([root], lambda v: [(d, w) for d, w in moves(v) if w not in count], cap)
            if succ is None:
                return ExpansionCount(CAP_EXCEEDED)
            rmap.decide(succ)
        if len(rmap.ids) > cap and explore([root], moves, cap) is None:
            return ExpansionCount(CAP_EXCEEDED)
        k = count[root]
        if k == math.inf:
            return ExpansionCount(INFINITE_CYCLE)
        if k > cap:
            return ExpansionCount(CAP_EXCEEDED)
        # depth first, least digit first, down to the cycle ids, so no path
        # is a prefix of another and the witnesses come out sorted.  Each is
        # in canonical form: its path's last digit enters the cycle from off
        # it, so differs from the cycle's digit into that id (the move back
        # from v by d is (v + d)/q), and a cycle of distinct remainders reads
        # a primitive word
        witnesses = []
        stack = [(root, ())]
        while stack:
            v, head = stack.pop()
            path = list(head)
            while v not in tails:
                out = moves(v)
                if len(out) > 1:
                    head = tuple(path)
                    stack.extend((w, head + (d,)) for d, w in reversed(out[1:]))
                d, v = out[0]
                path.append(d)
            witnesses.append(EpSeq._canonical(tuple(path), tails[v]))
        return ExpansionCount(EXACT, k, tuple(witnesses))

    return _walk(ctx, x, run)


# --- admissibility filters for tail families ---------------------------------

STRICT, WEAK = "STRICT", "WEAK"


def _start_ties(ctx):
    """Tie set of the tail conditions before the tail's first digit.

    Checked tails start at offset 0, upper and lower.  A splice condition
    ``w+[k:] c <= alpha`` (w the alpha period, w[k-1] < M) is settled by its
    fixed head unless the head equals alpha's prefix; then it is one more
    upper tie, at offset N-k.  No head exceeds that prefix: the base's
    greedy word is beta = w+ 0^inf, the head is beta[k:N] and the prefix
    w[:N-k] is beta's, so a larger head would make shift(beta, k) > beta.
    """
    M, w = ctx.M, ctx.alpha_word()
    N = len(w)
    upper = {0}
    for k in range(1, N):
        if w[k - 1] < M and dg.word_plus(w[k:], M) == w[:N - k]:
            upper.add(N - k)
    return frozenset(upper), frozenset({0})


def f_family_filter(ctx, c, strictness=WEAK):
    """Admissibility of a tail sequence for the exact-count witnesses.

    Three families of lexicographic bounds against alpha: every tail of c
    after a digit below M (and at the start) stays below alpha; every
    reflected tail after a positive digit stays below alpha; and alpha's own
    tail spliced with c (incremented period tail followed by c) stays below
    alpha wherever the period digit is below M.  STRICT demands strict
    inequalities, WEAK allows equality.  Decided by one run of the follower
    automaton from the tie set ``_start_ties`` over the preperiod and one
    period, and ``LexAutomaton.periodic_ok`` on the ties the run leaves.
    """
    strict = dg.strict_mode(strictness, STRICT, WEAK)
    ctx.require_graph_class()
    dg.check_alphabet(c.pre + c.per, ctx.M)
    auto = LexAutomaton(ctx.M, ctx.alpha_word())
    state = auto.run(_start_ties(ctx), c.pre + c.per)
    return state is not None and auto.periodic_ok(state, c.per, strict)


def default_tail(ctx, strictness=STRICT):
    """Lexicographically least admissible periodic tail in witness normal form.

    Candidates are the purely periodic sequences ``(u)`` whose period word u
    starts with the reflected alpha period and has length N..2N (N the
    alpha period).  One depth-first walk, least digit first, visits these
    words from the reflected period on, each prefix once, on the admissible
    part of the follower automaton (good states for STRICT, alive ones for
    WEAK) explored once from the state after ``_start_ties`` and the
    reflected period; a word is pruned once its state leaves that part (no
    admissible tail extends it), or once it exceeds the best tail's prefix.
    A word whose state passes ``LexAutomaton.periodic_ok`` is a candidate;
    one below the best becomes the best and empties the stack, whose words
    all exceed it at the first digit where they differ.  When the start
    state is outside the part, ValueError says that no admissible tail
    starting with the reflected period exists, before any search.  Past
    ``TAIL_NODE_BUDGET`` nodes the walk raises ``TailSearchBudgetError`` at
    the length of the word it was about to visit; the one refusal after it,
    that no tail lies within the period cap, is reached by no base tried: on
    all 1,271 graph-class bases with a finite beta of length up to 8
    (M <= 2) or 5 (M = 3, 4), a WEAK tail exists, and the STRICT search
    either finds one or is refused because none exists.

    The default STRICT filter is what makes the exact-count witnesses exact;
    weak tails may put the remainder orbit on the switch boundary and blow
    the count up to infinity.
    """
    ctx.require_graph_class()
    M, w = ctx.M, ctx.alpha_word()
    N = len(w)
    strict = dg.strict_mode(strictness, STRICT, WEAK)
    auto = LexAutomaton(M, w)
    rw = auto.mirror
    state = auto.run(_start_ties(ctx), rw)
    part = {} if state is None else auto.admissible(strict, state)
    if state not in part:
        raise ValueError(f"an admissible {strictness} tail that starts with the reflected period "
                         "does not exist for this base")

    nodes, best = 0, None
    stack = [(rw, state, False)]
    while stack:
        word, cur, tied = stack.pop()
        if nodes == TAIL_NODE_BUDGET:
            raise TailSearchBudgetError(nodes, len(word), 2 * N)
        nodes += 1
        if auto.periodic_ok(cur, word, strict):
            c = EpSeq((), word)
            if best is None or dg.lex_cmp(c, best) == dg.LT:
                best, tied = c, True
                stack.clear()
        if len(word) < 2 * N:
            top = best.digit(len(word)) if tied else M
            for d, nxt in reversed(part[cur]):  # pushed high to low: popped low first
                if d <= top:
                    stack.append((word + (d,), nxt, tied and d == top))
    if best is None:
        raise ValueError("no admissible periodic tail within the period cap")
    return best


def build_witness_xm(ctx, m, c):
    """A point with exactly m expansions, plus the m expansions themselves.

    The point is the value of ``1 0^((m-1)N) c``, for a tail c that passes
    ``f_family_filter`` (``default_tail`` is one); its other expansions
    trade the leading 1 for j full alpha periods, the incremented period,
    and a shortened zero block, j = 0..m-2.  The m expansions hold about
    m^2 N / 2 digits, so a zero block (m - 1) N longer than
    ``WITNESS_ZERO_BOUND`` is refused (SearchBoundError) before any is built.
    """
    ctx.require_graph_class()
    if m < 1:
        raise ValueError("need m >= 1")
    N = ctx.n_period
    if (m - 1) * N > WITNESS_ZERO_BOUND:
        raise SearchBoundError(f"a witness with {m} expansions needs {(m - 1) * N} zeros after "
                               f"its leading 1, more than {WITNESS_ZERO_BOUND}")
    if not f_family_filter(ctx, c, WEAK):
        raise ValueError(f"tail {dg.format_seq(c)} fails the admissibility filter")
    w = ctx.alpha_word()
    given = EpSeq((1,) + (0,) * ((m - 1) * N) + c.pre, c.per)
    x = value_of_sequence(ctx.field, given)
    expansions = [given]
    for j in range(m - 1):
        pre = (0,) + w * j + dg.word_plus(w, ctx.M) + (0,) * ((m - 2 - j) * N) + c.pre
        expansions.append(EpSeq(pre, c.per))
    return x, tuple(expansions)

