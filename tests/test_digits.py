import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_context
from univoque import digits as dg
from univoque.digits import EpSeq, BaseClass, LexAutomaton
from univoque.walk import alive, explore, orbit


def seq(text):
    return dg.parse_seq(text)


def test_canonical_period_is_primitive():
    assert EpSeq((), (1, 0, 1, 0)) == EpSeq((), (1, 0))
    assert EpSeq((1, 1), (0, 0, 0)) == EpSeq((1, 1), (0,))


def test_canonical_preperiod_is_minimal():
    assert EpSeq((1, 1, 1, 0), (0,)) == EpSeq((1, 1, 1), (0,))
    assert EpSeq((1, 0), (1, 0)) == EpSeq((), (1, 0))
    # canonicalizing twice changes nothing
    s = EpSeq((0, 1, 1, 0, 1), (1, 0, 1))
    assert EpSeq(s.pre, s.per) == s


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=6), st.lists(st.integers(0, 2), min_size=1, max_size=6),
       st.integers(0, 14))
def test_canonical_form_random(head, per, repeats):
    # a preperiod ending in copies of the period folds into a rotated period
    pre = head + (per * 3)[:repeats]
    s = EpSeq(pre, per)
    n = len(pre) + 3 * len(per)
    assert dg.prefix(s, n) == tuple(pre + per * n)[:n]
    assert not s.pre or s.pre[-1] != s.per[-1]
    k = len(s.per)
    assert all(s.per != s.per[:p] * (k // p) for p in range(1, k) if k % p == 0)


def test_equality_is_structural():
    assert seq("111(0)") == seq("1110(0)")
    assert seq("(10)") != seq("(01)")
    assert hash(seq("111(0)")) == hash(seq("11100(0)"))


def test_grammar_roundtrip():
    for text in ["111(0)", "(110)", "0(01)", "3,12,0(5,1)", "(1)", "(10,)", "12,(0)", "3(12,5)"]:
        assert dg.format_seq(seq(text)) == text
    # a lone digit above 9 ends in a comma: "10" is one and zero
    assert seq("(10,)") == seq("(10,10)") != seq("(10)")
    assert seq("111") == seq("111(0)")
    assert seq("(110)^") == seq("(110)")
    assert seq("0(10)") == seq("(01)")     # canonical form absorbs the preperiod
    with pytest.raises(ValueError):
        seq("1(")
    with pytest.raises(ValueError):
        seq("")
    for bad in ("(,)", "(10,,)"):
        with pytest.raises(ValueError, match="malformed"):
            seq(bad)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=4),
       st.lists(st.integers(0, 30), min_size=1, max_size=4))
def test_printed_sequence_reads_back(pre, per):
    s = EpSeq(pre, per)
    assert dg.parse_seq(dg.format_seq(s)) == s
    assert dg.parse_word(dg.format_word(s.per), "") == s.per


def test_reflect_examples():
    assert dg.reflect((1, 1, 0), 1) == (0, 0, 1)
    assert dg.reflect(seq("(10)"), 1) == seq("(01)")
    with pytest.raises(dg.AlphabetError):
        dg.reflect((2,), 1)


def test_reflect_is_involution():
    rng = random.Random(7)
    for _ in range(200):
        M = rng.randint(1, 5)
        s = EpSeq(tuple(rng.randint(0, M) for _ in range(rng.randint(0, 5))),
                  tuple(rng.randint(0, M) for _ in range(rng.randint(1, 5))))
        assert dg.reflect(dg.reflect(s, M), M) == s


def test_shift_examples():
    assert dg.shift(seq("(110)"), 1) == seq("(101)")
    assert dg.shift(seq("01(110)"), 2) == seq("(110)")
    s = seq("10(01)")
    assert dg.shift(s, 0) == s


@pytest.mark.parametrize("literal", ["1(0)", "(110)"])
def test_digit_refuses_a_negative_position(literal):
    # a preperiod used to read its last digit there, a bare period to raise
    # IndexError
    s = seq(literal)
    assert s.digit(0) == 1
    with pytest.raises(ValueError, match="digit position must be nonnegative"):
        s.digit(-1)


def assert_canonical(s):
    assert dg._primitive(s.per) == s.per
    assert not s.pre or s.pre[-1] != s.per[-1]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_shift_and_reflect_stay_canonical(M, data):
    # a nonempty preperiod and a period passed as a power of a shorter word
    digits = st.integers(0, M)
    pre = data.draw(st.lists(digits, min_size=1, max_size=6))
    per = data.draw(st.lists(digits, min_size=1, max_size=4)) * data.draw(st.integers(1, 3))
    s = EpSeq(pre, per)
    n = data.draw(st.integers(0, len(pre) + 2 * len(per)))
    # past the preperiod and n digits, the tail of s is a rotation of its
    # period, passed here twice over
    m = n + len(s.pre) + len(per)
    k = (m - len(s.pre)) % len(s.per)
    shifted = dg.shift(s, n)
    assert shifted == EpSeq(dg.prefix(s, m)[n:], (s.per[k:] + s.per[:k]) * 2)
    assert_canonical(shifted)
    reflected = dg.reflect(s, M)
    assert reflected == EpSeq([M - d for d in pre], [M - d for d in per])
    assert_canonical(reflected)


def test_lex_cmp_examples():
    assert dg.lex_cmp(seq("(10)"), seq("(1100)")) == dg.LT
    s = seq("11(01)")
    assert dg.lex_cmp(s, s) == dg.EQ
    assert dg.lex_cmp(seq("(0)"), seq("0001(0100)")) == dg.LT


def test_lex_cmp_total_order_and_reflection():
    rng = random.Random(11)
    pool = []
    for _ in range(40):
        M = 2
        pool.append(EpSeq(tuple(rng.randint(0, M) for _ in range(rng.randint(0, 4))),
                          tuple(rng.randint(0, M) for _ in range(rng.randint(1, 4)))))
    for a in pool:
        for b in pool:
            c = dg.lex_cmp(a, b)
            assert c == -dg.lex_cmp(b, a)
            assert (c == dg.EQ) == (a == b)
            # reflection reverses the order
            assert dg.lex_cmp(dg.reflect(b, 2), dg.reflect(a, 2)) == c
    # transitivity on sorted triples
    import functools
    ordered = sorted(pool, key=functools.cmp_to_key(dg.lex_cmp))
    for x, y in zip(ordered, ordered[1:]):
        assert dg.lex_cmp(x, y) != dg.GT


# --- lex_cmp and the shifted-tail predicates against digit loops --------------

def digit_at(s, i):
    return s.pre[i] if i < len(s.pre) else s.per[(i - len(s.pre)) % len(s.per)]


def loop_cmp(f, g, horizon):
    """Lexicographic order of two digit functions, one digit at a time."""
    for i in range(horizon):
        if f(i) != g(i):
            return -1 if f(i) < g(i) else 1
    return 0


def horizon(a, b):
    """Twice the naive window: max preperiod plus the lcm of the periods."""
    return 2 * (max(len(a.pre), len(b.pre)) + math.lcm(len(a.per), len(b.per)))


def reference_cmp(a, b):
    return loop_cmp(lambda i: digit_at(a, i), lambda i: digit_at(b, i), horizon(a, b))


@st.composite
def near_pairs(draw):
    """Two EpSeq that share a long prefix: b repeats the k digits of a after
    a common head as its period, possibly with one digit changed."""
    M = draw(st.integers(1, 3))
    digits = st.integers(0, M)
    p = draw(st.sampled_from([1, 2, 3, 5, 8, 97, 100]))
    a = EpSeq(draw(st.lists(digits, max_size=6)), draw(st.lists(digits, min_size=p, max_size=p)))
    head = draw(st.integers(0, 8))
    r = draw(st.sampled_from([1, 2, 3, 4, 7, 97, 100, 101]))
    per = list(dg.prefix(a, head + r)[head:])
    if draw(st.booleans()):
        per[draw(st.integers(0, r - 1))] = draw(digits)
    return a, EpSeq(dg.prefix(a, head), per)


@settings(max_examples=300, deadline=None)
@given(near_pairs())
def test_lex_cmp_matches_digit_loop(pair):
    a, b = pair
    assert dg.lex_cmp(a, b) == reference_cmp(a, b), (a, b)
    assert dg.lex_cmp(b, a) == reference_cmp(b, a), (a, b)
    u, v = dg.common_prefixes([a, b, dg.ZERO])[:2]
    assert (u > v) - (u < v) == reference_cmp(a, b), (a, b)


def fine_wilf_word(p, r):
    """A two-letter word of length p + r - 2 with periods p and r, for
    coprime p, r: the positions joined by the two periods form two classes."""
    n = p + r - 2
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i in range(n):
        for j in (i + p, i + r):
            if j < n:
                root[find(j)] = find(i)
    first = find(0)
    return tuple(int(find(i) != first) for i in range(n))


def test_lex_cmp_needs_the_whole_fine_wilf_window():
    # periodic sequences of coprime periods p and r that agree on
    # p + r - 2 digits and differ at the last digit of the window
    for p, r in ((2, 3), (5, 8), (97, 100), (100, 97)):
        w = fine_wilf_word(p, r)
        a, b = EpSeq((), w[:p]), EpSeq((), w[:r])
        assert len(a.per) == p and len(b.per) == r
        assert dg.prefix(a, p + r - 2) == dg.prefix(b, p + r - 2)
        assert dg.lex_cmp(a, b) == reference_cmp(a, b) != dg.EQ
        u, v = dg.common_prefixes([a, b])
        assert (u > v) - (u < v) == reference_cmp(a, b)
        for head in ((0,), (2, 1, 0)):
            c, d = EpSeq(head + w[:2], w[2:p] + w[:2]), EpSeq(head, w[:r])
            assert dg.lex_cmp(c, d) == reference_cmp(c, d), (p, r, head)


def reference_bounded(s, bound, M, upper, lower, strict):
    """``_shifts_bounded`` by shifting and reflecting digit functions, over
    every shift up to twice the preperiod plus period of ``s``."""
    n_max = 2 * (len(s.pre) + len(s.per))
    cap = horizon(s, bound)
    for n in range(1, n_max + 1):
        d = digit_at(s, n - 1)
        tails = []
        if upper and d < M:
            tails.append(lambda i, n=n: digit_at(s, n + i))
        if lower and d > 0:
            tails.append(lambda i, n=n: M - digit_at(s, n + i))
        for tail in tails:
            c = loop_cmp(tail, lambda i: digit_at(bound, i), cap)
            if c > 0 or (strict and c == 0):
                return False
    return True


def reference_classify(M, s):
    if not reference_bounded(s, s, M, upper=False, lower=True, strict=False):
        return BaseClass.NOT_IN_V
    if not reference_bounded(s, s, M, upper=False, lower=True, strict=True):
        return BaseClass.IN_V_NOT_CLOSURE_U
    beta = s
    if not s.pre and s.per[-1] < M:
        beta = EpSeq(s.per[:-1] + (s.per[-1] + 1,), (0,))
    if reference_bounded(beta, beta, M, upper=False, lower=True, strict=True):
        return BaseClass.IN_U
    return BaseClass.IN_CLOSURE_U_NOT_U


def small_sequences(M):
    """Every canonical EpSeq over 0..M with |pre| <= 2 and |per| <= 3."""
    words = [w for n in range(4) for w in itertools.product(range(M + 1), repeat=n)]
    return sorted({EpSeq(pre, per) for pre in words if len(pre) <= 2 for per in words if per},
                  key=lambda s: (s.pre, s.per))


def first_difference(a, b):
    """The first position where a and b differ, None when they are equal."""
    return next((i for i in range(horizon(a, b)) if digit_at(a, i) != digit_at(b, i)), None)


@pytest.mark.parametrize("M", [1, 2])
def test_lex_cmp_on_every_small_pair(M, monkeypatch):
    # lex_cmp decides a pair at its first digit, at equality, inside the two
    # heads pre + per, or over the window; the window is read exactly on the
    # pairs whose first difference lies past the shorter head, and every exit
    # is taken
    seqs = small_sequences(M)
    windows = []
    window = dg._window
    monkeypatch.setattr(dg, "_window", lambda a, b: windows.append((a, b)) or window(a, b))
    exits = dict.fromkeys(("first digit", "equal", "heads", "window"), 0)
    for a in seqs:
        for b in seqs:
            windows.clear()
            assert dg.lex_cmp(a, b) == reference_cmp(a, b), (a, b)
            i = first_difference(a, b)
            exit = ("equal" if i is None else "first digit" if i == 0 else
                    "heads" if i < min(len(a.pre + a.per), len(b.pre + b.per)) else "window")
            exits[exit] += 1
            assert bool(windows) == (exit == "window"), (a, b, exit)
    assert all(exits.values()), exits


@pytest.mark.parametrize("M", [1, 2])
def test_shifts_bounded_on_every_small_sequence(M):
    # all six flag combinations, each sequence bounded by itself and by
    # every quasi-greedy sequence of the set
    seqs = small_sequences(M)
    bounds = [t for t in seqs if dg.is_quasigreedy_alpha(M, t)]
    flags = [(upper, lower, strict) for upper, lower in ((True, False), (False, True), (True, True))
             for strict in (True, False)]
    for s in seqs:
        for bound in [s] + bounds:
            for flag in flags:
                assert dg._shifts_bounded(s, bound, M, *flag) == \
                    reference_bounded(s, bound, M, *flag), (s, bound, flag)


def test_predicates_match_digit_loops():
    rng = random.Random(41)
    seen = set()
    for M in range(1, 10):
        for _ in range(150):
            pre, per = ([rng.randint(0, M) for _ in range(k)]
                        for k in (rng.randint(0, 4), rng.randint(1, 6)))
            s = EpSeq(pre, per)
            greedy = not s.is_zero() and reference_bounded(s, s, M, True, False, True)
            quasi = not s.is_finite() and reference_bounded(s, s, M, True, False, False)
            assert dg.is_greedy_beta(M, s) == greedy, (M, s)
            assert dg.is_quasigreedy_alpha(M, s) == quasi, (M, s)
            # the greatest rotation of a period is quasi-greedy
            per = s.per
            alpha = EpSeq((), max(per[k:] + per[:k] for k in range(len(per))))
            cls = dg.classify_alpha(M, alpha)
            assert cls is reference_classify(M, alpha), (M, alpha)
            for strict, mode in ((True, dg.UNIQUE), (False, dg.DOUBLY_INFINITE)):
                assert dg.is_unique_expansion_seq(alpha, s, M, mode) == \
                    reference_bounded(s, alpha, M, True, True, strict), (M, alpha, s, mode)
            seen.update((greedy, quasi, cls))
    assert {True, False, *BaseClass} <= seen


def test_greedy_beta_predicate():
    assert dg.is_greedy_beta(1, seq("111(0)"))
    assert dg.is_greedy_beta(1, seq("1(0)"))          # the base-1 boundary word
    assert dg.is_greedy_beta(1, seq("101(0)"))        # greedy for the root of t^3-t^2-1
    assert not dg.is_greedy_beta(1, seq("011(0)"))
    assert not dg.is_greedy_beta(1, seq("(10)"))      # tail repeats the whole sequence
    assert not dg.is_greedy_beta(1, seq("(0)"))


def test_quasigreedy_alpha_predicate():
    assert dg.is_quasigreedy_alpha(1, seq("(110)"))
    assert dg.is_quasigreedy_alpha(1, seq("(10)"))
    assert not dg.is_quasigreedy_alpha(1, seq("(011)"))
    assert not dg.is_quasigreedy_alpha(1, seq("110(0)"))   # finite, hence not quasi-greedy
    assert dg.is_quasigreedy_alpha(1, seq("(0)"))


def test_quasigreedy_bound_holds_at_every_position():
    rng = random.Random(13)
    found = 0
    while found < 50:
        M = rng.randint(1, 3)
        s = EpSeq((), tuple(rng.randint(0, M) for _ in range(rng.randint(1, 6))))
        if not dg.is_quasigreedy_alpha(M, s):
            continue
        found += 1
        for n in range(1, len(s.pre) + 2 * len(s.per) + 1):
            assert dg.lex_cmp(dg.shift(s, n), s) != dg.GT


def test_classify_alpha():
    assert dg.classify_alpha(1, seq("(110)")) is BaseClass.IN_CLOSURE_U_NOT_U
    assert dg.classify_alpha(1, seq("(10)")) is BaseClass.IN_V_NOT_CLOSURE_U
    assert dg.classify_alpha(1, seq("(1)")) is BaseClass.IN_U
    assert dg.classify_alpha(1, seq("(100)")) is BaseClass.NOT_IN_V
    assert dg.classify_alpha(2, seq("(21)")) is BaseClass.IN_CLOSURE_U_NOT_U
    with pytest.raises(ValueError):
        dg.classify_alpha(1, seq("(011)"))


def test_classify_monotone_in_strictness():
    # the classes are nested: U passes the closure test, closure passes the V test
    rng = random.Random(17)
    seen = set()
    while len(seen) < 60:
        M = rng.randint(1, 4)
        s = EpSeq((), tuple(rng.randint(0, M) for _ in range(rng.randint(1, 6))))
        if not dg.is_quasigreedy_alpha(M, s):
            continue
        cls = dg.classify_alpha(M, s)
        seen.add((M, s, cls))
        strict = dg._shifts_bounded(s, s, M, upper=False, lower=True, strict=True)
        weak = dg._shifts_bounded(s, s, M, upper=False, lower=True, strict=False)
        if cls in (BaseClass.IN_U, BaseClass.IN_CLOSURE_U_NOT_U):
            assert strict and weak
        if cls is BaseClass.IN_V_NOT_CLOSURE_U:
            assert weak and not strict


def test_unique_expansion_seq():
    alpha = seq("(110)")
    assert dg.is_unique_expansion_seq(alpha, seq("(0)"), 1, dg.UNIQUE)
    assert not dg.is_unique_expansion_seq(alpha, seq("(110)"), 1, dg.UNIQUE)
    assert dg.is_unique_expansion_seq(alpha, seq("(110)"), 1, dg.DOUBLY_INFINITE)
    # strict implies weak
    assert dg.is_unique_expansion_seq(alpha, seq("(00101)"), 1, dg.UNIQUE)
    assert dg.is_unique_expansion_seq(alpha, seq("(00101)"), 1, dg.DOUBLY_INFINITE)


def test_finite_infinite_doubly_infinite():
    assert seq("111(0)").is_finite()
    assert not seq("(110)").is_finite()


def test_beta_alpha_conversion():
    assert dg.alpha_from_beta(1, seq("111(0)")) == seq("(110)")
    assert dg.beta_from_alpha(1, seq("(110)")) == seq("111(0)")
    assert dg.beta_from_alpha(2, seq("(2)")) == seq("(2)")   # all-digits-M stays infinite
    assert dg.alpha_from_beta(1, seq("(1)")) == seq("(1)")


# --- the follower automaton against literal references -----------------------

def reachable(auto, *roots):
    """The successor map of every state reachable from roots, or from start()
    when none is given."""
    return explore(roots or (auto.start(),),
                   lambda s: [(d, t) for d in range(auto.M + 1)
                              if (t := auto.step(s, d)) is not None])


def fixpoint_good_states(auto, *roots):
    """Reference: the greatest fixpoint of "some finite continuation through
    good states breaks every tie held now", started from the alive states."""
    succ = reachable(auto, *roots)

    def can_discharge(s, allowed):
        seen = {(s, s[0], s[1])}
        frontier = [(s, s[0], s[1])]
        while frontier:
            cur, au, al = frontier.pop()
            if not au and not al:
                return True
            for d, t in succ[cur]:
                if t not in allowed:
                    continue
                nau = frozenset((i + 1) % auto.N for i in au if d == auto.alpha[i])
                nal = frozenset((i + 1) % auto.N for i in al if d == auto.M - auto.alpha[i])
                key = (t, nau, nal)
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
        return False

    good = alive(succ)
    changed = True
    while changed:
        changed = False
        for s in list(good):
            if not can_discharge(s, good):
                good.discard(s)
                changed = True
    return good


def assert_good_states_match(M, w, *roots):
    auto = LexAutomaton(M, w)
    for rs in ((), roots):
        assert set(auto.admissible(True, *rs)) == fixpoint_good_states(auto, *rs), (M, w, rs)


BOTH_ZERO_TIES = (frozenset({0}), frozenset({0}))


def test_good_states_match_fixpoint(battery):
    for ctx in battery:
        w = ctx.alpha_word()
        wp = dg.word_plus(w, ctx.M)
        for word in (w, wp + dg.word_reflect(wp, ctx.M)):     # the base and its successor
            assert_good_states_match(ctx.M, word, BOTH_ZERO_TIES)


def test_good_states_match_fixpoint_along_chain():
    w = (1, 1, 0)                                       # alpha period of 111(0)
    for _depth in range(7):
        assert_good_states_match(1, w, BOTH_ZERO_TIES)
        wp = dg.word_plus(w, 1)
        w = wp + dg.word_reflect(wp, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_good_states_match_fixpoint_random(seed, data):
    ctx = random_context(random.Random(seed))
    w = ctx.alpha_word()
    offsets = st.frozensets(st.integers(0, len(w) - 1), max_size=3)
    assert_good_states_match(ctx.M, w, (data.draw(offsets), data.draw(offsets)))


@st.composite
def alpha_and_sequence(draw):
    """A purely periodic quasi-greedy alpha (the greatest rotation of a
    primitive word) and an eventually periodic sequence; half of the
    sequences have a rotation of alpha's period or of its reflection as
    period, so that ties with alpha survive forever."""
    M = draw(st.integers(1, 4))
    digits = st.integers(0, M)
    per = EpSeq((), draw(st.lists(digits, min_size=1, max_size=6))).per
    alpha = EpSeq((), max(per[k:] + per[:k] for k in range(len(per))))
    assert dg.is_quasigreedy_alpha(M, alpha)
    pre = tuple(draw(st.lists(digits, max_size=4)))
    if draw(st.booleans()):
        piece = draw(st.sampled_from([alpha.per, dg.word_reflect(alpha.per, M)]))
        k = draw(st.integers(0, len(piece) - 1))
        c_per = piece[k:] + piece[:k]
    else:
        c_per = tuple(draw(st.lists(digits, min_size=1, max_size=5)))
    return M, alpha, EpSeq(pre, c_per)


def orbit_periodic_ok(auto, state, per, strict):
    """Reference: the period-boundary check the window check replaced.  The
    state at a period boundary determines the rest of the run, so the
    boundary states are followed, one period per move, until one repeats and
    closes a cycle.  Weak admissibility holds iff the run never dies; strict
    also rejects a tie that survives the cycle."""
    boundaries, _periods, k = orbit(
        state, lambda s: None if (t := auto.run(s, per)) is None else (per, t))
    if k is None:
        return False
    if not strict:
        return True
    tail = EpSeq((), per)
    bounds = (tail, dg.reflect(tail, auto.M))       # (upper, lower)
    return not any(EpSeq((), auto.alpha[i:] + auto.alpha[:i]) == bound
                   for s in boundaries[k:] for ties, bound in zip(s, bounds) for i in ties)


def random_ties(rng, N):
    return tuple(frozenset(rng.sample(range(N), rng.randint(0, min(3, N)))) for _ in "ul")


def alpha_rotations(M, w):
    """Every rotation of alpha's period and of its reflection: the periods
    along which ties survive forever."""
    return [p[k:] + p[:k] for p in (w, dg.word_reflect(w, M)) for k in range(len(p))]


def sweep_periods(rng, M, w):
    """The rotations of alpha and four random words of length 1..2N."""
    lengths = [rng.randint(1, 2 * len(w)) for _ in range(4)]
    return alpha_rotations(M, w) + [tuple(rng.randint(0, M) for _ in range(n)) for n in lengths]


def assert_periodic_ok_matches_orbit(M, w, rng, state_cap=60):
    auto = LexAutomaton(M, w)
    states = list(reachable(auto))
    if len(states) > state_cap:
        states = rng.sample(states, state_cap)
    states += [random_ties(rng, len(w)) for _ in range(5)]
    for per in sweep_periods(rng, M, w):
        for state in states:
            after = auto.run(state, per)
            for strict in (True, False):
                assert (after is not None and auto.periodic_ok(after, per, strict)) == \
                    orbit_periodic_ok(auto, state, per, strict), (M, w, state, per, strict)


def test_periodic_ok_matches_orbit_reference(battery):
    # the battery, the 111(0) chain to depth 4, 30 random bases and alpha =
    # (M): reachable and random tie sets against rotations of alpha and
    # random periods
    bases = [(ctx.M, ctx.alpha_word()) for ctx in battery]
    w = (1, 1, 0)                                       # alpha period of 111(0)
    for _depth in range(5):
        bases.append((1, w))
        wp = dg.word_plus(w, 1)
        w = wp + dg.word_reflect(wp, 1)
    contexts = random.Random(3)
    bases += [(ctx.M, ctx.alpha_word()) for ctx in (random_context(contexts) for _ in range(30))]
    # alpha = (M) is the one alpha that ends in M; elsewhere a tie that
    # survives forever also puts a tail equal to alpha inside the period
    bases += [(1, (1,)), (2, (2,))]
    rng = random.Random(1)
    for M, w in bases:
        assert_periodic_ok_matches_orbit(M, w, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_periodic_ok_matches_orbit_reference_random(seed, data):
    ctx = random_context(random.Random(seed))
    M, w = ctx.M, ctx.alpha_word()
    auto = LexAutomaton(M, w)
    offsets = st.frozensets(st.integers(0, len(w) - 1), max_size=3)
    state = data.draw(st.sampled_from(list(reachable(auto))) | st.tuples(offsets, offsets))
    per = data.draw(st.sampled_from(alpha_rotations(M, w)) |
                    st.lists(st.integers(0, M), min_size=1, max_size=2 * len(w)).map(tuple))
    after = auto.run(state, per)
    for strict in (True, False):
        assert (after is not None and auto.periodic_ok(after, per, strict)) == \
            orbit_periodic_ok(auto, state, per, strict)


def test_start_is_in_both_admissible_parts(battery):
    # reading 0s from start() runs to the good cycle ({0}, {}); every target
    # of a part is one of its keys
    rng = random.Random(4)
    contexts = list(battery) + [random_context(rng) for _ in range(100)]
    for ctx in contexts:
        auto = LexAutomaton(ctx.M, ctx.alpha_word())
        for strict in (True, False):
            part = auto.admissible(strict)
            assert auto.start() in part, (ctx.beta, strict)
            assert all(t in part for out in part.values() for _d, t in out), (ctx.beta, strict)
        assert set(auto.admissible(True)) <= set(auto.admissible(False))


@settings(max_examples=300, deadline=None)
@given(alpha_and_sequence())
def test_automaton_run_matches_window_predicate(case):
    # the run over the preperiod and one period, with periodic_ok on the
    # ties it leaves, against the window predicate, which shares no code
    # with either
    M, alpha, c = case
    auto = LexAutomaton(M, alpha.per)
    state = auto.run(auto.start(), c.pre + c.per)
    for mode, strict in ((dg.UNIQUE, True), (dg.DOUBLY_INFINITE, False)):
        accepted = state is not None and auto.periodic_ok(state, c.per, strict)
        assert accepted == dg.is_unique_expansion_seq(alpha, c, M, mode), (mode, alpha, c)


@pytest.mark.parametrize("op,error,message", [
    (lambda: dg.word_plus((), 1), dg.AlphabetError, "cannot increment last digit of () within 0..1"),
    (lambda: dg.word_plus((0, 1), 1), dg.AlphabetError,
     "cannot increment last digit of (0, 1) within 0..1"),
    (lambda: dg.word_minus((1, 0)), dg.AlphabetError, "cannot decrement last digit of (1, 0)"),
    (lambda: EpSeq((1,), ()), ValueError, "period must be nonempty"),
    (lambda: EpSeq((1, -1), (0,)), ValueError, "digits must be nonnegative"),
    (lambda: EpSeq((), (0, -1)), ValueError, "digits must be nonnegative"),
    (lambda: dg.check_alphabet((0, 5, -1), 2), dg.AlphabetError, "digit 5 outside alphabet 0..2"),
    (lambda: dg.reflect((-1, 3), 2), dg.AlphabetError, "digit -1 outside alphabet 0..2"),
    (lambda: setattr(seq("1(0)"), "pre", ()), AttributeError, "EpSeq is immutable"),
    (lambda: seq("1(10)").finite_word(), ValueError, "EpSeq('1(10)') is not finite"),
    (lambda: dg.shift(seq("1(0)"), -1), ValueError, "shift amount must be nonnegative"),
    (lambda: dg.is_unique_expansion_seq(seq("1(0)"), seq("(10)"), 1), ValueError,
     "context sequence is not quasi-greedy"),
], ids=["plus-empty", "plus-top", "minus-zero", "empty-period", "negative-digit",
        "negative-period-digit", "first-digit-outside", "reflect-outside", "immutable",
        "not-finite", "negative-shift", "not-quasi-greedy"])
def test_digit_layer_refusals(op, error, message):
    with pytest.raises(error) as info:
        op()
    assert str(info.value) == message
