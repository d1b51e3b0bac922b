import functools
import itertools
import random
import signal
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import BATTERY, random_context
from test_reducible import REDUCIBLE
from univoque import digits as dg
from univoque import expansions as ex
from univoque.algebraic import AlgebraicReal, NumberField
from univoque.base import GRAPH_CLASSES, new_base_context, r_chain, special_points, v_successor
from univoque.digits import EpSeq
from univoque.oracle import enumerate_admissible_words
from univoque.walk import tarjan

# the battery plus the two wide-alphabet bases of the benchmark's count workload
COUNT_BASES = BATTERY + [(7, "761(0)"), (9, "981(0)")]


def seq(text):
    return dg.parse_seq(text)


def test_greedy_expand_examples(tribonacci):
    one = tribonacci.value(tribonacci.alpha)
    assert ex.greedy_expand(tribonacci, one, 5) == (1, 1, 1, 0, 0)
    zero = tribonacci.value(dg.ZERO)
    assert ex.greedy_expand(tribonacci, zero, 4) == (0, 0, 0, 0)
    pts = special_points(tribonacci)
    for j in range(1, tribonacci.M + 1):
        assert ex.greedy_expand(tribonacci, pts.value[f"th{j}"], 5) == (j, 0, 0, 0, 0)


def test_greedy_is_maximal(tribonacci):
    # bumping any digit of the greedy prefix overshoots the value
    x = tribonacci.value(seq("(101)"))
    w = ex.greedy_expand(tribonacci, x, 10)
    val = tribonacci.value
    for i in range(10):
        if w[i] < tribonacci.M:
            bumped = w[:i] + (w[i] + 1,)
            assert (val(EpSeq(bumped, (0,))) - x).sign() > 0


def test_greedy_range_check(tribonacci):
    with pytest.raises(ex.RangeError):
        ex.greedy_expand(tribonacci, tribonacci.kappa + 1, 3)


def test_greedy_expand_refuses_a_negative_length(tribonacci):
    # refused before the walk, as the word and depth bounds of walk and oracle
    for x in (tribonacci.q - 1, tribonacci.kappa + 1):
        with pytest.raises(ValueError, match="length must be nonnegative, got -2"):
            ex.greedy_expand(tribonacci, x, -2)


def test_quasi_greedy_examples(tribonacci):
    one = tribonacci.value(tribonacci.alpha)
    assert ex.quasi_greedy_expand(tribonacci, one) == tribonacci.alpha
    pts = special_points(tribonacci)
    N = tribonacci.n_period
    w = tribonacci.alpha_word()
    for i in range(1, N + 1):
        got = ex.quasi_greedy_expand(tribonacci, pts.value[f"a{i}"])
        assert got == EpSeq(w[i - 1:], w)
        assert got == pts.qg_key[f"a{i}"]
    # reflected points have infinite greedy expansions equal to their keys
    for i in range(1, N + 1):
        b = pts.value[f"b{i}"]
        got = ex.quasi_greedy_expand(tribonacci, b)
        assert got == pts.qg_key[f"b{i}"]
        assert ex.greedy_expand(tribonacci, b, 8) == tuple(got.digit(k) for k in range(8))


@pytest.mark.parametrize("literal,bound", [
    ("(10)", 2),        # the remainders close by a repeat
    ("(001)", 3),
    ("1(0)", 1),        # a remainder vanishes
    ("0011(0)", 4),
])
def test_quasi_greedy_step_bound_edge(tribonacci, monkeypatch, literal, bound):
    # a run that closes at its s-th greedy digit returns iff s <= the bound
    x = tribonacci.value(seq(literal))
    monkeypatch.setattr(ex, "QUASI_GREEDY_STEP_BOUND", bound)
    expected = ex.quasi_greedy_expand(tribonacci, x)
    assert tribonacci.value(expected).cmp(x) == 0
    monkeypatch.setattr(ex, "QUASI_GREEDY_STEP_BOUND", bound - 1)
    with pytest.raises(ex.PeriodicityBoundError):
        ex.quasi_greedy_expand(tribonacci, x)


def test_reflected_points_infinite_greedy_4331():
    ctx = new_base_context(4, "4331(0)")
    pts = special_points(ctx)
    assert ex.greedy_expand(ctx, pts.value["b1"], 8) == (0, 1, 1, 4, 0, 1, 1, 4)
    assert ex.quasi_greedy_expand(ctx, pts.value["b1"]) == seq("(0114)")


def test_witness_uniqueness_matches_strict_test(tribonacci):
    c = ex.default_tail(tribonacci)
    for m in (1, 2, 3):
        x, _exps = ex.build_witness_xm(tribonacci, m, c)
        qg = ex.quasi_greedy_expand(tribonacci, x)
        unique = dg.is_unique_expansion_seq(tribonacci.alpha, qg, tribonacci.M, dg.UNIQUE)
        assert unique == (m == 1)


def test_quasi_greedy_round_trip(battery):
    rng = random.Random(37)
    for ctx in battery:
        pts = special_points(ctx)
        for name, val in pts.value.items():
            back = ctx.value(ex.quasi_greedy_expand(ctx, val))
            assert (back - val).sign() == 0, (ctx.beta, name)
        for _ in range(5):
            s = EpSeq(tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(0, 3))),
                      tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(1, 3))))
            x = ctx.value(s)
            assert (ctx.value(ex.quasi_greedy_expand(ctx, x)) - x).sign() == 0


def test_count_expansions_infinite_at_integer_base():
    q2 = new_base_context(2, "2(0)")
    one = q2.value(seq("(1)"))
    assert ex.count_expansions(q2, one).kind == ex.INFINITE_CYCLE
    half = one / 2
    assert ex.count_expansions(q2, half).kind == ex.INFINITE_CYCLE


def test_count_expansions_trivial(tribonacci):
    res = ex.count_expansions(tribonacci, tribonacci.value(dg.ZERO))
    assert res.kind == ex.EXACT and res.count == 1
    assert res.witnesses == (dg.ZERO,)
    res = ex.count_expansions(tribonacci, tribonacci.kappa)
    assert res.count == 1 and res.witnesses == (seq("(1)"),)


def test_unique_count_iff_strict_sequence_test(battery):
    for ctx in battery:
        pts = special_points(ctx)
        for name in ("a1", "b1", "th1", "et1", f"a{ctx.n_period}"):
            val = pts.value[name]
            cnt = ex.count_expansions(ctx, val, cap=20000)
            if cnt.kind != ex.EXACT:
                continue
            qg = ex.quasi_greedy_expand(ctx, val)
            unique = dg.is_unique_expansion_seq(ctx.alpha, qg, ctx.M, dg.UNIQUE)
            assert (cnt.count == 1) == unique, (ctx.beta, name, cnt)


def test_default_tails(tribonacci, base322):
    assert ex.default_tail(tribonacci) == seq("(00101)")
    assert ex.default_tail(base322) == seq("(12313)")
    # the weak search relaxes down to the reflected period itself
    assert ex.default_tail(tribonacci, strictness=ex.WEAK) == seq("(001)")
    assert ex.default_tail(base322, strictness=ex.WEAK) == seq("(123)")


def test_default_tail_failure_modes():
    # every graph-class base with a finite beta of length <= 7 (M <= 2) or
    # <= 5 (M = 3, 4), base 1 left out: the weak search finds a tail on each,
    # so the run of the reflected period, which does not depend on the
    # strictness, never dies; the strict search fails on 26 of them, each
    # time because no admissible strict tail exists at all
    bases = []
    for M in range(1, 5):
        for L in range(1, 8 if M <= 2 else 6):
            for w in itertools.product(range(M + 1), repeat=L):
                beta = EpSeq(w, (0,))
                if (w[-1] and w != (1,) and dg.is_greedy_beta(M, beta)
                        and dg.classify_alpha(M, dg.alpha_from_beta(M, beta)) in GRAPH_CLASSES):
                    bases.append(new_base_context(M, beta))
    assert len(bases) == 845
    none_strict = 0
    for ctx in bases:
        assert ex.f_family_filter(ctx, ex.default_tail(ctx, strictness=ex.WEAK), ex.WEAK)
        try:
            ex.default_tail(ctx)
        except ValueError as e:
            assert str(e) == ("an admissible STRICT tail that starts with the reflected period "
                              "does not exist for this base"), (ctx.M, ctx.beta)
            none_strict += 1
    assert none_strict == 26


def test_default_tail_refuses_when_no_word_passes(tribonacci, monkeypatch):
    # no candidate passes its ties: the walk runs out within the period cap
    monkeypatch.setattr(dg.LexAutomaton, "periodic_ok", lambda self, state, per, strict: False)
    for strictness in (ex.STRICT, ex.WEAK):
        with pytest.raises(ValueError, match=r"^no admissible periodic tail within the period cap$"):
            ex.default_tail(tribonacci, strictness)


def test_filter_examples(tribonacci):
    assert ex.f_family_filter(tribonacci, seq("(001)"), ex.WEAK)
    # the reflection equals the bound exactly
    assert not ex.f_family_filter(tribonacci, seq("(001)"), ex.STRICT)
    assert not ex.f_family_filter(tribonacci, dg.ZERO, ex.WEAK)


def test_filter_splice_holds_along_chain(tribonacci, base322):
    # tails of the weak family stay admissible for every chain element, with
    # the bound still taken at the chain seed
    for base in (tribonacci, base322):
        c = ex.default_tail(base, strictness=ex.WEAK)
        for k in range(0, 3):
            ctx = r_chain(base, k)
            w = ctx.alpha_word()
            for kk in range(1, len(w)):
                if w[kk - 1] < ctx.M:
                    spliced = EpSeq(dg.word_plus(w[kk:], ctx.M) + c.pre, c.per)
                    assert dg.lex_cmp(spliced, base.alpha) != dg.GT, (base.beta, k, kk)


def test_witnesses_exact_counts(tribonacci, base322):
    for ctx in (tribonacci, base322):
        c = ex.default_tail(ctx)
        for m in (1, 2, 3, 4):
            x, exps = ex.build_witness_xm(ctx, m, c)
            assert len(set(exps)) == m
            res = ex.count_expansions(ctx, x)
            assert res.kind == ex.EXACT and res.count == m, (ctx.beta, m, res)
            assert set(res.witnesses) == set(exps)


def test_witness_long_period_base():
    ctx = new_base_context(1, "111001010(0)")    # period 8: bounded tail search
    c = ex.default_tail(ctx)
    x, exps = ex.build_witness_xm(ctx, 3, c)
    res = ex.count_expansions(ctx, x)
    assert res.kind == ex.EXACT and res.count == 3
    assert set(res.witnesses) == set(exps)


def test_witness_rejects_bad_tail(tribonacci):
    with pytest.raises(ValueError):
        ex.build_witness_xm(tribonacci, 2, dg.ZERO)


def test_count_reflection_symmetry(tribonacci, base322):
    rng = random.Random(41)
    q2 = new_base_context(2, "2(0)")
    for ctx in (tribonacci, base322, q2):
        for _ in range(7):
            s = EpSeq(tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(0, 3))),
                      tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(1, 3))))
            x = ctx.value(s)
            a = ex.count_expansions(ctx, x, cap=20000)
            b = ex.count_expansions(ctx, ctx.kappa - x, cap=20000)
            assert a.kind == b.kind and a.count == b.count, (ctx.beta, s)
            if a.kind == ex.EXACT:
                reflected = {dg.reflect(wit, ctx.M) for wit in a.witnesses}
                assert reflected == set(b.witnesses)


def test_scaling_preserves_counts(tribonacci):
    # dividing by the base prefixes a forced zero digit: same count
    c = ex.default_tail(tribonacci)
    x, _ = ex.build_witness_xm(tribonacci, 2, c)
    scaled = x / tribonacci.q
    a = ex.count_expansions(tribonacci, x)
    b = ex.count_expansions(tribonacci, scaled)
    assert a.count == b.count == 2


def test_non_pisot_remainders_hit_the_cap():
    # 111001010(0) has a conjugate of modulus above 1, so the remainders of
    # 011(10) need not repeat; the cap ends the search
    ctx = new_base_context(1, "111001010(0)")
    x = ctx.value(seq("011(10)"))
    assert ex.count_expansions(ctx, x, cap=300).kind == ex.CAP_EXCEEDED


def test_cap_bounds_the_number_of_expansions():
    # 24 expansions over 22 remainders: at caps 22 and 23 every remainder
    # fits, and the number of expansions alone passes the cap
    results = {}
    for cap in (22, 23, 24):
        ctx = new_base_context(2, "21(0)")
        x = ctx.value(seq("02021220120(1)"))
        results[cap] = ex.count_expansions(ctx, x, cap=cap)
    assert len(per_digit_graph(ctx, x, 1000)) == 22
    assert results[22] == results[23] == ex.ExpansionCount(ex.CAP_EXCEEDED)
    assert results[24][:2] == (ex.EXACT, 24) and len(set(results[24].witnesses)) == 24


def test_no_splice_head_exceeds_alpha(battery):
    """A splice head w+[k:] never exceeds alpha's prefix w[:N-k]: beta is
    greedy, so ``_start_ties`` keeps the heads that tie it and no more."""
    rng = random.Random(31)
    ctxs = list(battery) + [random_context(rng) for _ in range(200)]
    ties = 0
    for ctx in ctxs:
        w = ctx.alpha_word()
        N = len(w)
        heads = [(k, dg.word_plus(w[k:], ctx.M), w[:N - k]) for k in range(1, N) if w[k - 1] < ctx.M]
        assert all(head <= ref for _k, head, ref in heads), (ctx.M, ctx.beta)
        upper, lower = ex._start_ties(ctx)
        assert upper == {0} | {N - k for k, head, ref in heads if head == ref}, (ctx.M, ctx.beta)
        assert lower == {0}
        ties += len(upper) > 1
    assert ties


def test_negative_cap_is_rejected(tribonacci):
    x = tribonacci.value(seq("(10)"))
    assert ex.count_expansions(tribonacci, x, cap=0).kind == ex.CAP_EXCEEDED
    with pytest.raises(ValueError, match="nonnegative"):
        ex.count_expansions(tribonacci, x, cap=-1)


# --- the automaton filter and the least-tail search against literal references

def literal_filter(ctx, c, strictness):
    """Reference: the three families of tail bounds, each tail compared with
    alpha as a whole sequence."""
    M, alpha = ctx.M, ctx.alpha
    w = ctx.alpha_word()
    N = len(w)
    strict = strictness == ex.STRICT

    def bad(r):
        return r == dg.GT or (strict and r == dg.EQ)

    for n in range(0, len(c.pre) + len(c.per) + 1):
        tail = dg.shift(c, n)
        if (n == 0 or c.digit(n - 1) < M) and bad(dg.lex_cmp(tail, alpha)):
            return False
        if (n == 0 or c.digit(n - 1) > 0) and bad(dg.lex_cmp(dg.reflect(tail, M), alpha)):
            return False
    for k in range(1, N):
        if w[k - 1] < M:
            spliced = EpSeq(dg.word_plus(w[k:], M) + c.pre, c.per)
            if bad(dg.lex_cmp(spliced, alpha)):
                return False
    return True


def random_tail(rng, ctx):
    """An eventually periodic tail; half start with the reflected period, and
    half have a rotation of the alpha period or its reflection as period,
    where ties with alpha survive forever."""
    w = ctx.alpha_word()
    rw = dg.word_reflect(w, ctx.M)
    pre = tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.5:
        pre = rw + pre
    if rng.random() < 0.5:
        piece, k = rng.choice([w, rw]), rng.randrange(len(w))
        per = piece[k:] + piece[:k]
    else:
        per = tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(1, 4)))
    return EpSeq(pre, per)


def filter_verdicts(ctx, rng, tails):
    """Kinds of the random tails' verdicts, each checked against the reference."""
    kinds = set()
    for _ in range(tails):
        c = random_tail(rng, ctx)
        verdict = [ex.f_family_filter(ctx, c, s) for s in (ex.STRICT, ex.WEAK)]
        assert verdict == [literal_filter(ctx, c, s) for s in (ex.STRICT, ex.WEAK)], \
            (ctx.beta, c)
        kinds.add("admissible" if verdict[0] else "weak-only" if verdict[1] else "rejected")
    return kinds


def test_filter_matches_literal_filter():
    rng = random.Random(53)
    kinds = set()
    for M, beta in COUNT_BASES:
        kinds |= filter_verdicts(new_base_context(M, beta), rng, 150)
    assert kinds == {"admissible", "weak-only", "rejected"}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_filter_matches_literal_filter_random(seed):
    rng = random.Random(seed)
    filter_verdicts(random_context(rng), rng, 40)


def enumerated_default_tail(ctx, strictness):
    """Reference: every periodic word of length N..2N that starts with the
    reflected period, each through the literal filter; the least one passing."""
    w = ctx.alpha_word()
    N = len(w)
    rw = dg.word_reflect(w, ctx.M)

    def extensions(prefix, upto):
        if len(prefix) == upto:
            yield prefix
            return
        for d in range(ctx.M + 1):
            yield from extensions(prefix + (d,), upto)

    best = None
    for length in range(N, 2 * N + 1):
        for word in extensions(rw, length):
            c = EpSeq((), word)
            if literal_filter(ctx, c, strictness):
                if best is None or dg.lex_cmp(c, best) == dg.LT:
                    best = c
    return best


def searched_default_tail(ctx, strictness):
    try:
        return ex.default_tail(ctx, strictness)
    except ValueError:
        return None


@pytest.mark.parametrize("M,beta", COUNT_BASES)
def test_default_tail_matches_enumeration(M, beta):
    ctx = new_base_context(M, beta)
    for strictness in (ex.STRICT, ex.WEAK):
        assert searched_default_tail(ctx, strictness) == enumerated_default_tail(ctx, strictness)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([ex.STRICT, ex.WEAK]))
def test_default_tail_matches_enumeration_random(seed, strictness):
    ctx = random_context(random.Random(seed))
    assume((ctx.M + 1) ** ctx.n_period <= 20_000)
    assert searched_default_tail(ctx, strictness) == enumerated_default_tail(ctx, strictness)


@pytest.mark.parametrize("M,beta,tail", [
    (3, "32202132(0)", "(0113120201131203)"),     # period 16 = 2N, the full bound
    (9, "98761(0)", "(012390124)"),
])
def test_default_tail_searches_every_period(M, beta, tail):
    ctx = new_base_context(M, beta)
    c = ex.default_tail(ctx)
    assert c == seq(tail)
    for m in (1, 2, 3):
        x, exps = ex.build_witness_xm(ctx, m, c)
        res = ex.count_expansions(ctx, x)
        assert res.kind == ex.EXACT and res.count == m and set(res.witnesses) == set(exps)


def test_default_tail_long_period():
    ctx = new_base_context(1, "111001000111001(0)")     # N = 15
    start = time.perf_counter()
    c = ex.default_tail(ctx)
    assert time.perf_counter() - start < 1.0
    for m in (1, 2, 3):
        x, _exps = ex.build_witness_xm(ctx, m, c)
        res = ex.count_expansions(ctx, x)
        assert res.kind == ex.EXACT and res.count == m


def test_default_tail_none_exists():
    # the state after the reflected period is alive but not good: no strict
    # tail of any period, while weak ones remain
    ctx = new_base_context(1, "111001(0)")
    with pytest.raises(ValueError, match="does not exist"):
        ex.default_tail(ctx)
    assert ex.default_tail(ctx, ex.WEAK) == seq("(000111)")


def test_default_tail_budget(tribonacci, monkeypatch):
    monkeypatch.setattr(ex, "TAIL_NODE_BUDGET", 3)
    with pytest.raises(ex.TailSearchBudgetError) as err:
        ex.default_tail(tribonacci)
    assert err.value.nodes == 3 and err.value.max_period == 2 * tribonacci.n_period


@pytest.mark.parametrize("M,beta", [(1, "1101(0)"), (1, "111001(0)"), (1, "11(0)"), (2, "21(0)")])
def test_default_tail_refuses_before_searching(M, beta, monkeypatch):
    # the admissible part at the witness start decides that no strict tail
    # exists before the search visits its first node past the budget
    monkeypatch.setattr(ex, "TAIL_NODE_BUDGET", 1)
    with pytest.raises(ValueError, match="does not exist"):
        ex.default_tail(new_base_context(M, beta))


def test_default_tail_refuses_a_long_chain_base_at_once():
    # the 8th V-successor of 111(0), period 768, has no strict tail; the
    # refusal comes before a walk over words of length 768..1536.  Its weak
    # tail is the reflected period, the walk's first node
    ctx = new_base_context(1, "111(0)")
    for _ in range(8):
        ctx = v_successor(ctx)

    def stalled(signum, frame):
        raise TimeoutError("the tail search ran before the refusal")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(1)
    try:
        with pytest.raises(ValueError, match="does not exist"):
            ex.default_tail(ctx)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert ex.default_tail(ctx, ex.WEAK) == reflected_period(ctx)


def reflected_period(ctx):
    return EpSeq((), dg.word_reflect(ctx.alpha_word(), ctx.M))


def v_chain(M, beta, depth):
    ctx = new_base_context(M, beta)
    for _ in range(depth):
        ctx = v_successor(ctx)
    return ctx


def test_default_tail_weak_on_a_long_chain_base():
    # period 640: each prefix of the walk is visited once, so the weak tail,
    # the reflected period, comes long before the node budget
    ctx = v_chain(1, "11011(0)", 7)
    assert ex.default_tail(ctx, ex.WEAK) == reflected_period(ctx)


def test_default_tail_weak_walk_visits_each_prefix_once(monkeypatch):
    # period N = 96: the reflected period is the first node, and its only
    # extensions left are the N words that keep tying it, N + 1 nodes in all
    ctx = v_chain(1, "111(0)", 5)
    N = ctx.n_period
    monkeypatch.setattr(ex, "TAIL_NODE_BUDGET", N + 1)
    assert ex.default_tail(ctx, ex.WEAK) == reflected_period(ctx)
    monkeypatch.setattr(ex, "TAIL_NODE_BUDGET", N)
    with pytest.raises(ex.TailSearchBudgetError) as err:
        ex.default_tail(ctx, ex.WEAK)
    assert err.value.nodes == N and err.value.period == 2 * N


def test_tail_walk_builds_no_sequence_per_node(monkeypatch):
    # period N = 192: the walk visits N + 1 words and judges each on the
    # automaton's tuples.  Alpha is reflected once, with the automaton, and
    # a sequence is built and compared only for a word that passes: the
    # reflected period and its square, which ties it
    ctx = v_chain(1, "111(0)", 6)
    expected = reflected_period(ctx)
    calls = dict.fromkeys(("EpSeq", "word_reflect", "lex_cmp"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(EpSeq, "__init__", counted("EpSeq", EpSeq.__init__))
    for name in ("word_reflect", "lex_cmp"):
        monkeypatch.setattr(dg, name, counted(name, getattr(dg, name)))
    assert ex.default_tail(ctx, ex.WEAK) == expected
    assert calls["EpSeq"] <= 2 and calls["word_reflect"] <= 1 and calls["lex_cmp"] <= 1, calls


@pytest.mark.parametrize("call,accepted", [
    (lambda ctx: ex.default_tail(ctx, "strict"), "'STRICT' or 'WEAK'"),
    (lambda ctx: ex.f_family_filter(ctx, seq("(001)"), "strict"), "'STRICT' or 'WEAK'"),
    (lambda ctx: dg.is_unique_expansion_seq(ctx.alpha, seq("(110)"), 1, "unique"),
     "'UNIQUE' or 'DOUBLY_INFINITE'"),
    (lambda ctx: enumerate_admissible_words(ctx, 3, "u"), "'U_PREFIX' or 'V_PREFIX'"),
], ids=["default_tail", "f_family_filter", "is_unique_expansion_seq", "oracle_words"])
def test_unknown_modes_are_refused(tribonacci, call, accepted):
    # any other string used to select the weak check
    with pytest.raises(ValueError, match=f"unknown mode .* expected {accepted}"):
        call(tribonacci)


# --- feasible digits from enclosures against per-digit signs ------------------

def per_digit_graph(ctx, x, cap):
    """Reference: the remainder graph of x, with two exact signs per digit
    and state; None once it holds more than ``cap`` remainders."""
    kappa = ctx.kappa
    succ = {}
    frontier = [x]
    while frontier:
        v = frontier.pop()
        if v in succ:
            continue
        qv = v.mul_gen()
        succ[v] = moves = [(d, qv - d) for d in range(ctx.M + 1)
                           if (qv - d).sign() >= 0 and (qv - d - kappa).sign() <= 0]
        if len(succ) > cap:
            return None
        frontier += [nxt for _d, nxt in moves if nxt not in succ]
    return succ


def per_digit_count(ctx, x, cap):
    """Reference: count_expansions with two exact signs per digit and state."""
    succ = per_digit_graph(ctx, x, cap)
    if succ is None:
        return ex.ExpansionCount(ex.CAP_EXCEEDED)
    on_cycle = set()
    for comp in tarjan(succ):
        if len(comp) > 1 or any(w == comp[0] for _d, w in succ[comp[0]]):
            on_cycle.update(comp)
    if any(len(succ[v]) > 1 for v in on_cycle):
        return ex.ExpansionCount(ex.INFINITE_CYCLE)
    witnesses = []
    stack = [(x, ())]
    while stack:
        v, path = stack.pop()
        if v in on_cycle:
            tail, cur = [], v
            while True:
                d, cur = succ[cur][0]
                tail.append(d)
                if cur == v:
                    break
            witnesses.append(EpSeq(path, tuple(tail)))
            if len(witnesses) > cap:
                return ex.ExpansionCount(ex.CAP_EXCEEDED)
            continue
        stack += [(nxt, path + (d,)) for d, nxt in reversed(succ[v])]
    witnesses.sort(key=lambda s: (s.pre, s.per))
    return ex.ExpansionCount(ex.EXACT, len(witnesses), tuple(witnesses))


def per_digit_greedy(ctx, x, L):
    """Reference: greedy digits with one exact sign per digit tried."""
    out = []
    for _ in range(L):
        qx = x.mul_gen()
        d = next(d for d in range(ctx.M, -1, -1) if (qx - d).sign() >= 0)
        out.append(d)
        x = qx - d
    return tuple(out)


def digit_words(max_len):
    return st.lists(st.integers(0, 9), max_size=max_len)


def fresh_context(base, coarse):
    """A new context of ``base``; with ``coarse``, its field is put back on
    the bracket [1, M+1], before any narrowing."""
    ctx = new_base_context(base.M, base.beta)
    if coarse:
        ctx.field = NumberField(ctx.field.min_poly, 1, ctx.M + 1, 0)
    return ctx


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), digit_words(3), digit_words(3).filter(bool), st.integers(1, 4),
       st.booleans())
def test_count_matches_per_digit_signs(seed, pre, per, m, coarse):
    # the coarse isolating interval of the bracket leaves digits
    # undecided by the enclosures, so that the exact signs run
    base = random_context(random.Random(seed))
    s = EpSeq([d % (base.M + 1) for d in pre], [d % (base.M + 1) for d in per])
    tail = searched_default_tail(base, ex.STRICT)
    points = [lambda ctx: ctx.value(s), lambda ctx: ctx.kappa - ctx.value(s)]
    if tail is not None:
        points.append(lambda ctx: ex.build_witness_xm(ctx, m, tail)[0])
    for point in points:
        ctx = fresh_context(base, coarse)
        x = point(ctx)
        got, ref = ex.count_expansions(ctx, x, cap=300), per_digit_count(ctx, x, cap=300)
        assert (got.kind, got.count, got.witnesses) == (ref.kind, ref.count, ref.witnesses)
        ctx = fresh_context(base, coarse)
        x = point(ctx)
        assert ex.greedy_expand(ctx, x, 8) == per_digit_greedy(ctx, x, 8)


def test_count_witnesses_need_few_exact_signs(monkeypatch):
    ctx = new_base_context(9, "981(0)")
    c = ex.default_tail(ctx)
    points = [ex.build_witness_xm(ctx, m, c)[0] for m in range(1, 11)]
    calls = []
    sign = NumberField.sign
    monkeypatch.setattr(NumberField, "sign", lambda f, a: calls.append(a) or sign(f, a))
    counts = [ex.count_expansions(ctx, x) for x in points]
    assert [(r.kind, r.count) for r in counts] == [(ex.EXACT, m) for m in range(1, 11)]
    assert len(calls) < 100       # two per digit and state made 4,590


# --- the remainder map kept by the context ------------------------------------

def count_triple(res):
    return res.kind, res.count, res.witnesses


def count_points(M, beta):
    """x_1..x_10 of the default tail and three random points with their
    reflections, each as a function of a context of the base."""
    rng = random.Random(f"{M} {beta}")
    tail = ex.default_tail(new_base_context(M, beta))
    seqs = []
    for _ in range(3):
        pre = tuple(rng.randint(0, M) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.randint(0, M) for _ in range(rng.randint(1, 3)))
        seqs += [EpSeq(pre, per), EpSeq(dg.word_reflect(pre, M), dg.word_reflect(per, M))]
    points = [lambda c, m=m: ex.build_witness_xm(c, m, tail)[0] for m in range(1, 11)]
    return points + [lambda c, s=s: c.value(s) for s in seqs]


def record_calls(monkeypatch, owner, name, key=lambda *a: a):
    """``key`` of the arguments of every call of ``owner.name`` from now on,
    read when the call is made."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(key(*a)) or fn(*a))
    return calls


def record_passes(monkeypatch):
    """Field, isolating interval and element of every enclosure."""
    return record_calls(monkeypatch, NumberField, "enclosure",
                        lambda f, a: (f, f.n_lo, f.n_hi, f.e, a))


@pytest.mark.parametrize("M, beta", BATTERY + REDUCIBLE)
def test_shared_remainder_map_matches_fresh_contexts(M, beta, monkeypatch):
    # the witnesses x_1..x_10 share their tails, so a shared map is read
    # many times; the random points and their reflections add other orbits
    ctx = new_base_context(M, beta)
    points = count_points(M, beta)
    calls = record_calls(monkeypatch, ex, "_feasible_moves")
    # some of these bases are not Pisot: a point may hit the cap
    shared = [count_triple(ex.count_expansions(ctx, point(ctx), cap=500)) for point in points]
    shared_calls = len(calls)
    fresh = []
    for point in points:
        c = new_base_context(M, beta)
        fresh.append(count_triple(ex.count_expansions(c, point(c), cap=500)))
    assert shared == fresh
    assert [r[:2] for r in shared[:10]] == [(ex.EXACT, m) for m in range(1, 11)]
    assert shared_calls < len(calls) - shared_calls       # the map was read


@pytest.mark.parametrize("M, beta", BATTERY)
def test_counts_repeat_no_interval_pass(M, beta, monkeypatch):
    # an enclosure of the element, field and interval of the enclosure just
    # before it can only repeat its answer; the remainders of x_8..x_10
    # come close enough to 0 to leave the sign of q*v open
    ctx = new_base_context(M, beta)
    points = [point(ctx) for point in count_points(M, beta)]
    passes = record_passes(monkeypatch)
    for x in points:
        ex.count_expansions(ctx, x, cap=500)
    assert passes and not [a for a, b in zip(passes, passes[1:]) if a == b]


@pytest.mark.parametrize("M, beta", BATTERY)
def test_counted_points_are_read_from_the_map(M, beta, monkeypatch):
    # a recount takes no enclosure at all, and a greedy run from a point
    # whose remainders were all explored computes no move
    ctx = new_base_context(M, beta)
    points = [point(ctx) for point in count_points(M, beta)]
    first = [ex.count_expansions(ctx, x, cap=500) for x in points]
    passes = record_passes(monkeypatch)
    calls = record_calls(monkeypatch, ex, "_feasible_moves")
    assert [ex.count_expansions(ctx, x, cap=500) for x in points] == first
    for x, res in zip(points, first):
        if res.kind != ex.CAP_EXCEEDED:
            assert ctx.value(ex.quasi_greedy_expand(ctx, x)) == x
    assert passes == [] and calls == []


def test_cap_holds_on_decided_remainders(monkeypatch):
    # once x_10 is decided, a count at a smaller cap walks the map's stored
    # moves from x_10 and still stops at the cap
    ctx = new_base_context(1, "111(0)")
    x = ex.build_witness_xm(ctx, 10, ex.default_tail(ctx))[0]
    assert ex.count_expansions(ctx, x, cap=1000)[:2] == (ex.EXACT, 10)
    n = len(per_digit_graph(ctx, x, 1000))
    nodes = record_calls(monkeypatch, ex, "tarjan", len)
    below, at = ex.count_expansions(ctx, x, cap=n - 1), ex.count_expansions(ctx, x, cap=n)
    assert nodes == []
    assert below == per_digit_count(ctx, x, n - 1) == ex.ExpansionCount(ex.CAP_EXCEEDED)
    assert at == per_digit_count(ctx, x, n) and at[:2] == (ex.EXACT, 10)


def test_infinity_absorbs_decided_successors():
    # on 331(0), 0(3) moves by 0 to kappa = (3) and by 1 onto a branching
    # cycle, and 3(0) by 3 to 0 and by 2 onto one, neither on a cycle
    # itself: with 0 and kappa decided first, each count joins a decided
    # finite successor with an infinite one
    ctx = new_base_context(3, "331(0)")
    for s in ("(0)", "(3)"):
        assert ex.count_expansions(ctx, ctx.value(seq(s)))[:2] == (ex.EXACT, 1)
    for s in ("0(3)", "3(0)"):
        x = ctx.value(seq(s))
        assert ex.count_expansions(ctx, x) == per_digit_count(ctx, x, 500)
        assert ex.count_expansions(ctx, x).kind == ex.INFINITE_CYCLE


@functools.cache
def battery_points(M, beta):
    return count_points(M, beta)


@functools.cache
def battery_reference(M, beta, i, cap):
    ctx = new_base_context(M, beta)
    return per_digit_count(ctx, battery_points(M, beta)[i](ctx), cap)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BATTERY), st.permutations(range(16)), st.lists(st.sampled_from((2, 12, 60)),
                                                                     min_size=16, max_size=16))
def test_counts_in_any_order_match_per_digit_signs(base, order, caps):
    # one shared context: each count finds some of its remainders decided
    # by the counts before it, under another cap
    M, beta = base
    ctx = new_base_context(M, beta)
    points = battery_points(M, beta)
    for i in order:
        got = ex.count_expansions(ctx, points[i](ctx), cap=caps[i])
        assert got == battery_reference(M, beta, i, caps[i])


def test_remainder_map_keeps_no_reachable_sets():
    # a decided id keeps its count and, on a cycle, its tail: nothing else
    assert set(ex._RemainderMap.__slots__) == {"field", "M", "kappa", "kbox",
                                                "ids", "elems", "out", "count", "tails"}


def test_cap_is_checked_against_the_map_size(monkeypatch):
    # a map of at most cap remainders keeps x within the cap, so a recount
    # walks nothing; below the reachable count one walk over the stored
    # moves finds x over the cap, and computes no move
    ctx = new_base_context(1, "111(0)")
    x = ex.build_witness_xm(ctx, 10, ex.default_tail(ctx))[0]
    assert ex.count_expansions(ctx, x, cap=1000)[:2] == (ex.EXACT, 10)
    rmap = ctx._cache[(ex._RemainderMap,)]
    n = len(per_digit_graph(ctx, x, 1000))
    walks = record_calls(monkeypatch, ex, "explore", lambda roots, moves, cap: cap)
    moved = record_calls(monkeypatch, ex, "_feasible_moves")
    for cap in (len(rmap.ids), len(rmap.ids) + 1, 1000):
        assert ex.count_expansions(ctx, x, cap=cap)[:2] == (ex.EXACT, 10)
    assert walks == []
    assert ex.count_expansions(ctx, x, cap=n - 1) == ex.ExpansionCount(ex.CAP_EXCEEDED)
    assert walks == [n - 1] and moved == []


@pytest.mark.parametrize("M, beta", COUNT_BASES)
def test_each_remainder_is_decided_once(M, beta, monkeypatch):
    ctx = new_base_context(M, beta)
    points = [point(ctx) for point in count_points(M, beta)]
    nodes = record_calls(monkeypatch, ex, "tarjan", len)
    kinds = {ex.count_expansions(ctx, x, cap=500).kind for x in points}
    rmap = ctx._cache[(ex._RemainderMap,)]
    assert sum(nodes) == len(rmap.count)
    if ex.CAP_EXCEEDED not in kinds:
        assert sum(nodes) == len(rmap.ids)


@pytest.mark.parametrize("M, beta", BATTERY)
def test_range_error_exactly_outside_the_interval(M, beta):
    ctx = new_base_context(M, beta)
    kappa = ctx.kappa
    runs = [lambda x: ex.count_expansions(ctx, x, cap=500), lambda x: ex.greedy_expand(ctx, x, 4),
            ex.quasi_greedy_expand.__get__(ctx)]
    zero = ctx.value(dg.ZERO)
    assert [run(zero) for run in runs] == [ex.ExpansionCount(ex.EXACT, 1, (dg.ZERO,)),
                                           (0, 0, 0, 0), dg.ZERO]
    top = EpSeq((), (M,))
    assert [run(kappa) for run in runs] == [ex.ExpansionCount(ex.EXACT, 1, (top,)),
                                            (M, M, M, M), top]
    for k in (1, 3, 10, 40):
        eps = ctx.value(EpSeq((0,) * (k - 1) + (1,), (0,)))      # 1/q^k
        for x in (kappa + eps, -eps):
            for run in runs:
                with pytest.raises(ex.RangeError, match="outside the expandable interval"):
                    run(x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), digit_words(3), digit_words(3).filter(bool), st.integers(0, 6),
       st.booleans())
def test_feasible_moves_match_exact_signs(seed, pre, per, steps, coarse):
    # kappa is enclosed on the bracket [1, M+1] (when coarse) and
    # stays valid while q is refined; every remainder along the greedy orbit
    # of the point is checked against exact signs alone
    base = random_context(random.Random(seed))
    ctx = fresh_context(base, coarse)
    field, M = ctx.field, ctx.M
    s = EpSeq([d % (M + 1) for d in pre], [d % (M + 1) for d in per])
    kappa = ctx.kappa
    kbox = field.enclosure(kappa.elem)
    v = ctx.value(s)
    for _ in range(steps + 1):
        qv = v.mul_gen()
        expect = [(d, (qv - d).elem) for d in range(M + 1)
                  if (qv - d).sign() >= 0 and (qv - d - kappa).sign() <= 0]
        assert ex._feasible_moves(field, M, kappa.elem, kbox, v.elem) == expect
        v = AlgebraicReal(field, expect[-1][1])
        field.refine_to(field.e + 1)


def held_ids(ctx):
    """The number of remainders in the context's remainder map."""
    rmap = ctx._cache.get((ex._RemainderMap,))
    return 0 if rmap is None else len(rmap.ids)


def test_remainder_map_is_bounded(monkeypatch):
    monkeypatch.setattr(ex, "DEFAULT_STATE_CAP", 40)
    ctx = new_base_context(1, "111001010(0)")
    known = lambda: held_ids(ctx)       # noqa: E731
    x = ctx.value(seq("(01)"))
    first = ex.count_expansions(ctx, x, cap=40)
    assert 0 < known() <= 40
    assert ex.count_expansions(ctx, x, cap=40) == first          # read from the map
    # the remainders of 011(10) need not repeat: a count past the cap
    # leaves more than 40 of them, and the map is emptied
    assert ex.count_expansions(ctx, ctx.value(seq("011(10)")), cap=300).kind == ex.CAP_EXCEEDED
    assert known() == 0
    tribonacci = new_base_context(1, "111(0)")
    tail = ex.default_tail(tribonacci)
    held = []
    for m in range(1, 11):
        x = ex.build_witness_xm(tribonacci, m, tail)[0]
        assert ex.count_expansions(tribonacci, x, cap=1000).count == m
        held.append(held_ids(tribonacci))
    assert 0 < max(held) <= 40 and 0 in held


@pytest.mark.parametrize("count,text", [
    (ex.ExpansionCount(ex.EXACT, 2, (seq("(10)"), seq("1(01)"))), "ExpansionCount(EXACT(2))"),
    (ex.ExpansionCount(ex.INFINITE_CYCLE), "ExpansionCount(INFINITE_CYCLE)"),
    (ex.ExpansionCount(ex.CAP_EXCEEDED), "ExpansionCount(CAP_EXCEEDED)"),
], ids=["exact", "infinite", "cap"])
def test_expansion_count_repr(count, text):
    assert repr(count) == text
