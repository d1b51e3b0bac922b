import random

import pytest

from univoque import digits as dg
from univoque import expansions as ex
from univoque.base import new_base_context, r_chain, special_points, v_successor
from univoque.digits import EpSeq


def seq(text):
    return dg.parse_seq(text)


def test_greedy_expand_examples(tribonacci):
    one = tribonacci.value(tribonacci.alpha)
    assert ex.greedy_expand(tribonacci, one, 5) == (1, 1, 1, 0, 0)
    zero = tribonacci.value(dg.ZERO)
    assert ex.greedy_expand(tribonacci, zero, 4) == (0, 0, 0, 0)
    pts = special_points(tribonacci)
    for j in range(1, tribonacci.M + 1):
        assert ex.greedy_expand(tribonacci, pts.theta[j], 5) == (j, 0, 0, 0, 0)


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


def test_quasi_greedy_examples(tribonacci):
    one = tribonacci.value(tribonacci.alpha)
    assert ex.quasi_greedy_expand(tribonacci, one) == tribonacci.alpha
    pts = special_points(tribonacci)
    N = tribonacci.n_period
    w = tribonacci.alpha_word()
    for i in range(1, N + 1):
        got = ex.quasi_greedy_expand(tribonacci, pts.a[i])
        assert got == EpSeq(w[i - 1:], w)
        assert got == pts.qg_key[f"a{i}"]
    # reflected points have infinite greedy expansions equal to their keys
    for i in range(1, N + 1):
        got = ex.quasi_greedy_expand(tribonacci, pts.b[i])
        assert got == pts.qg_key[f"b{i}"]
        assert ex.greedy_expand(tribonacci, pts.b[i], 8) == got.prefix(8)


def test_reflected_points_infinite_greedy_4331():
    ctx = new_base_context(4, "4331(0)")
    pts = special_points(ctx)
    assert ex.greedy_expand(ctx, pts.b[1], 8) == (0, 1, 1, 4, 0, 1, 1, 4)
    assert ex.quasi_greedy_expand(ctx, pts.b[1]) == seq("(0114)")


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


def test_filter_examples(tribonacci):
    weak = ex.f_family_filter(tribonacci, seq("(001)"), ex.WEAK)
    assert weak.ok and weak.starts_with_reflected_period and weak.splice_pair_ok
    strict = ex.f_family_filter(tribonacci, seq("(001)"), ex.STRICT)
    assert not strict.ok      # the reflection equals the bound exactly
    degenerate = ex.f_family_filter(tribonacci, dg.ZERO, ex.WEAK)
    assert not degenerate.ok
    assert any(tag.startswith("tail_lower") for tag in degenerate.failures)


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


def test_alpha_structure(tribonacci):
    r2 = r_chain(tribonacci, 2)
    dec = ex.alpha_structure(r2, tribonacci)
    assert dec is not None and not dec.trivial
    assert dec.k_values[0] == 1
    assert max(dec.k_values) == dec.k_values[0]
    assert ex.alpha_structure(tribonacci, tribonacci).trivial
    outside = new_base_context(1, "11(0)")
    assert ex.alpha_structure(outside, tribonacci) is None
    # the successor sits inside the window too
    dec1 = ex.alpha_structure(v_successor(tribonacci), tribonacci)
    assert dec1 is not None


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
