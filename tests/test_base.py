import functools
import itertools
import random
import sys
from fractions import Fraction

import pytest

from univoque import algebraic, base
from univoque import digits as dg
from univoque.algebraic import AlgebraicReal, NumberField, apply_digit_map
from univoque.base import (GRAPH_CLASSES, BaseClass, BaseContext, InternalConsistencyError,
                           SearchBoundError, SpecialPoints, chain,
                           golden_ratio_base, new_base_context, order_points,
                           UnsupportedClassError, r_chain, special_points, v_successor)
from conftest import random_context


def seq(text):
    return dg.parse_seq(text)


def test_classification_battery():
    cases = [
        (1, "111(0)", BaseClass.IN_CLOSURE_U_NOT_U, "(110)", 3),
        (1, "111001(0)", BaseClass.IN_V_NOT_CLOSURE_U, "(111000)", 6),
        (4, "322(0)", BaseClass.IN_CLOSURE_U_NOT_U, "(321)", 3),
        (4, "4331(0)", BaseClass.IN_CLOSURE_U_NOT_U, "(4330)", 4),
        (2, "2(0)", BaseClass.IN_V_NOT_CLOSURE_U, "(1)", 1),
    ]
    for M, beta, cls, alpha, N in cases:
        ctx = new_base_context(M, beta)
        assert ctx.base_class is cls
        assert ctx.alpha == seq(alpha)
        assert ctx.n_period == N


def test_rejects_base_one_and_non_greedy():
    with pytest.raises(ValueError):
        new_base_context(1, "1(0)")
    with pytest.raises(ValueError):
        new_base_context(1, "011(0)")
    # alpha = (10)^inf has the non-primitive period 1010: 1011 is not greedy
    with pytest.raises(ValueError, match="not a greedy expansion"):
        new_base_context(1, "1011(0)")


def test_graph_classes_need_no_primitivity_check():
    # every greedy sequence pre (per)^inf with |pre| + |per| <= 6 and M <= 4,
    # read by the digit layer alone (no field is built): a graph-class base
    # has a purely periodic alpha = w^inf and beta = w+ 0^inf
    seqs = {(M, dg.EpSeq(w[:s], w[s:])) for M in range(1, 5) for L in range(1, 7)
            for w in itertools.product(range(M + 1), repeat=L) for s in range(L)}
    greedy = graph = 0
    for M, beta in seqs:
        if not dg.is_greedy_beta(M, beta):
            continue
        greedy += 1
        alpha = dg.alpha_from_beta(M, beta)
        if dg.classify_alpha(M, alpha) in GRAPH_CLASSES:
            graph += 1
            assert not alpha.pre and beta == dg.EpSeq(dg.word_plus(alpha.per, M), (0,)), (M, beta)
    assert (greedy, graph) == (17634, 619)


@pytest.mark.parametrize("M", [0, -1])
def test_rejects_alphabet_bound_below_one(M):
    with pytest.raises(ValueError, match="alphabet bound must be at least 1"):
        new_base_context(M, "1(0)")
    with pytest.raises(ValueError, match="alphabet bound must be at least 1"):
        golden_ratio_base(M)


@pytest.mark.parametrize("M, beta, cls", [(1, "1101(0)", "V\\closureU"), (1, "101(0)", "notInV"),
                                          (1, "(1)", "U"), (1, "11(0)", "V\\closureU")])
def test_limit_class_refusal(M, beta, cls):
    ctx = new_base_context(M, beta)
    assert ctx.base_class.value == cls
    with pytest.raises(UnsupportedClassError) as e:
        ctx.require_limit_class("the tower decomposition")
    assert str(e.value) == ("the tower decomposition applies to limit-of-uniqueness bases "
                            f"(class closureU\\U) only, not to class {cls}")


def test_below_min_v_flag():
    ctx = new_base_context(1, "101(0)")
    assert ctx.base_class is BaseClass.NOT_IN_V
    with pytest.raises(Exception):
        ctx.require_graph_class()


def test_successor_chain_two_digit():
    ctx = golden_ratio_base(1)
    assert ctx.alpha == seq("(10)")
    c1 = v_successor(ctx)
    assert c1.alpha == seq("(1100)")
    c2 = v_successor(c1)
    assert c2.alpha == seq("(11010010)")


def test_successor_chain_tribonacci(tribonacci):
    c1 = v_successor(tribonacci)
    assert c1.alpha == seq("(111000)")
    assert c1.beta == seq("111001(0)")
    c2 = v_successor(c1)
    assert c2.alpha == seq("(111001000110)")


def test_successor_increases_base_and_keeps_admissibility(battery):
    for ctx in battery:
        succ = v_successor(ctx)
        assert dg.lex_cmp(ctx.beta, succ.beta) == dg.LT
        assert dg.is_quasigreedy_alpha(succ.M, succ.alpha)
        assert succ.base_class is BaseClass.IN_V_NOT_CLOSURE_U
        # isolating intervals eventually separate in the right order
        while not ctx.field.hi < succ.field.lo:
            ctx.field.refine_to(ctx.field.e + 1)
            succ.field.refine_to(succ.field.e + 1)


def test_r_chain_examples(tribonacci, base322):
    assert r_chain(base322, 1).beta == seq("322123(0)")
    assert r_chain(tribonacci, 1).beta == seq("111001(0)")
    assert r_chain(tribonacci, 0) is tribonacci
    assert r_chain(tribonacci, 2).beta == seq("111001001(0)")
    assert r_chain(tribonacci, 1).base_class is BaseClass.IN_V_NOT_CLOSURE_U
    for k in (2, 3):
        assert r_chain(tribonacci, k).base_class is BaseClass.IN_CLOSURE_U_NOT_U


def chain_limit_alpha(ctx):
    """Quasi-greedy expansion at the upper endpoint of the chain: ``w+ reflect(w)^inf``."""
    w = ctx.alpha_word()
    return dg.EpSeq(dg.word_plus(w, ctx.M), dg.word_reflect(w, ctx.M))


def test_r_chain_monotone_below_limit(tribonacci):
    limit = chain_limit_alpha(tribonacci)
    assert limit == seq("111(001)")
    prev = tribonacci.beta
    for k in range(1, 4):
        cur = r_chain(tribonacci, k)
        assert dg.lex_cmp(prev, cur.beta) == dg.LT
        assert dg.lex_cmp(cur.alpha, limit) == dg.LT
        prev = cur.beta


def test_chain_period_bound_is_the_total_period(battery):
    # the bound admits a chain exactly up to the total period of the bases it
    # would build: N(2^(s+1) - 2) along successors, N s(s+3)/2 along the r-chain
    for ctx in battery:
        N, succ, built = ctx.n_period, ctx, []
        for _ in range(3):
            succ = v_successor(succ)
            built.append(succ.n_period)
        assert sum(built) == N * (2 ** 4 - 2)
        r_built = [r_chain(ctx, k).n_period for k in range(1, 5)]
        assert sum(r_built) == N * 4 * 7 // 2
        for kind, steps, total in (("v", 3, sum(built)), ("r", 4, sum(r_built))):
            assert len(chain(ctx, kind, steps, total)) == steps + 1
            with pytest.raises(SearchBoundError, match=f"bound {total - 1} .* reach {total}"):
                chain(ctx, kind, steps, total - 1)


def test_chain_lists_the_bounded_chain(battery):
    for ctx in battery:
        v = chain(ctx, "v", 3, 4096)
        assert v[0] is ctx and all(v[k + 1] is v_successor(v[k]) for k in range(3))
        assert chain(ctx, "r", 3, 4096) == [r_chain(ctx, k) for k in range(4)]
        assert chain(ctx, "v", 0, 0) == chain(ctx, "r", 0, 0) == [ctx]


def test_chain_is_refused_before_any_base_is_built():
    ctx = new_base_context(1, "111(0)")
    for kind, steps in (("v", 12), ("r", 3000)):
        with pytest.raises(SearchBoundError, match="pass the bound 4096"):
            chain(ctx, kind, steps, 4096)
    assert not ctx._cache


@pytest.mark.parametrize("beta", ["111(0)", "101(0)"])
def test_chain_refuses_an_unknown_kind(beta):
    # "V" used to build the r-chain; the kind is refused before the graph
    # class, and before any base is built
    ctx = new_base_context(1, beta)
    for kind in ("V", "x", ""):
        with pytest.raises(ValueError, match="unknown chain kind .* expected 'v' or 'r'"):
            chain(ctx, kind, 2, 100)
    assert not ctx._cache


@pytest.mark.parametrize("beta", ["111(0)", "101(0)"])
def test_chain_refuses_negative_steps(beta):
    # a negative count used to return [ctx]; it is refused after the kind and
    # before the graph class, and before any base is built
    ctx = new_base_context(1, beta)
    for kind, steps in (("v", -1), ("r", -5)):
        with pytest.raises(ValueError, match="nonnegative"):
            chain(ctx, kind, steps, 4096)
    with pytest.raises(ValueError, match="unknown chain kind"):
        chain(ctx, "x", -1, 4096)
    assert not ctx._cache


@pytest.mark.parametrize("beta", ["1(10)", "101(0)"])
def test_chain_period_refuses_a_base_without_graph(beta):
    # period 0 would keep the sum at 0 for all of a huge step count
    ctx = new_base_context(1, beta)
    assert ctx.n_period == 0
    for kind in "vr":
        with pytest.raises(UnsupportedClassError, match="has no interval graph"):
            chain(ctx, kind, 10 ** 10, 4096)


def test_golden_ratio_bases():
    g1 = golden_ratio_base(1)
    assert g1.beta == seq("11(0)") and g1.q_approx(5) == "1.61803"
    g2 = golden_ratio_base(2)
    assert g2.beta == seq("2(0)") and (g2.q - 2).sign() == 0
    g3 = golden_ratio_base(3)
    assert g3.beta == seq("22(0)")
    assert g3.defining_poly == (-2, -2, 1)
    assert abs(float(g3.q) - 2.7320508) < 1e-6


def test_wide_alphabet_contexts():
    g12 = golden_ratio_base(12)
    assert g12.beta == seq("7(0)") and (g12.q - 7).sign() == 0
    g11 = golden_ratio_base(11)
    assert g11.beta == dg.EpSeq((6, 6), (0,))
    assert g11.n_period == 2
    assert abs(float(g11.q) - 6.8729833) < 1e-6
    chain = order_points(g11).chain()
    assert chain.startswith("th0<th1") and "a2=b1=th6" in chain


def test_r_chain_from_in_between_seed():
    seed = golden_ratio_base(1)
    assert r_chain(seed, 1).base_class is BaseClass.IN_V_NOT_CLOSURE_U
    assert r_chain(seed, 2).base_class is BaseClass.IN_CLOSURE_U_NOT_U
    assert r_chain(seed, 2).beta == seq("110101(0)")


def test_value_identities(battery):
    for ctx in battery:
        assert (ctx.value(ctx.alpha) - 1).sign() == 0
        assert (ctx.value(ctx.beta) - 1).sign() == 0


# point orders, byte-for-byte in canonical equality-class form
EXPECTED_CHAINS = {
    (1, "111(0)"): "th0<b1<b2<a3=th1<b3=et1<a2<a1<et2",
    (1, "11111(0)"): "th0<b1<b2<b3<b4<a5=th1<b5=et1<a4<a3<a2<a1<et2",
    (2, "2222(0)"): "th0<b1<b2<b3<th1<b4=et1<a4=th2<et2<a3<a2<a1<et3",
    (1, "11011(0)"): "th0<b1<b4<b2<a3<a5=th1<b5=et1<b3<a2<a4<a1<et2",
    (4, "4331(0)"): "th0<b1<a4=th1<et1<b2<b3<th2<et2<th3<et3<a3<a2<th4<b4=et4<a1<et5",
    (1, "1110011011(0)"):
        "th0<b1<b6<b2<a4<b9<b7<a8<b3<a5<a10=th1<b10=et1<b5<a3<b8<a7<a9<b4<a2<a6<a1<et2",
    (1, "111001010(0)"):
        "th0<b1<a4<b2<a7<a5<b6<b3<a8=th1<b8=et1<a3<a6<b5<b7<a2<b4<a1<et2",
    (4, "322(0)"): "th0<th1<et1<b1<a3=th2<et2<a2<b2<th3<b3=et3<a1<th4<et4<et5",
    (3, "331(0)"): "th0<b1<b2<a3=th1<et1<th2<et2<th3<b3=et3<a2<a1<et4",
    (1, "111001000111001(0)"):
        "th0<b1<b10<a7<a13<a4<b2<b11<a8<a14<a5<b3<b12<b6<a9<a15=th1<b15=et1"
        "<b9<a6<a12<a3<b5<b14<b8<a11<a2<b4<b13<b7<a10<a1<et2",
}


def test_point_order_chains():
    for (M, beta), expected in EXPECTED_CHAINS.items():
        ctx = new_base_context(M, beta)
        assert order_points(ctx).chain() == expected, (M, beta)


def test_point_coincidences_by_class(tribonacci):
    # limit-of-uniqueness: a_N and b_N ride the switch boundary
    pts = special_points(tribonacci)
    order = order_points(tribonacci)
    N = tribonacci.n_period
    assert order.index_of[f"a{N}"] == order.index_of["th1"]
    assert order.index_of[f"b{N}"] == order.index_of["et1"]
    # strictly-in-between: the reflected orbit coincides with the upper half
    succ = v_successor(tribonacci)
    n = succ.n_period // 2
    so = order_points(succ)
    for j in range(1, n + 1):
        assert so.index_of[f"b{j}"] == so.index_of[f"a{n + j}"]
        assert so.index_of[f"b{n + j}"] == so.index_of[f"a{j}"]
    w = succ.alpha_word()
    assert so.index_of[f"a{n}"] == so.index_of[f"et{w[n - 1]}"]
    assert so.index_of[f"a{2 * n}"] == so.index_of[f"th{succ.M - w[n - 1] + 1}"]


def test_min_v_even_switch_coalesces():
    ctx = golden_ratio_base(2)
    order = order_points(ctx)
    assert order.index_of["et1"] == order.index_of["th2"]
    assert order.index_of["a1"] == order.index_of["b1"] == order.index_of["et1"]


def test_qg_keys_evaluate_to_point_values(battery):
    for ctx in battery:
        pts = special_points(ctx)
        for name, key in pts.qg_key.items():
            assert (ctx.value(key) - pts.value[name]).sign() == 0, (ctx.beta, name)


def test_successor_word_inequalities(battery):
    # alpha of a strictly-in-between base is (u reflect(u))^inf; the reflected
    # tails of the half word u stay strictly below its matching prefixes
    for ctx in battery:
        succ = v_successor(ctx)
        w = succ.alpha_word()
        n = len(w) // 2
        u = w[:n]
        assert w == u + dg.word_reflect(u, succ.M)
        for i in range(n):
            tail = dg.word_reflect(u[i:], succ.M)
            assert tail < u[: n - i], (succ.beta, i)


def test_order_points_randomized_consistency():
    # order_points re-verifies the lexicographic order against exact
    # comparison internally; a disagreement raises
    rng = random.Random(29)
    for _ in range(25):
        ctx = random_context(rng)
        order = order_points(ctx)
        assert all(order.values[k].cmp(order.values[k + 1]) < 0
                   for k in range(len(order.values) - 1))


def lex_sorted_classes(ctx):
    """The point classes by a ``lex_cmp`` sort of the keys, stable on the
    name precedence, with equal keys grouped."""
    keys = special_points(ctx).qg_key
    classes = []
    for nm in sorted(keys, key=functools.cmp_to_key(lambda x, y: dg.lex_cmp(keys[x], keys[y]))):
        if classes and dg.lex_cmp(keys[nm], keys[classes[-1][0]]) == dg.EQ:
            classes[-1].append(nm)
        else:
            classes.append([nm])
    return classes


def test_order_points_sorts_on_prefixes(monkeypatch, battery, tribonacci):
    contexts = list(battery)
    rng = random.Random(31)
    contexts += [random_context(rng) for _ in range(100)]
    ctx = tribonacci
    for _ in range(6):
        ctx = v_successor(ctx)
        contexts.append(ctx)
    expected = [lex_sorted_classes(ctx) for ctx in contexts]

    def no_lex_cmp(*args):
        raise AssertionError("order_points called lex_cmp")

    monkeypatch.setattr(dg, "lex_cmp", no_lex_cmp)
    for ctx, classes in zip(contexts, expected):
        # a fresh context: its point order is not memoised yet
        ctx = new_base_context(ctx.M, ctx.beta)
        assert order_points(ctx).classes == classes, dg.format_seq(ctx.beta)


def patch_point_values(monkeypatch, change):
    """Make ``special_points`` hand out its values after ``change(values)``."""
    inner = base._special_points

    def patched(ctx):
        pts = inner(ctx)
        values = dict(pts.value)
        change(values)
        return SpecialPoints(pts.qg_key, values)

    monkeypatch.setattr(base, "_special_points", patched)


def tiny(k):
    return Fraction(k, 10**40)


@pytest.mark.parametrize("change", [
    # b1 < b2 swapped: two enclosures apart, in the wrong order
    lambda v: v.update(b1=v["b2"], b2=v["b1"]),
    # b2 just below b1: the enclosures overlap and the exact cmp decides
    lambda v: v.update(b2=v["b1"] - tiny(1)),
])
def test_order_points_refuses_a_reversed_step(monkeypatch, change):
    # 111(0): th0<b1<b2<a3=th1<b3=et1<a2<a1<et2
    patch_point_values(monkeypatch, change)
    with pytest.raises(InternalConsistencyError, match="b1 < b2 but the values disagree"):
        order_points(new_base_context(1, "111(0)"))


def test_order_points_refuses_a_broken_tie(monkeypatch):
    patch_point_values(monkeypatch, lambda v: v.update(th1=v["th1"] + tiny(1)))
    with pytest.raises(InternalConsistencyError, match="a3 = th1 but the values differ"):
        order_points(new_base_context(1, "111(0)"))


def test_order_points_falls_back_to_exact_comparison(monkeypatch, battery, tribonacci):
    contexts = list(battery)
    ctx = tribonacci
    for _ in range(3):
        ctx = v_successor(ctx)
        contexts.append(ctx)
    expected = [order_points(ctx).classes for ctx in contexts]
    enclosure, cmp = NumberField.enclosure, AlgebraicReal.cmp
    steps = []

    def widened(lo, hi, D):
        return lo - (D << 20), hi + (D << 20), D

    def wide(self, a):
        # the point order's enclosures, before and after its jump, cover
        # [-2^20, 2^20], which holds every point, so no two classes are
        # apart (q's is wide too, so the jump goes further); settle's stay
        # as they are
        if sys._getframe(1).f_code is base._order_points.__code__:
            return widened(*enclosure(self, a))
        return enclosure(self, a)

    def counted(self, other):
        if sys._getframe(1).f_code is base._order_points.__code__:
            steps.append(1)
        return cmp(self, other)

    monkeypatch.setattr(NumberField, "enclosure", wide)
    monkeypatch.setattr(AlgebraicReal, "cmp", counted)
    for ctx, classes in zip(contexts, expected):
        steps.clear()
        assert order_points(new_base_context(ctx.M, ctx.beta)).classes == classes
        assert len(steps) == len(classes) - 1, dg.format_seq(ctx.beta)


def v_chain_element(M, beta, depth):
    ctx = new_base_context(M, beta)
    for _ in range(depth):
        ctx = v_successor(ctx)
    return ctx


def test_order_points_matches_mpmath_at_depth_7():
    # the 111(0) V-chain at depth 7 (period 384, deg R = 193), where the
    # closest classes share 144 key digits: q to 3,000 digits by Newton's
    # method in mpmath, every point valued there, each class one value and
    # the classes strictly increasing
    import mpmath

    ctx = v_chain_element(1, "111(0)", 7)
    order, pts, f = order_points(ctx), special_points(ctx), ctx.field
    R = f.working_poly[::-1]
    with mpmath.workdps(3000):
        q = mpmath.mpf(float(f.lo))
        for _ in range(16):
            value, slope = mpmath.polyval(R, q, derivative=True)
            q -= value / slope
        assert mpmath.mpf(f.n_lo) / 2**f.e <= q <= mpmath.mpf(f.n_hi) / 2**f.e
        powers = [q ** k for k in range(f.deg)]
        value = {nm: mpmath.fdot(a.elem[:-1], powers) / a.elem[-1]
                 for nm, a in pts.value.items()}
        tol = mpmath.mpf(10) ** -2900
        for cls in order.classes:
            assert all(abs(value[nm] - value[cls[0]]) < tol for nm in cls), cls
        for below, above in zip(order.classes, order.classes[1:]):
            assert value[above[0]] - value[below[0]] > tol, (below, above)


def test_order_points_at_depth_8_is_certified_by_one_jump(monkeypatch):
    # the 111(0) V-chain at depth 8 (period 768): the planned level is
    # reached without a bisection (R's only exact signs are the two that
    # confirm the planned cell), and its table separates every step that
    # the first enclosures left close, so no exact cmp runs
    ctx = v_chain_element(1, "111(0)", 8)
    special_points(ctx)
    levels, jumps = [], []
    evaluate, refine_to, cmp = algebraic._dyadic_eval, NumberField.refine_to, AlgebraicReal.cmp
    monkeypatch.setattr(algebraic, "_dyadic_eval",
                        lambda R, n, e: levels.append(e) or evaluate(R, n, e))
    monkeypatch.setattr(NumberField, "refine_to", lambda f, e: jumps.append(e) or refine_to(f, e))
    monkeypatch.setattr(AlgebraicReal, "cmp", lambda a, b: pytest.fail("an exact cmp ran"))
    classes = len(order_points(ctx).classes)
    assert classes == 770
    assert levels == [ctx.field.e] * 2 and jumps == [ctx.field.e] and ctx.field.e > 600


def test_special_points_match_tail_values(battery, tribonacci):
    # the orbit a_{i+1} = q a_i - beta_i against each a_i as the value of
    # its own greedy tail, on the battery and the 111(0) chain to depth 6
    contexts = list(battery)
    ctx = tribonacci
    for _ in range(6):
        ctx = v_successor(ctx)
        contexts.append(ctx)
    for ctx in contexts:
        w, N = ctx.alpha_word(), ctx.n_period
        pts = special_points(ctx)
        for i in range(1, N + 1):
            tail = ctx.value(dg.EpSeq(dg.word_plus(w[i - 1:], ctx.M), (0,)))
            assert pts.value[f"a{i}"] == tail, (dg.format_seq(ctx.beta), i)
            assert pts.value[f"b{i}"] == ctx.kappa - tail
        last_digit = dg.word_plus(w, ctx.M)[-1]
        assert apply_digit_map(pts.value[f"a{N}"], last_digit) == ctx.value(dg.ZERO)


def test_special_points_orbit_must_close(tribonacci):
    # the 111(0) digits read in the golden-ratio field: the orbit of 1 hits
    # 0 one digit early and ends at -1
    golden = new_base_context(1, "11(0)").field
    ctx = BaseContext(tribonacci.M, tribonacci.beta, tribonacci.alpha, tribonacci.base_class,
                      tribonacci.defining_poly, golden, tribonacci.n_period)
    with pytest.raises(InternalConsistencyError, match="does not close"):
        special_points(ctx)


def test_context_validates_and_builds_polynomial_once(monkeypatch):
    import univoque.algebraic as algebraic
    import univoque.base as base

    calls = {"base_polynomial": 0, "is_greedy_beta": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counted(base, "base_polynomial")
    counted(algebraic, "is_greedy_beta")
    counted(dg, "is_greedy_beta")
    for M, beta in ((1, "111(0)"), (1, "101(0)"), (2, "2(0)"), (1, "(1)")):
        calls.update(base_polynomial=0, is_greedy_beta=0)
        new_base_context(M, beta)
        assert calls == {"base_polynomial": 1, "is_greedy_beta": 1}, (M, beta)
