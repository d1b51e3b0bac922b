import functools
import importlib.util
import math
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BATTERY, random_context
from test_expansions import record_calls, record_passes
from test_reducible import REDUCIBLE, on_min_poly
from univoque import algebraic
from univoque import digits as dg
from univoque.algebraic import (AlgebraicReal, DegenerateInputError, NumberField,
                                _pseudo_divmod, apply_digit_map, base_polynomial,
                                field_for_base, poly_mul, value_of_sequence)
from univoque.base import new_base_context, r_chain, special_points, v_successor


def seq(text):
    return dg.parse_seq(text)


def horner(p, x):
    """p(x) exactly, for the little-endian integer polynomial p and a
    Fraction x."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_table_enclosures_hold_the_exact_values():
    # the special points, 1, q and the powers of q below deg R, q less the ends
    # and the midpoint of the interval, within its width of 0, of the
    # battery, the reducible bases, 100 random bases and the 111(0) chain at
    # depth 5, on the field's interval and 100 bits below it: each enclosure
    # holds the exact value of the element at both ends of its interval and
    # of one 64 bits narrower around q, a constant numerator encloses
    # exactly, a sign it decides is the exact sign, and q encloses to
    # exactly its interval, also after each move of q (a power table kept
    # past a move would still give the old one)
    rng = random.Random(11)
    bases = list(BATTERY) + REDUCIBLE + v_chain(1, "111(0)", 5)
    bases += [(c.M, c.beta) for c in (random_context(rng) for _ in range(100))]
    for M, beta in bases:
        ctx = new_base_context(M, beta)
        f = ctx.field
        points = [v.elem for v in special_points(ctx).value.values()]
        for level in (f.e, f.e + 100):
            field = NumberField(f.working_poly, f.n_lo, f.n_hi, f.e)
            field.refine_to(level)
            inner = NumberField(f.working_poly, field.n_lo, field.n_hi, field.e)
            inner.refine_to(level + 64)
            ends = (field.lo, field.hi, inner.lo, inner.hi)
            near_zero = [field.sub(field.gen(), field.rational(x))
                         for x in (field.lo, field.hi, (field.lo + field.hi) / 2)]
            powers = [field.pow_gen(k) for k in range(max(field.deg, 2))]
            for a in points + powers + near_zero:
                lo, hi, D = field.enclosure(a)
                for x in ends:
                    value = horner(a[:-1], x) / a[-1]
                    assert Fraction(lo, D) <= value <= Fraction(hi, D), (M, beta)
                if not any(a[1:-1]):
                    assert lo == hi
                if lo > 0 or hi < 0:
                    assert f.sign(a) == (1 if lo > 0 else -1), (M, beta)
            for move in (lambda: None, lambda: field.refine_to(field.e + 1),
                         lambda: field.refine_to(field.e + 40)):
                move()
                lo, hi, D = field.enclosure(field.gen())
                if field.deg > 1:
                    assert (Fraction(lo, D), Fraction(hi, D)) == (field.lo, field.hi), (M, beta)
    point = field_for_base((-2, 1), 2)
    assert point.lo == point.hi
    for r in (2, Fraction(-7, 3)):
        lo, hi, D = point.enclosure(point.rational(r))
        assert lo == hi and Fraction(lo, D) == r


def test_base_polynomial_examples():
    assert base_polynomial(1, seq("11(0)")) == (-1, -1, 1)            # t^2 - t - 1
    assert base_polynomial(1, seq("111(0)")) == (-1, -1, -1, 1)       # t^3 - t^2 - t - 1
    assert base_polynomial(2, seq("2(0)")) == (-2, 1)                 # t - 2
    assert base_polynomial(1, seq("(1)")) == (-2, 1)                  # infinite expansion of 2
    with pytest.raises(ValueError):
        base_polynomial(1, seq("1(0)"))
    with pytest.raises(ValueError):
        base_polynomial(1, seq("011(0)"))


def _root_close(poly, M, target, tol=1e-5):
    field = field_for_base(poly, M)
    q = float(AlgebraicReal(field, field.gen()))
    assert abs(q - target) <= tol, (q, target)


def test_isolated_roots_match_reference_values():
    _root_close((-1, -1, 1), 1, 1.61803)            # t^2 - t - 1
    _root_close((-1, -1, -2, 0, 1), 1, 1.71064)     # t^4 - 2t^2 - t - 1
    _root_close((-1, 1, -2, 1), 1, 1.75488)         # t^3 - 2t^2 + t - 1
    _root_close((-1, -1, -1, 1), 1, 1.83929)        # t^3 - t^2 - t - 1


def test_isolate_root_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        field_for_base((1,), 1)                      # constant, no roots
    with pytest.raises(DegenerateInputError):
        field_for_base((2, -3, 1), 2)                # roots at 1 and 2... vanishes at 1
    with pytest.raises(DegenerateInputError):
        field_for_base((-5, 0, 1), 1)                # sqrt(5) lies outside (1, 2]


def test_isolate_root_exact_rational():
    field = field_for_base((-2, 1), 2)
    lo, hi, D = field.enclosure(field.gen())
    assert Fraction(lo, D) == Fraction(hi, D) == 2
    assert field.lo == field.hi == 2
    # 2 is the first midpoint of the bracket [1, 3]: the point, at level 1
    assert (field.n_lo, field.n_hi, field.e) == (4, 4, 1)
    assert lo == hi


def _scaled_sign(P, n, e):
    """The sign of P(n / 2^e)."""
    d, v, power = len(P) - 1, 0, 1
    for k, c in enumerate(P):
        v += c * power << (e * (d - k))
        power *= n
    return (v > 0) - (v < 0)


def _narrowed(P, lo, hi, e, level=None):
    """[lo, hi] / 2^e, where P changes sign, bisected on P itself to
    ``level``, by default the first level of width at most 1/10^12, or to
    [r, r] once a midpoint is the root r."""
    slo = _scaled_sign(P, lo, e)
    while e < level if level is not None else (hi - lo) * 10**12 > 1 << e:
        mid, e = lo + hi, e + 1
        lo, hi = lo << 1, hi << 1
        sm = _scaled_sign(P, mid, e)
        if sm == 0:
            return mid, mid, e
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi, e


def bisected_interval(P, M):
    """Reference isolating interval ``(n_lo, n_hi, e)`` of the root of P in
    (1, M+1]: the bracket [1, M+1] bisected on P, or [M+1, M+1] when M + 1
    is the root."""
    if _scaled_sign(P, M + 1, 0) == 0:
        return M + 1, M + 1, 0
    return _narrowed(P, 1, M + 1, 0)


def scanned_interval(P, M):
    """The isolating interval of a 64-mark scan of (1, M+1]: the cell
    between the marks (64 + M i) / 2^6 where P changes sign, bisected on P,
    or [r, r] once a mark is the root."""
    e = 6
    marks = [64 + M * i for i in range(65)]
    roots = [n for n in marks if _scaled_sign(P, n, e) == 0]
    if roots:
        return roots[0], roots[0], e
    lo, hi = next((a, b) for a, b in zip(marks, marks[1:])
                  if _scaled_sign(P, a, e) != _scaled_sign(P, b, e))
    return _narrowed(P, lo, hi, e)


def drawn_betas(rng, n):
    """n random greedy expansions of 1 (M <= 9, length <= 12), every
    second one with a nonzero period."""
    out = []
    while len(out) < n:
        M, k = rng.randint(1, 9), rng.randint(1, 12)
        word = (M,) + tuple(rng.randint(0, M) for _ in range(k - 1))
        cut = rng.randint(1, k) if len(out) % 2 else k
        beta = dg.EpSeq(word[:cut], word[cut:] or (0,))
        if (bool(any(beta.per)) == bool(len(out) % 2) and beta != dg.EpSeq((1,), (0,))
                and dg.is_greedy_beta(M, beta)):
            out.append((M, beta))
    return out


def scan_inputs(seed):
    """The bases of the benchmark's ``scan`` workload for one seed."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(M, seq(text)) for M, text in module.scan_inputs(seed)]


def v_chain(M, beta, depth):
    ctx = new_base_context(M, beta)
    out = []
    for _ in range(depth):
        ctx = v_successor(ctx)
        out.append((ctx.M, ctx.beta))
    return out


INTEGER_BASES = ([(M, f"({M})") for M in range(1, 10)]
                 + [(M, f"{k}(0)") for M in range(2, 10) for k in range(2, M + 1)])


def chain_bases(depth, r_depth):
    """The V-chains of 111(0) and 331(0) to ``depth``, and the first three
    r-chain bases of each of their elements up to ``r_depth``."""
    out = []
    for M, beta in ((1, "111(0)"), (3, "331(0)")):
        ctx = new_base_context(M, beta)
        for d in range(depth + 1):
            out.append((M, ctx.beta))
            if d <= r_depth:
                out += [(M, r_chain(ctx, k).beta) for k in (1, 2, 3)]
            ctx = v_successor(ctx)
    return out


def test_field_starts_on_the_bisected_interval():
    # base 2 is a midpoint of [1, 3] for M = 2 but never one of [1, 4] for
    # M = 3, where the field's generator is rational and q's interval must
    # still be narrowed; q = M + 1 is the bracket's end
    bases = list(BATTERY) + INTEGER_BASES
    rng = random.Random(7)
    bases += [(c.M, c.beta) for c in (random_context(rng) for _ in range(100))]
    bases += chain_bases(8, 6)
    for M, beta in bases:
        ctx = new_base_context(M, beta)
        f = ctx.field
        assert (f.n_lo, f.n_hi, f.e) == bisected_interval(ctx.defining_poly, M), (M, beta)


@pytest.mark.parametrize("miss", [
    lambda x, M: 0,                 # below the bracket: its first cell
    lambda x, M: x << 40,           # above it: its last cell
    lambda x, M: x - 3 * M,         # three cells low
    lambda x, M: x + M,             # the next cell up
])
def test_a_wrong_estimate_still_gives_the_bisected_interval(monkeypatch, miss):
    # the two signs refuse the cell, and bisection reaches the same one
    bases = list(BATTERY) + [(1, "11(0)"), (9, "98(0)")] + chain_bases(3, 1)
    estimate = algebraic._root_estimate
    monkeypatch.setattr(algebraic, "_root_estimate",
                        lambda R, x_lo, x_hi, s_lo, e: miss(estimate(R, x_lo, x_hi, s_lo, e), M))
    # the levels of R's exact signs: the bracket's ends and its left end at
    # level 0, the refused cell's ends, then one midpoint per bisection
    levels = record_calls(monkeypatch, algebraic, "_dyadic_eval", lambda R, n, e: e)
    for M, beta in bases:
        levels.clear()
        P = base_polynomial(M, seq(beta) if isinstance(beta, str) else beta)
        f = field_for_base(P, M)
        assert (f.n_lo, f.n_hi, f.e) == bisected_interval(P, M), (M, beta)
        assert levels[:3] == [0, 0, 0] and levels[3:-f.e] in ([f.e], [f.e] * 2), (M, beta)
        assert levels[-f.e:] == list(range(1, f.e + 1)), (M, beta)


def test_refine_to_is_bisection_at_every_level():
    # levels past the field's, up to 700 bits, where the estimate runs in
    # fixed point, land on the cell of the same number of bisections of R,
    # made on the test side
    bases = list(BATTERY) + REDUCIBLE + chain_bases(5, 2)
    for M, beta in bases:
        f = new_base_context(M, beta).field
        for e in (f.e, f.e + 1, 97, 433):
            jumped = NumberField(f.working_poly, f.n_lo, f.n_hi, f.e)
            jumped.refine_to(e)
            assert (jumped.n_lo, jumped.n_hi, jumped.e) == _narrowed(
                f.working_poly, f.n_lo, f.n_hi, f.e, e), (M, beta, e)


def test_bracket_gives_the_cells_of_the_scan():
    # the sixth bisection of [1, M+1] is the scan's grid, so a non-integer
    # base gets the scan's cell, narrowed alike
    bases = list(BATTERY) + scan_inputs(7) + drawn_betas(random.Random(2024), 200)
    bases += v_chain(1, "111(0)", 6)
    checked = 0
    for M, beta in bases:
        ctx = new_base_context(M, beta)
        f = ctx.field
        if f.deg > 1:         # integer bases: the next test
            checked += 1
            assert (f.n_lo, f.n_hi, f.e) == scanned_interval(ctx.defining_poly, M), (M, beta)
    assert checked > len(bases) // 2


def test_integer_bases_are_exact_where_the_scan_was():
    # an integer q that the scan met exactly is met by bisection too, at the
    # same value and maybe a coarser level; the other cells are the scan's
    for M, beta in INTEGER_BASES:
        P = base_polynomial(M, seq(beta))
        q = -P[0]
        f = field_for_base(P, M)
        assert f.working_poly == P == (-q, 1)
        lo, hi, e = scanned_interval(P, M)
        if lo == hi:
            assert f.n_lo == f.n_hi and f.lo == q == Fraction(lo, 1 << e), (M, beta)
        else:
            assert (f.n_lo, f.n_hi, f.e) == (lo, hi, e) and f.lo < q < f.hi, (M, beta)
        if q == M + 1:          # the bracket's end, which bisection never reaches
            assert (f.n_lo, f.n_hi, f.e) == (q, q, 0), (M, beta)


def test_value_of_sequence_basics(tribonacci):
    f = tribonacci.field
    zero = value_of_sequence(f, seq("(0)"))
    assert zero.sign() == 0
    kappa = tribonacci.kappa
    assert (value_of_sequence(f, seq("(1)")) - kappa).sign() == 0
    assert (value_of_sequence(f, tribonacci.beta) - 1).sign() == 0
    assert (value_of_sequence(f, tribonacci.alpha) - 1).sign() == 0


def test_compare_and_digit_map(tribonacci):
    pts = special_points(tribonacci)
    q = tribonacci.q
    kappa = tribonacci.kappa
    # switch endpoints behave like announced under the digit maps
    for j in range(1, tribonacci.M + 1):
        th = pts.value[f"th{j}"]
        assert apply_digit_map(th, j).sign() == 0
        assert (apply_digit_map(th, j - 1) - 1).sign() == 0
        et = pts.value[f"et{j}"]
        assert (apply_digit_map(et, j - 1) - kappa).sign() == 0
        assert (apply_digit_map(et, j) - (kappa - 1)).sign() == 0
    assert (apply_digit_map(kappa, tribonacci.M) - kappa).sign() == 0
    # eta is the reflection of theta
    for j in range(1, tribonacci.M + 2):
        lhs = pts.value[f"et{j}"]
        rhs = kappa - pts.value[f"th{tribonacci.M + 1 - j}"]
        assert (lhs - rhs).sign() == 0
    # direct switch formula (j-1)/q + M/(q^2-q)
    for j in range(1, tribonacci.M + 1):
        direct = (j - 1) / q + tribonacci.M / (q * q - q)
        assert (pts.value[f"et{j}"] - direct).sign() == 0


def test_reflection_reverses_compare(tribonacci):
    pts = special_points(tribonacci)
    kappa = tribonacci.kappa
    vals = [pts.value[nm] for nm in ("a1", "a2", "b1", "th1", "et1")]
    for x in vals:
        for y in vals:
            assert x.cmp(y) == (kappa - y).cmp(kappa - x)


def test_special_point_order_examples(tribonacci):
    pts = special_points(tribonacci)
    N = tribonacci.n_period
    a, b = pts.value[f"a{N}"], pts.value[f"b{N}"]
    assert (a - pts.value["th1"]).sign() == 0          # a_N rides the switch
    assert (b - pts.value["et1"]).sign() == 0
    assert pts.value["b1"].cmp(pts.value["a1"]) < 0
    for i in range(1, N + 1):
        assert (pts.value[f"a{i}"] + pts.value[f"b{i}"] - tribonacci.kappa).sign() == 0


def test_lex_order_matches_value_order():
    ctx = new_base_context(1, "11011(0)")
    rng = random.Random(23)
    pool = []
    while len(pool) < 25:
        s = dg.EpSeq(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4))),
                     tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4))))
        # weak two-sided admissibility makes the expansion quasi-greedy
        if dg.is_unique_expansion_seq(ctx.alpha, s, 1, dg.DOUBLY_INFINITE):
            pool.append(s)
    vals = [value_of_sequence(ctx.field, s) for s in pool]
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            assert dg.lex_cmp(a, b) == vals[i].cmp(vals[j])


def test_hashable_memo_keys(tribonacci):
    one = value_of_sequence(tribonacci.field, tribonacci.alpha)
    also_one = value_of_sequence(tribonacci.field, tribonacci.beta)
    assert one == also_one
    assert hash(one) == hash(also_one)
    assert len({one, also_one}) == 1



@pytest.mark.parametrize("M, beta", [BATTERY[0], (1, "1101011(0)")])
def test_rational_values_equal_and_hash_as_numbers(M, beta):
    ctx = new_base_context(M, beta)
    one, zero = ctx.q * ctx.value(seq("1(0)")), ctx.value(seq("(0)"))
    assert one <= 1 and one >= 1 and one == 1 and 1 == one and zero == 0
    assert one != 2 and ctx.q != 1 and one != Fraction(1, 2) and one / 2 == Fraction(1, 2)
    assert 1 in {one} and 0 in {zero} and Fraction(3, 2) in {one + one / 2}
    assert {one, zero, one / 2} == {1, 0, Fraction(1, 2)}


def test_nonconstant_tuple_of_a_rational_hashes_as_its_value():
    # the minimal polynomial of 1101011(0), of degree below the working
    # polynomial, is a nonconstant numerator of 0 there
    f = new_base_context(1, "1101011(0)").field
    hidden = AlgebraicReal(f, f.element(list(f.min_poly) + [0] * (f.deg - len(f.min_poly)), 3))
    assert f.reducible and any(hidden.elem[1:-1])
    assert hidden == 0 and hidden + 1 == 1 and hash(hidden + 1) == hash(1)
    third = Fraction(1, 3)
    assert hash(hidden - third) == hash(-third) and -third in {hidden - third}

def test_json_rendering(tribonacci):
    payload = tribonacci.q.to_json()
    assert payload["den"] == [1]
    assert payload["approx"].startswith("1.839286755214")
    third = AlgebraicReal(tribonacci.field, tribonacci.field.rational(Fraction(1, 3)))
    num, den = third.as_fraction()
    assert num == (1,) and den == 3


# --- differential checks against sympy over QQ[t] / (minimal polynomial) ----

def _sympy_value(min_poly, s):
    """sum(s_i t^-i) in QQ[t] / (min_poly), computed by sympy alone."""
    import sympy

    t = sympy.Symbol("t")
    m = sympy.Poly(list(reversed(min_poly)), t, domain=sympy.QQ)
    tinv = sympy.Poly(t, t, domain=sympy.QQ).invert(m)
    value = sympy.Poly(0, t, domain=sympy.QQ)
    power = sympy.Poly(1, t, domain=sympy.QQ)
    for d in s.pre:
        power = (power * tinv).rem(m)
        value += d * power
    if any(s.per):
        p = len(s.per)
        period = sympy.Poly(list(s.per), t, domain=sympy.QQ)     # sum p_j t^(p-j)
        cyc = sympy.Poly(t**p - 1, t, domain=sympy.QQ).invert(m)
        value += (power * period * cyc).rem(m)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in value.rem(m).all_coeffs()[::-1]]
    return coeffs + [Fraction(0)] * (len(min_poly) - 1 - len(coeffs))


def test_special_points_match_sympy(battery):
    contexts = list(battery)
    ctx = new_base_context(1, "111(0)")
    for _ in range(3):                  # the successor chain to depth 3
        ctx = v_successor(ctx)
        contexts.append(ctx)
    for ctx in contexts:
        pts = special_points(ctx)
        for name, key in pts.qg_key.items():
            num, den = pts.value[name].as_fraction()
            ours = [Fraction(c, den) for c in num] + [Fraction(0)] * (ctx.field.deg - len(num))
            assert ours == _sympy_value(ctx.field.min_poly, key), (dg.format_seq(ctx.beta), name)


FIELD_BASES = [(1, "111(0)"), (1, "11011(0)"), (3, "331(0)"), (4, "322(0)"),
               (1, "111001010(0)"), (2, "21(0)")]


@functools.cache
def _field(i):
    M, beta = FIELD_BASES[i]
    f = new_base_context(M, beta).field
    roots = np.roots(list(reversed([float(c) for c in f.min_poly])))
    root = min((r.real for r in roots if abs(r.imag) < 1e-12), key=lambda r: abs(r - float(f.lo)))
    return f, root


@st.composite
def field_elements(draw):
    f, root = _field(draw(st.integers(0, len(FIELD_BASES) - 1)))
    nums = draw(st.lists(st.integers(-30, 30), min_size=f.deg, max_size=f.deg))
    den = draw(st.integers(1, 60))
    return f, root, f.element(nums, den)


@settings(max_examples=300, deadline=None)
@given(field_elements())
def test_field_laws(sample):
    f, root, a = sample
    assert all(type(c) is int for c in a) and a[-1] > 0
    assert f.div_gen(f.mul_gen(a)) == a
    assert f.mul_gen(f.div_gen(a)) == a
    if any(a[:-1]):
        assert f.mul(a, f.inv(a)) == f.one()
    value = sum(c * root**i for i, c in enumerate(a[:-1])) / a[-1]
    if abs(value) > 1e-9:
        assert f.sign(a) == (1 if value > 0 else -1)


def test_element_ops_build_no_fraction(monkeypatch):
    ctx = new_base_context(1, "111001(0)")
    f = ctx.field
    a, b = ctx.kappa.elem, special_points(ctx).value["a2"].elem
    made = []
    inner = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for x, y in ((a, b), (b, a), (a, a)):
        f.sign(f.sub(f.add(x, f.mul(x, y)), f.div_gen(f.mul_gen(y))))
        f.sign(f.sub(x, y))
    assert made == []


def _timeout(_signum, _frame):
    raise TimeoutError("sign did not terminate")


def test_sign_of_a_hidden_zero_terminates():
    # on m_q (t^3 - t + 1) the element m_q(q) is 0, yet nonzero modulo the
    # working polynomial: its enclosures contain 0 on every interval, and
    # only the reduction modulo the certified m_q ends the refinement
    m = (-3, -3, -8, -6, -7, 1)
    f = NumberField(poly_mul(m, (1, -1, 0, 1)), 1, 8, 0)          # the bracket of M = 7
    hidden_zero = f.element(list(m) + [0, 0], 1)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        assert f.sign(hidden_zero) == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert f.min_poly == m and f.reducible


def test_sign_repeats_no_enclosure(monkeypatch):
    # q - r for dyadic r within 1e-12 of q is open on the bracket [1, M+1];
    # each enclosure of its sign must see a new interval, whether the
    # numerator is proved coprime to R or m_q is already certified
    passes = []
    enclosure = NumberField.enclosure
    monkeypatch.setattr(NumberField, "enclosure", lambda f, a: passes.append(
        (f.n_lo, f.n_hi, f.e, a)) or enclosure(f, a))
    for M, beta in BATTERY[:3]:
        ctx = new_base_context(M, beta)
        for certified in (False, True):
            for r, expect in ((ctx.field.lo, 1), (ctx.field.hi, -1)):
                f = NumberField(ctx.field.working_poly, 1, M + 1, 0)
                if certified:
                    assert not f.reducible
                n, D = r.numerator, r.denominator
                passes.clear()
                assert f.sign(f.element([-n, D] + [0] * (f.deg - 2), D)) == expect
                assert len(passes) > 2 and len(set(passes)) == len(passes)


def _separating_level(P, lo, hi, e, r):
    """The first level at which bisecting [lo, hi] / 2^e on P, where P
    changes sign, leaves the rational r out of the closed cell of the root."""
    while lo <= r * (1 << e) <= hi:
        lo, hi, e = _narrowed(P, lo, hi, e, e + 1)
    return e


@pytest.mark.parametrize("k", [64, 512])
def test_settle_climbs_a_doubling_ladder(monkeypatch, k):
    # q - r for r an end of q's cell k levels below the built level e, on a
    # fresh field at e: q moves only by refine_to, each call at least
    # doubling its level, in at most ceil(log2(e_end / e)) + 1 calls, to a
    # level e_end at most twice, plus one, the first level at which
    # bisection leaves r out of q's cell; there is one enclosure at e and
    # one on each rung, every one on a new interval and a new power table
    jumps = record_calls(monkeypatch, NumberField, "refine_to", lambda f, e: (f.e, e))
    built = record_calls(monkeypatch, NumberField, "enclosure", lambda f, a: f._table[0] != f.e)
    passes = record_passes(monkeypatch)
    for M, beta in BATTERY:
        f = new_base_context(M, beta).field
        R, e = f.working_poly, f.e
        lo, hi, level = _narrowed(R, f.n_lo, f.n_hi, e, e + k)
        assert level == e + k and lo < hi
        for end, expect in ((lo, 1), (hi, -1)):
            r = Fraction(end, 1 << level)
            field = NumberField(R, f.n_lo, f.n_hi, e)
            for calls in (jumps, built, passes):
                calls.clear()
            q_less_r = field.element([-r.numerator, r.denominator] + [0] * (field.deg - 2),
                                     r.denominator)
            assert field.sign(q_less_r) == expect, (M, beta)
            e_end = field.e
            assert all(to >= max(2 * at, 1) for at, to in jumps), (M, beta, jumps)
            assert len(jumps) <= math.ceil(math.log2(e_end / e)) + 1, (M, beta, jumps)
            assert e_end <= 2 * _separating_level(R, f.n_lo, f.n_hi, e, r) + 1, (M, beta)
            assert [p[3] for p in passes] == [e] + [to for _, to in jumps], (M, beta)
            assert len(set(passes)) == len(passes) and all(built), (M, beta)


@pytest.mark.parametrize("M, beta", REDUCIBLE)
def test_sign_settles_a_shared_factor_on_its_reduction(M, beta, monkeypatch):
    # a multiple of S = R / m_q of degree deg m_q .. deg R - 1 shares a factor
    # with R, so before m_q is certified its sign is settled on the reduction
    # modulo m_q alone: no enclosure is taken of the unreduced element,
    # though its enclosure on the current interval contains 0
    f = new_base_context(M, beta).field
    m = on_min_poly(M, beta).field.working_poly
    S, rest = _pseudo_divmod(f.working_poly, m)
    assert not rest
    # 2^(e+1) t - (n_lo + n_hi) vanishes at the midpoint of the interval
    split = poly_mul(S, (-(f.n_lo + f.n_hi), 1 << (f.e + 1)))
    passes = record_passes(monkeypatch)
    for deg in range(len(m) - 1, f.deg):
        num = poly_mul(split, (0,) * (deg - len(split) + 1) + (1,))
        field = NumberField(f.working_poly, f.n_lo, f.n_hi, f.e)
        a = field.element(list(num) + [0] * (field.deg - len(num)), 1)
        vlo, vhi, _D = field.enclosure(a)
        assert vlo <= 0 <= vhi and "min_poly" not in vars(field)
        passes.clear()
        sign = field.sign(a)
        assert a not in [b for g, *_, b in passes if g is field]
        twin = NumberField(m, f.n_lo, f.n_hi, f.e)
        rem = _pseudo_divmod(num, m)[1]
        assert sign == twin.sign(twin.element(list(rem) + [0] * (twin.deg - len(rem)), 1)) != 0


def test_inverse_of_a_zero_divisor():
    # t + 1 stays in the working polynomial of 1101011(0), so q^2 - 1 is a
    # zero divisor there; its inverse is taken modulo the minimal polynomial
    f = new_base_context(1, "1101011(0)").field
    assert not _pseudo_divmod(f.working_poly, (1, 1))[1]
    a = f.add_int(f.pow_gen(2), -1)
    assert f.reduce(f.mul(f.cyc_inv(2), a)) == f.one()
    assert AlgebraicReal(f, f.mul(f.cyc_inv(2), a)) == AlgebraicReal(f, f.one())


def zero_at_q(f):
    """The minimal polynomial of q as an element of the field ``f``: zero at
    q, and nonzero modulo a reducible working polynomial."""
    m = f.min_poly
    return f.element(list(m) + [0] * (f.deg - len(m)), 1)


@pytest.mark.parametrize("op,outcome", [
    (lambda q, f: f.inv(f.zero()), (ZeroDivisionError, "inverse of zero field element")),
    (lambda q, f: f.inv(zero_at_q(f)),
     (ZeroDivisionError, "inverse of a field element that is zero at q")),
    (lambda q, f: q + AlgebraicReal(f, f.gen()), (ValueError, "mixed field contexts")),
    (lambda q, f: 2 - q, "<0.160713244786 +/- 4.5e-13>"),
    (lambda q, f: q == "q", "False"),
    (lambda q, f: (q > 1, q > 2, q > q), "(True, False, False)"),
    (lambda q, f: q, "<1.83928675521 +/- 4.5e-13>"),
], ids=["inverse-of-zero", "inverse-of-zero-at-q", "mixed-fields", "rsub", "eq-str", "gt",
        "repr"])
def test_element_refusals_and_printed_forms(op, outcome):
    # q is the tribonacci base, fresh, as a value prints its enclosure on the
    # interval of q as built; f the field of 1101011(0), whose working
    # polynomial has a factor besides the minimal one
    q = new_base_context(1, "111(0)").q
    f = new_base_context(1, "1101011(0)").field
    if isinstance(outcome, str):
        assert repr(op(q, f)) == outcome
        return
    with pytest.raises(outcome[0]) as info:
        op(q, f)
    assert str(info.value) == outcome[1]


def test_printing_a_value_never_refines_q():
    # the tribonacci root on the bracket [1, 2]: six places would need about
    # twenty bisections
    f = NumberField((-1, -1, -1, 1), 1, 2, 0)
    q = AlgebraicReal(f, f.gen())
    assert [repr(q), repr(2 - q), repr(q / 3), repr(q - q)] == [
        "<1.5 +/- 5.0e-01>", "<0.5 +/- 5.0e-01>", "<0.5 +/- 1.7e-01>", "<0 +/- 0.0e+00>"]
    # q^2000, about 2^1760, is enclosed past the float range
    big = q
    for _ in range(1999):
        big = big.mul_gen()
    assert repr(big) == "<inf +/- inf>" and repr(-big) == "<-inf +/- inf>"
    assert (f.n_lo, f.n_hi, f.e) == (1, 2, 0)


def test_integer_rounding_matches_fraction_rounding():
    # a decimal rounds half to even in ints, as round(Fraction) does, ties
    # and negative values included
    for n in range(-50, 51):
        for d in (1, 2, 3, 4, 8, 10, 16):
            assert algebraic._round_half_even(n, d) == round(Fraction(n, d)), (n, d)
    f = field_for_base((-2, 1), 2)
    eighth = f.rational(Fraction(1, 8))
    assert [f.decimal(eighth, 2), f.decimal(f.neg(eighth), 2), f.decimal(f.mul_int(eighth, 3), 2)] \
        == ["0.12", "-0.12", "0.38"]


def test_decimals_and_floats_are_correctly_rounded():
    # every point value printed to 12 places is its 40-place value rounded
    # half to even, reads the same on a fresh context as after q has been
    # refined for 40 places, and converts to the double nearest that value
    rng = random.Random(23)
    contexts = [new_base_context(M, beta) for M, beta in BATTERY + REDUCIBLE]
    contexts += [random_context(rng) for _ in range(100)]
    for ctx in contexts:
        values = list(special_points(ctx).value.items())
        fresh = {name: x.decimal(12) for name, x in values}
        for name, x in values:
            exact = Fraction(x.decimal(40))
            assert Fraction(fresh[name]) == round(exact, 12), (ctx.beta, name)
            assert x.decimal(12) == fresh[name], (ctx.beta, name)
            assert float(x) == float(exact), (ctx.beta, name)
