"""The pure-Python minimal polynomial against sympy's factorization.

sympy is a test-only oracle here: the package itself never imports it.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import univoque
from univoque import cli, minpoly
from univoque import digits as dg
from univoque import expansions as ex
from univoque.algebraic import (DegenerateInputError, NumberField, _cyclotomic, _dyadic_eval,
                                _sign, base_polynomial, field_for_base, poly_mul,
                                working_polynomial)
from univoque.base import new_base_context, order_points, v_successor
from univoque.digits import EpSeq
from univoque.graph import FULL, TILDE, TILDE1, build_graph, check_isomorphic, connectivity_report
from univoque.spectral import component_dimensions, spectral_report


def sympy_minimal_factor(P, field):
    """The factor in sympy's ``factor_list`` of P that vanishes in, or changes
    sign over, the field's isolating interval."""
    import sympy

    t = sympy.Symbol("t")
    _, factors = sympy.Poly(list(reversed(P)), t).factor_list()
    found = []
    for f, _mult in factors:
        coeffs = tuple(int(c) for c in reversed(f.all_coeffs()))
        s_lo = _sign(_dyadic_eval(coeffs, field.n_lo, field.e))
        s_hi = _sign(_dyadic_eval(coeffs, field.n_hi, field.e))
        if s_lo * s_hi <= 0:
            found.append(coeffs)
    assert len(found) == 1
    return found[0]


def assert_matches_sympy(ctx):
    assert ctx.field.min_poly == sympy_minimal_factor(ctx.defining_poly, ctx.field), \
        dg.format_seq(ctx.beta)


def chain(M, beta, depth):
    ctx = new_base_context(M, beta)
    out = [ctx]
    for _ in range(depth):
        ctx = v_successor(ctx)
        out.append(ctx)
    return out


def test_battery_matches_sympy(battery):
    for ctx in battery:
        assert_matches_sympy(ctx)


def test_tribonacci_chain_matches_sympy():
    for ctx in chain(1, "111(0)", 5):
        assert_matches_sympy(ctx)
    assert ctx.field.deg == 49


def test_tribonacci_depth_six_is_irreducible():
    # sympy's factor_list is too slow at this degree; its irreducibility
    # test is not
    import sympy

    ctx = chain(1, "111(0)", 6)[-1]
    m = ctx.field.min_poly
    assert ctx.field.deg == 97
    assert not univoque.algebraic._pseudo_divmod(ctx.defining_poly, m)[1]
    t = sympy.Symbol("t")
    assert sympy.Poly(list(reversed(m)), t).is_irreducible


def test_long_word_chain_matches_sympy():
    # after two steps the defining polynomial has the repeated factor (t + 1)^2
    ctxs = chain(2, "222002000222002(0)", 3)
    for ctx in ctxs:
        assert_matches_sympy(ctx)
    P = ctxs[2].defining_poly
    assert minpoly._squarefree_part(P) != P
    assert [ctx.field.deg for ctx in ctxs] == [15, 16, 30, 61]


@st.composite
def greedy_betas(draw):
    """Finite or eventually periodic greedy expansions of 1 (first digit M)."""
    M = draw(st.integers(1, 9))
    digits = st.integers(0, M)
    pre = (M,) + tuple(draw(st.lists(digits, max_size=5)))
    per = tuple(draw(st.lists(digits, min_size=1, max_size=5)))
    beta = EpSeq(pre, per)
    assume(beta != EpSeq((1,), (0,)) and dg.is_greedy_beta(M, beta))
    return M, beta


@settings(max_examples=80, deadline=None)
@given(greedy_betas())
def test_random_bases_match_sympy(case):
    M, beta = case
    try:
        field = field_for_base(base_polynomial(M, beta), M)
    except DegenerateInputError:
        assume(False)
    assert field.min_poly == sympy_minimal_factor(base_polynomial(M, beta), field)


def spy(monkeypatch, name, module=minpoly):
    calls = []
    inner = getattr(module, name)

    def wrapped(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_recombination_case(monkeypatch):
    # cofactor t^3 - t + 1 is not cyclotomic: it survives the strip, and
    # recombination of the lifted modular factors splits it off
    calls = spy(monkeypatch, "_zassenhaus")
    ctx = new_base_context(7, "77041503(0)")
    assert ctx.field.min_poly == (-3, -3, -8, -6, -7, 1)
    assert calls
    assert_matches_sympy(ctx)


@pytest.mark.parametrize("M, beta, min_poly", [
    (4, "4403024(0)", (-4, 6, -8, 7, -6, 1)),
    (4, "44110(002123)", (-3, 5, -7, 11, -11, 10, -9, 7, -6, 1)),
])
def test_non_squarefree_cases(M, beta, min_poly):
    ctx = new_base_context(M, beta)
    P = ctx.defining_poly
    assert minpoly._squarefree_part(P) != P
    assert ctx.field.min_poly == min_poly
    assert_matches_sympy(ctx)


@pytest.mark.parametrize("n_lo, n_hi", [(1, 2), (3, 4)])
def test_minimal_factor_refuses_an_interval_without_one_root(n_lo, n_hi):
    # (t^2 - 2)(t^2 - 3): [1, 2] holds the roots of both factors, [3, 4] none
    R = poly_mul((-2, 0, 1), (-3, 0, 1))
    with pytest.raises(DegenerateInputError,
                       match="^could not isolate a unique irreducible factor$"):
        minpoly.minimal_factor(R, n_lo, n_hi, 0)


def test_integer_root_needs_no_factorization(monkeypatch):
    def refuse(*_args):
        raise AssertionError("an integer base needs no factorization")

    monkeypatch.setattr(minpoly, "minimal_factor", refuse)
    assert new_base_context(2, "2(0)").field.min_poly == (-2, 1)


def test_one_ddf_per_context(monkeypatch, battery):
    # building a context factors nothing; the first read of the minimal
    # polynomial takes one prime, one distinct-degree factorization (no
    # search over primes), and later reads none
    calls = spy(monkeypatch, "_ddf")

    def certified_once(ctx, label):
        assert not calls, label
        ctx.field.min_poly
        assert len(calls) == 1, label
        ctx.field.min_poly
        assert len(calls) == 1, label
        calls.clear()

    for M, beta in [(ctx.M, ctx.beta) for ctx in battery] + [(7, "77041503(0)")]:
        certified_once(new_base_context(M, beta), beta)
    ctx = new_base_context(1, "111(0)")
    calls.clear()
    for depth in range(1, 6):
        ctx = v_successor(ctx)
        certified_once(ctx, depth)


def test_graphs_factor_nothing_and_counts_factor_once(monkeypatch, battery):
    # only hashing and printing need the minimal polynomial: contexts, point
    # orders, graphs, isomorphisms and spectra of these bases run on the
    # working polynomial, and an expansion count certifies its field once
    calls = spy(monkeypatch, "_factors")
    bases = [(ctx.M, ctx.beta) for ctx in battery]
    for M, beta in bases:
        ctx = new_base_context(M, beta)
        order_points(ctx)
        for variant in (FULL, TILDE, TILDE1):
            build_graph(ctx, variant)
        connectivity_report(ctx)
        component_dimensions(ctx)
        spectral_report(build_graph(ctx, TILDE), ctx)
        succ = v_successor(ctx)
        assert check_isomorphic(build_graph(ctx, FULL), build_graph(succ, FULL)) is not None
    ctx = new_base_context(1, "111(0)")
    for _ in range(4):
        ctx = v_successor(ctx)
    # unequal values, and a sign that refines a numerator coprime to the
    # working polynomial, decide without certifying, on reducible R too
    for M, beta in bases + [(7, "77041503(0)"), (1, "1101011(0)")]:
        ctx = new_base_context(M, beta)
        values = order_points(ctx).values
        assert all(u != v and not u == v for u, v in zip(values, values[1:]))
        f = ctx.field
        assert f.sign(f.sub(f.gen(), f.rational(f.lo))) == 1
    # printing q reads a numerator of degree 1, which needs no reduction
    for argv in (["base", "classify", "-M", "7", "--beta", "77041503(0)"],
                 ["base", "chain", "-M", "1", "--beta", "111(0)", "--kind", "v", "--steps", "4"]):
        assert cli.main(argv) == 0
    assert calls == []
    x = dg.parse_seq("1(01)")
    for M, beta in bases:
        ctx = new_base_context(M, beta)
        ex.count_expansions(ctx, ctx.value(x))
        ex.count_expansions(ctx, ctx.kappa - ctx.value(x))
        assert len(calls) == 1, beta
        calls.clear()


def test_factors_when_no_prime_certifies():
    # Swinnerton-Dyer t^4 - 10 t^2 + 1 is irreducible but splits modulo every
    # prime, so only trial division rejects the recombined candidates
    sd, cubic = (1, 0, -10, 0, 1), (1, -1, 0, 1)
    assert minpoly._factors(sd) == [sd]
    product = univoque.algebraic.poly_mul(sd, cubic)
    assert sorted(minpoly._factors(product)) == sorted([sd, cubic])


def test_cyclotomic_strip_keeps_only_exact_divisors():
    mul = univoque.algebraic.poly_mul
    # (t + 1) divides t^2 - 1 and is stripped; (t - 8) is not cyclotomic
    assert working_polynomial(mul((-8, 1), (1, 1))) == (-8, 1)
    # a linear P with no cyclotomic factor is its own R
    assert working_polynomial((-8, 1)) == (-8, 1)
    # a repeated cyclotomic factor leaves completely
    assert working_polynomial(mul((-8, 0, 1), mul((1, 1), (1, 1)))) == (-8, 0, 1)
    # Phi_2 does not divide t^3 - 1, so only divisors k of deg P are tried
    P = mul((-8, 1), mul((1, 1), (1, 1)))
    assert working_polynomial(P) == P


def gcd_working_polynomial(P):
    """The working polynomial by gcds modulo the large prime: the squarefree
    part of P, less its gcd with t^L - 1, L = deg P, once exact division
    confirms that gcd.  A reference for ``algebraic.working_polynomial``."""
    m = univoque.algebraic.LARGE_PRIME
    R = minpoly._squarefree_part(P)
    cyc = (-1,) + (0,) * (len(P) - 2) + (1,)
    while len(R) > 1:
        g = minpoly._gcd(minpoly._mod(R, m), minpoly._mod(cyc, m), m)
        if len(g) == 1:
            break
        g = minpoly._symmetric(g, m)
        quo, rem = univoque.algebraic._pseudo_divmod(R, g)
        if rem or univoque.algebraic._pseudo_divmod(cyc, g)[1]:
            break
        R = univoque.algebraic.poly_trim(quo)
    return R


def bisected(poly, M):
    """The isolating cell of a field on the monic ``poly`` after 40
    bisections of the bracket [1, M+1]."""
    f = NumberField(poly, 1, M + 1, 0)
    for _ in range(40):
        f.refine_to(f.e + 1)
    return f.n_lo, f.n_hi, f.e


def assert_strip_matches_gcds(ctx):
    P, R = ctx.defining_poly, ctx.field.working_poly
    assert R == gcd_working_polynomial(P), dg.format_seq(ctx.beta)
    assert bisected(R, ctx.M) == bisected(P, ctx.M), dg.format_seq(ctx.beta)


def test_strip_matches_gcds_along_chains(battery):
    for ctx in battery:
        for succ in chain(ctx.M, ctx.beta, 4):
            assert_strip_matches_gcds(succ)
    for ctx in chain(1, "111(0)", 8):
        assert_strip_matches_gcds(ctx)
    # after two steps P has the repeated factor (t + 1)^2, and R loses both copies
    for ctx in chain(2, "222002000222002(0)", 3):
        assert_strip_matches_gcds(ctx)
        assert _dyadic_eval(ctx.field.working_poly, -1, 0)


@settings(max_examples=100, deadline=None)
@given(greedy_betas())
def test_strip_matches_gcds_on_random_bases(case):
    M, beta = case
    P = base_polynomial(M, beta)
    R = working_polynomial(P)
    assert R == gcd_working_polynomial(P)
    assert bisected(R, M) == bisected(P, M)


def test_cyclotomic_polynomials_match_sympy():
    import sympy

    t = sympy.Symbol("t")
    for k in list(range(1, 201)) + [3 << j for j in range(11)]:
        coeffs = sympy.Poly(sympy.cyclotomic_poly(k, t), t).all_coeffs()
        assert _cyclotomic(k) == tuple(int(c) for c in reversed(coeffs)), k


def test_deep_context_takes_no_gcd(monkeypatch):
    # the strip divides exactly; only certifying m_q needs a squarefree R
    beta = chain(1, "111(0)", 8)[-1].beta
    gcds, squarefree = spy(monkeypatch, "_gcd"), spy(monkeypatch, "_squarefree_part")
    field_gcds = spy(monkeypatch, "_gcd", univoque.algebraic)      # the field's coprimality test
    assert new_base_context(1, beta).field.deg == 385
    assert gcds == [] and squarefree == [] and field_gcds == []


def test_hensel_lift_reproduces_known_factors():
    # both factors are irreducible modulo 5, and coprime there
    g, h = (7, 0, 1), (11, -9, 0, 1)
    f = univoque.algebraic.poly_mul(g, h)
    k = 3
    m = 5 ** (1 << k)
    lifted = minpoly.hensel_lift(f, [minpoly._mod(g, 5), minpoly._mod(h, 5)], 5, k)
    assert lifted == [minpoly._mod(g, m), minpoly._mod(h, m)]


def test_recombination_cap_exits_2(monkeypatch, capsys):
    # an expansion count hashes values, so it certifies m_q
    monkeypatch.setattr(minpoly, "RECOMBINATION_CAP", 0)
    assert cli.main(["expansions", "count", "-M", "7", "--beta", "77041503(0)",
                     "--x", "1(0)"]) == 2
    assert "recombination" in capsys.readouterr().err
    # a base with a single modular factor never recombines
    assert cli.main(["expansions", "count", "-M", "1", "--beta", "111(0)", "--x", "1(0)"]) == 0


def test_cli_imports_no_sympy():
    src = os.path.dirname(os.path.dirname(univoque.__file__))
    code = ("import sys\n"
            "from univoque.cli import main\n"
            "assert main(['base', 'classify', '-M', '1', '--beta', '111(0)']) == 0\n"
            "assert main(['dim', '-M', '1', '--beta', '111(0)']) == 0\n"
            "print('sympy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
