"""Bases whose working polynomial keeps factors besides the minimal one.

Their fields compute modulo the working polynomial and certify the minimal
polynomial only to hash, print, settle a sign or invert a zero divisor.
Every answer must equal the one from a context whose field is built on the
certified minimal polynomial itself.
"""

import pytest

from univoque import expansions as ex
from univoque.algebraic import AlgebraicReal, NumberField
from univoque.base import new_base_context, order_points
from univoque.digits import parse_seq
from univoque.graph import FULL, TILDE, build_graph, connectivity_report
from univoque.spectral import spectral_report

REDUCIBLE = [
    (7, "744516145(0)"), (7, "663123163(0)"), (7, "77041503(0)"),
    (2, "22021(0)"), (2, "220111121(0)"), (2, "2210221021(0)"), (2, "2201011(0)"),
    (6, "6624122(0)"), (6, "662035065(0)"),
    (4, "4403024(0)"), (4, "41123(0)"),
    (3, "333213011(0)"),
    (1, "1101011(0)"),
]


def on_min_poly(M, beta):
    """A context of the base whose field is built on its certified minimal
    polynomial, over the same isolating interval."""
    ctx = new_base_context(M, beta)
    f = ctx.field
    ctx.field = NumberField(f.min_poly, f.n_lo, f.n_hi, f.e)
    return ctx


def moved(x, field):
    """The value of x as an element of another field of the same base."""
    num, den = x.as_fraction()
    return AlgebraicReal(field, field.element(list(num) + [0] * (field.deg - len(num)), den))


def same_value(x, y):
    return (moved(x, y.field) - y).sign() == 0


def counted(ctx, x):
    res = ex.count_expansions(ctx, x)
    return res.kind, res.count, res.witnesses


@pytest.mark.parametrize("M, beta", REDUCIBLE)
def test_working_polynomial_answers_match_the_minimal_one(M, beta):
    ctx, ref = new_base_context(M, beta), on_min_poly(M, beta)
    assert ctx.field.deg > ref.field.deg
    order, ref_order = order_points(ctx), order_points(ref)
    assert order.chain() == ref_order.chain()
    assert all(same_value(x, y) for x, y in zip(order.values, ref_order.values))
    for variant in (FULL, TILDE):
        assert build_graph(ctx, variant).edges == build_graph(ref, variant).edges
    assert connectivity_report(ctx) == connectivity_report(ref)
    assert spectral_report(build_graph(ctx, TILDE), ctx) == \
        spectral_report(build_graph(ref, TILDE), ref)
    tail = ex.default_tail(ctx)
    assert tail == ex.default_tail(ref)
    for m in range(1, 4):
        (x, exps), (y, ref_exps) = ex.build_witness_xm(ctx, m, tail), ex.build_witness_xm(ref, m, tail)
        assert exps == ref_exps and same_value(x, y)
        assert counted(ctx, x) == counted(ref, y)
        assert counted(ctx, x)[:2] == (ex.EXACT, m)
    for s in ("0(1)", "(01)", "1(0)"):
        s = parse_seq(s)
        assert counted(ctx, ctx.value(s)) == counted(ref, ref.value(s))
