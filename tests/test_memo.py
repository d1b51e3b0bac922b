"""What a context derives it derives once, through ``base.memo``: successor
contexts, graphs and spectra are shared objects, the argument and class
checks still run on every call, and a context warmed by every memoised path
answers exactly as a fresh context of the same base."""

import pytest

from univoque.base import (BaseClass, UnsupportedClassError, new_base_context, order_points,
                           r_chain, v_successor)
from univoque.graph import FULL, TILDE, build_graph, tower_decompose
from univoque.spectral import component_dimensions, spectral_radius, spectral_report
from conftest import BATTERY

LIMIT = BaseClass.IN_CLOSURE_U_NOT_U
DEPTH = 3


def test_v_successor_is_the_first_r_chain_element():
    ctx = new_base_context(1, "111(0)")
    assert r_chain(ctx, 1) is v_successor(ctx)
    ctx = new_base_context(3, "331(0)")
    assert v_successor(ctx) is r_chain(ctx, 1)
    assert r_chain(ctx, 0) is ctx
    assert r_chain(ctx, 2) is r_chain(ctx, 2)
    assert r_chain(ctx, 2) is not r_chain(ctx, 1)


def test_tower_takes_the_chain_graphs():
    ctx = new_base_context(1, "111(0)")
    dec = tower_decompose(ctx, 3)
    c = ctx
    for j in range(4):
        assert dec.graphs[j] is build_graph(c, FULL), j
        c = v_successor(c)


def test_default_variant_is_the_full_graph():
    ctx = new_base_context(4, "322(0)")
    assert build_graph(ctx) is build_graph(ctx, FULL)
    assert build_graph(ctx, TILDE) is build_graph(ctx, TILDE)


def test_checks_run_on_a_warm_cache():
    ctx = new_base_context(1, "111(0)")
    r_chain(ctx, 1)
    build_graph(ctx, FULL)
    for _ in range(2):
        with pytest.raises(ValueError):
            r_chain(ctx, -1)
        with pytest.raises(ValueError):
            build_graph(ctx, "NOPE")
    below = new_base_context(1, "101(0)")
    assert below.base_class is BaseClass.NOT_IN_V
    assert below.kappa is below.kappa
    for _ in range(2):
        with pytest.raises(UnsupportedClassError):
            v_successor(below)


def _answers(ctx, tower_steps):
    """Everything compared between a warm and a fresh context."""
    tilde = build_graph(ctx, TILDE)
    rep = spectral_report(tilde, ctx)
    out = {
        "order": order_points(ctx).classes,
        "report": (rep.radius, rep.radius_err, rep.dimension, rep.dimension_err, rep.per_scc),
        "radius": spectral_radius(tilde),
    }
    if ctx.base_class is LIMIT:
        out["dims"] = component_dimensions(ctx)
        if tower_steps:
            dec = tower_decompose(ctx, tower_steps)
            out["tower"] = (dec.blocks, dec.cycles, dec.residual)
    return out


def _warm_chain(seed):
    """The chain of ``seed`` to DEPTH, warmed by its tower and by all three
    spectral readers on every element."""
    chain = [seed]
    for _ in range(DEPTH):
        chain.append(v_successor(chain[-1]))
    tower_decompose(seed, DEPTH)
    for c in chain:
        tilde = build_graph(c, TILDE)
        spectral_report(tilde, c)
        if c.base_class is LIMIT:
            component_dimensions(c)
        spectral_radius(tilde)
    return chain


@pytest.mark.parametrize("M, beta", BATTERY)
def test_warm_chain_matches_fresh(M, beta):
    # the battery starts with 111(0): its chain to depth 3 is the first case
    chain = _warm_chain(new_base_context(M, beta))
    for j, warm in enumerate(chain):
        fresh = new_base_context(warm.M, warm.beta)
        steps = DEPTH - j
        assert _answers(warm, steps) == _answers(fresh, steps), (M, beta, j)
