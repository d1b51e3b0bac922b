"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
All tolerances are fixed here, not configurable.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from univoque import digits as dg
from univoque import expansions as ex
from univoque.algebraic import AlgebraicReal, field_for_base
from univoque.base import (BaseClass, golden_ratio_base, new_base_context, order_points,
                           r_chain, special_points, v_successor)
from univoque.digits import EpSeq
from univoque.graph import (FULL, TILDE, TILDE1, UnivoqueGraph, build_graph, check_isomorphic,
                            connectivity_report, is_strongly_connected, path_words, scc,
                            tower_decompose, _label_dfa)
from univoque.oracle import LexAutomaton, U_PREFIX, V_PREFIX
from univoque.spectral import component_dimensions, spectral_radius
from conftest import mirror_map, out_map, random_context


def report(n, text):
    print(f"[acceptance] criterion {n:2d} PASS: {text}")


def test_criterion_01_base_constants():
    targets = [
        ((-1, -1, 1), 1.61803),
        ((-1, -1, -2, 0, 1), 1.71064),
        ((-1, 1, -2, 1), 1.75488),
        ((-1, -1, -1, 1), 1.83929),
    ]
    for poly, ref in targets:
        field = field_for_base(poly, 1)
        q = float(AlgebraicReal(field, field.gen()))
        assert abs(q - ref) <= 1e-5, (poly, q, ref)
    report(1, "four reference roots isolated to 1e-5")


def test_criterion_02_successor_chains():
    phi = golden_ratio_base(1)
    c1 = v_successor(phi)
    c2 = v_successor(c1)
    assert phi.alpha == dg.parse_seq("(10)")
    assert c1.alpha == dg.parse_seq("(1100)")
    assert c2.alpha == dg.parse_seq("(11010010)")
    trib = new_base_context(1, "111(0)")
    t1 = v_successor(trib)
    t2 = v_successor(t1)
    assert trib.alpha == dg.parse_seq("(110)")
    assert t1.alpha == dg.parse_seq("(111000)")
    assert t2.alpha == dg.parse_seq("(111001000110)")
    report(2, "both successor chains reproduced structurally")


def test_criterion_03_vertex_counts(battery):
    for ctx in battery:
        full = build_graph(ctx, FULL)
        assert len(full.vertices) == 2 * ctx.n_period + ctx.M - 1, ctx.beta
        succ = v_successor(ctx)
        assert len(build_graph(succ, FULL).vertices) == succ.n_period + succ.M - 1
    report(3, "vertex-count formulas exact on the battery and its successors")


EXPECTED_CHAINS = [
    (1, "111(0)", "th0<b1<b2<a3=th1<b3=et1<a2<a1<et2"),
    (1, "11111(0)", "th0<b1<b2<b3<b4<a5=th1<b5=et1<a4<a3<a2<a1<et2"),
    (2, "2222(0)", "th0<b1<b2<b3<th1<b4=et1<a4=th2<et2<a3<a2<a1<et3"),
    (1, "11011(0)", "th0<b1<b4<b2<a3<a5=th1<b5=et1<b3<a2<a4<a1<et2"),
    (4, "4331(0)", "th0<b1<a4=th1<et1<b2<b3<th2<et2<th3<et3<a3<a2<th4<b4=et4<a1<et5"),
    (1, "1110011011(0)",
     "th0<b1<b6<b2<a4<b9<b7<a8<b3<a5<a10=th1<b10=et1<b5<a3<b8<a7<a9<b4<a2<a6<a1<et2"),
    (1, "111001010(0)",
     "th0<b1<a4<b2<a7<a5<b6<b3<a8=th1<b8=et1<a3<a6<b5<b7<a2<b4<a1<et2"),
    (4, "322(0)", "th0<th1<et1<b1<a3=th2<et2<a2<b2<th3<b3=et3<a1<th4<et4<et5"),
    (3, "331(0)", "th0<b1<b2<a3=th1<et1<th2<et2<th3<b3=et3<a2<a1<et4"),
]


def test_criterion_04_point_orders():
    for M, beta, expected in EXPECTED_CHAINS:
        got = order_points(new_base_context(M, beta)).chain()
        assert got == expected, (M, beta, got)
    report(4, f"{len(EXPECTED_CHAINS)} point-order chains match byte for byte")


def test_criterion_05_central_fixture(base322):
    g = build_graph(base322, TILDE)
    assert {g.vertex_name(v) for v in g.vertices} == {"(b1,a3)", "(et2,a2)", "(a2,b2)",
                                                      "(b2,th3)", "(b3,a1)"}
    byidx = {v.index: g.vertex_name(v) for v in g.vertices}
    edges = {(byidx[i], k, byidx[j]) for i, k, j in g.edges}
    assert edges == {
        ("(b1,a3)", 1, "(b2,th3)"), ("(b1,a3)", 1, "(b3,a1)"),
        ("(et2,a2)", 2, "(b1,a3)"), ("(b2,th3)", 2, "(b3,a1)"),
        ("(b3,a1)", 3, "(b1,a3)"), ("(b3,a1)", 3, "(et2,a2)"),
        ("(a2,b2)", 2, "(et2,a2)"), ("(a2,b2)", 2, "(a2,b2)"), ("(a2,b2)", 2, "(b2,th3)"),
    }
    comps, _ = scc(g)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 4]
    singleton = next(c for c in comps if len(c) == 1)
    assert byidx[singleton[0]] == "(a2,b2)"
    assert not is_strongly_connected(g)
    assert component_dimensions(base322).core_equals_overall
    report(5, "five vertices, nine edges, split components, transfer hypothesis holds")


def test_criterion_06_component_radii():
    rep = component_dimensions(new_base_context(1, "111001000111001(0)"))
    radii = sorted(r for _n, r in rep.per_scc)
    assert len(radii) == 2
    assert abs(radii[0] - 1.14798) <= 1e-4
    assert abs(radii[1] - 1.61803) <= 1e-4
    assert connectivity_report(new_base_context(2, "222002000222002(0)")).strongly_connected
    report(6, "component radii 1.14798/1.61803; wider-alphabet twin strongly connected")


def test_criterion_07_successor_isomorphism(tribonacci, base331):
    for ctx in (tribonacci, base331):
        g0 = build_graph(ctx, FULL)
        c1 = v_successor(ctx)
        g1 = build_graph(c1, FULL)
        assert check_isomorphic(g0, g1) is not None, ctx.beta
        g2 = build_graph(v_successor(c1), FULL)
        assert check_isomorphic(g1, g2) is None, ctx.beta
    report(7, "seed and first successor isomorphic; next step not")


def test_criterion_08_tower(tribonacci, base331):
    for ctx in (tribonacci, base331):
        dec = tower_decompose(ctx, 3)
        n = dec.n
        assert [len(b) for b in dec.blocks] == [n, 2 * n, 4 * n]
        top = dec.graphs[-1]
        for path, _word in dec.cycles[1:]:
            inside = set(path)
            for v in path:
                assert sum(1 for _k, j in top.out[v] if j in inside) == 1
        # reachability between levels is verified inside tower_decompose;
        # re-check the top cycle is closed off
        last = set(dec.cycles[-1][0])
        for v in last:
            assert all(j in last for _k, j in top.out[v])
    dec = tower_decompose(base331, 3)
    assert dec.cycles[1][1] == (0, 0, 2, 3, 3, 1)
    assert dec.cycles[2][1] == (0, 0, 2, 3, 3, 0, 3, 3, 1, 0, 0, 3)
    report(8, "tower levels n, 2n, 4n with single cycles and ordered reachability")


def _graph_words_by_level(g, L):
    start, trans = _label_dfa(g)
    levels = [set() for _ in range(L + 1)]
    stack = [(start, ())]
    while stack:
        s, w = stack.pop()
        levels[len(w)].add(w)
        if len(w) == L:
            continue
        for k, t in trans[s]:
            stack.append((t, w + (k,)))
    return levels


def _oracle_accept(ctx, mode):
    auto = LexAutomaton(ctx.M, ctx.alpha.per)
    return auto, auto.admissible(mode == U_PREFIX)


def _oracle_words_by_level(ctx, L, mode):
    auto, part = _oracle_accept(ctx, mode)
    levels = [set() for _ in range(L + 1)]
    stack = [(auto.start(), ())]
    while stack:
        s, w = stack.pop()
        levels[len(w)].add(w)
        if len(w) == L:
            continue
        for d, t in part[s]:
            stack.append((t, w + (d,)))
    return levels


def _language_check(g, ctx, mode):
    """Compare the graph's label language with the oracle's prefixes, for all
    lengths at once.

    Breadth-first over pairs (subset-automaton state of the graph, state of
    the follower automaton's admissible part), from the pair of start
    states.  Both automata are deterministic and both languages are closed
    under prefixes, so the languages agree on every length up to L exactly
    when the enabled digit sets agree at every pair reached in fewer than L
    steps; once no new pair appears, they agree on every length
    (Hopcroft-Karp 1971).  Returns (True, levels to the fixpoint) or
    (False, the least length on which the languages differ).
    """
    start, trans = _label_dfa(g)
    auto, part = _oracle_accept(ctx, mode)
    frontier = [(start, auto.start())]
    seen = set(frontier)
    level = 0
    while frontier:
        level += 1
        nxt = []
        for gs, os in frontier:
            omoves = dict(part[os])
            if {k for k, _t in trans[gs]} != set(omoves):
                return False, level
            for d, gt in trans[gs]:
                pair = (gt, omoves[d])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return True, level


def test_criterion_09_language_oracle(battery):
    # all lengths on every battery pair, by the product exploration
    for ctx in battery:
        for c, mode in ((ctx, V_PREFIX), (v_successor(ctx), U_PREFIX)):
            agree, level = _language_check(build_graph(c, FULL), c, mode)
            assert agree, (dg.format_seq(c.beta), mode, level)
    # the literal word sets up to length 10 on the two smallest bases, as a
    # check on the checker
    L = 10
    for ctx in battery[:2]:
        for c, mode in ((ctx, V_PREFIX), (v_successor(ctx), U_PREFIX)):
            g_levels = _graph_words_by_level(build_graph(c, FULL), L)
            o_levels = _oracle_words_by_level(c, L, mode)
            for ell in range(1, L + 1):
                assert g_levels[ell] == o_levels[ell], (c.beta, mode, ell)
    report(9, "graph languages equal oracle prefixes for every length, both classes")


def test_language_check_rejects_a_missing_edge(battery):
    # the check on a wrong graph: each FULL graph of criterion 9 less any one
    # of its edges reads a language other than the oracle's
    mutants = 0
    for ctx in battery:
        for c, mode in ((ctx, V_PREFIX), (v_successor(ctx), U_PREFIX)):
            g = build_graph(c, FULL)
            all_edges = g.edges
            for cut in range(len(all_edges)):
                edges = all_edges[:cut] + all_edges[cut + 1:]
                mutant = UnivoqueGraph(c, FULL, g.order, g.vertices, out_map(g.vertices, edges))
                agree, _level = _language_check(mutant, c, mode)
                assert not agree, (dg.format_seq(c.beta), mode, all_edges[cut])
                mutants += 1
    assert mutants > 100


def test_language_check_along_successor_chain(tribonacci):
    """U mode agrees for every length along the 111(0) successor chain to
    depth 5; V mode differs at a finite length, the same one at which the
    enumerated word sets first differ."""
    ctx = tribonacci
    for depth in range(1, 6):
        ctx = v_successor(ctx)
        g = build_graph(ctx, FULL)
        assert _language_check(g, ctx, U_PREFIX)[0], depth
        agree, level = _language_check(g, ctx, V_PREFIX)
        assert not agree, depth
        if depth == 1:
            g_levels = _graph_words_by_level(g, level)
            o_levels = _oracle_words_by_level(ctx, level, V_PREFIX)
            assert [g_levels[ell] == o_levels[ell] for ell in range(level + 1)] == \
                [True] * level + [False]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_language_check_on_drawn_bases(seed):
    """All lengths on a drawn base and its successor, each in the mode of its
    class: V on a limit-of-uniqueness base, U on an in-between one."""
    ctx = random_context(random.Random(seed))
    for c in (ctx, v_successor(ctx)):
        mode = V_PREFIX if c.base_class is BaseClass.IN_CLOSURE_U_NOT_U else U_PREFIX
        agree, level = _language_check(build_graph(c, FULL), c, mode)
        assert agree, (c.M, dg.format_seq(c.beta), mode, level)


def test_criterion_10_expansion_counting(tribonacci, base322):
    for ctx in (tribonacci, base322):
        tail = ex.default_tail(ctx)
        for m in (1, 2, 3, 4):
            x, exps = ex.build_witness_xm(ctx, m, tail)
            res = ex.count_expansions(ctx, x)
            assert res.kind == ex.EXACT and res.count == m, (ctx.beta, m, res)
            assert set(res.witnesses) == set(exps)
    q2 = new_base_context(2, "2(0)")
    assert ex.count_expansions(q2, q2.value(dg.parse_seq("(1)"))).kind == ex.INFINITE_CYCLE
    rng = random.Random(97)
    checked = 0
    for ctx in (tribonacci, base322):
        for _ in range(10):
            s = EpSeq(tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(0, 3))),
                      tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(1, 3))))
            x = ctx.value(s)
            a = ex.count_expansions(ctx, x, cap=20000)
            b = ex.count_expansions(ctx, ctx.kappa - x, cap=20000)
            assert (a.kind, a.count) == (b.kind, b.count), (ctx.beta, s)
            checked += 1
    assert checked == 20
    report(10, "witness counts exact for m=1..4; integer base infinite; "
               "reflection symmetry on 20 random points")


def test_criterion_11_entropy_constancy(tribonacci, base322):
    for base in (tribonacci, base322):
        radii = []
        for k in range(4):
            r, _err = spectral_radius(build_graph(r_chain(base, k), TILDE))
            radii.append(r)
        assert max(radii) - min(radii) <= 1e-6, (base.beta, radii)
    report(11, "central-graph radius constant along both chains (1e-6)")


def _property_suite(ctx):
    order = order_points(ctx)   # internally cross-checks lex vs algebraic order
    for k in range(len(order.values) - 1):
        assert order.values[k].cmp(order.values[k + 1]) < 0
    full = build_graph(ctx, FULL)
    graphs = [full]
    if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U:
        graphs.append(build_graph(ctx, TILDE))
    for g in graphs:
        edges = {(i, k, j) for i, k, j in g.edges}
        mirror = mirror_map(g)
        for i, k, j in edges:
            assert (mirror[i], ctx.M - k, mirror[j]) in edges
        for v in g.vertices:
            assert {k for k, _j in g.out[v.index]} <= {v.label}
    if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U:
        core = build_graph(ctx, TILDE1)
        assert is_strongly_connected(core)
        w = ctx.alpha_word()
        words = path_words(core, len(w))
        assert tuple(w) in words and dg.word_reflect(w, ctx.M) in words
        connectivity_report(ctx)   # raises if the criteria disagree
    pts = special_points(ctx)
    for name in ("a1", "b1", f"a{ctx.n_period}", "th1", f"et{ctx.M}"):
        val = pts.value[name]
        assert (ctx.value(ex.quasi_greedy_expand(ctx, val)) - val).sign() == 0


def test_criterion_12_property_suites(battery):
    for ctx in battery:
        _property_suite(ctx)
    rng = random.Random(101)
    for _ in range(100):
        _property_suite(random_context(rng))
    report(12, "property suite clean on the battery plus 100 random bases")
