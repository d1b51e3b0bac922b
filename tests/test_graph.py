import copy
import json
import random
import re
import signal
from bisect import bisect_left, bisect_right
from types import SimpleNamespace

import pytest

from univoque import base, cli, graph, spectral
from univoque import digits as dg
from univoque.algebraic import NumberField, apply_digit_map
from univoque.base import (BaseClass, InternalConsistencyError, UnsupportedClassError,
                           golden_ratio_base, new_base_context, order_points, special_points,
                           v_successor)
from univoque.graph import (FULL, TILDE, TILDE1, build_graph, check_isomorphic,
                            connectivity_report, count_label_paths, is_strongly_connected,
                            path_words, scc, tower_decompose)
from univoque.spectral import component_dimensions, spectral_report
from univoque.walk import WORD_CAP, count_words, explore, tarjan
from conftest import BATTERY, mirror_map, out_map, random_context
from test_expansions import record_calls
from test_reducible import REDUCIBLE


def names_of(g):
    return {g.vertex_name(v) for v in g.vertices}


def edges_by_name(g):
    return {(g.gap_name(i), k, g.gap_name(j)) for i, k, j in g.edges}


def test_vertex_count_formulas(battery):
    for ctx in battery:
        full = build_graph(ctx, FULL)
        assert len(full.vertices) == 2 * ctx.n_period + ctx.M - 1
        succ = v_successor(ctx)
        sfull = build_graph(succ, FULL)
        assert len(sfull.vertices) == succ.n_period + succ.M - 1


def test_min_v_graphs():
    g2 = build_graph(golden_ratio_base(2), FULL)
    assert len(g2.vertices) == 2
    assert sorted(g2.edges) == [(0, 0, 0), (3, 2, 3)]
    g1 = build_graph(golden_ratio_base(1), FULL)
    assert sorted(g1.edges) == [(0, 0, 0), (2, 1, 2)]
    # odd alphabet: middle vertices only receive edges from the extremes
    g3 = build_graph(golden_ratio_base(3), FULL)
    assert len(g3.vertices) == 4
    assert sorted(g3.edges) == [(0, 0, 0), (0, 0, 2), (6, 3, 4), (6, 3, 6)]


def test_central_fixture_322(base322):
    g = build_graph(base322, TILDE)
    assert names_of(g) == {"(b1,a3)", "(et2,a2)", "(a2,b2)", "(b2,th3)", "(b3,a1)"}
    assert edges_by_name(g) == {
        ("(b1,a3)", 1, "(b2,th3)"),
        ("(b1,a3)", 1, "(b3,a1)"),
        ("(et2,a2)", 2, "(b1,a3)"),
        ("(b2,th3)", 2, "(b3,a1)"),
        ("(b3,a1)", 3, "(b1,a3)"),
        ("(b3,a1)", 3, "(et2,a2)"),
        ("(a2,b2)", 2, "(et2,a2)"),
        ("(a2,b2)", 2, "(a2,b2)"),
        ("(a2,b2)", 2, "(b2,th3)"),
    }
    comps, cond = scc(g)
    comp_names = [sorted(g.gap_name(v) for v in c) for c in comps]
    assert ["(a2,b2)"] in comp_names
    assert sorted(len(c) for c in comps) == [1, 4]
    core = build_graph(base322, TILDE1)
    assert names_of(core) == {"(b1,a3)", "(et2,a2)", "(b2,th3)", "(b3,a1)"}


def test_single_selfloop_is_one_scc(base322):
    g = build_graph(base322, TILDE)
    sub = [v for v in g.vertices if g.vertex_name(v) == "(a2,b2)"]
    assert len(sub) == 1
    comps, _ = scc(g)
    assert [sub[0].index] in comps


def test_uniform_out_labels(battery):
    for ctx in battery:
        for variant in (FULL, TILDE, TILDE1):
            g = build_graph(ctx, variant)
            for v in g.vertices:
                labels = {k for k, _j in g.out[v.index]}
                assert len(labels) <= 1
                if labels:
                    assert labels == {v.label}


def test_every_vertex_has_outgoing_edge(battery):
    # holds away from the smallest admissible base (the odd-alphabet minimum
    # has sink vertices between the switch intervals)
    for ctx in battery:
        for c in (ctx, v_successor(ctx)):
            g = build_graph(c, FULL)
            assert all(g.out[v.index] for v in g.vertices), c.beta


def test_edge_reflection_symmetry(battery):
    for ctx in battery:
        for variant in (FULL, TILDE):
            g = build_graph(ctx, variant)
            edges = {(i, k, j) for i, k, j in g.edges}
            mirror = mirror_map(g)
            for i, k, j in edges:
                assert (mirror[i], ctx.M - k, mirror[j]) in edges


def test_incoming_below_b1_forced_to_zero(battery):
    for ctx in battery:
        g = build_graph(ctx, FULL)
        b1 = g.order.index_of["b1"]
        low = {v.index for v in g.vertices if v.right <= b1}
        first = g.vertices[0].index
        for i, k, j in g.edges:
            if j in low:
                assert i == first and k == 0


def test_core_subgraph_strongly_connected(battery):
    for ctx in battery:
        core = build_graph(ctx, TILDE1)
        assert is_strongly_connected(core), ctx.beta
        w = ctx.alpha_word()
        words = path_words(core, len(w))
        assert tuple(w) in words
        assert dg.word_reflect(w, ctx.M) in words


def test_connectivity_battery():
    expected = {
        (1, "111(0)"): (True, True),
        (1, "11011(0)"): (True, True),
        (4, "4331(0)"): (True, True),
        (3, "331(0)"): (True, True),
        (4, "322(0)"): (False, False),
        (1, "111001010(0)"): (True, False),   # connected, endpoint test inconclusive
        (1, "1110011011(0)"): (True, True),
        (1, "111001000111001(0)"): (False, False),
    }
    for (M, beta), (sc, suff) in expected.items():
        rep = connectivity_report(new_base_context(M, beta))
        assert rep.strongly_connected == sc, beta
        assert rep.reach_criterion == sc, beta
        assert rep.sufficient_b2 == suff, beta
        if M == 1:
            assert rep.m1_ab_criterion == sc, beta
    # the endpoint test read from the certified point order agrees with
    # exact comparisons of b2 against every middle a_i
    ctxs = [new_base_context(M, beta) for M, beta in expected]
    rng = random.Random(7)
    while len(ctxs) < len(expected) + 100:
        ctx = random_context(rng)
        if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U:
            ctxs.append(ctx)
    verdicts = []
    for ctx in ctxs:
        pts, N = special_points(ctx), ctx.n_period
        exact = N >= 3 and all(pts.value["b2"].cmp(pts.value[f"a{i}"]) < 0
                               for i in range(2, N))
        assert connectivity_report(ctx).sufficient_b2 == exact, (ctx.M, ctx.beta)
        verdicts.append(exact)
    assert set(verdicts) == {True, False}


def split_context():
    """A fresh context of the split M = 1 base 111001000111001(0) with its
    three graphs built, so that a doctored criterion reaches only the
    report."""
    ctx = new_base_context(1, "111001000111001(0)")
    return ctx, [build_graph(ctx, variant) for variant in (FULL, TILDE, TILDE1)]


def test_connectivity_report_refuses_a_disagreeing_reach_criterion(monkeypatch):
    # a component count that says connected, against the core's reach
    ctx, _graphs = split_context()
    monkeypatch.setattr(graph, "is_strongly_connected", lambda g: True)
    with pytest.raises(InternalConsistencyError, match="^reachability criterion and component "
                       "count disagree on strong connectedness$"):
        connectivity_report(ctx)


def test_connectivity_report_refuses_a_disagreeing_two_digit_criterion(monkeypatch):
    # no a-point, so the core reaches every crossing vertex, while every
    # class counts as a switch point, which keeps the reach criterion false
    ctx, (_full, tilde, _core) = split_context()
    _a, b, _th = graph._point_classes(ctx)
    every = set(range(len(tilde.order.classes)))
    monkeypatch.setattr(graph, "_point_classes", lambda c: (set(), b, every))
    with pytest.raises(InternalConsistencyError,
                       match="^two-digit criterion disagrees with component count$"):
        connectivity_report(ctx)


def test_connectivity_report_refuses_a_split_graph_under_the_endpoint_test():
    # b2 put below every a-point: the sufficient endpoint condition holds
    ctx, (_full, tilde, _core) = split_context()
    tilde.order = tilde.order._replace(index_of={**tilde.order.index_of, "b2": -1})
    with pytest.raises(InternalConsistencyError,
                       match="^sufficient endpoint condition held but graph is split$"):
        connectivity_report(ctx)


def test_connectivity_patterns_differ_by_alphabet():
    # same digit pattern, opposite verdicts for alphabets {0,1} and {0,..,2}
    assert not connectivity_report(new_base_context(1, "111001000111001(0)")).strongly_connected
    assert connectivity_report(new_base_context(2, "222002000222002(0)")).strongly_connected


def graph_bases(battery, seed):
    """The battery, the ``REDUCIBLE`` bases and 100 graph bases drawn from
    ``seed``."""
    rng = random.Random(seed)
    return (list(battery) + [new_base_context(M, beta) for M, beta in REDUCIBLE]
            + [random_context(rng) for _ in range(100)])


def scc_json_verdict(monkeypatch, capsys, g):
    """``strongly_connected`` as ``graph scc --json`` prints it for ``g``."""
    with monkeypatch.context() as mp:
        mp.setattr(base, "new_base_context", lambda _M, _beta: g.ctx)
        mp.setattr(graph, "build_graph", lambda _ctx, _variant: g)
        assert cli.main(["graph", "scc", "-M", str(g.ctx.M), "--beta",
                         dg.format_seq(g.ctx.beta), "--json"]) == 0
    return json.loads(capsys.readouterr().out)["strongly_connected"]


def test_one_strongly_connected_verdict(battery, tribonacci, monkeypatch, capsys):
    """``graph scc --json``, ``connectivity_report`` and the vacuous case of
    ``component_dimensions`` all give the verdict of ``is_strongly_connected``."""
    asked = record_calls(monkeypatch, spectral, "is_strongly_connected",
                         lambda g: (g, is_strongly_connected(g)))
    verdicts = set()
    for ctx in graph_bases(battery, 41):
        tilde = build_graph(ctx, TILDE)
        for g in (build_graph(ctx, FULL), tilde, build_graph(ctx, TILDE1)):
            sc = is_strongly_connected(g)
            assert scc_json_verdict(monkeypatch, capsys, g) == sc, (ctx.M, ctx.beta, g.variant)
            verdicts.add((g.variant, sc))
        if ctx.base_class is not BaseClass.IN_CLOSURE_U_NOT_U:
            continue
        sc = is_strongly_connected(tilde)
        assert connectivity_report(ctx).strongly_connected == sc, (ctx.M, ctx.beta)
        asked.clear()
        dims = component_dimensions(ctx)
        assert asked == [(tilde, sc)], (ctx.M, ctx.beta)
        if sc:
            assert dims.core_equals_overall
            assert dims.core_components_max == dims.per_scc[0][1]
    assert {(FULL, False), (TILDE, True), (TILDE, False), (TILDE1, True)} <= verdicts
    # one vertex is one component, but without a loop it carries no cycle
    g = build_graph(tribonacci, FULL)
    v = g.vertices[0]
    assert (v.index, v.label, v.index) in g.edges
    for edges, sc in (([], False), ([(v.index, v.label, v.index)], True)):
        lone = graph.UnivoqueGraph(g.ctx, FULL, g.order, [v], out_map([v], edges))
        assert len(scc(lone)[0]) == 1
        assert is_strongly_connected(lone) is sc
        assert scc_json_verdict(monkeypatch, capsys, lone) is sc


def test_limit_only_operations_refuse_an_in_between_base():
    # one refusal, ``BaseContext.require_limit_class``, in every graph
    # operation stated for limit-of-uniqueness bases only
    ctx = new_base_context(1, "1101(0)")
    for op, what in ((connectivity_report, "connectivity report"),
                     (lambda c: tower_decompose(c, 1), "tower decomposition")):
        with pytest.raises(UnsupportedClassError,
                           match=f"^the {what} applies to limit-of-uniqueness bases"):
            op(ctx)
    assert not ctx._cache                        # refused before any graph is built


def test_one_component_pass(battery, monkeypatch):
    """Tarjan runs once per graph across every reader of its components,
    and every reader shares the one unmutated result of ``scc``."""
    walked = record_calls(monkeypatch, graph, "tarjan", id)
    for M, beta in BATTERY:
        ctx = new_base_context(M, beta)
        assert ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U
        graphs = [build_graph(ctx, variant) for variant in (FULL, TILDE, TILDE1)]
        first = [scc(g) for g in graphs]
        kept = copy.deepcopy(first)
        for g in graphs:
            is_strongly_connected(g)
        connectivity_report(ctx)
        component_dimensions(ctx)
        spectral_report(graphs[1], ctx)
        assert all(scc(g) is f for g, f in zip(graphs, first)), beta
        assert first == kept, beta
        assert sorted(walked) == sorted(id(g.out) for g in graphs), beta
        walked.clear()


def name_kinds(g, v):
    """Reference: the endpoint forms of a vertex, read from the point names
    of its two end classes, as the graph read them before the point-class
    sets.  A_RIGHT / B_LEFT: an a-point at its right end, a b-point at its
    left end; AB: an a-point at its left end and a b-point at its right end;
    THETA_LEFT: a switch point th_j (j >= 1) at its right end."""
    lefts, rights = g.order.classes[v.left], g.order.classes[v.right]
    out = set()
    if any(nm[0] == "a" for nm in rights):
        out.add("A_RIGHT")
    if any(nm[0] == "b" for nm in lefts):
        out.add("B_LEFT")
    if any(nm[0] == "a" for nm in lefts) and any(nm[0] == "b" for nm in rights):
        out.add("AB")
    if any(nm.startswith("th") and int(nm[2:]) >= 1 for nm in rights):
        out.add("THETA_LEFT")
    return out


def test_point_kinds_by_class_match_the_names(battery, tribonacci, base331):
    """The core, the criterion targets and the switch gaps, read from the
    point-class sets, are the ones the point names give."""
    ctxs = graph_bases(battery, 43)
    for ctx in (tribonacci, base331):
        for _ in range(4):
            ctx = v_successor(ctx)
            ctxs.append(ctx)
    for ctx in ctxs:
        full, tilde, core = (build_graph(ctx, variant) for variant in (FULL, TILDE, TILDE1))
        a, b, th = graph._point_classes(ctx)
        kinds = {v.index: name_kinds(tilde, v) for v in tilde.vertices}

        def having(*forms):
            return {i for i, ks in kinds.items() if ks & set(forms)}

        where = (ctx.M, ctx.beta)
        assert {v.index for v in core.vertices} == having("A_RIGHT", "B_LEFT"), where
        ab = {v.index for v in tilde.vertices if v.left in a and v.right in b}
        assert ab == having("AB"), where
        assert {v.index for v in tilde.vertices if v.right in th} == having("THETA_LEFT"), where
        classes = full.order.classes
        switch = {k for k, names in enumerate(classes)
                  if any(split_name(nm)[0] == "th" and split_name(nm)[1] >= 1 for nm in names)}
        assert th == switch, where
        assert [v.index for v in full.vertices] == [k for k in range(len(classes) - 1)
                                                    if k not in switch], where
        if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U:
            # the criteria, on the targets the names give
            reach = explore(core.out, tilde.out.__getitem__)
            rep = connectivity_report(ctx)
            assert rep.reach_criterion == (having("AB", "THETA_LEFT") <= reach.keys()), where
            if ctx.M == 1:
                assert rep.m1_ab_criterion == (having("AB") <= reach.keys()), where


def test_isomorphism_chain(tribonacci, base331):
    for ctx in (tribonacci, base331):
        g0 = build_graph(ctx, FULL)
        c1 = v_successor(ctx)
        g1 = build_graph(c1, FULL)
        mapping = check_isomorphic(g0, g1)
        assert mapping is not None
        e1 = {(mapping[i], k, mapping[j]) for i, k, j in g0.edges}
        assert e1 == {(i, k, j) for i, k, j in g1.edges}
        g2 = build_graph(v_successor(c1), FULL)
        assert check_isomorphic(g1, g2) is None
    g = build_graph(tribonacci, FULL)
    ident = check_isomorphic(g, g)
    assert ident is not None


def test_isomorphism_pairs_vertices_by_interval_order(tribonacci):
    ctx = tribonacci
    for _ in range(5):
        ctx = v_successor(ctx)
    g = build_graph(ctx, FULL)
    assert len(g.vertices) == 96
    assert check_isomorphic(g, g) == {v.index: v.index for v in g.vertices}


def test_vertex_index_is_left_class_index(battery, tribonacci):
    """A vertex is numbered by its left point class: FULL keeps every gap
    but the switch gaps [th_j, et_j], TILDE the gaps of [b1, a1], and every
    edge ends on a vertex."""
    ctxs = list(battery)
    rng = random.Random(23)
    ctxs += [random_context(rng) for _ in range(100)]
    ctx = tribonacci
    for _ in range(5):
        ctx = v_successor(ctx)
        ctxs.append(ctx)
    for ctx in ctxs:
        full, tilde = build_graph(ctx, FULL), build_graph(ctx, TILDE)
        classes, index_of = full.order.classes, full.order.index_of
        switch = {index_of[f"th{j}"] for j in range(1, ctx.M + 1)}
        expected = [k for k in range(len(classes) - 1) if k not in switch]
        assert [v.index for v in full.vertices] == expected, (ctx.M, ctx.beta)
        assert all(v.left == v.index and v.right == v.index + 1 for v in full.vertices)
        assert all(index_of["b1"] <= v.index < index_of["a1"] for v in tilde.vertices)
        for g in (full, tilde):
            assert all(j in g.out for _i, _k, j in g.edges), (ctx.M, ctx.beta, g.variant)


def test_successor_map_is_the_one_edge_store(battery, tribonacci):
    """A graph keeps its edges once, in ``out``: the restrictions hold FULL's
    own (label, target) tuples in lists of their own, and ``edges`` is the
    map read out as triples."""
    assert "edges" not in graph.UnivoqueGraph.__slots__
    ctxs = list(battery) + [new_base_context(1, "111001000111001(0)"),
                            new_base_context(7, "744516145(0)")]
    rng = random.Random(29)
    ctxs += [random_context(rng) for _ in range(100)]
    ctx = tribonacci
    for _ in range(5):
        ctx = v_successor(ctx)
        ctxs.append(ctx)
    for ctx in ctxs:
        full = build_graph(ctx, FULL)
        for g in (full, build_graph(ctx, TILDE), build_graph(ctx, TILDE1)):
            assert g.edges == [(i, k, j) for i, moves in g.out.items() for k, j in moves]
            assert g.edges == sorted(g.edges), (ctx.M, ctx.beta, g.variant)
            if g is full:
                continue
            for i, moves in g.out.items():
                assert moves is not full.out[i], (ctx.M, ctx.beta, g.variant)
                own = {move[1]: move for move in full.out[i]}
                assert all(move is own[move[1]] for move in moves), (ctx.M, ctx.beta, g.variant)


def reversed_copy(g):
    """g with its interval order turned around: every vertex keeps its label
    and moves to the mirror gap of the point order, whose index it takes,
    and the edges follow the vertices.  Returns the copy and the mirror map."""
    top = len(g.order.classes) - 2
    mirror = {v.index: top - v.index for v in g.vertices}
    vertices = sorted(graph.Vertex(mirror[v.index], v.label) for v in g.vertices)
    edges = [(mirror[i], k, mirror[j]) for i, k, j in g.edges]
    return graph.UnivoqueGraph(g.ctx, FULL, g.order, vertices, out_map(vertices, edges)), mirror


def test_isomorphism_respects_interval_order(tribonacci):
    g = build_graph(tribonacci, FULL)
    assert len(g.vertices) == 6
    rev, mirror = reversed_copy(g)
    # the mirror map is a digraph isomorphism onto the copy, but it reverses
    # the interval order, and the order-preserving pairing breaks labels
    assert {(mirror[i], k, mirror[j]) for i, k, j in g.edges} == set(rev.edges)
    assert check_isomorphic(g, rev) is None


def test_embedding_must_be_increasing(tribonacci, monkeypatch):
    g = build_graph(tribonacci, FULL)
    rev, _mirror = reversed_copy(g)
    classes = g.order.classes
    top = len(classes) - 1
    # pair each left endpoint with the mirror class: the map found is the
    # mirror map, which keeps every edge but reverses the order
    pairs = [(classes[v.index][0], classes[top - 1 - v.index][0]) for v in g.vertices]
    monkeypatch.setattr(graph, "_successor_point_pairs", lambda ctx: pairs)
    with pytest.raises(graph.StructuralError, match="not increasing"):
        graph.embed_successor(g, rev)


def name_image_map(g_small, g_big):
    """Reference: the successor embedding of an in-between base read from
    the point names, as the graph read it before the pair table.  With
    N = 2n and c = alpha_n, et_c goes to a_n, every other th and et point
    and every a_i with i < N, i != n to itself; a vertex goes to the one
    successor vertex its left class's images name."""
    n = g_small.ctx.n_period // 2
    c = g_small.ctx.alpha_word()[n - 1]
    mapping = {}
    for v in g_small.vertices:
        images = set()
        for nm in g_small.order.classes[v.index]:
            kind, idx = split_name(nm)
            if nm == f"et{c}":
                images.add(f"a{n}")
            elif kind in ("th", "et") or (kind == "a" and idx < 2 * n and idx != n):
                images.add(nm)
        targets = {g_big.order.index_of[nm] for nm in images} & g_big.out.keys()
        assert len(targets) == 1, (g_small.ctx.beta, g_small.vertex_name(v), images)
        mapping[v.index] = targets.pop()
    return mapping


def test_successor_embedding_is_the_paper_name_map(battery):
    """The pair table gives the map the point names give: along the V-chains
    of the battery's limit bases (111(0) and 331(0) among them) to depth 4,
    and one step on from 60 drawn limit bases."""
    seeds = [(ctx, 4) for ctx in battery]
    assert all(ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U for ctx in battery)
    rng = random.Random(29)
    while len(seeds) < len(battery) + 60:
        ctx = random_context(rng)
        if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U:
            seeds.append((ctx, 2))
    embeddings = 0
    for ctx, depth in seeds:
        small = build_graph(v_successor(ctx), FULL)
        for _ in range(depth - 1):
            big = build_graph(v_successor(small.ctx), FULL)
            assert graph.embed_successor(small, big) == name_image_map(small, big), \
                (small.ctx.M, small.ctx.beta)
            small = big
            embeddings += 1
    assert embeddings == 3 * len(battery) + 60


def test_embedding_needs_one_target_per_endpoint():
    ctx = v_successor(new_base_context(1, "111(0)"))
    small, big = build_graph(ctx, FULL), build_graph(v_successor(ctx), FULL)
    at = small.order.index_of
    # a1 named at a2's class: that class has two images, both vertices
    with pytest.raises(graph.StructuralError, match="hits 2 vertices of the successor graph"):
        graph.embed_successor(with_index(small, a1=at["a2"]), big)
    # the successor's a1 moved to its top class, the left end of no vertex
    top = len(big.order.classes) - 1
    with pytest.raises(graph.StructuralError, match="hits 0 vertices of the successor graph"):
        graph.embed_successor(small, with_index(big, a1=top))


def split_name(name):
    """A point name as its kind and numeric index: "th0" -> ("th", 0)."""
    kind, idx = re.fullmatch(r"([a-z]+)(\d+)", name).groups()
    return kind, int(idx)


def point_precedence(name):
    """Reference rank of a point name: a, b, th, et, then the numeric index."""
    kind, idx = split_name(name)
    return ("a", "b", "th", "et").index(kind), idx


def test_point_classes_list_names_in_precedence_order(battery):
    ctxs = list(battery) + [new_base_context(7, "761(0)"), new_base_context(9, "981(0)")]
    rng = random.Random(13)
    ctxs += [random_context(rng) for _ in range(100)]
    ties = 0
    for ctx in ctxs:
        for cls in order_points(ctx).classes:
            assert cls == sorted(cls, key=point_precedence), (ctx.M, ctx.beta, cls)
            ties += len(cls) > 1
    assert ties


def paper_first_map(g0, g1):
    """The successor isomorphism of a limit base written out by endpoint
    names: a_i goes to a_i and b_i to a_{N+i} for i < N, and each th and et
    point to itself.  Each left endpoint class must name exactly one left
    endpoint of the successor graph."""
    N = g0.ctx.n_period
    big_by_left = {nm: v.index for v in g1.vertices for nm in g1.order.classes[v.left]}
    mapping = {}
    for v in g0.vertices:
        images = set()
        for nm in g0.order.classes[v.left]:
            kind, idx = split_name(nm)
            if kind in ("th", "et"):
                images.add(nm)
            elif idx < N:
                images.add(f"a{idx}" if kind == "a" else f"a{N + idx}")
        targets = {big_by_left[nm] for nm in images if nm in big_by_left}
        assert len(targets) == 1, (g0.ctx.beta, g0.vertex_name(v), images)
        mapping[v.index] = targets.pop()
    return mapping


def test_first_tower_map_is_the_paper_name_map(battery):
    ctxs = list(battery)
    rng = random.Random(17)
    while len(ctxs) < len(battery) + 100:
        ctx = random_context(rng)
        if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U:
            ctxs.append(ctx)
    for ctx in ctxs:
        g0, g1 = build_graph(ctx, FULL), build_graph(v_successor(ctx), FULL)
        assert paper_first_map(g0, g1) == check_isomorphic(g0, g1), (ctx.M, ctx.beta)


def test_tower_tribonacci(tribonacci):
    dec = tower_decompose(tribonacci, 2)
    assert [len(b) for b in dec.blocks] == [3, 6]
    assert len(dec.residual) == 3
    # each level after the first is read from its least vertex
    assert [w for _p, w in dec.cycles] == [(1, 1, 0), (0, 0, 0, 1, 1, 1)]
    assert dec.cycles[1][0][0] == min(dec.cycles[1][0])


def test_tower_331(base331):
    dec = tower_decompose(base331, 3)
    assert [len(b) for b in dec.blocks] == [3, 6, 12]
    assert len(dec.residual) == 3 + base331.M - 1
    assert dec.cycles[1][1] == (0, 0, 2, 3, 3, 1)
    assert dec.cycles[2][1] == (0, 0, 2, 3, 3, 0, 3, 3, 1, 0, 0, 3)
    assert all(path[0] == min(path) for path, _w in dec.cycles[1:])
    # pure cycles beyond the first level: one in-block successor each
    top = dec.graphs[-1]
    for path, _w in dec.cycles[1:]:
        inside = set(path)
        for v in path:
            assert sum(1 for _k, j in top.out[v] if j in inside) == 1


def test_trace_cycle_rejects_rho_shaped_level():
    # inside moves 0 -> 1 -> 2 -> 1: a tail into a cycle that misses the
    # least vertex, where the run must stop instead of waiting for vertex 0
    level = SimpleNamespace(out={0: [(0, 1)], 1: [(1, 2)], 2: [(0, 1)]}, vertices=[])

    def stalled(signum, frame):
        raise TimeoutError("tracing the level did not stop")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(10)
    try:
        with pytest.raises(graph.StructuralError, match="level 2 is not a single cycle"):
            graph._trace_cycle(level, {0, 1, 2}, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_isomorphism_rejects_same_size_pair(base331):
    # equal vertex and edge counts, different label structure
    other = new_base_context(3, "332(0)")
    ga = build_graph(base331, FULL)
    gb = build_graph(other, FULL)
    assert len(ga.vertices) == len(gb.vertices) and len(ga.edges) == len(gb.edges)
    assert check_isomorphic(ga, gb) is None


def test_tower_depth_four(tribonacci):
    dec = tower_decompose(tribonacci, 4)
    assert [len(b) for b in dec.blocks] == [3, 6, 12, 24]
    assert len(dec.residual) == 3


def test_tower_trivial_decomposition(tribonacci):
    dec = tower_decompose(tribonacci, 1)
    assert [len(b) for b in dec.blocks] == [3]
    assert len(dec.residual) == 3
    assert len(dec.graphs) == 2


def test_count_label_paths_basics(tribonacci):
    g2 = build_graph(golden_ratio_base(2), FULL)
    for L in (1, 3, 7):
        total, words = count_label_paths(g2, L), sorted(path_words(g2, L))
        assert total == 2
        assert words == [(0,) * L, (2,) * L]
    g = build_graph(tribonacci, FULL)
    total, words = count_label_paths(g, 0), sorted(path_words(g, 0))
    assert total == 1 and words == [()]
    t8, w8 = count_label_paths(g, 8), path_words(g, 8)
    assert t8 == len(w8) == len(set(w8))


def test_path_words_past_length_14():
    # words are listed at every length once their count is within the cap
    g2 = build_graph(golden_ratio_base(2), FULL)
    assert path_words(g2, 15) == {(0,) * 15, (2,) * 15}
    assert count_label_paths(g2, 15) == 2


def test_saturated_word_counts_match_exact_counts(battery):
    # below the cap the saturated count is the exact one, past it cap + 1
    for ctx in battery:
        start, succ = graph._label_dfa(build_graph(ctx, FULL))
        for L in range(14):
            exact = count_words(succ, start, L)
            assert exact == count_label_paths(build_graph(ctx, FULL), L)
            for cap in {0, 1, exact - 1, exact, exact + 1, WORD_CAP} - {-1}:
                assert count_words(succ, start, L, cap) == min(exact, cap + 1), (ctx.beta, L, cap)


def test_dot_and_json_exports_deterministic(base322):
    g = build_graph(base322, TILDE)
    assert g.to_dot() == g.to_dot()
    payload = g.to_json()
    assert payload["variant"] == TILDE
    assert len(payload["vertices"]) == 5 and len(payload["edges"]) == 9
    assert g.to_dot().count("->") == 9


def test_json_export_settles_one_decimal_per_class(monkeypatch):
    # adjacent vertices share their common end class, whose decimal is
    # settled once, not once per vertex end
    g = build_graph(new_base_context(1, "111001000111001(0)"), FULL)
    calls = record_calls(monkeypatch, NumberField, "decimal")
    g.to_json()
    classes = {k for v in g.vertices for k in (v.left, v.right)}
    assert len(calls) == len(classes) < 2 * len(g.vertices)


def test_central_subgraph_empty_at_even_minimum():
    # at the even-alphabet minimum the central interval is one switch block
    g = build_graph(golden_ratio_base(2), TILDE)
    assert g.vertices == [] and g.edges == []
    assert not is_strongly_connected(g)


def test_wide_alphabet_graph():
    ctx = golden_ratio_base(11)
    g = build_graph(ctx, FULL)
    assert len(g.vertices) == ctx.M + 1
    assert "th10" in g.to_dot()
    for v in g.vertices:
        assert len({k for k, _j in g.out[v.index]}) <= 1


def test_unsupported_classes_rejected():
    with pytest.raises(Exception):
        build_graph(new_base_context(1, "101(0)"), FULL)     # below the minimum
    with pytest.raises(Exception):
        build_graph(new_base_context(1, "(1)"), FULL)        # unique expansion of 1


def test_randomized_graph_properties():
    rng = random.Random(31)
    for _ in range(20):
        ctx = random_context(rng)
        g = build_graph(ctx, FULL)
        coalesced = ctx.n_period == 1 and ctx.M % 2 == 0   # the even-alphabet minimum
        if not coalesced:
            n_expected = (2 * ctx.n_period if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U
                          else ctx.n_period) + ctx.M - 1
            assert len(g.vertices) == n_expected
        edges = {(i, k, j) for i, k, j in g.edges}
        mirror = mirror_map(g)
        for i, k, j in edges:
            assert (mirror[i], ctx.M - k, mirror[j]) in edges
        for v in g.vertices:
            assert len({k for k, _j in g.out[v.index]}) <= 1


def test_tarjan_generic_nodes():
    # any hashable nodes; components come out sinks first
    succ = {"x": [(0, "y")], "y": [(1, "x"), (0, "z")], "z": [(0, "z")], "w": [(1, "x")]}
    comps = tarjan(succ)
    assert [sorted(c) for c in comps] == [["z"], ["x", "y"], ["w"]]
    # a long path stays iterative
    n = 5000
    chain = {i: [(0, i + 1)] for i in range(n)}
    chain[n] = [(0, 0)]
    assert [len(c) for c in tarjan(chain)] == [n + 1]


def all_pairs_edges(g):
    """The edges of the rule tested against every vertex: the class range of
    each image by a linear scan of exact comparisons."""
    values = g.order.values
    edges = []
    for v in g.vertices:
        img_lo = apply_digit_map(values[v.left], v.label)
        img_hi = apply_digit_map(values[v.right], v.label)
        lo = next((c for c, val in enumerate(values) if val.cmp(img_lo) >= 0), len(values))
        hi = max((c for c, val in enumerate(values) if val.cmp(img_hi) <= 0), default=-1)
        edges += [(v.index, v.label, w.index) for w in g.vertices
                  if lo <= w.left and w.right <= hi]
    return edges


def bisection_edges(g):
    """The edges of the rule that applies T_d in the field and brackets each
    image by binary search over the sorted class values, one exact
    comparison per step."""
    values = g.order.values
    edges = []
    for v in g.vertices:
        lo = bisect_left(values, apply_digit_map(values[v.left], v.label))
        hi = bisect_right(values, apply_digit_map(values[v.right], v.label)) - 1
        edges += [(v.index, v.label, j) for j in range(lo, hi) if j in g.out]
    return edges


def test_full_edges_match_all_pairs_rule(battery, tribonacci):
    """The edges read off the shifted keys, as one run of the interval order,
    are exactly those of the rule tested against every vertex, in the same
    order: on the battery, a successor chain, random bases and wide
    alphabets."""
    ctxs = list(battery)
    ctx = tribonacci
    for _ in range(4):
        ctx = v_successor(ctx)
        ctxs.append(ctx)
    rng = random.Random(7)
    ctxs += [random_context(rng) for _ in range(100)]
    ctxs += [new_base_context(M, beta) for M, beta in ((7, "761(0)"), (9, "981(0)"),
                                                       (9, "9981(0)"))]
    for ctx in ctxs:
        g = build_graph(ctx, FULL)
        assert g.edges == all_pairs_edges(g), dg.format_seq(ctx.beta)


def test_full_edges_match_bisection_rule_deep(tribonacci):
    # the rule the key lookup replaced, where its exact searches cost most
    ctx = tribonacci
    for depth in range(1, 7):
        ctx = v_successor(ctx)
        if depth >= 5:
            g = build_graph(ctx, FULL)
            assert g.edges == bisection_edges(g), depth


def test_full_build_makes_no_exact_comparison(monkeypatch):
    # fresh contexts: the graphs of the session fixtures are already built
    ctxs = [new_base_context(M, beta) for M, beta in BATTERY]
    ctx = new_base_context(1, "111(0)")
    for _ in range(5):
        ctx = v_successor(ctx)
        ctxs.append(ctx)
    for ctx in ctxs:
        order_points(ctx)
    calls = []
    sign = NumberField.sign

    def counted(field, a):
        calls.append(a)
        return sign(field, a)

    monkeypatch.setattr(NumberField, "sign", counted)
    for ctx in ctxs:
        build_graph(ctx, FULL)
    assert calls == []
    ctxs[0].q.cmp(1)             # the count does see a comparison
    assert calls


def test_full_build_confirms_every_image():
    # a class value off by one: T_d no longer carries it onto its image
    ctx = new_base_context(1, "111(0)")
    order = order_points(ctx)
    k = order.index_of["a2"]
    order.values[k] = order.values[k] + 1
    with pytest.raises(graph.StructuralError, match="does not carry"):
        build_graph(ctx, FULL)
    # the least class gets a key that does not start with its vertex label 0
    ctx = new_base_context(1, "111(0)")
    order_points(ctx).keys[0] = dg.EpSeq((1,), (0,))
    with pytest.raises(graph.StructuralError, match="does not start with the label 0"):
        build_graph(ctx, FULL)


def test_full_build_needs_shifted_keys_among_the_points():
    # the least class keeps its label 0, but its shifted key 1111(0) is no
    # special point's key
    ctx = new_base_context(1, "111(0)")
    order_points(ctx).keys[0] = dg.EpSeq((0, 1, 1, 1, 1), (0,))
    with pytest.raises(graph.StructuralError, match="the shifted key of .* is not a special point"):
        build_graph(ctx, FULL)


def regraph(g, order=None, vertices=None, edges=None):
    """A copy of ``g`` with some of its parts replaced."""
    vertices = vertices if vertices is not None else g.vertices
    return graph.UnivoqueGraph(g.ctx, g.variant, order or g.order, vertices,
                               out_map(vertices, edges if edges is not None else g.edges))


def with_index(g, **names):
    """``g`` whose point order puts the given names at other class indices."""
    return regraph(g, order=g.order._replace(index_of={**g.order.index_of, **names}))


def with_end_vertex(g):
    """``g`` plus an isolated vertex at the top class, after every other."""
    return regraph(g, vertices=g.vertices + [graph.Vertex(len(g.order.classes) - 1, 0)])


def doctored_tower(monkeypatch, m, doctor):
    """``tower_decompose`` of a fresh ``111(0)`` to depth m, each full graph
    of the chain passed through ``doctor(level, graph)`` first."""
    real = graph.build_graph

    def build(ctx, variant=FULL):
        g = real(ctx, variant)
        # the chain element of level j has period 3 * 2^j
        return doctor((ctx.n_period // 3).bit_length() - 1, g)

    monkeypatch.setattr(graph, "build_graph", build)
    return tower_decompose(new_base_context(1, "111(0)"), m)


def test_embedding_adds_no_edge_among_its_image():
    # the in-between graph less one edge: the map still hits every vertex
    # and keeps every edge, but its image carries the dropped one
    ctx = v_successor(new_base_context(1, "111(0)"))
    small, big = build_graph(ctx, FULL), build_graph(v_successor(ctx), FULL)
    graph.embed_successor(small, big)
    doctored = regraph(small, edges=small.edges[1:])
    with pytest.raises(graph.StructuralError, match="the image has an extra internal edge"):
        graph.embed_successor(doctored, big)


def test_tower_seed_vertex_must_exist(monkeypatch):
    # a1 moved to the least class: the seed vertex below it is no vertex
    with pytest.raises(graph.StructuralError,
                       match="no vertex of the seed graph has a1 as its right end"):
        doctored_tower(monkeypatch, 1, lambda lv, g: with_index(g, a1=0) if lv == 0 else g)


def test_tower_seed_orbit_edges_must_exist(monkeypatch):
    # a1 and a2 trade classes: the orbit cycle runs through the wrong edges
    def swap(lv, g):
        at = g.order.index_of
        return with_index(g, a1=at["a2"], a2=at["a1"]) if lv == 0 else g

    with pytest.raises(graph.StructuralError, match=r"seed orbit edge \d with digit \d is missing"):
        doctored_tower(monkeypatch, 1, swap)


def test_tower_level_adds_its_size(monkeypatch):
    with pytest.raises(graph.StructuralError, match="level 2 adds 7 vertices, expected 6"):
        doctored_tower(monkeypatch, 2, lambda lv, g: with_end_vertex(g) if lv == 2 else g)


def test_tower_levels_must_not_overlap(monkeypatch):
    # a2 moved onto a1's class, and the seed graph and its successor given
    # the edges of the orbit cycle a1 -> a1 -> a3 -> a1 it then reads: the
    # seed block holds one vertex twice
    seed = build_graph(new_base_context(1, "111(0)"), FULL)
    rank = {v.index: r for r, v in enumerate(seed.vertices)}
    at = seed.order.index_of
    v1, v3 = rank[at["a1"] - 1], rank[at["a3"] - 1]
    cycle = [(v1, 1, v1), (v1, 1, v3), (v3, 0, v1)]        # alpha = (110)

    def doctor(lv, g):
        if lv == 0:
            g = with_index(g, a2=at["a1"])
        idx = [v.index for v in g.vertices]
        extra = {(idx[i], k, idx[j]) for i, k, j in cycle} - set(g.edges)
        return regraph(g, edges=g.edges + sorted(extra))

    with pytest.raises(graph.StructuralError, match="tower levels overlap"):
        doctored_tower(monkeypatch, 1, doctor)


def test_tower_residual_has_its_size(monkeypatch):
    # one more vertex in the seed graph and in its successor: they stay
    # order isomorphic, and the extra one lands in the residual block
    with pytest.raises(graph.StructuralError, match="residual block has 4 vertices, expected 3"):
        doctored_tower(monkeypatch, 1, lambda lv, g: with_end_vertex(g))


def test_tower_later_level_must_not_reach_an_earlier_one(monkeypatch):
    blocks = tower_decompose(new_base_context(1, "111(0)"), 2).blocks
    back = (blocks[1][0], 0, blocks[0][0])

    def doctor(lv, g):
        return regraph(g, edges=g.edges + [back]) if lv == 2 else g

    with pytest.raises(graph.StructuralError, match="level 2 reaches level 1"):
        doctored_tower(monkeypatch, 2, doctor)


def test_tower_seed_must_be_isomorphic_to_its_successor(monkeypatch, capsys):
    # one more vertex in the seed graph alone: the pairing by interval rank
    # no longer matches its successor's vertices
    with pytest.raises(graph.StructuralError,
                       match="the seed graph is not order isomorphic to its successor's"):
        doctored_tower(monkeypatch, 1, lambda lv, g: with_end_vertex(g) if lv == 0 else g)
    # ``graph verify --theorem 1.3`` is the first level of the same tower
    assert cli.main(["graph", "verify", "-M", "1", "--beta", "111(0)", "--theorem", "1.3"]) == 3
    out = capsys.readouterr()
    assert not out.out and out.err == ("internal consistency failure: the seed graph is not "
                                       "order isomorphic to its successor's\n")


def test_tower_level_vertex_has_one_move_inside(monkeypatch):
    # a chord inside the level-2 cycle: its source has two moves there
    path = tower_decompose(new_base_context(1, "111(0)"), 2).cycles[1][0]
    chord = (path[0], 0, path[2])

    def doctor(lv, g):
        return regraph(g, edges=g.edges + [chord]) if lv == 2 else g

    with pytest.raises(graph.StructuralError,
                       match=r"cycle vertex \(.*\) has 2 successors inside level 2"):
        doctored_tower(monkeypatch, 2, doctor)


def test_full_build_needs_single_gap_switch_intervals():
    # et1 put one class further up: [th1, et1] spans two gaps
    ctx = new_base_context(1, "111(0)")
    order_points(ctx).index_of["et1"] += 1
    with pytest.raises(graph.StructuralError, match="switch interval 1 is not a single gap"):
        build_graph(ctx, FULL)


@pytest.mark.parametrize("variant,text", [
    (FULL, "Vertex#0 Vertex#1 Vertex#2 Vertex#4 Vertex#5 Vertex#6"),
    (TILDE, "Vertex#1 Vertex#2 Vertex#4 Vertex#5"),
], ids=["full", "tilde"])
def test_vertex_repr(tribonacci, variant, text):
    # a vertex prints the index of its left point class
    assert " ".join(map(repr, build_graph(tribonacci, variant).vertices)) == text
