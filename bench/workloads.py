"""Inputs, op lists and correctness checks of the in-process workloads.

Each workload has an input generator (seeded), a round function that runs
the fixed op list once through a ``Recorder`` (see run.py), and a check
function that verifies the first round's outputs against computations made
apart from the program (numpy eigenvalues, digit words built here, float
series, the graph-free oracles) or against properties the method must have.
Later rounds must reproduce the first round's digest exactly.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from univoque import digits as dg
from univoque import expansions as ex
from univoque.base import (new_base_context, order_points, r_chain, special_points,
                           v_successor)
from univoque.digits import BaseClass, EpSeq
from univoque.graph import (FULL, TILDE, TILDE1, build_graph, check_isomorphic,
                            connectivity_report, path_words, scc, tower_decompose)
from univoque.oracle import (U_PREFIX, V_PREFIX, brute_count_expansions,
                             enumerate_admissible_words)
from univoque.spectral import component_dimensions, spectral_radius, spectral_report

LIMIT = BaseClass.IN_CLOSURE_U_NOT_U
GRAPH_CLASSES = (BaseClass.IN_CLOSURE_U_NOT_U, BaseClass.IN_V_NOT_CLOSURE_U)

# spans summed per traced round, spans and counts of the one-off checks,
# counts summed per traced round, and maxima
LAYER_SPANS = (
    "digits.classify_s",
    "base.new_base_context_s", "base.v_successor_s", "base.r_chain_s",
    "base.special_points_s", "base.order_points_s",
    "algebraic.value_s",
    "graph.build_full_s", "graph.build_tilde_s", "graph.scc_s", "graph.connectivity_s",
    "graph.check_isomorphic_s", "graph.tower_decompose_s",
    "spectral.report_s", "spectral.component_dimensions_s", "spectral.radius_s",
    "expansions.default_tail_s", "expansions.build_witness_s", "expansions.count_s",
)
ONCE_SPANS = ("oracle.words_s", "graph.path_words_s", "oracle.brute_count_s")
LAYER_COUNTS = (
    "algebraic.field_degree", "algebraic.defining_degree", "algebraic.refinements",
    "base.points", "graph.vertices", "graph.edges", "graph.components",
    "spectral.exact_checked_components", "expansions.listed", "expansions.infinite",
)
ONCE_COUNTS = ("oracle.words",)
LAYER_MAXIMA = ("spectral.largest_component",)

EXACT_CHECK_LIMIT = 12      # components the spectral layer checks exactly
RADIUS_TOL = 1e-6


@dataclass
class RoundOut:
    digest: list = field(default_factory=list)   # compared across rounds
    keep: list = field(default_factory=list)     # outputs for the checks
    failed: int = 0
    errors: list = field(default_factory=list)


def run_units(units, one, rec):
    """Run ``one(unit, rec, out)`` per unit; an exception fails that unit's op."""
    out = RoundOut()
    for unit in units:
        try:
            one(unit, rec, out)
        except Exception as e:      # noqa: BLE001 - every failure is reported
            out.failed += 1
            out.errors.append(f"{unit!r}: {type(e).__name__}: {e}")
    return out


def warm_up():
    """Finish the program's lazy imports (sympy) before anything is timed."""
    new_base_context(1, "111(0)")


# --- digit-level helpers built here, apart from the program -------------------

def word_plus(w):
    return w[:-1] + (w[-1] + 1,)


def word_reflect(w, M):
    return tuple(M - d for d in w)


def float_root(poly, M):
    """The root of an integer polynomial (little-endian) in (1, M+1], by numpy."""
    roots = np.roots(list(reversed([float(c) for c in poly])))
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and 1 < r.real <= M + 1 + 1e-9]
    if len(real) != 1:
        raise ValueError(f"{len(real)} real roots in (1, {M + 1}]")
    return real[0]


def series_value(pre, per, q, terms=200):
    """Float value of sum(s_i q^-i) for the eventually periodic digits pre (per)."""
    digits = list(pre) + list(per) * (terms // len(per) + 1)
    return sum(d * q ** -(i + 1) for i, d in enumerate(digits[:terms]))


def perron(adj):
    if not len(adj):
        return 0.0
    return float(max(abs(np.linalg.eigvals(np.array(adj, dtype=float)))))


def adjacency_of(g, members):
    pos = {v: p for p, v in enumerate(members)}
    A = [[0] * len(members) for _ in members]
    for i, _k, j in g.edges:
        if i in pos and j in pos:
            A[pos[i]][pos[j]] = 1
    return A


def count_spectral(rec, g):
    """Components the spectral layer meets on ``g``, read from ``scc``."""
    edges = {(i, j) for i, _k, j in g.edges}
    for comp in scc(g)[0]:
        nontrivial = len(comp) > 1 or (comp[0], comp[0]) in edges
        if nontrivial and len(comp) <= EXACT_CHECK_LIMIT:
            rec.count("spectral.exact_checked_components")
        rec.peak("spectral.largest_component", len(comp))


def count_context(rec, ctx, pts=None):
    rec.count("algebraic.field_degree", ctx.field.deg)
    rec.count("algebraic.defining_degree", len(ctx.defining_poly) - 1)
    if pts is not None:
        rec.count("base.points", len(pts.value))


def count_graph(rec, g, comps=None):
    rec.count("graph.vertices", len(g.vertices))
    rec.count("graph.edges", len(g.edges))
    if comps is not None:
        rec.count("graph.components", len(comps))


def radius_problems(label, g, per_scc):
    """Each component radius against numpy's largest |eigenvalue|."""
    by_name = {g.vertex_name(v): v.index for v in g.vertices}
    out = []
    for names, r in per_scc:
        expect = perron(adjacency_of(g, [by_name[n] for n in names]))
        if abs(r - expect) > RADIUS_TOL * max(1.0, expect):
            out.append(f"{label}: component radius {r} but eigenvalues give {expect}")
    return out


def reflection_problems(label, g, M):
    """Edges must map to edges under (i, k, j) -> (r(i), M-k, r(j))."""
    order = [v.index for v in sorted(g.vertices, key=lambda v: v.left)]
    mirror = {v: order[len(order) - 1 - p] for p, v in enumerate(order)}
    edges = set(g.edges)
    bad = [e for e in edges if (mirror[e[0]], M - e[1], mirror[e[2]]) not in edges]
    return [f"{label}: {len(bad)} edges without a mirror image"] if bad else []


# --- scan ---------------------------------------------------------------------

SCAN_MAX_M = 9
SCAN_MAX_LEN = 10
SCAN_SIZES = range(0, 23)   # central-graph sizes, one stratum each
SCAN_PER_SIZE = 4
SAMPLE_TRIES = 1_000_000


def graph_alpha(M, w):
    """The period of alpha when ``w(0)`` is a primitive greedy expansion of 1
    with an interval graph, else None."""
    if not w or w[-1] == 0:
        return None
    beta = EpSeq(w, (0,))
    if beta == EpSeq((1,), (0,)) or not dg.is_greedy_beta(M, beta):
        return None
    alpha = dg.alpha_from_beta(M, beta)
    if dg.classify_alpha(M, alpha) not in GRAPH_CLASSES:
        return None
    return alpha.per if EpSeq(word_plus(alpha.per), (0,)) == beta else None


def central_size(M, w):
    """Vertices of the central graph, from the lexicographic order of the
    quasi-greedy keys of the partition points alone (no field arithmetic).

    The keys are those of the construction: a_i = w[i-1:] w^inf, b_i its
    reflection, theta_0 = 0^inf, theta_j = (j-1) w^inf, eta_j the reflection
    of theta_(M+1-j).  Vertices are the gaps between consecutive distinct
    keys, less the switch gaps [theta_j, eta_j]; the central graph keeps
    those between b_1 and a_1.
    """
    keys = {}
    for i in range(1, len(w) + 1):
        keys[f"a{i}"] = EpSeq(w[i - 1:], w)
        keys[f"b{i}"] = dg.reflect(keys[f"a{i}"], M)
    for j in range(M + 1):
        keys[f"th{j}"] = EpSeq((), (0,)) if j == 0 else EpSeq((j - 1,), w)
    for j in range(1, M + 2):
        keys[f"et{j}"] = dg.reflect(keys[f"th{M + 1 - j}"], M)
    ordered = sorted(keys.values(), key=functools.cmp_to_key(dg.lex_cmp))
    distinct = [k for p, k in enumerate(ordered) if p == 0 or dg.lex_cmp(ordered[p - 1], k) != 0]

    def cls(name):
        return next(p for p, k in enumerate(distinct) if dg.lex_cmp(k, keys[name]) == 0)
    switch_left = {cls(f"th{j}") for j in range(1, M + 1)}
    return sum(1 for k in range(cls("b1"), cls("a1")) if k not in switch_left)


def scan_inputs(seed):
    """Random graph bases (M 1..9, word length 1..10), stratified by the
    size of their central graph: SCAN_PER_SIZE bases for each size.

    The spectral layer's cost grows steeply with the size of the components
    it checks exactly (up to 12 vertices), so the size mix is fixed and the
    seed picks the words within each size.
    """
    rng = random.Random(seed)
    strata = {size: [] for size in SCAN_SIZES}
    for _ in range(SAMPLE_TRIES):
        M = rng.randint(1, SCAN_MAX_M)
        w = tuple(rng.randint(0, M) for _ in range(rng.randint(1, SCAN_MAX_LEN)))
        alpha = graph_alpha(M, w)
        if alpha is None:
            continue
        stratum = strata.get(central_size(M, alpha))
        if stratum is not None and len(stratum) < SCAN_PER_SIZE:
            stratum.append((M, dg.format_word(w) + "(0)"))
            if all(len(s) == SCAN_PER_SIZE for s in strata.values()):
                return [base for size in SCAN_SIZES for base in strata[size]]
    raise RuntimeError("scan strata not filled")


def classify(M, text):
    beta = dg.parse_seq(text)
    alpha = dg.alpha_from_beta(M, beta)
    return beta, dg.classify_alpha(M, alpha)


def scan_one(base, rec, out):
    """One op: the whole pipeline of one base, each call in its own span."""
    M, text = base
    call = rec.call
    with rec.op():
        beta, cls = call("digits.classify_s", classify, M, text)
        ctx = call("base.new_base_context_s", new_base_context, M, beta)
        pts = call("base.special_points_s", special_points, ctx, ctx=ctx)
        call("base.order_points_s", order_points, ctx, ctx=ctx)
        full = call("graph.build_full_s", build_graph, ctx, FULL, ctx=ctx)
        tilde = call("graph.build_tilde_s", build_graph, ctx, TILDE, ctx=ctx)
        call("graph.build_tilde_s", build_graph, ctx, TILDE1, ctx=ctx)
        comps, _cond = call("graph.scc_s", scc, full)
        conn = dims = rep = None
        if ctx.base_class is LIMIT:
            conn = call("graph.connectivity_s", connectivity_report, ctx, ctx=ctx)
            dims = call("spectral.component_dimensions_s", component_dimensions, ctx, ctx=ctx)
        if tilde.vertices:
            # an empty central graph (golden-ratio bases) has no radius to report
            rep = call("spectral.report_s", spectral_report, tilde, ctx, ctx=ctx)
    rec.counted(count_context, ctx, pts)
    rec.counted(count_graph, full, comps)
    for _ in filter(None, (dims, rep)):
        rec.counted(count_spectral, tilde)
    out.digest.append((text, M, cls.value, ctx.field.deg, len(full.vertices), len(full.edges),
                       [len(c) for c in comps], conn and conn.strongly_connected,
                       dims and dims.overall_radius,
                       rep and (rep.radius, rep.dimension, [r for _n, r in rep.per_scc])))
    out.keep.append((ctx, cls, full, tilde, dims, rep))


def scan_round(bases, rec):
    return run_units(bases, scan_one, rec)


def word_length(M):
    """Word length for the language check, keeping each set to about 2000 words."""
    return max(2, min(10, int(math.log(2000) / math.log(M + 1))))


def scan_checks(_bases, out, rec):
    problems = []
    for ctx, cls, full, tilde, dims, rep in out.keep:
        label = f"M={ctx.M} {dg.format_seq(ctx.beta)}"
        if cls is not ctx.base_class:
            problems.append(f"{label}: digits class {cls} but context class {ctx.base_class}")
        predicted = central_size(ctx.M, ctx.alpha.per)
        if predicted != len(tilde.vertices):
            problems.append(f"{label}: central graph has {len(tilde.vertices)} vertices, "
                            f"the key order gives {predicted}")
        if rep is not None:
            problems += radius_problems(label, tilde, rep.per_scc)
        if dims is not None:
            problems += radius_problems(label + " (component_dimensions)", tilde, dims.per_scc)
        L = word_length(ctx.M)
        mode = V_PREFIX if ctx.base_class is LIMIT else U_PREFIX
        graph_words = rec.check("graph.path_words_s", path_words, full, L)
        oracle_words = rec.check("oracle.words_s", enumerate_admissible_words, ctx, L, mode)
        rec.count("oracle.words", len(oracle_words))
        if graph_words != oracle_words:
            problems.append(f"{label}: graph and oracle words of length {L} differ")
        problems += reflection_problems(label, full, ctx.M)
        if ctx.base_class is LIMIT:
            problems += reflection_problems(label + " central", tilde, ctx.M)
            if len(full.vertices) != 2 * ctx.n_period + ctx.M - 1:
                problems.append(f"{label}: {len(full.vertices)} vertices, "
                                f"expected 2N+M-1 = {2 * ctx.n_period + ctx.M - 1}")
    return problems


# --- chain --------------------------------------------------------------------

CHAIN_SEEDS = ((1, "111(0)"), (3, "331(0)"))
CHAIN_DEPTH = 4             # period 48, minimal polynomial degree 25
TOWER_DEPTH = 3
R_CHAIN_STEPS = 4           # k = 0..3


def chain_step(rec, ctx):
    """Points, order and graphs of one chain element (inside an op)."""
    call = rec.call
    pts = call("base.special_points_s", special_points, ctx, ctx=ctx)
    call("base.order_points_s", order_points, ctx, ctx=ctx)
    full = call("graph.build_full_s", build_graph, ctx, FULL, ctx=ctx)
    tilde = call("graph.build_tilde_s", build_graph, ctx, TILDE, ctx=ctx)
    return pts, full, tilde


def count_chain_element(rec, ctx):
    """Counts of an r-chain element, from what its op already computed."""
    count_context(rec, ctx, special_points(ctx))
    count_graph(rec, build_graph(ctx, FULL))


def chain_one(seed, rec, out):
    """Ops: the seed and each successor step, then isomorphism, tower, r-chain."""
    M, text = seed
    call = rec.call
    chain, graphs, reports = [], [], []
    for depth in range(CHAIN_DEPTH + 1):
        with rec.op():
            if depth == 0:
                ctx = call("base.new_base_context_s", new_base_context, M, text)
            else:
                ctx = call("base.v_successor_s", v_successor, chain[-1])
            pts, full, tilde = chain_step(rec, ctx)
            comps, _cond = call("graph.scc_s", scc, full)
            rep = call("spectral.report_s", spectral_report, tilde, ctx, ctx=ctx)
        rec.counted(count_context, ctx, pts)
        rec.counted(count_graph, full, comps)
        rec.counted(count_spectral, tilde)
        chain.append(ctx)
        graphs.append((full, tilde))
        reports.append(rep)
    ctx0 = chain[0]
    with rec.op():
        iso01 = call("graph.check_isomorphic_s", check_isomorphic, graphs[0][0], graphs[1][0])
        iso12 = call("graph.check_isomorphic_s", check_isomorphic, graphs[1][0], graphs[2][0])
    with rec.op():
        tower = call("graph.tower_decompose_s", tower_decompose, ctx0, TOWER_DEPTH)
    central = []
    with rec.op():
        for k in range(R_CHAIN_STEPS):
            rk = call("base.r_chain_s", r_chain, ctx0, k)
            tilde = graphs[0][1] if k == 0 else chain_step(rec, rk)[2]
            r, _err = call("spectral.radius_s", spectral_radius, tilde)
            central.append((rk, tilde, r))
    for rk, _tilde, _r in central[1:]:
        rec.counted(count_chain_element, rk)
    for _rk, tilde, _r in central:
        rec.counted(count_spectral, tilde)
    out.digest.append((text, [dg.format_seq(c.alpha) for c in chain],
                       [(len(f.vertices), len(f.edges)) for f, _t in graphs],
                       [(r.radius, r.dimension) for r in reports],
                       iso01 is not None, iso12 is not None,
                       [len(b) for b in tower.blocks], [r for _k, _t, r in central]))
    out.keep.append((ctx0, chain, graphs, reports, iso01, iso12, tower, central))


def chain_round(seeds, rec):
    return run_units(seeds, chain_one, rec)


def chain_checks(_seeds, out, _rec):
    problems = []
    for ctx0, chain, graphs, reports, iso01, iso12, tower, central in out.keep:
        M = ctx0.M
        label = f"M={M} {dg.format_seq(ctx0.beta)}"
        for d in range(1, len(chain)):
            wp = word_plus(chain[d - 1].alpha.per)
            expect = wp + word_reflect(wp, M)
            got = chain[d].alpha
            if got.pre or tuple(got.per) != expect:
                problems.append(f"{label} depth {d}: alpha {dg.format_seq(got)}, "
                                f"expected ({dg.format_word(expect)})")
            n_vertices = len(graphs[d][0].vertices)
            if n_vertices != len(expect) + M - 1:
                problems.append(f"{label} depth {d}: {n_vertices} vertices, "
                                f"expected N+M-1 = {len(expect) + M - 1}")
        for d, rep in enumerate(reports):
            problems += radius_problems(f"{label} depth {d}", graphs[d][1], rep.per_scc)
        if iso01 is None:
            problems.append(f"{label}: seed graph not isomorphic to its successor's")
        if iso12 is not None:
            problems.append(f"{label}: first and second successor graphs isomorphic")
        n = ctx0.n_period
        sizes = [len(b) for b in tower.blocks]
        if sizes != [n * 2 ** j for j in range(TOWER_DEPTH)]:
            problems.append(f"{label}: tower blocks {sizes}")
        radii = [r for _rk, _t, r in central]
        if max(radii) - min(radii) > RADIUS_TOL:
            problems.append(f"{label}: central radius varies along the chain: {radii}")
        for k, (_rk, tilde, r) in enumerate(central):
            expect = perron(adjacency_of(tilde, [v.index for v in tilde.vertices]))
            if abs(r - expect) > RADIUS_TOL * max(1.0, expect):
                problems.append(f"{label} r_chain {k}: radius {r}, eigenvalues give {expect}")
    return problems


# --- count --------------------------------------------------------------------

# the six battery bases of the test suite, then two wide-alphabet limit
# bases; the flag says whether the base is Pisot (checked with numpy)
COUNT_BASES = (
    (1, "111(0)", True),
    (1, "11011(0)", True),
    (4, "4331(0)", True),
    (3, "331(0)", True),
    (4, "322(0)", True),
    (1, "111001010(0)", False),
    (7, "761(0)", True),
    (9, "981(0)", True),
)
WITNESS_MS = range(1, 11)
POINTS_PER_BASE = 6
BRUTE_MAX_M = 5
BRUTE_MAX_NODES = 200_000   # feasible-prefix tree size the brute check may walk


def count_inputs(seed):
    """Random eventually periodic digit sequences, drawn on Pisot bases only."""
    rng = random.Random(seed)
    out = []
    for M, text, pisot in COUNT_BASES:
        points = []
        if pisot:
            for _ in range(POINTS_PER_BASE):
                pre = tuple(rng.randint(0, M) for _ in range(rng.randint(0, 3)))
                per = tuple(rng.randint(0, M) for _ in range(rng.randint(1, 3)))
                points.append((pre, per))
        out.append((M, text, pisot, points))
    return out


def count_one(base, rec, out):
    """Ops: the context, the default tail, each witness, each random point."""
    M, text, _pisot, points = base
    call = rec.call
    with rec.op():
        ctx = call("base.new_base_context_s", new_base_context, M, text)
    rec.counted(count_context, ctx)
    with rec.op():
        tail = call("expansions.default_tail_s", ex.default_tail, ctx, ctx=ctx)
    witnesses, pairs = [], []
    for m in WITNESS_MS:
        with rec.op():
            x, exps = call("expansions.build_witness_s", ex.build_witness_xm, ctx, m, tail,
                           ctx=ctx)
            res = call("expansions.count_s", ex.count_expansions, ctx, x, ctx=ctx)
        rec.counted(count_results, res)
        witnesses.append((m, x, exps, res))
    for pre, per in points:
        s = EpSeq(pre, per)
        r = EpSeq(word_reflect(pre, M), word_reflect(per, M))
        with rec.op():
            x = call("algebraic.value_s", ctx.value, s, ctx=ctx)
            xr = call("algebraic.value_s", ctx.value, r, ctx=ctx)
            a = call("expansions.count_s", ex.count_expansions, ctx, x, ctx=ctx)
            b = call("expansions.count_s", ex.count_expansions, ctx, xr, ctx=ctx)
        rec.counted(count_results, a, b)
        pairs.append(((pre, per), x, xr, a, b))
    out.digest.append((text, dg.format_seq(tail),
                       [(m, res.kind, res.count) for m, _x, _e, res in witnesses],
                       [(a.kind, a.count, b.kind, b.count) for _s, _x, _xr, a, b in pairs]))
    out.keep.append((ctx, tail, witnesses, pairs))


def count_results(rec, *results):
    for res in results:
        rec.count("expansions.listed", len(res.witnesses))
        if res.kind == ex.INFINITE_CYCLE:
            rec.count("expansions.infinite")


def count_round(bases, rec):
    return run_units(bases, count_one, rec)


def brute_nodes(ctx, x, depth):
    """Size of the feasible-prefix tree, walked in floats (budget only)."""
    q, kappa = float(ctx.q), float(ctx.kappa)
    frontier, nodes = [float(x)], 0
    for _ in range(depth):
        frontier = [q * v - d for v in frontier for d in range(ctx.M + 1)
                    if -1e-9 <= q * v - d <= kappa + 1e-9]
        nodes += len(frontier)
        if nodes > BRUTE_MAX_NODES:
            return nodes
    return nodes


def count_checks(bases, out, rec):
    problems = []
    for (M, text, pisot, _points), (ctx, _tail, witnesses, pairs) in zip(bases, out.keep):
        label = f"M={M} {text}"
        mods = sorted(abs(np.roots(list(reversed([float(c) for c in ctx.field.min_poly])))))
        if (mods[-2] < 1) != pisot:
            problems.append(f"{label}: conjugate modulus {mods[-2]:.4f} contradicts Pisot={pisot}")
        q = float_root(ctx.defining_poly, M)
        N = ctx.n_period
        for m, x, exps, res in witnesses:
            if res.kind != ex.EXACT or res.count != m:
                problems.append(f"{label}: witness x_{m} counted {res!r}")
                continue
            if set(res.witnesses) != set(exps):
                problems.append(f"{label}: witness x_{m} expansions differ from the constructed ones")
            for e in exps:
                if (ctx.value(e) - x).sign() != 0:
                    problems.append(f"{label}: expansion {dg.format_seq(e)} is not exactly x_{m}")
                if abs(series_value(e.pre, e.per, q) - float(x)) > 1e-9:
                    problems.append(f"{label}: float series of {dg.format_seq(e)} misses x_{m}")
            # the prefix tree resolves every branching of x_m by depth (m+2)N;
            # the oracle is capped at depth 24
            depth = (m + 2) * N
            if m <= BRUTE_MAX_M and depth <= 24 and brute_nodes(ctx, x, depth) <= BRUTE_MAX_NODES:
                bounds = rec.check("oracle.brute_count_s", brute_count_expansions, ctx, x, depth)
                if bounds != (m, m):
                    problems.append(f"{label}: brute count of x_{m} at depth {depth} is {bounds}")
        for (pre, per), x, xr, a, b in pairs:
            if (ctx.kappa - x - xr).sign() != 0:
                problems.append(f"{label}: value of the reflection of {pre}{per} is not kappa - x")
            if (a.kind, a.count) != (b.kind, b.count):
                problems.append(f"{label}: {pre}{per} counted {a!r}, its reflection {b!r}")
    return problems


# --- registry -----------------------------------------------------------------

def make_inputs(workload, seed):
    if workload == "scan":
        return scan_inputs(seed)
    if workload == "chain":
        return list(CHAIN_SEEDS)
    if workload == "count":
        return count_inputs(seed)
    raise ValueError(workload)


ROUNDS = {"scan": scan_round, "chain": chain_round, "count": count_round}
CHECKS = {"scan": scan_checks, "chain": chain_checks, "count": count_checks}
