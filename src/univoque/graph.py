"""Labeled interval graphs of a base, their subgraphs, and their structure.

The vertices are the open intervals remaining after removing the switch
region and the special points from (0, M/(q-1)); an edge (I, k, J) means the
digit-consumption map x -> q*x - k carries I over J.  All edges leaving a
vertex share one label: the digit forced on every expansion passing through
that interval.  The infinite label paths of the graph spell exactly the
unique expansions (for the strictly-in-between base class) or the unique
doubly infinite expansions (for limit-of-uniqueness bases).  A vertex is
numbered by the index of its left endpoint's class in the context's
``PointOrder``, so every graph of a context numbers its vertices alike, and
vertex lists and edges read in interval order.

The edges are read off the quasi-greedy keys of the special points, with no
comparison in the field.  An endpoint of a label-d vertex has a key s that
starts with d, and the map x -> q*x - d carries it to the point whose key is
shift(s, 1).  The special points are closed under the shift: a_i goes to
a_{i+1} and a_N to a_1, b_i likewise, th_j (j >= 1) to a_1, et_j (j <= M)
to b_1, and th_0 and et_{M+1} are fixed.  Each image is confirmed exactly,
once per (class, label): by the first digit of the key, by the shifted key
being a class key, and by equality of the digit map's value with the image
class's value.  That equality compares element tuples; only a mismatch
decides by the sign of the difference (``AlgebraicReal.__eq__``) before the
build fails.

Three variants are built here: the full graph, its restriction to the
central interval (b1, a1), and the core, the vertices leaning on the orbit
points a_i / b_i.  The core, the connectivity criteria and the switch gaps
test a vertex's ends against the class sets of the a-, b- and switch points.
A graph's components are found once (``scc``); ``is_strongly_connected`` is
the one verdict on them.  The successor isomorphism and the tower
decomposition follow; the embedding of an in-between base's graph in its
successor's reads the paper's point map from one table of (point, image
point) name pairs.  Components, reachability, tower cycles and the label
automaton are walks of ``walk`` over ``out`` (vertex -> [(label, target)]).
That successor map is a graph's only edge store: the (source, label, target)
triples of ``edges`` are built from it on each access, for the printers.  The
restrictions hold FULL's own (label, target) tuples, in lists of their own,
and no caller changes them: a graph is kept by ``base.memo``, and what it
keeps is never mutated.
"""

from __future__ import annotations

from collections import namedtuple

from . import digits as dg
from .algebraic import apply_digit_map
from .base import InternalConsistencyError, chain, memo, order_points
from .walk import count_words, cyclic, explore, orbit, tarjan, words

FULL, TILDE, TILDE1 = "FULL", "TILDE", "TILDE1"
# total alpha period of the successors whose graphs one ``tower_decompose`` builds
TOWER_PERIOD_BOUND = 384


class StructuralError(InternalConsistencyError):
    """A structural guarantee of the construction failed verification."""


class Vertex(namedtuple("Vertex", "index label")):
    """An interval of the graph: the gap from point class ``index`` of the
    context's ``PointOrder`` to class ``index + 1`` (``left`` and ``right``),
    and ``label`` the forced digit of the region containing it."""

    __slots__ = ()

    @property
    def left(self):
        return self.index

    @property
    def right(self):
        return self.index + 1

    def __repr__(self):
        return f"Vertex#{self.index}"


class UnivoqueGraph:
    """A labeled interval graph.  ``out`` is its only edge store, and
    ``edges`` reads it out as triples on each access; a restriction shares
    FULL's pair tuples, which no caller changes (the ``base.memo``
    contract).  ``_cache`` holds what ``base.memo`` derived from it (its
    components, and the spectral layer's pass over them)."""

    __slots__ = ("ctx", "variant", "order", "vertices", "out", "_cache")

    def __init__(self, ctx, variant, order, vertices, out):
        self.ctx = ctx
        self.variant = variant
        self.order = order                  # PointOrder of the context
        self.vertices = vertices            # in interval order
        self.out = out                      # vertex index -> [(label, target index)]
        self._cache = {}

    @property
    def edges(self):
        """The (source index, label, target index) triples, in vertex order
        with targets ascending: a new list on each access."""
        return [(i, k, j) for i, moves in self.out.items() for k, j in moves]

    def class_name(self, class_idx):
        return self.order.classes[class_idx][0]

    def gap_name(self, i):
        """The name of vertex index ``i``: the gap between classes i and i + 1."""
        return f"({self.class_name(i)},{self.class_name(i + 1)})"

    def vertex_name(self, v):
        return self.gap_name(v.index)

    def to_dot(self):
        lines = ["digraph univoque {", "  rankdir=LR;"]
        for v in self.vertices:
            lines.append(f'  "{self.vertex_name(v)}";')
        for i, k, j in self.edges:
            lines.append(f'  "{self.gap_name(i)}" -> "{self.gap_name(j)}" [label="{k}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "M": self.ctx.M,
            "beta": dg.format_seq(self.ctx.beta),
            "variant": self.variant,
            "vertices": [
                {
                    "name": self.vertex_name(v),
                    "left": self.class_name(v.left),
                    "right": self.class_name(v.right),
                    "label": v.label,
                    "lo_approx": self.order.values[v.left].decimal(12),
                    "hi_approx": self.order.values[v.right].decimal(12),
                }
                for v in self.vertices
            ],
            "edges": [
                {"from": self.gap_name(i), "label": k, "to": self.gap_name(j)}
                for i, k, j in self.edges
            ],
        }


def build_graph(ctx, variant=FULL):
    """The labeled interval graph of a base (FULL/TILDE/TILDE1), built once
    per context (``base.memo``)."""
    ctx.require_graph_class()
    if variant not in (FULL, TILDE, TILDE1):
        raise ValueError(f"unknown variant {variant!r}")
    return memo(ctx, _build_graph, variant)


def _build_graph(ctx, variant):
    if variant == FULL:
        return _build_full(ctx)
    full = build_graph(ctx, FULL)
    if variant == TILDE:
        b1, a1 = full.order.index_of["b1"], full.order.index_of["a1"]
        return _restrict(full, {v.index for v in full.vertices if b1 <= v.index < a1}, TILDE)
    a, b, _th = _point_classes(ctx)
    keep = {v.index for v in build_graph(ctx, TILDE).vertices if v.right in a or v.left in b}
    return _restrict(full, keep, TILDE1)


def _point_classes(ctx):
    """The class indices of the a-points, the b-points and th_1..th_M."""
    at, M, N = order_points(ctx).index_of, ctx.M, ctx.n_period
    return ({at[f"a{i}"] for i in range(1, N + 1)}, {at[f"b{i}"] for i in range(1, N + 1)},
            {at[f"th{j}"] for j in range(1, M + 1)})


def _build_full(ctx):
    order = order_points(ctx)
    # gaps between consecutive classes; drop the switch gaps [th_j, et_j]
    _a, _b, switch_left = _point_classes(ctx)
    for j in range(1, ctx.M + 1):
        if order.index_of[f"et{j}"] != order.index_of[f"th{j}"] + 1:
            raise StructuralError(f"switch interval {j} is not a single gap")
    vertices = [Vertex(k, sum(1 for t in switch_left if t < k))
                for k in range(len(order.classes) - 1) if k not in switch_left]
    # every endpoint of a label-d vertex has a key s that starts with d, and
    # T_d carries it to the point whose key is shift(s, 1); the special points
    # are closed under the shift, so the image is a class, found by its key
    key_of = order.keys
    class_of = {key: k for k, key in enumerate(key_of)}
    values = order.values
    images = {}

    def image(k, d):
        """The class that T_d carries class k onto, confirmed exactly once
        per (class, label): first digit, shifted key, then the field value."""
        if (k, d) in images:
            return images[k, d]
        name = order.classes[k][0]
        if key_of[k].digit(0) != d:
            raise StructuralError(f"key {dg.format_seq(key_of[k])} of {name} does not start "
                                  f"with the label {d} of its vertex")
        j = class_of.get(dg.shift(key_of[k], 1))
        if j is None:
            raise StructuralError(f"the shifted key of {name} is not a special point")
        if apply_digit_map(values[k], d) != values[j]:
            raise StructuralError(f"T_{d} does not carry {name} onto {order.classes[j][0]}")
        images[k, d] = j
        return j

    # the targets are the gaps between the two image classes; each list is
    # copied to its exact size, as a comprehension over-allocates
    out = {v.index: [(v.label, j) for j in range(image(v.left, v.label), image(v.right, v.label))
                     if j not in switch_left][:]
           for v in vertices}
    return UnivoqueGraph(ctx=ctx, variant=FULL, order=order, vertices=vertices, out=out)


def _restrict(full, keep, variant):
    """The subgraph of FULL induced on the vertex indices ``keep``: FULL's
    own pair tuples, in new lists (exact size, as in ``_build_full``)."""
    vertices = [v for v in full.vertices if v.index in keep]
    out = {v.index: [move for move in full.out[v.index] if move[1] in keep][:] for v in vertices}
    return UnivoqueGraph(ctx=full.ctx, variant=variant, order=full.order,
                         vertices=vertices, out=out)


# --- strongly connected components -----------------------------------------

def scc(g):
    """Tarjan components in deterministic order, plus the condensation edges,
    found once per graph (``base.memo``): callers must not mutate them.

    Components are listed with their vertex indices sorted; the component
    list itself is sorted by smallest vertex index.  Condensation edges are
    pairs of component positions in that listing.
    """
    return memo(g, _scc)


def _scc(g):
    comps = sorted(sorted(comp) for comp in tarjan(g.out))
    comp_of = {v: pos for pos, comp in enumerate(comps) for v in comp}
    cond = {(comp_of[i], comp_of[j]) for i, moves in g.out.items() for _k, j in moves
            if comp_of[i] != comp_of[j]}
    return comps, sorted(cond)


def is_strongly_connected(g):
    """The one definition: ``scc`` finds one component, and it carries a
    cycle; a graph with no vertex, or one loopless vertex, is not."""
    comps, _cond = scc(g)
    return len(comps) == 1 and cyclic(g.out, comps[0])


ConnectivityReport = namedtuple(
    "ConnectivityReport", "strongly_connected reach_criterion sufficient_b2 m1_ab_criterion")


def connectivity_report(ctx):
    """Connectivity of the central subgraph, by three routes at once.

    ``strongly_connected`` is the one definition, ``is_strongly_connected``
    (an empty graph is not).  It must equal ``reach_criterion``, the core
    reaching every crossing and switch-edge vertex, and for M = 1 also
    ``m1_ab_criterion``, the core reaching every crossing vertex.  The
    endpoint test ``sufficient_b2`` is sufficient but not necessary.
    """
    ctx.require_limit_class("the connectivity report")
    tilde = build_graph(ctx, TILDE)
    direct = is_strongly_connected(tilde)
    reach = explore(build_graph(ctx, TILDE1).out, tilde.out.__getitem__).keys()
    a, b, th = _point_classes(ctx)
    ab = {v.index for v in tilde.vertices if v.left in a and v.right in b}
    crit = reach >= ab | {v.index for v in tilde.vertices if v.right in th}
    if crit != direct:
        raise InternalConsistencyError(
            "reachability criterion and component count disagree on strong connectedness")
    m1 = reach >= ab if ctx.M == 1 else None
    if m1 is not None and m1 != direct:
        raise InternalConsistencyError("two-digit criterion disagrees with component count")
    # order_points has certified every strict step and every tie of the
    # special points, so their class indices compare them exactly
    at = tilde.order.index_of
    suff = ctx.n_period >= 3 and all(at["b2"] < at[f"a{i}"] for i in range(2, ctx.n_period))
    if suff and not direct:
        raise InternalConsistencyError("sufficient endpoint condition held but graph is split")
    return ConnectivityReport(direct, crit, suff, m1)


# --- order maps between graphs ---------------------------------------------

def _order_embedding_fault(g_small, g_big, mapping):
    """Why ``mapping`` is not an order embedding of ``g_small`` onto an induced
    subgraph of ``g_big``, or None when it is one.

    The map must be strictly increasing in interval order (hence injective),
    send every edge to an edge of the same label, and add no edge among its
    image.
    """
    images = [mapping[v.index] for v in g_small.vertices]
    if any(a >= b for a, b in zip(images, images[1:])):
        return "the map is not increasing in interval order"
    image = set(mapping.values())
    pushed = {(mapping[i], k, mapping[j]) for i, moves in g_small.out.items() for k, j in moves}
    induced = {(i, k, j) for i in image for k, j in g_big.out[i] if j in image}
    if pushed - induced:
        return "an edge is lost by the map"
    if induced - pushed:
        return "the image has an extra internal edge"
    return None


def check_isomorphic(g1, g2):
    """Decide whether two graphs are order isomorphic.

    Returns the map that pairs the vertices of the two graphs by their rank
    in interval order when it is a label-preserving digraph isomorphism,
    and None otherwise.  No other map is tried: an isomorphism that does
    not respect the interval order does not count.
    """
    if len(g1.vertices) != len(g2.vertices):
        return None
    mapping = {v.index: w.index for v, w in zip(g1.vertices, g2.vertices)}
    return None if _order_embedding_fault(g1, g2, mapping) else mapping


# --- successor embedding and the tower decomposition ------------------------

def _successor_point_pairs(ctx):
    """The paper's map of the special points of an in-between base onto its
    successor's, as (point, image point) name pairs.

    The period has even length N = 2n and is u+ reflect(u+) for a half word
    u, so c = alpha_n is the incremented last digit of u.  Each a_i with
    i < N and i != n, each th_j and each et_j but et_c keeps its name, and
    et_c, the switch endpoint riding on a_n, goes to the new orbit point
    a_n.  a_n, a_N and the b-points have no image.
    """
    n = ctx.n_period // 2
    c = ctx.alpha_word()[n - 1]
    return ([(f"a{i}", f"a{i}") for i in range(1, 2 * n) if i != n]
            + [(f"th{j}", f"th{j}") for j in range(ctx.M + 1)]
            + [(f"et{j}", f"a{n}" if j == c else f"et{j}") for j in range(1, ctx.M + 2)])


def embed_successor(g_small, g_big):
    """The order isomorphism of an in-between base's graph onto a subgraph of
    its successor's.

    Returns {vertex index in g_small -> vertex index in g_big}.  The map is
    read from the pair table ``_successor_point_pairs`` through the two point
    orders: a vertex goes to the successor vertex whose left class holds an
    image of a point of its own left class.  There must be exactly one, and
    the map must be an order embedding onto an induced subgraph
    (``_order_embedding_fault``), or StructuralError is raised.  A limit
    base's graph needs no table: it is order isomorphic to its successor's
    (``check_isomorphic``).
    """
    small_at, big_at = g_small.order.index_of, g_big.order.index_of
    images = {}
    for name, image in _successor_point_pairs(g_small.ctx):
        images.setdefault(small_at[name], set()).add(big_at[image])
    mapping = {}
    for v in g_small.vertices:
        targets = images.get(v.index, set()) & g_big.out.keys()
        if len(targets) != 1:
            raise StructuralError(f"left endpoint of {g_small.vertex_name(v)} hits "
                                  f"{len(targets)} vertices of the successor graph")
        mapping[v.index] = targets.pop()
    fault = _order_embedding_fault(g_small, g_big, mapping)
    if fault:
        raise StructuralError(f"successor embedding: {fault}")
    return mapping


class TowerDecomposition(namedtuple("TowerDecomposition", "n graphs blocks residual cycles")):
    """Cyclic tower of a successor-chain graph.

    ``graphs[j]`` is the full graph of the j-th chain element (j = 0 is the
    seed).  Inside the top graph, ``blocks[j]`` (1-based level j+1) are
    disjoint vertex sets of size 2^j * n: blocks[0] is the orbit cycle
    inherited from the seed and blocks[j] for j >= 1 the cycle of new
    vertices added at step j+1.  ``residual`` holds the remaining n + M - 1
    embedded vertices, so blocks + residual partition the top graph.
    ``cycles[j]`` gives each block as an ordered vertex list with its label
    word; blocks after the first span pure cycles (no stray in-block edge),
    the first carries the orbit cycle plus chords.
    """

    __slots__ = ()


def tower_decompose(ctx0, m):
    """Decompose the m-th successor graph along the embedding chain.

    Takes the graphs of ``base.chain(ctx0, "v", m, TOWER_PERIOD_BOUND)``
    (contexts that an earlier chain from ``ctx0`` built, kept by
    ``base.memo``, are reused) and embeds each in the next: the seed's graph
    by the successor isomorphism (``check_isomorphic``), each later one by
    ``embed_successor``.  It verifies the announced structure: the new
    vertices at each step form a single pure cycle of doubled length, and a
    path runs from level j to level k exactly when j <= k.
    """
    ctx0.require_limit_class("the tower decomposition")
    if m < 1:
        raise ValueError("need at least one successor step")
    graphs = [build_graph(c, FULL) for c in chain(ctx0, "v", m, TOWER_PERIOD_BOUND)]
    n = ctx0.n_period

    # push-forward maps toward the top graph; the first is the successor
    # isomorphism, the pairing of the two vertex sets by interval rank
    first = check_isomorphic(graphs[0], graphs[1])
    if first is None:
        raise StructuralError("the seed graph is not order isomorphic to its successor's")
    maps = [first] + [embed_successor(graphs[j], graphs[j + 1]) for j in range(1, m)]

    def push_seq(idx_seq, level):
        cur = list(idx_seq)
        for j in range(level, m):
            cur = [maps[j][v] for v in cur]
        return cur

    top = graphs[m]

    # ordered orbit cycle of the seed: vertices leaning on a_1, ..., a_n
    alpha = ctx0.alpha_word()
    seed_cycle = [graphs[0].order.index_of[f"a{i}"] - 1 for i in range(1, n + 1)]
    for i, v in enumerate(seed_cycle, 1):
        if v not in graphs[0].out:
            raise StructuralError(f"no vertex of the seed graph has a{i} as its right end")
    seed_out = graphs[0].out
    for i in range(n):
        src, dst = seed_cycle[i], seed_cycle[(i + 1) % n]
        if (alpha[i], dst) not in seed_out[src]:
            raise StructuralError(f"seed orbit edge {i + 1} with digit {alpha[i]} is missing")
    cycles = [(push_seq(seed_cycle, 0), tuple(alpha))]

    for j in range(2, m + 1):
        fresh = graphs[j].out.keys() - maps[j - 1].values()
        if len(fresh) != 2 ** (j - 1) * n:
            raise StructuralError(
                f"level {j} adds {len(fresh)} vertices, expected {2 ** (j - 1) * n}")
        cycles.append(_trace_cycle(top, set(push_seq(sorted(fresh), j)), j - 1))
    blocks = [path for path, _labels in cycles]

    covered = {v for b in blocks for v in b}
    if sum(len(b) for b in blocks) != len(covered):
        raise StructuralError("tower levels overlap")
    residual = set(top.out) - covered
    if len(residual) != n + top.ctx.M - 1:
        raise StructuralError(
            f"residual block has {len(residual)} vertices, expected {n + top.ctx.M - 1}")

    block_sets = [set(b) for b in blocks]
    for i in range(len(blocks)):
        reach = explore(block_sets[i], top.out.__getitem__)
        for j in range(len(blocks)):
            hits = not block_sets[j].isdisjoint(reach)
            if hits != (i <= j):
                raise StructuralError(
                    f"level {i + 1} {'reaches' if hits else 'misses'} level {j + 1}")
    return TowerDecomposition(n=n, graphs=graphs, blocks=blocks, residual=residual, cycles=cycles)


def _trace_cycle(g, cset, level):
    """The single cycle spanned by ``cset``, from its least vertex, with its
    labels: ``walk.orbit`` follows each vertex's one move inside ``cset``,
    and the run must return to its start having visited every vertex."""

    def inside_move(v):
        inside = [(k, j) for k, j in g.out[v] if j in cset]
        if len(inside) != 1:
            raise StructuralError(
                f"cycle vertex {g.gap_name(v)} has {len(inside)} successors inside "
                f"level {level + 1}")
        return inside[0]

    path, labels, k = orbit(min(cset), inside_move)
    if k != 0 or len(path) != len(cset):
        raise StructuralError(f"level {level + 1} is not a single cycle")
    return path, tuple(labels)


# --- label-path language -----------------------------------------------------

def _label_dfa(g):
    """Subset automaton of the labeled graph (paths may start anywhere):
    the start state and the successor map ``state -> [(label, state)]``."""

    def moves(s):
        by_label = {}
        for v in s:
            for k, j in g.out[v]:
                by_label.setdefault(k, set()).add(j)
        return [(k, frozenset(t)) for k, t in by_label.items()]

    start = frozenset(g.out)
    return start, explore([start], moves)


def count_label_paths(g, L):
    """Number of distinct length-L label words readable along paths: the runs
    of the deterministic subset automaton, which ``walk.count_words`` counts
    exactly for any L."""
    start, succ = _label_dfa(g)
    return count_words(succ, start, L)


def path_words(g, L):
    """The set of length-L label words of the graph, listed by ``walk.words``
    over the subset automaton (ValueError past its ``WORD_CAP``)."""
    start, succ = _label_dfa(g)
    return words(succ, start, L)
