"""Spectral radius, topological entropy and dimension of the interval graphs.

The growth rate of the label-path language of a graph is the Perron radius
of its adjacency matrix A, whose entries count edges; entropy is its
natural logarithm and the dimension of the generated set is entropy divided
by log q.  The radius of A is the maximum over its strongly connected
components, each an irreducible block.

Each component's radius is certified by an exact enclosure.  A sparse float
power iteration on B = A + I (primitive, so it converges) runs over the
component's edges, parallel ones included.  Its final positive vector x is
then read exactly as integers over one power of two, and the
Collatz-Wielandt bounds min (Bx)_i / x_i <= r(B) <= max (Bx)_i / x_i
(Perron-Frobenius) enclose r(B) = r(A) + 1 in exact rationals.  The
reported radius is the midpoint of that enclosure minus one, and its error
bound the distance to either end, rounded up.  Every component gets this
certificate, whatever its size (there is no size cutoff); when the
iteration cap is hit the enclosure is wider but still exact.  Only Python
floats and ints are used, no array library.

Each step of the iteration reads a row's successors with one
``operator.itemgetter`` gather (a lone successor directly), and adds every
float sum left to right with ``functools.reduce(operator.add, ...)``.  The
built-in ``sum`` is not used on floats: from Python 3.12 on it compensates
the rounding of a float sum, so the iterates, and the radius printed from
them, would change in their last bits with the interpreter.  Left-to-right
sums give the same bits on every version.  Every rational, from the
Collatz-Wielandt quotients to the ends of an enclosure, is an exact pair
(n, d) of ints with d > 0: pairs are compared by cross-multiplication, with
no gcd taken, and n / d of ints rounds correctly to the nearest float.

The pass over a graph's components runs once per graph (``_components``,
kept on the graph by ``base.memo``, over the components ``graph.scc`` found
once) and encloses the graph's top radius there too;
``spectral_radius``, ``spectral_report`` and ``component_dimensions`` all
read it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from operator import add, itemgetter, truediv

from .base import memo
from .graph import TILDE, TILDE1, build_graph, is_strongly_connected, scc

RADIUS_TOL = 1e-12
ITERATION_CAP = 10**5


def _below(a, b):
    """Whether the rational pair a = (n, d) lies below b."""
    return a[0] * b[1] < b[0] * a[1]


def _plus(a, b):
    """The rational pair a + b."""
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _minus(a, b):
    """The rational pair a - b."""
    return _plus(a, (-b[0], b[1]))


def _greatest(pairs):
    """The greatest of the rational pairs ``pairs``."""
    return reduce(lambda a, b: b if _below(a, b) else a, pairs)


def _round_up(q):
    """The least float not below the rational pair q."""
    f = q[0] / q[1]
    return math.nextafter(f, math.inf) if _below(f.as_integer_ratio(), q) else f


def _round_down(q):
    """The greatest float not above the rational pair q."""
    f = q[0] / q[1]
    return math.nextafter(f, -math.inf) if _below(q, f.as_integer_ratio()) else f


def _row_sum(row):
    """The function that takes a vector x to the sum of x[j] over ``row``,
    added left to right: a lone entry is read directly, and a vertex with no
    edge in its component sums to 0."""
    if len(row) == 1:
        return itemgetter(row[0])
    if not row:
        return lambda _x: 0
    gather = itemgetter(*row)
    return lambda x: reduce(add, gather(x))


def _component_radius(succ, comp):
    """Perron radius of one component of the successor map ``succ`` with a
    certified bound: the true radius lies in [r - err, r + err]."""
    pos = {v: p for p, v in enumerate(comp)}
    rows = [sorted(pos[j] for _k, j in succ[v] if j in pos) for v in comp]
    sums = [_row_sum(row) for row in rows]
    x = [1.0] * len(comp)
    for _ in range(ITERATION_CAP):
        y = [xi + s(x) for xi, s in zip(x, sums)]
        ratios = list(map(truediv, y, x))
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= RADIUS_TOL * hi:
            break
        total = reduce(add, y)
        x = [b / total for b in y]
    # x exactly, as integers over the largest of its power-of-two denominators
    parts = [xi.as_integer_ratio() for xi in x]
    den = max(d for _n, d in parts)
    X = [n * (den // d) for n, d in parts]
    B = [xi + sum(map(X.__getitem__, row)) for xi, row in zip(X, rows)]
    # the least and greatest quotient B_i / X_i, by cross-multiplication
    lo = hi = 0
    for i in range(1, len(X)):
        if B[i] * X[lo] < B[lo] * X[i]:
            lo = i
        elif B[i] * X[hi] > B[hi] * X[i]:
            hi = i
    return _centred((B[lo] - X[lo], X[lo]), (B[hi] - X[hi], X[hi]))


def _centred(lo, hi):
    """A (radius, error) pair for the interval between the rational pairs lo
    and hi: its float midpoint r, and the distance from r to either end,
    rounded up."""
    (a, b), (c, d) = lo, hi
    r = (a * d + c * b) / (2 * b * d)
    mid = r.as_integer_ratio()
    up, down = _minus(hi, mid), _minus(mid, lo)
    return r, _round_up(down if _below(up, down) else up)


class SpectralReport(namedtuple("SpectralReport",
                                 "radius radius_err entropy dimension dimension_err per_scc")):
    """Radius, entropy and dimension of a graph; ``per_scc`` holds a
    (vertex names, radius) pair per component."""

    __slots__ = ()

    def to_json(self):
        return {
            "radius": self.radius,
            "radius_err": self.radius_err,
            "entropy": self.entropy if self.radius > 0 else None,
            "dimension": self.dimension,
            "dimension_err": self.dimension_err,
            "scc": [{"vertices": names, "radius": r} for names, r in self.per_scc],
        }


def _max_radius(radii):
    """A (radius, error) pair enclosing the largest radius of the (radius,
    error) pairs ``radii``: [max(r - e), max(r + e)]; (0, 0) for none."""
    pairs = [(r.as_integer_ratio(), e.as_integer_ratio()) for r, e in radii] or [((0, 1), (0, 1))]
    return _centred(_greatest([_minus(r, e) for r, e in pairs]),
                    _greatest([_plus(r, e) for r, e in pairs]))


def spectral_radius(g):
    """Perron radius of the graph's adjacency matrix, with an error bound.

    The radius of the whole matrix is the maximum over its strongly
    connected components, each of which is irreducible; a graph with no
    components has radius 0.
    """
    _comps, _radii, _per, top = _components(g)
    return top


def dimension_of(g, ctx, radius=None):
    """log(radius) / log(q) as a (dimension, half-width) pair.

    The enclosure takes the radius interval [r - err, r + err] over the
    isolating interval of q, with every logarithm and quotient rounded
    outward.  It reads q's isolating interval as it stands and does not
    ``settle``: a field is built with q to a width of 1/10^12
    (1/``algebraic.INITIAL_WIDTH``) and every base with a graph has q at
    least the golden ratio, so q's share of the width, at most
    width(q) / (q log q) for a dimension at most 1, is below 1.3 * 10^-12;
    the rest is the radius error's.  ``radius`` is the graph's (radius,
    error) pair when the caller has it.
    """
    r, err = radius if radius is not None else spectral_radius(g)
    if r <= 1.0:
        return 0.0, 0.0
    log_r_lo = math.nextafter(math.log(max(math.nextafter(r - err, 0.0), 1.0)), -math.inf)
    log_r_hi = math.nextafter(math.log(math.nextafter(r + err, math.inf)), math.inf)
    field = ctx.field
    log_q_lo = math.nextafter(math.log(_round_down((field.n_lo, 1 << field.e))), -math.inf)
    log_q_hi = math.nextafter(math.log(_round_up((field.n_hi, 1 << field.e))), math.inf)
    lo = math.nextafter(max(log_r_lo, 0.0) / log_q_hi, -math.inf)
    hi = math.nextafter(log_r_hi / log_q_lo, math.inf)
    mid = (lo + hi) / 2
    return mid, math.nextafter(max(hi - mid, mid - lo), math.inf)


def _components(g):
    """The components of ``g`` in ``scc`` order, their (radius, error) pairs,
    the ``per_scc`` list of (vertex names, radius) pairs and the (radius,
    error) pair of the whole graph (``_max_radius``); computed once per
    graph."""
    return memo(g, _component_pass)


def _component_pass(g):
    comps, _ = scc(g)
    radii = [_component_radius(g.out, comp) for comp in comps]
    per = [([g.gap_name(v) for v in comp], r) for comp, (r, _e) in zip(comps, radii)]
    return comps, radii, per, _max_radius(radii)


def spectral_report(g, ctx):
    _comps, _radii, per, (r, err) = _components(g)
    dim, dim_err = dimension_of(g, ctx, (r, err))
    return SpectralReport(
        radius=r,
        radius_err=err,
        entropy=math.log(r) if r > 0 else float("-inf"),
        dimension=dim,
        dimension_err=dim_err,
        per_scc=per,
    )


# per_scc: (vertex names, radius) per component; core_components_max: max
# radius among components inside the core subgraph, or None;
# core_equals_overall: the dimension-transfer hypothesis
ComponentDimensionReport = namedtuple(
    "ComponentDimensionReport",
    "per_scc overall_radius core_components_max core_equals_overall")


def component_dimensions(ctx):
    """Per-component radii of the central subgraph and the transfer hypothesis.

    The hypothesis holds when the components lying inside the core subgraph
    (vertices leaning on the orbit points) already achieve the full radius;
    a central graph that ``is_strongly_connected``, the one definition (one
    component carrying a cycle; an empty graph is not), satisfies it
    vacuously.
    """
    ctx.require_limit_class("the dimension-transfer report")
    tilde = build_graph(ctx, TILDE)
    core = {v.index for v in build_graph(ctx, TILDE1).vertices}
    comps, radii, per, (overall, _err) = _components(tilde)
    inside = [r for comp, (r, _e) in zip(comps, radii) if set(comp) <= core]
    if is_strongly_connected(tilde):
        hypothesis = True
        core_max = per[0][1]
    else:
        core_max = max(inside) if inside else None
        hypothesis = core_max is not None and abs(core_max - overall) <= 1e-9
    return ComponentDimensionReport(
        per_scc=per,
        overall_radius=overall,
        core_components_max=core_max,
        core_equals_overall=hypothesis,
    )
