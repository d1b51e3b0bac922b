"""Spectral radius, topological entropy and dimension of the interval graphs.

The growth rate of the label-path language of a graph is the Perron radius
of its adjacency matrix; entropy is its natural logarithm and the dimension
of the generated set is entropy divided by log q.  Matrices here are tiny
0/1 matrices, so the radius is computed per strongly connected component by
power iteration with Collatz-Wielandt bounds (shifting by the identity to
kill periodicity), and double-checked against the exact integer
characteristic polynomial on small components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .base import BaseClass
from .graph import TILDE, TILDE1, build_graph, scc

RADIUS_TOL = 1e-12
ITERATION_CAP = 10**5


def adjacency(g):
    """0/1 adjacency matrix in the graph's vertex order."""
    pos = {v.index: p for p, v in enumerate(g.vertices)}
    A = np.zeros((len(g.vertices), len(g.vertices)), dtype=float)
    for i, _k, j in g.edges:
        A[pos[i], pos[j]] = 1.0
    return A


def _char_poly_int(A):
    """Exact characteristic polynomial (monic, big-endian) of an integer matrix."""
    n = len(A)
    M = [[Fraction(int(x)) for x in row] for row in A]
    coeffs = [Fraction(1)]
    B = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    # Faddeev-LeVerrier: B_{k} = A B_{k-1} + c_{k-1} I, c_k = -tr(A B_{k-1}) / k
    Bk = B
    for k in range(1, n + 1):
        AB = [[sum(M[i][t] * Bk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(AB[i][i] for i in range(n)) / k
        coeffs.append(c)
        Bk = [[AB[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _poly_eval_big(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _irreducible_block_radius(A):
    """Perron radius of an irreducible nonnegative block, with error bound.

    Power iteration on A + I (primitive since the diagonal is positive)
    with the Collatz-Wielandt sandwich min_i (Bx)_i/x_i <= r(B) <= max_i.
    """
    n = len(A)
    if n == 1:
        return float(A[0, 0]), 0.0
    B = A + np.eye(n)
    x = np.ones(n)
    lo, hi = 0.0, float("inf")
    for _ in range(ITERATION_CAP):
        y = B @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= RADIUS_TOL * hi:
            break
        x = y / y.sum()
    return (lo + hi) / 2 - 1.0, (hi - lo) / 2


def _component_radius(g, comp):
    pos = {v: p for p, v in enumerate(comp)}
    inside = set(comp)
    A = np.zeros((len(comp), len(comp)))
    for i, _k, j in g.edges:
        if i in inside and j in inside:
            A[pos[i], pos[j]] = 1.0
    if len(comp) == 1 and A[0, 0] == 0.0:
        return 0.0, 0.0
    r, err = _irreducible_block_radius(A)
    if len(comp) <= 12 and r > 0:
        _check_char_poly(A, r, max(err, 1e-9))
    return r, err


def _check_char_poly(A, r, err):
    """The radius must bracket a sign change of the characteristic polynomial."""
    coeffs = _char_poly_int(A.astype(int))
    width = Fraction(max(err * 4, 1e-7)).limit_denominator(10**12)
    center = Fraction(r).limit_denominator(10**12)
    lo, hi = center - width, center + width
    flo, fhi = _poly_eval_big(coeffs, lo), _poly_eval_big(coeffs, hi)
    if flo == 0 or fhi == 0:
        return
    if (flo < 0) == (fhi < 0):
        raise AssertionError(
            f"characteristic polynomial does not change sign around radius {r}")


@dataclass
class SpectralReport:
    matrix: list
    radius: float
    radius_err: float
    entropy: float
    dimension: float
    per_scc: list          # (vertex names, radius) per component

    def to_json(self):
        return {
            "radius": self.radius,
            "radius_err": self.radius_err,
            "entropy": self.entropy,
            "dimension": self.dimension,
            "scc": [{"vertices": names, "radius": r} for names, r in self.per_scc],
        }


def _max_radius(radii):
    """The first (radius, error) pair of largest radius; (0, 0) for none."""
    return max(radii, key=lambda pair: pair[0], default=(0.0, 0.0))


def spectral_radius(g):
    """Perron radius of the graph's adjacency matrix, with an error bound.

    The radius of the whole matrix is the maximum over its strongly
    connected components, each of which is irreducible; a graph with no
    components has radius 0.
    """
    comps, _ = scc(g)
    return _max_radius(_component_radius(g, comp) for comp in comps)


def dimension_of(g, ctx, radius=None):
    """log(radius) / log(q), with q refined until the quotient is stable.

    ``radius`` is the graph's (radius, error) pair when the caller has it.
    """
    r, err = radius if radius is not None else spectral_radius(g)
    if r <= 1.0:
        return 0.0
    while True:
        qlo, qhi = ctx.field.lo, ctx.field.hi
        if qlo == qhi:
            lo = hi = math.log(r) / math.log(float(qlo))
        else:
            lo = math.log(max(r - err, 1.0)) / math.log(float(qhi))
            hi = math.log(r + err) / math.log(float(qlo))
        if hi - lo < 1e-8:
            return (lo + hi) / 2
        ctx.field.refine()


def spectral_report(g, ctx):
    comps, _ = scc(g)
    names = {v.index: g.vertex_name(v) for v in g.vertices}
    radii = [_component_radius(g, comp) for comp in comps]
    r, err = _max_radius(radii)
    return SpectralReport(
        matrix=adjacency(g).astype(int).tolist(),
        radius=r,
        radius_err=err,
        entropy=math.log(r) if r > 0 else float("-inf"),
        dimension=dimension_of(g, ctx, (r, err)),
        per_scc=[([names[v] for v in comp], rc) for comp, (rc, _e) in zip(comps, radii)],
    )


@dataclass
class ComponentDimensionReport:
    per_scc: list              # (vertex names, radius)
    overall_radius: float
    core_components_max: float | None   # max radius among components inside the core subgraph
    core_equals_overall: bool  # the dimension-transfer hypothesis


def component_dimensions(ctx):
    """Per-component radii of the central subgraph and the transfer hypothesis.

    The hypothesis holds when the components lying inside the core subgraph
    (vertices leaning on the orbit points) already achieve the full radius;
    a strongly connected central graph satisfies it vacuously.
    """
    if ctx.base_class is not BaseClass.IN_CLOSURE_U_NOT_U:
        raise ValueError("component dimensions apply to limit-of-uniqueness bases only")
    tilde = build_graph(ctx, TILDE)
    core = {v.index for v in build_graph(ctx, TILDE1).vertices}
    comps, _ = scc(tilde)
    names = {v.index: tilde.vertex_name(v) for v in tilde.vertices}
    radii = [_component_radius(tilde, comp) for comp in comps]
    per = [([names[v] for v in comp], r) for comp, (r, _e) in zip(comps, radii)]
    inside = [r for comp, (r, _e) in zip(comps, radii) if set(comp) <= core]
    overall, _err = _max_radius(radii)
    if len(comps) == 1:
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
