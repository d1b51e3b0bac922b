"""Base contexts: classification, successor chains, and the special points.

A base is always given symbolically through the greedy expansion of 1 (a
finite digit word, or a periodic sequence for bases where that expansion is
infinite); the numeric value q is never an input.  For bases whose
quasi-greedy expansion alpha is periodic with primitive period N, the
context carries the partition points of the graph construction:

* ``a_i`` -- the value of the greedy digit tail starting at position i,
  for i = 1..N (a_1 = 1): the greedy orbit of 1, a_{i+1} = q*a_i - beta_i,
  which closes at a_{N+1} = 0;
* ``b_i = M/(q-1) - a_i`` -- their reflections;
* ``theta_j = j/q`` and ``eta_j = (j-1)/q + M/(q^2-q)`` -- the endpoints of
  the switch region, where the first digit of an expansion is not forced.

Each point also gets its quasi-greedy expansion as an exact comparison key;
sorting by those keys must agree with exact algebraic comparison, and
``order_points`` verifies that it does.

A context owns what is derived from it.  ``memo`` computes each derived
object once and keeps it in the context: kappa, the special points, the
point order, the r-chain contexts (``v_successor`` is the first of them) and,
in ``graph``, the interval graphs.  A successor context therefore lives as
long as its seed, and a chain, its tower and its isomorphism checks share
one context, with its graphs, per base.  Nothing is cached at module level:
``new_base_context`` always builds a new context.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import digits as dg
from .algebraic import (AlgebraicReal, apply_digit_map, base_polynomial, field_for_base,
                        value_of_sequence)
from .digits import BaseClass, EpSeq


class InternalConsistencyError(AssertionError):
    """The lexicographic and algebraic orders disagreed; must never happen."""


class UnsupportedClassError(ValueError):
    """The base is not of a class the operation needs: a graph class
    (``require_graph_class``) or the limit class (``require_limit_class``)."""


class SearchBoundError(RuntimeError):
    """A search reached its explicit bound before it could decide."""


GRAPH_CLASSES = (BaseClass.IN_CLOSURE_U_NOT_U, BaseClass.IN_V_NOT_CLOSURE_U)


def memo(owner, fn, *args):
    """``fn(owner, *args)``, computed once and kept in ``owner._cache``.

    The key is the function with its arguments, so callers pass normalised
    arguments (defaults filled in) and run their argument and class checks
    before calling: a check belongs to every call, not only to the first.
    Every caller gets the same object, which must not be mutated; the one
    exception is the remainder map ``expansions._RemainderMap``, which grows
    by design and which its one reader bounds.
    """
    cache = owner._cache
    key = (fn, *args)
    if key not in cache:
        cache[key] = fn(owner, *args)
    return cache[key]


class BaseContext:
    """A base given by its greedy expansion of 1, with its number field.

    ``_cache`` holds what ``memo`` derived from the context: kappa, the
    special points and their order, the r-chain contexts and the interval
    graphs.  Successor contexts kept there live as long as this one.  Next
    to them the expansion layer keeps its remainder map, with the one
    enclosure of kappa it reads: every remainder that a count or a greedy
    run has met, under an int id, with its moves and, once a count has
    decided it, its number of expansions and, on a cycle, its tail.  A
    count's cap is checked against the map's size.  A run that leaves more
    than ``DEFAULT_STATE_CAP`` remainders there empties it.
    """

    __slots__ = ("M", "beta", "alpha", "base_class", "defining_poly", "field", "n_period", "_cache")

    def __init__(self, M, beta, alpha, base_class, defining_poly, field, n_period=0):
        self.M = M
        self.beta = beta
        self.alpha = alpha
        self.base_class = base_class
        self.defining_poly = defining_poly
        self.field = field
        self.n_period = n_period            # primitive period of alpha when periodic
        self._cache = {}

    @property
    def q(self):
        return AlgebraicReal(self.field, self.field.gen())

    @property
    def kappa(self):
        """The right endpoint M/(q-1) of the expandable interval."""
        return memo(self, _kappa)

    def value(self, seq):
        return value_of_sequence(self.field, seq)

    def q_approx(self, places=8):
        return self.q.decimal(places)

    def require_graph_class(self):
        if self.base_class not in GRAPH_CLASSES:
            raise UnsupportedClassError(
                f"base class {self.base_class.value} has no interval graph "
                "(the expansion of 1 must be periodic but not unique)")

    def require_limit_class(self, what):
        """Refuse ``what``, which holds for limit-of-uniqueness bases only, on others."""
        if self.base_class is not BaseClass.IN_CLOSURE_U_NOT_U:
            raise UnsupportedClassError(
                f"{what} applies to limit-of-uniqueness bases (class closureU\\U) only, "
                f"not to class {self.base_class.value}")

    def alpha_word(self):
        """The primitive period of alpha (graph classes only)."""
        self.require_graph_class()
        return self.alpha.per

    def to_json(self):
        return {
            "M": self.M,
            "beta": dg.format_seq(self.beta),
            "alpha": dg.format_seq(self.alpha),
            "class": self.base_class.value,
            "q_approx": self.q_approx(12),
            "poly": list(self.defining_poly),
        }


def _kappa(ctx):
    return ctx.M / (ctx.q - 1)


def new_base_context(M, beta):
    """Build a context from the greedy expansion of 1 (digit string or EpSeq),
    which ``base_polynomial`` validates while building the defining polynomial.

    Graph classes need no check that beta = w+ 0^inf for alpha's primitive
    period w.  An infinite greedy beta is alpha and in no graph class, where
    alpha = w^inf and w+ 0^inf is a larger expansion of 1.  A finite one with
    a shorter period p of alpha is p^(j-1) p+ (j >= 2): its tail p^(j-2) p+,
    after a digit below M, exceeds it, so ``base_polynomial`` refuses it."""
    if M < 1:
        raise ValueError("alphabet bound must be at least 1")
    if isinstance(beta, str):
        beta = dg.parse_seq(beta)
    poly = base_polynomial(M, beta)
    alpha = dg.alpha_from_beta(M, beta)
    base_class = dg.classify_alpha(M, alpha)
    return BaseContext(M, beta, alpha, base_class, poly, field_for_base(poly, M),
                       len(alpha.per) if base_class in GRAPH_CLASSES else 0)


def golden_ratio_base(M):
    """The smallest base with a unique doubly infinite expansion of 1."""
    if M % 2 == 0:
        m = M // 2
        return new_base_context(M, EpSeq((m + 1,), (0,)))
    m = (M + 1) // 2
    return new_base_context(M, EpSeq((m, m), (0,)))


def v_successor(ctx):
    """The next base (upward) whose expansion of 1 is doubly-infinite-unique.

    If alpha has primitive period w, the successor's alpha is
    ``(w+ reflect(w+))^inf``, equivalently its greedy expansion is
    ``w+ reflect(w) 0^inf``: the first element of ``r_chain``, and the
    same context object.
    """
    return r_chain(ctx, 1)


def chain(ctx, kind, steps, bound):
    """``[ctx, c_1, ..., c_steps]`` along the successor chain (kind "v") or the
    r-chain (kind "r").  A chain whose ``steps`` bases would have total alpha
    period above ``bound`` is refused before any is built (SearchBoundError):
    from period N, the successor chain has periods 2N, 4N, ..., in all
    N(2^(steps+1) - 2), and the r-chain has periods (k + 1)N for k =
    1..steps; the sum stops at the first step past the bound.  Another kind,
    then a negative ``steps`` (ValueError), then a base with no graph
    (period 0, UnsupportedClassError) are refused first."""
    if kind not in ("v", "r"):
        raise ValueError(f"unknown chain kind {kind!r}, expected 'v' or 'r'")
    if steps < 0:
        raise ValueError(f"chain steps must be nonnegative, got {steps}")
    ctx.require_graph_class()
    n = ctx.n_period
    total = k = 0
    while k < steps and total <= bound:
        k += 1
        total += n * (2 ** k if kind == "v" else k + 1)
    if total > bound:
        raise SearchBoundError(f"{steps} {kind}-chain steps from period {n} pass the bound "
                               f"{bound} on their total period: steps 1..{k} reach {total}")
    out = [ctx]
    for k in range(1, steps + 1):
        out.append(v_successor(out[-1]) if kind == "v" else r_chain(ctx, k))
    return out


def r_chain(ctx, k):
    """The k-th base of the chain ``beta(r_k) = w+ reflect(w)^k 0^inf``.

    The chain starts at the given context (k = 0) and increases strictly; its
    first element is of the in-between class and all later ones are limits of
    uniqueness bases.  Each element is built once per context (``memo``).
    """
    ctx.require_graph_class()
    if k < 0:
        raise ValueError("chain index must be nonnegative")
    if k == 0:
        return ctx
    return memo(ctx, _r_chain, k)


def _r_chain(ctx, k):
    w = ctx.alpha_word()
    wp = dg.word_plus(w, ctx.M)
    beta = EpSeq(wp + dg.word_reflect(w, ctx.M) * k, (0,))
    out = new_base_context(ctx.M, beta)
    expected = BaseClass.IN_V_NOT_CLOSURE_U if k == 1 else BaseClass.IN_CLOSURE_U_NOT_U
    if out.base_class is not expected:
        raise InternalConsistencyError(
            f"chain element {k} classified as {out.base_class.value}, expected {expected.value}")
    return out


# --- special points ---------------------------------------------------------

class SpecialPoints(namedtuple("SpecialPoints", "qg_key value")):
    """Quasi-greedy comparison keys and exact values of the partition points.

    Both map the point names "a1".."aN", "b1".."bN", "th0".."thM" and
    "et1".."etM+1": ``qg_key`` to EpSeq keys, ``value`` to the exact values.
    The names are listed in that order, which is their precedence inside a
    class of equal points.
    """

    __slots__ = ()


def special_points(ctx):
    """The partition points of the graph construction, with their keys.

    The orbit points run a_1 = 1, a_{i+1} = q*a_i - beta_i, one digit map
    per point along the greedy word ``beta = w+ 0^inf``; the orbit must
    close at a_{N+1} = 0, or InternalConsistencyError is raised.
    """
    ctx.require_graph_class()
    return memo(ctx, _special_points)


def _special_points(ctx):
    M, N = ctx.M, ctx.n_period
    w = ctx.alpha_word()
    qinv = ctx.value(EpSeq((1,), (0,)))          # 1/q
    kappa = ctx.kappa

    keys, values = {}, {}
    a = AlgebraicReal(ctx.field, ctx.field.one())
    for i, digit in enumerate(dg.word_plus(w, M), start=1):
        keys[f"a{i}"] = dg.shift(ctx.alpha, i - 1)
        values[f"a{i}"] = a
        a = apply_digit_map(a, digit)
    if a.sign() != 0:
        raise InternalConsistencyError(f"the orbit of 1 does not close at 0 after {N} digits")
    # b_i's key reflects a_i's: shift and reflection commute
    reflected = dg.reflect(ctx.alpha, M)
    for i in range(1, N + 1):
        keys[f"b{i}"] = dg.shift(reflected, i - 1)
        values[f"b{i}"] = kappa - values[f"a{i}"]
    for j in range(0, M + 1):
        keys[f"th{j}"] = dg.ZERO if j == 0 else EpSeq((j - 1,), w)
        values[f"th{j}"] = j * qinv
    for j in range(1, M + 2):
        keys[f"et{j}"] = dg.reflect(keys[f"th{M + 1 - j}"], M)
        values[f"et{j}"] = kappa - values[f"th{M + 1 - j}"]

    return SpecialPoints(qg_key=keys, value=values)


class PointOrder(namedtuple("PointOrder", "classes values keys index_of")):
    """Sorted equality classes of the named partition points.

    ``classes[k]`` is the list of names whose values coincide, in the name
    precedence of ``SpecialPoints`` (a, b, th, et, then index); ``values[k]``
    is the common exact value and ``keys[k]`` the common quasi-greedy key.
    ``index_of`` maps each name to its class index.
    """

    __slots__ = ()

    def chain(self):
        return "<".join("=".join(cls) for cls in self.classes)


def order_points(ctx):
    """Total order of the special points, cross-checked two ways.

    Points are sorted by the lexicographic order of their quasi-greedy keys,
    read off prefix tuples of one common length (``digits.common_prefixes``);
    exact algebraic comparison then confirms every coincidence and every
    strict step.  Each coincidence is checked by exact equality.  Each class
    value is enclosed (``NumberField.enclosure``, rigorous on the current
    isolating interval of q); a strict step whose two enclosures are
    disjoint in the right order is certified by them.  Where some overlap,
    the precision is planned from the keys: points whose keys share L
    digits differ by about q^-L, and an enclosure of a numerator of degree
    d loses about d log2 q bits, so q is moved once (``refine_to``) to the
    level e = ceil((L + deg R) log2 q_hi) + 64, with L the longest prefix
    the close pairs share, and every class is enclosed again from one power
    table of that interval (``NumberField.enclosures``).  A step whose
    enclosures still overlap goes to the exact ``cmp``, which refines q as
    far as it needs.  A disagreement would falsify the order isomorphism
    between sequences and values and raises InternalConsistencyError.
    """
    ctx.require_graph_class()
    return memo(ctx, _order_points)


def _apart(left, right):
    """Whether the enclosure ``left`` lies wholly below ``right``."""
    _lo, hi, D = left
    lo, _hi, D_next = right
    return hi * D_next < lo * D


def _common_length(u, v):
    """The length of the common prefix of the unequal tuples u and v."""
    return next(i for i, (x, y) in enumerate(zip(u, v)) if x != y)


def _order_points(ctx):
    pts = special_points(ctx)
    # prefix order is key order, and equal prefixes are equal keys
    prefix = dict(zip(pts.qg_key, dg.common_prefixes(list(pts.qg_key.values()))))
    # the sort is stable: equal keys keep the precedence order of the names
    names = sorted(prefix, key=prefix.__getitem__)
    classes, keys, values = [], [], []
    for nm in names:
        if classes and prefix[nm] == prefix[classes[-1][0]]:
            classes[-1].append(nm)
        else:
            classes.append([nm])
            keys.append(pts.qg_key[nm])
            values.append(pts.value[nm])
    for cls, val in zip(classes, values):
        for nm in cls[1:]:
            if pts.value[nm] != val:
                raise InternalConsistencyError(
                    f"key order says {cls[0]} = {nm} but the values differ")
    field = ctx.field
    elems = [v.elem for v in values]
    bounds = list(map(field.enclosure, elems))
    close = [k for k in range(len(values) - 1) if not _apart(bounds[k], bounds[k + 1])]
    if close:
        common = max(_common_length(prefix[classes[k][0]], prefix[classes[k + 1][0]])
                     for k in close)
        q_hi = field.n_hi / (1 << field.e)
        field.refine_to(math.ceil((common + field.deg) * math.log2(q_hi)) + 64)
        bounds = field.enclosures(elems)
    for k in close:
        if not _apart(bounds[k], bounds[k + 1]) and values[k].cmp(values[k + 1]) >= 0:
            raise InternalConsistencyError(
                f"key order says {classes[k][0]} < {classes[k+1][0]} but the values disagree")
    return PointOrder(
        classes=classes,
        values=values,
        keys=keys,
        index_of={nm: k for k, cls in enumerate(classes) for nm in cls},
    )
