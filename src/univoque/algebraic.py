"""Exact arithmetic in the field generated by the base.

A base q is specified symbolically as the unique root in (1, M+1] of an
integer polynomial P obtained by clearing denominators in the defining
relation ``sum(beta_i / q^i) = 1`` (``base_polynomial``).  P may be
reducible.  The field is built on its working polynomial R
(``working_polynomial``): P less its cyclotomic factors Phi_k, k | deg P,
found by exact division.  For each such k, Phi_k divides P exactly when it
divides P folded modulo t^k - 1 (coefficient i added into slot i mod k), of
degree below k; while it does, Phi_k is divided out.  Phi_k is built
exactly (``_cyclotomic``) and is sparse along successor chains, so each
division costs about the length of P.  Other factors stay in R, repeated
ones and any Phi_k with k not dividing deg P among them.

R need not be squarefree, but q is a simple root of it and its only root in
(1, M+1].  P is t^K, or t^|w| (t^|p| - 1) for a periodic beta = w(p), a
factor positive for t > 1, times 1 - f(t) with f(t) = sum(beta_i t^-i).
f is strictly decreasing on t > 0, so q is P's one root on t > 1, and
P'(q) != 0.  P(1) < 0: for a finite beta it is 1 - f(1), where f(1), the
digit sum, is at least 2 because ``1(0)`` is refused; for a periodic one it
is minus the digit sum of the period.  And f(M+1) <= 1, so P(M+1) >= 0.
P/R is a product of cyclotomic polynomials Phi_k, k >= 2 (Phi_1 = t - 1
does not divide P, as P(1) != 0), which are positive on [1, M+1].  So R(1) < 0 <= R(M+1), and q
is the one root of R in that bracket, a simple one.  That is all this
module needs: the sign change of R at q locates it (``refine_to``
confirms a cell by it), a numerator coprime to R is nonzero at q, and
Euclid against R inverts an element or ends at a common factor.  Computing
modulo R gives every value at q that computing modulo the minimal
polynomial m_q gives; only the representation of an element is no longer
unique when R has other factors.
So m_q, the irreducible factor of R vanishing at q, is certified on demand
(``minpoly.minimal_factor``: Zassenhaus factoring of the squarefree part of
R in pure Python) where a unique representation is needed: to hash or
print an element, to decide the sign of an element whose numerator shares a
factor with R, and to invert a zero divisor of Z[t]/(R).
This is dynamic evaluation (Della Dora, Dicrescenzo and Duval 1985).  For
most bases R is m_q, and contexts and graphs never factor it: ``minpoly``
is imported only to certify m_q.

An element of Q(q) is one tuple of Python ints ``(c_0, ..., c_{d-1}, den)``
standing for ``sum(c_i q^i) / den``, with d = deg R, ``den > 0`` and the gcd
of all entries 1.  ``NumberField.reduce`` takes the numerator modulo m_q,
which makes the representation canonical; equality and hashing compare
reduced tuples, and when R is m_q the reduction is the identity.  R is
monic, so products reduce over the integers; multiplying by q is a shift
plus one reduction step, and dividing by q is one step with the constant
term of R.

The root is isolated in a dyadic interval ``[n_lo, n_hi] / 2^e`` on the
grid of the bracket [1, M+1], where R changes sign: its k-th bisection has
the cells (2^k + M j) / 2^k, a midpoint that is q ends it at that point,
and an integer q = M + 1 starts as the point [M+1, M+1].  q moves one way,
by ``NumberField.refine_to``, which reaches the cell of a given level in
one step: a Newton estimate of q picks it, and two exact signs of R at its
ends confirm it, or it bisects as far as that level.  A field is built at
the first level of width at most 1/``INITIAL_WIDTH`` = 1/10^12, by one such
step, and from then on q moves only on demand: once by the point order
(``base.order_points``), to the level its keys plan, and by ``settle``, up
a ladder that doubles q's level at each rung.

Every element is enclosed one way, by ``NumberField.enclosure``: two dot
products of its numerator with a table of bounds on the powers of q over
the current interval, in integers scaled by powers of two, built once per
interval.  The other layers read q's interval only as the enclosure of q.
Every value is decided one way, by ``NumberField.settle``: q climbs its
ladder until a monotone step function (the sign, the rounding to some
decimal places, the nearest double) agrees on both ends of the enclosure.
That ends unless the value sits on a step.  So a sign
(``NumberField.sign``) is exact on a constant numerator and otherwise
settles on a numerator that is nonzero at q, as one that vanishes at q but
not modulo R has enclosures that straddle 0 forever.  While m_q is not
certified that is the element's own numerator when the field's coprimality
test (``coprime``) passes: a numerator whose gcd with R modulo the large
prime ``LARGE_PRIME`` is 1 is nonzero at every root of R, so most signs
settle without factoring R.  Otherwise it is the numerator reduced modulo
m_q, where a zero remainder means the element is 0, with an exact
enclosure, and a nonzero one, of degree below m_q, does not vanish at q.
Decimals and floats settle on the reduced element, which is irrational
unless its numerator is constant, and then its enclosure is exact.

Everything is computed in ints, and floats for estimates; a decimal rounds
half to even in integer division.  ``fractions`` is imported only where an
element is compared with, or made from, something other than an int or an
element, where an element with a constant numerator and a denominator above
1 is hashed as its Fraction, and for the Fraction endpoints
``NumberField.lo`` and ``NumberField.hi``: no command does any of these, so
no command loads it.
"""

from __future__ import annotations

import functools
import math
import operator

from .digits import EpSeq, format_seq, is_greedy_beta


# the reciprocal of the width of the isolating interval of q when a field is
# built; every sign, decimal and float refines it further as far as it needs
# (``settle``)
INITIAL_WIDTH = 10**12


class DegenerateInputError(ValueError):
    """The polynomial does not isolate one root in the bracket [1, M+1], or
    the minimal polynomial of that root could not be certified."""


# --- integer polynomials as little-endian coefficient tuples --------------

def poly_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def poly_add(p, r):
    n = max(len(p), len(r))
    return poly_trim(tuple((p[i] if i < len(p) else 0) + (r[i] if i < len(r) else 0) for i in range(n)))


def poly_neg(p):
    return tuple(-c for c in p)


def poly_sub(p, r):
    return poly_add(p, poly_neg(r))


def poly_mul(p, r):
    if not p or not r:
        return ()
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(r):
                out[i + j] += a * b
    return poly_trim(out)


def _pseudo_divmod(p, r):
    """Pseudo-division over Z: ``l^k p = quo r + rem`` with l the leading
    coefficient of r and k = len(p) - len(r) + 1, at a cost of len(p) times
    the number of nonzero terms of r when r is monic."""
    lead, n = r[-1], len(r) - 1
    # the leading term cancels p[i + n], which is never read again
    terms = [(j, rj) for j, rj in enumerate(r[:-1]) if rj]
    p = list(p)
    quo = [0] * (len(p) - n)
    for i in range(len(p) - 1 - n, -1, -1):
        c = p[i + n]
        if lead != 1:
            p = [x * lead for x in p]
            quo = [x * lead for x in quo]
        quo[i] = c
        if c:
            for j, rj in terms:
                p[i + j] -= c * rj
    return quo, poly_trim(p[:n])


def _low_terms(r):
    """The nonzero terms ``(j, r_j)`` of a monic r below its leading one."""
    return tuple((j, c) for j, c in enumerate(r[:-1]) if c)


def _monic_rem(p, terms, n):
    """The remainder of the integer polynomial p, a list of length n or more,
    modulo the monic polynomial of degree n whose lower nonzero terms are
    ``terms`` (``_low_terms``), as a list of length n; p is reduced in place."""
    for i in range(len(p) - 1, n - 1, -1):
        c = p[i]
        if c:
            for j, rj in terms:
                p[i - n + j] -= c * rj
    del p[n:]
    return p


def _dyadic_eval(p, n, e):
    """``2^(e deg p) * p(n / 2^e)`` exactly, for an integer polynomial p."""
    acc = 0
    for k, c in enumerate(reversed(p)):
        acc = acc * n + (c << (e * k))
    return acc


def _sign(x):
    return (x > 0) - (x < 0)


def _round_half_even(n, d):
    """n / d rounded to the nearest int, ties to even, for d > 0."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


def _to_float(n, d):
    """n / d as the nearest float, or an infinity of its sign beyond the
    float range, for d > 0."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


# --- estimates of the root ----------------------------------------------------
#
# Newton's method runs on h(y) = y^d R(1/y), whose root is 1/q: every power of
# y < 1 stays in range, and h's coefficients are R's read from the constant
# term up.  An estimate only chooses a cell; two exact signs confirm it.

def _float_root(R, x_lo, x_hi, s_lo):
    """1/q as a float, for the one root q of R in [x_lo, x_hi], 1 <= x_lo,
    where R has the sign s_lo left of q: Newton's method on h, kept inside
    the bracket [1/x_hi, 1/x_lo] by bisection wherever it would leave it."""
    a, b = 1 / x_hi, 1 / x_lo
    y = (a + b) / 2
    for _ in range(64):
        h = dh = 0.0
        for c in R:
            dh = dh * y + h
            h = h * y + c
        if not h:
            break
        if _sign(h) == s_lo:        # h has R's sign at 1/y: y is past 1/q
            b = y
        else:
            a = y
        step = y - h / dh if dh else a
        step = step if a < step < b else (a + b) / 2
        if abs(step - y) <= 1e-15 * y:
            return step
        y = step
    return y


def _newton_step(R, Y, p):
    """One Newton step on h at y = Y / 2^p, in fixed point at precision p."""
    h = dh = 0
    for c in R:
        dh = (dh * Y >> p) + h
        h = (h * Y >> p) + (c << p)
    return Y - (h << p) // dh if dh else Y


def _root_estimate(R, x_lo, x_hi, s_lo, e):
    """An integer near q * 2^e: the float root, then one fixed-point Newton
    step at each precision of a ladder that about doubles up to e + 64, so
    that an estimate misses the cell of q only when q is within about
    2^-(e+64) of the cell's end."""
    ladder = [e + 64]
    while ladder[-1] > 48:
        ladder.append(ladder[-1] // 2 + 8)
    p = ladder.pop()
    Y = int(math.ldexp(_float_root(R, x_lo, x_hi, s_lo), p))
    for p_next in reversed(ladder):
        Y, p = _newton_step(R, Y << (p_next - p), p_next), p_next
    return (1 << (p + e)) // max(Y, 1)


# --- polynomials modulo a prime ---------------------------------------------

LARGE_PRIME = (1 << 61) - 1


def _mod(a, m):
    return poly_trim([c % m for c in a])


def _divmod(a, b, m):
    """Quotient and remainder of a by b modulo m; b's leading coefficient
    must be invertible modulo m."""
    n = len(b) - 1
    inv = pow(b[-1], -1, m)
    low = b[:-1]
    a = list(a)
    quo = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] * inv % m
        quo[i - n] = c
        if c:
            a[i - n:i] = [x - c * y for x, y in zip(a[i - n:i], low)]
    return poly_trim(quo), _mod(a[:n], m)


def _gcd(a, b, m):
    """Monic gcd modulo a prime m."""
    while b:
        a, b = b, _divmod(a, b, m)[1]
    inv = pow(a[-1], -1, m)
    return tuple(c * inv % m for c in a)


def coprime(p, R):
    """Whether the integer polynomial p is proved coprime to the monic R: their
    gcd modulo ``LARGE_PRIME`` is 1.  R is monic, so a common factor over Q
    survives the reduction; then p is nonzero at every root of R.  False
    proves nothing."""
    return len(_gcd(_mod(R, LARGE_PRIME), _mod(p, LARGE_PRIME), LARGE_PRIME)) == 1


class NumberField:
    """Q(q), computed in Z[t]/(R) for a monic integer polynomial R of which q
    is a simple root and the only root in the dyadic isolating interval
    [n_lo, n_hi] / 2^e, 0 < n_lo.  R need not be squarefree: its other roots
    play no part (see the module docstring).

    R is the working polynomial ``working_poly``, of degree ``deg``; the
    minimal polynomial ``min_poly`` of q divides it and is certified, once,
    on first use (see the module docstring for what uses it).  Elements are
    int tuples of length ``deg + 1`` (numerators, then the denominator).
    Once the field is built, the isolating interval is narrowed in place
    only by ``refine_to``, on demand: up the ladder of ``settle`` (signs,
    decimals, floats) and to the point order's planned level.  It only ever
    shrinks, so previously returned answers stay valid.  ``enclosure``
    keeps the interval's power table, keyed by its level e.  Share a field
    between threads only if refinement, enclosure and certification are
    serialized (clone per thread otherwise).
    """

    def __init__(self, working_poly, n_lo, n_hi, e):
        working_poly = poly_trim(working_poly)
        assert working_poly[-1] == 1 and len(working_poly) >= 2
        assert 0 < n_lo <= n_hi
        self.working_poly = working_poly
        self.deg = len(working_poly) - 1
        self._low = working_poly[:-1]
        self._terms = _low_terms(working_poly)
        self.n_lo, self.n_hi, self.e = n_lo, n_hi, e
        self._slo = _sign(_dyadic_eval(working_poly, n_lo, e)) if n_lo != n_hi else 0
        self._cyc_inv = {}
        self._table = (None, (), ())

    @functools.cached_property
    def min_poly(self):
        """The minimal polynomial of q: the irreducible factor of the working
        polynomial that vanishes at q, found by factoring it on first use."""
        R = self.working_poly
        if self.deg == 1:
            return R
        from .minpoly import minimal_factor     # minpoly builds on this module's helpers

        return minimal_factor(R, self.n_lo, self.n_hi, self.e)

    @functools.cached_property
    def _min_terms(self):
        return _low_terms(self.min_poly)

    @functools.cached_property
    def reducible(self):
        """Whether the working polynomial has factors besides ``min_poly``."""
        return len(self.min_poly) < len(self.working_poly)

    def reduce(self, a):
        """The canonical form of ``a``: its numerator modulo ``min_poly``.  Two
        elements are equal at q exactly when their canonical forms are equal.
        ``a`` itself when the working polynomial is the minimal polynomial, and
        when the numerator has degree at most 1, with no factoring: q is an
        algebraic integer, so deg m_q = 1 only for an integer q, whose working
        polynomial is linear already (``k(0)`` for k <= M, ``(M)`` for M + 1);
        otherwise deg m_q >= 2 and such a numerator is its own remainder."""
        if not any(a[2:-1]) or not self.reducible:
            return a
        rem = _monic_rem(list(a[:-1]), self._min_terms, len(self.min_poly) - 1)
        return self.element(rem + [0] * (self.deg - len(rem)), a[-1])

    @property
    def lo(self):
        from fractions import Fraction
        return Fraction(self.n_lo, 1 << self.e)

    @property
    def hi(self):
        from fractions import Fraction
        return Fraction(self.n_hi, 1 << self.e)

    # elements -------------------------------------------------------------

    def element(self, nums, den):
        """The element ``sum(nums[i] q^i) / den`` for ints, den != 0."""
        if den < 0:
            nums, den = [-c for c in nums], -den
        g = math.gcd(den, *nums)
        if g != 1:
            return tuple(c // g for c in nums) + (den // g,)
        return tuple(nums) + (den,)

    def zero(self):
        return (0,) * self.deg + (1,)

    def one(self):
        return self.rational(1)

    def rational(self, r):
        if not isinstance(r, int):
            from fractions import Fraction
            r = Fraction(r)
            return (r.numerator,) + (0,) * (self.deg - 1) + (r.denominator,)
        return (r,) + (0,) * (self.deg - 1) + (1,)

    def gen(self):
        """The generator q as a field element."""
        return self.mul_gen(self.one())

    def add(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            return self.element([x + y for x, y in zip(a[:-1], b)], da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return self.element([x * fa + y * fb for x, y in zip(a[:-1], b)], da * fa)

    def add_int(self, a, k):
        """a + k for an integer k; the result needs no reduction."""
        return (a[0] + k * a[-1],) + a[1:]

    def sub(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            return self.element([x - y for x, y in zip(a[:-1], b)], da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return self.element([x * fa - y * fb for x, y in zip(a[:-1], b)], da * fa)

    def mul_int(self, a, k):
        """k * a for an integer k; the result needs no reduction."""
        return self.element([k * x for x in a[:-1]], a[-1])

    def neg(self, a):
        return tuple(-x for x in a[:-1]) + (a[-1],)

    def mul(self, a, b):
        d = self.deg
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a[:-1]):
            if x:
                for j, y in enumerate(b[:-1]):
                    prod[i + j] += x * y
        return self.element(_monic_rem(prod, self._terms, d), a[-1] * b[-1])

    def mul_gen(self, a):
        """q * a: a shift, then one reduction by the monic working polynomial R."""
        c = a[-2]
        nums = (0,) + a[:-2]
        if c:
            nums = [x - c * m for x, m in zip(nums, self._low)]
        if a[-1] == 1:
            return tuple(nums) + (1,)
        return self.element(nums, a[-1])

    def div_gen(self, a):
        """a / q: one step with the constant term r_0 of the working polynomial,
        from 1/q = -(r_1 + r_2 q + ... + q^(d-1)) / r_0."""
        c = a[0]
        if not c:
            return a[1:-1] + (0, a[-1])
        r0 = self._low[0]
        nums = [x * r0 - c * r for x, r in zip(a[1:-1] + (0,), self.working_poly[1:])]
        return self.element(nums, a[-1] * r0)

    def inv(self, a):
        """Multiplicative inverse by the extended Euclidean algorithm over Q[t],
        against the working polynomial.  A zero divisor of Z[t]/(R), where
        that Euclid ends at a nonconstant gcd, is reduced and inverted
        against ``min_poly`` instead.
        """
        if not any(a[:-1]):
            raise ZeroDivisionError("inverse of zero field element")
        out = self._inv_modulo(self.working_poly, a)
        if out is None:
            a = self.reduce(a)
            if not any(a[:-1]):
                raise ZeroDivisionError("inverse of a field element that is zero at q")
            out = self._inv_modulo(self.min_poly, a)
        return out

    def _inv_modulo(self, modulus, a):
        """1/a from Euclid on the numerator of a and a monic divisor ``modulus``
        of the working polynomial; None when their gcd is not 1.

        Each remainder is an integer polynomial over one denominator (the
        quotients come from pseudo-division); each cofactor s is a field
        element with remainder = s * a modulo ``modulus``.
        """
        r0, d0 = modulus, 1
        r1, d1 = poly_trim(a[:-1]), a[-1]
        s0, s1 = self.zero(), self.one()
        while len(r1) > 1:
            quo, rem = _pseudo_divmod(r0, r1)
            f = r1[-1] ** (len(r0) - len(r1) + 1) * d0
            # r0/d0 = (quo d1 / f) (r1/d1) + rem / f
            quo_elem = self.element([c * d1 for c in quo] + [0] * (self.deg - len(quo)), f)
            s0, s1 = s1, self.sub(s0, self.mul(quo_elem, s1))
            g = math.gcd(f, *rem)
            r0, d0, r1, d1 = r1, d1, tuple(c // g for c in rem), f // g
        if not r1:
            return None
        # a * s1 = r1[0] / d1
        return self.element([c * d1 for c in s1[:-1]], s1[-1] * r1[0])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_gen(self, n):
        """q**n as a field element (n >= 0)."""
        out = self.one()
        for _ in range(n):
            out = self.mul_gen(out)
        return out

    def cyc_inv(self, p):
        """1 / (q^p - 1), cached per period length p."""
        out = self._cyc_inv.get(p)
        if out is None:
            out = self._cyc_inv[p] = self.inv(self.add_int(self.pow_gen(p), -1))
        return out

    # sign and approximation ------------------------------------------------

    def refine_to(self, e):
        """Narrow the interval to the cell that e bisections of the bracket
        reach, or to the point where a midpoint on the way is q, in one step:
        the one way q moves once a field is built.

        The cells of level e inside the current one have its width over 2^e,
        on the grid from its left end.  A Newton estimate of q picks one, and
        two exact signs of R at its ends confirm it: a sign change there puts
        q, the one root in the interval, strictly inside, and so at no grid
        point of any level up to e.  Otherwise, an end being q or the
        estimate missing, it bisects on the sign of R at each midpoint as
        far as level e."""
        if e <= self.e or self.n_lo == self.n_hi:
            return
        R, width, shift = self.working_poly, self.n_hi - self.n_lo, e - self.e
        lo = self.n_lo << shift
        x = _root_estimate(R, self.n_lo / (1 << self.e), self.n_hi / (1 << self.e), self._slo, e)
        a = lo + width * min(max((x - lo) // width, 0), (1 << shift) - 1)
        if (_sign(_dyadic_eval(R, a, e)) == self._slo
                and _sign(_dyadic_eval(R, a + width, e)) == -self._slo):
            self.n_lo, self.n_hi, self.e = a, a + width, e
            return
        while self.e < e and self.n_lo != self.n_hi:
            mid, self.e = self.n_lo + self.n_hi, self.e + 1
            sm = _sign(_dyadic_eval(R, mid, self.e))
            if sm == 0:
                self.n_lo = self.n_hi = mid
            elif sm == self._slo:
                self.n_lo, self.n_hi = mid, self.n_hi << 1
            else:
                self.n_lo, self.n_hi = self.n_lo << 1, mid

    def enclosure(self, a):
        """Bounds ``(lo, hi, D)`` with the value of ``a`` in [lo/D, hi/D], read
        off the power table of the current isolating interval [x_lo, x_hi]
        (no refinement): the floor of x_lo^k 2^P and the ceiling of
        x_hi^k 2^P for k < deg, P = e + 64, each rounded from the last, so
        that both stay bounds on q^k 2^P.  With s_k and g_k their sum and
        their gap, 2^(P+1) times a numerator sum(c_k q^k) lies in
        sum(c_k s_k) -+ sum(|c_k| g_k): exact for a constant numerator, and
        exactly [x_lo, x_hi] for q when deg > 1.  The table is built on first
        use and kept until q moves; every move raises e, which keys it."""
        e, sums, gaps = self._table
        if e != self.e:
            n_lo, n_hi, e = self.n_lo, self.n_hi, self.e
            lows, highs = [1 << (e + 64)], [1 << (e + 64)]
            for _ in range(self.deg - 1):
                lows.append(lows[-1] * n_lo >> e)
                highs.append(-(-highs[-1] * n_hi >> e))
            sums = list(map(operator.add, lows, highs))
            gaps = list(map(operator.sub, highs, lows))
            self._table = e, sums, gaps
        mid = sum(map(operator.mul, a, sums))
        rad = sum(map(operator.mul, map(abs, a), gaps))
        return mid - rad, mid + rad, a[-1] << (e + 65)

    def settle(self, a, f):
        """``f(n, D)`` for the value n/D of ``a``: while ``f`` disagrees on the
        two ends of the ``enclosure`` of ``a``, q climbs one rung of a
        doubling ladder, one ``refine_to`` to twice its level (level 0 goes
        to 1), and ``a`` is enclosed on the rung's new power table.  For a
        monotone step function ``f`` the answer holds on the whole
        enclosure, hence at q.  It ends unless the value of ``a`` sits on a
        step of ``f``: the steps of sign, rounding and float conversion lie
        at rationals, and a canonical element (``reduce``) is rational only
        with a constant numerator, whose enclosure is exact.  So every caller
        passes a canonical element, or to a sign a numerator nonzero at q:
        on one that vanishes at q the ladder would double q's level, and the
        size of every table, without end."""
        while True:
            vlo, vhi, D = self.enclosure(a)
            out = f(vlo, D)
            if vlo == vhi or f(vhi, D) == out:
                return out
            self.refine_to(2 * self.e or 1)

    def sign(self, a):
        """The sign of ``a``: exact for a constant numerator, else ``settle`` on
        a numerator nonzero at q (0 is a step of sign).  That is ``a``'s own
        while m_q is not yet certified and ``coprime`` proves it coprime to the
        working polynomial, else ``reduce(a)``, which is 0 only for 0."""
        if not any(a[1:-1]):
            return _sign(a[0])
        if "min_poly" in vars(self) or not coprime(a[:-1], self.working_poly):
            a = self.reduce(a)
        return self.settle(a, lambda n, D: _sign(n))

    def decimal(self, a, places=12):
        """The value of ``a`` to ``places`` decimals, correctly rounded half to
        even."""
        scale = 10**places
        n = self.settle(self.reduce(a), lambda n, D: _round_half_even(n * scale, D))
        sign = "-" if n < 0 else ""
        n = abs(n)
        return f"{sign}{n // scale}.{n % scale:0{places}d}"


class AlgebraicReal:
    """An element of Q(q), carried as a field element over its field.

    Supports exact ring arithmetic, exact division, and exact comparison,
    with ints and Fractions too; hashing is structural on the reduced
    element tuple (``NumberField.reduce``), or on its Fraction when that
    tuple is constant, so these values serve directly as memoization keys
    and hash as an equal int or Fraction.  Equality compares the raw tuples
    first and, only when they differ, decides by the sign of the
    difference, which certifies the field only when that sign does
    (``NumberField.sign``).
    """

    __slots__ = ("field", "elem")

    def __init__(self, field, elem):
        self.field = field
        self.elem = elem

    def _lift(self, other):
        if isinstance(other, AlgebraicReal):
            if other.field is not self.field:
                raise ValueError("mixed field contexts")
            return other
        return AlgebraicReal(self.field, self.field.rational(other))

    def __add__(self, other):
        if isinstance(other, int):
            return AlgebraicReal(self.field, self.field.add_int(self.elem, other))
        other = self._lift(other)
        return AlgebraicReal(self.field, self.field.add(self.elem, other.elem))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return AlgebraicReal(self.field, self.field.add_int(self.elem, -other))
        other = self._lift(other)
        return AlgebraicReal(self.field, self.field.sub(self.elem, other.elem))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraicReal(self.field, self.field.mul_int(self.elem, other))
        other = self._lift(other)
        return AlgebraicReal(self.field, self.field.mul(self.elem, other.elem))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return AlgebraicReal(self.field, self.field.div(self.elem, other.elem))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return AlgebraicReal(self.field, self.field.neg(self.elem))

    def mul_gen(self):
        """q * self."""
        return AlgebraicReal(self.field, self.field.mul_gen(self.elem))

    def sign(self):
        return self.field.sign(self.elem)

    def cmp(self, other):
        return (self - other).sign()

    def __eq__(self, other):
        if not isinstance(other, AlgebraicReal):
            if not isinstance(other, int):
                from fractions import Fraction
                if not isinstance(other, Fraction):
                    return NotImplemented
            other = self._lift(other)
        return self.field is other.field and (self.elem == other.elem
                                              or self.cmp(other) == 0)

    def __hash__(self):
        a = self.field.reduce(self.elem)
        if any(a[1:-1]):
            return hash(a)
        if a[-1] == 1:
            return hash(a[0])
        from fractions import Fraction
        return hash(Fraction(a[0], a[-1]))

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __float__(self):
        """The nearest double: int division rounds correctly, and rounding is
        monotone."""
        return self.field.settle(self.field.reduce(self.elem), int.__truediv__)

    def __repr__(self):
        """The midpoint and half-width of the value's ``enclosure`` on the
        current interval of q, which printing never refines; an end past
        the float range prints as an infinity."""
        lo, hi, D = self.field.enclosure(self.elem)
        return f"<{_to_float(lo + hi, 2 * D):.12g} +/- {_to_float(hi - lo, 2 * D):.1e}>"

    def decimal(self, places=12):
        return self.field.decimal(self.elem, places)

    def as_fraction(self):
        """(integer numerator polynomial, positive integer denominator) of the
        reduced element."""
        a = self.field.reduce(self.elem)
        return poly_trim(a[:-1]), a[-1]

    def to_json(self):
        num, den = self.as_fraction()
        return {"num": list(num) or [0], "den": [den], "approx": self.decimal(12)}


def apply_digit_map(x, k):
    """The affine digit-consumption map x -> q*x - k."""
    return x.mul_gen() - k


def base_polynomial(M, beta):
    """Integer polynomial with the base as its unique root in (1, M+1].

    For a finite greedy expansion ``d1..dK`` this is
    ``t^K - d1 t^(K-1) - ... - dK``; for ``w(p)`` it is the defining relation
    cleared of denominators, which does not vanish at t = 1.  This
    is where an input expansion is validated: ValueError unless it is a
    greedy expansion of 1 over 0..M of a base above 1.
    """
    if not is_greedy_beta(M, beta):
        raise ValueError(f"{format_seq(beta)} is not a greedy expansion of 1 over 0..{M}")
    if beta == EpSeq((1,), (0,)):
        raise ValueError("greedy expansion 1(0) means base 1, which is outside every construction")
    if beta.is_finite():
        w = beta.finite_word()
        return poly_trim(tuple(-d for d in reversed(w)) + (1,))
    w, p = beta.pre, beta.per
    W = tuple(reversed(w))          # digit polynomial of the preperiod
    P = tuple(reversed(p))          # digit polynomial of the period
    tw = (0,) * len(w) + (1,)       # t^|w|
    cyc = (-1,) + (0,) * (len(p) - 1) + (1,)        # t^|p| - 1
    # t^|w| (t^|p| - 1) = W (t^|p| - 1) + P, cleared and monic; at t = 1 it
    # is minus the digit sum of the period, which is not 0
    return poly_sub(poly_mul(poly_sub(tw, W), cyc), P)


def _stretch(a, s):
    """a(t^s)."""
    out = [0] * ((len(a) - 1) * s + 1)
    out[::s] = a
    return tuple(out)


def _cyclotomic(k):
    """Phi_k, exactly: Phi_1 = t - 1, Phi_mp(t) = Phi_m(t^p) / Phi_m(t) for
    each prime p of the radical m of k, then t -> t^(k/m)."""
    phi, m, n, p = (-1, 1), 1, k, 2
    while n > 1:
        if p * p > n:
            p = n                                # what is left is prime
        if n % p == 0:
            phi, m = _pseudo_divmod(_stretch(phi, p), phi)[0], m * p
            while n % p == 0:
                n //= p
        p += 1
    return _stretch(phi, k // m)


def working_polynomial(P):
    """The monic P less each cyclotomic factor Phi_k, k | deg P, as often as
    it divides P exactly (see the module docstring)."""
    L, R = len(P) - 1, P
    for k in range(1, L + 1):
        if L % k:
            continue
        phi = _cyclotomic(k)
        # Phi_k divides t^k - 1, so R is Phi_k times a polynomial exactly when
        # R folded modulo t^k - 1 is
        while len(R) > 1 and not _pseudo_divmod([sum(R[j::k]) for j in range(k)], phi)[1]:
            R = tuple(_pseudo_divmod(R, phi)[0])
    return R


def field_for_base(P, M):
    """NumberField for the base whose defining polynomial ``P``
    (``base_polynomial``) has it as its one root in (1, M+1], built on the
    working polynomial R of P and narrowed from the bracket [1, M+1], by one
    ``refine_to``, to the first bisection level of width at most
    1/``INITIAL_WIDTH``; nothing is factored.  R changes sign over the
    bracket (see the module docstring).  A root at its end, q = M + 1,
    starts as the point [M+1, M+1], which bisection never reaches.  DegenerateInputError for a P that vanishes at 1 (checked on P:
    the strip takes t - 1 out of R) or whose R keeps one sign over the
    bracket, a constant P among them."""
    if not sum(P):
        raise DegenerateInputError("polynomial vanishes at 1")
    R = working_polynomial(P)
    top = _sign(_dyadic_eval(R, M + 1, 0))
    if _sign(_dyadic_eval(R, 1, 0)) == top:
        raise DegenerateInputError(f"polynomial does not change sign over [1, {M + 1}]")
    field = NumberField(R, 1 if top else M + 1, M + 1, 0)
    # the least level whose cells, of width M / 2^e, are at most 1/INITIAL_WIDTH
    field.refine_to((M * INITIAL_WIDTH - 1).bit_length())
    return field


def value_of_sequence(field, s):
    """Exact value ``sum(s_i / q^i)`` of an eventually periodic digit sequence.

    The periodic tail is worth P(q) / (q^p - 1), with P the digit polynomial
    of the period and p its length; the zero tail needs no inverse.  The
    preperiod digits are then taken in front of the tail from the last one
    back, by Horner's rule with division by q.
    """
    v = field.zero()
    if any(s.per):
        for d in s.per:
            v = field.add_int(field.mul_gen(v), d)
        v = field.mul(v, field.cyc_inv(len(s.per)))
    for d in reversed(s.pre):
        v = field.div_gen(field.add_int(v, d))
    return AlgebraicReal(field, v)
