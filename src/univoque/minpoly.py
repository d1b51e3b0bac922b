"""The minimal polynomial of a base.

The field of a base q is built on its working polynomial R
(``algebraic.working_polynomial``), a monic integer polynomial that may be
reducible; q is a simple root of exactly one of its monic irreducible
factors, m_q.  ``minimal_factor`` finds that factor, and runs only when the
field certifies its minimal polynomial on demand
(``algebraic.NumberField.min_poly``): ``minpoly`` is imported only to
certify m_q.

1. Squarefree part.  R need not be squarefree, and step 2 needs a
   squarefree polynomial.  If R' is coprime to R (``algebraic.coprime``:
   their gcd modulo a large prime is 1), R is squarefree (the common case);
   otherwise the exact gcd, from a primitive PRS, is divided out.
2. Factorization (Zassenhaus 1969).  Modulo the first small prime that
   keeps that squarefree part squarefree, distinct-degree factorization and
   Cantor-Zassenhaus split it into its modular factors.  These are
   Hensel-lifted modulo p^k > 2 x the Landau-Mignotte bound and recombined
   in subsets of increasing size, up to half of them, each candidate
   checked by exact trial division; what is left is irreducible.  One
   modular factor means it is irreducible and nothing is recombined.  At
   most ``RECOMBINATION_CAP`` subsets are tried.
3. The one irreducible factor that changes sign over the isolating interval
   of q, or vanishes at it if refinement has met q exactly.

Polynomials are little-endian int tuples, as in ``algebraic``, whose
arithmetic modulo a prime this module extends; modulo m their coefficients
lie in [0, m).
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from .algebraic import (DegenerateInputError, _divmod, _dyadic_eval, _gcd, _mod, _pseudo_divmod,
                        _sign, coprime, poly_add, poly_sub, poly_trim)

RECOMBINATION_CAP = 20_000
_SMALL_PRIMES = [p for p in range(3, 1000, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


# --- polynomials modulo m ----------------------------------------------------

def _symmetric(a, m):
    """The integer polynomial with coefficients in (-m/2, m/2] congruent to a."""
    return tuple(c - m if 2 * c > m else c for c in a)


def _add(a, b, m):
    return _mod(poly_add(a, b), m)


def _sub(a, b, m):
    return _mod(poly_sub(a, b), m)


def _mul(a, b, m):
    """a * b modulo m, with one big-integer product (Kronecker substitution)."""
    if not a or not b:
        return ()
    size = (2 * m.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    x = int.from_bytes(b"".join(c.to_bytes(size, "little") for c in a), "little")
    y = int.from_bytes(b"".join(c.to_bytes(size, "little") for c in b), "little")
    raw = (x * y).to_bytes(size * (len(a) + len(b)), "little")
    return poly_trim([int.from_bytes(raw[i:i + size], "little") % m
                      for i in range(0, size * (len(a) + len(b) - 1), size)])


def _xgcd(a, b, m):
    """(s, t) with s a + t b = 1 modulo a prime m, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, (1,), (), (), (1,)
    while r1:
        q, r = _divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, m), m)
        t0, t1 = t1, _sub(t0, _mul(q, t1, m), m)
    inv = pow(r0[0], -1, m)
    return tuple(c * inv % m for c in s0), tuple(c * inv % m for c in t0)


def _powmod(a, k, f, m):
    """a^k modulo f and m, by repeated squaring."""
    out = (1,)
    for bit in bin(k)[2:]:
        out = _divmod(_mul(out, out, m), f, m)[1]
        if bit == "1":
            out = _divmod(_mul(out, a, m), f, m)[1]
    return out


# --- step 1: squarefree part ------------------------------------------------

def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    c = math.gcd(*a) * _sign(a[-1])
    return tuple(x // c for x in a)


def _squarefree_part(P):
    dP = poly_trim([k * c for k, c in enumerate(P)][1:])
    if coprime(dP, P):
        return P
    a, b = _primitive(P), _primitive(dP)     # primitive PRS
    while len(b) > 1:
        _quo, rem = _pseudo_divmod(a, b)
        if not rem:
            break
        a, b = b, _primitive(rem)
    if len(b) == 1:
        return P
    # b is a primitive divisor of the monic P, hence monic: exact division
    quo, rem = _pseudo_divmod(P, b)
    assert not rem, "gcd(P, P') does not divide P"
    return poly_trim(quo)


# --- step 2: Zassenhaus ----------------------------------------------------

def _ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f modulo p: the
    pairs (i, product of the irreducible factors of degree i)."""
    out = []
    h, i = (0, 1), 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        h = _powmod(h, p, f, p)                  # t^(p^i) mod f
        g = _gcd(f, _sub(h, (0, 1), p), p)
        if len(g) > 1:
            out.append((i, g))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _edf(g, i, p, rng):
    """Cantor-Zassenhaus: the monic irreducible factors of g modulo an odd p,
    where g is a product of distinct irreducibles of degree i."""
    if len(g) - 1 == i:
        return [g]
    k = (p**i - 1) // 2
    while True:
        a = poly_trim([rng.randrange(p) for _ in range(len(g) - 1)])
        d = _gcd(g, _sub(_powmod(a, k, g, p), (1,), p), p)
        if 1 < len(d) < len(g):
            return _edf(d, i, p, rng) + _edf(_divmod(g, d, p)[0], i, p, rng)


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 modulo m (h monic) to the same modulo
    m^2 (von zur Gathen and Gerhard, Algorithm 15.10)."""
    m2 = m * m
    e = _sub(f, _mul(g, h, m2), m2)
    q, r = _divmod(_mul(s, e, m2), h, m2)
    g = _add(g, _add(_mul(t, e, m2), _mul(q, g, m2), m2), m2)
    h = _add(h, r, m2)
    b = _sub(_add(_mul(s, g, m2), _mul(t, h, m2), m2), (1,), m2)
    c, d = _divmod(_mul(s, b, m2), h, m2)
    s = _sub(s, d, m2)
    t = _sub(t, _add(_mul(t, b, m2), _mul(c, g, m2), m2), m2)
    return g, h, s, t


def hensel_lift(f, factors, p, k):
    """Monic factors modulo p^(2^k) of the monic f, lifted from its monic
    pairwise coprime factors modulo p, in the same order."""
    if len(factors) == 1:
        return [_mod(f, p ** (1 << k))]
    half = len(factors) // 2
    g, h = (1,), (1,)
    for a in factors[:half]:
        g = _mul(g, a, p)
    for a in factors[half:]:
        h = _mul(h, a, p)
    s, t = _xgcd(g, h, p)
    m = p
    for _ in range(k):
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return hensel_lift(g, factors[:half], p, k) + hensel_lift(h, factors[half:], p, k)


def _zassenhaus(R, p, ddf):
    """The monic irreducible factors of R over Z, from its distinct-degree
    factorization modulo p."""
    rng = random.Random(0)
    modular = [f for i, g in ddf for f in _edf(g, i, p, rng)]
    bound = 2 * ((math.isqrt(sum(c * c for c in R)) + 1) << (len(R) - 1))
    k = 0
    while p ** (1 << k) <= bound:
        k += 1
    m = p ** (1 << k)
    lifted = hensel_lift(R, modular, p, k)
    found, tried, size = [], 0, 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            tried += 1
            if tried > RECOMBINATION_CAP:
                raise DegenerateInputError(
                    f"factor recombination stopped after {RECOMBINATION_CAP} subsets "
                    f"of {len(lifted)} modular factors of a degree-{len(R) - 1} polynomial")
            c = 1
            for j in subset:
                c = c * lifted[j][0] % m
            c = _symmetric((c,), m)[0]
            if R[0] % c if c else R[0]:
                continue                          # constant terms must divide
            g = (1,)
            for j in subset:
                g = _mul(g, lifted[j], m)
            g = _symmetric(g, m)
            quo, rem = _pseudo_divmod(R, g)
            if not rem:
                found.append(g)
                R = poly_trim(quo)
                lifted = [f for j, f in enumerate(lifted) if j not in subset]
                break
        else:
            size += 1
    return found + [R]


def _factors(R):
    """The monic irreducible factors of the monic squarefree R."""
    for p in _SMALL_PRIMES:
        f = _mod(R, p)
        if len(_gcd(f, _mod([k * c for k, c in enumerate(f)][1:], p), p)) == 1:
            return _zassenhaus(R, p, _ddf(f, p))
    raise DegenerateInputError("no small prime keeps the polynomial squarefree")


def minimal_factor(R, n_lo, n_hi, e):
    """Steps 1 to 3: the monic irreducible factor of the monic R with a root
    in [n_lo, n_hi] / 2^e, an interval where R has one root, and a simple
    one.

    Exactly one irreducible factor changes sign over the interval, or
    vanishes at it when n_lo = n_hi; no root of R is an endpoint otherwise.
    """
    candidates = [f for f in _factors(_squarefree_part(R))
                  if _sign(_dyadic_eval(f, n_lo, e)) * _sign(_dyadic_eval(f, n_hi, e)) <= 0]
    if len(candidates) != 1:
        raise DegenerateInputError("could not isolate a unique irreducible factor")
    return candidates[0]
