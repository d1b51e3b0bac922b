"""Finite words and eventually periodic digit sequences.

Everything downstream (base classification, graph construction, expansion
counting) compares digit sequences lexicographically.  This module provides
the two carriers -- plain words as tuples of ints, and :class:`EpSeq` for
eventually periodic infinite sequences -- together with reflection, shifting,
the lexicographic admissibility predicates for greedy / quasi-greedy
sequences and for the base classes, and the follower automaton
:class:`LexAutomaton` of the two-sided tail conditions against alpha, which
the word oracle and the witness-tail search both run on.  The automaton
reads finite words; its admissible part ``LexAutomaton.admissible`` is the
successor map of its reachable states restricted to the alive states (weak)
or the good states (strict), found by one sinks-first pass of
``walk.alive``.  A periodic tail is decided once: the run that reads its
period checks every tail that starts inside it, digit by digit, and
``LexAutomaton.periodic_ok`` settles only the ties left at the period's
end, each one comparison with alpha or its reflection over the Fine-Wilf
window.  ``is_unique_expansion_seq`` decides the same conditions by the
window predicate ``_shifts_bounded`` alone, and the tests compare the two.

A sequence over the alphabet ``{0, ..., M}`` is *finite* if it has a last
nonzero digit (``EpSeq.is_finite``) and *infinite* otherwise; it is *doubly
infinite* if its digit-wise reflection ``c -> M - c`` is infinite as well.
``is_unique_expansion_seq`` decides unique expansions (UNIQUE) and unique
doubly infinite expansions (DOUBLY_INFINITE).  All predicates here decide
their condition over a finite window, which is sufficient because every
input is eventually periodic: past the longer preperiod, two sequences of
periods p and r that agree on p + r - gcd(p, r) digits agree forever (Fine
and Wilf 1965).  A comparison stops at the first digit that differs, and
unrolls prefixes of that length only when the heads ``pre + per`` cannot
decide it (``lex_cmp``); the shifted tails of a sequence are slices of one
unrolled prefix.
"""

from __future__ import annotations

import math
from enum import Enum

from .walk import alive, cyclic, explore, orbit

LT, EQ, GT = -1, 0, 1


class AlphabetError(ValueError):
    """A digit lies outside the ambient alphabet {0, ..., M}."""


class BaseClass(Enum):
    IN_U = "U"
    IN_CLOSURE_U_NOT_U = "closureU\\U"
    IN_V_NOT_CLOSURE_U = "V\\closureU"
    NOT_IN_V = "notInV"


def check_alphabet(digits, M):
    for d in digits:
        if not 0 <= d <= M:
            raise AlphabetError(f"digit {d} outside alphabet 0..{M}")


def word_reflect(w, M):
    check_alphabet(w, M)
    return tuple(M - d for d in w)


def word_plus(w, M):
    """Increment the last digit (requires it to be below M)."""
    if not w or w[-1] >= M:
        raise AlphabetError(f"cannot increment last digit of {w} within 0..{M}")
    return w[:-1] + (w[-1] + 1,)


def word_minus(w):
    """Decrement the last digit (requires it to be positive)."""
    if not w or w[-1] <= 0:
        raise AlphabetError(f"cannot decrement last digit of {w}")
    return w[:-1] + (w[-1] - 1,)


def _primitive(per):
    n = len(per)
    for p in range(1, n):
        if n % p == 0 and per == per[:p] * (n // p):
            return per[:p]
    return per


class EpSeq:
    """An eventually periodic sequence ``pre . (per)^inf`` in canonical form.

    Canonical means the period is primitive (not a power of a shorter word)
    and the preperiod is as short as possible: its last digit differs from
    the last digit of the period, so two EpSeq are equal as infinite
    sequences iff their (pre, per) pairs are identical.
    """

    __slots__ = ("pre", "per")

    def __init__(self, pre=(), per=(0,)):
        pre, per = tuple(pre), tuple(per)
        if not per:
            raise ValueError("period must be nonempty")
        if min(pre + per) < 0:
            raise ValueError("digits must be nonnegative")
        per = _primitive(per)
        if pre and pre[-1] == per[-1]:
            # the k trailing digits of pre that repeat the period backwards
            # move into it, which rotates the period right by k
            n, k = len(per), 0
            while k < len(pre) and pre[-1 - k] == per[-1 - k % n]:
                k += 1
            pre, per = pre[:len(pre) - k], per[n - k % n:] + per[:n - k % n]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    @classmethod
    def _canonical(cls, pre, per):
        """The EpSeq of a (pre, per) pair already in canonical form, built
        without the checks of ``__init__``."""
        s = object.__new__(cls)
        object.__setattr__(s, "pre", pre)
        object.__setattr__(s, "per", per)
        return s

    def __setattr__(self, *a):
        raise AttributeError("EpSeq is immutable")

    def __eq__(self, other):
        return isinstance(other, EpSeq) and self.pre == other.pre and self.per == other.per

    def __hash__(self):
        return hash((self.pre, self.per))

    def __repr__(self):
        return f"EpSeq({format_seq(self)!r})"

    def digit(self, i):
        """The digit at 0-based position ``i``; ValueError for a negative ``i``."""
        if i < 0:
            raise ValueError("digit position must be nonnegative")
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def is_zero(self):
        return not self.pre and self.per == (0,)

    def is_finite(self):
        """True if the sequence has a last nonzero digit."""
        return self.per == (0,) and bool(self.pre)

    def finite_word(self):
        """The digits up to the last nonzero one (requires a finite sequence)."""
        if not self.is_finite() and not self.is_zero():
            raise ValueError(f"{self!r} is not finite")
        return self.pre


ZERO = EpSeq((), (0,))


def reflect(s, M):
    """Digit-wise complement ``c -> M - c`` of a word or EpSeq.  The
    reflection of a canonical EpSeq is canonical: a period stays primitive,
    and two last digits that differ still differ."""
    if isinstance(s, EpSeq):
        return EpSeq._canonical(word_reflect(s.pre, M), word_reflect(s.per, M))
    return word_reflect(s, M)


def shift(s, n):
    """Drop the first ``n`` digits of an EpSeq.  The result is canonical: it
    keeps the end of the preperiod, or has none, and its period is a
    rotation of a primitive one."""
    if n < 0:
        raise ValueError("shift amount must be nonnegative")
    if n <= len(s.pre):
        return EpSeq._canonical(s.pre[n:], s.per)
    k = (n - len(s.pre)) % len(s.per)
    return EpSeq._canonical((), s.per[k:] + s.per[:k])


def prefix(s, n):
    """The first ``n`` digits of an EpSeq as a tuple."""
    return (s.pre + s.per * (n // len(s.per) + 1))[:n]


def _fine_wilf(p, r):
    """Fine and Wilf (1965): sequences of periods p and r that agree on
    p + r - gcd(p, r) digits agree forever."""
    return p + r - math.gcd(p, r)


def _window(a, b):
    """A prefix length that decides ``a`` against ``b``: past the longer
    preperiod both sequences are periodic, so ``_fine_wilf`` digits more
    decide them."""
    return max(len(a.pre), len(b.pre)) + _fine_wilf(len(a.per), len(b.per))


def common_prefixes(seqs):
    """Prefix tuples of the EpSeq ``seqs``, all of one length: the longest
    ``_window`` of any pair, so that comparing two prefixes as tuples
    compares their sequences, equality included."""
    periods = {len(s.per) for s in seqs}
    n = max(len(s.pre) for s in seqs) + max(_fine_wilf(p, r) for p in periods for r in periods)
    return [prefix(s, n) for s in seqs]


def lex_cmp(a, b):
    """Lexicographic comparison of two EpSeq; returns -1, 0 or 1.

    Decided at the first exit that applies: the first digits, when they
    differ; equality, when the canonical (pre, per) pairs are identical;
    the heads ``pre + per``, when they differ within the shorter one; and
    otherwise the prefixes over ``_window(a, b)``.  Each exit is exact: a
    head is a prefix of its sequence, so a difference inside both heads is
    the first difference, and the window decides any pair (Fine-Wilf).
    """
    x, y = (a.pre or a.per)[0], (b.pre or b.per)[0]
    if x != y:
        return LT if x < y else GT
    if a.pre == b.pre and a.per == b.per:
        return EQ
    u, v = a.pre + a.per, b.pre + b.per
    n = min(len(u), len(v))
    if u[:n] == v[:n]:
        n = _window(a, b)
        u, v = prefix(a, n), prefix(b, n)
    return (u > v) - (u < v)


def _shifts_bounded(s, bound, M, upper, lower, strict):
    """Whether the checked shifted tails of ``s`` stay below ``bound``.

    The tail after a digit below M is checked when ``upper`` holds, the
    reflection of the tail after a positive digit when ``lower`` holds; a
    checked tail fails above ``bound``, and at equality too when ``strict``.
    Positions 1..|pre|+|per| exhaust all distinct (digit, shifted tail) pairs.
    Every tail has the period of ``s`` and a preperiod no longer than that of
    ``s``, so one ``_window`` decides them all: ``s`` is unrolled once, and
    each tail is a slice of it (or of its reflection, in which the digit
    before a reflected tail is below M exactly when it was positive in ``s``).
    A tail whose first digit is below that of ``bound`` passes unsliced.
    """
    n = _window(s, bound)
    end = len(s.pre) + len(s.per)
    words = []
    if upper:
        words.append(prefix(s, end + n))
    if lower:
        words.append(prefix(reflect(s, M), end + n))
    cap = prefix(bound, n)
    top = cap[0]
    fails = tuple.__ge__ if strict else tuple.__gt__
    return not any(w[k - 1] < M and w[k] >= top and fails(w[k:k + n], cap)
                   for w in words for k in range(1, end + 1))


def is_greedy_beta(M, s):
    """True iff ``s`` is the greedy expansion of 1 in some base in (1, M+1].

    Characterization: every shifted tail after a digit below M is
    lexicographically smaller than the whole sequence.
    """
    check_alphabet(s.pre + s.per, M)
    return not s.is_zero() and _shifts_bounded(s, s, M, upper=True, lower=False, strict=True)


def is_quasigreedy_alpha(M, s):
    """True iff ``s`` is the quasi-greedy expansion of 1 in some base in [1, M+1].

    Weak form of the greedy condition; when it holds, the shifted-tail bound
    in fact holds at every position.
    """
    check_alphabet(s.pre + s.per, M)
    return not s.is_finite() and _shifts_bounded(s, s, M, upper=True, lower=False, strict=False)


def beta_from_alpha(M, alpha):
    """The greedy expansion of 1 for the base whose quasi-greedy expansion is ``alpha``.

    For a purely periodic alpha whose period ends below M the greedy
    expansion is the incremented period followed by zeros; otherwise the
    greedy expansion is infinite and equals alpha itself.
    """
    if not alpha.pre and alpha.per[-1] < M:
        return EpSeq(word_plus(alpha.per, M), (0,))
    return alpha


def alpha_from_beta(M, beta):
    """Quasi-greedy expansion of 1 derived from the greedy expansion ``beta``.

    A finite greedy expansion ``d1..dk`` resolves to the periodic sequence
    ``(d1..dk^-)^inf``; an infinite one is already quasi-greedy.
    """
    if beta.is_finite():
        return EpSeq((), word_minus(beta.finite_word()))
    return beta


def classify_alpha(M, s):
    """Classify the base with quasi-greedy expansion ``s`` (precondition:
    ``is_quasigreedy_alpha``).

    Returns the finest of: unique expansion of 1 (IN_U), limit of such bases
    (IN_CLOSURE_U_NOT_U), unique doubly infinite expansion only
    (IN_V_NOT_CLOSURE_U), or none of these (NOT_IN_V).  The first test runs
    on the greedy expansion, the other two on ``s`` itself.
    """
    if not is_quasigreedy_alpha(M, s):
        raise ValueError(f"{s!r} is not a quasi-greedy expansion over 0..{M}")
    if not _shifts_bounded(s, s, M, upper=False, lower=True, strict=False):
        return BaseClass.NOT_IN_V
    if not _shifts_bounded(s, s, M, upper=False, lower=True, strict=True):
        return BaseClass.IN_V_NOT_CLOSURE_U
    beta = beta_from_alpha(M, s)
    if _shifts_bounded(beta, beta, M, upper=False, lower=True, strict=True):
        return BaseClass.IN_U
    return BaseClass.IN_CLOSURE_U_NOT_U


UNIQUE = "UNIQUE"
DOUBLY_INFINITE = "DOUBLY_INFINITE"


def strict_mode(mode, strict, weak):
    """Whether ``mode`` names the strict of two modes; ValueError for any other name."""
    if mode not in (strict, weak):
        raise ValueError(f"unknown mode {mode!r}, expected {strict!r} or {weak!r}")
    return mode == strict


def is_unique_expansion_seq(ctx_alpha, c, M, mode=UNIQUE):
    """Membership test for a digit sequence against the bound ``ctx_alpha``.

    UNIQUE mode decides whether ``c`` is the unique expansion of its value
    (strict inequalities); DOUBLY_INFINITE mode decides whether the value has
    a unique doubly infinite expansion, i.e. lies in the two-sided survivor
    set (weak inequalities).
    """
    strict = strict_mode(mode, UNIQUE, DOUBLY_INFINITE)
    if not is_quasigreedy_alpha(M, ctx_alpha):
        raise ValueError("context sequence is not quasi-greedy")
    check_alphabet(c.pre + c.per, M)
    return _shifts_bounded(c, ctx_alpha, M, upper=True, lower=True, strict=strict)


def _order(per, w, i, n):
    """The order of ``(per)`` against ``w`` from ``i`` over ``n >= |per|``
    digits, -1, 0 or 1, decided by the first digit or the first period when
    either differs."""
    p, d = len(per), per[0]
    if d != w[i]:
        return LT if d < w[i] else GT
    u, v = w[i:i + p], per
    if u == v:
        u, v = w[i + p:i + n], (per * (n // p))[:n - p]
    return (v > u) - (v < u)


class LexAutomaton:
    """Follower automaton of the two-sided shift conditions against alpha.

    A state is a pair of tie sets for the prefix read so far: an upper tie
    at offset i stands for a checked tail that has equalled alpha so far and
    meets alpha's digit at i next, a lower tie is the same for a reflected
    tail.  A new tail is checked after a digit below M (upper) and after a
    positive digit (lower).  Alpha is purely periodic, so offsets live modulo
    its period and the automaton is finite.
    """

    def __init__(self, M, alpha_period):
        self.M = M
        self.alpha = tuple(alpha_period)
        self.mirror = word_reflect(self.alpha, M)
        self.N = len(self.alpha)
        self._unrolled = ((), ())

    def start(self):
        return (frozenset(), frozenset())

    def step(self, state, d):
        """Advance by one digit; None when a constraint is violated."""
        upper, lower = state
        nu, nl = set(), set()
        for i in upper:
            ai = self.alpha[i]
            if d > ai:
                return None
            if d == ai:
                nu.add((i + 1) % self.N)
        for i in lower:
            bi = self.mirror[i]
            if d < bi:
                return None
            if d == bi:
                nl.add((i + 1) % self.N)
        if d < self.M:
            nu.add(0)
        if d > 0:
            nl.add(0)
        return (frozenset(nu), frozenset(nl))

    def run(self, state, word):
        """The state after reading ``word`` from ``state``; None once the run dies."""
        for d in word:
            if state is None:
                return None
            state = self.step(state, d)
        return state

    def periodic_ok(self, state, per, strict):
        """Whether a run that stands at ``state`` after reading ``per`` can
        read ``per`` forever.

        The run has checked every tail that starts inside the period: a
        violated one killed it, and a tie that broke, broke the allowed way.
        A tail that starts at the period's end is a tie at offset 0.  So
        only the ties of ``state`` are open, and each compares ``(per)``
        with a tail of a bound: an upper tie i needs ``(per) <= shift(alpha,
        i)``, a lower tie i ``(per) >= shift(reflect(alpha), i)``.  Both are
        periodic, so ``_fine_wilf`` digits decide each, read by ``_order``
        from alpha and its reflection, unrolled once per automaton (again
        only for a longer window).  Strict takes < for <=, so a tie that
        survives forever is plain equality.
        """
        per = tuple(per)
        n = _fine_wilf(len(per), self.N)
        if len(self._unrolled[0]) < self.N + n:
            reps = n // self.N + 2                  # covers offset N - 1 plus n digits
            self._unrolled = (self.alpha * reps, self.mirror * reps)
        alpha, mirror = self._unrolled
        upper, lower = state
        return not (any(_order(per, alpha, i, n) + strict > 0 for i in upper)
                    or any(strict - _order(per, mirror, i, n) > 0 for i in lower))

    def admissible(self, strict, *roots):
        """The admissible part of the automaton: the successor map of the
        states reachable from ``roots`` (from ``start()`` when none is given),
        restricted to the alive states (weak) or to the good states (strict).

        A state is alive when it admits some infinite violation-free
        continuation, and good when it admits one along which every tie
        breaks.  A tie that survives forever makes the rest of the run
        periodic, so a run that is not eventually periodic breaks every tie.
        A state is therefore good iff it reaches a cyclic component that
        either has a state with two moves inside it (runs within it need not
        be eventually periodic), or is one simple cycle whose word, read
        from one of its states back to it, passes the strict ``periodic_ok``
        there.  Explored from ``start()``, both parts hold
        it: its 0s run to the good cycle ({0}, {}).
        """
        succ = explore(roots or (self.start(),),
                       lambda s: [(d, t) for d in range(self.M + 1)
                                  if (t := self.step(s, d)) is not None])

        def breaks_ties(succ, comp):
            if not cyclic(succ, comp):
                return False
            inside = set(comp)
            moves = {s: [(d, t) for d, t in succ[s] if t in inside] for s in comp}
            if any(len(m) > 1 for m in moves.values()):
                return True
            _cycle, word, _k = orbit(comp[0], lambda s: moves[s][0])
            return self.periodic_ok(comp[0], word, strict=True)

        part = alive(succ, breaks_ties if strict else cyclic)
        return {s: [(d, t) for d, t in out if t in part] for s, out in succ.items() if s in part}


# ---------------------------------------------------------------------------
# text grammar: digits 0-9 written directly, larger digits comma-separated,
# period in parentheses, e.g. "111(0)", "(110)", "3,12,0(5,1)", "(10,)"

def parse_word(text, literal):
    """The digits of ``text``, one ASCII digit per character or one nonempty
    run of ASCII digits per comma-separated piece, with an optional trailing
    comma ("10," is ten, "10" one and zero); a ValueError naming the
    sequence literal ``literal`` on anything else."""
    text = text.strip()
    if not text:
        return ()
    pieces = text.removesuffix(",").split(",") if "," in text else text
    if not all(p.isascii() and p.isdigit() for p in pieces):
        raise ValueError(f"malformed sequence literal {literal!r}")
    return tuple(int(p) for p in pieces)


def parse_seq(text):
    """Parse the digit-string grammar into an EpSeq.

    A missing parenthesized period means a finite word, i.e. period "(0)".
    A trailing caret after the closing parenthesis is accepted.
    """
    text = text.strip()
    if text.endswith("^"):
        text = text[:-1]
    if "(" in text:
        head, _, rest = text.partition("(")
        body, sep, tail = rest.partition(")")
        if not sep or tail:
            raise ValueError(f"malformed sequence literal {text!r}")
        per = parse_word(body, text)
        if not per:
            raise ValueError(f"empty period in {text!r}")
        return EpSeq(parse_word(head, text), per)
    word = parse_word(text, text)
    if not word:
        raise ValueError("empty sequence literal")
    return EpSeq(word, (0,))


def format_word(w, wide=None):
    """``w`` as ``parse_word`` reads it: comma-separated if ``wide`` (default: a
    digit above 9), a lone digit above 9 with a trailing comma, else run on."""
    wide = any(d >= 10 for d in w) if wide is None else wide
    if not wide:
        return "".join(map(str, w))
    return ",".join(map(str, w)) + ("," if len(w) == 1 and w[0] >= 10 else "")


def format_seq(s):
    """``s`` as ``parse_seq`` reads it; a digit above 9 widens both words."""
    wide = any(d >= 10 for d in s.pre + s.per)
    return f"{format_word(s.pre, wide)}({format_word(s.per, wide)})"
