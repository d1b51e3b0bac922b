import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BATTERY, random_context
from test_expansions import record_passes
from test_reducible import REDUCIBLE
from univoque import digits as dg
from univoque import oracle
from univoque.algebraic import NumberField
from univoque.base import SearchBoundError, golden_ratio_base, new_base_context, v_successor
from univoque.graph import FULL, build_graph, path_words
from univoque.oracle import (U_PREFIX, V_PREFIX, brute_count_expansions,
                             enumerate_admissible_words)
from univoque import expansions as ex
from univoque.walk import orbit


def seq(text):
    return dg.parse_seq(text)


def test_empty_word(tribonacci):
    assert enumerate_admissible_words(tribonacci, 0, V_PREFIX) == {()}
    assert enumerate_admissible_words(tribonacci, 0, U_PREFIX) == {()}


def test_golden_ratio_words():
    phi = golden_ratio_base(1)
    assert enumerate_admissible_words(phi, 3, U_PREFIX) == {(0, 0, 0), (1, 1, 1)}
    weak = enumerate_admissible_words(phi, 3, V_PREFIX)
    assert weak == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    # the weak set is closed under reflection
    assert {dg.word_reflect(w, 1) for w in weak} == weak


def test_integer_base_strict_vs_weak():
    q2 = golden_ratio_base(2)
    assert enumerate_admissible_words(q2, 4, U_PREFIX) == {(0,) * 4, (2,) * 4}
    weak = enumerate_admissible_words(q2, 2, V_PREFIX)
    assert (0, 1) in weak and (1, 1) in weak and (2, 0) not in weak


def test_prefix_sets_are_prefix_closed(tribonacci):
    for mode in (U_PREFIX, V_PREFIX):
        w5 = enumerate_admissible_words(tribonacci, 5, mode)
        w3 = enumerate_admissible_words(tribonacci, 3, mode)
        assert {w[:3] for w in w5} == w3


def test_successor_identity(tribonacci):
    # the weak language of a limit base is the strict language of its successor
    succ = v_successor(tribonacci)
    for L in (2, 5, 8):
        assert (enumerate_admissible_words(tribonacci, L, V_PREFIX)
                == enumerate_admissible_words(succ, L, U_PREFIX))


def test_graph_language_equality_spot(battery):
    for ctx in battery[:3]:
        g = build_graph(ctx, FULL)
        for L in (1, 3, 6):
            assert path_words(g, L) == enumerate_admissible_words(ctx, L, V_PREFIX)


def test_graph_language_equality_random_contexts():
    from univoque.base import BaseClass

    rng = random.Random(53)
    done = 0
    while done < 10:
        ctx = random_context(rng)
        mode = V_PREFIX if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U else U_PREFIX
        g = build_graph(ctx, FULL)
        for L in (2, 5):
            assert path_words(g, L) == enumerate_admissible_words(ctx, L, mode), \
                (ctx.M, ctx.beta, L)
        done += 1


def test_brute_bounds_random_points(tribonacci, base322):
    rng = random.Random(59)
    for ctx in (tribonacci, base322):
        for _ in range(8):
            s = dg.EpSeq(tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(0, 2))),
                         tuple(rng.randint(0, ctx.M) for _ in range(rng.randint(1, 2))))
            x = ctx.value(s)
            res = ex.count_expansions(ctx, x, cap=20000)
            lo, hi = brute_count_expansions(ctx, x, 12)
            if res.kind == ex.EXACT:
                assert lo <= res.count, (ctx.beta, s)
            else:
                assert hi >= 1 and hi >= lo >= 0


BRUTE_NODE_BUDGET = 3000     # feasible-prefix tree size one example may walk


def brute_depth(ctx, x, max_depth=16):
    """The largest depth whose feasible-prefix tree, walked in floats, stays
    within the node budget (a budget only: the count itself is exact)."""
    q, kappa = float(ctx.q), float(ctx.kappa)
    frontier, nodes = [float(x)], 0
    for depth in range(max_depth):
        frontier = [q * v - d for v in frontier for d in range(ctx.M + 1)
                    if -1e-9 <= q * v - d <= kappa + 1e-9]
        nodes += len(frontier)
        if nodes > BRUTE_NODE_BUDGET:
            return depth
    return max_depth


def digit_words(max_len):
    return st.lists(st.integers(0, 4), max_size=max_len)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), digit_words(8), digit_words(3).filter(bool))
def test_count_against_brute_count(seed, pre, per):
    ctx = random_context(random.Random(seed))
    s = dg.EpSeq([d % (ctx.M + 1) for d in pre], [d % (ctx.M + 1) for d in per])
    x = ctx.value(s)
    res = ex.count_expansions(ctx, x, cap=300)
    if res.kind != ex.EXACT:
        return
    depth = brute_depth(ctx, x)
    lo, hi = brute_count_expansions(ctx, x, depth)
    assert lo <= res.count, (ctx.M, ctx.beta, s, depth)
    # witnesses that already differ within the depth are distinct prefixes
    if len({tuple(w.digit(i) for i in range(depth)) for w in res.witnesses}) == res.count:
        assert res.count <= hi, (ctx.M, ctx.beta, s, depth)


def test_words_past_length_12():
    # the word count bounds the listing, as for the label words of a graph
    from univoque.base import BaseClass

    for ctx in (golden_ratio_base(1), new_base_context(1, "111(0)")):
        mode = V_PREFIX if ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U else U_PREFIX
        g = build_graph(ctx, FULL)
        for L in (13, 16):
            assert enumerate_admissible_words(ctx, L, mode) == path_words(g, L), (ctx.beta, L)


def test_word_refusal_at_length_100000(tribonacci):
    # counts saturate past the cap, so the refusal sums small ints per level
    with pytest.raises(ValueError, match="exceed the enumeration cap"):
        enumerate_admissible_words(tribonacci, 100_000)


class Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"search started: {name} read")


def test_negative_bounds_are_rejected_before_any_search():
    # on a negative bound the searches would wait for a length they never meet
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_admissible_words(Untouchable(), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        brute_count_expansions(Untouchable(), Untouchable(), -3)


def test_brute_bounds_trivial(tribonacci):
    zero = tribonacci.value(dg.ZERO)
    assert brute_count_expansions(tribonacci, zero, 10) == (1, 1)


def test_brute_bounds_witness(tribonacci):
    c = ex.default_tail(tribonacci)
    x2, _ = ex.build_witness_xm(tribonacci, 2, c)
    lo, hi = brute_count_expansions(tribonacci, x2, 18)
    assert lo == hi == 2


def test_brute_bounds_bracket_counts(tribonacci, base322):
    for ctx, texts in [(tribonacci, ["(110)", "0(10)", "(100)"]),
                       (base322, ["(321)", "1(30)"])]:
        for t in texts:
            x = ctx.value(seq(t))
            res = ex.count_expansions(ctx, x, cap=20000)
            if res.kind != ex.EXACT:
                continue
            lo, hi = brute_count_expansions(ctx, x, 14)
            assert lo <= res.count <= hi, (ctx.beta, t, lo, res.count, hi)


def test_brute_lower_bound_grows_for_infinite():
    q2 = new_base_context(2, "2(0)")
    one = q2.value(seq("(1)"))
    lo12, _ = brute_count_expansions(q2, one, 12)
    assert lo12 >= 12
    lo16, _ = brute_count_expansions(q2, one, 16)
    assert lo16 > lo12


def tree_nodes(ctx, x, depth):
    """Nodes below the root of the feasible-prefix tree, level by level."""
    level, nodes = [x], 0
    for _ in range(depth):
        level = [y for v in level for d in range(ctx.M + 1)
                 if 0 <= (y := v.mul_gen() - d) <= ctx.kappa]
        nodes += len(level)
    return nodes


def test_brute_count_stops_past_its_node_budget(monkeypatch):
    ctx = new_base_context(3, "2(0)")
    one = ctx.value(seq("1(0)"))
    nodes = tree_nodes(ctx, one, 6)
    monkeypatch.setattr(oracle, "BRUTE_NODE_BUDGET", nodes)
    brute_count_expansions(ctx, one, 6)
    monkeypatch.setattr(oracle, "BRUTE_NODE_BUDGET", nodes - 1)
    with pytest.raises(SearchBoundError, match=f"to depth 6 has more than {nodes - 1} nodes"):
        brute_count_expansions(ctx, one, 6)


def feasible_level(ctx, x, depth):
    """The remainders of the feasible prefixes of length ``depth``, by two
    exact comparisons per digit."""
    level = [x]
    for _ in range(depth):
        level = [y for v in level for d in range(ctx.M + 1)
                 if 0 <= (y := v.mul_gen() - d) <= ctx.kappa]
    return level


def open_points(ctx, seed):
    """1/q - 1/q^30, whose q-multiple lies just below 1, and three random
    points, all in [0, kappa]."""
    rng = random.Random(seed)
    M = ctx.M
    out = [ctx.value(seq("1(0)")) - ctx.value(dg.EpSeq((0,) * 29 + (1,), (0,)))]
    for _ in range(3):
        out.append(ctx.value(dg.EpSeq([rng.randint(0, M) for _ in range(rng.randint(0, 3))],
                                      [rng.randint(0, M) for _ in range(rng.randint(1, 3))])))
    return out


def test_brute_count_decides_open_digits_exactly():
    # left on the bracket [1, M+1], the field's enclosures of q*v leave
    # digits open, which only refining q decides
    for seed, (M, beta) in enumerate(BATTERY):
        for i in range(4):
            coarse = new_base_context(M, beta)
            coarse.field = NumberField(coarse.field.working_poly, 1, M + 1, 0)
            fine = new_base_context(M, beta)
            x, y = open_points(coarse, seed)[i], open_points(fine, seed)[i]
            bounds = brute_count_expansions(coarse, x, 5)
            assert bounds == brute_count_expansions(fine, y, 5), (beta, i)
            assert bounds[1] == len(feasible_level(fine, y, 5)), (beta, i)


def forced_move(ctx, v):
    """The one feasible ``(digit, remainder)`` move of v, each digit decided
    by exact comparisons, or None when v has two or more."""
    moves = [(d, y) for d in range(ctx.M + 1) if 0 <= (y := v.mul_gen() - d) <= ctx.kappa]
    return moves[0] if len(moves) == 1 else None


def unmerged_bounds(ctx, x, depth):
    """The bounds with one entry per feasible prefix: ``upper`` counts the
    entries of ``feasible_level``, ``lower`` those whose forced run closes a
    cycle."""
    level = feasible_level(ctx, x, depth)
    return (sum(orbit(v, lambda u: forced_move(ctx, u))[2] is not None for v in level),
            len(level))


contexts = st.one_of(st.integers(0, 2**32).map(lambda seed: random_context(random.Random(seed))),
                     st.sampled_from(REDUCIBLE).map(lambda base: new_base_context(*base)))


@settings(max_examples=40, deadline=None)
@given(contexts, st.lists(st.tuples(digit_words(6), digit_words(3).filter(bool)),
                          min_size=2, max_size=2))
def test_merging_by_remainder_is_exact(ctx, words):
    # the midpoint of two points branches more often than either point;
    # only a point with finitely many remainders is counted, so that every
    # forced run ends
    s, t = (dg.EpSeq([d % (ctx.M + 1) for d in pre], [d % (ctx.M + 1) for d in per])
            for pre, per in words)
    x = (ctx.value(s) + ctx.value(t)) / 2
    if ex.count_expansions(ctx, x, cap=300).kind == ex.CAP_EXCEEDED:
        return
    depth = brute_depth(ctx, x)
    assert brute_count_expansions(ctx, x, depth) == unmerged_bounds(ctx, x, depth), \
        (ctx.M, ctx.beta, s, t, depth)


def check_count_on_branching_point(ctx, x):
    """Check the count of x against the brute-force bounds at the deepest
    depth within the node budget, up to the oracle's cap of 24; the number
    of feasible prefixes there, or 0 for a point past the count's cap.

    Every remainder in [0, kappa] has a move, so every feasible prefix
    extends to an expansion, and a prefix that is not pinned reaches a
    remainder with two feasible digits.  For EXACT(j) the upper bound
    therefore counts the distinct prefixes of the j expansions: once every
    prefix is pinned, lower = j = upper; before, lower <= j and upper < j.
    An infinite count never resolves: at every depth some prefix has
    infinitely many expansions, so it is not pinned, and the upper bound
    never falls.  It grows from half the depth to the depth when a forced
    run from half the depth meets two feasible digits before the depth.
    """
    res = ex.count_expansions(ctx, x, cap=300)
    if res.kind == ex.CAP_EXCEEDED:
        return 0
    depth = brute_depth(ctx, x, 24)
    lo, hi = brute_count_expansions(ctx, x, depth)
    label = (ctx.M, dg.format_seq(ctx.beta), x, depth, lo, hi)
    if res.kind == ex.EXACT:
        if lo == hi:
            assert lo <= res.count <= hi, (label, res)
        else:
            assert lo <= res.count and hi < res.count, (label, res)
        return hi
    bounds = [brute_count_expansions(ctx, x, d) for d in range(depth)] + [(lo, hi)]
    assert all(b < c for b, c in bounds), (label, bounds)
    upper = [c for _b, c in bounds]
    assert upper == sorted(upper), (label, bounds)
    half = depth // 2
    runs = [orbit(v, lambda u: forced_move(ctx, u), depth - half)
            for v in feasible_level(ctx, x, half)]
    if any(run is not None and run[2] is None for run in runs):
        assert upper[depth] > upper[half], (label, bounds)
    return hi


def test_count_on_branching_points():
    # midpoints of two points branch more often than either point, and the
    # witnesses x_m have m expansions, which part within (m - 1) N + 1 digits;
    # the explicit example's midpoints alone leave thousands of prefixes at
    # their depths, so that every run checks many branching points
    prefixes = []

    @settings(max_examples=40, deadline=None)
    @given(contexts, st.lists(st.tuples(digit_words(6), digit_words(3).filter(bool)),
                              min_size=4, max_size=4))
    @example(new_base_context(4, "322(0)"),
             [([0, 0, 0], [3]), ([3, 4, 2, 1, 1, 4], [2]), ([], [3, 1]), ([3, 0, 4, 1], [1, 1])])
    def check(ctx, words):
        v = [ctx.value(dg.EpSeq([d % (ctx.M + 1) for d in pre], [d % (ctx.M + 1) for d in per]))
             for pre, per in words]
        points = [(a + b) / 2 for i, a in enumerate(v) for b in v[i + 1:]]
        try:
            tail = ex.default_tail(ctx)
        except ValueError:                  # no admissible tail for this base
            tail = None
        if tail is not None:
            points += [ex.build_witness_xm(ctx, m, tail)[0] for m in range(2, 7)]
        prefixes.extend(check_count_on_branching_point(ctx, x) for x in points)

    check()
    assert sum(prefixes) >= 1000


@pytest.mark.parametrize("M, beta, point, depth", [
    (7, "77041503(0)", "(377)", 8), (2, "22021(0)", "022(10)", 14),
    (6, "6624122(0)", "300(23)", 10), (4, "41123(0)", "(003)", 7),
    (1, "1101011(0)", "01(110)", 10)])
def test_different_tuples_of_one_remainder_merge(M, beta, point, depth):
    # in the working polynomial's field two prefixes reach one remainder as
    # two different tuples, which the count merges as one value
    ctx = new_base_context(M, beta)
    x = ctx.value(seq(point))
    level = feasible_level(ctx, x, depth)
    assert len({v.elem for v in level}) > len(set(level))
    assert brute_count_expansions(ctx, x, depth) == unmerged_bounds(ctx, x, depth)


def test_brute_count_work_follows_distinct_remainders(monkeypatch):
    # 97,666 prefixes of 1/2 in base 2 with digits 0..9 end on at most ten
    # remainders a level, the integers 0..9; walking the prefixes one at a
    # time takes about 24,000 passes
    ctx = new_base_context(9, "2(0)")
    x = ctx.value(seq("1(0)"))
    passes = record_passes(monkeypatch)
    assert brute_count_expansions(ctx, x, 9) == (19540, 97666)
    assert len(passes) <= 1000
