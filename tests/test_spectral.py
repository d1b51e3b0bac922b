import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import univoque
from univoque import spectral
from univoque.base import (UnsupportedClassError, golden_ratio_base, new_base_context, r_chain,
                           v_successor)
from univoque.digits import LexAutomaton
from univoque.graph import FULL, TILDE, build_graph, count_label_paths, scc
from univoque.spectral import (component_dimensions, dimension_of, spectral_radius,
                               spectral_report)
from univoque.walk import cyclic, tarjan
from test_reducible import REDUCIBLE

PHI = (1 + math.sqrt(5)) / 2


def test_single_selfloop_radius():
    g = build_graph(golden_ratio_base(2), FULL)
    r, err = spectral_radius(g)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_component_radii_match_reference(base322):
    ctx = new_base_context(1, "111001000111001(0)")
    rep = component_dimensions(ctx)
    radii = sorted(r for _n, r in rep.per_scc)
    assert radii[0] == pytest.approx(1.14798, abs=1e-4)
    assert radii[1] == pytest.approx(1.61803, abs=1e-4)
    assert not rep.core_equals_overall
    rep322 = component_dimensions(base322)
    assert rep322.core_equals_overall
    assert sorted(r for _n, r in rep322.per_scc) == pytest.approx([1.0, PHI], abs=1e-9)


def test_radius_is_max_over_components(base322):
    g = build_graph(base322, TILDE)
    r, _ = spectral_radius(g)
    rep = component_dimensions(base322)
    assert r == pytest.approx(max(x for _n, x in rep.per_scc), abs=1e-9)


def test_strongly_connected_hypothesis_vacuous(tribonacci):
    rep = component_dimensions(tribonacci)
    assert len(rep.per_scc) == 1
    assert rep.core_equals_overall


def test_tribonacci_dimension(tribonacci):
    g = build_graph(tribonacci, TILDE)
    r, err = spectral_radius(g)
    assert r == pytest.approx(PHI, abs=1e-9)
    dim, _err = dimension_of(g, tribonacci)
    assert 0 < dim < 1
    assert dim == pytest.approx(math.log(PHI) / math.log(1.8392867552141612), abs=1e-8)


def test_growth_rate_matches_radius(tribonacci):
    g = build_graph(tribonacci, TILDE)
    r, _ = spectral_radius(g)
    L = 14
    total = count_label_paths(g, L)
    assert abs(math.log(total) / L - math.log(r)) <= 0.05
    # and the dimension agrees with the finite-length growth estimate
    dim, _err = dimension_of(g, tribonacci)
    est = math.log(total) / (L * math.log(float(tribonacci.q)))
    assert abs(dim - est) <= 0.05


def test_radius_nondecreasing_along_successors(tribonacci):
    from univoque.base import v_successor
    radii = []
    ctx = tribonacci
    for _ in range(3):
        radii.append(spectral_radius(build_graph(ctx, TILDE))[0])
        ctx = v_successor(ctx)
    assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))


def test_entropy_constant_along_chains(tribonacci, base322):
    for base in (tribonacci, base322):
        radii = []
        for k in range(4):
            ctx = r_chain(base, k)
            r, _ = spectral_radius(build_graph(ctx, TILDE))
            radii.append(r)
        assert max(radii) - min(radii) <= 1e-6, base.beta


def test_radius_not_below_full_graph(battery):
    # the full graph only adds radius-one tails around the central part
    for ctx in battery:
        rt, _ = spectral_radius(build_graph(ctx, TILDE))
        rf, _ = spectral_radius(build_graph(ctx, FULL))
        assert rf == pytest.approx(max(rt, 1.0), abs=1e-9)


def char_poly(A):
    """Characteristic polynomial det(tI - A) of an integer matrix, monic and
    big-endian, by Faddeev-LeVerrier in integers: B_k = A B_(k-1) + c_(k-1) I
    and c_k = -tr(A B_(k-1)) / k, where every division is exact."""
    n = len(A)
    coeffs = [1]
    Bk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AB = [[sum(A[i][t] * Bk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c, rem = divmod(-sum(AB[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(c)
        Bk = [[AB[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def poly_value(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def test_char_poly_exact():
    A = [[0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 0]]
    # det(tI - A) = t^4 - t^2 - 2t - 1 = (t^2 - t - 1)(t^2 + t + 1)
    assert char_poly(A) == [1, 0, -1, -2, -1]


def component_matrix(g, comp):
    pos = {v: p for p, v in enumerate(comp)}
    A = [[0] * len(comp) for _ in comp]
    for i, _k, j in g.edges:
        if i in pos and j in pos:
            A[pos[i]][pos[j]] = 1
    return A


def certificate_graphs(battery):
    ctxs = list(battery) + [new_base_context(1, "111001000111001(0)")]
    ctx = new_base_context(1, "111(0)")
    for _ in range(4):
        ctx = v_successor(ctx)
        ctxs.append(ctx)
    return [build_graph(c, variant) for c in ctxs for variant in (FULL, TILDE)]


def test_parallel_edges_count():
    # two edges from one vertex to itself: A = (2), radius 2
    r, err = spectral._component_radius({0: [(0, 0), (1, 0)]}, [0])
    assert r - err <= 2.0 <= r + err and err <= 1e-12


def test_interval_graphs_have_no_parallel_edges(battery):
    # all edges leaving a vertex share its label, so no two join the same
    # pair, and reading the rows as sets of targets gives the same radii
    for g in certificate_graphs(battery):
        for v, out in g.out.items():
            assert len({j for _k, j in out}) == len(out), (g.ctx.beta, g.variant, v)
        targets = {v: [(0, j) for j in sorted({j for _k, j in out})] for v, out in g.out.items()}
        for comp in scc(g)[0]:
            assert spectral._component_radius(g.out, comp) == \
                spectral._component_radius(targets, comp)


def test_every_component_radius_certified(battery):
    # independent oracles: numpy's eigenvalues on every component, and the
    # sign of the exact characteristic polynomial on the small ones
    sizes = []
    for g in certificate_graphs(battery):
        for comp in scc(g)[0]:
            r, err = spectral._component_radius(g.out, comp)
            assert 0 <= err <= 1e-10, (g.ctx.beta, comp)
            A = component_matrix(g, comp)
            lam = float(max(abs(np.linalg.eigvals(np.array(A, dtype=float)))))
            # numpy's own rounding is a few ulps of the radius
            slack = 64 * sys.float_info.epsilon * max(1.0, lam)
            assert r - err - slack <= lam <= r + err + slack, (g.ctx.beta, comp, r, err, lam)
            if len(comp) <= 12:
                coeffs = char_poly(A)
                width = Fraction(max(4 * err, 1e-9))
                lo = poly_value(coeffs, Fraction(r) - width)
                hi = poly_value(coeffs, Fraction(r) + width)
                assert lo * hi <= 0, (g.ctx.beta, comp, r, err)
            sizes.append(len(comp))
    assert max(sizes) >= 24


def test_dim_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(univoque.__file__))
    code = ("import sys\n"
            "from univoque.cli import main\n"
            "assert main(['dim', '-M', '1', '--beta', '111(0)']) == 0\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_report_json(tribonacci):
    g = build_graph(tribonacci, TILDE)
    rep = spectral_report(g, tribonacci)
    data = rep.to_json()
    assert set(data) == {"radius", "radius_err", "entropy", "dimension", "dimension_err", "scc"}
    assert data["entropy"] == rep.entropy
    assert data["scc"][0]["vertices"]
    assert rep.entropy == pytest.approx(math.log(rep.radius))


def test_one_radius_per_component(monkeypatch):
    ctx = new_base_context(4, "4331(0)")
    g = build_graph(ctx, TILDE)
    calls = []
    inner = spectral._component_radius

    def counted(succ, comp):
        calls.append(tuple(comp))
        return inner(succ, comp)

    monkeypatch.setattr(spectral, "_component_radius", counted)
    comps, _ = scc(g)
    # one pass per graph: the three readers of the TILDE graph share it
    spectral_report(g, ctx)
    component_dimensions(ctx)
    spectral_radius(g)
    assert sorted(calls) == sorted(map(tuple, comps))


def test_component_dimensions_refuse_an_in_between_base():
    # the transfer hypothesis is stated for limit-of-uniqueness bases only;
    # no command reaches this refusal, as ``dim`` reports on every graph
    ctx = new_base_context(1, "1101(0)")
    with pytest.raises(UnsupportedClassError,
                       match=r"^the dimension-transfer report applies to limit-of-uniqueness"):
        component_dimensions(ctx)
    assert spectral_report(build_graph(ctx, TILDE), ctx).radius == pytest.approx(1.0)


def test_empty_graph_radius_zero():
    g = build_graph(golden_ratio_base(1), TILDE)
    assert not g.vertices
    assert spectral_radius(g) == (0.0, 0.0)
    assert dimension_of(g, golden_ratio_base(1)) == (0.0, 0.0)
    assert spectral_report(g, golden_ratio_base(1)).to_json()["entropy"] is None


def test_dimension_with_wide_radius_enclosure():
    # a radius error of 1e-7 keeps the enclosure wider than 1e-8 for every q
    ctx = new_base_context(1, "111001010(0)")
    g = build_graph(ctx, TILDE)
    r, err = spectral_radius(g)
    start = time.perf_counter()
    dim, dim_err = dimension_of(g, ctx, (r, 1e-7))
    assert time.perf_counter() - start < 1.0
    assert 1e-8 < dim_err < 1e-6
    tight, tight_err = dimension_of(g, ctx, (r, err))
    assert tight_err < 1e-8
    assert dim - dim_err <= tight <= dim + dim_err


def test_repeated_dimension_calls_leave_q_alone():
    # with a radius error of 1e-7 the error alone sets the enclosure's
    # width, which refining q cannot narrow
    ctx = new_base_context(1, "111001010(0)")
    e = ctx.field.e
    g = build_graph(ctx, TILDE)
    r, _err = spectral_radius(g)
    dims = [dimension_of(g, ctx, (r, 1e-7)) for _ in range(3)]
    assert ctx.field.e == e
    assert dims[0] == dims[1] == dims[2]
    dimension_of(g, ctx)
    assert ctx.field.e == e


def left_to_right_radius(succ, comp):
    """``_component_radius`` with every float sum a plain loop, left to
    right: the sums built-in ``sum`` made before Python 3.12."""
    pos = {v: p for p, v in enumerate(comp)}
    rows = [sorted(pos[j] for _k, j in succ[v] if j in pos) for v in comp]
    x = [1.0] * len(comp)
    for _ in range(spectral.ITERATION_CAP):
        y = []
        for xi, row in zip(x, rows):
            s = 0
            for j in row:
                s = s + x[j]
            y.append(xi + s)
        ratios = [b / a for a, b in zip(x, y)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= spectral.RADIUS_TOL * hi:
            break
        total = 0
        for b in y:
            total = total + b
        x = [b / total for b in y]
    parts = [xi.as_integer_ratio() for xi in x]
    den = max(d for _n, d in parts)
    X = [n * (den // d) for n, d in parts]
    cw = [Fraction(X[i] + sum(X[j] for j in row), X[i]) for i, row in enumerate(rows)]
    # centred in Fractions, independently of the integer pairs of ``_centred``
    lo, hi = min(cw) - 1, max(cw) - 1
    r = float((lo + hi) / 2)
    err = max(hi - Fraction(r), Fraction(r) - lo)
    up = float(err)
    return r, up if Fraction(up) >= err else math.nextafter(up, math.inf)


def test_component_radius_sums_left_to_right(battery):
    # the same bits on every Python: from 3.12 on, built-in sum compensates
    # float sums, which moves the last bits of many radii
    contexts = list(battery) + [new_base_context(M, beta) for M, beta in REDUCIBLE]
    ctx = new_base_context(1, "111(0)")
    for _ in range(4):
        ctx = v_successor(ctx)
        contexts.append(ctx)
    checked = 0
    for ctx in contexts:
        for variant in (FULL, TILDE):
            g = build_graph(ctx, variant)
            for comp in scc(g)[0]:
                got = spectral._component_radius(g.out, comp)
                want = left_to_right_radius(g.out, comp)
                assert [f.hex() for f in got] == [f.hex() for f in want], \
                    (ctx.beta, variant, comp)
                checked += len(comp) > 1
    assert checked >= 50


@pytest.mark.parametrize("radii", [
    [(1.0, 0.5), (1.1, 0.0)],           # the widest enclosure reaches highest
    [(1.1, 0.0), (1.0, 0.5)],
    [(2.0, 1e-9), (2.0, 1e-3), (1.5, 0.4)],
    [(0.3, 0.1)],
    [(1.0, 0.25), (1.25, 0.0), (0.5, 0.75)],
])
def test_max_radius_encloses_every_possible_maximum(radii):
    # the largest radius lies in [max(r - e), max(r + e)], whichever
    # component carries it; the pair returned must cover that interval
    r, err = spectral._max_radius(radii)
    lo = max(Fraction(x) - Fraction(e) for x, e in radii)
    hi = max(Fraction(x) + Fraction(e) for x, e in radii)
    assert Fraction(r) - Fraction(err) <= lo and hi <= Fraction(r) + Fraction(err)
    assert Fraction(err) - (hi - lo) / 2 < Fraction(1, 10**15)


def test_max_radius_pairs():
    # (1.1, 0.0) has the larger midpoint, yet the first radius may be 1.5
    r, err = spectral._max_radius([(1.0, 0.5), (1.1, 0.0)])
    assert r == 1.3 and r + err >= 1.5
    assert spectral._max_radius([]) == (0.0, 0.0)
    # a lone enclosure, or one with both ends highest, comes back unchanged
    assert spectral._max_radius([(1.7, 0.125)]) == (1.7, 0.125)
    assert spectral._max_radius([(1.7, 0.125), (1.5, 0.0)]) == (1.7, 0.125)


def test_top_radius_is_enclosed_once_per_graph(monkeypatch):
    # the component pass encloses a graph's top radius, and spectral_radius,
    # spectral_report and component_dimensions all read that pair, bit for
    # bit the one taken from the graph's component radii
    from conftest import BATTERY
    top = spectral._max_radius
    calls = []
    monkeypatch.setattr(spectral, "_max_radius", lambda radii: calls.append(1) or top(radii))
    for M, beta in BATTERY:
        ctx = new_base_context(M, beta)
        full, tilde = build_graph(ctx, FULL), build_graph(ctx, TILDE)
        dims = component_dimensions(ctx)
        report = spectral_report(tilde, ctx)
        pairs = {g: top([spectral._component_radius(g.out, c) for c in scc(g)[0]])
                 for g in (full, tilde)}
        assert spectral_radius(full) == pairs[full]
        assert spectral_radius(tilde) == (report.radius, report.radius_err) == pairs[tilde]
        assert dims.overall_radius == pairs[tilde][0]
        assert len(calls) == 2, beta          # one pass each for TILDE and FULL
        calls.clear()


def automaton_radius(ctx):
    """The certified radius of the follower automaton's weak admissible part:
    the largest over its cyclic components, parallel edges counted."""
    part = LexAutomaton(ctx.M, ctx.alpha_word()).admissible(False)
    return spectral._max_radius([spectral._component_radius(part, comp)
                                 for comp in tarjan(part) if cyclic(part, comp)])


def overlap(a, b):
    (r, e), (s, f) = a, b
    return abs(Fraction(r) - Fraction(s)) <= Fraction(e) + Fraction(f)


def test_automaton_radius_matches_tilde_radius(battery):
    # the admissible part of the follower automaton grows as fast as the
    # TILDE graph: the two certified enclosures overlap
    for ctx in battery:
        auto, tilde = automaton_radius(ctx), spectral_radius(build_graph(ctx, TILDE))
        assert overlap(auto, tilde), (ctx.beta, auto, tilde)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_automaton_radius_at_the_golden_ratio_base(M):
    # the two differ at the smallest base: its central graph is empty,
    # radius 0, while the automaton keeps the constant runs, radius 1
    ctx = golden_ratio_base(M)
    assert not build_graph(ctx, TILDE).vertices
    assert spectral_radius(build_graph(ctx, TILDE)) == (0.0, 0.0)
    assert automaton_radius(ctx) == (1.0, 0.0)
