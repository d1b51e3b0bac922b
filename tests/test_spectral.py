import math

import numpy as np
import pytest

from univoque import spectral
from univoque.base import golden_ratio_base, new_base_context, r_chain
from univoque.graph import FULL, TILDE, build_graph, count_label_paths, scc
from univoque.spectral import (component_dimensions, dimension_of, spectral_radius,
                               spectral_report, _char_poly_int)

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
    dim = dimension_of(g, tribonacci)
    assert 0 < dim < 1
    assert dim == pytest.approx(math.log(PHI) / math.log(1.8392867552141612), abs=1e-8)


def test_growth_rate_matches_radius(tribonacci):
    g = build_graph(tribonacci, TILDE)
    r, _ = spectral_radius(g)
    L = 14
    total, _w = count_label_paths(g, L)
    assert abs(math.log(total) / L - math.log(r)) <= 0.05
    # and the dimension agrees with the finite-length growth estimate
    dim = dimension_of(g, tribonacci)
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


def test_char_poly_exact():
    A = np.array([[0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 0]])
    # det(tI - A) = t^4 - t^2 - 2t - 1 = (t^2 - t - 1)(t^2 + t + 1)
    assert _char_poly_int(A) == [1, 0, -1, -2, -1]


def test_report_json(tribonacci):
    g = build_graph(tribonacci, TILDE)
    rep = spectral_report(g, tribonacci)
    data = rep.to_json()
    assert set(data) == {"radius", "radius_err", "entropy", "dimension", "scc"}
    assert data["scc"][0]["vertices"]
    assert rep.entropy == pytest.approx(math.log(rep.radius))


def test_one_radius_per_component(monkeypatch):
    ctx = new_base_context(4, "4331(0)")
    g = build_graph(ctx, TILDE)
    calls = []
    inner = spectral._component_radius

    def counted(graph, comp):
        calls.append(tuple(comp))
        return inner(graph, comp)

    monkeypatch.setattr(spectral, "_component_radius", counted)
    comps, _ = scc(g)
    spectral_report(g, ctx)
    assert sorted(calls) == sorted(map(tuple, comps))
    calls.clear()
    component_dimensions(ctx)
    assert sorted(calls) == sorted(map(tuple, comps))


def test_empty_graph_radius_zero():
    g = build_graph(golden_ratio_base(1), TILDE)
    assert not g.vertices
    assert spectral_radius(g) == (0.0, 0.0)
    assert dimension_of(g, golden_ratio_base(1)) == 0.0
