import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univoque import walk
from univoque.walk import alive, count_words, cyclic, explore, orbit, tarjan, words


def test_explore_full_map_and_cap():
    # a path 0 -> 1 -> ... -> 9 -> 0 read from the moves function
    calls = []

    def moves(v):
        calls.append(v)
        return [(0, (v + 1) % 10)]

    succ = explore([0], moves)
    assert succ == {v: [(0, (v + 1) % 10)] for v in range(10)}
    assert sorted(calls) == list(range(10))
    assert explore([0], moves, cap=10) == succ
    assert explore([0], moves, cap=9) is None
    assert explore([3, 7], moves) == succ
    assert explore([], moves) == {}


def test_cyclic_singletons_and_components():
    succ = {"a": [(0, "a")], "b": [(0, "a")], "c": [(0, "d")], "d": [(1, "c")]}
    assert cyclic(succ, ["a"])
    assert not cyclic(succ, ["b"])
    assert cyclic(succ, ["c", "d"])


def alive_reference(succ):
    """Drop nodes with no live successor until stable."""
    live = set(succ)
    changed = True
    while changed:
        changed = False
        for v in list(live):
            if not any(w in live for _k, w in succ[v]):
                live.discard(v)
                changed = True
    return live


@st.composite
def successor_maps(draw):
    # nodes without moves, self-loops and sinks all come up
    n = draw(st.integers(1, 12))
    return {v: draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, n - 1)),
                             max_size=3))
            for v in range(n)}


@settings(max_examples=200, deadline=None)
@given(successor_maps())
def test_alive_matches_reference(succ):
    assert alive(succ) == alive_reference(succ)
    comps = tarjan(succ)
    assert sorted(v for comp in comps for v in comp) == sorted(succ)


def reached(succ, v):
    """Every node on a path from ``v``, ``v`` included."""
    seen, frontier = {v}, [v]
    while frontier:
        for _k, w in succ[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


@settings(max_examples=200, deadline=None)
@given(successor_maps(), st.sets(st.integers(0, 11)))
def test_alive_with_accept_matches_reference(succ, marked):
    # a component is accepted when it holds a marked node; a node is live
    # when it reaches a node whose component (the nodes reaching it back)
    # is accepted
    reach = {v: reached(succ, v) for v in succ}
    accepted = {v for v in succ if any(w in marked for w in reach[v] if v in reach[w])}
    expected = {v for v in succ if reach[v] & accepted}
    assert alive(succ, lambda succ, comp: bool(marked & set(comp))) == expected


@st.composite
def deterministic_maps(draw):
    # each node reads each label at most once; sinks and self-loops come up
    n = draw(st.integers(1, 8))
    return {v: sorted(draw(st.dictionaries(st.integers(0, 2), st.integers(0, n - 1),
                                           max_size=3)).items())
            for v in range(n)}


def path_labels(succ, start, L):
    """The label word of every length-L path from ``start``, one per path."""
    paths = [((), start)]
    for _ in range(L):
        paths = [(w + (k,), u) for w, v in paths for k, u in succ[v]]
    return [w for w, _v in paths]


@settings(max_examples=200, deadline=None)
@given(deterministic_maps(), st.integers(0, 6))
def test_words_match_literal_paths(succ, L):
    literal = path_labels(succ, 0, L)
    assert count_words(succ, 0, L) == len(literal)
    assert all(count_words(succ, 0, L, cap) == min(len(literal), cap + 1) for cap in range(9))
    assert words(succ, 0, L) == set(literal)
    assert len(set(literal)) == len(literal)      # deterministic: one path per word


def test_words_cap(monkeypatch):
    # two labels at one node: 2^L words of length L
    succ = {0: [(0, 0), (1, 0)]}
    assert count_words(succ, 0, 200) == 2 ** 200
    with pytest.raises(ValueError, match="nonnegative"):
        count_words(succ, 0, -1)
    with pytest.raises(ValueError, match="exceed the enumeration cap"):
        words(succ, 0, 20)                        # 2^20 > WORD_CAP, counted only
    monkeypatch.setattr(walk, "WORD_CAP", 8)
    assert len(words(succ, 0, 3)) == 8
    with pytest.raises(ValueError, match="more than 8 words of length 4"):
        words(succ, 0, 4)


def moves_of(succ):
    """The one-move step of a map ``node -> (label, target)``; None off the map."""
    calls = []

    def step(v):
        calls.append(v)
        return succ.get(v)

    return step, calls


def test_orbit_pure_cycle():
    step, calls = moves_of({0: ("a", 1), 1: ("b", 2), 2: ("c", 0)})
    assert orbit(0, step) == ([0, 1, 2], ["a", "b", "c"], 0)
    assert calls == [0, 1, 2]                     # one step per node


def test_orbit_rho_shaped_run():
    # a tail 0 -> 1 into the cycle 1 -> 2 -> 3 -> 1
    step, _calls = moves_of({0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 1)})
    assert orbit(0, step) == ([0, 1, 2, 3], [0, 1, 2, 3], 1)
    # a self-loop closes at once
    assert orbit("x", lambda v: (7, v)) == (["x"], [7], 0)


def test_orbit_stopped_run():
    step, calls = moves_of({0: (5, 1), 1: (6, 2)})
    assert orbit(0, step) == ([0, 1, 2], [5, 6], None)
    assert calls == [0, 1, 2]
    assert orbit(9, step) == ([9], [], None)


def test_orbit_cap():
    rho = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 1)}
    assert orbit(0, moves_of(rho)[0], cap=4) == ([0, 1, 2, 3], [0, 1, 2, 3], 1)
    step, calls = moves_of(rho)
    assert orbit(0, step, cap=3) is None
    assert calls == [0, 1, 2]                     # never steps past the cap
    stopped = moves_of({0: (5, 1), 1: (6, 2)})[0]
    assert orbit(0, stopped, cap=3) == ([0, 1, 2], [5, 6], None)
    assert orbit(0, stopped, cap=2) is None
