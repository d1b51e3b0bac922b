import pytest

from univoque import digits as dg
from univoque.base import BaseClass, new_base_context
from univoque.digits import EpSeq


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # the acceptance suite prints one verdict line per criterion; emit the
    # FAIL side here so a red criterion is still a single grep-able line
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and rep.failed and item.fspath.basename == "test_acceptance.py":
        print(f"\n[acceptance] {item.name} FAIL")

# the recurring battery: limit-of-uniqueness bases exercised throughout
BATTERY = [
    (1, "111(0)"),
    (1, "11011(0)"),
    (4, "4331(0)"),
    (3, "331(0)"),
    (4, "322(0)"),
    (1, "111001010(0)"),
]


@pytest.fixture(scope="session")
def battery():
    return [new_base_context(M, beta) for M, beta in BATTERY]


@pytest.fixture(scope="session")
def tribonacci():
    return new_base_context(1, "111(0)")


@pytest.fixture(scope="session")
def base322():
    return new_base_context(4, "322(0)")


@pytest.fixture(scope="session")
def base331():
    return new_base_context(3, "331(0)")


def mirror_map(g):
    """Each vertex index of ``g`` paired with the index of its mirror image
    under x -> M/(q-1) - x: the vertex of opposite rank in interval order."""
    indices = [v.index for v in g.vertices]
    return dict(zip(indices, reversed(indices)))


def out_map(vertices, edges):
    """The successor map a ``UnivoqueGraph`` on ``vertices`` is built from,
    read from (source, label, target) triples: each source's moves in the
    order of the list."""
    out = {v.index: [] for v in vertices}
    for i, k, j in edges:
        out[i].append((k, j))
    return out


def random_context(rng):
    """A random base admitting the graph construction (alphabet <= 5,
    period <= 8), drawn by rejection from random greedy words."""
    while True:
        M = rng.randint(1, 4)
        length = rng.randint(1, 8)
        word = tuple(rng.randint(0, M) for _ in range(length))
        if not word or word[-1] == 0:
            continue
        beta = EpSeq(word, (0,))
        if beta == EpSeq((1,), (0,)):
            continue
        if not dg.is_greedy_beta(M, beta):
            continue
        ctx = new_base_context(M, beta)
        if ctx.base_class in (BaseClass.IN_CLOSURE_U_NOT_U, BaseClass.IN_V_NOT_CLOSURE_U):
            return ctx
