"""Import layering of the package, read from the source with ``ast``.

The oracles check the graph and expansion code, so they must not depend on
it, and no library module may depend on an oracle.  The walks over successor
maps sit below everything: ``walk`` imports nothing from the package, and the
digit layer imports nothing else from it.  Building a number field, and
ordering its points or building and measuring its graphs, loads no
factoring: ``minpoly`` is imported only to certify a minimal polynomial,
and no layer but the number field reads how q's interval is stored or
moves q, except the point order's one planned ``refine_to``.
The package itself declares no runtime dependency, and keeps no
process-wide memo: what is derived from a context or a graph is kept on it
by ``base.memo``.  The graph layer's hot paths walk the successor map, not
the edge triples built from it.  The CLI loads no layer to print help or
refuse its arguments, and each command loads only the layers it runs, and
neither ``fractions`` nor ``decimal``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import univoque
from conftest import BATTERY
from univoque.algebraic import NumberField

SRC = Path(univoque.__file__).parent


def imported_modules(path):
    """Absolute names a source file imports, each ``from`` name included, so
    that ``from . import oracle`` counts as importing ``univoque.oracle``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["univoque" if node.level else None, node.module]))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_library_modules_do_not_import_the_oracle():
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "__init__.py"):
            continue
        assert "univoque.oracle" not in imported_modules(path), path.name


def test_oracle_is_independent_of_the_code_it_checks():
    checked = {"univoque.graph", "univoque.spectral", "univoque.expansions"}
    assert not imported_modules(SRC / "oracle.py") & checked


def test_import_reader_sees_relative_imports():
    found = imported_modules(SRC / "cli.py")
    assert {"univoque.oracle", "univoque.expansions", "univoque.graph"} <= found


def package_imports(path):
    return {name for name in imported_modules(path) if name.startswith("univoque")}


def test_walk_imports_nothing_from_the_package():
    assert not package_imports(SRC / "walk.py")


def test_digits_imports_only_walk_from_the_package():
    found = package_imports(SRC / "digits.py")
    assert "univoque.walk" in found
    assert all(name.startswith("univoque.walk.") for name in found - {"univoque.walk"}), found


def names(tree):
    """Every name a syntax tree reads, as a variable, an attribute or an
    imported name."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    out |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    return out


def test_graph_reads_the_points_only_through_their_order():
    # classes, values and keys come from ``PointOrder``, one certified order
    found = imported_modules(SRC / "graph.py")
    assert "univoque.base.order_points" in found
    assert "univoque.base.special_points" not in found
    assert "special_points" not in names(ast.parse((SRC / "graph.py").read_text()))


def test_only_the_field_reads_the_interval_of_q():
    # q's isolating interval is stored as [n_lo, n_hi] / 2^e inside the
    # number field; every other layer takes q's bounds from the field's
    # enclosure of q, and ``minpoly`` gets the interval as arguments
    stored = {"n_lo", "n_hi", "e"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebraic.py":
            tree = ast.parse(path.read_text())
            attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not attrs & stored, path.name


def test_q_moves_only_through_refine_to():
    # q moves one way, by the field's ``refine_to``: no module but the field
    # calls an attribute ``refine``, the field has no public bisection, and
    # outside the field only the point order in ``base`` calls ``refine_to``
    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebraic.py":
            tree = ast.parse(path.read_text())
            called = {node.func.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
            assert "refine" not in called, path.name
            assert "refine_to" not in called or path.name == "base.py", path.name
    assert not hasattr(NumberField, "refine")


def test_graph_hot_paths_walk_the_successor_map():
    # the condensation, the order embedding and the tower read the map
    # ``out``, never ``edges``, the triple list each access builds anew
    tree = ast.parse((SRC / "graph.py").read_text())
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name in ("_scc", "_order_embedding_fault", "tower_decompose"):
        attrs = {node.attr for node in ast.walk(fns[name]) if isinstance(node, ast.Attribute)}
        assert "out" in attrs and "edges" not in attrs, name


def test_base_class_preconditions_live_in_base():
    # the graph and spectral layers leave every class check to ``BaseContext``
    # (``require_graph_class``, ``require_limit_class``); the CLI reads the
    # class only to pick the default mode of ``oracle words``
    for name in ("graph.py", "spectral.py"):
        assert "BaseClass" not in names(ast.parse((SRC / name).read_text())), name
    tree = ast.parse((SRC / "cli.py").read_text())
    readers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and "BaseClass" in names(fn)}
    assert readers == {"cmd_oracle_words"}
    assert not [node for node in tree.body if "BaseClass" in names(node)
                and not isinstance(node, (ast.FunctionDef, ast.ImportFrom))]


BUILD_CONTEXTS = """
import sys
from univoque.base import new_base_context, v_successor
for M, beta in {battery!r}:
    new_base_context(M, beta)
ctx = new_base_context(1, "111(0)")
for _ in range(6):
    ctx = v_successor(ctx)
print(ctx.field.deg, "univoque.minpoly" in sys.modules)
"""


def test_building_fields_loads_no_factoring():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", BUILD_CONTEXTS.format(battery=BATTERY)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["97", "False"]


POINTS_GRAPHS_AND_RADII = """
import sys
from univoque.base import new_base_context, order_points, v_successor
from univoque.graph import TILDE, build_graph
from univoque.spectral import spectral_report
for M, beta, depth in (1, "111(0)", 5), (3, "331(0)", 3):
    ctx = new_base_context(M, beta)
    for _ in range(depth):
        ctx = v_successor(ctx)
        order_points(ctx)
        spectral_report(build_graph(ctx, TILDE), ctx)
print("univoque.minpoly" in sys.modules)
"""


def test_points_graphs_and_radii_load_no_factoring():
    # the exact signs of the point order take the field's own coprimality test
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", POINTS_GRAPHS_AND_RADII],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


# modules a bare interpreter of this environment holds (a site hook may
# preload some) are not counted as loaded by the calls
CLI_CALLS = """
import sys
bare = set(sys.modules)
from univoque import cli
codes = []
for argv in {calls!r}:
    try:
        codes.append(cli.main(argv))
    except SystemExit as e:
        codes.append(e.code)
print(repr((codes, sorted(name.removeprefix("univoque.") for name in set(sys.modules) - bare
                          if name.startswith("univoque.")
                          or name in ("json", "fractions", "decimal")))))
"""


def cli_loads(*calls):
    """The exit codes of ``cli.main`` on each argv of ``calls``, made in one
    fresh interpreter, and the package modules (and ``json``, ``fractions``
    and ``decimal``) loaded then."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", CLI_CALLS.format(calls=calls)],
                         env=env, capture_output=True, text=True, check=True).stdout
    codes, modules = ast.literal_eval(out.splitlines()[-1])
    return codes, set(modules)


def test_help_and_usage_errors_load_no_layer():
    # argparse exits before any command runs, so nothing past the parser
    # loads, and neither fractions nor decimal
    codes, modules = cli_loads(["--help"], ["graph", "--help"], ["base", "classify", "-M", "1"])
    assert codes == [0, 0, 2]
    assert modules == {"cli"}


COMMAND_LAYERS = {"cli", "digits", "walk", "base", "algebraic"}


@pytest.mark.parametrize("argv,layers", [
    ("base classify -M 1 --beta 111(0)", set()),
    ("graph scc -M 1 --beta 111(0)", {"graph"}),
    ("dim -M 1 --beta 111(0)", {"graph", "spectral"}),
    ("expansions count -M 2 --beta 2(0) --x (1)", {"expansions"}),
    ("oracle words -M 1 --beta 111(0) -L 3", {"oracle"}),
    # these four certify the minimal polynomial of an irrational q
    ("base points -M 1 --beta 111(0)", {"minpoly"}),
    ("expansions witness -M 1 --beta 111(0) -m 2", {"expansions", "minpoly"}),
    ("expansions count -M 1 --beta 111(0) --x (1)", {"expansions", "minpoly"}),
    ("oracle brute-count -M 1 --beta 111(0) --x 1(0) --depth 6", {"oracle", "minpoly"}),
])
def test_each_command_loads_only_its_layers(argv, layers):
    # no command loads fractions or decimal: its values are ints and floats
    codes, modules = cli_loads(argv.split())
    assert codes == [0]
    assert modules == COMMAND_LAYERS | layers


PROCESS_MEMOS = {"functools.lru_cache", "functools.cache"}


def process_memos(text):
    """The ``functools`` memo decorators a source text names, whether imported
    by name or read as attributes of the module."""
    tree = ast.parse(text)
    named = {f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    named |= {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return named & PROCESS_MEMOS


def test_no_process_wide_memo():
    assert process_memos("import functools\n@functools.cache\ndef f(x): pass\n")
    assert process_memos("from functools import lru_cache\n")
    for path in sorted(SRC.glob("*.py")):
        assert not process_memos(path.read_text()), path.name


def test_no_runtime_dependencies():
    # the package runs on the standard library alone; sympy, numpy and the
    # test tools stay optional
    tomllib = pytest.importorskip("tomllib")      # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == []
