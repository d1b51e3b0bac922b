import json
import os
import signal
import subprocess
import sys
import time

import pytest

import univoque
from test_cli_corpus import readme_commands, subcommand_parsers
from univoque import base, cli, graph, oracle, walk
from univoque import digits as dg
from univoque import expansions as ex
from univoque.algebraic import AlgebraicReal, DegenerateInputError
from univoque.base import (BaseClass, InternalConsistencyError, UnsupportedClassError,
                           new_base_context, r_chain, v_successor)
from univoque.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert len(commands) == 12
    for argv in commands:
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and out and not err, argv


def test_classify_json(capsys):
    rc, out, _ = run(capsys, "base", "classify", "-M", "1", "--beta", "111(0)", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["class"] == "closureU\\U"
    assert data["q_approx"].startswith("1.83928675")
    assert data["poly"] == [-1, -1, -1, 1]


def test_classify_text(capsys):
    rc, out, _ = run(capsys, "base", "classify", "-M", "1", "--beta", "11(0)")
    assert rc == 0
    assert "V\\closureU" in out
    assert "1.618033988750" in out


def test_graph_build_dot(capsys):
    rc, out, _ = run(capsys, "graph", "build", "-M", "4", "--beta", "322(0)",
                     "--variant", "tilde", "--dot", "-")
    assert rc == 0
    assert out.count('";') == 5
    assert out.count("->") == 9
    # byte-identical across runs
    rc2, out2, _ = run(capsys, "graph", "build", "-M", "4", "--beta", "322(0)",
                       "--variant", "tilde", "--dot", "-")
    assert out2 == out


def test_graph_build_json_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    rc, _, _ = run(capsys, "graph", "build", "-M", "4", "--beta", "322(0)",
                   "--variant", "tilde", "--json", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert len(data["vertices"]) == 5 and len(data["edges"]) == 9
    assert all(set(v) >= {"name", "lo_approx", "hi_approx"} for v in data["vertices"])


def test_graph_scc(capsys):
    rc, out, _ = run(capsys, "graph", "scc", "-M", "4", "--beta", "322(0)", "--json")
    data = json.loads(out)
    assert not data["strongly_connected"]
    assert ["(a2,b2)"] in data["components"]


def test_graph_verify(capsys):
    rc, out, _ = run(capsys, "graph", "verify", "-M", "1", "--beta", "111(0)",
                     "--theorem", "1.3")
    assert rc == 0 and "True" in out
    # the successor isomorphism is claimed only on closureU\U; elsewhere the
    # command rejects the base as input, as --theorem 1.4 does
    rc, out, err = run(capsys, "graph", "verify", "-M", "1", "--beta", "111001(0)",
                       "--theorem", "1.3")
    assert rc == 2 and not out
    assert err.startswith("error: ") and "limit-of-uniqueness" in err
    rc, out, _ = run(capsys, "graph", "verify", "-M", "1", "--beta", "111(0)",
                     "--theorem", "1.4", "--steps", "2", "--json")
    data = json.loads(out)
    assert data["levels"] == [3, 6]


@pytest.mark.parametrize("theorem", ["1.3", "iso"])
def test_graph_verify_refuses_steps_off_the_tower(capsys, monkeypatch, theorem):
    # the successor isomorphism has no steps: an explicit --steps is an
    # input error, refused before any graph is built
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graph, "tower_decompose", no_graph)
    monkeypatch.setattr(graph, "build_graph", no_graph)
    rc, out, err = run(capsys, "graph", "verify", "-M", "1", "--beta", "111(0)",
                       "--theorem", theorem, "--steps", "99")
    assert rc == 2 and not out
    assert err.startswith("error: ") and "--theorem 1.4/tower" in err


def test_graph_connectivity(capsys):
    rc, out, _ = run(capsys, "graph", "connectivity", "-M", "1", "--beta", "111001010(0)",
                     "--json")
    data = json.loads(out)
    assert data["strongly_connected"] and not data["sufficient_b2"]


def test_dim_per_scc(capsys):
    rc, out, _ = run(capsys, "dim", "-M", "1", "--beta", "111001000111001(0)", "--per-scc")
    assert rc == 0
    assert "1.14798" in out and "1.61803" in out


def test_expansions_count(capsys):
    rc, out, _ = run(capsys, "expansions", "count", "-M", "2", "--beta", "2(0)",
                     "--x", "(1)", "--json")
    assert json.loads(out)["kind"] == "INFINITE_CYCLE"


def test_expansions_witness(capsys):
    rc, out, _ = run(capsys, "expansions", "witness", "-M", "1", "--beta", "111(0)",
                     "-m", "2", "--json")
    data = json.loads(out)
    assert data["verified_count"] == 2
    assert len(data["expansions"]) == 2


def test_expansions_witness_default_tail(capsys):
    rc, out, _ = run(capsys, "expansions", "witness", "-M", "1", "--beta", "111(0)", "-m", "2")
    assert rc == 0 and out.startswith("tail (00101)\n")
    # no strict tail exists at all, which is not a search bound
    rc, out, err = run(capsys, "expansions", "witness", "-M", "1", "--beta", "111001(0)",
                       "-m", "2")
    assert rc == 2 and not out
    assert "does not exist" in err and "period cap" not in err


def test_base_chain_r_kind(capsys):
    rc, out, _ = run(capsys, "base", "chain", "-M", "4", "--beta", "322(0)",
                     "--kind", "r", "--steps", "2", "--json")
    assert rc == 0
    data = json.loads(out)
    assert [d["beta"] for d in data] == ["322(0)", "322123(0)", "322123123(0)"]


def test_oracle_words_default_mode(capsys):
    rc, out, _ = run(capsys, "oracle", "words", "-M", "1", "--beta", "11(0)", "-L", "3",
                     "--json")
    data = json.loads(out)
    assert data["mode"] == "U_PREFIX" and data["count"] == 2


def test_oracle_words_default_mode_builds_one_context(capsys, monkeypatch):
    calls = []
    inner = base.new_base_context

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(base, "new_base_context", counted)
    rc, out, _ = run(capsys, "oracle", "words", "-M", "1", "--beta", "11(0)", "-L", "3")
    assert rc == 0
    assert len(calls) == 1
    assert out.split() == ["2", "words", "000", "111"]


def test_oracle_words_count_cap(capsys):
    # about 7e11 words: counted over the automaton and refused before listing
    start = time.perf_counter()
    rc, out, err = run(capsys, "oracle", "words", "-M", "9", "--beta", "981(0)", "-L", "12")
    assert time.perf_counter() - start < 2.0
    assert rc == 2 and not out
    assert err.startswith("error: ") and "exceed the enumeration cap" in err


def test_oracle_brute(capsys):
    rc, out, _ = run(capsys, "oracle", "brute-count", "-M", "2", "--beta", "2(0)",
                     "--x", "(1)", "--depth", "10", "--json")
    data = json.loads(out)
    assert data["lower"] >= 10


def test_validation_exit_code(capsys):
    rc, _, err = run(capsys, "base", "classify", "-M", "1", "--beta", "011(0)")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "graph", "build", "-M", "1", "--beta", "101(0)")
    assert rc == 2


@pytest.mark.parametrize("M,beta,message", [
    ("0", "1(0)", "alphabet bound must be at least 1"),
    ("-1", "1(0)", "alphabet bound must be at least 1"),
    ("1", "1a(0)", "malformed sequence literal '1a(0)'"),
    ("1", "1,,2(0)", "malformed sequence literal '1,,2(0)'"),
    ("12", "1_0,1(0)", "malformed sequence literal '1_0,1(0)'"),
    ("1", "1, 1(0)", "malformed sequence literal '1, 1(0)'"),
    ("1", "1,+1(0)", "malformed sequence literal '1,+1(0)'"),
    ("1", "１１１(0)", "malformed sequence literal '１１１(0)'"),
])
def test_edge_input_exit_code(capsys, M, beta, message):
    rc, out, err = run(capsys, "base", "classify", "-M", M, "--beta", beta)
    assert rc == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag,name", [("--dot", "missing/g.dot"), ("--json", ".")])
def test_unwritable_output_path_exit_code(capsys, tmp_path, flag, name):
    # a missing directory, then a directory where a file should go
    path = str(tmp_path / name)
    rc, out, err = run(capsys, "graph", "build", "-M", "4", "--beta", "322(0)", flag, path)
    assert rc == 2 and not out
    assert err.startswith(f"error: cannot write {path!r}: ")


@pytest.mark.parametrize("argv", [
    ("base", "classify", "-M", "1", "--beta", "111(0)"),
    ("oracle", "words", "-M", "1", "--beta", "111(0)", "-L", "18"),
    ("--help",),
    ("base", "--help"),
])
def test_closed_stdout_ends_quietly(argv):
    # the reader is gone before the command starts, so the first write fails
    # whatever the size of the pipe buffer; buffered stdout fails only when
    # it is flushed, unbuffered stdout at the first print, where argparse
    # drops a failed write of its help text itself and exits 0
    unbuffered_rc = 0 if "--help" in argv else 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(univoque.__file__))
    for unbuffered, rc in (({}, 1), ({"PYTHONUNBUFFERED": "1"}, unbuffered_rc)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "univoque.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env | unbuffered, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (rc, b""), unbuffered


def test_precision_flag_refused(capsys):
    # the field isolates q to a fixed width and refines it on demand
    with pytest.raises(SystemExit) as exit_info:
        main(["base", "classify", "-M", "1", "--beta", "11(0)", "--precision", "0.001"])
    out = capsys.readouterr()
    assert exit_info.value.code == 2 and not out.out
    assert "unrecognized arguments: --precision" in out.err


def parser_exit(capsys, parse, argv):
    """The exit code, stdout and stderr of ``parse(argv)``, which exits."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out = capsys.readouterr()
    return exit_info.value.code, out.out, out.err


def test_each_process_prints_what_the_full_parser_prints(capsys):
    # main builds only the parser of the command its arguments name: the
    # help of every command and group, and each usage error, are those of
    # the parser with every command built
    full = cli.make_parser()
    leaves = [path for path, _parser in subcommand_parsers(full)]
    paths = [()] + sorted({path[:1] for path in leaves if len(path) > 1}) + leaves
    tri = ["-M", "1", "--beta", "111(0)"]
    argvs = [[*path, "--help"] for path in paths] + [
        [], ["nope"], ["base"], ["base", "nope"], ["base", "classify", "-M", "1"],
        ["dim", "-M", "x", "--beta", "111(0)"], ["graph", "build", *tri, "--variant", "x"],
        ["expansions", "count", *tri, "--x", "1(0)", "--bogus"], ["oracle", "words", *tri],
    ]
    assert len(argvs) > 20
    for argv in argvs:
        got = parser_exit(capsys, main, argv)
        assert got == parser_exit(capsys, cli.make_parser().parse_args, argv), argv
        assert got[0] == (0 if "--help" in argv else 2) and (got[1] or got[2]), argv


def test_plain_points_build_no_json_payload(capsys, monkeypatch):
    # the payload, with its second decimal and reduction per value, is built
    # only under --json
    calls = []
    monkeypatch.setattr(AlgebraicReal, "to_json", lambda self: calls.append(self) or {})
    argv = ["base", "points", "-M", "1", "--beta", "111001(0)"]
    rc, out, _err = run(capsys, *argv)
    assert rc == 0 and "<" in out and calls == []
    rc, out, _err = run(capsys, *argv, "--json")
    assert rc == 0 and len(calls) == len(json.loads(out)["classes"]) > 1


def test_dim_empty_central_graph(capsys):
    # the golden-ratio base has an empty central graph: radius 0, dimension 0
    rc, out, err = run(capsys, "dim", "-M", "1", "--beta", "11(0)")
    assert rc == 0 and not err
    assert "radius    0.000000000000" in out
    assert "dimension 0.000000000000" in out
    # strict JSON: the entropy log(0) must not appear as -Infinity
    rc, out, err = run(capsys, "dim", "-M", "1", "--beta", "11(0)", "--json")
    assert rc == 0 and not err

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    data = json.loads(out, parse_constant=reject)
    assert data["radius"] == 0.0 and data["entropy"] is None


def test_tail_search_budget_exit_code(capsys, monkeypatch):
    from univoque import expansions
    monkeypatch.setattr(expansions, "TAIL_NODE_BUDGET", 2)
    rc, out, err = run(capsys, "expansions", "witness", "-M", "1", "--beta", "111(0)",
                       "-m", "2")
    assert rc == 2 and not out
    assert err.startswith("error: tail search stopped after 2 nodes")


@pytest.mark.parametrize("argv", [
    ("oracle", "words", "-M", "1", "--beta", "111(0)", "-L", "-1"),
    ("oracle", "brute-count", "-M", "1", "--beta", "111(0)", "--x", "1000000(00101)",
     "--depth", "-3"),
    ("base", "chain", "-M", "1", "--beta", "11(0)", "--kind", "v", "--steps", "-1"),
    ("expansions", "count", "-M", "2", "--beta", "2(0)", "--x", "(1)", "--cap", "-5"),
])
def test_negative_bounds_exit_code(capsys, monkeypatch, argv):
    # a search that starts in spite of its negative bound fails at once
    # instead of running without end
    def no_search(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(oracle, "LexAutomaton", no_search)
    monkeypatch.setattr(AlgebraicReal, "mul_gen", no_search)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and not out
    assert err.startswith("error: ") and "nonnegative" in err


def period_288_beta():
    """The beta of r_chain(v_successor^5(111(0)), 2), a limit base of period
    288 whose successor has period 576."""
    ctx = new_base_context(1, "111(0)")
    for _ in range(5):
        ctx = v_successor(ctx)
    ctx = r_chain(ctx, 2)
    assert ctx.n_period == 288 and ctx.base_class is BaseClass.IN_CLOSURE_U_NOT_U
    return dg.format_seq(ctx.beta)


@pytest.mark.parametrize("argv,reason", [
    (("base", "chain", "-M", "1", "--beta", "111(0)", "--kind", "v", "--steps", "12"),
     f"bound {cli.CHAIN_PERIOD_BOUND} "),
    (("base", "chain", "-M", "1", "--beta", "111(0)", "--kind", "r", "--steps", "3000"),
     f"bound {cli.CHAIN_PERIOD_BOUND} "),
    (("graph", "verify", "-M", "1", "--beta", "111(0)", "--theorem", "1.4", "--steps", "9"),
     f"bound {graph.TOWER_PERIOD_BOUND} "),
    # a base with no graph has period 0: refused for its class, not summed
    (("base", "chain", "-M", "1", "--beta", "1(10)", "--kind", "v", "--steps", "10000000000"),
     "has no interval graph"),
    (("base", "chain", "-M", "1", "--beta", "1(10)", "--kind", "r", "--steps", "10000000000"),
     "has no interval graph"),
    # the successor isomorphism takes its successor from the bounded tower
    (("graph", "verify", "-M", "1", "--beta", period_288_beta(), "--theorem", "1.3"),
     f"bound {graph.TOWER_PERIOD_BOUND} "),
], ids=["v", "r", "tower", "v-no-graph", "r-no-graph", "iso"])
def test_long_chains_exit_2_at_once(capsys, argv, reason):
    # unbounded, each of these runs for more than 25 s
    def stalled(signum, frame):
        raise TimeoutError("the chain was built before it was refused")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(1)
    try:
        rc, out, err = run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2 and not out
    assert err.startswith("error: ") and reason in err


def test_long_witness_exits_2_at_once(capsys):
    # unbounded, m = 10000 on 111(0) prints 300 MB over several minutes
    def stalled(signum, frame):
        raise TimeoutError("the witness was built before it was refused")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(1)
    try:
        rc, out, err = run(capsys, "expansions", "witness", "-M", "1", "--beta", "111(0)",
                           "-m", "10000")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2 and not out
    assert err.startswith("error: ") and f"more than {ex.WITNESS_ZERO_BOUND}" in err


def test_too_many_words_names_the_cap(capsys):
    # the count has over 4300 digits, more than Python converts to a string
    rc, out, err = run(capsys, "oracle", "words", "-M", "1", "--beta", "111(0)", "-L", "40000")
    assert rc == 2 and not out
    assert err == f"error: more than {walk.WORD_CAP} words of length 40000: they exceed " \
                  "the enumeration cap\n"


@pytest.mark.parametrize("error,code", [
    (InternalConsistencyError("order"), 3),
    (graph.StructuralError("tower"), 3),
    (ValueError("input"), 2),
    (UnsupportedClassError("class"), 2),
    (DegenerateInputError("degenerate"), 2),
    (dg.AlphabetError("digit"), 2),
    (ex.PeriodicityBoundError("period"), 2),
    (ex.TailSearchBudgetError(5, 2, 6), 2),
], ids=lambda e: type(e).__name__ if isinstance(e, Exception) else str(e))
def test_exit_code_map(capsys, monkeypatch, error, code):
    def fail(ctx, args):
        raise error

    monkeypatch.setattr(cli, "cmd_base_classify", fail)
    rc, out, err = run(capsys, "base", "classify", "-M", "1", "--beta", "111(0)")
    assert rc == code and not out
    assert err == ("internal consistency failure: " if code == 3 else "error: ") + f"{error}\n"


def fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(univoque.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


# modules a bare interpreter of this environment holds (a site hook may
# preload some) are not counted as loaded by the command
RUN_COMMAND = """
import contextlib, io, json, sys
bare = set(sys.modules)
from univoque import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        rc = cli.main({argv!r})
    except SystemExit as e:
        rc = e.code
print(json.dumps([rc, out.getvalue(), sorted(set(sys.modules) - bare)]))
"""

# minpoly loads only where a field certifies m_q, which building a field
# never does; the field tests a numerator coprime to its working polynomial
# itself
OPTIONAL = {"graph", "spectral", "expansions", "oracle", "minpoly"}


@pytest.mark.parametrize("argv,loaded", [
    pytest.param(("base", "classify", "-M", "1", "--beta", "111(0)", "--json"),
                 set(), id="base_classify"),
    pytest.param(("base", "chain", "-M", "1", "--beta", "11(0)", "--kind", "v", "--steps", "3",
                  "--json"), set(), id="base_chain"),
    pytest.param(("base", "points", "-M", "4", "--beta", "322(0)", "--json"),
                 {"minpoly"}, id="base_points"),
    pytest.param(("graph", "build", "-M", "4", "--beta", "322(0)", "--variant", "tilde",
                  "--dot", "-"), {"graph"}, id="graph_build"),
    pytest.param(("graph", "scc", "-M", "4", "--beta", "322(0)", "--json"),
                 {"graph"}, id="graph_scc"),
    pytest.param(("graph", "scc", "-M", "3", "--beta", "331003002331002330331003(0)", "--json"),
                 {"graph"}, id="graph_scc_deep"),
    pytest.param(("graph", "verify", "-M", "1", "--beta", "111(0)", "--theorem", "1.4",
                  "--steps", "3", "--json"), {"graph"}, id="graph_verify"),
    pytest.param(("graph", "connectivity", "-M", "1", "--beta", "111001010(0)", "--json"),
                 {"graph"}, id="graph_connectivity"),
    pytest.param(("dim", "-M", "1", "--beta", "111001000111001(0)", "--per-scc", "--json"),
                 {"graph", "spectral"}, id="dim"),
    pytest.param(("expansions", "count", "-M", "2", "--beta", "2(0)", "--x", "(1)", "--json"),
                 {"expansions"}, id="expansions_count"),
    pytest.param(("expansions", "witness", "-M", "1", "--beta", "111(0)", "-m", "3", "--json"),
                 {"expansions", "minpoly"}, id="expansions_witness"),
    pytest.param(("oracle", "words", "-M", "1", "--beta", "11(0)", "-L", "4", "--json"),
                 {"oracle"}, id="oracle_words"),
    pytest.param(("oracle", "brute-count", "-M", "1", "--beta", "111(0)", "--x",
                  "1000000(00101)", "--depth", "15", "--json"),
                 {"oracle", "minpoly"}, id="oracle_brute_count"),
    pytest.param(("--help",), set(), id="help"),
])
def test_command_loads_only_its_layers(argv, loaded):
    # the commands of the cli benchmark (bench/clicmds.py), each in a fresh process
    rc, out, added = fresh_interpreter(RUN_COMMAND.format(argv=list(argv)))
    assert rc == 0 and out
    assert {m.split(".")[1] for m in added if m.startswith("univoque.")} & OPTIONAL == loaded
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(added)
    if argv == ("--help",):
        assert "usage:" in out


def test_import_univoque_loads_no_layer():
    added, layer = fresh_interpreter("import json, sys\n"
                                     "bare = set(sys.modules)\n"
                                     "import univoque\n"
                                     "added = sorted(set(sys.modules) - bare)\n"
                                     "layer = univoque.graph.scc.__module__\n"
                                     "print(json.dumps([added, layer]))\n")
    assert [m for m in added if m.startswith("univoque")] == ["univoque"]
    assert layer == "univoque.graph"


def test_package_exports_resolve_on_access():
    namespace = {}
    exec("from univoque import *", namespace)
    assert set(univoque.__all__) <= set(namespace) and set(univoque.__all__) <= set(dir(univoque))
    from univoque import build_graph, count_expansions
    assert build_graph is graph.build_graph and count_expansions is ex.count_expansions
    with pytest.raises(AttributeError):
        univoque.no_such_name
