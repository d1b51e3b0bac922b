"""The CLI's output contract: a fixed corpus of commands, run in-process
through ``cli.main``, must keep its exit code and the sha256 of its stdout
and stderr, as recorded in ``cli_corpus.json``.

A deliberate change of output regenerates the file with
``PYTHONPATH=src python tests/test_cli_corpus.py`` in the same change, and
CHANGES.md names each command whose entry changed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from univoque import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")

# the recurring battery of tests/conftest.py
BATTERY = [(1, "111(0)"), (1, "11011(0)"), (4, "4331(0)"), (3, "331(0)"), (4, "322(0)"),
           (1, "111001010(0)")]
REDUCIBLE = [(7, "77041503(0)"), (7, "744516145(0)"), (1, "1101011(0)")]


def readme_commands():
    """The ``univoque`` lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("univoque ")]


def other_mode(argv):
    """The same command in its other output mode."""
    if "--json" in argv:
        return [a for a in argv if a != "--json"]
    if "--dot" in argv:                          # graph build: JSON to stdout
        return argv[:argv.index("--dot")] + ["--json", "-"]
    return argv + ["--json"]


def corpus():
    readme = readme_commands()
    cmds = readme + [other_mode(a) for a in readme]
    cmds.append(["base", "chain", "-M", "1", "--beta", "11(0)", "--kind", "r", "--steps", "3"])
    for M, beta in BATTERY:
        base = ["-M", str(M), "--beta", beta]
        cmds += [
            ["base", "classify", *base],
            ["base", "points", *base],
            ["graph", "scc", *base],
            ["dim", *base, "--per-scc"],
            ["graph", "connectivity", *base],
            ["graph", "verify", *base, "--theorem", "1.4"],
            ["graph", "verify", *base, "--theorem", "1.3"],
            *(["expansions", "witness", *base, "-m", str(m)] for m in range(1, 5)),
            ["expansions", "count", *base, "--x", "1(01)"],
        ]
        L = "8" if M == 1 else "5"
        cmds += [["oracle", "words", *base, "-L", L],
                 ["oracle", "words", *base, "-L", L, "--mode", "u"]]
    tri = ["-M", "1", "--beta", "111(0)"]
    cmds += [["graph", "verify", *tri, "--theorem", t] for t in ("iso", "tower")]
    cmds.append(["graph", "verify", *tri, "--theorem", "1.3", "--json"])
    cmds += [["graph", "build", *tri, "--variant", v] for v in ("full", "tilde1")]
    cmds += [["graph", "scc", *tri, "--variant", v] for v in cli._VARIANTS]
    cmds += [
        ["expansions", "count", *tri, "--x", "1(01)", "--cap", "1"],
        ["expansions", "witness", *tri, "-m", "2", "--tail", "(01)"],
        ["oracle", "words", *tri, "-L", "8", "--mode", "v"],
        ["dim", *tri],
        ["expansions", "count", *tri, "--x", "(10)"],
        ["oracle", "words", *tri, "-L", "6"],
        ["base", "chain", *tri, "--kind", "v", "--steps", "8"],
    ]
    # counts that pass the cap: the remainders of a point of a non-Pisot base,
    # and the 24 expansions over 22 remainders of a point of 21(0)
    cmds += [
        ["expansions", "count", "-M", "1", "--beta", "111001010(0)", "--x", "011(10)",
         "--cap", "300"],
        ["expansions", "count", "-M", "2", "--beta", "21(0)", "--x", "02021220120(1)",
         "--cap", "23"],
    ]
    # integer bases: 2 by a finite and 3 by a periodic greedy expansion of 1
    cmds += [["base", "classify", "-M", "2", "--beta", beta] for beta in ("2(0)", "(2)")]
    cmds += [
        ["base", "classify", "-M", "0", "--beta", "1(0)"],
        ["base", "classify", "-M", "1", "--beta", "1a(0)"],
        ["base", "classify", "-M", "1", "--beta", "(10)"],
        ["graph", "build", "-M", "1", "--beta", "1010(0)"],
        ["base", "classify", "-M", "12", "--beta", "12,0,1(0)"],
    ]
    # a periodic greedy expansion of 1: the periodic branch of base_polynomial
    periodic = ["-M", "1", "--beta", "1(10)"]
    for beta in ("1(10)", "1(010)"):
        cmds += [["base", "classify", "-M", "1", "--beta", beta, *mode]
                 for mode in ([], ["--json"])]
    cmds += [["graph", "build", *periodic], ["expansions", "count", *periodic, "--x", "1(0)"]]
    # bases whose defining polynomial keeps a factor besides the minimal one
    # after the squarefree part and the cyclotomic strip
    for M, beta in REDUCIBLE:
        base = ["-M", str(M), "--beta", beta]
        cmds += [
            ["base", "points", *base, "--json"],
            ["base", "classify", *base, "--json"],
            ["dim", *base, "--per-scc"],
            ["expansions", "count", *base, "--x", "1(01)"],
        ]
    # chains refused before any base is built: their total period is too large
    cmds += [
        ["base", "chain", *tri, "--kind", "v", "--steps", "12"],
        ["base", "chain", *tri, "--kind", "r", "--steps", "3000"],
        ["graph", "verify", *tri, "--theorem", "1.4", "--steps", "9"],
    ]
    # searches refused at their bounds: a prefix tree past its node budget,
    # a witness past its zero block bound, more words than the listing cap
    cmds += [
        ["oracle", "brute-count", "-M", "9", "--beta", "2(0)", "--x", "1(0)"],
        ["expansions", "witness", *tri, "-m", "10000"],
        ["oracle", "words", *tri, "-L", "40000"],
    ]
    # a lone digit above 9, printed so that it reads back as itself
    wide = ["-M", "10", "--beta", "(10,10)"]
    cmds += [["base", "classify", *wide], ["expansions", "count", *wide, "--x", "(10,10)"]]
    # edge inputs refused with exit 2: limit-only operations on an in-between
    # base, a witness on it, which has no strict tail, a step, an m and a
    # depth out of range, an empty period, a word whose alpha has a shorter
    # period, which is not greedy, and steps given to the isomorphism check
    between = ["-M", "1", "--beta", "1101(0)"]
    cmds += [
        ["graph", "connectivity", *between],
        ["expansions", "witness", *between, "-m", "2"],
        ["graph", "verify", *between, "--theorem", "1.4"],
        ["graph", "verify", *tri, "--theorem", "1.4", "--steps", "0"],
        ["expansions", "witness", *tri, "-m", "0"],
        ["oracle", "brute-count", *tri, "--x", "(10)", "--depth", "25"],
        ["base", "classify", "-M", "1", "--beta", "1()"],
        ["base", "classify", "-M", "1", "--beta", "1011(0)"],
        ["graph", "verify", *tri, "--theorem", "1.3", "--steps", "99"],
    ]
    return {shlex.join(a): a for a in cmds}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv):
    rc, out, err = run(argv)
    return {"exit": rc, "stdout": sha(out), "stderr": sha(err)}


def head(text, n=5):
    return "\n".join(text.splitlines()[:n])


def test_cli_corpus():
    expected = json.loads(CORPUS.read_text())
    cmds = corpus()
    assert list(expected) == list(cmds), "the corpus changed: regenerate cli_corpus.json"
    faults = []
    for key, argv in cmds.items():
        rc, out, err = run(argv)
        if {"exit": rc, "stdout": sha(out), "stderr": sha(err)} != expected[key]:
            faults.append(f"{key}\n  exit {rc}\n  stdout:\n{head(out)}\n  stderr:\n{head(err)}")
    assert not faults, "output changed:\n" + "\n".join(faults)


def subcommand_parsers(parser, prefix=()):
    """Every command path of the parser with its leaf parser, e.g.
    (("graph", "scc"), <parser>) and (("dim",), <parser>)."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(prefix, parser)]
    return [leaf for a in subs for name, p in a.choices.items()
            for leaf in subcommand_parsers(p, prefix + (name,))]


def test_corpus_covers_every_command():
    leaves = subcommand_parsers(cli.make_parser())
    assert len(leaves) >= 12                      # the walk reaches the leaves
    argvs = list(corpus().values())
    missing = []
    for path, parser in leaves:
        runs = [a for a in argvs if tuple(a[:len(path)]) == path]
        if not runs:
            missing.append(path)
        for action in parser._actions:
            flags = action.option_strings
            if not flags or isinstance(action, argparse._HelpAction):
                continue
            if not any(f in a for a in runs for f in flags):
                missing.append((*path, flags[0]))
            for value in action.choices or ():
                if not any(a[i] in flags and a[i + 1] == value
                           for a in runs for i in range(len(a) - 1)):
                    missing.append((*path, flags[0], value))
    assert not missing


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({k: record(a) for k, a in corpus().items()}, indent=1) + "\n")
