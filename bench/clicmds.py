"""The cli workload: the README's command lines, each with a checked property.

Every command runs as a fresh ``python -m univoque.cli`` child, one at a
time.  A command fails when it exits with a code other than 0 or runs past
its timeout; its output is then checked for one stated property of the
answer (see ``Command.check``).
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np


class CommandFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    prop: object          # output text -> list of problems

    def check(self, text):
        try:
            return self.prop(text)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"]


def run_command(cmd, env, cwd, timeout):
    """Wall time of one child run and its stdout; raises CommandFailed."""
    argv = [sys.executable, "-m", "univoque.cli", *cmd.argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise CommandFailed(f"{cmd.name}: no answer within {timeout} s") from None
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise CommandFailed(f"{cmd.name}: exit code {proc.returncode}: {proc.stderr.strip()}")
    return dt, proc.stdout


def run_help(env, cwd, timeout):
    dt, out = run_command(Command("help", ("--help",), None), env, cwd, timeout)
    if "usage:" not in out:
        raise CommandFailed("--help printed no usage line")
    return dt


def poly_value(poly, x):
    return sum(c * x ** i for i, c in enumerate(poly))


def prop_classify(text):
    d = json.loads(text)
    q, poly, M = float(d["q_approx"]), d["poly"], d["M"]
    scale = sum(abs(c) * q ** i for i, c in enumerate(poly))
    out = []
    if not 1 < q <= M + 1:
        out.append(f"q_approx {q} outside (1, {M + 1}]")
    if abs(poly_value(poly, q)) > 1e-9 * scale:
        out.append(f"q_approx {q} is not a root of {poly}")
    return out


def prop_chain(text):
    steps = json.loads(text)
    out = []
    if len(steps) != 4:
        out.append(f"{len(steps)} chain entries, expected 4")
    qs = [float(s["q_approx"]) for s in steps]
    if qs != sorted(set(qs)):
        out.append(f"bases along the successor chain do not increase: {qs}")
    for s in steps:
        q = float(s["q_approx"])
        scale = sum(abs(c) * q ** i for i, c in enumerate(s["poly"]))
        if abs(poly_value(s["poly"], q)) > 1e-9 * scale:
            out.append(f"{s['beta']}: q_approx is not a root of its polynomial")
    return out


def prop_points(text):
    d = json.loads(text)
    vals = [float(c["value"]["approx"]) for c in d["classes"]]
    names = [n for c in d["classes"] for n in c["names"]]
    out = []
    if vals != sorted(vals) or len(set(vals)) != len(vals):
        out.append("point classes are not strictly increasing in value")
    N, M = 3, 4       # 322(0): period 3, alphabet 0..4
    if len(names) != 2 * N + 2 * (M + 1):
        out.append(f"{len(names)} named points, expected {2 * N + 2 * (M + 1)}")
    return out


DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[label="(\d+)"\];$')
DOT_NODE = re.compile(r'^\s*"([^"]+)";$')


def prop_dot(text):
    nodes, labels = set(), {}
    out = []
    for line in text.splitlines():
        if m := DOT_NODE.match(line):
            nodes.add(m.group(1))
        elif m := DOT_EDGE.match(line):
            src, dst, k = m.group(1), m.group(2), int(m.group(3))
            if src not in nodes or dst not in nodes:
                out.append(f"edge {src} -> {dst} uses an undeclared vertex")
            labels.setdefault(src, set()).add(k)
    if not text.startswith("digraph") or not nodes:
        out.append("no DOT graph")
    if any(len(ks) != 1 for ks in labels.values()):
        out.append("a vertex has edges with different digits")
    if any(not 0 <= k <= 4 for ks in labels.values() for k in ks):
        out.append("edge digit outside 0..4")
    return out


def prop_scc(text):
    d = json.loads(text)
    comps, cond = d["components"], d["condensation"]
    out = []
    flat = [v for c in comps for v in c]
    if len(flat) != len(set(flat)):
        out.append("components overlap")
    if d["strongly_connected"] != (len(comps) == 1):
        out.append("strongly_connected disagrees with the component count")
    succ = {i: set() for i in range(len(comps))}
    for i, j in cond:
        succ[i].add(j)
    seen, done = set(), set()

    def cyclic(v):
        seen.add(v)
        for w in succ[v]:
            if w in seen and w not in done or w not in seen and cyclic(w):
                return True
        done.add(v)
        return False
    if any(v not in seen and cyclic(v) for v in succ):
        out.append("condensation has a cycle")
    return out


def prop_verify(text):
    d = json.loads(text)
    n, M = 3, 1       # 111(0): period 3, alphabet 0..1
    out = []
    if d["levels"] != [n, 2 * n, 4 * n]:
        out.append(f"tower levels {d['levels']}, expected {[n, 2 * n, 4 * n]}")
    if d["residual"] != n + M - 1:
        out.append(f"{d['residual']} residual vertices, expected {n + M - 1}")
    return out


def prop_connectivity(text):
    d = json.loads(text)
    out = []
    if not d["strongly_connected"] == d["reach_criterion"] == d["m1_ab_criterion"]:
        out.append("connectivity criteria disagree")
    if d["sufficient_b2"] and not d["strongly_connected"]:
        out.append("sufficient condition held on a split graph")
    return out


def prop_dim(text):
    d = json.loads(text)
    # q of 111001000111001(0): 1 = sum of d_i q^-i, solved by numpy
    digits = [int(c) for c in "111001000111001"]
    roots = np.roots([1.0] + [-float(c) for c in digits])
    q = max(r.real for r in roots if abs(r.imag) < 1e-9)
    out = []
    if abs(max(c["radius"] for c in d["scc"]) - d["radius"]) > 1e-9:
        out.append("radius is not the largest component radius")
    if abs(d["entropy"] - math.log(d["radius"])) > 1e-9:
        out.append("entropy is not log(radius)")
    if abs(d["dimension"] - math.log(d["radius"]) / math.log(q)) > 1e-6:
        out.append(f"dimension {d['dimension']} is not log(radius)/log(q) for q = {q}")
    return out


def prop_count(text):
    d = json.loads(text)
    return [] if d["kind"] == "INFINITE_CYCLE" else [f"x = 1 in base 2 counted {d['kind']}"]


def prop_witness(text):
    d = json.loads(text)
    out = []
    if d["verified_count"] != 3:
        out.append(f"witness x_3 verified as {d['verified_count']}")
    if len(set(d["expansions"])) != 3:
        out.append(f"{len(set(d['expansions']))} distinct expansions listed, expected 3")
    return out


def prop_words(text):
    d = json.loads(text)
    words = d["words"]
    out = []
    if d["count"] != len(words) or len(set(words)) != len(words):
        out.append("word count does not match the distinct words listed")
    if any(len(w) != d["L"] for w in words):
        out.append("a word has the wrong length")
    mirror = {"".join(str(1 - int(c)) for c in w) for w in words}
    if mirror != set(words):
        out.append("word set is not closed under reflection")
    return out


def prop_brute(text):
    d = json.loads(text)
    if (d["lower"], d["upper"]) != (3, 3):
        return [f"brute bounds {d['lower']}, {d['upper']} for the 3-expansion witness"]
    return []


COMMANDS = (
    Command("base_classify", ("base", "classify", "-M", "1", "--beta", "111(0)", "--json"),
            prop_classify),
    Command("base_chain", ("base", "chain", "-M", "1", "--beta", "11(0)", "--kind", "v",
                           "--steps", "3", "--json"), prop_chain),
    Command("base_points", ("base", "points", "-M", "4", "--beta", "322(0)", "--json"),
            prop_points),
    Command("graph_build", ("graph", "build", "-M", "4", "--beta", "322(0)", "--variant",
                            "tilde", "--dot", "-"), prop_dot),
    Command("graph_scc", ("graph", "scc", "-M", "4", "--beta", "322(0)", "--json"), prop_scc),
    Command("graph_verify", ("graph", "verify", "-M", "1", "--beta", "111(0)", "--theorem",
                             "1.4", "--steps", "3", "--json"), prop_verify),
    Command("graph_connectivity", ("graph", "connectivity", "-M", "1", "--beta",
                                   "111001010(0)", "--json"), prop_connectivity),
    Command("dim", ("dim", "-M", "1", "--beta", "111001000111001(0)", "--per-scc", "--json"),
            prop_dim),
    Command("expansions_count", ("expansions", "count", "-M", "2", "--beta", "2(0)", "--x",
                                 "(1)", "--json"), prop_count),
    Command("expansions_witness", ("expansions", "witness", "-M", "1", "--beta", "111(0)",
                                   "-m", "3", "--json"), prop_witness),
    Command("oracle_words", ("oracle", "words", "-M", "1", "--beta", "11(0)", "-L", "4",
                             "--json"), prop_words),
    # the 3-expansion witness of 111(0) printed by expansions_witness
    Command("oracle_brute_count", ("oracle", "brute-count", "-M", "1", "--beta", "111(0)",
                                   "--x", "1000000(00101)", "--depth", "15", "--json"),
            prop_brute),
)
