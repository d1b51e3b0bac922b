"""Command-line interface.

Subcommands mirror the library: ``base classify|chain|points``,
``graph build|scc|verify|connectivity``, ``dim``, ``expansions
count|witness`` and ``oracle words|brute-count``.  Output is human-readable
text by default and JSON with --json; every run is deterministic.  Exit
codes: 0 success, 1 stdout closed before the output was written, 2 invalid
input or a search bound reached, 3 internal consistency failure or a failed
check.  Each command imports the layers it runs inside its own function, so
a process loads nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import digits as dg
from .base import (BaseClass, InternalConsistencyError, SearchBoundError, chain, new_base_context,
                   order_points, v_successor)

# total alpha period the bases of one ``base chain`` run may have
CHAIN_PERIOD_BOUND = 4096


def _command(group, name, fn, **kwargs):
    """The subcommand ``name`` of ``group`` (``kwargs`` go to ``add_parser``),
    which runs ``fn`` on the base its flags give."""
    p = group.add_parser(name, **kwargs)
    p.add_argument("-M", type=int, required=True, help="alphabet bound")
    p.add_argument("--beta", required=True,
                   help='greedy expansion of 1 in digit-string form, e.g. "111(0)"')
    p.set_defaults(fn=fn)
    return p


def _context(args):
    return new_base_context(args.M, args.beta)


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in text_lines:
            print(line)


def _write(path, content):
    if path == "-":
        sys.stdout.write(content)
        return
    try:
        fh = open(path, "w")
    except OSError as e:                        # an output path is input too
        raise ValueError(f"cannot write {path!r}: {e.strerror}") from None
    with fh:
        fh.write(content)


def cmd_base_classify(args):
    ctx = _context(args)
    payload = ctx.to_json()
    _emit(args, payload, [
        f"beta   {dg.format_seq(ctx.beta)}",
        f"alpha  {dg.format_seq(ctx.alpha)}",
        f"class  {ctx.base_class.value}",
        f"q      {ctx.q_approx(12)}",
        f"poly   {list(ctx.defining_poly)}",
    ])
    return 0


def cmd_base_chain(args):
    if args.steps < 0:
        raise ValueError(f"--steps must be nonnegative, got {args.steps}")
    ctx = _context(args)
    ctxs = chain(ctx, args.kind, args.steps, CHAIN_PERIOD_BOUND)
    payload = [c.to_json() for c in ctxs]
    lines = [f"step {i}: beta={dg.format_seq(c.beta)} alpha={dg.format_seq(c.alpha)} "
             f"class={c.base_class.value} q~{c.q_approx(8)}" for i, c in enumerate(ctxs)]
    _emit(args, payload, lines)
    return 0


def cmd_base_points(args):
    ctx = _context(args)
    order = order_points(ctx)
    payload = {
        "chain": order.chain(),
        "classes": [
            {"names": cls, "value": order.values[k].to_json(),
             "qg_key": dg.format_seq(order.keys[k])}
            for k, cls in enumerate(order.classes)
        ],
    }
    lines = [order.chain()] + [
        f"  {'='.join(cls):14s} {order.values[k].decimal(12)}"
        for k, cls in enumerate(order.classes)
    ]
    _emit(args, payload, lines)
    return 0


_VARIANTS = ("full", "tilde", "tilde1")     # graph.FULL, TILDE, TILDE1 in lower case


def cmd_graph_build(args):
    from .graph import build_graph
    ctx = _context(args)
    g = build_graph(ctx, args.variant.upper())
    if args.dot:
        _write(args.dot, g.to_dot())
    if args.json_path:
        _write(args.json_path, json.dumps(g.to_json(), indent=2, sort_keys=True) + "\n")
    if not args.dot and not args.json_path:
        print(f"{len(g.vertices)} vertices, {len(g.edges)} edges")
        for v in g.vertices:
            print(f"  {g.vertex_name(v)}  digit {v.label}")
        for i, k, j in sorted(g.edges):
            print(f"  {g.gap_name(i)} --{k}--> {g.gap_name(j)}")
    return 0


def cmd_graph_scc(args):
    from .graph import build_graph, is_strongly_connected, scc
    ctx = _context(args)
    g = build_graph(ctx, args.variant.upper())
    comps, cond = scc(g)
    payload = {
        "components": [[g.gap_name(v) for v in c] for c in comps],
        "condensation": [list(e) for e in cond],
        "strongly_connected": is_strongly_connected(g),
    }
    lines = [f"{len(comps)} strongly connected component(s)"]
    for c in comps:
        lines.append("  {" + ", ".join(g.gap_name(v) for v in c) + "}")
    _emit(args, payload, lines)
    return 0


def cmd_graph_verify(args):
    from .graph import FULL, build_graph, check_isomorphic, tower_decompose
    ctx = _context(args)
    if args.theorem in ("1.3", "iso"):
        ctx.require_limit_class("the successor isomorphism")
        succ = v_successor(ctx)
        ok = check_isomorphic(build_graph(ctx, FULL), build_graph(succ, FULL)) is not None
        payload = {"check": "successor-isomorphism", "ok": ok}
        _emit(args, payload, [f"successor graph isomorphic: {ok}"])
        return 0 if ok else 3
    dec = tower_decompose(ctx, args.steps)
    payload = {
        "check": "tower",
        "levels": [len(b) for b in dec.blocks],
        "residual": len(dec.residual),
        "cycle_words": [dg.format_word(w) for _p, w in dec.cycles],
    }
    _emit(args, payload, [
        f"tower levels: {[len(b) for b in dec.blocks]} (+{len(dec.residual)} residual vertices)",
        "cycle words: " + ", ".join(dg.format_word(w) for _p, w in dec.cycles),
    ])
    return 0


def cmd_graph_connectivity(args):
    from .graph import connectivity_report
    ctx = _context(args)
    rep = connectivity_report(ctx)
    payload = {
        "strongly_connected": rep.strongly_connected,
        "reach_criterion": rep.reach_criterion,
        "sufficient_b2": rep.sufficient_b2,
        "m1_ab_criterion": rep.m1_ab_criterion,
    }
    _emit(args, payload, [
        f"strongly connected:      {rep.strongly_connected}",
        f"reachability criterion:  {rep.reach_criterion}",
        f"sufficient b2 condition: {rep.sufficient_b2}",
        f"two-digit criterion:     {rep.m1_ab_criterion}",
    ])
    return 0


def cmd_dim(args):
    from .graph import TILDE, build_graph
    from .spectral import spectral_report
    ctx = _context(args)
    g = build_graph(ctx, TILDE)
    rep = spectral_report(g, ctx)
    payload = rep.to_json()
    lines = [
        f"radius    {rep.radius:.12f} (+/- {rep.radius_err:.2e})",
        f"entropy   {rep.entropy:.12f}",
        f"dimension {rep.dimension:.12f}",
    ]
    if args.per_scc:
        for names, r in rep.per_scc:
            lines.append(f"  component ({len(names)} vertices) radius {r:.5f}: "
                         + " ".join(names))
    _emit(args, payload, lines)
    return 0


def cmd_expansions_count(args):
    from . import expansions as exp
    ctx = _context(args)
    x = ctx.value(dg.parse_seq(args.x))
    cap = exp.DEFAULT_STATE_CAP if args.cap is None else args.cap
    res = exp.count_expansions(ctx, x, cap=cap)
    payload = {"kind": res.kind, "count": res.count,
               "witnesses": [dg.format_seq(w) for w in res.witnesses]}
    lines = [f"count: {res.kind}" + (f"({res.count})" if res.count is not None else "")]
    lines += [f"  {dg.format_seq(w)}" for w in res.witnesses]
    _emit(args, payload, lines)
    return 0


def cmd_expansions_witness(args):
    from . import expansions as exp
    ctx = _context(args)
    c = dg.parse_seq(args.tail) if args.tail else exp.default_tail(ctx)
    x, exps = exp.build_witness_xm(ctx, args.m, c)
    res = exp.count_expansions(ctx, x)
    payload = {
        "tail": dg.format_seq(c),
        "value": x.to_json(),
        "expansions": [dg.format_seq(e) for e in exps],
        "verified_count": res.count if res.kind == exp.EXACT else res.kind,
    }
    lines = [f"tail {dg.format_seq(c)}", f"value ~ {x.decimal(12)}"]
    lines += [f"  {dg.format_seq(e)}" for e in exps]
    lines.append(f"verified count: {payload['verified_count']}")
    _emit(args, payload, lines)
    return 0


def cmd_oracle_words(args):
    from .oracle import U_PREFIX, V_PREFIX, enumerate_admissible_words
    ctx = _context(args)
    # default: strict bounds for in-between bases, weak ones for limit bases
    strict = (args.mode == "u" if args.mode
              else ctx.base_class is not BaseClass.IN_CLOSURE_U_NOT_U)
    mode = U_PREFIX if strict else V_PREFIX
    words = sorted(enumerate_admissible_words(ctx, args.L, mode))
    payload = {"mode": mode, "L": args.L, "count": len(words),
               "words": [dg.format_word(w) for w in words]}
    _emit(args, payload, [f"{len(words)} words"] + ["  " + dg.format_word(w) for w in words])
    return 0


def cmd_oracle_brute(args):
    from .oracle import brute_count_expansions
    ctx = _context(args)
    x = ctx.value(dg.parse_seq(args.x))
    lo, hi = brute_count_expansions(ctx, x, args.depth)
    _emit(args, {"lower": lo, "upper": hi}, [f"bounds: [{lo}, {hi}]"])
    return 0


def make_parser():
    p = argparse.ArgumentParser(prog="univoque",
                                description="interval graphs and expansion counts "
                                            "of non-integer bases, in exact arithmetic")
    sub = p.add_subparsers(dest="command", required=True)

    base = sub.add_parser("base", help="base classification and chains")
    bsub = base.add_subparsers(dest="subcommand", required=True)
    _command(bsub, "classify", cmd_base_classify).add_argument("--json", action="store_true")
    b2 = _command(bsub, "chain", cmd_base_chain)
    b2.add_argument("--kind", choices=("v", "r"), required=True,
                    help="v: successor chain, r: reflected-block chain")
    b2.add_argument("--steps", type=int, required=True)
    b2.add_argument("--json", action="store_true")
    _command(bsub, "points", cmd_base_points).add_argument("--json", action="store_true")

    graph = sub.add_parser("graph", help="interval graph construction and analysis")
    gsub = graph.add_subparsers(dest="subcommand", required=True)
    g1 = _command(gsub, "build", cmd_graph_build)
    g1.add_argument("--variant", choices=_VARIANTS, default="full")
    g1.add_argument("--dot", metavar="PATH", help="write DOT to PATH (- for stdout)")
    g1.add_argument("--json", dest="json_path", metavar="PATH",
                    help="write JSON to PATH (- for stdout)")
    g2 = _command(gsub, "scc", cmd_graph_scc)
    g2.add_argument("--variant", choices=_VARIANTS, default="tilde")
    g2.add_argument("--json", action="store_true")
    g3 = _command(gsub, "verify", cmd_graph_verify)
    g3.add_argument("--theorem", choices=("1.3", "1.4", "iso", "tower"), required=True,
                    help="1.3/iso: successor isomorphism; 1.4/tower: tower decomposition")
    g3.add_argument("--steps", type=int, default=2)
    g3.add_argument("--json", action="store_true")
    g4 = _command(gsub, "connectivity", cmd_graph_connectivity)
    g4.add_argument("--json", action="store_true")

    d = _command(sub, "dim", cmd_dim, help="spectral radius, entropy, dimension")
    d.add_argument("--per-scc", dest="per_scc", action="store_true")
    d.add_argument("--json", action="store_true")

    ex = sub.add_parser("expansions", help="expansion generation and counting")
    esub = ex.add_subparsers(dest="subcommand", required=True)
    e1 = _command(esub, "count", cmd_expansions_count)
    e1.add_argument("--x", required=True, help="point given by a digit sequence")
    e1.add_argument("--cap", type=int, default=None)
    e1.add_argument("--json", action="store_true")
    e2 = _command(esub, "witness", cmd_expansions_witness)
    e2.add_argument("-m", type=int, required=True, dest="m")
    e2.add_argument("--tail", help="periodic tail (defaults to the least strict one)")
    e2.add_argument("--json", action="store_true")

    orc = sub.add_parser("oracle", help="brute-force reference computations")
    osub = orc.add_subparsers(dest="subcommand", required=True)
    o1 = _command(osub, "words", cmd_oracle_words)
    o1.add_argument("-L", type=int, required=True, dest="L")
    o1.add_argument("--mode", choices=("u", "v"), default=None,
                    help="default: u for in-between bases, v for limit bases")
    o1.add_argument("--json", action="store_true")
    o2 = _command(osub, "brute-count", cmd_oracle_brute)
    o2.add_argument("--x", required=True)
    o2.add_argument("--depth", type=int, default=18)
    o2.add_argument("--json", action="store_true")

    return p


def main(argv=None):
    parser = make_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            # --help exits from inside argparse with its text still buffered
            sys.stdout.flush()
            raise
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader of stdout is gone: drop the rest of the output quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InternalConsistencyError as e:        # graph.StructuralError included
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, SearchBoundError) as e:     # every input-error class is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
