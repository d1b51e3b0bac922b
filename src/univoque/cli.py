"""Command-line interface.

Subcommands mirror the library: ``base classify|chain|points``,
``graph build|scc|verify|connectivity``, ``dim``, ``expansions
count|witness`` and ``oracle words|brute-count``.  Output is human-readable
text by default and JSON with --json; every run is deterministic.  Exit
codes: 0 success, 1 stdout closed before the output was written, 2 invalid
input or a search bound reached, 3 internal consistency failure or a failed
check.  ``main`` builds the base of the -M and --beta flags and prints;
each ``cmd_*`` function takes that base and the parsed flags and returns
what it prints: a function that builds the JSON payload, called only under
--json, and its text lines.  ``make_parser`` given the arguments builds the
parser of the one command they name.  Each command imports the layers it
runs inside its own function, and ``main`` loads ``base`` only once the
arguments parse, so ``--help`` and usage errors load no layer and a command
loads nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys

# total alpha period the bases of one ``base chain`` run may have
CHAIN_PERIOD_BOUND = 4096


def _emit(args, payload, text_lines):
    """Print the JSON ``payload()`` under --json, else the text lines; the
    payload is built only when it is printed."""
    if getattr(args, "json", False):
        import json
        print(json.dumps(payload(), indent=2, sort_keys=True, allow_nan=False))
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


def cmd_base_classify(ctx, args):
    from . import digits as dg
    return ctx.to_json, [
        f"beta   {dg.format_seq(ctx.beta)}",
        f"alpha  {dg.format_seq(ctx.alpha)}",
        f"class  {ctx.base_class.value}",
        f"q      {ctx.q_approx(12)}",
        f"poly   {list(ctx.defining_poly)}",
    ]


def cmd_base_chain(ctx, args):
    from . import digits as dg
    from .base import chain
    ctxs = chain(ctx, args.kind, args.steps, CHAIN_PERIOD_BOUND)
    return lambda: [c.to_json() for c in ctxs], [
        f"step {i}: beta={dg.format_seq(c.beta)} alpha={dg.format_seq(c.alpha)} "
        f"class={c.base_class.value} q~{c.q_approx(8)}" for i, c in enumerate(ctxs)]


def cmd_base_points(ctx, args):
    from . import digits as dg
    from .base import order_points
    order = order_points(ctx)
    payload = lambda: {
        "chain": order.chain(),
        "classes": [
            {"names": cls, "value": order.values[k].to_json(),
             "qg_key": dg.format_seq(order.keys[k])}
            for k, cls in enumerate(order.classes)
        ],
    }
    return payload, [order.chain()] + [
        f"  {'='.join(cls):14s} {order.values[k].decimal(12)}"
        for k, cls in enumerate(order.classes)
    ]


_VARIANTS = ("full", "tilde", "tilde1")     # graph.FULL, TILDE, TILDE1 in lower case


def cmd_graph_build(ctx, args):
    import json

    from .graph import build_graph
    g = build_graph(ctx, args.variant.upper())
    if args.dot:
        _write(args.dot, g.to_dot())
    if args.json_path:
        _write(args.json_path, json.dumps(g.to_json(), indent=2, sort_keys=True) + "\n")
    if args.dot or args.json_path:
        return None, []
    edges = g.edges
    return None, ([f"{len(g.vertices)} vertices, {len(edges)} edges"]
                  + [f"  {g.vertex_name(v)}  digit {v.label}" for v in g.vertices]
                  + [f"  {g.gap_name(i)} --{k}--> {g.gap_name(j)}" for i, k, j in edges])


def cmd_graph_scc(ctx, args):
    from .graph import build_graph, is_strongly_connected, scc
    g = build_graph(ctx, args.variant.upper())
    comps, cond = scc(g)
    payload = lambda: {
        "components": [[g.gap_name(v) for v in c] for c in comps],
        "condensation": [list(e) for e in cond],
        "strongly_connected": is_strongly_connected(g),
    }
    return payload, [f"{len(comps)} strongly connected component(s)"] + [
        "  {" + ", ".join(g.gap_name(v) for v in c) + "}" for c in comps]


def cmd_graph_verify(ctx, args):
    from . import digits as dg
    from .graph import tower_decompose
    if args.theorem in ("1.3", "iso"):
        if args.steps is not None:
            raise ValueError("--steps applies to the tower only (--theorem 1.4/tower)")
        # the successor isomorphism is the first level of the tower; a
        # failed one raises StructuralError
        ctx.require_limit_class("the successor isomorphism")
        tower_decompose(ctx, 1)
        return lambda: {"check": "successor-isomorphism"}, ["successor graph isomorphic: True"]
    dec = tower_decompose(ctx, 2 if args.steps is None else args.steps)
    payload = lambda: {
        "check": "tower",
        "levels": [len(b) for b in dec.blocks],
        "residual": len(dec.residual),
        "cycle_words": [dg.format_word(w) for _p, w in dec.cycles],
    }
    return payload, [
        f"tower levels: {[len(b) for b in dec.blocks]} (+{len(dec.residual)} residual vertices)",
        "cycle words: " + ", ".join(dg.format_word(w) for _p, w in dec.cycles),
    ]


def cmd_graph_connectivity(ctx, args):
    from .graph import connectivity_report
    rep = connectivity_report(ctx)
    return rep._asdict, [
        f"strongly connected:      {rep.strongly_connected}",
        f"reachability criterion:  {rep.reach_criterion}",
        f"sufficient b2 condition: {rep.sufficient_b2}",
        f"two-digit criterion:     {rep.m1_ab_criterion}",
    ]


def cmd_dim(ctx, args):
    from .graph import TILDE, build_graph
    from .spectral import spectral_report
    rep = spectral_report(build_graph(ctx, TILDE), ctx)
    lines = [
        f"radius    {rep.radius:.12f} (+/- {rep.radius_err:.2e})",
        f"entropy   {rep.entropy:.12f}",
        f"dimension {rep.dimension:.12f}",
    ]
    if args.per_scc:
        lines += [f"  component ({len(names)} vertices) radius {r:.5f}: " + " ".join(names)
                  for names, r in rep.per_scc]
    return rep.to_json, lines


def cmd_expansions_count(ctx, args):
    from . import digits as dg
    from . import expansions as exp
    x = ctx.value(dg.parse_seq(args.x))
    cap = exp.DEFAULT_STATE_CAP if args.cap is None else args.cap
    res = exp.count_expansions(ctx, x, cap=cap)
    payload = lambda: {"kind": res.kind, "count": res.count,
                       "witnesses": [dg.format_seq(w) for w in res.witnesses]}
    lines = [f"count: {res.kind}" + (f"({res.count})" if res.count is not None else "")]
    return payload, lines + [f"  {dg.format_seq(w)}" for w in res.witnesses]


def cmd_expansions_witness(ctx, args):
    from . import digits as dg
    from . import expansions as exp
    c = dg.parse_seq(args.tail) if args.tail else exp.default_tail(ctx)
    x, exps = exp.build_witness_xm(ctx, args.m, c)
    res = exp.count_expansions(ctx, x)
    verified = res.count if res.kind == exp.EXACT else res.kind
    payload = lambda: {
        "tail": dg.format_seq(c),
        "value": x.to_json(),
        "expansions": [dg.format_seq(e) for e in exps],
        "verified_count": verified,
    }
    return payload, ([f"tail {dg.format_seq(c)}", f"value ~ {x.decimal(12)}"]
                     + [f"  {dg.format_seq(e)}" for e in exps]
                     + [f"verified count: {verified}"])


def cmd_oracle_words(ctx, args):
    from . import digits as dg
    from .base import BaseClass
    from .oracle import U_PREFIX, V_PREFIX, enumerate_admissible_words
    # default: strict bounds for in-between bases, weak ones for limit bases
    strict = (args.mode == "u" if args.mode
              else ctx.base_class is not BaseClass.IN_CLOSURE_U_NOT_U)
    mode = U_PREFIX if strict else V_PREFIX
    words = sorted(enumerate_admissible_words(ctx, args.L, mode))
    payload = lambda: {"mode": mode, "L": args.L, "count": len(words),
                       "words": [dg.format_word(w) for w in words]}
    return payload, [f"{len(words)} words"] + ["  " + dg.format_word(w) for w in words]


def cmd_oracle_brute(ctx, args):
    from . import digits as dg
    from .oracle import brute_count_expansions
    lo, hi = brute_count_expansions(ctx, ctx.value(dg.parse_seq(args.x)), args.depth)
    return lambda: {"lower": lo, "upper": hi}, [f"bounds: [{lo}, {hi}]"]


def make_parser(argv=None):
    """The parser of the ``univoque`` command.  Its top level and its five
    groups are always built: their names and help make up the top-level help
    and the invalid-choice messages.  Given ``argv``, only a group that it
    names gets its subcommands, and only a subcommand that it names gets its
    arguments, so a process builds the parser of the one command it runs;
    without, everything is built."""
    named = (lambda _name: True) if argv is None else set(argv).__contains__
    p = argparse.ArgumentParser(prog="univoque",
                                description="interval graphs and expansion counts "
                                            "of non-integer bases, in exact arithmetic")
    sub = p.add_subparsers(dest="command", required=True)

    def group(name, help):
        """The subparsers of the group ``name``; None, with no subcommand to
        add, for a group that ``argv`` does not name."""
        g = sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)
        return g if named(name) else None

    def command(group, name, fn, *options, json_flag=True, **kwargs):
        """The subcommand ``name`` of ``group`` (``kwargs`` go to
        ``add_parser``), which runs ``fn`` on the base its flags give.  Its
        own ``options`` are ``(flag, add_argument keywords)`` pairs; --json
        follows them unless ``json_flag`` is false."""
        if group is None:
            return
        c = group.add_parser(name, **kwargs)
        if not named(name):
            return
        c.add_argument("-M", type=int, required=True, help="alphabet bound")
        c.add_argument("--beta", required=True,
                       help='greedy expansion of 1 in digit-string form, e.g. "111(0)"')
        for flag, spec in options:
            c.add_argument(flag, **spec)
        if json_flag:
            c.add_argument("--json", action="store_true")
        c.set_defaults(fn=fn)

    base = group("base", "base classification and chains")
    command(base, "classify", cmd_base_classify)
    command(base, "chain", cmd_base_chain,
            ("--kind", dict(choices=("v", "r"), required=True,
                            help="v: successor chain, r: reflected-block chain")),
            ("--steps", dict(type=int, required=True)))
    command(base, "points", cmd_base_points)

    graph = group("graph", "interval graph construction and analysis")
    command(graph, "build", cmd_graph_build,
            ("--variant", dict(choices=_VARIANTS, default="full")),
            ("--dot", dict(metavar="PATH", help="write DOT to PATH (- for stdout)")),
            ("--json", dict(dest="json_path", metavar="PATH",
                            help="write JSON to PATH (- for stdout)")), json_flag=False)
    command(graph, "scc", cmd_graph_scc, ("--variant", dict(choices=_VARIANTS, default="tilde")))
    command(graph, "verify", cmd_graph_verify,
            ("--theorem", dict(choices=("1.3", "1.4", "iso", "tower"), required=True,
                               help="1.3/iso: successor isomorphism; 1.4/tower: tower "
                                    "decomposition")),
            ("--steps", dict(type=int)))
    command(graph, "connectivity", cmd_graph_connectivity)

    command(sub, "dim", cmd_dim, ("--per-scc", dict(dest="per_scc", action="store_true")),
            help="spectral radius, entropy, dimension")

    ex = group("expansions", "expansion generation and counting")
    command(ex, "count", cmd_expansions_count,
            ("--x", dict(required=True, help="point given by a digit sequence")),
            ("--cap", dict(type=int, default=None)))
    command(ex, "witness", cmd_expansions_witness,
            ("-m", dict(type=int, required=True, dest="m")),
            ("--tail", dict(help="periodic tail (defaults to the least strict one)")))

    orc = group("oracle", "brute-force reference computations")
    command(orc, "words", cmd_oracle_words,
            ("-L", dict(type=int, required=True, dest="L")),
            ("--mode", dict(choices=("u", "v"), default=None,
                            help="default: u for in-between bases, v for limit bases")))
    command(orc, "brute-count", cmd_oracle_brute,
            ("--x", dict(required=True)), ("--depth", dict(type=int, default=18)))
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = make_parser(argv)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            # --help exits from inside argparse with its text still buffered
            sys.stdout.flush()
            raise
        # the arguments name a command: only now load the layers
        from .base import InternalConsistencyError, SearchBoundError, new_base_context
        try:
            _emit(args, *args.fn(new_base_context(args.M, args.beta), args))
            sys.stdout.flush()
        except InternalConsistencyError as e:        # graph.StructuralError included
            print(f"internal consistency failure: {e}", file=sys.stderr)
            return 3
        except (ValueError, SearchBoundError) as e:     # every input-error class is a ValueError
            print(f"error: {e}", file=sys.stderr)
            return 2
        return 0
    except BrokenPipeError:
        # the reader of stdout is gone: drop the rest of the output quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
