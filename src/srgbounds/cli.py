"""Command-line front door.

Exit codes: 0 success, 1 invariant violation, 2 usage error, 130 Ctrl-C.

Only the bounds core (srg, cab) loads with this module; each handler
imports the catalog, graph and arithmetic modules it needs, so that
`srgbounds bounds` starts without them, and json loads only where JSON
is written.  Likewise each call builds one ArgumentParser, the named
subcommand's own (_SUBCOMMANDS), since building all seven takes far
longer than a `bounds` answer.  The full parser holds the same
subparser, so help and usage errors read the same either way; it also
serves `srgbounds --help`, an empty argv, an unknown command and the
arguments a subcommand's parser leaves over, which it reports as
unrecognized.
"""

from __future__ import annotations

import argparse
import sys

from .cab import cab, full_report
from .srg import FeasibilityLevel, SrgParams, parse_int, parse_params_string

_LEVELS = {
    "counting": FeasibilityLevel.COUNTING,
    "integrality": FeasibilityLevel.INTEGRALITY,
    "krein": FeasibilityLevel.KREIN,
    "absolute": FeasibilityLevel.ABSOLUTE_BOUND,
}


def _integer(token: str) -> int:
    """An argparse type: parse_int, whose message is the usage error."""
    try:
        return parse_int(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_bounds(b) -> None:
    b.add_argument("params", nargs="+",
                   help='parameter tuple "v k lambda [mu]" (commas also accepted)')
    b.add_argument("--json", action="store_true")
    b.set_defaults(run=_cmd_bounds)


def _add_scan(s) -> None:
    s.add_argument("--max-v", type=_integer, required=True)
    s.add_argument("--level", choices=sorted(_LEVELS), default="absolute")
    s.add_argument("--filter", choices=["gap", "thm", "thm51"], default=None)
    s.add_argument("--pairs", action="store_true",
                   help="keep one member of each complementary pair of connected, "
                        "co-connected tuples: the one whose (v,k,lambda,mu) sorts first")
    s.add_argument("--format", choices=["table", "csv", "json"], default="table")
    s.add_argument("--out", default=None)
    s.add_argument("--stats", action="store_true",
                   help="print measured theorem-coverage fractions to stderr")
    s.set_defaults(run=_cmd_scan)


def _add_verify_identities(vi) -> None:
    vi.add_argument("--json", action="store_true")
    vi.set_defaults(run=_cmd_verify_identities)


def _add_paley(pl) -> None:
    pl.add_argument("p", type=_integer)
    pl.add_argument("--clique", action="store_true")
    pl.set_defaults(run=_cmd_paley)


def _add_maxclique(mc) -> None:
    mc.add_argument("file")
    mc.set_defaults(run=_cmd_maxclique)


def _add_delta3(d3) -> None:
    d3.set_defaults(run=_cmd_delta3)


def _add_conjecture(cj) -> None:
    cj.add_argument("--max-v", type=_integer, required=True)
    cj.set_defaults(run=_cmd_conjecture)


# each subcommand's help line and the builder of its arguments, in the
# order the full parser lists them
_SUBCOMMANDS = {
    "bounds": ("bounds for one parameter tuple", _add_bounds),
    "scan": ("scan feasible tuples and compare bounds", _add_scan),
    "verify-identities": ("re-prove the polynomial identities", _add_verify_identities),
    "paley": ("construct a Paley graph", _add_paley),
    "maxclique": ("maximum clique of a graph file", _add_maxclique),
    "delta3": ("report on the distance-3 line-graph fixture", _add_delta3),
    "conjecture": ("scan for conjecture counterexamples", _add_conjecture),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  The subparsers are plain
    ArgumentParsers named "srgbounds <command>", as main builds one alone,
    so their help and usage errors do not depend on which parser holds them."""
    ap = argparse.ArgumentParser(
        prog="srgbounds",
        description="Exact clique-number bounds for strongly regular graph parameters",
    )
    sub = ap.add_subparsers(dest="command", required=True, prog="srgbounds",
                            parser_class=argparse.ArgumentParser)
    for name, (summary, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return ap


def _cmd_bounds(args) -> int:
    p = parse_params_string(" ".join(args.params))
    # an edge-regular triple has no mu and no spectrum: it gets only the CAB
    rep = full_report(p) if isinstance(p, SrgParams) else None
    c, wit = cab(p) if rep is None else (rep.cab, rep.cab_witness)
    if args.json:
        import json

        print(json.dumps({
            "v": p.v, "k": p.k, "lambda": p.lam,
            "mu": None if rep is None else p.mu,
            "cab": c, "cab_witness_b": wit.b, "cab_witness_y": wit.c_plus_1,
            "delsarte": None if rep is None else rep.delsarte,
            "trivial": p.lam + 2,
            "thm21": rep is not None and rep.thm21,
            "thm22": rep is not None and rep.thm22,
            "improved": None if rep is None else rep.improved,
        }))
    elif rep is None:
        print(f"parameters  ({p.v},{p.k},{p.lam})  edge-regular")
        print(f"cab         {c}  (witness C({wit.b},{wit.c_plus_1}) = {wit.value})")
        print(f"trivial     {p.lam + 2}")
    else:
        print(f"parameters      ({p.v},{p.k},{p.lam},{p.mu})  type {rep.type_tag.value}")
        print(f"cab             {c}  (witness C({wit.b},{wit.c_plus_1}) = {wit.value})")
        dstr = f"{rep.delsarte}" + ("  (degenerate: disconnected)" if rep.delsarte_degenerate else "")
        print(f"delsarte        {dstr}")
        print(f"trivial         {rep.trivial}")
        if rep.hoffman_complement is not None:
            print(f"hoffman (comp)  {rep.hoffman_complement}")
        print(f"thm21/thm22     {rep.thm21}/{rep.thm22}")
        if rep.improved is not None:
            print(f"improved bound  {rep.improved}")
        print(f"thm51 predicate {rep.thm51}")
    return 0


def _cmd_scan(args) -> int:
    import os
    import stat
    from contextlib import nullcontext

    from . import catalog

    cfg = catalog.ScanConfig(
        v_max=args.max_v,
        level=_LEVELS[args.level],
        filter=args.filter,
        pairs=args.pairs,
    )
    # open --out before the scan, so an unwritable path fails at once; empty a
    # regular file only once the output is ready, so a failed scan keeps it
    with open(args.out, "a") if args.out else nullcontext(sys.stdout) as fh:
        records, scan_stats = catalog.scan_compare(cfg)
        # the stats walk runs only for the --stats lines
        stats = scan_stats() if args.stats else None
        text = catalog.emit(records, args.format)
        if args.out and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
        fh.write(text)
    if stats is not None:
        print(
            f"type-I tuples: {stats.type1_total}, improvement predicate: "
            f"{stats.type1_thm21} ({stats.thm21_fraction:.4f})",
            file=sys.stderr,
        )
        print(
            f"type-II tuples (conn+coconn): {stats.type2_total}, improvement "
            f"predicate: {stats.type2_thm22} ({stats.thm22_fraction:.4f})",
            file=sys.stderr,
        )
        print(
            f"type-II complementary pairs: {stats.pairs_type2_total}, covered: "
            f"{stats.pairs_type2_thm} ({stats.pair_fraction:.4f})",
            file=sys.stderr,
        )
    return 0


def _cmd_verify_identities(args) -> int:
    from . import identities

    results = []
    ok_all = True
    for case in identities.CASES:
        ok = identities.verify_identity(case)
        degree = identities.cleared_degree(case)  # reads the proof's sides
        ok_all &= ok
        results.append(
            {
                "name": case.name,
                "parameterization": case.parameterization,
                "degree": degree,
                "status": "PASS" if ok else "FAIL",
            }
        )
    if args.json:
        import json

        print(json.dumps(results, indent=2))
    else:
        for res in results:
            print(
                f"{res['name']:<36} {res['parameterization']:<12} "
                f"deg {res['degree']:>2}  {res['status']}"
            )
    return 0 if ok_all else 1


def _cmd_paley(args) -> int:
    from .graphs import is_strongly_regular, max_clique, paley

    g = paley(args.p)
    srg = is_strongly_regular(g)
    print(f"paley({args.p}): {g.n} vertices, {g.edge_count()} edges")
    if srg is not None:
        print(f"strongly regular ({srg.v},{srg.k},{srg.lam},{srg.mu})")
    else:
        print("not strongly regular")
        return 1
    if args.clique:
        res = max_clique(g)
        print(f"clique number {res.size}  witness {list(res.witness)}")
    return 0


def _cmd_maxclique(args) -> int:
    from .graphio import load_graph
    from .graphs import MAX_CLIQUE_VERTEX_LIMIT, max_clique

    with open(args.file) as fh:
        g = load_graph(fh.read(), max_n=MAX_CLIQUE_VERTEX_LIMIT)
    res = max_clique(g)
    print(f"n={g.n} m={g.edge_count()} omega={res.size}")
    print("witness " + " ".join(map(str, res.witness)))
    return 0


def _cmd_delta3(args) -> int:
    from math import isqrt

    from .graphs import heawood_line_distance3, is_edge_regular, is_strongly_regular, max_clique

    g = heawood_line_distance3()
    er = is_edge_regular(g)
    if er is None:
        print("invariant violation: fixture is not edge-regular", file=sys.stderr)
        return 1
    c, wit = cab(er)
    omega = max_clique(g).size
    # fixture eigenvalues: least eigenvalue -sqrt(8); complement -1-sqrt(8)
    v, k, kb = er.v, er.k, er.v - er.k - 1
    delsarte = 1 + isqrt(k * k // 8)
    # v(1+sqrt8)/(kb+1+sqrt8), times (kb+1-sqrt8) above and below
    hoffman = (v * (kb - 7) + isqrt(8 * (v * kb) ** 2)) // ((kb + 1) ** 2 - 8)
    srg = is_strongly_regular(g)
    print(f"distance-3 graph of the Heawood line graph: ({er.v},{er.k},{er.lam})")
    print(f"strongly regular: {'yes' if srg else 'no'}")
    print(f"cab       {c}  (witness C({wit.b},{wit.c_plus_1}) = {wit.value})")
    print(f"delsarte  {delsarte}  (least eigenvalue -sqrt(8))")
    print(f"hoffman   {hoffman}  (complement least eigenvalue -1-sqrt(8))")
    print(f"omega     {omega}")
    return 0


def _cmd_conjecture(args) -> int:
    from . import catalog

    cfg = catalog.ScanConfig(v_max=args.max_v)
    hits = catalog.conjecture_scan(cfg)
    if not hits:
        print(f"no counterexamples up to v = {args.max_v}")
    else:
        print(f"{len(hits)} counterexample candidate(s):")
        for p in hits:
            print(f"  ({p.v},{p.k},{p.lam},{p.mu})")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the full parser serves what the subcommand's own cannot: no known
    # command, or arguments left over, which it reports as unrecognized
    args, rest = None, argv
    if argv and argv[0] in _SUBCOMMANDS:
        ap = argparse.ArgumentParser(prog=f"srgbounds {argv[0]}")
        _SUBCOMMANDS[argv[0]][1](ap)
        args, rest = ap.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or rest:
        args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
