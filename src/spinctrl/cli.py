"""Command-line front end.

Exit codes: 0 success, 1 analysis/input error, 2 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analytic import bethe_symmetric_kappas
from .network import (InvalidNetworkError, StarDescriptor, make_chain, make_star,
                      parse_network)
from .report import analyze, reproduce_table


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-6,
                   help="rank tolerance of float closures (README, Numerical notes)")
    p.add_argument("--json", dest="json_out", metavar="PATH",
                   help="also write the full report as JSON ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinctrl",
                                 description="Subspace controllability and symmetries "
                                             "of XXZ spin networks under Z-controls")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a network from a JSON file")
    p.add_argument("--input", required=True, help="path to the network JSON")
    _add_analysis_flags(p)

    p = sub.add_parser("chain", help="analyze a chain built from flags")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--control", required=True,
                   help="controlled node(s), comma separated")
    p.add_argument("--couplings", default=None,
                   help="comma-separated strengths (default uniform)")
    _add_analysis_flags(p)

    p = sub.add_parser("star", help="analyze a star network built from flags")
    p.add_argument("--lengths", required=True,
                   help="branch lengths, comma separated (each >= 2)")
    p.add_argument("--control", default="center",
                   help="'center' or branch:position, e.g. 1:5")
    p.add_argument("--kappa", type=float, default=0.0)
    _add_analysis_flags(p)

    p = sub.add_parser("bethe", help="symmetric anisotropies for a uniform chain")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--control", type=int, required=True)
    p.add_argument("--json", dest="json_out", metavar="PATH")

    p = sub.add_parser("table", help="regenerate a bundled reference table")
    p.add_argument("--id", required=True,
                   choices=["sym", "xx-branch", "heisen-branch", "fig2-examples"])
    p.add_argument("--json", dest="json_out", metavar="PATH")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="closure rank tolerance used by the criteria")
    p.add_argument("--quiet", action="store_true", help="omit per-criterion detail")
    return ap


def _number_list(flag: str, text: str, kind, form: str) -> list:
    """The comma-separated numbers of a flag; ValueError naming the flag
    and its accepted form otherwise."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes {form}, got {text!r}") from None


def _star_site(text: str):
    """'center' or (branch, position) from the star's --control flag."""
    if text == "center":
        return "center"
    try:
        branch, position = (int(x) for x in text.split(":"))
    except ValueError:
        raise ValueError("--control takes 'center' or branch:position, e.g. 1:5, "
                         f"got {text!r}") from None
    return branch, position


def _emit_json(doc, path: str | None) -> None:
    if not path:
        return
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _margin(value) -> str:
    return "none" if value is None else f"{value:.2e}"


def _print_analysis(rep) -> None:
    net = rep.network
    print(f"network: {net['nodes']} nodes, {len(net['edges'])} edges, "
          f"kappa={net['kappa']!r}, controls={net['controls']}, "
          f"topology={net['topology']}")
    print(f"subspace dimension: {rep.subspace_dimension}")
    cl = rep.closure
    if cl.get("skipped"):
        print(f"closure: skipped ({cl['reason']})")
    else:
        print(f"closure: dim {cl['dimension']} of {cl['full_dimension']} "
              f"[{cl['mode']}] -> "
              f"{'controllable' if cl['controllable'] else 'NOT controllable'} "
              f"({cl['note']})")
    st = rep.structure
    if st is not None:
        print(f"structure: n_B={st['bright_dimension']}, r={st['trace_rank']}, "
              f"dim={st['dimension']}"
              + ("" if st["resolved"] else " (unresolved: a bright eigenspace "
                 "merges eigenvalues)")
              + ", margin: overlaps bright >= "
              f"{_margin(st['min_bright_overlap'])}, dark <= "
              f"{_margin(st['max_dark_overlap'])}; relative gaps split >= "
              f"{_margin(st['min_split_gap'])}, merged <= "
              f"{_margin(st['max_merged_gap'])}")
    print(f"commutant dimension: {rep.commutant_dimension}")
    ds = rep.dark_states
    print(f"dark states: {ds['count']}"
          + (f", eigenvalues {[repr(x) for x in ds['eigenvalues']]}" if ds["count"] else ""))
    isym = rep.internal_symmetry
    print(f"internal symmetry: dimension {isym['dimension']}"
          + (f", type {isym['type']}, invertible {isym['has_invertible_solution']}"
             if isym["dimension"] else ""))
    print(f"graph automorphisms (non-identity): {rep.automorphisms['count']}")
    print(f"invariant blocks: {rep.block_sizes}")
    if rep.analytic.get("applicable"):
        an = rep.analytic
        pred = an.get("predicted_controllable")
        if pred is not None:
            print(f"closed-form prediction [{an.get('predicate')}]: "
                  f"{'controllable' if pred else 'not controllable'}")
        if "kappa_is_symmetric" in an:
            print(f"anisotropy admits a symmetry: {an['kappa_is_symmetric']}"
                  + (" (every kappa symmetric for this geometry)"
                     if an.get("every_kappa_symmetric") else ""))
    flags = {k: v for k, v in rep.consistency.items() if v is not None}
    print(f"consistency: {flags}")


def _run_analysis(spec, args) -> int:
    rep = analyze(spec, tolerance=args.tol)
    if args.json_out != "-":  # '-' means: stdout carries only the JSON
        _print_analysis(rep)
    _emit_json(rep.to_dict(), args.json_out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            with open(args.input, encoding="utf-8") as fh:
                spec = parse_network(fh.read())
            return _run_analysis(spec, args)

        if args.command == "chain":
            controls = tuple(_number_list("--control", args.control, int,
                                          "comma-separated node numbers, e.g. 1,3"))
            couplings = ("uniform" if args.couplings is None
                         else _number_list("--couplings", args.couplings, float,
                                           "comma-separated numbers, e.g. 1,0.5,2"))
            spec = make_chain(args.length, couplings, args.kappa, controls)
            return _run_analysis(spec, args)

        if args.command == "star":
            lengths = tuple(_number_list("--lengths", args.lengths, int,
                                         "comma-separated branch lengths, e.g. 3,2,2"))
            spec = make_star(StarDescriptor(lengths, _star_site(args.control)), args.kappa)
            return _run_analysis(spec, args)

        if args.command == "bethe":
            enum = bethe_symmetric_kappas(args.length, args.control)
            if args.json_out != "-":
                if enum.all_kappa:
                    print(f"N={args.length} k={args.control}: every kappa admits "
                          "a symmetry (center-controlled odd chain)")
                elif not enum.solutions:
                    print(f"N={args.length} k={args.control}: no symmetric kappa")
                for s in enum.solutions:
                    print(f"j={s.mode_index}: theta={s.theta!r} kappa={s.kappa!r} "
                          f"verified={s.verified} residual={s.residual:.3e}")
            _emit_json({
                "N": args.length, "k": args.control, "all_kappa": enum.all_kappa,
                "solutions": [{"j": s.mode_index, "theta": s.theta, "kappa": s.kappa,
                               "verified": s.verified, "residual": s.residual}
                              for s in enum.solutions],
            }, args.json_out)
            return 0

        if args.command == "table":
            rep = reproduce_table(args.id)
            if args.json_out != "-":
                print(rep.to_text())
            _emit_json(rep.to_dict(), args.json_out)
            return 0

        if args.command == "verify":
            from .acceptance import format_outcome, run_suite
            outcome = run_suite(seed=args.seed, tolerance=args.tol)
            print(format_outcome(outcome, verbose=not args.quiet))
            return 0 if outcome.all_passed else 2

    except (InvalidNetworkError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
