"""Command-line front end.

Subcommands: ``family`` writes graph families as edge lists, ``invariant``
computes a named invariant of a graph file, ``verify`` runs the inequality
suites and emits a CSV/JSON report. Exit codes: 0 success, 2 validation
failure, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .cheeger import cheeger_combinatorial, cheeger_lp
from .constructions import LampGraphSpec, distorted_lamp_graph
from .cuts import cut
from .errors import BudgetError, ExactSearchInfeasible
from .graphs import (build_family, cartesian_power, read_edgelist,
                     subdivide, write_edgelist)
from .groups import read_group_file
from .profiles import (DEFAULT_SUBGRAPH_BUDGET, poincare_profile,
                       separation_profile_exact)
from .spectral import lambda2, lambda_infinity_upper
from .verify import (SUITES, VerifyContext, hard_failures, report_metadata,
                     rows_to_csv, rows_to_json, run_suites, unexpected_passes)

FAMILY_KINDS = ("path", "cycle", "complete", "hypercube", "grid")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepprof",
        description="Cheeger constants, cuts, profiles, and their checks")
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="write a graph family as an edge list")
    fam.add_argument("kind",
                     choices=FAMILY_KINDS + ("power", "subdivide", "lamp"))
    fam.add_argument("params", nargs="*", help="size parameters, or base kind "
                     "and sizes for power and subdivide, or a group file for "
                     "lamp")
    fam.add_argument("--k", type=int, default=1,
                     help="power exponent / internal vertices per subdivided "
                     "edge / lamp cursor half-width")
    fam.add_argument("--r", type=int, default=0, help="lamp coordinate radius")
    fam.add_argument("--out", required=True)

    inv = sub.add_parser("invariant", help="compute an invariant of a graph file")
    inv.add_argument("which", choices=(
        "h", "h_maj", "h_edge", "lambda2", "lambda_inf", "hp", "cut", "sep",
        "profile"))
    inv.add_argument("graph")
    inv.add_argument("--p", type=float, default=1.0)
    inv.add_argument("--grad", choices=("sup_scale", "modified"),
                     default="sup_scale")
    inv.add_argument("--dim", type=int, default=1)
    inv.add_argument("--s", default="1/2", help="cut fraction, e.g. 1/2")
    inv.add_argument("--nmax", type=int, default=8)
    inv.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    inv.add_argument("--seed", type=int, default=0)
    inv.add_argument("--restarts", type=int, default=8)
    inv.add_argument("--witness-out", default=None)

    ver = sub.add_parser("verify", help="run machine-verification suites")
    ver.add_argument("suite", choices=tuple(SUITES) + ("all",))
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--tol", type=float, default=0.05)
    ver.add_argument("--budget", type=int, default=DEFAULT_SUBGRAPH_BUDGET)
    ver.add_argument("--format", choices=("csv", "json"), default="csv")
    ver.add_argument("--out", default=None)
    ver.add_argument("--timings", action="store_true",
                     help="attach wall times (breaks byte-reproducibility)")
    return parser


def _size(text: str) -> int:
    """One family size parameter as an int."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"size parameters must be integers, got {text!r}") from None


def _cmd_family(args) -> int:
    if args.kind in ("power", "subdivide"):
        if not args.params:
            raise ValueError(f"{args.kind} takes a base family and its sizes")
        base_kind, *sizes = args.params
        base = build_family(base_kind, *map(_size, sizes))
        build = cartesian_power if args.kind == "power" else subdivide
        graph = build(base, args.k)
    elif args.kind == "lamp":
        if len(args.params) != 1:
            raise ValueError(f"lamp takes 1 group file, got "
                             f"{len(args.params)}")
        (group_path,) = args.params
        group = read_group_file(group_path)
        graph = distorted_lamp_graph(LampGraphSpec(group, args.k, args.r))
    else:
        graph = build_family(args.kind, *map(_size, args.params))
    write_edgelist(graph, args.out)
    print(f"wrote {graph.vertex_count} vertices, {graph.edge_count} edges "
          f"to {args.out}")
    return 0


def _write_witness(path, witness) -> None:
    import numpy as np

    with open(path, "w") as fh:
        if witness.kind == "set":
            fh.write("vertex\n")
            for v in sorted(witness.set_witness):
                fh.write(f"{v}\n")
            return
        if witness.function_witness is None:
            fh.write("vertex\n")
            return
        f = np.atleast_2d(np.asarray(witness.function_witness, dtype=float))
        if f.shape[0] == 1:
            f = f.T
        fh.write("vertex," + ",".join(f"value{i}" for i in range(f.shape[1]))
                 + "\n")
        for v in range(f.shape[0]):
            fh.write(f"{v}," + ",".join(f"{x:.12g}" for x in f[v]) + "\n")


def _cmd_invariant(args) -> int:
    if args.restarts < 0:
        raise ValueError("--restarts must be >= 0")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    G = read_edgelist(args.graph)
    if args.which in ("h", "h_maj", "h_edge"):
        mode = {"h": "plain", "h_maj": "majored", "h_edge": "edge"}[args.which]
        w = cheeger_combinatorial(G, mode,
                                  allow_heuristic=args.mode == "heuristic",
                                  restarts=args.restarts, seed=args.seed)
        print(f"value {float(w.value):.12g}")
        print(f"value_exact {w.value_exact}")
        print(f"certified {w.exact}")
        if args.witness_out:
            _write_witness(args.witness_out, w)
            print(f"witness {args.witness_out}")
    elif args.which == "lambda2":
        print(f"value {lambda2(G).lambda2:.12g}")
        print("certified True")
    elif args.which == "lambda_inf":
        value, _ = lambda_infinity_upper(G, restarts=args.restarts,
                                         seed=args.seed)
        print(f"value {value:.12g}")
        print("certified upper_bound")
    elif args.which == "hp":
        w = cheeger_lp(G, args.p, gradient=args.grad, target_dim=args.dim,
                       restarts=args.restarts, seed=args.seed)
        print(f"value {w.value:.12g}")
        print(f"certified_lower {'' if w.certified_lower is None else format(w.certified_lower, '.12g')}")
        print(f"certified {'exact' if w.exact else 'upper_bound'}")
        if args.witness_out:
            _write_witness(args.witness_out, w)
            print(f"witness {args.witness_out}")
    elif args.which == "cut":
        try:
            s = Fraction(args.s)
        except ZeroDivisionError:
            raise ValueError(f"--s {args.s}: zero denominator") from None
        result = cut(G, s, args.mode)
        print(f"value {result.size}")
        print(f"certified {result.exact}")
        print(f"examined {result.examined}")
        print("cut_set " + " ".join(map(str, sorted(result.cut_set))))
    elif args.which == "sep":
        table = separation_profile_exact(G, args.nmax)
        for row in table.rows:
            print(f"sep {row.n} {int(row.lower)}")
    elif args.which == "profile":
        table = poincare_profile(G, args.nmax, args.p)
        for row in table.rows:
            print(f"profile {row.n} {row.lower:.12g} {row.upper:.12g}")
    return 0


def _cmd_verify(args) -> int:
    if not math.isfinite(args.tol) or args.tol < 0:
        raise ValueError("--tol must be a finite number >= 0")
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ctx = VerifyContext(seed=args.seed, tol=args.tol, budget=args.budget)
    rows = run_suites(names, ctx, timings=args.timings)
    meta = report_metadata(ctx)
    text = rows_to_csv(rows, meta) if args.format == "csv" \
        else rows_to_json(rows, meta)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failures = hard_failures(rows)
    expected = [r for r in rows if r.status == "fail" and r not in failures]
    surprises = unexpected_passes(rows)
    summary = (f"{sum(r.status == 'pass' for r in rows)} pass, "
               f"{len(failures)} fail, "
               f"{sum(r.status == 'skip' for r in rows)} diagnostic")
    if expected:
        summary += f", {len(expected)} expected-fail (documented in README)"
    print(summary, file=sys.stderr)
    if surprises:
        print("unexpected pass on expected-failure checks: "
              + ", ".join(r.check_id for r in surprises), file=sys.stderr)
        return 2
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "invariant":
            return _cmd_invariant(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ExactSearchInfeasible, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
