"""Command-line front end.

Usage sketch::

    lapsim --family cycle --n 5 report
    lapsim --family cycle --n-range 3:9 --format csv batch
    lapsim verify-paper [--only cycles]

Exit codes: 0 success, 1 regression failure, 2 input error, 3 internal
inconsistency or any other unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import analysis, ehrhart, graph as graphs
from .errors import DomainError, FeasibilityError, InternalInconsistencyError

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

CSV_HEADER = "n,kappa,volume,hstar,reflexive,ell,symmetric,unimodal,idp,notes"

# The global options each command reads, batch all of them; giving any other
# one is an error.
_GRAPH_OPTIONS = (
    "edge_list", "family", "n", "seed", "whisker", "bridge_with", "attach_path",
    "strategy", "fpp_cap", "format",
)
READS = {
    "report": _GRAPH_OPTIONS,
    "batch": _GRAPH_OPTIONS + ("n_range", "count"),
    "verify-paper": (),
}
# The value of each global option not given, where not None.  The parser records
# only the options given, so a command refuses an unread one at any value.
_DEFAULTS = {"count": 1, "seed": 0, "whisker": False, "fpp_cap": ehrhart.DEFAULT_FPP_CAP}


class _Parser(argparse.ArgumentParser):
    """A parser, and with it its subparsers, whose usage errors are one line."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.cache
def build_parser():
    """The one parser of the process, built on the first call to ``main``."""
    p = _Parser(
        prog="lapsim",
        description="Exact Ehrhart-theoretic analysis of Laplacian simplices.",
        argument_default=argparse.SUPPRESS,
    )
    src = p.add_argument_group("input source (choose one)")
    src.add_argument("--edge-list", metavar="PATH", help="edge-list file")
    src.add_argument("--family", choices=graphs.FAMILIES, help="named graph family")
    p.add_argument("--n", type=int, help="vertex count for --family")
    p.add_argument("--n-range", metavar="A:B", help="inclusive range of n for batch")
    p.add_argument("--count", type=int, help="instances per n (random families)")
    p.add_argument("--seed", type=int, help="seed for random families")
    p.add_argument("--whisker", action="store_true", help="whisker every vertex")
    p.add_argument(
        "--bridge-with",
        metavar="SPEC",
        help="bridge with a second graph: 'family:n[:seed]' or an edge-list path",
    )
    p.add_argument(
        "--attach-path", metavar="V:K", help="attach a path of K vertices at vertex V"
    )
    p.add_argument("--strategy", choices=ehrhart.STRATEGIES, help="h* strategy override")
    p.add_argument("--fpp-cap", type=int, help="walk size cap (h* and IDP)")
    p.add_argument("--format", choices=("text", "json", "csv"), help="output format")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("report", help="full property report for one graph")
    sub.add_parser("batch", help="one CSV row per graph over a range")
    vp = sub.add_parser("verify-paper", help="check the paper's claims at desk scale")
    vp.add_argument("--only", help="run only the claims whose name holds this substring")
    return p


def _parse_graph_spec(spec):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise DomainError(f"bad graph spec {spec!r}; want family:n[:seed]")
        try:
            n = int(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise DomainError(f"bad graph spec {spec!r}; n and seed must be integers") from exc
        return graphs.family(parts[0], n, seed=seed)
    return graphs.read_edge_list(spec)


def _resolve_graph(args, n=None, seed=None):
    if args.edge_list and args.family:
        raise DomainError("give exactly one of --edge-list and --family")
    if args.edge_list:
        G = graphs.read_edge_list(args.edge_list)
    elif args.family:
        n = n if n is not None else args.n
        if n is None:
            raise DomainError("--family requires --n (or --n-range for batch)")
        G = graphs.family(args.family, n, seed=seed if seed is not None else args.seed)
    else:
        raise DomainError("no input: give --edge-list or --family")
    if args.whisker:
        G = graphs.whisker(G)
    if args.bridge_with:
        G = graphs.bridge(G, _parse_graph_spec(args.bridge_with), 1, 1)
    if args.attach_path:
        try:
            v, k = (int(tok) for tok in args.attach_path.split(":"))
        except ValueError as exc:
            raise DomainError(f"bad --attach-path {args.attach_path!r}; want V:K") from exc
        G = graphs.attach_path(G, v, k)
    return G


def _analyze(args, G):
    return analysis.analyze(G, strategy=args.strategy, fpp_cap=args.fpp_cap)


def _render_text(report):
    d = report.to_dict()
    lines = [
        f"graph       n={d['graph']['n']} edges={d['graph']['edges']}",
        f"kappa       {d['kappa']}",
        f"volume      {d['volume']}",
        f"hstar       {d['hstar']}  (strategy: {d['strategy']})",
        f"reflexive   {d['reflexive']}",
        f"ell         {d['ell']}",
        f"symmetric   {d['symmetric']}",
        f"unimodal    {d['unimodal']}",
        f"idp         {d['idp']}",
    ]
    if d["notes"]:
        lines.append(f"notes       {'; '.join(d['notes'])}")
    return "\n".join(lines)


def _csv_writer(out):
    """A CSV writer on ``out`` that has written the header: notes may hold commas."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    return writer


def _csv_row(report):
    """The report's fields in ``CSV_HEADER`` order; the writer leaves None empty."""
    d = report.to_dict()
    hstar = d["hstar"] and ";".join(map(str, d["hstar"]))
    row = {**d, "n": d["graph"]["n"], "hstar": hstar, "notes": "; ".join(d["notes"])}
    return [row[key] for key in CSV_HEADER.split(",")]


def _n_range(spec):
    """The n of ``--n-range A:B``, A to B inclusive; an empty range is an error."""
    try:
        a, b = (int(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"bad --n-range {spec!r}; want A:B") from exc
    if a > b:
        raise DomainError(f"--n-range {spec!r} is empty; want A <= B")
    return range(a, b + 1)


def _check_options(args):
    """Reject option values that would be ignored or changed; fill in those not given."""
    given = vars(args)
    for dest in READS["batch"]:
        if dest in given and dest not in READS[args.command]:
            raise DomainError(f"{args.command} does not read --{dest.replace('_', '-')}")
        given.setdefault(dest, _DEFAULTS.get(dest))
    if args.fpp_cap < 0:
        raise DomainError(f"--fpp-cap must be >= 0, got {args.fpp_cap}")
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    if args.command == "batch" and args.format not in (None, "csv"):
        raise DomainError(f"batch writes CSV only, not --format {args.format}")
    if args.n_range:
        _n_range(args.n_range)  # raises on a bad or empty range
        if args.n is not None or args.edge_list:
            raise DomainError("--n-range is for --family, without --n")
    if args.edge_list and args.n is not None:
        raise DomainError("--n is for --family, not --edge-list")


def cmd_report(args, out):
    report = _analyze(args, _resolve_graph(args))
    fmt = args.format or "json"
    if fmt == "json":
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    elif fmt == "csv":
        _csv_writer(out).writerow(_csv_row(report))
    else:
        out.write(_render_text(report) + "\n")
    return EXIT_OK


def _batch_targets(args):
    if args.n_range:
        ns = _n_range(args.n_range)
    elif args.n is not None:
        ns = [args.n]
    elif args.edge_list:
        ns = [None]
    else:
        raise DomainError("batch needs --n-range, --n, or --edge-list")
    targets = []
    for n in ns:
        for rep in range(args.count):
            targets.append((n, args.seed + rep))
    return targets


def cmd_batch(args, out):
    targets = _batch_targets(args)
    writer = _csv_writer(out)
    for n, seed in targets:
        try:
            row = _csv_row(_analyze(args, _resolve_graph(args, n=n, seed=seed)))
        except (DomainError, FeasibilityError) as exc:  # this row's input, not a bug
            row = [n, *[None] * 8, f"error: {exc}"]
        writer.writerow(row)
    return EXIT_OK


def cmd_verify_paper(args, out):
    results = analysis.paper_regression(only=args.only)
    if not results:
        raise DomainError(f"--only {args.only!r} matches no claim")
    for name, passed, detail in results:
        detail = f"  ({detail})" if detail else ""
        out.write(f"{'PASS' if passed else 'FAIL'}  {name}{detail}\n")
    passes = sum(passed for _, passed, _ in results)
    out.write(f"{passes}/{len(results)} checks passed\n")
    return EXIT_OK if passes == len(results) else EXIT_REGRESSION


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        if args.command == "report":
            return cmd_report(args, out)
        if args.command == "batch":
            return cmd_batch(args, out)
        return cmd_verify_paper(args, out)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (DomainError, FeasibilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug, not a regression: never exit 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
