"""Command-line front end.

Usage sketch::

    lapsim --family cycle --n 5 report
    lapsim --family cycle --n-range 3:9 --format csv batch
    lapsim verify-paper [--only cycles]

One step, ``_check_options``, decides what an invocation reads, needs and means, and
parses each option value once; the per-graph code only builds from those values.

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

# Every global option and its value when not given.  The parser records only the
# options given, so ``_check_options`` can refuse one that is not read at any value.
_DEFAULTS = {
    "edge_list": None, "family": None, "n": None, "n_range": None, "count": 1, "seed": 0,
    "whisker": False, "bridge_with": None, "attach_path": None, "strategy": None,
    "fpp_cap": ehrhart.DEFAULT_FPP_CAP, "format": None,
}


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
        help="bridge with 'family:n', 'random_tree:n[:seed]' or an edge-list path",
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


def _int_pair(option, spec, want):
    try:
        a, b = (int(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"bad {option} {spec!r}; want {want}") from exc
    return a, b


def _parse_graph_spec(spec):
    """The graph of ``--bridge-with``: an edge-list path, or 'family:n', where
    random_tree also takes a seed, 'random_tree:n[:seed]', 0 by default like ``--seed``."""
    if ":" not in spec:
        return graphs.read_edge_list(spec)
    kind, *numbers = spec.split(":")
    if len(numbers) > 1 + (kind == "random_tree"):
        raise DomainError(f"bad graph spec {spec!r}; want family:n or random_tree:n[:seed]")
    try:
        n, seed = int(numbers[0]), int(numbers[1]) if len(numbers) == 2 else 0
    except ValueError as exc:
        raise DomainError(f"bad graph spec {spec!r}; n and seed must be integers") from exc
    return graphs.family(kind, n, seed=seed)


def _resolve_graph(args, n, seed):
    """Build one graph from the values that ``_check_options`` parsed."""
    if args.edge_list is not None:
        G = graphs.read_edge_list(args.edge_list)
    else:
        G = graphs.family(args.family, n, seed=seed)
    if args.whisker:
        G = graphs.whisker(G)
    if args.bridge_with:
        G = graphs.bridge(G, args.bridge_with, 1, 1)
    if args.attach_path:
        G = graphs.attach_path(G, *args.attach_path)
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


def _check_options(args):
    """Decide once what this invocation reads, needs and means, and parse it.

    ``verify-paper`` reads no global option.  ``report`` and ``batch`` read exactly one
    input, the operations, ``--strategy``, ``--fpp-cap`` and ``--format``; with
    ``--family`` also a size (``--n``, or in batch without it ``--n-range``), and with
    ``--family random_tree`` also ``--seed`` and, in batch, ``--count``.  Any other option
    given is refused at any value.  The values that need parsing are parsed here, and
    the ``--bridge-with`` graph is built here, so a bad one exits before any row.
    """
    given, invocation, reads = vars(args), args.command, set()
    if args.command != "verify-paper":
        if ("edge_list" in given) == ("family" in given):
            raise DomainError("give exactly one of --edge-list and --family")
        reads = {"edge_list", "family", "whisker", "bridge_with", "attach_path"}
        reads |= {"strategy", "fpp_cap", "format"}
        if "edge_list" in given:
            invocation += " --edge-list"
        else:
            size = "n" if args.command == "report" or "n" in given else "n_range"
            if size not in given:
                raise DomainError("--family requires --n (or --n-range for batch)")
            invocation += f" --family {args.family} --{size.replace('_', '-')}"
            reads.add(size)
            if args.family == "random_tree":
                reads |= {"seed", "count"} if args.command == "batch" else {"seed"}
    for dest, default in _DEFAULTS.items():
        if dest in given and dest not in reads:
            raise DomainError(f"{invocation} does not read --{dest.replace('_', '-')}")
        given.setdefault(dest, default)
    if args.fpp_cap < 0:
        raise DomainError(f"--fpp-cap must be >= 0, got {args.fpp_cap}")
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    if args.command == "batch" and args.format not in (None, "csv"):
        raise DomainError(f"batch writes CSV only, not --format {args.format}")
    if args.n_range is not None:
        a, b = _int_pair("--n-range", args.n_range, "A:B")
        if a > b:
            raise DomainError(f"--n-range {args.n_range!r} is empty; want A <= B")
        args.n_range = range(a, b + 1)
    if args.attach_path is not None:
        args.attach_path = _int_pair("--attach-path", args.attach_path, "V:K")
    if args.bridge_with is not None:
        args.bridge_with = _parse_graph_spec(args.bridge_with)


def cmd_report(args, out):
    report = _analyze(args, _resolve_graph(args, args.n, args.seed))
    fmt = args.format or "json"
    if fmt == "json":
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    elif fmt == "csv":
        _csv_writer(out).writerow(_csv_row(report))
    else:
        out.write(_render_text(report) + "\n")
    return EXIT_OK


def _batch_targets(args):
    """The (n, seed) of each row: n is None for an edge list."""
    ns = args.n_range or [args.n]
    return [(n, args.seed + rep) for n in ns for rep in range(args.count)]


def cmd_batch(args, out):
    writer = _csv_writer(out)
    for n, seed in _batch_targets(args):
        try:
            row = _csv_row(_analyze(args, _resolve_graph(args, n, seed)))
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
