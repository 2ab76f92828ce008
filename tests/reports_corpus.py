"""The report corpus: ``analyze`` of every connected graph with 2 <= n <= 7.

``tests/data/reports_n7.jsonl`` holds a header line with the command and the
git sha that wrote it, then one line per graph in the order of
``networkx.graph_atlas_g`` (995 graphs): its atlas index and the whole
``PropertyReport.to_dict()``, whose ``graph`` field holds n and the edges.
networkx is needed only to write the file; reading and checking it need the
standard library and lapsim alone.

    python tests/reports_corpus.py write   # rewrite the file from the atlas
    python tests/reports_corpus.py check   # recompute all 995 reports

``check`` prints each graph whose report differs and exits 1 if any does.
Run both from the repository root with ``PYTHONPATH=src``.
"""

import json
import subprocess
import sys
from pathlib import Path

from lapsim.analysis import analyze
from lapsim.graph import Graph

PATH = Path(__file__).with_name("data") / "reports_n7.jsonl"
MAX_ATLAS_N = 7


def atlas_graphs():
    """(atlas index, Graph) of every connected atlas graph with n >= 2, relabeled 1..n."""
    import networkx as nx

    for index, A in enumerate(nx.graph_atlas_g()):
        n = A.number_of_nodes()
        if 2 <= n <= MAX_ATLAS_N and nx.is_connected(A):
            yield index, Graph(n, [(u + 1, v + 1) for u, v in A.edges()])


def report_of(record):
    """The report of a corpus line's graph, recomputed, as a dict."""
    graph = record["report"]["graph"]
    return analyze(Graph(graph["n"], graph["edges"])).to_dict()


def read():
    """The header and the graph lines of the corpus."""
    with open(PATH, encoding="ascii") as fh:
        header, *records = map(json.loads, fh)
    return header, records


def write():
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    PATH.parent.mkdir(exist_ok=True)
    with open(PATH, "w", encoding="ascii") as fh:
        header = {"command": "python tests/reports_corpus.py write", "git_sha": sha}
        fh.write(json.dumps(header) + "\n")
        for index, G in atlas_graphs():
            record = {"atlas": index, "report": analyze(G).to_dict()}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def check():
    _, records = read()
    bad = [r["atlas"] for r in records if report_of(r) != r["report"]]
    for index in bad:
        print(f"atlas graph {index}: report differs")
    print(f"{len(records) - len(bad)}/{len(records)} reports match")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["write"]:
        write()
    elif sys.argv[1:] == ["check"]:
        sys.exit(check())
    else:
        sys.exit(__doc__)
