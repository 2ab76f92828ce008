"""Reports equal the committed corpus of every connected graph with n <= 7.

Tier-1 recomputes every graph with n <= 6 and every seventh graph with
n = 7; ``python tests/reports_corpus.py check`` recomputes all 995.
"""

import reports_corpus


def test_corpus_holds_every_connected_graph_up_to_7_vertices():
    header, records = reports_corpus.read()
    assert header["command"] == "python tests/reports_corpus.py write"
    assert len(header["git_sha"]) == 40
    atlas = [r["atlas"] for r in records]
    assert atlas == sorted(set(atlas))
    # connected graphs on 2..7 vertices, OEIS A001349
    sizes = [r["report"]["graph"]["n"] for r in records]
    assert [sizes.count(n) for n in range(2, 8)] == [1, 2, 6, 21, 112, 853]


def test_reports_match_the_corpus():
    _, records = reports_corpus.read()
    small = [r for r in records if r["report"]["graph"]["n"] <= 6]
    sevens = [r for r in records if r["report"]["graph"]["n"] == 7][::7]
    assert len(small) == 142 and len(sevens) == 122
    bad = [r["atlas"] for r in small + sevens if reports_corpus.report_of(r) != r["report"]]
    assert not bad, f"atlas graphs whose report differs: {bad}"
