"""The paper's claims, one test per claim.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
claim of ``analysis.PAPER_CLAIMS``, the list that ``lapsim verify-paper``
runs, plus the one check that needs a test oracle.  Every comparison is
exact integer or rational arithmetic; there are no tolerances anywhere.
"""

import pytest

from lapsim import analysis, ehrhart, graph as g, simplex as splx
from oracles import lattice_points


@pytest.mark.parametrize("name", analysis.PAPER_CLAIMS)
def test_paper_claim(name):
    passed, detail = analysis.check_claim(name)
    assert passed, detail


def test_hstar_1_counts_lattice_points():
    """h*_1 = |S ∩ Z^d| - n on the graphs of ``sweep/hibi-and-consistency``.

    The lattice points come from the box scan, which shares no code with the
    library.
    """
    for k in range(25):
        G = g.random_connected_graph(3 + k % 4, seed=analysis.DEFAULT_SWEEP_SEED + k)
        S = splx.build(G)
        h = ehrhart.hstar(S, strategy="generic_snf")
        assert h.entries[1] == len(lattice_points(S)) - G.n
