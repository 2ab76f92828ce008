"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Every comparison is exact integer or rational arithmetic; there
are no tolerances anywhere.
"""

import random
from fractions import Fraction as F
from math import comb

from lapsim import analysis, ehrhart, graph as g, simplex as splx
from lapsim.graph import Graph


def test_criterion_01_c5_hstar_both_paths():
    S = splx.build(g.family("cycle", 5))
    generic = ehrhart.hstar(S, strategy="generic_snf").entries
    closed = ehrhart.hstar_cycle_closed_form(5).entries
    assert generic == closed == (1, 1, 21, 1, 1)
    print("PASS criterion 1: h*(C5) = (1,1,21,1,1) by both methods")


def test_criterion_02_prime_cycle_formula():
    for n in (3, 5, 7, 11):
        expected = [1] * n
        expected[(n - 1) // 2] = n * n - n + 1
        assert list(ehrhart.hstar_cycle_closed_form(n).entries) == expected
        assert analysis.verify_prime_cycle_formula(n)
    print("PASS criterion 2: prime cycle h* formula for n = 3, 5, 7, 11")


def test_criterion_03_c9_composite():
    closed = ehrhart.hstar_cycle_closed_form(9).entries
    generic = ehrhart.hstar(splx.build(g.family("cycle", 9)), strategy="generic_snf")
    assert closed == generic.entries == (1, 1, 1, 7, 61, 7, 1, 1, 1)
    m = (9 - 3) // 2  # largest proper divisor of 9 is 3
    assert closed[:m] == (1,) * m and closed[m] != 1
    assert closed[4] == 61 >= 9 * 6 + 1
    print("PASS criterion 3: C9 h* = (1,1,1,7,61,7,1,1,1) with bounds")


def test_criterion_04_trees():
    rng = random.Random(analysis.DEFAULT_SWEEP_SEED)
    for _ in range(20):
        n = rng.randint(2, 8)
        G = g.family("random_tree", n, seed=rng.randrange(2**30))
        S = splx.build(G)
        assert ehrhart.hstar(S, strategy="generic_snf").entries == (1,) * n
        assert S.volume == n
        assert splx.is_reflexive(S)
    print("PASS criterion 4: 20 random trees have h* = (1,...,1), reflexive")


def test_criterion_05_complete_graphs():
    assert ehrhart.hstar_complete(3).entries == (1, 7, 1)
    assert ehrhart.hstar_complete(4).entries == (1, 31, 31, 1)
    gen3 = ehrhart.hstar(splx.build(g.family("complete", 3)), strategy="generic_snf")
    gen4 = ehrhart.hstar(splx.build(g.family("complete", 4)), strategy="generic_snf")
    assert gen3.entries == (1, 7, 1) and gen4.entries == (1, 31, 31, 1)
    for n in range(2, 6):
        h = ehrhart.hstar_complete(n)
        for t in range(5):
            assert ehrhart.ehrhart_eval(h, t) == comb(t * n + n - 1, n - 1)
    print("PASS criterion 5: complete-graph h* and Ehrhart values")


def test_criterion_06_reflexivity_table():
    for n in range(3, 10):
        assert splx.is_reflexive(splx.build(g.family("cycle", n))) == (n % 2 == 1)
    for k in (2, 3, 4):
        assert splx.ell_reflexive_index(splx.build(g.family("cycle", 2 * k))) == 2
    for n in range(2, 7):
        assert splx.is_reflexive(splx.build(g.family("complete", n)))
    for n in range(4, 13, 2):
        assert splx.is_reflexive(splx.build(g.whisker(g.family("cycle", n))))
    for a in (3, 5):
        G = g.bridge(g.family("cycle", a), g.family("complete", a), 1, 1)
        assert splx.is_reflexive(splx.build(G))
    print("PASS criterion 6: reflexivity table (cycles, complete, whisker, bridge)")


def test_criterion_07_dual_vertex_spot_checks():
    d3 = {f.dual_vertex for f in splx.facets(splx.build(g.family("cycle", 3)))}
    assert d3 == {(F(-1), F(0)), (F(1), F(-1)), (F(0), F(1))}
    d5 = {f.dual_vertex for f in splx.facets(splx.build(g.family("cycle", 5)))}
    assert (F(-2), F(-1), F(0), F(1)) in d5
    d4 = {f.dual_vertex for f in splx.facets(splx.build(g.family("cycle", 4)))}
    assert (F(-3, 2), F(-1, 2), F(1, 2)) in d4
    print("PASS criterion 7: dual vertex spot checks for C3, C4, C5")


def test_criterion_08_idp():
    for n in (3, 4, 5, 6):
        assert analysis.is_idp(splx.build(g.family("complete", n)))
    for n in range(5, 16, 2):
        assert not analysis.is_idp(splx.build(g.family("cycle", n)))
    print("PASS criterion 8: IDP holds for K3-K6, fails for odd C5-C15")


def test_criterion_09_cross_method_consistency():
    for k in range(25):
        G = g.random_connected_graph(3 + k % 4, seed=analysis.DEFAULT_SWEEP_SEED + k)
        S = splx.build(G)
        h = ehrhart.hstar(S, strategy="generic_snf")
        assert S.volume == G.n * S.kappa == h.total
        assert h.entries == ehrhart.hstar(S, strategy="dilate_interpolation").entries
        refl = splx.is_reflexive(S)
        assert refl == splx.cofactor_reflexivity_test(S)
        assert refl == analysis.is_symmetric(h)
        assert h.entries[1] == len(ehrhart.lattice_points(S)) - G.n
    print("PASS criterion 9: cross-method consistency on 25 random graphs")


def test_criterion_10_unimodality():
    rng = random.Random(analysis.DEFAULT_SWEEP_SEED)
    for _ in range(10):
        n = rng.randint(2, 8)
        S = splx.build(g.family("random_tree", n, seed=rng.randrange(2**30)))
        assert analysis.is_unimodal(ehrhart.hstar(S))
    for n in (3, 5, 7, 9, 11):
        assert analysis.is_unimodal(ehrhart.hstar_cycle_closed_form(n))
    for n in range(2, 7):
        assert analysis.is_unimodal(ehrhart.hstar_complete(n))
    print("PASS criterion 10: unimodality for trees, odd cycles, complete graphs")


def test_criterion_11_equivalence_operations():
    # leaf move on the wedge of C3 and K3 matches the bridged graph
    wedge = Graph(6, [(1, 2), (2, 3), (1, 3), (1, 4), (1, 5), (4, 5), (1, 6)])
    moved = g.leaf_move(wedge, A={1, 2, 3, 6}, x=1, y=6)
    bridged = g.bridge(g.family("cycle", 3), g.family("complete", 3), 1, 1)
    Sm, Sb = splx.build(moved), splx.build(bridged)
    hm = ehrhart.hstar(Sm, strategy="generic_snf")
    hb = ehrhart.hstar(Sb, strategy="generic_snf")
    assert hm.entries == hb.entries and Sm.volume == Sb.volume

    # attaching any k-vertex tree gives the same data as a k-vertex path
    base = g.family("cycle", 5)
    k = 3
    via_path = splx.build(g.attach_path(base, 2, k))
    star = Graph(k + 1, [(1, i) for i in range(2, k + 2)])
    via_tree = splx.build(g.attach_tree(base, 2, star))
    hp = ehrhart.hstar(via_path, strategy="generic_snf")
    ht = ehrhart.hstar(via_tree, strategy="generic_snf")
    assert hp.entries == ht.entries and via_path.volume == via_tree.volume
    print("PASS criterion 11: leaf move and tree attachment preserve h* and volume")
