"""Property reports, IDP decisions, and the regression suite."""

import itertools
import random

import pytest

from lapsim import analysis, ehrhart, graph as g, linalg, simplex as splx
from lapsim.errors import DomainError, FeasibilityError, InternalInconsistencyError
from oracles import dilate_points_by_box, idp_by_cone_search, lattice_points


def brute_is_idp(S, t_max=None):
    """IDP by direct sumset closure: every point of tS is a sum of t points."""
    t_max = t_max if t_max is not None else S.n - 1
    base = set(lattice_points(S))
    sums = set(base)
    for t in range(2, t_max + 1):
        sums = {tuple(a + b for a, b in zip(x, q)) for x in sums for q in base}
        target = set(dilate_points_by_box(S, t))
        if not target <= sums:
            return False
    return True


# -- h* shape predicates -----------------------------------------------------


def test_is_unimodal():
    assert analysis.is_unimodal((1, 2, 3, 2, 1))
    assert analysis.is_unimodal((1, 1, 1))
    assert analysis.is_unimodal((1, 5))
    assert analysis.is_unimodal((3, 1))
    assert not analysis.is_unimodal((1, 3, 1, 3))
    assert not analysis.is_unimodal((2, 1, 2))


def test_is_symmetric():
    assert analysis.is_symmetric((1, 7, 1))
    assert analysis.is_symmetric((1,))
    assert not analysis.is_symmetric((1, 2, 3))


# -- IDP ---------------------------------------------------------------------


def test_idp_known_cases():
    assert analysis.is_idp(splx.build(g.family("complete", 3)))
    assert analysis.is_idp(splx.build(g.family("complete", 4)))
    assert not analysis.is_idp(splx.build(g.family("cycle", 5)))


def test_idp_matches_brute_force():
    for G in (
        g.family("cycle", 3),
        g.family("cycle", 4),
        g.family("cycle", 5),
        g.family("path", 4),
        g.random_connected_graph(4, seed=77),
    ):
        S = splx.build(G)
        assert analysis.is_idp(S) == brute_is_idp(S)


def test_idp_matches_cone_search_oracle():
    decided = []
    for k in range(48):
        n, extra = 4 + k % 3, 1 + (k // 3) % 6
        S = splx.build(g.random_connected_graph(n, seed=4000 + k, extra_edges=extra))
        decided.append(analysis.is_idp(S))
        assert decided[-1] == idp_by_cone_search(S), (n, extra, k)
    assert any(decided) and not all(decided)


def test_guard_packing_subtraction():
    q, n = 25, 3
    packing = linalg.group_packing(q, n)
    pack, guard = packing.pack, packing.guard
    r = (7, q - 1, 3)
    # equal component, top component r_i = q - 1, and a strictly smaller one
    for g_vec in ((7, q - 1, 0), (7, 0, 3), (0, q - 2, 2), (7, q - 1, 3)):
        d = (pack(r) | guard) - pack(g_vec)
        assert d & guard == guard
        assert d ^ guard == pack(tuple(a - b for a, b in zip(r, g_vec)))
        assert packing.unpack(d ^ guard) == tuple(a - b for a, b in zip(r, g_vec))
    # one component larger than r's: the borrow clears that field's guard bit
    for g_vec in ((8, 0, 0), (0, 0, 4), (7, q - 1, 4)):
        assert ((pack(r) | guard) - pack(g_vec)) & guard != guard


def test_analyze_walks_the_group_once(monkeypatch):
    calls = []
    original = linalg.hermite_basis_mod
    monkeypatch.setattr(
        linalg, "hermite_basis_mod", lambda M, q: calls.append(q) or original(M, q)
    )
    r = analysis.analyze(g.family("cycle", 6))
    assert r.hstar.strategy == "generic_snf" and r.idp is not None
    assert calls == [36]


def test_fpp_cap_bounds_is_idp():
    with pytest.raises(FeasibilityError) as exc:
        analysis.is_idp(splx.build(g.family("cycle", 5)), cap=3)
    assert exc.value.required == 25


def test_fpp_cap_bounds_every_walk(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "hermite_basis_mod", lambda M, q: calls.append(q))
    r = analysis.analyze(g.family("cycle", 5), fpp_cap=1)
    assert r.hstar.strategy == "cycle_closed_form" and r.hstar.entries == (1, 1, 21, 1, 1)
    assert r.idp is None
    assert len(r.notes) == 1 and r.notes[0].startswith("idp skipped: ")
    assert calls == []


def test_walk_is_checked_for_every_consumer(monkeypatch):
    original = linalg.group_levels

    def repeat_one(basis, q, packing):
        levels = original(basis, q, packing)
        level = max(levels, key=len)
        level[-1] = level[0]  # one element twice, another one lost
        return levels

    monkeypatch.setattr(linalg, "group_levels", repeat_one)
    with pytest.raises(InternalInconsistencyError, match="lost points"):
        analysis.is_idp(splx.build(g.family("cycle", 6)))
    with pytest.raises(InternalInconsistencyError, match="lost points"):
        ehrhart.hstar(splx.build(g.family("cycle", 6)), strategy="generic_snf")


def test_k7_one_walk_gives_hstar_and_idp(monkeypatch):
    calls = []
    original = linalg.hermite_basis_mod
    monkeypatch.setattr(
        linalg, "hermite_basis_mod", lambda M, q: calls.append(q) or original(M, q)
    )
    S = splx.build(g.family("complete", 7))
    walked = ehrhart.hstar(S, strategy="generic_snf")
    assert walked.entries == ehrhart.hstar_complete(7).entries
    assert analysis.is_idp(S)
    assert calls == [7**6]


def test_c101_report():
    r = analysis.analyze(g.family("cycle", 101))
    assert r.hstar.strategy == "cycle_closed_form"
    assert r.hstar.entries == ehrhart.hstar_cycle_closed_form(101).entries
    assert r.idp is False and r.reflexive and r.notes == ()


# -- structural criteria -----------------------------------------------------


def test_bridge_division_condition():
    assert analysis.bridge_division_condition(g.family("cycle", 5))
    assert analysis.bridge_division_condition(g.family("complete", 4))
    assert analysis.bridge_division_condition(g.family("path", 4))
    assert analysis.bridge_division_condition(g.family("path", 2))  # K2: adj(B) = [[1]]


def test_prime_cycle_formula():
    for n in (3, 5, 7, 11, 9, 15):
        assert analysis.verify_prime_cycle_formula(n)
    with pytest.raises(DomainError):
        analysis.verify_prime_cycle_formula(6)
    with pytest.raises(DomainError):
        analysis.verify_prime_cycle_formula(1)


# -- analyze -----------------------------------------------------------------


def test_analyze_cycle5():
    r = analysis.analyze(g.family("cycle", 5))
    assert (r.n, r.kappa, r.volume) == (5, 5, 25)
    assert r.hstar.entries == (1, 1, 21, 1, 1)
    assert r.reflexive and r.symmetric and r.unimodal
    assert r.ell == 1
    assert r.idp is False
    assert r.notes == ()


def test_analyze_even_cycle():
    r = analysis.analyze(g.family("cycle", 6))
    assert not r.reflexive
    assert r.ell == 2
    assert not r.symmetric


def test_analyze_respects_caps():
    # C6 has no closed form, so the parallelepiped cap applies
    r = analysis.analyze(g.family("cycle", 6), fpp_cap=1)
    assert r.hstar is None
    assert r.symmetric is None and r.unimodal is None
    assert r.idp is None
    assert len(r.notes) == 2
    assert (r.kappa, r.volume, r.reflexive) == (6, 36, False)


def test_analyze_strategy_override():
    r = analysis.analyze(g.family("cycle", 5), strategy="generic_snf")
    assert r.hstar.strategy == "generic_snf"
    assert r.hstar.entries == (1, 1, 21, 1, 1)


def test_report_to_dict_schema():
    d = analysis.analyze(g.family("cycle", 4)).to_dict()
    assert set(d) == {
        "graph",
        "kappa",
        "volume",
        "hstar",
        "strategy",
        "reflexive",
        "ell",
        "symmetric",
        "unimodal",
        "idp",
        "notes",
    }
    assert d["graph"] == {"n": 4, "edges": [[1, 2], [1, 4], [2, 3], [3, 4]]}
    assert isinstance(d["hstar"], list) and d["hstar"][0] == 1
    assert isinstance(d["notes"], list)


def test_report_to_dict_none_fields():
    d = analysis.analyze(g.family("cycle", 6), fpp_cap=1).to_dict()
    assert d["hstar"] is None and d["strategy"] is None
    assert d["symmetric"] is None and d["unimodal"] is None and d["idp"] is None


# -- regression suite --------------------------------------------------------


def test_paper_regression_all_pass():
    report = analysis.paper_regression()
    assert report.ok, [c.name for c in report.failures]
    assert len(report.cases) == 20


def test_paper_regression_only_filter():
    report = analysis.paper_regression(only="complete/")
    assert report.cases
    assert all("complete/" in c.name for c in report.cases)
    assert report.ok
