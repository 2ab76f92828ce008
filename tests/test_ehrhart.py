"""h*-vectors, parallelepiped enumeration, and dilate counting oracles."""

import itertools
import random

import pytest

from lapsim import ehrhart, graph as g, simplex as splx
from lapsim.errors import DomainError, FeasibilityError
from oracles import solve_exact


def brute_fpp_heights(S):
    """Height histogram of the half-open parallelepiped by box scan.

    Independent of the group walk: checks every integer point of a bounding
    box for coefficients in [0, 1) with an exact rational solve.
    """
    M = S.lifted
    n = S.n
    # parallelepiped is contained in the box of column-wise coefficient sums
    los = [sum(min(r[j], 0) for r in M.rows) for j in range(n)]
    his = [sum(max(r[j], 0) for r in M.rows) for j in range(n)]
    counts = [0] * n
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        lam = solve_exact(M.transpose(), point)
        if all(0 <= c < 1 for c in lam):
            counts[point[-1]] += 1
    return counts


def brute_compositions(total, parts, max_part):
    return sum(
        1
        for c in itertools.product(range(max_part + 1), repeat=parts)
        if sum(c) == total
    )


# -- HStarVector -------------------------------------------------------------


def test_hstar_vector_validation():
    h = ehrhart.HStarVector((1, 2, 1), "generic_snf")
    assert h.total == 4
    assert list(h) == [1, 2, 1]
    assert h[1] == 2 and len(h) == 3
    with pytest.raises(DomainError):
        ehrhart.HStarVector((2, 1), "generic_snf")
    with pytest.raises(DomainError):
        ehrhart.HStarVector((1, -1), "generic_snf")
    with pytest.raises(DomainError):
        ehrhart.HStarVector((1, 1), "nope")


# -- fundamental parallelepiped ----------------------------------------------


def test_fpp_points_c3():
    S = splx.build(g.family("cycle", 3))
    pts = list(ehrhart.fpp_points(S))
    assert len(pts) == 9
    assert len({p.point for p in pts}) == 9
    for p in pts:
        assert p.point[-1] == p.height
        assert 0 <= p.height < 3
        assert p.q == 9 and all(0 <= x < p.q for x in p.r)
        # the scaled coefficients r / q reproduce the point exactly
        assert S.lifted.mul_row_vector(p.r) == tuple(p.q * x for x in p.point)


def test_fpp_heights_match_brute_force():
    for G in (
        g.family("complete", 3),
        g.family("cycle", 4),
        g.family("cycle", 5),
        g.family("path", 3),
    ):
        S = splx.build(G)
        got = [0] * S.n
        for p in ehrhart.fpp_points(S):
            got[p.height] += 1
        assert got == brute_fpp_heights(S)


# 20 vertices, one 7-cycle, volume 140: a Smith normal form of its lifted
# matrix grew entries past 600 bits and ran for minutes.
SNF_HANG = g.Graph(
    20,
    [
        tuple(int(x) for x in e.split("-"))
        for e in (
            "1-10 2-9 2-13 3-5 3-14 4-12 4-19 5-10 5-13 6-14 7-18 8-16 9-19 "
            "11-18 11-19 13-17 13-20 15-17 16-19 17-18"
        ).split()
    ],
)


def test_walk_on_former_snf_hang_graph():
    S = splx.build(SNF_HANG)
    h = ehrhart.hstar(S, strategy="generic_snf")
    assert S.volume == h.total == 140
    assert (h.entries == h.entries[::-1]) == splx.is_reflexive(S)


def test_walk_matches_odd_cycle_closed_form():
    for n in range(5, 16, 2):
        walked = ehrhart.hstar(splx.build(g.family("cycle", n)), strategy="generic_snf")
        assert walked.entries == ehrhart.hstar_cycle_closed_form(n).entries
        if n in (7, 11, 13):  # prime n: (1, ..., 1, n^2 - n + 1, 1, ..., 1)
            expected = [1] * n
            expected[(n - 1) // 2] = n * n - n + 1
            assert list(walked) == expected


def test_walk_matches_odd_cycle_closed_form_to_c41():
    for n in range(17, 42, 2):
        walked = ehrhart.hstar(splx.build(g.family("cycle", n)), strategy="generic_snf")
        assert walked.entries == ehrhart.hstar_cycle_closed_form(n).entries
        if all(n % p for p in range(3, n, 2)):  # prime n: the walk has the prime shape
            expected = [1] * n
            expected[(n - 1) // 2] = n * n - n + 1
            assert list(walked) == expected, n


def test_walk_matches_complete_closed_form():
    for n in (5, 6):
        walked = ehrhart.hstar(splx.build(g.family("complete", n)), strategy="generic_snf")
        assert walked.entries == ehrhart.hstar_complete(n).entries


def test_fpp_cap():
    S = splx.build(g.family("cycle", 5))
    with pytest.raises(FeasibilityError) as exc:
        list(ehrhart.fpp_points(S, cap=10))
    assert exc.value.required == 25


# -- closed forms ------------------------------------------------------------


def test_cycle_closed_form_small():
    assert ehrhart.hstar_cycle_closed_form(3).entries == (1, 7, 1)
    assert ehrhart.hstar_cycle_closed_form(5).entries == (1, 1, 21, 1, 1)


def test_cycle_closed_form_totals():
    for n in (3, 5, 7, 9, 11):
        h = ehrhart.hstar_cycle_closed_form(n)
        assert h.total == n * n
        assert h.entries == h.entries[::-1]


def test_cycle_closed_form_domain():
    with pytest.raises(DomainError):
        ehrhart.hstar_cycle_closed_form(4)
    with pytest.raises(DomainError):
        ehrhart.hstar_cycle_closed_form(1)


def test_bounded_compositions_matches_brute_force():
    for total in range(0, 9):
        for parts in (2, 3, 4):
            for max_part in (1, 2, 3):
                assert ehrhart.bounded_compositions(
                    total, parts, max_part
                ) == brute_compositions(total, parts, max_part)
    assert ehrhart.bounded_compositions(-1, 3, 2) == 0


def test_hstar_complete_small():
    assert ehrhart.hstar_complete(2).entries == (1, 1)
    assert ehrhart.hstar_complete(3).entries == (1, 7, 1)
    assert ehrhart.hstar_complete(4).entries == (1, 31, 31, 1)
    for n in range(2, 7):
        assert ehrhart.hstar_complete(n).total == n ** (n - 1)


# -- strategy dispatch -------------------------------------------------------


def test_hstar_auto_dispatch():
    assert ehrhart.hstar(splx.build(g.family("path", 4))).strategy == "tree_closed_form"
    assert ehrhart.hstar(splx.build(g.family("cycle", 5))).strategy == "cycle_closed_form"
    assert (
        ehrhart.hstar(splx.build(g.family("complete", 4))).strategy
        == "complete_compositions"
    )
    assert ehrhart.hstar(splx.build(g.family("cycle", 4))).strategy == "generic_snf"


def test_hstar_strategy_mismatch():
    S = splx.build(g.family("cycle", 4))
    with pytest.raises(DomainError):
        ehrhart.hstar(S, strategy="tree_closed_form")
    with pytest.raises(DomainError):
        ehrhart.hstar(S, strategy="complete_compositions")
    with pytest.raises(DomainError):
        ehrhart.hstar(S, strategy="bogus")


def test_hstar_strategies_agree():
    rng = random.Random(31)
    for k in range(8):
        G = g.random_connected_graph(rng.randint(3, 5), seed=300 + k)
        S = splx.build(G)
        gen = ehrhart.hstar(S, strategy="generic_snf")
        via_counts = ehrhart.hstar(S, strategy="dilate_interpolation")
        assert gen.entries == via_counts.entries


# -- Ehrhart evaluation and dilate counting ----------------------------------


def test_ehrhart_eval_basics():
    h = ehrhart.HStarVector((1, 7, 1), "generic_snf")
    assert ehrhart.ehrhart_eval(h, 0) == 1
    assert ehrhart.ehrhart_eval(h, 1) == 10
    with pytest.raises(DomainError):
        ehrhart.ehrhart_eval(h, -1)


def test_ehrhart_eval_matches_dilate_scan():
    for G in (g.family("cycle", 3), g.family("cycle", 4), g.family("path", 4)):
        S = splx.build(G)
        h = ehrhart.hstar(S, strategy="generic_snf")
        for t in range(4):
            assert ehrhart.ehrhart_eval(h, t) == ehrhart.count_dilate_points(S, t)


def test_count_dilate_points_t0_and_t1():
    S = splx.build(g.family("complete", 3))
    assert ehrhart.count_dilate_points(S, 0) == 1
    # L(1) = (d + 1) + h*_1
    assert ehrhart.count_dilate_points(S, 1) == 3 + 7


def test_lattice_points_contain_vertices_and_origin():
    S = splx.build(g.family("cycle", 5))
    pts = set(ehrhart.lattice_points(S))
    assert (0,) * S.dim in pts
    assert all(tuple(r) in pts for r in S.vertex_matrix.rows)


def test_dilate_scan_cap():
    S = splx.build(g.family("cycle", 5))
    with pytest.raises(FeasibilityError):
        ehrhart.count_dilate_points(S, 3, cap=5)


def test_hstar_from_counts_roundtrip():
    h = ehrhart.HStarVector((1, 4, 2, 1), "generic_snf")
    counts = [ehrhart.ehrhart_eval(h, t) for t in range(4)]
    assert ehrhart.hstar_from_counts(counts).entries == h.entries
