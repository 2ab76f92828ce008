"""h*-vectors, parallelepiped enumeration, and dilate counting oracles."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest

import lapsim
from lapsim import analysis, ehrhart, graph as g, linalg, simplex as splx
from lapsim.errors import DomainError, FeasibilityError, InternalInconsistencyError
from oracles import (
    dilate_points_by_box,
    fpp_point,
    hstar_cycle_by_kernel_sum,
    lattice_points,
    mutant,
    solve_exact,
    transpose,
)


def brute_fpp_heights(S):
    """Height histogram of the half-open parallelepiped by box scan.

    Independent of the group walk: checks every integer point of a bounding
    box for coefficients in [0, 1) with an exact rational solve.
    """
    M = S.lifted
    n = S.n
    # parallelepiped is contained in the box of column-wise coefficient sums
    los = [sum(min(r[j], 0) for r in M) for j in range(n)]
    his = [sum(max(r[j], 0) for r in M) for j in range(n)]
    counts = [0] * n
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        lam = solve_exact(transpose(M), point)
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
    # only a bug can make an h* that starts above 1 or has a negative entry
    with pytest.raises(InternalInconsistencyError):
        ehrhart.HStarVector((2, 1), "generic_snf")
    with pytest.raises(InternalInconsistencyError):
        ehrhart.HStarVector((1, -1), "generic_snf")


# -- fundamental parallelepiped ----------------------------------------------


def test_fpp_points_c3():
    S = splx.build(g.family("cycle", 3))
    levels = ehrhart.fpp_points(S)
    pts = [(height, r) for height, level in enumerate(levels) for r in level]
    assert len(pts) == 9
    packing = linalg.group_packing(9, 3)
    # the coordinates r M / q rebuilt from each packed r are 9 distinct points
    points = {fpp_point(S, r) for _, r in pts}
    assert len(points) == 9
    for height, r in pts:
        assert fpp_point(S, r)[-1] == height
        assert 0 <= height < 3
        assert all(0 <= x < 9 for x in packing.unpack(r))


def test_walk_matches_coordinate_rebuild():
    rng = random.Random(29)
    graphs = [g.family("complete", 5), g.family("cycle", 9)]
    for _ in range(25):
        graphs.append(g.random_connected_graph(rng.randint(3, 8), seed=rng.randrange(2**30)))
    for G in graphs:
        S = splx.build(G)
        pts = [(height, r) for height, level in enumerate(ehrhart.fpp_points(S)) for r in level]
        # fpp_point raises unless r M is divisible by q; its last coordinate is the height
        points = [fpp_point(S, r) for _, r in pts]
        assert [p[-1] for p in points] == [height for height, _ in pts], G
        assert len(set(points)) == S.volume, G


def test_fpp_heights_match_brute_force():
    for G in (
        g.family("complete", 3),
        g.family("cycle", 4),
        g.family("cycle", 5),
        g.family("path", 3),
    ):
        S = splx.build(G)
        got = [len(level) for level in ehrhart.fpp_points(S)]
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


# Each mutation breaks the packed walk; a check in group_levels or fpp_levels
# must catch it for both consumers.
WALK_MUTATIONS = {
    "missing wrap subtract": (
        linalg.group_levels,
        "cur -= (wrapped >> top) * q",
        "pass",
    ),
    "wrap test one below q": (
        linalg.group_levels,
        "over = guard - q * packing.ones",
        "over = guard - (q - 1) * packing.ones",
    ),
    "wrap test one above q": (
        linalg.group_levels,
        "over = guard - q * packing.ones",
        "over = guard - (q + 1) * packing.ones",
    ),
    "height ignores wraps": (
        linalg.group_levels,
        "height += rise - wrapped.bit_count()",
        "height += rise",
    ),
    "field one bit too narrow": (
        linalg.group_packing,
        "width = (q * max(n - 1, 2)).bit_length()",
        "width = (q * max(n - 1, 2)).bit_length() - 1",
    ),
}


@pytest.mark.parametrize("mutation", sorted(WALK_MUTATIONS))
def test_walk_mutations_are_caught(monkeypatch, mutation):
    fn, old, new = WALK_MUTATIONS[mutation]
    monkeypatch.setattr(linalg, fn.__name__, mutant(fn, old, new))
    # both groups have two cyclic factors and reach a coordinate q - 1, so
    # every mutation above changes their walks
    for seed in (0, 3):
        G = g.random_connected_graph(7, seed=seed, extra_edges=3)
        with pytest.raises(InternalInconsistencyError):
            ehrhart.hstar(splx.build(G), strategy="generic_snf")
        with pytest.raises(InternalInconsistencyError):
            analysis.is_idp(splx.build(G))


def test_corrupted_walk_raises_under_optimize():
    # the walk's checks are raises, not asserts, so python -O keeps them
    code = (
        "from lapsim import ehrhart, family, linalg, simplex as splx\n"
        "from lapsim.errors import InternalInconsistencyError\n"
        "from oracles import narrow_group_packing\n"
        "linalg.group_packing = narrow_group_packing\n"
        "try:\n"
        "    ehrhart.hstar(splx.build(family('cycle', 6)), strategy='generic_snf')\n"
        "except InternalInconsistencyError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(lapsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: parallelepiped point at height "), proc.stdout


def test_fpp_cap():
    S = splx.build(g.family("cycle", 5))
    with pytest.raises(FeasibilityError) as exc:
        ehrhart.fpp_points(S, cap=10)
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


def test_cycle_closed_form_matches_kernel_sum():
    for n in range(3, 60, 2):
        assert ehrhart.hstar_cycle_closed_form(n).entries == hstar_cycle_by_kernel_sum(n), n


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
    for n in (1, 0):
        with pytest.raises(DomainError, match="needs n >= 2"):
            ehrhart.hstar_complete(n)


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


def test_count_dilate_points_rejects_a_negative_dilate():
    with pytest.raises(DomainError, match="nonnegative"):
        ehrhart.count_dilate_points(splx.build(g.family("cycle", 3)), -1)


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
    pts = set(lattice_points(S))
    assert (0,) * S.dim in pts
    assert all(tuple(r) in pts for r in S.vertex_matrix)


def test_dilate_scan_cap(monkeypatch):
    S = splx.build(g.family("cycle", 5))
    monkeypatch.setattr(ehrhart, "DEFAULT_SCAN_CAP", 5)
    with pytest.raises(FeasibilityError):
        ehrhart.count_dilate_points(S, 3)


def test_negative_caps_are_domain_errors(monkeypatch):
    S = splx.build(g.family("cycle", 6))
    with pytest.raises(DomainError):
        analysis.analyze(g.family("cycle", 6), fpp_cap=-3)
    with pytest.raises(DomainError):
        analysis.is_idp(S, cap=-1)
    # a cap of 0 is valid: it refuses every walk and every scan
    with pytest.raises(FeasibilityError):
        ehrhart.fpp_points(S, cap=0)
    monkeypatch.setattr(ehrhart, "DEFAULT_SCAN_CAP", 0)
    with pytest.raises(FeasibilityError):
        ehrhart.count_dilate_points(S, 0)


def test_dilate_oracle_does_not_build_the_walk():
    for G in (g.family("cycle", 6), g.family("complete", 4)):
        S = splx.build(G)
        ehrhart.hstar(S, strategy="dilate_interpolation")
        assert "fpp_levels" not in vars(S) and "packing" not in vars(S), G


def check_scan_against_box(S, t):
    """The dilate count agrees with the box scan, which shares no code with it."""
    assert ehrhart.count_dilate_points(S, t) == len(dilate_points_by_box(S, t))


def scan_cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        G = g.random_connected_graph(3 + k % 3, seed=rng.randrange(2**30), extra_edges=k % 3)
        yield splx.build(G)


def test_dilate_scan_matches_box_scan():
    for S in scan_cases(20, 41):
        for t in range(4):
            check_scan_against_box(S, t)


def pendant_triangle(n):
    """The triangle {n - 2, n - 1, n} with the pendant vertices 1..n - 3 at vertex n."""
    return g.Graph(n, [(n - 2, n - 1), (n - 1, n), (n - 2, n)] + [(v, n) for v in range(1, n - 2)])


def test_dilate_scan_matches_walk_on_pendant_triangles():
    for n in range(6, 10):
        S = splx.build(pendant_triangle(n))
        dilate = ehrhart.hstar(S, strategy="dilate_interpolation")
        assert dilate.entries == ehrhart.hstar(S, strategy="generic_snf").entries, n
    # reflexive and not unimodal: the walk gives this h* for 48 of the 176
    # reflexive graphs with n = 9 (ROADMAP, item 4); the dilate scan, which
    # uses the facets alone, confirms it
    assert dilate.entries == (1, 3, 3, 5, 3, 5, 3, 3, 1)
    assert splx.is_reflexive(S) and not analysis.is_unimodal(dilate)


def test_fm_systems_stay_within_2n():
    n = 9
    systems = ehrhart._fm_systems(splx.build(pendant_triangle(n)), 8)
    assert len(systems) == n - 1
    assert all(1 <= len(system) <= 2 * n for system in systems), [len(x) for x in systems]


# Each mutation breaks the dilate count; check_scan_against_box must catch it.
# Entering an empty range instead of skipping it has no such mutation: the
# range [lo, lo - 1] adds 0 to the count.
DILATE_MUTATIONS = {
    "interval counted as hi - lo": ("return hi - lo + 1", "return hi - lo"),
    "prefix coordinate written one level off": ("prefix[j] = x", "prefix[j - 1] = x"),
    "lower bound rounded down instead of up": ("-((s - b * x) // a)", "(b * x - s) // a"),
}


@pytest.mark.parametrize("mutation", sorted(DILATE_MUTATIONS))
def test_dilate_mutations_are_caught(monkeypatch, mutation):
    old, new = DILATE_MUTATIONS[mutation]
    monkeypatch.setattr(
        ehrhart, "count_dilate_points", mutant(ehrhart.count_dilate_points, old, new)
    )
    with pytest.raises(AssertionError):
        for S in scan_cases(6, 41):
            for t in range(1, 3):
                check_scan_against_box(S, t)


def test_overpruned_elimination_is_unbounded(monkeypatch):
    # keeping at most k facets after k eliminations, one fewer than
    # Chernikov's rule allows, loses the bounds that the scan checks for
    over = mutant(ehrhart._fm_eliminate, "mask.bit_count() > k + 1", "mask.bit_count() > k")
    monkeypatch.setattr(ehrhart, "_fm_eliminate", over)
    with pytest.raises(InternalInconsistencyError, match="unbounded"):
        ehrhart.count_dilate_points(splx.build(pendant_triangle(6)), 2)


def test_infeasible_inequality_raises():
    # every dilate holds t * v_0, so no derived inequality reads 0 <= rhs < 0;
    # facets that give C_5 the local index -1 make the dilates empty
    S = splx.build(g.family("cycle", 5))
    S.facet_list = tuple(dataclasses.replace(f, local_index=-1) for f in S.facet_list)
    assert ehrhart.count_dilate_points(S, 0) == 1
    for t in (1, 2):
        with pytest.raises(InternalInconsistencyError, match="empty inequality"):
            ehrhart.count_dilate_points(S, t)


def test_dilate_checks_raise_under_optimize():
    # the scan's checks are raises, not asserts, so python -O keeps them
    code = (
        "import dataclasses\n"
        "from lapsim import ehrhart, family, graph, simplex as splx\n"
        "from lapsim.errors import InternalInconsistencyError\n"
        "from oracles import mutant\n"
        "def count(S):\n"
        "    try:\n"
        "        ehrhart.count_dilate_points(S, 2)\n"
        "    except InternalInconsistencyError as exc:\n"
        "        print('raised:', exc)\n"
        "S = splx.build(family('cycle', 5))\n"
        "S.facet_list = tuple(dataclasses.replace(f, local_index=-1) for f in S.facet_list)\n"
        "count(S)\n"
        "over = ('mask.bit_count() > k + 1', 'mask.bit_count() > k')\n"
        "ehrhart._fm_eliminate = mutant(ehrhart._fm_eliminate, *over)\n"
        "count(splx.build(graph.Graph(6, [(4, 5), (5, 6), (4, 6), (1, 6), (2, 6), (3, 6)])))\n"
    )
    src = os.path.dirname(os.path.dirname(lapsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    empty, unbounded = proc.stdout.splitlines()
    assert empty.startswith("raised: dilate scan met the empty inequality 0 <= -"), empty
    assert unbounded == "raised: dilate scan region is unbounded"


def test_walk_matches_oracles_on_every_small_graph():
    nx = pytest.importorskip("networkx")
    graphs = [
        G for G in nx.graph_atlas_g() if 2 <= G.number_of_nodes() <= 5 and nx.is_connected(G)
    ]
    assert len(graphs) == 30  # A001349: 1 + 2 + 6 + 21 connected graphs, n = 2..5
    for G in graphs:
        S = splx.build(g.Graph(G.number_of_nodes(), [(u + 1, v + 1) for u, v in G.edges]))
        walked = ehrhart.hstar(S, strategy="generic_snf")
        assert walked.entries == ehrhart.hstar(S, strategy="dilate_interpolation").entries
        # fpp_point raises unless r M is divisible by q; its last coordinate is the height
        points = [
            (fpp_point(S, r), h) for h, level in enumerate(ehrhart.fpp_points(S)) for r in level
        ]
        assert all(p[-1] == h for p, h in points)
        assert len({p for p, _ in points}) == S.volume


def test_hstar_from_counts_roundtrip():
    h = ehrhart.HStarVector((1, 4, 2, 1), "generic_snf")
    counts = [ehrhart.ehrhart_eval(h, t) for t in range(4)]
    assert ehrhart.hstar_from_counts(counts).entries == h.entries
