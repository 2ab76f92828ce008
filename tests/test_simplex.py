"""Simplex construction, volume, facet data, reflexivity, equivalence."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import lapsim
from lapsim import analysis, graph as g, linalg, simplex as splx
from lapsim.errors import DomainError, InternalInconsistencyError, ShapeError
from oracles import (
    barycentric_of_origin,
    basis_change_matrix,
    bridge_division_by_minors,
    broken_cofactor_tests,
    broken_facets,
    canonical_tree_simplex,
    cofactor_reflexivity_by_minors,
    facets_by_solves,
    identity,
    is_primitive,
    is_unimodular,
    matmul,
    origin_in_interior,
    solve_exact,
    verify_equivalence_certificate,
    with_shifted_last_row,
)


def test_basis_change_matrix():
    A = basis_change_matrix(4)
    assert A == ((1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0))
    assert linalg.determinant(A[:3]) == 1


def test_build_matches_basis_change_product():
    rng = random.Random(31)
    for _ in range(25):
        G = g.random_connected_graph(rng.randint(2, 12), seed=rng.randrange(2**30))
        assert splx.build(G).vertex_matrix == matmul(g.laplacian(G), basis_change_matrix(G.n)), G


def test_build_c5_vertex_matrix():
    S = splx.build(g.family("cycle", 5))
    assert S.vertex_matrix == (
        (2, 1, 1, 1),
        (-1, 1, 0, 0),
        (0, -1, 1, 0),
        (0, 0, -1, 1),
        (-1, -1, -1, -2),
    )
    assert S.kappa == 5


def test_build_rejects_single_vertex():
    with pytest.raises(DomainError):
        splx.build(g.Graph(1, []))


def test_build_column_sums_zero():
    for G in (g.family("complete", 5), g.random_connected_graph(6, seed=2)):
        M = splx.build(G).vertex_matrix
        assert all(sum(c) == 0 for c in zip(*M))


def test_volume_is_n_times_kappa():
    cases = [
        (g.family("path", 5), 5 * 1),
        (g.family("cycle", 5), 5 * 5),
        (g.family("cycle", 6), 6 * 6),
        (g.family("complete", 4), 4 * 16),
    ]
    for G, expected in cases:
        S = splx.build(G)
        assert S.volume == expected
        assert abs(linalg.determinant(S.lifted)) == expected


def test_volume_check_runs_under_optimize():
    # a corrupted kappa must raise even where asserts are compiled away
    code = (
        "from lapsim import family, simplex as splx\n"
        "from lapsim.errors import InternalInconsistencyError\n"
        "S = splx.build(family('cycle', 5))\n"
        "bad = splx.LaplacianSimplex(S.graph, S.vertex_matrix, S.kappa + 1)\n"
        "try:\n"
        "    bad.volume\n"
        "except InternalInconsistencyError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(lapsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: |det [L_B | 1]| is 25, n * kappa is 30")


def test_origin_always_interior():
    # the columns of L_B sum to zero, so (1/n, ..., 1/n) are the origin's
    # barycentric coordinates: the last row of adj [L_B | 1] is s / n in
    # every entry, which facets checks
    for G in (g.family("path", 2), g.family("cycle", 6), g.family("complete", 5)):
        S = splx.build(G)
        A, s = S.lifted_inverse_scaled
        assert s % S.n == 0 and A[-1] == (s // S.n,) * S.n
        assert len(splx.facets(S)) == S.n
        assert barycentric_of_origin(S.vertex_matrix) == (F(1, S.n),) * S.n


@pytest.mark.parametrize("name", [name for name, _ in broken_facets()])
def test_facet_mutations_are_caught(name):
    facets = dict(broken_facets())[name]
    # C6 has facets of local index 2 < kappa, so gcd(w) > 1 for some column w
    for G in (g.family("cycle", 6), g.random_connected_graph(6, seed=8, extra_edges=3)):
        with pytest.raises(InternalInconsistencyError):
            facets(splx.build(G))


def test_facet_checks_raise_under_optimize():
    code = (
        "from lapsim import family, simplex as splx\n"
        "from lapsim.errors import InternalInconsistencyError\n"
        "from oracles import broken_facets\n"
        "for name, facets in broken_facets():\n"
        "    try:\n"
        "        facets(splx.build(family('cycle', 6)))\n"
        "    except InternalInconsistencyError:\n"
        "        print('raised:', name)\n"
    )
    src = os.path.dirname(os.path.dirname(lapsim.__file__))
    tests = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"raised: {name}" for name, _ in broken_facets()]


def test_origin_not_interior_after_shift():
    M = canonical_tree_simplex(2)
    shifted = [[x + 5 * (j == 0) for j, x in enumerate(r)] for r in M]
    assert not origin_in_interior(shifted)
    # origin on an edge: barycentric coordinates (1/2, 1/2, 0), not interior
    assert not origin_in_interior([[-1, 0], [1, 0], [0, 1]])


def test_origin_in_interior_singular_matrix():
    flat = [[0, 0], [1, 0], [2, 0]]  # degenerate, lifted singular
    assert not origin_in_interior(flat)


# -- facets ------------------------------------------------------------------


def facet_invariants(S):
    fs = splx.facets(S)
    assert len(fs) == S.n
    assert sorted(f.opposite for f in fs) == list(range(S.n))
    for f in fs:
        assert f.local_index >= 1
        assert is_primitive(f.normal)
        for j in range(S.n):
            val = sum(a * x for a, x in zip(f.normal, S.vertex_matrix[j]))
            if j == f.opposite:
                assert val < f.local_index
            else:
                assert val == f.local_index
        assert f.dual_vertex == tuple(F(c, f.local_index) for c in f.normal)
    return fs


def test_facets_small_graphs():
    for G in (
        g.family("path", 2),
        g.family("complete", 2),
        g.family("cycle", 3),
        g.family("cycle", 4),
        g.family("complete", 4),
        g.random_connected_graph(5, seed=8),
    ):
        facet_invariants(splx.build(G))


def test_facets_match_per_facet_solves():
    rng = random.Random(41)
    for k in range(25):
        n = rng.randint(2, 8)
        G = g.random_connected_graph(n, seed=500 + k)
        S = splx.build(G)
        got = [(f.opposite, f.dual_vertex, f.normal, f.local_index) for f in splx.facets(S)]
        assert got == facets_by_solves(S.vertex_matrix)


def test_is_lattice_vertex_matches_the_fraction_definition():
    rng = random.Random(53)
    seen = set()
    for k in range(40):
        G = g.random_connected_graph(rng.randint(2, 9), seed=900 + k)
        for f in splx.facets(splx.build(G)):
            integral = all(c.denominator == 1 for c in f.dual_vertex)
            assert f.is_lattice_vertex == integral, (G, f)
            seen.add(integral)
    assert seen == {True, False}


def test_facets_computed_once_per_simplex(monkeypatch):
    S = splx.build(g.family("cycle", 6))
    calls = []
    original = splx.facets
    monkeypatch.setattr(splx, "facets", lambda T: calls.append(T) or original(T))
    assert not splx.is_reflexive(S)
    assert splx.ell_reflexive_index(S) == 2
    assert len(calls) == 1


def test_facets_n2():
    # one-dimensional simplex [-1, 1]: both facets at local index 1
    fs = facet_invariants(splx.build(g.family("path", 2)))
    assert {f.normal for f in fs} == {(1,), (-1,)}
    assert all(f.local_index == 1 for f in fs)


def test_dual_vertices_triangle():
    fs = splx.facets(splx.build(g.family("cycle", 3)))
    assert {f.dual_vertex for f in fs} == {(F(-1), F(0)), (F(1), F(-1)), (F(0), F(1))}


def test_reflexivity_and_ell():
    assert splx.is_reflexive(splx.build(g.family("cycle", 5)))
    assert not splx.is_reflexive(splx.build(g.family("cycle", 6)))
    assert splx.ell_reflexive_index(splx.build(g.family("cycle", 6))) == 2
    assert splx.ell_reflexive_index(splx.build(g.family("cycle", 5))) == 1
    # reflexive means ell = 1 whenever the vertex rows are primitive
    S = splx.build(g.family("complete", 4))
    assert splx.is_reflexive(S)


def test_ell_needs_no_primitivity_test():
    # every vertex row of L_B has an entry +-1, so the primitivity test that
    # used to guard ell never fails; ell still equals its old definition
    def old_ell(S):
        if not all(is_primitive(r) for r in S.vertex_matrix):
            return None
        indices = {f.local_index for f in S.facet_list}
        return indices.pop() if len(indices) == 1 else None

    rng = random.Random(67)
    kinds = ("path", "cycle", "complete", "star")
    graphs = [g.family(kind, n) for kind in kinds for n in (3, 8, 29)]
    graphs += [g.family(kind, 2) for kind in kinds if kind != "cycle"]
    graphs += [g.family("random_tree", n, seed=n) for n in range(2, 30, 3)]
    for k in range(60):
        n = rng.randint(2, 12)
        extra = rng.randint(0, 2 * n)
        graphs.append(g.random_connected_graph(n, seed=7000 + k, extra_edges=extra))
    for G in graphs:
        S = splx.build(G)
        assert all(1 in map(abs, r) for r in S.vertex_matrix), G
        assert splx.ell_reflexive_index(S) == old_ell(S), G


def test_ell_none_for_mixed_indices():
    # C4 with a pendant vertex: facet indices differ
    G = g.attach_path(g.family("cycle", 4), 1, 1)
    S = splx.build(G)
    indices = {f.local_index for f in splx.facets(S)}
    assert indices == {1, 2, 4}
    assert splx.ell_reflexive_index(S) is None


def test_cofactor_test_matches_dual_solve():
    rng = random.Random(23)
    graphs = [g.family("path", 2)]  # K2: each first minor is 1 x 1, its adjugate [[1]]
    graphs += [g.random_connected_graph(rng.randint(3, 6), seed=100 + k) for k in range(12)]
    for G in graphs:
        S = splx.build(G)
        assert splx.cofactor_reflexivity_test(S) == splx.is_reflexive(S)


def test_cofactor_criteria_match_their_minor_by_minor_definitions():
    kinds = ("cycle", "complete", "path", "star")
    graphs = [g.family(kind, n) for kind in kinds for n in range(3, 10)]
    graphs += [g.random_connected_graph(n, seed=s) for n in range(3, 9) for s in range(40)]
    answers = set()
    for G in graphs:
        S = splx.build(G)
        cofactor = splx.cofactor_reflexivity_test(S)
        bridge = analysis.bridge_division_condition(G)
        assert cofactor == cofactor_reflexivity_by_minors(S), G
        assert bridge == bridge_division_by_minors(G), G
        answers.add((cofactor, bridge))
    assert len(answers) >= 3


def test_cofactor_test_checks_kappa():
    # every first minor has |det| = volume / n = kappa, as the origin is the centroid
    S = splx.build(g.family("cycle", 5))
    S.kappa *= 2
    with pytest.raises(InternalInconsistencyError, match="kappa is 10"):
        splx.cofactor_reflexivity_test(S)


def test_cofactor_test_does_not_use_the_lifted_adjugate():
    S = splx.build(g.family("complete", 7))  # reflexive: every first minor is read
    assert splx.cofactor_reflexivity_test(S)
    assert "lifted_inverse_scaled" not in vars(S) and "facet_list" not in vars(S)


@pytest.fixture(scope="module")
def connected_graphs_to_6():
    """The 142 connected graphs with 2 <= n <= 6 (networkx.graph_atlas_g)."""
    nx = pytest.importorskip("networkx")
    graphs = [
        G for G in nx.graph_atlas_g() if 2 <= G.number_of_nodes() <= 6 and nx.is_connected(G)
    ]
    assert len(graphs) == 142  # A001349: 1 + 2 + 6 + 21 + 112 connected graphs, n = 2..6
    return [g.Graph(G.number_of_nodes(), [(u + 1, v + 1) for u, v in G.edges]) for G in graphs]


def cofactor_disagreements(cofactor_test, graphs):
    """The graphs on which ``cofactor_test`` differs from its definition or from is_reflexive."""
    bad = []
    for G in graphs:
        S = splx.build(G)
        answer = cofactor_test(S)
        if answer != cofactor_reflexivity_by_minors(S) or answer != splx.is_reflexive(S):
            bad.append(G)
    return bad


def test_cofactor_criteria_match_their_definitions_on_every_small_graph(connected_graphs_to_6):
    assert cofactor_disagreements(splx.cofactor_reflexivity_test, connected_graphs_to_6) == []
    for G in connected_graphs_to_6:
        assert analysis.bridge_division_condition(G) == bridge_division_by_minors(G), G


@pytest.mark.parametrize("name", [name for name, _ in broken_cofactor_tests()])
def test_cofactor_mutations_are_caught(name, connected_graphs_to_6):
    assert cofactor_disagreements(dict(broken_cofactor_tests())[name], connected_graphs_to_6)


def test_cofactor_criteria_eliminate_one_matrix(monkeypatch):
    G = g.family("complete", 7)
    S = splx.build(G)
    sizes = []
    inverse = linalg.inverse_scaled
    monkeypatch.setattr(linalg, "inverse_scaled", lambda M: sizes.append(len(M)) or inverse(M))
    assert splx.cofactor_reflexivity_test(S)
    assert sizes == [6]
    assert analysis.bridge_division_condition(G)
    assert sizes == [6, 6]


@pytest.mark.parametrize("kind", ["cycle", "complete"])
def test_cofactor_test_checks_that_the_rows_sum_to_zero(kind):
    S = with_shifted_last_row(splx.build(g.family(kind, 5)))
    # L_B without its last row is untouched, so a kappa check on it alone passes
    assert abs(linalg.determinant(S.vertex_matrix[:-1])) == S.kappa
    with pytest.raises(InternalInconsistencyError, match="do not sum to zero"):
        splx.cofactor_reflexivity_test(S)


def test_cofactor_checks_raise_under_optimize():
    code = (
        "from lapsim import family, simplex as splx\n"
        "from lapsim.errors import InternalInconsistencyError\n"
        "from oracles import with_shifted_last_row\n"
        "S = splx.build(family('complete', 5))\n"
        "bad = (with_shifted_last_row(S), splx.LaplacianSimplex(S.graph, S.vertex_matrix, 2))\n"
        "for T in bad:\n"
        "    try:\n"
        "        splx.cofactor_reflexivity_test(T)\n"
        "    except InternalInconsistencyError as exc:\n"
        "        print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(lapsim.__file__))
    tests = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: the rows of L_B do not sum to zero",
        "raised: L_B without its last row has determinant 125, kappa is 2",
    ]


# -- equivalence certificates ------------------------------------------------


def rotation_certificate(S, perm):
    """Solve for U mapping row i to row perm[i], from the first dim+1 rows."""
    M = S.vertex_matrix
    d = S.dim
    cols = []
    for j in range(d):
        col = solve_exact(M[:d], [M[perm[i]][j] for i in range(d)])
        assert all(x.denominator == 1 for x in col)
        cols.append([int(x) for x in col])
    return tuple(zip(*cols))


def test_c4_rotation_certificate():
    S = splx.build(g.family("cycle", 4))
    perm = [1, 2, 3, 0]
    U = rotation_certificate(S, perm)
    assert is_unimodular(U)
    assert verify_equivalence_certificate(S, S, U, perm)


def test_certificate_identity_and_rejections():
    S = splx.build(g.family("cycle", 3))
    I = identity(2)
    assert verify_equivalence_certificate(S, S, I, [0, 1, 2])
    assert not verify_equivalence_certificate(S, S, I, [1, 2, 0])
    assert not verify_equivalence_certificate(
        S, S, ((2, 0), (0, 1)), [0, 1, 2]
    )
    with pytest.raises(ShapeError):
        verify_equivalence_certificate(S, S, I, [0, 0, 1])
    with pytest.raises(ShapeError):
        verify_equivalence_certificate(S, S, identity(3), [0, 1, 2])


def test_certificate_accepts_raw_row_lists():
    M1 = [[1, 0], [0, 1], [-1, -1]]
    U = ((0, 1), (1, 0))
    M2 = [[0, 1], [1, 0], [-1, -1]]
    assert verify_equivalence_certificate(M1, M2, U, [0, 1, 2])


def test_canonical_tree_simplex():
    M = canonical_tree_simplex(3)
    assert M == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    assert origin_in_interior(M)
    with pytest.raises(DomainError):
        canonical_tree_simplex(0)


def test_tree_simplex_equivalent_to_canonical():
    # the path simplex has the same volume and reflexivity as the canonical one
    S = splx.build(g.family("path", 4))
    C = canonical_tree_simplex(3)
    assert S.volume == abs(linalg.determinant([(*r, 1) for r in C]))
    assert splx.is_reflexive(S)
