"""Simplex construction, volume, facet data, reflexivity, equivalence."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import lapsim
from lapsim import graph as g, linalg, simplex as splx
from lapsim.errors import DomainError, ShapeError
from lapsim.linalg import IntMatrix
from oracles import facets_by_solves, solve_exact


def test_basis_change_matrix():
    A = splx.basis_change_matrix(4)
    assert A.rows == ((1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0))
    assert linalg.determinant(A.submatrix([3])) == 1


def test_build_c5_vertex_matrix():
    S = splx.build(g.family("cycle", 5))
    assert S.vertex_matrix.rows == (
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
        assert all(sum(M.col(j)) == 0 for j in range(M.ncols))


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
        "    splx.normalized_volume(bad)\n"
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
    # row sums of the vertex matrix vanish, so (1/n,...,1/n) works
    for G in (g.family("path", 2), g.family("cycle", 6), g.family("complete", 5)):
        S = splx.build(G)
        assert splx.contains_origin_interior(S)
        lam = splx.barycentric_of_origin(S.vertex_matrix)
        assert lam == (F(1, S.n),) * S.n


def test_origin_not_interior_after_shift():
    M = splx.canonical_tree_simplex(2)
    shifted = IntMatrix([[x + 5 * (j == 0) for j, x in enumerate(r)] for r in M.rows])
    assert not splx.origin_in_interior(shifted)
    # origin on an edge: barycentric coordinates (1/2, 1/2, 0), not interior
    assert not splx.origin_in_interior(IntMatrix([[-1, 0], [1, 0], [0, 1]]))


def test_origin_in_interior_singular_matrix():
    flat = IntMatrix([[0, 0], [1, 0], [2, 0]])  # degenerate, lifted singular
    assert not splx.origin_in_interior(flat)


# -- facets ------------------------------------------------------------------


def facet_invariants(S):
    fs = splx.facets(S)
    assert len(fs) == S.n
    assert sorted(f.opposite for f in fs) == list(range(S.n))
    for f in fs:
        assert f.local_index >= 1
        assert linalg.is_primitive(f.normal)
        for j in range(S.n):
            val = sum(a * x for a, x in zip(f.normal, S.vertex_matrix.row(j)))
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


def test_ell_none_for_mixed_indices():
    # C4 with a pendant vertex: facet indices differ
    G = g.attach_path(g.family("cycle", 4), 1, 1)
    S = splx.build(G)
    indices = {f.local_index for f in splx.facets(S)}
    assert indices == {1, 2, 4}
    assert splx.ell_reflexive_index(S) is None


def test_cofactor_test_matches_dual_solve():
    rng = random.Random(23)
    for k in range(12):
        G = g.random_connected_graph(rng.randint(3, 6), seed=100 + k)
        S = splx.build(G)
        assert splx.cofactor_reflexivity_test(S) == splx.is_reflexive(S)


# -- equivalence certificates ------------------------------------------------


def rotation_certificate(S, perm):
    """Solve for U mapping row i to row perm[i], from the first dim+1 rows."""
    M = S.vertex_matrix
    d = S.dim
    A = IntMatrix(M.rows[:d])
    cols = []
    for j in range(d):
        col = solve_exact(A, [M.rows[perm[i]][j] for i in range(d)])
        assert all(x.denominator == 1 for x in col)
        cols.append([int(x) for x in col])
    return IntMatrix(zip(*cols))


def test_c4_rotation_certificate():
    S = splx.build(g.family("cycle", 4))
    perm = [1, 2, 3, 0]
    U = rotation_certificate(S, perm)
    assert linalg.is_unimodular(U)
    assert splx.verify_equivalence_certificate(S, S, U, perm)


def test_certificate_identity_and_rejections():
    S = splx.build(g.family("cycle", 3))
    I = IntMatrix.identity(2)
    assert splx.verify_equivalence_certificate(S, S, I, [0, 1, 2])
    assert not splx.verify_equivalence_certificate(S, S, I, [1, 2, 0])
    assert not splx.verify_equivalence_certificate(
        S, S, IntMatrix([[2, 0], [0, 1]]), [0, 1, 2]
    )
    with pytest.raises(ShapeError):
        splx.verify_equivalence_certificate(S, S, I, [0, 0, 1])
    with pytest.raises(ShapeError):
        splx.verify_equivalence_certificate(S, S, IntMatrix.identity(3), [0, 1, 2])


def test_certificate_accepts_raw_row_lists():
    M1 = [[1, 0], [0, 1], [-1, -1]]
    U = IntMatrix([[0, 1], [1, 0]])
    M2 = [[0, 1], [1, 0], [-1, -1]]
    assert splx.verify_equivalence_certificate(M1, M2, U, [0, 1, 2])


def test_canonical_tree_simplex():
    M = splx.canonical_tree_simplex(3)
    assert M.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    assert splx.origin_in_interior(M)
    with pytest.raises(DomainError):
        splx.canonical_tree_simplex(0)


def test_tree_simplex_equivalent_to_canonical():
    # the path simplex has the same volume and reflexivity as the canonical one
    S = splx.build(g.family("path", 4))
    C = splx.canonical_tree_simplex(3)
    assert S.volume == abs(linalg.determinant(C.augment_column([1] * 4)))
    assert splx.is_reflexive(S)
