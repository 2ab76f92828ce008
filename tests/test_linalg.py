"""Exact linear algebra: determinants, adjugates, modular echelon bases."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsim import linalg
from lapsim.errors import DomainError, ShapeError, SingularMatrixError
from lapsim.linalg import IntMatrix
from oracles import determinant_by_cofactors, solve_exact


def random_matrix(rng, n, m=None, lo=-5, hi=5):
    m = n if m is None else m
    return IntMatrix([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])


# -- IntMatrix basics --------------------------------------------------------


def test_matrix_shape_and_access():
    M = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert M.shape == (2, 3)
    assert M.row(1) == (4, 5, 6)
    assert M.col(2) == (3, 6)
    assert M.transpose().shape == (3, 2)
    assert M.transpose().transpose() == M


def test_matrix_rejects_ragged_and_empty():
    with pytest.raises(ShapeError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        IntMatrix([])


def test_matrix_is_immutable():
    M = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        M.rows = ((2,),)


def test_matmul_and_identity():
    M = IntMatrix([[1, 2], [3, 4]])
    I = IntMatrix.identity(2)
    assert M @ I == M
    assert I @ M == M
    assert (M @ M).rows == ((7, 10), (15, 22))


def test_submatrix_and_augment():
    M = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert M.submatrix([1], [0]).rows == ((2, 3), (8, 9))
    assert M.augment_column([0, 0, 1]).col(3) == (0, 0, 1)
    with pytest.raises(ShapeError):
        M.augment_column([1, 2])


def test_mul_row_vector():
    M = IntMatrix([[1, 0], [0, 2], [3, 1]])
    assert M.mul_row_vector([1, 1, 1]) == (4, 3)
    assert M.mul_row_vector([Fraction(1, 2), 0, 0]) == (Fraction(1, 2), 0)


# -- determinant -------------------------------------------------------------


def test_determinant_small_examples():
    assert linalg.determinant(IntMatrix([[7]])) == 7
    assert linalg.determinant(IntMatrix([[1, 2], [3, 4]])) == -2
    assert linalg.determinant(IntMatrix([[2, -1], [-1, 2]])) == 3
    assert linalg.determinant(IntMatrix.identity(5)) == 1


def test_determinant_singular():
    assert linalg.determinant(IntMatrix([[1, 2], [2, 4]])) == 0
    assert linalg.determinant(IntMatrix([[0, 0], [1, 1]])) == 0


def test_determinant_requires_square():
    with pytest.raises(ShapeError):
        linalg.determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 5))
        assert linalg.determinant(M) == determinant_by_cofactors(M)


def test_determinant_transpose_invariant():
    rng = random.Random(11)
    for _ in range(20):
        M = random_matrix(rng, 4)
        assert linalg.determinant(M) == linalg.determinant(M.transpose())


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3
    ),
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3
    ),
)
def test_determinant_multiplicative(a, b):
    A, B = IntMatrix(a), IntMatrix(b)
    assert linalg.determinant(A @ B) == linalg.determinant(A) * linalg.determinant(B)


def test_minor():
    M = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert linalg.minor(M, [0], [0]) == 5 * 10 - 6 * 8
    assert linalg.minor(M, [2], [2]) == 1 * 5 - 2 * 4


# -- solving and inverses ----------------------------------------------------


def test_solve_exact_small():
    M = IntMatrix([[2, 1], [1, 3]])
    x = solve_exact(M, [5, 10])
    assert x == (Fraction(1), Fraction(3))
    # verify by substitution
    assert tuple(sum(r[j] * x[j] for j in range(2)) for r in M.rows) == (5, 10)


def test_solve_exact_fractional_result():
    M = IntMatrix([[2, 0], [0, 4]])
    assert solve_exact(M, [1, 1]) == (Fraction(1, 2), Fraction(1, 4))


def test_solve_exact_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_exact(IntMatrix([[1, 1], [1, 1]]), [1, 2])


def test_solve_exact_random_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 15:
        M = random_matrix(rng, 4)
        if linalg.determinant(M) == 0:
            continue
        b = [rng.randint(-9, 9) for _ in range(4)]
        x = solve_exact(M, b)
        assert [sum(r[j] * x[j] for j in range(4)) for r in M.rows] == b
        done += 1


def test_inverse_scaled():
    rng = random.Random(5)
    done = 0
    while done < 15:
        M = random_matrix(rng, rng.randint(1, 4))
        s = linalg.determinant(M)
        if s == 0:
            continue
        A, s2 = linalg.inverse_scaled(M)
        assert s2 == s
        n = M.nrows
        scaled_identity = IntMatrix([[s if i == j else 0 for j in range(n)] for i in range(n)])
        assert M @ A == scaled_identity
        assert A @ M == scaled_identity
        done += 1


def test_inverse_scaled_singular_raises():
    with pytest.raises(SingularMatrixError):
        linalg.inverse_scaled(IntMatrix([[1, 2], [2, 4]]))


def test_inverse_scaled_matches_solve_oracle():
    rng = random.Random(19)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        M = random_matrix(rng, n, lo=-2, hi=2)
        if linalg.determinant(M) == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                linalg.inverse_scaled(M)
            with pytest.raises(SingularMatrixError):
                solve_exact(M, [1] * n)
            continue
        A, s = linalg.inverse_scaled(M)
        assert s == linalg.determinant(M)
        for j in range(n):
            e = [s if i == j else 0 for i in range(n)]
            assert A.col(j) == solve_exact(M, e)
    assert singular >= 5


# -- unimodularity and primitivity -------------------------------------------


def test_is_unimodular():
    assert linalg.is_unimodular(IntMatrix.identity(3))
    assert linalg.is_unimodular(IntMatrix([[1, 5], [0, -1]]))
    assert not linalg.is_unimodular(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        linalg.is_unimodular(IntMatrix([[1, 0]]))


def test_is_primitive():
    assert linalg.is_primitive((1, 0, 0))
    assert linalg.is_primitive((2, 3))
    assert linalg.is_primitive((-3, 5, 7))
    assert not linalg.is_primitive((2, 4, 6))
    assert not linalg.is_primitive((-2,))
    with pytest.raises(DomainError):
        linalg.is_primitive((0, 0))


# -- modular echelon basis ----------------------------------------------------


def group_closure(M, q):
    """The subgroup of (Z/q)^n generated by the rows of M, by breadth-first search."""
    gens = [tuple(x % q for x in r) for r in M.rows]
    seen = {(0,) * M.ncols}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for gen in gens:
                w = tuple((x + y) % q for x, y in zip(v, gen))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_hermite_basis_mod_spans_the_group():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        M = random_matrix(rng, rng.randint(1, 4), n)
        q = rng.randint(1, 12)
        basis = linalg.hermite_basis_mod(M, q)
        assert len(basis) == n
        order = 1
        for j, b in enumerate(basis):
            assert all(x == 0 for x in b[:j])
            assert q % b[j] == 0 and all(0 <= x < q for x in b[j + 1 :])
            order *= q // b[j]
        elements = {(0,) * n}
        for j, b in enumerate(basis):
            elements = {
                tuple((x + c * y) % q for x, y in zip(e, b))
                for e in elements
                for c in range(q // b[j])
            }
        assert len(elements) == order
        assert elements == group_closure(M, q)
    with pytest.raises(DomainError):
        linalg.hermite_basis_mod(IntMatrix([[1]]), 0)
