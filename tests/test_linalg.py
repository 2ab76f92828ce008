"""Exact linear algebra: determinants, adjugates, modular echelon bases."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapsim
from lapsim import graph as g, linalg, simplex as splx
from lapsim.errors import DomainError, InternalInconsistencyError, ShapeError, SingularMatrixError
from oracles import (
    determinant_by_cofactors,
    identity,
    is_primitive,
    is_unimodular,
    matmul,
    mul_row_vector,
    mutant,
    solve_exact,
    transpose,
)


def random_matrix(rng, n, m=None, lo=-5, hi=5):
    m = n if m is None else m
    return tuple(tuple(rng.randint(lo, hi) for _ in range(m)) for _ in range(n))


def column(A, j):
    return tuple(r[j] for r in A)


# -- shapes and products ------------------------------------------------------

# a matrix enters linalg as plain rows; these are not square matrices
BAD_SHAPES = ([[1, 2], [3]], [[1], [2, 3]], [], [[]], [[1, 2, 3], [4, 5, 6]])


def test_matrix_rejects_ragged_and_empty():
    for M in BAD_SHAPES:
        with pytest.raises(ShapeError):
            linalg.determinant(M)
        with pytest.raises(ShapeError):
            linalg.inverse_scaled(M)


def test_matmul_and_identity():
    M = ((1, 2), (3, 4))
    I = identity(2)
    assert matmul(M, I) == M
    assert matmul(I, M) == M
    assert matmul(M, M) == ((7, 10), (15, 22))


def test_mul_row_vector():
    M = ((1, 0), (0, 2), (3, 1))
    assert mul_row_vector([1, 1, 1], M) == (4, 3)
    assert mul_row_vector([Fraction(1, 2), 0, 0], M) == (Fraction(1, 2), 0)


# -- determinant -------------------------------------------------------------


def test_determinant_small_examples():
    assert linalg.determinant([[7]]) == 7
    assert linalg.determinant([[1, 2], [3, 4]]) == -2
    assert linalg.determinant([[2, -1], [-1, 2]]) == 3
    assert linalg.determinant(identity(5)) == 1


def test_determinant_singular():
    assert linalg.determinant([[1, 2], [2, 4]]) == 0
    assert linalg.determinant([[0, 0], [1, 1]]) == 0


def test_determinant_requires_square():
    with pytest.raises(ShapeError):
        linalg.determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 5))
        assert linalg.determinant(M) == determinant_by_cofactors(M)


def test_determinant_transpose_invariant():
    rng = random.Random(11)
    for _ in range(20):
        M = random_matrix(rng, 4)
        assert linalg.determinant(M) == linalg.determinant(transpose(M))


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
    assert linalg.determinant(matmul(a, b)) == linalg.determinant(a) * linalg.determinant(b)


# -- solving and inverses ----------------------------------------------------


def test_solve_exact_small():
    M = ((2, 1), (1, 3))
    x = solve_exact(M, [5, 10])
    assert x == (Fraction(1), Fraction(3))
    # verify by substitution
    assert tuple(sum(r[j] * x[j] for j in range(2)) for r in M) == (5, 10)


def test_solve_exact_fractional_result():
    M = ((2, 0), (0, 4))
    assert solve_exact(M, [1, 1]) == (Fraction(1, 2), Fraction(1, 4))


def test_solve_exact_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 1], [1, 1]], [1, 2])


def test_solve_exact_random_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 15:
        M = random_matrix(rng, 4)
        if linalg.determinant(M) == 0:
            continue
        b = [rng.randint(-9, 9) for _ in range(4)]
        x = solve_exact(M, b)
        assert [sum(r[j] * x[j] for j in range(4)) for r in M] == b
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
        n = len(M)
        scaled_identity = tuple(tuple(s if i == j else 0 for j in range(n)) for i in range(n))
        assert matmul(M, A) == scaled_identity
        assert matmul(A, M) == scaled_identity
        done += 1


def test_inverse_scaled_singular_raises():
    with pytest.raises(SingularMatrixError):
        linalg.inverse_scaled([[1, 2], [2, 4]])


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
            assert column(A, j) == solve_exact(M, e)
    assert singular >= 5


def test_inverse_scaled_matches_solve_oracle_on_lifted_laplacians():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(14, 22)
        G = g.random_connected_graph(n, seed=rng.randrange(2**30), extra_edges=rng.randint(0, 3))
        M = splx.build(G).lifted
        A, s = linalg.inverse_scaled(M)
        assert s == linalg.determinant(M) and abs(s) == n * g.spanning_tree_count(G)
        # column j of A solves M x = s e_j; the last column gives the facets
        for j in {0, rng.randrange(n), n - 1}:
            assert column(A, j) == solve_exact(M, [s if i == j else 0 for i in range(n)])


def test_inverse_scaled_with_row_swaps_and_singular_matrices():
    rng = random.Random(47)
    swapped = singular = 0
    for _ in range(80):
        n = rng.randint(2, 6)
        # mostly zeros, so pivots are often zero and rows must be swapped
        M = tuple(tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)) for _ in range(n))
        det = determinant_by_cofactors(M)
        assert linalg.determinant(M) == det
        if det == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                linalg.inverse_scaled(M)
            continue
        swapped += M[0][0] == 0
        A, s = linalg.inverse_scaled(M)
        assert s == det
        for j in range(n):
            assert column(A, j) == solve_exact(M, [s if i == j else 0 for i in range(n)])
    assert swapped >= 10 and singular >= 10


# Each mutation breaks the elimination; the adjugate check M @ A == s * I
# inside inverse_scaled must catch it.  Dropping the sign only from A is the
# form of a lost swap sign that the check can see: dropping the sign flip
# itself returns the consistent pair (-adj M, -det M).
# Both need a row swap and keep a zero-multiplier row stale to the end.
SWAP_MATRICES = (
    ((2, 0, 1), (1, 0, -1), (0, -1, 0)),
    ((2, -1, 0, 0), (1, 1, 0, 2), (0, 2, 0, 0), (2, -1, 1, 0)),
)
LIFTED = tuple(
    splx.build(g.random_connected_graph(7, seed=seed, extra_edges=2)).lifted for seed in (0, 3)
)
INVERSE_MUTATIONS = {
    "zero-multiplier row left unscaled when next used": (
        linalg._eliminate,
        "row[k:] = [x * prev // b for x in row[k:]]",
        "pass",
        SWAP_MATRICES + LIFTED,
    ),
    "pivot row left unscaled": (
        linalg._eliminate,
        "pk[k:] = [x * prev // b for x in pk[k:]]",
        "pass",
        SWAP_MATRICES + LIFTED,
    ),
    # a lifted matrix ends in a column of ones, so its last step brings
    # every row up to date and no row is stale at the end
    "zero-multiplier row left unscaled at the end": (
        linalg.inverse_scaled,
        "[sign * x * prev // b for x in row[n:]]",
        "[sign * x for x in row[n:]]",
        SWAP_MATRICES,
    ),
    "scale not swapped with its row": (
        linalg._eliminate,
        "scale[k], scale[piv] = scale[piv], scale[k]",
        "pass",
        SWAP_MATRICES,
    ),
    "live columns start one column late": (
        linalg._eliminate,
        "live = slice(k + 1, None)",
        "live = slice(k + 2, None)",
        SWAP_MATRICES + LIFTED,
    ),
    "swap sign dropped from the adjugate": (
        linalg.inverse_scaled,
        "[sign * x * prev // b for x in row[n:]]",
        "[x * prev // b for x in row[n:]]",
        SWAP_MATRICES,
    ),
}


@pytest.mark.parametrize("mutation", sorted(INVERSE_MUTATIONS))
def test_inverse_mutations_are_caught(monkeypatch, mutation):
    fn, old, new, matrices = INVERSE_MUTATIONS[mutation]
    for M in matrices:
        linalg.inverse_scaled(M)  # the real elimination passes its own check
    monkeypatch.setattr(linalg, fn.__name__, mutant(fn, old, new))
    for M in matrices:
        with pytest.raises(InternalInconsistencyError, match="adjugate check"):
            linalg.inverse_scaled(M)


# the determinant of every SWAP_MATRICES entry survives a scale left behind
# by a row swap, as the two misplaced scales cancel; this one's does not
UNCANCELLED_SWAP = (
    (3, 0, 0, -1, 1),
    (-1, 0, 0, 0, 2),
    (0, -1, 0, 3, 2),
    (0, 2, 2, 0, 0),
    (2, -1, 0, 0, 0),
)


@pytest.mark.parametrize(
    "mutation", sorted(k for k, v in INVERSE_MUTATIONS.items() if v[0] is linalg._eliminate)
)
def test_elimination_mutations_break_the_determinant(monkeypatch, mutation):
    fn, old, new, _ = INVERSE_MUTATIONS[mutation]
    matrices = SWAP_MATRICES + (UNCANCELLED_SWAP,)
    assert all(linalg.determinant(M) == determinant_by_cofactors(M) for M in matrices)
    monkeypatch.setattr(linalg, fn.__name__, mutant(fn, old, new))
    assert any(linalg.determinant(M) != determinant_by_cofactors(M) for M in matrices)


def test_adjugate_check_raises_under_optimize():
    # the adjugate and shape checks are raises, not asserts, so python -O keeps them
    code = (
        "import inspect, textwrap\n"
        "from lapsim import linalg\n"
        "from lapsim.errors import InternalInconsistencyError, ShapeError\n"
        f"for M in {BAD_SHAPES!r}:\n"
        "    for fn in (linalg.determinant, linalg.inverse_scaled):\n"
        "        try:\n"
        "            fn(M)\n"
        "        except ShapeError:\n"
        "            print('shape error:', fn.__name__, M)\n"
        "src = textwrap.dedent(inspect.getsource(linalg.inverse_scaled))\n"
        "src = src.replace('[sign * x * prev // b for', '[x * prev // b for')\n"
        "exec(src, vars(linalg))\n"
        "try:\n"
        "    linalg.inverse_scaled([[0, 1], [1, 0]])\n"
        "except InternalInconsistencyError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(lapsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *shape_errors, adjugate = proc.stdout.splitlines()
    assert shape_errors == [
        f"shape error: {fn} {M}" for M in BAD_SHAPES for fn in ("determinant", "inverse_scaled")
    ]
    assert adjugate.startswith("raised: adjugate check"), proc.stdout


# -- unimodularity and primitivity -------------------------------------------


def test_is_unimodular():
    assert is_unimodular(identity(3))
    assert is_unimodular([[1, 5], [0, -1]])
    assert not is_unimodular([[2, 0], [0, 1]])
    with pytest.raises(ShapeError):
        is_unimodular([[1, 0]])


def test_is_primitive():
    assert is_primitive((1, 0, 0))
    assert is_primitive((2, 3))
    assert is_primitive((-3, 5, 7))
    assert not is_primitive((2, 4, 6))
    assert not is_primitive((-2,))
    with pytest.raises(DomainError):
        is_primitive((0, 0))


# -- modular echelon basis ----------------------------------------------------


def group_closure(M, q):
    """The subgroup of (Z/q)^n generated by the rows of M, by breadth-first search."""
    gens = [tuple(x % q for x in r) for r in M]
    seen = {(0,) * len(M[0])}
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
        linalg.hermite_basis_mod([[1]], 0)
