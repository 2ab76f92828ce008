"""Slow, independent reference computations that the tests compare against.

These use rational Gauss elimination and Laplace expansion, methods the
library itself no longer runs, so agreement is a real cross-check.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from lapsim.errors import ShapeError, SingularMatrixError
from lapsim.linalg import IntMatrix


def solve_exact(M: IntMatrix, b):
    """Solve M x = b exactly; returns a tuple of Fractions.

    ``b`` may contain ints or Fractions.
    """
    if not M.is_square:
        raise ShapeError("solve requires a square matrix")
    n = M.nrows
    if len(b) != n:
        raise ShapeError("right-hand side length does not match")
    a = [[Fraction(x) for x in r] + [Fraction(b[i])] for i, r in enumerate(M.rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n + 1):
                    a[i][j] -= f * a[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / a[k][k]
    return tuple(x)


def determinant_by_cofactors(M: IntMatrix) -> int:
    """Laplace expansion along the first row."""
    if not M.is_square:
        raise ShapeError("determinant requires a square matrix")
    n = M.nrows
    if n == 1:
        return M.rows[0][0]
    total = 0
    for j in range(n):
        if M.rows[0][j]:
            total += (-1) ** j * M.rows[0][j] * determinant_by_cofactors(
                M.submatrix([0], [j])
            )
    return total


def facets_by_solves(vertex_matrix: IntMatrix):
    """(opposite, dual_vertex, normal, local_index) for every facet.

    One rational solve per facet: the dual vertex u of the facet opposite
    row i satisfies u . v_j = 1 for every other row v_j.
    """
    n = vertex_matrix.nrows
    out = []
    for i in range(n):
        dual = solve_exact(vertex_matrix.submatrix([i]), [1] * (n - 1))
        denom = lcm(*(c.denominator for c in dual))
        scaled = [int(c * denom) for c in dual]
        g = reduce(gcd, scaled, 0)
        out.append((i, dual, tuple(x // g for x in scaled), denom // g))
    return out
