"""Slow, independent reference computations that the tests compare against.

These use rational Gauss elimination, Laplace expansion and a memoised cone
search, methods the library itself no longer runs, so agreement is a real
cross-check.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from lapsim import ehrhart
from lapsim.errors import DomainError, ShapeError, SingularMatrixError
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


def idp_by_cone_search(S):
    """IDP by a memoised search over the cone; meant for n <= 6.

    Each parallelepiped point x at height h >= 2 must split as g + y with g a
    lattice point of S (vertices included) and y a cone point at height
    h - 1 that splits in turn; cone membership is tested through the
    barycentric coordinates adj(M) gives.
    """
    if S.n > 6:
        raise DomainError("the cone-search oracle is meant for n <= 6")
    pts = list(ehrhart.fpp_points(S))
    gens = {p.point[:-1] for p in pts if p.height == 1}
    gens.update(tuple(r) for r in S.vertex_matrix.rows)
    adj, s = S.lifted_inverse_scaled
    sign = 1 if s > 0 else -1

    def in_cone(x, h):
        return all(sign * v >= 0 for v in adj.mul_row_vector(x + (h,)))

    memo = {}

    def decomposes(x, h):
        if h == 0:
            return all(v == 0 for v in x)
        if h == 1:
            return x in gens
        key = (x, h)
        if key not in memo:
            memo[key] = False  # guards against re-entry; overwritten below
            memo[key] = any(
                in_cone(y, h - 1) and decomposes(y, h - 1)
                for g in gens
                for y in (tuple(a - b for a, b in zip(x, g)),)
            )
        return memo[key]

    return all(decomposes(p.point[:-1], p.height) for p in pts if p.height >= 2)
