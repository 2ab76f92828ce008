"""The Laplacian simplex of a connected graph and its facet data.

The simplex is represented by its n x (n-1) vertex matrix: the Laplacian
expressed in the standard basis of the hyperplane orthogonal to the all-ones
vector, obtained as L times the upper triangular 0/1 change-of-basis matrix.

Volume, the barycentric coordinates of the origin, every facet and the
lattice points of the fundamental parallelepiped come from one integer
adjugate of the lifted matrix [L_B | 1], computed once per simplex; only the
cofactor reflexivity test works from its own minors.  The facets and the
parallelepiped points are each computed once and cached on the simplex, so
reflexivity and ``ell`` share one facet list, and the h* walk and the IDP
decision share one walk, which is checked where it is built (``fpp_list``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import DomainError, InternalInconsistencyError, ShapeError, SingularMatrixError
from . import linalg
from .linalg import IntMatrix
from .graph import Graph, laplacian, spanning_tree_count


def basis_change_matrix(n: int) -> IntMatrix:
    """Upper triangular n x (n-1) matrix of ones on and above the diagonal."""
    return IntMatrix([[1 if i <= j else 0 for j in range(n - 1)] for i in range(n)])


@dataclass(frozen=True)
class FacetData:
    """One facet of the simplex, opposite vertex row ``opposite``.

    The facet hyperplane is {x : normal . x = local_index} with a primitive
    integer normal; ``dual_vertex`` is the corresponding vertex of the dual
    polytope, i.e. normal / local_index.
    """

    opposite: int
    dual_vertex: tuple
    normal: tuple
    local_index: int

    @property
    def is_lattice_vertex(self):
        return all(c.denominator == 1 for c in self.dual_vertex)


class FppPoint(NamedTuple):
    """A lattice point of the fundamental parallelepiped.

    ``point`` includes the height as its last coordinate.  Its barycentric
    coefficients in [0, 1) are ``r[i] / q``: ``r`` is an integer vector with
    0 <= r[i] < q and r . M == q * point for the lifted matrix M.
    """

    point: tuple
    height: int
    r: tuple
    q: int


class LaplacianSimplex:
    """Convex hull of the rows of the reduced Laplacian of a graph."""

    def __init__(self, graph: Graph, vertex_matrix: IntMatrix, kappa: int):
        self.graph = graph
        self.vertex_matrix = vertex_matrix
        self.kappa = kappa
        self.n = vertex_matrix.nrows
        self.dim = vertex_matrix.ncols
        if self.dim != self.n - 1:
            raise ShapeError("vertex matrix must be n x (n-1)")

    @cached_property
    def lifted(self) -> IntMatrix:
        """The square matrix with rows (v_i, 1)."""
        return _lift(self.vertex_matrix)

    @cached_property
    def lifted_inverse_scaled(self):
        """(A, s) with lifted @ A == s * I: the adjugate and s = det(lifted)."""
        return linalg.inverse_scaled(self.lifted)

    @cached_property
    def facet_list(self):
        """The n facets, computed once by ``facets`` and shared by its users."""
        return tuple(facets(self))

    @cached_property
    def fpp_list(self):
        """The n*kappa parallelepiped points, walked once and shared by its users.

        With A = adj(M) and q = |det M|, a point r M / q with 0 <= r < q
        corresponds to r in the group Lambda = (Z^n A + qZ^n) / qZ^n, and its
        height is sum(r) / q.  An odometer over a modular echelon basis of
        Lambda visits each of the q points once, with every entry below q.
        The walk's own checks run here, once per simplex, for every consumer:
        each point is integral, 0 <= height < n, and the walk yields n*kappa
        distinct points.  Callers go through ``ehrhart.fpp_points``, which
        checks the size cap before anything is walked.
        """
        adj, s = self.lifted_inverse_scaled  # lifted @ adj == s * I
        q = abs(s)
        basis = [
            (b, q // b[j])
            for j, b in enumerate(linalg.hermite_basis_mod(adj, q))
            if b[j] != q
        ]
        cols = list(zip(*self.lifted.rows))
        out = []
        for r in linalg.group_walk(basis, q, self.n):
            point = []
            for c in cols:
                x, rem = divmod(sum(map(mul, r, c)), q)
                if rem:
                    raise InternalInconsistencyError("parallelepiped point is not integral")
                point.append(x)
            height = point[-1]
            if not 0 <= height < self.n:
                raise InternalInconsistencyError(f"parallelepiped point at height {height}")
            out.append(FppPoint(tuple(point), height, r, q))
        if len({p.point for p in out}) != self.volume:
            raise InternalInconsistencyError("parallelepiped enumeration lost points")
        return tuple(out)

    @cached_property
    def volume(self) -> int:
        return normalized_volume(self)

    def __repr__(self):
        return f"LaplacianSimplex(n={self.n}, kappa={self.kappa})"


def build(G: Graph) -> LaplacianSimplex:
    """Construct the Laplacian simplex of a connected graph."""
    if G.n < 2:
        raise DomainError("Laplacian simplex needs n >= 2")
    L = laplacian(G)
    LB = L @ basis_change_matrix(G.n)
    if any(sum(LB.col(j)) for j in range(LB.ncols)):
        raise InternalInconsistencyError("a column of L_B does not sum to zero")
    return LaplacianSimplex(G, LB, spanning_tree_count(G))


def normalized_volume(S: LaplacianSimplex) -> int:
    """|det [L_B | 1]|, which always equals n * kappa."""
    vol = abs(S.lifted_inverse_scaled[1])
    if vol != S.n * S.kappa:
        raise InternalInconsistencyError(
            f"|det [L_B | 1]| is {vol}, n * kappa is {S.n * S.kappa}"
        )
    return vol


def _lift(vertex_matrix: IntMatrix) -> IntMatrix:
    return vertex_matrix.augment_column([1] * vertex_matrix.nrows)


def _origin_interior(A: IntMatrix, s: int) -> bool:
    # the origin's barycentric coordinates are the last row of A over s
    return all(x * s > 0 for x in A.rows[-1])


def barycentric_of_origin(vertex_matrix: IntMatrix):
    """Coefficients lam with lam . [M | 1] = (0,...,0,1); sums to 1."""
    A, s = linalg.inverse_scaled(_lift(vertex_matrix))
    return tuple(Fraction(x, s) for x in A.rows[-1])


def origin_in_interior(vertex_matrix: IntMatrix) -> bool:
    """True iff the origin is a strictly positive convex combination."""
    try:
        return _origin_interior(*linalg.inverse_scaled(_lift(vertex_matrix)))
    except SingularMatrixError:
        return False


def contains_origin_interior(S: LaplacianSimplex) -> bool:
    return _origin_interior(*S.lifted_inverse_scaled)


def facets(S: LaplacianSimplex):
    """All n facets with exact dual vertices and primitive normals.

    Column i of the adjugate A (lifted @ A == s * I) is (w, t) with
    v_j . w = -t for every vertex j != i, so the facet opposite vertex i is
    normal . x = |t| / g with g = gcd(w) and normal = -sign(t) * w / g.
    """
    A, _ = S.lifted_inverse_scaled
    rows = S.vertex_matrix.rows
    out = []
    for i, (*w, t) in enumerate(zip(*A.rows)):
        if t == 0:
            raise SingularMatrixError(f"the facet opposite vertex {i} contains the origin")
        g = gcd(*w)
        normal = tuple((x if t < 0 else -x) // g for x in w)
        local_index = abs(t) // g
        # the facet supports every vertex row except row i
        for j, row in enumerate(rows):
            val = sum(map(mul, normal, row))
            if not (val < local_index if j == i else val == local_index):
                raise InternalInconsistencyError(
                    f"facet opposite vertex {i} does not support vertex {j}"
                )
        dual = tuple(Fraction(x, local_index) for x in normal)
        out.append(FacetData(i, dual, normal, local_index))
    return out


def is_reflexive(S: LaplacianSimplex) -> bool:
    """True iff the origin is interior and every dual vertex is integral."""
    if not contains_origin_interior(S):
        return False
    return all(f.is_lattice_vertex for f in S.facet_list)


def ell_reflexive_index(S: LaplacianSimplex):
    """The common facet local index ell, or None.

    Requires the origin strictly interior, every vertex row primitive, and
    all facet local indices equal.
    """
    if not contains_origin_interior(S):
        return None
    if not all(linalg.is_primitive(r) for r in S.vertex_matrix.rows):
        return None
    indices = {f.local_index for f in S.facet_list}
    if len(indices) != 1:
        return None
    return indices.pop()


def cofactor_reflexivity_test(S: LaplacianSimplex) -> bool:
    """Reflexivity via divisibility of cofactor column sums.

    Independent of the adjugate behind the facets: works purely with signed
    minors of each first minor of the vertex matrix.
    """
    kappa = S.kappa
    for i in range(S.n):
        B = S.vertex_matrix.submatrix([i])
        for j in range(S.dim):
            col_sum = sum(
                (-1) ** (k + j) * linalg.minor(B, [k], [j]) for k in range(S.dim)
            )
            if col_sum % kappa:
                return False
    return True


def _vertex_rows(obj) -> IntMatrix:
    if isinstance(obj, LaplacianSimplex):
        return obj.vertex_matrix
    if isinstance(obj, IntMatrix):
        return obj
    return IntMatrix(obj)


def verify_equivalence_certificate(S1, S2, U: IntMatrix, perm) -> bool:
    """Check that row perm(i) of S2 equals row i of S1 times unimodular U.

    ``perm`` maps 0-based row indices of S1 to row indices of S2.
    """
    M1, M2 = _vertex_rows(S1), _vertex_rows(S2)
    if M1.shape != M2.shape or U.shape != (M1.ncols, M1.ncols):
        raise ShapeError("incompatible shapes for equivalence certificate")
    if sorted(perm) != list(range(M1.nrows)):
        raise ShapeError("perm must be a permutation of the rows")
    if not linalg.is_unimodular(U):
        return False
    mapped = (IntMatrix(M1.rows) @ U).rows
    return all(mapped[i] == M2.rows[perm[i]] for i in range(M1.nrows))


def canonical_tree_simplex(d: int) -> IntMatrix:
    """Vertex matrix of the standard reflexive simplex conv(e_1..e_d, -1)."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    rows.append([-1] * d)
    return IntMatrix(rows)
