"""The Laplacian simplex of a connected graph and its facet data.

The simplex is represented by its n x (n-1) vertex matrix L_B: the Laplacian
in the standard basis of the hyperplane orthogonal to the all-ones vector,
computed as row prefix sums of L.

Volume, the barycentric coordinates of the origin, the integer facets and
the lattice points of the fundamental parallelepiped come from one checked
adjugate of the lifted matrix [L_B | 1], computed once per simplex; kappa
(its own determinant, which the volume is checked against) does not use it,
and neither does the cofactor reflexivity test, which reads both cofactor
criteria off one checked adjugate of L_B without its last row.  The facets
and the parallelepiped points are each computed once and cached on the
simplex, so reflexivity and ``ell`` share one facet list, and h* and the IDP
decision share one group, built by ``linalg.group_levels`` one cyclic factor
at a time, checked point by point as it grows and stored by height
(``fpp_levels``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from operator import mul

from .errors import DomainError, InternalInconsistencyError, ShapeError
from . import linalg
from .graph import Graph, laplacian, spanning_tree_count


@dataclass(frozen=True)
class FacetData:
    """One facet of the simplex, opposite vertex row ``opposite``.

    The facet hyperplane is {x : normal . x = local_index} with a primitive
    integer normal.  ``dual_vertex``, normal / local_index, is formed when it
    is read.  It is a lattice point iff local_index == 1: the normal is
    primitive, so it is integral iff local_index divides gcd(normal) = 1.
    """

    opposite: int
    normal: tuple
    local_index: int

    @property
    def dual_vertex(self):
        return tuple(Fraction(x, self.local_index) for x in self.normal)

    @property
    def is_lattice_vertex(self):
        return self.local_index == 1


class LaplacianSimplex:
    """Convex hull of the rows of the reduced Laplacian of a graph."""

    def __init__(self, graph: Graph, vertex_matrix: tuple, kappa: int):
        self.graph = graph
        self.vertex_matrix = vertex_matrix
        self.kappa = kappa
        self.n = len(vertex_matrix)
        self.dim = self.n - 1
        if any(len(row) != self.dim for row in vertex_matrix):
            raise ShapeError("vertex matrix must be n x (n-1)")

    @cached_property
    def lifted(self) -> tuple:
        """The square matrix with rows (v_i, 1)."""
        return tuple((*row, 1) for row in self.vertex_matrix)

    @cached_property
    def lifted_inverse_scaled(self):
        """(A, s) with lifted @ A == s * I: the adjugate and s = det(lifted)."""
        return linalg.inverse_scaled(self.lifted)

    @cached_property
    def facet_list(self):
        """The n facets, computed once by ``facets`` and shared by its users."""
        return tuple(facets(self))

    @cached_property
    def packing(self) -> linalg.GroupPacking:
        """The one packing of the walk's group elements, modulo the volume."""
        return linalg.group_packing(self.volume, self.n)

    @cached_property
    def fpp_levels(self):
        """The n*kappa parallelepiped points by height, built once.

        levels[h] is a tuple of the packed group elements r at height h.
        With A = adj(M) and q = |det M|, a point r M / q with 0 <= r < q
        corresponds to r in the group Lambda = (Z^n A + qZ^n) / qZ^n, and its
        height is sum(r) / q.  A modular echelon basis splits Lambda into
        cyclic factors (b_j, m_j), and ``linalg.group_levels`` builds it one
        factor at a time, each element one packed add from an element
        already checked, kept as one int packed by ``self.packing``; no
        point's coordinates are formed.

        Integrality is checked once per basis vector: b_j has entries in
        [0, q) and b_j M = 0 (mod q) in every column.  The walk only adds
        basis vectors and takes q out of single fields, so every element is
        congruent modulo q to a sum of basis vectors and r M / q is integral,
        provided every field stays in [0, q) with no carry or borrow between
        fields: ``group_levels`` checks that, the height and the coordinate
        sum of every element, also under ``python -O``.  Then the levels must
        hold n*kappa ints, all distinct: equal ints have equal coordinate
        sums, so a repeated int lies within one level.  Callers go through
        ``ehrhart.fpp_points``, which checks the size cap first.
        """
        adj = self.lifted_inverse_scaled[0]  # lifted @ adj == det(lifted) * I
        q = self.volume
        basis = [
            (b, q // b[j])
            for j, b in enumerate(linalg.hermite_basis_mod(adj, q))
            if b[j] != q
        ]
        cols = list(zip(*self.lifted))
        for b, _ in basis:
            if not all(0 <= x < q for x in b) or any(sum(map(mul, b, c)) % q for c in cols):
                raise InternalInconsistencyError(f"basis vector {b} is not in the group")
        levels = linalg.group_levels(basis, q, self.packing)
        if sum(map(len, levels)) != q or sum(len(set(level)) for level in levels) != q:
            raise InternalInconsistencyError("parallelepiped enumeration lost points")
        return tuple(map(tuple, levels))

    @cached_property
    def volume(self) -> int:
        """|det [L_B | 1]|, checked to equal n * kappa."""
        vol = abs(self.lifted_inverse_scaled[1])
        if vol != self.n * self.kappa:
            raise InternalInconsistencyError(
                f"|det [L_B | 1]| is {vol}, n * kappa is {self.n * self.kappa}"
            )
        return vol

    def __repr__(self):
        return f"LaplacianSimplex(n={self.n}, kappa={self.kappa})"


def build(G: Graph) -> LaplacianSimplex:
    """Construct the Laplacian simplex of a connected graph."""
    if G.n < 2:
        raise DomainError("Laplacian simplex needs n >= 2")
    # L_B = L times the upper triangular 0/1 matrix: L_B[i][j] is the sum of
    # L[i][k] over k <= j, for j < n - 1
    L = laplacian(G)
    rows = tuple(tuple(accumulate(row[:-1])) for row in L)
    if any(map(sum, zip(*rows))):
        raise InternalInconsistencyError("a column of L_B does not sum to zero")
    return LaplacianSimplex(G, rows, spanning_tree_count(G))


def facets(S: LaplacianSimplex):
    """All n facets, each with its primitive normal and local index.

    Column i of the adjugate A (lifted @ A == s * I, checked by
    ``linalg.inverse_scaled``) is (w, t) with v_j . w = -t for every vertex
    j != i and v_i . w = s - t.  The facet opposite vertex i is
    normal . x = local_index with g = gcd(w), normal = -sign(t) * w / g and
    local_index = |t| / g.  One O(n) check for the simplex and four per
    facet replace a support check over all n^2 vertex-facet pairs:

    - every entry t of the last row of A is s / n, because the columns of
      L_B sum to zero: the origin is the centroid, so sign(t) = sign(s);
    - g * normal = -sign(s) * w and g * local_index = |t|;
    - gcd(normal) = 1;
    - g * (normal . v_i) = |t| - |s|, which ties the facet to its vertex.

    Then normal . v_j = -sign(s) * (-t) / g = local_index for j != i, and
    normal . v_i = local_index - |s| / g < local_index: the hyperplane
    supports every vertex but v_i, which lies strictly inside, and the
    normal is primitive.  Each check raises ``InternalInconsistencyError``,
    also under python -O.
    """
    A, s = S.lifted_inverse_scaled
    n = S.n
    if any(n * t != s for t in A[-1]):
        raise InternalInconsistencyError("the origin is not the centroid of the vertices")
    sign = 1 if s > 0 else -1
    rows = S.vertex_matrix
    out = []
    for i, (*w, t) in enumerate(zip(*A)):
        g = gcd(*w)
        normal = tuple((x if t < 0 else -x) // g for x in w)
        local_index = abs(t) // g
        if (
            g * local_index != abs(t)
            or gcd(*normal) != 1
            or any(g * a != -sign * x for a, x in zip(normal, w))
            or g * sum(map(mul, normal, rows[i])) != abs(t) - abs(s)
        ):
            raise InternalInconsistencyError(f"facet opposite vertex {i} fails its checks")
        out.append(FacetData(i, normal, local_index))
    return out


def is_reflexive(S: LaplacianSimplex) -> bool:
    """True iff every dual vertex is integral.

    The origin is always interior: ``facets`` checks that it is the
    centroid of the vertices.
    """
    return all(f.is_lattice_vertex for f in S.facet_list)


def ell_reflexive_index(S: LaplacianSimplex):
    """The common facet local index ell, or None.

    Requires all facet local indices equal; the origin is interior, as
    ``facets`` checks.  Every vertex row is primitive, with no test needed:
    row i of L_B holds the prefix sums of row i of L, which is -1 at each
    neighbour of i, deg(i) >= 1 at i and 0 elsewhere.  If i has a neighbour
    k < i, the sums read -1 at the first such k, a column below n - 1.
    Otherwise every neighbour lies after i, and the sums read deg(i) at
    column i and lose 1 at each neighbour, so they read 1 just before the
    last neighbour (at column i itself when deg(i) = 1).  Either way the row
    has an entry +-1.
    """
    indices = {f.local_index for f in S.facet_list}
    if len(indices) != 1:
        return None
    return indices.pop()


def _checked_last_minor_adjugate(S: LaplacianSimplex):
    """adj(B) for B = L_B without its last row, checked for the cofactor identity.

    Both cofactor criteria are read off this one matrix A.  The rows of L_B
    sum to zero, so L_B without row i < n - 1 is E_i B up to the order of its
    rows, where E_i is the identity with row i replaced by -(1, ..., 1).
    det E_i = -1 and E_i (1 - n e_i) = 1, so the row sums of adj(L_B without
    row i) are +-(A 1 - n A e_i); reordering the rows of a matrix only
    permutes the columns of its adjugate, which leaves its row sums alone.
    Hence kappa divides the row sums of the adjugate of every first minor iff
    it divides every entry of A 1 and every entry of n A, and |det| is the
    same for every first minor.  The premise (the rows of L_B sum to zero,
    O(n^2)) and |det B| = kappa are checked, each raising
    ``InternalInconsistencyError``, also under python -O.
    """
    kappa, rows = S.kappa, S.vertex_matrix
    if any(map(sum, zip(*rows))):
        raise InternalInconsistencyError("the rows of L_B do not sum to zero")
    adj, s = linalg.inverse_scaled(rows[:-1])
    if abs(s) != kappa:
        raise InternalInconsistencyError(
            f"L_B without its last row has determinant {s}, kappa is {kappa}"
        )
    return adj


def cofactor_reflexivity_test(S: LaplacianSimplex) -> bool:
    """Reflexivity via divisibility of cofactor column sums.

    kappa must divide every cofactor column sum of each first minor of the
    vertex matrix (one row deleted).  By the identity in
    ``_checked_last_minor_adjugate`` that holds iff kappa divides every row
    sum and every entry of n A: one elimination, O(n^3), never of the lifted
    matrix, so the test is independent of the adjugate behind the facets.
    """
    kappa, n = S.kappa, S.n
    adj = _checked_last_minor_adjugate(S)
    return not any(sum(row) % kappa or any(n * x % kappa for x in row) for row in adj)
