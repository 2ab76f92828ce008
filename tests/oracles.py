"""Slow, independent reference computations that the tests compare against.

These use rational Gauss elimination, Laplace expansion, a memoised cone
search, a dense change-of-basis product, the coordinates r M / q of each
parallelepiped point, the odd-cycle kernel sum, a box scan of each dilate,
both cofactor criteria by their definitions (one determinant per minor)
and a BFS over a graph's normalized edge pairs; the library itself runs none
of these methods, so agreement is a real cross-check.  The helpers after them
(matrix and row-vector products, row and column deletion, primitivity,
unimodularity, the origin's barycentric coordinates from a fresh adjugate,
the lattice points of the simplex from the box scan, equivalence
certificates, the edge-list writer, a simplex with its last row shifted, and
``mutant``, ``broken_cofactor_tests`` and ``broken_facets`` for the mutation
tests) have no caller in the library and live here for the tests alone.

A matrix is a tuple of int rows, as in the library.
"""

import inspect
import itertools
import textwrap
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from lapsim import ehrhart, linalg, simplex as splx
from lapsim.errors import DomainError, ShapeError, SingularMatrixError


def basis_change_matrix(n: int):
    """Upper triangular n x (n-1) matrix of ones on and above the diagonal."""
    return tuple(tuple(1 if i <= j else 0 for j in range(n - 1)) for i in range(n))


def fpp_point(S, r):
    """The parallelepiped point r M / q of a packed group element r, rebuilt.

    r is unpacked with the walk's own packing and multiplied by the lifted
    matrix M; every coordinate must be divisible by q = |det M|.  The last
    coordinate of the point is its height.
    """
    q = S.volume
    coords = mul_row_vector(S.packing.unpack(r), S.lifted)
    if any(x % q for x in coords):
        raise AssertionError(f"r M = {coords} is not divisible by q = {q}")
    return tuple(x // q for x in coords)


def hstar_cycle_by_kernel_sum(n: int):
    """h* of the odd cycle simplex by summing over the kernel, O(n^3).

    Each (alpha, beta) in (Z/n)^2 is a parallelepiped point at height
    sum_j ((alpha + j beta) mod n) / n; the sum must be divisible by n.
    """
    if n < 3 or n % 2 == 0:
        raise DomainError("the kernel sum applies to odd n >= 3 only")
    counts = [0] * n
    for alpha in range(n):
        for beta in range(n):
            total = sum((alpha + j * beta) % n for j in range(n))
            if total % n:
                raise AssertionError(f"kernel sum {total} is not divisible by {n}")
            counts[total // n] += 1
    return tuple(counts)


def dilate_points_by_box(S, t):
    """The lattice points of the t-th dilate by testing a whole box, sorted.

    Every integer point of the bounding box of the dilated vertices is
    tested against every facet inequality normal . x <= t * local_index; no
    elimination, ordering or interval is involved.
    """
    box = [range(t * min(c), t * max(c) + 1) for c in zip(*S.vertex_matrix)]
    facets = [(f.normal, t * f.local_index) for f in S.facet_list]
    return [
        x
        for x in itertools.product(*box)
        if all(sum(map(mul, normal, x)) <= rhs for normal, rhs in facets)
    ]


def solve_exact(M, b):
    """Solve M x = b exactly; returns a tuple of Fractions.

    ``b`` may contain ints or Fractions.
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ShapeError("solve requires a square matrix")
    if len(b) != n:
        raise ShapeError("right-hand side length does not match")
    a = [[Fraction(x) for x in r] + [Fraction(b[i])] for i, r in enumerate(M)]
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


def determinant_by_cofactors(M) -> int:
    """Laplace expansion along the first row."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise ShapeError("determinant requires a square matrix")
    if n == 1:
        return M[0][0]
    total = 0
    for j, x in enumerate(M[0]):
        if x:
            total += (-1) ** j * x * determinant_by_cofactors(without(M, [0], [j]))
    return total


def minor(M, rows=(), cols=()) -> int:
    """``linalg.determinant`` of M with the given rows and columns deleted.

    The empty matrix that deleting every row leaves has determinant 1.
    """
    rest = without(M, rows, cols)
    return linalg.determinant(rest) if rest else 1


def cofactor_reflexivity_by_minors(S) -> bool:
    """The cofactor reflexivity criterion, one determinant per cofactor.

    kappa must divide every cofactor column sum of each first minor B of the
    vertex matrix (one row deleted): n (n - 1)^2 determinants of size n - 2.
    """
    kappa, d = S.kappa, S.dim
    for i in range(S.n):
        B = without(S.vertex_matrix, [i])
        for j in range(d):
            col_sum = sum((-1) ** (k + j) * minor(B, [k], [j]) for k in range(d))
            if col_sum % kappa:
                return False
    return True


def bridge_division_by_minors(G) -> bool:
    """kappa divides n * det(L_B(i, n | j)) for all i, j in [n-1], one determinant each."""
    S = splx.build(G)
    kappa, n = S.kappa, S.n
    for i in range(n - 1):
        for j in range(n - 1):
            if n * minor(S.vertex_matrix, [i, n - 1], [j]) % kappa:
                return False
    return True


def facets_by_solves(vertex_matrix):
    """(opposite, dual_vertex, normal, local_index) for every facet.

    One rational solve per facet: the dual vertex u of the facet opposite
    row i satisfies u . v_j = 1 for every other row v_j.
    """
    n = len(vertex_matrix)
    out = []
    for i in range(n):
        dual = solve_exact(without(vertex_matrix, [i]), [1] * (n - 1))
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
    pts = [fpp_point(S, r) for level in ehrhart.fpp_points(S) for r in level]
    gens = {p[:-1] for p in pts if p[-1] == 1}
    gens.update(S.vertex_matrix)
    adj, s = S.lifted_inverse_scaled
    sign = 1 if s > 0 else -1

    def in_cone(x, h):
        return all(sign * v >= 0 for v in mul_row_vector(x + (h,), adj))

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

    return all(decomposes(p[:-1], p[-1]) for p in pts if p[-1] >= 2)


def shape(M):
    return len(M), len(M[0])


def without(M, rows=(), cols=()):
    """M with the given 0-based rows and columns deleted."""
    rows, cols = set(rows), set(cols)
    return tuple(
        tuple(x for j, x in enumerate(r) if j not in cols)
        for i, r in enumerate(M)
        if i not in rows
    )


def transpose(M):
    return tuple(zip(*M))


def matmul(A, B):
    """The dense product A B."""
    if shape(A)[1] != len(B):
        raise ShapeError(f"cannot multiply {shape(A)} by {shape(B)}")
    cols = transpose(B)
    return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in A)


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mul_row_vector(v, M):
    """Row vector times M, exact (ints or Fractions)."""
    if len(v) != len(M):
        raise ShapeError("vector length does not match row count")
    return tuple(sum(map(mul, v, c)) for c in zip(*M))


def is_primitive(v) -> bool:
    """True iff the nonzero integer vector has entry gcd 1."""
    v = tuple(map(int, v))
    if not any(v):
        raise DomainError("zero vector has no primitivity")
    return gcd(*v) == 1


def is_unimodular(M) -> bool:
    """True iff M is square with |det M| = 1; ``ShapeError`` if it is not square."""
    return abs(linalg.determinant(M)) == 1


def barycentric_of_origin(vertex_matrix):
    """Coefficients lam with lam . [M | 1] = (0,...,0,1), from its own adjugate."""
    A, s = linalg.inverse_scaled([(*r, 1) for r in vertex_matrix])
    return tuple(Fraction(x, s) for x in A[-1])


def origin_in_interior(vertex_matrix) -> bool:
    """True iff the origin is a strictly positive convex combination of the rows."""
    try:
        return all(c > 0 for c in barycentric_of_origin(vertex_matrix))
    except SingularMatrixError:
        return False


def lattice_points(S):
    """All lattice points of the simplex itself (dilate t = 1), by the box scan."""
    return dilate_points_by_box(S, 1)


def _vertex_rows(obj):
    if isinstance(obj, splx.LaplacianSimplex):
        return obj.vertex_matrix
    return tuple(map(tuple, obj))


def verify_equivalence_certificate(S1, S2, U, perm) -> bool:
    """Check that row perm(i) of S2 equals row i of S1 times unimodular U.

    ``perm`` maps 0-based row indices of S1 to row indices of S2.
    """
    M1, M2 = _vertex_rows(S1), _vertex_rows(S2)
    d = shape(M1)[1]
    if shape(M1) != shape(M2) or shape(U) != (d, d):
        raise ShapeError("incompatible shapes for equivalence certificate")
    if sorted(perm) != list(range(len(M1))):
        raise ShapeError("perm must be a permutation of the rows")
    if not is_unimodular(U):
        return False
    mapped = matmul(M1, U)
    return all(mapped[i] == M2[perm[i]] for i in range(len(M1)))


def canonical_tree_simplex(d: int):
    """Vertex matrix of the standard reflexive simplex conv(e_1..e_d, -1)."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    return identity(d) + ((-1,) * d,)


def connected_edges_by_bfs(n, edges):
    """The edges of a simple connected graph on 1..n as pairs u < v, by a BFS.

    Raises as ``Graph`` does, checking in stages: ``DomainError`` for n < 1,
    then a self-loop, then an endpoint outside 1..n, then a vertex that the
    BFS from vertex 1 does not reach; a pair that does not unpack to two ints
    raises ``int``'s or the unpacking's own error.
    """
    if n < 1:
        raise DomainError("graph needs at least one vertex")
    pairs = set()
    for e in edges:
        u, v = sorted(int(x) for x in e)
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        pairs.add((u, v))
    if any(u < 1 or v > n for u, v in pairs):
        raise DomainError(f"an edge is out of range for n={n}")
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen, queue = {1}, [1]
    for u in queue:
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n:
        raise DomainError("graph must be connected")
    return frozenset(pairs)


def format_edge_list(G) -> str:
    """G in the edge-list text format that ``graph.parse_edge_list`` reads."""
    lines = [f"{G.n} {G.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in G.sorted_edges())
    return "\n".join(lines) + "\n"


def write_edge_list(G, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(G))


def narrow_group_packing(q, n, _packing=linalg.group_packing):
    """``linalg.group_packing`` with fields one bit too narrow to hold q(n - 1).

    Patched in for ``linalg.group_packing``, it breaks the walk of every
    simplex with n >= 3, and the walk's height check must catch it.
    """
    w = _packing(q, n).width - 1
    ones = sum(1 << (w * i) for i in range(n))
    return linalg.GroupPacking(n, w, ones, ones << (w - 1))


def mutant(fn, old, new):
    """``fn`` recompiled from its source with ``old`` replaced by ``new``.

    Used by the mutation tests: a check must fail once the code it guards is
    broken on purpose.
    """
    src = textwrap.dedent(inspect.getsource(fn))
    if src.count(old) != 1:
        raise ValueError(f"{old!r} occurs {src.count(old)} times in {fn.__name__}, not once")
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(src.replace(old, new), f"<mutant of {fn.__name__}>", "exec"), namespace)
    return namespace[fn.__name__]


def with_shifted_last_row(S):
    """S with e_1 added to its last vertex: the rows no longer sum to zero."""
    *rows, (x, *rest) = S.vertex_matrix
    return splx.LaplacianSimplex(S.graph, (*rows, (x + 1, *rest)), S.kappa)


def broken_cofactor_tests():
    """(name, cofactor reflexivity test) with one half of its identity dropped.

    Each half decides some connected graph with n <= 6 on its own, so
    comparing either mutant with ``cofactor_reflexivity_by_minors`` must fail.
    """
    test = splx.cofactor_reflexivity_test
    yield "no row sums", mutant(test, "sum(row) % kappa or ", "")
    yield "no n A", mutant(test, " or any(n * x % kappa for x in row)", "")


def broken_facets():
    """(name, facets function) for each break that the facet checks must catch."""
    yield "wrong sign", mutant(splx.facets, "(x if t < 0 else -x) // g", "(-x if t < 0 else x) // g")
    yield "wrong gcd", mutant(splx.facets, "g = gcd(*w)", "g = 1")
    yield "column from the wrong index", mutant(
        splx.facets, "enumerate(zip(*A))", "enumerate(reversed(list(zip(*A))))"
    )

    def corrupted_last_row(S):
        A, s = S.lifted_inverse_scaled
        rows = [list(r) for r in A]
        rows[-1][0] = -rows[-1][0]
        S.lifted_inverse_scaled = (tuple(map(tuple, rows)), s)
        return splx.facets(S)

    yield "corrupted last row", corrupted_last_row
