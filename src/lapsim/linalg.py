"""Exact integer linear algebra.

All matrix entries are Python ints (arbitrary precision), and every routine
here is integer-only: fraction-free (Bareiss) elimination for determinants
and the adjugate, and extended-gcd row reduction modulo a determinant for
echelon bases of lattices that contain qZ^n.  Nothing here ever touches
floating point.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError, InternalInconsistencyError, ShapeError, SingularMatrixError


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise ShapeError("matrix must have at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n):
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return IntMatrix(zip(*self.rows))

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
            cols = other.transpose().rows
            return IntMatrix(
                [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self.rows]
            )
        return NotImplemented

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def mul_row_vector(self, v):
        """Row vector times this matrix, exact (ints or Fractions)."""
        if len(v) != self.nrows:
            raise ShapeError("vector length does not match row count")
        return tuple(
            sum(v[i] * self.rows[i][j] for i in range(self.nrows))
            for j in range(self.ncols)
        )

    def submatrix(self, delete_rows=(), delete_cols=()):
        """Delete the given 0-based rows and columns."""
        dr, dc = set(delete_rows), set(delete_cols)
        rows = [
            [x for j, x in enumerate(r) if j not in dc]
            for i, r in enumerate(self.rows)
            if i not in dr
        ]
        return IntMatrix(rows)

    def augment_column(self, col):
        if len(col) != self.nrows:
            raise ShapeError("column length does not match row count")
        return IntMatrix([r + (int(c),) for r, c in zip(self.rows, col)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"


def determinant(M: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not M.is_square:
        raise ShapeError("determinant requires a square matrix")
    n = M.nrows
    a = [list(r) for r in M.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor(M: IntMatrix, delete_rows=(), delete_cols=()) -> int:
    """Determinant of the submatrix with the given 0-based rows/cols deleted."""
    return determinant(M.submatrix(delete_rows, delete_cols))


def inverse_scaled(M: IntMatrix):
    """Return (A, s) with integer A and M @ A == s * I, s = det(M).

    A is the adjugate of M, from one fraction-free Gauss-Jordan elimination
    of [M | I] (Bareiss 1968): after step k every entry is a (k+1)-minor of
    the input, so each division is exact and no fraction is ever formed.
    """
    if not M.is_square:
        raise ShapeError("inverse requires a square matrix")
    n = M.nrows
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(M.rows)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k]
        akk = pk[k]
        for i in range(n):
            if i != k:
                aik = a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(a[i], pk)]
        prev = akk
    # [M | I] became [d I | d M^-1], with d = sign * det(M) after the row swaps
    s = sign * prev
    A = IntMatrix([[sign * x for x in r[n:]] for r in a])
    if M @ A != IntMatrix([[s if i == j else 0 for j in range(n)] for i in range(n)]):
        raise InternalInconsistencyError("adjugate check M @ A == det(M) * I failed")
    return A, s


def _xgcd(a, b):
    """(g, x, y) with a * x + b * y == g == gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return a, x0, y0


def hermite_basis_mod(M: IntMatrix, q: int):
    """Echelon basis of the lattice spanned by the rows of M and qZ^n.

    Returns n rows b_0..b_{n-1}: b_j is zero before column j, its pivot
    b_j[j] = g_j divides q, and its later entries lie in [0, q).  Each
    c_0 b_0 + ... + c_{n-1} b_{n-1} with 0 <= c_j < q / g_j is then a distinct
    element of (rows(M) Z + qZ^n) / qZ^n, and these are all of them.  Built by
    extended-gcd row operations with every entry kept modulo q, so no entry
    exceeds q (Domich-Kannan-Trotter, "Hermite normal form computation using
    modulo determinant arithmetic", 1987).
    """
    if q < 1:
        raise DomainError("modulus must be positive")
    n = M.ncols
    rows = [[x % q for x in r] for r in M.rows]
    basis = []
    for j in range(n):
        piv = [0] * n
        piv[j] = q  # q e_j: the lattice contains qZ^n
        for r in rows:
            a = r[j]
            if a:
                # [piv; r] <- [[u, v], [a/g, -p/g]] [piv; r], a unimodular step
                p = piv[j]
                g, u, v = _xgcd(p, a)
                s, t = a // g, p // g
                piv, r[:] = (
                    [(u * x + v * y) % q for x, y in zip(piv, r)],
                    [(s * x - t * y) % q for x, y in zip(piv, r)],
                )
        basis.append(tuple(piv))
    return basis


def group_walk(basis, q, n):
    """Yield c_0 b_0 + ... + c_k b_k mod q for every digit vector 0 <= c_j < m_j.

    ``basis`` holds pairs (b_j, m_j); an odometer turns the last digit
    fastest, so each step adds one b_j and undoes the digits that wrapped.
    """
    undo = [tuple((1 - m) * x % q for x in b) for b, m in basis]
    digits = [0] * len(basis)
    cur = (0,) * n
    while True:
        yield cur
        j = len(basis) - 1
        while j >= 0 and digits[j] == basis[j][1] - 1:
            digits[j] = 0
            cur = tuple([(x + y) % q for x, y in zip(cur, undo[j])])
            j -= 1
        if j < 0:
            return
        digits[j] += 1
        cur = tuple([(x + y) % q for x, y in zip(cur, basis[j][0])])


def is_unimodular(M: IntMatrix) -> bool:
    """True iff M is square with |det M| = 1."""
    if not M.is_square:
        raise ShapeError("unimodularity requires a square matrix")
    return abs(determinant(M)) == 1


def is_primitive(v) -> bool:
    """True iff the nonzero integer vector has entry gcd 1."""
    v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        raise DomainError("zero vector has no primitivity")
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1
