"""Exact integer linear algebra.

A matrix is a sequence of rows of Python ints (arbitrary precision), and a
matrix returned here is a tuple of int tuples.  ``determinant`` and
``inverse_scaled`` raise ``ShapeError`` on an empty, ragged or non-square
matrix.  Every routine here is integer-only: one fraction-free (Bareiss)
elimination, ``_eliminate``, behind both the determinant and the adjugate,
and extended-gcd row reduction modulo a determinant for echelon bases of
lattices that contain qZ^n.  Nothing here ever touches floating point.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .errors import DomainError, InternalInconsistencyError, ShapeError, SingularMatrixError


def _eliminate(a, n, every_row):
    """Reduce the first n columns of the n rows ``a`` in place, fraction-free.

    Step k takes the first row at or below k with a nonzero a_ik as the pivot
    row, and clears column k from the rows below it (Bareiss) or, with
    ``every_row``, from every other row (Gauss-Jordan on [M | I]).  A row with
    a_ik != 0 becomes (a_kk row_i - a_ik row_k) / prev, exact as every entry
    is then a minor (Bareiss, Math. Comp. 1968).  A row with a_ik == 0 would
    only be scaled by a_kk / prev: it stays stale, holding its value times
    scale[i] / prev, until one exact division brings it up to date when it
    is next used.  Only the live columns k+1.. are updated: finished pivot
    columns are never read again.  Returns (sign of the row swaps, last
    pivot, scales), or None when those columns are singular.
    """
    scale = [1] * n
    sign = prev = 1
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return None
            a[k], a[piv] = a[piv], a[k]
            scale[k], scale[piv] = scale[piv], scale[k]
            sign = -sign
        pk = a[k]
        if scale[k] != prev:
            b = scale[k]
            pk[k:] = [x * prev // b for x in pk[k:]]
        live = slice(k + 1, None)
        akk, pivot = pk[k], pk[live]
        for i in range(0 if every_row else k + 1, n):
            row = a[i]
            aik = row[k]
            if aik and i != k:
                b = scale[i]
                if b != prev:  # bring the row up to date first
                    row[k:] = [x * prev // b for x in row[k:]]
                    aik = row[k]
                row[live] = [(akk * x - aik * y) // prev for x, y in zip(row[live], pivot)]
                scale[i] = akk
        scale[k] = akk
        prev = akk
    return sign, prev, scale


def determinant(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination, ``_eliminate``."""
    n = len(M)
    if not n or any(len(r) != n for r in M):
        raise ShapeError("determinant requires a nonempty square matrix")
    done = _eliminate([list(r) for r in M], n, False)
    if done is None:
        return 0
    sign, prev, _ = done
    return sign * prev


def inverse_scaled(M):
    """Return (A, s) with integer A and M @ A == s * I, s = det(M).

    A is the adjugate of M, from one fraction-free Gauss-Jordan elimination
    of [M | I] by ``_eliminate``.  All n^2 entries of M @ A are checked
    against s * I from M's nonzero entries, raising
    ``InternalInconsistencyError`` even under python -O.
    """
    n = len(M)
    if not n or any(len(r) != n for r in M):
        raise ShapeError("inverse requires a nonempty square matrix")
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(M)]
    done = _eliminate(a, n, True)
    if done is None:
        raise SingularMatrixError("matrix is singular")
    sign, prev, scale = done
    # [M | I] became [d I | d M^-1], with d = sign * det(M) after the row swaps
    s = sign * prev
    A = [[sign * x * prev // b for x in row[n:]] for row, b in zip(a, scale)]
    for i, row in enumerate(M):
        got = [0] * n
        for j, x in enumerate(row):
            if x:  # M is sparse: skip its zero entries
                got = [u + x * v for u, v in zip(got, A[j])]
        if got != [s if c == i else 0 for c in range(n)]:
            raise InternalInconsistencyError("adjugate check M @ A == det(M) * I failed")
    return tuple(map(tuple, A)), s


def _xgcd(a, b):
    """(g, x, y) with a * x + b * y == g == gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return a, x0, y0


def hermite_basis_mod(M, q: int):
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
    n = len(M[0])
    rows = [[x % q for x in r] for r in M]
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


class GroupPacking(NamedTuple):
    """n nonnegative integers kept in one int, ``width`` bits per field.

    Field i holds entry i at bits width*i and up; ``ones`` has a 1 in every
    field and ``guard`` the top bit of every field.  Made by ``group_packing``.
    """

    n: int
    width: int
    ones: int
    guard: int

    def pack(self, v):
        return sum(x << (self.width * i) for i, x in enumerate(v))

    def unpack(self, r):
        field = (1 << self.width) - 1
        return tuple((r >> (self.width * i)) & field for i in range(self.n))


def group_packing(q: int, n: int) -> GroupPacking:
    """The one packing of the walk's group elements, modulo q in n coordinates.

    A field holds a coordinate below 2q in the middle of a walk step, with
    q <= 2^(width-1) so that the guard bit marks the coordinates that reached
    q, and it holds a coordinate sum, which is q(n - 1) for a parallelepiped
    point at height n - 1.  The width is the least that does both.  For
    n >= 3 a field one bit narrower cannot hold q(n - 1), and every Laplacian
    simplex has points at height n - 1 (its interior lattice points, the
    origin among them), so the walk's height check fails on them.
    """
    width = (q * max(n - 1, 2)).bit_length()
    ones = sum(1 << (width * i) for i in range(n))
    return GroupPacking(n, width, ones, ones << (width - 1))


def group_levels(basis, q, packing):
    """The group generated by ``basis`` modulo q, as lists of packed ints by height.

    ``basis`` holds cyclic factors (b_j, m_j), b_j of order m_j with entries
    in [0, q) summing to a multiple of q.  Starting from {0}, every element
    found before factor j is stepped m_j - 1 times by packed b_j, so the
    levels hold each c_0 b_0 + ... + c_k b_k mod q (0 <= c_j < m_j) once,
    packed by ``packing``, at height sum(r) / q.  After each add, adding
    packed 2^(w-1) - q sets the guard bit of exactly the fields that reached
    q, and q is taken out of those fields (Lamport, "Multiple byte processing
    with full-word instructions", 1975).  Each wrap lowers the coordinate sum
    by q, so the height moves by the step's own height minus the wraps.

    Every new element is checked, raising ``InternalInconsistencyError``
    even under python -O: each field lies in [0, q), by a guard-bit test
    with a constant of its own that also catches a borrow; 0 <= height < n
    before the height picks a level; and the coordinate sum is q * height.
    """
    n, width = packing.n, packing.width
    ones, guard, top = packing.ones, packing.guard, width - 1
    # the wrap: a field below 2^(w-1) reaches its guard bit iff it is >= q
    over = guard - q * packing.ones
    # the range check, its own constant so that a wrong wrap cannot hide
    outside = packing.guard - q * ones
    shift, field = (n - 1) * width, (1 << width) - 1
    levels = [[0]] + [[] for _ in range(n - 1)]
    for b, m in basis:
        step, rise = packing.pack(b), sum(b) // q
        found = [islice(level, len(level)) for level in levels]
        for start, level in enumerate(found):
            for cur in level:
                height = start
                for _ in range(m - 1):
                    cur += step
                    wrapped = (cur + over) & guard
                    cur -= (wrapped >> top) * q
                    height += rise - wrapped.bit_count()
                    if (cur | cur + outside) & guard:
                        raise InternalInconsistencyError(
                            "group element with a field outside [0, q)"
                        )
                    total = ((cur * ones) >> shift) & field  # the top field of cur * ones
                    if not 0 <= height < n or total != q * height:
                        raise InternalInconsistencyError(
                            f"parallelepiped point at height {height} has coordinate sum {total}"
                        )
                    levels[height].append(cur)
    return levels
