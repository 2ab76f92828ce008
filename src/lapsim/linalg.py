"""Exact integer linear algebra.

A matrix is a sequence of rows of Python ints (arbitrary precision), and a
matrix returned here is a tuple of int tuples.  ``determinant`` and
``inverse_scaled`` raise ``ShapeError`` on an empty, ragged or non-square
matrix.  Every routine here is integer-only: fraction-free (Bareiss)
elimination for determinants and the adjugate, and extended-gcd row
reduction modulo a determinant for echelon bases of lattices that contain
qZ^n.  Nothing here ever touches floating point.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InternalInconsistencyError, ShapeError, SingularMatrixError


def determinant(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Step k replaces each row i > k with a_ik != 0 by (a_kk row_i - a_ik row_k)
    / prev, exact as every entry is then a minor (Bareiss, Math. Comp. 1968).
    A row with a_ik == 0 would only be scaled by a_kk / prev: it stays stale,
    holding its value times scale[i] / prev, until one exact division brings
    it up to date when it is next used.
    """
    n = len(M)
    if not n or any(len(r) != n for r in M):
        raise ShapeError("determinant requires a nonempty square matrix")
    a = [list(r) for r in M]
    scale = [1] * n
    sign = prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            scale[k], scale[piv] = scale[piv], scale[k]
            sign = -sign
        pk = a[k]
        if scale[k] != prev:
            b = scale[k]
            pk = [x * prev // b for x in pk]
        akk = pk[k]
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            if aik:
                b = scale[i]
                if b != prev:  # bring the row up to date first
                    row = [x * prev // b for x in row]
                    aik = row[k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(row, pk)]
                scale[i] = akk
        prev = akk
    return sign * a[-1][-1] * prev // scale[-1]


def inverse_scaled(M):
    """Return (A, s) with integer A and M @ A == s * I, s = det(M).

    A is the adjugate of M, from one fraction-free Gauss-Jordan elimination
    of [M | I] with the stale rows of ``determinant``.  Step k updates only
    the live columns k+1..: finished pivot columns are never read again.
    All n^2 entries of M @ A are checked against s * I from M's nonzero
    entries, raising ``InternalInconsistencyError`` even under python -O.
    """
    n = len(M)
    if not n or any(len(r) != n for r in M):
        raise ShapeError("inverse requires a nonempty square matrix")
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(M)]
    scale = [1] * n  # row i holds its value times scale[i] / prev
    sign = prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            scale[k], scale[piv] = scale[piv], scale[k]
            sign = -sign
        pk = a[k]
        if scale[k] != prev:
            b = scale[k]
            pk[k:] = [x * prev // b for x in pk[k:]]
        live = slice(k + 1, None)
        akk, pivot = pk[k], pk[live]
        for i, row in enumerate(a):
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


def odometer_steps(basis, q):
    """The vector an odometer over ``basis`` adds when it raises each digit.

    ``basis`` holds pairs (b_j, m_j), digit j running over [0, m_j).  Raising
    digit j resets every later digit i from m_i - 1 to 0, so the step is b_j
    plus the undo vector (1 - m_i) b_i of every later i, reduced modulo q.
    Returns the pairs (step_j, m_j).
    """
    steps = []
    undo = [0] * len(basis[0][0]) if basis else []
    for b, m in reversed(basis):
        steps.append((tuple((x + y) % q for x, y in zip(b, undo)), m))
        undo = [y + (1 - m) * x for x, y in zip(b, undo)]
    return steps[::-1]


def group_walk(steps, q, packing):
    """Yield (height, r) for every digit vector of an odometer over ``steps``.

    ``steps`` holds pairs (s_j, m_j) from ``odometer_steps``, vectors with
    entries in [0, q) that sum to a multiple of q, so r runs over
    c_0 b_0 + ... + c_k b_k mod q.  r is yielded packed by ``packing`` and its
    height is sum(r) / q.  The last digit turns fastest, and each step adds
    one packed s_j.  Adding packed 2^(w-1) - q then sets the guard bit of
    exactly the fields that reached q, and q is taken out of those fields, so
    every field stays below q with no per-coordinate work (Lamport, "Multiple
    byte processing with full-word instructions", 1975).  Each such wrap
    lowers the coordinate sum by q, so the height moves by the step's own
    height minus the number of wraps.
    """
    guard, top = packing.guard, packing.width - 1
    over = guard - q * packing.ones
    packed = [packing.pack(s) for s, _ in steps]
    rises = [sum(s) // q for s, _ in steps]
    last = [m - 1 for _, m in steps]
    digits = [0] * len(steps)
    cur = height = 0
    while True:
        yield height, cur
        j = len(steps) - 1
        while j >= 0 and digits[j] == last[j]:
            digits[j] = 0
            j -= 1
        if j < 0:
            return
        digits[j] += 1
        cur += packed[j]
        wrapped = (cur + over) & guard
        cur -= (wrapped >> top) * q
        height += rises[j] - wrapped.bit_count()
