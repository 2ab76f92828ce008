"""h*-vectors, fundamental parallelepiped enumeration, and point counting.

The generic path (strategy name ``generic_snf``, kept for compatibility)
counts the lattice points of the half-open parallelepiped spanned by the
lifted vertex rows M = [L_B | 1] by height.  The simplex walks them once, as
the finite group Lambda = (Z^n adj(M) + qZ^n) / qZ^n with q = |det M|, each
element kept as one packed int with its height, and caches and checks the
walk (``LaplacianSimplex.fpp_list``); ``fpp_points``
checks the one size cap on that walk and then yields from the cache, so the
h* histogram and the IDP decision share one walk.  Closed forms cover trees,
odd cycles, and complete graphs, and a dilate-counting scan over the facet
description provides an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, gcd

from .errors import DomainError, FeasibilityError, InternalInconsistencyError
from .simplex import LaplacianSimplex

DEFAULT_FPP_CAP = 10**7
DEFAULT_SCAN_CAP = 10**8

STRATEGIES = (
    "generic_snf",
    "cycle_closed_form",
    "complete_compositions",
    "tree_closed_form",
    "dilate_interpolation",
)


@dataclass(frozen=True)
class HStarVector:
    """Ehrhart series numerator coefficients, with provenance."""

    entries: tuple
    strategy: str

    def __post_init__(self):
        entries = tuple(int(x) for x in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries or entries[0] != 1:
            raise DomainError("h*-vector must start with 1")
        if any(x < 0 for x in entries):
            raise DomainError("h*-vector entries must be nonnegative")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}")

    @property
    def total(self):
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def fpp_points(S: LaplacianSimplex, cap: int = DEFAULT_FPP_CAP):
    """Yield the n*kappa fundamental parallelepiped points as (height, packed r).

    r is the point's group element, packed into one int by
    ``linalg.group_packing(S.volume, S.n)``; the point itself is r M / q.
    This is the only size cap on the walk: it is checked before anything is
    walked, for the h* histogram and the IDP decision alike.  The walk itself
    runs once per simplex, is checked there and is cached as ``S.fpp_list``.
    """
    vol = S.n * S.kappa
    if vol > cap:
        raise FeasibilityError(
            f"fundamental parallelepiped has {vol} points, cap is {cap}",
            required=vol,
        )
    yield from S.fpp_list


def hstar_cycle_closed_form(n: int) -> HStarVector:
    """h* of the odd cycle simplex from the kernel classification.

    The kernel elements (alpha, beta) in (Z/n)^2 are the parallelepiped
    points, and (alpha, beta) is at height sum_j ((alpha + j beta) mod n) / n.
    As j runs over Z/n, alpha + j beta takes each of the n/g values of the
    coset alpha + gZ modulo n exactly g times, with g = gcd(beta, n), which
    sums to height (alpha mod g) + (n - g) / 2.  n is odd, so its divisor g
    is odd and (n - g) / 2 is an integer.  For each beta, alpha mod g takes
    each value in [0, g) exactly n/g times, so the counts take at most
    O(n^2) steps.  ``tests/oracles.py`` keeps the kernel sum as the
    definition this is checked against.
    """
    if n < 3 or n % 2 == 0:
        raise DomainError("cycle closed form applies to odd n >= 3 only")
    counts = [0] * n
    for beta in range(n):
        g = gcd(beta, n)
        for a in range(g):
            counts[a + (n - g) // 2] += n // g
    return HStarVector(tuple(counts), "cycle_closed_form")


def bounded_compositions(total: int, parts: int, max_part: int) -> int:
    """Weak compositions of ``total`` into ``parts`` parts, each <= max_part."""
    if total < 0:
        return 0
    count = 0
    for j in range(parts + 1):
        rem = total - j * (max_part + 1)
        if rem < 0:
            break
        count += (-1) ** j * comb(parts, j) * comb(rem + parts - 1, parts - 1)
    return count


def hstar_complete(n: int) -> HStarVector:
    """h* of the complete-graph simplex via bounded weak compositions."""
    if n < 2:
        raise DomainError("complete-graph closed form needs n >= 2")
    entries = tuple(bounded_compositions(i * n, n, n - 1) for i in range(n))
    return HStarVector(entries, "complete_compositions")


def hstar(S: LaplacianSimplex, strategy=None, cap: int = DEFAULT_FPP_CAP) -> HStarVector:
    """Compute the h*-vector, auto-selecting a closed form when one applies."""
    G = S.graph
    if strategy is None:
        if G.is_tree:
            strategy = "tree_closed_form"
        elif G.is_cycle and G.n % 2 == 1:
            strategy = "cycle_closed_form"
        elif G.is_complete:
            strategy = "complete_compositions"
        else:
            strategy = "generic_snf"
    if strategy == "tree_closed_form":
        if not G.is_tree:
            raise DomainError("tree closed form requires a tree")
        h = HStarVector((1,) * S.n, "tree_closed_form")
    elif strategy == "cycle_closed_form":
        if not G.is_cycle:
            raise DomainError("cycle closed form requires a cycle")
        h = hstar_cycle_closed_form(G.n)
    elif strategy == "complete_compositions":
        if not G.is_complete:
            raise DomainError("composition counting requires a complete graph")
        h = hstar_complete(G.n)
    elif strategy == "generic_snf":
        counts = [0] * S.n
        for height, _ in fpp_points(S, cap=cap):
            counts[height] += 1
        h = HStarVector(tuple(counts), "generic_snf")
    elif strategy == "dilate_interpolation":
        counts = [count_dilate_points(S, t) for t in range(S.n)]
        h = hstar_from_counts(counts)
    else:
        raise DomainError(f"unknown strategy {strategy!r}")
    if h.total != S.volume:
        raise InternalInconsistencyError(
            f"sum of h* is {h.total}, normalized volume is {S.volume}"
        )
    return h


def ehrhart_eval(h, t: int) -> int:
    """Lattice-point count of the t-th dilate from the h*-vector."""
    entries = tuple(h)
    d = len(entries) - 1
    if t < 0:
        raise DomainError("dilate factor must be nonnegative")
    return sum(entries[i] * comb(t + d - i, d) for i in range(d + 1))


def hstar_from_counts(counts) -> HStarVector:
    """Invert dilate counts L(0..n-1) to the unique h*-vector.

    h*(z) = (1 - z)^n * sum_t L(t) z^t, so h*_i = sum_j (-1)^j C(n, j) L(i - j).
    """
    counts = list(counts)
    n = len(counts)
    entries = [
        sum((-1) ** j * comb(n, j) * counts[i - j] for j in range(i + 1)) for i in range(n)
    ]
    return HStarVector(tuple(entries), "dilate_interpolation")


# -- exact dilate-point scan (oracle path) -----------------------------------


def _normalize_ineq(coeffs, rhs):
    """Tighten c.x <= r over the integers; None means trivially true."""
    g = reduce(gcd, coeffs, 0)
    if g == 0:
        if rhs < 0:
            raise _Infeasible
        return None
    return (tuple(c // g for c in coeffs), rhs // g)


class _Infeasible(Exception):
    pass


def _fm_eliminate(ineqs):
    """Fourier-Motzkin elimination of the last variable."""
    pos, neg, rest = [], [], []
    for c, r in ineqs:
        if c[-1] > 0:
            pos.append((c, r))
        elif c[-1] < 0:
            neg.append((c, r))
        else:
            rest.append((c[:-1], r))
    out = set()
    for c, r in rest:
        norm = _normalize_ineq(c, r)
        if norm:
            out.add(norm)
    for cp, rp in pos:
        for cn, rn in neg:
            a, b = cp[-1], -cn[-1]
            c = tuple(b * x + a * y for x, y in zip(cp[:-1], cn[:-1]))
            norm = _normalize_ineq(c, b * rp + a * rn)
            if norm:
                out.add(norm)
    return sorted(out)


def _scan_lattice_points(S: LaplacianSimplex, t: int, cap: int):
    """Yield all lattice points of the t-th dilate.

    Works from the facet description a_i . x <= t * c_i alone, scanning
    coordinates left to right with exact per-prefix bounds obtained by
    Fourier-Motzkin elimination.
    """
    if t < 0:
        raise DomainError("dilate factor must be nonnegative")
    d = S.dim
    base = []
    for f in S.facet_list:
        norm = _normalize_ineq(f.normal, t * f.local_index)
        if norm:
            base.append(norm)
    systems = [None] * (d + 1)
    systems[d] = sorted(set(base))
    try:
        for k in range(d, 1, -1):
            systems[k - 1] = _fm_eliminate(systems[k])
    except _Infeasible:
        return
    visited = 0
    prefix = [0] * d

    def bounds(level, pfx):
        lo, hi = None, None
        for c, r in systems[level]:
            a = c[-1]
            if a == 0:
                continue  # enforced at a lower level
            s = r - sum(ci * xi for ci, xi in zip(c, pfx))
            if a > 0:
                v = s // a
                hi = v if hi is None else min(hi, v)
            else:
                v = -(s // -a)  # ceil(s / a) for a < 0
                lo = v if lo is None else max(lo, v)
        return lo, hi

    def rec(level):
        nonlocal visited
        lo, hi = bounds(level, prefix[: level - 1])
        if lo is None or hi is None:
            raise InternalInconsistencyError("dilate scan region is unbounded")
        for x in range(lo, hi + 1):
            visited += 1
            if visited > cap:
                raise FeasibilityError(
                    f"dilate scan exceeded cap of {cap} candidates", required=visited
                )
            prefix[level - 1] = x
            if level == d:
                yield tuple(prefix)
            else:
                yield from rec(level + 1)

    yield from rec(1)


def count_dilate_points(S: LaplacianSimplex, t: int, cap: int = DEFAULT_SCAN_CAP) -> int:
    """Exact |tS intersect Z^d| by direct enumeration; independent oracle."""
    return sum(1 for _ in _scan_lattice_points(S, t, cap))
