"""h*-vectors, fundamental parallelepiped enumeration, and point counting.

The generic path (strategy name ``generic_snf``, kept for compatibility)
counts the lattice points of the half-open parallelepiped spanned by the
lifted vertex rows M = [L_B | 1] by height.  The simplex walks them once, as
the finite group Lambda = (Z^n adj(M) + qZ^n) / qZ^n with q = |det M|, each
element kept as one packed int, and checks the walk and stores it by height
(``LaplacianSimplex.fpp_levels``); ``fpp_points`` checks the one size cap on
that walk and returns the levels, so h* is their sizes and the IDP decision
reads the same levels.  Closed forms cover trees, odd cycles, and complete
graphs, and ``hstar`` picks one whenever it applies.  An independent oracle
counts the lattice points of each dilate from the facet description alone,
never from the walk: Fourier-Motzkin elimination pruned by Chernikov's rule
bounds the coordinates, a recursion fixes them narrowest first, and the
range of the widest coordinate is counted at once for each prefix instead
of point by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from operator import mul

from .errors import DomainError, FeasibilityError, InternalInconsistencyError
from .simplex import LaplacianSimplex

DEFAULT_FPP_CAP = 10**7
DEFAULT_SCAN_CAP = 10**8

# the general methods that ``hstar`` can be told to use instead of a closed form
STRATEGIES = ("generic_snf", "dilate_interpolation")


@dataclass(frozen=True)
class HStarVector:
    """Ehrhart series numerator coefficients, with provenance."""

    entries: tuple
    strategy: str

    def __post_init__(self):
        entries = tuple(int(x) for x in self.entries)
        object.__setattr__(self, "entries", entries)
        # only a bug makes either: every h* starts with 1 and is nonnegative
        if not entries or entries[0] != 1:
            raise InternalInconsistencyError("h*-vector must start with 1")
        if any(x < 0 for x in entries):
            raise InternalInconsistencyError("h*-vector entries must be nonnegative")

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
    """The n*kappa fundamental parallelepiped points by height, ``S.fpp_levels``.

    levels[h] holds the group elements r of the points at height h, each
    packed into one int by ``S.packing``; the point itself is r M / q.
    This is the only size cap on the walk: it is checked before anything is
    walked, for the h* histogram and the IDP decision alike.  The walk itself
    runs once per simplex and is checked where ``S.fpp_levels`` builds it.
    """
    if cap < 0:
        raise DomainError(f"parallelepiped cap must be >= 0, got {cap}")
    vol = S.n * S.kappa
    if vol > cap:
        raise FeasibilityError(
            f"fundamental parallelepiped has {vol} points, cap is {cap}",
            required=vol,
        )
    return S.fpp_levels


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
    """Compute the h*-vector, auto-selecting a closed form when one applies.

    ``strategy`` forces one of the general methods in ``STRATEGIES``
    instead: the walk (``generic_snf``) or the dilate oracle.
    """
    G = S.graph
    if strategy is None and G.is_tree:
        h = HStarVector((1,) * S.n, "tree_closed_form")
    elif strategy is None and G.is_cycle and G.n % 2 == 1:
        h = hstar_cycle_closed_form(G.n)
    elif strategy is None and G.is_complete:
        h = hstar_complete(G.n)
    elif strategy in (None, "generic_snf"):
        h = HStarVector(tuple(map(len, fpp_points(S, cap=cap))), "generic_snf")
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


# -- exact dilate-point count (oracle path) ----------------------------------


def _normalize_ineq(coeffs, rhs):
    """Tighten c.x <= r over the integers; None means trivially true.

    Every dilate tS holds the lattice point t v_0, and every inequality
    derived from the facets holds there, so 0 <= rhs < 0 is a bug.
    """
    g = gcd(*coeffs)
    if g == 0:
        if rhs < 0:
            raise InternalInconsistencyError(f"dilate scan met the empty inequality 0 <= {rhs}")
        return None
    return (tuple(c // g for c in coeffs), rhs // g)


def _fm_eliminate(ineqs, k):
    """Fourier-Motzkin elimination of the last variable, the k-th one eliminated.

    Each inequality is (coeffs, rhs, mask), where the mask holds the facets
    whose nonnegative combination gives its coefficients.  Chernikov's rule
    ("The convolution of finite systems of linear inequalities", 1965) drops
    every combination of more than k + 1 facets, after ``_normalize_ineq``
    has checked it.  The multipliers lambda >= 0 that cancel k variables
    form a pointed cone whose extreme rays have at most k + 1 nonzero
    entries, and Chernikov showed that the rule keeps an inequality for
    each of them; so over the reals every dropped inequality is implied by
    the kept ones.  Rounding a right-hand side down over the integers
    (``_normalize_ineq``) only tightens a kept inequality, and each one
    still holds at every lattice point of the dilate.  So every system is a
    valid relaxation of the projected lattice points, and it stays bounded,
    since boundedness depends on the coefficients alone.  A count can never
    depend on the rule: a system that lost a bound makes
    ``count_dilate_points`` raise.  Of the inequalities with equal
    coefficients and equal masks only the smallest right-hand side is kept.
    """
    pos, neg, out = [], [], {}

    def keep(c, r, mask):
        norm = _normalize_ineq(c, r)
        if norm is None or mask.bit_count() > k + 1:
            return
        key = (norm[0], mask)
        out[key] = min(norm[1], out.get(key, norm[1]))

    for c, r, mask in ineqs:
        if c[-1] > 0:
            pos.append((c, r, mask))
        elif c[-1] < 0:
            neg.append((c, r, mask))
        else:
            keep(c[:-1], r, mask)
    for cp, rp, mp in pos:
        for cn, rn, mn in neg:
            a, b = cp[-1], -cn[-1]
            c = tuple(b * x + a * y for x, y in zip(cp[:-1], cn[:-1]))
            keep(c, b * rp + a * rn, mp | mn)
    return [(c, r, mask) for (c, mask), r in out.items()]


def _scan_order(S: LaplacianSimplex):
    """The coordinates by the width of the vertices' range, narrowest first.

    A permutation of the coordinates is unimodular, so it keeps every count.
    """
    cols = list(zip(*S.vertex_matrix))
    return sorted(range(S.dim), key=lambda j: max(cols[j]) - min(cols[j]))


def _fm_systems(S: LaplacianSimplex, t: int):
    """The Fourier-Motzkin systems of the t-th dilate in ``_scan_order``.

    systems[k] has k eliminations behind it and bounds the first d - k
    coordinates; systems[0] is the facet description a_i . x <= t * c_i,
    with facet i as mask bit i.
    """
    order = _scan_order(S)
    system = []
    for i, f in enumerate(S.facet_list):
        norm = _normalize_ineq([f.normal[j] for j in order], t * f.local_index)
        if norm:
            system.append((*norm, 1 << i))
    systems = [system]
    for k in range(1, S.dim):
        systems.append(_fm_eliminate(systems[-1], k))
    return systems


def count_dilate_points(S: LaplacianSimplex, t: int, cap: int = DEFAULT_SCAN_CAP) -> int:
    """Exact |tS intersect Z^d| from the facets alone; independent oracle.

    Never reads the parallelepiped walk: the bounds come from ``_fm_systems``,
    with the coordinates in ``_scan_order``.  A depth-first recursion fixes
    the coordinates left to right, coordinate j within
    ceil(s / a) <= x_j <= floor(s / a), s = r - c . prefix, for each
    inequality of the system that bounds it, and returns the number of
    points with the current prefix.  When a coordinate's range opens, the
    fixed part of the prefix is folded into each s of the next coordinate,
    so a candidate costs one product per inequality.  These bounds are
    valid but need not be tight, so a prefix may have no point; the last
    coordinate is bounded by the full facet system, which decides exactly,
    and its range is counted at once.  Each candidate of an earlier
    coordinate counts 1 towards ``cap``, and each range of the last
    coordinate its length.  The recursion is d = n - 1 frames deep, under
    Python's default limit up to ``graph.MAX_N``.
    """
    if t < 0:
        raise DomainError("dilate factor must be nonnegative")
    if cap < 0:
        raise DomainError(f"dilate scan cap must be >= 0, got {cap}")
    systems = _fm_systems(S, t)
    # the inequalities that bound x_j from below and from above, as
    # (coefficients of x_0..x_{j-2}, coefficient of x_{j-1}, r, |c_j|);
    # x_0 has no prefix, and only r and |c_0| are read for it
    lowers, uppers = [], []
    for j, ineqs in enumerate(reversed(systems)):
        lowers.append([(c[: j - 1], c[j - 1], r, -c[j]) for c, r, _ in ineqs if c[j] < 0])
        uppers.append([(c[: j - 1], c[j - 1], r, c[j]) for c, r, _ in ineqs if c[j] > 0])
        if not lowers[j] or not uppers[j]:
            raise InternalInconsistencyError("dilate scan region is unbounded")
    last = S.dim - 1
    prefix = [0] * last
    visited = 0

    def count(j, lo, hi):
        """The points with coordinates 0..j - 1 from the prefix and lo <= x_j <= hi."""
        nonlocal visited
        if lo > hi:
            return 0
        visited += hi - lo + 1
        if visited > cap:
            raise FeasibilityError(
                f"dilate scan exceeded cap of {cap} candidates", required=visited
            )
        if j == last:
            return hi - lo + 1
        folded_lo = [(r - sum(map(mul, c, prefix)), b, a) for c, b, r, a in lowers[j + 1]]
        folded_hi = [(r - sum(map(mul, c, prefix)), b, a) for c, b, r, a in uppers[j + 1]]
        total = 0
        for x in range(lo, hi + 1):
            prefix[j] = x
            total += count(
                j + 1,
                max([-((s - b * x) // a) for s, b, a in folded_lo]),
                min([(s - b * x) // a for s, b, a in folded_hi]),
            )
        return total

    return count(
        0, max(-(r // a) for *_, r, a in lowers[0]), min(r // a for *_, r, a in uppers[0])
    )
