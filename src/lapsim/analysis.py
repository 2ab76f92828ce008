"""Property analyses: unimodality, symmetry, IDP, and the paper's claims."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb, gcd

from .errors import DomainError, FeasibilityError, InternalInconsistencyError
from . import ehrhart, simplex as splx
from .graph import (
    Graph,
    attach_path,
    attach_tree,
    bridge,
    family,
    leaf_move,
    random_connected_graph,
    whisker,
)
from .ehrhart import HStarVector

DEFAULT_SWEEP_SEED = 20170621


@dataclass(frozen=True)
class PropertyReport:
    """Everything the CLI reports about one graph."""

    graph: Graph
    n: int
    kappa: int
    volume: int
    hstar: HStarVector | None
    reflexive: bool
    ell: int | None
    symmetric: bool | None
    unimodal: bool | None
    idp: bool | None
    notes: tuple = ()

    def to_dict(self):
        return {
            "graph": {"n": self.n, "edges": [list(e) for e in self.graph.sorted_edges()]},
            "kappa": self.kappa,
            "volume": self.volume,
            "hstar": None if self.hstar is None else list(self.hstar.entries),
            "strategy": None if self.hstar is None else self.hstar.strategy,
            "reflexive": self.reflexive,
            "ell": self.ell,
            "symmetric": self.symmetric,
            "unimodal": self.unimodal,
            "idp": self.idp,
            "notes": list(self.notes),
        }


def is_unimodal(h) -> bool:
    """True iff the entries weakly rise and then weakly fall."""
    entries = tuple(h)
    peak = entries.index(max(entries))
    return all(entries[i] <= entries[i + 1] for i in range(peak)) and all(
        entries[i] >= entries[i + 1] for i in range(peak, len(entries) - 1)
    )


def is_symmetric(h) -> bool:
    entries = tuple(h)
    return entries == entries[::-1]


def is_idp(S: splx.LaplacianSimplex, cap: int = ehrhart.DEFAULT_FPP_CAP) -> bool:
    """Decide the integer decomposition property on the parallelepiped group.

    Every lattice point of the cone over S is a parallelepiped point plus a
    nonnegative integer combination of the lifted vertices, so S is IDP iff
    every parallelepiped point p at height h >= 2 is a sum of h lattice
    points of S at height 1.  Write p by its group element r, so that
    p = r M / q with 0 <= r < q.  The scaled barycentric coordinates of the
    summands are nonnegative and add up to r, so each is at most r < q
    entrywise.  A vertex, whose scaled coordinates are q e_i, is therefore
    never a summand: the summands are height-1 parallelepiped points, and
    p decomposes iff some height-1 element g has g <= r componentwise and
    the element r - g, at height h - 1, decomposes (the group view of
    Braun-Davis-Solus, "Detecting the integer decomposition property and
    Ehrhart unimodality in reflexive simplices", 2018).

    The heights are checked in ascending order and the check stops at the
    first point that fails.  By then every element at height h - 1 has been
    shown to decompose, and r - g with g <= r is such an element (it lies in
    [0, q)^n and in the group), so the test at height h is only whether some
    height-1 g lies below r.  The walk stores each r by height, packed into
    one int by ``S.packing``, whose fields have a guard bit above q: then
    d = (r | guard) - g borrows only inside each field, and d & guard == guard
    exactly when g <= r componentwise.  So the test is one big-int
    subtraction per candidate, on the walk's own ints: the candidates are
    levels[1], and the points to test are levels[2:].

    ``cap`` is the parallelepiped cap of ``ehrhart.fpp_points``, which raises
    ``FeasibilityError`` before anything is walked; the walk is checked
    where it is built, in ``LaplacianSimplex.fpp_levels``.
    """
    levels = ehrhart.fpp_points(S, cap=cap)
    packing = S.packing
    guard = packing.guard
    # a generator with a small largest coordinate lies below more elements,
    # so trying those first finds a witness sooner (K7: 38 to 29 tries each)
    gens = sorted(levels[1], key=lambda g: max(packing.unpack(g)))
    for level in levels[2:]:
        for r in level:
            r |= guard
            for g in gens:
                if (r - g) & guard == guard:
                    break
            else:
                return False
    return True


def bridge_division_condition(G: Graph) -> bool:
    """kappa divides n * det(L_B(i, n | j)) for all i, j in [n-1].

    L_B(i, n | j) is B = L_B without row n, with row i and column j deleted,
    so its determinant is, up to sign, entry (j, i) of adj(B): all of them
    come from the one checked adjugate that the cofactor reflexivity test
    reads, with |det B| = kappa checked.  This is the n A half of that test.
    """
    S = splx.build(G)
    kappa, n = S.kappa, S.n
    adj = splx._checked_last_minor_adjugate(S)
    return not any(n * x % kappa for row in adj for x in row)


def verify_prime_cycle_formula(n: int) -> bool:
    """Check the computed odd-cycle h* against the prime-factorization shape."""
    if n < 3 or n % 2 == 0:
        raise DomainError("odd n >= 3 required")
    h = ehrhart.hstar_cycle_closed_form(n).entries
    # the largest proper divisor of n: n is odd, so its least prime factor is
    # its least divisor >= 3
    divisor = n // next(d for d in range(3, n + 1, 2) if n % d == 0)
    m = (n - divisor) // 2
    if list(h[:m]) != [1] * m or list(h[n - m :]) != [1] * m:
        return False
    if h[m] <= 1 or h[m] != h[n - m - 1]:
        return False
    totient = sum(1 for k in range(1, n) if gcd(k, n) == 1)
    if h[(n - 1) // 2] < n * totient + 1:
        return False
    if divisor == 1:  # n prime: exact shape
        expected = [1] * n
        expected[(n - 1) // 2] = n * n - n + 1
        if list(h) != expected:
            return False
    return True


def analyze(G: Graph, strategy=None, fpp_cap: int = ehrhart.DEFAULT_FPP_CAP) -> PropertyReport:
    """Full property report for one graph, with cross-checks.

    ``fpp_cap`` bounds the one parallelepiped walk, so it bounds both the
    generic h* and the IDP decision; a field whose walk is over the cap is
    None, with a note.  ``hstar`` checks that h* sums to the volume, and
    ``S.fpp_levels`` runs the walk's own checks.
    """
    S = splx.build(G)
    notes = []
    try:
        h = ehrhart.hstar(S, strategy=strategy, cap=fpp_cap)
    except FeasibilityError as exc:
        h = None
        notes.append(f"hstar skipped: {exc}")
    reflexive = splx.is_reflexive(S)
    ell = splx.ell_reflexive_index(S)
    symmetric = None if h is None else is_symmetric(h)
    if h is not None and symmetric != reflexive:
        raise InternalInconsistencyError("h* symmetry disagrees with dual-vertex reflexivity")
    try:
        idp = is_idp(S, cap=fpp_cap)
    except FeasibilityError as exc:
        idp = None
        notes.append(f"idp skipped: {exc}")
    return PropertyReport(
        graph=G,
        n=G.n,
        kappa=S.kappa,
        volume=S.volume,
        hstar=h,
        reflexive=reflexive,
        ell=ell,
        symmetric=symmetric,
        unimodal=None if h is None else is_unimodal(h),
        idp=idp,
        notes=tuple(notes),
    )


# -- the paper's claims -----------------------------------------------------

PAPER_CLAIMS = {}


def _claim(name):
    """Add a check, which returns passed or ``(passed, detail)``, to ``PAPER_CLAIMS``."""

    def register(fn):
        PAPER_CLAIMS[name] = fn
        return fn

    return register


def check_claim(name):
    """Run one claim as ``(passed, detail)``; a crash is a failure, not an abort."""
    check = PAPER_CLAIMS[name]
    try:
        result = check()
    except Exception as exc:
        return False, f"error: {exc!r}"
    passed, detail = result if isinstance(result, tuple) else (result, "")
    return bool(passed), detail


def paper_regression(only=None):
    """Re-verify every concrete result at desk scale, as ``[(name, passed, detail)]``.

    ``only`` optionally filters claim names by substring.  The random cases
    are seeded from ``DEFAULT_SWEEP_SEED``.
    """
    return [(name, *check_claim(name)) for name in PAPER_CLAIMS if not only or only in name]


@_claim("cycles/C5-hstar-both-paths")
def _():
    S = splx.build(family("cycle", 5))
    gen = ehrhart.hstar(S, strategy="generic_snf").entries
    closed = ehrhart.hstar_cycle_closed_form(5).entries
    return gen == closed == (1, 1, 21, 1, 1)


@_claim("cycles/reflexive-iff-odd")
def _():
    got = {n: splx.is_reflexive(splx.build(family("cycle", n))) for n in range(3, 10)}
    return all(got[n] == (n % 2 == 1) for n in got), str(got)


@_claim("cycles/even-are-2-reflexive")
def _():
    return all(
        splx.ell_reflexive_index(splx.build(family("cycle", 2 * k))) == 2
        for k in (2, 3, 4)
    )


@_claim("cycles/prime-formula")
def _():
    return all(verify_prime_cycle_formula(n) for n in (3, 5, 7, 11, 9, 15))


@_claim("cycles/C9-composite")
def _():
    closed = ehrhart.hstar_cycle_closed_form(9).entries
    gen = ehrhart.hstar(splx.build(family("cycle", 9)), strategy="generic_snf")
    return closed == gen.entries == (1, 1, 1, 7, 61, 7, 1, 1, 1)


@_claim("cycles/odd-unimodal")
def _():
    return all(
        is_unimodal(ehrhart.hstar_cycle_closed_form(n)) for n in (3, 5, 7, 9, 11)
    )


@_claim("cycles/odd-not-idp")
def _():
    return all(not is_idp(splx.build(family("cycle", n))) for n in range(5, 16, 2))


@_claim("cycles/C3-idp-note")
def _():
    # C_3 = K_3: the complete-graph result wins; the checker says IDP
    return is_idp(splx.build(family("cycle", 3))), "C3 equals K3, checker says IDP"


@_claim("cycles/dual-vertices")
def _():
    d3 = {f.dual_vertex for f in splx.facets(splx.build(family("cycle", 3)))}
    d5 = {f.dual_vertex for f in splx.facets(splx.build(family("cycle", 5)))}
    d4 = {f.dual_vertex for f in splx.facets(splx.build(family("cycle", 4)))}
    ok3 = d3 == {(F(-1), F(0)), (F(1), F(-1)), (F(0), F(1))}
    ok5 = (F(-2), F(-1), F(0), F(1)) in d5
    ok4 = (F(-3, 2), F(-1, 2), F(1, 2)) in d4
    return ok3 and ok5 and ok4


@_claim("cycles/whiskered-even-reflexive")
def _():
    return all(
        splx.is_reflexive(splx.build(whisker(family("cycle", n)))) for n in range(4, 13, 2)
    )


@_claim("trees/hstar-all-ones")
def _():
    rng = random.Random(DEFAULT_SWEEP_SEED)
    for _ in range(20):
        n = rng.randint(2, 8)
        G = family("random_tree", n, seed=rng.randrange(2**30))
        S = splx.build(G)
        h = ehrhart.hstar(S, strategy="generic_snf").entries
        ones = h == ehrhart.hstar(S).entries == (1,) * n and is_unimodal(h)
        if not ones or S.volume != n or not splx.is_reflexive(S):
            return False, f"failed on {G!r}"
    return True


@_claim("complete/reflexive")
def _():
    return all(splx.is_reflexive(splx.build(family("complete", n))) for n in range(2, 7))


@_claim("complete/hstar")
def _():
    return all(
        ehrhart.hstar_complete(n).entries
        == ehrhart.hstar(splx.build(family("complete", n)), strategy="generic_snf").entries
        == h
        for n, h in ((3, (1, 7, 1)), (4, (1, 31, 31, 1)))
    )


@_claim("complete/ehrhart-polynomial")
def _():
    for n in range(2, 6):
        h = ehrhart.hstar_complete(n)
        for t in range(5):
            if ehrhart.ehrhart_eval(h, t) != comb(t * n + n - 1, n - 1):
                return False, f"n={n}, t={t}"
    return True


@_claim("complete/idp")
def _():
    return all(is_idp(splx.build(family("complete", n))) for n in (3, 4, 5, 6))


@_claim("complete/unimodal")
def _():
    return all(is_unimodal(ehrhart.hstar_complete(n)) for n in range(2, 7))


@_claim("bridge/reflexive-instances")
def _():
    for a, b in ((3, 3), (5, 5)):
        G = bridge(family("cycle", a), family("complete", b), 1, 1)
        if not splx.is_reflexive(splx.build(G)):
            return False
    return True


@_claim("bridge/division-condition")
def _():
    ok = all(bridge_division_condition(family("cycle", n)) for n in (3, 5, 7))
    ok = ok and all(bridge_division_condition(family("complete", n)) for n in (3, 4, 5))
    return ok and bridge_division_condition(family("path", 3))


@_claim("operations/leaf-move-matches-bridge")
def _():
    # C3 and K3 wedged at 1, leaf 6
    wedge = Graph(6, [(1, 2), (2, 3), (1, 3), (1, 4), (1, 5), (4, 5), (1, 6)])
    moved = leaf_move(wedge, A={1, 2, 3, 6}, x=1, y=6)
    bridged = bridge(family("cycle", 3), family("complete", 3), 1, 1)
    hm = ehrhart.hstar(splx.build(moved), strategy="generic_snf")
    hb = ehrhart.hstar(splx.build(bridged), strategy="generic_snf")
    return hm.entries == hb.entries and splx.build(moved).volume == splx.build(bridged).volume


@_claim("operations/attach-tree-matches-path")
def _():
    # attaching any tree on k new vertices gives the same data as a k-vertex path
    base = family("cycle", 5)
    via_path = splx.build(attach_path(base, 2, 3))
    via_star = splx.build(attach_tree(base, 2, family("star", 4)))
    hp = ehrhart.hstar(via_path, strategy="generic_snf")
    hs = ehrhart.hstar(via_star, strategy="generic_snf")
    return hp.entries == hs.entries and via_path.volume == via_star.volume


@_claim("sweep/hibi-and-consistency")
def _():
    for k in range(25):
        G = random_connected_graph(3 + k % 4, seed=DEFAULT_SWEEP_SEED + k)
        S = splx.build(G)
        h = ehrhart.hstar(S, strategy="generic_snf")
        if h.total != S.volume or S.volume != G.n * S.kappa:
            return False, f"volume mismatch on {G!r}"
        if ehrhart.hstar(S, strategy="dilate_interpolation").entries != h.entries:
            return False, f"dilate oracle disagrees on {G!r}"
        refl = splx.is_reflexive(S)
        if is_symmetric(h) != refl:
            return False, f"Hibi violated on {G!r}"
        if splx.cofactor_reflexivity_test(S) != refl:
            return False, f"cofactor criterion disagrees on {G!r}"
    return True
