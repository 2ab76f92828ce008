"""Property analyses: unimodality, symmetry, IDP, and the regression suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import DomainError, FeasibilityError, InternalInconsistencyError
from . import ehrhart, linalg, simplex as splx
from .graph import (
    Graph,
    bridge,
    family,
    leaf_move,
    random_connected_graph,
    spanning_tree_count,
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


def guard_packing(q: int, n: int):
    """(pack, guard) for n-vectors with entries in [0, q), one int per vector.

    Each entry gets a field of q.bit_length() + 1 bits, and ``guard`` holds
    the top bit of every field.  For packed r and g, d = (r | guard) - g
    borrows only inside each field, so d & guard == guard exactly when
    g <= r componentwise, and then d ^ guard is the packed r - g.
    """
    width = q.bit_length() + 1
    guard = sum(1 << (width * i + width - 1) for i in range(n))

    def pack(r):
        return sum(x << (width * i) for i, x in enumerate(r))

    return pack, guard


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
    height-1 g lies below r.  Each r is packed into one int (see
    ``guard_packing``), which makes that test one big-int subtraction.

    ``cap`` is the parallelepiped cap of ``ehrhart.fpp_points``, which raises
    ``FeasibilityError`` before anything is walked; the walk is checked
    where it is built, in ``LaplacianSimplex.fpp_list``.
    """
    pack, guard = guard_packing(S.volume, S.n)
    by_height = [[] for _ in range(S.n)]
    for p in ehrhart.fpp_points(S, cap=cap):
        by_height[p.height].append(pack(p.r))
    gens = by_height[1]
    for level in by_height[2:]:
        for r in level:
            r |= guard
            if not any((r - g) & guard == guard for g in gens):
                return False
    return True


def bridge_division_condition(G: Graph) -> bool:
    """kappa divides n * det(L_B(i, n | j)) for all i, j in [n-1]."""
    S = splx.build(G)
    kappa, n = S.kappa, S.n
    for i in range(n - 1):
        for j in range(n - 1):
            m = linalg.minor(S.vertex_matrix, [i, n - 1], [j])
            if (n * m) % kappa:
                return False
    return True


def verify_prime_cycle_formula(n: int) -> bool:
    """Check the computed odd-cycle h* against the prime-factorization shape."""
    if n < 3 or n % 2 == 0:
        raise DomainError("odd n >= 3 required")
    h = ehrhart.hstar_cycle_closed_form(n).entries
    fac = _factorize(n)
    divisor = n // min(fac)  # largest proper divisor of n
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


def _factorize(n):
    fac = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def analyze(G: Graph, strategy=None, fpp_cap: int = ehrhart.DEFAULT_FPP_CAP) -> PropertyReport:
    """Full property report for one graph, with cross-checks.

    ``fpp_cap`` bounds the one parallelepiped walk, so it bounds both the
    generic h* and the IDP decision; a field whose walk is over the cap is
    None, with a note.  ``hstar`` checks that h* sums to the volume, and
    ``S.fpp_list`` runs the walk's own checks.
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


# -- regression suite --------------------------------------------------------


@dataclass
class RegressionCase:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RegressionReport:
    cases: list = field(default_factory=list)
    seed: int = DEFAULT_SWEEP_SEED

    def add(self, name, passed, detail=""):
        self.cases.append(RegressionCase(name, bool(passed), detail))

    @property
    def failures(self):
        return [c for c in self.cases if not c.passed]

    @property
    def ok(self):
        return not self.failures


def _check(report, name, fn):
    try:
        result = fn()
        if isinstance(result, tuple):
            passed, detail = result
        else:
            passed, detail = result, ""
        report.add(name, passed, detail)
    except Exception as exc:  # a crash is a failure, not an abort
        report.add(name, False, f"error: {exc!r}")


def paper_regression(only=None, seed: int = DEFAULT_SWEEP_SEED) -> RegressionReport:
    """Re-verify every concrete result at desk scale.

    ``only`` optionally filters case names by substring.
    """
    report = RegressionReport(seed=seed)
    checks = []

    def case(name):
        def wrap(fn):
            checks.append((name, fn))
            return fn

        return wrap

    @case("cycles/C5-hstar-both-paths")
    def _():
        S = splx.build(family("cycle", 5))
        gen = ehrhart.hstar(S, strategy="generic_snf").entries
        closed = ehrhart.hstar_cycle_closed_form(5).entries
        return gen == closed == (1, 1, 21, 1, 1)

    @case("cycles/reflexive-iff-odd")
    def _():
        got = {n: splx.is_reflexive(splx.build(family("cycle", n))) for n in range(3, 10)}
        return all(got[n] == (n % 2 == 1) for n in got), str(got)

    @case("cycles/even-are-2-reflexive")
    def _():
        return all(
            splx.ell_reflexive_index(splx.build(family("cycle", 2 * k))) == 2
            for k in (2, 3, 4)
        )

    @case("cycles/prime-formula")
    def _():
        return all(verify_prime_cycle_formula(n) for n in (3, 5, 7, 11, 9, 15))

    @case("cycles/C9-composite")
    def _():
        closed = ehrhart.hstar_cycle_closed_form(9).entries
        gen = ehrhart.hstar(splx.build(family("cycle", 9)), strategy="generic_snf")
        return closed == gen.entries == (1, 1, 1, 7, 61, 7, 1, 1, 1)

    @case("cycles/odd-unimodal")
    def _():
        return all(
            is_unimodal(ehrhart.hstar_cycle_closed_form(n)) for n in (3, 5, 7, 9, 11)
        )

    @case("cycles/odd-not-idp")
    def _():
        return all(not is_idp(splx.build(family("cycle", n))) for n in range(5, 16, 2))

    @case("cycles/C3-idp-note")
    def _():
        # C_3 = K_3: the complete-graph result wins; the checker says IDP
        return is_idp(splx.build(family("cycle", 3))), "C3 equals K3, checker says IDP"

    @case("cycles/dual-vertices")
    def _():
        from fractions import Fraction as F

        d3 = {f.dual_vertex for f in splx.facets(splx.build(family("cycle", 3)))}
        d5 = {f.dual_vertex for f in splx.facets(splx.build(family("cycle", 5)))}
        d4 = {f.dual_vertex for f in splx.facets(splx.build(family("cycle", 4)))}
        ok3 = d3 == {(F(-1), F(0)), (F(1), F(-1)), (F(0), F(1))}
        ok5 = (F(-2), F(-1), F(0), F(1)) in d5
        ok4 = (F(-3, 2), F(-1, 2), F(1, 2)) in d4
        return ok3 and ok5 and ok4

    @case("cycles/whiskered-even-reflexive")
    def _():
        return all(
            splx.is_reflexive(splx.build(whisker(family("cycle", n)))) for n in range(4, 13, 2)
        )

    @case("trees/hstar-all-ones")
    def _():
        import random

        rng = random.Random(seed)
        for _ in range(20):
            n = rng.randint(2, 8)
            G = family("random_tree", n, seed=rng.randrange(2**30))
            S = splx.build(G)
            h = ehrhart.hstar(S, strategy="generic_snf")
            if h.entries != (1,) * n or S.volume != n or not splx.is_reflexive(S):
                return False, f"failed on {G!r}"
        return True

    @case("complete/reflexive")
    def _():
        return all(splx.is_reflexive(splx.build(family("complete", n))) for n in range(2, 7))

    @case("complete/hstar")
    def _():
        k3 = ehrhart.hstar_complete(3).entries == (1, 7, 1)
        k4 = ehrhart.hstar_complete(4).entries == (1, 31, 31, 1)
        gen = ehrhart.hstar(splx.build(family("complete", 4)), strategy="generic_snf")
        return k3 and k4 and gen.entries == (1, 31, 31, 1)

    @case("complete/ehrhart-polynomial")
    def _():
        from math import comb

        for n in range(2, 6):
            h = ehrhart.hstar_complete(n)
            for t in range(5):
                if ehrhart.ehrhart_eval(h, t) != comb(t * n + n - 1, n - 1):
                    return False, f"n={n}, t={t}"
        return True

    @case("complete/idp")
    def _():
        return all(is_idp(splx.build(family("complete", n))) for n in (3, 4, 5, 6))

    @case("complete/unimodal")
    def _():
        return all(is_unimodal(ehrhart.hstar_complete(n)) for n in range(2, 7))

    @case("bridge/reflexive-instances")
    def _():
        for a, b in ((3, 3), (5, 5)):
            G = bridge(family("cycle", a), family("complete", b), 1, 1)
            if not splx.is_reflexive(splx.build(G)):
                return False
        return True

    @case("bridge/division-condition")
    def _():
        ok = all(bridge_division_condition(family("cycle", n)) for n in (3, 5, 7))
        ok = ok and all(bridge_division_condition(family("complete", n)) for n in (3, 4, 5))
        return ok and bridge_division_condition(family("path", 3))

    @case("operations/leaf-move-matches-bridge")
    def _():
        wedge = Graph(
            6, [(1, 2), (2, 3), (1, 3), (1, 4), (1, 5), (4, 5), (1, 6)]
        )  # C3 and K3 wedged at 1, leaf 6
        moved = leaf_move(wedge, A={1, 2, 3, 6}, x=1, y=6)
        bridged = bridge(family("cycle", 3), family("complete", 3), 1, 1)
        hm = ehrhart.hstar(splx.build(moved), strategy="generic_snf")
        hb = ehrhart.hstar(splx.build(bridged), strategy="generic_snf")
        return hm.entries == hb.entries and splx.build(moved).volume == splx.build(bridged).volume

    @case("sweep/hibi-and-consistency")
    def _():
        for k in range(25):
            G = random_connected_graph(3 + k % 4, seed=seed + k)
            S = splx.build(G)
            h = ehrhart.hstar(S, strategy="generic_snf")
            if h.total != S.volume or S.volume != G.n * S.kappa:
                return False, f"volume mismatch on {G!r}"
            refl = splx.is_reflexive(S)
            if is_symmetric(h) != refl:
                return False, f"Hibi violated on {G!r}"
            if splx.cofactor_reflexivity_test(S) != refl:
                return False, f"cofactor criterion disagrees on {G!r}"
        return True

    for name, fn in checks:
        if only and only not in name:
            continue
        _check(report, name, fn)
    return report
