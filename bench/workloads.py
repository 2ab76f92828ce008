"""Seeded inputs, the timed call and an independent answer check per workload.

A workload is a list of rounds; a round is a list of cases with a fixed
composition, so every run sees the same mix of input sizes whatever the
seed.  The benchmark measures whole rounds.  Inputs are generated here, not
by ``lapsim``, so a change to the package cannot change what is measured.

Every check uses a method other than the timed code path: the spanning-tree
count comes from the benchmark's own Kirchhoff determinant, the complete-graph
h* from its Ehrhart polynomial, and the odd-cycle h* from the generic
parallelepiped walk (the timed path takes the closed form).
"""

from __future__ import annotations

import heapq
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, NamedTuple


@dataclass(frozen=True)
class Case:
    kind: str
    run: Callable[[], Any]  # the timed call into lapsim
    check: Callable[[Any], "str | None"]  # None when the answer is right


# -- input generation ---------------------------------------------------------


def tree_edges(n, rng):
    """Uniform random labeled tree on 1..n by Pruefer decoding."""
    if n == 2:
        return [(1, 2)]
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [0] + [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_edges(n, extra, rng):
    """A random spanning tree plus ``extra`` distinct random non-tree edges."""
    edges = {(min(u, v), max(u, v)) for u, v in tree_edges(n, rng)}
    missing = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges
    ]
    edges.update(rng.sample(missing, extra))
    return sorted(edges)


def cycle_edges(n):
    return sorted([(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_edges(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


# -- independent answers --------------------------------------------------------


def kappa(n, edges):
    """Spanning-tree count by Kirchhoff's theorem, eliminated here (Bareiss)."""
    m = n - 1
    a = [[0] * m for _ in range(m)]  # the Laplacian without its last row and column
    for u, v in edges:
        for x in (u, v):
            if x < n:
                a[x - 1][x - 1] += 1
        if u < n and v < n:
            a[u - 1][v - 1] -= 1
            a[v - 1][u - 1] -= 1
    sign, prev = 1, 1
    for k in range(m):
        p = next((i for i in range(k, m) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def complete_hstar(n):
    """h* of K_n from its Ehrhart polynomial L(t) = C(tn + n - 1, n - 1)."""
    L = [comb(t * n + n - 1, n - 1) for t in range(n)]
    return [sum((-1) ** j * comb(n, j) * L[i - j] for j in range(i + 1)) for i in range(n)]


def check_report(d, n, edges, expected=None):
    """Check a report dictionary (``PropertyReport.to_dict`` or CLI JSON)."""
    k = kappa(n, edges)
    h = d["hstar"]
    if d["graph"] != {"n": n, "edges": [list(e) for e in edges]}:
        return "report describes another graph"
    if d["kappa"] != k or d["volume"] != n * k:
        return f"kappa/volume {d['kappa']}/{d['volume']}, expected {k}/{n * k}"
    if h is None or len(h) != n or sum(h) != n * k:
        return f"h* {h} does not sum to n*kappa = {n * k}"
    symmetric = h == h[::-1]
    if d["symmetric"] != symmetric or d["reflexive"] != symmetric:
        return f"Hibi: symmetric={symmetric} but reflexive={d['reflexive']}"
    if len(edges) == n - 1 and (h != [1] * n or d["idp"] is not True):
        return f"tree: h*={h}, idp={d['idp']}"
    if expected is not None and h != list(expected):
        return f"closed form: h*={h}, expected {list(expected)}"
    return None


# -- dense_small: analyze() on small graphs of large volume ---------------------

DENSE_STRATA = [(n, extra) for n in (5, 6, 7) for extra in range(2, 7)]
DENSE_CLOSED = [(5, "complete"), (6, "complete"), (9, "cycle"), (11, "cycle"), (13, "cycle")]


def analyze_case(lap, n, edges, expected=None):
    G = lap.Graph(n, edges)
    return Case(
        "analyze",
        lambda: lap.analysis.analyze(G),
        lambda report: check_report(report.to_dict(), n, edges, expected),
    )


def dense_small(lap, seed, workdir, nrounds):
    rng = random.Random(f"dense_small-{seed}")
    closed = []
    for n, kind in DENSE_CLOSED:
        if kind == "complete":
            edges, expected = complete_edges(n), complete_hstar(n)
        else:
            edges = cycle_edges(n)
            S = lap.simplex.build(lap.Graph(n, edges))
            expected = lap.ehrhart.hstar(S, strategy="generic_snf").entries
        closed.append(analyze_case(lap, n, edges, expected))
    rounds = []
    for r in range(nrounds):
        cases = [analyze_case(lap, n, random_edges(n, x, rng)) for n, x in DENSE_STRATA]
        cases.append(closed[r % len(closed)])
        rng.shuffle(cases)
        rounds.append(cases)
    return rounds


def dense_warmup(lap, workdir):
    return [analyze_case(lap, 4, random_edges(4, 1, random.Random(0))), analyze_case(lap, 5, cycle_edges(5))]


# -- sparse_large: the CLI on edge-list files of trees and unicyclic graphs -----

# 20 vertices, one 7-cycle, volume 140: smith_normal_form runs for minutes on it.
SNF_HANG_EDGES = sorted(
    tuple(int(x) for x in e.split("-"))
    for e in (
        "1-10 2-9 2-13 3-5 3-14 4-12 4-19 5-10 5-13 6-14 7-18 8-16 9-19 "
        "11-18 11-19 13-17 13-20 15-17 16-19 17-18"
    ).split()
)


def cli_case(lap, workdir, name, n, edges):
    path = os.path.join(workdir, f"{name}.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))

    def run():
        out = io.StringIO()
        return lap.cli.main(["--edge-list", path, "report"], out=out), out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        return check_report(json.loads(text), n, edges)

    return Case("cli_report", run, check)


def sparse_large(lap, seed, workdir, nrounds):
    rng = random.Random(f"sparse_large-{seed}")
    rounds = []
    for r in range(nrounds):
        cases = []
        for n in range(14, 23):
            extra = (n + r) % 2  # tree or unicyclic, alternating between rounds
            cases.append(cli_case(lap, workdir, f"r{r}n{n}", n, random_edges(n, extra, rng)))
        rng.shuffle(cases)
        rounds.append(cases)
    rounds[0].insert(0, cli_case(lap, workdir, "snf_hang", 20, SNF_HANG_EDGES))
    return rounds


def sparse_warmup(lap, workdir):
    return [cli_case(lap, workdir, "warm", 5, random_edges(5, 1, random.Random(0)))]


# -- oracle_crosscheck: independent methods that must agree ----------------------


def hstar_generic(lap, G):
    S = lap.simplex.build(G)
    return S.volume, lap.ehrhart.hstar(S, strategy="generic_snf").entries


def dilate_case(lap, n, edges):
    """generic_snf against dilate_interpolation, and a closed form if one applies."""
    G = lap.Graph(n, edges)
    independent = None
    if len(edges) == n - 1:
        independent = (1,) * n
    elif edges == complete_edges(n):
        independent = tuple(complete_hstar(n))

    def run():
        S = lap.simplex.build(G)
        hstar = lap.ehrhart.hstar
        generic = hstar(S, strategy="generic_snf").entries
        dilate = hstar(S, strategy="dilate_interpolation").entries
        return S.volume, generic, dilate, hstar(S)

    def check(result):
        volume, generic, dilate, auto = result
        k = kappa(n, edges)
        if volume != n * k or sum(generic) != n * k:
            return f"volume {volume} / h* sum {sum(generic)}, expected {n * k}"
        if generic != dilate:
            return f"generic {generic} != dilate {dilate}"
        if auto.entries != generic:
            return f"{auto.strategy} {auto.entries} != generic {generic}"
        if independent is not None and generic != independent:
            return f"h* {generic}, closed form {independent}"
        return None

    return Case("generic_vs_dilate", run, check)


def cofactor_case(lap, n, edges):
    """Dual-vertex reflexivity against the cofactor divisibility criterion."""
    G = lap.Graph(n, edges)

    def run():
        S = lap.simplex.build(G)
        return S.kappa, lap.simplex.is_reflexive(S), lap.simplex.cofactor_reflexivity_test(S)

    def check(result):
        k, dual, cofactor = result
        if k != kappa(n, edges):
            return f"kappa {k}"
        return None if dual == cofactor else f"is_reflexive={dual}, cofactor test={cofactor}"

    return Case("reflexive_vs_cofactor", run, check)


def whisker_case(lap, n, edges):
    """A whiskered tree is a tree on 2n vertices: volume 2n, h* all ones."""
    T = lap.Graph(n, edges)

    def run():
        W = lap.graph.whisker(T)
        return (W.num_edges,) + hstar_generic(lap, W)

    def check(result):
        num_edges, volume, h = result
        if num_edges != 2 * n - 1 or volume != 2 * n or h != (1,) * (2 * n):
            return f"whisker: {num_edges} edges, volume {volume}, h* {h}"
        return None

    return Case("whisker_tree", run, check)


def bridge_case(lap, m, edges1, edges2, i, i2):
    """bridge(G1, G2, i, i2) against a leaf move of the wedge of G1 and G2 at i.

    The wedge glues vertex i2 of G2 onto vertex i of G1 and hangs a leaf y at
    i; moving G2's edges at i over to y rebuilds the bridged graph.
    """
    G1, G2 = lap.Graph(m, edges1), lap.Graph(m, edges2)
    relabel = {i2: i}
    others = [w for w in range(1, m + 1) if w != i2]
    relabel.update((w, m + 1 + t) for t, w in enumerate(others))
    y = 2 * m
    wedge = lap.Graph(y, edges1 + [(relabel[u], relabel[v]) for u, v in edges2] + [(i, y)])
    side = set(range(1, m + 1)) | {y}
    expected = 2 * m * kappa(m, edges1) * kappa(m, edges2)

    def run():
        bridged = hstar_generic(lap, lap.graph.bridge(G1, G2, i, i2))
        moved = hstar_generic(lap, lap.graph.leaf_move(wedge, side, i, y))
        return bridged, moved

    def check(result):
        bridged, moved = result
        if bridged != moved:
            return f"bridge {bridged} != leaf move {moved}"
        if bridged[0] != expected or sum(bridged[1]) != expected:
            return f"volume {bridged[0]}, expected {expected}"
        return None

    return Case("bridge_vs_leaf_move", run, check)


def attach_case(lap, n, edges, v, k, tree):
    """Attaching any tree on k new vertices at v gives the data of a k-path."""
    G, T = lap.Graph(n, edges), lap.Graph(k + 1, tree)
    expected = (n + k) * kappa(n, edges)

    def run():
        return (
            hstar_generic(lap, lap.graph.attach_tree(G, v, T)),
            hstar_generic(lap, lap.graph.attach_path(G, v, k)),
        )

    def check(result):
        via_tree, via_path = result
        if via_tree != via_path:
            return f"attach_tree {via_tree} != attach_path {via_path}"
        if via_tree[0] != expected or sum(via_tree[1]) != expected:
            return f"volume {via_tree[0]}, expected {expected}"
        return None

    return Case("attach_tree_vs_path", run, check)


def oracle_round(lap, rng):
    # The dilate scan is exponential in n and the cofactor test is O(n^6), so
    # their cases stay at n <= 6 and n <= 11, as the package's own tests do.
    cases = [dilate_case(lap, n, random_edges(n, x, rng)) for n, x in ((4, 2), (5, 1), (6, 1))]
    cases += [
        dilate_case(lap, 6, sorted(tree_edges(6, rng))),
        dilate_case(lap, 5, cycle_edges(5)),
        dilate_case(lap, 4, complete_edges(4)),
    ]
    cases += [cofactor_case(lap, n, random_edges(n, rng.randint(1, 3), rng)) for n in range(7, 12)]
    n = rng.randint(3, 5)
    cases.append(whisker_case(lap, n, sorted(tree_edges(n, rng))))
    m = rng.randint(3, 4)
    edges1, edges2 = (random_edges(m, rng.randint(0, 1), rng) for _ in range(2))
    cases.append(bridge_case(lap, m, edges1, edges2, rng.randint(1, m), rng.randint(1, m)))
    n, k = rng.randint(4, 5), rng.randint(2, 3)
    edges, v = random_edges(n, rng.randint(1, 2), rng), rng.randint(1, n)
    cases.append(attach_case(lap, n, edges, v, k, tree_edges(k + 1, rng)))
    rng.shuffle(cases)
    return cases


def oracle_crosscheck(lap, seed, workdir, nrounds):
    rng = random.Random(f"oracle_crosscheck-{seed}")
    return [oracle_round(lap, rng) for _ in range(nrounds)]


def oracle_warmup(lap, workdir):
    rng = random.Random(0)
    return [
        dilate_case(lap, 3, cycle_edges(3)),
        cofactor_case(lap, 4, random_edges(4, 1, rng)),
        whisker_case(lap, 2, [(1, 2)]),
        bridge_case(lap, 2, [(1, 2)], [(1, 2)], 1, 2),
        attach_case(lap, 3, cycle_edges(3), 1, 2, [(1, 2), (1, 3)]),
    ]


class Workload(NamedTuple):
    make: Callable  # (lap, seed, workdir, nrounds) -> list of rounds
    warmup: Callable  # (lap, workdir) -> a few small cases, run untimed
    rounds_per_s: float  # rounds the seed package measures per second
    deadline_s: float  # CPU seconds per case, several times the slowest case seen


WORKLOADS = {
    "dense_small": Workload(dense_small, dense_warmup, 0.86, 5.0),
    "sparse_large": Workload(sparse_large, sparse_warmup, 0.36, 2.5),
    "oracle_crosscheck": Workload(oracle_crosscheck, oracle_warmup, 4.0, 2.0),
}
