"""Simple connected labeled graphs and the graph operations used downstream.

Vertices are labeled 1..n throughout, matching the usual [n] convention, so
row/column bookkeeping in the linear algebra lines up with the definitions.
Graphs are immutable; every operation returns a new Graph.  One pass over the
edges validates a Graph: a self-loop, an endpoint outside 1..n or a disconnected
edge set raises ``DomainError``.  ``neighbors`` is built anew on each read.
"""

from __future__ import annotations

import heapq
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import DomainError, FeasibilityError, InternalInconsistencyError
from .linalg import determinant

FAMILIES = ("path", "cycle", "complete", "star", "random_tree")
# The largest n of a graph from ``family``, ``parse_edge_list``,
# ``random_connected_graph``, ``whisker``, ``bridge``, ``attach_path`` and
# ``attach_tree``; ``leaf_move`` keeps n.  Each report runs an O(n^3)
# adjugate: at n = 500 on a 2-vCPU host, 0.4-0.7 s for a path, 8.5-9.2 s for
# random_tree seed 5, 16-18 s for the star; dense graphs take longer (K_200:
# 20 s), so the bound does not keep every admitted graph fast.
MAX_N = 500


def _check_size(n: int, what: str):
    """Raise ``FeasibilityError`` when n is above ``MAX_N``, before any building."""
    if n > MAX_N:
        raise FeasibilityError(
            f"{what} n = {n} is above the largest supported n, {MAX_N}", required=n
        )


def _root(parent, x):
    """The root of x's tree in the union-find forest ``parent``, halving the path."""
    while (p := parent.get(x, x)) != x:
        parent[x] = x = parent.get(p, p)  # point x at its grandparent, then go there
    return x


@dataclass(frozen=True)
class Graph:
    """Simple connected graph on vertices 1..n."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        """Normalize the edges to pairs u < v; a union-find counts the components.

        Nothing is made per vertex, so ``Graph(10**9, [])`` is refused at once.  n and each
        endpoint but a str (``"3"`` is read as 3) go through ``operator.index``, so a float
        raises ``TypeError`` here instead of being truncated to another vertex.
        """
        n = operator.index(self.n)
        if n < 1:
            raise DomainError("graph needs at least one vertex")
        edges, parent, outside, components = set(), {}, None, n
        for u, v in self.edges:
            u = int(u) if isinstance(u, str) else operator.index(u)
            v = int(v) if isinstance(v, str) else operator.index(v)
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            edges.add((u, v))
            if u < 1 or v > n:  # raised after the pass: a self-loop or bad int comes first
                outside = outside or (u, v)
                continue
            ru, rv = _root(parent, u), _root(parent, v)
            if ru != rv:
                parent[rv] = ru
                components -= 1
        if outside:
            u, v = outside
            raise DomainError(f"edge ({u},{v}) out of range for n={n}")
        if components != 1:
            raise DomainError("graph must be connected")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(edges))

    @property
    def neighbors(self):
        adj = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def is_tree(self):
        return self.num_edges == self.n - 1

    @property
    def is_cycle(self):
        if self.n < 3 or self.num_edges != self.n:
            return False
        # connected with n edges: the n degrees sum to 2n and none is below 1
        return max(Counter(chain.from_iterable(self.edges)).values()) == 2

    @property
    def is_complete(self):
        return self.num_edges == self.n * (self.n - 1) // 2

    def sorted_edges(self):
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def laplacian(G: Graph) -> tuple:
    """Degree matrix minus adjacency matrix, as int rows, in one pass over ``G.edges``."""
    L = [[0] * G.n for _ in range(G.n)]
    for u, v in G.edges:
        u, v = u - 1, v - 1
        L[u][v] = L[v][u] = -1
        L[u][u] += 1
        L[v][v] += 1
    return tuple(map(tuple, L))


def spanning_tree_count(G: Graph) -> int:
    """Spanning trees of G, as the (1,1) cofactor of its Laplacian, by Bareiss elimination.

    The volume, read from the lifted adjugate, is checked against this separate count.
    """
    if G.n == 1:
        return 1
    kappa = determinant([row[1:] for row in laplacian(G)[1:]])
    if kappa < 1:
        raise InternalInconsistencyError(f"connected graph with {kappa} spanning trees")
    return kappa


def family(kind: str, n: int, seed=0) -> Graph:
    """Build a named graph family with canonical labeling.

    Only ``random_tree`` reads ``seed``; it is 0 by default, like the CLI's
    ``--seed``, so every call with the same arguments builds the same graph.
    Raises ``FeasibilityError`` before building anything when n is above
    ``MAX_N``.
    """
    if kind not in FAMILIES:
        raise DomainError(f"unknown family {kind!r}; choose from {FAMILIES}")
    _check_size(n, "family size")
    least = 3 if kind == "cycle" else 1
    if n < least:
        raise DomainError(f"{kind} needs n >= {least}")
    if kind == "cycle":
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    elif kind == "path":
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "complete":
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    elif kind == "star":
        edges = [(1, i) for i in range(2, n + 1)]
    else:  # random_tree
        edges = _random_tree_edges(n, random.Random(seed))
    return Graph(n, edges)


def _random_tree_edges(n, rng):
    if n == 1:
        return []
    # Pruefer sequence decoding gives the uniform distribution on labeled trees
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    # a heap of the current leaves, ascending at first: the smallest goes first
    leaves = [v for v in degree if degree[v] == 1]
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def random_connected_graph(n: int, seed=0, extra_edges=None) -> Graph:
    """Random spanning tree plus a few extra edges; used for seeded sweeps (seed 0 by default)."""
    _check_size(n, "random graph size")
    rng = random.Random(seed)
    edges = {(min(e), max(e)) for e in _random_tree_edges(n, rng)}
    non_edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    if extra_edges is None:
        extra_edges = rng.randint(0, min(2, len(non_edges)))
    for e in rng.sample(non_edges, min(extra_edges, len(non_edges))):
        edges.add(e)
    return Graph(n, edges)


def _grow(G: Graph, n: int, new_edges) -> Graph:
    """G on n vertices plus ``new_edges``; above ``MAX_N``, refused before they are read."""
    _check_size(n, "graph size")
    return Graph(n, G.edges.union(new_edges))


def whisker(G: Graph) -> Graph:
    """Attach a pendant vertex n+i to every vertex i."""
    return _grow(G, 2 * G.n, ((i, G.n + i) for i in range(1, G.n + 1)))


def bridge(G: Graph, G2: Graph, i: int, i2: int) -> Graph:
    """Disjoint union of two graphs on [n] joined by the edge {i, n+i2}.

    The second graph is relabeled to [2n] \\ [n].  Both graphs must have the
    same vertex count; bridging graphs of unequal size is rejected.
    """
    if G.n != G2.n:
        raise DomainError("bridge requires graphs with equal vertex counts")
    if not (1 <= i <= G.n and 1 <= i2 <= G2.n):
        raise DomainError("bridge endpoints out of range")
    n = G.n
    return _grow(G, 2 * n, chain([(i, i2 + n)], ((u + n, v + n) for u, v in G2.edges)))


def attach_path(G: Graph, v: int, k: int) -> Graph:
    """Attach a path of k new vertices n+1..n+k hanging off vertex v."""
    if not 1 <= v <= G.n:
        raise DomainError(f"vertex {v} not in graph")
    if k < 1:
        raise DomainError("need k >= 1 vertices to attach")
    new = range(G.n + 1, G.n + k + 1)
    return _grow(G, G.n + k, zip(chain([v], new), new))


def attach_tree(G: Graph, v: int, tree: Graph) -> Graph:
    """Attach a tree at vertex v.

    ``tree`` is a graph on k+1 vertices whose vertex 1 is identified with
    ``v``; its vertices 2..k+1 become the new vertices n+1..n+k.
    """
    if not 1 <= v <= G.n:
        raise DomainError(f"vertex {v} not in graph")
    if not tree.is_tree:
        raise DomainError("attachment must be a tree")
    relabel = (None, v, *range(G.n + 1, G.n + tree.n))
    return _grow(G, G.n + tree.n - 1, ((relabel[u], relabel[w]) for u, w in tree.edges))


def leaf_move(G: Graph, A, x: int, y: int) -> Graph:
    """Re-attach all cut edges from x to its leaf neighbor y.

    ``A`` is a vertex subset with x, y in A such that every edge between A
    and its complement B is incident to x, and y is a leaf whose unique
    neighbor is x.  The moved graph has the same h*-vector and volume.
    """
    A = set(A)
    B = set(range(1, G.n + 1)) - A
    if x not in A or y not in A:
        raise DomainError("x and y must lie in A")
    adj = G.neighbors
    if adj[y] != {x}:
        raise DomainError(f"vertex {y} must be a leaf attached to {x}")
    for u, w in G.edges:
        if (u in A) != (w in A) and x not in (u, w):
            raise DomainError("every A-B edge must be incident to x")
    moved = [w for w in adj[x] if w in B]
    edges = set(G.edges)
    for w in moved:
        edges.discard((min(x, w), max(x, w)))
        edges.add((min(y, w), max(y, w)))
    return Graph(G.n, edges)


# -- edge-list text format ---------------------------------------------------
#
# First non-comment line: "n m"; then m lines "u v" with 1 <= u < v <= n.
# Lines starting with '#' are ignored.


def parse_edge_list(text: str) -> Graph:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise DomainError("empty edge-list input")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise DomainError(f"bad header line {lines[0]!r}") from exc
    _check_size(n, "edge-list size")
    if len(lines) - 1 != m:
        raise DomainError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = (int(tok) for tok in ln.split())
        except ValueError as exc:
            raise DomainError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    return Graph(n, edges)


def read_edge_list(path) -> Graph:
    try:
        fh = open(path, "r", encoding="ascii")
    except ValueError as exc:  # e.g. a NUL byte in the path
        raise DomainError(f"bad path {path!r}: {exc}") from exc
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not ASCII text (byte {exc.start})") from exc
    return parse_edge_list(text)
