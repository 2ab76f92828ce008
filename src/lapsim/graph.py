"""Simple connected labeled graphs and the graph operations used downstream.

Vertices are labeled 1..n throughout, matching the usual [n] convention, so
row/column bookkeeping in the linear algebra lines up with the definitions.
Graphs are immutable; every operation returns a new Graph.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

from .errors import DomainError, FeasibilityError, InternalInconsistencyError
from .linalg import determinant

FAMILIES = ("path", "cycle", "complete", "star", "random_tree")
# The largest n of a graph from ``family``, ``parse_edge_list``, ``whisker``,
# ``bridge`` and ``attach_path``; ``leaf_move`` keeps n, and ``attach_tree``
# and ``random_connected_graph`` are not checked.  Each report runs an O(n^3)
# adjugate, 7-26 s at n = 500 for a path, star or random tree on a 2-vCPU host;
# dense graphs take longer (K_300: 3 minutes), so the bound does not keep every
# admitted graph fast.
MAX_N = 500


def _check_size(n: int, what: str):
    """Raise ``FeasibilityError`` when n is above ``MAX_N``, before any building."""
    if n > MAX_N:
        raise FeasibilityError(
            f"{what} n = {n} is above the largest supported n, {MAX_N}", required=n
        )


def _normalize_edges(edges):
    out = set()
    for e in edges:
        u, v = e
        u, v = int(u), int(v)
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        out.add((min(u, v), max(u, v)))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Simple connected graph on vertices 1..n."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("graph needs at least one vertex")
        edges = _normalize_edges(self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise DomainError(f"edge ({u},{v}) out of range for n={self.n}")
        # fewer than n - 1 edges cannot connect n vertices; rejecting that
        # first keeps a huge vertex count from allocating one set per vertex
        if len(edges) < self.n - 1 or not self._connected():
            raise DomainError("graph must be connected")

    def _connected(self):
        if self.n == 1:
            return True
        adj = self.neighbors
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    @property
    def neighbors(self):
        adj = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, v):
        return len(self.neighbors[v])

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def is_tree(self):
        return self.num_edges == self.n - 1

    @property
    def is_cycle(self):
        return self.n >= 3 and all(len(s) == 2 for s in self.neighbors.values())

    @property
    def is_complete(self):
        return self.num_edges == self.n * (self.n - 1) // 2

    def sorted_edges(self):
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def laplacian(G: Graph) -> tuple:
    """Degree matrix minus adjacency matrix, as a tuple of int rows."""
    adj = G.neighbors
    vertices = range(1, G.n + 1)
    return tuple(
        tuple([len(adj[i]) if i == j else (-1 if j in adj[i] else 0) for j in vertices])
        for i in vertices
    )


def spanning_tree_count(G: Graph, L: tuple | None = None) -> int:
    """Spanning trees as the (1,1) cofactor of L, which the volume is checked against.

    ``L`` is G's Laplacian, if the caller has already built it.
    """
    if G.n == 1:
        return 1
    kappa = determinant([row[1:] for row in (laplacian(G) if L is None else L)[1:]])
    if kappa < 1:
        raise InternalInconsistencyError(f"connected graph with {kappa} spanning trees")
    return kappa


def family(kind: str, n: int, seed=None) -> Graph:
    """Build a named graph family with canonical labeling.

    Raises ``FeasibilityError`` before building anything when n is above
    ``MAX_N``.
    """
    if kind not in FAMILIES:
        raise DomainError(f"unknown family {kind!r}; choose from {FAMILIES}")
    _check_size(n, "family size")
    if kind == "cycle":
        if n < 3:
            raise DomainError("cycle needs n >= 3")
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    elif kind == "path":
        if n < 1:
            raise DomainError("path needs n >= 1")
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "complete":
        if n < 1:
            raise DomainError("complete graph needs n >= 1")
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    elif kind == "star":
        if n < 1:
            raise DomainError("star needs n >= 1")
        edges = [(1, i) for i in range(2, n + 1)]
    else:  # random_tree
        if n < 1:
            raise DomainError("tree needs n >= 1")
        edges = _random_tree_edges(n, random.Random(seed))
    return Graph(n, edges)


def _random_tree_edges(n, rng):
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    # Pruefer sequence decoding gives the uniform distribution on labeled trees
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in degree if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # keep the candidate list sorted for determinism
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def random_connected_graph(n: int, seed=None, extra_edges=None) -> Graph:
    """Random spanning tree plus a few extra edges; used for seeded sweeps."""
    rng = random.Random(seed)
    edges = set(_normalize_edges(_random_tree_edges(n, rng)))
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


def whisker(G: Graph) -> Graph:
    """Attach a pendant vertex n+i to every vertex i."""
    _check_size(2 * G.n, "whiskered graph size")
    edges = set(G.edges)
    edges.update((i, G.n + i) for i in range(1, G.n + 1))
    return Graph(2 * G.n, edges)


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
    _check_size(2 * n, "bridged graph size")
    edges = set(G.edges)
    edges.update((u + n, v + n) for u, v in G2.edges)
    edges.add((i, i2 + n))
    return Graph(2 * n, edges)


def attach_path(G: Graph, v: int, k: int) -> Graph:
    """Attach a path of k new vertices n+1..n+k hanging off vertex v."""
    if not 1 <= v <= G.n:
        raise DomainError(f"vertex {v} not in graph")
    if k < 1:
        raise DomainError("need k >= 1 vertices to attach")
    _check_size(G.n + k, "graph size with the attached path")
    edges = set(G.edges)
    prev = v
    for t in range(1, k + 1):
        edges.add((prev, G.n + t))
        prev = G.n + t
    return Graph(G.n + k, edges)


def attach_tree(G: Graph, v: int, tree: Graph) -> Graph:
    """Attach a tree at vertex v.

    ``tree`` is a graph on k+1 vertices whose vertex 1 is identified with
    ``v``; its vertices 2..k+1 become the new vertices n+1..n+k.
    """
    if not 1 <= v <= G.n:
        raise DomainError(f"vertex {v} not in graph")
    if not tree.is_tree:
        raise DomainError("attachment must be a tree")
    relabel = {1: v}
    for t in range(2, tree.n + 1):
        relabel[t] = G.n + t - 1
    edges = set(G.edges)
    edges.update((relabel[u], relabel[w]) for u, w in tree.edges)
    return Graph(G.n + tree.n - 1, edges)


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
