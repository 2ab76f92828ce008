"""Graphs, spanning-tree counts, graph operations, and edge-list IO."""

import itertools
import random
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsim import graph as g
from lapsim.errors import DomainError, FeasibilityError, LapsimError
from lapsim.graph import Graph
from oracles import connected_edges_by_bfs, format_edge_list, shape, transpose, write_edge_list


def brute_spanning_tree_count(G):
    """Count spanning trees by testing every (n-1)-edge subset."""
    count = 0
    for subset in itertools.combinations(G.sorted_edges(), G.n - 1):
        try:
            Graph(G.n, subset)
        except DomainError:
            continue
        count += 1
    return count


# -- construction and validation ---------------------------------------------


def test_graph_normalizes_edges():
    G = Graph(3, [(2, 1), (3, 2), (1, 3)])
    assert G.sorted_edges() == [(1, 2), (1, 3), (2, 3)]
    assert G.num_edges == 3


def test_graph_rejects_self_loop():
    with pytest.raises(DomainError):
        Graph(2, [(1, 1), (1, 2)])


def test_graph_rejects_out_of_range():
    with pytest.raises(DomainError):
        Graph(2, [(1, 3)])


def test_graph_rejects_disconnected():
    with pytest.raises(DomainError):
        Graph(4, [(1, 2), (3, 4)])
    with pytest.raises(DomainError):
        Graph(2, [])


def _constructor_input(rng):
    """(n, edges) of a small Graph input, often with one or more faults."""
    n = rng.choice((0, 1, 1, 2, 3, 4, 5, 6))
    order = rng.sample(range(1, n + 1), n)
    # often a random spanning tree, its pairs in either order, so that some inputs are valid
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)] if rng.random() < 0.7 else []
    if edges and rng.random() < 0.3:
        edges.append(rng.choice(edges)[::-1])  # a duplicate, reversed
    # random pairs add chords, duplicates, self-loops and endpoints out of range
    edges += [(rng.randint(0, n + 1), rng.randint(0, n + 1)) for _ in range(rng.randint(0, 3))]
    edges = [tuple(str(x) if rng.random() < 0.1 else x for x in e) for e in edges]  # "3"-style
    if rng.random() < 0.03:
        edges.append((1, "x"))
    rng.shuffle(edges)
    return n, edges


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except Exception as exc:
        return type(exc)


def test_graph_validation_matches_a_bfs_reference():
    rng = random.Random(2017)
    outcomes = []
    for _ in range(3000):
        n, edges = _constructor_input(rng)
        expected = _outcome(connected_edges_by_bfs, n, edges)
        assert _outcome(lambda n, e: Graph(n, e).edges, n, edges) == expected, (n, edges)
        outcomes.append(expected if isinstance(expected, type) else frozenset)
    # the inputs reach every outcome: accepted, refused, and int() failing
    assert {frozenset, DomainError, ValueError} == set(outcomes)
    assert outcomes.count(frozenset) > 500


@pytest.mark.parametrize("kind", ["complete", "path", "star"])
def test_graph_validation_is_no_slower_than_the_bfs_reference(kind):
    # a union-find that went quadratic would lose to the linear BFS on K_500
    n = g.MAX_N
    edges = g.family(kind, n).sorted_edges()

    def best(build):
        return min(timeit.repeat(lambda: build(n, edges), number=1, repeat=3))

    assert best(Graph) <= best(connected_edges_by_bfs)


def test_graph_predicates():
    assert g.family("path", 4).is_tree
    assert g.family("cycle", 4).is_cycle
    assert g.family("complete", 4).is_complete
    assert not g.family("cycle", 4).is_tree
    assert g.family("star", 5).is_tree
    assert g.family("complete", 3).is_cycle  # K3 is also C3
    assert not g.attach_path(g.family("cycle", 3), 1, 1).is_cycle  # n edges, one degree 3


def test_degree_and_neighbors():
    G = g.family("star", 4)
    assert len(G.neighbors[1]) == 3
    assert all(len(G.neighbors[v]) == 1 for v in (2, 3, 4))
    assert G.neighbors[1] == {2, 3, 4}


# -- families ----------------------------------------------------------------


def test_family_shapes():
    assert g.family("path", 5).num_edges == 4
    assert g.family("cycle", 5).num_edges == 5
    assert g.family("complete", 5).num_edges == 10
    assert g.family("star", 5).num_edges == 4
    assert g.family("random_tree", 7, seed=1).is_tree


def test_family_validation():
    with pytest.raises(DomainError):
        g.family("cycle", 2)
    with pytest.raises(DomainError):
        g.family("nope", 3)
    for kind in g.FAMILIES:
        for n in (0, -1):
            with pytest.raises(DomainError, match=f"{kind} needs n >= "):
                g.family(kind, n, seed=1)


def test_family_rejects_sizes_above_the_bound():
    with pytest.raises(FeasibilityError) as exc:
        g.family("complete", 10**9)
    assert exc.value.required == 10**9
    with pytest.raises(FeasibilityError):
        g.family("path", g.MAX_N + 1)
    assert g.family("star", g.MAX_N).n == g.MAX_N


def test_random_tree_deterministic_per_seed():
    a = g.family("random_tree", 9, seed=42)
    b = g.family("random_tree", 9, seed=42)
    c = g.family("random_tree", 9, seed=43)
    assert a.edges == b.edges
    assert a.is_tree and c.is_tree
    # the Pruefer decoding is pinned edge for edge
    assert a.sorted_edges() == [(1, 5), (1, 7), (2, 3), (2, 6), (2, 9), (3, 4), (4, 5), (4, 8)]
    assert c.sorted_edges() == [(1, 4), (1, 5), (2, 6), (2, 8), (3, 5), (3, 8), (6, 7), (8, 9)]


def test_random_connected_graph_deterministic():
    a = g.random_connected_graph(6, seed=5)
    b = g.random_connected_graph(6, seed=5)
    assert a.edges == b.edges
    assert a.num_edges >= 5


# -- Laplacian and spanning trees --------------------------------------------


def test_laplacian_structure():
    for G in (g.family("cycle", 5), g.family("complete", 4), g.family("path", 3)):
        L = g.laplacian(G)
        assert shape(L) == (G.n, G.n)
        assert L == transpose(L)
        assert all(sum(L[i]) == 0 for i in range(G.n))
        assert all(L[i][i] == len(G.neighbors[i + 1]) for i in range(G.n))


def test_spanning_tree_count_known_values():
    assert g.spanning_tree_count(g.family("path", 6)) == 1
    assert g.spanning_tree_count(g.family("cycle", 7)) == 7
    # Cayley's formula n^(n-2)
    for n in range(2, 7):
        assert g.spanning_tree_count(g.family("complete", n)) == n ** (n - 2)


def test_spanning_tree_count_matches_brute_force():
    rng = random.Random(17)
    for k in range(10):
        G = g.random_connected_graph(rng.randint(3, 6), seed=k)
        assert g.spanning_tree_count(G) == brute_spanning_tree_count(G)


# -- operations --------------------------------------------------------------


def test_whisker():
    W = g.whisker(g.family("cycle", 4))
    assert W.n == 8
    assert W.num_edges == 8
    assert all(len(W.neighbors[v]) == 1 for v in (5, 6, 7, 8))
    assert all((i, 4 + i) in W.edges for i in range(1, 5))


def test_bridge():
    B = g.bridge(g.family("cycle", 3), g.family("path", 3), 2, 3)
    assert B.n == 6
    assert (2, 6) in B.edges
    assert B.num_edges == 3 + 2 + 1


def test_bridge_spanning_tree_count_multiplicative():
    B = g.bridge(g.family("cycle", 3), g.family("complete", 3), 1, 1)
    assert (B.n, B.num_edges) == (6, 7)
    assert g.spanning_tree_count(B) == 3 * 3
    B = g.bridge(g.family("cycle", 5), g.family("complete", 5), 1, 1)
    assert B.n == 10
    assert g.spanning_tree_count(B) == 5 * 125
    assert g.bridge(g.family("path", 2), g.family("path", 2), 2, 1) == g.family("path", 4)


def test_attach_preserves_spanning_tree_count():
    assert g.spanning_tree_count(g.attach_path(g.family("cycle", 3), 1, 2)) == 3
    assert g.attach_path(Graph(1, []), 1, 3) == g.family("path", 4)


def test_bridge_rejects_unequal_sizes():
    with pytest.raises(DomainError):
        g.bridge(g.family("cycle", 3), g.family("cycle", 4), 1, 1)


def test_bridge_rejects_bad_endpoints():
    with pytest.raises(DomainError):
        g.bridge(g.family("cycle", 3), g.family("cycle", 3), 1, 5)


def test_attach_path():
    G = g.attach_path(g.family("cycle", 3), 2, 3)
    assert G.n == 6
    assert {(2, 4), (4, 5), (5, 6)} <= G.edges
    with pytest.raises(DomainError):
        g.attach_path(g.family("cycle", 3), 9, 1)
    with pytest.raises(DomainError):
        g.attach_path(g.family("cycle", 3), 1, 0)


def test_attach_tree_path_shape_matches_attach_path():
    base = g.family("cycle", 4)
    via_path = g.attach_path(base, 3, 2)
    tail = Graph(3, [(1, 2), (2, 3)])
    via_tree = g.attach_tree(base, 3, tail)
    assert via_path.edges == via_tree.edges


def test_attach_tree_rejects_non_tree():
    with pytest.raises(DomainError):
        g.attach_tree(g.family("path", 3), 1, g.family("cycle", 3))


def test_attach_tree_rejects_a_vertex_outside_the_graph():
    for v in (0, 4):
        with pytest.raises(DomainError, match=f"vertex {v} not in graph"):
            g.attach_tree(g.family("path", 3), v, g.family("path", 2))


def test_leaf_move():
    # triangle with leaf 4 on vertex 1 and pendant 5 on vertex 1
    G = Graph(5, [(1, 2), (2, 3), (1, 3), (1, 4), (1, 5)])
    moved = g.leaf_move(G, A={1, 2, 3, 4}, x=1, y=4)
    assert (4, 5) in moved.edges and (1, 5) not in moved.edges
    assert moved.n == G.n and moved.num_edges == G.num_edges


def test_leaf_move_validation():
    G = Graph(5, [(1, 2), (2, 3), (1, 3), (1, 4), (1, 5)])
    with pytest.raises(DomainError):  # y not a leaf of x
        g.leaf_move(G, A={1, 2, 3}, x=1, y=2)
    with pytest.raises(DomainError):  # x, y must be in A
        g.leaf_move(G, A={2, 3}, x=1, y=4)
    with pytest.raises(DomainError):  # edge (2,3) crosses A-B away from x
        g.leaf_move(G, A={1, 3, 4}, x=1, y=4)


# -- edge-list IO ------------------------------------------------------------


def test_parse_and_format_roundtrip():
    G = g.family("cycle", 5)
    assert g.parse_edge_list(format_edge_list(G)) == G


def test_parse_skips_comments_and_blanks():
    text = "# a triangle\n3 3\n\n1 2\n2 3\n# last\n1 3\n"
    assert g.parse_edge_list(text) == g.family("cycle", 3)


def test_parse_errors():
    with pytest.raises(DomainError):
        g.parse_edge_list("")
    with pytest.raises(DomainError):
        g.parse_edge_list("x y\n")
    with pytest.raises(DomainError):
        g.parse_edge_list("2 2\n1 2\n")  # wrong edge count
    with pytest.raises(DomainError):
        g.parse_edge_list("2 1\n1 two\n")


def test_parse_rejects_huge_header_without_edges():
    # a size above the bound is refused right after the header
    with pytest.raises(FeasibilityError) as exc:
        g.parse_edge_list("1000000000 0\n")
    assert exc.value.required == 10**9
    # too few edges to connect: rejected with no set per vertex built
    with pytest.raises(DomainError, match="connected"):
        g.parse_edge_list(f"{g.MAX_N} 0\n")
    with pytest.raises(DomainError, match="connected"):
        Graph(10**9, [])


def test_operations_reject_results_above_the_bound():
    big = g.family("path", g.MAX_N // 2 + 1)
    for make in (
        lambda: g.whisker(big),
        lambda: g.bridge(big, big, 1, 1),
        lambda: g.attach_path(g.family("path", 3), 1, g.MAX_N - 2),
    ):
        with pytest.raises(FeasibilityError) as exc:
            make()
        assert exc.value.required > g.MAX_N
    assert g.whisker(g.family("path", g.MAX_N // 2)).n <= g.MAX_N
    assert g.attach_path(g.family("path", 3), 1, g.MAX_N - 3).n == g.MAX_N


def test_attach_tree_and_random_graphs_reject_sizes_above_the_bound():
    path = g.family("path", 300)
    with pytest.raises(FeasibilityError) as exc:
        g.attach_tree(path, 1, path)
    assert exc.value.required == 599
    with pytest.raises(FeasibilityError) as exc:
        g.random_connected_graph(g.MAX_N + 1, seed=1)
    assert exc.value.required == g.MAX_N + 1
    # the sizes alone refuse a path of 10^9 vertices: none of its edges is made
    with pytest.raises(FeasibilityError) as exc:
        g.attach_path(path, 1, 10**9)
    assert exc.value.required == 300 + 10**9
    assert g.attach_tree(g.family("path", 250), 1, g.family("path", 251)).n == g.MAX_N
    assert g.random_connected_graph(g.MAX_N, seed=1).n == g.MAX_N


# mostly u < v inside [1, 5], sometimes any pair in [0, 6]
_edge_line = (
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda e: (min(e), max(e) + 1))
    | st.tuples(st.integers(0, 6), st.integers(0, 6))
).map("{0[0]} {0[1]}".format)


@st.composite
def _edge_list_texts(draw):
    """A header "n m" and a few lines, mostly edges, some arbitrary text."""
    n = draw(st.integers(1, 5) | st.integers(-2, 10**12))
    edges = draw(st.lists(_edge_line, max_size=8))
    if draw(st.booleans()):  # a spanning path, so that some inputs are connected
        edges += [f"{i} {i + 1}" for i in range(1, min(n, 6))]
    lines = draw(st.permutations(edges + draw(st.lists(st.text(max_size=8), max_size=2))))
    counted = sum(1 for ln in lines if ln.strip() and not ln.lstrip().startswith("#"))
    m = draw(st.just(counted) | st.integers(-1, 12))
    return "\n".join([f"{n} {m}", *lines])


@settings(max_examples=100, deadline=None)
@given(_edge_list_texts() | st.text(max_size=40))
def test_parse_edge_list_fuzz(text):
    try:
        G = g.parse_edge_list(text)
    except LapsimError:
        return
    assert isinstance(G, Graph)


def test_read_edge_list_rejects_nul_in_path():
    with pytest.raises(DomainError):
        g.read_edge_list("g\x00.txt")


def test_file_roundtrip(tmp_path):
    G = g.random_connected_graph(6, seed=9)
    path = tmp_path / "g.txt"
    write_edge_list(G, path)
    assert g.read_edge_list(path) == G
