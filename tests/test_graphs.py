import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import graphs
from recomb.graphs import (
    Graph,
    GraphFormatError,
    block_cut,
    complete_forest,
    connected_components,
    edge_adjacency,
    find_low_degree_block_vertex,
    format_graph,
    is_connected,
    parse_graph,
    reach,
    spanning_tree,
)
from tree_reference import tree_center


def path(n):
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def cycle(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def nbrs(g):
    """g's neighbour lists keyed by vertex."""
    return dict(enumerate(g.adj))


def random_connected(rng, n, extra=3):
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, extra)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(n, edges)


def test_graph_basics():
    g = path(4)
    assert g.n == 4
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.nbr == (0b0010, 0b0101, 0b1010, 0b0100)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, {(0, 3)})
    with pytest.raises(ValueError):
        Graph(3, {(1, 1)})
    with pytest.raises(ValueError, match="^negative vertex count$"):
        Graph(-1, ())


def test_graph_errors_follow_the_input_order():
    with pytest.raises(ValueError, match=r"^self-loop at 2$"):
        Graph(3, [(0, 1), (2, 2), (0, 3)])
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range$"):
        Graph(3, [(1, 0), (0, 3), (2, 2)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=40),
    st.randoms(use_true_random=False))))
def test_graph_normalises_repeated_and_reversed_edges(case):
    n, edges, rng = case
    edges += [(v, u) for u, v in edges[: len(edges) // 2]] + edges[::3]  # reversed and repeated
    g = Graph(n, edges)
    assert g.edges == {(min(u, v), max(u, v)) for u, v in edges}
    for v in range(n):
        assert g.adj[v] == tuple(sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v}))
    shuffled = list(edges)
    rng.shuffle(shuffled)
    h = Graph(n, shuffled)
    assert h == g and h.adj == g.adj


def test_empty_subsets_are_refused():
    g = path(3)
    for fn in (is_connected, spanning_tree):
        for s in (set(), frozenset()):
            with pytest.raises(ValueError, match="^empty subset$"):
                fn(g, s)


def test_connectivity():
    g = path(5)
    assert is_connected(g, {0, 1, 2})
    assert not is_connected(g, {0, 2})
    assert is_connected(g, {2})
    two = Graph(4, {(0, 1), (2, 3)})
    comps = connected_components(two.adj, {0, 1, 2, 3})
    assert comps == [frozenset({0, 1}), frozenset({2, 3})]


def test_vertex_ids_outside_the_graph_are_refused():
    # A negative id used to index adj from the end, so spanning_tree(path(6),
    # {-1, 4}) returned the non-edge (-1, 4); an id >= n raised IndexError.
    g = path(6)
    for s, bad in (({-1, 4}, -1), ({-2}, -2), ({4, 6}, 6), ({0, 9}, 9), ({7}, 7)):
        for fn in (is_connected, spanning_tree):
            for within in (s, frozenset(s)):
                with pytest.raises(ValueError, match=rf"^vertex {bad} is not in 0\.\.5$"):
                    fn(g, within)
    assert len(g._proved) == 0


def bfs_log(monkeypatch):
    """The within argument of each graphs.reach call from here on."""
    searched = []
    real = graphs.reach
    monkeypatch.setattr(graphs, "reach",
                        lambda adj, start, within: searched.append(within) or real(adj, start, within))
    return searched


def test_is_connected_searches_all_but_the_frozensets_its_graph_proved(monkeypatch):
    searched = bfs_log(monkeypatch)
    g = path(6)

    def check(graph, s):
        """is_connected(graph, s) and the BFS it ran."""
        searched.clear()
        return is_connected(graph, s), len(searched)

    s = frozenset({1, 2, 3})
    assert check(g, s) == (True, 1)
    assert check(g, s) == (True, 0)
    assert check(g, frozenset([3, 2, 1])) == (True, 0)  # an equal frozenset
    assert check(g, {1, 2, 3}) == (True, 1)  # a set
    assert check(g, [1, 2, 3]) == (True, 1)  # a list
    assert check(path(6), s) == (True, 1)  # another Graph object, though equal to g
    gap = frozenset({1, 3})
    assert check(g, gap) == (False, 1) and check(g, gap) == (False, 1)  # a failed BFS proves nothing
    # spanning_tree always searches, and a set it spans is proved.
    tail = frozenset({4, 5})
    for _ in range(2):
        searched.clear()
        assert spanning_tree(g, tail) == {(4, 5)} and searched == [tail]
    assert check(g, tail) == (True, 0)
    with pytest.raises(ValueError, match="not connected"):
        spanning_tree(g, gap)
    assert set(g._proved) == {s, tail}


def test_the_record_keeps_no_set_alive():
    g = path(6)
    s, t = frozenset({1, 2, 3}), frozenset({4, 5})
    assert is_connected(g, s) and spanning_tree(g, t)
    assert set(g._proved) == {s, t}
    del s
    gc.collect()
    assert set(g._proved) == {t}
    del t
    gc.collect()
    assert len(g._proved) == 0


def test_reach_stays_inside_within():
    adj = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    assert reach(adj, 0, {0, 1, 3}) == {0: None, 1: 0}
    # Breadth first, in discovery order, each vertex mapped to its parent.
    got = reach(path(5).adj, 2, set(range(5)))
    assert list(got.items()) == [(2, None), (1, 2), (3, 2), (0, 1), (4, 3)]


def test_complete_forest_kruskal():
    # 0 and 1 start joined; (1, 2) closes a cycle once (0, 2) is in, so it
    # is skipped.
    assert complete_forest({0: 0, 1: 0, 2: 2, 3: 3}, [(0, 2), (1, 2), (2, 3)]) == [(0, 2), (2, 3)]
    with pytest.raises(ValueError):
        complete_forest({0: 0, 1: 0, 2: 2, 3: 3, 4: 4}, [(0, 2), (2, 3)])


def test_block_cut_path():
    adj = nbrs(path(3))
    assert block_cut(adj) == {1}
    assert sorted(adj.keys() - block_cut(adj)) == [0, 2]


def test_block_cut_triangle():
    adj = nbrs(cycle(3))
    assert not block_cut(adj)
    assert sorted(adj.keys() - block_cut(adj)) == [0, 1, 2]


def test_block_cut_bowtie():
    g = Graph(5, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)})
    assert block_cut(nbrs(g)) == {2}


def test_block_cut_refuses_disconnected_graphs():
    # The lowpoint DFS from vertex 0 never reaches 2 and 3.
    for adj in ({0: [1], 1: [0], 2: [3], 3: [2]}, {0: [], 1: []}):
        with pytest.raises(ValueError, match="graph not connected"):
            block_cut(adj)
    with pytest.raises(ValueError):
        block_cut({})


def brute_cut_vertices(g):
    cuts = set()
    for v in range(g.n):
        rest = set(range(g.n)) - {v}
        if rest and not is_connected(g, rest):
            cuts.add(v)
    return cuts


def test_block_cut_matches_brute_force():
    rng = random.Random(4)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 10))
        cut = block_cut(nbrs(g))
        assert isinstance(cut, frozenset)
        assert cut == brute_cut_vertices(g)


def test_removing_block_vertex_keeps_connectivity():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected(rng, rng.randint(3, 9))
        v = find_low_degree_block_vertex(nbrs(g))
        assert is_connected(g, set(range(g.n)) - {v})


def test_low_degree_block_vertex_matches_block_cut():
    # A leaf is returned without block_cut's DFS; the pick must still be the
    # non-cut vertex of least (degree, id) by block_cut's cut vertices.
    def want(adj):
        return min(adj.keys() - block_cut(adj), key=lambda v: (len(adj[v]), v))

    def chorded_cycle(n):
        order = rng.sample(range(n), n)
        edges = {(order[i], order[i - 1]) for i in range(n)}
        return Graph(n, edges | {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))})

    def two_tree_union(n):
        return Graph(n, random_connected(rng, n, 0).edges | random_connected(rng, n, 0).edges)

    rng = random.Random(7)
    leafy = [nbrs(random_connected(rng, rng.randint(2, 14))) for _ in range(100)]
    leafless = [nbrs(chorded_cycle(rng.randint(3, 14))) for _ in range(100)]
    leafless += [nbrs(two_tree_union(rng.randint(3, 14))) for _ in range(200)]
    # Two K4s joined through vertex 8, a degree-2 cut vertex.
    k4s = Graph(9, {e for base in (0, 4) for e in itertools.combinations(range(base, base + 4), 2)})
    leafless.append(nbrs(Graph(9, k4s.edges | {(3, 8), (4, 8)})))
    assert sum(min(map(len, adj.values())) == 1 for adj in leafy) > 50
    assert sum(min(map(len, adj.values())) >= 2 for adj in leafless) > 200
    for adj in leafy + leafless + [{0: ()}]:
        assert find_low_degree_block_vertex(adj) == want(adj)
    assert find_low_degree_block_vertex(leafless[-1]) == 0


def test_spanning_tree_shape():
    # BFS from 0 over ascending neighbours: 0 reaches 1 and 5, then 1 reaches
    # 2 and 5 reaches 4, then 2 reaches 3.
    t = spanning_tree(cycle(6), frozenset(range(6)))
    assert t == {(0, 1), (0, 5), (1, 2), (4, 5), (2, 3)}


def brute_center(vertices, edges):
    # vertex minimizing the largest component of T - v
    best = None
    for v in vertices:
        rest = set(vertices) - {v}
        adj = {x: set() for x in rest}
        for a, b in edges:
            if a in rest and b in rest:
                adj[a].add(b)
                adj[b].add(a)
        sizes = []
        remaining = set(rest)
        while remaining:
            start = min(remaining)
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w in remaining and w not in seen:
                        seen.add(w)
                        stack.append(w)
            sizes.append(len(seen))
            remaining -= seen
        worst = max(sizes) if sizes else 0
        if best is None or (worst, v) < best:
            best = (worst, v)
    return best


def test_tree_center_matches_brute_force():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = set()
        for i in range(1, n):
            edges.add((rng.randrange(i), i))
        g = Graph(n, {(min(a, b), max(a, b)) for a, b in edges})
        t = spanning_tree(g, frozenset(range(n)))
        c = tree_center(edge_adjacency(range(n), t))
        worst, _ = brute_center(range(n), t)
        # the returned center achieves the optimal worst-component size
        assert brute_center(range(n), t)[0] >= 0
        rest = set(range(n)) - {c}
        sizes = [len(comp) for comp in connected_components(
            Graph(n, t).adj, rest)] if rest else []
        assert (max(sizes) if sizes else 0) == worst
        assert 2 * (max(sizes) if sizes else 0) <= 2 * (n // 2) + (n % 2)


def reference_spanning_tree(g, s):
    """spanning_tree's own BFS loop, as it was before it ran on reach."""
    s = frozenset(s)
    root = min(s)
    order = [root]
    seen = {root}
    edges = set()
    for u in order:
        for w in g.adj[u]:
            if w in s and w not in seen:
                seen.add(w)
                edges.add((min(u, w), max(u, w)))
                order.append(w)
    if len(seen) != len(s):
        raise ValueError("induced subgraph not connected")
    return frozenset(edges)


def reference_tree_center(adj):
    """tree_center's own DFS, as it was before it ran on reach; returns the
    centre and the DFS parent map from the smallest vertex."""
    nt, root = len(adj), min(adj)
    order = []
    parent = {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    size = dict.fromkeys(adj, 1)
    for u in reversed(order):
        if parent[u] is not None:
            size[parent[u]] += size[u]
    best = None
    for v in sorted(adj):
        worst = 0
        for w in adj[v]:
            c = size[w] if parent[w] == v else nt - size[v]
            worst = max(worst, c)
        if best is None or worst < best[0]:
            best = (worst, v)
    return best[1], parent


def reference_reach(adj, start, within):
    """reach as it was before it walked a shrinking copy of within: two
    lookups per neighbour.  Returns the parent map's items in discovery order."""
    parent = {start: None}
    order = [start]
    for u in order:
        for w in adj[u]:
            if w in within and w not in parent:
                parent[w] = u
                order.append(w)
    return list(parent.items())


def test_traversals_match_their_reference_loops():
    rng = random.Random(13)
    disconnected = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))))
        s = frozenset(rng.sample(range(n), rng.randint(1, n)))
        start = rng.choice(sorted(s))
        want_reach = reference_reach(g.adj, start, s)
        for within in (set(s), s, dict.fromkeys(s, 0)):
            assert list(reach(g.adj, start, within).items()) == want_reach
            assert len(within) == len(s)  # reach copies within, never shrinks it
        try:
            want = reference_spanning_tree(g, s)
        except ValueError:
            disconnected += 1
            assert not is_connected(g, s)
            with pytest.raises(ValueError, match="not connected"):
                spanning_tree(g, s)
            continue
        assert is_connected(g, s)
        assert spanning_tree(g, s) == want
        adj = edge_adjacency(s, want)
        centre, parent = reference_tree_center(adj)
        assert tree_center(adj) == centre
        # A tree has one parent map per root, whatever order it is walked in.
        assert reach(adj, min(s), adj) == parent
    assert 100 < disconnected < 300


def test_parse_format_roundtrip():
    g = Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    text = format_graph(g)
    assert parse_graph(text).edges == g.edges
    assert format_graph(parse_graph(text)) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p 3 1\ne 0 5\n")
    assert exc.value.lineno == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("q 3 1\n")
    assert exc.value.lineno == 1


@pytest.mark.parametrize(
    "text, lineno, err",
    [("p three 0\n", 1, "non-integer counts"), ("p 3 1.5\n", 1, "non-integer counts"),
     ("p -3 0\n", 1, "negative counts"), ("p 3 -1\n", 1, "negative counts"),
     ("p 3 2\ne 0 1\ne 1 x\n", 3, "non-integer endpoint"),
     ("p 3 3\ne 0 1\ne 1 2\ne 0 1\n", 4, r"duplicate edge \(0,1\)")],
    ids=["count-word", "count-float", "negative-n", "negative-m", "endpoint-word", "duplicate-edge"],
)
def test_parse_errors_name_the_field(text, lineno, err):
    with pytest.raises(GraphFormatError, match=rf"^line {lineno}: {err}$") as exc:
        parse_graph(text)
    assert exc.value.lineno == lineno

