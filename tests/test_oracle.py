import hashlib
import itertools
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_partitions import brute_moves

from recomb import oracle, partitions
from recomb.graphs import Graph, find, is_connected
from recomb.instances import gen_negative
from recomb.oracle import (
    OracleCapError,
    SpaceStats,
    WalkTrace,
    build_space,
    decide_br,
    enumerate_partitions,
    recom_walk,
    space_stats,
)
from recomb.partitions import (
    Partition,
    SLACK_INF,
    SlackBound,
    _move_masks,
    _vertex_set,
    canonical_key,
    enumerate_moves,
    validate,
)


def cycle(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def path(n):
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def grid(w, h):
    return Graph(w * h, {(v, v + 1) for v in range(w * h) if v % w < w - 1}
                 | {(v, v + w) for v in range(w * (h - 1))})


def mask(district):
    return sum(1 << v for v in district)


def brute_partitions(g, k, slack):
    """Reference enumeration by label assignment, deduplicated by key."""
    out = set()
    for labels in itertools.product(range(k), repeat=g.n):
        districts = [frozenset(v for v in range(g.n) if labels[v] == d) for d in range(k)]
        if any(not d for d in districts):
            continue
        if any(not slack.size_ok(g.n, k, len(d)) for d in districts):
            continue
        if any(not is_connected(g, d) for d in districts):
            continue
        out.add(canonical_key(Partition(tuple(districts))))
    return out


def test_enumerate_matches_brute_force():
    cases = [
        (cycle(6), 2, SlackBound(1)),
        (cycle(6), 3, SLACK_INF),
        (path(6), 2, SlackBound(0)),
        (path(5), 3, SLACK_INF),
        (Graph(5, {(0, 1), (0, 2), (0, 3), (0, 4)}), 2, SLACK_INF),
        # Finite slack with k >= 3: remainder-fit pruning and per-level
        # pendant contraction.  In the star every leaf part is too small.
        (Graph(7, {(0, v) for v in range(1, 7)}), 3, SlackBound(1)),
        (grid(3, 3), 3, SlackBound(0)),
        (Graph(7, {(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)}), 3, SlackBound(1)),
        # Pendant contraction folds this whole tree into one group of 6
        # vertices, heavier than a district of 3: there is no partition.
        (Graph(6, {(0, 1), (0, 5), (1, 2), (1, 4), (2, 3)}), 2, SlackBound(0)),
    ]
    for g, k, slack in cases:
        got = [canonical_key(p) for p in enumerate_partitions(g, k, slack)]
        assert got == sorted(brute_partitions(g, k, slack))
        assert len(got) == len(set(got))


@st.composite
def small_instances(draw):
    """Connected graphs with n <= 7 and k <= 4, or bare trees and caterpillars
    with n <= 8 and k <= 3, whose pendant chains the search contracts."""
    shape = draw(st.sampled_from(["graph", "tree", "caterpillar"]))
    n = draw(st.integers(1, 7 if shape == "graph" else 8))
    if shape == "caterpillar":
        spine = draw(st.integers(1, n))
        edges = {(v - 1, v) for v in range(1, spine)}
        edges |= {(draw(st.integers(0, spine - 1)), v) for v in range(spine, n)}
    else:
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if shape == "graph":
        extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
        edges |= {(a, b) for a, b in extra if a != b}
    else:
        perm = draw(st.permutations(range(n)))
        edges = {(perm[a], perm[b]) for a, b in edges}
    k = draw(st.integers(1, min(4 if shape == "graph" else 3, n)))
    return Graph(n, edges), k, SlackBound(draw(st.sampled_from([0, 1, None])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances(), st.data())
def test_enumerate_partitions_and_moves_match_brute_force(instance, data):
    g, k, slack = instance
    parts = enumerate_partitions(g, k, slack)
    assert [canonical_key(p) for p in parts] == sorted(brute_partitions(g, k, slack))
    if parts:
        p = data.draw(st.sampled_from(parts))
        got = {(m.i, m.j, m.new_i, m.new_j) for m in enumerate_moves(g, p, slack)}
        assert got == brute_moves(g, p, slack)


def test_enumerate_known_counts():
    # A path on n vertices has C(n-1, k-1) connected k-partitions.
    import math

    for n in range(2, 9):
        for k in range(1, min(n, 5) + 1):
            got = len(enumerate_partitions(path(n), k, SLACK_INF))
            assert got == math.comb(n - 1, k - 1)
    # A cycle has C(n, k) for k >= 2 (choose the k cut edges... n ways).
    for n in range(3, 9):
        for k in range(2, min(n, 4) + 1):
            got = len(enumerate_partitions(cycle(n), k, SLACK_INF))
            assert got == math.comb(n, k)


def test_vertex_cap():
    with pytest.raises(OracleCapError):
        enumerate_partitions(cycle(30), 2, SLACK_INF)
    # cap is adjustable
    assert enumerate_partitions(cycle(30), 2, SLACK_INF, vertex_cap=30)


def test_node_cap_env(monkeypatch):
    found = []

    def counted(*args):
        for ds in partitions._connected_parts(*args):
            found.append(ds)
            yield ds

    monkeypatch.setattr(oracle, "_connected_parts", counted)
    monkeypatch.setenv("BCP_NODE_CAP", "3")
    with pytest.raises(OracleCapError, match="node cap exceeded"):
        build_space(cycle(8), 2, SLACK_INF)
    # C8 has C(8,2) = 28 two-partitions; the search stops at the fourth.
    assert len(found) == 4
    monkeypatch.setenv("BCP_NODE_CAP", "28")
    assert len(enumerate_partitions(cycle(8), 2, SLACK_INF)) == 28
    monkeypatch.delenv("BCP_NODE_CAP")
    build_space(cycle(8), 2, SlackBound(1))


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 10), (4, 117), (5, 4006)])
def test_enumerate_partitions_oeis_a172477(n, count):
    # OEIS A172477: the n x n grid cut into n connected parts of n cells each.
    assert len(enumerate_partitions(grid(n, n), n, SlackBound(0), vertex_cap=25)) == count


@pytest.mark.parametrize("g, k, s, vertex_cap", [
    (grid(5, 5), 5, 0, 25),
    (grid(4, 4), 4, 1, 24),
    (cycle(20), 4, 2, 24),
    (grid(4, 3), 2, 1, 24),
    (grid(5, 3), 3, 1, 24),
])
def test_enumerate_partitions_in_canonical_key_order(g, k, s, vertex_cap):
    # Instances past brute_partitions' reach.  The partitions are sorted by
    # the order strings of their district masks; that must be the order of
    # their canonical keys.
    parts = enumerate_partitions(g, k, SlackBound(s), vertex_cap=vertex_cap)
    assert len(parts) > 1
    keys = [canonical_key(p) for p in parts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # Districts are listed as in the key: by their smallest vertex.
    assert all(tuple(map(frozenset, key)) == p.districts for key, p in zip(keys, parts))
    # Equal districts are one shared frozenset.
    districts = [d for p in parts for d in p.districts]
    assert len(set(map(id, districts))) == len(set(districts))


def test_build_space_grid4x4_structure_pinned():
    # The sha256 of the nodes, the cliques in list order and the component
    # ids, computed when enumerate_partitions sorted by canonical_key and
    # build_space keyed its groups by tuple slices.
    cg = build_space(grid(4, 4), 4, SlackBound(1))
    assert (len(cg.nodes), len(cg.cliques)) == (1953, 2344)
    text = repr((cg.nodes, cg.cliques, cg.component))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b47a468ede322c92176c1ffea4ce55aaeba0d45440c6d874b2fbef69af6e557d"
    )


def test_build_space_cycle():
    g = cycle(6)
    cg = build_space(g, 2, SlackBound(0))
    # C6 with exact halves: 3 opposite cut-edge pairs
    assert len(cg.nodes) == 3
    assert cg.component_count == 1
    st = space_stats(cg)
    assert st.node_count == 3
    assert st.component_count == 1
    assert st.diameters == (1,)


def assert_space_matches_move_enumeration(g, k, slack):
    """The referee for build_space derives the space the direct way:
    enumerate_moves at every node, each successor looked up by its canonical
    key, and components by union-find over those edges."""
    cg = build_space(g, k, slack)
    parts = enumerate_partitions(g, k, slack)
    assert cg.nodes == [canonical_key(p) for p in parts]
    index = {key: i for i, key in enumerate(cg.nodes)}
    edges = set()
    for i, p in enumerate(parts):
        for m in enumerate_moves(g, p, slack):
            j = index[canonical_key(p.replace(m.i, m.j, m.new_i, m.new_j))]
            assert j != i
            edges.add((min(i, j), max(i, j)))
    assert cg.edges == sorted(edges)
    comp = list(range(len(parts)))
    for a, b in edges:
        comp[find(comp, a)] = find(comp, b)
    roots = [find(comp, i) for i in range(len(parts))]
    # Same grouping: root and component id determine each other.
    assert len(set(zip(roots, cg.component))) == len(set(roots)) == cg.component_count
    # Ids are numbered in the order of each component's first node.
    assert list(dict.fromkeys(cg.component)) == list(range(cg.component_count))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances())
def test_build_space_matches_move_enumeration(instance):
    assert_space_matches_move_enumeration(*instance)


SEVERAL_COMPONENTS = {
    "negative-s0": (gen_negative(4, 1)[0], 4, 0),
    # Chorded cycles whose components the union-find roots would number
    # out of first-node order.
    "cycle8-chord": (Graph(8, {(i, (i + 1) % 8) for i in range(8)} | {(1, 6)}), 4, 0),
    "cycle9-chords": (Graph(9, {(i, (i + 1) % 9) for i in range(9)} | {(0, 7), (2, 8)}), 3, 0),
}


@pytest.mark.parametrize("g, k, s", SEVERAL_COMPONENTS.values(), ids=SEVERAL_COMPONENTS.keys())
def test_build_space_matches_move_enumeration_on_several_components(g, k, s):
    assert_space_matches_move_enumeration(g, k, SlackBound(s))


def reference_space_stats(cg):
    """One BFS per node: the referee for the multi-source BFS in space_stats."""
    diam = [0] * cg.component_count
    adj = [[] for _ in cg.nodes]
    for a, b in cg.edges:
        adj[a].append(b)
        adj[b].append(a)
    for src in range(len(cg.nodes)):
        dist = {src: 0}
        frontier = [src]
        far = 0
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        far = max(far, dist[w])
                        nxt.append(w)
            frontier = nxt
        c = cg.component[src]
        diam[c] = max(diam[c], far)
    return SpaceStats(len(cg.nodes), len(cg.edges), cg.component_count, tuple(diam))


def assert_stats_match_reference(cg, batches=(1, 3, 7)):
    # Narrow batches split a space into several, so the maximum over a
    # component's batches is checked as well.
    want = reference_space_stats(cg)
    assert space_stats(cg) == want
    for batch in batches:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_BATCH", batch)
            assert space_stats(cg) == want
    return want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances())
def test_space_stats_matches_reference(instance):
    assert_stats_match_reference(build_space(*instance))


@pytest.mark.parametrize("g, k, s, want, batches", [
    # k > n: no partition, so no component.
    (cycle(4), 5, None, SpaceStats(0, 0, 0, ()), (1, 3, 7)),
    # C6 cut into three pairs at s=0: two partitions, neither has a move.
    (cycle(6), 3, 0, SpaceStats(2, 0, 2, (0, 0)), (1, 3, 7)),
    (gen_negative(4, 1)[0], 4, 0, SpaceStats(58, 186, 2, (5, 2)), (1, 3, 7)),
    (grid(4, 4), 4, 0, SpaceStats(117, 372, 1, (6,)), (1, 3, 7)),
    (gen_negative(4, 1)[0], 4, 1, SpaceStats(1115, 10510, 1, (10,)), (100,)),
], ids=["k-above-n", "isolated", "negative-s0", "grid4x4-s0", "negative-s1"])
def test_space_stats_fixed_spaces(g, k, s, want, batches):
    assert assert_stats_match_reference(build_space(g, k, SlackBound(s)), batches) == want


def test_space_stats_counts_each_clique_edge_once():
    # space_stats counts the edges clique by clique, so the cliques must be
    # edge-disjoint, and each must join partitions that share k-2 districts.
    for g, k, s in SEVERAL_COMPONENTS.values():
        cg = build_space(g, k, SlackBound(s))
        edges = cg.edges
        assert len(edges) == len(set(edges)) == sum(len(c) * (len(c) - 1) // 2 for c in cg.cliques)
        for c in cg.cliques:
            for a, b in itertools.combinations(c, 2):
                assert len(set(cg.nodes[a]) & set(cg.nodes[b])) == k - 2
        assert space_stats(cg).edge_count == len(edges)


def test_decide_br_path_and_validation():
    g = cycle(6)
    slack = SlackBound(1)
    pa = Partition.of([[0, 1, 2], [3, 4, 5]])
    pb = Partition.of([[1, 2, 3], [4, 5, 0]])
    ok, moves = decide_br(g, 2, slack, pa, pb)
    assert ok
    cur = pa
    for m in moves:
        cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
        assert validate(g, cur, 2, slack).ok
    assert canonical_key(cur) == canonical_key(pb)
    # shortest: this pair is one move apart
    assert len(moves) == 1
    # identity
    ok, moves = decide_br(g, 2, slack, pa, pa)
    assert ok and moves == []
    with pytest.raises(ValueError):
        decide_br(g, 2, SlackBound(0), pa, Partition.of([[0, 1], [2, 3, 4, 5]]))


def test_decide_br_unreachable():
    # Two triangles joined by one edge, s=0: the only balanced partition per
    # side is frozen, and a second partition does not exist; use a 4-path with
    # k=2, s=0 instead, which has exactly one balanced cut.
    g = path(4)
    slack = SlackBound(0)
    pa = Partition.of([[0, 1], [2, 3]])
    ok, moves = decide_br(g, 2, slack, pa, pa)
    assert ok and moves == []
    # star: center vertex cannot change sides at s=0 with k=2 on K1,3 + leaf
    g = Graph(6, {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)})
    pa = Partition.of([[0, 1, 2], [3, 4, 5]])
    pb = Partition.of([[0, 1, 5], [2, 3, 4]])
    if validate(g, pb, 2, slack).ok:
        ok, _ = decide_br(g, 2, slack, pa, pb)
        # reachability here is whatever the space says; just check consistency
        cg = build_space(g, 2, slack)
        index = {key: i for i, key in enumerate(cg.nodes)}
        same = cg.component[index[canonical_key(pa)]] == cg.component[index[canonical_key(pb)]]
        assert ok == same


def test_decide_br_agrees_with_space_components():
    g = cycle(8)
    slack = SlackBound(1)
    cg = build_space(g, 2, slack)
    parts = enumerate_partitions(g, 2, slack)
    index = {key: i for i, key in enumerate(cg.nodes)}
    pa = parts[0]
    ca = cg.component[index[canonical_key(pa)]]
    for pb in parts[1:6]:
        ok, moves = decide_br(g, 2, slack, pa, pb)
        assert ok == (cg.component[index[canonical_key(pb)]] == ca)
        if ok:
            assert moves is not None


def test_decide_br_max_depth_and_hook():
    g = cycle(8)
    slack = SlackBound(1)
    pa = Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]])
    pb = Partition.of([[2, 3, 4, 5], [6, 7, 0, 1]])
    visited = []
    ok, _ = decide_br(g, 2, slack, pa, pb, max_depth=1, visit_hook=visited.append)
    full_ok, moves = decide_br(g, 2, slack, pa, pb)
    assert full_ok
    if len(moves) > 1:
        assert not ok
    assert visited and all(isinstance(p, Partition) for p in visited)


def test_decide_br_pairs_keeps_labels():
    g = cycle(9)
    slack = SlackBound(1)
    pa = Partition.of([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    pb = Partition.of([[0, 1, 2], [3, 4, 5, 6], [7, 8]])
    # pb differs from pa only on districts 1 and 2.
    ok, moves = decide_br(g, 3, slack, pa, pb, pairs=[(1, 2)])
    assert ok
    assert all({m.i, m.j} == {1, 2} for m in moves)
    # restricting to a non-participating pair must fail
    ok, _ = decide_br(g, 3, slack, pa, pb, pairs=[(0, 1)], max_depth=4)
    assert not ok


@pytest.mark.parametrize("pair, equal", [((0, 0), False), ((-1, 1), False), ((0, 5), False),
                                         ((0, 0), True), ((-1, 1), True), ((0, 5), True)],
                         ids=["one-district-twice", "negative-label", "label-above-k",
                              "one-district-twice-equal-inputs", "negative-label-equal-inputs",
                              "label-above-k-equal-inputs"])
def test_decide_br_refuses_bad_pairs(pair, equal):
    # With (0, 0) the search used to hook "states" that drop vertices, and
    # with pa == pb it answered (True, []) without reading the pairs.
    g = path(6)
    pa = Partition.of([[0, 1, 2], [3, 4, 5]])
    pb = pa if equal else Partition.of([[0, 1], [2, 3, 4, 5]])
    seen = []
    with pytest.raises(ValueError, match=rf"district pair \({min(pair)}, {max(pair)}\)"):
        decide_br(g, 2, SLACK_INF, pa, pb, pairs=[pair], visit_hook=seen.append)
    assert seen == [pa]


def plain_bfs_decide(g, k, slack, pa, pb, pairs=None, max_depth=None):
    """The referee for decide_br: its search loop before the lower-bound
    cut, a plain level-by-level BFS from pa in enumerate_moves order."""
    target = frozenset(pb.districts)
    start = frozenset(pa.districts)
    if start == target:
        return True, []
    parent = {}
    depth = {start: 0}
    frontier = [(start, pa)]
    while frontier:
        next_frontier = []
        for key, p in frontier:
            if max_depth is not None and depth[key] >= max_depth:
                continue
            for m in enumerate_moves(g, p, slack, pairs=pairs):
                q = p.replace(m.i, m.j, m.new_i, m.new_j)
                qkey = frozenset(q.districts)
                if qkey in depth:
                    continue
                depth[qkey] = depth[key] + 1
                parent[qkey] = (key, m)
                if qkey == target:
                    path = []
                    cur = qkey
                    while cur != start:
                        prev, mv = parent[cur]
                        path.append(mv)
                        cur = prev
                    path.reverse()
                    return True, path
                next_frontier.append((qkey, q))
        frontier = next_frontier
    return False, None


def chorded_cycle12():
    return Graph(12, {(i, (i + 1) % 12) for i in range(12)} | {(0, 5), (3, 9), (6, 11)})


DIFFERENTIAL = [
    (grid(4, 3), 3, 0), (grid(4, 3), 4, 1), (grid(4, 4), 4, 0), (grid(5, 3), 3, 0),
    (grid(5, 3), 5, 0), (grid(6, 2), 4, 0), (grid(6, 2), 3, 1), (grid(5, 4), 4, 0),
    (chorded_cycle12(), 4, 0), (chorded_cycle12(), 3, 1),
    # Spaces of several components, for unreachable pairs.
    SEVERAL_COMPONENTS["negative-s0"], SEVERAL_COMPONENTS["cycle9-chords"],
]


def test_decide_br_matches_plain_bfs():
    # The lower-bound cut must not change any answer or any path: the same
    # moves, labels included, on relabelled starts, with pairs= and max_depth=.
    rng = random.Random(12)
    checked = outcomes = 0
    seen = set()
    for g, k, s in DIFFERENTIAL:
        slack = SlackBound(s)
        parts = enumerate_partitions(g, k, slack)
        for _ in range(30):
            pa, pb = rng.choice(parts), rng.choice(parts)
            order = list(pa.districts)
            rng.shuffle(order)
            pa = Partition(tuple(order))
            kind = rng.randrange(4)  # plain, pairs=, max_depth= or both
            pairs = max_depth = None
            if kind & 1:
                pairs = rng.sample(list(itertools.combinations(range(k), 2)), rng.randint(1, k))
            if kind & 2:
                max_depth = rng.randrange(5)
            want = plain_bfs_decide(g, k, slack, pa, pb, pairs, max_depth)
            assert decide_br(g, k, slack, pa, pb, pairs=pairs, max_depth=max_depth) == want
            seen.add((want[0], kind))
            checked += 1
            outcomes += bool(want[1])
    assert checked == 360 and outcomes > 100
    # Every kind of query both succeeds and fails somewhere.
    assert seen == {(ok, kind) for ok in (True, False) for kind in range(4)}


def reference_decide_br(g, k, slack, pa, pb, pairs, max_depth, visit_hook, expanded):
    """The referee for decide_br's rounds: the same rising-bound rounds, but
    every expansion lists all its moves through enumerate_moves and drops
    afterwards.  Each expanded partition is appended to `expanded`."""
    target = frozenset(pb.districts)
    start = frozenset(pa.districts)
    if visit_hook:
        visit_hook(pa)
    if start == target:
        return True, []
    hooked = {start}
    bound = (k - len(start & target) + 1) // 2
    while max_depth is None or bound <= max_depth:
        parent = {start: None}
        frontier = [(start, pa)]
        dropped = False
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for key, p in frontier:
                expanded.append(p)
                for m in enumerate_moves(g, p, slack, pairs=pairs):
                    q = p.replace(m.i, m.j, m.new_i, m.new_j)
                    qkey = frozenset(q.districts)
                    if qkey in parent:
                        continue
                    if depth + (k - len(qkey & target) + 1) // 2 > bound:
                        dropped = True
                        continue
                    parent[qkey] = (key, m)
                    if visit_hook and qkey not in hooked:
                        hooked.add(qkey)
                        visit_hook(q)
                    if qkey == target:
                        path = []
                        cur = qkey
                        while cur != start:
                            cur, mv = parent[cur]
                            path.append(mv)
                        path.reverse()
                        return True, path
                    next_frontier.append((qkey, q))
            frontier = next_frontier
        if not dropped:
            break
        bound += 1
    return False, None


def masks_of(p):
    return tuple(map(mask, p.districts))


def record_lister_calls(monkeypatch):
    """Wrap decide_br's move lister and enumerate_moves; the returned list
    receives the district masks and the district pair list of each call."""
    calls = []

    def recorded(lister, masks):
        def call(g, p, slack, *args, **kwargs):
            calls.append((masks(p), kwargs["pairs"] if "pairs" in kwargs else args[0]))
            return lister(g, p, slack, *args, **kwargs)
        return call

    monkeypatch.setattr(oracle, "enumerate_moves", recorded(enumerate_moves, masks_of))
    monkeypatch.setattr(oracle, "_move_masks", recorded(_move_masks, tuple))
    return calls


def expansions(calls, k, pairs):
    """The states expanded, in order, as district masks, from the lister
    calls of one decide_br query: an expansion lists each scanned district
    pair once, so the first pair in exactly one call."""
    first = partitions._pair_list(k, pairs)[0]
    return [p for p, listed in calls if first in listed]


def test_decide_br_matches_reference_rounds(monkeypatch):
    # The order in which decide_br lists moves must not change its rounds:
    # the answer, the path with its labels, the states hooked and the states
    # expanded, so also the rounds (the expansions of pa, the only states
    # with its districts), equal the reference's.  A wrong dropped flag
    # changes the rounds, not the answer.
    calls = record_lister_calls(monkeypatch)
    rng = random.Random(23)
    queries = []
    for g, k, s in DIFFERENTIAL:
        slack = SlackBound(s)
        parts = enumerate_partitions(g, k, slack)
        for _ in range(30):
            pa, pb = rng.choice(parts), rng.choice(parts)
            pa = Partition(tuple(rng.sample(pa.districts, k)))
            pairs = max_depth = None
            if rng.random() < 0.5:
                pairs = rng.sample(list(itertools.combinations(range(k), 2)), rng.randint(1, k))
            if rng.random() < 0.5:
                max_depth = rng.randrange(5)
            queries.append((g, k, slack, pa, pb, pairs, max_depth))
    for negative, s, size in NEGATIVE_COMPONENTS.values():
        g, k, slack, pa, pb, _ = negative_component_query(negative, s, size)
        queries.append((g, k, slack, pa, pb, None, None))
    rounds = Counter()
    for g, k, slack, pa, pb, pairs, max_depth in queries:
        want_hooked, want_expanded = [], []
        want = reference_decide_br(g, k, slack, pa, pb, pairs, max_depth, want_hooked.append,
                                   want_expanded)
        hooked = []
        calls.clear()
        assert decide_br(g, k, slack, pa, pb, pairs, max_depth, hooked.append) == want
        assert [p.districts for p in hooked] == [p.districts for p in want_hooked]
        assert expansions(calls, k, pairs) == [masks_of(p) for p in want_expanded]
        rounds[min(sum(p is pa for p in want_expanded), 3), want[0]] += 1
    # Queries of one, two and three or more rounds, both reached and not.
    assert all(rounds[n, ok] for n in (1, 2, 3) for ok in (True, False)), rounds


def test_decide_br_lists_pa_pair_by_pair_until_the_first_drop(monkeypatch):
    # Until a round's first drop, pa lists one district pair at a time, so a
    # drop among its first pairs spares the split tables of its other unions:
    # the search fills fewer tables (two-part _connected_parts calls) before
    # its first bound-aware listing (a _move_masks call passed a goal) than
    # pa has connected unions.
    tables, toward = [], []
    connected_parts = partitions._connected_parts

    def counted_parts(g, vertices, parts, *args):
        if parts == 2 and not toward:
            tables.append(vertices)
        return connected_parts(g, vertices, parts, *args)

    def counted_masks(g, masks, slack, pairs, table, *bound):
        if bound:
            toward.append(1)
        return _move_masks(g, masks, slack, pairs, table, *bound)

    monkeypatch.setattr(partitions, "_connected_parts", counted_parts)
    monkeypatch.setattr(oracle, "_move_masks", counted_masks)
    g = grid(6, 5)
    pa = Partition.of([[v for v in range(30) if v % 6 == c] for c in range(6)])
    # Columns 0-1 and 3-4 re-split into top and bottom halves, then the top
    # of columns 0-1 and column 2 re-split: three moves.
    pb = Partition.of([[0, 1, 2, 6, 12], [13, 18, 19, 24, 25], [7, 8, 14, 20, 26],
                       [3, 4, 9, 10, 15], [16, 21, 22, 27, 28], [5, 11, 17, 23, 29]])
    ok, path_ = decide_br(g, 6, SlackBound(0), pa, pb)
    assert ok and len(path_) == 3
    unions = [(i, j) for i, j in itertools.combinations(range(6), 2)
              if is_connected(g, pa.districts[i] | pa.districts[j])]
    assert len(unions) == 5
    assert toward and len(tables) < len(unions)


def test_move_masks_toward_goal_matches_filtered_enumerate_moves():
    # The move lister with a goal against enumerate_moves less the moves
    # whose result q fails depth + ceil((k - |q & pb|) / 2) <= bound: the same
    # moves in the same order, on random p, pb, depth, bound and pairs=.
    # Without a goal it lists all of enumerate_moves.
    rng = random.Random(22)
    needs, cases = Counter(), Counter()
    for g, k, s in DIFFERENTIAL:
        slack = SlackBound(s)
        parts = enumerate_partitions(g, k, slack)
        table = {}
        for _ in range(40):
            p = rng.choice(parts)
            p = Partition(tuple(rng.sample(p.districts, k)))
            # pb: up to two random moves from p or from any partition, so
            # that p and pb often share most districts and every need occurs.
            pb = rng.choice([p, rng.choice(parts)])
            for _ in range(rng.randrange(3)):
                m = rng.choice(enumerate_moves(g, pb, slack) or [None])
                pb = pb if m is None else pb.replace(m.i, m.j, m.new_i, m.new_j)
            target = frozenset(pb.districts)
            pairs = None
            if rng.random() < 0.3:
                pairs = rng.sample(list(itertools.combinations(range(k), 2)), rng.randint(1, k))
            depth = rng.randint(1, 4)
            bound = depth + rng.randint(-1, (k + 1) // 2)
            every, want = [], []
            for m in enumerate_moves(g, p, slack, pairs):
                every.append((m.i, m.j, mask(m.new_i), mask(m.new_j)))
                qkey = frozenset(p.replace(m.i, m.j, m.new_i, m.new_j).districts)
                if depth + (k - len(qkey & target) + 1) // 2 <= bound:
                    want.append(every[-1])
            least = k - 2 * (bound - depth)
            goal = frozenset(map(mask, pb.districts))
            scanned = partitions._pair_list(k, pairs)
            got = _move_masks(g, masks_of(p), slack, scanned, table, goal, least)
            assert got == want
            assert _move_masks(g, masks_of(p), slack, scanned, {}, goal, least) == want
            assert _move_masks(g, masks_of(p), slack, scanned, table) == every
            # The goal districts each scanned pair needs in its two parts.
            have = len(frozenset(p.districts) & target)
            for i, j in scanned:
                di, dj = p.districts[i], p.districts[j]
                need = least - have + (di in target) + (dj in target)
                needs[min(max(need, 0), 3)] += 1
                inside = {d for d in target if d <= di | dj}
                if 0 < need <= 2 and len(inside) == 2 and frozenset().union(*inside) == di | dj:
                    if inside != {di, dj}:  # both parts qualify: listed once
                        cases["union of two pb districts"] += 1
                        inside_masks = set(map(mask, inside))
                        assert [(mi, mj, {a, b}) for mi, mj, a, b in got].count((i, j, inside_masks)) == 1
                if need == 1 and (di in target or dj in target):
                    cases["pb district is one of p's"] += 1  # the identity split is dropped
    assert all(needs[n] for n in range(4)), needs
    assert all(cases[c] for c in ("union of two pb districts", "pb district is one of p's")), cases


NEGATIVE_COMPONENTS = {"negative41-s0": ((4, 1), 0, 54), "negative42-s0": ((4, 2), 0, 291),
                       "criterion5-component": ((4, 2), 1, 167)}


def negative_component_query(negative, s, size):
    """(g, k, slack, pa, pb, component): on gen_negative(*negative) at slack s,
    pa is the first partition in a component of `size` states, pb one outside
    it, and component the canonical keys of pa's component."""
    g = gen_negative(*negative)[0]
    k, slack = negative[0], SlackBound(s)
    cg = build_space(g, k, slack, vertex_cap=g.n)
    parts = enumerate_partitions(g, k, slack, vertex_cap=g.n)
    sizes = Counter(cg.component)
    pa = next(p for p, c in zip(parts, cg.component) if sizes[c] == size)
    comp_a = cg.component[parts.index(pa)]
    pb = next(p for p, c in zip(parts, cg.component) if c != comp_a)
    component = {key for key, c in zip(cg.nodes, cg.component) if c == comp_a}
    return g, k, slack, pa, pb, component


@pytest.mark.parametrize("negative, s, size", NEGATIVE_COMPONENTS.values(), ids=NEGATIVE_COMPONENTS.keys())
def test_decide_br_hooks_each_state_of_the_component_once(negative, s, size, monkeypatch):
    # An unreachable query runs rounds until one drops nothing; over all of
    # them the hook sees every state of pa's component exactly once.  Each
    # expansion, one per state listed in a round, lists the first district
    # pair in exactly one lister call, however its pairs are split between
    # the two listers.
    calls = record_lister_calls(monkeypatch)
    g, k, slack, pa, pb, component = negative_component_query(negative, s, size)
    hooked = []
    assert decide_br(g, k, slack, pa, pb, visit_hook=hooked.append) == (False, None)
    keys = [canonical_key(p) for p in hooked]
    assert len(keys) == len(set(keys)) == len(component) == size
    assert set(keys) == component
    # More expansions than states: the search took more than one round.
    assert len(expansions(calls, k, None)) > size


@pytest.mark.parametrize("negative, s, size", NEGATIVE_COMPONENTS.values(), ids=NEGATIVE_COMPONENTS.keys())
def test_decide_br_node_cap(negative, s, size, monkeypatch):
    # The cap bounds the states one round holds: the last round of an
    # unreachable query holds all of pa's component, and one state fewer fails.
    g, k, slack, pa, pb, _ = negative_component_query(negative, s, size)
    monkeypatch.setenv("BCP_NODE_CAP", str(size))
    assert decide_br(g, k, slack, pa, pb) == (False, None)
    monkeypatch.setenv("BCP_NODE_CAP", str(size - 1))
    with pytest.raises(OracleCapError, match="node cap exceeded"):
        decide_br(g, k, slack, pa, pb)


def test_recom_walk_deterministic():
    g = cycle(8)
    slack = SlackBound(1)
    start = Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]])
    t1 = recom_walk(g, 2, slack, start, 20, seed=7)
    t2 = recom_walk(g, 2, slack, start, 20, seed=7)
    assert t1 == t2
    t3 = recom_walk(g, 2, slack, start, 20, seed=8)
    assert t3.steps != t1.steps or t3.seed != t1.seed
    assert len(t1.steps) == 20 and not t1.halted_early
    # every visited state is a valid BCP
    cg = build_space(g, 2, slack)
    for _, key in t1.steps:
        assert key in set(cg.nodes)


def test_recom_walk_halts_without_moves():
    g = path(4)
    start = Partition.of([[0, 1], [2, 3]])
    t = recom_walk(g, 2, SlackBound(0), start, 5, seed=1)
    assert t.halted_early and len(t.steps) == 0
    assert t == reference_recom_walk(g, 2, SlackBound(0), start, 5, 1)


def test_recom_walk_refuses_an_invalid_start():
    g = cycle(8)
    start = Partition.of([[0, 2, 3, 4], [1, 5, 6, 7]])
    with pytest.raises(ValueError, match="^invalid start partition: district 0 disconnected; "):
        recom_walk(g, 2, SlackBound(1), start, 5, seed=1)


def reference_recom_walk(g, k, slack, start, steps, seed):
    """The referee for recom_walk: its loop before the walk listed moves as
    masks, each step taking moves[idx] of enumerate_moves."""
    rng = oracle._splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    cur, trace = start, []
    for _ in range(steps):
        moves = enumerate_moves(g, cur, slack)
        if not moves:
            return WalkTrace(seed, canonical_key(start), tuple(trace), True)
        idx = next(rng) % len(moves)
        m = moves[idx]
        cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
        trace.append((idx, canonical_key(cur)))
    return WalkTrace(seed, canonical_key(start), tuple(trace), False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_instances(), st.data())
def test_recom_walk_matches_reference(instance, data):
    g, k, slack = instance
    parts = enumerate_partitions(g, k, slack)
    if not parts:
        return
    # Any labelling of any start: the walk's move indices depend on labels.
    start = data.draw(st.sampled_from(parts))
    start = Partition(tuple(data.draw(st.permutations(start.districts))))
    steps, seed = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 2**64 - 1))
    want = reference_recom_walk(g, k, slack, start, steps, seed)
    assert recom_walk(g, k, slack, start, steps, seed) == want


def blocks8x8(seed):
    """The 8x8 grid's eight 4x2 blocks, labelled in a seeded order."""
    labels = list(range(8))
    random.Random(seed).shuffle(labels)
    return Partition.of(
        [[v for v in range(64) if labels[(v // 16) * 2 + v % 8 // 4] == d] for d in range(8)]
    )


@pytest.mark.parametrize("seed", range(4))
def test_recom_walk_matches_reference_on_grid8x8(seed):
    g, slack = grid(8, 8), SlackBound(1)
    want = reference_recom_walk(g, 8, slack, blocks8x8(seed), 10, seed)
    assert len(want.steps) == 10
    assert recom_walk(g, 8, slack, blocks8x8(seed), 10, seed) == want


def test_split_table_changes_no_moves(monkeypatch):
    # Every move listing of a search reads and fills that search's one split
    # table; what it returns must equal a call without the table.  The walk
    # lists its moves through _move_masks, the decision search through
    # enumerate_moves (pa before a round's first drop) and _move_masks, which,
    # once a round has dropped a state, is passed a goal and must return the
    # table-free enumerate_moves list less the moves below its bound.
    tables, toward = [], []

    def checked_masks(g, masks, slack, pairs, table, *bound):
        got = _move_masks(g, masks, slack, pairs, table, *bound)
        assert got == _move_masks(g, masks, slack, pairs, {}, *bound)
        if bound:
            goal, least = bound
            p = Partition(tuple(map(_vertex_set, masks)))
            assert got == [(m.i, m.j, mask(m.new_i), mask(m.new_j))
                           for m in enumerate_moves(g, p, slack, pairs)
                           if sum(mask(d) in goal for d in p.replace(m.i, m.j, m.new_i, m.new_j).districts)
                           >= least]
            toward.append(table)
        tables.append(table)
        return got

    def checked(g, p, slack, pairs=None, **table):
        got = enumerate_moves(g, p, slack, pairs, **table)
        assert got == enumerate_moves(g, p, slack, pairs)
        tables.append(table["_splits"])
        return got

    monkeypatch.setattr(oracle, "_move_masks", checked_masks)
    monkeypatch.setattr(oracle, "enumerate_moves", checked)
    g = grid(8, 8)
    for seed in range(3):
        tables.clear()
        trace = recom_walk(g, 8, SlackBound(1), blocks8x8(seed), 6, seed)
        assert len(trace.steps) == 6
        assert len(tables) == 6 and all(t is tables[0] for t in tables)
    g = grid(6, 5)
    pa = Partition.of([[v for v in range(30) if v % 6 == c] for c in range(6)])
    # Columns 0-1 and 3-4 re-split into top and bottom halves: two moves.
    pb = Partition.of([[0, 1, 6, 7, 12], [13, 18, 19, 24, 25], [2, 8, 14, 20, 26],
                       [3, 4, 9, 10, 15], [16, 21, 22, 27, 28], [5, 11, 17, 23, 29]])
    tables.clear()
    ok, path_ = decide_br(g, 6, SlackBound(0), pa, pb, pairs=[(0, 1), (1, 2), (3, 4)])
    assert ok and len(path_) == 2
    assert len(tables) > 1 and toward and all(t is tables[0] for t in tables)


def test_build_space_grid4x4_pinned():
    # Nodes, edges and the sha256 of the edge list, computed with the
    # frozenset search that the mask search and its split tables replace.
    cg = build_space(grid(4, 4), 4, SlackBound(1))
    assert (len(cg.nodes), len(cg.edges)) == (1953, 19858)
    text = "\n".join(f"{a} {b}" for a, b in cg.edges)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a87f49b7de8a7af28eee4006f0c2dcbed15265a486cfc1eeb336ad9804be67c0"
    )
    # Diameter 5 from the per-node BFS (reference_space_stats), 1,953 runs.
    assert space_stats(cg) == SpaceStats(1953, 19858, 1, (5,))
