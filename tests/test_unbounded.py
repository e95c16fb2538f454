import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb.graphs import (
    Graph,
    complete_forest,
    edge_adjacency,
    find_low_degree_block_vertex,
)
from recomb.instances import gen_cycle, gen_grid, gen_path, gen_random_connected
from recomb.partitions import (
    Partition,
    SLACK_INF,
    canonical_key,
    validate,
)
from recomb.sequences import replay, resolve_moves
from recomb.unbounded import _make_singleton, _spanning_union_edges, transform_unbounded
from support import random_connected, random_partition


def test_identity_needs_no_moves():
    g = gen_cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    q = Partition.of([[3, 4, 5], [0, 1, 2]])  # same unordered partition
    assert transform_unbounded(g, p, q) == []


def test_simple_pair():
    g = gen_cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    q = Partition.of([[1, 2, 3], [4, 5, 0]])
    moves = replay_checked(g, p, q)
    assert len(moves) <= 6


def replay_checked(g, p, q):
    moves = transform_unbounded(g, p, q)
    cur = p
    for m in moves:
        cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
        rep = validate(g, cur, p.k, SLACK_INF)
        assert rep.ok, rep.violations
    assert canonical_key(cur) == canonical_key(q)
    return moves


def test_make_singleton_pair():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(4, 10)
        k = rng.randint(2, min(4, n - 1))
        g = random_connected(rng, n)
        p1 = random_partition(rng, g, k)
        p2 = random_partition(rng, g, k)
        v, (f1, _), (f2, _) = _make_singleton(
            g, g.vertices(), list(p1.districts), list(p2.districts), {}, sorted(g.edges)
        )
        assert len(f1) <= 3 and len(f2) <= 3
        for p, fs in ((p1, f1), (p2, f2)):
            _, end = resolve_moves(g, p, fs, SLACK_INF)
            assert frozenset({v}) in end.districts
            assert validate(g, end, k, SLACK_INF).ok


def test_random_instances_within_move_bound():
    rng = random.Random(22)
    for _ in range(80):
        n = rng.randint(3, 11)
        k = rng.randint(2, min(5, n))
        g = random_connected(rng, n)
        p1 = random_partition(rng, g, k)
        p2 = random_partition(rng, g, k)
        moves = replay_checked(g, p1, p2)
        assert len(moves) <= 6 * (k - 1)


def test_rejects_bad_inputs():
    g = gen_cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        transform_unbounded(g, p, Partition.of([[0, 1], [2, 3], [4, 5]]))
    with pytest.raises(ValueError):
        transform_unbounded(g, Partition.of([[0, 2, 4], [1, 3, 5]]), p)
    disconnected = Graph(4, {(0, 1), (2, 3)})
    with pytest.raises(ValueError):
        transform_unbounded(
            disconnected, Partition.of([[0, 1], [2, 3]]), Partition.of([[0, 1], [2, 3]])
        )


@pytest.mark.parametrize("g", [Graph(0, []), gen_cycle(3)], ids=["empty-graph", "c3"])
def test_rejects_zero_districts(g):
    with pytest.raises(ValueError, match="k=0 must be at least 1"):
        transform_unbounded(g, Partition(()), Partition(()))


def test_many_districts_do_not_recurse():
    # The pair {0,1} becomes the pair {199,200} across 198 singletons: the
    # driver peels one district per round, and must not spend a stack frame
    # on each.
    g = gen_path(201)
    p1 = Partition.of([[0, 1]] + [[v] for v in range(2, 201)])
    p2 = Partition.of([[v] for v in range(199)] + [[199, 200]])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        moves = transform_unbounded(g, p1, p2)
    finally:
        sys.setrecursionlimit(limit)
    assert canonical_key(replay(g, p1, moves, SLACK_INF)) == canonical_key(p2)
    assert len(moves) <= 6 * 199


@st.composite
def embedded_partitions(draw):
    """A random connected graph on n of N = 2n vertex ids (the rest isolated)
    with two connected k-partitions of its n vertices."""
    n = draw(st.integers(2, 14))
    m = draw(st.integers(n - 1, min(n * (n - 1) // 2, 2 * n)))
    rng = random.Random(draw(st.integers(0, 2**30)))
    g = gen_random_connected(n, m, rng.randrange(1 << 30))
    k = draw(st.integers(1, n))
    ids = rng.sample(range(2 * n), n)
    big = Graph(2 * n, ((ids[a], ids[b]) for a, b in g.edges))
    parts = [[frozenset(ids[v] for v in d) for d in random_partition(rng, g, k).districts]
             for _ in range(2)]
    return big, frozenset(ids), parts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(embedded_partitions())
def test_district_label_kruskal_matches_vertex_kruskal(case):
    g, active, (districts, _) = case
    trees = {}
    got = _spanning_union_edges(g, districts, trees, sorted(g.edges))
    forest = set().union(*trees.values())
    candidates = sorted(g.edges - forest)
    # Vertex Kruskal joins every forest edge first, then the candidates.
    assert got == set(complete_forest({v: v for v in active}, [*forest, *candidates]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(embedded_partitions())
def test_block_vertex_choice_matches_relabelled_union_graph(case):
    g, active, (d1, d2) = case
    edges = sorted(g.edges)
    union = _spanning_union_edges(g, d1, {}, edges) | _spanning_union_edges(g, d2, {}, edges)
    ordered = sorted(active)
    to_new = {v: i for i, v in enumerate(ordered)}
    relabelled = Graph(len(ordered), ((to_new[a], to_new[b]) for a, b in union))
    assert find_low_degree_block_vertex(edge_adjacency(active, union)) == (
        ordered[find_low_degree_block_vertex(dict(enumerate(relabelled.adj)))]
    )


@st.composite
def family_cases(draw):
    """A path, cycle, small grid or random connected graph on 2 to 14
    vertices, some k from 1 to n, and two random connected k-partitions."""
    family = draw(st.sampled_from(["path", "cycle", "grid", "random"]))
    if family == "grid":
        w = draw(st.integers(2, 4))
        g = gen_grid(w, draw(st.integers(1, 14 // w)))
    elif family == "random":
        n = draw(st.integers(2, 14))
        g = gen_random_connected(n, draw(st.integers(n - 1, min(n * (n - 1) // 2, 2 * n))),
                                 draw(st.integers(0, 2**30)))
    else:
        n = draw(st.integers(3 if family == "cycle" else 2, 14))
        g = gen_cycle(n) if family == "cycle" else gen_path(n)
    rng = random.Random(draw(st.integers(0, 2**30)))
    # Drawn by rng, not by hypothesis, which would favour k = 1 and k = n.
    k = rng.randint(1, g.n)
    return g, random_partition(rng, g, k), random_partition(rng, g, k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(family_cases())
def test_transform_meets_its_bound_for_every_k_up_to_n(case):
    g, p1, p2 = case
    moves = transform_unbounded(g, p1, p2)
    assert len(moves) <= 6 * (p1.k - 1)
    assert canonical_key(replay(g, p1, moves, SLACK_INF)) == canonical_key(p2)
