"""Transforming any two connected k-partitions into each other with at most
6(k-1) recombinations when district sizes are unrestricted.

The driver creates a shared singleton district in both partitions (at most
three moves on each side), removes its vertex, and repeats on the rest of
the graph with k-1 districts.
"""

from __future__ import annotations

from .graphs import (
    Graph,
    complete_forest,
    connected_components,
    edge_adjacency,
    find_low_degree_block_vertex,
    is_connected,
    spanning_tree,
)
from .partitions import SLACK_INF, Partition, RecombMove, _require_valid
from .sequences import AbstractMove, inverted_abstract, resolve_moves


def _spanning_union_edges(g: Graph, districts: list[frozenset[int]], trees: dict, edges):
    """Edges of a spanning tree of the districts' union containing a BFS tree
    of every district (cached in trees), completed by the first of the sorted
    edges that join two districts: exactly len(districts)-1 of them."""
    label = {v: i for i, d in enumerate(districts) for v in d}
    for d in districts:
        if d not in trees:
            trees[d] = spanning_tree(g, d)
    added = complete_forest(label, [(a, b) for a, b in edges if label[a] != label[b]])
    assert len(added) == len(districts) - 1
    return set().union(*(trees[d] for d in districts), added)


def _singleton_side(adj: dict[int, list[int]], districts: list[frozenset[int]], v: int):
    """Abstract moves emptying v's district down to {v} by donating the
    components of the union-tree (neighbour lists adj) restricted to the
    district minus v, and the resulting district list without {v}.
    """
    ds = list(districts)
    own = next(i for i, d in enumerate(ds) if v in d)
    comps = connected_components(adj, ds[own] - {v})
    moves: list[AbstractMove] = []
    assert len(comps) <= 3
    for comp in comps:
        nbrs = {w for u in comp for w in adj[u]}
        target = next((t for t, d in enumerate(ds) if t != own and not nbrs.isdisjoint(d)), None)
        assert target is not None, "component not adjacent to any other district"
        ds[own] = ds[own] - comp
        ds[target] = ds[target] | comp
        moves.append((ds[own], ds[target]))
    return moves, ds[:own] + ds[own + 1:]


def _make_singleton(g: Graph, active: frozenset[int], d1, d2, trees: dict, edges):
    """The shared singleton vertex v and each side's moves isolating it and districts after them.

    edges are the sorted edges of G[active]; trees caches BFS trees of districts.
    """
    union = _spanning_union_edges(g, d1, trees, edges) | _spanning_union_edges(g, d2, trees, edges)
    adj = edge_adjacency(active, union)
    v = find_low_degree_block_vertex(adj)
    assert len(adj[v]) <= 3, "union of two forests must contain a degree-<=3 block vertex"
    return v, _singleton_side(adj, d1, v), _singleton_side(adj, d2, v)


def transform_unbounded(g: Graph, p1: Partition, p2: Partition) -> list[RecombMove]:
    """A sequence of at most 6(k-1) recombinations carrying p1 to p2.

    Each round isolates a shared singleton {v} on both sides and drops v. The
    rounds' p1 sides run in order; the p2 sides, collected forward over all
    rounds, are undone through inverted_abstract and run after them.
    """
    _check_inputs(g, p1, p2)
    active, d1, d2 = g.vertices(), list(p1.districts), list(p2.districts)
    edges, trees = sorted(g.edges), {}
    forward1, forward2 = [], []
    while set(d1) != set(d2):
        v, (f1, d1), (f2, d2) = _make_singleton(g, active, d1, d2, trees, edges)
        forward1 += f1
        forward2 += f2
        active = active - {v}
        edges = [e for e in edges if v not in e]
    abstract = forward1 + inverted_abstract(p2.districts, forward2)
    moves, final = resolve_moves(g, p1, abstract, SLACK_INF)
    assert set(final.districts) == set(p2.districts)
    assert len(moves) <= 6 * (p1.k - 1)
    return moves


def _check_inputs(g: Graph, p1: Partition, p2: Partition):
    if p1.k != p2.k:
        raise ValueError(f"mismatched k: {p1.k} vs {p2.k}")
    if p1.k < 1:
        raise ValueError(f"k={p1.k} must be at least 1")
    if g.n and not is_connected(g, g.vertices()):
        raise ValueError("graph not connected")
    for name, p in (("p1", p1), ("p2", p2)):
        _require_valid(g, p, p.k, SLACK_INF, name)
