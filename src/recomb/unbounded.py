"""Transforming any two connected k-partitions into each other with at most
6(k-1) recombinations when district sizes are unrestricted.

The driver creates a shared singleton district in both partitions (at most
three moves on each side), removes its vertex, and recurses on the rest of
the graph with k-1 districts.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import (
    Graph,
    complete_forest,
    connected_components,
    find_low_degree_block_vertex,
    is_connected,
    spanning_tree,
)
from .partitions import SLACK_INF, Partition, RecombMove, canonical_key, validate
from .sequences import AbstractMove, resolve_moves


def _spanning_union_edges(g: Graph, active: frozenset[int], districts: Sequence[frozenset[int]]):
    """Edges of a spanning tree of G[active] containing a BFS tree of every
    district; exactly len(districts)-1 cross edges, chosen lexicographically."""
    edges: set[tuple[int, int]] = set()
    for d in districts:
        edges |= spanning_tree(g, d).edges
    candidates = sorted(
        e for e in g.edges if e[0] in active and e[1] in active and e not in edges
    )
    added = complete_forest(active, edges, candidates)
    assert len(added) == len(districts) - 1
    return edges.union(added)


def _block_vertex_min_degree(active: frozenset[int], gp: Graph) -> int:
    """Minimum-degree block vertex of the (relabeled) union-of-trees graph."""
    ordered = sorted(active)
    to_new = {v: i for i, v in enumerate(ordered)}
    sub = Graph(len(ordered), ((to_new[a], to_new[b]) for a, b in gp.edges))
    return ordered[find_low_degree_block_vertex(sub)]


def _singleton_side(gp: Graph, districts: list[frozenset[int]], v: int):
    """Abstract moves emptying v's district down to {v} by donating the
    components of the union-tree restricted to the district minus v.

    Returns (forward abstract moves, inverse abstract moves in undo order,
    resulting district list).
    """
    ds = list(districts)
    own = next(i for i, d in enumerate(ds) if v in d)
    comps = connected_components(gp, ds[own] - {v})
    forward: list[AbstractMove] = []
    backward: list[AbstractMove] = []
    assert len(comps) <= 3
    for comp in comps:
        target = None
        for t in range(len(ds)):
            if t == own:
                continue
            if any(w in ds[t] for u in comp for w in gp.adj[u]):
                target = t
                break
        assert target is not None, "component not adjacent to any other district"
        backward.append((ds[own], ds[target]))
        new_own = ds[own] - comp
        new_target = ds[target] | comp
        forward.append((new_own, new_target))
        ds[own] = new_own
        ds[target] = new_target
    backward.reverse()
    return forward, backward, ds


def _make_singleton(g: Graph, active: frozenset[int], d1, d2):
    gp = Graph(g.n, _spanning_union_edges(g, active, d1) | _spanning_union_edges(g, active, d2))
    v = _block_vertex_min_degree(active, gp)
    assert gp.degree(v) <= 3, "union of two forests must contain a degree-<=3 block vertex"
    f1, b1, nd1 = _singleton_side(gp, list(d1), v)
    f2, b2, nd2 = _singleton_side(gp, list(d2), v)
    return v, (f1, b1, nd1), (f2, b2, nd2)


def _rec(g: Graph, active: frozenset[int], d1, d2) -> list[AbstractMove]:
    if canonical_key(Partition(tuple(d1))) == canonical_key(Partition(tuple(d2))):
        return []
    v, (f1, _, nd1), (_, b2, nd2) = _make_singleton(g, active, d1, d2)
    sub_active = active - {v}
    sub1 = [d for d in nd1 if d != frozenset({v})]
    sub2 = [d for d in nd2 if d != frozenset({v})]
    mid = _rec(g, sub_active, sub1, sub2)
    return f1 + mid + b2


def make_singleton_pair(g: Graph, p1: Partition, p2: Partition):
    """A block vertex v of the union of the two partition-aligned spanning
    trees, plus at most three moves per side that shrink v's district to {v}.
    """
    _check_inputs(g, p1, p2)
    if p1.k < 2:
        raise ValueError("k must be at least 2")
    v, (f1, _, _), (f2, _, _) = _make_singleton(
        g, frozenset(range(g.n)), list(p1.districts), list(p2.districts)
    )
    moves1, _ = resolve_moves(g, p1, f1, SLACK_INF)
    moves2, _ = resolve_moves(g, p2, f2, SLACK_INF)
    return v, moves1, moves2


def transform_unbounded(g: Graph, p1: Partition, p2: Partition) -> list[RecombMove]:
    """A sequence of at most 6(k-1) recombinations carrying p1 to p2."""
    _check_inputs(g, p1, p2)
    abstract = _rec(g, frozenset(range(g.n)), list(p1.districts), list(p2.districts))
    moves, final = resolve_moves(g, p1, abstract, SLACK_INF)
    assert canonical_key(final) == canonical_key(p2)
    assert len(moves) <= 6 * (p1.k - 1)
    return moves


def _check_inputs(g: Graph, p1: Partition, p2: Partition):
    if p1.k != p2.k:
        raise ValueError(f"mismatched k: {p1.k} vs {p2.k}")
    if g.n and not is_connected(g, g.vertices()):
        raise ValueError("graph not connected")
    for name, p in (("p1", p1), ("p2", p2)):
        rep = validate(g, p, p.k, SLACK_INF)
        if not rep.ok:
            raise ValueError(f"invalid {name}: {'; '.join(rep.violations)}")
