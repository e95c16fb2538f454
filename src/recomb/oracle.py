"""Exhaustive ground truth for small instances.

Enumerates all (k,s)-BCPs, builds the recombination configuration space,
answers reachability queries, and runs seeded random walks.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, islice, repeat
from operator import itemgetter, or_
from typing import Optional

from .graphs import Graph, find
from .partitions import (
    Partition,
    PartitionKey,
    RecombMove,
    SlackBound,
    _connected_parts,
    _mask,
    _mask_order,
    _move_masks,
    _pair_list,
    _require_valid,
    _vertex_set,
    canonical_key,
    enumerate_moves,
)

DEFAULT_VERTEX_CAP = 24
DEFAULT_NODE_CAP = 5_000_000


class OracleCapError(RuntimeError):
    """Instance too large for exhaustive treatment."""


def _node_cap() -> int:
    """The state cap: BCP_NODE_CAP if set and not empty, else DEFAULT_NODE_CAP."""
    raw = os.environ.get("BCP_NODE_CAP")
    if not raw:
        return DEFAULT_NODE_CAP
    if not raw.strip().isdecimal():
        raise ValueError(f"BCP_NODE_CAP must be a non-negative integer, got {raw!r}")
    return int(raw)


@dataclass
class ConfigGraph:
    """The configuration space R_s(G,k) on partition keys.

    Its edges are held as move cliques: lists of ascending node indices,
    pairwise one move apart, with each edge in exactly one clique.
    """

    nodes: list[PartitionKey]
    cliques: list[list[int]]
    component: list[int]

    @property
    def component_count(self) -> int:
        return len(set(self.component)) if self.component else 0

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The edges as sorted index pairs, listed afresh on each read."""
        return sorted(pair for c in self.cliques for pair in combinations(c, 2))


@dataclass(frozen=True)
class SpaceStats:
    node_count: int
    edge_count: int
    component_count: int
    diameters: tuple[int, ...]  # per component, by component id order


@dataclass(frozen=True)
class WalkTrace:
    seed: int
    start_key: PartitionKey
    steps: tuple[tuple[int, PartitionKey], ...]  # (chosen move index, resulting key)
    halted_early: bool


def enumerate_partitions(
    g: Graph, k: int, slack: SlackBound, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> list[Partition]:
    """All (k,s)-BCPs of g, one per unordered partition, sorted by key.

    Districts are ordered by their smallest vertex.  The search is
    partitions._connected_parts; it stops and raises OracleCapError at the
    first partition past the node cap.  Equal districts are one shared frozenset.
    """
    cap = _node_cap()
    n = g.n
    if n > vertex_cap:
        raise OracleCapError(f"n={n} exceeds the oracle vertex cap {vertex_cap}")
    if k < 1 or k > n:
        return []
    m_min = slack.min_size(n, k)
    m_max = slack.max_size(n, k)
    found = list(islice(_connected_parts(g.nbr, (1 << n) - 1, k, m_min, m_max), cap + 1))
    if len(found) > cap:
        raise OracleCapError("instance too large: node cap exceeded")
    # The search yields districts in order of their least vertex, and
    # _mask_order orders masks as sorted() orders vertex lists, so this is
    # the canonical-key order, with one order string per distinct district.
    order = {d: _mask_order(d) for d in set(chain.from_iterable(found))}
    found.sort(key=lambda ds: tuple(map(order.__getitem__, ds)))
    sets = {d: _vertex_set(d) for d in order}
    return [Partition(tuple(map(sets.__getitem__, ds))) for ds in found]


def build_space(g: Graph, k: int, slack: SlackBound, vertex_cap: int = DEFAULT_VERTEX_CAP) -> ConfigGraph:
    """The configuration space R_s(G,k), built from its move cliques.

    Partitions that keep the same k-2 districts are pairwise one move apart
    (their other two districts split one union), and no two share k-2
    districts in two ways, so each such group is a clique and each edge is in
    one.  Component ids follow the order of each component's first node.
    """
    parts = enumerate_partitions(g, k, slack, vertex_cap)
    # Districts are shared frozensets ordered by their smallest vertex: a key
    # takes one sorted tuple per distinct district, and kept districts are canonical.
    tuples = {d: tuple(sorted(d)) for d in set(chain.from_iterable(p.districts for p in parts))}
    nodes: list[PartitionKey] = [tuple(map(tuples.__getitem__, p.districts)) for p in parts]
    groups: defaultdict[object, list[int]] = defaultdict(list)
    if k == 2:  # every partition keeps the same empty set of districts
        groups[()] = list(range(len(parts)))
    elif k > 2:
        kept = [itemgetter(*(d for d in range(k) if d not in pair))
                for pair in combinations(range(k), 2)]
        for i, p in enumerate(parts):
            ds = p.districts
            for get in kept:
                groups[get(ds)].append(i)
    cliques = [c for c in groups.values() if len(c) > 1]
    comp = list(range(len(nodes)))
    for c in cliques:
        root = find(comp, c[0])
        for v in c[1:]:
            comp[find(comp, v)] = root
    label: dict[int, int] = {}
    component = [label.setdefault(find(comp, i), len(label)) for i in range(len(nodes))]
    return ConfigGraph(nodes, cliques, component)


def decide_br(
    g: Graph,
    k: int,
    slack: SlackBound,
    pa: Partition,
    pb: Partition,
    pairs=None,
    max_depth: Optional[int] = None,
    visit_hook=None,
) -> tuple[bool, Optional[list[RecombMove]]]:
    """BFS in R_s(G,k) from pa; returns (reachable, shortest move path).

    The search is lazy: only pa's component is expanded, level by level and
    in enumerate_moves order.  A move rewrites two districts, so a state that
    shares m districts with pb is at least ceil((k-m)/2) moves from it.  Each
    round drops a generated state when its depth plus that lower bound
    exceeds the round's bound: the f = g + h cut of A* (Hart, Nilsson and
    Raphael, 1968) in rising-bound rounds as in IDA* (Korf, 1985).  The first
    bound is the lower bound at pa; a round that misses pb raises it by one
    and starts again from pa, with the same split table.  A round that drops
    nothing has expanded all of pa's component, so pb is unreachable.

    States are tuples of district masks, keyed by the set of their masks,
    and every state lists its moves through partitions._move_masks.  Until a
    round's first drop it lists every move.  From the drop on it lists only
    the moves whose result can meet the bound, sharing at least
    k - 2(bound - d) districts with pb at depth d.  pa lists one district
    pair at a time through enumerate_moves until that drop, since it mostly
    comes among pa's first pairs.  The states kept, their order and the
    dropped flag are those of listing every move and dropping afterwards.
    Partitions are built only for `visit_hook`, RecombMoves only for the path.

    The path is the plain BFS's.  The first BFS parent of a state on a
    shortest path lies on a shortest path too, so the round whose bound is
    the distance drops none of those states, discovers each from the same
    parent by the same move, and keeps their order.

    `pairs` restricts moves to the given district pairs; each must name two
    distinct districts, or ValueError is raised.  `max_depth` caps the bound,
    and the node cap bounds the states held in one round.  `visit_hook` is
    called once with each distinct visited Partition over all rounds, so an
    unreachable query hooks each state of pa's component once
    (ground-truth invariant checks in the test-suite hang off it).
    """
    for name, p in (("from", pa), ("to", pb)):
        _require_valid(g, p, k, slack, f"'{name}' partition")
    cap = _node_cap()
    if visit_hook:
        visit_hook(pa)
    pairs = _pair_list(k, pairs)
    start_masks = tuple(map(_mask, pa.districts))
    start, goal = frozenset(start_masks), frozenset(map(_mask, pb.districts))
    if start == goal:
        return True, []
    splits: dict = {}
    hooked = {start}
    bound = (k - len(start & goal) + 1) // 2

    def pa_moves(least: int):
        # pa's pairs one at a time, so that the round's first drop switches the rest.
        for n, pair in enumerate(pairs):
            if dropped:
                yield from _move_masks(g, start_masks, slack, pairs[n:], splits, goal, least)
                return
            for m in enumerate_moves(g, pa, slack, pairs=[pair], _splits=splits):
                yield m.i, m.j, _mask(m.new_i), _mask(m.new_j)

    while max_depth is None or bound <= max_depth:
        # Keyed by the set of district masks; the states keep the labels `pairs` needs.
        parent: dict[frozenset, Optional[tuple]] = {start: None}
        frontier = [(start, start_masks)]
        dropped = False
        depth = 0
        while frontier:
            depth += 1
            least = k - 2 * (bound - depth)  # districts a state here must share with pb
            next_frontier = []
            for key, p in frontier:
                for i, j, a, b in (pa_moves(least) if p is start_masks else
                                   _move_masks(g, p, slack, pairs, splits, goal, least if dropped else 0)):
                    q = (*p[:i], a, *p[i + 1:j], b, *p[j + 1:])
                    qkey = frozenset(q)
                    if qkey in parent:
                        continue
                    if depth + (k - len(qkey & goal) + 1) // 2 > bound:
                        dropped = True
                        continue
                    if len(parent) >= cap:
                        raise OracleCapError("instance too large: node cap exceeded")
                    parent[qkey] = (key, i, j, a, b)
                    if visit_hook and qkey not in hooked:
                        hooked.add(qkey)
                        visit_hook(Partition(tuple(map(_vertex_set, q))))
                    if qkey == goal:
                        path = []
                        while qkey != start:
                            qkey, i, j, a, b = parent[qkey]
                            path.append(RecombMove(i, j, _vertex_set(a), _vertex_set(b)))
                        path.reverse()
                        return True, path
                    next_frontier.append((qkey, q))
            frontier = next_frontier
        if not dropped:
            break
        bound += 1
    return False, None


# Sources per multi-source BFS batch. Every node of a component holds masks
# this wide, so the width trades memory for time: on the 43,361 nodes of
# grid 6x4, k=4, s=1, widths 4096 / 8192 / 16384 / one batch took 16 / 12 /
# 8.5 / 5.6 s of CPU at a peak RSS of 338 / 405 / 500 / 956 MB, in a process
# that held the space in 198 MB (Python 3.11.7).
_BATCH = 8192


def space_stats(cg: ConfigGraph) -> SpaceStats:
    """Exact node/edge/component counts and per-component diameters.

    A component's diameter is the largest eccentricity among its nodes,
    found by a bit-parallel multi-source BFS (Then et al., "The More the
    Merrier", PVLDB 2014) from batches of up to _BATCH of its nodes.
    """
    members: list[list[int]] = [[] for _ in range(cg.component_count)]
    for v, c in enumerate(cg.component):
        members[c].append(v)
    # Each component's cliques, and each node's positions in that list.
    cliques: list[list[list[int]]] = [[] for _ in members]
    member_of: list[list[int]] = [[] for _ in cg.nodes]
    for clique in cg.cliques:
        own = cliques[cg.component[clique[0]]]
        for v in clique:
            member_of[v].append(len(own))
        own.append(clique)
    diam = tuple(
        max(_eccentricity(own, member_of, nodes, nodes[lo : lo + _BATCH])
            for lo in range(0, len(nodes), _BATCH))
        for nodes, own in zip(members, cliques)
    )
    edge_count = sum(len(c) * (len(c) - 1) // 2 for c in cg.cliques)
    return SpaceStats(len(cg.nodes), edge_count, len(members), diam)


def _eccentricity(
    cliques: list[list[int]], member_of: list[list[int]], nodes: list[int], sources: list[int]
) -> int:
    """The largest eccentricity among `sources`, all in the component `nodes`.

    Bit b of new[v] is set if sources[b] first reached v at the current
    depth, and bit b of unseen[v] while sources[b] has not reached v.  Each
    level ORs the `new` masks of every clique, then every node that some
    source has not reached ORs the masks of its cliques and keeps the unseen
    bits; the last level that grows is the answer.
    """
    full = (1 << len(sources)) - 1
    new = {v: 1 << b for b, v in enumerate(sources)}
    unseen = dict.fromkeys(nodes, full)
    for v, m in new.items():
        unseen[v] = full ^ m
    todo, depth, zeros = nodes, 0, repeat(0)
    while todo:
        # new.get(v, 0) for every member v
        reach = [reduce(or_, map(new.get, c, zeros), 0) for c in cliques]
        new = {}  # frees this level's masks before the next level's grow
        for w in todo:
            u = unseen[w]
            m = reduce(or_, map(reach.__getitem__, member_of[w]), 0) & u
            if m:
                unseen[w] = u ^ m
                new[w] = m
        if not new:
            break
        del reach  # before the next level builds its own
        depth += 1
        todo = [w for w in todo if unseen[w]]
    return depth


def _splitmix64(state: int):
    """SplitMix64: the documented PRNG behind recom_walk traces."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z ^ (z >> 31)


def recom_walk(
    g: Graph, k: int, slack: SlackBound, start: Partition, steps: int, seed: int
) -> WalkTrace:
    """Seeded uniform random walk over recombination moves.

    Each step lists the applicable moves as vertex masks in enumerate_moves
    order, picks one by SplitMix64 output modulo the move count and builds
    the district sets of that one only; a seed always gives the same trace.
    """
    _require_valid(g, start, k, slack, "start partition")
    rng = _splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    cur = start
    masks = list(map(_mask, start.districts))
    trace: list[tuple[int, PartitionKey]] = []
    halted = False
    splits: dict = {}
    pairs = _pair_list(k, None)
    for _ in range(steps):
        moves = _move_masks(g, masks, slack, pairs, splits)
        if not moves:
            halted = True
            break
        idx = next(rng) % len(moves)
        i, j, a, b = moves[idx]
        masks[i], masks[j] = a, b
        cur = cur.replace(i, j, _vertex_set(a), _vertex_set(b))
        trace.append((idx, canonical_key(cur)))
    return WalkTrace(seed, canonical_key(start), tuple(trace), halted)
