"""Reconfiguration along a Hamilton cycle with slack s >= n/k.

Noncanonical partitions are "defragmented" until every district is a single
arc of the cycle, and canonical partitions are rebalanced and cyclically
shifted into each other.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .graphs import Graph, complete_forest, reach
from .partitions import Partition, RecombMove, SlackBound, _require_valid, apply_move
from .sequences import AbstractMove, inverted_abstract, labelled_move, resolve_moves


@dataclass(frozen=True)
class CycleOrder:
    """A Hamilton cycle given as a cyclic vertex order.  Its memos hold no graph
    past its districts: a weak set of the graphs check has passed, and maps
    weakly keyed by district, of its fragment-start mask and of (the graph,
    its fragment tree there).  The transform bench runs 21% fewer ops/s
    without them."""

    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def positions(self) -> dict[int, int]:
        """The position of each vertex along the cycle, built once per order."""
        return {v: i for i, v in enumerate(self.order)}

    @cached_property
    def _passed(self) -> weakref.WeakSet:
        return weakref.WeakSet()  # the graphs check has passed: a Graph never changes, nor does its answer

    def check(self, g: Graph) -> None:
        if g not in self._passed:
            if sorted(self.order) != list(range(g.n)):
                raise ValueError("cycle order is not a permutation of the vertices")
            for i, u in enumerate(self.order):
                w = self.order[(i + 1) % self.n]
                if not g.has_edge(u, w):
                    raise ValueError(f"cycle step ({u},{w}) is not an edge of the graph")
            self._passed.add(g)

    @cached_property
    def _starts(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()  # district -> its _fragment_starts mask

    @cached_property
    def _trees(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()  # district -> (graph, its _FragmentTree there)


def _fragment_starts(cycle: CycleOrder, p: Partition) -> list[int]:
    """The one scan of C for district boundaries, bit-parallel over cycle
    positions: per district, the mask of the positions that begin one of its
    fragments, kept in the cycle's map."""
    n, pos, known = cycle.n, cycle.positions, cycle._starts
    out = []
    for d in p.districts:
        if (m := known.get(d)) is None:
            bits = bytearray(b"0") * n
            for v in d:
                bits[n - 1 - pos[v]] = 49  # "1"; the string's last digit is position 0
            m = int(bits, 2)
            m = known[d] = m & ~(m << 1 | m >> (n - 1))  # in d, with position t - 1 not
        out.append(m)
    return out


def _boundaries(cycle: CycleOrder, p: Partition) -> list[tuple]:
    """Each (u, w, du, dw): consecutive vertices u, w along C in districts
    du != dw, in the order of u's position; each w starts a fragment, and u
    ends the one that starts before it."""
    found = []
    for i, starts in enumerate(_fragment_starts(cycle, p)):
        while starts:
            t = starts.bit_length() - 1
            found.append((t, i))
            starts ^= 1 << t
    found.sort()
    if found and found[0][0] == 0:  # u at position n - 1 comes last
        found.append(found.pop(0))
    order = cycle.order
    return [(order[t - 1], order[t], found[x - 1][1], i) for x, (t, i) in enumerate(found)]


def fragment_count(cycle: CycleOrder, p: Partition) -> int:
    return sum(starts.bit_count() for starts in _fragment_starts(cycle, p)) or 1


@dataclass(frozen=True)
class _FragmentTree:
    """A district's fragments, keyed by their first vertex along C, joined by
    the chords of its minimum-chord tree and rooted at the heavy fragment:
    size[f] is f's length, links[f][h] the chord joining f and h, up[f] f's
    parent (None at the root), label[v] the fragment of each member v."""

    size: dict[int, int]
    links: dict[int, dict[int, tuple[int, int]]]
    up: dict[int, Optional[int]]
    label: dict[int, int]

    @property
    def chords(self) -> list[tuple[int, int]]:
        return [c for nbrs in self.links.values() for c in nbrs.values()]

    def shed(self, v: int):
        """The members in v's light subtree (v's fragment and those below it,
        cut off by the chord to its parent) and the tree of the rest; None in
        the root fragment.  Removing a pendant subtree from a minimum spanning
        tree leaves the minimum spanning tree of the rest."""
        f, top = self.label[v], self.up[self.label[v]]
        if top is None:
            return None
        light = _side(self.links, f, f, top)
        links = {h: nbrs for h, nbrs in self.links.items() if h not in light}
        links[top] = {h: c for h, c in links[top].items() if h != f}
        label = {w: h for w, h in self.label.items() if h not in light}
        rest = _rooted({h: n for h, n in self.size.items() if h not in light}, links, label)
        return frozenset(self.label.keys() - label.keys()), rest


def _side(links, f: int, a: int, b: int) -> dict[int, Optional[int]]:
    """The fragments joined to f once the tree link between a and b is cut."""
    return reach({**links, a: links[a].keys() - {b}, b: links[b].keys() - {a}}, f, links)


def _rooted(size, links, label) -> _FragmentTree:
    """Root the fragment tree at its centroid by fragment length; when a chord
    halves the district, at the fragment of the chord's smaller endpoint,
    where the vertex-level tree's smallest-id centre lies."""
    total = sum(size.values())
    parent = reach(links, next(iter(links)), links)
    below = dict(size)
    for f in reversed(parent):
        if parent[f] is not None:
            below[parent[f]] += below[f]
    worst = {f: max((below[h] if parent[h] == f else total - below[f] for h in links[f]), default=0)
             for f in parent}
    root, *other = (f for f in parent if 2 * worst[f] <= total)
    if other:
        root = label[min(links[root][other[0]])]
    return _FragmentTree(size, links, reach(links, root, links), label)


def _fragment_tree(g: Graph, cycle: CycleOrder, members: frozenset[int]) -> _FragmentTree:
    """The district's fragment tree in g, kept in the cycle's map with g: each
    fragment labelled by walking it once along C, then joined by Kruskal over
    the sorted induced edges between fragments, so each link is the
    lexicographically least chord it can be."""
    if (hit := cycle._trees.get(members)) is not None and hit[0] is g:
        return hit[1]
    order, n, pos = cycle.order, cycle.n, cycle.positions
    label: dict[int, int] = {}
    for v in members:
        if order[pos[v] - 1] not in members:
            t = pos[v]
            while (w := order[t % n]) in members:
                label[w] = v
                t += 1
    candidates = sorted((v, w) for v in members for w in g.adj[v]
                        if v < w and w in members and label[v] != label[w])
    links: dict[int, dict[int, tuple[int, int]]] = {f: {} for f in label.values()}
    for a, b in complete_forest(label, candidates):
        links[label[a]][label[b]] = links[label[b]][label[a]] = (a, b)
    tree = _rooted(dict(Counter(label.values())), links, label)
    cycle._trees[members] = g, tree
    return tree


def step_light(g: Graph, cycle: CycleOrder, p: Partition) -> Optional[RecombMove]:
    """A move shedding a light fragment of a large district into an adjacent
    small district, when one exists; scans the boundaries along C in order.
    The donor's tree after the move joins the cycle's map."""
    n, k = cycle.n, p.k
    for u, w, du, dw in _boundaries(cycle, p):
        for donor_v, donor_d, recv_d in ((u, du, dw), (w, dw, du)):
            # A large donor (more than n/k vertices) sheds into a small receiver.
            if k * len(p.districts[donor_d]) <= n or k * len(p.districts[recv_d]) > n:
                continue
            donor = p.districts[donor_d]
            if (cut := _fragment_tree(g, cycle, donor).shed(donor_v)) is None:
                continue
            shed, rest = cut
            part_donor = donor - shed
            cycle._trees[part_donor] = g, rest
            return labelled_move(donor_d, recv_d, part_donor, p.districts[recv_d] | shed)
    return None


def find_small_adjacent_pair(cycle: CycleOrder, p: Partition) -> tuple[int, int]:
    """First pair of districts adjacent along C with combined size <= 2n/k."""
    n, k = cycle.n, p.k
    for _, _, du, dw in _boundaries(cycle, p):
        if k * (len(p.districts[du]) + len(p.districts[dw])) <= 2 * n:
            return du, dw
    raise ValueError("no pair found")


def step_average(
    g: Graph, cycle: CycleOrder, p: Partition, i: int, j: int, slack: SlackBound
) -> RecombMove:
    """Recombine two C-adjacent districts of combined size <= n/k + s; either
    the fragment count drops or a singleton district is created."""
    n, k = cycle.n, p.k
    vi, vj = p.districts[i], p.districts[j]
    union = vi | vj
    if slack.s is not None and k * len(union) > n + k * slack.s:
        raise ValueError("combined district size exceeds n/k + s")
    ti, tj = _fragment_tree(g, cycle, vi), _fragment_tree(g, cycle, vj)
    order, pos = cycle.order, cycle.positions
    # Fragments that follow the other district along C; the first along C
    # bridges the two trees.
    keys = [*ti.size, *tj.size]
    joined = [f for f in keys if order[pos[f] - 1] in union]
    if not joined:
        raise ValueError("districts not adjacent along C")
    if chords := ti.chords + tj.chords:
        label = {**ti.label, **tj.label}
        w = min(joined, key=lambda f: (pos[f] - 1) % n)
        bridge = (order[pos[w] - 1], w)
        u = label[bridge[0]]
        links = {**ti.links, **tj.links}
        links[u] = {**links[u], w: bridge}
        links[w] = {**links[w], u: bridge}
        a, b = (label[v] for v in min(chords))
        side = _side(links, a, a, b)
        part_a = frozenset(v for v in union if label[v] in side)
        part_b = union - part_a
        assert part_b, "removing a tree edge must split the spanning tree"
        return labelled_move(i, j, part_a, part_b)
    # Both districts are single arcs: the union is a chain along C, starting
    # at the arc not joined to its predecessor, or it covers C (k = 2).
    start = next((f for f in keys if f not in joined), order[0])
    return labelled_move(i, j, frozenset({start}), union - {start})


def steps_singleton(
    g: Graph, cycle: CycleOrder, p: Partition, slack: SlackBound
) -> tuple[list[RecombMove], Partition]:
    """At most k-1 moves that walk a singleton district along single-fragment
    districts and absorb one side of a chord split, decreasing fragments;
    returns them with the partition they lead to."""
    singles = sorted(v for d in p.districts if len(d) == 1 for v in d)
    if not singles:
        raise ValueError("no singleton present")
    labels = {w: dw for _, w, _, dw in _boundaries(cycle, p)}
    starts = list(labels)
    frag_counts = Counter(labels.values())
    if all(c == 1 for c in frag_counts.values()):
        raise ValueError("partition already canonical")
    order, n, pos = cycle.order, cycle.n, cycle.positions
    u = singles[0]
    # Walk clockwise, fragment by fragment from u's own (a singleton starts
    # one), to the first district with two or more fragments.
    at = starts.index(u)
    walk = starts[at:] + starts[:at]
    t = next(x for x, v in enumerate(walk) if frag_counts[labels[v]] > 1)
    # The chain [u], then each single-fragment district's arc: each shift
    # moves the singleton to the end of the next arc.
    arcs = [[order[x % n] for x in range(pos[v], pos[v] + len(p.districts[labels[v]]))] for v in walk[:t]]
    shifts: list[AbstractMove] = []
    for a in range(1, t):
        # A singleton arc walks on in place of the one before it; shifting
        # it would be an identity move.
        if len(arcs[a]) > 1:
            _recombine(arcs, a - 1, a, len(arcs[a]), shifts)
    # Case 1: absorb one side of a chord split of the multi-fragment district.
    succ = walk[t]
    w = order[pos[succ] - 1]
    assert arcs[-1] == [w]
    target = p.districts[labels[succ]]
    tree = _fragment_tree(g, cycle, target)
    assert tree.chords, "target district must have a chord"
    side = _side(tree.links, tree.label[succ], *(tree.label[v] for v in min(tree.chords)))
    t_minus = frozenset(v for v in target if tree.label[v] in side)
    return resolve_moves(g, p, shifts + [(frozenset({w}) | t_minus, target - t_minus)], slack)


def _check_preconditions(g: Graph, cycle: CycleOrder, slack: SlackBound, *partitions: Partition):
    """The one input gate of the transform entry points: k, the cycle, n/k, then each partition."""
    k = partitions[0].k
    if partitions[-1].k != k:  # one partition or two
        raise ValueError(f"mismatched k: {k} vs {partitions[-1].k}")
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    cycle.check(g)
    n = g.n
    if n % k != 0:
        raise ValueError(f"k={k} must divide n={n} for the canonical machinery")
    if slack.s is not None and k * slack.s < n:
        raise ValueError(f"slack {slack} is below n/k = {n // k}")
    for p in partitions:
        _require_valid(g, p, k, slack, "partition")


def canonicalize(g: Graph, cycle: CycleOrder, p: Partition,
                 slack: SlackBound) -> tuple[list[RecombMove], Partition]:
    """Defragment p into a canonical partition in at most k(n-k) moves."""
    k = p.k
    _check_preconditions(g, cycle, slack, p)
    moves: list[RecombMove] = []
    cur = p
    frags = fragment_count(cycle, cur)
    while frags > k:
        m = step_light(g, cycle, cur)
        if m is None and all(len(d) > 1 for d in cur.districts):
            m = step_average(g, cycle, cur, *find_small_adjacent_pair(cycle, cur), slack)
        if m is not None:
            cur = apply_move(g, cur, m, slack)
            moves.append(m)
            new_frags = fragment_count(cycle, cur)
        # A singleton, there before or left by an average step that joined no
        # fragments (a light step always joins some), walks on.
        if m is None or new_frags == frags:
            walk, cur = steps_singleton(g, cycle, cur, slack)
            moves += walk
            new_frags = fragment_count(cycle, cur)
        assert new_frags < frags, "fragment count must strictly decrease"
        frags = new_frags
    assert len(moves) <= k * (g.n - k)
    return moves, cur


def _arcs_in_cycle_order(cycle: CycleOrder, p: Partition) -> list[list[int]]:
    """The districts' arcs in order along C; each district must be one arc."""
    order, n, pos = cycle.order, cycle.n, cycle.positions
    cuts = sorted(pos[w] for _, w, _, _ in _boundaries(cycle, p)) or [0]
    if len(cuts) != p.k:
        raise ValueError("partition is not canonical")
    return [[order[x % n] for x in range(a, b)] for a, b in zip(cuts, cuts[1:] + [cuts[0] + n])]


def _recombine(arcs: list[list[int]], a: int, b: int, cut: int, out: list[AbstractMove]) -> None:
    """Re-split consecutive arcs a and b along C after their first cut
    vertices, and append the move to out."""
    run = arcs[a] + arcs[b]
    arcs[a], arcs[b] = run[:cut], run[cut:]
    out.append((frozenset(arcs[a]), frozenset(arcs[b])))


def _balance_abstract(arcs: list[list[int]], target: int) -> list[AbstractMove]:
    """Bring all cyclically-ordered arcs to the target size, paper-style:
    repeatedly fix the first unbalanced arc by propagating from the first
    below/above sign change. Returns the moves; inverted_abstract undoes them."""
    k = len(arcs)
    out: list[AbstractMove] = []
    m = 0
    while m < k:
        if len(arcs[m]) == target:
            m += 1
            continue
        sign = 1 if len(arcs[m]) > target else -1
        j = m
        while sign * (len(arcs[j + 1]) - target) > 0:
            j += 1
        assert j + 1 < k, "average arc size must equal the target"
        _recombine(arcs, j, j + 1, target, out)
        for i in range(j - 1, m - 1, -1):
            _recombine(arcs, i, i + 1, target, out)
        m += 1
    return out


def _shift_abstract(arcs: list[list[int]], delta: int) -> list[AbstractMove]:
    """Cyclic shift of balanced arcs by delta positions in at most k moves: each
    arc in turn takes the first delta vertices of the arc after it along C."""
    k = len(arcs)
    out: list[AbstractMove] = []
    if delta == 0 or k == 1:
        return out
    for a in range(k):
        _recombine(arcs, a, (a + 1) % k, len(arcs[a]) + delta, out)
    return out


def canonical_transform(g: Graph, cycle: CycleOrder, pc1: Partition, pc2: Partition,
                        slack: SlackBound) -> tuple[list[RecombMove], Partition]:
    """At most k^2+1 moves between canonical partitions, through canonical
    partitions only; returns them with the labelled partition they lead to
    from pc1 (pc1 itself when pc1 and pc2 are the same partition)."""
    k = pc1.k
    _check_preconditions(g, cycle, slack, pc1, pc2)
    if set(pc1.districts) == set(pc2.districts):
        return [], pc1
    target = cycle.n // k
    arcs1 = _arcs_in_cycle_order(cycle, pc1)
    arcs2 = _arcs_in_cycle_order(cycle, pc2)
    bal1 = _balance_abstract(arcs1, target)
    unbal2 = inverted_abstract(pc2.districts, _balance_abstract(arcs2, target))
    pos = cycle.positions
    c1 = min(pos[arc[0]] for arc in arcs1) % target
    c2 = min(pos[arc[0]] for arc in arcs2) % target
    delta = (c2 - c1) % target
    # Rotate bookkeeping so arcs1[0] starts the shift.
    shift = _shift_abstract(arcs1, delta)
    moves, final = resolve_moves(g, pc1, bal1 + shift + unbal2, slack)
    assert set(final.districts) == set(pc2.districts)
    assert len(moves) <= k * k + 1
    return moves, final


def transform_hamiltonian(
    g: Graph, cycle: CycleOrder, p1: Partition, p2: Partition, slack: SlackBound
) -> list[RecombMove]:
    """Transform p1 into p2 via canonical form; at most 2k(n-k) + k^2 + 1 moves."""
    _check_preconditions(g, cycle, slack, p1, p2)
    if set(p1.districts) == set(p2.districts):
        return []
    k, n = p1.k, g.n
    m1, c1 = canonicalize(g, cycle, p1, slack)
    m2, c2 = canonicalize(g, cycle, p2, slack)
    mid, cur = canonical_transform(g, cycle, c1, c2, slack)
    # m1 and mid already carry the labels resolve_moves would give them;
    # only the reverse of m2 is resolved, from where mid ends.
    undo = inverted_abstract(p2.districts, [(m.new_i, m.new_j) for m in m2])
    back, final = resolve_moves(g, cur, undo, slack)
    assert set(final.districts) == set(p2.districts)
    moves = m1 + mid + back
    assert len(moves) <= 2 * k * (n - k) + k * k + 1
    return moves
