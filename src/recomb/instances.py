"""Instance generators: standard families and the chord-split cycle family
used as a reconfiguration stress instance.
"""

from __future__ import annotations

import random

from .graphs import Graph, check_edge_count, check_vertex_count
from .hamiltonian import CycleOrder
from .partitions import Partition


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    check_vertex_count(n)
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    check_vertex_count(n)
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def gen_grid(w: int, h: int) -> Graph:
    if w < 1 or h < 1:
        raise ValueError("grid needs w, h >= 1")
    check_vertex_count(w * h)
    edges = set()
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.add((v, v + 1))
            if y + 1 < h:
                edges.add((v, v + w))
    return Graph(w * h, edges)


def gen_random_connected(n: int, m: int, seed: int) -> Graph:
    """Random connected graph: a random recursive tree plus random extra
    edges; deterministic for a given seed.  The tree is not uniform over
    labelled trees: at n=4 it is a star a third of the time, not a quarter."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_vertex_count(n)
    check_edge_count(m)
    if m < n - 1 or m > n * (n - 1) // 2:
        raise ValueError(f"m={m} outside [{n-1}, {n*(n-1)//2}]")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    # Random recursive tree: in shuffled order, each vertex joins a uniformly
    # random earlier one.
    order = list(range(n))
    rng.shuffle(order)
    for idx in range(1, n):
        a, b = order[idx], order[rng.randrange(idx)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(n, edges)


def arc_partition(n: int, k: int) -> Partition:
    """The contiguous-arcs partition of a cycle on vertices 0..n-1."""
    if n % k != 0:
        raise ValueError("k must divide n")
    t = n // k
    return Partition.of([range(i * t, (i + 1) * t) for i in range(k)])


def gen_negative(k: int, s: int) -> tuple[Graph, Partition, CycleOrder]:
    """A Hamiltonian planar graph on n = k(3s+2) vertices: a cycle plus four
    chords, with a partition pA of four chord-split special districts.

    Each special district consists of two disjoint arcs joined by its own
    chord, so the chord is critical for the district's connectivity.  Removing
    the chords would split districts A and B into components of sizes 2s+1 and
    s+1, and districts C and D into near-halves of 3s+2.  Fixed clockwise arc
    schedule (arc lengths, district letters):

        A1=2s+1(A)  B1=2s+1(B)  [extras of 3s+2 each, for k > 4]
        C1=ceil((3s+2)/2)(C)  A2=s+1(A)  C2=floor((3s+2)/2)(C)
        D1=ceil((3s+2)/2)(D)  B2=s+1(B)  D2=floor((3s+2)/2)(D)

    Chord endpoints are pinned so that every arc of the cycle strictly
    between endpoints of distinct chords has at most 2s+1 vertices, except
    the A1/B1 region:  chord A joins the first vertex of A1 to the vertex of
    A2 at offset 2s+1-ceil((3s+2)/2); chord B joins the last vertex of B1 to
    the vertex of B2 at the same offset; chords C and D join the outer ends
    of their two half arcs (a window of 4s+3 consecutive vertices each).

    Despite the locking intent, pA is not locked at slack s for s in {1, 2}:
    a merge can place two critical chords inside one district and release a
    chordless contiguous district of legal size, and from there the
    contiguous-arcs partition is reachable.  At slack 1 the larger members
    do lock.  Measured with decide_br from pA to arc_partition(n, 4):

        (4,1): slack 1 reaches it in 8 moves; at slack 0 pA's component
               has 4 partitions.
        (4,2): slack 1 is locked, 167 partitions, all chord-split;
               slack 2 reaches it in 6 moves.
        (4,3): slack 1 is locked, 300 partitions, all chord-split;
               slack 2 reaches it in 8 moves.

    No chord placement rescues (4,1) at slack 1: over all 6**4 = 1,296
    placements with one endpoint in each arc of its district, every search
    reaches a partition that is not chord-split (tools/certify_negative.py).
    """
    if k < 4 or s < 1:
        raise ValueError("need k >= 4 and s >= 1")
    n = k * (3 * s + 2)
    check_vertex_count(n)
    size = 3 * s + 2
    half_hi = (size + 1) // 2
    half_lo = size // 2
    schedule = [
        ("A", 2 * s + 1),
        ("B", 2 * s + 1),
    ]
    for x in range(k - 4):
        schedule.append((f"E{x}", size))
    schedule += [
        ("C", half_hi),
        ("A", s + 1),
        ("C", half_lo),
        ("D", half_hi),
        ("B", s + 1),
        ("D", half_lo),
    ]
    assert sum(length for _, length in schedule) == n
    arcs: dict[str, list[tuple[int, int]]] = {}
    members: dict[str, list[int]] = {}
    pos = 0
    for name, length in schedule:
        arcs.setdefault(name, []).append((pos, length))
        members.setdefault(name, []).extend(range(pos, pos + length))
        pos += length
    off = 2 * s + 1 - half_hi
    edges = {(i, (i + 1) % n) for i in range(n)}
    for name, (end1, end2) in (
        ("A", (0, off)),          # first vertex of A1, offset into A2
        ("B", (2 * s, off)),      # last vertex of B1, offset into B2
        ("C", (0, half_lo - 1)),  # outer ends of the two half arcs
        ("D", (0, half_lo - 1)),
    ):
        (p1, _), (p2, _) = arcs[name]
        a, b = p1 + end1, p2 + end2
        edges.add((min(a, b), max(a, b)))
    g = Graph(n, edges)
    district_order = ["A", "B", "C", "D"] + [f"E{x}" for x in range(k - 4)]
    pa = Partition.of([members[name] for name in district_order])
    return g, pa, CycleOrder(tuple(range(n)))
