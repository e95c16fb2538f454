"""Shared tier-1 helpers: seeded graph and partition builders, file helpers
and brute-force references.  Test modules import them from here rather than
keep copies; plain cycles, paths and grids come from recomb.instances."""

import itertools

from recomb.graphs import Graph, is_connected, reach
from recomb.hamiltonian import CycleOrder
from recomb.partitions import SLACK_INF, Partition, validate


def read(path):
    with open(path) as fh:
        return fh.read()


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cycle_graph(n, chords=()):
    """The cycle 0, 1, ..., n-1 plus the given chords."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {(min(a, b), max(a, b)) for a, b in chords}
    return Graph(n, edges)


def serpentine(w, h):
    """Hamilton cycle of the w x h grid (vertex y*w+x, h even): boustrophedon
    over columns 1..w-1, back along column 0."""
    order = []
    for y in range(h):
        xs = range(1, w) if y % 2 == 0 else range(w - 1, 0, -1)
        order.extend(y * w + x for x in xs)
    order.extend(y * w for y in range(h - 1, -1, -1))
    return CycleOrder(tuple(order))


def random_connected(rng, n, extra=4):
    """A random recursive tree on n vertices plus up to `extra` random edges."""
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


def random_cycle_with_chords(rng, n, chords=3):
    """A Hamilton cycle through a shuffled vertex order plus `chords` random
    pairs (a pair may repeat or be a cycle step); returns (graph, cycle)."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(chords)}
    return Graph(n, edges), CycleOrder(tuple(order))


def random_partition(rng, g, k, slack=SLACK_INF, tries=300):
    """Region growth from k random seeds: each step labels a random free
    neighbour of a random frontier vertex.  Returns the first of `tries`
    draws that is a (k, slack)-BCP of g, or None when all of them miss."""
    for _ in range(tries):
        seeds = rng.sample(range(g.n), k)
        assign = {v: i for i, v in enumerate(seeds)}
        frontier = list(seeds)
        while len(assign) < g.n:
            grow = [v for v in frontier for w in g.adj[v] if w not in assign]
            if not grow:
                break
            v = rng.choice(grow)
            w = rng.choice([x for x in g.adj[v] if x not in assign])
            assign[w] = assign[v]
            frontier.append(w)
        if len(assign) < g.n:
            continue
        p = Partition.of([[v for v in range(g.n) if assign[v] == i] for i in range(k)])
        if validate(g, p, k, slack).ok:
            return p
    return None


def tree_center(adj) -> int:
    """A center of the tree given by neighbour lists keyed by vertex: every
    component of T-v has at most |V(T)|/2 vertices.

    Smallest id when several centers exist.  The fragment trees of
    recomb.hamiltonian are checked against it; no library code calls it.
    """
    nt = len(adj)
    # Subtree sizes below each vertex of the BFS from the smallest vertex.
    parent = reach(adj, min(adj), adj)
    size = dict.fromkeys(adj, 1)
    for u in reversed(parent):
        if parent[u] is not None:
            size[parent[u]] += size[u]
    # The largest component of T-v: a child's subtree, or all but v's own.
    worst = {v: max((size[w] if parent[w] == v else nt - size[v] for w in adj[v]), default=0)
             for v in adj}
    center = min(adj, key=lambda v: (worst[v], v))
    assert 2 * worst[center] <= nt
    return center


def brute_moves(g, p, slack):
    """Reference enumeration: split every connected union every possible way."""
    results = set()
    k = p.k
    for i, j in itertools.combinations(range(k), 2):
        union = p.districts[i] | p.districts[j]
        if not is_connected(g, union):
            continue
        verts = sorted(union)
        for r in range(1, len(verts)):
            for sub in itertools.combinations(verts, r):
                a = frozenset(sub)
                b = union - a
                if min(union) not in a:
                    continue
                if not (is_connected(g, a) and is_connected(g, b)):
                    continue
                if not (slack.size_ok(g.n, k, len(a)) and slack.size_ok(g.n, k, len(b))):
                    continue
                if {a, b} == {p.districts[i], p.districts[j]}:
                    continue
                results.add((i, j, a, b))
    return results
