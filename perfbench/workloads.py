"""Seeded instance generators for the benchmark.

Partitions come from a balanced region-growing generator owned by the
benchmark, so that no code under test produces its own inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

from recomb.instances import arc_partition, gen_negative


def grid_edges(w: int, h: int) -> list[tuple[int, int]]:
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return edges


def serpentine_cycle(w: int, h: int) -> list[int]:
    """Hamilton cycle of the w x h grid (vertex y*w+x, h even): boustrophedon
    over columns 1..w-1, back along column 0."""
    if h % 2 or w < 2:
        raise ValueError("serpentine cycle needs an even height and w >= 2")
    order = []
    for y in range(h):
        xs = range(1, w) if y % 2 == 0 else range(w - 1, 0, -1)
        order.extend(y * w + x for x in xs)
    order.extend(y * w for y in range(h - 1, -1, -1))
    return order


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def region_grow(adj, k: int, lo: int, hi: int, rng: random.Random, tries: int = 1000) -> list[int]:
    """Labels of a connected k-partition with district sizes in [lo, hi].

    Grows k districts from random seeds, always extending the smallest one
    that still has a free neighbour by a random free neighbour; retries until
    the sizes fit.
    """
    n = len(adj)
    for _ in range(tries):
        label = [-1] * n
        sizes = [1] * k
        seeds = rng.sample(range(n), k)
        for d, v in enumerate(seeds):
            label[v] = d
        # Free neighbours of each district; entries go stale as vertices fill.
        cands = [[w for w in adj[v] if label[w] < 0] for v in seeds]
        free = n - k
        growing = set(range(k))
        while free and growing:
            d = min(growing, key=lambda x: (sizes[x], x))
            c = cands[d]
            while c:
                i = rng.randrange(len(c))
                w = c[i]
                c[i] = c[-1]
                c.pop()
                if label[w] < 0:
                    break
            else:
                growing.discard(d)
                continue
            label[w] = d
            sizes[d] += 1
            free -= 1
            c.extend(x for x in adj[w] if label[x] < 0)
        if not free and lo <= min(sizes) and max(sizes) <= hi:
            return label
    raise RuntimeError("region growing found no balanced partition")


def _label_text(label: list[int], k: int) -> str:
    return f"k {k}\n" + " ".join(map(str, label)) + "\n"


def _graph_text(n: int, edges) -> str:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    return f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


class Op:
    """One CLI invocation. `weight` is how many ops it counts as (walk steps
    of a sample walk, 1 otherwise); `info` carries what its check needs."""

    def __init__(self, kind: str, argv: list[str], weight: int = 1, **info):
        self.kind = kind
        self.argv = argv
        self.weight = weight
        self.info = info


class Plan:
    """The ops of one workload, generated at set-up. A run executes the whole
    `pool` as one round, as many rounds as fit, so every run of a seed does
    the same work in the same order."""

    pool: list[Op]


# Explore: fixed instances in a fixed order, so their statistics are pinned
# and their cost is the same for every seed. Relabelling vertices changes
# enumeration cost up to 5x, and reordering the round moves its time by ~20%.
# Each space takes 0.25-2 s, so a run repeats the round about five times;
# with an odd count the median op is always the same instance (cycle20).
EXPLORE_INSTANCES = ("grid6x2_k4_s1", "grid4x3_k4_s1", "cycle20_k4_s2", "grid5x3_k3_s1",
                     "grid8x2_k4_s1")


class ExplorePlan(Plan):
    def __init__(self, seed: int, work: str):
        graphs = {
            "grid6x2_k4_s1": (12, grid_edges(6, 2), 4, 1),
            "grid4x3_k4_s1": (12, grid_edges(4, 3), 4, 1),
            "cycle20_k4_s2": (20, [(i, (i + 1) % 20) for i in range(20)], 4, 2),
            "grid5x3_k3_s1": (15, grid_edges(5, 3), 3, 1),
            "grid8x2_k4_s1": (16, grid_edges(8, 2), 4, 1),
        }
        self.pool = []
        for name in EXPLORE_INSTANCES:
            n, edges, k, s = graphs[name]
            path = _write(f"{work}/{name}.graph", _graph_text(n, edges))
            argv = ["explore", "--graph", path, "--k", str(k), "--slack", str(s)]
            self.pool.append(Op("explore", argv, instance=name))


# Decide: grid 6x5, k=6, s=0 (every district has 5 vertices). Each pair is a
# seeded partition `a` and the `b` made from it by re-splitting three
# disjoint pairs of adjacent districts. A move changes two districts, so the
# shortest path has exactly DECIDE_DISTANCE moves for every seed, and the
# query cost (0.04-0.17 s) has one mode. Random pairs at 1-5 moves cost
# 0.003-0.4 s, and their median latency followed the seed's mix of lengths.
DECIDE_GRID = (6, 5, 6, 0)
DECIDE_DISTANCE = 3
DECIDE_POOL = 220  # pairs, all in one round: about 20 s


def district_pairs(adj, label: list[int], k: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random maximal set of disjoint pairs of adjacent districts."""
    near = [set() for _ in range(k)]
    for v, ws in enumerate(adj):
        for w in ws:
            if label[v] != label[w]:
                near[label[v]].add(label[w])
    order = list(range(k))
    rng.shuffle(order)
    used: set[int] = set()
    pairs = []
    for d in order:
        free = sorted(near[d] - used) if d not in used else []
        if free:
            e = rng.choice(free)
            used |= {d, e}
            pairs.append((d, e))
    return pairs


def connected(adj, vertices: frozenset) -> bool:
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def resplit(adj, label: list[int], i: int, j: int, lo: int, hi: int,
            rng: random.Random) -> list[int] | None:
    """`label` with districts i and j replaced by a random other connected
    split of their union (sizes in [lo, hi]), or None if there is none."""
    union = [v for v in range(len(adj)) if label[v] in (i, j)]
    members = frozenset(union)
    old = frozenset(v for v in union if label[v] == i)
    splits = []
    # Each split once: the part that holds union[0].
    for size in range(lo, hi + 1):
        for rest in combinations(union[1:], size - 1):
            part = frozenset((union[0],) + rest)
            other = members - part
            if (lo <= len(other) <= hi and part not in (old, members - old)
                    and connected(adj, part) and connected(adj, other)):
                splits.append(part)
    if not splits:
        return None
    part = rng.choice(splits)
    new = list(label)
    for v in union:
        new[v] = i if v in part else j
    return new


def moved_apart(adj, a: list[int], k: int, lo: int, hi: int, rng: random.Random,
                moves: int) -> list[int] | None:
    """`a` with `moves` disjoint pairs of adjacent districts re-split: 2*moves
    districts differ and a move replaces two, so it is exactly `moves` moves
    from `a`. None if no such pairs turn up."""
    for _ in range(20):
        pairs = district_pairs(adj, a, k, rng)
        if len(pairs) < moves:
            continue
        b = a
        for i, j in pairs[:moves]:
            b = resplit(adj, b, i, j, lo, hi, rng)
            if b is None:
                break
        else:
            return b
    return None


class DecidePlan(Plan):
    def __init__(self, seed: int, work: str):
        rng = random.Random(seed)
        w, h, k, s = DECIDE_GRID
        n = w * h
        edges = grid_edges(w, h)
        adj = adjacency(n, edges)
        size = n // k
        gpath = _write(f"{work}/grid.graph", _graph_text(n, edges))
        self.pool = []
        # The criterion-5 query: gen_negative(4,1)'s pA to the arc partition.
        g, pa, _ = gen_negative(4, 1)
        pb = arc_partition(g.n, 4)
        neg = _write(f"{work}/negative.graph", _graph_text(g.n, g.edges))
        self.pool.append(self._op(work, 0, neg, _labels(pa, g.n), _labels(pb, g.n), 4, 1, None))
        # Each start is a further DECIDE_DISTANCE re-splits on from the last
        # target: a walk of the benchmark's own, much cheaper than growing
        # every start afresh with exact sizes.
        b = region_grow(adj, k, size - s, size + s, rng)
        while len(self.pool) < DECIDE_POOL:
            a = moved_apart(adj, b, k, size - s, size + s, rng, DECIDE_DISTANCE)
            b = a and moved_apart(adj, a, k, size - s, size + s, rng, DECIDE_DISTANCE)
            if b is None:
                b = region_grow(adj, k, size - s, size + s, rng)
                continue
            self.pool.append(self._op(work, len(self.pool), gpath, a, b, k, s,
                                      DECIDE_DISTANCE))

    @staticmethod
    def _op(work, index, gpath, a, b, k, s, distance):
        name = f"pair{index}"
        fa = _write(f"{work}/{name}.a.part", _label_text(a, k))
        fb = _write(f"{work}/{name}.b.part", _label_text(b, k))
        out = f"{work}/{name}.path"
        argv = ["decide", "--graph", gpath, "--from", fa, "--to", fb,
                "--k", str(k), "--slack", str(s), "--out", out]
        return Op("decide", argv, index=index, graph=gpath, a=fa, b=fb, k=k, s=s, out=out,
                  distance=distance)


def _labels(p, n: int) -> list[int]:
    label = [0] * n
    for d, members in enumerate(p.districts):
        for v in members:
            label[v] = d
    return label


# Sample: seeded walks on 8x8 with k=8, each from its own seeded region-grown
# start, and one round is the whole pool, so every run walks the same walks.
# Walks from row strips spend their first steps on ladder-shaped unions with
# few splits, so their cost followed where each seed's walks went. Walks on
# 10x10 with k=10 (0.3 s a step) fit only ~40 states in a run, and the
# largest move list among them set peak RSS: it spread 12% between seeds.
SAMPLE_WALKS = (
    # name, width, height, k, slack, steps per walk
    ("grid8x8_k8_s1", 8, 8, 8, 1, 5),
)
SAMPLE_POOL = 90  # walks of each kind: about 20 s


class SamplePlan(Plan):
    def __init__(self, seed: int, work: str):
        rng = random.Random(seed)
        self.pool = []
        grids = []
        for name, w, h, k, s, steps in SAMPLE_WALKS:
            n = w * h
            edges = grid_edges(w, h)
            gpath = _write(f"{work}/{name}.graph", _graph_text(n, edges))
            grids.append((name, gpath, adjacency(n, edges), n // k, k, s, steps))
        for r in range(SAMPLE_POOL):
            for name, gpath, adj, size, k, s, steps in grids:
                start = region_grow(adj, k, size - s, size + s, rng)
                src = _write(f"{work}/{name}.{r}.part", _label_text(start, k))
                out = f"{work}/{name}.{r}.trace"
                argv = ["sample", "--graph", gpath, "--partition", src, "--k", str(k),
                        "--slack", str(s), "--steps", str(steps),
                        "--seed", str(rng.getrandbits(32)), "--out", out]
                self.pool.append(Op("sample", argv, weight=steps, walk=name, index=r,
                                    graph=gpath, start=src, k=k, s=s, out=out, steps=steps))


# Transform. The Hamiltonian pairs are the same for every seed: about half
# of them fail today (the singleton-walk defect), and a seeded draw of 20
# pairs would move the failure count, and with it ok_per_s, by ~20% between
# seeds. Every round runs all of them, so each run shows the same failures.
# The seed draws the unbounded pairs, on 24x24 with k=24, which all succeed
# and take 0.2-0.45 s each. With 30 of them the median latency falls inside
# their dense cluster. On 40x40 with k=40 (2.0-2.6 s a pair) only four
# fit, and the median fell on the sparse low end of the 40x40 Hamiltonian
# pairs, where it spread 12-16% between runs.
HAMILTONIAN_KINDS = (
    # name, grid side, k, pairs per round
    ("ham_grid40x40_k5", 40, 5, 10),
    ("ham_grid24x24_k8", 24, 8, 10),
)
HAMILTONIAN_PAIR_SEED = 0
UNBOUNDED = ("unb_grid24x24_k24", 24, 24, 30)  # name, side, k, pairs per round


class TransformPlan(Plan):
    def __init__(self, seed: int, work: str):
        self.work = work
        self.files = {}
        fixed = random.Random(HAMILTONIAN_PAIR_SEED)
        self.pool = []
        for name, side, k, count in HAMILTONIAN_KINDS:
            # Hamiltonian mode needs slack >= n/k, so sizes 1..2n/k are legal.
            n = side * side
            self.pool += [self._op(fixed, f"{name}.{i}", side, k, "hamiltonian",
                                   str(n // k), 2 * n // k) for i in range(count)]
        rng = random.Random(seed)
        name, side, k, count = UNBOUNDED
        # Unbounded slack accepts any sizes; growth keeps them near n/k.
        self.pool += [self._op(rng, f"{name}.{i}", side, k, "unbounded", "inf", side * side)
                      for i in range(count)]

    def _op(self, rng, name, side, k, mode, slack, hi):
        if side not in self.files:
            n = side * side
            edges = grid_edges(side, side)
            gpath = _write(f"{self.work}/grid{side}.graph", _graph_text(n, edges))
            cpath = _write(f"{self.work}/grid{side}.cycle",
                           " ".join(map(str, serpentine_cycle(side, side))) + "\n")
            self.files[side] = (gpath, cpath, adjacency(n, edges))
        gpath, cpath, adj = self.files[side]
        fa = _write(f"{self.work}/{name}.a.part", _label_text(region_grow(adj, k, 1, hi, rng), k))
        fb = _write(f"{self.work}/{name}.b.part", _label_text(region_grow(adj, k, 1, hi, rng), k))
        out = f"{self.work}/{name}.moves"
        argv = ["transform", "--mode", mode, "--graph", gpath, "--from", fa, "--to", fb,
                "--slack", slack, "--out", out]
        if mode == "hamiltonian":
            argv += ["--cycle", cpath]
        return Op("transform", argv, mode=mode, graph=gpath, a=fa, b=fb, slack=slack, out=out)


PLANS = {
    "explore": ExplorePlan,
    "decide": DecidePlan,
    "sample": SamplePlan,
    "transform": TransformPlan,
}
