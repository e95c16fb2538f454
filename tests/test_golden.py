"""Byte-level pins of transform output, of one explore run and of the
enumeration layers.

The move sequences are deterministic functions of the inputs; these hashes
catch any change in which moves the transforms choose or in their order.
The explore pin covers the component labelling of `build_space`, which
fixes the order of the `diameters` line.  The enumeration pins cover every
partition of a 20-vertex grid and the ordered move lists along a walk on
the 8x8 grid, past the oracle's vertex cap.
"""

import hashlib
import random

import pytest

from recomb.cli import run
from recomb.graphs import Graph
from recomb.hamiltonian import CycleOrder, transform_hamiltonian
from recomb.instances import gen_grid, gen_random_connected
from recomb.oracle import enumerate_partitions, recom_walk
from recomb.partitions import (
    SLACK_INF,
    Partition,
    SlackBound,
    canonical_key,
    enumerate_moves,
    format_moves,
    validate,
)
from recomb.unbounded import transform_unbounded

GRID = gen_grid(6, 4)
# Boustrophedon over columns 1..5, back along column 0.
SERPENTINE = CycleOrder((0, 1, 2, 3, 4, 5, 11, 10, 9, 8, 7, 13, 14, 15, 16, 17, 23, 22, 21, 20, 19, 18, 12, 6))


def labelled(labels: str) -> Partition:
    k = max(int(c) for c in labels) + 1
    return Partition.of([[v for v, c in enumerate(labels) if int(c) == i] for i in range(k)])


def digest(moves) -> str:
    return hashlib.sha256(format_moves(moves).encode()).hexdigest()


@pytest.mark.parametrize(
    "a, b, count, sha",
    [
        ("223334333444013544003544", "111133114333244445222240", 9,
         "05ef0008eae0fa986529774574a435c3e2ed83488ab5b6b435667edb6c3ba169"),
        ("112400113400113550113550", "111004511004552224555324", 10,
         "24a6ceec0e9bf8a5606ba496823c981705e78c71cc2a6b3ef74656b769966b49"),
        ("000333100334111552111112", "441122445502000000330000", 11,
         "0c436db0a1e12faa21c813918acde97c35aaf9bd54c9a7bef67b4c6983ed6f7f"),
    ],
)
def test_transform_unbounded_golden(a, b, count, sha):
    moves = transform_unbounded(GRID, labelled(a), labelled(b))
    assert len(moves) == count
    assert digest(moves) == sha


# Together these run step_light, both branches of step_average (chord split
# and chain) and steps_singleton.
@pytest.mark.parametrize(
    "a, b, count, sha",
    [
        ("000022333222333322331122", "111133111333213333220333", 19,
         "196f935ba4d196ef98ddb3205d8ac0f330804a2689e91295b0617a24bfe8272b"),
        ("000221000111000111000133", "220011230011233111333111", 13,
         "3b665e36939873b025689c09373cfbf1b1ebe5176fd2ca3af7a55bf92ce21c1f"),
        ("001333001133001133000222", "111133113333222220220000", 14,
         "e8cae9e126bef860674c39772facaefdf683d334115f2b8cb9d1f6421478637f"),
        ("222111222000223000223300", "332000322000331100333111", 11,
         "0fc314df2618f0e0272d52947158333488bc0b7399e06d2ee08d9ce996bde4c3"),
    ],
)
def test_transform_hamiltonian_golden(a, b, count, sha):
    moves = transform_hamiltonian(GRID, SERPENTINE, labelled(a), labelled(b), SlackBound(6))
    assert len(moves) == count
    assert digest(moves) == sha


def test_explore_negative_golden(tmp_path, capsys):
    prefix = str(tmp_path / "neg")
    assert run(["gen", "--family", "negative", "--k", "4", "--s", "1", "--out", prefix]) == 0
    capsys.readouterr()
    assert run(["explore", "--graph", prefix + ".graph", "--k", "4", "--slack", "0"]) == 0
    assert capsys.readouterr().out == "nodes 58\nedges 186\ncomponents 2\ndiameters 5 2\n"


def test_enumerate_partitions_grid5x4_golden():
    parts = enumerate_partitions(gen_grid(5, 4), 4, SlackBound(1))
    lines = (" | ".join(" ".join(map(str, d)) for d in canonical_key(p)) for p in parts)
    assert len(parts) == 9459
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == (
        "e00e62e872636081bffec5694f39befb034abcbfb48fea7598c1101aad6b3d75"
    )


def test_walk_move_lists_golden():
    # The move lists of ten states of a seeded walk on the 8x8 grid, k=8,
    # s=1, from its 4x2 blocks: each list in order, concatenated.
    g = gen_grid(8, 8)
    slack = SlackBound(1)
    cur = Partition.of([[v for v in range(64) if (v // 16) * 2 + v % 8 // 4 == d] for d in range(8)])
    trace = recom_walk(g, 8, slack, cur, 9, 2024)
    moves = enumerate_moves(g, cur, slack)
    texts = [format_moves(moves)]
    for idx, key in trace.steps:
        m = moves[idx]
        cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
        assert canonical_key(cur) == key
        moves = enumerate_moves(g, cur, slack)
        texts.append(format_moves(moves))
    assert [t.count("\n") for t in texts[:3]] == [1322, 1089, 692]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "f6b6fdbd5d9e13aead506ea0b1f0205a36b9fd32ae8322ffdafc1dc1a96473f6"
    )


def _serpentine(w: int, h: int) -> CycleOrder:
    """Boustrophedon over columns 1..w-1, back along column 0 (h even)."""
    order = [y * w + x for y in range(h) for x in (range(1, w) if y % 2 == 0 else range(w - 1, 0, -1))]
    return CycleOrder(tuple(order + [y * w for y in range(h - 1, -1, -1)]))


def _chorded_cycle(rng, n: int, chords: int):
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(chords)}
    return Graph(n, edges), CycleOrder(tuple(order))


def _grown_partition(rng, g, k: int, slack: SlackBound) -> Partition:
    """Region growth from k random seeds, redrawn until its sizes fit slack."""
    while True:
        label = dict.fromkeys(rng.sample(range(g.n), k))
        for i, v in enumerate(label):
            label[v] = i
        while len(label) < g.n:
            v, w = rng.choice([(v, w) for v in label for w in g.adj[v] if w not in label])
            label[w] = label[v]
        p = Partition.of([[v for v in label if label[v] == i] for i in range(k)])
        if validate(g, p, k, slack).ok:
            return p


def test_transform_hamiltonian_seeded_golden():
    # 150 seeded pairs on serpentine grids and chorded cycles (n <= 30), with
    # k | n and slack n/k or n/k + 1: one hash over every move sequence.
    rng = random.Random(2024)
    grids = [(4, 2), (6, 2), (3, 4), (4, 4), (5, 4), (6, 4), (7, 4), (4, 6), (5, 6)]
    texts = []
    for case in range(150):
        if case % 2 == 0:
            w, h = rng.choice(grids)
            g, cycle = gen_grid(w, h), _serpentine(w, h)
        else:
            g, cycle = _chorded_cycle(rng, rng.choice([8, 12, 15, 16, 18, 20, 24, 30]), rng.randint(0, 5))
        k = rng.choice([d for d in range(2, g.n // 2 + 1) if g.n % d == 0])
        slack = SlackBound(g.n // k + rng.randint(0, 1))
        p1, p2 = _grown_partition(rng, g, k, slack), _grown_partition(rng, g, k, slack)
        texts.append(format_moves(transform_hamiltonian(g, cycle, p1, p2, slack)))
    assert sum(t.count("\n") for t in texts) == 1962
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "1b0811067acbeab30cfc87ae064aeb4c37e1a75fbcc6827d2d2209c1b3c4f626"
    )


def test_transform_hamiltonian_large_districts_golden():
    # Ten seeded pairs on the 16x16 grid with its serpentine cycle, k = 4 and
    # k = 8 at slack n/k: districts of up to 128 vertices in many fragments.
    # About a third of the 338 light steps shed from a fragment tree that an
    # earlier shed left behind.
    rng = random.Random(2026)
    g, cycle = gen_grid(16, 16), _serpentine(16, 16)
    texts = []
    for k in (4, 4, 4, 4, 4, 8, 8, 8, 8, 8):
        slack = SlackBound(g.n // k)
        p1, p2 = _grown_partition(rng, g, k, slack), _grown_partition(rng, g, k, slack)
        texts.append(format_moves(transform_hamiltonian(g, cycle, p1, p2, slack)))
    assert sum(t.count("\n") for t in texts) == 596
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "52e97dc57423453586fab4cd2669764de28438a82ac89ddbb4e88496cfad325d"
    )


def test_transform_unbounded_seeded_golden():
    # 150 seeded pairs on grids and random connected graphs (n <= 40), k from
    # 2 up to n: one hash over every move sequence.
    rng = random.Random(2025)
    grids = [(3, 2), (4, 3), (5, 4), (6, 4), (8, 5), (6, 6), (10, 4)]
    texts = []
    for case in range(150):
        if case % 2 == 0:
            g = gen_grid(*rng.choice(grids))
        else:
            n = rng.randint(4, 40)
            g = gen_random_connected(n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)), rng.randrange(1 << 30))
        k = rng.randint(2, g.n)
        p1, p2 = _grown_partition(rng, g, k, SLACK_INF), _grown_partition(rng, g, k, SLACK_INF)
        texts.append(format_moves(transform_unbounded(g, p1, p2)))
    assert sum(t.count("\n") for t in texts) == 1916
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "f5b33631f29bff0741c9097c007f77422cd7f0a2183f06825ca908268d317b92"
    )


def _balanced_partition(rng, g, k: int) -> Partition:
    """Region growth from k random seeds, always extending the smallest
    district that can still grow by a random free neighbour."""
    label = {v: i for i, v in enumerate(rng.sample(range(g.n), k))}
    free = [list(g.adj[v]) for v in label]
    sizes = [1] * k
    growing = set(range(k))
    while growing:
        d = min(growing, key=lambda i: (sizes[i], i))
        while free[d] and free[d][-1] in label:
            free[d].pop()
        if not free[d]:
            growing.discard(d)
            continue
        i = rng.randrange(len(free[d]))
        free[d][i], free[d][-1] = free[d][-1], free[d][i]
        w = free[d].pop()
        if w not in label:
            label[w] = d
            sizes[d] += 1
            free[d] += g.adj[w]
    return Partition.of([[v for v in label if label[v] == i] for i in range(k)])


def test_transform_hamiltonian_benchmark_size_golden():
    # One seeded pair at the benchmark's size: the 40x40 grid along its
    # serpentine cycle, k = 5, slack n/k.  It runs 76 light steps, 9
    # average steps and one singleton walk.
    rng = random.Random(40)
    g, cycle = gen_grid(40, 40), _serpentine(40, 40)
    p1, p2 = _balanced_partition(rng, g, 5), _balanced_partition(rng, g, 5)
    moves = transform_hamiltonian(g, cycle, p1, p2, SlackBound(320))
    assert len(moves) == 93
    assert digest(moves) == "40ef8814779757af664d6ed2cd6f5b32bea9be1011050ed4c17ec2acf35c19b8"


def test_transform_unbounded_benchmark_size_golden():
    # One seeded pair at the benchmark's size: the 24x24 grid, k = 24.
    rng = random.Random(24)
    g = gen_grid(24, 24)
    moves = transform_unbounded(g, _balanced_partition(rng, g, 24), _balanced_partition(rng, g, 24))
    assert len(moves) == 46
    assert digest(moves) == "c8df15bd568b30c65371c27165e213ce0830a9f9ee4d04bd8279ee0853b26f7d"
