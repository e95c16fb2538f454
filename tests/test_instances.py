import pytest

from recomb.graphs import is_connected
from recomb.instances import (
    arc_partition,
    gen_cycle,
    gen_grid,
    gen_negative,
    gen_path,
    gen_random_connected,
)
from recomb.partitions import SLACK_INF, SlackBound, validate


def test_gen_cycle():
    g = gen_cycle(5)
    assert g.n == 5 and len(g.edges) == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        gen_cycle(2)


def test_gen_path():
    g = gen_path(4)
    assert g.n == 4 and len(g.edges) == 3
    assert gen_path(1).n == 1
    with pytest.raises(ValueError, match=r"^path needs n >= 1$"):
        gen_path(0)


def test_gen_grid():
    g = gen_grid(3, 2)
    assert g.n == 6
    assert len(g.edges) == 7  # 4 horizontal + 3 vertical
    assert g.has_edge(0, 1) and g.has_edge(0, 3)
    with pytest.raises(ValueError):
        gen_grid(0, 2)


def test_gen_random_connected():
    g = gen_random_connected(10, 14, seed=3)
    assert g.n == 10 and len(g.edges) == 14
    assert is_connected(g, g.vertices())
    # deterministic per seed
    assert gen_random_connected(10, 14, seed=3).edges == g.edges
    assert gen_random_connected(10, 14, seed=4).edges != g.edges
    with pytest.raises(ValueError):
        gen_random_connected(5, 3, seed=0)
    with pytest.raises(ValueError):
        gen_random_connected(5, 11, seed=0)
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        gen_random_connected(0, 0, seed=0)


def test_arc_partition():
    p = arc_partition(12, 3)
    assert p.k == 3
    assert p.districts[0] == frozenset(range(4))
    with pytest.raises(ValueError):
        arc_partition(10, 3)


def test_gen_negative_shape():
    for k, s in [(4, 1), (4, 2), (5, 1), (6, 2)]:
        g, pa, cycle = gen_negative(k, s)
        n = k * (3 * s + 2)
        assert g.n == n
        # cycle plus exactly 4 chords
        assert len(g.edges) == n + 4
        cycle.check(g)
        assert validate(g, pa, k, SlackBound(s)).ok
        assert all(len(d) == 3 * s + 2 for d in pa.districts)
        # the contiguous-arcs partition is valid too
        assert validate(g, arc_partition(n, k), k, SlackBound(s)).ok
    with pytest.raises(ValueError):
        gen_negative(3, 1)
    with pytest.raises(ValueError):
        gen_negative(4, 0)


def test_gen_negative_chord_structure():
    g, pa, cycle = gen_negative(4, 1)
    n = g.n
    chords = sorted(e for e in g.edges if (e[1] - e[0]) % n not in (1, n - 1))
    assert len(chords) == 4
    # each chord joins two vertices of one district and is critical for it
    for a, b in chords:
        ds = [d for d in pa.districts if a in d and b in d]
        assert len(ds) == 1
        d = ds[0]
        rest_edges = {e for e in g.edges if e != (a, b)}
        adj = {v: [] for v in d}
        for x, y in rest_edges:
            if x in d and y in d:
                adj[x].append(y)
                adj[y].append(x)
        start = min(d)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) < len(d), "chord must be critical for its district"


def test_gen_negative_pinned_layout():
    # regression pin for the documented parameterization at s=1
    g, pa, cycle = gen_negative(4, 1)
    chords = sorted(e for e in g.edges if (e[1] - e[0]) % g.n not in (1, g.n - 1))
    assert chords == [(0, 9), (5, 16), (6, 12), (13, 19)]
    assert sorted(map(sorted, pa.districts)) == [
        [0, 1, 2, 9, 10],
        [3, 4, 5, 16, 17],
        [6, 7, 8, 11, 12],
        [13, 14, 15, 18, 19],
    ]


def test_gen_negative_arc_partition_reachable():
    # the chord-split locking does not disconnect the space at small s: a
    # merge can place two critical chords in one district and release a
    # chordless contiguous district (documented in gen_negative)
    from recomb.oracle import decide_br
    from recomb.sequences import replay

    g, pa, cycle = gen_negative(4, 1)
    slack = SlackBound(1)
    pb = arc_partition(g.n, 4)
    reachable, moves = decide_br(g, 4, slack, pa, pb)
    assert reachable and len(moves) == 8
    final = replay(g, pa, moves, slack)
    assert sorted(map(sorted, final.districts)) == sorted(map(sorted, pb.districts))
