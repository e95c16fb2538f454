import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import hamiltonian
from recomb.graphs import Graph, complete_forest, edge_adjacency, reach
from recomb.hamiltonian import (
    CycleOrder,
    _arcs_in_cycle_order,
    _boundaries,
    _fragment_tree,
    _shift_abstract,
    _side,
    canonical_transform,
    canonicalize,
    fragment_count,
    step_average,
    step_light,
    steps_singleton,
    transform_hamiltonian,
)
from recomb.instances import gen_cycle, gen_grid
from recomb.oracle import enumerate_partitions
from recomb.partitions import Partition, SlackBound, apply_move, canonical_key, validate
from recomb.sequences import labelled_move, replay, resolve_moves
from support import cycle_graph, random_cycle_with_chords, random_partition, serpentine, tree_center


def identity_cycle(n):
    return CycleOrder(tuple(range(n)))


def light_vertices(tree, v):
    """The vertices of v's light subtree in the fragment tree, or None."""
    cut = tree.shed(v)
    return None if cut is None else cut[0]


def test_cycle_order_check():
    g = gen_cycle(5)
    identity_cycle(5).check(g)
    with pytest.raises(ValueError):
        CycleOrder((0, 1, 2, 3)).check(g)
    with pytest.raises(ValueError):
        CycleOrder((0, 2, 1, 3, 4)).check(g)


def test_boundaries_contiguous():
    c = identity_cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    assert _boundaries(c, p) == [(2, 3, 0, 1), (5, 0, 1, 0)]
    assert fragment_count(c, p) == 2
    assert _arcs_in_cycle_order(c, p) == [[0, 1, 2], [3, 4, 5]]


def test_boundaries_wraparound():
    c = identity_cycle(6)
    p = Partition.of([[5, 0, 1], [2, 3, 4]])
    assert _boundaries(c, p) == [(1, 2, 0, 1), (4, 5, 1, 0)]
    assert fragment_count(c, p) == 2
    assert _arcs_in_cycle_order(c, p) == [[2, 3, 4], [5, 0, 1]]


def reference_runs(order, labels):
    """The maximal runs of one district along the cyclic order, each as its
    vertices in cycle order, in order of their first position; walked out
    position by position."""
    n = len(order)
    lab = [labels[v] for v in order]
    if len(set(lab)) == 1:
        return [list(order)]
    runs = []
    for t in range(n):
        if lab[t] != lab[t - 1]:
            run = [order[t]]
            while lab[(t + len(run)) % n] == lab[t]:
                run.append(order[(t + len(run)) % n])
            runs.append(run)
    return runs


def test_boundaries_match_brute_force():
    # The bit-parallel scan against a label scan of the cycle, position by
    # position, on seeded partitions of chorded cycles: n = 1 and k = 1 up to
    # k = n, and districts that wrap from position n - 1 to 0.
    rng = random.Random(17)
    canonical = wrapped = 0
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 12)
        k = rng.randint(1, n if rng.random() < 0.2 else min(4, n))
        order = list(range(n))
        rng.shuffle(order)
        if rng.random() < 0.5:
            # k arcs along the cycle, cut at random positions.
            cuts = sorted(rng.sample(range(n), k))
            lab = [sum(t >= x for x in cuts) % k for t in range(n)]
        else:
            lab = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
            rng.shuffle(lab)
        labels = dict(zip(order, lab))
        p = Partition.of([[v for v in order if labels[v] == d] for d in range(k)])
        c = CycleOrder(tuple(order))
        if n >= 3:
            steps = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
            chords = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 3))}
            c.check(Graph(n, steps | chords))
        pairs = [(order[t], order[(t + 1) % n], labels[order[t]], labels[order[(t + 1) % n]])
                 for t in range(n) if labels[order[t]] != labels[order[(t + 1) % n]]]
        runs = reference_runs(order, labels)
        for _ in range(2):  # the second call reads the masks the first kept on the cycle
            assert _boundaries(c, p) == pairs
            assert fragment_count(c, p) == len(runs)
        # Each kept mask holds the positions along C that start one of the
        # district's fragments.
        assert {d: c._starts[d] for d in p.districts} == {
            d: sum(1 << t for t, v in enumerate(order) if v in d and order[t - 1] not in d)
            for d in p.districts}
        assert fragment_count(CycleOrder(c.order), p) == len(runs)
        seen.add((n == 1, k == 1, k == n))
        wrapped += n > 1 and lab[0] == lab[-1] and len(set(lab)) > 1
        if len(runs) == k:
            canonical += 1
            assert _arcs_in_cycle_order(c, p) == runs
        else:
            with pytest.raises(ValueError):
                _arcs_in_cycle_order(c, p)
    assert 1000 < canonical < 2500
    assert wrapped > 500
    assert {(True, True, True), (False, True, False), (False, False, True), (False, False, False)} <= seen


def test_fragment_count_single_district():
    c = identity_cycle(4)
    assert fragment_count(c, Partition.of([[0, 1, 2, 3]])) == 1


def reference_fragment_labels(c, members):
    """The predecessor scan the start masks replaced: each member whose
    predecessor along C lies outside the district starts a fragment and
    labels the members up to the next outsider."""
    order, n, pos = c.order, c.n, c.positions
    label = {}
    for v in members:
        if order[pos[v] - 1] not in members:
            t = pos[v]
            while (w := order[t % n]) in members:
                label[w] = v
                t += 1
    return label


def test_fragment_tree_labels_match_predecessor_scan(monkeypatch):
    rng = random.Random(38)
    on_demand = kept = 0
    for _ in range(150):
        g, c = random_cycle_with_chords(rng, rng.randint(4, 40), rng.randint(1, 12))
        p = random_partition(rng, g, rng.randint(2, min(6, g.n // 2)), SlackBound(g.n), tries=400)
        if rng.random() < 0.5:
            _boundaries(c, p)  # the masks are kept before any tree is built
        for members in p.districts:
            if members in c._starts:
                kept += 1
            else:
                on_demand += 1
            assert _fragment_tree(g, c, members).label == reference_fragment_labels(c, members)
            assert members in c._starts
    assert on_demand > 100 and kept > 100
    # A district covering C starts no fragment, so it gets no labels.  Its
    # tree has no fragment to root at, so a spy on _rooted returns the labels,
    # and the graph has no edges for the chord scan to look up.
    monkeypatch.setattr(hamiltonian, "_rooted", lambda size, links, label: label)
    c, members = identity_cycle(8), frozenset(range(8))
    assert _fragment_tree(Graph(8, ()), c, members) == {} == reference_fragment_labels(c, members)
    assert c._starts[members] == 0


def test_fragment_tree_weights():
    # District 0 split as {0,1} and {4,5} around district 1's {2,3}; chord 1-4
    g = cycle_graph(8, chords=[(1, 4)])
    c = identity_cycle(8)
    p = Partition.of([[0, 1, 4, 5], [2, 3], [6, 7]])
    members = p.districts[0]
    tree = _fragment_tree(g, c, members)
    subtrees = {v: light_vertices(tree, v) for v in members}
    # The centre's fragment is heavy; the cut sheds the other one, whole.
    heavy = frozenset(v for v, sub in subtrees.items() if sub is None)
    assert heavy in (frozenset({0, 1}), frozenset({4, 5}))
    light = members - heavy
    assert all(subtrees[v] == light for v in light)
    # The light subtree holds at most half the district.
    assert len(light) <= len(members) // 2


def reference_light_subtrees(g, c, members):
    """The vertex-level rule the fragment tree replaced: root the district's
    minimum-chord tree (Kruskal over its cycle edges, then its other induced
    edges sorted) at tree_center, and cut v's side of the first chord on v's
    path to that centre (None when the path has no chord)."""
    steps = ((c.order[t - 1], c.order[t]) for t in range(c.n))
    inside = {(min(e), max(e)) for e in steps if e[0] in members and e[1] in members}
    induced = sorted((v, w) for v in members for w in g.adj[v] if v < w and w in members)
    tree = complete_forest({v: v for v in members}, [*inside, *(e for e in induced if e not in inside)])
    edges, chords = set(tree), set(tree) - inside
    adj = edge_adjacency(members, edges)
    up = reach(adj, tree_center(adj), adj)

    def light(v):
        x = v
        while up[x] is not None:
            e = (min(x, up[x]), max(x, up[x]))
            if e in chords:
                return frozenset(reach(edge_adjacency(members, edges - {e}), v, members))
            x = up[x]
        return None

    return {v: light(v) for v in members}


def test_fragment_tree_matches_vertex_level_rule():
    rng = random.Random(35)
    checked = 0
    for case in range(120):
        if case % 2:
            w, h = rng.choice([(4, 4), (6, 4), (5, 6), (8, 6), (8, 8)])
            g, c = gen_grid(w, h), serpentine(w, h)
        else:
            g, c = random_cycle_with_chords(rng, rng.randint(8, 40), rng.randint(2, 12))
        k = rng.randint(2, min(6, g.n // 2))
        p = random_partition(rng, g, k, SlackBound(g.n), tries=400)
        for members in p.districts:
            tree = _fragment_tree(g, c, members)
            want = reference_light_subtrees(g, c, members)
            assert {v: light_vertices(tree, v) for v in members} == want
            checked += len(tree.size) > 1
    assert checked > 200


@pytest.mark.parametrize(
    "order",
    [
        tuple(range(12)),
        tuple(range(11, -1, -1)),
        # The chord's smaller endpoint, 0, lies in the fragment keyed 8, not
        # in the one keyed 1.
        (8, 7, 0, 4, 5, 6, 1, 2, 3, 9, 10, 11),
        # The chord's smaller endpoint, 2, keys its fragment, and 1 keys the
        # other.
        (1, 4, 5, 0, 3, 6, 2, 7, 8, 9, 10, 11),
    ],
)
def test_fragment_tree_root_when_a_chord_halves_the_district(order):
    # The district holds cycle positions 0-2 and 6-8, joined by one chord
    # between positions 2 and 6 that splits it into halves of 3.
    c = CycleOrder(order)
    a, b = order[2], order[6]
    g = Graph(12, {(order[t], order[(t + 1) % 12]) for t in range(12)} | {(min(a, b), max(a, b))})
    members = frozenset(order[t] for t in (0, 1, 2, 6, 7, 8))
    tree = _fragment_tree(g, c, members)
    lights = {v: light_vertices(tree, v) for v in members}
    assert lights == reference_light_subtrees(g, c, members)
    heavy = frozenset(v for v, sub in lights.items() if sub is None)
    assert min(a, b) in heavy and len(heavy) == 3


def test_derived_fragment_trees_match_fresh_ones(monkeypatch):
    # Every tree in the cycle's map, the ones step_light derived by a shed
    # included, equals a fresh build on a new cycle, label and all.
    derived = {}
    real = hamiltonian._FragmentTree.shed

    def spy(tree, v):
        cut = real(tree, v)
        if cut is not None:
            derived[id(cut[1])] = cut[1]  # kept alive, so no id is reused
        return cut

    monkeypatch.setattr(hamiltonian._FragmentTree, "shed", spy)
    rng = random.Random(36)
    checked = 0
    for case in range(40):
        if case % 2:
            w, h = rng.choice([(6, 4), (8, 6), (8, 8), (12, 8)])
            g, c = gen_grid(w, h), serpentine(w, h)
        else:
            g, c = random_cycle_with_chords(rng, rng.choice([24, 30, 36, 48]), rng.randint(2, 10))
        k = rng.choice([d for d in (2, 3, 4, 6, 8) if g.n % d == 0])
        slack = SlackBound(g.n // k)
        moves, _ = canonicalize(g, c, random_partition(rng, g, k, slack, tries=400), slack)
        for members, (graph, tree) in c._trees.items():
            assert graph is g
            assert tree == _fragment_tree(g, CycleOrder(c.order), members)
            assert tree.label.keys() == members
            checked += id(tree) in derived
    assert checked > 100


def test_cycle_keeps_each_graphs_own_trees():
    # One cycle checked against two graphs whose chords differ: the same
    # district gets each graph's own tree, and a tree built in one graph is
    # never returned for the other, nor for an equal copy of it.
    c = identity_cycle(8)
    g1, g2 = cycle_graph(8, chords=[(1, 4)]), cycle_graph(8, chords=[(0, 5)])
    c.check(g1)
    c.check(g2)
    members = frozenset({0, 1, 4, 5})
    for _ in range(2):
        t1 = _fragment_tree(g1, c, members)
        assert set(t1.chords) == {(1, 4)} and _fragment_tree(g1, c, members) is t1
        assert c._trees[members] == (g1, t1)
        t2 = _fragment_tree(g2, c, members)
        assert set(t2.chords) == {(0, 5)} and t2 is not t1
        assert c._trees[members] == (g2, t2)
    copy = Graph(g2.n, g2.edges)
    assert copy == g2 and _fragment_tree(copy, c, members) is not t2


def test_cycle_maps_let_go_of_dropped_districts():
    g, c = gen_grid(6, 4), serpentine(6, 4)
    slack = SlackBound(6)
    rng = random.Random(37)
    p1, p2 = (random_partition(rng, g, 4, slack, tries=400) for _ in range(2))
    moves = transform_hamiltonian(g, c, p1, p2, slack)
    held = (len(moves), len(c._starts), len(c._trees))
    assert min(held) > 0
    del p1, p2, moves
    gc.collect()
    assert len(c._starts) == 0 and len(c._trees) == 0


def test_shared_cycle_holds_no_dropped_graph():
    # One cycle shared by chorded 6x6 grids, one extra chord each: once the
    # graphs, partitions and moves are dropped, the cycle's memos hold none
    # of them, and nothing else keeps a graph alive.
    c, slack = serpentine(6, 6), SlackBound(9)
    grid = gen_grid(6, 6)
    rng = random.Random(39)
    runs = []
    for i in range(6):
        g = Graph(36, grid.edges | {(0, 7 + i)})
        p1, p2 = (random_partition(rng, g, 4, slack, tries=400) for _ in range(2))
        runs.append((g, p1, p2, transform_hamiltonian(g, c, p1, p2, slack)))
    graphs = [weakref.ref(run[0]) for run in runs]
    assert all(moves for *_, moves in runs)
    assert len(c._passed) == 6
    assert {id(graph) for graph, _ in c._trees.values()} == {id(run[0]) for run in runs}
    del g, p1, p2, runs
    gc.collect()
    assert len(c._trees) == 0 and len(c._passed) == 0 and len(c._starts) == 0
    assert all(ref() is None for ref in graphs)


def test_shared_cycle_gives_the_moves_of_fresh_copies():
    # Pairs on one shared graph and cycle reuse the masks and trees earlier
    # pairs left there, in forward and in reverse order, and get the moves
    # that fresh Graph and CycleOrder copies give.  Two graphs with different
    # chords share one cycle order.
    rng = random.Random(38)
    order = list(range(24))
    rng.shuffle(order)
    steps = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
    cycle = CycleOrder(tuple(order))
    cases = [(gen_grid(6, 4), serpentine(6, 4), 4), (gen_grid(8, 6), serpentine(8, 6), 6)]
    for chords in ({(order[0], order[12]), (order[3], order[17])}, {(order[5], order[20])}):
        cases.append((Graph(24, steps | {(min(e), max(e)) for e in chords}), cycle, 3))
    pairs = []
    for g, c, k in cases:
        slack = SlackBound(g.n // k)
        parts = [random_partition(rng, g, k, slack, tries=400) for _ in range(5)]
        pairs += [(g, c, a, b, slack) for a in parts for b in parts]
    want = [transform_hamiltonian(Graph(g.n, g.edges), CycleOrder(c.order), a, b, slack)
            for g, c, a, b, slack in pairs]
    assert sum(map(len, want)) > 0
    for forward in (True, False):
        shared = {id(c): CycleOrder(c.order) for _, c, _, _, _ in pairs}
        seq = list(zip(pairs, want))
        for (g, c, a, b, slack), moves in seq if forward else seq[::-1]:
            assert transform_hamiltonian(g, shared[id(c)], a, b, slack) == moves


def rotations_and_reflections(n):
    """Every cyclic order of 0..n-1 along the cycle C_n, as (order, forward)."""
    return [(tuple(seq[r:] + seq[:r]), seq[0] == 0) for seq in (list(range(n)), list(range(n))[::-1])
            for r in range(n)]


@pytest.mark.parametrize("shape", ["chain", "cover", "chord"])
@pytest.mark.parametrize("order, forward", rotations_and_reflections(12))
def test_step_average_branches(shape, order, forward):
    # chain: arcs {0,1,2} and {3,4,5} of C12 (k = 3); their union is a chain
    # along C, and the move sheds its first vertex, 0 or 5 by direction.
    # cover: arcs {0..5} and {6..11} (k = 2) cover C; the move sheds order[0].
    # chord: {0,1,2,6,7,8}, two arcs joined by the chord 2-6, and {3,4,5}
    # between them; cutting the chord leaves {3,4,5} with the arc it meets at
    # the first district boundary along C from order[0].
    c = CycleOrder(order)
    if shape == "cover":
        g, parts = gen_cycle(12), [range(6), range(6, 12)]
    elif shape == "chain":
        g, parts = gen_cycle(12), [range(3), range(3, 6), range(6, 12)]
    else:
        g, parts = cycle_graph(12, chords=[(2, 6)]), [[0, 1, 2, 6, 7, 8], range(3, 6), range(9, 12)]
    p = Partition.of(parts)
    union = p.districts[0] | p.districts[1]
    if shape == "cover":
        part_a = frozenset({order[0]})
    elif shape == "chain":
        part_a = frozenset({0 if forward else 5})
    else:
        steps = ({order[t], order[(t + 1) % 12]} for t in range(12))
        first = next(e for e in steps if e in ({2, 3}, {5, 6}))
        part_a = frozenset(range(6) if first == {2, 3} else range(3))
    # The step recombines across the first boundary between districts 0 and
    # 1 along C, in either direction, as find_small_adjacent_pair gives it.
    u, w, du, dw = next(b for b in _boundaries(c, p) if {b[2], b[3]} == {0, 1})
    assert step_average(g, c, p, u, w, du, dw) == labelled_move(0, 1, part_a, union - part_a)


def test_small_adjacent_pair_is_the_first_boundary_that_fits():
    # On seeded partitions of chorded cycles: the first boundary along C whose
    # two districts hold at most 2n/k vertices together, or ValueError.
    rng = random.Random(39)
    found = missed = 0
    for _ in range(300):
        g, c = random_cycle_with_chords(rng, rng.randint(6, 30), rng.randint(1, 8))
        k = rng.randint(2, min(6, g.n // 2))
        p = random_partition(rng, g, k, SlackBound(g.n), tries=400)
        want = next((b for b in _boundaries(c, p)
                     if k * (len(p.districts[b[2]]) + len(p.districts[b[3]])) <= 2 * g.n), None)
        if want is None:
            missed += 1
            with pytest.raises(ValueError, match="^no pair found$"):
                hamiltonian.find_small_adjacent_pair(c, p)
        else:
            found += 1
            assert hamiltonian.find_small_adjacent_pair(c, p) == want
    assert found > 150 and missed > 10


def test_step_light_reduces_fragments():
    g = cycle_graph(8, chords=[(1, 4)])
    c = identity_cycle(8)
    slack = SlackBound(4)
    p = Partition.of([[0, 1, 4, 5], [2, 3], [6, 7]])
    m = step_light(g, c, p)
    assert m is not None
    q = p.replace(m.i, m.j, m.new_i, m.new_j)
    assert fragment_count(c, q) < fragment_count(c, p)
    assert validate(g, q, 3, slack).ok


def test_canonicalize_reaches_canonical_form():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice([6, 8, 9, 12])
        k = rng.choice([d for d in (2, 3, 4) if n % d == 0])
        g, c = random_cycle_with_chords(rng, n, rng.randint(0, 4))
        slack = SlackBound(n // k + rng.randint(0, 2))
        p = random_partition(rng, g, k, slack, tries=400)
        moves, canon = canonicalize(g, c, p, slack)
        assert fragment_count(c, canon) == k
        assert replay(g, p, moves, slack).districts == canon.districts
        assert len(moves) <= k * (n - k)


def test_canonicalize_moves_carry_resolved_labels():
    # canonicalize labels its moves by the rule resolve_moves applies, so
    # transform_hamiltonian emits them without resolving them again.
    rng = random.Random(34)
    for _ in range(60):
        if rng.random() < 0.5:
            w, h = rng.choice([(4, 2), (3, 4), (4, 4), (6, 4)])
            g, c = gen_grid(w, h), serpentine(w, h)
        else:
            g, c = random_cycle_with_chords(rng, rng.choice([8, 12, 16]), rng.randint(0, 4))
        k = rng.choice([d for d in (2, 3, 4, 8) if g.n % d == 0 and d < g.n])
        slack = SlackBound(g.n // k + rng.randint(0, 1))
        p = random_partition(rng, g, k, slack, tries=400)
        moves, _ = canonicalize(g, c, p, slack)
        assert resolve_moves(g, p, [(m.new_i, m.new_j) for m in moves], slack)[0] == moves


def test_canonical_transform_stays_canonical():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.choice([6, 8, 12])
        k = rng.choice([d for d in (2, 3, 4) if n % d == 0])
        g, c = random_cycle_with_chords(rng, n, rng.randint(0, 3))
        slack = SlackBound(n // k)
        p1, p2 = (random_partition(rng, g, k, slack, tries=400) for _ in range(2))
        _, c1 = canonicalize(g, c, p1, slack)
        _, c2 = canonicalize(g, c, p2, slack)
        moves, end = canonical_transform(g, c, c1, c2, slack)
        assert len(moves) <= k * k + 1
        cur = c1
        for m in moves:
            cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
            assert validate(g, cur, k, slack).ok
            assert fragment_count(c, cur) == k  # canonical throughout
        assert canonical_key(cur) == canonical_key(c2)
        # The returned partition carries the labels a checked replay gives.
        assert end == cur == replay(g, c1, moves, slack)
        assert canonical_transform(g, c, c1, c1, slack) == ([], c1)


def reference_shift_abstract(arcs, delta):
    """_shift_abstract as first written: each arc but the last takes the head
    of the next, then the head of arc 0 closes the loop onto the last."""
    k = len(arcs)
    out = []
    if delta == 0 or k == 1:
        return out

    def transfer_head(a, b, count):
        # Arc b cyclically follows arc a; move the first `count` vertices of b
        # onto the tail of a.
        moved, arcs[b] = arcs[b][:count], arcs[b][count:]
        arcs[a] = arcs[a] + moved
        out.append((frozenset(arcs[a]), frozenset(arcs[b])))

    transfer_head(0, 1, delta)
    for i in range(1, k - 1):
        transfer_head(i, i + 1, delta)
    # Close the loop: the head of arc 0 moves to the tail of the last arc.
    moved, arcs[0] = arcs[0][:delta], arcs[0][delta:]
    arcs[k - 1] = arcs[k - 1] + moved
    out.append((frozenset(arcs[k - 1]), frozenset(arcs[0])))
    return out


def test_shift_abstract_matches_reference():
    rng = random.Random(34)
    for k in range(1, 7):
        for target in range(1, 5):
            n = k * target
            for _ in range(5):
                order = list(range(n))
                rng.shuffle(order)
                r = rng.randrange(n)
                arcs = [[order[(r + a * target + x) % n] for x in range(target)] for a in range(k)]
                for delta in range(target):
                    new, old = [list(a) for a in arcs], [list(a) for a in arcs]
                    assert _shift_abstract(new, delta) == reference_shift_abstract(old, delta)
                    assert new == old


def test_transform_hamiltonian_end_to_end():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.choice([6, 8, 9, 12])
        k = rng.choice([d for d in (2, 3, 4) if n % d == 0])
        g, c = random_cycle_with_chords(rng, n, rng.randint(0, 4))
        slack = SlackBound(n // k + rng.randint(0, 1))
        p1, p2 = (random_partition(rng, g, k, slack, tries=400) for _ in range(2))
        moves = transform_hamiltonian(g, c, p1, p2, slack)
        assert len(moves) <= 2 * k * (n - k) + k * k + 1
        cur = p1
        for m in moves:
            cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
            assert validate(g, cur, k, slack).ok
        assert canonical_key(cur) == canonical_key(p2)


def test_transform_hamiltonian_scans_the_cycle_once_per_graph(monkeypatch):
    steps = []
    real = Graph.has_edge
    monkeypatch.setattr(Graph, "has_edge", lambda g, u, w: steps.append((u, w)) or real(g, u, w))
    rng = random.Random(34)
    lengths = []
    for _ in range(20):
        n = rng.choice([8, 9, 12])
        k = rng.choice([d for d in (2, 3, 4) if n % d == 0])
        g, c = random_cycle_with_chords(rng, n, rng.randint(0, 4))
        slack = SlackBound(n // k)
        p1, p2 = (random_partition(rng, g, k, slack, tries=400) for _ in range(2))
        steps.clear()
        lengths.append(len(transform_hamiltonian(g, c, p1, p2, slack)))
        assert len(steps) == n
        # Both steps still check the cycle, on this graph or an equal one, with no second scan.
        (_, c1), (_, c2) = canonicalize(g, c, p1, slack), canonicalize(Graph(n, g.edges), c, p2, slack)
        canonical_transform(g, c, c1, c2, slack)
        assert transform_hamiltonian(g, c, p1, p2, slack) == transform_hamiltonian(g, c, p1, p2, slack)
        assert len(steps) == n
        # A graph missing a step of the cycle is refused on every call.
        u, w = c.order[0], c.order[1]
        broken = Graph(n, g.edges - {(min(u, w), max(u, w))})
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"cycle step \({u},{w}\) is not an edge"):
                canonicalize(broken, c, p1, slack)
    assert max(lengths) > 0


@st.composite
def hamiltonian_instances(draw):
    """An even grid with its serpentine cycle or a cycle with chords (n <= 16),
    k | n with 2 <= k <= n/2, s in {n/k, n/k + 1}, and two partitions."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        w, h = draw(st.sampled_from([(w, h) for h in (2, 4) for w in range(2, 9) if w * h <= 16]))
        g, c = gen_grid(w, h), serpentine(w, h)
    else:
        n = draw(st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16]))
        g, c = random_cycle_with_chords(rng, n, draw(st.integers(0, 4)))
    k = draw(st.sampled_from([d for d in range(2, g.n // 2 + 1) if g.n % d == 0]))
    slack = SlackBound(g.n // k + draw(st.integers(0, 1)))
    p1, p2 = (random_partition(rng, g, k, slack, tries=400) for _ in range(2))
    return g, c, p1, p2, slack


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hamiltonian_instances())
def test_transform_hamiltonian_property(instance):
    g, c, p1, p2, slack = instance
    k, n = p1.k, g.n
    moves = transform_hamiltonian(g, c, p1, p2, slack)
    assert len(moves) <= 2 * k * (n - k) + k * k + 1
    assert canonical_key(replay(g, p1, moves, slack)) == canonical_key(p2)


def test_singleton_walk_regressions():
    # Each chain shift labels its pair by the min-vertex rule, so the walking
    # singleton can end under either label (first input: a shift of the wrong
    # pair left a part disconnected); a chain district that is already a
    # singleton walks on itself (second and third: shifting it was an
    # identity move).
    g = gen_grid(4, 4)
    c = serpentine(4, 4)
    slack = SlackBound(2)
    for parts, count in [
        ([[1, 2], [0, 4, 5, 6], [3, 7], [8], [11, 15], [10, 14], [12], [9, 13]], 10),
        ([[0, 1, 2, 6], [3, 7], [4, 5], [8, 9], [10], [11, 15], [12, 13], [14]], 8),
        ([[0, 1], [2, 6], [3, 7], [4, 8, 12], [5, 9, 10, 14], [11], [13], [15]], 5),
    ]:
        p = Partition.of(parts)
        moves, canon = canonicalize(g, c, p, slack)
        assert len(moves) == count
        assert fragment_count(c, canon) == 8
        assert replay(g, p, moves, slack).districts == canon.districts
    # Column strips to row strips on the 8x8 grid, k=8.
    g = gen_grid(8, 8)
    cols = Partition.of([[8 * y + x for y in range(8)] for x in range(8)])
    rows = Partition.of([[8 * y + x for x in range(8)] for y in range(8)])
    moves = transform_hamiltonian(g, serpentine(8, 8), cols, rows, SlackBound(8))
    assert len(moves) == 71
    assert canonical_key(replay(g, cols, moves, SlackBound(8))) == canonical_key(rows)


def reference_steps_singleton(g, cycle, p, slack):
    """steps_singleton as it tracked the walker's label itself: each shift is
    labelled and applied in turn, and the label rule decides which label the
    walking singleton carries next."""
    n = cycle.n
    singles = sorted(v for d in p.districts if len(d) == 1 for v in d)
    if not singles:
        raise ValueError("no singleton present")
    labels = {w: dw for _, w, _, dw in _boundaries(cycle, p)}
    starts = list(labels)
    frag_counts = Counter(labels.values())
    if all(c == 1 for c in frag_counts.values()):
        raise ValueError("partition already canonical")
    pos = cycle.positions
    u = singles[0]
    at = starts.index(u)
    walk = starts[at:] + starts[:at]
    t = next(x for x, v in enumerate(walk) if frag_counts[labels[v]] > 1)
    moves = []
    cur = p
    walker = labels[u]
    for db in (labels[v] for v in walk[1:t]):
        if len(cur.districts[db]) == 1:
            walker = db
            continue
        run = sorted(cur.districts[walker] | cur.districts[db], key=lambda v: ((pos[v] - pos[u]) % n))
        cut = len(cur.districts[db])
        part_a, part_b = frozenset(run[:cut]), frozenset(run[cut:])
        m = labelled_move(walker, db, part_a, part_b)
        cur = apply_move(g, cur, m, slack)
        moves.append(m)
        walker = m.i if m.new_i == part_b else m.j
    succ = walk[t]
    w = cycle.order[pos[succ] - 1]
    assert cur.districts[walker] == frozenset({w})
    d2 = next(i for i, d in enumerate(cur.districts) if succ in d)
    tree = _fragment_tree(g, cycle, cur.districts[d2])
    assert tree.chords, "target district must have a chord"
    side = _side(tree.links, tree.label[succ], *(tree.label[v] for v in min(tree.chords)))
    t_minus = frozenset(v for v in cur.districts[d2] if tree.label[v] in side)
    m = labelled_move(walker, d2, frozenset({w}) | t_minus, cur.districts[d2] - t_minus)
    cur = apply_move(g, cur, m, slack)
    moves.append(m)
    return moves, cur


def outcome(call):
    """call's result, or the type and message of what it raised."""
    try:
        return call()
    except (AssertionError, ValueError) as e:
        return type(e), str(e)


def test_steps_singleton_matches_label_tracking_walk():
    # Every slack-n/k partition of seeded chorded cycles that holds a
    # singleton, its districts in a seeded random order, so the label rule
    # meets both orders of each shifted pair.
    rng = random.Random(35)
    seen = Counter()
    for n, k in [(6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 5), (12, 4), (12, 6)] * 2:
        g, c = random_cycle_with_chords(rng, n, rng.randint(1, 4))
        slack = SlackBound(n // k)
        for p in enumerate_partitions(g, k, slack):
            if all(len(d) > 1 for d in p.districts):
                continue
            p = Partition(tuple(rng.sample(p.districts, k)))
            got = outcome(lambda: steps_singleton(g, c, p, slack))
            assert got == outcome(lambda: reference_steps_singleton(g, c, p, slack))
            if isinstance(got[0], list):
                # t: the single-fragment districts the walk crosses, its own
                # included; fewer than t - 1 shifts means a singleton arc.
                labels = {w: dw for _, w, _, dw in _boundaries(c, p)}
                counts = Counter(labels.values())
                u = min(v for d in p.districts if len(d) == 1 for v in d)
                at = c.positions[u]
                walk = [v for v in c.order[at:] + c.order[:at] if v in labels]
                t = next(x for x, v in enumerate(walk) if counts[labels[v]] > 1)
                seen["walks"] += 1
                seen["t=1"] += t == 1
                seen["singleton arc"] += len(got[0]) - 1 < t - 1
    assert seen["walks"] > 3000 and seen["t=1"] > 1000 and seen["singleton arc"] > 500, seen


def test_preconditions_enforced():
    g = gen_cycle(6)
    c = identity_cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        canonicalize(g, c, Partition.of([[0, 1], [2, 3], [4, 5]]), SlackBound(1))
    q = Partition.of([[1, 2, 3], [4, 5, 0]])
    with pytest.raises(ValueError):
        transform_hamiltonian(g, c, p, q, SlackBound(2))  # slack below n/k
    g7 = gen_cycle(7)
    with pytest.raises(ValueError):
        canonicalize(
            g7, identity_cycle(7), Partition.of([[0, 1, 2], [3, 4, 5, 6]]), SlackBound(4)
        )  # k does not divide n


@pytest.mark.parametrize(
    "n, order, parts, slack, match",
    [
        (6, range(6), [[0, 1, 2], [3, 4, 5]], 0, "slack 0 is below n/k = 3"),
        (6, (0, 2, 1, 3, 4, 5), [[0, 1, 2], [3, 4, 5]], 3, "not an edge"),
        (7, range(7), [[0, 1, 2], [3, 4, 5, 6]], 4, "must divide"),
        (6, range(6), [[0, 2], [1, 3, 4, 5]], 3, "invalid partition"),
    ],
    ids=["slack-below-n-over-k", "not-a-hamilton-cycle", "k-not-dividing-n", "disconnected"],
)
def test_preconditions_enforced_on_equal_inputs(n, order, parts, slack, match):
    # Equal inputs need no moves, but they must meet the preconditions too.
    p = Partition.of(parts)
    with pytest.raises(ValueError, match=match):
        transform_hamiltonian(gen_cycle(n), CycleOrder(tuple(order)), p, p, SlackBound(slack))


@pytest.mark.parametrize("parts", [
    [[0, 1, 2, 3], [4, 5, 6]],  # vertex 7 missing
    [[0, 1, 2, 3], [3, 4, 5, 6, 7]],  # vertex 3 in both districts
    [[0, 1, 2, 3], [4, 5, 6, 7, 9]],  # vertex 9 on an 8-cycle
], ids=["missing-vertex", "vertex-in-two-districts", "vertex-outside-the-graph"])
def test_canonical_transform_refuses_malformed_partitions(parts):
    # It was the one transform entry point without validation: these raised
    # AssertionError or KeyError, or returned ([], pc1) as both ends.
    g, c, slack = gen_cycle(8), identity_cycle(8), SlackBound(4)
    bad, good = Partition.of(parts), Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]])
    for pc1, pc2 in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(ValueError, match="^invalid partition: "):
            canonical_transform(g, c, pc1, pc2, slack)


def test_equal_partitions_need_no_canonicalization(monkeypatch):
    g, c, slack = cycle_graph(8, chords=[(0, 4), (3, 7)]), identity_cycle(8), SlackBound(4)
    p = Partition.of([[0, 4, 5, 6], [1, 2, 3, 7]])
    calls = []
    monkeypatch.setattr(hamiltonian, "canonicalize", lambda *a: calls.append(a) or canonicalize(*a))
    assert transform_hamiltonian(g, c, p, p, slack) == []
    assert transform_hamiltonian(g, c, p, Partition(p.districts[::-1]), slack) == []
    assert calls == []
    assert transform_hamiltonian(g, c, p, Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]]), slack)
    assert len(calls) == 2


def test_step_preconditions_refused():
    # Along C9 the large district A alternates with B and C, so every
    # C-adjacent pair is A with one of them: 7 vertices, past 2n/k = 6.
    c = identity_cycle(9)
    labels = "ABACABACA"
    p = Partition.of([[v for v in range(9) if labels[v] == x] for x in "ABC"])
    with pytest.raises(ValueError, match="^no pair found$"):
        hamiltonian.find_small_adjacent_pair(c, p)
    g, c = gen_cycle(6), identity_cycle(6)
    with pytest.raises(ValueError, match="^no singleton present$"):
        steps_singleton(g, c, Partition.of([[0, 1, 2], [3, 4, 5]]), SlackBound(3))


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("slack", [SlackBound(1), SlackBound(None)])
def test_zero_districts_refused(n, slack):
    # k = 0 used to reach n % k and raise ZeroDivisionError.
    g, c, p = cycle_graph(n), identity_cycle(n), Partition(())
    for call in (lambda: transform_hamiltonian(g, c, p, p, slack),
                 lambda: canonicalize(g, c, p, slack),
                 lambda: canonical_transform(g, c, p, p, slack)):
        with pytest.raises(ValueError, match="k=0 must be at least 1"):
            call()


def test_mismatched_k_refused():
    # canonical_transform checked pc1's k only, and unequal k reached an
    # IndexError.
    g, c = gen_cycle(12), identity_cycle(12)
    p2 = Partition.of([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]])
    p3 = Partition.of([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])
    for call in (canonical_transform, transform_hamiltonian):
        with pytest.raises(ValueError, match="mismatched k: 2 vs 3"):
            call(g, c, p2, p3, SlackBound(6))
