import random

import pytest

from recomb import graphs, hamiltonian, unbounded
from recomb.graphs import Graph, is_connected
from recomb.hamiltonian import CycleOrder, transform_hamiltonian
from recomb.instances import gen_grid
from recomb.oracle import enumerate_partitions, recom_walk
from recomb.partitions import (
    MoveError,
    Partition,
    RecombMove,
    SLACK_INF,
    SlackBound,
    canonical_key,
)
from recomb.sequences import inverted_abstract, replay, resolve_moves
from recomb.unbounded import transform_unbounded


def cycle(n, chords=()):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)} | set(chords))


def test_resolve_moves_matches_labels():
    g = cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    abstract = [(frozenset({0, 1}), frozenset({2, 3, 4, 5}))]
    moves, final = resolve_moves(g, p, abstract, SLACK_INF)
    assert moves == [RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3, 4, 5}))]
    assert final.districts == (frozenset({0, 1}), frozenset({2, 3, 4, 5}))


def test_resolve_moves_picks_districts_by_content():
    # Same abstract move, districts listed with swapped labels.
    g = cycle(6)
    p = Partition.of([[3, 4, 5], [0, 1, 2]])
    abstract = [(frozenset({0, 1}), frozenset({2, 3, 4, 5}))]
    moves, final = resolve_moves(g, p, abstract, SLACK_INF)
    (m,) = moves
    assert (m.i, m.j) == (0, 1)
    assert canonical_key(final) == ((0, 1), (2, 3, 4, 5))


def test_resolve_moves_rejects_bad_unions():
    g = cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        resolve_moves(g, p, [(frozenset({0, 1}), frozenset({2}))], SLACK_INF)
    with pytest.raises(ValueError):
        resolve_moves(g, p, [(frozenset({0, 1}), frozenset({2, 3}))], SLACK_INF)
    # A vertex in no district: a ValueError, not a StopIteration.
    stray = [(frozenset({99}), frozenset({0, 1, 2}))]
    with pytest.raises(ValueError, match="in no district"):
        resolve_moves(g, p, stray, SLACK_INF)
    with pytest.raises(ValueError, match="in no district"):
        inverted_abstract(p.districts, stray)


def test_replay_and_inversion_roundtrip():
    g = cycle(8)
    p = Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]])
    slack = SlackBound(2)
    moves = [
        RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3, 4, 5, 6, 7})),
        RecombMove(0, 1, frozenset({0, 1, 2, 7}), frozenset({3, 4, 5, 6})),
    ]
    end = replay(g, p, moves, slack)
    back = inverted_abstract(p.districts, [(m.new_i, m.new_j) for m in moves])
    undone, final = resolve_moves(g, end, back, slack)
    assert len(undone) == len(moves)
    assert canonical_key(final) == canonical_key(p)


def walk_pairs(trace):
    """The (new_i, new_j) pairs of a walk trace's moves that change the partition."""
    keys = [trace.start_key] + [key for _, key in trace.steps]
    pairs = []
    for before, after in zip(keys, keys[1:]):
        new = [frozenset(d) for d in after if d not in before]
        if new:
            pairs.append(tuple(new))
    return pairs


def forward_sequences(source):
    """Twelve seeded (graph, start, forward pairs, slack) cases from one source:
    transform outputs between random partitions, or seeded walk traces."""
    rng = random.Random(41)
    if source == "walk":
        g, slack = gen_grid(4, 4), SlackBound(1)
        starts = enumerate_partitions(g, 4, slack)
        for seed in range(12):
            start = rng.choice(starts)
            yield g, start, walk_pairs(recom_walk(g, 4, slack, start, 15, seed)), slack
        return
    if source == "unbounded":
        g, slack = gen_grid(3, 3), SLACK_INF
    else:
        g, slack = cycle(12, [(0, 5), (3, 9), (6, 11)]), SlackBound(4)
    parts = enumerate_partitions(g, 3, slack)
    for _ in range(12):
        p1, p2 = rng.choice(parts), rng.choice(parts)
        if source == "unbounded":
            moves = transform_unbounded(g, p1, p2)
        else:
            moves = transform_hamiltonian(g, CycleOrder(tuple(range(12))), p1, p2, slack)
        yield g, p1, [(m.new_i, m.new_j) for m in moves], slack


@pytest.mark.parametrize("source", ["unbounded", "hamiltonian", "walk"])
def test_inversion_round_trip(source):
    rng = random.Random(42)
    lengths = []
    for g, start, pairs, slack in forward_sequences(source):
        _, end = resolve_moves(g, start, pairs, slack)
        back = inverted_abstract(start.districts, pairs)
        undone, final = resolve_moves(g, end, back, slack)
        assert len(undone) == len(pairs)
        assert canonical_key(final) == canonical_key(start)
        # The districts are found by content, so their order does not matter.
        shuffled = list(start.districts)
        rng.shuffle(shuffled)
        assert inverted_abstract(shuffled, pairs) == back
        # Undoing the undo gives the forward pairs back.
        again = inverted_abstract(end.districts, back)
        assert [set(pair) for pair in again] == [set(pair) for pair in pairs]
        lengths.append(len(pairs))
    assert max(lengths) >= 3


def logged_reach(monkeypatch, log):
    """Replace graphs.reach by a wrapper that calls log(adj, within, parent) after each BFS."""
    real = graphs.reach

    def reach(adj, start, within):
        parent = real(adj, start, within)
        log(adj, within, parent)
        return parent

    monkeypatch.setattr(graphs, "reach", reach)


def test_resolve_moves_searches_the_parts_its_graph_has_not_proved(monkeypatch):
    searched = []
    logged_reach(monkeypatch, lambda adj, within, parent: searched.append(within))
    g = cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    # A disconnected split is refused, whatever the graph proved before.
    split = (frozenset({0, 1, 3}), frozenset({2, 4, 5}))
    for s in (frozenset({0, 1}), frozenset({3}), p.districts[0], *split):
        is_connected(g, s)
    with pytest.raises(MoveError) as exc:
        resolve_moves(g, p, [split], SLACK_INF)
    assert exc.value.code == "disconnected-part"
    # Each part is searched once per Graph object: an equal graph shares no proofs.
    good = (frozenset({0, 1}), frozenset({2, 3, 4, 5}))
    for graph, want in ((g, list(good)), (g, []), (cycle(6), list(good))):
        searched.clear()
        moves, final = resolve_moves(graph, p, [good], SLACK_INF)
        assert (moves, final) == ([RecombMove(0, 1, *good)], Partition(good))
        assert searched == want


def transform_cases():
    """Seeded (graph, Hamilton cycle, p1, p2, slack n/k) cases: random pairs of
    balanced partitions of a grid and of a chorded cycle."""
    rng = random.Random(23)
    instances = [(gen_grid(4, 4), 4, (0, 1, 2, 3, 7, 6, 5, 9, 10, 11, 15, 14, 13, 12, 8, 4)),
                 (cycle(15, [(0, 7), (3, 11), (5, 13)]), 3, tuple(range(15)))]
    for g, k, order in instances:
        parts = enumerate_partitions(g, k, SlackBound(0))
        for _ in range(25):
            yield g, CycleOrder(order), rng.choice(parts), rng.choice(parts), SlackBound(g.n // k)


@pytest.mark.parametrize("mode", ["unbounded", "hamiltonian"])
def test_transform_replays_search_only_sets_no_bfs_of_the_graph_proved(monkeypatch, mode):
    """Within one transform call on a fresh Graph, each replay searches
    exactly the parts that no earlier BFS of that Graph reached in full (the
    test holds every such set, so none leaves the record), none in the
    Hamiltonian back replay, and resolves what a full-check replay on another
    fresh Graph does."""
    module = unbounded if mode == "unbounded" else hamiltonian
    proved, searched, replays = set(), [], []
    current = {}  # "g": the Graph of the transform call under way
    real_resolve = module.resolve_moves

    def log(adj, within, parent):
        if adj is current["g"].adj:
            searched.append(within)
            if len(parent) == len(within):
                proved.add(within)

    def resolve(g, p, abstract, slack):
        assert g is current["g"]
        before, start = set(proved), len(searched)
        moves, final = real_resolve(g, p, abstract, slack)
        want = []
        for part in (part for m in moves for part in (m.new_i, m.new_j)):
            if part not in before:
                want.append(part)
                before.add(part)
        assert searched[start:] == want
        replays.append((2 * len(moves), len(want)))
        assert (moves, final) == real_resolve(Graph(g.n, g.edges), p, abstract, slack)
        return moves, final

    logged_reach(monkeypatch, log)
    monkeypatch.setattr(module, "resolve_moves", resolve)
    back = []  # (parts, searched) of each Hamiltonian back replay
    for g, c, p1, p2, slack in transform_cases():
        current["g"] = g = Graph(g.n, g.edges)
        proved.clear()
        if mode == "unbounded":
            moves, slack = transform_unbounded(g, p1, p2), SLACK_INF
        else:
            moves = transform_hamiltonian(g, c, p1, p2, slack)
            if canonical_key(p1) != canonical_key(p2):  # the back replay ran last
                back.append(replays[-1])
        assert canonical_key(replay(g, p1, moves, slack)) == canonical_key(p2)
    parts = sum(n for n, _ in replays)
    if mode == "hamiltonian":
        assert all(n == 0 for _, n in back) and sum(n for n, _ in back) > 100
    else:
        assert 0 < sum(n for _, n in replays) < parts / 2
