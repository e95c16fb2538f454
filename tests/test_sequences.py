import random

import pytest

from recomb import hamiltonian, partitions, unbounded
from recomb.graphs import Graph
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


def test_resolve_moves_passes_connected_to_apply_move():
    g = cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    split = (frozenset({0, 1, 3}), frozenset({2, 4, 5}))
    for connected in ((), {split[1]}):
        with pytest.raises(MoveError) as exc:
            resolve_moves(g, p, [split], SLACK_INF, _connected=connected)
        assert exc.value.code == "disconnected-part"
    # Listing both parts skips both searches, so only a caller that found
    # them connected may list them.
    moves, _ = resolve_moves(g, p, [split], SLACK_INF, _connected=set(split))
    assert moves == [RecombMove(0, 1, *split)]


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
def test_transform_replays_search_only_parts_not_yet_found_connected(monkeypatch, mode):
    """Each replay given `_connected` lists only sets that is_connected,
    spanning_tree or validate accepted earlier in the same transform, searches
    every other part once, and resolves the moves a full-check replay does."""
    module = unbounded if mode == "unbounded" else hamiltonian
    accepted, searched, replays = set(), [], []
    real_is_connected, real_tree = partitions.is_connected, unbounded.spanning_tree
    real_validate, real_resolve = partitions.validate, module.resolve_moves

    def is_connected(g, s):
        searched.append(frozenset(s))
        found = real_is_connected(g, s)
        if found:
            accepted.add(frozenset(s))
        return found

    def spanning_tree(g, s):
        tree = real_tree(g, s)
        accepted.add(frozenset(s))
        return tree

    def validate(g, p, k, slack):
        report = real_validate(g, p, k, slack)
        if report.ok:
            accepted.update(p.districts)
        return report

    def resolve(g, p, abstract, slack, **kw):
        if "_connected" not in kw:
            return real_resolve(g, p, abstract, slack)
        connected = set(kw["_connected"])
        assert connected <= accepted
        start = len(searched)
        moves, final = real_resolve(g, p, abstract, slack, **kw)
        parts = [part for m in moves for part in (m.new_i, m.new_j)]
        assert searched[start:] == [part for part in parts if part not in connected]
        replays.append((len(parts), len(searched) - start))
        assert (moves, final) == real_resolve(g, p, abstract, slack)
        return moves, final

    for name, wrapper in (("is_connected", is_connected), ("validate", validate)):
        monkeypatch.setattr(partitions, name, wrapper)
    monkeypatch.setattr(unbounded, "is_connected", is_connected)
    monkeypatch.setattr(unbounded, "spanning_tree", spanning_tree)
    monkeypatch.setattr(module, "validate", validate)
    monkeypatch.setattr(module, "resolve_moves", resolve)
    for g, c, p1, p2, slack in transform_cases():
        accepted.clear()
        if mode == "unbounded":
            moves, slack = transform_unbounded(g, p1, p2), SLACK_INF
        else:
            moves = transform_hamiltonian(g, c, p1, p2, slack)
        assert canonical_key(replay(g, p1, moves, slack)) == canonical_key(p2)
    parts = sum(n for n, _ in replays)
    if mode == "hamiltonian":
        assert all(n == 0 for _, n in replays) and parts > 100
    else:
        assert 0 < sum(n for _, n in replays) < parts / 2
