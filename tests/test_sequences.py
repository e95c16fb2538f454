import pytest

from recomb.graphs import Graph
from recomb.partitions import (
    Partition,
    RecombMove,
    SLACK_INF,
    SlackBound,
    canonical_key,
)
from recomb.sequences import inverted_abstract, replay, resolve_moves


def cycle(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


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


def test_replay_and_inversion_roundtrip():
    g = cycle(8)
    p = Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]])
    slack = SlackBound(2)
    moves = [
        RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3, 4, 5, 6, 7})),
        RecombMove(0, 1, frozenset({0, 1, 2, 7}), frozenset({3, 4, 5, 6})),
    ]
    end = replay(g, p, moves, slack)
    back = inverted_abstract(p, moves)
    undone, final = resolve_moves(g, end, back, slack)
    assert len(undone) == len(moves)
    assert canonical_key(final) == canonical_key(p)

