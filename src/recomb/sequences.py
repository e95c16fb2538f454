"""Move-sequence plumbing shared by the transformation algorithms.

`labelled_move` is the one label rule: of two new districts, the one holding
the smaller vertex takes the smaller label. Sequences built without labels
("abstract" moves, unlabelled pairs of new districts) are resolved against a
labelled partition by `resolve_moves`, which applies the same rule.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph
from .partitions import Partition, RecombMove, SlackBound, apply_move

AbstractMove = tuple[frozenset, frozenset]


def labelled_move(i: int, j: int, part_a: frozenset, part_b: frozenset) -> RecombMove:
    """The move recombining districts i and j into part_a and part_b."""
    a, b = (part_a, part_b) if min(part_a) < min(part_b) else (part_b, part_a)
    return RecombMove(min(i, j), max(i, j), a, b)


def resolve_moves(
    g: Graph, p: Partition, abstract: Sequence[AbstractMove], slack: SlackBound
) -> tuple[list[RecombMove], Partition]:
    """Turn abstract moves into labeled RecombMoves by replaying from p."""
    cur = p
    out: list[RecombMove] = []
    for part_a, part_b in abstract:
        union = part_a | part_b
        # O(k) scans: a fresh partition's O(n) labels map would serve one lookup.
        lo = min(union)
        a = next(i for i, d in enumerate(cur.districts) if lo in d)
        rest = union - cur.districts[a]
        if not rest:
            raise ValueError("abstract move does not touch two districts")
        lo = min(rest)
        b = next(i for i, d in enumerate(cur.districts) if lo in d)
        if cur.districts[a] | cur.districts[b] != union:
            raise ValueError("abstract move union does not match two districts")
        m = labelled_move(a, b, part_a, part_b)
        cur = apply_move(g, cur, m, slack)
        out.append(m)
    return out, cur


def replay(g: Graph, p: Partition, moves: Sequence[RecombMove], slack: SlackBound) -> Partition:
    """Apply a concrete move sequence, validating every step."""
    cur = p
    for m in moves:
        cur = apply_move(g, cur, m, slack)
    return cur


def inverted_abstract(p: Partition, moves: Sequence[RecombMove]) -> list[AbstractMove]:
    """The reverse sequence, as abstract moves, undoing `moves` (valid from the
    sequence's endpoint back to p; recombination is symmetric).  The moves
    must already be checked from p: they are replayed without checks."""
    cur = p
    states: list[AbstractMove] = []
    for m in moves:
        states.append((cur.districts[m.i], cur.districts[m.j]))
        cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
    return states[::-1]

