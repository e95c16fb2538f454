"""Move-sequence plumbing shared by the transformation algorithms.

`labelled_move` is the one label rule: of two new districts, the one holding
the smaller vertex takes the smaller label. Sequences built without labels
("abstract" moves, unlabelled pairs of new districts) are resolved against a
labelled partition by `resolve_moves`, which applies the same rule, and
undone by `inverted_abstract`, the only inverse.
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


def _holder(districts: Sequence[frozenset], v: int) -> int:
    for i, d in enumerate(districts):
        if v in d:
            return i
    raise ValueError(f"abstract move holds vertex {v}, which is in no district")


def _touched(districts: Sequence[frozenset], union: frozenset) -> tuple[int, int]:
    """The indices of the two districts an unlabelled move with this union
    rewrites: the holders of its least vertex and of its least vertex outside
    the first.  O(k) scans: a fresh O(n) labels map would serve one lookup."""
    a = _holder(districts, min(union))
    rest = union - districts[a]
    if not rest:
        raise ValueError("abstract move does not touch two districts")
    b = _holder(districts, min(rest))
    if districts[a] | districts[b] != union:
        raise ValueError("abstract move union does not match two districts")
    return a, b


def resolve_moves(g: Graph, p: Partition, abstract: Sequence[AbstractMove],
                  slack: SlackBound) -> tuple[list[RecombMove], Partition]:
    """Turn abstract moves into labeled RecombMoves by replaying from p."""
    cur = p
    out: list[RecombMove] = []
    for part_a, part_b in abstract:
        a, b = _touched(cur.districts, part_a | part_b)
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


def inverted_abstract(
    districts: Sequence[frozenset], abstract: Sequence[AbstractMove]
) -> list[AbstractMove]:
    """The pairs of districts that the moves of `abstract` rewrite, replayed
    unchecked from `districts` (in any order), last one first: the moves from
    the sequence's endpoint back to `districts`, since an undone recombination
    is a recombination.  The moves must already be valid from `districts`."""
    ds = list(districts)
    undo: list[AbstractMove] = []
    for part_a, part_b in abstract:
        a, b = _touched(ds, part_a | part_b)
        undo.append((ds[a], ds[b]))
        ds[a], ds[b] = part_a, part_b
    return undo[::-1]
