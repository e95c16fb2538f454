#!/usr/bin/env python3
"""Certificate: both transforms meet the paper's move bounds on every pair of
balanced partitions of three small grids and two chorded cycles.

The grids are 4x4 with k=4 (117 balanced connected partitions), 4x3 with
k=3 (23) and 6x2 with k=4 (11).  The chorded cycles are C16 with chords
(0,5), (3,11), (6,13), (9,15) and k=4 (39), and C15 with chords (0,7),
(3,11), (5,13) and k=3 (43), both along the cycle order 0..n-1.  For every
ordered pair (p1, p2) of each this runs transform_unbounded and
transform_hamiltonian (along the Hamilton cycle below, at slack n/k),
replays each sequence through apply_move, and checks that it ends at p2
and has at most 6(k-1) (unbounded) or 2k(n-k)+k^2+1 (Hamiltonian) moves:
18 and 113 on the 4x4 grid.

Run from the repository root (about 36 s):

    python3 tools/certify_bounds.py

Prints, per instance and transform, the longest sequence and a sha256 over
all sequences in pair order, and exits 0 iff no pair fails and every
instance has its expected number of balanced partitions.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from recomb.graphs import Graph  # noqa: E402
from recomb.hamiltonian import CycleOrder, transform_hamiltonian  # noqa: E402
from recomb.instances import gen_cycle, gen_grid  # noqa: E402
from recomb.oracle import enumerate_partitions  # noqa: E402
from recomb.partitions import SLACK_INF, SlackBound, canonical_key, format_moves  # noqa: E402
from recomb.sequences import replay  # noqa: E402
from recomb.unbounded import transform_unbounded  # noqa: E402


def chorded_cycle(n: int, chords) -> Graph:
    return Graph(n, gen_cycle(n).edges | set(chords))


# (name, graph, k, Hamilton cycle, balanced partitions)
INSTANCES = (
    ("grid 4x4", gen_grid(4, 4), 4, (0, 1, 2, 3, 7, 6, 5, 9, 10, 11, 15, 14, 13, 12, 8, 4), 117),
    ("grid 4x3", gen_grid(4, 3), 3, (0, 1, 2, 3, 7, 11, 10, 6, 5, 9, 8, 4), 23),
    ("grid 6x2", gen_grid(6, 2), 4, (0, 1, 2, 3, 4, 5, 11, 10, 9, 8, 7, 6), 11),
    ("C16 with 4 chords", chorded_cycle(16, [(0, 5), (3, 11), (6, 13), (9, 15)]), 4,
     tuple(range(16)), 39),
    ("C15 with 3 chords", chorded_cycle(15, [(0, 7), (3, 11), (5, 13)]), 3,
     tuple(range(15)), 43),
)


def certify(name, transform, g, parts, slack, bound) -> bool:
    digest = hashlib.sha256()
    failures = 0
    longest = (-1, None)
    for a, p1 in enumerate(parts):
        for b, p2 in enumerate(parts):
            try:
                moves = transform(p1, p2)
                if canonical_key(replay(g, p1, moves, slack)) != canonical_key(p2):
                    raise AssertionError("sequence does not end at p2")
                if len(moves) > bound:
                    raise AssertionError(f"{len(moves)} moves exceed the bound {bound}")
            except (AssertionError, ValueError) as exc:
                failures += 1
                print(f"{name}: pair ({a}, {b}) failed: {type(exc).__name__}: {exc}")
                continue
            digest.update(format_moves(moves).encode() + b"\n")
            longest = max(longest, (len(moves), (a, b)))
    pairs = len(parts) ** 2
    print(f"{name}: {pairs} pairs, {failures} failed, longest {longest[0]} moves "
          f"(pair {longest[1]}), bound {bound}, sha256 {digest.hexdigest()}")
    return failures == 0


def main() -> int:
    ok = True
    for name, g, k, order, count in INSTANCES:
        cycle = CycleOrder(order)
        cycle.check(g)
        parts = enumerate_partitions(g, k, SlackBound(0))
        print(f"{name}, k={k}: {len(parts)} balanced partitions")
        hslack = SlackBound(g.n // k)
        ok &= certify("unbounded", lambda p1, p2: transform_unbounded(g, p1, p2),
                      g, parts, SLACK_INF, 6 * (k - 1))
        ok &= certify("hamiltonian",
                      lambda p1, p2: transform_hamiltonian(g, cycle, p1, p2, hslack),
                      g, parts, hslack, 2 * k * (g.n - k) + k * k + 1)
        ok &= len(parts) == count
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
