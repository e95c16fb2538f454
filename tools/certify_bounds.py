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

Each sequence is replayed through sequences.replay on a fresh copy of the
graph, Graph(g.n, g.edges), whose record of connected sets starts empty: a
part's connectivity is trusted only after a BFS of this replay found it, never
because the transform under test searched it in g.

Run from the repository root (33-38 s of CPU on a 2-vCPU Xeon VM whose
speed varies; about 14 s when it runs fast):

    python3 tools/certify_bounds.py

Prints, per instance and transform, the longest sequence and a sha256 over
all sequences in pair order, and exits 0 iff no pair fails, every instance
has its expected number of balanced partitions and every sha256 equals its
pinned value in DIGESTS, so any change to a move sequence is caught.
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

# Per instance: the sha256 over all unbounded, then all Hamiltonian sequences.
DIGESTS = {
    "grid 4x4": ("ca2a31fb5dae7acafe3d8e2545f1584c437fe0bd6febc8b650ba221841fda4fa",
                 "3e8c8db18c5d56fe2fe3225698aa4afca5ba1955c9992076676d2414d8caa8bb"),
    "grid 4x3": ("04b80b714a25a7c52e23ed3a9308c981995ebc7e43cf68b2ba5922e7316d53c8",
                 "74437ada472eb334b3d1da895d6ba56dbc309e58c9a7c521c4f2b2c22375944f"),
    "grid 6x2": ("09ec64e916b124b1a52f7c64c1e4d18310e85c2be687fc71aaa59f14f1cd69c2",
                 "adefe13d57acf40bfb450af7d2c019fe577cdbdde7a5bac2df5f5e823c2c1e43"),
    "C16 with 4 chords": ("bc7ed08c0d98dda03f0e7ad0002637d48491f4cd9a9088f63700b1a41fbe8d6b",
                          "a21d0950967772b5380251f6ff6c3f62d6a9745bf940827d8592a9721baf36e3"),
    "C15 with 3 chords": ("cb68a6404ce3d65d005519843c065ffb48c2b90c997f88d57704f8107caeed71",
                          "af2cc1cae946273784c25ef4ecc3ebe1a2afcf6297db7cc7374db7664292a66f"),
}


def certify(name, transform, g, parts, slack, bound, pinned) -> bool:
    digest = hashlib.sha256()
    failures = 0
    longest = (-1, None)
    for a, p1 in enumerate(parts):
        for b, p2 in enumerate(parts):
            try:
                moves = transform(p1, p2)
                if canonical_key(replay(Graph(g.n, g.edges), p1, moves, slack)) != canonical_key(p2):
                    raise AssertionError("sequence does not end at p2")
                if len(moves) > bound:
                    raise AssertionError(f"{len(moves)} moves exceed the bound {bound}")
            except (AssertionError, ValueError) as exc:
                failures += 1
                print(f"{name}: pair ({a}, {b}) failed: {type(exc).__name__}: {exc}")
                continue
            digest.update(format_moves(moves).encode() + b"\n")
            longest = max(longest, (len(moves), (a, b)))
    pairs, sha = len(parts) ** 2, digest.hexdigest()
    print(f"{name}: {pairs} pairs, {failures} failed, longest {longest[0]} moves "
          f"(pair {longest[1]}), bound {bound}, sha256 {sha}")
    if sha != pinned:
        print(f"{name}: sha256 differs from the pinned {pinned}")
    return failures == 0 and sha == pinned


def main() -> int:
    ok = True
    for name, g, k, order, count in INSTANCES:
        cycle = CycleOrder(order)
        cycle.check(g)
        parts = enumerate_partitions(g, k, SlackBound(0))
        print(f"{name}, k={k}: {len(parts)} balanced partitions")
        hslack = SlackBound(g.n // k)
        pinned_u, pinned_h = DIGESTS[name]
        ok &= certify("unbounded", lambda p1, p2: transform_unbounded(g, p1, p2),
                      g, parts, SLACK_INF, 6 * (k - 1), pinned_u)
        ok &= certify("hamiltonian",
                      lambda p1, p2: transform_hamiltonian(g, cycle, p1, p2, hslack),
                      g, parts, hslack, 2 * k * (g.n - k) + k * k + 1, pinned_h)
        ok &= len(parts) == count
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
