#!/usr/bin/env python3
"""Certificate: no chord placement of gen_negative(4, 1) locks at slack 1.

gen_negative(4, 1) is a 20-cycle whose four special districts each consist
of two arcs joined by one chord.  The arc schedule fixes the arcs; a chord
may join any vertex of its district's first arc to any vertex of its second
arc, which gives 6 placements per chord and 6**4 = 1,296 graphs.  For each
graph this runs decide_br from pA to the contiguous-arcs partition at slack 1
with a visit hook that stops the search at the first partition that is not
chord-split (some chord not a bridge inside one district).  A graph whose
search never stops would be a locked negative instance.

Run from the repository root (about 1.2 s):

    python3 tools/certify_negative.py

Prints the counts and exits 0 iff every placement breaks the invariant.
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from recomb.graphs import Graph, is_connected  # noqa: E402
from recomb.instances import arc_partition, gen_negative  # noqa: E402
from recomb.oracle import decide_br  # noqa: E402
from recomb.partitions import SlackBound  # noqa: E402

K, S, SLACK = 4, 1, 1


class Broken(Exception):
    pass


def arcs_of(district, n):
    """Maximal runs of consecutive cycle vertices in a district."""
    starts = [v for v in sorted(district) if (v - 1) % n not in district]
    runs = []
    for v in starts:
        run = [v]
        while (run[-1] + 1) % n in district:
            run.append((run[-1] + 1) % n)
        runs.append(run)
    return runs


def chord_split(p, chords, without):
    for c in chords:
        d = next((d for d in p.districts if c[0] in d and c[1] in d), None)
        if d is None or is_connected(without[c], d):
            return False
    return True


def main() -> int:
    g0, pa, _ = gen_negative(K, S)
    n = g0.n
    cycle_edges = {e for e in g0.edges if (e[1] - e[0]) % n in (1, n - 1)}
    options = []
    for d in pa.districts:
        first, second = arcs_of(d, n)
        options.append([(min(a, b), max(a, b)) for a in first for b in second])
    pb = arc_partition(n, K)
    slack = SlackBound(SLACK)
    placements = broken = 0
    seen_before_break = []
    for chords in itertools.product(*options):
        placements += 1
        g = Graph(n, cycle_edges | set(chords))
        without = {c: Graph(n, g.edges - {c}) for c in chords}
        visited = [0]

        def hook(p):
            visited[0] += 1
            if not chord_split(p, chords, without):
                raise Broken

        try:
            decide_br(g, K, slack, pa, pb, visit_hook=hook)
        except Broken:
            broken += 1
            seen_before_break.append(visited[0])
        else:
            print("locked placement: chords %s" % (sorted(chords),))
    print("gen_negative(%d, %d) at slack %d: %d chord placements" % (K, S, SLACK, placements))
    print("chord-split invariant broken: %d" % broken)
    if seen_before_break:
        print("partitions visited up to the break: %d to %d"
              % (min(seen_before_break), max(seen_before_break)))
    print("locked: %d" % (placements - broken))
    return 0 if placements == 6 ** 4 and broken == placements else 1


if __name__ == "__main__":
    sys.exit(main())
