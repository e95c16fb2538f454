"""Acceptance suite: one criterion per test, one PASS/FAIL line each."""

import contextlib
import io
import math
import random
from collections import Counter, deque

from recomb.cli import format_cycle, run
from recomb.graphs import (
    Graph,
    block_cut,
    connected_components,
    edge_adjacency,
    format_graph,
    is_connected,
    spanning_tree,
)
from recomb.hamiltonian import (
    CycleOrder,
    _fragment_tree,
    canonical_transform,
    fragment_count,
    transform_hamiltonian,
)
from recomb.instances import arc_partition, gen_cycle, gen_negative, gen_path, gen_random_connected
from recomb.ncl import (
    check_orientation,
    flip_pairs,
    k4_all_blue,
    partition_to_orientation,
    reduce_ncl,
)
from recomb.oracle import build_space, decide_br, enumerate_partitions
from recomb.partitions import (
    SLACK_INF,
    Partition,
    SlackBound,
    canonical_key,
    enumerate_moves,
    format_partition,
    parse_moves,
    parse_partition,
    validate,
)
from recomb.sequences import replay
from tree_reference import tree_center


def report(num, ok, detail=""):
    line = "criterion %d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def random_partition(g, k, rng):
    t = spanning_tree(g, g.vertices())
    removed = rng.sample(sorted(t), k - 1)
    kept = t - set(removed)
    comps = connected_components(Graph(g.n, kept).adj, g.vertices())
    return Partition.of([sorted(c) for c in comps])


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_criterion_1_unbounded_bound(tmp_path):
    rng = random.Random(20260825)
    gp = tmp_path / "g.graph"
    ap = tmp_path / "a.part"
    bp = tmp_path / "b.part"
    out = tmp_path / "moves.txt"
    ok = True
    for trial in range(200):
        n = rng.randrange(5, 13)
        k = rng.randrange(2, 5)
        mmax = min(n * (n - 1) // 2, n + 3)
        m = rng.randrange(n - 1, mmax + 1)
        g = gen_random_connected(n, m, seed=rng.randrange(1 << 30))
        pa = random_partition(g, k, rng)
        pb = random_partition(g, k, rng)
        write(gp, format_graph(g))
        write(ap, format_partition(pa, n))
        write(bp, format_partition(pb, n))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run(["transform", "--mode", "unbounded", "--graph", str(gp),
                      "--from", str(ap), "--to", str(bp), "--slack", "inf",
                      "--out", str(out)])
        if rc != 0:
            ok = False
            break
        moves = parse_moves(read(out))
        if len(moves) > 6 * (k - 1):
            ok = False
            break
        end = replay(g, pa, moves, SLACK_INF)  # validates every prefix
        if canonical_key(end) != canonical_key(pb):
            ok = False
            break
    report(1, ok)


def test_criterion_2_canonical_diameter():
    n, k = 8, 2
    g = gen_cycle(n)
    cycle = CycleOrder(tuple(range(n)))
    slack = SlackBound(4)
    cg = build_space(g, k, slack)
    canon = [i for i, key in enumerate(cg.nodes)
             if fragment_count(cycle, Partition.of([sorted(d) for d in key])) == k]
    canon_set = set(canon)
    adj = {i: [] for i in canon}
    for a, b in cg.edges:
        if a in canon_set and b in canon_set:
            adj[a].append(b)
            adj[b].append(a)
    bound = k * k + 1
    diam = 0
    for src in canon:
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        diam = max(diam, max(dist.values()))
    ok = diam <= bound
    parts = [Partition.of([sorted(d) for d in cg.nodes[i]]) for i in canon]
    for pa in parts:
        for pb in parts:
            moves, _ = canonical_transform(g, cycle, pa, pb, slack)
            if len(moves) > bound:
                ok = False
            end = replay(g, pa, moves, slack)
            if canonical_key(end) != canonical_key(pb):
                ok = False
    report(2, ok, "diameter %d <= %d" % (diam, bound))


def chordy_cycle(n, seed):
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(3):
        while True:
            u, v = sorted(rng.sample(range(n), 2))
            if (v - u) % n not in (1, n - 1) and (u, v) not in edges:
                edges.add((u, v))
                break
    return Graph(n, edges)


def test_criterion_3_hamiltonian_bound():
    rng = random.Random(7)
    ok = True
    for n, k in [(8, 2), (8, 4), (12, 2), (12, 3), (12, 4)]:
        slack = SlackBound(n // k)
        cycle = CycleOrder(tuple(range(n)))
        bound = 2 * k * (n - k) + k * k + 1
        for g in (gen_cycle(n), chordy_cycle(n, seed=100 * n + k)):
            pool = enumerate_partitions(g, k, slack)
            for _ in range(50):
                pa, pb = rng.choice(pool), rng.choice(pool)
                moves = transform_hamiltonian(g, cycle, pa, pb, slack)
                if len(moves) > bound:
                    ok = False
                end = replay(g, pa, moves, slack)  # validates intermediates
                if canonical_key(end) != canonical_key(pb):
                    ok = False
    report(3, ok)


def test_criterion_4_cycle_connectivity():
    ok = True
    for n in range(4, 11):
        cg = build_space(gen_cycle(n), 2, SlackBound(n // 2))
        if cg.component_count != 1:
            ok = False
    report(4, ok)


def test_criterion_5_negative_disconnected():
    # Result (3): a negative instance with 1 <= s <= n/(3k).  gen_negative(4, 2)
    # (n = 32, n/(3k) = 8/3) locks at slack 1: pA's component holds 167
    # partitions, all chord-split.  gen_negative(4, 1) cannot serve: at slack 1
    # every placement of its four chords in the documented arc schedule breaks
    # the invariant (tools/certify_negative.py checks all 1,296), and its arc
    # partition is reachable in 8 moves (pinned in test_instances.py).
    k, s = 4, 1
    g, pa, cycle = gen_negative(k, 2)
    n = g.n
    slack = SlackBound(s)
    chords = sorted(e for e in g.edges if (e[1] - e[0]) % n not in (1, n - 1))
    ok = validate(g, pa, k, slack).ok and len(chords) == 4

    def chord_split(p):
        # every chord's endpoints share a district, and removing the chord
        # disconnects that district
        for c in chords:
            d = next((dd for dd in p.districts if c[0] in dd and c[1] in dd), None)
            if d is None:
                return False
            adj = {v: [] for v in d}
            for a, b in g.edges:
                if a in d and b in d and (a, b) != c:
                    adj[a].append(b)
                    adj[b].append(a)
            seen = {min(d)}
            stack = [min(d)]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(d):
                return False
        return True

    invariant = [True]
    visited = [0]

    def hook(p):
        visited[0] += 1
        if invariant[0] and not chord_split(p):
            invariant[0] = False

    pb = arc_partition(n, k)
    ok = ok and validate(g, pb, k, slack).ok
    reachable, moves = decide_br(g, k, slack, pa, pb, visit_hook=hook)
    ok = ok and not reachable and invariant[0] and visited[0] == 167
    detail = "%d partitions visited" % visited[0]
    if reachable or not invariant[0]:
        detail = "pB %s, chord-split invariant %s" % (
            "reachable in %d moves" % len(moves) if reachable else "unreachable",
            "holds" if invariant[0] else "violated")
    report(5, ok, detail)


def test_criterion_6_count_identities():
    ok = True
    for n in range(2, 13):
        for k in range(1, 5):
            if k > n:
                continue
            got = len(enumerate_partitions(gen_path(n), k, SLACK_INF))
            if got != math.comb(n - 1, k - 1):
                ok = False
    for n in range(3, 13):
        for k in range(2, 5):
            if k > n:
                continue
            got = len(enumerate_partitions(gen_cycle(n), k, SLACK_INF))
            if got != math.comb(n, k):
                ok = False
    report(6, ok)


def test_criterion_7_reduction_structure():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    ok = r.k == 14 and r.alpha == 5
    slack = SlackBound(0)
    for p in (r.pi_a, r.pi_b):
        rep = validate(r.graph, p, r.k, slack)
        ok = ok and rep.ok and all(len(d) == 50 for d in p.districts)
    for v, roles in r.gadget_vertices.items():
        weights = Counter(r.heavy[base][0] for base in roles.values()
                          if base in r.heavy)
        if r.ncl.kinds[v] == "OR":
            ok = ok and weights == Counter({5: 5, 27: 1, 45: 1})
        else:  # subdivision (degree-2) vertices
            ok = ok and weights == Counter({24: 2})
    ok = ok and partition_to_orientation(r, r.pi_a).dirs == a.dirs
    ok = ok and partition_to_orientation(r, r.pi_b).dirs == b.dirs
    report(7, ok)


def test_criterion_8_flip_recomb():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    sub = r.ncl
    slack = SlackBound(r.s)
    ok = True
    flips = 0
    for e in range(sub.ne):
        o2 = a.flip(e)
        if not check_orientation(sub, o2):
            continue
        flips += 1
        target = reduce_ncl(ncl, o2, b, s=0).pi_a
        found, moves = decide_br(
            r.graph, r.k, slack, r.pi_a, target,
            pairs=flip_pairs(r, e), max_depth=2,
        )
        if not (found and len(moves) <= 2):
            ok = False
    ok = ok and flips > 0
    report(8, ok, "%d legal flips" % flips)


def brute_moves(g, p, slack):
    found = set()
    for i in range(p.k):
        for j in range(i + 1, p.k):
            union = sorted(p.districts[i] | p.districts[j])
            if not is_connected(g, union):
                continue
            for mask in range(1 << (len(union) - 1)):
                side = {union[0]}
                for t, v in enumerate(union[1:]):
                    if mask >> t & 1:
                        side.add(v)
                other = set(union) - side
                if not other:
                    continue
                if not slack.size_ok(g.n, p.k, len(side)):
                    continue
                if not slack.size_ok(g.n, p.k, len(other)):
                    continue
                if not is_connected(g, side) or not is_connected(g, other):
                    continue
                pair = frozenset((frozenset(side), frozenset(other)))
                if pair == frozenset((p.districts[i], p.districts[j])):
                    continue
                found.add(pair)
    return found


def test_criterion_9_property_suites():
    ok = True
    rng = random.Random(99)
    # move enumeration soundness and completeness vs brute force
    for _ in range(25):
        n = rng.randrange(4, 9)
        m = rng.randrange(n - 1, min(n * (n - 1) // 2, n + 3) + 1)
        g = gen_random_connected(n, m, seed=rng.randrange(1 << 30))
        k = rng.randrange(2, 4)
        slack = SlackBound(rng.randrange(0, n))
        for p in enumerate_partitions(g, k, slack)[:6]:
            got = {
                frozenset((m_.new_i, m_.new_j))
                for m_ in enumerate_moves(g, p, slack)
            }
            if got != brute_moves(g, p, slack):
                ok = False
    # block-cut tree vs brute-force cut vertices
    for _ in range(25):
        n = rng.randrange(3, 11)
        m = rng.randrange(n - 1, min(n * (n - 1) // 2, n + 4) + 1)
        g = gen_random_connected(n, m, seed=rng.randrange(1 << 30))
        brute_cuts = {
            v for v in range(n)
            if n > 1 and not is_connected(g, set(range(n)) - {v})
        }
        if block_cut(dict(enumerate(g.adj))) != brute_cuts:
            ok = False
    # tree centers vs brute force: the center minimizes the worst component
    # size of T - v
    for _ in range(25):
        n = rng.randrange(1, 11)
        g = gen_random_connected(n, n - 1, seed=rng.randrange(1 << 30))
        t = spanning_tree(g, g.vertices())
        center = tree_center(edge_adjacency(range(n), t))

        def worst(v):
            rest = set(range(n)) - {v}
            comps = connected_components(Graph(n, t).adj, rest)
            return max((len(c) for c in comps), default=0)

        if worst(center) != min(worst(v) for v in range(n)):
            ok = False
    # light fragment subtree weight at most |V_i|/2
    for _ in range(25):
        n = rng.choice([8, 10, 12, 14])
        g = chordy_cycle(n, seed=rng.randrange(1 << 30))
        cycle = CycleOrder(tuple(range(n)))
        k = rng.choice([2, 3, 4]) if n % 3 == 0 else rng.choice([2, 4])
        if n % k:
            continue
        slack = SlackBound(n // k)
        pool = enumerate_partitions(g, k, slack)
        for p in rng.sample(pool, min(4, len(pool))):
            for i in range(k):
                tree = _fragment_tree(g, cycle, p.districts[i])
                for v in p.districts[i]:
                    cut = tree.shed(v)
                    sub = None if cut is None else cut[0]
                    if sub is not None and len(sub) > len(p.districts[i]) / 2:
                        ok = False
    report(9, ok)
