import itertools
import random
from collections import Counter

import pytest

from recomb import graphs, partitions
from recomb.graphs import Graph, is_connected
from recomb.instances import gen_grid
from recomb.partitions import (
    MoveError,
    Partition,
    RecombMove,
    SLACK_INF,
    SlackBound,
    _connected_parts,
    _mask_order,
    _split_masks,
    _vertex_set,
    apply_move,
    canonical_key,
    enumerate_moves,
    format_moves,
    format_partition,
    parse_moves,
    parse_partition,
    partition_from_key,
    validate,
)


def cycle(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def random_connected(rng, n, extra=4):
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, extra)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(n, edges)


# --- slack bounds ---


def test_slack_parse_and_str():
    assert SlackBound.parse("inf").infinite
    assert SlackBound.parse(" INF ").infinite
    assert SlackBound.parse("3").s == 3
    assert str(SLACK_INF) == "inf"
    assert str(SlackBound(2)) == "2"
    with pytest.raises(ValueError):
        SlackBound(-1)


def test_slack_size_test_is_exact_integer_arithmetic():
    # |k*size - n| <= k*s with no rounding of n/k
    b = SlackBound(1)
    assert b.size_ok(10, 3, 3)
    assert b.size_ok(10, 3, 4)
    assert not b.size_ok(10, 3, 5)
    assert not b.size_ok(10, 3, 2)
    z = SlackBound(0)
    assert z.size_ok(12, 4, 3)
    assert not z.size_ok(12, 4, 4)
    # n not divisible by k with s=0 admits no sizes
    assert not any(z.size_ok(10, 4, m) for m in range(11))


def test_slack_min_max_match_size_ok():
    for n in range(1, 15):
        for k in range(1, 6):
            for s in [0, 1, 2, 5, None]:
                b = SlackBound(s)
                ok = [m for m in range(1, n + 1) if b.size_ok(n, k, m)]
                if ok:
                    assert b.min_size(n, k) == ok[0]
                    assert b.max_size(n, k) == ok[-1]
                else:
                    assert b.min_size(n, k) > b.max_size(n, k)


# --- partitions and keys ---


def test_canonical_key_is_label_invariant():
    p = Partition.of([[0, 1], [2, 3]])
    q = Partition.of([[3, 2], [1, 0]])
    assert canonical_key(p) == canonical_key(q)
    assert canonical_key(p) == ((0, 1), (2, 3))
    assert partition_from_key(canonical_key(p)).districts == (
        frozenset({0, 1}),
        frozenset({2, 3}),
    )


def test_district_of():
    p = Partition.of([[0, 1], [2]])
    assert p.district_of(2) == 1
    with pytest.raises(KeyError):
        p.district_of(7)


# --- validate ---


def test_validate_accepts_good_partition():
    g = cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    rep = validate(g, p, 2, SlackBound(0))
    assert rep.ok and not rep.violations


def test_validate_reports_each_violation():
    g = cycle(6)
    rep = validate(g, Partition.of([[0, 1, 2], [3, 4, 5]]), 3, SlackBound(0))
    assert not rep.ok and any("expected 3 districts" in v for v in rep.violations)
    rep = validate(g, Partition.of([[0, 2], [1, 3, 4, 5]]), 2, SLACK_INF)
    assert any("disconnected" in v for v in rep.violations)
    rep = validate(g, Partition.of([[0, 1], [2, 3, 4, 5]]), 2, SlackBound(0))
    assert any("size" in v for v in rep.violations)
    rep = validate(g, Partition.of([[0, 1, 2], [2, 3, 4, 5]]), 2, SLACK_INF)
    assert any("in districts" in v for v in rep.violations)
    rep = validate(g, Partition.of([[0, 1, 2], [3, 4]]), 2, SLACK_INF)
    assert any("not covered" in v for v in rep.violations)
    rep = validate(g, Partition.of([list(range(6)), []]), 2, SLACK_INF)
    assert any("empty" in v for v in rep.violations)
    # Out-of-range ids are named, never indexed, and leave the district
    # unsearched.
    rep = validate(g, Partition.of([[0, 1, 2], [3, 4, 5, 6, -1]]), 2, SLACK_INF)
    assert sorted(rep.violations) == ["district 1 contains out-of-range vertex -1",
                                      "district 1 contains out-of-range vertex 6"]


# --- apply_move ---


def test_apply_move_good():
    g = cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    m = RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3, 4, 5}))
    q = apply_move(g, p, m, SlackBound(1))
    assert q.districts == (frozenset({0, 1}), frozenset({2, 3, 4, 5}))


def test_apply_move_error_codes():
    g = cycle(6)
    p = Partition.of([[0, 1, 2], [3, 4, 5]])

    def code(m, slack=SLACK_INF):
        with pytest.raises(MoveError) as exc:
            apply_move(g, p, m, slack)
        return exc.value.code

    assert code(RecombMove(1, 0, frozenset({0}), frozenset({1, 2, 3, 4, 5}))) == "bad-labels"
    assert code(RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3, 4}))) == "union-mismatch"
    assert code(RecombMove(0, 1, frozenset({0, 1, 3}), frozenset({2, 4, 5}))) == "disconnected-part"
    assert code(RecombMove(0, 1, p.districts[0], p.districts[1])) == "identity-move"
    assert (
        code(RecombMove(0, 1, frozenset({0}), frozenset({1, 2, 3, 4, 5})), SlackBound(1))
        == "slack-violation"
    )


def test_apply_move_runs_every_check_on_parts_its_graph_proved(monkeypatch):
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    searched = []
    real = graphs.reach
    monkeypatch.setattr(graphs, "reach",
                        lambda adj, start, within: searched.append(within) or real(adj, start, within))

    def proved(*sets):
        """A fresh 6-cycle after is_connected has searched each of sets."""
        g = cycle(6)
        for s in sets:
            is_connected(g, s)
        return g

    def code(g, m, slack=SLACK_INF):
        with pytest.raises(MoveError) as exc:
            apply_move(g, p, m, slack)
        return exc.value.code

    # A disconnected part is refused whatever was proved before: a failed
    # search records nothing.
    split = RecombMove(0, 1, frozenset({0, 1, 3}), frozenset({2, 4, 5}))
    for sets in ((), (split.new_i,), (split.new_j,), (frozenset({0, 1}), frozenset({3})), (p.districts[0],)):
        g = proved(*sets)
        assert code(g, split) == "disconnected-part"
        assert split.new_i not in g._proved and split.new_j not in g._proved
    # Every check but the BFS still runs on proved parts.
    cases = [
        (RecombMove(1, 0, frozenset({0}), frozenset({1, 2, 3, 4, 5})), SLACK_INF, "bad-labels"),
        (RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3, 4})), SLACK_INF, "union-mismatch"),
        (RecombMove(0, 1, frozenset({0, 1, 2}), frozenset({2, 3, 4, 5})), SLACK_INF, "union-mismatch"),
        (RecombMove(0, 1, frozenset(), frozenset(range(6))), SLACK_INF, "disconnected-part"),
        (RecombMove(0, 1, p.districts[0], p.districts[1]), SLACK_INF, "identity-move"),
        (RecombMove(0, 1, p.districts[1], p.districts[0]), SLACK_INF, "identity-move"),
        (RecombMove(0, 1, frozenset({0}), frozenset({1, 2, 3, 4, 5})), SlackBound(1), "slack-violation"),
    ]
    for m, slack, want in cases:
        g = proved(*(part for part in (m.new_i, m.new_j) if part))
        searched.clear()
        assert code(g, m, slack) == want
        assert searched == []
    # A proved part is not searched again; the other one is, once, and then
    # neither is.
    good = RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3, 4, 5}))
    for sets, want in (((), [good.new_i, good.new_j]), ((good.new_i,), [good.new_j]),
                       ((good.new_j,), [good.new_i]), ((good.new_i, good.new_j), [])):
        g = proved(*sets)
        searched.clear()
        q = apply_move(g, p, good, SLACK_INF)
        assert searched == want
        assert q == apply_move(cycle(6), p, good, SLACK_INF)
        searched.clear()
        assert apply_move(g, p, good, SLACK_INF) == q and searched == []


# --- enumerate_moves against brute force ---


def brute_moves(g, p, slack):
    """Reference enumeration: split every connected union every possible way."""
    results = set()
    k = p.k
    for i, j in itertools.combinations(range(k), 2):
        union = p.districts[i] | p.districts[j]
        if not is_connected(g, union):
            continue
        verts = sorted(union)
        for r in range(1, len(verts)):
            for sub in itertools.combinations(verts, r):
                a = frozenset(sub)
                b = union - a
                if min(union) not in a:
                    continue
                if not (is_connected(g, a) and is_connected(g, b)):
                    continue
                if not (slack.size_ok(g.n, k, len(a)) and slack.size_ok(g.n, k, len(b))):
                    continue
                if {a, b} == {p.districts[i], p.districts[j]}:
                    continue
                results.add((i, j, a, b))
    return results


def random_partition(rng, g, k, slack, tries=300):
    for _ in range(tries):
        seeds = rng.sample(range(g.n), k)
        assign = {v: i for i, v in enumerate(seeds)}
        frontier = list(seeds)
        while len(assign) < g.n:
            grow = [v for v in frontier for w in g.adj[v] if w not in assign]
            if not grow:
                break
            v = rng.choice(grow)
            w = rng.choice([x for x in g.adj[v] if x not in assign])
            assign[w] = assign[v]
            frontier.append(w)
        if len(assign) < g.n:
            continue
        p = Partition.of(
            [[v for v in range(g.n) if assign[v] == i] for i in range(k)]
        )
        if validate(g, p, k, slack).ok:
            return p
    return None


def test_enumerate_moves_matches_brute_force():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n))
        s = rng.choice([0, 1, 2, None])
        slack = SlackBound(s)
        g = random_connected(rng, n)
        p = random_partition(rng, g, k, slack)
        if p is None:
            continue
        got = {(m.i, m.j, m.new_i, m.new_j) for m in enumerate_moves(g, p, slack)}
        assert got == brute_moves(g, p, slack)
        checked += 1


def test_enumerate_moves_deterministic_order():
    g = cycle(8)
    p = Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]])
    a = enumerate_moves(g, p, SlackBound(2))
    b = enumerate_moves(g, p, SlackBound(2))
    assert a == b
    assert a == sorted(a, key=lambda m: (m.i, m.j, tuple(sorted(m.new_i))))


def test_enumerate_moves_pairs_restriction():
    g = cycle(9)
    p = Partition.of([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    restricted = enumerate_moves(g, p, SlackBound(1), pairs=[(0, 1)])
    assert restricted
    assert all(m.i == 0 and m.j == 1 for m in restricted)
    full = enumerate_moves(g, p, SlackBound(1))
    assert set(restricted) <= set(full)


@pytest.mark.parametrize("pair", [(0, 0), (-1, 1), (0, 5)],
                         ids=["one-district-twice", "negative-label", "label-above-k"])
def test_enumerate_moves_refuses_bad_pairs(pair):
    # (0, 0) used to split district 0 in two, (-1, 1) to give moves that
    # apply_move refuses as bad-labels, and (0, 5) to raise a bare IndexError.
    g = Graph(6, {(v, v + 1) for v in range(5)})
    p = Partition.of([[0, 1, 2], [3, 4, 5]])
    named = rf"district pair \({min(pair)}, {max(pair)}\)"
    with pytest.raises(ValueError, match=named):
        enumerate_moves(g, p, SLACK_INF, pairs=[(0, 1), pair])


def test_mask_order_sorts_as_vertex_lists():
    # The split table sorts its splits by _mask_order; enumerate_moves
    # promises the order of the sorted vertex lists.  Both orders are total,
    # so equal sorted lists mean they agree on every pair of masks.
    def vertices(mask):
        return [v for v in range(mask.bit_length()) if mask >> v & 1]

    every = list(range(1, 1 << 11))
    assert sorted(every, key=_mask_order) == sorted(every, key=vertices)
    rng = random.Random(19)
    wide = [rng.getrandbits(200) | 1 << rng.randrange(200) for _ in range(3000)]
    # Masks that share a long run of low bits, or are a prefix of another.
    for base in wide[:300]:
        wide.append(base ^ 1 << rng.randrange(150, 200))
        wide.append(base & (1 << rng.randrange(100, 200)) - 1 or 1)
    assert sorted(wide, key=_mask_order) == sorted(wide, key=vertices)


def test_every_enumerated_move_applies_cleanly():
    rng = random.Random(12)
    checked = 0
    while checked < 30:
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n))
        slack = SlackBound(rng.choice([1, 2, None]))
        g = random_connected(rng, n)
        p = random_partition(rng, g, k, slack)
        if p is None:
            continue
        for m in enumerate_moves(g, p, slack):
            q = apply_move(g, p, m, slack)
            assert validate(g, q, k, slack).ok
        checked += 1


def mask_connected(g, mask):
    start = (mask & -mask).bit_length() - 1
    seen, stack = {start}, [start]
    while stack:
        for w in g.adj[stack.pop()]:
            if mask >> w & 1 and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == mask.bit_count()


def brute_parts(g, vertices, parts, m_min, m_max):
    """Reference for _connected_parts: every split of the vertex mask into
    connected parts of m_min..m_max vertices, each part holding the least
    vertex not in the parts before it, as a sorted list of mask tuples."""
    if parts == 1:
        ok = m_min <= vertices.bit_count() <= m_max and mask_connected(g, vertices)
        return [(vertices,)] if ok else []
    if not vertices:  # earlier parts took every vertex
        return []
    low, *others = [v for v in range(g.n) if vertices >> v & 1]
    out = []
    for r in range(m_min - 1, min(m_max, len(others) + 1)):
        for sub in itertools.combinations(others, r):
            a = sum(1 << v for v in sub) | 1 << low
            if mask_connected(g, a):
                out += [(a, *tail) for tail in brute_parts(g, vertices ^ a, parts - 1, m_min, m_max)]
    return sorted(out)


def balanced_partition(rng, g, k, m_min, m_max):
    """A seeded connected k-partition with sizes in [m_min, m_max], grown
    from random seeds by always extending the smallest district."""
    for _ in range(1000):
        label = {v: d for d, v in enumerate(rng.sample(range(g.n), k))}
        sizes = [1] * k
        while len(label) < g.n:
            free = [
                (sizes[label[v]], w) for v in label for w in g.adj[v] if w not in label
            ]
            if not free:
                break
            least = min(size for size, _ in free)
            w = rng.choice([w for size, w in free if size == least])
            d = min((label[v] for v in g.adj[w] if v in label), key=lambda d: sizes[d])
            label[w] = d
            sizes[d] += 1
        if len(label) == g.n and m_min <= min(sizes) and max(sizes) <= m_max:
            return [sum(1 << v for v in label if label[v] == d) for d in range(k)]
    raise AssertionError("no balanced partition found")


def check_connected_parts(g, vertices, parts, m_min, m_max):
    got = sorted(tuple(ds) for ds in _connected_parts(g.nbr, vertices, parts, m_min, m_max))
    assert got == brute_parts(g, vertices, parts, m_min, m_max)
    return got


def test_connected_parts_on_district_pair_unions_of_8x8():
    # The sample workload's unions: 8x8, k = 8, s = 1 (parts of 7-9 of
    # 14-18 vertices), and s = 0 (lo = hi = 8 on 16 vertices).
    g = gen_grid(8, 8)
    rng = random.Random(16)
    for m_min, m_max, count in ((7, 9, 2), (8, 8, 1)):
        for _ in range(count):
            masks = balanced_partition(rng, g, 8, m_min, m_max)
            for a, b in itertools.combinations(masks, 2):
                if mask_connected(g, a | b):
                    split = (a, b) if a & -a < b & -b else (b, a)
                    assert split in check_connected_parts(g, a | b, 2, m_min, m_max)


def test_connected_parts_on_random_graphs():
    # Unions up to 16 vertices, where the growth passes over many groups.
    rng = random.Random(17)
    for case in range(40):
        n = rng.randint(8, 16)
        if case % 4 == 1:  # lo = hi
            n += n % 2
        g = random_connected(rng, n, extra=rng.choice([0, 3, n]))
        if case % 4 == 0:  # unbounded slack
            m_min, m_max = 1, n
        elif case % 4 == 1:
            m_min = m_max = n // 2
        else:
            m_min = rng.randint(1, n // 2)
            m_max = rng.randint(max(m_min, n - n // 2), n)
        check_connected_parts(g, (1 << n) - 1, 2, m_min, m_max)
    for case in range(20):
        n = rng.randint(6, 12)
        g = random_connected(rng, n, extra=rng.choice([0, 3, n]))
        m_min = rng.randint(1, n // 3)
        m_max = rng.randint(-(-n // 3), n - 2 * m_min)
        check_connected_parts(g, (1 << n) - 1, 3, m_min, m_max)
    # Four parts: many first two parts leave the same rest, whose two-part
    # tails must be listed once per call and reused.
    listed = Counter()

    def counted(g, vertices, parts, *rest):
        listed[vertices, parts] += 1
        return _connected_parts(g, vertices, parts, *rest)

    repeats = 0
    for case in range(20):
        n = rng.randint(8, 11)
        g = random_connected(rng, n, extra=rng.choice([0, 3, n]))
        m_min = rng.randint(1, n // 4)
        m_max = rng.randint(-(-n // 4), n - 3 * m_min)
        listed.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_connected_parts", counted)
            got = check_connected_parts(g, (1 << n) - 1, 4, m_min, m_max)
        assert all(count == 1 for (_, parts), count in listed.items() if parts == 2)
        rests = Counter((1 << n) - 1 ^ a ^ b for a, b in {(a, b) for a, b, _, _ in got})
        repeats += sum(count > 1 for count in rests.values())
    assert repeats > 0


def check_split_masks(g, union, m_min, m_max):
    # The table of one union against the brute-force splits, in the order of
    # the part's sorted vertex list.
    got = _split_masks(g, union, m_min, m_max, {})
    want = brute_parts(g, union, 2, m_min, m_max) if mask_connected(g, union) else []
    assert got == sorted(want, key=lambda split: _mask_order(split[0]))
    return got


def test_split_masks_in_windows_past_bit_30():
    # Each union is enumerated in its own vertex window, shifted down by its
    # least vertex.  Unions high in the masks of larger graphs: grid 12x12
    # with its rows and each row's columns in a seeded order, and random
    # graphs on 40-70 vertices, which have pendants to contract.
    rng = random.Random(30)
    rows = rng.sample(range(12), 12)
    label = {12 * y + x: 12 * rows[y] + c for y in range(12) for x, c in enumerate(rng.sample(range(12), 12))}
    g = Graph(144, {tuple(sorted((label[a], label[b]))) for a, b in gen_grid(12, 12).edges})
    blocks = [sum(1 << label[12 * (y + dy) + x + dx] for dy in range(3) for dx in range(2))
              for y in range(0, 12, 3) for x in range(0, 12, 2)]
    lows, sizes = Counter(), Counter()
    for m_min, m_max in ((6, 6), (5, 7)):  # k = 24 at s = 0 and s = 1
        masks = blocks if m_min == m_max else balanced_partition(rng, g, 24, m_min, m_max)
        unions = [a | b for a, b in itertools.combinations(masks, 2)]
        for union in filter(lambda u: mask_connected(g, u), unions):
            assert union.bit_length() > 31
            lows[union & 1 == 0] += 1
            sizes[m_min == m_max, len(check_split_masks(g, union, m_min, m_max)) > 0] += 1
        # Two districts that do not touch: no split.
        apart = next(u for u in unions if not mask_connected(g, u))
        assert check_split_masks(g, apart, m_min, m_max) == []
    assert lows[True] >= 70, lows  # windows that do not start at 0
    assert all(sizes[s0, True] for s0 in (True, False)), sizes
    pendants = 0  # unions with a vertex of induced degree 1
    for case in range(40):
        n = rng.randint(45, 70)
        g = random_connected(rng, n, extra=rng.choice([0, 3, 8]))
        size = rng.randint(10, 14) if case % 2 else 2 * rng.randint(5, 7)
        inside = [rng.randrange(n)]
        while len(inside) < size:  # a connected vertex set grown at random
            inside.append(rng.choice([w for v in inside for w in g.adj[v] if w not in inside]))
        # Relabel it onto ids from 31 up, the other vertices around it.
        ids = rng.sample(range(31, n), size)
        ids += rng.sample([v for v in range(n) if v not in ids], n - size)
        new = dict(zip(inside + [v for v in range(n) if v not in inside], ids))
        g = Graph(n, {tuple(sorted((new[a], new[b]))) for a, b in g.edges})
        union = sum(1 << new[v] for v in inside)
        pendants += any(union >> v & 1 and (g.nbr[v] & union).bit_count() == 1 for v in range(n))
        if case % 2:
            m_min = rng.randint(1, size // 2)
            m_max = rng.randint(size - size // 2, size - m_min)
        else:
            m_min = m_max = size // 2
        check_split_masks(g, union, m_min, m_max)
    assert pendants >= 30, pendants


def test_vertex_set_reads_every_set_bit():
    for bits in (set(), {0}, {0, 63, 64}, {3, 64, 130}, set(range(70))):
        mask = sum(1 << v for v in bits)
        got = _vertex_set(mask)
        assert type(got) is frozenset and got == frozenset(bits)


# --- text formats ---


def test_partition_roundtrip():
    p = Partition.of([[0, 3], [1, 2], [4]])
    text = format_partition(p, 5)
    assert text == "k 3\n0 1 1 0 2\n"
    assert parse_partition(text).districts == p.districts


def test_format_partition_refuses_a_partial_cover():
    for p in (Partition.of([[0, 1], [2]]), Partition.of([[0, 1], [2, 3, 4, 5]])):
        with pytest.raises(ValueError, match=r"^partition does not cover 0\.\.n-1$"):
            format_partition(p, 4)


def test_partition_parse_errors():
    with pytest.raises(ValueError):
        parse_partition("k 2\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_partition("x 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_partition("k 2\n")


def reference_format_moves(moves):
    """format_moves as it was before its id table: one str() call per id."""
    out = []
    for m in moves:
        a = " ".join(str(v) for v in sorted(m.new_i))
        b = " ".join(str(v) for v in sorted(m.new_j))
        out.append(f"m {m.i} {m.j} | {a} | {b}")
    return "\n".join(out) + ("\n" if out else "")


def test_format_moves_matches_reference_formatter():
    rng = random.Random(17)
    seen = set()
    for _ in range(60):
        moves = []
        for _ in range(rng.randint(1, 8)):
            n = rng.choice([2, 10, 101, 1000, 10000])
            size = rng.randint(2, min(n, 400))
            vs = rng.sample(range(n), size)
            cut = rng.randint(1, size - 1)
            i = rng.randrange(12)
            moves.append(RecombMove(i, rng.randrange(i + 1, 13), frozenset(vs[:cut]), frozenset(vs[cut:])))
            seen.update(vs)
        text = format_moves(moves)
        assert text == reference_format_moves(moves)
        assert parse_moves(text) == moves
    assert {0, 9, 10, 99, 100, 999, 1000, 9999} <= seen
    every = [RecombMove(0, 1, frozenset(range(0, 10000, 2)), frozenset(range(1, 10000, 2)))]
    # parse_moves reads an empty part as the empty set.
    empty = [RecombMove(0, 1, frozenset(), frozenset({3, 1, 2})), RecombMove(2, 5, frozenset({7}), frozenset())]
    for moves in (every, empty, []):
        text = format_moves(moves)
        assert text == reference_format_moves(moves)
        assert parse_moves(text) == moves
    assert format_moves(empty) == "m 0 1 |  | 1 2 3\nm 2 5 | 7 | \n"
    assert format_moves([]) == ""


def test_moves_roundtrip():
    moves = [
        RecombMove(0, 1, frozenset({0, 1}), frozenset({2, 3})),
        RecombMove(1, 2, frozenset({4}), frozenset({5, 6})),
    ]
    text = format_moves(moves)
    assert parse_moves(text) == moves
    assert parse_moves("") == []
    for bad in ("z 0 1 | 0 | 1", "m 0 | 0 | 1", "m | 0 | 1", "m 0 1 2 | 0 | 1", "m 0 1 | 0",
                "m 0 x | 1 | 2", "m 0 1 | 1 y | 2", "m 0 1 | 1 | 2.5"):
        with pytest.raises(ValueError):
            parse_moves(bad)
    # Ids are read by parse_ints, which names the bad token and its line.
    with pytest.raises(ValueError, match=r"^district label 1 on move line 2 must be an integer, got 'x'$"):
        parse_moves("m 0 1 | 0 | 1\nm 0 x | 1 | 2")
    with pytest.raises(ValueError, match=r"^vertex 1 of part 0 on move line 1 must be an integer, got 'y'$"):
        parse_moves("m 0 1 | 1 y | 2")
