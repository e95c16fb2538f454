from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb.ncl import (
    AND,
    BLUE,
    DEG2,
    RED,
    NCLInstance,
    OR,
    Orientation,
    ReductionShapeError,
    check_orientation,
    expand_orientation,
    flip_pairs,
    format_map,
    format_ncl,
    k4_all_blue,
    parse_ncl,
    partition_to_orientation,
    reduce_ncl,
    subdivide_ncl,
)
from recomb.oracle import decide_br
from recomb.partitions import Partition, SlackBound, canonical_key, validate


def test_k4_instance_checks():
    ncl, a, b = k4_all_blue()
    ncl.check()
    sub = subdivide_ncl(ncl)
    assert sub.nv == 4 + 6
    assert sub.ne == 12
    assert check_orientation(sub, a)
    assert check_orientation(sub, b)
    # a and b differ in exactly the two half-edges of one original edge
    diff = [e for e in range(sub.ne) if a.dirs[e] != b.dirs[e]]
    assert len(diff) == 2


def test_check_refuses_colours_other_than_red_and_blue():
    # Between two degree-2 vertices no AND/OR colour list sees the edges, so
    # only the per-edge check can refuse them.
    for color in (RED, BLUE):
        NCLInstance((DEG2, DEG2), ((0, 1, color), (0, 1, color))).check()
    for color in ("green", "Red", ""):
        bad = NCLInstance((DEG2, DEG2), ((0, 1, RED), (1, 0, color)))
        with pytest.raises(ValueError, match=rf"^edge 1 \(1,0\) has colour '{color}', not red or blue$"):
            bad.check()
    ncl, _, _ = k4_all_blue()
    edges = list(ncl.edges)
    edges[4] = (*edges[4][:2], "green")
    with pytest.raises(ValueError, match="^edge 4 "):
        NCLInstance(ncl.kinds, tuple(edges)).check()


@pytest.mark.parametrize(
    "kinds, edges, err",
    [((OR, DEG2, DEG2, DEG2), ((0, 1, BLUE), (0, 2, BLUE), (0, 3, RED)), "OR vertex 0 must have three blue edges"),
     ((OR, DEG2, DEG2), ((0, 1, BLUE), (0, 2, BLUE)), "OR vertex 0 must have three blue edges"),
     ((AND, DEG2, DEG2, DEG2), ((0, 1, RED), (0, 2, BLUE), (0, 3, BLUE)),
      "AND vertex 0 must have two red and one blue edge"),
     ((DEG2, DEG2, DEG2), ((0, 1, RED), (0, 2, RED), (1, 2, RED), (0, 1, RED)),
      "degree-2 vertex 0 must have exactly two edges"),
     ((DEG2, "XOR", DEG2), ((0, 1, RED), (1, 2, RED), (2, 0, RED)), "unknown vertex kind 'XOR'")],
    ids=["or-red", "or-degree-2", "and-one-red", "deg2-degree-3", "unknown-kind"],
)
def test_check_names_the_first_bad_vertex(kinds, edges, err):
    with pytest.raises(ValueError, match=rf"^{err}$"):
        NCLInstance(kinds, edges).check()


@pytest.mark.parametrize("far", [9, -1])
def test_check_refuses_endpoints_that_are_not_vertices(far):
    # The all-OR K4 with edge (2,3) replaced by (2,far) and (3,far): every
    # degree still checks out, and subdividing would alias vertex 9 onto the
    # DEG2 vertex that edge 5 becomes.
    ncl, _, _ = k4_all_blue()
    bad = NCLInstance(ncl.kinds, ncl.edges[:5] + ((2, far, BLUE), (3, far, BLUE)))
    err = rf"^edge 5 \(2,{far}\) has endpoint {far}, which is not a vertex$"
    with pytest.raises(ValueError, match=err):
        bad.check()
    heads = Orientation(("uv",) * bad.ne)
    with pytest.raises(ValueError, match=err):
        reduce_ncl(bad, heads, heads, s=0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda nv: st.tuples(
    st.lists(st.sampled_from([AND, OR, DEG2]), min_size=nv, max_size=nv),
    st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1), st.sampled_from([RED, BLUE])),
             max_size=12))))
def test_incident_lists_each_vertex_edges_in_order(instance):
    # Any instance whose endpoints are vertices, self-loops included, which
    # count once; incident reads the index the way the edge scan did.
    kinds, edges = instance
    ncl = NCLInstance(tuple(kinds), tuple(edges))
    for v in range(ncl.nv):
        assert ncl.incident(v) == [e for e, (a, b, _) in enumerate(edges) if v in (a, b)]


def test_check_orientation_refuses_directions_other_than_uv_and_vu():
    ncl, a, _ = k4_all_blue()
    sub = subdivide_ncl(ncl)
    for d in ("UV", "up", None):
        dirs = list(a.dirs)
        dirs[3] = d
        with pytest.raises(ValueError, match=rf"^bad direction {d!r} on edge 3$"):
            check_orientation(sub, Orientation(tuple(dirs)))


def test_orientations_must_cover_every_edge():
    ncl, a, _ = k4_all_blue()
    sub = subdivide_ncl(ncl)
    for short in (Orientation(a.dirs[:-1]), Orientation(a.dirs + ("uv",))):
        with pytest.raises(ValueError, match="^orientation does not cover all edges$"):
            check_orientation(sub, short)
    with pytest.raises(ValueError, match="^orientation does not cover all edges$"):
        expand_orientation(ncl, Orientation(a.dirs[:5]))


def test_reduce_ncl_refuses_bad_slack_and_unsatisfied_orientations():
    ncl, a, b = k4_all_blue()
    with pytest.raises(ValueError, match="^slack must be >= 0$"):
        reduce_ncl(ncl, a, b, s=-1)
    starved = Orientation(("uv",) * ncl.ne)  # vertex 0 gets no incoming edge
    with pytest.raises(ValueError, match="^orientation A does not satisfy the constraints$"):
        reduce_ncl(ncl, starved, b, s=0)
    with pytest.raises(ValueError, match="^orientation B does not satisfy the constraints$"):
        reduce_ncl(ncl, a, expand_orientation(ncl, starved), s=0)


def test_check_orientation_rejects_starved_vertices():
    ncl, a, _ = k4_all_blue()
    sub = subdivide_ncl(ncl)
    # flipping a single half-edge starves its old head (a degree-2 vertex
    # keeps only one incoming edge, the other endpoint may starve)
    starving = Orientation(tuple("uv" for _ in range(sub.ne)))
    assert not check_orientation(sub, starving)
    # directed: every edge away from vertex 0 starves it
    dirs = []
    for u, v, _ in sub.edges:
        dirs.append("vu" if v == 0 else ("uv" if u == 0 else "uv"))
    o = Orientation(tuple(dirs))
    assert not check_orientation(sub, o)


def test_reduction_structure():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    assert r.alpha == 5
    assert r.graph.n == 700
    assert r.k == 14  # 10 subdivided vertices + 4 extra OR districts
    slack = SlackBound(0)
    for p in (r.pi_a, r.pi_b):
        rep = validate(r.graph, p, r.k, slack)
        assert rep.ok, rep.violations
        assert all(len(d) == 50 for d in p.districts)
    # weight profile of the heavy vertices
    weights = Counter(w for w, _ in r.heavy.values())
    assert weights == Counter({5: 20, 24: 12, 27: 4, 45: 4})


def test_and_gadget_reduction():
    import json

    # K4 with a red triangle on AND vertices 0, 1, 2 and blue edges to OR
    # vertex 3; both orientations satisfy it and differ on edge 0.
    edges = ((0, 1, RED), (0, 2, RED), (1, 2, RED), (0, 3, BLUE), (1, 3, BLUE), (2, 3, BLUE))
    ncl = NCLInstance((AND, AND, AND, OR), edges)
    a = Orientation(("uv", "uv", "uv", "vu", "vu", "uv"))
    b = a.flip(0)
    r = reduce_ncl(ncl, a, b, s=0)
    assert (r.graph.n, r.k) == (550, 11)  # 10 subdivided vertices + 1 extra OR district
    for p in (r.pi_a, r.pi_b):
        rep = validate(r.graph, p, r.k, SlackBound(0))
        assert rep.ok, rep.violations
        assert all(len(d) == 50 for d in p.districts)
    for v in range(3):
        assert sorted(r.heavy[base][0] for base in r.gadget_vertices[v].values()) == [5, 5, 37]
    # The half-edges follow their edge, and the partitions read back as them.
    for o, p in ((a, r.pi_a), (b, r.pi_b)):
        assert partition_to_orientation(r, p).dirs == tuple(d for d in o.dirs for _ in range(2))
    seen = set()
    kinds = Counter()
    for line in format_map(r).splitlines():
        rec = json.loads(line)
        kinds[rec["kind"]] += 1
        seen.update(rec["graph_vertices"])
    assert seen == set(range(r.graph.n))
    assert kinds == Counter({"edge": 12, "and": 3, "or": 1, "deg2": 6})


def test_disjoint_copies_reduce_to_relabelled_copies():
    # c copies of the all-blue K4 side by side: the reduction is c copies of
    # one copy's graph, pi_a and pi_b. Copy i's original vertex x is 4i + x,
    # its subdivided edge f is 12i + f and the DEG2 vertex of its edge e is
    # 4c + 6i + e; its graph vertices follow through the lights and roles.
    c = 20
    ncl, a, b = k4_all_blue()
    one = reduce_ncl(ncl, a, b, s=0)
    big_ncl = NCLInstance(ncl.kinds * c, tuple(
        (u + 4 * i, v + 4 * i, color) for i in range(c) for u, v, color in ncl.edges))
    big = reduce_ncl(big_ncl, Orientation(a.dirs[::2] * c), Orientation(b.dirs[::2] * c), s=0)
    assert (big.graph.n, big.k) == (c * one.graph.n, c * one.k)
    images = []
    for i in range(c):
        def node(x):
            return 4 * i + x if x < 4 else 4 * c + 6 * i + x - 4
        phi = {}
        for f, lights in one.edge_map.items():
            phi.update(zip(lights, big.edge_map[12 * i + f]))
        for x, roles in one.gadget_vertices.items():
            for role, base in roles.items():
                mapped = role if role == "vp" else f"{role[0]}{12 * i + int(role[1:])}"
                big_base = big.gadget_vertices[node(x)][mapped]
                phi[base] = big_base
                phi.update(zip(one.heavy[base][1], big.heavy[big_base][1]))
        assert sorted(phi) == list(range(one.graph.n))
        images.extend(phi.values())
        assert {tuple(sorted((phi[u], phi[v]))) for u, v in one.graph.edges} <= big.graph.edges
        for (role, x), label in one.district_index.items():
            big_label = big.district_index[(role, node(x))]
            for p, q in ((one.pi_a, big.pi_a), (one.pi_b, big.pi_b)):
                assert {phi[u] for u in p.districts[label]} == q.districts[big_label]
    assert sorted(images) == list(range(big.graph.n))
    assert len(big.graph.edges) == c * len(one.graph.edges)


def test_reduction_round_trip():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    assert partition_to_orientation(r, r.pi_a).dirs == a.dirs
    assert partition_to_orientation(r, r.pi_b).dirs == b.dirs


def test_partition_to_orientation_shape_errors():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    # moving a heavy base vertex to another district breaks the grouping
    p = r.pi_a
    base = next(iter(r.heavy))
    src = next(i for i, d in enumerate(p.districts) if base in d)
    dst = (src + 1) % p.k
    broken = p.replace(
        src, dst, p.districts[src] - {base}, p.districts[dst] | {base}
    ) if src < dst else p.replace(
        dst, src, p.districts[dst] | {base}, p.districts[src] - {base}
    )
    with pytest.raises(ReductionShapeError):
        partition_to_orientation(r, broken)


def moved(p, v, dst):
    """p with vertex v moved into district dst; only labels are read back."""
    return Partition(tuple(d | {v} if i == dst else d - {v} for i, d in enumerate(p.districts)))


def test_partition_to_orientation_names_stray_connectors_and_lights():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    labels = r.pi_a.labels
    # A connector (prime) vertex of OR vertex 0 in vertex 1's gadget district.
    prime = r.gadget_vertices[0]["p0"]
    elsewhere = r.district_index[("v", 1)]
    assert labels[prime] != elsewhere
    with pytest.raises(ReductionShapeError,
                       match="^OR gadget at vertex 0: connector vertices outside the gadget districts$"):
        partition_to_orientation(r, moved(r.pi_a, prime, elsewhere))
    # Edge 0 joins vertex 0 and its subdivision vertex 4 (edge 0 of K4);
    # its plus-vertex in vertex 1's district lies in neither.
    u, v, _ = r.ncl.edges[0]
    assert elsewhere not in (r.district_index[("v", u)], r.district_index[("v", v)])
    with pytest.raises(ReductionShapeError,
                       match="^edge 0: its plus-vertex is in neither endpoint gadget's district$"):
        partition_to_orientation(r, moved(r.pi_a, r.edge_map[0][0], elsewhere))


def test_flip_pairs_are_local():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    sub = r.ncl
    diff = [e for e in range(sub.ne) if a.dirs[e] != b.dirs[e]]
    for e in diff:
        pairs = flip_pairs(r, e)
        labels = {x for pr in pairs for x in pr}
        u, v, _ = sub.edges[e]
        expect = {r.district_index[("v", u)], r.district_index[("v", v)]}
        for x in (u, v):
            if ("vp", x) in r.district_index:
                expect.add(r.district_index[("vp", x)])
        assert labels == expect


def test_single_flip_within_two_restricted_moves():
    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    sub = r.ncl
    slack = SlackBound(r.s)
    diff = [e for e in range(sub.ne) if a.dirs[e] != b.dirs[e]]
    # flip half-edges in an order that keeps every intermediate satisfying
    cur = r.pi_a
    remaining = list(diff)
    order = []
    o = partition_to_orientation(r, cur)
    while remaining:
        e = next(x for x in remaining if check_orientation(sub, o.flip(x)))
        o = o.flip(e)
        order.append(e)
        remaining.remove(e)
    for e in order:
        target_o = partition_to_orientation(r, cur).flip(e)
        assert check_orientation(sub, target_o)
        r2 = reduce_ncl(ncl, target_o, b, s=0)
        target = r2.pi_a
        ok, moves = decide_br(
            r.graph, r.k, slack, cur, target, pairs=flip_pairs(r, e), max_depth=2
        )
        assert ok and len(moves) <= 2
        cur = target
    assert canonical_key(cur) == canonical_key(r.pi_b)


def test_ncl_text_roundtrip():
    ncl, a, b = k4_all_blue()
    # file orientations describe the original edges; half-edges follow them
    orig_a = Orientation(tuple(a.dirs[2 * e] for e in range(ncl.ne)))
    orig_b = Orientation(tuple(b.dirs[2 * e] for e in range(ncl.ne)))
    text = format_ncl(ncl, {"A": orig_a, "B": orig_b})
    ncl2, orients = parse_ncl(text)
    assert ncl2 == NCLInstance(ncl.kinds, ncl.edges)
    assert format_ncl(ncl2, orients) == text
    # expanding the parsed originals reproduces the half-edge orientations
    r1 = reduce_ncl(ncl, a, b, s=0)
    r2 = reduce_ncl(ncl2, orients["A"], orients["B"], s=0)
    assert canonical_key(r1.pi_a) == canonical_key(r2.pi_a)
    assert canonical_key(r1.pi_b) == canonical_key(r2.pi_b)
    with pytest.raises(ValueError):
        parse_ncl("bogus\n")


def test_format_map_covers_every_vertex():
    import json

    ncl, a, b = k4_all_blue()
    r = reduce_ncl(ncl, a, b, s=0)
    seen = set()
    kinds = Counter()
    for line in format_map(r).splitlines():
        rec = json.loads(line)
        kinds[rec["kind"]] += 1
        seen.update(rec["graph_vertices"])
    assert seen == set(range(r.graph.n))
    assert kinds["edge"] == r.ncl.ne
    assert kinds["or"] == 4
    assert kinds["deg2"] == 6
