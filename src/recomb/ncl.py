"""Reduction from constraint-logic orientation reconfiguration to balanced
recombination with zero slack.

Each vertex of the (subdivided) constraint graph becomes a gadget; each edge
becomes a pair of light vertices e+ / e- shared between its two endpoint
gadgets.  Heavy vertices carry integer weights, realized as leaf stars.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .graphs import Graph, check_vertex_count
from .partitions import Partition, parse_ints

AND, OR, DEG2 = "AND", "OR", "DEG2"
RED, BLUE = "red", "blue"


@dataclass(frozen=True)
class NCLInstance:
    """An AND/OR constraint graph; DEG2 vertices appear after subdivision."""

    kinds: tuple[str, ...]  # per-vertex: AND | OR | DEG2
    edges: tuple[tuple[int, int, str], ...]  # (u, v, color)

    @property
    def nv(self) -> int:
        return len(self.kinds)

    @property
    def ne(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's edge ids in ascending order, a self-loop once."""
        inc: list[list[int]] = [[] for _ in self.kinds]
        for e, (a, b, _) in enumerate(self.edges):
            for x in {a, b}:
                inc[x].append(e)
        return tuple(map(tuple, inc))

    def incident(self, v: int) -> list[int]:
        return list(self._incidence[v])

    def check(self) -> None:
        for e, (u, v, color) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"edge {e} joins vertex {u} to itself")
            for x in (u, v):
                if not 0 <= x < self.nv:
                    raise ValueError(f"edge {e} ({u},{v}) has endpoint {x}, which is not a vertex")
            if color not in (RED, BLUE):
                raise ValueError(f"edge {e} ({u},{v}) has colour {color!r}, not {RED} or {BLUE}")
        for v, (kind, inc) in enumerate(zip(self.kinds, self._incidence)):
            colors = sorted(self.edges[e][2] for e in inc)
            if kind == OR:
                if colors != [BLUE] * 3:
                    raise ValueError(f"OR vertex {v} must have three blue edges")
            elif kind == AND:
                if colors != [BLUE, RED, RED]:
                    raise ValueError(f"AND vertex {v} must have two red and one blue edge")
            elif kind == DEG2:
                if len(inc) != 2:
                    raise ValueError(f"degree-2 vertex {v} must have exactly two edges")
            else:
                raise ValueError(f"unknown vertex kind {kind!r}")


@dataclass(frozen=True)
class Orientation:
    """Per-edge direction: 'uv' points u -> v (toward v), 'vu' the reverse."""

    dirs: tuple[str, ...]

    def head(self, ncl: NCLInstance, e: int) -> int:
        u, v, _ = ncl.edges[e]
        return v if self.dirs[e] == "uv" else u

    def toward(self, ncl: NCLInstance, e: int, x: int) -> bool:
        return self.head(ncl, e) == x

    def flip(self, e: int) -> "Orientation":
        d = list(self.dirs)
        d[e] = "vu" if d[e] == "uv" else "uv"
        return Orientation(tuple(d))


def subdivide_ncl(ncl: NCLInstance) -> NCLInstance:
    """Replace each edge by a degree-2 vertex and two half-edges inheriting
    the color; edge e becomes vertex nv+e with half-edges 2e and 2e+1."""
    ncl.check()
    kinds = list(ncl.kinds)
    edges: list[tuple[int, int, str]] = []
    for e, (u, v, color) in enumerate(ncl.edges):
        mid = ncl.nv + e
        kinds.append(DEG2)
        edges.append((u, mid, color))
        edges.append((mid, v, color))
    return NCLInstance(tuple(kinds), tuple(edges))


def check_orientation(ncl: NCLInstance, o: Orientation) -> bool:
    """True iff each AND/OR vertex has in-weight at least 2 and each DEG2
    vertex at least 1, where an edge weighs 2 (blue) or 1 (red) at its head."""
    if len(o.dirs) != ncl.ne:
        raise ValueError("orientation does not cover all edges")
    weight = [0] * ncl.nv
    for e, ((_, _, color), d) in enumerate(zip(ncl.edges, o.dirs)):
        if d not in ("uv", "vu"):
            raise ValueError(f"bad direction {d!r} on edge {e}")
        weight[o.head(ncl, e)] += 2 if color == BLUE else 1
    return all(w >= (1 if kind == DEG2 else 2) for kind, w in zip(ncl.kinds, weight))


def expand_orientation(ncl: NCLInstance, o: Orientation) -> Orientation:
    """Lift an orientation of the original edges to the subdivision: both
    half-edges of an edge point the same way as the edge."""
    if len(o.dirs) != ncl.ne:
        raise ValueError("orientation does not cover all edges")
    return Orientation(tuple(d for d in o.dirs for _ in range(2)))


class ReductionShapeError(ValueError):
    """Partition does not have the heavy-vertex grouping of any M_X member."""


@dataclass
class ReductionOutput:
    graph: Graph
    k: int
    s: int
    alpha: int
    pi_a: Partition
    pi_b: Partition
    ncl: NCLInstance  # the subdivided instance the partitions encode
    edge_map: dict[int, tuple[int, int]]  # NCL' edge -> (e+ id, e- id)
    gadget_vertices: dict[int, dict[str, int]]  # NCL' vertex -> role -> base id
    heavy: dict[int, tuple[int, tuple[int, ...]]]  # base id -> (weight, leaves)
    district_index: dict[tuple[str, int], int]  # ("v", x) / ("vp", x) -> label


def reduce_ncl(
    ncl: NCLInstance, a: Orientation, b: Orientation, s: int
) -> ReductionOutput:
    """Build the zero-slack balanced-recombination instance for two satisfying
    orientations of the subdivided constraint graph.

    Every district has exactly 10*alpha vertices with alpha = 5 + s; slack
    only loosens intermediate states.
    """
    if s < 0:
        raise ValueError("slack must be >= 0")
    sub = subdivide_ncl(ncl)
    if len(a.dirs) == ncl.ne:
        a = expand_orientation(ncl, a)
    if len(b.dirs) == ncl.ne:
        b = expand_orientation(ncl, b)
    for name, o in (("A", a), ("B", b)):
        if not check_orientation(sub, o):
            raise ValueError(f"orientation {name} does not satisfy the constraints")
    alpha = 5 + s
    # Lights first: e+ = 2e, e- = 2e+1 for each subdivided edge.
    edge_map = {e: (2 * e, 2 * e + 1) for e in range(sub.ne)}
    size = 2 * sub.ne  # vertices made so far
    edges: list[tuple[int, int]] = []
    heavy: dict[int, tuple[int, tuple[int, ...]]] = {}

    def heavy_vertex(weight: int) -> int:
        """A new base vertex with weight - 1 new leaves hung on it."""
        nonlocal size
        check_vertex_count(size + weight)
        base, size = size, size + weight
        heavy[base] = (weight, tuple(range(base + 1, size)))
        edges.extend((base, leaf) for leaf in heavy[base][1])
        return base

    gadget_vertices: dict[int, dict[str, int]] = {}
    for v, (kind, inc) in enumerate(zip(sub.kinds, sub._incidence)):
        # Each kind makes its heavy vertices. terminals maps each incident
        # edge to the one joined to both of its lights, joins lists (e, base)
        # for each further edge from e+ to base, and others holds the roles
        # of an OR gadget's primes and vp.
        others: dict[str, int] = {}
        if kind == AND:
            blue = next(e for e in inc if sub.edges[e][2] == BLUE)
            ends = sorted(e for e in inc if e != blue) + [blue]
            terminals = {e: heavy_vertex(w) for e, w in zip(ends, (alpha, alpha, 8 * alpha - 3))}
            # e+ joins the terminals of the edges of the other colour.
            joins = [(e, terminals[f]) for e in ends for f in ends if (e == blue) != (f == blue)]
        elif kind == OR:
            terminals = {e: heavy_vertex(w) for e, w in zip(inc, (alpha, alpha, 6 * alpha - 3))}
            primes = {e: heavy_vertex(alpha) for e in inc}
            vp = heavy_vertex(9 * alpha)
            others = {**{f"p{e}": p for e, p in primes.items()}, "vp": vp}
            # e+ joins the other edges' primes; the primes form a triangle,
            # and each joins its edge's terminal and vp.
            joins = [(e, primes[f]) for e in inc for f in inc if f != e]
            edges.extend(combinations(primes.values(), 2))
            for e in inc:
                edges.extend(((primes[e], terminals[e]), (vp, primes[e])))
        else:  # DEG2
            terminals = {e: heavy_vertex(5 * alpha - 1) for e in inc}
            # e+ joins the other edge's terminal.
            joins = [(e, terminals[f]) for e in inc for f in inc if f != e]
        for e, h in terminals.items():
            edges.extend((h, light) for light in edge_map[e])
        edges.extend((edge_map[e][0], base) for e, base in joins)
        gadget_vertices[v] = {**{f"h{e}": h for e, h in terminals.items()}, **others}
    g = Graph(size, edges)
    # Gadget v's district is labelled ("v", v); an OR gadget has a second
    # district, ("vp", v), right after it.
    district_index: dict[tuple[str, int], int] = {}
    for v, kind in enumerate(sub.kinds):
        district_index[("v", v)] = len(district_index)
        if kind == OR:
            district_index[("vp", v)] = len(district_index)

    def groups(bases) -> set[int]:
        return {u for base in bases for u in (base, *heavy[base][1])}

    def partition_for(x: Orientation) -> Partition:
        districts: list[set[int]] = []
        for v, (kind, inc) in enumerate(zip(sub.kinds, sub._incidence)):
            roles = dict(gadget_vertices[v])
            own_lights = {
                edge_map[e][0] if x.toward(sub, e, v) else edge_map[e][1] for e in inc
            }
            apart = []
            if kind == OR:
                # vp and the prime of v's lowest incoming edge form ("vp", v).
                e1 = min(e for e in inc if x.toward(sub, e, v))
                apart = [roles.pop("vp"), roles.pop(f"p{e1}")]
            districts.append(own_lights | groups(roles.values()))
            if apart:
                districts.append(groups(apart))
        return Partition.of(districts)

    return ReductionOutput(
        g, len(district_index), s, alpha, partition_for(a), partition_for(b), sub,
        edge_map, gadget_vertices, heavy, district_index,
    )


def partition_to_orientation(r: ReductionOutput, p: Partition) -> Orientation:
    """Read back the orientation: edge e points toward v iff e+ lies in the
    district of v's gadget.  Raises ReductionShapeError when p does not
    respect the heavy-vertex groupings."""
    sub = r.ncl
    district_of = p.labels
    gadget_district: dict[int, int] = {}
    for v, kind in enumerate(sub.kinds):
        roles = r.gadget_vertices[v]
        terminal_bases = [base for role, base in roles.items() if role.startswith("h")]
        homes = {district_of[base] for base in terminal_bases}
        if len(homes) != 1:
            raise ReductionShapeError(
                f"{kind} gadget at vertex {v}: heavy vertices span districts {sorted(homes)}"
            )
        gadget_district[v] = homes.pop()
        if kind == OR:
            vp_home = district_of[roles["vp"]]
            prime_homes = {district_of[roles[f"p{e}"]] for e in sub._incidence[v]}
            if not prime_homes <= {gadget_district[v], vp_home}:
                raise ReductionShapeError(
                    f"OR gadget at vertex {v}: connector vertices outside the gadget districts"
                )
    dirs = []
    for e, (u, v, _) in enumerate(sub.edges):
        home = district_of[r.edge_map[e][0]]
        if home == gadget_district[v]:
            dirs.append("uv")
        elif home == gadget_district[u]:
            dirs.append("vu")
        else:
            raise ReductionShapeError(
                f"edge {e}: its plus-vertex is in neither endpoint gadget's district"
            )
    return Orientation(tuple(dirs))


def flip_pairs(r: ReductionOutput, e: int) -> list[tuple[int, int]]:
    """District pairs local to edge e's two endpoint gadgets, for restricted
    reachability searches around a single-edge flip."""
    u, v, _ = r.ncl.edges[e]
    labels = []
    for x in (u, v):
        labels.append(r.district_index[("v", x)])
        if ("vp", x) in r.district_index:
            labels.append(r.district_index[("vp", x)])
    return [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]


def parse_ncl(text: str) -> tuple[NCLInstance, dict[str, Orientation]]:
    """Parse the NCL file format, including named orientation blocks."""
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[0] != "ncl" or not (head[1].isdecimal() and head[2].isdecimal()):
        raise ValueError("first line must be 'ncl <nv> <ne>'")
    nv, ne = int(head[1]), int(head[2])
    if nv == 0:
        raise ValueError("an NCL instance needs at least one vertex")
    # Each vertex and each edge become at least one vertex of the reduction.
    check_vertex_count(max(nv, ne))
    kinds: list[Optional[str]] = [None] * nv
    edges: list[Optional[tuple[int, int, str]]] = [None] * ne
    orients: dict[str, Orientation] = {}
    i = 1

    def fields(what: str, count: int) -> list[str]:
        if i >= len(lines):
            raise ValueError(f"unexpected end of file: expected {what}")
        parts = lines[i].split()
        if len(parts) != count:
            raise ValueError(f"expected {what}, got {lines[i]!r}")
        return parts

    def ident(raw: str, size: int, what: str) -> int:
        x = parse_ints([raw], f"{what} id")[0]
        if not 0 <= x < size:
            raise ValueError(f"{what} id {x} out of range")
        return x

    for _ in range(nv):
        parts = fields("vertex line", 3)
        if parts[0] != "v":
            raise ValueError(f"expected vertex line, got {lines[i]!r}")
        kinds[ident(parts[1], nv, "vertex")] = parts[2]
        i += 1
    for _ in range(ne):
        parts = fields("edge line", 5)
        if parts[0] != "e":
            raise ValueError(f"expected edge line, got {lines[i]!r}")
        u, v = ident(parts[2], nv, "vertex"), ident(parts[3], nv, "vertex")
        edges[ident(parts[1], ne, "edge")] = (u, v, parts[4])
        i += 1
    while i < len(lines):
        parts = fields("orient block", 2)
        if parts[0] != "orient":
            raise ValueError(f"expected orient block, got {lines[i]!r}")
        name = parts[1]
        if name in orients:
            raise ValueError(f"orient block {name!r} appears twice")
        i += 1
        dirs: list[Optional[str]] = [None] * ne
        for _ in range(ne):
            eid, d = fields("direction line", 2)
            if d not in ("uv", "vu"):
                raise ValueError(f"bad direction {d!r}")
            e = ident(eid, ne, "edge")
            if dirs[e] is not None:
                raise ValueError(f"orient block {name!r} names edge {e} twice")
            dirs[e] = d
            i += 1
        orients[name] = Orientation(tuple(dirs))
    if any(kind is None for kind in kinds) or any(e is None for e in edges):
        raise ValueError("missing vertex or edge declarations")
    return NCLInstance(tuple(kinds), tuple(edges)), orients


def format_ncl(ncl: NCLInstance, orients: Optional[dict[str, Orientation]] = None) -> str:
    out = [f"ncl {ncl.nv} {ncl.ne}"]
    for v, kind in enumerate(ncl.kinds):
        out.append(f"v {v} {kind}")
    for e, (u, v, color) in enumerate(ncl.edges):
        out.append(f"e {e} {u} {v} {color}")
    for name, o in (orients or {}).items():
        out.append(f"orient {name}")
        for e, d in enumerate(o.dirs):
            out.append(f"{e} {d}")
    return "\n".join(out) + "\n"


def format_map(r: ReductionOutput) -> str:
    """JSON-lines description of the reduction's vertex bookkeeping."""
    records = []
    for e, (ep, em) in sorted(r.edge_map.items()):
        records.append({"kind": "edge", "ncl_id": e, "graph_vertices": [ep, em]})
    for v in sorted(r.gadget_vertices):
        vs: list[int] = []
        for base in r.gadget_vertices[v].values():
            vs.extend((base, *r.heavy[base][1]))
        records.append(
            {"kind": r.ncl.kinds[v].lower(), "ncl_id": v, "graph_vertices": sorted(vs)}
        )
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in records) + "\n"


def k4_all_blue() -> tuple[NCLInstance, Orientation, Orientation]:
    """The K4 instance with four OR vertices, plus two satisfying orientations
    of its subdivision that differ in one original edge's direction."""
    edges = tuple(
        (u, v, BLUE) for u in range(4) for v in range(u + 1, 4)
    )
    ncl = NCLInstance((OR,) * 4, edges)
    sub = subdivide_ncl(ncl)
    # Directed 4-cycle 0->1->2->3->0 plus 0->2 and 1->3 on the edges (0,1),
    # (0,2), (0,3), (1,2), (1,3), (2,3): in-degree >= 1 at every vertex.  B
    # reverses the edge (1,2).
    heads = Orientation(("uv", "uv", "vu", "uv", "uv", "uv"))
    a = expand_orientation(ncl, heads)
    b = expand_orientation(ncl, heads.flip(3))
    assert check_orientation(sub, a) and check_orientation(sub, b)
    return ncl, a, b
