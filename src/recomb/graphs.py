"""Undirected simple graphs: connectivity, cut vertices, spanning trees.

Vertices are always 0..n-1, and a Graph's vertices and edges never change.
All functions are pure but for one record: a frozenset that a BFS of
is_connected or spanning_tree found connected joins its graph's weak set,
which is_connected looks in first.  Every set-based walk is reach's BFS; the
cut-vertex and tree helpers take neighbour lists keyed by vertex.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Optional

MAX_VERTICES = 1 << 20
"""Ceiling on the vertex count of a Graph and of every generated instance.
Larger requests are refused before anything is allocated for them."""


def check_vertex_count(n: int) -> None:
    """Raise ValueError when n exceeds MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the ceiling of {MAX_VERTICES}")


MAX_EDGES = 1 << 22
"""Ceiling on the edge count asked of a generator: four per vertex at MAX_VERTICES."""


def check_edge_count(m: int) -> None:
    """Raise ValueError when m exceeds MAX_EDGES."""
    if m > MAX_EDGES:
        raise ValueError(f"{m} edges exceed the ceiling of {MAX_EDGES}")


class GraphFormatError(ValueError):
    """Raised on malformed graph files; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "_nbr", "_proved", "__weakref__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("negative vertex count")
        check_vertex_count(n)
        norm = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            e = (u, v) if u < v else (v, u)
            if e not in norm:  # each edge joins both neighbour lists once
                norm.add(e)
                adj[u].append(v)
                adj[v].append(u)
        self.n = n
        self.edges = frozenset(norm)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self._nbr = None
        self._proved = weakref.WeakSet()  # the frozensets a BFS found connected in it

    @property
    def nbr(self) -> tuple[int, ...]:
        """Neighbour bit mask of each vertex, built on first use."""
        if self._nbr is None:
            self._nbr = tuple(sum(1 << w for w in a) for a in self.adj)
        return self._nbr

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def vertices(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def reach(adj, start: int, within) -> dict[int, Optional[int]]:
    """BFS from start along adj[u] inside within (which holds start): maps each
    vertex reached to the vertex it was first reached from, start to None, in
    discovery order.  adj is Graph.adj or a dict of neighbour lists.  It walks
    a shrinking copy of within, so each neighbour costs one lookup."""
    left = set(within)
    left.discard(start)
    parent: dict[int, Optional[int]] = {start: None}
    order = [start]
    for u in order:
        for w in adj[u]:
            if w in left:
                left.remove(w)
                parent[w] = u
                order.append(w)
    return parent


def _spanned(g: Graph, start: int, s) -> Optional[dict[int, Optional[int]]]:
    """reach's BFS tree of G[s] from start if it spans s (a frozenset s then
    joins g's record), else None; ValueError names a vertex of s outside 0..n-1."""
    parent = reach(g.adj, start, s) if 0 <= start < g.n else {}
    if len(parent) == len(s):  # so every vertex of s is one of g's
        if type(s) is frozenset:
            g._proved.add(s)
        return parent
    if bad := [v for v in s if not 0 <= v < g.n]:
        raise ValueError(f"vertex {bad[0]} is not in 0..{g.n - 1}")
    return None


def is_connected(g: Graph, s: frozenset[int] | set[int]) -> bool:
    """True iff the subgraph induced by s is connected.  s must be nonempty."""
    if not s:
        raise ValueError("empty subset")
    return type(s) is frozenset and s in g._proved or _spanned(g, next(iter(s)), s) is not None


def connected_components(adj, s: Iterable[int]) -> list[frozenset[int]]:
    """Maximal connected pieces of the subgraph induced by s, sorted by their
    minimum element; adj is neighbour lists as for reach."""
    remaining = set(s)
    comps = []
    while remaining:
        comp = frozenset(reach(adj, min(remaining), remaining))
        comps.append(comp)
        remaining -= comp
    return comps


def find(parent, x: int) -> int:
    """Union-find root of x with path halving; parent is a list or dict."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def complete_forest(label, candidates) -> list[tuple[int, int]]:
    """Kruskal completion to a spanning tree.

    label maps each vertex to the component it starts in (itself, or a label
    it shares with vertices already joined).  Returns the candidate edges, in
    the given order, that each join two components; raises ValueError if the
    result does not span.
    """
    comp = {c: c for c in label.values()}
    added = []
    for a, b in candidates:
        ra, rb = find(comp, label[a]), find(comp, label[b])
        if ra != rb:
            comp[ra] = rb
            added.append((a, b))
            if len(added) == len(comp) - 1:
                break
    if len(comp) - len(added) > 1:
        raise ValueError("induced subgraph not connected")
    return added


def block_cut(adj) -> frozenset[int]:
    """Cut vertices of the graph given by neighbour lists adj[v] keyed by
    vertex, by an iterative DFS lowpoint computation from the smallest
    vertex.  Raises ValueError when the graph is empty or not connected."""
    root = min(adj)
    disc = {root: 0}
    low = {root: 0}
    cut = set()
    # DFS path: (vertex, parent, unscanned neighbours).
    stack = [(root, -1, iter(adj[root]))]
    root_children = 0
    while stack:
        u, p, nbrs = stack[-1]
        for w in nbrs:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, u, iter(adj[w])))
                break
            if w != p and disc[w] < low[u]:
                low[u] = disc[w]
        else:
            stack.pop()
            if p == -1:
                continue
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= disc[p]:
                # No vertex below u reaches above p: p separates u's subtree.
                if p == root:
                    root_children += 1
                else:
                    cut.add(p)
    if len(disc) != len(adj):
        raise ValueError("graph not connected")
    if root_children >= 2:
        cut.add(root)
    return frozenset(cut)


def find_low_degree_block_vertex(adj) -> int:
    """The block vertex of least (degree, id) of the connected graph given by
    neighbour lists keyed by vertex: at most degree 3 on a union of two
    forests.  A leaf is never a cut vertex, so block_cut runs only if none."""
    low = min(map(len, adj.values()))
    if low > 1:
        adj = {v: adj[v] for v in adj.keys() - block_cut(adj)}
        low = min(map(len, adj.values()))
    return min(v for v, nbrs in adj.items() if len(nbrs) == low)


def spanning_tree(g: Graph, s: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Edges (u, w), u < w, of the BFS spanning tree of G[s] rooted at min(s),
    neighbours visited ascending."""
    s = frozenset(s)
    if not s:
        raise ValueError("empty subset")
    parent = _spanned(g, min(s), s)
    if parent is None:
        raise ValueError("induced subgraph not connected")
    return frozenset((u, p) if u < p else (p, u) for u, p in parent.items() if p is not None)


def edge_adjacency(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> dict[int, list[int]]:
    """Neighbor lists of the graph with the given vertices and edges."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def parse_graph(text: str) -> Graph:
    """Parse the `p <n> <m>` / `e <u> <v>` text format."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise GraphFormatError(1, "empty file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "p":
        raise GraphFormatError(1, "expected 'p <n> <m>'")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise GraphFormatError(1, "non-integer counts") from None
    if n < 0 or m < 0:
        raise GraphFormatError(1, "negative counts")
    if len(lines) - 1 != m:
        raise GraphFormatError(len(lines), f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    seen = set()
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise GraphFormatError(i, "expected 'e <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(i, "non-integer endpoint") from None
        if not (0 <= u < v < n):
            raise GraphFormatError(i, f"require 0 <= u < v < n, got ({u},{v})")
        if (u, v) in seen:
            raise GraphFormatError(i, f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    out = [f"p {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"
