"""Undirected simple graphs: connectivity, block-cut decomposition, spanning trees.

Vertices are always 0..n-1.  All functions are pure; Graph and Tree are
immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class GraphFormatError(ValueError):
    """Raised on malformed graph files; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("negative vertex count")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self._nbr = None

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


@dataclass(frozen=True)
class Tree:
    """A tree on a subset of an ambient graph's vertices, rooted at its
    smallest vertex id."""

    vertices: frozenset[int]
    root: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        assert len(self.edges) == len(self.vertices) - 1


@dataclass(frozen=True)
class BlockCutDecomposition:
    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    block_vertices: frozenset[int]


def reach(adj, start: int, within) -> set[int]:
    """Vertices reachable from start along adj[u] while staying inside within.

    adj may be a Graph.adj tuple or a dict of neighbor lists; start must be
    in within.
    """
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in within and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_connected(g: Graph, s: frozenset[int] | set[int]) -> bool:
    """True iff the subgraph induced by s is connected.  s must be nonempty."""
    if not s:
        raise ValueError("empty subset")
    return len(reach(g.adj, min(s), s)) == len(s)


def connected_components(g, s: Iterable[int]) -> list[frozenset[int]]:
    """Maximal connected pieces of G[s], sorted by their minimum element; g is
    a Graph or neighbour lists as for reach."""
    adj = g.adj if isinstance(g, Graph) else g
    remaining = set(s)
    comps = []
    while remaining:
        comp = frozenset(reach(adj, min(remaining), remaining))
        comps.append(comp)
        remaining -= comp
    return sorted(comps, key=min)


def find(parent, x: int) -> int:
    """Union-find root of x with path halving; parent is a list or dict."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def complete_forest(label, forest: Iterable[tuple[int, int]], candidates) -> list[tuple[int, int]]:
    """Kruskal completion of a forest to a spanning tree.

    label maps each vertex to the component it starts in (itself, or a label
    it shares with vertices already joined); forest edges are joined next.
    Returns the candidate edges, in the given order, that each join two
    components; raises ValueError if the result does not span.
    """
    comp = {c: c for c in label.values()}

    def join(a: int, b: int) -> bool:
        ra, rb = find(comp, label[a]), find(comp, label[b])
        comp[ra] = rb
        return ra != rb

    parts = len(comp) - sum(join(a, b) for a, b in forest)
    added = [(a, b) for a, b in candidates if join(a, b)]
    if parts - len(added) > 1:
        raise ValueError("induced subgraph not connected")
    return added


def block_cut(g) -> BlockCutDecomposition:
    """Blocks (maximal biconnected components) and cut vertices of a connected
    graph: a Graph, or neighbour lists adj[v] keyed by vertex.

    Iterative DFS lowpoint computation from the smallest vertex; blocks are
    reported sorted by their minimum vertex.
    """
    adj = g
    if isinstance(g, Graph):
        if g.n == 0 or not is_connected(g, g.vertices()):
            raise ValueError("graph not connected")
        adj = dict(enumerate(g.adj))
    root = min(adj)
    disc = {root: 0}
    low = {root: 0}
    cut = set()
    blocks = [] if len(adj) > 1 else [frozenset(adj)]
    # Discovered vertices not yet assigned to a block, in discovery order.
    pending = [root]
    # DFS path: (vertex, parent, unscanned neighbours, its index in pending).
    stack = [(root, -1, iter(adj[root]), 0)]
    root_children = 0
    while stack:
        u, p, nbrs, at = stack[-1]
        for w in nbrs:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, u, iter(adj[w]), len(pending)))
                pending.append(w)
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
                # p and u's pending subtree form one block.
                blocks.append(frozenset(pending[at:]).union((p,)))
                del pending[at:]
                if p == root:
                    root_children += 1
                else:
                    cut.add(p)
    if root_children >= 2:
        cut.add(root)
    blocks.sort(key=min)
    return BlockCutDecomposition(tuple(blocks), frozenset(cut), frozenset(adj) - cut)


def find_low_degree_block_vertex(g) -> int:
    """The block vertex of minimum degree (smallest id on ties) of a Graph or
    of neighbour lists keyed by vertex.

    When g is the union of two forests this degree is at most 3.
    """
    adj = g.adj if isinstance(g, Graph) else g
    return min(block_cut(g).block_vertices, key=lambda v: (len(adj[v]), v))


def spanning_tree(g: Graph, s: Iterable[int]) -> Tree:
    """BFS spanning tree of G[s] rooted at min(s); neighbors visited ascending."""
    s = frozenset(s)
    if not s:
        raise ValueError("empty subset")
    root = min(s)
    order = [root]
    seen = {root}
    edges = set()
    for u in order:
        for w in g.adj[u]:
            if w in s and w not in seen:
                seen.add(w)
                edges.add((min(u, w), max(u, w)))
                order.append(w)
    if len(seen) != len(s):
        raise ValueError("induced subgraph not connected")
    return Tree(s, root, frozenset(edges))


def edge_adjacency(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> dict[int, list[int]]:
    """Neighbor lists of the graph with the given vertices and edges."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def tree_center(t) -> int:
    """A center of a tree t, given as a Tree or as neighbour lists keyed by
    vertex: every component of T-v has at most |V(T)|/2 vertices.

    Smallest id when several centers exist.
    """
    adj = edge_adjacency(t.vertices, t.edges) if isinstance(t, Tree) else t
    nt, root = len(adj), min(adj)
    # Subtree sizes from a DFS rooted at the smallest vertex.
    order = []
    parent = {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    size = dict.fromkeys(adj, 1)
    for u in reversed(order):
        if parent[u] is not None:
            size[parent[u]] += size[u]
    best = None
    for v in sorted(adj):
        worst = 0
        for w in adj[v]:
            c = size[w] if parent[w] == v else nt - size[v]
            worst = max(worst, c)
        if best is None or worst < best[0]:
            best = (worst, v)
    assert best is not None and 2 * best[0] <= nt
    return best[1]


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
