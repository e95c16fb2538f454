"""Test-only reference: tree_center, the smallest-id centre of a vertex-level
tree, which the fragment trees of recomb.hamiltonian are checked against.
No library code calls it."""

from recomb.graphs import reach


def tree_center(adj) -> int:
    """A center of the tree given by neighbour lists keyed by vertex: every
    component of T-v has at most |V(T)|/2 vertices.

    Smallest id when several centers exist.
    """
    nt = len(adj)
    # Subtree sizes below each vertex of the BFS from the smallest vertex.
    parent = reach(adj, min(adj), adj)
    size = dict.fromkeys(adj, 1)
    for u in reversed(parent):
        if parent[u] is not None:
            size[parent[u]] += size[u]
    # The largest component of T-v: a child's subtree, or all but v's own.
    worst = {v: max((size[w] if parent[w] == v else nt - size[v] for w in adj[v]), default=0)
             for v in adj}
    center = min(adj, key=lambda v: (worst[v], v))
    assert 2 * worst[center] <= nt
    return center
