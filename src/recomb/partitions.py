"""Connected k-partitions, slack bounds, and recombination moves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph, connected_components, is_connected, reach


@dataclass(frozen=True)
class SlackBound:
    """Allowed deviation from the ideal district size n/k.

    s is None for the infinite (unbounded) slack.
    """

    s: Optional[int]

    def __post_init__(self):
        if self.s is not None and self.s < 0:
            raise ValueError("finite slack must be >= 0")

    @property
    def infinite(self) -> bool:
        return self.s is None

    def size_ok(self, n: int, k: int, size: int) -> bool:
        """Exact integer test |k*size - n| <= k*s (no rounding of n/k)."""
        if self.s is None:
            return True
        return abs(k * size - n) <= k * self.s

    def min_size(self, n: int, k: int) -> int:
        """Smallest admissible district size (at least 1)."""
        if self.s is None:
            return 1
        return max(1, -(-(n - k * self.s) // k))

    def max_size(self, n: int, k: int) -> int:
        """Largest admissible district size (at most n)."""
        if self.s is None:
            return n
        return min(n, (n + k * self.s) // k)

    def __str__(self) -> str:
        return "inf" if self.s is None else str(self.s)

    @staticmethod
    def parse(text: str) -> "SlackBound":
        if text.strip().lower() in ("inf", "infinite", "infinity"):
            return SLACK_INF
        return SlackBound(int(text))


SLACK_INF = SlackBound(None)

PartitionKey = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Partition:
    """A labeled list of vertex sets over an ambient graph."""

    districts: tuple[frozenset[int], ...]

    @staticmethod
    def of(districts: Iterable[Iterable[int]]) -> "Partition":
        return Partition(tuple(frozenset(d) for d in districts))

    @property
    def k(self) -> int:
        return len(self.districts)

    def district_of(self, v: int) -> int:
        for i, d in enumerate(self.districts):
            if v in d:
                return i
        raise KeyError(v)

    def key(self) -> PartitionKey:
        return canonical_key(self)

    def replace(self, i: int, j: int, new_i: frozenset[int], new_j: frozenset[int]) -> "Partition":
        ds = list(self.districts)
        ds[i] = new_i
        ds[j] = new_j
        return Partition(tuple(ds))


def canonical_key(p: Partition) -> PartitionKey:
    """Canonical encoding: districts sorted by minimum element, each sorted.

    Equal keys iff equal as unordered families of sets.
    """
    return tuple(sorted((tuple(sorted(d)) for d in p.districts), key=lambda t: t[0] if t else -1))


def partition_from_key(key: PartitionKey) -> Partition:
    return Partition(tuple(frozenset(t) for t in key))


@dataclass(frozen=True)
class RecombMove:
    """Repartition of the union of districts i and j (i < j)."""

    i: int
    j: int
    new_i: frozenset[int]
    new_j: frozenset[int]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


class MoveError(ValueError):
    """apply_move failure; code is one of union-mismatch, disconnected-part,
    slack-violation, identity-move, bad-labels."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def validate(g: Graph, p: Partition, k: int, slack: SlackBound) -> ValidationReport:
    """Total validation of p as a (k,s)-BCP of g.  Never raises."""
    bad: list[str] = []
    if p.k != k:
        bad.append(f"expected {k} districts, got {p.k}")
    seen: dict[int, int] = {}
    n = g.n
    for i, d in enumerate(p.districts):
        if not d:
            bad.append(f"district {i} empty")
            continue
        for v in d:
            if not (0 <= v < n):
                bad.append(f"district {i} contains out-of-range vertex {v}")
            elif v in seen:
                bad.append(f"vertex {v} in districts {seen[v]} and {i}")
            else:
                seen[v] = i
    if len(seen) != n:
        missing = sorted(set(range(n)) - set(seen))
        bad.append(f"vertices not covered: {missing}")
    for i, d in enumerate(p.districts):
        if d and all(0 <= v < n for v in d) and not is_connected(g, d):
            bad.append(f"district {i} disconnected")
    if not slack.infinite:
        for i, d in enumerate(p.districts):
            if d and not slack.size_ok(n, k, len(d)):
                bad.append(
                    f"district {i} size {len(d)}, bound |{k}*{len(d)}-{n}| <= {k}*{slack.s} fails"
                )
    return ValidationReport(not bad, tuple(bad))


def apply_move(g: Graph, p: Partition, m: RecombMove, slack: SlackBound) -> Partition:
    """Apply a recombination move, checking all of its invariants."""
    if not (0 <= m.i < m.j < p.k):
        raise MoveError("bad-labels", f"bad district labels ({m.i},{m.j})")
    old_u = p.districts[m.i] | p.districts[m.j]
    if (m.new_i | m.new_j) != old_u or (m.new_i & m.new_j):
        raise MoveError("union-mismatch", "new parts must repartition the old union")
    if not m.new_i or not m.new_j:
        raise MoveError("disconnected-part", "empty part")
    for part in (m.new_i, m.new_j):
        if not is_connected(g, part):
            raise MoveError("disconnected-part", f"part {sorted(part)} disconnected")
    if {m.new_i, m.new_j} == {p.districts[m.i], p.districts[m.j]}:
        raise MoveError("identity-move", "resulting partition equals the original")
    for part in (m.new_i, m.new_j):
        if not slack.size_ok(g.n, p.k, len(part)):
            raise MoveError("slack-violation", f"part size {len(part)} violates slack {slack}")
    return p.replace(m.i, m.j, m.new_i, m.new_j)


def _contracted_union(g: Graph, union: frozenset[int], m_min: int):
    """Contract forced pendants inside G[union].

    A vertex whose induced degree is 1 and whose accumulated weight is below
    the minimum admissible district size can never be separated from its
    neighbor, so it is merged into it.  Returns (groups, weight, adj) where
    groups maps a representative to its merged vertex set.
    """
    groups: dict[int, set[int]] = {v: {v} for v in union}
    weight = {v: 1 for v in union}
    adj: dict[int, set[int]] = {v: {w for w in g.adj[v] if w in union} for v in union}
    changed = True
    while changed and m_min > 1:
        changed = False
        for v in sorted(groups):
            if v in groups and len(adj[v]) == 1 and weight[v] < m_min:
                (u,) = adj[v]
                groups[u] |= groups.pop(v)
                weight[u] += weight.pop(v)
                adj[u].discard(v)
                del adj[v]
                changed = True
    return groups, weight, adj


def _connected_subsets(adj, v0, max_weight, weight):
    """All connected subsets of the contracted graph that contain v0 and whose
    total weight is at most max_weight.  Each subset is yielded exactly once.
    """
    out = []

    def rec(current: set, w: int, extension: list, forbidden: set):
        out.append(frozenset(current))
        for idx, v in enumerate(extension):
            nw = w + weight[v]
            if nw > max_weight:
                continue
            new_forbidden = forbidden | set(extension[:idx])
            new_ext = [x for x in extension[idx + 1 :]]
            for nb in sorted(adj[v]):
                if nb not in current and nb not in new_forbidden and nb != v and nb not in new_ext:
                    new_ext.append(nb)
            current.add(v)
            rec(current, nw, new_ext, new_forbidden)
            current.remove(v)

    start_ext = sorted(adj[v0])
    rec({v0}, weight[v0], start_ext, set())
    return out


def _connected_parts(g: Graph, vertices: frozenset[int], parts: int, m_min: int, m_max: int):
    """Every partition of G[vertices] into `parts` connected parts with sizes
    in [m_min, m_max], each yielded exactly once as a list of vertex sets.

    The first part holds min(vertices); it is grown as a connected subset of
    the pendant-contracted graph and kept only if every component of the
    remainder can hold a whole number of parts, and the remainder recurses.
    """
    size = len(vertices)
    if parts == 1:
        if m_min <= size <= m_max and is_connected(g, vertices):
            yield [vertices]
        return
    lo = max(m_min, size - (parts - 1) * m_max)
    hi = min(m_max, size - (parts - 1) * m_min)
    groups, weight, adj = _contracted_union(g, vertices, m_min)
    v = min(vertices)
    v0 = next(r for r, members in groups.items() if v in members)
    for side in _connected_subsets(adj, v0, hi, weight):
        # The start group is emitted even when it alone exceeds hi.
        if not lo <= sum(weight[r] for r in side) <= hi:
            continue
        rest = [r for r in groups if r not in side]
        joined = len(reach(adj, rest[0], set(rest))) == len(rest)
        if parts == 2 and not joined:
            continue
        first = frozenset().union(*(groups[r] for r in side))
        if parts == 2:
            yield [first, vertices - first]
        elif joined or all(
            -(-len(c) // m_max) <= len(c) // m_min for c in connected_components(g, vertices - first)
        ):
            for tail in _connected_parts(g, vertices - first, parts - 1, m_min, m_max):
                yield [first, *tail]


def enumerate_moves(
    g: Graph,
    p: Partition,
    slack: SlackBound,
    pairs: Optional[Sequence[tuple[int, int]]] = None,
) -> list[RecombMove]:
    """All recombination moves applicable to p, deduplicated up to unordered
    equality of the resulting partition, in deterministic order.

    Only district pairs whose union induces a connected subgraph are
    considered: a union with two components admits only the identity
    repartition.  The optional `pairs` argument restricts the district pairs
    scanned (used for locality-restricted searches).
    """
    n, k = g.n, p.k
    m_min = slack.min_size(n, k)
    m_max = slack.max_size(n, k)
    moves: list[RecombMove] = []
    if pairs is None:
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for i, j in sorted(set((min(a, b), max(a, b)) for a, b in pairs)):
        vi, vj = p.districts[i], p.districts[j]
        union = vi | vj
        if not is_connected(g, union):
            continue
        results = []
        for new_a, new_b in _connected_parts(g, union, 2, m_min, m_max):
            if {new_a, new_b} == {vi, vj}:
                continue
            results.append((tuple(sorted(new_a)), new_a, new_b))
        results.sort()
        for _, new_a, new_b in results:
            moves.append(RecombMove(i, j, new_a, new_b))
    return moves


def parse_partition(text: str) -> Partition:
    """Parse the `k <k>` + label-line text format."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if len(lines) != 2:
        raise ValueError("expected two lines: 'k <k>' and the label line")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "k":
        raise ValueError("first line must be 'k <k>'")
    k = int(head[1])
    labels = [int(x) for x in lines[1].split()]
    if any(not (0 <= lab < k) for lab in labels):
        raise ValueError("district label out of range")
    districts: list[set[int]] = [set() for _ in range(k)]
    for v, lab in enumerate(labels):
        districts[lab].add(v)
    return Partition.of(districts)


def format_partition(p: Partition, n: int) -> str:
    labels = [-1] * n
    for i, d in enumerate(p.districts):
        for v in d:
            labels[v] = i
    if any(lab < 0 for lab in labels):
        raise ValueError("partition does not cover 0..n-1")
    return f"k {p.k}\n" + " ".join(str(x) for x in labels) + "\n"


def format_moves(moves: Sequence[RecombMove]) -> str:
    out = []
    for m in moves:
        a = " ".join(str(v) for v in sorted(m.new_i))
        b = " ".join(str(v) for v in sorted(m.new_j))
        out.append(f"m {m.i} {m.j} | {a} | {b}")
    return "\n".join(out) + ("\n" if out else "")


def parse_moves(text: str) -> list[RecombMove]:
    moves = []
    for ln in text.split("\n"):
        if not ln.strip():
            continue
        if not ln.startswith("m "):
            raise ValueError(f"bad move line: {ln!r}")
        head, a, b = ln.split("|")
        parts = head.split()
        i, j = int(parts[1]), int(parts[2])
        moves.append(
            RecombMove(i, j, frozenset(int(x) for x in a.split()), frozenset(int(x) for x in b.split()))
        )
    return moves
