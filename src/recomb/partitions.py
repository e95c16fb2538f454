"""Connected k-partitions, slack bounds, and recombination moves."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .graphs import Graph, is_connected


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
        try:
            return SlackBound(int(text))
        except ValueError:  # not an integer, or a negative one
            raise ValueError(f"slack must be an integer >= 0 or 'inf', got {text!r}") from None


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

    @cached_property
    def labels(self) -> dict[int, int]:
        """The district label of each vertex, built once per partition."""
        return {v: i for i, d in enumerate(self.districts) for v in d}

    def district_of(self, v: int) -> int:
        return self.labels[v]

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


def _require_valid(g: Graph, p: Partition, k: int, slack: SlackBound, what: str) -> None:
    """Raise ValueError naming `what` and each violation unless p validates."""
    rep = validate(g, p, k, slack)
    if not rep.ok:
        raise ValueError(f"invalid {what}: {'; '.join(rep.violations)}")


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


def _mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in vertices)


def _vertex_set(mask: int) -> frozenset[int]:
    """The frozenset of a vertex mask, made afresh on each call.  Copied from
    a set, its table fits its size: 472 bytes for 5-7 vertices, not 728."""
    vs, left = set(), mask
    while left:
        low = left & -left
        vs.add(low.bit_length() - 1)
        left ^= low
    return frozenset(vs)


def _spread(adj, seed: int, within: int) -> int:
    """Mask of the vertices reachable from the vertices of `seed` inside
    `within`, which holds them; adj[v] is the neighbour mask of vertex v."""
    left, frontier = within ^ seed, seed
    while frontier:
        low = frontier & -frontier
        new = adj[low.bit_length() - 1] & left
        left ^= new
        frontier ^= low | new
    return within ^ left


def _contracted_union(nbr, union: int, m_min: int):
    """Merge every forced pendant of G[union] into its neighbour: a vertex of
    induced degree 1 whose group is lighter than m_min can never be cut off.
    nbr[v] is the neighbour mask of vertex v, for every vertex of union.
    Returns (group, adj, start): the vertex mask merged into each vertex, its
    neighbour mask among the vertices left, and the one that holds min(union)."""
    adj = [m & union for m in nbr]
    group = [1 << v for v in range(len(nbr))]
    start = (union & -union).bit_length() - 1
    stack = [v for v in range(len(nbr)) if union >> v & 1 and adj[v].bit_count() == 1]
    while stack:
        v = stack.pop()
        if adj[v].bit_count() == 1 and group[v].bit_count() < m_min:
            u = adj[v].bit_length() - 1
            group[u] |= group[v]
            adj[u] ^= 1 << v
            adj[v] = 0
            start = u if start == v else start
            stack.append(u)
    return group, adj, start


def _fits(nbr, vertices: int, m_min: int, m_max: int) -> bool:
    """Whether every component of G[vertices] can hold a whole number of
    parts with sizes in [m_min, m_max]."""
    while vertices:
        comp = _spread(nbr, vertices & -vertices, vertices)
        if -(-comp.bit_count() // m_max) > comp.bit_count() // m_min:
            return False
        vertices ^= comp
    return True


def _connected_parts(nbr, vertices: int, parts: int, m_min: int, m_max: int, _tails=None):
    """Every partition of G[vertices] (a vertex mask) into `parts` connected
    parts with sizes in [m_min, m_max], each yielded once as a list of masks;
    nbr[v] is the neighbour mask of vertex v, for every vertex of `vertices`.

    The first part holds min(vertices).  It is grown ESU-style (Wernicke
    2006) on the pendant-contracted graph and kept only if every component of
    the rest can hold a whole number of parts, and the rest recurses.  With
    four parts or more, many choices of the parts before the last two leave
    the same rest, so the two-part tails of each rest are listed once per
    call, in `_tails`, a dict from the rest's mask that the recursion passes
    down.

    With two parts the rest must be connected, and one flood fill of the
    rest at a growth node both checks that and cuts dead branches.  A group
    the growth has passed over can only lie in the rest, so the fill starts
    from the passed groups, or from the rest's least vertex when none is
    passed.  A part of `lo` vertices or more is kept only if the fill
    reaches the whole rest: that fill is its final check.  A part that is
    not kept is still grown, unless some passed group lies outside the
    piece the fill reached, or more than `hi` vertices do, since they all
    must end in the part.  A part too small to keep is filled only if it
    has passed groups and fewer than `hi` - 1 vertices: the children of a
    larger one are leaves, each filled for itself.
    """
    size = vertices.bit_count()
    lo = max(m_min, size - (parts - 1) * m_max)
    hi = min(m_max, size - (parts - 1) * m_min)
    if parts == 1:
        if lo <= size <= hi and _spread(nbr, vertices & -vertices, vertices) == vertices:
            yield [vertices]
        return
    if parts > 3 and _tails is None:
        _tails = {}
    group, adj, start = _contracted_union(nbr, vertices, m_min)
    firsts = []

    def grow(first: int, ext: int, excl: int):
        # first: vertices taken; ext: groups to try next; excl: groups taken or passed.
        count = first.bit_count()
        if parts > 2:
            if count >= lo:
                firsts.append(first)
        else:  # see the docstring
            passed = excl & ~first
            if count >= lo or passed and count < hi - 1:
                rest = vertices ^ first
                seed = passed or rest
                piece = _spread(nbr, seed & -seed, rest)
                if piece == rest:
                    if count >= lo:
                        firsts.append(first)
                elif passed and (passed & ~piece or size - piece.bit_count() > hi):
                    return
        if count == hi:  # every group holds a vertex
            return
        while ext:
            low = ext & -ext
            ext ^= low
            excl |= low
            r = low.bit_length() - 1
            if (first | group[r]).bit_count() <= hi:
                grow(first | group[r], (ext | adj[r]) & ~excl, excl)

    if group[start].bit_count() <= hi:
        grow(group[start], adj[start], 1 << start)
    for first in firsts:
        rest = vertices ^ first
        if parts == 2:  # grow checked the rest
            yield [first, rest]
        elif parts == 3 and _tails is not None:
            if rest not in _tails:
                fits = _fits(nbr, rest, m_min, m_max)
                _tails[rest] = list(_connected_parts(nbr, rest, 2, m_min, m_max)) if fits else []
            for tail in _tails[rest]:
                yield [first, *tail]
        elif _fits(nbr, rest, m_min, m_max):
            for tail in _connected_parts(nbr, rest, parts - 1, m_min, m_max, _tails):
                yield [first, *tail]


_SWAP = str.maketrans("01", "10")


def _mask_order(mask: int) -> str:
    """Key ordering masks as sorted() orders their vertex lists: bits from 0 up, 0 and 1 swapped."""
    return bin(mask)[:1:-1].translate(_SWAP)


def _pair_list(k: int, pairs) -> list[tuple[int, int]]:
    """The district pairs (i, j), i < j, a move listing scans, in its order: all,
    or `pairs` sorted and deduplicated; ValueError unless each names two labels."""
    if pairs is None:
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = sorted(set((min(a, b), max(a, b)) for a, b in pairs))
    for i, j in out:
        if not 0 <= i < j < k:
            raise ValueError(f"district pair ({i}, {j}) must name two districts in 0..{k - 1}")
    return out


def _split_masks(g: Graph, union: int, m_min: int, m_max: int, table: dict) -> list[tuple[int, int]]:
    """The (part, rest) splits of a union mask, sorted by the part holding
    min(union); computed once per `table`.

    The union is enumerated in its own vertex window: its masks and its
    vertices' neighbour masks are shifted down by min(union), and each split
    is shifted back before the sort."""
    if union not in table:
        low = (union & -union).bit_length() - 1
        window = union >> low
        nbr = [m >> low & window for m in g.nbr[low:low + window.bit_length()]]
        connected = _spread(nbr, 1, window) == window
        found = _connected_parts(nbr, window, 2, m_min, m_max) if connected else ()
        splits = [(a << low, b << low) for a, b in found]
        table[union] = sorted(splits, key=lambda split: _mask_order(split[0]))
    return table[union]


def _move_masks(g: Graph, masks: Sequence[int], slack: SlackBound, pairs: list[tuple[int, int]],
                table: dict, goal: frozenset[int] = frozenset(), least: int = 0) -> list[tuple]:
    """enumerate_moves' moves, in its order, over `pairs` (one _pair_list per
    search) on the partition of district masks `masks`, as (i, j, mask_i,
    mask_j); fills `table`.  With `goal`, the district masks of a valid
    (k,s)-BCP, only the moves whose result shares >= `least` districts with it.

    A move on districts i and j keeps the others, so its two parts must be
    `need` goal districts.  need <= 0: any split in the table.  need 1 or 2:
    a goal district inside the union for a part, and for the rest a goal
    district (need 2) or a connected part of admissible size (need 1).
    """
    k = len(masks)
    m_min, m_max = slack.min_size(g.n, k), slack.max_size(g.n, k)
    have = sum(m in goal for m in masks)
    moves = []
    for i, j in pairs:
        union = masks[i] | masks[j]
        need = least - have + (masks[i] in goal) + (masks[j] in goal)
        if need <= 0:
            splits = _split_masks(g, union, m_min, m_max, table)
        elif need <= 2:
            low, found = union & -union, set()
            for t in goal:
                rest = union ^ t
                if t | union == union and (rest in goal or need == 1 and m_min <= rest.bit_count() <= m_max
                                           and _spread(g.nbr, rest & -rest, rest) == rest):
                    found.add((t, rest) if t & low else (rest, t))
            splits = sorted(found, key=lambda split: _mask_order(split[0]))
        else:
            continue
        # A part equal to district i or j makes the identity split.
        moves += [(i, j, a, b) for a, b in splits if a not in (masks[i], masks[j])]
    return moves


def enumerate_moves(
    g: Graph,
    p: Partition,
    slack: SlackBound,
    pairs: Optional[Sequence[tuple[int, int]]] = None,
    *,
    _splits: Optional[dict] = None,
) -> list[RecombMove]:
    """All recombination moves applicable to p, deduplicated up to unordered
    equality of the resulting partition, in deterministic order.

    Only district pairs whose union induces a connected subgraph are
    considered: a union with two components admits only the identity
    repartition.  `pairs` restricts the district pairs scanned (used for
    locality-restricted searches); each must be two distinct labels of p, or
    ValueError is raised.  `_splits` is the split table of one search over
    fixed (g, k, slack): a dict from a union mask to its (part, rest) mask
    pairs, sorted by the part holding min(union).
    """
    table = {} if _splits is None else _splits
    masks = [_mask(d) for d in p.districts]
    return [RecombMove(i, j, _vertex_set(a), _vertex_set(b))
            for i, j, a, b in _move_masks(g, masks, slack, _pair_list(p.k, pairs), table)]


def parse_ints(tokens: Sequence[str], what: str) -> list[int]:
    """The tokens as ints; ValueError names the first that is not one by what.format(its index)."""
    out = []
    for t, x in enumerate(tokens):
        try:
            out.append(int(x))
        except ValueError:
            raise ValueError(f"{what.format(t)} must be an integer, got {x!r}") from None
    return out


def parse_partition(text: str) -> Partition:
    """Parse the `k <k>` + label-line text format."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if len(lines) != 2:
        raise ValueError("expected two lines: 'k <k>' and the label line")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "k":
        raise ValueError("first line must be 'k <k>'")
    k = parse_ints(head[1:], "k")[0]
    labels = parse_ints(lines[1].split(), "the label of vertex {}")
    if not 1 <= k <= len(labels):  # before the districts are allocated
        raise ValueError(f"k must be between 1 and the label count {len(labels)}")
    if any(not (0 <= lab < k) for lab in labels):
        raise ValueError("district label out of range")
    districts: list[set[int]] = [set() for _ in range(k)]
    for v, lab in enumerate(labels):
        districts[lab].add(v)
    return Partition.of(districts)


def format_partition(p: Partition, n: int) -> str:
    labels = p.labels
    if labels.keys() != set(range(n)):
        raise ValueError("partition does not cover 0..n-1")
    return f"k {p.k}\n" + " ".join(str(labels[v]) for v in range(n)) + "\n"


class _Names(dict):
    """The decimal string of each int looked up, made on its first lookup."""

    def __missing__(self, v: int) -> str:
        self[v] = name = str(v)
        return name


def format_moves(moves: Sequence[RecombMove]) -> str:
    """One `m i j | part | part` line per move, each part's ids ascending;
    each id is turned into a string once per call."""
    name = _Names().__getitem__
    out = []
    for m in moves:
        a = " ".join(map(name, sorted(m.new_i)))
        b = " ".join(map(name, sorted(m.new_j)))
        out.append(f"m {m.i} {m.j} | {a} | {b}")
    return "\n".join(out) + ("\n" if out else "")


def parse_moves(text: str) -> list[RecombMove]:
    moves = []
    for lineno, ln in enumerate(text.split("\n"), 1):
        if not ln.strip():
            continue
        fields = ln.split("|")
        parts = fields[0].split()
        if not ln.startswith("m ") or len(fields) != 3 or len(parts) != 3:
            raise ValueError(f"bad move line: {ln!r}")
        i, j = parse_ints(parts[1:], f"district label {{}} on move line {lineno}")
        a, b = (frozenset(parse_ints(f.split(), f"vertex {{}} of part {x} on move line {lineno}"))
                for x, f in enumerate(fields[1:]))
        moves.append(RecombMove(i, j, a, b))
    return moves
