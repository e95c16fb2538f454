"""Output checks for the benchmark's ops.

Each check raises CheckError when an output is wrong. Pinned values (stats
lines, shortest lengths, trace digests) are compared when given; otherwise
only structural checks run: replay, validity, one move per walk step and
the paper's move bounds.
"""

from __future__ import annotations

import hashlib

from recomb.graphs import parse_graph
from recomb.partitions import (
    MoveError,
    SlackBound,
    canonical_key,
    parse_moves,
    parse_partition,
    partition_from_key,
    validate,
)
from recomb.sequences import replay


class CheckError(Exception):
    """An op's output is wrong."""


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def explore(stdout: str, pinned: list[str] | None) -> None:
    lines = stdout.strip().split("\n")
    if pinned is not None:
        if lines != pinned:
            raise CheckError(f"stats {lines} != pinned {pinned}")
        return
    fields = dict(ln.split(" ", 1) for ln in lines if " " in ln)
    try:
        nodes, edges, comps = (int(fields[x]) for x in ("nodes", "edges", "components"))
        diameters = [int(x) for x in fields["diameters"].split()]
    except (KeyError, ValueError) as exc:
        raise CheckError(f"malformed stats {lines}") from exc
    if not (1 <= comps <= nodes and edges >= 0 and len(diameters) == comps):
        raise CheckError(f"inconsistent stats {lines}")


def replay_to(graph, start, moves_text: str, target, slack: SlackBound) -> int:
    """Replay a moves file from `start`; it must end on `target`. Returns its length."""
    try:
        moves = parse_moves(moves_text)
        end = replay(graph, start, moves, slack)
    except (MoveError, ValueError) as exc:
        raise CheckError(f"moves do not replay: {exc}") from exc
    if canonical_key(end) != canonical_key(target):
        raise CheckError("moves do not end on the target partition")
    return len(moves)


def decide(stdout: str, graph_path: str, a_path: str, b_path: str, k: int, s: int,
           moves_text: str, pinned_len: int | None) -> int:
    words = stdout.split()
    if len(words) != 2 or words[0] != "REACHABLE":
        raise CheckError(f"expected 'REACHABLE <len>', got {stdout.strip()!r}")
    g = parse_graph(_read(graph_path))
    length = replay_to(g, parse_partition(_read(a_path)), moves_text,
                       parse_partition(_read(b_path)), SlackBound(s))
    if length != int(words[1]):
        raise CheckError(f"printed length {words[1]} but the file has {length} moves")
    if pinned_len is not None and length != pinned_len:
        raise CheckError(f"shortest length {length} != pinned {pinned_len}")
    return length


def trace_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sample(stdout: str, graph_path: str, start_path: str, k: int, s: int, steps: int,
           trace_text: str, pinned_digest: str | None) -> None:
    if f"steps {steps}" not in stdout.split("\n") or "halted no" not in stdout:
        raise CheckError(f"walk did not run {steps} steps: {stdout.strip()!r}")
    if pinned_digest is not None and trace_digest(trace_text) != pinned_digest:
        raise CheckError(f"trace digest {trace_digest(trace_text)} != pinned {pinned_digest}")
    g = parse_graph(_read(graph_path))
    slack = SlackBound(s)
    prev = canonical_key(parse_partition(_read(start_path)))
    lines = [ln for ln in trace_text.split("\n") if ln]
    if len(lines) != steps:
        raise CheckError(f"trace has {len(lines)} steps, expected {steps}")
    for ln in lines:
        try:
            tag, idx, flat = ln.split()
            key = tuple(tuple(int(v) for v in d.split(",")) for d in flat.split(";"))
        except ValueError as exc:
            raise CheckError(f"malformed trace line {ln!r}") from exc
        if tag != "s" or int(idx) < 0:
            raise CheckError(f"malformed trace line {ln!r}")
        if not validate(g, partition_from_key(key), k, slack).ok:
            raise CheckError(f"step {ln!r} is not a valid ({k},{s})-BCP")
        old, new = set(prev) - set(key), set(key) - set(prev)
        if len(old) != 2 or len(new) != 2 or set().union(*old) != set().union(*new):
            raise CheckError(f"step {ln!r} is not one recombination away from the last")
        prev = key


def move_bound(mode: str, n: int, k: int) -> int:
    """6(k-1) for unbounded slack; 2k(n-k)+k^2+1 along a Hamilton cycle."""
    return 6 * (k - 1) if mode == "unbounded" else 2 * k * (n - k) + k * k + 1


def transform(stdout: str, graph_path: str, a_path: str, b_path: str, slack: str,
              mode: str, moves_text: str) -> tuple[int, int]:
    """Returns (moves, bound)."""
    g = parse_graph(_read(graph_path))
    pa = parse_partition(_read(a_path))
    length = replay_to(g, pa, moves_text, parse_partition(_read(b_path)),
                       SlackBound.parse(slack))
    if stdout.strip() != str(length):
        raise CheckError(f"printed {stdout.strip()!r} but the file has {length} moves")
    bound = move_bound(mode, g.n, pa.k)
    if length > bound:
        raise CheckError(f"{length} moves exceed the bound {bound}")
    return length, bound
