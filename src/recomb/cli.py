"""Command-line interface: validate / transform / explore / decide / gen / sample.

Exit codes: 0 success, 2 validation failure (report on stderr), 1 usage or
input errors.  A command only computes what to write and print; run() is the
one place that writes and prints it.  It writes every file before it prints,
so a write that fails leaves stdout empty, and with several files it opens
each of them before it writes any, so a path that cannot be opened leaves
every one of them as it was.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import TYPE_CHECKING

# graphs, oracle, partitions and unbounded (which loads sequences) stay
# imported at load time: perfbench/tracing.py looks up each module it wraps
# in sys.modules when it installs, and wraps parse_graph, parse_partition and
# format_moves in this module's namespace. hamiltonian, instances and ncl are
# imported by the commands that call them.
from .graphs import Graph, GraphFormatError, format_graph, parse_graph
from .oracle import OracleCapError, build_space, decide_br, recom_walk, space_stats
from .partitions import (
    Partition,
    SlackBound,
    format_moves,
    format_partition,
    parse_ints,
    parse_partition,
    validate,
)
from .unbounded import transform_unbounded

if TYPE_CHECKING:
    from .hamiltonian import CycleOrder

_DOT_COLORS = [
    "lightblue", "lightcoral", "palegreen", "khaki", "plum", "lightsalmon",
    "lightseagreen", "wheat", "thistle", "powderblue", "darkseagreen",
    "rosybrown", "lightsteelblue", "tan",
]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(*files: tuple[str, str]) -> None:
    """Write each (path, text) pair, or none of them.  With several, every
    path is first opened for appending, which changes no file, and the files
    that this created are removed again when a path cannot be opened."""
    if len(files) > 1:
        created = []
        try:
            for path, _ in files:
                existed = os.path.lexists(path)
                open(path, "a").close()
                if not existed:
                    created.append(path)
        except OSError:
            for path in created:
                os.remove(path)
            raise
    for path, text in files:
        with open(path, "w") as fh:
            fh.write(text)


def _load_cycle(path: str, n: int) -> CycleOrder:
    from .hamiltonian import CycleOrder

    order = tuple(parse_ints(_read(path).split(), "the cycle's vertex at position {}"))
    if len(order) != n:
        raise ValueError(f"cycle file lists {len(order)} vertices, graph has {n}")
    return CycleOrder(order)


def format_cycle(cycle: CycleOrder) -> str:
    return " ".join(str(v) for v in cycle.order) + "\n"


def dot_export(g: Graph, p: Partition | None = None) -> str:
    lines = ["graph G {", "  node [style=filled];"]
    label = p.labels if p is not None else {}
    for v in range(g.n):
        if v in label:
            color = _DOT_COLORS[label[v] % len(_DOT_COLORS)]
            lines.append(f'  {v} [fillcolor="{color}"];')
        else:
            lines.append(f"  {v};")
    for a, b in sorted(g.edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Invalid(Exception):
    """An input partition failed validation; the text is the report for stderr."""


def _inputs(args, *names):
    """(graph, the partition named by each option in names, slack) of args.

    Refuses --k below 1 before reading a file.  Raises _Invalid on the first
    partition that fails validation at --k (without --k, at its own k).
    """
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        raise ValueError("--k must be at least 1")
    g = parse_graph(_read(args.graph))
    parts = [parse_partition(_read(getattr(args, name))) for name in names]
    slack = SlackBound.parse(args.slack)
    for name, p in zip(names, parts):
        rep = validate(g, p, p.k if k is None else k, slack)
        if not rep.ok:
            head = (f"invalid '{name}' partition:",) if len(names) > 1 else ()
            raise _Invalid("\n".join(head + rep.violations))
    return (g, *parts, slack)


# Each cmd_* returns (files, lines, drawing): the (path, text) pairs it
# writes, the lines it prints and the (graph, partition) that --dot renders
# (None where the command has no --dot). run() writes and prints them.


def cmd_validate(args):
    g, p, _ = _inputs(args, "partition")
    return [], ["OK"], (g, p)


def cmd_transform(args):
    g, p1, p2, slack = _inputs(args, "from", "to")
    if args.mode == "unbounded":
        if not slack.infinite:
            raise ValueError("--mode unbounded requires --slack inf")
        moves = transform_unbounded(g, p1, p2)
    else:
        if not args.cycle:
            raise ValueError(
                "--mode hamiltonian requires --cycle; it applies the bounded-slack "
                "transformation along a Hamilton cycle with s >= n/k"
            )
        from .hamiltonian import transform_hamiltonian

        cycle = _load_cycle(args.cycle, g.n)
        moves = transform_hamiltonian(g, cycle, p1, p2, slack)
    return [(args.out, format_moves(moves))], [str(len(moves))], (g, p2)


def cmd_explore(args):
    g, slack = _inputs(args)
    st = space_stats(build_space(g, args.k, slack))
    lines = [f"nodes {st.node_count}", f"edges {st.edge_count}",
             f"components {st.component_count}",
             "diameters " + " ".join(str(d) for d in st.diameters)]
    return [], lines, (g, None)


def cmd_decide(args):
    g, p1, p2, slack = _inputs(args, "from", "to")
    reachable, path = decide_br(g, args.k, slack, p1, p2)
    files = [(args.out, format_moves(path))] if reachable and args.out else []
    return files, [f"REACHABLE {len(path)}" if reachable else "UNREACHABLE"], None


def _gen_graph(gen_name: str, *values):
    from . import instances

    g = getattr(instances, gen_name)(*values)
    return [(".graph", format_graph(g))], [f"n {g.n}"], (g, None)


def _gen_negative(k: int, s: int):
    from .instances import arc_partition, gen_negative

    g, pa, cycle = gen_negative(k, s)
    files = [(".graph", format_graph(g)), (".a.part", format_partition(pa, g.n)),
             (".b.part", format_partition(arc_partition(g.n, k), g.n)),
             (".cycle", format_cycle(cycle))]
    return files, [f"n {g.n}"], (g, pa)


def _gen_ncl(path: str, s: int):
    from .ncl import format_map, parse_ncl, reduce_ncl

    ncl, orients = parse_ncl(_read(path))
    if "A" not in orients or "B" not in orients:
        raise ValueError("NCL file must contain 'orient A' and 'orient B' blocks")
    r = reduce_ncl(ncl, orients["A"], orients["B"], s)
    n = r.graph.n
    files = [(".graph", format_graph(r.graph)), (".a.part", format_partition(r.pi_a, n)),
             (".b.part", format_partition(r.pi_b, n)), (".map.jsonl", format_map(r))]
    return files, [f"n {n}", f"k {r.k}"], (r.graph, r.pi_a)


# Each family's builder and the options it is called with (only --seed has a
# default). A builder returns what a cmd_* does, each file named by the
# suffix that cmd_gen appends to --out.
_FAMILIES = {
    "cycle": (functools.partial(_gen_graph, "gen_cycle"), ("n",)),
    "path": (functools.partial(_gen_graph, "gen_path"), ("n",)),
    "grid": (functools.partial(_gen_graph, "gen_grid"), ("width", "height")),
    "random": (functools.partial(_gen_graph, "gen_random_connected"), ("n", "m", "seed")),
    "negative": (_gen_negative, ("k", "s")),
    "ncl": (_gen_ncl, ("ncl", "s")),
}


def cmd_gen(args):
    build, names = _FAMILIES[args.family]
    values = [getattr(args, name) for name in names]
    missing = [f"--{name}" for name, value in zip(names, values) if value is None]
    if missing:
        raise ValueError(f"--family {args.family} requires {' and '.join(missing)}")
    files, lines, drawing = build(*values)
    return [(args.out + suffix, text) for suffix, text in files], lines, drawing


def cmd_sample(args):
    if args.steps < 0:
        raise ValueError("--steps must be at least 0")
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"--seed must be in 0..{(1 << 64) - 1}")
    g, p, slack = _inputs(args, "partition")
    trace = recom_walk(g, args.k, slack, p, args.steps, args.seed)
    files = []
    if args.out:
        steps = [f"s {idx} " + ";".join(",".join(str(v) for v in d) for d in key)
                 for idx, key in trace.steps]
        files.append((args.out, "".join(line + "\n" for line in steps)))
    lines = [f"seed {trace.seed}", f"steps {len(trace.steps)}",
             f"halted {'yes' if trace.halted_early else 'no'}"]
    return files, lines, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="recomb",
        description="Balanced connected partitions under recombination moves.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, k=False, slack=False, dot=True):
        if k:
            p.add_argument("--k", type=int, required=True)
        if slack:
            p.add_argument("--slack", required=True, help="integer slack or 'inf'")
        if dot:
            p.add_argument("--dot", help="write a DOT rendering to this path")

    p = sub.add_parser("validate", help="check a partition against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    add_common(p, k=True, slack=True)

    p = sub.add_parser("transform", help="compute a recombination sequence")
    p.add_argument("--mode", choices=["unbounded", "hamiltonian"], required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--cycle", help="Hamilton cycle file (hamiltonian mode)")
    p.add_argument("--out", required=True)
    add_common(p, slack=True)

    p = sub.add_parser("explore", help="enumerate the configuration space")
    p.add_argument("--graph", required=True)
    add_common(p, k=True, slack=True)

    p = sub.add_parser("decide", help="reachability between two partitions")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--out", help="write the move sequence here when reachable")
    add_common(p, k=True, slack=True, dot=False)

    p = sub.add_parser("gen", help="generate instance files")
    p.add_argument("--family", choices=list(_FAMILIES), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--ncl", help="NCL instance file (ncl family)")
    p.add_argument("--out", required=True, help="output path prefix")
    add_common(p)

    p = sub.add_parser("sample", help="seeded random recombination walk")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    add_common(p, k=True, slack=True, dot=False)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        # Looked up on each call, so a replaced cmd_* (a tracer's wrapper) is seen.
        files, lines, drawing = globals()[f"cmd_{args.command}"](args)
        if getattr(args, "dot", None):
            files.append((args.dot, dot_export(*drawing)))
        _write(*files)
        print(*lines, sep="\n")
    except _Invalid as exc:
        print(exc, file=sys.stderr)
        return 2
    except (GraphFormatError, OracleCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
