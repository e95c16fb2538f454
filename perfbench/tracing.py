"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced public function of `recomb` with a
wrapper in every module namespace that holds it, so calls made through
`recomb.cli`, `recomb.oracle`, `recomb.partitions` and so on are all seen.
Layer entries become spans; hot helpers only bump counters and timers.
`uninstall()` puts the originals back.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, metric name, record spans). Hot helpers are called up
# to ~500k times per run, so they are folded into counters instead of spans.
TRACED = (
    ("cli", "cmd_explore", "cli.explore", True),
    ("cli", "cmd_decide", "cli.decide", True),
    ("cli", "cmd_sample", "cli.sample", True),
    ("cli", "cmd_transform", "cli.transform", True),
    ("oracle", "enumerate_partitions", "oracle.enumerate_partitions", True),
    ("oracle", "build_space", "oracle.build_space", True),
    ("oracle", "space_stats", "oracle.space_stats", True),
    ("oracle", "decide_br", "oracle.decide_br", True),
    ("oracle", "recom_walk", "oracle.recom_walk", True),
    ("partitions", "enumerate_moves", "partitions.enumerate_moves", True),
    ("partitions", "canonical_key", "partitions.canonical_key", False),
    ("partitions", "validate", "partitions.validate", False),
    ("partitions", "apply_move", "partitions.apply_move", False),
    ("graphs", "is_connected", "graphs.is_connected", False),
    ("graphs", "block_cut", "graphs.block_cut", True),
    ("graphs", "spanning_tree", "graphs.spanning_tree", True),
    ("hamiltonian", "transform_hamiltonian", "hamiltonian.transform_hamiltonian", True),
    ("hamiltonian", "canonicalize", "hamiltonian.canonicalize", True),
    ("hamiltonian", "canonical_transform", "hamiltonian.canonical_transform", True),
    ("hamiltonian", "step_light", "hamiltonian.step_light", True),
    ("hamiltonian", "step_average", "hamiltonian.step_average", True),
    ("hamiltonian", "steps_singleton", "hamiltonian.steps_singleton", True),
    ("hamiltonian", "fragment_count", "hamiltonian.fragment_count", True),
    ("unbounded", "transform_unbounded", "unbounded.transform_unbounded", True),
    ("sequences", "resolve_moves", "sequences.resolve_moves", True),
    ("sequences", "inverted_abstract", "sequences.inverted_abstract", True),
)
# Wrapped only where the CLI looks them up: reading inputs and writing outputs.
CLI_IO = (
    ("parse_graph", "cli.parse"),
    ("parse_partition", "cli.parse"),
    ("format_moves", "cli.format"),
    ("_write", "cli.format"),
)
MOVES = "partitions.moves_generated"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.stack: list[list] = []  # [span id, time spent in children]
        self.op = 0
        self._next_id = 0
        self.errors: list[str] = []  # exception types raised out of cli.cmd_*
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def _timed(self, name: str, fn, span: bool):
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if name.startswith("cli."):
                    self.errors.append(type(exc).__name__)
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                if span:
                    self.spans.append((frame[0], parent, self.op, name, start, end))

        return wrapper

    def _layer(self, key: str, fn):
        """fn plus the counters its layer metrics need; timing wraps this."""
        c = self.counts
        if key in ("partitions.enumerate_moves", "oracle.enumerate_partitions"):
            counter = MOVES if key == "partitions.enumerate_moves" else "oracle.partitions_found"

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                c[counter] += len(result)
                return result

            return counted
        if key in ("oracle.build_space", "oracle.decide_br", "oracle.recom_walk"):
            # Moves generated and enumerate_moves calls made inside this call.
            def with_moves(*args, **kwargs):
                moves, calls = c[MOVES], self.calls["partitions.enumerate_moves"]
                if key == "oracle.decide_br":
                    kwargs["visit_hook"] = self._counting_hook(kwargs.get("visit_hook"))
                result = fn(*args, **kwargs)
                c[f"{key}.moves"] += c[MOVES] - moves
                c[f"{key}.move_calls"] += self.calls["partitions.enumerate_moves"] - calls
                if key == "oracle.build_space":
                    c["oracle.space_edges"] += len(result.edges)
                return result

            return with_moves
        return fn

    def _counting_hook(self, inner):
        """A decide_br visit_hook that counts visited states, then calls inner."""

        def hook(p):
            self.counts["oracle.decide_br.states_visited"] += 1
            if inner:
                inner(p)

        return hook

    # -- install / uninstall ----------------------------------------------
    def _replace(self, orig, new) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "recomb" and not name.startswith("recomb."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, new)

    def install(self) -> None:
        for mod, attr, name, span in TRACED:
            orig = getattr(sys.modules[f"recomb.{mod}"], attr)
            self._replace(orig, self._timed(name, self._layer(name, orig), span))
        cli = sys.modules["recomb.cli"]
        for attr, name in CLI_IO:
            orig = getattr(cli, attr)
            self._saved.append((cli, attr, orig))
            setattr(cli, attr, self._timed(name, orig, False))
        from recomb.partitions import Partition

        orig = Partition.district_of
        self._saved.append((Partition, "district_of", orig))

        def district_of(p, v):
            self.counts["partitions.Partition.district_of.calls"] += 1
            return orig(p, v)

        Partition.district_of = district_of

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._saved):
            setattr(obj, attr, value)
        self._saved.clear()

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every layer figure, keyed as in PER_LAYER (and more); absent means 0."""
        out: dict[str, float] = dict(self.counts)
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out["partitions.moves_per_call"] = ratio(c[MOVES], self.calls["partitions.enumerate_moves"])
        out["oracle.build_space.edge_yield"] = ratio(2 * c["oracle.space_edges"],
                                                     c["oracle.build_space.moves"])
        out["oracle.decide_br.new_state_ratio"] = ratio(c["oracle.decide_br.states_visited"],
                                                        c["oracle.decide_br.moves"])
        out["oracle.recom_walk.moves_available_mean"] = ratio(c["oracle.recom_walk.moves"],
                                                              c["oracle.recom_walk.move_calls"])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")


# The per-layer metrics the traced run reports: (name, unit, better, the
# end-to-end metric it should move, on which workloads). BENCHMARK.json lists
# the same names, units and directions; its schema has no room for the rest.
PER_LAYER = (
    ("oracle.enumerate_partitions.calls", "count", "lower", "ok_per_s", "explore"),
    ("oracle.enumerate_partitions.s", "s", "lower", "ok_per_s", "explore"),
    ("oracle.enumerate_partitions.self_s", "s", "lower", "ok_per_s", "explore"),
    ("oracle.partitions_found", "count", "higher", "ok_per_s", "explore"),
    ("oracle.space_stats.s", "s", "lower", "ok_per_s", "explore"),
    ("oracle.space_stats.self_s", "s", "lower", "ok_per_s", "explore"),
    ("oracle.build_space.self_s", "s", "lower", "ok_per_s peak_rss_mb", "explore"),
    ("oracle.space_edges", "count", "higher", "ok_per_s peak_rss_mb", "explore"),
    ("oracle.build_space.edge_yield", "ratio", "higher", "ok_per_s peak_rss_mb", "explore"),
    ("partitions.enumerate_moves.calls", "count", "lower", "ok_per_s", "explore decide sample"),
    ("partitions.enumerate_moves.s", "s", "lower", "ok_per_s", "explore decide sample"),
    ("partitions.enumerate_moves.self_s", "s", "lower", "ok_per_s", "explore decide sample"),
    ("partitions.moves_generated", "count", "lower", "ok_per_s peak_rss_mb", "explore decide sample"),
    ("partitions.moves_per_call", "moves/call", "lower", "ok_per_s peak_rss_mb", "explore decide sample"),
    ("oracle.decide_br.s", "s", "lower", "ok_per_s op_p50_s peak_rss_mb", "decide"),
    ("oracle.decide_br.self_s", "s", "lower", "ok_per_s op_p50_s peak_rss_mb", "decide"),
    ("oracle.decide_br.states_visited", "count", "lower", "ok_per_s op_p50_s peak_rss_mb", "decide"),
    ("oracle.decide_br.new_state_ratio", "ratio", "higher", "ok_per_s op_p50_s", "decide"),
    ("oracle.recom_walk.s", "s", "lower", "ok_per_s", "sample"),
    ("oracle.recom_walk.self_s", "s", "lower", "ok_per_s", "sample"),
    ("oracle.recom_walk.moves_available_mean", "moves", "higher", "ok_per_s", "sample"),
    ("partitions.canonical_key.calls", "count", "lower", "ok_per_s", "decide explore"),
    ("partitions.canonical_key.s", "s", "lower", "ok_per_s", "decide explore"),
    ("partitions.validate.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("partitions.validate.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("partitions.apply_move.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("partitions.apply_move.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("partitions.Partition.district_of.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("graphs.is_connected.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("graphs.is_connected.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.canonicalize.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.canonicalize.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.canonicalize.self_s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.canonical_transform.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.step_light.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.step_average.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.steps_singleton.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.fragment_count.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("hamiltonian.fragment_count.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("unbounded.transform_unbounded.s", "s", "lower", "ok_per_s", "transform"),
    ("unbounded.transform_unbounded.self_s", "s", "lower", "ok_per_s", "transform"),
    ("graphs.block_cut.calls", "count", "lower", "ok_per_s", "transform"),
    ("graphs.block_cut.s", "s", "lower", "ok_per_s", "transform"),
    ("graphs.spanning_tree.calls", "count", "lower", "ok_per_s", "transform"),
    ("graphs.spanning_tree.s", "s", "lower", "ok_per_s", "transform"),
    ("sequences.resolve_moves.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("sequences.resolve_moves.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("sequences.resolve_moves.self_s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("sequences.inverted_abstract.calls", "count", "lower", "ok_per_s op_p50_s", "transform"),
    ("sequences.inverted_abstract.s", "s", "lower", "ok_per_s op_p50_s", "transform"),
    ("cli.parse.s", "s", "lower", "ok_per_s", "explore decide sample transform"),
    ("cli.format.s", "s", "lower", "ok_per_s", "explore decide sample transform"),
    ("transform.moves_out", "count", "lower", "fail_frac", "transform"),
    ("transform.bound_ratio_max", "ratio", "lower", "fail_frac", "transform"),
    ("fail.AssertionError", "count", "lower", "fail_frac", "transform"),
    ("fail.MoveError", "count", "lower", "fail_frac", "transform"),
    ("fail.other", "count", "lower", "fail_frac", "explore decide sample transform"),
    ("fail.check", "count", "lower", "fail_frac", "explore decide sample transform"),
    ("trace.overhead_frac", "ratio", "lower", "", "explore decide sample transform"),
)
