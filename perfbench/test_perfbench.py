"""Self-test of the benchmark's checker and tracer.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
Each check must accept a correct output and reject a tampered one.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import _graph_text, _label_text, grid_edges  # noqa: E402

import recomb.oracle  # noqa: E402
from recomb.cli import run  # noqa: E402


def _cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run(list(argv))
    return rc, out.getvalue()


@pytest.fixture
def grid(tmp_path):
    """A 4x2 grid with two partitions into k=2 districts."""
    g = tmp_path / "g.graph"
    g.write_text(_graph_text(8, grid_edges(4, 2)))
    a = tmp_path / "a.part"
    a.write_text(_label_text([0, 0, 1, 1, 0, 0, 1, 1], 2))  # columns
    b = tmp_path / "b.part"
    b.write_text(_label_text([0, 0, 0, 0, 1, 1, 1, 1], 2))  # rows
    return tmp_path, str(g), str(a), str(b)


def test_transform_check_rejects_tampered_moves(grid):
    tmp, g, a, b = grid
    out = str(tmp / "moves")
    rc, stdout = _cli("transform", "--mode", "unbounded", "--graph", g, "--from", a,
                      "--to", b, "--slack", "inf", "--out", out)
    assert rc == 0
    text = open(out).read()
    assert checks.transform(stdout, g, a, b, "inf", "unbounded", text)[0] >= 1
    lines = text.split("\n")
    head, part_a, part_b = lines[0].split(" | ")
    a_vs = part_a.split()
    moved = f"{head} | {' '.join(a_vs[:-1])} | {part_b} {a_vs[-1]}"  # one vertex moved
    tampered = "\n".join([moved] + lines[1:])
    for bad in ("", tampered, text + text):
        with pytest.raises(checks.CheckError):
            checks.transform(stdout, g, a, b, "inf", "unbounded", bad)


def test_decide_check_rejects_wrong_length(grid):
    tmp, g, a, b = grid
    out = str(tmp / "path")
    rc, stdout = _cli("decide", "--graph", g, "--from", a, "--to", b, "--k", "2",
                      "--slack", "0", "--out", out)
    assert rc == 0 and stdout.startswith("REACHABLE")
    text = open(out).read()
    length = checks.decide(stdout, g, a, b, 2, 0, text, None)
    assert checks.decide(stdout, g, a, b, 2, 0, text, length) == length
    with pytest.raises(checks.CheckError):
        checks.decide(stdout, g, a, b, 2, 0, text, length + 1)
    with pytest.raises(checks.CheckError):
        checks.decide("UNREACHABLE\n", g, a, b, 2, 0, text, None)


def test_explore_check_rejects_wrong_stats():
    pinned = ["nodes 433", "edges 3710", "components 1", "diameters 5"]
    checks.explore("\n".join(pinned) + "\n", pinned)
    with pytest.raises(checks.CheckError):
        checks.explore("nodes 433\nedges 3711\ncomponents 1\ndiameters 5\n", pinned)
    with pytest.raises(checks.CheckError):
        checks.explore("nodes 4\nedges 3\ncomponents 2\ndiameters 5\n", None)


def test_sample_check_rejects_wrong_digest_and_bad_steps(grid):
    tmp, g, a, _ = grid
    out = str(tmp / "trace")
    rc, stdout = _cli("sample", "--graph", g, "--partition", a, "--k", "2", "--slack", "1",
                      "--steps", "6", "--seed", "3", "--out", out)
    assert rc == 0
    text = open(out).read()
    digest = checks.trace_digest(text)
    checks.sample(stdout, g, a, 2, 1, 6, text, digest)
    with pytest.raises(checks.CheckError):
        checks.sample(stdout, g, a, 2, 1, 6, text, "0" * 16)
    # Repeating a step is zero recombinations away from the previous one.
    lines = text.split("\n")
    repeated = "\n".join([lines[0], lines[0]] + lines[2:])
    with pytest.raises(checks.CheckError):
        checks.sample(stdout, g, a, 2, 1, 6, repeated, None)


def test_tracer_counts_and_restores(grid):
    tmp, g, a, b = grid
    orig = recomb.oracle.enumerate_moves
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc, _ = _cli("decide", "--graph", g, "--from", a, "--to", b, "--k", "2", "--slack", "0")
    finally:
        tracer.uninstall()
    assert rc == 0
    assert recomb.oracle.enumerate_moves is orig
    m = tracer.metrics()
    assert m["partitions.enumerate_moves.calls"] >= 1
    assert m["oracle.decide_br.states_visited"] >= 2
    assert "oracle.enumerate_partitions.calls" not in m  # absent means 0
    assert 0 <= m["oracle.decide_br.self_s"] <= m["oracle.decide_br.s"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [row[:3] for row in tracing.PER_LAYER]
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "ok_per_s", "op_p50_s", "peak_rss_mb"}
