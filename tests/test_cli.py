import hashlib
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recomb
from recomb import cli
from recomb.cli import format_cycle, run
from recomb.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    check_edge_count,
    check_vertex_count,
    format_graph,
    parse_graph,
)
from recomb.hamiltonian import CycleOrder
from recomb.instances import gen_cycle, gen_grid
from recomb.partitions import (
    Partition,
    SlackBound,
    canonical_key,
    format_partition,
    parse_moves,
    parse_partition,
    validate,
)
from recomb.sequences import replay
from support import read, write


@pytest.fixture
def c8(tmp_path):
    g = gen_cycle(8)
    gp = tmp_path / "g.graph"
    write(gp, format_graph(g))
    pa = Partition.of([[0, 1, 2, 3], [4, 5, 6, 7]])
    pb = Partition.of([[2, 3, 4, 5], [6, 7, 0, 1]])
    ap = tmp_path / "a.part"
    bp = tmp_path / "b.part"
    write(ap, format_partition(pa, 8))
    write(bp, format_partition(pb, 8))
    cp = tmp_path / "c.cycle"
    write(cp, format_cycle(CycleOrder(tuple(range(8)))))
    return g, str(gp), str(ap), str(bp), str(cp)


def test_validate_ok(c8, capsys):
    _, gp, ap, _, _ = c8
    assert run(["validate", "--graph", gp, "--partition", ap, "--k", "2", "--slack", "1"]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_failure_exit_2(c8, capsys, tmp_path):
    _, gp, _, _, _ = c8
    bad = tmp_path / "bad.part"
    write(bad, "k 2\n0 0 0 0 0 0 0 1\n")
    assert run(["validate", "--graph", gp, "--partition", str(bad), "--k", "2", "--slack", "1"]) == 2
    assert "size" in capsys.readouterr().err


@pytest.mark.parametrize("head", ["k 99999999999", "k 9", "k 0"])
def test_validate_k_outside_labels_exit_1(c8, capsys, tmp_path, head):
    # k above the label count can only describe empty districts; a huge k
    # must be refused before its districts are allocated.
    _, gp, _, _, _ = c8
    bad = tmp_path / "bad.part"
    write(bad, head + "\n0 0 0 0 1 1 1 1\n")
    assert run(["validate", "--graph", gp, "--partition", str(bad), "--k", "2", "--slack", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "part, cycle, err",
    [
        ("k x\n0 0 0 0 1 1 1 1\n", None, "k must be an integer, got 'x'"),
        ("k 2\n0 0 0 0 1 1 one 1\n", None, "the label of vertex 6 must be an integer, got 'one'"),
        ("k 2\n0 0 0 0 1 1 1 1.0\n", None, "the label of vertex 7 must be an integer, got '1.0'"),
        (None, "0 1 2 3 4 5 6 v7\n", "the cycle's vertex at position 7 must be an integer, got 'v7'"),
    ],
    ids=["k", "label", "float-label", "cycle-vertex"],
)
def test_non_integer_fields_named_exit_1(c8, capsys, tmp_path, part, cycle, err):
    _, gp, ap, bp, cp = c8
    if part is not None:
        ap = str(tmp_path / "bad.part")
        write(ap, part)
    if cycle is not None:
        cp = str(tmp_path / "bad.cycle")
        write(cp, cycle)
    argv = ["transform", "--mode", "hamiltonian", "--graph", gp, "--from", ap, "--to", bp,
            "--cycle", cp, "--slack", "4", "--out", str(tmp_path / "m.moves")]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_usage_error_exit_1(capsys):
    assert run(["validate", "--graph", "/nonexistent", "--partition", "/x", "--k", "2", "--slack", "1"]) == 1
    assert run(["frobnicate"]) == 1


def test_transform_unbounded(c8, tmp_path, capsys):
    g, gp, ap, bp, _ = c8
    out = tmp_path / "moves.txt"
    rc = run(["transform", "--mode", "unbounded", "--graph", gp, "--from", ap,
              "--to", bp, "--slack", "inf", "--out", str(out)])
    assert rc == 0
    moves = parse_moves(read(out))
    pa = parse_partition(read(ap))
    pb = parse_partition(read(bp))
    from recomb.partitions import SLACK_INF

    end = replay(g, pa, moves, SLACK_INF)
    assert canonical_key(end) == canonical_key(pb)
    assert int(capsys.readouterr().out.split()[-1]) == len(moves)


def test_transform_hamiltonian(c8, tmp_path):
    g, gp, ap, bp, cp = c8
    out = tmp_path / "moves.txt"
    rc = run(["transform", "--mode", "hamiltonian", "--graph", gp, "--from", ap,
              "--to", bp, "--slack", "4", "--cycle", cp, "--out", str(out)])
    assert rc == 0
    moves = parse_moves(read(out))
    pa = parse_partition(read(ap))
    pb = parse_partition(read(bp))
    end = replay(g, pa, moves, SlackBound(4))
    assert canonical_key(end) == canonical_key(pb)
    # without --cycle the subcommand is a usage error
    assert run(["transform", "--mode", "hamiltonian", "--graph", gp, "--from", ap,
                "--to", bp, "--slack", "4", "--out", str(out)]) == 1


def test_transform_unbounded_refuses_finite_slack(tmp_path, capsys):
    # The unbounded transform bounds no district size: at slack 0 its first
    # move on this pair (grid 4x4, quadrants to rows) leaves one of 1 vertex.
    write(tmp_path / "g.graph", format_graph(gen_grid(4, 4)))
    quadrants = Partition.of([[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]])
    rows = Partition.of([range(r, r + 4) for r in range(0, 16, 4)])
    write(tmp_path / "a.part", format_partition(quadrants, 16))
    write(tmp_path / "b.part", format_partition(rows, 16))
    out = tmp_path / "moves.txt"
    argv = ["transform", "--mode", "unbounded", "--graph", str(tmp_path / "g.graph"),
            "--from", str(tmp_path / "a.part"), "--to", str(tmp_path / "b.part"), "--out", str(out)]
    assert run(argv + ["--slack", "0"]) == 1
    assert capsys.readouterr() == ("", "error: --mode unbounded requires --slack inf\n")
    assert not out.exists()
    assert run(argv + ["--slack", "inf"]) == 0
    capsys.readouterr()


def test_explore(c8, capsys):
    _, gp, _, _, _ = c8
    assert run(["explore", "--graph", gp, "--k", "2", "--slack", "1"]) == 0
    out = capsys.readouterr().out
    lines = dict(ln.split(maxsplit=1) for ln in out.strip().splitlines())
    assert int(lines["nodes"]) > 0
    assert int(lines["components"]) >= 1


@pytest.mark.parametrize("command, k", [(c, k) for c in ("validate", "explore", "decide", "sample")
                                         for k in ("0", "-1")])
def test_k_below_1_exit_1(c8, capsys, command, k):
    _, gp, ap, bp, _ = c8
    inputs = {"validate": ["--partition", ap], "explore": [], "decide": ["--from", ap, "--to", bp],
              "sample": ["--partition", ap, "--steps", "3", "--seed", "1"]}[command]
    assert run([command, "--graph", gp, *inputs, "--k", k, "--slack", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --k must be at least 1\n"


def test_explore_k_above_n_answers_empty_space(c8, capsys):
    _, gp, _, _, _ = c8
    assert run(["explore", "--graph", gp, "--k", "9", "--slack", "1"]) == 0
    assert capsys.readouterr().out == "nodes 0\nedges 0\ncomponents 0\ndiameters \n"


def test_decide(c8, tmp_path, capsys):
    g, gp, ap, bp, _ = c8
    out = tmp_path / "path.txt"
    assert run(["decide", "--graph", gp, "--from", ap, "--to", bp,
                "--k", "2", "--slack", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("REACHABLE")
    moves = parse_moves(read(out))
    pa = parse_partition(read(ap))
    pb = parse_partition(read(bp))
    end = replay(g, pa, moves, SlackBound(1))
    assert canonical_key(end) == canonical_key(pb)


def test_decide_unreachable_exit_0(tmp_path, capsys):
    prefix = str(tmp_path / "neg")
    assert run(["gen", "--family", "negative", "--k", "4", "--s", "1", "--out", prefix]) == 0
    capsys.readouterr()
    assert run(["decide", "--graph", prefix + ".graph", "--from", prefix + ".a.part",
                "--to", prefix + ".b.part", "--k", "4", "--slack", "0"]) == 0
    assert capsys.readouterr().out == "UNREACHABLE\n"


def test_gen_families(tmp_path, capsys):
    for family, extra in [
        ("cycle", ["--n", "8"]),
        ("path", ["--n", "5"]),
        ("grid", ["--width", "3", "--height", "3"]),
        ("random", ["--n", "8", "--m", "10", "--seed", "1"]),
    ]:
        prefix = str(tmp_path / family)
        assert run(["gen", "--family", family, *extra, "--out", prefix]) == 0
        g = parse_graph(read(prefix + ".graph"))
        assert g.n > 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "family, missing",
    [
        ("grid", "--width and --height"),
        ("cycle", "--n"),
        ("path", "--n"),
        ("random", "--n and --m"),
        ("negative", "--k and --s"),
        ("ncl", "--ncl and --s"),
    ],
)
def test_gen_missing_family_options_exit_1(tmp_path, capsys, family, missing):
    assert run(["gen", "--family", family, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --family {family} requires {missing}\n"
    assert not os.listdir(tmp_path)


def test_gen_negative_files(tmp_path):
    prefix = str(tmp_path / "neg")
    assert run(["gen", "--family", "negative", "--k", "4", "--s", "1", "--out", prefix]) == 0
    g = parse_graph(read(prefix + ".graph"))
    pa = parse_partition(read(prefix + ".a.part"))
    pb = parse_partition(read(prefix + ".b.part"))
    assert validate(g, pa, 4, SlackBound(1)).ok
    assert validate(g, pb, 4, SlackBound(1)).ok
    order = [int(x) for x in read(prefix + ".cycle").split()]
    assert sorted(order) == list(range(g.n))


def test_gen_ncl_files(tmp_path):
    from recomb.ncl import format_ncl, k4_all_blue, Orientation

    ncl, a, b = k4_all_blue()
    orig_a = Orientation(tuple(a.dirs[2 * e] for e in range(ncl.ne)))
    orig_b = Orientation(tuple(b.dirs[2 * e] for e in range(ncl.ne)))
    nclfile = tmp_path / "k4.ncl"
    write(nclfile, format_ncl(ncl, {"A": orig_a, "B": orig_b}))
    prefix = str(tmp_path / "red")
    assert run(["gen", "--family", "ncl", "--ncl", str(nclfile), "--s", "0",
                "--out", prefix]) == 0
    g = parse_graph(read(prefix + ".graph"))
    assert g.n == 700
    pa = parse_partition(read(prefix + ".a.part"))
    assert validate(g, pa, 14, SlackBound(0)).ok
    assert read(prefix + ".map.jsonl").count("\n") > 0


_HEADER = "error: first line must be 'ncl <nv> <ne>'\n"


@pytest.mark.parametrize(
    "text, err", [("ncl 3 2\nv 0 OR\n", "error: "), ("ncl 1 0\nv 5 OR\n", "error: "),
                  ("ncl -1 0\norient A\norient B\n", _HEADER),
                  ("ncl 0 0\norient A\norient B\n", "error: an NCL instance needs at least one vertex\n"),
                  ("ncl 3\n", _HEADER),
                  ("ncl 4 7\n" + "".join(f"v {v} OR\n" for v in range(4))
                   + "".join(f"e {e} {u} {v} blue\n"
                             for e, (u, v) in enumerate([(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 3)]))
                   + "".join(f"orient {x}\n" + "".join(f"{e} uv\n" for e in range(7)) for x in "AB"),
                   "error: edge 0 joins vertex 0 to itself\n"),
                  ("ncl 1 0\nv x OR\n", "error: vertex id must be an integer, got 'x'\n"),
                  ("ncl 2 1\nv 0 DEG2\nv 1 DEG2\ne one 0 1 blue\n", "error: edge id must be an integer, got 'one'\n"),
                  ("ncl 2 1\nv 0 DEG2\nv 1 DEG2\ne 0 0 1.0 blue\n",
                   "error: vertex id must be an integer, got '1.0'\n"),
                  ("ncl 2 1\nv 0 DEG2\nv 1 DEG2\ne 0 0 1 blue\norient A\ne0 uv\n",
                   "error: edge id must be an integer, got 'e0'\n"),
                  ("ncl 2 2\nv 0 DEG2\nv 1 DEG2\ne 0 0 1 green\ne 1 0 1 green\n"
                   "orient A\n0 uv\n1 vu\norient B\n0 vu\n1 uv\n",
                   "error: edge 0 (0,1) has colour 'green', not red or blue\n")],
    ids=["truncated", "id-out-of-range", "negative-count", "no-vertex", "no-edge-count", "self-loop",
         "vertex-id-not-integer", "edge-id-not-integer", "endpoint-not-integer", "orient-edge-not-integer",
         "colour-outside-red-blue"]
)
def test_gen_ncl_bad_input_exit_1(tmp_path, capsys, text, err):
    nclfile = tmp_path / "bad.ncl"
    write(nclfile, text)
    assert run(["gen", "--family", "ncl", "--ncl", str(nclfile), "--s", "0",
                "--out", str(tmp_path / "red")]) == 1
    assert capsys.readouterr().err.startswith(err)
    assert os.listdir(tmp_path) == ["bad.ncl"]


def test_gen_ncl_refuses_an_orient_block_naming_an_edge_twice(tmp_path, capsys):
    # Block B names edge 0 twice and leaves out edge 2.  A missing direction
    # reads as vu, edge 2's true one, so without the check the file parses.
    head, block_b = _K4_NCL.split("orient B\n")
    assert "0 uv\n" in block_b and "2 vu\n" in block_b
    nclfile = tmp_path / "dup.ncl"
    write(nclfile, head + "orient B\n" + block_b.replace("2 vu\n", "0 uv\n"))
    assert run(["gen", "--family", "ncl", "--ncl", str(nclfile), "--s", "0",
                "--out", str(tmp_path / "red")]) == 1
    assert capsys.readouterr().err == "error: orient block 'B' names edge 0 twice\n"
    assert os.listdir(tmp_path) == ["dup.ncl"]


def test_gen_ncl_refuses_a_repeated_orient_block(tmp_path, capsys):
    # A second block A that flips edge 3 of the first: without the check the
    # file parses and the reduction silently starts from the second A.
    block_a = _K4_NCL[_K4_NCL.index("orient A\n"):_K4_NCL.index("orient B\n")]
    assert "3 uv\n" in block_a
    nclfile = tmp_path / "twice.ncl"
    write(nclfile, _K4_NCL + block_a.replace("3 uv\n", "3 vu\n"))
    assert run(["gen", "--family", "ncl", "--ncl", str(nclfile), "--s", "0",
                "--out", str(tmp_path / "red")]) == 1
    assert capsys.readouterr().err == "error: orient block 'A' appears twice\n"
    assert os.listdir(tmp_path) == ["twice.ncl"]


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--graph", "{graph}", "--k", "1", "--slack", "0"],
        ["gen", "--family", "cycle", "--n", "99999999999"],
        ["gen", "--family", "path", "--n", "99999999999"],
        ["gen", "--family", "random", "--n", "99999999999", "--m", "99999999999"],
        ["gen", "--family", "grid", "--width", "99999999999", "--height", "1"],
        ["gen", "--family", "grid", "--width", "1024", "--height", "1025"],
        ["gen", "--family", "negative", "--k", "99999999999", "--s", "1"],
        ["gen", "--family", "negative", "--k", "4", "--s", "99999999999"],
        ["gen", "--family", "ncl", "--ncl", "{k4}", "--s", "99999999999"],
        ["gen", "--family", "ncl", "--ncl", "{ncl}", "--s", "0"],
    ],
)
def test_huge_vertex_counts_are_refused_up_front(tmp_path, capsys, argv):
    paths = {"graph": tmp_path / "huge.graph", "k4": tmp_path / "k4.ncl", "ncl": tmp_path / "huge.ncl"}
    write(paths["graph"], "p 99999999999 0\n")
    write(paths["k4"], _K4_NCL)
    write(paths["ncl"], "ncl 99999999999 0\n")
    argv = [a.format(**paths) for a in argv] + (["--out", str(tmp_path / "x")] if argv[0] == "gen" else [])
    assert run(argv) == 1
    assert "vertices exceed the ceiling of 1048576" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["huge.graph", "huge.ncl", "k4.ncl"]


def test_vertex_ceiling_is_inclusive():
    check_vertex_count(MAX_VERTICES)
    with pytest.raises(ValueError, match="ceiling"):
        check_vertex_count(MAX_VERTICES + 1)


def test_huge_edge_counts_are_refused_up_front(tmp_path, capsys):
    argv = ["gen", "--family", "random", "--n", "1048576", "--m", "400000000000",
            "--out", str(tmp_path / "x")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edges exceed the ceiling of 4194304" in err
    assert os.listdir(tmp_path) == []
    check_edge_count(MAX_EDGES)
    with pytest.raises(ValueError, match="ceiling"):
        check_edge_count(MAX_EDGES + 1)


def test_module_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(recomb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "recomb.cli", "--help"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: recomb")


def test_sample_deterministic(c8, tmp_path, capsys):
    _, gp, ap, _, _ = c8
    out1 = tmp_path / "w1.txt"
    out2 = tmp_path / "w2.txt"
    for out in (out1, out2):
        assert run(["sample", "--graph", gp, "--partition", ap, "--k", "2",
                    "--slack", "1", "--steps", "10", "--seed", "42",
                    "--out", str(out)]) == 0
    assert read(out1) == read(out2)
    capsys.readouterr()


def test_sample_negative_steps_exit_1(c8, tmp_path, capsys):
    _, gp, ap, _, _ = c8
    out = tmp_path / "w.txt"
    assert run(["sample", "--graph", gp, "--partition", ap, "--k", "2",
                "--slack", "1", "--steps", "-3", "--seed", "42", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "error: --steps must be at least 0\n"
    assert not out.exists()


def test_dot_export(c8, tmp_path):
    g, gp, ap, _, _ = c8
    dot = tmp_path / "g.dot"
    assert run(["validate", "--graph", gp, "--partition", ap, "--k", "2",
                "--slack", "1", "--dot", str(dot)]) == 0
    text = read(dot)
    assert text.startswith("graph G {")
    assert "0 -- 1;" in text
    assert "fillcolor" in text


@pytest.mark.parametrize("command", ["decide", "sample"])
def test_dot_refused_where_nothing_is_rendered(c8, tmp_path, capsys, command):
    _, gp, ap, bp, _ = c8
    inputs = (["--from", ap, "--to", bp] if command == "decide"
              else ["--partition", ap, "--steps", "3", "--seed", "1"])
    before = sorted(os.listdir(tmp_path))
    assert run([command, "--graph", gp, *inputs, "--k", "2", "--slack", "1",
                "--out", str(tmp_path / "o.txt"), "--dot", str(tmp_path / "g.dot")]) == 1
    assert "unrecognized arguments: --dot" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["validate", "explore", "transform", "decide", "sample"])
def test_failed_write_prints_no_result(c8, tmp_path, capsys, command):
    # Each command writes its files before it prints: a path in a missing
    # directory gives exit 1, the error on stderr and nothing on stdout.
    _, gp, ap, bp, cp = c8
    missing = str(tmp_path / "missing" / "o.txt")
    argv = {
        "validate": ["--partition", ap, "--k", "2", "--slack", "1", "--dot", missing],
        "explore": ["--k", "2", "--slack", "1", "--dot", missing],
        "transform": ["--mode", "hamiltonian", "--from", ap, "--to", bp, "--slack", "4", "--cycle", cp,
                      "--out", str(tmp_path / "moves.txt"), "--dot", missing],
        "decide": ["--from", ap, "--to", bp, "--k", "2", "--slack", "1", "--out", missing],
        "sample": ["--partition", ap, "--k", "2", "--slack", "1", "--steps", "3", "--seed", "1",
                   "--out", missing],
    }[command]
    assert run([command, "--graph", gp, *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "o.txt" in err


def test_failed_transform_write_changes_no_file(c8, tmp_path, capsys):
    # --out is writable and --dot is not: the moves file keeps its old text,
    # and no new file is left beside it.
    _, gp, ap, bp, cp = c8
    moves = tmp_path / "m.moves"
    write(moves, "old\n")
    before = sorted(os.listdir(tmp_path))
    assert run(["transform", "--mode", "hamiltonian", "--graph", gp, "--from", ap, "--to", bp,
                "--slack", "4", "--cycle", cp, "--out", str(moves),
                "--dot", str(tmp_path / "nodir" / "x.dot")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "x.dot" in err
    assert read(moves) == "old\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_failed_gen_write_creates_no_file(tmp_path, capsys):
    # gen --family negative writes four files and the DOT rendering: with an
    # unwritable --dot it writes none of them.
    assert run(["gen", "--family", "negative", "--k", "4", "--s", "1", "--out", str(tmp_path / "neg"),
                "--dot", str(tmp_path / "nodir" / "x.dot")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "x.dot" in err
    assert os.listdir(tmp_path) == []
    # A directory in place of a file is refused before any file is replaced.
    os.mkdir(tmp_path / "neg.cycle")
    assert run(["gen", "--family", "negative", "--k", "4", "--s", "1", "--out", str(tmp_path / "neg")]) == 1
    assert "neg.cycle" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["neg.cycle"]
    assert run(["gen", "--family", "negative", "--k", "4", "--s", "1", "--out", str(tmp_path / "x"),
                "--dot", str(tmp_path / "x.dot")]) == 0
    assert sorted(os.listdir(tmp_path)) == ["neg.cycle", "x.a.part", "x.b.part", "x.cycle", "x.dot",
                                            "x.graph"]
    capsys.readouterr()


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64) + 7])
def test_sample_seed_out_of_range_exit_1(c8, tmp_path, capsys, seed):
    # The walk reads a seed as 64 bits, so a seed outside 0..2^64-1 would
    # walk the walk of another seed under a different `seed` line.
    _, gp, ap, _, _ = c8
    out = tmp_path / "w.txt"
    assert run(["sample", "--graph", gp, "--partition", ap, "--k", "2", "--slack", "1",
                "--steps", "3", "--seed", str(seed), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: --seed must be in 0..18446744073709551615\n")
    assert not out.exists()
    assert run(["sample", "--graph", gp, "--partition", ap, "--k", "2", "--slack", "1",
                "--steps", "3", "--seed", str((1 << 64) - 1)]) == 0
    assert capsys.readouterr().out.startswith("seed 18446744073709551615\n")


def test_roundtrip_byte_exact(c8):
    _, gp, ap, _, _ = c8
    from recomb.graphs import format_graph, parse_graph

    assert format_graph(parse_graph(read(gp))) == read(gp)
    assert format_partition(parse_partition(read(ap)), 8) == read(ap)


def test_node_cap_env_respected(c8, monkeypatch, capsys):
    _, gp, ap, bp, _ = c8
    monkeypatch.setenv("BCP_NODE_CAP", "1")
    for inputs in (["explore"], ["decide", "--from", ap, "--to", bp]):
        assert run([*inputs, "--graph", gp, "--k", "2", "--slack", "1"]) == 1
        assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explore", "decide"])
@pytest.mark.parametrize("value", ["-5", "abc"])
def test_bad_node_cap_env_exit_1(c8, monkeypatch, capsys, command, value):
    _, gp, ap, bp, _ = c8
    inputs = {"explore": [], "decide": ["--from", ap, "--to", bp]}[command]
    monkeypatch.setenv("BCP_NODE_CAP", value)
    assert run([command, "--graph", gp, *inputs, "--k", "2", "--slack", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: BCP_NODE_CAP must be a non-negative integer, got '{value}'\n"


@pytest.mark.parametrize("slack", ["1.5", "nan", "", "-1"])
def test_bad_slack_exit_1(c8, capsys, slack):
    _, gp, _, _, _ = c8
    assert run(["explore", "--graph", gp, "--k", "2", "--slack", slack]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: slack must be an integer >= 0 or 'inf', got '{slack}'\n"


def test_run_looks_up_the_command_at_call_time(c8, monkeypatch, capsys):
    # The parser is built once per process, so run() finds cmd_<command> by
    # name on every call: a wrapper put in after a first run() is still used.
    _, gp, ap, bp, _ = c8
    argv = ["decide", "--graph", gp, "--from", ap, "--to", bp, "--k", "2", "--slack", "1"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "REACHABLE 1\n"
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_decide", lambda args: seen.append(args.to) or ([], ["stub"], None))
    assert run(argv) == 0
    assert capsys.readouterr() == ("stub\n", "")
    assert seen == [bp]


# -- every subcommand pinned byte for byte ------------------------------------

_VIOLATIONS = ("district 0 size 7, bound |2*7-8| <= 2*1 fails\n"
               "district 1 size 1, bound |2*1-8| <= 2*1 fails\n")
# argv, exit code, stdout, stderr, and the first 16 hex digits of the sha256
# of each file written.  {bad} has districts of 7 and 1 vertices on C8.
_PINNED = {
    "validate": ("validate --graph {g} --partition {a} --k 2 --slack 1 --dot {out}/v.dot",
                 0, "OK\n", "", {"v.dot": "764945b4370ad6d9"}),
    "transform-unbounded": (
        "transform --mode unbounded --graph {g} --from {a} --to {b} --slack inf "
        "--out {out}/m.txt --dot {out}/t.dot",
        0, "3\n", "", {"m.txt": "f0c93735458c192d", "t.dot": "4dfbcfccf5611b53"}),
    "transform-hamiltonian": (
        "transform --mode hamiltonian --graph {g} --from {a} --to {b} --slack 4 --cycle {c} "
        "--out {out}/m.txt --dot {out}/t.dot",
        0, "2\n", "", {"m.txt": "1c9a3af557bbb35d", "t.dot": "4dfbcfccf5611b53"}),
    "explore": ("explore --graph {g} --k 2 --slack 1 --dot {out}/e.dot",
                0, "nodes 12\nedges 66\ncomponents 1\ndiameters 1\n", "",
                {"e.dot": "ae5c3d44d1c3c062"}),
    "decide": ("decide --graph {g} --from {a} --to {b} --k 2 --slack 1 --out {out}/p.txt",
               0, "REACHABLE 1\n", "", {"p.txt": "adf16f83174f6fc0"}),
    "sample": ("sample --graph {g} --partition {a} --k 2 --slack 1 --steps 10 --seed 7 "
               "--out {out}/w.txt",
               0, "seed 7\nsteps 10\nhalted no\n", "", {"w.txt": "a37fb9ccabf34f8f"}),
    "gen-cycle": ("gen --family cycle --n 8 --out {out}/x --dot {out}/x.dot",
                  0, "n 8\n", "", {"x.dot": "ae5c3d44d1c3c062", "x.graph": "cc79bc7b912a1f27"}),
    "gen-path": ("gen --family path --n 5 --out {out}/x --dot {out}/x.dot",
                 0, "n 5\n", "", {"x.dot": "780aff05dc13959e", "x.graph": "3ef43d98d760ca52"}),
    "gen-grid": ("gen --family grid --width 3 --height 2 --out {out}/x --dot {out}/x.dot",
                 0, "n 6\n", "", {"x.dot": "60d5db08cd99b749", "x.graph": "5e7e1066b3a65c3a"}),
    "gen-random": ("gen --family random --n 8 --m 10 --seed 1 --out {out}/x --dot {out}/x.dot",
                   0, "n 8\n", "", {"x.dot": "53f7785050a1dbdd", "x.graph": "26931c41e9a09952"}),
    "gen-negative": ("gen --family negative --k 4 --s 1 --out {out}/x --dot {out}/x.dot",
                     0, "n 20\n", "",
                     {"x.a.part": "1c07771522ac682e", "x.b.part": "ba5f2f936ac21c88",
                      "x.cycle": "2880176daa713761", "x.dot": "79cf6849402ea0c1",
                      "x.graph": "6cf982d8c5bceddd"}),
    "gen-ncl": ("gen --family ncl --ncl {ncl} --s 0 --out {out}/x --dot {out}/x.dot",
                0, "n 700\nk 14\n", "",
                {"x.a.part": "0ff4aa4ab089e1f9", "x.b.part": "176b349914383003",
                 "x.dot": "b28a6eb9aac608b2", "x.graph": "8e0f6d959c8d179c",
                 "x.map.jsonl": "6918252ef7a51900"}),
    "gen-ncl-and": ("gen --family ncl --ncl {and} --s 0 --out {out}/x --dot {out}/x.dot",
                    0, "n 550\nk 11\n", "",
                    {"x.a.part": "d8fd4598df828ccf", "x.b.part": "e320929206cd5286",
                     "x.dot": "ced95b93b1c6327f", "x.graph": "17f298f8719aaf0b",
                     "x.map.jsonl": "2635b0ffeae8529d"}),
    "validate-invalid": ("validate --graph {g} --partition {bad} --k 2 --slack 1 --dot {out}/v.dot",
                         2, "", _VIOLATIONS, {}),
    "sample-invalid": ("sample --graph {g} --partition {bad} --k 2 --slack 1 --steps 10 --seed 7 "
                       "--out {out}/w.txt",
                       2, "", _VIOLATIONS, {}),
    "decide-invalid-from": ("decide --graph {g} --from {bad} --to {b} --k 2 --slack 1 --out {out}/p.txt",
                            2, "", "invalid 'from' partition:\n" + _VIOLATIONS, {}),
    "decide-invalid-to": ("decide --graph {g} --from {a} --to {bad} --k 2 --slack 1 --out {out}/p.txt",
                          2, "", "invalid 'to' partition:\n" + _VIOLATIONS, {}),
    "transform-invalid-from": (
        "transform --mode unbounded --graph {g} --from {bad} --to {b} --slack 1 --out {out}/m.txt",
        2, "", "invalid 'from' partition:\n" + _VIOLATIONS, {}),
    "transform-invalid-to": (
        "transform --mode hamiltonian --graph {g} --from {a} --to {bad} --slack 1 --cycle {c} "
        "--out {out}/m.txt",
        2, "", "invalid 'to' partition:\n" + _VIOLATIONS, {}),
    "transform-k-mismatch": (
        "transform --mode unbounded --graph {g} --from {a} --to {k4} --slack inf --out {out}/m.txt",
        1, "", "error: mismatched k: 2 vs 4\n", {}),
    "transform-same-slack-0": (
        "transform --mode hamiltonian --graph {g} --from {a} --to {a} --slack 0 --cycle {c} "
        "--out {out}/m.txt",
        1, "", "error: slack 0 is below n/k = 4\n", {}),
    "transform-no-cycle": (
        "transform --mode hamiltonian --graph {g} --from {a} --to {b} --slack 4 --out {out}/m.txt",
        1, "", "error: --mode hamiltonian requires --cycle; it applies the bounded-slack "
        "transformation along a Hamilton cycle with s >= n/k\n", {}),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_cli_pinned(c8, tmp_path, capsys, case):
    argv, code, stdout, stderr, files = _PINNED[case]
    _, gp, ap, bp, cp = c8
    paths = {"g": gp, "a": ap, "b": bp, "c": cp, "out": tmp_path / "out"}
    for name, text in (("bad", "k 2\n0 0 0 0 0 0 0 1\n"), ("k4", "k 4\n0 0 1 1 2 2 3 3\n"),
                       ("ncl", _K4_NCL), ("and", _AND_NCL)):
        paths[name] = tmp_path / name
        write(paths[name], text)
    os.mkdir(paths["out"])
    assert run([word.format(**paths) for word in argv.split()]) == code
    assert capsys.readouterr() == (stdout, stderr)
    written = {f: hashlib.sha256(read(paths["out"] / f).encode()).hexdigest()[:16]
               for f in os.listdir(paths["out"])}
    assert written == files


def test_readme_cli_examples_run(c8, tmp_path, monkeypatch, capsys):
    # Every `recomb ...` line of the README's CLI block, as written, on C8 files.
    readme = read(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"))
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1].replace("\\\n", " ")
    lines = [ln for ln in block.splitlines() if ln.startswith("recomb ")]
    assert len(lines) == 9
    _, _, ap, _, _ = c8
    write(tmp_path / "p.part", read(ap))
    write(tmp_path / "k4.ncl", _K4_NCL)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


# -- fuzzing every subcommand through run() -----------------------------------

_WORDS = ["p", "e", "k", "m", "|", "v", "ncl", "orient", "A", "B", "OR", "AND", "red",
          "blue", "uv", "vu", "inf", "x", "1.5", "-0", ""]
_ints = st.integers(-2, 7)
_token = st.one_of(_ints.map(str), st.sampled_from(_WORDS))
# A vertex count past graphs.MAX_VERTICES, refused before anything is built.
_HUGE = "99999999999"


def _k4_ncl():
    from recomb.ncl import Orientation, format_ncl, k4_all_blue

    ncl, a, b = k4_all_blue()
    orient = {name: Orientation(tuple(o.dirs[2 * e] for e in range(ncl.ne)))
              for name, o in (("A", a), ("B", b))}
    return format_ncl(ncl, orient)


_K4_NCL = _k4_ncl()
# K4 with a red triangle on AND vertices 0-2 and blue edges to OR vertex 3;
# orientation B flips edge 0 of A.
_AND_NCL = ("ncl 4 6\nv 0 AND\nv 1 AND\nv 2 AND\nv 3 OR\ne 0 0 1 red\ne 1 0 2 red\ne 2 1 2 red\n"
            "e 3 0 3 blue\ne 4 1 3 blue\ne 5 2 3 blue\norient A\n0 uv\n1 uv\n2 uv\n3 vu\n4 vu\n5 uv\n"
            "orient B\n0 vu\n1 uv\n2 uv\n3 vu\n4 vu\n5 uv\n")


_TWO_DEG2 = "ncl 2 1\nv 0 DEG2\nv 1 DEG2\ne 0 0 1 blue\n"


@pytest.mark.parametrize(
    "text, args, err",
    [("ncl 1 0\nv 0\n", [], "expected vertex line, got 'v 0'"),
     ("ncl 1 0\nx 0 OR\n", [], "expected vertex line, got 'x 0 OR'"),
     ("ncl 2 1\nv 0 DEG2\nv 1 DEG2\nf 0 0 1 blue\n", [], "expected edge line, got 'f 0 0 1 blue'"),
     ("ncl 2 1\nv 0 DEG2\nv 1 DEG2\ne 0 0 1\n", [], "expected edge line, got 'e 0 0 1'"),
     (_TWO_DEG2 + "block A\n0 uv\n", [], "expected orient block, got 'block A'"),
     (_TWO_DEG2 + "orient A\n", [], "unexpected end of file: expected direction line"),
     (_TWO_DEG2 + "orient A\n0 up\n", [], "bad direction 'up'"),
     ("ncl 2 0\nv 0 OR\nv 0 OR\n", [], "missing vertex or edge declarations"),
     (_K4_NCL.split("orient B\n")[0], [], "NCL file must contain 'orient A' and 'orient B' blocks"),
     (_K4_NCL.replace("orient A\n", "orient C\n"), [],
      "NCL file must contain 'orient A' and 'orient B' blocks"),
     (_K4_NCL, ["--s", "-1"], "slack must be >= 0"),
     (_K4_NCL.split("orient A\n")[0] + "orient A\n" + "".join(f"{e} uv\n" for e in range(6))
      + "orient B" + _K4_NCL.split("orient B")[1], [], "orientation A does not satisfy the constraints")],
    ids=["vertex-fields", "vertex-tag", "edge-tag", "edge-fields", "orient-tag", "orient-truncated",
         "direction", "undeclared-vertex", "no-block-b", "no-block-a", "negative-slack", "unsatisfied"],
)
def test_gen_ncl_names_the_fault_in_one_line_exit_1(tmp_path, capsys, text, args, err):
    nclfile = tmp_path / "bad.ncl"
    write(nclfile, text)
    argv = ["gen", "--family", "ncl", "--ncl", str(nclfile), "--s", "0", "--out", str(tmp_path / "red")]
    assert run(argv + args) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert os.listdir(tmp_path) == ["bad.ncl"]


def test_gen_ncl_accepts_declared_degree_2_vertices(tmp_path, capsys):
    # The K4 with edge (0,1) subdivided by a declared DEG2 vertex 4: the
    # reduction subdivides every edge again, 12 + 14 = 16 districts.
    text = ("ncl 5 7\n" + "".join(f"v {v} OR\n" for v in range(4)) + "v 4 DEG2\n"
            + "".join(f"e {e} {u} {v} blue\n"
                      for e, (u, v) in enumerate([(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
    for name, flipped in (("A", ()), ("B", (4,))):
        heads = ["uv", "uv", "uv", "vu", "uv", "uv", "uv"]
        text += f"orient {name}\n" + "".join(
            f"{e} {('vu' if d == 'uv' else 'uv') if e in flipped else d}\n" for e, d in enumerate(heads))
    nclfile = tmp_path / "deg2.ncl"
    write(nclfile, text)
    prefix = str(tmp_path / "red")
    assert run(["gen", "--family", "ncl", "--ncl", str(nclfile), "--s", "0", "--out", prefix]) == 0
    assert capsys.readouterr() == ("n 800\nk 16\n", "")
    g = parse_graph(read(prefix + ".graph"))
    for side in "ab":
        assert validate(g, parse_partition(read(f"{prefix}.{side}.part")), 16, SlackBound(0)).ok


def test_cycle_file_of_the_wrong_length_exit_1(c8, capsys, tmp_path):
    _, gp, ap, bp, _ = c8
    for order in ("0 1 2 3 4 5 6\n", "0 1 2 3 4 5 6 7 0\n"):
        cp = str(tmp_path / "short.cycle")
        write(cp, order)
        argv = ["transform", "--mode", "hamiltonian", "--graph", gp, "--from", ap, "--to", bp,
                "--cycle", cp, "--slack", "4", "--out", str(tmp_path / "m.moves")]
        assert run(argv) == 1
        count = len(order.split())
        assert capsys.readouterr() == ("", f"error: cycle file lists {count} vertices, graph has 8\n")
        assert not os.path.exists(tmp_path / "m.moves")


@st.composite
def _instance(draw):
    """Well-formed texts of one small instance: graph (a path, or a cycle,
    plus chords, sometimes declaring a huge vertex count), partition,
    Hamilton cycle of the cycle and moves, and the K4 NCL file."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    edges = {(v, v + 1) for v in range(n - 1)}
    if n >= 3 and draw(st.booleans()):
        edges.add((0, n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3))) if pairs else set()
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    moves = draw(st.lists(st.tuples(st.integers(0, k), st.integers(0, k), st.sets(st.integers(0, n)),
                                    st.sets(st.integers(0, n))), max_size=3))
    declared = draw(st.sampled_from([n] * 7 + [_HUGE]))
    texts = {
        "graph": "\n".join([f"p {declared} {len(edges)}"] + [f"e {u} {v}" for u, v in sorted(edges)]),
        "partition": f"k {k}\n" + " ".join(map(str, labels)),
        "cycle": " ".join(map(str, draw(st.permutations(range(n))))),
        "moves": "\n".join(f"m {i} {j} | {' '.join(map(str, a))} | {' '.join(map(str, b))}"
                           for i, j, a, b in moves),
        "ncl": _K4_NCL,
    }
    return n, k, {name: text.rstrip("\n") + "\n" for name, text in texts.items()}


@st.composite
def _mutated(draw, text):
    """text unchanged, or with one line dropped, repeated or replaced, one
    token replaced, or cut short."""
    lines = text.split("\n")
    how = draw(st.integers(0, 5))
    i = draw(st.integers(0, len(lines) - 1))
    if how == 1:
        del lines[i]
    elif how == 2:
        lines.insert(i, lines[i])
    elif how == 3:
        lines[i] = " ".join(draw(st.lists(_token, max_size=5)))
    elif how == 4:
        words = lines[i].split() or [""]
        words[draw(st.integers(0, len(words) - 1))] = draw(_token)
        lines[i] = " ".join(words)
    text = "\n".join(lines)
    return text[: draw(st.integers(0, len(text)))] if how == 5 else text


_FILES = {
    "validate": (("--graph", "graph"), ("--partition", "partition")),
    "transform": (("--graph", "graph"), ("--from", "partition"), ("--to", "partition"),
                  ("--cycle", "cycle")),
    "explore": (("--graph", "graph"),),
    "decide": (("--graph", "graph"), ("--from", "partition"), ("--to", "partition")),
    "gen": (("--ncl", "ncl"),),
    "sample": (("--graph", "graph"), ("--partition", "partition")),
}
_GEN = {"cycle": ("--n",), "path": ("--n",), "grid": ("--width", "--height"),
        "random": ("--n", "--m", "--seed"), "negative": ("--k", "--s"), "ncl": ("--s",)}
_FLAWS = ("leave-out", "wrong-format", "mutate", "bad-number", "bad-choice")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_instance(), st.data())
def test_run_exits_0_1_or_2_on_malformed_inputs(fuzz_dir, instance, data):
    # Every subcommand, on small instances with up to two flaws: an option
    # left out, a file of another format (moves among them), a mangled file,
    # a bad number or a bad choice.  Each call exits 0, 1 or 2 and raises
    # nothing, many times in one process.
    n, k, texts = instance
    flaws = data.draw(st.sets(st.sampled_from(_FLAWS), max_size=2))
    command = data.draw(st.sampled_from(sorted(_FILES)))
    files = {option: texts[kind] for option, kind in _FILES[command]}
    if command == "gen":
        family = data.draw(st.sampled_from(sorted(_GEN)))
        numbers = {option: data.draw(st.integers(1, 5)) for option in _GEN[family]}
        if family == "negative":
            numbers["--k"] += 3
        if family != "ncl":
            files = {}
        choices = {"--family": family}
    else:
        numbers = {"--k": k} if command != "transform" else {}
        if command == "sample":
            numbers.update({"--steps": data.draw(st.integers(0, 5)), "--seed": data.draw(_ints)})
        choices = {"--slack": data.draw(st.sampled_from(["inf", *map(str, range(n + 1))]))}
        if command == "transform":
            choices["--mode"] = data.draw(st.sampled_from(["unbounded", "hamiltonian"]))
    if "wrong-format" in flaws and files:
        option = data.draw(st.sampled_from(sorted(files)))
        files[option] = texts[data.draw(st.sampled_from(sorted(texts)))]
    if "mutate" in flaws and files:
        option = data.draw(st.sampled_from(sorted(files)))
        files[option] = data.draw(_mutated(files[option]))
    if "bad-number" in flaws and numbers:
        option = data.draw(st.sampled_from(sorted(numbers)))
        # A huge --steps is a well-formed request for a long walk.
        huge = [_HUGE] if option != "--steps" else []
        numbers[option] = data.draw(st.one_of(_ints, st.sampled_from(["x", "1.5", *huge])))
    if "bad-choice" in flaws:
        option = data.draw(st.sampled_from(sorted(choices)))
        choices[option] = data.draw(st.sampled_from(["x", "-1", "1.5", ""]))
    if "leave-out" in flaws:
        gone = data.draw(st.sampled_from(sorted([*files, *numbers, *choices])))
        for options in (files, numbers, choices):
            options.pop(gone, None)
    argv = [command]
    for i, (option, text) in enumerate(sorted(files.items())):
        write(fuzz_dir / f"in{i}", text)
        argv += [option, str(fuzz_dir / f"in{i}")]
    for option, value in [*numbers.items(), *choices.items()]:
        argv += [option, str(value)]
    if command in ("transform", "gen") or (command in ("decide", "sample") and data.draw(st.booleans())):
        argv += ["--out", str(fuzz_dir / "out")]
    assert run(argv) in (0, 1, 2)
