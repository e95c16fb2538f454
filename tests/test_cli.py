import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recomb
from recomb import cli
from recomb.cli import dot_export, format_cycle, run
from recomb.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    check_edge_count,
    check_vertex_count,
    format_graph,
    parse_graph,
)
from recomb.hamiltonian import CycleOrder
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


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def read(path):
    with open(path) as fh:
        return fh.read()


@pytest.fixture
def c8(tmp_path):
    g = Graph(8, {(i, (i + 1) % 8) for i in range(8)})
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


def test_explore(c8, capsys):
    _, gp, _, _, _ = c8
    assert run(["explore", "--graph", gp, "--k", "2", "--slack", "1"]) == 0
    out = capsys.readouterr().out
    lines = dict(ln.split(maxsplit=1) for ln in out.strip().splitlines())
    assert int(lines["nodes"]) > 0
    assert int(lines["components"]) >= 1


@pytest.mark.parametrize("k", ["0", "-1"])
def test_explore_k_below_1_exit_1(c8, capsys, k):
    _, gp, _, _, _ = c8
    assert run(["explore", "--graph", gp, "--k", k, "--slack", "1"]) == 1
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


@pytest.mark.parametrize(
    "text", ["ncl 3 2\nv 0 OR\n", "ncl 1 0\nv 5 OR\n"], ids=["truncated", "id-out-of-range"]
)
def test_gen_ncl_bad_input_exit_1(tmp_path, capsys, text):
    nclfile = tmp_path / "bad.ncl"
    write(nclfile, text)
    assert run(["gen", "--family", "ncl", "--ncl", str(nclfile), "--s", "0",
                "--out", str(tmp_path / "red")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_roundtrip_byte_exact(c8):
    _, gp, ap, _, _ = c8
    from recomb.graphs import format_graph, parse_graph

    assert format_graph(parse_graph(read(gp))) == read(gp)
    assert format_partition(parse_partition(read(ap)), 8) == read(ap)


def test_node_cap_env_respected(c8, monkeypatch, capsys):
    _, gp, _, _, _ = c8
    monkeypatch.setenv("BCP_NODE_CAP", "1")
    assert run(["explore", "--graph", gp, "--k", "2", "--slack", "1"]) == 1
    assert "cap" in capsys.readouterr().err


def test_run_looks_up_the_command_at_call_time(c8, monkeypatch):
    # The parser is built once per process, so run() finds cmd_<command> by
    # name on every call: a wrapper put in after a first run() is still used.
    _, gp, ap, bp, _ = c8
    argv = ["decide", "--graph", gp, "--from", ap, "--to", bp, "--k", "2", "--slack", "1"]
    assert run(argv) == 0
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_decide", lambda args: seen.append(args.to) or 2)
    assert run(argv) == 2
    assert seen == [bp]


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
