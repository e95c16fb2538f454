"""Byte-level pins of transform output, of one explore run and of the
enumeration layers.

The move sequences are deterministic functions of the inputs; these hashes
catch any change in which moves the transforms choose or in their order.
The explore pin covers the component labelling of `build_space`, which
fixes the order of the `diameters` line.  The enumeration pins cover every
partition of a 20-vertex grid and the ordered move lists along a walk on
the 8x8 grid, past the oracle's vertex cap.
"""

import hashlib

import pytest

from recomb.cli import run
from recomb.hamiltonian import CycleOrder, transform_hamiltonian
from recomb.instances import gen_grid
from recomb.oracle import enumerate_partitions, recom_walk
from recomb.partitions import Partition, SlackBound, canonical_key, enumerate_moves, format_moves
from recomb.unbounded import transform_unbounded

GRID = gen_grid(6, 4)
# Boustrophedon over columns 1..5, back along column 0.
SERPENTINE = CycleOrder((0, 1, 2, 3, 4, 5, 11, 10, 9, 8, 7, 13, 14, 15, 16, 17, 23, 22, 21, 20, 19, 18, 12, 6))


def labelled(labels: str) -> Partition:
    k = max(int(c) for c in labels) + 1
    return Partition.of([[v for v, c in enumerate(labels) if int(c) == i] for i in range(k)])


def digest(moves) -> str:
    return hashlib.sha256(format_moves(moves).encode()).hexdigest()


@pytest.mark.parametrize(
    "a, b, count, sha",
    [
        ("223334333444013544003544", "111133114333244445222240", 9,
         "05ef0008eae0fa986529774574a435c3e2ed83488ab5b6b435667edb6c3ba169"),
        ("112400113400113550113550", "111004511004552224555324", 10,
         "24a6ceec0e9bf8a5606ba496823c981705e78c71cc2a6b3ef74656b769966b49"),
        ("000333100334111552111112", "441122445502000000330000", 11,
         "0c436db0a1e12faa21c813918acde97c35aaf9bd54c9a7bef67b4c6983ed6f7f"),
    ],
)
def test_transform_unbounded_golden(a, b, count, sha):
    moves = transform_unbounded(GRID, labelled(a), labelled(b))
    assert len(moves) == count
    assert digest(moves) == sha


# Together these run step_light, both branches of step_average (chord split
# and chain) and steps_singleton.
@pytest.mark.parametrize(
    "a, b, count, sha",
    [
        ("000022333222333322331122", "111133111333213333220333", 19,
         "196f935ba4d196ef98ddb3205d8ac0f330804a2689e91295b0617a24bfe8272b"),
        ("000221000111000111000133", "220011230011233111333111", 13,
         "3b665e36939873b025689c09373cfbf1b1ebe5176fd2ca3af7a55bf92ce21c1f"),
        ("001333001133001133000222", "111133113333222220220000", 14,
         "e8cae9e126bef860674c39772facaefdf683d334115f2b8cb9d1f6421478637f"),
        ("222111222000223000223300", "332000322000331100333111", 11,
         "0fc314df2618f0e0272d52947158333488bc0b7399e06d2ee08d9ce996bde4c3"),
    ],
)
def test_transform_hamiltonian_golden(a, b, count, sha):
    moves = transform_hamiltonian(GRID, SERPENTINE, labelled(a), labelled(b), SlackBound(6))
    assert len(moves) == count
    assert digest(moves) == sha


def test_explore_negative_golden(tmp_path, capsys):
    prefix = str(tmp_path / "neg")
    assert run(["gen", "--family", "negative", "--k", "4", "--s", "1", "--out", prefix]) == 0
    capsys.readouterr()
    assert run(["explore", "--graph", prefix + ".graph", "--k", "4", "--slack", "0"]) == 0
    assert capsys.readouterr().out == "nodes 58\nedges 186\ncomponents 2\ndiameters 5 2\n"


def test_enumerate_partitions_grid5x4_golden():
    parts = enumerate_partitions(gen_grid(5, 4), 4, SlackBound(1))
    lines = (" | ".join(" ".join(map(str, d)) for d in canonical_key(p)) for p in parts)
    assert len(parts) == 9459
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == (
        "e00e62e872636081bffec5694f39befb034abcbfb48fea7598c1101aad6b3d75"
    )


def test_walk_move_lists_golden():
    # The move lists of ten states of a seeded walk on the 8x8 grid, k=8,
    # s=1, from its 4x2 blocks: each list in order, concatenated.
    g = gen_grid(8, 8)
    slack = SlackBound(1)
    cur = Partition.of([[v for v in range(64) if (v // 16) * 2 + v % 8 // 4 == d] for d in range(8)])
    trace = recom_walk(g, 8, slack, cur, 9, 2024)
    moves = enumerate_moves(g, cur, slack)
    texts = [format_moves(moves)]
    for idx, key in trace.steps:
        m = moves[idx]
        cur = cur.replace(m.i, m.j, m.new_i, m.new_j)
        assert canonical_key(cur) == key
        moves = enumerate_moves(g, cur, slack)
        texts.append(format_moves(moves))
    assert [t.count("\n") for t in texts[:3]] == [1322, 1089, 692]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "f6b6fdbd5d9e13aead506ea0b1f0205a36b9fd32ae8322ffdafc1dc1a96473f6"
    )
