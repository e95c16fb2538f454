#!/usr/bin/env python3
"""Pinned outputs of the benchmark's transform workload.

For seeds 0 and 1 this builds the transform plan of perfbench/workloads.py
(20 Hamiltonian pairs on grids 40x40 and 24x24, the same for every seed, then
30 unbounded pairs on grid 24x24 that the seed draws) in a temporary
directory, runs each op through recomb.cli.run, and hashes the 50 `.moves`
files it writes, concatenated in pool order.  Any change to a move sequence
of either transform changes a digest.

Run from the repository root (5-9 s of CPU on Python 3.11.7):

    python3 tools/transform_digests.py

Prints one line per seed and exits 0 iff every op exits 0 and both sha256
digests equal their pinned values in DIGESTS.  It only imports from
perfbench/ and writes nothing there.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

from recomb.cli import run  # noqa: E402
from workloads import TransformPlan  # noqa: E402

DIGESTS = {
    0: "8363cdc2cfcfba7ea5e036cf64becc4a7c03c6e3a3e13929b96b67891a6bec21",
    1: "572d2b607d527fa81f4b5dc900e2314d8c70228935828b477ae5a3cd83599748",
}


def digest(seed: int) -> tuple[str, int, int]:
    """(sha256 over the plan's .moves files in pool order, ops, failed ops)."""
    sha = hashlib.sha256()
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        plan = TransformPlan(seed, work)
        for op in plan.pool:
            with redirect_stdout(io.StringIO()):
                rc = run(op.argv)
            if rc != 0:
                failed += 1
                print(f"seed {seed}: exit {rc}: {' '.join(op.argv)}")
                continue
            with open(op.info["out"], "rb") as fh:
                sha.update(fh.read())
        return sha.hexdigest(), len(plan.pool), failed


def main() -> int:
    ok = True
    for seed, pinned in DIGESTS.items():
        sha, ops, failed = digest(seed)
        print(f"seed {seed}: {ops} ops, {failed} failed, sha256 {sha}")
        if sha != pinned:
            print(f"seed {seed}: sha256 differs from the pinned {pinned}")
        ok &= failed == 0 and sha == pinned
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
