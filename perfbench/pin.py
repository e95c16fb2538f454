#!/usr/bin/env python3
"""Regenerate pinned.json: the outputs that runs at the pin seed must repeat.

Run from the repository root, only when an output is meant to change, and
review the diff: python3 perfbench/pin.py

Every output is checked structurally (replay, validity, one move per walk
step) before it is pinned.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.abspath("src"))

import checks  # noqa: E402
from recomb.cli import run  # noqa: E402
from run import HERE, PIN_SEED, call, execute  # noqa: E402
from workloads import DecidePlan, ExplorePlan, SamplePlan  # noqa: E402



def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def main() -> None:
    work = os.path.abspath(os.path.join(".bench_work", "pin"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pins = {"seed": PIN_SEED, "explore": {}, "decide": {}, "sample": {}}
    records = execute(ExplorePlan(PIN_SEED, work), run, rounds=1)[0]
    for rec in records:
        checks.explore(rec.stdout, None)
        pins["explore"][rec.op.info["instance"]] = rec.stdout.strip().split("\n")
    # Only the criterion-5 query: every other pair is built a known distance apart.
    rec = call(run, DecidePlan(PIN_SEED, work).pool[0])
    i = rec.op.info
    pins["decide"] = {"criterion5": checks.decide(rec.stdout, i["graph"], i["a"], i["b"], i["k"],
                                                  i["s"], _read(i["out"]), None)}
    records = execute(SamplePlan(PIN_SEED, work), run, rounds=1)[0]
    for rec in records:
        i = rec.op.info
        trace = _read(i["out"])
        checks.sample(rec.stdout, i["graph"], i["start"], i["k"], i["s"], i["steps"], trace, None)
        pins["sample"].setdefault(i["walk"], []).append(checks.trace_digest(trace))
    shutil.rmtree(work)
    with open(os.path.join(HERE, "pinned.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in pins.items())
                 + "\n}\n")


if __name__ == "__main__":
    main()
