#!/usr/bin/env python3
"""Benchmark of the recomb command line: explore, decide, sample, transform.

Run from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Set-up generates seeded inputs under .bench_work/. After one untimed
warm-up op, the timed phase drives the CLI in-process through
recomb.cli.run(argv), one whole round of ops at a time, until another round
would overrun --seconds. Every output is then checked. Each workload runs in
a child process whose address space is limited, so a memory blow-up fails an
op instead of the machine.

Times are reported at a reference host speed: a fixed pure-Python
calibration pass runs every half second, and each op's wall time is scaled
by how much slower than Speed.REF_PASS_S the passes around it ran (see
Speed). The wall-clock figures are printed too.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of tracing.PER_LAYER with --trace 1. The traced run first
runs half of --seconds untraced, then the same ops traced, and reports the
difference as trace.overhead_frac.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore", "decide", "sample", "transform")
PIN_SEED = 0  # pinned outputs hold for this seed (and for fixed instances)
SETUP_REPS = 3
# Peak RSS of every workload is 20-100 MB; 1 GiB of address space leaves
# room for that and turns a runaway enumeration into a MemoryError.
AS_LIMIT = 1 << 30
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- parent: one child process per workload ------------------------------------

def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def run_child(workload: str, args) -> dict | None:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    for ln in lines[:-1]:
        print(ln)
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; each workload is a fresh child.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        print(f"{workload} peak_rss_mb {peak:.1f} MB")
    return result


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def metadata() -> dict:
    loc = 0
    src = os.path.join("src", "recomb")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                loc += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "src_loc": loc}


def parent(args) -> int:
    print("meta " + json.dumps(metadata()))
    if args.workload != "all":
        result = run_child(args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    # Every workload in turn; metrics are prefixed with the workload name.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_child(workload, args)
        if result is None:
            return 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(total))
    return 0


# -- child: set-up, timed phase, checks ----------------------------------------

class Record:
    """What one op did: exit code, escaped exception, stdout, wall time and
    when it ended, and that time at the reference speed (see `Speed`)."""

    def __init__(self, op, rc, error, stdout, seconds):
        self.op = op
        self.rc = rc
        self.error = error  # exception type name, or None
        self.stdout = stdout
        self.seconds = seconds
        self.end = perf_counter()
        self.ref_seconds = seconds
        self.failure = None  # set by the checks


def call(run, op) -> Record:
    out = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = run(op.argv)
        error = None
    except Exception as exc:  # every failure is counted and the run goes on
        rc, error = None, type(exc).__name__
    return Record(op, rc, error, out.getvalue(), perf_counter() - start)


class Speed:
    """How fast the host runs Python right now, from a fixed calibration pass.

    On a shared host the same op takes up to twice as long from one minute
    to the next, and a pass of pure-Python code that never touches recomb
    slows down with it. The host switches between a fast and a slow state
    within seconds, so `scale` re-times each op at REF_PASS_S per pass using
    the mean of the WINDOW passes nearest its end, which follows the share
    of time spent slow. A change to recomb moves the scaled time; the host's
    speed does not.
    """

    REF_PASS_S = 0.03  # nominal duration of one calibration pass
    EVERY_S = 0.5  # a pass at least this often during the timed phase
    WINDOW = 5

    def __init__(self):
        import workloads

        self._grow = workloads.region_grow
        self._adj = workloads.adjacency(64, workloads.grid_edges(8, 8))
        self.ends: list[float] = []
        self.passes: list[float] = []
        self.measure()

    def measure(self) -> None:
        """One pass: seeded region growing on the 8x8 grid, garbage
        collection off so that the size of the heap does not count."""
        rng = random.Random(7)
        gc.disable()
        try:
            start = perf_counter()
            for _ in range(6):
                self._grow(self._adj, 8, 7, 9, rng)
            self.passes.append(perf_counter() - start)
            self.ends.append(perf_counter())
        finally:
            gc.enable()

    def due(self) -> None:
        if perf_counter() - self.ends[-1] >= self.EVERY_S:
            self.measure()

    def factor(self, when: float) -> float:
        """REF_PASS_S over the mean of the WINDOW passes nearest time `when`."""
        after = bisect.bisect_left(self.ends, when)
        lo = max(0, min(after - self.WINDOW // 2, len(self.passes) - self.WINDOW))
        return self.REF_PASS_S / statistics.mean(self.passes[lo:lo + self.WINDOW])

    def scale(self, records: list[Record]) -> None:
        for rec in records:
            rec.ref_seconds = rec.seconds * self.factor(rec.end)


def execute(plan, run, seconds=None, rounds=None, tracer=None):
    """Whole rounds until the next would overrun `seconds`, or exactly
    `rounds` rounds. Returns (records, wall seconds, rounds run, Speed)."""
    records = []
    speed = Speed()
    start = perf_counter()
    done = 0
    while True:
        round_start = perf_counter()
        for op in plan.pool:
            if tracer:
                tracer.op = len(records)
                tracer.errors.clear()
            rec = call(run, op)
            if tracer and tracer.errors and rec.error is None:
                rec.error = tracer.errors[0]  # raised inside, caught by run()
            records.append(rec)
            speed.due()
        done += 1
        now = perf_counter()
        if rounds is not None:
            if done == rounds:
                break
        elif now - start + (now - round_start) > seconds:
            break
    wall = perf_counter() - start
    speed.measure()
    speed.scale(records)
    return records, wall, done, speed


def load_pins() -> dict:
    with open(os.path.join(HERE, "pinned.json")) as fh:
        return json.load(fh)


def check(rec: Record, seed: int, pins: dict) -> dict:
    """Set rec.failure on any failure; return facts for the layer metrics."""
    import checks  # imports recomb, so only after src/ is on the path

    op = rec.op
    info = op.info
    if rec.rc != 0:
        rec.failure = rec.error or f"exit{rec.rc}"
        return {}
    pinned = seed == PIN_SEED
    try:
        if op.kind == "explore":
            checks.explore(rec.stdout, pins["explore"][info["instance"]])
        elif op.kind == "decide":
            # Pair 0 is the fixed criterion-5 query, pinned for every seed; every
            # other pair is built DECIDE_DISTANCE moves apart, for every seed.
            length = info["distance"] or pins["decide"]["criterion5"]
            with open(info["out"]) as fh:
                checks.decide(rec.stdout, info["graph"], info["a"], info["b"], info["k"],
                              info["s"], fh.read(), length)
        elif op.kind == "sample":
            digests = pins["sample"][info["walk"]]
            digest = digests[info["index"]] if pinned and info["index"] < len(digests) else None
            with open(info["out"]) as fh:
                checks.sample(rec.stdout, info["graph"], info["start"], info["k"], info["s"],
                              info["steps"], fh.read(), digest)
        else:
            with open(info["out"]) as fh:
                moves, bound = checks.transform(rec.stdout, info["graph"], info["a"], info["b"],
                                                info["slack"], info["mode"], fh.read())
            return {"moves": moves, "bound": bound}
    except (checks.CheckError, OSError) as exc:
        rec.failure = "check"
        print(f"check failed: {' '.join(op.argv)}: {exc}", file=sys.stderr)
    return {}


def child(args) -> int:
    start = perf_counter()
    sys.path.insert(0, os.path.abspath("src"))
    from recomb.cli import run
    import_s = perf_counter() - start

    import tracing
    from workloads import PLANS

    work = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    try:
        setup = []
        setup_speed = Speed()
        for rep in range(SETUP_REPS):
            t = perf_counter()
            os.makedirs(os.path.join(work, str(rep)))
            plan = PLANS[args.workload](args.seed, os.path.join(work, str(rep)))
            setup.append(perf_counter() - t)
            setup_speed.measure()
            setup_speed.measure()
        # Scaled by the mean of all seven passes: two around a single set-up
        # caught the host's fast or slow state and spread setup_s by 30%.
        setup_wall = import_s + statistics.median(setup)
        setup_s = setup_wall * Speed.REF_PASS_S / statistics.mean(setup_speed.passes)
        # Warm-up, untimed and unchecked: the first op grows the heap and
        # fills the caches that every later op finds ready.
        call(run, plan.pool[0])
        if args.trace:
            _, wall_untraced, rounds, _ = execute(plan, run, seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records, wall, _, _ = execute(plan, run, rounds=rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(os.path.dirname(work),
                                            f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            records, wall, rounds, speed = execute(plan, run, seconds=args.seconds)
        pins = load_pins()
        facts = [check(rec, args.seed, pins) for rec in records]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.op.weight for r in records)
    failed = sum(r.op.weight for r in records if r.failure)
    by_type: dict[str, int] = {}
    for r in records:
        if r.failure:
            by_type[r.failure] = by_type.get(r.failure, 0) + 1
    latencies = [r.ref_seconds / r.op.weight for r in records for _ in range(r.op.weight)]
    print(f"{args.workload} seed {args.seed}: {len(records)} ops in {rounds} rounds, "
          f"{attempted} attempted, {failed} failed {by_type}")
    print(f"{args.workload} fail_frac {failed / attempted:.4f} ({failed}/{attempted})")
    if args.trace:
        m = tracer.metrics()
        moves = [f for f in facts if f]
        m["transform.moves_out"] = sum(f["moves"] for f in moves)
        m["transform.bound_ratio_max"] = max((f["moves"] / f["bound"] for f in moves), default=0.0)
        for kind in ("AssertionError", "MoveError", "check"):
            m[f"fail.{kind}"] = by_type.get(kind, 0)
        m["fail.other"] = sum(v for k, v in by_type.items()
                              if k not in ("AssertionError", "MoveError", "check"))
        m["trace.overhead_frac"] = wall / wall_untraced - 1
        metrics = {name: {"value": m.get(name, 0), "unit": unit}
                   for name, unit, *_ in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ok_per_s": {"value": (attempted - failed) / sum(r.ref_seconds for r in records),
                         "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        }
        passes = sorted(speed.passes)
        print(f"{args.workload} op_p50_s over {len(latencies)} ops")
        print(f"{args.workload} calibration pass {statistics.median(passes) * 1e3:.2f} ms median "
              f"({passes[0] * 1e3:.2f}-{passes[-1] * 1e3:.2f}) over {len(passes)} passes; "
              f"reference {Speed.REF_PASS_S * 1e3:g} ms")
        wall_p50 = statistics.median(r.seconds / r.op.weight for r in records
                                     for _ in range(r.op.weight))
        print(f"{args.workload} wall clock: setup {setup_wall:.6g} s, "
              f"{(attempted - failed) / wall:.6g} ok ops/s, op p50 {wall_p50:.6g} s")
    for name, v in metrics.items():
        print(f"{args.workload} {name} {v['value']:.6g} {v['unit']}")
    correct = not any(r.failure == "check" for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "recomb", "__init__.py")):
        print("error: src/recomb not found; run from the repository root", file=sys.stderr)
        return 2
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
