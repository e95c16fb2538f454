"""What `import recomb` and `import recomb.cli` load, and the package's names."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import recomb

# The public names of recomb, by the submodule that defines them.
PUBLIC = {
    "graphs": ("Graph", "GraphFormatError", "connected_components", "format_graph",
               "is_connected", "parse_graph"),
    "partitions": ("SLACK_INF", "MoveError", "Partition", "PartitionKey", "RecombMove",
                   "SlackBound", "ValidationReport", "apply_move", "canonical_key",
                   "enumerate_moves", "format_moves", "format_partition", "parse_moves",
                   "parse_partition", "partition_from_key", "validate"),
    "oracle": ("ConfigGraph", "OracleCapError", "SpaceStats", "WalkTrace", "build_space",
               "decide_br", "enumerate_partitions", "recom_walk", "space_stats"),
    "instances": ("arc_partition", "gen_cycle", "gen_grid", "gen_negative", "gen_path",
                  "gen_random_connected"),
    "ncl": ("NCLInstance", "Orientation", "ReductionOutput", "ReductionShapeError",
            "check_orientation", "flip_pairs", "format_map", "format_ncl", "parse_ncl",
            "partition_to_orientation", "reduce_ncl", "subdivide_ncl"),
    "sequences": ("replay",),
    "unbounded": ("transform_unbounded",),
    "hamiltonian": ("CycleOrder", "canonical_transform", "canonicalize", "fragment_count",
                    "transform_hamiltonian"),
}

LOADED = "sorted(m for m in sys.modules if m == 'recomb' or m.startswith('recomb.'))"


def fresh(code: str):
    """Run code in a new interpreter with src/ on the path; its stdout, as JSON."""
    src = os.path.dirname(os.path.dirname(recomb.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_only_the_modules_it_runs():
    pkg, cli, workloads = fresh(
        "import json, sys\n"
        f"import recomb\na = {LOADED}\n"
        f"import recomb.cli\nb = {LOADED}\n"
        f"import recomb.instances\nc = {LOADED}\n"
        "print(json.dumps([a, b, c]))\n")
    assert pkg == ["recomb"]
    assert cli == ["recomb", "recomb.cli", "recomb.graphs", "recomb.oracle",
                   "recomb.partitions", "recomb.sequences", "recomb.unbounded"]
    # perfbench/workloads.py imports recomb.instances, and perfbench/tracing.py
    # then looks up every module it wraps in sys.modules.
    traced = ("cli", "oracle", "partitions", "graphs", "hamiltonian", "unbounded", "sequences")
    assert {f"recomb.{m}" for m in traced} <= set(workloads)


def test_submodules_load_through_the_package():
    loaded = fresh(
        "import json, sys\nimport recomb\n"
        "from recomb import hamiltonian\nassert hamiltonian is sys.modules['recomb.hamiltonian']\n"
        "assert recomb.ncl is sys.modules['recomb.ncl']\n"
        "assert recomb.CycleOrder is hamiltonian.CycleOrder\n"
        f"print(json.dumps({LOADED}))\n")
    assert set(loaded) == {"recomb", "recomb.graphs", "recomb.partitions", "recomb.sequences",
                           "recomb.hamiltonian", "recomb.ncl"}


def test_public_names():
    assert sorted(recomb.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    listed = dir(recomb)
    for mod, names in PUBLIC.items():
        module = importlib.import_module(f"recomb.{mod}")
        for name in names:
            assert getattr(recomb, name) is getattr(module, name), name
            assert name in listed
    star = {}
    exec("from recomb import *", star)
    assert set(star) - {"__builtins__"} == set(recomb.__all__)
    assert recomb.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        recomb.no_such_name
