"""Balanced connected partitions under recombination moves.

Every public name is loaded from its submodule on first use, through a
PEP 562 module ``__getattr__``, so ``import recomb`` runs no submodule and
each ``recomb.cli`` command loads only the modules it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it provides.
_EXPORTS = {
    "graphs": "Graph GraphFormatError connected_components format_graph "
              "is_connected parse_graph",
    "partitions": "SLACK_INF MoveError Partition PartitionKey RecombMove "
                  "SlackBound ValidationReport apply_move canonical_key "
                  "enumerate_moves format_moves format_partition parse_moves "
                  "parse_partition partition_from_key validate",
    "oracle": "ConfigGraph OracleCapError SpaceStats WalkTrace build_space "
              "decide_br enumerate_partitions recom_walk space_stats",
    "instances": "arc_partition gen_cycle gen_grid gen_negative gen_path "
                 "gen_random_connected",
    "ncl": "NCLInstance Orientation ReductionOutput ReductionShapeError "
           "check_orientation flip_pairs format_map format_ncl parse_ncl "
           "partition_to_orientation reduce_ncl subdivide_ncl",
    "sequences": "replay",
    "unbounded": "transform_unbounded",
    "hamiltonian": "CycleOrder canonical_transform canonicalize fragment_count "
                   "transform_hamiltonian",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # Not cached here, so a name read through the package is always the one
    # its submodule holds at that moment.
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
