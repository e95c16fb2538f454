"""Balanced connected partitions under recombination moves."""

from .graphs import (
    Graph,
    GraphFormatError,
    connected_components,
    format_graph,
    is_connected,
    parse_graph,
)
from .partitions import (
    SLACK_INF,
    MoveError,
    Partition,
    PartitionKey,
    RecombMove,
    SlackBound,
    ValidationReport,
    apply_move,
    canonical_key,
    enumerate_moves,
    format_moves,
    format_partition,
    parse_moves,
    parse_partition,
    partition_from_key,
    validate,
)
from .oracle import (
    ConfigGraph,
    OracleCapError,
    SpaceStats,
    WalkTrace,
    build_space,
    decide_br,
    enumerate_partitions,
    recom_walk,
    space_stats,
)
from .instances import (
    arc_partition,
    gen_cycle,
    gen_grid,
    gen_negative,
    gen_path,
    gen_random_connected,
)
from .ncl import (
    NCLInstance,
    Orientation,
    ReductionOutput,
    ReductionShapeError,
    check_orientation,
    flip_pairs,
    format_map,
    format_ncl,
    parse_ncl,
    partition_to_orientation,
    reduce_ncl,
    subdivide_ncl,
)
from .sequences import replay
from .unbounded import transform_unbounded
from .hamiltonian import (
    CycleOrder,
    canonical_transform,
    canonicalize,
    fragment_count,
    transform_hamiltonian,
)

__version__ = "0.1.0"
