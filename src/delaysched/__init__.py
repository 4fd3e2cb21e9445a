"""Link scheduling with integer propagation delays.

Builds window graphs and scheduling graphs for a discrete network model,
enumerates their (maximal) independent sets and cycles, and assembles
exact rational rate regions.
"""

from .network import (
    InvalidNetworkError,
    Network,
    apply_vertex_assignment,
    character,
    collision_support,
    gcd_reduce,
    is_binary,
    line_network,
    make_network,
    network_from_json,
    network_to_json,
    validate,
)
from .window import CapExceededError, WindowGraph, block_from_rows, block_to_rows, build_window
from .schedule import (
    PeriodicSchedule,
    active_slots,
    build_framed_schedule,
    is_collision_free_at,
    rate_vector,
    schedule_from_closed_path,
    schedule_from_json,
    schedule_to_json,
    verify,
)
from .schedgraph import (
    MaximalEdgeGraph,
    SchedulingGraph,
    build,
    build_maximal,
    has_edge,
    is_vertex,
    schedule_is_path,
)
from .cycles import (
    CycleSearchResult,
    algorithm_a,
    algorithm_b,
    build_layered,
    canonical_cycle,
    closed_path_rate,
    count_layered_paths,
    cycle_dominates,
    dominates,
    iter_layered_paths,
    johnson_cycles,
    pareto_filter,
    path_to_cycles,
)
from .region import (
    RegionDescription,
    framed_region,
    is_achievable,
    region_from_cycles,
    region_regime,
    sandwich_check,
    window_symmetric_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
