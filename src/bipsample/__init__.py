"""Uniform sampling of bipartite graphs with prescribed degrees and pinned
edges/non-edges: feasibility tests, structural analysis of the pinned set,
four Markov chains, and a brute-force verification suite."""

from .analysis import (
    AnalysisReport,
    FGraph,
    analyze,
    has_cycle_of_length,
    is_forest,
    max_matching_at_least,
)
from .chains import (
    Chain,
    ChainConfig,
    run,
)
from .core import (
    FORCED_EDGE,
    FORCED_NON_EDGE,
    FREE,
    DegreeSequence,
    FixedSet,
    Infeasible,
    Instance,
    InstanceMismatch,
    MoveSet,
    NotRealizable,
    NoUsableBound,
    PolarityConflict,
    Realization,
    TooLarge,
)
from .oracle import (
    StateGraph,
    VerificationResult,
    build_state_graph,
    check_connectivity,
    enumerate_realizations,
    run_verification,
    uniformity_report,
)
from .realizability import (
    StaticSet,
    gale_ryser_realizable,
    initial_realization,
    partition_fixed_set,
    static_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
