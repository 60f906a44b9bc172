"""Dynamic matching markets: LP upper bound, online policies, benchmarks.

Agents of finitely many types arrive by Poisson processes, wait for an
exponentially distributed patience (possibly zero), and can be matched in
pairs for type-dependent value. The package builds the fluid LP whose
optimum bounds any policy's long-run value rate, simulates online policies
against exact sampled arrival streams, computes the hindsight-optimal
matching on realized populations, and instruments the online policy's
internal events to check its guarantees empirically.
"""

from .diagnostics import (
    BoundReport,
    BoundRow,
    EventCounters,
    check_rate_bounds,
    instrument_z_events,
    merge_counters,
)
from .hindsight import (
    CompatibilityGraph,
    MatchingTooLargeError,
    build_compatibility_graph,
    hindsight_value_estimate,
    max_weight_matching_exact,
)
from .lp import (
    FeasibilityReport,
    LinearProgram,
    LpSolution,
    SolveStatus,
    build_lp,
    check_feasibility,
    solve_lp,
    solve_upper_bound,
)
from .market import (
    INFINITE,
    AgentId,
    AgentType,
    InstanceFormatError,
    MarketInstance,
    MatchValueMatrix,
    Violation,
    emit_instance,
    load_instance,
    parse_instance,
    save_instance,
    validate_instance,
)
from .policies import (
    PolicyConfig,
    PolicyKind,
    attempt_probabilities,
    match_probability,
)
from .randomness import (
    Rng,
    derive_seed,
    sample_exponential,
    sample_homogeneous_stream,
    thin_stream,
)
from .simulate import (
    EventTrace,
    SimulationReport,
    estimate_rates,
    generate_population,
    presence_frequency,
    read_trace_csv,
    replay_check,
    run_simulation,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AgentId",
    "AgentType",
    "BoundReport",
    "BoundRow",
    "CompatibilityGraph",
    "EventCounters",
    "EventTrace",
    "FeasibilityReport",
    "INFINITE",
    "InstanceFormatError",
    "LinearProgram",
    "LpSolution",
    "MarketInstance",
    "MatchValueMatrix",
    "MatchingTooLargeError",
    "PolicyConfig",
    "PolicyKind",
    "Rng",
    "SimulationReport",
    "SolveStatus",
    "Violation",
    "attempt_probabilities",
    "build_compatibility_graph",
    "build_lp",
    "check_feasibility",
    "check_rate_bounds",
    "derive_seed",
    "emit_instance",
    "estimate_rates",
    "generate_population",
    "hindsight_value_estimate",
    "instrument_z_events",
    "load_instance",
    "match_probability",
    "max_weight_matching_exact",
    "merge_counters",
    "parse_instance",
    "presence_frequency",
    "read_trace_csv",
    "replay_check",
    "run_simulation",
    "sample_exponential",
    "sample_homogeneous_stream",
    "save_instance",
    "solve_lp",
    "solve_upper_bound",
    "thin_stream",
    "validate_instance",
    "write_trace_csv",
]
