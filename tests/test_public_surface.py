"""The names `import dynmatch` offers, frozen, and the ones it no longer does.

The scalar decision steps, the stream merger and CSV dump, the LP tableau
dump and the label lookup had no caller in the package, its scripts or
its benchmark. The steps and the shuffle live on as references in
tests/oracles.py; the rest is gone. Streams and the hindsight graph are
numpy columns with no wrapper objects, and a run without a trace returns
None instead of a trace marked incomplete. The hindsight bitmask DP per
component lives on in tests/oracles.py. A name added to or dropped
from the surface changes this list on purpose.
"""

import dataclasses

import pytest

import dynmatch
from dynmatch import diagnostics, hindsight, lp, policies, randomness, simulate

PUBLIC = [
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


def test_all_is_the_frozen_list():
    assert sorted(dynmatch.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(dynmatch, name) is not None, name


@pytest.mark.parametrize("owner, name", [
    (dynmatch, "MatchDecision"),
    (dynmatch, "greedy_step"),
    (dynmatch, "online_match_step"),
    (dynmatch, "merge_streams"),
    (dynmatch, "format_tableau"),
    (policies, "online_match_step"),
    (policies, "greedy_step"),
    (policies, "MarketStateView"),
    (policies, "Consideration"),
    (policies, "MatchDecision"),
    (policies, "NO_DECISION"),
    (randomness, "merge_streams"),
    (randomness, "write_stream_csv"),
    (randomness.Rng, "next_below"),
    (randomness.Rng, "shuffle"),
    (lp, "format_tableau"),
    (dynmatch.MarketInstance, "type_by_label"),
    (diagnostics, "MarkerObserver"),
    (randomness, "EventStream"),
    (hindsight, "GraphNode"),
    (hindsight, "_mask_matching"),
    (hindsight, "_component_problems"),
    (lp.FeasibilityReport, "violated"),
])
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_linear_program_has_no_labels_field():
    # a dataclass field without a default is no class attribute, so
    # hasattr cannot see it
    assert "labels" not in {f.name for f in dataclasses.fields(lp.LinearProgram)}


def test_event_trace_has_no_complete_field():
    assert "complete" not in {f.name for f in dataclasses.fields(simulate.EventTrace)}
