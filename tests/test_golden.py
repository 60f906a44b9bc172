"""Frozen outputs: marker-event counters, reports and traces at fixed seeds.

The files under tests/golden/ were written by tests/golden/capture.py from
the engine as it stood before the batch loop took over greedy and the
diagnostics became a post-pass over the run's decision blocks. Equality is
exact: every counter time, fraction and batch mean, every report field and
every trace byte.
"""

import json
import os

import pytest

from dynmatch import PolicyConfig, PolicyKind, parse_instance, run_simulation, solve_upper_bound
from golden.capture import MARKETS, POLICIES, POLICY_RUNS, counter_case, policy_case

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _cases(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)["cases"]


def _case_id(case):
    policy = case.get("policy")
    extra = f"gamma={case['gamma']}" if policy is None else "-".join(
        str(v) for v in policy.values()
    )
    return f"{case['market']}-{extra}-seed{case['seed']}"


@pytest.mark.parametrize("case", _cases("counters.json"), ids=_case_id)
def test_counters_match_golden(case):
    got = counter_case(case["market"], case["gamma"], case["horizon"], case["seed"])
    expected = case["counters"]
    for key in expected:
        assert got[key] == expected[key], key
    assert got.keys() == expected.keys()


@pytest.mark.parametrize("case", _cases("runs.json"), ids=_case_id)
def test_report_and_trace_match_golden(case):
    got = policy_case(case["market"], case["horizon"], case["seed"], case["policy"])
    assert got["report"] == case["report"]
    assert got["trace_csv"] == case["trace_csv"]


@pytest.mark.parametrize("market, horizon, seed", POLICY_RUNS)
@pytest.mark.parametrize("policy", POLICIES + [{"kind": "no_op"}],
                         ids=lambda p: "-".join(map(str, p.values())))
def test_untraced_run_returns_no_trace_and_the_same_report(market, horizon, seed, policy):
    instance = parse_instance(json.dumps(MARKETS[market]))
    pol = PolicyConfig(**policy)
    sol = solve_upper_bound(instance) if pol.kind is PolicyKind.ONLINE_MATCH else None
    traced, report = run_simulation(instance, pol, sol, horizon=horizon, seed=seed)
    untraced, plain = run_simulation(
        instance, pol, sol, horizon=horizon, seed=seed, record_trace=False
    )
    assert traced is not None and untraced is None
    assert plain.to_dict() == report.to_dict()
