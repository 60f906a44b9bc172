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

from golden.capture import counter_case, policy_case

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
