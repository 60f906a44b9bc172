"""The engine reads its decisions and walks its arrivals one chunk at a time.

simulate._CHUNK arrivals make one chunk: one decision block, one pass of
the walk loop and one step of the marker post-pass. The decisions lane is
counter-indexed, so the chunk size must never change a draw, a match, a
report, a trace byte or a counter. The golden files and the event-at-a-time
replays are checked here again at chunk sizes 1 and 7 (their own modules
run them at the default size, which their small runs never cross), the
chunked decision blocks against the one-pass evaluation they replaced, and
the memory the random-order run needs beyond greedy against the horizon.
"""

import random
import tracemalloc

import numpy as np
import pytest

import test_engine_reference
import test_golden
from dynmatch import PolicyConfig, PolicyKind, generate_population, run_simulation, simulate
from dynmatch import solve_upper_bound
from golden.capture import POLICIES, POLICY_RUNS
from helpers import drawn_instance
from oracles import decision_blocks_at_once

CHUNKS = [1, 7]


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c}")
def chunk(request, monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("case", test_golden._cases("counters.json"), ids=test_golden._case_id)
def test_counters_match_golden(case, chunk):
    test_golden.test_counters_match_golden(case)


@pytest.mark.parametrize("case", test_golden._cases("runs.json"), ids=test_golden._case_id)
def test_report_and_trace_match_golden(case, chunk):
    test_golden.test_report_and_trace_match_golden(case)


@pytest.mark.parametrize("market, horizon, seed", POLICY_RUNS)
@pytest.mark.parametrize("policy", POLICIES + [{"kind": "no_op"}],
                         ids=lambda p: "-".join(map(str, p.values())))
def test_untraced_run_returns_no_trace_and_the_same_report(
    market, horizon, seed, policy, chunk
):
    test_golden.test_untraced_run_returns_no_trace_and_the_same_report(
        market, horizon, seed, policy
    )


@pytest.mark.parametrize("seed", range(30))
def test_engine_matches_scalar_steps(seed, chunk):
    test_engine_reference.test_engine_matches_scalar_steps(seed)


@pytest.mark.parametrize("seed", range(20))
def test_marker_post_pass_matches_event_replay(seed, chunk):
    test_engine_reference.test_marker_post_pass_matches_event_replay(seed)


@pytest.mark.parametrize("seed", range(20))
def test_ties_follow_the_scalar_steps(seed, chunk, monkeypatch):
    test_engine_reference.test_ties_follow_the_scalar_steps(seed, monkeypatch)


# the benchmark's wide market: 40 types, 79 decision draws per arrival,
# about 50 arrivals per unit of time
WIDE = drawn_instance(random.Random(40), 40)


@pytest.mark.parametrize("size", CHUNKS + [simulate._CHUNK])
def test_chunked_blocks_equal_the_one_pass_blocks(size, monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", size)
    solution = solve_upper_bound(WIDE)
    policy = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=0.75)
    pop = generate_population(WIDE, 300.0 if size > 100 else 1.0, 3)
    assert pop.n_agents > 3 * size  # a partial chunk after three whole ones
    perm, checks = decision_blocks_at_once(WIDE, policy, solution, pop, 3)
    chunks = list(simulate._decision_blocks(WIDE, policy, solution, pop, 3))
    assert [len(p) for p, _ in chunks[:-1]] == [size] * (len(chunks) - 1)
    np.testing.assert_array_equal(np.concatenate([p for p, _ in chunks]), perm)
    np.testing.assert_array_equal(np.concatenate([c for _, c in chunks]), checks)


def _traced_peak(policy, solution, horizon):
    tracemalloc.start()
    try:
        run_simulation(WIDE, policy, solution, horizon=horizon, seed=1, record_trace=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_online_memory_beyond_greedy_stays_flat_in_the_horizon():
    # numpy reports its buffers to tracemalloc; greedy's peak stands for
    # what every policy holds (population, queues, match records), so the
    # gap is the random-order policy's own: its decision blocks, which
    # grew as agents x types when they were evaluated for the whole run
    solution = solve_upper_bound(WIDE)
    online = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=0.5)
    greedy = PolicyConfig(kind=PolicyKind.GREEDY)
    gaps = [
        _traced_peak(online, solution, h) - _traced_peak(greedy, None, h)
        for h in (200.0, 800.0)  # about 2.4 and 9.7 chunks of arrivals
    ]
    assert gaps[1] < 1.25 * gaps[0], gaps
