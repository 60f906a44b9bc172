"""Decision procedures: attempt probabilities, the random-order walk,
greedy, and periodic clearing's pool matcher.

The walk and greedy are tested on their scalar reference steps in
tests/oracles.py, one arrival at a time; test_engine_reference checks the
engine's walk loop against those steps. State is faked with a plain list
pool so these tests exercise only the policy logic.
"""

import math
import random

import numpy as np
import pytest

from dynmatch import (
    INFINITE,
    AgentId,
    LpSolution,
    MatchingTooLargeError,
    PolicyConfig,
    PolicyKind,
    Rng,
    SolveStatus,
    attempt_probabilities,
    match_probability,
    run_simulation,
    solve_upper_bound,
)
from dynmatch import hindsight
from dynmatch.hindsight import max_weight_pool

from helpers import make_instance, one_type, random_instance
from oracles import best_matching_by_enumeration, greedy_step, online_match_step


class FakeState:
    """Minimal pool offering what the scalar steps ask of the state."""

    def __init__(self, instance, agents=()):
        self.instance = instance
        self.pool = list(agents)

    def has_available(self, type_id):
        return any(a.type_id == type_id for a in self.pool)

    def pop_oldest_available(self, type_id):
        for k, a in enumerate(self.pool):
            if a.type_id == type_id:
                return self.pool.pop(k)
        return None


def manual_solution(n, alpha_entries):
    alpha = np.zeros((n, n))
    for (x, y), a in alpha_entries.items():
        alpha[x, y] = a
    return LpSolution(
        status=SolveStatus.OPTIMAL, value=0.0, alpha=alpha, var_pairs=()
    )


class TestMatchProbability:
    def test_zero_alpha_is_zero(self):
        for lam, mu in [(1.0, 1.0), (0.3, 5.0), (2.0, INFINITE)]:
            assert match_probability(0.0, lam, mu, 0.5) == 0.0

    def test_understocked_type_gets_no_boost(self):
        # mu/lambda = 1/2 < 1, so the max() floor keeps the factor at 1
        assert match_probability(0.4, 2.0, 1.0, 0.5) == pytest.approx(0.2, abs=0)

    def test_overstocked_type_is_boosted(self):
        # mu/lambda = 5: scarce stock compensated by a bigger attempt rate
        assert match_probability(0.1, 1.0, 5.0, 0.5) == pytest.approx(0.25, abs=0)

    def test_impatient_type_defined_as_zero(self):
        assert match_probability(0.0, 1.0, INFINITE, 1.0) == 0.0

    def test_impatient_with_positive_alpha_rejected(self):
        with pytest.raises(ValueError):
            match_probability(0.2, 1.0, INFINITE, 1.0)

    def test_rounding_clamp_is_tight(self):
        # 1 + 4e-13 is within the clamp allowance and snaps to 1
        p = match_probability(0.5 * (1 + 4e-13), 1.0, 2.0, 1.0)
        assert p == 1.0
        with pytest.raises(ValueError):
            match_probability(0.6, 1.0, 2.0, 1.0)  # 1.2: infeasible, not noise

    def test_gamma_domain(self):
        for gamma in (0.0, -0.1, 1.0 + 1e-9):
            with pytest.raises(ValueError):
                match_probability(0.1, 1.0, 1.0, gamma)

    def test_feasible_solutions_need_no_clamp(self):
        # LP output must give probabilities in [0,1] by analysis, not luck
        rng = random.Random(404)
        for _ in range(300):
            inst = random_instance(rng, rng.randint(1, 4), allow_impatient=True)
            sol = solve_upper_bound(inst)
            for gamma in (0.5, 1.0):
                probs = attempt_probabilities(inst, sol, gamma)
                for row in probs:
                    for p in row:
                        assert 0.0 <= p <= 1.0


class TestOnlineStep:
    def test_empty_market_no_match_all_partners_absent(self):
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0)], {(0, 1): 1.0}
        )
        sol = solve_upper_bound(inst)
        state = FakeState(inst)
        d = online_match_step(state, AgentId(1, 0), sol, 0.5, Rng(1))
        assert not d.matched and d.partner is None
        assert len(d.attempts) == inst.n_types
        assert sorted(c.type_id for c in d.attempts) == [0, 1]

    def test_zero_alpha_never_attempts(self):
        inst = one_type()
        sol = manual_solution(1, {})
        state = FakeState(inst, [AgentId(0, 0)])
        for seed in range(50):
            d = online_match_step(state, AgentId(0, 1), sol, 0.5, Rng(seed))
            assert not d.matched
            assert all(not c.attempted for c in d.attempts)

    def test_forced_availability_quarter_rate(self):
        # lambda=mu=1, alpha=1/2, gamma=1/2: attempt probability exactly 1/4
        inst = one_type()
        sol = manual_solution(1, {(0, 0): 0.5})
        rng = Rng(313)
        trials = 100_000
        hits = 0
        for k in range(trials):
            state = FakeState(inst, [AgentId(0, 0)])
            d = online_match_step(state, AgentId(0, 1), sol, 0.5, rng)
            hits += d.matched
        assert abs(hits / trials - 0.25) < 0.005

    def test_certain_attempt_matches_fifo_oldest(self):
        # lambda=1, mu=2, alpha at cap 1/2, gamma=1: probability exactly 1
        inst = make_instance([("a", 1.0, 2.0)], {(0, 0): 1.0})
        sol = manual_solution(1, {(0, 0): 0.5})
        state = FakeState(inst, [AgentId(0, 4), AgentId(0, 9)])
        d = online_match_step(state, AgentId(0, 11), sol, 1.0, Rng(0))
        assert d.matched and d.partner == AgentId(0, 4)
        assert state.pool == [AgentId(0, 9)]

    def test_passing_check_without_partner_does_not_stop_walk(self):
        # both types certain to attempt; only b is stocked, so the decision
        # must end at b whether or not a was visited first
        inst = make_instance(
            [("a", 1.0, 2.0), ("b", 1.0, 2.0)],
            {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0},
        )
        sol = manual_solution(2, {(0, 1): 0.5, (1, 1): 0.5})
        for seed in range(40):
            state = FakeState(inst, [AgentId(1, 0)])
            d = online_match_step(state, AgentId(1, 5), sol, 1.0, Rng(seed))
            assert d.matched and d.partner == AgentId(1, 0)
            considered = [c.type_id for c in d.attempts]
            if considered[0] == 0:
                # visited the empty type first: that attempt must be on
                # record as a miss, and the walk carried on
                assert d.attempts[0].attempted
                assert considered == [0, 1]
            else:
                assert considered == [1]

    def test_never_matches_self(self):
        inst = one_type()
        sol = manual_solution(1, {(0, 0): 0.5})
        for seed in range(200):
            state = FakeState(inst, [AgentId(0, 7)])
            d = online_match_step(state, AgentId(0, 7 + 1), sol, 1.0, Rng(seed))
            if d.matched:
                assert d.partner != AgentId(0, 8)

    def test_permutation_uniformity_three_types(self):
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0), ("c", 1.0, 1.0)], {}
        )
        sol = manual_solution(3, {})
        state = FakeState(inst)
        rng = Rng(99)
        counts = {}
        trials = 100_000
        for _ in range(trials):
            d = online_match_step(state, AgentId(0, 0), sol, 0.5, rng)
            counts[tuple(d.order)] = counts.get(tuple(d.order), 0) + 1
        assert len(counts) == 6
        for order, c in counts.items():
            assert abs(c / trials - 1 / 6) < 0.01, order

    @pytest.mark.parametrize("gamma", [0.7, 1.0])
    def test_bernoulli_check_calibration(self, gamma):
        # on an empty market every type is reached, so each type's attempt
        # frequency must equal gamma * alpha * max(1, mu/lambda)
        inst = make_instance(
            [("a", 1.0, 3.0), ("b", 2.0, 1.0)], {(0, 1): 1.0, (1, 1): 1.0}
        )
        alpha = {(0, 1): 1.0 / 3.0, (1, 1): 0.25}
        sol = manual_solution(2, alpha)
        expected = {
            0: gamma * alpha[(0, 1)] * max(1.0, 3.0 / 1.0),
            1: gamma * alpha[(1, 1)] * max(1.0, 1.0 / 2.0),
        }
        state = FakeState(inst)
        rng = Rng(555)
        trials = 40_000
        hits = {0: 0, 1: 0}
        for _ in range(trials):
            d = online_match_step(state, AgentId(1, 0), sol, gamma, rng)
            for c in d.attempts:
                hits[c.type_id] += c.attempted
        for x, p in expected.items():
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(hits[x] / trials - p) <= max(3 * se, 1e-9), (x, gamma)

    def test_dimension_mismatch_rejected(self):
        inst = one_type()
        sol = manual_solution(2, {})
        with pytest.raises(ValueError):
            online_match_step(FakeState(inst), AgentId(0, 0), sol, 0.5, Rng(0))


class TestGreedyStep:
    def two_type_market(self):
        return make_instance(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0), ("c", 1.0, 1.0)],
            {(0, 2): 2.0, (1, 2): 3.0},
        )

    def test_no_partners_no_match(self):
        inst = self.two_type_market()
        d = greedy_step(FakeState(inst), AgentId(2, 0), inst.values)
        assert not d.matched

    def test_argmax_partner_wins(self):
        inst = self.two_type_market()
        state = FakeState(inst, [AgentId(0, 0), AgentId(1, 0)])
        d = greedy_step(state, AgentId(2, 0), inst.values)
        assert d.matched and d.partner == AgentId(1, 0)  # v=3 beats v=2

    def test_zero_value_partners_skipped(self):
        inst = make_instance([("a", 1.0, 1.0), ("b", 1.0, 1.0)], {})
        state = FakeState(inst, [AgentId(0, 0)])
        d = greedy_step(state, AgentId(1, 0), inst.values)
        assert not d.matched

    def test_value_tie_prefers_lowest_type_id(self):
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0), ("c", 1.0, 1.0)],
            {(0, 2): 3.0, (1, 2): 3.0},
        )
        state = FakeState(inst, [AgentId(1, 0), AgentId(0, 0)])
        d = greedy_step(state, AgentId(2, 0), inst.values)
        assert d.partner == AgentId(0, 0)

    def test_fifo_within_type(self):
        inst = one_type()
        state = FakeState(inst, [AgentId(0, 3), AgentId(0, 8)])
        d = greedy_step(state, AgentId(0, 9), inst.values)
        assert d.partner == AgentId(0, 3)


class TestPeriodicClear:
    """The clearing policy's pool matcher, on pools given as type tuples
    in (type, serial) order; the engine's clearing loop is checked against
    the arrival walk in test_engine_reference."""

    def test_two_compatible_agents(self):
        assert max_weight_pool((0, 0), one_type().values.dense()) == [(0, 1)]

    def test_triangle_takes_single_best_edge(self):
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0), ("c", 1.0, 1.0)],
            {(0, 1): 3.0, (0, 2): 2.0, (1, 2): 1.0},
        )
        # one pair only; the odd agent stays
        assert max_weight_pool((0, 1, 2), inst.values.dense()) == [(0, 1)]

    def test_cross_pairs_beat_single_fat_edge(self):
        # {a1, a2, b1, b2}: v_aa = 1.5 but two cross edges total 2.0
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0)], {(0, 0): 1.5, (0, 1): 1.0}
        )
        assert max_weight_pool((0, 0, 1, 1), inst.values.dense()) == [(0, 2), (1, 3)]
        # the brute-force enumeration oracle agrees this is the optimum
        weights = {(0, 1): 1.5, (0, 2): 1.0, (0, 3): 1.0,
                   (1, 2): 1.0, (1, 3): 1.0, (2, 3): 0.0}
        assert best_matching_by_enumeration(4, weights) == pytest.approx(2.0)

    def test_pool_over_the_state_budget_raises(self, monkeypatch):
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0)], {(0, 0): 1.5, (0, 1): 1.0}
        )
        # the pool (a, a, b, b) visits 6 count vectors (#a, #b): (2, 2),
        # (1, 2), (0, 2), (1, 1), (0, 1) and (0, 0)
        monkeypatch.setattr(hindsight, "POOL_STATE_BUDGET", 6)
        assert max_weight_pool((0, 0, 1, 1), inst.values.dense()) == [(0, 2), (1, 3)]
        monkeypatch.setattr(hindsight, "POOL_STATE_BUDGET", 5)
        with pytest.raises(MatchingTooLargeError, match="pool of 4 agents over 2 types"):
            max_weight_pool((0, 0, 1, 1), inst.values.dense())
        # in a run, the error also names the clear time
        monkeypatch.setattr(hindsight, "POOL_STATE_BUDGET", 2)
        policy = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=5.0)
        with pytest.raises(MatchingTooLargeError, match=r"at clear time \d"):
            run_simulation(one_type(lam=2.0, mu=0.2), policy, horizon=50.0, seed=3)

    def test_empty_pool_clears_nothing(self):
        assert max_weight_pool((), one_type().values.dense()) == []

    def test_matched_agents_leave_the_pool(self):
        assert max_weight_pool((0,) * 6, one_type().values.dense()) == [(0, 1), (2, 3), (4, 5)]
        # in a run, no agent is matched twice across clears
        policy = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=3.0)
        trace, _ = run_simulation(one_type(lam=2.0, mu=0.2), policy, horizon=200.0, seed=4)
        agents = [a for m in trace.matches() for a in (m.agent_a, m.agent_b)]
        assert len(agents) > 100 and len(set(agents)) == len(agents)
