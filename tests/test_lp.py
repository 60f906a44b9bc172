"""Rate upper-bound LP: builder, simplex solver, feasibility checker.

The solver is cross-checked against tests/oracles.py, which enumerates
polytope vertices instead of pivoting, so the two routes share no code;
against the dense cap/box-row tableau it replaced, for the vertex; and
against scipy's HiGHS where scipy is installed.
"""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch import (
    SolveStatus,
    build_lp,
    check_feasibility,
    parse_instance,
    solve_lp,
    solve_upper_bound,
)
from golden.capture import MARKETS

from helpers import (
    departs_of,
    dense_values,
    drawn_instance,
    fixed_suite,
    make_instance,
    one_type,
    patient_impatient,
    random_instance,
    rates_of,
)
from oracles import build_lp_dense, polytope_upper_bound, solve_lp_dense


def oracle_value(instance):
    return polytope_upper_bound(
        rates_of(instance), departs_of(instance), dense_values(instance)
    )


class TestAnalyticCases:
    def test_single_type_balanced(self):
        # lambda = mu = v = 1: cap allows alpha <= 1 but flow charges the
        # self pair twice, so 2 * alpha <= 1 binds and the optimum is 1/2
        sol = solve_upper_bound(one_type(1.0, 1.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.value - 0.5) <= 1e-8

    def test_patient_plus_impatient_cross_pair(self):
        # impatient arrivals can always be caught by the patient stock:
        # alpha = 1 on the cross pair, worth the full unit arrival rate
        sol = solve_upper_bound(patient_impatient(1.0, 1.0, 1.0, 1.0))
        assert abs(sol.value - 1.0) <= 1e-8
        assert abs(sol.alpha[0, 1] - 1.0) <= 1e-8
        # the impatient type's own row is pinned to zero
        assert sol.alpha[1].max() == 0.0

    def test_hand_worked_two_type_market(self):
        # a: lam=mu=1, b: lam=0.8 impatient; v_aa=0.5, v_ab=1.
        # Best: alpha_ab=1 earns 0.8 and uses 0.8 of a's unit flow budget;
        # the leftover 0.2 allows 2*alpha_aa*1 <= 0.2, earning 0.1*0.5.
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 0.8, None)], {(0, 0): 0.5, (0, 1): 1.0}
        )
        sol = solve_upper_bound(inst)
        assert abs(sol.value - 0.85) <= 1e-8
        assert oracle_value(inst) == pytest.approx(0.85, abs=1e-9)

    def test_all_impatient_market_is_worthless(self):
        inst = make_instance(
            [("x", 1.0, None), ("y", 2.0, None)], {(0, 1): 1.0}
        )
        sol = solve_upper_bound(inst)
        assert sol.value == 0.0
        assert sol.alpha.max() == 0.0
        assert oracle_value(inst) == 0.0

    def test_zero_values_zero_optimum(self):
        inst = make_instance([("a", 1.0, 1.0), ("b", 1.0, 2.0)], {})
        assert solve_upper_bound(inst).value == 0.0


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_patient_instances(self, seed):
        rng = random.Random(1000 + seed)
        inst = random_instance(rng, rng.randint(1, 3))
        sol = solve_upper_bound(inst)
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.value - oracle_value(inst)) <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_patience_instances(self, seed):
        rng = random.Random(2000 + seed)
        inst = random_instance(rng, rng.randint(1, 3), allow_impatient=True)
        assert abs(solve_upper_bound(inst).value - oracle_value(inst)) <= 1e-8

    def test_wider_rate_spread(self):
        rng = random.Random(3)
        for _ in range(6):
            inst = random_instance(rng, 3, rate_lo=0.05, rate_hi=10.0)
            assert abs(solve_upper_bound(inst).value - oracle_value(inst)) <= 1e-8


class TestSolutionShape:
    def test_alpha_within_box_and_caps(self):
        rng = random.Random(7)
        for _ in range(10):
            inst = random_instance(rng, 3, allow_impatient=True)
            sol = solve_upper_bound(inst)
            a = sol.alpha
            assert (a >= -1e-9).all() and (a <= 1.0 + 1e-9).all()
            for x, t in enumerate(inst.types):
                if t.impatient:
                    assert a[x].max() == 0.0
                else:
                    cap = t.arrival_rate / t.departure_rate
                    assert (a[x] <= cap + 1e-8).all()

    def test_flow_constraints_hold(self):
        rng = random.Random(8)
        lam = None
        for _ in range(10):
            inst = random_instance(rng, 3, allow_impatient=True)
            sol = solve_upper_bound(inst)
            lam = np.array(rates_of(inst))
            a = sol.alpha
            # x as the waiting side consumes partner arrivals at a[x] . lam;
            # x as the arriving side consumes lam[x] * sum_y a[y, x]
            used = a @ lam + lam * a.sum(axis=0)
            assert (used <= lam + 1e-8).all()

    def test_objective_recomputes_from_alpha(self):
        rng = random.Random(9)
        for _ in range(10):
            inst = random_instance(rng, 3)
            sol = solve_upper_bound(inst)
            lam = np.array(rates_of(inst))
            v = np.array(dense_values(inst))
            assert sol.value == pytest.approx(
                float((v * sol.alpha * lam[None, :]).sum()), abs=1e-9
            )

    def test_check_feasibility_accepts_solver_output(self):
        inst = random_instance(random.Random(10), 3, allow_impatient=True)
        sol = solve_upper_bound(inst)
        report = check_feasibility(inst, sol)
        assert report.ok
        assert report.worst_violation <= report.tolerance

    def test_check_feasibility_flags_corruption(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        bad = type(sol)(
            status=sol.status,
            value=sol.value,
            alpha=sol.alpha + 0.7,  # blows through the flow constraint
            var_pairs=sol.var_pairs,
        )
        report = check_feasibility(inst, bad)
        assert not report.ok
        assert report.worst_violation > 1e-3


class TestScalingLaws:
    def test_value_scaling(self):
        # multiplying every match value by c scales the optimum by c
        rng = random.Random(11)
        base = random_instance(rng, 3)
        scaled = make_instance(
            [(t.label, t.arrival_rate, t.departure_rate) for t in base.types],
            {k: 3.0 * v for k, v in base.values.items()},
        )
        assert solve_upper_bound(scaled).value == pytest.approx(
            3.0 * solve_upper_bound(base).value, rel=1e-10
        )

    def test_time_scaling(self):
        # speeding the whole market up by c (all rates) scales value rate by c
        rng = random.Random(12)
        base = random_instance(rng, 2)
        fast = make_instance(
            [(t.label, 2.0 * t.arrival_rate, 2.0 * t.departure_rate)
             for t in base.types],
            dict(base.values.items()),
        )
        assert solve_upper_bound(fast).value == pytest.approx(
            2.0 * solve_upper_bound(base).value, rel=1e-10
        )

    def test_extra_value_never_hurts(self):
        rng = random.Random(13)
        base = random_instance(rng, 3)
        entries = dict(base.values.items())
        entries[(0, 1)] = entries.get((0, 1), 0.0) + 0.5
        richer = make_instance(
            [(t.label, t.arrival_rate, t.departure_rate) for t in base.types],
            entries,
        )
        assert (
            solve_upper_bound(richer).value
            >= solve_upper_bound(base).value - 1e-10
        )


class TestPresentation:
    def test_build_rejects_invalid_instance(self):
        with pytest.raises(ValueError):
            build_lp(make_instance([("a", -1.0, 1.0)], {}))

    def test_one_row_per_type(self):
        # cap and box are variable bounds, not rows
        lp = build_lp(drawn_instance(random.Random(40), 40))
        assert (lp.n_rows, lp.n_vars) == (40, 1600)
        assert lp.rows.shape == (40, 1600)

    def test_bounds_are_the_smaller_of_cap_and_box(self):
        inst = random_instance(random.Random(14), 4, allow_impatient=True)
        lp = build_lp(inst)
        for (x, y), u in zip(lp.var_pairs, lp.upper):
            t = inst.types[x]
            assert not t.impatient
            assert u == min(1.0, t.arrival_rate / t.departure_rate)

    def test_feasibility_labels_every_constraint_in_order(self):
        inst = patient_impatient()
        labels = [s.label for s in check_feasibility(inst, solve_upper_bound(inst)).slacks]
        pairs = ["patient->patient", "patient->flash"]
        assert labels == (
            [f"cap:{p}" for p in pairs]
            + ["flow:patient", "flow:flash"]
            + [f"box:{p}" for p in pairs]
            + [f"nonneg:{p}" for p in pairs]
            + ["fixed:flash->patient", "fixed:flash->flash"]
        )

    def test_slacks_recompute_from_alpha(self):
        # an arbitrary alpha, feasible or not, with entries on impatient rows
        rng = random.Random(15)
        inst = random_instance(rng, 4, allow_impatient=True)
        alpha = np.array([[rng.uniform(-0.2, 1.2) for _ in range(4)] for _ in range(4)])
        labels = inst.labels()
        lam = rates_of(inst)
        expected = {}
        for x, t in enumerate(inst.types):
            flow = 0.0
            for y in range(4):
                pair = f"{labels[x]}->{labels[y]}"
                if t.impatient:
                    expected[f"fixed:{pair}"] = -abs(alpha[x, y])
                    continue
                expected[f"cap:{pair}"] = t.arrival_rate / t.departure_rate - alpha[x, y]
                expected[f"box:{pair}"] = 1.0 - alpha[x, y]
                expected[f"nonneg:{pair}"] = alpha[x, y]
                flow += alpha[x, y] * lam[y]
            for y, u in enumerate(inst.types):
                if not u.impatient:
                    flow += alpha[y, x] * lam[x]
            expected[f"flow:{labels[x]}"] = lam[x] - flow
        report = check_feasibility(inst, alpha)
        got = {s.label: s.slack for s in report.slacks}
        assert got.keys() == expected.keys()
        for label, slack in expected.items():
            assert got[label] == pytest.approx(slack, abs=1e-12), label
        assert report.worst_violation == pytest.approx(
            max(0.0, -min(expected.values())), abs=1e-12
        )


def reference_markets(group):
    if group == "golden":
        return [parse_instance(json.dumps(doc)) for doc in MARKETS.values()]
    if group == "suite":
        return fixed_suite()
    if group == "criterion-1":
        rng = random.Random(20260817)
        return [drawn_instance(rng, rng.randint(1, 3)) for _ in range(200)]
    if group == "random-40":
        return [random_instance(random.Random(40), 40)]
    # the criterion recipe at n = 40: the benchmark's wide market
    return [drawn_instance(random.Random(40), 40)]


@pytest.mark.parametrize(
    "group", ["golden", "suite", "criterion-1", "random-40", "recipe-40"]
)
def test_same_vertex_as_the_dense_tableau(group):
    # the online policy reads its attempt probabilities off alpha, so the
    # bounded-variable simplex must land where the cap/box-row tableau did
    for inst in reference_markets(group):
        sol = solve_upper_bound(inst)
        ref = solve_lp_dense(build_lp_dense(inst))
        assert sol.status is ref.status is SolveStatus.OPTIMAL
        assert np.abs(sol.alpha - ref.alpha).max() <= 1e-12
        assert sol.value == ref.value


def highs_value(inst):
    """The LP optimum by scipy's HiGHS, with cap and box as bounds."""
    from scipy.optimize import linprog

    lam = np.array(rates_of(inst))
    mu = np.array(departs_of(inst))
    v = np.array(dense_values(inst))
    n = len(lam)
    pairs = [(x, y) for x in range(n) if math.isfinite(mu[x]) for y in range(n)]
    flow = np.zeros((n, len(pairs)))
    for j, (x, y) in enumerate(pairs):
        flow[x, j] += lam[y]
        flow[y, j] += lam[y]
    res = linprog(
        [-v[x, y] * lam[y] for x, y in pairs],
        A_ub=flow,
        b_ub=lam,
        bounds=[(0.0, min(1.0, lam[x] / mu[x])) for x, _ in pairs],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("n", [60, 100])
def test_large_markets_agree_with_highs(n):
    pytest.importorskip("scipy")
    inst = drawn_instance(random.Random(n), n)
    sol = solve_upper_bound(inst)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == pytest.approx(highs_value(inst), rel=1e-9)
    assert check_feasibility(inst, sol).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_agreement_property(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 3), allow_impatient=True)
    sol = solve_upper_bound(inst)
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.value - oracle_value(inst)) <= 1e-8
