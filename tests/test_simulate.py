"""Event engine: population sampling, policy runs, traces, reports.

The same seed must reproduce a run bit for bit; most tests here are
exact-equality checks on that contract. The engine loop's agreement with
the scalar policy steps is in test_engine_reference.py, and frozen outputs
are in test_golden.py.
"""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynmatch
from dynmatch import (
    PolicyConfig,
    PolicyKind,
    estimate_rates,
    generate_population,
    instrument_z_events,
    presence_frequency,
    read_trace_csv,
    replay_check,
    run_simulation,
    save_instance,
    simulate,
    solve_upper_bound,
    write_trace_csv,
)
from dynmatch.market import pressure
from dynmatch.simulate import ArrivalEvent, DecidedRun, DepartureEvent, MatchEvent

from golden.capture import POLICIES, POLICY_RUNS, policy_case
from helpers import (
    make_instance,
    one_type,
    patient_impatient,
    random_instance,
    trace_of_events,
)
import oracles

ONLINE = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=0.5)
GREEDY = PolicyConfig(kind=PolicyKind.GREEDY)
NO_OP = PolicyConfig(kind=PolicyKind.NO_OP)


def mixed_instance():
    return make_instance(
        [("a", 1.2, 0.8), ("b", 0.7, 1.5), ("c", 0.9, None)],
        {(0, 0): 0.3, (0, 1): 1.0, (0, 2): 0.8, (1, 2): 0.5},
    )


class TestPopulation:
    def test_deterministic(self):
        inst = mixed_instance()
        a = generate_population(inst, 200.0, seed=5)
        b = generate_population(inst, 200.0, seed=5)
        for x in range(inst.n_types):
            assert a.arrivals[x].tolist() == b.arrivals[x].tolist()
            assert a.departures[x].tolist() == b.departures[x].tolist()

    def test_impatient_agents_have_zero_length_stay(self):
        inst = mixed_instance()
        pop = generate_population(inst, 300.0, seed=8)
        assert pop.departures[2].tolist() == pop.arrivals[2].tolist()
        assert (pop.departures[0] > pop.arrivals[0]).all()

    def test_order_arrays_are_the_global_sort(self):
        pop = generate_population(mixed_instance(), 150.0, seed=2)
        t = pop.order_times
        assert (np.diff(t) >= 0).all()
        assert pop.n_agents == sum(len(a) for a in pop.arrivals)
        # order entries point back at the per-type arrays
        for k in range(pop.n_agents):
            x, s = int(pop.order_types[k]), int(pop.order_serials[k])
            assert pop.arrivals[x][s] == t[k]

    def test_counts_scale_with_rate(self):
        # lambda*T = 1200 vs 700: Poisson sds ~ 35 and 26, allow 5 sd
        pop = generate_population(mixed_instance(), 1000.0, seed=3)
        assert abs(len(pop.arrivals[0]) - 1200) < 175
        assert abs(len(pop.arrivals[1]) - 700) < 132

    def test_horizon_zero_is_empty(self):
        pop = generate_population(one_type(), 0.0, seed=1)
        assert pop.n_agents == 0


class TestRunBasics:
    def test_no_op_policy_never_matches(self):
        trace, report = run_simulation(
            one_type(), NO_OP, None, horizon=100.0, seed=4
        )
        assert report.match_count == 0 and report.total_value == 0.0
        assert trace.matches() == []
        assert all(
            not e.matched_before_departure
            for e in trace if isinstance(e, DepartureEvent)
        )

    def test_zero_value_market_greedy_matches_nothing(self):
        inst = make_instance([("a", 1.0, 1.0), ("b", 1.0, 1.0)], {})
        trace, report = run_simulation(inst, GREEDY, None, horizon=200.0, seed=6)
        assert report.match_count == 0
        assert trace.matches() == []

    def test_horizon_zero_run(self):
        trace, report = run_simulation(
            one_type(), GREEDY, None, horizon=0.0, seed=9, burn_in=0.0
        )
        assert report.match_count == 0 and len(trace.events) == 0

    def test_online_requires_solution(self):
        with pytest.raises(ValueError):
            run_simulation(one_type(), ONLINE, None, horizon=10.0, seed=1)

    def test_burn_in_must_precede_horizon(self):
        with pytest.raises(ValueError):
            run_simulation(
                one_type(), GREEDY, None, horizon=10.0, burn_in=10.0, seed=1
            )

    def test_default_burn_in_is_a_hundredth(self):
        _, report = run_simulation(one_type(), NO_OP, None, horizon=500.0, seed=1)
        assert report.burn_in == 5.0

    def test_report_dict_has_schema_version(self):
        _, report = run_simulation(one_type(), NO_OP, None, horizon=50.0, seed=1)
        d = report.to_dict()
        assert d["schema_version"] == 1
        assert d["match_count"] == 0


class TestDeterminismAndSharing:
    def test_identical_seeds_identical_traces(self):
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        t1, r1 = run_simulation(inst, ONLINE, sol, horizon=300.0, seed=77)
        t2, r2 = run_simulation(inst, ONLINE, sol, horizon=300.0, seed=77)
        assert t1.events == t2.events
        assert r1.to_dict() == r2.to_dict()

    def test_different_seeds_differ(self):
        inst = mixed_instance()
        t1, _ = run_simulation(inst, GREEDY, None, horizon=300.0, seed=1)
        t2, _ = run_simulation(inst, GREEDY, None, horizon=300.0, seed=2)
        assert t1.events != t2.events

    def test_policies_share_the_population(self):
        # common random numbers: the arrival lane ignores the policy
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        traces = {}
        for name, pol, s in [
            ("online", ONLINE, sol),
            ("greedy", GREEDY, None),
            ("noop", NO_OP, None),
        ]:
            tr, _ = run_simulation(inst, pol, s, horizon=250.0, seed=31)
            traces[name] = {
                (e.time, e.agent) for e in tr if isinstance(e, ArrivalEvent)
            }
        assert traces["online"] == traces["greedy"] == traces["noop"]

    def test_gamma_changes_decisions_not_population(self):
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        lo, _ = run_simulation(
            inst,
            PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=0.25),
            sol, horizon=400.0, seed=13,
        )
        hi, _ = run_simulation(
            inst,
            PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=1.0),
            sol, horizon=400.0, seed=13,
        )
        arr = lambda tr: [e for e in tr if isinstance(e, ArrivalEvent)]
        assert arr(lo) == arr(hi)
        assert len(hi.matches()) > len(lo.matches())


class TestReplayAndAccounting:
    @pytest.mark.parametrize("pol", [ONLINE, GREEDY, NO_OP,
                                     PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR,
                                                  clear_period=3.0)])
    def test_replay_finds_no_violations(self, pol):
        inst = mixed_instance()
        sol = solve_upper_bound(inst) if pol.kind is PolicyKind.ONLINE_MATCH else None
        trace, _ = run_simulation(inst, pol, sol, horizon=400.0, seed=21)
        assert replay_check(trace, inst) == []

    def test_replay_catches_forged_match(self):
        inst = one_type()
        trace, _ = run_simulation(inst, GREEDY, None, horizon=100.0, seed=3)
        # append a match between agents that never arrived
        from dynmatch import AgentId

        forged = MatchEvent(50.0, AgentId(0, 10 ** 6), AgentId(0, 10 ** 6 + 1), 1.0)
        bad = trace_of_events(
            [*trace.events, forged], trace.horizon, trace.burn_in, trace.seed
        )
        assert replay_check(bad, inst) != []

    def test_value_accounting_recomputable_from_trace(self):
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        trace, report = run_simulation(inst, ONLINE, sol, horizon=300.0, seed=41)
        after_burn = [m for m in trace.matches() if m.time > trace.burn_in]
        assert report.match_count == len(after_burn)
        assert report.total_value == sum(m.value for m in after_burn)
        window = trace.horizon - trace.burn_in
        assert report.avg_value_per_time == report.total_value / window

    def test_estimate_rates_matches_report(self):
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        trace, report = run_simulation(inst, ONLINE, sol, horizon=500.0, seed=43)
        np.testing.assert_array_equal(
            estimate_rates(trace, inst), np.asarray(report.pair_match_rates)
        )

    def test_match_pair_ordering_is_by_arrival(self):
        inst = mixed_instance()
        trace, _ = run_simulation(inst, GREEDY, None, horizon=300.0, seed=44)
        arrival_at = {
            e.agent: e.time for e in trace if isinstance(e, ArrivalEvent)
        }
        for m in trace.matches():
            ka = (arrival_at[m.agent_a], m.agent_a.type_id, m.agent_a.serial)
            kb = (arrival_at[m.agent_b], m.agent_b.type_id, m.agent_b.serial)
            assert ka < kb

    def test_greedy_matches_fire_at_arrival_instants(self):
        inst = mixed_instance()
        trace, _ = run_simulation(inst, GREEDY, None, horizon=200.0, seed=45)
        arrivals = {e.time for e in trace if isinstance(e, ArrivalEvent)}
        for m in trace.matches():
            assert m.time in arrivals

    def test_periodic_matches_fire_on_the_clock(self):
        inst = mixed_instance()
        pol = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=5.0)
        trace, _ = run_simulation(inst, pol, None, horizon=200.0, seed=46)
        assert trace.matches(), "expected at least one clearing match"
        for m in trace.matches():
            assert m.time == pytest.approx(round(m.time / 5.0) * 5.0, abs=1e-12)


class TestPresence:
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_presence_matches_steady_state_law(self, ratio):
        inst = make_instance([("a", ratio, 1.0)], {(0, 0): 1.0})
        trace, _ = run_simulation(
            inst, NO_OP, None, horizon=20_000.0, seed=52, burn_in=0.0
        )
        expected = 1.0 - math.exp(-pressure(inst, 0))
        assert presence_frequency(trace, inst, 0) == pytest.approx(
            expected, abs=0.015
        )

    def test_presence_is_policy_free(self):
        # matching does not remove agents from presence, only from the pool
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        t_noop, _ = run_simulation(inst, NO_OP, None, horizon=400.0, seed=53)
        t_on, _ = run_simulation(inst, ONLINE, sol, horizon=400.0, seed=53)
        for x in range(inst.n_types):
            assert presence_frequency(t_noop, inst, x) == presence_frequency(
                t_on, inst, x
            )

    def test_impatient_presence_is_zero(self):
        inst = mixed_instance()
        trace, _ = run_simulation(inst, NO_OP, None, horizon=300.0, seed=54)
        assert presence_frequency(trace, inst, 2) == 0.0

    def test_report_presence_agrees_with_trace_presence(self):
        inst = mixed_instance()
        trace, report = run_simulation(inst, NO_OP, None, horizon=300.0,
                                       seed=55, burn_in=0.0)
        for x in range(inst.n_types):
            assert report.presence_frequency[x] == pytest.approx(
                presence_frequency(trace, inst, x), abs=1e-12
            )


class TestTraceCsv:
    def test_round_trip_preserves_events_and_meta(self, tmp_path):
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        trace, _ = run_simulation(inst, ONLINE, sol, horizon=150.0, seed=71)
        p = tmp_path / "t.csv"
        write_trace_csv(trace, p, policy="online_match-0.5")
        back, meta = read_trace_csv(p)
        assert back.events == trace.events
        assert back.horizon == trace.horizon and back.seed == trace.seed
        assert meta["policy"] == "online_match-0.5"

    def test_writing_twice_is_byte_identical(self, tmp_path):
        inst = mixed_instance()
        trace, _ = run_simulation(inst, GREEDY, None, horizon=150.0, seed=72)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, p1, policy="greedy")
        write_trace_csv(trace, p2, policy="greedy")
        assert p1.read_bytes() == p2.read_bytes()


class TestBenchHooks:
    """The benchmark's tracer (bench/ops.py) wraps two names of the
    simulate module: generate_population, to find the population of each
    engine run, and MarketState.snapshot_available, to read each clearing
    run's largest pool. Both must keep seeing what they measure."""

    def test_each_run_draws_its_population_once(self, monkeypatch):
        calls = []
        inner = simulate.generate_population

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(simulate, "generate_population", counted)
        inst = mixed_instance()
        sol = solve_upper_bound(inst)
        clearing = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=2.0)
        for pol in (ONLINE, GREEDY, clearing, NO_OP):
            for record_trace in (True, False):
                calls.clear()
                run_simulation(inst, pol, sol, horizon=100.0, seed=3, record_trace=record_trace)
                assert len(calls) == 1
        calls.clear()
        run = DecidedRun(inst, sol, 0.5, horizon=100.0, seed=3)
        assert sum(1 for _ in run) > 0 and run.report().match_count > 0
        assert len(calls) == 1
        calls.clear()
        instrument_z_events(inst, sol, 0.5, horizon=100.0, seed=3)
        assert len(calls) == 1

    def test_snapshots_see_the_largest_pool(self, monkeypatch):
        sizes: dict[str, list[int]] = {"engine": [], "oracle": []}

        def watch(cls, key):
            inner = cls.snapshot_available

            def snapshot(state):
                pool = inner(state)
                sizes[key].append(len(pool))
                return pool

            monkeypatch.setattr(cls, "snapshot_available", snapshot)

        watch(simulate.MarketState, "engine")
        watch(oracles.MarketState, "oracle")
        largest = []
        for seed in range(8):
            rng = random.Random(900 + seed)
            inst = random_instance(rng, rng.randint(1, 4), allow_impatient=True)
            period = rng.choice([1.0, 2.0, 3.0])
            for seen in sizes.values():
                seen.clear()
            policy = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=period)
            run_simulation(inst, policy, horizon=150.0, seed=seed, record_trace=False)
            pop = generate_population(inst, 150.0, seed)
            oracles.clearing_by_arrivals(inst, period, pop, exact_threshold=math.inf)
            assert max(sizes["engine"]) == max(sizes["oracle"])
            largest.append(max(sizes["engine"]))
        assert sorted(largest)[2] >= 4, largest


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["online", "greedy", "periodic"]))
def test_every_run_replays_clean(seed, kind):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 3), allow_impatient=True)
    if kind == "online":
        pol, sol = ONLINE, solve_upper_bound(inst)
    elif kind == "greedy":
        pol, sol = GREEDY, None
    else:
        pol, sol = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=2.0), None
    trace, report = run_simulation(inst, pol, sol, horizon=60.0, seed=seed)
    assert replay_check(trace, inst) == []
    assert report.match_count == len(
        [m for m in trace.matches() if m.time > trace.burn_in]
    )


def test_plain_record_sort_keeps_the_keyed_order(monkeypatch):
    # _build_outputs orders the match columns by one np.lexsort on (time,
    # a_type, a_serial, b_type, b_serial); no two records share those five,
    # so the order is the one a plain sort of the (time, a, b, value)
    # tuples gives, which is how the records were ordered as tuples
    seen = []
    build = simulate._build_outputs

    def spy(instance, policy, pop, matches, *rest):
        n = instance.n_types
        values = np.array(instance.values.dense()).reshape(n, n)
        t, a, b = matches
        ax, bx = pop.order_types[a], pop.order_types[b]
        columns = (t, ax, pop.order_serials[a], bx, pop.order_serials[b], values[ax, bx])
        seen.append([c.tolist() for c in columns])
        return build(instance, policy, pop, matches, *rest)

    monkeypatch.setattr(simulate, "_build_outputs", spy)
    for market, horizon, seed in POLICY_RUNS:
        for policy in POLICIES:
            policy_case(market, horizon, seed, policy)
    for seed in range(20):
        rng = random.Random(6000 + seed)
        inst = random_instance(rng, rng.randint(1, 5), allow_impatient=True)
        for pol, sol in ((ONLINE, solve_upper_bound(inst)), (GREEDY, None),
                         (PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=3.0), None)):
            run_simulation(inst, pol, sol, horizon=100.0, seed=seed)
    assert len(seen) == len(POLICY_RUNS) * len(POLICIES) + 60
    assert sum(len(columns[0]) for columns in seen) > 1000
    for columns in seen:
        records = list(zip(*columns))
        assert len({r[:5] for r in records}) == len(records)
        order = np.lexsort(columns[4::-1]).tolist()
        assert [records[i] for i in order] == sorted(records)


CLEARING_RUN = """
import json, sys
from dynmatch import PolicyConfig, load_instance, run_simulation, write_trace_csv

def run(path, period, horizon, seed, out):
    policy = PolicyConfig(kind="periodic_clear", clear_period=float(period))
    trace, report = run_simulation(load_instance(path), policy, horizon=float(horizon),
                                   seed=int(seed))
    write_trace_csv(trace, out + ".csv")
    with open(out + ".json", "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True)

if __name__ == "__main__":
    run(*sys.argv[1:])
"""


def test_clearing_runs_leave_nothing_behind(tmp_path):
    # each run keeps its own memo of matched pools: two runs in one
    # process, in either order, write what each writes alone in a fresh
    # interpreter
    runs = []
    for k, (n_types, period) in enumerate(((3, 2.0), (4, 1.5))):
        path = tmp_path / f"market{k}.json"
        save_instance(random_instance(random.Random(700 + k), n_types), str(path))
        runs.append((str(path), str(period), "300.0", str(80 + k)))
    src = os.path.dirname(os.path.dirname(dynmatch.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for k, args in enumerate(runs):
        subprocess.run([sys.executable, "-c", CLEARING_RUN, *args, str(tmp_path / f"fresh{k}")],
                       env={**os.environ, "PYTHONPATH": path}, check=True)
    script: dict = {}
    exec(CLEARING_RUN, script)

    def files(out):
        return (tmp_path / f"{out}.csv").read_bytes(), (tmp_path / f"{out}.json").read_bytes()

    for first, second in ((0, 1), (1, 0)):
        for k in (first, second):
            script["run"](*runs[k], str(tmp_path / f"after{first}-{k}"))
        for k in (first, second):
            assert files(f"after{first}-{k}") == files(f"fresh{k}")
