"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Run with plain `pytest`; the verdict lines print outside pytest's capture
so they are visible either way. Several criteria are Monte Carlo at fixed
seeds, so every run of this module sees identical numbers.
"""

import json
import math
import random
import time

import numpy as np

from dynmatch import (
    AgentType,
    MarketInstance,
    MatchValueMatrix,
    PolicyConfig,
    PolicyKind,
    Rng,
    derive_seed,
    hindsight_value_estimate,
    instrument_z_events,
    check_rate_bounds,
    run_simulation,
    sample_exponential,
    sample_homogeneous_stream,
    solve_upper_bound,
    thin_stream,
)
from dynmatch.cli import main as cli_main
from dynmatch.hindsight import CompatibilityGraph, max_weight_matching_exact

from helpers import drawn_instance, fixed_suite, one_type, patient_impatient
from oracles import best_matching_by_enumeration, polytope_upper_bound

ONLINE_HALF = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=0.5)


def verdict(capsys, number, name, problems, elapsed=None):
    status = "PASS" if not problems else "FAIL"
    timing = f"  [{elapsed:.1f}s]" if elapsed is not None else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): {status}{timing}")
    assert not problems, "; ".join(problems)


def test_criterion_1_lp_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(20260817)
    worst = 0.0
    for k in range(200):
        inst = drawn_instance(rng, rng.randint(1, 3))
        sol = solve_upper_bound(inst)
        oracle = polytope_upper_bound(
            [t.arrival_rate for t in inst.types],
            [t.departure_rate for t in inst.types],
            [list(r) for r in inst.values.dense()],
        )
        gap = abs(sol.value - oracle)
        worst = max(worst, gap)
        if gap > 1e-8:
            problems.append(f"instance {k}: |simplex - oracle| = {gap:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    verdict(capsys, 1, f"lp vs vertex oracle, worst gap {worst:.2e}",
            problems, elapsed)


def test_criterion_2_analytic_lp_cases(capsys):
    problems = []
    v1 = solve_upper_bound(one_type(1.0, 1.0, 1.0)).value
    if abs(v1 - 0.5) > 1e-8:
        problems.append(f"single-type optimum {v1!r}, expected 0.5")
    v2 = solve_upper_bound(patient_impatient(1.0, 1.0, 1.0, 1.0)).value
    if abs(v2 - 1.0) > 1e-8:
        problems.append(f"patient/impatient optimum {v2!r}, expected 1.0")
    verdict(capsys, 2, "analytic lp values", problems)


def test_criterion_3_presence_law(capsys):
    t0 = time.perf_counter()
    problems = []
    for ratio in (0.5, 1.0, 2.0):
        start = time.perf_counter()
        inst = MarketInstance(
            types=(AgentType(0, "x", ratio, 1.0),),
            values=MatchValueMatrix(1, {(0, 0): 1.0}),
        )
        _, report = run_simulation(
            inst, PolicyConfig(kind=PolicyKind.NO_OP), None,
            horizon=1e5, burn_in=0.0, seed=derive_seed(3, ratio_token(ratio)),
            record_trace=False,
        )
        expected = 1.0 - math.exp(-ratio)
        got = report.presence_frequency[0]
        if abs(got - expected) > 0.01:
            problems.append(
                f"ratio {ratio}: presence {got:.4f} vs {expected:.4f}"
            )
        took = time.perf_counter() - start
        if took >= 30.0:
            problems.append(f"ratio {ratio} took {took:.1f}s, budget 30s")
    verdict(capsys, 3, "steady-state presence law", problems,
            time.perf_counter() - t0)


def ratio_token(ratio: float) -> str:
    return f"ratio-{ratio}"


def test_criterion_4_poisson_facts(capsys):
    t0 = time.perf_counter()
    problems = []

    # count rate: N(T)/T concentrates on the rate
    stream = sample_homogeneous_stream(3.0, 1e4, Rng(derive_seed(4, "count")))
    n = len(stream)
    if abs(n - 3e4) > 3.0 * math.sqrt(3e4):
        problems.append(f"count {n} vs expected 30000")

    # earliest-event split: the winning stream follows lambda_i / sum
    rates = (1.0, 2.0, 3.0)
    trials = 10_000
    rng = Rng(derive_seed(4, "split"))
    wins = [0, 0, 0]
    for _ in range(trials):
        draws = [sample_exponential(r, rng) for r in rates]
        wins[draws.index(min(draws))] += 1
    for i, r in enumerate(rates):
        p = r / sum(rates)
        se = math.sqrt(p * (1 - p) / trials)
        if abs(wins[i] / trials - p) > 3.0 * se:
            problems.append(
                f"split stream {i}: {wins[i] / trials:.4f} vs {p:.4f} (3se {3*se:.4f})"
            )

    # thinning: keeping with probability p leaves a rate-p*lambda process
    base = sample_homogeneous_stream(4.0, 1e4, Rng(derive_seed(4, "thin")))
    kept = thin_stream(base, 0.35, Rng(derive_seed(4, "thin-coin")))
    if abs(len(kept) - 0.35 * 4e4) > 3.0 * math.sqrt(0.35 * 4e4):
        problems.append(f"thinned count {len(kept)} vs expected 14000")
    if not set(kept.tolist()) <= set(base.tolist()):
        problems.append("thinning invented events")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    verdict(capsys, 4, "poisson facts", problems, elapsed)


def test_criterion_5_competitive_floor(capsys):
    t0 = time.perf_counter()
    problems = []
    reps = 20
    for k, inst in enumerate(fixed_suite()):
        sol = solve_upper_bound(inst)
        n = inst.n_types
        lam = np.array([t.arrival_rate for t in inst.types])
        pair_rates = np.zeros((reps, n, n))
        totals = np.zeros(reps)
        for r in range(reps):
            _, report = run_simulation(
                inst, ONLINE_HALF, sol,
                horizon=1e5, burn_in=1e3,
                seed=derive_seed(9105, k, r), record_trace=False,
            )
            pair_rates[r] = np.asarray(report.pair_match_rates)
            totals[r] = report.avg_value_per_time
        mean_rates = pair_rates.mean(axis=0)
        se_rates = pair_rates.std(axis=0, ddof=1) / math.sqrt(reps)
        floor = sol.alpha * lam[None, :] / 8.0
        slack = mean_rates - (floor - 3.0 * se_rates)
        if slack.min() < -1e-12:
            x, y = np.unravel_index(int(slack.argmin()), slack.shape)
            problems.append(
                f"instance {k} pair ({x},{y}): rate {mean_rates[x, y]:.5f} "
                f"under floor {floor[x, y]:.5f} - 3se"
            )
        total_mean = totals.mean()
        total_se = totals.std(ddof=1) / math.sqrt(reps)
        if total_mean < sol.value / 8.0 - 3.0 * total_se:
            problems.append(
                f"instance {k}: value rate {total_mean:.5f} under "
                f"v*/8 = {sol.value / 8.0:.5f} - 3se"
            )
    verdict(capsys, 5, "competitive floor at gamma 1/2", problems,
            time.perf_counter() - t0)


def hindsight_scale(inst: MarketInstance) -> MarketInstance:
    """Shrink arrival rates so the smallest ladder rung holds ~20 agents
    and total offered load stays at most 1 (keeps overlap components tiny,
    which is what makes the exact matcher feasible)."""
    lam_sum = sum(t.arrival_rate for t in inst.types)
    load = sum(t.arrival_rate / t.departure_rate for t in inst.types)
    c = min(1.0, 2.0 / lam_sum, 1.0 / load)
    types = tuple(
        AgentType(t.id, t.label, c * t.arrival_rate, t.departure_rate)
        for t in inst.types
    )
    return MarketInstance(types=types, values=inst.values)


def test_criterion_6_sandwich(capsys):
    t0 = time.perf_counter()
    problems = []
    rungs = (10.0, 50.0, 200.0)
    reps = 40
    for k, raw in enumerate(fixed_suite()):
        inst = hindsight_scale(raw)
        sol = solve_upper_bound(inst)
        master = derive_seed(61, k)
        for h in rungs:
            # exact_threshold bounds the sweep's frontier (agents open at
            # once); the widest across this seeded sweep is 9 nodes, narrow
            # because hindsight_scale caps total load
            hind_mean, hind_se = hindsight_value_estimate(
                inst, h, reps, master, exact_threshold=48
            )
            online_vals = []
            for r in range(reps):
                # the estimator ran replication r on derive_seed(master, r),
                # so seeding the policy run the same way shares the population
                _, report = run_simulation(
                    inst, ONLINE_HALF, sol,
                    horizon=h, burn_in=0.0,
                    seed=derive_seed(master, r), record_trace=False,
                )
                online_vals.append(report.avg_value_per_time)
            online_mean = float(np.mean(online_vals))
            if online_mean > hind_mean + 2.0 * hind_se:
                problems.append(
                    f"instance {k} rung {h:g}: online {online_mean:.5f} "
                    f"above hindsight {hind_mean:.5f} + 2se"
                )
            if h == rungs[-1] and hind_mean > sol.value + 2.0 * hind_se:
                problems.append(
                    f"instance {k}: hindsight {hind_mean:.5f} above "
                    f"v* {sol.value:.5f} + 2se at rung {h:g}"
                )
    verdict(capsys, 6, "online <= hindsight <= lp sandwich", problems,
            time.perf_counter() - t0)


def test_criterion_7_marker_event_rates(capsys):
    t0 = time.perf_counter()
    problems = []
    cases = {
        "single": one_type(1.0, 1.0, 1.0),
        "pair": MarketInstance(
            types=(AgentType(0, "a", 1.0, 1.0), AgentType(1, "b", 0.8, 1.2)),
            values=MatchValueMatrix(2, {(0, 0): 0.5, (0, 1): 1.0, (1, 1): 0.3}),
        ),
        "mixed": patient_impatient(1.0, 1.0, 1.0, 1.0),
    }
    for name, inst in cases.items():
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(
            inst, sol, 0.5, horizon=1e5, seed=derive_seed(7, name)
        )
        report = check_rate_bounds(counters, inst, sol, 0.5)
        for row in report.failures:
            problems.append(
                f"{name}: {row.bound}[{row.subject}] empirical "
                f"{row.empirical:.5f} vs {row.theoretical:.5f}"
            )
        # the headline laws must actually be decided, not skipped
        for bound in ("inbound_attempt_rate", "sole_departure_rate",
                      "waiting_fraction_floor"):
            decided = [
                r for r in report.rows
                if r.bound == bound and r.verdict != "INCONCLUSIVE"
            ]
            if not decided:
                problems.append(f"{name}: every {bound} row inconclusive")
    verdict(capsys, 7, "marker event rate laws", problems,
            time.perf_counter() - t0)


def overlap_clique_graph(n, edges):
    keys = sorted(edges)
    return CompatibilityGraph(
        types=np.zeros(n, dtype=np.int64), serials=np.arange(n),
        arrival=np.zeros(n), departure=np.ones(n),
        edges=np.array(keys, dtype=np.int64).reshape(-1, 2),
        weights=np.array([edges[e] for e in keys], dtype=np.float64), horizon=1.0,
    )


def test_criterion_8_exact_matcher_oracle(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(88)
    for k in range(1000):
        n = rng.randint(2, 8)
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    w = rng.uniform(0.0, 1.0)
                    if w > 0.0:
                        edges[(i, j)] = w
        _, got = max_weight_matching_exact(overlap_clique_graph(n, edges))
        want = best_matching_by_enumeration(n, edges)
        if abs(got - want) > 1e-9:
            problems.append(f"graph {k}: matcher {got!r} vs enumeration {want!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    verdict(capsys, 8, "exact matcher vs enumeration", problems, elapsed)


def test_criterion_9_byte_identical_reruns(capsys, tmp_path):
    t0 = time.perf_counter()
    problems = []
    instance_path = tmp_path / "market.json"
    instance_path.write_text(json.dumps({
        "types": [
            {"label": "a", "arrival_rate": 1.0, "departure_rate": 1.0},
            {"label": "b", "arrival_rate": 0.8, "departure_rate": "inf"},
        ],
        "values": [["a", "a", 0.5], ["a", "b", 1.0]],
    }))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "instance": str(instance_path),
        "seed": 424242,
        "horizon": 2000.0,
        "replications": 2,
        "policies": [
            "online_match",
            "greedy",
            {"kind": "periodic_clear", "clear_period": 4.0},
        ],
    }))
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli_main(["simulate", "--config", str(config_path),
                         "--out", str(out)])
        if code != 0:
            problems.append(f"{tag} run exited {code}")
        outs.append(out)
    if not problems:
        first = {p.name: p.read_bytes() for p in outs[0].iterdir()}
        second = {p.name: p.read_bytes() for p in outs[1].iterdir()}
        if set(first) != set(second):
            problems.append("runs produced different file sets")
        else:
            if len(first) < 7:  # 3 policies x 2 reps + report.json
                problems.append(f"only {len(first)} output files")
            for name in first:
                if first[name] != second[name]:
                    problems.append(f"{name} differs between runs")
    verdict(capsys, 9, "byte-identical reruns", problems,
            time.perf_counter() - t0)
