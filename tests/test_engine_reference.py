"""The engine loop and the marker post-pass against event-at-a-time replays.

The replays here decide one arrival at a time through the scalar step
functions (oracles.online_match_step, oracles.greedy_step) over a plain
list of available agents, and count marker events the way an observer
watching those decisions would: departures processed before same-time
arrivals, a presence counter of its own. Periodic clearing is replayed by
the arrival walk it replaced (oracles.clearing_by_arrivals, with the
bitmask pool matcher). run_simulation's match records and
instrument_z_events' counters must equal theirs exactly.
"""

import math
import random

import numpy as np
import pytest

from dynmatch import (
    AgentId,
    PolicyConfig,
    PolicyKind,
    Rng,
    attempt_probabilities,
    derive_seed,
    generate_population,
    instrument_z_events,
    run_simulation,
    simulate,
    solve_upper_bound,
)
from dynmatch.diagnostics import MarkerEvents, _event_counters
from dynmatch.simulate import DecidedRun, Population

from golden.capture import counters_doc
from helpers import fixed_suite, make_instance
from oracles import (
    DequeWalker,
    candidate_walks,
    clearing_by_arrivals,
    decision_blocks_at_once,
    greedy_step,
    greedy_walks,
    online_match_step,
)


class ListState:
    """Available agents as one list in arrival order; an agent is live
    while its departure lies after the clock."""

    def __init__(self, instance, pop):
        self.instance = instance
        self.departures = pop.departures
        self.clock = 0.0
        self.pool = []

    def advance(self, t):
        self.clock = t
        self.pool = [a for a in self.pool if self.departure(a) > t]

    def departure(self, agent):
        return float(self.departures[agent.type_id][agent.serial])

    def has_available(self, type_id):
        return any(a.type_id == type_id for a in self.pool)

    def pop_oldest_available(self, type_id):
        for k, a in enumerate(self.pool):
            if a.type_id == type_id:
                return self.pool.pop(k)
        return None


def arrivals(pop):
    return zip(pop.order_times.tolist(), pop.order_types.tolist(),
               pop.order_serials.tolist())


def replay(instance, pop, decide):
    """Match records (time, a_type, a_serial, b_type, b_serial, value),
    sorted, plus each arrival's decision."""
    state = ListState(instance, pop)
    records, decisions = [], []
    for t, y, s in arrivals(pop):
        state.advance(t)
        agent = AgentId(y, s)
        d = decide(state, agent)
        decisions.append(d)
        if d.partner is not None:
            p = d.partner
            records.append((t, p.type_id, p.serial, y, s,
                            instance.values.get(p.type_id, y)))
        elif state.departure(agent) > t:
            state.pool.append(agent)
    return sorted(records), decisions


def online_decider(instance, solution, gamma, seed):
    policy = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=gamma)
    rng = Rng(derive_seed(seed, "decisions", policy.lane_token()))
    probs = attempt_probabilities(instance, solution, gamma)
    return lambda state, agent: online_match_step(state, agent, solution, gamma, rng, probs)


def replay_markers(instance, solution, gamma, pop, seed):
    """The run's MarkerEvents, gathered event by event from the scalar replay."""
    n = instance.n_types
    _, decisions = replay(instance, pop, online_decider(instance, solution, gamma, seed))
    present = [0] * n
    transitions = [[] for _ in range(n)]
    idle = [[] for _ in range(n)]
    inbound = [[] for _ in range(n)]
    sole = [[] for _ in range(n)]
    first, first_matched, reached = {}, {}, {}
    leaving = sorted(
        (float(dep[s]), x, s)
        for x, (arr, dep) in enumerate(zip(pop.arrivals, pop.departures))
        for s in range(len(arr))
        if arr[s] < dep[s] <= pop.horizon
    )
    leaving.append((float("inf"), -1, -1))
    k = 0

    def depart_until(t):
        nonlocal k
        while leaving[k][0] <= t:
            dt, x, _ = leaving[k]
            k += 1
            if present[x] == 1:
                sole[x].append(dt)
            present[x] -= 1
            transitions[x].append((dt, present[x]))

    for (t, y, s), d in zip(arrivals(pop), decisions):
        depart_until(t)
        pre = d.pre_evaluated
        if all(present[z] == 0 or not pre[z] for z in range(n)):
            idle[y].append(t)
        for x in range(n):
            if present[x] > 0 and pre[x]:
                inbound[x].append(t)
        matched_type = d.partner.type_id if d.partner is not None else -1
        blocked = False
        for c in d.attempts:
            if c.attempted:
                x = c.type_id
                reached.setdefault((x, y), []).append(t)
                if not blocked:
                    first.setdefault((x, y), []).append(t)
                    first_matched.setdefault((x, y), []).append(matched_type == x)
                if present[x] > 0:
                    blocked = True
        if pop.departures[y][s] > t:
            present[y] += 1
            transitions[y].append((t, present[y]))
    depart_until(pop.horizon)

    return MarkerEvents(
        horizon=pop.horizon,
        idle=tuple(np.array(v) for v in idle),
        inbound=tuple(np.array(v) for v in inbound),
        sole=tuple(np.array(v) for v in sole),
        transitions=tuple(
            (np.array([w for w, _ in tr]), np.array([c for _, c in tr])) for tr in transitions
        ),
        first={key: np.array(v) for key, v in first.items()},
        first_matched={key: np.array(v, dtype=bool) for key, v in first_matched.items()},
        reached={key: np.array(v) for key, v in reached.items()},
    )


def replay_counters(instance, solution, gamma, pop, seed, pair_match_counts):
    markers = replay_markers(instance, solution, gamma, pop, seed)
    return _event_counters(markers, instance, solution, gamma, seed, 20, pair_match_counts)


def tied_instance(rng, n_types):
    """Random market, impatient types allowed, values from {0, 1/2, 1} so
    that greedy meets ties."""
    types = []
    for i in range(n_types):
        mu = None if rng.random() < 0.3 else rng.uniform(0.3, 2.0)
        types.append((f"t{i}", rng.uniform(0.3, 2.0), mu))
    values = {
        (i, j): v
        for i in range(n_types)
        for j in range(i, n_types)
        if (v := rng.choice([0.0, 0.5, 0.5, 1.0, 1.0])) > 0.0
    }
    return make_instance(types, values)


def engine_records(instance, policy, solution, horizon, seed):
    trace, _ = run_simulation(instance, policy, solution, horizon=horizon, seed=seed)
    return [(m.time, m.agent_a.type_id, m.agent_a.serial, m.agent_b.type_id,
             m.agent_b.serial, m.value) for m in trace.matches()]


@pytest.mark.parametrize("seed", range(30))
def test_engine_matches_scalar_steps(seed):
    rng = random.Random(seed)
    instance = tied_instance(rng, rng.randint(1, 5))
    horizon = 80.0
    pop = generate_population(instance, horizon, seed)

    greedy = PolicyConfig(kind=PolicyKind.GREEDY)
    expected, _ = replay(instance, pop, lambda st, a: greedy_step(st, a, instance.values))
    assert engine_records(instance, greedy, None, horizon, seed) == expected

    solution = solve_upper_bound(instance)
    gamma = rng.choice([0.5, 0.75, 1.0])
    online = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=gamma)
    expected, _ = replay(instance, pop, online_decider(instance, solution, gamma, seed))
    assert engine_records(instance, online, solution, horizon, seed) == expected


@pytest.mark.parametrize("seed", range(20))
def test_marker_post_pass_matches_event_replay(seed):
    rng = random.Random(1000 + seed)
    instance = tied_instance(rng, rng.randint(1, 5))
    solution = solve_upper_bound(instance)
    gamma = rng.choice([0.5, 0.75, 1.0])
    horizon = 150.0
    counters, report = instrument_z_events(
        instance, solution, gamma, horizon=horizon, seed=seed
    )
    pop = generate_population(instance, horizon, seed)
    expected = replay_counters(instance, solution, gamma, pop, seed, report.pair_match_counts)
    assert counters_doc(counters) == counters_doc(expected)


def lattice_population(instance, horizon, rng):
    """Arrivals and lifetimes on a grid of step 1/2, so that arrivals share
    times and departures land on arrival instants: the ties that the
    engine's conventions decide and a sampled population never shows."""
    arrs, deps = [], []
    for t in instance.types:
        count = rng.randint(0, int(2 * horizon))
        arr = np.sort([rng.randint(0, int(2 * horizon)) / 2 for _ in range(count)])
        life = [0.0 if t.impatient else rng.randint(0, 6) / 2 for _ in range(count)]
        arrs.append(np.asarray(arr, dtype=np.float64))
        deps.append(arrs[-1] + np.asarray(life, dtype=np.float64))
    all_t = np.concatenate(arrs)
    all_x = np.concatenate([np.full(len(a), x) for x, a in enumerate(arrs)])
    all_s = np.concatenate([np.arange(len(a)) for a in arrs])
    idx = np.argsort(all_t, kind="stable")
    return Population(tuple(arrs), tuple(deps), all_t[idx], all_x[idx].astype(np.int64),
                      all_s[idx].astype(np.int64), horizon)


@pytest.mark.parametrize("seed", range(20))
def test_ties_follow_the_scalar_steps(seed, monkeypatch):
    rng = random.Random(2000 + seed)
    instance = tied_instance(rng, rng.randint(1, 4))
    horizon = 30.0
    pop = lattice_population(instance, horizon, rng)
    monkeypatch.setattr(simulate, "generate_population", lambda *args: pop)
    solution = solve_upper_bound(instance)
    gamma = rng.choice([0.5, 0.75, 1.0])

    greedy = PolicyConfig(kind=PolicyKind.GREEDY)
    expected, _ = replay(instance, pop, lambda st, a: greedy_step(st, a, instance.values))
    assert engine_records(instance, greedy, None, horizon, seed) == expected

    online = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=gamma)
    expected, _ = replay(instance, pop, online_decider(instance, solution, gamma, seed))
    assert engine_records(instance, online, solution, horizon, seed) == expected

    counters, report = instrument_z_events(
        instance, solution, gamma, horizon=horizon, seed=seed
    )
    expected = replay_counters(instance, solution, gamma, pop, seed, report.pair_match_counts)
    assert counters_doc(counters) == counters_doc(expected)


def clearing_records(instance, pop, period):
    """The arrival walk's match records, exact at every pool size."""
    return sorted(clearing_by_arrivals(instance, period, pop, exact_threshold=math.inf))


@pytest.mark.parametrize("seed", range(30))
def test_clearing_matches_the_arrival_walk(seed):
    rng = random.Random(3000 + seed)
    instance = tied_instance(rng, rng.randint(1, 5))
    horizon = 80.0
    period = rng.choice([0.5, 1.0, 2.0, 3.0, 5.0])
    pop = generate_population(instance, horizon, seed)
    policy = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=period)
    expected = clearing_records(instance, pop, period)
    assert engine_records(instance, policy, None, horizon, seed) == expected


@pytest.mark.parametrize("seed", range(20))
def test_clearing_ties_follow_the_arrival_walk(seed, monkeypatch):
    # clear instants on the population's half-unit grid, so that arrivals
    # and departures fall exactly on them
    rng = random.Random(4000 + seed)
    instance = tied_instance(rng, rng.randint(1, 4))
    horizon = 30.0
    pop = lattice_population(instance, horizon, rng)
    monkeypatch.setattr(simulate, "generate_population", lambda *args: pop)
    period = rng.choice([0.5, 1.0, 1.5, 2.5])
    policy = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=period)
    expected = clearing_records(instance, pop, period)
    assert engine_records(instance, policy, None, horizon, seed) == expected


# ---------------------------------------------------------------------------
# The walk loops against the deque walker they replaced (oracles.DequeWalker):
# the same records in the order made, with the arrivals handed over one,
# seven or a default chunk at a time.

WALK_CHUNKS = [1, 7, 4096]
PREFIX = 3000


def as_tuples(pop, values, records):
    """Walk records (arrival indices of arriver and partner) as the deque
    walker's tuples, arriver in slot b."""
    times, types, serials = (c.tolist() for c in (pop.order_times, pop.order_types,
                                                  pop.order_serials))
    return [(times[g], types[p], serials[p], types[g], serials[g], values[types[p]][types[g]])
            for g, p in zip(*(np.asarray(r).tolist() for r in records))]


def check_walks(instance, pop, seed, gamma, monkeypatch):
    # one arrival per call spends its time in numpy calls, so at size 1 the
    # random-order walk covers the first PREFIX arrivals only
    values = instance.values.dense()
    solution = solve_upper_bound(instance)
    policy = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=gamma)
    perm, checks = decision_blocks_at_once(instance, policy, solution, pop, seed)
    walks = candidate_walks(perm, checks)
    online, greedy = DequeWalker(instance, pop), DequeWalker(instance, pop)
    online.walk(walks[:PREFIX])
    made = len(online.records)
    online.walk(walks[PREFIX:])
    greedy.walk(greedy_walks(instance, pop))
    for size in WALK_CHUNKS:
        end = PREFIX if size == 1 else pop.n_agents
        walker = simulate._Walker(pop)
        for start in range(0, end, size):
            block = slice(start, min(start + size, end))
            walker.walk(perm[block], checks[block])
        want = online.records[:made] if size == 1 else online.records
        assert as_tuples(pop, values, walker.records) == want
        monkeypatch.setattr(simulate, "_CHUNK", size)
        assert as_tuples(pop, values, simulate._run_greedy(instance, pop)) == greedy.records
    return len(online.records), len(greedy.records)


@pytest.mark.parametrize("k", range(10))
def test_walks_equal_the_deque_walker_on_the_suite(k, monkeypatch):
    # criterion 5's markets and first seeds, a tenth of its horizon
    instance = fixed_suite()[k]
    seed = derive_seed(9105, k, 0)
    pop = generate_population(instance, 1e4, seed)
    assert min(check_walks(instance, pop, seed, 0.5, monkeypatch)) > 1000


@pytest.mark.parametrize("seed", range(20))
def test_walks_equal_the_deque_walker_on_lattices(seed, monkeypatch):
    rng = random.Random(5000 + seed)
    instance = tied_instance(rng, rng.randint(1, 4))
    pop = lattice_population(instance, 30.0, rng)
    check_walks(instance, pop, seed, rng.choice([0.5, 0.75, 1.0]), monkeypatch)


@pytest.mark.parametrize("size", WALK_CHUNKS)
def test_decided_run_yields_the_deque_walkers_records(size, monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", size)
    instance = fixed_suite()[9]
    solution = solve_upper_bound(instance)
    run = DecidedRun(instance, solution, 0.5, horizon=300.0, seed=derive_seed(9105, 9, 1))
    values = instance.values.dense()
    oracle = DequeWalker(instance, run.pop)
    for start, perm, checks, records in run:
        assert start == oracle.walked and len(perm) == min(size, run.pop.n_agents - start)
        made = len(oracle.records)
        oracle.walk(candidate_walks(perm, checks))
        assert as_tuples(run.pop, values, records) == oracle.records[made:]
    assert oracle.walked == run.pop.n_agents and len(oracle.records) > 100
