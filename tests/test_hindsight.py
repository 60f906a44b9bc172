"""Hindsight benchmark: compatibility graph, exact matcher, estimator, and
the clearing pool matcher.

The sweep is validated against tests/oracles.py's full enumeration, the
bitmask DP per component it replaced, and graphs small enough to solve by
hand, under both candidate rules; the pool matcher against the bitmask
pool matcher it replaced, the enumeration and networkx.
"""

import math
import random

import numpy as np
import pytest

from dynmatch import (
    MatchingTooLargeError,
    PolicyConfig,
    PolicyKind,
    build_compatibility_graph,
    generate_population,
    hindsight,
    hindsight_value_estimate,
    max_weight_matching_exact,
    run_simulation,
    solve_upper_bound,
)
from dynmatch.hindsight import (
    CompatibilityGraph,
    _build_graph,
    _frontier,
    _sweep,
    max_weight_pool,
)

from helpers import drawn_instance, make_instance, one_type, random_instance
from oracles import (
    best_matching_by_enumeration,
    graph_edges_by_walk,
    matching_by_components,
    matching_weight,
    windows_overlap,
)
from oracles import max_weight_pool as bitmask_pool


def graph_of(windows, edge_values, horizon=100.0):
    """windows: list of (arrival, departure); edges keyed by node index."""
    n = len(windows)
    edges = sorted(edge_values)
    return CompatibilityGraph(
        types=np.zeros(n, dtype=np.int64),
        serials=np.arange(n),
        arrival=np.array([a for a, _ in windows], dtype=np.float64),
        departure=np.array([d for _, d in windows], dtype=np.float64),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        weights=np.array([edge_values[e] for e in edges], dtype=np.float64),
        horizon=horizon,
    )


def lattice_graph(rng, max_agents):
    """A random market with impatient types, and a population whose
    arrivals and stays lie on a coarse lattice, so exact ties between
    arrivals, departures and zero-length windows are common."""
    inst = random_instance(rng, rng.randint(2, 5), allow_impatient=True)
    n = rng.randint(0, max_agents)
    types = np.array([rng.randrange(inst.n_types) for _ in range(n)], dtype=np.int64)
    arrivals = np.array([rng.randint(0, 12) * 0.5 for _ in range(n)])
    stay = np.array([
        0.0 if inst.types[x].impatient
        else rng.choice([0.5, 1.0, 2.5, math.inf, rng.randint(1, 5) * 0.5])
        for x in types.tolist()
    ])
    return inst, _build_graph(types, np.arange(n), arrivals, arrivals + stay, inst, 10.0)


def market_graph(rng, horizon, seed):
    """A random market with impatient types and one sampled population."""
    inst = random_instance(rng, rng.randint(1, 5), allow_impatient=True)
    pop = generate_population(inst, horizon, seed)
    return _build_graph(*pop.agents(), inst, pop.horizon)


def by_type_value(graph, exact_threshold=20):
    return _sweep(graph, _frontier(graph, exact_threshold), by_type=True)[1]


def dp_value(graph):
    edges = zip(graph.edges[:, 0].tolist(), graph.edges[:, 1].tolist(), graph.weights.tolist())
    return matching_by_components(graph.n_nodes, list(edges))[1]


def overlaps(ai, di, aj, dj):
    """Whether the graph builder joins two agents of a unit-value type
    present on [ai, di) and [aj, dj)."""
    g = _build_graph(np.array([0, 0]), np.array([0, 1]), np.array([ai, aj]),
                     np.array([di, dj]), one_type(), 100.0)
    return g.n_edges == 1


class TestOverlapRule:
    def test_disjoint_windows_no_overlap(self):
        assert not overlaps(0.0, 1.0, 2.0, 3.0)
        assert not overlaps(2.0, 3.0, 0.0, 1.0)

    def test_plain_overlap(self):
        assert overlaps(0.0, 2.0, 1.0, 3.0)
        assert overlaps(1.0, 3.0, 0.0, 2.0)

    def test_touching_endpoints_do_not_overlap(self):
        # [0,1) and [1,2): the first is already gone
        assert not overlaps(0.0, 1.0, 1.0, 2.0)

    def test_instant_agent_inside_a_window(self):
        # impatient arrival at 1.5 caught by an agent present on [1, 2),
        # and at 1.0 by one arriving at that same instant
        assert overlaps(1.5, 1.5, 1.0, 2.0)
        assert overlaps(1.0, 2.0, 1.5, 1.5)
        assert overlaps(1.0, 1.0, 1.0, 2.0)
        assert overlaps(1.0, 2.0, 1.0, 1.0)

    def test_two_simultaneous_instant_agents_missed(self):
        # both vanish at the instant they appear; neither is present for
        # the other, matching the engine which never pools impatient agents
        assert not overlaps(1.5, 1.5, 1.5, 1.5)

    def test_unbounded_departure(self):
        assert overlaps(0.0, math.inf, 5.0, 6.0)


class TestGraphFromTrace:
    def trace_and_instance(self, seed=5, horizon=80.0):
        inst = make_instance(
            [("a", 1.0, 0.9), ("b", 0.8, None)],
            {(0, 0): 0.4, (0, 1): 1.0},
        )
        trace, _ = run_simulation(
            inst, PolicyConfig(kind=PolicyKind.NO_OP), None,
            horizon=horizon, seed=seed,
        )
        return inst, trace

    def test_nodes_cover_all_arrivals(self):
        inst, trace = self.trace_and_instance()
        g = build_compatibility_graph(trace, inst)
        from dynmatch.simulate import ArrivalEvent

        arrivals = [e for e in trace if isinstance(e, ArrivalEvent)]
        assert g.n_nodes == len(arrivals)
        order = list(zip(g.arrival.tolist(), g.types.tolist(), g.serials.tolist()))
        assert order == sorted(order)

    def test_edges_respect_overlap_and_value(self):
        inst, trace = self.trace_and_instance()
        g = build_compatibility_graph(trace, inst)
        assert g.n_edges > 0
        a, d, t = g.arrival.tolist(), g.departure.tolist(), g.types.tolist()
        for (i, j), w in zip(g.edges.tolist(), g.weights.tolist()):
            assert i < j
            assert windows_overlap(a[i], d[i], a[j], d[j])
            assert w == inst.values.get(t[i], t[j])
            assert w > 0.0

    def test_zero_value_pairs_never_become_edges(self):
        inst, trace = self.trace_and_instance()
        g = build_compatibility_graph(trace, inst)
        for i, j in g.edges.tolist():
            assert {int(g.types[i]), int(g.types[j])} != {1}  # v_bb = 0

    def test_array_layout(self):
        inst, trace = self.trace_and_instance()
        g = build_compatibility_graph(trace, inst)
        m = g.n_edges
        assert m > 0
        assert g.edges.shape == (m, 2) and g.edges.dtype == np.int64
        assert g.weights.shape == (m,) and g.weights.dtype == np.float64
        assert (g.edges[:, 0] < g.edges[:, 1]).all()
        rows = g.edges.tolist()
        assert rows == sorted(rows)
        for column in (g.types, g.serials, g.arrival, g.departure):
            assert column.shape == (g.n_nodes,)

    def test_edgeless_graph_layout(self):
        # two agents of a type with no self value: nodes but no edges
        g = _build_graph(np.array([0, 0]), np.array([0, 1]), np.array([0.0, 1.0]),
                         np.array([5.0, 6.0]), make_instance([("a", 1.0, 1.0)], {}), 10.0)
        assert g.n_nodes == 2 and g.n_edges == 0
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert g.weights.shape == (0,) and g.weights.dtype == np.float64


class TestEdgesAgreeWithPairWalk:
    """The searchsorted edge enumeration against the pair walk it replaced:
    the same edges and weights in the same order."""

    @pytest.mark.parametrize("seed", range(12))
    def test_lattice_populations(self, seed):
        inst, g = lattice_graph(random.Random(500 + seed), 60)
        edges, weights = graph_edges_by_walk(g.types, g.arrival, g.departure, inst)
        assert g.edges.tolist() == edges
        assert g.weights.tolist() == weights
        order = list(zip(g.arrival.tolist(), g.types.tolist(), g.serials.tolist()))
        assert order == sorted(order)

    @pytest.mark.parametrize("seed", range(4))
    def test_simulated_traces(self, seed):
        rng = random.Random(900 + seed)
        inst = random_instance(rng, 4, allow_impatient=True)
        trace, _ = run_simulation(
            inst, PolicyConfig(kind=PolicyKind.GREEDY), None, horizon=60.0, seed=seed
        )
        g = build_compatibility_graph(trace, inst)
        edges, weights = graph_edges_by_walk(g.types, g.arrival, g.departure, inst)
        assert (g.edges.tolist(), g.weights.tolist()) == (edges, weights)


class TestExactMatcher:
    def test_triangle_takes_heaviest_edge(self):
        g = graph_of(
            [(0, 10), (0, 10), (0, 10)],
            {(0, 1): 3.0, (0, 2): 2.0, (1, 2): 1.0},
        )
        matching, value = max_weight_matching_exact(g)
        assert value == 3.0 and matching == {(0, 1)}

    def test_path_of_two_equal_edges(self):
        g = graph_of([(0, 10)] * 3, {(0, 1): 2.0, (1, 2): 2.0})
        _, value = max_weight_matching_exact(g)
        assert value == 2.0

    def test_two_light_edges_beat_one_heavy(self):
        g = graph_of(
            [(0, 10)] * 4,
            {(0, 1): 1.0, (2, 3): 1.0, (0, 2): 1.5},
        )
        matching, value = max_weight_matching_exact(g)
        assert value == 2.0 and matching == {(0, 1), (2, 3)}

    def test_empty_graph(self):
        g = graph_of([(0, 1)] * 3, {})
        matching, value = max_weight_matching_exact(g)
        assert matching == set() and value == 0.0

    def test_matching_is_disjoint_and_uses_graph_edges(self):
        rng = random.Random(9)
        windows = [(rng.uniform(0, 5), rng.uniform(5, 10)) for _ in range(12)]
        edges = {}
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.4:
                    edges[(i, j)] = rng.uniform(0.1, 1.0)
        g = graph_of(windows, edges)
        matching, value = max_weight_matching_exact(g)
        assert matching_weight(matching, edges) == pytest.approx(value)
        assert all(e in edges for e in matching)

    @pytest.mark.parametrize("trial", range(30))
    def test_agrees_with_full_enumeration(self, trial):
        rng = random.Random(500 + trial)
        n = rng.randint(2, 8)
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.55:
                    edges[(i, j)] = rng.uniform(0.0, 1.0)
        edges = {e: w for e, w in edges.items() if w > 0}
        g = graph_of([(0, 1)] * n, edges)
        _, value = max_weight_matching_exact(g)
        assert value == pytest.approx(
            best_matching_by_enumeration(n, edges), abs=1e-12
        )

    def test_threshold_binds_the_frontier_not_the_graph(self):
        # 30 nodes in 15 disjoint pairs: at most one node is ever open
        edges = {(2 * k, 2 * k + 1): 1.0 for k in range(15)}
        g = graph_of([(0, 1)] * 30, edges)
        _, value = max_weight_matching_exact(g, exact_threshold=1)
        assert value == 15.0

    @pytest.mark.parametrize("width", [1, 3, 6])
    def test_oversized_frontier_raises(self, width):
        # nodes 0 .. width-1 all wait for their one neighbour, node width;
        # the path behind it keeps the frontier at one node
        edges = {(k, width): 1.0 + k for k in range(width)}
        edges.update({(width + k, width + k + 1): 0.1 * (k + 1) for k in range(5)})
        g = graph_of([(0, 1)] * (width + 6), edges)
        with pytest.raises(MatchingTooLargeError, match=f"frontier of {width} nodes"):
            max_weight_matching_exact(g, exact_threshold=width - 1)
        matching, value = max_weight_matching_exact(g, exact_threshold=width)
        assert matching == {(width - 1, width), (width + 2, width + 3), (width + 4, width + 5)}
        assert value == pytest.approx(width + 0.8)

    def test_a_long_path_has_a_frontier_of_one(self):
        # one connected component of 200 nodes, far beyond any bitmask DP
        edges = {(k, k + 1): 1.0 + (k % 3 == 0) for k in range(199)}
        g = graph_of([(0, 1)] * 200, edges)
        _, value = max_weight_matching_exact(g, exact_threshold=1)
        assert value == pytest.approx(dp_chain(edges, 200))


def dp_chain(edges, n):
    """Max-weight matching of the path 0 - 1 - ... - n-1 by the textbook
    recursion over prefixes."""
    best = [0.0, 0.0]
    for k in range(1, n):
        best.append(max(best[-1], best[-2] + edges[(k - 1, k)]))
    return best[-1]


class TestSweepAgreesWithBitmaskDP:
    """Both candidate rules against the bitmask DP per component, on
    population graphs small enough for it."""

    @pytest.mark.parametrize("seed", range(16))
    def test_random_markets(self, seed):
        g = market_graph(random.Random(700 + seed), 2.0, seed)
        want = dp_value(g)
        assert by_type_value(g) == pytest.approx(want, rel=1e-12)
        matching, value = max_weight_matching_exact(g)
        assert value == pytest.approx(want, rel=1e-12)
        weights = dict(zip(map(tuple, g.edges.tolist()), g.weights.tolist()))
        assert matching_weight(matching, weights) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("seed", range(24))
    def test_lattice_populations(self, seed):
        _, g = lattice_graph(random.Random(600 + seed), 18)
        want = dp_value(g)
        assert by_type_value(g) == pytest.approx(want, rel=1e-12)
        assert max_weight_matching_exact(g)[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(24))
    def test_small_populations_agree_with_enumeration(self, seed):
        _, g = lattice_graph(random.Random(800 + seed), 10)
        weights = dict(zip(map(tuple, g.edges.tolist()), g.weights.tolist()))
        want = best_matching_by_enumeration(g.n_nodes, weights)
        assert by_type_value(g) == pytest.approx(want, rel=1e-12)
        assert max_weight_matching_exact(g)[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_candidate_rules_agree_beyond_the_dp(self, seed):
        # busy periods far larger than the DP could take
        g = market_graph(random.Random(900 + seed), 20.0, seed)
        assert by_type_value(g) == pytest.approx(max_weight_matching_exact(g)[1], rel=1e-12)


def pool_values(rng, n_types):
    """A symmetric value matrix whose entries repeat (ties) and include
    zeros and negatives, which are no edges."""
    values = [[0.0] * n_types for _ in range(n_types)]
    for x in range(n_types):
        for y in range(x, n_types):
            v = rng.choice([-0.5, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0, rng.uniform(-0.2, 1.0)])
            values[x][y] = values[y][x] = v
    return values


def random_pool(rng, n_types, size):
    return tuple(sorted(rng.randrange(n_types) for _ in range(size)))


def pool_edges(pool, values):
    return {
        (i, j): values[pool[i]][pool[j]]
        for i in range(len(pool))
        for j in range(i + 1, len(pool))
        if values[pool[i]][pool[j]] > 0.0
    }


class TestPoolMatcher:
    """The count matcher against the bitmask DP it replaced, which it must
    reproduce pair for pair, and against independent optima."""

    def test_agrees_with_enumeration(self):
        rng = random.Random(77)
        for _ in range(2000):
            n_types = rng.randint(1, 5)
            values = pool_values(rng, n_types)
            pool = random_pool(rng, n_types, rng.randint(0, 9))
            pairs = max_weight_pool(pool, values)
            assert pairs == bitmask_pool(len(pool), lambda i, j: values[pool[i]][pool[j]])
            edges = pool_edges(pool, values)
            assert all(e in edges for e in pairs)
            assert matching_weight(set(pairs), edges) == pytest.approx(
                best_matching_by_enumeration(len(pool), edges), abs=1e-12
            )

    def test_pairs_equal_the_bitmask_dp_up_to_18_agents(self):
        rng = random.Random(78)
        for _ in range(400):
            n_types = rng.randint(1, 6)
            values = pool_values(rng, n_types)
            pool = random_pool(rng, n_types, rng.randint(10, 18))
            assert max_weight_pool(pool, values) == bitmask_pool(
                len(pool), lambda i, j: values[pool[i]][pool[j]]
            )

    def test_large_pools_agree_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(79)
        for _ in range(20):
            n_types = rng.randint(1, 4)
            values = pool_values(rng, n_types)
            pool = random_pool(rng, n_types, rng.randint(21, 60))
            edges = pool_edges(pool, values)
            g = nx.Graph()
            g.add_weighted_edges_from((i, j, w) for (i, j), w in edges.items())
            want = sum(edges[min(e), max(e)] for e in nx.max_weight_matching(g))
            assert matching_weight(set(max_weight_pool(pool, values)), edges) == pytest.approx(
                want, abs=1e-9
            )


def pool_components(pool, values):
    """The types present in the pool, split into connected components."""
    present = sorted(set(pool))
    linked = [[j for j, y in enumerate(present) if y != x and values[x][y] > 0.0]
              for x in present]
    return [[present[k] for k in comp] for comp in hindsight._components(len(present), linked)]


def component_states(pool, values):
    """The most count vectors of any component of the pool: the product of
    count + 1 over the component's types."""
    return max((math.prod(pool.count(x) + 1 for x in comp)
                for comp in pool_components(pool, values)), default=1)


def pairs_or_raises(pool, values, tables=None):
    try:
        return max_weight_pool(pool, values, tables)
    except MatchingTooLargeError:
        return "raises"


class TestSharedTables:
    """Periodic clearing shares one table of optimal values per component
    across the pools of a run. Each pool's pairs, and whether it raises,
    must be those of the pool matched alone."""

    def test_pairs_equal_each_pool_matched_alone(self, monkeypatch):
        seen = []
        inner = hindsight.max_weight_pool

        def spy(pool, values, tables=None):
            pairs = inner(pool, values, tables)
            seen.append((pool, values, pairs, tables))
            return pairs

        monkeypatch.setattr(hindsight, "max_weight_pool", spy)
        markets = [random_instance(random.Random(8000 + k), random.Random(k).randint(2, 5),
                                   allow_impatient=True) for k in range(12)]
        # two pairs of types that never match across: pools of two components
        markets.append(make_instance(
            [("a", 1.0, 0.4), ("b", 0.8, 0.5), ("c", 1.2, 0.3), ("d", 0.6, 0.6), ("e", 1.0, None)],
            {(0, 0): 0.3, (0, 1): 1.0, (2, 3): 0.7, (3, 3): 0.2, (1, 4): 0.5},
        ))
        for k, inst in enumerate(markets):
            period = (1.0, 2.0, 4.0)[k % 3]
            policy = PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=period)
            run_simulation(inst, policy, horizon=300.0, seed=k, record_trace=False)
        assert len(seen) > 500
        # one set of tables per run, held alive here so that ids stay distinct
        assert len({id(tables) for *_, tables in seen}) == len(markets)
        split = 0
        for pool, values, pairs, _ in seen:
            assert pairs == inner(pool, values)
            split += len(pool_components(pool, values)) > 1
        assert split > 50

    def test_a_filled_table_raises_only_where_the_pool_alone_does(self, monkeypatch):
        rng = random.Random(81)
        raised = passed_over_budget = 0
        for budget in (8, 20, 50, 120):
            monkeypatch.setattr(hindsight, "POOL_STATE_BUDGET", budget)
            for _ in range(40):
                n_types = rng.randint(1, 4)
                values = pool_values(rng, n_types)
                tables: dict = {}
                # growing pools: the earlier ones fill the tables the later read
                for size in sorted(rng.randint(0, 16) for _ in range(12)):
                    pool = random_pool(rng, n_types, size)
                    alone = pairs_or_raises(pool, values)
                    assert pairs_or_raises(pool, values, tables) == alone
                    raised += alone == "raises"
                    big = component_states(pool, values) > budget
                    passed_over_budget += alone != "raises" and big
        assert raised > 20 and passed_over_budget > 20


class TestHindsightEstimate:
    def small_instance(self):
        return make_instance(
            [("a", 0.6, 1.2), ("b", 0.5, 0.8)],
            {(0, 1): 1.0, (0, 0): 0.4},
        )

    def test_deterministic(self):
        inst = self.small_instance()
        assert hindsight_value_estimate(inst, 30.0, 8, seed=3) == (
            hindsight_value_estimate(inst, 30.0, 8, seed=3)
        )

    def test_zero_value_market_scores_zero(self):
        inst = make_instance([("a", 1.0, 1.0)], {})
        mean, se = hindsight_value_estimate(inst, 40.0, 5, seed=2)
        assert mean == 0.0 and se == 0.0

    def test_tiny_horizon_near_zero(self):
        mean, _ = hindsight_value_estimate(one_type(), 0.01, 5, seed=4)
        assert mean < 0.5  # almost never two agents to pair

    def test_requires_two_replications(self):
        with pytest.raises(ValueError):
            hindsight_value_estimate(one_type(), 10.0, 1, seed=1)

    def test_wide_market_raises_before_the_sweep(self, monkeypatch):
        # the benchmark's 40-type market keeps about 70 agents open at once
        def no_sweep(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(hindsight, "_sweep", no_sweep)
        wide = drawn_instance(random.Random(40), 40)
        with pytest.raises(MatchingTooLargeError, match=r"frontier of \d\d+ nodes exceeds"):
            hindsight_value_estimate(wide, 200.0, 2, seed=1)

    def test_dominates_online_policy_pathwise(self):
        # the realized online matching is one feasible matching of the same
        # population's graph, so its value can never exceed the optimum
        inst = self.small_instance()
        sol = solve_upper_bound(inst)
        for seed in range(6):
            trace, _ = run_simulation(
                inst, PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=0.5),
                sol, horizon=40.0, seed=seed, burn_in=0.0,
            )
            g = build_compatibility_graph(trace, inst)
            _, best = max_weight_matching_exact(g, exact_threshold=30)
            online_total = sum(m.value for m in trace.matches())
            assert online_total <= best + 1e-9

    def test_greedy_also_dominated(self):
        inst = self.small_instance()
        for seed in range(6):
            trace, _ = run_simulation(
                inst, PolicyConfig(kind=PolicyKind.GREEDY), None,
                horizon=40.0, seed=seed, burn_in=0.0,
            )
            g = build_compatibility_graph(trace, inst)
            _, best = max_weight_matching_exact(g, exact_threshold=30)
            assert sum(m.value for m in trace.matches()) <= best + 1e-9
