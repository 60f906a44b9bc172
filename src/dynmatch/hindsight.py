"""Optimal-in-hindsight benchmark on realized runs.

Given the full realization of a run (every agent's arrival and shadow
departure), the best any policy could have done is a maximum-weight
matching on the compatibility graph: nodes are agents, edges join pairs
whose presence windows overlap and whose type pair has positive value.
Presence windows are [arrival, departure) half-open, so an impatient agent
(zero-length window) is compatible exactly with agents present at its
arrival instant, which mirrors the simulator's matching rule.

The matcher is exact: one sweep over the agents in arrival order keeps,
for each set of earlier agents open (with a later neighbour) and not yet
matched, the best value so far. No bound prunes the search. Cost is
exponential in the frontier width, the most agents open at once, not in
run length or busy-period size; a width above the threshold raises
MatchingTooLargeError up front instead of falling back to a heuristic.

Periodic clearing's pools go to max_weight_pool: an exact search on
per-type counts, with a state budget that raises the same error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import AgentId, MarketInstance, validate_instance
from .randomness import derive_seed
from .simulate import EventTrace, generate_population


class MatchingTooLargeError(RuntimeError):
    """A market exceeds the exact matcher's frontier threshold or state budget."""


@dataclass(frozen=True, eq=False)
class CompatibilityGraph:
    """Agents of one run with pairwise matchability edges.

    Node columns, in (arrival, type, serial) order: types, serials,
    arrival and departure (+inf when the agent outlives the recorded
    horizon). edges is (m, 2) int64, rows (i, j) with i < j in
    lexicographic order; weights are the (m,) match values, all positive.
    """

    types: np.ndarray
    serials: np.ndarray
    arrival: np.ndarray
    departure: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    horizon: float

    @property
    def n_nodes(self) -> int:
        return len(self.types)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _build_graph(
    types: np.ndarray,
    serials: np.ndarray,
    arrivals: np.ndarray,
    departures: np.ndarray,
    instance: MarketInstance,
    horizon: float,
) -> CompatibilityGraph:
    """Node columns sorted by (arrival, type, serial), and every
    positive-value edge (i, j), i < j, in lexicographic order.

    With arrivals ascending, the [a, d) windows of i < j overlap iff
    a_j < d_i, or a_j == a_i < d_j (an agent arriving at the same instant
    as a zero-length window). So node i's candidates run from i + 1 up to
    the first arrival at or after d_i, extended over the arrivals tied
    with a_i.
    """
    order = np.lexsort((serials, types, arrivals))
    t, a, d = types[order], arrivals[order], departures[order]
    n = len(a)
    end = np.maximum(np.searchsorted(a, d, "left"), np.searchsorted(a, a, "right"))
    counts = np.maximum(end - np.arange(n) - 1, 0)
    i = np.repeat(np.arange(n), counts)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    k = instance.n_types
    w = np.array(instance.values.dense(), dtype=float).reshape(k, k)[t[i], t[j]]
    keep = ((a[j] < d[i]) | ((a[j] == a[i]) & (a[i] < d[j]))) & (w > 0.0)
    edges = np.stack((i[keep], j[keep]), axis=1)
    return CompatibilityGraph(t, serials[order], a, d, edges, w[keep], horizon)


def build_compatibility_graph(
    trace: EventTrace, instance: MarketInstance
) -> CompatibilityGraph:
    """Read every agent's presence window off a trace and build the graph.

    The trace must carry shadow departures (matched agents keep their
    sampled lifetime). An agent without a departure row is alive past the
    horizon; its window is treated as unbounded, which yields exactly the
    right edges because every other arrival falls inside [0, horizon].
    """
    types, serials, arrivals, departures, orphans = trace.lifetimes()
    if len(orphans):
        agent = AgentId(int(trace.a_type[orphans[0]]), int(trace.a_serial[orphans[0]]))
        raise ValueError(f"trace missing lifetime data: {agent.text()} never arrives")
    return _build_graph(types, serials, arrivals, departures, instance, trace.horizon)


# ---------------------------------------------------------------------------
# exact matching


def _frontier(graph: CompatibilityGraph, exact_threshold: int) -> np.ndarray:
    """Each node's last neighbour, -1 if none is later: node i is open from
    its step to that one's. Raises MatchingTooLargeError if more than
    exact_threshold nodes are open at once."""
    n = graph.n_nodes
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, graph.edges[:, 0], graph.edges[:, 1])
    opens = np.flatnonzero(last >= 0)
    width = np.cumsum(np.bincount(opens, minlength=n) - np.bincount(last[opens], minlength=n))
    if width.max(initial=0) > exact_threshold:
        raise MatchingTooLargeError(
            f"frontier of {width.max()} nodes exceeds the exact threshold {exact_threshold}"
        )
    return last


def _sweep(
    graph: CompatibilityGraph, last: np.ndarray, by_type: bool
) -> tuple[set[tuple[int, int]], float]:
    """Max-weight matching by one sweep over the nodes in index order.

    A state is the set of open nodes not yet matched, a bitmask over slots
    that leaving nodes free, with its best value so far (>= 0: weights are
    positive). Node j maps each state to one where j stays unmatched (and
    takes a slot if it has a later neighbour) and one per candidate, an
    open unmatched neighbour that j takes; then the nodes whose last
    neighbour is j drop out. Every matching arises so, each pair made at
    its later node, so the sweep is exact; lone nodes cost nothing.

    Without by_type every open neighbour is a candidate and back-pointers
    give the pairs; a tie keeps the first option found, unmatched first.
    With by_type only the value is found, and j tries, per neighbour type,
    the unmatched one that departs first. That is exact on _build_graph's
    edges, the overlapping windows of positive-value type pairs. Say
    candidates i and i' of j share a type and d_i <= d_i'. An edge (i, k),
    k > j, has a_k < d_i <= d_i', or a_i = a_k < d_k and so a_j = a_k;
    then the edge (i', j) has a_k = a_j < d_i' or a_i' = a_j = a_k < d_k.
    Either way (i', k) is an edge of the same value, so i leaves the
    frontier no later than i', and a best completion after j takes i'
    gives one of equal value after j takes i: i' takes i's later partner.
    A zero-length window (a_i = d_i) has only second-case edges: covered.
    """
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    order = np.lexsort((graph.departure[i], graph.types[i], j) if by_type else (i, j))
    src, dst = i[order], j[order]
    fresh = np.ones(len(order), dtype=bool)  # where a group of candidates starts
    if by_type:
        fresh[1:] = (dst[1:] != dst[:-1]) | (graph.types[src[1:]] != graph.types[src[:-1]])
    opens = last >= 0
    steps = np.flatnonzero(opens | (np.bincount(j, minlength=graph.n_nodes) > 0))
    leavers = np.flatnonzero(opens)[np.argsort(last[opens], kind="stable")]
    ends = zip(*(np.searchsorted(c, steps, "right").tolist() for c in (dst, last[leavers])))
    src, weights, fresh, leavers = (x.tolist() for x in (src, graph.weights[order], fresh, leavers))

    bit_of: dict[int, int] = {}
    free: list[int] = []
    states = {0: (0.0, 0, -1)}  # mask: (value, mask before the step, partner taken)
    back = []
    e0 = x0 = 0
    for node, enters, (e1, x1) in zip(steps.tolist(), opens[steps].tolist(), ends):
        groups: list[tuple[float, list[tuple[int, int]]]] = []
        for e in range(e0, e1):
            if fresh[e]:
                groups.append((weights[e], []))
            groups[-1][1].append((bit_of[src[e]], src[e]))
        keep = -1
        for x in leavers[x0:x1]:
            keep ^= bit_of[x]
            free.append(bit_of.pop(x))
        e0, x0 = e1, x1
        bit = (free.pop() if free else 1 << len(bit_of)) if enters else 0
        if bit:
            bit_of[node] = bit
        new: dict[int, tuple[float, int, int]] = {}
        get = new.get
        for mask, (val, _, _) in states.items():
            base = mask & keep
            if val > get(base | bit, (-1.0,))[0]:
                new[base | bit] = (val, mask, -1)
            for w, cands in groups:
                for b, partner in cands:
                    if mask & b:
                        if val + w > get(base & ~b, (-1.0,))[0]:
                            new[base & ~b] = (val + w, mask, partner)
                        break
        states = new
        if not by_type:
            back.append(new)
    pairs, mask = set(), 0
    for node, step in zip(reversed(steps.tolist()), reversed(back)):
        _, mask, partner = step[mask]
        if partner >= 0:
            pairs.add((partner, node))
    return pairs, states[0][0]


def max_weight_matching_exact(
    graph: CompatibilityGraph, exact_threshold: int = 20
) -> tuple[set[tuple[int, int]], float]:
    """Globally optimal matching; returns ((i, j) node-index edges, value).

    The edges may be any (i, j), i < j: every open neighbour is tried.
    The cost is exponential in the frontier width, the most nodes open at
    once, so a width above exact_threshold raises MatchingTooLargeError.
    """
    return _sweep(graph, _frontier(graph, exact_threshold), by_type=False)


POOL_STATE_BUDGET = 200_000  # count vectors per component of a clearing pool


def _components(n: int, adjacency: list[list[int]]) -> list[list[int]]:
    seen = [False] * n
    out: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in adjacency[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    frontier.append(j)
        comp.sort()
        out.append(comp)
    return out


def max_weight_pool(
    pool: tuple[int, ...], values: list[list[float]], tables: dict | None = None
) -> list[tuple[int, int]]:
    """Exact pool matcher for periodic clearing: pool lists the agents'
    types in ascending order, values is the dense value matrix (only
    positive values are edges). Returns the sorted index pairs (i, j),
    i < j, of an optimal matching.

    Agents of one type are interchangeable, so the search runs on per-type
    counts, per connected component of the present types: the lowest type
    x present either leaves one agent unmatched or pairs it with a type
    y >= x, tried in ascending order, a candidate kept only if strictly
    better. Reconstruction keeps "unmatched" on a tie, else the lowest
    optimal y, and takes agents from the front of each type's run. These
    are the rules of the bitmask DP in tests/oracles.py on the pool in
    (type, serial) order, so the pairs are the same. The work is
    polynomial in pool size and exponential in the number of types
    present; a component that needs more than POOL_STATE_BUDGET states
    raises MatchingTooLargeError. tables, if given, maps a component's
    types to optimal values by count vector, shared by the pools passed
    with it: a component of at most POOL_STATE_BUDGET count vectors (the
    product of count + 1) uses it, a larger one a table of its own, so it
    raises exactly when it raises alone.
    """
    present = sorted(set(pool))
    linked = [[j for j, y in enumerate(present) if y != x and values[x][y] > 0.0] for x in present]
    out: list[tuple[int, int]] = []
    for comp in _components(len(present), linked):
        types = tuple(present[k] for k in comp)
        if len(types) > 1 or values[types[0]][types[0]] > 0.0:
            counts = [pool.count(x) for x in types]
            shared = tables is not None and math.prod(c + 1 for c in counts) <= POOL_STATE_BUDGET
            out += _count_matching(
                types, counts, [pool.index(x) for x in types], values,
                tables.setdefault(types, {0: 0.0}) if shared else {0: 0.0}, not shared,
                f"clearing pool of {len(pool)} agents over {len(present)} types",
            )
    return sorted(out)


def _count_matching(
    types: tuple[int, ...], counts: list[int], first: list[int], values: list[list[float]],
    best: dict[int, float], budget: bool, pool: str,
) -> list[tuple[int, int]]:
    """One component's pairs by pool index; type k has counts[k] agents
    from pool index first[k] on. A state is a count vector, type k being
    digit k of a width that fits any count a shared table meets, so taking
    an agent of type k subtracts unit[k]. best maps states to optimal
    values; with budget it is the pool's own, held to POOL_STATE_BUDGET."""
    k = len(types)
    width = max(POOL_STATE_BUDGET, *counts).bit_length()
    shift = [width * i for i in range(k)]
    unit = [1 << s for s in shift]
    digit = (1 << width) - 1
    partners = [
        [(j, values[types[i]][types[j]]) for j in range(i, k) if values[types[i]][types[j]] > 0.0]
        for i in range(k)
    ]

    def split(s: int) -> tuple[int, int, list[tuple[int, float, int]]]:
        """The lowest type present, the state without one of its agents,
        and each partner type still available there with its state."""
        i = 0
        while not s >> shift[i] & digit:
            i += 1
        r = s - unit[i]
        return i, r, [(j, w, r - unit[j]) for j, w in partners[i] if r >> shift[j] & digit]

    full = sum(c << s for c, s in zip(counts, shift))
    stack = [full]
    while stack:
        s = stack[-1]
        if s in best:
            stack.pop()
            continue
        _, r, options = split(s)
        todo = [u for u in (r, *(u for _, _, u in options)) if u not in best]
        if todo:
            stack += todo
            continue
        best[s] = max([best[r]] + [w + best[u] for _, w, u in options])
        if budget and len(best) > POOL_STATE_BUDGET:
            raise MatchingTooLargeError(f"{pool} needs more than {POOL_STATE_BUDGET} matcher states")

    pairs: list[tuple[int, int]] = []
    taken = list(first)
    s = full
    while s:
        i, r, options = split(s)
        taken[i] += 1
        if best[s] == best[r]:
            s = r  # unmatched is optimal; ties prefer unmatched
            continue
        j, _, s = next(o for o in options if o[1] + best[o[2]] == best[s])
        pairs.append((taken[i] - 1, taken[j]))
        taken[j] += 1
    return pairs


# ---------------------------------------------------------------------------
# Monte Carlo estimate


def check_estimate_settings(horizon: float, replications: int, exact_threshold: int) -> None:
    """Raise ValueError unless hindsight_value_estimate can run with these
    settings; callers check before their first run."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if replications < 2:
        raise ValueError("need at least 2 replications for a standard error")
    if exact_threshold < 1:
        raise ValueError("exact_threshold must be at least 1")


def hindsight_value_estimate(
    instance: MarketInstance,
    horizon: float,
    replications: int,
    seed: int,
    exact_threshold: int = 20,
) -> tuple[float, float]:
    """Mean and standard error of hindsight value per unit time.

    Each replication samples a fresh population (no policy is run), builds
    the compatibility graph, and solves it exactly by the value-only sweep.
    Replication r uses the lane derive_seed(seed, r). The sweep keeps at
    most 2**exact_threshold states: a population with more agents open at
    once raises MatchingTooLargeError up front, not a degraded estimate.
    """
    violations = validate_instance(instance)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(v.code for v in violations))
    check_estimate_settings(horizon, replications, exact_threshold)
    per_time = np.empty(replications)
    for r in range(replications):
        pop = generate_population(instance, horizon, derive_seed(seed, r))
        graph = _build_graph(*pop.agents(), instance, pop.horizon)
        _, value = _sweep(graph, _frontier(graph, exact_threshold), by_type=True)
        per_time[r] = value / horizon
    mean = float(per_time.mean())
    se = float(per_time.std(ddof=1) / math.sqrt(replications))
    return mean, se
