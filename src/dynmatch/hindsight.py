"""Optimal-in-hindsight benchmark on realized runs.

Given the full realization of a run (every agent's arrival and shadow
departure), the best any policy could have done is a maximum-weight
matching on the compatibility graph: nodes are agents, edges join pairs
whose presence windows overlap and whose type pair has positive value.
Presence windows are [arrival, departure) half-open, so an impatient agent
(zero-length window) is compatible exactly with agents present at its
arrival instant, which mirrors the simulator's matching rule.

The matcher is exact: per connected component, it takes the lowest
remaining vertex and either leaves it unmatched or pairs it with each of
its remaining neighbors in turn, memoized on the remaining-vertex bitmask.
No bound prunes the search. Cost is exponential in component size, not in
run length; a market that empties now and then splits the graph into short
busy-period components, which is what makes long low-load horizons
tractable. Components above the threshold raise MatchingTooLargeError
instead of silently falling back to a heuristic.

Periodic clearing's pools go to max_weight_pool: the same search on
per-type counts, with a state budget that raises the same error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .market import AgentId, MarketInstance, validate_instance
from .randomness import derive_seed
from .simulate import EventTrace, generate_population


class MatchingTooLargeError(RuntimeError):
    """A component exceeds the exact matcher's size threshold or state budget."""


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


def _mask_matching(
    member: list[int], neighbor_mask: list[int], weight: dict[tuple[int, int], float]
) -> tuple[list[tuple[int, int]], float]:
    """Max-weight matching over one component by exhaustive search on the
    lowest remaining vertex (unmatched, or paired with each remaining
    neighbor), memoized on the remaining-vertex bitmask, with no bound.
    member maps local bit positions to caller indices."""
    m = len(member)
    memo: dict[int, float] = {0: 0.0}

    def dp(mask: int) -> float:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        best = dp(rest)  # leave the lowest vertex unmatched
        nb = neighbor_mask[low] & rest
        while nb:
            jb = nb & -nb
            j = jb.bit_length() - 1
            nb ^= jb
            cand = weight[(low, j)] + dp(rest & ~jb)
            if cand > best:
                best = cand
        memo[mask] = best
        return best

    full = (1 << m) - 1
    total = dp(full)

    pairs: list[tuple[int, int]] = []
    mask = full
    while mask:
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if dp(mask) == dp(rest):
            mask = rest  # unmatched is optimal; ties prefer unmatched
            continue
        nb = neighbor_mask[low] & rest
        target = dp(mask)
        chosen = -1
        while nb:
            jb = nb & -nb
            j = jb.bit_length() - 1
            nb ^= jb
            if weight[(low, j)] + dp(rest & ~jb) == target:
                chosen = j  # lowest optimal partner
                break
        assert chosen >= 0, "reconstruction lost the optimum"
        pairs.append((member[low], member[chosen]))
        mask = rest & ~(1 << chosen)
    return pairs, total


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


def _component_problems(
    n: int, edges: list[tuple[int, int, float]]
) -> Iterator[tuple[list[int], list[int], dict[tuple[int, int], float]]]:
    """The connected components of two or more nodes of a graph on n
    nodes, given as (i, j, weight) edges with i < j. Each comes as
    (members, neighbour bitmasks, weights), where local index k (bit k of
    a mask, an entry of a weight key) stands for members[k] and weights
    are keyed both ways round."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    wmap: dict[tuple[int, int], float] = {}
    for i, j, w in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
        wmap[(i, j)] = w
    for comp in _components(n, adjacency):
        if len(comp) == 1:
            continue
        local = {node: k for k, node in enumerate(comp)}
        neighbor_mask = [0] * len(comp)
        weight: dict[tuple[int, int], float] = {}
        for node in comp:
            for other in adjacency[node]:
                li, lj = local[node], local[other]
                neighbor_mask[li] |= 1 << lj
                key = (node, other) if node < other else (other, node)
                weight[(li, lj)] = wmap[key]
        yield comp, neighbor_mask, weight


def max_weight_matching_exact(
    graph: CompatibilityGraph, exact_threshold: int = 20
) -> tuple[set[tuple[int, int]], float]:
    """Globally optimal matching; returns ((i, j) node-index edges, value).

    The size precondition binds per memoized subproblem, i.e. per connected
    component, since disconnected parts decompose exactly. A component
    larger than exact_threshold raises MatchingTooLargeError.
    """
    edges = [(i, j, w) for (i, j), w in zip(graph.edges.tolist(), graph.weights.tolist())]
    matching: set[tuple[int, int]] = set()
    total = 0.0
    for comp, neighbor_mask, weight in _component_problems(graph.n_nodes, edges):
        if len(comp) > exact_threshold:
            raise MatchingTooLargeError(
                f"component of {len(comp)} nodes exceeds the exact threshold "
                f"{exact_threshold}"
            )
        pairs, value = _mask_matching(comp, neighbor_mask, weight)
        matching.update((min(i, j), max(i, j)) for i, j in pairs)
        total += value
    return matching, total


POOL_STATE_BUDGET = 200_000  # count vectors per component of a clearing pool


def max_weight_pool(pool: tuple[int, ...], values: list[list[float]]) -> list[tuple[int, int]]:
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
    are _mask_matching's rules on the pool in (type, serial) order, so the
    pairs are the same. The work is polynomial in pool size and
    exponential in the number of types present; a component that needs
    more than POOL_STATE_BUDGET states raises MatchingTooLargeError.
    """
    present = sorted(set(pool))
    linked = [[j for j, y in enumerate(present) if y != x and values[x][y] > 0.0] for x in present]
    out: list[tuple[int, int]] = []
    for comp in _components(len(present), linked):
        types = [present[k] for k in comp]
        if len(types) > 1 or values[types[0]][types[0]] > 0.0:
            out += _count_matching(
                types, [pool.count(x) for x in types], [pool.index(x) for x in types], values,
                f"clearing pool of {len(pool)} agents over {len(present)} types",
            )
    return sorted(out)


def _count_matching(
    types: list[int], counts: list[int], first: list[int], values: list[list[float]], pool: str
) -> list[tuple[int, int]]:
    """One component's pairs by pool index; type k has counts[k] agents
    from pool index first[k] on. A state is a count vector packed in
    mixed radix, type k being digit k, so taking an agent of type k
    subtracts stride[k]."""
    k = len(types)
    radix = [c + 1 for c in counts]
    stride = [math.prod(radix[:i]) for i in range(k)]
    partners = [
        [(j, values[types[i]][types[j]]) for j in range(i, k) if values[types[i]][types[j]] > 0.0]
        for i in range(k)
    ]

    def split(s: int) -> tuple[int, int, list[tuple[int, float, int]]]:
        """The lowest type present, the state without one of its agents,
        and each partner type still available there with its state."""
        i = 0
        while s // stride[i] % radix[i] == 0:
            i += 1
        r = s - stride[i]
        return i, r, [(j, w, r - stride[j]) for j, w in partners[i] if r // stride[j] % radix[j]]

    best = {0: 0.0}
    full = sum(c * st for c, st in zip(counts, stride))
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
        if len(best) > POOL_STATE_BUDGET:
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


def check_estimate_settings(horizon: float, replications: int) -> None:
    """Raise ValueError unless hindsight_value_estimate can run at this
    horizon and replication count; callers check before their first run."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if replications < 2:
        raise ValueError("need at least 2 replications for a standard error")


def hindsight_value_estimate(
    instance: MarketInstance,
    horizon: float,
    replications: int,
    seed: int,
    exact_threshold: int = 20,
) -> tuple[float, float]:
    """Mean and standard error of hindsight value per unit time.

    Each replication samples a fresh population (no policy is run), builds
    the compatibility graph, and solves it exactly. Replication r uses the
    lane derive_seed(seed, r). The caller picks a horizon and load small
    enough for exact solving; an oversized busy period surfaces as
    MatchingTooLargeError rather than a degraded estimate.
    """
    violations = validate_instance(instance)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(v.code for v in violations))
    check_estimate_settings(horizon, replications)
    per_time = np.empty(replications)
    for r in range(replications):
        pop = generate_population(instance, horizon, derive_seed(seed, r))
        graph = _build_graph(*pop.agents(), instance, pop.horizon)
        _, value = max_weight_matching_exact(graph, exact_threshold)
        per_time[r] = value / horizon
    mean = float(per_time.mean())
    se = float(per_time.std(ddof=1) / math.sqrt(replications))
    return mean, se
