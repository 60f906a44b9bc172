"""Slow independent reference implementations used to cross-check the package.

Nothing here calls into dynmatch's solver or matcher; each oracle takes a
structurally different route to the same number so that agreement is
meaningful. The vertex enumeration and the matching searches are
exponential-time and only suitable for small inputs. The rest are code
the package replaced, kept as references: the LP with explicit cap and box
rows on a dense tableau, the compatibility-graph pair walk, the bitmask
DP per connected component that max_weight_matching_exact ran before its
arrival-order sweep, the trace walks over event objects one at a time,
periodic clearing walked over arrivals with the bitmask DP as its pool
matcher, the scalar step functions of the random-order and greedy
policies with their one-draw-at-a-time Fisher-Yates shuffle, the
random-order policy's decision blocks evaluated for a whole run in one
pass, and the walk loop over FIFO deques with one tuple per match.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dynmatch.lp import LpSolution, SimplexError, SolveStatus
from dynmatch.market import (
    INFINITE,
    AgentId,
    MarketInstance,
    MatchValueMatrix,
    validate_instance,
)
from dynmatch.policies import attempt_probabilities
from dynmatch.randomness import Rng, derive_seed

_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-10
_OBJ_TOL = 1e-10


def polytope_upper_bound(
    rates: list[float], depart: list[float], values: list[list[float]]
) -> float:
    """Optimum of the match-rate program by brute vertex enumeration.

    Variables a[x][y] (type-y arrival matched to waiting type-x agent) for
    every patient x; impatient types never wait so their rows are fixed to
    zero by omission. The program:

        max   sum_xy v[x][y] a[x][y] rates[y]
        s.t.  a[x][y] <= rates[x] / depart[x]                (stock cap)
              sum_y a[x][y] rates[y]
                + sum_y a[y][x] rates[x] <= rates[x]         (flow; the
                                            self pair a[x][x] enters twice)
              0 <= a[x][y] <= 1

    Caps and boxes are per-variable bounds, so the flow rows are the only
    coupling constraints. Every vertex therefore has at most n_types
    variables strictly between bounds: enumerate the interior set S, a
    same-size subset T of tight flow rows, and the low/high pattern of the
    remaining variables, solve the |S| x |S| system, and keep the feasible
    points. The best objective over all such points is the optimum.
    """
    n = len(rates)
    if len(depart) != n or len(values) != n:
        raise ValueError("rates, depart, values must agree on the type count")
    pairs = [(x, y) for x in range(n) if math.isfinite(depart[x]) for y in range(n)]
    m = len(pairs)
    if m == 0:
        return 0.0
    if m > 12:
        raise ValueError("oracle is exponential; refuse more than 12 variables")

    upper = np.array(
        [min(1.0, rates[x] / depart[x]) for x, _ in pairs]
    )
    cost = np.array([values[x][y] * rates[y] for x, y in pairs])
    flow = np.zeros((n, m))
    for j, (x, y) in enumerate(pairs):
        # a[x][y] lam[y] is the pair's match rate: it spends type-y arrivals
        # and type-x stock alike, so it enters both rows with weight lam[y]
        # (the self pair lands twice in its one row)
        flow[x, j] += rates[y]
        flow[y, j] += rates[y]
    budget = np.array(rates, dtype=float)

    best = -math.inf
    all_vars = range(m)
    for k in range(0, min(n, m) + 1):
        for interior in itertools.combinations(all_vars, k):
            pinned = [j for j in all_vars if j not in interior]
            q = len(pinned)
            # every low/high assignment of the pinned variables at once;
            # lower bounds are all zero so bit * upper is the pinned value
            bits = (np.arange(1 << q)[:, None] >> np.arange(q)) & 1
            x_pinned = bits * upper[pinned]
            for tight in itertools.combinations(range(n), k):
                points = np.zeros((1 << q, m))
                points[:, pinned] = x_pinned
                if k:
                    square = flow[np.ix_(tight, interior)]
                    if abs(np.linalg.det(square)) < 1e-12:
                        continue
                    rhs = budget[list(tight)] - x_pinned @ flow[
                        np.ix_(tight, pinned)
                    ].T
                    points[:, interior] = np.linalg.solve(square, rhs.T).T
                ok = (
                    (points >= -_FEAS_TOL).all(axis=1)
                    & (points <= upper + _FEAS_TOL).all(axis=1)
                    & (points @ flow.T <= budget + _FEAS_TOL).all(axis=1)
                )
                if ok.any():
                    best = max(best, float((points[ok] @ cost).max()))
    if not math.isfinite(best):
        raise RuntimeError("no feasible vertex found; the origin should qualify")
    return best


# ---------------------------------------------------------------------------
# The LP as the package first solved it: every cap and box bound written as
# its own row of a dense tableau (2n^2 + n rows). Kept as the reference for
# the bounded-variable simplex, which must land on the same vertex.


@dataclass(frozen=True)
class DenseProgram:
    """Dense `maximize c.z s.t. A z <= b, z >= 0` over the free alpha variables."""

    objective: np.ndarray  # (nv,)
    rows: np.ndarray  # (m, nv)
    bounds: np.ndarray  # (m,)
    row_labels: tuple[str, ...]
    var_pairs: tuple[tuple[int, int], ...]  # ordered (x, y) per column
    n_types: int

    @property
    def n_vars(self) -> int:
        return len(self.var_pairs)

    @property
    def n_rows(self) -> int:
        return len(self.bounds)


def build_lp_dense(instance: MarketInstance) -> DenseProgram:
    """The match-rate LP with explicit cap and box rows (2n^2 + n rows)."""
    violations = validate_instance(instance)
    if violations:
        raise ValueError(
            "invalid instance: " + "; ".join(v.code for v in violations)
        )
    n = instance.n_types
    labels = instance.labels()
    lam = [t.arrival_rate for t in instance.types]
    patient = [t.departure_rate is not INFINITE for t in instance.types]
    var_pairs = [(x, y) for x in range(n) if patient[x] for y in range(n)]
    index = {pair: j for j, pair in enumerate(var_pairs)}
    nv = len(var_pairs)
    dense_v = instance.values.dense()

    c = np.zeros(nv)
    for (x, y), j in index.items():
        c[j] = dense_v[x][y] * lam[y]

    rows: list[np.ndarray] = []
    bounds: list[float] = []
    row_labels: list[str] = []

    for (x, y), j in index.items():
        row = np.zeros(nv)
        row[j] = 1.0
        rows.append(row)
        bounds.append(lam[x] / instance.types[x].departure_rate)
        row_labels.append(f"cap:{labels[x]}->{labels[y]}")

    for x in range(n):
        row = np.zeros(nv)
        for y in range(n):
            if (x, y) in index:
                row[index[(x, y)]] += lam[y]
            if (y, x) in index:
                row[index[(y, x)]] += lam[x]
        rows.append(row)
        bounds.append(lam[x])
        row_labels.append(f"flow:{labels[x]}")

    for (x, y), j in index.items():
        row = np.zeros(nv)
        row[j] = 1.0
        rows.append(row)
        bounds.append(1.0)
        row_labels.append(f"box:{labels[x]}->{labels[y]}")

    return DenseProgram(
        objective=c,
        rows=np.array(rows) if rows else np.zeros((0, 0)),
        bounds=np.array(bounds),
        row_labels=tuple(row_labels),
        var_pairs=tuple(var_pairs),
        n_types=n,
    )


def solve_lp_dense(lp: DenseProgram) -> LpSolution:
    """Primal tableau simplex from the slack basis, on the dense tableau.

    Every row is <= with a nonnegative bound, so the slack basis is feasible
    and no artificial variables are needed (the first phase of a two-phase
    scheme is a no-op here). Dantzig pricing, switching to Bland's rule after
    2 * (rows + cols) pivots without objective improvement; a hard iteration
    cap raises SimplexError rather than looping silently.
    """
    m, nv = lp.n_rows, lp.n_vars
    if nv == 0:
        return LpSolution(
            status=SolveStatus.OPTIMAL,
            value=0.0,
            alpha=np.zeros((lp.n_types, lp.n_types)),
            var_pairs=lp.var_pairs,
        )
    if np.any(lp.bounds < 0):
        raise SimplexError("builder emitted a negative bound; slack basis invalid")

    # tableau columns: [structural vars | slacks | rhs]
    tab = np.zeros((m + 1, nv + m + 1))
    tab[:m, :nv] = lp.rows
    tab[:m, nv : nv + m] = np.eye(m)
    tab[:m, -1] = lp.bounds
    tab[m, :nv] = -lp.objective
    basis = list(range(nv, nv + m))

    max_iterations = 1000 + 200 * (m + nv)
    stall_limit = 2 * (m + nv)
    stalled = 0
    bland = False
    last_obj = -np.inf

    for _ in range(max_iterations):
        obj_row = tab[m, : nv + m]
        if bland:
            negatives = np.nonzero(obj_row < -_OBJ_TOL)[0]
            if negatives.size == 0:
                break
            col = int(negatives[0])
        else:
            col = int(np.argmin(obj_row))
            if obj_row[col] >= -_OBJ_TOL:
                break
        ratios = np.full(m, np.inf)
        positive = tab[:m, col] > _PIVOT_TOL
        ratios[positive] = tab[:m, -1][positive] / tab[:m, col][positive]
        best = np.min(ratios)
        if not np.isfinite(best):
            return LpSolution(
                status=SolveStatus.UNBOUNDED,
                value=float("inf"),
                alpha=np.zeros((lp.n_types, lp.n_types)),
                var_pairs=lp.var_pairs,
            )
        candidates = np.nonzero(ratios <= best + 1e-15)[0]
        if bland:
            # true Bland: leave the lowest-index basic variable
            row = int(min(candidates, key=lambda r: basis[r]))
        else:
            row = int(candidates[0])

        pivot = tab[row, col]
        tab[row, :] /= pivot
        for r in range(m + 1):
            if r != row and tab[r, col] != 0.0:
                tab[r, :] -= tab[r, col] * tab[row, :]
        basis[row] = col

        obj = tab[m, -1]
        if obj > last_obj + 1e-12:
            stalled = 0
            last_obj = obj
        else:
            stalled += 1
            if stalled >= stall_limit:
                bland = True
    else:
        raise SimplexError(f"no optimum after {max_iterations} pivots")

    z = np.zeros(nv + m)
    for r, b in enumerate(basis):
        z[b] = tab[r, -1]
    alpha = np.zeros((lp.n_types, lp.n_types))
    for j, (x, y) in enumerate(lp.var_pairs):
        alpha[x, y] = z[j]
    value = float(lp.objective @ z[:nv])

    col_sums = alpha.sum(axis=0)
    if np.any(col_sums > 1.0 + 1e-8):
        raise SimplexError(
            f"solution violates the per-arrival matching budget: max column sum {col_sums.max()}"
        )
    return LpSolution(
        status=SolveStatus.OPTIMAL, value=value, alpha=alpha, var_pairs=lp.var_pairs
    )


def best_matching_by_enumeration(
    n: int, edge_weights: dict[tuple[int, int], float]
) -> float:
    """Maximum-weight matching value by recursing over every matching.

    Branches on the lowest-index undecided vertex: leave it single, or pair
    it with any free higher-index neighbor. Pairs with a lower index were
    already offered when that endpoint was the branching vertex, so the
    recursion visits every matching exactly once.
    """
    if n > 16:
        raise ValueError("enumeration oracle limited to 16 nodes")
    partners: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), w in edge_weights.items():
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({i}, {j}) must satisfy 0 <= i < j < n")
        partners[i].append((j, w))

    def walk(v: int, used: int) -> float:
        while v < n and (used >> v) & 1:
            v += 1
        if v >= n:
            return 0.0
        best = walk(v + 1, used | (1 << v))
        for j, w in partners[v]:
            if not (used >> j) & 1:
                best = max(best, w + walk(v + 1, used | (1 << v) | (1 << j)))
        return best

    return walk(0, 0)


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


def _component_problems(n: int, edges: list[tuple[int, int, float]]):
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
    seen = [False] * n
    for start in range(n):
        if seen[start] or not adjacency[start]:
            continue
        seen[start] = True
        comp, todo = [start], [start]
        while todo:
            for other in adjacency[todo.pop()]:
                if not seen[other]:
                    seen[other] = True
                    comp.append(other)
                    todo.append(other)
        comp.sort()
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


def matching_by_components(
    n: int, edges: list[tuple[int, int, float]], max_component: int = 20
) -> tuple[list[tuple[int, int]], float]:
    """Max-weight matching of a graph on n nodes as the bitmask DP per
    connected component; returns sorted (i, j), i < j, pairs and the
    value. A component above max_component nodes raises ValueError."""
    out: list[tuple[int, int]] = []
    total = 0.0
    for comp, neighbor_mask, weight in _component_problems(n, edges):
        if len(comp) > max_component:
            raise ValueError(f"component of {len(comp)} nodes is too large for the DP")
        pairs, value = _mask_matching(comp, neighbor_mask, weight)
        out.extend((min(i, j), max(i, j)) for i, j in pairs)
        total += value
    return sorted(out), total


def matching_weight(edges: set[tuple[int, int]], weights: dict) -> float:
    """Sum of edge weights, asserting the edge set really is a matching."""
    seen: set[int] = set()
    total = 0.0
    for i, j in edges:
        if i in seen or j in seen:
            raise AssertionError(f"vertex reused by edge ({i}, {j})")
        seen.update((i, j))
        total += weights[(i, j)] if (i, j) in weights else weights[(j, i)]
    return total


def windows_overlap(ai: float, di: float, aj: float, dj: float) -> bool:
    # [a, d) windows: containment of either arrival instant in the other
    # window; for ai <= aj this is (aj < di) or (ai == aj and aj < dj)
    return (aj <= ai < dj) or (ai <= aj < di)


def graph_edges_by_walk(types, arrivals, departures, instance):
    """Edges and weights of the compatibility graph over node columns
    sorted by arrival, as lists of (i, j) pairs and floats, by walking
    node pairs the way the package did before it enumerated candidates
    with searchsorted."""
    values = instance.values
    types, arrivals, departures = types.tolist(), arrivals.tolist(), departures.tolist()
    edges: list[list[int]] = []
    weights: list[float] = []
    n = len(types)
    for i in range(n):
        ai = arrivals[i]
        di = departures[i]
        for j in range(i + 1, n):
            aj = arrivals[j]
            if aj > ai and aj >= di:
                break  # arrivals ascend, so no later j overlaps i either
            if not windows_overlap(ai, di, aj, departures[j]):
                continue
            v = values.get(types[i], types[j])
            if v > 0.0:
                edges.append([i, j])
                weights.append(v)
    return edges, weights


def replay_check_by_walk(events, instance) -> list[str]:
    """replay_check as one walk over event objects, the way the package
    did it before traces became columns; events is a list of the
    ArrivalEvent, MatchEvent and DepartureEvent row views."""
    from dynmatch.simulate import ArrivalEvent, DepartureEvent, MatchEvent

    problems: list[str] = []
    arr: dict = {}
    dep: dict = {}
    for e in events:
        if isinstance(e, DepartureEvent):
            if e.agent in dep:
                problems.append(f"{e.agent.text()} departs twice")
            dep[e.agent] = e.time
    matched: set = set()
    last_t = 0.0
    for e in events:
        t = e.time
        if t < last_t:
            problems.append(f"events out of order at t={t}")
        last_t = t
        if isinstance(e, ArrivalEvent):
            if e.agent in arr:
                problems.append(f"{e.agent.text()} arrives twice")
            arr[e.agent] = t
        elif isinstance(e, MatchEvent):
            v = instance.values.get(e.agent_a.type_id, e.agent_b.type_id)
            if v != e.value:
                problems.append(
                    f"match value {e.value} disagrees with the instance ({v})"
                )
            for agent in (e.agent_a, e.agent_b):
                if agent not in arr:
                    problems.append(f"{agent.text()} matched before arriving")
                    continue
                a = arr[agent]
                d = dep.get(agent, float("inf"))
                if a > t:
                    problems.append(f"{agent.text()} matched before arriving")
                if not (t < d or t == a):
                    problems.append(f"{agent.text()} matched after departing")
                if agent in matched:
                    problems.append(f"{agent.text()} matched twice")
                matched.add(agent)
        elif isinstance(e, DepartureEvent):
            if e.agent not in arr:
                problems.append(f"{e.agent.text()} departs without arriving")
            elif dep[e.agent] < arr[e.agent]:
                problems.append(f"{e.agent.text()} departs before arriving")
            if e.matched_before_departure != (e.agent in matched):
                problems.append(f"{e.agent.text()} has a wrong matched flag")
    return problems


def read_trace_by_line(path):
    """The event rows of a trace CSV, parsed one line at a time the way
    the package did before traces became columns (header lines skipped,
    departure flags rebuilt from the match rows above them). Raises
    ValueError on a row without five fields, an unknown event kind, or a
    field that int() or float() refuses."""
    from dynmatch import AgentId
    from dynmatch.simulate import ArrivalEvent, DepartureEvent, MatchEvent

    events: list = []
    matched: set = set()
    with open(path) as fh:
        fh.readline()
        fh.readline()
        for line in fh:
            row = line.rstrip("\n").split(",")
            if len(row) != 5:
                raise ValueError(f"malformed trace row: {line!r}")
            t = float(row[0])
            if row[1] == "arrival":
                events.append(ArrivalEvent(t, AgentId.from_text(row[2])))
            elif row[1] == "match":
                a, b = AgentId.from_text(row[2]), AgentId.from_text(row[3])
                matched.update((a, b))
                events.append(MatchEvent(t, a, b, float(row[4])))
            elif row[1] == "departure":
                agent = AgentId.from_text(row[2])
                events.append(DepartureEvent(t, agent, agent in matched))
            else:
                raise ValueError(f"unknown event kind {row[1]!r}")
    return events


def lifetimes_by_walk(events):
    """(arrival, departure) per agent with an arrival row, from dicts
    filled in event order (a repeated row overwrites), and the agents of
    departure rows without an arrival row in first-departure order."""
    from dynmatch.simulate import ArrivalEvent, DepartureEvent

    arr: dict = {}
    dep: dict = {}
    for e in events:
        if isinstance(e, ArrivalEvent):
            arr[e.agent] = e.time
        elif isinstance(e, DepartureEvent):
            dep[e.agent] = e.time
    windows = {agent: (t, dep.get(agent, math.inf)) for agent, t in arr.items()}
    return windows, [agent for agent in dep if agent not in arr]


# ---------------------------------------------------------------------------
# Periodic clearing as the package first ran it: a walk over arrivals that
# queues agents in a MarketState, snapshots the pool as AgentIds at each
# clear, and matches it with the bitmask DP through a weight callback.
# Kept as the reference for the clearing loop and the count matcher.


def max_weight_pool(n: int, weight) -> list[tuple[int, int]]:
    """Exact pool matcher for periodic clearing: n entries, weight(i, j)
    callable, returns disjoint index pairs of an optimal matching. Zero
    and negative weights never enter the graph."""
    edges = [
        (i, j, w)
        for i in range(n)
        for j in range(i + 1, n)
        if (w := weight(i, j)) > 0.0
    ]
    return matching_by_components(n, edges, max_component=n)[0]


class MarketState:
    """Available-agent queues for periodic clearing.

    Queues hold serials in arrival order. Departed agents are dropped when
    a clearing takes its snapshot, so no departure sweep runs between
    clearings.
    """

    __slots__ = ("instance", "clock", "_queues", "_arr", "_dep")

    def __init__(self, instance: MarketInstance, population):
        self.instance = instance
        self.clock = 0.0
        self._queues: list[deque[int]] = [deque() for _ in instance.types]
        self._arr = [a.tolist() for a in population.arrivals]
        self._dep = [d.tolist() for d in population.departures]

    def set_clock(self, t: float) -> None:
        self.clock = t

    def arrival_time(self, agent: AgentId) -> float:
        return self._arr[agent.type_id][agent.serial]

    def departure_time(self, agent: AgentId) -> float:
        return self._dep[agent.type_id][agent.serial]

    def push(self, type_id: int, serial: int) -> None:
        self._queues[type_id].append(serial)

    def snapshot_available(self) -> list[AgentId]:
        # a departed agent can sit behind a live one, so rebuild each queue
        # keeping only live entries
        out: list[AgentId] = []
        for x in range(self.instance.n_types):
            q = self._queues[x]
            dep = self._dep[x]
            live = [s for s in q if dep[s] > self.clock]
            q.clear()
            q.extend(live)
            out.extend(AgentId(x, s) for s in live)
        return out  # queues are serial-ascending, so this is (type, serial) sorted

    def remove_available(self, agent: AgentId) -> None:
        self._queues[agent.type_id].remove(agent.serial)


def periodic_clear(
    state,
    values: MatchValueMatrix,
    matcher,
    exact_threshold: int = 20,
) -> list[tuple[AgentId, AgentId, float]]:
    """Clear the pool of currently available agents with a batch matching.

    Pools up to exact_threshold agents go to the exact max-weight matcher;
    larger pools fall back to greedy edge selection by descending weight
    (ties by node index pair). Zero-value pairs are never matched. Matched
    agents are removed from the state; the applied pairs are returned.

    The matcher callable receives (node_count, weight_fn) over pool indices
    and returns disjoint index pairs; the pool is ordered by (type, serial)
    so results are deterministic.
    """
    pool: list[AgentId] = state.snapshot_available()

    def weight(i: int, j: int) -> float:
        return values.get(pool[i].type_id, pool[j].type_id)

    if len(pool) <= exact_threshold:
        pairs = matcher(len(pool), weight)
    else:
        edges = [
            (weight(i, j), i, j)
            for i in range(len(pool))
            for j in range(i + 1, len(pool))
            if weight(i, j) > 0.0
        ]
        edges.sort(key=lambda e: (-e[0], e[1], e[2]))
        used = [False] * len(pool)
        pairs = []
        for w, i, j in edges:
            if not (used[i] or used[j]):
                used[i] = used[j] = True
                pairs.append((i, j))

    applied: list[tuple[AgentId, AgentId, float]] = []
    for i, j in pairs:
        w = weight(i, j)
        if w <= 0.0:
            continue
        state.remove_available(pool[i])
        state.remove_available(pool[j])
        applied.append((pool[i], pool[j], w))
    return applied


def ordered_pair(t, ta, xa, sa, tb, xb, sb, v):
    """The match record (time, a_type, a_serial, b_type, b_serial, value)
    of two agents, the earlier arrival by (time, type, serial) in slot a."""
    if (ta, xa, sa) <= (tb, xb, sb):
        return (t, xa, sa, xb, sb, v)
    return (t, xb, sb, xa, sa, v)


def clearing_by_arrivals(instance, period, pop, exact_threshold=20):
    """Periodic clearing's match records (time, a_type, a_serial, b_type,
    b_serial, value), earlier arrival in slot a, in the order made: arrivals
    only queue up; matches happen at clear times, on the pool of available
    agents."""
    records = []
    state = MarketState(instance, pop)
    values = instance.values
    clear_times = [
        k * period
        for k in range(1, int(pop.horizon / period) + 2)
        if k * period <= pop.horizon
    ]
    ci = 0

    def do_clear(tc: float) -> None:
        state.set_clock(tc)
        for a, b, v in periodic_clear(state, values, max_weight_pool, exact_threshold):
            records.append(
                ordered_pair(
                    tc,
                    state.arrival_time(a), a.type_id, a.serial,
                    state.arrival_time(b), b.type_id, b.serial,
                    v,
                )
            )

    for i in range(pop.n_agents):
        t = float(pop.order_times[i])
        while ci < len(clear_times) and clear_times[ci] <= t:
            do_clear(clear_times[ci])
            ci += 1
        y = int(pop.order_types[i])
        s = int(pop.order_serials[i])
        state.set_clock(t)
        if state.departure_time(AgentId(y, s)) > t:
            state.push(y, s)
    while ci < len(clear_times):
        do_clear(clear_times[ci])
        ci += 1
    return records


# ---------------------------------------------------------------------------
# The random-order and greedy policies as the package first ran them: one
# arrival at a time, over a state object offering has_available(type_id),
# pop_oldest_available(type_id) and an instance attribute, with the
# Fisher-Yates shuffle drawn one integer at a time. Kept as the reference
# for the engine's walk loop and its pre-evaluated decision blocks.


def next_below(rng: Rng, n: int) -> int:
    """Integer in [0, n). Modulo method; bias is O(n / 2**64)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return rng.next_uint64() % n


def shuffle(rng: Rng, seq: list) -> None:
    """In-place Fisher-Yates shuffle with the frozen draw order."""
    for i in range(len(seq) - 1, 0, -1):
        j = next_below(rng, i + 1)
        seq[i], seq[j] = seq[j], seq[i]


@dataclass(frozen=True)
class Consideration:
    """One iteration of the random-order walk: which type and whether the
    pre-evaluated check passed."""

    type_id: int
    attempted: bool


@dataclass(frozen=True)
class MatchDecision:
    partner: AgentId | None
    attempts: tuple[Consideration, ...]  # types iterated, in order, up to the stop
    order: tuple[int, ...]  # full permutation drawn for this arrival
    pre_evaluated: tuple[bool, ...]  # check outcome per type id, all types

    @property
    def matched(self) -> bool:
        return self.partner is not None


NO_DECISION = MatchDecision(partner=None, attempts=(), order=(), pre_evaluated=())


def online_match_step(
    state,
    arriving: AgentId,
    solution: LpSolution,
    gamma: float,
    rng: Rng,
    probs: Sequence[Sequence[float]] | None = None,
) -> MatchDecision:
    """Run the random-order walk for one arrival and apply any match.

    Types are visited in a fresh uniform permutation. Each visited type's
    Bernoulli check is pre-evaluated (all n uniforms are drawn up front, in
    permutation-position order, so later positions have defined outcomes
    even after an early stop). A passing check with an available partner
    matches the FIFO-oldest such partner and stops the walk; a passing
    check with nobody available records an attempt and moves on.

    The arriving agent must not be in the state yet.
    """
    instance = state.instance
    n = instance.n_types
    y = arriving.type_id
    if probs is None:
        probs = attempt_probabilities(instance, solution, gamma)

    order = list(range(n))
    shuffle(rng, order)
    uniforms = [rng.uniform() for _ in range(n)]

    pre = [False] * n
    for k, x in enumerate(order):
        pre[x] = uniforms[k] <= probs[x][y]

    considered: list[Consideration] = []
    partner: AgentId | None = None
    for x in order:
        attempted = pre[x]
        considered.append(Consideration(x, attempted))
        if attempted:
            candidate = state.pop_oldest_available(x)
            if candidate is not None:
                partner = candidate
                break
    return MatchDecision(
        partner=partner,
        attempts=tuple(considered),
        order=tuple(order),
        pre_evaluated=tuple(pre),
    )


def greedy_step(
    state,
    arriving: AgentId,
    values: MatchValueMatrix,
) -> MatchDecision:
    """Match the arrival to the best available positive-value partner.

    Highest v_xy wins; ties go to the lowest type id; within a type the
    FIFO-oldest agent is taken. No positive-value partner means no match.
    """
    y = arriving.type_id
    best_x = -1
    best_v = 0.0
    for x in range(state.instance.n_types):
        v = values.get(x, y)
        if v > best_v and state.has_available(x):
            best_x, best_v = x, v
    if best_x < 0:
        return NO_DECISION
    return MatchDecision(
        partner=state.pop_oldest_available(best_x),
        attempts=(),
        order=(),
        pre_evaluated=(),
    )


def decision_blocks_at_once(instance, policy, solution, pop, seed):
    """(perm, checks) of every arrival of the run in one numpy pass, both
    (arrivals, n): the decision blocks before the engine read them a chunk
    at a time."""
    n = instance.n_types
    total = pop.n_agents
    stride = 2 * n - 1
    if total == 0:
        return np.zeros((0, n), dtype=np.int64), np.zeros((0, n), dtype=bool)
    probs = np.array(
        attempt_probabilities(instance, solution, policy.gamma), dtype=np.float64
    )
    rng = Rng(derive_seed(seed, "decisions", policy.lane_token()))
    raw = rng.uint64_block(total * stride).reshape(total, stride)
    perm = np.tile(np.arange(n, dtype=np.int64), (total, 1))
    rows = np.arange(total)
    col = 0
    for i in range(n - 1, 0, -1):
        j = (raw[:, col] % np.uint64(i + 1)).astype(np.int64)
        col += 1
        tmp = perm[rows, i].copy()
        perm[rows, i] = perm[rows, j]
        perm[rows, j] = tmp
    uniforms = ((raw[:, n - 1 :] >> np.uint64(11)) + np.uint64(1)).astype(
        np.float64
    ) * 2.0 ** -53
    checks = uniforms <= probs[perm, pop.order_types[:, None]]
    return perm, checks


# ---------------------------------------------------------------------------
# The engine's walk loop before head pointers and match columns: every
# arrival walks a list of candidate types over FIFO deques of waiting
# serials, and each match is one tuple. Kept as the reference for the
# random-order walk and for greedy's.


def candidate_walks(perm, checks):
    """Per arrival of a block, the types whose check passed, in
    permutation order."""
    offsets = np.concatenate(([0], np.cumsum(checks.sum(axis=1)))).tolist()
    candidates = perm[np.nonzero(checks)].tolist()
    return list(map(candidates.__getitem__, map(slice, offsets, offsets[1:])))


def greedy_walks(instance, pop):
    """Per arrival of type y, the types x with v_xy > 0 by descending
    value, ties to the lower id."""
    values = instance.values.dense()
    n = instance.n_types
    by_type = [
        sorted((x for x in range(n) if values[x][y] > 0.0), key=lambda x: (-values[x][y], x))
        for y in range(n)
    ]
    return [by_type[y] for y in pop.order_types.tolist()]


class DequeWalker:
    """The walk loop with its state: FIFO queues of waiting serials per
    type, the match records (time, a_type, a_serial, b_type, b_serial,
    value), arriver in slot b, and the number of arrivals walked."""

    def __init__(self, instance, pop):
        self.pop = pop
        self.walked = 0
        self.records = []
        self._deps = [d.tolist() for d in pop.departures]
        self._values = instance.values.dense()
        self._queues = [deque() for _ in range(instance.n_types)]

    def walk(self, walks):
        """Walk the next len(walks) arrivals: arrival i tries the types of
        its walk in order and matches the FIFO-oldest available agent of
        the first that has one; an unmatched patient arrival joins its
        type's queue. Queues drop departed heads as a walk meets them."""
        start = self.walked
        end = self.walked = start + len(walks)
        pop = self.pop
        records, deps = self.records, self._deps
        values, queues = self._values, self._queues
        arrivals = zip(
            pop.order_times[start:end].tolist(),
            pop.order_types[start:end].tolist(),
            pop.order_serials[start:end].tolist(),
            walks,
        )
        for t, y, s, walk in arrivals:
            found = -1
            for x in walk:
                q = queues[x]
                dx = deps[x]
                while q:
                    cs = q.popleft()
                    if dx[cs] > t:
                        found = cs
                        break
                if found >= 0:
                    break
            if found >= 0:
                records.append((t, x, found, y, s, values[x][y]))
            elif deps[y][s] > t:
                queues[y].append(s)
