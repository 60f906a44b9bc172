"""Discrete-event simulation of the matching market.

The engine samples every agent's arrival and departure up front (one
"arrivals" rng lane per run, shared by all policies on the same seed, which
is what makes cross-policy comparisons common-random-number comparisons),
then walks arrivals in time order applying the policy. Departure times are
sampled at arrival; matched agents keep their sampled departure as a shadow
so presence statistics are policy-independent.

The random-order policy's loop (_Walker) takes only the arrivals with a
passing check: each tries those types in permutation order and matches
the oldest available agent of the first that has one, found from a
per-type head pointer into that type's serials. The checks are
pre-evaluated for one chunk of _CHUNK arrivals in one numpy pass
(_decision_blocks), so no array grows as agents x types. Greedy walks
every arrival over FIFO deques in a fixed order per arriving type
(_run_greedy). Periodic clearing loops over clear times instead
(_run_clearing): numpy windows give each clear's new agents, and the pool
matcher runs once per distinct count vector, on value tables shared by
the run's pools. Match records are int64 columns, no object per match.
The walk loop and scalar steps in tests/oracles.py are the references
these loops are tested against; diagnostics.py reads each chunk's
decision blocks once the walk has passed it (DecidedRun).

Rng lane layout per run seed s (frozen):
    derive_seed(s, "arrivals")                arrival times + lifetimes,
                                              per type in id order, stream
                                              then lifetime block
    derive_seed(s, "decisions", <lane token>) policy randomness, 2n-1 draws
                                              per arrival (random-order
                                              policy only)
Diagnostics clocks use further "diag" lanes, documented in diagnostics.py.

Tie conventions (all measure-zero in continuous time, fixed for
determinism): a departure at time t is processed before an arrival at t;
clearing events fall in between; "arrived earlier" compares
(arrival_time, type_id, serial). Trace rows at one timestamp order
arrival < match < departure so an impatient agent's arrival precedes its
own departure row.

Traces are columns, one row per event: time, kind, a_type, a_serial,
b_type, b_serial, value and the departure matched-flag (EventTrace has
the layout). _build_outputs concatenates one row per arrival, per
departure up to the horizon and per match record, and orders them with
one np.lexsort on (time, kind, a, b). The CSV writer, the reader, the
replay, the rate estimate and presence work on whole columns; the event
dataclasses are views of single rows, built only when a trace is iterated.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lp import LpSolution
from .market import AgentId, MarketInstance, validate_instance
from .policies import PolicyConfig, PolicyKind, attempt_probabilities
from .randomness import Rng, derive_seed, sample_homogeneous_stream

_INV53 = 2.0 ** -53


# ---------------------------------------------------------------------------
# events and traces


@dataclass(frozen=True)
class ArrivalEvent:
    time: float
    agent: AgentId


@dataclass(frozen=True)
class DepartureEvent:
    time: float
    agent: AgentId
    matched_before_departure: bool


@dataclass(frozen=True)
class MatchEvent:
    """agent_a is the earlier arrival of the pair (ties broken by
    (type_id, serial)), agent_b the later one."""

    time: float
    agent_a: AgentId
    agent_b: AgentId
    value: float


Event = ArrivalEvent | MatchEvent | DepartureEvent

# trace row kinds, in their order at one timestamp
ARRIVAL, MATCH, DEPARTURE = 0, 1, 2
_KIND_NAMES = ("arrival", "match", "departure")
_KIND_FIELDS = np.array([f",{k}," for k in _KIND_NAMES], dtype=object)


@dataclass(frozen=True, eq=False)
class EventTrace:
    """The events of one run, one row per event, stored as columns.

    Columns, all of one length:
        time                float64
        kind                int8: ARRIVAL, MATCH or DEPARTURE
        a_type, a_serial    int64: the arriving or departing agent, or the
                            earlier arrival of a matched pair
        b_type, b_serial    int64: the later agent of a matched pair; -1 on
                            arrival and departure rows
        value               float64: the match value; 0.0 on other rows
        matched             bool: on a departure row, whether the agent was
                            matched before departing; False on other rows

    A run's rows are sorted by (time, kind, a_type, a_serial, b_type,
    b_serial). Iterating the trace, or its events, yields one ArrivalEvent,
    MatchEvent or DepartureEvent per row, built on demand.
    """

    time: np.ndarray
    kind: np.ndarray
    a_type: np.ndarray
    a_serial: np.ndarray
    b_type: np.ndarray
    b_serial: np.ndarray
    value: np.ndarray
    matched: np.ndarray
    horizon: float
    burn_in: float
    seed: int

    @property
    def events(self) -> "EventRows":
        return EventRows(self)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def matches(self) -> list[MatchEvent]:
        return list(self._events(np.flatnonzero(self.kind == MATCH)))

    def _events(self, rows=slice(None)) -> Iterator[Event]:
        columns = (self.time, self.kind, self.a_type, self.a_serial,
                   self.b_type, self.b_serial, self.value, self.matched)
        return map(_event, *(c[rows].tolist() for c in columns))

    def lifetimes(self) -> tuple[np.ndarray, ...]:
        """Every agent with an arrival row, in (type, serial) order: its
        type, serial, arrival time and departure time (+inf without a
        departure row; the last row of a kind wins if it repeats). Last
        come the departure rows whose agent has no arrival row."""
        rows = np.flatnonzero(self.kind != MATCH)
        order, first, last = _agent_runs(self.a_type[rows], self.a_serial[rows], rows)
        rows, kind = rows[order], self.kind[rows][order]
        came = _latest(kind == ARRIVAL, first, inclusive=True)[last]
        gone = _latest(kind == DEPARTURE, first, inclusive=True)[last]
        agents = np.flatnonzero((first == np.arange(len(rows))) & (came >= 0))
        leaves = gone[agents]
        departure = np.full(len(agents), math.inf)
        departure[leaves >= 0] = self.time[rows[leaves[leaves >= 0]]]
        orphans = np.sort(rows[(kind == DEPARTURE) & (came < 0)])
        return (
            self.a_type[rows[agents]],
            self.a_serial[rows[agents]],
            self.time[rows[came[agents]]],
            departure,
            orphans,
        )


class EventRows(Sequence):
    """A trace's rows as event objects: len() reads the column length, and
    an event is built only when a row is read. Two views are equal when
    they hold the same events."""

    __slots__ = ("_trace",)

    def __init__(self, trace: EventTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.time)

    def __getitem__(self, i):
        rows = range(len(self))[i]  # an int or a range; raises IndexError
        if isinstance(rows, range):
            return list(self._trace._events(rows))
        return next(self._trace._events(slice(rows, rows + 1)))

    def __iter__(self) -> Iterator[Event]:
        return self._trace._events()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


def _event(
    t: float, kind: int, ax: int, asr: int, bx: int, bsr: int, v: float, m: bool
) -> Event:
    if kind == ARRIVAL:
        return ArrivalEvent(t, AgentId(ax, asr))
    if kind == MATCH:
        return MatchEvent(t, AgentId(ax, asr), AgentId(bx, bsr), v)
    return DepartureEvent(t, AgentId(ax, asr), m)


def _agent_runs(
    types: np.ndarray, serials: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort steps by (type, serial, position), so each agent's steps form
    one run in position order. Returns the sort order and, per sorted
    step, the sorted index of the first and of the last step of its run."""
    order = np.lexsort((pos, serials, types))
    t, s = types[order], serials[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (t[1:] != t[:-1]) | (s[1:] != s[:-1])
    heads = np.flatnonzero(new)
    sizes = np.diff(np.append(heads, len(order)))
    first = np.repeat(heads, sizes)
    return order, first, first + np.repeat(sizes, sizes) - 1


def _latest(mask: np.ndarray, first: np.ndarray, inclusive: bool = False) -> np.ndarray:
    """Per sorted step, the sorted index of the latest step of its run
    where mask holds, before it (or at it, if inclusive); -1 if none."""
    run = np.maximum.accumulate(np.where(mask, np.arange(len(mask)), -1))
    if not inclusive:
        run = np.concatenate(([-1], run))[: len(mask)]
    return np.where(run >= first, run, -1)


# ---------------------------------------------------------------------------
# population


@dataclass(frozen=True)
class Population:
    """Every agent of a run: per-type sorted arrival/departure arrays plus
    the global arrival order. Departures equal arrivals for impatient types
    (zero-length presence)."""

    arrivals: tuple[np.ndarray, ...]
    departures: tuple[np.ndarray, ...]
    order_times: np.ndarray
    order_types: np.ndarray
    order_serials: np.ndarray
    horizon: float

    @property
    def n_agents(self) -> int:
        return len(self.order_times)

    def agents(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every agent in arrival order: type, serial, arrival and
        departure time."""
        base = np.cumsum([0] + [len(a) for a in self.arrivals])
        departures = np.concatenate(self.departures)[base[self.order_types] + self.order_serials]
        return self.order_types, self.order_serials, self.order_times, departures

    def by_type(self) -> list[np.ndarray]:
        """Per type, its agents' arrival indices, in serial order."""
        types = self.order_types.astype(np.min_scalar_type(len(self.arrivals)))
        order = np.argsort(types, kind="stable")  # a radix sort on narrow keys
        return np.split(order, np.cumsum([len(a) for a in self.arrivals])[:-1])


def generate_population(
    instance: MarketInstance, horizon: float, seed: int
) -> Population:
    """Sample all arrivals and lifetimes for one run.

    Draw order is frozen: for each type in id order, first the arrival
    stream, then one lifetime uniform per arrival (patient types only;
    impatient lifetimes are identically zero and consume nothing).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    rng = Rng(derive_seed(seed, "arrivals"))
    arrs: list[np.ndarray] = []
    deps: list[np.ndarray] = []
    for t in instance.types:
        arr = sample_homogeneous_stream(t.arrival_rate, horizon, rng)
        if t.impatient or len(arr) == 0:
            dep = arr.copy()
        else:
            u = rng.uniform_block(len(arr))
            dep = arr + (-np.log(u) / t.departure_rate)
        arrs.append(arr)
        deps.append(dep)
    all_t = np.concatenate(arrs)
    all_x = np.concatenate(
        [np.full(len(a), x, dtype=np.int64) for x, a in enumerate(arrs)]
    )
    all_s = np.concatenate([np.arange(len(a), dtype=np.int64) for a in arrs])
    idx = np.argsort(all_t, kind="stable")  # stable: ties stay (type, serial) sorted
    return Population(
        arrivals=tuple(arrs),
        departures=tuple(deps),
        order_times=all_t[idx],
        order_types=all_x[idx],
        order_serials=all_s[idx],
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# live state


class MarketState:
    """Periodic clearing's waiting agents: per type, their arrival indices
    in ascending order. At a clear's snapshot each entry is present and
    unmatched."""

    __slots__ = ("waiting",)

    def __init__(self, n_types: int):
        self.waiting: list[list[int]] = [[] for _ in range(n_types)]

    def snapshot_available(self) -> tuple[int, ...]:
        """The pool's types in (type, serial) order, one entry per agent."""
        return tuple(x for x, w in enumerate(self.waiting) for _ in w)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SimulationReport:
    """Point estimates from one run; pair slot [x][y] counts matches whose
    earlier agent had type x and later agent type y, post burn-in."""

    policy: dict
    horizon: float
    burn_in: float
    seed: int
    arrivals_per_type: tuple[int, ...]
    match_count: int
    total_value: float
    avg_value_per_time: float
    pair_match_counts: tuple[tuple[int, ...], ...]
    pair_match_rates: tuple[tuple[float, ...], ...]
    presence_frequency: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "policy": self.policy,
            "horizon": self.horizon,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "arrivals_per_type": list(self.arrivals_per_type),
            "match_count": self.match_count,
            "total_value": self.total_value,
            "avg_value_per_time": self.avg_value_per_time,
            "pair_match_counts": [list(r) for r in self.pair_match_counts],
            "pair_match_rates": [list(r) for r in self.pair_match_rates],
            "presence_frequency": list(self.presence_frequency),
        }


def _interval_cover(
    starts: np.ndarray, ends: np.ndarray, lo: float, hi: float
) -> float:
    """Lebesgue measure of the union of [start, end) windows clipped to
    [lo, hi); starts must be sorted ascending."""
    s = np.maximum(starts, lo)
    e = np.minimum(ends, hi)
    keep = e > s
    if not keep.any():
        return 0.0
    s, e = s[keep], e[keep]
    run = np.maximum.accumulate(e)
    prev = np.concatenate(([lo], run[:-1]))
    return float(np.clip(e - np.maximum(s, prev), 0.0, None).sum())


def _presence_from_population(
    pop: Population, burn_in: float, horizon: float
) -> tuple[float, ...]:
    window = horizon - burn_in
    if window <= 0:
        return tuple(0.0 for _ in pop.arrivals)
    return tuple(
        _interval_cover(arr, dep, burn_in, horizon) / window
        for arr, dep in zip(pop.arrivals, pop.departures)
    )


# ---------------------------------------------------------------------------
# the engine


def check_run_settings(horizon: float, burn_in: float | None) -> float:
    """The burn-in of a run at this horizon, horizon/100 unless given.
    Raises ValueError unless run_simulation accepts the pair; callers
    check before their first run."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if burn_in is None:
        burn_in = horizon / 100.0
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if burn_in >= horizon and horizon > 0:
        raise ValueError(f"burn_in {burn_in} must be below horizon {horizon}")
    return burn_in


def _checked_burn_in(
    instance: MarketInstance,
    policy: PolicyConfig,
    solution: LpSolution | None,
    horizon: float,
    burn_in: float | None,
) -> float:
    violations = validate_instance(instance)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(v.code for v in violations))
    burn_in = check_run_settings(horizon, burn_in)
    if policy.kind is PolicyKind.ONLINE_MATCH:
        if solution is None:
            raise ValueError("the random-order policy requires an LP solution")
        attempt_probabilities(instance, solution, policy.gamma)  # validates shape
    return burn_in


def run_simulation(
    instance: MarketInstance,
    policy: PolicyConfig,
    solution: LpSolution | None = None,
    *,
    horizon: float,
    burn_in: float | None = None,
    seed: int,
    record_trace: bool = True,
) -> tuple[EventTrace | None, SimulationReport]:
    """Simulate one run and summarize it.

    burn_in defaults to horizon/100. A zero horizon is a valid degenerate
    run (empty trace, zero report). The random-order policy requires an LP
    solution. With record_trace=False the trace comes back as None.
    """
    burn_in = _checked_burn_in(instance, policy, solution, horizon, burn_in)
    pop = generate_population(instance, horizon, seed)
    if policy.kind is PolicyKind.PERIODIC_CLEAR:
        matches = _run_clearing(instance, policy, pop)
    elif policy.kind is PolicyKind.GREEDY:
        matches = _walk_matches(pop, _run_greedy(instance, pop))
    else:
        walker = _Walker(pop)
        if policy.kind is PolicyKind.ONLINE_MATCH:
            for perm, checks in _decision_blocks(instance, policy, solution, pop, seed):
                walker.walk(perm, checks)
        matches = _walk_matches(pop, walker.records)
    return _build_outputs(instance, policy, pop, matches, horizon, burn_in, seed, record_trace)


class DecidedRun:
    """The random-order run at zero burn-in, walked one chunk of arrivals
    at a time, with what each chunk decided from.

    The run is the one run_simulation makes on the same seed and lanes.
    pop is its population. Iterating, once, walks the run and yields after
    each chunk (start, perm, checks, records): the index of the chunk's
    first arrival, its decision blocks from _decision_blocks and the match
    records it made, as two int64 columns: the arrival indices of arriver
    and partner. report() summarizes the walked run.
    """

    def __init__(self, instance: MarketInstance, solution: LpSolution, gamma: float, *,
                 horizon: float, seed: int):
        self.policy = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=gamma)
        _checked_burn_in(instance, self.policy, solution, horizon, 0.0)
        self.instance, self.horizon, self.seed = instance, horizon, seed
        self.pop = generate_population(instance, horizon, seed)
        self._blocks = _decision_blocks(instance, self.policy, solution, self.pop, seed)
        self._walker = _Walker(self.pop)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]]:
        walker = self._walker
        for perm, checks in self._blocks:
            start, made = walker.walked, len(walker.records[0])
            walker.walk(perm, checks)
            yield start, perm, checks, tuple(np.array(r[made:]) for r in walker.records)

    def report(self) -> SimulationReport:
        matches = _walk_matches(self.pop, self._walker.records)
        return _build_outputs(self.instance, self.policy, self.pop, matches,
                              self.horizon, 0.0, self.seed, False)[1]


# arrivals per decision block and per call of the engine loop; a
# throughput knob only: the draws are counter-indexed, so the chunk size
# never changes a draw, a match or an output
_CHUNK = 4096


def _decision_blocks(
    instance: MarketInstance,
    policy: PolicyConfig,
    solution: LpSolution,
    pop: Population,
    seed: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pre-evaluate the arrivals' policy randomness, _CHUNK arrivals at a
    time.

    Yields (perm, checks) per chunk of arrivals, in arrival order, both
    (chunk arrivals, n): row i is the chunk's arrival i's type permutation
    and its check outcomes in permutation-position order. Consumes exactly
    2n-1 draws per arrival from the decisions lane, bit-identical to the
    scalar online_match_step in tests/oracles.py; chunk k reads the lane's
    counters from k * _CHUNK * (2n-1) on, so the chunk size never changes
    a draw.
    """
    n = instance.n_types
    stride = 2 * n - 1
    probs = np.array(
        attempt_probabilities(instance, solution, policy.gamma), dtype=np.float64
    )
    rng = Rng(derive_seed(seed, "decisions", policy.lane_token()))
    for start in range(0, pop.n_agents, _CHUNK):
        types = pop.order_types[start : start + _CHUNK]
        total = len(types)
        raw = rng.uint64_block(total * stride).reshape(total, stride)
        # the permutations position-major: position k of arrival r sits at
        # k * total + r, so each Fisher-Yates step swaps one contiguous row
        # with one element per arrival
        slots = np.repeat(np.arange(n, dtype=np.int64), total)
        rows = np.arange(total)
        for col, i in enumerate(range(n - 1, 0, -1)):
            j = (raw[:, col] % np.uint64(i + 1)).astype(np.int64)
            j *= total
            j += rows
            row = slots[i * total : (i + 1) * total]
            swapped = row.copy()
            row[:] = slots[j]
            slots[j] = swapped
        perm = slots.reshape(n, total).T
        uniforms = ((raw[:, n - 1 :] >> np.uint64(11)) + np.uint64(1)).astype(
            np.float64
        ) * _INV53
        yield perm, uniforms <= probs.ravel()[perm * n + types[:, None]]


class _Walker:
    """The random-order policy's walk and what it carries from one chunk
    of arrivals to the next: per type, a head pointer into its serials (in
    arrival order) before which every agent is matched or gone, and the
    match records as two int64 columns, the arrival indices of arriver and
    partner. A matched agent's departure reads -1 in the walker's copy, so
    "matched or departed" is one comparison."""

    __slots__ = ("pop", "walked", "records", "_deps", "_index", "_heads")

    def __init__(self, pop: Population):
        self.pop = pop
        self.walked = 0
        self.records = (array("q"), array("q"))
        # per type, each serial's departure and arrival index, then a sentinel
        # serial that departs at +inf and that no arrival reaches; arrays take
        # 8 bytes an agent where lists take 32-36, and the walk is no slower
        self._deps = [array("d", np.append(d, math.inf).tobytes()) for d in pop.departures]
        self._index = [array("q", np.append(ix, pop.n_agents).tobytes()) for ix in pop.by_type()]
        self._heads = [0] * len(pop.arrivals)

    def walk(self, perm: np.ndarray, checks: np.ndarray) -> None:
        """Walk the next len(perm) arrivals, given their decision blocks.
        Only those with a passing check enter the loop; an unmatched
        patient arrival waits past its type's head without a step."""
        start = self.walked
        self.walked = start + len(perm)
        tries = checks.sum(axis=1)
        rows = np.flatnonzero(tries)
        ends = np.cumsum(tries[rows]).tolist()
        candidates = perm[checks].tolist()  # row-major: each row's in order
        at = rows + start
        pop = self.pop
        deps, index, heads = self._deps, self._index, self._heads
        arriver, partner = (r.append for r in self.records)
        for g, t, y, s, lo, hi in zip(
            at.tolist(), pop.order_times[at].tolist(), pop.order_types[at].tolist(),
            pop.order_serials[at].tolist(), [0] + ends, ends,
        ):
            for x in candidates[lo:hi]:
                ix = index[x]
                h = heads[x]
                if ix[h] >= g:
                    continue  # nothing of x arrived since its head
                dx = deps[x]
                while dx[h] <= t:  # the sentinel departs at +inf
                    h += 1
                if ix[h] < g:
                    heads[x] = h + 1
                    dx[h] = deps[y][s] = -1.0
                    arriver(g)
                    partner(ix[h])
                    break
                heads[x] = h


def _run_greedy(instance: MarketInstance, pop: Population) -> tuple[array, ...]:
    """Greedy's walk, records as in _Walker: an arrival of type y matches
    the FIFO-oldest waiting agent of the first type x with v_xy > 0, by
    descending v_xy, ties to the lower id (the scalar greedy_step in
    tests/oracles.py); queues drop departed heads as a walk meets them."""
    values = instance.values.dense()
    n = instance.n_types
    by_type = [
        sorted((x for x in range(n) if values[x][y] > 0.0), key=lambda x: (-values[x][y], x))
        for y in range(n)
    ]
    dep = pop.agents()[3].tolist()
    queues: list[deque[int]] = [deque() for _ in range(n)]  # arrival indices
    records = (array("q"), array("q"))
    arriver, partner = (r.append for r in records)
    for start in range(0, pop.n_agents, _CHUNK):  # whole-run lists would raise the peak
        end = start + _CHUNK
        for g, t, y in zip(
            range(start, end), pop.order_times[start:end].tolist(),
            pop.order_types[start:end].tolist(),
        ):
            for x in by_type[y]:
                q = queues[x]
                while q:
                    found = q.popleft()
                    if dep[found] > t:
                        break
                else:
                    continue
                arriver(g)
                partner(found)
                break
            else:
                if dep[g] > t:
                    queues[y].append(g)
    return records


def _walk_matches(pop: Population, records: tuple[array, ...]) -> tuple[np.ndarray, ...]:
    """Walk records as match columns (time, earlier agent, later agent)."""
    g, p = (np.frombuffer(r, dtype=np.int64) for r in records)
    return pop.order_times[g], p, g


def _run_clearing(
    instance: MarketInstance, policy: PolicyConfig, pop: Population
) -> tuple[np.ndarray, ...]:
    """Periodic clearing, one clear time at a time. The pool at clear time
    t_c is every unmatched agent that arrived before t_c and departs after
    it: a departure at t_c goes first, then the clear, then an arrival at
    t_c. A pool's plan depends only on its count vector (agents per type),
    so the matcher runs once per distinct count vector of the run, on one
    table of optimal values per component shared by all of them."""
    from .hindsight import MatchingTooLargeError, max_weight_pool  # hindsight imports us

    period = policy.clear_period
    times = period * np.arange(1, int(pop.horizon / period) + 2)
    times = times[times <= pop.horizon]
    values = instance.values.dense()
    dep = pop.agents()[3].tolist()
    # per type, the agents (by arrival index) still present at the first
    # clear after their arrival, and how many of them have joined by each clear
    joins, joined = [], []
    for a, d, index in zip(pop.arrivals, pop.departures, pop.by_type()):
        first = np.searchsorted(times, a, "right")
        stays = first < len(times)
        stays[stays] = d[stays] > times[first[stays]]
        joins.append(index[stays].tolist())
        joined.append(np.searchsorted(first[stays], np.arange(len(times)), "right").tolist())
    records = (array("q"), array("q"), array("q"))  # the clear's index, both agents
    clear, agent_a, agent_b = (r.append for r in records)
    state = MarketState(instance.n_types)
    waiting = state.waiting
    # per count vector: its pairs (x, rank in x's run, y, rank in y's run)
    # and the (type, rank) of every matched agent, ranks descending
    plans: dict[tuple[int, ...], tuple[list, list]] = {}
    tables: dict = {}
    begin = [0] * instance.n_types
    for c, tc in enumerate(times.tolist()):
        for x, w in enumerate(waiting):
            if w:  # drop the agents departed since the last clear
                w[:] = [g for g in w if dep[g] > tc]
            end = joined[x][c]
            if end > begin[x]:
                w += joins[x][begin[x]:end]
                begin[x] = end
        counts = tuple(map(len, waiting))
        plan = plans.get(counts)
        if plan is None:
            pool = state.snapshot_available()
            try:
                pairs = max_weight_pool(pool, values, tables)
            except MatchingTooLargeError as err:
                raise MatchingTooLargeError(f"{err} at clear time {tc!r}") from None
            rank = [i - pool.index(x) for i, x in enumerate(pool)]
            plan = plans[counts] = (
                [(pool[i], rank[i], pool[j], rank[j]) for i, j in pairs],
                sorted(((pool[i], rank[i]) for pair in pairs for i in pair), key=lambda d: -d[1]),
            )
        pairs, drops = plan
        for xa, ra, xb, rb in pairs:
            clear(c)
            agent_a(waiting[xa][ra])
            agent_b(waiting[xb][rb])
        for x, r in drops:
            del waiting[x][r]
    c, a, b = (np.frombuffer(r, dtype=np.int64) for r in records)
    return times[c], np.minimum(a, b), np.maximum(a, b)


def _build_outputs(
    instance: MarketInstance, policy: PolicyConfig, pop: Population,
    matches: tuple[np.ndarray, ...], horizon: float, burn_in: float, seed: int, record_trace: bool,
) -> tuple[EventTrace | None, SimulationReport]:
    """The report and, if record_trace, the trace of a run, from its match
    columns in any order: the time, then the arrival indices of the
    earlier and the later agent."""
    n = instance.n_types
    values = np.array(instance.values.dense(), dtype=np.float64).reshape(n, n)
    t, a, b = matches
    ax, asr = pop.order_types[a], pop.order_serials[a]
    bx, bsr = pop.order_types[b], pop.order_serials[b]
    # the records in (time, a, b) order, which no two of them share
    order = np.lexsort((bsr, bx, asr, ax, t))
    t, a, b, ax, asr, bx, bsr = (c[order] for c in (t, a, b, ax, asr, bx, bsr))
    v = values[ax, bx]

    window = horizon - burn_in
    counted = t > burn_in
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (ax[counted], bx[counted]), 1)
    match_count = int(counted.sum())
    # summed in record order, one addition at a time, as a running total
    total_value = float(np.cumsum(v[counted])[-1]) if match_count else 0.0
    rates = tuple(tuple(c / window if window > 0 else 0.0 for c in row) for row in counts.tolist())

    report = SimulationReport(
        policy=policy.describe(),
        horizon=horizon,
        burn_in=burn_in,
        seed=seed,
        arrivals_per_type=tuple(len(a) for a in pop.arrivals),
        match_count=match_count,
        total_value=total_value,
        avg_value_per_time=total_value / window if window > 0 else 0.0,
        pair_match_counts=tuple(map(tuple, counts.tolist())),
        pair_match_rates=rates,
        presence_frequency=_presence_from_population(pop, burn_in, horizon),
    )

    if not record_trace:
        return None, report

    # one row per arrival, per departure up to the horizon, per match
    types, serials, arr, dep = pop.agents()
    flags = np.zeros(len(arr), dtype=bool)
    flags[a] = flags[b] = True
    leaving = dep <= horizon
    n_dep = int(leaving.sum())
    no_agent = np.full(len(arr) + n_dep, -1)
    rows = dict(
        time=np.concatenate((arr, dep[leaving], t)),
        kind=np.repeat(np.array([ARRIVAL, DEPARTURE, MATCH], dtype=np.int8),
                       [len(arr), n_dep, len(t)]),
        a_type=np.concatenate((types, types[leaving], ax)),
        a_serial=np.concatenate((serials, serials[leaving], asr)),
        b_type=np.concatenate((no_agent, bx)),
        b_serial=np.concatenate((no_agent, bsr)),
        value=np.concatenate((np.zeros(len(arr) + n_dep), v)),
        matched=np.concatenate((np.zeros(len(arr), dtype=bool), flags[leaving],
                                np.zeros(len(t), dtype=bool))),
    )
    keys = ("b_serial", "b_type", "a_serial", "a_type", "kind", "time")  # last is primary
    order = np.lexsort([rows[k] for k in keys])
    trace = EventTrace(**{k: c[order] for k, c in rows.items()},
                       horizon=horizon, burn_in=burn_in, seed=seed)
    return trace, report


# ---------------------------------------------------------------------------
# trace consumers


def estimate_rates(trace: EventTrace, instance: MarketInstance) -> np.ndarray:
    """Recompute pair match rates from a trace: slot [x][y] is the
    post-burn-in rate of matches whose earlier agent had type x and later
    agent type y."""
    n = instance.n_types
    window = trace.horizon - trace.burn_in
    rates = np.zeros((n, n))
    if window <= 0:
        return rates
    counted = (trace.kind == MATCH) & (trace.time > trace.burn_in)
    np.add.at(rates, (trace.a_type[counted], trace.b_type[counted]), 1.0)
    return rates / window


def presence_frequency(
    trace: EventTrace, instance: MarketInstance, type_id: int
) -> float:
    """Fraction of post-burn-in time with at least one type_id agent
    present, reading presence intervals (arrival to shadow departure) off
    the trace. Agents without a departure row are alive past the horizon."""
    if not 0 <= type_id < instance.n_types:
        raise IndexError(f"no type {type_id}")
    window = trace.horizon - trace.burn_in
    if window <= 0:
        return 0.0
    types, _, starts, ends, _ = trace.lifetimes()
    mine = types == type_id  # in serial order
    if not mine.any():
        return 0.0
    return _interval_cover(starts[mine], ends[mine], trace.burn_in, trace.horizon) / window


def replay_check(trace: EventTrace, instance: MarketInstance) -> list[str]:
    """Validate a trace against the feasibility rules; returns violations.

    A match at time t needs both agents arrived (a <= t), unmatched so far,
    and not yet departed (t < d, or t == a for a zero-length agent matched
    at its own arrival instant). Empty list means the trace replays clean.

    The checks read the rows in order, as a walk over them would: arrived,
    matched and arrival time mean so far, departure means the agent's last
    departure row. They run on whole columns. Each step of the walk has a
    position, 2 * row for an arrival or departure and 2 * row + slot for
    the two agents of a match, and "so far" is a lookup of the agent's last
    earlier step in sorted (agent, position) keys. Violations come out in
    walk order, after a first pass that finds repeated departures.
    """
    t = trace.time
    n = len(t)
    mat = np.flatnonzero(trace.kind == MATCH)
    # steps: slot a of every row, at 2 * row, then slot b of every match,
    # at 2 * row + 1
    types = np.concatenate((trace.a_type, trace.b_type[mat]))
    serials = np.concatenate((trace.a_serial, trace.b_serial[mat]))
    row = np.concatenate((np.arange(n), mat))
    slot_b = np.arange(len(row)) >= n
    order, first, last = _agent_runs(types, serials, 2 * row + slot_b)
    kind = np.concatenate((trace.kind, np.full(len(mat), MATCH, dtype=np.int8)))[order]
    at = t[row[order]]
    is_arr, is_match, is_dep = kind == ARRIVAL, kind == MATCH, kind == DEPARTURE
    came = _latest(is_arr, first)
    arrived = came >= 0
    since = np.where(arrived, at[came], math.nan)
    gone = _latest(is_dep, first, inclusive=True)[last]
    departs = np.where(gone >= 0, at[gone], math.inf)
    held = is_match & arrived  # an agent counts as matched once it has arrived
    had = _latest(held, first) >= 0
    # (pass, check, steps, text); checks 2-4 move to 5-7 for slot b
    step_checks = (
        (0, 0, is_dep & (_latest(is_dep, first) >= 0), "departs twice"),
        (1, 1, is_arr & arrived, "arrives twice"),
        (1, 2, is_match & (~arrived | (since > at)), "matched before arriving"),
        (1, 3, held & ~((at < departs) | (at == since)), "matched after departing"),
        (1, 4, held & had, "matched twice"),
        (1, 1, is_dep & ~arrived, "departs without arriving"),
        (1, 1, is_dep & arrived & (departs < since), "departs before arriving"),
        (1, 8, is_dep & (trace.matched[row[order]] != had), "has a wrong matched flag"),
    )
    found: list[tuple[int, int, int, str]] = []  # (pass, row, check, text)
    for phase, check, bad, text in step_checks:
        for k in order[bad].tolist():
            found.append((phase, int(row[k]), check + 3 * int(slot_b[k]),
                          f"{types[k]}:{serials[k]} {text}"))
    for i in np.flatnonzero(t < np.concatenate(([0.0], t[:-1]))).tolist():
        found.append((1, i, 0, f"events out of order at t={float(t[i])}"))
    # a pair of types outside the value table is worth 0, as values.get says
    table = np.array(instance.values.dense(), dtype=np.float64)
    ax, bx = trace.a_type[mat], trace.b_type[mat]
    known = (ax >= 0) & (ax < len(table)) & (bx >= 0) & (bx < len(table))
    want = np.zeros(len(mat))
    want[known] = table[ax[known], bx[known]]
    got = trace.value[mat]
    bad = want != got
    for i, v, w in zip(mat[bad].tolist(), got[bad].tolist(), want[bad].tolist()):
        found.append((1, i, 1, f"match value {v} disagrees with the instance ({w})"))
    found.sort(key=lambda f: f[:3])
    return [f[3] for f in found]


# ---------------------------------------------------------------------------
# trace CSV round-trip

TRACE_SCHEMA = "dynmatch-trace v1"
_COLUMNS = "time,event,agent_a,agent_b,value"


def write_trace_csv(trace: EventTrace, path: str, policy: str = "") -> None:
    """Persist a trace with a versioned header comment line; floats are
    written with repr so a rewrite of the same trace is byte-identical."""
    # a row is six pieces: time, ",kind,", a_type, ":", a_serial, and
    # ",b_type:b_serial,value" or ",," before the newline; object arrays of
    # strings add elementwise
    n = len(trace.time)
    mat = trace.kind == MATCH
    tail = np.full(n, ",,\n", dtype=object)
    tail[mat] = (
        "," + _texts(trace.b_type[mat]) + ":" + _texts(trace.b_serial[mat])
        + "," + _texts(trace.value[mat]) + "\n"
    )
    pieces = [":"] * (6 * n)
    pieces[0::6] = _texts(trace.time).tolist()
    pieces[1::6] = _KIND_FIELDS[trace.kind].tolist()
    pieces[2::6] = _texts(trace.a_type).tolist()
    pieces[4::6] = _texts(trace.a_serial).tolist()
    pieces[5::6] = tail.tolist()
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# {TRACE_SCHEMA} seed={trace.seed} policy={policy}"
            f" horizon={trace.horizon!r} burn_in={trace.burn_in!r}\n{_COLUMNS}\n"
        )
        fh.write("".join(pieces))


def _texts(values: np.ndarray) -> np.ndarray:
    """repr() of each int64 or float64 as an object array, each distinct
    value formatted once. Floats are told apart by bit pattern, so 0.0
    and -0.0 keep their own texts."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(
        list(map(repr, distinct.view(values.dtype).tolist())), dtype=object
    )[inverse]


# agent ids longer than this many digits are refused (10**18 - 1 < 2**63)
_MAX_DIGITS = 18
# float fields up to this many bytes go through the one fixed-width cast
# (repr() of a float64 takes at most 24)
_FLOAT_WIDTH = 32


def read_trace_csv(path: str) -> tuple[EventTrace, dict]:
    """Inverse of write_trace_csv; rows keep their file order. Departure
    matched-flags are rebuilt from the match rows (a match always precedes
    its agents' departure rows).

    The file is read as bytes, with line ends as text mode reads them
    (CR LF and a lone CR each end a line). The body is parsed as one
    numpy byte buffer: rows and fields are cut at the positions of
    newlines and commas, an event kind is matched on its bytes, an agent
    id is two runs of ASCII digits around one colon, and the time and
    value fields are cast from fixed-width bytes, which parses each as
    float() parses bytes. Unlike int() and float() on text, the reader
    refuses a row holding a NUL or non-ASCII byte (in any field) and an
    agent id with a sign, blanks, underscores or more than 18 digits.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header, columns, body = (data.split(b"\n", 2) + [b"", b""])[:3]
    header = header.decode()
    if not header.startswith(f"# {TRACE_SCHEMA} "):
        raise ValueError(f"not a {TRACE_SCHEMA} file: {path}")
    meta: dict = {}
    for part in header[len(f"# {TRACE_SCHEMA} ") :].split():
        key, _, val = part.partition("=")
        meta[key] = val
    columns = columns.decode()
    if columns != _COLUMNS:
        raise ValueError(f"unexpected column header: {columns}")
    if body and not body.endswith(b"\n"):
        body += b"\n"
    # zero bytes past the end, so that a window of up to _FLOAT_WIDTH bytes
    # can start at any field
    raw = np.frombuffer(body + bytes(_FLOAT_WIDTH), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    n = len(ends)
    starts = np.concatenate(([0], ends + 1))[:n]
    commas = np.flatnonzero(raw == ord(","))
    # 4n sorted commas, the first and last of each four inside their row,
    # give every row exactly four
    if (len(commas) != 4 * n or (commas[0::4] < starts).any() or (commas[3::4] > ends).any()
            or not body.isascii() or b"\0" in body):
        raise _malformed_row(body, starts, ends, commas)
    # field k of row i is raw[lo[i, k] : hi[i, k]]
    lo = np.column_stack((starts, commas.reshape(n, 4) + 1))
    hi = np.column_stack((commas.reshape(n, 4), ends))
    kind = np.full(n, -1, dtype=np.int8)
    size = hi[:, 1] - lo[:, 1]
    names = _cells(raw, lo[:, 1], size, 9).view("S9").ravel()
    for code, name in enumerate(_KIND_NAMES):
        kind[(size == len(name)) & (names == name.encode())] = code
    if (kind < 0).any():
        i = int(np.argmax(kind < 0))
        raise ValueError(f"unknown event kind {body[lo[i, 1] : hi[i, 1]].decode()!r}")
    mat = np.flatnonzero(kind == MATCH)
    colons = np.flatnonzero(raw == ord(":"))
    a_type, a_serial = _agent_ids(raw, colons, lo[:, 2], hi[:, 2])
    b_type = np.full(n, -1, dtype=np.int64)
    b_serial = np.full(n, -1, dtype=np.int64)
    b_type[mat], b_serial[mat] = _agent_ids(raw, colons, lo[mat, 3], hi[mat, 3])
    value = np.zeros(n)
    value[mat] = _floats(raw, lo[mat, 4], hi[mat, 4])
    # a departure's flag: the agent sits in a match row above it
    dep = np.flatnonzero(kind == DEPARTURE)
    row = np.concatenate((mat, mat, dep))
    order, first, _ = _agent_runs(
        np.concatenate((a_type[mat], b_type[mat], a_type[dep])),
        np.concatenate((a_serial[mat], b_serial[mat], a_serial[dep])),
        row,
    )
    in_match = order < 2 * len(mat)
    had = _latest(in_match, first) >= 0
    matched = np.zeros(n, dtype=bool)
    matched[row[order[had & ~in_match]]] = True
    trace = EventTrace(
        time=_floats(raw, lo[:, 0], hi[:, 0]),
        kind=kind,
        a_type=a_type,
        a_serial=a_serial,
        b_type=b_type,
        b_serial=b_serial,
        value=value,
        matched=matched,
        horizon=float(meta["horizon"]),
        burn_in=float(meta["burn_in"]),
        seed=int(meta["seed"]),
    )
    return trace, meta


def _malformed_row(
    body: bytes, starts: np.ndarray, ends: np.ndarray, commas: np.ndarray
) -> ValueError:
    """The error naming the first row that has other than five fields or
    holds a NUL or non-ASCII byte."""
    text = np.frombuffer(body, dtype=np.uint8)
    bad = np.bincount(np.searchsorted(ends, commas), minlength=len(ends)) != 4
    bad[np.searchsorted(ends, np.flatnonzero((text == 0) | (text > 127)))] = True
    i = int(np.argmax(bad))
    row = body[starts[i] : ends[i]].decode(errors="replace")
    return ValueError(f"malformed trace row: {row!r}")


def _agent_ids(
    raw: np.ndarray, colons: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Type and serial columns of the "type:serial" fields raw[lo:hi], given
    the sorted positions of every colon in raw."""
    # the first colon at or after each field's start: without one inside
    # the field, the type's run takes in the comma or newline after it; a
    # second one falls inside the serial's run
    mid = np.append(colons, len(raw))[np.searchsorted(colons, lo)]
    types, ok_type = _digit_runs(raw, lo, mid)
    serials, ok_serial = _digit_runs(raw, mid + 1, hi)
    bad = ~(ok_type & ok_serial)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"malformed agent id: {raw[lo[i] : hi[i]].tobytes().decode()!r}")
    return types, serials


def _digit_runs(
    raw: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The int64 value of each run raw[lo:hi] of 1 to _MAX_DIGITS ASCII
    digits, summed by place value one digit column at a time, and whether
    the run is one."""
    size = hi - lo
    ok = (size > 0) & (size <= _MAX_DIGITS)
    width = max(1, int(size.max(initial=0, where=ok)))
    digits = sliding_window_view(raw, width)[np.where(ok, lo, 0)] - np.uint8(ord("0"))
    value = np.zeros(len(lo), dtype=np.int64)
    for j, column in enumerate(digits.T):
        inside = size > j
        ok &= ~inside | (column <= 9)  # other bytes wrap past 9
        value = np.where(inside, value * 10 + column, value)
    return value, ok


def _floats(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """float() of each field raw[lo:hi], by one cast of the fields
    zero-padded to a common width; a field longer than _FLOAT_WIDTH bytes
    is parsed on its own."""
    size = hi - lo
    long = np.flatnonzero(size > _FLOAT_WIDTH)
    size[long] = 1
    width = max(1, int(size.max(initial=0)))
    cells = _cells(raw, lo, size, width)
    cells[long, 0] = ord("0")
    out = cells.view(f"S{width}").ravel().astype(np.float64)
    out[long] = [float(raw[a:b].tobytes()) for a, b in zip(lo[long].tolist(), hi[long].tolist())]
    return out


def _cells(raw: np.ndarray, lo: np.ndarray, size: np.ndarray, width: int) -> np.ndarray:
    """The fields raw[lo : lo + size] as the rows of a (len(lo), width)
    byte array, zero-padded (and cut) to width."""
    cells = sliding_window_view(raw, width)[lo]
    cells[np.arange(width) >= size[:, None]] = 0
    return cells
