"""Discrete-event simulation of the matching market.

The engine samples every agent's arrival and departure up front (one
"arrivals" rng lane per run, shared by all policies on the same seed, which
is what makes cross-policy comparisons common-random-number comparisons),
then walks arrivals in time order applying the policy. Departure times are
sampled at arrival; matched agents keep their sampled departure as a shadow
so presence statistics are policy-independent.

Every policy but periodic clearing runs through one loop, _run_walks:
each arrival walks a list of candidate types in order and matches the
FIFO-oldest available agent of the first candidate that has one. The
random-order policy's lists are its passing checks in permutation order,
pre-evaluated for all arrivals in one numpy pass (_decision_blocks);
greedy's list is fixed per arriving type. Periodic clearing matches only
at clearing times, through MarketState and the exact pool matcher. The
scalar step functions in policies.py are the reference this loop is
tested against; diagnostics.py reads the same decision blocks after the
run instead of watching it.

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lp import LpSolution
from .market import AgentId, MarketInstance, validate_instance
from .policies import PolicyConfig, PolicyKind, attempt_probabilities, periodic_clear
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


@dataclass(frozen=True)
class EventTrace:
    events: tuple[Event, ...]
    horizon: float
    burn_in: float
    seed: int
    complete: bool = True  # False when the run skipped event recording

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def matches(self) -> list[MatchEvent]:
        return [e for e in self.events if isinstance(e, MatchEvent)]


def _event_sort_key(e: Event) -> tuple:
    if isinstance(e, ArrivalEvent):
        return (e.time, 0, e.agent.type_id, e.agent.serial, -1, -1)
    if isinstance(e, MatchEvent):
        return (e.time, 1, e.agent_a.type_id, e.agent_a.serial,
                e.agent_b.type_id, e.agent_b.serial)
    return (e.time, 2, e.agent.type_id, e.agent.serial, -1, -1)


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
        stream = sample_homogeneous_stream(t.arrival_rate, horizon, rng, label=t.label)
        arr = np.array(stream.times, dtype=np.float64)
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
    """Available-agent queues for periodic clearing.

    Queues hold serials in arrival order. Departed agents are dropped when
    a clearing takes its snapshot, so no departure sweep runs between
    clearings.
    """

    __slots__ = ("instance", "clock", "_queues", "_arr", "_dep")

    def __init__(self, instance: MarketInstance, population: Population):
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


# match record: (time, a_type, a_serial, b_type, b_serial, value) with the
# earlier arrival in slot a
_MatchRecord = tuple[float, int, int, int, int, float]


def _ordered_pair(
    t: float, ta: float, xa: int, sa: int, tb: float, xb: int, sb: int, v: float
) -> _MatchRecord:
    if (ta, xa, sa) <= (tb, xb, sb):
        return (t, xa, sa, xb, sb, v)
    return (t, xb, sb, xa, sa, v)


# ---------------------------------------------------------------------------
# the engine


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
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if burn_in is None:
        burn_in = horizon / 100.0
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if burn_in >= horizon and horizon > 0:
        raise ValueError(f"burn_in {burn_in} must be below horizon {horizon}")
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
) -> tuple[EventTrace, SimulationReport]:
    """Simulate one run and summarize it.

    burn_in defaults to horizon/100. A zero horizon is a valid degenerate
    run (empty trace, zero report). The random-order policy requires an LP
    solution.
    """
    burn_in = _checked_burn_in(instance, policy, solution, horizon, burn_in)
    pop = generate_population(instance, horizon, seed)
    if policy.kind is PolicyKind.ONLINE_MATCH:
        walks = _candidate_walks(*_decision_blocks(instance, policy, solution, pop, seed))
        records, matched = _run_walks(instance, pop, walks)
    elif policy.kind is PolicyKind.GREEDY:
        records, matched = _run_walks(instance, pop, _greedy_walks(instance, pop))
    elif policy.kind is PolicyKind.PERIODIC_CLEAR:
        records, matched = _run_clearing(instance, policy, pop)
    else:
        records, matched = [], [bytearray(len(a)) for a in pop.arrivals]
    return _build_outputs(
        instance, policy, pop, records, matched, horizon, burn_in, seed, record_trace
    )


def run_with_decisions(
    instance: MarketInstance,
    solution: LpSolution,
    gamma: float,
    *,
    horizon: float,
    seed: int,
) -> tuple[SimulationReport, Population, np.ndarray, np.ndarray, list[_MatchRecord]]:
    """The random-order run at zero burn-in, plus what it decided from.

    Returns the report, the population, the decision blocks (perm, checks)
    of _decision_blocks and the match records, arriver in slot b. The run
    is the one run_simulation makes on the same seed and lanes.
    """
    policy = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=gamma)
    _checked_burn_in(instance, policy, solution, horizon, 0.0)
    pop = generate_population(instance, horizon, seed)
    perm, checks = _decision_blocks(instance, policy, solution, pop, seed)
    records, matched = _run_walks(instance, pop, _candidate_walks(perm, checks))
    _, report = _build_outputs(
        instance, policy, pop, records, matched, horizon, 0.0, seed, False
    )
    return report, pop, perm, checks, records


def _decision_blocks(
    instance: MarketInstance,
    policy: PolicyConfig,
    solution: LpSolution,
    pop: Population,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-evaluate every arrival's policy randomness in one numpy pass.

    Returns (perm, checks), both (arrivals, n): row i is arrival i's type
    permutation and its check outcomes in permutation-position order.
    Consumes exactly 2n-1 draws per arrival from the decisions lane,
    bit-identical to the scalar walk in policies.online_match_step.
    """
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
    ) * _INV53
    checks = uniforms <= probs[perm, pop.order_types[:, None]]
    return perm, checks


def _candidate_walks(perm: np.ndarray, checks: np.ndarray) -> Iterator[list[int]]:
    """Per arrival, the types whose check passed, in permutation order."""
    offsets = np.concatenate(([0], np.cumsum(checks.sum(axis=1)))).tolist()
    candidates = perm[np.nonzero(checks)].tolist()
    return map(candidates.__getitem__, map(slice, offsets, offsets[1:]))


def _greedy_walks(instance: MarketInstance, pop: Population) -> Iterator[list[int]]:
    """Per arrival of type y, the types x with v_xy > 0 by descending value,
    ties to the lower id: policies.greedy_step's preference order."""
    values = instance.values.dense()
    n = instance.n_types
    by_type = [
        sorted((x for x in range(n) if values[x][y] > 0.0), key=lambda x: (-values[x][y], x))
        for y in range(n)
    ]
    return map(by_type.__getitem__, pop.order_types.tolist())


def _run_walks(
    instance: MarketInstance, pop: Population, walks: Iterable[Sequence[int]]
) -> tuple[list[_MatchRecord], list[bytearray]]:
    """The engine loop: arrival i tries the types of its walk in order and
    matches the FIFO-oldest available agent of the first that has one; an
    unmatched patient arrival joins its type's queue. Queues are purged
    lazily, dropping departed heads as a walk meets them."""
    n = instance.n_types
    matched = [bytearray(len(a)) for a in pop.arrivals]
    records: list[_MatchRecord] = []
    deps = [d.tolist() for d in pop.departures]
    values = instance.values.dense()
    queues: list[deque[int]] = [deque() for _ in range(n)]
    arrivals = zip(
        pop.order_times.tolist(),
        pop.order_types.tolist(),
        pop.order_serials.tolist(),
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
            matched[x][found] = 1
            matched[y][s] = 1
            # the partner is earlier in (time, type, serial) order: slot a
            records.append((t, x, found, y, s, values[x][y]))
        elif deps[y][s] > t:
            queues[y].append(s)
    return records, matched


def _run_clearing(
    instance: MarketInstance, policy: PolicyConfig, pop: Population
) -> tuple[list[_MatchRecord], list[bytearray]]:
    """Periodic clearing: arrivals only queue up; matches happen at clear
    times, on the pool of available agents."""
    from .hindsight import max_weight_pool  # local import; hindsight imports us

    assert policy.clear_period
    matched = [bytearray(len(a)) for a in pop.arrivals]
    records: list[_MatchRecord] = []
    state = MarketState(instance, pop)
    values = instance.values
    period = policy.clear_period
    clear_times = [
        k * period
        for k in range(1, int(pop.horizon / period) + 2)
        if k * period <= pop.horizon
    ]
    ci = 0

    def do_clear(tc: float) -> None:
        state.set_clock(tc)
        for a, b, v in periodic_clear(state, values, max_weight_pool):
            matched[a.type_id][a.serial] = 1
            matched[b.type_id][b.serial] = 1
            records.append(
                _ordered_pair(
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
    return records, matched


def _build_outputs(
    instance: MarketInstance,
    policy: PolicyConfig,
    pop: Population,
    records: list[_MatchRecord],
    matched: list[bytearray],
    horizon: float,
    burn_in: float,
    seed: int,
    record_trace: bool,
) -> tuple[EventTrace, SimulationReport]:
    n = instance.n_types
    records = sorted(records, key=lambda r: (r[0], r[1], r[2], r[3], r[4]))

    window = horizon - burn_in
    counts = [[0] * n for _ in range(n)]
    total_value = 0.0
    match_count = 0
    for t, ax, asr, bx, bsr, v in records:
        if t > burn_in:
            counts[ax][bx] += 1
            total_value += v
            match_count += 1
    rates = tuple(
        tuple(c / window if window > 0 else 0.0 for c in row) for row in counts
    )

    report = SimulationReport(
        policy=policy.describe(),
        horizon=horizon,
        burn_in=burn_in,
        seed=seed,
        arrivals_per_type=tuple(len(a) for a in pop.arrivals),
        match_count=match_count,
        total_value=total_value,
        avg_value_per_time=total_value / window if window > 0 else 0.0,
        pair_match_counts=tuple(tuple(row) for row in counts),
        pair_match_rates=rates,
        presence_frequency=_presence_from_population(pop, burn_in, horizon),
    )

    if not record_trace:
        trace = EventTrace((), horizon, burn_in, seed, complete=False)
        return trace, report

    events: list[Event] = []
    for x in range(n):
        arr = pop.arrivals[x]
        dep = pop.departures[x]
        flags = matched[x]
        for s in range(len(arr)):
            events.append(ArrivalEvent(float(arr[s]), AgentId(x, s)))
            if dep[s] <= horizon:
                events.append(
                    DepartureEvent(float(dep[s]), AgentId(x, s), bool(flags[s]))
                )
    for t, ax, asr, bx, bsr, v in records:
        events.append(MatchEvent(t, AgentId(ax, asr), AgentId(bx, bsr), v))
    events.sort(key=_event_sort_key)
    trace = EventTrace(tuple(events), horizon, burn_in, seed, complete=True)
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
    for e in trace.events:
        if isinstance(e, MatchEvent) and e.time > trace.burn_in:
            rates[e.agent_a.type_id, e.agent_b.type_id] += 1.0
    return rates / window


def presence_frequency(
    trace: EventTrace, instance: MarketInstance, type_id: int
) -> float:
    """Fraction of post-burn-in time with at least one type_id agent
    present, reading presence intervals (arrival to shadow departure) off
    the trace. Agents without a departure row are alive past the horizon."""
    if not trace.complete:
        raise ValueError("presence needs a recorded trace")
    if not 0 <= type_id < instance.n_types:
        raise IndexError(f"no type {type_id}")
    window = trace.horizon - trace.burn_in
    if window <= 0:
        return 0.0
    arr: dict[int, float] = {}
    dep: dict[int, float] = {}
    for e in trace.events:
        if isinstance(e, ArrivalEvent) and e.agent.type_id == type_id:
            arr[e.agent.serial] = e.time
        elif isinstance(e, DepartureEvent) and e.agent.type_id == type_id:
            dep[e.agent.serial] = e.time
    if not arr:
        return 0.0
    serials = sorted(arr)
    starts = np.array([arr[s] for s in serials])
    ends = np.array([dep.get(s, trace.horizon) for s in serials])
    return _interval_cover(starts, ends, trace.burn_in, trace.horizon) / window


def replay_check(trace: EventTrace, instance: MarketInstance) -> list[str]:
    """Validate a trace against the feasibility rules; returns violations.

    A match at time t needs both agents arrived (a <= t), unmatched so far,
    and not yet departed (t < d, or t == a for a zero-length agent matched
    at its own arrival instant). Empty list means the trace replays clean.
    """
    if not trace.complete:
        raise ValueError("replay needs a recorded trace")
    problems: list[str] = []
    arr: dict[AgentId, float] = {}
    dep: dict[AgentId, float] = {}
    for e in trace.events:
        if isinstance(e, DepartureEvent):
            if e.agent in dep:
                problems.append(f"{e.agent.text()} departs twice")
            dep[e.agent] = e.time
    matched: set[AgentId] = set()
    last_t = 0.0
    for e in trace.events:
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


# ---------------------------------------------------------------------------
# trace CSV round-trip

TRACE_SCHEMA = "dynmatch-trace v1"


def write_trace_csv(trace: EventTrace, path: str, policy: str = "") -> None:
    """Persist a trace with a versioned header comment line; floats are
    written with repr so a rewrite of the same trace is byte-identical."""
    if not trace.complete:
        raise ValueError("cannot persist a trace that skipped event recording")
    lines = [
        f"# {TRACE_SCHEMA} seed={trace.seed} policy={policy}"
        f" horizon={trace.horizon!r} burn_in={trace.burn_in!r}",
        "time,event,agent_a,agent_b,value",
    ]
    for e in trace.events:
        if isinstance(e, ArrivalEvent):
            lines.append(f"{e.time!r},arrival,{e.agent.text()},,")
        elif isinstance(e, MatchEvent):
            lines.append(
                f"{e.time!r},match,{e.agent_a.text()},{e.agent_b.text()},{e.value!r}"
            )
        else:
            lines.append(f"{e.time!r},departure,{e.agent.text()},,")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path: str) -> tuple[EventTrace, dict]:
    """Inverse of write_trace_csv. Departure matched-flags are rebuilt from
    the match rows (a match always precedes its agents' departure rows)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(f"# {TRACE_SCHEMA} "):
            raise ValueError(f"not a {TRACE_SCHEMA} file: {path}")
        meta: dict = {}
        for part in header[len(f"# {TRACE_SCHEMA} ") :].split():
            key, _, val = part.partition("=")
            meta[key] = val
        columns = fh.readline().rstrip("\n")
        if columns != "time,event,agent_a,agent_b,value":
            raise ValueError(f"unexpected column header: {columns}")
        events: list[Event] = []
        matched: set[AgentId] = set()
        for line in fh:
            row = line.rstrip("\n").split(",")
            if len(row) != 5:
                raise ValueError(f"malformed trace row: {line!r}")
            t = float(row[0])
            kind = row[1]
            if kind == "arrival":
                events.append(ArrivalEvent(t, AgentId.from_text(row[2])))
            elif kind == "match":
                a = AgentId.from_text(row[2])
                b = AgentId.from_text(row[3])
                matched.add(a)
                matched.add(b)
                events.append(MatchEvent(t, a, b, float(row[4])))
            elif kind == "departure":
                agent = AgentId.from_text(row[2])
                events.append(DepartureEvent(t, agent, agent in matched))
            else:
                raise ValueError(f"unknown event kind {kind!r}")
    trace = EventTrace(
        events=tuple(events),
        horizon=float(meta["horizon"]),
        burn_in=float(meta["burn_in"]),
        seed=int(meta["seed"]),
        complete=True,
    )
    return trace, meta
