"""Instrumentation for the random-order policy's guarantee machinery.

The competitive analysis rests on a small family of marker events per
type x. They are counted after the run, from the decision blocks the engine
walked (each arrival's type permutation and pre-evaluated checks), its
match records and the policy-free presence of the population:

* idle arrival: an agent of type x arrives and its pre-evaluated checks
  pass on no type that is present. The arriver is then certainly unmatched
  and, if patient, waits in the queue.
* inbound attempt: some arrival's pre-evaluated check on x passes while at
  least one x is present (whether or not the walk reaches x). While no x is
  present, an independent Poisson clock of the same nominal rate
  gamma * sum_y lambda_y * alpha_xy * max(1, mu_x/lambda_x) stands in, so
  the combined point process has that rate unconditionally.
* sole departure: the only present x departs. While the present count is
  not exactly one, an independent clock of rate mu_x stands in, making the
  combined rate exactly mu_x.
* first attempt (per ordered pair x,y): a type-y arrival's walk reaches x
  with a passing check, and no earlier-visited type with a passing check
  was present. A second variant counts every reached attempt, blocking
  only on "present and available" instead of "present"; both are recorded
  because the two readings of the blocking rule differ slightly.
* secured attempt: a first attempt on x that lands while x's most recent
  marker event (idle arrival / inbound attempt / sole departure) is an
  idle arrival. In that waiting state an unmatched x is essentially
  guaranteed to be available, so secured attempts should coincide with
  actual matches; the counters record the coincidence fraction and the
  exact per-pair inequality secured <= matched.

The count runs in two steps. _marker_events walks the run a chunk of
arrivals at a time (a DecidedRun) and, once each chunk's walk is done,
reads its decision blocks and match records into a MarkerEvents record
(the real events and each type's presence transitions); no array of the
pass grows as agents x types. Then _event_counters adds the stand-in
clocks and the waiting-state timeline and builds the EventCounters. Clock
draws come from dedicated rng lanes chained off (seed, "diag", type_id)
so instrumentation never perturbs the run itself: clocks are full-horizon
streams sampled post-run and intersected with the presence windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .lp import LpSolution
from .market import MarketInstance
from .policies import attempt_probabilities
from .randomness import Rng, derive_seed, sample_homogeneous_stream
from .simulate import DecidedRun, Population, SimulationReport

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# decidability cutoffs: an equality band of +-5% resolves at 3 sigma once
# target*horizon >= (3/0.05)^2; a one-sided floor needs a couple dozen
# expected events before 3 SE means anything
_EQUALITY_MIN_EVENTS = 3600.0
_FLOOR_MIN_EVENTS = 25.0
# the shortest horizon check_rate_bounds accepts
MIN_BOUND_HORIZON = 1e4


@dataclass(frozen=True)
class EventCounters:
    """Marker-event tallies from one instrumented run (or a merge).

    Time lists are per type (tuple indexed by type id) or per ordered pair
    (dict keyed by (x, y)); rates are len(list)/horizon. waiting_fraction
    is the share of time each type spends in the waiting state, with
    batch-mean slices for a standard error. Merged counters concatenate
    occurrence lists and sum horizons, so the lists are then multisets of
    per-run timestamps rather than one sorted timeline.
    """

    n_types: int
    horizon: float
    gamma: float
    idle_arrival_times: tuple[np.ndarray, ...]
    inbound_attempt_times: tuple[np.ndarray, ...]
    sole_departure_times: tuple[np.ndarray, ...]
    first_attempt_times: dict[tuple[int, int], np.ndarray]
    reached_attempt_times: dict[tuple[int, int], np.ndarray]
    secured_attempt_times: dict[tuple[int, int], np.ndarray]
    secured_coincident: dict[tuple[int, int], int]
    pair_match_counts: tuple[tuple[int, ...], ...]
    waiting_fraction: tuple[float, ...]
    waiting_batches: tuple[np.ndarray, ...]

    def rate(self, times: np.ndarray) -> float:
        return len(times) / self.horizon

    def to_dict(self) -> dict:
        def pair_key(k: tuple[int, int]) -> str:
            return f"{k[0]}-{k[1]}"

        return {
            "n_types": self.n_types,
            "horizon": self.horizon,
            "gamma": self.gamma,
            "idle_arrival_counts": [len(a) for a in self.idle_arrival_times],
            "inbound_attempt_counts": [len(a) for a in self.inbound_attempt_times],
            "sole_departure_counts": [len(a) for a in self.sole_departure_times],
            "first_attempt_counts": {
                pair_key(k): len(v) for k, v in sorted(self.first_attempt_times.items())
            },
            "reached_attempt_counts": {
                pair_key(k): len(v) for k, v in sorted(self.reached_attempt_times.items())
            },
            "secured_attempt_counts": {
                pair_key(k): len(v) for k, v in sorted(self.secured_attempt_times.items())
            },
            "secured_coincident": {
                pair_key(k): v for k, v in sorted(self.secured_coincident.items())
            },
            "pair_match_counts": [list(r) for r in self.pair_match_counts],
            "waiting_fraction": list(self.waiting_fraction),
        }


@dataclass(frozen=True)
class MarkerEvents:
    """The marker events a finished run fixes by itself, before any clock.

    Per type (tuple indexed by type id): idle arrival times, inbound
    attempt and sole departure times of the real events, and the presence
    transitions as (times, present count after each). Per ordered pair
    (dict keyed by (x, y)): first attempt times with a matched flag per
    first attempt, and reached attempt times.
    """

    horizon: float
    idle: tuple[np.ndarray, ...]
    inbound: tuple[np.ndarray, ...]
    sole: tuple[np.ndarray, ...]
    transitions: tuple[tuple[np.ndarray, np.ndarray], ...]
    first: dict[tuple[int, int], np.ndarray]
    first_matched: dict[tuple[int, int], np.ndarray]
    reached: dict[tuple[int, int], np.ndarray]


def _marker_events(
    pop: Population,
    chunks: Iterable[tuple[int, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]],
) -> MarkerEvents:
    """Classify a random-order run's arrivals and departures into marker events.

    chunks walks the run (a DecidedRun): each chunk of arrivals comes
    after its walk, as its first arrival's index, its decision blocks
    (perm, checks: per arrival the type permutation and the check outcomes
    in that order) and the match records it made (the arrival indices of
    arriver and partner).
    An arrival's walk visits its passing checks in permutation order and
    stops at the type it matched, so those inputs fix every marker event.
    Presence is tracked independently of the market state: an agent is
    present from arrival until its shadow departure, matched or not, and an
    arrival's classification always uses presence *excluding* the arriver.
    """
    n = len(pop.arrivals)
    types, _, times, departures = pop.agents()
    step = np.arange(n)
    # x is present at an arrival when more x agents with a positive stay
    # came before it than departed by its time; came and left carry those
    # counts per type from chunk to chunk, left over the first `gone` of
    # the stays' departures in time order
    stay = departures > times
    by_time = np.argsort(departures[stay], kind="stable")
    leave_time = departures[stay][by_time]
    leave_type = types[stay][by_time]
    came = np.zeros(n, dtype=np.int64)
    left = np.zeros(n, dtype=np.int64)
    gone = 0

    # per chunk: idle arrivals (type, time); inbound attempts (type, time);
    # reached attempts (pair key x * n + y, time, first?, matched?)
    idle_parts: list[tuple[np.ndarray, ...]] = []
    inbound_parts: list[tuple[np.ndarray, ...]] = []
    reached_parts: list[tuple[np.ndarray, ...]] = []
    for start, perm, checks, records in chunks:
        end = start + len(perm)
        t, y = times[start:end], types[start:end]
        rows = np.arange(len(perm))[:, None]
        stays = stay[start:end]
        joins = (y[:, None] == step) & stays[:, None]
        came_by = came + np.cumsum(joins, axis=0) - joins
        came += joins.sum(axis=0)
        upto = np.searchsorted(leave_time, t, side="right")
        leaving = np.zeros((upto[-1] - gone + 1, n), dtype=np.int64)
        np.cumsum(leave_type[gone : upto[-1], None] == step, axis=0, out=leaving[1:])
        present = came_by > left + leaving[upto - gone]
        left += leaving[-1]
        gone = upto[-1]

        # the type each arrival matched, -1 if none
        arriver, partner_index = records
        partner = np.full(len(perm), -1, dtype=np.int64)
        partner[arriver - start] = types[partner_index]

        blocking = checks & present[rows, perm]
        idle = ~blocking.any(axis=1)
        pre = np.zeros(present.shape, dtype=bool)
        pre[rows, perm] = checks

        # a walk reaches the passing checks up to its matched type; first
        # attempts stop at the first passing check on a present type
        hit = perm == partner[:, None]
        stop = np.where(hit.any(axis=1), hit.argmax(axis=1), n - 1)
        unblocked = np.where(idle, n - 1, blocking.argmax(axis=1))
        reached = checks & (step <= stop[:, None])
        first = reached & (step <= unblocked[:, None])

        idle_parts.append((y[idle], t[idle]))
        at, xs = np.nonzero(present & pre)
        inbound_parts.append((xs, t[at]))
        at, k = np.nonzero(reached)
        reached_parts.append((perm[at, k] * n + y[at], t[at], first[at, k], hit[at, k]))

    sole = []
    transitions = []
    for x in range(n):
        arr, dep = pop.arrivals[x], pop.departures[x]
        stay = dep > arr
        leaves = np.nonzero(stay & (dep <= pop.horizon))[0]
        d = dep[leaves[np.argsort(dep[leaves], kind="stable")]]
        a = arr[stay]
        # a departure precedes arrivals at its own time
        before = np.searchsorted(a, d, side="left") - np.arange(len(d))
        sole.append(d[before == 1])
        when = np.concatenate((d, a))
        arriving = np.concatenate((np.zeros(len(d), bool), np.ones(len(a), bool)))
        order = np.lexsort((arriving, when))
        counts = np.cumsum(np.where(arriving[order], 1, -1))
        transitions.append((when[order], counts))

    def columns(parts: list[tuple[np.ndarray, ...]], *dtypes) -> list[np.ndarray]:
        # each column of the chunks' tuples, concatenated in arrival order
        return [np.concatenate([np.empty(0, dtype), *(p[c] for p in parts)])
                for c, dtype in enumerate(dtypes)]

    pair, when, is_first, matched = columns(reached_parts, np.int64, np.float64, bool, bool)
    return MarkerEvents(
        horizon=pop.horizon,
        idle=tuple(_by_key(*columns(idle_parts, np.int64, np.float64), n)),
        inbound=tuple(_by_key(*columns(inbound_parts, np.int64, np.float64), n)),
        sole=tuple(sole),
        transitions=tuple(transitions),
        first=_by_pair(pair[is_first], when[is_first], n),
        first_matched=_by_pair(pair[is_first], matched[is_first], n),
        reached=_by_pair(pair, when, n),
    )


def _event_counters(
    markers: MarkerEvents,
    instance: MarketInstance,
    solution: LpSolution,
    gamma: float,
    seed: int,
    batch_count: int,
    pair_match_counts: tuple[tuple[int, ...], ...],
) -> EventCounters:
    """Add the stand-in clocks and the waiting-state timeline to a run's
    marker events. Each clock is a full-horizon stream on its own rng
    lane, kept only inside its condition window: no x present for the
    inbound clock, a present count other than one for the departure clock."""
    horizon = markers.horizon
    n = instance.n_types
    alpha = solution.alpha
    inbound_all: list[np.ndarray] = []
    sole_all: list[np.ndarray] = []
    waiting_frac: list[float] = []
    waiting_batches: list[np.ndarray] = []
    secured: dict[tuple[int, int], np.ndarray] = {}
    coincident: dict[tuple[int, int], int] = {}
    bin_edges = np.linspace(0.0, horizon, batch_count + 1)

    for x, t in enumerate(instance.types):
        if t.impatient:
            inbound_rate, sole_rate = 0.0, None
        else:
            boost = max(1.0, t.departure_rate / t.arrival_rate)
            inbound_rate = gamma * boost * _sum_in_order(
                instance.types[y].arrival_rate * alpha[x][y] for y in range(n)
            )
            sole_rate = t.departure_rate
        # presence segment k spans [edges[k], edges[k+1]) with count[k]
        # present; the last segment runs to the horizon
        change_times, change_counts = markers.transitions[x]
        edges = np.concatenate(([0.0], change_times))
        count = np.concatenate(([0], change_counts))
        base = derive_seed(seed, "diag", x)
        inbound_clock = sample_homogeneous_stream(
            inbound_rate, horizon, Rng(derive_seed(base, "inbound"))
        )
        seg = np.searchsorted(edges, inbound_clock, side="right") - 1
        inbound_clock = inbound_clock[count[seg] == 0]
        inbound = np.sort(np.concatenate((markers.inbound[x], inbound_clock)))
        inbound_all.append(inbound)

        if sole_rate is None:  # impatient type: no departure process
            sole_all.append(np.empty(0))
            waiting_frac.append(0.0)
            waiting_batches.append(np.zeros(batch_count))
            continue
        sole_clock = sample_homogeneous_stream(
            sole_rate, horizon, Rng(derive_seed(base, "departure"))
        )
        seg = np.searchsorted(edges, sole_clock, side="right") - 1
        sole_clock = sole_clock[count[seg] != 1]
        sole = np.sort(np.concatenate((markers.sole[x], sole_clock)))
        sole_all.append(sole)

        # waiting-state timeline: most recent marker is an idle arrival
        idle = markers.idle[x]
        times = np.concatenate((idle, inbound, sole))
        is_idle = np.concatenate(
            (
                np.ones(len(idle), dtype=bool),
                np.zeros(len(inbound) + len(sole), dtype=bool),
            )
        )
        order = np.argsort(times, kind="stable")
        times = times[order]
        is_idle = is_idle[order]
        if len(times) == 0:
            waiting_frac.append(0.0)
            waiting_batches.append(np.zeros(batch_count))
        else:
            # waiting segments: one per idle event, [its time, next event)
            starts = times[is_idle]
            nxt = np.concatenate((times[1:], [horizon]))
            ends = nxt[is_idle]
            cum = np.array(
                [
                    np.clip(np.minimum(ends, q) - starts, 0.0, None).sum()
                    for q in bin_edges
                ]
            )
            per_bin = np.diff(cum)
            waiting_batches.append(per_bin / np.diff(bin_edges))
            waiting_frac.append(float(cum[-1] / horizon))

        for (fx, fy), ft in markers.first.items():
            if fx != x:
                continue
            fm = markers.first_matched[(fx, fy)]
            if len(times) == 0 or len(ft) == 0:
                secured[(fx, fy)] = np.empty(0)
                coincident[(fx, fy)] = 0
                continue
            # waiting holds at t iff the latest marker strictly before t
            # is an idle arrival; side="left" excludes markers at t itself
            idx = np.searchsorted(times, ft, side="left") - 1
            in_wait = (idx >= 0) & is_idle[np.clip(idx, 0, None)]
            secured[(fx, fy)] = ft[in_wait]
            coincident[(fx, fy)] = int((in_wait & fm).sum())

    return EventCounters(
        n_types=n,
        horizon=horizon,
        gamma=gamma,
        idle_arrival_times=markers.idle,
        inbound_attempt_times=tuple(inbound_all),
        sole_departure_times=tuple(sole_all),
        first_attempt_times=markers.first,
        reached_attempt_times=markers.reached,
        secured_attempt_times=secured,
        secured_coincident=coincident,
        pair_match_counts=pair_match_counts,
        waiting_fraction=tuple(waiting_frac),
        waiting_batches=tuple(waiting_batches),
    )


def instrument_z_events(
    instance: MarketInstance,
    solution: LpSolution,
    gamma: float,
    *,
    horizon: float,
    seed: int,
    batch_count: int = 20,
) -> tuple[EventCounters, SimulationReport]:
    """Run the random-order policy once and count its marker events.

    The run itself uses the standard seed lanes (identical to an
    uninstrumented run); the marker pass reads each chunk's decision blocks
    after its walk and draws nothing, and clocks use instrumentation-only
    lanes. burn_in is zero so counter rates and report rates share a
    window.
    """
    run = DecidedRun(instance, solution, gamma, horizon=horizon, seed=seed)
    markers = _marker_events(run.pop, run)
    report = run.report()
    return (
        _event_counters(
            markers, instance, solution, gamma, seed, batch_count,
            report.pair_match_counts,
        ),
        report,
    )


def _sum_in_order(values: Iterable[float]) -> float:
    """The sum of values, added left to right. Builtin sum compensates the
    rounding of float items from Python 3.12 on; this keeps the result the
    same on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _by_key(keys: np.ndarray, values: np.ndarray, size: int) -> list[np.ndarray]:
    """values split by their integer keys in [0, size): one array per key,
    each in the values' order."""
    # the narrowest key type: a stable sort of 16-bit keys is a radix sort
    order = np.argsort(keys.astype(np.min_scalar_type(size)), kind="stable")
    return np.split(values[order], np.cumsum(np.bincount(keys, minlength=size))[:-1])


def _by_pair(
    pairs: np.ndarray, values: np.ndarray, n: int
) -> dict[tuple[int, int], np.ndarray]:
    """values split by their pair keys x * n + y, keyed (x, y), for the
    pairs that occur."""
    return {
        (k // n, k % n): part
        for k, part in enumerate(_by_key(pairs, values, n * n))
        if len(part)
    }


def merge_counters(parts: list[EventCounters]) -> EventCounters:
    """Pool counters across replications: horizons add, occurrence lists
    concatenate, waiting fractions average time-weighted."""
    if not parts:
        raise ValueError("nothing to merge")
    first = parts[0]
    n = first.n_types
    for c in parts[1:]:
        if c.n_types != n or c.gamma != first.gamma:
            raise ValueError("counters disagree on shape or gamma")
    total_h = _sum_in_order(c.horizon for c in parts)

    def cat_type(get) -> tuple[np.ndarray, ...]:
        return tuple(
            np.concatenate([get(c)[x] for c in parts]) for x in range(n)
        )

    def cat_pairs(get) -> dict[tuple[int, int], np.ndarray]:
        keys = {k for c in parts for k in get(c)}
        return {
            k: np.concatenate([get(c).get(k, np.empty(0)) for c in parts])
            for k in keys
        }

    pair_counts = tuple(
        tuple(
            sum(c.pair_match_counts[x][y] for c in parts) for y in range(n)
        )
        for x in range(n)
    )
    coincident_keys = {k for c in parts for k in c.secured_coincident}
    return EventCounters(
        n_types=n,
        horizon=total_h,
        gamma=first.gamma,
        idle_arrival_times=cat_type(lambda c: c.idle_arrival_times),
        inbound_attempt_times=cat_type(lambda c: c.inbound_attempt_times),
        sole_departure_times=cat_type(lambda c: c.sole_departure_times),
        first_attempt_times=cat_pairs(lambda c: c.first_attempt_times),
        reached_attempt_times=cat_pairs(lambda c: c.reached_attempt_times),
        secured_attempt_times=cat_pairs(lambda c: c.secured_attempt_times),
        secured_coincident={
            k: sum(c.secured_coincident.get(k, 0) for c in parts)
            for k in coincident_keys
        },
        pair_match_counts=pair_counts,
        waiting_fraction=tuple(
            _sum_in_order(c.waiting_fraction[x] * c.horizon for c in parts) / total_h
            for x in range(n)
        ),
        waiting_batches=tuple(
            np.concatenate([c.waiting_batches[x] for c in parts])
            for x in range(n)
        ),
    )


# ---------------------------------------------------------------------------
# bound checking


@dataclass(frozen=True)
class BoundRow:
    bound: str
    subject: str
    empirical: float
    theoretical: float
    se: float
    verdict: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "subject": self.subject,
            "empirical": self.empirical,
            "theoretical": self.theoretical,
            "se": self.se,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class BoundReport:
    rows: tuple[BoundRow, ...]
    horizon: float
    gamma: float

    @property
    def failures(self) -> tuple[BoundRow, ...]:
        return tuple(r for r in self.rows if r.verdict == FAIL)

    @property
    def inconclusive(self) -> tuple[BoundRow, ...]:
        return tuple(r for r in self.rows if r.verdict == INCONCLUSIVE)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "horizon": self.horizon,
            "gamma": self.gamma,
            "ok": self.ok,
            "rows": [r.to_dict() for r in self.rows],
        }


def _equality_row(
    bound: str, subject: str, count: int, target: float, horizon: float
) -> BoundRow:
    emp = count / horizon
    se = math.sqrt(count) / horizon
    if target == 0.0:
        verdict = PASS if count == 0 else FAIL
        return BoundRow(bound, subject, emp, 0.0, se, verdict, "trivial: zero rate")
    if target * horizon < _EQUALITY_MIN_EVENTS:
        return BoundRow(
            bound, subject, emp, target, se, INCONCLUSIVE,
            "too few expected events for a 5% band",
        )
    verdict = PASS if abs(emp - target) <= 0.05 * target else FAIL
    return BoundRow(bound, subject, emp, target, se, verdict)


def _floor_row(
    bound: str, subject: str, count: int, floor: float, horizon: float, note: str = ""
) -> BoundRow:
    emp = count / horizon
    se = math.sqrt(count) / horizon
    if floor == 0.0:
        return BoundRow(bound, subject, emp, 0.0, se, PASS, note or "trivial: zero floor")
    if floor * horizon < _FLOOR_MIN_EVENTS:
        return BoundRow(
            bound, subject, emp, floor, se, INCONCLUSIVE,
            "too few expected events to resolve the floor",
        )
    verdict = PASS if emp >= floor - 3.0 * se else FAIL
    return BoundRow(bound, subject, emp, floor, se, verdict, note)


def check_rate_bounds(
    counters: EventCounters,
    instance: MarketInstance,
    solution: LpSolution,
    gamma: float,
) -> BoundReport:
    """Check the marker-event rates against their guarantees.

    Per patient type: the inbound-attempt rate must equal its nominal value
    and the sole-departure rate the departure rate, both within 5%; the
    waiting fraction must clear min(1, load) * (1-gamma)/(2-gamma) minus
    3 SE. Per ordered pair: the first-attempt rate and the realized match
    rate must clear their floors minus 3 SE, and secured attempts can never
    outnumber matches. The waiting and match floors rest on a derivation
    that needs gamma in [1/2, 1]; outside it those rows are INCONCLUSIVE.
    Rows whose expected event count is too small to decide are likewise
    INCONCLUSIVE rather than pass/fail.
    """
    if counters.horizon < MIN_BOUND_HORIZON:
        raise ValueError("rate bounds need a horizon of at least 1e4")
    if counters.gamma != gamma:
        raise ValueError(
            f"counters were collected at gamma={counters.gamma}, not {gamma}"
        )
    if counters.n_types != instance.n_types:
        raise ValueError("counters and instance disagree on the type count")
    attempt_probabilities(instance, solution, gamma)  # shape and range checks
    alpha = solution.alpha
    n = instance.n_types
    horizon = counters.horizon
    rows: list[BoundRow] = []
    labels = instance.labels()
    waiting_factor = (1.0 - gamma) / (2.0 - gamma)
    gamma_ok = 0.5 <= gamma <= 1.0

    for x, t in enumerate(instance.types):
        if t.impatient:
            rows.append(
                BoundRow(
                    "inbound_attempt_rate", labels[x],
                    counters.rate(counters.inbound_attempt_times[x]), 0.0, 0.0,
                    PASS if len(counters.inbound_attempt_times[x]) == 0 else FAIL,
                    "impatient type: nothing can attempt it",
                )
            )
            rows.append(
                BoundRow(
                    "waiting_fraction_floor", labels[x],
                    counters.waiting_fraction[x], 0.0, 0.0, PASS,
                    "impatient type: zero floor",
                )
            )
            continue
        boost = max(1.0, t.departure_rate / t.arrival_rate)
        inbound_target = gamma * boost * _sum_in_order(
            instance.types[y].arrival_rate * float(alpha[x][y]) for y in range(n)
        )
        rows.append(
            _equality_row(
                "inbound_attempt_rate", labels[x],
                len(counters.inbound_attempt_times[x]), inbound_target, horizon,
            )
        )
        rows.append(
            _equality_row(
                "sole_departure_rate", labels[x],
                len(counters.sole_departure_times[x]), t.departure_rate, horizon,
            )
        )
        load = min(1.0, t.arrival_rate / t.departure_rate)
        wfloor = load * waiting_factor
        batches = counters.waiting_batches[x]
        se = (
            float(batches.std(ddof=1) / math.sqrt(len(batches)))
            if len(batches) > 1
            else 0.0
        )
        emp = counters.waiting_fraction[x]
        if not gamma_ok:
            rows.append(
                BoundRow(
                    "waiting_fraction_floor", labels[x], emp, wfloor, se,
                    INCONCLUSIVE, "floor derived for gamma in [1/2, 1]",
                )
            )
        else:
            verdict = PASS if emp >= wfloor - 3.0 * se else FAIL
            rows.append(
                BoundRow("waiting_fraction_floor", labels[x], emp, wfloor, se, verdict)
            )

    match_factor = gamma * (1.0 - gamma / 2.0) * waiting_factor
    for x, tx in enumerate(instance.types):
        boost = (
            max(1.0, tx.departure_rate / tx.arrival_rate)
            if not tx.impatient
            else 0.0  # alpha row is identically zero, floors vanish
        )
        for y, ty in enumerate(instance.types):
            a = float(alpha[x][y])
            subject = f"{labels[x]}<-{labels[y]}"
            first_count = len(counters.first_attempt_times.get((x, y), ()))
            first_floor = ty.arrival_rate * (1.0 - gamma / 2.0) * gamma * a * boost
            rows.append(
                _floor_row(
                    "first_attempt_floor", subject, first_count, first_floor, horizon
                )
            )
            match_count = counters.pair_match_counts[x][y]
            match_floor = ty.arrival_rate * a * match_factor
            if match_floor > 0.0 and not gamma_ok:
                rows.append(
                    BoundRow(
                        "pair_match_floor", subject, match_count / horizon,
                        match_floor, math.sqrt(match_count) / horizon,
                        INCONCLUSIVE, "floor derived for gamma in [1/2, 1]",
                    )
                )
            else:
                rows.append(
                    _floor_row(
                        "pair_match_floor", subject, match_count, match_floor, horizon
                    )
                )
            secured_count = len(counters.secured_attempt_times.get((x, y), ()))
            rows.append(
                BoundRow(
                    "secured_at_most_matched", subject,
                    float(secured_count), float(match_count), 0.0,
                    PASS if secured_count <= match_count else FAIL,
                    "exact count comparison",
                )
            )
    return BoundReport(rows=tuple(rows), horizon=horizon, gamma=gamma)
