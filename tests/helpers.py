"""Instance and trace builders shared across the test modules."""

from __future__ import annotations

import random

import numpy as np

from dynmatch import INFINITE, AgentType, MarketInstance, MatchValueMatrix
from dynmatch.simulate import (
    ARRIVAL,
    DEPARTURE,
    MATCH,
    DepartureEvent,
    EventTrace,
    MatchEvent,
)


def make_instance(types, values):
    """types: list of (label, lam, mu) with mu None meaning impatient.
    values: dict {(i, j): v} on unordered index pairs."""
    ts = tuple(
        AgentType(i, label, lam, INFINITE if mu is None else mu)
        for i, (label, lam, mu) in enumerate(types)
    )
    return MarketInstance(types=ts, values=MatchValueMatrix(len(ts), dict(values)))


def one_type(lam=1.0, mu=1.0, v=1.0):
    return make_instance([("solo", lam, mu)], {(0, 0): v})


def patient_impatient(lam_p=1.0, mu_p=1.0, lam_i=1.0, v=1.0):
    """The two-type market where all value sits on the cross pair and one
    side leaves instantly."""
    return make_instance(
        [("patient", lam_p, mu_p), ("flash", lam_i, None)], {(0, 1): v}
    )


def random_instance(rng: random.Random, n_types, *, allow_impatient=False,
                    rate_lo=0.5, rate_hi=2.0):
    """Random market with rates in [rate_lo, rate_hi] and values in [0, 1].

    Every unordered pair gets a value (possibly 0 is excluded by uniform;
    sprinkle explicit zeros so sparse matrices are exercised too).
    """
    types = []
    for i in range(n_types):
        lam = rng.uniform(rate_lo, rate_hi)
        if allow_impatient and rng.random() < 0.25:
            mu = None
        else:
            mu = rng.uniform(rate_lo, rate_hi)
        types.append((f"t{i}", lam, mu))
    values = {}
    for i in range(n_types):
        for j in range(i, n_types):
            if rng.random() < 0.15:
                continue  # leave the pair at the implicit zero
            values[(i, j)] = rng.uniform(0.0, 1.0)
    return make_instance(types, values)


def drawn_instance(rng: random.Random, n_types: int) -> MarketInstance:
    """Criterion recipe: rates uniform in [0.5, 2], every pair valued in [0, 1]."""
    types = tuple(
        AgentType(i, f"t{i}", rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        for i in range(n_types)
    )
    values = {
        (i, j): rng.uniform(0.0, 1.0)
        for i in range(n_types)
        for j in range(i, n_types)
    }
    return MarketInstance(types=types, values=MatchValueMatrix(n_types, values))


def fixed_suite() -> list[MarketInstance]:
    """The ten-instance suite shared by criteria 5 and 6."""
    rng = random.Random(72026)
    return [drawn_instance(rng, n) for n in (2, 2, 2, 3, 3, 3, 3, 4, 4, 4)]


def rates_of(instance):
    return [t.arrival_rate for t in instance.types]


def departs_of(instance):
    return [
        float("inf") if t.impatient else t.departure_rate for t in instance.types
    ]


def dense_values(instance):
    return [list(row) for row in instance.values.dense()]


def trace_of_events(events, horizon, burn_in=0.0, seed=0):
    """An EventTrace holding the given events as rows, in the given order
    (a forged trace may be out of order on purpose)."""

    def row(e):
        if isinstance(e, MatchEvent):
            return (e.time, MATCH, *e.agent_a, *e.agent_b, e.value, False)
        if isinstance(e, DepartureEvent):
            return (e.time, DEPARTURE, *e.agent, -1, -1, 0.0, e.matched_before_departure)
        return (e.time, ARRIVAL, *e.agent, -1, -1, 0.0, False)

    cols = list(zip(*map(row, events))) or [()] * 8
    dtypes = (np.float64, np.int8, np.int64, np.int64, np.int64, np.int64,
              np.float64, bool)
    names = ("time", "kind", "a_type", "a_serial", "b_type", "b_serial",
             "value", "matched")
    return EventTrace(
        **{k: np.array(c, dtype=d) for k, c, d in zip(names, cols, dtypes)},
        horizon=horizon, burn_in=burn_in, seed=seed,
    )
