"""Write the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python3 tests/golden/capture.py tests/golden

The files freeze, at fixed seeds, the marker-event counters of
instrument_z_events and the reports and trace CSVs of run_simulation on
four small markets (impatient types, tied values, twelve types in `many`;
gamma 1/2, 3/4 and 1).
They were captured from the engine that replayed decisions through an
observer hook, before the engine loop and the diagnostics post-pass
replaced it; rerunning this script re-freezes them, which is only right
for a change that openly alters a frozen convention.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from dynmatch import (
    PolicyConfig,
    PolicyKind,
    emit_instance,
    instrument_z_events,
    parse_instance,
    run_simulation,
    solve_upper_bound,
    write_trace_csv,
)

MARKETS = {
    "mixed": {
        "types": [
            {"label": "a", "arrival_rate": 1.2, "departure_rate": 0.8},
            {"label": "b", "arrival_rate": 0.7, "departure_rate": 1.5},
            {"label": "c", "arrival_rate": 0.9, "departure_rate": "inf"},
        ],
        "values": [["a", "a", 0.3], ["a", "b", 1.0], ["a", "c", 0.8], ["b", "c", 0.5]],
    },
    "ties": {
        "types": [
            {"label": "p", "arrival_rate": 1.0, "departure_rate": 0.6},
            {"label": "q", "arrival_rate": 0.8, "departure_rate": 1.2},
            {"label": "r", "arrival_rate": 1.1, "departure_rate": "inf"},
            {"label": "s", "arrival_rate": 0.5, "departure_rate": 0.4},
        ],
        "values": [
            ["p", "p", 0.5], ["p", "q", 1.0], ["p", "r", 1.0], ["q", "r", 0.5],
            ["q", "s", 1.0], ["r", "s", 0.5], ["s", "s", 0.2],
        ],
    },
    "crowded": {
        "types": [{"label": "solo", "arrival_rate": 2.0, "departure_rate": 0.5}],
        "values": [["solo", "solo", 1.0]],
    },
    # twelve types and serials past 9, so type ids and serials of two or
    # more digits reach the trace's agent fields
    "many": {
        "types": [
            {"label": f"m{k}", "arrival_rate": 0.3 + 0.05 * k,
             "departure_rate": "inf" if k == 5 else 0.8 + 0.1 * (k % 4)}
            for k in range(12)
        ],
        "values": [
            [f"m{k}", f"m{(k + d) % 12}", round(0.2 + 0.1 * ((k * d) % 7), 2)]
            for k in range(12)
            for d in (0, 1, 3)
        ],
    },
}

# (market, gamma, horizon, seed) of each instrumented run
COUNTER_RUNS = [
    ("mixed", 0.5, 200.0, 101),
    ("mixed", 0.75, 200.0, 102),
    ("ties", 0.75, 200.0, 103),
    ("ties", 1.0, 200.0, 104),
    ("crowded", 0.5, 200.0, 105),
]
# (market, horizon, seed) of each policy run; every policy below runs on it
POLICY_RUNS = [
    ("mixed", 50.0, 201), ("ties", 50.0, 202), ("crowded", 40.0, 203),
    ("many", 40.0, 204),
]
POLICIES = [
    {"kind": "online_match", "gamma": 0.5},
    {"kind": "online_match", "gamma": 0.75},
    {"kind": "greedy"},
    {"kind": "periodic_clear", "clear_period": 2.0},
]


def _times(arrays) -> list[list[float]]:
    return [a.tolist() for a in arrays]


def _pairs(d) -> dict:
    return {f"{x}-{y}": (v.tolist() if hasattr(v, "tolist") else v)
            for (x, y), v in sorted(d.items())}


def counters_doc(counters) -> dict:
    """Every field of EventCounters as plain JSON (floats round-trip)."""
    return {
        "n_types": counters.n_types,
        "horizon": counters.horizon,
        "gamma": counters.gamma,
        "idle_arrival_times": _times(counters.idle_arrival_times),
        "inbound_attempt_times": _times(counters.inbound_attempt_times),
        "sole_departure_times": _times(counters.sole_departure_times),
        "first_attempt_times": _pairs(counters.first_attempt_times),
        "reached_attempt_times": _pairs(counters.reached_attempt_times),
        "secured_attempt_times": _pairs(counters.secured_attempt_times),
        "secured_coincident": _pairs(counters.secured_coincident),
        "pair_match_counts": [list(r) for r in counters.pair_match_counts],
        "waiting_fraction": list(counters.waiting_fraction),
        "waiting_batches": _times(counters.waiting_batches),
    }


def counter_case(market: str, gamma: float, horizon: float, seed: int) -> dict:
    instance = parse_instance(json.dumps(MARKETS[market]))
    counters, _ = instrument_z_events(
        instance, solve_upper_bound(instance), gamma, horizon=horizon, seed=seed
    )
    return counters_doc(counters)


def policy_case(market: str, horizon: float, seed: int, policy: dict) -> dict:
    instance = parse_instance(json.dumps(MARKETS[market]))
    pol = PolicyConfig(**policy)
    sol = solve_upper_bound(instance) if pol.kind is PolicyKind.ONLINE_MATCH else None
    trace, report = run_simulation(instance, pol, sol, horizon=horizon, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(trace, path, policy=pol.file_token())
        with open(path) as fh:
            csv_text = fh.read()
    doc = report.to_dict()
    # reports of the capturing engine carried a never-set "value_se" key
    doc.pop("value_se", None)
    return {"report": doc, "trace_csv": csv_text}


def main(out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    markets = {k: json.loads(emit_instance(parse_instance(json.dumps(v))))
               for k, v in MARKETS.items()}
    counters = [
        {"market": m, "gamma": g, "horizon": h, "seed": s,
         "counters": counter_case(m, g, h, s)}
        for m, g, h, s in COUNTER_RUNS
    ]
    runs = [
        {"market": m, "horizon": h, "seed": s, "policy": p,
         **policy_case(m, h, s, p)}
        for m, h, s in POLICY_RUNS
        for p in POLICIES
    ]
    for name, doc in (("counters.json", {"markets": markets, "cases": counters}),
                      ("runs.json", {"markets": markets, "cases": runs})):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__)))
