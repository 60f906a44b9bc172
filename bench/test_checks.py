"""Each independent check passes on good output and fails on broken output.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import make_instances  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

from dynmatch import (  # noqa: E402
    PolicyConfig,
    derive_seed,
    generate_population,
    hindsight_value_estimate,
    load_instance,
    run_simulation,
    solve_upper_bound,
    write_trace_csv,
)

ONE_TYPE = {
    "types": [{"label": "a", "arrival_rate": 1.0, "departure_rate": 1.0}],
    "values": [["a", "a", 1.0]],
}
PAIR = {
    "types": [
        {"label": "a", "arrival_rate": 1.0, "departure_rate": 1.0},
        {"label": "b", "arrival_rate": 0.8, "departure_rate": 1.2},
    ],
    "values": [["a", "a", 0.5], ["a", "b", 1.0], ["b", "b", 0.3]],
}


def instance_file(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# LP


def test_lp_value_one_type_is_half():
    # alpha <= 1 (cap and box), flow 2 * alpha <= 1: v* = 1 * 1 * 1/2
    assert checks.lp_value_highs(ONE_TYPE) == pytest.approx(0.5, rel=1e-12)
    assert checks.check_lp_value(0.5, ONE_TYPE) == []


def test_lp_value_check_rejects_a_wrong_bound():
    assert checks.check_lp_value(0.5 * (1 + 1e-6), ONE_TYPE)


@pytest.mark.parametrize("workload", ["long", "audit"])
def test_lp_value_agrees_with_the_package(workload):
    path = ROOT / "bench" / "instances" / f"{workload}.json"
    doc = json.loads(path.read_text())
    assert checks.check_lp_value(solve_upper_bound(load_instance(str(path))).value, doc) == []


def test_impatient_pairs_are_fixed_at_zero():
    doc = {
        "types": [
            {"label": "p", "arrival_rate": 1.0, "departure_rate": 1.0},
            {"label": "f", "arrival_rate": 1.0, "departure_rate": "inf"},
        ],
        "values": [["p", "f", 1.0]],
    }
    # only alpha[p][f] is free: cap 1, flow rows 1 * alpha <= 1 -> v* = 1
    assert checks.lp_value_highs(doc) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# traces


@pytest.fixture
def good_trace(tmp_path):
    path = instance_file(tmp_path, PAIR)
    instance = load_instance(path)
    trace, report = run_simulation(instance, PolicyConfig(kind="greedy"), None,
                                   horizon=200.0, seed=5)
    csv = tmp_path / "trace.csv"
    write_trace_csv(trace, str(csv), policy="greedy")
    return csv, report.to_dict()


def rewrite(csv: Path, edit) -> None:
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(edit(lines)) + "\n")


def first_row(lines: list[str], kind: str) -> int:
    return next(i for i, line in enumerate(lines) if f",{kind}," in line)


def test_trace_check_passes_on_package_output(good_trace):
    csv, report = good_trace
    assert checks.check_trace(str(csv), PAIR, report) == []


def test_trace_check_rejects_a_second_arrival(good_trace):
    csv, report = good_trace
    rewrite(csv, lambda ls: ls[:3] + [ls[first_row(ls, "arrival")]] + ls[3:])
    assert any("arrives twice" in p for p in checks.check_trace(str(csv), PAIR, report))


def test_trace_check_rejects_a_match_after_departure(good_trace):
    csv, report = good_trace

    def late_match(lines):
        i = first_row(lines, "match")
        _, kind, a, b, v = lines[i].split(",")
        lines[i] = f"{1e9!r},{kind},{a},{b},{v}"
        return lines

    rewrite(csv, late_match)
    assert any("after departing" in p for p in checks.check_trace(str(csv), PAIR, report))


def test_trace_check_rejects_a_second_match(good_trace):
    csv, report = good_trace
    rewrite(csv, lambda ls: ls + [ls[first_row(ls, "match")]])
    assert any("matched twice" in p for p in checks.check_trace(str(csv), PAIR, report))


def test_trace_check_rejects_a_match_before_arrival(good_trace):
    csv, report = good_trace

    def early(lines):
        i = first_row(lines, "match")
        _, kind, a, b, v = lines[i].split(",")
        lines.insert(2, f"0.0,{kind},{a},{b},{v}")
        return lines

    rewrite(csv, early)
    assert any("before arriving" in p for p in checks.check_trace(str(csv), PAIR, report))


def test_trace_check_rejects_a_wrong_value(good_trace):
    csv, report = good_trace

    def revalue(lines):
        i = first_row(lines, "match")
        lines[i] = lines[i].rsplit(",", 1)[0] + ",0.25"
        return lines

    rewrite(csv, revalue)
    assert any("instance says" in p for p in checks.check_trace(str(csv), PAIR, report))


def test_trace_check_rejects_a_wrong_report(good_trace):
    csv, report = good_trace
    assert checks.check_trace(str(csv), PAIR, {**report, "match_count": report["match_count"] + 1})
    off = {**report, "avg_value_per_time": report["avg_value_per_time"] * (1 + 1e-6)}
    assert any("value rate" in p for p in checks.check_trace(str(csv), PAIR, off))


def test_trace_check_rejects_implausible_arrival_counts(good_trace):
    csv, report = good_trace
    doubled = json.loads(json.dumps(PAIR))
    doubled["types"][0]["arrival_rate"] = 2.0
    assert any("5 sigma" in p for p in checks.check_trace(str(csv), doubled, report))


# ---------------------------------------------------------------------------
# hindsight


def test_matching_value_is_per_component_optimum():
    # path a-b-c plus a separate edge: best is a-b (3) or b-c (2) -> 3, plus 1
    edges = [(0, 1, 3.0), (1, 2, 2.0), (3, 4, 1.0)]
    assert checks.matching_value(5, edges) == 4.0


def test_population_edges_follow_presence_windows():
    arrivals = [np.array([0.0, 0.5, 2.0])]
    departures = [np.array([1.0, 0.5, 3.0])]  # the second agent stays zero time
    _, edges = checks.population_edges(arrivals, departures, np.ones((1, 1)))
    assert edges == [(0, 1, 1.0)]


def hindsight_row(doc_path: str, horizon: float, reps: int, seed: int) -> tuple[dict, list]:
    instance = load_instance(doc_path)
    mean, se = hindsight_value_estimate(instance, horizon, reps, seed, exact_threshold=1000)
    pops = []
    for r in range(reps):
        pop = generate_population(instance, horizon, derive_seed(seed, r))
        pops.append((pop.arrivals, pop.departures))
    return {"horizon": horizon, "mean_value_per_time": mean, "se": se}, pops


def test_hindsight_check_passes_on_package_output(tmp_path):
    path = ROOT / "bench" / "instances" / "audit.json"
    row, pops = hindsight_row(str(path), 50.0, 6, 11)
    assert checks.check_hindsight(row, json.loads(path.read_text()), pops) == []


def test_hindsight_check_rejects_a_wrong_mean(tmp_path):
    path = ROOT / "bench" / "instances" / "audit.json"
    row, pops = hindsight_row(str(path), 50.0, 6, 11)
    row["mean_value_per_time"] += 1e-6
    assert checks.check_hindsight(row, json.loads(path.read_text()), pops)


# ---------------------------------------------------------------------------
# properties and reruns


def comparison(**changes) -> dict:
    doc = {
        "lp_value": 1.0,
        "policies": [
            {"policy": {"kind": "online_match", "gamma": 0.5}, "mean_value_per_time": 0.5, "se": 0.01},
            {"policy": {"kind": "greedy"}, "mean_value_per_time": 0.9, "se": None},
        ],
        "hindsight": [{"horizon": 50.0, "mean_value_per_time": 0.8, "se": 0.02}],
        "diagnostics": {"rows": [{"bound": "sole_departure_rate", "subject": "a", "verdict": "PASS"}]},
    }
    doc.update(changes)
    return doc


def test_properties_pass_on_a_consistent_comparison():
    assert checks.check_properties(comparison()) == []


def test_properties_reject_online_below_an_eighth():
    doc = comparison()
    doc["policies"][0]["mean_value_per_time"] = 0.08
    assert any("v*/8" in p for p in checks.check_properties(doc))


def test_properties_reject_a_policy_above_the_bound():
    doc = comparison()
    doc["policies"][1]["mean_value_per_time"] = 1.01  # no SE: no slack
    assert any("above v*" in p for p in checks.check_properties(doc))


def test_properties_reject_online_above_hindsight():
    doc = comparison(hindsight=[{"horizon": 10.0, "mean_value_per_time": 0.4, "se": 0.01}])
    assert any("above hindsight" in p for p in checks.check_properties(doc))


def test_properties_reject_hindsight_above_the_bound():
    doc = comparison(hindsight=[{"horizon": 10.0, "mean_value_per_time": 1.1, "se": 0.01}])
    assert any("hindsight @ 10" in p for p in checks.check_properties(doc))


def test_properties_reject_a_failed_diagnostic():
    doc = comparison(diagnostics={"rows": [{"bound": "sole_departure_rate", "subject": "a", "verdict": "FAIL"}]})
    assert any("diagnostics FAIL" in p for p in checks.check_properties(doc))


def test_same_files_accepts_identical_trees_and_rejects_changes(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "sub").mkdir(parents=True)
        (tmp_path / name / "sub" / "report.json").write_text("{}\n")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert checks.check_same_files(a, b) == []
    (tmp_path / "b" / "sub" / "report.json").write_text("{} \n")
    assert checks.check_same_files(a, b)
    (tmp_path / "b" / "extra.csv").write_text("")
    assert any("file sets differ" in p for p in checks.check_same_files(a, b))


# ---------------------------------------------------------------------------
# inputs and metric names


def test_instances_match_their_recipes():
    assert make_instances.main(["--check"]) == 0


def test_recipe_seed_changes_the_input(tmp_path):
    out = tmp_path / "wide.json"
    make_instances.main(["--workload", "wide", "--seed", "41", "--out", str(out)])
    assert out.read_text() != (ROOT / "bench" / "instances" / "wide.json").read_text()


def test_layer_metrics_are_the_per_layer_metrics_of_the_benchmark():
    import run
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for w in WORKLOADS.values():
        m = run.layer_metrics(w, names, [], [], [], {}, 0, 1.0)
        assert list(m) == names


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "run", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "population", "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "name": "write", "parent": 0, "start": 4.0, "end": 5.0},
    ]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_tracer_records_parents_and_result_attributes():
    tracer = Tracer()
    ns = type("ns", (), {"f": staticmethod(lambda x: x * 2)})
    tracer.wrap(ns, "f", "double", attrs=lambda x: {"arg": x}, result_attrs=lambda r: {"out": r})
    with tracer.span("outer"):
        assert ns.f(21) == 42
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and inner["arg"] == 21 and inner["out"] == 42
    assert math.isfinite(inner["end"] - inner["start"])
