"""Marker-event instrumentation and the empirical rate-bound checks.

These are instrumented runs (the engine plus the marker post-pass) at
moderate horizons; the statistical assertions have several standard errors
of slack on top of the 5% bands they test.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import dynmatch.diagnostics

from dynmatch import (
    LpSolution,
    SolveStatus,
    check_rate_bounds,
    instrument_z_events,
    merge_counters,
    solve_upper_bound,
)
from dynmatch.cli import main
from dynmatch.diagnostics import FAIL, INCONCLUSIVE, PASS

from helpers import make_instance, one_type, patient_impatient

AUDIT_MARKET = str(Path(__file__).resolve().parents[1] / "bench" / "instances" / "audit.json")


def zero_solution(n):
    return LpSolution(
        status=SolveStatus.OPTIMAL, value=0.0, alpha=np.zeros((n, n)), var_pairs=()
    )


def rows_named(report, bound):
    return [r for r in report.rows if r.bound == bound]


class TestCounters:
    def test_zero_alpha_every_arrival_is_idle(self):
        inst = one_type()
        counters, report = instrument_z_events(
            inst, zero_solution(1), 0.5, horizon=5_000.0, seed=11
        )
        assert len(counters.idle_arrival_times[0]) == report.arrivals_per_type[0]
        assert counters.first_attempt_times == {}
        assert counters.secured_attempt_times == {}
        assert len(counters.inbound_attempt_times[0]) == 0
        assert report.match_count == 0

    def test_sole_departure_rate_single_type(self):
        # stand-in clocks make the combined stream a rate-mu process
        # whatever the presence distribution looks like
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=30_000.0, seed=12)
        rate = counters.rate(counters.sole_departure_times[0])
        assert abs(rate - 1.0) <= 0.05

    def test_inbound_rate_tracks_the_formula(self):
        # patient type 0 with alpha_01 = 1 against a unit-rate impatient
        # partner: inbound rate should be gamma * 1 * 1 = 0.5
        inst = patient_impatient()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=30_000.0, seed=13)
        rate = counters.rate(counters.inbound_attempt_times[0])
        assert abs(rate - 0.5) / 0.5 <= 0.05
        # nothing can attempt an impatient type
        assert len(counters.inbound_attempt_times[1]) == 0

    def test_marker_streams_disjoint_per_type(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=10_000.0, seed=14)
        idle = set(counters.idle_arrival_times[0].tolist())
        inbound = set(counters.inbound_attempt_times[0].tolist())
        sole = set(counters.sole_departure_times[0].tolist())
        assert not (idle & inbound) and not (idle & sole) and not (inbound & sole)

    def test_waiting_fraction_and_batches(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(
            inst, sol, 0.5, horizon=10_000.0, seed=15, batch_count=25
        )
        wf = counters.waiting_fraction[0]
        batches = counters.waiting_batches[0]
        assert 0.0 <= wf <= 1.0
        assert len(batches) == 25
        # equal-width batches: their mean is the overall fraction
        assert float(batches.mean()) == pytest.approx(wf, abs=1e-9)

    def test_secured_subset_of_first_attempts_and_matches(self):
        inst = make_instance(
            [("a", 1.0, 1.0), ("b", 0.8, 1.2)],
            {(0, 0): 0.5, (0, 1): 1.0, (1, 1): 0.3},
        )
        sol = solve_upper_bound(inst)
        counters, report = instrument_z_events(
            inst, sol, 0.5, horizon=20_000.0, seed=16
        )
        assert counters.pair_match_counts == report.pair_match_counts
        for key, secured in counters.secured_attempt_times.items():
            firsts = counters.first_attempt_times.get(key, np.empty(0))
            assert len(secured) <= len(firsts)
            x, y = key
            assert len(secured) <= counters.pair_match_counts[x][y]
            assert counters.secured_coincident.get(key, 0) <= len(secured)

    def test_first_attempts_within_reached_attempts(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=10_000.0, seed=17)
        for key, firsts in counters.first_attempt_times.items():
            reached = counters.reached_attempt_times.get(key, np.empty(0))
            assert set(firsts.tolist()) <= set(reached.tolist())

    def test_to_dict_round_numbers(self):
        inst = one_type()
        counters, _ = instrument_z_events(
            inst, zero_solution(1), 0.5, horizon=5_000.0, seed=18
        )
        d = counters.to_dict()
        assert d["horizon"] == 5_000.0
        assert d["gamma"] == 0.5


class TestMerge:
    def build(self, seed, horizon=6_000.0):
        inst = one_type()
        sol = solve_upper_bound(inst)
        return instrument_z_events(inst, sol, 0.5, horizon=horizon, seed=seed)[0]

    def test_counts_and_horizons_add(self):
        a, b = self.build(21), self.build(22)
        m = merge_counters([a, b])
        assert m.horizon == a.horizon + b.horizon
        assert len(m.idle_arrival_times[0]) == len(a.idle_arrival_times[0]) + len(
            b.idle_arrival_times[0]
        )
        assert m.pair_match_counts[0][0] == (
            a.pair_match_counts[0][0] + b.pair_match_counts[0][0]
        )

    def test_waiting_fraction_time_weighted(self):
        a, b = self.build(23, 4_000.0), self.build(24, 12_000.0)
        m = merge_counters([a, b])
        expected = (
            a.waiting_fraction[0] * 4_000.0 + b.waiting_fraction[0] * 12_000.0
        ) / 16_000.0
        assert m.waiting_fraction[0] == pytest.approx(expected, abs=1e-12)

    def test_single_part_is_identity_on_scalars(self):
        a = self.build(25)
        m = merge_counters([a])
        assert m.horizon == a.horizon
        assert m.waiting_fraction == a.waiting_fraction

    def test_gamma_mismatch_rejected(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        a, _ = instrument_z_events(inst, sol, 0.5, horizon=6_000.0, seed=26)
        b, _ = instrument_z_events(inst, sol, 0.75, horizon=6_000.0, seed=26)
        with pytest.raises(ValueError):
            merge_counters([a, b])

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_counters([])


class TestBoundChecks:
    def test_single_type_all_rows_clean_at_long_horizon(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=30_000.0, seed=31)
        report = check_rate_bounds(counters, inst, sol, 0.5)
        assert report.failures == ()
        assert report.inconclusive == ()
        assert report.ok
        names = {r.bound for r in report.rows}
        assert names == {
            "inbound_attempt_rate",
            "sole_departure_rate",
            "waiting_fraction_floor",
            "first_attempt_floor",
            "pair_match_floor",
            "secured_at_most_matched",
        }

    def test_impatient_type_gets_trivial_rows(self):
        inst = patient_impatient()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=12_000.0, seed=32)
        report = check_rate_bounds(counters, inst, sol, 0.5)
        flash_rows = [r for r in report.rows if r.subject == "flash"]
        assert {r.bound for r in flash_rows} == {
            "inbound_attempt_rate",
            "waiting_fraction_floor",
        }
        assert all(r.verdict == PASS for r in flash_rows)
        # no sole-departure law for a type that leaves instantly
        assert all(
            r.subject != "flash" for r in rows_named(report, "sole_departure_rate")
        )

    def test_sparse_target_goes_inconclusive_not_fail(self):
        # single type at horizon exactly 1e4: the inbound target 0.25
        # expects 2500 events, under the 3600 needed for a 5% band
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=10_000.0, seed=33)
        report = check_rate_bounds(counters, inst, sol, 0.5)
        inbound = rows_named(report, "inbound_attempt_rate")[0]
        assert inbound.verdict == INCONCLUSIVE
        assert report.failures == ()

    def test_low_gamma_floors_are_inconclusive(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.3, horizon=20_000.0, seed=34)
        report = check_rate_bounds(counters, inst, sol, 0.3)
        assert rows_named(report, "waiting_fraction_floor")[0].verdict == INCONCLUSIVE
        assert rows_named(report, "pair_match_floor")[0].verdict == INCONCLUSIVE
        # the first-attempt floor holds for every gamma and stays decidable
        assert rows_named(report, "first_attempt_floor")[0].verdict in (PASS, FAIL)
        assert report.failures == ()

    def test_secured_rows_pass_by_exact_count(self):
        inst = patient_impatient()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=15_000.0, seed=35)
        report = check_rate_bounds(counters, inst, sol, 0.5)
        for r in rows_named(report, "secured_at_most_matched"):
            assert r.verdict == PASS and r.se == 0.0

    def test_short_horizon_rejected(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=5_000.0, seed=36)
        with pytest.raises(ValueError):
            check_rate_bounds(counters, inst, sol, 0.5)

    def test_gamma_mismatch_rejected(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=12_000.0, seed=37)
        with pytest.raises(ValueError):
            check_rate_bounds(counters, inst, sol, 0.75)

    def test_report_dict_shape(self):
        inst = one_type()
        sol = solve_upper_bound(inst)
        counters, _ = instrument_z_events(inst, sol, 0.5, horizon=12_000.0, seed=38)
        d = check_rate_bounds(counters, inst, sol, 0.5).to_dict()
        assert d["schema_version"] == 1
        assert d["gamma"] == 0.5
        assert all({"bound", "subject", "verdict"} <= set(r) for r in d["rows"])

    def test_merged_replications_sharpen_the_verdict(self):
        # two 1e4 runs merged reach 2e4 of exposure: the inbound row that
        # was undecidable alone becomes a hard PASS/FAIL
        inst = one_type()
        sol = solve_upper_bound(inst)
        parts = [
            instrument_z_events(inst, sol, 0.5, horizon=10_000.0, seed=s)[0]
            for s in (41, 42)
        ]
        merged = merge_counters(parts)
        report = check_rate_bounds(merged, inst, sol, 0.5)
        inbound = rows_named(report, "inbound_attempt_rate")[0]
        assert inbound.verdict in (PASS, FAIL)
        assert inbound.verdict == PASS


def sum_as_in_312(iterable, start=0):
    """builtins.sum as CPython 3.12 and later run it: ints add exactly,
    exact floats (not float subclasses such as np.float64) add with
    Neumaier's compensation, anything else adds plainly."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) is int:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
                continue
            if type(item) is int:
                total += item
                continue
            result = (total + c if c and math.isfinite(c) else total) + item
            break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in it:
        result = result + item
    return result


def test_diagnostics_do_not_depend_on_the_python_sum(tmp_path, monkeypatch, capsys):
    """diagnose writes the same bytes when the module's sum compensates
    float rounding as Python 3.12's does. At this seed and replication
    count, summing either the merged waiting fractions or the inbound
    targets with such a sum changes diagnostics.json."""
    # the emulation compensates: ten 0.1s make 1.0, not 0.9999999999999999
    assert sum_as_in_312([0.1] * 10) == 1.0

    def diagnose(out):
        args = ["diagnose", "--instance", AUDIT_MARKET, "--seed", "3",
                "--horizon", "10000", "--replications", "4", "--out", str(out)]
        assert main(args) == 0
        return (out / "diagnostics.json").read_bytes()

    plain = diagnose(tmp_path / "plain")
    monkeypatch.setattr(dynmatch.diagnostics, "sum", sum_as_in_312, raising=False)
    assert diagnose(tmp_path / "compensated") == plain
    capsys.readouterr()
