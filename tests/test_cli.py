"""Command-line contract: exit codes, file outputs, config handling."""

import json
import math
import random
import re
from pathlib import Path

import pytest

from dynmatch import (
    derive_seed,
    emit_instance,
    generate_population,
    hindsight,
    load_instance,
    read_trace_csv,
)
from dynmatch.cli import main
from dynmatch.hindsight import _build_graph, _frontier, _sweep

from helpers import random_instance

LONG_MARKET = str(Path(__file__).resolve().parents[1] / "bench" / "instances" / "long.json")

ONE_TYPE_DOC = {
    "types": [{"label": "solo", "arrival_rate": 1.0, "departure_rate": 1.0}],
    "values": [["solo", "solo", 1.0]],
}

TWO_TYPE_DOC = {
    "types": [
        {"label": "a", "arrival_rate": 1.0, "departure_rate": 1.0},
        {"label": "b", "arrival_rate": 0.8, "departure_rate": "inf"},
    ],
    "values": [["a", "a", 0.5], ["a", "b", 1.0]],
}


@pytest.fixture
def one_type_file(tmp_path):
    p = tmp_path / "one.json"
    p.write_text(json.dumps(ONE_TYPE_DOC))
    return str(p)


@pytest.fixture
def two_type_file(tmp_path):
    p = tmp_path / "two.json"
    p.write_text(json.dumps(TWO_TYPE_DOC))
    return str(p)


class TestValidate:
    def test_good_instance_exit_zero(self, one_type_file, capsys):
        assert main(["validate", one_type_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_domain_violation_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        doc = json.loads(json.dumps(ONE_TYPE_DOC))
        doc["types"][0]["arrival_rate"] = 0.0
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 1
        assert "arrival_rate_not_positive" in capsys.readouterr().err

    def test_malformed_json_exit_two_with_line(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "types": [,]\n}')
        assert main(["validate", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_wrong_shape_exit_two(self, tmp_path, capsys):
        p = tmp_path / "shape.json"
        p.write_text(json.dumps({"types": [], "rogue": 1}))
        assert main(["validate", str(p)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2


class TestLp:
    def test_analytic_value_in_json(self, one_type_file, tmp_path, capsys):
        out = tmp_path / "lp.json"
        assert main(["lp", one_type_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["value"] - 0.5) <= 1e-8
        assert doc["schema_version"] == 1
        assert doc["feasibility"]["ok"] is True
        assert len(doc["alpha"]) == 1
        text = capsys.readouterr().out
        assert "maximize" in text and "subject to" in text

    def test_large_market_prints_a_summary(self, tmp_path, capsys):
        # 40 types: 1,600 bounded variables under one flow row per type
        inst = random_instance(random.Random(40), 40)
        p = tmp_path / "wide.json"
        p.write_text(emit_instance(inst))
        assert main(["lp", str(p), "--out", str(tmp_path / "lp.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) <= 5
        assert "maximize over 1600 variable(s) subject to 40 row(s)" in lines

    def test_out_flag_required(self, one_type_file):
        with pytest.raises(SystemExit) as err:
            main(["lp", one_type_file])
        assert err.value.code == 2


class TestSimulate:
    def args(self, instance, out, extra=()):
        return [
            "simulate", "--instance", instance, "--seed", "42",
            "--horizon", "300", "--replications", "2", "--out", out,
            *extra,
        ]

    def test_runs_and_reruns_byte_identical(self, two_type_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        extra = ["--policy", "online_match", "--policy", "greedy"]
        assert main(self.args(two_type_file, str(a), extra)) == 0
        assert main(self.args(two_type_file, str(b), extra)) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        assert "report.json" in files
        assert any(f.startswith("trace_online_match") for f in files)
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_traces_parse_back(self, two_type_file, tmp_path):
        out = tmp_path / "run"
        assert main(self.args(two_type_file, str(out))) == 0
        report = json.loads((out / "report.json").read_text())
        block = report["policies"][0]
        for row in block["replications"]:
            trace, meta = read_trace_csv(out / row["trace_file"])
            assert trace.seed == row["seed"]
            assert meta["policy"] == "online_match-0.5"
        assert report["lp_value"] is not None
        assert report["seed"] == 42

    def test_missing_required_setting_exit_two(self, two_type_file, tmp_path, capsys):
        code = main(["simulate", "--instance", two_type_file,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "missing required setting" in capsys.readouterr().err

    def test_flags_override_config(self, two_type_file, tmp_path):
        cfg = {
            "instance": two_type_file,
            "seed": 7,
            "horizon": 120.0,
            "replications": 1,
            "out": str(tmp_path / "from_config"),
            "policies": ["greedy"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "flagged"
        assert main(["simulate", "--config", str(cfg_path),
                     "--horizon", "60", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["horizon"] == 60.0
        assert report["seed"] == 7  # config value survives where no flag given
        assert report["policies"][0]["policy"]["kind"] == "greedy"

    def test_unknown_config_key_exit_two(self, two_type_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": two_type_file, "bogus": 1}))
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_parse_error_reports_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{\n  "seed": ,\n}')
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_periodic_needs_period(self, two_type_file, tmp_path, capsys):
        code = main(self.args(two_type_file, str(tmp_path / "x"),
                              ["--policy", "periodic_clear"]))
        assert code == 2
        assert "clear_period" in capsys.readouterr().err

    def test_clearing_pool_past_the_budget_exit_one(self, one_type_file, tmp_path,
                                                    capsys, monkeypatch):
        # with room for 2 count vectors, a one-type pool of two agents
        # (states 2, 1, 0) is over budget
        monkeypatch.setattr(hindsight, "POOL_STATE_BUDGET", 2)
        code = main(["simulate", "--instance", one_type_file, "--seed", "1",
                     "--horizon", "50", "--policy", "periodic_clear",
                     "--clear-period", "5", "--out", str(tmp_path / "x")])
        assert code == 1
        line = capsys.readouterr().err.strip()
        got = re.fullmatch(
            r"error: clearing pool of (\d+) agents over 1 types needs more than 2 "
            r"matcher states at clear time (\d+\.\d+)", line
        )
        assert got, line
        # no earlier pool could match, so the pool is every agent present
        pop = generate_population(load_instance(one_type_file), 50.0, derive_seed(1, 0))
        tc = float(got.group(2))
        present = (pop.arrivals[0] < tc) & (pop.departures[0] > tc)
        assert int(got.group(1)) == present.sum() >= 2

    def test_burn_in_domain_error_exit_one(self, two_type_file, tmp_path):
        code = main(["simulate", "--instance", two_type_file, "--seed", "1",
                     "--horizon", "100", "--burn-in", "100",
                     "--out", str(tmp_path / "x")])
        assert code == 1


class TestCompare:
    def test_ratios_and_shared_seeds(self, two_type_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--instance", two_type_file, "--seed", "5",
                     "--horizon", "400", "--replications", "3",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert len(doc["policies"]) == 2  # online_match and greedy defaults
        assert len(doc["replication_seeds"]) == 3
        for row in doc["policies"]:
            assert 0.0 <= row["ratio_to_lp"] <= 1.5
        assert doc["lp_value"] == pytest.approx(0.85, abs=1e-8)

    def test_zero_value_market_not_applicable(self, tmp_path):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps({
            "types": [{"label": "a", "arrival_rate": 1.0, "departure_rate": 1.0}],
            "values": [],
        }))
        out = tmp_path / "cmp"
        assert main(["compare", "--instance", str(p), "--seed", "3",
                     "--horizon", "200", "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert all(r["ratio_to_lp"] == "NOT_APPLICABLE" for r in doc["policies"])

    def test_hindsight_ladder(self, two_type_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--instance", two_type_file, "--seed", "5",
                     "--horizon", "200", "--hindsight-horizons", "5,10",
                     "--hindsight-replications", "10",
                     "--exact-threshold", "40", "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert [h["horizon"] for h in doc["hindsight"]] == [5.0, 10.0]
        assert all(h["se"] >= 0.0 for h in doc["hindsight"])

    def test_hindsight_on_a_market_that_rarely_empties(self, tmp_path):
        # the benchmark's long market keeps one busy period going for most
        # of a 50-unit horizon, but few agents are open at once
        nx = pytest.importorskip("networkx")
        out = tmp_path / "cmp"
        assert main(["compare", "--instance", LONG_MARKET, "--seed", "1",
                     "--horizon", "100", "--hindsight-horizons", "50",
                     "--hindsight-replications", "3", "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        instance = load_instance(LONG_MARKET)
        lane = derive_seed(1, "hindsight", 0)  # the ladder's first rung
        values = []
        for r in range(3):
            pop = generate_population(instance, 50.0, derive_seed(lane, r))
            graph = _build_graph(*pop.agents(), instance, pop.horizon)
            g = nx.Graph()
            g.add_weighted_edges_from(zip(*graph.edges.T.tolist(), graph.weights.tolist()))
            want = sum(
                g[i][j]["weight"]
                for part in nx.connected_components(g)
                for i, j in nx.max_weight_matching(g.subgraph(part))
            )
            value = _sweep(graph, _frontier(graph, 20), by_type=True)[1]
            assert value == pytest.approx(want, rel=1e-12)
            values.append(value / 50.0)
        row = doc["hindsight"][0]
        assert row["mean_value_per_time"] == pytest.approx(sum(values) / 3, rel=1e-12)

    def test_diagnostics_needs_long_horizon(self, two_type_file, tmp_path):
        code = main(["compare", "--instance", two_type_file, "--seed", "5",
                     "--horizon", "200", "--with-diagnostics",
                     "--out", str(tmp_path / "cmp")])
        assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["compare", "--horizon", "200", "--hindsight-horizons", "5",
      "--hindsight-replications", "0"], "need at least 2 replications"),
    (["compare", "--horizon", "200", "--hindsight-horizons", "0,5"],
     "horizon must be positive"),
    (["compare", "--horizon", "500", "--with-diagnostics", "--hindsight-horizons", "5"],
     "--with-diagnostics needs horizon >= 1e4"),
    (["compare", "--horizon", "20000", "--policy", "greedy", "--with-diagnostics"],
     "--with-diagnostics needs an online_match policy"),
    (["diagnose", "--horizon", "500", "--replications", "3"],
     "rate bounds need a horizon of at least 1e4"),
    (["simulate", "--horizon", "100", "--burn-in", "100"],
     "burn_in 100.0 must be below horizon 100.0"),
    (["compare", "--horizon", "100", "--burn-in", "150"],
     "burn_in 150.0 must be below horizon 100.0"),
    (["simulate", "--horizon=-5"], "horizon must be nonnegative"),
    (["compare", "--horizon=-5"], "horizon must be nonnegative"),
    (["compare", "--horizon", "100", "--burn-in=-1"], "burn_in must be nonnegative"),
    (["compare", "--horizon", "2000", "--hindsight-horizons", "5",
      "--hindsight-replications", "3", "--exact-threshold=-1"],
     "exact_threshold must be at least 1"),
    (["compare", "--horizon", "2000", "--hindsight-horizons", "5",
      "--hindsight-replications", "3", "--exact-threshold", "0"],
     "exact_threshold must be at least 1"),
])
def test_run_settings_fail_before_any_run(argv, message, two_type_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([*argv, "--instance", two_type_file, "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err
    assert captured.out == ""  # no policy line, no diagnostics line
    assert not out.exists()


class TestDiagnose:
    def test_healthy_run_exit_zero(self, one_type_file, tmp_path, capsys):
        out = tmp_path / "diag"
        code = main(["diagnose", "--instance", one_type_file, "--seed", "9",
                     "--horizon", "12000", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "diagnostics.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["rows"]
        verdicts = {r["verdict"] for r in doc["rows"]}
        assert "FAIL" not in verdicts
        assert "bounds checked" in capsys.readouterr().out

    def test_domain_error_on_tiny_horizon(self, one_type_file, tmp_path):
        code = main(["diagnose", "--instance", one_type_file, "--seed", "9",
                     "--horizon", "100", "--out", str(tmp_path / "d")])
        assert code == 1


class TestFlags:
    """Each command offers only the flags it reads; argparse rejects the
    rest with exit 2 instead of running without them."""

    @pytest.mark.parametrize("command, flag", [
        ("diagnose", ["--policy", "greedy"]),
        ("diagnose", ["--clear-period", "3"]),
        ("diagnose", ["--exact-threshold", "5"]),
        ("diagnose", ["--burn-in", "10"]),
        ("simulate", ["--exact-threshold", "5"]),
    ])
    def test_unread_flag_exit_two(self, command, flag, two_type_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([command, "--instance", two_type_file, "--seed", "1",
                  "--horizon", "10000", "--out", str(tmp_path / "x"), *flag])
        assert err.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("compare", "--horizon", "nan"),
        ("compare", "--horizon", "inf"),
        ("simulate", "--horizon", "-inf"),
        ("simulate", "--burn-in", "nan"),
        ("compare", "--gamma", "inf"),
        ("simulate", "--clear-period", "inf"),
        ("compare", "--hindsight-horizons", "5,nan"),
    ])
    def test_non_finite_flag_exit_two(self, command, flag, value, two_type_file, tmp_path,
                                      capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--instance", two_type_file, "--seed", "1", "--horizon", "100",
                  "--policy", "periodic_clear", "--out", str(tmp_path / "x"),
                  f"{flag}={value}"])
        assert err.value.code == 2
        assert f"argument {flag}: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_keeps_keys_other_commands_read(self, one_type_file, tmp_path):
        # one config drives several commands, so diagnose takes a file
        # that names policies and a clearing period
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "instance": one_type_file, "seed": 9, "horizon": 12000.0,
            "burn_in": 10.0, "policies": ["greedy"], "clear_period": 3.0,
            "exact_threshold": 5, "out": str(tmp_path / "diag"),
        }))
        assert main(["diagnose", "--config", str(cfg_path)]) == 0


class TestConfigTypes:
    @pytest.mark.parametrize("field, value", [
        ("replications", "3"),
        ("replications", 2.5),
        ("replications", True),
        ("seed", "x"),
        ("hindsight_horizons", 5),
        ("hindsight_horizons", [5, "10"]),
        ("horizon", False),
        ("horizon", math.nan),
        ("horizon", math.inf),
        ("burn_in", -math.inf),
        ("gamma", math.nan),
        ("clear_period", math.inf),
        ("hindsight_horizons", [5, math.nan]),
        ("with_diagnostics", 1),
        ("instance", 3),
    ])
    def test_wrong_json_type_exit_two(self, field, value, two_type_file, tmp_path,
                                      capsys):
        cfg = {"instance": two_type_file, "seed": 1, "horizon": 200.0,
               "out": str(tmp_path / "cmp"), field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]

    def test_wrong_policy_field_type_exit_two(self, two_type_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "instance": two_type_file, "seed": 1, "horizon": 200.0,
            "out": str(tmp_path / "cmp"),
            "policies": [{"kind": "online_match", "gamma": "0.5"}],
        }))
        assert main(["compare", "--config", str(cfg_path)]) == 2
        assert "policies[0]: gamma must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"kind": "online_match", "gamma": math.nan},
        {"kind": "periodic_clear", "clear_period": math.inf},
    ])
    def test_non_finite_policy_field_exit_two(self, entry, two_type_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "instance": two_type_file, "seed": 1, "horizon": 200.0,
            "out": str(tmp_path / "cmp"), "policies": [entry],
        }))
        assert main(["compare", "--config", str(cfg_path)]) == 2
        field = next(k for k in entry if k != "kind")
        assert f"policies[0]: {field} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()
