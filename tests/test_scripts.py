"""Smoke runs of the studies in scripts/: each runs as its own process on
the audit market at a tiny size, exits 0 and writes its CSV header or
prints its table footer."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AUDIT_MARKET = str(ROOT / "bench" / "instances" / "audit.json")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), AUDIT_MARKET, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("name, args, header", [
    ("competitive_floor.py", ["--horizon", "2000", "--replications", "2"],
     "gamma,replication,kind,value_rate,lp_value,ratio,se"),
    ("sandwich_ladder.py", ["--horizons", "10,50", "--replications", "3"],
     "horizon,online_mean,online_se,hindsight_mean,hindsight_se,lp_value"),
], ids=["competitive_floor", "sandwich_ladder"])
def test_csv_studies_write_their_header(tmp_path, name, args, header):
    out = tmp_path / "out.csv"
    done = run_script(name, "--out", str(out), *args)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header and len(lines) > 1
    assert done.stdout.splitlines()[-1] == f"wrote {out}"


def test_marker_rates_prints_its_table():
    done = run_script("marker_rates.py", "--horizon", "10000")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["bound", "subject", "empirical", "target", "verdict"]
    assert re.fullmatch(r"(\d+) rows, 0 failures, \d+ inconclusive", lines[-1])
    assert int(lines[-1].split()[0]) == len(lines) - 4  # header, rule, blank, footer
