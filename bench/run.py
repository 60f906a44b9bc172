"""dynmatch benchmark: one workload, end-to-end metrics or per-layer spans.

    python3 bench/run.py --workload long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is used from its src/ tree.
One parent process (this one) runs the workload's operations as child
processes, one at a time, in rounds with identical arguments, until
--seconds of operation time have passed and at least two rounds (trace 0)
or one round (trace 1) are done. An operation's time runs from the end of
its child's set-up (the mark ops.py writes) to the child's exit; set-up
itself is measured by separate probes. The first round's outputs go through the
independent checks in checks.py; every later round's outputs must be
byte-identical to the first's.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(README.md defines each). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
An operation fails when its child exits non-zero or its output fails a
check; an output that fails a check also makes "correct" false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracing import self_times
from workloads import WORKLOADS, Workload, population_seeds

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "_out"
SETUP_PROBES_PER_ROUND = 2
# policies.periodic_clear's exact_threshold, which the engine leaves at its
# default: larger pools are cleared greedily instead of exactly
CLEAR_EXACT_LIMIT = 20
RUN_LIMIT_S = 170.0  # a run must end within 180 s
LAST_ROUND_START_S = 120.0
PY = sys.executable
POLICIES = ("online_match", "greedy", "periodic_clear")


@dataclass
class Op:
    name: str
    code: int
    wall: float  # spawn to exit
    work: float  # end of set-up to exit; the whole wall without a mark
    rss_mb: float
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs child processes one at a time and keeps their tallies."""

    def __init__(self, logdir: Path):
        self.start = time.monotonic()
        self.logdir = logdir
        self.ops: list[Op] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def run(self, name: str, argv: list[str], ready: str | None = None) -> Op:
        """Run argv from the checkout root; wall time and peak RSS come from
        this child alone (wait4), output goes to a log file. ready names
        the file where the child marks the end of its set-up."""
        log = self.logdir / f"{len(self.ops):03d}-{name.replace(':', '-')}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, RUN_LIMIT_S - self.elapsed()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(name, proc.returncode, wall, wall, usage.ru_maxrss / 1024.0)
        self.ops.append(op)
        if op.code != 0:
            print(f"{name} exited {op.code}; log: {log.relative_to(ROOT)}", file=sys.stderr)
        elif ready is not None:
            try:
                op.work = end - float((ROOT / ready).read_text())
            except (OSError, ValueError) as e:
                self.flag(op, [f"no set-up mark: {e}"])
        return op

    def flag(self, op: Op, problems: list[str]) -> None:
        for p in problems:
            print(f"{op.name}: {p}", file=sys.stderr)
        op.problems.extend(problems)

    def tally(self) -> dict:
        return {
            "correct": not any(o.problems for o in self.ops if o.code == 0),
            "attempted": len(self.ops),
            "failed": sum(1 for o in self.ops if o.code != 0 or o.problems),
        }


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# inputs and checks


def load_doc(w: Workload) -> dict:
    with open(ROOT / w.instance) as fh:
        return json.load(fh)


def agents_per_round(w: Workload, seed: int) -> int:
    """Simulated agents one round processes, summed over every policy run,
    instrumented run and hindsight replication."""
    from dynmatch import generate_population, load_instance

    instance = load_instance(str(ROOT / w.instance))
    return sum(
        runs * generate_population(instance, h, s).n_agents
        for h, s, runs in population_seeds(w, seed)
    )


def hindsight_populations(w: Workload, seed: int, k: int) -> list:
    from dynmatch import derive_seed, generate_population, load_instance

    instance = load_instance(str(ROOT / w.instance))
    master = derive_seed(seed, "hindsight", k)
    pops = []
    for r in range(w.hindsight_replications):
        pop = generate_population(instance, w.hindsight_horizons[k], derive_seed(master, r))
        pops.append((pop.arrivals, pop.departures))
    return pops


def read_json(path: Path, op: Op, runner: Runner) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        runner.flag(op, [f"cannot read {rel(path)}: {e}"])
        return None


def check_compare(w: Workload, seed: int, doc: dict, out: Path, op: Op, runner: Runner) -> None:
    cmp = read_json(out / "comparison.json", op, runner)
    if cmp is None:
        return
    problems = []
    kinds = [row["policy"]["kind"] for row in cmp["policies"]]
    if kinds != list(w.policies):
        problems.append(f"policies {kinds}, expected {list(w.policies)}")
    horizons = [row["horizon"] for row in cmp["hindsight"]]
    if horizons != list(w.hindsight_horizons):
        problems.append(f"hindsight horizons {horizons}, expected {list(w.hindsight_horizons)}")
    if (cmp["diagnostics"] is not None) != w.with_diagnostics:
        problems.append("diagnostics block present/absent against the command")
    problems += checks.check_lp_value(cmp["lp_value"], doc)
    problems += checks.check_properties(cmp)
    if not problems:
        for k, row in enumerate(cmp["hindsight"]):
            problems += checks.check_hindsight(row, doc, hindsight_populations(w, seed, k))
    runner.flag(op, problems)


def check_simulate(w: Workload, doc: dict, out: Path, op: Op, runner: Runner) -> list[dict]:
    """Checks report.json and every trace it names; returns the replication rows."""
    report = read_json(out / "report.json", op, runner)
    if report is None:
        return []
    problems = []
    kinds = [block["policy"]["kind"] for block in report["policies"]]
    if kinds != list(w.policies):
        problems.append(f"policies {kinds}, expected {list(w.policies)}")
    problems += checks.check_lp_value(report["lp_value"], doc)
    problems += checks.check_properties(report)
    rows = [row for block in report["policies"] for row in block["replications"]]
    for row in rows:
        problems += [f"{row['trace_file']}: {p}"
                     for p in checks.check_trace(str(out / row["trace_file"]), doc, row)]
    runner.flag(op, problems)
    return rows


def check_readback(rows: list[dict], path: Path, op: Op, runner: Runner) -> None:
    doc = read_json(path, op, runner)
    if doc is None:
        return
    problems = []
    if sorted(doc) != sorted(row["trace_file"] for row in rows):
        problems.append(f"read back {sorted(doc)}, the report names {[r['trace_file'] for r in rows]}")
    for row in rows:
        entry = doc.get(row["trace_file"])
        if entry is None:
            continue
        if entry["problems"]:
            problems.append(f"{row['trace_file']}: replay_check found {entry['problems'][:3]}")
        if entry["rates"] != row["pair_match_rates"]:
            problems.append(f"{row['trace_file']}: estimate_rates disagrees with the report")
    runner.flag(op, problems)


def check_round(w: Workload, seed: int, ops: list[tuple[Op, str]], runner: Runner) -> None:
    doc = load_doc(w)
    rows: list[dict] = []
    for op, output in ops:
        if op.code != 0:
            continue
        if op.name == "compare":
            check_compare(w, seed, doc, ROOT / output, op, runner)
        elif op.name == "simulate":
            rows = check_simulate(w, doc, ROOT / output, op, runner)
        elif op.name == "readback":
            check_readback(rows, ROOT / output, op, runner)


def check_repeat(first: str, again: str, op: Op, runner: Runner) -> None:
    a, b = ROOT / first, ROOT / again
    if op.code != 0:
        return
    if a.is_dir():
        runner.flag(op, checks.check_same_files(str(a), str(b)))
    elif not b.is_file() or a.read_bytes() != b.read_bytes():
        runner.flag(op, [f"{rel(b)} differs from {rel(a)}"])


# ---------------------------------------------------------------------------
# tracing off: end-to-end metrics


def run_round(w: Workload, seed: int, rdir: Path, runner: Runner, first: Path | None) -> list[Op]:
    """One pass over the workload's operations; checks the outputs (first
    round) or compares them with the first round's."""
    done = []
    for name, argv, output, ready in w.operations(seed, rel(rdir)):
        done.append((runner.run(name, argv, ready), output))
    if first is None:
        check_round(w, seed, done, runner)
    else:
        for (op, output), (_, _, first_output, _) in zip(done, w.operations(seed, rel(first))):
            check_repeat(first_output, output, op, runner)
    return [op for op, _ in done]


def end_to_end(w: Workload, seed: int, seconds: float, out: Path, runner: Runner) -> dict:
    setup_argv = [PY, "bench/ops.py", "setup", w.instance]
    runner.run("setup", setup_argv)  # fills the bytecode cache; not timed
    agents = agents_per_round(w, seed)

    # set-up probes are spread over the run, a few before each round, so
    # that they sample the machine's slow and fast spells alike
    setup: list[float] = []
    walls: list[float] = []
    peak_rss = 0.0
    first = out / "round0"
    while len(walls) < 2 or (sum(walls) < seconds and runner.elapsed() < LAST_ROUND_START_S):
        setup += [runner.run("setup", setup_argv).wall for _ in range(SETUP_PROBES_PER_ROUND)]
        rdir = out / f"round{len(walls)}"
        ops = run_round(w, seed, rdir, runner, None if not walls else first)
        if walls:
            shutil.rmtree(rdir)
        walls.append(sum(op.work for op in ops))
        peak_rss = max([peak_rss] + [op.rss_mb for op in ops])
    wall = statistics.median(walls)
    print(f"{w.name}: {len(walls)} rounds of {agents} agents, walls "
          + " ".join(f"{x:.3f}" for x in walls) + f"; {len(setup)} set-up probes, "
          + " ".join(f"{x:.3f}" for x in setup), file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "agents_per_s": agents / wall,
        "peak_rss_mb": peak_rss,
    }


# ---------------------------------------------------------------------------
# tracing on: per-layer metrics


def load_spans(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path) as fh:
        return json.load(fh)


def total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def max_clear_pool(spans: list[dict]) -> int:
    return max([s.get("max_pool", 0) for s in spans
                if s["name"] == "simulate.run" and s["policy"] == "periodic_clear"], default=0)


def layer_metrics(w: Workload, names: list[str], cli: list[dict], probe: list[dict],
                  readback: list[dict], rss: dict, trace_bytes: int, overhead: float) -> dict:
    """Per-layer values of one traced round; README.md defines each. Layers
    the workload does not run read 0."""
    m = dict.fromkeys(names, 0.0)
    own = self_times(cli)
    m["cli.import_s"] = total(cli, "cli.import")
    m["market.load_s"] = total(cli, "market.load_instance") + total(cli, "market.validate_instance")
    for s in cli:
        if s["name"] == "cli.main":
            m[f"cli.{s['command']}_s"] = own[s["id"]]
        elif s["name"] == "hindsight.estimate":
            m[f"hindsight.estimate_s.h{s['horizon']:g}"] = s["end"] - s["start"]
    m["lp.build_s"] = total(cli, "lp.build")
    m["lp.solve_s"] = total(cli, "lp.solve")
    m["lp.check_s"] = total(cli, "lp.check")
    m["lp.rows"] = float(max([s["rows"] for s in cli if s["name"] == "lp.build"], default=0))
    m["simulate.population_s"] = total(cli, "simulate.population")
    m["simulate.clear_pool_max"] = float(max_clear_pool(cli))

    # engine: run_simulation without traces minus its population
    traced_runs = 0.0
    agents = dict.fromkeys(POLICIES, 0)
    for spans in (cli, probe):
        own = self_times(spans)
        population = {s["parent"]: s["agents"] for s in spans if s["name"] == "simulate.population"}
        for s in spans:
            if s["name"] != "simulate.run":
                continue
            if s["record_trace"]:
                traced_runs += own[s["id"]]
            else:
                m[f"simulate.engine_s.{s['policy']}"] += own[s["id"]]
                agents[s["policy"]] += population[s["id"]]
    for p in POLICIES:
        if agents[p]:
            m[f"simulate.us_per_agent.{p}"] = 1e6 * m[f"simulate.engine_s.{p}"] / agents[p]
        m[f"simulate.engine_rss_mb.{p}"] = rss.get(f"engine:{p}", 0.0)
    if w.readback:
        m["simulate.trace_build_s"] = traced_runs - sum(m[f"simulate.engine_s.{p}"] for p in w.policies)
        m["simulate.trace_rss_mb"] = max(rss.get(f"trace:{p}", 0.0) for p in w.policies)
        m["simulate.trace_bytes"] = float(trace_bytes)
    m["simulate.trace_write_s"] = total(cli, "simulate.write_trace")
    m["simulate.trace_read_s"] = total(readback, "simulate.read_trace")
    m["simulate.replay_s"] = total(readback, "simulate.replay")
    m["simulate.estimate_rates_s"] = total(readback, "simulate.estimate_rates")

    m["hindsight.graph_s"] = total(probe, "hindsight.graph")
    m["hindsight.match_s"] = total(probe, "hindsight.match")
    m["diagnostics.instrument_s"] = total(cli, "diagnostics.instrument")
    m["diagnostics.plain_s"] = total(probe, "diagnostics.plain")
    if m["diagnostics.plain_s"]:
        m["diagnostics.overhead_x"] = m["diagnostics.instrument_s"] / m["diagnostics.plain_s"]
    m["diagnostics.bounds_s"] = total(cli, "diagnostics.bounds")
    m["trace.overhead_x"] = overhead
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return m


def traced_round(w: Workload, seed: int, rdir: Path, runner: Runner, first: Path | None,
                 solution: Path) -> tuple[list[Op], dict]:
    plain = run_round(w, seed, rdir, runner, first)
    tdir = rdir / "traced"
    spans = {name: tdir / f"spans-{name}.json" for name in ("cli", "readback", "probe")}
    traced = []
    tdir.mkdir(parents=True)
    for (name, argv, output, _), (_, _, plain_output, _) in zip(w.operations(seed, rel(tdir)),
                                                                w.operations(seed, rel(rdir))):
        if name == w.command:
            argv = [PY, "bench/ops.py", "cli", rel(spans["cli"]), *w.cli_args(seed, output)]
        else:
            argv = [*argv, rel(spans["readback"])]
        op = runner.run(f"traced-{name}", argv)
        check_repeat(plain_output, output, op, runner)  # spans must not change outputs
        traced.append(op)
    probe = runner.run("probe", [PY, "bench/ops.py", "probe", w.name, str(seed),
                                 rel(spans["probe"]), rel(solution)])
    rss = {}
    if probe.code == 0:
        for p in w.policies:
            rss[f"engine:{p}"] = runner.run(f"engine:{p}", [PY, "bench/ops.py", "engine", w.name, str(seed),
                                                           rel(solution), p, "0"]).rss_mb
            if w.readback:
                rss[f"trace:{p}"] = runner.run(f"trace:{p}", [PY, "bench/ops.py", "engine", w.name, str(seed),
                                                             rel(solution), p, "1"]).rss_mb
    trace_bytes = sum(f.stat().st_size for f in (rdir / w.command).glob("trace_*.csv"))
    overhead = sum(op.wall for op in traced) / sum(op.wall for op in plain)
    loaded = {name: load_spans(path) for name, path in spans.items()}
    pool = max_clear_pool(loaded["cli"])
    if pool > CLEAR_EXACT_LIMIT:
        runner.flag(traced[0], [f"a clearing pool of {pool} agents exceeds {CLEAR_EXACT_LIMIT}: "
                                "periodic_clear fell back to greedy edge selection"])
    return plain + traced, {"spans": loaded, "rss": rss, "trace_bytes": trace_bytes, "overhead": overhead}


def per_layer(w: Workload, seed: int, seconds: float, out: Path, runner: Runner, names: list[str]) -> dict:
    rounds: list[dict] = []
    spent = 0.0
    first = out / "round0"
    while not rounds or (spent < seconds and runner.elapsed() < LAST_ROUND_START_S):
        rdir = out / f"round{len(rounds)}"
        ops, got = traced_round(w, seed, rdir, runner, None if not rounds else first, out / "solution.json")
        spent += sum(op.wall for op in ops)
        sp = got["spans"]
        got["metrics"] = layer_metrics(w, names, sp["cli"], sp["probe"], sp["readback"],
                                       got["rss"], got["trace_bytes"], got["overhead"])
        rounds.append(got)
        if len(rounds) > 1:
            shutil.rmtree(rdir)
    with open(out / "spans.json", "w") as fh:
        json.dump([{"round": k, **r} for k, r in enumerate(rounds)], fh, indent=1)
    print(f"{w.name}: {len(rounds)} traced rounds; spans in {rel(out / 'spans.json')}", file=sys.stderr)
    return {name: statistics.median(r["metrics"][name] for r in rounds) for name in names}


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="dynmatch benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    if not (ROOT / "src" / "dynmatch" / "cli.py").is_file():
        print(f"error: no dynmatch source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))

    w = WORKLOADS[args.workload]
    out = OUT / f"{w.name}-trace{args.trace}"  # the latest run of each kind
    shutil.rmtree(out, ignore_errors=True)
    (out / "logs").mkdir(parents=True)
    runner = Runner(out / "logs")
    names = [m["name"] for m in metric_specs]
    if args.trace:
        values = per_layer(w, args.seed, args.seconds, out, runner, names)
    else:
        values = end_to_end(w, args.seed, args.seconds, out, runner)
    if set(values) != set(names):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    result = runner.tally()
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
