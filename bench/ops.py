"""Child processes of the benchmark; run from the checkout root with src/ on
PYTHONPATH. The benchmark's parent process never imports this module.

    ops.py setup    INSTANCE                  what every CLI command pays first
    ops.py timed    READY ARG...              `dynmatch ARG...`, marking the end of its set-up
    ops.py readback INSTANCE SIMDIR OUT.json READY [SPANS]
                                              read every trace of a simulate run back
    ops.py cli      SPANS ARG...              `dynmatch ARG...` with layer spans
    ops.py probe    WORKLOAD SEED SPANS SOLUTION
                                              direct layer calls the CLI does not make
    ops.py engine   WORKLOAD SEED SOLUTION POLICY RECORD_TRACE
                                              one run_simulation call, for its peak RSS

Spans are written to SPANS when the process ends (see tracing.py). READY
receives the time.monotonic() reading at which the child's set-up ended,
so that the parent can time the operation from there to the child's exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext


def op_setup(instance_path: str) -> int:
    import dynmatch.cli  # noqa: F401  (the import every command pays)
    from dynmatch.lp import build_lp, check_feasibility, solve_lp
    from dynmatch.market import load_instance, validate_instance

    instance = load_instance(instance_path)
    if validate_instance(instance):
        return 1
    solution = solve_lp(build_lp(instance))
    return 0 if check_feasibility(instance, solution).ok else 1


def _write_ready(path: str, t: float) -> None:
    with open(path, "w") as fh:
        fh.write(f"{t!r}\n")


def op_timed(ready_path: str, argv: list[str]) -> int:
    """`dynmatch ARG...` as `python -m dynmatch.cli` runs it. Its set-up
    ends when the CLI's one check_feasibility call returns: interpreter,
    imports, instance and LP are done, no arrival is simulated yet."""
    import dynmatch.cli as cli

    inner = cli.check_feasibility
    ready: list[float] = []

    def check_feasibility(*args, **kwargs):
        result = inner(*args, **kwargs)
        ready.append(time.monotonic())
        return result

    cli.check_feasibility = check_feasibility
    code = cli.main(argv)
    if ready:
        _write_ready(ready_path, ready[0])
    return code


def op_readback(instance_path: str, simdir: str, out_path: str, ready_path: str,
                spans_path: str | None) -> int:
    from dynmatch import estimate_rates, load_instance, read_trace_csv, replay_check

    tracer = _tracer() if spans_path else None

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    instance = load_instance(instance_path)
    ready = time.monotonic()
    doc = {}
    for name in sorted(os.listdir(simdir)):
        if not (name.startswith("trace_") and name.endswith(".csv")):
            continue
        with span("simulate.read_trace"):
            trace, _ = read_trace_csv(os.path.join(simdir, name))
        with span("simulate.replay"):
            problems = replay_check(trace, instance)
        with span("simulate.estimate_rates"):
            rates = estimate_rates(trace, instance)
        doc[name] = {"events": len(trace.events), "problems": problems, "rates": rates.tolist()}
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _write_ready(ready_path, ready)
    if tracer:
        tracer.write(spans_path)
    return 0


def _tracer():
    from tracing import Tracer

    return Tracer()


def _trace_population(tracer) -> None:
    import dynmatch.simulate as sim

    # run_simulation reaches the population through the simulate module's
    # global, so this catches every engine run, instrumented runs included
    tracer.wrap(sim, "generate_population", "simulate.population",
                result_attrs=lambda pop: {"agents": pop.n_agents})


def _trace_pools(tracer) -> None:
    import dynmatch.simulate as sim

    # periodic_clear takes its pool from here; the largest pool of a run
    # becomes the max_pool attribute of its simulate.run span
    inner = sim.MarketState.snapshot_available

    def snapshot_available(state):
        pool = inner(state)
        rec = tracer.current()
        if rec is not None and rec["name"] == "simulate.run":
            rec["max_pool"] = max(rec.get("max_pool", 0), len(pool))
        return pool

    sim.MarketState.snapshot_available = snapshot_available


def _run_attrs(instance, policy, solution=None, **kw) -> dict:
    return {
        "policy": policy.kind.value,
        "record_trace": kw.get("record_trace", True),
        "horizon": kw["horizon"],
    }


def op_cli(spans_path: str, argv: list[str]) -> int:
    tracer = _tracer()
    with tracer.span("cli.import"):
        import dynmatch.cli as cli
    tracer.wrap(cli, "load_instance", "market.load_instance")
    tracer.wrap(cli, "validate_instance", "market.validate_instance")
    tracer.wrap(cli, "build_lp", "lp.build", result_attrs=lambda lp: {"rows": lp.n_rows})
    tracer.wrap(cli, "solve_lp", "lp.solve")
    tracer.wrap(cli, "check_feasibility", "lp.check")
    tracer.wrap(cli, "run_simulation", "simulate.run", attrs=_run_attrs)
    tracer.wrap(cli, "write_trace_csv", "simulate.write_trace")
    tracer.wrap(cli, "hindsight_value_estimate", "hindsight.estimate",
                attrs=lambda instance, horizon, *a, **k: {"horizon": horizon})
    tracer.wrap(cli, "instrument_z_events", "diagnostics.instrument")
    tracer.wrap(cli, "check_rate_bounds", "diagnostics.bounds")
    _trace_population(tracer)
    _trace_pools(tracer)
    with tracer.span("cli.main", command=argv[0]):
        code = cli.main(argv)
    tracer.write(spans_path)
    return code


def _policy(kind: str):
    from dynmatch import PolicyConfig
    from workloads import CLEAR_PERIOD, GAMMA

    if kind == "online_match":
        return PolicyConfig(kind=kind, gamma=GAMMA)
    if kind == "periodic_clear":
        return PolicyConfig(kind=kind, clear_period=CLEAR_PERIOD)
    return PolicyConfig(kind=kind)


def op_probe(workload_name: str, seed: int, spans_path: str, solution_path: str) -> int:
    """Layer calls the workload's command makes in another form: the engine
    without traces (wide), the uninstrumented twin of the instrumented run
    and the hindsight graph and matcher on one recorded trace (audit)."""
    from dynmatch import (
        build_compatibility_graph,
        build_lp,
        derive_seed,
        load_instance,
        max_weight_matching_exact,
        run_simulation,
        solve_lp,
    )
    from workloads import WORKLOADS

    w = WORKLOADS[workload_name]
    tracer = _tracer()
    _trace_population(tracer)
    instance = load_instance(w.instance)
    solution = solve_lp(build_lp(instance))
    with open(solution_path, "w") as fh:
        json.dump({"value": solution.value, "alpha": solution.alpha.tolist(),
                   "var_pairs": solution.var_pairs}, fh)
    if w.readback:
        for kind in w.policies:
            with tracer.span("simulate.run", policy=kind, record_trace=False, horizon=w.horizon):
                run_simulation(instance, _policy(kind), solution, horizon=w.horizon,
                               seed=derive_seed(seed, 0), record_trace=False)
    if w.with_diagnostics:
        with tracer.span("diagnostics.plain"):
            run_simulation(instance, _policy("online_match"), solution, horizon=w.horizon,
                           burn_in=0.0, seed=derive_seed(seed, "diagnostics"), record_trace=False)
    if w.probe_trace_horizon:
        with tracer.span("hindsight.trace_run"):
            trace, _ = run_simulation(instance, _policy("online_match"), solution,
                                      horizon=w.probe_trace_horizon, seed=derive_seed(seed, 0))
        with tracer.span("hindsight.graph") as rec:
            graph = build_compatibility_graph(trace, instance)
            rec.update(nodes=graph.n_nodes, edges=graph.n_edges)
        with tracer.span("hindsight.match"):
            max_weight_matching_exact(graph, w.exact_threshold)
    tracer.write(spans_path)
    return 0


def op_engine(workload_name: str, seed: int, solution_path: str, kind: str, record_trace: bool) -> int:
    import numpy as np
    from dynmatch import LpSolution, SolveStatus, derive_seed, load_instance, run_simulation
    from workloads import WORKLOADS

    w = WORKLOADS[workload_name]
    instance = load_instance(w.instance)
    with open(solution_path) as fh:
        doc = json.load(fh)
    solution = LpSolution(
        status=SolveStatus.OPTIMAL,
        value=doc["value"],
        alpha=np.array(doc["alpha"], dtype=np.float64),
        var_pairs=tuple(tuple(p) for p in doc["var_pairs"]),
    )
    run_simulation(instance, _policy(kind), solution, horizon=w.horizon,
                   seed=derive_seed(seed, 0), record_trace=record_trace)
    return 0


def main(argv: list[str]) -> int:
    op, args = argv[0], argv[1:]
    if op == "setup":
        return op_setup(args[0])
    if op == "timed":
        return op_timed(args[0], args[1:])
    if op == "readback":
        return op_readback(args[0], args[1], args[2], args[3], args[4] if len(args) > 4 else None)
    if op == "cli":
        return op_cli(args[0], args[1:])
    if op == "probe":
        return op_probe(args[0], int(args[1]), args[2], args[3])
    if op == "engine":
        return op_engine(args[0], int(args[1]), args[2], args[3], args[4] == "1")
    print(f"unknown operation {op!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
