"""The benchmark's three workloads: inputs, commands and agent counts.

Each workload is a fixed list of operations, run one child process at a
time from the checkout root. A round runs the list once; a run repeats
rounds with the same seed. Why each workload exists is in README.md.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

INSTANCE_DIR = "bench/instances"
GAMMA = 0.5
CLEAR_PERIOD = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the dynmatch subcommand the workload runs
    horizon: float
    policies: tuple[str, ...]
    hindsight_horizons: tuple[float, ...] = ()
    hindsight_replications: int = 50
    exact_threshold: int = 20
    with_diagnostics: bool = False
    readback: bool = False  # read every trace back after `simulate`
    # horizon of the one recorded trace the hindsight layer probe reads
    probe_trace_horizon: float = 0.0

    @property
    def instance(self) -> str:
        return f"{INSTANCE_DIR}/{self.name}.json"

    def cli_args(self, seed: int, out: str) -> list[str]:
        """Arguments of the dynmatch command (without the program name)."""
        args = [
            self.command,
            f"--instance={self.instance}",
            f"--seed={seed}",
            f"--horizon={self.horizon!r}",
            f"--gamma={GAMMA!r}",
            f"--out={out}",
        ]
        for kind in self.policies:
            args.append(f"--policy={kind}")
        if "periodic_clear" in self.policies:
            args.append(f"--clear-period={CLEAR_PERIOD!r}")
        if self.hindsight_horizons:
            args.append(
                "--hindsight-horizons=" + ",".join(f"{h:g}" for h in self.hindsight_horizons)
            )
            args.append(f"--hindsight-replications={self.hindsight_replications}")
            args.append(f"--exact-threshold={self.exact_threshold}")
        if self.with_diagnostics:
            args.append("--with-diagnostics")
        return args

    def operations(self, seed: int, out: str) -> list[tuple[str, list[str], str, str]]:
        """(name, argv, output path, ready path) of each child process of
        one round, in order; out is the round's directory, relative to the
        checkout root. Each child writes to its ready path the clock reading
        at which its set-up ended (see ops.py)."""
        simdir = f"{out}/{self.command}"
        ready = f"{out}/{self.command}.ready"
        ops = [(self.command,
                [sys.executable, "bench/ops.py", "timed", ready, *self.cli_args(seed, simdir)],
                simdir, ready)]
        if self.readback:
            ready = f"{out}/readback.ready"
            ops.append(("readback",
                        [sys.executable, "bench/ops.py", "readback",
                         self.instance, simdir, f"{out}/readback.json", ready],
                        f"{out}/readback.json", ready))
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's long-run regime: per-arrival engine cost is the work;
        # half of criterion 5's 1e5, so that a run holds several rounds
        Workload(
            name="long",
            command="compare",
            horizon=5e4,
            policies=("online_match", "greedy", "periodic_clear"),
        ),
        # 40 types: a big LP, 79 decision draws per arrival, traces out and in
        Workload(
            name="wide",
            command="simulate",
            horizon=1000.0,
            policies=("online_match", "greedy"),
            readback=True,
        ),
        # hindsight ladder and the instrumented run on a light market
        Workload(
            name="audit",
            command="compare",
            horizon=1e5,
            policies=("online_match",),
            hindsight_horizons=(10.0, 50.0, 200.0, 1000.0),
            hindsight_replications=50,
            exact_threshold=100000,
            with_diagnostics=True,
            probe_trace_horizon=1e4,
        ),
    )
}


def population_seeds(workload: Workload, seed: int) -> list[tuple[float, int, int]]:
    """(horizon, population seed, policy runs on it) for every population a
    round simulates: policy runs share replication 0's population (common
    random numbers), the instrumented run and each hindsight replication
    draw their own."""
    from dynmatch import derive_seed

    out = [(workload.horizon, derive_seed(seed, 0), len(workload.policies))]
    if workload.with_diagnostics:
        out.append((workload.horizon, derive_seed(seed, "diagnostics"), 1))
    for k, h in enumerate(workload.hindsight_horizons):
        master = derive_seed(seed, "hindsight", k)
        for r in range(workload.hindsight_replications):
            out.append((h, derive_seed(master, r), 1))
    return out
