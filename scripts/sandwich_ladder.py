"""Climb a horizon ladder comparing the online policy against the
hindsight optimum and the planning upper bound on shared populations.

Each rung reruns both estimates on the same seeded populations, so the
online column can never legitimately exceed the hindsight column.

    python3 scripts/sandwich_ladder.py market.json --out ladder.csv \
        --horizons 10,50,200 --replications 40
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from dynmatch import (
    PolicyConfig,
    PolicyKind,
    derive_seed,
    hindsight_value_estimate,
    parse_instance,
    run_simulation,
    solve_upper_bound,
    validate_instance,
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("instance")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--horizons", default="10,50,200")
    p.add_argument("--replications", type=int, default=40)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-threshold", type=int, default=20,
                   help="refuse populations with more agents open at once than "
                        "this; the hindsight sweep keeps up to 2**this states")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    inst = parse_instance(Path(args.instance).read_text())
    violations = validate_instance(inst)
    if violations:
        for v in violations:
            print(f"invalid instance: {v}", file=sys.stderr)
        return 1
    sol = solve_upper_bound(inst)
    policy = PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=args.gamma)
    horizons = [float(h) for h in args.horizons.split(",") if h.strip()]

    rows = []
    for h in horizons:
        hind_mean, hind_se = hindsight_value_estimate(
            inst, h, args.replications, args.seed,
            exact_threshold=args.exact_threshold,
        )
        online = []
        for r in range(args.replications):
            # same per-replication seed the hindsight estimator used, so
            # both columns describe the same arrival realizations
            _, report = run_simulation(
                inst, policy, sol, horizon=h, burn_in=0.0,
                seed=derive_seed(args.seed, r), record_trace=False,
            )
            online.append(report.avg_value_per_time)
        online_mean = float(np.mean(online))
        online_se = float(np.std(online, ddof=1) / np.sqrt(len(online)))
        rows.append({
            "horizon": h,
            "online_mean": online_mean, "online_se": online_se,
            "hindsight_mean": hind_mean, "hindsight_se": hind_se,
            "lp_value": sol.value,
        })
        print(f"horizon {h:g}: online {online_mean:.5f} (se {online_se:.5f})  "
              f"hindsight {hind_mean:.5f} (se {hind_se:.5f})  "
              f"optimum {sol.value:.5f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["horizon", "online_mean", "online_se",
                            "hindsight_mean", "hindsight_se", "lp_value"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
