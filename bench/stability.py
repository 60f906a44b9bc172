"""Run workloads repeatedly and report how steady each end-to-end metric is.

    python3 bench/stability.py --runs 10 [--workload long ...]

Run k (from 1) uses seed k and BENCHMARK.json's run_seconds. For every
workload and end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, and the worst deviation
from the median as a share of it, next to the metric's bound in
BENCHMARK.json. The failed share of operations is printed per workload.
The raw results go to bench/_out/stability.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)

    raw: dict[str, list[dict]] = {}
    for name in args.workload or names:
        raw[name] = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            raw[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)

    out = ROOT / "bench" / "_out"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stability.json", "w") as fh:
        json.dump(raw, fh, indent=1)

    print(f"\n{args.runs} runs per workload, --seconds {spec['run_seconds']}")
    print(f"{'workload':8} {'metric':13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'worst':>8} {'bound':>6}")
    for name, results in raw.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            worst = max(abs(v - med) for v in values)
            print(f"{name:8} {m['name']:13} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{(q3 - q1) / med:8.2%} {worst / med:8.2%} {m['bound']:6.2f}")
        failed = {r["failed"] / r["attempted"] for r in results}
        print(f"{name:8} {'failed share':13} {sorted(failed)}; correct: "
              f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
