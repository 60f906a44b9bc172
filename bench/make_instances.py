"""Regenerate the benchmark's market instances from their seeded recipes.

    python3 bench/make_instances.py                       # all three, recorded seeds
    python3 bench/make_instances.py --workload wide --seed 41 --out /tmp/w.json
    python3 bench/make_instances.py --check               # files match the recipes?

Every instance comes from the criterion recipe of the acceptance suite:
arrival and departure rates uniform in [0.5, 2], every unordered type pair
valued uniform in [0, 1], drawn from one `random.Random(seed)` in that order.

* long:  the tenth instance (n=4) of the fixed suite, i.e. the draw that
         follows n = 2, 2, 2, 3, 3, 3, 3, 4, 4 on Random(72026).
* audit: the same draw, load-scaled the way the sandwich criterion scales
         it (`hindsight_scale`): every arrival rate times
         min(1, 2 / sum(lambda), 1 / sum(lambda / mu)).
* wide:  one 40-type draw on Random(40).

The files are written in the package's JSON instance format, floats with
repr precision so a reload is exact. This script does not import dynmatch:
the benchmark's inputs do not depend on the code under test.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INSTANCE_DIR = HERE / "instances"

# workload -> recipe seed; the README records the same table
RECIPE_SEEDS = {"long": 72026, "audit": 72026, "wide": 40}
SUITE_SIZES = (2, 2, 2, 3, 3, 3, 3, 4, 4, 4)


def drawn_types(rng: random.Random, n: int) -> tuple[list[list[float]], dict]:
    """One criterion-recipe draw: [lambda, mu] per type, values per pair."""
    rates = [[rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)] for _ in range(n)]
    values = {(i, j): rng.uniform(0.0, 1.0) for i in range(n) for j in range(i, n)}
    return rates, values


def instance_doc(rates: list[list[float]], values: dict) -> dict:
    return {
        "types": [
            {"label": f"t{i}", "arrival_rate": lam, "departure_rate": mu}
            for i, (lam, mu) in enumerate(rates)
        ],
        "values": [[f"t{i}", f"t{j}", v] for (i, j), v in sorted(values.items())],
    }


def suite_last(seed: int) -> tuple[list[list[float]], dict]:
    rng = random.Random(seed)
    for n in SUITE_SIZES[:-1]:
        drawn_types(rng, n)
    return drawn_types(rng, SUITE_SIZES[-1])


def hindsight_scaled(rates: list[list[float]]) -> list[list[float]]:
    lam_sum = sum(lam for lam, _ in rates)
    load = sum(lam / mu for lam, mu in rates)
    c = min(1.0, 2.0 / lam_sum, 1.0 / load)
    return [[c * lam, mu] for lam, mu in rates]


def make(workload: str, seed: int) -> dict:
    if workload == "long":
        return instance_doc(*suite_last(seed))
    if workload == "audit":
        rates, values = suite_last(seed)
        return instance_doc(hindsight_scaled(rates), values)
    if workload == "wide":
        return instance_doc(*drawn_types(random.Random(seed), 40))
    raise ValueError(f"unknown workload {workload!r}")


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(RECIPE_SEEDS))
    p.add_argument("--seed", type=int, help="recipe seed (default: the recorded one)")
    p.add_argument("--out", help="output file (default: bench/instances/<workload>.json)")
    p.add_argument("--check", action="store_true",
                   help="compare the checked-in files with the recipes; write nothing")
    args = p.parse_args(argv)
    if (args.seed is not None or args.out) and not args.workload:
        p.error("--seed and --out need --workload")
    names = [args.workload] if args.workload else sorted(RECIPE_SEEDS)
    stale = []
    for name in names:
        seed = RECIPE_SEEDS[name] if args.seed is None else args.seed
        text = render(make(name, seed))
        path = Path(args.out) if args.out else INSTANCE_DIR / f"{name}.json"
        if args.check:
            if not path.is_file() or path.read_text() != text:
                stale.append(str(path))
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path} ({name}, seed {seed})")
    for path in stale:
        print(f"stale: {path}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
