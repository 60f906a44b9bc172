"""Command-line surface: validate, lp, simulate, compare, diagnose.

Experiments are described by a JSON config file, a set of flags, or both;
flags override config fields. Exit codes: 0 success, 1 domain violation or
bound failure, 2 usage or parse error.

Everything written to disk is deterministic given the config: replication
r of master seed s runs on derive_seed(s, r), file names carry the policy
token and replication index, JSON is dumped with sorted keys and no
timestamps, so rerunning an identical config reproduces every output file
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import MIN_BOUND_HORIZON, check_rate_bounds, instrument_z_events, merge_counters
from .hindsight import MatchingTooLargeError, check_estimate_settings, hindsight_value_estimate
from .lp import (
    FeasibilityReport,
    LinearProgram,
    LpSolution,
    SolveStatus,
    build_lp,
    check_feasibility,
    solve_lp,
)
from .market import (
    InstanceFormatError,
    MarketInstance,
    emit_instance,
    load_instance,
    validate_instance,
)
from .policies import PolicyConfig, PolicyKind
from .randomness import derive_seed
from .simulate import check_run_settings, run_simulation, write_trace_csv

NOT_APPLICABLE = "NOT_APPLICABLE"


# a config field's required JSON type: (what it must be, the check); a
# number is finite, though json.load accepts NaN and Infinity
_NUMBER = ("a number", lambda v: not isinstance(v, bool) and (
    isinstance(v, int) or isinstance(v, float) and math.isfinite(v)))
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_STRING = ("a string", lambda v: isinstance(v, str))
_CONFIG_FIELDS = {
    "instance": _STRING,
    "out": _STRING,
    "policies": ("an array", lambda v: isinstance(v, list)),
    "horizon": _NUMBER,
    "burn_in": _NUMBER,
    "gamma": _NUMBER,
    "clear_period": _NUMBER,
    "seed": _INTEGER,
    "replications": _INTEGER,
    "exact_threshold": _INTEGER,
    "hindsight_replications": _INTEGER,
    "hindsight_horizons": (
        "a list of numbers", lambda v: isinstance(v, list) and all(map(_NUMBER[1], v))
    ),
    "with_diagnostics": ("true or false", lambda v: isinstance(v, bool)),
}
_POLICY_FIELDS = {"kind": _STRING, "gamma": _NUMBER, "clear_period": _NUMBER}


class ConfigError(ValueError):
    """Bad experiment description: missing fields, unknown keys, wrong shapes."""


@dataclass
class ExperimentConfig:
    instance: str | None = None
    policies: list[dict] = field(default_factory=list)
    horizon: float | None = None
    burn_in: float | None = None
    replications: int = 1
    seed: int | None = None
    gamma: float = 0.5
    out: str | None = None
    clear_period: float | None = None
    exact_threshold: int = 20
    hindsight_horizons: list[float] = field(default_factory=list)
    hindsight_replications: int = 50
    with_diagnostics: bool = False

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(
                "missing required setting(s): "
                + ", ".join(missing)
                + " (set via config file or flag)"
            )

    def built_policies(self, default_kinds: list[str]) -> list[PolicyConfig]:
        entries = self.policies or [{"kind": k} for k in default_kinds]
        out = []
        for e in entries:
            kind = e["kind"]
            kwargs: dict = {}
            if kind == PolicyKind.ONLINE_MATCH.value:
                kwargs["gamma"] = e.get("gamma", self.gamma)
            if kind == PolicyKind.PERIODIC_CLEAR.value:
                period = e.get("clear_period", self.clear_period)
                if period is None:
                    raise ConfigError(
                        "periodic_clear needs clear_period (config or --clear-period)"
                    )
                kwargs["clear_period"] = period
            try:
                out.append(PolicyConfig(kind=kind, **kwargs))
            except ValueError as err:
                raise ConfigError(str(err)) from err
        return out


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: parse error at line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown config field(s): {sorted(unknown)}")
    _check_types(doc, _CONFIG_FIELDS, f"{path}: ")
    if "policies" in doc:
        normalized = []
        for i, e in enumerate(doc["policies"]):
            if isinstance(e, str):
                e = {"kind": e}
            if not isinstance(e, dict):
                raise ConfigError(f"{path}: policies[{i}] must be an object or string")
            unknown = set(e) - set(_POLICY_FIELDS)
            if unknown:
                raise ConfigError(
                    f"{path}: policies[{i}]: unknown field(s) {sorted(unknown)}"
                )
            if "kind" not in e:
                raise ConfigError(f"{path}: policies[{i}]: missing kind")
            _check_types(e, _POLICY_FIELDS, f"{path}: policies[{i}]: ")
            normalized.append(e)
        doc["policies"] = normalized
    return doc


def _check_types(doc: dict, fields: dict, where: str) -> None:
    """Raise ConfigError naming the first field whose JSON type is wrong."""
    for key, value in doc.items():
        what, ok = fields[key]
        if not ok(value):
            raise ConfigError(f"{where}{key} must be {what}, got {json.dumps(value)}")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            setattr(cfg, key, value)
    overrides = ("instance", "horizon", "burn_in", "replications", "seed", "gamma", "out",
                 "clear_period", "exact_threshold", "hindsight_replications")
    for name in overrides:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "policy", None):
        cfg.policies = [{"kind": k} for k in args.policy]
    if getattr(args, "hindsight_horizons", None):
        cfg.hindsight_horizons = args.hindsight_horizons
    if getattr(args, "with_diagnostics", False):
        cfg.with_diagnostics = True
    if cfg.replications < 1:
        raise ConfigError("replications must be at least 1")
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _load_checked_instance(path: str) -> MarketInstance:
    """Read and domain-validate an instance file.

    Parse trouble raises (caught by main as a usage error); domain
    violations raise DomainError so they exit 1 per the contract.
    """
    instance = load_instance(path)
    violations = validate_instance(instance)
    if violations:
        raise DomainError(
            "invalid instance:\n"
            + "\n".join(f"  {v.code}: {v.message}" for v in violations)
        )
    return instance


class DomainError(ValueError):
    pass


def _dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _solve_or_fail(
    instance: MarketInstance,
) -> tuple[LinearProgram, LpSolution, FeasibilityReport]:
    lp = build_lp(instance)
    solution = solve_lp(lp)
    if solution.status is not SolveStatus.OPTIMAL:
        raise DomainError(f"LP solve ended with status {solution.status.value}")
    feas = check_feasibility(instance, solution)
    if not feas.ok:
        raise DomainError(
            f"LP solution violates constraints by {feas.worst_violation:.3e}"
        )
    return lp, solution, feas


def _mean_se(values: list[float]) -> tuple[float, float | None]:
    arr = np.asarray(values)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, None
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    instance = _load_checked_instance(args.instance)
    labels = ", ".join(instance.labels())
    print(f"ok: {instance.n_types} type(s) [{labels}], "
          f"{len(instance.values.items())} value pair(s)")
    return 0


def cmd_lp(args: argparse.Namespace) -> int:
    instance = _load_checked_instance(args.instance)
    lp, solution, feas = _solve_or_fail(instance)
    print(f"maximize over {lp.n_vars} variable(s) subject to {lp.n_rows} row(s)")
    print(f"optimal value: {solution.value!r}")
    doc = {
        "schema_version": 1,
        "status": solution.status.value,
        "value": solution.value,
        "alpha": [[float(v) for v in row] for row in solution.alpha],
        "labels": list(instance.labels()),
        "feasibility": {
            "ok": feas.ok,
            "worst_violation": feas.worst_violation,
            "tolerance": feas.tolerance,
        },
    }
    _dump_json(doc, args.out)
    print(f"wrote {args.out}")
    return 0


def _policy_solution(policies, instance):
    if any(p.kind is PolicyKind.ONLINE_MATCH for p in policies):
        _, solution, _ = _solve_or_fail(instance)
        return solution
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    cfg.require("instance", "seed", "horizon", "out")
    instance = _load_checked_instance(cfg.instance)
    policies = cfg.built_policies(default_kinds=["online_match"])
    horizon = float(cfg.horizon)
    burn_in = check_run_settings(horizon, cfg.burn_in)
    solution = _policy_solution(policies, instance)
    os.makedirs(cfg.out, exist_ok=True)

    policy_blocks = []
    for pol in policies:
        rep_rows = []
        values_per_time = []
        for r in range(cfg.replications):
            rep_seed = derive_seed(cfg.seed, r)
            trace, report = run_simulation(
                instance,
                pol,
                solution if pol.kind is PolicyKind.ONLINE_MATCH else None,
                horizon=horizon,
                burn_in=burn_in,
                seed=rep_seed,
                record_trace=True,
            )
            trace_name = f"trace_{pol.file_token()}_rep{r}.csv"
            write_trace_csv(
                trace, os.path.join(cfg.out, trace_name), policy=pol.file_token()
            )
            row = report.to_dict()
            row["replication"] = r
            row["trace_file"] = trace_name
            rep_rows.append(row)
            values_per_time.append(report.avg_value_per_time)
        mean, se = _mean_se(values_per_time)
        policy_blocks.append(
            {
                "policy": pol.describe(),
                "mean_value_per_time": mean,
                "se": se,
                "replications": rep_rows,
            }
        )
        print(f"{pol.file_token()}: mean value/time {mean:.6g}"
              + (f" +- {se:.2g}" if se is not None else ""))

    doc = {
        "schema_version": 1,
        "instance": json.loads(emit_instance(instance)),
        "instance_path": cfg.instance,
        "seed": cfg.seed,
        "horizon": horizon,
        "burn_in": burn_in,
        "replications": cfg.replications,
        "lp_value": solution.value if solution is not None else None,
        "policies": policy_blocks,
    }
    report_path = os.path.join(cfg.out, "report.json")
    _dump_json(doc, report_path)
    print(f"wrote {report_path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    cfg.require("instance", "seed", "horizon", "out")
    instance = _load_checked_instance(cfg.instance)
    policies = cfg.built_policies(default_kinds=["online_match", "greedy"])
    horizon = float(cfg.horizon)
    burn_in = check_run_settings(horizon, cfg.burn_in)
    for h in cfg.hindsight_horizons:
        check_estimate_settings(h, cfg.hindsight_replications, cfg.exact_threshold)
    online = [p for p in policies if p.kind is PolicyKind.ONLINE_MATCH]
    if cfg.with_diagnostics and not online:
        raise DomainError("--with-diagnostics needs an online_match policy")
    if cfg.with_diagnostics and horizon < MIN_BOUND_HORIZON:
        raise DomainError("--with-diagnostics needs horizon >= 1e4")
    _, solution, _ = _solve_or_fail(instance)
    lp_value = solution.value
    os.makedirs(cfg.out, exist_ok=True)

    rep_seeds = [derive_seed(cfg.seed, r) for r in range(cfg.replications)]
    policy_rows = []
    for pol in policies:
        values_per_time = []
        for rep_seed in rep_seeds:
            # common random numbers: the arrivals lane depends only on the
            # replication seed, so all policies see identical populations
            _, report = run_simulation(
                instance,
                pol,
                solution if pol.kind is PolicyKind.ONLINE_MATCH else None,
                horizon=horizon,
                burn_in=burn_in,
                seed=rep_seed,
                record_trace=False,
            )
            values_per_time.append(report.avg_value_per_time)
        mean, se = _mean_se(values_per_time)
        ratio = mean / lp_value if lp_value > 1e-12 else NOT_APPLICABLE
        policy_rows.append(
            {
                "policy": pol.describe(),
                "mean_value_per_time": mean,
                "se": se,
                "ratio_to_lp": ratio,
            }
        )
        shown = f"{ratio:.4f}" if isinstance(ratio, float) else ratio
        print(f"{pol.file_token()}: value/time {mean:.6g}, ratio {shown}")

    hindsight_rows = []
    for k, h in enumerate(cfg.hindsight_horizons):
        mean, se = hindsight_value_estimate(
            instance,
            h,
            cfg.hindsight_replications,
            derive_seed(cfg.seed, "hindsight", k),
            exact_threshold=cfg.exact_threshold,
        )
        hindsight_rows.append({"horizon": h, "mean_value_per_time": mean, "se": se})
        print(f"hindsight @ horizon {h:g}: {mean:.6g} +- {se:.2g}")

    diagnostics_block = None
    bounds_ok = True
    if cfg.with_diagnostics:
        counters, _ = instrument_z_events(
            instance,
            solution,
            online[0].gamma,
            horizon=horizon,
            seed=derive_seed(cfg.seed, "diagnostics"),
        )
        bound_report = check_rate_bounds(counters, instance, solution, online[0].gamma)
        bounds_ok = bound_report.ok
        diagnostics_block = bound_report.to_dict()
        n_fail = len(bound_report.failures)
        n_inc = len(bound_report.inconclusive)
        print(f"diagnostics: {len(bound_report.rows)} bounds, "
              f"{n_fail} FAIL, {n_inc} INCONCLUSIVE")

    doc = {
        "schema_version": 1,
        "instance": json.loads(emit_instance(instance)),
        "instance_path": cfg.instance,
        "seed": cfg.seed,
        "replication_seeds": rep_seeds,
        "horizon": horizon,
        "burn_in": burn_in,
        "replications": cfg.replications,
        "lp_value": lp_value,
        "policies": policy_rows,
        "hindsight": hindsight_rows,
        "diagnostics": diagnostics_block,
    }
    out_path = os.path.join(cfg.out, "comparison.json")
    _dump_json(doc, out_path)
    print(f"wrote {out_path}")
    return 0 if bounds_ok else 1


def cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    cfg.require("instance", "seed", "horizon", "out")
    instance = _load_checked_instance(cfg.instance)
    horizon = float(cfg.horizon)
    if horizon < MIN_BOUND_HORIZON:
        raise DomainError("rate bounds need a horizon of at least 1e4")
    _, solution, _ = _solve_or_fail(instance)
    lp_value = solution.value
    os.makedirs(cfg.out, exist_ok=True)

    rep_seeds = [derive_seed(cfg.seed, r) for r in range(cfg.replications)]
    parts = []
    for rep_seed in rep_seeds:
        counters, _ = instrument_z_events(
            instance, solution, cfg.gamma, horizon=horizon, seed=rep_seed
        )
        parts.append(counters)
    merged = merge_counters(parts) if len(parts) > 1 else parts[0]
    bound_report = check_rate_bounds(merged, instance, solution, cfg.gamma)

    doc = bound_report.to_dict()
    doc["instance"] = json.loads(emit_instance(instance))
    doc["instance_path"] = cfg.instance
    doc["seed"] = cfg.seed
    doc["replication_seeds"] = rep_seeds
    doc["lp_value"] = lp_value
    doc["counters"] = merged.to_dict()
    out_path = os.path.join(cfg.out, "diagnostics.json")
    _dump_json(doc, out_path)

    for row in bound_report.rows:
        if row.verdict != "PASS":
            print(f"{row.verdict}: {row.bound}[{row.subject}] "
                  f"empirical={row.empirical:.6g} bound={row.theoretical:.6g} "
                  f"se={row.se:.2g} {row.note}")
    n_fail = len(bound_report.failures)
    n_inc = len(bound_report.inconclusive)
    print(f"{len(bound_report.rows)} bounds checked: "
          f"{len(bound_report.rows) - n_fail - n_inc} PASS, "
          f"{n_fail} FAIL, {n_inc} INCONCLUSIVE")
    print(f"wrote {out_path}")
    return 0 if bound_report.ok else 1


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """argparse type of the float flags: a number other than nan and +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_experiment_flags(
    p: argparse.ArgumentParser, *, policies: bool = False, compare_extras: bool = False
):
    """The flags an experiment command reads; argparse rejects the rest."""
    p.add_argument("--config", help="JSON experiment config; flags override it")
    p.add_argument("--instance", help="market instance JSON file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--horizon", type=_finite_float, help="simulated time span")
    p.add_argument("--gamma", type=_finite_float,
                   help="attempt-scaling parameter in (0, 1] (default 0.5)")
    p.add_argument("--replications", type=int, help="independent runs (default 1)")
    p.add_argument("--out", help="output directory")
    if policies:
        p.add_argument("--burn-in", dest="burn_in", type=_finite_float,
                       help="warmup span excluded from statistics (default horizon/100)")
        p.add_argument("--policy", action="append",
                       choices=[k.value for k in PolicyKind],
                       help="policy to run; repeatable")
        p.add_argument("--clear-period", dest="clear_period", type=_finite_float,
                       help="period for periodic_clear")
    if compare_extras:
        p.add_argument("--exact-threshold", dest="exact_threshold", type=int,
                       help="most agents open at once for the exact hindsight matcher (default 20)")
        p.add_argument("--hindsight-horizons", dest="hindsight_horizons",
                       type=lambda text: [_finite_float(h) for h in text.split(",") if h],
                       help="comma-separated horizon ladder for the hindsight benchmark")
        p.add_argument("--hindsight-replications", dest="hindsight_replications",
                       type=int, help="replications per hindsight horizon (default 50)")
        p.add_argument("--with-diagnostics", dest="with_diagnostics",
                       action="store_true", default=None,
                       help="instrument the online policy and check rate bounds")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dynmatch",
        description="Dynamic matching market: LP bound, policies, benchmarks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check an instance file")
    pv.add_argument("instance")
    pv.set_defaults(func=cmd_validate)

    pl = sub.add_parser("lp", help="build and solve the upper-bound LP")
    pl.add_argument("instance")
    pl.add_argument("--out", required=True, help="solution JSON path")
    pl.set_defaults(func=cmd_lp)

    ps = sub.add_parser("simulate", help="run policies, write traces and a report")
    _add_experiment_flags(ps, policies=True)
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("compare", help="common-random-number policy comparison")
    _add_experiment_flags(pc, policies=True, compare_extras=True)
    pc.set_defaults(func=cmd_compare)

    pd = sub.add_parser("diagnose", help="marker-event instrumentation and bounds")
    _add_experiment_flags(pd)
    pd.set_defaults(func=cmd_diagnose)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: parse error at line {e.lineno}: {e.msg}", file=sys.stderr)
        return 2
    except InstanceFormatError as e:
        print(f"error: bad instance format: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MatchingTooLargeError, ValueError) as e:
        # after the exit-2 clauses: ConfigError, JSONDecodeError and
        # InstanceFormatError are ValueErrors too
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
