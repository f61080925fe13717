"""Command line interface.

Subcommands mirror the library layers: fluid-solve for the relaxation,
simulate / sweep-theta for the stochastic market, cyclic-eval and
fairness-audit for time-varying policies, noisy-analyze for the noisy-entry
curves, and reproduce for the packaged experiments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .experiments import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    _curve_panel,
    _loss_study,
    experiment_defaults,
    float_range,
    run_experiment,
)
from .fluid import _oracle_with_lipschitz, classify_dispersion, solve_fluid
from .market import MarketInstance, RewardDistribution, _require_number, float_field, json_object, load_instance
from .noisy import detect_double_threshold, load_noisy, surplus_curve
from .policies import (
    BeliefBased,
    Cyclic,
    Policy,
    Static,
    cyclic_to_static_report,
    fairness_audit,
)
from .sim import SimConfig, default_burn_in, simulate

__all__ = ["main"]


def _policy_from_dict(d: dict, inst: MarketInstance) -> Policy:
    d = json_object("policy", d)
    kind = d.get("kind")
    where = f"{kind} policy"
    if kind == "static":
        return Static(RewardDistribution.on(inst.rewards, float_field(where, "x", d.get("x"), many=True)))
    if kind == "cyclic":
        xs = d.get("xs")
        if not isinstance(xs, list):
            raise ValueError(f"{where}: field 'xs' must be a list of weight lists, got {xs!r}")
        rows = (float_field(where, f"xs[{j}]", row, many=True) for j, row in enumerate(xs))
        return Cyclic(tuple(RewardDistribution.on(inst.rewards, row) for row in rows))
    if kind == "belief_based":
        return BeliefBased(**{k: float_field(where, k, d.get(k)) for k in ("alpha", "v1", "v2", "D")})
    raise ValueError(f"unknown policy kind {kind!r}")


def _load_policy(path: str, inst: MarketInstance) -> Policy:
    with open(path, "r", encoding="utf-8") as fh:
        return _policy_from_dict(json.load(fh), inst)


def _finite(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_fluid_solve(args) -> int:
    inst = load_instance(args.instance)
    out = solve_fluid(inst, tol=args.tol)
    doc = {
        "support": [{"r": r, "p": p} for r, p in out.x.support()],
        "profit": out.profit,
        "supply": list(out.supply_per_type),
        "expected_reward": out.expected_reward,
        "dispersion": classify_dispersion(out.x, inst.rewards).value,
    }
    if args.oracle is not None:
        oracle, lip = _oracle_with_lipschitz(inst, args.oracle)
        doc["oracle"] = {
            "grid_resolution": args.oracle,
            "profit": oracle.profit,
            "gap": out.profit - oracle.profit,
            "lipschitz": lip,
            "tolerance": 10.0 * lip / args.oracle,
        }
    _print_json(doc)
    return 0


def _cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    policy = _load_policy(args.policy, inst)
    burn = args.burn_in if args.burn_in is not None else default_burn_in(inst, policy)
    cfg = SimConfig(
        theta=args.theta,
        periods=args.periods,
        burn_in=burn,
        replications=args.reps,
        seed=args.seed,
        realized_cost=args.realized_cost,
    )
    res = simulate(inst, policy, cfg)
    _print_json(
        {
            "mean_profit": res.mean_profit,
            "std_error": res.std_error,
            "mean_supply": list(res.mean_supply),
            "mean_supply_total": res.mean_supply_total,
            "replications": res.replications,
            "theta": res.theta,
            "burn_in": burn,
        }
    )
    return 0


def _cmd_sweep_theta(args) -> int:
    thetas = [t for t in args.thetas.split(",") if t.strip()]
    if not thetas:
        raise ValueError(f"--thetas needs at least one scale, got {args.thetas!r}")
    rows = _loss_study(load_instance(args.instance), {**vars(args), "thetas": thetas})
    writer = csv.writer(sys.stdout)
    writer.writerow(["policy", "theta", "loss", "se", "reps"])
    for row in rows:
        writer.writerow([row.policy, row.theta, repr(row.loss), repr(row.se), row.reps])
    return 0


def _cmd_cyclic_eval(args) -> int:
    inst = load_instance(args.instance)
    policy = _load_policy(args.policy, inst)
    if not isinstance(policy, Cyclic):
        raise ValueError("cyclic-eval needs a policy of kind 'cyclic'")
    report = cyclic_to_static_report(inst, policy)
    _print_json(
        {
            "tau": policy.tau,
            "steady_state": [[float(v) for v in row] for row in report["steady_state"]],
            "profit": report["cyclic_profit"],
            "fairness_eps": report["cyclic_fairness_eps"],
            "anchors": [
                {
                    "type": i,
                    "weights": list(a["x"].weights),
                    "profit": a["profit"],
                }
                for i, a in sorted(report["anchors"].items())
            ],
            "c0": _finite(report["c0"]),
            "c0_is_estimate": report["c0_is_estimate"],
            "bound_holds": report["bound_holds"],
        }
    )
    return 0


def _cmd_fairness_audit(args) -> int:
    inst = load_instance(args.instance)
    policy = _load_policy(args.policy, inst)
    report = fairness_audit(
        inst, policy, tau=args.tau, horizon=args.horizon, delta=args.delta
    )
    _print_json(asdict(report))
    return 0


def _parse_eps_range(spec: str) -> list[float]:
    try:
        start, step, stop = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"expected start:step:stop, got {spec!r}") from None
    grid = float_range(start, step, stop, ("eps start", "eps step", "eps stop"))
    out = [e for e in grid if e > 0.0]  # departures are undefined at zero noise
    if len(out) < 2:
        raise ValueError(f"eps range {spec!r} yields fewer than two positive points")
    return out


def _cmd_noisy_analyze(args) -> int:
    _require_number("rel_tol", args.rel_tol, "non-negative")  # checked with or without --detect-crossovers
    noisy = load_noisy(args.instance)
    curve = surplus_curve(noisy, _parse_eps_range(args.eps))
    if args.detect_crossovers:
        report = detect_double_threshold(
            list(zip(curve.eps, curve.rational)),
            list(zip(curve.eps, curve.myopic)),
            rel_tol=args.rel_tol,
        )
        _print_json(
            {
                "count": report.count,
                "locations": list(report.locations),
                "eps0": _finite(curve.eps0),
                "eps1": curve.eps1,
            }
        )
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["eps", "x_star", "profit", "surplus", "welfare", "rational_surplus", "myopic_surplus"]
    )
    writer.writerows([repr(v) for v in row] for row in _curve_panel(curve)[1])
    return 0


def _cmd_reproduce(args) -> int:
    defaults = experiment_defaults(args.id)
    overrides: dict = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    # --seed/--reps apply only where the experiment actually samples
    if args.seed is not None and "seed" in defaults:
        overrides["seed"] = args.seed
    if args.reps is not None and "reps" in defaults:
        overrides["reps"] = args.reps
    out_dir = Path(args.out) if args.out else Path("out") / args.id
    manifest = run_experiment(
        ExperimentSpec(id=args.id, overrides=overrides, output_dir=out_dir),
        run_checks=args.check,
    )
    _print_json(manifest)
    if args.check and manifest.get("check_failures"):
        for line in manifest["check_failures"]:
            print(f"check failed: {line}", file=sys.stderr)
        return 3
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="gigopt",
        description="Profit-optimal reward distributions for markets of departing workers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fluid-solve", help="solve the fluid relaxation of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--oracle", type=int, default=None, metavar="G",
                   help="also run the exhaustive oracle at grid resolution G")
    p.set_defaults(func=_cmd_fluid_solve)

    p = sub.add_parser("simulate", help="simulate a policy on the stochastic market")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--theta", type=int, default=1)
    p.add_argument("--periods", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--realized-cost", action="store_true",
                   help="record drawn payments instead of the expected cost")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep-theta", help="additive loss of the canonical policies across scales")
    p.add_argument("--instance", required=True)
    p.add_argument("--thetas", required=True, help="comma-separated scale list, e.g. 1,2,4,8")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--measure", type=int, default=300, help="measured periods after burn-in")
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=float, default=35.0, help="lottery baseline mean")
    p.add_argument("--sigma", type=float, default=11.2, help="lottery baseline std deviation")
    p.set_defaults(func=_cmd_sweep_theta)

    p = sub.add_parser("cyclic-eval", help="closed-form steady state of a cyclic policy")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True)
    p.set_defaults(func=_cmd_cyclic_eval)

    p = sub.add_parser("fairness-audit", help="windowed experienced-distribution gaps")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--horizon", type=int, default=500)
    p.set_defaults(func=_cmd_fairness_audit)

    p = sub.add_parser("noisy-analyze", help="optimal-lottery metric curves for noisy entry")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", default="0:0.25:25", help="noise grid start:step:stop")
    p.add_argument("--detect-crossovers", action="store_true")
    p.add_argument("--rel-tol", type=float, default=0.05,
                   help="relative merge tolerance for crossover detection")
    p.set_defaults(func=_cmd_noisy_analyze)

    p = sub.add_parser("reproduce", help="run a packaged experiment")
    p.add_argument("id", metavar="id", help=f"one of: {', '.join(EXPERIMENT_IDS)}")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--check", action="store_true", help="exit 3 unless the self-checks pass")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
