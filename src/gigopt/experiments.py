"""Canonical instances and reproducible desk-scale experiments.

Each experiment id maps to a pure function from a parameter dict to named
data panels; `run_experiment` writes one CSV (plus a small SVG line chart)
per panel and a manifest. Given the same parameters and seed the CSVs are
byte-identical across runs.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .fluid import (
    classify_dispersion,
    lottery_distribution,
    lottery_for_instance,
    optimal_fixed_wage,
    solve_fluid,
)
from .market import (
    MIN_DEPARTURE_FLOOR,
    DegenerateSupply,
    ExpFloor,
    Linear,
    LinearRev,
    MarketInstance,
    Newsvendor,
    Power,
    Quadratic,
    RewardDistribution,
    RewardSet,
    Tabulated,
    WorkerType,
    _require_number,
    expected_departure,
    expected_reward,
)
from .noisy import (
    NoisyInstance,
    detect_double_threshold,
    surplus_curve,
)
from .policies import (
    Cyclic,
    Static,
    belief_based_policy,
    cyclic_profit,
    cyclic_steady_state,
    experienced_distribution,
    fairness_audit,
    turnover_profit,
)
from .sim import LossRow, SimConfig, additive_loss_sweep, default_burn_in

__all__ = [
    "UnknownExperiment",
    "ExperimentSpec",
    "EXPERIMENT_IDS",
    "experiment_defaults",
    "canonical_instance",
    "single_type_instance",
    "mixture_instance",
    "example1_instance",
    "example3_instance",
    "power_variant_instance",
    "prop5_instance",
    "prop5_policy",
    "noisy_sqrt_instance",
    "noisy_newsvendor_instance",
    "double_threshold_instance",
    "normal_policy",
    "run_experiment",
]


class UnknownExperiment(ValueError):
    """Experiment id not in the registry."""


# --------------------------------------------------------------------------
# Canonical instances. The three-type market: capped linear revenue
# 100*min(N, 150), rewards 15..60, arrival rate 10/3 per type, and one
# departure curve per shape (convex, affine, concave). The affine and
# concave curves hit zero at the top reward, hence the mode flag.

# one immutable grid shared by every instance built here, not 46 new floats a call
_GRID = RewardSet.from_range(15.0, 60.0, 1.0)
_DEPARTURES = (
    ExpFloor(alpha=0.07, floor=15.0),
    Linear(alpha=1.0 / 45.0, beta=4.0 / 3.0),
    Quadratic(alpha=1.0 / 2025.0, beta=2.0 / 135.0, gamma=8.0 / 9.0),
)


def mixture_instance(lambdas: Sequence[float], revenue=None) -> MarketInstance:
    """Three-type market with the given arrival rates; zero-rate types are
    dropped."""
    types = tuple(
        WorkerType(lam=float(l), departure=dep)
        for l, dep in zip(lambdas, _DEPARTURES)
        if float(l) > 0.0
    )
    if not types:
        raise ValueError("at least one arrival rate must be positive")
    return MarketInstance(
        rewards=_GRID,
        types=types,
        revenue=revenue if revenue is not None else Newsvendor(alpha=100.0, cap=150.0),
        eps_noisy_mode=True,
    )


def canonical_instance() -> MarketInstance:
    """Equal mix of all three departure families; the default test market."""
    return mixture_instance((10.0 / 3.0,) * 3)


def single_type_instance(type_index: int, lam: float = 10.0) -> MarketInstance:
    lams = [0.0, 0.0, 0.0]
    lams[type_index] = lam
    return mixture_instance(lams)


def example1_instance(lam: float = 10.0) -> MarketInstance:
    """Single convex-departure type; used for the wage-vs-lottery curves."""
    return MarketInstance(
        rewards=_GRID,
        types=(WorkerType(lam=lam, departure=_DEPARTURES[0]),),
        revenue=Newsvendor(alpha=100.0, cap=150.0),
    )


def example3_instance(lam: float = 10.0, alpha: float = 100.0, cap: float = 50.0) -> MarketInstance:
    """Single concave-departure type under a tight capacity."""
    return MarketInstance(
        rewards=_GRID,
        types=(WorkerType(lam=lam, departure=_DEPARTURES[2]),),
        revenue=Newsvendor(alpha=alpha, cap=cap),
        eps_noisy_mode=True,
    )


def power_variant_instance(c: float = 150.0, beta: float = 0.7) -> MarketInstance:
    """Three-type market with smooth strictly concave revenue c*N**beta; the
    smoothness is what makes the additive loss decay at the 1/theta rate."""
    return mixture_instance((10.0 / 3.0,) * 3, revenue=Power(c=c, beta=beta))


def prop5_instance(r: float = 1.0, alpha: float = 0.7) -> MarketInstance:
    """Two types on rewards {0, r} where alternating pay beats any static:
    type 1 nearly never leaves, type 2 leaves unless paid."""
    rewards = RewardSet((0.0, float(r)))
    t1 = WorkerType(lam=0.1, departure=Tabulated(rewards.values, (0.1, 0.0)))
    t2 = WorkerType(lam=1.0, departure=Tabulated(rewards.values, (1.0, 0.5)))
    return MarketInstance(
        rewards=rewards,
        types=(t1, t2),
        revenue=LinearRev(alpha=alpha),
        eps_noisy_mode=True,
    )


def prop5_policy(r: float = 1.0) -> Cyclic:
    rewards = (0.0, float(r))
    pay_r = RewardDistribution.point_mass(rewards, float(r))
    pay_0 = RewardDistribution.point_mass(rewards, 0.0)
    return Cyclic((pay_r, pay_0))


def _noisy(lambdas: tuple, values: tuple, eps: float, revenue) -> NoisyInstance:
    """Noisy-entry instance on rewards [0, 100]."""
    return NoisyInstance(lambdas=lambdas, values=values, epsilon=eps, revenue=revenue, r_min=0.0, r_max=100.0)


def noisy_sqrt_instance(eps: float = 5.0) -> NoisyInstance:
    return _noisy((10.0,), (25.0,), eps, Power(c=250.0, beta=0.5))


def noisy_newsvendor_instance(eps: float = 5.0, alpha: float = 40.0, cap: float = 300.0) -> NoisyInstance:
    return _noisy((10.0,), (25.0,), eps, Newsvendor(alpha=alpha, cap=cap))


def double_threshold_instance(cap: float, eps: float = 1.0, alpha: float = 40.0) -> NoisyInstance:
    return _noisy((10.0 / 3.0,) * 3, (25.0, 30.0, 40.0), eps, Newsvendor(alpha=alpha, cap=cap))


def normal_policy(mu: float, sigma: float, rewards) -> RewardDistribution:
    """Normal(mu, sigma^2) pay discretized onto the grid.

    Cell boundaries are the midpoints between consecutive rewards and the
    outermost cells absorb the tails, so the weights always sum to one; a
    zero sigma degenerates to a point mass on the nearest reward.
    """
    if isinstance(rewards, RewardSet):
        rewards = rewards.values
    rs = tuple(float(r) for r in rewards)
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        nearest = min(rs, key=lambda r: (abs(r - mu), r))
        return RewardDistribution.point_mass(rs, nearest)

    def cdf(z: float) -> float:
        return 0.5 * (1.0 + math.erf((z - mu) / (sigma * math.sqrt(2.0))))

    cuts = [0.0] + [cdf(0.5 * (a + b)) for a, b in zip(rs, rs[1:])] + [1.0]
    ws = [b - a for a, b in zip(cuts, cuts[1:])]
    top = max(range(len(ws)), key=ws.__getitem__)
    ws[top] = 0.0
    ws[top] = 1.0 - math.fsum(ws)  # force an exact unit total
    return RewardDistribution.on(rs, ws)


# --------------------------------------------------------------------------
# Experiment registry

Panel = tuple[list[str], list[list]]


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    output_dir: Union[str, Path] = "."


# float_range's cap on (stop - start) / step: 1000 times the longest default grid (101 points)
MAX_RANGE_POINTS = 100_000


def float_range(start: float, step: float, stop: float, names: Sequence[str]) -> list[float]:
    """start + k*step for k = 0, 1, ... while it stays within stop (+1e-9),
    each rounded to 12 decimals.

    names label start, step and stop in the ValueError raised unless all
    three are finite, the step is positive and (stop - start) / step is at
    most MAX_RANGE_POINTS.
    """
    for name, v in zip(names, (start, step, stop)):
        _require_number(name, v)
    if step <= 0.0:
        raise ValueError(f"{names[1]} must be positive, got {step!r}")
    if (stop - start) / step > MAX_RANGE_POINTS:
        raise ValueError(
            f"{names[1]} {step!r} gives more than {MAX_RANGE_POINTS} points from {start!r} to {stop!r}"
        )
    out = []
    k = 0
    while start + k * step <= stop + 1e-9:
        out.append(round(start + k * step, 12))
        k += 1
    return out


def _supply(worker: WorkerType, rate: float, mu: float) -> float:
    """worker's fluid supply at departure rate `rate` under pay of mean mu, by
    fluid_supply's rule: a rate below MIN_DEPARTURE_FLOOR raises DegenerateSupply."""
    if rate < MIN_DEPARTURE_FLOOR:
        raise DegenerateSupply(f"expected departure vanishes at mu={mu!r}; fluid supply is unbounded")
    return worker.lam / rate


def _run_example1(p: dict) -> dict[str, Panel]:
    inst = example1_instance(lam=p["lam"])
    grid = inst.rewards
    worker = inst.types[0]
    rows = []
    for mu in float_range(p["mu_lo"], p["mu_step"], p["mu_hi"], ("mu_lo", "mu_step", "mu_hi")):
        rates = (float(worker.departure.rate(mu)),  # fixed wage, lottery, normal pay
                 expected_departure(worker, lottery_distribution(grid.r_min, mu, p["sigma"])),
                 expected_departure(worker, normal_policy(mu, p["sigma"], grid)))
        rows.append([mu] + [_supply(worker, rate, mu) for rate in rates])
    return {"data": (["mu", "fixed_wage", "lottery", "normal"], rows)}


def _check_example1(p: dict, panels: dict[str, Panel]) -> list[str]:
    rows = panels["data"][1]
    cross = None
    for mu, fixed, _, normal in rows:
        if fixed >= normal:
            cross = mu
            break
    if cross is None:
        return ["fixed wage never overtakes the normal policy"]
    if not 20.0 <= cross <= 26.0:
        return [f"fixed-vs-normal crossover at mu={cross}, expected within [20, 26]"]
    return []


def _loss_study(inst: MarketInstance, p: Mapping) -> list[LossRow]:
    """Additive loss of the fluid, fixed-wage and lottery static policies
    across the scales p["thetas"], with fig_additive_loss's parameters
    (mu and sigma of the lottery, reps, measure, seed) and an optional
    p["burn_in"]: by default the largest of the policies' default_burn_in."""
    policies = [
        ("fluid", Static(solve_fluid(inst).x)),
        ("fixed_wage", Static(optimal_fixed_wage(inst)[1].x)),
        ("lottery", Static(lottery_for_instance(inst, p["mu"], p["sigma"])[0])),
    ]
    burn = p.get("burn_in")
    if burn is None:
        burn = max(default_burn_in(inst, pol) for _, pol in policies)
    cfg = SimConfig(
        theta=1,
        periods=burn + int(p["measure"]),
        burn_in=burn,
        replications=int(p["reps"]),
        seed=int(p["seed"]),
    )
    return additive_loss_sweep(inst, policies, [int(t) for t in p["thetas"]], cfg)


def _run_additive_loss(p: dict) -> dict[str, Panel]:
    rows = _loss_study(canonical_instance(), p)
    labels = list(dict.fromkeys(row.policy for row in rows))
    by_theta: dict[int, dict[str, tuple[float, float]]] = {}
    for row in rows:
        by_theta.setdefault(row.theta, {})[row.policy] = (row.loss, row.se)
    header = ["theta"]
    for label in labels:
        header += [f"loss_{label}", f"se_{label}"]
    out = []
    for theta in sorted(by_theta):
        line: list = [theta]
        for label in labels:
            loss, se = by_theta[theta][label]
            line += [loss, se]
        out.append(line)
    return {"data": (header, out)}


def _check_additive_loss(p: dict, panels: dict[str, Panel]) -> list[str]:
    header, rows = panels["data"]
    first, last = rows[0], rows[-1]
    col = {name: k for k, name in enumerate(header)}
    fails = []
    if not last[col["loss_fluid"]] < first[col["loss_fluid"]]:
        fails.append("fluid-policy loss did not decrease across the theta grid")
    for label in ("fixed_wage", "lottery"):
        loss, se = last[col[f"loss_{label}"]], last[col[f"se_{label}"]]
        if not loss > 2.0 * se:
            fails.append(f"{label} loss at the largest theta is not bounded away from zero")
    return fails


def _run_risk(p: dict) -> dict[str, Panel]:
    rows = []
    for comp in p["compositions"]:
        inst = mixture_instance(comp)
        out = solve_fluid(inst)
        supp = out.x.support()
        r_low, r_high = supp[0][0], supp[-1][0]
        w_high = supp[-1][1] if len(supp) == 2 else 1.0
        label = classify_dispersion(out.x, inst.rewards).value
        rows.append(
            list(comp)
            + [r_low, r_high, w_high, out.expected_reward, out.total_supply, out.profit, label]
        )
    header = [
        "lambda1",
        "lambda2",
        "lambda3",
        "r_low",
        "r_high",
        "weight_high",
        "expected_reward",
        "supply",
        "profit",
        "dispersion",
    ]
    return {"data": (header, rows)}


def _check_risk(p: dict, panels: dict[str, Panel]) -> list[str]:
    rows = panels["data"][1]
    fails = []
    for row in rows:
        if row[0] > 0 and row[1] == 0 and row[2] == 0 and row[-1] != "minimal":
            fails.append(f"pure convex-departure market classified {row[-1]}, expected minimal")
    return fails


def _run_normal_variance(p: dict) -> dict[str, Panel]:
    inst = example3_instance(lam=p["lam"], alpha=p["alpha"], cap=p["cap"])
    sigmas = float_range(0.0, p["sigma_step"], p["sigma_max"], ("sigma start", "sigma_step", "sigma_max"))
    header = ["sigma"] + [f"profit_mu{int(mu)}" for mu in p["mus"]]
    rows = []
    for s in sigmas:
        line = [s]
        for mu in p["mus"]:
            x = normal_policy(mu, s, inst.rewards)
            n = _supply(inst.types[0], expected_departure(inst.types[0], x), mu)
            line.append(float(inst.revenue.value(n)) - expected_reward(x) * n)
        rows.append(line)
    return {"data": (header, rows)}


def _check_normal_variance(p: dict, panels: dict[str, Panel]) -> list[str]:
    header, rows = panels["data"]
    col = header.index("profit_mu30")
    profits = [row[col] for row in rows]
    fails = []
    if not profits[-1] > profits[0]:
        fails.append("profit at mu=30 did not rise with the pay spread")
    if any(b < a - 1e-9 for a, b in zip(profits, profits[1:])):
        fails.append("profit at mu=30 is not non-decreasing in sigma")
    return fails


def _curve_panel(curve) -> Panel:
    header = ["eps", "x_star", "profit", "surplus", "welfare", "rational", "myopic"]
    rows = [
        [e, x, pr, su, w, ra, my]
        for e, x, pr, su, w, ra, my in zip(
            curve.eps, curve.x_star, curve.profit, curve.surplus,
            curve.welfare, curve.rational, curve.myopic,
        )
    ]
    return header, rows


def _run_noisy_metrics(p: dict) -> dict[str, Panel]:
    eps = float_range(p["eps_lo"], p["eps_step"], p["eps_hi"], ("eps_lo", "eps_step", "eps_hi"))
    news = surplus_curve(noisy_newsvendor_instance(alpha=p["alpha"], cap=p["cap"]), eps)
    sqrt = surplus_curve(noisy_sqrt_instance(), eps)
    return {"newsvendor": _curve_panel(news), "sqrt": _curve_panel(sqrt)}


def _check_noisy_metrics(p: dict, panels: dict[str, Panel]) -> list[str]:
    fails = []
    header, rows = panels["newsvendor"]
    welfare = header.index("welfare")
    phase = p["alpha"] - 25.0
    for row in rows:
        if row[0] <= phase and abs(row[welfare] - (p["alpha"] - 25.0) * p["cap"]) > 1e-9:
            fails.append(f"newsvendor welfare off its plateau at eps={row[0]}")
            break
    header, rows = panels["sqrt"]
    xs = [row[header.index("x_star")] for row in rows]
    if any(b > a + 1e-12 for a, b in zip(xs, xs[1:])):
        fails.append("sqrt-revenue retained mass is not non-increasing in eps")
    return fails


def _run_double_threshold(p: dict) -> dict[str, Panel]:
    eps = list(np.linspace(p["eps_lo"], p["eps_hi"], int(p["n_eps"])))
    panels: dict[str, Panel] = {}
    cross_rows = []
    for cap in p["caps"]:
        curve = surplus_curve(double_threshold_instance(float(cap), alpha=p["alpha"]), eps)
        panels[f"cap{int(cap)}"] = _curve_panel(curve)
        report = detect_double_threshold(
            list(zip(curve.eps, curve.rational)),
            list(zip(curve.eps, curve.myopic)),
            rel_tol=p["rel_tol"],
        )
        cross_rows.append(
            [int(cap), report.count, ";".join(repr(l) for l in report.locations)]
        )
    panels["crossovers"] = (["cap", "count", "locations"], cross_rows)
    return panels


def _check_double_threshold(p: dict, panels: dict[str, Panel]) -> list[str]:
    fails = []
    for row in panels["crossovers"][1]:
        if row[0] in (50, 75, 100) and row[1] != 2:
            fails.append(f"cap={row[0]}: {row[1]} crossovers, expected 2")
    return fails


def _run_prop5(p: dict) -> dict[str, Panel]:
    inst = prop5_instance(r=p["r"], alpha=p["alpha_over_r"] * p["r"])
    cyc = prop5_policy(r=p["r"])
    states = cyclic_steady_state(inst, cyc)
    profit = cyclic_profit(inst, cyc)
    pays = [p["r"], 0.0]
    cycle_rows = [
        [t + 1, pays[t], float(states[t, 0]), float(states[t, 1]), float(states[t].sum())]
        for t in range(2)
    ]
    exp_rows = []
    for i in range(2):
        x = experienced_distribution(inst, cyc, i)
        exp_rows.append([i + 1, x.weight_at(0.0), x.weight_at(p["r"])])
    audit = fairness_audit(inst, cyc, tau=2, horizon=200)
    static = turnover_profit(inst, 0.0)
    summary = [[profit, static, profit - static, audit.max_gap]]
    return {
        "cycle": (["period", "pay", "supply_type1", "supply_type2", "total"], cycle_rows),
        "experienced": (["type", "weight_at_zero", "weight_at_r"], exp_rows),
        "summary": (
            ["cyclic_profit", "pay_zero_profit", "gap", "fairness_gap"],
            summary,
        ),
    }


def _check_prop5(p: dict, panels: dict[str, Panel]) -> list[str]:
    fails = []
    totals = [row[4] for row in panels["cycle"][1]]
    if abs(totals[0] - 2.9) > 1e-9 or abs(totals[1] - 3.5) > 1e-9:
        fails.append(f"cycle totals {totals}, expected (2.9, 3.5)")
    r, a = p["r"], p["alpha_over_r"] * p["r"]
    profit, _, gap, _ = panels["summary"][1][0]
    if abs(profit - (3.2 * a - 1.45 * r)) > 1e-9:
        fails.append(f"cyclic profit {profit}, expected {3.2 * a - 1.45 * r}")
    if gap < 0.02 * r - 1e-12:
        fails.append(f"gap over the pay-zero static is {gap}, expected >= {0.02 * r}")
    return fails


def _run_prop4(p: dict) -> dict[str, Panel]:
    out = belief_based_policy(
        alpha=p["alpha"], v1=p["v1"], v2=p["v2"],
        lambda1=p["cap_d"] / 4.0, lambda2=p["cap_d"] / 2.0, D=p["cap_d"],
    )
    traj = [[t + 1, n, profit] for t, (n, profit) in enumerate(out.trajectory)]
    summary = [[out.profit, out.static_profit, out.gap]]
    return {
        "trajectory": (["period", "population", "profit"], traj),
        "summary": (["belief_profit", "best_static_profit", "gap"], summary),
    }


def _check_prop4(p: dict, panels: dict[str, Panel]) -> list[str]:
    profit, static, gap = panels["summary"][1][0]
    expected = p["alpha"] * p["cap_d"] - p["v1"] * (p["cap_d"] / 4.0)
    fails = []
    if abs(profit - expected) > 1e-9:
        fails.append(f"belief profit {profit}, expected {expected}")
    if abs(gap - (expected - static)) > 1e-9 or gap <= 0.0:
        fails.append(f"gap {gap} vs static {static} is inconsistent")
    return fails


@dataclass(frozen=True)
class _Experiment:
    defaults: dict
    run: Callable[[dict], dict[str, Panel]]
    check: Callable[[dict, dict[str, Panel]], list[str]]


_REGISTRY: dict[str, _Experiment] = {
    "example1": _Experiment(
        defaults={"lam": 10.0, "sigma": 11.2, "mu_lo": 16.0, "mu_hi": 45.0, "mu_step": 0.5},
        run=_run_example1,
        check=_check_example1,
    ),
    "fig_additive_loss": _Experiment(
        defaults={
            "thetas": tuple(2**k for k in range(13)),
            "reps": 200,
            "measure": 300,
            "seed": 20240811,
            "mu": 35.0,
            "sigma": 11.2,
        },
        run=_run_additive_loss,
        check=_check_additive_loss,
    ),
    "fig_risk": _Experiment(
        defaults={"compositions": ((10.0, 0.0, 0.0), (8.0, 1.0, 1.0), (1.0, 8.0, 1.0))},
        run=_run_risk,
        check=_check_risk,
    ),
    "fig_normal_variance": _Experiment(
        defaults={
            "lam": 10.0,
            "alpha": 100.0,
            "cap": 50.0,
            "mus": (25.0, 30.0, 35.0),
            "sigma_max": 20.0,
            "sigma_step": 1.0,
        },
        run=_run_normal_variance,
        check=_check_normal_variance,
    ),
    "fig_noisy_metrics": _Experiment(
        defaults={"eps_lo": 0.25, "eps_hi": 25.0, "eps_step": 0.25, "alpha": 40.0, "cap": 300.0},
        run=_run_noisy_metrics,
        check=_check_noisy_metrics,
    ),
    "fig_double_threshold": _Experiment(
        defaults={
            "eps_lo": 0.25,
            "eps_hi": 25.0,
            "n_eps": 100,
            "alpha": 40.0,
            "caps": (25.0, 50.0, 75.0, 100.0),
            "rel_tol": 0.05,
        },
        run=_run_double_threshold,
        check=_check_double_threshold,
    ),
    "prop5_cyclic": _Experiment(
        defaults={"r": 1.0, "alpha_over_r": 0.7},
        run=_run_prop5,
        check=_check_prop5,
    ),
    "prop4_belief": _Experiment(
        defaults={"alpha": 3.0, "v1": 1.0, "v2": 1.2, "cap_d": 100.0},
        run=_run_prop4,
        check=_check_prop4,
    ),
}

EXPERIMENT_IDS = tuple(sorted(_REGISTRY))


def _lookup(experiment_id: str) -> _Experiment:
    """The registry entry of one experiment; raises UnknownExperiment."""
    if experiment_id not in _REGISTRY:
        raise UnknownExperiment(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENT_IDS)}"
        )
    return _REGISTRY[experiment_id]


def experiment_defaults(experiment_id: str) -> dict:
    """Default parameter map of one experiment (a copy)."""
    return dict(_lookup(experiment_id).defaults)


def _shaped(default, value) -> bool:
    """Whether value is shaped as default: a finite number, not a bool,
    integral where default is an int; or a list of as many such numbers."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and len(value) == len(default) and all(map(_shaped, default, value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or (value.is_integer() if isinstance(default, int) else math.isfinite(value))


def _coerce(name: str, default, value):
    """value for the parameter name of this default, a string parsed (a
    tuple's as the JSON list of its elements). Raises ValueError naming the
    parameter unless every element of a tuple is shaped as the default's."""
    if isinstance(value, str):
        if not isinstance(default, tuple):
            return type(default)(value)
        try:
            value = json.loads(f"[{value}]")
        except ValueError:
            pass  # left a string, which the shape check refuses
    if isinstance(default, tuple):
        if not (isinstance(value, (list, tuple)) and all(_shaped(default[0], v) for v in value)):
            raise ValueError(f"each element of {name} must be shaped like {default[0]!r}: finite "
                             f"numbers, integers where it has them; got {value!r}")
        return tuple(value)
    if isinstance(default, float) and isinstance(value, (int, float)):
        return float(value)
    return value


def _resolve_params(exp: _Experiment, overrides: Mapping[str, object]) -> dict:
    params = dict(exp.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r}; known: {sorted(params)}")
        params[key] = _coerce(key, params[key], value)
    return params


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    # csv writes a float as str(), its shortest repr, like every other value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2")


def _write_svg(path: Path, header: list[str], rows: list[list], title: str) -> None:
    """Line chart of every numeric column against the first column."""
    numeric = [
        k for k in range(len(header))
        if all(isinstance(row[k], (int, float)) for row in rows)
    ]
    if not rows or len(numeric) < 2 or numeric[0] != 0:
        path.write_text('<svg xmlns="http://www.w3.org/2000/svg"/>\n', encoding="utf-8")
        return
    w, h, ml, mr, mt, mb = 640, 420, 64, 16, 28, 40
    xs = [float(row[0]) for row in rows]
    cols = numeric[1:]
    ys = [float(row[k]) for row in rows for k in cols]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 <= 0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 <= 0:
        y0, y1 = y0 - 1.0, y1 + 1.0

    def px(x: float) -> float:
        return ml + (x - x0) / (x1 - x0) * (w - ml - mr)

    def py(y: float) -> float:
        return h - mb - (y - y0) / (y1 - y0) * (h - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<text x="{ml}" y="18" font-family="sans-serif" font-size="13">{title}</text>',
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" stroke="#444"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="#444"/>',
        f'<text x="{ml}" y="{h - 8}" font-family="sans-serif" font-size="11">{x0:.6g}</text>',
        f'<text x="{w - mr}" y="{h - 8}" font-family="sans-serif" font-size="11" text-anchor="end">{x1:.6g}</text>',
        f'<text x="{ml - 6}" y="{h - mb}" font-family="sans-serif" font-size="11" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" font-family="sans-serif" font-size="11" text-anchor="end">{y1:.6g}</text>',
    ]
    for j, k in enumerate(cols):
        color = _PALETTE[j % len(_PALETTE)]
        pts = " ".join(f"{px(float(row[0])):.2f},{py(float(row[k])):.2f}" for row in rows)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = mt + 14 * (j + 1)
        parts.append(f'<line x1="{w - mr - 130}" y1="{ly}" x2="{w - mr - 110}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{w - mr - 104}" y="{ly + 4}" font-family="sans-serif" font-size="11">{header[k]}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


@functools.cache
def _git_describe() -> str:
    """The checkout's `git describe`, asked once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_experiment(spec: ExperimentSpec, run_checks: bool = False) -> dict:
    """Run one experiment and write its panels and manifest to output_dir.

    Returns the manifest. With run_checks=True the manifest also carries the
    experiment's self-check failures (empty means all held).
    """
    exp = _lookup(spec.id)
    params = _resolve_params(exp, spec.overrides)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    panels = exp.run(params)
    files = []
    for name, (header, rows) in panels.items():
        csv_name = "data.csv" if len(panels) == 1 else f"{name}.csv"
        svg_name = "plot.svg" if len(panels) == 1 else f"{name}.svg"
        _write_csv(out_dir / csv_name, header, rows)
        _write_svg(out_dir / svg_name, header, rows, f"{spec.id}: {name}")
        files += [csv_name, svg_name]
    manifest = {
        "experiment": spec.id,
        "parameters": {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()},
        "seed": params.get("seed"),
        "git": _git_describe(),
        "wall_time_s": round(time.perf_counter() - started, 3),
        "files": files,
    }
    if run_checks:
        manifest["check_failures"] = exp.check(params, panels)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
