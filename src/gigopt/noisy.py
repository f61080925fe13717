"""Analytics for markets of noisy-entry workers.

A noisy worker with value v and noise level eps departs with probability 1
below v - eps, probability 0 above v + eps, and linearly in between. The
single-type optimum has a closed form (a lottery over {r_min, v + eps});
multi-type curves fall back to the two-support fluid solver on a grid
augmented with the ramp breakpoints.

`noisy_metrics` scores a noise level by five metrics from one supply
vector: profit, worker surplus, welfare, and the surplus rescaled as if
workers entered rationally or myopically, the two curves whose crossings
`detect_double_threshold` counts.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from .fluid import _check_pairs, _kernel_width, solve_fluid_many
from .market import (
    MIN_DEPARTURE_FLOOR,
    DegenerateSupply,
    EpsNoisy,
    MarketInstance,
    Newsvendor,
    Revenue,
    RewardDistribution,
    RewardSet,
    WorkerType,
    _require_finite,
    _require_number,
    expected_departure,
    expected_reward,
    float_field,
    json_object,
    revenue_from_dict,
    revenue_to_dict,
)

__all__ = [
    "AssumptionViolated",
    "InvalidRegime",
    "GridMismatch",
    "NoisyInstance",
    "NoisySolution",
    "MetricCurve",
    "CrossoverReport",
    "market_instance",
    "optimal_noisy",
    "newsvendor_optimal",
    "noisy_metrics",
    "marginal_surplus",
    "surplus_curve",
    "detect_double_threshold",
    "noisy_from_dict",
    "noisy_to_dict",
    "load_noisy",
]

log = logging.getLogger(__name__)


class AssumptionViolated(ValueError):
    """Inputs leave the regime where the closed forms are valid."""


class InvalidRegime(ValueError):
    """Capacity at or below total arrivals: paying anything is pointless."""


class GridMismatch(ValueError):
    """Curves to compare were computed on different epsilon grids."""


@dataclass(frozen=True)
class NoisyInstance:
    lambdas: tuple[float, ...]
    values: tuple[float, ...]
    epsilon: float
    revenue: Revenue
    r_min: float
    r_max: float

    def __post_init__(self) -> None:
        lams = tuple(float(v) for v in self.lambdas)
        vals = tuple(float(v) for v in self.values)
        if len(lams) != len(vals) or not lams:
            raise ValueError("need one arrival rate per worker value")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "values", vals)
        _require_finite(self, "lambdas", "values", "epsilon", "r_min", "r_max")
        if any(l <= 0.0 for l in lams):
            raise ValueError("arrival rates must be positive")
        if not self.r_min < self.r_max:
            raise ValueError("need r_min < r_max")
        if self.r_min < 0.0:
            raise ValueError("rewards must be non-negative")
        if any(not self.r_min < v < self.r_max for v in vals):
            raise ValueError("worker values must lie strictly inside (r_min, r_max)")
        if self.epsilon < 0.0:
            raise ValueError("noise level must be non-negative")

    @property
    def K(self) -> int:
        return len(self.lambdas)

    def with_epsilon(self, eps: float) -> "NoisyInstance":
        return replace(self, epsilon=float(eps))


def market_instance(noisy: NoisyInstance) -> MarketInstance:
    """Grid-based view of a noisy instance for the fluid solver.

    The grid is {r_min, r_max} plus each type's ramp breakpoints v - eps, v,
    v + eps (clipped to the bounds); the two-support theorem then makes the
    pair search over this grid exact up to the breakpoints.
    """
    return _market_instance(noisy, _grid(noisy, noisy.epsilon))


def _market_instance(noisy: NoisyInstance, grid: tuple[float, ...]) -> MarketInstance:
    """market_instance of noisy on its grid, _grid(noisy, noisy.epsilon)."""
    if noisy.epsilon <= 0.0:
        raise AssumptionViolated("grid construction needs a positive noise level")
    types = tuple(WorkerType(lam=l, departure=EpsNoisy(v=v, eps=noisy.epsilon))
                  for l, v in zip(noisy.lambdas, noisy.values))
    return MarketInstance(rewards=RewardSet(grid), types=types, revenue=noisy.revenue, eps_noisy_mode=True)


def _grid(noisy: NoisyInstance, eps: float) -> tuple[float, ...]:
    """market_instance's grid at noise level eps."""
    pts = [noisy.r_min, noisy.r_max]
    for v in noisy.values:
        for p in (v - eps, v, v + eps):
            if noisy.r_min < p < noisy.r_max:
                pts.append(p)
    pts.sort()
    grid = [pts[0]]
    for p in pts[1:]:
        if p - grid[-1] > 1e-12:  # merge breakpoints that collide across types
            grid.append(p)
    return tuple(grid)


@dataclass(frozen=True)
class NoisySolution:
    x_star: float  # mass paid v + eps; the rest gets r_min
    eps0: float  # noise level beyond which paying stops being worthwhile
    distribution: RewardDistribution


def _analytic_slack(noisy: NoisyInstance) -> float:
    v = noisy.values[0]
    return min(v - noisy.r_min, noisy.r_max - v)


def optimal_noisy(noisy: NoisyInstance, tol: float = 1e-12) -> NoisySolution:
    """Single-type optimal lottery over {r_min, v + eps}.

    Valid for smooth strictly concave revenue; the retained mass solves
    R'(lambda / (1 - x)) = v + eps when that has a root, else x = 0, to
    within tol. Raises ValueError unless tol is finite and positive.
    """
    # the bisection below runs while the bracket is wider than tol: forever
    # when tol <= 0, not at all when tol is NaN
    _require_number("tol", tol, "positive")
    if noisy.K != 1:
        raise AssumptionViolated("closed form covers a single worker type")
    lam, v, eps = noisy.lambdas[0], noisy.values[0], noisy.epsilon
    rev = noisy.revenue
    if rev.second_derivative(lam) >= 0.0:
        raise AssumptionViolated("revenue must be smooth and strictly concave")
    slack = _analytic_slack(noisy)
    eps0 = marginal_surplus(rev, v, lam)
    if eps0 > slack + 1e-12:
        raise AssumptionViolated(
            f"non-triviality fails: R'(lambda) - v = {eps0:.6g} exceeds the reward range slack {slack:.6g}"
        )
    if eps > slack + 1e-12:
        raise AssumptionViolated(
            f"noise level {eps:.6g} exceeds the reward range slack {slack:.6g}"
        )
    if eps0 <= eps:
        return NoisySolution(
            x_star=0.0,
            eps0=eps0,
            distribution=RewardDistribution.point_mass((noisy.r_min, noisy.r_max), noisy.r_min),
        )

    def g(x: float) -> float:
        return float(rev.derivative(lam / (1.0 - x))) - (v + eps)

    # g(0) = eps0 - eps > 0 and g -> -(v + eps) as x -> 1; halve 1 - x until
    # the sign flips, then bisect.
    lo, hi = 0.0, 0.5
    for _ in range(200):
        if g(hi) <= 0.0:
            break
        lo, hi = hi, 1.0 - (1.0 - hi) / 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # one float step wide: a smaller tol cannot be met
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return NoisySolution(
        x_star=x,
        eps0=eps0,
        distribution=RewardDistribution.two_point(noisy.r_min, v + eps, x),
    )


def newsvendor_optimal(alpha: float, d: float, lam: float, v: float, eps: float) -> float:
    """Retained mass under capped linear revenue: 1 - lam/d while the noise
    level stays at or below alpha - v, zero beyond. Raises ValueError
    unless all five inputs are finite."""
    for name, value in (("alpha", alpha), ("d", d), ("lam", lam), ("v", v), ("eps", eps)):
        _require_number(name, value)  # a NaN fails no range check below
    if alpha <= 0.0 or lam <= 0.0 or d <= 0.0:
        raise ValueError("alpha, d and lam must be positive")
    if eps < 0.0:
        raise ValueError("noise level must be non-negative")
    if d <= lam:
        raise InvalidRegime("capacity at or below arrivals: never pay above r_min")
    return 1.0 - lam / d if eps <= alpha - v else 0.0


class Metrics(NamedTuple):
    profit: float
    surplus: float
    welfare: float
    rational: float
    myopic: float


def _noisy_supplies(noisy: NoisyInstance, x: RewardDistribution) -> np.ndarray:
    """Per-type fluid supply under the instance's noisy departures.

    Works off the distribution's own support, so lotteries with the high
    point v + eps off any grid are fine.
    """
    if noisy.epsilon <= 0.0:
        raise AssumptionViolated("departure evaluation needs a positive noise level")
    n = np.empty(noisy.K)
    for i, (lam, v) in enumerate(zip(noisy.lambdas, noisy.values)):
        lhat = expected_departure(WorkerType(lam, EpsNoisy(v=v, eps=noisy.epsilon)), x)
        if lhat < MIN_DEPARTURE_FLOOR:
            raise DegenerateSupply(f"type {i} never departs under this distribution; supply is unbounded")
        n[i] = lam / lhat
    return n


def noisy_metrics(noisy: NoisyInstance, x: RewardDistribution) -> Metrics:
    """Five metrics of paying x at the instance's noise level, all from one
    supply vector N: profit R(N) - r_hat N; worker surplus
    sum_i (r_hat - v_i) N_i; welfare R(N) - sum_i v_i N_i, which is profit
    plus surplus; rational, the surplus had only the types whose value r_hat
    covers entered (ties enter), in their arrival proportions, scaled to the
    head count N (0 when none enters); myopic, the surplus weighted by each
    type's retained mass N_i - lambda_i, scaled to N (0 when nobody stays)."""
    return _score(noisy, x, _noisy_supplies(noisy, x))


def _score(noisy: NoisyInstance, x: RewardDistribution, n: np.ndarray) -> Metrics:
    """noisy_metrics of x from its per-type supply vector n."""
    total = float(n.sum())
    rhat = expected_reward(x)
    lam, vals = np.asarray(noisy.lambdas), np.asarray(noisy.values)
    revenue = float(noisy.revenue.value(total))
    entering = rhat >= vals - 1e-12
    rational = 0.0
    if entering.any():
        rational = total * float(np.dot(lam[entering], rhat - vals[entering])) / float(lam[entering].sum())
    excess = n - lam
    denom = float(excess.sum())
    myopic = 0.0
    if denom >= 1e-9 * float(lam.sum()):
        myopic = total * float(np.dot(excess, rhat - vals)) / denom
    elif denom != 0.0:
        log.debug("myopic scaled surplus zeroed: retained excess %.3e is negligible", denom)
    profit = revenue - rhat * total
    surplus = float(np.dot(rhat - vals, n))
    welfare = revenue - float(np.dot(noisy.values, n))
    return Metrics(profit, surplus, welfare, rational, myopic)


def marginal_surplus(revenue: Revenue, v: float, u: float) -> float:
    """Net marginal revenue S(u) = R'(u) - v of one extra retained worker."""
    return float(revenue.derivative(u)) - v


@dataclass(frozen=True)
class MetricCurve:
    eps: tuple[float, ...]
    x_star: tuple[float, ...]
    profit: tuple[float, ...]
    surplus: tuple[float, ...]
    welfare: tuple[float, ...]
    rational: tuple[float, ...]
    myopic: tuple[float, ...]
    eps0: float | None  # None for multi-type instances (no closed form)
    eps1: float  # last grid point before the surplus starts decreasing


def _closed_form_at(at: NoisyInstance) -> tuple[float, RewardDistribution]:
    """Retained mass and optimal distribution of a single-type instance."""
    eps, rev = at.epsilon, at.revenue
    if isinstance(rev, Newsvendor):
        x = newsvendor_optimal(rev.alpha, rev.cap, at.lambdas[0], at.values[0], eps)
        if x <= 0.0:
            return 0.0, RewardDistribution.point_mass((at.r_min, at.r_max), at.r_min)
        return x, RewardDistribution.two_point(at.r_min, at.values[0] + eps, x)
    sol = optimal_noisy(at)
    return sol.x_star, sol.distribution


def surplus_curve(noisy: NoisyInstance, eps_grid: Sequence[float]) -> MetricCurve:
    """Optimal-lottery metrics across a grid of noise levels.

    Single-type instances use the closed forms; multi-type instances solve
    the fluid problem on the augmented grid of every noise level in one
    batched solve_fluid_many call and score each level from its winner's
    supply, after sizing its pair tables from the levels' grids alone.
    """
    eps = [float(e) for e in eps_grid]
    if len(eps) < 2:
        raise ValueError("need at least two grid points")
    if any(e <= 0.0 for e in eps):
        raise ValueError("noise levels must be positive")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("noise grid must be strictly increasing")
    if noisy.K > 1:
        grids = [_grid(noisy, e) for e in eps]
        _check_pairs(np.array([len(grid) for grid in grids]), _kernel_width(noisy.K))
    ats = [noisy.with_epsilon(e) for e in eps]
    if noisy.K == 1:
        solved = [_closed_form_at(at) for at in ats]
        metrics = [noisy_metrics(at, dist) for at, (_, dist) in zip(ats, solved)]
    else:
        outs = solve_fluid_many([_market_instance(at, grid) for at, grid in zip(ats, grids)])
        solved = [(min(1.0, max(0.0, 1.0 - out.x.weight_at(at.r_min))), out.x) for at, out in zip(ats, outs)]
        # each winner's supply is lambda / l_hat on the level's own ramps,
        # the vector _noisy_supplies would compute again
        metrics = [_score(at, out.x, np.array(out.supply_per_type)) for at, out in zip(ats, outs)]
    columns = dict(zip(Metrics._fields, map(tuple, zip(*metrics))))
    eps0: float | None = None
    if noisy.K == 1:
        eps0 = marginal_surplus(noisy.revenue, noisy.values[0], noisy.lambdas[0])
    eps1 = eps[-1]
    surplus = columns["surplus"]
    for k, (a, b) in enumerate(zip(surplus, surplus[1:])):
        if b - a < -1e-9:
            eps1 = eps[k]
            break
    return MetricCurve(
        eps=tuple(eps), x_star=tuple(x for x, _ in solved), **columns, eps0=eps0, eps1=eps1
    )


@dataclass(frozen=True)
class CrossoverReport:
    count: int
    locations: tuple[float, ...]


def _curve_arrays(curve: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    eps = np.array([float(e) for e, _ in curve])
    val = np.array([float(v) for _, v in curve])
    return eps, val


def detect_double_threshold(
    curve_rational: Sequence[tuple[float, float]],
    curve_myopic: Sequence[tuple[float, float]],
    rel_tol: float = 0.05,
) -> CrossoverReport:
    """Count crossings of the myopic curve over the rational one.

    A crossing is a sign change of the difference; runs where both curves
    agree (to numerical tolerance) bridge the surrounding sign, except that a
    terminal agreement run after any disagreement counts as one final
    crossing (the curves collapse onto each other). Consecutive crossings
    whose curves stay within rel_tol of each other in between merge into one.
    Raises ValueError unless rel_tol is finite and non-negative.
    """
    _require_number("rel_tol", rel_tol, "non-negative")
    e1, ra = _curve_arrays(curve_rational)
    e2, my = _curve_arrays(curve_myopic)
    if e1.shape != e2.shape or not np.allclose(e1, e2, rtol=0.0, atol=1e-12):
        raise GridMismatch("curves were sampled on different noise grids")
    d = my - ra
    scale = max(float(np.abs(ra).max()), float(np.abs(my).max()))
    tiny = 1e-9 * max(1.0, scale)
    states = np.where(np.abs(d) <= tiny, 0, np.sign(d)).astype(int)

    flips: list[int] = []  # index where the new sign first holds
    last = 0
    last_idx = -1
    for k, s in enumerate(states):
        if s == 0:
            continue
        if last != 0 and s != last:
            flips.append(k)
        last, last_idx = s, k

    def close(j: int) -> bool:
        return abs(d[j]) <= rel_tol * max(abs(ra[j]), abs(my[j]), tiny)

    merged: list[int] = []
    for f in flips:
        if merged and all(close(j) for j in range(merged[-1], f)):
            continue  # excursion never separated: same crossover
        merged.append(f)

    locations = [float(e1[k]) for k in merged]
    if last != 0 and last_idx < len(states) - 1:
        locations.append(float(e1[last_idx + 1]))  # curves collapse together
    return CrossoverReport(count=len(locations), locations=tuple(locations))


def noisy_from_dict(d: dict) -> NoisyInstance:
    d = json_object("noisy instance", d)

    def field(name: str, many: bool = False):
        return float_field("noisy instance", name, d.get(name), many)

    return NoisyInstance(
        lambdas=field("lambdas", many=True),
        values=field("values", many=True),
        epsilon=field("epsilon"),
        revenue=revenue_from_dict(d.get("revenue")),
        r_min=field("r_min"),
        r_max=field("r_max"),
    )


def noisy_to_dict(noisy: NoisyInstance) -> dict:
    return {
        "lambdas": list(noisy.lambdas),
        "values": list(noisy.values),
        "epsilon": noisy.epsilon,
        "revenue": revenue_to_dict(noisy.revenue),
        "r_min": noisy.r_min,
        "r_max": noisy.r_max,
    }


def load_noisy(path: Union[str, Path]) -> NoisyInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return noisy_from_dict(json.load(fh))
