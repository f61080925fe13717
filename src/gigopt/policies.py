"""Deterministic policy engine: fluid trajectories, cyclic steady states,
experienced reward distributions, fairness audits, and the belief-based
retention policy.

Periods are 1-based everywhere; the population in period t is the survivors
of period t-1 plus the period-t arrivals, and the payment drawn in period t
applies to that whole population. Every policy that pays from
distributions repeats policy.distributions from period 1, so period t pays
entry (t - 1) mod tau. That rule lives here only: period_index reads it for
one period (the simulator reads that too) and _schedule for a whole horizon.
Mixture departure rates and expected rewards are built once per
distribution (_rate_rows), never per period, from the instance's departure
table when the distribution is on its grid; the simulator reads them too.

One pass over a policy's repeating cycle (_cycle) alone decides whether a
policy mixes; the cyclic closed forms, the fairness audit's default start and
the simulator's default burn-in fallback read it.

One windowed-mix rule (_window_mixes) builds every experienced distribution,
each type's supply-weighted mix of its pay over a window of tau periods, for
all windows in tau array passes over the period offsets; the fairness audit
and the cyclic experienced distributions read it, and _gaps takes their L1
gaps. Each denominator is its window's own sum: a running sum over the
offsets rounds differently.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .fluid import solve_fluid
from .market import (
    MarketInstance,
    Newsvendor,
    RewardDistribution,
    RewardSet,
    Tabulated,
    WorkerType,
    _MAX_TABLE,
    _check_table,
    _mixture_rates,
    _require_number,
    expected_reward,
    fluid_profit,
)

__all__ = [
    "NonMixing",
    "PreconditionViolated",
    "Static",
    "Cyclic",
    "BeliefBased",
    "Policy",
    "TrajectoryResult",
    "FairnessReport",
    "BeliefOutcome",
    "period_index",
    "fluid_trajectory",
    "cyclic_steady_state",
    "cyclic_profit",
    "experienced_distribution",
    "cyclic_to_static_report",
    "fairness_audit",
    "belief_based_policy",
    "turnover_profit",
]


class NonMixing(ValueError):
    """Some worker type never departs over a full cycle, so no cyclic steady
    state exists."""


class PreconditionViolated(ValueError):
    """The belief-based construction's parameter restrictions fail."""


@dataclass(frozen=True)
class Static:
    """Draw from the same distribution every period."""

    x: RewardDistribution

    @property
    def distributions(self) -> tuple[RewardDistribution, ...]:
        return (self.x,)


@dataclass(frozen=True)
class Cyclic:
    """Rotate through a fixed tuple of distributions (all on one domain)."""

    xs: tuple[RewardDistribution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(self.xs))
        if not self.xs:
            raise ValueError("a cycle needs at least one distribution")
        dom = self.xs[0].rewards
        if any(x.rewards != dom for x in self.xs):
            raise ValueError("all cycle distributions must share one reward domain")

    @property
    def tau(self) -> int:
        return len(self.xs)

    @property
    def distributions(self) -> tuple[RewardDistribution, ...]:
        return self.xs


@dataclass(frozen=True)
class BeliefBased:
    """Pay v1 to everyone while learning who values v1-retention, then pay v1
    to exactly enough known retainers to fill demand D and nothing to anyone
    else. Evaluated by the deterministic engine only."""

    alpha: float
    v1: float
    v2: float
    D: float


Policy = Union[Static, Cyclic, BeliefBased]


def period_index(policy: Policy, t: int) -> int:
    """Position in policy.distributions of the distribution paid in period t:
    the cycle's distributions in turn, round and round. Raises TypeError for
    policies that pay no distribution."""
    if t < 1:
        raise ValueError("periods are 1-based")
    if isinstance(policy, (Static, Cyclic)):
        return (t - 1) % len(policy.distributions)
    if isinstance(policy, BeliefBased):
        raise TypeError("belief-based policies pay per worker state, not from one distribution")
    raise TypeError(f"unknown policy type {type(policy).__name__}")


def _schedule(policy: Policy, horizon: int) -> np.ndarray:
    """period_index of periods 1 ... horizon, as one array."""
    period_index(policy, 1)  # rejects policies without distributions
    return np.arange(horizon) % len(policy.distributions)


@dataclass(frozen=True)
class TrajectoryResult:
    """Fluid dynamics over a finite horizon."""

    supplies: np.ndarray  # (T, K), population of period t in row t-1
    profits: np.ndarray  # (T,)
    tail_average: float  # mean profit over the trailing half of the horizon


def _rate_rows(inst: MarketInstance, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """(D, K) mixture departure rates and (D,) expected rewards, one row per policy distribution."""
    period_index(policy, 1)  # rejects policies without distributions
    xs = policy.distributions
    return (np.array([_mixture_rates(inst, x) for x in xs]),
            np.array([expected_reward(x) for x in xs]))


def fluid_trajectory(
    inst: MarketInstance,
    policy: Policy,
    horizon: int,
    n0: Sequence[float] | None = None,
) -> TrajectoryResult:
    """Iterate the fluid recursion N(t) = N(t-1) * (1 - l_hat(x(t-1))) + lambda.

    n0 is the pre-horizon population (defaults to empty). The reported
    long-run profit averages the trailing half of the horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _check_table("horizon", horizon, inst.K)
    return _trajectory(inst, policy, _schedule(policy, horizon), n0)


def _trajectory(inst: MarketInstance, policy: Policy, idx: np.ndarray, n0) -> TrajectoryResult:
    """fluid_trajectory over the periods whose distributions idx lists (its
    _schedule). Only the recursion runs period by period, one type at a time
    in float arithmetic, which rounds as numpy's elementwise steps do; the
    totals and profits are one array pass after it."""
    K, horizon = inst.K, len(idx)
    n = np.zeros(K) if n0 is None else np.asarray(n0, dtype=float)
    if n.shape != (K,):
        raise ValueError(f"n0 must have {K} entries")
    if not (np.isfinite(n).all() and (n >= 0.0).all()):
        raise ValueError(f"n0 must be finite and non-negative, got {n.tolist()}")
    rates, rhats = _rate_rows(inst, policy)
    # survival factors of the periods that lead into periods 2 ... horizon
    z = (1.0 - rates)[idx[:-1]]
    supplies = np.empty((horizon, K))
    for i, lam in enumerate(inst.lambdas.tolist()):
        step = itertools.accumulate(z[:, i].tolist(), lambda a, zi: a * zi + lam, initial=float(n[i]) + lam)
        supplies[:, i] = list(step)
    totals = supplies.sum(axis=1)
    profits = inst.revenue.value(totals) - rhats[idx] * totals
    window = horizon - horizon // 2
    return TrajectoryResult(
        supplies=supplies, profits=profits, tail_average=float(profits[-window:].mean())
    )


def _cycle(inst: MarketInstance, policy: Policy) -> tuple[np.ndarray, ...]:
    """(tau, K) mixture rates, (tau,) expected rewards, and each type's mean
    rate and survival over the policy's cycle. Raises NonMixing when a type's
    mean rate is below 1e-9 (no turnover in 10^9 periods)."""
    rates, rhats = _rate_rows(inst, policy)
    rate = rates.mean(axis=0)
    if np.any(rate < 1e-9):
        raise NonMixing(f"type(s) {np.flatnonzero(rate < 1e-9).tolist()} never depart over the cycle")
    return rates, rhats, rate, (1.0 - rates).prod(axis=0)


def _cyclic(inst: MarketInstance, cyc: Cyclic):
    """The cycle's rates, steady state (cyclic_steady_state), average profit
    (cyclic_profit), and each type's experienced distribution with the (1, K, m)
    mix it is built from (one window of the cycle's tau periods)."""
    rates, rhats, _, survival = _cycle(inst, cyc)
    z = 1.0 - rates
    run, acc = np.ones_like(z), np.ones_like(z)
    for d in range(1, cyc.tau):
        run = run * np.roll(z, d, axis=0)  # row t times z(t - d), wrapping around
        acc += run
    states = inst.lambdas * acc / (1.0 - survival)
    profit = 0.0
    for t in range(cyc.tau):
        n = float(states[t].sum())
        profit += float(inst.revenue.value(n)) - float(rhats[t]) * n
    mixes = _window_mixes(states, np.array([x.as_array() for x in cyc.xs])[:, None, :], cyc.tau)
    hats = [RewardDistribution(cyc.xs[0].rewards, tuple(row.tolist())) for row in mixes[0]]
    return rates, states, profit / cyc.tau, hats, mixes


def cyclic_steady_state(inst: MarketInstance, cyc: Cyclic) -> np.ndarray:
    """Per-period steady-state populations of a cyclic policy, closed form.

    Row t-1 holds the period-t population (paid with cyc.xs[t-1]):

        N_i(t) = lambda_i * (1 + sum_{d=1}^{tau-1} prod_{j=1}^{d} z_i(t-j))
                 / (1 - prod_{t'=1}^{tau} z_i(t'))

    with z_i(t) = 1 - l_hat_i(x(t)) and wrap-around period indices. Raises
    NonMixing when some type does not mix over the cycle (see _cycle).
    """
    return _cyclic(inst, cyc)[1]


def cyclic_profit(inst: MarketInstance, cyc: Cyclic) -> float:
    """Average per-period steady-state profit of a cyclic policy."""
    return _cyclic(inst, cyc)[2]


def experienced_distribution(inst: MarketInstance, cyc: Cyclic, type_index: int) -> RewardDistribution:
    """Reward distribution a type-i worker experiences over one steady-state
    cycle: the supply-weighted average of the per-period distributions."""
    if not 0 <= type_index < inst.K:
        raise ValueError("type index out of range")
    return _cyclic(inst, cyc)[3][type_index]


def cyclic_to_static_report(inst: MarketInstance, cyc: Cyclic) -> dict:
    """How well anchored static policies replace a cyclic one.

    Reports the steady state, the internal unfairness (max pairwise L1 gap of
    experienced distributions), each anchored static's fluid profit, the
    cyclic profit, and a numerically estimated constant c0 such that every
    anchored static is within eps * c0 of the cyclic profit. The constant is
    an estimate: it samples |R'| over the occupied supply range.
    """
    rates, states, cyc_profit, hats, mixes = _cyclic(inst, cyc)
    eps = float(_gaps(mixes).max())
    anchors = {i: {"x": x, "profit": fluid_profit(inst, x).profit} for i, x in enumerate(hats)}

    n_max = inst.max_fluid_supply()
    if math.isfinite(n_max):
        lo = max(1e-9, 0.5 * float(states.sum(axis=1).min()))
        us = np.linspace(lo, n_max, 513)
        c_rev = max(abs(inst.revenue.derivative(float(u), side="left")) for u in us)
        slope = float((inst.lambdas / float(rates.min()) ** 2).max())
        r_max = inst.rewards.r_max
        c0 = r_max * n_max * inst.K + c_rev * slope * inst.K + r_max * slope * inst.K
    else:
        c0 = math.inf
    worst = max(cyc_profit - anchors[i]["profit"] for i in range(inst.K))
    return {
        "steady_state": states,
        "cyclic_fairness_eps": eps,
        "cyclic_profit": cyc_profit,
        "anchors": anchors,
        "c0": c0,
        "c0_is_estimate": True,
        "bound_holds": bool(worst <= eps * c0 + 1e-9),
    }


@dataclass(frozen=True)
class FairnessReport:
    """Windowed experienced-distribution audit (window length = tau periods)."""

    tau: int
    delta: float
    max_gap: float
    gap_matrix: tuple[tuple[float, ...], ...]
    fair: bool


def _window_sums(a: np.ndarray, tau: int) -> np.ndarray:
    """Each column's sum over every window of tau rows, bit for bit as the 1-D
    a[s:s + tau, j].sum(): summed over contiguous window copies, at most
    _MAX_TABLE entries at a time."""
    windows = np.lib.stride_tricks.sliding_window_view(a, tau, axis=0)
    out = np.empty(windows.shape[:-1])
    step = max(1, _MAX_TABLE // windows[0].size)
    for s in range(0, len(windows), step):
        out[s:s + step] = np.ascontiguousarray(windows[s:s + step]).sum(axis=-1)
    return out


def _window_mixes(supplies: np.ndarray, dists: np.ndarray, tau: int) -> np.ndarray:
    """(T - tau + 1, K, m) mixes, one per window of tau periods, from (T, K)
    supplies and (T, K, m) distributions ((T, 1, m) when all types are paid
    alike). Numerators add the periods in order, as sum(axis=0) does for m > 1;
    for one reward cell it sums like the denominators."""
    den = _window_sums(supplies, tau)[:, :, None]
    paid = supplies[:, :, None] * dists
    if paid.shape[2] == 1:
        return _window_sums(paid, tau) / den
    num = paid[:len(den)].copy()
    for d in range(1, tau):
        num += paid[d:d + len(den)]
    num /= den
    return num


def _gaps(mixes: np.ndarray) -> np.ndarray:
    """(K, K) largest L1 gap between two types' (windows, K, m) mixes."""
    K = mixes.shape[1]
    gaps = np.zeros((K, K))
    for i, j in itertools.combinations(range(K), 2):
        gaps[i, j] = gaps[j, i] = np.abs(mixes[:, i] - mixes[:, j]).sum(axis=1).max()
    return gaps


def _payment_streams(
    inst: MarketInstance, policy: Policy, horizon: int, n0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-type supply weights (T, K) and per-period payment distributions,
    (T, 1, m) shared by all types or (T, K, m), over a shared domain."""
    if isinstance(policy, BeliefBased):
        _check_table("horizon", horizon, 2 * 3)
        return _belief_dynamics(policy, policy.D / 4.0, policy.D / 2.0, horizon)[1:]
    _check_table("horizon", horizon, inst.K * len(policy.distributions[0].rewards))
    idx = _schedule(policy, horizon)
    rows = np.array([x.as_array() for x in policy.distributions])
    return _trajectory(inst, policy, idx, n0).supplies, rows[idx][:, None, :]


def fairness_audit(
    inst: MarketInstance,
    policy: Policy,
    tau: int,
    horizon: int,
    n0: Sequence[float] | None = None,
    delta: float = 0.05,
) -> FairnessReport:
    """Max windowed L1 gap between the supply-weighted reward distributions
    any two types experience, over every window of tau consecutive periods
    that fits in the horizon.

    Cyclic policies default to starting at their steady state, where the
    audit is exact; everything else starts from an empty market unless n0
    says otherwise. A belief-based policy is audited in its own two-type
    market (see _belief_dynamics), whatever inst's types are. Raises
    ValueError unless delta is finite and non-negative.
    """
    if tau < 1 or horizon < tau:
        raise ValueError("need 1 <= tau <= horizon")
    _require_number("delta", delta, "non-negative")
    if n0 is None and isinstance(policy, Cyclic):
        with contextlib.suppress(NonMixing):
            n0 = cyclic_steady_state(inst, policy)[0] - inst.lambdas
    gaps = _gaps(_window_mixes(*_payment_streams(inst, policy, horizon, n0), tau))
    max_gap = float(gaps.max())
    return FairnessReport(
        tau=tau,
        delta=delta,
        max_gap=max_gap,
        gap_matrix=tuple(tuple(float(v) for v in row) for row in gaps),
        fair=bool(max_gap < delta),
    )


# --------------------------------------------------------------------------
# Belief-based retention


@dataclass(frozen=True)
class BeliefOutcome:
    """Deterministic evaluation of the belief-based policy."""

    policy: BeliefBased
    profit: float  # long-run per-period profit
    trajectory: tuple[tuple[float, float], ...]  # (population, profit) per period
    static_profit: float  # best static distribution on {0, v1, v2}
    gap: float  # profit - static_profit
    instance: MarketInstance | None  # the grid instance used for the static benchmark


def _belief_instance(policy: BeliefBased, lambda1: float, lambda2: float) -> MarketInstance:
    rewards = RewardSet((0.0, policy.v1, policy.v2))
    t1 = WorkerType(lambda1, Tabulated(rewards.values, (1.0, 0.0, 0.0)))
    t2 = WorkerType(lambda2, Tabulated(rewards.values, (1.0, 1.0, 0.0)))
    return MarketInstance(
        rewards=rewards,
        types=(t1, t2),
        revenue=Newsvendor(alpha=policy.alpha, cap=policy.D),
        eps_noisy_mode=True,
    )


def _belief_dynamics(policy: BeliefBased, lambda1: float, lambda2: float, horizon: int):
    """Population and profit per period, plus each type's (T, 2) supplies and
    (T, 2, 3) payment weights over (0, v1, v2) for fairness audits.

    Phase 1 pays v1 to everyone until the retained type-1 stock plus fresh
    arrivals covers D; afterwards exactly D - lambda1 - lambda2 retained
    type-1 workers keep receiving v1 and everyone else gets 0.
    """
    alpha, v1, D = policy.alpha, policy.v1, policy.D
    lam = lambda1 + lambda2
    keep = D - lam  # retained stock needed in steady state
    retained = 0.0
    rows = []
    supplies, dists = np.empty((horizon, 2)), np.zeros((horizon, 2, 3))
    for t in range(horizon):
        n, n1 = retained + lam, retained + lambda1
        supplies[t] = n1, lambda2
        if n < D - 1e-12:
            # still learning: pay v1 to the whole population
            rows.append((n, alpha * min(n, D) - v1 * n))
            dists[t, :, 1] = 1.0
            retained = n1  # type-1 workers paid v1 stay
        else:
            rows.append((D, alpha * D - v1 * keep))
            dists[t, 0] = (n1 - keep) / n1, keep / n1, 0.0
            dists[t, 1, 0] = 1.0
            retained = keep
    return rows, supplies, dists


def belief_based_policy(
    alpha: float, v1: float, v2: float, lambda1: float, lambda2: float, D: float
) -> BeliefOutcome:
    """Evaluate the belief-based policy against the best static distribution.

    Requires alpha > 2*v2, 0 < v1 <= v2, lambda1 = D/4 and lambda2 = D/2 (the
    regime where the learning phase lasts exactly one period and the
    stationary profit is alpha*D - v1*(D - lambda1 - lambda2)).
    """
    if D <= 0.0:
        raise PreconditionViolated("D must be positive")
    if not 0.0 < v1 <= v2:
        raise PreconditionViolated("need 0 < v1 <= v2")
    if alpha <= 2.0 * v2:
        raise PreconditionViolated("need alpha > 2 * v2")
    if abs(lambda1 - D / 4.0) > 1e-9 * D or abs(lambda2 - D / 2.0) > 1e-9 * D:
        raise PreconditionViolated("need lambda1 = D/4 and lambda2 = D/2")
    policy = BeliefBased(alpha=alpha, v1=v1, v2=v2, D=D)
    rows = _belief_dynamics(policy, lambda1, lambda2, horizon=12)[0]
    profit = rows[-1][1]
    if v2 > v1:
        inst = _belief_instance(policy, lambda1, lambda2)
        static_profit = solve_fluid(inst).profit
    else:
        # v2 = v1 makes the two types indistinguishable: no belief advantage
        inst = None
        static_profit = profit
    return BeliefOutcome(
        policy=policy,
        profit=profit,
        trajectory=tuple(rows),
        static_profit=static_profit,
        gap=profit - static_profit,
        instance=inst,
    )


def turnover_profit(inst: MarketInstance, r: float) -> float:
    """Profit of paying r when no worker outlasts a single period, so the
    population is exactly the arrival mass."""
    lam = float(inst.lambdas.sum())
    return float(inst.revenue.value(lam)) - r * lam
