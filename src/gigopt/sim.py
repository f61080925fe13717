"""Stochastic market simulator.

One step loop, _steps, runs the market. Each period: Poisson arrivals join
per type, every present worker draws a reward cell from the period's
distribution (multinomial), then workers depart cell-wise with the reward's
departure probability (binomial thinning). simulate records profit from the
post-arrival population of every period; occupancy_samples reads its total
in period burn_in + 1 under a static policy. Scales whose expected occupancy
could overflow int64 are rejected.

Expected pay reads the policy engine's expected rewards (policies._rate_rows),
the bits fluid_trajectory reads; only the draws read weights and cell rates.
The occupancy bound and default_burn_in's fallback read the policy engine's
cycle rule (policies._cycle), which alone decides whether a policy mixes;
one simulate builds the policy's rate table once, for its pay and its bound.
Tables of replications x types or paid cells are capped like every table
whose size the input sets (market._check_table).

Cells that no distribution of the policy pays are never drawn: numpy's
binomial spends no randomness on a draw with n = 0 or p = 0, and its
multinomial hands the last cell the remainder without a draw, so dropping
every unpaid cell but the last leaves the random stream, and every count,
exactly as the full-width draw makes them. Drawn pay sums fewer products, so
on grids where those products are not exact in float64 it may round
differently in the last bits.

All replications advance in lockstep as vectorized arrays, drawing from a
single generator seeded from the config, so results are bit-identical for
identical inputs regardless of platform thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .fluid import solve_fluid
from .market import MarketInstance, RewardDistribution, _check_table
from .policies import NonMixing, Policy, Static, _cycle, _rate_rows, period_index

__all__ = [
    "ConfigError",
    "SimConfig",
    "SimTrace",
    "SimResult",
    "LossRow",
    "default_burn_in",
    "simulate",
    "occupancy_samples",
    "additive_loss_sweep",
]


class ConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    theta: int  # market scale multiplying every arrival rate
    periods: int  # total simulated periods, burn-in included
    burn_in: int  # leading periods excluded from every average
    replications: int
    seed: int
    realized_cost: bool = False  # record drawn payments instead of expected pay
    record_trace: bool = False  # keep the full path of replication 0

    def __post_init__(self) -> None:
        for name in ("theta", "burn_in", "periods", "replications"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.theta < 1:
            raise ConfigError("theta must be a positive integer")
        if self.burn_in < 0 or self.periods <= self.burn_in:
            raise ConfigError("need periods > burn_in >= 0")
        if self.replications < 1:
            raise ConfigError("need at least one replication")


@dataclass(frozen=True)
class SimTrace:
    """Full path of one replication (all periods, burn-in included)."""

    supply: np.ndarray  # (T, K) post-arrival populations
    arrivals: np.ndarray  # (T, K)
    departures: np.ndarray  # (T, K)
    profit: np.ndarray  # (T,)


@dataclass(frozen=True)
class SimResult:
    mean_profit: float
    std_error: float
    mean_supply: tuple[float, ...]  # per-type post-arrival average
    mean_supply_total: float
    replications: int
    theta: int
    trace: SimTrace | None


def _engine(read, inst: MarketInstance, policy: Policy, *args):
    """read(inst, policy, *args) from the policy engine, its refusals as ConfigError."""
    try:
        return read(inst, policy, *args)
    except TypeError as exc:
        raise ConfigError(f"{exc}; evaluate it with the policy engine") from None
    except NonMixing:
        raise ConfigError("policy never mixes: some type would sit forever") from None


def _pay_and_stay(inst: MarketInstance, policy: Policy, periods: int):
    """(D,) expected rewards of the policy's distributions and each type's
    occupancy bound in periods: a worker stays at most periods, and on
    average at most tau periods for each cycle it enters, tau / (1 - its
    survival over one). One rate table serves both."""
    try:
        rates, rhats, _, survival = _cycle(inst, policy)
    except NonMixing:
        return _rate_rows(inst, policy)[1], np.full(inst.K, float(periods))
    return rhats, np.minimum(len(rates) / (1.0 - survival), periods)


def _steps(inst: MarketInstance, policy: Policy, theta: int, R: int, periods: int, seed: int, realized: bool):
    """The market's period loop over R lockstep replications. Yields each
    period's post-arrival state before the departures leave: (n, arrivals,
    departures, rhat, paid), with rhat the expected pay per worker and paid
    the drawn pay per replication (None unless realized); the draws read the
    distributions' weights and the types' rates on their shared domain."""
    rhats, stay = _engine(_pay_and_stay, inst, policy, periods)
    dom = policy.distributions[0].rewards
    rewards, rows = np.asarray(dom), np.array([x.weights for x in policy.distributions])
    on_grid = dom == inst.rewards.values
    mat = inst.departure_matrix if on_grid else np.array([t.departure.rate(rewards) for t in inst.types])
    if theta * float(inst.lambdas @ stay) > 2.0**62:
        raise ConfigError(f"theta {theta} lets the expected occupancy overflow int64")
    K, lam = inst.K, inst.lambdas * theta
    # draw only the cells some distribution pays, and always the last one
    paid_cells = (rows > 0.0).any(axis=0)
    paid_cells[-1] = True
    rewards, rows, mat = rewards[paid_cells], rows[:, paid_cells], mat[:, paid_cells]
    _check_table("replications", R, max(K, len(rewards)))
    rng = np.random.default_rng(seed)
    n = np.zeros((R, K), dtype=np.int64)
    for t in range(1, periods + 1):
        arrivals = rng.poisson(lam, size=(R, K))
        n += arrivals
        k = period_index(policy, t)
        departures = np.empty((R, K), dtype=np.int64)
        paid = np.zeros(R) if realized else None
        for i in range(K):
            cells = rng.multinomial(n[:, i], rows[k])
            departures[:, i] = rng.binomial(cells, mat[i]).sum(axis=1)
            if paid is not None:
                paid += cells @ rewards
        yield n, arrivals, departures, rhats[k], paid
        n -= departures


def default_burn_in(inst: MarketInstance, policy: Policy) -> int:
    """Roughly ten mixing times.

    Uses the slowest departure rate at the top reward; when a departure
    function vanishes there (flagged instances) it falls back to the slowest
    type's mean rate over the policy's repeating cycle (policies._cycle).
    """
    rate = float(inst.departure_matrix[:, -1].min())
    if rate < 1e-9:
        rate = float(_engine(_cycle, inst, policy)[2].min())  # the mean rates
    return math.ceil(10.0 / rate)


def simulate(inst: MarketInstance, policy: Policy, cfg: SimConfig) -> SimResult:
    """Run the market and average per-period profit after burn-in.

    Profit in period t is R(N(t)/theta) minus the per-period pay, both in
    fluid units; pay is the expected cost r_hat(x(t)) * N(t)/theta unless
    cfg.realized_cost asks for the drawn payments.
    """
    K, R = inst.K, cfg.replications
    measured = cfg.periods - cfg.burn_in
    _check_table("replications", R, K)
    profit_acc = np.zeros(R)
    supply_acc = np.zeros((R, K))
    if cfg.record_trace:
        tr_n, tr_a, tr_d = (np.empty((cfg.periods, K), dtype=np.int64) for _ in range(3))
        tr_p = np.empty(cfg.periods)

    steps = _steps(inst, policy, cfg.theta, R, cfg.periods, cfg.seed, cfg.realized_cost)
    for t, (n, arrivals, departures, rhat, paid) in enumerate(steps, 1):
        scaled = n.sum(axis=1) / cfg.theta
        pay = paid / cfg.theta if paid is not None else rhat * scaled
        profit = np.asarray(inst.revenue.value(scaled)) - pay
        if t > cfg.burn_in:
            profit_acc += profit
            supply_acc += n
        if cfg.record_trace:
            tr_n[t - 1] = n[0]
            tr_a[t - 1] = arrivals[0]
            tr_d[t - 1] = departures[0]
            tr_p[t - 1] = profit[0]

    rep_means = profit_acc / measured
    mean_profit = float(rep_means.mean())
    se = float(rep_means.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    per_type = supply_acc.mean(axis=0) / measured
    trace = SimTrace(supply=tr_n, arrivals=tr_a, departures=tr_d, profit=tr_p) if cfg.record_trace else None
    return SimResult(
        mean_profit=mean_profit,
        std_error=se,
        mean_supply=tuple(float(v) for v in per_type),
        mean_supply_total=float(per_type.sum()),
        replications=R,
        theta=cfg.theta,
        trace=trace,
    )


def occupancy_samples(
    inst: MarketInstance,
    x: RewardDistribution,
    theta: int,
    n_samples: int,
    burn_in: int,
    seed: int,
) -> np.ndarray:
    """Independent draws of the total post-arrival occupancy after burn_in
    periods under a static policy, one per replication: period burn_in + 1
    of the simulator's step loop."""
    cfg = SimConfig(theta, burn_in + 1, burn_in, n_samples, seed)
    steps = _steps(inst, Static(x), cfg.theta, cfg.replications, cfg.periods, cfg.seed, False)
    for _ in range(burn_in):
        next(steps)
    return next(steps)[0].sum(axis=1)


@dataclass(frozen=True)
class LossRow:
    policy: str
    theta: int
    loss: float  # fluid-optimal profit minus simulated average profit
    se: float
    reps: int


def additive_loss_sweep(
    inst: MarketInstance,
    policies: Sequence[tuple[str, Policy]],
    thetas: Sequence[int],
    cfg: Union[SimConfig, Mapping[int, SimConfig]],
) -> list[LossRow]:
    """Simulated additive loss against the fluid optimum, per policy and
    scale. Each (theta, policy) cell gets its own seed derived from the base
    seed and the cell coordinates, so partial reruns reproduce exactly.
    """
    pi_star = solve_fluid(inst).profit
    rows: list[LossRow] = []
    for a, theta in enumerate(thetas):
        base = cfg[theta] if isinstance(cfg, Mapping) else cfg
        for b, (label, policy) in enumerate(policies):
            seed = int(np.random.SeedSequence([base.seed, a, b]).generate_state(1, np.uint64)[0])
            cell = replace(base, theta=int(theta), seed=seed)
            res = simulate(inst, policy, cell)
            rows.append(
                LossRow(
                    policy=label,
                    theta=int(theta),
                    loss=pi_star - res.mean_profit,
                    se=res.std_error,
                    reps=cell.replications,
                )
            )
    return rows
