"""End-to-end acceptance gate.

One test per release criterion, each printing a single pass/fail line (visible
with -s or -rA) and enforcing its own wall-clock budget. Monte-Carlo criteria
use fixed seeds, so every run is reproducible bit for bit.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from gigopt import (
    Dispersion,
    MarketInstance,
    Newsvendor,
    Power,
    RewardDistribution,
    RewardSet,
    Static,
    Tabulated,
    WorkerType,
    belief_based_policy,
    brute_force_oracle,
    classify_dispersion,
    cyclic_profit,
    cyclic_steady_state,
    experienced_distribution,
    lottery_for_instance,
    objective_lipschitz,
    optimal_fixed_wage,
    solve_fluid,
    turnover_profit,
)
from gigopt.experiments import (
    ExperimentSpec,
    double_threshold_instance,
    example1_instance,
    noisy_newsvendor_instance,
    noisy_sqrt_instance,
    power_variant_instance,
    prop5_instance,
    prop5_policy,
    run_experiment,
    single_type_instance,
)
from gigopt.noisy import detect_double_threshold, optimal_noisy, surplus_curve
from gigopt.sim import SimConfig, additive_loss_sweep, default_burn_in, occupancy_samples, simulate

SEED = 20240815


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget"
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {label}")
        raise
    print(f"[criterion {num:02d}] PASS {label} ({elapsed:.1f}s)")


def _random_instance(rng: np.random.Generator) -> MarketInstance:
    m = int(rng.integers(2, 5))
    while True:
        grid = np.sort(rng.uniform(1.0, 100.0, m))
        if np.diff(grid).min() >= 1e-3:
            break
    rewards = RewardSet(tuple(float(r) for r in grid))
    types = []
    for _ in range(int(rng.integers(1, 4))):
        rates = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
        types.append(
            WorkerType(
                lam=float(rng.uniform(0.5, 5.0)),
                departure=Tabulated(rewards.values, tuple(float(v) for v in rates)),
            )
        )
    if rng.random() < 0.5:
        revenue = Power(c=float(rng.uniform(50.0, 300.0)), beta=float(rng.uniform(0.3, 0.9)))
    else:
        revenue = Newsvendor(alpha=float(rng.uniform(20.0, 100.0)), cap=float(rng.uniform(5.0, 80.0)))
    return MarketInstance(rewards=rewards, types=tuple(types), revenue=revenue)


def test_criterion_01_two_support_optimality():
    with criterion(1, "two-support solver matches the exhaustive oracle", 60.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            inst = _random_instance(rng)
            out = solve_fluid(inst)
            assert len(out.x.support()) <= 2
            oracle = brute_force_oracle(inst, 60)
            tol = 10.0 * objective_lipschitz(inst, 60) / 60.0
            assert out.profit >= oracle.profit - tol


def test_criterion_02_fluid_upper_bound(canon):
    with criterion(2, "simulated profit never beats the fluid optimum", 120.0):
        pi_star = solve_fluid(canon).profit
        rng = np.random.default_rng(SEED)
        for k in range(10):
            x = RewardDistribution.on(canon.rewards, rng.dirichlet(np.ones(46)))
            policy = Static(x)
            burn = default_burn_in(canon, policy)
            for theta in (1, 10, 100):
                res = simulate(
                    canon,
                    policy,
                    SimConfig(
                        theta=theta,
                        periods=burn + 300,
                        burn_in=burn,
                        replications=200,
                        seed=SEED + 1000 * k + theta,
                    ),
                )
                assert res.mean_profit <= pi_star + 3.0 * res.std_error


def test_criterion_03_steady_state_law():
    with criterion(3, "occupancy matches the Poisson steady state (chi-square, 1%)", 30.0):
        inst = example1_instance()
        x = RewardDistribution.point_mass(inst.rewards, 35.0)
        samples = occupancy_samples(inst, x, theta=50, n_samples=5000, burn_in=200, seed=SEED)
        mean = 50.0 * 10.0 / math.exp(-1.4)
        lo = int(mean - 6.0 * math.sqrt(mean))
        hi = int(mean + 6.0 * math.sqrt(mean))
        counts = np.array([(samples == v).sum() for v in range(lo, hi + 1)], dtype=float)
        counts = np.concatenate([[np.sum(samples < lo)], counts, [np.sum(samples > hi)]])
        pmf = stats.poisson.pmf(np.arange(lo, hi + 1), mean)
        expected = np.concatenate([[stats.poisson.cdf(lo - 1, mean)], pmf, [stats.poisson.sf(hi, mean)]])
        expected *= samples.size
        obs_b, exp_b = [], []
        co = ce = 0.0
        for o, e in zip(counts, expected):  # pool cells below the chi-square validity floor
            co += o
            ce += e
            if ce >= 5.0:
                obs_b.append(co)
                exp_b.append(ce)
                co = ce = 0.0
        obs_b[-1] += co
        exp_b[-1] += ce
        exp_arr = np.array(exp_b) * (np.sum(obs_b) / np.sum(exp_b))
        p = stats.chisquare(np.array(obs_b), exp_arr).pvalue
        assert p > 0.01, f"chi-square p-value {p:.4f}"


def _canonical_policies(inst):
    fluid = Static(solve_fluid(inst).x)
    wage = Static(optimal_fixed_wage(inst)[1].x)
    lottery = Static(lottery_for_instance(inst, 35.0, 11.2)[0])
    return [("fluid", fluid), ("fixed_wage", wage), ("lottery", lottery)]


def test_criterion_04_convergence_rate(canon):
    with criterion(4, "fluid-policy loss vanishes: theta^-1/2 at the canonical cap kink, "
                      "1/theta on the smooth power variant", 300.0):
        thetas = (8, 64, 512, 4096)

        # canonical instance: loss decreasing, baselines stuck above zero
        policies = _canonical_policies(canon)
        burn = max(default_burn_in(canon, p) for _, p in policies)
        cfg = SimConfig(theta=1, periods=burn + 300, burn_in=burn, replications=200, seed=SEED)
        rows = additive_loss_sweep(canon, policies, thetas, cfg)
        fluid = [r for r in rows if r.policy == "fluid"]
        for a, b in zip(fluid, fluid[1:]):
            assert b.loss < a.loss - 2.0 * math.hypot(a.se, b.se)
        assert fluid[-1].loss < fluid[0].loss / 5.0
        for name in ("fixed_wage", "lottery"):
            last = [r for r in rows if r.policy == name and r.theta == 4096][0]
            assert last.loss > 2.0 * last.se

        # smooth-revenue variant: a log-log fit pins the rate itself
        power = power_variant_instance()
        pol = [("fluid", Static(solve_fluid(power).x))]
        burn_p = default_burn_in(power, pol[0][1])
        measure = {8: 2000, 64: 2000, 512: 12000, 4096: 80000}
        cfgs = {
            t: SimConfig(
                theta=1, periods=burn_p + measure[t], burn_in=burn_p, replications=200, seed=SEED
            )
            for t in thetas
        }
        losses = additive_loss_sweep(power, pol, thetas, cfgs)
        assert all(r.loss > 2.0 * r.se for r in losses)
        slope = float(np.polyfit(np.log(thetas), np.log([r.loss for r in losses]), 1)[0])
        assert -1.3 <= slope <= -0.7, f"log-log slope {slope:.3f}"


def test_criterion_05_cyclic_closed_forms(prop5, prop5_cycle):
    with criterion(5, "wage-slashing cycle: steady state, experience, profit edge", 1.0):
        states = cyclic_steady_state(prop5, prop5_cycle)
        assert float(states[0].sum()) == pytest.approx(2.9, abs=1e-9)
        assert float(states[1].sum()) == pytest.approx(3.5, abs=1e-9)
        x1 = experienced_distribution(prop5, prop5_cycle, 0)
        x2 = experienced_distribution(prop5, prop5_cycle, 1)
        assert x1.weights == pytest.approx((20.0 / 39.0, 19.0 / 39.0), abs=1e-12)
        assert x2.weights == pytest.approx((3.0 / 5.0, 2.0 / 5.0), abs=1e-12)
        gap = cyclic_profit(prop5, prop5_cycle) - turnover_profit(prop5, 0.0)
        assert gap >= 0.02 * 1.0 * 1.0 - 1e-12  # 0.02 r lambda at alpha = 0.7 r


def test_criterion_06_explicit_discrimination():
    with criterion(6, "belief-based policy beats every static by the stated gap", 1.0):
        out = belief_based_policy(alpha=3.0, v1=1.0, v2=1.2, lambda1=25.0, lambda2=50.0, D=100.0)
        assert out.profit == pytest.approx(275.0, abs=1e-9)
        assert out.gap == pytest.approx(5.0, abs=1e-9)


def test_criterion_07_noisy_comparative_statics():
    with criterion(7, "noise thresholds and metric slopes match the closed forms", 10.0):
        grid = [float(e) for e in np.linspace(0.25, 25.0, 100)]

        sq = noisy_sqrt_instance(5.0)
        sol = optimal_noisy(sq)
        assert sol.eps0 == pytest.approx(125.0 / math.sqrt(10.0) - 25.0, abs=1e-9)
        assert sol.x_star == pytest.approx(0.424, abs=1e-9)
        cur = surplus_curve(sq, grid)
        assert np.all(np.diff(cur.x_star) <= 1e-12)
        assert np.all(np.diff(cur.profit) <= 1e-9)
        inner = np.array(cur.eps) < sol.eps0 - 1e-9
        assert np.diff(np.array(cur.surplus)[inner], 2).max() <= 1e-6

        nv = noisy_newsvendor_instance(5.0)
        curn = surplus_curve(nv, grid)
        eps = np.array(curn.eps)
        low = eps <= 15.0
        np.testing.assert_allclose(np.array(curn.welfare)[low], 4500.0, atol=1e-9)
        np.testing.assert_allclose(np.array(curn.profit)[low], 4750.0 - 290.0 * eps[low], atol=1e-9)
        np.testing.assert_allclose(np.array(curn.surplus)[low], 290.0 * eps[low] - 250.0, atol=1e-9)
        assert all(x == 0.0 for x, e in zip(curn.x_star, eps) if e > 15.0)


def test_criterion_08_dispersion_structure():
    with criterion(8, "convex departures spread minimally, concave maximally", 5.0):
        convex = single_type_instance(0)
        x1 = solve_fluid(convex).x
        assert classify_dispersion(x1, convex.rewards) is Dispersion.MINIMAL
        concave = single_type_instance(2)
        x3 = solve_fluid(concave).x
        assert classify_dispersion(x3, concave.rewards) is Dispersion.MAXIMAL


def test_criterion_09_double_threshold():
    with criterion(9, "three-type market crosses the behavioral gap exactly twice", 30.0):
        inst = double_threshold_instance(cap=75.0)
        grid = [float(e) for e in np.linspace(0.25, 25.0, 100)]
        cur = surplus_curve(inst, grid)
        report = detect_double_threshold(
            list(zip(cur.eps, cur.rational)), list(zip(cur.eps, cur.myopic)), rel_tol=0.05
        )
        assert report.count == 2, f"found {report.count} crossovers at {report.locations}"


def test_criterion_10_determinism_and_identities(tmp_path, canon):
    with criterion(10, "seeded reruns are byte-identical and the accounting is exact", 120.0):
        overrides = {"thetas": (1, 2), "reps": 5, "measure": 40, "seed": SEED}
        dirs = (tmp_path / "a", tmp_path / "b")
        manifests = [
            run_experiment(ExperimentSpec(id="fig_additive_loss", overrides=overrides, output_dir=d))
            for d in dirs
        ]
        csvs = [f for f in manifests[0]["files"] if f.endswith(".csv")]
        assert csvs and manifests[0]["files"] == manifests[1]["files"]
        for name in csvs:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        nv = noisy_newsvendor_instance(5.0)
        cur = surplus_curve(nv, [float(e) for e in np.linspace(0.5, 20.0, 40)])
        worst = max(abs(w - p - s) for w, p, s in zip(cur.welfare, cur.profit, cur.surplus))
        assert worst <= 1e-9

        cfg = SimConfig(theta=2, periods=60, burn_in=10, replications=2, seed=SEED, record_trace=True)
        tr = simulate(canon, Static(solve_fluid(canon).x), cfg).trace
        np.testing.assert_array_equal(
            tr.supply[1:], tr.supply[:-1] - tr.departures[:-1] + tr.arrivals[1:]
        )
