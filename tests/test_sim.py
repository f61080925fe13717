"""Stochastic simulator: conservation, determinism, steady-state agreement
with the fluid quantities, and the aggregate-sampling shortcut."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from gigopt import (
    BeliefBased,
    Cyclic,
    ExpFloor,
    Linear,
    LinearRev,
    MarketInstance,
    NonMixing,
    RewardDistribution,
    RewardSet,
    Static,
    Tabulated,
    WorkerType,
    cyclic_profit,
    cyclic_steady_state,
    expected_reward,
    fluid_supply,
    solve_fluid,
)
from gigopt import policies, sim
from gigopt.experiments import canonical_instance, example1_instance, prop5_instance, prop5_policy
from gigopt.policies import _rate_rows, period_index
from gigopt.sim import (
    ConfigError,
    SimConfig,
    additive_loss_sweep,
    default_burn_in,
    occupancy_samples,
    simulate,
)


def _fast_instance():
    rs = RewardSet((10.0, 30.0))
    return MarketInstance(
        rs,
        (WorkerType(2.0, Tabulated(rs.values, (0.9, 0.3))),),
        LinearRev(alpha=50.0),
    )


@pytest.mark.parametrize("field, value", [
    ("theta", 2.5), ("theta", math.nan), ("theta", True), ("periods", 40.0),
    ("burn_in", 5.0), ("replications", 3.0), ("replications", "3"), ("seed", 1.5), ("seed", True),
    ("seed", "1"),
])
def test_config_rejects_non_integer_counts(field, value):
    kw = dict(theta=2, periods=40, burn_in=5, replications=3, seed=1)
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        SimConfig(**{**kw, field: value})
    assert SimConfig(**{**kw, field: np.int64(kw[field])}) == SimConfig(**kw)


def test_config_validation():
    with pytest.raises(ConfigError, match="theta"):
        SimConfig(theta=0, periods=10, burn_in=0, replications=1, seed=1)
    with pytest.raises(ConfigError, match="burn_in"):
        SimConfig(theta=1, periods=10, burn_in=10, replications=1, seed=1)
    with pytest.raises(ConfigError, match="replication"):
        SimConfig(theta=1, periods=10, burn_in=0, replications=0, seed=1)


def test_config_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        SimConfig(theta=1, periods=10, burn_in=0, replications=1, seed=-1)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        occupancy_samples(_fast_instance(), RewardDistribution.two_point(10.0, 30.0, 0.5), theta=1,
                          n_samples=2, burn_in=1, seed=np.int64(-3))
    assert SimConfig(theta=1, periods=10, burn_in=0, replications=1, seed=0).seed == 0


def test_belief_policies_are_rejected():
    cfg = SimConfig(theta=1, periods=10, burn_in=0, replications=1, seed=1)
    with pytest.raises(ConfigError, match="belief"):
        simulate(_fast_instance(), BeliefBased(3.0, 1.0, 1.2, 100.0), cfg)


def test_population_conservation_is_exact(canon):
    x = solve_fluid(canon).x
    cfg = SimConfig(theta=3, periods=80, burn_in=10, replications=2, seed=42, record_trace=True)
    tr = simulate(canon, Static(x), cfg).trace
    assert tr.supply.dtype == np.int64
    np.testing.assert_array_equal(tr.supply[0], tr.arrivals[0])
    np.testing.assert_array_equal(
        tr.supply[1:], tr.supply[:-1] - tr.departures[:-1] + tr.arrivals[1:]
    )
    assert np.all(tr.departures <= tr.supply)


def test_bit_identical_reruns(canon):
    x = RewardDistribution.point_mass(canon.rewards, 35.0)
    cfg = SimConfig(theta=2, periods=60, burn_in=20, replications=5, seed=7, record_trace=True)
    a = simulate(canon, Static(x), cfg)
    b = simulate(canon, Static(x), cfg)
    assert a.mean_profit == b.mean_profit
    assert a.std_error == b.std_error
    assert a.mean_supply == b.mean_supply
    for f in ("supply", "arrivals", "departures", "profit"):
        np.testing.assert_array_equal(getattr(a.trace, f), getattr(b.trace, f))


def test_full_turnover_population_is_fresh_arrivals():
    # everyone departs each period, so supply is a fresh Poisson draw
    rs = RewardSet((5.0, 9.0))
    inst = MarketInstance(
        rs,
        (
            WorkerType(1.5, Tabulated(rs.values, (1.0, 1.0))),
            WorkerType(1.0, Tabulated(rs.values, (1.0, 1.0))),
        ),
        LinearRev(alpha=12.0),
    )
    x = RewardDistribution.two_point(5.0, 9.0, 0.4)
    cfg = SimConfig(theta=7, periods=60, burn_in=10, replications=40, seed=11)
    res = simulate(inst, Static(x), cfg)
    mean = 7 * 2.5
    se = math.sqrt(mean / (40 * 50))  # iid Poisson cells after full turnover
    assert abs(res.mean_supply_total - mean) <= 3 * se


def test_steady_state_supply_matches_birth_death_mean():
    inst = example1_instance()
    x = RewardDistribution.point_mass(inst.rewards, 35.0)
    target = float(fluid_supply(inst, x).sum()) * 10
    assert target == pytest.approx(10 * 10.0 / math.exp(-1.4), rel=1e-12)
    res = simulate(inst, Static(x), SimConfig(theta=10, periods=300, burn_in=100, replications=30, seed=2))
    # long-run variance of the occupancy AR recursion: theta*N*(2-l)/l per sample
    lhat = math.exp(-1.4)
    se = math.sqrt(target * (2 - lhat) / lhat / (30 * 200))
    assert abs(res.mean_supply_total - target) <= 3 * se


def test_static_profit_never_beats_fluid_optimum(canon):
    pi_star = solve_fluid(canon).profit
    for x in (
        solve_fluid(canon).x,
        RewardDistribution.point_mass(canon.rewards, 35.0),
        RewardDistribution.two_point(20.0, 50.0, 0.5),
    ):
        res = simulate(canon, Static(x), SimConfig(theta=20, periods=400, burn_in=200, replications=20, seed=7))
        assert res.mean_profit <= pi_star + 3 * res.std_error


def test_normalized_supply_is_scale_invariant():
    rs = RewardSet((1.0, 4.0))
    inst = MarketInstance(rs, (WorkerType(3.0, Tabulated(rs.values, (0.9, 0.5))),), LinearRev(alpha=6.0))
    x = RewardDistribution.two_point(1.0, 4.0, 0.5)
    n_fluid = float(fluid_supply(inst, x)[0])
    lhat = 3.0 / n_fluid

    def run(theta, seed):
        cfg = SimConfig(theta=theta, periods=260, burn_in=60, replications=25, seed=seed)
        return simulate(inst, Static(x), cfg).mean_supply_total / theta

    def se(theta):
        return math.sqrt(theta * n_fluid * (2 - lhat) / lhat / (25 * 200)) / theta

    m1, m25 = run(1, 21), run(25, 22)
    assert abs(m1 - n_fluid) <= 3 * se(1)
    assert abs(m25 - n_fluid) <= 3 * se(25)
    assert abs(m1 - m25) <= 3 * math.hypot(se(1), se(25))


def test_aggregate_sampler_matches_per_worker_reference():
    # one period of departures plus fresh arrivals, theta=1, 1e5 draws each;
    # the aggregate multinomial/binomial path must match a literal per-worker
    # draw (reward category then Bernoulli departure) in distribution
    inst = _fast_instance()
    x = RewardDistribution.two_point(10.0, 30.0, 0.5)
    S = 100_000
    agg = occupancy_samples(inst, x, theta=1, n_samples=S, burn_in=1, seed=314)

    rng = np.random.default_rng(2718)
    a1 = rng.poisson(2.0, S)
    owner = np.repeat(np.arange(S), a1)
    idx = rng.choice(2, size=owner.size, p=np.asarray(x.weights))
    gone = rng.random(owner.size) < np.where(idx == 0, 0.9, 0.3)
    departed = np.bincount(owner[gone], minlength=S)
    ref = a1 - departed + rng.poisson(2.0, S)

    hi = int(max(agg.max(), ref.max()))
    o1 = np.bincount(agg, minlength=hi + 1).astype(float)
    o2 = np.bincount(ref, minlength=hi + 1).astype(float)
    pooled1, pooled2 = [], []
    c1 = c2 = 0.0
    for k in range(hi + 1):  # pool rare occupancies so every cell has mass
        c1 += o1[k]
        c2 += o2[k]
        if c1 + c2 >= 10.0:
            pooled1.append(c1)
            pooled2.append(c2)
            c1 = c2 = 0.0
    pooled1[-1] += c1
    pooled2[-1] += c2
    b1, b2 = np.array(pooled1), np.array(pooled2)
    stat = float(((b1 - b2) ** 2 / (b1 + b2)).sum())
    p = float(stats.chi2.sf(stat, len(b1) - 1))
    assert p > 0.01


def test_occupancy_samples_validation_and_determinism():
    inst = _fast_instance()
    x = RewardDistribution.two_point(10.0, 30.0, 0.5)
    with pytest.raises(ConfigError):
        occupancy_samples(inst, x, theta=1, n_samples=0, burn_in=1, seed=1)
    a = occupancy_samples(inst, x, theta=1, n_samples=50, burn_in=3, seed=7)
    b = occupancy_samples(inst, x, theta=1, n_samples=50, burn_in=3, seed=7)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("field, value, name", [
    ("theta", 2.5, "theta"), ("theta", math.nan, "theta"), ("n_samples", 3.0, "replications"),
    ("burn_in", True, "burn_in"), ("burn_in", 2.0, "burn_in"),
])
def test_occupancy_samples_rejects_non_integer_counts(field, value, name):
    kw = dict(theta=3, n_samples=2, burn_in=2, seed=1)
    x = RewardDistribution.two_point(10.0, 30.0, 0.5)
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        occupancy_samples(_fast_instance(), x, **{**kw, field: value})


def test_default_burn_in(canon):
    inst = example1_instance()
    x = Static(RewardDistribution.point_mass(inst.rewards, 35.0))
    assert default_burn_in(inst, x) == math.ceil(10 / math.exp(0.07 * (15 - 60)))
    # two of the three canonical departure functions vanish at the top
    # reward, so the fallback uses the policy's own mixture rates
    assert default_burn_in(canon, Static(solve_fluid(canon).x)) == 194
    top = Static(RewardDistribution.point_mass(canon.rewards, 60.0))
    with pytest.raises(ConfigError, match="mixes"):
        default_burn_in(canon, top)


def test_default_burn_in_of_a_cycle_reads_its_mean_rates(canon):
    # Proposition 5's cycle: type 0 never leaves while paid r, and leaves at
    # rate 0.1 while paid 0, so its mean rate over the cycle is 0.05
    assert default_burn_in(prop5_instance(), prop5_policy()) == 200
    cyc = Cyclic((solve_fluid(canon).x, RewardDistribution.point_mass(canon.rewards, 42.0)))
    rates = _rate_rows(canon, cyc)[0]
    assert default_burn_in(canon, cyc) == math.ceil(10 / min((rates[0] + rates[1]) / 2))


def test_a_cycle_that_never_mixes_is_refused_by_both_engines():
    inst = prop5_instance()
    pay_r = RewardDistribution.point_mass(inst.rewards, 1.0)
    cyc = Cyclic((pay_r, pay_r))
    with pytest.raises(ConfigError, match="never mixes"):
        default_burn_in(inst, cyc)
    with pytest.raises(NonMixing, match=r"type\(s\) \[0\]"):
        cyclic_steady_state(inst, cyc)


def test_simulated_prop5_cycle_averages_its_cyclic_profit():
    # linear revenue and expected pay make each period's mean profit exact;
    # an even number of measured periods covers whole cycles
    inst, cyc = prop5_instance(), prop5_policy()
    burn = default_burn_in(inst, cyc)
    cfg = SimConfig(theta=40, periods=burn + 300, burn_in=burn, replications=20, seed=5)
    res = simulate(inst, cyc, cfg)
    assert (cfg.periods - cfg.burn_in) % cyc.tau == 0
    assert abs(res.mean_profit - cyclic_profit(inst, cyc)) <= 5 * res.std_error


def test_realized_cost_agrees_with_expected_cost():
    inst = _fast_instance()
    x = RewardDistribution.two_point(10.0, 30.0, 0.5)
    kw = dict(theta=5, periods=200, burn_in=50, replications=20, seed=99)
    exp_res = simulate(inst, Static(x), SimConfig(**kw))
    real_res = simulate(inst, Static(x), SimConfig(realized_cost=True, **kw))
    comb = math.hypot(exp_res.std_error, real_res.std_error)
    assert abs(real_res.mean_profit - exp_res.mean_profit) <= 3 * comb
    # a point mass leaves nothing random in the payment
    pm = RewardDistribution.point_mass(inst.rewards, 10.0)
    assert simulate(inst, Static(pm), SimConfig(**kw)).mean_profit == pytest.approx(
        simulate(inst, Static(pm), SimConfig(realized_cost=True, **kw)).mean_profit, rel=1e-12
    )


def test_additive_loss_sweep_rows_and_reproducibility():
    inst = example1_instance()
    policies = [
        ("a", Static(RewardDistribution.point_mass(inst.rewards, 35.0))),
        ("b", Static(RewardDistribution.point_mass(inst.rewards, 40.0))),
    ]
    base = SimConfig(theta=1, periods=120, burn_in=40, replications=6, seed=1234)
    rows = additive_loss_sweep(inst, policies, [2, 8], base)
    assert [(r.policy, r.theta) for r in rows] == [("a", 2), ("b", 2), ("a", 8), ("b", 8)]
    assert all(r.se >= 0.0 and r.reps == 6 for r in rows)
    # cells are seeded by coordinate, so a prefix rerun is identical
    assert additive_loss_sweep(inst, policies, [2], base) == rows[:2]
    per_theta = {2: base, 8: SimConfig(theta=1, periods=120, burn_in=40, replications=9, seed=1234)}
    assert [r.reps for r in additive_loss_sweep(inst, policies, [2, 8], per_theta)] == [6, 6, 9, 9]


# --------------------------------------------------------------------------
# The shared step loop: outputs recorded from the simulator before simulate
# and occupancy_samples shared one loop, and the bounds on the scale


def _canon_lottery():
    w = [0.0] * 46
    w[5] = w[35] = 0.5  # rewards 20 and 50
    return RewardDistribution.on(canonical_instance().rewards, w)


def _recorded_policy(name):
    rs = canonical_instance().rewards
    a = RewardDistribution.point_mass(rs, 35.0)
    b = RewardDistribution.point_mass(rs, 45.0)
    return {
        "cyclic": Cyclic((a, b, a)),
        "realized": Static(_canon_lottery()),
    }[name]


@pytest.mark.parametrize("name, kw, profit, se, supply, last, departed", [
    ("cyclic", dict(theta=3, periods=40, burn_in=10, replications=4, seed=17),
     1709.6527777777778, 43.54788631814159, (48.175, 21.275, 13.458333333333334),
     [43, 23, 14], [379, 384, 414]),
    ("realized", dict(theta=5, periods=30, burn_in=10, replications=4, seed=29, realized_cost=True),
     1221.5749999999998, 19.822309611479, (41.1375, 28.65, 24.275),
     [43, 24, 27], [488, 463, 480]),
], ids=["cyclic", "realized"])
def test_simulate_matches_recorded_outputs(canon, name, kw, profit, se, supply, last, departed):
    res = simulate(canon, _recorded_policy(name), SimConfig(record_trace=True, **kw))
    assert res.mean_profit == pytest.approx(profit, rel=1e-12)
    assert res.std_error == pytest.approx(se, rel=1e-12)
    assert res.mean_supply == pytest.approx(supply, rel=1e-12)
    assert res.trace.supply[-1].tolist() == last
    assert res.trace.departures.sum(axis=0).tolist() == departed


def test_occupancy_samples_match_recorded_draw(canon):
    draw = occupancy_samples(canon, _canon_lottery(), theta=4, n_samples=6, burn_in=12, seed=31)
    assert draw.tolist() == [76, 73, 76, 88, 81, 76]


@pytest.mark.parametrize("burn", [0, 7])
def test_occupancy_sample_is_the_simulated_post_arrival_total(canon, burn):
    x = _canon_lottery()
    cfg = SimConfig(theta=3, periods=burn + 1, burn_in=0, replications=1, seed=41, record_trace=True)
    tr = simulate(canon, Static(x), cfg).trace
    draw = occupancy_samples(canon, x, theta=3, n_samples=1, burn_in=burn, seed=41)
    assert draw.tolist() == [int(tr.supply[burn].sum())]


def test_scale_that_would_overflow_int64_is_rejected(canon):
    x = Static(solve_fluid(canon).x)
    ok = simulate(canon, x, SimConfig(theta=10**16, periods=60, burn_in=10, replications=2, seed=1))
    assert 0.0 < ok.mean_supply_total < 2.0**63
    with pytest.raises(ConfigError, match="overflow"):
        simulate(canon, x, SimConfig(theta=10**17, periods=60, burn_in=10, replications=2, seed=1))
    with pytest.raises(ConfigError, match="overflow"):
        occupancy_samples(canon, x.x, theta=10**17, n_samples=2, burn_in=200, seed=1)


def test_a_mixing_cycle_is_charged_its_mean_stay_not_every_period():
    # type 0 of the Prop-5 cycle never leaves in its first period, but its
    # survival over the two-period cycle is 0.9, so it stays 20 periods on
    # average: 10^17 fits int64, as its occupancy of about 3.2e17 does
    inst, cyc = prop5_instance(), prop5_policy()
    burn = default_burn_in(inst, cyc)
    cfg = SimConfig(theta=10**17, periods=1000, burn_in=burn, replications=2, seed=3)
    res = simulate(inst, cyc, cfg)
    want = cfg.theta * cyclic_steady_state(inst, cyc).mean(axis=0)
    np.testing.assert_allclose(res.mean_supply, want, rtol=1e-6)


def test_simulate_builds_the_rate_table_once(canon, monkeypatch):
    # the expected pay and the occupancy bound read one _cycle call
    calls = []
    rate_rows = policies._rate_rows

    def counted(inst, policy):
        calls.append(policy)
        return rate_rows(inst, policy)

    monkeypatch.setattr(policies, "_rate_rows", counted)
    monkeypatch.setattr(sim, "_rate_rows", counted)
    simulate(canon, Static(solve_fluid(canon).x), SimConfig(theta=1, periods=20, burn_in=5, replications=2, seed=1))
    assert len(calls) == 1


def test_replication_tables_are_capped_before_allocation(canon):
    # 10^10 replications would need hundreds of gigabytes: the cap refuses
    # them before any array exists, so the test needs no memory
    x = Static(solve_fluid(canon).x)
    cfg = SimConfig(theta=1, periods=10, burn_in=0, replications=10**10, seed=1)
    with pytest.raises(ValueError, match="replications 10000000000 needs 10000000000 x 3 table entries"):
        simulate(canon, x, cfg)
    # the draws' paid cells count too: all 46 under a uniform lottery
    uniform = RewardDistribution.on(canon.rewards, [1 / 46] * 46)
    cfg = SimConfig(theta=1, periods=2, burn_in=0, replications=300_000, seed=1)
    with pytest.raises(ValueError, match="replications 300000 needs 300000 x 46"):
        simulate(canon, Static(uniform), cfg)
    with pytest.raises(ValueError, match="replications 300000 needs 300000 x 46"):
        occupancy_samples(canon, uniform, theta=1, n_samples=300_000, burn_in=0, seed=1)


# --------------------------------------------------------------------------
# Support-only draws: the step loop draws only the cells some distribution
# pays (plus the last), which must leave every output equal to the loop that
# draws all m cells every period


def _full_width_steps(inst, policy, theta, R, periods, seed, realized):
    """The period loop drawing every reward cell of the domain."""
    rewards = np.asarray(policy.distributions[0].rewards)
    rows = np.array([x.weights for x in policy.distributions])
    mat = np.array([[float(t.departure.rate(r)) for r in rewards] for t in inst.types])
    K, lam, rhat_rows = inst.K, inst.lambdas * theta, _rate_rows(inst, policy)[1]
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
        yield n, arrivals, departures, rhat_rows[k], paid
        n -= departures


# an off-integer grid: drawn pay sums non-integer products, so the shorter
# support-only dot product may round differently from the full-width one
_STEP_07 = MarketInstance(
    RewardSet.from_range(10.0, 29.6, 0.7),
    (WorkerType(1.3, Linear(0.02, 0.9)), WorkerType(0.7, ExpFloor(0.07, 12.0))),
    LinearRev(alpha=40.0),
)


@st.composite
def _distributions(draw, rewards):
    """A distribution on the grid with 1 to 8 support cells; the top reward
    is in the support or out of it as drawn."""
    m = len(rewards)
    cells = draw(st.sets(st.integers(0, m - 2), min_size=0, max_size=7))
    if draw(st.booleans()) or not cells:
        cells.add(m - 1)
    raw = [draw(st.integers(1, 1000)) for _ in cells]
    w = [0.0] * m
    for c, v in zip(sorted(cells), raw):
        w[c] = v / sum(raw)
    w[max(cells)] += 1.0 - math.fsum(w)  # keep the sum within 1e-12
    return RewardDistribution.on(rewards, w)


@st.composite
def _policies(draw, rewards):
    kind = draw(st.sampled_from(["static", "cyclic"]))
    xs = tuple(draw(st.lists(_distributions(rewards), min_size=1, max_size=4)))
    if kind == "static":
        return Static(xs[0])
    return Cyclic(xs)


def _both_ways(inst, policy, cfg):
    """simulate and occupancy_samples with the support-only loop, then with
    the full-width one."""
    x, theta, seed = policy.distributions[0], cfg.theta, cfg.seed
    out = [(simulate(inst, policy, cfg), occupancy_samples(inst, x, theta, 5, 6, seed))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_steps", _full_width_steps)
        out.append((simulate(inst, policy, cfg), occupancy_samples(inst, x, theta, 5, 6, seed)))
    return out


_CANON_GRID = canonical_instance().rewards


@settings(deadline=None, max_examples=60)
@given(
    policy=_policies(_CANON_GRID),
    theta=st.sampled_from([1, 3, 40]),
    realized=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_only_draws_equal_full_width_draws(canon, policy, theta, realized, seed):
    cfg = SimConfig(theta=theta, periods=14, burn_in=4, replications=3, seed=seed,
                    realized_cost=realized, record_trace=True)
    (res, occ), (ref, ref_occ) = _both_ways(canon, policy, cfg)
    assert (res.mean_profit, res.std_error, res.mean_supply) == (ref.mean_profit, ref.std_error, ref.mean_supply)
    for f in ("supply", "arrivals", "departures", "profit"):
        np.testing.assert_array_equal(getattr(res.trace, f), getattr(ref.trace, f))
    np.testing.assert_array_equal(occ, ref_occ)


@settings(deadline=None, max_examples=20)
@given(policy=_policies(_STEP_07.rewards), seed=st.integers(0, 2**32 - 1))
def test_support_only_realized_pay_on_off_integer_grid(policy, seed):
    cfg = SimConfig(theta=5, periods=14, burn_in=4, replications=3, seed=seed,
                    realized_cost=True, record_trace=True)
    (res, occ), (ref, ref_occ) = _both_ways(_STEP_07, policy, cfg)
    assert res.mean_supply == ref.mean_supply
    for f in ("supply", "arrivals", "departures"):
        np.testing.assert_array_equal(getattr(res.trace, f), getattr(ref.trace, f))
    np.testing.assert_array_equal(occ, ref_occ)
    # a reordered sum of at most 29 float64 products, on pay below 1e4
    np.testing.assert_allclose(res.trace.profit, ref.trace.profit, rtol=0.0, atol=1e-9)
    assert res.mean_profit == pytest.approx(ref.mean_profit, rel=0.0, abs=1e-9)


# weight 1/301 on 20 and the rest on 60: with numpy's usual BLAS builds,
# weights @ rewards rounds this expected reward one ulp away from
# expected_reward's exact sum
_DOT_DISAGREES = RewardDistribution.on(
    _CANON_GRID, [1 / 301 if r == 20.0 else 1 - 1 / 301 if r == 60.0 else 0.0 for r in _CANON_GRID])


@settings(deadline=None, max_examples=60)
@given(policy=_policies(_CANON_GRID))
@example(policy=Static(_DOT_DISAGREES))
def test_step_pay_is_the_expected_reward_of_the_period(canon, policy):
    # the simulator's expected pay is the policy engine's r_hat, bit for bit
    steps = sim._steps(canon, policy, 1, 2, len(policy.distributions) + 3, 0, False)
    for t, (_, _, _, rhat, _) in enumerate(steps, 1):
        assert rhat == expected_reward(policy.distributions[period_index(policy, t)])
