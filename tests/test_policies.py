"""Policy engine: trajectories, cyclic closed forms, fairness audits, and the
belief-based discriminating policy."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gigopt import (
    BeliefBased,
    Cyclic,
    LinearRev,
    Log,
    MarketInstance,
    NonMixing,
    Power,
    PreconditionViolated,
    RewardDistribution,
    RewardSet,
    Static,
    Tabulated,
    WorkerType,
    belief_based_policy,
    cyclic_profit,
    cyclic_steady_state,
    cyclic_to_static_report,
    expected_departure,
    expected_reward,
    experienced_distribution,
    fairness_audit,
    fluid_profit,
    fluid_supply,
    fluid_trajectory,
    turnover_profit,
)
from gigopt.experiments import canonical_instance, example1_instance, prop5_instance, prop5_policy
from gigopt import policies
from gigopt.policies import _gaps, _payment_streams, _rate_rows, _window_mixes, _window_sums, period_index


# --------------------------------------------------------------------------
# Policy indexing


def _paid(policy, t):
    """The distribution a policy pays from in (1-based) period t."""
    return policy.distributions[period_index(policy, t)]


def test_period_index():
    rs = RewardSet((0.0, 1.0))
    a = RewardDistribution.point_mass(rs, 0.0)
    b = RewardDistribution.point_mass(rs, 1.0)
    assert _paid(Static(a), 17) is a
    cyc = Cyclic((a, b))
    assert [_paid(cyc, t) for t in (1, 2, 3, 4)] == [a, b, a, b]
    with pytest.raises(ValueError, match="1-based"):
        period_index(Static(a), 0)
    assert Static(a).distributions == (a,)
    assert cyc.distributions == (a, b)


def test_period_index_names_policies_without_one_distribution():
    with pytest.raises(TypeError, match="belief-based"):
        period_index(BeliefBased(3.0, 1.0, 1.2, 100.0), 1)
    with pytest.raises(TypeError, match="unknown policy type str"):
        period_index("static", 1)


# --------------------------------------------------------------------------
# Fluid trajectories


def test_static_trajectory_converges_to_fluid_point(canon):
    x = RewardDistribution.point_mass(canon.rewards, 35.0)
    traj = fluid_trajectory(canon, Static(x), horizon=400)
    assert traj.supplies.shape == (400, 3)
    np.testing.assert_allclose(traj.supplies[-1], fluid_supply(canon, x), rtol=1e-9)
    assert traj.profits[-1] == pytest.approx(fluid_profit(canon, x).profit, rel=1e-9)
    assert traj.tail_average == pytest.approx(float(traj.profits[200:].mean()), rel=1e-12)


def test_trajectory_input_validation(canon):
    x = RewardDistribution.point_mass(canon.rewards, 35.0)
    with pytest.raises(ValueError, match="horizon"):
        fluid_trajectory(canon, Static(x), horizon=0)
    with pytest.raises(ValueError, match="entries"):
        fluid_trajectory(canon, Static(x), horizon=5, n0=(1.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
def test_trajectory_rejects_a_start_that_is_not_a_population(prop5, prop5_cycle, bad):
    # a NaN start once audited as perfectly fair and a negative one ran on a
    # negative population
    with pytest.raises(ValueError, match="n0 must be finite and non-negative"):
        fluid_trajectory(prop5, prop5_cycle, 10, n0=[bad, 0.0])
    with pytest.raises(ValueError, match="n0"):
        fairness_audit(prop5, prop5_cycle, 2, 10, n0=[bad, 0.0])


def _per_period_trajectory(inst, policy, horizon, n0):
    """The recursion with every period's mixture rates and expected reward
    recomputed from that period's distribution."""
    n = np.zeros(inst.K) if n0 is None else np.asarray(n0, dtype=float).copy()
    supplies, profits = np.empty((horizon, inst.K)), np.empty(horizon)
    for t in range(1, horizon + 1):
        n = n + inst.lambdas
        x = _paid(policy, t)
        lhat = np.array([expected_departure(w, x) for w in inst.types])
        total = float(n.sum())
        profits[t - 1] = float(inst.revenue.value(total)) - expected_reward(x) * total
        supplies[t - 1] = n
        n = n * (1.0 - lhat)
    return supplies, profits


@pytest.mark.parametrize("n0", [None, (40.0, 3.5, 12.25)])
@pytest.mark.parametrize("kind", ["static", "cyclic"])
def test_trajectory_matches_per_period_reference(canon, kind, n0):
    rs = canon.rewards
    a = RewardDistribution.point_mass(rs, 35.0)
    b = RewardDistribution.on(rs, [0.0] * 20 + [0.25] + [0.0] * (len(rs) - 22) + [0.75])
    c = RewardDistribution.on(rs, [1.0 / len(rs)] * len(rs))
    policy = {
        "static": Static(b),
        "cyclic": Cyclic((a, b, c)),
    }[kind]
    # each revenue's array call must round as its per-period scalar calls do
    for revenue in (canon.revenue, Power(300.0, 0.5), Log(2000.0)):
        inst = dataclasses.replace(canon, revenue=revenue)
        traj = fluid_trajectory(inst, policy, 123, n0)
        supplies, profits = _per_period_trajectory(inst, policy, 123, n0)
        assert np.array_equal(traj.supplies, supplies)
        assert np.array_equal(traj.profits, profits)
        assert traj.tail_average == float(profits[-62:].mean())


def test_per_period_tables_are_capped_before_allocation(canon, prop5, prop5_cycle):
    # 10^10 periods would need hundreds of gigabytes: refused before any
    # array exists (the belief-based audit's cap is checked in a memory-capped
    # child process by the CLI tests)
    with pytest.raises(ValueError, match="horizon 10000000000 needs 10000000000 x 3 table entries"):
        fluid_trajectory(canon, Static(RewardDistribution.point_mass(canon.rewards, 35.0)), 10**10)
    # the audit's payment table is horizon x types x reward cells
    with pytest.raises(ValueError, match="horizon 10000000000 needs 10000000000 x 4"):
        fairness_audit(prop5, prop5_cycle, tau=2, horizon=10**10)


def test_trajectory_rejects_belief_policies(canon):
    with pytest.raises(TypeError, match="belief-based"):
        fluid_trajectory(canon, BeliefBased(3.0, 1.0, 1.2, 100.0), horizon=5)


# --------------------------------------------------------------------------
# Cyclic closed forms


def test_cyclic_steady_state_two_period(prop5, prop5_cycle):
    states = cyclic_steady_state(prop5, prop5_cycle)
    np.testing.assert_allclose(states, [[1.9, 1.0], [2.0, 1.5]], atol=1e-9)
    assert states[0].sum() == pytest.approx(2.9, abs=1e-9)
    assert states[1].sum() == pytest.approx(3.5, abs=1e-9)


def test_cyclic_steady_state_requires_mixing(prop5):
    pay_r = RewardDistribution.point_mass(prop5.rewards, 1.0)
    with pytest.raises(NonMixing):
        cyclic_steady_state(prop5, Cyclic((pay_r, pay_r)))


def test_cyclic_profit_closed_form(prop5, prop5_cycle):
    # alternating pay-r / pay-0 earns 3.2*alpha - 1.45*r per period
    assert cyclic_profit(prop5, prop5_cycle) == pytest.approx(0.79, abs=1e-9)
    variant = prop5_instance(r=2.0, alpha=0.9)
    assert cyclic_profit(variant, prop5_policy(2.0)) == pytest.approx(
        3.2 * 0.9 - 1.45 * 2.0, abs=1e-9
    )


def test_cyclic_beats_full_turnover(prop5, prop5_cycle):
    gap = cyclic_profit(prop5, prop5_cycle) - turnover_profit(prop5, 0.0)
    assert gap >= 0.02 - 1e-12


def test_turnover_profit(prop5):
    assert turnover_profit(prop5, 0.0) == pytest.approx(0.77, rel=1e-12)
    assert turnover_profit(prop5, 1.0) == pytest.approx(-0.33, rel=1e-9)


def test_experienced_distributions(prop5, prop5_cycle):
    x1 = experienced_distribution(prop5, prop5_cycle, 0)
    x2 = experienced_distribution(prop5, prop5_cycle, 1)
    assert x1.weights == pytest.approx((20.0 / 39.0, 19.0 / 39.0), abs=1e-12)
    assert x2.weights == pytest.approx((3.0 / 5.0, 2.0 / 5.0), abs=1e-12)
    l1 = sum(abs(a - b) for a, b in zip(x1.weights, x2.weights))
    assert l1 == pytest.approx(34.0 / 195.0, abs=1e-12)
    with pytest.raises(ValueError, match="type index"):
        experienced_distribution(prop5, prop5_cycle, 2)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(min_value=0.3, max_value=1.0), min_size=2, max_size=2),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
    st.data(),
)
def test_cyclic_closed_form_matches_trajectory(tau, lows, mults, data):
    # closed-form steady state == long-run fluid trajectory, any small cycle;
    # departure rates are bounded away from 0 so 300 cycles suffice to mix
    rs = RewardSet((0.0, 5.0))
    types = (
        WorkerType(1.3, Tabulated(rs.values, (lows[0], lows[0] * mults[0]))),
        WorkerType(0.7, Tabulated(rs.values, (lows[1], lows[1] * mults[1]))),
    )
    inst = MarketInstance(rs, types, LinearRev(alpha=2.0), eps_noisy_mode=True)
    ws = [data.draw(st.floats(min_value=0.0, max_value=0.7)) for _ in range(tau)]
    cyc = Cyclic(tuple(RewardDistribution.two_point(0.0, 5.0, w) for w in ws))
    states = cyclic_steady_state(inst, cyc)
    horizon = 300 * tau
    traj = fluid_trajectory(inst, cyc, horizon)
    np.testing.assert_allclose(traj.supplies[-tau:], states, rtol=1e-6, atol=1e-9)
    # per-period average profit agrees with the closed form
    assert float(traj.profits[-tau:].mean()) == pytest.approx(
        cyclic_profit(inst, cyc), rel=1e-6, abs=1e-6
    )


def _double_loop_steady_state(inst, cyc):
    """The closed form one period and one lag at a time, as the policy
    engine computed it before its array form."""
    z = 1.0 - _rate_rows(inst, cyc)[0]
    tau, K = z.shape
    full = z.prod(axis=0)
    out = np.empty((tau, K))
    for t in range(tau):
        acc = np.ones(K)
        run = np.ones(K)
        for d in range(1, tau):
            run = run * z[(t - d) % tau]
            acc += run
        out[t] = inst.lambdas * acc / (1.0 - full)
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(2, 5), st.data())
def test_cyclic_steady_state_is_the_double_loop_bit_for_bit(tau, K, m, data):
    rs = RewardSet(tuple(float(5 * k) for k in range(m)))
    rate = st.floats(min_value=0.05, max_value=1.0)
    types = tuple(
        WorkerType(data.draw(st.floats(0.1, 5.0)),
                   Tabulated(rs.values, tuple(sorted(data.draw(st.lists(rate, min_size=m, max_size=m)), reverse=True))))
        for _ in range(K)
    )
    inst = MarketInstance(rs, types, LinearRev(alpha=2.0))
    weights = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(lambda w: sum(w) > 0.1)
    rows = [data.draw(weights) for _ in range(tau)]
    cyc = Cyclic(tuple(RewardDistribution(rs.values, tuple(v / sum(w) for v in w)) for w in rows))
    assert cyclic_steady_state(inst, cyc).tobytes() == _double_loop_steady_state(inst, cyc).tobytes()


def test_cyclic_to_static_report(prop5, prop5_cycle):
    rpt = cyclic_to_static_report(prop5, prop5_cycle)
    assert rpt["steady_state"].tobytes() == cyclic_steady_state(prop5, prop5_cycle).tobytes()
    assert rpt["cyclic_fairness_eps"] == pytest.approx(34.0 / 195.0, abs=1e-12)
    assert rpt["cyclic_profit"] == pytest.approx(0.79, abs=1e-9)
    for i, anchor in rpt["anchors"].items():
        assert anchor["profit"] == pytest.approx(fluid_profit(prop5, anchor["x"]).profit, rel=1e-12)
    # the top reward retains type 1 forever, so the supply range is unbounded
    # and the Lipschitz constant estimate degrades to infinity
    assert math.isinf(rpt["c0"]) and rpt["c0_is_estimate"]
    assert rpt["bound_holds"]


def test_cyclic_to_static_report_finite_constant():
    rs = RewardSet((1.0, 3.0))
    types = (
        WorkerType(1.0, Tabulated(rs.values, (0.9, 0.4))),
        WorkerType(2.0, Tabulated(rs.values, (0.8, 0.6))),
    )
    inst = MarketInstance(rs, types, LinearRev(alpha=4.0))
    cyc = Cyclic(
        (RewardDistribution.point_mass(rs, 3.0), RewardDistribution.point_mass(rs, 1.0))
    )
    rpt = cyclic_to_static_report(inst, cyc)
    assert math.isfinite(rpt["c0"]) and rpt["c0"] > 0.0
    assert rpt["bound_holds"]


# --------------------------------------------------------------------------
# Fairness audits


def test_static_policies_are_fair(canon):
    x = RewardDistribution.two_point(15.0, 60.0, 0.5)
    rep = fairness_audit(canon, Static(x), tau=3, horizon=60)
    assert rep.max_gap == 0.0
    assert rep.fair


def test_fairness_single_type_trivial():
    rs = RewardSet((0.0, 1.0))
    inst = MarketInstance(
        rs, (WorkerType(1.0, Tabulated(rs.values, (0.5, 0.2))),), LinearRev(alpha=1.0)
    )
    cyc = Cyclic((RewardDistribution.point_mass(rs, 0.0), RewardDistribution.point_mass(rs, 1.0)))
    assert fairness_audit(inst, cyc, tau=2, horizon=40).max_gap == 0.0


def test_fairness_cyclic_steady_state(prop5, prop5_cycle):
    rep = fairness_audit(prop5, prop5_cycle, tau=2, horizon=200)
    assert rep.max_gap == pytest.approx(34.0 / 195.0, abs=1e-12)
    assert not rep.fair  # default delta 0.05
    assert rep.gap_matrix[0][1] == rep.max_gap
    # over single periods everyone receives the same distribution
    assert fairness_audit(prop5, prop5_cycle, tau=1, horizon=50).max_gap == 0.0


def test_fairness_transient_start_is_worse(prop5, prop5_cycle):
    # an explicitly empty market exposes the ramp-up windows
    rep = fairness_audit(prop5, prop5_cycle, tau=2, horizon=200, n0=np.zeros(2))
    assert rep.max_gap == pytest.approx(11.0 / 30.0, abs=1e-9)


def test_fairness_validation(prop5, prop5_cycle):
    with pytest.raises(ValueError, match="tau"):
        fairness_audit(prop5, prop5_cycle, tau=0, horizon=10)
    with pytest.raises(ValueError, match="tau"):
        fairness_audit(prop5, prop5_cycle, tau=11, horizon=10)


def _per_window_gaps(supplies, dists, tau):
    """The audit's gap matrix one window and one type pair at a time, as the
    policy engine computed it before _window_mixes."""
    horizon, K = supplies.shape
    gaps = np.zeros((K, K))
    for start in range(horizon - tau + 1):
        window = slice(start, start + tau)
        mixes = []
        for i in range(K):
            w = supplies[window, i]
            mixes.append((w[:, None] * dists[window, i]).sum(axis=0) / w.sum())
        for i in range(K):
            for j in range(i + 1, K):
                gap = float(np.abs(mixes[i] - mixes[j]).sum())
                if gap > gaps[i, j]:
                    gaps[i, j] = gaps[j, i] = gap
    return gaps


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 150), st.data())
def test_window_mixes_are_the_per_window_loop_bit_for_bit(T, data):
    tau = data.draw(st.integers(1, T), label="tau")
    if data.draw(st.booleans(), label="belief"):
        v1 = data.draw(st.floats(0.1, 5.0), label="v1")
        pol = BeliefBased(alpha=3.0 * v1, v1=v1, v2=1.2 * v1, D=data.draw(st.floats(1.0, 1e3), label="D"))
        supplies, dists = _payment_streams(None, pol, T, None)
    else:
        # per-type or shared distributions over 1-8 cells, supplies spanning
        # seven orders of magnitude
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        K, m = data.draw(st.integers(1, 4), label="K"), data.draw(st.integers(1, 8), label="m")
        supplies = rng.random((T, K)) * 10.0 ** rng.uniform(-3.0, 4.0, size=K) + 1e-3
        dists = rng.random((T, data.draw(st.sampled_from([1, K]), label="types paid"), m))
        dists *= rng.random(dists.shape) < 0.7
        dists[..., -1] += 1e-3
        dists /= dists.sum(axis=-1, keepdims=True)
    want = _per_window_gaps(supplies, np.broadcast_to(dists, supplies.shape + dists.shape[2:]), tau)
    assert _gaps(_window_mixes(supplies, dists, tau)).tobytes() == want.tobytes()


def test_window_sums_are_per_column_sums_in_any_block_size(monkeypatch):
    a = np.random.default_rng(5).random((40, 3)) * 1e3
    want = np.array([[a[s:s + 9, j].sum() for j in range(3)] for s in range(32)])
    assert _window_sums(a, 9).tobytes() == want.tobytes()
    monkeypatch.setattr(policies, "_MAX_TABLE", 60)  # two 3 x 9 windows per block
    assert _window_sums(a, 9).tobytes() == want.tobytes()


def test_experienced_distributions_of_a_random_canonical_cycle(canon):
    # recorded from the per-period mix loop the windowed-mix rule replaced
    rng = np.random.default_rng(18)
    xs = []
    for _ in range(3):
        w = np.zeros(len(canon.rewards))
        w[rng.choice(len(w), size=2, replace=False)] = rng.random(2)
        xs.append(RewardDistribution.on(canon.rewards, w / w.sum()))
    cyc = Cyclic(tuple(xs))
    want = [
        {3: 0.24502429654300212, 5: 0.14048787232405524, 12: 0.10781336954613754,
         16: 0.17048821773901246, 26: 0.1424828218123861, 39: 0.19370342203540666},
        {3: 0.2523557206122256, 5: 0.1413588660013339, 12: 0.10297806949877149,
         16: 0.17154520690999706, 26: 0.14674608061579572, 39: 0.18501605636187624},
        {3: 0.25592879407100544, 5: 0.14066784562346718, 12: 0.10150444148534972,
         16: 0.1707066232607829, 26: 0.14882384023446502, 39: 0.18236845532492985},
    ]
    for i in range(3):
        x = experienced_distribution(canon, cyc, i)
        assert {k: w for k, w in enumerate(x.weights) if w} == want[i]
    rpt = cyclic_to_static_report(canon, cyc)
    assert rpt["cyclic_fairness_eps"] == 0.035287789542529244
    assert rpt["cyclic_profit"] == 1175.5007090387667
    assert rpt["steady_state"].tolist() == [
        [6.923413565250227, 4.543345427488284, 3.631636038958549],
        [8.897919169875307, 6.296160861937348, 5.178071841742408],
        [7.140617506301777, 4.93632043589682, 3.98346850128269],
    ]
    assert [a["profit"] for a in rpt["anchors"].values()] == [
        1178.5022171647058, 1171.7277736844312, 1169.5402313712773]
    assert math.isinf(rpt["c0"]) and rpt["bound_holds"]


# --------------------------------------------------------------------------
# Belief-based policy


def test_belief_policy_closed_form():
    out = belief_based_policy(alpha=3.0, v1=1.0, v2=1.2, lambda1=25.0, lambda2=50.0, D=100.0)
    assert out.profit == pytest.approx(275.0, abs=1e-9)
    assert out.static_profit == pytest.approx(270.0, abs=1e-9)
    assert out.gap == pytest.approx(5.0, abs=1e-9)
    # one learning period at reduced profit, then stationary
    assert out.trajectory[0] == (75.0, 150.0)
    assert out.trajectory[1] == (100.0, 275.0)
    assert out.trajectory[-1] == (100.0, 275.0)


def test_belief_policy_preconditions():
    with pytest.raises(PreconditionViolated, match="D"):
        belief_based_policy(3.0, 1.0, 1.2, 25.0, 50.0, 0.0)
    with pytest.raises(PreconditionViolated, match="v1"):
        belief_based_policy(3.0, 1.5, 1.2, 25.0, 50.0, 100.0)
    with pytest.raises(PreconditionViolated, match="alpha"):
        belief_based_policy(2.0, 1.0, 1.2, 25.0, 50.0, 100.0)
    with pytest.raises(PreconditionViolated, match="lambda"):
        belief_based_policy(3.0, 1.0, 1.2, 30.0, 50.0, 100.0)


def test_belief_policy_identical_values_has_no_edge():
    out = belief_based_policy(alpha=3.0, v1=1.0, v2=1.0, lambda1=25.0, lambda2=50.0, D=100.0)
    assert out.gap == 0.0
    assert out.instance is None


def test_belief_fairness_audit_runs(prop5):
    # the audit consumes per-worker payment streams instead of a shared draw
    from gigopt import BeliefBased

    pol = BeliefBased(alpha=3.0, v1=1.0, v2=1.2, D=100.0)
    rep = fairness_audit(prop5, pol, tau=2, horizon=40)
    assert rep.max_gap > 0.0


def test_belief_fairness_audit_ignores_the_instance_types():
    # a belief audit runs in the policy's own two-type market, so the K of
    # the instance passed in changes nothing
    pol = BeliefBased(alpha=3.0, v1=1.0, v2=1.2, D=100.0)
    reps = [fairness_audit(inst, pol, tau=2, horizon=50)
            for inst in (example1_instance(), prop5_instance(), canonical_instance())]
    assert reps[0] == reps[1] == reps[2]
    assert reps[0].max_gap == 1.0 and not reps[0].fair
