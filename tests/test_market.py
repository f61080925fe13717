"""Market primitives: grids, departures, revenues, fluid quantities, JSON."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gigopt import (
    DegenerateSupply,
    EpsNoisy,
    ExpFloor,
    Linear,
    LinearRev,
    Log,
    MarketInstance,
    Newsvendor,
    Power,
    Quadratic,
    RewardDistribution,
    RewardSet,
    Tabulated,
    WorkerType,
    expected_departure,
    expected_reward,
    fluid_profit,
    fluid_supply,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)
from gigopt.experiments import prop5_instance, canonical_instance, prop5_policy
from gigopt import market
from gigopt.market import MIN_DEPARTURE_FLOOR, _mixture_rate
from gigopt.policies import Static, cyclic_steady_state, fluid_trajectory
from gigopt.sim import SimConfig, simulate
from gigopt.fluid import optimal_fixed_wage, solve_fluid


# --------------------------------------------------------------------------
# Reward grids and distributions


def test_reward_set_validation():
    with pytest.raises(ValueError, match="at least two"):
        RewardSet((1.0,))
    with pytest.raises(ValueError, match="non-negative"):
        RewardSet((-1.0, 2.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        RewardSet((1.0, 1.0))


def test_reward_set_from_range():
    rs = RewardSet.from_range(15.0, 60.0, 1.0)
    assert len(rs) == 46
    assert rs.r_min == 15.0 and rs.r_max == 60.0
    assert rs.index_of(37.0) == 22
    with pytest.raises(ValueError, match="not on the grid"):
        rs.index_of(37.5)


def test_reward_range_points_are_capped_before_the_grid_is_built(monkeypatch):
    # a quotient that overflows is refused, or read as a reversed range, not
    # turned into an int
    with pytest.raises(ValueError, match="rewards inf needs inf x 1 table entries"):
        RewardSet.from_range(0.0, 1e300, 1e-10)
    with pytest.raises(ValueError, match="at least two rewards"):
        RewardSet.from_range(1e308, -1e308, 1.0)
    monkeypatch.setattr(market, "_MAX_TABLE", 45)
    assert len(RewardSet.from_range(15.0, 59.0, 1.0)) == 45
    with pytest.raises(ValueError, match="rewards 46.0 needs 46.0 x 1 table entries, more than the cap of 45"):
        RewardSet.from_range(15.0, 60.0, 1.0)


def test_index_of_tolerance_and_first_match():
    rs = RewardSet.from_range(15.0, 60.0, 1.0)
    # within 1e-9 relative of 37 on either side
    assert rs.index_of(37.0 + 3e-8) == 22
    assert rs.index_of(37.0 - 3e-8) == 22
    with pytest.raises(ValueError, match="not on the grid"):
        rs.index_of(37.0 + 4e-8)
    # both rewards lie within tolerance of 1e12 + 1: the first one wins
    wide = RewardSet((1e12, 1e12 + 1.0, 1e12 + 1e4))
    assert wide.index_of(1e12 + 1.0) == 0
    assert wide.index_of(1e12 + 1e4) == 2


def _first_match(values, r):
    """The first of values within 1e-9 * max(1, |v|) of r, by a linear scan."""
    return next((k for k, v in enumerate(values) if abs(v - r) <= 1e-9 * max(1.0, abs(v))), None)


@st.composite
def _grids_and_rewards(draw):
    """A strictly increasing grid, negatives included, whose points may sit
    within matching tolerance of each other, and a reward on, near or off it."""
    offsets = st.sampled_from([0.0, 1e-10, -1e-10, 6e-10, -6e-10, 2e-9, -2e-9, 1e-6, 1.0])
    centres = draw(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=6))
    vals = sorted({c + draw(offsets) * max(1.0, abs(c)) for c in centres for _ in range(draw(st.integers(1, 3)))})
    v = draw(st.sampled_from(vals))
    r = draw(st.one_of(st.just(v), offsets.map(lambda o: v + o * max(1.0, abs(v))), st.floats(-1e12, 1e12)))
    return tuple(vals), r


@settings(max_examples=300)
@given(_grids_and_rewards())
# 1e12 + 1 is within tolerance of both 1e12 and itself: the first one wins
@example(((1e12, 1e12 + 1.0, 1e12 + 1e4), 1e12 + 1.0))
def test_grid_match_is_the_first_match_of_a_linear_scan(grid_and_reward):
    vals, r = grid_and_reward
    k = market._match(vals, r)
    assert k == _first_match(vals, r)
    if k is None:
        with pytest.raises(ValueError, match="not in the domain"):
            RewardDistribution.point_mass(vals, r)
    else:
        assert RewardDistribution.point_mass(vals, r).weights[k] == 1.0
    x = RewardDistribution.on(vals, [1.0 / len(vals)] * len(vals))
    assert x.weight_at(r) == (0.0 if k is None else x.weights[k])


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        RewardDistribution((1.0, 2.0), (0.5, 0.6))
    with pytest.raises(ValueError, match="strictly increasing"):
        RewardDistribution((2.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="non-negative"):
        RewardDistribution((1.0, 2.0), (-0.1, 1.1))


@pytest.mark.parametrize("ws", [(0.5, 0.5), [1, 0], (-1e-13, 1.0 + 1e-13), (-0.0, 1.0), (0.25, 0.75 + 9e-13)])
def test_distribution_keeps_the_weight_rule_floats(ws):
    # the one weight rule that the pay-spread rows apply without building a
    # distribution: floats, negative dust snapped to 0, the sum within 1e-12
    got = RewardDistribution((1.0, 2.0), ws).weights
    assert got == market._unit_weights(ws) and all(type(w) is float for w in got)
    assert min(got) >= 0.0


def test_point_mass_and_two_point():
    rs = RewardSet((0.0, 1.0, 2.0))
    pm = RewardDistribution.point_mass(rs, 1.0)
    assert pm.weight_at(1.0) == 1.0
    assert pm.support() == ((1.0, 1.0),)
    with pytest.raises(ValueError, match="not in the domain"):
        RewardDistribution.point_mass(rs, 1.5)
    tp = RewardDistribution.two_point(0.0, 2.0, 0.25)
    assert tp.weight_at(0.0) == 0.75 and tp.weight_at(2.0) == 0.25
    with pytest.raises(ValueError, match="r_low < r_high"):
        RewardDistribution.two_point(2.0, 2.0, 0.5)


def test_expected_reward_is_the_mean():
    x = RewardDistribution.two_point(15.0, 60.0, 0.2)
    assert expected_reward(x) == pytest.approx(0.8 * 15.0 + 0.2 * 60.0, rel=1e-15)


# --------------------------------------------------------------------------
# Departure families


def test_exp_floor_flat_then_decaying():
    dep = ExpFloor(alpha=0.07, floor=15.0)
    assert float(dep.rate(10.0)) == 1.0
    assert float(dep.rate(15.0)) == 1.0
    # l(35) = exp(-0.07 * 20)
    assert float(dep.rate(35.0)) == pytest.approx(0.2465969639416065, rel=1e-15)


def test_linear_clamps():
    dep = Linear(alpha=1.0 / 45.0, beta=4.0 / 3.0)
    assert float(dep.rate(15.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(dep.rate(60.0)) == 0.0
    assert float(dep.rate(100.0)) == 0.0


def test_quadratic_endpoints_exact():
    dep = Quadratic(alpha=1.0 / 2025.0, beta=2.0 / 135.0, gamma=8.0 / 9.0)
    assert float(dep.rate(15.0)) == 1.0
    assert float(dep.rate(60.0)) == 0.0


def test_eps_noisy_ramp():
    dep = EpsNoisy(v=25.0, eps=15.0)
    assert float(dep.rate(10.0)) == 1.0
    assert float(dep.rate(25.0)) == 0.5
    assert float(dep.rate(40.0)) == 0.0
    with pytest.raises(ValueError, match="eps"):
        EpsNoisy(v=25.0, eps=0.0)


def test_tabulated_off_grid_rejected():
    dep = Tabulated((0.0, 1.0), (0.8, 0.3))
    assert dep.rate(1.0) == 0.3
    with pytest.raises(ValueError, match="off its grid"):
        dep.rate(0.5)
    with pytest.raises(ValueError, match="non-increasing"):
        Tabulated((0.0, 1.0), (0.3, 0.8))


@given(st.floats(min_value=0.0, max_value=1.0))
def test_expected_departure_interpolates_tabulated(w):
    worker = WorkerType(1.0, Tabulated((0.0, 1.0), (0.9, 0.4)))
    x = RewardDistribution((0.0, 1.0), (1.0 - w, w))
    assert expected_departure(worker, x) == pytest.approx(0.9 * (1.0 - w) + 0.4 * w, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_shifting_mass_upward_never_raises_departure(w1, w2):
    # l is non-increasing, so first-order dominance lowers the mixture rate
    worker = WorkerType(2.0, ExpFloor(alpha=0.1, floor=5.0))
    lo, hi = sorted((w1, w2))
    x_lo = RewardDistribution((10.0, 30.0), (1.0 - lo, lo))
    x_hi = RewardDistribution((10.0, 30.0), (1.0 - hi, hi))
    assert expected_departure(worker, x_hi) <= expected_departure(worker, x_lo) + 1e-12


def _scalar_mixture_rate(departure, support):
    """The per-reward form of the mixture rate: one scalar rate call per
    positive-weight reward, an exact sum, a clamp into [0, 1]."""
    total = math.fsum(float(departure.rate(r)) * w for r, w in support if w > 0.0)
    return min(1.0, max(0.0, total))


_GRID = (0.0, 5.0, 12.5, 20.0, 31.0, 47.5)
_ANALYTIC = st.one_of(
    st.builds(ExpFloor, st.floats(0.01, 2.0), st.floats(0.0, 50.0)),
    st.builds(Linear, st.floats(0.0, 0.2), st.floats(-0.5, 2.0)),
    st.builds(Quadratic, st.floats(0.0, 0.005), st.floats(-0.05, 0.05), st.floats(-0.2, 1.2)),
    st.builds(EpsNoisy, st.floats(0.0, 50.0), st.floats(0.1, 20.0)),
)
_TABULATED = st.lists(st.floats(0.0, 1.0), min_size=len(_GRID), max_size=len(_GRID)).map(
    lambda vs: Tabulated(_GRID, tuple(sorted(vs, reverse=True)))
)
# weights of exactly zero are common, so skipped rewards get exercised
_WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=len(_GRID))


@given(_ANALYTIC, st.lists(st.floats(0.0, 60.0), min_size=1, max_size=8, unique=True), _WEIGHTS)
def test_mixture_rate_matches_scalar_sum_analytic(departure, rewards, weights):
    # analytic families are defined everywhere, off any grid too
    support = list(zip(rewards, weights))
    assert _mixture_rate(departure, support) == _scalar_mixture_rate(departure, support)


@given(_TABULATED, _WEIGHTS, st.floats(0.1, 4.9))
def test_mixture_rate_matches_scalar_sum_tabulated(departure, weights, offset):
    support = list(zip(_GRID, weights))
    assert _mixture_rate(departure, support) == _scalar_mixture_rate(departure, support)
    # an off-grid reward with zero weight is skipped; with positive weight it raises
    off = _GRID[0] + offset
    assert _mixture_rate(departure, support + [(off, 0.0)]) == _scalar_mixture_rate(departure, support)
    with pytest.raises(ValueError, match="off its grid"):
        _mixture_rate(departure, support + [(off, 0.5)])


# --------------------------------------------------------------------------
# Revenue families


def test_newsvendor_kink_sides():
    rev = Newsvendor(alpha=100.0, cap=150.0)
    assert float(rev.value(120.0)) == 12000.0
    assert float(rev.value(200.0)) == 15000.0
    assert rev.derivative(150.0, side="left") == 100.0
    assert rev.derivative(150.0, side="right") == 0.0
    assert rev.second_derivative(77.0) == 0.0


def test_power_derivatives():
    rev = Power(c=250.0, beta=0.5)
    assert float(rev.value(4.0)) == 500.0
    assert rev.derivative(4.0) == pytest.approx(62.5, rel=1e-15)
    assert rev.second_derivative(4.0) == pytest.approx(-7.8125, rel=1e-15)
    with pytest.raises(ValueError, match="beta"):
        Power(c=1.0, beta=1.0)


def test_log_and_linear_revenue():
    assert float(Log(c=2.0).value(math.e - 1.0)) == pytest.approx(2.0, rel=1e-15)
    assert LinearRev(alpha=0.7).derivative(123.0) == 0.7


# --------------------------------------------------------------------------
# Instances and fluid quantities


def test_instance_validation():
    rs = RewardSet((15.0, 60.0))
    with pytest.raises(ValueError, match="at least one worker type"):
        MarketInstance(rs, (), Newsvendor(100.0, 150.0))
    with pytest.raises(ValueError, match="arrival rate"):
        WorkerType(0.0, ExpFloor(0.07, 15.0))
    # departure hits zero at r_max: rejected unless explicitly flagged
    t = WorkerType(1.0, Linear(alpha=1.0 / 45.0, beta=4.0 / 3.0))
    with pytest.raises(ValueError, match="eps_noisy_mode"):
        MarketInstance(rs, (t,), Newsvendor(100.0, 150.0))
    MarketInstance(rs, (t,), Newsvendor(100.0, 150.0), eps_noisy_mode=True)


class _Rates:
    """A departure that returns fixed rates on a three-reward grid, in or out
    of range; the built-in families all clamp into [0, 1]."""

    def __init__(self, *values):
        self.values = values

    def rate(self, r):
        return np.array(self.values)


_G3 = RewardSet((1.0, 2.0, 3.0))
_NAN = math.nan


@pytest.mark.parametrize("rates, mode, message", [
    # type 0 rises, type 1 leaves [0, 1]: the first failing type is named
    ([(0.5, 0.6, 0.4), (1.5, 0.5, 0.4)], True, "type 0: departure probabilities increase along the grid"),
    ([(0.5, 0.4, 0.3), (1.5, 0.5, 0.4)], True, "type 1: departure probabilities leave [0, 1] on the grid"),
    ([(0.5, 0.4, 0.0), (0.5, 0.6, 0.4)], False,
     "type 0: departure vanishes at r_max; construct with eps_noisy_mode=True if this is intended"),
    # within one type: range, then increase, then vanishing
    ([(0.5, 0.4, 0.3), (-0.1, 0.6, 0.0)], False, "type 1: departure probabilities leave [0, 1] on the grid"),
    ([(0.5, 0.4, 0.3), (0.5, 0.6, 0.0)], False, "type 1: departure probabilities increase along the grid"),
    # NaN fails every comparison, so it must not slip through
    ([(0.5, _NAN, 0.3)], True, "type 0: departure probabilities leave [0, 1] on the grid (non-finite values [nan])"),
    ([(0.5, 0.4, 0.3), (math.inf, 0.4, -math.inf)], True,
     "type 1: departure probabilities leave [0, 1] on the grid (non-finite values [inf, -inf])"),
], ids=["rise_before_range", "second_type_range", "vanish_first", "range_first", "rise_before_vanish",
        "nan", "inf"])
def test_departure_table_check_names_the_first_failing_type(rates, mode, message):
    types = tuple(WorkerType(1.0, _Rates(*r)) for r in rates)
    with pytest.raises(ValueError) as exc:
        MarketInstance(_G3, types, LinearRev(10.0), eps_noisy_mode=mode)
    assert str(exc.value) == message


def test_departure_table_check_tolerances():
    # 1e-9 either side of [0, 1] and rises up to 1e-12 pass, as before
    inst = MarketInstance(_G3, (WorkerType(1.0, _Rates(1.0 + 5e-10, 1.0 + 5e-10 + 5e-13, -5e-10)),),
                          LinearRev(10.0), eps_noisy_mode=True)
    assert inst.departure_matrix.tolist() == [[1.0 + 5e-10, 1.0 + 5e-10 + 5e-13, -5e-10]]


def test_instance_rejects_non_finite_departure_rates():
    # -alpha r^2 and beta r overflow to -inf and inf at r = 1e10; their sum is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        dep = Quadratic(1e300, 1e300, 0.5)
        assert np.isnan(dep.rate(np.array([1.0, 1e10]))[1])
        with pytest.raises(ValueError, match=r"type 0: .* leave \[0, 1\] .*non-finite values \[nan\]"):
            MarketInstance(RewardSet((1.0, 1e10)), (WorkerType(1.0, dep),), LinearRev(10.0), eps_noisy_mode=True)


_DEPARTURES = ["tabulated", "exp_floor", "linear", "quadratic", "eps_noisy"]


@st.composite
def _grid_instances(draw):
    """Instances of one to three types over every departure family on a
    random grid; the revenue is immaterial to the departure table."""
    grid = tuple(sorted(draw(st.lists(st.floats(0.0, 60.0), min_size=2, max_size=12, unique=True))))
    types = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_DEPARTURES))
        if kind == "tabulated":
            dep = Tabulated(grid, tuple(sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(grid),
                                                             max_size=len(grid))), reverse=True)))
        elif kind == "exp_floor":
            dep = ExpFloor(draw(st.floats(0.01, 2.0)), draw(st.floats(0.0, 50.0)))
        elif kind == "linear":
            dep = Linear(draw(st.floats(0.0, 0.2)), draw(st.floats(0.0, 2.0)))
        elif kind == "quadratic":
            dep = Quadratic(draw(st.floats(0.0, 0.005)), draw(st.floats(-0.05, 0.0)), draw(st.floats(0.0, 1.2)))
        else:
            dep = EpsNoisy(draw(st.floats(0.0, 60.0)), draw(st.floats(0.1, 20.0)))
        types.append(WorkerType(draw(st.floats(0.5, 5.0)), dep))
    revenue = draw(st.sampled_from([LinearRev(40.0), Power(250.0, 0.5), Log(300.0), Newsvendor(60.0, 20.0)]))
    return MarketInstance(RewardSet(grid), tuple(types), revenue, eps_noisy_mode=True)


@given(_grid_instances())
def test_departure_table_is_each_rate_on_the_grid(inst):
    mat = inst.departure_matrix
    assert mat.shape == (inst.K, len(inst.rewards)) and not mat.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 0.5
    grid = np.asarray(inst.rewards.values)
    for row, t in zip(mat, inst.types):
        assert row.tobytes() == np.asarray(t.departure.rate(grid), dtype=float).tobytes()


@given(_grid_instances())
def test_pickled_instance_is_rebuilt_read_only(inst):
    inst.lambdas  # a cached copy must not travel writeable either
    back = pickle.loads(pickle.dumps(inst))
    assert back == inst and back.eps_noisy_mode == inst.eps_noisy_mode
    for name in ("departure_matrix", "lambdas"):
        got, want = getattr(back, name), getattr(inst, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.flat[0] = 0.5


@st.composite
def _on_grid_pay(draw):
    """An instance and a distribution on its grid with 1 to m support cells."""
    inst = draw(_grid_instances())
    m = len(inst.rewards)
    cells = sorted(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(cells), max_size=len(cells)))
    ws = [0.0] * m
    for c, w in zip(cells, raw):
        ws[c] = w / math.fsum(raw)
    ws[cells[-1]] = 0.0
    ws[cells[-1]] = 1.0 - math.fsum(ws)
    assume(ws[cells[-1]] >= 0.0)
    return inst, RewardDistribution.on(inst.rewards, ws)


@given(_on_grid_pay())
def test_fluid_supply_and_profit_match_per_type_expected_departure(case):
    inst, x = case
    # the reference: each type's expected_departure, which calls rate on the support
    lhat = np.array([expected_departure(t, x) for t in inst.types])
    # the same support as its own domain, off the instance grid
    off = RewardDistribution(tuple(r for r, _ in x.support()), tuple(w for _, w in x.support()))
    if (lhat < MIN_DEPARTURE_FLOOR).any():
        for dist in (x, off):
            with pytest.raises(DegenerateSupply):
                fluid_supply(inst, dist)
        return
    want = inst.lambdas / lhat
    total = float(want.sum())
    rhat = expected_reward(x)
    for dist in (x, off):
        assert fluid_supply(inst, dist).tobytes() == want.tobytes()
    out = fluid_profit(inst, x)
    assert out.supply_per_type == tuple(float(v) for v in want)
    assert out.total_supply == total
    assert out.profit == float(inst.revenue.value(total)) - rhat * total


class _Counted:
    """A departure that counts its rate calls."""

    def __init__(self, departure):
        self.departure, self.calls = departure, 0

    def rate(self, r):
        self.calls += 1
        return self.departure.rate(r)


def test_on_grid_readers_never_call_rate_again():
    # rate runs once per type when the instance is built, and never again
    # for distributions on its grid: the solver, fluid_profit, the policy
    # engine and the simulator read the departure table
    for inst, policy in ((canonical_instance(), None), (prop5_instance(), prop5_policy())):
        deps = [_Counted(t.departure) for t in inst.types]
        inst = MarketInstance(inst.rewards, tuple(WorkerType(t.lam, d) for t, d in zip(inst.types, deps)),
                              inst.revenue, inst.eps_noisy_mode)
        assert [d.calls for d in deps] == [1] * inst.K
        out = solve_fluid(inst)
        optimal_fixed_wage(inst)
        policy = policy or Static(out.x)
        fluid_profit(inst, out.x)
        fluid_trajectory(inst, policy, 20)
        if len(policy.distributions) > 1:
            cyclic_steady_state(inst, policy)
        simulate(inst, policy, SimConfig(theta=1, periods=30, burn_in=10, replications=2, seed=1))
        assert [d.calls for d in deps] == [1] * inst.K


def test_fluid_supply_single_type():
    # lambda / l_hat with l_hat = exp(-1.4)
    inst = MarketInstance(
        RewardSet.from_range(15.0, 60.0, 1.0),
        (WorkerType(10.0, ExpFloor(0.07, 15.0)),),
        Newsvendor(100.0, 150.0),
    )
    x = RewardDistribution.point_mass(inst.rewards, 35.0)
    n = fluid_supply(inst, x)
    assert n.shape == (1,)
    assert n[0] == pytest.approx(40.55199966844675, rel=1e-12)


def test_fluid_supply_degenerate():
    inst = MarketInstance(
        RewardSet((15.0, 60.0)),
        (WorkerType(1.0, Linear(alpha=1.0 / 45.0, beta=4.0 / 3.0)),),
        Newsvendor(100.0, 150.0),
        eps_noisy_mode=True,
    )
    with pytest.raises(DegenerateSupply):
        fluid_supply(inst, RewardDistribution.point_mass(inst.rewards, 60.0))


def test_fluid_profit_canonical_fixed_wage(canon):
    out = fluid_profit(canon, RewardDistribution.point_mass(canon.rewards, 35.0))
    assert out.supply_per_type[1] == pytest.approx(6.0, rel=1e-12)
    assert out.total_supply == pytest.approx(sum(out.supply_per_type), rel=1e-15)
    assert out.expected_reward == 35.0
    assert out.profit == pytest.approx(1538.626659483013, rel=1e-12)


def test_fluid_profit_pay_zero_full_retention():
    # paying 0 on the two-type cyclic instance: both types settle at
    # lambda/l(0), so N = 2 and profit = R(2) = 1.4
    inst = prop5_instance(r=1.0, alpha=0.7)
    x = RewardDistribution.point_mass(inst.rewards, 0.0)
    out = fluid_profit(inst, x)
    assert out.total_supply == pytest.approx(2.0, rel=1e-12)
    assert out.profit == pytest.approx(1.4, rel=1e-12)


@given(st.integers(min_value=0, max_value=45))
def test_point_mass_profit_matches_hand_formula(k):
    inst = canonical_instance()
    r = 15.0 + float(k)
    x = RewardDistribution.point_mass(inst.rewards, r)
    try:
        out = fluid_profit(inst, x)
    except DegenerateSupply:
        return  # top rewards retain some types forever
    n = sum(
        t.lam / float(t.departure.rate(r)) for t in inst.types if float(t.departure.rate(r)) > 0
    )
    assert out.total_supply == pytest.approx(n, rel=1e-12)
    assert out.profit == pytest.approx(100.0 * min(n, 150.0) - r * n, rel=1e-12)


# --------------------------------------------------------------------------
# JSON round trips


def test_instance_round_trip(canon):
    d = instance_to_dict(canon)
    again = instance_from_dict(json.loads(json.dumps(d)))
    assert again == canon


def test_tabulated_round_trip():
    inst = MarketInstance(
        RewardSet((0.0, 1.0)),
        (WorkerType(1.5, Tabulated((0.0, 1.0), (0.9, 0.4))),),
        LinearRev(alpha=2.0),
    )
    assert instance_from_dict(instance_to_dict(inst)) == inst


def test_load_instance_range_schema(tmp_path):
    doc = {
        "rewards": {"min": 15.0, "max": 60.0, "step": 1.0},
        "types": [{"lambda": 10.0, "departure": {"kind": "exp_floor", "alpha": 0.07, "floor": 15.0}}],
        "revenue": {"kind": "newsvendor", "alpha": 100.0, "cap": 150.0},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert len(inst.rewards) == 46
    assert inst.types[0].departure == ExpFloor(0.07, 15.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown"):
        instance_from_dict(
            {
                "rewards": [0.0, 1.0],
                "types": [{"lambda": 1.0, "departure": {"kind": "mystery"}}],
                "revenue": {"kind": "linear", "alpha": 1.0},
            }
        )


_EVERY_DEPARTURE = (
    ExpFloor(alpha=0.5, floor=0.0),
    Linear(alpha=0.3, beta=0.9),
    Quadratic(alpha=0.05, beta=-0.1, gamma=0.9),
    EpsNoisy(v=1.0, eps=1.5),
    Tabulated((0.0, 1.0, 2.0), (0.9, 0.5, 0.2)),
)


@pytest.mark.parametrize(
    "revenue", [Newsvendor(alpha=3.0, cap=4.0), Power(c=2.0, beta=0.5), Log(c=5.0), LinearRev(alpha=2.5)]
)
def test_every_kind_round_trips(revenue):
    inst = MarketInstance(
        RewardSet((0.0, 1.0, 2.0)),
        tuple(WorkerType(1.0 + k, dep) for k, dep in enumerate(_EVERY_DEPARTURE)),
        revenue,
    )
    text = json.dumps(instance_to_dict(inst))
    again = instance_from_dict(json.loads(text))
    assert again == inst
    assert json.dumps(instance_to_dict(again)) == text


def test_canonical_instance_json_text_is_stable():
    rewards = ", ".join(f"{r:.1f}" for r in range(15, 61))
    lam = '"lambda": 3.3333333333333335'
    assert json.dumps(instance_to_dict(canonical_instance())) == (
        f'{{"rewards": [{rewards}], "types": ['
        f'{{{lam}, "departure": {{"kind": "exp_floor", "alpha": 0.07, "floor": 15.0}}}}, '
        f'{{{lam}, "departure": {{"kind": "linear", "alpha": 0.022222222222222223, "beta": 1.3333333333333333}}}}, '
        f'{{{lam}, "departure": {{"kind": "quadratic", "alpha": 0.0004938271604938272, '
        '"beta": 0.014814814814814815, "gamma": 0.8888888888888888}}], '
        '"revenue": {"kind": "newsvendor", "alpha": 100.0, "cap": 150.0}, "eps_noisy_mode": true}'
    )


@pytest.mark.parametrize("departure, revenue, message", [
    ({"kind": "exp_floor", "floor": 0.0}, {"kind": "linear", "alpha": 1.0},
     "departure kind 'exp_floor': field 'alpha' must be a number"),
    ({"kind": "tabulated", "values": 3}, {"kind": "linear", "alpha": 1.0},
     "departure kind 'tabulated': field 'values' must be a list"),
    ({"alpha": 1.0, "beta": 1.0}, {"kind": "linear", "alpha": 1.0},
     "departure must be an object with a 'kind'"),
    ({"kind": "linear", "alpha": 0.2, "beta": 1.0}, {"kind": "power", "c": 1.0, "beta": None},
     "revenue kind 'power': field 'beta' must be a number"),
    ({"kind": "linear", "alpha": 0.2, "beta": 1.0}, [1], "revenue must be an object with a 'kind'"),
])
def test_malformed_kind_fields_name_family_kind_and_field(departure, revenue, message):
    doc = {"rewards": [0.0, 1.0], "types": [{"lambda": 1.0, "departure": departure}], "revenue": revenue}
    with pytest.raises(ValueError, match=message):
        instance_from_dict(doc)
