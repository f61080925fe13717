"""Noisy-entry analytics: closed-form lotteries, the capped-revenue special
case, surplus accounting, and crossover detection."""

import contextlib
import json
import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gigopt import noisy as noisy_layer
from gigopt.fluid import solve_fluid_many
from gigopt.experiments import double_threshold_instance, float_range, noisy_newsvendor_instance, noisy_sqrt_instance
from gigopt.market import (
    MIN_DEPARTURE_FLOOR,
    DegenerateSupply,
    EpsNoisy,
    LinearRev,
    Log,
    Newsvendor,
    Power,
    RewardDistribution,
    WorkerType,
    expected_departure,
    expected_reward,
)
from gigopt.noisy import (
    AssumptionViolated,
    GridMismatch,
    InvalidRegime,
    MetricCurve,
    Metrics,
    NoisyInstance,
    detect_double_threshold,
    load_noisy,
    market_instance,
    newsvendor_optimal,
    noisy_from_dict,
    noisy_metrics,
    noisy_to_dict,
    optimal_noisy,
    surplus_curve,
)

EPS_GRID = [float(e) for e in np.linspace(0.25, 25.0, 100)]


# --------------------------------------------------------------------------
# Instance construction


def test_noisy_instance_validation():
    ok = dict(lambdas=(1.0,), values=(25.0,), epsilon=5.0,
              revenue=Power(c=250.0, beta=0.5), r_min=0.0, r_max=100.0)
    with pytest.raises(ValueError, match="per worker value"):
        NoisyInstance(**{**ok, "lambdas": (1.0, 2.0)})
    with pytest.raises(ValueError, match="positive"):
        NoisyInstance(**{**ok, "lambdas": (0.0,)})
    with pytest.raises(ValueError, match="r_min < r_max"):
        NoisyInstance(**{**ok, "r_max": 0.0})
    with pytest.raises(ValueError, match="strictly inside"):
        NoisyInstance(**{**ok, "values": (100.0,)})
    with pytest.raises(ValueError, match="non-negative"):
        NoisyInstance(**{**ok, "epsilon": -1.0})
    assert NoisyInstance(**ok).with_epsilon(9.0).epsilon == 9.0


def test_market_instance_grid_is_bounds_plus_breakpoints():
    sq = noisy_sqrt_instance(5.0)
    assert market_instance(sq).rewards.values == (0.0, 20.0, 25.0, 30.0, 100.0)
    # breakpoints outside the reward range are clipped away
    assert market_instance(sq.with_epsilon(30.0)).rewards.values == (0.0, 25.0, 55.0, 100.0)
    with pytest.raises(AssumptionViolated, match="positive noise"):
        market_instance(sq.with_epsilon(0.0))


def test_market_instance_merges_colliding_breakpoints():
    two = NoisyInstance(lambdas=(1.0, 1.0), values=(25.0, 30.0), epsilon=2.5,
                        revenue=Power(c=250.0, beta=0.5), r_min=0.0, r_max=100.0)
    # 25 + 2.5 and 30 - 2.5 collapse into one grid point
    assert market_instance(two).rewards.values == (0.0, 22.5, 25.0, 27.5, 30.0, 32.5, 100.0)


# --------------------------------------------------------------------------
# Single-type closed form


def test_optimal_noisy_closed_form():
    sq = noisy_sqrt_instance(5.0)
    sol = optimal_noisy(sq)
    assert sol.eps0 == pytest.approx(125.0 / math.sqrt(10.0) - 25.0, abs=1e-9)
    assert sol.x_star == pytest.approx(0.424, abs=1e-9)
    assert sol.distribution.support_rewards() == (0.0, 30.0)
    # R'(lam/(1-x)) = v + eps inverts to 1 - x = lam ((v+eps)/c)^2 here
    for e in (1.0, 5.0, 10.0, 14.0):
        got = optimal_noisy(sq.with_epsilon(e)).x_star
        assert got == pytest.approx(1.0 - 10.0 * ((25.0 + e) / 125.0) ** 2, abs=1e-9)


def test_optimal_noisy_stops_paying_beyond_eps0():
    sq = noisy_sqrt_instance(5.0)
    sol = optimal_noisy(sq.with_epsilon(15.0))  # eps0 ~ 14.53
    assert sol.x_star == 0.0
    assert sol.distribution.support_rewards() == (0.0,)


def test_optimal_noisy_assumptions():
    sq = noisy_sqrt_instance(5.0)
    with pytest.raises(AssumptionViolated, match="single worker type"):
        optimal_noisy(NoisyInstance(lambdas=(1.0, 1.0), values=(25.0, 30.0), epsilon=5.0,
                                    revenue=Power(c=250.0, beta=0.5), r_min=0.0, r_max=100.0))
    with pytest.raises(AssumptionViolated, match="strictly concave"):
        optimal_noisy(NoisyInstance(lambdas=(10.0,), values=(25.0,), epsilon=5.0,
                                    revenue=LinearRev(alpha=40.0), r_min=0.0, r_max=100.0))
    with pytest.raises(AssumptionViolated, match="exceeds the reward range slack"):
        optimal_noisy(sq.with_epsilon(26.0))
    with pytest.raises(AssumptionViolated, match="non-triviality"):
        optimal_noisy(NoisyInstance(lambdas=(10.0,), values=(25.0,), epsilon=5.0,
                                    revenue=Power(c=10000.0, beta=0.5), r_min=0.0, r_max=100.0))


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block after seconds, so a loop that never
    ends fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_optimal_noisy_tolerance_must_be_finite_and_positive(tol):
    # the bisection never stops at tol <= 0 and stops at once at NaN or inf,
    # returning the unrefined bracket
    with _deadline(10), pytest.raises(ValueError, match="tol must be finite and positive"):
        optimal_noisy(noisy_sqrt_instance(), tol=tol)


def test_optimal_noisy_tolerance_below_float_spacing_returns():
    # a bracket one float step wide cannot shrink to 1e-300: it stops there
    with _deadline(10):
        got = optimal_noisy(noisy_sqrt_instance(), tol=1e-300).x_star
    assert got == pytest.approx(optimal_noisy(noisy_sqrt_instance()).x_star, abs=1e-12)


@pytest.mark.parametrize("name", ["alpha", "d", "lam", "v", "eps"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_newsvendor_optimal_rejects_non_finite_inputs(name, bad):
    args = dict(alpha=40.0, d=300.0, lam=10.0, v=25.0, eps=1.0)
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
        newsvendor_optimal(**args)


def test_newsvendor_optimal():
    for e in (0.0, 5.0, 15.0):
        assert newsvendor_optimal(40.0, 300.0, 10.0, 25.0, e) == pytest.approx(29.0 / 30.0, rel=1e-12)
    assert newsvendor_optimal(40.0, 300.0, 10.0, 25.0, 15.000001) == 0.0
    with pytest.raises(InvalidRegime):
        newsvendor_optimal(40.0, 10.0, 10.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        newsvendor_optimal(0.0, 300.0, 10.0, 25.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        newsvendor_optimal(40.0, 300.0, 10.0, 25.0, -1.0)


# --------------------------------------------------------------------------
# Metrics


def test_noisy_metrics_accounting_identity():
    sq = noisy_sqrt_instance(5.0)
    m = noisy_metrics(sq, optimal_noisy(sq).distribution)
    assert m.profit == pytest.approx(820.8333333333, abs=1e-6)
    assert m.surplus == pytest.approx(-213.1944444444, abs=1e-6)
    assert m.welfare == pytest.approx(607.6388888889, abs=1e-6)
    assert m.welfare - m.profit - m.surplus == pytest.approx(0.0, abs=1e-9)


def test_degenerate_distribution_rejected():
    sq = noisy_sqrt_instance(5.0)
    never_leaves = RewardDistribution.point_mass((0.0, 30.0), 30.0)  # rate(v + eps) = 0
    with pytest.raises(DegenerateSupply, match="never departs"):
        noisy_metrics(sq, never_leaves)


def test_scaled_surpluses_single_type():
    sq = noisy_sqrt_instance(5.0)
    dist = optimal_noisy(sq).distribution
    m = noisy_metrics(sq, dist)
    # expected pay 12.72 < value 25: rational workers would not enter
    assert m.rational == 0.0
    # with one type the excess-weighted average is just surplus
    assert m.myopic == pytest.approx(m.surplus, rel=1e-9)
    # full turnover retains nobody
    pay_floor = RewardDistribution.point_mass((0.0, 30.0), 0.0)
    assert noisy_metrics(sq, pay_floor).myopic == 0.0


def _separate_metrics(noisy, x):
    """The five metrics as three separate functions once computed them, each
    from its own supply vector; the reference for noisy_metrics."""

    def supplies(at):
        lhats = [expected_departure(WorkerType(l, EpsNoisy(v=v, eps=at.epsilon)), x)
                 for l, v in zip(at.lambdas, at.values)]
        if min(lhats) < MIN_DEPARTURE_FLOOR:
            raise DegenerateSupply("never departs")
        return np.array([l / h for l, h in zip(at.lambdas, lhats)])

    rhat = expected_reward(x)
    lam, vals = np.asarray(noisy.lambdas), np.asarray(noisy.values)

    n = supplies(noisy)
    total = float(n.sum())
    revenue = float(noisy.revenue.value(total))
    profit = revenue - rhat * total
    surplus = float(np.dot(rhat - np.asarray(noisy.values), n))
    welfare = revenue - float(np.dot(noisy.values, n))

    n = supplies(noisy.with_epsilon(noisy.epsilon))
    total = float(n.sum())
    entering = rhat >= vals - 1e-12
    rational = 0.0
    if entering.any():
        num = float(np.dot(lam[entering], rhat - vals[entering]))
        rational = total * num / float(lam[entering].sum())

    n = supplies(noisy.with_epsilon(noisy.epsilon))
    total = float(n.sum())
    excess = n - lam
    denom = float(excess.sum())
    myopic = 0.0
    if not denom < 1e-9 * float(lam.sum()):
        myopic = total * float(np.dot(excess, rhat - vals)) / denom
    return profit, surplus, welfare, rational, myopic


_REVENUES = st.one_of(
    st.builds(Power, c=st.floats(10.0, 500.0), beta=st.floats(0.2, 0.9)),
    st.builds(Newsvendor, alpha=st.floats(5.0, 100.0), cap=st.floats(1.0, 300.0)),
    st.builds(Log, c=st.floats(10.0, 800.0)),
)


@st.composite
def _noisy_and_pay(draw):
    """A noisy instance (K <= 4) and a pay distribution whose support mixes
    the bounds, off-grid points and each type's ramp top v + eps."""
    k = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(1.0, 99.0), min_size=k, max_size=k))
    noisy = NoisyInstance(
        lambdas=tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))),
        values=tuple(values),
        epsilon=draw(st.floats(0.01, 30.0)),
        revenue=draw(_REVENUES),
        r_min=0.0,
        r_max=100.0,
    )
    points = {0.0, 100.0} | {min(100.0, v + noisy.epsilon) for v in values}
    points |= set(draw(st.lists(st.floats(0.0, 100.0), max_size=3)))
    support = sorted(draw(st.lists(st.sampled_from(sorted(points)), min_size=1, max_size=4, unique=True)))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    weights = [w / math.fsum(raw) for w in raw]
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return noisy, RewardDistribution(tuple(support), tuple(weights))


_TWO_TYPES = NoisyInstance(lambdas=(2.0, 3.0), values=(30.0, 45.0), epsilon=4.0,
                           revenue=Power(c=250.0, beta=0.5), r_min=0.0, r_max=100.0)
_TIE_PAY = RewardDistribution((0.0, 90.0), (2.0 / 3.0, 1.0 / 3.0))
# the first value sits one ulp above the expected pay: a tie, so that type enters
_TIE = NoisyInstance(lambdas=(2.0, 3.0), values=(math.nextafter(expected_reward(_TIE_PAY), math.inf), 45.0),
                     epsilon=4.0, revenue=Power(c=250.0, beta=0.5), r_min=0.0, r_max=100.0)


@settings(max_examples=300, deadline=None)
@given(_noisy_and_pay())
# no type enters: the expected pay 3.4 is below both values
@example((_TWO_TYPES, RewardDistribution((0.0, 34.0), (0.9, 0.1))))
# no retention: paying r_min makes every arrival leave at once
@example((_TWO_TYPES, RewardDistribution((0.0, 100.0), (1.0, 0.0))))
# retained mass 1e-12 of the arrivals: negligible, so the myopic surplus is zeroed
@example((_TWO_TYPES, RewardDistribution((0.0, 100.0), (1.0 - 1e-12, 1e-12))))
@example((_TIE, _TIE_PAY))
# an off-grid ramp top v + eps and an interior point
@example((_TWO_TYPES, RewardDistribution((0.0, 34.0, 49.0), (0.5, 0.2, 0.3))))
def test_noisy_metrics_match_the_separate_computations(case):
    noisy, x = case
    try:
        want = _separate_metrics(noisy, x)
    except DegenerateSupply:
        with pytest.raises(DegenerateSupply):
            noisy_metrics(noisy, x)
        return
    assert tuple(noisy_metrics(noisy, x)) == want


@pytest.mark.parametrize("noisy", [double_threshold_instance(25.0), double_threshold_instance(75.0), _TWO_TYPES,
                                   _TIE], ids=["cap25", "cap75", "two_types", "tie"])
def test_surplus_curve_levels_score_as_noisy_metrics(noisy):
    # a multi-type level is scored from its winner's supply, which must be
    # the supply noisy_metrics computes afresh from the winner's distribution
    eps = EPS_GRID[::4]
    curve = surplus_curve(noisy, eps)
    ats = [noisy.with_epsilon(e) for e in eps]
    outs = solve_fluid_many([market_instance(at) for at in ats])
    for k, (at, out) in enumerate(zip(ats, outs)):
        assert tuple(getattr(curve, f)[k] for f in Metrics._fields) == tuple(noisy_metrics(at, out.x))


def test_surplus_curve_evaluates_each_rate_once_per_level(monkeypatch):
    calls = []
    rate = EpsNoisy.rate
    monkeypatch.setattr(EpsNoisy, "rate", lambda self, r: calls.append(self) or rate(self, r))
    noisy = double_threshold_instance(75.0)
    surplus_curve(noisy, EPS_GRID[:10])
    # one call per type and level, when the level's instance builds its table
    assert len(calls) == noisy.K * 10


def test_surplus_curve_builds_each_level_grid_once(monkeypatch):
    # the grids that size the pair tables are the ones the levels' instances use
    built = []
    grid = noisy_layer._grid
    monkeypatch.setattr(noisy_layer, "_grid", lambda noisy, eps: built.append(eps) or grid(noisy, eps))
    surplus_curve(double_threshold_instance(75.0), EPS_GRID[:10])
    assert built == [float(e) for e in EPS_GRID[:10]]


def test_an_oversized_curve_is_refused_before_any_level_is_built(monkeypatch):
    # 10^5 noise levels solved as one group need more pair-table entries than
    # the cap: refused from the levels' grid sizes, before any level's
    # MarketInstance exists
    built = []
    monkeypatch.setattr(noisy_layer, "MarketInstance", lambda *args, **kw: built.append(args))
    eps = [e for e in float_range(0.0, 0.00025, 25.0, ("start", "step", "stop")) if e > 0.0]
    with pytest.raises(ValueError, match="reward pairs 5499905 needs 5499905 x 32 table entries"):
        surplus_curve(double_threshold_instance(75.0), eps)
    assert built == []


# --------------------------------------------------------------------------
# Curves over noise levels


def test_surplus_curve_matches_recorded_multi_type_curve():
    # recorded before the noise levels were batched into one solve_fluid_many call
    curve = surplus_curve(double_threshold_instance(75.0), [0.5, 2.0, 3.5, 5.0, 6.5, 8.0, 9.5, 11.0, 12.5, 14.0])
    assert curve == MetricCurve(
        eps=(0.5, 2.0, 3.5, 5.0, 6.5, 8.0, 9.5, 11.0, 12.5, 14.0),
        x_star=(0.9512195121951219, 0.9512195121951219, 0.9503161896786405, 0.9489720444982586,
                0.9476466019189469, 0.9461670981382564, 0.944333976775195, 0.942499641784464, 0.0, 0.0),
        profit=(1180.7926829268283, 1073.7804878048773, 968.6991445619042, 864.812899878917,
                761.1849029664872, 658.2364321078148, 556.535835094182, 455.25096718194527, 400.0, 400.0),
        surplus=(-122.45934959349603, -15.447154471544978, 83.42220158415545, 178.47211750920525,
                 273.83104526664874, 365.9351645862309, 451.2641915631222, 536.9909887858415,
                 -316.6666666666667, -316.6666666666667),
        welfare=(1058.3333333333321, 1058.3333333333321, 1052.1213461460598, 1043.285017388122,
                 1035.0159482331362, 1024.1715966940455, 1007.8000266573044, 992.2419559677871,
                 83.33333333333331, 83.33333333333331),
        rational=(0.0, 51.21951219512168, 156.30085543809395, 260.18710012108124, 363.81509703351173,
                  279.2635678921845, 380.9641649058165, 482.249032818053, 0.0, 0.0),
        myopic=(-55.792682926829364, 51.21951219512169, 149.13317791431876, 242.82365864583966,
                336.91042191790063, 427.34617946223807, 510.15650335655397, 593.4897512424243, 0.0, 0.0),
        eps0=None,
        eps1=11.0,
    )


def test_surplus_curve_grid_validation():
    sq = noisy_sqrt_instance(5.0)
    with pytest.raises(ValueError, match="two grid points"):
        surplus_curve(sq, [1.0])
    with pytest.raises(ValueError, match="positive"):
        surplus_curve(sq, [0.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        surplus_curve(sq, [1.0, 1.0])


def test_sqrt_curve_shapes():
    sq = noisy_sqrt_instance(5.0)
    cur = surplus_curve(sq, EPS_GRID)
    assert cur.eps0 == pytest.approx(125.0 / math.sqrt(10.0) - 25.0, abs=1e-9)
    xs = np.array(cur.x_star)
    assert np.all(np.diff(xs) <= 1e-12)
    assert xs[-1] == 0.0
    assert np.all(np.diff(cur.profit) <= 1e-9)
    inner = np.array(cur.eps) < cur.eps0 - 1e-9
    assert np.diff(np.array(cur.surplus)[inner], 2).max() <= 1e-6  # concave before eps0
    # surplus peaks strictly inside the paying band
    assert 0.0 < cur.eps1 < cur.eps0
    assert cur.eps1 == pytest.approx(6.0, abs=1e-12)


def test_newsvendor_curve_closed_form_lines():
    nv = noisy_newsvendor_instance(5.0)
    cur = surplus_curve(nv, EPS_GRID)
    eps = np.array(cur.eps)
    low = eps <= 15.0 + 1e-12
    np.testing.assert_allclose(np.array(cur.welfare)[low], 4500.0, atol=1e-9)
    np.testing.assert_allclose(np.array(cur.profit)[low], 4750.0 - 290.0 * eps[low], atol=1e-9)
    np.testing.assert_allclose(np.array(cur.surplus)[low], 290.0 * eps[low] - 250.0, atol=1e-9)
    # paying stops exactly past alpha - v, where welfare drops to R(lam) - lam v
    k = int(np.argmin(np.abs(eps - 15.0)))
    assert cur.x_star[k] == pytest.approx(29.0 / 30.0, rel=1e-12)
    assert cur.x_star[k + 1] == 0.0
    np.testing.assert_allclose(np.array(cur.welfare)[~low], 150.0, atol=1e-12)
    assert cur.eps0 == 15.0
    assert cur.eps1 == 15.0
    # one type, everyone identical: both scaled baselines equal the surplus
    band = (eps >= 25.0 / 29.0 + 1e-9) & low
    np.testing.assert_allclose(np.array(cur.rational)[band], np.array(cur.surplus)[band], atol=1e-9)
    np.testing.assert_allclose(np.array(cur.myopic)[band], np.array(cur.surplus)[band], atol=1e-9)


def test_multi_type_curve_runs_through_solver():
    two = NoisyInstance(lambdas=(5.0, 5.0), values=(20.0, 30.0), epsilon=1.0,
                        revenue=Power(c=250.0, beta=0.5), r_min=0.0, r_max=100.0)
    cur = surplus_curve(two, [2.0, 4.0, 6.0])
    assert cur.eps0 is None
    assert all(0.0 <= x <= 1.0 for x in cur.x_star)
    assert all(w - p - s == pytest.approx(0.0, abs=1e-9)
               for w, p, s in zip(cur.welfare, cur.profit, cur.surplus))


# --------------------------------------------------------------------------
# Crossover detection


def _curves(eps, ra, my):
    return list(zip(eps, ra)), list(zip(eps, my))


def test_crossover_identical_curves():
    eps = [1.0, 2.0, 3.0]
    ra, my = _curves(eps, [5.0, 6.0, 7.0], [5.0, 6.0, 7.0])
    assert detect_double_threshold(ra, my).count == 0


def test_crossover_single_sign_change():
    eps = [1.0, 2.0, 3.0, 4.0, 5.0]
    ra, my = _curves(eps, [1.0, 1.0, 1.0, 1.0, 1.0], [2.0, 1.5, 0.5, 0.4, 0.3])
    rep = detect_double_threshold(ra, my)
    assert rep.count == 1
    assert rep.locations == (3.0,)


def test_crossover_terminal_collapse_counts():
    eps = [1.0, 2.0, 3.0, 4.0, 5.0]
    ra, my = _curves(eps, [1.0, 1.0, 1.0, 1.0, 1.0], [2.0, 1.5, 0.5, 1.0, 1.0])
    rep = detect_double_threshold(ra, my)
    assert rep.count == 2
    assert rep.locations == (3.0, 4.0)


def test_crossover_zero_runs_bridge_sign():
    eps = [1.0, 2.0, 3.0]
    ra, my = _curves(eps, [1.0, 1.0, 1.0], [2.0, 1.0, 2.0])
    assert detect_double_threshold(ra, my).count == 0
    ra2, my2 = _curves(eps, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5])
    rep = detect_double_threshold(ra2, my2)
    assert rep.count == 1 and rep.locations == (3.0,)


def test_crossover_shallow_excursions_merge():
    eps = [1.0, 2.0, 3.0, 4.0]
    shallow_ra, shallow_my = _curves(eps, [1.0, 20.0, 1.0, 1.0], [2.0, 19.999, 2.0, 2.0])
    assert detect_double_threshold(shallow_ra, shallow_my).count == 1
    deep_ra, deep_my = _curves(eps, [1.0, 1.5, 1.0, 1.0], [2.0, 1.0, 2.0, 2.0])
    rep = detect_double_threshold(deep_ra, deep_my)
    assert rep.count == 2 and rep.locations == (2.0, 3.0)


def test_crossover_grid_mismatch():
    ra, my = _curves([1.0, 2.0], [1.0, 1.0], [2.0, 2.0])
    with pytest.raises(GridMismatch):
        detect_double_threshold(ra, [(1.0, 2.0), (2.5, 2.0)])
    with pytest.raises(GridMismatch):
        detect_double_threshold(ra, my + [(3.0, 2.0)])


# --------------------------------------------------------------------------
# Serialization


def test_noisy_json_round_trip(tmp_path):
    nv = noisy_newsvendor_instance(7.5)
    assert noisy_from_dict(noisy_to_dict(nv)) == nv
    p = tmp_path / "noisy.json"
    p.write_text(json.dumps(noisy_to_dict(nv)), encoding="utf-8")
    assert load_noisy(p) == nv
    with pytest.raises(ValueError, match="unknown revenue kind"):
        noisy_from_dict({**noisy_to_dict(nv), "revenue": {"kind": "cubic"}})


@pytest.mark.parametrize(
    "revenue", [Newsvendor(alpha=3.0, cap=4.0), Power(c=2.0, beta=0.5), Log(c=5.0), LinearRev(alpha=2.5)]
)
def test_noisy_json_round_trips_every_revenue_kind(revenue):
    noisy = NoisyInstance((1.0, 2.0), (3.0, 4.0), 0.5, revenue, 1.0, 9.0)
    text = json.dumps(noisy_to_dict(noisy))
    again = noisy_from_dict(json.loads(text))
    assert again == noisy
    assert json.dumps(noisy_to_dict(again)) == text
