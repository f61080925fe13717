"""Fluid solvers: pair slices, the global solver vs. the brute-force
oracle, budgeted supply maximization, support reduction, and lotteries."""

import dataclasses
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gigopt import (
    BudgetedInstance,
    DegenerateSupply,
    Dispersion,
    EpsNoisy,
    ExpFloor,
    FluidOutcome,
    InfeasibleInput,
    InvalidMoments,
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
    TooLarge,
    UnsupportedSupport,
    WorkerType,
    brute_force_oracle,
    classify_dispersion,
    expected_reward,
    fluid_profit,
    fluid_supply,
    lottery_distribution,
    lottery_for_instance,
    objective_lipschitz,
    optimal_fixed_wage,
    solve_fluid,
    solve_fluid_many,
    solve_supply_opt,
    support_reduce,
)
from gigopt import fluid, market
from gigopt.experiments import (
    canonical_instance,
    experiment_defaults,
    mixture_instance,
    noisy_sqrt_instance,
    power_variant_instance,
)
from gigopt.fluid import (
    REFINE_TOL,
    SCAN_POINTS,
    _best_outcome,
    _compositions,
    _live_pairs,
    _oracle_with_lipschitz,
    _shifted_rows,
    _slice_bounds,
    _solve_slices,
)
from gigopt.market import MIN_DEPARTURE_FLOOR
from gigopt.noisy import NoisyInstance, market_instance


def _tab_instance(rewards, rates, lam=1.0, revenue=None, **kw):
    rs = RewardSet(tuple(rewards))
    t = WorkerType(lam, Tabulated(rs.values, tuple(rates)))
    return MarketInstance(rs, (t,), revenue or LinearRev(alpha=1.0), **kw)


# --------------------------------------------------------------------------
# Pair slices


def _pair(inst, r_low, r_high):
    """The kernel's optimum of one pair slice as (weight_high, profit); None
    when the slice is degenerate throughout."""
    ii = np.array([inst.rewards.index_of(r_low)])
    jj = np.array([inst.rewards.index_of(r_high)])
    live, pairs, top = _live_pairs(fluid._Group([inst]), ii, jj)
    if len(live) == 0:
        return None
    y, p = _solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf))
    return float(y[0]), float(p[0])


def test_pair_constant_departure_puts_no_mass_high():
    # constant l makes supply constant, so profit falls in the high weight
    inst = _tab_instance((0.0, 10.0), (1.0, 1.0), revenue=LinearRev(alpha=20.0))
    weight_high, profit = _pair(inst, 0.0, 10.0)
    assert weight_high == 0.0
    assert profit == pytest.approx(20.0, rel=1e-12)


def test_pair_nonconvex_slice_prefers_endpoint():
    inst = _tab_instance((0.0, 0.1), (1.0, 0.5))
    weight_high, profit = _pair(inst, 0.0, 0.1)
    assert weight_high == pytest.approx(1.0, abs=1e-9)
    assert profit == pytest.approx(1.8, rel=1e-12)
    # profit is strictly convex along this slice: the midpoint loses to the
    # average of the endpoints
    mid = fluid_profit(inst, RewardDistribution.two_point(0.0, 0.1, 0.5)).profit
    assert mid == pytest.approx(1.2666666666666666, rel=1e-12)
    assert mid < 0.5 * (1.0 + 1.8)


def test_pair_flat_newsvendor_plateau():
    # alpha = v + eps makes profit constant (300) left of the capacity kink
    inst = MarketInstance(
        RewardSet((15.0, 40.0)),
        (WorkerType(10.0, EpsNoisy(v=25.0, eps=15.0)),),
        Newsvendor(40.0, 300.0),
        eps_noisy_mode=True,
    )
    _, profit = _pair(inst, 15.0, 40.0)
    assert profit == pytest.approx(300.0, abs=1e-9)
    # the kink weight 1 - lam/(cap*l(15)) = 0.96 attains the plateau value
    kink = fluid_profit(inst, RewardDistribution.two_point(15.0, 40.0, 0.96))
    assert kink.total_supply == pytest.approx(300.0, abs=1e-9)
    assert kink.profit == pytest.approx(300.0, abs=1e-9)


def test_pair_degenerate_slice_returns_none():
    inst = _tab_instance((0.0, 1.0), (0.0, 0.0), eps_noisy_mode=True)
    assert _pair(inst, 0.0, 1.0) is None


@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_pair_never_below_endpoints(lo_rate, hi_frac, y):
    # the pair optimum dominates every scanned point of its own slice
    hi_rate = lo_rate * hi_frac
    inst = _tab_instance((1.0, 2.0), (lo_rate, hi_rate), revenue=Power(c=5.0, beta=0.5),
                         eps_noisy_mode=True)
    ps = _pair(inst, 1.0, 2.0)
    if ps is None:
        return
    _, best = ps
    try:
        sample = fluid_profit(inst, RewardDistribution.two_point(1.0, 2.0, y)).profit
    except DegenerateSupply:
        return
    assert best >= sample - 1e-7 * max(1.0, abs(sample))


# --------------------------------------------------------------------------
# Batched pair kernel against a scalar reference


def _scalar_pair(inst, r_low, r_high, tol=REFINE_TOL, every_peak=False, full_search=False):
    """Reference: one pair slice scanned and refined in plain Python, point by
    point. Refines around the scan's first maximum (NaN read as -inf), or
    around every scanned local maximum when every_peak is set. Like the
    kernel, a newsvendor slice whose every rate falls is settled by its ends
    and kink, neither scanned nor refined, unless every_peak or full_search
    is set. Returns (weight_high, profit), or None for a degenerate slice."""
    i, j = inst.rewards.index_of(r_low), inst.rewards.index_of(r_high)
    lo = [float(v) for v in inst.departure_matrix[:, i]]
    hi = [float(v) for v in inst.departure_matrix[:, j]]
    lam = [float(v) for v in inst.lambdas]

    def supply(y):
        total = 0.0
        for lm, a, b in zip(lam, lo, hi):
            total += lm / (a + (b - a) * y)
        return total

    def profit(y):
        n = supply(y)
        return float(inst.revenue.value(n)) - (r_low + (r_high - r_low) * y) * n

    def golden(a, b):
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        fc, fd = profit(c), profit(d)
        while b - a > tol:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = profit(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = profit(d)
        return 0.5 * (a + b)

    def bisect(f, target, a, b):
        if not f(a) < target < f(b):
            return None
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if f(mid) < target:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    y_hi = 1.0
    for a, b in zip(lo, hi):
        if b < MIN_DEPARTURE_FLOOR:
            if a < MIN_DEPARTURE_FLOOR:
                return None
            y_hi = min(y_hi, (a - MIN_DEPARTURE_FLOOR) / (a - b))
    candidates = {0.0, y_hi}
    newsvendor = isinstance(inst.revenue, Newsvendor)
    kink = bisect(supply, inst.revenue.cap, 0.0, y_hi) if newsvendor else None
    if kink is not None:
        candidates.add(kink)
    if newsvendor and all(b - a <= 0.0 for a, b in zip(lo, hi)) and not (every_peak or full_search):
        peaks = []  # settled by its ends and kink
    else:
        ys = np.linspace(0.0, y_hi, SCAN_POINTS)
        ps = [profit(float(y)) for y in ys]
        if every_peak:
            peaks = [k for k in range(1, len(ys) - 1) if ps[k] >= ps[k - 1] and ps[k] >= ps[k + 1]]
        else:
            scanned = [-math.inf if math.isnan(p) else p for p in ps]
            first = scanned.index(max(scanned))
            peaks = [first] if 0 < first < len(ys) - 1 else []
    for k in peaks:
        candidates.add(golden(float(ys[k - 1]), float(ys[k + 1])))
    best_y, best_p = None, -math.inf
    for y in sorted(candidates):
        p = profit(y)
        if p > best_p:
            best_y, best_p = y, p
    return best_y, best_p


_unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _random_instances(draw, max_m=9, max_types=3, revenues=("newsvendor", "power", "log", "linear")):
    """Small instances over every departure family and the given revenue
    families. Tabulated and eps-noisy departures reach zero, so some slices
    are degenerate."""
    m = draw(st.integers(min_value=2, max_value=max_m))
    steps = draw(st.lists(st.floats(min_value=0.25, max_value=5.0), min_size=m - 1, max_size=m - 1))
    grid = tuple(float(v) for v in np.cumsum([draw(st.floats(min_value=0.0, max_value=20.0))] + steps))
    types = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_types))):
        kind = draw(st.sampled_from(["tabulated", "exp_floor", "linear", "quadratic", "eps_noisy"]))
        if kind == "tabulated":
            dep = Tabulated(grid, tuple(sorted(draw(st.lists(_unit, min_size=m, max_size=m)), reverse=True)))
        elif kind == "exp_floor":
            dep = ExpFloor(draw(st.floats(min_value=0.01, max_value=0.5)), draw(st.floats(0.0, grid[-1])))
        elif kind == "linear":
            dep = Linear(draw(st.floats(0.0, 0.2)), draw(st.floats(0.2, 2.0)))
        elif kind == "quadratic":
            dep = Quadratic(draw(st.floats(0.0, 0.005)), draw(st.floats(-0.05, 0.0)), draw(st.floats(0.2, 1.2)))
        else:
            dep = EpsNoisy(draw(st.floats(grid[0], grid[-1])), draw(st.floats(0.5, 10.0)))
        types.append(WorkerType(draw(st.floats(min_value=0.5, max_value=5.0)), dep))
    lam = sum(t.lam for t in types)
    kind = draw(st.sampled_from(revenues))
    if kind == "newsvendor":
        # caps between the bottom and several times the typical supply put kinks inside slices
        revenue = Newsvendor(draw(st.floats(grid[0] + 1.0, 2.0 * grid[-1] + 5.0)),
                             lam * draw(st.floats(min_value=1.0, max_value=20.0)))
    elif kind == "power":
        revenue = Power(draw(st.floats(10.0, 500.0)), draw(st.floats(0.1, 0.9)))
    elif kind == "log":
        revenue = Log(draw(st.floats(10.0, 500.0)))
    else:
        revenue = LinearRev(draw(st.floats(1.0, 1.5 * grid[-1] + 2.0)))
    return MarketInstance(RewardSet(grid), tuple(types), revenue, eps_noisy_mode=True)


_PLATEAU = MarketInstance(
    RewardSet((15.0, 25.0, 40.0)),
    (WorkerType(10.0, EpsNoisy(v=25.0, eps=15.0)),),
    Newsvendor(40.0, 300.0),
    eps_noisy_mode=True,
)
# one concave slice whose scanned maximum is scan index 512, the edge that
# pieces 15 and 16 share
_EDGE_PEAK = _tab_instance((10.0, 20.0), (0.5, 0.25), revenue=Log(110.0))
# power revenue falling along the slice: the low end wins and all but one
# piece is skipped
_POWER_END = _tab_instance((15.0, 60.0), (0.5, 0.4), revenue=Power(250.0, 0.5))
# the second type's rate at 20 is below the degeneracy floor, which cuts the
# slice at weight 0.75
_FLOOR_CUT = MarketInstance(
    RewardSet((10.0, 20.0)),
    (WorkerType(1.0, Tabulated((10.0, 20.0), (0.5, 0.25))),
     WorkerType(1e-12, Tabulated((10.0, 20.0), (4e-12, 0.0)))),
    Log(110.0),
    eps_noisy_mode=True,
)
# revenue so large that every cost rounds away past the cap: profit is flat
# from the kink to the top end, whose profit equals the bound of every piece
# there; the settled slice returns the top end, and a full search's refined
# point just past the kink ties it
_SATURATED = _tab_instance((10.0, 20.0), (0.5, 0.25), revenue=Newsvendor(1e20, 3.5))
# a slice that reaches the best singleton's profit on some piece but peaks
# on a piece bounded below it
_BELOW_SINGLETON = MarketInstance(RewardSet((8.5, 11.5, 15.0, 19.5)), (WorkerType(5.0, ExpFloor(0.45, 12.0)),),
                                  Log(335.0))


@settings(deadline=None, max_examples=40)
@given(_random_instances())
@example(_PLATEAU)  # flat slices: hundreds of scanned local maxima per pair
@example(_EDGE_PEAK)
@example(_POWER_END)
@example(_FLOOR_CUT)
@example(_SATURATED)
def test_pair_kernel_matches_scalar_reference(inst):
    vals = inst.rewards.values
    ii, jj = (np.array(v) for v in zip(*itertools.combinations(range(len(vals)), 2)))
    live, pairs, top = _live_pairs(fluid._Group([inst]), ii, jj)
    ys, ps = _solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf))
    got = dict(zip(live.tolist(), zip(ys.tolist(), ps.tolist())))
    for n, (i, j) in enumerate(zip(ii, jj)):
        # a slice missing from the live ones is degenerate throughout
        assert got.get(n) == _scalar_pair(inst, vals[i], vals[j])
    # one slice alone gets the bits it gets in the batch
    assert _pair(inst, vals[0], vals[-1]) == _scalar_pair(inst, vals[0], vals[-1])


@settings(deadline=None, max_examples=40)
@given(_random_instances())
@example(_PLATEAU)
@example(_SATURATED)
def test_pair_kernel_never_below_every_peak_reference(inst):
    # refining only the best scanned point is exact when the scan has one
    # peak, as with one type; a second peak, never seen so far, could lose
    # its refinement. On a plateau the two rules differ by rounding only.
    vals = inst.rewards.values
    ii, jj = (np.array(v) for v in zip(*itertools.combinations(range(len(vals)), 2)))
    live, pairs, top = _live_pairs(fluid._Group([inst]), ii, jj)
    _, ps = _solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf))
    got = dict(zip(live.tolist(), ps.tolist()))
    for n, (i, j) in enumerate(zip(ii, jj)):
        want = _scalar_pair(inst, vals[i], vals[j], every_peak=True)
        assert (n in got) == (want is not None)
        if want is not None:
            assert got[n] >= want[1] - 1e-9 * max(1.0, abs(want[1]))


# an instance admits rates that rise by up to 1e-12 along its grid; here the
# second type's rises by 5e-13, so the ends and kink do not settle the slice,
# and the bracket of its best scanned point, which holds the kink, is refined
_RISING_RATE = MarketInstance(
    RewardSet((10.0, 20.0)),
    (WorkerType(1.0, Tabulated((10.0, 20.0), (0.5, 0.2))), WorkerType(1.0, Quadratic(0.0, 5e-14, 0.3))),
    Newsvendor(100.0, 6.5),
)


@settings(deadline=None, max_examples=40)
@given(_random_instances(max_types=4, revenues=("newsvendor",)))
@example(_SATURATED)
@example(_RISING_RATE)
def test_settled_slices_never_lose_to_full_search(inst):
    # a falling-rate slice has its maximum at an end or the kink, candidates
    # already, so no slice loses more than rounding to a reference that
    # scans every slice and refines every interior best scanned point
    vals = inst.rewards.values
    ii, jj = (np.array(v) for v in zip(*itertools.combinations(range(len(vals)), 2)))
    live, pairs, top = _live_pairs(fluid._Group([inst]), ii, jj)
    _, ps = _solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf))
    got = dict(zip(live.tolist(), ps.tolist()))
    for n, (i, j) in enumerate(zip(ii, jj)):
        want = _scalar_pair(inst, vals[i], vals[j], full_search=True)
        assert (n in got) == (want is not None)
        if want is not None:
            assert got[n] >= want[1] - 1e-12 * max(1.0, abs(want[1]))


@settings(deadline=None, max_examples=40)
@given(_random_instances(max_m=30, max_types=4, revenues=("newsvendor",)))
@example(_SATURATED)
@example(_PLATEAU)
def test_falling_rate_newsvendor_slice_peaks_at_an_end_or_the_kink(inst):
    # the module docstring's theorem, in the kernel's arithmetic: no point of
    # a scan four times as dense as the kernel's beats the best of the ends
    # and the kink by more than rounding, and the kernel returns that best
    ii, jj = np.triu_indices(len(inst.rewards), 1)
    _, pairs, top = _live_pairs(fluid._Group([inst]), ii, jj)
    rows = np.flatnonzero((pairs.dl <= 0.0).all(axis=0))
    assume(len(rows))
    pairs, top = pairs.take(rows), top[rows]
    kink = fluid._kink(pairs, top)
    best = np.fmax.reduce([pairs.profit(np.zeros(len(top))), pairs.profit(top), pairs.profit(kink)])
    scan = pairs.profit(np.linspace(0.0, top, 4 * SCAN_POINTS, axis=1)).max(axis=1)
    assert (best >= scan - 1e-12 * np.maximum(1.0, np.abs(scan))).all()
    _, p = _solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf))
    assert p.tobytes() == best.tobytes()


def _refined_brackets(inst) -> int:
    """Brackets that solve_fluid(inst) golden-refines."""
    brackets = [0]
    golden = fluid._golden_section

    def counted_golden(f, a, b, tol):
        brackets[0] += len(a)
        return golden(f, a, b, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "_golden_section", counted_golden)
        solve_fluid(inst)
    return brackets[0]


def _shipped_markets():
    canon = canonical_instance()
    insts = {"canonical": canon, "power_variant": power_variant_instance(),
             "dense_61": dataclasses.replace(canon, rewards=RewardSet.from_range(15.0, 60.0, 0.75)),
             "noisy_sqrt": market_instance(noisy_sqrt_instance())}
    for comp in experiment_defaults("fig_risk")["compositions"]:
        insts["risk_" + "_".join(f"{v:g}" for v in comp)] = mixture_instance(comp)
    return insts


@pytest.mark.parametrize("name, want", [
    ("canonical", 0), ("risk_10_0_0", 0), ("risk_8_1_1", 0), ("risk_1_8_1", 0), ("dense_61", 0),
    # power revenue refines as it did before the kink rule
    ("power_variant", 0), ("noisy_sqrt", 2),
])
def test_refined_brackets_of_the_shipped_markets(name, want):
    assert _refined_brackets(_shipped_markets()[name]) == want


@pytest.mark.parametrize("name", ["risk_10_0_0", "risk_8_1_1", "risk_1_8_1", "dense_61"])
def test_shipped_newsvendor_markets_scan_no_piece(monkeypatch, name):
    # every rate falls along every slice, so the ends and kinks settle them
    # all (the canonical market's count is in the test below)
    scanned, total = _scanned_pieces(monkeypatch, lambda: solve_fluid(_shipped_markets()[name]))
    assert scanned == 0 < total


def test_rising_rate_slice_is_still_refined():
    # the best scanned point's bracket holds the kink, but one rate rises
    # along the slice, so the ends and kink do not settle it: it is scanned
    # and that bracket is refined
    _, pairs, top = _live_pairs(fluid._Group([_RISING_RATE]), np.array([0]), np.array([1]))
    kink = fluid._kink(pairs, top)
    assert (pairs.dl[:, 0] > 0.0).tolist() == [False, True]
    p, _ = _scan(_RISING_RATE)
    k = int(p.argmax())
    assert (k - 1) / (SCAN_POINTS - 1) <= kink[0] <= (k + 1) / (SCAN_POINTS - 1)
    assert _refined_brackets(_RISING_RATE) == 1
    assert _pair(_RISING_RATE, 10.0, 20.0) == _scalar_pair(_RISING_RATE, 10.0, 20.0)


def _scan(inst):
    """Profit at every scan weight of the slice between the lowest and the
    highest reward, in the kernel's arithmetic, and its admissible maximum."""
    _, pairs, top = _live_pairs(fluid._Group([inst]), np.array([0]), np.array([len(inst.rewards) - 1]))
    y = np.arange(SCAN_POINTS) * (top / (SCAN_POINTS - 1))[:, None]
    y[:, -1] = top
    return pairs.profit(y)[0], float(top[0])


def _local_maxima(p):
    mid = p[1:-1]
    return (np.flatnonzero((mid >= p[:-2]) & (mid >= p[2:])) + 1).tolist()


def test_skip_examples_have_their_shape():
    # the examples above pin the piece skip only while they keep these shapes
    p, _ = _scan(_EDGE_PEAK)
    assert _local_maxima(p) == [16 * fluid._PIECE]
    assert p[512] > max(p[0], p[-1])
    p, _ = _scan(_POWER_END)
    assert p.argmax() == 0 and _local_maxima(p) == []
    _, top = _scan(_FLOOR_CUT)
    assert top == pytest.approx(0.75, abs=1e-12)


def _scanned_pieces(monkeypatch, solve):
    """(pieces scanned, pieces of the kernel's slices) over the kernel calls
    that solve() makes."""
    scanned, total = [0], [0]
    profit, kernel = fluid._PairBatch.profit, fluid._solve_slices

    def counted_profit(self, y):
        if y.ndim == 2:
            assert y.shape[1] == fluid._PIECE + 1  # one piece, both edges included
            scanned[0] += y.shape[0]
        return profit(self, y)

    def counted_kernel(pairs, top, *args):
        total[0] += len(top) * fluid._BOUND_PIECES
        return kernel(pairs, top, *args)

    monkeypatch.setattr(fluid._PairBatch, "profit", counted_profit)
    monkeypatch.setattr(fluid, "_solve_slices", counted_kernel)
    solve()
    return scanned[0], total[0]


def _flat_instance(m: int) -> MarketInstance:
    """One linear type on rewards 1..m whose profit is 10 m on every pair
    slice, up to rounding."""
    return MarketInstance(RewardSet.from_range(1.0, float(m), 1.0), (WorkerType(5.0, Linear(0.5 / m, 1.0)),),
                          Newsvendor(2.0 * m, 40.0))


def test_kernel_refines_at_most_one_bracket_per_slice(monkeypatch):
    # nearly every scan point of a flat slice ties for its maximum; only the
    # slice's best scanned point is refined, so time and memory follow the
    # grid. Linear revenue, as the newsvendor version's slices are settled.
    brackets, slices = [0], [0]
    golden, kernel = fluid._golden_section, fluid._solve_slices

    def counted_golden(f, a, b, tol):
        brackets[0] += len(a)
        return golden(f, a, b, tol)

    def counted_kernel(pairs, top, *args):
        slices[0] += len(top)
        return kernel(pairs, top, *args)

    monkeypatch.setattr(fluid, "_golden_section", counted_golden)
    monkeypatch.setattr(fluid, "_solve_slices", counted_kernel)
    inst = dataclasses.replace(_flat_instance(50), revenue=LinearRev(100.0))
    assert solve_fluid(inst).profit == pytest.approx(500.0, rel=1e-12)
    assert 0 < brackets[0] <= slices[0] <= 50 * 49 // 2


def test_canonical_kernel_scans_under_half_of_its_pieces(monkeypatch):
    # the canonical market's slices are all settled by their ends and kinks;
    # the power variant's are scanned where their piece bounds reach those
    scanned, total = _scanned_pieces(monkeypatch, lambda: solve_fluid(canonical_instance()))
    assert scanned == 0 < total
    scanned, total = _scanned_pieces(monkeypatch, lambda: solve_fluid(power_variant_instance()))
    assert 0 < scanned < total / 2


@settings(deadline=None, max_examples=30)
@given(st.lists(_random_instances(), min_size=1, max_size=3))
@example([_BELOW_SINGLETON])
@example([canonical_instance(), power_variant_instance(), _PLATEAU, _EDGE_PEAK])
def test_kernel_inside_solve_fluid_returns_full_scan_bits(insts):
    # the kernel's known candidates come from each slice alone, never from
    # the singletons or another slice, so the slices solve_fluid puts through
    # it get the bits of a call on their own batch with no floor; a slice
    # whose piece bounds are all below its floor scans nothing, and then its
    # profit is below that floor either way
    calls = []
    kernel = fluid._solve_slices

    def recorded(pairs, top, tol, floor):
        out = kernel(pairs, top, tol, floor)
        calls.append((pairs, top, tol, floor, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "_solve_slices", recorded)
        try:
            solve_fluid_many(insts)
        except DegenerateSupply:
            pass
    for pairs, top, tol, floor, (y, p) in calls:
        y_alone, p_alone = kernel(pairs, top, tol, np.full(len(top), -np.inf))
        same = (y.view(np.int64) == y_alone.view(np.int64)) & (p.view(np.int64) == p_alone.view(np.int64))
        assert np.all(same | ((p < floor) & (p_alone < floor)))


def _tie_instance(grid, types, revenue):
    rs = RewardSet(grid)
    return MarketInstance(rs, tuple(WorkerType(lam, Tabulated(rs.values, l)) for lam, l in types), revenue)


@pytest.mark.parametrize("inst, tied, want", [
    # singletons 2 and 4 both earn exactly 12: the lower expected reward wins
    (_tie_instance((2.0, 4.0), [(2.0, (1.0, 1.0)), (1.0, (1.0, 0.25))], LinearRev(6.0)),
     (0.0, 1.0), ((2.0, 1.0),)),
    # departure linear in the reward and profit peaking at expected reward 2:
    # the singleton 2 and the even split of 0 and 4 tie; the lower r_high wins
    (_tie_instance((0.0, 2.0, 4.0), [(0.75, (1.0, 0.75, 0.5))], Log(16.0)),
     (0.5, 0.0, 0.5), ((2.0, 1.0),)),
    # peak at 7: 6/8 split evenly and 4/8 split 1:3 tie; the lower r_low wins
    (_tie_instance((4.0, 6.0, 8.0), [(0.5625, (0.75, 0.625, 0.5))], Log(32.0)),
     (0.0, 0.5, 0.5), ((4.0, 0.25), (8.0, 0.75))),
])
def test_solve_fluid_tie_break_order(inst, tied, want):
    # a tolerance wider than the scan step keeps every refined weight on the
    # scan grid, where these weights and all the arithmetic are exact
    out = solve_fluid(inst, tol=1.0)
    assert out.x.support() == want
    other = fluid_profit(inst, RewardDistribution.on(inst.rewards, tied))
    assert other.profit == out.profit

    def order(o):
        rs = o.x.support_rewards()
        return (o.expected_reward, rs[-1], rs[0])

    assert order(out) < order(other)


# --------------------------------------------------------------------------
# Global solver


def test_solve_fluid_mixture_instance(canon):
    out = solve_fluid(canon)
    assert out.x.support_rewards() == (57.0, 58.0)
    assert out.x.weight_at(58.0) == pytest.approx(0.33973762443800726, abs=1e-9)
    assert out.profit == pytest.approx(6399.039356334297, rel=1e-9)
    # the revenue cap binds at the optimum
    assert out.total_supply == pytest.approx(150.0, abs=1e-6)


def test_solve_fluid_support_at_most_two(canon):
    assert len(solve_fluid(canon).x.support()) <= 2


@st.composite
def _noisy_markets(draw):
    """Noisy-entry market instances, as surplus_curve builds them, over a few
    revenues equal by value (so many instances share one) and 1-3 types with
    their own arrival rates, worker values and noise level."""
    revenue = dataclasses.replace(draw(st.sampled_from([
        Newsvendor(40.0, 120.0), Newsvendor(40.0, 300.0), Power(250.0, 0.5), Log(300.0),
    ])))
    k = draw(st.integers(min_value=1, max_value=3))
    lambdas = draw(st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=k, max_size=k))
    values = draw(st.lists(st.floats(min_value=5.0, max_value=55.0), min_size=k, max_size=k))
    eps = draw(st.floats(min_value=0.25, max_value=12.0))
    return market_instance(NoisyInstance(tuple(lambdas), tuple(values), eps, revenue, 0.0, 60.0))


@settings(deadline=None, max_examples=30)
@given(st.lists(_noisy_markets(), min_size=2, max_size=6))
def test_solve_fluid_many_matches_one_by_one(insts):
    many = solve_fluid_many(insts)
    one_by_one = [solve_fluid(inst) for inst in insts]
    for got, want in zip(many, one_by_one, strict=True):
        for f in dataclasses.fields(FluidOutcome):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert solve_fluid_many(insts[::-1]) == many[::-1]


@st.composite
def _shared_revenue_groups(draw):
    """Random instances cut to one K and given one revenue by value (each
    its own object), so solve_fluid_many solves them as one group: mixed
    grid sizes, floor cuts and eps-noisy zeros."""
    insts = draw(st.lists(_random_instances(), min_size=2, max_size=5))
    k = min(inst.K for inst in insts)
    revenue = insts[0].revenue
    return [dataclasses.replace(inst, types=inst.types[:k], revenue=dataclasses.replace(revenue))
            for inst in insts]


def _alone(inst):
    try:
        return solve_fluid(inst)
    except DegenerateSupply as exc:
        return exc


@settings(deadline=None, max_examples=40)
@given(_shared_revenue_groups())
def test_one_group_solves_each_member_as_alone(insts):
    assert len({(inst.revenue, inst.K) for inst in insts}) == 1
    alone = [_alone(inst) for inst in insts]
    failed = [a for a in alone if isinstance(a, DegenerateSupply)]
    if failed:
        # the first member that fails alone fails the group, with its message
        with pytest.raises(DegenerateSupply) as exc:
            solve_fluid_many(insts)
        assert str(exc.value) == str(failed[0])
    solvable = [inst for inst, a in zip(insts, alone) if not isinstance(a, DegenerateSupply)]
    want = [a for a in alone if not isinstance(a, DegenerateSupply)]
    for got, one in zip(solve_fluid_many(solvable), want, strict=True):
        for f in dataclasses.fields(FluidOutcome):
            assert getattr(got, f.name) == getattr(one, f.name), f.name


_GROUP_REVENUE = Newsvendor(10.0, 4.0)
_GROUP_MATE = MarketInstance(RewardSet((1.0, 2.0, 3.0, 4.0)),
                             (WorkerType(1.0, ExpFloor(0.3, 1.0)), WorkerType(0.5, Linear(0.1, 1.0))),
                             _GROUP_REVENUE)
# type 0 stops departing from reward 2 on, and type 1's rate at reward 1
# is below the degeneracy floor, rising above it within the 1e-12 slack
# that departures may increase by: every singleton is degenerate, but the
# mixes of reward 1 with 2 or 3 that put over 5/9 on the higher are not
_NO_SINGLETON = MarketInstance(
    RewardSet((1.0, 2.0, 3.0)),
    tuple(WorkerType(1.0, Tabulated((1.0, 2.0, 3.0), rates))
          for rates in ((1.0, 0.0, 0.0), (0.5e-12, 1.4e-12, 1.4e-12))),
    _GROUP_REVENUE, eps_noisy_mode=True)


def test_group_member_without_a_singleton_keeps_all_its_slices():
    insts = [_GROUP_MATE, _NO_SINGLETON]
    with pytest.raises(DegenerateSupply):
        optimal_fixed_wage(_NO_SINGLETON)
    group = fluid._Group(insts)
    ii, jj = group.pairs()
    live, pairs, top = _live_pairs(group, ii, jj)
    kept, floors = fluid._beatable(group, ii[live], pairs, top)
    # its incumbent is -inf, so no bound prunes its two live slices
    mine = np.flatnonzero(group.owner[ii[live]] == 1)
    assert len(mine) == 2 and np.isin(mine, kept).all()
    assert floors.shape == kept.shape
    assert (floors[np.isin(kept, mine)] == -np.inf).all()
    assert np.isfinite(floors[~np.isin(kept, mine)]).all()
    many = solve_fluid_many(insts)
    assert many == [solve_fluid(inst) for inst in insts]
    assert len(many[1].x.support()) == 2


def test_group_with_a_wholly_degenerate_member_raises_as_alone():
    # type 1 never departs at any reward of the grid
    dead = MarketInstance(RewardSet((1.0, 2.0, 3.0)),
                          (WorkerType(1.0, ExpFloor(0.3, 1.0)), WorkerType(1.0, Linear(1.0, 0.5))),
                          Newsvendor(10.0, 4.0), eps_noisy_mode=True)
    message = "^every candidate distribution is degenerate$"
    with pytest.raises(DegenerateSupply, match=message):
        solve_fluid(dead)
    with pytest.raises(DegenerateSupply, match=message):
        solve_fluid_many([_GROUP_MATE, dead, _GROUP_MATE])


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_refinement_tolerance_must_be_finite_and_positive(monkeypatch, tol):
    # golden-section never stops at tol <= 0 and stops at once at NaN, so the
    # check has to come before any slice is scanned
    inst = canonical_instance()

    def no_scan(*args, **kwargs):
        raise AssertionError("a slice was scanned")

    monkeypatch.setattr(fluid, "_live_pairs", no_scan)
    monkeypatch.setattr(fluid, "_solve_slices", no_scan)
    for solve in (lambda: solve_fluid(inst, tol), lambda: solve_fluid_many([inst, inst], tol),
                  lambda: solve_fluid_many([], tol)):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve()


# --------------------------------------------------------------------------
# Pruning pair slices by a profit bound


def _all_live_pairs(inst):
    """(ii, jj, live, slices, admissible maxima) over every reward pair."""
    ii, jj = np.triu_indices(len(inst.rewards), 1)
    return (ii, jj, *_live_pairs(fluid._Group([inst]), ii, jj))


def _unpruned_solve(inst):
    """Reference: every live slice through the kernel, then the winner among
    the singletons and the interior slice optima; None when all are
    degenerate."""
    m = len(inst.rewards)
    ii, jj, live, pairs, top = _all_live_pairs(inst)
    y, _ = _solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf))
    inner = (y > 1e-12) & (y < 1.0 - 1e-12)
    single = np.arange(m)
    try:
        return _best_outcome(
            fluid._Group([inst]),
            np.concatenate([single, ii[live][inner]]),
            np.concatenate([single, jj[live][inner]]),
            np.concatenate([np.zeros(m), y[inner]]),
            by="profit",
            degenerate="",
        )[0]
    except DegenerateSupply:
        return None


@settings(deadline=None, max_examples=60)
@given(_random_instances(max_m=24))
@example(_PLATEAU)
@example(canonical_instance())
@example(power_variant_instance())
def test_pruned_solve_matches_unpruned_reference(inst):
    ii, jj, live, pairs, top = _all_live_pairs(inst)
    bounds = _slice_bounds(pairs, top)
    _, profit = _solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf))
    # the bound holds in the kernel's own arithmetic, with no tolerance
    assert bounds.shape == (len(top), fluid._BOUND_PIECES)
    assert np.all(bounds.max(axis=1) >= profit)
    want = _unpruned_solve(inst)
    if want is None:
        with pytest.raises(DegenerateSupply):
            solve_fluid(inst)
        return
    got = solve_fluid(inst)
    for f in dataclasses.fields(FluidOutcome):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@settings(deadline=None, max_examples=40)
@given(_random_instances())
@example(_EDGE_PEAK)
@example(_FLOOR_CUT)
@example(canonical_instance())
def test_piece_bounds_cover_every_scan_weight_of_their_piece(inst):
    # piece j's bound holds at scan indices _PIECE * j ... _PIECE * (j + 1),
    # both edges included, in the kernel's own arithmetic
    _, _, _, pairs, top = _all_live_pairs(inst)
    y = np.arange(SCAN_POINTS) * (top / (SCAN_POINTS - 1))[:, None]
    y[:, -1] = top
    p = pairs.profit(y)
    bounds = _slice_bounds(pairs, top)
    for j in range(fluid._BOUND_PIECES):
        piece = p[:, fluid._PIECE * j:fluid._PIECE * (j + 1) + 1]
        assert np.all(bounds[:, j] >= piece.max(axis=1))


def test_pruning_keeps_slices_within_the_margin(monkeypatch):
    # a slice, or every piece of it, is dropped by its floor only when its
    # bound is below the best singleton by more than 1e-9 relative: rounding
    # in the two profit arithmetics stays inside. The one-piece bound and the
    # piece bounds are one function, so one patch sets both: gaps (one
    # piece, pieces). The power variant's slices are not settled by their
    # ends, so the kernel bounds their pieces
    inst = power_variant_instance()
    best = optimal_fixed_wage(inst)[1].profit
    _, _, live, pairs, top = _all_live_pairs(inst)
    # (gaps, the screen keeps every slice, the floor drops every piece); a
    # NaN bound keeps its slice or its piece
    for gaps, screened, floored in (((0.5e-9, 0.5e-9), True, False), ((2e-9, 2e-9), False, True),
                                    ((0.5e-9, 2e-9), True, True), ((math.nan, 0.5e-9), True, False),
                                    ((0.5e-9, math.nan), True, False)):
        def bounds(p, t, pieces=fluid._BOUND_PIECES, gaps=gaps):
            return np.full((len(t), pieces), best - gaps[pieces > 1] * best)

        monkeypatch.setattr(fluid, "_slice_bounds", bounds)
        with pytest.MonkeyPatch.context() as mp:
            # the pieces that a kernel with no floor scans, of every live one
            unfloored, every = _scanned_pieces(
                mp, lambda: fluid._solve_slices(pairs, top, REFINE_TOL, np.full(len(top), -np.inf)))
        with pytest.MonkeyPatch.context() as mp:
            scanned, total = _scanned_pieces(mp, lambda: solve_fluid(inst))
        assert 0 < unfloored <= every == len(live) * fluid._BOUND_PIECES
        assert total == (every if screened else 0)
        assert scanned == (0 if floored else unfloored)


def test_pruning_drops_most_canonical_slices():
    # the one-piece screen keeps 367 of the 1 035 live slices
    inst = canonical_instance()
    ii, _, live, pairs, top = _all_live_pairs(inst)
    rows, floors = fluid._beatable(fluid._Group([inst]), ii[live], pairs, top)
    assert len(rows) <= 400 < len(live) and floors.shape == rows.shape


def _piece_bounded_rows(inst) -> int:
    """Slices whose piece bounds solve_fluid(inst) computes."""
    rows = [0]
    bounds = fluid._slice_bounds

    def counted(pairs, top, pieces=fluid._BOUND_PIECES):
        rows[0] += len(top) if pieces > 1 else 0
        return bounds(pairs, top, pieces)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "_slice_bounds", counted)
        solve_fluid(inst)
    return rows[0]


def test_settled_slices_get_no_piece_bounds():
    # the kernel bounds the pieces of the slices it scans only; every slice
    # of these newsvendor markets is settled by its ends and kink
    markets = _shipped_markets()
    for name in ("canonical", "risk_10_0_0", "risk_8_1_1", "risk_1_8_1", "dense_61"):
        assert _piece_bounded_rows(markets[name]) == 0, name
    assert _piece_bounded_rows(markets["power_variant"]) > 0


@settings(deadline=None, max_examples=60)
@given(st.lists(_random_instances(max_m=24), min_size=1, max_size=3))
@example([canonical_instance(), power_variant_instance()])
@example([_GROUP_MATE, _NO_SINGLETON, _GROUP_MATE])
def test_one_piece_bound_keeps_the_rows_of_the_piece_bounds(insts):
    # in the kernel's arithmetic, the bound of [0, top] as one piece is at
    # least every piece's bound, so the screen keeps every slice that some
    # piece bound of it keeps, with that slice's floor
    groups = {}
    for inst in insts:
        groups.setdefault((inst.revenue, inst.K), []).append(inst)
    for members in groups.values():
        group = fluid._Group(members)
        ii, jj = group.pairs()
        live, pairs, top = _live_pairs(group, ii, jj)
        one, pieces = _slice_bounds(pairs, top, 1), _slice_bounds(pairs, top)
        assert one.shape == (len(top), 1)
        assert np.all((one >= pieces) | np.isnan(one))
        rows, floors = fluid._beatable(group, ii[live], pairs, top)
        with pytest.MonkeyPatch.context() as mp:
            # a NaN screen keeps every slice, so it gives every slice's floor
            mp.setattr(fluid, "_slice_bounds", lambda p, t, n: np.full((len(t), n), np.nan))
            every, floor = fluid._beatable(group, ii[live], pairs, top)
        assert every.tolist() == list(range(len(top)))
        assert np.isin(np.flatnonzero(~(pieces.max(axis=1) < floor)), rows).all()
        assert floors.tobytes() == floor[rows].tobytes()


# --------------------------------------------------------------------------
# The newsvendor kink


def _slices(inst):
    """(live slices, admissible maxima) of every reward pair of inst."""
    _, _, _, pairs, top = _all_live_pairs(inst)
    return pairs, top


@st.composite
def _kink_slices(draw):
    """Slices of a newsvendor instance with _random_instances' types and up
    to two more (K <= 5), tabulated with one rate that rises by at most the
    1e-12 that departures may."""
    inst = draw(_random_instances())
    grid, types = inst.rewards.values, list(inst.types)
    m = len(grid)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rates = sorted(draw(st.lists(_unit, min_size=m, max_size=m)), reverse=True)
        k = draw(st.integers(min_value=0, max_value=m - 2))
        rates[k + 1] = min(1.0, rates[k] + draw(st.floats(0.0, 0.9e-12)))
        types.append(WorkerType(draw(st.floats(min_value=0.5, max_value=5.0)), Tabulated(grid, tuple(rates))))
    lam = sum(t.lam for t in types)
    revenue = Newsvendor(draw(st.floats(grid[0] + 1.0, 2.0 * grid[-1] + 5.0)),
                         lam * draw(st.floats(min_value=1.0, max_value=20.0)))
    return _slices(dataclasses.replace(inst, types=tuple(types), revenue=revenue))


def _one_type_kink(cap):
    """One slice whose supply is 1 / (0.5 - 0.25 y) on [0, 1]."""
    return _tab_instance((10.0, 20.0), (0.5, 0.25), revenue=Newsvendor(30.0, cap))


# supply reaches the cap 6 ulps below the top weight
_KINK_AT_TOP = _one_type_kink(1.0 / (-0.25 * (1.0 - 3 * 2.0**-53) + 0.5))
# supply equals the cap at the top weight: no kink
_CAP_AT_TOP = _one_type_kink(4.0)
# supply so flat that Newton's iterate is off by far more than 64 ulps
_FLAT_KINK = _tab_instance((10.0, 20.0), (0.5, 0.5 - 1e-10), revenue=Newsvendor(30.0, 2.0 + 2e-10))
# the second type's rate rises within the 1e-12 that departures may, and
# supply crosses the cap where its float steps are not monotone: a halving
# seeded near the crossing would end on other floats than one from [0, 1]
_RISING_KINK = MarketInstance(
    RewardSet((10.0, 20.0)),
    (WorkerType(1.283089333713287, Tabulated((10.0, 20.0), (0.8032266234264884, 0.5392772345386536))),
     WorkerType(2.26367839841135e-13, Tabulated((10.0, 20.0), (1.314624034462404e-12, 1.9480653295188286e-12)))),
    Newsvendor(30.0, 1.799528))
# a second type whose rate falls from -2^-170 puts the kink at 2^-170, where
# 200 halvings of [0, 1] do not reach adjacent floats; no instance has such
# a slice, as its rates would have to leave [0, 1]
_TINY_ROOT = (fluid._PairBatch(Newsvendor(30.0, 1.5), np.array([[1.0], [2.0**-170]]),
                               np.array([[0.5], [-2.0**-170]]), np.array([[0.25], [-1.0]]),
                               np.array([10.0]), np.array([20.0])),
              np.array([1.0]))


@settings(deadline=None, max_examples=100)
@given(_kink_slices())
@example(_slices(_KINK_AT_TOP))
@example(_slices(_CAP_AT_TOP))
@example(_slices(_FLAT_KINK))
@example(_slices(_RISING_KINK))
@example(_TINY_ROOT)
@example(_slices(canonical_instance()))
def test_seeded_kink_matches_halving_from_zero(batch):
    pairs, top = batch
    want = fluid._bisect_up(pairs.supply, pairs.revenue.cap, np.zeros(len(top)), top)
    assert fluid._kink(pairs, top).tobytes() == want.tobytes()


def _count_kink_evaluations(monkeypatch) -> list:
    """A list that gets, for each fluid._kink call from now on, the number
    of supply evaluations the call makes."""
    counts, inside = [], [False]
    supply, kink = fluid._PairBatch.supply, fluid._kink

    def counted_supply(self, y):
        if inside[0]:
            counts[-1] += 1
        return supply(self, y)

    def counted_kink(pairs, top):
        counts.append(0)
        inside[0] = True
        try:
            return kink(pairs, top)
        finally:
            inside[0] = False

    monkeypatch.setattr(fluid._PairBatch, "supply", counted_supply)
    monkeypatch.setattr(fluid, "_kink", counted_kink)
    return counts


def test_kink_examples_have_their_shape(monkeypatch):
    # the examples above pin each path only while they keep these shapes:
    # a seeded bracket takes 2 evaluations to find the kink, 2 to check it
    # and a few halvings; one halved from [0, top] takes about 55, or 200
    counts = _count_kink_evaluations(monkeypatch)
    y = fluid._kink(*_slices(_KINK_AT_TOP))
    assert 1.0 - y[0] == 6 * 2.0**-53 and counts[-1] <= 12
    assert np.isnan(fluid._kink(*_slices(_CAP_AT_TOP))).all()
    y = fluid._kink(*_slices(_FLAT_KINK))
    assert 0.0 < y[0] < 1.0 and counts[-1] > 40
    pairs, top = _slices(_RISING_KINK)
    y = fluid._kink(pairs, top)
    assert pairs.dl[1, 0] > 0.0 and 0.0 < y[0] < 1.0 and counts[-1] > 40
    y = fluid._kink(*_TINY_ROOT)
    assert 0.0 < y[0] < 2.0**-140 and counts[-1] > 200


def test_canonical_kink_makes_at_most_12_supply_evaluations(monkeypatch):
    # a seeding that stopped working would fall back to halving [0, top]
    counts = _count_kink_evaluations(monkeypatch)
    solve_fluid(canonical_instance())
    assert len(counts) == 1 and 0 < counts[0] <= 12


def _compositions_by_combinations(m, G):
    """Reference: stars and bars over itertools.combinations."""
    if m == 1:
        return np.array([[G]], dtype=np.int64)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(G + m - 1), m - 1)), dtype=np.int64
    )
    bars = flat.reshape(-1, m - 1)
    n = len(bars)
    edges = np.column_stack([np.full(n, -1, dtype=np.int64), bars, np.full(n, G + m - 1, dtype=np.int64)])
    return np.diff(edges, axis=1) - 1


def _compositions_by_column_stack(m, G):
    """Reference: the part-by-part build that stacks one column per part."""
    head = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([G], dtype=np.int64)
    for _ in range(m - 1):
        counts = rest + 1
        parent = np.repeat(np.arange(len(rest)), counts)
        part = np.arange(len(parent), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        head = np.column_stack([head[parent], part])
        rest = rest[parent] - part
    return np.column_stack([head, rest])


def _composition_rank(C, G):
    """Reference: row index in _compositions(m, G) of every row of C, an
    (n, m) array of compositions of G, part by part. The compositions before
    c in lexicographic order first differ from it at some part i, with a
    smaller value there; with k = m-1-i parts after part i and R = G -
    (c_0 + ... + c_{i-1}) left for parts i onward, they number
    C(R + k, k) - C(R - c_i + k, k)."""
    m = C.shape[1]
    binom = np.array([[math.comb(n, k) for k in range(m)] for n in range(G + m)], dtype=np.int64)
    rank = np.zeros(len(C), dtype=np.int64)
    left = np.full(len(C), G, dtype=np.int64)
    for i in range(m - 1):
        k = m - 1 - i
        rank += binom[left + k, k] - binom[left - C[:, i] + k, k]
        left -= C[:, i]
    return rank


def test_compositions_match_combinations_enumeration():
    # the row order sets which grid point wins an oracle tie, and the
    # Lipschitz bound looks shifted compositions up by their rank
    for m in range(1, 6):
        for G in range(1, 31):
            got = _compositions(m, G)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _compositions_by_combinations(m, G))
            np.testing.assert_array_equal(got, _compositions_by_column_stack(m, G))
            np.testing.assert_array_equal(_composition_rank(got, G), np.arange(len(got)))
    C = _compositions(5, 50)
    np.testing.assert_array_equal(C, _compositions_by_column_stack(5, 50))
    pick = np.random.default_rng(3).permutation(len(C))[:500]
    np.testing.assert_array_equal(_composition_rank(C[pick], 50), pick)


def _shift(C):
    """Reference: each composition with one unit moved from its first
    nonzero part s to part s + 1, cyclically."""
    m = C.shape[1]
    src = np.argmax(C > 0, axis=1)
    rows = np.arange(len(C))
    C2 = C.copy()
    C2[rows, src] -= 1
    C2[rows, (src + 1) % m] += 1
    return C2


def test_shifted_rows_match_rank_of_every_shifted_composition():
    # the oracle hands _shifted_rows only its block 0, the (m - 1)-part grid
    # of G, so m <= 4 up to G = 100 covers every grid it sees
    for m in range(1, 6):
        for G in [*range(1, 31), 50] + ([100] if m < 5 else []):
            C = _compositions(m, G)
            np.testing.assert_array_equal(_shifted_rows(C, G), _composition_rank(_shift(C), G))


def test_each_block_shifts_onto_the_tail_of_the_block_before():
    # the streamed oracle's layout: block a (first part a) is a followed by
    # the last C(G - a + m - 2, m - 2) rows of the (m - 1)-part grid less a on
    # their first part; its rows shift, in order, onto the last |block a| rows
    # of block a - 1; block 0 shifts within itself but for (0, ..., 0, G)
    for m in range(2, 6):
        for G in range(1, 31):
            C = _compositions(m, G)
            head = _compositions(m - 1, G)
            at = _composition_rank(_shift(C), G)
            starts = np.searchsorted(C[:, 0], np.arange(G + 2))
            for a in range(G + 1):
                lo, hi = starts[a], starts[a + 1]
                size = math.comb(G - a + m - 2, m - 2)
                assert hi - lo == size
                tail = head[len(head) - size:].copy()
                tail[:, 0] -= a
                np.testing.assert_array_equal(tail, _compositions(m - 1, G - a))
                np.testing.assert_array_equal(C[lo:hi], np.column_stack([np.full(size, a), tail]))
                if a >= 1:
                    np.testing.assert_array_equal(at[lo:hi], np.arange(lo - size, lo))
            block0 = at[:starts[1]]
            assert C[0].tolist() == [0] * (m - 1) + [G] and block0[0] == starts[1]
            assert (block0[1:] < starts[1]).all()
            np.testing.assert_array_equal(block0[1:], _shifted_rows(head, G)[1:])


def _whole_grid_profits(inst, C, G):
    """Reference: (profit, rhat, feasible mask) over a whole (n, m) array of
    compositions of G at once, each mixture rate and the expected reward
    summed part by part from part 0, the supply type by type."""
    X = C.T / G
    mat, vals = inst.departure_matrix, inst.rewards.values
    ok = np.ones(len(C), dtype=bool)
    total = np.zeros(len(C))
    for k, lam in enumerate(inst.lambdas):
        lhat = X[0] * mat[k, 0]
        for j in range(1, C.shape[1]):
            lhat = lhat + X[j] * mat[k, j]
        ok &= lhat >= MIN_DEPARTURE_FLOOR
        total = total + lam / np.maximum(lhat, MIN_DEPARTURE_FLOOR)
    rhat = X[0] * vals[0]
    for j in range(1, C.shape[1]):
        rhat = rhat + X[j] * vals[j]
    return np.asarray(inst.revenue.value(total)) - rhat * total, rhat, ok


def _lipschitz_by_second_pass(inst, G):
    """Reference: a second whole-grid profit pass over the shifted
    compositions."""
    C = _compositions_by_combinations(len(inst.rewards), G)
    p0, _, ok0 = _whole_grid_profits(inst, C, G)
    p1, _, ok1 = _whole_grid_profits(inst, _shift(C), G)
    ok = ok0 & ok1
    return float(np.abs(p1[ok] - p0[ok]).max() * (G / 2.0)) if ok.any() else 0.0


@settings(deadline=None, max_examples=40)
@given(_random_instances(max_m=5), st.sampled_from([1, 7, 20]))
def test_lipschitz_rank_lookup_matches_second_pass(inst, G):
    assert objective_lipschitz(inst, G) == _lipschitz_by_second_pass(inst, G)


def _first_best(profit, rhat, ok):
    """Reference: the oracle's tie rule by a plain loop over the rows: the
    highest profit among the feasible rows, then the lowest expected reward,
    then the first row; None when no row is feasible."""
    pick = None
    for n in np.flatnonzero(ok).tolist():
        if pick is None or profit[n] > profit[pick] or (profit[n] == profit[pick] and rhat[n] < rhat[pick]):
            pick = n
    return pick


@settings(deadline=None, max_examples=60)
@given(_random_instances(max_m=5), st.sampled_from([1, 2, 7, 20]))
def test_streamed_oracle_matches_whole_grid_pass(inst, G):
    C = _compositions_by_combinations(len(inst.rewards), G)
    profit, rhat, ok = _whole_grid_profits(inst, C, G)
    pick = _first_best(profit, rhat, ok)
    lip = _lipschitz_by_second_pass(inst, G)
    # every block's rows get the whole grid's bits, in order
    blocks = []
    score = fluid._point_profits

    def spy(*args):
        blocks.append(score(*args))
        return blocks[-1]

    with mock.patch.object(fluid, "_point_profits", spy):
        got = fluid._oracle_pass(inst, G)
    for n, want in enumerate((profit, rhat, ok)):
        assert np.concatenate([b[n] for b in blocks]).tobytes() == want.tobytes()
    if pick is None:
        assert got == (None, lip)
        with pytest.raises(DegenerateSupply, match="every grid point is degenerate"):
            _oracle_with_lipschitz(inst, G)
        assert objective_lipschitz(inst, G) == lip
    else:
        best = fluid_profit(inst, RewardDistribution.on(inst.rewards, C[pick] / G))
        assert got == (best, lip) and _oracle_with_lipschitz(inst, G) == (best, lip)


def _coarse_profits(inst, parts):
    """Stand-in scores with many exact ties, within blocks and across them:
    the best profit is taken in every block, the expected reward steps down
    as the first part grows, so ties on both fall across blocks too, and
    points with a large second part are degenerate."""
    x = np.broadcast_arrays(*parts)
    profit = -np.floor(2.0 * x[-1]) - 0.25 * np.floor(3.0 * x[1])
    rhat = np.floor(2.0 * (1.0 - x[0]))
    return profit, rhat, x[1] < 0.8


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("G", [1, 4, 7, 12])
def test_streamed_pick_and_lipschitz_under_ties(m, G):
    # the running best keeps the whole grid's first best point and the
    # Lipschitz pairs are the whole grid's, whatever the scores
    inst = _tab_instance(tuple(float(r) for r in range(m)), tuple(1.0 - 0.2 * r for r in range(m)))
    C = _compositions_by_combinations(m, G)
    profit, rhat, ok = _coarse_profits(inst, list(C.T / G))
    pick = _first_best(profit, rhat, ok)
    p1, _, ok1 = _coarse_profits(inst, list(_shift(C).T / G))
    both = ok & ok1
    lip = float(np.abs(p1[both] - profit[both]).max() * (G / 2.0)) if both.any() else 0.0
    with mock.patch.object(fluid, "_point_profits", _coarse_profits):
        best, got = fluid._oracle_pass(inst, G)
    assert got == lip
    assert best.x.weights == tuple(C[pick] / G)


# the benchmark's fluid-solve --oracle market: two types on five rewards
_ORACLE_5 = MarketInstance(
    RewardSet((15.0, 26.0, 37.0, 48.0, 60.0)),
    (WorkerType(6.0, Tabulated((15.0, 26.0, 37.0, 48.0, 60.0), (0.9, 0.6, 0.45, 0.3, 0.2))),
     WorkerType(4.0, Tabulated((15.0, 26.0, 37.0, 48.0, 60.0), (1.0, 0.8, 0.35, 0.25, 0.1)))),
    Newsvendor(100.0, 60.0),
)


def test_oracle_memory_stays_within_a_block():
    # m = 5 at G = 60 has 635 376 grid points; block 0 has 39 711 rows
    tracemalloc.start()
    try:
        _oracle_with_lipschitz(_ORACLE_5, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_solver_matches_oracle_on_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        grid = np.sort(rng.uniform(1.0, 50.0, size=m))
        while np.min(np.diff(grid)) < 1e-3:
            grid = np.sort(rng.uniform(1.0, 50.0, size=m))
        types = tuple(
            WorkerType(
                float(rng.uniform(0.5, 3.0)),
                Tabulated(tuple(grid), tuple(np.sort(rng.uniform(0.05, 1.0, size=m))[::-1])),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        inst = MarketInstance(RewardSet(tuple(grid)), types, Power(c=100.0, beta=0.6))
        out = solve_fluid(inst)
        oracle = brute_force_oracle(inst, 60)
        tol = 10.0 * objective_lipschitz(inst, 60) / 60.0
        assert out.profit >= oracle.profit - tol
        assert len(out.x.support()) <= 2


@settings(deadline=None, max_examples=40)
@given(_random_instances(max_m=5))
def test_solver_never_beaten_by_the_oracle_grid(inst):
    # mixtures near the degeneracy floor have astronomically large supply and
    # the fluid problem has no maximum there (see the xfail case below)
    assume(inst.departure_matrix.min() >= 1e-6)
    oracle = brute_force_oracle(inst, 20)
    assert solve_fluid(inst).profit >= oracle.profit - 1e-9 * max(1.0, abs(oracle.profit))


@pytest.mark.xfail(strict=True, reason="slice optima at the degeneracy floor fail the winner's own "
                   "degeneracy check, so a far worse singleton wins")
def test_solver_at_the_degeneracy_floor():
    rs = (3.9473882277154813, 4.647388227715481, 8.98745784978771, 10.98745784978771, 12.962968920288795)
    inst = MarketInstance(RewardSet(rs), (
        WorkerType(0.5, Quadratic(0.0, 0.0, 0.2993367736698707)),
        WorkerType(3.5747915631765266, Tabulated(rs, (0.5000000000000001, 0.4437569302111325,
                                                      0.0009477619650137939, 0.0, 0.0))),
        WorkerType(3.6553464620983966, Quadratic(0.0005132653004032085, -0.045567296559838634, 0.985304724773028)),
    ), LinearRev(21.44445338043319), eps_noisy_mode=True)
    # profit grows without bound as type 1's rate falls to the floor; the
    # solver returns the singleton 8.99 (profit 4.7e4) while the oracle's
    # 0.05/0.95 mix of 8.99 and 10.99 earns 8.0e5
    assert solve_fluid(inst).profit >= brute_force_oracle(inst, 20).profit


def test_oracle_and_lipschitz_share_one_grid():
    small = _tab_instance((0.0, 1.0, 2.0, 4.0), (1.0, 0.6, 0.3, 0.2), revenue=Power(c=10.0, beta=0.5))
    for G in (1, 7, 30):
        assert _oracle_with_lipschitz(small, G) == (brute_force_oracle(small, G), objective_lipschitz(small, G))
    with pytest.raises(TooLarge):
        _oracle_with_lipschitz(small, 101)


@pytest.mark.parametrize("G", [50.7, 1.5, True, False, np.bool_(True), "50", math.nan, math.inf])
def test_oracle_rejects_a_non_integral_resolution(G):
    for run in (brute_force_oracle, objective_lipschitz, _oracle_with_lipschitz):
        with pytest.raises(ValueError, match=re.escape(repr(G))) as exc:
            run(_ORACLE_5, G)
        assert type(exc.value) is ValueError


def test_oracle_takes_an_integral_resolution_of_any_type():
    want = _oracle_with_lipschitz(_ORACLE_5, 7)
    for G in (7.0, np.int64(7), np.float64(7.0)):
        assert _oracle_with_lipschitz(_ORACLE_5, G) == want


def test_oracle_guards():
    inst = _tab_instance((0.0, 1.0), (1.0, 0.5))
    with pytest.raises(TooLarge):
        brute_force_oracle(inst, 101)
    big = MarketInstance(
        RewardSet(tuple(float(k) for k in range(6))),
        (WorkerType(1.0, ExpFloor(0.1, 0.0)),),
        LinearRev(alpha=1.0),
    )
    with pytest.raises(TooLarge):
        brute_force_oracle(big, 10)


def test_oracle_flat_plateau_value():
    inst = MarketInstance(
        RewardSet((15.0, 40.0)),
        (WorkerType(10.0, EpsNoisy(v=25.0, eps=15.0)),),
        Newsvendor(40.0, 300.0),
        eps_noisy_mode=True,
    )
    assert brute_force_oracle(inst, 60).profit == pytest.approx(300.0, abs=1e-9)


def test_objective_lipschitz_positive(canon):
    small = _tab_instance((0.0, 1.0, 2.0), (1.0, 0.6, 0.3), revenue=Power(c=10.0, beta=0.5))
    assert objective_lipschitz(small, 30) > 0.0


# --------------------------------------------------------------------------
# Budgeted supply maximization


def _budget_instance():
    return MarketInstance(
        RewardSet((15.0, 60.0)),
        (WorkerType(10.0, Tabulated((15.0, 60.0), (1.0, 0.2))),),
        Newsvendor(100.0, 150.0),
    )


def test_supply_opt_binding_budget():
    b = BudgetedInstance(_budget_instance(), 1000.0)
    out = solve_supply_opt(b)
    assert out.x.weight_at(60.0) == pytest.approx(0.68, abs=1e-9)
    assert out.total_supply == pytest.approx(21.929824561403507, rel=1e-12)
    assert out.expected_reward * out.total_supply == pytest.approx(1000.0, abs=1e-6)


def test_supply_opt_loose_budget_pays_top():
    # with budget >= the full cost of r_max, paying everyone 60 is optimal
    inst = _budget_instance()
    top_cost = 60.0 * 10.0 / 0.2
    out = solve_supply_opt(BudgetedInstance(inst, top_cost + 10.0))
    assert out.x.weight_at(60.0) == pytest.approx(1.0)
    assert out.total_supply == pytest.approx(50.0, rel=1e-12)


def test_budget_below_floor_cost_rejected():
    with pytest.raises(ValueError, match="cannot cover"):
        BudgetedInstance(_budget_instance(), 100.0)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_budget_must_be_finite(budget):
    # a NaN budget used to pass the floor check and end in a misleading
    # DegenerateSupply from the solve
    with pytest.raises(ValueError, match="budget must be finite"):
        BudgetedInstance(canonical_instance(), budget)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_budget_tolerance_must_be_finite_and_non_negative(tol):
    # tol = inf let solve_supply_opt pay 3.96e14 against a budget of 2000,
    # and tol = -1 had support_reduce report "within -2000.0"
    canon = canonical_instance()
    b = BudgetedInstance(canon, 2000.0)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        solve_supply_opt(b, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        support_reduce(b, solve_fluid(canon).x, tol=tol)
    out = solve_supply_opt(b, tol=0.0)
    assert out.expected_reward * out.total_supply == pytest.approx(2000.0, rel=1e-12)


def _wide_instance(m: int) -> MarketInstance:
    types = (WorkerType(5.0, Linear(0.5 / m, 1.0)), WorkerType(3.0, ExpFloor(0.01, 0.3 * m)))
    return MarketInstance(RewardSet.from_range(1.0, float(m), 1.0), types, Newsvendor(2.0 * m, 40.0))


def test_solver_slice_tables_are_capped_before_allocation(monkeypatch):
    # each pair slice holds up to 32 piece bounds: 791 rewards (312 445
    # slices) is the largest grid that solves, and 792 is refused before its
    # pair indices exist
    assert len(solve_fluid(_wide_instance(791)).x.support()) == 2
    with pytest.raises(ValueError, match="reward pairs 313236 needs 313236 x 32 table entries"):
        solve_fluid(_wide_instance(792))
    # the cap counts a group's slices together; the budgeted solver's widest
    # per-slice rows are its K rates
    canon = canonical_instance()  # 1035 slices, K = 3
    out = solve_fluid(canon)
    budgeted = BudgetedInstance(canon, out.expected_reward * out.total_supply)
    monkeypatch.setattr(market, "_MAX_TABLE", 1035 * 32)
    assert solve_fluid(canon) == out
    with pytest.raises(ValueError, match="reward pairs 2070 needs 2070 x 32 table entries"):
        solve_fluid_many([canon, canon])
    monkeypatch.setattr(market, "_MAX_TABLE", 1035 * 3 - 1)
    with pytest.raises(ValueError, match="reward pairs 1035 needs 1035 x 3 table entries"):
        solve_supply_opt(budgeted)


def test_supply_opt_monotone_in_budget():
    inst = _budget_instance()
    supplies = [solve_supply_opt(BudgetedInstance(inst, b)).total_supply for b in (300.0, 600.0, 1200.0, 2400.0)]
    assert all(b >= a - 1e-9 for a, b in zip(supplies, supplies[1:]))


@settings(deadline=None, max_examples=60)
@given(_random_instances())
@example(_budget_instance())
def test_singleton_scores_price_a_point_mass_like_the_budget_floor(inst):
    # solve_supply_opt prices each point mass with _score, BudgetedInstance
    # the bottom reward with r * sum(lambda / l(r)): the same bits, so a
    # budget of exactly the floor cost keeps the bottom reward feasible
    single = np.arange(len(inst.rewards))
    _, total, rhat, ok = fluid._score(fluid._Group([inst]), single, single, np.zeros(len(single)))
    for k, r in enumerate(inst.rewards):
        rates = inst.departure_matrix[:, k]
        assert ok[k] == bool(np.all(rates >= MIN_DEPARTURE_FLOOR))
        if ok[k]:
            assert rhat[k] * total[k] == r * float((inst.lambdas / rates).sum())


# --------------------------------------------------------------------------
# Support reduction


def _reduction_instance():
    rs = RewardSet((10.0, 20.0, 40.0, 80.0))
    t = WorkerType(5.0, Tabulated(rs.values, (1.0, 0.7, 0.4, 0.1)))
    return MarketInstance(rs, (t,), Newsvendor(100.0, 1000.0))


def _tight_case(inst, lo_w, mid_w):
    # four-point distribution whose own expected pay defines the budget, so
    # the input is budget-tight by construction
    rest = 1.0 - lo_w - mid_w
    x = RewardDistribution.on(inst.rewards, (lo_w, mid_w, 2.0 * rest / 3.0, rest / 3.0))
    out = fluid_profit(inst, x)
    return x, out.expected_reward * out.total_supply, out.total_supply


def test_support_reduce_preserves_supply_and_budget():
    inst = _reduction_instance()
    x0, budget, n0 = _tight_case(inst, 0.3, 0.3)
    x1 = support_reduce(BudgetedInstance(inst, budget), x0)
    out = fluid_profit(inst, x1)
    assert len(x1.support()) <= 2
    assert out.total_supply >= n0 - 1e-9
    assert out.expected_reward * out.total_supply <= budget + 1e-6


def test_support_reduce_rejects_loose_input():
    inst = _reduction_instance()
    b = BudgetedInstance(inst, 600.0)
    x = RewardDistribution.on(inst.rewards, (0.25, 0.25, 0.25, 0.25))
    with pytest.raises(InfeasibleInput, match="budget"):
        support_reduce(b, x)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.05, max_value=0.45), st.floats(min_value=0.05, max_value=0.45))
def test_support_reduce_property(lo_w, mid_w):
    inst = _reduction_instance()
    x0, budget, n0 = _tight_case(inst, lo_w, mid_w)
    x1 = support_reduce(BudgetedInstance(inst, budget), x0)
    out = fluid_profit(inst, x1)
    assert len(x1.support()) <= 2
    assert out.total_supply >= n0 - 1e-9
    assert out.expected_reward <= expected_reward(x0) + 1e-9


@st.composite
def _tight_inputs(draw):
    """A random instance and a distribution on three or more of its rewards,
    with the budget set to that distribution's own expected pay."""
    inst = draw(_random_instances(max_m=8).filter(lambda inst: len(inst.rewards) >= 3))
    m = len(inst.rewards)
    on = draw(st.sets(st.integers(0, m - 1), min_size=3, max_size=m))
    raw = [draw(st.floats(min_value=0.01, max_value=1.0)) if k in on else 0.0 for k in range(m)]
    x = RewardDistribution.on(inst.rewards, [w / math.fsum(raw) for w in raw])
    try:
        out = fluid_profit(inst, x)
    except DegenerateSupply:
        assume(False)
    return inst, x, out


@settings(deadline=None, max_examples=200)
@given(_tight_inputs())
def test_support_reduce_never_loses_supply(case):
    inst, x0, before = case
    budget = before.expected_reward * before.total_supply
    x1 = support_reduce(BudgetedInstance(inst, budget), x0)
    after = fluid_profit(inst, x1)
    assert len(x1.support()) <= 2
    assert after.expected_reward * after.total_supply <= budget + 1e-9 * max(1.0, budget)
    assert after.total_supply >= before.total_supply * (1.0 - 1e-9)
    assert after.expected_reward <= before.expected_reward * (1.0 + 1e-9)


def test_support_reduce_where_transfers_stalled():
    # a valid input on which every mean-preserving transfer inside an
    # interlacing triple loses supply
    rs = RewardSet((64.0, 66.0, 70.0, 73.0, 90.0))
    inst = MarketInstance(rs, (WorkerType(5.0, Tabulated(rs.values, (0.44, 0.31, 0.26, 0.23, 0.15))),),
                          Newsvendor(100.0, 1000.0))
    x0 = RewardDistribution.on(rs, (0.21, 0.10, 0.46, 0.21, 0.02))
    before = fluid_profit(inst, x0)
    budget = before.expected_reward * before.total_supply
    assert budget == pytest.approx(1178.559293, rel=1e-9)
    x1 = support_reduce(BudgetedInstance(inst, budget), x0)
    after = fluid_profit(inst, x1)
    assert x1.support_rewards() == (66.0, 70.0)
    assert x1.weight_at(66.0) == pytest.approx(0.5521, abs=1e-4)
    assert after.total_supply == pytest.approx(17.385, abs=1e-3) and before.total_supply < 17.0
    assert after.expected_reward == pytest.approx(67.79, abs=1e-2)
    assert after.expected_reward * after.total_supply == pytest.approx(budget, rel=1e-12)


@pytest.mark.parametrize("weights", [(0.0, 1.0, 0.0, 0.0), (0.0, 0.3, 0.0, 0.7), (0.6, 0.0, 0.4, 0.0)])
def test_support_reduce_keeps_small_supports(weights):
    inst = _reduction_instance()
    x = RewardDistribution.on(inst.rewards, weights)
    out = fluid_profit(inst, x)
    assert support_reduce(BudgetedInstance(inst, out.expected_reward * out.total_supply), x) is x


# --------------------------------------------------------------------------
# Dispersion, fixed wages, lotteries


def test_classify_dispersion():
    rs = RewardSet((15.0, 16.0, 17.0, 60.0))
    assert classify_dispersion(RewardDistribution.point_mass(rs, 16.0), rs) is Dispersion.MINIMAL
    adjacent = RewardDistribution.on(rs, (0.5, 0.5, 0.0, 0.0))
    assert classify_dispersion(adjacent, rs) is Dispersion.MINIMAL
    extreme = RewardDistribution.on(rs, (0.5, 0.0, 0.0, 0.5))
    assert classify_dispersion(extreme, rs) is Dispersion.MAXIMAL
    skip = RewardDistribution.on(rs, (0.5, 0.0, 0.5, 0.0))
    assert classify_dispersion(skip, rs) is Dispersion.NEITHER
    wide = RewardDistribution.on(rs, (0.4, 0.3, 0.3, 0.0))
    with pytest.raises(UnsupportedSupport, match="at most two rewards"):
        classify_dispersion(wide, rs)


def test_optimal_fixed_wage_canonical(canon):
    wage, out = optimal_fixed_wage(canon)
    assert wage == 57.0
    assert out.profit == pytest.approx(5973.340270273799, rel=1e-9)


def _fixed_wage_by_loop(inst):
    """Reference: one fluid_profit call per grid wage, keeping the first
    strict maximum, so the lower wage wins a tie."""
    best_r, best = None, None
    for r in inst.rewards:
        try:
            out = fluid_profit(inst, RewardDistribution.point_mass(inst.rewards, r))
        except DegenerateSupply:
            continue
        if best is None or out.profit > best.profit:
            best_r, best = r, out
    if best is None:
        raise DegenerateSupply("every fixed wage is degenerate")
    return best_r, best


@settings(deadline=None, max_examples=200)
@given(_random_instances(max_m=24))
@example(canonical_instance())
@example(power_variant_instance())
@example(_PLATEAU)
@example(_tab_instance((0.0, 1.0), (0.0, 0.0), eps_noisy_mode=True))  # every wage degenerate
def test_optimal_fixed_wage_matches_a_loop_over_wages(inst):
    try:
        want_wage, want = _fixed_wage_by_loop(inst)
    except DegenerateSupply:
        with pytest.raises(DegenerateSupply):
            optimal_fixed_wage(inst)
        return
    wage, got = optimal_fixed_wage(inst)
    assert wage == want_wage
    for f in dataclasses.fields(FluidOutcome):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_optimal_fixed_wage_tie_goes_to_the_lower_wage():
    # the wages 2 and 4 both earn exactly 12
    inst = _tie_instance((2.0, 4.0), [(2.0, (1.0, 1.0)), (1.0, (1.0, 0.25))], LinearRev(6.0))
    assert fluid_profit(inst, RewardDistribution.point_mass(inst.rewards, 4.0)).profit == 12.0
    wage, out = optimal_fixed_wage(inst)
    assert (wage, out.profit) == (2.0, 12.0)
    assert (wage, out) == _fixed_wage_by_loop(inst)


def test_lottery_moments():
    lot = lottery_distribution(15.0, 35.0, 11.2)
    assert lot.support_rewards() == (15.0, 41.272)
    assert lot.weight_at(41.272) == pytest.approx(400.0 / (400.0 + 11.2**2), rel=1e-12)
    assert expected_reward(lot) == pytest.approx(35.0, rel=1e-12)
    var = sum(w * (r - 35.0) ** 2 for r, w in lot.support())
    assert var == pytest.approx(11.2**2, rel=1e-12)


def test_lottery_invalid_moments():
    with pytest.raises(InvalidMoments):
        lottery_distribution(15.0, 15.0, 5.0)
    with pytest.raises(InvalidMoments):
        lottery_distribution(15.0, 35.0, 0.0)


@pytest.mark.parametrize("mu, sigma, name", [
    (math.nan, 11.2, "mu"), (math.inf, 11.2, "mu"), (-math.inf, 11.2, "mu"),
    (35.0, math.nan, "sigma"), (35.0, math.inf, "sigma"),
])
def test_lottery_rejects_non_finite_moments(mu, sigma, name):
    with pytest.raises(InvalidMoments, match=f"{name} must be finite"):
        lottery_distribution(15.0, mu, sigma)
    with pytest.raises(InvalidMoments, match=f"{name} must be finite"):
        lottery_for_instance(canonical_instance(), mu, sigma)


def test_lottery_snaps_only_for_tabulated():
    smooth = MarketInstance(
        RewardSet.from_range(15.0, 60.0, 1.0),
        (WorkerType(10.0, ExpFloor(0.07, 15.0)),),
        Newsvendor(100.0, 150.0),
    )
    lot, dist = lottery_for_instance(smooth, 35.0, 11.2)
    assert dist == 0.0
    assert lot.support_rewards() == (15.0, 41.272)

    tab = _tab_instance((15.0, 40.0, 45.0), (1.0, 0.5, 0.4), lam=10.0)
    lot, dist = lottery_for_instance(tab, 35.0, 11.2)
    assert lot.support_rewards() == (15.0, 40.0)
    assert dist == pytest.approx(1.272, rel=1e-12)
    # weight is kept, so the mean shifts by weight_high * snap distance
    assert lot.weight_at(40.0) == pytest.approx(400.0 / (400.0 + 11.2**2), rel=1e-12)
