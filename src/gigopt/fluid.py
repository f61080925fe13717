"""Fluid-optimal reward distributions.

The profit maximization exploits the structural fact that some optimal
distribution has at most two support points, so the search space is every
singleton and every reward pair, each pair a one-dimensional problem in the
weight placed on the higher reward. The 1-D slice objective can fail to be
concave, so each slice is scanned globally before local refinement; exact
newsvendor-kink candidates are added because kinked optima are common and
the refinement alone cannot pin them to full precision.

The pair slices are independent, so one batched kernel solves all of them
with array operations, never a Python loop per slice or per point. The
solver spans instances too. solve_fluid_many lays the instances that share
the revenue and the number of types side by side as one column table (each
grid reward a column, with its own departure and arrival rates), and every
phase runs once over the whole group: the live slices, the singleton scores,
each instance's best singleton, the one-piece screen, the kernel, the scores
of all candidates and the winner pick. So a sweep of small solves pays each
phase's per-step overhead once, not once per solve; only the winners'
FluidOutcomes are built instance by instance. The table's rates and the
winners' outcomes both read each instance's departure table
(MarketInstance.departure_matrix), evaluated once when the instance was
built, so no phase calls a departure rate again. Each slice's best scanned
point is golden-section refined one scan step either side, all slices at
once, each with its own stopping rule, except on the newsvendor slices
settled from their ends and kink (below); the newsvendor kinks are bisected
together the same way. Each step keeps the per-slice arithmetic and its
order (supply summed type by type, the scan grid exactly as np.linspace
builds it), so every slice gets the bit-identical result a scalar scan
would. Each instance's winner is then picked from its candidates with
fluid_profit's arithmetic, by one stable sort over the group with the
instance as the leading key.

One bracket per slice is exact for one worker type: supply S is monotone in
the weight and the expected reward affine in 1/S, so a slice's profit is
R(S) - cS - const, concave in S, and its scan has one peak or a plateau flat
up to rounding. With more types a slice could have a second peak, whose
refinement the kernel would miss; no slice of a shipped instance or of
1 800 random ones (m <= 60, K <= 3) has had one. So the kernel's time and
memory follow the grid, not the profit's shape.

On newsvendor revenue a slice whose every rate falls along it is settled by
its ends and its kink: S rises with the weight, and the profit is
alpha * min(S, cap) - rhat * S. Where S >= cap it is alpha * cap - rhat * S,
and rhat and S both rise, so it falls. Where S <= cap it is
(alpha - rhat) * S, whose derivative is S * h, with g = S' / S and
h = (alpha - rhat) * g - dr. Each type's own g_i = -dl_i / l_i has
g_i' = g_i^2, so g' = 2 E[g_i^2] - g^2 >= g^2 (E weighting each type by its
share of S); where g > 0 and h = 0, h' = dr * (g' - g^2) / g >= 0, and
where g = 0 (no rate moves) h = -dr <= 0. So below the cap the profit may
fall and then rise, never rise and then fall, and its maximum there is at
an end of that stretch. When S crosses the cap inside the slice, the kink
splits it into those two stretches; when S starts at or above the cap the
whole slice is above it; when S stays at or below the cap the whole slice
is below it. Either way the maximum is at 0, the kink or top, all three
candidates already, so such a slice has no piece scanned and no bracket
refined. Every other slice, and every slice of power, log and linear
revenue, is scanned and refined.

A slice's profit is bounded piece by piece. Its _BOUND_PIECES pieces have
scan-grid points as edges: piece j spans scan indices _PIECE * j to
_PIECE * (j + 1), its edges are those points' own weights, and the last
edge is the admissible maximum. On a piece each type's mixture rate is
linear, so supply lies between its values from the extreme end rates;
revenue is non-decreasing and the expected reward rises with the weight,
rewards being non-negative, so the piece earns at most the revenue of the
largest supply less the left end's expected reward times the smallest
supply. The bound is computed with the kernel's own arithmetic, whose
rounding is monotone in the weight, so it is at least every profit the
kernel can return from that piece; and the bound of [0, top] as one piece,
whose end rates bound every piece's, is at least every piece's bound.

The bound screens once, then bounds the pieces the kernel scans. A slice's
floor is its instance's best non-degenerate singleton's profit less 1e-9
relative, which covers the rounding between the kernel's arithmetic and the
winner's; a candidate below it scores strictly below a singleton that is
itself a candidate, so it can neither win nor tie. solve_fluid_many drops the
slices whose one-piece bound is below their floor. The kernel scores each
slice's known candidates (both ends and the newsvendor kink) and, on a slice
they do not settle, bounds its pieces and scans those whose bound is not
below the best of them, none when every bound is below the floor (its ends
and kink are then below it too); a NaN bound keeps its piece. A kept piece
is scanned at its own _PIECE + 1 points. A skipped piece's points score
below the best known candidate, so the kept pieces hold the full scan's best
point whenever it reaches that candidate; when it does not, it lies in
skipped pieces with its one-step bracket, and on a one-peak slice so does
any peak the kernel's bracket holds, so neither refinement could win or tie.
The known candidates come from the slice alone, never from the scan or from
another slice, so each slice with a piece bound at its floor gets the bits
of a scalar scan that refines its first maximum.
Slices are bounded _BOUND_BLOCK at a time and kept pieces scanned
_TEMP_FLOATS points at a time, so those temporaries stay within 66 KB
whatever the grid size; the kernel keeps one best scanned point per slice
and two indices per kept piece (90 KB on the power variant), and the
one-piece bounds and the Newton steps below hold arrays the size of the
batch's own rates, (K, live slices).

A newsvendor kink halves a bracket S(lo) < cap <= S(hi) of supply S until its
ends are adjacent floats, from [0, top] when S(0) < cap < S(top). Where every
rate falls along the slice, each step of S (dl * y, + lo, lambda / rate, the
sum over types) is monotone, so every such bracket ends on the same floats:
the first where S reaches the cap, and the one below. Such a slice starts
instead 64 ulps either side of eight Newton steps on 1 / S, once S confirms
that bracket and its low end is above top * 2^-140, where 200 halvings from
[0, top] surely end on adjacent floats too.

The brute-force oracle, the independent check of the two-support theorem,
scores every weight vector with denominator G on instances of at most 5
rewards. It streams the grid one block of compositions at a time (all those
with the same first part), holding at most two blocks, so its memory is that
of the largest block, C(G + m - 2, m - 2) rows, not of the C(G + m - 1, m - 1)
grid points. Each point's rates are summed part by part, never by a matrix
product, so a point's profit does not depend on the block it is scored in.

The budgeted variant (maximize supply subject to an expected-pay budget)
prices the singletons with _score and reuses the slices, whose cost and
supply rise with the weight on the higher reward: a slice fits the budget
when its low-end singleton does, and its optimum is its largest weight
within budget, found by one batched bisection. Support reduction is the
same search run on a budget-tight distribution's own support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .market import (
    MIN_DEPARTURE_FLOOR,
    DegenerateSupply,
    FluidOutcome,
    MarketInstance,
    Newsvendor,
    RewardDistribution,
    RewardSet,
    Tabulated,
    _check_table,
    _require_number,
    fluid_profit,
)

__all__ = [
    "SCAN_POINTS",
    "REFINE_TOL",
    "TooLarge",
    "InfeasibleInput",
    "UnsupportedSupport",
    "InvalidMoments",
    "BudgetedInstance",
    "Dispersion",
    "solve_fluid",
    "solve_fluid_many",
    "brute_force_oracle",
    "objective_lipschitz",
    "solve_supply_opt",
    "support_reduce",
    "classify_dispersion",
    "optimal_fixed_wage",
    "lottery_distribution",
    "lottery_for_instance",
]

SCAN_POINTS = 1025  # uniform pre-scan of each pair slice
REFINE_TOL = 1e-12  # golden-section bracket width target
# Floats in a scan or refinement temporary (66 KB), as many as a full scan
# of 8 slices: kept pieces are scanned and brackets refined in chunks of
# this many points, whatever the grid size.
_TEMP_FLOATS = 8 * SCAN_POINTS
# Pieces of each slice in its profit bound, each _PIECE scan steps long, and
# slices bounded together: a bound temporary holds _BOUND_BLOCK x
# (_BOUND_PIECES + 1) floats (34 KB).
_BOUND_PIECES = 32
_PIECE = (SCAN_POINTS - 1) // _BOUND_PIECES
_BOUND_BLOCK = 128

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class TooLarge(ValueError):
    """Brute-force enumeration would be astronomically large."""


class InfeasibleInput(ValueError):
    """The provided distribution does not satisfy the budget with equality."""


class UnsupportedSupport(ValueError):
    """Dispersion is only classified for supports of size one or two."""


class InvalidMoments(ValueError):
    """No two-point lottery with the requested mean and variance exists."""


@dataclass(frozen=True)
class BudgetedInstance:
    """Market instance plus a per-period expected-pay budget.

    The budget must be finite and at least cover paying the bottom reward to
    the supply that the bottom reward itself sustains, otherwise no
    distribution is feasible.
    """

    inst: MarketInstance
    budget: float

    def __post_init__(self) -> None:
        _require_number("budget", self.budget)
        rates = self.inst.departure_matrix[:, 0]  # r_min is the grid's first column
        if np.all(rates >= MIN_DEPARTURE_FLOOR):  # else r_min alone is degenerate
            floor_cost = float(self.inst.rewards.r_min * (self.inst.lambdas / rates).sum())
            if self.budget < floor_cost - 1e-9 * max(1.0, abs(floor_cost)):
                raise ValueError(f"budget {self.budget} cannot cover the bottom-reward cost {floor_cost}")


class Dispersion(str, Enum):
    MINIMAL = "minimal"
    MAXIMAL = "maximal"
    NEITHER = "neither"


# --------------------------------------------------------------------------
# Pair slices


def _check_pairs(sizes: np.ndarray, width: int) -> None:
    """market._check_table of width entries per reward pair of grids of these sizes."""
    _check_table("reward pairs", int((sizes * (sizes - 1) // 2).sum()), width)


def _kernel_width(K: int) -> int:
    """The pair kernel's widest per-slice rows: K rates, or the kept piece indices."""
    return max(K, _BOUND_PIECES)


class _Group:
    """Instances that share the revenue and K as one column table, one
    column per grid reward of each instance in turn: column c is reward
    vals[c] of instance owner[c], with departure probabilities rates[:, c]
    and arrival rates lam[:, c] ((K, columns) arrays); instance n's columns
    start at start[n]. Every solver phase runs once over the table."""

    def __init__(self, insts: Sequence[MarketInstance]):
        self.insts = list(insts)
        self.revenue = self.insts[0].revenue
        self.sizes = np.array([len(inst.rewards) for inst in self.insts])
        self.start = np.cumsum(self.sizes) - self.sizes
        self.owner = np.repeat(np.arange(len(self.insts)), self.sizes)
        self.vals = np.concatenate([inst.rewards.values for inst in self.insts])
        self.rates = np.concatenate([inst.departure_matrix for inst in self.insts], axis=1)
        self.lam = np.repeat(np.stack([inst.lambdas for inst in self.insts], axis=1), self.sizes, axis=1)

    def pairs(self, width: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Column pairs (ii, jj) of every instance's rewards i < j, instance
        by instance, each in np.triu_indices order. Raises ValueError first
        unless a table of width entries per pair, the caller's widest
        per-slice table (1 for these indices), fits (_check_pairs)."""
        _check_pairs(self.sizes, width)
        sizes = self.sizes.tolist()
        tri = {m: np.triu_indices(m, 1) for m in set(sizes)}
        shift = np.repeat(self.start, self.sizes * (self.sizes - 1) // 2)
        ii = np.concatenate([tri[m][0] for m in sizes]) + shift
        jj = np.concatenate([tri[m][1] for m in sizes]) + shift
        return ii, jj


class _PairBatch:
    """Pair slices as arrays, one row per slice: weight y on r_high and 1 - y
    on r_low. Per-type parameters (arrival rate and the two departure
    probabilities) are (K, rows) arrays, so rows may come from different
    instances that share the revenue and K. Evaluation points y have shape
    (rows,) or (rows, points)."""

    def __init__(self, revenue, lam, lo, hi, r_low, r_high):
        self.revenue = revenue
        self.lam = lam
        self.lo = lo
        self.hi = hi
        self.r_low = r_low
        self.r_high = r_high
        self.dl = hi - lo
        self.dr = r_high - r_low

    @classmethod
    def of(cls, group: _Group, ii: np.ndarray, jj: np.ndarray) -> "_PairBatch":
        """Slices between the group's columns ii[p] < jj[p] (index arrays)."""
        return cls(group.revenue, group.lam[:, ii], group.rates[:, ii], group.rates[:, jj],
                   group.vals[ii], group.vals[jj])

    def take(self, rows) -> "_PairBatch":
        return _PairBatch(self.revenue, self.lam[:, rows], self.lo[:, rows], self.hi[:, rows],
                          self.r_low[rows], self.r_high[rows])

    def supply(self, y: np.ndarray) -> np.ndarray:
        # summed type by type as a scalar loop would (a sum over axis 0 adds
        # the rows in turn); dividing by a per-row rate gives its bits
        if y.ndim == 1:
            return (self.lam / (self.dl * y + self.lo)).sum(axis=0)
        total = np.zeros(y.shape)
        for lam, lo, dl in zip(self.lam, self.lo, self.dl):
            lhat = dl[:, None] * y
            lhat += lo[:, None]
            total += np.divide(lam[:, None], lhat, out=lhat)
        return total

    def rhat(self, y: np.ndarray) -> np.ndarray:
        col = (slice(None),) + (None,) * (y.ndim - 1)
        out = self.dr[col] * y
        out += self.r_low[col]
        return out

    def profit(self, y: np.ndarray) -> np.ndarray:
        n = self.supply(y)
        value = self.revenue.value(n)
        cost = self.rhat(y)
        cost *= n
        return np.subtract(value, cost, out=cost)

    def cost(self, y: np.ndarray) -> np.ndarray:
        return self.rhat(y) * self.supply(y)


def _golden_section(f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Golden-section maximum of f in every bracket [a[n], b[n]] at once.

    f maps one point per bracket to one value per bracket. Each bracket
    shrinks until its own width is at most tol, or a step leaves it no
    narrower, and then stays put, so it takes the same steps as it would alone.
    """
    a, b = a.copy(), b.copy()
    width = b - a
    c = b - _INV_PHI * width
    d = a + _INV_PHI * width
    fc, fd = f(c), f(d)
    active = width > tol
    while active.any():
        left = fc >= fd  # keep [a, d], the old c becoming d; else keep [c, b]
        np.copyto(a, c, where=active & ~left)
        np.copyto(b, d, where=active & left)
        active = (b - a > tol) & (b - a < width)  # a done bracket's c and d go unread
        width = b - a
        step = _INV_PHI * width
        probe = np.where(left, b - step, a + step)
        f_probe = f(probe)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        c, fc = np.where(left, probe, kept), np.where(left, f_probe, f_kept)
        d, fd = np.where(left, kept, probe), np.where(left, f_kept, f_probe)
    return 0.5 * (a + b)


def _bisect_up(f, target, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of f(y) = target in every bracket [lo[n], hi[n]] at once, for f
    non-decreasing; NaN where the target is not strictly bracketed."""
    return _halve(f, target, lo, hi, (f(lo) < target) & (target < f(hi)))


def _halve(f, target, lo: np.ndarray, hi: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Root of f(y) = target in the brackets [lo[n], hi[n]] with found[n],
    for f non-decreasing and f(lo) < target <= f(hi) there; NaN elsewhere.
    Each halves at most 200 times, until its midpoint rounds onto an end."""
    lo, hi, active = lo.copy(), hi.copy(), found.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        if not active.any():
            break
        below = f(mid) < target
        below &= active
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=below ^ active)
    return np.where(found, 0.5 * (lo + hi), np.nan)


def _kink(pairs: _PairBatch, top: np.ndarray) -> np.ndarray:
    """_bisect_up(pairs.supply, cap, 0, top) of a newsvendor batch, with
    Newton-seeded brackets where supply is monotone (module docstring)."""
    cap = pairs.revenue.cap
    lo, hi = np.zeros(len(top)), top.copy()
    found = (pairs.supply(lo) < cap) & (cap < pairs.supply(hi))
    seed = np.flatnonzero(found & (pairs.dl <= 0.0).all(axis=0))
    near, t, y = pairs.take(seed), top[seed], np.zeros(len(seed))
    with np.errstate(all="ignore"):  # a step that fails yields a bracket the check refuses
        for _ in range(8):
            rate = near.dl * y + near.lo
            n = near.lam / rate
            s = n.sum(axis=0)  # S, and below -dS/dy
            y = np.clip(y - s * (cap - s) / (cap * (n / rate * near.dl).sum(axis=0)), 0.0, t)
        ulps = 64.0 * np.spacing(y)
        a, b = y - ulps, np.minimum(y + ulps, t)
        ok = (a >= t * 2.0**-140) & (near.supply(a) < cap) & (cap <= near.supply(b))
    lo[seed[ok]], hi[seed[ok]] = a[ok], b[ok]
    return _halve(pairs.supply, cap, lo, hi, found)


def _live_pairs(group: _Group, ii: np.ndarray, jj: np.ndarray):
    """(positions, slices, admissible maxima) of the column pairs
    (ii[p], jj[p]) that are not degenerate throughout. A slice's admissible
    maximum is its largest weight on r_high keeping every mixture rate above
    the degeneracy floor; read type by type from the column table, so only
    the live slices are built."""
    y_hi = np.ones(len(ii))
    for rates in group.rates:
        lo, hi = rates[ii], rates[jj]
        lost = hi < MIN_DEPARTURE_FLOOR
        y_hi[lost & (lo < MIN_DEPARTURE_FLOOR)] = np.nan
        cut = lost & (lo >= MIN_DEPARTURE_FLOOR)
        y_hi[cut] = np.minimum(y_hi[cut], (lo[cut] - MIN_DEPARTURE_FLOOR) / (lo[cut] - hi[cut]))
    live = np.flatnonzero(~np.isnan(y_hi))
    return live, _PairBatch.of(group, ii[live], jj[live]), y_hi[live]


def _solve_slices(pairs: _PairBatch, top: np.ndarray, tol: float,
                  floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slice optimum of every live slice of the batch, top being its
    admissible maximum weight and floor the profit it must reach to matter.

    Returns the weight on the higher reward and the profit there. Per slice:
    score the known candidates, the endpoints and (newsvendor revenue) the
    kink where supply crosses the cap; unless they settle the slice
    (newsvendor revenue, every rate falling along the slice), scan the
    SCAN_POINTS weights of every piece whose _slice_bounds bound is not
    below the best of them, none if all are below floor, and golden-refine
    one bracket, around the best scanned point (the highest profit, NaN read
    as -inf, the smallest weight among ties) when it is interior; and keep
    the best candidate, the smallest weight among ties. A slice with a bound
    at its floor gets the bits a scalar scan of all SCAN_POINTS weights that
    refines its first maximum by the same rule gives; the others, a profit
    below floor (module docstring).
    """
    n = len(top)
    step = top / (SCAN_POINTS - 1)  # np.linspace(0, top, SCAN_POINTS), row by row
    # each slice's candidates, NaN where absent: both ends, the kink, the refinement
    ys, profits = np.full((4, n), np.nan), np.full((4, n), np.nan)
    ys[0], ys[1] = 0.0, top
    profits[0], profits[1] = pairs.profit(ys[0]), pairs.profit(top)
    settled = np.zeros(n, bool)  # the ends and kink hold the maximum (module docstring)
    if isinstance(pairs.revenue, Newsvendor):
        # profit is kinked where total supply crosses the revenue cap
        ys[2] = _kink(pairs, top)
        hit = np.flatnonzero(~np.isnan(ys[2]))
        profits[2, hit] = pairs.take(hit).profit(ys[2, hit])
        settled = (pairs.dl <= 0.0).all(axis=0)
    known = np.fmax.reduce(profits[:3])

    # (slice, piece) of the open slices' pieces that their bounds keep, in order
    kept = [(np.zeros(0, int), np.zeros(0, int))]
    open_rows = np.flatnonzero(~settled)
    for start in range(0, len(open_rows), _BOUND_BLOCK):
        block = open_rows[start:start + _BOUND_BLOCK]
        b = _slice_bounds(pairs.take(block), top[block])
        r, j = np.nonzero(~((b < known[block, None]) | (b.max(axis=1) < floor[block])[:, None]))
        kept.append((block[r], j))
    piece_rows, piece = map(np.concatenate, zip(*kept))
    # each slice's best scanned point, NaN read as -inf; index 0 (an end)
    # while no scanned profit is above -inf
    best_p, best_k = np.full(n, -np.inf), np.zeros(n, int)
    chunk = _TEMP_FLOATS // (_PIECE + 1)
    for at in range(0, len(piece), chunk):
        r, j = piece_rows[at:at + chunk], piece[at:at + chunk]
        y = np.add.outer(_PIECE * j, np.arange(_PIECE + 1.0))
        y *= step[r, None]
        last = j == _BOUND_PIECES - 1
        y[last, -1] = top[r[last]]
        p = pairs.take(r).profit(y)
        p[np.isnan(p)] = -np.inf
        k = p.argmax(axis=1)
        p = p[np.arange(len(k)), k]
        k += _PIECE * j
        # pieces come slice by slice in index order: a slice's first best
        # point in the chunk replaces its best only with a higher profit
        order = np.lexsort((k, -p, r))
        first = order[np.diff(r[order], prepend=-1) != 0]
        r, k, p = r[first], k[first], p[first]
        up = p > best_p[r]
        best_p[r[up]] = p[up]
        best_k[r[up]] = k[up]
    inner = np.flatnonzero((best_k > 0) & (best_k < SCAN_POINTS - 1))
    k = best_k[inner]
    a = (k - 1) * step[inner]
    b = np.where(k + 1 == SCAN_POINTS - 1, top[inner], (k + 1) * step[inner])
    for start in range(0, len(inner), _TEMP_FLOATS):
        part = slice(start, start + _TEMP_FLOATS)
        r = inner[part]
        brackets = pairs.take(r)
        ys[3, r] = _golden_section(brackets.profit, a[part], b[part], tol)
        profits[3, r] = brackets.profit(ys[3, r])

    # the highest profit (NaN lowest), the smallest weight among ties
    first = np.lexsort((ys, -profits), axis=0)[0]
    return ys[first, np.arange(n)], profits[first, np.arange(n)]


def _slice_bounds(pairs: _PairBatch, top: np.ndarray, pieces: int = _BOUND_PIECES) -> np.ndarray:
    """Upper bound on every live slice's profit over each of its pieces (of
    _BOUND_PIECES, piece j spanning the scan weights _PIECE * j ... _PIECE *
    (j + 1); or 1 piece, [0, top]), as a (slices, pieces) array. A bound is
    R(sum of lambda / min end rate) - (left end's expected reward) * (sum of
    lambda / max end rate), in the kernel's arithmetic (module docstring)."""
    y = np.arange(0, SCAN_POINTS, (SCAN_POINTS - 1) // pieces) * (top / (SCAN_POINTS - 1))[:, None]
    y[:, -1] = top
    s_lo = np.zeros((len(top), pieces))
    s_up = np.zeros((len(top), pieces))
    for lam, lo, dl in zip(pairs.lam, pairs.lo, pairs.dl):
        lhat = dl[:, None] * y
        lhat += lo[:, None]
        left, right = lhat[:, :-1], lhat[:, 1:]
        rate = np.minimum(left, right)
        s_up += np.divide(lam[:, None], rate, out=rate)
        s_lo += np.divide(lam[:, None], np.maximum(left, right, out=rate), out=rate)
    cost = pairs.rhat(y[:, :-1])
    cost *= s_lo
    return pairs.revenue.value(s_up) - cost


def _beatable(group: _Group, ii: np.ndarray, pairs: _PairBatch, top: np.ndarray):
    """(rows, floors) of the live slices of _live_pairs, ii[p] being slice
    p's low column, whose one-piece profit bound reaches their floor: their
    instance's best non-degenerate singleton profit less a 1e-9 relative
    margin. The others cannot hold the winner. A NaN bound keeps its slice,
    and an instance with no non-degenerate singleton (floor -inf) keeps all
    its slices."""
    single = np.arange(len(group.vals))
    profit, _, _, ok = _score(group, single, single, np.zeros(len(single)))
    lb = np.maximum.reduceat(np.where(ok, profit, -np.inf), group.start)
    floor = (lb - 1e-9 * np.maximum(1.0, np.abs(lb)))[group.owner[ii]]
    rows = np.flatnonzero(~(_slice_bounds(pairs, top, 1)[:, 0] < floor))
    return rows, floor[rows]


def _score(group: _Group, ii: np.ndarray, jj: np.ndarray, w: np.ndarray):
    """fluid_profit's arithmetic, vectorised over the distributions with
    weight 1 - w[n] on column ii[n] and w[n] on column jj[n] of the group
    (a point mass when ii[n] == jj[n] and w[n] == 0). Returns (profit, total
    supply, expected reward, non-degenerate mask)."""
    mat = group.rates.T  # (columns, K): rows gather into (n, K)
    v = 1.0 - w
    lhat = np.clip(mat[ii] * v[:, None] + mat[jj] * w[:, None], 0.0, 1.0)
    ok = (lhat >= MIN_DEPARTURE_FLOOR).all(axis=1)
    total = (group.lam.T[ii] / np.maximum(lhat, MIN_DEPARTURE_FLOOR)).sum(axis=1)
    rhat = group.vals[ii] * v + group.vals[jj] * w
    profit = np.asarray(group.revenue.value(total)) - rhat * total
    return profit, total, rhat, ok


def _best_outcome(
    group: _Group, ii: np.ndarray, jj: np.ndarray, w: np.ndarray, by: str, degenerate: str
) -> list[FluidOutcome]:
    """Each instance's candidate (an _score distribution of its own columns)
    with the largest key (value, -expected reward, -r_high, -r_low) among its
    non-degenerate ones, value being the profit (by="profit") or the total
    supply; a full tie goes to the later candidate. Instance by instance,
    the winner's fluid_profit, or DegenerateSupply(degenerate) when every
    candidate of the instance is degenerate."""
    profit, total, rhat, ok = _score(group, ii, jj, w)
    keep = np.flatnonzero(ok)
    value = profit if by == "profit" else total
    owner = group.owner[ii[keep]]
    vals = group.vals
    # one stable sort, the owner leading: each owner's segment ends in its winner
    order = np.lexsort((-vals[ii[keep]], -vals[jj[keep]], -rhat[keep], value[keep], owner))
    last = order[np.flatnonzero(np.diff(owner[order], append=-1))]
    win = np.full(len(group.insts), -1)
    win[owner[last]] = keep[last]
    outcomes = []
    for inst, start, k in zip(group.insts, group.start.tolist(), win.tolist()):
        if k < 0:
            raise DegenerateSupply(degenerate)
        i, j, wk = int(ii[k]) - start, int(jj[k]) - start, float(w[k])
        ws = [0.0] * len(inst.rewards)
        if i == j:
            ws[i] = 1.0
        else:
            ws[i], ws[j] = 1.0 - wk, wk
        outcomes.append(fluid_profit(inst, RewardDistribution.on(inst.rewards, ws)))
    return outcomes


def _interior(y: np.ndarray) -> np.ndarray:
    """Weights strictly inside (0, 1); the others collapse to a singleton."""
    return (y > 1e-12) & (y < 1.0 - 1e-12)


def solve_fluid(inst: MarketInstance, tol: float = REFINE_TOL) -> FluidOutcome:
    """Profit-maximizing reward distribution of the fluid relaxation.

    Searches all singletons and all pair slices; the returned support has at
    most two rewards. Ties resolve to the lower expected reward, then the
    lower high reward, then the lower low reward, independently of
    enumeration order.
    """
    return solve_fluid_many([inst], tol)[0]


def solve_fluid_many(instances: Sequence[MarketInstance], tol: float = REFINE_TOL) -> list[FluidOutcome]:
    """solve_fluid of every instance, in order.

    Instances that share the revenue and K (the number of worker types) are
    solved together: every solver phase, from the live slices to the winner
    pick, runs once over the whole group. Every outcome is bit-identical to
    solving its instance alone. Raises ValueError unless tol is finite and
    positive.
    """
    # golden-section refinement runs until every bracket is at most tol wide:
    # forever when tol <= 0, not at all when tol is NaN
    _require_number("tol", tol, "positive")
    instances = list(instances)
    groups: dict[tuple, list[int]] = {}
    for n, inst in enumerate(instances):
        groups.setdefault((inst.revenue, inst.K), []).append(n)
    outcomes: list[FluidOutcome] = [None] * len(instances)
    for members in groups.values():
        group = _Group([instances[n] for n in members])
        ii, jj = group.pairs(_kernel_width(group.insts[0].K))
        live, pairs, top = _live_pairs(group, ii, jj)
        kept, floor = _beatable(group, ii[live], pairs, top)
        y, _ = _solve_slices(pairs.take(kept), top[kept], tol, floor)
        inner = _interior(y)
        ii, jj = ii[live][kept][inner], jj[live][kept][inner]
        single = np.arange(len(group.vals))
        best = _best_outcome(
            group,
            np.concatenate([single, ii]),
            np.concatenate([single, jj]),
            np.concatenate([np.zeros(len(single)), y[inner]]),
            by="profit",
            degenerate="every candidate distribution is degenerate",
        )
        for n, out in zip(members, best):
            outcomes[n] = out
    return outcomes


# --------------------------------------------------------------------------
# Brute-force grid oracle


def _compositions(m: int, G: int) -> np.ndarray:
    """All m-part compositions of G as an (n, m) integer array, in
    lexicographic order: built part by part, every row so far spawns one
    child per value 0..remainder of the next part, and the last part takes
    what is left. Each row's parts are then read back along its ancestors
    into one preallocated array."""
    levels = []
    rest = np.array([G], dtype=np.int64)
    for _ in range(m - 1):
        counts = rest + 1
        parent = np.repeat(np.arange(len(rest)), counts)
        part = np.arange(len(parent), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        levels.append((parent, part))
        rest = rest[parent] - part
    out = np.empty((len(rest), m), dtype=np.int64)
    out[:, m - 1] = rest
    row = np.arange(len(rest))
    for j in range(m - 2, -1, -1):
        parent, part = levels[j]
        out[:, j] = part[row]
        row = parent[row]
    return out


def _shifted_rows(C: np.ndarray, G: int) -> np.ndarray:
    """Row of C = _compositions(m, G) that each row becomes when one unit
    moves from its first nonzero part s to part s + 1, cyclically.

    A composition c is preceded by those that first differ from it at some
    part i with a smaller value there: with k = m-1-i parts after part i and
    R = G - (c_0 + ... + c_{i-1}) left for parts i onward, they number
    C(R + k, k) - C(R - c_i + k, k). The shift changes only the terms of
    parts s and s + 1, so with k = m-1-s the row moves by
    C(G - c_s + k - 1, k - 2) - C(G - c_s + k, k - 1), the first term 0
    when k < 2. Row 0, (0, ..., 0, G), wraps to (1, 0, ..., 0, G - 1), the
    first row after the C(G + m - 2, m - 2) with a zero first part.
    """
    n, m = C.shape
    at = np.arange(n, dtype=np.int64)
    if m == 1:
        return at  # (G) shifts onto itself
    binom = np.array([[math.comb(r, q) for q in range(m)] for r in range(G + m)], dtype=np.int64)
    s = np.argmax(C > 0, axis=1)
    k = m - 1 - s
    r = G - C[at, s] + k
    at += np.where(k >= 2, binom[r - 1, k - 2], 0) - binom[r, k - 1]
    at[0] = binom[G + m - 2, m - 2]
    return at


def _point_profits(inst: MarketInstance, parts: list):
    """(profit, rhat, feasible mask) of grid points, row by row: parts[j] is
    the weight on reward j, a float shared by every row or an array with one
    weight per row. Each type's mixture rate is summed part by part from
    part 0, x_0 * l(r_0) + x_1 * l(r_1) + ..., and so is the expected reward;
    the supply is summed type by type. Every row gets the same bits whatever
    the array's length, which a matrix product (its kernel chosen by shape)
    does not promise. A row is infeasible when some mixture rate is below
    the floor."""
    mat = inst.departure_matrix
    vals = inst.rewards.values
    ok = True
    total = 0.0
    for k, lam in enumerate(inst.lambdas.tolist()):
        lhat = parts[0] * mat[k, 0]
        for j in range(1, len(parts)):
            lhat = lhat + parts[j] * mat[k, j]
        ok = ok & (lhat >= MIN_DEPARTURE_FLOOR)
        total = total + lam / np.maximum(lhat, MIN_DEPARTURE_FLOOR)
    rhat = parts[0] * vals[0]
    for j in range(1, len(parts)):
        rhat = rhat + parts[j] * vals[j]
    profit = np.asarray(inst.revenue.value(total)) - rhat * total
    return profit, rhat, ok


def _resolution(inst: MarketInstance, grid_resolution) -> int:
    """G as an int. ValueError unless it is an integral number (a bool is
    not); TooLarge outside the guard: at most 5 rewards and 1 <= G <= 100."""
    try:
        G = int(grid_resolution)
        integral = not isinstance(grid_resolution, (bool, np.bool_)) and G == grid_resolution
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"oracle grid resolution must be an integer, got {grid_resolution!r}")
    m = len(inst.rewards)
    if m > 5 or G > 100 or G < 1:
        raise TooLarge(f"oracle limited to |rewards| <= 5 and 1 <= G <= 100, got m={m}, G={G}")
    return G


def _oracle_pass(inst: MarketInstance, grid_resolution) -> tuple[FluidOutcome | None, float]:
    """(brute_force_oracle's outcome, or None when no grid point is
    non-degenerate; objective_lipschitz) from one streamed pass.

    The compositions of G into m parts are scored one block at a time, block
    a holding those whose first part is a: a contiguous run of the
    lexicographic order, a followed by each composition of G - a into m - 1
    parts. Those are the last C(G - a + m - 2, m - 2) rows of the (m - 1)-part
    compositions of G with a taken off their first part, so one parts-major
    copy of block 0 serves every block.

    Best point: each block's best non-degenerate row (highest profit, then
    lowest expected reward, then first) replaces the incumbent only when its
    profit is strictly higher, or equal with a strictly lower expected
    reward; so the pick is the whole grid's first best point.

    Lipschitz pairs: a row (a, d_1, ...) with a >= 1 shifts to (a - 1,
    d_1 + 1, ...), and the rows of block a shift, in order, onto the last
    |block a| rows of block a - 1. Block 0 shifts within itself, along the
    (m - 1)-part grid's own shifts, except its row 0, (0, ..., 0, G), which
    wraps to block 1's row 0. So only two blocks are held at a time, and
    memory is O(C(G + m - 2, m - 2)), block 0's size.
    """
    G = _resolution(inst, grid_resolution)
    m = len(inst.rewards)  # a reward set has at least two rewards
    head = _compositions(m - 1, G)
    shift = _shifted_rows(head, G)[1:]  # block 0's rows 1..: their shifted rows
    head = np.ascontiguousarray(head.T)  # parts-major
    rest = head[1:] / G  # parts 2.. of every block are tail slices of these
    n0 = head.shape[1]
    best = None  # (profit, rhat, composition)
    nan = False
    lip = None
    for a in range(G + 1):
        start = n0 - math.comb(G - a + m - 2, m - 2)
        profit, rhat, ok = _point_profits(inst, [a / G, (head[0, start:] - a) / G, *rest[:, start:]])
        masked = np.where(ok, profit, -np.inf)
        top = float(masked.max())
        nan |= math.isnan(top)
        if top > -math.inf and (best is None or top >= best[0]):
            tied = np.flatnonzero(masked == top)
            i = int(tied[np.argmin(rhat[tied])])
            if best is None or top > best[0] or rhat[i] < best[1]:
                best = (top, float(rhat[i]), np.concatenate(([a, head[0, start + i] - a], head[1:, start + i])))
        if a == 0:
            pairs = [(profit[1:], ok[1:], profit[shift], ok[shift])]
            corner = profit[:1], ok[:1]
        else:
            n = len(profit)
            pairs = [(profit, ok, prev[0][-n:], prev[1][-n:])]
            if a == 1:
                pairs.append((*corner, profit[:1], ok[:1]))
        for p0, ok0, p1, ok1 in pairs:
            both = ok0 & ok1
            if both.any():
                d = np.abs(p1[both] - p0[both]).max()
                lip = d if lip is None else np.maximum(lip, d)
        prev = profit, ok
    if nan or best is None or not math.isfinite(best[0]):
        outcome = None
    else:
        outcome = fluid_profit(inst, RewardDistribution.on(inst.rewards, best[2].astype(float) / G))
    return outcome, (0.0 if lip is None else float(lip * (G / 2.0)))


def _found(outcome: FluidOutcome | None) -> FluidOutcome:
    if outcome is None:
        raise DegenerateSupply("every grid point is degenerate")
    return outcome


def _oracle_with_lipschitz(inst: MarketInstance, grid_resolution: int) -> tuple[FluidOutcome, float]:
    """brute_force_oracle and objective_lipschitz from one streamed pass."""
    outcome, lip = _oracle_pass(inst, grid_resolution)
    return _found(outcome), lip


def brute_force_oracle(inst: MarketInstance, grid_resolution: int) -> FluidOutcome:
    """Exhaustive search over all weight vectors with denominator G.

    Guarded to small instances: at most 5 rewards and G <= 100; ValueError
    unless G is an integer. Ties resolve to the lowest expected reward, then
    to the first in lexicographic order. The grid is streamed one block of
    compositions at a time (see _oracle_pass), so memory grows with
    C(G + m - 2, m - 2), not with the C(G + m - 1, m - 1) grid points.
    """
    return _found(_oracle_pass(inst, grid_resolution)[0])


def objective_lipschitz(inst: MarketInstance, grid_resolution: int) -> float:
    """Empirical Lipschitz bound of the fluid profit on the oracle grid.

    Max finite difference |profit(x') - profit(x)| / ||x' - x||_1 over unit
    mass transfers from each composition's first occupied bin to the next bin
    (cyclically), restricted to pairs where both points are non-degenerate.
    Guarded like brute_force_oracle, and streamed the same way.
    """
    return _oracle_pass(inst, grid_resolution)[1]


# --------------------------------------------------------------------------
# Budgeted supply maximization


def solve_supply_opt(b: BudgetedInstance, tol: float = 1e-9) -> FluidOutcome:
    """Maximize total fluid supply subject to expected pay <= budget.

    On every pair slice both the expected reward and the supply are
    non-decreasing in the weight on the higher reward, so the slice optimum
    is the largest admissible weight whose cost stays within budget (found by
    bisection when the budget binds). Raises ValueError unless tol is finite
    and non-negative.
    """
    _require_number("tol", tol, "non-negative")
    B = b.budget
    slack = tol * max(1.0, abs(B))
    group = _Group([b.inst])
    single, point = np.arange(len(group.vals)), np.zeros(len(group.vals))
    _, total, rhat, _ = _score(group, single, single, point)
    fits = rhat * total <= B + slack  # _best_outcome drops the degenerate ones
    ii, jj = group.pairs(b.inst.K)
    live, pairs, top = _live_pairs(group, ii, jj)
    y = np.where(pairs.cost(top) <= B + slack, top, _bisect_up(pairs.cost, B, np.zeros(len(live)), top))
    # a slice whose low end overspends has no root: its cost rises with the weight
    pick = _interior(y)
    return _best_outcome(
        group,
        np.concatenate([single[fits], ii[live][pick]]),
        np.concatenate([single[fits], jj[live][pick]]),
        np.concatenate([point[fits], y[pick]]),
        by="supply",
        degenerate="no feasible non-degenerate distribution",
    )[0]


def support_reduce(
    b: BudgetedInstance, x: RewardDistribution, tol: float = 1e-9
) -> RewardDistribution:
    """Rewrite a budget-tight distribution into one with at most two support
    points, never losing total supply and never raising the expected reward.

    This is solve_supply_opt on x's own support, and it does at least as
    well as x: over that support at x's expected reward rho, the convex
    supply peaks at a pair or singleton costing at least the budget B;
    moving its mass down towards the bottom support reward (whose singleton
    costs at most B) meets the budget at a pair with expected reward
    rho' <= rho and supply B / rho' >= x's. At least x's supply at a cost
    of at most B means at most x's expected reward.

    Returns x itself when it has at most two support points. Raises
    ValueError unless tol is finite and non-negative, and InfeasibleInput
    unless x's expected pay equals the budget within tol.
    """
    _require_number("tol", tol, "non-negative")
    inst, B = b.inst, b.budget
    slack = tol * max(1.0, abs(B))
    out = fluid_profit(inst, x)
    cost = out.expected_reward * out.total_supply
    if abs(cost - B) > slack:
        raise InfeasibleInput(f"expected pay {cost} must equal the budget {B} within {slack}")
    support = x.support_rewards()
    if len(support) <= 2:
        return x
    sub = replace(inst, rewards=RewardSet(support))
    w = dict(solve_supply_opt(BudgetedInstance(sub, B), tol).x.support())
    return RewardDistribution(x.rewards, tuple(w.get(r, 0.0) for r in x.rewards))


# --------------------------------------------------------------------------
# Dispersion, fixed wages, lotteries


def classify_dispersion(x: RewardDistribution, rewards: RewardSet) -> Dispersion:
    """Minimal: a singleton or two adjacent grid rewards. Maximal: exactly
    the two grid endpoints. Every support reward must lie on the grid."""
    supp = x.support_rewards()
    if len(supp) > 2:
        raise UnsupportedSupport("dispersion is defined for supports of at most two rewards")
    idx = sorted(rewards.index_of(r) for r in supp)
    if len(idx) == 1:
        return Dispersion.MINIMAL
    if idx[0] == 0 and idx[1] == len(rewards) - 1:
        return Dispersion.MAXIMAL
    if idx[1] == idx[0] + 1:
        return Dispersion.MINIMAL
    return Dispersion.NEITHER


def optimal_fixed_wage(inst: MarketInstance) -> tuple[float, FluidOutcome]:
    """Best deterministic wage on the grid; ties resolve to the lower wage.

    This is solve_fluid's singleton pick: the lowest expected reward wins a
    tie, and a point mass's rates are the grid's own.
    """
    single = np.arange(len(inst.rewards))
    best = _best_outcome(_Group([inst]), single, single, np.zeros(len(single)), by="profit",
                         degenerate="every fixed wage is degenerate")[0]
    return best.x.support_rewards()[0], best


def lottery_distribution(r_min: float, mu: float, sigma: float) -> RewardDistribution:
    """Two-point lottery supported on {r_min, h} matching mean mu and
    standard deviation sigma exactly:

        h = mu + sigma^2 / (mu - r_min)
        P(h) = (mu - r_min)^2 / ((mu - r_min)^2 + sigma^2)
    """
    _require_number("mu", mu, error=InvalidMoments)
    _require_number("sigma", sigma, error=InvalidMoments)
    if mu <= r_min:
        raise InvalidMoments(f"mean {mu} must exceed the bottom reward {r_min}")
    if sigma <= 0.0:
        raise InvalidMoments("sigma must be positive")
    gap = mu - r_min
    h = mu + sigma * sigma / gap
    p = gap * gap / (gap * gap + sigma * sigma)
    return RewardDistribution.two_point(r_min, h, p)


def lottery_for_instance(
    inst: MarketInstance, mu: float, sigma: float
) -> tuple[RewardDistribution, float]:
    """Moment-matched lottery adapted to an instance.

    Tabulated departures cannot be evaluated off-grid, so in that case the
    high reward snaps to the nearest grid reward and the snap distance is
    reported; otherwise the exact lottery is returned with distance 0.
    """
    x = lottery_distribution(inst.rewards.r_min, mu, sigma)
    if not any(isinstance(t.departure, Tabulated) for t in inst.types):
        return x, 0.0
    h = x.rewards[1]
    grid = inst.rewards.values
    snapped = min(grid, key=lambda g: (abs(g - h), g))
    if snapped <= x.rewards[0]:
        snapped = grid[1]
    return (
        RewardDistribution.two_point(x.rewards[0], snapped, x.weights[1]),
        abs(snapped - h),
    )
