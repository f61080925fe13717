"""Market primitives: reward grids, worker types, revenue functions, and the
fluid (mean-field) supply and profit quantities everything downstream
consumes.

All types are immutable value objects; operations are pure functions of
their arguments.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Sequence, Union

import numpy as np

__all__ = [
    "MIN_DEPARTURE_FLOOR",
    "DegenerateSupply",
    "RewardSet",
    "Tabulated",
    "ExpFloor",
    "Linear",
    "Quadratic",
    "EpsNoisy",
    "Departure",
    "WorkerType",
    "Newsvendor",
    "Power",
    "Log",
    "LinearRev",
    "Revenue",
    "MarketInstance",
    "RewardDistribution",
    "FluidOutcome",
    "expected_reward",
    "expected_departure",
    "fluid_supply",
    "fluid_profit",
    "float_field",
    "json_object",
    "instance_from_dict",
    "instance_to_dict",
    "revenue_from_dict",
    "revenue_to_dict",
    "load_instance",
]

#: Expected departure probabilities below this are treated as vanishing: the
#: fluid supply lambda/l_hat would be astronomically large, not meaningfully
#: finite, so such mixtures are declared degenerate instead.
MIN_DEPARTURE_FLOOR = 1e-12


class DegenerateSupply(ValueError):
    """An expected departure probability vanished; fluid supply is unbounded."""


def _clamp01(a):
    return np.clip(a, 0.0, 1.0)


# Cap on the entries of one table whose size the input sets: a reward range's
# points, a group of solver instances' pair slices times their widest per-slice
# row (K rates or _BOUND_PIECES kept piece indices), horizon x types x reward
# cells in the policy engine, replications x types or paid cells in the simulator.
# 10^7 float64 or int64 entries take 80 MB and a run holds a few such tables
# at once, so a run at the cap still fits a small machine, while the largest
# table a shipped study builds (1000 replications x 46 cells) is two hundred
# times smaller.
_MAX_TABLE = 10**7


def _check_table(name: str, n, width: int) -> None:
    """Raise ValueError, naming the table, unless an n x width table fits
    under _MAX_TABLE; n may be a float count, inf included."""
    if n == math.inf or int(n) * int(width) > _MAX_TABLE:
        raise ValueError(f"{name} {n} needs {n} x {width} table entries, more than the cap of {_MAX_TABLE}")


def _require_number(name: str, value, sign: str = "", error: type = ValueError) -> None:
    """Raise error("{name} must be finite[ and {sign}], got {value!r}") unless
    value is finite and has the sign, if one is named ("positive" or
    "non-negative"): comparisons such as lam <= 0 are false for NaN, so range
    checks alone let it through."""
    if not math.isfinite(value) or (sign == "positive" and value <= 0.0) or (sign == "non-negative" and value < 0.0):
        raise error(f"{name} must be finite{' and ' + sign if sign else ''}, got {value!r}")


def _require_finite(obj, *names: str) -> None:
    """_require_number of each named field of obj, every entry of a tuple
    field, named after obj's class."""
    for name in names:
        value, label = getattr(obj, name), f"{type(obj).__name__} {name}"
        for v in value if isinstance(value, tuple) else (value,):
            _require_number(label, v)


def _match(values: Sequence[float], r: float) -> int | None:
    """Index of the first of the increasing values within 1e-9 * max(1, |v|)
    of r, or None: bisect to r's insertion point, then walk down the run of
    matches around it."""

    def hit(k: int) -> bool:
        return abs(values[k] - r) <= 1e-9 * max(1.0, abs(values[k]))

    k = bisect.bisect_left(values, r)
    while k > 0 and hit(k - 1):
        k -= 1
    return k if k < len(values) and hit(k) else None


@dataclass(frozen=True)
class RewardSet:
    """Finite, strictly increasing grid of per-period money rewards."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        _require_finite(self, "values")
        if len(vals) < 2:
            raise ValueError("a reward set needs at least two rewards")
        if vals[0] < 0.0:
            raise ValueError("rewards must be non-negative")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("rewards must be strictly increasing")

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float = 1.0) -> "RewardSet":
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ValueError(f"reward range {lo!r}..{hi!r} step {step!r} must be finite")
        if step <= 0.0:
            raise ValueError("step must be positive")
        # a reversed range holds no more than one point; inf when the quotient overflows
        span = max(0.0, (hi - lo) / step)
        _check_table("rewards", span + 1.0, 1)
        n = int(math.floor(span + 1e-9))
        return cls(tuple(lo + k * step for k in range(n + 1)))

    @property
    def r_min(self) -> float:
        return self.values[0]

    @property
    def r_max(self) -> float:
        return self.values[-1]

    def index_of(self, r: float) -> int:
        """Index of the first grid reward within 1e-9 * max(1, |v|) of r."""
        k = _match(self.values, r)
        if k is None:
            raise ValueError(f"reward {r!r} is not on the grid")
        return k

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


# --------------------------------------------------------------------------
# Departure probability families. Each exposes rate(r) for scalar or ndarray
# rewards, with values clamped into [0, 1].


@dataclass(frozen=True)
class Tabulated:
    """Departure probabilities listed per grid reward; undefined off-grid."""

    rewards: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        rs = tuple(float(r) for r in self.rewards)
        vs = tuple(float(v) for v in self.values)
        object.__setattr__(self, "rewards", rs)
        object.__setattr__(self, "values", vs)
        _require_finite(self, "rewards", "values")
        if len(rs) != len(vs):
            raise ValueError("rewards and values must have equal length")
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("tabulated rewards must be strictly increasing")
        if any(v < -1e-12 or v > 1.0 + 1e-12 for v in vs):
            raise ValueError("departure probabilities must lie in [0, 1]")
        if any(b > a + 1e-12 for a, b in zip(vs, vs[1:])):
            raise ValueError("departure probabilities must be non-increasing in the reward")

    def rate(self, r):
        arr = np.asarray(r, dtype=float)
        grid = np.asarray(self.rewards)
        idx = np.clip(np.searchsorted(grid, arr), 0, len(grid) - 1)
        # searchsorted returns the right neighbour for interior values; accept
        # whichever of the two neighbours matches within tolerance
        left = np.clip(idx - 1, 0, len(grid) - 1)
        take = np.where(np.abs(grid[idx] - arr) <= np.abs(grid[left] - arr), idx, left)
        if np.any(np.abs(grid[take] - arr) > 1e-9 * np.maximum(1.0, np.abs(arr))):
            raise ValueError("tabulated departure function evaluated off its grid")
        out = _clamp01(np.asarray(self.values)[take])
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExpFloor:
    """l(r) = min(1, exp(alpha * (floor - r)))."""

    alpha: float
    floor: float

    def __post_init__(self) -> None:
        _require_finite(self, "alpha", "floor")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")

    def rate(self, r):
        return np.minimum(1.0, np.exp(self.alpha * (self.floor - np.asarray(r, dtype=float))))


@dataclass(frozen=True)
class Linear:
    """l(r) = clamp(beta - alpha * r) into [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _require_finite(self, "alpha", "beta")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")

    def rate(self, r):
        return _clamp01(self.beta - self.alpha * np.asarray(r, dtype=float))


@dataclass(frozen=True)
class Quadratic:
    """l(r) = clamp(-alpha*r^2 + beta*r + gamma) into [0, 1]."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        _require_finite(self, "alpha", "beta", "gamma")

    def rate(self, r):
        arr = np.asarray(r, dtype=float)
        return _clamp01(-self.alpha * arr * arr + self.beta * arr + self.gamma)


@dataclass(frozen=True)
class EpsNoisy:
    """Piecewise-linear ramp around a money valuation v.

    l(r) = 1 below v-eps, 0 above v+eps, and 1/2 - (r-v)/(2 eps) in between,
    so l(v) = 1/2 exactly.
    """

    v: float
    eps: float

    def __post_init__(self) -> None:
        _require_finite(self, "v", "eps")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")

    def rate(self, r):
        arr = np.asarray(r, dtype=float)
        return _clamp01(0.5 - (arr - self.v) / (2.0 * self.eps))


Departure = Union[Tabulated, ExpFloor, Linear, Quadratic, EpsNoisy]


@dataclass(frozen=True)
class WorkerType:
    """Arrival mass per period and the departure response of one worker type."""

    lam: float
    departure: Departure

    def __post_init__(self) -> None:
        _require_finite(self, "lam")
        if self.lam <= 0.0:
            raise ValueError("arrival rate must be positive")


# --------------------------------------------------------------------------
# Revenue functions of aggregate normalized supply. Each exposes value(x),
# derivative(x, side) and second_derivative(x); derivatives are one-sided at
# kinks, so callers that sit on a kink must say which side they mean.


@dataclass(frozen=True)
class Newsvendor:
    """R(x) = alpha * min(x, cap)."""

    alpha: float
    cap: float

    def __post_init__(self) -> None:
        _require_finite(self, "alpha", "cap")
        if self.alpha <= 0.0 or self.cap <= 0.0:
            raise ValueError("alpha and cap must be positive")

    def value(self, x):
        return self.alpha * np.minimum(np.asarray(x, dtype=float), self.cap)

    def derivative(self, x: float, side: str = "left") -> float:
        if x < self.cap:
            return self.alpha
        if x > self.cap:
            return 0.0
        return self.alpha if side == "left" else 0.0

    def second_derivative(self, x: float) -> float:
        return 0.0


@dataclass(frozen=True)
class Power:
    """R(x) = c * x**beta with 0 < beta < 1."""

    c: float
    beta: float

    def __post_init__(self) -> None:
        _require_finite(self, "c", "beta")
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    def value(self, x):
        return self.c * np.power(np.asarray(x, dtype=float), self.beta)

    def derivative(self, x: float, side: str = "left") -> float:
        return self.c * self.beta * x ** (self.beta - 1.0)

    def second_derivative(self, x: float) -> float:
        return self.c * self.beta * (self.beta - 1.0) * x ** (self.beta - 2.0)


@dataclass(frozen=True)
class Log:
    """R(x) = c * log(1 + x)."""

    c: float

    def __post_init__(self) -> None:
        _require_finite(self, "c")
        if self.c <= 0.0:
            raise ValueError("c must be positive")

    def value(self, x):
        return self.c * np.log1p(np.asarray(x, dtype=float))

    def derivative(self, x: float, side: str = "left") -> float:
        return self.c / (1.0 + x)

    def second_derivative(self, x: float) -> float:
        return -self.c / (1.0 + x) ** 2


@dataclass(frozen=True)
class LinearRev:
    """R(x) = alpha * x."""

    alpha: float

    def __post_init__(self) -> None:
        _require_finite(self, "alpha")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")

    def value(self, x):
        return self.alpha * np.asarray(x, dtype=float)

    def derivative(self, x: float, side: str = "left") -> float:
        return self.alpha

    def second_derivative(self, x: float) -> float:
        return 0.0


Revenue = Union[Newsvendor, Power, Log, LinearRev]


@dataclass(frozen=True)
class MarketInstance:
    """A reward grid, a set of worker types, and a revenue function.

    eps_noisy_mode relaxes the requirement that every type retains some
    probability mass at the top reward; instances built from valuation ramps
    (and the tabulated instances derived from them) legitimately hit
    l_i(r_max) = 0.

    Each type's departure rates on the grid are evaluated and validated once,
    at construction, into departure_matrix; every on-grid reader (the
    solver, fluid_supply, the policy engine, the simulator) reads that table.
    """

    rewards: RewardSet
    types: tuple[WorkerType, ...]
    revenue: Revenue
    eps_noisy_mode: bool = False
    #: (K, m) read-only matrix of departure probabilities on the reward grid
    departure_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValueError("an instance needs at least one worker type")
        grid = np.asarray(self.rewards.values)
        mat = np.array([t.departure.rate(grid) for t in self.types], dtype=float)
        # negated so that NaN, which fails every comparison, leaves [0, 1]
        outside = ~((mat >= -1e-9) & (mat <= 1.0 + 1e-9))
        rising = np.diff(mat, axis=1) > 1e-12
        vanishing = (mat[:, -1] <= 0.0) & (not self.eps_noisy_mode)
        failing = np.flatnonzero(outside.any(axis=1) | rising.any(axis=1) | vanishing)
        if failing.size:
            i = int(failing[0])
            if outside[i].any():
                bad = ~np.isfinite(mat[i])
                detail = f" (non-finite values {mat[i][bad].tolist()})" if bad.any() else ""
                raise ValueError(f"type {i}: departure probabilities leave [0, 1] on the grid{detail}")
            if rising[i].any():
                raise ValueError(f"type {i}: departure probabilities increase along the grid")
            raise ValueError(
                f"type {i}: departure vanishes at r_max; construct with "
                "eps_noisy_mode=True if this is intended"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "departure_matrix", mat)

    def __reduce__(self):
        # numpy does not pickle the read-only flag: rebuilding through the
        # constructor evaluates, checks and freezes the table again
        return type(self), (self.rewards, self.types, self.revenue, self.eps_noisy_mode)

    @property
    def K(self) -> int:
        return len(self.types)

    @cached_property
    def lambdas(self) -> np.ndarray:
        arr = np.array([t.lam for t in self.types])
        arr.setflags(write=False)
        return arr

    def max_fluid_supply(self) -> float:
        """Total fluid supply when everyone is paid r_max (inf if some type
        never departs at the top reward)."""
        top = self.departure_matrix[:, -1]
        if np.any(top < MIN_DEPARTURE_FLOOR):
            return math.inf
        return float((self.lambdas / top).sum())


@dataclass(frozen=True)
class RewardDistribution:
    """Probability distribution over a finite set of rewards.

    The domain usually coincides with the instance grid, but two-point
    lotteries may carry an off-grid high reward.
    """

    rewards: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        rs = tuple(float(r) for r in self.rewards)
        ws = [float(w) for w in self.weights]
        if len(rs) != len(ws):
            raise ValueError("rewards and weights must have equal length")
        if len(rs) == 0:
            raise ValueError("empty distribution")
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("rewards must be strictly increasing")
        for k, w in enumerate(ws):
            if w < -1e-12:
                raise ValueError("weights must be non-negative")
            if w < 0.0:
                ws[k] = 0.0  # snap float dust
        total = math.fsum(ws)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "rewards", rs)
        object.__setattr__(self, "weights", tuple(ws))

    @classmethod
    def on(cls, rewards, weights) -> "RewardDistribution":
        return cls(tuple(rewards), tuple(weights))  # a RewardSet iterates over its values

    @classmethod
    def point_mass(cls, rewards, r: float) -> "RewardDistribution":
        rewards = tuple(rewards)  # a RewardSet iterates over its values
        ws = [0.0] * len(rewards)
        k = _match(rewards, r)
        if k is None:
            raise ValueError(f"reward {r!r} is not in the domain")
        ws[k] = 1.0
        return cls(rewards, tuple(ws))

    @classmethod
    def two_point(cls, r_low: float, r_high: float, weight_high: float) -> "RewardDistribution":
        if not r_low < r_high:
            raise ValueError("need r_low < r_high")
        return cls((float(r_low), float(r_high)), (1.0 - float(weight_high), float(weight_high)))

    def support(self) -> tuple[tuple[float, float], ...]:
        return tuple((r, w) for r, w in zip(self.rewards, self.weights) if w > 0.0)

    def support_rewards(self) -> tuple[float, ...]:
        return tuple(r for r, w in zip(self.rewards, self.weights) if w > 0.0)

    def weight_at(self, r: float) -> float:
        k = _match(self.rewards, r)
        return 0.0 if k is None else self.weights[k]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights)


@dataclass(frozen=True)
class FluidOutcome:
    """Fluid steady state induced by one reward distribution."""

    x: RewardDistribution
    supply_per_type: tuple[float, ...]
    total_supply: float
    expected_reward: float
    profit: float


def expected_reward(x: RewardDistribution) -> float:
    return math.fsum(r * w for r, w in zip(x.rewards, x.weights))


def expected_departure(worker: WorkerType, x: RewardDistribution) -> float:
    """Mixture departure probability l_hat of one type under x, from one array call.

    Zero-weight rewards are skipped so that tabulated departures only need to
    cover the support.
    """
    return _mixture_rate(worker.departure, zip(x.rewards, x.weights))


def _mixture_rate(departure: Departure, support) -> float:
    """expected_departure's arithmetic over (reward, weight) pairs: one rate
    call on the positive-weight rewards, an exact sum, a clamp into [0, 1]."""
    pos = [(r, w) for r, w in support if w > 0.0]
    rates = departure.rate(np.array([r for r, _ in pos], dtype=float)).tolist()
    return _mix(rates, [w for _, w in pos])


def _mix(rates, weights) -> float:
    """The exact sum of the rate-weight products, clamped into [0, 1]."""
    return min(1.0, max(0.0, math.fsum(l * w for l, w in zip(rates, weights))))


def _mixture_rates(inst: MarketInstance, x: RewardDistribution) -> list[float]:
    """Each type's expected_departure under x, in type order. A distribution
    on the instance grid reads its rates from departure_matrix instead of
    calling rate again; the arithmetic (_mix) is the same either way."""
    if x.rewards != inst.rewards.values:
        return [expected_departure(t, x) for t in inst.types]
    pos = [k for k, w in enumerate(x.weights) if w > 0.0]
    ws = [x.weights[k] for k in pos]
    return [_mix(row, ws) for row in inst.departure_matrix[:, pos].tolist()]


def fluid_supply(inst: MarketInstance, x: RewardDistribution) -> np.ndarray:
    """Per-type fluid steady-state supply lambda_i / l_hat_i(x)."""
    lhat = np.array(_mixture_rates(inst, x))
    bad = np.flatnonzero(lhat < MIN_DEPARTURE_FLOOR)
    if bad.size:
        raise DegenerateSupply(
            f"expected departure vanishes for type(s) {bad.tolist()}; fluid supply is unbounded"
        )
    return inst.lambdas / lhat


def fluid_profit(inst: MarketInstance, x: RewardDistribution) -> FluidOutcome:
    """Fluid steady-state profit R(N) - r_hat(x) * N of distribution x."""
    per_type = fluid_supply(inst, x)
    total = float(per_type.sum())
    rhat = expected_reward(x)
    profit = float(inst.revenue.value(total)) - rhat * total
    return FluidOutcome(
        x=x,
        supply_per_type=tuple(float(v) for v in per_type),
        total_supply=total,
        expected_reward=rhat,
        profit=profit,
    )


# --------------------------------------------------------------------------
# JSON instance schema. One table per family maps each kind name to its
# class; a class's dataclass fields are its JSON keys, except those the
# instance supplies (a tabulated departure's rewards are the instance grid).

_DEPARTURE_KINDS = {
    "exp_floor": ExpFloor,
    "linear": Linear,
    "quadratic": Quadratic,
    "eps_noisy": EpsNoisy,
    "tabulated": Tabulated,
}

_REVENUE_KINDS = {
    "newsvendor": Newsvendor,
    "power": Power,
    "log": Log,
    "linear": LinearRev,
}

_KIND_NAMES = {cls: kind for table in (_DEPARTURE_KINDS, _REVENUE_KINDS) for kind, cls in table.items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def float_field(where: str, name: str, value, many: bool = False):
    """A JSON field read as a float, or as a tuple of floats when many; a
    ValueError naming where and the field when it is neither (null, missing,
    a string or boolean for a number, a number or string for a list, an
    integer too large for a float)."""
    try:
        if many and isinstance(value, (list, tuple)) and all(_is_number(v) for v in value):
            return tuple(float(v) for v in value)
        if not many and _is_number(value):
            return float(value)
    except OverflowError:
        pass
    want = "a list of numbers" if many else "a number"
    raise ValueError(f"{where}: field {name!r} must be {want}, got {value!r}")


def json_object(where: str, value) -> dict:
    """A JSON value that must be an object, returned as is; a ValueError in
    float_field's style naming where it sits otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    return value


def _kind_from_dict(family: str, table: dict, spec, **supplied):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{family} must be an object with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown {family} kind {kind!r}")
    spec, args = {**spec, **supplied}, {}
    for f in fields(cls):
        args[f.name] = float_field(f"{family} kind {kind!r}", f.name, spec.get(f.name), f.type != "float")
    return cls(**args)


def _kind_to_dict(obj, supplied: tuple[str, ...] = ()) -> dict:
    out = {"kind": _KIND_NAMES[type(obj)]}
    for f in fields(obj):
        if f.name not in supplied:
            value = getattr(obj, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def revenue_from_dict(d: dict) -> Revenue:
    return _kind_from_dict("revenue", _REVENUE_KINDS, d)


def revenue_to_dict(rev: Revenue) -> dict:
    return _kind_to_dict(rev)


def _rewards_from_spec(spec) -> RewardSet:
    if isinstance(spec, dict):
        lo, hi = (float_field("rewards", k, spec.get(k)) for k in ("min", "max"))
        return RewardSet.from_range(lo, hi, float_field("rewards", "step", spec.get("step", 1.0)))
    return RewardSet(float_field("instance", "rewards", spec, many=True))


def instance_from_dict(d: dict) -> MarketInstance:
    d = json_object("instance", d)
    rewards = _rewards_from_spec(d.get("rewards"))
    entries = d.get("types")
    if not isinstance(entries, list):
        raise ValueError(f"instance: field 'types' must be a list of objects, got {entries!r}")
    mode = d.get("eps_noisy_mode", False)
    if not isinstance(mode, bool):
        raise ValueError(f"instance: field 'eps_noisy_mode' must be true or false, got {mode!r}")
    types = []
    for j, td in enumerate(entries):
        td = json_object(f"instance: field 'types[{j}]'", td)
        dep = _kind_from_dict("departure", _DEPARTURE_KINDS, td.get("departure"), rewards=rewards.values)
        types.append(WorkerType(lam=float_field(f"type {j}", "lambda", td.get("lambda")), departure=dep))
    return MarketInstance(
        rewards=rewards,
        types=tuple(types),
        revenue=revenue_from_dict(d.get("revenue")),
        eps_noisy_mode=mode,
    )


def instance_to_dict(inst: MarketInstance) -> dict:
    return {
        "rewards": list(inst.rewards.values),
        "types": [{"lambda": t.lam, "departure": _kind_to_dict(t.departure, ("rewards",))} for t in inst.types],
        "revenue": revenue_to_dict(inst.revenue),
        "eps_noisy_mode": inst.eps_noisy_mode,
    }


def load_instance(path: Union[str, Path]) -> MarketInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
