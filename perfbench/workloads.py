"""The three gigopt benchmark workloads: set-up, op lists and output checks.

An op is one timed call into gigopt's public API. A workload's set-up builds
everything the ops need (instances, JSON input files, pre-solved policies);
``Workload.ops(pass_no)`` then returns one pass over its op list, with fresh
instance objects and per-op seeds derived from the workload seed.

Every op carries a check of its output against ``reference.json``, which
``record_reference.py`` fills from a known-good version of gigopt.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

Z = 5.0  # width of the statistical gates, in standard errors

# sim_market: the fig_additive_loss cells plus a wide, a cyclic and an
# occupancy group
SIM_PERIODS = 500
SIM_REPS = 50
WIDE_REPS = 1000
WIDE_THETA = 64
THETAS = (1, 64, 4096)
POLICIES = ("fluid", "fixed_wage", "lottery")
OCC_SAMPLES = 160  # as long as a simulate cell, so op_p50_ms falls inside that group

# cli_analyses
REPRODUCE_IDS = (
    "fig_double_threshold",
    "fig_noisy_metrics",
    "fig_normal_variance",
    "example1",
    "prop5_cyclic",
    "prop4_belief",
)
# fig_double_threshold on a quarter of its default 100-point noise grid:
# 100 small solves instead of 400, so that a 25-second run holds six or more passes;
# its --check still finds the two crossovers at each cap
REPRODUCE_SETS = {"fig_double_threshold": ["--set", "n_eps=25"]}
NOISY_CAP = 75.0  # two crossovers (fig_double_threshold)
NOISY_EPS = "0:0.5:25"  # half the CLI's default grid; the same two crossovers
CLI_SIM_PERIODS = 2000
CLI_SIM_REPS = 20
ORACLE_GRID = 50
# as long as the three small reproduce ops, so op_p50_ms falls in the middle
# of that group, not on the gap above it
FAIRNESS_HORIZON = 250

FLUID_OPT_TOL = {"weight": 1e-6, "rel": 1e-8}  # golden comparison of fluid solves

# fluid_grid: the canonical market on a finer reward grid, 61 rewards and
# 1830 pair slices; short enough that a 25-second run holds six or more passes
DENSE_STEP = 0.75


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is correct
    pairs: int = 0  # m(m-1)/2 of a fluid solve, from the input size
    rep_periods: int = 0  # replications x periods of a simulate call


@dataclass
class Workload:
    seed: int
    make_ops: Callable[[int], list]

    def ops(self, pass_no: int) -> list:
        """One pass over the op list, in an order drawn from the seed."""
        ops = self.make_ops(pass_no)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, pass_no]))
        return [ops[k] for k in rng.permutation(len(ops))]


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# --------------------------------------------------------------------------
# Checks


def check_fluid(out, gold: dict) -> Optional[str]:
    supp = [(float(r), float(w)) for r, w in out.x.support()]
    want = [tuple(p) for p in gold["support"]]
    same = len(supp) == len(want) and all(
        abs(r - gr) <= 1e-9 * max(1.0, abs(gr)) and abs(w - gw) <= FLUID_OPT_TOL["weight"]
        for (r, w), (gr, gw) in zip(supp, want)
    )
    if not same:
        return f"support {supp} differs from the recorded {want}"
    for key in ("profit", "total_supply"):
        got = float(getattr(out, key))
        if not math.isclose(got, gold[key], rel_tol=FLUID_OPT_TOL["rel"], abs_tol=1e-9):
            return f"{key} {got!r} differs from the recorded {gold[key]!r}"
    return None


def check_mean(mean: float, se: float, gold: dict, upper: Optional[float]) -> Optional[str]:
    """Statistical gate: within Z combined standard errors of the recorded
    mean, and at most Z standard errors above the fluid bound."""
    tol = Z * math.hypot(se, gold["se"])
    if not abs(mean - gold["mean"]) <= tol:
        return f"mean {mean!r} is further than {tol:.4g} from the recorded {gold['mean']!r}"
    if upper is not None and not mean <= upper + Z * se:
        return f"mean {mean!r} exceeds the fluid bound {upper!r} by more than {Z} SE"
    return None


# --------------------------------------------------------------------------
# fluid_grid


def fluid_instances(g, tiny: bool = False) -> dict:
    """The fixed instance set, as fresh objects."""
    E = g.experiments
    if tiny:
        return {"power_variant": E.power_variant_instance()}
    canon = E.canonical_instance()
    out = {"canonical": canon, "power_variant": E.power_variant_instance()}
    for comp in E.experiment_defaults("fig_risk")["compositions"]:
        out["risk_" + "_".join(f"{v:g}" for v in comp)] = E.mixture_instance(comp)
    dense = g.RewardSet.from_range(15.0, 60.0, DENSE_STEP)
    out[f"dense_{len(dense)}"] = dataclasses.replace(canon, rewards=dense)
    return out


def setup_fluid_grid(g, seed: int, workdir: Path, ref: dict, tiny: bool = False) -> Workload:
    gold = ref["fluid"]
    budget = gold["supply_opt"]["budget"]

    def make_ops(pass_no: int) -> list:
        ops = []
        for name, inst in fluid_instances(g, tiny).items():
            m = len(inst.rewards)
            ops.append(Op(name, lambda inst=inst: g.solve_fluid(inst),
                          lambda out, want=gold[name]: check_fluid(out, want),
                          pairs=m * (m - 1) // 2))
        canon = g.experiments.canonical_instance()
        b = g.BudgetedInstance(canon, budget)
        m = len(canon.rewards)
        ops.append(Op("supply_opt", lambda: g.solve_supply_opt(b),
                      lambda out: check_fluid(out, gold["supply_opt"]), pairs=m * (m - 1) // 2))
        return ops

    return Workload(seed, make_ops)


# --------------------------------------------------------------------------
# sim_market


@dataclass(frozen=True)
class SimCell:
    policy: str
    theta: int
    realized: bool = False
    reps: int = SIM_REPS
    occupancy: bool = False
    wide: bool = False

    @property
    def ref(self) -> str:
        """Key of the cell's reference entry; the mean does not depend on reps."""
        if self.occupancy:
            return f"occupancy/{self.theta}"
        return f"{self.policy}/{self.theta}/{'realized' if self.realized else 'expected'}"

    @property
    def name(self) -> str:
        return "wide/" + self.ref if self.wide else self.ref


def sim_cells(tiny: bool = False) -> list:
    if tiny:
        return [SimCell("lottery", 64, reps=10), SimCell("lottery", 64, True, reps=10),
                SimCell("cyclic", 64, reps=10), SimCell("fluid", 64, reps=20, occupancy=True)]
    cells = [SimCell(p, t, rc) for p in POLICIES for t in THETAS for rc in (False, True)]
    cells.append(SimCell("fluid", WIDE_THETA, reps=WIDE_REPS, wide=True))
    cells.append(SimCell("cyclic", 64))
    cells += [SimCell("fluid", t, reps=OCC_SAMPLES, occupancy=True) for t in THETAS]
    return cells


def sim_policies(g) -> dict:
    """Pre-solved policies with their burn-in and fluid profit bound."""
    canon = g.experiments.canonical_instance()
    loss = g.experiments.experiment_defaults("fig_additive_loss")
    fluid = g.solve_fluid(canon)
    fixed = g.optimal_fixed_wage(canon)[1]
    lottery = g.lottery_for_instance(canon, loss["mu"], loss["sigma"])[0]
    pols = {"fluid": g.Static(fluid.x), "fixed_wage": g.Static(fixed.x), "lottery": g.Static(lottery)}
    burn = max(g.default_burn_in(canon, p) for p in pols.values())
    out = {name: (pol, burn, g.fluid_profit(canon, pol.x).profit) for name, pol in pols.items()}
    cyc = g.Cyclic((fluid.x, fixed.x))
    out["cyclic"] = (cyc, g.default_burn_in(canon, cyc), g.cyclic_profit(canon, cyc))
    return out


def sim_call(g, inst, cell: SimCell, policy, burn: int, seed: int):
    if cell.occupancy:
        return lambda: g.occupancy_samples(inst, policy.x, cell.theta, cell.reps, burn, seed)
    cfg = g.SimConfig(theta=cell.theta, periods=SIM_PERIODS, burn_in=burn,
                      replications=cell.reps, seed=seed, realized_cost=cell.realized)
    return lambda: g.simulate(inst, policy, cfg)


def sim_check(cell: SimCell, gold: dict, bound: float):
    if cell.occupancy:
        def check(samples) -> Optional[str]:
            samples = np.asarray(samples, dtype=float)
            if samples.shape != (cell.reps,):
                return f"got {samples.shape} samples, expected {cell.reps}"
            se = float(samples.std(ddof=1) / math.sqrt(cell.reps))
            return check_mean(float(samples.mean()), se, gold, bound * cell.theta)
        return check

    def check(res) -> Optional[str]:
        if res.replications != cell.reps or res.theta != cell.theta:
            return "result does not match its configuration"
        return check_mean(res.mean_profit, res.std_error, gold, bound)
    return check


def setup_sim_market(g, seed: int, workdir: Path, ref: dict, tiny: bool = False) -> Workload:
    pols = sim_policies(g)
    cells = sim_cells(tiny)
    supply_bound = float(g.fluid_supply(g.experiments.canonical_instance(), pols["fluid"][0].x).sum())

    def make_ops(pass_no: int) -> list:
        inst = g.experiments.canonical_instance()
        ops = []
        for k, cell in enumerate(cells):
            policy, burn, profit_bound = pols[cell.policy]
            bound = supply_bound if cell.occupancy else profit_bound
            ops.append(Op(
                cell.name,
                sim_call(g, inst, cell, policy, burn, derive_seed(seed, pass_no, k)),
                sim_check(cell, ref["sim"][cell.ref], bound),
                rep_periods=0 if cell.occupancy else cell.reps * SIM_PERIODS,
            ))
        return ops

    return Workload(seed, make_ops)


# --------------------------------------------------------------------------
# cli_analyses


# A two-type market on five rewards, small enough for the exhaustive oracle.
ORACLE_INSTANCE = {
    "rewards": [15.0, 26.0, 37.0, 48.0, 60.0],
    "types": [
        {"lambda": 6.0, "departure": {"kind": "tabulated", "values": [0.9, 0.6, 0.45, 0.3, 0.2]}},
        {"lambda": 4.0, "departure": {"kind": "tabulated", "values": [1.0, 0.8, 0.35, 0.25, 0.1]}},
    ],
    "revenue": {"kind": "newsvendor", "alpha": 100.0, "cap": 60.0},
}


def run_cli(g, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = g.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_check(parse: Callable[[dict], Optional[str]]):
    def check(result) -> Optional[str]:
        rc, out, err = result
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-300:]}"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return parse(doc)
    return check


def _reproduce_ok(doc: dict) -> Optional[str]:
    fails = doc.get("check_failures")
    if fails is None:
        return "manifest has no check_failures"
    return f"check failures: {fails}" if fails else None


def _close(got, want, tol: float = 1e-9) -> bool:
    return np.allclose(np.asarray(got, dtype=float), np.asarray(want, dtype=float), rtol=0.0, atol=tol)


def setup_cli_analyses(g, seed: int, workdir: Path, ref: dict, tiny: bool = False) -> Workload:
    gold = ref["cli"]
    E = g.experiments
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        path = workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    canon = E.canonical_instance()
    fluid = g.solve_fluid(canon)
    canon_file = write("canonical.json", g.instance_to_dict(canon))
    fluid_file = write("fluid_policy.json", {"kind": "static", "x": list(fluid.x.weights)})
    p5_file = write("prop5.json", g.instance_to_dict(E.prop5_instance()))
    cyc_file = write("prop5_policy.json", {"kind": "cyclic", "xs": [list(x.weights) for x in E.prop5_policy().xs]})
    noisy_file = write("noisy.json", g.noisy.noisy_to_dict(E.double_threshold_instance(NOISY_CAP)))
    oracle_file = write("oracle.json", ORACLE_INSTANCE)

    def noisy_ok(doc: dict) -> Optional[str]:
        want = gold["noisy_locations"]
        if doc["count"] != 2 or not _close(doc["locations"], want):
            return f"crossovers {doc['locations']} differ from the recorded {want}"
        return None

    def cyclic_ok(doc: dict) -> Optional[str]:
        want = gold["cyclic_eval"]
        if not (_close(doc["profit"], want["profit"]) and _close(doc["steady_state"], want["steady_state"])):
            return f"cyclic steady state {doc['steady_state']} differs from the recorded one"
        return None

    def fairness_ok(doc: dict) -> Optional[str]:
        if not _close(doc["max_gap"], gold["fairness_audit"]["max_gap"], 1e-12):
            return f"max_gap {doc['max_gap']!r} differs from the recorded value"
        return None

    def simulate_ok(doc: dict) -> Optional[str]:
        return check_mean(doc["mean_profit"], doc["std_error"], gold["simulate"], fluid.profit)

    def oracle_ok(doc: dict) -> Optional[str]:
        o = doc["oracle"]
        if not -1e-9 * max(1.0, abs(o["profit"])) <= o["gap"] <= o["tolerance"]:
            return f"solver-oracle gap {o['gap']!r} outside [0, {o['tolerance']!r}]"
        want = gold["fluid_solve"]
        support = [[s["r"], s["p"]] for s in doc["support"]]
        if not (math.isclose(doc["profit"], want["profit"], rel_tol=FLUID_OPT_TOL["rel"])
                and _close(support, want["support"], FLUID_OPT_TOL["weight"])):
            return f"solution {support}, {doc['profit']!r} differs from the recorded one"
        return None

    reproduce = ("prop4_belief",) if tiny else REPRODUCE_IDS

    def make_ops(pass_no: int) -> list:
        calls = [(f"reproduce/{rid}",
                  ["reproduce", rid, "--check", "--out", str(workdir / rid), *REPRODUCE_SETS.get(rid, [])],
                  _reproduce_ok)
                 for rid in reproduce]
        if not tiny:
            calls.append(("noisy-analyze", ["noisy-analyze", "--instance", noisy_file, "--eps", NOISY_EPS,
                                            "--detect-crossovers"], noisy_ok))
        calls.append(("cyclic-eval", ["cyclic-eval", "--instance", p5_file, "--policy", cyc_file], cyclic_ok))
        calls.append(("fairness-audit", ["fairness-audit", "--instance", p5_file, "--policy", cyc_file,
                                         "--tau", "2", "--horizon", str(FAIRNESS_HORIZON)], fairness_ok))
        if not tiny:
            calls.append(("simulate", [
                "simulate", "--instance", canon_file, "--policy", fluid_file,
                "--periods", str(CLI_SIM_PERIODS), "--reps", str(CLI_SIM_REPS),
                "--seed", str(derive_seed(seed, pass_no, len(calls)))], simulate_ok))
        calls.append(("fluid-solve", ["fluid-solve", "--instance", oracle_file, "--oracle", str(ORACLE_GRID)],
                      oracle_ok))
        return [Op(name, lambda argv=argv: run_cli(g, argv), cli_check(ok)) for name, argv, ok in calls]

    return Workload(seed, make_ops)


SETUPS = {
    "fluid_grid": setup_fluid_grid,
    "sim_market": setup_sim_market,
    "cli_analyses": setup_cli_analyses,
}
