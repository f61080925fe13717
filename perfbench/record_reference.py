"""Record the reference outputs that the benchmark checks every op against.

    python3 perfbench/record_reference.py

Run it from the repository root on a version of gigopt whose results are
trusted; it rewrites ``perfbench/reference.json``. Fluid solves are recorded
exactly. Simulator cells are recorded as a mean and standard error over many
more replications than the benchmark runs, so that a later change may move
RNG streams and still pass the statistical gate. Takes about a minute.
"""

from __future__ import annotations

import run  # first: pins BLAS threads before numpy loads

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as W

REF_SEED = 20240811
REF_REPS = 1000
REF_SAMPLES = 2000
REF_CLI_REPS = 400


def fluid_entry(out, **extra) -> dict:
    return {
        "support": [[float(r), float(w)] for r, w in out.x.support()],
        "profit": float(out.profit),
        "total_supply": float(out.total_supply),
        **extra,
    }


def record_fluid(g) -> dict:
    ref = {name: fluid_entry(g.solve_fluid(inst)) for name, inst in W.fluid_instances(g).items()}
    canon = ref["canonical"]
    budget = canon["total_supply"] * sum(r * w for r, w in canon["support"])
    out = g.solve_supply_opt(g.BudgetedInstance(g.experiments.canonical_instance(), budget))
    ref["supply_opt"] = fluid_entry(out, budget=budget)
    return ref


def record_sim(g) -> dict:
    pols = W.sim_policies(g)
    inst = g.experiments.canonical_instance()
    ref = {}
    for cell in W.sim_cells() + W.sim_cells(tiny=True):
        if cell.ref in ref:
            continue
        policy, burn, _ = pols[cell.policy]
        seed = W.derive_seed(REF_SEED, len(ref))
        if cell.occupancy:
            s = np.asarray(g.occupancy_samples(inst, policy.x, cell.theta, REF_SAMPLES, burn, seed), float)
            ref[cell.ref] = {"mean": float(s.mean()), "se": float(s.std(ddof=1) / np.sqrt(len(s))),
                             "n": REF_SAMPLES}
        else:
            cfg = g.SimConfig(theta=cell.theta, periods=W.SIM_PERIODS, burn_in=burn,
                              replications=REF_REPS, seed=seed, realized_cost=cell.realized)
            res = g.simulate(inst, policy, cfg)
            ref[cell.ref] = {"mean": res.mean_profit, "se": res.std_error, "n": REF_REPS}
        print(f"sim {cell.ref}: {ref[cell.ref]}", file=sys.stderr)
    return ref


def record_cli(g, workdir: Path) -> dict:
    """Outputs of the cli_analyses ops that have a known answer, from the
    workload's own input files."""
    wl = W.setup_cli_analyses(g, REF_SEED, workdir, {"cli": {}})

    def parse(result, what: str) -> dict:
        rc, out, err = result
        if rc != 0:
            raise RuntimeError(f"{what}: exit {rc}: {err}")
        return json.loads(out)

    docs = {op.name: parse(op.call(), op.name) for op in wl.make_ops(0)
            if op.name in ("noisy-analyze", "cyclic-eval", "fairness-audit", "fluid-solve")}
    sim = parse(W.run_cli(g, ["simulate", "--instance", str(workdir / "canonical.json"),
                              "--policy", str(workdir / "fluid_policy.json"),
                              "--periods", str(W.CLI_SIM_PERIODS), "--reps", str(REF_CLI_REPS),
                              "--seed", str(REF_SEED)]), "simulate")
    solved = docs["fluid-solve"]
    return {
        "noisy_locations": docs["noisy-analyze"]["locations"],
        "fluid_solve": {"profit": solved["profit"], "support": [[x["r"], x["p"]] for x in solved["support"]]},
        "cyclic_eval": {"profit": docs["cyclic-eval"]["profit"], "steady_state": docs["cyclic-eval"]["steady_state"]},
        "fairness_audit": {"max_gap": docs["fairness-audit"]["max_gap"]},
        "simulate": {"mean": sim["mean_profit"], "se": sim["std_error"], "n": REF_CLI_REPS},
    }


def main() -> int:
    g = run.import_gigopt()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        ref = {"fluid": record_fluid(g), "sim": record_sim(g), "cli": record_cli(g, Path(tmp))}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
