"""gigopt benchmark: one run of one workload.

    python3 perfbench/run.py --workload fluid_grid --seed 1 --seconds 25 --trace 0

Run from anywhere; gigopt is imported from ``src/`` beside this directory.
One process, one thread: BLAS and OpenMP pools are pinned to one thread
before numpy loads.

The run sets the workload up ``SETUP_REPEATS`` times (a fresh import of
gigopt each time) and reports the median as ``setup_s``. One untimed
warm-up pass follows. It then repeats whole passes over the op list until
``--seconds`` have passed and at least ``MIN_PASSES`` passes are done,
checking every op's output, the warm-up's included. With
``--trace 1`` it follows those passes with one traced pass and reports the
per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record (environment,
per-op times, the metrics of the other mode's extras) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans to ``perfbench/out/<workload>-seed<seed>-spans.jsonl``.
"""

from __future__ import annotations

import os

BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7  # fixed: each fresh import keeps ~0.5 MB, which peak_rss_mb sees
MIN_PASSES = {"fluid_grid": 4, "sim_market": 3, "cli_analyses": 3}
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TRACED_FUNCTIONS = {
    "fluid": ("solve_fluid", "optimize_pair", "solve_supply_opt", "brute_force_oracle", "optimal_fixed_wage"),
    "market": ("fluid_profit", "RewardSet.index_of", "load_instance"),
    "sim": ("simulate", "occupancy_samples", "default_burn_in"),
    "policies": ("distribution_at", "fluid_trajectory", "cyclic_steady_state", "fairness_audit",
                 "belief_based_policy"),
    "noisy": ("surplus_curve", "market_instance", "noisy_metrics", "detect_double_threshold"),
    "experiments": ("run_experiment",),
    "cli": ("main",),
}


class SourceMissing(RuntimeError):
    """The checkout has no gigopt sources to benchmark."""


def import_gigopt():
    """Import gigopt from src/ afresh, dropping any earlier import."""
    if not (SRC / "gigopt" / "__init__.py").is_file():
        raise SourceMissing(f"no gigopt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "gigopt" or n.startswith("gigopt.")]:
        del sys.modules[name]
    g = importlib.import_module("gigopt")
    importlib.import_module("gigopt.cli")
    if Path(g.__file__).resolve().parent != (SRC / "gigopt").resolve():
        raise SourceMissing(f"gigopt was imported from {g.__file__}, not from {SRC}")
    return g


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def wall_bound() -> float:
    """The benchmark's own bound on wall_s; the traced run's accounting
    check uses it too."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")


# --------------------------------------------------------------------------
# Running ops


def run_pass(ops: list, tracer: tracing.Tracer | None = None) -> list:
    """Run and check each op; a row (op, seconds, error or None) per op."""
    rows = []
    for k, op in enumerate(ops):
        span = tracer.begin_op(k) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            result, err = op.call(), None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            result, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.end_op(span)
        if err is None:
            try:
                err = op.check(result)
            except Exception as exc:  # malformed output
                err = f"check raised {type(exc).__name__}: {exc}"
        rows.append((op, dt, err))
    return rows


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(ops_per_pass: int, min_passes: int) -> float:
    """The highest quantile with TAIL_BEYOND samples above it at the minimum
    sample count, never below the median. Fixing it per workload keeps the
    tail on the same op of the sorted pass however many passes fit."""
    return max(0.5, 1.0 - TAIL_BEYOND / (ops_per_pass * min_passes))


def end_to_end(passes: list, setup_times: list, min_passes: int) -> tuple[dict, dict]:
    times = sorted(dt for rows in passes for _, dt, _ in rows)
    q = tail_quantile(len(passes[0]), min_passes)
    metrics = {
        "wall_s": statistics.median(sum(dt for _, dt, _ in rows) for rows in passes),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * nearest_rank(times, q),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rows = [r for p in passes for r in p]
    extra = {
        "op_tail_percentile": 100.0 * q,
        "op_samples": len(times),
        "passes": len(passes),
    }
    pairs = sum(op.pairs for op, _, _ in rows)
    if pairs:
        extra["fluid_pairs_per_s"] = pairs / sum(dt for op, dt, _ in rows if op.pairs)
    rep_periods = sum(op.rep_periods for op, _, _ in rows)
    if rep_periods:
        extra["sim_rep_periods_per_s"] = rep_periods / sum(dt for op, dt, _ in rows if op.rep_periods)
    return metrics, extra


def per_layer(tracer: tracing.Tracer, traced_wall: float, untraced_wall: float) -> dict:
    summary = tracing.summarize(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for layer, names in TRACED_FUNCTIONS.items():
        for fn in names:
            s = summary.get(f"{layer}.{fn}", empty)
            out[f"{layer}.{fn}.calls"] = (s["calls"], "count")
            out[f"{layer}.{fn}.self_s"] = (s["self_s"], "s")
            out[f"{layer}.{fn}.total_s"] = (s["total_s"], "s")
        layer_self = sum(s["self_s"] for name, s in summary.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (layer_self, "s")
    c = tracer.counters
    attempts = c["fluid.optimize_pair.attempts"]
    out["fluid.optimize_pair.interior_frac"] = (
        c["fluid.optimize_pair.interior"] / attempts if attempts else 0.0, "ratio")
    solve_s = summary.get("fluid.solve_fluid", empty)["total_s"]
    out["fluid.solve_fluid.pairs"] = (c["fluid.solve_fluid.pairs"], "count")
    out["fluid.solve_fluid.pairs_per_s"] = (c["fluid.solve_fluid.pairs"] / solve_s if solve_s else 0.0, "1/s")
    sim_s = summary.get("sim.simulate", empty)["total_s"]
    out["sim.simulate.rep_periods"] = (c["sim.simulate.rep_periods"], "count")
    out["sim.simulate.rep_periods_per_s"] = (c["sim.simulate.rep_periods"] / sim_s if sim_s else 0.0, "1/s")
    unaccounted = summary.get(tracing.OP_SPAN, empty)["self_s"]
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    out["trace.unaccounted_frac"] = (unaccounted / traced_wall, "ratio")
    return out


# --------------------------------------------------------------------------
# Environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10.0)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gigopt").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_PIN},
        "git_describe": _git_describe(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "trace": trace,
    }


# --------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        out_dir: Path = OUT_DIR) -> dict:
    """Set up, measure and (with trace) trace one workload; returns the
    result record. ``tiny`` runs the smoke-test op subsets in one pass."""
    ref = load_reference()
    min_passes = 1 if tiny else MIN_PASSES[workload]
    workdir = out_dir / f"work-{workload}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        g = import_gigopt()
        wl = workloads.SETUPS[workload](g, seed, workdir, ref, tiny)
        setup_times.append(time.perf_counter() - t0)

    warm_up = run_pass(wl.ops(0))  # checked, but its times are not used
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl.ops(len(passes) + 1)))
    metrics, extra = end_to_end(passes, setup_times, min_passes)
    rows = warm_up + [r for p in passes for r in p]
    record = {"workload": workload, "environment": environment(seed, trace), "seconds": seconds,
              "tiny": tiny, "end_to_end": metrics, "extra": extra}

    if trace:
        ops = wl.ops(len(passes) + 1)  # built untraced: only the ops' own calls are spans
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, tracer)
        finally:
            tracer.remove()
        rows += traced
        traced_wall = sum(dt for _, dt, _ in traced)
        layer = per_layer(tracer, traced_wall, metrics["wall_s"])
        accounted = sum(layer[f"{name}.self_s"][0] for name in TRACED_FUNCTIONS)
        gap = abs(accounted - traced_wall) / traced_wall
        bound = wall_bound()
        record["per_layer"] = {k: v for k, (v, _) in layer.items()}
        record["accounting"] = {"layer_self_s": accounted, "traced_wall_s": traced_wall,
                                "gap_frac": gap, "bound": bound, "ok": gap <= bound}
        record["units"] = {k: u for k, (_, u) in layer.items()}
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out_dir / f"{workload}-seed{seed}-spans.jsonl")
    else:
        record["units"] = dict(END_TO_END_UNITS)

    failures = [(op.name, err) for op, _, err in rows if err is not None]
    by_op: dict[str, list] = {}
    for op, dt, _ in (r for p in passes for r in p):
        by_op.setdefault(op.name, []).append(1e3 * dt)
    record["op_ms"] = dict(sorted(by_op.items()))
    record["pass_wall_s"] = [sum(dt for _, dt, _ in p) for p in passes]
    record["failures"] = failures[:50]
    record["attempted"] = len(rows)
    record["failed"] = len(failures)
    record["extra"]["failed_frac"] = len(failures) / len(rows)
    record["correct"] = not failures and record.get("accounting", {}).get("ok", True)
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def summary_line(record: dict) -> dict:
    values = record["per_layer"] if "per_layer" in record else record["end_to_end"]
    return {
        "correct": bool(record["correct"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in record["units"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for op, err in record["failures"]:
        print(f"FAILED {op}: {err}", file=sys.stderr)
    if "accounting" in record and not record["accounting"]["ok"]:
        print(f"accounting check failed: {record['accounting']}", file=sys.stderr)
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
