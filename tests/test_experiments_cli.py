"""Packaged experiments and the command line surface."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gigopt

from gigopt import RewardDistribution, expected_reward
from gigopt.experiments import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    UnknownExperiment,
    double_threshold_instance,
    example1_instance,
    experiment_defaults,
    float_range,
    normal_policy,
    power_variant_instance,
    prop5_instance,
    run_experiment,
    canonical_instance,
)
from gigopt import cli, experiments, fluid, policies
from gigopt.cli import _build_parser, main
from gigopt.market import Newsvendor, Power, instance_to_dict
from gigopt.noisy import market_instance, noisy_to_dict
from gigopt.experiments import noisy_newsvendor_instance, noisy_sqrt_instance


# --------------------------------------------------------------------------
# Instance builders


def test_builders_shapes():
    canon = canonical_instance()
    assert canon.K == 3
    assert len(canon.rewards) == 46 and canon.rewards.r_min == 15.0 and canon.rewards.r_max == 60.0
    assert all(t.lam == pytest.approx(10.0 / 3.0) for t in canon.types)
    assert isinstance(canon.revenue, Newsvendor)
    assert example1_instance().K == 1
    assert isinstance(power_variant_instance().revenue, Power)
    p5 = prop5_instance(r=2.0)
    assert p5.rewards.values == (0.0, 2.0)
    dt = double_threshold_instance(cap=75.0)
    assert dt.K == 3 and dt.revenue.cap == 75.0


# --------------------------------------------------------------------------
# Normal pay discretization


def test_normal_policy_weights():
    grid = canonical_instance().rewards
    x = normal_policy(35.0, 11.2, grid)
    assert math.fsum(x.weights) == 1.0
    assert abs(expected_reward(x) - 35.0) < 0.5
    assert all(w >= 0.0 for w in x.weights)


def test_normal_policy_zero_sigma_snaps_to_nearest():
    grid = canonical_instance().rewards
    assert normal_policy(34.9, 0.0, grid).support_rewards() == (35.0,)
    # equidistant ties resolve to the smaller reward
    assert normal_policy(35.5, 0.0, grid).support_rewards() == (35.0,)
    assert normal_policy(2.0, 0.0, grid).support_rewards() == (15.0,)
    with pytest.raises(ValueError, match="sigma"):
        normal_policy(35.0, -1.0, grid)


# --------------------------------------------------------------------------
# Experiment registry


def test_experiment_defaults_are_copies():
    ids = set(EXPERIMENT_IDS)
    assert "example1" in ids and "fig_double_threshold" in ids
    d = experiment_defaults("prop4_belief")
    d["alpha"] = 999.0
    assert experiment_defaults("prop4_belief")["alpha"] != 999.0
    with pytest.raises(UnknownExperiment, match="known:"):
        experiment_defaults("fig_bogus")


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "a"
    manifest = run_experiment(
        ExperimentSpec(id="prop4_belief", output_dir=out), run_checks=True
    )
    assert manifest["experiment"] == "prop4_belief"
    assert manifest["check_failures"] == []
    assert manifest["seed"] is None  # closed-form experiment, nothing sampled
    assert (out / "manifest.json").exists()
    for name in manifest["files"]:
        assert (out / name).exists()
    on_disk = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert on_disk["parameters"] == manifest["parameters"]


def test_run_experiment_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ma = run_experiment(ExperimentSpec(id="prop5_cyclic", output_dir=a))
    mb = run_experiment(ExperimentSpec(id="prop5_cyclic", output_dir=b))
    csvs = [f for f in ma["files"] if f.endswith(".csv")]
    assert csvs and ma["files"] == mb["files"]
    for name in csvs:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_experiment_asks_git_once(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, **kw):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(experiments.subprocess, "run", fake_run)
    experiments._git_describe.cache_clear()
    try:
        ma = run_experiment(ExperimentSpec(id="prop4_belief", output_dir=tmp_path / "a"))
        mb = run_experiment(ExperimentSpec(id="prop5_cyclic", output_dir=tmp_path / "b"))
    finally:
        experiments._git_describe.cache_clear()
    assert len(calls) == 1
    assert ma["git"] == mb["git"] == "abc1234"


def test_run_experiment_override_coercion(tmp_path):
    manifest = run_experiment(
        ExperimentSpec(id="prop5_cyclic", overrides={"r": "2.0"}, output_dir=tmp_path)
    )
    assert manifest["parameters"]["r"] == 2.0
    with pytest.raises(ValueError, match="unknown parameter"):
        run_experiment(ExperimentSpec(id="prop5_cyclic", overrides={"bogus": 1}, output_dir=tmp_path))


_NAMES = ("x_lo", "x_step", "x_hi")


def test_float_range_steps_from_the_start():
    assert float_range(0.25, 0.25, 1.0, _NAMES) == [0.25, 0.5, 0.75, 1.0]
    assert float_range(-0.5, 0.5, 0.5, _NAMES) == [-0.5, 0.0, 0.5]
    # 3 * 0.1 overshoots 0.3 by float dust: the stop is still included, rounded
    assert float_range(0.0, 0.1, 0.3, _NAMES) == [0.0, 0.1, 0.2, 0.3]
    assert float_range(2.0, 1.0, 2.0, _NAMES) == [2.0]
    assert float_range(3.0, 1.0, 2.0, _NAMES) == []
    # start + k*step, not a running sum: no drift builds up over many steps
    grid = float_range(0.25, 0.01, 21.11, _NAMES)
    assert len(grid) == 2087 and grid[-1] == 21.11
    assert grid == [round(0.25 + k * 0.01, 12) for k in range(2087)]
    # (stop - start) / step may reach the cap
    assert len(float_range(0.0, 1.0, experiments.MAX_RANGE_POINTS, _NAMES)) == experiments.MAX_RANGE_POINTS + 1


@pytest.mark.parametrize("args, message", [
    ((0.0, 0.0, 1.0), "x_step must be positive, got 0.0"),
    ((0.0, -1.0, 1.0), "x_step must be positive, got -1.0"),
    ((math.nan, 1.0, 2.0), "x_lo must be finite, got nan"),
    ((0.0, math.inf, 1.0), "x_step must be finite, got inf"),
    ((0.0, 1.0, math.inf), "x_hi must be finite, got inf"),
    ((0.0, 1.0, -math.inf), "x_hi must be finite, got -inf"),
    # just past the cap, so that a missing cap fails fast; ranges far past
    # it run in a child process (test_cli_tiny_steps_exit_promptly)
    ((0.0, 1.0, 100001.0), "x_step 1.0 gives more than 100000 points from 0.0 to 100001.0"),
    ((-1.0, 0.25, 25000.0), "x_step 0.25 gives more than 100000 points"),
])
def test_float_range_rejects_bad_bounds(args, message):
    with pytest.raises(ValueError, match=message):
        float_range(*args, _NAMES)


@pytest.mark.parametrize("experiment_id, key, value", [
    ("example1", "mu_step", 0.0),
    ("fig_normal_variance", "sigma_step", 0.0),
    ("fig_noisy_metrics", "eps_step", -1.0),
    ("fig_noisy_metrics", "eps_step", math.nan),
    ("fig_noisy_metrics", "eps_hi", math.inf),
])
def test_run_experiment_rejects_bad_range_steps(tmp_path, experiment_id, key, value):
    with pytest.raises(ValueError, match=key):
        run_experiment(ExperimentSpec(id=experiment_id, overrides={key: value}, output_dir=tmp_path))


def test_cli_reproduce_zero_step_exits_promptly(tmp_path):
    # in a child process with a timeout, so a range loop that never ends
    # fails the test instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": str(Path(gigopt.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "gigopt", "reproduce", "fig_normal_variance",
         "--set", "sigma_step=0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 2
    assert "sigma_step must be positive" in proc.stderr


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))


@pytest.mark.parametrize("argv, message", [
    (["noisy-analyze", "--eps", "0:1e-9:25"], "eps step 1e-09 gives more than 100000 points"),
    # (stop - start) / step overflows to inf
    (["noisy-analyze", "--eps=-1e308:1e-300:1e308"], "eps step 1e-300 gives more than"),
    (["reproduce", "example1", "--set", "mu_step=1e-12"], "mu_step 1e-12 gives more than"),
], ids=["eps_step", "eps_overflow", "mu_step"])
def test_cli_tiny_steps_exit_promptly(tmp_path, argv, message):
    # 2.5e10 points and more: in a child process with a timeout and a 2 GB
    # address space, so a range built point by point fails the test instead
    # of hanging the suite or filling the memory
    if argv[0] == "noisy-analyze":
        argv = argv + ["--instance", _write(tmp_path, "nv.json", noisy_to_dict(noisy_newsvendor_instance(5.0)))]
    else:
        argv = argv + ["--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(Path(gigopt.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "gigopt", *argv], capture_output=True, text=True,
                          timeout=10, env=env, preexec_fn=_limit_memory)
    assert proc.returncode == 2
    assert message in proc.stderr


# --------------------------------------------------------------------------
# CLI


@pytest.fixture()
def canon_file(tmp_path):
    p = tmp_path / "canon.json"
    p.write_text(json.dumps(instance_to_dict(canonical_instance())), encoding="utf-8")
    return str(p)


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_cli_fluid_solve(canon_file, capsys):
    assert main(["fluid-solve", "--instance", canon_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["r"] for s in doc["support"]] == [57.0, 58.0]
    assert doc["support"][1]["p"] == pytest.approx(0.33973762443800726, abs=1e-6)
    assert doc["profit"] == pytest.approx(6399.039356334297, rel=1e-9)
    assert doc["dispersion"] == "minimal"
    assert len(doc["supply"]) == 3


def test_cli_fluid_solve_with_oracle(tmp_path, capsys):
    inst = _write(tmp_path, "small.json", {
        "rewards": [15, 60],
        "types": [{"lambda": 10.0, "departure": {"kind": "tabulated", "values": [1.0, 0.2]}}],
        "revenue": {"kind": "newsvendor", "alpha": 100, "cap": 150},
    })
    assert main(["fluid-solve", "--instance", inst, "--oracle", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["grid_resolution"] == 50
    assert 0.0 <= doc["oracle"]["gap"] <= doc["oracle"]["tolerance"]


def test_cli_simulate(canon_file, tmp_path, capsys):
    weights = [0.0] * 46
    weights[20] = 1.0  # reward 35 on the 15..60 grid
    pol = _write(tmp_path, "pol.json", {"kind": "static", "x": weights})
    rc = main(["simulate", "--instance", canon_file, "--policy", pol,
               "--theta", "2", "--periods", "60", "--reps", "2", "--seed", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == 2 and doc["replications"] == 2
    assert doc["burn_in"] == 41  # ceil(10 / e^{-1.4}), the slowest mixture rate
    assert len(doc["mean_supply"]) == 3
    assert doc["mean_profit"] == pytest.approx(doc["mean_profit"])  # finite


def test_cli_sweep_theta(canon_file, capsys):
    rc = main(["sweep-theta", "--instance", canon_file, "--thetas", "1,2",
               "--reps", "4", "--measure", "40", "--burn-in", "20", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "policy,theta,loss,se,reps"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("fluid", "1"), ("fixed_wage", "1"), ("lottery", "1"),
        ("fluid", "2"), ("fixed_wage", "2"), ("lottery", "2"),
    ]
    for r in rows:
        float(r[2]), float(r[3])
        assert r[4] == "4"


def test_cli_sweep_theta_matches_fig_additive_loss(canon_file, tmp_path, capsys):
    params = {"thetas": "1,4", "reps": 4, "measure": 30, "seed": 11, "mu": 30.0, "sigma": 8.0}
    run_experiment(ExperimentSpec(id="fig_additive_loss", overrides=params, output_dir=tmp_path))
    header, *data = (tmp_path / "data.csv").read_text(encoding="utf-8").splitlines()
    labels = [h[len("loss_"):] for h in header.split(",") if h.startswith("loss_")]
    assert labels == ["fluid", "fixed_wage", "lottery"]
    want = []
    for line in data:
        theta, *cells = line.split(",")
        want += [[label, theta, cells[2 * j], cells[2 * j + 1], "4"] for j, label in enumerate(labels)]
    argv = ["sweep-theta", "--instance", canon_file, "--thetas", params["thetas"]]
    for key in ("reps", "measure", "seed", "mu", "sigma"):
        argv += [f"--{key}", str(params[key])]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(",") for ln in lines[1:]] == want


def test_cli_cyclic_eval(tmp_path, capsys):
    inst = _write(tmp_path, "p5.json", instance_to_dict(prop5_instance()))
    pol = _write(tmp_path, "cyc.json", {"kind": "cyclic", "xs": [[0.0, 1.0], [1.0, 0.0]]})
    assert main(["cyclic-eval", "--instance", inst, "--policy", pol]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] == 2
    assert doc["profit"] == pytest.approx(0.79, abs=1e-9)
    assert doc["steady_state"][0] == pytest.approx([1.9, 1.0], abs=1e-9)
    assert doc["steady_state"][1] == pytest.approx([2.0, 1.5], abs=1e-9)
    assert doc["fairness_eps"] == pytest.approx(34.0 / 195.0, abs=1e-12)
    assert doc["c0"] is None  # unbounded supply range: no finite constant
    assert doc["bound_holds"] is True
    assert [a["type"] for a in doc["anchors"]] == [0, 1]


def _prop5_files(tmp_path, xs):
    return (_write(tmp_path, "p5.json", instance_to_dict(prop5_instance())),
            _write(tmp_path, "cyc.json", {"kind": "cyclic", "xs": xs}))


def test_cli_cyclic_eval_reads_the_cycle_once(tmp_path, capsys, monkeypatch):
    calls = []
    rate_rows = policies._rate_rows
    monkeypatch.setattr(policies, "_rate_rows", lambda *a: calls.append(a) or rate_rows(*a))
    inst, pol = _prop5_files(tmp_path, [[0.0, 1.0], [1.0, 0.0]])
    assert main(["cyclic-eval", "--instance", inst, "--policy", pol]) == 0
    assert len(calls) == 1


def test_cli_simulates_the_prop5_cycle_with_its_default_burn_in(tmp_path, capsys):
    inst, pol = _prop5_files(tmp_path, [[0.0, 1.0], [1.0, 0.0]])
    assert main(["simulate", "--instance", inst, "--policy", pol, "--reps", "4", "--periods", "260"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["burn_in"] == 200  # ten over the slowest type's mean rate, 0.05


@pytest.mark.parametrize("command", ["simulate", "cyclic-eval"])
def test_cli_refuses_a_cycle_that_never_mixes(tmp_path, capsys, command):
    inst, pol = _prop5_files(tmp_path, [[0.0, 1.0], [0.0, 1.0]])
    assert main([command, "--instance", inst, "--policy", pol]) == 2
    err = capsys.readouterr().err
    assert "never" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--reps", "1000000000", "--burn-in", "0", "--periods", "10"], "replications 1000000000 needs"),
    (["sweep-theta", "--thetas", "1", "--reps", "100000000"], "replications 100000000 needs"),
    (["reproduce", "fig_additive_loss", "--reps", "100000000"], "replications 100000000 needs"),
    (["fairness-audit", "--horizon", "1000000000"], "horizon 1000000000 needs"),
    (["fairness-audit", "--horizon", "1000000000", "belief"], "horizon 1000000000 needs"),
], ids=["simulate", "sweep_theta", "reproduce", "fairness_audit", "fairness_audit_belief"])
def test_cli_oversized_tables_exit_2(tmp_path, argv, message):
    # each table is refused before it is allocated; in a child process with
    # a 2 GB address space and a timeout all the same, so an unguarded table
    # fails the test instead of filling the memory
    inst, pol = _prop5_files(tmp_path, [[0.0, 1.0], [1.0, 0.0]])
    if argv[0] == "sweep-theta":
        argv = argv + ["--instance", _write(tmp_path, "canon.json", instance_to_dict(canonical_instance()))]
    elif argv[0] == "reproduce":
        argv = argv + ["--out", str(tmp_path / "out")]
    elif argv[-1] == "belief":
        belief = {"kind": "belief_based", "alpha": 3.0, "v1": 1.0, "v2": 1.2, "D": 100.0}
        argv = argv[:-1] + ["--instance", inst, "--policy", _write(tmp_path, "belief.json", belief)]
    else:
        argv = argv + ["--instance", inst, "--policy", pol]
    env = {**os.environ, "PYTHONPATH": str(Path(gigopt.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "gigopt", *argv], capture_output=True, text=True,
                          timeout=30, env=env, preexec_fn=_limit_memory)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr


def _linear_instance(rewards) -> dict:
    return {"rewards": rewards,
            "types": [{"lambda": 5.0, "departure": {"kind": "linear", "alpha": 2.5e-5, "beta": 1.0}}],
            "revenue": {"kind": "newsvendor", "alpha": 100.0, "cap": 60.0}}


@pytest.mark.parametrize("argv, message", [
    (["fluid-solve", {"min": 1, "max": 20000, "step": 1}], "reward pairs 199990000 needs 199990000 x 32 table"),
    (["fluid-solve", {"min": 0, "max": 1e9, "step": 1e-6}], "rewards 1000000000000001.0 needs"),
    (["fluid-solve", {"min": 0, "max": 10, "step": 1e-300}], "rewards 9.999999999999999e+300 needs"),
    # 10^5 noise levels, within float_range's cap, solved as one group
    (["noisy-analyze", "--eps", "0:0.00025:25"], "reward pairs 5499905 needs 5499905 x 32 table"),
], ids=["wide_grid", "reward_range", "tiny_reward_step", "noise_levels"])
def test_cli_oversized_solves_exit_2(tmp_path, argv, message):
    # the solver's slice tables and a JSON reward range are refused before
    # they are allocated; in a child process with a 2 GB address space and a
    # timeout, so an unguarded table fails the test instead of filling the memory
    if argv[0] == "fluid-solve":
        argv = ["fluid-solve", "--instance", _write(tmp_path, "wide.json", _linear_instance(argv[1]))]
    else:
        argv = argv + ["--instance", _write(tmp_path, "dt.json", noisy_to_dict(double_threshold_instance(75.0)))]
    env = {**os.environ, "PYTHONPATH": str(Path(gigopt.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "gigopt", *argv], capture_output=True, text=True,
                          timeout=120, env=env, preexec_fn=_limit_memory)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_cli_flat_grid_solves_within_memory_and_time(tmp_path):
    # one linear type whose every pair slice is flat up to rounding, so nearly
    # every scan point ties for its slice's maximum; the kernel refines one
    # bracket per slice, in a child process with a 2 GB address space and a
    # timeout (200 rewards; the 791 the table cap admits run in CI)
    m = 200
    doc = {"rewards": {"min": 1, "max": m, "step": 1},
           "types": [{"lambda": 5.0, "departure": {"kind": "linear", "alpha": 0.5 / m, "beta": 1.0}}],
           "revenue": {"kind": "newsvendor", "alpha": 2.0 * m, "cap": 40.0}}
    env = {**os.environ, "PYTHONPATH": str(Path(gigopt.__file__).resolve().parents[1])}
    argv = ["fluid-solve", "--instance", _write(tmp_path, "flat.json", doc)]
    proc = subprocess.run([sys.executable, "-m", "gigopt", *argv], capture_output=True, text=True,
                          timeout=20, env=env, preexec_fn=_limit_memory)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["profit"] == pytest.approx(10.0 * m, rel=1e-12)


def test_cli_cyclic_eval_rejects_static(tmp_path, capsys):
    inst = _write(tmp_path, "p5.json", instance_to_dict(prop5_instance()))
    pol = _write(tmp_path, "static.json", {"kind": "static", "x": [1.0, 0.0]})
    assert main(["cyclic-eval", "--instance", inst, "--policy", pol]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_fairness_audit(tmp_path, capsys):
    inst = _write(tmp_path, "p5.json", instance_to_dict(prop5_instance()))
    pol = _write(tmp_path, "cyc.json", {"kind": "cyclic", "xs": [[0.0, 1.0], [1.0, 0.0]]})
    rc = main(["fairness-audit", "--instance", inst, "--policy", pol,
               "--tau", "2", "--horizon", "100"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_gap"] == pytest.approx(34.0 / 195.0, abs=1e-12)
    assert doc["fair"] is False
    assert doc["tau"] == 2 and doc["delta"] == 0.05


@pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
def test_cli_fairness_audit_rejects_bad_delta(tmp_path, capsys, delta):
    inst = _write(tmp_path, "p5.json", instance_to_dict(prop5_instance()))
    pol = _write(tmp_path, "cyc.json", {"kind": "cyclic", "xs": [[0.0, 1.0], [1.0, 0.0]]})
    rc = main(["fairness-audit", "--instance", inst, "--policy", pol,
               "--tau", "2", "--horizon", "100", f"--delta={delta}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "delta must be finite and non-negative" in captured.err
    assert captured.out == ""


def test_cli_noisy_analyze_curve(tmp_path, capsys):
    inst = _write(tmp_path, "nv.json", noisy_to_dict(noisy_newsvendor_instance(5.0)))
    assert main(["noisy-analyze", "--instance", inst, "--eps", "1:1:5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "eps,x_star,profit,surplus,welfare,rational_surplus,myopic_surplus"
    assert len(lines) == 6
    for ln in lines[1:]:
        eps, _, profit = (float(v) for v in ln.split(",")[:3])
        assert profit == pytest.approx(4750.0 - 290.0 * eps, abs=1e-9)


def test_cli_noisy_analyze_crossovers(tmp_path, capsys):
    inst = _write(tmp_path, "dt.json", noisy_to_dict(double_threshold_instance(cap=75.0)))
    rc = main(["noisy-analyze", "--instance", inst, "--eps", "0.25:0.25:25",
               "--detect-crossovers"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2
    assert doc["locations"] == pytest.approx([6.75, 12.0])
    assert doc["eps0"] is None  # three types: no single-type closed form


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "-1"])
def test_cli_noisy_analyze_rejects_bad_rel_tol(tmp_path, capsys, rel_tol):
    inst = _write(tmp_path, "dt.json", noisy_to_dict(double_threshold_instance(cap=75.0)))
    rc = main(["noisy-analyze", "--instance", inst, "--eps", "1:1:5",
               "--detect-crossovers", f"--rel-tol={rel_tol}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "rel_tol must be finite and non-negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "-1"])
def test_cli_noisy_analyze_rejects_bad_rel_tol_without_crossovers(tmp_path, capsys, monkeypatch, rel_tol):
    # the CSV path never reads rel_tol, but a bad value is still an error,
    # raised before any curve is solved
    inst = _write(tmp_path, "dt.json", noisy_to_dict(double_threshold_instance(cap=75.0)))

    def no_curve(*args, **kwargs):
        raise AssertionError("a curve was solved")

    monkeypatch.setattr(cli, "surplus_curve", no_curve)
    rc = main(["noisy-analyze", "--instance", inst, "--eps", "1:1:3", f"--rel-tol={rel_tol}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "rel_tol must be finite and non-negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, name", [
    (["--mu", "nan"], "mu"), (["--mu", "inf"], "mu"), (["--sigma", "nan"], "sigma"),
])
def test_cli_sweep_theta_rejects_non_finite_moments(canon_file, capsys, argv, name):
    rc = main(["sweep-theta", "--instance", canon_file, "--thetas", "1", "--reps", "2",
               "--measure", "10", "--burn-in", "5"] + argv)
    assert rc == 2
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("thetas", ["", ",,", " , "])
def test_cli_sweep_theta_rejects_an_empty_scale_list(canon_file, capsys, thetas):
    rc = main(["sweep-theta", "--instance", canon_file, "--thetas", thetas])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--thetas needs at least one scale" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, mu", [
    (["fig_normal_variance", "--set", "mus=60"], "60"),
    (["example1", "--set", "mu_lo=20000", "--set", "mu_hi=20001"], "20000.0"),
])
def test_cli_reproduce_vanishing_departure_exits_2(tmp_path, capsys, argv, mu):
    # the type never departs at that pay: fluid supply is unbounded, as
    # fluid_supply reports, not a division by zero
    assert main(["reproduce", *argv, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"expected departure vanishes at mu={mu}" in captured.err
    assert "Traceback" not in captured.err


def test_cli_reproduce_rejects_non_finite_sigma(tmp_path, capsys):
    rc = main(["reproduce", "fig_additive_loss", "--set", "sigma=nan", "--out", str(tmp_path)])
    assert rc == 2
    assert "sigma must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("experiment_id, setting", [
    ("fig_additive_loss", "thetas=1e400"),  # inf, which int() overflows on
    ("fig_additive_loss", "thetas=1.5"),  # not run as theta 1
    ("fig_additive_loss", "thetas=true"),
    ("fig_risk", "compositions=5"),
    ("fig_risk", "compositions=[[1,2]]"),
    ("fig_risk", "compositions=[1,2,3"),  # not JSON
    ("fig_risk", "compositions=[NaN,1,0]"),  # not run as a dropped type
])
def test_cli_reproduce_rejects_misshapen_tuple_settings(tmp_path, capsys, experiment_id, setting):
    # each element must be shaped like its default's: a finite number,
    # integral for an integer default and never a bool, or a list of as many
    # numbers
    assert main(["reproduce", experiment_id, "--set", setting, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"each element of {setting.split('=')[0]} must be shaped like" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_tuple_settings_keep_their_values():
    # well-shaped elements pass unchanged, lists of numbers as given
    params = experiments._resolve_params(
        experiments._lookup("fig_risk"), {"compositions": "[10,0,0],[1,8.5,1]"})
    assert params["compositions"] == ([10, 0, 0], [1, 8.5, 1])
    params = experiments._resolve_params(experiments._lookup("fig_additive_loss"), {"thetas": "1,4.0"})
    assert params["thetas"] == (1, 4.0)


def test_cli_fluid_solve_below_float_resolution_exits_promptly(tmp_path):
    # a golden-section bracket a few ulps wide stops shrinking, so a tol
    # below float resolution once never returned; in a child process with a
    # timeout, so a refinement that never ends fails the test instead of
    # hanging the suite
    path = tmp_path / "noisy_sqrt.json"
    path.write_text(json.dumps(instance_to_dict(market_instance(noisy_sqrt_instance()))), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(gigopt.__file__).resolve().parents[1])}
    for tol in ("1e-17", "1e-300"):
        proc = subprocess.run([sys.executable, "-m", "gigopt", "fluid-solve", "--instance", str(path), "--tol", tol],
                              capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["profit"] == pytest.approx(820.8333333333, rel=1e-9)


def test_cli_noisy_analyze_bad_grid(tmp_path, capsys):
    inst = _write(tmp_path, "nv.json", noisy_to_dict(noisy_newsvendor_instance(5.0)))
    assert main(["noisy-analyze", "--instance", inst, "--eps", "5:1:5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec,field", [
    ("0:nan:1", "step"), ("nan:0.25:1", "start"), ("0:0.25:inf", "stop"), ("0:inf:1", "step"),
    ("-inf:0.25:1", "start"), ("0:0.25:nan", "stop"),
])
def test_cli_noisy_analyze_rejects_non_finite_grid(tmp_path, capsys, spec, field):
    inst = _write(tmp_path, "nv.json", noisy_to_dict(noisy_newsvendor_instance(5.0)))
    assert main(["noisy-analyze", "--instance", inst, f"--eps={spec}"]) == 2
    assert f"eps {field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_cli_fluid_solve_rejects_bad_tol(canon_file, capsys, monkeypatch, tol):
    def no_scan(*args, **kwargs):
        raise AssertionError("a slice was scanned")

    monkeypatch.setattr(fluid, "_live_pairs", no_scan)
    assert main(["fluid-solve", "--instance", canon_file, "--tol", tol]) == 2
    assert "tol must be finite and positive" in capsys.readouterr().err


def test_cli_parser_is_built_once_and_shared(tmp_path, canon_file, capsys):
    assert _build_parser() is _build_parser()
    # a parse leaves nothing behind for the next one
    assert _build_parser().parse_args(["reproduce", "x", "--set", "a=1"]).set == ["a=1"]
    assert _build_parser().parse_args(["reproduce", "x"]).set is None
    # successive calls with different subcommands, a parse error in between
    assert main(["fluid-solve", "--instance", canon_file]) == 0
    assert json.loads(capsys.readouterr().out)["profit"] == pytest.approx(6399.039356334297, rel=1e-9)
    with pytest.raises(SystemExit) as exc:
        main(["fluid-solve"])
    assert exc.value.code == 2
    assert "--instance" in capsys.readouterr().err
    inst = _write(tmp_path, "dt.json", noisy_to_dict(double_threshold_instance(cap=75.0)))
    assert main(["noisy-analyze", "--instance", inst, "--eps", "0.25:0.25:25", "--detect-crossovers"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_cli_reproduce(tmp_path, capsys):
    assert main(["reproduce", "fig_bogus", "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown experiment 'fig_bogus'; known: {', '.join(EXPERIMENT_IDS)}\n"
    assert captured.out == "" and not (tmp_path / "x").exists()
    out = tmp_path / "p4"
    assert main(["reproduce", "prop4_belief", "--out", str(out), "--check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["check_failures"] == []
    assert (out / "manifest.json").exists()


def test_cli_reproduce_set_overrides(tmp_path, capsys):
    out = tmp_path / "p5"
    assert main(["reproduce", "prop5_cyclic", "--out", str(out), "--set", "r=2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["r"] == 2.0
    assert main(["reproduce", "prop5_cyclic", "--out", str(out), "--set", "bogus=1"]) == 2


def test_cli_missing_instance_file(capsys):
    assert main(["fluid-solve", "--instance", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where, value", [
    (("types", 0, "lambda"), math.nan),
    (("revenue", "cap"), math.inf),
    (("types", 1, "departure", "alpha"), math.nan),
    (("rewards", 3), math.nan),
])
def test_cli_rejects_non_finite_instance(tmp_path, capsys, where, value):
    # NaN passes checks such as lam <= 0, so each value needs its own finiteness check
    doc = instance_to_dict(canonical_instance())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    assert main(["fluid-solve", "--instance", _write(tmp_path, "bad.json", doc)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("where, value, message", [
    (("revenue", "beta"), None, "revenue kind 'power': field 'beta'"),
    (("revenue",), [1], "revenue must be an object with a 'kind'"),
    (("types", 0, "departure", "kind"), None, "unknown departure kind None"),
])
def test_cli_rejects_malformed_kind_fields(tmp_path, capsys, where, value, message):
    doc = instance_to_dict(power_variant_instance())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    assert main(["fluid-solve", "--instance", _write(tmp_path, "bad.json", doc)]) == 2
    assert message in capsys.readouterr().err


def test_cli_noisy_rejects_malformed_revenue(tmp_path, capsys):
    doc = noisy_to_dict(noisy_newsvendor_instance(5.0))
    del doc["revenue"]["kind"]
    inst = _write(tmp_path, "bad_noisy.json", doc)
    assert main(["noisy-analyze", "--instance", inst, "--eps", "1:1:5"]) == 2
    assert "revenue must be an object with a 'kind'" in capsys.readouterr().err


def test_cli_rejects_null_instance_lambda(tmp_path, capsys):
    doc = instance_to_dict(power_variant_instance())
    doc["types"][1]["lambda"] = None
    assert main(["fluid-solve", "--instance", _write(tmp_path, "bad.json", doc)]) == 2
    assert "type 1: field 'lambda' must be a number, got None" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("epsilon", None, "noisy instance: field 'epsilon' must be a number, got None"),
    ("r_max", "high", "noisy instance: field 'r_max' must be a number, got 'high'"),
    ("lambdas", [1.0, None, 2.0], "noisy instance: field 'lambdas' must be a list of numbers"),
    ("values", 30.0, "noisy instance: field 'values' must be a list of numbers"),
])
def test_cli_noisy_rejects_non_number_fields(tmp_path, capsys, field, value, message):
    doc = noisy_to_dict(noisy_newsvendor_instance(5.0))
    doc[field] = value
    inst = _write(tmp_path, "bad_noisy.json", doc)
    assert main(["noisy-analyze", "--instance", inst, "--eps", "1:1:5"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("epsilon", math.nan), ("r_max", math.inf), ("lambdas", [10.0, math.nan, 10.0])])
def test_cli_noisy_rejects_non_finite_fields(tmp_path, capsys, field, value):
    doc = noisy_to_dict(double_threshold_instance(75.0))
    doc[field] = value
    inst = _write(tmp_path, "bad_noisy.json", doc)
    assert main(["noisy-analyze", "--instance", inst, "--eps", "1:1:5"]) == 2
    assert f"NoisyInstance {field} must be finite" in capsys.readouterr().err


def _types_entry_not_object():
    doc = instance_to_dict(power_variant_instance())
    doc["types"][0] = 5
    return doc


@pytest.mark.parametrize("command, doc, message", [
    ("fluid-solve", _types_entry_not_object(), "instance: field 'types[0]' must be an object, got 5"),
    ("fluid-solve", [1, 2], "instance must be an object, got [1, 2]"),
    ("noisy-analyze", [5.0], "noisy instance must be an object, got [5.0]"),
    ("simulate", ["static"], "policy must be an object, got ['static']"),
], ids=["instance_types_entry", "instance", "noisy", "policy"])
def test_cli_rejects_non_object_json(canon_file, tmp_path, capsys, command, doc, message):
    path = _write(tmp_path, "bad.json", doc)
    argv = {
        "fluid-solve": ["fluid-solve", "--instance", path],
        "noisy-analyze": ["noisy-analyze", "--instance", path, "--eps", "1:1:5"],
        "simulate": ["simulate", "--instance", canon_file, "--policy", path, "--periods", "20", "--reps", "2"],
    }[command]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("policy, message", [
    ({"kind": "static", "x": [None] + [0.0] * 45}, "static policy: field 'x' must be a list of numbers"),
    ({"kind": "cyclic", "xs": None}, "cyclic policy: field 'xs' must be a list of weight lists"),
    ({"kind": "cyclic", "xs": [[1.0] + [0.0] * 45, 0.5]}, "cyclic policy: field 'xs[1]' must be a list"),
    ({"kind": "belief_based", "alpha": None, "v1": 1.0, "v2": 1.2, "D": 100.0},
     "belief_based policy: field 'alpha' must be a number, got None"),
], ids=["static", "cyclic", "cyclic_row", "belief"])
def test_cli_rejects_non_number_policy_fields(canon_file, tmp_path, capsys, policy, message):
    pol = _write(tmp_path, "pol.json", policy)
    assert main(["simulate", "--instance", canon_file, "--policy", pol, "--periods", "20", "--reps", "2"]) == 2
    assert message in capsys.readouterr().err


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("command, doc, message", [
    ("fluid-solve", _without(instance_to_dict(power_variant_instance()), "rewards"),
     "instance: field 'rewards' must be a list of numbers, got None"),
    ("fluid-solve", _without(instance_to_dict(power_variant_instance()), "revenue"),
     "revenue must be an object with a 'kind' key, got None"),
    ("noisy-analyze", _without(noisy_to_dict(double_threshold_instance(75.0)), "revenue"),
     "revenue must be an object with a 'kind' key, got None"),
], ids=["instance_rewards", "instance_revenue", "noisy_revenue"])
def test_cli_missing_required_key_names_the_field(tmp_path, capsys, command, doc, message):
    path = _write(tmp_path, "missing.json", doc)
    argv = [command, "--instance", path] + (["--eps", "1:1:5"] if command == "noisy-analyze" else [])
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def _set(doc, where, value):
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return doc


@pytest.mark.parametrize("where, value, message", [
    (("rewards",), "159", "instance: field 'rewards' must be a list of numbers, got '159'"),
    (("rewards", 2), True, "instance: field 'rewards' must be a list of numbers"),
    (("types", 0, "lambda"), "3.5", "type 0: field 'lambda' must be a number, got '3.5'"),
    (("types", 0, "lambda"), 10**400, "type 0: field 'lambda' must be a number"),
    (("types", 0, "departure", "alpha"), True, "departure kind 'exp_floor': field 'alpha' must be a number, got True"),
    (("revenue", "cap"), "150", "revenue kind 'newsvendor': field 'cap' must be a number, got '150'"),
    (("eps_noisy_mode",), "false", "instance: field 'eps_noisy_mode' must be true or false, got 'false'"),
    (("eps_noisy_mode",), 1, "instance: field 'eps_noisy_mode' must be true or false, got 1"),
], ids=["rewards_string", "rewards_bool", "lambda_string", "lambda_huge_int", "alpha_bool", "cap_string",
        "mode_string", "mode_int"])
def test_cli_instance_rejects_strings_and_booleans(tmp_path, capsys, where, value, message):
    doc = _set(instance_to_dict(canonical_instance()), where, value)
    assert main(["fluid-solve", "--instance", _write(tmp_path, "bad.json", doc)]) == 2
    assert message in capsys.readouterr().err


def test_cli_rejects_non_finite_departure_rates(tmp_path, capsys):
    # Quadratic.rate overflows to NaN at r = 1e10; the instance check must catch it
    doc = {"rewards": [1.0, 1e10], "eps_noisy_mode": True,
           "types": [{"lambda": 1.0, "departure": {"kind": "quadratic", "alpha": 1e300, "beta": 1e300,
                                                   "gamma": 0.5}}],
           "revenue": {"kind": "linear", "alpha": 10.0}}
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["fluid-solve", "--instance", _write(tmp_path, "nan.json", doc)]) == 2
    assert "type 0: departure probabilities leave [0, 1] on the grid (non-finite values [nan])" \
        in capsys.readouterr().err


@pytest.mark.parametrize("where, value, message", [
    (("lambdas",), "10", "noisy instance: field 'lambdas' must be a list of numbers, got '10'"),
    (("values",), [25.0, False, 40.0], "noisy instance: field 'values' must be a list of numbers"),
    (("epsilon",), True, "noisy instance: field 'epsilon' must be a number, got True"),
    (("r_max",), "100", "noisy instance: field 'r_max' must be a number, got '100'"),
    (("revenue", "alpha"), "40", "revenue kind 'newsvendor': field 'alpha' must be a number, got '40'"),
], ids=["lambdas_string", "values_bool", "epsilon_bool", "r_max_string", "alpha_string"])
def test_cli_noisy_rejects_strings_and_booleans(tmp_path, capsys, where, value, message):
    doc = _set(noisy_to_dict(double_threshold_instance(75.0)), where, value)
    assert main(["noisy-analyze", "--instance", _write(tmp_path, "bad.json", doc), "--eps", "1:1:5"]) == 2
    assert message in capsys.readouterr().err
