"""A tiny pass of each workload through the whole harness, traced."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


@pytest.mark.parametrize("workload", ["fluid_grid", "sim_market", "cli_analyses"])
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    record = run.run(workload, seed=3, seconds=0.0, trace=True, tiny=True, out_dir=tmp_path)
    assert record["failures"] == []
    assert record["correct"] and record["attempted"] > 0 and record["failed"] == 0
    assert record["accounting"]["ok"]
    assert set(record["end_to_end"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in record["end_to_end"].values())
    line = run.summary_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert "trace.overhead_frac" in line["metrics"]
    assert "cli.main.self_s" in line["metrics"]
    assert (tmp_path / f"{workload}-seed3-spans.jsonl").exists()


def test_cli_layers_are_all_seen(tmp_path):
    layer = run.run("cli_analyses", seed=4, seconds=0.0, trace=True, tiny=True, out_dir=tmp_path)["per_layer"]
    for name in ("cli.main", "experiments.run_experiment", "policies.fairness_audit",
                 "market.load_instance", "fluid.brute_force_oracle"):
        assert layer[f"{name}.calls"] > 0, name


def test_a_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    real = run.workloads.check_fluid
    monkeypatch.setattr(run.workloads, "check_fluid",
                        lambda out, gold: real(out, dict(gold, profit=gold["profit"] + 1.0)))
    record = run.run("fluid_grid", seed=1, seconds=0.0, trace=False, tiny=True, out_dir=tmp_path)
    assert not record["correct"] and record["failed"] == record["attempted"]
    assert run.summary_line(record)["metrics"].keys() == run.END_TO_END_UNITS.keys()


def test_missing_sources_are_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.SourceMissing):
        run.import_gigopt()
