"""Self-time arithmetic and installation of the layer tracer."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_self_time_of_nested_spans():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
        span("d", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    # every instant of the root is owned by exactly one span
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 6.0, parent=0), span("c", 4.0, 8.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)  # children cover [1, 8]


def test_children_are_clipped_to_the_parent():
    spans = [span("a", 0.0, 10.0), span("b", 8.0, 12.0, parent=0), span("c", -1.0, 1.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(7.0)


def test_disjoint_and_contained_intervals():
    assert tracing.covered_length([(0, 1), (2, 3), (2.5, 2.7)], 0, 10) == pytest.approx(2.0)
    assert tracing.covered_length([], 0, 10) == 0.0
    assert tracing.covered_length([(11, 12)], 0, 10) == 0.0


def test_summarize_groups_by_name():
    spans = [span("a", 0.0, 4.0), span("b", 1.0, 2.0, parent=0), span("b", 5.0, 6.0)]
    s = tracing.summarize(spans)
    assert s["a"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert s["b"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_install_wraps_every_binding_and_remove_restores():
    g = run.import_gigopt()
    original = g.fluid.solve_fluid
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (g, g.fluid, g.sim, g.noisy, g.experiments, g.cli):
            assert mod.solve_fluid is not original
        inst = g.experiments.example1_instance()
        small = g.MarketInstance(rewards=g.RewardSet((15.0, 30.0, 60.0)), types=inst.types,
                                 revenue=inst.revenue)
        rec = tracer.begin_op(0)
        g.solve_fluid(small)
        tracer.end_op(rec)
    finally:
        tracer.remove()
    assert g.fluid.solve_fluid is original and g.solve_fluid is original
    assert "index_of" in vars(g.RewardSet) and not hasattr(g.RewardSet.index_of, "__wrapped__")
    s = tracing.summarize(tracer.spans)
    assert s["fluid.solve_fluid"]["calls"] == 1
    assert s["fluid.optimize_pair"]["calls"] == 3
    assert s["market.RewardSet.index_of"]["calls"] > 0
    parents = {tracer.spans[k][0] for _, _, _, k, _ in tracer.spans if k >= 0}
    assert {"bench.op", "fluid.solve_fluid", "fluid.optimize_pair"} <= parents
    assert tracer.counters["fluid.solve_fluid.pairs"] == 3
    assert tracer.counters["fluid.optimize_pair.attempts"] == 3
