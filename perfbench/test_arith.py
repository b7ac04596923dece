"""Self-test of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench

It runs no workload: it checks the tail-percentile rule, the relative
cost, span self time, the work counts behind ``path_slots_per_s``, and
that every metric ``BENCHMARK.json`` declares is one ``run.py`` can
compute.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run
from op import MAX_WINDOW, ORACLE_REPS, ORACLE_SHAPES
from stats import path_slots, relative_cost, self_times, tail_percentile, window_slots

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_tail_keeps_ten_samples_above():
    samples = list(range(1, 21))  # 20 samples
    value, pct, n = tail_percentile(samples)
    assert (value, pct, n) == (10, 50.0, 20)
    assert sum(s > value for s in samples) == 10


def test_tail_moves_up_with_more_samples():
    value, pct, n = tail_percentile(list(range(100, 0, -1)))  # unsorted input
    assert (value, pct, n) == (90, 90.0, 100)


def test_tail_needs_more_than_ten_samples():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (0, 100.0 / 11, 11)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]; second root [20, 21]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 6.0, 20.0])
    end = np.array([10.0, 5.0, 3.0, 9.0, 21.0])
    assert self_times(parent, start, end).tolist() == [3.0, 3.0, 1.0, 3.0, 1.0]


def test_self_times_add_up_to_root_durations():
    parent = np.array([-1, 0, 1, 1, 0])
    start = np.array([0.0, 0.5, 0.75, 1.5, 3.0])
    end = np.array([4.0, 2.5, 1.25, 2.0, 3.5])
    assert self_times(parent, start, end).sum() == pytest.approx(4.0)


def test_path_slot_counts():
    assert path_slots(30, 1000, 2) == 60_000
    assert run.WORKLOADS["fig5-sim"].work == 60_000
    assert run.WORKLOADS["fig6-verify"].work == run.FIG6_PATHS * 100 * 2
    assert window_slots([2, 3], 8) == 5 * 36
    statuses = sum(n for n, _ in ORACLE_SHAPES) * ORACLE_REPS
    assert run.WORKLOADS["oracle-sweep"].work == statuses * MAX_WINDOW * (MAX_WINDOW + 1) // 2


def test_relative_cost_cancels_a_slow_spell():
    # the machine runs twice as slow for the last two operations
    assert relative_cost([1.0, 1.0, 2.0, 2.0], [0.25, 0.25, 0.5, 0.5]) == 4.0
    assert relative_cost([1.0, 3.0, 1.5], [0.5, 0.5, 0.25]) == 6.0  # the median ratio
    with pytest.raises(ValueError):
        relative_cost([1.0, 2.0], [0.5])


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_every_declared_metric_is_computed():
    wl = run.WORKLOADS["fig6-verify"]
    prof = run.Profile(ops=2)
    prof.calls.update({"schedule.aoi_series": 12_000, "config.load_config": 2})
    prof.self_s.update({"config.preset_config": 0.5, "config.parse_config": 0.25})
    tally = run.Tally(attempted=4, flags=1, output_bytes=400, op_times=[1.0, 1.5, 2.0, 1.75])
    trace = {"profile": prof, "tally": tally, "traced_times": [2.5, 2.25, 2.0, 2.75]}
    names = [m["name"] for m in SPEC["per_layer"]]
    values = run.per_layer(wl, trace, names)
    assert list(values) == names
    assert values["schedule.aoi_series.per_path"] == 3.0
    assert values["config.resolve.self_s"] == 0.375
    assert values["cli.verify_flags"] == 0.25
    assert values["trace.overhead_s"] == 0.75
    assert values["markov.joint_step.calls"] == 0.0  # absent names read 0

    tally.op_times = [float(i) for i in range(1, 21)]
    tally.ref_times = [0.5] * 20
    tally.rss_kb = 40 * 1024
    timed = {"tally": tally, "setup": [0.3, 0.1, 0.2],
             "setup_refs": [run.REFERENCE_NOMINAL_S, 0.5 * run.REFERENCE_NOMINAL_S,
                           2.0 * run.REFERENCE_NOMINAL_S]}
    lines = []
    values = run.end_to_end(wl, timed, lines)
    assert list(values) == [m["name"] for m in SPEC["end_to_end"]]
    assert values["setup_s"] == pytest.approx(0.2)  # probes at nominal speed: 0.3, 0.2, 0.1
    assert values["op_time_ref"] == 21.0
    assert values["peak_rss_mb"] == 40.0
    assert "  op_tail_s = 10.0 s (p50.0 of 20 operations, 10 or more above it)" in lines
    assert f"  path_slots_per_s = {wl.work * 20 / 210.0!r} 1/s" in lines
