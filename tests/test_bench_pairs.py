"""scripts/bench_pairs.py's summary of alternating parent/change benchmark pairs.

The summary is checked on canned run.py results, so no process is started.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(**metrics):
    """run.py's last line with these metric values."""
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}


def pair(workload, seed, parent, change):
    first = "parent" if seed % 2 else "change"
    return {"workload": workload, "seed": seed, "first": first,
            "parent": result(**parent), "change": result(**change)}


BETTER = {"wall_s": "lower", "success_rate": "higher"}
PAIRS = [
    pair("a", 1, {"wall_s": 1.0, "success_rate": 1.0}, {"wall_s": 0.9, "success_rate": 1.0}),
    pair("a", 2, {"wall_s": 2.0, "success_rate": 0.5}, {"wall_s": 2.0, "success_rate": 1.0}),
    pair("a", 3, {"wall_s": 3.0, "success_rate": 1.0}, {"wall_s": 3.5, "success_rate": 0.5}),
    pair("a", 4, {"wall_s": 4.0, "success_rate": 1.0}, {"wall_s": 1.0, "success_rate": 1.0}),
    pair("a", 5, {"wall_s": 5.0, "success_rate": 1.0}, {"wall_s": 4.0, "success_rate": 1.0}),
    pair("b", 1, {"wall_s": 7.0, "peak_rss_mb": 30.0}, {"wall_s": 6.0, "peak_rss_mb": 31.0}),
]


def test_quartiles_medians_and_raw_values_per_side():
    wall = bench_pairs.summarise(PAIRS, BETTER)["a"]["wall_s"]
    # statistics.quantiles' default (exclusive) method on 1..5 and 0.9, 1, 2, 3.5, 4
    assert wall["parent"] == {"q1": 1.5, "median": 3.0, "q3": 4.5,
                              "values": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert wall["change"]["median"] == 2.0
    assert (wall["change"]["q1"], wall["change"]["q3"]) == (pytest.approx(0.95), 3.75)
    assert wall["change"]["values"] == [0.9, 2.0, 3.5, 1.0, 4.0]
    assert wall["pairs"] == 5 and wall["better"] == "lower"


def test_wins_follow_the_direction_and_a_tie_counts_for_neither():
    summary = bench_pairs.summarise(PAIRS, BETTER)["a"]
    # wall_s is lower-better: pairs 1, 4, 5 to the change, 3 to the parent, 2 a tie
    assert (summary["wall_s"]["change_won"], summary["wall_s"]["parent_won"]) == (3, 1)
    # success_rate is higher-better: pair 2 to the change, 3 to the parent, the rest ties
    assert summary["success_rate"]["better"] == "higher"
    assert (summary["success_rate"]["change_won"], summary["success_rate"]["parent_won"]) == (1, 1)


def test_each_workload_is_summarised_on_its_own_pairs():
    summary = bench_pairs.summarise(PAIRS, BETTER)
    assert list(summary) == ["a", "b"]
    b = summary["b"]
    assert list(b) == ["wall_s", "peak_rss_mb"]
    # one pair: every quartile is its value; an unlisted metric is lower-better
    assert b["peak_rss_mb"]["parent"] == {"q1": 30.0, "median": 30.0, "q3": 30.0,
                                          "values": [30.0]}
    assert b["peak_rss_mb"]["better"] == "lower"
    assert (b["peak_rss_mb"]["change_won"], b["peak_rss_mb"]["parent_won"]) == (0, 1)
    assert (b["wall_s"]["change_won"], b["wall_s"]["parent_won"]) == (1, 0)


def test_the_spread_is_printed_next_to_the_bound():
    summary = bench_pairs.summarise(PAIRS, BETTER)
    lines = bench_pairs.spread_lines(summary, {"wall_s": 0.25, "peak_rss_mb": 0.05})
    assert len(lines) == 3  # a has no peak_rss_mb
    a_wall, b_wall, b_rss = lines
    assert a_wall.split()[:2] == ["a", "wall_s"]
    assert "change won 3/5" in a_wall and "parent spread 1.0000 (bound 0.25)" in a_wall
    assert b_rss.split()[:2] == ["b", "peak_rss_mb"]
    assert "parent 30 change 31" in b_rss and "parent spread 0.0000 (bound 0.05)" in b_rss
    assert "change won 1/1" in b_wall


def runs(workload, parent, change):
    """One pair per run: in pair i each side reports the i-th value of each metric."""
    count = len(next(iter(parent.values())))
    return [pair(workload, i + 1, {name: values[i] for name, values in parent.items()},
                 {name: values[i] for name, values in change.items()}) for i in range(count)]


def test_a_line_says_when_the_change_is_worse_or_cannot_be_judged(no_process):
    wide = [1.0, 1.2, 1.4, 1.6, 1.8]  # median 1.4, quartiles 1.1 and 1.7: spread 0.43
    pairs = [
        # better in the median, but not in every run: unresolved
        *runs("noisy", {"wall_s": wide}, {"wall_s": [1.0, 1.2, 1.3, 1.5, 1.7]}),
        # every change run beats every parent run: judged, though the spread is wide
        *runs("clear", {"wall_s": wide}, {"wall_s": [0.5, 0.6, 0.7, 0.8, 0.9]}),
        # worse by 30% against a 25% bound, with no spread
        *runs("slow", {"wall_s": [1.0] * 5}, {"wall_s": [1.3] * 5}),
        # worse by 20%, or 1 MB against a 1.5 MB bound, with no spread: neither
        *runs("within", {"wall_s": [1.0] * 5, "peak_rss_mb": [30.0] * 5},
              {"wall_s": [1.2] * 5, "peak_rss_mb": [31.0] * 5}),
        # success_rate is higher-better: a 10% fall is worse against a 1% bound
        *runs("failing", {"success_rate": [1.0] * 5}, {"success_rate": [0.9] * 5}),
    ]
    summary = bench_pairs.summarise(pairs, BETTER)
    lines = bench_pairs.spread_lines(summary, {"wall_s": 0.25, "peak_rss_mb": 0.05,
                                               "success_rate": 0.01})
    ends = {tuple(line.split()[:2]): line.split()[-1] for line in lines}
    assert ends == {
        ("noisy", "wall_s"): "unresolved",
        ("clear", "wall_s"): "0.25)",
        ("slow", "wall_s"): "worse",
        ("within", "wall_s"): "0.25)",
        ("within", "peak_rss_mb"): "0.05)",
        ("failing", "success_rate"): "worse",
    }


def traced(workload, seed, parent, change):
    """A pair whose sides report these .calls counts."""
    return pair(workload, seed, {f"{span}.calls": n for span, n in parent.items()},
                {f"{span}.calls": n for span, n in change.items()})


def test_the_call_count_gate_names_each_changed_span():
    pairs = [
        traced("a", 1, {"cli": 2, "cli.read_trace_csv": 1}, {"cli": 2, "cli.read_trace_csv": 1}),
        traced("a", 2, {"cli": 2, "cli.read_trace_csv": 1}, {"cli": 2, "cli.read_trace_csv": 2}),
        # a span only one side reports has changed its count too
        traced("b", 1, {"cli": 3}, {"cli": 3, "markov.classify": 1}),
    ]
    assert bench_pairs.call_count_changes(pairs, set()) == [
        "a seed 2: cli.read_trace_csv calls 1 (parent) != 2 (change)",
        "b seed 1: markov.classify calls None (parent) != 1 (change)",
    ]
    assert bench_pairs.call_count_changes(pairs, {"cli.read_trace_csv"}) == [
        "b seed 1: markov.classify calls None (parent) != 1 (change)",
    ]
    assert bench_pairs.call_count_changes(pairs[:1], set()) == []


def test_metrics_other_than_call_counts_never_trip_the_gate():
    assert bench_pairs.call_count_changes(PAIRS, set()) == []


@pytest.fixture
def no_process(monkeypatch):
    """Fail any attempt of bench_pairs to start a process."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", refuse)


def test_calibrate_records_the_floors_the_load_and_the_contention(monkeypatch, no_process):
    floors = {"pass": 0.02, "import numpy": 0.07}
    monkeypatch.setattr(bench_pairs, "fresh_seconds", lambda code, runs: floors[code])
    monkeypatch.setattr(bench_pairs, "loop_seconds", lambda copies: {1: 0.5, 2: 0.9}[copies])
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (1.25, 0.5, 0.25))
    assert bench_pairs.calibrate(3) == {
        "python_pass_s": 0.02, "import_numpy_s": 0.07, "loadavg": [1.25, 0.5, 0.25],
        "loop_alone_s": 0.5, "loop_two_at_once_s": 0.9, "contention": pytest.approx(1.8),
    }


def calibration(pass_s, contention, load):
    return {"python_pass_s": pass_s, "import_numpy_s": 0.1, "loadavg": [load, 0.0, 0.0],
            "loop_alone_s": 1.0, "loop_two_at_once_s": contention, "contention": contention}


def test_the_calibration_range_is_printed_per_workload(no_process):
    pairs = [
        {**PAIRS[0], "calibration": {"before": calibration(0.05, 1.9, 1.0),
                                     "after": calibration(0.04, 2.0, 1.5)}},
        {**PAIRS[1], "calibration": {"before": calibration(0.06, 1.1, 0.5),
                                     "after": calibration(0.05, 1.8, 1.0)}},
        {**PAIRS[5], "calibration": {"before": calibration(0.03, 1.0, 0.0),
                                     "after": calibration(0.03, 1.0, 0.0)}},
    ]
    a, b = bench_pairs.calibration_lines(pairs)
    assert a.split()[:2] == ["a", "calibration"]
    assert "python_pass_s 0.04..0.06" in a and "import_numpy_s 0.1..0.1" in a
    assert "contention 1.1..2" in a and "loadavg_1min 0.5..1.5" in a
    assert "contention 1..1" in b and "loadavg_1min 0..0" in b
    # the median wall_s over the median import numpy floor, 0.1 s
    assert a.endswith("wall_s/import_numpy parent 15 change 14.5")
    assert b.endswith("wall_s/import_numpy parent 70 change 60")
    # a traced run reports no wall_s, and its line ends with the load
    traced_pair = {**traced("a", 1, {"cli": 1}, {"cli": 1}),
                   "calibration": pairs[0]["calibration"]}
    assert bench_pairs.calibration_lines([traced_pair])[0].endswith("loadavg_1min 1..1.5")
