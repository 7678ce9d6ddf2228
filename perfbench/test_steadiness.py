"""Unit tests of the benchmark's percentile and agreement logic."""

import json

import pytest

from perfbench.steadiness import (
    RunRecord,
    compare_metric,
    compare_sets,
    parse_run_output,
    percentile,
    quartiles,
    spread,
    tail_percentile,
    worsening,
)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
RATE = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_quartiles_are_statistics_exclusive_quantiles():
    assert quartiles(list(range(1, 11))) == pytest.approx((2.75, 5.5, 8.25))
    assert spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)


def test_worsening_follows_the_better_direction():
    assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert worsening(10.0, 9.0, "higher") == pytest.approx(0.1)


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert percentile(values, 0.5) == 100
    assert percentile(values, 0.95) == 190
    assert percentile([3.0], 0.99) == 3.0


def test_tail_needs_ten_samples_beyond_and_forty_in_all():
    assert tail_percentile(list(range(39))) is None
    assert tail_percentile([float(v) for v in range(1, 201)]) == (0.95, 190.0)
    assert tail_percentile([float(v) for v in range(1, 101)]) == (0.9, 90.0)


def test_metric_agrees_within_its_bound():
    first = [10.0, 10.1, 10.2, 10.1, 10.0, 10.2, 10.1, 10.0, 10.1, 10.2]
    second = [v * 1.05 for v in first]
    verdict = compare_metric("w", WALL, first, second)
    assert verdict.agrees
    assert verdict.worse_by == pytest.approx(0.05)


def test_metric_disagrees_when_the_median_worsens_past_the_bound():
    first = [10.0] * 5 + [10.1] * 5
    assert not compare_metric("w", WALL, first, [v * 1.2 for v in first]).agrees
    # Faster is never a disagreement on the median.
    assert compare_metric("w", WALL, first, [v * 0.5 for v in first]).agrees
    assert not compare_metric("w", RATE, first, [v * 0.8 for v in first]).agrees


def test_metric_disagrees_when_a_set_spreads_past_the_bound():
    steady = [10.0] * 10
    noisy = [8.0, 12.0] * 5
    assert not compare_metric("w", WALL, steady, noisy).agrees


def test_setup_spread_is_not_gated():
    steady = [5.0] * 10
    noisy = [4.0, 6.0] * 5
    verdict = compare_metric("w", SETUP, steady, noisy)
    assert verdict.spreads[1] > SETUP["bound"]
    assert verdict.agrees


def _record(failed, attempted=36, wall=10.0):
    return RunRecord("w", attempted, failed, True, {"wall_s": wall})


def test_sets_must_fail_the_same_share():
    benchmark = {"end_to_end": [WALL]}
    same, problems = compare_sets(benchmark, [_record(0)] * 3, [_record(0)] * 3)
    assert not problems and all(v.agrees for v in same)
    _, problems = compare_sets(benchmark, [_record(0)] * 3, [_record(1)] * 3)
    assert problems


def test_parse_run_output_reads_header_and_last_line():
    result = {
        "correct": True,
        "attempted": 36,
        "failed": 0,
        "metrics": {"wall_s": {"value": 41.5, "unit": "s"}},
    }
    text = "\n".join(
        [
            "# run " + json.dumps({"workload": "fig8-exact", "seed": 3}),
            "# metric wall_s = 41.5 s",
            json.dumps(result),
        ]
    )
    record = parse_run_output(text)
    assert record.workload == "fig8-exact"
    assert record.metrics == {"wall_s": 41.5}
    assert (record.attempted, record.failed, record.correct) == (36, 0, True)
