"""The gain and bound rule of tools/bench_pairs.py, on plain lists.

``compare`` decides whether a change's end-to-end metric is a gain (it
wins at least nine tenths of the pairs and its median beats the base's by
more than the base's interquartile range) and whether it moves past its
bound (its median is worse by more than the bound's fraction).
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def metric(better, bound=0.25):
    return {"name": "m", "better": better, "bound": bound}


# base 100..109: median 104.5, quartiles 102.25 and 106.75 (range 4.5)
BASE = [100.0 + i for i in range(10)]


def shifted(by, losing=()):
    """BASE moved up by `by`, but moved down by 1 in the pairs `losing`."""
    return [b - 1.0 if i in losing else b + by for i, b in enumerate(BASE)]


def test_nine_wins_past_the_interquartile_range_is_a_gain(compare):
    row = compare(metric("higher"), BASE, shifted(10.0, losing={9}))
    assert (row["wins"], row["losses"], row["ties"]) == (9, 1, 0)
    assert row["base_quartiles"] == [102.25, 106.75]
    assert row["change_median"] - row["base_median"] > 4.5
    assert row["gain"]


def test_eight_wins_is_not_a_gain(compare):
    row = compare(metric("higher"), BASE, shifted(10.0, losing={8, 9}))
    assert (row["wins"], row["losses"]) == (8, 2)
    assert not row["gain"]


def test_nine_wins_within_the_interquartile_range_is_not_a_gain(compare):
    row = compare(metric("higher"), BASE, shifted(4.0, losing={9}))
    assert row["wins"] == 9 and not row["gain"]


def test_a_tied_pair_counts_for_neither_side(compare):
    change = shifted(10.0, losing={9})
    change[8] = BASE[8]
    row = compare(metric("higher"), BASE, change)
    assert (row["wins"], row["losses"], row["ties"]) == (8, 1, 1)
    assert not row["gain"]
    change[9] = BASE[9]
    row = compare(metric("higher"), BASE, change)
    assert (row["wins"], row["losses"], row["ties"]) == (8, 0, 2)
    assert not row["gain"]


def test_lower_is_better_flips_the_sign(compare):
    up = compare(metric("lower"), BASE, shifted(10.0, losing={9}))
    assert (up["wins"], up["losses"]) == (1, 9) and not up["gain"]
    down = compare(metric("lower"), BASE, [b - 10.0 for b in BASE])
    assert down["wins"] == 10 and down["gain"]


@pytest.mark.parametrize("better,change,past", [
    ("lower", 126.0, True), ("lower", 125.0, False), ("lower", 70.0, False),
    ("higher", 74.0, True), ("higher", 75.0, False), ("higher", 130.0, False),
])
def test_past_bound_only_when_worse_by_more_than_the_bound(compare, better,
                                                           change, past):
    row = compare(metric(better), [100.0] * 10, [change] * 10)
    assert row["past_bound"] is past


@pytest.mark.parametrize("better,change,past", [
    ("lower", 5.0, True), ("higher", 5.0, False), ("lower", 0.0, False),
    ("higher", 0.0, False),
])
def test_a_zero_base_median_moves_past_any_bound(compare, better, change,
                                                  past):
    row = compare(metric(better), [0.0] * 10, [change] * 10)
    assert row["past_bound"] is past
    assert row["median_change"] == (float("inf") if change else 0.0)
