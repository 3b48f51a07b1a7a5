"""``tools/bench_pairs.summarize``: the win count, the quartiles and the
verdict it writes into ``BENCH_<pr>.json``; ``failure_shares``: each side's
median share of failed operations and the ``more_failures`` flag."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from bench_pairs import failure_shares, summarize, verdict  # noqa: E402


def _runs(base, head):
    """``perfbench/run.py`` results with one metric, ``m``, on workload ``w``."""
    return {side: [{"w": {"metrics": {"m": {"value": v}}}} for v in values]
            for side, values in (("base", base), ("head", head))}


def _metric(better):
    return {"name": "m", "unit": "ms", "better": better, "bound": 0.25}


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ties_count_for_neither_side(better):
    assert summarize(_metric(better), _runs([1, 2, 3], [1, 2, 3]), "w")["head_wins"] == 0


def test_better_lower_flips_the_sign():
    runs = _runs([2, 2, 2, 2], [1, 1, 1, 3])
    assert summarize(_metric("lower"), runs, "w")["head_wins"] == 3
    assert summarize(_metric("higher"), runs, "w")["head_wins"] == 1


def test_quartiles_are_inclusive():
    out = summarize(_metric("lower"), _runs([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]), "w")
    # the exclusive method would give [1.5, 4.5]
    assert out["base_quartiles"] == out["head_quartiles"] == [2.0, 4.0]
    assert out["base_median"] == out["head_median"] == 3
    assert out["base"] == [1, 2, 3, 4, 5] and out["head"] == [5, 4, 3, 2, 1]
    assert (out["unit"], out["better"], out["bound"]) == ("ms", "lower", 0.25)


# ten pairs around 10 with an interquartile range of 0.2
BASE = [9.8, 9.9, 9.9, 10.0, 10.0, 10.0, 10.0, 10.1, 10.1, 10.2]


def _verdict(base, head, better="lower"):
    return summarize(_metric(better), _runs(base, head), "w")["verdict"]


def test_gain_needs_nine_wins_in_ten():
    assert _verdict(BASE, [7.0] * 9 + [11.0]) == "gain"
    # 30 % better in the median, but two pairs lost
    assert _verdict(BASE, [7.0] * 8 + [11.0] * 2) == "within_bound"


def test_gain_needs_a_gap_wider_than_the_base_spread():
    wide = [8.0, 8.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 12.0, 12.0]
    # every pair won, by less than the base's interquartile range of 3.5,
    # which is wider than the bound (2.5 at a median of 10)
    assert _verdict(wide, [v - 0.5 for v in wide]) == "unresolved"
    assert _verdict(wide, [v - 4.0 for v in wide]) == "gain"


def test_worse_is_a_median_past_the_bound():
    assert _verdict(BASE, [v * 1.2 for v in BASE]) == "within_bound"
    assert _verdict(BASE, [v * 1.3 for v in BASE]) == "worse"
    # worse is reported even when the base spreads wider than the bound
    wide = [8.0, 8.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 12.0, 12.0]
    assert _verdict(wide, [v * 1.3 for v in wide]) == "worse"


def test_higher_is_better_flips_the_verdict():
    assert _verdict(BASE, [v * 1.3 for v in BASE], "higher") == "gain"
    assert _verdict(BASE, [v * 0.7 for v in BASE], "higher") == "worse"


def test_verdict_reads_the_summary():
    summary = {"better": "lower", "bound": 0.1, "base": [1.0] * 10, "head_wins": 0,
               "base_median": 1.0, "head_median": 1.05, "base_quartiles": [1.0, 1.0]}
    assert verdict(summary) == "within_bound"
    assert verdict({**summary, "head_median": 1.11}) == "worse"
    assert verdict({**summary, "base_quartiles": [0.9, 1.2]}) == "unresolved"


def _counts(base, head):
    """Runs with ``(attempted, failed)`` counts on workload ``w``."""
    return {side: [{"w": {"attempted": a, "failed": f}} for a, f in counts]
            for side, counts in (("base", base), ("head", head))}


def test_failure_share_is_the_median_of_failed_over_attempted():
    out = failure_shares(_counts([(100, 0), (200, 2), (50, 5)], [(10, 0), (0, 0), (40, 1)]), "w")
    # base shares 0, 0.01, 0.1; head 0, 0 (nothing attempted), 0.025
    assert (out["base_failed_share"], out["head_failed_share"]) == (0.01, 0.0)
    assert not out["more_failures"]


def test_more_failures_flags_a_higher_head_share():
    # more failed operations at an equal share is no rise; a higher share is
    assert not failure_shares(_counts([(100, 1)], [(300, 3)]), "w")["more_failures"]
    assert failure_shares(_counts([(100, 1)], [(100, 2)]), "w")["more_failures"]
    assert failure_shares(_counts([(100, 0)], [(4000, 1)]), "w")["more_failures"]
