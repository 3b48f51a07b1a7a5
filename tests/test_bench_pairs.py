"""``tools/bench_pairs.summarize``: the win count and the quartiles it writes
into ``BENCH_<pr>.json``."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from bench_pairs import summarize  # noqa: E402


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
