"""``tools/bench_pairs.summarize``: the win count, the quartiles and the
verdict it writes into ``BENCH_<pr>.json``; ``failure_shares``: each side's
median share of failed operations and the ``more_failures`` flag;
``check_groups``: each side's median check time by group, read from a fake
run's report lines."""

import json
import pathlib
import statistics
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402
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


def _check(spec, band, kind, ms):
    return {"spec": spec, "band": band, "input": kind, "n": 2 * band + 2, "ms": ms,
            "residual": 0.5, "reference": 0.5, "verdict": "not_symmetric"}


def _fake_stdout(side: str, seed: int) -> str:
    """What ``run.py --workload all`` prints: a report line per workload,
    the table, then the results.  The head's checks take 1 ms less."""
    ms = (5.0 if side == "base" else 4.0) + seed / 100
    checks = [_check("block_c", 200, "generic", ms), _check("block_c", 200, "generic", ms + 1),
              _check("reversal:2", 800, "symmetric", 10 * ms)]
    if side == "head":  # a group that only the head's runs reach
        checks.append(_check("block_ctilde", 200, "symmetric", ms))
    result = {"attempted": 3, "failed": 0, "correct": True,
              "metrics": {"op_p50_ms": {"value": ms, "unit": "ms"}}}
    return "\n".join([json.dumps({"report": {"checks": checks, "setup_raw": {}}}),
                      json.dumps({"report": {"trials": 3}}),
                      "workload         metric    value unit",
                      json.dumps({"oracle-wide": result, "crossval-narrow": result})]) + "\n"


def test_parse_gives_each_workload_its_report_line():
    results = bench_pairs.parse(_fake_stdout("base", 0))
    assert list(results) == ["oracle-wide", "crossval-narrow"]
    assert [c["ms"] for c in results["oracle-wide"]["report"]["checks"]] == [5.0, 6.0, 50.0]
    assert results["crossval-narrow"]["report"] == {"trials": 3}
    assert results["oracle-wide"]["metrics"]["op_p50_ms"]["value"] == 5.0


def test_a_fake_run_writes_check_medians_by_group(tmp_path, monkeypatch):
    def extract(rev, into):
        (pathlib.Path(into) / "SIDE").write_text(rev)
        (pathlib.Path(into) / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}))

    real_run = subprocess.run

    def fake_run(argv, cwd=None, **kwargs):
        if argv[1:2] != ["perfbench/run.py"]:  # platform.processor() runs uname
            return real_run(argv, cwd=cwd, **kwargs)
        seed = int(argv[argv.index("--seed") + 1])
        return subprocess.CompletedProcess(argv, 0, _fake_stdout(
            (pathlib.Path(cwd) / "SIDE").read_text(), seed), "")

    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kwargs: subprocess.CompletedProcess(
        args, 0, args[-1] + "\n", ""))
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", "base", "--head", "head", "--seed", "1",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    groups = report["workloads"]["oracle-wide"]["check_ms_by_group"]
    assert list(groups) == ["block_c@200/generic", "block_ctilde@200/symmetric",
                            "reversal:2@800/symmetric"]
    seeds = range(1, 11)
    # the median of every check in the group, pooled over the side's ten runs
    assert groups["block_c@200/generic"] == {
        side: statistics.median([ms + extra for s in seeds for extra in (0, 1)
                                 for ms in [(5.0 if side == "base" else 4.0) + s / 100]])
        for side in ("base", "head")}
    assert groups["reversal:2@800/symmetric"]["base"] == statistics.median(
        [10 * (5.0 + s / 100) for s in seeds])
    assert groups["block_ctilde@200/symmetric"] == {
        "head": statistics.median([4.0 + s / 100 for s in seeds])}
    # a workload whose report lists no checks gets no groups
    assert "check_ms_by_group" not in report["workloads"]["crossval-narrow"]
    assert report["workloads"]["oracle-wide"]["op_p50_ms"]["head_wins"] == 10
