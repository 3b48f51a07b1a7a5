"""Run the benchmark on two revisions in alternated pairs and write the runs to JSON.

    python3 tools/bench_pairs.py --base 595fd5a --head HEAD --seed 201 \
        --out BENCH_14.json

Each revision is extracted with ``git archive`` into its own temporary
directory, and ``perfbench/run.py`` runs every workload there for 20 s, one
revision at a time, in 10 pairs.  Pair ``i`` runs both revisions at seed
``--seed + i``, the base first when ``i`` is even and the head first when it
is odd.  For every end-to-end metric that the head's ``BENCHMARK.json`` lists,
on every workload, the file holds each run, each side's median and quartiles,
the number of pairs the head won (a tie counts for neither side) and a
verdict (see :func:`verdict`), beside each run's ``attempted``, ``failed`` and
``correct``.  Each workload also gets each side's median share of failed
operations and a ``more_failures`` flag (see :func:`failure_shares`), and a
workload whose report lists its ``checks`` (oracle-wide) each side's median
check time by ``spec@band/input`` group (see :func:`check_groups`), which
shows the group that carries ``op_p50_ms``.

To measure uncommitted work, stage it and pass the commit that
``git stash create`` prints as ``--head``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
PAIRS = 10
SECONDS = 20.0


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, **kwargs)


def extract(rev: str, into: str):
    archive = git("archive", rev).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run(tree: str, seed: int) -> dict:
    """``perfbench/run.py``'s result for each workload, by name (see :func:`parse`)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          cwd=tree, check=True, capture_output=True, text=True)
    return parse(proc.stdout)


def parse(stdout: str) -> dict:
    """The results on the last line of ``run.py --workload all``, each
    workload's with the ``report`` that the run printed for it, one
    ``{"report": ...}`` line per workload, in order, before the last line."""
    lines = stdout.strip().splitlines()
    results = json.loads(lines[-1])
    reports = [json.loads(line)["report"] for line in lines[:-1] if line.startswith('{"report"')]
    for result, report in zip(results.values(), reports, strict=True):
        result["report"] = report
    return results


def verdict(summary: dict) -> str:
    """``gain`` when the head won at least 9 pairs in 10 and its median beats
    the base's by more than the base's interquartile range; else ``worse``
    when its median is worse than the base's by more than ``bound`` (a share
    of the base median); else ``unresolved`` when the base's interquartile
    range is wider than that share; else ``within_bound``."""
    sign = 1 if summary["better"] == "higher" else -1
    base, head = summary["base_median"], summary["head_median"]
    q1, q3 = summary["base_quartiles"]
    allowed = summary["bound"] * abs(base)
    if 10 * summary["head_wins"] >= 9 * len(summary["base"]) and sign * (head - base) > q3 - q1:
        return "gain"
    if sign * (base - head) > allowed:
        return "worse"
    if q3 - q1 > allowed:
        return "unresolved"
    return "within_bound"


def summarize(metric: dict, runs: dict[str, list[dict]], workload: str) -> dict:
    name = metric["name"]
    values = {side: [r[workload]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    sign = 1 if metric["better"] == "higher" else -1
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "head_wins": sum(sign * (h - b) > 0 for b, h in zip(values["base"], values["head"]))}
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
        out.update({side: values[side], f"{side}_median": statistics.median(values[side]),
                    f"{side}_quartiles": [q1, q3]})
    out["verdict"] = verdict(out)
    return out


def failure_shares(runs: dict[str, list[dict]], workload: str) -> dict:
    """Each side's median of ``failed / attempted`` over its runs (0 for a run
    that attempted nothing), and ``more_failures``, true when the head's
    median is higher than the base's."""
    out = {}
    for side in SIDES:
        shares = [r[workload]["failed"] / r[workload]["attempted"] if r[workload]["attempted"]
                  else 0.0 for r in runs[side]]
        out[f"{side}_failed_share"] = statistics.median(shares)
    out["more_failures"] = out["head_failed_share"] > out["base_failed_share"]
    return out


def check_groups(runs: dict[str, list[dict]], workload: str) -> dict:
    """Each side's median ``ms`` over the ``checks`` that the workload's
    reports list, pooled over its runs, by ``spec@band/input`` group; empty
    when the reports list none."""
    times = {side: defaultdict(list) for side in SIDES}
    for side in SIDES:
        for r in runs[side]:
            for check in r[workload]["report"].get("checks", ()):
                times[side][f"{check['spec']}@{check['band']}/{check['input']}"].append(check["ms"])
    return {group: {side: statistics.median(times[side][group]) for side in SIDES
                    if times[side][group]}
            for group in sorted(times["base"].keys() | times["head"].keys())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", default="HEAD", help="the changed revision")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    revs = {"base": args.base, "head": args.head}
    shas = {side: git("rev-parse", rev, text=True).stdout.strip() for side, rev in revs.items()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as base_tree, tempfile.TemporaryDirectory() as head_tree:
        trees = {"base": base_tree, "head": head_tree}
        for side in SIDES:
            extract(shas[side], trees[side])
        for i in range(PAIRS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run(trees[side], args.seed + i))
                print(f"pair {i} {side} done", file=sys.stderr, flush=True)
        with open(os.path.join(head_tree, "BENCHMARK.json")) as fh:
            metrics = json.load(fh)["end_to_end"]
    workloads = {
        workload: {
            **{m["name"]: summarize(m, runs, workload) for m in metrics},
            **{key: {side: [r[workload][key] for r in runs[side]] for side in SIDES}
               for key in ("attempted", "failed", "correct")},
            "failures": failure_shares(runs, workload),
        }
        for workload in runs["head"][0]}
    for workload, entry in workloads.items():
        if groups := check_groups(runs, workload):
            entry["check_ms_by_group"] = groups
    report = {"base": shas["base"], "head": shas["head"], "pairs": PAIRS,
              "seeds": [args.seed + i for i in range(PAIRS)], "seconds": SECONDS,
              "first_in_pair": ["base" if i % 2 == 0 else "head" for i in range(PAIRS)],
              "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                          "processor": platform.processor() or platform.machine()},
              "workloads": workloads}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, entry in workloads.items():
        for m in metrics:
            s = entry[m["name"]]
            print(f"{workload:<16} {m['name']:<12} {s['base_median']:>10.4g} -> "
                  f"{s['head_median']:<10.4g} head wins {s['head_wins']}/{PAIRS} "
                  f"{s['verdict']}")
        f = entry["failures"]
        print(f"{workload:<16} {'failed share':<12} {f['base_failed_share']:>10.4g} -> "
              f"{f['head_failed_share']:<10.4g}"
              f"{' more_failures' if f['more_failures'] else ''}")
        for group, ms in entry.get("check_ms_by_group", {}).items():
            print(f"{workload:<16} {group:<36} {ms.get('base', math.nan):>8.4g} -> "
                  f"{ms.get('head', math.nan):<8.4g} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
