"""Benchmark entry point for toepsym.

    python3 perfbench/run.py --workload oracle-wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run it from the root of a checkout; it imports toepsym from ``src``.  For
each workload it times ``SETUP_PROBES`` fresh processes from launch until
toepsym, numpy and BLAS are imported (``setup_s``, the median at the
reference CPU speed), then runs the workload in one worker process
(``worker.py``).  It prints the worker's
report as one JSON line and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The worker's BLAS runs with one thread (``BLAS_THREADS``): on a 2-CPU
machine the default two OpenBLAS threads stall now and then, and a check at
band 200 then takes three times as long in one process as in the next.  The
worker also runs without ``PYTHONPATH`` and ``TOEPSYM_TOL``, so it imports
the program from ``src`` and decides at the program's default tolerance.

With ``--workload all`` it runs every workload in turn and ends with a table
of every metric by name and unit, with the attempted and failed counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import CALIBRATION_REF_S, WORKDIR, at_reference_speed, calibrate, speed_sample

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("oracle-wide", "crossval-narrow", "explore-sweep")
SETUP_PROBES = 9
DEADLINE_S = 175.0
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    env.pop("TOEPSYM_TOL", None)
    return env


def probe(env: dict, deadline: float) -> float:
    """Seconds from launching a fresh interpreter until it has imported the
    program and is ready for its first operation."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "--probe"], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise BenchmarkError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_worker(args, workload: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.spans:
        cmd += ["--spans", os.path.abspath(f"{args.spans}.{workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} did not finish before the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def measure_setup(env: dict, deadline: float) -> dict:
    """Median set-up time of ``SETUP_PROBES`` fresh processes, each rescaled
    to the reference CPU speed like the worker's timings (see
    worker.at_reference_speed)."""
    samples, calibrations = [], [speed_sample(calibrate)]
    for _ in range(SETUP_PROBES):
        samples.append(probe(env, deadline))
        calibrations.append(speed_sample(calibrate))
    scaled = at_reference_speed(samples, range(SETUP_PROBES), calibrations, CALIBRATION_REF_S)
    return {"setup_s": statistics.median(scaled), "samples_s": samples,
            "calibrations_s": calibrations}


def run_one(args, workload: str) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    setup = None if args.trace else measure_setup(env, deadline)
    result = run_worker(args, workload, env, deadline)
    report = result.pop("report")
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup.pop("setup_s"), "unit": "s"}
        report["setup_raw"] = setup
    print(json.dumps({"report": report}), flush=True)
    return result


def print_table(results: dict):
    print(f"{'workload':<16} {'metric':<40} {'value':>14} unit")
    for workload, result in results.items():
        print(f"{workload:<16} {'attempted':<40} {result['attempted']:>14} count")
        print(f"{workload:<16} {'failed':<40} {result['failed']:>14} count")
        for name, entry in sorted(result["metrics"].items()):
            print(f"{workload:<16} {name:<40} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{workload:<16} {'correct':<40} {str(result['correct']):>14}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shortened inputs")
    parser.add_argument("--spans", metavar="PREFIX",
                        help="with --trace 1, write each workload's spans to PREFIX.<workload>.jsonl")
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(args, name) for name in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if args.workload == "all":
        print_table(results)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
