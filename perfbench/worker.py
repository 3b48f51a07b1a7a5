"""Runs one workload as a closed loop with one caller, in this one process.

``run.py`` starts this file; it can also be started by hand::

    python3 perfbench/worker.py --workload crossval-narrow --seed 1 --seconds 5 --trace 0

It imports toepsym from the ``src`` directory next to ``perfbench``, and
refuses to run against any other copy.  ``--probe`` only imports the program
and prints ``ready``: ``run.py`` times that as the set-up cost.

Untraced, it prints one JSON line with the end-to-end metrics.  With
``--trace 1`` it runs the workload for half the time untraced, then for half
the time traced, and prints the per-layer metrics of the traced half plus the
tracing overhead (traced minus untraced) on each end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")


def import_program():
    sys.path.insert(0, SRC)
    import toepsym
    if not os.path.abspath(toepsym.__file__).startswith(SRC + os.sep):
        raise ImportError(f"toepsym was imported from {toepsym.__file__}, not from {SRC}")
    return toepsym


def blas_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The sandbox's CPU speed drifts by 15-25 % over tens of seconds, and now and
# then steps by up to 40 % within a run.  A fixed probe, timed between
# operations, measures the speed a run is getting: each operation is rescaled
# to the probe's reference time by the probes taken shortly before and after
# it (``at_reference_speed``).  The probe matches the work a workload's
# time goes to: a pure-Python loop for the interpreter-bound workloads, a few
# dense complex products for the BLAS-bound one.  Over two minutes, a band-400
# block check's time correlated 0.81 with a BLAS probe and 0.56 with the loop.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.0035
BLAS_PROBE_DIM = 384
BLAS_PROBE_PRODUCTS = 3
BLAS_PROBE_REF_S = 0.028
CALIBRATION_PERIOD_S = 0.2
PROBE_REPEATS = 3


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


@functools.lru_cache(maxsize=1)
def _blas_probe_matrix():
    import numpy as np
    rng = np.random.default_rng(0)
    shape = (BLAS_PROBE_DIM, BLAS_PROBE_DIM)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def calibrate_blas() -> float:
    """Seconds this process takes for a fixed set of dense complex products
    right now."""
    matrix = _blas_probe_matrix()
    start = time.perf_counter()
    for _ in range(BLAS_PROBE_PRODUCTS):
        matrix @ matrix
    return time.perf_counter() - start


# speed probe name -> (probe, reference seconds)
SPEED_PROBES = {"loop": (calibrate, CALIBRATION_REF_S),
                "blas": (calibrate_blas, BLAS_PROBE_REF_S)}


def speed_sample(probe) -> float:
    """Median of ``PROBE_REPEATS`` back-to-back probes, so that one
    interrupted probe does not rescale the operations around it."""
    return statistics.median(probe() for _ in range(PROBE_REPEATS))


def at_reference_speed(samples, marks, calibrations, ref_s: float) -> list:
    """Each sample multiplied by ``ref_s`` over the mean of the two probes
    taken before it and the two taken after it; ``marks[i]`` is the index in
    ``calibrations`` of the last probe before sample ``i``.  Two on each side
    rather than one keep a single noisy probe from rescaling a long operation
    on its own."""
    out = []
    for sample, mark in zip(samples, marks):
        around = calibrations[max(0, mark - 1):mark + 3]
        out.append(sample * ref_s * len(around) / sum(around))
    return out


@dataclass
class Phase:
    times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known_faults: int = 0
    unexpected: list = field(default_factory=list)
    rounds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    calibrations: list = field(default_factory=list)
    marks: list = field(default_factory=list)   # per operation, see at_reference_speed
    probe: str = "loop"

    def raw(self) -> dict:
        return {"op_p50_ms": 1e3 * statistics.median(self.times),
                "ops_per_s": len(self.times) / sum(self.times),
                "probe": self.probe, "calibration_s": statistics.median(self.calibrations)}

    def end_to_end(self) -> dict:
        scaled = at_reference_speed(self.times, self.marks, self.calibrations,
                                    SPEED_PROBES[self.probe][1])
        return {"op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
                "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}


def run_phase(workload, seed: int, seconds: float, tracer=None) -> Phase:
    """Whole rounds until ``seconds`` have passed; at least one round."""
    from tracing import raw_graph_cache_info
    from workloads import KNOWN_FAULT

    probe = SPEED_PROBES[workload.speed_probe][0]
    phase = Phase(calibrations=[speed_sample(probe)], probe=workload.speed_probe)
    start = last_calibration = time.perf_counter()
    while phase.rounds == 0 or time.perf_counter() - start < seconds:
        for op in workload.round(seed, phase.rounds):
            staged = workload.stage(op)
            if tracer is not None:
                tracer.op = phase.attempted
            phase.marks.append(len(phase.calibrations) - 1)
            before = raw_graph_cache_info()
            t0 = time.perf_counter()
            try:
                result, error = workload.execute(staged), None
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                result, error = None, exc
            phase.times.append(time.perf_counter() - t0)
            after = raw_graph_cache_info()
            if before is not None and after is not None:
                phase.cache_hits += after[0] - before[0]
                phase.cache_misses += after[1] - before[1]
            op.data["ms"] = 1e3 * phase.times[-1]
            phase.attempted += 1
            if error is not None:
                fault = f"raised {type(error).__name__}: {error}"
            else:
                # the checks call toepsym too; keep them out of the spans
                if tracer is not None:
                    tracer.paused = True
                try:
                    fault = workload.verify(op, result)
                except Exception as exc:  # malformed output counts against the operation
                    fault = f"output check raised {type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.paused = False
            if tracer is not None:
                tracer.counters["cli.output_bytes"] += op.data.get("output_bytes", 0)
            if time.perf_counter() - last_calibration >= CALIBRATION_PERIOD_S:
                phase.calibrations.append(speed_sample(probe))
                last_calibration = time.perf_counter()
            if fault is None:
                continue
            phase.failed += 1
            if op.known_fault and fault == KNOWN_FAULT:
                phase.known_faults += 1
            else:
                phase.unexpected.append({"op": op.label, "fault": fault})
        workload.end_round()
        phase.rounds += 1
    phase.calibrations.append(speed_sample(probe))
    return phase


def write_spans(spans, path: str):
    from tracing import self_times

    own = self_times(spans)
    origin = spans[0][4] if spans else 0.0
    with open(path, "w") as fh:
        for op, span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                 "start_ms": 1e3 * (start - origin),
                                 "ms": 1e3 * (end - start), "self_ms": 1e3 * own[span_id]}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened inputs, for the self-test")
    parser.add_argument("--spans", help="with --trace 1, write the traced spans here as JSON lines")
    args = parser.parse_args(argv)

    import_program()
    if args.probe:
        print("ready", flush=True)
        return 0

    from tracing import Tracer, clear_raw_graph_cache, layer_metrics, traced
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](WORKDIR, smoke=args.smoke)
    if args.trace:
        install_start = time.perf_counter()
        with traced(Tracer()):
            pass
        install_s = time.perf_counter() - install_start
        untraced = run_phase(workload, args.seed, args.seconds / 2)
        untraced_metrics = untraced.end_to_end()
        clear_raw_graph_cache()
        tracer = Tracer()
        with traced(tracer):
            traced_phase = run_phase(workload, args.seed, args.seconds / 2, tracer)
        traced_metrics = traced_phase.end_to_end()
        phases = [untraced, traced_phase]
        metrics = layer_metrics(tracer, traced_phase.attempted,
                                traced_phase.cache_hits, traced_phase.cache_misses)
        for name, entry in untraced_metrics.items():
            metrics[f"trace.overhead.{name}"] = {
                "value": traced_metrics[name]["value"] - entry["value"], "unit": entry["unit"]}
        metrics["trace.overhead.setup_s"] = {"value": install_s, "unit": "s"}
        if args.spans:
            write_spans(tracer.spans, args.spans)
    else:
        phases = [run_phase(workload, args.seed, args.seconds)]
        metrics = phases[0].end_to_end()

    unexpected = [u for p in phases for u in p.unexpected]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": [p.rounds for p in phases], "raw": [p.raw() for p in phases],
              "known_faults": sum(p.known_faults for p in phases),
              "unexpected_failures": unexpected[:20], "blas": blas_info()}
    report.update(workload.report())
    result = {"correct": not unexpected,
              "attempted": sum(p.attempted for p in phases),
              "failed": sum(p.failed for p in phases),
              "metrics": metrics, "report": report}
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
