"""Spans and counters recorded around the calls into each toepsym module.

Tracing lives entirely in the benchmark: :func:`traced` swaps attributes of
the ``toepsym`` modules for timing wrappers and puts the originals back on
exit.  A wrapper records one span (operation id, span id, parent span id,
name, start, end) and, where a counter is attached, adds what it reads from
the call's arguments and return value.  Those counts are *computed* from
shapes and lengths, not measured.

Each module resolves its callees through its own globals, so a function is
wrapped in every module namespace it is called from; the same function gets
the same span name everywhere.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from toepsym import cli, conditions, symbols, symmetry

BYTES_PER_COMPLEX = 16


def _dense_bytes(counter: str):
    def count(counters, args, result):
        dim = (result.data if hasattr(result, "data") else result.matrix).shape[0]
        counters[counter] += BYTES_PER_COMPLEX * dim * dim
    return count


def _residual_flops(counters, args, result):
    # two dense complex products, 8 real flops per complex multiply-add
    dim = args[0].data.shape[0]
    counters["symmetry.residual.flops_computed"] += 2 * 8 * dim ** 3


def _relation_count(counters, args, result):
    counters["conditions.relations"] += len(result)


def _violation_count(counters, args, result):
    counters["conditions.violations"] += len(result.violations)


# (module, attribute, span name, counter)
TARGETS = [
    (symmetry, "truncate", "toeplitz.truncate", _dense_bytes("toeplitz.bytes_computed")),
    (symmetry, "block_truncate", "toeplitz.truncate", _dense_bytes("toeplitz.bytes_computed")),
    (symmetry, "truncated_matrix", "conjugations.truncated_matrix",
     _dense_bytes("conjugations.bytes_computed")),
    (symmetry, "residual", "symmetry.residual", _residual_flops),
    (conditions, "is_c_symmetric", "symmetry.is_c_symmetric", None),
    (conditions, "run_check", "conditions.run_check", None),
    (cli, "run_check", "conditions.run_check", None),
    (conditions, "equivalence_trial", "conditions.equivalence_trial", None),
    # Every condition check ends in one of the two evaluate_* calls, so
    # violations are counted there once.  The explorers call the evaluators
    # and checks directly, not through condition_reports.
    (conditions, "condition_reports", "conditions.condition_reports", None),
    (conditions, "check_transposition", "conditions.condition_reports", None),
    (conditions, "check_block_mixed_necessary", "conditions.condition_reports", None),
    (conditions, "evaluate_scalar_relations", "conditions.condition_reports", _violation_count),
    (conditions, "evaluate_block_relations", "conditions.condition_reports", _violation_count),
    (conditions, "raw_relations_general", "conditions.enumerate", _relation_count),
    (conditions, "raw_relations_transposition", "conditions.enumerate", _relation_count),
    (conditions, "interchange_sign_relations", "conditions.enumerate", _relation_count),
    (conditions, "block_hadamard_relations", "conditions.enumerate", _relation_count),
    (conditions, "block_mixed_necessary_relations", "conditions.enumerate", _relation_count),
    (conditions, "project_to_raw", "conditions.project", None),
    (conditions, "project_to_conditions", "conditions.project", None),
    (conditions, "random_block_hadamard_symmetric", "conditions.sampler", None),
    (conditions, "random_block_mixed_symmetric", "conditions.sampler", None),
    (conditions, "explore_transposition", "conditions.explore", None),
    (conditions, "explore_block_mixed", "conditions.explore", None),
    (conditions, "random_symbol", "symbols.random", None),
    (conditions, "random_matrix_symbol", "symbols.random", None),
    (cli, "parse_symbol", "symbols.parse", None),
    (cli, "main", "cli.main", None),
]
CLASS_TARGETS = [
    (symbols.LaurentSymbol, "from_json", "symbols.parse"),
    (symbols.MatrixSymbol, "from_json", "symbols.parse"),
]


class Tracer:
    """In-memory span list plus counters for one traced phase.  While
    ``paused`` is set the wrappers only pass calls through, so the
    benchmark's own checks do not count as program work."""

    def __init__(self):
        self.spans: list[list] = []   # [op, span_id, parent_id, name, start, end]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self.paused = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [self.op, len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result
        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in TARGETS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        for cls, attr, name in CLASS_TARGETS:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, classmethod(tracer.wrap(name, original.__func__)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans (children clipped to the parent, overlaps
    counted once)."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append(span)
    out = {}
    for span in spans:
        start, end = span[4], span[5]
        covered, reach = 0.0, start
        for child in sorted(children.get(span[1], ()), key=lambda s: s[4]):
            lo, hi = max(child[4], reach), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[1]] = (end - start) - covered
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count and self seconds."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self": 0.0})
    for span in spans:
        entry = totals[span[3]]
        entry["calls"] += 1
        entry["self"] += own[span[1]]
    return totals


def raw_graph_cache_info():
    """``(hits, misses)`` of the raw equality-graph cache, or ``None`` when
    the program has no such cache."""
    cached = getattr(conditions, "_raw_components", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


def clear_raw_graph_cache():
    cached = getattr(conditions, "_raw_components", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


# per-layer time metric -> span name whose self time it sums
TIME_LAYERS = {
    "toeplitz.truncate.ms": "toeplitz.truncate",
    "conjugations.truncated_matrix.ms": "conjugations.truncated_matrix",
    "symmetry.residual.ms": "symmetry.residual",
    "conditions.enumerate.ms": "conditions.enumerate",
    "conditions.condition_reports.self_ms": "conditions.condition_reports",
    "conditions.project.ms": "conditions.project",
    "conditions.sampler.ms": "conditions.sampler",
    "conditions.explore.self_ms": "conditions.explore",
    "symbols.random.ms": "symbols.random",
    "symbols.parse.ms": "symbols.parse",
    "cli.main.self_ms": "cli.main",
}
CALL_LAYERS = {
    "toeplitz.truncate.calls": "toeplitz.truncate",
    "symmetry.residual.calls": "symmetry.residual",
}
COUNTERS = {
    "toeplitz.bytes_computed": "B/op",
    "conjugations.bytes_computed": "B/op",
    "symmetry.residual.flops_computed": "flop/op",
    "conditions.relations": "1/op",
    "conditions.violations": "1/op",
    "cli.output_bytes": "B/op",
}


def layer_metrics(tracer: Tracer, ops: int, cache_hits: int, cache_misses: int) -> dict:
    """Per-operation layer metrics of one traced phase of ``ops`` operations."""
    totals = layer_totals(tracer.spans)
    ops = max(ops, 1)
    out = {}
    for metric, name in TIME_LAYERS.items():
        value = totals[name]["self"] if name in totals else 0.0
        out[metric] = {"value": 1e3 * value / ops, "unit": "ms/op"}
    for metric, name in CALL_LAYERS.items():
        calls = totals[name]["calls"] if name in totals else 0
        out[metric] = {"value": calls / ops, "unit": "1/op"}
    for metric, unit in COUNTERS.items():
        out[metric] = {"value": tracer.counters.get(metric, 0.0) / ops, "unit": unit}
    lookups = cache_hits + cache_misses
    out["conditions.raw_graph.hit_ratio"] = {
        "value": cache_hits / lookups if lookups else 0.0, "unit": "ratio"}
    out["conditions.raw_graph.lookups"] = {"value": lookups / ops, "unit": "1/op"}
    out["trace.ops"] = {"value": ops, "unit": "count"}
    out["trace.spans"] = {"value": len(tracer.spans) / ops, "unit": "1/op"}
    return out

