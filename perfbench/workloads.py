"""The three workloads: their inputs, the timed call, and the output checks.

Every workload is a list of rounds.  A round is a fixed list of operations
whose make-up does not depend on the seed; the seed and the round index only
choose coefficient values and trial seeds.  ``stage`` prepares an operation
outside the timed region, ``execute`` is the timed call into toepsym, and
``verify`` checks the outputs against computations made apart from the
program and returns a fault message, or ``None``.

The timed calls go through module attributes (``conditions.run_check``,
``cli.main``, ...) so that the traced run sees them.  The checks call
toepsym too (the regenerated trial symbols go through its generators), so
the worker pauses the tracer while ``verify`` runs and reads the raw-graph
cache counters around ``execute`` alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import inputs
import reference
from toepsym import cli, conditions
from toepsym.conditions import (
    project_to_raw,
    random_block_hadamard_symmetric,
    random_block_mixed_symmetric,
)
from toepsym.conjugations import covered_transposition_case, spec_from_json
from toepsym.symbols import (
    LaurentSymbol,
    MatrixSymbol,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from toepsym.toeplitz import min_truncation
from tracing import clear_raw_graph_cache

# Residuals agree to 1e-12 relative.  The dense oracle sums n^2 squares in
# one BLAS accumulation, so at band 800 it differs from the reference by up
# to a few 1e-13.
RESIDUAL_AGREEMENT = 1e-12
# The one failure the benchmark expects, until the fault is mended: the
# coefficient conditions use an absolute tolerance (COEFF_TOL = 1e-12,
# conditions.py:52) while the oracle's residual is relative.
KNOWN_FAULT = "condition checker and oracle disagree on a scaled symbol"

# The six families, with transposition twice: one characterized case and one
# outside the proven cases (conjecture mode).
SPECS = [
    ("general:6:2,1,0,4,3,5", {"family": "general", "p": 6, "sigma": [2, 1, 0, 4, 3, 5]}),
    ("transposition:4:0:2", {"family": "transposition", "p": 4, "i": 0, "j": 2}),
    ("transposition:5:1:3", {"family": "transposition", "p": 5, "i": 1, "j": 3}),
    ("reversal:2", {"family": "reversal", "n": 2}),
    ("mulambda:0,1:0.6,0.8", {"family": "mulambda", "mu": [0.0, 1.0], "lambda": [0.6, 0.8]}),
    ("block_c", {"family": "block_c"}),
    ("block_ctilde", {"family": "block_ctilde"}),
]
# Families whose symmetric inputs are certified by a closed form; for the
# others the reference residual alone decides the expected verdict.
CLOSED_FORM = {"general", "reversal", "mulambda", "block_c"}


def _has_closed_form(spec: dict) -> bool:
    if spec["family"] == "transposition":
        return True  # the closed form is sufficient for every residue swap
    return spec["family"] in CLOSED_FORM


@dataclass
class Op:
    label: str
    args: dict
    known_fault: bool = False
    data: dict = field(default_factory=dict)


def _round_rng(seed: int, round_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, stream])


def _symbol_dicts(symbol):
    if isinstance(symbol, MatrixSymbol):
        return [e.coeffs for e in symbol.entries]
    return symbol.coeffs


def _compare(residual: float, verdict: str, ref_residual: float) -> str | None:
    if not abs(residual - ref_residual) <= RESIDUAL_AGREEMENT * max(1.0, ref_residual):
        return f"residual {residual!r} differs from reference {ref_residual!r}"
    if verdict != reference.verdict(ref_residual):
        return f"verdict {verdict} differs from reference residual {ref_residual!r}"
    return None


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


class OracleWide:
    """One ``toepsym check`` at a time, in process through ``cli.main``, at
    bands where the dense residual dominates."""

    name = "oracle-wide"
    speed_probe = "blas"
    block_draws = 6

    def __init__(self, workdir: str, smoke: bool = False):
        self.workdir = workdir
        self.bands = (12, 24) if smoke else (200, 800)
        self.records: list[dict] = []
        os.makedirs(workdir, exist_ok=True)
        self.symbol_path = os.path.join(workdir, "symbol.json")
        self.output_path = os.path.join(workdir, "report.json")

    def round(self, seed: int, round_index: int) -> list[Op]:
        rng = _round_rng(seed, round_index, 0)
        small, large = self.bands
        # Block specs get block_draws draws at the small band.  The 41 checks
        # then fall into three groups by cost: 10 scalar small-band checks, 24
        # block small-band checks and 7 large-band checks.  The median lies in
        # the middle of the middle group rather than on the edge between two,
        # and as an order statistic of 24 similar checks it varies less from
        # run to run than one of 8 did.
        small_ops = [self._op(rng, text, spec, small, kind)
                     for text, spec in SPECS
                     for _ in range(self.block_draws if reference.is_block(spec) else 1)
                     for kind in ("symmetric", "generic")]
        # each large check follows an equal share of the small ones, so both
        # bands are sampled across the whole round
        cuts = [round(i * len(small_ops) / len(SPECS)) for i in range(len(SPECS) + 1)]
        ops = []
        for index, (text, spec) in enumerate(SPECS):
            ops += small_ops[cuts[index]:cuts[index + 1]]
            kind = "generic" if (index + round_index) % 2 == 0 else "symmetric"
            ops.append(self._op(rng, text, spec, large, kind))
        return ops

    @staticmethod
    def _op(rng, text, spec, band, kind) -> Op:
        build = inputs.symmetric if kind == "symmetric" else inputs.generic
        symbol = build(rng, spec, band)
        return Op(f"{text}@{band}/{kind}", {"spec": spec, "text": text, "band": band,
                                             "kind": kind, "symbol": symbol})

    def stage(self, op: Op) -> list[str]:
        with open(self.symbol_path, "w") as fh:
            json.dump(inputs.to_json(op.args["symbol"], op.args["spec"]), fh)
        if os.path.exists(self.output_path):
            os.remove(self.output_path)
        return ["check", "--symbol-file", self.symbol_path, "--spec", op.args["text"],
                "--output", self.output_path]

    def execute(self, argv: list[str]):
        return cli.main(argv)

    def verify(self, op: Op, code) -> str | None:
        if code not in (0, 1):
            return f"exit code {code}"
        with open(self.output_path) as fh:
            text = fh.read()
        op.data["output_bytes"] = len(text.encode())
        payload = _strict_json(text)
        oracle = payload["oracle"]
        spec, n = op.args["spec"], oracle["n"]
        if n % reference.period(spec) or n <= 2 * op.args["band"]:
            return f"truncation order {n} is not exact for band {op.args['band']}"
        ref = reference.residual(op.args["symbol"], spec, n)
        self.records.append({"spec": op.args["text"], "band": op.args["band"],
                             "input": op.args["kind"], "n": n, "ms": op.data["ms"],
                             "residual": oracle["residual"], "reference": ref,
                             "verdict": oracle["verdict"]})
        if not payload["agree"]:
            return "condition checker and oracle disagree"
        if (code == 0) != (oracle["verdict"] == "symmetric"):
            return f"exit code {code} does not match verdict {oracle['verdict']}"
        if op.args["kind"] == "symmetric" and _has_closed_form(spec):
            if reference.verdict(ref) != "symmetric":
                return f"closed-form symmetric input has reference residual {ref!r}"
        return _compare(oracle["residual"], oracle["verdict"], ref)

    def end_round(self):
        pass

    def report(self) -> dict:
        return {"checks": self.records}


# The scaled slice: near-symmetric symbols with coefficients of magnitude
# about 1e6.  The oracle's residual is relative, so each is symmetric (about
# 1e-12 < 1e-10), but the coefficient conditions compare against an absolute
# 1e-12 and report a 1e-6 violation: condition and oracle disagree on every
# run.  These inputs are fixed; they do not depend on the seed.
BIG = 1e6
LAM = reference.unit([0.6, 0.8])
SCALED = [
    ("reversal:2", {2: BIG + 1e-6, -2: BIG}),
    ("transposition:4:0:2", {0: BIG, 4: BIG + 1e-6, -4: BIG}),
    ("mulambda:0,1:0.6,0.8", {0: BIG, 1: BIG, -1: BIG * LAM + 1e-6}),
    ("block_c", [{2: BIG + 1e-6, -2: BIG}, {},
                 {-2: (BIG + 1e-6) / 2, 2: BIG / 2}, {-2: (BIG + 1e-6) / 2, 2: BIG / 2}]),
]


class CrossvalNarrow:
    """Seeded equivalence trials at small bands, where the condition tables
    and symbol generation dominate, plus the fixed scaled slice."""

    name = "crossval-narrow"
    speed_probe = "loop"
    density = 0.5
    reference_share = 0.25

    def __init__(self, workdir: str, smoke: bool = False):
        self.bands = (6,) if smoke else (6, 12, 20, 30)
        self.specs = {text: (spec, spec_from_json(spec)) for text, spec in SPECS}
        self.referenced = 0

    def round(self, seed: int, round_index: int) -> list[Op]:
        rng = _round_rng(seed, round_index, 1)
        ops = []
        for band in self.bands:
            for text, _ in SPECS:
                for satisfying in (False, True):
                    ops.append(Op(f"{text}@{band}/{'solution' if satisfying else 'raw'}",
                                  {"text": text, "band": band, "satisfying": satisfying,
                                   "seed": int(rng.integers(0, 2**31)),
                                   "referenced": bool(rng.random() < self.reference_share)}))
        for text, coeffs in SCALED:
            ops.append(Op(f"{text}/scaled", {"text": text, "scaled": coeffs}, known_fault=True))
        return ops

    def stage(self, op: Op):
        spec = self.specs[op.args["text"]][1]
        if "scaled" in op.args:
            coeffs = op.args["scaled"]
            symbol = (MatrixSymbol(*(LaurentSymbol(c) for c in coeffs))
                      if isinstance(coeffs, list) else LaurentSymbol(coeffs))
            return ("check", symbol, spec)
        return ("trial", spec, op.args["seed"], op.args["band"], op.args["satisfying"])

    def execute(self, staged):
        if staged[0] == "check":
            return conditions.run_check(staged[1], staged[2])
        _, spec, seed, band, satisfying = staged
        return conditions.equivalence_trial(spec, seed, band, self.density,
                                            satisfying=satisfying)

    def verify(self, op: Op, result) -> str | None:
        spec_dict, spec = self.specs[op.args["text"]]
        if "scaled" in op.args:
            symbol = op.args["scaled"]
            n = min_truncation(_bandwidth(symbol), spec)
            ref = reference.residual(symbol, spec_dict, n)
            fault = _compare(result.oracle.residual, result.oracle.verdict, ref)
            if fault is None and not result.agree:
                fault = KNOWN_FAULT
            return fault
        if not result.agree:
            return "condition checker and oracle disagree"
        if op.args["satisfying"] and not (result.oracle_symmetric and result.condition_satisfied):
            return "solution-set draw is not symmetric"
        if op.args["referenced"]:
            self.referenced += 1
            symbol = self._regenerate(op, spec)
            n = min_truncation(symbol.bandwidth, spec)
            ref = reference.residual(_symbol_dicts(symbol), spec_dict, n)
            verdict = "symmetric" if result.oracle_symmetric else "not_symmetric"
            return _compare(result.residual, verdict, ref)
        return None

    def _regenerate(self, op: Op, spec):
        """The trial's symbol, drawn again through the same public generators
        the trial uses."""
        seed, band, satisfying = op.args["seed"], op.args["band"], op.args["satisfying"]
        family = self.specs[op.args["text"]][0]["family"]
        if reference.is_block({"family": family}):
            if not satisfying:
                return random_matrix_symbol(seed, band, self.density)
            if family == "block_c":
                return random_block_hadamard_symmetric(seed, band, self.density)
            return random_block_mixed_symmetric(seed, band, self.density)
        symbol = random_symbol(seed, band, self.density)
        if not satisfying:
            return symbol
        projectable = family in ("reversal", "mulambda") or (
            family == "transposition" and covered_transposition_case(spec.p, spec.i, spec.j))
        return project_to_conditions(symbol, spec) if projectable else project_to_raw(symbol, spec, band)

    def end_round(self):
        pass

    def report(self) -> dict:
        return {"scaled_slice": len(SCALED), "reference_checked_trials": self.referenced}


def _bandwidth(symbol) -> int:
    entries = symbol if isinstance(symbol, list) else [symbol]
    return max((abs(k) for e in entries for k in e), default=0)


class ExploreSweep:
    """One explorer call per decided case: every uncharacterized residue swap
    ``(p, i, j)`` over a range of ``p``, then the mixed block family over a
    range of bands.  The raw equality-graph cache is emptied between rounds,
    so every case builds its graph cold."""

    name = "explore-sweep"
    speed_probe = "loop"
    trials = 10

    def __init__(self, workdir: str, smoke: bool = False):
        top_p, top_band = (4, 2) if smoke else (9, 8)
        self.swaps = [(p, i, j) for p in range(3, top_p + 1) for i in range(p)
                      for j in range(i + 1, p) if not covered_transposition_case(p, i, j)]
        self.mixed_bands = list(range(1, top_band + 1))
        self.candidates = {"transposition": 0, "block_ctilde": 0}

    def round(self, seed: int, round_index: int) -> list[Op]:
        rng = _round_rng(seed, round_index, 2)
        ops = [Op(f"transposition:{p}:{i}:{j}@{2 * p + 1}",
                  {"swap": (p, i, j), "band": 2 * p + 1, "seed": int(rng.integers(0, 2**31))})
               for p, i, j in self.swaps]
        ops += [Op(f"block_ctilde@{band}", {"band": band, "seed": int(rng.integers(0, 2**31))})
                for band in self.mixed_bands]
        return ops

    def stage(self, op: Op):
        return op.args

    def execute(self, args):
        if "swap" in args:
            p, i, j = args["swap"]
            return conditions.explore_transposition(p, i, j, args["band"], self.trials, args["seed"])
        return conditions.explore_block_mixed(args["band"], self.trials, args["seed"])

    def verify(self, op: Op, report) -> str | None:
        try:
            _strict_json(json.dumps(report))
        except ValueError as exc:
            return f"report is not strict JSON: {exc}"
        if report["anomalies"]:
            return f"explorer anomalies at seeds {report['anomalies']}"
        if "swap" in op.args:
            p, i, j = op.args["swap"]
            spec = {"family": "transposition", "p": p, "i": i, "j": j}
            claim = "symmetric"   # a candidate is symmetric yet violates the closed form
        else:
            spec = {"family": "block_ctilde"}
            claim = "not_symmetric"   # a candidate satisfies the conditions yet is not symmetric
        program_spec = spec_from_json(spec)
        for cand in report["candidates"]:
            self.candidates[spec["family"]] += 1
            symbol = inputs.from_json(cand["symbol"], spec)
            n = min_truncation(_bandwidth(symbol), program_spec)
            ref = reference.residual(symbol, spec, n)
            if reference.verdict(ref) != claim:
                return f"candidate seed {cand['seed']} has reference residual {ref!r}"
            fault = _compare(cand["residual"], claim, ref)
            if fault:
                return fault
        return None

    def end_round(self):
        clear_raw_graph_cache()

    def report(self) -> dict:
        return {"cases_per_round": len(self.swaps) + len(self.mixed_bands),
                "trials_per_case": self.trials, "candidates": self.candidates}


WORKLOADS = {w.name: w for w in (OracleWide, CrossvalNarrow, ExploreSweep)}
