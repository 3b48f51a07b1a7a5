"""Command-line front end.

Every command prints exactly one JSON document to standard output (or to
``--output``); diagnostics go to standard error.  Output is byte-identical
for identical configurations, so reports can be diffed and golden-tested.

Exit codes: 0 success/symmetric, 1 checked and not symmetric, 2 condition
checker and matrix oracle disagree (correctness alarm), 3 input or usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .conjugations import (
    CONJECTURE,
    FAMILIES,
    NECESSARY_ONLY,
    BlockMixed,
    ConjugationSpec,
    Transposition,
    spec_from_json,
    spec_to_json,
    verify_axioms,
)
from .conditions import (
    equivalence_trial,
    explore_block_mixed,
    explore_transposition,
    outcome_to_json,
    run_check,
)
from .symbols import (
    LaurentSymbol,
    MatrixSymbol,
    parse_symbol,
    project_to_conditions,
    random_symbol,
)
from .toeplitz import min_truncation

EXIT_OK = 0
EXIT_NOT_SYMMETRIC = 1
EXIT_DISAGREE = 2
EXIT_INPUT = 3

TOL_ENV_VAR = "TOEPSYM_TOL"


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for checker/oracle disagreement, so usage
    # errors must not use argparse's default.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def parse_spec_text(text: str) -> ConjugationSpec:
    """Mini-syntax mirroring the JSON schema: the family name followed by one
    ``:``-separated token per JSON field, e.g. ``transposition:4:0:2``,
    ``general:3:2,1,0`` or ``mulambda:1,0:0,1``."""
    name, *tokens = text.split(":")
    cls = FAMILIES.get(name)
    if cls is None or len(tokens) != len(cls.wire_fields):
        raise ValueError(f"unrecognized spec {text!r}")
    return cls(*(field.from_text(token) for field, token in zip(cls.wire_fields, tokens)))


def _load_spec(args) -> ConjugationSpec:
    if getattr(args, "spec", None) and getattr(args, "spec_file", None):
        raise ValueError("give either --spec or --spec-file, not both")
    if getattr(args, "spec", None):
        return parse_spec_text(args.spec)
    if getattr(args, "spec_file", None):
        with open(args.spec_file) as fh:
            return spec_from_json(json.load(fh))
    raise ValueError("a conjugation spec is required (--spec or --spec-file)")


def _load_symbol(args, spec: ConjugationSpec):
    block = spec.is_block
    if args.symbol is not None and args.symbol_file:
        raise ValueError("give either --symbol or --symbol-file, not both")
    if args.symbol_file:
        with open(args.symbol_file) as fh:
            obj = json.load(fh)
        return MatrixSymbol.from_json(obj) if block else LaurentSymbol.from_json(obj)
    if args.symbol is not None:
        if block:
            pieces = args.symbol.split(";")
            if len(pieces) != 4:
                raise ValueError(
                    "a block symbol needs four ';'-separated entries (row-major)")
            return MatrixSymbol(*(parse_symbol(piece) for piece in pieces))
        return parse_symbol(args.symbol)
    raise ValueError("a symbol is required (--symbol or --symbol-file)")


def _emit(payload: dict, output: str | None):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    spec = _load_spec(args)
    symbol = _load_symbol(args, spec)
    outcome = run_check(symbol, spec, tol=args.tol)
    payload = {"command": "check", "spec": spec_to_json(spec),
               "symbol": symbol.to_json()}
    payload.update(outcome_to_json(outcome))
    _emit(payload, args.output)
    if not outcome.agree:
        return EXIT_DISAGREE
    return EXIT_OK if outcome.oracle.symmetric else EXIT_NOT_SYMMETRIC


def _cmd_verify(args) -> int:
    spec = _load_spec(args)
    size = args.size if args.size is not None else min_truncation(0, spec)
    report = verify_axioms(spec, size, probes=args.probes, seed=args.seed)
    payload = {"command": "verify", "spec": spec_to_json(spec), "n": report.size,
               "probes": report.probes, "seed": args.seed, "ok": report.ok,
               "involution_deviation": report.involution_deviation,
               "isometry_deviation": report.isometry_deviation}
    _emit(payload, args.output)
    return EXIT_OK if report.ok else EXIT_NOT_SYMMETRIC


def _cmd_random_test(args) -> int:
    spec = _load_spec(args)
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    disagreements = []
    for t in range(args.trials):
        seed = args.seed + t
        if args.mode == "random":
            satisfying = False
        elif args.mode == "satisfying":
            satisfying = True
        else:
            satisfying = t % 2 == 1
        result = equivalence_trial(spec, seed, args.band, args.density,
                                   tol=args.tol, satisfying=satisfying)
        if not result.agree:
            disagreements.append(seed)
    payload = {"command": "random-test", "spec": spec_to_json(spec),
               "trials": args.trials, "seed": args.seed, "band": args.band,
               "density": args.density, "mode": args.mode,
               "agreements": args.trials - len(disagreements),
               "disagreements": disagreements}
    _emit(payload, args.output)
    return EXIT_OK if not disagreements else EXIT_DISAGREE


def _cmd_explore(args) -> int:
    spec = _load_spec(args)
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if spec.characterization not in (CONJECTURE, NECESSARY_ONLY):
        raise ValueError(f"explore needs an uncharacterized {Transposition.name} "
                         f"or {BlockMixed.name} spec")
    if spec.is_block:
        report = explore_block_mixed(args.band, args.trials, args.seed, tol=args.tol)
    else:
        report = explore_transposition(spec.p, spec.i, spec.j, args.band,
                                       args.trials, args.seed, tol=args.tol)
    payload = {"command": "explore", "spec": spec_to_json(spec)}
    payload.update(report)
    _emit(payload, args.output)
    return EXIT_DISAGREE if report["anomalies"] else EXIT_OK


def _cmd_gen(args) -> int:
    spec = _load_spec(args)
    symbol = project_to_conditions(random_symbol(args.seed, args.band, args.density), spec)
    payload = {"command": "gen", "spec": spec_to_json(spec), "seed": args.seed,
               "band": args.band, "density": args.density,
               "symbol": symbol.to_json()}
    _emit(payload, args.output)
    return EXIT_OK


def _default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return 1e-10
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{TOL_ENV_VAR} must be a float, got {raw!r}") from exc
    if not 0 < value < math.inf:  # also false for NaN
        raise ValueError(f"{TOL_ENV_VAR} must be finite and positive")
    return value


def _add_spec_arguments(sub):
    sub.add_argument("--spec", help="spec mini-syntax, e.g. reversal:2")
    sub.add_argument("--spec-file", help="path to a conjugation spec JSON file")
    sub.add_argument("--output", help="write the JSON report here instead of stdout")


def build_parser(tol: float) -> _Parser:
    parser = _Parser(prog="toepsym", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", parents=[], help="check one symbol against one spec")
    _add_spec_arguments(check)
    check.add_argument("--symbol", help="symbol text; four ';'-separated entries for block specs")
    check.add_argument("--symbol-file", help="path to a symbol JSON file")
    check.add_argument("--tol", type=float, default=tol)
    check.set_defaults(func=_cmd_check)

    verify = commands.add_parser("verify", help="verify the conjugation axioms on a truncation")
    _add_spec_arguments(verify)
    verify.add_argument("--size", type=int, default=None)
    verify.add_argument("--probes", type=int, default=50)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    random_test = commands.add_parser("random-test",
                                      help="batch condition-vs-oracle equivalence trials")
    _add_spec_arguments(random_test)
    random_test.add_argument("--trials", type=int, default=100)
    random_test.add_argument("--seed", type=int, default=0)
    random_test.add_argument("--band", type=int, default=6)
    random_test.add_argument("--density", type=float, default=0.5)
    random_test.add_argument("--mode", choices=("random", "satisfying", "mixed"),
                             default="mixed")
    random_test.add_argument("--tol", type=float, default=tol)
    random_test.set_defaults(func=_cmd_random_test)

    explore = commands.add_parser("explore",
                                  help="probe open characterization questions; no ground truth asserted")
    _add_spec_arguments(explore)
    explore.add_argument("--trials", type=int, default=200)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--band", type=int, default=6)
    explore.add_argument("--tol", type=float, default=tol)
    explore.set_defaults(func=_cmd_explore)

    gen = commands.add_parser("gen", help="generate a condition-satisfying random symbol")
    _add_spec_arguments(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--band", type=int, default=6)
    gen.add_argument("--density", type=float, default=0.5)
    gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser(_default_tol())
    except ValueError as exc:
        print(f"toepsym: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"toepsym: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run():
    sys.exit(main(sys.argv[1:]))
