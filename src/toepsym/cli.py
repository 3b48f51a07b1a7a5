"""Command-line front end.

Every command prints exactly one JSON document to standard output (or to
``--output``); diagnostics go to standard error.  Output is byte-identical
for identical configurations, so reports can be diffed and golden-tested.

Exit codes: 0 success/symmetric, 1 checked and not symmetric, 2 condition
checker and matrix oracle disagree (correctness alarm), 3 input or usage
error, 4 internal error (an unexpected exception such as ``MemoryError``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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
    NUMBER_PATTERN,
    SymbolSyntaxError,
    parse_symbol,
    project_to_conditions,
    random_symbol,
)
from .symmetry import SYMMETRY_TOL
from .toeplitz import min_truncation

EXIT_OK = 0
EXIT_NOT_SYMMETRIC = 1
EXIT_DISAGREE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

TOL_ENV_VAR = "TOEPSYM_TOL"


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for checker/oracle disagreement, so usage
    # errors must not use argparse's default.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _number(part: str) -> int | float:
    if not re.fullmatch(rf"[+-]?{NUMBER_PATTERN}", part):
        raise ValueError(f"expected a decimal number, got {part!r}")
    try:
        return int(part)
    except ValueError:
        return float(part)


def integer(text: str) -> int:
    _number(text)
    return int(text)


def decimal(text: str) -> float:
    _number(text)
    return float(text)


def parse_spec_text(text: str) -> ConjugationSpec:
    """Mini-syntax mirroring the JSON schema: the family name followed by one
    ``:``-separated token per JSON field, e.g. ``transposition:4:0:2``,
    ``general:3:2,1,0`` or ``mulambda:1,0:0,1``.  Each token, a list field
    comma-separated, spells the JSON numbers that :func:`spec_from_json`
    decodes, so ``reversal:2.0`` is ``reversal:2``."""
    name, *tokens = text.split(":")
    cls = FAMILIES.get(name)
    if cls is None or len(tokens) != len(cls.wire_fields):
        raise ValueError(f"unrecognized spec {text!r}")
    fields = {field.key: list(map(_number, token.split(","))) if field.is_list else _number(token)
              for field, token in zip(cls.wire_fields, tokens)}
    return spec_from_json({"family": name, **fields})


def _load_spec(args) -> ConjugationSpec:
    if args.spec is not None:
        return parse_spec_text(args.spec)
    with open(args.spec_file) as fh:
        return spec_from_json(json.load(fh))


def _load_symbol(args, spec: ConjugationSpec):
    if args.symbol_file is not None:
        with open(args.symbol_file) as fh:
            obj = json.load(fh)
        return MatrixSymbol.from_json(obj) if spec.is_block else LaurentSymbol.from_json(obj)
    if not spec.is_block:
        return parse_symbol(args.symbol)
    pieces = args.symbol.split(";")
    if len(pieces) != 4:
        raise ValueError("a block symbol needs four ';'-separated entries (row-major)")
    entries, start = [], 0
    for index, piece in enumerate(pieces, start=1):
        try:
            entries.append(parse_symbol(piece))
        except SymbolSyntaxError as exc:  # point into the whole argument
            raise SymbolSyntaxError(f"phi{index}: {exc.message}", start + exc.offset) from exc
        start += len(piece) + 1
    return MatrixSymbol(*entries)


def _emit(payload: dict, output: str | None):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each command returns its report, less the ``command`` and ``spec`` keys
# that ``main`` adds, and its exit code.
def _cmd_check(args, spec):
    symbol = _load_symbol(args, spec)
    outcome = run_check(symbol, spec, tol=args.tol)
    code = (EXIT_DISAGREE if not outcome.agree
            else EXIT_OK if outcome.oracle.symmetric else EXIT_NOT_SYMMETRIC)
    return {"symbol": symbol.to_json(), **outcome_to_json(outcome)}, code


def _cmd_verify(args, spec):
    size = args.size if args.size is not None else min_truncation(0, spec)
    report = verify_axioms(spec, size, probes=args.probes, seed=args.seed)
    payload = {"n": report.size, "probes": report.probes, "seed": args.seed, "ok": report.ok,
               "involution_deviation": report.involution_deviation,
               "isometry_deviation": report.isometry_deviation}
    return payload, EXIT_OK if report.ok else EXIT_NOT_SYMMETRIC


def _cmd_random_test(args, spec):
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    disagreements = []
    for t in range(args.trials):
        seed = args.seed + t
        satisfying = args.mode == "satisfying" or (args.mode == "mixed" and t % 2 == 1)
        result = equivalence_trial(spec, seed, args.band, args.density,
                                   tol=args.tol, satisfying=satisfying)
        if not result.agree:
            disagreements.append(seed)
    payload = {"trials": args.trials, "seed": args.seed, "band": args.band,
               "density": args.density, "mode": args.mode,
               "agreements": args.trials - len(disagreements),
               "disagreements": disagreements}
    return payload, EXIT_DISAGREE if disagreements else EXIT_OK


def _cmd_explore(args, spec):
    if spec.characterization not in (CONJECTURE, NECESSARY_ONLY):
        raise ValueError(f"explore needs an uncharacterized {Transposition.name} "
                         f"or {BlockMixed.name} spec")
    if spec.is_block:
        report = explore_block_mixed(args.band, args.trials, args.seed, tol=args.tol)
    else:
        report = explore_transposition(spec.p, spec.i, spec.j, args.band,
                                       args.trials, args.seed, tol=args.tol)
    return report, EXIT_DISAGREE if report["anomalies"] else EXIT_OK


def _cmd_gen(args, spec):
    symbol = project_to_conditions(random_symbol(args.seed, args.band, args.density), spec)
    return {"seed": args.seed, "band": args.band, "density": args.density,
            "symbol": symbol.to_json()}, EXIT_OK


def _default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return SYMMETRY_TOL
    try:
        value = decimal(raw)
    except ValueError as exc:
        raise ValueError(f"{TOL_ENV_VAR} must be a float, got {raw!r}") from exc
    if not 0 < value < math.inf:  # also false for NaN
        raise ValueError(f"{TOL_ENV_VAR} must be finite and positive")
    return value


def _add_spec_arguments(sub):
    spec = sub.add_mutually_exclusive_group(required=True)
    spec.add_argument("--spec", help="spec mini-syntax, e.g. reversal:2")
    spec.add_argument("--spec-file", help="path to a conjugation spec JSON file")
    sub.add_argument("--output", help="write the JSON report here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="toepsym", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="check one symbol against one spec")
    _add_spec_arguments(check)
    symbol = check.add_mutually_exclusive_group(required=True)
    symbol.add_argument("--symbol", help="symbol text; four ';'-separated entries for block specs")
    symbol.add_argument("--symbol-file", help="path to a symbol JSON file")
    # no --tol default: main seeds the namespace with TOEPSYM_TOL
    check.add_argument("--tol", type=decimal, default=argparse.SUPPRESS)
    check.set_defaults(func=_cmd_check)

    verify = commands.add_parser("verify", help="verify the conjugation axioms on a truncation")
    _add_spec_arguments(verify)
    verify.add_argument("--size", type=integer, default=None)
    verify.add_argument("--probes", type=integer, default=50)
    verify.add_argument("--seed", type=integer, default=0)
    verify.set_defaults(func=_cmd_verify)

    random_test = commands.add_parser("random-test",
                                      help="batch condition-vs-oracle equivalence trials")
    _add_spec_arguments(random_test)
    random_test.add_argument("--trials", type=integer, default=100)
    random_test.add_argument("--seed", type=integer, default=0)
    random_test.add_argument("--band", type=integer, default=6)
    random_test.add_argument("--density", type=decimal, default=0.5)
    random_test.add_argument("--mode", choices=("random", "satisfying", "mixed"),
                             default="mixed")
    random_test.add_argument("--tol", type=decimal, default=argparse.SUPPRESS)
    random_test.set_defaults(func=_cmd_random_test)

    explore = commands.add_parser("explore",
                                  help="probe open characterization questions; no ground truth asserted")
    _add_spec_arguments(explore)
    explore.add_argument("--trials", type=integer, default=200)
    explore.add_argument("--seed", type=integer, default=0)
    explore.add_argument("--band", type=integer, default=6)
    explore.add_argument("--tol", type=decimal, default=argparse.SUPPRESS)
    explore.set_defaults(func=_cmd_explore)

    gen = commands.add_parser("gen", help="generate a condition-satisfying random symbol")
    _add_spec_arguments(gen)
    gen.add_argument("--seed", type=integer, default=0)
    gen.add_argument("--band", type=integer, default=6)
    gen.add_argument("--density", type=decimal, default=0.5)
    gen.set_defaults(func=_cmd_gen)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        # TOEPSYM_TOL is read on every call; an explicit --tol overwrites it
        args = _PARSER.parse_args(argv, argparse.Namespace(tol=_default_tol()))
        if [] in vars(args).values():  # argparse reads "--seed=--" as [], unconverted
            _PARSER.error("an option is missing its value")
        spec = _load_spec(args)
        payload, code = args.func(args, spec)
        _emit({"command": args.command, "spec": spec_to_json(spec), **payload}, args.output)
        return code
    except SystemExit as exc:  # a usage error from the parser, or --help
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"toepsym: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must not read as exit 1, "not symmetric"
        print(f"toepsym: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def run():
    sys.exit(main(sys.argv[1:]))
