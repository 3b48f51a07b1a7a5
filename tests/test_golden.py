"""Golden CLI outputs: each command's stdout must match its stored bytes.

The determinism tests compare two runs of the same code; these compare
against files written once, so a refactor that changes any report byte, exit
code or verdict fails here.  To regenerate after an intended output change,
run ``PYTHONPATH=src python tests/test_golden.py NAME...`` with the names of
the goldens that change (no names rewrites all of them) and review the diff.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from toepsym.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GENERAL = "general:6:2,1,0,4,3,5"

# name -> (expected exit code, argv)
COMMANDS = {
    "check_general_sym": (0, ["check", "--symbol", "z^6 + z^-6 + 3", "--spec", GENERAL]),
    "check_general_nonsym": (1, ["check", "--symbol", "z^3 + z^-3", "--spec", GENERAL]),
    "check_transposition_sym": (0, ["check", "--symbol", "z^4 + z^-4",
                                    "--spec", "transposition:4:0:2"]),
    "check_transposition_nonsym": (1, ["check", "--symbol", "z", "--spec", "transposition:4:0:2"]),
    "check_transposition_uncovered": (1, ["check", "--symbol", "z",
                                          "--spec", "transposition:5:1:3"]),
    "check_reversal_sym": (0, ["check", "--symbol", "z^2 + z^-2", "--spec", "reversal:2"]),
    "check_reversal_nonsym": (1, ["check", "--symbol", "z", "--spec", "reversal:2"]),
    "check_mulambda_sym": (0, ["check", "--symbol", "z + i z^-1", "--spec", "mulambda:1,0:0,1"]),
    "check_mulambda_nonsym": (1, ["check", "--symbol", "z + z^-1", "--spec", "mulambda:1,0:0,1"]),
    "check_block_c_sym": (0, ["check", "--symbol", "z^2 + z^-2;0;0;z^2 + z^-2",
                              "--spec", "block_c"]),
    "check_block_c_nonsym": (1, ["check", "--symbol", "z^2;0;0;z^2", "--spec", "block_c"]),
    "check_block_ctilde_sym": (0, ["check", "--symbol", "1;0;0;1", "--spec", "block_ctilde"]),
    "check_block_ctilde_nonsym": (1, ["check", "--symbol", "z;0;z^2;0",
                                      "--spec", "block_ctilde"]),
    # Symbol-text grammar, pinned through the CLI: the parsed symbol lands in
    # "symbol" as its hash (tests/test_symbols.py holds its values).
    "check_parse_parens": (0, ["check", "--symbol",
                               "(-0.5+0.25i)*z^2 + (-0.5+0.25i) z^-2 + (+3-i)",
                               "--spec", "reversal:2"]),
    "check_parse_fold": (1, ["check", "--symbol", "1+2i z^3 + 1 - 2i z^-3 + 4 - z^3",
                             "--spec", "reversal:3"]),
    "check_parse_imag_units": (0, ["check", "--symbol", "i z^2 + j z^-2 - 2j",
                                   "--spec", "reversal:2"]),
    "check_parse_star": (1, ["check", "--symbol", "2*z^2 + 3 * z^-2 + (1+i)*z",
                             "--spec", "reversal:2"]),
    "check_parse_unicode_minus": (1, ["check", "--symbol", "z^2 − z^−2 − 1",
                                      "--spec", "reversal:2"]),
    "check_parse_signed_exponent": (0, ["check", "--symbol", "z ^ - 2 + z ^ + 2",
                                        "--spec", "reversal:2"]),
    "check_parse_repeated_exponents": (0, ["check", "--symbol",
                                           "z^2 + 2 z^2 - 0.5 z^2 + 2.5 z^-2 + z - z",
                                           "--spec", "reversal:2"]),
    "check_parse_block": (1, ["check", "--symbol",
                              "(1+i) z^2 + z^−2; 2*z; −z ^ -1; 1+2i z^2 + 1-2i",
                              "--spec", "block_c"]),
    "gen": (0, ["gen", "--spec", "transposition:4:0:2", "--seed", "5", "--band", "9"]),
    # a block gen draws on the list's integer basis, as explore does
    "gen_block_ctilde": (0, ["gen", "--spec", "block_ctilde", "--seed", "4", "--band", "5",
                             "--density", "1"]),
    "verify": (0, ["verify", "--spec", "block_ctilde", "--size", "8"]),
    "random_test": (0, ["random-test", "--spec", GENERAL, "--trials", "20", "--seed", "2",
                        "--band", "8"]),
    # draws of mixed bandwidths, checked in stacks of one bandwidth each:
    # the histogram must not depend on how the trials are grouped
    "random_test_block_c": (0, ["random-test", "--spec", "block_c", "--trials", "20",
                                "--seed", "2", "--band", "8", "--mode", "mixed",
                                "--density", "0.5"]),
    "random_test_block_ctilde": (0, ["random-test", "--spec", "block_ctilde", "--trials", "20",
                                     "--seed", "2", "--band", "8", "--mode", "mixed",
                                     "--density", "0.5"]),
    "random_test_mulambda": (0, ["random-test", "--spec", "mulambda:0,1:0.6,0.8",
                                 "--trials", "20", "--seed", "2", "--band", "8",
                                 "--mode", "mixed", "--density", "0.5"]),
    "explore": (0, ["explore", "--spec", "transposition:5:1:3", "--trials", "5",
                    "--band", "7", "--seed", "1"]),
    # draws from the integer basis of the block_ctilde list's solution set: the
    # bytes must not depend on the BLAS thread count (CI runs both)
    "explore_block_ctilde": (0, ["explore", "--spec", "block_ctilde", "--band", "8",
                                 "--trials", "5", "--seed", "3"]),
}


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_matches_golden(name):
    expected_code, argv = COMMANDS[name]
    code, out = run(argv)
    assert code == expected_code
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_swap_outside_the_covered_cases_reports_the_closed_form():
    payload = json.loads((GOLDEN_DIR / "check_transposition_uncovered.json").read_text())
    assert payload["condition"]["violation_count"] == len(payload["condition"]["worst"]) > 0
    assert {v["family"] for v in payload["condition"]["worst"]} <= {"multiples", "vanish"}
    assert set(payload) == {"command", "spec", "schema", "symbol", "agree", "condition", "oracle"}


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        sys.exit(f"unknown golden names: {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN_DIR / f"{name}.json").write_text(run(COMMANDS[name][1])[1])
