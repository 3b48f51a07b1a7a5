"""Golden CLI outputs: each command's stdout must match its stored bytes.

The determinism tests compare two runs of the same code; these compare
against files written once, so a refactor that changes any report byte, exit
code or verdict fails here.  To regenerate after an intended output change,
run ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import pathlib

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
    "check_transposition_conjecture": (1, ["check", "--symbol", "z",
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
    "gen": (0, ["gen", "--spec", "transposition:4:0:2", "--seed", "5", "--band", "9"]),
    "verify": (0, ["verify", "--spec", "block_ctilde", "--size", "8"]),
    "random_test": (0, ["random-test", "--spec", GENERAL, "--trials", "20", "--seed", "2",
                        "--band", "8"]),
    "explore": (0, ["explore", "--spec", "transposition:5:1:3", "--trials", "5",
                    "--band", "7", "--seed", "1"]),
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


def test_conjecture_case_reports_violations_and_advisory():
    payload = json.loads((GOLDEN_DIR / "check_transposition_conjecture.json").read_text())
    assert payload["condition"]["violations"]
    assert payload["advisory"] is not None


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (_, argv) in COMMANDS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(run(argv)[1])
