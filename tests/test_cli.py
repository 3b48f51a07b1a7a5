import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toepsym.cli as cli
from toepsym.cli import main, parse_spec_text
from toepsym.conjugations import (
    FAMILIES,
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
    spec_from_json,
)
from toepsym.symbols import random_matrix_symbol


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecMiniSyntax:
    def test_families(self):
        assert parse_spec_text("reversal:2") == Reversal(2)
        assert parse_spec_text("transposition:4:0:2") == Transposition(4, 0, 2)
        assert parse_spec_text("general:3:2,1,0") == GeneralPermutation(3, (2, 1, 0))
        assert parse_spec_text("mulambda:1,0:0,1") == MuLambda(1.0, 1j)
        assert parse_spec_text("block_c") == BlockHadamard()
        assert parse_spec_text("block_ctilde") == BlockMixed()

    def test_tokens_read_as_json_numbers(self):
        assert parse_spec_text("reversal:2.0") == Reversal(2)
        assert parse_spec_text("reversal:+2") == Reversal(2)
        assert parse_spec_text("mulambda:.6,.8:1,0") == MuLambda(0.6 + 0.8j, 1.0)
        for bad in ("reversal:2.5", "reversal:nan", "reversal:two", "general:3:2,1,0.5"):
            with pytest.raises(ValueError):
                parse_spec_text(bad)

    def test_rejects_garbage(self):
        for bad in ("reversal", "reversal:2:3", "blocks", "mulambda:1:2", ""):
            with pytest.raises(ValueError):
                parse_spec_text(bad)

    @pytest.mark.parametrize("token, spec", [
        ("reversal:+2", Reversal(2)), ("reversal:2.0", Reversal(2)),
        ("mulambda:.6,.8:1,0", MuLambda(0.6 + 0.8j, 1.0)),
        ("mulambda:1e0,0:0,1", MuLambda(1.0, 1j)),
    ])
    def test_signed_ascii_decimals_decode(self, token, spec):
        assert parse_spec_text(token) == spec

    # int() and float() would read these as 10, 2 and 2
    @pytest.mark.parametrize("token", ["reversal:1_0", "reversal: 2", "reversal:\u0662"])
    def test_other_number_spellings_exit_three(self, capsys, token):
        code, out, err = run_cli(capsys, "check", "--symbol", "z^2 + z^-2", "--spec", token)
        assert (code, out) == (3, "")
        assert "Traceback" not in err


class TestCheckCommand:
    def test_symmetric_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--symbol", "z^2 + z^-2",
                               "--spec", "reversal:2")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["oracle"]["verdict"] == "symmetric"
        assert payload["condition"]["satisfied"] is True

    def test_not_symmetric_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--symbol", "z", "--spec", "reversal:2")
        assert code == 1
        payload = json.loads(out)
        assert payload["oracle"]["verdict"] == "not_symmetric"

    def test_zero_symbol_exit_zero(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--symbol", "0",
                             "--spec", "transposition:4:0:2")
        assert code == 0

    def test_block_inline_symbol(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--symbol",
                               "z^2 + z^-2;0;0;z^2 + z^-2", "--spec", "block_c")
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_parse_failure_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "check", "--symbol", "z^", "--spec", "reversal:2")
        assert code == 3
        assert out == ""
        assert "offset" in err

    def test_missing_symbol_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "check", "--spec", "reversal:2")
        assert code == 3
        assert "symbol" in err

    def test_disagreement_maps_to_exit_two(self, capsys, monkeypatch):
        # No honest disagreeing input is known (that is the point of the
        # cross-validation), so fabricate one to pin the exit-code contract.
        real = cli.run_check

        def fake(symbol, spec, tol):
            outcome = real(symbol, spec, tol=tol)
            return type(outcome)(outcome.condition, outcome.advisory,
                                 outcome.oracle, False)

        monkeypatch.setattr(cli, "run_check", fake)
        code, _, _ = run_cli(capsys, "check", "--symbol", "z", "--spec", "reversal:2")
        assert code == 2

    def test_symbol_file_and_spec_file(self, capsys, tmp_path):
        symbol_path = tmp_path / "sym.json"
        symbol_path.write_text(json.dumps({"2": [1, 0], "-2": [1, 0]}))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"family": "reversal", "n": 2}))
        code, out, _ = run_cli(capsys, "check", "--symbol-file", str(symbol_path),
                               "--spec-file", str(spec_path))
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:2",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["agree"] is True


class TestVerifyCommand:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--spec", "block_c", "--size", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["involution_deviation"] <= 1e-14

    def test_bad_size_exit_three(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--spec", "reversal:2", "--size", "7")
        assert code == 3

    @pytest.mark.parametrize("probes", ["-3", "0"])
    def test_probes_below_one_exit_three(self, capsys, probes):
        # no probe would check no isometry at all
        code, out, err = run_cli(capsys, "verify", "--spec", "reversal:2", "--probes", probes)
        assert code == 3
        assert out == ""
        assert "probes must be >= 1" in err and "Traceback" not in err


class TestRandomTestCommand:
    def test_summary_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, "random-test", "--spec", "reversal:3",
                               "--trials", "16", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 16
        assert payload["agreements"] == 16
        assert payload["disagreements"] == []

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "random-test", "--spec", "reversal:3",
                             "--trials", "0")
        assert code == 3

    def test_block_families(self, capsys):
        for spec in ("block_c", "block_ctilde"):
            code, out, _ = run_cli(capsys, "random-test", "--spec", spec,
                                   "--trials", "10", "--band", "4")
            assert code == 0
            assert json.loads(out)["disagreements"] == []

    @pytest.mark.parametrize("spec", ["reversal:2", "block_c", "block_ctilde"])
    @pytest.mark.parametrize("option", [("--density", "5"), ("--band", "-3")])
    def test_bad_sampler_arguments_exit_three(self, capsys, spec, option):
        code, out, err = run_cli(capsys, "random-test", "--spec", spec, "--mode", "satisfying",
                                 "--trials", "2", *option)
        assert (code, out) == (3, "")
        assert "Traceback" not in err


class TestExploreCommand:
    def test_transposition(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--spec", "transposition:5:1:3",
                               "--trials", "12", "--band", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["anomalies"] == []

    def test_block_ctilde(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--spec", "block_ctilde",
                               "--trials", "8", "--band", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["nullspace_dim"] > 0

    def test_characterized_spec_rejected(self, capsys):
        code, _, err = run_cli(capsys, "explore", "--spec", "reversal:2", "--trials", "4")
        assert code == 3
        assert "explore" in err


class TestGenCommand:
    def test_output_shape(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--spec", "reversal:3", "--seed", "4",
                               "--band", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "gen"
        assert all(int(k) % 3 == 0 for k in payload["symbol"])

    def test_gen_then_check(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "--spec", "mulambda:1,0:0,1",
                               "--seed", "9", "--band", "5")
        assert code == 0
        symbol = json.loads(out)["symbol"]
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(symbol))
        code2, out2, _ = run_cli(capsys, "check", "--symbol-file", str(path),
                                 "--spec", "mulambda:1,0:0,1")
        assert code2 == 0

    def test_block_spec_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--spec", "block_c")
        assert code == 3


class TestDeterminism:
    COMMANDS = [
        ("check", "--symbol", "z^2 + (1+2i) z^-2", "--spec", "transposition:4:0:2"),
        ("check", "--symbol", "z;0;z^2;0", "--spec", "block_ctilde"),
        ("verify", "--spec", "mulambda:0,1:0,-1", "--size", "9"),
        ("random-test", "--spec", "block_c", "--trials", "12", "--seed", "3", "--band", "4"),
        ("explore", "--spec", "transposition:5:0:2", "--trials", "10", "--band", "5"),
        ("gen", "--spec", "reversal:2", "--seed", "11", "--band", "7"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_rerun(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2
        assert out1.endswith("\n")
        json.loads(out1)  # single valid JSON document

    def test_stdout_is_json_only(self, capsys):
        _, out, _ = run_cli(capsys, "random-test", "--spec", "reversal:2",
                            "--trials", "6")
        assert len(out.strip().splitlines()) == 1
        json.loads(out)


class TestEnvironmentTolerance:
    def test_env_var_sets_default(self, capsys, monkeypatch):
        # read on every call, not once per process
        for value in (0.5, 0.25):
            monkeypatch.setenv("TOEPSYM_TOL", str(value))
            _, out, _ = run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:1")
            payload = json.loads(out)
            assert payload["oracle"]["tol"] == value
        _, out, _ = run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:1",
                            "--tol", "0.125")
        assert json.loads(out)["oracle"]["tol"] == 0.125

    def test_parser_is_built_once(self, capsys, monkeypatch):
        calls = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
        for _ in range(2):
            assert run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:1")[0] == 0
        assert calls == []

    def test_invalid_env_var_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("TOEPSYM_TOL", "banana")
        for argv in (("check", "--symbol", "0", "--spec", "reversal:1"),
                     ("verify", "--spec", "reversal:1"), ("gen", "--spec", "reversal:1")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3
            assert out == ""
            assert "TOEPSYM_TOL" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_env_var_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TOEPSYM_TOL", value)
        code, out, _ = run_cli(capsys, "check", "--symbol", "z^2 + z^-2",
                               "--spec", "reversal:2")
        assert code == 3
        assert out == ""

    def test_env_var_reads_ascii_decimals_only(self, capsys, monkeypatch):
        # float() would read it as 1e-9
        monkeypatch.setenv("TOEPSYM_TOL", "1_0e-1_0")
        code, out, err = run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:1")
        assert (code, out) == (3, "")
        assert "TOEPSYM_TOL" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tol_flag_rejected(self, capsys, value):
        code, out, _ = run_cli(capsys, "check", "--symbol", "z^2 + z^-2",
                               "--spec", "reversal:2", "--tol", value)
        assert code == 3
        assert out == ""


class TestNumericOptions:
    # int() and float() would read these as 4, 10, 2, 1e-9 and 0.5
    @pytest.mark.parametrize("argv", [
        ["gen", "--spec", "reversal:2", "--band", "\u0664"],
        ["gen", "--spec", "reversal:2", "--seed", "1_0"],
        ["random-test", "--spec", "reversal:2", "--trials", "\uff12"],
        ["check", "--symbol", "z", "--spec", "reversal:2", "--tol", "1_0e-1_0"],
        ["gen", "--spec", "reversal:2", "--density", "\uff10.5"],
    ], ids=["band", "seed", "trials", "tol", "density"])
    def test_other_number_spellings_exit_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "Traceback" not in err

    def test_signed_ascii_decimals_decode(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--spec", "reversal:2", "--seed", "+3",
                               "--band", "0", "--density", ".5")
        assert code == 0
        assert {k: json.loads(out)[k] for k in ("seed", "band", "density")} == \
            {"seed": 3, "band": 0, "density": 0.5}
        code, out, _ = run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:1",
                               "--tol", "1e-8")
        assert code == 0 and json.loads(out)["oracle"]["tol"] == 1e-8


class TestInputValidation:
    # argparse drops a lone "--" value and stores [] without converting it
    @pytest.mark.parametrize("argv", [
        ["gen", "--spec", "reversal:2", "--seed=--"],
        ["check", "--symbol", "z", "--spec", "reversal:2", "--tol=--"],
        ["check", "--symbol", "z", "--spec=--"],
        ["check", "--symbol=--", "--spec", "reversal:2"],
    ], ids=["seed", "tol", "spec", "symbol"])
    def test_lone_double_dash_value_exits_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "missing its value" in err

    @pytest.mark.parametrize("argv", [
        ("--symbol-file", '{"2": [NaN, 0], "-2": [NaN, 0]}', "--spec", "reversal:2"),
        ("--symbol", "1e999 z^2", "--spec", "reversal:2"),
        ("--symbol", "z^2 + z^-2", "--spec", "mulambda:nan,0:1,0"),
    ], ids=["nan-symbol-file", "overflowing-literal", "nan-spec"])
    def test_non_finite_input_exit_three(self, capsys, tmp_path, argv):
        argv = _materialize(tmp_path, argv)
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--symbol-file", "[1, 2]", "--spec", "reversal:2"),
        ("--symbol-file", '{"2": 5}', "--spec", "reversal:2"),
        ("--symbol-file", '{"phi1": [1]}', "--spec", "block_c"),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": 5, "lambda": [1, 0]}'),
        ("--symbol-file", '{"2": [true, false]}', "--spec", "reversal:2"),
        ("--symbol-file", '{"2": ["1e3", "0"]}', "--spec", "reversal:2"),
        ("--symbol-file", '{"2_0": [1, 0]}', "--spec", "reversal:2"),
        ("--symbol-file", '{" 2": [1, 0]}', "--spec", "reversal:2"),
        ("--symbol-file", '{"2": [1%s, 0]}' % ("0" * 400), "--spec", "reversal:2"),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [true, false], "lambda": [0.6, 0.8]}'),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [1, 0], "lambda": ["0.6", "0.8"]}'),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [1, 0, 0], "lambda": [0.6, 0.8]}'),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [1, 0], "lambda": [0.6]}'),
    ], ids=["list-symbol", "scalar-coefficient", "list-block-entry", "scalar-mu",
            "bool-parts", "string-parts", "underscore-key", "spaced-key", "int-past-float-range",
            "bool-spec-parts", "string-spec-parts", "long-spec-pair", "short-spec-pair"])
    def test_malformed_json_exit_three(self, capsys, tmp_path, argv):
        argv = _materialize(tmp_path, argv)
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 3
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("symbol, spec, message", [
        ("3*", "reversal:2", "expected 'z' after '*' (at offset 2)"),
        ("3* + z^2", "reversal:2", "expected 'z' after '*' (at offset 3)"),
        ("1;z;z^2 + $;4", "block_c", "phi3: unexpected character '$' (at offset 10)"),
    ], ids=["dangling-star", "dangling-star-before-term", "block-entry"])
    def test_symbol_text_error_points_into_the_argument(self, capsys, symbol, spec, message):
        code, out, err = run_cli(capsys, "check", "--symbol", symbol, "--spec", spec)
        assert code == 3
        assert out == ""
        assert err == f"toepsym: error: {message}\n"

    @pytest.mark.parametrize("symbol, offset", [("\u0662 z^\u0662", 0), ("z^\u0662", 2)])
    def test_non_ascii_digits_exit_three(self, capsys, symbol, offset):
        code, out, err = run_cli(capsys, "check", "--symbol", symbol, "--spec", "reversal:2")
        assert (code, out) == (3, "")
        assert err == f"toepsym: error: unexpected character '\u0662' (at offset {offset})\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stdout_stays_strict_json_on_overflow(self, capsys):
        # finite input whose residual norm overflows: whatever the verdict,
        # stdout holds strict JSON or nothing
        code, out, _ = run_cli(capsys, "check", "--symbol", "1e300 z^2",
                               "--spec", "reversal:2")
        assert code in (1, 3)
        if out:
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))


class TestScaledAndHugeSymbols:
    def test_near_symmetric_scaled_symbol_agrees(self, capsys, tmp_path):
        argv = _materialize(tmp_path, ("--symbol-file",
                                       '{"2": [1000000.000001, 0], "-2": [1000000.0, 0]}',
                                       "--spec", "reversal:2"))
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == 0
        assert json.loads(out)["agree"] is True

    @pytest.mark.parametrize("symbol, expected", [
        ("1e300 z^2", 1),
        ("1e300 z^2 + 1e300 z^-2", 0),
    ])
    def test_finite_huge_symbol_gets_a_verdict(self, capsys, symbol, expected):
        code, out, _ = run_cli(capsys, "check", "--symbol", symbol, "--spec", "reversal:2")
        assert code == expected
        assert json.loads(out)["agree"] is True

    def test_overflowing_coefficient_modulus_gets_a_verdict(self, capsys, tmp_path):
        # |c_1| exceeds the float range: complex abs() would raise OverflowError
        argv = _materialize(tmp_path, ("--symbol-file", '{"1": [1.7e308, 1.7e308]}',
                                       "--spec", "reversal:2"))
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 1
        assert json.loads(out)["agree"] is True
        assert "Traceback" not in err

    def test_negative_zero_survives_in_violation_values(self, capsys, tmp_path):
        argv = _materialize(tmp_path, ("--symbol-file", '{"1": [-1.0, -0.0]}',
                                       "--spec", "reversal:2"))
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == 1
        assert '"lhs_value":[-1.0,-0.0]' in out


class TestHugeBand:
    """At band 20000 the truncation order is 40008: a dense truncation would
    take 25 GB (100 GB for a block family), the coefficient strips a few MB."""

    @pytest.mark.parametrize("symbol, spec, expected", [
        ("z^20000 + z^-20000", "reversal:2", 0),
        ("z^20000", "reversal:2", 1),
        ("z^20000 + z^-20000;0;0;z^20000 + z^-20000", "block_c", 0),
    ], ids=["reversal-symmetric", "reversal-not-symmetric", "block_c-symmetric"])
    def test_exit_code_and_strict_json(self, capsys, symbol, spec, expected):
        code, out, err = run_cli(capsys, "check", "--symbol", symbol, "--spec", spec)
        assert code == expected, err
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))
        assert payload["agree"] is True
        assert payload["oracle"]["n"] == 40008


def _module_env(**extra):
    """The environment for ``python -m toepsym``: the source tree the tests
    import comes first on ``PYTHONPATH``, whatever put it on ``sys.path``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the residual's sums are numpy's pairwise sums, not threaded BLAS dots
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(random_matrix_symbol(7, 200, 0.5).to_json()))
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "toepsym", "check", "--symbol-file", str(path),
             "--spec", "block_c"],
            capture_output=True, text=True, env=_module_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 1, proc.stderr
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["oracle"]["verdict"] == "not_symmetric"
    assert outputs[0] == outputs[1]


class TestStrictIntegerSpecFields:
    @pytest.mark.parametrize("spec", [
        '{"family": "reversal", "n": 2.7}',
        '{"family": "reversal", "n": true}',
        '{"family": "reversal", "n": "2"}',
        '{"family": "general", "p": 3, "sigma": ["2", "1", "0"]}',
        '{"family": "transposition", "p": 4, "i": 0, "j": 2.5}',
        '{"family": "general", "p": 2, "sigma": [1, false]}',
        '{"family": "general", "p": 3, "sigma": "210"}',
        '{"family": "general", "p": 2, "sigma": {"1": 0, "0": 1}}',
    ], ids=["fractional", "bool", "string", "string-in-sigma", "fractional-j",
            "bool-in-sigma", "string-sigma", "object-sigma"])
    def test_spec_file_rejects_non_integers(self, capsys, tmp_path, spec):
        argv = _materialize(tmp_path, ("--symbol", "z^2 + z^-2", "--spec-file", spec))
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 3
        assert out == ""
        assert "Traceback" not in err

    def test_integral_float_and_token_accepted(self, capsys, tmp_path):
        argv = _materialize(tmp_path, ("--symbol", "z^2 + z^-2", "--spec-file",
                                       '{"family": "reversal", "n": 2.0}'))
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == 0
        assert json.loads(out)["spec"] == {"family": "reversal", "n": 2}
        assert run_cli(capsys, "check", "--symbol", "z^2 + z^-2", "--spec", "reversal:2")[0] == 0
        # a token is read as the JSON number it spells
        code, out, _ = run_cli(capsys, "check", "--symbol", "z^2 + z^-2", "--spec", "reversal:2.0")
        assert code == 0
        assert json.loads(out)["spec"] == {"family": "reversal", "n": 2}

    def test_sigma_list_and_token_accepted(self, capsys, tmp_path):
        argv = _materialize(tmp_path, ("--symbol", "z^3 + z^-3", "--spec-file",
                                       '{"family": "general", "p": 3, "sigma": [2, 1, 0]}'))
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == 0
        assert json.loads(out)["spec"] == {"family": "general", "p": 3, "sigma": [2, 1, 0]}
        assert run_cli(capsys, "check", "--symbol", "z^3 + z^-3",
                       "--spec", "general:3:2,1,0")[0] == 0


class TestInternalErrors:
    @pytest.mark.parametrize("error", [MemoryError(), RuntimeError("unexpected")],
                             ids=["memory", "other"])
    def test_unexpected_exception_exits_four(self, capsys, monkeypatch, error):
        def crash(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "run_check", crash)
        code, out, err = run_cli(capsys, "check", "--symbol", "z^2 + z^-2",
                                 "--spec", "reversal:2")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("toepsym: internal error: ")
        assert type(error).__name__ in err
        assert len(err.strip().splitlines()) == 1


def _materialize(tmp_path, argv):
    """Write the text after each ``*-file`` flag to a file and pass its path."""
    out = list(argv)
    for k, arg in enumerate(argv[:-1]):
        if arg.endswith("-file"):
            path = tmp_path / f"input{k}.json"
            path.write_text(argv[k + 1])
            out[k + 1] = str(path)
    return out


# The benchmark's seven specs: the six families, transposition in a
# characterized case and in conjecture mode.
FUZZ_SPECS = ["general:6:2,1,0,4,3,5", "transposition:4:0:2", "transposition:5:1:3",
              "reversal:2", "mulambda:0,1:0.6,0.8", "block_c", "block_ctilde"]

_coefficient = st.sampled_from(["", "2 ", "-0.5 ", "i ", "3j ", "(1-2i) ", "(0.25+i)*",
                                "1e-3 ", "1+2i ", "− 4 "])
_term = st.builds("{}z^{}".format, _coefficient, st.integers(-40, 40))
_entry = st.one_of(st.lists(_term, min_size=1, max_size=5).map(" + ".join),
                   st.sampled_from(["0", "1", "z"]),
                   st.text(alphabet="0123456789.eijz+-−^*() $", max_size=10))
_number = st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=3))
_key = st.integers(-40, 40).map(str)
_pair = st.lists(st.integers(-9, 9) | st.floats(-9, 9), min_size=2, max_size=2)
_scalar_json = st.one_of(
    st.dictionaries(_key, _pair, max_size=6),
    st.dictionaries(_key | st.text(max_size=3),
                    _pair | st.lists(_number, min_size=2, max_size=2) | _number, max_size=6))
_any_json = st.recursive(st.none() | _number, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


# The exit codes each command can return; 4, an internal error, is in none.
EXIT_CODES = {"check": (0, 1, 2, 3), "verify": (0, 1, 3), "random-test": (0, 2, 3),
              "explore": (0, 2, 3)}


def _assert_exits_cleanly(argv):
    """``main(argv)`` exits with one of its command's codes; on exit 3 stdout
    is empty, otherwise it is strict JSON, and a check's ``agree`` is false
    exactly on exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES[argv[0]], err.getvalue()
    if code == 3:
        assert out.getvalue() == ""
        return
    payload = json.loads(out.getvalue(),
                         parse_constant=lambda name: pytest.fail(f"{name} in stdout"))
    if argv[0] == "check":
        assert (code == 2) == (payload["agree"] is False)


@st.composite
def _symbol_argument(draw, block):
    """``--symbol`` text built mostly from valid terms, or ``--symbol-file`` JSON."""
    if draw(st.booleans()):
        count = draw(st.sampled_from([4, 4, 4, 3])) if block else 1
        return "--symbol", ";".join(draw(st.lists(_entry, min_size=count, max_size=count)))
    if block and draw(st.booleans()):
        return "--symbol-file", json.dumps({f"phi{i}": draw(_scalar_json) for i in (1, 2, 3, 4)})
    return "--symbol-file", json.dumps(draw(st.one_of(_scalar_json, _any_json)))


@pytest.mark.parametrize("spec", FUZZ_SPECS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_check_on_arbitrary_input_exits_cleanly(tmp_path, spec, data):
    flag, value = data.draw(_symbol_argument(spec.startswith("block")))
    if flag == "--symbol-file":
        (tmp_path / "symbol.json").write_text(value)
        value = str(tmp_path / "symbol.json")
    _assert_exits_cleanly(["check", flag, value, "--spec", spec])


# Spec JSON: a family name from FAMILIES or junk, its fields (plus stray
# keys) drawn from plausible values or arbitrary JSON.  Integers, integral
# floats and numeric strings stay within |v| <= 64: the memory budget is still
# open, and a spec such as reversal with n = 10**9 would allocate without
# limit.
_bounded = st.one_of(st.none(), st.booleans(), st.integers(-64, 64), st.floats(-64, 64),
                     st.sampled_from([math.nan, math.inf, -math.inf, "2", "-1", " 3", "1.5"]),
                     st.text(alphabet="abjz ,.-+eE[]", max_size=4))
_field_json = st.recursive(_bounded, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=6)
_plausible = {
    "p": st.integers(1, 5), "i": st.integers(0, 4), "j": st.integers(0, 4),
    "n": st.integers(1, 6),
    "sigma": st.sampled_from([[0], [1, 0], [2, 1, 0], [0, 2, 1], [1, 0, 3, 2], [1.0, 0.0]]),
    "mu": st.sampled_from([[1, 0], [0, 1], [0.6, 0.8], [-1.0, -0.0]]),
    "lambda": st.sampled_from([[1, 0], [0, -1], [0.6, 0.8], [0.8, -0.6]]),
}
_SYMBOLS = {False: ["z^2 + z^-2", "3", "z - 2i z^-1"],
            True: ["z^2 + z^-2;0;0;z^2 + z^-2", "z;0;z^2;0"]}


@st.composite
def _spec_file(draw):
    """A ``--spec-file`` document, mostly a family object with each field
    plausible four times in five, and a symbol, mostly of the family's kind."""
    cls = None
    if not draw(st.integers(0, 9)):
        spec = draw(_field_json)
    else:
        family = draw(st.sampled_from(list(FAMILIES)) if draw(st.integers(0, 4)) else _bounded)
        cls = FAMILIES.get(family) if isinstance(family, str) else None
        keys = [field.key for field in cls.wire_fields] if cls else []
        keys += draw(st.lists(st.sampled_from([*_plausible, "family", "x"]), max_size=2))
        spec = {} if not draw(st.integers(0, 19)) else {"family": family}
        for key in keys:
            if draw(st.integers(0, 9)):
                plausible = key in _plausible and draw(st.integers(0, 4))
                spec[key] = draw(_plausible[key] if plausible else _field_json)
    block = cls is not None and cls.is_block
    return spec, draw(st.sampled_from(_SYMBOLS[block != (not draw(st.integers(0, 4)))]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_spec_file())
def test_check_on_arbitrary_spec_file_exits_cleanly(tmp_path, case):
    spec, symbol = case
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _assert_exits_cleanly(["check", "--symbol", symbol, "--spec-file", str(path)])


# Command lines for the other commands.  --size, --trials and --band stay
# small (at most 64, 3 and 8): the memory budget is still open.
_int_arg = st.one_of(st.integers(-2, 64).map(str), st.sampled_from(["", "x", "1.5", "1e3"]))
_float_arg = st.one_of(st.floats(-2, 2).map(repr),
                       st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "x"]))
_seed_arg = st.integers(-2, 10**6).map(str)
_trials_arg = st.integers(-1, 3).map(str)
_band_arg = st.integers(-2, 8).map(str)
_OPTIONS = {
    "verify": {"--size": _int_arg, "--probes": st.integers(-2, 5).map(str), "--seed": _seed_arg},
    "random-test": {"--trials": _trials_arg, "--seed": _seed_arg, "--band": _band_arg,
                    "--density": _float_arg,
                    "--mode": st.sampled_from(["random", "satisfying", "mixed", "all"]),
                    "--tol": _float_arg},
    "explore": {"--trials": _trials_arg, "--seed": _seed_arg, "--band": _band_arg,
                "--tol": _float_arg},
}
_spec_token = st.one_of(
    st.sampled_from(FUZZ_SPECS + ["reversal:2.0", "reversal:0", "general:2:1,0", "mulambda:1,0:1"]),
    st.text(alphabet="reversal:0123456789,.-", max_size=12))


@st.composite
def _command_line(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command, "--spec", draw(_spec_token)]
    for option, values in _OPTIONS[command].items():
        if draw(st.booleans()):
            argv += [option, draw(values)]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_command_line())
def test_commands_on_arbitrary_arguments_exit_cleanly(argv):
    _assert_exits_cleanly(argv)


# A family's token form and its JSON form carry the same numbers.
_wire_number = st.one_of(st.integers(-64, 64), st.floats(-64, 64), st.booleans(),
                         st.sampled_from([math.nan, math.inf, -0.0, 2.0, 0.6, 0.8]))


@st.composite
def _wire_fields(draw):
    cls = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    values = [draw(st.lists(_wire_number, min_size=1, max_size=4) if field.is_list
                   else _wire_number) for field in cls.wire_fields]
    return cls, values


def _decoded(decode, arg):
    try:
        return decode(arg)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(case=_wire_fields())
def test_spec_token_decodes_like_its_json(case):
    cls, values = case
    token = ":".join([cls.name] + [",".join(map(str, v)) if isinstance(v, list) else str(v)
                                   for v in values])
    obj = {"family": cls.name, **{f.key: v for f, v in zip(cls.wire_fields, values)}}
    assert _decoded(parse_spec_text, token) == _decoded(spec_from_json, obj)


def _typed_options():
    """``(command, option, dest, type)`` of every option the parser converts."""
    commands = next(action for action in cli._PARSER._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [(name, action.option_strings[0], action.dest, action.type)
            for name, sub in commands.choices.items() for action in sub._actions
            if action.type is not None]


def _parsed(command, option, dest, text):
    argv = [command, "--spec", "reversal:2", f"{option}={text}"]
    if command == "check":
        argv += ["--symbol", "z"]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return getattr(cli._PARSER.parse_args(argv), dest)
    except SystemExit:
        return ValueError


# A numeric option reads a spec token's number grammar: an integer option
# the parts that decode to an int, a float option every part.  A lone "--"
# never reaches the option's type (test_lone_double_dash_value_exits_three).
@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_wire_number.map(str),
                      st.text(alphabet="0123456789+-.eE_ \u0664\uff12", max_size=6)
                      .filter(lambda text: text != "--")))
def test_numeric_options_decode_like_spec_tokens(text):
    token = _decoded(cli._number, text)
    options = _typed_options()
    assert {kind for *_, kind in options} == {cli.integer, cli.decimal}
    for command, option, dest, kind in options:
        if token is ValueError or (kind is cli.integer and type(token) is not int):
            expected = ValueError
        else:
            expected = token if kind is cli.integer else float(text)
        assert _parsed(command, option, dest, text) == expected, (command, option)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toepsym", "check", "--symbol", "z^2 + z^-2",
         "--spec", "reversal:2"],
        capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agree"] is True
