import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toepsym.cli as cli
import toepsym.conditions as conditions
import toepsym.conjugations as conjugations
import toepsym.symmetry as symmetry
from toepsym.cli import main, parse_spec_text
from toepsym.conjugations import (
    FAMILIES,
    AxiomCheck,
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
    axiom_bytes,
    spec_from_json,
)
from toepsym.symbols import random_matrix_symbol
from toepsym.toeplitz import TruncatedToeplitz


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
            return type(outcome)(outcome.condition, outcome.oracle, False)

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

    def test_large_period_in_linear_time(self, capsys):
        # an involution check that applies the operator twice per residue
        # class is O(p * size), over a minute at this period
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--spec", "reversal:20000")
        assert code == 0 and json.loads(out)["ok"] is True
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("spec", ["block_c", "reversal:2"])
    def test_size_over_the_budget_is_refused_before_building(self, capsys, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("built the operator")
        monkeypatch.setattr(conjugations, "truncated_matrix", refuse)
        reached = []
        monkeypatch.setattr(cli, "verify_axioms", lambda spec, size, probes, seed: reached.append(
            size) or AxiomCheck(True, 0.0, 0.0, size, probes))
        # the largest size within the budget, even for both periods
        limit = symmetry.RESIDUAL_BUDGET_BYTES // axiom_bytes(2, parse_spec_text(spec)) * 2
        assert run_cli(capsys, "verify", "--spec", spec, "--size", str(limit))[0] == 0
        code, out, err = run_cli(capsys, "verify", "--spec", spec, "--size", str(limit + 2))
        assert (code, out) == (3, "")
        assert "over its budget" in err and reached == [limit]

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
        assert (payload["finite_residues"], payload["period"]) == ([0], 5)
        assert payload["candidates"] == payload["anomalies"] == []

    def test_covered_swap_reports_the_decision(self, capsys):
        # a swap in the paper's covered cases exited 3; it is decided the same way
        code, out, _ = run_cli(capsys, "explore", "--spec", "transposition:4:0:2")
        assert code == 0
        assert (json.loads(out)["finite_residues"], json.loads(out)["period"]) == ([0], 4)

    def test_block_ctilde(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--spec", "block_ctilde",
                               "--trials", "8", "--band", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["nullspace_dim"] == 6
        assert payload["candidates"] == payload["anomalies"] == []

    def test_block_ctilde_candidate_is_a_disagreement(self, capsys):
        # a draw that satisfies the exact list but fails the oracle (here
        # through a tolerance below rounding) contradicts the list
        code, out, _ = run_cli(capsys, "explore", "--spec", "block_ctilde",
                               "--trials", "2", "--band", "2", "--tol", "1e-300")
        assert code == 2
        assert [c["seed"] for c in json.loads(out)["candidates"]] == [0, 1]

    def test_symmetric_block_ctilde_symbol_exits_zero(self, capsys):
        # exactly symmetric (residual about 2e-16): the list must accept it
        code, out, err = run_cli(capsys, "check", "--spec", "block_ctilde", "--symbol",
                                 "z - z^-1; -0.5 z^2 + 0.5 z^-2; -0.5 z^2 + 0.5 z^-2; -z + z^-1")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["agree"] is True and payload["condition"]["violation_count"] == 0
        assert payload["condition"]["satisfied"] and payload["oracle"]["residual"] <= 1e-15

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

    @pytest.mark.parametrize("spec", ["block_c", "block_ctilde"])
    def test_block_gen_then_check(self, capsys, tmp_path, spec):
        # gen draws a block family on its solution-set basis, as random-test does
        path = tmp_path / "sym.json"
        for seed in range(3):
            for band in (0, 1, 6, 31):
                code, out, err = run_cli(capsys, "gen", "--spec", spec, "--seed", str(seed),
                                         "--band", str(band))
                assert code == 0, err
                path.write_text(json.dumps(json.loads(out)["symbol"]))
                code, out, err = run_cli(capsys, "check", "--symbol-file", str(path),
                                         "--spec", spec)
                assert code == 0 and json.loads(out)["agree"] is True, (seed, band, err)

    def test_block_band_over_the_budget_is_refused_before_drawing(self, capsys, monkeypatch):
        # a block draw at band 10**6 peaks near 1 GB; the residual's budget
        # refuses it as random-test and explore do
        def refuse(*args):
            raise AssertionError("drew before the budget check")
        monkeypatch.setattr(conditions, "draw_coeffs", refuse)
        code, out, err = run_cli(capsys, "gen", "--spec", "block_c", "--band", "999999")
        assert (code, out) == (3, "")
        assert "over its budget" in err

    def test_general_gen_matches_its_reversal_and_checks_symmetric(self, capsys, tmp_path):
        # general:2:1,0 is the conjugation that reversal:2 is
        runs = [run_cli(capsys, "gen", "--spec", spec, "--band", "6")
                for spec in ("general:2:1,0", "reversal:2")]
        assert [code for code, _, _ in runs] == [0, 0]
        symbols = [json.loads(out)["symbol"] for _, out, _ in runs]
        assert symbols[0] == symbols[1] != {}
        code, out, _ = run_cli(capsys, "gen", "--spec", "general:6:2,1,0,4,3,5", "--band", "20",
                               "--density", "1")
        assert code == 0
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(json.loads(out)["symbol"]))
        assert run_cli(capsys, "check", "--symbol-file", str(path),
                       "--spec", "general:6:2,1,0,4,3,5")[0] == 0


@pytest.mark.parametrize("spec", ["general:6:2,1,0,4,3,5", "transposition:4:0:2",
                                  "transposition:5:1:3", "reversal:2"])
def test_no_command_reads_the_raw_table(capsys, monkeypatch, tmp_path, spec):
    # the raw table, its graph and its projection are the tests' reference only
    def refuse(*args, **kwargs):
        raise AssertionError("a command reached the raw table")
    for name in ("raw_relations_general", "_raw_components", "project_to_raw"):
        monkeypatch.setattr(conditions, name, refuse)
    code, out, err = run_cli(capsys, "gen", "--spec", spec, "--band", "12", "--density", "1")
    assert code == 0, err
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(json.loads(out)["symbol"]))
    assert run_cli(capsys, "check", "--symbol-file", str(path), "--spec", spec)[0] == 0
    assert run_cli(capsys, "check", "--symbol", "z + z^-2", "--spec", spec)[0] == 1
    assert run_cli(capsys, "random-test", "--spec", spec, "--mode", "mixed",
                   "--trials", "6", "--band", "9")[0] == 0
    # explore decides swaps; it refuses the other residue families as usage
    expected = 0 if spec.startswith("transposition") else 3
    assert run_cli(capsys, "explore", "--spec", spec, "--band", "9")[0] == expected


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
        ("--symbol-file", '{"phi1": {}, "phi2": {}, "phi3": {}, "phi4": {}, "phi5": {"1": [1, 0]}}',
         "--spec", "block_c"),
        ("--symbol", "z", "--spec-file", '{"family": "reversal", "n": 2, "p": 7}'),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": 5, "lambda": [1, 0]}'),
        ("--symbol-file", '{"2": [true, false]}', "--spec", "reversal:2"),
        ("--symbol-file", '{"2": ["1e3", "0"]}', "--spec", "reversal:2"),
        ("--symbol-file", '{"2_0": [1, 0]}', "--spec", "reversal:2"),
        ("--symbol-file", '{" 2": [1, 0]}', "--spec", "reversal:2"),
        ("--symbol-file", '{"2": [1%s, 0]}' % ("0" * 400), "--spec", "reversal:2"),
        ("--symbol-file", '{"None": [1, 0]}', "--spec", "reversal:2"),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [true, false], "lambda": [0.6, 0.8]}'),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [1, 0], "lambda": ["0.6", "0.8"]}'),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [1, 0, 0], "lambda": [0.6, 0.8]}'),
        ("--symbol", "z", "--spec-file",
         '{"family": "mulambda", "mu": [1, 0], "lambda": [0.6]}'),
    ], ids=["list-symbol", "scalar-coefficient", "list-block-entry", "extra-block-entry",
            "extra-spec-field", "scalar-mu",
            "bool-parts", "string-parts", "underscore-key", "spaced-key", "int-past-float-range",
            "none-key",
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

    @pytest.mark.parametrize("phi2", ['{"2": [1.7e308, 0]}',
                                      '{"2": [1.7e308, 0], "-2": [1e308, 0]}'],
                             ids=["one-side-overflows", "both-sides-overflow"])
    def test_block_sides_past_the_float_range_get_a_verdict(self, capsys, tmp_path, phi2):
        # (phi1+phi2)(2) passes the float range, and with the second phi2
        # (phi1+phi2)(-2) too: read unscaled, the first made the report
        # non-finite (exit 3), the second a NaN distance that passed the row
        symbol = ('{"phi1": {"2": [1.7e308, 0], "-2": [1.7e308, 0]}, "phi2": %s, '
                  '"phi3": {}, "phi4": {}}' % phi2)
        argv = _materialize(tmp_path, ("--symbol-file", symbol, "--spec", "block_c"))
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 1, err
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))
        assert payload["agree"] is True
        assert payload["condition"]["families"]["sum12_even"] is False

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


class TestResidualBudget:
    """An order whose residual arrays would pass the budget exits 3 before
    the truncation, the operator or the residual is built."""

    @pytest.mark.parametrize("symbol, spec", [
        ("z^1000000;0;0;0", "block_c"),
        # the cells a band reaches: at band 0 this period fits, at band 100 it does not
        ("z^100", "general:2000:" + ",".join(map(str, range(2000)))),
    ], ids=["block_c-band-1e6", "general-period-2000"])
    def test_exits_three_without_allocating(self, capsys, monkeypatch, symbol, spec):
        def refuse(*args):
            raise AssertionError("the budget check came too late")
        # what a check's stack of one calls after its budget check, and the
        # scaled coefficients that both of its routes read
        for name in ("truncate", "truncated_matrix", "residual_plan", "_cells", "_near",
                     "residual", "residuals"):
            monkeypatch.setattr(symmetry, name, refuse)
        monkeypatch.setattr(TruncatedToeplitz, "scaled", property(refuse))
        code, out, err = run_cli(capsys, "check", "--symbol", symbol, "--spec", spec)
        assert (code, out) == (3, "")
        assert "over its budget" in err

    def test_explorer_exits_three_before_drawing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the budget check came too late")
        monkeypatch.setattr(conditions, "draw_coeffs", refuse)
        code, out, err = run_cli(capsys, "explore", "--spec", "block_ctilde", "--band", "100000")
        assert (code, out) == (3, "")
        assert "over its budget" in err

    @pytest.mark.parametrize("spec, mode", [("block_c", "satisfying"),
                                            ("block_ctilde", "satisfying"),
                                            ("reversal:2", "random")])
    def test_random_test_exits_three_before_drawing(self, capsys, monkeypatch, spec, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("the budget check came too late")
        for name in ("draw_coeffs", "random_symbol", "random_matrix_symbol"):
            monkeypatch.setattr(conditions, name, refuse)
        code, out, err = run_cli(capsys, "random-test", "--spec", spec, "--band", "999999",
                                 "--trials", "1", "--mode", mode)
        assert (code, out) == (3, "")
        assert "over its budget" in err

    @pytest.mark.parametrize("spec", ["reversal:2", "mulambda:0,1:0.6,0.8", "block_c"])
    def test_gen_exits_three_before_drawing(self, capsys, monkeypatch, spec):
        # gen's symbol must be one that check accepts
        def refuse(*args, **kwargs):
            raise AssertionError("the budget check came too late")
        for name in ("draw_coeffs", "random_symbol", "random_matrix_symbol"):
            monkeypatch.setattr(conditions, name, refuse)
        code, out, err = run_cli(capsys, "gen", "--spec", spec, "--band", "600000")
        assert (code, out) == (3, "")
        order = symmetry.min_truncation(600000, parse_spec_text(spec))
        need = symmetry.residual_bytes(order, parse_spec_text(spec), 600000)
        assert err == (f"toepsym: error: the residual at order {order} needs {need >> 20} MiB, "
                       "over its budget\n")

    @staticmethod
    def _lower_budget(monkeypatch, spec, band):
        """A budget that admits ``spec`` up to ``band`` and no further."""
        need = symmetry.residual_bytes(symmetry.min_truncation(band, spec), spec, band)
        monkeypatch.setattr(symmetry, "RESIDUAL_BUDGET_BYTES", need)

    @pytest.mark.parametrize("text", ["reversal:2", "block_c"])
    def test_symbol_file_at_the_bound_parses_and_one_pair_more_is_refused(
            self, capsys, monkeypatch, tmp_path, text):
        spec, band = parse_spec_text(text), 40
        self._lower_budget(monkeypatch, spec, band)
        entry = {str(k): [1, 0] for k in range(-band, band + 1)}
        path = tmp_path / "symbol.json"
        for extra, expected in (({}, 1), ({str(band + 1): [1, 0]}, 3)):
            full = {**entry, **extra}
            path.write_text(json.dumps({f"phi{i}": full for i in (1, 2, 3, 4)}
                                       if spec.is_block else full))
            code, out, err = run_cli(capsys, "check", "--symbol-file", str(path), "--spec", text)
            assert code == expected, err
        # the message the residual's own budget check gives for that band
        order = symmetry.min_truncation(band + 1, spec)
        assert (out, err) == ("", f"toepsym: error: the residual at order {order} needs "
                                  f"{symmetry.residual_bytes(order, spec, band + 1) >> 20} MiB, "
                                  f"over its budget\n")

    def test_symbol_file_over_the_bound_is_refused_within_a_few_chunks(
            self, capsys, monkeypatch, tmp_path):
        # 200,001 pairs, about 3.4 MB of JSON: parsed and decoded, they take
        # tens of MB; over the bound of a budget lowered to band 50, the read
        # stops in the first chunk, before json.load.  An invalid file gets
        # the budget's message too, since it is counted before it is parsed
        spec = parse_spec_text("reversal:2")
        self._lower_budget(monkeypatch, spec, 50)
        path = tmp_path / "symbol.json"
        for text in (json.dumps({str(k): [1, 0] for k in range(-100000, 100001)}),
                     "[x" * 10**6):
            path.write_text(text)
            tracemalloc.start()
            try:
                code, out, err = run_cli(capsys, "check", "--symbol-file", str(path),
                                         "--spec", "reversal:2")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (3, "") and err.endswith("over its budget\n")
            assert peak <= 3 * cli.CHUNK_BYTES, peak


def test_gen_refuses_a_band_past_the_exponent_range_before_drawing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew before the range check")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    code, out, err = run_cli(capsys, "gen", "--spec", "reversal:2", "--band", "3000000")
    assert (code, out) == (3, "")
    assert "max_band 3000000 out of range" in err


_STATUS = """

def status(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(field))

"""

# Prints the residual's peak allocation above the memory in use before it,
# and its estimate.  The peak is the address space's high-water mark, VmHWM:
# ru_maxrss also keeps the mark of the process that forked this one.
_PEAK = """
import json, sys
from toepsym.cli import parse_spec_text
from toepsym.conjugations import truncated_matrix
from toepsym.symbols import MatrixSymbol, parse_symbol
from toepsym.symmetry import residual, residual_bytes
from toepsym.toeplitz import block_truncate, min_truncation, truncate

spec = parse_spec_text(sys.argv[2])
entries = [parse_symbol(text) for text in sys.argv[1].split(";")]
symbol = MatrixSymbol(*entries) if spec.is_block else entries[0]
n = min_truncation(symbol.bandwidth, spec)
t = (block_truncate if spec.is_block else truncate)(symbol, n)
c = truncated_matrix(spec, n)
""" + _STATUS + """
before = status("VmRSS:")
residual(t, c)
print(json.dumps({"peak": status("VmHWM:") - before,
                  "estimate": residual_bytes(n, spec, symbol.bandwidth)}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("symbol, spec", [
    ("z^50000 + z^-50000", "reversal:2"),
    ("z^200000 + z^-200000", "reversal:2"),
    ("z^20000 + z^-20000;0;0;z^20000 + z^-20000", "block_c"),
    ("z^6 + z^-6", "reversal:10000"),
], ids=["reversal-50000", "reversal-200000", "block_c-20000", "period-10000"])
def test_residual_memory_estimate_bounds_its_peak(symbol, spec):
    # the estimate the budget reads must not fall below what the residual takes
    proc = subprocess.run([sys.executable, "-c", _PEAK, symbol, spec],
                          capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0, proc.stderr
    measured = json.loads(proc.stdout)
    assert 0 < measured["peak"] <= measured["estimate"], measured


# Prints the exit code of a command and its peak above the memory in use
# before it.
_COMMAND_PEAK = """
import contextlib, io, sys
from toepsym.cli import main
""" + _STATUS + """
before = status("VmRSS:")
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, status("VmHWM:") - before)
"""


# Prints a spec's mirror period and the peak of a solution-set draw at band 6
# under it, the walk gen took before its budget check, above the memory in
# use before it.
_MIRROR_PEAK = """
import sys
from toepsym.cli import parse_spec_text
from toepsym.symbols import project_to_conditions, random_symbol
""" + _STATUS + """
before = status("VmRSS:")
spec = parse_spec_text(sys.argv[1])
project_to_conditions(random_symbol(0, 6, 0.5), spec)
print(spec.mirror_period, status("VmHWM:") - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_swap_orbit_walk_memory_does_not_grow_with_the_period_squared(capsys):
    # two lists of 2 p^2 ints took about 550 MB at p = 2000, and a walk over
    # the p^2 residue pairs ran for minutes at p = 200000; the mirror period
    # reads O(p) per divisor of p
    for argv in (["explore", "--spec", "transposition:2000:0:1", "--band", "2", "--trials", "1"],
                 ["explore", "--spec", "transposition:200000:0:1", "--band", "2",
                  "--trials", "1"]):
        proc = subprocess.run([sys.executable, "-c", _COMMAND_PEAK, *argv],
                              capture_output=True, text=True, env=_module_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, peak = map(int, proc.stdout.split())
        assert code == 0 and peak <= 32 << 20, (argv, peak)
    # gen refuses the period's residual by its budget, so the walk it took
    # before drawing is held to the bound in process
    proc = subprocess.run([sys.executable, "-c", _MIRROR_PEAK, "reversal:200000"],
                          capture_output=True, text=True, env=_module_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    period, peak = map(int, proc.stdout.split())
    assert period == 200000 and peak <= 32 << 20, peak
    code, out, err = run_cli(capsys, "gen", "--spec", "reversal:200000", "--band", "6")
    assert (code, out) == (3, "") and "over its budget" in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("spec, size", [("reversal:2", 500_000),
                                        ("mulambda:0,1:0.6,0.8", 500_000),
                                        ("block_c", 250_000)])
def test_verify_memory_estimate_bounds_its_peak(spec, size):
    # the estimate that refuses a size must not fall below what verify takes
    proc = subprocess.run([sys.executable, "-c", _COMMAND_PEAK, "verify", "--spec", spec,
                           "--size", str(size)],
                          capture_output=True, text=True, env=_module_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0 and 0 < peak <= axiom_bytes(size, parse_spec_text(spec)), peak


# Prints the size of the block_ctilde basis at a band and the peak of its
# build above the memory in use before it.
_BASIS_PEAK = """
import sys
from toepsym.conditions import block_mixed_basis
""" + _STATUS + """
before = status("VmRSS:")
terms = block_mixed_basis(int(sys.argv[1]))
print(terms.nbytes, status("VmHWM:") - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_pair_basis_is_built_in_place():
    # a block draw holds the whole term table; built from full-size
    # temporaries, this 38 MB table peaked at 77 MB
    proc = subprocess.run([sys.executable, "-c", _BASIS_PEAK, "100000"],
                          capture_output=True, text=True, env=_module_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    size, peak = map(int, proc.stdout.split())
    assert 0 < peak <= 1.3 * size, (size, peak)


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


# The benchmark's seven specs: the six families, transposition in one of the
# paper's covered cases and outside them.
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
