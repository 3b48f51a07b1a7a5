import json
import subprocess
import sys

import pytest

import toepsym.cli as cli
from toepsym.cli import main, parse_spec_text
from toepsym.conjugations import (
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
)


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

    def test_rejects_garbage(self):
        for bad in ("reversal", "reversal:2:3", "blocks", "mulambda:1:2", ""):
            with pytest.raises(ValueError):
                parse_spec_text(bad)


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
        monkeypatch.setenv("TOEPSYM_TOL", "0.5")
        _, out, _ = run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:1")
        payload = json.loads(out)
        assert payload["oracle"]["tol"] == 0.5

    def test_invalid_env_var_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("TOEPSYM_TOL", "banana")
        code, _, err = run_cli(capsys, "check", "--symbol", "0", "--spec", "reversal:1")
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_env_var_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TOEPSYM_TOL", value)
        code, out, _ = run_cli(capsys, "check", "--symbol", "z^2 + z^-2",
                               "--spec", "reversal:2")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tol_flag_rejected(self, capsys, value):
        code, out, _ = run_cli(capsys, "check", "--symbol", "z^2 + z^-2",
                               "--spec", "reversal:2", "--tol", value)
        assert code == 3
        assert out == ""


class TestInputValidation:
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
    ], ids=["list-symbol", "scalar-coefficient", "list-block-entry", "scalar-mu"])
    def test_malformed_json_exit_three(self, capsys, tmp_path, argv):
        argv = _materialize(tmp_path, argv)
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 3
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stdout_stays_strict_json_on_overflow(self, capsys):
        # finite input whose residual norm overflows: whatever the verdict,
        # stdout holds strict JSON or nothing
        code, out, _ = run_cli(capsys, "check", "--symbol", "1e300 z^2",
                               "--spec", "reversal:2")
        assert code in (1, 3)
        if out:
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))


def _materialize(tmp_path, argv):
    """Write the text after each ``*-file`` flag to a file and pass its path."""
    out = list(argv)
    for k, arg in enumerate(argv[:-1]):
        if arg.endswith("-file"):
            path = tmp_path / f"input{k}.json"
            path.write_text(argv[k + 1])
            out[k + 1] = str(path)
    return out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toepsym", "check", "--symbol", "z^2 + z^-2",
         "--spec", "reversal:2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agree"] is True
