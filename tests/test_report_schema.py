"""The check report's schema: its size, its worst rows, its symbol hash.

A ``check`` report names the symbol by its bandwidth, term count and
SHA-256, counts the violated rows, and lists only the ``WORST_ROWS`` of
largest distance.  These tests hold the report to the full
:class:`ConditionReport` it summarizes, and to the bound on its size.
"""

import contextlib
import hashlib
import io
import json
import math
import sys

import numpy as np
import pytest

from toepsym import cli
from toepsym.cli import WORST_ROWS, main, parse_spec_text
from toepsym.conditions import run_check
from toepsym.symbols import LaurentSymbol, MatrixSymbol, random_matrix_symbol, random_symbol

# The benchmark's seven specs: the six families, transposition in one of the
# paper's covered cases and outside them.
SPECS = ["general:6:2,1,0,4,3,5", "transposition:4:0:2", "transposition:5:1:3",
         "reversal:2", "mulambda:0,1:0.6,0.8", "block_c", "block_ctilde"]


def _dense(text: str, band: int, seed: int = 3):
    spec = parse_spec_text(text)
    return (random_matrix_symbol if spec.is_block else random_symbol)(seed, band, 1.0)


def _check(tmp_path, text: str, symbol_json) -> tuple[int, str]:
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol_json))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "--symbol-file", str(path), "--spec", text])
    return code, out.getvalue()


@pytest.mark.parametrize("text", SPECS)
def test_dense_band_800_report_fits_in_4_kib(tmp_path, text):
    code, out = _check(tmp_path, text, _dense(text, 800).to_json())
    assert code == 1
    assert len(out.encode()) <= 4096
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["condition"]["worst"]) == WORST_ROWS


def _brute_worst(report) -> list[int]:
    rows = report.violations.tolist()
    return sorted(rows, key=lambda row: (-report.distance[row], row))[:WORST_ROWS]


def _row_key(table, row: int) -> tuple:
    vanish = bool(table.vanish[row])
    return (table.names[table.family[row]], int(table.index[0, row]),
            None if vanish else int(table.index[1, row]))


CASES = [(text, _dense(text, 60)) for text in SPECS]
# 13 odd coefficients of modulus 1 under reversal:2: 13 vanish rows of one
# distance, so the worst 10 are the first 10 rows
CASES.append(("reversal:2", LaurentSymbol({k: 1j ** k for k in range(-25, 26, 4)})))


@pytest.mark.parametrize("text, symbol", CASES, ids=[f"{t}-{i}" for i, (t, _) in enumerate(CASES)])
def test_worst_rows_are_the_brute_force_top_ten(tmp_path, text, symbol):
    report = run_check(symbol, parse_spec_text(text)).condition
    code, out = _check(tmp_path, text, symbol.to_json())
    condition = json.loads(out)["condition"]
    table = report.table
    expected = _brute_worst(report)
    assert [(row["family"], row["lhs"], row["rhs"]) for row in condition["worst"]] == \
        [_row_key(table, row) for row in expected]
    assert [row["over_tol"] for row in condition["worst"]] == \
        [float(report.distance[row]) / report.tol for row in expected]
    assert condition["violation_count"] == report.violations.size > WORST_ROWS
    counts = {name: 0 for name in table.families}
    for row in report.violations.tolist():
        counts[table.names[table.family[row]]] += 1
    assert condition["violations_by_family"] == counts
    # the report's distances are on the scale 2**-exponent
    defect_l2 = math.ldexp(float(np.sqrt(np.sum(report.distance ** 2))), report.exponent)
    assert condition["defect_l2"] == pytest.approx(defect_l2)


def test_tied_rows_follow_row_order():
    symbol = CASES[-1][1]
    report = run_check(symbol, parse_spec_text("reversal:2")).condition
    assert len(set(report.distance[report.violations].tolist())) == 1
    assert cli._worst_rows(report).tolist() == report.violations[:WORST_ROWS].tolist()


def _numpy_sha256(obj) -> str:
    """The canonical binary form's SHA-256, from the symbol file's JSON."""
    entries = [obj[f"phi{i}"] for i in (1, 2, 3, 4)] if "phi1" in obj else [obj]
    digest = hashlib.sha256()
    for entry in entries:
        keys = sorted(entry, key=int)
        digest.update(np.array([len(keys)], "<u8").tobytes())
        digest.update(np.array([int(k) for k in keys], "<i8").tobytes())
        digest.update(np.array([complex(*entry[k]) for k in keys], "<c16").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("text", ["reversal:2", "block_ctilde"])
def test_sha256_matches_a_numpy_recomputation(tmp_path, text):
    symbol = _dense(text, 40)
    path = tmp_path / "symbol.json"
    _, out = _check(tmp_path, text, symbol.to_json())
    obj = json.loads(path.read_text())
    terms = sum(len(entry) for entry in (obj.values() if "phi1" in obj else [obj]))
    assert json.loads(out)["symbol"] == {"bandwidth": 40, "terms": terms,
                                         "sha256": _numpy_sha256(obj)}


def test_sha256_tells_a_negative_zero_part(tmp_path):
    digests = []
    for part in ("0.0", "-0.0"):
        _, out = _check(tmp_path, "reversal:2", json.loads(f'{{"1": [1.0, {part}]}}'))
        digests.append(json.loads(out)["symbol"]["sha256"])
    assert digests[0] != digests[1]
    assert digests == [_numpy_sha256({"1": [1.0, 0.0]}), _numpy_sha256({"1": [1.0, -0.0]})]


def test_matrix_sha256_reads_the_entries_in_order(tmp_path):
    one, zero = LaurentSymbol({0: 1}), LaurentSymbol()
    digests = {json.loads(_check(tmp_path, "block_c", MatrixSymbol(*entries).to_json())[1])
               ["symbol"]["sha256"] for entries in [(one, zero, zero, zero), (zero, one, zero, zero)]}
    assert len(digests) == 2


@pytest.mark.parametrize("text", ["block_ctilde", "mulambda:0,1:0.6,0.8"])
def test_rerun_is_byte_identical(tmp_path, text):
    symbol = _dense(text, 200).to_json()
    assert _check(tmp_path, text, symbol) == _check(tmp_path, text, symbol)


def test_overflowing_ratios_are_clamped(tmp_path):
    # the row's distance passes the float range, but it is 1e12 times its
    # tolerance, both read on the evaluator's scale; the 2-norm is clamped
    code, out = _check(tmp_path, "reversal:2", {"1": [1.7e308, 1.7e308]})
    condition = json.loads(out)["condition"]
    assert code == 1
    assert condition["worst"][0]["over_tol"] == 1e12
    assert condition["defect_l2"] == sys.float_info.max
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", "--symbol", "z", "--spec", "reversal:2", "--tol", "1e-320"]) == 1
    assert json.loads(out.getvalue())["oracle"]["over_tol"] == sys.float_info.max


def test_random_test_writes_no_condition_report(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("random-test built a check report")

    monkeypatch.setattr(cli, "_check_report", refuse)
    code = main(["random-test", "--spec", "block_c", "--trials", "4", "--band", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["agreements"] == 4
