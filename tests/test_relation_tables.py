"""Relation tables and their evaluator, pinned against the per-relation code.

* Each enumerator's rows, in order, are pinned by a SHA-256 digest written
  when every relation was a separate row object.
* The evaluator is compared, violation by violation and by ``repr`` of the
  values, with the per-relation loop it replaced, kept below as the
  reference (as ``_unscaled_residual`` is kept for the residual).  Both read
  their rows from the table's columns.
"""

import cmath
import hashlib
import json
import math
import sys

import numpy as np
import pytest

import toepsym.conditions as conditions
from toepsym.cli import main
from toepsym.conditions import (
    COEFF_TOL,
    RelationTable,
    block_hadamard_relations,
    block_mixed_necessary_relations,
    condition_reports,
    evaluate_relations,
    interchange_sign_relations,
    project_to_raw,
    random_block_hadamard_symmetric,
    raw_relations_general,
    raw_relations_transposition,
)
from toepsym.conjugations import (
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
)
from toepsym.symbols import (
    LaurentSymbol,
    MatrixSymbol,
    random_matrix_symbol,
    random_symbol,
)

from solution_sets import sums_form, sums_relations, symmetric_symbol

BANDS = [*range(13), 30, 200]
GENERAL = [(1, (0,)), (2, (1, 0)), (3, (2, 1, 0)), (4, (2, 1, 0, 3)),
           (5, (0, 3, 2, 1, 4)), (6, (2, 1, 0, 4, 3, 5)), (6, (0, 1, 2, 3, 4, 5))]
TRANSPOSITIONS = [(p, i, j) for p in range(2, 7) for i in range(p) for j in range(i + 1, p)]
INTERCHANGE = [(3, 1), (4, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3), (9, 4)]
LAMBDAS = [1.0, -1.0, 1j, complex(0.6, 0.8), cmath.exp(0.3j)]


def _rows(table, at=slice(None)):
    """The rows of ``table`` at ``at`` (any numpy index), read from its
    columns, as ``(kind, lhs_index, rhs_index, lhs_component,
    rhs_component, rhs_scale, family)`` with Python values."""
    columns = (table.vanish, *table.index, *table.component, table.rhs_scale, table.family)
    return [("vanish" if vanish else "equality", lhs, rhs, conditions._COMPONENTS[lc],
             conditions._COMPONENTS[rc], complex(scale), table.names[family])
            for vanish, lhs, rhs, lc, rc, scale, family
            in zip(*(column[at].tolist() for column in columns))]


def _digest(tables) -> str:
    """SHA-256 over every row of every table, in order.  The scale is read
    as a complex number, so ``-1`` and ``-1+0j`` (equal values) digest
    alike."""
    h = hashlib.sha256()
    for table in tables:
        for kind, lhs, rhs, lc, rc, scale, family in _rows(table):
            h.update(repr((kind, lhs, rhs, lc, rc, repr(scale), family)).encode())
        h.update(b"|")
    return h.hexdigest()


ENUMERATORS = {
    "period": lambda: [conditions._period_conditions(p, band)
                       for p in range(1, 7) for band in BANDS],
    "mu_lambda": lambda: [conditions._twist_relations(lam, band)
                          for lam in LAMBDAS for band in BANDS],
    "raw_general": lambda: [raw_relations_general(p, sigma, band)
                            for p, sigma in GENERAL for band in BANDS],
    "raw_transposition": lambda: [raw_relations_transposition(p, i, j, band)
                                  for p, i, j in TRANSPOSITIONS for band in BANDS],
    "interchange_sign": lambda: [interchange_sign_relations(p, q, band)
                                 for p, q in INTERCHANGE for band in BANDS],
    "hadamard_cross": lambda: [block_hadamard_relations(band) for band in BANDS],
    "hadamard_sums": lambda: [sums_relations(band) for band in BANDS],
    "mixed_necessary": lambda: [block_mixed_necessary_relations(band) for band in BANDS],
}

# written from the per-Relation enumerators
DIGESTS = {
    "period":
        "895accbb53bff00343041b50059cade7e006b0f900ea3c7cf4b1cb9f0ee3a3db",
    "mu_lambda":
        "c88920344b353df0ebeca5cac970ce2d6bedba28a0211f4e817ec7d0a0c34199",
    "raw_general":
        "f41990cc9ef83d560964681048d176bd93ab84aaa9cbec3d936c2b1269fefc9c",
    "raw_transposition":
        "1aa64fde77a9a3839f4805a77a722294ce49b541fc3df68639186498f491575c",
    "interchange_sign":
        "a3df4e8a36add2f230d6535f0461e11622c05939410b49de8480b36cb86f3256",
    "hadamard_cross":
        "02fe55fd6b8436c75f1790d54c7cfbe0da25bb037a2984621b9122e82d854df8",
    "hadamard_sums":
        "f03125305c4876d75a8468ac2c248f17214ac496c5aa2c0e1c9d1bbf7aa1ccce",
    "mixed_necessary":
        "5725ceae7a3136a3f81a48dfb9068701518e228fe971e63c2930697deec43d1a",
}

NULLSPACE_SYSTEM = "2a3508e4c207e4016eee16693b696e81ebb83c1cec9c0d6d45e4bd6cc84de12f"


@pytest.mark.parametrize("name", list(ENUMERATORS))
def test_enumerator_rows_are_pinned(name):
    assert _digest(ENUMERATORS[name]()) == DIGESTS[name]


def test_block_mixed_nullspace_system_is_pinned(monkeypatch):
    # the matrix handed to the SVD, bit for bit, at bands 0-12 (written from
    # the per-relation rows); the SVD's own output bits depend on the LAPACK
    # build, so the basis is pinned through its input
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: seen.append(a) or svd(a, *args, **kw))
    dims = [conditions._block_mixed_nullspace(band).shape[1] for band in range(13)]
    h = hashlib.sha256()
    for a in seen:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert dims == [4, 6, 10, 12, 16, 18, 22, 24, 28, 30, 34, 36, 40]
    assert h.hexdigest() == NULLSPACE_SYSTEM


# --- the evaluator against the per-relation loop ---------------------------


def _reference_read(entries, component, index):
    total = 0j
    for entry, coeff, shift in conditions._BLOCK_COMBOS[component]:
        total += coeff * entries[entry - 1].coeff(index + shift)
    return total


def _reference_violations(symbol, table):
    """``(row, lhs, rhs)`` of every violated row of ``table``, read one row
    at a time: block sides summed from ``0j`` term by term, scalar sides read
    directly."""
    if isinstance(symbol, MatrixSymbol):
        entries = symbol.entries

        def value(component, index):
            return _reference_read(entries, component, index)
    else:
        entries = (symbol,)

        def value(component, index):
            return symbol.coeff(index)
    norm = math.hypot(*[math.hypot(v.real, v.imag)
                        for entry in entries for v in entry.coeffs.values()])
    tol = COEFF_TOL * min(max(1.0, norm), sys.float_info.max)
    out = []
    for row in _rows(table):
        kind, lhs_index, rhs_index, lhs_component, rhs_component, rhs_scale, _ = row
        rhs = 0j if kind == "vanish" else rhs_scale * value(rhs_component, rhs_index)
        lhs = value(lhs_component, lhs_index)
        diff = lhs - rhs
        if math.hypot(diff.real, diff.imag) > tol:
            out.append((row, lhs, rhs))
    return out


def _assert_same(symbol, table, report):
    expected = [(row, repr(lhs), repr(rhs))
                for row, lhs, rhs in _reference_violations(symbol, table)]
    assert report.table is table
    at = report.violations
    rhs = map(complex, report.rhs_re[at].tolist(), report.rhs_im[at].tolist())
    got = list(zip(_rows(table, at), map(repr, report.lhs[at].tolist()), map(repr, rhs)))
    assert got == expected
    assert report.satisfied == (not expected)
    assert report.table.families == tuple(dict.fromkeys(row[-1] for row in _rows(table)))


@pytest.fixture
def compared(monkeypatch):
    """Route every evaluation through a wrapper that checks it against the
    reference; the list it returns gets each evaluation's violation count."""
    calls = []
    evaluate = conditions.evaluate_relations

    def checked(symbol, table, mode=conditions.IFF):
        report = evaluate(symbol, table, mode)
        _assert_same(symbol, table, report)
        calls.append(len(report.violations))
        return report
    for name in ("evaluate_scalar_relations", "evaluate_block_relations"):
        monkeypatch.setattr(conditions, name, checked)
    return calls


SPECS = [GeneralPermutation(6, (2, 1, 0, 4, 3, 5)), Transposition(4, 0, 2),
         Transposition(5, 1, 3), Reversal(2), Reversal(3), MuLambda(1j, complex(0.6, 0.8)),
         MuLambda(1.0, -1.0), BlockHadamard(), BlockMixed()]
SCALES = [1.0, 1e6, float(2 ** 900), 1e-300]


def _generic(spec, seed, band, density):
    if spec.is_block:
        return random_matrix_symbol(seed, band, density)
    return random_symbol(seed, band, density)


def _scaled(symbol, factor):
    if isinstance(symbol, MatrixSymbol):
        return MatrixSymbol(*(e * factor for e in symbol.entries))
    return symbol * factor


def _signed_zeros(symbol):
    """The symbol with some real and imaginary parts replaced by ``-0.0``."""
    def entry(e):
        return LaurentSymbol({k: complex(-0.0 if k % 3 == 0 else v.real,
                                         -0.0 if k % 2 else v.imag)
                              for k, v in e.coeffs.items()})
    if isinstance(symbol, MatrixSymbol):
        return MatrixSymbol(*(entry(e) for e in symbol.entries))
    return entry(symbol)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_condition_reports_match_the_reference(compared, spec):
    for band in (0, 1, 2, 5, 12, 30):
        for seed in range(3):
            symbols = [symmetric_symbol(spec, seed, band, 0.8), _generic(spec, seed, band, 1.0),
                       _generic(spec, seed, band, 0.2)]
            symbols.append(_signed_zeros(symbols[1]))
            for symbol in symbols:
                for factor in SCALES:
                    condition_reports(_scaled(symbol, factor), spec)
    assert len(compared) > 100 and any(compared)


def test_other_tables_match_the_reference(compared):
    for band in (0, 3, 12, 30):
        for seed in range(3):
            m = random_matrix_symbol(seed, band, 0.5)
            for symbol in (m, random_block_hadamard_symmetric(seed, band), _signed_zeros(m)):
                sums_form(symbol)
            for p, q in INTERCHANGE:
                drawn = random_symbol(seed, band, 0.7)
                sym = project_to_raw(drawn, Transposition(p, q - 1, p - 1), drawn.bandwidth)
                for symbol in (sym, random_symbol(seed, band, 0.7), _signed_zeros(sym)):
                    conditions.evaluate_scalar_relations(
                        symbol, interchange_sign_relations(p, q, band), conditions.IFF)
    assert any(compared)


def _filtered(table, keep):
    """The rows of ``table`` where the mask ``keep`` holds, as a table."""
    return RelationTable(table.names, (table.family[keep], table.vanish[keep],
                                       *table.component[:, keep], *table.index[:, keep],
                                       table.rhs_scale[keep]))


def _in_families(table, pick):
    """The mask of the rows whose family name satisfies ``pick``."""
    return np.isin(table.family, [code for code, name in enumerate(table.names) if pick(name)])


def test_filtered_lists_match_the_reference():
    # family-filtered tables, built from the columns of a full one
    full = raw_relations_transposition(5, 1, 3, 15)
    table = _filtered(full, _in_families(full, lambda name: name != "multiples"))
    for seed in range(5):
        for symbol in (random_symbol(seed, 15, 0.5), random_symbol(seed, 20, 0.5)):
            _assert_same(symbol, table, evaluate_relations(symbol, table))
    full = block_mixed_necessary_relations(6)
    block = _filtered(full, _in_families(full, lambda name: name.startswith("mixed")))
    m = random_matrix_symbol(3, 6, 0.6)
    _assert_same(m, block, evaluate_relations(m, block))
    empty = _filtered(full, np.zeros(len(full), bool))
    assert evaluate_relations(m, empty).satisfied and evaluate_relations(m, empty).table.families == ()


def test_a_table_of_the_other_kind_is_rejected():
    # a block table would read a scalar symbol's coefficients as every entry
    with pytest.raises(ValueError, match="block relation cannot read a scalar symbol"):
        evaluate_relations(LaurentSymbol({1: 1.0}), block_hadamard_relations(2))
    with pytest.raises(ValueError, match="scalar relation cannot read a matrix symbol"):
        evaluate_relations(random_matrix_symbol(1, 2, 1.0), raw_relations_general(2, (1, 0), 2))


# (x, y): c_2 = x + iy against c_-2 = 0 under reversal:2, so the difference
# is (x, y) and the tolerance 1e-12.  The last two are pairs whose
# math.hypot and np.hypot fall on opposite sides of 1e-12.
BOUNDARY = [
    (1e-12, 0.0), (np.nextafter(1e-12, 1.0), 0.0), (np.nextafter(1e-12, 0.0), 0.0),
    (0.0, 1e-12), (0.0, np.nextafter(1e-12, 1.0)),
    (9.540297598453137e-13, 2.9971189053738476e-13),
    (4.86783538053531e-13, 8.735226311207321e-13),
]


@pytest.mark.parametrize("x, y", BOUNDARY)
def test_difference_at_the_tolerance(compared, x, y):
    symbol = LaurentSymbol({2: complex(float(x), float(y))})
    report, _ = condition_reports(symbol, Reversal(2))
    assert report.satisfied == (not math.hypot(x, y) > 1e-12)
    assert compared == [len(report.violations)]


# --- what the check path builds ---------------------------------------------

CLI_SPECS = ["general:6:2,1,0,4,3,5", "transposition:4:0:2", "transposition:5:1:3",
             "reversal:2", "mulambda:0,1:0.6,0.8", "block_c", "block_ctilde"]
CLI_SPEC_OBJECTS = [GeneralPermutation(6, (2, 1, 0, 4, 3, 5)), Transposition(4, 0, 2),
                    Transposition(5, 1, 3), Reversal(2), MuLambda(1j, complex(0.6, 0.8)),
                    BlockHadamard(), BlockMixed()]


@pytest.mark.parametrize("text, spec", zip(CLI_SPECS, CLI_SPEC_OBJECTS), ids=CLI_SPECS)
def test_check_builds_relations_only_for_violations(tmp_path, capsys, text, spec):
    # the report is written from the table's columns at the violated rows;
    # a symmetric input reports none, a generic one some
    band = 200
    cases = [(symmetric_symbol(spec, 7, band, 0.8), True), (_generic(spec, 7, band, 1.0), False)]
    for symbol, symmetric in cases:
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps(symbol.to_json()))
        code = main(["check", "--symbol-file", str(path), "--spec", text])
        payload = json.loads(capsys.readouterr().out)
        reports = [payload["condition"], payload["advisory"]]
        reported = sum(len(r["violations"]) for r in reports if r is not None)
        if symmetric:
            assert code == 0 and reported == 0
        else:
            assert code == 1 and reported > 0
