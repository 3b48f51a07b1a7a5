"""Relation tables and their evaluator, pinned against the per-relation code.

* Each enumerator's rows, in order, are pinned by a SHA-256 digest written
  when every relation was a separate row object.
* The evaluator is compared, violation by violation and by ``repr`` of the
  values, with the per-relation loop it replaced, kept below as the
  reference (as ``_unscaled_residual`` is kept for the residual).  Both read
  their rows from the table's columns.
"""

import cmath
import functools
import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toepsym.conditions as conditions
import toepsym.symmetry as symmetry
from toepsym.cli import _check_report, main
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
    random_block_mixed_symmetric,
    raw_relations_general,
    raw_relations_transposition,
    relation_table,
    run_check,
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
from toepsym.toeplitz import truncate

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
    return [("vanish" if vanish else "equality", lhs, rhs, table.components[lc],
             table.components[rc], complex(scale), table.names[family])
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
    # the closed-form table of a reversal, whose mirror period is n
    "period": lambda: [conditions._mirror_conditions(Reversal(p).mirror_period, band)
                       for p in range(1, 7) for band in BANDS],
    # condition_reports passes the spec's normalized lam
    "mu_lambda": lambda: [conditions._twist_relations(MuLambda(1.0, lam).lam, band)
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
    # the exact block_ctilde list, written from its table; the tests in
    # test_conditions.py hold its kernel equal to the oracle's
    "mixed_necessary":
        "b31e43fa2f9a0d210e1772f37caf303614940f0bc14185a2c50fc38e034f2f69",
}

BASIS_TERMS = "91a8e883e22efc6899e9b3801be7c1edf970dc6f496dc2ea4200c549ec33536f"


@pytest.mark.parametrize("name", list(ENUMERATORS))
def test_enumerator_rows_are_pinned(name):
    assert _digest(ENUMERATORS[name]()) == DIGESTS[name]


def test_block_mixed_nullspace_system_is_pinned():
    # the terms of the block_ctilde solution-set basis, bit for bit, at bands
    # 0-12 (written from block_mixed_basis); test_conditions.py checks that
    # the basis spans the list's kernel and the oracle's
    h = hashlib.sha256()
    for band in range(13):
        terms = conditions.block_mixed_basis(band)
        assert terms.dtype == np.int64 and terms.shape[0] == 4
        assert np.unique(terms[0]).tolist() == list(range(2 + 4 * (band // 2)))
        h.update(repr(terms.shape).encode())
        h.update(np.ascontiguousarray(terms).tobytes())
    assert h.hexdigest() == BASIS_TERMS


# --- the evaluator against the per-relation loop ---------------------------


def _reference_read(coeffs, component, index):
    """``component``'s terms, parsed from its name, summed from ``0j``."""
    total = 0j
    for entry, weight, shift in conditions.terms(component):
        total += weight * coeffs[entry].get(index + shift, 0j)
    return total


def _reference_reader(symbol):
    """The per-row reference read of ``symbol``'s sides: block sides summed
    from ``0j`` term by term, scalar sides read directly."""
    coeffs = [entry.coeffs for entry in symbol.entries]
    if isinstance(symbol, MatrixSymbol):
        return lambda component, index: _reference_read(coeffs, component, index)
    return lambda component, index: coeffs[0].get(index, 0j)


def _reference_violations(symbol, table):
    """``(row, lhs, rhs)`` of every violated row of ``table``, read one row
    at a time by :func:`_reference_reader`."""
    value = _reference_reader(symbol)
    norm = math.hypot(*[math.hypot(v.real, v.imag)
                        for entry in symbol.entries for v in entry.coeffs.values()])
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
    # the report is on the scale 2**-exponent; np.ldexp scales it back exactly
    parts = [np.ldexp(part[at], report.exponent).tolist()
             for part in (report.lhs.real, report.lhs.imag, report.rhs.real, report.rhs.imag)]
    lhs, rhs = map(complex, *parts[:2]), map(complex, *parts[2:])
    got = list(zip(_rows(table, at), map(repr, lhs), map(repr, rhs)))
    assert got == expected
    assert report.satisfied == (not expected)
    assert report.table.families == tuple(dict.fromkeys(row[-1] for row in _rows(table)))


@pytest.fixture
def compared(monkeypatch):
    """Route every evaluation through a wrapper that checks it against the
    reference; the list it returns gets each evaluation's violation count."""
    calls = []
    evaluate = conditions.evaluate_relations

    def checked(symbol, table):
        report = evaluate(symbol, table)
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
                        symbol, interchange_sign_relations(p, q, band))
    assert any(compared)


def _filtered(table, keep):
    """The rows of ``table`` where the mask ``keep`` holds, as a table."""
    return RelationTable(table.names, table.components,
                         (table.family[keep], table.vanish[keep], *table.component[:, keep],
                          *table.index[:, keep], table.rhs_scale[keep]))


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
    block = _filtered(full, _in_families(full, lambda name: name.startswith("q21")))
    m = random_matrix_symbol(3, 6, 0.6)
    _assert_same(m, block, evaluate_relations(m, block))
    empty = _filtered(full, np.zeros(len(full), bool))
    assert evaluate_relations(m, empty).satisfied and evaluate_relations(m, empty).table.families == ()


# The report of a symbol wider than its table, with a coefficient at the
# table's read_lo, the index of the padding column that a side with fewer
# terms than the table's widest reads: sha256 of its lhs, rhs and distance
# bytes and its violations as little-endian int64 (the first 16 hex digits),
# its tol and its exponent, and whether it is satisfied.  Written before the
# evaluator read its window from a truncation's scaled coefficients.
PADDING_REPORTS = {
    "reversal:2@6 seed 1": ("70219a6db39223a2", "0x1.f8b7a096f1935p-39", 0, False),
    "reversal:2@6 seed 1 x 1e300": ("6c714b09dc87b46f", "0x1.78d3d27e11dfap-39", 997, False),
    "reversal:2@6 seed 2": ("41876f2ddf9c5b2d", "0x1.000c755546a9ep-38", 0, False),
    "reversal:2@6 seed 2 x 1e300": ("c66e9853530135c3", "0x1.7e5662e1be026p-39", 997, False),
    "block_ctilde@6 seed 3": ("689a9156a4f68d3d", "0x1.de61711831fd3p-38", 0, False),
    "block_c@6 seed 3": ("7b2d1857804cea46", "0x1.de61711831fd3p-38", 0, False),
    "block_ctilde@6 solution": ("c17a53a39e3c5347", "0x1.09526ce1f9735p-39", 2, True),
    "block_c@6 solution": ("6e6fc007df8e073f", "0x1.aba8d9ed65f13p-39", 1, True),
}


def _padding_cases():
    """``(key, symbol, table)``: band-10 draws against the band-6 tables, and
    band-6 solution-set draws with ``1 + 1j`` put on ``phi1`` at the table's
    ``read_lo``, which only the padding column holds."""
    scalar = relation_table(Reversal(2), 6)
    for seed in (1, 2):
        for factor in (1.0, 1e300):
            suffix = "" if factor == 1.0 else " x 1e300"
            symbol = random_symbol(seed, 10, 1.0) * factor
            yield f"reversal:2@6 seed {seed}{suffix}", symbol, scalar
    tables = {"block_ctilde": block_mixed_necessary_relations(6),
              "block_c": block_hadamard_relations(6)}
    for name, table in tables.items():
        yield f"{name}@6 seed 3", random_matrix_symbol(3, 10, 1.0), table
    for name, draw in (("block_ctilde", random_block_mixed_symmetric),
                       ("block_c", random_block_hadamard_symmetric)):
        table = tables[name]
        first, *rest = draw(4, 6, 1.0).entries
        wide = LaurentSymbol({**first.coeffs, table.read_lo: 1 + 1j})
        yield f"{name}@6 solution", MatrixSymbol(wide, *rest), table


def _padding_digest(report):
    h = hashlib.sha256()
    for array in (report.lhs, report.rhs, report.distance):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(np.asarray(report.violations, "<i8").tobytes())
    return h.hexdigest()[:16], report.tol.hex(), report.exponent, report.satisfied


def test_the_padding_column_reads_zero():
    cases = list(_padding_cases())
    assert [key for key, _, _ in cases] == list(PADDING_REPORTS)
    for key, symbol, table in cases:
        assert symbol.bandwidth >= -table.read_lo and symbol.entries[0].coeffs.get(table.read_lo)
        # after a symbol narrower than the window, in a stack
        narrow = random_symbol(0, 3) if len(symbol.entries) == 1 else random_matrix_symbol(0, 3)
        reports = [evaluate_relations(symbol, table),
                   evaluate_relations(truncate(symbol, 2 * symbol.bandwidth + 4), table),
                   conditions.evaluate_stack([narrow, symbol], table)[1]]
        assert [_padding_digest(report) for report in reports] == [PADDING_REPORTS[key]] * 3, key


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
    report = condition_reports(symbol, Reversal(2))
    assert report.satisfied == (not math.hypot(x, y) > 1e-12)
    assert compared == [len(report.violations)]


# --- every row of a table, read by its plan ------------------------------------


def _drawn_entry(rng, lo, hi, density=0.7):
    """Parts uniform in [-1, 1] at each index of ``[lo, hi]`` kept with ``density``."""
    k = np.arange(lo, hi + 1)
    k = k[rng.random(k.size) < density]
    parts = rng.uniform(-1.0, 1.0, (k.size, 2))
    return LaurentSymbol(dict(zip(k.tolist(), map(complex, *parts.T.tolist()))))


def _plan_cases(band, seed):
    """Symbols that a table of ``band`` reads: one-sided, narrower than the
    band, wider than it on both sides, with empty entries, and with signed
    zeros."""
    rng, half, empty = np.random.default_rng(seed), band // 2, LaurentSymbol()
    cases = [MatrixSymbol(*(_drawn_entry(rng, 0, band) for _ in range(4))),
             MatrixSymbol(*(_drawn_entry(rng, -band, 0) for _ in range(4))),
             MatrixSymbol(_drawn_entry(rng, 1, band), _drawn_entry(rng, -band, -1),
                          _drawn_entry(rng, 0, band + 1), _drawn_entry(rng, -band - 1, 0)),
             MatrixSymbol(*(_drawn_entry(rng, -half, half) for _ in range(4))),
             MatrixSymbol(*(_drawn_entry(rng, -band - 3, band + 3, 0.9) for _ in range(4))),
             MatrixSymbol(_drawn_entry(rng, -band, band), empty, _drawn_entry(rng, -half, 0),
                          empty),
             MatrixSymbol(empty, empty, empty, empty)]
    return cases + [_signed_zeros(cases[5])]


def _scalar_plan_cases(band, seed):
    """The scalar symbols that a table of ``band`` reads, as
    :func:`_plan_cases`, with signed zeros on a one-sided, a narrow and a
    wide one: a scalar side is read directly, so each ``-0.0`` part shows."""
    rng, half = np.random.default_rng(seed), band // 2
    cases = [_drawn_entry(rng, 0, band), _drawn_entry(rng, -band, 0),
             _drawn_entry(rng, -half, half), _drawn_entry(rng, -band - 3, band + 3, 0.9),
             LaurentSymbol()]
    return cases + [_signed_zeros(case) for case in cases[1:4]]


def _assert_rows_match_the_reference(symbol, table):
    """Every row's sides, not only the violated ones, ``repr``-equal to the
    per-row reference read."""
    report = evaluate_relations(symbol, table)
    value = _reference_reader(symbol)
    parts = [np.ldexp(part, report.exponent).tolist()
             for part in (report.lhs.real, report.lhs.imag, report.rhs.real, report.rhs.imag)]
    for row, lhs_re, lhs_im, rhs_re, rhs_im in zip(_rows(table), *parts, strict=True):
        kind, lhs_index, rhs_index, lhs_component, rhs_component, scale, _ = row
        assert repr(complex(lhs_re, lhs_im)) == repr(value(lhs_component, lhs_index))
        rhs = 0j if kind == "vanish" else scale * value(rhs_component, rhs_index)
        assert repr(complex(rhs_re, rhs_im)) == repr(rhs)


# each builder of a band, with the cases it reads; the twist tables at the
# spec's normalized lam, whose powers carry signed zeros for lam = -1
PLANNED = {
    "block_hadamard_relations": (block_hadamard_relations, _plan_cases),
    "block_mixed_necessary_relations": (block_mixed_necessary_relations, _plan_cases),
    "mirror_1": (functools.partial(conditions._mirror_conditions, 1), _scalar_plan_cases),
    "mirror_3": (functools.partial(conditions._mirror_conditions, 3), _scalar_plan_cases),
    "twist_-1": (functools.partial(conditions._twist_relations, MuLambda(1.0, -1.0).lam),
                 _scalar_plan_cases),
    "twist_0.6+0.8i": (functools.partial(conditions._twist_relations,
                                         MuLambda(1.0, complex(0.6, 0.8)).lam),
                       _scalar_plan_cases),
}


@pytest.mark.parametrize("name", list(PLANNED))
def test_read_plans_match_the_reference_on_every_row(name):
    relations, cases = PLANNED[name]
    for band in range(41):
        table = relations(band)
        for symbol in cases(band, band):
            _assert_rows_match_the_reference(symbol, table)
            # the table at the symbol's own bandwidth, whose reads the
            # support may not reach on one side
            _assert_rows_match_the_reference(symbol, relations(symbol.bandwidth))


def test_read_plans_are_read_only_and_counted():
    symmetry.PLAN_CACHE.clear()
    table = block_mixed_necessary_relations(40)
    assert table.reads.dtype == np.int32 and not table.reads.flags.writeable
    # terms, sides, rows: four terms, as every left side has four
    assert table.reads.shape == (4, 2, len(table))
    columns = (table.family, table.vanish, table.component, table.index, table.rhs_scale)
    assert symmetry.PLAN_CACHE.nbytes == sum(column.nbytes for column in columns) \
        + table.reads.nbytes
    # a filtered table, outside the cache, gets its own frozen plan
    assert not _filtered(table, table.family == 0).reads.flags.writeable


# --- a verdict and its printed rows do not depend on the symbol's scale ----

# parts on a grid of 1/2 below 2**24: a side's value is exact, so a row's
# distance is 0 or at least 1/2 and far from the tolerance; times 2**k,
# k <= 1000, every part stays finite, but a side that sums parts past 2**24
# would not (the examples: both sides of a row, or its distance, past the
# float range)
_PART = st.integers(1 - 2 ** 25, 2 ** 25 - 1).map(lambda n: n / 2)
_ENTRY = st.dictionaries(st.integers(-4, 4), st.builds(complex, _PART, _PART), max_size=6)
_HIGH, _HIGHER = complex(3 * 2 ** 22), complex(3 * 2 ** 22 + 2 ** 21)


def _printed_rows(symbol, spec):
    """The check report's worst rows, in order, each with its ``over_tol``."""
    worst = _check_report(symbol, run_check(symbol, spec))["condition"]["worst"]
    return [(row["family"], row["lhs"], row["rhs"], row["over_tol"]) for row in worst]


def _assert_scale_free(symbol, spec, k):
    base = condition_reports(symbol, spec)
    scaled = condition_reports(_scaled(symbol, 2.0 ** k), spec)
    assert scaled.satisfied == base.satisfied
    assert scaled.violations_by_family == base.violations_by_family
    # the tolerance's floor, max(1, ||c||_2), is scale-free once every
    # nonzero part is at least 1: the symbol doubled against it times 2**k
    assert _printed_rows(_scaled(symbol, 2.0), spec) == \
        _printed_rows(_scaled(symbol, 2.0 ** max(k, 1)), spec)


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(_ENTRY, min_size=4, max_size=4), k=st.integers(0, 1000),
       spec=st.sampled_from([BlockHadamard(), BlockMixed()]))
@example(entries=[{2: _HIGH, -2: _HIGH}, {2: _HIGH, -2: _HIGHER}, {}, {}], k=1000,
         spec=BlockHadamard())
@example(entries=[{0: _HIGHER}, {-1: -_HIGH}, {}, {0: _HIGH}], k=1000, spec=BlockMixed())
@example(entries=[{2: _HIGHER}, {2: _HIGHER}, {}, {}], k=1000, spec=BlockHadamard())
def test_block_verdict_and_counts_are_scale_free(entries, k, spec):
    _assert_scale_free(MatrixSymbol(*map(LaurentSymbol, entries)), spec, k)


@settings(max_examples=50, deadline=None)
@given(entry=_ENTRY, k=st.integers(0, 1000),
       spec=st.sampled_from([Reversal(2), Transposition(5, 1, 3)]))
@example(entry={1: _HIGHER + 1j * _HIGHER, 2: _HIGH}, k=1000, spec=Reversal(2))
def test_scalar_verdict_counts_and_worst_rows_are_scale_free(entry, k, spec):
    _assert_scale_free(LaurentSymbol(entry), spec, k)


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
        reported = payload["condition"]["violation_count"]
        assert len(payload["condition"]["worst"]) == min(reported, 10)
        if symmetric:
            assert code == 0 and reported == 0
        else:
            assert code == 1 and reported > 0
