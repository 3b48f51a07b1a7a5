import hashlib
import importlib
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from toepsym.conjugations import (
    AntilinearOperator,
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
    truncated_matrix,
)
from toepsym.symbols import (
    LaurentSymbol,
    MatrixSymbol,
    parse_symbol,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from toepsym import conditions, symmetry
from toepsym.cli import _check_report, parse_spec_text
from toepsym.conditions import draw_symbol, run_check
from toepsym.symmetry import SYMMETRY_TOL, is_c_symmetric, residual
from toepsym.toeplitz import TruncatedToeplitz, block_truncate, min_truncation, truncate

from solution_sets import symmetric_symbol

ZERO_BLOCK = MatrixSymbol(*[LaurentSymbol()] * 4)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestResidual:
    @pytest.mark.parametrize("spec,size", [(Reversal(2), 8), (MuLambda(1j, -1.0), 8),
                                           (Transposition(4, 1, 3), 8)])
    def test_scalar_multiple_of_identity(self, spec, size):
        t = truncate(LaurentSymbol({0: 0.7 - 1.9j}), size)
        c = truncated_matrix(spec, size)
        assert residual(t, c) <= 1e-14

    def test_block_multiple_of_identity(self):
        c0 = LaurentSymbol({0: 2.5 + 0.5j})
        zero = LaurentSymbol()
        m = MatrixSymbol(c0, zero, zero, c0)
        for spec in (BlockHadamard(), BlockMixed()):
            t = block_truncate(m, 8)
            c = truncated_matrix(spec, 8)
            assert residual(t, c) <= 1e-14

    def test_z_under_pair_reversal_fails_loudly(self):
        t = truncate(parse_symbol("z"), 8)
        c = truncated_matrix(Reversal(2), 8)
        assert residual(t, c) > 0.1

    def test_even_symmetric_symbol_passes(self):
        t = truncate(parse_symbol("z^2 + z^-2"), 8)
        c = truncated_matrix(Reversal(2), 8)
        assert residual(t, c) <= 1e-12

    def test_dimension_mismatch(self):
        t = truncate(parse_symbol("z"), 8)
        c = truncated_matrix(Reversal(2), 10)
        with pytest.raises(ValueError):
            residual(t, c)
        # equal dimensions, but a scalar truncation is not a block operator's
        # partner, nor the reverse
        with pytest.raises(ValueError, match="shape mismatch"):
            residual(t, truncated_matrix(BlockHadamard(), 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            residual(block_truncate(ZERO_BLOCK, 4), truncated_matrix(Reversal(2), 8))


class TestIsCSymmetric:
    def test_zero_symbol_symmetric(self):
        for spec in (Reversal(3), Transposition(4, 0, 2), MuLambda(1.0, 1j)):
            report = is_c_symmetric(LaurentSymbol(), spec)
            assert report.symmetric and report.residual == 0.0

    def test_zero_matrix_symbol_symmetric(self):
        for spec in (BlockHadamard(), BlockMixed()):
            assert is_c_symmetric(ZERO_BLOCK, spec).symmetric

    def test_twist_family_instance(self):
        report = is_c_symmetric(parse_symbol("z + z^-1"), MuLambda(1.0, 1.0))
        assert report.symmetric

    def test_block_diagonal_even_symbol(self):
        s = parse_symbol("z^2 + z^-2")
        zero = LaurentSymbol()
        assert is_c_symmetric(MatrixSymbol(s, zero, zero, s), BlockHadamard()).symmetric

    def test_verdict_matches_tolerance(self):
        report = is_c_symmetric(parse_symbol("z"), Reversal(2))
        assert (report.verdict == "symmetric") == (report.residual <= report.tol)
        assert not report.symmetric

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z"), BlockHadamard())
        with pytest.raises(ValueError):
            is_c_symmetric(ZERO_BLOCK, Reversal(2))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z"), Reversal(2), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN tolerance would turn an exact-zero residual into not_symmetric
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z^2 + z^-2"), Reversal(2), tol=tol)

    def test_explicit_order(self):
        t = truncate(parse_symbol("z^2 + z^-2"), 20)
        assert residual(t, truncated_matrix(Reversal(2), 20)) <= SYMMETRY_TOL

    def test_uses_min_truncation(self):
        report = is_c_symmetric(parse_symbol("z^3"), Reversal(2))
        assert report.order == 14  # 2*3 + 4*2


class TestProperties:
    def test_zero_residual_scale_invariant(self):
        sym = project_to_conditions(random_symbol(8, 6, 0.8), Reversal(3))
        base = is_c_symmetric(sym, Reversal(3))
        scaled = is_c_symmetric((2.7 - 1.3j) * sym, Reversal(3))
        assert base.symmetric and scaled.symmetric

    def test_nonzero_residual_scale_invariant(self):
        sym = random_symbol(9, 5, 0.8)
        base = is_c_symmetric(sym, Reversal(3))
        scaled = is_c_symmetric(5.0 * sym, Reversal(3))
        assert not base.symmetric and not scaled.symmetric

    def test_sum_closure(self):
        spec = Transposition(4, 0, 2)
        a = project_to_conditions(random_symbol(10, 6, 0.8), spec)
        b = project_to_conditions(random_symbol(11, 6, 0.8), spec)
        assert is_c_symmetric(a, spec).symmetric
        assert is_c_symmetric(b, spec).symmetric
        total = {k: a.coeffs.get(k, 0j) + b.coeffs.get(k, 0j) for k in {*a.coeffs, *b.coeffs}}
        assert is_c_symmetric(LaurentSymbol(total), spec).symmetric

    def test_truncation_stability_spot(self):
        for seed in range(10):
            sym = random_symbol(seed, 5, 0.6)
            for spec in (Reversal(2), Transposition(3, 0, 2), MuLambda(1.0, 1j)):
                base = is_c_symmetric(sym, spec)
                n = 2 * base.order
                doubled = residual(truncate(sym, n), truncated_matrix(spec, n))
                assert base.symmetric == (doubled <= SYMMETRY_TOL)

    def test_block_truncation_stability_spot(self):
        for seed in range(6):
            msym = random_matrix_symbol(seed, 4, 0.6)
            for spec in (BlockHadamard(), BlockMixed()):
                base = is_c_symmetric(msym, spec)
                n = 2 * base.order
                doubled = residual(block_truncate(msym, n), truncated_matrix(spec, n))
                assert base.symmetric == (doubled <= SYMMETRY_TOL)


SIX_FAMILIES = [GeneralPermutation(3, (2, 1, 0)), Transposition(5, 1, 3), Reversal(2),
                MuLambda(1j, complex(0.6, 0.8)), BlockHadamard(), BlockMixed()]


def _unscaled_residual(t, c):
    a = c.matrix
    diff = a @ np.conj(t.data) @ np.conj(a) - t.data.conj().T
    return float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(t.data)))


def _truncation(symbol, spec, n):
    return block_truncate(symbol, n) if spec.is_block else truncate(symbol, n)


# the bound perfbench/reference.py holds the residual to: the dense product's
# own BLAS sums are off by up to 3e-13 at band 800
DENSE_BOUND = 1e-12


def _residual_without_scaling(t, c, monkeypatch):
    """The residual's own formula on the unscaled coefficients: ``e = 0``."""
    with monkeypatch.context() as patch:
        patch.setattr(symmetry, "math", SimpleNamespace(
            frexp=lambda x: (0.5, 0), ldexp=math.ldexp, sqrt=math.sqrt))
        return residual(t, c)


class TestScaledResidual:
    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    @pytest.mark.parametrize("band", [6, 50, 200])
    def test_bit_identical_to_unscaled_formula(self, spec, band, monkeypatch):
        # the power-of-two scaling is exact, so the scaled residual is the
        # unscaled one bit for bit; the dense formula, which sums zgemm's
        # products, agrees within DENSE_BOUND
        n = min_truncation(band, spec)
        c = truncated_matrix(spec, n)
        for seed in range(2):
            # factor 1 gives e = 0 or 1, 3e5 gives e up to 19, 1e-3 gives e = 0
            for factor in (1.0, 3e5, 1e-3):
                if spec.is_block:
                    entries = random_matrix_symbol(seed, band, 0.5).entries
                    symbol = MatrixSymbol(*(factor * e for e in entries))
                else:
                    symbol = factor * random_symbol(seed, band, 0.5)
                t = _truncation(symbol, spec, n)
                got, expected = residual(t, c), _unscaled_residual(t, c)
                assert got == _residual_without_scaling(t, c, monkeypatch)
                assert abs(got - expected) <= DENSE_BOUND * max(1.0, expected)

    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    def test_power_of_two_scaling_leaves_residual_unchanged(self, spec):
        # 2**900 overflows the unscaled norms; the scaled residual is exact
        if spec.is_block:
            symbol = random_matrix_symbol(3, 8, 0.7)
            huge = MatrixSymbol(*(2.0**900 * e for e in symbol.entries))
        else:
            symbol = random_symbol(3, 8, 0.7)
            huge = 2.0**900 * symbol
        n = min_truncation(8, spec)
        c = truncated_matrix(spec, n)
        base = residual(_truncation(symbol, spec, n), c)
        assert base > 0.1
        assert residual(_truncation(huge, spec, n), c) == base


PERMUTATION_FAMILIES = {"general", "transposition", "reversal"}


def _generic_symbol(spec, seed, band):
    return random_matrix_symbol(seed, band, 0.5) if spec.is_block else random_symbol(seed, band, 0.5)


def _scaled(symbol, factor):
    if isinstance(symbol, MatrixSymbol):
        return MatrixSymbol(*(factor * e for e in symbol.entries))
    return factor * symbol


class TestStructuredResidual:
    """The coefficient-strip residual against the dense product
    ``A conj(T) conj(A)``."""

    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    @pytest.mark.parametrize("band", [*range(14), 20, 50, 200])
    def test_matches_dense_product(self, spec, band):
        n = min_truncation(band, spec)
        c = truncated_matrix(spec, n)
        for symmetric, base in ((True, symmetric_symbol(spec, 5, band, 0.5)),
                                (False, _generic_symbol(spec, 5, band))):
            # the check's cached plan, cold and then warm, gives the residual
            # of a plan built afresh from the operator, bit for bit
            order = min_truncation(base.bandwidth, spec)
            fresh = residual(_truncation(base, spec, order), truncated_matrix(spec, order))
            symmetry.PLAN_CACHE.clear()
            assert [is_c_symmetric(base, spec).residual for _ in ("cold", "warm")] == [fresh] * 2
            # closed-form symmetric symbols of the permutation families have
            # equal coefficients where the relations say so: exact zero
            exact = symmetric and spec.name in PERMUTATION_FAMILIES
            dense = {f: _unscaled_residual(_truncation(_scaled(base, f), spec, n), c)
                     for f in (1.0, 3e5, 1e-3)}
            # the dense products overflow at 2**900; the scaling is exact, so
            # its reference is the unscaled symbol's
            dense[2.0**900] = dense[1.0]
            for factor, expected in dense.items():
                got = residual(_truncation(_scaled(base, factor), spec, n), c)
                assert abs(got - expected) <= DENSE_BOUND * max(1.0, expected)
                assert got == 0.0 or not exact

    @pytest.mark.parametrize("spec", [*SIX_FAMILIES, MuLambda(complex(0.6, 0.8), 1)],
                             ids=lambda s: s.name)
    def test_plan_weights_are_complex_per_block_or_per_row(self, spec):
        # one weight per grid block where a family's weights are constant on
        # each block, one per row otherwise: only a twist with lam != 1 varies
        plan = symmetry.residual_plan(truncated_matrix(spec, min_truncation(6, spec)), 6)
        per_row = isinstance(spec, MuLambda) and spec.lam != 1
        for weights in (plan.left, plan.right):
            assert weights.dtype == complex and (weights.shape[-1] > 1) == per_row

    def test_check_path_builds_no_dense_operator(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the check path built a dense A or T")
        monkeypatch.setattr(AntilinearOperator, "matrix", property(refuse))
        monkeypatch.setattr(TruncatedToeplitz, "data", property(refuse))
        for spec in SIX_FAMILIES:
            assert is_c_symmetric(symmetric_symbol(spec, 2, 6, 0.5), spec).symmetric
            assert not is_c_symmetric(_generic_symbol(spec, 2, 6), spec).symmetric

    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    def test_check_allocates_less_than_one_dense_array(self, spec):
        # at band 1000 an order x order float array is 32 MB; the strips the
        # residual reads take a few MB
        symbol = _generic_symbol(spec, 2, 1000)
        tracemalloc.start()
        try:
            report = is_c_symmetric(symbol, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.symmetric
        assert peak < 8 * report.order ** 2


# periods whose dense check still fits (order 300 or 500 at band 6); the
# six families at bands 0-13, 20, 50 and 200 are TestStructuredResidual's
LARGE_PERIODS = [Reversal(100), Transposition(60, 0, 1),
                 GeneralPermutation(60, tuple(59 - m if m < 20 or m >= 40 else m
                                              for m in range(60)))]


class TestWindowedPlan:
    """A plan keeps only the cells a symbol of its bandwidth can reach."""

    @pytest.mark.parametrize("spec", LARGE_PERIODS, ids=lambda s: s.name)
    def test_large_periods_match_dense_product(self, spec):
        n = min_truncation(6, spec)
        c = truncated_matrix(spec, n)
        for seed in range(3):
            for base in (symmetric_symbol(spec, seed, 6, 0.5), _generic_symbol(spec, seed, 6)):
                order = min_truncation(base.bandwidth, spec)
                fresh = residual(_truncation(base, spec, order), truncated_matrix(spec, order))
                assert is_c_symmetric(base, spec).residual == fresh
                t = _truncation(base, spec, n)
                expected = _unscaled_residual(t, c)
                assert abs(residual(t, c) - expected) <= DENSE_BOUND * max(1.0, expected)

    @pytest.mark.parametrize("spec", [*SIX_FAMILIES, *LARGE_PERIODS], ids=lambda s: s.name)
    @pytest.mark.parametrize("band", [0, 3, 12, 50])
    def test_twice_the_check_order_matches_dense_product(self, spec, band):
        # the window is the truncation's bandwidth, not the slack in its order
        for base in (symmetric_symbol(spec, 7, band, 0.5), _generic_symbol(spec, 7, band)):
            n = 2 * min_truncation(base.bandwidth, spec)
            t, c = _truncation(base, spec, n), truncated_matrix(spec, n)
            expected = _unscaled_residual(t, c)
            assert abs(residual(t, c) - expected) <= DENSE_BOUND * max(1.0, expected)

    def test_cells_grow_with_the_period_not_its_square(self):
        # reversal:p at band 6, p = 10**2, 10**3, 10**4: orders 500 to 50000,
        # where the whole first block row and column held p * (2n - p) cells
        cells = []
        for p in (100, 1000, 10000):
            spec = Reversal(p)
            n = min_truncation(6, spec)
            c = truncated_matrix(spec, n)
            tracemalloc.start()
            try:
                plan = symmetry.residual_plan(c, 6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            cells.append(plan.repeats.size)
            # the budget's count bounds the plan's, at 224 bytes a cell for g = 1
            assert 224 * plan.repeats.size <= symmetry.residual_bytes(n, spec, 6)
        assert all(9 <= b / a <= 11 for a, b in zip(cells, cells[1:])), cells
        # linear in p * band: about 140 bytes per p * (2 * band + 1), where
        # one int64 per cell of p * order would take 4 GB
        assert peak <= 200 * 10000 * 13, peak

    def test_residuals_refuse_a_truncation_wider_than_the_plan(self):
        spec = Reversal(2)
        n = min_truncation(4, spec)
        plan = symmetry.residual_plan(truncated_matrix(spec, n), 3)
        assert symmetry.residuals([truncate(parse_symbol("z^2 + z^-2"), n)], plan) == [0.0]
        wide = truncate(parse_symbol("z^2 + z^-4"), n)
        with pytest.raises(ValueError, match="bandwidth 4 passes its plan's band 3"):
            symmetry.residuals([wide], plan)
        # an operator is planned for the widest truncation of the stack
        assert residual(wide, truncated_matrix(spec, n)) > 0.1


# each family's residual, by float.hex, on generic and solution-set draws at
# these bands, seeds 0-19; a twist with lam = 1 has one weight, mu,
# throughout, so it takes the per-block path.  Rewritten once when the plans
# came to keep only the cells a symbol's bandwidth reaches, which regroups
# the sums: 491 of the 5,400 values moved, by at most 3.9e-16 * max(1, r),
# each within 1e-12 * max(1, dense) of the dense product, and no verdict moved
PINNED_SPECS = [GeneralPermutation(6, (2, 1, 0, 4, 3, 5)), Transposition(4, 0, 2),
                Transposition(5, 1, 3), Reversal(2), MuLambda(1j, complex(0.6, 0.8)),
                BlockHadamard(), BlockMixed(), MuLambda(complex(0.6, 0.8), 1), MuLambda(1, 1)]
PINNED_BANDS = [0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 23, 30, 39, 200]
RESIDUAL_BITS = "fe274619a88ee860f4cf62b8db9165cd7db4d892b3444d315238ab196806f852"


def test_residuals_are_pinned_bit_for_bit():
    h = hashlib.sha256()
    for spec in PINNED_SPECS:
        for band in PINNED_BANDS:
            for seed in range(20):
                for satisfying in (False, True):
                    symbol = draw_symbol(spec, seed, band, 0.6 if seed % 2 else 1.0, satisfying)
                    h.update(is_c_symmetric(symbol, spec).residual.hex().encode() + b",")
    assert h.hexdigest() == RESIDUAL_BITS


class TestPlanCache:
    def test_cached_arrays_are_read_only(self, monkeypatch):
        plans = []
        def keep(t, plan):
            plans.append(plan)
            return residual(t, plan)
        monkeypatch.setattr(symmetry, "residual", keep)
        is_c_symmetric(random_matrix_symbol(1, 6, 0.5), BlockMixed())
        tables = [conditions._mirror_conditions(2, 6), conditions._twist_relations(1j, 6),
                  conditions.block_hadamard_relations(6),
                  conditions.block_mixed_necessary_relations(6)]
        plan = plans[0]
        arrays = [plan.at, plan.left, plan.right, plan.adjoint, plan.repeats, plan.lengths,
                  *(column for table in tables for column in
                    (table.family, table.vanish, table.component, table.index, table.rhs_scale)),
                  conditions.block_mixed_basis(6)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
        # a second call returns the kept table itself
        assert conditions.block_hadamard_relations(6) is tables[2]

    def test_builders_take_keywords_on_the_positional_key(self, monkeypatch):
        # a builder's signature names its arguments: a keyword call binds
        # them to the positions a positional call keys on, so both share
        # one entry, and a positional call keys as it always has
        keys, get = [], symmetry.PLAN_CACHE.get
        monkeypatch.setattr(symmetry.PLAN_CACHE, "get",
                            lambda key, build: keys.append(key) or get(key, build))
        symmetry.PLAN_CACHE.clear()
        table = conditions.block_hadamard_relations(band=4)
        assert conditions.block_hadamard_relations(4) is table
        assert conditions.block_mixed_basis(band=4) is conditions.block_mixed_basis(4)
        twist = conditions._twist_relations(1j, 3)
        assert conditions._twist_relations(lam=1j, band=3) is twist
        assert conditions._twist_relations(1j, band=3) is twist
        assert len(symmetry.PLAN_CACHE) == 3
        assert keys[:2] == [(conditions.block_hadamard_relations.__wrapped__, "(4,)")] * 2
        assert keys[-1] == (conditions._twist_relations.__wrapped__, "(1j, 3)")
        with pytest.raises(TypeError, match="multiple values for argument 'band'"):
            conditions.block_hadamard_relations(4, band=4)

    def test_specs_of_one_family_keep_their_own_plans(self):
        # both swaps truncate z^3 + 2z^-1 at order 24: a key on the family
        # name would hand the second the first one's plan
        symbol = parse_symbol("z^3 + 2 z^-1")
        for spec in (Transposition(4, 0, 2), Transposition(4, 1, 2)):
            n = is_c_symmetric(symbol, spec).order
            assert is_c_symmetric(symbol, spec).residual == residual(
                truncate(symbol, n), truncated_matrix(spec, n))

    def test_held_bytes_stay_within_the_budget(self):
        symmetry.PLAN_CACHE.clear()
        for band in range(1, 601):
            entry = parse_symbol(f"z^{band} - z^-{band}")
            run_check(MatrixSymbol(entry, entry, entry, entry), BlockHadamard())
            assert symmetry.PLAN_CACHE.nbytes <= symmetry.PLAN_CACHE_BYTES
        # the sweep holds more than the budget, so entries were dropped
        assert 0 < len(symmetry.PLAN_CACHE) < 2 * 600

    def test_an_oracle_wide_round_fits_the_budget(self, monkeypatch):
        # one check per benchmark spec at bands 200 and 800 keeps 28 plans and
        # tables; a second round must find every one of them still kept
        texts = ["general:6:2,1,0,4,3,5", "transposition:4:0:2", "transposition:5:1:3",
                 "reversal:2", "mulambda:0,1:0.6,0.8", "block_c", "block_ctilde"]
        requested, get = set(), symmetry.PLAN_CACHE.get
        monkeypatch.setattr(symmetry.PLAN_CACHE, "get",
                            lambda key, build: requested.add(key) or get(key, build))
        symmetry.PLAN_CACHE.clear()
        for _ in range(2):
            for band in (200, 800):
                for spec in map(parse_spec_text, texts):
                    draw = random_matrix_symbol if spec.is_block else random_symbol
                    run_check(draw(1, band), spec)
        assert len(symmetry.PLAN_CACHE) == len(requested) == 28
        assert symmetry.PLAN_CACHE.nbytes <= symmetry.PLAN_CACHE_BYTES

    def test_real_oracle_wide_rounds_fit_the_budget(self, monkeypatch, tmp_path):
        # the benchmark's own rounds, whose draws reach bandwidths the sweep
        # above does not: by the third, every plan and table is kept
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workload = importlib.import_module("workloads").OracleWide(str(tmp_path))
        builds, get = [], symmetry.PLAN_CACHE.get
        monkeypatch.setattr(symmetry.PLAN_CACHE, "get",
                            lambda key, build: get(key, lambda: builds.append(key) or build()))
        symmetry.PLAN_CACHE.clear()
        for round_index in range(3):
            builds.clear()
            for op in workload.round(11, round_index):
                assert workload.execute(workload.stage(op)) in (0, 1), op.label
        assert builds == []
        assert symmetry.PLAN_CACHE.nbytes <= symmetry.PLAN_CACHE_BYTES

    def test_plan_over_the_budget_is_not_kept(self):
        # the plan at band 13000 holds about 4.4 MiB; 11914 is the last band kept
        spec, band = BlockHadamard(), 13000
        n = min_truncation(band, spec)
        plan = symmetry.residual_plan(truncated_matrix(spec, n), band)
        assert sum(array.nbytes for array in plan[3:]) > symmetry.PLAN_CACHE_BYTES
        entry = parse_symbol(f"z^{band}")
        symmetry.PLAN_CACHE.clear()
        report = is_c_symmetric(MatrixSymbol(entry, entry, entry, entry), spec)
        assert report.order == n
        assert (len(symmetry.PLAN_CACHE), symmetry.PLAN_CACHE.nbytes) == (0, 0)


def test_report_json_shape():
    # the oracle's part of the check report
    symbol = parse_symbol("z^2 + z^-2")
    outcome = run_check(symbol, Reversal(2))
    report, obj = outcome.oracle, _check_report(symbol, outcome)["oracle"]
    assert set(obj) == {"residual", "n", "verdict", "tol", "over_tol"}
    assert (obj["residual"], obj["tol"]) == (report.residual, report.tol)
    assert obj["verdict"] == "symmetric"
    assert obj["n"] == report.order
