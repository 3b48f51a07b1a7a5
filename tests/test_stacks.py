"""Stacked checks against single ones, and a check against its two routes.

``random-test`` and ``explore`` check their draws through
``conditions.check_draws``, in stacks of one bandwidth, one residual and one
table evaluation per stack; ``check`` and the single-symbol functions take
stacks of one.  Each symbol of a stack must get what ``run_check`` gives it
alone, bit for bit, and a command's output must not depend on how its draws
were grouped.  A check reads one truncation's scaled coefficients for both
verdicts, so ``run_check`` must also give what the oracle and the condition
table give when each is run on its own.
"""

import contextlib
import io
import tracemalloc

import pytest

from toepsym import symmetry
from toepsym.cli import main, parse_spec_text
from toepsym.conditions import check_draws, check_stack, condition_reports, draw_symbol, run_check
from toepsym.symbols import LaurentSymbol
from toepsym.toeplitz import min_truncation

SPECS = ["general:6:2,1,0,4,3,5", "transposition:5:1:3", "reversal:2", "mulambda:0,1:0.6,0.8",
         "block_c", "block_ctilde"]
BANDS = [*range(13), 200]


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_same_check(got, oracle, condition, key):
    """``got``, a check's outcome, holds ``oracle`` and ``condition`` bit for
    bit, and their agreement."""
    assert got.oracle.residual.hex() == oracle.residual.hex(), key
    assert (got.oracle.order, got.oracle.verdict, got.oracle.tol) == \
        (oracle.order, oracle.verdict, oracle.tol), key
    assert got.agree == (condition.satisfied == oracle.symmetric), key
    a, b = got.condition, condition
    assert a.table is b.table and a.satisfied == b.satisfied, key
    assert (a.tol.hex(), a.exponent) == (b.tol.hex(), b.exponent), key
    for name in ("lhs", "rhs", "distance", "violations"):
        assert _same_bits(getattr(a, name), getattr(b, name)), (key, name)


def _draws(spec):
    # generic and solution-set draws at density 0.5, so that one call mixes
    # bandwidths and every group ends in a part stack
    return [((band, seed), draw_symbol(spec, seed, band, 0.5, satisfying=seed % 2 == 1))
            for band in BANDS for seed in range(12)]


@pytest.fixture
def stack_sizes(monkeypatch):
    """The length of every stack that reaches ``symmetry.residuals``."""
    sizes, residuals = [], symmetry.residuals

    def count(ts, c):
        sizes.append(len(ts))
        return residuals(ts, c)
    monkeypatch.setattr(symmetry, "residuals", count)
    return sizes


@pytest.mark.parametrize("text", SPECS)
def test_stacked_checks_equal_single_ones(text, stack_sizes):
    spec = parse_spec_text(text)
    draws = _draws(spec)
    keys = []
    for key, symbol, stacked in check_draws(spec, iter(draws)):
        keys.append(key)
        single = run_check(symbol, spec)
        _assert_same_check(stacked, single.oracle, single.condition, key)
    assert sorted(keys) == sorted(key for key, _ in draws)
    assert max(stack_sizes) > 1


@pytest.mark.parametrize("text", SPECS)
def test_a_check_equals_its_routes_run_apart(text):
    # the oracle truncates the symbol at its check order, the table route at
    # one past its bandwidth: each reads its own scaled coefficients
    spec = parse_spec_text(text)
    for key, symbol in _draws(spec):
        _assert_same_check(run_check(symbol, spec), symmetry.is_c_symmetric(symbol, spec),
                           condition_reports(symbol, spec), key)


def test_a_stack_holds_one_bandwidth_under_its_cap():
    spec = parse_spec_text("reversal:2")
    with pytest.raises(ValueError, match="one bandwidth, not 1 and 2"):
        check_stack([LaurentSymbol({1: 1}), LaurentSymbol({2: 1})], spec)
    symbols = [LaurentSymbol({2: 1})] * (symmetry.stack_size(2, spec) + 1)
    order = min_truncation(2, spec)
    with pytest.raises(ValueError, match=f"{len(symbols)} truncations of order {order} passes"):
        check_stack(symbols, spec)
    assert [o.oracle.residual for o in check_stack(symbols[1:], spec)] == \
        [run_check(symbols[0], spec).oracle.residual] * (len(symbols) - 1)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", [
    ["explore", "--spec", "block_ctilde", "--band", "8", "--trials", "10", "--seed", "3"],
    ["random-test", "--spec", "block_ctilde", "--band", "8", "--trials", "40", "--seed", "2"],
    ["random-test", "--spec", "reversal:2", "--band", "8", "--trials", "40", "--seed", "2",
     "--mode", "random"],
], ids=["explore", "random-test-block", "random-test-scalar"])
def test_output_does_not_depend_on_the_stacks(argv, monkeypatch, stack_sizes):
    spec, band = parse_spec_text(argv[2]), 8
    need = symmetry.residual_bytes(min_truncation(band, spec), spec, band)
    expected = _run(argv)
    assert expected[0] == 0 and max(stack_sizes) > 3
    # a budget of two residuals, then a cap of three, splits each group
    for budget, cap, most in ((2 * need, symmetry.STACK_BYTES, 2),
                              (symmetry.RESIDUAL_BUDGET_BYTES, 3 * need, 3)):
        monkeypatch.setattr(symmetry, "RESIDUAL_BUDGET_BYTES", budget)
        monkeypatch.setattr(symmetry, "STACK_BYTES", cap)
        stack_sizes.clear()
        assert _run(argv) == expected
        assert max(stack_sizes) == most and stack_sizes.count(most) > 1


@pytest.mark.parametrize("argv", [
    ["random-test", "--spec", "block_c", "--band", "2000", "--density", "1", "--mode", "satisfying"],
    ["random-test", "--spec", "reversal:2", "--band", "20000", "--density", "1", "--mode", "random"],
    ["explore", "--spec", "block_ctilde", "--band", "2000"],
], ids=["random-test-block", "random-test-scalar", "explore"])
def test_large_band_peak_does_not_grow_with_the_trials(argv, stack_sizes):
    # one bandwidth whose residual passes the cap: stacks of one, and no
    # draw, check or report held through the next one's.  From the second
    # trial on, the cached plan and table stay through each draw
    peaks = []
    for trials in ("2", "6"):
        symmetry.PLAN_CACHE.clear()
        tracemalloc.start()
        try:
            code, _ = _run([*argv, "--trials", trials])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert set(stack_sizes) == {1}
    assert peaks[1] <= peaks[0] + (64 << 10), peaks
