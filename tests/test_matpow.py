import ast
import random
from pathlib import Path

import numpy as np
import pytest

from srginv import matpow
from srginv.catalog import paley_graph
from srginv.edgeinv import bar_diag_table
from srginv.matpow import (
    DEFAULT_MODULUS,
    U64_MAX,
    MatrixOverflowError,
    ModularPowerCache,
    PowerCache,
    checked_matmul,
    checked_rowdot,
    half_sum,
    power_cache,
)
from srginv.vertexinv import InvariantMode, NeighborhoodPowerCache

from helpers import TIERS, residue


def random_01_stack(m, k, seed):
    rng = random.Random(seed)
    return np.array(
        [[[rng.randint(0, 1) for _ in range(k)] for _ in range(k)] for _ in range(m)],
        dtype=np.uint8,
    )


def random_symmetric_stack(m, k, seed):
    upper = np.triu(random_01_stack(m, k, seed))
    return upper + np.swapaxes(np.triu(upper, 1), 1, 2)


def exact_power(mat, p):
    return np.linalg.matrix_power(np.asarray(mat).astype(object), p)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13])
def test_powers_match_object_arithmetic(seed, p):
    stack = random_01_stack(3, 5, seed)
    cache = PowerCache(stack)
    got = cache.power(p)
    for i in range(3):
        want = exact_power(stack[i], p)
        assert np.array_equal(got[i].astype(object).astype(int), want.astype(int))


def test_diagonals_and_traces_consistent():
    stack = random_01_stack(4, 6, 99)
    cache = PowerCache(stack)
    for p in (2, 3, 4, 7):
        diags = cache.diagonals(p)
        traces = cache.traces(p)
        for i in range(4):
            want = exact_power(stack[i], p)
            assert diags[i] == tuple(int(want[j, j]) for j in range(6))
            assert traces[i] == sum(diags[i])


def test_int64_range_stays_exact():
    # entries reach 2^59, beyond the float64-exact range but inside int64
    ones = np.ones((1, 2, 2), dtype=np.uint8)
    cache = PowerCache(ones)
    got = cache.power(60)
    assert int(got[0, 0, 0]) == 2**59


def test_object_range_stays_exact_below_u64():
    ones = np.ones((1, 2, 2), dtype=np.uint8)
    cache = PowerCache(ones)
    got = cache.power(64)  # entries 2^63: past int64, still within u64
    assert int(got[0, 0, 0]) == 2**63


def test_overflow_raises():
    big = np.array([[[2**32]]], dtype=object)
    cache = PowerCache(big)
    with pytest.raises(MatrixOverflowError):
        cache.power(2)


def test_overflow_raises_on_u64_boundary():
    just_under = np.array([[[2**32 - 1]]], dtype=object)
    cache = PowerCache(just_under)
    assert int(cache.power(2)[0, 0, 0]) == (2**32 - 1) ** 2  # fits u64
    with pytest.raises(MatrixOverflowError):
        cache.power(4)


def test_exact_base_is_never_rounded_or_wrapped():
    # 2**53 + 1 is the first integer float64 cannot hold
    cache = PowerCache(np.array([[[2**53 + 1]]], dtype=object))
    assert cache.power(1).tolist() == [[[2**53 + 1]]]
    assert cache.diag_array(1).tolist() == [[2**53 + 1]]
    assert cache.traces(1) == [2**53 + 1]
    with pytest.raises(MatrixOverflowError):
        PowerCache(np.array([[[2**70]]], dtype=object)).diag_array(1)


def test_outputs_are_int64_exactly_when_the_values_fit():
    # diag(M^2) runs on the Python-int tier (bound 2 * 2^62 > 2^63 - 1), yet
    # every value, and the trace, fits int64
    cache = PowerCache(np.array([[[2**31, 0], [0, 1]]]))
    diag, trace = cache.diag_array(2), cache.trace_array(2)
    assert diag.dtype == np.int64 and diag.tolist() == [[2**62, 1]]
    assert trace.dtype == np.int64 and trace.tolist() == [2**62 + 1]
    # past int64 they stay Python ints
    cache = PowerCache(np.array([[[2**31, 0], [0, 2**31]]]))
    assert cache.diag_array(2).dtype == np.int64
    assert cache.trace_array(2).dtype == object
    assert cache.traces(2) == [2**63]


def test_only_matpow_decides_how_values_are_held():
    # no other package module fits, converts or branches on a value array's
    # dtype: no fit_int64 import, no ``.dtype == object``, no ndarray test
    def offences(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                yield from (a.name for a in node.names if "fit_int64" in a.name)
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(x, ast.Attribute) and x.attr == "dtype" for x in sides) and any(
                    isinstance(x, ast.Name) and x.id == "object" for x in sides
                ):
                    yield f"dtype comparison at line {node.lineno}"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                if any(getattr(x, "attr", None) == "ndarray" for x in ast.walk(node.args[1])):
                    yield f"ndarray test at line {node.lineno}"

    package = Path(matpow.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "matpow.py")
    assert len(modules) >= 8
    found = {p.name: list(offences(ast.parse(p.read_text()))) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_signed_bases_are_bounded_by_magnitude():
    # bounds from max(a) alone put these products on tiers that cannot hold them
    cache = PowerCache(np.array([[[-(2**31), 1], [1, -(2**31)]]]))
    assert cache.diag_array(2).tolist() == [[2**62 + 1] * 2]
    assert cache.traces(2) == [2**63 + 2]
    with pytest.raises(MatrixOverflowError):
        PowerCache(np.array([[[-(2**40) - 1, 1], [1, 1]]])).diag_array(2)


def test_overflow_raises_via_accumulated_growth():
    ones = np.ones((1, 2, 2), dtype=np.uint8)
    with pytest.raises(MatrixOverflowError):
        PowerCache(ones).power(66)  # entries would be 2^65


def test_checked_matmul_rejects_nothing_small():
    a = np.arange(4, dtype=np.int64).reshape(1, 2, 2)
    got = checked_matmul(a, a)
    assert np.array_equal(got[0].astype(np.int64), a[0] @ a[0])


def test_modular_matches_exact_residues():
    stack = random_01_stack(2, 5, 7)
    mod = ModularPowerCache(stack, DEFAULT_MODULUS)
    for p in (2, 3, 6):
        got = mod.diagonals(p)
        traces = mod.traces(p)
        for i in range(2):
            want = exact_power(stack[i], p)
            want_diag = [int(want[j, j]) for j in range(5)]
            assert got[i] == tuple(residue(x, DEFAULT_MODULUS) for x in want_diag)
            assert traces[i] == residue(sum(want_diag), DEFAULT_MODULUS)


def test_modular_handles_values_past_u64():
    big = np.array([[[2**32]]], dtype=object)
    mod = ModularPowerCache(big, DEFAULT_MODULUS)
    x = (2**32) ** 4
    assert mod.diagonals(4)[0] == (residue(x, DEFAULT_MODULUS),)


def test_power_cache_factory():
    stack = np.ones((1, 2, 2), dtype=np.uint8)
    assert isinstance(power_cache(stack), PowerCache)
    assert isinstance(power_cache(stack, DEFAULT_MODULUS), ModularPowerCache)


def test_moduli_are_61_bit_primes():
    def is_prime(n):
        if n % 2 == 0:
            return False
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    for m in DEFAULT_MODULUS:
        assert m.bit_length() == 61
        assert is_prime(m)
    assert DEFAULT_MODULUS[0] != DEFAULT_MODULUS[1]


def test_invalid_powers_rejected():
    cache = PowerCache(np.ones((1, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        cache.power(0)
    with pytest.raises(ValueError, match="power must be >= 1"):
        cache.diag_array(0)
    with pytest.raises(ValueError):
        PowerCache(np.ones((2, 2), dtype=np.uint8))


def test_u64_max_constant():
    assert U64_MAX == 2**64 - 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_diagonal_kernel_matches_full_power(tier, seed, monkeypatch):
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    signed = random_01_stack(3, 6, 110 + seed).astype(np.int64) * -3 + 1  # entries 1, -2
    for stack in (random_01_stack(3, 6, 100 + seed), signed):
        assert any(not np.array_equal(m, m.T) for m in stack)
        halves, full = PowerCache(stack), PowerCache(stack)
        for p in range(1, 14):
            want = [[int(x) for x in np.diagonal(exact_power(m, p))] for m in stack]
            got = halves.diag_array(p)
            assert got.dtype == np.int64  # every value fits, whatever the tier
            assert got.tolist() == want
            assert np.diagonal(full.power(p), axis1=1, axis2=2).tolist() == want
            assert halves.traces(p) == [sum(row) for row in want]
            assert halves.diagonals(p) == [tuple(row) for row in want]


@pytest.mark.parametrize("modulus", [None, (5, 7), DEFAULT_MODULUS], ids=["exact", "5,7", "61bit"])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_symmetric_kernel_matches_object_powers(tier, modulus, monkeypatch):
    # on the float64 tier odd powers read diag(M^(2h+1)) off M^(2h) and M;
    # the last stack passes int64 at M^2, so the modular engines reduce it
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    sym = random_symmetric_stack(3, 6, 600)
    stacks = [sym, sym.astype(np.int64) * -3 + 1]
    if modulus is not None:
        stacks.append(sym.astype(object) * (2**40 + 7))
    for i, stack in enumerate(stacks):
        cache = PowerCache(stack, modulus)
        for p in range(1, 14):
            want = [[int(x) for x in np.diagonal(exact_power(m, p))] for m in stack]
            got = cache.diag_array(p).tolist()
            assert got == [[residue(x, modulus) for x in row] for row in want]
            assert cache.traces(p) == [residue(sum(row), modulus) for row in want]
        if tier == "float64" and i < 2:
            assert {8, 10, 12} <= cache._pows.keys()


@pytest.mark.parametrize(
    "powers, symmetric, general",
    [(range(2, 6), [1, 2, 4], [1, 2, 3]), (range(3, 10), [1, 2, 3, 4, 8], [1, 2, 3, 4, 5])],
)
def test_odd_powers_square_a_half_power(powers, symmetric, general):
    # a square runs as syrk only on a symmetric base; others keep (h, h + 1)
    for stack, formed in ((random_symmetric_stack(3, 6, 601), symmetric),
                          (random_01_stack(3, 6, 601), general)):
        cache = PowerCache(stack)
        for p in powers:
            cache.diag_array(p)
        assert sorted(cache._pows) == formed


def test_odd_power_keeps_the_split_past_the_square_bound():
    # M^10 of the 8 x 8 ones has entries 8^9: its square's bound 8^19 passes
    # 2^53, while M^10 @ M stays at 8^10, so M^11 is formed instead
    ones = np.ones((1, 8, 8), dtype=np.uint8)
    assert 8 * (8**9) ** 2 > 2**53 >= 8 * 8**9
    cache = PowerCache(ones)
    assert cache.diag_array(21).tolist() == [[8**20] * 8]
    assert sorted(cache._pows) == [1, 2, 4, 5, 10, 11]


@pytest.mark.parametrize("seed", range(3))
def test_modular_diagonal_kernel_matches_residues(seed):
    # the multiplier pushes entries past both primes, so reduction matters
    stack = random_01_stack(3, 6, 200 + seed).astype(object) * (2**40 + 7)
    mod = ModularPowerCache(stack, DEFAULT_MODULUS)
    for p in range(1, 14):
        want = [[int(x) for x in np.diagonal(exact_power(m, p))] for m in stack]
        assert mod.diag_array(p).tolist() == [
            [residue(x, DEFAULT_MODULUS) for x in row] for row in want
        ]
        assert mod.traces(p) == [residue(sum(row), DEFAULT_MODULUS) for row in want]


def test_rowdot_tiers_at_their_bounds():
    def one(x):
        return np.array([[[x]]], dtype=object)

    assert checked_rowdot(one(2**26), one(2**27)).tolist() == [[2**53]]  # float64
    assert checked_rowdot(one(2**31), one(2**31)).tolist() == [[2**62]]  # int64
    big = checked_rowdot(one(2**32 - 1), one(2**32 - 1))  # object, still in u64
    assert big.tolist() == [[(2**32 - 1) ** 2]]
    with pytest.raises(MatrixOverflowError):
        checked_rowdot(one(2**32), one(2**32))


def test_diagonal_overflow_raises_on_u64_boundary():
    cache = PowerCache(np.array([[[2**32 - 1]]], dtype=object))
    assert cache.diag_array(2).tolist() == [[(2**32 - 1) ** 2]]
    with pytest.raises(MatrixOverflowError):
        cache.diag_array(4)


def test_traces_past_int64_stay_exact():
    # each diagonal entry is 2^62 (int64 path); their sum 2^63 is not
    cache = PowerCache(np.ones((1, 2, 2), dtype=np.uint8))
    assert cache.diag_array(63).tolist() == [[2**62, 2**62]]
    assert cache.traces(63) == [2**63]


@pytest.mark.parametrize("modulus", [None, DEFAULT_MODULUS], ids=["exact", "modular"])
def test_kernel_forms_only_half_powers(modulus, matmul_calls):
    g = paley_graph(13)
    bar_diag_table(g, (2, 3, 4, 5), modulus=modulus)
    # B^2 and B^4 of each |E| x |E| orientation block, one block at a time
    assert matmul_calls == [(1, 39, 39)] * 4
    matmul_calls.clear()
    NeighborhoodPowerCache(g, modulus).ensure((3,))
    assert len(matmul_calls) == 1  # the stacked square of the neighborhood matrices


@pytest.mark.parametrize("modulus", [None, (5, 7), DEFAULT_MODULUS])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_half_sum_halves_the_stack_sum(tier, modulus, monkeypatch):
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    # (M + N)^p + (M - N)^p sums the words with an even number of N's, twice
    m, n = random_01_stack(2, 6, 500).astype(np.int64)
    plus, minus = PowerCache((m + n)[None], modulus), PowerCache((m - n)[None], modulus)
    for p in range(1, 12):
        total = np.diagonal(exact_power(m + n, p) + exact_power(m - n, p))
        half, trace = half_sum(plus.diag_array(p)[0], minus.diag_array(p)[0], modulus)
        assert half.dtype == np.int64  # every half fits, whatever the tier
        if modulus is None:
            assert half.tolist() == [int(x) // 2 for x in total]
            assert trace == int(sum(total))
        else:
            assert half.tolist() == [residue(int(x) // 2, modulus) for x in total]
            assert trace == residue(int(sum(total)), modulus)


def test_half_sum_past_int64_stays_exact():
    # each diagonal entry is 2^62 (int64 path); their sum 2^63 is not
    plus, minus = PowerCache(np.ones((2, 2, 2), dtype=np.uint8)).diag_array(63)
    half, trace = half_sum(plus, minus)
    assert half.tolist() == [2**62, 2**62]
    assert trace == 2**64


def test_half_sum_needs_two_matrices_and_odd_primes():
    plus, minus = PowerCache(random_01_stack(2, 4, 1), (2, 3)).diag_array(2)
    with pytest.raises(ValueError):
        half_sum(plus, minus, (2, 3))


def test_modulus_parts_must_be_coprime():
    stack = random_01_stack(1, 3, 0)
    # (4, 6) are not coprime: 0 and 12 agree mod 4 and mod 6, yet differ mod 24
    for modulus in [(4, 4), (1, 5), (4, 6)]:
        with pytest.raises(ValueError, match="two distinct primes"):
            PowerCache(stack, modulus)
    for modulus in [(5, 7), DEFAULT_MODULUS]:
        assert PowerCache(stack, modulus).modulus == modulus


SWITCH_BASES = {
    "ones": np.ones((2, 16, 16), dtype=np.uint8),
    "random01": random_01_stack(3, 9, 300),
    "object2**70": random_01_stack(2, 4, 301).astype(object) * 2**70,
    "negative": random_01_stack(2, 4, 302).astype(np.int64) * -3 + 1,
}


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, (5, 7)], ids=["61bit", "5,7"])
@pytest.mark.parametrize("name", sorted(SWITCH_BASES))
def test_modular_engine_across_the_residue_switch(name, modulus):
    # entries pass the int64 bound mid-recursion (P17 of the 16x16 ones, P30
    # of the 9x9 0/1 stack), so odd powers multiply a reduced power by the
    # exact base and later diagonals dot an exact half power with a reduced
    # one; with (5, 7) the exact values exceed both primes long before that
    stack = SWITCH_BASES[name]
    mod = ModularPowerCache(stack, modulus)
    big = modulus[0] * modulus[1]
    want = [np.asarray(m).astype(object) for m in stack]
    for p in range(1, 61):
        diags = [[int(x) for x in np.diagonal(w)] for w in want]
        assert mod.diag_array(p).tolist() == [[residue(x, modulus) for x in d] for d in diags]
        assert mod.traces(p) == [residue(sum(d), modulus) for d in diags]
        # a power is its exact values, or past int64 Python ints reduced mod
        # p1 * p2; reduced (5, 7) values run exactly on float64 again, so
        # the dtype alone does not say which
        got = mod.power(p)
        values = [int(x) for x in got.ravel().tolist()]
        assert [x % big for x in values] == [x % big for x in np.ravel(want).tolist()]
        if got.dtype == object:
            assert all(0 <= x < big for x in values)
        want = [w @ np.asarray(m).astype(object) for w, m in zip(want, stack)]


def test_modular_engine_takes_the_exact_fast_path(matmul_calls):
    mod = NeighborhoodPowerCache(paley_graph(13), DEFAULT_MODULUS)
    mod.ensure((3,))
    assert len(matmul_calls) == 1  # P2 on the BLAS tier, not two object products
    exact = NeighborhoodPowerCache(paley_graph(13))
    for mode in InvariantMode:
        want = exact.signature_values((3,), mode)
        got = mod.signature_values((3,), mode)
        assert got == [tuple(residue(x, DEFAULT_MODULUS) for x in row) for row in want]
