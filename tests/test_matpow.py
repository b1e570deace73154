import random

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
    power_cache,
)
from srginv.vertexinv import NeighborhoodPowerCache


def random_01_stack(m, k, seed):
    rng = random.Random(seed)
    return np.array(
        [[[rng.randint(0, 1) for _ in range(k)] for _ in range(k)] for _ in range(m)],
        dtype=np.uint8,
    )


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
    p1, p2 = DEFAULT_MODULUS
    for p in (2, 3, 6):
        got = mod.diagonals(p)
        traces = mod.traces(p)
        for i in range(2):
            want = exact_power(stack[i], p)
            want_diag = [int(want[j, j]) for j in range(5)]
            assert got[i] == tuple((x % p1) * p2 + (x % p2) for x in want_diag)
            t = sum(want_diag)
            assert traces[i] == (t % p1) * p2 + (t % p2)


def test_modular_handles_values_past_u64():
    big = np.array([[[2**32]]], dtype=object)
    mod = ModularPowerCache(big, DEFAULT_MODULUS)
    p1, p2 = DEFAULT_MODULUS
    x = (2**32) ** 4
    assert mod.diagonals(4)[0] == ((x % p1) * p2 + (x % p2),)


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
    with pytest.raises(ValueError):
        PowerCache(np.ones((2, 2), dtype=np.uint8))


def test_u64_max_constant():
    assert U64_MAX == 2**64 - 1


# thresholds lowered so one small stack runs every arithmetic path
TIERS = {
    "float64": {},
    "int64": {"_FLOAT_SAFE": 0},
    "object": {"_FLOAT_SAFE": 0, "_INT64_SAFE": 0},
}


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
            assert got.dtype == (object if tier == "object" and p > 1 else np.int64)
            assert got.tolist() == want
            assert np.diagonal(full.power(p), axis1=1, axis2=2).tolist() == want
            assert halves.traces(p) == [sum(row) for row in want]
            assert halves.diagonals(p) == [tuple(row) for row in want]


@pytest.mark.parametrize("seed", range(3))
def test_modular_diagonal_kernel_matches_encoded_residues(seed):
    # the multiplier pushes entries past both primes, so reduction matters
    stack = random_01_stack(3, 6, 200 + seed).astype(object) * (2**40 + 7)
    mod = ModularPowerCache(stack, DEFAULT_MODULUS)
    p1, p2 = DEFAULT_MODULUS
    for p in range(1, 14):
        want = [[int(x) for x in np.diagonal(exact_power(m, p))] for m in stack]
        assert mod.diag_array(p).tolist() == [
            [(x % p1) * p2 + x % p2 for x in row] for row in want
        ]
        assert mod.traces(p) == [(sum(row) % p1) * p2 + sum(row) % p2 for row in want]


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
    assert len(matmul_calls) == 2  # B^2 and B^3
    matmul_calls.clear()
    NeighborhoodPowerCache(g, modulus).trace(3)
    assert len(matmul_calls) == 1  # the stacked square of the neighborhood matrices


def encoded(x, modulus):
    return (x % modulus[0]) * modulus[1] + x % modulus[1]


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
        assert mod.diag_array(p).tolist() == [[encoded(x, modulus) for x in d] for d in diags]
        assert mod.traces(p) == [encoded(sum(d), modulus) for d in diags]
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
    mod.trace(3)
    assert len(matmul_calls) == 1  # P2 on the BLAS tier, not two object products
    exact = NeighborhoodPowerCache(paley_graph(13))
    assert mod.diag(3) == [tuple(encoded(x, DEFAULT_MODULUS) for x in row) for row in exact.diag(3)]
    assert mod.trace(3) == [encoded(t, DEFAULT_MODULUS) for t in exact.trace(3)]
