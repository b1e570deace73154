import ast
import functools
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
    keyed_rows,
    per_power,
    power_cache,
    row_order,
    traces,
)
from srginv.vertexinv import InvariantMode, NeighborhoodPowerCache

from helpers import TIERS, residue, sorted_rows


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
    stack = random_symmetric_stack(3, 5, seed)
    cache = PowerCache(stack)
    got = cache.power(p)
    for i in range(3):
        want = exact_power(stack[i], p)
        assert np.array_equal(got[i].astype(object).astype(int), want.astype(int))


def test_diagonals_and_traces_consistent():
    stack = random_symmetric_stack(4, 6, 99)
    cache = PowerCache(stack)
    for p in (2, 3, 4, 7):
        got = cache.diag_arrays((p,))
        diags, sums = got[0].tolist(), traces(got)[0].tolist()
        for i in range(4):
            want = exact_power(stack[i], p)
            assert diags[i] == [int(want[j, j]) for j in range(6)]
            assert sums[i] == sum(diags[i])


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
    assert cache.diag_arrays((1,))[0].tolist() == [[2**53 + 1]]
    assert traces(cache.diag_arrays((1,)))[0].tolist() == [2**53 + 1]
    with pytest.raises(MatrixOverflowError):
        PowerCache(np.array([[[2**70]]], dtype=object)).diag_arrays((1,))


def test_outputs_are_int64_exactly_when_the_values_fit():
    # diag(M^2) runs on the Python-int tier (bound 2 * 2^62 > 2^63 - 1), yet
    # every value, and the trace, fits int64
    cache = PowerCache(np.array([[[2**31, 0], [0, 1]]]))
    diags = cache.diag_arrays((2,))
    diag, trace = diags[0], traces(diags)[0]
    assert diag.dtype == np.int64 and diag.tolist() == [[2**62, 1]]
    assert trace.dtype == np.int64 and trace.tolist() == [2**62 + 1]
    # past int64 they stay Python ints
    diags = PowerCache(np.array([[[2**31, 0], [0, 2**31]]])).diag_arrays((2,))
    assert diags[0].dtype == np.int64
    assert traces(diags)[0].dtype == object
    assert traces(diags)[0].tolist() == [2**63]


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
    diags = cache.diag_arrays((2,))
    assert diags[0].tolist() == [[2**62 + 1] * 2]
    assert traces(diags)[0].tolist() == [2**63 + 2]
    with pytest.raises(MatrixOverflowError):
        PowerCache(np.array([[[-(2**40) - 1, 1], [1, 1]]])).diag_arrays((2,))


def test_overflow_raises_via_accumulated_growth():
    ones = np.ones((1, 2, 2), dtype=np.uint8)
    with pytest.raises(MatrixOverflowError):
        PowerCache(ones).power(66)  # entries would be 2^65


def test_checked_matmul_rejects_nothing_small():
    a = np.arange(4, dtype=np.int64).reshape(1, 2, 2)
    got = checked_matmul(a, a)
    assert np.array_equal(got[0].astype(np.int64), a[0] @ a[0])


def test_modular_matches_exact_residues():
    stack = random_symmetric_stack(2, 5, 7)
    mod = ModularPowerCache(stack, DEFAULT_MODULUS)
    for p in (2, 3, 6):
        diags = mod.diag_arrays((p,))
        got, sums = diags[0].tolist(), traces(diags, DEFAULT_MODULUS)[0].tolist()
        for i in range(2):
            want = exact_power(stack[i], p)
            want_diag = [int(want[j, j]) for j in range(5)]
            assert got[i] == [residue(x, DEFAULT_MODULUS) for x in want_diag]
            assert sums[i] == residue(sum(want_diag), DEFAULT_MODULUS)


def test_modular_handles_values_past_u64():
    big = np.array([[[2**32]]], dtype=object)
    mod = ModularPowerCache(big, DEFAULT_MODULUS)
    x = (2**32) ** 4
    assert mod.diag_arrays((4,))[0].tolist() == [[residue(x, DEFAULT_MODULUS)]]


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
        cache.diag_arrays((0,))
    with pytest.raises(ValueError):
        PowerCache(np.ones((2, 2), dtype=np.uint8))


def test_diag_arrays_reads_its_powers_once():
    stack = random_symmetric_stack(2, 5, 3)
    got = PowerCache(stack).diag_arrays(p for p in (2, 3))
    assert got.tolist() == PowerCache(stack).diag_arrays((2, 3)).tolist()
    with pytest.raises(ValueError, match="power list must be nonempty"):
        PowerCache(stack).diag_arrays([])


def test_u64_max_constant():
    assert U64_MAX == 2**64 - 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_diagonal_kernel_matches_full_power(tier, seed, monkeypatch):
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    signed = random_symmetric_stack(3, 6, 110 + seed).astype(np.int64) * -3 + 1  # entries 1, -2
    for stack in (random_symmetric_stack(3, 6, 100 + seed), signed):
        halves, full = PowerCache(stack), PowerCache(stack)
        for p in range(1, 14):
            want = [[int(x) for x in np.diagonal(exact_power(m, p))] for m in stack]
            diags = halves.diag_arrays((p,))
            got = diags[0]
            assert got.dtype == np.int64  # every value fits, whatever the tier
            assert got.tolist() == want
            assert np.diagonal(full.power(p), axis1=1, axis2=2).tolist() == want
            assert traces(diags)[0].tolist() == [sum(row) for row in want]


@pytest.mark.parametrize("modulus", [None, (5, 7), DEFAULT_MODULUS], ids=["exact", "5,7", "61bit"])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_symmetric_kernel_matches_object_powers(tier, modulus, monkeypatch):
    # on the float tiers odd powers read diag(M^(2h+1)) off M^(2h) and M;
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
            diags = cache.diag_arrays((p,))
            assert diags[0].tolist() == [[residue(x, modulus) for x in row] for row in want]
            assert traces(diags, modulus)[0].tolist() == [
                residue(sum(row), modulus) for row in want
            ]
        if tier in ("float32", "float64") and i < 2:
            assert {8, 10, 12} <= cache._pows.keys()


@pytest.mark.parametrize(
    "powers, formed", [(range(2, 6), [1, 2, 4]), (range(3, 10), [1, 2, 3, 4, 8])]
)
def test_odd_powers_square_a_half_power(powers, formed):
    cache = PowerCache(random_symmetric_stack(3, 6, 601))
    for p in powers:
        cache.diag_arrays((p,))
    assert sorted(cache._pows) == formed


def test_odd_power_keeps_the_split_past_the_square_bound():
    # M^10 of the 8 x 8 ones has entries 8^9: its square's bound 8^19 passes
    # 2^53, while M^10 @ M stays at 8^10, so M^11 is formed instead
    ones = np.ones((1, 8, 8), dtype=np.uint8)
    assert 8 * (8**9) ** 2 > 2**53 >= 8 * 8**9
    cache = PowerCache(ones)
    assert cache.diag_arrays((21,))[0].tolist() == [[8**20] * 8]
    assert sorted(cache._pows) == [1, 2, 4, 5, 10, 11]


@pytest.mark.parametrize("seed", range(3))
def test_modular_diagonal_kernel_matches_residues(seed):
    # the multiplier pushes entries past both primes, so reduction matters
    stack = random_symmetric_stack(3, 6, 200 + seed).astype(object) * (2**40 + 7)
    mod = ModularPowerCache(stack, DEFAULT_MODULUS)
    for p in range(1, 14):
        want = [[int(x) for x in np.diagonal(exact_power(m, p))] for m in stack]
        diags = mod.diag_arrays((p,))
        assert diags[0].tolist() == [[residue(x, DEFAULT_MODULUS) for x in row] for row in want]
        assert traces(diags, DEFAULT_MODULUS)[0].tolist() == [
            residue(sum(row), DEFAULT_MODULUS) for row in want
        ]


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
    assert cache.diag_arrays((2,))[0].tolist() == [[(2**32 - 1) ** 2]]
    with pytest.raises(MatrixOverflowError):
        cache.diag_arrays((4,))


def test_traces_past_int64_stay_exact():
    # each diagonal entry is 2^62 (int64 path); their sum 2^63 is not
    cache = PowerCache(np.ones((1, 2, 2), dtype=np.uint8))
    diags = cache.diag_arrays((63,))
    assert diags[0].tolist() == [[2**62, 2**62]]
    assert traces(diags)[0].tolist() == [2**63]


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
    m, n = random_symmetric_stack(2, 6, 500).astype(np.int64)
    plus, minus = PowerCache((m + n)[None], modulus), PowerCache((m - n)[None], modulus)
    for p in range(1, 12):
        total = np.diagonal(exact_power(m + n, p) + exact_power(m - n, p))
        half, trace = half_sum(
            plus.diag_arrays((p,))[0, 0], minus.diag_arrays((p,))[0, 0], modulus
        )
        assert half.dtype == np.int64  # every half fits, whatever the tier
        if modulus is None:
            assert half.tolist() == [int(x) // 2 for x in total]
            assert trace == int(sum(total))
        else:
            assert half.tolist() == [residue(int(x) // 2, modulus) for x in total]
            assert trace == residue(int(sum(total)), modulus)


def test_half_sum_halves_a_stack_of_powers():
    # one call halves every power: traces nest as the leading axis
    m, n = random_symmetric_stack(2, 6, 501).astype(np.int64)
    plus, minus = PowerCache((m + n)[None]), PowerCache((m - n)[None])
    powers = (2, 3, 4, 5)
    halves, traces = half_sum(plus.diag_arrays(powers)[:, 0], minus.diag_arrays(powers)[:, 0])
    for p, half, trace in zip(powers, halves, traces):
        want = half_sum(plus.diag_arrays((p,))[0, 0], minus.diag_arrays((p,))[0, 0])
        assert half.tolist() == want[0].tolist() and trace == want[1]


def test_half_sum_past_int64_stays_exact():
    # each diagonal entry is 2^62 (int64 path); their sum 2^63 is not
    plus, minus = PowerCache(np.ones((2, 2, 2), dtype=np.uint8)).diag_arrays((63,))[0]
    half, trace = half_sum(plus, minus)
    assert half.tolist() == [2**62, 2**62]
    assert trace == 2**64


def test_half_sum_needs_two_matrices_and_odd_primes():
    plus, minus = PowerCache(random_symmetric_stack(2, 4, 1), (2, 3)).diag_arrays((2,))[0]
    with pytest.raises(ValueError):
        half_sum(plus, minus, (2, 3))


def test_modulus_parts_must_be_coprime():
    stack = random_symmetric_stack(1, 3, 0)
    # (4, 6) are not coprime: 0 and 12 agree mod 4 and mod 6, yet differ mod 24
    for modulus in [(4, 4), (1, 5), (4, 6)]:
        with pytest.raises(ValueError, match="two distinct primes"):
            PowerCache(stack, modulus)
    for modulus in [(5, 7), DEFAULT_MODULUS]:
        assert PowerCache(stack, modulus).modulus == modulus


def test_leading_columns_key_as_a_fresh_sort():
    # the last column passes 2^63, so the table holds Python ints; its
    # leading columns fit, and in the whole table's row order they must key
    # as the int64 bytes a sort of them alone gives, or two graphs that
    # agree on them could split early
    table = np.array(
        [[3, 1, 2**63], [1, 5, 7], [3, 0, 2**64 - 1], [1, 5, 2], [0, 9, 2**63 + 1]], dtype=object
    )
    rows, key = sorted_rows(table)
    assert rows.dtype == object and type(key) is tuple
    assert keyed_rows(table[row_order(table)])[1] == key
    for n in (1, 2, len(table)):
        order = row_order(table[:n])
        for width in (1, 2):
            fresh = table[:n, :width].astype(np.int64)
            got, want = keyed_rows(table[:n][order, :width]), sorted_rows(fresh)
            assert got[0].dtype != object and type(got[1][1]) is bytes
            assert got[1] == want[1]
            assert got[0].tolist() == want[0].tolist()
            # the key follows the values: Python ints that fit key as int64
            assert sorted_rows(fresh.astype(object))[1] == want[1]


def test_each_power_of_a_stack_is_int64_when_it_fits():
    # diag(M^2) passes 2^63, so the stack of powers 1 and 2 holds Python
    # ints; split per power, power 1 is int64 again
    cache = PowerCache(np.array([[[2**32 - 1]]], dtype=object))
    stack = cache.diag_arrays((1, 2))
    assert stack.dtype == object
    one, two = per_power(stack)
    assert one.dtype == np.int64 and one.tolist() == [[2**32 - 1]]
    assert two.dtype == object and two.tolist() == [[(2**32 - 1) ** 2]]
    halves, traces = half_sum(stack[:, 0], stack[:, 0])
    assert [h.dtype for h in per_power(halves)] == [np.int64, object]
    assert traces == [2 * (2**32 - 1), 2 * (2**32 - 1) ** 2]


def test_diagonals_are_read_off_formed_powers(monkeypatch):
    # powers 2..5 of a symmetric base form M^2 and M^4 for the odd powers,
    # so only diag(M^3) and diag(M^5) take a row dot; 3..9 form M^2, M^3,
    # M^4 and M^8, so 5, 6, 7 and 9 do
    rowdots = []
    real = matpow.checked_rowdot

    def recording(a, b, **kwargs):
        rowdots.append(a.shape)
        return real(a, b, **kwargs)

    monkeypatch.setattr(matpow, "checked_rowdot", recording)
    for powers, dots in ((range(2, 6), 2), (range(3, 10), 4)):
        stack = random_symmetric_stack(3, 6, 602)
        rowdots.clear()
        got = PowerCache(stack).diag_arrays(powers)
        assert len(rowdots) == dots
        want = object_diagonals(stack, 9)
        assert got.tolist() == [want[p] for p in powers]
        rowdots.clear()
        one = PowerCache(stack)  # one power at a time reads off only M^1
        assert [one.diag_arrays((p,))[0].tolist() for p in powers] == [want[p] for p in powers]
        assert len(rowdots) == len(powers)


@pytest.mark.parametrize("modulus", [(5, 7), DEFAULT_MODULUS], ids=["5,7", "61bit"])
def test_modular_diagonals_read_off_reduced_powers(modulus):
    # entries pass int64 at M^2, so the formed powers hold reduced Python
    # ints (small enough for float64 again under (5, 7)); under the 61-bit
    # primes they pass u64, and diagonals read off them skip the u64 check
    stack = random_symmetric_stack(2, 5, 603).astype(object) * (2**40 + 7)
    cache = PowerCache(stack, modulus)
    want = object_diagonals(stack, 9)
    powers = tuple(range(2, 10))
    diags = cache.diag_arrays(powers)
    assert diags.tolist() == [
        [[residue(x, modulus) for x in row] for row in want[p]] for p in powers
    ]
    assert traces(diags, modulus).tolist() == [
        [residue(sum(row), modulus) for row in want[p]] for p in powers
    ]
    if modulus == DEFAULT_MODULUS:
        assert sorted(cache._pows) == [1, 2, 3, 4, 5]  # diag 2..5 read off them
        assert max(diags[powers.index(4)].ravel()) > U64_MAX


SWITCH_BASES = {
    "ones": np.ones((2, 16, 16), dtype=np.uint8),
    "random01": random_symmetric_stack(3, 9, 300),
    "object2**70": random_symmetric_stack(2, 4, 301).astype(object) * 2**70,
    "negative": random_symmetric_stack(2, 4, 302).astype(np.int64) * -3 + 1,
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
        got = mod.diag_arrays((p,))
        assert got[0].tolist() == [[residue(x, modulus) for x in d] for d in diags]
        assert traces(got, modulus)[0].tolist() == [residue(sum(d), modulus) for d in diags]
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


SYRK_ORDER = matpow._SYRK_ORDER  # read before a test lowers it


def object_diagonals(stack, top: int) -> dict[int, list[list[int]]]:
    """diag(M^p) of each stacked matrix for p = 1..top, from Python-int powers."""
    base = [np.asarray(m).astype(object) for m in stack]
    want, power = {}, base
    for p in range(1, top + 1):
        want[p] = [[int(x) for x in np.diagonal(w)] for w in power]
        power = [w @ m for w, m in zip(power, base)]
    return want


def test_float32_tier_at_its_bound():
    # from the syrk order on, a bound of 2^24 runs in float32 and one past it
    # in float64; 2^24 + 769 is odd, so float32 could not hold it
    k = SYRK_ORDER
    assert k == 2**7
    a, b = np.ones((k, k), dtype=np.int64), np.ones((k, k), dtype=np.int64)
    a[0], b[:, 0] = 2**8, 2**9
    for got in (checked_matmul(a, b), checked_rowdot(a, b)):
        assert got.ravel()[0] == 2**24 == k * 2**8 * 2**9
    assert checked_matmul(a, b).dtype == np.float32
    a[0, -1], b[-1, 0] = 2**8 + 1, 2**9 + 1
    assert float(np.float32(2**24 + 769)) != 2**24 + 769
    for got in (checked_matmul(a, b), checked_rowdot(a, b)):
        assert got.ravel()[0] == 2**24 + 769
    assert checked_matmul(a, b).dtype == np.float64
    # one order below, the same bound runs in float64
    assert checked_matmul(a[1:, 1:], b[1:, 1:]).dtype == np.float64


@pytest.mark.parametrize("order", [SYRK_ORDER - 1, SYRK_ORDER],
                         ids=["gemm", "syrk"])
def test_kernel_by_order_matches_object_powers(order, monkeypatch):
    # below the syrk order products run as float64 gemm on contiguous
    # operands; from it on a square runs as syrk, a @ a.T, in float32 while
    # its bound is <= 2^24 (all but M^8 here), and the powers keep that dtype
    products = []
    real = matpow.checked_matmul

    def recording(a, b, **kwargs):
        products.append((a, b))
        return real(a, b, **kwargs)

    monkeypatch.setattr(matpow, "checked_matmul", recording)
    stack = random_symmetric_stack(1, order, 700)
    want = object_diagonals(stack, 9)
    cache = PowerCache(stack)
    for p in range(1, 10):
        diags = cache.diag_arrays((p,))
        assert diags[0].tolist() == want[p]
        assert traces(diags)[0].tolist() == [sum(row) for row in want[p]]
    assert sorted(cache._pows) == [1, 2, 3, 4, 8]
    syrk = order >= SYRK_ORDER
    # formed in the order M^2, M^4, M^3 = M^2 M, M^8; on a symmetric base
    # the syrk order passes the second operand as a transposed view
    assert [np.shares_memory(a, b) for a, b in products] == [True, True, False, True]
    assert all(b.flags.c_contiguous is not syrk for _, b in products)
    dtypes = [cache._pows[p].dtype for p in (1, 2, 3, 4, 8)]
    assert dtypes == ([np.float32] * 4 if syrk else [np.float64] * 4) + [np.float64]


@functools.cache
def boundary_case(edge: int):
    """A symmetric (1, 128, 128) matrix, random 0/1 with row and column 0
    set to ``edge`` so that (M^2)[0, 0] is the square's bound 128 * edge^2,
    and its diagonals up to power 8 (the oracle takes about a second)."""
    stack = random_symmetric_stack(1, SYRK_ORDER, 701).astype(np.int64)
    stack[0, 0, :] = stack[0, :, 0] = edge
    return stack, object_diagonals(stack, 8)


@pytest.mark.parametrize("modulus", [None, (5, 7), DEFAULT_MODULUS], ids=["exact", "5,7", "61bit"])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_large_order_tiers_match_object_powers(tier, modulus, monkeypatch):
    # 128 * 362^2 = 16773632 <= 2^24 < 128 * 363^2: at the syrk order the
    # first square is a float32 product that reaches its bound, the second a
    # float64 one; every forced tier matches the Python-int powers (exact
    # values pass u64 at power 6, reduced ones do not)
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    top = 5 if modulus is None else 8
    for edge, square in ((362, np.float32), (363, np.float64)):
        stack, want = boundary_case(edge)
        assert (SYRK_ORDER * edge**2 <= 2**24) is (square is np.float32)
        assert want[2][0][0] == SYRK_ORDER * edge**2
        cache = PowerCache(stack, modulus)
        for p in range(1, top + 1):
            diags = cache.diag_arrays((p,))
            assert diags[0].tolist() == [[residue(x, modulus) for x in want[p][0]]]
            assert traces(diags, modulus)[0].tolist() == [residue(sum(want[p][0]), modulus)]
        if tier == "float32":
            assert cache._pows[2].dtype == square
        else:
            assert all(m.dtype != np.float32 for m in cache._pows.values())
