"""Exact integer matrix powers and their diagonals, checked or mod-reduced.

Every invariant in this package is a diagonal, or a trace, of a power of
a small integer matrix. Diagonals never form the full power: with
``h = p // 2``,

    diag(M^p)[i] = sum_j (M^h)[i, j] * (M^(p-h))[j, i],

which holds for any square matrix, so only the half powers are formed
(powers 3..9 need M^2..M^5; powers 2..5 need M^2 and M^3) and the
diagonal is their row dot product.

One rule places every value, bounded by magnitude: a product or row dot
product with bound ``inner * max|a| * max|b|`` <= 2**53 runs in float64
(BLAS path), one <= 2**63 - 1 in int64, and a base is placed by its
largest magnitude, so it is never rounded. Past int64 the modulus decides:

* exact mode (``modulus=None``): values become Python ints, and a
  half-power entry or diagonal value past the unsigned 64-bit range in
  magnitude raises :class:`MatrixOverflowError` (off-diagonal entries of
  the full power are never formed, so they are not checked); output is
  the raw values.
* modular mode, primes ``(p1, p2)``: values become Python ints reduced mod
  ``p1 * p2``, which hold exactly the residues mod each prime (Chinese
  remainder theorem): valid isomorphism invariants with collision
  probability about 2**-122 per value, output as
  ``(x mod p1) * p2 + x mod p2``. An exact value gives the same output, so
  where the switch happened never shows.
"""

from __future__ import annotations

import operator

import numpy as np

U64_MAX = 2**64 - 1
_FLOAT_SAFE = 2**53
_INT64_SAFE = 2**63 - 1
# what each format holds exactly; tests lower the two product thresholds
# above to force every tier, which must not move a base's own entries
_FORMAT_LIMITS = (_FLOAT_SAFE, _INT64_SAFE)

# Two fixed 61-bit primes (2^61 - 1 and 2^61 - 31) for the modular fallback.
DEFAULT_MODULUS = (2305843009213693951, 2305843009213693921)


class MatrixOverflowError(OverflowError):
    """An entry of a matrix power left the unsigned 64-bit range."""


def check_powers(powers, minimum: int = 1) -> tuple[int, ...]:
    """A power list as a tuple of Python ints: nonempty, strictly ascending,
    every entry an integer >= ``minimum``.

    Entries go through ``operator.index``, so numpy integers pass while
    bool, float and str entries raise ValueError like any other bad list.
    """
    out = []
    for p in powers:
        try:
            if isinstance(p, bool):
                raise TypeError
            out.append(operator.index(p))
        except TypeError:
            raise ValueError(f"powers must be integers, got {p!r}") from None
    if not out:
        raise ValueError("power list must be nonempty")
    if out[0] < minimum:
        raise ValueError(f"powers must be >= {minimum}, got {out[0]}")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError(f"powers must be strictly ascending, got {tuple(out)}")
    return tuple(out)


def _entry_max(m: np.ndarray) -> int:
    """The largest magnitude in ``m`` (min and max, not a copy through abs)."""
    return 0 if m.size == 0 else max(int(m.max()), -int(m.min()))


def _tier(bound: int, limits: tuple[int, int] | None = None):
    """The cheapest dtype in which integers of magnitude up to ``bound``, and
    sums of magnitude up to it, are exact: float64, int64 or object (Python
    ints). ``limits`` default to the product thresholds."""
    float_safe, int64_safe = limits or (_FLOAT_SAFE, _INT64_SAFE)
    if bound <= float_safe:
        return np.float64
    if bound <= int64_safe:
        return np.int64
    return object


def _product_tier(a: np.ndarray, b: np.ndarray):
    """The tier of ``a @ b`` and of its row dot products."""
    amax = _entry_max(a)
    return _tier(a.shape[-1] * amax * (amax if b is a else _entry_max(b)))


def _as(m: np.ndarray, dtype) -> np.ndarray:
    if m.dtype == dtype:
        return m
    if dtype is object and m.dtype == np.float64:
        m = m.astype(np.int64)  # Python ints, not Python floats
    return m.astype(dtype)


def _check_u64(m: np.ndarray, what: str) -> np.ndarray:
    if m.dtype == object and _entry_max(m) > U64_MAX:
        raise MatrixOverflowError(
            f"matrix power {what} exceeds the unsigned 64-bit range; retry in modular mode"
        )
    return m


def _diagonal_values(d: np.ndarray) -> np.ndarray:
    """Exact diagonal values as int64, or as Python ints past int64."""
    return _check_u64(d, "diagonal") if d.dtype == object else d.astype(np.int64)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``diag(a @ b)`` of each stacked matrix, in the dtype of ``a`` and ``b``."""
    bt = np.swapaxes(b, -1, -2)
    if a.dtype == object:  # einsum takes object arrays only from numpy 1.25 on
        return (a * bt).sum(axis=-1)
    return np.einsum("...ij,...ij->...i", a, bt)


def _row_sums(d: np.ndarray) -> np.ndarray:
    """Exact sums over the last axis of an int64 or object array."""
    if _tier(d.shape[-1] * _entry_max(d)) is object:
        d = _as(d, object)
    return d.sum(axis=-1)


def checked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer matrices (2-d or stacked 3-d).

    Raises MatrixOverflowError if any entry of the product would exceed
    U64_MAX in magnitude. The result dtype varies (float64 / int64 /
    object) but the values are always exact integers.
    """
    dtype = _product_tier(a, b)
    return _check_u64(_as(a, dtype) @ _as(b, dtype), "entry")


def checked_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact diagonal of ``a @ b`` without forming the product.

    ``out[..., i] = sum_j a[..., i, j] * b[..., j, i]`` for integer
    matrices (2-d or stacked 3-d). The bound and the float64 / int64 /
    object tiers are those of :func:`checked_matmul`; a diagonal value of
    magnitude above U64_MAX raises MatrixOverflowError. The result is
    int64, or object when the bound passes the int64 range.
    """
    dtype = _product_tier(a, b)
    return _diagonal_values(_rowdot(_as(a, dtype), _as(b, dtype)))


class PowerCache:
    """Cached powers of a (m, k, k) stack of square integer matrices, and
    their diagonals and traces.

    ``power(p)`` squares repeatedly, with one extra multiply for odd
    exponents; it returns exact values, or in modular mode past int64
    values reduced mod ``p1 * p2``. ``diag_array(p)`` forms only the half
    powers. Exact (m, k) diagonals and (m,) traces are int64, or object
    past int64; modular ones are object arrays of
    ``(x mod p1) * p2 + (x mod p2)``, so a trace still equals the encoded
    sum of its true diagonal.
    """

    def __init__(self, base: np.ndarray, modulus: tuple[int, int] | None = None):
        base = np.asarray(base)
        if base.ndim != 3 or base.shape[-1] != base.shape[-2]:
            raise ValueError(f"expected a (m, k, k) stack, got shape {base.shape}")
        if modulus is not None:
            p1, p2 = modulus
            if p1 <= 1 or p2 <= 1 or p1 == p2:
                raise ValueError(f"modulus must be two distinct primes > 1, got {modulus}")
            modulus = (int(p1), int(p2))
        self.modulus = modulus
        self._pows = {1: self._lift(base)}
        self._diags: dict = {}

    def _reduced(self, m: np.ndarray) -> np.ndarray:
        p1, p2 = self.modulus
        return _as(m, object) % (p1 * p2)

    def _lift(self, base: np.ndarray) -> np.ndarray:
        dtype = _tier(_entry_max(base), _FORMAT_LIMITS)
        if dtype is object and self.modulus is not None:
            return self._reduced(base)
        return _as(base, dtype)

    def _combine(self, checked, raw, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``checked(a, b)`` on exact values; in modular mode past int64,
        ``raw`` on Python ints, reduced mod ``p1 * p2``."""
        if self.modulus is None or _product_tier(a, b) is not object:
            return checked(a, b)
        return self._reduced(raw(_as(a, object), _as(b, object)))

    def power(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError(f"power must be >= 1, got {p}")
        got = self._pows.get(p)
        if got is None:
            if p % 2 == 0:
                a = b = self.power(p // 2)
            else:
                a, b = self.power(p - 1), self._pows[1]
            got = self._pows[p] = self._combine(checked_matmul, np.matmul, a, b)
        return got

    def _diag(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError(f"power must be >= 1, got {p}")
        got = self._diags.get(p)
        if got is None:
            h = p // 2
            if h:
                got = self._combine(checked_rowdot, _rowdot, self.power(h), self.power(p - h))
            else:
                got = np.diagonal(self._pows[1], axis1=-2, axis2=-1)
                if self.modulus is None or got.dtype != object:  # reduced ones may pass u64
                    got = _diagonal_values(got)
            self._diags[p] = got
        return got

    def _report(self, x: np.ndarray) -> np.ndarray:
        if self.modulus is None:
            return x
        p1, p2 = self.modulus
        x = _as(x, object)  # Python ints: the encoding would wrap in int64
        return (x % p1) * p2 + x % p2

    def diag_array(self, p: int) -> np.ndarray:
        return self._report(self._diag(p))

    def trace_array(self, p: int) -> np.ndarray:
        return self._report(_row_sums(self._diag(p)))

    def diagonals(self, p: int) -> list[tuple[int, ...]]:
        """Unsorted diagonal of the p-th power, one tuple per stacked matrix."""
        return [tuple(row) for row in self.diag_array(p).tolist()]

    def traces(self, p: int) -> list[int]:
        return self.trace_array(p).tolist()


class ModularPowerCache(PowerCache):
    """A :class:`PowerCache` whose modulus defaults to DEFAULT_MODULUS; its
    own class so that ``bench/tracing.py`` times modular powers apart."""

    def __init__(self, base: np.ndarray, modulus: tuple[int, int] = DEFAULT_MODULUS):
        super().__init__(base, modulus)


def power_cache(base: np.ndarray, modulus: tuple[int, int] | None = None) -> PowerCache:
    """Engine factory: exact checked arithmetic, or dual-prime modular."""
    if modulus is None:
        return PowerCache(base)
    return ModularPowerCache(base, modulus)
