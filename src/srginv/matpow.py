"""Exact integer matrix powers and their diagonals, checked or mod-reduced.

Every invariant in this package is a diagonal, or a trace, of a power of
a small integer matrix. Diagonals never form the full power: with
``h = p // 2``,

    diag(M^p)[i] = sum_j (M^h)[i, j] * (M^(p-h))[j, i],

which holds for any square matrix, so only the half powers are formed
and the diagonal is their row dot product. An odd ``p = 2h + 1`` on a
symmetric base, with M^h formed and M^(h+1) not, reads its diagonal as
the row dot of M^(2h) and M instead: M^(2h) is the syrk square of M^h,
half the flops of the product M^h @ M. That happens only while the
square's bound ``k * max|M^h|**2`` is <= 2**53: it then runs in float64,
its values are exact, and no entry of it can overflow. Requested in
order, powers 2..5 of a symmetric base form M^2 and M^4 (M^2 and M^3 on
a general one), and powers 3..9 form M^2, M^3, M^4 and M^8 (M^2..M^5).

One rule places every value, bounded by magnitude: a product or row dot
product with bound ``inner * max|a| * max|b|`` <= 2**53 runs in float64
(BLAS path), one <= 2**63 - 1 in int64, and a base is placed by its
largest magnitude, so it is never rounded. :class:`PowerCache` scans each
power's magnitude once, when the power is formed, and hands it to every
product and row dot that reads the power. A symmetric base (every bar
block and neighbourhood stack is one) has symmetric powers, so a square
runs as ``a @ a.T`` (BLAS syrk, half the flops) and a row dot reads its
second operand untransposed. Past int64 the modulus decides:

* exact mode (``modulus=None``): values become Python ints, and a
  half-power entry or diagonal value past the unsigned 64-bit range in
  magnitude raises :class:`MatrixOverflowError` (off-diagonal entries of
  the full power are never formed, so they are not checked); output is
  the raw values.
* modular mode, primes ``(p1, p2)``: values become Python ints reduced mod
  ``p1 * p2``, which hold exactly the residues mod each prime (Chinese
  remainder theorem): valid isomorphism invariants with collision
  probability about 2**-122 per value. Output is the residue in
  ``[0, p1 * p2)``, which is the exact value whenever that is non-negative
  and below ``p1 * p2``, so where the switch happened never shows and
  modular output equals exact output wherever both exist.

Every diagonal, trace and half sum returned here is int64 exactly when each
of its values fits, else an object array of Python ints, whatever tier
formed it. Only this module decides that, and it builds the keys the
ladder compares: :func:`sorted_rows` and :func:`sorted_values`.
"""

from __future__ import annotations

import math
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


def _product_tier(a: np.ndarray, b: np.ndarray, amax: int | None, bmax: int | None):
    """The tier of ``a @ b`` and of its row dot products; a magnitude not
    given is scanned."""
    amax = _entry_max(a) if amax is None else amax
    bmax = _entry_max(b) if bmax is None else bmax
    return _tier(a.shape[-1] * amax * bmax)


def _as(m: np.ndarray, dtype) -> np.ndarray:
    if m.dtype == dtype:
        return m
    if dtype is object and m.dtype == np.float64:
        m = m.astype(np.int64)  # Python ints, not Python floats
    return m.astype(dtype)


def _fit_int64(x: np.ndarray) -> np.ndarray:
    """Values as int64 when every one fits, else as object: the
    representation follows from the values, not from the tier."""
    if x.dtype == object and _entry_max(x) <= _FORMAT_LIMITS[1]:
        return x.astype(np.int64)
    return x


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


def checked_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    amax: int | None = None,
    bmax: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact product of integer matrices (2-d or stacked 3-d).

    Raises MatrixOverflowError if any entry of the product would exceed
    U64_MAX in magnitude. The result dtype varies (float64 / int64 /
    object) but the values are always exact integers. ``amax`` and
    ``bmax``, the largest magnitudes of ``a`` and ``b`` when the caller
    knows them, spare a scan; a float64 product is written into ``out``
    when it is given and has the product's shape.
    """
    dtype = _product_tier(a, b, amax, bmax)
    a, b = _as(a, dtype), _as(b, dtype)
    if dtype is np.float64 and out is not None and out.shape == a.shape[:-1] + b.shape[-1:]:
        return np.matmul(a, b, out=out)
    return _check_u64(a @ b, "entry")


def checked_rowdot(
    a: np.ndarray, b: np.ndarray, *, amax: int | None = None, bmax: int | None = None
) -> np.ndarray:
    """Exact diagonal of ``a @ b`` without forming the product.

    ``out[..., i] = sum_j a[..., i, j] * b[..., j, i]`` for integer
    matrices (2-d or stacked 3-d). The bound, the magnitudes and the
    float64 / int64 / object tiers are those of :func:`checked_matmul`; a
    diagonal value of magnitude above U64_MAX raises MatrixOverflowError.
    The result is int64, or object when the bound passes the int64 range.
    """
    dtype = _product_tier(a, b, amax, bmax)
    return _diagonal_values(_rowdot(_as(a, dtype), _as(b, dtype)))


class PowerCache:
    """Cached powers of a (m, k, k) stack of square integer matrices, and
    their diagonals and traces.

    ``power(p)`` squares repeatedly, with one extra multiply for odd
    exponents; it returns exact values, or in modular mode past int64
    values reduced mod ``p1 * p2``. ``diag_array(p)`` forms only the half
    powers, and for an odd p = 2h + 1 on a symmetric base M^(2h) in place
    of a missing M^(h+1) while that square stays on float64 (see the
    module docstring). The (m, k) diagonals and (m,) traces are exact
    values, or in modular mode the residues mod ``p1 * p2``, the exact
    value below it; either way int64 exactly when every value fits, else
    object. A modular trace is the residue of the sum of its true diagonal.

    ``buffers`` are float64 arrays of the base's shape that the float64
    base and powers are written into, as far as they last. ``power`` may
    return one of them; no diagonal or trace is one, so a caller that
    keeps only those may reuse the buffers once the cache is dropped.
    """

    def __init__(
        self,
        base: np.ndarray,
        modulus: tuple[int, int] | None = None,
        *,
        buffers=(),
    ):
        base = np.asarray(base)
        if base.ndim != 3 or base.shape[-1] != base.shape[-2]:
            raise ValueError(f"expected a (m, k, k) stack, got shape {base.shape}")
        if modulus is not None:
            p1, p2 = modulus
            if p1 <= 1 or p2 <= 1 or math.gcd(p1, p2) != 1:
                raise ValueError(f"modulus must be two distinct primes > 1, got {modulus}")
            modulus = (int(p1), int(p2))
        self.modulus = modulus
        self._spare = list(buffers)
        # every power of a symmetric base is symmetric, so b may stand for b.T
        self._symmetric = np.array_equal(base, np.swapaxes(base, -1, -2))
        self._pows: dict[int, np.ndarray] = {}
        self._max: dict[int, int] = {}  # largest magnitude, scanned once per power
        self._lift(base)
        self._diags: dict = {}

    def _reduced(self, m: np.ndarray) -> np.ndarray:
        p1, p2 = self.modulus
        return _as(m, object) % (p1 * p2)

    def _lift(self, base: np.ndarray) -> None:
        bound = _entry_max(base)
        dtype = _tier(bound, _FORMAT_LIMITS)
        if dtype is object and self.modulus is not None:
            base = self._reduced(base)
            bound = _entry_max(base)
        elif dtype is np.float64 and self._spare and base.dtype != np.float64:
            buf = self._spare.pop()
            np.copyto(buf, base)
            base = buf
        self._pows[1], self._max[1] = _as(base, dtype), bound

    def _combine(self, checked, raw, i: int, j: int, **kwargs) -> np.ndarray:
        """``checked`` on powers ``i`` and ``j`` with their magnitudes; in
        modular mode past int64, ``raw`` on Python ints, reduced mod
        ``p1 * p2``. On a symmetric base ``j`` is passed transposed, the
        same matrix: a square then runs as BLAS syrk, and a row dot reads
        ``j`` in place."""
        a, b, amax, bmax = self._pows[i], self._pows[j], self._max[i], self._max[j]
        if self._symmetric:
            b = np.swapaxes(b, -1, -2)
        if self.modulus is not None and _tier(a.shape[-1] * amax * bmax) is object:
            return self._reduced(raw(_as(a, object), _as(b, object)))
        return checked(a, b, amax=amax, bmax=bmax, **kwargs)

    def _squares_exactly(self, h: int) -> bool:
        """Whether the square of power ``h`` runs as syrk in float64."""
        bound = self._pows[h].shape[-1] * self._max[h] ** 2
        return self._symmetric and _tier(bound) is np.float64

    def power(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError(f"power must be >= 1, got {p}")
        got = self._pows.get(p)
        if got is None:
            i = p // 2 if p % 2 == 0 else p - 1
            self.power(i)
            out = self._spare[-1] if self._spare else None
            got = self._combine(checked_matmul, np.matmul, i, p - i, out=out)
            if out is not None and got is out:
                self._spare.pop()
            self._pows[p], self._max[p] = got, _entry_max(got)
        return got

    def _diag(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError(f"power must be >= 1, got {p}")
        got = self._diags.get(p)
        if got is None:
            h = p // 2
            if h:
                i, j = h, p - h
                self.power(h)
                if j not in self._pows and self._squares_exactly(h):
                    i, j = 2 * h, 1  # odd p: M^(2h) by syrk, not M^(h+1)
                self.power(i), self.power(j)
                got = self._combine(checked_rowdot, _rowdot, i, j)
            else:
                got = np.diagonal(self._pows[1], axis1=-2, axis2=-1)
                if self.modulus is None or got.dtype != object:  # reduced ones may pass u64
                    got = _diagonal_values(got)
            self._diags[p] = got
        return got

    def _residues(self, x: np.ndarray) -> np.ndarray:
        """Exact values as they are; modular ones in ``[0, p1 * p2)``."""
        if self.modulus is None:
            return x
        n = self.modulus[0] * self.modulus[1]
        if x.dtype == object or n <= _FORMAT_LIMITS[1]:
            return x % n
        return x if x.size == 0 or x.min() >= 0 else _as(x, object) % n

    def diag_array(self, p: int) -> np.ndarray:
        return _fit_int64(self._residues(self._diag(p)))

    def trace_array(self, p: int) -> np.ndarray:
        return _fit_int64(self._residues(_row_sums(self._diag(p))))

    def diagonals(self, p: int) -> list[tuple[int, ...]]:
        """Unsorted diagonal of the p-th power, one tuple per stacked matrix."""
        return [tuple(row) for row in self.diag_array(p).tolist()]

    def traces(self, p: int) -> list[int]:
        return self.trace_array(p).tolist()


def half_sum(plus, minus, modulus: tuple[int, int] | None = None) -> tuple[np.ndarray, int]:
    """Halves of the entrywise sum of two (k,) diagonals, and the trace of
    that sum, from diagonals as :meth:`PowerCache.diag_array` reports them
    under ``modulus``.

    Every entrywise sum must be even. Exact sums halve exactly; in modular
    mode a sum of residues is multiplied by the inverse of 2 mod
    ``p1 * p2``, which needs odd primes, and the trace is its residue. The
    halves are int64 when every one fits, else an object array.
    """
    total = _row_sums(np.stack((plus, minus), axis=-1))
    trace = _row_sums(total[None]).tolist()[0]
    if modulus is None:
        return _fit_int64(total // 2), trace
    n = modulus[0] * modulus[1]
    if n % 2 == 0:
        raise ValueError(f"halving mod {n} needs odd primes")
    return _fit_int64(_as(total, object) * pow(2, -1, n) % n), trace % n


def sorted_rows(table: np.ndarray) -> tuple[np.ndarray, object]:
    """A non-negative 2-d table with its rows in lexicographic order, and a
    hashable key of them: int64 rows sort as big-endian byte records, whose
    byte order is the numeric one (that of ``np.lexsort``) at a fraction of
    its cost, keyed by shape and bytes; Python-int rows sort as tuples."""
    if table.dtype == object:
        rows = table.tolist()
        order = sorted(range(len(rows)), key=rows.__getitem__)
        return table[order], tuple(tuple(rows[i]) for i in order)
    if len(table) > 1:
        record = np.dtype((np.void, 8 * table.shape[1]))
        records = np.ascontiguousarray(table, dtype=">i8").view(record).ravel()
        table = np.sort(records).view(">i8").reshape(table.shape)
    return table, (table.shape, table.tobytes())


def sorted_values(values: np.ndarray):
    """Sorted values as int64 bytes, or as a tuple of Python ints past int64."""
    values = np.sort(values)
    return tuple(values.tolist()) if values.dtype == object else values.tobytes()


class ModularPowerCache(PowerCache):
    """A :class:`PowerCache` whose modulus defaults to DEFAULT_MODULUS; its
    own class so that ``bench/tracing.py`` times modular powers apart."""

    def __init__(
        self, base: np.ndarray, modulus: tuple[int, int] = DEFAULT_MODULUS, *, buffers=()
    ):
        super().__init__(base, modulus, buffers=buffers)


def power_cache(
    base: np.ndarray, modulus: tuple[int, int] | None = None, *, buffers=()
) -> PowerCache:
    """Engine factory: exact checked arithmetic, or dual-prime modular."""
    if modulus is None:
        return PowerCache(base, buffers=buffers)
    return ModularPowerCache(base, modulus, buffers=buffers)
