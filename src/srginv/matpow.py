"""Exact integer matrix powers and their diagonals, checked or mod-reduced.

Every invariant in this package is a diagonal, or a trace, of a power of
a small symmetric integer matrix, ``A|N_a`` or a bar block ``B± = S ± W``.
The engine takes only such matrices, so each power stands for its own
transpose. Diagonals never form the full power: with ``h = p // 2``,

    diag(M^p)[i] = sum_j (M^h)[i, j] * (M^(p-h))[j, i],

so only the half powers are formed and the diagonal is their row dot
product. An odd ``p = 2h + 1``, with M^h formed and M^(h+1) not, reads
its diagonal as the row dot of M^(2h) and M instead: M^(2h) is the
square of M^h, as syrk half the flops of the product M^h @ M. That
happens only while the square's bound ``k * max|M^h|**2`` is <= 2**53:
it then runs in float32 or float64, its values are exact, and no entry
of it can overflow. Requested in order, powers 2..5 form M^2 and M^4,
and powers 3..9 form M^2, M^3, M^4 and M^8. :meth:`PowerCache.diag_arrays`
is the one read: it forms every half power first, then reads the
diagonal of a formed power off it, so there is no row dot for diag(M^2)
and diag(M^4) of powers 2..5, or M^3, M^4 and M^8. Traces, vertex and
edge alike, are summed from those diagonals by :func:`traces`.

One rule places every value, bounded by magnitude: a product or row dot
product with bound ``inner * max|a| * max|b|`` <= 2**53 runs in float64
(BLAS path), one <= 2**63 - 1 in int64, and a base is placed by its
largest magnitude, so it is never rounded. From order ``_SYRK_ORDER``
(128) on, a bound <= 2**24 runs in float32 instead, exact by the same
argument: every partial sum is an integer of magnitude at most the
bound. Each power is stored in the dtype it was formed in, and a base of
that order whose square runs in float32 is lifted into float32; a row
dot of float32 operands past 2**24 sums them in float64 without
converted copies. :class:`PowerCache` scans each power's magnitude once,
when the power is formed, and hands it to every product and row dot that
reads the power.

The product kernel follows the matrix order. Below ``_SYRK_ORDER`` a
product runs as gemm on contiguous operands, the fastest kernel for the
call-bound small stacks; from it on a square runs as ``a @ a.T`` (BLAS
syrk, half the flops). At any order a row dot reads its second operand
untransposed, in place. Past int64 the modulus decides:

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
formed it, and so is each power of a stack :func:`per_power` splits. Only
this module decides that, and it builds the keys the ladder compares from
the values, not the dtype: :func:`row_order` with :func:`keyed_rows`, and
:func:`sorted_values`.
"""

from __future__ import annotations

import math
import operator

import numpy as np

U64_MAX = 2**64 - 1
_FLOAT32_SAFE = 2**24
_FLOAT_SAFE = 2**53
_INT64_SAFE = 2**63 - 1
# what each format holds exactly; tests lower the product thresholds above
# to force every tier, which must not move a base's own entries
_FORMAT_LIMITS = (_FLOAT_SAFE, _INT64_SAFE)
# The order from which a square runs as syrk, and a product with bound
# <= 2**24 in float32. Medians of np.matmul(a, b, out=), one BLAS thread,
# gemm against the syrk view, in microseconds: (25,12,12) 4.0 vs 10.1,
# (36,15,15) 14.5 vs 42.7, (64,21,21) 28.4 vs 73.2, (1,96,96) 22.1 vs
# 26.9, (1,128,128) 73.2 vs 68.4, (1,270,270) 740 vs 382; float32 syrk
# took (1,270,270) to 234. Smaller stacks are call-bound and stay float64.
_SYRK_ORDER = 128

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
    """The tier of ``a @ b`` and of its row dot products: float32 from
    order ``_SYRK_ORDER`` on while the bound is <= 2**24, else
    :func:`_tier`; a magnitude not given is scanned."""
    amax = _entry_max(a) if amax is None else amax
    bmax = _entry_max(b) if bmax is None else bmax
    bound = a.shape[-1] * amax * bmax
    if a.shape[-1] >= _SYRK_ORDER and bound <= _FLOAT32_SAFE:
        return np.float32
    return _tier(bound)


def _as(m: np.ndarray, dtype) -> np.ndarray:
    if m.dtype == dtype:
        return m
    if dtype is object and m.dtype.kind == "f":
        m = m.astype(np.int64)  # Python ints, not Python floats
    return m.astype(dtype)


def lift_dtype(base: np.ndarray, bound: int | None = None):
    """The dtype :class:`PowerCache` holds ``base`` in: float32 when its
    square runs there, else the cheapest format that holds every entry
    (float64, int64 or object). ``bound``, its largest magnitude when the
    caller knows it, spares a scan."""
    bound = _entry_max(base) if bound is None else bound
    if _product_tier(base, base, bound, bound) is np.float32:
        return np.float32
    return _tier(bound, _FORMAT_LIMITS)


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


def _rowdot(a: np.ndarray, b: np.ndarray, dtype=None) -> np.ndarray:
    """``diag(a @ b)`` of each stacked matrix, summed in ``dtype``, by
    default that of ``a`` and ``b``."""
    return np.einsum("...ij,...ji->...i", a, b, dtype=dtype)


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
    U64_MAX in magnitude. The result dtype varies (float32 from order
    ``_SYRK_ORDER`` on, float64, int64, object) but the values are always
    exact integers. ``amax`` and ``bmax``, the largest magnitudes of ``a``
    and ``b`` when the caller knows them, spare a scan; the product is
    written into ``out`` when it is given and has the product's dtype and
    shape.
    """
    dtype = _product_tier(a, b, amax, bmax)
    a, b = _as(a, dtype), _as(b, dtype)
    if out is not None and out.dtype == dtype and out.shape == a.shape[:-1] + b.shape[-1:]:
        return np.matmul(a, b, out=out)
    return _check_u64(a @ b, "entry")


def checked_rowdot(
    a: np.ndarray, b: np.ndarray, *, amax: int | None = None, bmax: int | None = None
) -> np.ndarray:
    """Exact diagonal of ``a @ b`` without forming the product.

    ``out[..., i] = sum_j a[..., i, j] * b[..., j, i]`` for integer
    matrices (2-d or stacked 3-d). The bound, the magnitudes and the tiers
    are those of :func:`checked_matmul`; float operands on the float64 tier
    are summed in float64 as they are, with no converted copy. A diagonal
    value of magnitude above U64_MAX raises MatrixOverflowError. The
    result is int64, or object when the bound passes the int64 range.
    """
    dtype = _product_tier(a, b, amax, bmax)
    if dtype is np.float64 and a.dtype.kind == b.dtype.kind == "f":
        return _diagonal_values(_rowdot(a, b, np.float64))
    return _diagonal_values(_rowdot(_as(a, dtype), _as(b, dtype)))


class PowerCache:
    """Cached powers of a (m, k, k) stack of symmetric integer matrices, and
    their diagonals.

    Each power stands for its own transpose, unchecked. ``power(p)``
    squares repeatedly, with one extra multiply for odd exponents; it
    returns exact values, or in modular mode past int64 values reduced
    mod ``p1 * p2``. ``diag_arrays(powers)`` forms only the half powers,
    and for an odd p = 2h + 1 M^(2h) in place of a missing M^(h+1) while
    that square's bound is <= 2**53 (see the module docstring), all before
    any diagonal; a formed power's diagonal is read off it (a reduced one
    without the u64 check, as for the base). Each power is stored in the
    dtype it was formed in: float32 for a product of order
    ``_SYRK_ORDER`` or more with bound <= 2**24, else float64 up to 2**53,
    then int64 and object. The (len(powers), m, k) diagonals are exact
    values, or in modular mode the residues mod ``p1 * p2``, the exact
    value below it; either way int64 exactly when every value fits, else
    object. :func:`traces` sums them.

    ``buffers`` are arrays of the base's shape that the base and powers of
    their dtype (:func:`lift_dtype` gives the base's) are written into, as
    far as they last. ``power`` may return one of them; no diagonal is
    one, so a caller that keeps only those may reuse the buffers once the
    cache is dropped.
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
        self._pows: dict[int, np.ndarray] = {}
        self._max: dict[int, int] = {}  # largest magnitude, scanned once per power
        self._lift(base)

    def _reduced(self, m: np.ndarray) -> np.ndarray:
        p1, p2 = self.modulus
        return _as(m, object) % (p1 * p2)

    def _lift(self, base: np.ndarray) -> None:
        bound = _entry_max(base)
        dtype = lift_dtype(base, bound)
        if dtype is object and self.modulus is not None:
            base = self._reduced(base)
            bound = _entry_max(base)
        elif self._spare and self._spare[-1].dtype == dtype and base.dtype != dtype:
            buf = self._spare.pop()
            np.copyto(buf, base)
            base = buf
        self._pows[1], self._max[1] = _as(base, dtype), bound

    def _combine(self, checked, raw, i: int, j: int, view: bool, **kwargs) -> np.ndarray:
        """``checked`` on powers ``i`` and ``j`` with their magnitudes; in
        modular mode past int64, ``raw`` on Python ints, reduced mod
        ``p1 * p2``. With ``view``, ``j`` is passed transposed, the same
        matrix: a square then runs as BLAS syrk, and a row dot reads ``j``
        in place."""
        a, b, amax, bmax = self._pows[i], self._pows[j], self._max[i], self._max[j]
        if view:
            b = np.swapaxes(b, -1, -2)
        if self.modulus is not None and _tier(a.shape[-1] * amax * bmax) is object:
            return self._reduced(raw(_as(a, object), _as(b, object)))
        return checked(a, b, amax=amax, bmax=bmax, **kwargs)

    def power(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError(f"power must be >= 1, got {p}")
        got = self._pows.get(p)
        if got is None:
            i = p // 2 if p % 2 == 0 else p - 1
            self.power(i)
            out = self._spare[-1] if self._spare else None
            syrk = self._pows[1].shape[-1] >= _SYRK_ORDER  # else gemm
            got = self._combine(checked_matmul, np.matmul, i, p - i, syrk, out=out)
            if out is not None and got is out:
                self._spare.pop()
            self._pows[p], self._max[p] = got, _entry_max(got)
        return got

    def _halves(self, p: int) -> tuple[int, int]:
        """Two formed powers whose row dot is diag(M^p), p >= 2: (h, p - h)
        with h = p // 2, or (2h, 1) while the square of M^h is exact (see
        the module docstring)."""
        h = p // 2
        self.power(h)
        i, j = h, p - h
        if j not in self._pows and self._pows[h].shape[-1] * self._max[h] ** 2 <= _FLOAT_SAFE:
            i, j = 2 * h, 1  # odd p: M^(2h) as a square, not M^(h+1)
        self.power(i), self.power(j)
        return i, j

    def diag_arrays(self, powers) -> np.ndarray:
        """The (len(powers), m, k) diagonals of ``powers`` in one array,
        every half power formed first, so that a diagonal whose power got
        formed is read off it."""
        powers = tuple(powers)
        if not powers:
            raise ValueError("power list must be nonempty")
        for p in powers:
            if p not in self._pows:
                self._halves(p)
        diags = []
        for p in powers:
            formed = self._pows.get(p)
            if formed is None:
                d = self._combine(checked_rowdot, _rowdot, *self._halves(p), True)
            else:
                d = np.diagonal(formed, axis1=-2, axis2=-1)
                if self.modulus is None or d.dtype != object:  # reduced ones may pass u64
                    d = _diagonal_values(d)
            diags.append(d)
        stack = diags[0][None] if len(diags) == 1 else np.stack(diags)
        return _fit_int64(_residues(stack, self.modulus))


def _residues(x: np.ndarray, modulus: tuple[int, int] | None) -> np.ndarray:
    """Exact values as they are; modular ones in ``[0, p1 * p2)``."""
    if modulus is None:
        return x
    n = modulus[0] * modulus[1]
    if x.dtype == object or n <= _FORMAT_LIMITS[1]:
        return x % n
    return x if x.size == 0 or x.min() >= 0 else _as(x, object) % n


def traces(diags: np.ndarray, modulus: tuple[int, int] | None = None) -> np.ndarray:
    """The traces of (..., k) diagonals as :meth:`PowerCache.diag_arrays`
    reports them under ``modulus``: their exact sums, or in modular mode
    the residues of the sums, which are those of the traces; int64 when
    every value fits, else object."""
    return _fit_int64(_residues(_row_sums(diags), modulus))


def half_sum(plus, minus, modulus: tuple[int, int] | None = None):
    """Halves of the entrywise sum of two (..., k) diagonals, and the
    traces of that sum, from diagonals as :meth:`PowerCache.diag_arrays`
    reports them under ``modulus``.

    Every entrywise sum must be even. Exact sums halve exactly; in modular
    mode a sum of residues is multiplied by the inverse of 2 mod
    ``p1 * p2``, which needs odd primes. The halves are int64 when every
    one fits, else an object array; the traces, summed by :func:`traces`,
    are Python ints, nested as the leading axes (one int for (k,) inputs).
    """
    total = _row_sums(np.stack((plus, minus), axis=-1))
    sums = traces(total[None], modulus).tolist()[0]  # (1, ...): an array even for (k,) inputs
    if modulus is None:
        return _fit_int64(total // 2), sums
    n = modulus[0] * modulus[1]
    if n % 2 == 0:
        raise ValueError(f"halving mod {n} needs odd primes")
    halves = _as(total, object) * pow(2, -1, n) % n
    return _fit_int64(halves), sums


def row_order(table: np.ndarray) -> np.ndarray:
    """The order that puts the rows of a non-negative 2-d table in
    lexicographic order: int64 rows sort as big-endian byte records, whose
    byte order is the numeric one (that of ``np.lexsort``) at a fraction of
    its cost; Python-int rows sort as tuples. Rows sorted by every column
    are sorted by any leading ones, so one order serves every prefix."""
    table = _fit_int64(table)
    if table.dtype == object:
        rows = table.tolist()
        return np.array(sorted(range(len(rows)), key=rows.__getitem__), dtype=np.intp)
    record = np.dtype((np.void, 8 * table.shape[1]))
    return np.argsort(np.ascontiguousarray(table, dtype=">i8").view(record).ravel())


def keyed_rows(rows: np.ndarray) -> tuple[np.ndarray, object]:
    """Rows in sorted order, int64 when every value fits, and a hashable key
    that follows the values, not the dtype: shape and big-endian bytes,
    or past int64 the rows as tuples."""
    rows = _fit_int64(rows)
    if rows.dtype == object:
        return rows, tuple(map(tuple, rows.tolist()))
    rows = rows.astype(">i8", copy=False)
    return rows, (rows.shape, rows.tobytes())


def per_power(stack: np.ndarray) -> list[np.ndarray]:
    """A stack's arrays along its first axis, each int64 exactly when its
    own values fit, whatever the other powers hold."""
    return [_fit_int64(x) for x in stack]


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
