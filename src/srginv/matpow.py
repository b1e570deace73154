"""Exact integer matrix powers and their diagonals with 64-bit overflow checking.

Every invariant in this package is a diagonal, or a trace, of a power of
a small nonnegative integer matrix. Diagonals never form the full power:
with ``h = p // 2``,

    diag(M^p)[i] = sum_j (M^h)[i, j] * (M^(p-h))[j, i],

which holds for any square matrix, so only the half powers ``M^h`` and
``M^(p-h)`` are formed (powers 3..9 need M^2..M^5; powers 2..5 need M^2
and M^3) and the diagonal is their row dot product. Products and row dot
products are evaluated in the cheapest representation that is provably
exact for the values at hand: float64 while a safe bound stays below
2**53 (BLAS path), int64 below 2**63, arbitrary-precision Python integers
beyond that. A half-power entry or a diagonal value that leaves the
unsigned 64-bit range raises :class:`MatrixOverflowError`; off-diagonal
entries of the full power are never formed, so they are not checked.
Callers may retry with the dual-prime modular engine, whose residues are
still valid isomorphism invariants (collision probability about 2**-122
per value). That engine keeps exact values, on the same float64 and
int64 tiers, while a product's bound stays below 2**63, and reduces them
only when a diagonal is read; past the bound it holds residue pairs in
object dtype. Reducing an exact value gives the same residue, so which
path ran never shows in the values.
"""

from __future__ import annotations

import operator

import numpy as np

U64_MAX = 2**64 - 1
_INT64_SAFE = 2**63 - 1
_FLOAT_SAFE = 2**53

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
    return 0 if m.size == 0 else int(m.max())


def _as_float(m: np.ndarray) -> np.ndarray:
    # Callers guarantee entries <= 2**53, so the conversion is exact.
    return m if m.dtype == np.float64 else m.astype(np.float64)


def _as_int64(m: np.ndarray) -> np.ndarray:
    return m if m.dtype == np.int64 else m.astype(np.int64)


def _as_object(m: np.ndarray) -> np.ndarray:
    if m.dtype == object:
        return m
    return _as_int64(m).astype(object)


def checked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of nonnegative integer matrices (2-d or stacked 3-d).

    Raises MatrixOverflowError if any entry of the product would exceed
    U64_MAX. The result dtype varies (float64 / int64 / object) but the
    values are always exact integers.
    """
    inner = a.shape[-1]
    bound = inner * _entry_max(a) * _entry_max(b)
    if bound <= _FLOAT_SAFE:
        return _as_float(a) @ _as_float(b)
    if bound <= _INT64_SAFE:
        return _as_int64(a) @ _as_int64(b)
    prod = _as_object(a) @ _as_object(b)
    if _entry_max(prod) > U64_MAX:
        raise MatrixOverflowError(
            "matrix power entry exceeds the unsigned 64-bit range; "
            "retry in modular mode"
        )
    return prod


def checked_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact diagonal of ``a @ b`` without forming the product.

    ``out[..., i] = sum_j a[..., i, j] * b[..., j, i]`` for nonnegative
    integer matrices (2-d or stacked 3-d). The bound and the float64 /
    int64 / object tiers are those of :func:`checked_matmul`; a diagonal
    value above U64_MAX raises MatrixOverflowError. The result is int64,
    or object when the bound passes the int64 range.
    """
    inner = a.shape[-1]
    bound = inner * _entry_max(a) * _entry_max(b)
    bt = np.swapaxes(b, -1, -2)
    if bound <= _FLOAT_SAFE:
        return np.einsum("...ij,...ij->...i", _as_float(a), _as_float(bt)).astype(np.int64)
    if bound <= _INT64_SAFE:
        return np.einsum("...ij,...ij->...i", _as_int64(a), _as_int64(bt))
    diag = (_as_object(a) * _as_object(bt)).sum(axis=-1)
    if _entry_max(diag) > U64_MAX:
        raise MatrixOverflowError(
            "matrix power diagonal exceeds the unsigned 64-bit range; "
            "retry in modular mode"
        )
    return diag


def _row_sums(d: np.ndarray) -> np.ndarray:
    """Exact sums over the last axis of a nonnegative int64 or object array."""
    if d.dtype != object and d.shape[-1] * _entry_max(d) > _INT64_SAFE:
        d = d.astype(object)
    return d.sum(axis=-1)


class _PowerEngine:
    """Cached powers of a stack of square matrices and their diagonals.

    ``power(p)`` forms the full p-th power by repeated squaring with one
    extra multiply for odd exponents. ``diag_array(p)`` forms only the
    half powers ``h = p // 2`` and ``p - h`` and takes the diagonal as
    their row dot product, ``diag(M^p)[i] = sum_j M^h[i, j] M^(p-h)[j, i]``,
    which holds for any square matrix. Powers and diagonals are cached so
    escalating queries reuse earlier work. Subclasses supply the ring:
    ``_lift`` (base matrix), ``_mul``, ``_rowdot``, ``_base_diag``,
    ``diag_array`` and ``trace_array``.
    """

    def __init__(self, base: np.ndarray):
        base = np.asarray(base)
        if base.ndim != 3 or base.shape[-1] != base.shape[-2]:
            raise ValueError(f"expected a (m, k, k) stack, got shape {base.shape}")
        self._pows = {1: self._lift(base)}
        self._diags: dict = {}

    def power(self, p: int):
        if p < 1:
            raise ValueError(f"power must be >= 1, got {p}")
        got = self._pows.get(p)
        if got is None:
            if p % 2 == 0:
                half = self.power(p // 2)
                got = self._mul(half, half)
            else:
                got = self._mul(self.power(p - 1), self._pows[1])
            self._pows[p] = got
        return got

    def _diag(self, p: int):
        if p < 1:
            raise ValueError(f"power must be >= 1, got {p}")
        got = self._diags.get(p)
        if got is None:
            h = p // 2
            got = self._rowdot(self.power(h), self.power(p - h)) if h else self._base_diag()
            self._diags[p] = got
        return got

    def diagonals(self, p: int) -> list[tuple[int, ...]]:
        """Unsorted diagonal of the p-th power, one tuple per stacked matrix."""
        return [tuple(row) for row in self.diag_array(p).tolist()]

    def traces(self, p: int) -> list[int]:
        return self.trace_array(p).tolist()


class PowerCache(_PowerEngine):
    """Exact checked powers of a stack of square nonnegative integer matrices.

    ``base`` has shape (m, k, k). ``diag_array(p)`` and ``trace_array(p)``
    give the (m, k) diagonals and (m,) traces of the p-th powers as int64
    arrays, or object arrays of Python ints past the int64 range.
    """

    def _lift(self, base: np.ndarray) -> np.ndarray:
        return _as_float(base)

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return checked_matmul(a, b)

    def _rowdot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return checked_rowdot(a, b)

    def _base_diag(self) -> np.ndarray:
        return np.diagonal(self._pows[1], axis1=-2, axis2=-1).astype(np.int64)

    def diag_array(self, p: int) -> np.ndarray:
        return self._diag(p)

    def trace_array(self, p: int) -> np.ndarray:
        return _row_sums(self._diag(p))


class ModularPowerCache(_PowerEngine):
    """Powers of a matrix stack with entries reduced modulo two fixed primes.

    A cached power holds its exact integer values while products stay
    exact: a product or row dot product whose bound ``inner * max(a) *
    max(b)`` fits int64 runs through :func:`checked_matmul` or
    :func:`checked_rowdot` (float64 or int64, never the object tier, so
    this engine never raises MatrixOverflowError). Past that bound, or for
    a base with an entry outside ``0..2**63 - 1``, the operands are lifted
    to residue pairs (x mod p1, x mod p2) in object dtype, and powers
    formed from a residue pair are residue pairs too; ``power(p)`` returns
    either form. An exact value reduced mod q is the residue of the true
    value for any modulus, so the two forms give the same values.
    Diagonals are reduced per prime and reported as the single integer
    ``r1 * p2 + r2``, an injective encoding that remains a relabeling
    invariant; traces are reduced per prime before encoding, so the trace
    of a power still equals the encoded sum of its true diagonal.
    """

    def __init__(self, base: np.ndarray, modulus: tuple[int, int] = DEFAULT_MODULUS):
        p1, p2 = modulus
        if p1 <= 1 or p2 <= 1 or p1 == p2:
            raise ValueError(f"modulus must be two distinct primes > 1, got {modulus}")
        self.modulus = (int(p1), int(p2))
        super().__init__(base)

    def _residues(self, m) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(m, tuple):
            return m
        # Python ints: the encoding r1 * p2 + r2 would wrap in int64
        m = _as_object(m)
        return tuple(m % q for q in self.modulus)

    @staticmethod
    def _exact(a, b) -> bool:
        return (
            not isinstance(a, tuple)
            and not isinstance(b, tuple)
            and a.shape[-1] * _entry_max(a) * _entry_max(b) <= _INT64_SAFE
        )

    def _lift(self, base: np.ndarray):
        if base.size and (base.min() < 0 or base.max() > _INT64_SAFE):
            return self._residues(base)
        return _as_int64(base)

    def _mul(self, a, b):
        if self._exact(a, b):
            return checked_matmul(a, b)
        return tuple(
            (x @ y) % q for x, y, q in zip(self._residues(a), self._residues(b), self.modulus)
        )

    def _rowdot(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        if self._exact(a, b):
            return self._residues(checked_rowdot(a, b))
        return tuple(
            (x * np.swapaxes(y, -1, -2)).sum(axis=-1) % q
            for x, y, q in zip(self._residues(a), self._residues(b), self.modulus)
        )

    def _base_diag(self) -> tuple[np.ndarray, np.ndarray]:
        base = self._pows[1]
        if isinstance(base, tuple):
            return tuple(np.diagonal(x, axis1=-2, axis2=-1) for x in base)
        return self._residues(np.diagonal(base, axis1=-2, axis2=-1))

    def diag_array(self, p: int) -> np.ndarray:
        d1, d2 = self._diag(p)
        return d1 * self.modulus[1] + d2

    def trace_array(self, p: int) -> np.ndarray:
        (d1, d2), (q1, q2) = self._diag(p), self.modulus
        return d1.sum(axis=-1) % q1 * q2 + d2.sum(axis=-1) % q2


def power_cache(base: np.ndarray, modulus: tuple[int, int] | None = None):
    """Engine factory: exact checked arithmetic, or dual-prime modular."""
    if modulus is None:
        return PowerCache(base)
    return ModularPowerCache(base, modulus)
