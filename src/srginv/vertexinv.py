"""Vertex invariants from powers of neighborhood-restricted adjacency matrices.

For a vertex ``a`` the matrix A|_{N_a} is the adjacency matrix induced on
its neighborhood; the diagonal of its p-th power counts closed length-p
walks that stay inside the neighborhood. Either the trace or the
ascending-sorted diagonal is a relabeling invariant of the vertex; the
lexicographically sorted list over all vertices is a graph invariant.

All vertices are computed together. :class:`NeighborhoodPowerCache`
gathers every neighborhood into one (v, kmax, kmax) stack, zero-padded to
the largest degree kmax; a padded slot is an isolated vertex, so it adds
zeros to the diagonals and nothing to traces or magnitudes. Each power's
diagonals stay one (v, kmax) array, each row sorted with its padding
after the real entries. A :class:`GraphSignature` is those arrays as one
row-sorted table, compared by the key :func:`matpow.sorted_rows` builds:
its bytes when every value fits int64, else its rows of Python ints.
Tuples of Python ints are built only when read: :attr:`GraphSignature.rows`
and :meth:`NeighborhoodPowerCache.signature_values`, the per-vertex values
``srginv vertex-inv`` prints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .matpow import check_powers, power_cache, sorted_rows


class InvariantMode(enum.Enum):
    TRACE = "trace"
    SORTED_DIAG = "sortdiag"


def row_sort_key(values: tuple[int, ...]):
    # The order of GraphSignature.rows. Different lengths only occur across
    # different-degree vertices; compare by length first so the order is total.
    return (len(values), values)


def _value_rows(table: np.ndarray, mode: InvariantMode, npowers: int) -> list[tuple[int, ...]]:
    """Table rows (see :class:`GraphSignature`) as the API's value tuples;
    a SORTED_DIAG row drops its degree and padding."""
    rows = table.tolist()
    if mode is InvariantMode.TRACE:
        return [tuple(row) for row in rows]
    width = (len(rows[0]) - 1) // npowers if rows else 0
    return [
        tuple(x for i in range(npowers) for x in row[1 + i * width : 1 + i * width + row[0]])
        for row in rows
    ]


class GraphSignature:
    """Per-vertex invariant vectors, lexicographically sorted ascending.

    It holds one row-sorted table with a row per vertex. A SORTED_DIAG row
    is the vertex's degree, then each power's sorted diagonal zero-padded
    to the largest degree; a TRACE row is the traces. Values are exact,
    or in modular mode residues mod ``p1 * p2``, the exact value below it.
    The table is int64 when every value fits, else an object array of
    Python ints. Its rows are in ``row_sort_key`` order of their value
    tuples: the degree sorts first, as the row length does there, the
    padding of one degree sits in the same columns, and every value is
    non-negative. Two signatures of the same mode and modulus are equal
    exactly when their ``rows`` are, and compare by the key
    :func:`matpow.sorted_rows` gives; ``rows``, the value tuples the API
    returns, are built on each read.
    """

    __slots__ = ("_key", "_table", "_layout")

    def __init__(self, table: np.ndarray, mode: InvariantMode, npowers: int, modulus):
        self._table, body = sorted_rows(table)
        self._layout = (mode, npowers)
        self._key = (mode, modulus, body)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_value_rows(self._table, *self._layout))

    def __eq__(self, other):
        if not isinstance(other, GraphSignature):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"GraphSignature(rows={self.rows!r})"


@dataclass(frozen=True)
class OutblockSignature:
    """Base graph signature, extended by the signature of the subgraph left
    after deleting the first (smallest-signature) block.

    ``refined`` is False when the base partition has a single block; the
    tail is then absent and the base signature stands alone.
    """

    base: GraphSignature
    refined: bool
    removed: tuple[int, ...]
    tail: GraphSignature | None


class NeighborhoodPowerCache:
    """Per-vertex diagonals and traces of neighborhood powers, cached by power.

    Per power it keeps the (v, kmax) sorted diagonals, padding zeroed, and
    the (v,) traces: exact values, or in modular mode residues mod
    ``p1 * p2``, the exact value below it; int64 when every value fits. The
    power engine and its matrices are dropped when ``ensure`` returns, so
    this stays cheap enough to keep alive per graph across the ladder.
    """

    def __init__(self, g: Graph, modulus: tuple[int, int] | None = None):
        self.graph = g
        self.modulus = modulus
        self.degrees = g.dense().sum(axis=1, dtype=np.int64)
        self._diag: dict[int, np.ndarray] = {}
        self._trace: dict[int, np.ndarray] = {}

    @property
    def powers(self) -> tuple[int, ...]:
        """The powers computed so far, ascending."""
        return tuple(sorted(self._diag))

    def ensure(self, powers) -> None:
        """Sorted diagonals and traces of (A|_{N_a})^p for every vertex, for
        each power not cached yet, from one padded (v, kmax, kmax) stack
        gathered with a single flat take."""
        missing = sorted(set(powers) - self._diag.keys())
        if not missing:
            return
        dense, deg, v = self.graph.dense(), self.degrees, self.graph.v
        kmax = int(deg.max(initial=0))
        real = np.arange(kmax) < deg[:, None]
        # each vertex's neighbors ascending, then the isolated index v
        nb = np.full((v, kmax), v)
        nb[real] = np.nonzero(dense)[1]
        stack = np.pad(dense, (0, 1)).ravel().take(nb[:, :, None] * (v + 1) + nb[:, None, :])
        cache = power_cache(stack, self.modulus)
        regular = real.all()
        for p in missing:
            d = cache.diag_array(p)
            if not regular:  # padding sorts after the real entries, then reads 0
                d = np.where(real, d, d.max(initial=0))
            d = np.sort(d, axis=1)
            if not regular:
                d[~real] = 0
            self._diag[p] = d
            self._trace[p] = cache.trace_array(p)

    def _table(self, powers: tuple[int, ...], mode: InvariantMode) -> np.ndarray:
        """The rows of :class:`GraphSignature`, in vertex order."""
        self.ensure(powers)
        if mode is InvariantMode.TRACE:
            return np.stack([self._trace[p] for p in powers], axis=1)
        return np.hstack([self.degrees[:, None], *(self._diag[p] for p in powers)])

    def signature(self, powers: tuple[int, ...], mode: InvariantMode) -> GraphSignature:
        return GraphSignature(self._table(powers, mode), mode, len(powers), self.modulus)

    def single_block(self, powers) -> bool:
        """True when every vertex has the same degree and the same sorted
        diagonals at ``powers``."""
        self.ensure(powers)
        return all(
            (x == x[:1]).all() for x in (self.degrees, *(self._diag[p] for p in powers))
        )

    def signature_values(
        self, powers: tuple[int, ...], mode: InvariantMode
    ) -> list[tuple[int, ...]]:
        """Per-vertex concatenation across powers, in vertex order."""
        return _value_rows(self._table(powers, mode), mode, len(powers))


def graph_signature(
    g: Graph,
    powers,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
) -> GraphSignature:
    """Lex-sorted vertex signatures; identical for isomorphic graphs."""
    return NeighborhoodPowerCache(g, modulus).signature(check_powers(powers), mode)


def outblock_signature(
    g: Graph,
    powers,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
    nbhd: NeighborhoodPowerCache | None = None,
) -> OutblockSignature:
    """Base signature plus the signature after deleting the first block.

    The "first block" is the one with the lexicographically smallest
    signature; removal happens exactly once. ``nbhd``, a cache of ``g``
    under the same modulus, supplies the base signature from the powers
    it already holds; only the tail subgraph is computed fresh.
    """
    powers = check_powers(powers)
    if nbhd is None:
        nbhd = NeighborhoodPowerCache(g, modulus)
    elif nbhd.graph != g or nbhd.modulus != modulus:
        raise ValueError("nbhd must be a cache of g under the same modulus")
    table = nbhd._table(powers, mode)
    if not len(table):
        raise ValueError("cannot partition an empty signature list")
    base = GraphSignature(table, mode, len(powers), modulus)
    first = (table == base._table[0]).all(axis=1)
    if first.all():
        return OutblockSignature(base, False, (), None)
    tail = g.induced_subgraph(np.flatnonzero(~first).tolist())
    return OutblockSignature(
        base,
        True,
        tuple(np.flatnonzero(first).tolist()),
        graph_signature(tail, powers, mode, modulus=modulus),
    )
