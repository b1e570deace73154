"""Vertex invariants from powers of neighborhood-restricted adjacency matrices.

For a vertex ``a`` the matrix A|_{N_a} is the adjacency matrix induced on
its neighborhood; the diagonal of its p-th power counts closed length-p
walks that stay inside the neighborhood. Either the trace or the
ascending-sorted diagonal is a relabeling invariant of the vertex; the
lexicographically sorted list over all vertices is a graph invariant.

All vertices are computed together. :class:`NeighborhoodPowerCache`
gathers every neighborhood into one (v, kmax, kmax) stack, zero-padded to
the largest degree kmax; a padded slot is an isolated vertex, so it adds
zeros to the diagonals and nothing to traces or magnitudes. The diagonals
of the powers computed together come from one engine read and are sorted
along each row in one call: every value is non-negative, so its padding
zeros come first. The traces are summed from those sorted diagonals
(:func:`matpow.traces`). Both join one table per mode and graph. A
:class:`GraphSignature` is its columns of some powers as one row-sorted
table, compared by the key :func:`matpow.keyed_rows` builds: its bytes
when every value fits int64, else its rows of Python ints. Rows sorted
by every column are sorted by any leading ones, so a cache finds the row
order of its whole table once per mode, and a signature of leading
powers takes their columns in it. Tuples of Python ints are built only
when read: :attr:`GraphSignature.rows` and
:meth:`NeighborhoodPowerCache.signature_values`, the per-vertex values
``srginv vertex-inv`` prints.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .graph import Graph
from .matpow import check_powers, keyed_rows, power_cache, row_order, traces


class InvariantMode(enum.Enum):
    TRACE = "trace"
    SORTED_DIAG = "sortdiag"


def _value_rows(table: np.ndarray, mode: InvariantMode, npowers: int) -> list[tuple[int, ...]]:
    """Table rows (see :class:`GraphSignature`) as the API's value tuples;
    a SORTED_DIAG row drops its degree and the padding before each power's
    real entries."""
    rows = table.tolist()
    if mode is InvariantMode.TRACE:
        return [tuple(row) for row in rows]
    width = (len(rows[0]) - 1) // npowers if rows else 0
    return [
        tuple(x for i in range(1, npowers + 1) for x in row[1 + i * width - row[0] : 1 + i * width])
        for row in rows
    ]


class GraphSignature:
    """Per-vertex invariant vectors, lexicographically sorted ascending.

    It holds one row-sorted table with a row per vertex. A SORTED_DIAG row
    is the vertex's degree, then each power's diagonal zero-padded to the
    largest degree and sorted; a TRACE row is the traces. Values are exact,
    or in modular mode residues mod ``p1 * p2``, the exact value below it.
    The table is int64 when every value fits, else an object array of
    Python ints. Its rows are in the order of their value tuples by length,
    then lexicographically: the degree sorts first, as the length does, the
    padding of one degree sits in the same columns, and every value is
    non-negative. Two signatures of the same mode and modulus are equal
    exactly when their ``rows`` are, and compare by the key
    :func:`matpow.keyed_rows` gives; ``rows``, the value tuples the API
    returns, are built on each read.
    """

    __slots__ = ("_key", "_table", "_layout")

    def __init__(self, table: np.ndarray, mode: InvariantMode, npowers: int, modulus, body):
        # ``table``'s rows are sorted, and ``body`` is their keyed_rows key
        self._table = table
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


class OutblockSignature(NamedTuple):
    """Base graph signature, extended by the signature of the subgraph left
    after deleting the first (smallest-signature) block.

    ``tail`` is None when the base partition has a single block; the base
    signature then stands alone. The ladder keys a graph by the pair.
    """

    base: GraphSignature
    tail: GraphSignature | None


class NeighborhoodPowerCache:
    """Per-vertex diagonals and traces of neighborhood powers, cached by power.

    Per mode it keeps one table over every power computed so far, its
    columns in the order they were computed and its rows in vertex order:
    a SORTED_DIAG row is the degree, then each power's (kmax,) diagonal
    sorted with its padding zeros first; a TRACE row is the traces. Values
    are exact, or in modular mode residues mod ``p1 * p2``, the exact value
    below it; a table is int64 when every value fits. Per mode it also
    keeps the order that sorts the table's rows, until it computes more
    powers. The power engine and its matrices are dropped when ``ensure``
    returns, so this stays cheap enough to keep alive per graph across the
    ladder.
    """

    def __init__(self, g: Graph, modulus: tuple[int, int] | None = None):
        self.graph = g
        self.modulus = modulus
        self.degrees = g.dense().sum(axis=1, dtype=np.int64)
        self._kmax = int(self.degrees.max(initial=0))
        self._held: tuple[int, ...] = ()  # the tables' powers, in column order
        self._tables = {
            InvariantMode.TRACE: np.zeros((g.v, 0), np.int64),
            InvariantMode.SORTED_DIAG: self.degrees[:, None],
        }
        self._orders: dict[InvariantMode, np.ndarray] = {}

    @property
    def powers(self) -> tuple[int, ...]:
        """The powers computed so far, ascending."""
        return tuple(sorted(self._held))

    def ensure(self, powers) -> None:
        """Sorted diagonals and traces of (A|_{N_a})^p for every vertex, for
        each power not cached yet, from one padded (v, kmax, kmax) stack
        gathered with a single flat take."""
        missing = sorted(set(powers) - set(self._held))
        if not missing:
            return
        dense, deg, v, kmax = self.graph.dense(), self.degrees, self.graph.v, self._kmax
        real = np.arange(kmax) < deg[:, None]
        # each vertex's neighbors ascending, then the isolated index v; the
        # dense matrix is 0/1 uint8, so its bool view has the same nonzeros
        nb = np.full((v, kmax), v)
        nb[real] = np.nonzero(dense.view(bool))[1]
        padded = np.zeros((v + 1, v + 1), dense.dtype)
        padded[:v, :v] = dense
        stack = padded.ravel().take(nb[:, :, None] * (v + 1) + nb[:, None, :])
        cache = power_cache(stack, self.modulus)
        diags = np.sort(cache.diag_arrays(missing), axis=-1)
        trace, sd = self._tables[InvariantMode.TRACE], self._tables[InvariantMode.SORTED_DIAG]
        self._tables[InvariantMode.TRACE] = np.hstack([trace, traces(diags, self.modulus).T])
        self._tables[InvariantMode.SORTED_DIAG] = np.hstack([sd, *diags])
        self._held += tuple(missing)
        self._orders.clear()

    def _table(self, powers: tuple[int, ...], mode: InvariantMode) -> np.ndarray:
        """The rows of :class:`GraphSignature`, in vertex order: a column
        slice of the mode's table when ``powers`` lead its powers."""
        self.ensure(powers)
        n = len(powers)
        if powers == self._held[:n]:
            width = n if mode is InvariantMode.TRACE else 1 + n * self._kmax
            return self._tables[mode][:, :width]
        columns = [self._held.index(p) for p in powers]
        if mode is InvariantMode.SORTED_DIAG:
            k = self._kmax
            columns = [0, *(1 + i * k + j for i in columns for j in range(k))]
        return self._tables[mode][:, columns]

    def signature(self, powers: tuple[int, ...], mode: InvariantMode) -> GraphSignature:
        """The signature at ``powers``: their columns of the mode's table,
        its rows sorted in the mode's cached order of the whole table when
        ``powers`` lead the held powers, else in their own row order."""
        table = self._table(powers, mode)
        if powers == self._held[: len(powers)]:
            order = self._orders.get(mode)
            if order is None:
                order = self._orders[mode] = row_order(self._tables[mode])
        else:
            order = row_order(table)
        rows, body = keyed_rows(table[order])
        return GraphSignature(rows, mode, len(powers), self.modulus, body)

    def single_block(self, powers) -> bool:
        """True when every vertex has the same degree and the same sorted
        diagonals at ``powers``. Adding powers only refines the partition,
        so the ones already held are checked first and the rest computed
        only when those do not split the vertices."""

        def uniform(held) -> bool:
            table = self._table(tuple(held), InvariantMode.SORTED_DIAG)
            return bool((table == table[:1]).all())

        if not uniform(p for p in self._held if p in powers):
            return False
        self.ensure(powers)
        return uniform(powers)

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
    base = nbhd.signature(powers, mode)
    first = (table == base._table[0]).all(axis=1)
    if first.all():
        return OutblockSignature(base, None)
    tail = g.induced_subgraph(np.flatnonzero(~first).tolist())
    return OutblockSignature(base, graph_signature(tail, powers, mode, modulus=modulus))
