"""Edge invariants from powers of the directed-edge-indexed matrix.

The underlying object is the v^2 x v^2 matrix with entry
``A_ab * A_ac * A_bd`` at position ((a,b), (c,d)). Its power diagonals are
nonzero only at edge positions, and every nonzero product chain forces
each intermediate pair to be an edge, so restricting rows and columns to
the 2|E| directed edges is exact for diagonals of powers p >= 2. The
diagonal at (a,b) counts length-p walks in the "edges adjacent by ends"
structure.

That restriction ``B`` commutes with the swap (a,b) <-> (b,a), so it
splits into two blocks on the |E| undirected edges ``e = (a<b)``,
``f = (c<d)``: ``B+ = S + W`` on orientation-symmetric vectors and
``B- = S - W`` on antisymmetric ones, with ``S[e,f] = A_ac * A_bd`` and
``W[e,f] = A_ad * A_bc``. The unit vector of (a,b) is the sum of one of
each, divided by sqrt 2, so

    B^p[(a,b),(a,b)] = B^p[(b,a),(b,a)] = (B+^p[e,e] + B-^p[e,e]) / 2,
    tr(B^p) = tr(B+^p) + tr(B-^p).

Both blocks are integer matrices, so the sum is an exact, even integer
and halves exactly (in modular mode, by the inverse of 2 mod ``p1 * p2``).
Only the blocks are powered, one after the other, and their diagonals
summed and halved in one place (:func:`matpow.half_sum`). Powers 2..5
need only the syrk squares ``B±^2`` and ``B±^4`` of each block (see
:mod:`matpow`): a sixth of the flops of powering ``B`` by a syrk square
and a product. Exact mode checks the entries of the half powers of ``B+``
and ``B-``; a square formed for an odd power stays below 2**53.
``B+^h[e,f] = B^h[(a,b),(c,d)] + B^h[(a,b),(d,c)]`` and ``B^h >= 0``, so
they bound the entries of ``B^h`` in magnitude and are at most twice as
large: an overflow error comes whenever powering ``B`` gives one, and at
most one bit of range earlier (on T(8), edge power 11 is exact and 12
overflows, either way).

Both orientations of an edge share its diagonal value, so a table keeps
per power only the |E| values of the undirected edges, in lexicographic
order, as an array (int64 when every value fits). The sorted diagonal
over the 2|E| directed edges repeats each sorted value twice.
"""

from __future__ import annotations

import threading

import numpy as np

from .graph import Graph
from .matpow import check_powers, half_sum, power_cache


class BarMatrix:
    """The bar matrix split by orientation, over the undirected edges.

    ``blocks`` is the int8 (2, |E|, |E|) stack ``(B+, B-)`` on the edges
    ``e = (a<b)`` in lexicographic order.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: np.ndarray):
        self.blocks = blocks

    @property
    def n(self) -> int:
        """Number of directed edges, 2|E|."""
        return 2 * self.blocks.shape[1]


def build_bar_matrix(g: Graph) -> BarMatrix:
    """Orientation blocks of the bar matrix; an edgeless graph yields empty ones."""
    a = g.dense().astype(np.int8)  # signed: B- has entries -1..1
    heads, tails = np.nonzero(np.triu(a))
    s = a[heads][:, heads] * a[tails][:, tails]  # A_ac * A_bd
    w = a[heads][:, tails] * a[tails][:, heads]  # A_ad * A_bc
    return BarMatrix(np.stack((s + w, s - w)))


# float64 storage for one block's base, B^2 and B^4, shared by the two
# blocks in turn and reused from one table to the next (one set per
# thread), so that a table does not fault in fresh pages for its powers;
# no table array points into them
_thread_buffers = threading.local()


def _bar_buffers(shape: tuple[int, ...]) -> list[np.ndarray]:
    bufs = getattr(_thread_buffers, "bufs", None)
    if bufs is None or bufs[0].shape != shape:
        bufs = _thread_buffers.bufs = [np.empty(shape) for _ in range(3)]
    return bufs


class BarPowerDiag:
    """Diagonal of one bar-matrix power, and its trace.

    ``values`` holds one value per undirected edge ``e = (a<b)``, in
    lexicographic order, as both orientations of an edge share it: exact
    values, or in modular mode residues mod ``p1 * p2``, the exact value
    below it; int64 when every value fits, else an object array of Python
    ints. The trace, over the directed edges, is a Python int.
    """

    __slots__ = ("values", "trace")

    def __init__(self, values: np.ndarray, trace: int):
        self.values = values
        self.trace = trace


def bar_diag_table(
    g: Graph, powers, *, modulus: tuple[int, int] | None = None
) -> dict[int, BarPowerDiag]:
    """Diagonals of bar-matrix powers, all requested powers in one pass."""
    powers = check_powers(powers, minimum=2)
    bar = build_bar_matrix(g)
    buffers = _bar_buffers(bar.blocks[:1].shape)
    plus, minus = (_block_diags(block, powers, modulus, buffers) for block in bar.blocks)
    return {p: BarPowerDiag(*half_sum(plus[p], minus[p], modulus)) for p in powers}


def _block_diags(block: np.ndarray, powers, modulus, buffers) -> dict[int, np.ndarray]:
    """The (|E|,) diagonals of one orientation block's powers; its engine,
    and with it every power written into ``buffers``, is dropped on return."""
    cache = power_cache(block[None], modulus, buffers=buffers)
    return {p: cache.diag_array(p)[0] for p in powers}
