"""Shared test fixtures and independent oracles.

The dense tilde/bar constructions here build the full v^2 x v^2 matrices
straight from their definitions and power them in exact object
arithmetic; they exist to check the restricted kernels and must stay
independent of them. So do the per-vertex references: the unpadded
neighborhood powers of :func:`nbhd_power_diag`, the walk-counting DFS of
:func:`count_closed_walks` and the full-matrix traces of
:func:`trace_power_signature`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from unittest import mock

import numpy as np

from srginv.catalog import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    paley_graph,
    path_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
    star_graph,
    triangular_graph,
)
from srginv.cli import main
from srginv.edgeinv import bar_diag_table
from srginv.graph import Graph
from srginv.matpow import keyed_rows, power_cache, row_order, traces
from srginv.vertexinv import InvariantMode

# matpow thresholds to monkeypatch, lowered so that small matrices run
# every arithmetic path: float32 at every order, and float64, int64 or
# object even where a large matrix would run float32
TIERS = {
    "float32": {"_SYRK_ORDER": 0},
    "float64": {"_FLOAT32_SAFE": 0},
    "int64": {"_FLOAT32_SAFE": 0, "_FLOAT_SAFE": 0},
    "object": {"_FLOAT32_SAFE": 0, "_FLOAT_SAFE": 0, "_INT64_SAFE": 0},
}


def residue(x: int, modulus: tuple[int, int] | None) -> int:
    """``x`` as modular mode reports it: its residue mod ``p1 * p2``, the
    exact value below it; ``x`` itself without a modulus."""
    return x if modulus is None else x % (modulus[0] * modulus[1])


def sorted_rows(table: np.ndarray):
    """A table's rows sorted on their own and their key: the fresh sort
    that the leading columns of a larger table must key as."""
    return keyed_rows(table[row_order(table)])


def row_sort_key(values: tuple[int, ...]):
    """The reference order of ``GraphSignature.rows``: per-vertex value
    tuples by length, then lexicographically. Lengths differ only across
    vertices of different degree, so the order is total."""
    return (len(values), values)


def first_block(rows) -> list[int]:
    """The vertices whose value tuple is the smallest by ``row_sort_key``:
    the block the outblock stage removes."""
    first = min(rows, key=row_sort_key)
    return [a for a, row in enumerate(rows) if row == first]


def er_graph(v: int, seed: int, p: float = 0.5) -> Graph:
    """Seeded Erdos-Renyi graph."""
    rng = random.Random(seed)
    edges = [(a, b) for a in range(v) for b in range(a + 1, v) if rng.random() < p]
    return Graph.from_edges(v, edges)


def prism_graph() -> Graph:
    """K3 x K2: 3-regular on 6 vertices, with triangles (unlike K33)."""
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def fixture_graphs() -> dict[str, Graph]:
    return {
        "rook4": rook_graph(4),
        "shrikhande": shrikhande_graph(),
        "petersen": petersen_graph(),
        "c5": cycle_graph(5),
        "paley13": paley_graph(13),
        "paley17": paley_graph(17),
        "t5": triangular_graph(5),
        "k33": complete_bipartite_graph(3, 3),
        "prism": prism_graph(),
        "k4": complete_graph(4),
        "star3": star_graph(3),
        "path4": path_graph(4),
    }


def srg_fixtures() -> dict[str, Graph]:
    keep = ("rook4", "shrikhande", "petersen", "c5", "paley13", "paley17", "t5", "k33")
    fx = fixture_graphs()
    return {k: fx[k] for k in keep}


def cli_json(argv: list[str], *graphs: Graph) -> dict:
    """What ``srginv`` prints as JSON for ``argv`` with ``graphs`` on stdin."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("".join(g.to_graph6() + "\n" for g in graphs))):
        with contextlib.redirect_stdout(out):
            assert main([*argv, "-"]) == 0
    return json.loads(out.getvalue())


def vertex_partition(
    g: Graph, powers, mode: InvariantMode = InvariantMode.SORTED_DIAG
) -> list[list[int]]:
    """The vertex blocks ``srginv vertex-inv`` prints for ``g``."""
    argv = ["vertex-inv", "--mode", mode.value, "--powers", ",".join(map(str, powers))]
    return cli_json(argv, g)["graphs"][0]["partition"]


def nbhd_power_diag(
    g: Graph,
    a: int,
    p: int,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
) -> tuple[int, ...]:
    """Trace (one element) or ascending diagonal of (A|_{N_a})^p."""
    g._check_vertex(a)
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    nb = g.neighborhood(a)
    sub = g.dense()[np.ix_(nb, nb)]
    diags = power_cache(sub[None, :, :], modulus).diag_arrays((p,))
    if mode is InvariantMode.TRACE:
        return (traces(diags, modulus)[0].tolist()[0],)
    return tuple(sorted(diags[0, 0].tolist()))


def count_closed_walks(g: Graph, start: int, length: int, allowed) -> int:
    """Walks of exactly ``length`` steps from start back to start that never
    leave ``allowed``, counted by exhaustive DFS.

    Independent of the matrix-power kernels on purpose: this is the oracle
    the diagonal entries of restricted powers are checked against.
    """
    allowed = frozenset(allowed)
    if start not in allowed:
        raise ValueError(f"start vertex {start} is not in the allowed set")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    g._check_vertex(start)

    def walk(x: int, steps: int) -> int:
        if steps == length:
            return 1 if x == start else 0
        total = 0
        for y in g.neighborhood(x):
            if y in allowed:
                total += walk(y, steps + 1)
        return total

    return walk(start, 0)


def trace_power_signature(
    g: Graph, pmax: int, *, modulus: tuple[int, int] | None = None
) -> tuple[int, ...]:
    """(Tr(A^1), ..., Tr(A^pmax)) of the full adjacency matrix, exact.

    The global trace-power similarity baseline; equal for isomorphic
    graphs, and equal across all SRGs sharing parameters, which is why the
    ladder works on restricted matrices instead.
    """
    if not 1 <= pmax <= g.v:
        raise ValueError(f"pmax must be in 1..{g.v}, got {pmax}")
    cache = power_cache(g.dense()[None, :, :], modulus)
    return tuple(traces(cache.diag_arrays(tuple(range(1, pmax + 1))), modulus)[:, 0].tolist())


def directed_edges(g: Graph) -> list[tuple[int, int]]:
    """Both orientations of every edge, in lexicographic order."""
    return [(a, b) for a in range(g.v) for b in range(g.v) if g.has_edge(a, b)]


def per_directed_edge(g: Graph, values) -> list[int]:
    """An edge table's ``values``, one per undirected edge ``(a<b)`` in
    lexicographic order, at each directed edge of :func:`directed_edges`."""
    index = {(a, b): i for i, (a, b) in enumerate(e for e in directed_edges(g) if e[0] < e[1])}
    values = values.tolist()
    return [values[index[min(a, b), max(a, b)]] for a, b in directed_edges(g)]


def sorted_bar_diag(g: Graph, p: int, *, modulus: tuple[int, int] | None = None) -> list[int]:
    """The p-th bar power diagonal over the directed edges, ascending."""
    return sorted(per_directed_edge(g, bar_diag_table(g, (p,), modulus=modulus)[p].values))


def dense_tilde_power_diag(g: Graph, p: int) -> dict[tuple[int, int], int]:
    """Diagonal of the p-th power of the full v^2 x v^2 matrix with entry
    A_ab * A_ac * delta_bd at ((a,b),(c,d)), keyed by (a, b)."""
    v = g.v
    a = g.dense().astype(object)
    m = np.zeros((v * v, v * v), dtype=object)
    for x in range(v):
        for y in range(v):
            for c in range(v):
                m[x * v + y, c * v + y] = int(a[x, y]) * int(a[x, c])
    pw = np.linalg.matrix_power(m, p)
    return {(x, y): int(pw[x * v + y, x * v + y]) for x in range(v) for y in range(v)}


def dense_bar_power_diag(g: Graph, p: int) -> dict[tuple[int, int], int]:
    """Diagonal of the p-th power of the full v^2 x v^2 matrix with entry
    A_ab * A_ac * A_bd at ((a,b),(c,d)), keyed by (a, b)."""
    v = g.v
    a = g.dense().astype(object)
    m = np.zeros((v * v, v * v), dtype=object)
    for x in range(v):
        for y in range(v):
            for c in range(v):
                for d in range(v):
                    m[x * v + y, c * v + d] = int(a[x, y]) * int(a[x, c]) * int(a[y, d])
    pw = np.linalg.matrix_power(m, p)
    return {(x, y): int(pw[x * v + y, x * v + y]) for x in range(v) for y in range(v)}


def directed_bar_power_diags(g: Graph, powers) -> dict[int, list[int]]:
    """Diagonals of powers of the bar matrix restricted to the directed
    edges, in the order of :func:`directed_edges`, built from the
    definition: entry ``A_ac * A_bd`` at ((a,b), (c,d)).

    The matrix is symmetric with row sums at most deg^2, so int64 holds its
    powers up to ``(deg^2)^h < 2**63``; a diagonal is the object row dot of
    the two half powers.
    """
    a = g.dense().astype(np.int64)
    pairs = directed_edges(g)
    bar = np.array([[a[x, c] * a[y, d] for c, d in pairs] for x, y in pairs])
    half = {}
    out = {}
    for p in powers:
        h = p // 2
        for i in (h, p - h):
            if i not in half:
                assert int(bar.sum(axis=1).max()) ** i < 2**63
                half[i] = np.linalg.matrix_power(bar, i).astype(object)
        out[p] = [int(x) for x in (half[h] * half[p - h]).sum(axis=1)]
    return out
