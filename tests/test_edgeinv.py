import collections
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from srginv import edgeinv, matpow
from srginv.catalog import complete_graph, empty_graph, star_graph, triangular_graph
from srginv.edgeinv import bar_diag_table, build_bar_matrix
from srginv.isomorphism import random_relabel
from srginv.matpow import DEFAULT_MODULUS, MatrixOverflowError

from helpers import (
    TIERS,
    cli_json,
    dense_bar_power_diag,
    directed_bar_power_diags,
    directed_edges,
    er_graph,
    fixture_graphs,
    per_directed_edge,
    residue,
    sorted_bar_diag,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from latin import latin_graphs  # noqa: E402

FX = fixture_graphs()


def trace(g, p):
    return bar_diag_table(g, (p,))[p].trace


def table_data(table):
    """An edge table as plain data: per power, the trace and the values."""
    return {p: (diag.trace, diag.values.tolist()) for p, diag in table.items()}


def edge_partition(g, p):
    """The ``[a, b, value]`` triples ``srginv edge-inv`` prints at power p."""
    (graph,) = cli_json(["edge-inv", "--powers", str(p)], g)["graphs"]
    return graph["partition"]


def test_index_contains_both_orientations():
    # a block row per undirected edge, standing for both its orientations
    pairs = directed_edges(FX["petersen"])
    bar = build_bar_matrix(FX["petersen"])
    assert bar.n == len(pairs) == 30
    assert bar.blocks.shape == (2, 15, 15)


def test_k2_bar_matrix():
    bar = build_bar_matrix(complete_graph(2))
    assert bar.n == 2
    # the directed matrix [[0, 1], [1, 0]] has eigenvalue 1 on the symmetric
    # vector and -1 on the antisymmetric one
    assert bar.blocks.tolist() == [[[1]], [[-1]]]


def test_k3_bar_matrix_row_sums():
    # a row sum of B+ at e is the directed row sum at either orientation of e
    bar = build_bar_matrix(complete_graph(3))
    assert bar.n == 6
    assert bar.blocks[0].sum(axis=1).tolist() == [3] * 3


def test_star_bar_matrix_row_sums():
    bar = build_bar_matrix(star_graph(3))
    assert bar.n == 6
    assert bar.blocks[0].sum(axis=1).tolist() == [3] * 3


def test_edgeless_graph_flagged_empty():
    bar = build_bar_matrix(empty_graph(4))
    assert bar.n == 0
    assert trace(empty_graph(4), 2) == 0
    assert sorted_bar_diag(empty_graph(4), 2) == []


def test_bar_trace_examples():
    assert trace(complete_graph(2), 2) == 2
    assert trace(complete_graph(3), 2) == 18
    assert trace(complete_graph(3), 3) == 12
    assert trace(complete_graph(3), 4) == 114
    assert trace(star_graph(3), 2) == 18
    assert trace(FX["prism"], 2) == 114
    assert trace(FX["k33"], 2) == 162


def test_petersen_p2_sorted_diag():
    got = sorted_bar_diag(FX["petersen"], 2)
    assert got == [5] * 30
    dense = dense_bar_power_diag(FX["petersen"], 2)
    want = sorted(dense[(a, b)] for a in range(10) for b in range(10) if FX["petersen"].has_edge(a, b))
    assert list(got) == want


def test_minimum_power_enforced():
    with pytest.raises(ValueError):
        bar_diag_table(complete_graph(3), (1,))
    with pytest.raises(ValueError):
        bar_diag_table(complete_graph(3), [2, 2])
    with pytest.raises(ValueError):
        bar_diag_table(complete_graph(3), [])


@pytest.mark.parametrize("name", ["c5", "k33", "prism", "k4", "star3", "path4", "t5", "petersen"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_dense_restriction_equivalence(name, p):
    g = FX[name]
    if g.v > 10:
        pytest.skip("dense bar oracle is limited to v <= 10")
    dense = dense_bar_power_diag(g, p)
    table = bar_diag_table(g, (p,))[p]
    for pair, value in zip(directed_edges(g), per_directed_edge(g, table.values), strict=True):
        assert dense[pair] == value, (name, p, pair)
    for a in range(g.v):
        for b in range(g.v):
            if not g.has_edge(a, b):
                assert dense[(a, b)] == 0, (name, p, a, b)


@pytest.mark.parametrize("seed", range(8))
def test_dense_restriction_equivalence_random(seed):
    g = er_graph(5 + seed % 3, 900 + seed)
    for p in (2, 3):
        dense = dense_bar_power_diag(g, p)
        table = bar_diag_table(g, (p,))[p]
        for pair, value in zip(directed_edges(g), per_directed_edge(g, table.values), strict=True):
            assert dense[pair] == value


@pytest.mark.parametrize("name", ["prism", "petersen", "rook4", "paley13"])
def test_orientation_symmetry(name):
    g = FX[name]
    pairs = directed_edges(g)
    position = {pair: i for i, pair in enumerate(pairs)}
    for p in (2, 3, 5):
        per_pair = per_directed_edge(g, bar_diag_table(g, (p,))[p].values)
        for (a, b), value in zip(pairs, per_pair, strict=True):
            assert per_pair[position[(b, a)]] == value


@pytest.mark.parametrize("name", ["prism", "petersen", "paley13"])
def test_bar_permutation_invariance(name):
    g = FX[name]
    for seed in range(6):
        h, _ = random_relabel(g, 40 + seed)
        for p in (2, 3):
            assert sorted_bar_diag(g, p) == sorted_bar_diag(h, p)


def test_trace_equals_sum_of_diag():
    for name in ("prism", "petersen", "rook4"):
        g = FX[name]
        for p in (2, 3, 4):
            table = bar_diag_table(g, (p,))[p]
            assert table.trace == sum(sorted_bar_diag(g, p))


def test_edge_partition_k3():
    triples = edge_partition(complete_graph(3), 2)
    assert {t[2] for t in triples} == {3}
    assert 2 * len(triples) == 6


def test_edge_partition_edge_transitive():
    triples = edge_partition(FX["petersen"], 4)
    assert len({t[2] for t in triples}) == 1
    assert 2 * len(triples) == 30


def test_edge_partition_nontrivial_split():
    # prism: triangle edges and cross edges get different closed-walk counts
    triples = edge_partition(FX["prism"], 2)
    counts = collections.Counter(t[2] for t in triples)
    assert {value: 2 * n for value, n in counts.items()} == {6: 12, 7: 6}  # directed edges
    assert len(triples) == 9
    assert triples == sorted(triples)
    assert {t[2] for t in triples} == {6, 7}
    # isomorphisms preserve the blocks: cross edges are the 7-valued ones
    cross = {(a, b) for a, b, v in triples if v == 7}
    assert cross == {(0, 3), (1, 4), (2, 5)}


def test_bar_values_in_modular_mode():
    g = FX["prism"]
    exact = sorted_bar_diag(g, 2)
    modded = sorted_bar_diag(g, 2, modulus=DEFAULT_MODULUS)
    # every value lies below p1 * p2, where the residue is the exact value
    assert modded == exact


def test_bar_matrix_entries_match_definition():
    g = FX["prism"]
    bar = build_bar_matrix(g)
    a = g.dense().astype(int)
    assert bar.blocks.dtype == np.int8  # signed: B- has entries -1..1
    undirected = [(x, y) for x, y in directed_edges(g) if x < y]
    assert bar.blocks.shape == (2, 9, 9)

    def directed(x, y, c, d):  # the bar matrix entry at ((x,y),(c,d))
        return a[x, c] * a[y, d]

    for i, (x, y) in enumerate(undirected):
        for j, (c, d) in enumerate(undirected):
            assert bar.blocks[0, i, j] == directed(x, y, c, d) + directed(x, y, d, c)
            assert bar.blocks[1, i, j] == directed(x, y, c, d) - directed(x, y, d, c)
    # the directed diagonal is zero: entry((a,b),(a,b)) = A_aa * A_bb
    assert not np.diagonal(bar.blocks[0] + bar.blocks[1]).any()


@pytest.mark.parametrize("modulus", [None, (5, 7)])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_bar_table_matches_dense_in_every_tier(tier, modulus, monkeypatch):
    # forced object tier with (5, 7) reduces the half powers, so halving
    # their diagonal sums takes the inverse of 2 mod 35
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    powers = (2, 3, 4, 5)
    for g in (FX["prism"], FX["petersen"], er_graph(7, 31)):
        pairs = directed_edges(g)
        table = bar_diag_table(g, powers, modulus=modulus)
        for p in powers:
            dense = dense_bar_power_diag(g, p)
            want = [residue(dense[pair], modulus) for pair in pairs]
            assert per_directed_edge(g, table[p].values) == want
            assert table[p].trace == residue(sum(dense[pair] for pair in pairs), modulus)


def test_modular_t8_tables_are_exact_int64():
    # T(8) edge values at powers 2..5 fit int64, so the residues do too
    g, powers = triangular_graph(8), (2, 3, 4, 5)
    exact = bar_diag_table(g, powers)
    modded = bar_diag_table(g, powers, modulus=DEFAULT_MODULUS)
    for p in powers:
        assert modded[p].values.dtype == np.int64
        assert np.array_equal(modded[p].values, exact[p].values)
        assert modded[p].trace == exact[p].trace


def test_exact_overflow_boundary_on_t8():
    # the blocks' half powers bound the bar matrix's by magnitude, so the
    # first edge power to overflow on T(8) is still 12
    g = triangular_graph(8)
    assert bar_diag_table(g, (11,))[11].trace > 0
    with pytest.raises(MatrixOverflowError):
        bar_diag_table(g, (12,))


def record_buffered(monkeypatch) -> list[bool]:
    """Whether each ``checked_matmul`` product, from now on, was written into
    the buffer it was given."""
    buffered = []
    real = matpow.checked_matmul

    def recording(a, b, **kwargs):
        got = real(a, b, **kwargs)
        buffered.append(got is kwargs.get("out") is not None)
        return got

    monkeypatch.setattr(matpow, "checked_matmul", recording)
    return buffered


def test_bar_tables_in_sequence_equal_fresh_tables(monkeypatch):
    # Rook(4) and Shrikhande both have 48 edges, below the syrk order: the
    # second table reuses the float64 buffers the first one wrote its base
    # and powers into
    powers = (2, 3, 4, 5)
    g1, g2 = FX["rook4"], FX["shrikhande"]

    def fresh(g):
        monkeypatch.setattr(edgeinv, "_thread_buffers", threading.local())
        return bar_diag_table(g, powers)

    want = [fresh(g1), fresh(g2)]
    monkeypatch.setattr(edgeinv, "_thread_buffers", threading.local())
    buffered = record_buffered(monkeypatch)
    got = [bar_diag_table(g1, powers)]
    bufs = edgeinv._thread_buffers.bufs
    assert all(b.dtype == np.float64 for b in bufs)
    got.append(bar_diag_table(g2, powers))
    assert edgeinv._thread_buffers.bufs is bufs
    assert buffered == [True, True] * 4  # B^2 and B^4 of each block of each table
    assert list(map(table_data, got)) == list(map(table_data, want))
    for table in got:  # nothing points into a buffer
        for diag in table.values():
            assert type(diag.trace) is int
            assert not any(np.shares_memory(diag.values, buf) for buf in bufs)


def test_bar_buffers_hold_one_block(monkeypatch):
    # the blocks are powered one at a time, into three buffers of one block;
    # 270 edges pass the syrk order, so B^2 and B^4 (bounds 270 * 2**2 and
    # 270 * 113**2) are float32 syrk squares and the buffers are float32
    monkeypatch.setattr(edgeinv, "_thread_buffers", threading.local())
    graphs, _ = latin_graphs(6, 1, 3, paratopes=True)
    edges = graphs[0].edge_count
    assert edges == 270 >= matpow._SYRK_ORDER
    buffered = record_buffered(monkeypatch)
    tables = [bar_diag_table(graphs[0], (2, 3, 4, 5))]
    bufs = edgeinv._thread_buffers.bufs
    assert len(bufs) == 3
    assert all(b.dtype == np.float32 and b.shape == (1, edges, edges) for b in bufs)
    assert buffered == [True, True] * 2
    before = list(bufs)
    tables.append(bar_diag_table(graphs[1], (2, 3, 4, 5)))
    assert edgeinv._thread_buffers.bufs is bufs
    assert all(a is b for a, b in zip(bufs, before))
    for table in tables:
        for diag in table.values():
            assert not any(np.shares_memory(diag.values, buf) for buf in bufs)


def test_t8_tables_past_the_odd_square_equal_the_directed_oracle(monkeypatch):
    # requested together, odd powers 5 and 9 read M^4 and M^8 of both
    # blocks; at 11 the square of M^5 passes 2^53 in B+, which keeps the
    # (M^5, M^6) split, and not in B-, which reads M^10
    g, powers = triangular_graph(8), tuple(range(2, 12))
    engines = []
    real = edgeinv.power_cache

    def recording(*args, **kwargs):
        engines.append(real(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(edgeinv, "power_cache", recording)
    table = bar_diag_table(g, powers)
    plus, minus = engines
    assert sorted(plus._pows) == [1, 2, 3, 4, 5, 6, 8]
    assert sorted(minus._pows) == [1, 2, 3, 4, 5, 8, 10]
    want = directed_bar_power_diags(g, powers)
    for p in powers:
        assert per_directed_edge(g, table[p].values) == want[p]
        assert table[p].trace == sum(want[p])


@pytest.mark.parametrize("tier", ["int64", "object"])
def test_bar_tables_without_float64_products(tier, monkeypatch):
    powers = (2, 3, 4, 5)
    graphs = (FX["rook4"], FX["shrikhande"], FX["petersen"])
    want = [table_data(bar_diag_table(g, powers)) for g in graphs]
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    assert [table_data(bar_diag_table(g, powers)) for g in graphs] == want
