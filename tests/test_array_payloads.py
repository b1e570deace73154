"""The ladder's array payloads must split graphs exactly as tuples do.

The vertex stages key each graph by its signature table as bytes, and the
outblock stage finds its first block on that table. Here the tuple
payloads are rebuilt from the per-vertex value tuples
(``NeighborhoodPowerCache.signature_values``, sorted with the reference
``row_sort_key``), and over every pair of graphs the
two payloads must agree on equality: under each forced arithmetic tier,
exactly and in modular mode. The edge stages key each graph by its
traces, or by its sorted undirected-edge values as bytes; those must split
graphs exactly as the tuples of ``bar_diag_table`` do.
"""

import itertools
import sys
from pathlib import Path

import pytest

from srginv import matpow, pipeline
from srginv.catalog import chang_graphs, triangular_graph
from srginv.isomorphism import random_relabel
from srginv.matpow import DEFAULT_MODULUS
from srginv.pipeline import LadderStage, StageKind, _GraphState
from srginv.vertexinv import (
    InvariantMode,
    NeighborhoodPowerCache,
    graph_signature,
    outblock_signature,
)

from helpers import TIERS, er_graph, first_block, row_sort_key, srg_fixtures

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from latin import latin_graphs  # noqa: E402

TRACE = InvariantMode.TRACE
SD = InvariantMode.SORTED_DIAG

STAGES = (
    LadderStage(StageKind.VERTEX, TRACE, (3,)),
    LadderStage(StageKind.VERTEX, TRACE, (3, 4, 5)),
    LadderStage(StageKind.VERTEX, SD, (1, 2)),
    LadderStage(StageKind.VERTEX, SD, (3,)),
    LadderStage(StageKind.VERTEX, SD, (3, 4, 5)),
    LadderStage(StageKind.VERTEX_OUTBLOCK, SD, (3, 4, 5)),
    LadderStage(StageKind.VERTEX_OUTBLOCK, TRACE, (2, 3)),
)
VERTEX_POWERS = (1, 2, 3, 4, 5)


def payload_graphs():
    graphs = []
    for g in srg_fixtures().values():
        graphs += [g, random_relabel(g, 1)[0], random_relabel(g, 2)[0]]
    # irregular, of 5..12 vertices, some of equal size
    graphs += [er_graph(5 + seed % 8, 900 + seed, 0.3 + 0.05 * (seed % 8)) for seed in range(30)]
    graphs += [triangular_graph(8), *chang_graphs()]
    latin, _ = latin_graphs(6, 3, 11, paratopes=True)
    return graphs + latin


GRAPHS = payload_graphs()


def values(g, powers, mode, modulus):
    return NeighborhoodPowerCache(g, modulus).signature_values(powers, mode)


def tuple_payload(g, stage, modulus):
    """The stage's payload as nested tuples, from the per-vertex values."""
    vals = values(g, stage.powers, stage.mode, modulus)
    base = tuple(sorted(vals, key=row_sort_key))
    if stage.kind is StageKind.VERTEX:
        return base
    if base[0] == base[-1]:
        return (base, None)
    keep = [a for a, row in enumerate(vals) if row != base[0]]
    tail = values(g.induced_subgraph(keep), stage.powers, stage.mode, modulus)
    return (base, tuple(sorted(tail, key=row_sort_key)))


@pytest.mark.parametrize(
    "modulus", [None, DEFAULT_MODULUS, (5, 7)], ids=["exact", "modular", "5,7"]
)
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_payload_equality_matches_the_tuples(tier, modulus, monkeypatch):
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    states = [_GraphState(g, modulus, VERTEX_POWERS) for g in GRAPHS]
    for stage in STAGES:
        new = [state.payload(stage) for state in states]
        old = [tuple_payload(g, stage, modulus) for g in GRAPHS]
        for i, j in itertools.combinations(range(len(GRAPHS)), 2):
            assert (new[i] == new[j]) == (old[i] == old[j]), (stage.label(), i, j)
        # the ladder groups payloads in a dict: hashing must agree too
        assert len(set(new)) == len(set(old)), stage.label()


EDGE_STAGES = (
    LadderStage(StageKind.EDGE, TRACE, (2, 3, 4, 5)),
    LadderStage(StageKind.EDGE, SD, (2, 3, 4, 5)),
)


@pytest.mark.parametrize(
    "modulus", [None, DEFAULT_MODULUS, (5, 7)], ids=["exact", "modular", "5,7"]
)
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_edge_payload_equality_matches_the_tables(tier, modulus, monkeypatch):
    # Etr keys on the traces, Esd on the sorted |E| values (bytes, or a
    # tuple past int64); both must split pairs as the table tuples do
    for name, value in TIERS[tier].items():
        monkeypatch.setattr(matpow, name, value)
    # object products on the 270-edge bar blocks of the order-6 Latin
    # square graphs take seconds per graph; the smaller graphs run them all
    graphs = [g for g in GRAPHS if tier != "object" or g.v < 36]
    tables = []  # the tables the states compute, in graph order
    real = pipeline.bar_diag_table

    def recording(*args, **kwargs):
        tables.append(real(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(pipeline, "bar_diag_table", recording)
    states = [_GraphState(g, modulus, ()) for g in graphs]
    for stage in EDGE_STAGES:
        new = [state.payload(stage) for state in states]
        read = (lambda d: d.trace) if stage.mode is TRACE else (lambda d: tuple(sorted(d.values.tolist())))
        old = [tuple(read(table[p]) for p in stage.powers) for table in tables]
        assert len(old) == len(graphs)  # one table per graph, reused by Esd
        for i, j in itertools.combinations(range(len(graphs)), 2):
            assert (new[i] == new[j]) == (old[i] == old[j]), (stage.label(), i, j)
        assert len(set(new)) == len(set(old)), stage.label()


def test_modular_esd_keys_on_bytes():
    # residues below int64 key as the exact values do, not as a tuple
    stage = EDGE_STAGES[-1]
    assert stage.mode is SD
    g = triangular_graph(8)
    key = _GraphState(g, DEFAULT_MODULUS, ()).payload(stage)
    assert all(type(k) is bytes for k in key)
    assert key == _GraphState(g, None, ()).payload(stage)


def test_outblock_removes_the_first_block_by_residue_order():
    # under primes (3, 5), values are residues mod 15: the fourth-power
    # diagonal (3, 7, 7, 11) is the smallest by value, but (10, 10, 15, 15)
    # reduces to (0, 0, 10, 10), below it, so the first block is that one
    g, modulus = er_graph(7, 149, 0.5), (3, 5)
    vals = values(g, (4,), SD, modulus)
    removed, by_value = first_block(vals), first_block(values(g, (4,), SD, None))
    assert removed != by_value
    nb = outblock_signature(g, (4,), SD, modulus=modulus)
    assert nb.base.rows == tuple(sorted(vals, key=row_sort_key))
    tails = {}
    for block in (removed, by_value):
        keep = [a for a in range(g.v) if a not in block]
        rows = values(g.induced_subgraph(keep), (4,), SD, modulus)
        tails[tuple(block)] = tuple(sorted(rows, key=row_sort_key))
    # the tail is the subgraph without the residue-order block, and only that one
    assert nb.tail.rows == tails[tuple(removed)] != tails[tuple(by_value)]


def test_python_int_tables_sort_and_key_as_their_rows():
    # at power 30 the Chang graphs' residues pass int64, so their tables hold
    # Python ints; relabelings must key alike, and rows come out sorted
    for g in chang_graphs():
        h = random_relabel(g, 3)[0]
        for mode in InvariantMode:
            vals = values(g, (30,), mode, DEFAULT_MODULUS)
            assert max(max(row) for row in vals) > 2**63
            sig = NeighborhoodPowerCache(g, DEFAULT_MODULUS).signature((30,), mode)
            again = NeighborhoodPowerCache(h, DEFAULT_MODULUS).signature((30,), mode)
            assert sig == again and hash(sig) == hash(again)
            assert sig.rows == tuple(sorted(vals, key=row_sort_key))
        nb = outblock_signature(g, (30,), SD, modulus=DEFAULT_MODULUS)
        removed = first_block(values(g, (30,), SD, DEFAULT_MODULUS))
        tail = g.induced_subgraph([a for a in range(g.v) if a not in removed])
        assert nb.tail == graph_signature(tail, (30,), SD, modulus=DEFAULT_MODULUS)
