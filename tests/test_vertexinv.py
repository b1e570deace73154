import random
from pathlib import Path

import pytest

from srginv.catalog import chang_graphs, complete_graph, cycle_graph, star_graph
from srginv.graph import Graph
from srginv.isomorphism import apply_permutation, random_relabel
from srginv.matpow import DEFAULT_MODULUS
from srginv.pipeline import StageKind, default_ladder, read_graphs
from srginv.vertexinv import (
    InvariantMode,
    NeighborhoodPowerCache,
    graph_signature,
    outblock_signature,
)

from helpers import (
    count_closed_walks,
    cli_json,
    dense_tilde_power_diag,
    er_graph,
    first_block,
    fixture_graphs,
    nbhd_power_diag,
    vertex_partition,
)

FX = fixture_graphs()
TRACE = InvariantMode.TRACE
SD = InvariantMode.SORTED_DIAG


def paw_graph() -> Graph:
    # triangle 0-1-2 with a pendant vertex 3 on 0: three signature classes
    return Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def values(g, powers, mode, modulus=None):
    """Per-vertex values, the ``vertex_signatures`` of ``srginv vertex-inv``."""
    return NeighborhoodPowerCache(g, modulus).signature_values(powers, mode)


def test_rook_trace_p3():
    g = FX["rook4"]
    for a in range(16):
        assert nbhd_power_diag(g, a, 3, TRACE) == (12,)


def test_shrikhande_trace_p3():
    g = FX["shrikhande"]
    for a in range(16):
        assert nbhd_power_diag(g, a, 3, TRACE) == (0,)


def test_both_166_22_graphs_agree_at_p4():
    # p=4 alone cannot separate the pair: two triangles and a hexagon share
    # the closed-4-walk count 36
    assert nbhd_power_diag(FX["rook4"], 0, 4, TRACE) == (36,)
    assert nbhd_power_diag(FX["shrikhande"], 0, 4, TRACE) == (36,)


def test_petersen_sorted_diag():
    g = FX["petersen"]
    for a in range(10):
        for p in (1, 2, 3, 4):
            assert nbhd_power_diag(g, a, p, SD) == (0, 0, 0)


def test_degree_zero_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    assert nbhd_power_diag(g, 2, 3, SD) == ()
    assert nbhd_power_diag(g, 2, 3, TRACE) == (0,)


def test_bad_arguments():
    g = FX["petersen"]
    with pytest.raises(ValueError):
        nbhd_power_diag(g, 99, 3, TRACE)
    with pytest.raises(ValueError):
        nbhd_power_diag(g, 0, 0, TRACE)
    with pytest.raises(ValueError):
        graph_signature(g, [], TRACE)
    with pytest.raises(ValueError):
        graph_signature(g, [3, 3], TRACE)
    with pytest.raises(ValueError):
        graph_signature(g, [4, 3], TRACE)


def closed_walk_diag(g, a, p):
    nb = g.neighborhood(a)
    return tuple(sorted(count_closed_walks(g, b, p, nb) for b in nb))


@pytest.mark.parametrize("name", ["rook4", "shrikhande", "petersen", "c5", "t5", "prism"])
def test_closed_walk_oracle_fixtures(name):
    g = FX[name]
    for a in range(g.v):
        for p in (1, 2, 3, 4, 5):
            assert nbhd_power_diag(g, a, p, SD) == closed_walk_diag(g, a, p), (name, a, p)


@pytest.mark.parametrize("seed", range(30))
def test_closed_walk_oracle_random(seed):
    g = er_graph(4 + seed % 5, seed, p=0.5)
    for a in range(g.v):
        for p in (1, 2, 3, 4, 5):
            assert nbhd_power_diag(g, a, p, SD) == closed_walk_diag(g, a, p)


@pytest.mark.parametrize("name", ["c5", "petersen", "k33", "prism", "k4", "star3", "path4", "t5"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_tilde_matrix_equivalence_fixtures(name, p):
    g = FX[name]
    if g.v > 10:
        pytest.skip("dense tilde oracle is limited to v <= 10")
    dense = dense_tilde_power_diag(g, p)
    for b in range(g.v):
        nb = g.neighborhood(b)
        diag = nbhd_power_diag(g, b, p, SD)
        restricted = {}
        pos = {x: i for i, x in enumerate(nb)}
        # unsorted diagonal entries, via per-vertex walk counting positions
        for a in range(g.v):
            if a in pos:
                restricted[a] = count_closed_walks(g, a, p, nb)
            else:
                restricted[a] = 0
        for a in range(g.v):
            assert dense[(a, b)] == restricted[a], (name, p, a, b)
        assert tuple(sorted(v for k, v in restricted.items() if k in pos)) == diag


@pytest.mark.parametrize("seed", range(10))
def test_tilde_matrix_equivalence_random(seed):
    g = er_graph(5 + seed % 4, 50 + seed)
    for p in (2, 3, 4):
        dense = dense_tilde_power_diag(g, p)
        for b in range(g.v):
            nb = set(g.neighborhood(b))
            got = dict()
            for a in range(g.v):
                got[a] = count_closed_walks(g, a, p, nb) if a in nb else 0
            for a in range(g.v):
                assert dense[(a, b)] == got[a]
            assert tuple(sorted(got[a] for a in nb)) == nbhd_power_diag(g, b, p, SD)


def test_vertex_signatures_examples():
    for row in values(complete_graph(4), (3,), TRACE):
        assert row == (6,)
    for row in values(cycle_graph(5), (2, 3), SD):
        assert row == (0, 0, 0, 0)
    for row in values(FX["rook4"], (3, 4), TRACE):
        assert row == (12, 36)


def test_signature_lengths_and_sorting():
    g = paw_graph()
    for a, row in enumerate(values(g, (2, 3), SD)):
        assert len(row) == 2 * g.degree(a)
        seg = row[: g.degree(a)]
        assert list(seg) == sorted(seg)
        assert all(x >= 0 for x in row)


def test_trace_is_sum_of_sorted_diag():
    for name in ("rook4", "prism", "paley13"):
        g = FX[name]
        for powers in ((2,), (3,), (2, 3, 4)):
            tr = values(g, powers, TRACE)
            sd = values(g, powers, SD)
            for a, (t, s) in enumerate(zip(tr, sd)):
                d = g.degree(a)
                for i, p in enumerate(powers):
                    seg = s[i * d : (i + 1) * d]
                    assert t[i] == sum(seg)


@pytest.mark.parametrize("name", ["rook4", "shrikhande", "petersen", "prism", "paley13"])
@pytest.mark.parametrize("mode", [TRACE, SD])
def test_graph_signature_permutation_invariance(name, mode):
    g = FX[name]
    for seed in range(8):
        h, _ = random_relabel(g, seed)
        assert graph_signature(g, [3, 4], mode) == graph_signature(h, [3, 4], mode)


def test_rook_shrikhande_signatures_differ():
    a = graph_signature(FX["rook4"], [3], TRACE)
    b = graph_signature(FX["shrikhande"], [3], TRACE)
    assert a.rows == ((12,),) * 16
    assert b.rows == ((0,),) * 16
    assert a != b


def test_partition_single_block():
    assert vertex_partition(FX["petersen"], [3]) == [list(range(10))]
    assert vertex_partition(FX["rook4"], [3], TRACE) == [list(range(16))]


def test_partition_blocks_and_order():
    (graph,) = cli_json(["vertex-inv", "--powers", "2"], paw_graph())["graphs"]
    # ascending by (length, values): pendant (0,), triangle pair (1,1), hub (0,1,1)
    assert graph["partition"] == [[3], [1, 2], [0]]
    signatures = list(dict.fromkeys(map(tuple, graph["graph_signature"])))
    assert signatures == [(0,), (1, 1), (0, 1, 1)]


def test_partition_all_distinct():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    covered = sorted(v for b in vertex_partition(g, [2, 3]) for v in b)
    assert covered == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(40))
def test_refinement_monotonicity(seed):
    g = er_graph(8, 300 + seed)
    prev = None
    for powers in ([2], [2, 3], [2, 3, 4], [2, 3, 4, 5]):
        blocks = vertex_partition(g, powers)
        if prev is not None:
            # every new block must sit inside one old block
            for block in blocks:
                holders = {next(i for i, ob in enumerate(prev) if v in ob) for v in block}
                assert len(holders) == 1
        prev = blocks


@pytest.mark.parametrize("seed", range(40))
def test_mode_dominance(seed):
    g = er_graph(7, 600 + seed)
    h = er_graph(7, 700 + seed)
    for powers in ([2, 3], [3, 4]):
        if graph_signature(g, powers, TRACE) != graph_signature(h, powers, TRACE):
            assert graph_signature(g, powers, SD) != graph_signature(h, powers, SD)


def test_outblock_single_block_flagged():
    ob = outblock_signature(FX["petersen"], [3], SD)
    assert ob.tail is None
    assert ob.base == graph_signature(FX["petersen"], [3], SD)


def test_outblock_refined():
    g = paw_graph()
    ob = outblock_signature(g, [2], SD)
    assert first_block(values(g, [2], SD)) == [3]  # the pendant vertex's
    assert ob.tail == graph_signature(g.induced_subgraph([0, 1, 2]), [2], SD)
    assert ob.tail == graph_signature(complete_graph(3), [2], SD)


def test_outblock_degenerate_tail():
    # removing the leaves of a star keeps only the isolated center
    g = star_graph(3)
    ob = outblock_signature(g, [2], SD)
    assert first_block(values(g, [2], SD)) == [1, 2, 3]
    assert ob.tail == graph_signature(g.induced_subgraph([0]), [2], SD)
    assert ob.tail.rows == ((),)


def test_zero_vertex_graph_signature():
    g = Graph(0, [])
    assert graph_signature(g, [3], SD).rows == ()
    assert values(g, (3,), TRACE) == []
    with pytest.raises(ValueError, match="empty signature list"):
        outblock_signature(g, [3], SD)


def test_modular_mode_matches_exact_for_small_values():
    g = FX["rook4"]
    exact = graph_signature(g, [3], TRACE)
    modded = graph_signature(g, [3], TRACE, modulus=DEFAULT_MODULUS)
    # every value lies below p1 * p2, where the residue is the exact value
    assert modded.rows == exact.rows


def test_relabel_invariance_in_modular_mode():
    g = FX["prism"]
    h = apply_permutation(g, (3, 4, 5, 0, 1, 2))
    assert graph_signature(g, [3, 4], SD, modulus=DEFAULT_MODULUS) == graph_signature(
        h, [3, 4], SD, modulus=DEFAULT_MODULUS
    )


def test_outblock_reuses_the_graph_cache(matmul_calls):
    graph_signature(complete_graph(3), [2, 3], SD)
    tail_products = len(matmul_calls)
    g = paw_graph()
    nbhd = NeighborhoodPowerCache(g)
    nbhd.ensure((2, 3))
    matmul_calls.clear()
    ob = outblock_signature(g, [2, 3], SD, nbhd=nbhd)
    assert len(matmul_calls) == tail_products  # the base signature came from nbhd
    assert ob == outblock_signature(g, [2, 3], SD)
    assert ob.tail == graph_signature(complete_graph(3), [2, 3], SD)


def test_outblock_rejects_a_foreign_cache():
    g = paw_graph()
    with pytest.raises(ValueError, match="same modulus"):
        outblock_signature(g, [2], SD, nbhd=NeighborhoodPowerCache(complete_graph(4)))
    with pytest.raises(ValueError, match="same modulus"):
        outblock_signature(g, [2], SD, nbhd=NeighborhoodPowerCache(g, DEFAULT_MODULUS))


def irregular_graph(seed: int) -> Graph:
    """Seeded random graph on 4..11 vertices, the last of them isolated."""
    rng = random.Random(seed)
    v = rng.randint(4, 11)
    p = rng.uniform(0.2, 0.8)
    edges = [(a, b) for a in range(v - 1) for b in range(a + 1, v - 1) if rng.random() < p]
    return Graph.from_edges(v, edges)


@pytest.mark.parametrize("modulus", [None, DEFAULT_MODULUS])
@pytest.mark.parametrize("mode", [TRACE, SD])
def test_batched_kernel_matches_per_vertex_reference(mode, modulus):
    powers = (1, 2, 3, 5)
    graphs = [irregular_graph(seed) for seed in range(60)]
    assert sum(len(set(g.dense().sum(axis=1).tolist())) >= 3 for g in graphs) >= 30
    for g in graphs:
        for a, row in enumerate(values(g, powers, mode, modulus)):
            want = sum((nbhd_power_diag(g, a, p, mode, modulus=modulus) for p in powers), ())
            assert row == want


SRG25 = Path(__file__).resolve().parent / "data" / "srg25_switched.g6"


@pytest.mark.parametrize("modulus", [None, DEFAULT_MODULUS], ids=["exact", "modular"])
def test_leading_signatures_equal_fresh_ones(modulus):
    # a graph holding every vertex power of the ladder keys each vertex
    # stage on leading columns of one table per mode, in one row order; it
    # must equal the signature sorted from that stage's own table
    ladder = default_ladder()
    stages = [s for s in ladder.stages if s.kind is StageKind.VERTEX]
    assert len(stages) == 14
    graphs = [*FX.values(), *(g for _, _, g in read_graphs(SRG25))]
    for g in graphs:
        nbhd = NeighborhoodPowerCache(g, modulus)
        nbhd.ensure(ladder.vertex_powers())
        for stage in stages:
            got = nbhd.signature(stage.powers, stage.mode)
            fresh = graph_signature(g, stage.powers, stage.mode, modulus=modulus)
            assert got._key == fresh._key and hash(got) == hash(fresh)
            assert got.rows == fresh.rows


@pytest.mark.parametrize("mode", [TRACE, SD])
def test_leading_signature_fits_int64_below_a_wider_power(mode):
    # residues at power 30 pass int64, so the held table holds Python ints;
    # the power-3 columns fit and must key as the int64 bytes a fresh power-3
    # signature has, or graphs agreeing at power 3 could split there
    g = chang_graphs()[0]
    nbhd = NeighborhoodPowerCache(g, DEFAULT_MODULUS)
    nbhd.ensure((3, 30))
    assert max(map(max, nbhd.signature_values((3, 30), mode))) > 2**63
    assert nbhd._table((3, 30), mode).dtype == object
    got = nbhd.signature((3,), mode)
    fresh = graph_signature(g, (3,), mode, modulus=DEFAULT_MODULUS)
    assert type(got._key[-1][1]) is bytes
    assert got._key == fresh._key and got.rows == fresh.rows
