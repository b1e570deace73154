"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The dataset
reproduction criteria need the Spence SRG files; point SRGINV_DATASET at
a directory containing them (graph6 or raw 0/1 rows), otherwise those
tests skip with an explicit notice.
"""

import time

import numpy as np
import pytest

from srginv.catalog import complete_graph, rook_graph, shrikhande_graph
from srginv.cli import main
from srginv.graph import SrgParams, check_srg
from srginv.isomorphism import (
    NON_ISOMORPHIC,
    are_isomorphic,
    random_relabel,
)
from srginv.matpow import DEFAULT_MODULUS, MatrixOverflowError, power_cache
from srginv.pipeline import (
    StageKind,
    compare_pair,
    dataset_report,
    load_dataset,
)
from srginv.vertexinv import (
    InvariantMode,
    graph_signature,
    NeighborhoodPowerCache,
)
from srginv.edgeinv import bar_diag_table

from helpers import (
    count_closed_walks,
    dense_bar_power_diag,
    dense_tilde_power_diag,
    directed_edges,
    er_graph,
    fixture_graphs,
    nbhd_power_diag,
    per_directed_edge,
    sorted_bar_diag,
    trace_power_signature,
    vertex_partition,
)

TRACE = InvariantMode.TRACE
SD = InvariantMode.SORTED_DIAG


def ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: fixture separation, no dataset needed


def test_criterion_1_fixture_separation():
    start = time.perf_counter()
    rook, shrik = rook_graph(4), shrikhande_graph()
    assert check_srg(rook) == SrgParams(16, 6, 2, 2)
    assert check_srg(shrik) == SrgParams(16, 6, 2, 2)
    for a in range(16):
        assert nbhd_power_diag(rook, a, 3, TRACE) == (12,)
        assert nbhd_power_diag(shrik, a, 3, TRACE) == (0,)
    verdict = compare_pair(rook, shrik)
    assert verdict.distinguished and verdict.stage == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture separation took {elapsed:.3f}s"
    ok(f"1 fixture separation ({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 2: dataset reproduction (skips with notice when absent)


def stage_classes(report, kind, mode, powers):
    for res in report.stages:
        if res.kind is kind and res.mode is mode and res.powers == tuple(powers):
            return res.classes
    return None


@pytest.fixture(scope="module")
def spence_report():
    from conftest import dataset_location

    loc = dataset_location()
    if loc is None:
        pytest.skip(
            "Spence SRG dataset not found; set SRGINV_DATASET to run the "
            "dataset reproduction criteria"
        )
    start = time.perf_counter()
    entries = load_dataset(loc)
    report = dataset_report(entries)
    print(f"\ndataset report over {len(entries)} graphs took "
          f"{time.perf_counter() - start:.1f}s")
    return report


def family(report, key):
    for fam in report.families:
        if fam.family == key:
            return fam
    raise AssertionError(f"family {key} missing from the dataset")


def test_criterion_2_family_25_12_5_6(spence_report):
    fam = family(spence_report, "25-12-5-6")
    assert fam.count == 15
    assert stage_classes(fam, StageKind.VERTEX, TRACE, (3,)) == 8
    assert stage_classes(fam, StageKind.VERTEX, SD, (3,)) == 13
    assert stage_classes(fam, StageKind.VERTEX, SD, (3, 4)) == 15
    assert fam.distinguished
    ok("2 family 25-12-5-6 (8 / 13 / 15)")


def test_criterion_2_family_26_10_3_4(spence_report):
    fam = family(spence_report, "26-10-3-4")
    assert fam.count == 10
    assert stage_classes(fam, StageKind.VERTEX, TRACE, (3,)) == 8
    assert stage_classes(fam, StageKind.VERTEX, TRACE, (3, 4)) == 10
    assert fam.distinguished
    ok("2 family 26-10-3-4 (8 / 10)")


def test_criterion_2_family_29_14_6_7(spence_report):
    fam = family(spence_report, "29-14-6-7")
    assert fam.count == 41
    assert stage_classes(fam, StageKind.VERTEX, TRACE, (3,)) == 19
    assert stage_classes(fam, StageKind.VERTEX, TRACE, (3, 4)) == 21
    assert stage_classes(fam, StageKind.VERTEX, SD, (3,)) == 41
    assert fam.distinguished
    ok("2 family 29-14-6-7 (19 / 21 / 41)")


def test_criterion_2_family_37_18_8_9(spence_report):
    fam = family(spence_report, "37-18-8-9")
    assert fam.count == 6760
    assert stage_classes(fam, StageKind.VERTEX, SD, (3,)) == 6760
    assert fam.distinguished
    ok("2 family 37-18-8-9 (6760)")


def test_criterion_2_families_with_trace3_complete(spence_report):
    fam = family(spence_report, "45-12-3-3")
    assert fam.count == 78
    assert stage_classes(fam, StageKind.VERTEX, TRACE, (3,)) == 78
    fam = family(spence_report, "50-21-8-9")
    assert fam.count == 18
    assert stage_classes(fam, StageKind.VERTEX, TRACE, (3,)) == 18
    ok("2 families 45-12-3-3 (78) and 50-21-8-9 (18) at trace p=3")


def test_criterion_2_full_dataset(spence_report):
    totals = spence_report.totals
    assert totals["graphs"] == 43717
    assert totals["pairs_requiring_edge_stages"] == 4
    needing_edge = {
        fam.family for fam in spence_report.families if fam.pairs_requiring_edge
    }
    assert needing_edge == {"36-14-4-6", "36-15-6-6", "40-12-2-4", "64-18-2-6"}
    assert totals["unresolved_pairs"] == 0
    assert totals["distinguished_all"] is True
    assert totals["single_block_graphs"] == 39
    ok("2 full dataset (43717 graphs, 4 edge pairs, 0 unresolved, 39 single-block)")


# ---------------------------------------------------------------------------
# criterion 3: property suites, always run


def test_criterion_3_permutation_invariance():
    fixtures = ["rook4", "shrikhande", "petersen", "paley13", "prism"]
    fx = fixture_graphs()
    seeds_per_graph = 40  # 5 * 40 = 200 relabelings
    checked = 0
    for name in fixtures:
        g = fx[name]
        base_vertex = sorted(NeighborhoodPowerCache(g).signature_values((3, 4), SD))
        base_graph = graph_signature(g, (3, 4), SD)
        base_graph_tr = graph_signature(g, (3, 4), TRACE)
        base_edge = sorted_bar_diag(g, 2)
        for seed in range(seeds_per_graph):
            h, _ = random_relabel(g, seed * 31 + hash(name) % 997)
            assert sorted(NeighborhoodPowerCache(h).signature_values((3, 4), SD)) == base_vertex
            assert graph_signature(h, (3, 4), SD) == base_graph
            assert graph_signature(h, (3, 4), TRACE) == base_graph_tr
            assert sorted_bar_diag(h, 2) == base_edge
            checked += 1
    assert checked == 200
    ok("3 permutation invariance (200 relabelings, 5 fixtures)")


def test_criterion_3_closed_walk_oracle():
    fx = fixture_graphs()
    graphs = [er_graph(3 + s % 6, 5000 + s, p=0.4 + (s % 3) * 0.2) for s in range(500)]
    graphs += list(fx.values())
    checked = 0
    for g in graphs:
        dense = g.dense()
        for b in range(g.v):
            nb = g.neighborhood(b)
            if not nb:
                continue
            sub = dense[np.ix_(nb, nb)]
            cache = power_cache(sub[None, :, :])
            for p in range(1, 6):
                diag = cache.diagonals(p)[0]
                for pos, a in enumerate(nb):
                    assert diag[pos] == count_closed_walks(g, a, p, nb), (g, b, a, p)
                    checked += 1
    assert checked > 10000
    ok(f"3 closed-walk oracle ({checked} diagonal entries, 500 random + fixtures)")


def test_criterion_3_dense_matrix_equivalences():
    fx = fixture_graphs()
    small = {n: g for n, g in fx.items() if g.v <= 10}
    small["er9"] = er_graph(9, 77)
    small["er10"] = er_graph(10, 78, p=0.3)
    for name, g in small.items():
        for p in (1, 2, 3, 4):
            tilde = dense_tilde_power_diag(g, p)
            for b in range(g.v):
                nb = g.neighborhood(b)
                got = nbhd_power_diag(g, b, p, SD)
                assert tuple(sorted(tilde[(a, b)] for a in nb)) == got, (name, p, b)
                for a in range(g.v):
                    if not g.has_edge(a, b):
                        assert tilde[(a, b)] == 0
            if p >= 2:
                bar = dense_bar_power_diag(g, p)
                pairs = directed_edges(g)
                if pairs:
                    table = bar_diag_table(g, (p,))[p]
                    for pair, val in zip(pairs, per_directed_edge(g, table.values)):
                        assert bar[pair] == val, (name, p, pair)
                for a in range(g.v):
                    for b in range(g.v):
                        if not g.has_edge(a, b):
                            assert bar[(a, b)] == 0
    ok("3 tilde and bar dense-restriction equivalence (v <= 10, p <= 4)")


def test_criterion_3_refinement_and_dominance():
    violations = 0
    for seed in range(200):
        g = er_graph(8, 9000 + seed)
        prev_blocks = None
        for powers in ((3,), (3, 4), (3, 4, 5)):
            blocks = vertex_partition(g, powers)
            if prev_blocks is not None:
                for block in blocks:
                    owners = {
                        next(i for i, ob in enumerate(prev_blocks) if v in ob)
                        for v in block
                    }
                    if len(owners) != 1:
                        violations += 1
            prev_blocks = blocks
        h = er_graph(8, 9500 + seed)
        if graph_signature(g, (3, 4), TRACE) != graph_signature(h, (3, 4), TRACE):
            if graph_signature(g, (3, 4), SD) == graph_signature(h, (3, 4), SD):
                violations += 1
    assert violations == 0
    ok("3 refinement monotonicity and mode dominance (200 graphs, 0 violations)")


def test_criterion_3_oracle_cross_check():
    fx = fixture_graphs()
    names = sorted(n for n in fx if fx[n].v <= 16)
    compared = 0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            g, h = fx[a], fx[b]
            if g.v != h.v:
                continue
            if sorted(g.rows[x].bit_count() for x in range(g.v)) != sorted(
                h.rows[x].bit_count() for x in range(h.v)
            ):
                continue
            if compare_pair(g, h).distinguished:
                assert are_isomorphic(g, h).status == NON_ISOMORPHIC, (a, b)
                compared += 1
    assert compared >= 2  # at least rook/shrikhande and k33/prism
    ok(f"3 oracle cross-check ({compared} distinguished fixture pairs confirmed)")


# ---------------------------------------------------------------------------
# criterion 4: overflow policy


def test_criterion_4_overflow_and_modular_fallback(tmp_path, capsys):
    with pytest.raises(MatrixOverflowError):
        trace_power_signature(complete_graph(24), 24)

    sig = trace_power_signature(complete_graph(24), 24, modulus=DEFAULT_MODULUS)
    assert len(sig) == 24

    fa = tmp_path / "rook.g6"
    fb = tmp_path / "shrik.g6"
    fa.write_text(rook_graph(4).to_graph6() + "\n")
    fb.write_text(shrikhande_graph().to_graph6() + "\n")
    assert main(["compare", str(fa), str(fb), "--modulus"]) == 0
    out = capsys.readouterr().out
    assert "distinguished: stage 1" in out
    ok("4 overflow error raised; modular mode completes and separates the pair")
