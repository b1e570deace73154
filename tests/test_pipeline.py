import collections
import gc
import gzip
import io
import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from srginv import pipeline, vertexinv
from srginv.catalog import (
    chang_graphs,
    cycle_graph,
    path_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
    triangular_graph,
)
from srginv.edgeinv import bar_diag_table
from srginv.graph import Graph, SrgParams, check_srg
from srginv.isomorphism import are_isomorphic, random_relabel
from srginv.matpow import DEFAULT_MODULUS, check_powers
from srginv.pipeline import (
    DatasetError,
    LadderConfig,
    LadderStage,
    StageKind,
    compare_pair,
    dataset_report,
    default_ladder,
    distinguish_family,
    group_families,
    load_dataset,
    read_graphs,
)
from srginv.vertexinv import InvariantMode, graph_signature, outblock_signature

from helpers import er_graph, fixture_graphs

FX = fixture_graphs()


def load_dataset_text(text: str, *, allow_non_srg: bool = False):
    """``load_dataset`` on ``text``, read from stdin."""
    with mock.patch("sys.stdin", io.StringIO(text)):
        return load_dataset("-", allow_non_srg=allow_non_srg)


def cube_graph() -> Graph:
    return Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 6), (3, 7)]
    )


def wagner_graph() -> Graph:
    return Graph.from_edges(
        8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    )


def test_default_ladder_shape():
    ladder = default_ladder()
    assert len(ladder.stages) == 17
    kinds = [s.kind for s in ladder.stages]
    assert kinds[:7] == [StageKind.VERTEX] * 7
    assert kinds[7:14] == [StageKind.VERTEX] * 7
    assert kinds[14] == StageKind.VERTEX_OUTBLOCK
    assert kinds[15:] == [StageKind.EDGE] * 2
    assert ladder.stages[0].powers == (3,)
    assert ladder.stages[6].powers == tuple(range(3, 10))
    assert ladder.stages[7].mode is InvariantMode.SORTED_DIAG
    assert ladder.stages[15].powers == (2, 3, 4, 5)
    assert ladder.vertex_powers() == tuple(range(3, 10))


def test_stage_validation():
    with pytest.raises(ValueError, match=">= 2"):
        LadderStage(StageKind.EDGE, InvariantMode.TRACE, (1, 2))
    with pytest.raises(ValueError, match="ascending"):
        LadderStage(StageKind.VERTEX, InvariantMode.TRACE, (3, 3))
    with pytest.raises(ValueError, match="nonempty"):
        LadderStage(StageKind.VERTEX, InvariantMode.TRACE, ())
    with pytest.raises(ValueError):
        LadderConfig(())
    for powers in ([4.0], [True, 3], [3.5]):
        text = json.dumps({"stages": [{"kind": "vertex", "mode": "trace", "powers": powers}]})
        with pytest.raises(ValueError, match="integers"):
            LadderConfig.from_json(text)


# every entry point that takes a power list, with its floor
POWER_LIST_ENTRIES = {
    "vertex_signatures": (1, lambda ps: graph_signature(FX["petersen"], ps, InvariantMode.TRACE)),
    "bar_diag_table": (2, lambda ps: bar_diag_table(FX["petersen"], ps)),
    "vertex stage": (1, lambda ps: LadderStage(StageKind.VERTEX, InvariantMode.TRACE, ps)),
    "edge stage": (2, lambda ps: LadderStage(StageKind.EDGE, InvariantMode.TRACE, ps)),
}


@pytest.mark.parametrize("entry", sorted(POWER_LIST_ENTRIES))
@pytest.mark.parametrize(
    "powers, fragment",
    [([], "nonempty"), ([3, 3], "strictly ascending"), ([4, 3], "strictly ascending"),
     ([0], ">= "), ([2.0], "integers"), ([True], "integers")],
)
def test_power_lists_share_one_validator(entry, powers, fragment):
    floor, call = POWER_LIST_ENTRIES[entry]
    with pytest.raises(ValueError, match=fragment) as want:
        check_powers(powers, floor)
    with pytest.raises(ValueError) as got:
        call(powers)
    assert str(got.value) == str(want.value)


def test_numpy_power_lists_become_python_ints():
    powers = check_powers(np.arange(3, 5))
    assert powers == (3, 4) and all(type(p) is int for p in powers)
    stage = LadderStage(StageKind.EDGE, InvariantMode.TRACE, np.arange(3, 5))
    assert stage.powers == (3, 4) and all(type(p) is int for p in stage.powers)
    assert all(type(p) is int for p in bar_diag_table(FX["petersen"], np.arange(3, 5)))
    sig = graph_signature(FX["petersen"], np.arange(3, 5), InvariantMode.TRACE)
    assert sig == graph_signature(FX["petersen"], [3, 4], InvariantMode.TRACE)


def test_ladder_json_roundtrip():
    ladder = default_ladder()
    again = LadderConfig.from_json(json.dumps(ladder.to_json_obj()))
    assert again == ladder


def test_family_rook_shrikhande():
    report = distinguish_family(
        [FX["rook4"], FX["shrikhande"]], family=SrgParams(16, 6, 2, 2).key()
    )
    assert report.count == 2
    assert report.distinguished
    assert len(report.stages) == 1  # early exit at the first trace stage
    assert report.stages[0].classes == 2
    assert report.stages[0].powers == (3,)
    assert report.unresolved_pairs == []
    assert report.pairs_requiring_edge == 0
    # both graphs are vertex-transitive: single-block everywhere
    assert report.single_block_graphs == 2
    assert report.family == "16-6-2-2"


def test_family_relabeled_pair_exhausts_ladder():
    g = FX["petersen"]
    h, _ = random_relabel(g, 5)
    report = distinguish_family([g, h], family=SrgParams(10, 3, 0, 1).key())
    assert not report.distinguished
    assert len(report.stages) == 17
    assert report.final_classes == 1
    assert report.unresolved_pairs == [(0, 1)]
    assert report.pairs_requiring_edge == 1
    assert report.shared_vertex_invariant_graphs == 2
    assert all(r.classes == 1 for r in report.stages)


@pytest.mark.parametrize("name", ["rook4", "irregular16"])
def test_each_power_is_formed_once(name, matmul_calls):
    g = rook_graph(4) if name == "rook4" else er_graph(16, 7, 0.4)
    h, _ = random_relabel(g, 5)
    ob = outblock_signature(g, range(3, 10), InvariantMode.SORTED_DIAG)
    tail = g.induced_subgraph([a for a in range(g.v) if a not in ob.removed])
    matmul_calls.clear()
    report = distinguish_family([g, h])
    assert len(report.stages) == 17 and report.final_classes == 1
    kmax = max(g.degree(a) for a in range(g.v))
    per_graph = {
        # P2 for the first stage, then P2, P4, P3 and P8 for powers 3..9 in one pass
        (g.v, kmax, kmax): 5,
        # B^2 and B^4 of each orientation block
        (1, g.edge_count, g.edge_count): 4,
    }
    if ob.refined:  # the tail's P2, P4, P3 and P8, in one pass
        tk = max(tail.degree(a) for a in range(tail.v))
        per_graph[(tail.v, tk, tk)] = 4
    assert name == "rook4" or ob.refined
    assert collections.Counter(matmul_calls) == {s: 2 * n for s, n in per_graph.items()}


def test_family_cube_wagner_needs_edge_stage():
    report = distinguish_family([cube_graph(), wagner_graph()])
    assert report.distinguished
    # all 15 vertex stages fail, the first edge stage separates
    assert len(report.stages) == 16
    assert [r.classes for r in report.stages] == [1] * 15 + [2]
    assert report.stages[-1].kind is StageKind.EDGE
    assert report.pairs_requiring_edge == 1
    assert report.shared_vertex_invariant_graphs == 2
    assert report.single_block_graphs == 2


def test_family_chang_graphs_28_12_6_4():
    # T(8) and its three switches form the full 28-12-6-4 family: four
    # graphs, all split by the first trace stage, one of them (T(8),
    # vertex-transitive) with a single-block vertex partition
    from srginv.catalog import chang_graphs, triangular_graph

    t8 = triangular_graph(8)
    family = [t8, *chang_graphs()]
    params = SrgParams(28, 12, 6, 4)
    for g in family:
        assert check_srg(g) == params
    for i in range(4):
        for j in range(i + 1, 4):
            assert are_isomorphic(family[i], family[j]).status == "non-isomorphic"
    report = distinguish_family(family, family=params.key())
    assert report.distinguished
    assert len(report.stages) == 1
    assert report.stages[0].classes == 4
    assert report.stages[0].powers == (3,)
    assert report.single_block_graphs == 1


def test_family_complement_pair_16_9_4_6():
    from srginv.catalog import complement_graph

    cr = complement_graph(FX["rook4"])
    cs = complement_graph(FX["shrikhande"])
    params = SrgParams(16, 9, 4, 6)
    assert check_srg(cr) == params and check_srg(cs) == params
    report = distinguish_family([cr, cs], family=params.key())
    assert report.distinguished
    assert report.stages[0].classes == 2 and report.stages[0].powers == (3,)
    assert report.single_block_graphs == 2


def test_seidel_switch_involution():
    from srginv.catalog import seidel_switch

    g = FX["petersen"]
    subset = (0, 2, 5)
    assert seidel_switch(seidel_switch(g, subset), subset) == g


def test_family_class_counts_monotone():
    # the relabelled copy is never separated, so every stage runs
    graphs = [er_graph(8, s) for s in range(6)]
    graphs.append(random_relabel(graphs[0], 5)[0])
    report = distinguish_family(graphs)
    assert len(report.stages) == 17
    counts = [r.classes for r in report.stages]
    assert counts == sorted(counts)
    assert report.final_classes >= 1


def test_family_needs_one_graph():
    with pytest.raises(ValueError):
        distinguish_family([])
    g = FX["petersen"]
    report = distinguish_family([g], family=check_srg(g).key())
    assert report == dataset_report(load_dataset_text(g.to_graph6())).families[0]


def test_compare_pair_examples():
    v = compare_pair(FX["rook4"], FX["shrikhande"])
    assert v.distinguished and v.stage == 1
    assert "stage 1" in v.describe()

    g = FX["paley13"]
    h, _ = random_relabel(g, 9)
    v = compare_pair(g, h)
    assert not v.distinguished
    assert v.describe() == "indistinguishable by ladder"

    v = compare_pair(FX["k33"], FX["prism"])
    assert v.distinguished and v.stage == 2  # trace p<=4 splits, p=3 does not

    v = compare_pair(cube_graph(), wagner_graph())
    assert v.distinguished
    assert v.stage_config.kind is StageKind.EDGE


def _pair_cases():
    names = sorted(FX)
    for a, b in itertools.combinations_with_replacement(names, 2):
        if FX[a].v == FX[b].v:
            yield f"{a}-{b}", FX[a], FX[b], None
    t8, chang = triangular_graph(8), chang_graphs()[0]
    yield "t8-chang-tr30", t8, chang, TR30
    yield "rook4-shrikhande-tr30", FX["rook4"], FX["shrikhande"], TR30


def test_compare_pair_is_a_two_graph_family():
    seen_fallback = False
    for case, g, h, ladder in _pair_cases():
        verdict = compare_pair(g, h, ladder)
        report = distinguish_family([g, h], ladder)
        assert verdict.distinguished == report.distinguished, case
        want = len(report.stages) if report.distinguished else None
        assert verdict.stage == want, case
        stages = (ladder or default_ladder()).stages
        assert verdict.stage_config == (stages[want - 1] if want else None), case
        assert verdict.fallback == report.fallback, case
        seen_fallback |= verdict.fallback is not None
    assert seen_fallback  # the T(8)/Chang pair overflows under TR30


def test_report_pool_is_capped_at_the_family_count(monkeypatch):
    sizes = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor without starting a process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    entries = load_dataset_text(
        "\n".join(g.to_graph6() for g in (FX["rook4"], FX["shrikhande"], FX["petersen"]))
    )
    serial = dataset_report(entries).to_json()
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    assert dataset_report(entries, jobs=4).to_json() == serial
    assert sizes == [2]


def test_compare_pair_checks_vertex_count():
    with pytest.raises(ValueError):
        compare_pair(FX["petersen"], FX["c5"])


def test_compare_never_splits_isomorphic_pairs():
    for name in ("rook4", "shrikhande", "petersen", "prism", "paley13"):
        g = FX[name]
        for seed in range(8):
            h, _ = random_relabel(g, seed)
            assert not compare_pair(g, h).distinguished


def test_ladder_verdicts_agree_with_oracle():
    fx = fixture_graphs()
    names = sorted(fx)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            g, h = fx[a], fx[b]
            if g.v != h.v or g.v > 16:
                continue
            degs = sorted(g.rows[x].bit_count() for x in range(g.v))
            if degs != sorted(h.rows[x].bit_count() for x in range(h.v)):
                continue
            if compare_pair(g, h).distinguished:
                assert are_isomorphic(g, h).status == "non-isomorphic", (a, b)


def test_group_families_orders_by_params():
    entries = [
        (FX["rook4"], SrgParams(16, 6, 2, 2)),
        (FX["petersen"], SrgParams(10, 3, 0, 1)),
        (FX["shrikhande"], SrgParams(16, 6, 2, 2)),
    ]
    fams = group_families(entries)
    assert [f.key for f in fams] == ["10-3-0-1", "16-6-2-2"]
    assert len(fams[1].graphs) == 2


def test_load_dataset_text_and_grouping():
    text = FX["rook4"].to_graph6() + "\n" + FX["shrikhande"].to_graph6() + "\n"
    entries = load_dataset_text(text)
    assert len(entries) == 2
    assert all(p == SrgParams(16, 6, 2, 2) for _, p in entries)


def test_load_dataset_rejects_non_srg():
    text = FX["petersen"].to_graph6() + "\n" + cycle_graph(6).to_graph6() + "\n"
    with pytest.raises(DatasetError, match="graph 1"):
        load_dataset_text(text)
    entries = load_dataset_text(text, allow_non_srg=True)
    assert entries[1][1] is None


def test_load_dataset_empty_input():
    assert load_dataset_text("") == []


def test_load_dataset_files(tmp_path):
    f1 = tmp_path / "fam.g6"
    f1.write_text(FX["rook4"].to_graph6() + "\n" + FX["shrikhande"].to_graph6() + "\n")
    f2 = tmp_path / "single.g6"
    f2.write_text(petersen_graph().to_graph6() + "\n")
    entries = load_dataset([tmp_path])
    assert len(entries) == 3
    with pytest.raises(DatasetError):
        load_dataset([tmp_path / "missing.g6"])


def test_read_graphs_reads_files_directories_and_stdin(tmp_path, monkeypatch):
    d = tmp_path / "fams"
    (d / "sub").mkdir(parents=True)
    (d / "b.g6").write_text(FX["rook4"].to_graph6() + "\n" + FX["shrikhande"].to_graph6() + "\n")
    (d / "a.g6").write_text(petersen_graph().to_graph6() + "\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(FX["t5"].to_graph6() + "\n"))
    entries = read_graphs([d, "-", str(d / "a.g6")])
    # a directory's files in name order; its subdirectories are skipped
    assert [(src, idx) for src, idx, _ in entries] == [
        (str(d / "a.g6"), 0),
        (str(d / "b.g6"), 0),
        (str(d / "b.g6"), 1),
        ("<stdin>", 0),
        (str(d / "a.g6"), 0),
    ]
    assert [g for _, _, g in entries] == [
        petersen_graph(), FX["rook4"], FX["shrikhande"], FX["t5"], petersen_graph()
    ]
    # one path need not be wrapped in a list
    assert read_graphs(str(d / "a.g6")) == entries[:1]


def test_file_error_messages_name_the_file(tmp_path):
    bad = tmp_path / "x.g6"
    bad.write_text(petersen_graph().to_graph6()[:5] + "\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(bad)
    assert str(exc.value) == f"{bad}: line 0: byte 5: truncated record (4 data bytes, need 8)"
    bad.write_text(petersen_graph().to_graph6() + "\n" + path_graph(3).to_graph6() + "\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(bad)
    assert str(exc.value) == f"{bad}: graph 1: not regular (degrees 1..2)"
    missing = tmp_path / "missing.g6"
    with pytest.raises(DatasetError, match=f"^{re.escape(str(missing))}: .*No such file"):
        read_graphs([missing])


def test_undecodable_file_in_directory_names_it(tmp_path):
    gz = tmp_path / "a.g6.gz"
    gz.write_bytes(gzip.compress(petersen_graph().to_graph6().encode()))
    (tmp_path / "b.g6").write_text(petersen_graph().to_graph6() + "\n")
    for read in (read_graphs, load_dataset):
        with pytest.raises(DatasetError, match=f"^{re.escape(str(gz))}: .*can't decode"):
            read([tmp_path])


def test_dataset_report_fixture_families():
    entries = load_dataset_text(
        "\n".join(
            [
                FX["rook4"].to_graph6(),
                FX["shrikhande"].to_graph6(),
                FX["petersen"].to_graph6(),
            ]
        )
    )
    report = dataset_report(entries)
    totals = report.totals
    assert totals["graphs"] == 3
    assert totals["families"] == 2
    assert totals["unresolved_pairs"] == 0
    assert totals["distinguished_all"] is True
    assert totals["single_block_graphs"] == 3  # all three are vertex-transitive
    obj = report.to_json_obj()
    assert {f["params"] for f in obj["families"]} == {"16-6-2-2", "10-3-0-1"}
    for fam in obj["families"]:
        assert set(fam) >= {
            "params",
            "count",
            "stages",
            "unresolved_pairs",
            "single_block_graphs",
        }
        for st in fam["stages"]:
            assert set(st) >= {"kind", "mode", "powers", "classes"}
    text = report.to_text()
    assert "16-6-2-2" in text and "10-3-0-1" in text


def test_dataset_report_deterministic_and_parallel_identical():
    entries = load_dataset_text(
        "\n".join(
            [
                FX["rook4"].to_graph6(),
                FX["shrikhande"].to_graph6(),
                FX["petersen"].to_graph6(),
                FX["paley13"].to_graph6(),
            ]
        )
    )
    a = dataset_report(entries).to_json()
    b = dataset_report(entries).to_json()
    c = dataset_report(entries, jobs=2).to_json()
    assert a == b == c


def test_dataset_report_unresolved_pair_counts():
    g = FX["t5"]
    h, _ = random_relabel(g, 77)
    entries = load_dataset_text(g.to_graph6() + "\n" + h.to_graph6())
    report = dataset_report(entries)
    assert report.totals["unresolved_pairs"] == 1
    assert report.totals["distinguished_all"] is False
    assert report.families[0].unresolved_pairs == [(0, 1)]


def test_non_srg_family_with_allow_flag():
    g1, g2 = er_graph(8, 1), er_graph(8, 2)
    entries = load_dataset_text(
        g1.to_graph6() + "\n" + g2.to_graph6(), allow_non_srg=True
    )
    report = dataset_report(entries)
    assert report.families[0].family == "8-nonsrg"
    assert report.totals["graphs"] == 2


def test_single_graph_family_report():
    entries = load_dataset_text(FX["petersen"].to_graph6())
    report = dataset_report(entries)
    fam = report.families[0]
    assert fam.count == 1 and fam.distinguished
    assert fam.stages == []
    assert fam.single_block_graphs == 1


def test_modular_mode_report():
    entries = load_dataset_text(
        FX["rook4"].to_graph6() + "\n" + FX["shrikhande"].to_graph6()
    )
    report = dataset_report(entries, modulus=DEFAULT_MODULUS)
    assert report.totals["distinguished_all"] is True
    assert report.to_json_obj()["arithmetic"] == "mod-reduced"


def test_custom_edge_only_ladder():
    ladder = LadderConfig(
        (LadderStage(StageKind.EDGE, InvariantMode.TRACE, (2, 3, 4, 5)),)
    )
    # edge invariants alone do not separate rook from Shrikhande at p <= 5
    v = compare_pair(FX["rook4"], FX["shrikhande"], ladder)
    assert not v.distinguished
    # but they do separate cube from Wagner
    v = compare_pair(cube_graph(), wagner_graph(), ladder)
    assert v.distinguished and v.stage == 1


def test_text_report_marks_complete_families():
    entries = load_dataset_text(
        FX["rook4"].to_graph6() + "\n" + FX["shrikhande"].to_graph6()
    )
    text = dataset_report(entries).to_text()
    assert "2*" in text
    full = dataset_report(entries).to_text(show_all=True)
    assert len(full) >= len(text)


# Tr30 of the 6-regular neighbourhoods of srg(28,12,6,4) passes the unsigned
# 64-bit range; the 2-regular neighbourhoods of srg(16,6,2,2) stay far below
TR30 = LadderConfig((LadderStage(StageKind.VERTEX, InvariantMode.TRACE, (30,)),))


@pytest.mark.parametrize("jobs", [1, 2])
def test_overflowing_family_falls_back_alone(jobs):
    graphs = [rook_graph(4), shrikhande_graph(), triangular_graph(8), *chang_graphs()]
    entries = load_dataset_text("\n".join(g.to_graph6() for g in graphs))
    report = dataset_report(entries, TR30, jobs=jobs)
    modular = dataset_report(entries, TR30, modulus=DEFAULT_MODULUS)
    rook_fam, t8_fam = report.to_json_obj()["families"]
    assert (rook_fam["params"], t8_fam["params"]) == ("16-6-2-2", "28-12-6-4")
    assert "arithmetic" not in rook_fam and "fallback" not in rook_fam
    assert t8_fam.pop("arithmetic") == "mod-reduced"
    assert t8_fam.pop("fallback").startswith("matrix power diagonal exceeds")
    # the whole family re-ran under the modulus: same values as a modular run
    assert t8_fam == modular.families[1].to_json_obj()
    assert report.families[1].final_classes == modular.families[1].final_classes == 4
    assert report.to_json_obj()["arithmetic"] == "exact"
    assert report.to_text().splitlines()[-1].endswith("values mod-reduced: 28-12-6-4")


def test_overflowing_pair_falls_back():
    t8, chang = triangular_graph(8), chang_graphs()[0]
    verdict = compare_pair(t8, chang, TR30)
    assert verdict.distinguished and verdict.stage == 1
    assert verdict.fallback.startswith("matrix power diagonal exceeds")
    assert verdict.describe().endswith("; exact arithmetic overflowed, values mod-reduced")
    modular = compare_pair(t8, chang, TR30, modulus=DEFAULT_MODULUS)
    assert modular.fallback is None
    assert verdict.describe().startswith(modular.describe())
    # a pair that stays in range keeps its verdict and its text
    rook = compare_pair(rook_graph(4), shrikhande_graph(), TR30)
    assert rook.fallback is None
    assert rook.describe() == "indistinguishable by ladder"


GOLDEN_DIR = Path(__file__).resolve().parent / "data"


def drop_edge(g: Graph, a: int, b: int) -> Graph:
    return Graph.from_edges(
        g.v,
        [(x, y) for x in range(g.v) for y in g.neighborhood(x) if x < y and (x, y) != (a, b)],
    )


def golden_dataset_text(modular: bool) -> str:
    """Rook(4) and Shrikhande, T(8) and the Chang graphs, seeded relabelled
    copies, and a non-SRG family whose graphs have two degree classes.

    The relabelled Chang graph, which sends a 336-edge bar matrix through
    the edge stages, is not in the modular set that
    ``golden_report_modular.json`` pins; ``test_modular_report_equals_exact``
    runs the full set in both modes.
    """
    rook, shri, t8 = rook_graph(4), shrikhande_graph(), triangular_graph(8)
    changs = chang_graphs()
    rook_cut = drop_edge(rook, 0, 1)
    graphs = [rook, shri, random_relabel(shri, 11)[0], t8, *changs]
    if not modular:
        graphs.append(random_relabel(changs[1], 12)[0])
    graphs += [rook_cut, drop_edge(shri, 0, 1), random_relabel(rook_cut, 13)[0]]
    return "\n".join(g.to_graph6() for g in graphs)


@pytest.mark.parametrize("modular", [False, True], ids=["exact", "modular"])
def test_report_matches_golden(modular):
    entries = load_dataset_text(golden_dataset_text(modular), allow_non_srg=True)
    modulus = DEFAULT_MODULUS if modular else None
    got = dataset_report(entries, modulus=modulus).to_json() + "\n"
    name = "golden_report_modular.json" if modular else "golden_report_exact.json"
    assert got == (GOLDEN_DIR / name).read_text()


def test_modular_report_equals_exact():
    # every value of this set lies below p1 * p2, where the residue is the
    # exact value, so both modes split the same classes at the same stages
    entries = load_dataset_text(golden_dataset_text(False), allow_non_srg=True)
    exact = dataset_report(entries).to_json_obj()
    modular = dataset_report(entries, modulus=DEFAULT_MODULUS).to_json_obj()
    assert (exact.pop("arithmetic"), exact.pop("modulus")) == ("exact", None)
    assert (modular.pop("arithmetic"), modular.pop("modulus")) == (
        "mod-reduced",
        list(DEFAULT_MODULUS),
    )
    assert modular == exact


# ---------------------------------------------------------------------------
# what a graph's ladder state keeps


def test_vertex_caches_are_dropped_before_the_edge_stages(monkeypatch):
    alive = weakref.WeakSet()
    init = vertexinv.NeighborhoodPowerCache.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)

    monkeypatch.setattr(vertexinv.NeighborhoodPowerCache, "__init__", tracked)
    real = pipeline.bar_diag_table
    at_first_table = []  # caches alive at each family's first edge table

    def table(*args, **kwargs):
        if at_first_table[-1] is None:
            gc.collect()
            at_first_table[-1] = len(alive)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "bar_diag_table", table)
    # isomorphic pairs run every stage; Rook(4) and Shrikhande stop at sd
    families = {
        1: [FX["petersen"], random_relabel(FX["petersen"], 5)[0]],
        2: [FX["rook4"], FX["shrikhande"], random_relabel(FX["shrikhande"], 6)[0]],
    }
    for classes, graphs in families.items():
        at_first_table.append(None)
        assert distinguish_family(graphs).final_classes == classes
    assert at_first_table == [0, 0]


def test_import_leaves_the_process_pool_out():
    code = (
        "import sys, srginv\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("modulus", [None, DEFAULT_MODULUS], ids=["exact", "modular"])
def test_vertex_stage_between_edge_stages(modulus):
    # the single-block flag is taken after the last vertex stage, wherever
    # the ladder puts it
    ladder = LadderConfig.from_json(json.dumps({"stages": [
        {"kind": "edge", "mode": "trace", "powers": [2, 3, 4, 5]},
        {"kind": "vertex", "mode": "sortdiag", "powers": [3, 4, 5]},
        {"kind": "edge", "mode": "sortdiag", "powers": [2, 3, 4, 5]},
    ]}))
    entries = load_dataset_text(golden_dataset_text(False), allow_non_srg=True)
    got = {
        f.family: ([(s.classes, s.unresolved_graphs, s.unresolved_pairs) for s in f.stages],
                   f.single_block_graphs)
        for f in dataset_report(entries, ladder, modulus=modulus).families
    }
    assert got == {
        "16-nonsrg": ([(2, 2, 1)] * 3, 0),
        "16-6-2-2": ([(1, 3, 3), (2, 2, 1), (2, 2, 1)], 3),
        "28-12-6-4": ([(4, 2, 1)] * 3, 1),
    }
