"""Self-test of the ladder benchmark on tiny seeded inputs.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from latin import (
    JacobsonMatthews,
    is_latin,
    latin_graphs,
    latin_params,
    latin_square_graph,
    triangle_profile,
)
from oracle import check_classes, report_classes
import run
from srginv import are_isomorphic, check_srg
from tracing import UNITS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", [4, 5, 6])
def test_generated_graphs_have_latin_square_parameters(n):
    graphs, pairs = latin_graphs(n, 3, seed=11, paratopes=True)
    assert len(graphs) == 6 and len(pairs) == 3
    assert all(check_srg(g) == latin_params(n) for g in graphs)
    assert latin_params(n).key() == f"{n * n}-{3 * (n - 1)}-{n}-6"
    for a, b in pairs:
        assert are_isomorphic(graphs[a], graphs[b])


def test_generation_is_seeded():
    assert latin_graphs(6, 4, seed=5) == latin_graphs(6, 4, seed=5)
    assert latin_graphs(6, 4, seed=5)[0] != latin_graphs(6, 4, seed=6)[0]


def test_walk_output_is_latin():
    walk = JacobsonMatthews(7, random.Random(2))
    squares = [walk.walk(49) for _ in range(5)]
    assert all(is_latin(sq) for sq in squares)
    assert len(set(squares)) == 5
    assert latin_square_graph(((0, 1), (1, 0))).edge_count == 6


def test_distinct_family_has_distinct_triangle_profiles():
    graphs, pairs = latin_graphs(6, 4, seed=3, distinct=True)
    assert pairs == []
    assert len({triangle_profile(g) for g in graphs}) == 4


@pytest.fixture(scope="module")
def paired():
    """Three non-isomorphic order-6 graphs, each with an isomorphic partner."""
    graphs, pairs = latin_graphs(6, 3, seed=4, paratopes=True, distinct=True)
    return graphs, pairs, sorted(sorted(p) for p in pairs)


def _check(graphs, pairs, classes):
    return check_classes(graphs, classes, known_pairs=pairs, rep_pair_limit=10, seed=0)


def test_checker_accepts_true_classes(paired):
    graphs, pairs, classes = paired
    result = _check(graphs, pairs, classes)
    assert result.ok, result.problems
    assert (result.classes, result.members_checked, result.rep_pairs_checked) == (3, 3, 3)


def test_checker_catches_planted_merge(paired):
    graphs, pairs, classes = paired
    merged = [classes[0] + classes[1][:1], classes[1][1:], classes[2]]
    result = _check(graphs, pairs, merged)
    assert not result.ok
    assert any("class member" in p for p in result.problems)
    assert any("split" in p for p in result.problems)


def test_checker_catches_planted_split(paired):
    graphs, pairs, classes = paired
    split = [classes[0][:1], classes[0][1:], classes[1], classes[2]]
    result = _check(graphs, pairs, split)
    assert not result.ok
    assert any("representative pair" in p for p in result.problems)


def test_report_classes_reads_unresolved_pairs():
    report = {"families": [{"count": 4, "classes": 2, "unresolved_pairs": [[0, 2], [1, 3]]}]}
    assert report_classes(report) == [[0, 2], [1, 3]]
    report["families"][0]["classes"] = 3
    with pytest.raises(ValueError):
        report_classes(report)


TINY = run.Workload("tiny", 5, 3, True, False, False, "self-test")


def test_report_has_the_end_to_end_metrics():
    result = run.measure(TINY, 1, 0, trace=False, say=lambda line: None)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, value in result["metrics"].items():
        assert value["unit"] == units[name] == run.END_TO_END_UNITS[name]
        assert value["value"] > 0


def test_traced_report_has_the_per_layer_metrics():
    result = run.measure(TINY, 1, 0, trace=True, say=lambda line: None)
    assert result["correct"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == UNITS
    # the full ladder ran, so every layer saw work
    for name in ("edgeinv.bar_table_calls", "vertexinv.outblock_calls", "matpow.matmul_calls.float64"):
        assert metrics[name]["value"] > 0
    assert metrics["matpow.modular_products"]["value"] == 0
    assert metrics["graph.graphs"]["value"] == 6
    selfs = sum(metrics[f"{m}.self_s"]["value"] for m in ("vertexinv", "matpow", "edgeinv", "pipeline"))
    total = selfs + metrics["trace.remainder_s"]["value"]
    assert total == pytest.approx(metrics["trace.report_s"]["value"], rel=1e-6)


def test_spec_lists_the_workloads():
    # latin8-vertex is defined for runs by hand but not listed
    listed = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert sorted(listed) == ["latin6-full", "latin8-modular"]
    assert all(run.WORKLOADS[name].why == why for name, why in listed.items())
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "latin6-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_skips_names_that_no_longer_exist():
    from tracing import Tracer

    tracer = Tracer()
    tracer.wrap("vertexinv.NoSuchCache.ensure", "vertexinv.ensure")
    tracer.wrap("nosuchmodule.f", "x.f")
    assert tracer.missing == ["vertexinv.NoSuchCache.ensure", "nosuchmodule.f"]
