"""Every base the package hands the power engine is symmetric.

``PowerCache`` takes a power of its base for that power's own transpose,
which it does not check, so a square can run as syrk and a row dot can
read its second operand in place. This records every base that its two
callers, ``vertexinv`` (the neighbourhood stacks ``A|N_a``) and
``edgeinv`` (the orientation blocks ``B±``), build over whole reports and
over the per-graph commands.
"""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

from srginv import edgeinv, vertexinv
from srginv.graph import srg_diagnosis
from srginv.isomorphism import random_relabel
from srginv.matpow import DEFAULT_MODULUS
from srginv.pipeline import dataset_report, read_graphs

from helpers import cli_json, er_graph, fixture_graphs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from latin import latin_graphs  # noqa: E402

DATA = Path(__file__).resolve().parent / "data" / "srg25_switched.g6"


@pytest.fixture
def bases(monkeypatch):
    """Counts of the bases each caller passed, asserting each is symmetric."""
    seen = collections.Counter()
    for module in (vertexinv, edgeinv):
        real = module.power_cache

        def recording(base, *args, _real=real, _name=module.__name__, **kwargs):
            assert np.array_equal(base, np.swapaxes(base, -1, -2)), _name
            seen[_name] += 1
            return _real(base, *args, **kwargs)

        monkeypatch.setattr(module, "power_cache", recording)
    return seen


def families():
    """The fixture graphs; two non-regular graphs, whose neighbourhoods are
    padded and whose outblock leaves a tail; the switched srg(25,12,5,6);
    and a latin6 pair, whose bar blocks have 270 edges. Each graph has an
    isomorphic partner, so that every stage of the ladder runs."""
    graphs = [*fixture_graphs().values(), er_graph(12, 1, 0.4), er_graph(13, 2, 0.4)]
    graphs += [g for _, _, g in read_graphs(DATA)]
    graphs += [random_relabel(g, 7)[0] for g in graphs]
    graphs += latin_graphs(6, 1, 3, paratopes=True)[0]  # a square and a paratope of it
    return [(g, srg_diagnosis(g)[0]) for g in graphs]


@pytest.mark.parametrize("modulus", [None, DEFAULT_MODULUS], ids=["exact", "modular"])
def test_reports_power_only_symmetric_bases(modulus, bases):
    entries = families()
    assert any(params is None for _, params in entries)
    report = dataset_report(entries, modulus=modulus)
    assert report.totals["graphs"] == len(entries)
    assert bases["srginv.vertexinv"] > 0 and bases["srginv.edgeinv"] > 0


def test_commands_power_only_symmetric_bases(bases):
    graphs = [er_graph(12, 1, 0.4), fixture_graphs()["petersen"]]
    for argv in (["vertex-inv"], ["edge-inv"], ["edge-inv", "--modulus"]):
        cli_json(argv, *graphs)
    assert bases["srginv.vertexinv"] > 0 and bases["srginv.edgeinv"] > 0
