"""Pinned output of ``srginv vertex-inv`` and ``srginv edge-inv``.

Each case feeds its graphs on stdin, so ``source`` reads ``<stdin>``, and
compares the sha256 of the exit code, stdout and stderr with
``tests/data/golden_cli.json``. The cases cover json and table output,
exact and ``--modulus`` arithmetic and both modes on Paley(13), T(8), the
three Chang graphs and a non-regular graph, whose neighborhoods are padded
to the largest degree; plus powers past the unsigned 64-bit range, printed
under ``--modulus`` and an error (exit code 1) in exact mode.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from srginv.catalog import chang_graphs, paley_graph, triangular_graph
from srginv.cli import main

from helpers import er_graph

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

INPUTS = {
    "paley13": [paley_graph(13)],
    "t8": [triangular_graph(8)],
    "chang": list(chang_graphs()),
    "er12": [er_graph(12, 3, 0.4)],
}

POWERS = {"vertex-inv": "3,4,5", "edge-inv": "2,3,4,5"}


def cases() -> dict[str, tuple[str, list[str]]]:
    """Case id -> (input name, argv)."""
    out = {}
    for command, powers in POWERS.items():
        for name in INPUTS:
            for mode in ("sortdiag", "trace"):
                for fmt in ("json", "table"):
                    for arith in ("exact", "modulus"):
                        argv = [command, "-", "--mode", mode, "--powers", powers, "--out", fmt]
                        if arith == "modulus":
                            argv.append("--modulus")
                        out[f"{command}-{name}-{mode}-{fmt}-{arith}"] = (name, argv)
    # exact T(8) values at these powers pass the unsigned 64-bit range
    for command, power in (("vertex-inv", "30"), ("edge-inv", "12")):
        for mode in ("sortdiag", "trace"):
            for arith in ("exact", "modulus"):
                argv = [command, "-", "--mode", mode, "--powers", power]
                if arith == "modulus":
                    argv.append("--modulus")
                out[f"{command}-t8-{mode}-p{power}-{arith}"] = ("t8", argv)
    return out


def run_case(name: str, argv: list[str], capsys, monkeypatch) -> str:
    """The sha256 of the exit code, stdout and stderr of one run."""
    text = "".join(g.to_graph6() + "\n" for g in INPUTS[name])
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv)
    out, err = capsys.readouterr()
    blob = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    return hashlib.sha256(blob.encode()).hexdigest()


CASES = cases()


def test_golden_file_lists_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_the_non_regular_input_has_padded_neighborhoods():
    (g,) = INPUTS["er12"]
    degrees = {g.degree(a) for a in range(g.v)}
    assert len(degrees) > 1 and min(degrees) > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    name, argv = CASES[case]
    assert run_case(name, argv, capsys, monkeypatch) == json.loads(GOLDEN.read_text())[case]

