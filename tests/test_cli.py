import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srginv.catalog import (
    chang_graphs,
    complete_graph,
    paley_graph,
    path_graph,
    petersen_graph,
    triangular_graph,
)
from srginv.cli import main
from srginv.isomorphism import random_relabel
from srginv.matpow import DEFAULT_MODULUS, U64_MAX

from helpers import directed_bar_power_diags, fixture_graphs

FX = fixture_graphs()


def write(tmp_path, name, *graphs):
    f = tmp_path / name
    f.write_text("\n".join(g.to_graph6() for g in graphs) + "\n")
    return str(f)


def test_check_srg_petersen(tmp_path, capsys):
    f = write(tmp_path, "p.g6", petersen_graph())
    assert main(["check-srg", f]) == 0
    assert "10-3-0-1" in capsys.readouterr().out


def test_check_srg_degenerate_complete_graph(tmp_path, capsys):
    f = write(tmp_path, "k3.g6", complete_graph(3))
    assert main(["check-srg", f]) == 0
    out = capsys.readouterr().out
    assert "3-2-1-*" in out
    assert "mu undefined" in out


def test_check_srg_rejects_non_regular(tmp_path, capsys):
    f = write(tmp_path, "path.g6", path_graph(3))
    assert main(["check-srg", f]) == 2
    out = capsys.readouterr().out
    assert "not an SRG" in out and "not regular" in out


def test_check_srg_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(petersen_graph().to_graph6() + "\n"))
    assert main(["check-srg"]) == 0
    assert "10-3-0-1" in capsys.readouterr().out


def test_vertex_inv_json(tmp_path, capsys):
    f = write(tmp_path, "rook.g6", FX["rook4"])
    assert main(["vertex-inv", f, "--mode", "trace", "--powers", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "trace"
    (entry,) = payload["graphs"]
    assert entry["params"] == "16-6-2-2"
    assert entry["vertex_signatures"] == [[12]] * 16
    assert entry["blocks"] == 1
    assert entry["partition"] == [list(range(16))]


def test_vertex_inv_table_output(tmp_path, capsys):
    f = write(tmp_path, "pet.g6", petersen_graph())
    assert main(["vertex-inv", f, "--out", "table", "--powers", "3,4"]) == 0
    out = capsys.readouterr().out
    assert "blocks=1" in out


def test_edge_inv_json(tmp_path, capsys):
    f = write(tmp_path, "k3.g6", complete_graph(3))
    assert main(["edge-inv", f, "--mode", "trace", "--powers", "2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (entry,) = payload["graphs"]
    assert entry["directed_edges"] == 6
    assert entry["values"]["2"] == [18]
    assert entry["values"]["3"] == [12]
    assert entry["partition"] == [[0, 1, 2], [0, 2, 2], [1, 2, 2]]


def test_vertex_inv_computes_signatures_once(tmp_path, capsys, matmul_calls):
    f = write(tmp_path, "paley13.g6", paley_graph(13))
    assert main(["vertex-inv", f, "--powers", "3"]) == 0
    capsys.readouterr()
    assert len(matmul_calls) == 1  # P^2 of the neighbourhood stack


def test_edge_inv_table_output(tmp_path, capsys):
    f = write(tmp_path, "k3.g6", complete_graph(3))
    assert main(["edge-inv", f, "--mode", "trace", "--powers", "2,3", "--out", "table"]) == 0
    assert capsys.readouterr().out == f"{f}:0  directed edges=6\n  p=2: 18\n  p=3: 12\n"


def test_edge_inv_computes_bar_powers_once(tmp_path, capsys, matmul_calls):
    f = write(tmp_path, "paley13.g6", paley_graph(13))
    assert main(["edge-inv", f, "--powers", "2,3,4,5"]) == 0
    capsys.readouterr()
    assert len(matmul_calls) == 4  # B^2 and B^4 of each orientation block


def test_edge_inv_rejects_power_one(tmp_path, capsys):
    f = write(tmp_path, "k3.g6", complete_graph(3))
    assert main(["edge-inv", f, "--powers", "1,2"]) == 1
    assert "error" in capsys.readouterr().err


def test_compare_distinguished(tmp_path, capsys):
    fa = write(tmp_path, "a.g6", FX["rook4"])
    fb = write(tmp_path, "b.g6", FX["shrikhande"])
    assert main(["compare", fa, fb]) == 0
    assert "distinguished: stage 1" in capsys.readouterr().out


def test_compare_indistinguishable(tmp_path, capsys):
    g = petersen_graph()
    h, _ = random_relabel(g, 3)
    fa = write(tmp_path, "a.g6", g)
    fb = write(tmp_path, "b.g6", h)
    assert main(["compare", fa, fb]) == 2
    assert "indistinguishable" in capsys.readouterr().out


def test_compare_modulus_still_separates(tmp_path, capsys):
    fa = write(tmp_path, "a.g6", FX["rook4"])
    fb = write(tmp_path, "b.g6", FX["shrikhande"])
    assert main(["compare", fa, fb, "--modulus"]) == 0
    assert "stage 1" in capsys.readouterr().out


def test_compare_requires_single_graph_files(tmp_path, capsys):
    fa = write(tmp_path, "a.g6", FX["rook4"], FX["shrikhande"])
    fb = write(tmp_path, "b.g6", FX["shrikhande"])
    assert main(["compare", fa, fb]) == 1
    assert capsys.readouterr().err == f"error: {fa}: expected exactly one graph, found 2\n"


@pytest.mark.parametrize("records", [0, 1, 3])
def test_compare_both_from_stdin_needs_two_graphs(capsys, monkeypatch, records):
    text = "".join(g.to_graph6() + "\n" for g in [petersen_graph()] * records)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["compare", "-", "-"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: <stdin>: expected exactly 2 graphs, found {records}\n"


def test_compare_reads_both_graphs_from_stdin(capsys, monkeypatch):
    text = FX["rook4"].to_graph6() + "\n" + FX["shrikhande"].to_graph6() + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["compare", "-", "-"]) == 0
    assert capsys.readouterr().out.startswith("distinguished: stage 1 ")


def test_compare_names_stdin_in_errors(tmp_path, capsys, monkeypatch):
    fb = write(tmp_path, "b.g6", FX["shrikhande"])
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["compare", "-", fb]) == 1
    assert capsys.readouterr().err == "error: <stdin>: expected exactly one graph, found 0\n"


def test_report_table(tmp_path, capsys):
    f = write(tmp_path, "fam.g6", FX["rook4"], FX["shrikhande"], petersen_graph())
    assert main(["report", f]) == 0
    out = capsys.readouterr().out
    assert "16-6-2-2" in out and "10-3-0-1" in out
    assert "graphs: 3" in out


def test_report_json_schema(tmp_path, capsys):
    f = write(tmp_path, "fam.g6", FX["rook4"], FX["shrikhande"])
    assert main(["report", f, "--out", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"families", "totals", "ladder", "arithmetic", "modulus"}
    assert payload["arithmetic"] == "exact"
    assert payload["totals"]["graphs"] == 2
    assert payload["totals"]["unresolved_pairs"] == 0
    (fam,) = payload["families"]
    assert fam["params"] == "16-6-2-2"
    assert fam["stages"][0]["classes"] == 2


def test_report_table_names_the_modulus(tmp_path, capsys):
    f = write(tmp_path, "fam.g6", FX["rook4"], FX["shrikhande"])
    assert main(["report", f, "--modulus", "--out", "table"]) == 0
    p1, p2 = DEFAULT_MODULUS
    assert capsys.readouterr().out.endswith(f"values are mod-reduced (primes {p1}, {p2})\n")


def test_report_unresolved_exit_code(tmp_path, capsys):
    g = FX["t5"]
    h, _ = random_relabel(g, 13)
    f = write(tmp_path, "fam.g6", g, h)
    assert main(["report", f]) == 2


def test_report_rejects_non_srg_without_flag(tmp_path, capsys):
    f = write(tmp_path, "bad.g6", path_graph(4))
    assert main(["report", f]) == 1
    assert "graph 0" in capsys.readouterr().err
    assert main(["report", f, "--allow-non-srg"]) == 0


def test_report_rows_format(tmp_path, capsys):
    k3 = complete_graph(3)
    f = tmp_path / "k3.rows"
    f.write_text("011\n101\n110\n")
    assert main(["check-srg", str(f)]) == 0
    assert "3-2-1-*" in capsys.readouterr().out


def test_format_option_is_gone(tmp_path, capsys):
    f = write(tmp_path, "p.g6", petersen_graph())
    with pytest.raises(SystemExit) as exc:
        main(["check-srg", f, "--format", "graph6"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --format graph6" in capsys.readouterr().err


def test_report_jobs_flag(tmp_path, capsys):
    f = write(tmp_path, "fam.g6", FX["rook4"], FX["shrikhande"], petersen_graph())
    assert main(["report", f, "--jobs", "2", "--out", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", f, "--jobs", "1", "--out", "json"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("jobs", ["0", "-4", "x"])
def test_report_rejects_jobs_below_one(tmp_path, capsys, jobs):
    f = write(tmp_path, "fam.g6", FX["rook4"], FX["shrikhande"])
    with pytest.raises(SystemExit) as exc:
        main(["report", f, "--jobs", jobs])
    assert exc.value.code == 1
    assert "argument --jobs" in capsys.readouterr().err


def test_missing_file_is_an_error(tmp_path, capsys):
    assert main(["check-srg", "/nonexistent/file.g6"]) == 1
    assert "error" in capsys.readouterr().err
    # every subcommand names the file it could not read
    missing = str(tmp_path / "missing.g6")
    good = write(tmp_path, "p.g6", petersen_graph())
    for argv in (
        ["check-srg", missing],
        ["vertex-inv", missing],
        ["edge-inv", missing],
        ["compare", missing, good],
        ["compare", good, missing],
        ["report", missing],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: {missing}: "), argv


@pytest.mark.parametrize(
    "command",
    [
        ["check-srg"],
        ["vertex-inv", "--powers", "3,4"],
        ["edge-inv", "--powers", "2,3"],
        ["report", "--out", "json"],
    ],
    ids=lambda c: c[0],
)
def test_every_input_form_gives_the_same_output(tmp_path, capsys, monkeypatch, command):
    d = tmp_path / "fams"
    d.mkdir()
    f = write(d, "fam.g6", FX["rook4"], FX["shrikhande"], petersen_graph())

    def run(*paths):
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(f).read_text()))
        assert main([*command, *paths]) == 0
        return capsys.readouterr().out

    from_file = run(f)
    assert run(str(d)) == from_file
    from_stdin = run("-")
    assert run() == from_stdin
    assert from_stdin == from_file.replace(f, "<stdin>")


def test_stdin_parse_error_names_stdin(capsys, monkeypatch):
    for command in ("check-srg", "report"):
        monkeypatch.setattr("sys.stdin", io.StringIO(petersen_graph().to_graph6()[:5] + "\n"))
        assert main([command]) == 1
        assert capsys.readouterr().err == (
            "error: <stdin>: line 0: byte 5: truncated record (4 data bytes, need 8)\n"
        )


def test_stdin_record_is_cut_at_newline_only():
    # real stdin, whose newline translation leaves a form feed in place
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "srginv", "check-srg"],
        input=b"Bw\fB\n", env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == b"error: <stdin>: line 0: byte 2: unexpected trailing characters\n"


def test_crlf_file_parses(tmp_path, capsys):
    f = tmp_path / "crlf.g6"
    f.write_bytes(petersen_graph().to_graph6().encode() + b"\r\n")
    assert main(["check-srg", str(f)]) == 0
    assert capsys.readouterr().out == f"{f}:0: 10-3-0-1\n"


def test_one_vertex_record(capsys, monkeypatch):
    def run(*argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("@\n"))
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    assert run("check-srg") == (2, "<stdin>:0: not an SRG: fewer than 2 vertices\n", "")
    assert run("report") == (1, "", "error: <stdin>: graph 0: fewer than 2 vertices\n")
    code, out, _ = run("report", "--allow-non-srg", "--out", "json")
    assert code == 0
    (fam,) = json.loads(out)["families"]
    assert fam["params"] == "1-nonsrg" and fam["classes"] == 1
    code, out, _ = run("vertex-inv")
    assert code == 0
    (entry,) = json.loads(out)["graphs"]
    assert entry["params"] is None and entry["partition"] == [[0]]


def test_bad_powers_rejected(tmp_path, capsys):
    f = write(tmp_path, "p.g6", petersen_graph())
    assert main(["vertex-inv", f, "--powers", "4,3"]) == 1
    assert "ascending" in capsys.readouterr().err


def test_non_integer_power_list_rejected(tmp_path, capsys):
    f = write(tmp_path, "p.g6", petersen_graph())
    assert main(["vertex-inv", f, "--powers", "3,x"]) == 1
    assert capsys.readouterr().err == "error: bad power list '3,x' (expected e.g. 3,4)\n"


def test_malformed_ladder_file(tmp_path, capsys):
    lf = tmp_path / "ladder.json"
    lf.write_text('{"rungs": []}')
    fa = write(tmp_path, "a.g6", FX["rook4"])
    fb = write(tmp_path, "b.g6", FX["shrikhande"])
    assert main(["compare", fa, fb, "--ladder", str(lf)]) == 1
    assert "ladder" in capsys.readouterr().err


def test_ladder_file_with_non_integer_powers(tmp_path, capsys):
    f = write(tmp_path, "fam.g6", FX["rook4"], FX["shrikhande"])
    lf = tmp_path / "ladder.json"
    lf.write_text(json.dumps({"stages": [{"kind": "vertex", "mode": "trace", "powers": [4.0]}]}))
    assert main(["report", f, "--ladder", str(lf)]) == 1
    assert "powers must be integers, got 4.0" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["vertex-inv", "--mode", "bogus"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_custom_ladder_file(tmp_path, capsys):
    ladder = {
        "stages": [
            {"kind": "edge", "mode": "trace", "powers": [2, 3]},
        ]
    }
    lf = tmp_path / "ladder.json"
    lf.write_text(json.dumps(ladder))
    fa = write(tmp_path, "a.g6", FX["k33"])
    fb = write(tmp_path, "b.g6", FX["prism"])
    assert main(["compare", fa, fb, "--ladder", str(lf)]) == 0
    assert "edge/trace" in capsys.readouterr().out


def test_report_overflow_falls_back_per_family(tmp_path, capsys):
    # exact Tr30 of srg(28,12,6,4) passes the unsigned 64-bit range
    f = write(tmp_path, "fam.g6", triangular_graph(8), *chang_graphs())
    lf = tmp_path / "ladder.json"
    lf.write_text(json.dumps({"stages": [{"kind": "vertex", "mode": "trace", "powers": [30]}]}))
    assert main(["report", f, "--ladder", str(lf), "--out", "json"]) == 0
    (fam,) = json.loads(capsys.readouterr().out)["families"]
    assert fam["arithmetic"] == "mod-reduced" and fam["classes"] == 4
    assert main(["report", f, "--ladder", str(lf)]) == 0
    assert "exact arithmetic overflowed" in capsys.readouterr().out


@pytest.mark.parametrize("command, power", [("vertex-inv", "30"), ("edge-inv", "12")])
def test_per_graph_overflow_asks_for_modular_mode(tmp_path, capsys, command, power):
    # exact values of these T(8) powers pass the unsigned 64-bit range
    f = write(tmp_path, "t8.g6", triangular_graph(8))
    assert main([command, f, "--powers", power]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("; retry in modular mode\n")
    assert main([command, f, "--powers", power, "--modulus"]) == 0


def t8_oracle(command: str, power: int) -> list[int]:
    """Exact T(8) values, sorted per vertex (vertex-inv) or over the
    directed edges (edge-inv), from powers of the neighborhood matrices and
    of the bar matrix on the directed edges, built from their definitions."""
    a = triangular_graph(8).dense().astype(np.int64)
    if command == "vertex-inv":
        out = []
        for row in a:
            nb = np.flatnonzero(row)
            sub = np.linalg.matrix_power(a[np.ix_(nb, nb)].astype(object), power)
            out.append(sorted(int(x) for x in np.diagonal(sub)))
        return out
    return sorted(directed_bar_power_diags(triangular_graph(8), (power,))[power])


@pytest.mark.parametrize("command, power", [("vertex-inv", 30), ("edge-inv", 12)])
def test_modular_output_is_exact_past_u64(tmp_path, capsys, command, power):
    # these values pass the unsigned 64-bit range but stay below p1 * p2,
    # where the residue modular mode prints is the exact value
    f = write(tmp_path, "t8.g6", triangular_graph(8))
    want = t8_oracle(command, power)
    rows = want if command == "vertex-inv" else [want]
    assert U64_MAX < max(map(max, rows)) < math.prod(DEFAULT_MODULUS)
    assert main([command, f, "--powers", str(power), "--modulus"]) == 0
    (graph,) = json.loads(capsys.readouterr().out)["graphs"]
    if command == "vertex-inv":
        assert graph["vertex_signatures"] == want
    else:
        assert graph["values"] == {str(power): want}


@pytest.mark.parametrize("command, powers", [("vertex-inv", "3,4,5"), ("edge-inv", "2,3,4,5")])
@pytest.mark.parametrize("mode", ["sortdiag", "trace"])
def test_modular_json_equals_exact_json(tmp_path, capsys, command, powers, mode):
    # Petersen neighborhoods have no edges, so Rook(4) gives nonzero vertex values
    f = write(tmp_path, "p.g6", petersen_graph(), FX["rook4"])
    runs = []
    for flags in ([], ["--modulus"]):
        assert main([command, f, "--powers", powers, "--mode", mode, *flags]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    exact, modded = runs
    assert (exact.pop("arithmetic"), modded.pop("arithmetic")) == ("exact", "mod-reduced")
    assert modded == exact


def test_compare_overflow_falls_back(tmp_path, capsys):
    # exact Tr30 of srg(28,12,6,4) passes the unsigned 64-bit range
    fa = write(tmp_path, "t8.g6", triangular_graph(8))
    fb = write(tmp_path, "chang.g6", chang_graphs()[0])
    lf = tmp_path / "ladder.json"
    lf.write_text(json.dumps({"stages": [{"kind": "vertex", "mode": "trace", "powers": [30]}]}))
    assert main(["compare", fa, fb, "--ladder", str(lf)]) == 0
    out = capsys.readouterr().out
    assert out == (
        "distinguished: stage 1 (vertex/trace powers 30); "
        "exact arithmetic overflowed, values mod-reduced\n"
    )
