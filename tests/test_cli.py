import json

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

from helpers import fixture_graphs

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


def test_edge_inv_computes_bar_powers_once(tmp_path, capsys, matmul_calls):
    f = write(tmp_path, "paley13.g6", paley_graph(13))
    assert main(["edge-inv", f, "--powers", "2,3,4,5"]) == 0
    capsys.readouterr()
    assert len(matmul_calls) == 2  # B^2 and B^3


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
    assert "exactly one graph" in capsys.readouterr().err


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
    assert main(["check-srg", str(f), "--format", "rows"]) == 0
    assert "3-2-1-*" in capsys.readouterr().out
    assert main(["check-srg", str(f), "--format", "auto"]) == 0
    capsys.readouterr()


def test_report_jobs_flag(tmp_path, capsys):
    f = write(tmp_path, "fam.g6", FX["rook4"], FX["shrikhande"], petersen_graph())
    assert main(["report", f, "--jobs", "2", "--out", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", f, "--jobs", "1", "--out", "json"]) == 0
    assert capsys.readouterr().out == first


def test_missing_file_is_an_error(capsys):
    assert main(["check-srg", "/nonexistent/file.g6"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_powers_rejected(tmp_path, capsys):
    f = write(tmp_path, "p.g6", petersen_graph())
    assert main(["vertex-inv", f, "--powers", "4,3"]) == 1
    assert "ascending" in capsys.readouterr().err


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
