import networkx as nx
import numpy as np
import pytest

from srginv.graph import (
    Graph,
    GraphFormatError,
    detect_format,
    parse_adjacency_rows,
    parse_graph6,
    parse_graphs,
    write_graph6,
)

from helpers import er_graph, fixture_graphs


def test_single_edge_record():
    g = parse_graph6("A_")
    assert g.v == 2
    assert g.has_edge(0, 1)


def test_one_vertex_record():
    g = parse_graph6("@")
    assert g.v == 1
    assert g.edge_count == 0


def test_triangle_record():
    g = parse_graph6("Bw")
    assert g.v == 3
    assert g.edge_count == 3


def test_header_prefix_stripped():
    g = parse_graph6(">>graph6<<A_")
    assert g.v == 2 and g.edge_count == 1


@pytest.mark.parametrize("name", sorted(fixture_graphs()))
def test_roundtrip_fixtures(name):
    g = fixture_graphs()[name]
    assert parse_graph6(write_graph6(g)) == g


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_random(seed):
    v = 1 + seed % 70  # covers both short and the '~' long size header
    g = er_graph(v, seed)
    assert parse_graph6(g.to_graph6()) == g


@pytest.mark.parametrize("seed", range(12))
def test_matches_networkx_decoder(seed):
    g = er_graph(3 + seed * 5, seed + 100)
    theirs = nx.from_graph6_bytes(g.to_graph6().encode())
    assert theirs.number_of_nodes() == g.v
    assert {frozenset(e) for e in theirs.edges()} == {
        frozenset((a, b)) for a in range(g.v) for b in g.neighborhood(a) if a < b
    }


@pytest.mark.parametrize("seed", range(12))
def test_parses_networkx_output(seed):
    g = er_graph(3 + seed * 5, seed + 200)
    theirs = nx.Graph()
    theirs.add_nodes_from(range(g.v))
    theirs.add_edges_from((a, b) for a in range(g.v) for b in g.neighborhood(a) if a < b)
    record = nx.to_graph6_bytes(theirs, header=False).decode().strip()
    assert parse_graph6(record) == g


def test_bad_character_names_offset():
    with pytest.raises(GraphFormatError, match="byte 1"):
        parse_graph6("B" + chr(30) + "w"[1:])


def test_truncated_record():
    with pytest.raises(GraphFormatError, match="truncated"):
        parse_graph6("B")


def test_trailing_characters():
    with pytest.raises(GraphFormatError, match="trailing"):
        parse_graph6("Bww")


def test_nonzero_padding_bits():
    # v=2 needs one data bit; chr(63+0b000001) sets a padding bit
    with pytest.raises(GraphFormatError, match="padding"):
        parse_graph6("A" + chr(63 + 1))


def test_non_ascii_data_named_by_offset():
    with pytest.raises(GraphFormatError, match="byte 1"):
        parse_graph6("Bé")


def test_sparse6_rejected():
    with pytest.raises(GraphFormatError, match="sparse6"):
        parse_graph6(":Fa@x^")


def test_zero_vertices_rejected():
    with pytest.raises(GraphFormatError, match="empty vertex set"):
        parse_graph6("?")


def _outside(offset, ch):
    return f"byte {offset}: character {ch!r} outside graph6 range 63..126"


@pytest.mark.parametrize(
    "record, message",
    [
        ("", "empty graph6 record"),
        (":Bw", "byte 0: sparse6 records are not supported"),
        ("&Bw", "byte 0: digraph6 records are not supported"),
        ("\x7fw", _outside(0, "\x7f")),
        (" B!", _outside(2, "!")),
        ("Bé", _outside(1, "é")),
        ("B\udcff", _outside(1, "\udcff")),  # a lone surrogate, as stdin can carry
        ("~", "byte 0: truncated graph6 size header"),
        ("~?", "byte 0: truncated graph6 size header"),
        ("~~??", "byte 0: truncated graph6 size header"),
        ("~?!?", _outside(2, "!")),
        ("~?é?", _outside(2, "é")),
        ("~~~~~~~~", "byte 0: vertex count 68719476735 exceeds 262144"),
        ("?", "byte 0: record encodes an empty vertex set"),
        ("Bx", "byte 1: nonzero padding bits at end of record"),
        ("B!x", "byte 2: unexpected trailing characters"),
        ("Bww", "byte 2: unexpected trailing characters"),
        ("C", "byte 1: truncated record (0 data bytes, need 1)"),
        ("C!", _outside(1, "!")),
        ("~??~", "byte 4: truncated record (0 data bytes, need 326)"),
        ("D!é", _outside(1, "!")),  # the first bad character, ASCII or not
    ],
)
def test_error_messages(record, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6(record)
    assert str(exc.value) == message


def test_long_size_header_roundtrip():
    g = er_graph(63, 17, p=0.1)
    rec = g.to_graph6()
    assert rec.startswith("~")
    assert parse_graph6(rec) == g


def test_very_long_size_header_accepted():
    # non-minimal but well-formed '~~' header encoding v=5, no edges
    rec = "~~" + "".join(chr(63 + ((5 >> s) & 63)) for s in (30, 24, 18, 12, 6, 0)) + "??"
    g = parse_graph6(rec)
    assert g.v == 5 and g.edge_count == 0


# ---------------------------------------------------------------------------
# raw adjacency rows


def test_rows_k2():
    (g,) = parse_adjacency_rows("01\n10")
    assert g.v == 2 and g.has_edge(0, 1)


def test_rows_k3():
    (g,) = parse_adjacency_rows("011\n101\n110")
    assert g.edge_count == 3


def test_rows_two_blocks():
    gs = parse_adjacency_rows("010\n100\n000\n\n011\n101\n110")
    assert len(gs) == 2
    assert gs[0].edge_count == 1 and gs[0].v == 3
    assert gs[1].edge_count == 3


def test_rows_non_square():
    with pytest.raises(GraphFormatError, match="block 0, line 1"):
        parse_adjacency_rows("01\n1")


def test_rows_asymmetric():
    with pytest.raises(GraphFormatError, match="asymmetric"):
        parse_adjacency_rows("010\n000\n000")


def test_rows_nonzero_diagonal():
    with pytest.raises(GraphFormatError, match="diagonal"):
        parse_adjacency_rows("10\n01")


def test_rows_stray_character():
    with pytest.raises(GraphFormatError, match="block 1, line 0"):
        parse_adjacency_rows("01\n10\n\n0x\n10")


def test_autodetect():
    assert detect_format("011\n101\n110") == "rows"
    assert detect_format("  \nBw") == "graph6"
    assert detect_format(">>graph6<<Bw") == "graph6"


def test_parse_graphs_multi_record():
    text = ">>graph6<<\nBw\nA_\n"
    gs = parse_graphs(text)
    assert [g.v for g in gs] == [3, 2]


def test_parse_graphs_reports_line():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graphs("Bw\nB\n")


@pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_records_split_at_newline_only(sep):
    # str.splitlines() would end a record at each of these
    with pytest.raises(GraphFormatError) as exc:
        parse_graphs(f"Bw{sep}Bw\n")
    assert str(exc.value) == "line 0: byte 2: unexpected trailing characters"
    with pytest.raises(GraphFormatError) as exc:
        parse_adjacency_rows(f"0{sep}1\n10\n")
    assert str(exc.value) == "block 0, line 0: expected 2 characters, got 3"


def test_record_holding_a_separator_fails_whole():
    for text in ("B\x1cw\n", "Bw\fB\n"):
        with pytest.raises(GraphFormatError) as exc:
            parse_graphs(text)
        assert str(exc.value) == "line 0: byte 2: unexpected trailing characters"


def test_crlf_input_parses():
    assert [g.v for g in parse_graphs(">>graph6<<\r\nBw\r\nA_\r\n")] == [3, 2]
    (g,) = parse_graphs("011\r\n101\r\n110\r\n\r\n")
    assert g.edge_count == 3


def test_graph_validation():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, [0b10, 0b00])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, [0b1])
    with pytest.raises(ValueError, match="outside"):
        Graph(1, [0b10])


@pytest.mark.parametrize("name", ["petersen", "paley13", "path4"])
def test_parsed_graph_keeps_its_decoded_matrix(name):
    g = fixture_graphs()[name]
    rows = "\n".join("".join(map(str, row)) for row in g.dense().tolist())
    for parsed in (parse_graph6(write_graph6(g)), *parse_adjacency_rows(rows)):
        dense = parsed._dense  # cached at parse time, no unpacking of the rows
        assert dense is not None and parsed.dense() is dense
        assert dense.dtype == np.uint8 and dense.flags.c_contiguous
        assert not dense.flags.writeable
        assert np.array_equal(dense, g.dense())
        assert Graph(parsed.v, parsed.rows).dense().tolist() == dense.tolist()


def test_from_dense_copies_the_callers_matrix():
    mat = np.zeros((3, 3), dtype=np.uint8)
    mat[0, 1] = mat[1, 0] = 1
    g = Graph.from_dense(mat)
    mat[1, 2] = mat[2, 1] = 1
    assert mat.flags.writeable
    assert g.edge_count == 1 and not g.dense()[1, 2]
    assert not np.shares_memory(g.dense(), mat)


def test_from_dense_cache_matches_the_rows_for_any_entries():
    # any nonzero entry is an edge, in the rows and in the cached matrix
    mat = np.array([[0, 2, 0], [-1, 0, 0.5], [0, 0.5, 0]])
    g = Graph.from_dense(mat)
    assert g.edge_count == 2
    assert g.dense().tolist() == Graph(g.v, g.rows).dense().tolist()
    assert g.dense().dtype == np.uint8 and not g.dense().flags.writeable


def test_induced_subgraph_keeps_its_matrix():
    g = fixture_graphs()["petersen"]
    sub = g.induced_subgraph([0, 2, 3, 5, 7])
    assert sub._dense is not None  # no unpacking of its rows later
    assert sub.dense().tolist() == Graph(sub.v, sub.rows).dense().tolist()
    assert sub.dense().tolist() == g.dense()[np.ix_([0, 2, 3, 5, 7], [0, 2, 3, 5, 7])].tolist()
