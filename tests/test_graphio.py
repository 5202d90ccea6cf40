import random

import pytest

from srgbounds.graphio import (
    GRAPH6_MAX_N,
    GraphFormatError,
    _decode_size,
    _encode_size,
    load_graph,
    parse_graph6,
    read_edge_list,
    write_edge_list,
    write_graph6,
)
from srgbounds.graphs import Graph, paley


def random_graph(n, p, rng):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


class TestEdgeList:
    def test_roundtrip(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)])
        assert read_edge_list(write_edge_list(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a graph\n3\n\n0 1\n# another comment\n1 2\n"
        g = read_edge_list(text)
        assert g.edges() == [(0, 1), (1, 2)]

    def test_empty_input(self):
        with pytest.raises(GraphFormatError):
            read_edge_list("")

    def test_bad_count_line(self):
        with pytest.raises(GraphFormatError):
            read_edge_list("x\n0 1\n")

    def test_bad_edge_line(self):
        with pytest.raises(GraphFormatError):
            read_edge_list("3\n0 1 2\n")

    @pytest.mark.parametrize("text, error, message", [
        ("3\n0 1\n1 1\n", ValueError, "loop at vertex 1"),
        ("3\n0 1\n0 3\n", ValueError, "edge (0,3) out of range for n=3"),
        ("3\n-1 2\n", ValueError, "edge (-1,2) out of range for n=3"),
        ("3\n0 1 2\n", GraphFormatError, "bad edge line '0 1 2'"),
        ("3\n0\n", GraphFormatError, "bad edge line '0'"),
        ("x\n0 1\n", GraphFormatError, "bad vertex count line 'x'"),
        ("-2\n", ValueError, "vertex count must be nonnegative"),
    ])
    def test_error_messages(self, text, error, message):
        with pytest.raises(error) as exc:
            read_edge_list(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [GRAPH6_MAX_N + 1, 10**13, 10**400],
                             ids=["max+1", "1e13", "1e400"])
    def test_huge_count_rejected_before_allocation(self, n):
        with pytest.raises(GraphFormatError) as exc:
            read_edge_list(f"{n}\n0 1\n")
        assert str(exc.value) == f"edge list with n={n} > {GRAPH6_MAX_N} is unsupported"

    def test_largest_count_accepted(self):
        g = read_edge_list(f"{GRAPH6_MAX_N}\n0 {GRAPH6_MAX_N - 1}\n")
        assert g.n == GRAPH6_MAX_N and g.edges() == [(0, GRAPH6_MAX_N - 1)]

    def test_text_matches_edges(self):
        # the text write_edge_list produced when it formatted Graph.edges()
        rng = random.Random(71)
        graphs = [random_graph(rng.randint(0, 90), rng.choice([0.1, 0.5, 0.9]), rng)
                  for _ in range(60)]
        for g in [*graphs, Graph(1), Graph(3), paley(241)]:
            text = "\n".join([str(g.n), *(f"{u} {v}" for u, v in g.edges())]) + "\n"
            assert write_edge_list(g) == text
            assert read_edge_list(text) == g


class TestGraph6:
    def test_triangle_encoding(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert write_graph6(k3) == "Bw"
        assert parse_graph6("Bw") == k3

    def test_header_prefix_accepted(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert parse_graph6(">>graph6<<Bw") == k3

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng.randint(0, 40), rng.choice([0.2, 0.6]), rng)
            assert parse_graph6(write_graph6(g)) == g

    def test_roundtrip_paley(self):
        g = paley(29)
        assert parse_graph6(write_graph6(g)) == g

    def test_long_form_spec_vector(self):
        # the graph6 specification encodes n = 12345 as bytes 126 66 63 120
        assert [ord(c) for c in _encode_size(12345)] == [126, 66, 63, 120]
        assert _decode_size([126 - 63, 66 - 63, 0, 120 - 63]) == (12345, 4)

    def test_size_header_roundtrip(self):
        for n in [*range(0, 200), 4095, 4096, GRAPH6_MAX_N]:
            header = _encode_size(n)
            assert len(header) == (1 if n < 63 else 4)
            assert _decode_size([ord(c) - 63 for c in header]) == (n, len(header))

    def test_long_form_roundtrip(self):
        rng = random.Random(63)
        for g in (paley(241), random_graph(63, 0.5, rng), random_graph(130, 0.3, rng)):
            text = write_graph6(g)
            assert text[0] == "~"
            assert parse_graph6(text) == g

    def test_eight_byte_form_unsupported(self):
        with pytest.raises(GraphFormatError):
            write_graph6(Graph(GRAPH6_MAX_N + 1))
        with pytest.raises(GraphFormatError):
            parse_graph6("~~" + "?" * 6)

    def test_truncated_long_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("~??")

    def test_truncated_body(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("D")  # n=5 needs 2 body groups

    def test_invalid_characters(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("B\x05")

    def test_empty(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("   ")


class TestSniffing:
    def test_edge_list_detected(self):
        assert load_graph("3\n0 1\n").edges() == [(0, 1)]

    def test_first_line_ends_at_any_line_break(self):
        assert load_graph("3\r0 1\r").edges() == [(0, 1)]
        assert load_graph("  \n 2 \r\n0 1").edges() == [(0, 1)]

    def test_graph6_detected(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert load_graph("Bw") == k3

    def test_leading_comments_and_blanks_skipped(self):
        assert load_graph("# a comment\n3\n0 1\n").edges() == [(0, 1)]
        assert load_graph("\n  # c\r\n\r\n#\n 3 \r0 1\r").edges() == [(0, 1)]
        text = "# n, then one edge per line\n# (written by hand)\n\n4\n0 1\n# mid\n2 3\n"
        assert load_graph(text) == read_edge_list(text)

    def test_graph6_after_blank_lines(self):
        assert load_graph("\n \nBw\n") == Graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_only_comments_is_not_an_edge_list(self):
        with pytest.raises(GraphFormatError):
            load_graph("# nothing here\n\n")
