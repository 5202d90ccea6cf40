import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from srgbounds.graphs import Graph, GraphSizeError, paley
from srgbounds.srg import quote
from test_graphs import random_graph


def int_reference(token: str) -> int:
    """The oracle for srg.parse_int: int() of a full match of [+-]?[0-9]+."""
    if re.fullmatch("[+-]?[0-9]+", token) is None:
        raise ValueError(
            f"invalid integer {quote(token)}: expected ASCII digits with an optional sign")
    return int(token)


def read_edge_list_reference(text: str) -> Graph:
    """The oracle for read_edge_list: strip every line, drop blanks and
    comments, then parse both tokens of each edge line with int_reference."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    try:
        n = int_reference(lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex count line {lines[0]!r}") from exc
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"edge list with n={n} > {GRAPH6_MAX_N} is unsupported")
    g = Graph(n)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        g.add_edge(int_reference(parts[0]), int_reference(parts[1]))
    return g


def write_graph6_reference(g: Graph) -> str:
    """The oracle for write_graph6: one bit per pair (u, v), u < v, in
    column order, packed six at a time."""
    header = _encode_size(g.n)
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [header]
    for i in range(0, len(bits), 6):
        x = 0
        for bit in bits[i : i + 6]:
            x = x << 1 | bit
        out.append(chr(x + 63))
    return "".join(out)


def parse_graph6_reference(text: str) -> Graph:
    """The oracle for parse_graph6: unpack every bit into a list, then add
    one edge per set bit."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphFormatError("empty graph6 input")
    data = [ord(ch) - 63 for ch in s]
    if any(not 0 <= x <= 63 for x in data):
        bad = next(ch for ch in s if not "?" <= ch <= "~")
        # leading blanks, then the header, then s up to the bad character
        offset = len(text) - len(text.lstrip()) + len(text.strip()) - len(s) + s.index(bad)
        raise GraphFormatError(
            f"invalid graph6 character {bad!r} at offset {offset}: a graph6 input is one"
            f" graph on one line of characters '?' to '~' (input starts {quote(text)})")
    n, start = _decode_size(data)
    need = (n * (n - 1) // 2 + 5) // 6
    bits_data = data[start:]
    if len(bits_data) != need:
        raise GraphFormatError(
            f"graph6 body has {len(bits_data)} groups, expected {need} for n={n}"
        )
    bits = []
    for x in bits_data:
        for shift in range(5, -1, -1):
            bits.append(x >> shift & 1)
    g = Graph(n)
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                g.add_edge(u, v)
            idx += 1
    return g


def outcome(reader, text):
    """The graph that reader returns, or the type and message it raises."""
    try:
        return reader(text)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_as_reference(text):
    assert outcome(read_edge_list, text) == outcome(read_edge_list_reference, text), text


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
        # int() would read each of these as a number
        ("1_0\n0 1\n", GraphFormatError, "bad vertex count line '1_0'"),
        ("\u0663\n0 1\n", GraphFormatError, "bad vertex count line '\u0663'"),
        ("3\n0 \u0662\n", ValueError,
         "invalid integer '\u0662': expected ASCII digits with an optional sign"),
        ("3\n0 1\n0_0 2\n", ValueError,
         "invalid integer '0_0': expected ASCII digits with an optional sign"),
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
        complete = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
                    for n in (2, 3, 7, 64)]
        # the top vertices isolated: the rows above the last edge select nothing
        top_isolated = [Graph(9, [(0, 1), (1, 2), (0, 5)]), Graph(70, [(0, 63), (3, 4)])]
        for g in [*graphs, Graph(0), Graph(1), Graph(2), Graph(3), Graph(40),
                  *complete, *top_isolated, paley(241)]:
            text = "\n".join([str(g.n), *(f"{u} {v}" for u, v in g.edges())]) + "\n"
            assert write_edge_list(g) == text
            assert read_edge_list(text) == g

    def test_memory_stays_near_the_split_lines(self):
        # reading or writing the Paley(241) list holds at most 1.25 times
        # what its splitlines() holds; a whole-text split() or a regex check
        # of the text peaks at about 1.8 or 3 times that
        g = paley(241)
        text = write_edge_list(g)

        def traced(f, arg):
            tracemalloc.start()
            try:
                result = f(arg)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return result, current, peak

        lines, held, _ = traced(str.splitlines, text)
        assert len(lines) == 1 + 241 * 60
        del lines
        copy, _, read_peak = traced(read_edge_list, text)
        written, _, write_peak = traced(write_edge_list, g)
        assert copy == g and written == text
        assert read_peak <= 1.25 * held, (read_peak, held)
        assert write_peak <= 1.25 * held, (write_peak, held)


_TOKENS = ["0", "1", "2", "3", "4", "007", "+3", "-0", "3_0", "\u0663", "01", "-1",
           "5", "9", "x", "1.0", "#", "#1", "0x1"]
_SEPARATORS = [" ", "  ", "\t", " \t "]
_BREAKS = ["\n", "\r\n", "\r", "\x1c", "\u2028"]


def _edge_line(rng):
    r = rng.random()
    if r < 0.05:
        return ""
    if r < 0.1:
        return rng.choice(["# comment", "# 1", "#", "   "])
    k = 2 if r < 0.95 else rng.choice([1, 3])
    line = rng.choice(_SEPARATORS).join(rng.choice(_TOKENS) for _ in range(k))
    return rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t"])


def _random_text(rng, valid):
    """An edge list over the token pool; with valid set, only tokens of
    vertices in range, no loops and no bad lines."""
    n = rng.randint(0, 12) if valid else rng.choice([0, 1, 2, 5, 5, 5, 8, 40])
    lines = [rng.choice(["", "# header"]) for _ in range(rng.randint(0, 2))]
    lines.append(str(n) if valid or rng.random() < 0.9 else rng.choice(["x", "3 3", "-2"]))
    for _ in range(rng.randint(0, 30)):
        if valid:
            if n < 2:
                break
            u, v = rng.sample(range(n), 2)
            lines.append(f"{rng.choice(['', '0', '00'])}{u}{rng.choice(_SEPARATORS)}{v}")
        else:
            lines.append(_edge_line(rng))
    breaks = [rng.choice(_BREAKS) for _ in lines]
    return "".join(ln + brk for ln, brk in zip(lines, breaks))


class TestEdgeListOracle:
    """read_edge_list memoises tokens and calls split() only on a line whose
    halves around its first space are not both memoised tokens; the reader
    it replaced, read_edge_list_reference, must return an equal Graph or
    raise the same exception with the same message."""

    def test_seeded_valid_texts(self):
        rng = random.Random(11)
        for _ in range(300):
            text = _random_text(rng, valid=True)
            assert isinstance(outcome(read_edge_list, text), Graph)
            assert_same_as_reference(text)

    def test_seeded_malformed_texts(self):
        rng = random.Random(12)
        kinds = set()
        for _ in range(1500):
            text = _random_text(rng, valid=False)
            assert_same_as_reference(text)
            res = outcome(read_edge_list, text)
            kinds.add("graph" if isinstance(res, Graph) else res[1].split()[0])
        # every kind of failure shows up: count line, edge line, int(),
        # loop, range, negative count
        assert kinds >= {"graph", "bad", "invalid", "loop", "edge", "vertex"}, kinds

    @pytest.mark.parametrize("text", [
        "8\n007 3\n",
        "8\n+3 1\n",
        "8\n-0 1\n-0 2\n",
        "40\n3_0 1\n",
        "8\n\u0663 1\n3 \u0663\n",
        "8\n\u0663 3\n",
        "8\n007 7\n",
        "5\t\n0\t1\n\t1 \t2\t\n",
        "5\r\n0 1\r\n2 3\r\n",
        "5\x1c0 1\x1c1 2",
        "5\n# 1\n0 1\n",
        "5\n0 1\n#1 2 3\n",
        "5\n0 1\n1 0\n0 1\n0 1\n",
        # a loop or a bad vertex after both tokens are memoised
        "5\n0 1\n1 1\n1 9\n",
        "5\n0 1\n01 1\n",
        "5\n01 2\n1 2\n01 1\n",
        "5\n0 1\n1 9\n",
        "5\n0 1\n9 1\n",
        "5\n0 1\n-1 1\n",
        "5\n0 1\n1 x\n",
        "5\n0 1\nx 9\n",
        "5\n0 1\n9 x\n",
        "5\n0 1\n9 9\n",
        "5\n0 1\n0 1 2\n",
        "5\n0 1\n 0 \n",
        # memoised tokens on a line that is not plain "u v": the line falls
        # back to split(), or fails as the reference does
        "5\n0 1\n0 1 \n",
        "5\n0 1\n0  1\n",
        "5\n0 1\n0\t1\n",
        "5\n0 1\n0 1 1\n",
        "5\n0 1\n 0 1\n",
        "5\n0 1\n0\u00a01\n",
        "5\n0 1\n# 1\n",
        "# only\n\n",
        "\n  \r\n 7 7 \n",
    ])
    def test_hand_written_cases(self, text):
        assert_same_as_reference(text)

    def test_vertices_past_the_memo(self):
        # vertices from 4096 up are parsed on every line, not memoised
        n = 5000
        rng = random.Random(13)
        lines = [f"{rng.randrange(n)} {rng.randrange(4000, n)}" for _ in range(400)]
        lines = [ln for ln in lines if len(set(ln.split())) == 2]
        text = "\n".join([str(n), *lines, "4999 4999"])
        assert_same_as_reference("\n".join([str(n), *lines]))
        assert_same_as_reference(text)

    def test_memo_memory_is_bounded(self):
        # a star: every leaf is a distinct token, and 1 << v for all of
        # them would take n**2 / 16 bytes (25 MB here)
        n = 20000
        text = "\n".join([str(n), *(f"0 {v}" for v in range(1, n))])
        tracemalloc.start()
        try:
            g = read_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.degree(0) == n - 1
        assert peak < 8 * 2**20, peak

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(_TOKENS),
        st.integers(-3, 12).map(str),
        st.text(st.characters(min_codepoint=9, max_codepoint=0x700), max_size=3),
    ), max_size=24), st.lists(st.sampled_from([*_SEPARATORS, *_BREAKS]), min_size=24,
                              max_size=24), st.integers(0, 12))
    def test_hypothesis_texts(self, tokens, gaps, n):
        text = str(n) + "\n" + "".join(t + g for t, g in zip(tokens, gaps))
        assert_same_as_reference(text)


class TestVertexLimit:
    """The readers refuse n above max_n once the header is decoded."""

    @pytest.mark.parametrize("reader, text", [
        (read_edge_list, "513\n0 1\n"),
        (load_graph, "# big\n513\n0 1\n"),
        (parse_graph6, write_graph6(Graph(513))),
        (load_graph, write_graph6(Graph(513))),
        # the header alone decides: the body is short and the edge is a loop
        (parse_graph6, write_graph6(Graph(513))[:6]),
        (read_edge_list, "513\n7 7\n"),
    ])
    def test_over_limit(self, reader, text):
        with pytest.raises(GraphSizeError) as exc:
            reader(text, max_n=512)
        assert str(exc.value) == "n=513 exceeds limit 512"

    def test_at_limit(self):
        g = Graph(512, [(0, 511)])
        for text in (write_edge_list(g), write_graph6(g)):
            assert load_graph(text, max_n=512) == g

    def test_format_limit_reported_first(self):
        n = GRAPH6_MAX_N + 1
        with pytest.raises(GraphFormatError) as exc:
            read_edge_list(f"{n}\n0 1\n", max_n=512)
        assert str(exc.value) == f"edge list with n={n} > {GRAPH6_MAX_N} is unsupported"
        with pytest.raises(GraphFormatError):
            parse_graph6("~~" + "?" * 6, max_n=512)

    def test_default_is_the_format_limit(self):
        g = read_edge_list(f"{GRAPH6_MAX_N}\n0 1\n")
        assert g.n == GRAPH6_MAX_N


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

    @pytest.mark.parametrize("text, char, offset, start", [
        ("A_\nBw\n", "'\\n'", 2, "'A_\\nBw\\n'"),
        ("  >>graph6<<Bw x", "' '", 14, "'  >>graph6<<Bw x'"),
        ("Bw\x00" + "?" * 40, "'\\x00'", 2, "'Bw\\x00" + "?" * 17 + "'..."),
        # repr writes each as 10 characters: the quote is cut after 40 of them
        ("\U000e0001" * 30, "'\\U000e0001'", 0, "'" + "\\U000e0001" * 4 + "'..."),
    ], ids=["two-graphs", "header", "long", "escapes"])
    def test_invalid_character_message(self, text, char, offset, start):
        # the first bad character at its offset in the input, and a bounded
        # prefix of that input
        want = (f"invalid graph6 character {char} at offset {offset}: a graph6 input is one"
                f" graph on one line of characters '?' to '~' (input starts {start})")
        assert outcome(parse_graph6, text) == outcome(parse_graph6_reference, text) \
            == (GraphFormatError, want)
        assert len(want) < 200

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


class TestGraph6Oracle:
    """write_graph6 and parse_graph6 against the bit-by-bit reference codec."""

    def seeded_graphs(self):
        rng = random.Random(66)
        sizes = [*range(0, 20), 61, 62, 63, 64, 65, 126, 127, 128]
        sizes += [rng.randint(0, 140) for _ in range(120)]
        for n in sizes:
            yield random_graph(n, rng.choice([0.0, 0.05, 0.3, 0.5, 0.9, 1.0]), rng)
        yield paley(241)

    def test_writer_matches_reference(self):
        long_forms = 0
        for g in self.seeded_graphs():
            text = write_graph6(g)
            assert text == write_graph6_reference(g), g.n
            long_forms += text[0] == "~"
        assert long_forms >= 50

    def test_parser_matches_reference(self):
        for g in self.seeded_graphs():
            text = write_graph6(g)
            assert parse_graph6(text) == parse_graph6_reference(text) == g, g.n

    def test_parser_matches_reference_on_seeded_strings(self):
        # random bodies, including set padding bits, and corrupted lines
        rng = random.Random(67)
        for _ in range(600):
            n = rng.randint(0, 100)
            body = "".join(chr(rng.randint(63, 126)) for _ in range((n * (n - 1) // 2 + 5) // 6))
            text = _encode_size(n) + body
            if rng.random() < 0.4:
                i = rng.randint(0, len(text))
                text = text[:i] + rng.choice(["", "?", "~", "\x05", "\x7f", " "]) + text[i + 1 :]
            assert outcome(parse_graph6, text) == outcome(parse_graph6_reference, text), text


# edge-list and graph6 characters, blanks and line breaks of str.splitlines
SNIFF_ALPHABET = st.sampled_from(list("0123456789+-# \t\n\r\x0b\x1c\u2028?@ABw~>"))


class TestSniffing:
    def test_edge_list_detected(self):
        assert load_graph("3\n0 1\n").edges() == [(0, 1)]

    def test_first_line_ends_at_any_line_break(self):
        assert load_graph("3\r0 1\r").edges() == [(0, 1)]
        assert load_graph("  \n 2 \r\n0 1").edges() == [(0, 1)]

    def test_signed_count_is_an_edge_list(self):
        # int() reads a sign, and no graph6 text starts with "+" or "-"
        assert load_graph("+3\n0 1\n").edges() == [(0, 1)]
        assert load_graph(" \n+3\n0 1\n") == read_edge_list("+3\n0 1\n")
        assert load_graph("-0\n") == Graph(0)

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

    def test_only_comments_is_an_empty_edge_list(self):
        with pytest.raises(GraphFormatError) as exc:
            load_graph("# nothing here\n\n")
        assert str(exc.value) == "empty edge-list input"

    @pytest.mark.parametrize("text, message", [
        # a digit or "#" first selects the edge-list reader, which names the
        # line it cannot read as a vertex count
        ("5 6\n", "bad vertex count line '5 6'"),
        ("# c\nBw", "bad vertex count line 'Bw'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            load_graph(text)
        assert str(exc.value) == message

    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(st.text(), st.text(alphabet=SNIFF_ALPHABET, max_size=30)))
    def test_reader_is_chosen_by_first_nonblank_character(self, text):
        first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")[:1]
        reader = read_edge_list if first.isdigit() or first in ("+", "-", "#") else parse_graph6
        assert outcome(load_graph, text) == outcome(reader, text), text
