"""Graph input/output: plain edge-list text and the graph6 encoding, short
form (n < 63) and long form ("~" and n in three 6-bit groups, n <= 258047)."""

from __future__ import annotations

from itertools import compress

from .graphs import Graph, GraphSizeError
from .srg import parse_int, quote


class GraphFormatError(ValueError):
    pass


GRAPH6_MAX_N = 258047
# read_edge_list memoises 1 << v only for v below this: the stored bits then
# take at most 4096**2 / 16 bytes (1 MiB), where memoising every vertex of a
# star on GRAPH6_MAX_N vertices would hold about 4 GB
_MEMO_VERTICES = 4096
# the binary digits "0" and "1" as the selectors 0 and 1 of compress
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def read_edge_list(text: str, *, max_n: int = GRAPH6_MAX_N) -> Graph:
    """First line is n (at most GRAPH6_MAX_N); each subsequent non-empty line
    is "u v" (0-indexed).  Lines starting with "#" are comments.  Every
    number is read by parse_int.  A count above max_n raises GraphSizeError
    before any row is built."""
    lines = iter(text.splitlines())
    for ln in lines:
        head = ln.strip()
        if head and head[0] != "#":
            break
    else:
        raise GraphFormatError("empty edge-list input")
    try:
        n = parse_int(head)
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex count line {quote(head)}") from exc
    # bounded before Graph(n) allocates its n rows
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"edge list with n={n} > {GRAPH6_MAX_N} is unsupported")
    if n > max_n:
        raise GraphSizeError(f"n={n} exceeds limit {max_n}")
    g = Graph(n)
    adj = g.adj
    # token -> (vertex, 1 << vertex), once the token has passed parse_int and
    # the range check; vertices from _MEMO_VERTICES up are parsed on every line
    memo: dict[str, tuple[int, int]] = {}
    for ln in lines:
        a, _, b = ln.partition(" ")
        try:
            # memo keys hold no whitespace, so a line found here is exactly
            # "a b", which split() would cut into [a, b]
            u, ubit = memo[a]
            v, vbit = memo[b]
        except KeyError:
            parts = ln.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 2:
                raise GraphFormatError(f"bad edge line {quote(ln.strip())}")
            a, b = parts
            u = parse_int(a)
            v = parse_int(b)
            if u == v or not (0 <= u < n and 0 <= v < n):
                g.add_edge(u, v)  # raises the loop or range error
            ubit = 1 << u
            vbit = 1 << v
            if u < _MEMO_VERTICES:
                memo[a] = (u, ubit)
            if v < _MEMO_VERTICES:
                memo[b] = (v, vbit)
        if u == v:
            g.add_edge(u, v)  # raises the loop error
        adj[u] |= vbit
        adj[v] |= ubit
    return g


def write_edge_list(g: Graph) -> str:
    """n, then one "u v" line per edge with u < v, in (u, v) order."""
    names = [str(u) for u in range(g.n)]
    lines = [str(g.n)]
    for u, row in enumerate(g.adj):
        above = row >> (u + 1)
        if above:
            # the binary digits of the neighbours above u, reversed, put
            # vertex u + 1 + i at index i; as 0/1 bytes they select the names
            head = names[u] + " "
            sel = bin(above)[:1:-1].encode().translate(_SELECTORS)
            lines.append(head + ("\n" + head).join(compress(names[u + 1 :], sel)))
    lines.append("")
    return "\n".join(lines)


def _encode_size(n: int) -> str:
    """graph6 header for n vertices."""
    if n < 63:
        return chr(n + 63)
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"graph6 for n={n} > {GRAPH6_MAX_N} is unsupported")
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def _decode_size(data: list[int]) -> tuple[int, int]:
    """(n, header length) from the 6-bit groups of a graph6 line."""
    if data[0] < 63:
        return data[0], 1
    if len(data) > 1 and data[1] == 63:
        raise GraphFormatError(f"graph6 for n > {GRAPH6_MAX_N} is unsupported")
    if len(data) < 4:
        raise GraphFormatError("graph6 long-form header is truncated")
    return data[1] << 12 | data[2] << 6 | data[3], 4


def parse_graph6(text: str, *, max_n: int = GRAPH6_MAX_N) -> Graph:
    """Decode one graph6 line (n <= 258047).  A header with n above max_n
    raises GraphSizeError before any row is built."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphFormatError("empty graph6 input")
    data = [ord(ch) - 63 for ch in s]
    if any(not 0 <= x <= 63 for x in data):
        # name the first bad character, at its offset in text (s is a suffix
        # of text.rstrip()), and quote a bounded prefix of the input
        i = next(i for i, x in enumerate(data) if not 0 <= x <= 63)
        raise GraphFormatError(
            f"invalid graph6 character {s[i]!r} at offset {len(text.rstrip()) - len(s) + i}:"
            f" a graph6 input is one graph on one line of characters '?' to '~'"
            f" (input starts {quote(text)})")
    n, start = _decode_size(data)
    if n > max_n:
        raise GraphSizeError(f"n={n} exceeds limit {max_n}")
    need = (n * (n - 1) // 2 + 5) // 6
    bits_data = data[start:]
    if len(bits_data) != need:
        raise GraphFormatError(
            f"graph6 body has {len(bits_data)} groups, expected {need} for n={n}"
        )
    # column v holds the bits of the pairs (u, v) for u < v in order of u
    bits = "".join([format(x, "06b") for x in bits_data])
    g = Graph(n)
    adj = g.adj
    pos = 0
    for v in range(1, n):
        col = bits[pos : pos + v]
        pos += v
        adj[v] |= int(col[::-1], 2)
        vbit = 1 << v
        u = col.find("1")
        while u >= 0:
            adj[u] |= vbit
            u = col.find("1", u + 1)
    return g


def write_graph6(g: Graph) -> str:
    # column v is the row of v below v, read from bit 0 up: the binary digits
    # of that row with a marker bit at v, reversed and cut before the marker
    header = _encode_size(g.n)
    adj = g.adj
    bits = "".join([bin(adj[v] & ((1 << v) - 1) | 1 << v)[:2:-1] for v in range(1, g.n)])
    bits += "0" * (-len(bits) % 6)
    return header + "".join([chr(int(bits[i : i + 6], 2) + 63)
                             for i in range(0, len(bits), 6)])


def load_graph(text: str, *, max_n: int = GRAPH6_MAX_N) -> Graph:
    """Sniff the format from the first non-blank character: a digit, "+", "-"
    or "#" starts an edge list (its vertex count, which parse_int reads with
    a sign and refuses in non-ASCII digits, or a comment line), anything
    else is read as graph6, whose characters run from "?" (63) to "~" (126)
    and whose optional ">>graph6<<" header starts with ">".  A graph with
    more than max_n vertices raises GraphSizeError before any row is built."""
    head = text.lstrip()[:1]
    if head.isdigit() or head in ("+", "-", "#"):
        return read_edge_list(text, max_n=max_n)
    return parse_graph6(text, max_n=max_n)
