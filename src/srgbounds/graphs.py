"""Concrete graph constructions, regularity checks, and exact maximum clique.

Graphs are stored as dense bitset adjacency rows (one Python int per vertex),
which keeps the branch-and-bound clique search fast at desk scale (n <= 512).

`max_clique` searches the i-th vertex of its order as bit n-1-i, so the
greedy colouring takes each vertex with one `bit_length`, and it stops with
GraphSizeError after MAX_CLIQUE_NODE_LIMIT nodes.  Before branching it
reads symmetry from the labeling.  If each row adj[u] is row 0 rotated by u
(a circulant on Z_n), translations are automorphisms and vertex 0 is forced
into the clique.  If also S = N(0) is a subgroup of the units mod n, tested
coset by coset, x -> s*x (s in S) are automorphisms, and the edge {0, 1} is
forced; Paley graphs are such.  The search then runs on the common
neighbourhood of the forced vertices.  The regularity checks read the same
labeling: on a circulant, lam and mu are read from the pairs at vertex 0.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .srg import EdgeRegularParams, SrgParams, factorize

MAX_CLIQUE_VERTEX_LIMIT = 512
# most nodes (`expand` calls) of one max_clique search: the pinned graphs
# need at most 4,456, and the cut-off depends only on the graph
MAX_CLIQUE_NODE_LIMIT = 25_000
# largest p accepted by paley(): the primality test is O(sqrt(p)) trial
# division and the rows take p^2 bits, so p is bounded before either runs
PALEY_MAX_P = 4096


class GraphSizeError(ValueError):
    """Graph exceeds a desk-scale size limit: the vertex limit or the node
    budget of the exact clique search, or the largest p of a Paley
    construction."""


def _bits(x: int) -> Iterable[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        yield (x & -x).bit_length() - 1
        x &= x - 1


class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency rows.

    Treat instances as immutable once constructed.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.adj = adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                self.add_edge(u, v)  # raises the loop or range error
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.adj)
                for v in _bits(row >> (u + 1) << (u + 1))]

    def edge_count(self) -> int:
        return sum(self.degree(u) for u in range(self.n)) // 2

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


# -- constructions -----------------------------------------------------------


def _rotate(row: int, u: int, n: int) -> int:
    """Row of vertex u in the circulant on Z_n whose row 0 is `row`."""
    return (row << u | row >> (n - u)) & ((1 << n) - 1)


def _is_prime(n: int) -> bool:
    # the least prime factor of n > 1 is n itself exactly when n is prime
    return n > 1 and next(factorize(n))[0] == n


def paley(p: int) -> Graph:
    """Paley graph on a prime p = 1 mod 4: a ~ b iff a-b is a nonzero square
    mod p.  The congruence makes -1 a square, so adjacency is symmetric."""
    if p > PALEY_MAX_P:
        raise GraphSizeError(f"p={p} exceeds limit {PALEY_MAX_P}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime (prime powers are unsupported)")
    if p % 4 != 1:
        raise ValueError(f"{p} != 1 mod 4: Paley adjacency would not be symmetric")
    row = 0
    for x in range(1, p):
        row |= 1 << (x * x % p)
    g = Graph(p)
    g.adj = [_rotate(row, a, p) for a in range(p)]
    return g


# Fano plane as 7 point-triples (1-indexed); fixed fixture for the Heawood graph.
FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def heawood_graph() -> Graph:
    """Point-line incidence graph of the Fano plane: 14 vertices, cubic.
    Points are vertices 0..6, lines are 7..13."""
    g = Graph(14)
    for i, line in enumerate(FANO_LINES):
        for pt in line:
            g.add_edge(pt - 1, 7 + i)
    return g


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g, numbered in g.edges() order; adjacent iff
    the edges share an endpoint.  at[x] is the bitset of the edges at x."""
    edges = g.edges()
    if not edges:
        raise ValueError("line graph of an edgeless graph is undefined here")
    at = [0] * g.n
    for i, (a, b) in enumerate(edges):
        at[a] |= 1 << i
        at[b] |= 1 << i
    lg = Graph(len(edges))
    lg.adj = [(at[a] | at[b]) & ~(1 << i) for i, (a, b) in enumerate(edges)]
    return lg


def distance_graph(g: Graph, i: int) -> Graph:
    """Same vertex set; edge iff BFS distance in g is exactly i: a source's
    row is its i-th BFS frontier, and the search stops at an empty one."""
    if i < 1:
        raise ValueError("distance must be >= 1")
    out = Graph(g.n)
    for src in range(g.n):
        seen = frontier = 1 << src
        for _ in range(i):
            reach = 0
            for u in _bits(frontier):
                reach |= g.adj[u]
            frontier = reach & ~seen
            if not frontier:
                break
            seen |= frontier
        out.adj[src] = frontier
    return out


def heawood_line_distance3() -> Graph:
    """The distance-3 graph of the line graph of the Heawood graph: the fixture
    edge-regular (21, 8, 3) graph that is not strongly regular."""
    return distance_graph(line_graph(heawood_graph()), 3)


# -- regularity checks -------------------------------------------------------


def _is_circulant(adj: list[int]) -> bool:
    """True iff each row adj[u] is row 0 rotated by u: a circulant on Z_n,
    whose translations x -> x + u are automorphisms."""
    n = len(adj)
    return n > 0 and all(adj[u] == _rotate(adj[0], u, n) for u in range(1, n))


def _pair_rows(g: Graph) -> Iterable[int]:
    """Rows whose pairs {u, v}, u < v, stand for all pairs: row 0 on a
    circulant labeling, whose translations take each pair to one at vertex 0,
    and every row otherwise."""
    return (0,) if _is_circulant(g.adj) else range(g.n)


def _pair_count(g: Graph, rows: Iterable[int], adjacent: bool) -> Optional[int]:
    """The common neighbour count of the pairs {u, v} with u in rows, v > u
    and v a neighbour (adjacent) or a non-neighbour of u; None as soon as two
    counts differ, or if there is no such pair."""
    flip = 0 if adjacent else (1 << g.n) - 1
    count = None
    for u in rows:
        row = g.adj[u]
        for v in _bits((row ^ flip) >> (u + 1) << (u + 1)):
            common = (row & g.adj[v]).bit_count()
            if count is None:
                count = common
            elif count != common:
                return None
    return count


def _edge_regular(g: Graph, rows: Iterable[int]) -> Optional[EdgeRegularParams]:
    # a regular graph with an edge has k > 0
    k = g.degree(0) if g.n else 0
    if k == 0 or any(g.degree(u) != k for u in range(1, g.n)):
        return None
    lam = _pair_count(g, rows, adjacent=True)
    return None if lam is None else EdgeRegularParams(g.n, k, lam)


def is_edge_regular(g: Graph) -> Optional[EdgeRegularParams]:
    """Parameters (v, k, lam) if g is non-empty, regular, and the common
    neighbour count is constant over edges; None otherwise.  A circulant
    labeling is checked from row 0 alone."""
    return _edge_regular(g, _pair_rows(g))


def is_strongly_regular(g: Graph) -> Optional[SrgParams]:
    """SrgParams if g is edge-regular, non-complete, and the common neighbour
    count over non-adjacent pairs is also constant; None otherwise.  A
    circulant labeling is checked from row 0 alone."""
    rows = _pair_rows(g)
    er = _edge_regular(g, rows)
    if er is None or er.k == g.n - 1:
        return None
    mu = _pair_count(g, rows, adjacent=False)
    return None if mu is None else SrgParams(er.v, er.k, er.lam, mu)


# -- maximum clique ----------------------------------------------------------


class CliqueResult(NamedTuple):
    size: int
    witness: tuple[int, ...]


def _forced_clique(adj: list[int]) -> tuple[int, ...]:
    """Vertices that some maximum clique contains, read from the labeling:
    (0,) for a circulant, (0, 1) for a circulant whose connection set is a
    multiplicative subgroup of the units mod n, () otherwise.

    The subgroup test grows a subgroup H from {1} inside S = N(0), after
    checking that 1 is in S and S holds only units.  The units commute, so
    adding s to H gives the cosets H, Hs, Hs^2, ... up to the first power of
    s already in H; each element is made once and must lie in S.  H then
    ends inside S and holds every s in S, so H = S, after at most 2|S|
    products where the pairwise closure takes |S|^2."""
    if not _is_circulant(adj):
        return ()
    n = len(adj)
    row = adj[0]
    if not row >> 1 & 1 or any(math.gcd(s, n) != 1 for s in _bits(row)):
        return (0,)
    group = [1]
    members = 2  # H as a bitset over Z_n
    for s in _bits(row):
        # coset is H s^j, its first element s^j; the next coset meets the
        # cosets made so far only if s^(j+1) is in H
        coset, grown = group, []
        while not members >> (coset[0] * s % n) & 1:
            coset = [h * s % n for h in coset]
            for x in coset:
                if not row >> x & 1:
                    return (0,)
                members |= 1 << x
            grown += coset
        group += grown
    return (0, 1)


def _relabelled(adj: list[int], perm: list[int]) -> list[int]:
    """The rows of the graph with adjacency rows adj under the labeling that
    makes vertex perm[i] bit n-1-i, listed by new vertex, bit 0 first.  A
    regular graph (so every circulant) keeps its order, and each row is its
    n binary digits reversed."""
    n = len(adj)
    if perm == list(range(n)):
        return [int(format(row, f"0{n}b")[::-1], 2) for row in reversed(adj)]
    # new row n-1-i is old row perm[i] with bit perm[j] moved to bit n-1-j:
    # its digits, most significant first, are bit perm[j] of row perm[i] for
    # j = 0..n-1, which by symmetry is bit perm[i] of row perm[j], so one
    # transpose of the rows' reversed binary strings, taken in the order
    # perm, gives them all: column u holds row u's digits
    cols = list(zip(*[bin(adj[u])[:1:-1].ljust(n, "0") for u in perm]))
    return [int("".join(cols[u]), 2) for u in reversed(perm)]


def max_clique(g: Graph) -> CliqueResult:
    """Exact maximum clique by branch-and-bound on bitsets with a greedy
    coloring upper bound.  Deterministic: vertices are explored in
    degree-descending order with index tie-break, from `_forced_clique`.
    The i-th vertex of that order is searched as bit n-1-i, so colouring
    takes each class's next vertex with one `bit_length`.

    The search makes at most MAX_CLIQUE_NODE_LIMIT nodes (`expand` calls);
    past that it raises GraphSizeError with the best clique found so far,
    a lower bound on the clique number."""
    if g.n > MAX_CLIQUE_VERTEX_LIMIT:
        raise GraphSizeError(f"n={g.n} exceeds limit {MAX_CLIQUE_VERTEX_LIMIT}")
    if g.n == 0:
        return CliqueResult(0, ())

    # relabel by degree-descending, original index tie-break
    n = g.n
    perm = sorted(range(n), key=lambda u: (-g.degree(u), u))
    adj = _relabelled(g.adj, perm)

    # a circulant is regular, so its forced vertex u sits at bit n-1-u
    clique = [n - 1 - u for u in _forced_clique(g.adj)]
    best = tuple(clique)
    best_size = len(best)
    # every vertex except v and its neighbours: one AND removes a coloured
    # vertex and its neighbours from the colour class being filled
    nadj = [~(row | 1 << v) for v, row in enumerate(adj)]
    bit = [1 << v for v in range(n)]
    budget = MAX_CLIQUE_NODE_LIMIT

    def witness() -> tuple[int, ...]:
        return tuple(sorted(perm[n - 1 - v] for v in best))

    def expand(cand: int) -> None:
        # greedy colouring of cand, one colour class at a time, so the
        # vertices of colours 1..c hold no clique larger than c.  A vertex of
        # colour below kmin cannot grow the current clique past the best one,
        # so the first loop only colours; the second keeps each class from
        # kmin up as one bitset, and branching runs from the last class down,
        # inside a class from its lowest bit up, the reverse of the order
        # coloured (the MCQ/MCS rule of Tomita et al.)
        nonlocal best_size, best, budget
        budget -= 1
        if budget < 0:
            raise GraphSizeError(
                f"clique search exceeds its budget of {MAX_CLIQUE_NODE_LIMIT}"
                f" nodes; best clique so far has {best_size} vertices"
                f" (omega >= {best_size}): {' '.join(map(str, witness()))}")
        depth = len(clique)
        kmin = best_size - depth + 1
        uncolored = cand
        for _ in range(kmin - 1):
            if not uncolored:
                return
            avail = uncolored
            while avail:
                v = avail.bit_length() - 1
                avail &= nadj[v]
                uncolored ^= bit[v]
        classes: list[int] = []
        while uncolored:
            rest = avail = uncolored
            while avail:
                v = avail.bit_length() - 1
                avail &= nadj[v]
                uncolored ^= bit[v]
            classes.append(rest ^ uncolored)
        color = max(kmin - 1, 0) + len(classes)
        for members in reversed(classes):
            while members:
                if depth + color <= best_size:
                    return
                b = members & -members
                v = b.bit_length() - 1
                members ^= b
                clique.append(v)
                new_cand = cand & adj[v]
                if new_cand:
                    expand(new_cand)
                elif depth + 1 > best_size:
                    best_size = depth + 1
                    best = tuple(clique)
                clique.pop()
                cand ^= b  # v came from cand
            color -= 1

    cand = (1 << n) - 1
    for v in clique:
        cand &= adj[v]
    expand(cand)
    return CliqueResult(best_size, witness())
