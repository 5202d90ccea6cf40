import math
import os
import random
import subprocess
import sys
from operator import itemgetter

import pytest

import srgbounds.graphs as graphs
from srgbounds.graphs import (
    FANO_LINES,
    CliqueResult,
    Graph,
    GraphSizeError,
    distance_graph,
    heawood_graph,
    heawood_line_distance3,
    is_edge_regular,
    is_strongly_regular,
    line_graph,
    max_clique,
    paley,
)
from srgbounds.cab import cap_min_over_b, cap_value
from srgbounds.graphs import _forced_clique, _is_circulant, _is_prime, _relabelled
from srgbounds.srg import EdgeRegularParams, SrgParams

SRC = os.path.dirname(os.path.dirname(graphs.__file__))


def max_clique_bruteforce(g: Graph) -> int:
    """The oracle for max_clique: exhaustive subset growth; exponential,
    n <= ~20."""
    best = 0

    def grow(cand: list[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for i, u in enumerate(cand):
            rest = [w for w in cand[i + 1 :] if g.has_edge(u, w)]
            if size + 1 + len(rest) > best:
                grow(rest, size + 1)

    grow(list(range(g.n)), 0)
    return best


def _color_sort_reference(cand: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy colouring that records every candidate, whatever its colour."""
    order: list[int] = []
    colors: list[int] = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~adj[v]
            avail &= ~(1 << v)
            uncolored &= ~(1 << v)
            order.append(v)
            colors.append(color)
    return order, colors


def forced_clique_pairwise(adj: list[int]) -> tuple[int, ...]:
    """The oracle for _forced_clique: S = N(0) of a circulant is a group iff
    it is nonempty, made of units and closed under all |S|^2 products."""
    if not _is_circulant(adj):
        return ()
    n = len(adj)
    row = adj[0]
    conn = [s for s in range(n) if row >> s & 1]
    if conn and all(math.gcd(s, n) == 1 for s in conn) and all(
        row >> (s * t % n) & 1 for s in conn for t in conn
    ):
        return (0, 1)
    return (0,)


def max_clique_reference(g: Graph) -> CliqueResult:
    """The oracle for the search order of max_clique: the same branch and
    bound, but it always relabels the rows and branches on candidates of
    every colour.  max_clique must return the same size and witness."""
    if g.n == 0:
        return CliqueResult(0, ())
    perm = sorted(range(g.n), key=lambda u: (-g.degree(u), u))
    pos = [0] * g.n
    for new, old in enumerate(perm):
        pos[old] = new
    adj = [0] * g.n
    for old_u in range(g.n):
        rest = g.adj[old_u]
        while rest:
            old_v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            adj[pos[old_u]] |= 1 << pos[old_v]

    best = _forced_clique(adj)
    best_size = len(best)
    clique = list(best)

    def expand(cand: int) -> None:
        nonlocal best_size, best
        order, colors = _color_sort_reference(cand, adj)
        for i in range(len(order) - 1, -1, -1):
            if len(clique) + colors[i] <= best_size:
                return
            v = order[i]
            clique.append(v)
            new_cand = cand & adj[v]
            if new_cand:
                expand(new_cand)
            elif len(clique) > best_size:
                best_size = len(clique)
                best = tuple(clique)
            clique.pop()
            cand &= ~(1 << v)

    cand = (1 << g.n) - 1
    for v in clique:
        cand &= adj[v]
    expand(cand)
    return CliqueResult(best_size, tuple(sorted(perm[v] for v in best)))


def edge_regular_pairwise(g: Graph):
    """The oracle for is_edge_regular: the common neighbours of every edge."""
    if g.n == 0 or g.edge_count() == 0:
        return None
    k = g.degree(0)
    if any(g.degree(u) != k for u in range(1, g.n)):
        return None
    lam = None
    for u in range(g.n):
        rest = g.adj[u] >> (u + 1) << (u + 1)
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            common = (g.adj[u] & g.adj[v]).bit_count()
            if lam is None:
                lam = common
            elif lam != common:
                return None
    return EdgeRegularParams(g.n, k, lam)


def strongly_regular_pairwise(g: Graph):
    """The oracle for is_strongly_regular: the common neighbours of every
    non-adjacent pair."""
    er = edge_regular_pairwise(g)
    if er is None or er.k == g.n - 1:
        return None
    mu = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            common = (g.adj[u] & g.adj[v]).bit_count()
            if mu is None:
                mu = common
            elif mu != common:
                return None
    return SrgParams(er.v, er.k, er.lam, mu if mu is not None else 0)


def line_graph_pairwise(g: Graph) -> Graph:
    """The oracle for line_graph: compares every pair of edges, O(E^2)."""
    edges = g.edges()
    if not edges:
        raise ValueError("line graph of an edgeless graph is undefined here")
    lg = Graph(len(edges))
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                lg.add_edge(i, j)
    return lg


def distance_graph_bfs(g: Graph, i: int) -> Graph:
    """The oracle for distance_graph: a BFS per source with a dict and lists."""
    if i < 1:
        raise ValueError("distance must be >= 1")
    out = Graph(g.n)
    for src in range(g.n):
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier and d < i:
            d += 1
            nxt = []
            for u in frontier:
                for w in range(g.n):
                    if g.has_edge(u, w) and w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        for w in frontier:
            if src < w:
                out.add_edge(src, w)
    return out


def check_thm42(g: Graph, p: EdgeRegularParams) -> bool:
    """For every clique size c in 2..omega(g), the clique adjacency polynomial
    must be nonnegative over all integer b at level y = c."""
    actual = is_edge_regular(g)
    if actual != p:
        raise ValueError(f"graph has parameters {actual}, expected {p}")
    omega = max_clique(g).size
    for c in range(2, omega + 1):
        _, val = cap_min_over_b(p.v, p.k, p.lam, c)
        if val < 0:
            return False
    return True


def random_graph(n, p, rng):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def circulant(n, conn):
    """Circulant on Z_n with symmetric connection set conn, built edge by edge."""
    return Graph(n, [(u, (u + s) % n) for u in range(n) for s in conn if u < (u + s) % n])


def circulant_rows(n, conn):
    """The adjacency rows of circulant(n, conn), each row 0 rotated."""
    row = sum(1 << s for s in conn)
    return [(row << u | row >> (n - u)) & ((1 << n) - 1) for u in range(n)]


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def relabelled_reference(adj, perm):
    """The oracle for _relabelled, n >= 1: new row n-1-i is row perm[i]
    with bit perm[j] moved to bit n-1-j, its digits picked one row at a time
    from the row's reversed binary string."""
    n = len(adj)
    pick = itemgetter(*perm)
    return [int("".join(pick(bin(adj[u])[:1:-1].ljust(n, "0"))), 2) for u in reversed(perm)]


def degree_order(g):
    return sorted(range(g.n), key=lambda u: (-g.degree(u), u))


def pairwise_paley(p):
    squares = {x * x % p for x in range(1, p)}
    return Graph(p, [(a, b) for a in range(p) for b in range(a + 1, p) if (b - a) % p in squares])


def random_connection_set(n, rng):
    """A symmetric connection set on Z_n; every third one is the subgroup of
    the units generated by -1 and a few random units."""
    if rng.random() < 1 / 3:
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        group = {1, n - 1}
        for gen in rng.sample(units, min(len(units), rng.randint(0, 2))):
            while True:
                grown = group | {x * gen % n for x in group}
                if grown == group:
                    break
                group = grown
        return {x % n for x in group} - {0}
    conn = set()
    for d in range(1, n // 2 + 1):
        if rng.random() < 0.5:
            conn |= {d, n - d}
    return conn


def unit_subgroups_with_minus_one(n):
    """Every subgroup of the units mod n that holds -1, so is closed under
    negation: the closures of {1, -1} with one more unit at a time."""
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    seen = {frozenset({1, n - 1})}
    todo = list(seen)
    while todo:
        group = todo.pop()
        for u in units:
            grown, power = set(group), u
            while power not in group:
                grown |= {x * power % n for x in group}
                power = power * u % n
            grown = frozenset(grown)
            if grown not in seen:
                seen.add(grown)
                todo.append(grown)
    return seen


PALEY_PRIMES_TO_61 = [5, 13, 17, 29, 37, 41, 53, 61]
PALEY_PRIMES_TO_241 = [p for p in range(5, 242, 4) if all(p % d for d in range(2, p))]
# the clique number of Paley(p) for every prime p = 1 mod 4 up to 241
PALEY_OMEGA = {
    5: 2, 13: 3, 17: 3, 29: 4, 37: 4, 41: 5, 53: 5, 61: 5,
    73: 5, 89: 5, 97: 6, 101: 5, 109: 6, 113: 7, 137: 7, 149: 7,
    157: 7, 173: 8, 181: 7, 193: 7, 197: 8, 229: 9, 233: 7, 241: 7,
}


class TestGraph:
    def test_edges_roundtrip(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        assert g.edges() == [(0, 1), (0, 3), (1, 2)]
        assert g.edge_count() == 3
        assert g.degree(0) == 2 and g.degree(2) == 1
        assert g.has_edge(1, 0) and not g.has_edge(2, 3)

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])


def graph_by_add_edge(n, edges):
    """The oracle for Graph(n, edges): one add_edge call per edge."""
    g = Graph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def build_outcome(build, n, edges):
    """The rows that build returns, or the type and message it raises."""
    try:
        return build(n, edges).adj
    except ValueError as exc:
        return type(exc), str(exc)


class TestGraphConstruction:
    """Graph(n, edges) sets the two bits of each edge itself and calls
    add_edge only to raise its loop or range error."""

    def test_seeded_edge_lists(self):
        rng = random.Random(17)
        kinds = {"graph": 0, "loop": 0, "edge": 0}
        for _ in range(100):
            n = rng.randint(0, 70)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
            edges = [(u, v) for u, v in edges if u != v]
            if rng.random() < 0.4:
                bad = rng.choice([(rng.randint(-3, n + 2),) * 2,
                                  (rng.randint(-5, -1), rng.randint(0, n + 1)),
                                  (rng.randint(0, n + 1), n + rng.randint(0, 3)),
                                  (-1, -2)])
                edges.insert(rng.randint(0, len(edges)), bad)
            res = build_outcome(Graph, n, edges)
            assert res == build_outcome(graph_by_add_edge, n, edges), (n, edges)
            kinds["graph" if isinstance(res, list) else res[1].split()[0]] += 1
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 1), (1, 1)], "loop at vertex 1"),
        (3, [(-1, -1)], "loop at vertex -1"),
        (3, [(5, 5)], "loop at vertex 5"),
        (3, [(0, 1), (-1, 2)], "edge (-1,2) out of range for n=3"),
        (3, [(2, -3)], "edge (2,-3) out of range for n=3"),
        (3, [(0, 3)], "edge (0,3) out of range for n=3"),
        (0, [(0, 1)], "edge (0,1) out of range for n=0"),
    ])
    def test_error_messages(self, n, edges, message):
        for build in (Graph, graph_by_add_edge):
            with pytest.raises(ValueError) as exc:
                build(n, edges)
            assert str(exc.value) == message


class TestPaley:
    def test_paley5_is_pentagon(self):
        g = paley(5)
        assert g.edge_count() == 5
        assert is_strongly_regular(g) == SrgParams(5, 2, 0, 1)

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 41])
    def test_conference_parameters(self, p):
        srg = is_strongly_regular(paley(p))
        assert srg == SrgParams(p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4)

    def test_self_complementary(self):
        g = paley(13)
        comp = Graph(13)
        for u in range(13):
            for v in range(u + 1, 13):
                if not g.has_edge(u, v):
                    comp.add_edge(u, v)
        assert is_strongly_regular(comp) == SrgParams(13, 6, 2, 3)

    def test_is_prime(self):
        for n in range(-3, 5000):
            assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))), n

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            paley(9)  # prime power, unsupported

    def test_rotated_rows_match_pairwise_construction(self):
        for p in range(5, 102, 4):
            if all(p % d for d in range(2, p)):
                assert paley(p) == pairwise_paley(p), p

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError):
            paley(7)


class TestHeawoodFixture:
    def test_fano_lines_shape(self):
        assert len(FANO_LINES) == 7
        # every point on exactly 3 lines, every pair of lines meets once
        for pt in range(1, 8):
            assert sum(pt in line for line in FANO_LINES) == 3
        for i in range(7):
            for j in range(i + 1, 7):
                assert len(set(FANO_LINES[i]) & set(FANO_LINES[j])) == 1

    def test_heawood(self):
        g = heawood_graph()
        assert g.n == 14
        assert all(g.degree(u) == 3 for u in range(14))
        assert g.edge_count() == 21

    def test_line_graph_of_heawood(self):
        lg = line_graph(heawood_graph())
        assert lg.n == 21
        assert all(lg.degree(u) == 4 for u in range(21))

    def test_delta3_edge_regular_not_srg(self):
        g = heawood_line_distance3()
        assert g.n == 21
        assert is_edge_regular(g) == EdgeRegularParams(21, 8, 3)
        assert is_strongly_regular(g) is None

    def test_delta3_clique_number(self):
        g = heawood_line_distance3()
        assert max_clique(g).size == 3
        assert max_clique_bruteforce(g) == 3

    def test_check_thm42_on_fixture(self):
        g = heawood_line_distance3()
        assert check_thm42(g, EdgeRegularParams(21, 8, 3))
        with pytest.raises(ValueError):
            check_thm42(g, EdgeRegularParams(21, 8, 4))


class TestDistanceGraph:
    def test_distance1_is_identity(self):
        g = random_graph(10, 0.4, random.Random(1))
        assert distance_graph(g, 1) == g

    def test_path_distances(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        d2 = distance_graph(path, 2)
        assert set(d2.edges()) == {(0, 2), (1, 3)}
        d3 = distance_graph(path, 3)
        assert set(d3.edges()) == {(0, 3)}

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            distance_graph(Graph(3), 0)

    def test_huge_distance_stops_at_empty_frontier(self):
        # the BFS stops once a frontier is empty; without that stop this
        # takes 10**9 rounds per vertex and the subprocess times out
        code = ("from srgbounds.graphs import Graph, distance_graph; "
                "g = distance_graph(Graph(30, [(u, u + 1) for u in range(29)]), 10**9); "
                "print(g == Graph(30))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"


class TestConstructionOracle:
    """line_graph and distance_graph work on bitset rows; they must equal the
    pairwise and dict-BFS references, vertex numbering included."""

    @staticmethod
    def graphs():
        yield heawood_graph()
        yield paley(13)
        rng = random.Random(29)
        for _ in range(200):
            yield random_graph(rng.randint(0, 20), rng.random(), rng)

    def test_line_graph_matches_pairwise(self):
        edgeless = 0
        for g in self.graphs():
            if g.edge_count() == 0:
                edgeless += 1
                with pytest.raises(ValueError, match="edgeless"):
                    line_graph(g)
            else:
                assert line_graph(g) == line_graph_pairwise(g)
        assert edgeless  # n <= 1 draws reach the error branch

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_distance_graph_matches_bfs(self, d):
        for g in self.graphs():
            assert distance_graph(g, d) == distance_graph_bfs(g, d)

    def test_fixture_matches_references(self):
        want = distance_graph_bfs(line_graph_pairwise(heawood_graph()), 3)
        assert heawood_line_distance3() == want


class TestRegularityChecks:
    def test_not_regular(self):
        assert is_edge_regular(Graph(3, [(0, 1)])) is None

    def test_complete_graph(self):
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert is_edge_regular(g) == EdgeRegularParams(4, 3, 2)
        assert is_strongly_regular(g) is None  # complete graphs excluded

    def test_cycle5(self):
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert is_strongly_regular(c5) == SrgParams(5, 2, 0, 1)

    def test_petersen(self):
        # Kneser graph K(5,2)
        from itertools import combinations

        pairs = list(combinations(range(5), 2))
        g = Graph(10)
        for i in range(10):
            for j in range(i + 1, 10):
                if not set(pairs[i]) & set(pairs[j]):
                    g.add_edge(i, j)
        assert is_strongly_regular(g) == SrgParams(10, 3, 0, 1)
        assert max_clique(g).size == 2

    def test_edge_regular_but_mu_varies(self):
        g = heawood_line_distance3()
        assert is_edge_regular(g) is not None
        assert is_strongly_regular(g) is None


class TestRegularityOracle:
    """On a circulant labeling the regularity checks read lam and mu from
    vertex 0 alone; any other labeling takes the pairwise loops.  Both must
    equal the pairwise oracle."""

    @staticmethod
    def _check(g):
        er, srg = edge_regular_pairwise(g), strongly_regular_pairwise(g)
        assert is_edge_regular(g) == er
        assert is_strongly_regular(g) == srg
        return er, srg

    def test_seeded_circulants_and_relabellings(self):
        rng = random.Random(59)
        kinds = {"lam varies": 0, "edge-regular only": 0, "strongly regular": 0,
                 "empty or complete": 0, "relabelled pairwise": 0}
        for _ in range(300):
            n = rng.randint(1, 60)
            g = circulant(n, random_connection_set(n, rng))
            assert _is_circulant(g.adj)
            er, srg = self._check(g)
            if er is None:
                kinds["lam varies" if g.edge_count() else "empty or complete"] += 1
            elif srg is None and er.k < n - 1:
                kinds["edge-regular only"] += 1
            elif srg is not None:
                kinds["strongly regular"] += 1
            else:
                kinds["empty or complete"] += 1
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            if not _is_circulant(h.adj):
                kinds["relabelled pairwise"] += 1
            assert self._check(h) == (er, srg)
        assert kinds["lam varies"] >= 50, kinds
        assert kinds["edge-regular only"] >= 20, kinds
        assert kinds["strongly regular"] >= 10, kinds
        assert kinds["relabelled pairwise"] >= 250, kinds

    @pytest.mark.parametrize("n", [6, 7, 12, 60])
    def test_cycle_is_edge_regular_not_strongly_regular(self, n):
        g = circulant(n, {1, n - 1})
        assert self._check(g) == (EdgeRegularParams(n, 2, 0), None)

    def test_lam_varies(self):
        # Z_8 with S = {1, 2, 6, 7}: the edge {0, 1} has common neighbours
        # 2 and 7, the edge {0, 2} only 1
        g = circulant(8, {1, 2, 6, 7})
        assert self._check(g) == (None, None)

    @pytest.mark.parametrize("p", PALEY_PRIMES_TO_241)
    def test_paley(self, p):
        g = paley(p)
        assert _is_circulant(g.adj)
        assert self._check(g) == (EdgeRegularParams(p, (p - 1) // 2, (p - 5) // 4),
                                  SrgParams(p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4))


class TestMaxClique:
    def test_empty_and_trivial(self):
        assert max_clique(Graph(0)).size == 0
        assert max_clique(Graph(3)).size == 1

    def test_witness_is_clique(self):
        g = paley(17)
        res = max_clique(g)
        assert res.size == 3
        assert len(res.witness) == res.size
        for i, u in enumerate(res.witness):
            for v in res.witness[i + 1 :]:
                assert g.has_edge(u, v)

    def test_matches_bruteforce_random(self):
        rng = random.Random(23)
        for trial in range(40):
            n = rng.randint(1, 14)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            assert max_clique(g).size == max_clique_bruteforce(g)

    def test_deterministic(self):
        g = paley(29)
        r1 = max_clique(g)
        r2 = max_clique(g)
        assert r1 == r2

    def test_size_limit(self):
        with pytest.raises(GraphSizeError):
            max_clique(Graph(513))

    def test_paley37(self):
        assert max_clique(paley(37)).size == 4

    def test_paley_clique_numbers(self):
        assert sorted(PALEY_OMEGA) == PALEY_PRIMES_TO_241
        for p, omega in PALEY_OMEGA.items():
            assert max_clique(paley(p)).size == omega, p


class TestNodeBudget:
    """max_clique makes at most MAX_CLIQUE_NODE_LIMIT expand calls, then
    raises GraphSizeError with the best clique so far as a lower bound."""

    @pytest.mark.parametrize("build, nodes, expected", [
        # the node counts of the search order, pinned, and each witness
        (lambda: random_graph(150, 0.5, random.Random(1)), 1458, CliqueResult(11, (12, 28, 60, 71, 82, 96, 100, 114, 115, 118, 130))),
        (lambda: paley(241), 479, CliqueResult(7, (0, 1, 236, 237, 238, 239, 240))),
        (lambda: paley(509), 4417, CliqueResult(9, (0, 1, 383, 384, 389, 480, 485, 489, 505))),
    ])
    def test_node_count_is_pinned(self, build, nodes, expected, monkeypatch):
        g = build()
        monkeypatch.setattr(graphs, "MAX_CLIQUE_NODE_LIMIT", nodes)
        assert max_clique(g) == expected
        monkeypatch.setattr(graphs, "MAX_CLIQUE_NODE_LIMIT", nodes - 1)
        with pytest.raises(GraphSizeError, match=f"budget of {nodes - 1} nodes"):
            max_clique(g)

    def test_paley_to_509_answers(self):
        for p in range(5, 510, 4):
            if _is_prime(p):
                res = max_clique(paley(p))
                assert res.size == len(res.witness) >= PALEY_OMEGA.get(p, 0), p

    def test_dense_graph_reports_a_lower_bound(self):
        g = random_graph(200, 0.9, random.Random(1))
        with pytest.raises(GraphSizeError) as exc:
            max_clique(g)
        msg = str(exc.value)
        assert msg.startswith(f"clique search exceeds its budget of {graphs.MAX_CLIQUE_NODE_LIMIT} nodes")
        size = int(msg.split("omega >= ")[1].split(")")[0])
        witness = [int(w) for w in msg.split(": ")[1].split()]
        assert len(witness) == size > 1
        assert all(g.has_edge(u, v) for i, u in enumerate(witness) for v in witness[i + 1 :])


class TestSymmetryShortcut:
    """`max_clique` seeds the search with the vertices `_forced_clique` reads
    from a circulant labeling; the brute force and the plain search on a
    relabelled copy are the oracles."""

    def test_random_circulants_match_bruteforce(self):
        rng = random.Random(41)
        paths = {(): 0, (0,): 0, (0, 1): 0}
        for _ in range(2000):
            n = rng.randint(1, 18)
            g = circulant(n, random_connection_set(n, rng))
            if rng.random() < 0.2:
                perm = list(range(n))
                rng.shuffle(perm)
                g = relabel(g, perm)
            paths[_forced_clique(g.adj)] += 1
            res = max_clique(g)
            assert res.size == max_clique_bruteforce(g) == len(res.witness)
            assert all(g.has_edge(u, v) for i, u in enumerate(res.witness)
                       for v in res.witness[i + 1 :])
        assert min(paths.values()) >= 100, paths

    @pytest.mark.parametrize("p", PALEY_PRIMES_TO_61)
    def test_paley_matches_full_search_on_relabelled_copy(self, p):
        g = paley(p)
        perm = list(range(p))
        random.Random(p).shuffle(perm)
        h = relabel(g, perm)
        assert _forced_clique(g.adj) == (0, 1)
        assert _forced_clique(h.adj) == ()
        assert max_clique(g).size == max_clique(h).size

    def test_coset_subgroup_test_matches_pairwise_closure(self):
        inputs = [circulant_rows(n, {d for d in range(1, n) if mask >> min(d, n - d) & 1})
                  for n in range(1, 21) for mask in range(0, 1 << (n // 2 + 1), 2)]
        assert len(inputs) == sum(2 ** (n // 2) for n in range(1, 21))
        groups = [circulant_rows(n, group) for n in range(3, 200)
                  for group in unit_subgroups_with_minus_one(n)]
        inputs += groups + [paley(p).adj for p in PALEY_PRIMES_TO_241]
        paths = {(0,): 0, (0, 1): 0}
        for adj in inputs:
            forced = _forced_clique(adj)
            assert forced == forced_clique_pairwise(adj), (len(adj), bin(adj[0]))
            paths[forced] += 1
        assert paths[(0, 1)] >= len(groups) and paths[(0,)] > 1000, paths

    def test_closed_set_without_units_forces_one_vertex(self):
        # S = {3} on Z_6 is closed under products but does not contain 1
        g = circulant(6, {3})
        assert _forced_clique(g.adj) == (0,)
        assert max_clique(g).size == 2

    @pytest.mark.parametrize("p", PALEY_PRIMES_TO_61)
    def test_paley_complement_forces_one_vertex(self, p):
        g = paley(p)
        non_residues = set(range(1, p)) - {x * x % p for x in range(1, p)}
        comp = circulant(p, non_residues)
        assert all(comp.adj[u] == g.adj[u] ^ ((1 << p) - 1) ^ (1 << u) for u in range(p))
        assert _forced_clique(comp.adj) == (0,)
        # Paley graphs are self-complementary
        assert max_clique(comp).size == max_clique(g).size


class TestReferenceSearch:
    """max_clique skips the relabel of regular graphs and never records the
    candidates whose colour cannot beat the best clique; the full search,
    `max_clique_reference`, must find the very same witness."""

    @pytest.mark.parametrize("p", PALEY_PRIMES_TO_241)
    def test_paley(self, p):
        g = paley(p)
        assert max_clique(g) == max_clique_reference(g)

    def test_every_graph_to_5_vertices(self):
        # n = 1, isolated vertices, K_n, and both the kept (regular) order
        # and a relabelled one: every labelled graph on 0..5 vertices
        count = 0
        for n in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                res = max_clique(g)
                assert res == max_clique_reference(g), (n, mask)
                assert res.size == max_clique_bruteforce(g), (n, mask)
                count += 1
        assert count == 1 + 1 + 2 + 8 + 64 + 1024

    def test_relabel_by_one_transpose(self):
        # the transpose reads row perm[i]'s digits off the other rows, which
        # holds as the rows are symmetric: on every graph to 5 vertices and
        # on seeded G(n, 1/2), in max_clique's order and in a random one
        graphs_ = []
        for n in range(1, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs_ += [Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                        for mask in range(1 << len(pairs))]
        rng = random.Random(9)
        gnp = [random_graph(rng.randint(2, 150), 0.5, rng) for _ in range(60)]
        assert sum(degree_order(g) != list(range(g.n)) for g in gnp) >= 55
        for g in graphs_ + gnp:
            perm = degree_order(g)
            shuffled = perm[:]
            rng.shuffle(shuffled)
            for order in (perm, shuffled):
                assert _relabelled(g.adj, order) == relabelled_reference(g.adj, order), (g, order)

    def test_delta3(self):
        g = heawood_line_distance3()
        assert max_clique(g) == max_clique_reference(g) == CliqueResult(3, (10, 14, 20))

    def test_seeded_random_graphs(self):
        rng = random.Random(8)
        kinds = {"gnp": 0, "regular": 0}
        for j in range(240):
            density = (0.3, 0.5, 0.7)[j % 3]
            # G(n, 0.7) with n near 160 costs the reference seconds each
            n = rng.randint(1, 110 if density == 0.7 else 160)
            if j % 4 == 3:
                # a circulant, regular, under a random labeling
                perm = list(range(n))
                rng.shuffle(perm)
                g = relabel(circulant(n, random_connection_set(n, rng)), perm)
                kinds["regular"] += 1
            else:
                g = random_graph(n, density, rng)
                kinds["gnp"] += 1
            assert max_clique(g) == max_clique_reference(g), (j, n, density)
        assert kinds == {"gnp": 180, "regular": 60}


def block_intersection_sum(g: Graph, clique, x: int) -> int:
    """Sum over the vertices w outside the clique of (n_w - x)(n_w - x - 1),
    n_w the number of neighbours of w in the clique."""
    members = 0
    for u in clique:
        members |= 1 << u
    total = 0
    for w in range(g.n):
        if not members >> w & 1:
            n_w = (g.adj[w] & members).bit_count()
            total += (n_w - x) * (n_w - x - 1)
    return total


EDGE_REGULAR_BUILDS = {
    **{f"paley({p})": (lambda p=p: paley(p)) for p in PALEY_PRIMES_TO_241 if p <= 101},
    "heawood": heawood_graph,
    "heawood line graph": lambda: line_graph(heawood_graph()),
    "delta3": heawood_line_distance3,
}


class TestBlockIntersectionIdentity:
    """For a clique S of size s in an edge-regular (v, k, lam) graph,
    C(x, s) = sum over w outside S of (n_w - x)(n_w - x - 1): the w count
    the s(k-s+1) edges leaving S and the s(s-1)(lam-s+2) ordered pairs of
    S-vertices with a common neighbour outside S, so the sum is
    x(x+1)(v-s) - 2xs(k-s+1) + s(s-1)(lam-s+2).  This is why C(b, c+1) < 0
    rules out a (c+1)-clique; here it is checked on the graphs the package
    builds, in exact integers."""

    @pytest.mark.parametrize("name", list(EDGE_REGULAR_BUILDS))
    def test_on_a_maximum_and_a_smaller_clique(self, name):
        g = EDGE_REGULAR_BUILDS[name]()
        v, k, lam = is_edge_regular(g)
        witness = max_clique(g).witness
        for clique in (witness, witness[:-1]):
            for x in range(-3, 8):
                assert cap_value(v, k, lam, x, len(clique)) == \
                    block_intersection_sum(g, clique, x), (name, clique, x)
