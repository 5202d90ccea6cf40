import math
import random

import pytest

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
from srgbounds.graphs import _forced_clique, _is_circulant, _is_prime
from srgbounds.srg import EdgeRegularParams, SrgParams


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


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
