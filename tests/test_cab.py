import importlib
import random
import time
from collections import Counter
from decimal import Decimal, getcontext
from fractions import Fraction
from math import floor, isqrt

import pytest

from srgbounds.cab import (
    CabWitness,
    cab,
    cap_min_over_b,
    cap_value,
    delsarte_bound,
    full_report,
    hoffman_clique_bound,
    thm21_applies,
)
from srgbounds.catalog import ScanConfig, _primitive_rows, enumerate_feasible, scan_compare
from srgbounds.mpoly import MPoly
from srgbounds.quadext import QuadExt
from srgbounds.srg import (
    EdgeRegularParams,
    FeasibilityLevel,
    InfeasibleParamsError,
    SrgParams,
    SrgType,
    factorize,
    is_feasible,
    spectrum,
)
from test_catalog import family_construction, family_report

# the package re-exports the function cab, which shadows the module name
cab_module = importlib.import_module("srgbounds.cab")


def cap_min_over_b_bruteforce(v: int, k: int, lam: int, y: int,
                              lo: int | None = None, hi: int | None = None) -> tuple[int, int]:
    """The oracle for cap_min_over_b: scan b over an explicit range
    (default [-2v, 2v])."""
    if lo is None:
        lo = -2 * v
    if hi is None:
        hi = 2 * v
    best = None
    for b in range(lo, hi + 1):
        val = cap_value(v, k, lam, b, y)
        if best is None or val < best[1]:
            best = (b, val)
    return best


def cab_linear(p: EdgeRegularParams, first: int = 3) -> tuple[int, CabWitness]:
    """The plain walk y = c+1 = first, first+1, ...: from y = 3, the oracle
    for cab()."""
    p.validate()
    v, k, lam = p.v, p.k, p.lam
    c = first - 1
    while True:
        y = c + 1
        if y >= v:
            b, val = 0, cap_value(v, k, lam, 0, y)
        else:
            b, val = cap_min_over_b(v, k, lam, y)
        if val < 0:
            return c, CabWitness(b=b, c_plus_1=y, value=val)
        c += 1
        assert c <= lam + 2, f"CAB search exceeded lambda+2 for {p}"


def random_triples(seed: int, count: int, v_max: int):
    """Seeded edge-regular triples: uniform ones, plus the disjoint-clique,
    complete-multipartite, T(n), L2(n) and conference families."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 6
        if kind == 0:
            v = rng.randint(2, v_max)
            k = rng.randint(1, v - 1)
            yield EdgeRegularParams(v, k, rng.randint(0, k - 1))
        elif kind == 1:      # m*K_c
            c = rng.randint(2, 60)
            yield EdgeRegularParams(c * rng.randint(1, v_max // c), c - 1, c - 2)
        elif kind == 2:      # K_{m x a}
            a, m = rng.randint(1, 40), rng.randint(2, 60)
            yield EdgeRegularParams(a * m, a * (m - 1), a * (m - 2))
        elif kind == 3:      # T(n)
            n = rng.randint(5, 120)
            yield EdgeRegularParams(n * (n - 1) // 2, 2 * (n - 2), n - 2)
        elif kind == 4:      # L2(n)
            n = rng.randint(3, 100)
            yield EdgeRegularParams(n * n, 2 * (n - 1), n - 2)
        else:                # conference parameters
            v = 4 * rng.randint(2, v_max // 4) + 1
            yield EdgeRegularParams(v, (v - 1) // 2, (v - 5) // 4)


def walks(v: int, k: int, lam: int) -> bool:
    """cab() reaches its step 3, the walk: C(1, lam+2) < 0 (step 1), and
    the triple is not K_{m x a} (step 2)."""
    return (cap_value(v, k, lam, 1, lam + 2) < 0
            and not (lam == 2 * k - v and v % (v - k) == 0))


def probe_misses(p: EdgeRegularParams) -> bool:
    """The walk's first level 3 has P(3) < 0, but no negative value, so
    cab() finds the bound at a later level of its negative runs."""
    v, k, lam = p.v, p.k, p.lam
    return (walks(v, k, lam) and 3 <= min(lam + 3, v - 1)
            and cab_module._cubic(cab_module._certificate_cubic(v, k, lam), 3) < 0
            and cap_min_over_b(v, k, lam, 3)[1] >= 0)


class TestCapPolynomial:
    def test_known_value(self):
        # C(1, 4) for (21, 8, 3): 2*17 - 2*4*5 + 12*1 = 6
        assert cap_value(21, 8, 3, 1, 4) == 6

    def test_zero_x_factorization(self):
        # C(0, y) = y(y-1)(lam - y + 2) for all y
        for v, k, lam in ((21, 8, 3), (17, 8, 3), (50, 7, 0)):
            for y in range(-3, 12):
                assert cap_value(v, k, lam, 0, y) == y * (y - 1) * (lam - y + 2)

    def test_generic_over_fractions(self):
        val = cap_value(
            Fraction(21), Fraction(8), Fraction(3), Fraction(1, 2), Fraction(3, 2)
        )
        assert isinstance(val, Fraction)
        # direct expansion at the same point
        x, y = Fraction(1, 2), Fraction(3, 2)
        assert val == x * (x + 1) * (21 - y) - 2 * x * y * (8 - y + 1) + y * (y - 1) * (
            3 - y + 2
        )


class TestCapMinOverB:
    def test_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(300):
            v = rng.randint(5, 80)
            k = rng.randint(1, v - 2)
            lam = rng.randint(0, k - 1) if k > 1 else 0
            y = rng.randint(1, v - 1)
            fast = cap_min_over_b(v, k, lam, y)
            # the polynomial is convex in b, so scanning a wide window around
            # the claimed minimizer would expose any non-global minimum
            slow = cap_min_over_b_bruteforce(v, k, lam, y, fast[0] - 2 * v, fast[0] + 2 * v)
            assert fast == slow

    def test_leading_coefficient_guard(self):
        with pytest.raises(ValueError):
            cap_min_over_b(10, 3, 0, 10)

    def test_tie_breaks_to_smaller_b(self):
        # symmetric quadratic: vertex exactly halfway between two integers
        # C(x, y) in x has vertex at (2y(k-y+1) - (v-y)) / (2(v-y))
        # pick v=9,k=4,lam=1,y=3: vertex = (2*3*2 - 6)/12 = 1/2 -> tie at b=0,1
        b, val = cap_min_over_b(9, 4, 1, 3)
        assert cap_value(9, 4, 1, 0, 3) == cap_value(9, 4, 1, 1, 3) or b in (0, 1)
        assert val == min(cap_value(9, 4, 1, t, 3) for t in range(-20, 20))


class TestCab:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((17, 8, 3), 3),
            ((21, 8, 3), 4),
            ((144, 39, 6), 4),
            ((378, 52, 1), 3),
            ((50, 7, 0), 2),
        ],
    )
    def test_examples(self, params, expected):
        c, wit = cab(EdgeRegularParams(*params))
        assert c == expected
        assert wit.value < 0
        assert wit.c_plus_1 == c + 1
        assert cap_value(*params, wit.b, wit.c_plus_1) == wit.value

    def test_witness_is_first_negative_level(self):
        p = EdgeRegularParams(21, 8, 3)
        c, _ = cab(p)
        for y in range(3, c + 1):  # levels c' < c, i.e. y = c'+1 <= c
            _, val = cap_min_over_b(p.v, p.k, p.lam, y)
            assert val >= 0

    def test_never_exceeds_trivial(self):
        rng = random.Random(3)
        for _ in range(100):
            v = rng.randint(5, 60)
            k = rng.randint(2, v - 2)
            lam = rng.randint(0, k - 1)
            p = EdgeRegularParams(v, k, lam)
            c, _ = cab(p)
            assert 2 <= c <= p.lam + 2


class TestCabOracle:
    """cab() skips levels; the plain walk must give the same (c, witness)."""

    def test_matches_linear_walk_on_catalogue(self):
        for p in enumerate_feasible(1300):
            assert cab(p.edge_regular) == cab_linear(p.edge_regular), p

    def test_matches_linear_walk_on_every_small_triple(self):
        n = 0
        for v in range(2, 61):
            for k in range(1, v):
                for lam in range(k):
                    p = EdgeRegularParams(v, k, lam)
                    assert cab(p) == cab_linear(p), p
                    n += 1
        assert n == 35990

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_linear_walk_on_random_triples(self, seed):
        for p in random_triples(seed, 1200, 3000):
            assert cab(p) == cab_linear(p), p

    def test_matches_linear_walk_after_a_probe_miss(self):
        catalogue = [p.edge_regular for p in enumerate_feasible(500)]
        hits = [p for p in catalogue if probe_misses(p)]
        assert len(hits) == 18
        randoms = [p for seed in (4, 5) for p in random_triples(seed, 1200, 3000)
                   if probe_misses(p)]
        assert len(randoms) == 116
        for p in hits + randoms:
            assert cab(p) == cab_linear(p), p

    @pytest.fixture
    def calls(self, monkeypatch):
        """The level y of each call of the module-level cap_min_over_b."""
        calls = []

        def counted(v, k, lam, y):
            calls.append(y)
            return cap_min_over_b(v, k, lam, y)

        monkeypatch.setattr(cab_module, "cap_min_over_b", counted)
        return calls

    def test_levels_visited(self, calls):
        # every visited level is one call of cap_min_over_b; the plain walk
        # visits 179,335 levels on the same tuples.  The tuples with
        # C(1, lam+2) >= 0 and lam+3 < v visit level lam+3 alone
        for p in enumerate_feasible(500):
            cab(p.edge_regular)
        assert len(calls) == 6778

    def test_scan_levels_visited(self, calls):
        # the v <= 500 scan's reports decide 948 rows at the Delsarte level,
        # in one level each (TestDelsarteLevelPath), and start every other
        # walk at the level their Delsarte bound and predicates predict
        scan_compare(ScanConfig(v_max=500))
        assert len(calls) == 1555

    def test_conference_tuple_visits_one_level(self, calls):
        c, wit = cab(EdgeRegularParams(100000000000037, 50000000000018, 25000000000008))
        assert (c, wit.b, wit.c_plus_1) == (9999999, 4999999, 10000000)
        assert calls == [10000000]

    def test_family_tuples_visit_one_level(self, monkeypatch):
        # m*K_c and K_{m x a}, built from m, c, a: cab() decides each at its
        # step 1 or 2, in one call of cap_min_over_b at the CAB level, with
        # the witness of the closed form the scan uses.  A second call fails
        # at once: a walk over K_{m x 2} at m = 10^12 would not finish
        calls = []

        def once(v, k, lam, y):
            calls.append(y)
            assert len(calls) == 1, f"a second level visited: {calls}"
            return cap_min_over_b(v, k, lam, y)

        monkeypatch.setattr(cab_module, "cap_min_over_b", once)
        fams = [*sorted(family_construction(3000)), SrgParams(4, 1, 0, 0), SrgParams(4, 2, 0, 2)]
        n = 10**12
        fams += [SrgParams(2 * n, n - 1, n - 2, 0), SrgParams(3 * n, 2 * n, n, 2 * n),
                 SrgParams(2 * n, 2 * n - 2, 2 * n - 4, 2 * n - 2)]
        cases = [(q, (rep.cab, rep.cab_witness)) for p in fams
                 for rep in (family_report(p),) for q in (p, p.edge_regular)]
        # K_v and (v, v-2, v-3) have lam+3 >= v: step 1 answers with b = 0
        # and calls cap_min_over_b on no level
        cases += [(EdgeRegularParams(n, n - 1, n - 2), (n, CabWitness(0, n + 1, -(n + 1) * n))),
                  (EdgeRegularParams(n, n - 2, n - 3), (n - 1, CabWitness(0, n, -n * (n - 1))))]
        for q, want in cases:
            calls.clear()
            start = time.perf_counter()
            got = cab(q)
            elapsed = time.perf_counter() - start
            y = want[1].c_plus_1
            assert calls == ([y] if y < q.v else []), q
            assert got == want, q
            assert elapsed < 0.05, (q, elapsed)

    @pytest.mark.parametrize("params,level", [((10, 4, 3), 6), ((6, 4, 2), 4), ((10, 6, 1), 3)],
                             ids=["disjoint-cliques", "multipartite", "generic"])
    def test_starting_one_level_too_high_fails(self, monkeypatch, params, level):
        # the level each step reads is the CAB level itself on these
        # tuples: lam+3 (step 1, m*K_c), m+1 (step 2, K_{m x a}) and 3 (step
        # 3, the walk's first level), so a walk that starts one level later
        # returns a different answer
        p = EdgeRegularParams(*params)
        assert cab(p) == cab_linear(p) == cab_linear(p, first=level)
        assert cab(p)[1].c_plus_1 == level
        assert cab_linear(p, first=level + 1) != cab(p)
        if params == (10, 6, 1):
            # the walk itself, started at level 4: c3 = 4 > 0, so it cuts
            # and bisects the range
            runs = cab_module._negative_runs
            monkeypatch.setattr(cab_module, "_negative_runs",
                                lambda cs, lo, hi: runs(cs, lo + 1, hi))
            assert cab(p) != cab_linear(p)
        else:
            refuse_walk(monkeypatch)
            assert cab(p) == cab_linear(p)


class TestOneRunLemma:
    """Where the walk has c3 < 0 and P(3) >= 0, the negative levels of P in
    [3, top] are one run that ends at top, and cab() finds it with one
    bisection, without _negative_runs."""

    def test_one_run_on_scan_and_random_triples(self, monkeypatch):
        def refused(cs, lo, hi):
            raise AssertionError("the one-run branch must not cut the range")

        scan = [p.edge_regular for p in enumerate_feasible(3000)]
        randoms = [p for seed in (6, 7) for p in random_triples(seed, 1200, 3000)]
        fired = {"scan": 0, "random": 0}
        for source, triples in (("scan", scan), ("random", randoms)):
            for p in triples:
                v, k, lam = p
                top = min(lam + 3, v - 1)
                cs = cab_module._certificate_cubic(v, k, lam)
                if not walks(v, k, lam) or cs[0] >= 0 or cab_module._cubic(cs, 3) < 0:
                    continue
                neg = [y for y in range(3, top + 1) if cab_module._cubic(cs, y) < 0]
                assert neg and neg == list(range(neg[0], top + 1)), p
                with monkeypatch.context() as m:
                    m.setattr(cab_module, "_negative_runs", refused)
                    got = cab(p)
                assert got == cab_linear(p), p
                fired[source] += 1
        # 9,980 of the 10,729 primitive scan tuples (0 < mu < k); the family
        # tuples never walk
        assert fired == {"scan": 9980, "random": 906}


class TestStartLevel:
    """cab(p, start=h) replaces the one-run bisection by a walk from h:
    down while P < 0, then up from h + 1, or a bisection of [h, top] when
    P(h) >= 0.  The answer and witness never depend on h."""

    def test_any_start_gives_the_same_answer(self):
        rng = random.Random(11)
        ways = Counter()
        for p in random_triples(11, 1200, 3000):
            v, k, lam = p
            want = cab(p)
            top = min(lam + 3, v - 1)
            mid = rng.randint(3, max(3, top))
            for h in (3, top, mid, top + 1, top + rng.randint(2, 10**6),
                      -rng.randint(0, 10), None):
                assert cab(p, start=h) == want, (p, h)
            cs = cab_module._certificate_cubic(v, k, lam)
            if walks(v, k, lam) and cs[0] < 0 and cab_module._cubic(cs, 3) >= 0 and top >= 3:
                ways["bisect" if cab_module._cubic(cs, mid) >= 0
                     else "down" if want[1].c_plus_1 <= mid else "up"] += 1
        # the middle start takes each of the three ways
        assert ways == {"bisect": 216, "down": 229, "up": 8}

    def test_reports_match_linear_walk_to_500(self):
        rows = list(_primitive_rows(500, FeasibilityLevel.COUNTING))
        assert len(rows) == 1524
        for row in rows:
            rep = cab_module._report(*row)
            assert (rep.cab, rep.cab_witness) == cab_linear(row[0].edge_regular), row[0]

    def test_reports_match_cab_without_start_to_3000(self):
        # the start Delsarte - [thm21 or thm22] + 1 is the answer level on
        # every row but those with gap >= 2, where it lies higher
        seen = Counter()
        for row in _primitive_rows(3000, FeasibilityLevel.COUNTING):
            rep = cab_module._report(*row)
            assert (rep.cab, rep.cab_witness) == cab(row[0]), row[0]
            seen.update(conference=row[3] is None, thm21=rep.thm21, thm22=rep.thm22,
                        above=rep.delsarte - (rep.thm21 or rep.thm22) > rep.cab)
            if row[0] == SrgParams(2185, 264, 23, 33):
                assert (rep.delsarte, rep.thm22, rep.cab) == (13, True, 11)
        assert seen == {"conference": 723, "thm21": 182, "thm22": 1691, "above": 124}


def delsarte_level_branch(p: SrgParams, r: int, a: int) -> str:
    """How cab._report decides the CAB of p, a tuple with integer
    eigenvalues r >= 1 and -a <= -2 and mu > 0, recomputed from the terms of
    the Delsarte-level lemma: "delsarte-level" at level q + 1 without cab(),
    else the first check that leaves it to cab()."""
    v, k, lam, mu = p
    q, m = divmod(k, a)
    if m > 0 and mu < (a - 1) * (a - m):
        return "thm22"
    if k >= a * (lam + 1):
        return "thm51"
    if q + 2 >= v:
        return "top"
    cs = cab_module._certificate_cubic(v, k, lam)
    if cs[0] >= 0:
        return "c3"
    if cab_module._cubic(cs, 3) < 0:
        return "p3"
    if q >= 3 and cab_module._cubic(cs, q) < 0:
        return "below"
    return "delsarte-level"


def generated_tuples(seed: int, count: int, top: int, v_max: int):
    """Seeded (p, r, a) with lam >= 0 and integral multiplicities, p built
    from 1 <= r <= top, 2 <= a <= top and a divisor mu of n = ra(r+1)(a-1)
    as the scan's generator builds it: k = mu + ra, lam = mu + r - a and
    v = k + 1 + (r+1)(a-1) + n/mu."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r, a = rng.randint(1, top), rng.randint(2, top)
        exps = Counter()
        for x in (r, r + 1, a, a - 1):
            exps.update(dict(factorize(x)))
        mu = 1
        for q, e in exps.items():
            mu *= q ** rng.randint(0, e)
        k = mu + r * a
        v = k + 1 + (r + 1) * (a - 1) + r * a * (r + 1) * (a - 1) // mu
        if mu + r >= a and v <= v_max and ((v - 1) * a - k) % (r + a) == 0:
            out.append((SrgParams(v, k, mu + r - a, mu), r, a))
    return out


class TestDelsarteLevelPath:
    """_report decides a row at its Delsarte level delta without cab() when
    thm22 and thm51 fail, c3 < 0, P(3) >= 0, P(delta-1) >= 0 and delta + 1 <
    v (identities._DELSARTE_LEVEL_CASES); the plain walk stays the oracle."""

    def test_matches_linear_walk_on_random_tuples(self):
        seen = Counter()
        for p, r, a in generated_tuples(5, 2000, 60, 5000):
            rep = full_report(p)
            assert (rep.cab, rep.cab_witness) == cab_linear(p.edge_regular), p
            seen[delsarte_level_branch(p, r, a)] += 1
        # every way _report can take, but the two no tuple here reaches
        assert seen == {"delsarte-level": 1309, "thm22": 234, "p3": 226, "below": 158,
                        "thm51": 73}

    def test_schlafli_complement_skips_cab(self, monkeypatch):
        # cab()'s steps 1 and 2 do not decide (27, 16, 10, 8); the report
        # does, at its Delsarte level 9, as the walk would
        p = SrgParams(27, 16, 10, 8)
        want = cab_linear(p.edge_regular)
        monkeypatch.setattr(cab_module, "cab", None)
        rep = full_report(p)
        assert (rep.cab, rep.cab_witness, rep.delsarte) == (*want, 9)
        assert want == (9, CabWitness(b=4, c_plus_1=10, value=-40))

    @pytest.mark.parametrize("v_max, rows, decided", [(500, 1231, 948), (3000, 10333, 7444)])
    def test_rows_left_to_cab_on_the_scan(self, monkeypatch, v_max, rows, decided):
        left = set()
        original = cab_module.cab

        def counted(p, **start):
            left.add(p)
            return original(p, **start)

        monkeypatch.setattr(cab_module, "cab", counted)
        reports, _ = scan_compare(ScanConfig(v_max=v_max))
        ways = Counter()
        for rep in reports:
            v, k, lam, mu = p = rep.params
            if 0 < mu < k and rep.type_tag is not SrgType.TYPE_I_ONLY:
                a = (mu - lam + isqrt((lam - mu) ** 2 + 4 * (k - mu))) // 2
                way = delsarte_level_branch(p, (k - mu) // a, a)
                assert (p in left) == (way != "delsarte-level"), (p, way)
                ways[way] += 1
        assert (sum(ways.values()), ways["delsarte-level"]) == (rows, decided)


class TestCertificate:
    X, Y, V, K, LAM = (MPoly.var(n) for n in ("b", "c", "v", "k", "lam"))

    def test_start_level_identities(self):
        # the sums of squares that start a walk at the CAB level of m*K_c
        # and of K_{m x a}; cab() reads the second in its step 2, and
        # decides m*K_c at its step 1 without the first
        x, y, v, k, lam = self.X, self.Y, self.V, self.K, self.LAM
        z = x - y
        # k = lam+1, c = k+1
        c = lam + 2
        assert (cap_value(v, lam + 1, lam, x, y)
                == (c - y) * z * (z + 1) + (v - c) * x * (x + 1))
        # lam = 2k-v, a = v-k, v = a*m (a and m in the variables t and w)
        a, m = MPoly.var("t"), MPoly.var("w")
        vv, kk = a * m, a * m - a
        assert (cap_value(vv, kk, 2 * kk - vv, x, y)
                == a * (m - y) * z * (z + 1) + (a - 1) * y * (z + 1) * (z + 2))

    def test_family_closed_forms(self):
        # the values catalog._family_reports reads at each family's CAB
        # level: the part size c (or a) in c, m in t
        c, m = self.Y, MPoly.var("t")
        # m*K_c = (mc, c-1, c-2, 0): C(0, c+1) = -(c+1)c
        assert cap_value(m * c, c - 1, c - 2, 0, c + 1) == -(c + 1) * c
        # K_{m x a} = (ma, (m-1)a, (m-2)a, (m-1)a), a in c: C(m-1, m+1) = -2a
        v = m * c
        assert cap_value(v, v - c, v - 2 * c, m - 1, m + 1) == -2 * c

    def test_cubic_form(self):
        x, y, v, k, lam = self.X, self.Y, self.V, self.K, self.LAM
        a2 = v - y
        a1 = a2 - 2 * y * (k - y + 1)
        a0 = y * (y - 1) * (lam - y + 2)
        assert a2 * x * x + a1 * x + a0 == cap_value(v, k, lam, x, y)
        c3, c2, c1, c0 = cab_module._certificate_cubic(v, k, lam)
        assert 4 * a2 * a0 - a1 * a1 == ((c3 * y + c2) * y + c1) * y + c0
        rng = random.Random(5)
        for _ in range(500):
            vi = rng.randint(2, 10**12)
            ki = rng.randint(1, vi - 1)
            li = rng.randint(0, ki - 1)
            yi = rng.randint(-10**6, vi - 1)
            cs = cab_module._certificate_cubic(vi, ki, li)
            b2, b0 = vi - yi, yi * (yi - 1) * (li - yi + 2)
            b1 = b2 - 2 * yi * (ki - yi + 1)
            assert cab_module._cubic(cs, yi) == 4 * b2 * b0 - b1 * b1

    def test_certified_levels_have_no_negative_value(self):
        rng = random.Random(11)
        for _ in range(2000):
            v = rng.randint(3, 400)
            k = rng.randint(1, v - 1)
            lam = rng.randint(0, k - 1)
            y = rng.randint(1, v - 1)
            if cab_module._cubic(cab_module._certificate_cubic(v, k, lam), y) >= 0:
                assert cap_min_over_b(v, k, lam, y)[1] >= 0

    def test_floor_root(self):
        getcontext().prec = 80
        rng = random.Random(13)
        for _ in range(3000):
            n = rng.randint(-10**9, 10**9)
            d = rng.choice([rng.randint(0, 10**12), rng.randint(0, 10**6) ** 2])
            q = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 6, rng.randint(1, 10**5)])
            sign = rng.choice([-1, 1])
            exact = (Decimal(n) + sign * Decimal(d).sqrt()) / Decimal(q)
            assert cab_module._floor_root(n, sign, d, q) == floor(exact), (n, sign, d, q)

    def test_negative_runs_match_pointwise_signs(self):
        rng = random.Random(17)
        for i in range(3000):
            # every degree from 0 to 3
            cs = [rng.randint(-40, 40) for _ in range(4)]
            for j in range(i % 4):
                cs[j] = 0
            cs = tuple(cs)
            lo = rng.randint(-40, 40)
            hi = lo + rng.randint(-2, 60)
            runs = list(cab_module._negative_runs(cs, lo, hi))
            got = [y for a, b in runs for y in range(a, b + 1)]
            want = [y for y in range(lo, hi + 1) if cab_module._cubic(cs, y) < 0]
            assert got == want, (cs, lo, hi, runs)
            assert all(a <= b for a, b in runs)

    def test_negative_runs_on_cubics_with_close_roots(self):
        # P = s (y - r1)(y - r2)(y - r3) * 6 with rational roots, including
        # double roots and two critical points inside one unit interval
        rng = random.Random(19)
        for _ in range(3000):
            roots = sorted(Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 6]))
                           for _ in range(3))
            sign = rng.choice([-1, 1])
            e1 = sum(roots)
            e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
            e3 = roots[0] * roots[1] * roots[2]
            scale = 6 ** 3 * sign
            cs = tuple(int(c * scale) for c in (1, -e1, e2, -e3))
            lo = rng.randint(-15, 5)
            hi = rng.randint(lo - 1, 15)
            runs = list(cab_module._negative_runs(cs, lo, hi))
            got = [y for a, b in runs for y in range(a, b + 1)]
            want = [y for y in range(lo, hi + 1) if cab_module._cubic(cs, y) < 0]
            assert got == want, (cs, lo, hi, runs)


class TestDelsarteHoffman:
    def test_paley17(self):
        assert delsarte_bound(SrgParams(17, 8, 3, 4)) == 4

    def test_gap2_example(self):
        assert delsarte_bound(SrgParams(378, 52, 1, 8)) == 5

    def test_disconnected_degenerate(self):
        # 2 disjoint K_5: (10, 4, 3, 0); true clique number is 5 = lam + 2
        assert delsarte_bound(SrgParams(10, 4, 3, 0)) == 5

    def test_prefloor_exact(self):
        pre = 1 - QuadExt.make(8) / spectrum(SrgParams(17, 8, 3, 4)).s
        # 1 + 16/(1 + sqrt17) = 1 + (sqrt17 - 1) = sqrt17
        assert pre == QuadExt.sqrt(17)

    def test_hoffman_fixture(self):
        s_bar = QuadExt.make(-1, -1, 8)
        assert hoffman_clique_bound(21, 12, s_bar) == 5

    def test_hoffman_positive_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            hoffman_clique_bound(21, 12, QuadExt.make(2))

    def test_delsarte_equals_hoffman_on_srgs(self):
        # the two pre-floor expressions agree exactly on SRGs
        from srgbounds.srg import spectrum
        from srgbounds.cab import hoffman_prefloor

        for tup in ((10, 3, 0, 1), (17, 8, 3, 4), (144, 39, 6, 12), (56, 10, 0, 2)):
            p = SrgParams(*tup)
            spec = spectrum(p)
            lhs = 1 - QuadExt.make(p.k) / spec.s
            rhs = hoffman_prefloor(p.v, p.v - p.k - 1, -spec.r - 1)
            assert lhs == rhs


class TestPredicates:
    def test_thm21_examples(self):
        assert thm21_applies(17) is True
        assert thm21_applies(13) is False
        assert thm21_applies(9) is False  # fails the threshold inequality
        assert thm21_applies(37) is True

    def test_thm21_domain(self):
        with pytest.raises(ValueError):
            thm21_applies(12)
        with pytest.raises(ValueError):
            thm21_applies(1)

    def test_thm22_examples(self):
        assert full_report(SrgParams(144, 39, 6, 12)).thm22 is True
        assert full_report(SrgParams(10, 3, 0, 1)).thm22 is False

    def test_thm22_false_on_conference(self):
        # irrational eigenvalues: thm21 decides, thm22 does not apply
        assert full_report(SrgParams(17, 8, 3, 4)).thm22 is False

    def test_improved_bound(self):
        # (17,8,3,4): floor(sqrt17 - 1) = 3 < delsarte 4
        assert full_report(SrgParams(17, 8, 3, 4)).improved == 3
        # (144,39,6,12): floor(39/9) = 4 < delsarte 5
        assert full_report(SrgParams(144, 39, 6, 12)).improved == 4
        assert full_report(SrgParams(10, 3, 0, 1)).improved is None

    def test_multiplicities_checked_before_coconnected(self):
        # (5,3,1,3) is not co-connected, but its multiplicities are checked
        # first and are non-integral, as are those of the co-connected
        # (5,2,1,0); K_{3x2} has a spectrum and is not co-connected
        for p in (SrgParams(5, 3, 1, 3), SrgParams(5, 2, 1, 0)):
            for check in (full_report, delsarte_bound):
                with pytest.raises(InfeasibleParamsError, match="multiplicities"):
                    check(p)
        rep = full_report(SrgParams(6, 4, 2, 4))
        assert rep.thm22 is False and rep.improved is None

    def test_improved_bound_matches_cab_on_table_rows(self):
        for tup in ((17, 8, 3, 4), (144, 39, 6, 12), (50, 7, 0, 1), (37, 18, 8, 9)):
            p = SrgParams(*tup)
            rep = full_report(p)
            assert rep.improved == rep.cab
            assert rep.delsarte == rep.cab + 1

    def test_thm51(self):
        # (378,52,1,8): s = -11, lam+1 = 2 <= 52/11 -> True, and cab = lam+2 = 3
        assert full_report(SrgParams(378, 52, 1, 8)).thm51 is True
        # (10,6,3,4): s = -2, -k/s = 3 < lam+1 = 4 -> False
        assert full_report(SrgParams(10, 6, 3, 4)).thm51 is False
        # complete multipartite K_{3x2}: (6,4,2,4) has s=-2, -k/s=2 < lam+1=3
        assert full_report(SrgParams(6, 4, 2, 4)).thm51 is False
        # (9,4,1,2): s=-2, -k/s=2 = lam+1 -> True, and cab = lam+2 = 3
        assert full_report(SrgParams(9, 4, 1, 2)).thm51 is True
        assert cab(EdgeRegularParams(9, 4, 1))[0] == 3
        # disconnected: always true
        assert full_report(SrgParams(10, 4, 3, 0)).thm51 is True

    @pytest.mark.parametrize("check", [delsarte_bound])
    @pytest.mark.parametrize("tup", [(10, 4, 3, 0), (17, 8, 3, 4), (144, 39, 6, 12)],
                             ids=["mu0", "conference", "type-II"])
    def test_validates_once(self, monkeypatch, check, tup):
        calls = []
        validate = SrgParams.validate

        def counted(p):
            calls.append(p)
            validate(p)

        monkeypatch.setattr(SrgParams, "validate", counted)
        check(SrgParams(*tup))
        assert len(calls) == 1


class TestFullReport:
    def test_gap2_report(self):
        rep = full_report(SrgParams(378, 52, 1, 8))
        assert rep.cab == 3
        assert rep.delsarte == 5
        assert rep.trivial == 3
        assert rep.type_tag is SrgType.TYPE_II_ONLY

    def test_hoffman_agrees_with_delsarte(self):
        rep = full_report(SrgParams(144, 39, 6, 12))
        assert rep.hoffman_complement == rep.delsarte

    def test_matches_single_bound_api(self):
        # full_report and the single-bound functions decide in integers; the
        # QuadExt derivation is the oracle for both
        for p in enumerate_feasible(500):
            rep = full_report(p)
            dels, thm51, thm22, improved = quadext_bounds(p)
            assert rep.trivial == p.lam + 2, p
            assert rep.delsarte_degenerate == (p.mu == 0), p
            assert rep.delsarte == delsarte_bound(p) == dels, p
            assert rep.thm51 == thm51, p
            assert rep.improved == improved, p
            assert rep.thm22 == thm22, p
            if rep.type_tag is SrgType.TYPE_I_ONLY:
                assert rep.thm21 == thm21_applies(p.v), p
            else:
                assert rep.thm21 is False, p
            if p.is_connected() and p.is_coconnected():
                r = spectrum(p).r
                assert rep.hoffman_complement == hoffman_clique_bound(
                    p.v, p.v - p.k - 1, -r - 1), p
            else:
                assert rep.hoffman_complement is None, p


def family_d(t: int) -> SrgParams:
    """Family D, (r, a, mu) = (t^2+t-1, t+1, 1) in the generator's terms
    (k = mu + ra, lam = mu + r - a): thm51 tuples whose CAB level
    lam + 3 = t^2 + 2 grows with t, so a walk over the levels grows too."""
    r, a, mu = t * t + t - 1, t + 1, 1
    k = mu + r * a
    return SrgParams(k + 1 + k * (r + 1) * (a - 1) // mu, k, mu + r - a, mu)


def refuse_walk(monkeypatch):
    """Make cab()'s walk raise: every walk builds the certificate cubic."""
    def refused(v, k, lam):
        raise AssertionError(f"this triple must not walk: {(v, k, lam)}")

    monkeypatch.setattr(cab_module, "_certificate_cubic", refused)


class TestThm51Shortcut:
    """cab() decides a thm51 tuple at level lam+3 without the walk, with
    the proof in its docstring; the plain walk stays the oracle."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        refuse_walk(monkeypatch)

    def test_thm51_rows_match_linear_walk(self, no_walk):
        rows = [row for row in _primitive_rows(3000, FeasibilityLevel.COUNTING)
                if cab_module._thm51(row[0], row[3])]
        assert len(rows) == 386
        for row in rows:
            rep = cab_module._report(*row)
            assert (rep.cab, rep.cab_witness) == cab_linear(row[0].edge_regular), row[0]

    def test_scan_row_validated_once(self, monkeypatch):
        # the scan's rows are validated in _report alone, with or without thm51
        calls = []
        validate = SrgParams.validate
        monkeypatch.setattr(SrgParams, "validate", lambda p: calls.append(p) or validate(p))
        rows = _primitive_rows(60, FeasibilityLevel.COUNTING)
        assert {cab_module._report(*row).thm51 for row in rows} == {False, True}
        assert calls == [row[0] for row in rows]

    def test_family_d_matches_linear_walk(self, no_walk):
        for t in range(2, 41):
            p = family_d(t)
            rep = full_report(p)
            assert rep.thm51 and rep.cab == p.lam + 2, p
            assert (rep.cab, rep.cab_witness) == cab_linear(p.edge_regular), p

    def test_family_d_at_t_10000_within_budget(self, no_walk):
        # the walk did not finish here; the answer is checked in integers
        p = family_d(10**4)
        v, k, lam, _ = p
        start = time.perf_counter()
        rep = full_report(p)
        elapsed = time.perf_counter() - start
        b, y, value = rep.cab_witness
        assert (rep.cab, y) == (lam + 2, lam + 3) == (10**8 + 1, 10**8 + 2)
        assert value == cap_value(v, k, lam, b, y) < 0
        assert cap_min_over_b(v, k, lam, lam + 2)[1] >= 0
        assert elapsed < 0.05, f"full_report took {elapsed * 1e3:.1f} ms"

    def test_proof_identities(self):
        # the factorizations the cab docstring reads off, with
        # r + s = lam - mu and rs = mu - k
        r, s, mu, b, v = (MPoly.var(n) for n in ("r", "s", "mu", "b", "v"))
        k, lam = mu - r * s, mu + r + s
        assert k + s * (lam + 1) == (s + 1) * (s + mu)
        assert k - lam - 1 == -(r + 1) * (s + 1)
        assert k - mu * (lam + 1) == -(r + mu) * (s + mu)
        assert (k * (k - (mu + 1) * (lam + 1)) + mu * (lam + 1) ** 2
                == (k - lam - 1) * (k - mu * (lam + 1)))
        assert (cap_value(v, k, lam, b, lam + 2)
                == b * ((v - lam - 2) * (b + 1) - 2 * (lam + 2) * (k - lam - 1)))


class TestLevelOneShortcut:
    """Where C(1, lam+2) >= 0, cab() answers lam+2 without the walk, for
    every v, by the proof in its docstring; the plain walk stays the
    oracle."""

    def test_matches_linear_walk_on_random_triples(self, monkeypatch):
        hits = 0
        for p in random_triples(7, 3000, 400):
            v, k, lam = p
            if cap_value(v, k, lam, 1, lam + 2) >= 0:
                with monkeypatch.context() as m:
                    refuse_walk(m)
                    got = cab(p)
                hits += 1
            else:
                got = cab(p)
            assert got == cab_linear(p), p
        assert hits >= 1000

    @pytest.mark.parametrize("triple", [
        (1000300020001000200000001, 1000200000000, 99999999),
        (10**30, 4 * 10**13, 2 * 10**13),
        (10**40, 2 * (10**20 - 1), 10**20 - 2)], ids=["family-d", "large-lambda", "L2(10^20)"])
    def test_large_triples_within_budget(self, monkeypatch, triple):
        # a walk over these levels did not finish; the answer is checked in
        # integers
        v, k, lam = triple
        refuse_walk(monkeypatch)
        start = time.perf_counter()
        c, (b, y, value) = cab(EdgeRegularParams(v, k, lam))
        elapsed = time.perf_counter() - start
        assert (c, y) == (lam + 2, lam + 3)
        assert value == cap_value(v, k, lam, b, y) < 0
        assert cap_min_over_b(v, k, lam, lam + 2)[1] >= 0
        assert elapsed < 0.05, f"cab took {elapsed * 1e3:.1f} ms"


@pytest.fixture(scope="module")
def reports_3000():
    return [full_report(p) for p in enumerate_feasible(3000)]


class TestPredicatesExact:
    """On the catalogue the predicates decide the improvement exactly: the
    CAB sits below Delsarte when, and only when, one of them holds.  The
    reports' own cab and delsarte are the oracle, so no float is involved."""

    # type-I v <= 3000 with 16v + 20 = (8m + 2)^2, m = floor(sqrt(v)/2): the
    # paper's strict inequality fails by equality.  An 80-digit Decimal
    # evaluation of it calls 5, 41, 701 and 1805 true.
    EQUALITY_V = (5, 41, 109, 505, 701, 929, 1189, 1481, 1805, 2161, 2549, 2969)

    def test_improved_exactly_when_cab_beats_delsarte(self, reports_3000):
        assert len(reports_3000) == 47721
        wrong = [r.params for r in reports_3000
                 if (r.improved is not None) != (r.cab < r.delsarte)]
        assert wrong == []

    def test_thm21_exactly_when_cab_beats_delsarte(self, reports_3000):
        type1 = [r for r in reports_3000 if r.type_tag is SrgType.TYPE_I_ONLY]
        assert len(type1) == 396
        assert [r.params for r in type1 if r.thm21 != (r.cab < r.delsarte)] == []

    def test_equality_cases(self, reports_3000):
        type1 = {r.params.v: r for r in reports_3000
                 if r.type_tag is SrgType.TYPE_I_ONLY}
        assert tuple(v for v in sorted(type1)
                     if 16 * v + 20 == (8 * (isqrt(v) // 2) + 2) ** 2) == self.EQUALITY_V
        for v in self.EQUALITY_V:
            rep = type1[v]
            assert rep.params == SrgParams(v, (v - 1) // 2, (v - 5) // 4, (v - 1) // 4)
            assert rep.thm21 is False and rep.cab == rep.delsarte, rep

    def test_exact_on_random_tuples(self):
        # seeded tuples mostly outside the catalogue, v up to about 1.4*10^9:
        # type II from the generator's parameterization r >= 1, a >= 2, mu |
        # n = ra(r+1)(a-1), and conference tuples on sums of two squares
        rng = random.Random(7)
        type2 = []
        while len(type2) < 400:
            r, a = rng.randint(1, 300), rng.randint(2, 300)
            exps = Counter()
            for x in (r, r + 1, a, a - 1):
                exps.update(dict(factorize(x)))
            mu = 1
            for q, e in exps.items():
                mu *= q ** rng.randint(0, e)
            k = mu + r * a
            v = k + 1 + (r + 1) * (a - 1) + r * a * (r + 1) * (a - 1) // mu
            f, rem = divmod((v - 1) * a - k, r + a)
            p = SrgParams(v, k, mu + r - a, mu)
            # lam_bar >= 0 is checked here, as is_feasible does not ask it
            if (mu + r >= a and not rem and v - 2 * k + mu - 2 >= 0
                    and is_feasible(p, FeasibilityLevel.ABSOLUTE_BOUND)[0]):
                assert spectrum(p).f == f, p
                type2.append(p)
        conference = []
        while len(conference) < 200:
            v = (2 * rng.randrange(15811) + 1) ** 2 + (2 * rng.randrange(1, 15811)) ** 2
            if v <= 10**9 and isqrt(v) ** 2 != v:
                p = SrgParams(v, (v - 1) // 2, (v - 5) // 4, (v - 1) // 4)
                assert is_feasible(p, FeasibilityLevel.ABSOLUTE_BOUND) == (True, None), p
                conference.append(p)
        for tuples in (type2, conference):
            reports = [full_report(p) for p in tuples]
            assert [r.params for r in reports
                    if (r.improved is not None) != (r.cab < r.delsarte)] == []
            assert {r.cab < r.delsarte for r in reports} == {False, True}


def quadext_bounds(p):
    """Delsarte, thm51, thm22 and the improved bound of a feasible tuple,
    derived in QuadExt arithmetic from the exact spectrum:
    1 + floor(-k/s), -k/s >= lam+1, 0 < frc(-k/s) < 1 - (r^2+r)/(v-2k+lam)
    and floor(-k/s) when thm21 or thm22 holds."""
    spec = spectrum(p)
    ratio = -(QuadExt.make(p.k) / spec.s)
    irrational = spec.type_tag is SrgType.TYPE_I_ONLY
    thm22 = False
    if not irrational and p.is_coconnected():
        r = spec.r
        threshold = 1 - (r * r + r) / QuadExt.make(p.v - 2 * p.k + p.lam)
        thm22 = 0 < ratio.frac() < threshold
    thm21 = irrational and thm21_applies(p.v)
    improved = ratio.floor() if thm21 or thm22 else None
    return 1 + ratio.floor(), ratio >= p.lam + 1, thm22, improved


def test_level_monotonicity_randomized():
    # For 2 <= c <= lam+2 and 0 <= b <= c, lowering the level cannot make the
    # polynomial more negative than the lam+2 level by the factored identity
    # C(b,c) - C(b,lam+2) = (lam+2-c)((b-c)(b-c+1) + 2b(k-lam-1)) >= 0.
    rng = random.Random(19)
    for _ in range(500):
        v = rng.randint(6, 120)
        k = rng.randint(2, v - 2)
        lam = rng.randint(0, k - 1)
        c = rng.randint(2, lam + 2)
        b = rng.randint(0, c)
        diff = cap_value(v, k, lam, b, c) - cap_value(v, k, lam, b, lam + 2)
        assert diff >= 0
