import random
from fractions import Fraction

import pytest

from srgbounds.cab import (
    cab,
    cap_min_over_b,
    cap_min_over_b_bruteforce,
    cap_value,
    delsarte_bound,
    delsarte_prefloor,
    full_report,
    hoffman_clique_bound,
    improved_bound,
    thm21_applies,
    thm22_applies,
    thm51_predicate,
    trivial_bound,
)
from srgbounds.catalog import enumerate_feasible
from srgbounds.quadext import QuadExt
from srgbounds.srg import EdgeRegularParams, SrgParams, SrgType, spectrum


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
            assert 2 <= c <= trivial_bound(p)


class TestDelsarteHoffman:
    def test_paley17(self):
        assert delsarte_bound(SrgParams(17, 8, 3, 4)) == 4

    def test_gap2_example(self):
        assert delsarte_bound(SrgParams(378, 52, 1, 8)) == 5

    def test_disconnected_degenerate(self):
        # 2 disjoint K_5: (10, 4, 3, 0); true clique number is 5 = lam + 2
        assert delsarte_bound(SrgParams(10, 4, 3, 0)) == 5

    def test_prefloor_exact(self):
        pre = delsarte_prefloor(SrgParams(17, 8, 3, 4))
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
            lhs = delsarte_prefloor(p)
            rhs = hoffman_prefloor(p.v, p.v - p.k - 1, -spec.r - 1)
            assert lhs == rhs


class TestPredicates:
    def test_thm21_examples(self):
        assert thm21_applies(17)[0] is True
        assert thm21_applies(13)[0] is False
        assert thm21_applies(9)[0] is False  # fails the threshold inequality
        assert thm21_applies(37)[0] is True

    def test_thm21_domain(self):
        with pytest.raises(ValueError):
            thm21_applies(12)
        with pytest.raises(ValueError):
            thm21_applies(1)

    def test_thm22_examples(self):
        ok, threshold = thm22_applies(SrgParams(144, 39, 6, 12))
        assert ok is True
        assert threshold.sign() > 0
        ok, _ = thm22_applies(SrgParams(10, 3, 0, 1))
        assert ok is False

    def test_thm22_rejects_irrational(self):
        with pytest.raises(ValueError):
            thm22_applies(SrgParams(17, 8, 3, 4))

    def test_improved_bound(self):
        # (17,8,3,4): floor(sqrt17 - 1) = 3 < delsarte 4
        assert improved_bound(SrgParams(17, 8, 3, 4)) == 3
        # (144,39,6,12): floor(39/9) = 4 < delsarte 5
        assert improved_bound(SrgParams(144, 39, 6, 12)) == 4
        assert improved_bound(SrgParams(10, 3, 0, 1)) is None

    def test_improved_bound_matches_cab_on_table_rows(self):
        for tup in ((17, 8, 3, 4), (144, 39, 6, 12), (50, 7, 0, 1), (37, 18, 8, 9)):
            p = SrgParams(*tup)
            rep = full_report(p)
            assert rep.improved == rep.cab
            assert rep.delsarte == rep.cab + 1

    def test_thm51(self):
        # (378,52,1,8): s = -11, lam+1 = 2 <= 52/11 -> True, and cab = lam+2 = 3
        assert thm51_predicate(SrgParams(378, 52, 1, 8)) is True
        # (10,6,3,4): s = -2, -k/s = 3 < lam+1 = 4 -> False
        assert thm51_predicate(SrgParams(10, 6, 3, 4)) is False
        # complete multipartite K_{3x2}: (6,4,2,4) has s=-2, -k/s=2 < lam+1=3
        assert thm51_predicate(SrgParams(6, 4, 2, 4)) is False
        # (9,4,1,2): s=-2, -k/s=2 = lam+1 -> True, and cab = lam+2 = 3
        assert thm51_predicate(SrgParams(9, 4, 1, 2)) is True
        assert cab(EdgeRegularParams(9, 4, 1))[0] == 3
        # disconnected: always true
        assert thm51_predicate(SrgParams(10, 4, 3, 0)) is True


class TestFullReport:
    def test_gap2_report(self):
        rep = full_report(SrgParams(378, 52, 1, 8))
        assert rep.cab == 3
        assert rep.delsarte == 5
        assert rep.trivial == 3
        assert rep.type_tag is SrgType.TYPE_II_ONLY

    def test_json_fields(self):
        d = full_report(SrgParams(17, 8, 3, 4)).to_json_dict()
        assert d == {
            "v": 17,
            "k": 8,
            "lambda": 3,
            "mu": 4,
            "cab": 3,
            "cab_witness_b": d["cab_witness_b"],
            "cab_witness_y": 4,
            "delsarte": 4,
            "trivial": 5,
            "thm21": True,
            "thm22": False,
            "improved": 3,
        }

    def test_hoffman_agrees_with_delsarte(self):
        rep = full_report(SrgParams(144, 39, 6, 12))
        assert rep.hoffman_complement == rep.delsarte

    def test_matches_single_bound_api(self):
        # full_report and the single-bound functions decide in integers; the
        # QuadExt derivation is the oracle for both
        for p in enumerate_feasible(500):
            rep = full_report(p)
            dels, thm51, thm22, improved = quadext_bounds(p)
            assert rep.delsarte == delsarte_bound(p) == dels, p
            assert rep.thm51 == thm51, p
            assert thm51_predicate(p) == (True if p.mu == 0 else thm51), p
            assert rep.improved == improved_bound(p) == improved, p
            assert rep.thm22 == thm22, p
            if rep.type_tag is SrgType.TYPE_I_ONLY:
                assert rep.thm21 == thm21_applies(p.v)[0], p
            else:
                assert rep.thm21 is False, p
            if rep.type_tag is not SrgType.TYPE_I_ONLY and p.is_coconnected():
                assert thm22_applies(p)[0] == thm22, p
            if p.is_connected() and p.is_coconnected():
                r = spectrum(p).r
                assert rep.hoffman_complement == hoffman_clique_bound(
                    p.v, p.v - p.k - 1, -r - 1), p
            else:
                assert rep.hoffman_complement is None, p


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
    thm21 = irrational and thm21_applies(p.v)[0]
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
