import random
from fractions import Fraction

import pytest

from srgbounds.mpoly import VARS, ArityMismatchError, MPoly


def V(name):
    return MPoly.var(name)


class TestMPolyBasics:
    def test_zero_coefficients_dropped(self):
        p = V("v") - V("v")
        assert p.is_zero()
        assert p.terms == {}

    def test_arity_enforced(self):
        with pytest.raises(ArityMismatchError):
            MPoly({(1, 2): Fraction(1)})

    def test_constant_and_monomial(self):
        assert MPoly.const(0).is_zero()
        m = MPoly.monomial(Fraction(3, 2), {"s": 3, "mu": 1})
        assert m.total_degree() == 4
        assert m.evaluate({"s": 2, "mu": 5}) == Fraction(3, 2) * 8 * 5

    def test_hand_expansion(self):
        # (t + s)(2t^2 + (4s - 1)t - 3s - 1)
        t, s = V("t"), V("s")
        product = (t + s) * (2 * t**2 + (4 * s - 1) * t - 3 * s - 1)
        expected = (
            2 * t**3
            + 4 * s * t**2
            - t**2
            - 3 * s * t
            - t
            + 2 * s * t**2
            + 4 * s**2 * t
            - s * t
            - 3 * s**2
            - s
        )
        assert product == expected
        assert product.total_degree() == 3

    def test_pow(self):
        t = V("t")
        assert (t + 1) ** 3 == t**3 + 3 * t**2 + 3 * t + 1
        assert (t + 1) ** 0 == 1

    def test_evaluate_matches_direct(self):
        rng = random.Random(2)
        t, s, mu = V("t"), V("s"), V("mu")
        p = 3 * t**2 * s - mu * t + 7 * s**3 - Fraction(1, 2)
        for _ in range(50):
            pt = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for name in VARS}
            direct = (
                3 * pt["t"] ** 2 * pt["s"]
                - pt["mu"] * pt["t"]
                + 7 * pt["s"] ** 3
                - Fraction(1, 2)
            )
            assert p.evaluate(pt) == direct

    def test_str_deterministic(self):
        p = V("t") + V("s") * 2
        assert str(p) == str(V("s") * 2 + V("t"))

    def test_homomorphism_property(self):
        # evaluation is a ring homomorphism: random pairs, random points
        rng = random.Random(13)
        for _ in range(30):
            def rand_poly():
                p = MPoly.zero()
                for _ in range(rng.randint(1, 4)):
                    exps = {rng.choice(VARS): rng.randint(0, 3)}
                    p = p + MPoly.monomial(rng.randint(-5, 5), exps)
                return p

            a, b = rand_poly(), rand_poly()
            pt = {name: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for name in VARS}
            assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)

    def test_ring_results_are_clean(self):
        # the ring operations skip the public constructor's checks, so their
        # results must already hold what it would enforce
        rng = random.Random(29)
        s, t = V("s"), V("t")
        assert ((s + t) * (s - t)).terms.keys() == (s * s - t * t).terms.keys()
        assert ((t + 1) * (t - 1) - t**2 + 1).terms == {}
        for _ in range(40):
            a, b = (sum((MPoly.monomial(rng.randint(-3, 3), {rng.choice(VARS): rng.randint(0, 2)})
                         for _ in range(rng.randint(1, 5))), MPoly.zero())
                    for _ in range(2))
            for p in (a + b, a - b, a * b, -a, a**2, 3 - a, Fraction(1, 2) * b):
                assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
                assert all(len(exp) == len(VARS) for exp in p.terms)
                assert MPoly(p.terms).terms == p.terms


def rand_poly(rng, max_exp=3):
    p = MPoly.zero()
    for _ in range(rng.randint(1, 4)):
        exps = {rng.choice(VARS): rng.randint(-max_exp, max_exp)}
        p = p + MPoly.monomial(rng.randint(-5, 5), exps)
    return p


def rand_monomial(rng):
    coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
    names = rng.sample(VARS, rng.randint(0, 3))
    return MPoly.monomial(coeff, {name: rng.randint(-3, 3) for name in names})


def rand_point(rng):
    return {name: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
            for name in VARS}


class TestLaurent:
    """Quotients by monomials are Laurent polynomials: negative exponents."""

    def test_monomial_division_reduces(self):
        s = V("s")
        x = (s**3 + s**2) / s
        assert x == s**2 + s
        assert all(e >= 0 for exp in x.terms for e in exp)

    def test_residual_denominator_detected(self):
        s = V("s")
        x = (s + 1) / s
        assert x == 1 + MPoly.monomial(1, {"s": -1})
        assert any(e < 0 for exp in x.terms for e in exp)

    def test_field_identities(self):
        s, mu = V("s"), V("mu")
        x = (mu + 1) / s
        assert x * s == mu + 1
        assert x - x == MPoly.zero()
        assert (x + x) == 2 * x

    def test_nonmonomial_divisor_rejected(self):
        s = V("s")
        with pytest.raises(ValueError):
            s / (s + 1)
        with pytest.raises(ValueError):
            1 / (s + 1)

    def test_division_by_zero(self):
        s = V("s")
        with pytest.raises(ZeroDivisionError):
            s / MPoly.zero()
        with pytest.raises(ZeroDivisionError):
            s / 0

    def test_pow(self):
        s = V("s")
        x = 1 / s
        assert (x**2) * s**2 == 1
        with pytest.raises(ValueError):
            s ** -1

    def test_cross_denominator_addition(self):
        s, mu = V("s"), V("mu")
        x = 1 / s + 1 / mu  # = (s + mu) / (s mu)
        assert x * (s * mu) == s + mu

    def test_scalar_division(self):
        t = V("t")
        assert (2 * t + 1) / 2 == t + Fraction(1, 2)
        assert t / Fraction(2, 3) == Fraction(3, 2) * t

    def test_divide_then_multiply_is_identity(self):
        rng = random.Random(41)
        for _ in range(300):
            a, m = rand_poly(rng), rand_monomial(rng)
            assert (a / m) * m == a

    def test_division_commutes_with_evaluation(self):
        rng = random.Random(43)
        for _ in range(300):
            a, m = rand_poly(rng), rand_monomial(rng)
            pt = rand_point(rng)
            assert (a / m).evaluate(pt) == a.evaluate(pt) / m.evaluate(pt)

    def test_str_shows_negative_exponents(self):
        s, mu = V("s"), V("mu")
        assert str(1 / s) == "1*s^-1"
        assert str(mu / s**2) == "1*mu*s^-2"
        assert str(s / s**2) != str(MPoly.const(1))
