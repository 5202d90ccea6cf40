import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgbounds.quadext import IncompatibleRadicandsError, QuadExt, factorize, squarefree_split

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 21, 23, 29]


def frac(n, d=1):
    return Fraction(n, d)


class TestNormalize:
    def test_perfect_square_radicand_collapses(self):
        x = QuadExt.make(frac(1, 2), frac(1, 2), 9)
        assert x == QuadExt.make(2)
        assert x.is_rational

    def test_square_factor_extracted(self):
        x = QuadExt.make(0, 1, 8)
        assert (x.a, x.b, x.d) == (0, 2, 2)

    def test_squarefree_radicand_unchanged(self):
        x = QuadExt.make(frac(-1, 2), frac(-1, 2), 17)
        assert (x.a, x.b, x.d) == (frac(-1, 2), frac(-1, 2), 17)

    def test_zero_coefficient_folds(self):
        assert QuadExt.make(3, 0, 17).d == 0

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(200):
            x = QuadExt.make(
                frac(rng.randint(-9, 9), rng.randint(1, 9)),
                frac(rng.randint(-9, 9), rng.randint(1, 9)),
                rng.randint(0, 200),
            )
            again = QuadExt.make(x.a, x.b, x.d)
            assert again == x

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExt.make(1, 1, -3)


def test_squarefree_split():
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(9) == (3, 1)
    assert squarefree_split(17) == (1, 17)
    assert squarefree_split(0) == (1, 0)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(360) == (6, 10)
    # brute force: root is the largest r with r^2 | n
    for n in range(1, 5000):
        root = max(r for r in range(1, math.isqrt(n) + 1) if n % (r * r) == 0)
        assert squarefree_split(n) == (root, n // (root * root)), n


def test_factorize():
    assert list(factorize(360)) == [(2, 3), (3, 2), (5, 1)]
    assert list(factorize(4099)) == [(4099, 1)]
    for n in (-7, 0, 1):
        assert list(factorize(n)) == []
    for n in range(2, 5000):
        factors = list(factorize(n))
        primes = [p for p, _ in factors]
        assert math.prod(p**e for p, e in factors) == n, n
        assert primes == sorted(set(primes)), n
        assert all(e >= 1 and all(p % d for d in range(2, p)) for p, e in factors), n


class TestArith:
    def test_conjugate_product(self):
        assert QuadExt.make(1, 1, 17) * QuadExt.make(1, -1, 17) == -16

    def test_conference_eigenvalue_sum(self):
        # r + s = lambda - mu = -1 for the 17-vertex conference parameters
        r = QuadExt.make(frac(-1, 2), frac(1, 2), 17)
        s = QuadExt.make(frac(-1, 2), frac(-1, 2), 17)
        assert r + s == -1

    def test_division_by_conjugate(self):
        q = 16 / QuadExt.make(1, 1, 17)
        assert q == QuadExt.make(-1, 1, 17)
        assert q * q == QuadExt.make(18, -2, 17)  # (sqrt17 - 1)^2 = 18 - 2 sqrt17

    def test_mixed_radicands_rejected(self):
        with pytest.raises(IncompatibleRadicandsError):
            QuadExt.sqrt(2) + QuadExt.sqrt(3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt.sqrt(2) / QuadExt.make(0)

    def test_rational_mixes_with_any_radicand(self):
        assert QuadExt.make(2) * QuadExt.sqrt(3) == QuadExt.make(0, 2, 3)

    def test_results_are_normalized(self):
        rng = random.Random(5)

        def operand(d):
            if rng.random() < 0.25:
                return rng.randint(-5, 5)
            b = 0 if rng.random() < 0.25 else frac(rng.randint(-9, 9), rng.randint(1, 6))
            return QuadExt.make(frac(rng.randint(-9, 9), rng.randint(1, 6)), b, d)

        checked = 0
        for _ in range(2000):
            d = rng.choice(SQUAREFREE)
            x, y = operand(d), operand(d)
            if not isinstance(x, QuadExt) and not isinstance(y, QuadExt):
                continue
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                if op is operator.truediv and y == 0:
                    continue
                r = op(x, y)
                assert r == QuadExt.make(r.a, r.b, r.d), (x, op, y)
                checked += 1
        assert checked > 6000

    def test_arithmetic_does_not_refactor_radicand(self, monkeypatch):
        # a 15-digit prime radicand: factoring it again after every operation
        # costs about 0.1 s each
        big = 100000000000037
        x, y = QuadExt.sqrt(big), QuadExt.make(3, -2, big)
        norm = 9 - 4 * big
        expected = {
            "sum": QuadExt.make(3, -1, big),
            "product": QuadExt.make(-9 - 3 * big, 12, big),
            "quotient": QuadExt.make(frac(2 * big, norm), frac(3, norm), big),
        }

        def refuse(n):
            raise AssertionError(f"squarefree_split({n}) called on an arithmetic result")

        monkeypatch.setattr("srgbounds.quadext.squarefree_split", refuse)
        assert x + y == expected["sum"]
        assert (x + y) * (x - y) == expected["product"]
        assert x / y == expected["quotient"]
        assert x * x == big and (x * x).is_rational
        assert y - y == 0 and (y - y).d == 0

    @given(
        a=st.fractions(max_denominator=20),
        b=st.fractions(max_denominator=20),
        d=st.sampled_from(SQUAREFREE),
    )
    def test_norm_identity(self, a, b, d):
        x = QuadExt.make(a, b, d)
        conj = QuadExt.make(a, -b, d)
        assert x * conj == a * a - b * b * d

    @given(q=st.one_of(st.integers(), st.fractions()),
           other=st.one_of(st.integers(), st.fractions()))
    def test_equal_values_hash_alike(self, q, other):
        # x == y implies hash(x) == hash(y), also against ints and Fractions
        x = QuadExt.make(q)
        for y in (q, Fraction(q), other, QuadExt.make(other), QuadExt.make(q, 1, 2)):
            if x == y:
                assert hash(x) == hash(y), (x, y)
        assert q in {x} and x in {q}


class TestSign:
    def test_sqrt17_minus_4_positive(self):
        assert QuadExt.make(-4, 1, 17).sign() == 1

    def test_zero(self):
        assert QuadExt.make(0).sign() == 0

    def test_three_minus_sqrt8_positive(self):
        assert QuadExt.make(3, -1, 8).sign() == 1

    def test_opposite_orders(self):
        assert QuadExt.make(-5, 1, 17).sign() == -1
        assert QuadExt.make(5, -2, 8).sign() == -1

    def test_transitive_total_order(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.choice(SQUAREFREE)
            xs = [
                QuadExt.make(
                    frac(rng.randint(-12, 12), rng.randint(1, 6)),
                    frac(rng.randint(-12, 12), rng.randint(1, 6)),
                    d,
                )
                for _ in range(3)
            ]
            xs.sort()
            assert xs[0] <= xs[1] <= xs[2]
            assert not xs[2] < xs[0]


class TestFloorFrac:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (QuadExt.sqrt(17), 4),
            (QuadExt.make(frac(-1, 2), frac(1, 2), 17), 1),
            (QuadExt.make(frac(-1, 2), frac(-1, 2), 17), -3),
            (QuadExt.make(frac(7, 3)), 2),
            (QuadExt.make(-3), -3),
        ],
    )
    def test_floor_examples(self, x, expected):
        assert x.floor() == expected

    def test_frac_examples(self):
        assert QuadExt.make(frac(7, 3)).frac() == QuadExt.make(frac(1, 3))
        half_sqrt17 = QuadExt.make(0, frac(1, 2), 17)
        assert half_sqrt17.frac() == half_sqrt17 - 2
        assert QuadExt.make(4).frac() == QuadExt.make(0)

    @settings(max_examples=300)
    @given(
        a=st.fractions(max_denominator=30),
        b=st.fractions(max_denominator=30),
        d=st.sampled_from(SQUAREFREE),
    )
    def test_floor_sandwich(self, a, b, d):
        x = QuadExt.make(a, b, d)
        n = x.floor()
        assert (x - n).sign() >= 0
        assert (x - (n + 1)).sign() < 0
        fr = x.frac()
        assert fr.sign() >= 0 and (fr - 1).sign() < 0
        assert n + fr == x
