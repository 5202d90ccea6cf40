"""An independent oracle for the scan's tuple list.

textbook_levels builds the feasible parameter tuples from the statement of
feasibility in Brouwer and Van Maldeghem, *Strongly Regular Graphs*,
chapters 1 and 2, and imports nothing from srgbounds.  A tuple
(v, k, lambda, mu) with 0 < k < v - 1 passes, level by level:

1. COUNTING: k(k - lambda - 1) = (v - k - 1)mu, with 0 <= lambda < k and
   0 <= mu <= k, and the same for the complement (v, v - k - 1,
   v - 2k + mu - 2, v - 2k + lambda); the eigenvalues r > s, the roots of
   x^2 - (lambda - mu)x - (k - mu), have positive integer multiplicities
   f, g = ((v - 1) -/+ (2k + (v - 1)(lambda - mu))/(r - s))/2.
2. INTEGRALITY: a conference tuple (4mu + 1, 2mu, mu - 1, mu) has v a sum
   of two squares.
3. KREIN: a primitive tuple (mu > 0 and v - 2k + lambda > 0) meets
   (r + 1)(k + r + 2rs) <= (k + r)(s + 1)^2 and
   (s + 1)(k + s + 2rs) <= (k + s)(r + 1)^2.
4. ABSOLUTE_BOUND: a primitive tuple meets v <= f(f + 3)/2 and
   v <= g(g + 3)/2.

The eigenvalues are exact: r and s lie in Z[sqrt(D)]/2, D the discriminant,
whether or not D is a square.
"""

import time
from math import gcd, isqrt

from srgbounds.catalog import enumerate_feasible
from srgbounds.srg import FeasibilityLevel

V_MAX = 1300


def _mul(x, y, D):
    """(a + b sqrt(D))(c + d sqrt(D)) as a pair."""
    return x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _at_most(x, y, D):
    """a + b sqrt(D) <= c + d sqrt(D), exactly."""
    a, b = y[0] - x[0], y[1] - x[1]
    if (a >= 0) == (b >= 0):
        return a >= 0
    return a * a >= b * b * D if a >= 0 else b * b * D >= a * a


def _krein(k, R, S, D):
    """(r + 1)(k + r + 2rs) <= (k + r)(s + 1)^2 times 8, in R = 2r and S = 2s:
    2(R + 2)(2k + R + RS) <= (2k + R)(S + 2)^2."""
    R2, S2, kR = (R[0] + 2, R[1]), (S[0] + 2, S[1]), (2 * k + R[0], R[1])
    RS = _mul(R, S, D)
    lhs = _mul((2 * R2[0], 2 * R2[1]), (kR[0] + RS[0], kR[1] + RS[1]), D)
    return _at_most(lhs, _mul(kR, _mul(S2, S2, D), D), D)


def _sum_of_two_squares(n):
    return any(isqrt(n - a * a) ** 2 == n - a * a for a in range(isqrt(n) + 1))


def _level(v, k, lam, mu):
    """The highest level (1-4) the tuple passes, or 0.  The multiplicities
    come first: they fail on most of textbook_levels' candidates."""
    if not 0 <= mu <= k:
        return 0  # and D >= 0 below
    d = lam - mu
    D = d * d + 4 * (k - mu)
    n = 2 * k + (v - 1) * d  # (f - g)(r - s) = -n, with r - s = sqrt(D)
    t = isqrt(D)
    if t * t == D:
        q, rem = divmod(n, t)
        if rem:
            return 0
        two_r, two_s = (d + t, 0), (d - t, 0)
    elif n:
        return 0
    else:
        q, two_r, two_s = 0, (d, 1), (d, -1)
    f, g = (v - 1 - q) // 2, (v - 1 + q) // 2
    kb, lb, mb = v - k - 1, v - 2 * k + mu - 2, v - 2 * k + lam
    if (v - 1 - q) % 2 or f <= 0 or g <= 0 or kb * mu != k * (k - lam - 1) or not (
            0 < k < v - 1 and 0 <= lam < k and 0 <= lb < kb and 0 <= mb <= kb):
        return 0
    if v == 4 * mu + 1 and k == 2 * mu and lam == mu - 1 and not _sum_of_two_squares(v):
        return 1
    if mu == 0 or mb == 0:
        return 4
    if not (_krein(k, two_r, two_s, D) and _krein(k, two_s, two_r, D)):
        return 2
    if 2 * v > f * (f + 3) or 2 * v > g * (g + 3):
        return 3
    return 4


def textbook_levels(v_max):
    """{(v, k, lam, mu): highest level passed} over 5 <= v <= v_max, for every
    tuple that passes COUNTING.  A tuple and its complement pass the same
    levels, so the loop runs over k <= (v - 1)/2 and checks the complement
    of each tuple that passes: k | (v - k - 1)mu makes mu a multiple of
    k/gcd(k, v - k - 1), and lambda follows from the counting identity."""
    levels = {}
    for v in range(5, v_max + 1):
        for k in range(1, (v - 1) // 2 + 1):
            kb = v - k - 1
            for mu in range(0, k + 1, k // gcd(k, kb)):
                lam = k - 1 - kb * mu // k
                if lam < 0:
                    break
                top = _level(v, k, lam, mu)
                if top:
                    comp = v, kb, v - 2 * k + mu - 2, v - 2 * k + lam
                    assert _level(*comp) == top, comp
                    levels[v, k, lam, mu] = levels[comp] = top
    return levels


def test_oracle_lists_the_scan_tuples_but_the_lambda_bar_rows():
    start = time.perf_counter()
    levels = textbook_levels(V_MAX)
    # enumerate_feasible checks no complement, so it keeps the tuples whose
    # complement has lambda_bar = v - 2k + mu - 2 < 0; ROADMAP item 1a
    # removes them, and then the two lists are equal and these counts are 0
    wrong = {FeasibilityLevel.COUNTING: 231, FeasibilityLevel.INTEGRALITY: 231,
             FeasibilityLevel.KREIN: 19, FeasibilityLevel.ABSOLUTE_BOUND: 19}
    for level in FeasibilityLevel:
        program = set(enumerate_feasible(V_MAX, level))
        oracle = {p for p, top in levels.items() if top >= level}
        assert not oracle - program, (level, sorted(oracle - program)[:5])
        extra = program - oracle
        assert extra == {p for p in program if p.v - 2 * p.k + p.mu - 2 < 0}, level
        assert len(extra) == wrong[level], level
    elapsed = time.perf_counter() - start
    assert elapsed < 2, f"the oracle and the four scans took {elapsed:.2f} s"
