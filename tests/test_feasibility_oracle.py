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
whether or not D is a square.  From them, with fractions.Fraction, the
oracle also recomputes the Delsarte bound and the predicates thm22 and
thm51 of every scan row.

check_tuple_lists is shared by the tier-1 test, at v <= 1300, and by CI,
which runs it at v <= 3000:

    PYTHONPATH=src:tests python -c \
        'from test_feasibility_oracle import check_tuple_lists; check_tuple_lists(3000)'
"""

import time
from fractions import Fraction
from math import floor, gcd, isqrt

from srgbounds.catalog import ScanConfig, enumerate_feasible, scan_compare
from srgbounds.srg import FeasibilityLevel

V_MAX = 1300

# enumerate_feasible checks no complement, so it keeps the tuples whose
# complement has lambda_bar = v - 2k + mu - 2 < 0; ROADMAP item 1a removes
# them, and then the two lists are equal and these counts are 0.  The
# counts per level, COUNTING to ABSOLUTE_BOUND, at each v_max it runs at:
LAMBDA_BAR_ROWS = {1300: (231, 231, 19, 19), 3000: (495, 495, 59, 59)}

# The four enumerate_feasible calls at V_MAX take about 0.12 s alone and
# 0.24 s inside the tier-1 suite under python -X dev, on a 2-core machine
# with Python 3.11; the oracle and the comparisons are not timed.  The
# budget leaves a slower runner four times that and still fails a scan gone
# quadratic.
SCANS_BUDGET_S = 1.0


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


def _eigenvalues(v, k, lam, mu):
    """(2r, 2s, D, g - f) with 2r and 2s as pairs in Z[sqrt(D)], or None
    when the difference of the multiplicities is not an integer.  Needs
    0 <= mu <= k, so that D >= 0."""
    d = lam - mu
    D = d * d + 4 * (k - mu)
    n = 2 * k + (v - 1) * d  # (f - g)(r - s) = -n, with r - s = sqrt(D)
    t = isqrt(D)
    if t * t == D:
        q, rem = divmod(n, t)
        return None if rem else ((d + t, 0), (d - t, 0), D, q)
    return None if n else ((d, 1), (d, -1), D, 0)


def _level(v, k, lam, mu):
    """The highest level (1-4) the tuple passes, or 0.  The multiplicities
    come first: they fail on most of textbook_levels' candidates."""
    if not 0 <= mu <= k:
        return 0
    spec = _eigenvalues(v, k, lam, mu)
    if spec is None:
        return 0
    two_r, two_s, D, q = spec
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


def check_tuple_lists(v_max):
    """enumerate_feasible(v_max, level) lists the oracle's tuples at every
    level, plus exactly its lambda_bar < 0 rows, LAMBDA_BAR_ROWS[v_max] of
    them.  Returns the seconds the four enumerate_feasible calls took: the
    oracle and the comparisons are not timed."""
    levels = textbook_levels(v_max)
    elapsed = 0.0
    for level, wrong in zip(FeasibilityLevel, LAMBDA_BAR_ROWS[v_max]):
        start = time.perf_counter()
        listed = list(enumerate_feasible(v_max, level))
        elapsed += time.perf_counter() - start
        program = set(listed)
        oracle = {p for p, top in levels.items() if top >= level}
        assert not oracle - program, (level, sorted(oracle - program)[:5])
        extra = program - oracle
        assert extra == {p for p in program if p.v - 2 * p.k + p.mu - 2 < 0}, level
        assert len(extra) == wrong, (level, len(extra))
    return elapsed


def test_oracle_lists_the_scan_tuples_but_the_lambda_bar_rows():
    elapsed = check_tuple_lists(V_MAX)
    assert elapsed < SCANS_BUDGET_S, f"the four scans took {elapsed:.2f} s"


def _floor(x, D):
    """floor(a + b sqrt(D)) for x = (a, b), exactly: a float guess, then
    corrected by _at_most."""
    n = floor(x[0] + x[1] * D ** 0.5)
    while not _at_most((n, 0), x, D):
        n -= 1
    while _at_most((n + 1, 0), x, D):
        n += 1
    return n


def bounds(v, k, lam, mu):
    """(Delsarte, thm22, thm51) from the tuple's own eigenvalues, with
    -k/s = -2k/(2s) as a pair of Fractions in Q(sqrt(D)):
    Delsarte = 1 + floor(-k/s), thm51 is lam + 1 <= -k/s, and thm22, for
    integer eigenvalues and mu_bar = v - 2k + lam > 0, is
    0 < frc(-k/s) < 1 - (r^2 + r)/mu_bar."""
    two_r, (s0, s1), D, _ = _eigenvalues(v, k, lam, mu)
    norm = s0 * s0 - s1 * s1 * D
    ratio = Fraction(-2 * k * s0, norm), Fraction(2 * k * s1, norm)
    delsarte = 1 + _floor(ratio, D)
    thm51 = _at_most((lam + 1, 0), ratio, D)
    mu_bar = v - 2 * k + lam
    thm22 = False
    if s1 == 0 and mu_bar > 0:
        r, frc = Fraction(two_r[0], 2), ratio[0] - floor(ratio[0])
        thm22 = 0 < frc < 1 - (r * r + r) / mu_bar
    return delsarte, thm22, thm51


def test_scan_bounds_from_the_oracle_eigenvalues():
    reports, _ = scan_compare(ScanConfig(v_max=V_MAX))
    assert len(reports) == 18011
    assert {(rep.thm22, rep.thm51) for rep in reports} >= {(True, False), (False, True)}
    wrong = [rep.params for rep in reports
             if bounds(*rep.params) != (rep.delsarte, rep.thm22, rep.thm51)]
    assert wrong == []
