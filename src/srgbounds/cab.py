"""Clique adjacency bound, Delsarte bound, Hoffman bound, and the predicates
guaranteeing that the clique adjacency bound beats the Delsarte bound.
full_report decides all of them from one integer spectrum: its body,
_report, reads Delsarte and the predicates off the tuple's integers and
carries their derivations, and _delsarte is the one home of Delsarte, which
delsarte_bound shares."""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .srg import (
    EdgeRegularParams,
    SrgParams,
    SrgType,
    _int_spectrum,
)

if TYPE_CHECKING:
    from .quadext import QuadExt


def cap_value(v, k, lam, x, y):
    """The clique adjacency polynomial, generic over any commutative ring:

        C(x, y) = x(x+1)(v-y) - 2xy(k-y+1) + y(y-1)(lam-y+2)
    """
    return x * (x + 1) * (v - y) - 2 * x * y * (k - y + 1) + y * (y - 1) * (lam - y + 2)


def cap_min_over_b(v: int, k: int, lam: int, y: int) -> tuple[int, int]:
    """Minimize C(b, y) over all integers b.

    C(x, y) is quadratic in x with positive leading coefficient v - y, so the
    integer minimum is attained at one of the two integers flanking the real
    vertex.  Ties break toward the smaller b.  Returns (b*, min value).
    """
    if y >= v:
        raise ValueError(f"y={y} >= v={v}: leading coefficient nonpositive")
    # C(x, y) = a2 x^2 + a1 x + a0, evaluated by Horner's rule
    a2 = v - y
    a1 = a2 - 2 * y * (k - y + 1)
    a0 = y * (y - 1) * (lam - y + 2)
    # real vertex at -a1 / (2*a2); flanking integers by floor division
    b_lo = -a1 // (2 * a2)
    b_hi = b_lo + 1
    v_lo = (a2 * b_lo + a1) * b_lo + a0
    v_hi = (a2 * b_hi + a1) * b_hi + a0
    if v_hi < v_lo:
        return b_hi, v_hi
    return b_lo, v_lo


class CabWitness(NamedTuple):
    """Point certifying the clique adjacency bound: C(b, c_plus_1) = value < 0."""

    b: int
    c_plus_1: int
    value: int


def _certificate_cubic(v: int, k: int, lam: int) -> tuple[int, int, int, int]:
    """Coefficients (c3, c2, c1, c0) of P(y) = 4 a2 a0 - a1^2, where
    C(x, y) = a2 x^2 + a1 x + a0.  The y^4 terms cancel, so P is a cubic."""
    return (
        4 * (2 * k - lam - v),
        4 * lam * (v + 1) + 8 * v - 4 * k * k - 12 * k - 1,
        2 * v * (2 * k - 2 * lam - 1),
        -v * v,
    )


def _cubic(cs: tuple[int, int, int, int], y: int) -> int:
    c3, c2, c1, c0 = cs
    return ((c3 * y + c2) * y + c1) * y + c0


def _floor_root(n: int, sign: int, d: int, q: int) -> int:
    """floor((n + sign*sqrt(d)) / q) exactly, for d >= 0 and q != 0."""
    if q < 0:
        n, sign, q = -n, -sign, -q
    t = isqrt(d)
    if sign > 0:
        return (n + t) // q
    # floor(n - sqrt(d)) = n - ceil(sqrt(d)), and for q > 0
    # floor(floor(u)/q) = floor(u/q)
    return (n - t - (t * t != d)) // q


def _sign_change(cs: tuple[int, int, int, int], neg: int, pos: int) -> int:
    """Bisect between neg, where the cubic cs is negative, and pos, where it
    is not, for a cubic that changes sign once between them; return the
    negative level next to the change."""
    while abs(pos - neg) > 1:
        mid = (neg + pos) // 2
        if _cubic(cs, mid) < 0:
            neg = mid
        else:
            pos = mid
    return neg


def _negative_runs(cs: tuple[int, int, int, int], lo: int,
                   hi: int) -> Iterator[tuple[int, int]]:
    """Yield, in increasing order, integer runs [a, b] covering exactly the
    integers of [lo, hi] where the cubic cs is negative.

    The range is cut after floor(r) for each real root r of P', so that P is
    monotone on every piece, and each piece's negative run is found by
    bisection.  Everything is decided in integers.  cab() takes this path
    only when the one-run lemma in its docstring does not apply: when P(3)
    is negative, or when the y^3 coefficient c3 is not negative.
    """
    c3, c2, c1, _ = cs
    cuts = []
    if c3:
        # P'(y) = 3c3 y^2 + 2c2 y + c1, roots (-c2 +- sqrt(c2^2 - 3c3c1)) / (3c3)
        d = c2 * c2 - 3 * c3 * c1
        if d >= 0:
            cuts = [_floor_root(-c2, -1, d, 3 * c3), _floor_root(-c2, 1, d, 3 * c3)]
    elif c2:
        cuts = [-c1 // (2 * c2)]
    first = lo
    for last in sorted(cuts) + [hi]:
        last = min(last, hi)
        if last < first:
            continue
        neg_first, neg_last = _cubic(cs, first) < 0, _cubic(cs, last) < 0
        if neg_first and neg_last:
            yield first, last
        elif neg_first:
            yield first, _sign_change(cs, first, last)
        elif neg_last:
            yield _sign_change(cs, last, first), last
        first = last + 1


def cab(p: EdgeRegularParams | SrgParams) -> tuple[int, CabWitness]:
    """Clique adjacency bound: least c >= 2 with C(b, c+1) < 0 for some b.

    It reads only v, k, lam and validate() of p, so a SrgParams is bounded
    as its edge-regular triple, after its own (stricter) validation.
    _report calls cab() only on the rows its Delsarte-level path, which
    rests on the one-run lemma of step 3, leaves undecided.

    It is at most lam+2, since C(0, lam+3) = -(lam+3)(lam+2) < 0.  Three
    steps decide it, each with the first negative level y = c+1 and the
    witness cap_min_over_b gives there, as the plain walk y = 3, 4, ...
    would; at a level y >= v, where the quadratic in b has leading
    coefficient v - y <= 0, the walk's witness is b = 0.

    1. The trivial level.  When C(1, lam+2) = 2((v-lam-2) -
       (lam+2)(k-lam-1)) >= 0, the CAB is lam+2.  Proof that no level
       3 <= y <= lam+2 is negative, for every integer b (lam+2 <= k+1 <= v):
       * b <= 0: each term of C(b, y) = b(b+1)(v-y) - 2by(k-y+1) +
         y(y-1)(lam-y+2) is >= 0;
       * b >= 0: C(b, y) >= C(b, lam+2) by level-monotonicity, and
         C(b, lam+2) = b((v-lam-2)(b+1) - 2(lam+2)(k-lam-1)), whose
         second factor grows with b, so C(b, lam+2) >= 0 as C(1, lam+2) >= 0.
       Disjoint cliques (k = lam+1) take this step, as C(1, lam+2) =
       2(v-lam-2) >= 0, and so do K_v and (v, v-2, v-3), which have lam+3
       >= v.  So does every thm51 tuple (lam + 1 <= -k/s).  With r + s =
       lam - mu and rs = mu - k, k + s(lam+1) = (s+1)(s+mu), k - lam - 1 =
       -(r+1)(s+1) and k - mu(lam+1) = -(r+mu)(s+mu), so thm51 means s = -1
       or mu <= -s.  At s = -1, k = lam + 1; mu = 0 forces this case.
       Otherwise mu > 0, and by trivial-level-at-one mu C(1, lam+2) / 2 =
       (k-lam-1)(k - mu(lam+1)), a product of two factors >= 0, as r >= 0.
       level-monotonicity and trivial-level-at-one are in identities.CASES.

    2. Complete multipartite.  When lam = 2k-v and a = v-k divides v, the
       parameters are those of K_{m x a}, m = v/a, and with z = x - y

           C(x, y) = a(m-y) z(z+1) + (a-1) y (z+1)(z+2).

       n(n+1) >= 0 for every integer n, so at integer x the sum is >= 0
       for every 0 <= y <= m, and level m+1 is negative, as C(m-1, m+1) =
       -2a: the CAB is m, the clique size of K_{m x a}, which the CAB
       bounds from above (Soicher, J. Algebra 421, 2015).  Step 1 took
       a = 1 (K_v), and k >= 1 gives m >= 2, so m+1 < 2m <= v.

    3. The walk.  Otherwise the levels y = 3, ..., top = min(lam+3, v-1)
       are walked in increasing order, skipping every level where the
       quadratic in x, C = a2 x^2 + a1 x + a0 with a2 = v - y > 0, has
       P(y) = 4 a2 a0 - a1^2 >= 0: then C >= 0 at every real x.  P is a
       cubic in y, and its negative levels in [3, top] are found exactly
       in integers, in one of two ways.  When P(3) >= 0 and c3 =
       4(2k - lam - v) < 0, they are one run [first, top], or none, and
       one bisection on [3, top] finds first.  Proof: P(0) = -v^2 < 0 and
       P(y) -> +oo as y -> -oo, so P has a root r0 < 0 and P(y) =
       (y - r0) Q(y), with Q a quadratic of leading coefficient c3 < 0.
       For y > r0, P(y) and Q(y) have the same sign.  Q opens downward, so
       Q >= 0 exactly on an interval [q1, q2], and 3 lies in it, as
       3 > r0 and P(3) >= 0.  So for y >= 3, P(y) < 0 exactly when
       y > q2.  Most primitive tuples (0 < mu < k) take this path.
       Otherwise, when P(3) < 0 or c3 >= 0, _negative_runs cuts the range
       at the critical points of P and bisects each piece.  Every level of
       those runs is still minimized over b by cap_min_over_b, so the
       first negative level and its witness are those of the plain walk.
    """
    p.validate()
    v, k, lam = p.v, p.k, p.lam
    if v - lam - 2 < (lam + 2) * (k - lam - 1):
        # C(1, lam+2) < 0, so step 1 does not apply
        a = v - k
        if lam == 2 * k - v and v % a == 0:
            # step 2, K_{m x a}: the CAB is m
            m = v // a
            b, val = cap_min_over_b(v, k, lam, m + 1)
            return m, CabWitness(b, m + 1, val)
        # step 3, the walk
        top = min(lam + 3, v - 1)
        cs = _certificate_cubic(v, k, lam)
        if cs[0] < 0 and _cubic(cs, 3) >= 0:
            # the one-run lemma: [first, top], or nothing
            runs = ((_sign_change(cs, top, 3), top),) if _cubic(cs, top) < 0 else ()
        else:
            runs = _negative_runs(cs, 3, top)
        for lo, hi in runs:
            for y in range(lo, hi + 1):
                b, val = cap_min_over_b(v, k, lam, y)
                if val < 0:
                    return y - 1, CabWitness(b, y, val)
        # Only (3, 2, 0) falls through: its range [3, 2] is empty.  Step 1
        # leaves lam+3 >= v only to (v, v-1, v-3), whose level v-1 = top is
        # negative at b = 1, as C(1, v-1) = 4 - 2v; every other walking
        # triple has level lam+3 = top negative at b = 0.
    # step 1, C(1, lam+2) >= 0, and (3, 2, 0): the CAB is lam+2
    y = lam + 3
    b, val = cap_min_over_b(v, k, lam, y) if y < v else (0, cap_value(v, k, lam, 0, y))
    return lam + 2, CabWitness(b, y, val)


def _delsarte(v: int, k: int, s: Optional[int]) -> int:
    """1 + floor(-k/s) for the integer least eigenvalue s < 0; s is None for
    conference tuples, where -k/s = sqrt(v) - 1 with v not a square."""
    return isqrt(v) if s is None else 1 + k // -s


def delsarte_bound(p: SrgParams) -> int:
    """floor(1 - k/s) for least eigenvalue s < 0.

    Disconnected parameters (mu = 0) have s = -1 and k = lam + 1, so the
    bound is lam + 2, the clique size of the disjoint union of cliques.
    """
    return _delsarte(p.v, p.k, _int_spectrum(p)[2])


def hoffman_clique_bound(v: int, k_bar: int, s_bar: QuadExt) -> int:
    """floor(v / (1 - k_bar/s_bar)): ratio bound for independent sets in the
    complement, read as a clique bound for the original graph."""
    if s_bar.sign() >= 0:
        raise ValueError(f"least eigenvalue must be negative, got {s_bar}")
    return hoffman_prefloor(v, k_bar, s_bar).floor()


def hoffman_prefloor(v: int, k_bar: int, s_bar: QuadExt) -> QuadExt:
    from .quadext import QuadExt

    return QuadExt.make(v) / (1 - QuadExt.make(k_bar) / s_bar)


def thm21_applies(v: int) -> bool:
    """Conference-graph improvement predicate on v vertices:

        0 < frc(sqrt(v)/2) < 1/4 + (sqrt(v) - sqrt(v+5/4))/2

    Both strict inequalities are decided exactly.  With m = floor(sqrt(v)/2)
    the left inequality is v != (2m)^2 and, after clearing denominators so
    only the integer radicand 16v+20 remains, the right inequality is
    16v + 20 < (8m + 2)^2.
    """
    if v < 5 or v % 4 != 1:
        raise ValueError(f"v={v} must be >= 5 and congruent to 1 mod 4")
    m = isqrt(v) // 2  # floor(sqrt(v)/2) = floor(isqrt(v)/2)
    return v != (2 * m) ** 2 and 16 * v + 20 < (8 * m + 2) ** 2


class BoundsReport(NamedTuple):
    """Every bound for one parameter tuple, plus the predicate outcomes.

    The fields are the independent results; trivial, delsarte_degenerate,
    hoffman_complement, improved and gap are read off them."""

    params: SrgParams
    type_tag: SrgType
    cab: int
    cab_witness: Optional[CabWitness]  # None only on the scan's family rows
    delsarte: int
    thm21: bool
    thm22: bool
    thm51: bool

    @property
    def trivial(self) -> int:
        return self.params.lam + 2

    @property
    def delsarte_degenerate(self) -> bool:
        """Disconnected (mu = 0): Delsarte is lam + 2, the clique size."""
        return self.params.mu == 0

    @property
    def hoffman_complement(self) -> Optional[int]:
        """The Hoffman bound of the complement, which equals Delsarte by
        (1 - k/s)(1 - k_bar/s_bar) = v; None unless connected and
        co-connected."""
        p = self.params
        return self.delsarte if p.mu > 0 and p.is_coconnected() else None

    @property
    def improved(self) -> Optional[int]:
        """Delsarte - 1 when either improvement predicate holds."""
        return self.delsarte - 1 if self.thm21 or self.thm22 else None

    @property
    def gap(self) -> int:
        """How far the clique adjacency bound sits below Delsarte."""
        return self.delsarte - self.cab


def full_report(p: SrgParams) -> BoundsReport:
    """Compute every bound and predicate for one tuple from a single integer
    spectrum, with consistency assertions (cab <= trivial and cab <= delsarte)
    checked before returning.

    Delsarte is 1 + floor(-k/s), and for mu = 0 (s = -1) that is lam + 2.
    Either improvement predicate lowers it by one.
    """
    tag, r, s, _, _ = _int_spectrum(p)
    return _report(p, tag, r, s)


def _report(p: SrgParams, tag: SrgType, r: Optional[int], s: Optional[int]) -> BoundsReport:
    """full_report's body, for a tuple p passing INTEGRALITY with type tag
    and restricted eigenvalues r, s as _int_spectrum gives them (None, None
    for a conference tuple with irrational eigenvalues).  p is validated
    already: full_report does it in _int_spectrum, and the scan's rows pass
    COUNTING by _primitive_rows' proof.  So only cab() validates it again.
    p is unpacked once, and every bound and predicate but the CAB is read
    off its integers here; _delsarte, which delsarte_bound shares, gives
    Delsarte = delta = 1 + floor(-k/s), or isqrt(v) when s is None.

    The predicates, exactly, with a = -s:
    - thm21, the conference predicate, only when s is None: thm21_applies.
    - thm22, for integer eigenvalues r > s: 0 < frc(-k/s) < 1 - (r^2 +
      r)/D with D = v - 2k + lam.  frc(-k/s) is m/a for k = qa + m, so
      clearing a and D gives 0 < m and m*D < a*(D - r^2 - r).  It is False
      when D = 0, which holds only for K_{m x a}: there r = 0, and m*0 <
      a*(-r^2 - r) fails.  It is False when s is None.
    - thm51: lam + 1 <= -k/s, that is k >= a(lam + 1); when s is None,
      -k/s = sqrt(v) - 1, so it is sqrt(v) >= lam + 2, that is v >= (lam +
      2)^2.  When it holds the CAB is the trivial lam + 2 (cab()'s step 1).
      Disconnected parameters (s = -1, k = lam + 1) always pass.

    The CAB is at most delta.  For integer r >= 1 and mu > 0 the
    Delsarte-level lemma (identities._DELSARTE_LEVEL_CASES) proves that
    level delta is negative if and only if thm22 holds.  Where cab()'s
    one-run lemma (c3 < 0 and P(3) >= 0) holds with P(delta-1) >= 0, no
    level in [3, delta-1] is negative, so the answer level is delta + 1 -
    [thm22]: the CAB is delta - [thm22], with the witness cab() gives at
    that level.  Every other row, and every thm51 row, calls cab()."""
    v, k, lam, _ = p
    dels = _delsarte(v, k, s)
    proved = t21 = t22 = False
    if s is None:
        # 4 lam = v - 5 >= 0 on a conference tuple, so thm21_applies cannot
        # raise; it is called by its module-level name
        t21 = thm21_applies(v)
        t51 = v >= (lam + 2) ** 2
    else:
        a, dd = -s, v - 2 * k + lam
        m = k % a
        t22 = 0 < m and m * dd < a * (dd - r * r - r)
        t51 = k >= a * (lam + 1)
        # cab() decides a thm51 row at its step 1, in one level and without
        # the cubic.  Nothing else needs a check, as the guard implies it:
        # - co-connected: D = 0 only for K_{m x a}, where r = 0 and t22 fails;
        # - 0 < mu < k: mu = 0 gives s = -1, where thm51 holds; k - mu = -rs;
        # - level < v: thm51 fails, so s <= -2 and level <= k//2 + 2 < k + 2 <= v.
        if not t51 and r > 0:
            c3, c2, c1, c0 = _certificate_cubic(v, k, lam)
            # P(delta-1) on a thm22 row too: the lemma says nothing of level
            # delta-1, which is negative where the gap is 2
            y = dels - 1
            proved = (c3 < 0 and ((3 * c3 + c2) * 3 + c1) * 3 + c0 >= 0
                      and (y < 3 or ((c3 * y + c2) * y + c1) * y + c0 >= 0))
    if proved:
        level = dels + 1 - t22
        # called by its module-level name, as cab() calls it
        b, val = cap_min_over_b(v, k, lam, level)
        if val >= 0:
            raise AssertionError(f"level {level} is not negative for {p}")
        # the records of the scan's rows are built with tuple.__new__: the
        # __new__ that NamedTuple generates is a Python-level wrapper that
        # costs about three times as much per record
        cab_val, witness = level - 1, tuple.__new__(CabWitness, (b, level, val))
    else:
        # cab is called by its module-level name so that perfbench can time
        # the CAB bound on its own
        cab_val, witness = cab(p)
    if cab_val > lam + 2:
        raise AssertionError(f"cab {cab_val} exceeds trivial bound for {p}")
    if cab_val > dels:
        raise AssertionError(f"cab {cab_val} exceeds Delsarte bound for {p}")
    return tuple.__new__(BoundsReport, (p, tag, cab_val, witness, dels, t21, t22, t51))
