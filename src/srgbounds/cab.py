"""Clique adjacency bound, Delsarte bound, Hoffman bound, and the predicates
guaranteeing that the clique adjacency bound beats the Delsarte bound."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional

from .quadext import QuadExt
from .srg import (
    DegenerateParamsError,
    EdgeRegularParams,
    SrgParams,
    SrgType,
    _int_spectrum,
    spectrum,
)


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


@dataclass(frozen=True, slots=True)
class CabWitness:
    """Point certifying the clique adjacency bound: C(b, c_plus_1) = value < 0."""

    b: int
    c_plus_1: int
    value: int


def _start_level(v: int, k: int, lam: int) -> int:
    """Least level y = c+1 that can hold a negative value of C, z = x - y.

    For k = lam+1 and c = k+1 (the parameters of disjoint copies of K_c):

        C(x, y) = (c-y) z(z+1) + (v-c) x(x+1)

    For lam = 2k-v with a = v-k dividing v and m = v/a (the parameters of
    the complete multipartite K_{m x a}):

        C(x, y) = a(m-y) z(z+1) + (a-1) y (z+1)(z+2)

    n(n+1) >= 0 for every integer n, so at integer x the first sum is >= 0
    for every y <= c and the second for every 0 <= y <= m.  The walk may
    start at c+1 = lam+3, resp. m+1, and both are the CAB levels themselves:
    lam+3 is the last possible level, and K_{m x a} has cliques of size m,
    which the CAB bounds from above (Soicher, J. Algebra 421, 2015).
    """
    if k == lam + 1:
        return lam + 3
    a = v - k
    if lam == 2 * k - v and v % a == 0:
        return v // a + 1
    return 3


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


def _negative_runs(cs: tuple[int, int, int, int], lo: int,
                   hi: int) -> Iterator[tuple[int, int]]:
    """Yield, in increasing order, integer runs [a, b] covering exactly the
    integers of [lo, hi] where the cubic cs is negative.

    The range is cut after floor(r) for each real root r of P', so that P is
    monotone on every piece, and each piece's negative run is found by
    bisection.  Everything is decided in integers.
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
        elif neg_first or neg_last:
            # bisect for the sign change, keeping the negative end at neg
            neg, pos = (first, last) if neg_first else (last, first)
            while abs(pos - neg) > 1:
                mid = (neg + pos) // 2
                if _cubic(cs, mid) < 0:
                    neg = mid
                else:
                    pos = mid
            yield (first, neg) if neg_first else (neg, last)
        first = last + 1


def cab(p: EdgeRegularParams | SrgParams) -> tuple[int, CabWitness]:
    """Clique adjacency bound: least c >= 2 with C(b, c+1) < 0 for some b.

    It reads only v, k, lam and validate() of p, so a SrgParams is bounded
    as its edge-regular triple, after its own (stricter) validation.

    It is at most lam+2, since C(0, lam+3) = -(lam+3)(lam+2) < 0.  The levels
    y = c+1 are walked in increasing order, skipping two kinds of level
    that are proved to hold no negative value:

    * levels below _start_level, by the two sum-of-squares identities for
      the disjoint-clique and complete-multipartite parameters;
    * levels where the quadratic in x, C = a2 x^2 + a1 x + a0 with
      a2 = v - y > 0, has P(y) = 4 a2 a0 - a1^2 >= 0: then C >= 0 at every
      real x.  P is a cubic in y, and its negative runs are isolated
      exactly in integers.

    Every other level is still minimized over b by cap_min_over_b, so the
    first negative level and its witness are those of the plain walk
    y = 3, 4, ...  The start level is probed before any run is isolated:
    it is the first level the walk would visit, and it decides the bound of
    every m*K_c and K_{m x a} tuple and of most others.
    """
    p.validate()
    v, k, lam = p.v, p.k, p.lam
    start = _start_level(v, k, lam)
    top = min(lam + 3, v - 1)
    cs = _certificate_cubic(v, k, lam)
    if start <= top and _cubic(cs, start) < 0:
        b, val = cap_min_over_b(v, k, lam, start)
        if val < 0:
            return start - 1, CabWitness(b=b, c_plus_1=start, value=val)
    # the start level is visited (or skipped) at most once: resume after it
    for lo, hi in _negative_runs(cs, start + 1, top):
        for y in range(lo, hi + 1):
            b, val = cap_min_over_b(v, k, lam, y)
            if val < 0:
                return y - 1, CabWitness(b=b, c_plus_1=y, value=val)
    # Reached only when lam + 3 >= v (a level lam + 3 <= v - 1 is negative
    # at b = 0), so every level below v is nonnegative.  The quadratic-in-b
    # minimization needs leading coefficient v - y > 0; at y >= v the
    # witness b = 0 suffices, as C(0, y) = y(y-1)(lam - y + 2) < 0 first at
    # y = lam + 3 <= v + 1.
    y = lam + 3
    return lam + 2, CabWitness(b=0, c_plus_1=y, value=cap_value(v, k, lam, 0, y))


def trivial_bound(p: EdgeRegularParams) -> int:
    """lam + 2: the largest clique size not excluded by C(0, y)."""
    return p.lam + 2


def _delsarte(p: SrgParams, s: Optional[int]) -> int:
    """1 + floor(-k/s) for the integer least eigenvalue s < 0; s is None for
    conference tuples, where -k/s = sqrt(v) - 1 with v not a square."""
    return isqrt(p.v) if s is None else 1 + p.k // -s


def _thm51(p: SrgParams, s: Optional[int]) -> bool:
    """-k/s >= lam + 1; for s is None, sqrt(v) >= lam + 2."""
    if s is None:
        return p.v >= (p.lam + 2) ** 2
    return p.k >= -s * (p.lam + 1)


def delsarte_bound(p: SrgParams) -> int:
    """floor(1 - k/s) for least eigenvalue s < 0.

    Disconnected parameters (mu = 0) have s = -1 and k = lam + 1, so the
    bound is lam + 2, the clique size of the disjoint union of cliques.
    """
    return _delsarte(p, _int_spectrum(p)[2])


def delsarte_prefloor(p: SrgParams) -> QuadExt:
    """The exact value 1 - k/s before flooring (connected parameters)."""
    return 1 - QuadExt.make(p.k) / spectrum(p).s


def hoffman_clique_bound(v: int, k_bar: int, s_bar: QuadExt) -> int:
    """floor(v / (1 - k_bar/s_bar)): ratio bound for independent sets in the
    complement, read as a clique bound for the original graph."""
    if s_bar.sign() >= 0:
        raise ValueError(f"least eigenvalue must be negative, got {s_bar}")
    return hoffman_prefloor(v, k_bar, s_bar).floor()


def hoffman_prefloor(v: int, k_bar: int, s_bar: QuadExt) -> QuadExt:
    return QuadExt.make(v) / (1 - QuadExt.make(k_bar) / s_bar)


def _thm21(v: int) -> bool:
    m = isqrt(v) // 2  # floor(sqrt(v)/2) = floor(isqrt(v)/2)
    return v != (2 * m) ** 2 and 16 * v + 20 < (8 * m + 2) ** 2


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
    return _thm21(v)


def _thm22(p: SrgParams, r: int, s: int) -> bool:
    """0 < frc(-k/s) < 1 - (r^2 + r)/D with D = v - 2k + lam > 0: frc(-k/s)
    is m/a for -s = a and k = qa + m, so clearing a and D gives
    0 < m and m*D < a*(D - r^2 - r)."""
    dd = p.v - 2 * p.k + p.lam
    m = p.k % -s
    return 0 < m and m * dd < -s * (dd - r * r - r)


def thm22_applies(p: SrgParams) -> bool:
    """Integer-eigenvalue improvement predicate:

        0 < frc(-k/s) < 1 - (r^2 + r)/(v - 2k + lambda)

    for co-connected parameters with integer eigenvalues.
    """
    _, r, s, _, _ = _int_spectrum(p)
    if r is None:
        raise ValueError(f"{p} has irrational eigenvalues")
    if not p.is_coconnected():
        raise DegenerateParamsError(f"{p} is not co-connected")
    return _thm22(p, r, s)


def improved_bound(p: SrgParams) -> Optional[int]:
    """floor(sqrt(v) - 1) or floor(-k/s) when the matching predicate holds."""
    _, r, s, _, _ = _int_spectrum(p)
    if r is None:
        # v is not a perfect square here, so floor(sqrt(v)-1) = isqrt(v)-1
        return isqrt(p.v) - 1 if _thm21(p.v) else None
    return p.k // -s if p.is_coconnected() and _thm22(p, r, s) else None


def thm51_predicate(p: SrgParams) -> bool:
    """lam + 1 <= -k/s, exactly; when true the clique adjacency bound is
    pinned at the trivial value lam + 2."""
    return _thm51(p, _int_spectrum(p)[2])


@dataclass(frozen=True, slots=True)
class BoundsReport:
    """Every bound for one parameter tuple, plus the predicate outcomes."""

    params: SrgParams
    type_tag: SrgType
    cab: int
    cab_witness: CabWitness
    delsarte: int
    delsarte_degenerate: bool
    trivial: int
    hoffman_complement: Optional[int]
    thm21: bool
    thm22: bool
    thm51: bool
    improved: Optional[int]

    @property
    def gap(self) -> int:
        """How far the clique adjacency bound sits below Delsarte."""
        return self.delsarte - self.cab

    def to_json_dict(self) -> dict:
        return {
            "v": self.params.v,
            "k": self.params.k,
            "lambda": self.params.lam,
            "mu": self.params.mu,
            "cab": self.cab,
            "cab_witness_b": self.cab_witness.b,
            "cab_witness_y": self.cab_witness.c_plus_1,
            "delsarte": self.delsarte,
            "trivial": self.trivial,
            "thm21": self.thm21,
            "thm22": self.thm22,
            "improved": self.improved,
        }


def full_report(p: SrgParams) -> BoundsReport:
    """Compute every bound and predicate for one tuple from a single integer
    spectrum, with consistency assertions (cab <= trivial and cab <= delsarte)
    checked before returning.

    Delsarte is 1 + floor(-k/s), and for mu = 0 (s = -1) that is lam + 2.  By
    the identity (1 - k/s)(1 - k_bar/s_bar) = v the complement Hoffman bound
    equals it, and either improvement predicate lowers it by one.
    """
    tag, r, s, _, _ = _int_spectrum(p)
    # cab validates p a second time; it is called by its module-level name
    # so that perfbench can time the CAB walk on its own
    cab_val, witness = cab(p)
    dels = _delsarte(p, s)
    coconnected = p.is_coconnected()

    t21 = False
    t22 = False
    if s is None:
        t21 = _thm21(p.v)
    elif coconnected:
        t22 = _thm22(p, r, s)

    report = BoundsReport(
        params=p,
        type_tag=tag,
        cab=cab_val,
        cab_witness=witness,
        delsarte=dels,
        delsarte_degenerate=p.mu == 0,
        trivial=p.lam + 2,
        hoffman_complement=dels if p.mu > 0 and coconnected else None,
        thm21=t21,
        thm22=t22,
        thm51=_thm51(p, s),
        improved=dels - 1 if t21 or t22 else None,
    )
    if report.cab > report.trivial:
        raise AssertionError(f"cab {report.cab} exceeds trivial bound for {p}")
    if report.cab > report.delsarte:
        raise AssertionError(f"cab {report.cab} exceeds Delsarte bound for {p}")
    return report
