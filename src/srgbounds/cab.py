"""Clique adjacency bound, Delsarte bound, Hoffman bound, and the predicates
guaranteeing that the clique adjacency bound beats the Delsarte bound."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .quadext import QuadExt
from .srg import (
    DegenerateParamsError,
    EdgeRegularParams,
    SrgParams,
    SrgType,
    Spectrum,
    classify,
    complement,
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
    a2 = v - y
    a1 = (v - y) - 2 * y * (k - y + 1)
    # real vertex at -a1 / (2*a2); flanking integers by floor division
    b_lo = -a1 // (2 * a2)
    b_hi = b_lo + 1
    v_lo = cap_value(v, k, lam, b_lo, y)
    v_hi = cap_value(v, k, lam, b_hi, y)
    if v_hi < v_lo:
        return b_hi, v_hi
    return b_lo, v_lo


def cap_min_over_b_bruteforce(v: int, k: int, lam: int, y: int,
                              lo: int | None = None, hi: int | None = None) -> tuple[int, int]:
    """Debug cross-check: scan b over an explicit range (default [-2v, 2v])."""
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


@dataclass(frozen=True)
class CabWitness:
    """Point certifying the clique adjacency bound: C(b, c_plus_1) = value < 0."""

    b: int
    c_plus_1: int
    value: int


def cab(p: EdgeRegularParams) -> tuple[int, CabWitness]:
    """Clique adjacency bound: least c >= 2 with C(b, c+1) < 0 for some b.

    Terminates with c <= lam+2 since C(0, lam+3) = -(lam+3)(lam+2) < 0.
    """
    p.validate()
    c = 2
    while True:
        y = c + 1
        if y >= p.v:
            # the quadratic-in-b minimization needs leading coefficient
            # v - y > 0; at y >= v the witness b = 0 suffices, as
            # C(0, y) = y(y-1)(lam - y + 2) < 0 once y > lam + 2
            b, val = 0, cap_value(p.v, p.k, p.lam, 0, y)
        else:
            b, val = cap_min_over_b(p.v, p.k, p.lam, y)
        if val < 0:
            return c, CabWitness(b=b, c_plus_1=y, value=val)
        c += 1
        if c > p.lam + 2:
            raise AssertionError(f"CAB search exceeded lambda+2 for {p}")


def trivial_bound(p: EdgeRegularParams) -> int:
    """lam + 2: the largest clique size not excluded by C(0, y)."""
    return p.lam + 2


def delsarte_bound(p: SrgParams) -> int:
    """floor(1 - k/s) for least eigenvalue s < 0.

    Disconnected parameters (mu = 0) have no negative-eigenvalue ratio story;
    they fall back to the trivial bound lam + 2 (the clique size actually
    attained by a disjoint union of cliques).
    """
    p.validate()
    if p.mu == 0:
        return p.lam + 2
    s = spectrum(p).s
    return (1 - QuadExt.make(p.k) / s).floor()


def delsarte_prefloor(p: SrgParams) -> QuadExt:
    """The exact value 1 - k/s before flooring (connected parameters)."""
    s = spectrum(p).s
    return 1 - QuadExt.make(p.k) / s


def hoffman_clique_bound(v: int, k_bar: int, s_bar: QuadExt) -> int:
    """floor(v / (1 - k_bar/s_bar)): ratio bound for independent sets in the
    complement, read as a clique bound for the original graph."""
    if s_bar.sign() >= 0:
        raise ValueError(f"least eigenvalue must be negative, got {s_bar}")
    return hoffman_prefloor(v, k_bar, s_bar).floor()


def hoffman_prefloor(v: int, k_bar: int, s_bar: QuadExt) -> QuadExt:
    return QuadExt.make(v) / (1 - QuadExt.make(k_bar) / s_bar)


def thm21_applies(v: int) -> tuple[bool, float]:
    """Conference-graph improvement predicate on v vertices:

        0 < frc(sqrt(v)/2) < 1/4 + (sqrt(v) - sqrt(v+5/4))/2

    Both strict inequalities are decided exactly.  With m = floor(sqrt(v)/2)
    the left inequality is v != (2m)^2 and, after clearing denominators so
    only the integer radicand 16v+20 remains, the right inequality is
    16v + 20 < (8m + 2)^2.  The returned threshold is display-only.
    """
    if v < 5 or v % 4 != 1:
        raise ValueError(f"v={v} must be >= 5 and congruent to 1 mod 4")
    m = (QuadExt.sqrt(v) * Fraction(1, 2)).floor()
    positive_frac = v != (2 * m) ** 2
    below_threshold = 16 * v + 20 < (8 * m + 2) ** 2
    threshold = 0.25 + (v**0.5 - (v + 1.25) ** 0.5) / 2
    return positive_frac and below_threshold, threshold


def thm22_applies(p: SrgParams) -> tuple[bool, QuadExt]:
    """Integer-eigenvalue improvement predicate:

        0 < frc(-k/s) < 1 - (r^2 + r)/(v - 2k + lambda)

    for co-connected parameters with integer eigenvalues.
    """
    tag = classify(p)
    if tag is SrgType.TYPE_I_ONLY:
        raise ValueError(f"{p} has irrational eigenvalues")
    if not p.is_coconnected():
        raise DegenerateParamsError(f"{p} is not co-connected")
    spec = spectrum(p)
    r = spec.r.as_fraction()
    s = spec.s.as_fraction()
    ratio = Fraction(p.k) / (-s)
    frac = ratio - (ratio.numerator // ratio.denominator)
    threshold = 1 - Fraction(int(r * r + r), p.v - 2 * p.k + p.lam)
    return 0 < frac < threshold, QuadExt.make(threshold)


def improved_bound(p: SrgParams) -> Optional[int]:
    """floor(sqrt(v) - 1) or floor(-k/s) when the matching predicate holds."""
    tag = classify(p)
    if tag is SrgType.TYPE_I_ONLY:
        applies, _ = thm21_applies(p.v)
        if not applies:
            return None
        # v is not a perfect square here, so floor(sqrt(v)-1) = isqrt(v)-1
        return isqrt(p.v) - 1
    if not p.is_coconnected():
        return None
    applies, _ = thm22_applies(p)
    if not applies:
        return None
    s = spectrum(p).s.as_fraction()
    ratio = Fraction(p.k) / (-s)
    return ratio.numerator // ratio.denominator


def thm51_predicate(p: SrgParams) -> bool:
    """lam + 1 <= -k/s, exactly; when true the clique adjacency bound is
    pinned at the trivial value lam + 2."""
    p.validate()
    if p.mu == 0:
        # s = -1, so the condition reads lam+1 <= k = lam+1
        return True
    s = spectrum(p).s
    return (QuadExt.make(p.lam + 1) + QuadExt.make(p.k) / s).sign() <= 0


@dataclass(frozen=True)
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
    """Compute every bound and predicate for one tuple, with consistency
    assertions (cab <= trivial and cab <= delsarte) checked before returning."""
    p.validate()
    tag = classify(p)
    cab_val, witness = cab(p.edge_regular)
    degenerate = p.mu == 0
    dels = delsarte_bound(p)
    triv = trivial_bound(p.edge_regular)

    t21 = False
    t22 = False
    if tag is SrgType.TYPE_I_ONLY:
        t21, _ = thm21_applies(p.v)
    elif p.is_coconnected():
        t22, _ = thm22_applies(p)

    hoffman = None
    if p.is_connected() and p.is_coconnected():
        spec = spectrum(p)
        hoffman = hoffman_clique_bound(p.v, p.v - p.k - 1, -spec.r - 1)

    report = BoundsReport(
        params=p,
        type_tag=tag,
        cab=cab_val,
        cab_witness=witness,
        delsarte=dels,
        delsarte_degenerate=degenerate,
        trivial=triv,
        hoffman_complement=hoffman,
        thm21=t21,
        thm22=t22,
        thm51=thm51_predicate(p),
        improved=improved_bound(p),
    )
    if report.cab > report.trivial:
        raise AssertionError(f"cab {report.cab} exceeds trivial bound for {p}")
    if report.cab > report.delsarte:
        raise AssertionError(f"cab {report.cab} exceeds Delsarte bound for {p}")
    return report
