"""Parameter tuples, spectra and feasibility checks for strongly regular graphs."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

from .quadext import QuadExt, factorize


class InfeasibleParamsError(ValueError):
    """Parameter tuple cannot belong to any strongly regular graph."""


class DegenerateParamsError(ValueError):
    """Operation undefined for disconnected or complete-multipartite parameters."""


class SrgType(enum.Enum):
    TYPE_I_ONLY = "I"
    TYPE_II_ONLY = "II"
    BOTH = "I+II"


class FeasibilityLevel(enum.IntEnum):
    """Cumulative feasibility filters; each level implies all previous ones."""

    COUNTING = 1
    INTEGRALITY = 2
    KREIN = 3
    ABSOLUTE_BOUND = 4


@dataclass(frozen=True)
class EdgeRegularParams:
    """(v, k, lam): v vertices, valency k, lam common neighbours per edge."""

    v: int
    k: int
    lam: int

    def validate(self) -> None:
        if self.v < 2:
            raise InfeasibleParamsError(f"v={self.v} < 2")
        if not 0 < self.k <= self.v - 1:
            raise InfeasibleParamsError(f"k={self.k} out of range for v={self.v}")
        if not 0 <= self.lam <= self.k - 1:
            raise InfeasibleParamsError(f"lambda={self.lam} out of range for k={self.k}")


@dataclass(frozen=True)
class SrgParams:
    """(v, k, lam, mu) parameter tuple of a strongly regular graph.

    The record itself is permissive (feasibility checks accept arbitrary
    integer tuples); operations with a validity precondition call validate().
    """

    v: int
    k: int
    lam: int
    mu: int

    def validate(self) -> None:
        if self.v < 2:
            raise InfeasibleParamsError(f"v={self.v} < 2")
        if not 0 < self.k <= self.v - 2:
            raise InfeasibleParamsError(f"k={self.k} out of range for v={self.v}")
        if not 0 <= self.lam <= self.k - 1:
            raise InfeasibleParamsError(f"lambda={self.lam} out of range for k={self.k}")
        if not 0 <= self.mu <= self.k:
            raise InfeasibleParamsError(f"mu={self.mu} out of range for k={self.k}")
        lhs = (self.v - self.k - 1) * self.mu
        rhs = self.k * (self.k - self.lam - 1)
        if lhs != rhs:
            raise InfeasibleParamsError(
                f"counting identity fails: (v-k-1)mu={lhs} != k(k-lambda-1)={rhs}"
            )

    @property
    def edge_regular(self) -> EdgeRegularParams:
        return EdgeRegularParams(self.v, self.k, self.lam)

    def is_connected(self) -> bool:
        return self.mu > 0

    def is_coconnected(self) -> bool:
        return self.v - 2 * self.k + self.lam > 0


@dataclass(frozen=True)
class Spectrum:
    """Exact eigenvalue data of a strongly regular graph.

    r >= s are the restricted eigenvalues with multiplicities f, g; for
    conference parameters with irrational eigenvalues f = g = (v-1)/2.
    """

    r: QuadExt
    s: QuadExt
    f: int
    g: int
    type_tag: SrgType


def parse_params_string(text: str) -> SrgParams | EdgeRegularParams:
    """Parse "v,k,l,m" or "v k l" (comma or whitespace separated)."""
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if len(parts) not in (3, 4):
        raise ValueError(f"expected 3 or 4 integers, got {text!r}")
    nums = [int(p) for p in parts]
    if len(nums) == 3:
        return EdgeRegularParams(*nums)
    return SrgParams(*nums)


def _is_conference(v: int, k: int, lam: int, mu: int) -> bool:
    return 2 * k == v - 1 and 4 * lam == v - 5 and 4 * mu == v - 1


def is_sum_of_two_squares(n: int) -> bool:
    """True iff n = a^2 + b^2: every prime factor congruent to 3 mod 4 must
    occur to an even power."""
    return n >= 0 and all(p % 4 != 3 or e % 2 == 0 for p, e in factorize(n))


def classify(p: SrgParams) -> SrgType:
    """Type I: conference parameter conditions; type II: integer eigenvalues."""
    return _int_spectrum(p)[0]


def _multiplicities(p: SrgParams, t: int) -> Optional[tuple[int, int]]:
    """f, g = ((v-1)t -/+ (2k + (v-1)(lam-mu))) / 2t from the trace identities,
    for an integer t = r - s > 0; None unless both are nonnegative integers."""
    m = p.v - 1
    f, rem = divmod(m * t - 2 * p.k - m * (p.lam - p.mu), 2 * t)
    return None if rem or not 0 <= f <= m else (f, m - f)


def _roots(p: SrgParams) -> tuple[bool, Optional[int], Optional[int]]:
    """(conf, r, s) without validation, for mu <= k: conf flags the
    conference conditions, and r, s are the integer restricted eigenvalues,
    or None when the discriminant is not a square.

    r, s = (lam-mu +/- t)/2 are the roots of x^2 - (lam-mu)x - (k-mu), with
    t^2 the discriminant, nonnegative as mu <= k.  When t is an integer so
    are r and s (t has the parity of lam-mu, as disc = (lam-mu)^2 mod 4).
    """
    conf = _is_conference(p.v, p.k, p.lam, p.mu)
    d = p.lam - p.mu
    disc = d * d + 4 * (p.k - p.mu)
    t = isqrt(disc)
    if t * t != disc:
        return conf, None, None
    return conf, (d + t) // 2, (d - t) // 2


def _int_spectrum(p: SrgParams) -> tuple[SrgType, Optional[int], Optional[int], int, int]:
    """(type, r, s, f, g) in integers, validating p once.  This is the one
    test of whether p has a spectrum, and every spectral function goes
    through it: integer or conference eigenvalues, with nonnegative integral
    multiplicities, or InfeasibleParamsError.  r = s = None flags a
    conference tuple with irrational eigenvalues (-1 +/- sqrt(v))/2, where
    f = g = (v-1)/2; otherwise f, g come from the trace identities."""
    p.validate()
    conf, r, s = _roots(p)
    if r is None:
        if not conf:
            raise InfeasibleParamsError(f"{p} is neither conference nor has integer eigenvalues")
        f = (p.v - 1) // 2
        return SrgType.TYPE_I_ONLY, None, None, f, f
    t = r - s
    fg = _multiplicities(p, t)
    if fg is None:
        # f, g = ((v-1)t -/+ n) / 2t, printed as a Fraction prints
        m, n = (p.v - 1) * t, 2 * p.k + (p.v - 1) * (p.lam - p.mu)
        raise InfeasibleParamsError(
            f"non-integral or negative multiplicities f={_ratio(m - n, 2 * t)}, "
            f"g={_ratio(m + n, 2 * t)}"
        )
    return (SrgType.BOTH if conf else SrgType.TYPE_II_ONLY), r, s, *fg


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0: "n/d" in lowest terms, or "n"."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def spectrum(p: SrgParams) -> Spectrum:
    """Exact r >= s with r+s = lam-mu and rs = mu-k, plus multiplicities."""
    tag, r, s, f, g = _int_spectrum(p)
    if r is None:
        root, half = QuadExt.sqrt(p.v), Fraction(1, 2)
        return Spectrum(r=(root - 1) * half, s=(-1 - root) * half, f=f, g=g, type_tag=tag)
    return Spectrum(r=QuadExt.make(r), s=QuadExt.make(s), f=f, g=g, type_tag=tag)


def complement(p: SrgParams) -> SrgParams:
    """Complement parameters (v, v-k-1, v-2k+mu-2, v-2k+lam).

    Requires connected and co-connected input; the complement spectrum
    satisfies r_bar = -s-1 and s_bar = -r-1.
    """
    p.validate()
    if p.mu == 0:
        raise DegenerateParamsError(f"{p} is disconnected (mu=0)")
    if p.v - 2 * p.k + p.lam == 0:
        raise DegenerateParamsError(f"{p} is complete multipartite (v-2k+lambda=0)")
    return SrgParams(p.v, p.v - p.k - 1, p.v - 2 * p.k + p.mu - 2, p.v - 2 * p.k + p.lam)


def is_feasible(p: SrgParams, level: FeasibilityLevel) -> tuple[bool, Optional[str]]:
    """Check cumulative feasibility constraints; returns (ok, failing constraint).

    Accepts arbitrary integer tuples.  COUNTING covers the basic counting
    identity and parameter ranges; INTEGRALITY the eigenvalue multiplicities
    (or the conference conditions); KREIN the two Krein inequalities evaluated
    exactly; ABSOLUTE_BOUND the absolute bound v <= f(f+3)/2, v <= g(g+3)/2.
    """
    v, k, lam, mu = p.v, p.k, p.lam, p.mu
    # counting
    if v < 2:
        return False, "v>=2"
    if not 0 < k <= v - 2:
        return False, "0<k<=v-2"
    if not 0 <= lam <= k - 1:
        return False, "0<=lambda<=k-1"
    if not 0 <= mu <= k:
        return False, "0<=mu<=k"
    if (v - k - 1) * mu != k * (k - lam - 1):
        return False, "counting identity"
    # v-2k+lam >= 0 follows: for mu > 0, v-k-1 = k(k-lam-1)/mu >= k-lam-1,
    # and mu = 0 forces lam = k-1 with v-k-1 >= 1
    if level < FeasibilityLevel.INTEGRALITY:
        return True, None
    # integrality.  Integer r, s have r - s = t >= 1, as t = 0 would need
    # lam = mu = k.  Conference tuples have 2k + (v-1)(lam-mu) = 0, so their
    # multiplicities f = g = (v-1)/2 pass.
    conf, r, s = _roots(p)
    if r is not None:
        fg = _multiplicities(p, r - s)
        if fg is None:
            return False, "integral multiplicities"
    elif not conf:
        return False, "conference or perfect-square discriminant"
    if conf and not is_sum_of_two_squares(v):
        # a conference graph requires v to be a sum of two squares
        return False, "conference sum of two squares"
    if level < FeasibilityLevel.KREIN:
        return True, None
    if mu == 0 or v - 2 * k + lam == 0:
        # Krein and absolute-bound conditions apply to primitive parameter
        # tuples only; disjoint unions of cliques and complete multipartite
        # graphs (and their complements) are exempt
        return True, None
    if r is None:
        # conference with u = sqrt(v) irrational: k = (v-1)/2, r, s =
        # (-1 +/- u)/2, so k + r + 2rs = (u-1)/2 and k + s + 2rs = -(u+1)/2,
        # and the Krein slacks (k+r)(s+1)^2 - (r+1)(k+r+2rs) and
        # (k+s)(r+1)^2 - (s+1)(k+s+2rs) expand to (v -/+ u)(v-5)/8 >= 0 as
        # lam = (v-5)/4 >= 0.  f = g = (v-1)/2 meets the absolute bound,
        # since g(g+3) - 2v = (v-5)(v+1)/4 >= 0.
        return True, None
    # Krein conditions, exact in integers
    if (r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) * (s + 1):
        return False, "Krein 1"
    if (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) * (r + 1):
        return False, "Krein 2"
    if level < FeasibilityLevel.ABSOLUTE_BOUND:
        return True, None
    f, g = fg
    if 2 * v > f * (f + 3):
        return False, "absolute bound (f)"
    if 2 * v > g * (g + 3):
        return False, "absolute bound (g)"
    return True, None
