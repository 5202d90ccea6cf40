"""Parameter tuples, spectra and feasibility checks for strongly regular graphs."""

from __future__ import annotations

import enum
from math import isqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from .quadext import QuadExt


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


# the two levels _krein_absolute_failure compares with, read once: an enum
# member is a class attribute whose lookup runs Python code
_KREIN = FeasibilityLevel.KREIN
_ABSOLUTE_BOUND = FeasibilityLevel.ABSOLUTE_BOUND


class EdgeRegularParams(NamedTuple):
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


class SrgParams(NamedTuple):
    """(v, k, lam, mu) parameter tuple of a strongly regular graph.

    The record itself is permissive (feasibility checks accept arbitrary
    integer tuples); operations with a validity precondition call validate().
    """

    v: int
    k: int
    lam: int
    mu: int

    def validate(self) -> None:
        failure = _counting_failure(*self)
        if failure:
            raise InfeasibleParamsError(failure[1])

    @property
    def edge_regular(self) -> EdgeRegularParams:
        return EdgeRegularParams(self.v, self.k, self.lam)

    def is_connected(self) -> bool:
        return self.mu > 0

    def is_coconnected(self) -> bool:
        return self.v - 2 * self.k + self.lam > 0


def _counting_failure(v: int, k: int, lam: int, mu: int) -> Optional[tuple[str, str]]:
    """(constraint name, error message) for the first counting constraint
    that (v, k, lam, mu) fails, or None.  This is the one counting rule:
    SrgParams.validate raises the message, is_feasible returns the name."""
    if v < 2:
        return "v>=2", f"v={v} < 2"
    if not 0 < k <= v - 2:
        return "0<k<=v-2", f"k={k} out of range for v={v}"
    if not 0 <= lam <= k - 1:
        return "0<=lambda<=k-1", f"lambda={lam} out of range for k={k}"
    if not 0 <= mu <= k:
        return "0<=mu<=k", f"mu={mu} out of range for k={k}"
    lhs = (v - k - 1) * mu
    rhs = k * (k - lam - 1)
    if lhs != rhs:
        return ("counting identity",
                f"counting identity fails: (v-k-1)mu={lhs} != k(k-lambda-1)={rhs}")
    return None


class Spectrum(NamedTuple):
    """Exact eigenvalue data of a strongly regular graph.

    r >= s are the restricted eigenvalues with multiplicities f, g; for
    conference parameters with irrational eigenvalues f = g = (v-1)/2.
    """

    r: QuadExt
    s: QuadExt
    f: int
    g: int
    type_tag: SrgType


def quote(text: str) -> str:
    """text quoted for a message as repr quotes it, cut to its first 20
    characters and to the longest run of their escapes that fits in 40
    characters, with "..." when a cut drops any: repr alone writes a
    non-printable character as up to 10, so 20 characters could take 200.
    The cut falls between two characters' escapes, never inside one."""
    head = text[:20]
    q = repr(head)
    body = q[1:-1]
    cut = len(body)
    if cut > 40:
        cut = 0
        for ch in head:
            # repr(ch) picks its own quotes; within q, only q's quote
            # character gains a backslash
            width = len(repr(ch)) - 2 + (ch == q[0])
            if cut + width > 40:
                break
            cut += width
    return q[0] + body[:cut] + q[-1] + ("..." if len(text) > 20 or cut < len(body) else "")


def parse_int(token: str) -> int:
    """The integer written in token, which must be ASCII digits with an
    optional sign.  int() alone also reads digit-group underscores ("1_7"),
    any Unicode digit and surrounding whitespace, so a typo could be read
    as another number; those raise ValueError naming the token."""
    if (token.isdigit() or token[:1] in "+-" and token[1:].isdigit()) and token.isascii():
        return int(token)
    raise ValueError(f"invalid integer {quote(token)}: expected ASCII digits with an optional sign")


def parse_params_string(text: str) -> SrgParams | EdgeRegularParams:
    """Parse "v,k,l,m" or "v k l": the fields are separated by commas, by
    whitespace, or by both.  A comma field that is empty or blank, as in
    "17,8,,4" or ",17,8,3,4", is an error, not a missing separator.  Each
    field is read as parse_int reads it."""
    fields = text.split(",")
    if len(fields) > 1 and not all(map(str.strip, fields)):
        raise ValueError(f"empty comma-separated field in {quote(text)}")
    parts = " ".join(fields).split()
    if len(parts) not in (3, 4):
        raise ValueError(f"expected 3 or 4 integers, got {quote(text)}")
    nums = [parse_int(p) for p in parts]
    if len(nums) == 3:
        return EdgeRegularParams(*nums)
    return SrgParams(*nums)


def factorize(n: int) -> Iterator[tuple[int, int]]:
    """Yield (prime, exponent) for each prime factor of n in increasing
    order; nothing for n <= 1.  Trial division: the numbers factored here
    (radicands, conference v, Paley p) stay small."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def is_sum_of_two_squares(n: int) -> bool:
    """True iff n = a^2 + b^2: every prime factor congruent to 3 mod 4 must
    occur to an even power."""
    return n >= 0 and all(p % 4 != 3 or e % 2 == 0 for p, e in factorize(n))


def classify(p: SrgParams) -> SrgType:
    """Type I: conference parameter conditions; type II: integer eigenvalues."""
    return _int_spectrum(p)[0]


def _conference(v: int, k: int, lam: int, mu: int) -> bool:
    """The conference conditions 2k = v-1, 4lam = v-5 and 4mu = v-1.  This
    is the one conference test: a tuple with integer eigenvalues that meets
    it is of type I+II, one without is of type II."""
    return 2 * k == v - 1 and 4 * lam == v - 5 and 4 * mu == v - 1


def _spectrum_or_failure(p: SrgParams) -> tuple:
    """For p passing COUNTING, its integer spectrum (type, r, s, f, g), or
    (constraint name, error message) for the INTEGRALITY constraint it fails.
    This is the one spectrum rule: _int_spectrum raises the message,
    is_feasible returns the name and reads r, s, f, g.

    r, s = (lam-mu +/- t)/2 are the roots of x^2 - (lam-mu)x - (k-mu), with
    t^2 the discriminant, nonnegative as mu <= k.  When t is an integer so
    are r and s (t has the parity of lam-mu, as disc = (lam-mu)^2 mod 4),
    and t >= 1, as t = 0 would need lam = mu = k.  r = s = None flags a
    conference tuple with irrational eigenvalues (-1 +/- sqrt(v))/2, where
    f = g = (v-1)/2; otherwise f, g come from the trace identities.
    """
    v, k, lam, mu = p
    conf = _conference(v, k, lam, mu)
    d = lam - mu
    disc = d * d + 4 * (k - mu)
    t = isqrt(disc)
    if t * t != disc:
        if not conf:
            return ("conference or perfect-square discriminant",
                    f"{p} is neither conference nor has integer eigenvalues")
        f = (v - 1) // 2
        return SrgType.TYPE_I_ONLY, None, None, f, f
    # f, g = ((v-1)t -/+ n) / 2t; conference tuples have n = 0, so their
    # multiplicities f = g = (v-1)/2 pass
    m, n = (v - 1) * t, 2 * k + (v - 1) * d
    f, rem = divmod(m - n, 2 * t)
    if rem or not 0 <= f <= v - 1:
        # imported here: only a refused tuple prints this message, so no
        # valid tuple and no scan loads fractions
        from fractions import Fraction

        return ("integral multiplicities",
                f"non-integral or negative multiplicities f={Fraction(m - n, 2 * t)}, "
                f"g={Fraction(m + n, 2 * t)}")
    tag = SrgType.BOTH if conf else SrgType.TYPE_II_ONLY
    return tag, (d + t) // 2, (d - t) // 2, f, v - 1 - f


def _int_spectrum(p: SrgParams) -> tuple[SrgType, Optional[int], Optional[int], int, int]:
    """(type, r, s, f, g) in integers, validating p once, or the
    InfeasibleParamsError of the spectrum rule.  Every public spectral
    function goes through it; the scan reports a tuple that carries its
    generator's spectrum without it (catalog._reports)."""
    p.validate()
    spec = _spectrum_or_failure(p)
    if len(spec) == 2:
        raise InfeasibleParamsError(spec[1])
    return spec


def spectrum(p: SrgParams) -> Spectrum:
    """Exact r >= s with r+s = lam-mu and rs = mu-k, plus multiplicities."""
    from fractions import Fraction

    from .quadext import QuadExt

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
    return _complement(*p)


def _complement(v: int, k: int, lam: int, mu: int) -> SrgParams:
    """The one complement formula, without complement's checks: for callers
    that already hold a valid, connected and co-connected tuple."""
    return SrgParams(v, v - k - 1, v - 2 * k + mu - 2, v - 2 * k + lam)


def is_feasible(p: SrgParams, level: FeasibilityLevel) -> tuple[bool, Optional[str]]:
    """Check cumulative feasibility constraints; returns (ok, failing constraint).

    Accepts arbitrary integer tuples.  COUNTING covers the basic counting
    identity and parameter ranges; INTEGRALITY the eigenvalue multiplicities
    (or the conference conditions); KREIN the two Krein inequalities evaluated
    exactly; ABSOLUTE_BOUND the absolute bound v <= f(f+3)/2, v <= g(g+3)/2.
    """
    v, k, lam, mu = p
    failure = _counting_failure(v, k, lam, mu)
    if failure:
        return False, failure[0]
    # v-2k+lam >= 0 follows: for mu > 0, v-k-1 = k(k-lam-1)/mu >= k-lam-1,
    # and mu = 0 forces lam = k-1 with v-k-1 >= 1
    if level < FeasibilityLevel.INTEGRALITY:
        return True, None
    spec = _spectrum_or_failure(p)
    if len(spec) == 2:
        return False, spec[0]
    tag, r, s, f, g = spec
    if tag is not SrgType.TYPE_II_ONLY and not is_sum_of_two_squares(v):
        # a conference graph requires v to be a sum of two squares
        return False, "conference sum of two squares"
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
    failure = _krein_absolute_failure(v, k, r, s, f, g, level)
    return failure is None, failure


def _krein_absolute_failure(v: int, k: int, r: int, s: int, f: int, g: int,
                            level: FeasibilityLevel) -> Optional[str]:
    """The constraint a primitive tuple with integer spectrum (r, s, f, g)
    fails at level, or None.  This is the one Krein and absolute-bound
    rule: below KREIN there is nothing to check; KREIN adds the two Krein
    conditions, exact in integers, and ABSOLUTE_BOUND the absolute bound
    v <= f(f+3)/2, v <= g(g+3)/2."""
    if level < _KREIN:
        return None
    if (r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) * (s + 1):
        return "Krein 1"
    if (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) * (r + 1):
        return "Krein 2"
    if level < _ABSOLUTE_BOUND:
        return None
    if 2 * v > f * (f + 3):
        return "absolute bound (f)"
    if 2 * v > g * (g + 3):
        return "absolute bound (g)"
    return None
