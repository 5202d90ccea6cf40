"""Exact symbolic verification of the polynomial identities behind the bounds.

Each identity is checked by substituting an explicit parameterization of the
parameter/eigenvalue relations into both sides, clearing the declared monomial
denominator, and testing that the difference expands to the zero polynomial.
The same expression builders run over plain rationals for independent
random-point cross-checks.

Parameterizations:
  * general-srg: free variables (r, s, mu, t); lam = mu+r+s, k = mu-rs, and
    v = (mu(k+1) + k(k-lam-1))/mu from the counting identity.
  * type-i: free variables (w, t) with w standing for sqrt(v); v = w^2,
    k = (w^2-1)/2, lam = (w^2-5)/4, mu = (w^2-1)/4, r = (w-1)/2,
    s = -(w+1)/2.
  * raw: all symbols free (identities valid in the free polynomial ring).
  * delsarte-level: free variables (r, s, mu, m, b, c); general-srg without
    t, with a = -s, k = qa + m, so q = (k-m)/a, the Delsarte level
    delta = q + 1, D = v - 2k + lam, and a point (b, c) of C(x, y).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .cab import cap_value
from .mpoly import MPoly


class ResidualDivisionError(ValueError):
    """Clearing the declared monomial left a nontrivial denominator."""


def general_srg_symbols(r, s, mu, t):
    """Dependent symbols of the general parameterization, over any field."""
    lam = mu + r + s
    k = mu - r * s
    v = (mu * (k + 1) + k * (k - lam - 1)) / mu
    return {"r": r, "s": s, "mu": mu, "lam": lam, "k": k, "v": v, "t": t}


def type1_symbols(w, t):
    """Dependent symbols of the conference-graph parameterization."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    w2 = w * w
    return {
        "w": w,
        "v": w2,
        "k": (w2 - 1) * half,
        "lam": (w2 - 5) * quarter,
        "mu": (w2 - 1) * quarter,
        "r": (w - 1) * half,
        "s": -(w + 1) * half,
        "t": t,
    }


def delsarte_level_symbols(r, s, mu, m, b, c):
    """Dependent symbols of the Delsarte-level parameterization, over any
    field: dividing by -s, not by a polynomial, keeps q's denominator a
    monomial."""
    sym = general_srg_symbols(r, s, mu, None)
    del sym["t"]
    q = (sym["k"] - m) / -s
    sym.update(m=m, b=b, c=c, q=q, delta=q + 1, D=sym["v"] - 2 * sym["k"] + sym["lam"])
    return sym


# name -> (symbol builder, free variables in draw order, each with the values
# a draw avoids: the poles s = 0 and mu = 0, and w = -1, which makes s = 0;
# the identities are polynomial in w, so w need not be a genuine sqrt(v))
_PARAMETERIZATIONS: dict[str, tuple[Callable[..., dict], dict[str, tuple]]] = {
    "general-srg": (general_srg_symbols, {"r": (), "s": (0,), "mu": (0,), "t": ()}),
    "type-i": (type1_symbols, {"w": (-1,), "t": ()}),
    "raw": (dict, {"v": (), "k": (), "lam": (), "b": (), "c": ()}),
    "delsarte-level": (delsarte_level_symbols,
                       {"r": (), "s": (0,), "mu": (0,), "m": (), "b": (), "c": ()}),
}


def _symbols(parameterization: str, value: Callable[[str, tuple], object]) -> dict:
    try:
        build, free = _PARAMETERIZATIONS[parameterization]
    except KeyError:
        raise ValueError(f"unknown parameterization {parameterization!r}") from None
    return build(**{name: value(name, avoided) for name, avoided in free.items()})


def _symbolic_symbols(parameterization: str) -> dict:
    return _symbols(parameterization, lambda name, _: MPoly.var(name))


def _numeric_symbols(parameterization: str, rng: random.Random) -> dict:
    def draw(_, avoided):
        while True:
            x = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
            if x not in avoided:
                return x

    return _symbols(parameterization, draw)


@dataclass(frozen=True)
class IdentityCase:
    """One verified identity: lhs(sym) == rhs(sym) under the parameterization,
    after multiplying through by the declared clearing monomial."""

    name: str
    parameterization: str
    lhs: Callable[[Mapping], object]
    rhs: Callable[[Mapping], object]
    clearing: tuple[tuple[str, int], ...]  # monomial multiplier, e.g. (("s", 3), ("mu", 1))


def _cap(sym, x, y):
    return cap_value(sym["v"], sym["k"], sym["lam"], x, y)


def _case_lemma_neg_point(sym):
    # C at (-mu/s, 2 - k/s)
    return _cap(sym, -sym["mu"] / sym["s"], 2 - sym["k"] / sym["s"])


def _case_conf3_lhs(sym):
    return _cap(sym, sym["r"] - sym["t"], 3 + 2 * sym["r"] - 2 * sym["t"])


def _case_conf3_rhs(sym):
    t, s = sym["t"], sym["s"]
    return 2 * (t - 1) * (t + s - 2) * (t + 2 * s)


def _case_conf2_lhs(sym):
    return _cap(sym, sym["r"] - sym["t"], 2 + 2 * sym["r"] - 2 * sym["t"])


def _case_conf2_rhs(sym):
    t, s = sym["t"], sym["s"]
    return (t + s) * (2 * t * t + (4 * s - 1) * t - 3 * s - 1)


def _case_shift2_lhs(sym):
    t = sym["t"]
    return _cap(sym, -sym["mu"] / sym["s"] - t, 2 - sym["k"] / sym["s"] - t)


def _case_shift2_rhs(sym):
    t, v, k, lam, r, s = (sym[n] for n in ("t", "v", "k", "lam", "r", "s"))
    return (t - 1) * ((v - 2 * k + lam) * t - (2 * s - r) * (r + 1))


def _case_shift1_lhs(sym):
    t = sym["t"]
    return _cap(sym, -sym["mu"] / sym["s"] - t, 1 - sym["k"] / sym["s"] - t)


def _case_shift1_rhs(sym):
    t, v, k, lam, r = (sym[n] for n in ("t", "v", "k", "lam", "r"))
    return t * ((v - 2 * k + lam) * (t - 1) + r * (r + 1))


def _case_exclusivity_lhs(sym):
    v, k, lam, mu = (sym[n] for n in ("v", "k", "lam", "mu"))
    return mu * (v - 2 * k + lam)


def _case_exclusivity_rhs(sym):
    r, s = sym["r"], sym["s"]
    return (r * r + r) * (s * s + s)


def _case_level_lam2_lhs(sym):
    return sym["mu"] * _cap(sym, 1, sym["lam"] + 2) / 2


def _case_level_lam2_rhs(sym):
    k, lam, mu = sym["k"], sym["lam"], sym["mu"]
    return k * (k - (mu + 1) * (lam + 1)) + mu * (lam + 1) ** 2


def _case_monotone_lhs(sym):
    b, c = sym["b"], sym["c"]
    return _cap(sym, b, c) - _cap(sym, b, sym["lam"] + 2)


def _case_monotone_rhs(sym):
    b, c, k, lam = (sym[n] for n in ("b", "c", "k", "lam"))
    return (lam + 2 - c) * (b - c) * (b - c + 1) + 2 * b * (lam + 2 - c) * (k - lam - 1)


CASES: tuple[IdentityCase, ...] = (
    IdentityCase(
        name="cap-negative-at-ratio-point",
        parameterization="general-srg",
        lhs=_case_lemma_neg_point,
        rhs=lambda sym: (2 * sym["s"] - sym["r"]) * (sym["r"] + 1),
        clearing=(("s", 3), ("mu", 1)),
    ),
    IdentityCase(
        name="conference-level-3-shift",
        parameterization="type-i",
        lhs=_case_conf3_lhs,
        rhs=_case_conf3_rhs,
        clearing=(),
    ),
    IdentityCase(
        name="conference-level-2-shift",
        parameterization="type-i",
        lhs=_case_conf2_lhs,
        rhs=_case_conf2_rhs,
        clearing=(),
    ),
    IdentityCase(
        name="shifted-ratio-point-level-2",
        parameterization="general-srg",
        lhs=_case_shift2_lhs,
        rhs=_case_shift2_rhs,
        clearing=(("s", 3), ("mu", 1)),
    ),
    IdentityCase(
        name="shifted-ratio-point-level-1",
        parameterization="general-srg",
        lhs=_case_shift1_lhs,
        rhs=_case_shift1_rhs,
        clearing=(("s", 3), ("mu", 1)),
    ),
    IdentityCase(
        name="complement-exclusivity-product",
        parameterization="general-srg",
        lhs=_case_exclusivity_lhs,
        rhs=_case_exclusivity_rhs,
        clearing=(("mu", 1),),
    ),
    IdentityCase(
        name="trivial-level-at-one",
        parameterization="general-srg",
        lhs=_case_level_lam2_lhs,
        rhs=_case_level_lam2_rhs,
        clearing=(("mu", 1),),
    ),
    IdentityCase(
        name="level-monotonicity",
        parameterization="raw",
        lhs=_case_monotone_lhs,
        rhs=_case_monotone_rhs,
        clearing=(),
    ),
)


# The Delsarte-level lemma.  Take integer eigenvalues r >= 1 and s = -a <=
# -2, and 0 < mu < k.  Write k = qa + m with 0 <= m < a, and delta = q + 1,
# the Delsarte bound.  Then C(x, delta) < 0 for some integer x if and only
# if thm22 holds, which is m > 0 and mu < (a-1)(a-m).  Proof, with A = v - y
# and B = y(k-y+1) at a level y, read off the cases below:
# 1. A C(x, y) = (Ax - B)(Ax + A - B) + g(y), and mu g(y) = -(r+1)(s+1) y
#    (k + r(y-1))(k + s(y-1)).  At y = delta, k + s(delta-1) = k - qa = m
#    >= 0 and -(s+1) = a-1 > 0, so g(delta) >= 0.  q >= r, as k = mu + ra,
#    and v > k+1 > delta, so A > 0, and the product is negative only for
#    B/A - 1 < x < B/A: at y = delta, C(x, delta) < 0 needs x = floor(B/A).
# 2. At y = delta, mu(B - (q-r)A) = m(r+1)(k-r) >= 0, and mu((q-r+1)A - B)
#    = mu(k-q) + (r+1)(k(a-1-m) + mr) > 0, as k - q = q(a-1) + m >= 1.
#    With q = r + j and a = m + 1 + beta, j, beta >= 0, that is mu = ja + m
#    and k - q = (r+j)(m+beta) + m, so every term is a product of
#    polynomials with non-negative coefficients.  So floor(B/A) = q - r.
# 3. mu C(q-r, delta) = mr(r+1)(m + q - r + 1 - a): negative exactly when
#    m > 0 and m + q - r + 1 < a.
# 4. With D = v - 2k + lam > 0, thm22 in cab._report reads m > 0 and
#    a(D - r^2 - r) - mD > 0, and mu(a(D - r^2 - r) - mD) = -a^2 r(r+1)(m +
#    q - r + 1 - a): the same condition.  As mu - m = (q-r)a, m + q - r + 1
#    < a is mu < (a-1)(a-m).
# These cases stay out of CASES, which holds the paper's identities.


def _level_sides(sym, y):
    """(A, B) = (v - y, y(k - y + 1)) at level y."""
    return sym["v"] - y, y * (sym["k"] - y + 1)


def _case_completed_square_lhs(sym):
    b, c = sym["b"], sym["c"]
    a, bb = _level_sides(sym, c)
    return sym["mu"] * (a * _cap(sym, b, c) - (a * b - bb) * (a * b + a - bb))


def _case_completed_square_rhs(sym):
    r, s, k, c = sym["r"], sym["s"], sym["k"], sym["c"]
    return -(r + 1) * (s + 1) * c * (k + r * (c - 1)) * (k + s * (c - 1))


def _case_vertex_floor_lhs(sym):
    a, b = _level_sides(sym, sym["delta"])
    return sym["mu"] * (b - (sym["q"] - sym["r"]) * a)


def _case_vertex_ceiling_lhs(sym):
    a, b = _level_sides(sym, sym["delta"])
    return sym["mu"] * ((sym["q"] - sym["r"] + 1) * a - b)


def _case_vertex_ceiling_rhs(sym):
    r, s, mu, k, q, m = (sym[n] for n in ("r", "s", "mu", "k", "q", "m"))
    return mu * (k - q) + (r + 1) * (k * (-s - 1 - m) + m * r)


def _level_excess(sym):
    """m + q - r + 1 - a, negative exactly when thm22 holds."""
    return sym["m"] + sym["q"] - sym["r"] + 1 + sym["s"]


def _case_thm22_lhs(sym):
    r, s, mu, m, dd = (sym[n] for n in ("r", "s", "mu", "m", "D"))
    return mu * (-s * (dd - r * r - r) - m * dd)


_DELSARTE_LEVEL_CASES: tuple[IdentityCase, ...] = (
    IdentityCase(
        name="delsarte-level-completed-square",
        parameterization="delsarte-level",
        lhs=_case_completed_square_lhs,
        rhs=_case_completed_square_rhs,
        clearing=(),
    ),
    IdentityCase(
        name="delsarte-level-vertex-floor",
        parameterization="delsarte-level",
        lhs=_case_vertex_floor_lhs,
        rhs=lambda sym: sym["m"] * (sym["r"] + 1) * (sym["k"] - sym["r"]),
        clearing=(),
    ),
    IdentityCase(
        name="delsarte-level-vertex-ceiling",
        parameterization="delsarte-level",
        lhs=_case_vertex_ceiling_lhs,
        rhs=_case_vertex_ceiling_rhs,
        clearing=(("s", 1),),
    ),
    IdentityCase(
        name="delsarte-level-value",
        parameterization="delsarte-level",
        lhs=lambda sym: sym["mu"] * _cap(sym, sym["q"] - sym["r"], sym["delta"]),
        rhs=lambda sym: sym["m"] * sym["r"] * (sym["r"] + 1) * _level_excess(sym),
        clearing=(("s", 1),),
    ),
    IdentityCase(
        name="delsarte-level-thm22",
        parameterization="delsarte-level",
        lhs=_case_thm22_lhs,
        rhs=lambda sym: -sym["s"] ** 2 * sym["r"] * (sym["r"] + 1) * _level_excess(sym),
        clearing=(),
    ),
)


def cleared_sides(case: IdentityCase) -> tuple[MPoly, MPoly]:
    """Both sides after substitution and denominator clearing, as polynomials."""
    sym = _symbolic_symbols(case.parameterization)
    mult = MPoly.monomial(1, dict(case.clearing))
    sides = mult * case.lhs(sym), mult * case.rhs(sym)
    for side in sides:
        if any(e < 0 for exp in side.terms for e in exp):
            raise ResidualDivisionError(f"{case.name}: residual denominator in {side}")
    return sides


# The sides of the last proof of each case, keyed by the case, which a
# frozen dataclass hashes by all its fields.  Only verify_identity writes a
# fresh expansion; the term count, the degree and the mutation checks reuse it.
_SIDES: dict[IdentityCase, tuple[MPoly, MPoly]] = {}


def _proved_sides(case: IdentityCase) -> tuple[MPoly, MPoly]:
    """The stored sides of `case`, expanded and stored first if absent."""
    sides = _SIDES.get(case)
    if sides is None:
        sides = _SIDES[case] = cleared_sides(case)
    return sides


def verify_identity(case: IdentityCase) -> bool:
    """True iff the substituted, cleared difference is the zero polynomial.
    Always expands afresh, and stores the sides for the functions below."""
    lhs, rhs = _SIDES[case] = cleared_sides(case)
    return (lhs - rhs).is_zero()


def cleared_degree(case: IdentityCase) -> int:
    """Total degree of the cleared sides before they cancel against each other."""
    lhs, rhs = _proved_sides(case)
    return max(lhs.total_degree(), rhs.total_degree())


def verify_identity_mutated(case: IdentityCase, term_index: int) -> bool:
    """Re-run verification with the sign of one rhs term flipped; a correct
    identity must fail for every choice of term."""
    lhs, rhs = _proved_sides(case)
    exps = sorted(rhs.terms)
    if not 0 <= term_index < len(exps):
        raise IndexError(f"rhs of {case.name} has {len(exps)} terms")
    mutated = dict(rhs.terms)
    mutated[exps[term_index]] = -mutated[exps[term_index]]
    return (lhs - MPoly(mutated)).is_zero()


def rhs_term_count(case: IdentityCase) -> int:
    _, rhs = _proved_sides(case)
    return len(rhs.terms)


def random_point_crosscheck(case: IdentityCase, trials: int, seed: int = 0) -> bool:
    """Independent oracle: evaluate both sides at random rational points
    (avoiding the poles s = 0 and mu = 0) and compare exactly."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for _ in range(trials):
        sym = _numeric_symbols(case.parameterization, rng)
        if case.lhs(sym) != case.rhs(sym):
            return False
    return True
