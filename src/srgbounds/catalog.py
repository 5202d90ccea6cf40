"""Feasible-tuple enumeration, bound-comparison scans, and emitters.

Every bound is read off the spectrum, so candidates come from one
pure-integer generator at every level: a tuple is built from its restricted
eigenvalues r >= 0 > s = -a.  For r >= 1, a >= 2 and mu >= 1, k = mu + ra
and lam = mu + r - a, so mu divides ra(r+1)(a-1) and
v = k + 1 + k(r+1)(a-1)/mu; the families m*K_c, K_{m x a} and the
conference tuples with non-square v = 1 (mod 4) cover the rest.  The
generator drops the r >= 1, a >= 2 tuples whose multiplicity f is
fractional, so every candidate has a spectrum, and hands each r >= 1,
a >= 2 tuple on with its spectrum (r, -a, f, g).  It skips the Krein and
absolute bounds, and for the irrational conference tuples the sum of two
squares.  So the scan confirms a tuple that carries its spectrum with the
srg Krein and absolute-bound rule alone, and is_feasible confirms only
the irrational conference tuples; is_feasible stays the one definition
of feasibility and the oracle in the tests.  The report of a tuple that
carries its spectrum reads r and s from it (cab._report), the family
rows pass every level and are built in closed form (_family_report), and
full_report bounds only the irrational conference tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional

from .cab import BoundsReport, CabWitness, _report, cap_min_over_b, full_report
from .srg import (
    FeasibilityLevel,
    SrgParams,
    SrgType,
    _complement,
    _conference,
    _krein_absolute_failure,
    complement,
    is_feasible,
)

CSV_HEADER = "v,k,lambda,mu,type,cab,delsarte,gap,thm21,thm22,thm51"

# largest v_max a scan accepts, at every level: enumeration sorts about
# v log v candidates and the scan holds one report per feasible tuple, so a
# fresh CSV scan at v <= 10000 takes 3.5-4.6 s and 141-144 MB at every
# level on a 2-core machine, growing with v
SCAN_MAX_V = 10000

# Existence/sharpness notes for the parameter tuples where the clique
# adjacency bound beats the Delsarte bound on at most 150 vertices
# (curated from the literature; not computed here).
# exists: "+" some graph exists, "!" unique, "?" open.
# sharp: "Y"/"N" clique number attaining the bound, "?" open.
CURATED_NOTES: dict[tuple[int, int, int, int], dict[str, str]] = {
    (17, 8, 3, 4): {"exists": "!", "sharp": "Y"},
    (37, 18, 8, 9): {"exists": "+", "sharp": "Y"},
    (50, 7, 0, 1): {"exists": "!", "sharp": "Y"},
    (56, 10, 0, 2): {"exists": "!", "sharp": "Y"},
    (65, 32, 15, 16): {"exists": "?", "sharp": "?"},
    (77, 16, 0, 4): {"exists": "!", "sharp": "Y"},
    (88, 27, 6, 9): {"exists": "?", "sharp": "?"},
    (99, 14, 1, 2): {"exists": "?", "sharp": "Y"},
    (100, 22, 0, 6): {"exists": "!", "sharp": "Y"},
    (101, 50, 24, 25): {"exists": "+", "sharp": "?"},
    (105, 32, 4, 12): {"exists": "!", "sharp": "Y"},
    (111, 30, 5, 9): {"exists": "?", "sharp": "?"},
    (115, 18, 1, 3): {"exists": "?", "sharp": "Y"},
    (120, 42, 8, 18): {"exists": "!", "sharp": "Y"},
    (121, 36, 7, 12): {"exists": "?", "sharp": "?"},
    (133, 32, 6, 8): {"exists": "?", "sharp": "?"},
    (144, 39, 6, 12): {"exists": "+", "sharp": "Y"},
    (144, 52, 16, 20): {"exists": "?", "sharp": "?"},
    (145, 72, 35, 36): {"exists": "?", "sharp": "?"},
    (149, 74, 36, 37): {"exists": "+", "sharp": "?"},
}

# Parameter tuples passing all four feasibility levels but proven nonexistent
# by ad-hoc arguments (beyond any parameter-level condition implemented here).
# Stored as curated annotations; bound-comparison filters exclude them to
# match curated catalogs.
CURATED_NONEXISTENT: frozenset[tuple[int, int, int, int]] = frozenset(
    {
        (49, 16, 3, 6),
        (49, 32, 21, 20),  # complement of the above
    }
)


@dataclass(frozen=True)
class ScanConfig:
    v_max: int
    level: FeasibilityLevel = FeasibilityLevel.ABSOLUTE_BOUND
    filter: Optional[str] = None  # None | "gap" | "thm" | "thm51"
    pairs: bool = False

    def __post_init__(self):
        if self.v_max < 5:
            raise ValueError("v_max must be >= 5")
        if self.v_max > SCAN_MAX_V:
            raise ValueError(f"v_max={self.v_max} exceeds limit {SCAN_MAX_V}")
        if self.filter not in (None, "gap", "thm", "thm51"):
            raise ValueError(f"unknown filter {self.filter!r}")


def _eigenvalue_candidates(v_max: int) -> Iterator[tuple]:
    """Each tuple once, the tuples with v <= v_max that pass COUNTING and
    have a spectrum: integer restricted eigenvalues r >= 0 > s = -a, or the
    conference conditions with irrational eigenvalues, and integral
    multiplicities.  This is a superset of the tuples that pass
    INTEGRALITY.  Each comes as (v, k, lam, mu, spec): spec is the integer
    spectrum (r, -a, f, g) that _spectrum_or_failure would derive, built
    here for every r >= 1, a >= 2 tuple, and None for the families m*K_c
    and K_{m x a} and for the irrational conference tuples.  A tuple comes
    once, so sorting never compares two specs."""
    for c in range(2, v_max // 2 + 1):  # m*K_c: r = c-1, a = 1
        for v in range(2 * c, v_max + 1, c):
            yield v, c - 1, c - 2, 0, None
    for a in range(2, v_max // 2 + 1):  # K_{m x a}: r = 0
        for k in range(a, v_max - a + 1, a):
            yield k + a, k, k - a, k, None
    for v in range(5, v_max + 1, 4):
        if isqrt(v) ** 2 != v:
            yield v, (v - 1) // 2, (v - 5) // 4, (v - 1) // 4, None
    # r >= 1, a >= 2: the counting identity holds exactly when mu divides
    # n = ra(r+1)(a-1), and then v = base + mu + n/mu.  With room =
    # v_max - base, v <= v_max iff mu^2 - room*mu + n <= 0, so the smaller
    # divisor d <= sqrt(n) of a pair is at least (room - sqrt(room^2-4n))/2;
    # the isqrt start is that bound rounded down or one below it, and the
    # v check below stays.  With lam - mu = r - a, the multiplicity f =
    # ((v-1)(r+a) - 2k - (v-1)(lam-mu)) / 2(r+a) is ((v-1)a - k) / (r+a),
    # and when it is an integer so is g = v-1-f; both are positive, as
    # k <= v-2
    a = 2
    while _least_v(a, 1) <= v_max:
        r = 1
        while _least_v(a, r) <= v_max:
            n = r * a * (r + 1) * (a - 1)
            base = r * a + 1 + (r + 1) * (a - 1)
            room = v_max - base
            gap = room * room - 4 * n
            if gap >= 0:
                for d in range(max(1, (room - isqrt(gap)) // 2), isqrt(n) + 1):
                    if n % d == 0 and base + d + n // d <= v_max:
                        for mu in {d, n // d}:
                            if mu + r >= a:
                                v, k = base + mu + n // mu, mu + r * a
                                f, rem = divmod((v - 1) * a - k, r + a)
                                if not rem:
                                    yield v, k, mu + r - a, mu, (r, -a, f, v - 1 - f)
            r += 1
        a += 1


def _least_v(a: int, r: int) -> int:
    """A lower bound on v over mu >= 1 for eigenvalues r >= 1 and -a <= -2;
    it grows with both a and r."""
    n = r * a * (r + 1) * (a - 1)
    return r * a + 1 + (r + 1) * (a - 1) + 2 * isqrt(n)


def enumerate_feasible(v_max: int, level: FeasibilityLevel = FeasibilityLevel.ABSOLUTE_BOUND
                       ) -> Iterator[SrgParams]:
    """Yield the tuples with 5 <= v <= v_max that pass level and have a
    spectrum to bound, in lexicographic (v, k, lam, mu) order.  From
    INTEGRALITY up these are all the feasible tuples; at COUNTING they are
    the tuples for which spectrum() does not raise.  Disconnected (mu = 0)
    and complete-multipartite (mu = k) tuples are included; callers filter
    on the connectivity flags.

    is_feasible confirms only the irrational conference candidates.  The
    generator's mu = 0 and mu = k tuples are exactly m*K_c and K_{m x a},
    which pass every level (_family_report).  A candidate that carries its
    spectrum (r, -a, f, g), r >= 1, a >= 2, needs only the Krein and
    absolute-bound rule, as is_feasible would reach that rule with the same
    r, s, f, g:
    - it passes COUNTING by construction: mu >= 1, k = mu + ra > mu,
      0 <= lam = mu + r - a <= k - 1 as (r+1)(1-a) < 0, and
      v - k - 1 = k(r+1)(a-1)/mu = k(k-lam-1)/mu >= 2, which is the
      counting identity and gives k <= v - 2;
    - it passes INTEGRALITY: the discriminant (lam-mu)^2 + 4(k-mu) is
      (r+a)^2, so _spectrum_or_failure finds r and s = -a, and the
      generator kept only integral f; a type I+II tuple has
      v = 4mu + 1 = (r+a)^2, a square and so a sum of two squares;
    - it is primitive: mu > 0 and v - 2k + lam = (r+1)(a-1)ra/mu > 0, so
      neither exemption applies."""
    for p, _ in _confirmed(v_max, level):
        yield p


def _confirmed(v_max: int, level: FeasibilityLevel
               ) -> Iterator[tuple[SrgParams, Optional[tuple[int, int, int, int]]]]:
    """enumerate_feasible's tuples, in its order, each with the spectrum
    (r, -a, f, g) the generator handed on, or None for m*K_c, K_{m x a} and
    the irrational conference tuples."""
    new = tuple.__new__  # why: see the record comment in cab.cab
    for v, k, lam, mu, spec in sorted(_eigenvalue_candidates(v_max)):
        if v >= 5:
            if spec is not None:
                if _krein_absolute_failure(v, k, *spec, level) is None:
                    yield new(SrgParams, (v, k, lam, mu)), spec
            else:
                p = new(SrgParams, (v, k, lam, mu))
                if mu == 0 or mu == k or is_feasible(p, level)[0]:
                    yield p, None


@dataclass
class ScanStats:
    total: int = 0
    type1_total: int = 0
    type1_thm21: int = 0
    type2_total: int = 0
    type2_thm22: int = 0
    pairs_type2_total: int = 0
    pairs_type2_thm: int = 0

    @property
    def thm21_fraction(self) -> float:
        return self.type1_thm21 / self.type1_total if self.type1_total else 0.0

    @property
    def thm22_fraction(self) -> float:
        return self.type2_thm22 / self.type2_total if self.type2_total else 0.0

    @property
    def pair_fraction(self) -> float:
        return self.pairs_type2_thm / self.pairs_type2_total if self.pairs_type2_total else 0.0


def _keeps_pair_member(p: SrgParams) -> bool:
    """One member per complementary pair: True unless p is connected and
    co-connected with a complement tuple that sorts before it.  A pair with
    v = 2k+1 has k = k_bar, so the tuple order, not k < v/2, picks the member.
    complement cannot raise here: p is connected and co-connected."""
    return not (p.is_connected() and p.is_coconnected()) or p <= complement(p)


def _family_report(p: SrgParams) -> BoundsReport:
    """full_report(p), in closed form, for a generator tuple with mu = 0 or
    mu = k: (v, c-1, c-2, 0) with v = mc, the disjoint cliques m*K_c, or
    (ma, (m-1)a, (m-2)a, (m-1)a), the complete multipartite K_{m x a}, with
    m, c, a >= 2 and v >= 5.

    Both pass every feasibility level.  COUNTING holds by construction:
    k <= v-2, and (v-k-1)mu = k(k-lam-1), as 0 = 0 and (a-1)k = k(a-1).
    INTEGRALITY: the discriminant (lam-mu)^2 + 4(k-mu) is t^2 with t = c
    (m*K_c: r = c-1, s = -1) or t = a (K_{m x a}: r = 0, s = -a), and the
    nontrivial eigenvalue has integral multiplicity m-1 (f = m-1 for m*K_c,
    g = m-1 for K_{m x a}); neither is a conference tuple (that needs
    4mu = v-1 > 0, resp. 2k = v-1, i.e. (m-2)a = -1), so both are type II
    and the sum of two squares is not asked.  KREIN and ABSOLUTE_BOUND
    exempt both, as mu = 0, resp. v-2k+lam = 0.  The complement's
    lam_bar = v-2k+mu-2 is v-2c = (m-2)c >= 0, resp. a-2 >= 0.

    Bounds: cab() starts at y = lam+3 for m*K_c and at y = v/(v-k)+1 = m+1
    for K_{m x a} (_start_level), and both levels hold a negative value
    (C(0, lam+3) < 0, and C(m-1, m+1) = -2a), so the CAB is y-1 with the
    witness cap_min_over_b gives there, the probe cab() itself makes.
    Delsarte 1 + k/-s is c = lam+2, resp. m, again y-1.  thm21 needs an
    irrational spectrum and thm22 a fractional k/-s, which is c-1, resp.
    m-1, so both are False; thm51, k >= -s(lam+1), holds for m*K_c and, as
    (m-1)a >= a((m-2)a+1) iff (m-2)(a-1) <= 0, for K_{m x a} iff m = 2,
    i.e. y = 3."""
    v, k, lam, mu = p
    y = lam + 3 if mu == 0 else v // (v - k) + 1
    b, val = cap_min_over_b(v, k, lam, y)
    return tuple.__new__(BoundsReport, (p, SrgType.TYPE_II_ONLY, y - 1,
                                        tuple.__new__(CabWitness, (b, y, val)), y - 1,
                                        False, False, mu == 0 or y == 3))


def _reports(cfg: ScanConfig) -> Iterator[BoundsReport]:
    """The report of each enumerated tuple, in tuple order; it equals
    full_report(p) on every one.  A tuple that carries its spectrum goes to
    cab._report with the generator's r and s, and with the type the
    conference test gives (I+II when it holds, II otherwise), as
    _spectrum_or_failure would derive them (enumerate_feasible's
    docstring); the families m*K_c and K_{m x a} are built in closed form,
    and only the irrational conference tuples call full_report.  Every
    enumerated tuple has a spectrum, so every one is reported."""
    both, type2 = SrgType.BOTH, SrgType.TYPE_II_ONLY
    for p, spec in _confirmed(cfg.v_max, cfg.level):
        if spec is not None:
            yield _report(p, both if _conference(*p) else type2, spec[0], spec[1])
        elif p.mu == 0 or p.mu == p.k:
            yield _family_report(p)
        else:
            yield full_report(p)


def scan_compare(cfg: ScanConfig) -> tuple[list[BoundsReport], ScanStats]:
    """Full bounds report per feasible tuple, deterministic tuple order."""
    reports = list(_reports(cfg))

    # thm22 holds the thm22 tuples seen so far: the walk runs backwards, so a
    # complement that sorts after its pair's kept member is seen before that
    # member
    type1 = type1_thm21 = type2 = type2_thm22 = pairs = pairs_thm = 0
    thm22 = set()
    type_i = SrgType.TYPE_I_ONLY  # read once: an enum member lookup is a slow class attribute
    for p, tag, _, _, _, t21, t22, _ in reversed(reports):
        v, k, lam, mu = p
        if tag is type_i:
            type1 += 1
            type1_thm21 += t21
        elif mu > 0 and v - 2 * k + lam > 0:  # connected and co-connected
            type2 += 1
            type2_thm22 += t22
            if t22:
                thm22.add(p)
            # a pair counts once, at its kept member (_keeps_pair_member), and
            # is covered if either member triggers; p passed COUNTING, so
            # its complement needs no second validation
            q = _complement(v, k, lam, mu)
            if p <= q:
                pairs += 1
                pairs_thm += t22 or q in thm22
    stats = ScanStats(len(reports), type1, type1_thm21, type2, type2_thm22, pairs, pairs_thm)

    if cfg.pairs:
        reports = [r for r in reports if _keeps_pair_member(r.params)]

    if cfg.filter == "gap":
        # mirror curated catalogs: proven-nonexistent tuples are excluded
        reports = [r for r in reports
                   if r.gap > 0 and r.params not in CURATED_NONEXISTENT]
    elif cfg.filter == "thm":
        reports = [r for r in reports if r.thm21 or r.thm22]
    elif cfg.filter == "thm51":
        reports = [r for r in reports if r.thm51]
    return reports, stats


def conjecture_scan(cfg: ScanConfig) -> list[SrgParams]:
    """Tuples whose clique adjacency bound drops below floor(-k/s) even though
    lam + 1 > -k/s.  Both come exactly from the report: floor(-k/s) is
    delsarte - 1 and lam + 1 > -k/s is the negated thm51 predicate.  The bound
    comparison is at integer level (cab and floor(-k/s) are integers, and
    cab < -k/s as reals would already flag tuples where the two integers
    coincide).  The list is empty for v <= 2184 only: the first hit is
    (2185, 264, 23, 33) with CAB 11 and Delsarte 13, and there are 13 hits
    with v <= 3000.  Hits are reported, not asserted."""
    return [r.params for r in _reports(cfg) if r.cab < r.delsarte - 1 and not r.thm51]


# -- emitters ----------------------------------------------------------------


_CSV_BOOL = ("false", "true")
_TABLE_BOOL = (".", "Y")
_TYPE = {t: t.value for t in SrgType}


def emit(reports: list[BoundsReport], fmt: str) -> str:
    """Deterministic rendering; identical inputs give byte-identical output.
    Each format unpacks a report once; gap is delsarte - cab."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for (v, k, lam, mu), tag, c, _, d, t21, t22, t51 in reports:
            lines.append(f"{v},{k},{lam},{mu},{_TYPE[tag]},{c},{d},{d - c},"
                         f"{_CSV_BOOL[t21]},{_CSV_BOOL[t22]},{_CSV_BOOL[t51]}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = []
        for p, tag, c, _, d, t21, t22, t51 in reports:
            v, k, lam, mu = p
            row = {"v": v, "k": k, "lambda": lam, "mu": mu, "type": _TYPE[tag],
                   "cab": c, "delsarte": d, "gap": d - c,
                   "thm21": t21, "thm22": t22, "thm51": t51}
            if p in CURATED_NONEXISTENT:
                row["annotations"] = {"exists": "N"}
            elif p in CURATED_NOTES:
                row["annotations"] = CURATED_NOTES[p]
            rows.append(row)
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "table":
        header = f"{'params':>22}  {'type':>4}  {'cab':>3}  {'dels':>4}  {'gap':>3}  {'t21':>3}  {'t22':>3}  {'t51':>3}"
        lines = [header, "-" * len(header)]
        for (v, k, lam, mu), tag, c, _, d, t21, t22, t51 in reports:
            tup = f"({v},{k},{lam},{mu})"
            lines.append(
                f"{tup:>22}  {_TYPE[tag]:>4}  {c:>3}  {d:>4}  {d - c:>3}"
                f"  {_TABLE_BOOL[t21]:>3}  {_TABLE_BOOL[t22]:>3}  {_TABLE_BOOL[t51]:>3}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
