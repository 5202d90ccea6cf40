"""Feasible-tuple enumeration, bound-comparison scans, and emitters.

Every bound is read off the spectrum, so candidates come from pure-integer
generators at every level: a tuple is built from its restricted
eigenvalues r >= 0 > s = -a.  A scan's rows come from two places, each
with its proof in its docstring:
- the families m*K_c (mu = 0) and K_{m x a} (mu = k) pass every level and
  have CAB = Delsarte in closed form, so _family_reports builds their
  reports per v, in one pass over the divisor sieve (_divisors) and
  already in tuple order, without a sort, a confirmation or a call per
  row;
- _primitive_rows builds the other tuples, 0 < mu < k, confirms each at
  the level, types it, and returns the kept ones sorted, each as the
  arguments of cab._report; one divisor list of n = ra(r+1)(a-1) yields a
  tuple and its complement, so each complementary pair of restricted
  eigenvalues, (r, -a) and (a-1, -(r+1)), is walked once.
enumerate_feasible reads the tuples of both; scan_compare reports the
primitive rows and sorts the family reports in.  is_feasible stays the
one definition of feasibility and the oracle in the tests, and the scan
calls it, and full_report, only for the conference tuples with irrational
eigenvalues.  scan_compare leaves the scan statistics to a function it
returns, which only `scan --stats` calls: _scan_stats walks only the rows
with 0 < mu < k, as a family row is type II and never connected and
co-connected, so it counts in the total alone.  --pairs reads one rule per
row, _earlier_complement, which the statistics' pair count reads too.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from contextlib import contextmanager
from math import inf, isqrt
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .cab import BoundsReport, _report, full_report
from .srg import (
    FeasibilityLevel,
    SrgParams,
    SrgType,
    _complement,
    _conference,
    _krein_absolute_failure,
    is_feasible,
)

CSV_HEADER = "v,k,lambda,mu,type,cab,delsarte,gap,thm21,thm22,thm51"

# largest v_max a scan accepts, at every level: enumeration builds about
# v log v candidates and the scan holds one report per feasible tuple, so
# its time and memory grow with v
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


class ScanConfig(namedtuple("ScanConfig", "v_max level filter pairs")):
    """A scan's settings, checked when built.  A tuple, like the records,
    so that defining it needs no dataclasses."""

    __slots__ = ()

    def __new__(cls, v_max: int, level: FeasibilityLevel = FeasibilityLevel.ABSOLUTE_BOUND,
                filter: Optional[str] = None,  # None | "gap" | "thm" | "thm51"
                pairs: bool = False):
        if v_max < 5:
            raise ValueError("v_max must be >= 5")
        if v_max > SCAN_MAX_V:
            raise ValueError(f"v_max={v_max} exceeds limit {SCAN_MAX_V}")
        if filter not in (None, "gap", "thm", "thm51"):
            raise ValueError(f"unknown filter {filter!r}")
        return tuple.__new__(cls, (v_max, level, filter, pairs))


def _divisors(v_max: int) -> list[list[int]]:
    """The divisor sieve: entry v, 1 <= v <= v_max, lists the divisors d of
    v with 2 <= d <= v/2, ascending, and entry 0 is empty.  These are the
    m, c and a >= 2 of the family rows on v vertices, and d -> v/d reverses
    the list."""
    divisors = [[] for _ in range(v_max + 1)]
    for d in range(2, v_max // 2 + 1):
        for v in range(2 * d, v_max + 1, d):
            divisors[v].append(d)
    return divisors


def _family_reports(v_max: int) -> list[BoundsReport]:
    """full_report(p) with cab_witness None, for each family tuple p with
    5 <= v <= v_max, in tuple order, in closed form and in one pass over
    the divisor sieve: the disjoint cliques m*K_c = (v, c-1, c-2, 0) with
    v = mc, and the complete multipartite K_{m x a} = (ma, (m-1)a, (m-2)a,
    (m-1)a), with m, c, a >= 2, built per v from the divisors d of v with
    2 <= d <= v/2.  No sort is needed: for the same v, every m*K_c row has
    k = c-1 <= v/2-1 and every K_{m x a} row has k = v-a >= v/2, so the
    m*K_c rows come by c ascending, then the K_{m x a} rows by a descending.

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

    Bounds: cab() decides m*K_c at its step 1, y = lam+3 = c+1, as
    C(1, lam+2) = 2(v-lam-2) >= 0, and K_{m x a} at its step 2, y =
    v/(v-k)+1 = m+1 (at step 1 when m = 2), and both levels hold a negative
    value (C(0, lam+3) < 0, and C(m-1, m+1) = -2a), so the CAB is y-1; no
    scan output prints its witness.  Delsarte 1 + k/-s is c = lam+2,
    resp. m, again y-1.  thm21 needs an irrational spectrum and thm22 a
    fractional k/-s, which is c-1, resp. m-1, so both are False; thm51,
    k >= -s(lam+1), holds for m*K_c and, as (m-1)a >= a((m-2)a+1) iff
    (m-2)(a-1) <= 0, for K_{m x a} iff m = 2, i.e. y = 3."""
    # why tuple.__new__: see the record comment in cab._report
    new, report, params = tuple.__new__, BoundsReport, SrgParams
    type2 = SrgType.TYPE_II_ONLY
    out = []
    add = out.append
    divisors = _divisors(v_max)
    for v in range(5, v_max + 1):
        ds = divisors[v]
        for c in ds:
            add(new(report, (new(params, (v, c - 1, c - 2, 0)), type2, c, None, c,
                             False, False, True)))
        # a descending is m = v/a ascending: the list read both ways
        for m, a in zip(ds, reversed(ds)):
            k = v - a
            add(new(report, (new(params, (v, k, k - a, k)), type2, m, None, m,
                             False, False, m == 2)))
    return out


def _family_count(v_max: int) -> int:
    """len(_family_reports(v_max)), without the rows or the sieve: two rows
    per divisor d of v with 2 <= d <= v/2 and 5 <= v <= v_max.  Such a d
    divides the v_max//d - 1 values v in [2d, v_max], and (d, v) = (2, 4)
    is the one such pair with v < 5."""
    return 2 * (sum(v_max // d - 1 for d in range(2, v_max // 2 + 1)) - (v_max >= 4))


def _primitive_rows(v_max: int, level: FeasibilityLevel) -> list:
    """The tuples of enumerate_feasible with 0 < mu < k, sorted, each as
    the row (p, type, r, s) that cab._report takes: r and s = -a are the
    integer restricted eigenvalues, or None for a conference tuple with
    irrational eigenvalues.  With the family tuples of _family_reports
    they are every tuple that passes level and has a spectrum.  p is
    unique, so the rows are sorted by p alone.

    For r >= 1, a >= 2 and mu >= 1, k = mu + ra and lam = mu + r - a, so mu
    divides ra(r+1)(a-1) and v = k + 1 + k(r+1)(a-1)/mu; the conference
    tuples with non-square v = 1 (mod 4) cover the rest, and is_feasible
    confirms those.  A tuple built from (r, a, mu) with integral
    multiplicity f needs only the Krein and absolute-bound rule, as
    is_feasible would reach that rule with the same r, s, f, g:
    - it passes COUNTING by construction: mu >= 1, k = mu + ra > mu,
      0 <= lam = mu + r - a <= k - 1 as (r+1)(1-a) < 0, and
      v - k - 1 = k(r+1)(a-1)/mu = k(k-lam-1)/mu >= 2, which is the
      counting identity and gives k <= v - 2;
    - it passes INTEGRALITY: the discriminant (lam-mu)^2 + 4(k-mu) is
      (r+a)^2, so _spectrum_or_failure finds r and s = -a, f is integral
      and so is g = v-1-f; a type I+II tuple has v = 4mu + 1 = (r+a)^2, a
      square and so a sum of two squares;
    - it is primitive: mu > 0 and v - 2k + lam = (r+1)(a-1)ra/mu > 0, so
      neither exemption applies.
    Its type is I+II when the conference test holds and II otherwise, as
    _spectrum_or_failure gives it.

    One divisor list serves a complementary pair.  The complement of the
    tuple built from (r, a, mu) has eigenvalues a-1 and -(r+1), so it is
    the tuple built from the partner (a-1, r+1, n/mu), and the map is its
    own inverse.  n = ra(r+1)(a-1) and base = ra + 1 + (r+1)(a-1) are
    symmetric under it, so both members have the same v = base + mu + n/mu,
    the same mu window and the same loop stops, k' = v-1-k, and the
    multiplicities swap: f' = g, so f + g = v-1 decides both.  The (r, a)
    loop walks r <= a-1 only and emits the partner when r < a-1; r = a-1 is
    its own partner.  The partner's lam' = n/mu + a - r - 2 is the tuple's
    lam_bar = v - 2k + mu - 2, which is at least n/mu > 0 when r < a-1, so
    only the walked member needs its lam >= 0 test, mu + r >= a.  Each
    member keeps its own Krein, absolute-bound and conference checks, so
    the rows are those of a walk over every (r, a), including the rows with
    lam_bar < 0 that ROADMAP item 1a removes: they are the partners whose
    walked member has lam < 0, so here that fix is one condition, emit a
    pair only when mu + r >= a."""
    # why tuple.__new__: see the record comment in cab._report
    new, params = tuple.__new__, SrgParams
    both, type2, type1 = SrgType.BOTH, SrgType.TYPE_II_ONLY, SrgType.TYPE_I_ONLY
    rows = []
    add = rows.append
    for v in range(5, v_max + 1, 4):
        if isqrt(v) ** 2 != v:
            p = new(params, (v, (v - 1) // 2, (v - 5) // 4, (v - 1) // 4))
            if is_feasible(p, level)[0]:
                add((p, type1, None, None))
    # r >= 1, a >= 2: the counting identity holds exactly when mu divides
    # n = ra(r+1)(a-1), and then v = base + mu + n/mu >= base + 2 isqrt(n)
    # by AM-GM.  base and n grow with r and with a, and so does that bound:
    # the r-loop walks r <= a-1 and stops at the first r where it passes
    # v_max, and the a-loop once the r-loop stops at r = 1.  With room =
    # v_max - base, v <= v_max iff mu^2 - room*mu + n <= 0, so the smaller
    # divisor d <= sqrt(n) of a pair is at least (room - sqrt(room^2-4n))/2;
    # the isqrt start is that bound rounded down or one below it, and the v
    # check below stays.  With lam - mu = r - a, the multiplicity f =
    # ((v-1)(r+a) - 2k - (v-1)(lam-mu)) / 2(r+a) is ((v-1)a - k) / (r+a),
    # and when it is an integer so is g = v-1-f; both are positive, as
    # k <= v-2.  The partner (a-1, r+1, nu = n/mu) of (r, a, mu), emitted
    # here when r < a-1, has f' = ((v-1)(r+1) - k')/(r+a) = g, so the same
    # divmod decides it; its mu' is nu, and its lam' = nu + a - r - 2 >= nu
    # needs no test there
    a, r = 1, 2
    while r > 1:
        a, r = a + 1, 1
        while r < a:
            n = r * a * (r + 1) * (a - 1)
            base = r * a + 1 + (r + 1) * (a - 1)
            root = isqrt(n)
            if base + 2 * root > v_max:
                break
            room = v_max - base
            gap = room * room - 4 * n
            if gap >= 0:
                paired = r < a - 1
                for d in range(max(1, (room - isqrt(gap)) // 2), root + 1):
                    if n % d == 0 and base + d + n // d <= v_max:
                        for mu in {d, n // d}:
                            nu = n // mu
                            v, k = base + mu + nu, mu + r * a
                            f, rem = divmod((v - 1) * a - k, r + a)
                            if rem:
                                continue
                            # by the docstring's proof, the one rule left to check
                            if mu + r >= a and _krein_absolute_failure(
                                    v, k, r, -a, f, v - 1 - f, level) is None:
                                lam = mu + r - a
                                add((new(params, (v, k, lam, mu)),
                                     both if _conference(v, k, lam, mu) else type2, r, -a))
                            if paired and _krein_absolute_failure(
                                    v, v - 1 - k, a - 1, -r - 1, v - 1 - f, f, level) is None:
                                k, lam = v - 1 - k, nu + a - r - 2
                                add((new(params, (v, k, lam, nu)),
                                     both if _conference(v, k, lam, nu) else type2, a - 1, -r - 1))
            r += 1
    rows.sort(key=itemgetter(0))
    return rows


def enumerate_feasible(v_max: int, level: FeasibilityLevel = FeasibilityLevel.ABSOLUTE_BOUND
                       ) -> Iterator[SrgParams]:
    """Yield the tuples with 5 <= v <= v_max that pass level and have a
    spectrum to bound, in lexicographic (v, k, lam, mu) order.  From
    INTEGRALITY up these are all the feasible tuples; at COUNTING they are
    the tuples for which spectrum() does not raise.  Disconnected (mu = 0)
    and complete-multipartite (mu = k) tuples are included; callers filter
    on the connectivity flags.  These are the params of _family_reports
    and the tuples of _primitive_rows, sorted together."""
    ScanConfig(v_max=v_max, level=level)  # a scan's limits: each family tuple comes with its report
    out = [r.params for r in _family_reports(v_max)]
    out += [row[0] for row in _primitive_rows(v_max, level)]
    out.sort()
    yield from out


class ScanStats(NamedTuple):
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


def _reports(cfg: ScanConfig) -> Iterator[BoundsReport]:
    """The report of each tuple of _primitive_rows, in tuple order; it
    equals full_report(p) on every one.  A row with a spectrum goes to
    cab._report as it stands, and only the irrational conference rows call
    full_report.  The family rows are left to _family_reports.  A
    generator, so conjecture_scan holds no report it drops."""
    return (full_report(p) if r is None else _report(p, tag, r, s)
            for p, tag, r, s in _primitive_rows(cfg.v_max, cfg.level))


def _earlier_complement(p: SrgParams) -> Optional[SrgParams]:
    """The complement of p, a connected and co-connected tuple, when it
    sorts before p, else None.  The one rule of a complementary pair:
    --pairs keeps the member that sorts first and leaves p out when this is
    not None, and ScanStats counts the pair at that member (v = 2k+1 gives
    k = k_bar, so that member need not be the one with k < v/2).  p passed
    COUNTING, so its complement is built unvalidated."""
    q = _complement(*p)
    return q if q < p else None


def _scan_stats(primitive: list[BoundsReport], v_max: int) -> ScanStats:
    """The ScanStats of a scan whose primitive reports, unfiltered and in
    tuple order, are primitive.  Only those rows are walked: a family row
    is type II and never connected and co-connected, so it counts in total
    alone, and _family_count counts those rows without building them.
    A primitive row is connected and co-connected: mu > 0 and v-2k+lam > 0
    (_primitive_rows).  uncovered holds each kept pair member seen so far
    whose pair no thm22 row covers yet: the walk runs forwards, and a
    dropped member sorts after its complement, the kept one."""
    type1 = type1_thm21 = type2 = type2_thm22 = pairs = pairs_thm = 0
    uncovered = set()
    for p, tag, _, _, _, t21, t22, _ in primitive:
        if tag is SrgType.TYPE_I_ONLY:
            type1 += 1
            type1_thm21 += t21
        else:
            type2 += 1
            type2_thm22 += t22
            q = _earlier_complement(p)
            if q is None:
                pairs += 1
                if t22:
                    pairs_thm += 1
                else:
                    uncovered.add(p)
            elif t22 and q in uncovered:
                uncovered.remove(q)
                pairs_thm += 1
    total = len(primitive) + _family_count(v_max)
    return ScanStats(total, type1, type1_thm21, type2, type2_thm22, pairs, pairs_thm)


@contextmanager
def _gc_paused():
    """Pause Python's cyclic garbage collector for the with block, and
    enable it after only if it was enabled before.  A scan builds acyclic
    tuples, about 15,000 at v <= 500, and every 700 of them would start a
    collection.  Only the bodies of scan_compare and conjecture_scan run
    paused: enumerate_feasible never yields inside this block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def scan_compare(cfg: ScanConfig) -> tuple[list[BoundsReport], Callable[[], ScanStats]]:
    """A bounds report per feasible tuple, in tuple order: full_report(p)
    on each primitive row, and on each family row (_family_reports) the
    same report with cab_witness None, as no scan output prints it; and a
    function of no arguments that returns the scan's ScanStats.  The stats
    count every feasible tuple, whatever the filter and --pairs keep, and
    are computed only when that function is called: `scan --stats` prints
    them, and no other output reads them."""
    with _gc_paused():
        primitive = list(_reports(cfg))

        # a family row is never connected and co-connected, so --pairs keeps
        # it, and every primitive row is, so the pair rule alone decides it
        reports = ([r for r in primitive if _earlier_complement(r[0]) is None]
                   if cfg.pairs else primitive)
        # a family row has gap 0 and neither thm21 nor thm22 (_family_reports),
        # so --filter gap and --filter thm would drop each one: build them only
        # for the other two
        if cfg.filter in (None, "thm51"):
            # a new list, not +=: the stats function reads primitive as it stands
            reports = reports + _family_reports(cfg.v_max)
            reports.sort(key=itemgetter(0))  # p is unique: compare the params alone

        if cfg.filter == "gap":
            # mirror curated catalogs: proven-nonexistent tuples are excluded
            reports = [r for r in reports
                       if r.gap > 0 and r.params not in CURATED_NONEXISTENT]
        elif cfg.filter == "thm":
            reports = [r for r in reports if r.thm21 or r.thm22]
        elif cfg.filter == "thm51":
            reports = [r for r in reports if r.thm51]
        return reports, lambda: _scan_stats(primitive, cfg.v_max)


def conjecture_scan(cfg: ScanConfig) -> list[SrgParams]:
    """Tuples whose clique adjacency bound drops below floor(-k/s) even though
    lam + 1 > -k/s.  Both come exactly from the report: floor(-k/s) is
    delsarte - 1 and lam + 1 > -k/s is the negated thm51 predicate.  The bound
    comparison is at integer level (cab and floor(-k/s) are integers, and
    cab < -k/s as reals would already flag tuples where the two integers
    coincide).  The list is empty for v <= 2184 only: the first hit is
    (2185, 264, 23, 33) with CAB 11 and Delsarte 13, and there are 13 hits
    with v <= 3000.  Hits are reported, not asserted.  Only the rows with
    0 < mu < k are read: a family row has cab = delsarte (_family_reports),
    so it is never a hit."""
    with _gc_paused():
        return [r.params for r in _reports(cfg) if r.cab < r.delsarte - 1 and not r.thm51]


# -- emitters ----------------------------------------------------------------


# the three flag columns thm21, thm22, thm51 of each format, read as
# flags[t21][t22][t51]: one lookup per row in place of three
_CSV_FLAGS = tuple(tuple(tuple(f"{x},{y},{z}" for z in ("false", "true"))
                         for y in ("false", "true")) for x in ("false", "true"))
_TABLE_FLAGS = tuple(tuple(tuple(f"{x:>3}  {y:>3}  {z:>3}" for z in ".Y")
                           for y in ".Y") for x in ".Y")
_TABLE_HEADER = (f"{'params':>22}  {'type':>4}  {'cab':>3}  {'dels':>4}  {'gap':>3}"
                 f"  {'t21':>3}  {'t22':>3}  {'t51':>3}")


def _int_strings(top: int, spec: str) -> list[str]:
    """format(i, spec) at index i, for 0 <= i <= top."""
    return [format(i, spec) for i in range(top + 1)]


class _Formatted:
    """format(i, spec) for every int i, read as _int_strings is read."""

    __slots__ = ("spec",)

    def __init__(self, spec: str):
        self.spec = spec

    def __getitem__(self, i: int) -> str:
        return format(i, self.spec)


def _csv_lines(reports: list[BoundsReport], strings, lo) -> list[str]:
    """The csv rows, each printed integer x as strings("")[x], leaving out
    every row that prints an integer below lo."""
    s, flags = strings(""), _CSV_FLAGS
    return [f"{s[v]},{s[k]},{s[lam]},{s[mu]},{tag._value_},{s[c]},{s[d]},{s[d - c]},"
            f"{flags[t21][t22][t51]}"
            for (v, k, lam, mu), tag, c, _, d, t21, t22, t51 in reports
            if v >= lo and k >= lo and lam >= lo and mu >= lo and c >= lo and d - c >= lo]


def _table_lines(reports: list[BoundsReport], strings, lo) -> list[str]:
    """The table rows, as _csv_lines gives the csv rows; the columns are
    right-aligned to their widths by the specs ">3" and ">4"."""
    s, s3, s4, flags = strings(""), strings(">3"), strings(">4"), _TABLE_FLAGS
    return [f"{f'({s[v]},{s[k]},{s[lam]},{s[mu]})':>22}  {tag._value_:>4}  {s3[c]}  {s4[d]}"
            f"  {s3[d - c]}  {flags[t21][t22][t51]}"
            for (v, k, lam, mu), tag, c, _, d, t21, t22, t51 in reports
            if v >= lo and k >= lo and lam >= lo and mu >= lo and c >= lo and d - c >= lo]


def emit(reports: list[BoundsReport], fmt: str) -> str:
    """Deterministic rendering; identical inputs give byte-identical output.
    Each format unpacks a report once; gap is delsarte - cab.  The type is
    read as tag._value_, the attribute behind SrgType.value: hashing an Enum
    member, or reading .value, runs Python code per row.

    csv and table print each integer x as s[x], from a list s of the
    strings of [0, top], built once per call; top is the v of the last
    report.  On a scan's rows, which come in tuple order, that is the
    largest v, and every integer that a package-built report prints lies
    in [0, v]:
    * 0 <= lam, mu <= k < v, by the counting rule every report's tuple passed;
    * 2 <= cab <= delsarte <= v: the CAB is the least c >= 2 of its walk,
      _report asserts cab <= delsarte, and delsarte is 1 + floor(k/-s)
      <= 1 + k, or isqrt(v) on type I rows;
    * gap = delsarte - cab >= 0, by that assertion; it is 0 on family rows.
    A scan's top is at most SCAN_MAX_V, which bounds the lists.  Any other
    int still prints as format() prints it, never as another number: a list
    reads a negative index from its end, so the rows holding a negative
    integer are left out of the lists' rendering, and an integer past top
    raises IndexError; either way the whole call is rendered again with
    format(), as is a call whose top passes SCAN_MAX_V."""
    if fmt in ("csv", "table"):
        if fmt == "csv":
            head, lines_of = [CSV_HEADER], _csv_lines
        else:
            head, lines_of = [_TABLE_HEADER, "-" * len(_TABLE_HEADER)], _table_lines
        top = reports[-1][0][0] if reports else 0
        lines = None
        if top <= SCAN_MAX_V:
            try:
                lines = lines_of(reports, lambda spec: _int_strings(top, spec), 0)
            except IndexError:
                pass  # an integer past top
        if lines is None or len(lines) < len(reports):
            lines = lines_of(reports, _Formatted, -inf)
        return "\n".join(head + lines) + "\n"
    if fmt == "json":
        rows = []
        for p, tag, c, _, d, t21, t22, t51 in reports:
            v, k, lam, mu = p
            row = {"v": v, "k": k, "lambda": lam, "mu": mu, "type": tag._value_,
                   "cab": c, "delsarte": d, "gap": d - c,
                   "thm21": t21, "thm22": t22, "thm51": t51}
            if p in CURATED_NONEXISTENT:
                row["annotations"] = {"exists": "N"}
            elif p in CURATED_NOTES:
                row["annotations"] = CURATED_NOTES[p]
            rows.append(row)
        import json

        return json.dumps(rows, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
