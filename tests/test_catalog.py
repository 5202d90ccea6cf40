import gc
import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

import srgbounds.catalog as catalog_module
from srgbounds.cab import BoundsReport, CabWitness, _report, cap_min_over_b, full_report
from srgbounds.catalog import (
    CSV_HEADER,
    CURATED_NONEXISTENT,
    CURATED_NOTES,
    SCAN_MAX_V,
    ScanConfig,
    ScanStats,
    _family_count,
    _family_reports,
    _primitive_rows,
    conjecture_scan,
    emit,
    enumerate_feasible,
    scan_compare,
)
from srgbounds.srg import (
    FeasibilityLevel,
    InfeasibleParamsError,
    SrgParams,
    SrgType,
    _complement,
    _krein_absolute_failure,
    _spectrum_or_failure,
    complement,
    is_feasible,
    spectrum,
)


def key(p: SrgParams) -> tuple[int, int, int, int]:
    return p.v, p.k, p.lam, p.mu


def enumerate_feasible_bruteforce(v_max: int,
                                  level: FeasibilityLevel = FeasibilityLevel.ABSOLUTE_BOUND,
                                  v_min: int = 5):
    """The oracle for enumerate_feasible: triple loop plus the exact
    feasibility check."""
    for v in range(v_min, v_max + 1):
        for k in range(1, v - 1):
            for lam in range(0, k):
                num = k * (k - lam - 1)
                den = v - k - 1
                if num % den:
                    continue
                p = SrgParams(v, k, lam, num // den)
                ok, _ = is_feasible(p, level)
                if ok:
                    yield p


def has_spectrum(p: SrgParams) -> bool:
    """spectrum(p) does not raise."""
    try:
        spectrum(p)
    except InfeasibleParamsError:
        return False
    return True


def scan_stats_reference(reports) -> ScanStats:
    """The oracle for scan_compare's one-pass stats: a dict of every
    tuple's thm22, then a second pass that looks each kept pair member's
    complement up in it."""
    counts = dict.fromkeys(ScanStats._fields, 0)
    counts["total"] = len(reports)
    thm22_by_params = {r.params: r.thm22 for r in reports}
    for r in reports:
        p = r.params
        if r.type_tag is SrgType.TYPE_I_ONLY:
            counts["type1_total"] += 1
            counts["type1_thm21"] += r.thm21
        elif p.is_connected() and p.is_coconnected():
            counts["type2_total"] += 1
            counts["type2_thm22"] += r.thm22
            if p <= complement(p):
                counts["pairs_type2_total"] += 1
                counts["pairs_type2_thm"] += r.thm22 or thm22_by_params.get(complement(p), False)
    return ScanStats(**counts)


def keeps_pair_member(p: SrgParams) -> bool:
    """The oracle for --pairs: one member per complementary pair, so True
    unless p is connected and co-connected with a complement tuple that
    sorts before it."""
    return not (p.is_connected() and p.is_coconnected()) or p <= complement(p)


def primitive_candidates_trial_division(v_max: int):
    """The oracle for the generator's r >= 1, a >= 2 tuples: every d up to
    sqrt(n) is trial-divided, with no bound on where the mu interval
    starts.  The loops stop by AM-GM alone: mu + n/mu >= 2 sqrt(n), so
    v >= base + 2 isqrt(n), which grows with r and with a."""
    a = 2
    while True:
        r = 1
        while True:
            n = r * a * (r + 1) * (a - 1)
            base = r * a + 1 + (r + 1) * (a - 1)
            if base + 2 * isqrt(n) > v_max:
                break
            for d in range(1, isqrt(n) + 1):
                if n % d == 0 and base + d + n // d <= v_max:
                    for mu in {d, n // d}:
                        if mu + r >= a:
                            v, k = base + mu + n // mu, mu + r * a
                            if ((v - 1) * a - k) % (r + a) == 0:
                                yield v, k, mu + r - a, mu
            r += 1
        if r == 1:
            return
        a += 1


class TestEnumeration:
    def test_small_v_catalog(self):
        # every tuple below is realized by a known graph: unions of cliques
        # m*K_n, complete multipartite graphs, C5, Paley(9), Petersen
        got = [(p.v, p.k, p.lam, p.mu) for p in enumerate_feasible(10)]
        expected = [
            (5, 2, 0, 1),  # C5
            (6, 1, 0, 0),  # 3*K2
            (6, 2, 1, 0),  # 2*K3
            (6, 3, 0, 3),  # K_{3,3}
            (6, 4, 2, 4),  # K_{3x2}
            (8, 1, 0, 0),  # 4*K2
            (8, 3, 2, 0),  # 2*K4
            (8, 4, 0, 4),  # K_{4,4}
            (8, 6, 4, 6),  # K_{4x2}
            (9, 2, 1, 0),  # 3*K3
            (9, 4, 1, 2),  # Paley(9)
            (9, 6, 3, 6),  # K_{3x3}
            (10, 1, 0, 0),  # 5*K2
            (10, 3, 0, 1),  # Petersen
            (10, 4, 3, 0),  # 2*K5
            (10, 5, 0, 5),  # K_{5,5}
            (10, 6, 3, 4),  # Petersen complement
            (10, 8, 6, 8),  # K_{5x2}
        ]
        assert got == expected

    @pytest.mark.parametrize("level", list(FeasibilityLevel))
    def test_matches_bruteforce_oracle(self, level):
        # the enumeration keeps only the tuples with a spectrum to bound,
        # which from INTEGRALITY up is every feasible tuple
        fast = list(enumerate_feasible(150, level))
        slow = [p for p in enumerate_feasible_bruteforce(150, level) if has_spectrum(p)]
        assert fast == slow

    @pytest.mark.parametrize("v_max", [4, SCAN_MAX_V + 1])
    def test_scan_limits(self, v_max):
        # each family tuple comes with its report, so the scan's limits hold
        with pytest.raises(ValueError):
            next(enumerate_feasible(v_max))

    def test_lexicographic_order(self):
        tuples = [(p.v, p.k, p.lam, p.mu) for p in enumerate_feasible(60)]
        assert tuples == sorted(tuples)

    def test_deterministic(self):
        assert list(enumerate_feasible(50)) == list(enumerate_feasible(50))

    def test_levels_nested(self):
        # higher levels only remove tuples
        prev = None
        for level in FeasibilityLevel:
            cur = set(enumerate_feasible(60, level))
            if prev is not None:
                assert cur <= prev
            prev = cur


@pytest.fixture(scope="module")
def rows_10000():
    """_primitive_rows at v <= 10^4 and COUNTING, where every candidate
    is kept."""
    return _primitive_rows(10000, FeasibilityLevel.COUNTING)


class TestPrimitiveRows:
    """_primitive_rows confirms a tuple built from integer eigenvalues with
    the Krein and absolute-bound rule alone, and types it with the
    conference test; is_feasible, _spectrum_or_failure and full_report stay
    the oracles."""

    @pytest.fixture(scope="class")
    def rows_3000(self):
        return {level: _primitive_rows(3000, level) for level in FeasibilityLevel}

    def test_spectrum_and_verdict_match_is_feasible(self, rows_3000):
        # each row carries the type and the r and s that _spectrum_or_failure
        # derives; every candidate passes COUNTING, and a higher level keeps
        # exactly the rows the is_feasible oracle accepts.  Every row is
        # connected and co-connected, as scan_compare's stats take for granted
        counting = rows_3000[FeasibilityLevel.COUNTING]
        for p, *spec in counting:
            assert type(p) is SrgParams and 0 < p.mu < p.k, p
            assert p.v - 2 * p.k + p.lam > 0, p
            assert tuple(spec) == _spectrum_or_failure(p)[:3], p
            assert is_feasible(p, FeasibilityLevel.COUNTING) == (True, None), p
        assert strictly_increasing([row[0] for row in counting])
        assert len(counting) == 12182
        assert sum(row[2] is not None for row in counting) == 11459
        for level, rows in rows_3000.items():
            assert rows == [row for row in counting if is_feasible(row[0], level)[0]], level
        kept = rows_3000[FeasibilityLevel.ABSOLUTE_BOUND]
        assert Counter(row[1] for row in kept if row[2] is not None) == {
            SrgType.BOTH: 26, SrgType.TYPE_II_ONLY: 10307}

    def test_scan_report_matches_full_report(self, rows_3000):
        # _report(*row) is full_report(p) on every row, the irrational
        # conference rows included, and the scan reports the rows in their
        # order; full_report, which derives the spectrum again, stays the
        # oracle.  A level's rows are COUNTING rows (the test above), so
        # the COUNTING rows cover every level
        oracle = {}
        for row in rows_3000[FeasibilityLevel.COUNTING]:
            report = oracle[row[0]] = _report(*row)
            assert report == full_report(row[0]), row
            assert (type(report), type(report.params), type(report.cab_witness)) == (
                BoundsReport, SrgParams, CabWitness), row
        for level, rows in rows_3000.items():
            reports, _ = scan_compare(ScanConfig(v_max=3000, level=level))
            assert [r for r in reports if 0 < r.params.mu < r.params.k] == [
                oracle[row[0]] for row in rows], level

    def test_krein_rule_matches_krein_parameters(self, rows_3000):
        # an independent form of the Krein conditions: the Krein parameters
        # q^1_11 and q^2_22 are f^2/v resp. g^2/v times 1 + r^3/k^2 -
        # (r+1)^3/l^2 resp. 1 + s^3/k^2 - (s+1)^3/l^2, with l = v-k-1, and
        # must be nonnegative
        fails = Counter()
        for p, _, r, s in rows_3000[FeasibilityLevel.COUNTING]:
            if r is None:
                continue
            v, k, _, _ = p
            f, g = _spectrum_or_failure(p)[3:]
            l = v - k - 1
            if 1 + Fraction(r ** 3, k * k) < Fraction((r + 1) ** 3, l * l):
                want = "Krein 1"
            elif 1 + Fraction(s ** 3, k * k) < Fraction((s + 1) ** 3, l * l):
                want = "Krein 2"
            else:
                want = None
            assert _krein_absolute_failure(v, k, r, s, f, g, FeasibilityLevel.KREIN) == want
            fails[want] += 1
        assert fails == {None: 10553, "Krein 1": 671, "Krein 2": 235}

    def test_complement_listed_exactly_when_lambda_bar_nonnegative(self, rows_3000):
        # the pair loop's invariant: (r, a, mu) and (a-1, r+1, n/mu) are a
        # tuple and its complement, so a row's complement is listed exactly
        # when lam_bar >= 0, with the same type and the eigenvalues -s-1 and
        # -r-1.  A walked row (r < a-1) has lam_bar >= n/mu > 0, so each row
        # with lam_bar < 0 is a partner, r >= a.  Those rows are not
        # feasible (ROADMAP item 1a), and fixing that makes these counts 0
        wrong = {}
        for level, rows in rows_3000.items():
            listed = {row[0]: row for row in rows}
            wrong[level] = 0
            for p, tag, r, s in rows:
                if r is None:
                    continue
                v, k, lam, mu = p
                q = _complement(v, k, lam, mu)
                if v - 2 * k + mu - 2 >= 0:
                    assert listed.get(q) == (q, tag, -s - 1, -r - 1), (level, p)
                else:
                    assert q not in listed and r >= -s, (level, p)
                    wrong[level] += 1
        assert wrong == {FeasibilityLevel.COUNTING: 495, FeasibilityLevel.INTEGRALITY: 495,
                         FeasibilityLevel.KREIN: 59, FeasibilityLevel.ABSOLUTE_BOUND: 59}

    # each v_max below is the v = base + 2 isqrt(n) of a row, the least v of
    # its (r, a = -s), named by how the pair loop emits it: "walked" has
    # r < a-1, "partner" has r >= a and comes from the walked (a-1, r+1),
    # and "diagonal" has r = a-1 and is its own partner
    BOUNDARY_ROWS = {9: {"diagonal"}, 25: {"diagonal"}, 49: {"diagonal"},
                     50: {"walked", "partner"}, 81: {"diagonal"},
                     243: {"walked", "partner"}, 289: {"diagonal", "walked", "partner"},
                     676: {"walked", "partner"}, 1445: {"walked", "partner"},
                     1682: {"walked", "partner"}, 2401: {"diagonal", "walked", "partner"}}

    def test_mu_interval_matches_trial_division(self, rows_10000):
        got = [row[0] for row in rows_10000 if row[2] is not None]
        assert got == sorted(primitive_candidates_trial_division(10000))
        # the loops' stop at its boundary, for each kind of boundary row
        for v_max, kinds in self.BOUNDARY_ROWS.items():
            rows = [row for row in _primitive_rows(v_max, FeasibilityLevel.COUNTING)
                    if row[2] is not None]
            assert [row[0] for row in rows] == sorted(
                primitive_candidates_trial_division(v_max)), v_max
            assert {"diagonal" if r == -s - 1 else "partner" if r >= -s else "walked"
                    for p, _, r, s in rows
                    if p.v == v_max == 1 - r * s - (r + 1) * (s + 1)
                    + 2 * isqrt(r * s * (r + 1) * (s + 1))} == kinds, v_max

    def test_each_tuple_once(self, rows_10000):
        fams = family_construction(10000)
        params = [row[0] for row in rows_10000]
        assert len(params) + len(fams) == 191216
        assert strictly_increasing(params)
        assert fams.keys().isdisjoint(params)


class TestPredicatesExactTo10000:
    """The predicates decide the improvement exactly on every primitive row
    at v <= 10^4, as tests/test_cab.py::TestPredicatesExact pins at
    v <= 3000; a family row has CAB = Delsarte and no predicate
    (_family_reports)."""

    def test_improved_exactly_when_cab_beats_delsarte(self, rows_10000):
        reports = {row[0]: _report(*row) for row in rows_10000}
        assert len(reports) == 43880
        assert [p for p, r in reports.items()
                if (r.improved is not None) != (r.cab < r.delsarte)] == []
        # so it holds on the rows a default scan keeps, which is_feasible picks
        kept = [r for p, r in reports.items() if is_feasible(p, FeasibilityLevel.ABSOLUTE_BOUND)[0]]
        assert len(kept) == 39220
        assert {r.cab < r.delsarte for r in kept} == {False, True}


def family_construction(v_max: int) -> dict[SrgParams, int]:
    """m*K_c and K_{m x a} with 5 <= v <= v_max, built from m, c, a, each
    with the complement's lambda: v-2c, resp. a-2."""
    lam_bar = {}
    for x in range(2, v_max // 2 + 1):
        for m in range(2, v_max // x + 1):
            if m * x >= 5:
                lam_bar[SrgParams(m * x, x - 1, x - 2, 0)] = m * x - 2 * x
                lam_bar[SrgParams(m * x, (m - 1) * x, (m - 2) * x, (m - 1) * x)] = x - 2
    return lam_bar


def family_report(p: SrgParams) -> BoundsReport:
    """The reference for catalog._family_reports, one row at a time:
    full_report(p) for a family tuple, read off the closed form that
    _family_reports proves; the builder's row is this one with cab_witness
    None.  The witness comes from cap_min_over_b at the one level cab()
    visits, y = lam+3 for m*K_c and y = v/(v-k)+1 for
    K_{m x a}."""
    v, k, lam, mu = p
    y = lam + 3 if mu == 0 else v // (v - k) + 1
    b, val = cap_min_over_b(v, k, lam, y)
    return BoundsReport(p, SrgType.TYPE_II_ONLY, y - 1, CabWitness(b, y, val), y - 1,
                        False, False, mu == 0 or y == 3)


def strictly_increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


class TestFamilyReport:
    def test_families_feasible_and_reported_exactly(self):
        # the scan builds these rows without is_feasible or full_report,
        # which stay the oracles
        v_max = 3000
        lam_bar = family_construction(v_max)
        for p in lam_bar:
            for level in FeasibilityLevel:
                assert is_feasible(p, level) == (True, None), (p, level)
            assert p.v - 2 * p.k + p.mu - 2 == lam_bar[p] >= 0, p
            assert family_report(p) == full_report(p), p

    def test_family_stream_in_tuple_order(self):
        # the scan merges the family rows in as they come, unsorted
        assert [r.params for r in _family_reports(3000)] == sorted(family_construction(3000))

    def test_family_count_matches_the_construction(self):
        # the stats count the family rows in closed form, without the sieve
        for v_max in list(range(60)) + [1300, 3000]:
            assert _family_count(v_max) == len(family_construction(v_max)), v_max
        assert _family_count(10000) == 147336

    @pytest.mark.parametrize("level", list(FeasibilityLevel))
    def test_enumeration_merges_families_and_confirmed(self, level):
        # the families unconfirmed, the other candidates confirmed by the
        # is_feasible oracle
        v_max = 3000
        got = list(enumerate_feasible(v_max, level))
        others = [row[0] for row in _primitive_rows(v_max, FeasibilityLevel.COUNTING)
                  if is_feasible(row[0], level)[0]]
        assert strictly_increasing(got)
        assert got == sorted(set(family_construction(v_max)).union(others))

    def test_closed_form_matches_full_report_to_v_10000(self):
        # the builder's rows, against the tuples built from m, c and a in
        # tuple order, the one-row reference and full_report
        fams = sorted(family_construction(10000))
        assert len(fams) == 147336
        rows = _family_reports(10000)
        assert [r.params for r in rows] == fams
        assert [p for p in fams if family_report(p) != full_report(p)] == []
        # the builder drops the witness, which no scan output prints
        assert [r.params for r in rows
                if r != family_report(r.params)._replace(cab_witness=None)] == []


class TestScanConfig:
    def test_v_max_guard(self):
        with pytest.raises(ValueError):
            ScanConfig(v_max=4)

    def test_filter_guard(self):
        with pytest.raises(ValueError):
            ScanConfig(v_max=50, filter="bogus")

    @pytest.mark.parametrize("kwargs, message", [
        ({"v_max": 4}, "v_max must be >= 5"),
        ({"v_max": SCAN_MAX_V + 1}, f"v_max={SCAN_MAX_V + 1} exceeds limit {SCAN_MAX_V}"),
        ({"v_max": 50, "filter": "bogus"}, "unknown filter 'bogus'"),
    ])
    def test_guard_messages(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            ScanConfig(**kwargs)
        assert str(exc.value) == message

    def test_defaults_and_repr(self):
        cfg = ScanConfig(60)
        assert cfg == ScanConfig(v_max=60, level=FeasibilityLevel.ABSOLUTE_BOUND,
                                 filter=None, pairs=False)
        assert repr(cfg) == ("ScanConfig(v_max=60, level=<FeasibilityLevel.ABSOLUTE_BOUND: 4>, "
                             "filter=None, pairs=False)")

    @pytest.mark.parametrize("field", ["v_max", "level", "filter", "pairs"])
    def test_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(ScanConfig(60), field, None)

    def test_empty_stats(self):
        stats = ScanStats()
        assert tuple(stats) == (0,) * 7
        assert (stats.thm21_fraction, stats.thm22_fraction, stats.pair_fraction) == (0.0, 0.0, 0.0)


class TestScanCompare:
    @pytest.mark.parametrize("level", list(FeasibilityLevel))
    def test_reports_every_enumerated_tuple(self, level):
        reports, stats = scan_compare(ScanConfig(v_max=300, level=level))
        assert [r.params for r in reports] == list(enumerate_feasible(300, level))
        assert stats().total == len(reports)

    def test_gap_never_negative(self):
        records, _ = scan_compare(ScanConfig(v_max=80))
        assert all(r.gap >= 0 for r in records)

    def test_gap_filter(self):
        records, _ = scan_compare(ScanConfig(v_max=60, filter="gap"))
        assert [(r.params.v, r.params.k, r.params.lam, r.params.mu) for r in records] == [
            (17, 8, 3, 4),
            (37, 18, 8, 9),
            (50, 7, 0, 1),
            (56, 10, 0, 2),
        ]
        assert all(r.gap > 0 for r in records)

    def test_thm_filter_subset_of_gap(self):
        gap, _ = scan_compare(ScanConfig(v_max=150, filter="gap"))
        thm, _ = scan_compare(ScanConfig(v_max=150, filter="thm"))
        gap_keys = {(r.params.v, r.params.k, r.params.lam, r.params.mu) for r in gap}
        thm_keys = {(r.params.v, r.params.k, r.params.lam, r.params.mu) for r in thm}
        # the curated-nonexistent tuples are the only thm hits outside gap
        assert thm_keys - gap_keys <= CURATED_NONEXISTENT

    def test_pairs_collapse(self):
        full, _ = scan_compare(ScanConfig(v_max=60))
        halved, _ = scan_compare(ScanConfig(v_max=60, pairs=True))
        assert len(halved) < len(full)
        for r in halved:
            p = r.params
            if p.is_connected() and p.is_coconnected():
                assert 2 * p.k < p.v

    def test_pair_with_equal_valencies_counted_once(self):
        # v = 2k+1: (21,10,3,6) and its complement (21,10,5,4) both have
        # 2k < v, but the pair keeps only the member that sorts first
        everything, stats = scan_compare(ScanConfig(v_max=21))
        kept, _ = scan_compare(ScanConfig(v_max=21, pairs=True))
        at21 = [key(r.params) for r in everything if r.params.v == 21]
        assert (21, 10, 3, 6) in at21 and (21, 10, 5, 4) in at21
        kept21 = [key(r.params) for r in kept if r.params.v == 21]
        assert (21, 10, 3, 6) in kept21 and (21, 10, 5, 4) not in kept21
        type2 = [r.params for r in everything if r.type_tag.value != "I"
                 and r.params.is_connected() and r.params.is_coconnected()]
        keys = {key(p) for p in type2}
        pairs = {min(key(p), (p.v, p.v - p.k - 1, p.v - 2 * p.k + p.mu - 2,
                               p.v - 2 * p.k + p.lam)) for p in type2}
        assert pairs <= keys
        assert stats().pairs_type2_total == len(pairs)

    @pytest.mark.parametrize("level", list(FeasibilityLevel))
    def test_pairs_match_oracle(self, level):
        everything, stats = scan_compare(ScanConfig(v_max=3000, level=level))
        kept, _ = scan_compare(ScanConfig(v_max=3000, level=level, pairs=True))
        assert kept == [r for r in everything if keeps_pair_member(r.params)]
        assert len(kept) < len(everything)
        assert stats().pairs_type2_total == sum(
            1 for r in kept if r.type_tag is not SrgType.TYPE_I_ONLY
            and r.params.is_connected() and r.params.is_coconnected())

    @pytest.mark.parametrize("v_max,pairs,covered", [(150, 125, 15), (300, 327, 53)])
    def test_pair_totals(self, v_max, pairs, covered):
        stats = scan_compare(ScanConfig(v_max=v_max))[1]()
        assert (stats.pairs_type2_total, stats.pairs_type2_thm) == (pairs, covered)

    @pytest.mark.parametrize("level", list(FeasibilityLevel))
    def test_stats_match_two_pass_oracle(self, level):
        reports, stats = scan_compare(ScanConfig(v_max=3000, level=level))
        stats = stats()
        want = scan_stats_reference(reports)
        assert len(ScanStats._fields) == 7
        assert tuple(stats) == tuple(want)
        assert want.pairs_type2_thm > 0

    def test_stats_up_to_1300(self):
        # the --stats lines of the headline scan
        stats = scan_compare(ScanConfig(v_max=1300))[1]()
        assert tuple(stats) == (18011, 177, 46, 3966, 493, 1982, 493)

    def test_pairs_row_count(self):
        kept, _ = scan_compare(ScanConfig(v_max=150, pairs=True))
        assert len(kept) == 1107

    def test_thm51_filter(self):
        records, _ = scan_compare(ScanConfig(v_max=60, filter="thm51"))
        assert records and all(r.thm51 for r in records)

    @pytest.mark.parametrize("pairs", [False, True])
    def test_filters_match_full_then_filter_oracle(self, pairs):
        # the oracle reports every row, the family rows included, then filters
        everything, want_stats = scan_compare(ScanConfig(v_max=3000, pairs=pairs))
        keeps = {
            "gap": lambda r: r.gap > 0 and r.params not in CURATED_NONEXISTENT,
            "thm": lambda r: r.thm21 or r.thm22,
            "thm51": lambda r: r.thm51,
        }
        for flt, keep in keeps.items():
            records, stats = scan_compare(ScanConfig(v_max=3000, filter=flt, pairs=pairs))
            assert records == [r for r in everything if keep(r)], flt
            assert records, flt
            assert stats() == want_stats(), flt

    @pytest.mark.parametrize("flt,builds", [
        (None, True), ("gap", False), ("thm", False), ("thm51", True)])
    def test_family_reports_only_where_a_family_row_can_be_kept(
            self, monkeypatch, flt, builds):
        # a family row has gap 0 and neither thm21 nor thm22
        from srgbounds import catalog

        calls = []

        def counted(v_max):
            rows = _family_reports(v_max)
            calls.extend(r.params for r in rows)
            return rows

        monkeypatch.setattr(catalog, "_family_reports", counted)
        _, stats = scan_compare(ScanConfig(v_max=300, filter=flt))
        assert calls == (sorted(family_construction(300)) if builds else [])
        assert stats().total == len(list(enumerate_feasible(300)))

    @pytest.mark.parametrize("flt,digest", [
        (None, "2d1d3a57bc92e148f175e626d4866c9992e0de7ebc2c8c0b6f1e4d7b4a30a739"),
        ("gap", "70b7d0d1f9ce722813b8f746267fd29d5f4224e5ca131166a4c7e8ecf746a0d7"),
    ], ids=["all", "gap"])
    def test_only_stats_and_pairs_build_complements(self, monkeypatch, flt, digest):
        # the CSV scan, filtered or not, never builds a complement; the
        # stats walk and --pairs do, and only when asked for
        from srgbounds import catalog

        def refuse(*p):
            raise AssertionError("complement built")

        monkeypatch.setattr(catalog, "_complement", refuse)
        records, stats = scan_compare(ScanConfig(v_max=500, filter=flt))
        assert hashlib.sha256(emit(records, "csv").encode()).hexdigest() == digest
        with pytest.raises(AssertionError, match="complement built"):
            stats()
        with pytest.raises(AssertionError, match="complement built"):
            scan_compare(ScanConfig(v_max=500, filter=flt, pairs=True))

    def test_stats_fractions_in_range(self):
        stats = scan_compare(ScanConfig(v_max=150))[1]()
        assert 0 < stats.thm21_fraction < 1
        assert 0 < stats.thm22_fraction < 1
        assert stats.pairs_type2_thm <= stats.pairs_type2_total

    def test_curated_annotations_attached(self):
        reports, _ = scan_compare(ScanConfig(v_max=150, filter="gap"))
        rows = json.loads(emit(reports, "json"))
        assert len(rows) == len(CURATED_NOTES)
        for r, row in zip(reports, rows):
            assert row["annotations"] == CURATED_NOTES[key(r.params)]


class TestConjecture:
    def test_empty_at_small_scale(self):
        assert conjecture_scan(ScanConfig(v_max=150)) == []


class TestGarbageCollectorPause:
    """scan_compare and conjecture_scan build their records with the cyclic
    garbage collector paused, and leave it as they found it."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """gc.isenabled() at each report the scan builds."""
        seen = []

        def watched(*row):
            seen.append(gc.isenabled())
            return _report(*row)

        monkeypatch.setattr(catalog_module, "_report", watched)
        return seen

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def state(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("scan", [scan_compare, conjecture_scan])
    def test_paused_while_building_and_restored(self, seen, state, scan):
        scan(ScanConfig(v_max=150))
        assert seen and not any(seen)
        assert gc.isenabled() is state

    @pytest.mark.parametrize("scan", [scan_compare, conjecture_scan])
    def test_restored_after_an_error(self, monkeypatch, state, scan):
        def fails(*row):
            raise AssertionError("a report check failed")

        monkeypatch.setattr(catalog_module, "_report", fails)
        with pytest.raises(AssertionError, match="a report check failed"):
            scan(ScanConfig(v_max=150))
        assert gc.isenabled() is state

    def test_enumeration_never_yields_paused(self):
        assert gc.isenabled()
        assert all(gc.isenabled() for _ in enumerate_feasible(500))


class TestEmitters:
    def _records(self):
        records, _ = scan_compare(ScanConfig(v_max=40))
        return records

    def test_csv_shape(self):
        text = emit(self._records(), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert all(len(line.split(",")) == 11 for line in lines)
        assert lines[1].startswith("5,2,0,1,")

    # every annotated tuple with v <= 50, from CURATED_NONEXISTENT and CURATED_NOTES
    ANNOTATED_UP_TO_50 = {
        (17, 8, 3, 4): {"exists": "!", "sharp": "Y"},
        (37, 18, 8, 9): {"exists": "+", "sharp": "Y"},
        (49, 16, 3, 6): {"exists": "N"},
        (49, 32, 21, 20): {"exists": "N"},
        (50, 7, 0, 1): {"exists": "!", "sharp": "Y"},
    }

    def test_json_rows_match_reports(self):
        reports, _ = scan_compare(ScanConfig(v_max=50))
        rows = json.loads(emit(reports, "json"))
        assert len(rows) == len(reports)
        for r, row in zip(reports, rows):
            p = r.params
            expected = {"v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu,
                        "type": r.type_tag.value, "cab": r.cab, "delsarte": r.delsarte,
                        "gap": r.delsarte - r.cab, "thm21": r.thm21, "thm22": r.thm22,
                        "thm51": r.thm51}
            if key(p) in self.ANNOTATED_UP_TO_50:
                expected["annotations"] = self.ANNOTATED_UP_TO_50[key(p)]
            assert row == expected
            assert list(row) == list(expected)

    def test_table_deterministic(self):
        records = self._records()
        assert emit(records, "table") == emit(records, "table")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml")


def emit_oracle(reports, fmt: str) -> str:
    """The f-string renderer of csv and table that emit used before its
    per-call tables of integer strings: the oracle for both formats."""
    csv_bool, table_bool = ("false", "true"), (".", "Y")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for (v, k, lam, mu), tag, c, _, d, t21, t22, t51 in reports:
            lines.append(f"{v},{k},{lam},{mu},{tag._value_},{c},{d},{d - c},"
                         f"{csv_bool[t21]},{csv_bool[t22]},{csv_bool[t51]}")
        return "\n".join(lines) + "\n"
    header = (f"{'params':>22}  {'type':>4}  {'cab':>3}  {'dels':>4}  {'gap':>3}"
              f"  {'t21':>3}  {'t22':>3}  {'t51':>3}")
    lines = [header, "-" * len(header)]
    for (v, k, lam, mu), tag, c, _, d, t21, t22, t51 in reports:
        tup = f"({v},{k},{lam},{mu})"
        lines.append(f"{tup:>22}  {tag._value_:>4}  {c:>3}  {d:>4}  {d - c:>3}"
                     f"  {table_bool[t21]:>3}  {table_bool[t22]:>3}  {table_bool[t51]:>3}")
    return "\n".join(lines) + "\n"


class TestIntegerTables:
    """emit's csv and table look their integers up in per-call lists of
    strings; the f-string renderer they replaced is the oracle, on every
    scan and on reports whose integers fall outside the lists."""

    CONFIGS = [
        *(ScanConfig(v_max=1300, level=level) for level in FeasibilityLevel),
        ScanConfig(v_max=1300, pairs=True),
        *(ScanConfig(v_max=1300, filter=flt) for flt in ("gap", "thm", "thm51")),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.level.name}-{c.filter}-{c.pairs}")
    def test_scan_matches_oracle(self, cfg, fmt):
        reports, _ = scan_compare(cfg)
        assert reports
        assert emit(reports, fmt) == emit_oracle(reports, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_empty(self, fmt):
        assert emit([], fmt) == emit_oracle([], fmt)

    @staticmethod
    def synthetic(v, k, lam, mu, c, d):
        return BoundsReport(SrgParams(v, k, lam, mu), SrgType.TYPE_II_ONLY, c, None, d,
                            False, True, False)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_integers_outside_the_table_render_like_the_oracle(self, fmt):
        # behind a scan to v <= 40 the lists hold the strings of [0, 40]: a
        # list reads -1 as its last string and -41 as its first, and 41, 81
        # and 10^30 lie past its end.  Ahead of it, or alone, a row is read
        # with lists that end at its own v or at 40
        scan, _ = scan_compare(ScanConfig(v_max=40))
        odd = [
            self.synthetic(10, -1, 0, 1, 2, 3),
            self.synthetic(10, 4, -41, 1, 2, 3),
            self.synthetic(10, 4, 1, -82, 2, 3),
            self.synthetic(10, 4, 1, 10**30, 2, 3),
            self.synthetic(10, 4, 1, 2, 41, 81),
            self.synthetic(10, 4, 1, 2, 5, 3),     # gap -2
            self.synthetic(-5, 4, 1, 2, 3, 3),
            self.synthetic(10, 4, 1, 2, 30, 40),   # past this row's v, within [0, 40]
        ]
        for row in odd:
            for reports in ([row], scan + [row], [row] + scan):
                assert emit(reports, fmt) == emit_oracle(reports, fmt), row

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_rows_out_of_order_match_oracle(self, fmt):
        # the lists end at the last row's v, here 5, so the other rows read
        # past their end
        scan, _ = scan_compare(ScanConfig(v_max=300))
        reports = scan[::-1]
        assert emit(reports, fmt) == emit_oracle(reports, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_no_table_past_the_scan_limit(self, monkeypatch, fmt):
        # family D at t = 5, (r, a, mu) = (29, 6, 1), has v = 26426 >
        # SCAN_MAX_V: its report renders without a list of 26,427 strings,
        # as a report with v near 10^24 must
        from srgbounds import catalog

        def refused(top, spec):
            raise AssertionError(f"a list up to {top} was built")

        p = SrgParams(26426, 175, 24, 1)
        assert p.v > SCAN_MAX_V
        reports = [full_report(p)]
        monkeypatch.setattr(catalog, "_int_strings", refused)
        assert emit(reports, fmt) == emit_oracle(reports, fmt)
