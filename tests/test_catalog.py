import dataclasses
import json
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from srgbounds.cab import BoundsReport, CabWitness, full_report
from srgbounds.catalog import (
    CSV_HEADER,
    CURATED_NONEXISTENT,
    CURATED_NOTES,
    ScanConfig,
    ScanStats,
    _eigenvalue_candidates,
    _family_report,
    _least_v,
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
    stats = ScanStats(total=len(reports))
    thm22_by_params = {r.params: r.thm22 for r in reports}
    for r in reports:
        p = r.params
        if r.type_tag is SrgType.TYPE_I_ONLY:
            stats.type1_total += 1
            stats.type1_thm21 += r.thm21
        elif p.is_connected() and p.is_coconnected():
            stats.type2_total += 1
            stats.type2_thm22 += r.thm22
            if p <= complement(p):
                stats.pairs_type2_total += 1
                stats.pairs_type2_thm += r.thm22 or thm22_by_params.get(complement(p), False)
    return stats


def primitive_candidates_trial_division(v_max: int):
    """The oracle for the generator's r >= 1, a >= 2 tuples: every d up to
    sqrt(n) is trial-divided, with no bound on where the mu interval
    starts."""
    a = 2
    while _least_v(a, 1) <= v_max:
        r = 1
        while _least_v(a, r) <= v_max:
            n = r * a * (r + 1) * (a - 1)
            base = r * a + 1 + (r + 1) * (a - 1)
            for d in range(1, isqrt(n) + 1):
                if n % d == 0 and base + d + n // d <= v_max:
                    for mu in {d, n // d}:
                        if mu + r >= a:
                            v, k = base + mu + n // mu, mu + r * a
                            if ((v - 1) * a - k) % (r + a) == 0:
                                yield v, k, mu + r - a, mu
            r += 1
        a += 1


def render_rational(x: Fraction) -> str:
    """Exact p/q string plus a display-only 6-decimal float."""
    return f"{x.numerator}/{x.denominator} ({float(x):.6f})"


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


def family_tuples(v_max: int) -> list[SrgParams]:
    """The generator's tuples with mu = 0 or mu = k and 5 <= v <= v_max."""
    return [SrgParams(*t[:4]) for t in _eigenvalue_candidates(v_max)
            if t[0] >= 5 and (t[3] == 0 or t[3] == t[1])]


@pytest.fixture(scope="module")
def candidates_10000():
    return list(_eigenvalue_candidates(10000))


class TestHandedOnSpectrum:
    """enumerate_feasible confirms a candidate that carries its spectrum
    with the Krein and absolute-bound rule alone; is_feasible stays the
    oracle."""

    def test_spectrum_and_verdict_match_is_feasible(self):
        v_max = 3000
        accepted = {level: set(enumerate_feasible(v_max, level)) for level in FeasibilityLevel}
        carried = 0
        for *t, spec in _eigenvalue_candidates(v_max):
            p = SrgParams(*t)
            if p.v < 5:
                continue
            full = _spectrum_or_failure(p)
            # None exactly for m*K_c, K_{m x a} and the irrational conference tuples
            assert (spec is None) == (p.mu == 0 or p.mu == p.k or full[1] is None), p
            if spec is not None:
                assert spec == full[1:], p
                carried += 1
            for level in FeasibilityLevel:
                assert (p in accepted[level]) == is_feasible(p, level)[0], (p, level)
        assert carried == 11459

    def test_scan_report_matches_full_report(self):
        # the scan reports a tuple that carries its spectrum from the
        # generator's r and s and the shared conference test; full_report,
        # which derives the spectrum again, stays the oracle
        v_max = 3000
        oracle = {}
        for *t, spec in _eigenvalue_candidates(v_max):
            if spec is not None:
                p = SrgParams(*t)
                oracle[p] = full_report(p)
        assert len(oracle) == 11459
        for level in FeasibilityLevel:
            reports, _ = scan_compare(ScanConfig(v_max=v_max, level=level))
            rows = [r for r in reports if r.params in oracle]
            for r in rows:
                assert r == oracle[r.params], (r.params, level)
                assert (type(r), type(r.params), type(r.cab_witness)) == (
                    BoundsReport, SrgParams, CabWitness), r.params
            if level is FeasibilityLevel.ABSOLUTE_BOUND:
                assert Counter(r.type_tag for r in rows) == {
                    SrgType.BOTH: 26, SrgType.TYPE_II_ONLY: 10307}

    def test_krein_rule_matches_krein_parameters(self):
        # an independent form of the Krein conditions: the Krein parameters
        # q^1_11 and q^2_22 are f^2/v resp. g^2/v times 1 + r^3/k^2 -
        # (r+1)^3/l^2 resp. 1 + s^3/k^2 - (s+1)^3/l^2, with l = v-k-1, and
        # must be nonnegative
        fails = Counter()
        for v, k, lam, mu, spec in _eigenvalue_candidates(3000):
            if spec is None:
                continue
            r, s, f, g = spec
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

    def test_mu_interval_matches_trial_division(self, candidates_10000):
        got = sorted(t[:4] for t in candidates_10000 if t[4] is not None)
        assert got == sorted(primitive_candidates_trial_division(10000))

    def test_each_tuple_once(self, candidates_10000):
        assert len(candidates_10000) == 191218
        assert len({t[:4] for t in candidates_10000}) == len(candidates_10000)


class TestFamilyReport:
    def test_families_feasible_and_reported_exactly(self):
        # the scan builds these rows without is_feasible or full_report,
        # which stay the oracles
        v_max = 3000
        # m*K_c and K_{m x a}, built from m, c, a, with the complement's
        # lambda: v-2c, resp. a-2
        lam_bar = {}
        for x in range(2, v_max // 2 + 1):
            for m in range(2, v_max // x + 1):
                if m * x >= 5:
                    lam_bar[SrgParams(m * x, x - 1, x - 2, 0)] = m * x - 2 * x
                    lam_bar[SrgParams(m * x, (m - 1) * x, (m - 2) * x, (m - 1) * x)] = x - 2
        fams = family_tuples(v_max)
        assert sorted(fams) == sorted(lam_bar)
        for p in fams:
            for level in FeasibilityLevel:
                assert is_feasible(p, level) == (True, None), (p, level)
            assert p.v - 2 * p.k + p.mu - 2 == lam_bar[p] >= 0, p
            assert _family_report(p) == full_report(p), p

    def test_closed_form_matches_full_report_to_v_10000(self):
        fams = family_tuples(10000)
        assert len(fams) == 147336
        assert [p for p in fams if _family_report(p) != full_report(p)] == []


class TestScanConfig:
    def test_v_max_guard(self):
        with pytest.raises(ValueError):
            ScanConfig(v_max=4)

    def test_filter_guard(self):
        with pytest.raises(ValueError):
            ScanConfig(v_max=50, filter="bogus")


class TestScanCompare:
    @pytest.mark.parametrize("level", list(FeasibilityLevel))
    def test_reports_every_enumerated_tuple(self, level):
        reports, stats = scan_compare(ScanConfig(v_max=300, level=level))
        assert [r.params for r in reports] == list(enumerate_feasible(300, level))
        assert stats.total == len(reports)

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
        assert stats.pairs_type2_total == len(pairs)

    @pytest.mark.parametrize("v_max,pairs,covered", [(150, 125, 15), (300, 327, 53)])
    def test_pair_totals(self, v_max, pairs, covered):
        _, stats = scan_compare(ScanConfig(v_max=v_max))
        assert (stats.pairs_type2_total, stats.pairs_type2_thm) == (pairs, covered)

    @pytest.mark.parametrize("level", list(FeasibilityLevel))
    def test_stats_match_two_pass_oracle(self, level):
        reports, stats = scan_compare(ScanConfig(v_max=3000, level=level))
        want = scan_stats_reference(reports)
        assert len(dataclasses.fields(ScanStats)) == 7
        assert dataclasses.astuple(stats) == dataclasses.astuple(want)
        assert want.pairs_type2_thm > 0

    def test_stats_up_to_1300(self):
        # the --stats lines of the headline scan
        _, stats = scan_compare(ScanConfig(v_max=1300))
        assert dataclasses.astuple(stats) == (18011, 177, 46, 3966, 493, 1982, 493)

    def test_pairs_row_count(self):
        kept, _ = scan_compare(ScanConfig(v_max=150, pairs=True))
        assert len(kept) == 1107

    def test_thm51_filter(self):
        records, _ = scan_compare(ScanConfig(v_max=60, filter="thm51"))
        assert records and all(r.thm51 for r in records)

    def test_stats_fractions_in_range(self):
        _, stats = scan_compare(ScanConfig(v_max=150))
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

    def test_render_rational(self):
        assert render_rational(Fraction(13, 3)) == "13/3 (4.333333)"

