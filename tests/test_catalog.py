from fractions import Fraction

import pytest

from srgbounds.catalog import (
    CSV_HEADER,
    CURATED_NONEXISTENT,
    CURATED_NOTES,
    ScanConfig,
    ScanRecord,
    conjecture_scan,
    emit,
    enumerate_feasible,
    enumerate_feasible_bruteforce,
    parse_records,
    scan_compare,
)
from srgbounds.srg import FeasibilityLevel, SrgParams


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
        fast = list(enumerate_feasible(150, level))
        slow = list(enumerate_feasible_bruteforce(150, level))
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


class TestScanConfig:
    def test_v_max_guard(self):
        with pytest.raises(ValueError):
            ScanConfig(v_max=4)

    def test_filter_guard(self):
        with pytest.raises(ValueError):
            ScanConfig(v_max=50, filter="bogus")


class TestScanCompare:
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
            if r.connected and r.coconnected:
                assert 2 * r.params.k < r.params.v

    def test_thm51_filter(self):
        records, _ = scan_compare(ScanConfig(v_max=60, filter="thm51"))
        assert records and all(r.thm51 for r in records)

    def test_stats_fractions_in_range(self):
        _, stats = scan_compare(ScanConfig(v_max=150))
        assert 0 < stats.thm21_fraction < 1
        assert 0 < stats.thm22_fraction < 1
        assert stats.pairs_type2_thm <= stats.pairs_type2_total

    def test_curated_annotations_attached(self):
        records, _ = scan_compare(ScanConfig(v_max=150, filter="gap"))
        for r in records:
            key = (r.params.v, r.params.k, r.params.lam, r.params.mu)
            assert r.annotations == CURATED_NOTES[key]


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

    def test_json_roundtrip(self):
        records = self._records()
        assert parse_records(emit(records, "json")) == records

    def test_table_deterministic(self):
        records = self._records()
        assert emit(records, "table") == emit(records, "table")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml")

    def test_render_rational(self):
        assert render_rational(Fraction(13, 3)) == "13/3 (4.333333)"


def test_scan_record_json_roundtrip():
    records, _ = scan_compare(ScanConfig(v_max=50, filter="gap"))
    for r in records:
        assert ScanRecord.from_json_dict(r.to_json_dict()) == r
