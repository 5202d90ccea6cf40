"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

All comparisons are exact (zero tolerance); the only numeric budgets are the
wall-clock limits stated per criterion.
"""

import random
import sys
import time
from fractions import Fraction
from functools import lru_cache

from srgbounds.cab import (
    cab,
    cap_value,
    full_report,
    hoffman_clique_bound,
    hoffman_prefloor,
)
from srgbounds.catalog import ScanConfig, conjecture_scan, enumerate_feasible, scan_compare
from srgbounds.graphs import (
    heawood_line_distance3,
    is_edge_regular,
    is_strongly_regular,
    max_clique,
    paley,
)
from srgbounds.identities import (
    CASES,
    random_point_crosscheck,
    verify_identity,
    verify_identity_mutated,
)
from srgbounds.quadext import QuadExt
from srgbounds.srg import (
    EdgeRegularParams,
    SrgParams,
    SrgType,
    classify,
    complement,
    spectrum,
)
from test_graphs import max_clique_bruteforce

# (v, k, lambda, mu) -> (type, cab) golden rows for the gap scan on v <= 150
GOLDEN_GAP_TABLE = [
    ((17, 8, 3, 4), "I", 3),
    ((37, 18, 8, 9), "I", 5),
    ((50, 7, 0, 1), "II", 2),
    ((56, 10, 0, 2), "II", 2),
    ((65, 32, 15, 16), "I", 7),
    ((77, 16, 0, 4), "II", 2),
    ((88, 27, 6, 9), "II", 4),
    ((99, 14, 1, 2), "II", 3),
    ((100, 22, 0, 6), "II", 2),
    ((101, 50, 24, 25), "I", 9),
    ((105, 32, 4, 12), "II", 3),
    ((111, 30, 5, 9), "II", 4),
    ((115, 18, 1, 3), "II", 3),
    ((120, 42, 8, 18), "II", 3),
    ((121, 36, 7, 12), "II", 4),
    ((133, 32, 6, 8), "II", 5),
    ((144, 39, 6, 12), "II", 4),
    ((144, 52, 16, 20), "II", 6),
    ((145, 72, 35, 36), "I", 11),
    ((149, 74, 36, 37), "I", 11),
]


def _report(num: int, name: str, ok: bool) -> None:
    from conftest import ACCEPTANCE_LINES

    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {name}: {status}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


class _criterion:
    """Context manager printing the per-criterion PASS/FAIL line."""

    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.num, self.name, exc_type is None)
        return False


@lru_cache(maxsize=None)
def feasible_500() -> tuple[SrgParams, ...]:
    return tuple(enumerate_feasible(500))


def test_criterion_01_gap_table_reproduction():
    with _criterion(1, "curated gap-table reproduction (20 rows, < 5 s)"):
        t0 = time.monotonic()
        records, _ = scan_compare(ScanConfig(v_max=150, filter="gap"))
        elapsed = time.monotonic() - t0
        got = [
            ((r.params.v, r.params.k, r.params.lam, r.params.mu), r.type_tag.value, r.cab)
            for r in records
        ]
        assert got == GOLDEN_GAP_TABLE
        # every row improves the Delsarte bound by exactly one
        assert all(r.gap == 1 for r in records)
        assert elapsed < 5.0, f"scan took {elapsed:.2f} s"


def test_criterion_02_gap2_example():
    with _criterion(2, "gap-2 example (378,52,1,8): delsarte 5, cab 3"):
        rep = full_report(SrgParams(378, 52, 1, 8))
        assert rep.delsarte == 5
        assert rep.cab == 3


def test_criterion_03_negativity_property_suite():
    with _criterion(3, "ratio-point negativity and cab<=delsarte, v<=500 (< 60 s)"):
        t0 = time.monotonic()
        checked = 0
        for p in feasible_500():
            spec = spectrum(p)
            b = (-QuadExt.make(p.mu) / spec.s).floor()
            y = (2 - QuadExt.make(p.k) / spec.s).floor()
            assert cap_value(p.v, p.k, p.lam, b, y) < 0, p
            rep = full_report(p)
            assert rep.cab <= rep.delsarte, p
            checked += 1
        elapsed = time.monotonic() - t0
        assert checked > 2000
        assert elapsed < 60.0, f"property suite took {elapsed:.2f} s"


def test_criterion_04_pinned_cab_property_suite():
    with _criterion(4, "lam+1 <= -k/s forces cab = lam+2, v<=500"):
        hits = 0
        for p in feasible_500():
            if p.mu == 0:
                ratio_ok = True  # s = -1, so -k/s = k = lam+1
            else:
                s = spectrum(p).s
                ratio_ok = (QuadExt.make(p.lam + 1) + QuadExt.make(p.k) / s).sign() <= 0
            if ratio_ok:
                c, _ = cab(p.edge_regular)
                assert c == p.lam + 2, p
                hits += 1
        assert hits > 0


def test_criterion_05_identity_suite():
    with _criterion(5, "8 identities: zero polynomial, crosschecks, mutations (< 1 s)"):
        t0 = time.monotonic()
        assert len(CASES) == 8
        for case in CASES:
            assert verify_identity(case), case.name
            assert random_point_crosscheck(case, trials=100, seed=97), case.name
            assert not verify_identity_mutated(case, 0), case.name
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"identity suite took {elapsed:.2f} s"


def test_criterion_06_delta3_fixture():
    with _criterion(6, "distance-3 fixture: (21,8,3), cab 4, omega 3, bounds 5/3"):
        g = heawood_line_distance3()
        er = is_edge_regular(g)
        assert er == EdgeRegularParams(21, 8, 3)
        assert is_strongly_regular(g) is None
        assert cab(er)[0] == 4
        assert max_clique(g).size == 3
        s = QuadExt.make(0, -1, 8)
        assert (1 - QuadExt.make(8) / s).floor() == 3  # Delsarte with -sqrt(8)
        assert hoffman_clique_bound(21, 12, QuadExt.make(-1, -1, 8)) == 5


def test_criterion_07_paley_verification():
    with _criterion(7, "Paley graphs p in {5,13,17,29,37,41}; omega 17->3, 37->4 (< 30 s)"):
        t0 = time.monotonic()
        for p in (5, 13, 17, 29, 37, 41):
            g = paley(p)
            assert is_strongly_regular(g) == SrgParams(
                p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4
            )
        assert max_clique(paley(17)).size == 3
        omega37 = max_clique(paley(37)).size
        assert omega37 == 4  # frozen brute-force oracle value
        assert max_clique_bruteforce(paley(37)) == omega37
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"Paley suite took {elapsed:.2f} s"


def test_criterion_08_delsarte_equals_hoffman():
    with _criterion(8, "pre-floor Delsarte == complement Hoffman, v<=300"):
        checked = 0
        for p in enumerate_feasible(300):
            if not (p.is_connected() and p.is_coconnected()):
                continue
            spec = spectrum(p)
            lhs = 1 - QuadExt.make(p.k) / spec.s
            rhs = hoffman_prefloor(p.v, p.v - p.k - 1, -spec.r - 1)
            assert lhs == rhs, p
            checked += 1
        assert checked > 500


def test_criterion_09_conjecture_scan_empty():
    with _criterion(9, "conjecture scan v<=500 returns no counterexamples"):
        assert conjecture_scan(ScanConfig(v_max=500)) == []


def test_criterion_10_predicate_exclusivity():
    with _criterion(10, "no complementary pair has both members passing thm22"):
        both = []
        for p in feasible_500():
            if not (p.is_connected() and p.is_coconnected()):
                continue
            if classify(p) is SrgType.TYPE_I_ONLY:
                continue
            if 2 * p.k >= p.v:
                continue  # visit each pair once via the sparse member
            q = complement(p)
            if full_report(p).thm22 and full_report(q).thm22:
                both.append(p)
        assert both == []


def test_criterion_11_exact_arithmetic_micro_suite():
    with _criterion(11, "10,000 randomized floor/frac/sign property checks"):
        rng = random.Random(20260823)
        squarefree = [2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 21, 22, 23, 26, 29]
        for i in range(10_000):
            d = rng.choice(squarefree)
            x = QuadExt.make(
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                d,
            )
            n = x.floor()
            assert (x - n).sign() >= 0
            assert (x - (n + 1)).sign() < 0
            fr = x.frac()
            assert fr.sign() >= 0
            assert (fr - 1).sign() < 0
            assert n + fr == x
            # order transitivity spot check every 10th iteration
            if i % 10 == 0:
                y = QuadExt.make(
                    Fraction(rng.randint(-100, 100), rng.randint(1, 10)),
                    Fraction(rng.randint(-100, 100), rng.randint(1, 10)),
                    d,
                )
                z = QuadExt.make(
                    Fraction(rng.randint(-100, 100), rng.randint(1, 10)),
                    Fraction(rng.randint(-100, 100), rng.randint(1, 10)),
                    d,
                )
                trio = sorted([x, y, z])
                assert trio[0] <= trio[1] <= trio[2]
                assert not trio[2] < trio[0]
