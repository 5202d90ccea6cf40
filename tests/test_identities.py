import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from srgbounds.identities import (
    CASES,
    ResidualDivisionError,
    cleared_degree,
    cleared_sides,
    general_srg_symbols,
    random_point_crosscheck,
    rhs_term_count,
    type1_symbols,
    verify_identity,
    verify_identity_mutated,
)
from srgbounds import identities
from srgbounds.cab import _thm22, cap_min_over_b
from srgbounds.catalog import _primitive_rows
from srgbounds.identities import IdentityCase, _numeric_symbols, _symbolic_symbols
from srgbounds.mpoly import VARS, MPoly
from srgbounds.srg import FeasibilityLevel, SrgParams, spectrum

CASE_BY_NAME = {case.name: case for case in CASES}


def substitute(p: MPoly, parameterization: str) -> MPoly:
    """Substitute the parameterization into p; the result must be a polynomial
    in the free variables (anything leaving a denominator is an error)."""
    sym = _symbolic_symbols(parameterization)
    total = MPoly.zero()
    for exp, coeff in p.terms.items():
        term = MPoly.const(coeff)
        for i, e in enumerate(exp):
            if not e:
                continue
            name = VARS[i]
            if name not in sym:
                raise ValueError(
                    f"symbol {name!r} has no meaning under {parameterization!r}"
                )
            value = sym[name]
            for _ in range(e):
                term = term * value
        total = total + term
    if any(e < 0 for exp in total.terms for e in exp):
        raise ValueError(f"residual denominator in {total}")
    return total


def general_srg_point(p: SrgParams) -> dict:
    """Numeric general-parameterization symbols for a concrete integer tuple
    with integer eigenvalues."""
    spec = spectrum(p)
    return general_srg_symbols(spec.r.as_fraction(), spec.s.as_fraction(), Fraction(p.mu),
                               Fraction(0))

EXPECTED_DEGREES = {
    "cap-negative-at-ratio-point": 6,
    "conference-level-3-shift": 3,
    "conference-level-2-shift": 3,
    "shifted-ratio-point-level-2": 9,
    "shifted-ratio-point-level-1": 9,
    "complement-exclusivity-product": 5,
    "trivial-level-at-one": 5,
    "level-monotonicity": 3,
}


# sha256 of str() of each cleared side, pinned before the ring operations
# skipped re-checking their own results; both sides print the same text
CLEARED_SHA256 = {
    "cap-negative-at-ratio-point": "02819ad61de9f54a91caadbdd62b390b1ad355797e83f605a1277124e86bba1f",
    "conference-level-3-shift": "d2faf279eb4466b04dfe1ab8dba56b5b7588c18f97e6502400c577568c5d5c3e",
    "conference-level-2-shift": "2ec6681de137cafb46c87a16dbf655ce42284370d1c67bd26a7da299b78961bc",
    "shifted-ratio-point-level-2": "de67d377264cdebf992af6250f1b645c674f0990ae1183f04a110aab9c93248d",
    "shifted-ratio-point-level-1": "c256232f3bf00b625bf2af375438cb1a8a17ee4512ba0a92b871cbae8c9fbc00",
    "complement-exclusivity-product": "e32ec6d43b6a66640b07249752adae488def31d3b310e0d162f4ee5a10610912",
    "trivial-level-at-one": "b721fa4656c1f283c0cbfcaa508eed63798c4b16abbb8181769f33235f5adb69",
    "level-monotonicity": "901311bbde1121b6586c22723b34c688c0b0d5e3514d12a9ba275cc3f43a6d3f",
}


def test_case_inventory():
    assert len(CASES) == 8
    assert set(CASE_BY_NAME) == set(EXPECTED_DEGREES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_identity_verifies(case):
    assert verify_identity(case)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_cleared_degree(case):
    assert cleared_degree(case) == EXPECTED_DEGREES[case.name]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_cleared_sides_pinned(case):
    for side in cleared_sides(case):
        assert hashlib.sha256(str(side).encode()).hexdigest() == CLEARED_SHA256[case.name]
        # exact rationals only: a float would make the zero test inexact
        assert all(type(c) is Fraction for c in side.terms.values())
        assert all(len(exp) == len(VARS) and c != 0 for exp, c in side.terms.items())


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_every_mutation_fails(case):
    count = rhs_term_count(case)
    assert count >= 1
    for i in range(count):
        assert not verify_identity_mutated(case, i)
    with pytest.raises(IndexError):
        verify_identity_mutated(case, count)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_random_point_crosscheck(case):
    assert random_point_crosscheck(case, trials=100, seed=20260823)


def test_crosscheck_rejects_bad_trials():
    with pytest.raises(ValueError):
        random_point_crosscheck(CASES[0], trials=0)


@pytest.mark.parametrize("parameterization, free", [
    ("general-srg", {"r": 0, "s": Fraction(-22, 5), "mu": 1, "t": Fraction(1, 5)}),
    ("type-i", {"w": 0, "t": Fraction(-22, 5)}),
    ("raw", {"v": 0, "k": Fraction(-22, 5), "lam": 1, "b": Fraction(1, 5), "c": 1}),
])
def test_numeric_symbols_first_draw(parameterization, free):
    # the cross-check's points come from the seeded draws in this order, so
    # a change of the draw order or of the avoided values shows here
    sym = _numeric_symbols(parameterization, random.Random(0))
    assert {name: sym[name] for name in free} == free


def test_unknown_parameterization_rejected():
    for build in (_symbolic_symbols, lambda name: _numeric_symbols(name, random.Random(0))):
        with pytest.raises(ValueError, match="unknown parameterization 'bogus'"):
            build("bogus")


def test_parameterizations_agree_on_instances():
    # integer-eigenvalue tuples plug into the general parameterization exactly
    for tup in ((10, 3, 0, 1), (50, 7, 0, 1), (144, 39, 6, 12)):
        p = SrgParams(*tup)
        sym = general_srg_point(p)
        assert sym["v"] == p.v
        assert sym["k"] == p.k
        assert sym["lam"] == p.lam
        assert sym["mu"] == p.mu


def test_type1_symbols_at_sqrt17():
    # w = sqrt(17) symbolically stands for sqrt(v); numeric w = 5 gives the
    # conference tuple shape on v = 25
    sym = type1_symbols(Fraction(5), Fraction(7))
    assert sym["t"] == 7
    assert sym["v"] == 25
    assert sym["k"] == 12
    assert sym["lam"] == 5
    assert sym["mu"] == 6
    assert sym["r"] == 2
    assert sym["s"] == -3


def test_general_srg_symbols_counting_identity():
    sym = general_srg_symbols(Fraction(2), Fraction(-3), Fraction(4), Fraction(7))
    assert sym["t"] == 7
    v, k, lam, mu = sym["v"], sym["k"], sym["lam"], sym["mu"]
    assert (v - k - 1) * mu == k * (k - lam - 1)


def test_substitute_counting_identity_is_zero():
    # (v-k-1)mu - k(k-lam-1) vanishes identically under general-srg
    v, k, lam, mu = (MPoly.var(n) for n in ("v", "k", "lam", "mu"))
    poly = (v - k - 1) * mu - k * (k - lam - 1)
    assert substitute(poly, "general-srg").is_zero()
    assert substitute(poly, "type-i").is_zero()


def test_substitute_nonzero_poly():
    out = substitute(MPoly.var("k") + 1, "type-i")
    # k + 1 = (w^2 + 1)/2
    w = MPoly.var("w")
    assert out == (w * w + 1) * Fraction(1, 2)


def test_substitute_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        substitute(MPoly.var("b"), "type-i")


def test_substitute_residual_denominator_rejected():
    # v = k + 1 + k(k-lam-1)/mu keeps a 1/mu term under general-srg
    with pytest.raises(ValueError, match="residual denominator"):
        substitute(MPoly.var("v"), "general-srg")


def test_residual_division_error():
    # a lhs with an uncleared 1/s pole must be reported, not silently dropped
    bad = IdentityCase(
        name="bad",
        parameterization="general-srg",
        lhs=lambda sym: sym["k"] / sym["s"],
        rhs=lambda sym: sym["k"],
        clearing=(),
    )
    with pytest.raises(ResidualDivisionError):
        cleared_sides(bad)


class TestStoredSides:
    """verify_identity stores the sides it expands; the term count, the
    degree and the mutation checks reuse them."""

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_mutations_match_fresh_expansion(self, case):
        assert verify_identity(case)
        lhs, rhs = cleared_sides(case)
        exps = sorted(rhs.terms)
        assert rhs_term_count(case) == len(exps)
        assert cleared_degree(case) == max(lhs.total_degree(), rhs.total_degree())
        for t, exp in enumerate(exps):
            mutated = dict(rhs.terms)
            mutated[exp] = -mutated[exp]
            assert verify_identity_mutated(case, t) == (lhs - MPoly(mutated)).is_zero()

    def test_same_name_different_rhs_never_share(self, monkeypatch):
        monkeypatch.setattr(identities, "_SIDES", {})
        good = CASE_BY_NAME["level-monotonicity"]
        bad = IdentityCase(name=good.name, parameterization=good.parameterization,
                           lhs=good.lhs, rhs=lambda sym: good.rhs(sym) + 1,
                           clearing=good.clearing)
        assert verify_identity(good)
        assert not verify_identity(bad)
        assert verify_identity(good)
        assert len(identities._SIDES) == 2
        # the broken rhs has one more term (the constant), and its mutants
        # are judged against its own sides
        assert rhs_term_count(bad) == rhs_term_count(good) + 1
        assert not any(verify_identity_mutated(bad, t) for t in range(rhs_term_count(bad)))

    def test_stored_sides_are_keyed_by_contents(self, monkeypatch):
        monkeypatch.setattr(identities, "_SIDES", {})
        case = CASE_BY_NAME["cap-negative-at-ratio-point"]
        # an equal case built afresh shares the entry; another clearing does not
        twin = IdentityCase(name=case.name, parameterization=case.parameterization,
                            lhs=case.lhs, rhs=case.rhs, clearing=(("s", 3), ("mu", 1)))
        other = IdentityCase(name=case.name, parameterization=case.parameterization,
                             lhs=case.lhs, rhs=case.rhs, clearing=(("s", 4), ("mu", 1)))
        assert verify_identity(case) and verify_identity(twin)
        assert len(identities._SIDES) == 1
        assert verify_identity(other)
        assert len(identities._SIDES) == 2
        assert cleared_degree(other) == cleared_degree(case) + 1

    def test_store_holds_at_most_one_pair_per_case(self, monkeypatch):
        monkeypatch.setattr(identities, "_SIDES", {})
        for _ in range(3):
            for case in CASES:
                verify_identity(case)
                rhs_term_count(case)
                cleared_degree(case)
        assert len(identities._SIDES) == len(CASES)


@pytest.fixture
def expansions(monkeypatch):
    """Names of the cases `cleared_sides` expands, in order."""
    calls = []
    expand = identities.cleared_sides

    def counted(case):
        calls.append(case.name)
        return expand(case)

    monkeypatch.setattr(identities, "cleared_sides", counted)
    return calls


def test_one_expansion_per_case_in_a_verification_pass(expansions):
    """Proof, term count and every mutation check of each case, in the order
    the graph_verify benchmark runs them, expand each case exactly once."""
    for _ in range(2):
        expansions.clear()
        for case in CASES:
            assert verify_identity(case)
            assert not any(verify_identity_mutated(case, t)
                           for t in range(rhs_term_count(case)))
        assert len(expansions) == 8, len(expansions)
        assert expansions == [case.name for case in CASES]


def test_term_count_before_any_proof_expands_once(expansions, monkeypatch):
    monkeypatch.setattr(identities, "_SIDES", {})
    case = CASES[0]
    count = rhs_term_count(case)
    assert not any(verify_identity_mutated(case, t) for t in range(count))
    assert cleared_degree(case) == EXPECTED_DEGREES[case.name]
    assert expansions == [case.name]


# -- the Delsarte-level lemma --------------------------------------------------

LEVEL_CASES = identities._DELSARTE_LEVEL_CASES
CASE_BY_LEVEL_NAME = {case.name: case for case in LEVEL_CASES}

LEVEL_DEGREES = {
    "delsarte-level-completed-square": 7,
    "delsarte-level-vertex-floor": 4,
    "delsarte-level-vertex-ceiling": 5,
    "delsarte-level-value": 5,
    "delsarte-level-thm22": 5,
}


class TestDelsarteLevelLemma:
    """The cases behind cab._report's Delsarte-level path, kept out of CASES,
    and a data check of the lemma they prove: level delta = q + 1 of a
    tuple with integer r >= 1, s = -a <= -2 and mu > 0 is negative exactly
    when thm22 holds, which is m > 0 and mu < (a-1)(a-m) for k = qa + m."""

    def test_inventory(self):
        assert [case.name for case in LEVEL_CASES] == list(LEVEL_DEGREES)
        assert {case.parameterization for case in LEVEL_CASES} == {"delsarte-level"}
        assert set(LEVEL_DEGREES).isdisjoint(CASE_BY_NAME)

    @pytest.mark.parametrize("case", LEVEL_CASES, ids=lambda c: c.name)
    def test_identity_verifies(self, case):
        assert verify_identity(case)
        assert cleared_degree(case) == LEVEL_DEGREES[case.name]

    @pytest.mark.parametrize("case", LEVEL_CASES, ids=lambda c: c.name)
    def test_every_mutation_fails(self, case):
        count = rhs_term_count(case)
        assert count >= 1
        assert not any(verify_identity_mutated(case, i) for i in range(count))

    @pytest.mark.parametrize("case", LEVEL_CASES, ids=lambda c: c.name)
    def test_random_point_crosscheck(self, case):
        assert random_point_crosscheck(case, trials=100, seed=20261020)

    @pytest.mark.parametrize("case", LEVEL_CASES, ids=lambda c: c.name)
    def test_clearing_is_the_least(self, case):
        # one power of s fewer leaves a denominator
        power = dict(case.clearing).get("s", 0)
        if power:
            fewer = dataclasses.replace(case, clearing=(("s", power - 1),) if power > 1 else ())
            with pytest.raises(ResidualDivisionError):
                cleared_sides(fewer)

    def test_ceiling_has_nonnegative_coefficients(self):
        # q = r + j and a = m + 1 + beta, so mu = ja + m and k = qa + m: the
        # right side of the ceiling case is a polynomial in (r, j, m, beta)
        # with non-negative coefficients, and its terms r^2 m and r^2 beta
        # make it positive for r >= 1 and a = m + 1 + beta >= 2
        r, j, m, beta = (MPoly.var(n) for n in ("r", "j", "m", "beta"))
        a = m + 1 + beta
        sym = {"r": r, "s": -a, "mu": j * a + m, "k": (r + j) * a + m, "q": r + j, "m": m}
        rhs = CASE_BY_LEVEL_NAME["delsarte-level-vertex-ceiling"].rhs(sym)
        assert rhs.terms and min(rhs.terms.values()) > 0
        for name in ("m", "beta"):
            term = MPoly.monomial(1, {"r": 2, name: 1})
            assert (rhs - term).terms.keys() < rhs.terms.keys()

    @staticmethod
    def check_lemma(p: SrgParams, r: int, a: int):
        v, k, lam, mu = p
        q, m = divmod(k, a)
        # _report's answer level, at most q + 2, is below v without a check
        assert q + 2 < v, p
        t22 = _thm22(p, r, -a)
        assert t22 == (m > 0 and mu < (a - 1) * (a - m)), p
        assert (cap_min_over_b(v, k, lam, q + 1)[1] < 0) == t22, p
        return t22

    def test_on_every_scan_row(self):
        # every integer-spectrum row with 0 < mu < k at COUNTING, the rows
        # with lam_bar < 0 among them
        rows = [row for row in _primitive_rows(10000, FeasibilityLevel.COUNTING)
                if row[2] is not None]
        assert len(rows) == 41430
        assert sum(row[0].v - 2 * row[0].k + row[0].mu - 2 < 0 for row in rows) == 1397
        held = Counter(self.check_lemma(p, r, -s) for p, _, r, s in rows)
        assert held[True] > 0 and held[False] > 0

    def test_on_random_tuples(self):
        # r and a up to 10^7, mu a divisor of n = ra(r+1)(a-1) and v from
        # the counting identity; multiplicities are not asked for
        rng = random.Random(42)
        held = Counter()
        for _ in range(600):
            r, a = rng.randint(1, 10**rng.randint(1, 7)), rng.randint(2, 10**rng.randint(1, 7))
            mu = 1
            for x in (r, r + 1, a, a - 1):
                mu *= x if rng.random() < 0.2 else gcd(x, rng.randrange(1, 10**8))
            n = r * a * (r + 1) * (a - 1)
            k = mu + r * a
            p = SrgParams(k + 1 + (r + 1) * (a - 1) + n // mu, k, mu + r - a, mu)
            held[self.check_lemma(p, r, a)] += 1
        assert held[True] > 50 and held[False] > 50

