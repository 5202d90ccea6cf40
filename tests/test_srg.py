import fractions
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from srgbounds.cab import (
    delsarte_bound,
    full_report,
    improved_bound,
    thm22_applies,
    thm51_predicate,
)
from srgbounds.catalog import enumerate_feasible
from srgbounds.quadext import QuadExt
from srgbounds.srg import (
    DegenerateParamsError,
    EdgeRegularParams,
    FeasibilityLevel,
    InfeasibleParamsError,
    SrgParams,
    SrgType,
    _ratio,
    classify,
    complement,
    is_feasible,
    is_sum_of_two_squares,
    parse_params_string,
    spectrum,
)
from test_catalog import enumerate_feasible_bruteforce

PALEY17 = SrgParams(17, 8, 3, 4)
PETERSEN = SrgParams(10, 3, 0, 1)


def multiplicity_message(p: SrgParams) -> str:
    """The oracle for the non-integral multiplicity error: f, g =
    (v-1)/2 -/+ (2k + (v-1)(lam-mu)) / 2(r-s), built from Fractions."""
    d = p.lam - p.mu
    t = isqrt(d * d + 4 * (p.k - p.mu))
    mid = Fraction(p.v - 1, 2)
    shift = Fraction(2 * p.k + (p.v - 1) * d, 2 * t)
    return f"non-integral or negative multiplicities f={mid - shift}, g={mid + shift}"


def params_bounds_check(p: SrgParams) -> tuple[int, int]:
    """Return the slacks (v-2k+lambda, k-lambda-1).

    Zero first slack means complete multipartite; zero second slack means the
    complement is complete multipartite (a disjoint union of cliques).
    """
    p.validate()
    return p.v - 2 * p.k + p.lam, p.k - p.lam - 1


class TestParse:
    def test_commas(self):
        assert parse_params_string("17,8,3,4") == PALEY17

    def test_whitespace(self):
        assert parse_params_string("21 8 3") == EdgeRegularParams(21, 8, 3)

    def test_mixed(self):
        assert parse_params_string(" 10, 3  0,1 ") == PETERSEN

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_params_string("1 2")


class TestValidate:
    def test_counting_identity_enforced(self):
        with pytest.raises(InfeasibleParamsError):
            SrgParams(10, 3, 1, 1).validate()

    def test_good_tuple(self):
        PETERSEN.validate()
        PALEY17.validate()

    def test_edge_regular_ranges(self):
        with pytest.raises(InfeasibleParamsError):
            EdgeRegularParams(5, 5, 0).validate()
        with pytest.raises(InfeasibleParamsError):
            EdgeRegularParams(5, 2, 2).validate()


class TestClassify:
    def test_conference_irrational(self):
        assert classify(PALEY17) is SrgType.TYPE_I_ONLY

    def test_integer_eigenvalues(self):
        assert classify(PETERSEN) is SrgType.TYPE_II_ONLY

    def test_both(self):
        # conference parameters on a square vertex count
        assert classify(SrgParams(9, 4, 1, 2)) is SrgType.BOTH

    def test_neither_raises(self):
        # valid counting tuple whose discriminant is not a perfect square and
        # which is not conference: no strongly regular graph can exist
        with pytest.raises(InfeasibleParamsError):
            classify(SrgParams(11, 5, 2, 2))


class TestSpectrum:
    def test_petersen(self):
        spec = spectrum(PETERSEN)
        assert spec.r == 1 and spec.s == -2
        assert (spec.f, spec.g) == (5, 4)

    def test_paley17(self):
        spec = spectrum(PALEY17)
        assert spec.r == QuadExt.make(Fraction(-1, 2), Fraction(1, 2), 17)
        assert spec.s == QuadExt.make(Fraction(-1, 2), Fraction(-1, 2), 17)
        assert spec.f == spec.g == 8

    def test_trace_identity(self):
        # the traces of I, A and A^2 over every feasible tuple with v <= 500,
        # conference tuples with irrational eigenvalues included
        for p in enumerate_feasible(500):
            spec = spectrum(p)
            assert spec.f + spec.g == p.v - 1
            assert p.k + spec.f * spec.r + spec.g * spec.s == 0
            assert (p.k * p.k + spec.f * spec.r * spec.r + spec.g * spec.s * spec.s
                    == p.v * p.k)

    def test_nonintegral_multiplicities_raise(self):
        # 7 vertices cannot split into disjoint triangles: f = 4/3
        with pytest.raises(InfeasibleParamsError, match="f=4/3, g=14/3"):
            spectrum(SrgParams(7, 2, 1, 0))

    def test_multiplicity_message_matches_fraction_oracle(self):
        # the message prints f, g as Fractions do, without building them.
        # Eigenvalues r >= 1 and s = -a <= -2 give k = mu + ra and
        # lam = mu + r - a, and the counting identity holds exactly when mu
        # divides n = ra(r+1)(a-1), with v = base + mu + n/mu: every such
        # tuple with v <= 700 is tried, whatever its multiplicities
        count = 0
        for a in range(2, 700):
            for r in range(1, 700):
                n = r * a * (r + 1) * (a - 1)
                base = r * a + 1 + (r + 1) * (a - 1)
                if base >= 700:
                    break
                for mu in range(max(1, a - r), 700 - base):
                    if n % mu or base + mu + n // mu > 700:
                        continue
                    p = SrgParams(base + mu + n // mu, mu + r * a, mu + r - a, mu)
                    try:
                        spectrum(p)
                    except InfeasibleParamsError as exc:
                        assert str(exc) == multiplicity_message(p), p
                        count += 1
        assert count == 10437

    def test_ratio_prints_as_fraction(self):
        for n in range(-60, 61):
            for d in range(1, 31):
                assert _ratio(n, d) == str(Fraction(n, d)), (n, d)

    def test_raises_exactly_when_integrality_rejects(self):
        # one spectrum rule: every spectral function and the INTEGRALITY
        # step derive the eigenvalues and multiplicities alike, and the
        # functions raise the same message; the sum-of-two-squares condition
        # is the only rejection they ignore.  Other ValueErrors (irrational
        # eigenvalues for thm22, degenerate parameters) are answers.  The
        # oracle yields every COUNTING tuple, non-square discriminants too
        spectral = {"integral multiplicities", "conference or perfect-square discriminant"}
        functions = (spectrum, full_report, classify, delsarte_bound, thm51_predicate,
                     improved_bound, thm22_applies)
        for p in enumerate_feasible_bruteforce(150, FeasibilityLevel.COUNTING):
            ok, reason = is_feasible(p, FeasibilityLevel.INTEGRALITY)
            errors = set()
            for compute in functions:
                try:
                    compute(p)
                    errors.add(None)
                except InfeasibleParamsError as exc:
                    errors.add(str(exc))
                except ValueError:
                    errors.add(None)
            assert len(errors) == 1, (p, errors)
            assert (errors != {None}) == (not ok and reason in spectral), p

    def test_root_equations(self):
        for p in (PALEY17, PETERSEN, SrgParams(144, 39, 6, 12)):
            spec = spectrum(p)
            assert spec.r + spec.s == p.lam - p.mu
            assert spec.r * spec.s == p.mu - p.k


class TestComplement:
    def test_petersen_complement(self):
        assert complement(PETERSEN) == SrgParams(10, 6, 3, 4)

    def test_involution(self):
        for p in (PETERSEN, PALEY17, SrgParams(50, 7, 0, 1)):
            assert complement(complement(p)) == p

    def test_spectrum_map(self):
        # complement eigenvalues are r_bar = -s-1, s_bar = -r-1
        for p in (PETERSEN, SrgParams(56, 10, 0, 2), SrgParams(144, 39, 6, 12)):
            spec = spectrum(p)
            cspec = spectrum(complement(p))
            assert cspec.r == -spec.s - 1
            assert cspec.s == -spec.r - 1

    def test_disconnected_rejected(self):
        with pytest.raises(DegenerateParamsError):
            complement(SrgParams(10, 4, 3, 0))

    def test_complete_multipartite_rejected(self):
        with pytest.raises(DegenerateParamsError):
            complement(SrgParams(6, 4, 2, 4))


def test_params_bounds_check():
    assert params_bounds_check(PETERSEN) == (4, 2)
    assert params_bounds_check(SrgParams(6, 4, 2, 4)) == (0, 1)
    with pytest.raises(InfeasibleParamsError):
        params_bounds_check(SrgParams(10, 3, 1, 1))


def test_is_sum_of_two_squares():
    # brute force: some a with n - a^2 a perfect square
    for n in range(5000):
        brute = any(isqrt(n - a * a) ** 2 == n - a * a for a in range(isqrt(n) + 1))
        assert is_sum_of_two_squares(n) == brute, n
    assert not is_sum_of_two_squares(-2)
    assert not is_sum_of_two_squares(69)  # 3 * 23
    assert not is_sum_of_two_squares(105)  # 3 * 5 * 7


class TestFeasibility:
    def test_levels_cumulative(self):
        for p in (PETERSEN, PALEY17, SrgParams(9, 4, 1, 2)):
            results = [is_feasible(p, lvl)[0] for lvl in FeasibilityLevel]
            assert results == [True] * 4

    def test_counting_failure(self):
        ok, reason = is_feasible(SrgParams(10, 3, 1, 1), FeasibilityLevel.COUNTING)
        assert not ok and reason == "counting identity"

    def test_integrality_failure(self):
        # counting holds but eigenvalues are neither integral nor conference
        assert is_feasible(SrgParams(11, 5, 2, 2), FeasibilityLevel.COUNTING)[0]
        ok, reason = is_feasible(SrgParams(11, 5, 2, 2), FeasibilityLevel.INTEGRALITY)
        assert not ok and reason == "conference or perfect-square discriminant"

    def test_conference_sum_of_two_squares(self):
        # conference tuple with v = 69 = 3*23: fails integrality, passes counting
        p = SrgParams(69, 34, 16, 17)
        assert is_feasible(p, FeasibilityLevel.COUNTING)[0]
        ok, reason = is_feasible(p, FeasibilityLevel.INTEGRALITY)
        assert not ok and reason == "conference sum of two squares"

    def test_krein_failure(self):
        # complement of a Moore graph candidate violating Krein: (28,9,0,4)
        p = SrgParams(28, 9, 0, 4)
        assert is_feasible(p, FeasibilityLevel.INTEGRALITY)[0]
        ok, reason = is_feasible(p, FeasibilityLevel.KREIN)
        assert not ok and reason.startswith("Krein")

    def test_absolute_bound_failure(self):
        # (50,21,4,12) passes Krein but violates the absolute bound
        p = SrgParams(50, 21, 4, 12)
        assert is_feasible(p, FeasibilityLevel.KREIN)[0]
        ok, reason = is_feasible(p, FeasibilityLevel.ABSOLUTE_BOUND)
        assert not ok and reason.startswith("absolute bound")

    def test_arbitrary_garbage_accepted_as_input(self):
        ok, _ = is_feasible(SrgParams(-3, 100, -1, 7), FeasibilityLevel.ABSOLUTE_BOUND)
        assert not ok

    def test_frc_integrality_consistency(self):
        # For integer-eigenvalue tuples -k/s is rational with denominator
        # dividing |s|, so frc(-k/s) has bounded denominator.
        for p in (PETERSEN, SrgParams(50, 7, 0, 1), SrgParams(144, 39, 6, 12)):
            s = spectrum(p).s.as_fraction()
            ratio = Fraction(p.k) / (-s)
            assert ratio.denominator <= -s


def krein_oracle(p):
    """The Krein and absolute-bound steps of is_feasible for an INTEGRALITY-
    feasible tuple, evaluated in QuadExt arithmetic on the exact spectrum."""
    if p.mu == 0 or p.v - 2 * p.k + p.lam == 0:
        return True, None
    spec = spectrum(p)
    r, s, k = spec.r, spec.s, p.k
    if ((r + 1) * (k + r + 2 * r * s) - (k + r) * (s + 1) * (s + 1)).sign() > 0:
        return False, "Krein 1"
    if ((s + 1) * (k + s + 2 * r * s) - (k + s) * (r + 1) * (r + 1)).sign() > 0:
        return False, "Krein 2"
    if 2 * p.v > spec.f * (spec.f + 3):
        return False, "absolute bound (f)"
    if 2 * p.v > spec.g * (spec.g + 3):
        return False, "absolute bound (g)"
    return True, None


class TestKreinOracle:
    def test_integer_path_matches_quadext(self):
        reasons = Counter()
        for p in enumerate_feasible(1000, FeasibilityLevel.INTEGRALITY):
            want = krein_oracle(p)
            assert is_feasible(p, FeasibilityLevel.ABSOLUTE_BOUND) == want, p
            krein_ok = want[0] or want[1].startswith("absolute")
            assert is_feasible(p, FeasibilityLevel.KREIN) == (
                (True, None) if krein_ok else want), p
            reasons[want[1]] += 1
        assert reasons["Krein 1"] == 234
        assert reasons["Krein 2"] == 66
        assert reasons["absolute bound (f)"] == 43
        assert reasons["absolute bound (g)"] == 43

    def test_irrational_conference_slacks_nonnegative(self):
        # is_feasible accepts these without evaluating the Krein conditions
        count = 0
        for p in enumerate_feasible(1000, FeasibilityLevel.INTEGRALITY):
            if classify(p) is not SrgType.TYPE_I_ONLY:
                continue
            spec = spectrum(p)
            r, s, k = spec.r, spec.s, p.k
            slack1 = (k + r) * (s + 1) * (s + 1) - (r + 1) * (k + r + 2 * r * s)
            slack2 = (k + s) * (r + 1) * (r + 1) - (s + 1) * (k + s + 2 * r * s)
            # the closed forms (v -/+ sqrt(v))(v-5)/8
            root = QuadExt.sqrt(p.v)
            assert slack1 == (p.v - root) * Fraction(p.v - 5, 8), p
            assert slack2 == (p.v + root) * Fraction(p.v - 5, 8), p
            assert slack1.sign() >= 0 and slack2.sign() >= 0, p
            assert 2 * p.v <= spec.f * (spec.f + 3), p
            count += 1
        assert count == 137

    def test_no_quadext_or_fraction_on_the_scan_path(self, monkeypatch):
        tuples = list(enumerate_feasible(500))

        def forbidden(*args, **kwargs):
            raise AssertionError("QuadExt or Fraction built on the scan path")

        monkeypatch.setattr(QuadExt, "__init__", forbidden)
        monkeypatch.setattr(fractions.Fraction, "__new__", forbidden)
        for p in tuples:
            for level in FeasibilityLevel:
                assert is_feasible(p, level) == (True, None), p
            full_report(p)
