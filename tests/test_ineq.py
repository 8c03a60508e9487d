"""Tests for the inequality catalog: example cases, directions, invariants."""

import json
import math

import mpmath
import numpy as np
import pytest

from tracelab import explorer as ex
from tracelab import funclass as fc
from tracelab import ineq
from tracelab import matcore as mc

CX_A = np.diag([1.0, 0.0])
CX_B = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
NOT_PD = "matrix is not strictly PD: min eigenvalue 0.000e+00 below positivity floor 1.000e-08"


def pd_pair(dim, seed, shift=0.1):
    rng = np.random.default_rng(seed)
    a = mc.psd_from_rng(rng, dim, dim)
    b = mc.psd_from_rng(rng, dim, dim)
    bump = shift * np.eye(dim)
    return a + bump, b + bump


def psd_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return mc.psd_from_rng(rng, dim, dim), mc.psd_from_rng(rng, dim, dim)


def pair(case, a, b, q=None, func=None):
    """One trial of a case on a pair (A, B)."""
    return ineq.evaluate_one(case, {"a": a, "b": b}, q, func)


def cd(c, d, q):
    """One COR_ABQ3 trial: C as given, D symmetrised."""
    return ineq.evaluate_one("COR_ABQ3", {"c": c, "d": d}, q)


def blocks(b, c, d, q):
    """One NORM_COMPRESSION trial on A = [[B, C^*], [C, D]]."""
    return ineq.evaluate_one("NORM_COMPRESSION", {"b": b, "c": c, "d": d}, q)


def prop_q4(a, b):
    """(expansion-identity residual, record) of PROP_Q4 on one pair."""
    batch = ineq.evaluate("PROP_Q4", {"a": np.asarray(a, complex)[None], "b": np.asarray(b, complex)[None]})
    return float(batch.residual[0]), batch.records([-1], "direct")[0]


def skipped(rec, reason):
    """The trial lies outside the case: SKIPPED with `reason`, as in a sweep."""
    assert (rec.verdict, rec.reason) == ("SKIPPED", reason)


def mp_sandwich_trace_power(a, b, s, dps=60):
    """trace (A^{1/2} B A^{1/2})^s evaluated in mpmath at `dps` digits."""
    with mpmath.workdps(dps):
        ma, mb = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
        e, q = mpmath.eighe(ma)
        root = q * mpmath.diag([mpmath.sqrt(x) for x in e]) * q.H
        lam = mpmath.eighe(root * mb * root, eigvals_only=True)
        return float(mpmath.fsum(x**s for x in lam))


class TestTrialRecord:
    def test_json_roundtrip(self):
        rec = ineq.evaluate_one("MCCARTHY", {"a": np.eye(2), "b": np.eye(2)}, 2.0, seed=5, ensemble="wishart")
        back = ineq.TrialRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back == rec

    def test_oriented_gap_rule(self):
        assert ineq.oriented_gap("le", 1.0, 3.0) == 2.0
        assert ineq.oriented_gap("ge", 1.0, 3.0) == -2.0
        assert ineq.oriented_gap("eq", 1.0, 3.0) == -2.0

    def test_tolerance_is_relative(self):
        rec = pair("MCCARTHY", 100 * np.eye(3), 100 * np.eye(3), 2.0)
        assert rec.tol == pytest.approx(1e-9 * max(abs(rec.lhs), abs(rec.rhs)))


class TestMcCarthy:
    def test_identity_pair_q2(self):
        rec = pair("MCCARTHY", np.eye(2), np.eye(2), 2.0)
        assert (rec.lhs, rec.rhs, rec.verdict) == (8.0, 4.0, "PASS")

    def test_linearity_at_q1(self):
        a, b = psd_pair(3, 0)
        rec = pair("MCCARTHY", a, b, 1.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_orthogonal_supports_equality(self):
        rec = pair("MCCARTHY", np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
        assert rec.lhs == pytest.approx(2.0) and rec.rhs == pytest.approx(2.0)
        assert rec.verdict == "PASS"

    def test_subadditive_region(self):
        for seed in range(20):
            a, b = psd_pair(3, seed)
            assert pair("MCCARTHY", a, b, 0.5).verdict == "PASS"
            assert pair("MCCARTHY", a, b, 2.0).verdict == "PASS"

    def test_rejects_nonpositive_q(self):
        skipped(pair("MCCARTHY", np.eye(2), np.eye(2), 0.0), "McCarthy inequality needs q > 0, got 0.0")


class TestGoldenThompson:
    def test_commuting_pair_equality(self):
        a, b = np.diag([1.0, 2.0]), np.diag([0.5, 3.0])
        rec = pair("GOLDEN_THOMPSON", a, b, 1.0)
        assert abs(rec.lhs - rec.rhs) <= 1e-10 * max(abs(rec.lhs), 1.0)

    def test_t_zero_gives_dimension(self):
        a, b = psd_pair(3, 1)
        rec = pair("GOLDEN_THOMPSON", a, b, 0.0)
        assert rec.lhs == pytest.approx(3.0) and rec.rhs == pytest.approx(3.0)

    def test_noncommuting_strict_gap(self):
        a, b = psd_pair(3, 2)
        rec = pair("GOLDEN_THOMPSON", a, b, 1.0)
        assert rec.verdict == "PASS"
        assert rec.gap > 0.0

    def test_rejects_negative_t(self):
        skipped(pair("GOLDEN_THOMPSON", np.eye(2), np.eye(2), -1.0), "kernel rate t must be >= 0, got -1.0")

    def test_shifted_inputs_scale_both_sides(self):
        # shifting A and B by -300 I scales both sides by e^{600}, far beyond
        # what either side's unshifted exponentials could hold in sum
        a, b = psd_pair(3, 4)
        base = pair("GOLDEN_THOMPSON", a, b, 1.0)
        shifted = pair("GOLDEN_THOMPSON", a - 300.0 * np.eye(3), b - 300.0 * np.eye(3), 1.0)
        assert shifted.verdict == "PASS"
        assert shifted.lhs == pytest.approx(base.lhs * math.exp(600.0), rel=1e-10)
        assert shifted.rhs == pytest.approx(base.rhs * math.exp(600.0), rel=1e-10)

    def test_negative_directions_apart_stay_finite(self):
        # e^{-t(c+d)} = e^{800} overflows, but both sides are 2 e^{400}
        rec = pair("GOLDEN_THOMPSON", np.diag([-400.0, 0.0]), np.diag([0.0, -400.0]), 1.0)
        assert rec.verdict == "PASS"
        assert rec.lhs == pytest.approx(2.0 * math.exp(400.0), rel=1e-12)
        assert rec.rhs == pytest.approx(2.0 * math.exp(400.0), rel=1e-12)

    @pytest.mark.parametrize("a,b", [
        (np.diag([-800.0, 0.0]), np.array([[1.0, 0.5], [0.5, 1.0]])),
        (np.diag([-500.0, 0.0]), np.diag([-300.0, 1.0])),
    ])
    def test_overflow_is_a_skipped_record(self, a, b):
        # both sides are about e^{800}: no float holds them, and no warning is raised
        skipped(pair("GOLDEN_THOMPSON", a, b, 1.0), "both sides overflow: they scale by exp(800)")


class TestMainTrace:
    def test_quadratic_equalities(self):
        a, b = psd_pair(4, 3)
        for g, expected in (
            (fc.Quadratic(1, 0, 0), -4.0),  # constant: both sides -dim
            (fc.Quadratic(0, 1, 0), 0.0),
            (fc.Quadratic(0, 0, 1), None),
        ):
            rec = pair("MAIN_TRACE", a, b, func=g)
            assert abs(rec.lhs - rec.rhs) <= rec.tol
            if expected is not None:
                assert rec.lhs == pytest.approx(expected, abs=1e-9)

    def test_square_case_is_twice_trace_ab(self):
        a, b = psd_pair(4, 4)
        rec = pair("MAIN_TRACE", a, b, func=fc.Quadratic(0, 0, 1))
        oracle = 2.0 * np.trace(a @ b).real
        assert rec.lhs == pytest.approx(oracle, rel=1e-11)

    def test_cm0_direction_and_sign_chain(self):
        # lhs <= rhs <= 0 for bare completely monotone g on PD pairs
        g = fc.DiscreteMeasureCM0((0.5, 2.0), (1.0, 0.5))
        for seed in range(15):
            a, b = pd_pair(3, seed)
            rec = pair("MAIN_TRACE", a, b, func=g)
            assert rec.verdict == "PASS"
            assert rec.rhs <= rec.tol

    def test_bf2_reversed_with_nonnegative_rhs(self):
        g = fc.DiscreteMeasureBFk(2, (1.0,), (1.0,))
        for seed in range(15):
            a, b = psd_pair(3, seed + 100)
            rec = pair("MAIN_TRACE", a, b, func=g)
            assert rec.verdict == "PASS"
            assert rec.rhs >= -rec.tol

    def test_bf0_bf1_directions(self):
        for seed in range(10):
            a, b = psd_pair(3, seed + 200)
            assert pair("MAIN_TRACE", a, b, func=fc.PowerFunction(0.5)).verdict == "PASS"
            assert pair("MAIN_TRACE", a, b, func=fc.PowerFunction(1.5)).verdict == "PASS"

    def test_rejects_uncovered_class(self):
        a, b = psd_pair(2, 0)
        skipped(pair("MAIN_TRACE", a, b, func=fc.PowerFunction(3.5)), "no trace inequality for class 'BF3'")

    def test_cm0_requires_strict_positivity(self):
        g = fc.DiscreteMeasureCM0((1.0,), (1.0,))
        skipped(pair("MAIN_TRACE", np.diag([1.0, 0.0]), np.eye(2), func=g), NOT_PD)

    def test_projector_completeness(self):
        for seed in range(10):
            a, b = psd_pair(4, seed)
            total = ineq.projector_overlap_total(a, b)
            assert total == pytest.approx(4.0, abs=1e-10)


class TestCorAbq:
    def test_quadratic_equality_q2(self):
        a, b = psd_pair(3, 7)
        rec = pair("COR_ABQ", a, b, 2.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_explicit_pair_boundary_q3(self):
        rec = pair("COR_ABQ", CX_A, CX_B, 3.0)
        assert rec.lhs == pytest.approx(3.0, rel=1e-10)
        assert rec.rhs == pytest.approx(3.0, rel=1e-10)
        assert rec.verdict == "PASS"

    def test_explicit_pair_fails_at_q4(self):
        rec = pair("COR_ABQ", CX_A, CX_B, 4.0)
        assert rec.lhs == pytest.approx(6.5, rel=1e-10)
        assert rec.rhs == pytest.approx(7.0, rel=1e-10)
        assert rec.verdict == "FAIL"

    def test_verdict_regions_on_random_pairs(self):
        for seed in range(15):
            a, b = psd_pair(3, seed + 300)
            for q in (0.5, 1.5, 2.5):
                assert pair("COR_ABQ", a, b, q).verdict == "PASS"
            pa, pb = pd_pair(3, seed + 300)
            assert pair("COR_ABQ", pa, pb, -1.0).verdict == "PASS"

    def test_diagonal_pairs_match_scalar_brute_force(self):
        # independent oracle: eigenvalues are the diagonals, the double sum
        # collapses onto matching indices
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = rng.uniform(0.2, 3.0, 3)
            e = rng.uniform(0.2, 3.0, 3)
            q = float(rng.choice([-1.0, 0.5, 1.5, 2.5]))
            lhs_oracle = float(np.sum((d + e) ** q) - np.sum(d**q) - np.sum(e**q))
            rhs_oracle = (2.0**q - 2.0) * float(np.sum(d ** (q / 2) * e ** (q / 2)))
            rec = pair("COR_ABQ", np.diag(d), np.diag(e), q)
            assert rec.lhs == pytest.approx(lhs_oracle, rel=1e-10, abs=1e-12)
            assert rec.rhs == pytest.approx(rhs_oracle, rel=1e-10, abs=1e-12)

    def test_negative_q_needs_pd(self):
        skipped(pair("COR_ABQ", CX_A, CX_B, -1.0), NOT_PD)


class TestPsdDomain:
    # the power corollaries are stated for PSD A, B at every q (whether or
    # not q/2 is an integer); Golden-Thompson holds for any Hermitian pair
    A = np.diag([1.0, -0.5])
    B = np.array([[2.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
    def test_non_psd_pair_is_outside_the_power_corollaries(self, q):
        for case in ("COR_ABQ", "MCCARTHY"):
            skipped(pair(case, self.A, self.B, q), "matrix is not PSD: min eigenvalue -5.000e-01 (scale 1.000e+00)")
        assert pair("GOLDEN_THOMPSON", self.A, self.B, q).verdict == "PASS"


class TestCorPmean:
    def test_p_one_collapses(self):
        a, b = psd_pair(3, 11)
        rec = pair("COR_PMEAN", a, b, 1.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_equal_matrices(self):
        a, _ = psd_pair(3, 12)
        rec = pair("COR_PMEAN", a, a, 2.0)
        assert rec.lhs == pytest.approx(np.trace(a).real, rel=1e-10)
        assert abs(rec.lhs - rec.rhs) <= 10 * rec.tol

    def test_random_pd_pairs_pass(self):
        # p = 1 is the only equality exponent: elsewhere the bound is strict
        for seed in range(10):
            a, b = pd_pair(3, seed + 400)
            for p in (1.5, 2.0):
                rec = pair("COR_PMEAN", a, b, p)
                assert rec.verdict == "PASS" and rec.gap > rec.tol

    def test_cross_check_against_cor_abq_substitution(self):
        # substituting A -> A^(1/q), B -> B^(1/q), q = 1/p reproduces the
        # power-means bound up to the 2^(-1/p) normalisation
        p = 2.0
        for seed in range(10):
            a, b = pd_pair(3, seed + 500)
            ap = mc.matrix_power(a, p)
            bp = mc.matrix_power(b, p)
            abq = pair("COR_ABQ", ap, bp, 1.0 / p)
            pm = pair("COR_PMEAN", a, b, p)
            scale = 2.0 ** (-1.0 / p)
            # abq: lhs' - rhs' >= 0 with lhs' = tr(A^p+B^p)^(1/p) - tr A - tr B
            lhs_from_abq = scale * (abq.lhs + np.trace(a).real + np.trace(b).real)
            rhs_from_abq = scale * (abq.rhs + np.trace(a).real + np.trace(b).real)
            assert pm.lhs == pytest.approx(lhs_from_abq, rel=1e-9)
            assert pm.rhs == pytest.approx(rhs_from_abq, rel=1e-9)

    def test_rejects_p_below_one(self):
        skipped(pair("COR_PMEAN", np.eye(2), np.eye(2), 0.5), "power-mean corollary needs p >= 1, got 0.5")


class TestCorFaltq:
    def test_equality_q2(self):
        a, b = psd_pair(3, 13)
        rec = pair("COR_FALTQ", a, b, 2.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_explicit_pair_q4_observation(self):
        rec = pair("COR_FALTQ", CX_A, CX_B, 4.0)
        assert rec.lhs == pytest.approx(6.5, rel=1e-10)
        assert rec.rhs == pytest.approx(3.5, rel=1e-10)
        assert rec.verdict == "CONJECTURE_OBS"
        assert rec.gap > 0  # holds in the conjectured sense here

    def test_q0_equality_on_singular_pair(self):
        for seed in range(5):
            a = mc.psd_from_rng(np.random.default_rng(seed + 270), 3, 1)
            b = mc.psd_from_rng(np.random.default_rng(seed + 280), 3, 2)
            assert pair("COR_FALTQ", a, b, 0.0).verdict == "PASS"

    def test_equal_pd_matrices_equality(self):
        a, _ = pd_pair(3, 14)
        for q in (-2.5, 0.7, 1.5, 2.5):
            rec = pair("COR_FALTQ", a, a, q)
            assert abs(rec.lhs - rec.rhs) <= 10 * rec.tol

    def test_verdict_regions(self):
        for seed in range(10):
            a, b = psd_pair(3, seed + 600)
            for q in (0.5, 1.5, 2.5):
                assert pair("COR_FALTQ", a, b, q).verdict == "PASS"
            pa, pb = pd_pair(3, seed + 600)
            assert pair("COR_FALTQ", pa, pb, -3.0).verdict == "PASS"

    def test_conjecture_region_never_fails(self):
        for seed in range(5):
            pa, pb = pd_pair(2, seed + 650)
            assert pair("COR_FALTQ", pa, pb, -1.0).verdict == "CONJECTURE_OBS"
            a, b = psd_pair(2, seed + 650)
            assert pair("COR_FALTQ", a, b, 5.0).verdict == "CONJECTURE_OBS"

    def test_proof_chain_side_ordering(self):
        # ALT composed with the 2^q-2 sign puts the FALTQ bound on the far
        # side of the ABQ bound in every verdict region
        for seed in range(8):
            pa, pb = pd_pair(3, seed + 700)
            for q in (-3.0, 0.5, 1.5, 2.5):
                abq = pair("COR_ABQ", pa, pb, q)
                faltq = pair("COR_FALTQ", pa, pb, q)
                alt = pair("ALT", pa, pb, q)
                assert abq.verdict == faltq.verdict == alt.verdict == "PASS"
                tol = 1e-9 * max(abs(abq.rhs), abs(faltq.rhs), 1.0)
                if q in (0.5,):  # coefficient negative, ALT "<=": rhs shrinks
                    assert faltq.rhs <= abq.rhs + tol
                elif q in (1.5,):  # coefficient positive, ALT "<=": rhs grows
                    assert faltq.rhs >= abq.rhs - tol
                elif q in (2.5,):  # coefficient positive, ALT ">=": rhs shrinks
                    assert faltq.rhs <= abq.rhs + tol
                else:  # q <= -2: coefficient negative, ALT ">=": rhs grows
                    assert faltq.rhs >= abq.rhs - tol


class TestNegativeSandwichPowers:
    # A^{1/2} B A^{1/2} carries the product of the factors' condition numbers;
    # only A and B themselves are held to the positivity floor.
    def test_graded_equality_pair(self):
        a = np.diag([1.0, 1e-5])
        recs = [pair("COR_FALTQ", a, a, q) for q in (-3.0, -2.0)] + [pair("ALT", a, a, -1.0)]
        for rec in recs:
            assert rec.verdict == "PASS"
            assert abs(rec.gap) <= rec.tol

    def test_inverse_sandwich_keeps_small_eigenvalues(self):
        # A^{-1/2} B^{-1} A^{-1/2} = diag(1, 1e14): its eigenvalue 1 lies
        # below 1e-12 of the largest and must still count
        a = np.diag([1.0, 1e-7])
        rec = pair("ALT", a, a, -1.0)
        assert rec.verdict == "PASS"
        assert abs(rec.gap) <= rec.tol
        assert rec.rhs == pytest.approx(1e7 + 1.0, rel=1e-12)
        # A = B: both sides equal (2^q - 2) trace A^q, so the exact gap is 0
        rec = pair("COR_FALTQ", a, a, -1.0)
        assert abs(rec.gap) <= rec.tol

    def test_rotated_commuting_pairs(self):
        # A and B share eigenvectors, so ALT is an equality at every q; the
        # spectra span up to 1e8, and A^{q/2}, B^{q/2} built as matrices lose
        # digits to cancellation in trace A^{q/2} B^{q/2}
        for seed in range(400):
            rng = np.random.default_rng(seed)
            u = mc.unitary(mc.random_complex_gaussian(rng, 3, 3))
            la = 10 ** rng.uniform(-7.9, 0.0, size=3)
            lb = 10 ** rng.uniform(-7.9, 0.0, size=3)
            a, b = (u * la) @ u.conj().T, (u * lb) @ u.conj().T
            for q in (-3.0, -1.0, -0.5):
                rec = pair("ALT", a, b, q)
                assert rec.verdict == "PASS"
                assert abs(rec.gap) <= rec.tol

    def test_ill_conditioned_wishart_draw(self):
        # factor spectra [3.0e-4, 9.44] and [4.8e-5, 5.47]: the sandwich's
        # smallest eigenvalue sits below a floor applied to the sandwich
        rng = np.random.default_rng(41983405767839000)
        a = mc.random_ensemble("wishart", 3, rng)
        b = mc.random_ensemble("wishart", 3, rng)
        rec = pair("COR_FALTQ", a, b, -3.0)
        assert rec.verdict == "PASS"
        expected = (2.0**-3.0 - 2.0) * mp_sandwich_trace_power(a, b, -1.5)
        assert abs(rec.rhs - expected) <= 1e-8 * abs(expected)


class TestPositiveSandwichPowers:
    # For s >= 0, trace (A^{1/2} B A^{1/2})^s is summed over the singular
    # values of B^{1/2} A^{1/2}: the sandwich's own eigenvalues carry an
    # absolute error of about eps * lambda_max, and snapping that noise to
    # zero dropped genuine small eigenvalues.
    def test_small_eigenvalue_is_kept(self):
        a = np.diag([1.0, 1e-7])
        alt = pair("ALT", a, a, 0.5)
        assert alt.rhs == pytest.approx(1.0 + 1e-7**0.5, rel=1e-12)
        for rec in (alt, pair("COR_FALTQ", a, a, 0.5)):
            assert rec.verdict == "PASS"
            assert abs(rec.gap) <= rec.tol

    def test_rotated_commuting_pairs(self):
        # commuting pairs make ALT an equality at every q, and COR_FALTQ one
        # at A = B; spectra reach down to 1e-8 and every third A is singular
        for seed in range(300):
            rng = np.random.default_rng(seed)
            dim = 2 + seed % 3
            u = mc.unitary(mc.random_complex_gaussian(rng, dim, dim))
            la = 10 ** rng.uniform(-8.0, 0.0, size=dim)
            lb = 10 ** rng.uniform(-8.0, 0.0, size=dim)
            if seed % 3 == 0:
                la[0] = 0.0
            a, b = (u * la) @ u.conj().T, (u * lb) @ u.conj().T
            recs = [pair("ALT", a, b, q) for q in (0.5, 1.0)] + [pair("COR_FALTQ", a, a, 0.5)]
            for rec in recs:
                assert rec.verdict == "PASS"
                assert abs(rec.gap) <= rec.tol


class TestAlt:
    def test_equality_at_two(self):
        a, b = psd_pair(3, 15)
        rec = pair("ALT", a, b, 2.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_commuting_equality(self):
        d = np.diag([0.5, 1.0, 2.0])
        e = np.diag([1.5, 0.7, 3.0])
        for q in (-3.0, -1.0, 0.5, 1.0, 3.0):
            rec = pair("ALT", d, e, q)
            assert abs(rec.lhs - rec.rhs) <= 10 * rec.tol

    def test_directions(self):
        for seed in range(10):
            a, b = pd_pair(3, seed + 800)
            for q in (-3.0, -1.0, 0.5, 1.0, 2.5, 4.0):
                assert pair("ALT", a, b, q).verdict == "PASS"

    def test_q0_equality_on_singular_pair(self):
        # q = 0 takes the s >= 0 (square root) form, which needs no positivity
        for seed in range(5):
            a = mc.psd_from_rng(np.random.default_rng(seed + 850), 3, 1)
            b = mc.psd_from_rng(np.random.default_rng(seed + 860), 3, 2)
            assert pair("ALT", a, b, 0.0).verdict == "PASS"


class TestPropQ4:
    def test_identity_matrices(self):
        residual, rec = prop_q4(np.eye(2), np.eye(2))
        assert residual <= 1e-12
        assert rec.q == 4.0
        assert rec.lhs == pytest.approx(28.0)
        assert rec.rhs == pytest.approx(24.0)
        assert rec.verdict == "PASS"

    def test_zero_summand(self):
        residual, rec = prop_q4(mc.psd_from_rng(np.random.default_rng(1), 3, 3), np.zeros((3, 3)))
        assert residual <= 1e-9
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)

    def test_random_pairs(self):
        for seed in range(20):
            a, b = psd_pair(4, seed + 900)
            residual, rec = prop_q4(a, b)
            scale = max(abs(rec.lhs), abs(rec.rhs), 1.0)
            assert residual <= 1e-9 * scale
            assert rec.verdict == "PASS"


    def test_records_carry_the_fixed_exponent(self):
        # the kernel takes its exponent from the entry's fixed_q, whatever
        # q the caller passes, and the record reports it
        a, b = psd_pair(3, 950)
        rec = pair("PROP_Q4", a, b, 2.0)
        lam = [np.linalg.eigvalsh(m) for m in (a + b, a, b)]
        assert (rec.q, rec.verdict) == (4.0, "PASS")
        assert rec.lhs == pytest.approx(np.sum(lam[0] ** 4) - np.sum(lam[1] ** 4) - np.sum(lam[2] ** 4), rel=1e-12)
        plan = ex.SweepPlan("PROP_Q4", (None,), (2,), trials_per_cell=3)
        assert {r.q for r in ex.sweep_records(plan)} == {4.0}


class TestCorAbq3:
    def test_zero_off_diagonal_block(self):
        d = mc.psd_from_rng(np.random.default_rng(31), 2, 2)
        d = d + 0.2 * np.eye(2)
        rec = cd(np.zeros((2, 2)), d, 1.5)
        assert abs(rec.lhs) <= rec.tol and abs(rec.rhs) <= rec.tol

    def test_scalar_blocks_equality(self):
        # C = D = 1: the block matrix is [[1,1],[1,1]] with spectrum {2, 0}
        for q in (0.5, 1.5, 2.5):
            rec = cd(np.array([[1.0]]), np.array([[1.0]]), q)
            assert rec.lhs == pytest.approx(2.0**q - 2.0, rel=1e-10)
            assert rec.rhs == pytest.approx(2.0**q - 2.0, rel=1e-10)

    def test_random_direction_q15(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 1000)
            c = mc.random_complex_gaussian(rng, 2, 2)
            d = mc.psd_from_rng(rng, 2, 2) + 0.2 * np.eye(2)
            assert cd(c, d, 1.5).verdict == "PASS"

    def test_substitution_matches_faltq(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 1100)
            c = mc.random_complex_gaussian(rng, 2, 2)
            d = mc.psd_from_rng(rng, 2, 2) + 0.2 * np.eye(2)
            dih = mc.matrix_power(d, -0.5)
            a_sub = dih @ c @ c.conj().T @ dih
            for q in (-2.5, 0.5, 1.5, 2.5):
                r1 = cd(c, d, q)
                r2 = pair("COR_FALTQ", a_sub, d, q)
                scale = max(abs(r1.lhs), abs(r1.rhs), 1.0)
                assert abs(r1.lhs - r2.lhs) <= 1e-9 * scale
                assert abs(r1.rhs - r2.rhs) <= 1e-9 * scale

    def test_requires_pd_d(self):
        skipped(cd(np.eye(2), np.diag([1.0, 0.0]), 1.5), NOT_PD)

    def test_q0_equality(self):
        # trace Z^0 counts the dim nonzero eigenvalues of the rank-dim Z, not
        # its zeros: lhs = dim - dim - dim = rhs
        for dim in (2, 3, 4):
            rng = np.random.default_rng(dim + 1150)
            c = mc.random_complex_gaussian(rng, dim, dim)
            d = mc.psd_from_rng(rng, dim, dim) + 0.2 * np.eye(dim)
            rec = cd(c, d, 0.0)
            assert (rec.verdict, rec.lhs, rec.rhs) == ("PASS", -dim, -dim)


class TestZSpectrum:
    def test_zero_block(self):
        d = mc.psd_from_rng(np.random.default_rng(41), 2, 2) + 0.3 * np.eye(2)
        assert ineq.z_spectrum_check(np.zeros((2, 2)), d) <= 1e-9

    def test_scalar_blocks(self):
        assert ineq.z_spectrum_check(np.array([[1.0]]), np.array([[1.0]])) <= 1e-12

    def test_random_blocks(self):
        for seed in range(20):
            rng = np.random.default_rng(seed + 1200)
            c = mc.random_complex_gaussian(rng, 2, 2)
            d = mc.psd_from_rng(rng, 2, 2) + 0.2 * np.eye(2)
            lam = mc.eigh(mc.assemble_blocks(ineq._z_block(c, d)[1], c, d)).eigenvalues
            scale = max(1.0, float(np.max(np.abs(lam))))
            assert ineq.z_spectrum_check(c, d) <= 1e-9 * scale


class TestNormCompression:
    def test_zero_c_additivity(self):
        b = mc.psd_from_rng(np.random.default_rng(51), 2, 2)
        d = mc.psd_from_rng(np.random.default_rng(52), 2, 2)
        rec = blocks(b, np.zeros((2, 2)), d, 1.7)
        direct = np.sum(np.linalg.eigvalsh(b) ** 1.7) + np.sum(np.linalg.eigvalsh(d) ** 1.7)
        assert rec.lhs == pytest.approx(direct, rel=1e-10)
        assert rec.rhs == pytest.approx(direct, rel=1e-10)

    def test_all_blocks_equal_psd(self):
        x = mc.psd_from_rng(np.random.default_rng(53), 2, 2)
        for q in (0.5, 1.3, 2.5):
            rec = blocks(x, x, x, q)
            expected = 2.0**q * np.sum(np.linalg.eigvalsh(x) ** q)
            assert rec.lhs == pytest.approx(expected, rel=1e-9)
            assert rec.rhs == pytest.approx(expected, rel=1e-9)

    def test_random_partition_direction(self):
        for seed in range(10):
            whole = mc.psd_from_rng(np.random.default_rng(seed + 1300), 4, 4)
            b, c, d = whole[:2, :2], whole[2:, :2], whole[2:, 2:]
            for q in (0.5, 1.5, 2.5):
                assert blocks(b, c, d, q).verdict == "PASS"
            assert blocks(b, c, d, 4.0).verdict == "CONJECTURE_OBS"

    def test_unequal_block_sizes(self):
        whole = mc.psd_from_rng(np.random.default_rng(1350), 5, 5)
        b, c, d = whole[:2, :2], whole[2:, :2], whole[2:, 2:]
        q = 1.5
        rec = blocks(b, c, d, q)
        beta, gamma, delta = (np.sum(np.linalg.svd(m, compute_uv=False) ** q) for m in (b, c, d))
        assert (rec.dim, rec.verdict) == (5, "PASS")
        assert rec.lhs == pytest.approx(np.sum(np.linalg.eigvalsh(whole) ** q), rel=1e-12)
        assert rec.rhs == pytest.approx((2.0**q - 2.0) * gamma + beta + delta, rel=1e-12)

    def test_rejects_non_psd_assembly(self):
        rec = blocks(np.eye(1), np.array([[5.0]]), np.eye(1), 1.5)
        skipped(rec, "matrix is not PSD: min eigenvalue -4.000e+00 (scale 6.000e+00)")

    def test_rejects_nonpositive_q(self):
        for q in (-1.0, 0.0):
            skipped(blocks(np.eye(1), np.zeros((1, 1)), np.eye(1), q), f"norm compression needs q > 0, got {q}")


class TestTraceSubadd:
    def test_exponential_with_zero_summand(self):
        a = mc.psd_from_rng(np.random.default_rng(61), 3, 3)
        g = fc.ExpKernel(1.0, 1)
        rec = pair("TRACE_SUBADD", a, np.zeros((3, 3)), func=g)
        assert rec.verdict == "PASS"
        assert rec.rhs == pytest.approx(rec.lhs + 3.0, rel=1e-10)

    def test_superadditive_power(self):
        rec = pair("TRACE_SUBADD", np.eye(2), np.eye(2), func=fc.PowerFunction(2.5))
        assert rec.lhs == pytest.approx(2.0**2.5 * 2.0, rel=1e-12)
        assert rec.rhs == pytest.approx(4.0)
        assert rec.verdict == "PASS"

    def test_commuting_reduces_to_scalar_lemma(self):
        g = fc.DiscreteMeasureBFk(0, (1.0, 3.0), (1.0, 0.5))
        d = np.diag([0.3, 1.2, 2.0])
        e = np.diag([0.9, 0.1, 1.4])
        rec = pair("TRACE_SUBADD", d, e, func=g)
        oracle = float(
            np.sum(g(np.diag(d))) + np.sum(g(np.diag(e))) - np.sum(g(np.diag(d) + np.diag(e)))
        )
        assert rec.gap == pytest.approx(oracle, rel=1e-10, abs=1e-12)
        assert rec.verdict == "PASS"

    def test_directions_random(self):
        for seed in range(10):
            a, b = psd_pair(3, seed + 1400)
            assert pair("TRACE_SUBADD", a, b, func=fc.PowerFunction(0.5)).verdict == "PASS"
            assert pair("TRACE_SUBADD", a, b, func=fc.DiscreteMeasureBFk(1, (1.0,), (1.0,))).verdict == "PASS"
            pa, pb = pd_pair(3, seed + 1400)
            assert pair("TRACE_SUBADD", pa, pb, func=fc.PowerFunction(-0.5)).verdict == "PASS"

    def test_rejects_quadratic(self):
        rec = pair("TRACE_SUBADD", np.eye(2), np.eye(2), func=fc.Quadratic(0, 0, 1))
        skipped(rec, "trace sub/superadditivity undefined for class 'quadratic'")


class TestEvaluateOne:
    def test_inputs_symmetrised_by_key(self):
        # a Hermitian input is read as its Hermitian part where it enters;
        # the general block C is kept as given
        raw = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
        b = np.diag([0.5, 2.0])
        rec = pair("GOLDEN_THOMPSON", raw, b, 1.0)
        assert rec.to_json() == pair("GOLDEN_THOMPSON", mc.hermitian_part(raw.astype(complex)), b, 1.0).to_json()
        # C = [[0, 1], [0, 0]] has singular values (1, 0), its Hermitian part
        # (1/2, 1/2).  With D = diag(1, 2), X = diag(0, 1) and Z's nonzero
        # spectrum is {2, 2}: lhs = 2^(q+1) - 1 - (1 + 2^q) = 2^q - 2 = rhs
        rec = cd(np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 2.0]), 1.5)
        assert rec.rhs == pytest.approx(2.0**1.5 - 2.0, rel=1e-12)
        assert rec.lhs == pytest.approx(2.0**1.5 - 2.0, rel=1e-12)


GRID_CASES = [name for name, entry in ineq.CASES.items() if entry.grid]
FUNC_CASES = [name for name, entry in ineq.CASES.items() if entry.funcs]


LE, GE, EQ = ("le", ineq.VERDICT), ("ge", ineq.VERDICT), ("eq", ineq.VERDICT)
LE_OBS, GE_OBS = ("le", ineq.CONJECTURE), ("ge", ineq.CONJECTURE)
# case -> (parameter, direction and mode, or None outside the case), from the
# paper's statements as the comments on the CASES entries give them
DIRECTIONS = {
    "MCCARTHY": [(-1.0, None), (0.0, None), (0.5, LE), (1.0, EQ), (1.5, GE), (5.0, GE)],
    "GOLDEN_THOMPSON": [(-0.5, None), (0.0, LE), (2.5, LE)],
    "COR_PMEAN": [(0.5, None), (1.0, EQ), (1.5, GE), (4.0, GE)],
    "COR_ABQ": [
        (-2.5, LE), (0.0, EQ), (0.5, GE), (1.0, EQ), (1.5, LE), (2.0, EQ), (2.5, GE), (3.0, GE), (3.5, GE),
    ],
    "COR_FALTQ": [
        (-3.0, LE), (-2.0, LE), (-1.5, LE_OBS), (0.0, EQ), (0.5, GE), (1.0, EQ), (1.5, LE), (2.0, EQ),
        (2.5, GE), (3.0, GE), (3.5, GE_OBS),
    ],
    "COR_ABQ3": [(-2.5, LE), (-0.5, LE_OBS), (0.5, GE), (1.5, LE), (2.5, GE), (4.0, GE_OBS)],
    "ALT": [(-3.0, GE), (-2.5, GE), (-2.0, EQ), (-1.5, LE), (0.0, EQ), (0.5, LE), (2.0, EQ), (2.5, GE)],
    "NORM_COMPRESSION": [
        (-1.0, None), (0.0, None), (0.5, GE), (1.0, EQ), (1.5, LE), (2.0, EQ), (2.5, GE), (3.0, GE), (3.5, GE_OBS),
    ],
    "PROP_Q4": [(4.0, GE)],
}


class TestCaseGrids:
    # verify runs each case over its grid in verdict mode: conjecture
    # regions are probe-only
    def test_grid_and_func_cases_cover_the_catalog(self):
        fixed = {name for name, entry in ineq.CASES.items() if entry.fixed_q is not None}
        assert set(GRID_CASES) | set(FUNC_CASES) | fixed == set(ineq.CASES)

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_grids_are_strictly_increasing(self, case):
        # a repeated exponent would run one cell twice and take its trials
        # from the others; records stream in grid order
        entry = ineq.CASES[case]
        for grid in (entry.grid, *entry.probes.values()):
            assert list(grid) == sorted(set(grid))

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_every_grid_point_is_a_verdict_exponent(self, case):
        entry = ineq.CASES[case]
        assert [entry.rule(q)[1] for q in entry.grid] == [ineq.VERDICT] * len(entry.grid)

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_every_verdict_span_holds_a_grid_point(self, case):
        rule = ineq.CASES[case].rule
        verdict_spans = {i for i, (_, _, mode) in enumerate(rule.spans) if mode == ineq.VERDICT}
        assert verdict_spans <= {rule.span(q) for q in ineq.CASES[case].grid}

    @pytest.mark.parametrize("case,points", sorted(DIRECTIONS.items()))
    def test_direction_rules_follow_the_stated_regions(self, case, points):
        # inside every span and on its boundaries, off the verify grids too
        rule = ineq.CASES[case].rule
        for q, expected in points:
            if expected is None:
                with pytest.raises(mc.DomainError):
                    rule(q)
            else:
                assert rule(q) == expected, q

    @pytest.mark.parametrize("case", sorted(DIRECTIONS))
    def test_a_nan_parameter_is_outside_every_case(self, case):
        # NaN falls in no span; +-inf fall in the outer spans
        with pytest.raises(mc.DomainError, match="must be a number, got nan"):
            ineq.CASES[case].rule(math.nan)

    def test_a_nan_rate_skips_golden_thompson(self):
        skipped(pair("GOLDEN_THOMPSON", np.eye(2), np.eye(2), math.nan), "the parameter must be a number, got nan")

    @pytest.mark.parametrize("case", FUNC_CASES)
    def test_every_verify_function_is_in_verdict_mode(self, case):
        entry = ineq.CASES[case]
        assert [entry.rule(g)[1] for g in entry.funcs] == [ineq.VERDICT] * len(entry.funcs)
