"""Tests for the inequality catalog: example cases, directions, invariants."""

import json
import math

import mpmath
import numpy as np
import pytest

from tracelab import funclass as fc
from tracelab import ineq
from tracelab import matcore as mc
from tracelab.matcore import DomainError, HermitianMatrix

CX_A = np.diag([1.0, 0.0])
CX_B = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])


def pd_pair(dim, seed, shift=0.1):
    rng = np.random.default_rng(seed)
    a = mc.psd_from_rng(rng, dim, dim)
    b = mc.psd_from_rng(rng, dim, dim)
    bump = shift * np.eye(dim)
    return HermitianMatrix(a.entries + bump), HermitianMatrix(b.entries + bump)


def psd_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return mc.psd_from_rng(rng, dim, dim), mc.psd_from_rng(rng, dim, dim)


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
        rec = ineq.mccarthy_gap(np.eye(2), np.eye(2), 2.0, seed=5, ensemble="wishart")
        back = ineq.TrialRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back == rec

    def test_oriented_gap_rule(self):
        assert ineq.oriented_gap("le", 1.0, 3.0) == 2.0
        assert ineq.oriented_gap("ge", 1.0, 3.0) == -2.0
        assert ineq.oriented_gap("eq", 1.0, 3.0) == -2.0

    def test_tolerance_is_relative(self):
        rec = ineq.mccarthy_gap(100 * np.eye(3), 100 * np.eye(3), 2.0)
        assert rec.tol == pytest.approx(1e-9 * max(abs(rec.lhs), abs(rec.rhs)))


class TestMcCarthy:
    def test_identity_pair_q2(self):
        rec = ineq.mccarthy_gap(np.eye(2), np.eye(2), 2.0)
        assert (rec.lhs, rec.rhs, rec.verdict) == (8.0, 4.0, "PASS")

    def test_linearity_at_q1(self):
        a, b = psd_pair(3, 0)
        rec = ineq.mccarthy_gap(a, b, 1.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_orthogonal_supports_equality(self):
        rec = ineq.mccarthy_gap(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
        assert rec.lhs == pytest.approx(2.0) and rec.rhs == pytest.approx(2.0)
        assert rec.verdict == "PASS"

    def test_subadditive_region(self):
        for seed in range(20):
            a, b = psd_pair(3, seed)
            assert ineq.mccarthy_gap(a, b, 0.5).verdict == "PASS"
            assert ineq.mccarthy_gap(a, b, 2.0).verdict == "PASS"

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            ineq.mccarthy_gap(np.eye(2), np.eye(2), 0.0)


class TestGoldenThompson:
    def test_commuting_pair_equality(self):
        a, b = np.diag([1.0, 2.0]), np.diag([0.5, 3.0])
        rec = ineq.golden_thompson_gap(a, b, 1.0)
        assert abs(rec.lhs - rec.rhs) <= 1e-10 * max(abs(rec.lhs), 1.0)

    def test_t_zero_gives_dimension(self):
        a, b = psd_pair(3, 1)
        rec = ineq.golden_thompson_gap(a, b, 0.0)
        assert rec.lhs == pytest.approx(3.0) and rec.rhs == pytest.approx(3.0)

    def test_noncommuting_strict_gap(self):
        a, b = psd_pair(3, 2)
        rec = ineq.golden_thompson_gap(a, b, 1.0)
        assert rec.verdict == "PASS"
        assert rec.gap > 0.0

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            ineq.golden_thompson_gap(np.eye(2), np.eye(2), -1.0)


class TestMainTrace:
    def test_quadratic_equalities(self):
        a, b = psd_pair(4, 3)
        for g, expected in (
            (fc.Quadratic(1, 0, 0), -4.0),  # constant: both sides -dim
            (fc.Quadratic(0, 1, 0), 0.0),
            (fc.Quadratic(0, 0, 1), None),
        ):
            rec = ineq.main_trace_ineq(g, a, b)
            assert abs(rec.lhs - rec.rhs) <= rec.tol
            if expected is not None:
                assert rec.lhs == pytest.approx(expected, abs=1e-9)

    def test_square_case_is_twice_trace_ab(self):
        a, b = psd_pair(4, 4)
        rec = ineq.main_trace_ineq(fc.Quadratic(0, 0, 1), a, b)
        oracle = 2.0 * np.trace(a.entries @ b.entries).real
        assert rec.lhs == pytest.approx(oracle, rel=1e-11)

    def test_cm0_direction_and_sign_chain(self):
        # lhs <= rhs <= 0 for bare completely monotone g on PD pairs
        g = fc.DiscreteMeasureCM0((0.5, 2.0), (1.0, 0.5))
        for seed in range(15):
            a, b = pd_pair(3, seed)
            rec = ineq.main_trace_ineq(g, a, b)
            assert rec.verdict == "PASS"
            assert rec.rhs <= rec.tol

    def test_bf2_reversed_with_nonnegative_rhs(self):
        g = fc.DiscreteMeasureBFk(2, (1.0,), (1.0,))
        for seed in range(15):
            a, b = psd_pair(3, seed + 100)
            rec = ineq.main_trace_ineq(g, a, b)
            assert rec.verdict == "PASS"
            assert rec.rhs >= -rec.tol

    def test_bf0_bf1_directions(self):
        for seed in range(10):
            a, b = psd_pair(3, seed + 200)
            assert ineq.main_trace_ineq(fc.PowerFunction(0.5), a, b).verdict == "PASS"
            assert ineq.main_trace_ineq(fc.PowerFunction(1.5), a, b).verdict == "PASS"

    def test_rejects_uncovered_class(self):
        a, b = psd_pair(2, 0)
        with pytest.raises(DomainError):
            ineq.main_trace_ineq(fc.PowerFunction(3.5), a, b)

    def test_cm0_requires_strict_positivity(self):
        g = fc.DiscreteMeasureCM0((1.0,), (1.0,))
        with pytest.raises(DomainError):
            ineq.main_trace_ineq(g, np.diag([1.0, 0.0]), np.eye(2))

    def test_projector_completeness(self):
        for seed in range(10):
            a, b = psd_pair(4, seed)
            total = ineq.projector_overlap_total(a, b)
            assert total == pytest.approx(4.0, abs=1e-10)


class TestCorAbq:
    def test_quadratic_equality_q2(self):
        a, b = psd_pair(3, 7)
        rec = ineq.cor_abq_gap(a, b, 2.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_explicit_pair_boundary_q3(self):
        rec = ineq.cor_abq_gap(CX_A, CX_B, 3.0)
        assert rec.lhs == pytest.approx(3.0, rel=1e-10)
        assert rec.rhs == pytest.approx(3.0, rel=1e-10)
        assert rec.verdict == "PASS"

    def test_explicit_pair_fails_at_q4(self):
        rec = ineq.cor_abq_gap(CX_A, CX_B, 4.0)
        assert rec.lhs == pytest.approx(6.5, rel=1e-10)
        assert rec.rhs == pytest.approx(7.0, rel=1e-10)
        assert rec.verdict == "FAIL"

    def test_verdict_regions_on_random_pairs(self):
        for seed in range(15):
            a, b = psd_pair(3, seed + 300)
            for q in (0.5, 1.5, 2.5):
                assert ineq.cor_abq_gap(a, b, q).verdict == "PASS"
            pa, pb = pd_pair(3, seed + 300)
            assert ineq.cor_abq_gap(pa, pb, -1.0).verdict == "PASS"

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
            rec = ineq.cor_abq_gap(np.diag(d), np.diag(e), q)
            assert rec.lhs == pytest.approx(lhs_oracle, rel=1e-10, abs=1e-12)
            assert rec.rhs == pytest.approx(rhs_oracle, rel=1e-10, abs=1e-12)

    def test_negative_q_needs_pd(self):
        with pytest.raises(DomainError):
            ineq.cor_abq_gap(CX_A, CX_B, -1.0)


class TestCorPmean:
    def test_p_one_collapses(self):
        a, b = psd_pair(3, 11)
        rec = ineq.cor_pmean_gap(a, b, 1.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_equal_matrices(self):
        a, _ = psd_pair(3, 12)
        rec = ineq.cor_pmean_gap(a, a, 2.0)
        assert rec.lhs == pytest.approx(np.trace(a.entries).real, rel=1e-10)
        assert abs(rec.lhs - rec.rhs) <= 10 * rec.tol

    def test_random_pd_pairs_pass(self):
        for seed in range(10):
            a, b = pd_pair(3, seed + 400)
            assert ineq.cor_pmean_gap(a, b, 2.0).verdict == "PASS"

    def test_cross_check_against_cor_abq_substitution(self):
        # substituting A -> A^(1/q), B -> B^(1/q), q = 1/p reproduces the
        # power-means bound up to the 2^(-1/p) normalisation
        p = 2.0
        for seed in range(10):
            a, b = pd_pair(3, seed + 500)
            ap = mc.matrix_power(a, p)
            bp = mc.matrix_power(b, p)
            abq = ineq.cor_abq_gap(ap, bp, 1.0 / p)
            pm = ineq.cor_pmean_gap(a, b, p)
            scale = 2.0 ** (-1.0 / p)
            # abq: lhs' - rhs' >= 0 with lhs' = tr(A^p+B^p)^(1/p) - tr A - tr B
            lhs_from_abq = scale * (abq.lhs + np.trace(a.entries).real + np.trace(b.entries).real)
            rhs_from_abq = scale * (abq.rhs + np.trace(a.entries).real + np.trace(b.entries).real)
            assert pm.lhs == pytest.approx(lhs_from_abq, rel=1e-9)
            assert pm.rhs == pytest.approx(rhs_from_abq, rel=1e-9)

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            ineq.cor_pmean_gap(np.eye(2), np.eye(2), 0.5)


class TestCorFaltq:
    def test_equality_q2(self):
        a, b = psd_pair(3, 13)
        rec = ineq.cor_faltq_gap(a, b, 2.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_explicit_pair_q4_observation(self):
        rec = ineq.cor_faltq_gap(CX_A, CX_B, 4.0)
        assert rec.lhs == pytest.approx(6.5, rel=1e-10)
        assert rec.rhs == pytest.approx(3.5, rel=1e-10)
        assert rec.verdict == "CONJECTURE_OBS"
        assert rec.gap > 0  # holds in the conjectured sense here

    def test_q0_equality_on_singular_pair(self):
        for seed in range(5):
            a = mc.psd_from_rng(np.random.default_rng(seed + 270), 3, 1)
            b = mc.psd_from_rng(np.random.default_rng(seed + 280), 3, 2)
            assert ineq.cor_faltq_gap(a, b, 0.0).verdict == "PASS"

    def test_equal_pd_matrices_equality(self):
        a, _ = pd_pair(3, 14)
        for q in (-2.5, 0.7, 1.5, 2.5):
            rec = ineq.cor_faltq_gap(a, a, q)
            assert abs(rec.lhs - rec.rhs) <= 10 * rec.tol

    def test_verdict_regions(self):
        for seed in range(10):
            a, b = psd_pair(3, seed + 600)
            for q in (0.5, 1.5, 2.5):
                assert ineq.cor_faltq_gap(a, b, q).verdict == "PASS"
            pa, pb = pd_pair(3, seed + 600)
            assert ineq.cor_faltq_gap(pa, pb, -3.0).verdict == "PASS"

    def test_conjecture_region_never_fails(self):
        for seed in range(5):
            pa, pb = pd_pair(2, seed + 650)
            assert ineq.cor_faltq_gap(pa, pb, -1.0).verdict == "CONJECTURE_OBS"
            a, b = psd_pair(2, seed + 650)
            assert ineq.cor_faltq_gap(a, b, 5.0).verdict == "CONJECTURE_OBS"

    def test_proof_chain_side_ordering(self):
        # ALT composed with the 2^q-2 sign puts the FALTQ bound on the far
        # side of the ABQ bound in every verdict region
        for seed in range(8):
            pa, pb = pd_pair(3, seed + 700)
            for q in (-3.0, 0.5, 1.5, 2.5):
                abq = ineq.cor_abq_gap(pa, pb, q)
                faltq = ineq.cor_faltq_gap(pa, pb, q)
                alt = ineq.alt_gap(pa, pb, q)
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
        recs = [ineq.cor_faltq_gap(a, a, q) for q in (-3.0, -2.0)] + [ineq.alt_gap(a, a, -1.0)]
        for rec in recs:
            assert rec.verdict == "PASS"
            assert abs(rec.gap) <= rec.tol

    def test_inverse_sandwich_keeps_small_eigenvalues(self):
        # A^{-1/2} B^{-1} A^{-1/2} = diag(1, 1e14): its eigenvalue 1 lies
        # below 1e-12 of the largest and must still count
        a = np.diag([1.0, 1e-7])
        rec = ineq.alt_gap(a, a, -1.0)
        assert rec.verdict == "PASS"
        assert abs(rec.gap) <= rec.tol
        assert rec.rhs == pytest.approx(1e7 + 1.0, rel=1e-12)
        # A = B: both sides equal (2^q - 2) trace A^q, so the exact gap is 0
        rec = ineq.cor_faltq_gap(a, a, -1.0)
        assert abs(rec.gap) <= rec.tol

    def test_rotated_commuting_pairs(self):
        # A and B share eigenvectors, so ALT is an equality at every q; the
        # spectra span up to 1e8, and A^{q/2}, B^{q/2} built as matrices lose
        # digits to cancellation in trace A^{q/2} B^{q/2}
        for seed in range(400):
            rng = np.random.default_rng(seed)
            u = mc.unitary_from_rng(rng, 3)
            la = 10 ** rng.uniform(-7.9, 0.0, size=3)
            lb = 10 ** rng.uniform(-7.9, 0.0, size=3)
            a, b = (u * la) @ u.conj().T, (u * lb) @ u.conj().T
            for q in (-3.0, -1.0, -0.5):
                rec = ineq.alt_gap(a, b, q)
                assert rec.verdict == "PASS"
                assert abs(rec.gap) <= rec.tol

    def test_ill_conditioned_wishart_draw(self):
        # factor spectra [3.0e-4, 9.44] and [4.8e-5, 5.47]: the sandwich's
        # smallest eigenvalue sits below a floor applied to the sandwich
        rng = np.random.default_rng(41983405767839000)
        a = mc.random_ensemble("wishart", 3, rng)
        b = mc.random_ensemble("wishart", 3, rng)
        rec = ineq.cor_faltq_gap(a, b, -3.0)
        assert rec.verdict == "PASS"
        expected = (2.0**-3.0 - 2.0) * mp_sandwich_trace_power(a.entries, b.entries, -1.5)
        assert abs(rec.rhs - expected) <= 1e-8 * abs(expected)


class TestPositiveSandwichPowers:
    # For s >= 0, trace (A^{1/2} B A^{1/2})^s is summed over the singular
    # values of B^{1/2} A^{1/2}: the sandwich's own eigenvalues carry an
    # absolute error of about eps * lambda_max, and snapping that noise to
    # zero dropped genuine small eigenvalues.
    def test_small_eigenvalue_is_kept(self):
        a = np.diag([1.0, 1e-7])
        alt = ineq.alt_gap(a, a, 0.5)
        assert alt.rhs == pytest.approx(1.0 + 1e-7**0.5, rel=1e-12)
        for rec in (alt, ineq.cor_faltq_gap(a, a, 0.5)):
            assert rec.verdict == "PASS"
            assert abs(rec.gap) <= rec.tol

    def test_rotated_commuting_pairs(self):
        # commuting pairs make ALT an equality at every q, and COR_FALTQ one
        # at A = B; spectra reach down to 1e-8 and every third A is singular
        for seed in range(300):
            rng = np.random.default_rng(seed)
            dim = 2 + seed % 3
            u = mc.unitary_from_rng(rng, dim)
            la = 10 ** rng.uniform(-8.0, 0.0, size=dim)
            lb = 10 ** rng.uniform(-8.0, 0.0, size=dim)
            if seed % 3 == 0:
                la[0] = 0.0
            a, b = (u * la) @ u.conj().T, (u * lb) @ u.conj().T
            recs = [ineq.alt_gap(a, b, q) for q in (0.5, 1.0)] + [ineq.cor_faltq_gap(a, a, 0.5)]
            for rec in recs:
                assert rec.verdict == "PASS"
                assert abs(rec.gap) <= rec.tol


class TestAlt:
    def test_equality_at_two(self):
        a, b = psd_pair(3, 15)
        rec = ineq.alt_gap(a, b, 2.0)
        assert abs(rec.lhs - rec.rhs) <= rec.tol

    def test_commuting_equality(self):
        d = np.diag([0.5, 1.0, 2.0])
        e = np.diag([1.5, 0.7, 3.0])
        for q in (-3.0, -1.0, 0.5, 1.0, 3.0):
            rec = ineq.alt_gap(d, e, q)
            assert abs(rec.lhs - rec.rhs) <= 10 * rec.tol

    def test_directions(self):
        for seed in range(10):
            a, b = pd_pair(3, seed + 800)
            for q in (-3.0, -1.0, 0.5, 1.0, 2.5, 4.0):
                assert ineq.alt_gap(a, b, q).verdict == "PASS"

    def test_q0_equality_on_singular_pair(self):
        # q = 0 takes the s >= 0 (square root) form, which needs no positivity
        for seed in range(5):
            a = mc.psd_from_rng(np.random.default_rng(seed + 850), 3, 1)
            b = mc.psd_from_rng(np.random.default_rng(seed + 860), 3, 2)
            assert ineq.alt_gap(a, b, 0.0).verdict == "PASS"


class TestPropQ4:
    def test_identity_matrices(self):
        residual, rec = ineq.prop_q4_check(np.eye(2), np.eye(2))
        assert residual <= 1e-12
        assert rec.lhs == pytest.approx(28.0)
        assert rec.rhs == pytest.approx(24.0)
        assert rec.verdict == "PASS"

    def test_zero_summand(self):
        residual, rec = ineq.prop_q4_check(mc.psd_from_rng(np.random.default_rng(1), 3, 3), np.zeros((3, 3)))
        assert residual <= 1e-9
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)

    def test_random_pairs(self):
        for seed in range(20):
            a, b = psd_pair(4, seed + 900)
            residual, rec = ineq.prop_q4_check(a, b)
            scale = max(abs(rec.lhs), abs(rec.rhs), 1.0)
            assert residual <= 1e-9 * scale
            assert rec.verdict == "PASS"


class TestCorAbq3:
    def test_zero_off_diagonal_block(self):
        d = mc.psd_from_rng(np.random.default_rng(31), 2, 2)
        d = HermitianMatrix(d.entries + 0.2 * np.eye(2))
        rec = ineq.cor_abq3_gap(np.zeros((2, 2)), d, 1.5)
        assert abs(rec.lhs) <= rec.tol and abs(rec.rhs) <= rec.tol

    def test_scalar_blocks_equality(self):
        # C = D = 1: the block matrix is [[1,1],[1,1]] with spectrum {2, 0}
        for q in (0.5, 1.5, 2.5):
            rec = ineq.cor_abq3_gap(np.array([[1.0]]), np.array([[1.0]]), q)
            assert rec.lhs == pytest.approx(2.0**q - 2.0, rel=1e-10)
            assert rec.rhs == pytest.approx(2.0**q - 2.0, rel=1e-10)

    def test_random_direction_q15(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 1000)
            c = mc.random_complex_gaussian(rng, 2, 2)
            d = HermitianMatrix(mc.psd_from_rng(rng, 2, 2).entries + 0.2 * np.eye(2))
            assert ineq.cor_abq3_gap(c, d, 1.5).verdict == "PASS"

    def test_substitution_matches_faltq(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 1100)
            c = mc.random_complex_gaussian(rng, 2, 2)
            d = HermitianMatrix(mc.psd_from_rng(rng, 2, 2).entries + 0.2 * np.eye(2))
            dih = mc.matrix_power(d, -0.5).entries
            a_sub = HermitianMatrix(dih @ c @ c.conj().T @ dih)
            for q in (-2.5, 0.5, 1.5, 2.5):
                r1 = ineq.cor_abq3_gap(c, d, q)
                r2 = ineq.cor_faltq_gap(a_sub, d, q)
                scale = max(abs(r1.lhs), abs(r1.rhs), 1.0)
                assert abs(r1.lhs - r2.lhs) <= 1e-9 * scale
                assert abs(r1.rhs - r2.rhs) <= 1e-9 * scale

    def test_requires_pd_d(self):
        with pytest.raises(DomainError):
            ineq.cor_abq3_gap(np.eye(2), np.diag([1.0, 0.0]), 1.5)

    def test_q0_equality(self):
        # trace Z^0 counts the dim nonzero eigenvalues of the rank-dim Z, not
        # its zeros: lhs = dim - dim - dim = rhs
        for dim in (2, 3, 4):
            rng = np.random.default_rng(dim + 1150)
            c = mc.random_complex_gaussian(rng, dim, dim)
            d = HermitianMatrix(mc.psd_from_rng(rng, dim, dim).entries + 0.2 * np.eye(dim))
            rec = ineq.cor_abq3_gap(c, d, 0.0)
            assert (rec.verdict, rec.lhs, rec.rhs) == ("PASS", -dim, -dim)


class TestZSpectrum:
    def test_zero_block(self):
        d = HermitianMatrix(mc.psd_from_rng(np.random.default_rng(41), 2, 2).entries + 0.3 * np.eye(2))
        assert ineq.z_spectrum_check(np.zeros((2, 2)), d) <= 1e-9

    def test_scalar_blocks(self):
        assert ineq.z_spectrum_check(np.array([[1.0]]), np.array([[1.0]])) <= 1e-12

    def test_random_blocks(self):
        for seed in range(20):
            rng = np.random.default_rng(seed + 1200)
            c = mc.random_complex_gaussian(rng, 2, 2)
            d = HermitianMatrix(mc.psd_from_rng(rng, 2, 2).entries + 0.2 * np.eye(2))
            lam = mc.eigh(mc.block2x2(ineq._z_block(c, d)[1], c, d)).eigenvalues
            scale = max(1.0, float(np.max(np.abs(lam))))
            assert ineq.z_spectrum_check(c, d) <= 1e-9 * scale


class TestNormCompression:
    def test_zero_c_additivity(self):
        b = mc.psd_from_rng(np.random.default_rng(51), 2, 2)
        d = mc.psd_from_rng(np.random.default_rng(52), 2, 2)
        rec = ineq.norm_compression_gap(b, np.zeros((2, 2)), d, 1.7)
        direct = np.sum(np.linalg.eigvalsh(b.entries) ** 1.7) + np.sum(np.linalg.eigvalsh(d.entries) ** 1.7)
        assert rec.lhs == pytest.approx(direct, rel=1e-10)
        assert rec.rhs == pytest.approx(direct, rel=1e-10)

    def test_all_blocks_equal_psd(self):
        x = mc.psd_from_rng(np.random.default_rng(53), 2, 2)
        for q in (0.5, 1.3, 2.5):
            rec = ineq.norm_compression_gap(x, x.entries, x, q)
            expected = 2.0**q * np.sum(np.linalg.eigvalsh(x.entries) ** q)
            assert rec.lhs == pytest.approx(expected, rel=1e-9)
            assert rec.rhs == pytest.approx(expected, rel=1e-9)

    def test_random_partition_direction(self):
        for seed in range(10):
            whole = mc.psd_from_rng(np.random.default_rng(seed + 1300), 4, 4).entries
            b, c, d = whole[:2, :2], whole[2:, :2], whole[2:, 2:]
            for q in (0.5, 1.5, 2.5):
                assert ineq.norm_compression_gap(b, c, d, q).verdict == "PASS"
            assert ineq.norm_compression_gap(b, c, d, 4.0).verdict == "CONJECTURE_OBS"

    def test_unequal_block_sizes(self):
        whole = mc.psd_from_rng(np.random.default_rng(1350), 5, 5).entries
        b, c, d = whole[:2, :2], whole[2:, :2], whole[2:, 2:]
        q = 1.5
        rec = ineq.norm_compression_gap(b, c, d, q)
        beta, gamma, delta = (np.sum(np.linalg.svd(m, compute_uv=False) ** q) for m in (b, c, d))
        assert (rec.dim, rec.verdict) == (5, "PASS")
        assert rec.lhs == pytest.approx(np.sum(np.linalg.eigvalsh(whole) ** q), rel=1e-12)
        assert rec.rhs == pytest.approx((2.0**q - 2.0) * gamma + beta + delta, rel=1e-12)

    def test_rejects_non_psd_assembly(self):
        with pytest.raises(DomainError):
            ineq.norm_compression_gap(np.eye(1), np.array([[5.0]]), np.eye(1), 1.5)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            ineq.norm_compression_gap(np.eye(1), np.zeros((1, 1)), np.eye(1), -1.0)


class TestTraceSubadd:
    def test_exponential_with_zero_summand(self):
        a = mc.psd_from_rng(np.random.default_rng(61), 3, 3)
        g = fc.ExpKernel(1.0, 1)
        rec = ineq.trace_subadd_gap(g, a, np.zeros((3, 3)))
        assert rec.verdict == "PASS"
        assert rec.rhs == pytest.approx(rec.lhs + 3.0, rel=1e-10)

    def test_superadditive_power(self):
        rec = ineq.trace_subadd_gap(fc.PowerFunction(2.5), np.eye(2), np.eye(2))
        assert rec.lhs == pytest.approx(2.0**2.5 * 2.0, rel=1e-12)
        assert rec.rhs == pytest.approx(4.0)
        assert rec.verdict == "PASS"

    def test_commuting_reduces_to_scalar_lemma(self):
        g = fc.DiscreteMeasureBFk(0, (1.0, 3.0), (1.0, 0.5))
        d = np.diag([0.3, 1.2, 2.0])
        e = np.diag([0.9, 0.1, 1.4])
        rec = ineq.trace_subadd_gap(g, d, e)
        oracle = float(
            np.sum(g(np.diag(d))) + np.sum(g(np.diag(e))) - np.sum(g(np.diag(d) + np.diag(e)))
        )
        assert rec.gap == pytest.approx(oracle, rel=1e-10, abs=1e-12)
        assert rec.verdict == "PASS"

    def test_directions_random(self):
        for seed in range(10):
            a, b = psd_pair(3, seed + 1400)
            assert ineq.trace_subadd_gap(fc.PowerFunction(0.5), a, b).verdict == "PASS"
            assert ineq.trace_subadd_gap(fc.DiscreteMeasureBFk(1, (1.0,), (1.0,)), a, b).verdict == "PASS"
            pa, pb = pd_pair(3, seed + 1400)
            assert ineq.trace_subadd_gap(fc.PowerFunction(-0.5), pa, pb).verdict == "PASS"

    def test_rejects_quadratic(self):
        with pytest.raises(DomainError):
            ineq.trace_subadd_gap(fc.Quadratic(0, 0, 1), np.eye(2), np.eye(2))
