"""Tests for the Hermitian linear-algebra kernel."""

import math

import mpmath
import numpy as np
import pytest

from tracelab import matcore as mc
from tracelab.matcore import (
    DomainError,
    GeneralMatrix,
    HermitianMatrix,
    ShapeError,
)


def fro(m):
    return float(np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2)))


class TestHermitianMatrix:
    def test_construction_symmetrizes(self):
        raw = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
        h = HermitianMatrix(raw)
        assert fro(h.entries - h.entries.conj().T) <= 1e-12 * max(1.0, fro(h.entries))

    def test_real_symmetric_passes_through(self):
        m = np.array([[2.0, 1.0], [1.0, 5.0]])
        h = HermitianMatrix(m)
        assert np.array_equal(h.entries, m.astype(complex))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            HermitianMatrix(np.ones((2, 3)))

    def test_entries_read_only(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0


class TestEigh:
    def test_diagonal_input(self):
        dec = mc.eigh(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2)[:, ::-1])

    def test_symmetric_flip(self):
        dec = mc.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_residual_seed7(self):
        a = mc.random_psd(6, 6, seed=7)
        dec = mc.eigh(a)
        assert fro(dec.reconstruct() - a.entries) <= 1e-10 * fro(a.entries)

    def test_reconstruction_and_orthonormality_sweep(self):
        # eigh o reconstruct is the identity on seeded Hermitian matrices
        count = 0
        for dim in range(1, 9):
            for k in range(125):
                a = mc.random_hermitian(dim, seed=1000 * dim + k)
                dec = mc.eigh(a)
                scale = max(1.0, fro(a.entries))
                assert fro(dec.reconstruct() - a.entries) <= 1e-10 * scale
                assert dec.orthonormality_residual() <= 1e-10
                assert np.all(np.diff(dec.eigenvalues) >= 0)
                count += 1
        assert count == 1000

    def test_2x2_closed_form_oracle(self):
        # independent oracle: characteristic polynomial of a 2x2 Hermitian
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = mc.random_hermitian(2, seed=int(rng.integers(1 << 30)))
            m = a.entries
            t = m[0, 0].real + m[1, 1].real
            d = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
            disc = math.sqrt(max(t * t - 4 * d, 0.0))
            expected = sorted(((t - disc) / 2, (t + disc) / 2))
            got = mc.eigh(a).eigenvalues
            assert np.allclose(got, expected, atol=1e-10 * max(1.0, abs(t)))

    def test_matches_mpmath(self):
        # independent oracle: mpmath's Hermitian eigensolver at 40 digits
        cases = [mc.random_hermitian(dim, seed=100 * dim + k) for dim in range(1, 9) for k in range(3)]
        u = mc.random_unitary(4, seed=12).entries
        cases.append(HermitianMatrix((u * np.array([1.0, 1.0, 2.0, 3.0])) @ u.conj().T))
        for a in cases:
            got = mc.eigh(a).eigenvalues
            with mpmath.workdps(40):
                ref = mpmath.eighe(mpmath.matrix(a.entries.tolist()), eigvals_only=True)
                ref = np.array([float(x) for x in ref])
            assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * max(1.0, fro(a.entries)))

    def test_zero_and_scalar_matrices(self):
        dec = mc.eigh(np.zeros((3, 3)))
        assert np.allclose(dec.eigenvalues, 0.0)
        dec = mc.eigh(np.array([[4.0]]))
        assert dec.eigenvalues[0] == 4.0


class TestSpectralFunctions:
    def test_exp_of_zero_matrix_is_identity(self):
        from tracelab.funclass import ExpKernel

        out = mc.apply_spectral_function(np.zeros((2, 2)), ExpKernel(1.0, 1))
        assert np.allclose(out.entries, np.eye(2))

    def test_sqrt_of_diagonal(self):
        from tracelab.funclass import PowerFunction

        out = mc.apply_spectral_function(np.diag([1.0, 4.0]), PowerFunction(0.5))
        assert np.allclose(out.entries, np.diag([1.0, 2.0]))

    def test_negative_power_rejects_singular(self):
        from tracelab.funclass import PowerFunction

        with pytest.raises(DomainError):
            mc.apply_spectral_function(np.diag([1.0, 0.0]), PowerFunction(-1.0))

    def test_matrix_power_roundtrip(self):
        a = mc.random_psd(4, 4, seed=2)
        sq = mc.matrix_power(a, 0.5)
        assert fro((sq.entries @ sq.entries) - a.entries) <= 1e-9 * fro(a.entries)

    def test_trace_power_identity(self):
        # trace of the reconstructed g(A) equals the eigenvalue power sum
        for q in (0.3, 0.5, 1.0, 2.0):
            for seed in range(10):
                a = mc.random_psd(4, 4, seed=seed)
                lam = mc.eigh(a).eigenvalues
                direct = float(np.sum(np.clip(lam, 0, None) ** q))
                from tracelab.funclass import PowerFunction

                via_matrix = mc.trace_of(mc.apply_spectral_function(a, PowerFunction(q)).entries)
                assert abs(via_matrix - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_positivity_floor_scale(self):
        # floor is 1e-8 * max(lambda_max, 1): eigenvalue 1e-9 must be rejected
        with pytest.raises(DomainError):
            mc.matrix_power(np.diag([1e-9, 1.0]), -1.0)
        out = mc.matrix_power(np.diag([1e-6, 1.0]), -1.0)
        assert np.allclose(out.entries, np.diag([1e6, 1.0]))


class TestTraceAndProducts:
    def test_trace_identity(self):
        assert mc.trace_of(np.eye(3)) == 3.0

    def test_trace_commutator(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t1 = complex(np.trace(a @ b))
        t2 = complex(np.trace(b @ a))
        assert abs(t1 - t2) <= 1e-10 * max(1.0, abs(t1))

    def test_trace_cyclicity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
            t1 = complex(np.trace(a @ b @ c))
            t2 = complex(np.trace(b @ c @ a))
            assert abs(t1 - t2) <= 1e-10 * max(1.0, abs(t1))

    def test_mat_mul_identity(self):
        a = mc.random_hermitian(3, seed=9)
        out = mc.mat_mul(a, np.eye(3))
        assert np.allclose(out.entries, a.entries)

    def test_trace_of_product_commutes_for_hermitian_pair(self):
        a = mc.random_hermitian(4, seed=31)
        b = mc.random_hermitian(4, seed=32)
        t1 = mc.trace_of(mc.mat_mul(a, b))
        t2 = mc.trace_of(mc.mat_mul(b, a))
        assert t1 == pytest.approx(t2, rel=1e-10)

    def test_mat_mul_shape_error(self):
        with pytest.raises(ShapeError):
            mc.mat_mul(np.ones((2, 3)), np.ones((2, 3)))

    def test_trace_rejects_lopsided(self):
        with pytest.raises(ShapeError):
            mc.trace_of(np.ones((2, 3)))


class TestSingularValues:
    def test_graded_spectrum(self):
        # the smallest value is below eps * sigma_max^2, so the eigenvalues
        # of X^* X lose it; the singular values keep it to a few ulps of 3
        rng = np.random.default_rng(12)
        u, v = mc.unitary_from_rng(rng, 3), mc.unitary_from_rng(rng, 3)
        sigma = np.array([3.0, 2.0, 1e-9])
        got = mc.singular_values((u * sigma) @ v.conj().T)
        assert np.allclose(got[:2], sigma[:2], rtol=1e-14)
        assert got[2] == pytest.approx(1e-9, rel=1e-5)


class TestSchattenNorm:
    def test_identity_q2(self):
        assert abs(mc.schatten_norm(np.eye(2), 2.0) - math.sqrt(2.0)) < 1e-12

    def test_diag_q1(self):
        assert abs(mc.schatten_norm(np.diag([3.0, 4.0]), 1.0) - 7.0) < 1e-12

    def test_nilpotent_block(self):
        # X^* X = diag(0, 4): singular values {2, 0}, so any q-norm is 2
        x = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert abs(mc.schatten_norm(x, 3.0) - 2.0) < 1e-12

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            mc.schatten_norm(np.eye(2), 0.0)

    def test_unitary_invariance(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = mc.random_complex_gaussian(rng, 3, 3)
            u = mc.unitary_from_rng(rng, 3)
            v = mc.unitary_from_rng(rng, 3)
            for q in (0.7, 1.0, 2.0, 3.5):
                n1 = mc.schatten_norm(x, q)
                n2 = mc.schatten_norm(u @ x @ v, q)
                assert abs(n1 - n2) <= 1e-10 * max(1.0, n1)


class TestRandomEnsembles:
    def test_random_psd_is_psd(self):
        a = mc.random_psd(2, 2, seed=1)
        assert mc.eigh(a).eigenvalues[0] >= -1e-12

    def test_rank_one_spectrum(self):
        a = mc.random_psd(4, 1, seed=9)
        lam = mc.eigh(a).eigenvalues
        assert int(np.sum(lam < 1e-10 * lam[-1])) == 3

    def test_seed_determinism_bitwise(self):
        a = mc.random_psd(3, 2, seed=11)
        b = mc.random_psd(3, 2, seed=11)
        assert np.array_equal(a.entries, b.entries)

    def test_rank_bounds_checked(self):
        with pytest.raises(ShapeError):
            mc.random_psd(3, 4, seed=0)

    @pytest.mark.parametrize("kind", sorted(mc.ENSEMBLES))
    def test_ensembles_produce_psd(self, kind):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = mc.random_ensemble(kind, 4, rng)
            lam = mc.eigh(a).eigenvalues
            assert lam[0] >= -1e-10 * max(1.0, lam[-1])

    def test_rotated_uniform_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(4)
        a = mc.random_ensemble("rotated_uniform", 5, rng)
        lam = mc.eigh(a).eigenvalues
        assert lam[0] >= -1e-12 and lam[-1] <= 1.0 + 1e-12

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError):
            mc.random_ensemble("cauchy", 3, np.random.default_rng(0))

    def test_random_unitary_is_unitary(self):
        u = mc.random_unitary(4, seed=8).entries
        assert fro(u.conj().T @ u - np.eye(4)) < 1e-12


class TestBlocks:
    def test_trivial_assembly(self):
        out = mc.block2x2(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert np.allclose(out.entries, np.eye(2))

    def test_counterexample_sum_assembly(self):
        # A + B of the explicit example from 1x1 blocks
        out = mc.block2x2(np.array([[1.5]]), np.array([[0.5]]), np.array([[0.5]]))
        assert np.allclose(out.entries, np.array([[1.5, 0.5], [0.5, 0.5]]))

    def test_split_roundtrip(self):
        a = mc.random_psd(5, 5, seed=21)
        b, c, d = mc.split_blocks(a, 2)
        assert np.allclose(mc.block2x2(b, c, d).entries, a.entries)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mc.block2x2(np.eye(2), np.zeros((1, 1)), np.eye(1))


class TestMatrixJson:
    def test_roundtrip_complex(self):
        a = mc.random_hermitian(3, seed=6)
        back = mc.matrix_from_json(mc.matrix_to_json(a))
        assert np.allclose(back.entries, a.entries)

    def test_im_defaults_to_zero(self):
        h = mc.matrix_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, 2.0]]})
        assert np.allclose(h.entries, np.diag([1.0, 2.0]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mc.matrix_from_json({"dim": 3, "re": [[1.0]]})
