"""Tests for the Hermitian linear-algebra kernel."""

import math

import mpmath
import numpy as np
import pytest

from tracelab import matcore as mc
from tracelab.matcore import (
    DomainError,
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
        a = mc.psd_from_rng(np.random.default_rng(7), 6, 6)
        lam, v = mc.eigh(a)
        assert fro((v * lam) @ v.conj().T - a.entries) <= 1e-10 * fro(a.entries)

    def test_reconstruction_and_orthonormality_sweep(self):
        # V diag(lambda) V^* reproduces seeded Hermitian matrices, with V unitary
        count = 0
        for dim in range(1, 9):
            for k in range(125):
                a = HermitianMatrix(mc.random_complex_gaussian(np.random.default_rng(1000 * dim + k), dim, dim))
                lam, v = mc.eigh(a)
                scale = max(1.0, fro(a.entries))
                assert fro((v * lam) @ v.conj().T - a.entries) <= 1e-10 * scale
                assert fro(v.conj().T @ v - np.eye(dim)) <= 1e-10
                assert np.all(np.diff(lam) >= 0)
                count += 1
        assert count == 1000

    def test_2x2_closed_form_oracle(self):
        # independent oracle: characteristic polynomial of a 2x2 Hermitian
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = HermitianMatrix(mc.random_complex_gaussian(np.random.default_rng(int(rng.integers(1 << 30))), 2, 2))
            m = a.entries
            t = m[0, 0].real + m[1, 1].real
            d = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
            disc = math.sqrt(max(t * t - 4 * d, 0.0))
            expected = sorted(((t - disc) / 2, (t + disc) / 2))
            got = mc.eigh(a).eigenvalues
            assert np.allclose(got, expected, atol=1e-10 * max(1.0, abs(t)))

    def test_matches_mpmath(self):
        # independent oracle: mpmath's Hermitian eigensolver at 40 digits
        cases = [
            HermitianMatrix(mc.random_complex_gaussian(np.random.default_rng(100 * dim + k), dim, dim))
            for dim in range(1, 9)
            for k in range(3)
        ]
        u = mc.unitary_from_rng(np.random.default_rng(12), 4)
        cases.append(HermitianMatrix((u * np.array([1.0, 1.0, 2.0, 3.0])) @ u.conj().T))
        for a in cases:
            got = mc.eigh(a).eigenvalues
            with mpmath.workdps(40):
                ref = mpmath.eighe(mpmath.matrix(a.entries.tolist()), eigvals_only=True)
                ref = np.array([float(x) for x in ref])
            assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * max(1.0, fro(a.entries)))

    def test_one_matrix_is_symmetrized(self):
        # a single matrix is read as its Hermitian part, as HermitianMatrix does
        dec = mc.eigh(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_zero_and_scalar_matrices(self):
        dec = mc.eigh(np.zeros((3, 3)))
        assert np.allclose(dec.eigenvalues, 0.0)
        dec = mc.eigh(np.array([[4.0]]))
        assert dec.eigenvalues[0] == 4.0


class TestSpectralFunctions:
    def test_sqrt_of_diagonal(self):
        out = mc.matrix_power(np.diag([1.0, 4.0]), 0.5)
        assert np.allclose(out.entries, np.diag([1.0, 2.0]))

    def test_negative_power_rejects_singular(self):
        with pytest.raises(DomainError):
            mc.matrix_power(np.diag([1.0, 0.0]), -1.0)

    def test_matrix_power_roundtrip(self):
        a = mc.psd_from_rng(np.random.default_rng(2), 4, 4)
        sq = mc.matrix_power(a, 0.5)
        assert fro((sq.entries @ sq.entries) - a.entries) <= 1e-9 * fro(a.entries)

    def test_trace_power_identity(self):
        # trace of the reconstructed g(A) equals the eigenvalue power sum
        for q in (0.3, 0.5, 1.0, 2.0):
            for seed in range(10):
                a = mc.psd_from_rng(np.random.default_rng(seed), 4, 4)
                lam = mc.eigh(a).eigenvalues
                direct = float(np.sum(np.clip(lam, 0, None) ** q))
                via_matrix = np.trace(mc.matrix_power(a, q).entries).real
                assert abs(via_matrix - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_positivity_floor_scale(self):
        # floor is 1e-8 * max(lambda_max, 1): eigenvalue 1e-9 must be rejected
        with pytest.raises(DomainError):
            mc.matrix_power(np.diag([1e-9, 1.0]), -1.0)
        out = mc.matrix_power(np.diag([1e-6, 1.0]), -1.0)
        assert np.allclose(out.entries, np.diag([1e6, 1.0]))


class TestCheckedSpectra:
    def test_nonneg_tolerates_rounding_fuzz_relative_to_max_abs_or_one(self):
        # -1e-10 * max(|lambda|, 1) is the largest negativity still read as zero
        lam, faults = mc.checked_spectra(np.array([[-1e-10, 0.5], [-1.2e-10, 0.5], [-1.9e-10, 2.0]]), "nonneg")
        assert list(faults) == [1]
        assert lam[0].tolist() == [0.0, 0.5] and lam[2].tolist() == [0.0, 2.0]

    def test_nonneg_snaps_numerical_zeros(self):
        # eigenvalues below 1e-12 * lambda_max are rank-deficiency noise
        lam, faults = mc.checked_spectra(np.array([[0.9e-12, 1.0], [1e-12, 1.0], [1.2e-12, 1.0]]), "nonneg")
        assert faults == {}
        assert lam[:, 0].tolist() == [0.0, 1e-12, 1.2e-12]

    def test_rejected_rows_become_ones(self):
        lam, faults = mc.checked_spectra(np.array([[1e-9, 1.0], [0.5, 1.0]]), "positive")
        assert list(faults) == [0] and "positivity floor" in faults[0]
        assert lam.tolist() == [[1.0, 1.0], [0.5, 1.0]]

    def test_positivity_floor_scales_with_lambda_max(self):
        # the floor is 1e-8 * max(lambda_max, 1), and the floor itself passes
        lam = np.array([[1e-8, 1.0], [5e-8, 10.0], [5e-9, 0.5], [2e-7, 10.0]])
        _, faults = mc.checked_spectra(lam, "positive")
        assert list(faults) == [1, 2]

    def test_real_domain_is_unchecked(self):
        lam = np.array([[-5.0, 1.0]])
        out, faults = mc.checked_spectra(lam, "real")
        assert out is lam and faults == {}
        with pytest.raises(ValueError):
            mc.checked_spectra(lam, "complex")


class TestTraceAndProducts:
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


class TestRandomEnsembles:
    def test_random_psd_is_psd(self):
        a = mc.psd_from_rng(np.random.default_rng(1), 2, 2)
        assert mc.eigh(a).eigenvalues[0] >= -1e-12

    def test_rank_one_spectrum(self):
        a = mc.psd_from_rng(np.random.default_rng(9), 4, 1)
        lam = mc.eigh(a).eigenvalues
        assert int(np.sum(lam < 1e-10 * lam[-1])) == 3

    def test_seed_determinism_bitwise(self):
        a = mc.psd_from_rng(np.random.default_rng(11), 3, 2)
        b = mc.psd_from_rng(np.random.default_rng(11), 3, 2)
        assert np.array_equal(a.entries, b.entries)

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

    def test_rank_deficient_ranks(self):
        # rank is uniform on 1..dim-1, and 1 at dim 1
        ranks = set()
        for seed in range(60):
            lam = mc.eigh(mc.random_ensemble("rank_deficient", 4, np.random.default_rng(seed))).eigenvalues
            ranks.add(int(np.sum(lam > 1e-10 * lam[-1])))
        assert ranks == {1, 2, 3}
        assert mc.random_ensemble("rank_deficient", 1, np.random.default_rng(0)).dim == 1

    def test_complex_gaussian_unit_variance(self):
        z = mc.random_complex_gaussian(np.random.default_rng(3), 200, 100)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.03)
        assert np.mean(z.real**2) == pytest.approx(0.5, abs=0.02)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError):
            mc.random_ensemble("cauchy", 3, np.random.default_rng(0))

    def test_random_unitary_is_unitary(self):
        u = mc.unitary_from_rng(np.random.default_rng(8), 4)
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
        a = mc.psd_from_rng(np.random.default_rng(21), 5, 5).entries
        b, c, d = a[:2, :2], a[2:, :2], a[2:, 2:]
        assert np.allclose(mc.block2x2(b, c, d).entries, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mc.block2x2(np.eye(2), np.zeros((1, 1)), np.eye(1))


class TestMatrixJson:
    def test_roundtrip_complex(self):
        a = HermitianMatrix(mc.random_complex_gaussian(np.random.default_rng(6), 3, 3))
        back = mc.matrix_from_json(mc.matrix_to_json(a))
        assert np.allclose(back.entries, a.entries)

    def test_real_matrix_has_no_im(self):
        assert mc.matrix_to_json(np.eye(2)) == {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}

    def test_im_defaults_to_zero(self):
        h = mc.matrix_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, 2.0]]})
        assert np.allclose(h.entries, np.diag([1.0, 2.0]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mc.matrix_from_json({"dim": 3, "re": [[1.0]]})
