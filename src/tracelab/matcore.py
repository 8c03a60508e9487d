"""Dense Hermitian linear-algebra kernel.

A matrix is a complex ndarray; there is no matrix class.  A Hermitian input
is symmetrised (hermitian_part) once, where it enters the program: a random
draw here, a one-trial evaluation in ineq.  Spectral decomposition (LAPACK
through numpy.linalg.eigh), matrix powers, singular values
(numpy.linalg.svd), domain checks of spectra, 2x2 block assembly, seeded
random PSD ensembles and the matrix file format.
Everything is a pure function of its inputs; random generation is always
seed-parameterized, never global.  Results are bit-for-bit repeatable within
one numpy/LAPACK build and BLAS thread setting.
`eigh`, `hermitian_part`, `gram`, `unitary`, `spectral_matrix`,
`assemble_blocks`, `checked_spectra` and the ensembles also take stacks of
matrices (leading axes); a matrix's result does not depend on the stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "MatcoreError",
    "ShapeError",
    "DomainError",
    "SpectralDecomposition",
    "eigh",
    "hermitian_part",
    "spectral_matrix",
    "checked_spectra",
    "assemble_blocks",
    "matrix_power",
    "singular_values",
    "random_complex_gaussian",
    "random_ensemble",
    "ENSEMBLES",
    "matrix_from_json",
]

# Functions requiring x > 0 reject spectra whose minimum eigenvalue is below
# this fraction of max(lambda_max, 1).
POSITIVITY_FLOOR_REL = 1e-8

# Tolerated relative negativity for inputs declared PSD (rounding fuzz).
PSD_NEGATIVITY_TOL = 1e-10

# Eigenvalues below this fraction of lambda_max are numerical zeros (rank
# deficiency); snapping them to 0 keeps fractional powers exact instead of
# amplifying O(eps) noise to O(sqrt(eps)).
SPECTRAL_NOISE_REL = 1e-12


class MatcoreError(Exception):
    """Base error for the linear-algebra kernel."""


class ShapeError(MatcoreError):
    """Operands have incompatible shapes."""


class DomainError(MatcoreError):
    """An eigenvalue (or parameter) falls outside a function's domain."""


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^*) / 2 over the last two axes; exactly Hermitian, and the
    identity on an exactly Hermitian M."""
    return 0.5 * (m + m.mT.conj())


def spectral_matrix(v: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V^* over stacked eigenvector matrices and value rows."""
    return (v * vals[..., None, :]) @ v.mT.conj()


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(a) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, or of each matrix of a
    stack (leading axes), by LAPACK (numpy.linalg.eigh); the matrix is used
    as given, and only its lower triangle is read.

    Eigenvalues are returned ascending with orthonormal eigenvector columns;
    both arrays are read-only.  Degenerate eigenvalues yield multiple rank-one
    terms; no clustering is attempted.
    """
    lam, v = np.linalg.eigh(a)
    lam.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(lam, v)


def checked_spectra(lam: np.ndarray, domain: str) -> tuple[np.ndarray, dict[int, str]]:
    """Validate ascending spectra, one per row of `lam` (T, n), against a
    scalar function's domain tag.

    domain: 'real' (no restriction), 'nonneg' (clip rounding fuzz, snap
    numerical zeros, reject genuinely negative), 'positive' (enforce the
    positivity floor).  Returns the validated spectra and the reason for each
    rejected row, by row index; a rejected row is replaced by ones so that
    arithmetic on it stays finite.
    """
    if domain == "real":
        return lam, {}
    lo, hi = lam[:, 0], lam[:, -1]
    if domain == "nonneg":
        scale = np.maximum(np.maximum(-lo, hi), 1.0)  # max(|lambda|, 1): rows ascend
        bad = lo < -PSD_NEGATIVITY_TOL * scale
        lam = np.where(lam < SPECTRAL_NOISE_REL * np.maximum(hi[:, None], 0.0), 0.0, lam)  # clip and snap
        why = "matrix is not PSD: min eigenvalue {:.3e} (scale {:.3e})"
    elif domain == "positive":
        scale = POSITIVITY_FLOOR_REL * np.maximum(hi, 1.0)
        bad = lo < scale
        why = "matrix is not strictly PD: min eigenvalue {:.3e} below positivity floor {:.3e}"
    else:
        raise ValueError(f"unknown domain tag {domain!r}")
    if not bad.any():
        return lam, {}
    rows = np.flatnonzero(bad).tolist()
    return np.where(bad[:, None], 1.0, lam), {i: why.format(lo[i], scale[i]) for i in rows}


def _power_domain(q: float) -> str:
    if q < 0:
        return "positive"
    if q == int(q):
        return "real"
    return "nonneg"


def matrix_power(a, q: float) -> np.ndarray:
    """A^q by spectral calculus; strictly PD input required for q < 0."""
    dec = eigh(a)
    lam, faults = checked_spectra(dec.eigenvalues[None], _power_domain(q))
    if faults:
        raise DomainError(faults[0])
    return hermitian_part(spectral_matrix(dec.eigenvectors, np.power(lam[0], q)))


def singular_values(x) -> np.ndarray:
    """Singular values of a matrix by LAPACK (numpy.linalg.svd), descending.

    Each carries an absolute error of about eps * sigma_max, where the
    eigenvalues of X^* X carry eps * sigma_max^2.
    """
    return np.linalg.svd(x, compute_uv=False)


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------


def random_complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex normal entries (unit total variance per entry)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def gram(g: np.ndarray) -> np.ndarray:
    """G G^* over the last two axes, exactly Hermitian."""
    return hermitian_part(g @ g.mT.conj())


def psd_from_rng(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    return gram(random_complex_gaussian(rng, dim, rank))


def unitary(g: np.ndarray) -> np.ndarray:
    """Q of G = QR, its columns phased so that R has a positive diagonal."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _wishart(g, stream):
    return gram(g)


def _rank_deficient(g, stream):
    """G G^* with the columns of G at or beyond a rank uniform on 1..n-1 (1
    when n = 1) zeroed; u * (n - 1) rounds below n - 1 for every u < 1."""
    n = g.shape[-1]
    rank = 1 + (stream("ranks").random(g.shape[:-2]) * (n - 1)).astype(int)
    return gram(g * (np.arange(n) < rank[..., None, None]))


def _rotated_uniform(g, stream):
    u = unitary(g)
    d = stream("uniforms").random(g.shape[:-1])
    return hermitian_part((u * d[..., None, :]) @ u.mT.conj())


# An ensemble maps complex normal factors G (n x n, any leading axes) to PSD
# matrices, reading a further quantity once from the generator
# stream(quantity), one fixed-width row per matrix in C order.
ENSEMBLES = {
    "wishart": _wishart,
    "rank_deficient": _rank_deficient,
    "rotated_uniform": _rotated_uniform,
}


def random_ensemble(kind: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """One PSD matrix from a named ensemble: one row of its stacked draw, all from rng."""
    try:
        draw = ENSEMBLES[kind]
    except KeyError:
        raise ValueError(f"unknown ensemble {kind!r}; choose from {sorted(ENSEMBLES)}") from None
    return draw(random_complex_gaussian(rng, dim, dim)[None], lambda quantity: rng)[0]


# ---------------------------------------------------------------------------
# Block matrices
# ---------------------------------------------------------------------------


def assemble_blocks(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[[B, C^*], [C, D]] over stacked blocks (no shape or symmetry checks)."""
    top = np.concatenate([b, c.mT.conj()], axis=-1)
    return np.concatenate([top, np.concatenate([c, d], axis=-1)], axis=-2)


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------


def matrix_from_json(obj) -> np.ndarray:
    """Parse {"dim": n, "re": [[...]], "im": [[...]]} ("im" optional) into
    the complex matrix as written: it is not symmetrised, because a general
    block C is read the same way.  Every entry must be finite."""
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj.get("im", np.zeros((dim, dim))), dtype=np.float64)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ShapeError(
            f"matrix file claims dim={dim} but arrays have shapes {re.shape}, {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return re + 1j * im
