"""Dense Hermitian linear-algebra kernel.

Construction, spectral decomposition (LAPACK through numpy.linalg.eigh),
spectral function application, traces, singular values (numpy.linalg.svd),
Schatten norms, 2x2 block assembly and seeded random PSD ensembles.
Everything is a pure function of its inputs; random generation is always
seed-parameterized, never global.  Results are bit-for-bit repeatable within
one numpy/LAPACK build and BLAS thread setting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MatcoreError",
    "ShapeError",
    "DomainError",
    "HermitianMatrix",
    "GeneralMatrix",
    "SpectralDecomposition",
    "eigh",
    "apply_spectral_function",
    "matrix_power",
    "trace_power",
    "matrix_exp",
    "trace_of",
    "mat_mul",
    "frobenius",
    "schatten_norm",
    "singular_values",
    "random_psd",
    "random_hermitian",
    "random_unitary",
    "random_complex_gaussian",
    "random_ensemble",
    "ENSEMBLES",
    "block2x2",
    "split_blocks",
    "matrix_to_json",
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


def _as_square_complex(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ShapeError("dimension must be at least 1")
    return m


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense complex Hermitian matrix; construction symmetrizes the input."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries)
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def identity(dim: int) -> "HermitianMatrix":
        return HermitianMatrix(np.eye(dim))

    @staticmethod
    def diag(values) -> "HermitianMatrix":
        return HermitianMatrix(np.diag(np.asarray(values, dtype=np.complex128)))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if self.dim != other.dim:
            raise ShapeError(f"dim mismatch: {self.dim} vs {other.dim}")
        return HermitianMatrix(self.entries + other.entries)

    def scaled(self, factor: float) -> "HermitianMatrix":
        return HermitianMatrix(factor * self.entries)


@dataclass(frozen=True)
class GeneralMatrix:
    """Arbitrary rectangular complex matrix (the off-diagonal block C)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2:
            raise ShapeError(f"expected a 2-d array, got shape {m.shape}")
        if min(m.shape) < 1:
            raise ShapeError("matrix must be non-empty")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def adjoint(self) -> "GeneralMatrix":
        return GeneralMatrix(self.entries.conj().T)


def _coerce(a) -> np.ndarray:
    if isinstance(a, (HermitianMatrix, GeneralMatrix)):
        return a.entries
    return np.asarray(a, dtype=np.complex128)


def as_hermitian(a) -> HermitianMatrix:
    return a if isinstance(a, HermitianMatrix) else HermitianMatrix(_coerce(a))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def orthonormality_residual(self) -> float:
        v = self.eigenvectors
        return _fro(v.conj().T @ v - np.eye(self.dim))


def _fro(m: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(m) ** 2)))


def eigh(a) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    Eigenvalues are returned ascending with orthonormal eigenvector columns;
    both arrays are read-only.  Degenerate eigenvalues yield multiple rank-one
    terms; no clustering is attempted.
    """
    lam, v = np.linalg.eigh(as_hermitian(a).entries)
    lam.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(lam, v)


def _positivity_floor(lam: np.ndarray) -> float:
    return POSITIVITY_FLOOR_REL * max(float(lam[-1]), 1.0)


def _domain_checked_eigenvalues(lam: np.ndarray, domain: str) -> np.ndarray:
    """Validate eigenvalues against a scalar function's domain tag.

    domain: 'real' (no restriction), 'nonneg' (clip rounding fuzz, reject
    genuinely negative), 'positive' (enforce the positivity floor).
    """
    if domain == "real":
        return lam
    scale = max(abs(float(lam[0])), abs(float(lam[-1])), 1.0)
    if domain == "nonneg":
        if lam[0] < -PSD_NEGATIVITY_TOL * scale:
            raise DomainError(
                f"matrix is not PSD: min eigenvalue {lam[0]:.3e} (scale {scale:.3e})"
            )
        lam = np.clip(lam, 0.0, None)
        if lam[-1] > 0.0:
            lam = np.where(lam < SPECTRAL_NOISE_REL * lam[-1], 0.0, lam)
        return lam
    if domain == "positive":
        floor = _positivity_floor(lam)
        if lam[0] < floor:
            raise DomainError(
                f"matrix is not strictly PD: min eigenvalue {lam[0]:.3e} "
                f"below positivity floor {floor:.3e}"
            )
        return lam
    raise ValueError(f"unknown domain tag {domain!r}")


def _eval_on_spectrum(g: Callable, lam: np.ndarray) -> np.ndarray:
    vals = g(lam)
    return np.asarray(vals, dtype=np.float64)


def apply_spectral_function(a, g: Callable) -> HermitianMatrix:
    """Return sum_k g(a_k) v_k v_k^* for the spectral decomposition of a.

    g may carry a `domain` attribute ('real' | 'nonneg' | 'positive')
    controlling eigenvalue validation; plain callables are assumed 'real'.
    """
    dec = eigh(a)
    lam = _domain_checked_eigenvalues(dec.eigenvalues, getattr(g, "domain", "real"))
    vals = _eval_on_spectrum(g, lam)
    v = dec.eigenvectors
    return HermitianMatrix((v * vals) @ v.conj().T)


def _power_domain(q: float) -> str:
    if q < 0:
        return "positive"
    if q == int(q):
        return "real"
    return "nonneg"


def _power_on_spectrum(lam: np.ndarray, q: float) -> np.ndarray:
    lam = _domain_checked_eigenvalues(lam, _power_domain(q))
    return np.power(lam, q)


def matrix_power(a, q: float) -> HermitianMatrix:
    """A^q by spectral calculus; strictly PD input required for q < 0."""
    dec = eigh(a)
    vals = _power_on_spectrum(dec.eigenvalues, q)
    v = dec.eigenvectors
    return HermitianMatrix((v * vals) @ v.conj().T)


def trace_power(a, q: float) -> float:
    """trace A^q as a sum over eigenvalue powers (0^0 counts as 1)."""
    dec = eigh(a)
    return float(np.sum(_power_on_spectrum(dec.eigenvalues, q)))


def matrix_exp(a) -> HermitianMatrix:
    """exp(A) for Hermitian A by spectral calculus."""
    dec = eigh(a)
    v = dec.eigenvectors
    return HermitianMatrix((v * np.exp(dec.eigenvalues)) @ v.conj().T)


def trace_of(a) -> float:
    """Real trace; asserts the imaginary part is rounding-level only."""
    m = _coerce(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"trace of a non-square matrix, shape {m.shape}")
    t = complex(np.trace(m))
    scale = max(abs(t), _fro(m), 1.0)
    if abs(t.imag) > 1e-12 * scale:
        raise DomainError(f"trace has a non-negligible imaginary part: {t!r}")
    return t.real


def mat_mul(a, b) -> GeneralMatrix:
    ma, mb = _coerce(a), _coerce(b)
    if ma.shape[1] != mb.shape[0]:
        raise ShapeError(f"cannot multiply shapes {ma.shape} and {mb.shape}")
    return GeneralMatrix(ma @ mb)


def frobenius(a) -> float:
    return _fro(_coerce(a))


def schatten_norm(x, q: float) -> float:
    """Schatten q-norm (sum of sigma_i^q)^(1/q); q must be positive.

    Singular values are the square roots of the eigenvalues of X^* X.
    """
    if q <= 0:
        raise DomainError(f"Schatten norm requires q > 0, got {q}")
    m = _coerce(x)
    gram = HermitianMatrix(m.conj().T @ m)
    lam = _domain_checked_eigenvalues(eigh(gram).eigenvalues, "nonneg")
    sigma = np.sqrt(lam)
    return float(np.sum(sigma**q) ** (1.0 / q))


def singular_values(x) -> np.ndarray:
    """Singular values of a matrix by LAPACK (numpy.linalg.svd), descending.

    Each carries an absolute error of about eps * sigma_max, where the
    eigenvalues of X^* X carry eps * sigma_max^2.
    """
    return np.linalg.svd(_coerce(x), compute_uv=False)


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------


def random_complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex normal entries (unit total variance per entry)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_psd(dim: int, rank: int, seed: int) -> HermitianMatrix:
    """G G^* with G a dim x rank seeded complex Gaussian factor."""
    if not 1 <= rank <= dim:
        raise ShapeError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    rng = np.random.default_rng(seed)
    return psd_from_rng(rng, dim, rank)


def psd_from_rng(rng: np.random.Generator, dim: int, rank: int) -> HermitianMatrix:
    g = random_complex_gaussian(rng, dim, rank)
    return HermitianMatrix(g @ g.conj().T)


def random_hermitian(dim: int, seed: int) -> HermitianMatrix:
    rng = np.random.default_rng(seed)
    g = random_complex_gaussian(rng, dim, dim)
    return HermitianMatrix(g)  # constructor symmetrizes


def unitary_from_rng(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = random_complex_gaussian(rng, dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed: int) -> GeneralMatrix:
    return GeneralMatrix(unitary_from_rng(np.random.default_rng(seed), dim))


def _wishart(rng, dim):
    return psd_from_rng(rng, dim, dim)


def _rank_deficient(rng, dim):
    rank = 1 if dim == 1 else int(rng.integers(1, dim))
    return psd_from_rng(rng, dim, rank)


def _rotated_uniform(rng, dim):
    u = unitary_from_rng(rng, dim)
    d = rng.uniform(0.0, 1.0, size=dim)
    return HermitianMatrix((u * d) @ u.conj().T)


ENSEMBLES = {
    "wishart": _wishart,
    "rank_deficient": _rank_deficient,
    "rotated_uniform": _rotated_uniform,
}


def random_ensemble(kind: str, dim: int, rng: np.random.Generator) -> HermitianMatrix:
    """Draw one PSD matrix from a named ensemble using the supplied generator."""
    try:
        draw = ENSEMBLES[kind]
    except KeyError:
        raise ValueError(f"unknown ensemble {kind!r}; choose from {sorted(ENSEMBLES)}") from None
    return draw(rng, dim)


# ---------------------------------------------------------------------------
# Block matrices
# ---------------------------------------------------------------------------


def block2x2(b, c, d) -> HermitianMatrix:
    """Assemble [[B, C^*], [C, D]]; C maps the B-space into the D-space."""
    mb = as_hermitian(b).entries
    md = as_hermitian(d).entries
    mc = _coerce(c)
    nb, nd = mb.shape[0], md.shape[0]
    if mc.shape != (nd, nb):
        raise ShapeError(
            f"off-diagonal block must have shape ({nd}, {nb}), got {mc.shape}"
        )
    top = np.hstack([mb, mc.conj().T])
    bottom = np.hstack([mc, md])
    return HermitianMatrix(np.vstack([top, bottom]))


def split_blocks(a, top_dim: int) -> tuple[HermitianMatrix, GeneralMatrix, HermitianMatrix]:
    """Partition a Hermitian matrix into (B, C, D) with B of size top_dim."""
    m = as_hermitian(a).entries
    n = m.shape[0]
    if not 0 < top_dim < n:
        raise ShapeError(f"top_dim must be in (0, {n}), got {top_dim}")
    b = HermitianMatrix(m[:top_dim, :top_dim])
    c = GeneralMatrix(m[top_dim:, :top_dim])
    d = HermitianMatrix(m[top_dim:, top_dim:])
    return b, c, d


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------


def matrix_to_json(a) -> dict:
    m = _coerce(a)
    out = {"dim": int(m.shape[0]), "re": m.real.tolist()}
    if np.any(m.imag != 0.0):
        out["im"] = m.imag.tolist()
    return out


def matrix_from_json(obj) -> HermitianMatrix:
    """Parse {"dim": n, "re": [[...]], "im": [[...]]} ("im" optional)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj.get("im", np.zeros((dim, dim))), dtype=np.float64)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ShapeError(
            f"matrix file claims dim={dim} but arrays have shapes {re.shape}, {im.shape}"
        )
    return HermitianMatrix(re + 1j * im)
