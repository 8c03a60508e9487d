"""Dense Hermitian linear-algebra kernel.

Construction, spectral decomposition (LAPACK through numpy.linalg.eigh),
matrix powers, singular values (numpy.linalg.svd), domain checks of spectra,
2x2 block assembly and seeded random PSD ensembles.
Everything is a pure function of its inputs; random generation is always
seed-parameterized, never global.  Results are bit-for-bit repeatable within
one numpy/LAPACK build and BLAS thread setting.
`eigh`, `hermitian_part`, `spectral_matrix`, `assemble_blocks` and
`checked_spectra` also take stacks of matrices (leading axes); a matrix's
result does not depend on the stack it sits in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MatcoreError",
    "ShapeError",
    "DomainError",
    "HermitianMatrix",
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
    "block2x2",
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
        m = hermitian_part(_as_square_complex(self.entries))
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _coerce(a) -> np.ndarray:
    if isinstance(a, HermitianMatrix):
        return a.entries
    return np.asarray(a, dtype=np.complex128)


def as_hermitian(a) -> HermitianMatrix:
    return a if isinstance(a, HermitianMatrix) else HermitianMatrix(_coerce(a))


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
    stack (an array with leading axes, used as given), by LAPACK
    (numpy.linalg.eigh).

    Eigenvalues are returned ascending with orthonormal eigenvector columns;
    both arrays are read-only.  Degenerate eigenvalues yield multiple rank-one
    terms; no clustering is attempted.
    """
    stacked = isinstance(a, np.ndarray) and a.ndim > 2
    lam, v = np.linalg.eigh(a if stacked else as_hermitian(a).entries)
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


def matrix_power(a, q: float) -> HermitianMatrix:
    """A^q by spectral calculus; strictly PD input required for q < 0."""
    dec = eigh(a)
    lam, faults = checked_spectra(dec.eigenvalues[None], _power_domain(q))
    if faults:
        raise DomainError(faults[0])
    return HermitianMatrix(spectral_matrix(dec.eigenvectors, np.power(lam[0], q)))


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


def psd_from_rng(rng: np.random.Generator, dim: int, rank: int) -> HermitianMatrix:
    g = random_complex_gaussian(rng, dim, rank)
    return HermitianMatrix(g @ g.conj().T)


def unitary_from_rng(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = random_complex_gaussian(rng, dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


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
    return HermitianMatrix(assemble_blocks(mb, mc, md))


def assemble_blocks(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[[B, C^*], [C, D]] over stacked blocks (no shape or symmetry checks)."""
    top = np.concatenate([b, c.mT.conj()], axis=-1)
    return np.concatenate([top, np.concatenate([c, d], axis=-1)], axis=-2)





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
