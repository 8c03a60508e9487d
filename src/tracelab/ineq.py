"""The inequality catalog.

Each theorem corollary of the trace-inequality family is an operation that
evaluates both sides on concrete matrices and returns a TrialRecord with an
oriented gap: gap = rhs - lhs for "<=" cases and lhs - rhs for ">=" cases, so
PASS is always gap >= -tol.  Parameter regions where only numerical evidence
exists never emit FAIL; they emit CONJECTURE_OBS with the signed gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import funclass as fc
from . import matcore as mc
from .matcore import DomainError, HermitianMatrix

__all__ = [
    "DEFAULT_TOL_REL",
    "TrialRecord",
    "InequalityCase",
    "CASES",
    "oriented_gap",
    "mccarthy_gap",
    "golden_thompson_gap",
    "main_trace_ineq",
    "cor_abq_gap",
    "cor_pmean_gap",
    "cor_faltq_gap",
    "alt_gap",
    "prop_q4_check",
    "cor_abq3_gap",
    "z_spectrum_check",
    "norm_compression_gap",
    "trace_subadd_gap",
    "projector_overlap_total",
]

DEFAULT_TOL_REL = 1e-9

# Imaginary parts of product traces are asserted below this (relative).
PRODUCT_TRACE_IMAG_TOL = 1e-10

VERDICT = "verdict"
CONJECTURE = "conjecture"


@dataclass(frozen=True)
class TrialRecord:
    """One evaluation of one inequality on one input."""

    case: str
    q: float | None
    dim: int
    seed: int
    ensemble: str
    lhs: float
    rhs: float
    gap: float
    tol: float
    verdict: str  # PASS | FAIL | CONJECTURE_OBS | SKIPPED
    reason: str = ""
    func: str = ""
    detail: Any = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        out = {
            "case": self.case,
            "q": self.q,
            "dim": self.dim,
            "seed": self.seed,
            "ensemble": self.ensemble,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tol": self.tol,
            "verdict": self.verdict,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.func:
            out["func"] = self.func
        return out

    @staticmethod
    def from_json(obj: dict) -> "TrialRecord":
        return TrialRecord(
            case=obj["case"],
            q=obj["q"],
            dim=int(obj["dim"]),
            seed=int(obj["seed"]),
            ensemble=obj["ensemble"],
            lhs=float(obj["lhs"]),
            rhs=float(obj["rhs"]),
            gap=float(obj["gap"]),
            tol=float(obj["tol"]),
            verdict=obj["verdict"],
            reason=obj.get("reason", ""),
            func=obj.get("func", ""),
        )


@dataclass(frozen=True)
class InequalityCase:
    """Catalog entry: a case id and the inputs one trial consumes."""

    id: str
    needs: str  # "pair" | "pair+func" | "blocks" | "cd"


def oriented_gap(direction: str, lhs: float, rhs: float) -> float:
    if direction == "le":
        return rhs - lhs
    if direction == "ge":
        return lhs - rhs
    if direction == "eq":
        return -abs(lhs - rhs)
    raise ValueError(f"unknown direction {direction!r}")


def _record(
    case: str,
    direction: str,
    mode: str,
    lhs: float,
    rhs: float,
    *,
    q: float | None,
    dim: int,
    seed: int = -1,
    ensemble: str = "direct",
    tol_rel: float = DEFAULT_TOL_REL,
    func: str = "",
    detail: Any = None,
) -> TrialRecord:
    tol = tol_rel * max(abs(lhs), abs(rhs), 1.0)
    gap = oriented_gap(direction, lhs, rhs)
    if mode == CONJECTURE:
        verdict = "CONJECTURE_OBS"
    else:
        verdict = "PASS" if gap >= -tol else "FAIL"
    return TrialRecord(
        case=case, q=q, dim=dim, seed=seed, ensemble=ensemble,
        lhs=lhs, rhs=rhs, gap=gap, tol=tol, verdict=verdict,
        func=func, detail=detail,
    )


def _real_product_trace(x: np.ndarray, y: np.ndarray) -> float:
    """trace(X Y) asserted real up to rounding (the product itself need not
    be Hermitian; the trace is, for the expressions used here)."""
    t = complex(np.sum(x * y.T))
    scale = max(abs(t), mc.frobenius(x) * mc.frobenius(y), 1.0)
    if abs(t.imag) > PRODUCT_TRACE_IMAG_TOL * scale:
        raise DomainError(f"product trace unexpectedly complex: {t!r}")
    return t.real


def _power_sum(lam: np.ndarray, q: float) -> float:
    return float(np.sum(mc._power_on_spectrum(lam, q)))


def _half_power_matrix(dec: mc.SpectralDecomposition, p: float) -> np.ndarray:
    vals = mc._power_on_spectrum(dec.eigenvalues, p)
    v = dec.eigenvectors
    return (v * vals) @ v.conj().T


# ---------------------------------------------------------------------------
# Direction maps
# ---------------------------------------------------------------------------


def _dir_mccarthy(q: float) -> tuple[str, str]:
    if q <= 0:
        raise DomainError(f"McCarthy inequality needs q > 0, got {q}")
    if q == 1:
        return "eq", VERDICT
    return ("le", VERDICT) if q < 1 else ("ge", VERDICT)


def _dir_cor_abq(q: float) -> tuple[str, str]:
    # Stated sense ">=" on (0,1] u [2,3]; reversed on q<0 and [1,2];
    # q in {0,1,2} are the quadratic equality exponents.  Beyond 3 the
    # theorem fails in general: evaluation keeps the ">=" orientation and
    # lets the verdict report what the matrices do.
    if q in (0.0, 1.0, 2.0):
        return "eq", VERDICT
    if q < 0:
        return "le", VERDICT
    if 0 < q < 1:
        return "ge", VERDICT
    if 1 < q < 2:
        return "le", VERDICT
    return "ge", VERDICT


def _dir_cor_faltq(q: float) -> tuple[str, str]:
    if q in (0.0, 1.0, 2.0):
        return "eq", VERDICT
    if q <= -2:
        return "le", VERDICT
    if -2 < q < 0:
        return "le", CONJECTURE
    if 0 < q < 1:
        return "ge", VERDICT
    if 1 < q < 2:
        return "le", VERDICT
    if 2 < q <= 3:
        return "ge", VERDICT
    return "ge", CONJECTURE


_dir_cor_abq3 = _dir_cor_faltq  # same region layout after rearrangement


def _dir_alt(q: float) -> tuple[str, str]:
    if q == 0 or abs(q) == 2:
        return "eq", VERDICT
    if 0 < abs(q) < 2:
        return "le", VERDICT
    return "ge", VERDICT


def _dir_norm_compression(q: float) -> tuple[str, str]:
    if q <= 0:
        raise DomainError(f"norm compression needs q > 0, got {q}")
    if q in (1.0, 2.0):
        return "eq", VERDICT
    if q < 1:
        return "ge", VERDICT
    if q < 2:
        return "le", VERDICT
    if q <= 3:
        return "ge", VERDICT
    return "ge", CONJECTURE


CASES = {
    "MCCARTHY": InequalityCase("MCCARTHY", "pair"),
    "GOLDEN_THOMPSON": InequalityCase("GOLDEN_THOMPSON", "pair"),
    "MAIN_TRACE": InequalityCase("MAIN_TRACE", "pair+func"),
    "COR_ABQ": InequalityCase("COR_ABQ", "pair"),
    "COR_PMEAN": InequalityCase("COR_PMEAN", "pair"),
    "COR_FALTQ": InequalityCase("COR_FALTQ", "pair"),
    "ALT": InequalityCase("ALT", "pair"),
    "PROP_Q4": InequalityCase("PROP_Q4", "pair"),
    "COR_ABQ3": InequalityCase("COR_ABQ3", "cd"),
    "NORM_COMPRESSION": InequalityCase("NORM_COMPRESSION", "blocks"),
    "TRACE_SUBADD": InequalityCase("TRACE_SUBADD", "pair+func"),
}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def mccarthy_gap(a, b, q: float, **meta) -> TrialRecord:
    """trace(A+B)^q vs trace A^q + trace B^q (sub/superadditive by region)."""
    direction, mode = _dir_mccarthy(q)
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    lhs = mc.trace_power(ah + bh, q)
    rhs = mc.trace_power(ah, q) + mc.trace_power(bh, q)
    return _record("MCCARTHY", direction, mode, lhs, rhs, q=q, dim=ah.dim, **meta)


def golden_thompson_gap(a, b, t: float, **meta) -> TrialRecord:
    """trace exp(-(A+B)t) <= trace exp(-At) exp(-Bt) for Hermitian A, B."""
    if t < 0:
        raise DomainError(f"kernel rate t must be >= 0, got {t}")
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    lhs = float(np.sum(np.exp(-t * mc.eigh(ah + bh).eigenvalues)))
    ea = mc.matrix_exp(ah.scaled(-t)).entries
    eb = mc.matrix_exp(bh.scaled(-t)).entries
    rhs = _real_product_trace(ea, eb)
    return _record("GOLDEN_THOMPSON", "le", VERDICT, lhs, rhs, q=t, dim=ah.dim, **meta)


def projector_overlap_total(a, b) -> float:
    """sum_{k,l} tr A_k B_l over the rank-one eigenprojector pairs (= dim)."""
    va = mc.eigh(a).eigenvectors
    vb = mc.eigh(b).eigenvectors
    return float(np.sum(np.abs(va.conj().T @ vb) ** 2))


def main_trace_ineq(g: fc.ScalarFunction, a, b, **meta) -> TrialRecord:
    """trace(g(A+B)-g(A)-g(B)) vs the projector double sum
    sum_{k,l} (g(2 sqrt(a_k b_l)) - 2 g(sqrt(a_k b_l))) |<v_k, w_l>|^2."""
    tag = g.class_tag
    direction = fc.gap_pair_direction(tag)
    if direction is None:
        raise DomainError(f"no trace inequality for class {tag!r}")
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    deca, decb = mc.eigh(ah), mc.eigh(bh)
    domain = "positive" if tag == "CM0" else "nonneg"
    av = mc._domain_checked_eigenvalues(deca.eigenvalues, domain)
    bv = mc._domain_checked_eigenvalues(decb.eigenvalues, domain)

    lam_sum = mc.eigh(ah + bh).eigenvalues
    if tag == "CM0":
        lam_sum = mc._domain_checked_eigenvalues(lam_sum, "positive")
    lhs = float(np.sum(g(lam_sum)) - np.sum(g(av)) - np.sum(g(bv)))

    overlap = np.abs(deca.eigenvectors.conj().T @ decb.eigenvectors) ** 2
    roots = np.sqrt(np.outer(av, bv))
    weights = g(2.0 * roots) - 2.0 * g(roots)
    rhs = float(np.sum(weights * overlap))
    return _record(
        "MAIN_TRACE", direction, VERDICT, lhs, rhs,
        q=None, dim=ah.dim, func=_func_label(g), **meta,
    )


def _func_label(g: fc.ScalarFunction) -> str:
    d = g.to_json()
    variant = d.pop("variant")
    args = ",".join(f"{k}={v}" for k, v in d.items())
    return f"{variant}({args})"


def _sum_power_lhs(ah: HermitianMatrix, bh: HermitianMatrix, deca, decb, q: float) -> float:
    lhs_sum = mc.trace_power(ah + bh, q)
    return lhs_sum - _power_sum(deca.eigenvalues, q) - _power_sum(decb.eigenvalues, q)


def cor_abq_gap(a, b, q: float, **meta) -> TrialRecord:
    """trace(A+B)^q - trace A^q - trace B^q vs (2^q - 2) trace A^{q/2} B^{q/2}."""
    direction, mode = _dir_cor_abq(q)
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    deca, decb = mc.eigh(ah), mc.eigh(bh)
    lhs = _sum_power_lhs(ah, bh, deca, decb, q)
    ahalf = _half_power_matrix(deca, q / 2.0)
    bhalf = _half_power_matrix(decb, q / 2.0)
    rhs = (2.0**q - 2.0) * _real_product_trace(ahalf, bhalf)
    return _record("COR_ABQ", direction, mode, lhs, rhs, q=q, dim=ah.dim, **meta)


def cor_pmean_gap(a, b, p: float, **meta) -> TrialRecord:
    """Power-means form: trace((A^p+B^p)/2)^{1/p} vs the mixed lower bound."""
    if p < 1:
        raise DomainError(f"power-mean corollary needs p >= 1, got {p}")
    direction = "eq" if p == 1 else "ge"
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    deca, decb = mc.eigh(ah), mc.eigh(bh)
    mean_p = HermitianMatrix(0.5 * (_half_power_matrix(deca, p) + _half_power_matrix(decb, p)))
    lhs = mc.trace_power(mean_p, 1.0 / p)
    coeff = 2.0 ** (1.0 - 1.0 / p)
    cross = _real_product_trace(_half_power_matrix(deca, 0.5), _half_power_matrix(decb, 0.5))
    rhs = coeff * 0.5 * (mc.trace_of(ah.entries) + mc.trace_of(bh.entries)) + (1.0 - coeff) * cross
    return _record("COR_PMEAN", direction, VERDICT, lhs, rhs, q=p, dim=ah.dim, **meta)


def _sandwich_trace_power(
    deca: mc.SpectralDecomposition, decb: mc.SpectralDecomposition, bh: HermitianMatrix, s: float
) -> float:
    """trace (A^{1/2} B A^{1/2})^s from the decompositions of A and B.

    For s < 0 it is evaluated as sum sigma_i^{-2s} over the singular values of
    C = B^{-1/2} A^{-1/2}, since (A^{1/2} B A^{1/2})^{-1} = C^* C.  The inverse
    factors enforce the positivity floor on A and B; the sandwich itself has
    the product of their condition numbers, so a second floor on it would
    reject valid PD pairs.  Its small eigenvalues, and those of C^* C, carry
    only absolute accuracy, which s < 0 would amplify; the singular values of
    C lose only half as many digits.
    """
    if s < 0:
        c = _half_power_matrix(decb, -0.5) @ _half_power_matrix(deca, -0.5)
        return float(np.sum(mc.singular_values(c) ** (-2.0 * s)))
    ahalf = _half_power_matrix(deca, 0.5)
    return mc.trace_power(HermitianMatrix(ahalf @ bh.entries @ ahalf), s)


def _power_product_trace(
    deca: mc.SpectralDecomposition, decb: mc.SpectralDecomposition, p: float
) -> float:
    """trace A^p B^p = sum_ij a_i^p b_j^p |<u_i, v_j>|^2.

    The terms are nonnegative, so the sum has no cancellation; forming A^p and
    B^p first loses digits when both are ill conditioned (p < 0).
    """
    overlap = np.abs(deca.eigenvectors.conj().T @ decb.eigenvectors) ** 2
    av = mc._power_on_spectrum(deca.eigenvalues, p)
    bv = mc._power_on_spectrum(decb.eigenvalues, p)
    return float(av @ overlap @ bv)


def cor_faltq_gap(a, b, q: float, **meta) -> TrialRecord:
    """As cor_abq_gap with trace(A^{1/2} B A^{1/2})^{q/2} on the right."""
    direction, mode = _dir_cor_faltq(q)
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    deca, decb = mc.eigh(ah), mc.eigh(bh)
    lhs = _sum_power_lhs(ah, bh, deca, decb, q)
    rhs = (2.0**q - 2.0) * _sandwich_trace_power(deca, decb, bh, q / 2.0)
    return _record("COR_FALTQ", direction, mode, lhs, rhs, q=q, dim=ah.dim, **meta)


def alt_gap(a, b, q: float, **meta) -> TrialRecord:
    """Araki-Lieb-Thirring comparison:
    trace A^{q/2} B^{q/2} vs trace (A^{1/2} B A^{1/2})^{q/2}."""
    direction, mode = _dir_alt(q)
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    deca, decb = mc.eigh(ah), mc.eigh(bh)
    lhs = _power_product_trace(deca, decb, q / 2.0)
    rhs = _sandwich_trace_power(deca, decb, bh, q / 2.0)
    return _record("ALT", direction, mode, lhs, rhs, q=q, dim=ah.dim, **meta)


def prop_q4_check(a, b, **meta) -> tuple[float, TrialRecord]:
    """The q=4 expansion: trace(A+B)^4 - trace A^4 - trace B^4 equals
    4 trace(A^3 B + A^2 B^2 + A B^3) + 2 trace (AB)^2 (an identity), and is
    bounded below by 12 trace (AB)^2."""
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)
    am, bm = ah.entries, bh.entries
    a2, b2 = am @ am, bm @ bm
    ab = am @ bm
    t_a3b = _real_product_trace(a2 @ am, bm)
    t_a2b2 = _real_product_trace(a2, b2)
    t_ab3 = _real_product_trace(am, b2 @ bm)
    t_abab = _real_product_trace(ab, ab)
    expansion = 4.0 * (t_a3b + t_a2b2 + t_ab3) + 2.0 * t_abab

    deca, decb = mc.eigh(ah), mc.eigh(bh)
    lhs = _sum_power_lhs(ah, bh, deca, decb, 4.0)
    residual = abs(lhs - expansion)
    rhs = 12.0 * t_abab
    rec = _record("PROP_Q4", "ge", VERDICT, lhs, rhs, q=4.0, dim=ah.dim, **meta)
    return residual, rec


def _trace_abs_power(c, q: float) -> float:
    """trace |C|^q = sum sigma_i^q over singular values."""
    m = mc._coerce(c)
    lam = mc._domain_checked_eigenvalues(
        mc.eigh(HermitianMatrix(m.conj().T @ m)).eigenvalues, "nonneg"
    )
    sigma = np.sqrt(lam)
    if q < 0:
        floor = mc.POSITIVITY_FLOOR_REL * max(float(sigma[-1]), 1.0)
        if sigma[0] < floor:
            raise DomainError("negative Schatten power of a (near-)singular block")
    return float(np.sum(sigma**q))


def _z_block(c, d) -> tuple[HermitianMatrix, HermitianMatrix, HermitianMatrix]:
    """(Z, X, D) with X = C^* D^{-1} C and Z = [[X, C^*], [C, D]]."""
    ch = mc._coerce(c)
    dh = mc.as_hermitian(d)
    dinv = mc.matrix_power(dh, -1.0)  # enforces strict positivity of D
    x = HermitianMatrix(ch.conj().T @ dinv.entries @ ch)
    return mc.block2x2(x, ch, dh), x, dh


def _trace_power_nonzero(z: HermitianMatrix, q: float, keep: int) -> float:
    """trace Z^q over the `keep` largest eigenvalues (the nonzero spectrum of
    a rank-`keep` PSD block construction); all eigenvalues when q > 0."""
    lam = mc.eigh(z).eigenvalues
    if q >= 0:
        return _power_sum(lam, q)
    top = lam[-keep:]
    return _power_sum(mc._domain_checked_eigenvalues(top, "positive"), q)


def cor_abq3_gap(c, d, q: float, **meta) -> TrialRecord:
    """Block form: trace Z^q - trace(C^* D^{-1} C)^q - trace D^q vs
    (2^q - 2) trace |C|^q, Z the assembled partitioned matrix."""
    direction, mode = _dir_cor_abq3(q)
    z, x, dh = _z_block(c, d)
    if q < 0:
        lhs = (
            _trace_power_nonzero(z, q, dh.dim)
            - mc.trace_power(x, q)
            - mc.trace_power(dh, q)
        )
    else:
        lhs = mc.trace_power(z, q) - mc.trace_power(x, q) - mc.trace_power(dh, q)
    rhs = (2.0**q - 2.0) * _trace_abs_power(c, q)
    return _record("COR_ABQ3", direction, mode, lhs, rhs, q=q, dim=z.dim, **meta)


def z_spectrum_check(c, d) -> float:
    """Hausdorff distance between the nonzero spectra of A+B (with
    A = D^{-1/2} C C^* D^{-1/2}, B = D) and of the block matrix Z."""
    z, _, dh = _z_block(c, d)
    ch = mc._coerce(c)
    dinv_half = mc.matrix_power(dh, -0.5)
    gram = HermitianMatrix(dinv_half.entries @ ch @ ch.conj().T @ dinv_half.entries)
    lam_ab = mc.eigh(gram + dh).eigenvalues
    lam_z = mc.eigh(z).eigenvalues[-dh.dim:]
    diff = np.abs(lam_ab[:, None] - lam_z[None, :])
    return float(max(diff.min(axis=0).max(), diff.min(axis=1).max()))


def norm_compression_gap(b, c, d, q: float, **meta) -> TrialRecord:
    """trace A^q vs (2^q - 2) gamma^q + beta^q + delta^q for the partitioned
    PSD matrix A = [[B, C^*], [C, D]] with block Schatten norms beta, gamma,
    delta."""
    direction, mode = _dir_norm_compression(q)
    assembled = mc.block2x2(b, c, d)
    lam = mc.eigh(assembled).eigenvalues
    lam = mc._domain_checked_eigenvalues(lam, "nonneg")  # A must be PSD
    lhs = _power_sum(lam, q)
    beta = mc.schatten_norm(b, q)
    gamma = mc.schatten_norm(c, q)
    delta = mc.schatten_norm(d, q)
    rhs = (2.0**q - 2.0) * gamma**q + beta**q + delta**q
    return _record("NORM_COMPRESSION", direction, mode, lhs, rhs, q=q, dim=assembled.dim, **meta)


def trace_subadd_gap(g: fc.ScalarFunction, a, b, **meta) -> TrialRecord:
    """trace g(A+B) vs trace g(A) + trace g(B): subadditive for CM0 and BF0,
    superadditive for the primitive classes BFk, k >= 1."""
    tag = g.class_tag
    if fc.is_subadditive_class(tag):
        direction = "le"
    elif fc.is_superadditive_class(tag):
        direction = "ge"
    else:
        raise DomainError(f"trace sub/superadditivity undefined for class {tag!r}")
    domain = "positive" if getattr(g, "domain", "real") == "positive" else "nonneg"
    ah, bh = mc.as_hermitian(a), mc.as_hermitian(b)

    def tr_g(h: HermitianMatrix) -> float:
        lam = mc._domain_checked_eigenvalues(mc.eigh(h).eigenvalues, domain)
        return float(np.sum(g(lam)))

    lhs = tr_g(ah + bh)
    rhs = tr_g(ah) + tr_g(bh)
    return _record(
        "TRACE_SUBADD", direction, VERDICT, lhs, rhs,
        q=None, dim=ah.dim, func=_func_label(g), **meta,
    )
