"""The inequality catalog.

Each case of the trace-inequality family is one entry of CASES: the kind of
input a trial consumes, the rule that orients its gap, a kernel that
evaluates both sides on T stacked trials at once, and the parameter grids
and named open regions the commands run it over.  The oriented gap is
gap = rhs - lhs for "<=" cases and lhs - rhs for ">=" cases, so PASS is always
gap >= -tol.  Parameter regions where only numerical evidence exists never
emit FAIL; they emit CONJECTURE_OBS with the signed gap.

The power corollaries are the theorem cases at g = x^q: MCCARTHY runs the
TRACE_SUBADD kernel and COR_ABQ the MAIN_TRACE kernel there, each under its
own direction rule, so both require PSD inputs at every q.  Every cross term
trace f(A) h(B) is one projector double sum over the decompositions of A and
B (_pair_sum); only PROP_Q4's trace (AB)^2, which is no such sum, forms
matrix products.

A kernel never raises for one trial: a trial outside its domain gets a skip
reason and the others are evaluated.  The per-case functions (mccarthy_gap,
...) evaluate one trial through the same kernel and raise DomainError with
that reason instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from . import funclass as fc
from . import matcore as mc
from .matcore import DomainError, HermitianMatrix

__all__ = [
    "DEFAULT_TOL_REL",
    "TrialRecord",
    "InputKind",
    "Factor",
    "Case",
    "Batch",
    "CASES",
    "probe_case",
    "evaluate",
    "evaluate_one",
    "singular_inputs_ok",
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

# PROP_Q4 skips a trial whose expansion identity misses by more than this
# (relative to max(|lhs|, |rhs|, 1)).
PROP_Q4_RESIDUAL_REL = 1e-9

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


def oriented_gap(direction: str, lhs, rhs):
    """Signed gap, PASS side >= 0; works on floats and on arrays."""
    if direction == "le":
        return rhs - lhs
    if direction == "ge":
        return lhs - rhs
    if direction == "eq":
        return -abs(lhs - rhs)
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Stacked-trial arithmetic
# ---------------------------------------------------------------------------


class _Trials:
    """Skip reasons of T stacked trials; a trial keeps its first reason.
    `decomps` holds the spectral decompositions of inputs, by input key."""

    def __init__(self, count: int, decomps: dict | None = None):
        self.reasons = [""] * count
        self.residual = None  # PROP_Q4's expansion-identity residual
        self.decomps = dict(decomps or {})

    def eigh(self, key: str, m: np.ndarray) -> mc.SpectralDecomposition:
        """The decomposition of input `key` (the stack m): the caller's if it
        passed one, else mc.eigh(m), kept for the caller."""
        if key not in self.decomps:
            self.decomps[key] = mc.eigh(m)
        return self.decomps[key]

    def flag(self, faults: dict[int, str]) -> None:
        for i, msg in faults.items():
            if not self.reasons[i]:
                self.reasons[i] = msg

    def spectra(self, lam: np.ndarray, domain: str) -> np.ndarray:
        lam, faults = mc.checked_spectra(lam, domain)
        self.flag(faults)
        return lam

    def power(self, lam: np.ndarray, q: float) -> np.ndarray:
        return np.power(self.spectra(lam, mc._power_domain(q)), q)


def _trace_power(tr: _Trials, m: np.ndarray, q: float) -> np.ndarray:
    return np.sum(tr.power(np.linalg.eigvalsh(m), q), axis=-1)


def _product_trace(tr: _Trials, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """trace(X Y) asserted real up to rounding (the product itself need not
    be Hermitian; the trace is, for the expressions used here)."""
    t = np.sum(x * y.mT, axis=(-2, -1))
    fro = np.sqrt(np.sum(np.abs(x) ** 2, axis=(-2, -1)) * np.sum(np.abs(y) ** 2, axis=(-2, -1)))
    scale = np.maximum(np.maximum(np.abs(t), fro), 1.0)
    bad = np.flatnonzero(np.abs(t.imag) > PRODUCT_TRACE_IMAG_TOL * scale)
    tr.flag({i: f"product trace unexpectedly complex: {complex(t[i])!r}" for i in bad.tolist()})
    return t.real


def _pair_sum(w, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """sum_ij w_ij |<u_i, v_j>|^2 over the eigenvector columns u_i of A and
    v_j of B: trace f(A) h(B) for w_ij = f(a_i) h(b_j), and the theorem's
    sum_kl w(a_k, b_l) trace A_k B_l for its weights.  Every cross term is
    summed this way: the overlaps are nonnegative, so same-sign weights sum
    without cancellation and the sum is real by construction, where forming
    f(A) and h(B) first loses digits when both are ill conditioned."""
    return np.sum(w * np.abs(va.mT.conj() @ vb) ** 2, axis=(-2, -1))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """w_ij = x_i y_j over stacked rows."""
    return x[..., :, None] * y[..., None, :]


def _gram_singular_values(tr: _Trials, *blocks: np.ndarray) -> list[np.ndarray]:
    """Singular values of each stacked block M as square roots of the
    eigenvalues of M^* M, in one eigvalsh call when the blocks share a shape.
    A trial keeps the reason of its first rejected block."""
    if len({m.shape for m in blocks}) > 1:
        return [s for m in blocks for s in _gram_singular_values(tr, m)]
    m = np.concatenate(blocks)
    lam, faults = mc.checked_spectra(np.linalg.eigvalsh(mc.hermitian_part(m.mT.conj() @ m)), "nonneg")
    count = len(blocks[0])
    tr.flag({i % count: msg for i, msg in reversed(faults.items())})  # the first block's reason is written last
    return list(np.sqrt(lam).reshape(len(blocks), count, -1))


def _sum_power_lhs(tr, a, b, lam_a, lam_b, q: float) -> np.ndarray:
    """trace(A+B)^q - trace A^q - trace B^q."""
    lhs = _trace_power(tr, a + b, q)
    return lhs - np.sum(tr.power(lam_a, q), axis=-1) - np.sum(tr.power(lam_b, q), axis=-1)


def _sandwich_trace_power(tr, lam_a, va, lam_b, vb, s: float) -> np.ndarray:
    """trace (A^{1/2} B A^{1/2})^s from the decompositions of A and B.

    The sandwich is C^* C for C = B^{1/2} A^{1/2}, and its inverse is C^* C
    for C = B^{-1/2} A^{-1/2}, so the trace is sum sigma_i^{2|s|} over the
    singular values of that C.  Only A and B meet their domain checks (the
    positivity floor when s < 0); the sandwich carries the product of their
    condition numbers, and its eigenvalues carry an absolute error of about
    eps * lambda_max, which drops or distorts genuine small ones.  Singular
    values carry eps * sigma_max; for s >= 0 those below SPECTRAL_NOISE_REL
    of the largest are zeros of a rank-deficient C and are snapped to 0.
    """
    h = -0.5 if s < 0 else 0.5
    c = mc.spectral_matrix(vb, tr.power(lam_b, h)) @ mc.spectral_matrix(va, tr.power(lam_a, h))
    sigma = mc.singular_values(c)
    if s >= 0:
        sigma = np.where(sigma < mc.SPECTRAL_NOISE_REL * sigma[:, :1], 0.0, sigma)
    return np.sum(sigma ** (2.0 * abs(s)), axis=-1)


def _z_blocks(tr: _Trials, c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z, X) with X = C^* D^{-1} C and Z = [[X, C^*], [C, D]]; D > 0."""
    lam_d, vd = tr.eigh("d", d)
    dinv = mc.hermitian_part(mc.spectral_matrix(vd, tr.power(lam_d, -1.0)))
    x = mc.hermitian_part(c.mT.conj() @ dinv @ c)
    return mc.assemble_blocks(x, c, d), x


# ---------------------------------------------------------------------------
# Kernels: (trials, q, g, *stacked inputs) -> (lhs, rhs), each of shape (T,)
# ---------------------------------------------------------------------------


def _golden_thompson(tr, t, g, a, b):
    (lam_a, va), (lam_b, vb) = tr.eigh("a", a), tr.eigh("b", b)
    lhs = np.sum(np.exp(-t * np.linalg.eigvalsh(a + b)), axis=-1)
    return lhs, _pair_sum(_outer(np.exp(-t * lam_a), np.exp(-t * lam_b)), va, vb)


def _main_trace_domain(g: fc.ScalarFunction) -> str:
    """The domain of A and B: the CM0 form is stated for A, B > 0."""
    return "positive" if g.class_tag == "CM0" else "nonneg"


def _main_trace(tr, q, g, a, b):
    domain = _main_trace_domain(g)
    (lam_a, va), (lam_b, vb) = tr.eigh("a", a), tr.eigh("b", b)
    av, bv = tr.spectra(lam_a, domain), tr.spectra(lam_b, domain)
    # every argument of g is validated first: funclass functions reject a
    # whole array for one out-of-domain entry
    lam_sum = tr.spectra(np.linalg.eigvalsh(a + b), "positive" if domain == "positive" else g.domain)
    lhs = np.sum(g(lam_sum), axis=-1) - np.sum(g(av), axis=-1) - np.sum(g(bv), axis=-1)
    roots = np.sqrt(av[:, :, None] * bv[:, None, :])
    return lhs, _pair_sum(g(2.0 * roots) - 2.0 * g(roots), va, vb)


def _cor_pmean(tr, p, g, a, b):
    (lam_a, va), (lam_b, vb) = tr.eigh("a", a), tr.eigh("b", b)
    ap, bp = mc.spectral_matrix(va, tr.power(lam_a, p)), mc.spectral_matrix(vb, tr.power(lam_b, p))
    lhs = _trace_power(tr, mc.hermitian_part(0.5 * (ap + bp)), 1.0 / p)
    coeff = 2.0 ** (1.0 - 1.0 / p)
    cross = _pair_sum(_outer(tr.power(lam_a, 0.5), tr.power(lam_b, 0.5)), va, vb)
    traces = np.trace(a, axis1=-2, axis2=-1).real + np.trace(b, axis1=-2, axis2=-1).real
    return lhs, coeff * 0.5 * traces + (1.0 - coeff) * cross


def _cor_faltq(tr, q, g, a, b):
    (lam_a, va), (lam_b, vb) = tr.eigh("a", a), tr.eigh("b", b)
    lhs = _sum_power_lhs(tr, a, b, lam_a, lam_b, q)
    return lhs, (2.0**q - 2.0) * _sandwich_trace_power(tr, lam_a, va, lam_b, vb, q / 2.0)


def _alt(tr, q, g, a, b):
    (lam_a, va), (lam_b, vb) = tr.eigh("a", a), tr.eigh("b", b)
    p = q / 2.0
    lhs = _pair_sum(_outer(tr.power(lam_a, p), tr.power(lam_b, p)), va, vb)
    return lhs, _sandwich_trace_power(tr, lam_a, va, lam_b, vb, p)


def _prop_q4(tr, q, g, a, b):
    a2, b2, ab = a @ a, b @ b, a @ b
    t_abab = _product_trace(tr, ab, ab)
    expansion = 4.0 * (
        _product_trace(tr, a2 @ a, b) + _product_trace(tr, a2, b2) + _product_trace(tr, a, b2 @ b)
    ) + 2.0 * t_abab
    lhs = _sum_power_lhs(tr, a, b, np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), 4.0)
    rhs = 12.0 * t_abab
    tr.residual = residual = np.abs(lhs - expansion)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    tr.flag({
        i: f"q=4 expansion identity failed: residual {residual[i]:.3e} vs scale {scale[i]:.3e}"
        for i in np.flatnonzero(residual > PROP_Q4_RESIDUAL_REL * scale).tolist()
    })
    return lhs, rhs


def _cor_abq3(tr, q, g, c, d):
    z, xm = _z_blocks(tr, c, d)
    lam_z = np.linalg.eigvalsh(z)
    if q <= 0:  # Z has rank dim D: its nonzero spectrum is the top dim D, and 0^0 would count the zeros
        lam_z = lam_z[:, -d.shape[-1]:]
        if q < 0:
            lam_z = tr.spectra(lam_z, "positive")
    lhs = np.sum(tr.power(lam_z, q), axis=-1) - _trace_power(tr, xm, q) - _trace_power(tr, d, q)
    (sigma,) = _gram_singular_values(tr, c)
    if q < 0:
        bad = sigma[:, 0] < mc.POSITIVITY_FLOOR_REL * np.maximum(sigma[:, -1], 1.0)
        tr.flag({i: "negative Schatten power of a (near-)singular block" for i in np.flatnonzero(bad).tolist()})
        sigma = np.where(bad[:, None], 1.0, sigma)
    return lhs, (2.0**q - 2.0) * np.sum(sigma**q, axis=-1)


def _norm_compression(tr, q, g, b, c, d):
    lam = tr.spectra(np.linalg.eigvalsh(mc.assemble_blocks(b, c, d)), "nonneg")  # A must be PSD
    beta, gamma, delta = (np.sum(s**q, axis=-1) for s in _gram_singular_values(tr, b, c, d))
    return np.sum(tr.power(lam, q), axis=-1), (2.0**q - 2.0) * gamma + beta + delta


def _trace_subadd_domain(g: fc.ScalarFunction) -> str:
    return "positive" if getattr(g, "domain", "real") == "positive" else "nonneg"


def _trace_subadd(tr, q, g, a, b):
    domain = _trace_subadd_domain(g)

    def tr_g(h):
        return np.sum(g(tr.spectra(np.linalg.eigvalsh(h), domain)), axis=-1)

    return tr_g(a + b), tr_g(a) + tr_g(b)


# ---------------------------------------------------------------------------
# Direction rules: parameter -> (direction, mode); DomainError outside the case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regions:
    """Direction rule from a region list: exponents in `eq` are equality
    cases; otherwise the first (upper bound, direction, mode) span with
    q <= bound applies.  `outside` = (predicate, message) marks the
    parameters that lie outside the case."""

    eq: tuple
    spans: tuple
    outside: tuple | None = None

    def span(self, q: float) -> int | None:
        """Index of the span q falls in; None for an equality exponent."""
        if self.outside is not None and self.outside[0](q):
            raise DomainError(self.outside[1].format(q))
        if q in self.eq:
            return None
        return next((i for i, (hi, _, _) in enumerate(self.spans) if q <= hi), len(self.spans) - 1)

    def __call__(self, q: float) -> tuple[str, str]:
        i = self.span(q)
        return ("eq", VERDICT) if i is None else self.spans[i][1:]


_dir_mccarthy = Regions(
    (1.0,), ((1.0, "le", VERDICT), (np.inf, "ge", VERDICT)),
    (lambda q: q <= 0, "McCarthy inequality needs q > 0, got {}"),
)
_dir_golden_thompson = Regions((), ((np.inf, "le", VERDICT),), (lambda t: t < 0, "kernel rate t must be >= 0, got {}"))
_dir_cor_pmean = Regions(
    (1.0,), ((np.inf, "ge", VERDICT),), (lambda p: p < 1, "power-mean corollary needs p >= 1, got {}")
)
# Stated sense ">=" on (0,1] u [2,3]; reversed on q<0 and [1,2]; q in {0,1,2}
# are the quadratic equality exponents.  Beyond 3 the theorem fails in
# general: evaluation keeps the ">=" orientation and lets the verdict report
# what the matrices do.
_dir_cor_abq = Regions(
    (0.0, 1.0, 2.0), ((0.0, "le", VERDICT), (1.0, "ge", VERDICT), (2.0, "le", VERDICT), (np.inf, "ge", VERDICT))
)
_dir_cor_faltq = Regions((0.0, 1.0, 2.0), (
    (-2.0, "le", VERDICT), (0.0, "le", CONJECTURE), (1.0, "ge", VERDICT), (2.0, "le", VERDICT),
    (3.0, "ge", VERDICT), (np.inf, "ge", CONJECTURE),
))
_dir_cor_abq3 = _dir_cor_faltq  # same region layout after rearrangement
_dir_alt = Regions((0.0, -2.0, 2.0), ((-2.0, "ge", VERDICT), (2.0, "le", VERDICT), (np.inf, "ge", VERDICT)))
_dir_norm_compression = Regions(
    (1.0, 2.0), ((1.0, "ge", VERDICT), (2.0, "le", VERDICT), (3.0, "ge", VERDICT), (np.inf, "ge", CONJECTURE)),
    (lambda q: q <= 0, "norm compression needs q > 0, got {}"),
)
_dir_prop_q4 = Regions((), ((np.inf, "ge", VERDICT),))


def _dir_main_trace(g: fc.ScalarFunction) -> tuple[str, str]:
    direction = fc.gap_pair_direction(g.class_tag)
    if direction is None:
        raise DomainError(f"no trace inequality for class {g.class_tag!r}")
    return direction, VERDICT


def _dir_trace_subadd(g: fc.ScalarFunction) -> tuple[str, str]:
    tag = g.class_tag
    if fc.is_subadditive_class(tag):
        return "le", VERDICT
    if fc.is_superadditive_class(tag):
        return "ge", VERDICT
    raise DomainError(f"trace sub/superadditivity undefined for class {tag!r}")


# ---------------------------------------------------------------------------
# Input kinds, the case table and evaluation
# ---------------------------------------------------------------------------


def _gram(g: np.ndarray) -> np.ndarray:
    return mc.hermitian_part(g @ g.mT.conj())


def _cmat(params: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(K, rows, cols) complex matrices from the first 2*rows*cols entries of
    each parameter row (real parts, then imaginary parts)."""
    n = rows * cols
    return params[:, :n].reshape(-1, rows, cols) + 1j * params[:, n : 2 * n].reshape(-1, rows, cols)


def _draw_pair(rng, ensemble, dim):
    return mc.random_ensemble(ensemble, dim, rng).entries, mc.random_ensemble(ensemble, dim, rng).entries


def _draw_blocks(rng, ensemble, dim):
    w = mc.random_ensemble(ensemble, 2 * dim, rng).entries
    return w[:dim, :dim], w[dim:, :dim], w[dim:, dim:]


def _draw_cd(rng, ensemble, dim):
    c = mc.random_complex_gaussian(rng, dim, dim)
    return c, mc.random_ensemble(ensemble, dim, rng).entries


def _whole(m: np.ndarray, dim: int) -> tuple:
    return (m,)


def _block_partition(w: np.ndarray, dim: int) -> tuple:
    return w[:, :dim, :dim], w[:, dim:, :dim], w[:, dim:, dim:]


@dataclass(frozen=True)
class Factor:
    """One slice of a trial's search parameters: the real, then the imaginary
    parts of a complex side x side factor G (row-major), side = scale * dim.
    It feeds the inputs `keys`, split from the Gram matrix G G^* when `gram`,
    else from G.  A `low_rank` factor may be restricted to its first r
    columns, so that its Gram matrix has rank at most r."""

    keys: tuple[str, ...]
    scale: int = 1
    gram: bool = True
    low_rank: bool = True
    split: Callable[[np.ndarray, int], tuple] = _whole

    def param_count(self, dim: int) -> int:
        return 2 * (self.scale * dim) ** 2

    def build(self, params: np.ndarray, dim: int) -> dict:
        g = _cmat(params, self.scale * dim, self.scale * dim)
        return dict(zip(self.keys, self.split(_gram(g) if self.gram else g, dim)))


@dataclass(frozen=True)
class InputKind:
    """The matrices one trial consumes, named by `keys` (matrix_<key> in
    config files); "c" is a general block, every other input Hermitian.
    `factors` lay the real search parameters out over the inputs, PSD ones as
    Gram matrices.  A record's dim sums the columns of `dim_keys`."""

    draw: Callable[[np.random.Generator, str, int], tuple]
    factors: tuple[Factor, ...]
    dim_keys: tuple[str, ...]

    @cached_property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for f in self.factors for k in f.keys)

    def param_count(self, dim: int) -> int:
        return sum(f.param_count(dim) for f in self.factors)

    def unpack(self, params: np.ndarray, dim: int, column: int | None = None) -> dict:
        """{key: (K, rows, cols)} from (K, P) parameters: every input, or only
        the inputs that parameter `column` feeds."""
        out, lo = {}, 0
        for f in self.factors:
            hi = lo + f.param_count(dim)
            if column is None or lo <= column < hi:
                out.update(f.build(params[:, lo:hi], dim))
            lo = hi
        return out

    def rank_mask(self, dim: int, restarts: np.ndarray) -> np.ndarray:
        """(K, P) mask of the parameters that restart k = restarts[i] uses:
        those of the first 1 + (k mod s) columns of each low-rank factor of
        side s, so each Gram matrix it feeds has rank at most 1 + (k mod s)."""
        masks = []
        for f in self.factors:
            side = f.scale * dim
            col = np.tile(np.arange(side), 2 * side)  # the column of G each parameter sits in
            limit = restarts % side if f.low_rank else np.full(len(restarts), side)
            masks.append(col <= limit[:, None])
        return np.concatenate(masks, axis=1)


PAIR = InputKind(_draw_pair, (Factor(("a",)), Factor(("b",))), ("a",))
BLOCKS = InputKind(_draw_blocks, (Factor(("b", "c", "d"), scale=2, split=_block_partition),), ("b", "d"))
CD = InputKind(_draw_cd, (Factor(("c",), gram=False, low_rank=False), Factor(("d",), low_rank=False)), ("c", "d"))


@dataclass(frozen=True)
class Case:
    """Catalog entry.  `rule` orients the gap from q, or from the scalar
    function when `needs_func`; `kernel` evaluates both sides over stacked
    trials; `fixed_q` replaces q for a case evaluated at one exponent;
    `input_domain` maps the scalar function onto the domain it imposes on
    the inputs.  `verify` runs the case over `grid`, or over `funcs` when
    `needs_func`; `param` names the flag that sets the parameter; `probes`
    maps each named open region of the case to its default grid."""

    kind: InputKind
    rule: Callable[[Any], tuple[str, str]]
    kernel: Callable
    needs_func: bool = False
    fixed_q: float | None = None
    input_domain: Callable[[Any], str] | None = None
    grid: tuple[float, ...] = ()
    funcs: tuple = ()
    param: str = "q"
    probes: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def in_region(self, region: str, q: float | None) -> bool:
        """Whether q lies in the open region `region`: a CONJECTURE exponent
        in the same span of the rule as the region's default grid."""
        if q is None:
            return False
        try:
            return self.rule(q)[1] == CONJECTURE and self.rule.span(q) == self.rule.span(self.probes[region][0])
        except DomainError:
            return False


def _at_power(kernel: Callable) -> Callable:
    """A theorem kernel evaluated at g = x^q: McCarthy's inequality is trace
    sub/superadditivity there, COR_ABQ the main trace inequality."""

    def power_kernel(tr, q, g, *inputs):
        return kernel(tr, q, fc.PowerFunction(q), *inputs)

    return power_kernel


# Verify grids cover the verdict regions: conjecture regions are probe-only,
# and COR_ABQ beyond q=3 is repro-only.
CASES = {
    "MCCARTHY": Case(PAIR, _dir_mccarthy, _at_power(_trace_subadd), grid=(0.5, 1.0, 2.0)),
    "GOLDEN_THOMPSON": Case(PAIR, _dir_golden_thompson, _golden_thompson, grid=(0.0, 0.5, 1.0, 2.0)),
    "MAIN_TRACE": Case(
        PAIR, _dir_main_trace, _main_trace, needs_func=True, input_domain=_main_trace_domain,
        funcs=(
            fc.DiscreteMeasureCM0((0.5, 2.0), (1.0, 0.5)),
            fc.PowerFunction(-0.5),
            fc.PowerFunction(0.5),
            fc.DiscreteMeasureBFk(0, (1.0, 2.0), (1.0, 0.5)),
            fc.PowerFunction(1.5),
            fc.DiscreteMeasureBFk(1, (1.0,), (1.0,)),
            fc.PowerFunction(2.5),
            fc.DiscreteMeasureBFk(2, (0.7, 1.5), (1.0, 1.0)),
            fc.Quadratic(1.0, -2.0, 3.0),
        ),
    ),
    "COR_ABQ": Case(PAIR, _dir_cor_abq, _at_power(_main_trace), grid=(-1.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
    "COR_PMEAN": Case(PAIR, _dir_cor_pmean, _cor_pmean, grid=(1.0, 2.0, 3.0), param="p"),
    "COR_FALTQ": Case(
        PAIR, _dir_cor_faltq, _cor_faltq, grid=(-3.0, -2.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        probes={"FALTQ_HIGH": (3.5, 4.0, 6.0), "FALTQ_NEG": (-1.0,)},
    ),
    "ALT": Case(PAIR, _dir_alt, _alt, grid=(-3.0, -1.0, 0.5, 1.5, 2.0, 3.0)),
    "PROP_Q4": Case(PAIR, _dir_prop_q4, _prop_q4, fixed_q=4.0),
    "COR_ABQ3": Case(CD, _dir_cor_abq3, _cor_abq3, grid=(-2.5, 0.5, 1.5, 2.5)),
    "NORM_COMPRESSION": Case(
        BLOCKS, _dir_norm_compression, _norm_compression, grid=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        probes={"NORMCOMP_HIGH": (4.0,)},
    ),
    "TRACE_SUBADD": Case(
        PAIR, _dir_trace_subadd, _trace_subadd, needs_func=True, input_domain=_trace_subadd_domain,
        funcs=(
            fc.DiscreteMeasureCM0((0.5, 2.0), (1.0, 0.5)),
            fc.PowerFunction(0.5),
            fc.DiscreteMeasureBFk(0, (1.0, 2.0), (1.0, 0.5)),
            fc.PowerFunction(2.5),
            fc.DiscreteMeasureBFk(2, (1.0,), (1.0,)),
        ),
    ),
}


def probe_case(region: str) -> str:
    """The case whose entry names the open region `region`."""
    owners = {r: name for name, entry in CASES.items() for r in entry.probes}
    if region not in owners:
        raise ValueError(f"unknown region {region!r}; choose from {sorted(owners)}")
    return owners[region]


def singular_inputs_ok(case: str, q: float | None = None, func: fc.ScalarFunction | None = None) -> bool:
    """Whether singular PSD inputs lie in the domain of `case` at this
    parameter: not under a negative power, nor where the scalar function
    needs positive arguments (or, as MAIN_TRACE's CM0 form, A, B > 0)."""
    entry = CASES[case]
    if entry.needs_func:
        return "positive" not in (getattr(func, "domain", "real"), entry.input_domain(func))
    q = entry.fixed_q if entry.fixed_q is not None else q
    return q is None or q >= 0


@dataclass(frozen=True)
class Batch:
    """One case evaluated on T stacked trials."""

    case: str
    q: float | None
    dim: int
    func: str
    direction: str
    mode: str
    lhs: np.ndarray
    rhs: np.ndarray
    reasons: list[str]  # "" where the trial was evaluated
    residual: np.ndarray | None
    tol_rel: float
    decomps: dict = field(default_factory=dict, repr=False)  # input key -> the kernel's eigh of it

    def gaps(self) -> np.ndarray:
        """Oriented gaps, +inf where a trial was skipped."""
        gap = oriented_gap(self.direction, self.lhs, self.rhs)
        return np.where(np.fromiter(map(bool, self.reasons), bool, len(self.reasons)), np.inf, gap)

    def records(self, seeds, ensemble: str, cell: tuple | None = None) -> list[TrialRecord]:
        """One record per trial; a skipped trial's record carries the cell's
        (q, dim) when given."""
        q, dim = cell if cell is not None else (self.q, self.dim)
        tol = self.tol_rel * np.maximum(np.maximum(np.abs(self.lhs), np.abs(self.rhs)), 1.0)
        gap = oriented_gap(self.direction, self.lhs, self.rhs)
        if self.mode == CONJECTURE:
            verdicts = ["CONJECTURE_OBS"] * len(gap)
        else:
            verdicts = np.where(gap >= -tol, "PASS", "FAIL").tolist()
        rows = zip(seeds, self.reasons, self.lhs.tolist(), self.rhs.tolist(), gap.tolist(), tol.tolist(), verdicts)
        return [
            TrialRecord(self.case, q, dim, seed, ensemble, 0.0, 0.0, 0.0, 0.0, "SKIPPED", reason) if reason
            else TrialRecord(self.case, self.q, self.dim, seed, ensemble, lhs, rhs, g, t, v, func=self.func)
            for seed, reason, lhs, rhs, g, t, v in rows
        ]


def _func_label(g: fc.ScalarFunction) -> str:
    d = g.to_json()
    variant = d.pop("variant")
    args = ",".join(f"{k}={v}" for k, v in d.items())
    return f"{variant}({args})"


def evaluate(
    case: str, inputs: dict, q: float | None = None, func: fc.ScalarFunction | None = None,
    tol_rel: float = DEFAULT_TOL_REL, decomps: dict | None = None,
) -> Batch:
    """Evaluate `case` on stacked inputs {key: (T, rows, cols)}.  Trials
    outside the kernel's domain are skipped with a reason; a parameter (q or
    the function's class) outside the case skips every trial.  `decomps`
    {key: mc.eigh(inputs[key])} are decompositions the caller already holds;
    the batch returns them with those the kernel computed."""
    entry = CASES[case]
    if entry.fixed_q is not None:
        q = entry.fixed_q
    tr = _Trials(len(inputs[entry.kind.keys[0]]), decomps)
    try:
        direction, mode = entry.rule(func if entry.needs_func else q)
    except DomainError as exc:
        tr.reasons = [str(exc)] * len(tr.reasons)
        direction, mode, lhs = "eq", VERDICT, np.zeros(len(tr.reasons))
        rhs = lhs
    else:
        lhs, rhs = entry.kernel(tr, q, func, *(inputs[k] for k in entry.kind.keys))
    return Batch(
        case=case, q=None if entry.needs_func else q,
        dim=sum(inputs[k].shape[-1] for k in entry.kind.dim_keys),
        func=_func_label(func) if entry.needs_func else "", direction=direction, mode=mode,
        lhs=lhs, rhs=rhs, reasons=tr.reasons, residual=tr.residual, tol_rel=tol_rel, decomps=tr.decomps,
    )


def _stack_one(inputs: dict) -> dict:
    return {k: (mc._coerce(v) if k == "c" else mc.as_hermitian(v).entries)[None] for k, v in inputs.items()}


def _evaluate_single(case, inputs, q, func, tol_rel) -> Batch:
    batch = evaluate(case, _stack_one(inputs), q, func, tol_rel)
    if batch.reasons[0]:
        raise DomainError(batch.reasons[0])
    return batch


def evaluate_one(
    case: str, inputs: dict, q: float | None = None, func: fc.ScalarFunction | None = None,
    *, tol_rel: float = DEFAULT_TOL_REL, seed: int = -1, ensemble: str = "direct",
) -> TrialRecord:
    """Evaluate `case` on one trial's matrices {key: matrix}; raises
    DomainError with the reason a batch would skip the trial for."""
    return _evaluate_single(case, inputs, q, func, tol_rel).records([seed], ensemble)[0]


# ---------------------------------------------------------------------------
# One-trial operations
# ---------------------------------------------------------------------------


def mccarthy_gap(a, b, q: float, **meta) -> TrialRecord:
    """trace(A+B)^q vs trace A^q + trace B^q (sub/superadditive by region)."""
    return evaluate_one("MCCARTHY", {"a": a, "b": b}, q, **meta)


def golden_thompson_gap(a, b, t: float, **meta) -> TrialRecord:
    """trace exp(-(A+B)t) <= trace exp(-At) exp(-Bt) for Hermitian A, B."""
    return evaluate_one("GOLDEN_THOMPSON", {"a": a, "b": b}, t, **meta)


def main_trace_ineq(g: fc.ScalarFunction, a, b, **meta) -> TrialRecord:
    """trace(g(A+B)-g(A)-g(B)) vs the projector double sum
    sum_{k,l} (g(2 sqrt(a_k b_l)) - 2 g(sqrt(a_k b_l))) |<v_k, w_l>|^2."""
    return evaluate_one("MAIN_TRACE", {"a": a, "b": b}, func=g, **meta)


def cor_abq_gap(a, b, q: float, **meta) -> TrialRecord:
    """trace(A+B)^q - trace A^q - trace B^q vs (2^q - 2) trace A^{q/2} B^{q/2}."""
    return evaluate_one("COR_ABQ", {"a": a, "b": b}, q, **meta)


def cor_pmean_gap(a, b, p: float, **meta) -> TrialRecord:
    """Power-means form: trace((A^p+B^p)/2)^{1/p} vs the mixed lower bound."""
    return evaluate_one("COR_PMEAN", {"a": a, "b": b}, p, **meta)


def cor_faltq_gap(a, b, q: float, **meta) -> TrialRecord:
    """As cor_abq_gap with trace(A^{1/2} B A^{1/2})^{q/2} on the right."""
    return evaluate_one("COR_FALTQ", {"a": a, "b": b}, q, **meta)


def alt_gap(a, b, q: float, **meta) -> TrialRecord:
    """Araki-Lieb-Thirring comparison:
    trace A^{q/2} B^{q/2} vs trace (A^{1/2} B A^{1/2})^{q/2}."""
    return evaluate_one("ALT", {"a": a, "b": b}, q, **meta)


def prop_q4_check(a, b, *, tol_rel: float = DEFAULT_TOL_REL, seed: int = -1, ensemble: str = "direct"):
    """The q=4 expansion: trace(A+B)^4 - trace A^4 - trace B^4 equals
    4 trace(A^3 B + A^2 B^2 + A B^3) + 2 trace (AB)^2 (an identity), and is
    bounded below by 12 trace (AB)^2.  Returns (identity residual, record);
    raises DomainError when the residual exceeds PROP_Q4_RESIDUAL_REL."""
    batch = _evaluate_single("PROP_Q4", {"a": a, "b": b}, None, None, tol_rel)
    return float(batch.residual[0]), batch.records([seed], ensemble)[0]


def cor_abq3_gap(c, d, q: float, **meta) -> TrialRecord:
    """Block form: trace Z^q - trace(C^* D^{-1} C)^q - trace D^q vs
    (2^q - 2) trace |C|^q, Z the assembled partitioned matrix."""
    return evaluate_one("COR_ABQ3", {"c": c, "d": d}, q, **meta)


def norm_compression_gap(b, c, d, q: float, **meta) -> TrialRecord:
    """trace A^q vs (2^q - 2) gamma^q + beta^q + delta^q for the partitioned
    PSD matrix A = [[B, C^*], [C, D]] with block Schatten norms beta, gamma,
    delta."""
    return evaluate_one("NORM_COMPRESSION", {"b": b, "c": c, "d": d}, q, **meta)


def trace_subadd_gap(g: fc.ScalarFunction, a, b, **meta) -> TrialRecord:
    """trace g(A+B) vs trace g(A) + trace g(B): subadditive for CM0 and BF0,
    superadditive for the primitive classes BFk, k >= 1."""
    return evaluate_one("TRACE_SUBADD", {"a": a, "b": b}, func=g, **meta)


def projector_overlap_total(a, b) -> float:
    """sum_{k,l} tr A_k B_l over the rank-one eigenprojector pairs (= dim)."""
    return float(_pair_sum(1.0, mc.eigh(a).eigenvectors, mc.eigh(b).eigenvectors))


def _z_block(c, d) -> tuple[HermitianMatrix, HermitianMatrix, HermitianMatrix]:
    """(Z, X, D) of cor_abq3_gap for one block pair; raises unless D > 0."""
    tr, x = _Trials(1), _stack_one({"c": c, "d": d})
    z, xm = _z_blocks(tr, x["c"], x["d"])
    if tr.reasons[0]:
        raise DomainError(tr.reasons[0])
    return HermitianMatrix(z[0]), HermitianMatrix(xm[0]), HermitianMatrix(x["d"][0])


def z_spectrum_check(c, d) -> float:
    """Hausdorff distance between the nonzero spectra of A+B (with
    A = D^{-1/2} C C^* D^{-1/2}, B = D) and of the block matrix Z."""
    z, _, dh = _z_block(c, d)
    ch, dinv_half = mc._coerce(c), mc.matrix_power(dh, -0.5).entries
    lam_ab = mc.eigh(dinv_half @ ch @ ch.conj().T @ dinv_half + dh.entries).eigenvalues
    lam_z = mc.eigh(z).eigenvalues[-dh.dim:]
    diff = np.abs(lam_ab[:, None] - lam_z[None, :])
    return float(max(diff.min(axis=0).max(), diff.min(axis=1).max()))
