"""Scalar function classes and the scalar-level inequalities.

Implements bare completely monotone functions (tag CM0), bare Bernstein
functions (BF0) and their k-fold primitives (BF1, BF2, ..., "BF{k}"),
evaluated pointwise or through their half-line integral representations.
Also hosts the quadrature machinery backing the power-function
representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import matcore as mc
from .matcore import DomainError

__all__ = [
    "PowerFunction",
    "ExpKernel",
    "Quadratic",
    "DiscreteMeasureCM0",
    "DiscreteMeasureBFk",
    "ScalarFunction",
    "classify_power",
    "bf_order",
    "is_subadditive_class",
    "is_superadditive_class",
    "gap_pair_direction",
    "gamma_fn",
    "power_via_quadrature",
    "integrate_unit_interval",
    "function_from_json",
]

# Quadrature knobs (tanh-sinh, half-line split at t=1).
QUAD_REL_TARGET = 1e-8
QUAD_NODE_CAP = 2000



# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_power(q: float) -> str:
    """Class tag of x -> x^q.

    Negative exponents are bare completely monotone; 0 < q < 1 bare
    Bernstein; k < q < k+1 the k-th primitive class; q in {0, 1, 2} are the
    quadratic equality cases.  Integer exponents >= 3 belong to no class
    here and get "none".
    """
    if q < 0:
        return "CM0"
    if q in (0.0, 1.0, 2.0):
        return "quadratic"
    if 0.0 < q < 1.0:
        return "BF0"
    if q == int(q):
        return "none"
    return f"BF{int(math.floor(q))}"


def bf_order(tag: str) -> int | None:
    """k for tags of the form 'BF{k}', else None."""
    if tag.startswith("BF") and tag[2:].isdigit():
        return int(tag[2:])
    return None


def is_subadditive_class(tag: str) -> bool:
    return tag == "CM0" or tag == "BF0"


def is_superadditive_class(tag: str) -> bool:
    k = bf_order(tag)
    return k is not None and k >= 1


def gap_pair_direction(tag: str) -> str | None:
    """Direction of gap_add vs gap_geo: 'le' (CM0, BF1), 'ge' (BF0, BF2),
    'eq' (quadratic), None when the theorem is silent (BFk with k > 2)."""
    if tag in ("CM0", "BF1"):
        return "le"
    if tag in ("BF0", "BF2"):
        return "ge"
    if tag == "quadratic":
        return "eq"
    return None


# ---------------------------------------------------------------------------
# Function variants
# ---------------------------------------------------------------------------


def _bfk_kernel(u, k: int):
    """(-1)^(k+1) * (exp(-u) - sum_{j<=k} (-u)^j / j!) for u >= 0.

    Equals sum_{m>=0} (-1)^m u^(k+1+m)/(k+1+m)!; the small-u branch sums that
    series directly to avoid catastrophic cancellation.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    small = u < 1.0
    if np.any(small):
        us = u[small]
        term = us ** (k + 1) / math.factorial(k + 1)
        acc = term.copy()
        for m in range(40):
            term = term * (-us) / (k + 2 + m)
            acc += term
        out[small] = acc
    if np.any(~small):
        ub = u[~small]
        poly = np.ones_like(ub)
        term = np.ones_like(ub)
        for j in range(1, k + 1):
            term = term * (-ub) / j
            poly = poly + term
        out[~small] = (-1.0) ** (k + 1) * (np.exp(-ub) - poly)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PowerFunction:
    """x -> x^q."""

    q: float

    @property
    def class_tag(self) -> str:
        return classify_power(self.q)

    @property
    def domain(self) -> str:
        return mc._power_domain(self.q)

    def __call__(self, x):
        xs = np.asarray(x, dtype=np.float64)
        if self.q < 0 and np.any(xs <= 0.0):
            raise DomainError(f"x^{self.q} requires x > 0")
        if self.domain == "nonneg" and np.any(xs < 0.0):
            raise DomainError(f"x^{self.q} requires x >= 0")
        out = np.power(xs, self.q)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {"variant": "power", "q": self.q}


@dataclass(frozen=True)
class ExpKernel:
    """x -> exp(-x*t) (sign=+1) or 1 - exp(-x*t) (sign=-1), t >= 0."""

    t: float
    sign: int = 1

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("kernel rate t must be >= 0")
        if self.sign not in (1, -1):
            raise ValueError("sign selects the kernel and must be +1 or -1")

    @property
    def class_tag(self) -> str:
        if self.t == 0:
            return "quadratic"  # constant 1 or constant 0
        return "CM0" if self.sign == 1 else "BF0"

    domain = "real"

    def __call__(self, x):
        xs = np.asarray(x, dtype=np.float64)
        out = np.exp(-xs * self.t) if self.sign == 1 else -np.expm1(-xs * self.t)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {"variant": "exp_kernel", "t": self.t, "sign": self.sign}


@dataclass(frozen=True)
class Quadratic:
    """x -> c0 + c1*x + c2*x^2 (the equality class)."""

    c0: float
    c1: float
    c2: float

    class_tag = "quadratic"
    domain = "real"

    def __call__(self, x):
        xs = np.asarray(x, dtype=np.float64)
        out = self.c0 + xs * (self.c1 + xs * self.c2)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {"variant": "quadratic", "c0": self.c0, "c1": self.c1, "c2": self.c2}


def _validated_measure(nodes, weights) -> tuple[tuple[float, ...], tuple[float, ...]]:
    nodes = tuple(float(t) for t in nodes)
    weights = tuple(float(w) for w in weights)
    if len(nodes) != len(weights) or not nodes:
        raise ValueError("nodes and weights must be non-empty and equally long")
    if any(t <= 0 for t in nodes) or any(w <= 0 for w in weights):
        raise ValueError("nodes and weights must be strictly positive")
    return nodes, weights


@dataclass(frozen=True)
class DiscreteMeasureCM0:
    """sum_i w_i exp(-x t_i): a bare completely monotone function."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        n, w = _validated_measure(self.nodes, self.weights)
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "weights", w)

    class_tag = "CM0"
    domain = "real"

    def __call__(self, x):
        xs = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(xs)
        for t, w in zip(self.nodes, self.weights):
            out = out + w * np.exp(-xs * t)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {"variant": "cm0_discrete", "nodes": list(self.nodes), "weights": list(self.weights)}


@dataclass(frozen=True)
class DiscreteMeasureBFk:
    """k-fold primitive of a bare Bernstein function over a discrete measure.

    Evaluates sum_i w_i * (-1)^(k+1) (exp(-x t_i) - sum_{j<=k} (-x t_i)^j/j!) / t_i^k.
    k = 0 gives the bare Bernstein kernel 1 - exp(-x t).
    """

    k: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.k < 0 or self.k != int(self.k):
            raise ValueError("k must be a nonnegative integer")
        n, w = _validated_measure(self.nodes, self.weights)
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "weights", w)

    @property
    def class_tag(self) -> str:
        return f"BF{self.k}"

    domain = "real"

    def __call__(self, x):
        xs = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(xs)
        for t, w in zip(self.nodes, self.weights):
            out = out + (w / t**self.k) * _bfk_kernel(xs * t, self.k)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {
            "variant": "bfk_discrete",
            "k": self.k,
            "nodes": list(self.nodes),
            "weights": list(self.weights),
        }


ScalarFunction = Union[PowerFunction, ExpKernel, Quadratic, DiscreteMeasureCM0, DiscreteMeasureBFk]


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"function parameters must be finite, got {x}")
    return x


def _integer(value) -> int:
    x = _finite(value)
    if x != int(x):
        raise ValueError(f"function parameters k and sign must be integers, got {x}")
    return int(x)


def function_from_json(obj: dict) -> ScalarFunction:
    """Parse a function spec; ValueError for an unknown variant, a
    non-finite number or a non-integral k or sign."""
    variant = obj.get("variant")
    if variant == "power":
        return PowerFunction(_finite(obj["q"]))
    if variant == "exp_kernel":
        return ExpKernel(_finite(obj["t"]), _integer(obj.get("sign", 1)))
    if variant == "quadratic":
        return Quadratic(_finite(obj["c0"]), _finite(obj["c1"]), _finite(obj["c2"]))
    if variant == "cm0_discrete":
        return DiscreteMeasureCM0(tuple(map(_finite, obj["nodes"])), tuple(map(_finite, obj["weights"])))
    if variant == "bfk_discrete":
        return DiscreteMeasureBFk(
            _integer(obj["k"]), tuple(map(_finite, obj["nodes"])), tuple(map(_finite, obj["weights"]))
        )
    raise ValueError(f"unknown function variant {variant!r}")


# ---------------------------------------------------------------------------
# Gamma function
# ---------------------------------------------------------------------------


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0 (math.gamma)."""
    if x <= 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# Tanh-sinh quadrature
# ---------------------------------------------------------------------------

_TS_TMAX = 6.5  # |t| beyond this: weights underflow well past double precision


def _ts_level_sum(f: Callable[[float], float], h: float) -> tuple[float, int]:
    """One trapezoidal level of the tanh-sinh rule on (0, 1)."""
    total = 0.0
    evals = 0
    j = 0
    while True:
        t = j * h
        if t > _TS_TMAX:
            break
        u = 0.5 * math.pi * math.sinh(t)
        w = 0.25 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        contrib = 0.0
        # node pair at +-t; y and 1-y computed without cancellation
        for sgn in ((1,) if j == 0 else (1, -1)):
            eu = math.exp(-2.0 * sgn * u) if abs(2.0 * u) < 700 else (
                0.0 if sgn > 0 else math.inf
            )
            y = 1.0 / (1.0 + eu)
            if y <= 0.0 or y >= 1.0:
                continue
            contrib += w * f(y)
            evals += 1
        total += contrib
        if j > 0 and abs(contrib) <= 1e-16 * abs(total):
            break
        j += 1
    return total * h, evals


def integrate_unit_interval(
    f: Callable[[float], float],
    rel_target: float = QUAD_REL_TARGET,
    max_nodes: int = QUAD_NODE_CAP,
) -> float:
    """Integrate f over (0, 1) by adaptive tanh-sinh refinement.

    Handles integrable endpoint singularities.  Refinement stops at the
    relative target or when the node budget is exhausted, whichever first.
    """
    h = 1.0
    value, used = _ts_level_sum(f, h)
    while used < max_nodes:
        h *= 0.5
        new_value, evals = _ts_level_sum(f, h)
        used += evals
        if abs(new_value - value) <= rel_target * max(abs(new_value), 1e-300):
            return new_value
        value = new_value
    return value


def power_via_quadrature(q: float, x: float) -> float:
    """x^q through its half-line integral representation.

    q < 0 uses the Laplace-transform form with weight t^(-q-1)/Gamma(-q);
    0 < q < 1 uses the Bernstein form with kernel 1 - exp(-t x).
    """
    if x <= 0:
        raise DomainError(f"representation requires x > 0, got {x}")
    if q < 0:
        head = integrate_unit_interval(lambda t: math.exp(-x * t) * t ** (-q - 1.0))
        tail = integrate_unit_interval(
            lambda s: math.exp(-x / s + (q - 1.0) * math.log(s))
        )
        return (head + tail) / gamma_fn(-q)
    if 0.0 < q < 1.0:
        # head integrand written as x * t^(-q) * (1-exp(-u))/u to avoid
        # overflow of t^(-q-1) at deep tanh-sinh nodes
        def head_f(t: float) -> float:
            u = x * t
            factor = -math.expm1(-u) / u if u > 0 else 1.0
            return x * t ** (-q) * factor

        head = integrate_unit_interval(head_f)
        tail = integrate_unit_interval(
            lambda s: -math.expm1(-x / s) * math.exp((q - 1.0) * math.log(s))
        )
        return q / gamma_fn(1.0 - q) * (head + tail)
    raise DomainError(f"representation holds for q < 0 or 0 < q < 1, got q={q}")
