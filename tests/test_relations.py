"""Metamorphic relations over the case table, in units of each record's tol.

Every PAIR case is checked at its verify grid (or verify functions) on
stacked Wishart pairs: both sides are unchanged by swapping A and B and by a
joint unitary conjugation, and additive over direct sums A1+A2, B1+B2.  The
power corollaries are the theorem cases at g = x^q, so MCCARTHY(q) equals
TRACE_SUBADD(x^q) and COR_ABQ(q) equals MAIN_TRACE(x^q).
"""

import numpy as np
import pytest

from tracelab import funclass as fc
from tracelab import ineq
from tracelab import matcore as mc

TRIALS = 64
BOUND = 1e-2  # in units of tol

PAIR_PARAMS = [
    (name, param)
    for name, entry in ineq.CASES.items()
    if entry.kind is ineq.PAIR
    for param in (entry.funcs or entry.grid or (None,))
]


def draw_pairs(seed, dim):
    rng = np.random.default_rng(seed)
    mats = [mc.random_ensemble("wishart", dim, rng).entries for _ in range(2 * TRIALS)]
    return np.stack(mats[0::2]), np.stack(mats[1::2])


def sides(case, param, a, b):
    """(lhs, rhs, tol) of every trial; none may be skipped."""
    func = param if ineq.CASES[case].needs_func else None
    q = None if func is not None else param
    records = ineq.evaluate(case, {"a": a, "b": b}, q, func).records(range(len(a)), "wishart")
    assert all(r.verdict != "SKIPPED" for r in records), [r.reason for r in records if r.reason]
    return tuple(np.array([getattr(r, k) for r in records]) for k in ("lhs", "rhs", "tol"))


def deviation(ref, other):
    """max |delta lhs|, |delta rhs| in units of the reference tol."""
    lhs, rhs, tol = ref
    return float(np.max(np.maximum(np.abs(other[0] - lhs), np.abs(other[1] - rhs)) / tol))


def direct_sum(x, y):
    n, m = x.shape[-1], y.shape[-1]
    out = np.zeros((len(x), n + m, n + m), dtype=complex)
    out[:, :n, :n], out[:, n:, n:] = x, y
    return out


@pytest.mark.parametrize("case,param", PAIR_PARAMS, ids=str)
class TestPairRelations:
    def test_swap(self, case, param):
        a, b = draw_pairs(1, 3)
        assert deviation(sides(case, param, a, b), sides(case, param, b, a)) <= BOUND

    def test_joint_unitary_conjugation(self, case, param):
        a, b = draw_pairs(2, 3)
        rng = np.random.default_rng(3)
        u = np.stack([mc.unitary_from_rng(rng, 3) for _ in range(TRIALS)])
        ua, ub = (mc.hermitian_part(u @ m @ u.mT.conj()) for m in (a, b))
        assert deviation(sides(case, param, a, b), sides(case, param, ua, ub)) <= BOUND

    def test_direct_sum_additivity(self, case, param):
        (a1, b1), (a2, b2) = draw_pairs(4, 2), draw_pairs(5, 3)
        whole = sides(case, param, direct_sum(a1, a2), direct_sum(b1, b2))
        parts = [x + y for x, y in zip(sides(case, param, a1, b1), sides(case, param, a2, b2))]
        assert deviation(whole, parts) <= BOUND


# The theorem cases are silent where x^q has no class: TRACE_SUBADD at the
# quadratic exponents 1 and 2, MAIN_TRACE at q = 3.
CROSS_CASES = [("MCCARTHY", "TRACE_SUBADD", q) for q in (0.5, 1.5, 2.5)] + [
    ("COR_ABQ", "MAIN_TRACE", q) for q in ineq.CASES["COR_ABQ"].grid if q != 3.0
]


@pytest.mark.parametrize("corollary,theorem,q", CROSS_CASES)
def test_power_corollary_is_the_theorem_at_power(corollary, theorem, q):
    a, b = draw_pairs(6, 3)
    assert deviation(sides(corollary, q, a, b), sides(theorem, fc.PowerFunction(q), a, b)) <= BOUND
