"""Tests for the scalar function classes, quadrature and scalar inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import funclass as fc
from tracelab.matcore import DomainError

REPRESENTATIVES = {
    "CM0": [fc.DiscreteMeasureCM0((0.5, 2.0), (1.0, 0.5)), fc.PowerFunction(-0.5)],
    "BF0": [fc.DiscreteMeasureBFk(0, (1.0, 2.0), (1.0, 0.5)), fc.PowerFunction(0.5)],
    "BF1": [fc.DiscreteMeasureBFk(1, (1.0,), (1.0,)), fc.PowerFunction(1.5)],
    "BF2": [fc.DiscreteMeasureBFk(2, (0.7, 1.5), (1.0, 1.0)), fc.PowerFunction(2.5)],
}


def sample_ab(f, rng, n):
    """(a, b) samples inside f's domain."""
    if getattr(f, "domain", "real") == "positive":
        return (
            np.exp(rng.uniform(np.log(1e-2), np.log(50.0), n)),
            np.exp(rng.uniform(np.log(1e-2), np.log(50.0), n)),
        )
    a = rng.uniform(0.0, 20.0, n)
    b = rng.uniform(0.0, 20.0, n)
    a[rng.uniform(size=n) < 0.05] = 0.0  # exercise the boundary
    return a, b


class TestEvaluation:
    def test_power_sqrt(self):
        assert fc.PowerFunction(0.5)(4.0) == 2.0

    def test_bfk_vanishes_at_zero(self):
        f = fc.DiscreteMeasureBFk(1, (1.0,), (1.0,))
        assert f(0.0) == 0.0

    def test_cm0_measure_at_zero(self):
        f = fc.DiscreteMeasureCM0((1.0, 2.0), (1.0, 1.0))
        assert f(0.0) == 2.0

    def test_negative_power_rejects_zero(self):
        with pytest.raises(DomainError):
            fc.PowerFunction(-1.0)(0.0)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            fc.PowerFunction(0.5)(-1.0)

    def test_exp_kernel_both_signs(self):
        assert fc.ExpKernel(2.0, 1)(1.5) == pytest.approx(math.exp(-3.0), rel=1e-15)
        assert fc.ExpKernel(2.0, -1)(1.5) == pytest.approx(-math.expm1(-3.0), rel=1e-15)
        # rate 0 is allowed: the constants 1 and 0, which are quadratics
        assert (fc.ExpKernel(0.0, 1)(1.5), fc.ExpKernel(0.0, -1)(1.5)) == (1.0, 0.0)
        assert fc.ExpKernel(0.0).class_tag == "quadratic"

    def test_bf0_kernel_equals_exp_kernel(self):
        # k = 0 of the primitive family is exactly 1 - exp(-x t)
        f = fc.DiscreteMeasureBFk(0, (1.7,), (1.0,))
        g = fc.ExpKernel(1.7, -1)
        xs = np.linspace(0.0, 8.0, 41)
        assert np.allclose(f(xs), g(xs), atol=1e-15)

    def test_bfk_kernel_series_direct_boundary(self):
        # direct formula as oracle just above the series/direct crossover
        for k in range(5):
            for u in np.linspace(0.9, 1.3, 17):
                direct = (-1.0) ** (k + 1) * (
                    math.exp(-u) - sum((-u) ** j / math.factorial(j) for j in range(k + 1))
                )
                assert fc._bfk_kernel(np.array([u]), k)[0] == pytest.approx(direct, abs=1e-15)

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            fc.DiscreteMeasureCM0((1.0, -1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            fc.DiscreteMeasureBFk(1, (1.0,), (0.0,))
        with pytest.raises(ValueError):
            fc.DiscreteMeasureBFk(-1, (1.0,), (1.0,))


class TestClassification:
    @pytest.mark.parametrize(
        "q,tag",
        [
            (-2.0, "CM0"),
            (-0.5, "CM0"),
            (0.5, "BF0"),
            (1.5, "BF1"),
            (2.5, "BF2"),
            (3.5, "BF3"),
            (0.0, "quadratic"),
            (1.0, "quadratic"),
            (2.0, "quadratic"),
            (3.0, "none"),
            (4.0, "none"),
        ],
    )
    def test_classify_power(self, q, tag):
        assert fc.classify_power(q) == tag
        assert fc.PowerFunction(q).class_tag == tag

    def test_tag_helpers(self):
        assert fc.bf_order("BF3") == 3
        assert fc.bf_order("CM0") is None
        assert fc.is_subadditive_class("CM0") and fc.is_subadditive_class("BF0")
        assert fc.is_superadditive_class("BF1") and not fc.is_superadditive_class("BF0")
        assert fc.gap_pair_direction("CM0") == "le"
        assert fc.gap_pair_direction("BF2") == "ge"
        assert fc.gap_pair_direction("BF3") is None


class TestGamma:
    def test_gamma_one(self):
        assert fc.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_half(self):
        assert fc.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_gamma_by_quadrature_oracle(self):
        # Gamma(4.3) = integral of t^3.3 exp(-t) over the half-line
        oracle = fc.integrate_halfline(lambda t: t**3.3 * math.exp(-t))
        assert fc.gamma_fn(4.3) == pytest.approx(oracle, rel=1e-7)

    def test_gamma_against_stdlib(self):
        for x in np.linspace(0.1, 20.0, 57):
            assert fc.gamma_fn(float(x)) == pytest.approx(math.gamma(x), rel=1e-10)

    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fc.gamma_fn(0.0)


class TestPowerQuadrature:
    def test_example_values(self):
        assert fc.power_via_quadrature(-0.5, 2.0) == pytest.approx(2.0**-0.5, rel=1e-8)
        assert fc.power_via_quadrature(0.5, 4.0) == pytest.approx(2.0, rel=1e-8)
        assert fc.power_via_quadrature(0.3, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_agreement_grid(self):
        for q in (-1.5, -0.5, 0.3, 0.7):
            for x in (0.1, 0.5, 1.0, 2.0, 10.0):
                got = fc.power_via_quadrature(q, x)
                assert abs(got - x**q) <= 1e-6 * abs(x**q)

    def test_rejects_out_of_range_q(self):
        for q in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                fc.power_via_quadrature(q, 1.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            fc.power_via_quadrature(0.5, 0.0)

    def test_interval_quadrature_polynomial(self):
        # exact-ish on a smooth integrand: int_0^2 x^3 dx = 4, mapped onto (0, 1)
        assert 2.0 * fc.integrate_unit_interval(lambda y: (2.0 * y) ** 3) == pytest.approx(4.0, rel=1e-10)

    def test_unit_interval_endpoint_singularity(self):
        assert fc.integrate_unit_interval(lambda x: x**-0.5) == pytest.approx(2.0, rel=1e-8)
        assert fc.integrate_unit_interval(lambda x: (1.0 - x) ** -0.5) == pytest.approx(2.0, rel=1e-8)


class TestScalarGaps:
    def test_quadratic_equality(self):
        g = fc.Quadratic(0.7, -1.3, 2.1)
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = rng.uniform(0, 10, 2)
            ga, gg = fc.scalar_gap_pair(g, a, b)
            assert abs(ga - gg) <= 1e-11 * max(abs(ga), abs(gg), 1.0)
            assert min(fc.gap_chain_margins("quadratic", ga, gg)) >= -1e-11 * max(abs(ga), abs(gg), 1.0)

    def test_equal_arguments_collapse(self):
        # a + b and 2 sqrt(ab) coincide, so both gaps evaluate the same
        # points; only summation order can differ
        for g in (fc.PowerFunction(0.5), fc.ExpKernel(1.0, 1), fc.DiscreteMeasureBFk(2, (1.0,), (1.0,))):
            ga, gg = fc.scalar_gap_pair(g, 3.0, 3.0)
            assert ga == pytest.approx(gg, rel=1e-14, abs=1e-14)

    def test_exp_kernel_values(self):
        ga, gg = fc.scalar_gap_pair(fc.ExpKernel(1.0, 1), 1.0, 4.0)
        assert ga == pytest.approx(math.exp(-5) - math.exp(-1) - math.exp(-4), rel=1e-12)
        assert gg == pytest.approx(math.exp(-4) - 2 * math.exp(-2), rel=1e-12)
        assert ga <= gg

    def test_rejects_negative_arguments(self):
        with pytest.raises(DomainError):
            fc.scalar_gap_pair(fc.PowerFunction(0.5), -1.0, 1.0)

    def test_chain_margins_per_class(self):
        rng = np.random.default_rng(77)
        for tag, reps in REPRESENTATIVES.items():
            for f in reps:
                a, b = sample_ab(f, rng, 1000)
                for x, y in zip(a, b):
                    ga, gg = fc.scalar_gap_pair(f, x, y)
                    scale = max(abs(ga), abs(gg), 1.0)
                    assert min(fc.gap_chain_margins(tag, ga, gg)) >= -1e-10 * scale

    def test_bf3_breaks_the_pattern(self):
        # x^3.5 is BF3: the two-sided comparison fails in the sense its
        # kernel sign would suggest
        g = fc.PowerFunction(3.5)
        ga, gg = fc.scalar_gap_pair(g, 1.0, 2.0)
        assert ga - gg > 1e-6 * max(abs(ga), abs(gg), 1.0)

    def test_margins_reject_unknown_class(self):
        with pytest.raises(ValueError):
            fc.gap_chain_margins("BF3", 0.0, 0.0)


class TestShapeLemmas:
    def test_cm0_members_decreasing_convex(self):
        xs = np.linspace(0.05, 10.0, 60)
        for f in REPRESENTATIVES["CM0"]:
            v = f(xs)
            scale = max(np.max(np.abs(v)), 1.0)
            assert np.all(np.diff(v) <= 1e-10 * scale)
            mid = f((xs[:-2] + xs[2:]) / 2.0)
            assert np.all(mid <= (v[:-2] + v[2:]) / 2.0 + 1e-10 * scale)

    def test_bf0_members_increasing_concave_zero(self):
        xs = np.linspace(0.0, 10.0, 60)
        for f in REPRESENTATIVES["BF0"]:
            v = f(xs)
            scale = max(np.max(np.abs(v)), 1.0)
            assert abs(f(0.0)) <= 1e-12
            assert np.all(np.diff(v) >= -1e-10 * scale)
            mid = f((xs[:-2] + xs[2:]) / 2.0)
            assert np.all(mid >= (v[:-2] + v[2:]) / 2.0 - 1e-10 * scale)

    @pytest.mark.parametrize("tag", ["BF1", "BF2"])
    def test_bfk_members_increasing_convex_zero(self, tag):
        xs = np.linspace(0.0, 10.0, 60)
        for f in REPRESENTATIVES[tag]:
            v = f(xs)
            scale = max(np.max(np.abs(v)), 1.0)
            assert abs(f(0.0)) <= 1e-12
            assert np.all(np.diff(v) >= -1e-10 * scale)
            mid = f((xs[:-2] + xs[2:]) / 2.0)
            assert np.all(mid <= (v[:-2] + v[2:]) / 2.0 + 1e-10 * scale)


class TestSubadditivity:
    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_subadditive_classes(self, x, y):
        for f in (REPRESENTATIVES["CM0"][0], *REPRESENTATIVES["BF0"]):
            fx, fy, fxy = float(f(x)), float(f(y)), float(f(x + y))
            assert fxy <= fx + fy + 1e-10 * max(abs(fx) + abs(fy), 1.0)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_superadditive_classes(self, x, y):
        for f in (*REPRESENTATIVES["BF1"], *REPRESENTATIVES["BF2"]):
            fx, fy, fxy = float(f(x)), float(f(y)), float(f(x + y))
            assert fxy >= fx + fy - 1e-10 * max(abs(fxy), 1.0)


class TestIntegrationChain:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_primitive_chain(self, k):
        nodes, weights = (0.8, 2.5), (1.0, 0.4)
        lower = fc.DiscreteMeasureBFk(k - 1, nodes, weights)
        upper = fc.DiscreteMeasureBFk(k, nodes, weights)
        for x in (0.25, 1.0, 3.0, 7.0):
            got = x * fc.integrate_unit_interval(lambda y: float(lower(x * y)))
            assert got == pytest.approx(float(upper(x)), rel=1e-6)


class TestFunctionJson:
    @pytest.mark.parametrize(
        "f",
        [
            fc.PowerFunction(-0.5),
            fc.ExpKernel(2.0, -1),
            fc.Quadratic(1.0, 2.0, 3.0),
            fc.DiscreteMeasureCM0((1.0, 2.0), (0.5, 0.5)),
            fc.DiscreteMeasureBFk(2, (1.0,), (1.0,)),
        ],
    )
    def test_roundtrip(self, f):
        back = fc.function_from_json(f.to_json())
        assert back == f

    @pytest.mark.parametrize(
        "spec",
        [
            {"variant": "power", "q": math.inf},
            {"variant": "exp_kernel", "t": math.nan},
            {"variant": "exp_kernel", "t": 1.0, "sign": math.nan},
            {"variant": "quadratic", "c0": 1.0, "c1": -math.inf, "c2": 3.0},
            {"variant": "cm0_discrete", "nodes": [math.nan, 1.0], "weights": [1.0, 1.0]},
            {"variant": "cm0_discrete", "nodes": [1.0], "weights": [math.inf]},
            {"variant": "bfk_discrete", "k": 1, "nodes": [math.inf], "weights": [1.0]},
            {"variant": "bfk_discrete", "k": math.inf, "nodes": [1.0], "weights": [1.0]},
        ],
    )
    def test_non_finite_numbers_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            fc.function_from_json(spec)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            fc.function_from_json({"variant": "mystery"})
