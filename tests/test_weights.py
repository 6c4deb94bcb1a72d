"""Tempered weights: model weights, temperedness checks, products."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab.weights import (DegenerateWeightError, LambdaConvention, WeightSpec,
                            bracket, constant_weight, lambda_weight,
                            parse_weight, verify_tempered, weight_product)

ONE_PLUS = LambdaConvention.ONE_PLUS_NORM
SMOOTH = LambdaConvention.SQRT_SUM_SQUARES


def grid_pairs(radius=10.0, count=21):
    ax = np.linspace(-radius, radius, count)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=-1)


class TestLambdaWeight:
    def test_p_zero_is_constant_one(self):
        w = lambda_weight(0.0, 1)
        assert w.C0 == 1.0 and w.l == 0.0
        assert np.allclose(w(np.linspace(-5, 5, 11)), 1.0)

    def test_value_at_origin(self):
        assert lambda_weight(2.0, 1)(np.array([0.0])) == pytest.approx(1.0)

    def test_one_plus_norm_value(self):
        # (1 + |v|)^p at v = 3, p = 1
        w = lambda_weight(1.0, 1, ONE_PLUS)
        assert w(np.array([3.0]))[0] == pytest.approx(4.0)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            lambda_weight(1.0, 0)

    @pytest.mark.parametrize("p", [1e300, -1e300, float("inf"),
                                   float("nan")])
    def test_constant_that_is_not_finite_rejected(self, p):
        # C0 = 2^(|p|/2) of the smooth convention
        with pytest.raises(ValueError, match="not finite"):
            lambda_weight(p, 1)


class TestVerifyTempered:
    def test_lambda_one_certified(self):
        # 1 + |x| <= (1 + |x1|)(1 + |x - x1|) is the triangle inequality
        w = lambda_weight(1.0, 1, ONE_PLUS)
        rep = verify_tempered(w, grid_pairs(), l_candidate=1.0)
        assert rep.passed and rep.C0_estimate <= 1.0 + 1e-12

    def test_lambda_inverse_certified(self):
        w = lambda_weight(-1.0, 1, ONE_PLUS)
        rep = verify_tempered(w, grid_pairs(), l_candidate=1.0)
        assert rep.passed and rep.C0_estimate <= 1.0 + 1e-12

    def test_exponential_weight_fails_with_witness(self):
        w = parse_weight("expr:exp(v1)", 1)
        pairs = np.stack([np.arange(0.0, 40.0), np.zeros(40)], axis=-1)
        rep = verify_tempered(w, pairs, l_candidate=3.0, c0_cap=1e6)
        assert not rep.passed
        assert rep.witness is not None

    def test_zero_weight_rejected(self):
        w = WeightSpec(dim=1, fn=lambda pts: np.maximum(pts[..., 0], 0.0),
                       C0=None, l=None, tag="ramp")
        with pytest.raises(DegenerateWeightError):
            verify_tempered(w, [((1.0,), (-1.0,))], l_candidate=1.0)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            verify_tempered(lambda_weight(1.0, 1), np.empty((0, 2, 1)), 1.0)


class TestWeightProduct:
    def test_value_at_origin(self):
        w = weight_product(lambda_weight(1.0, 1), lambda_weight(2.0, 1))
        assert w(np.array([0.0]))[0] == pytest.approx(1.0)
        assert w.C0 is not None and w.l == 3.0

    def test_exponent_addition(self):
        pts = np.linspace(-6, 6, 41)
        w = weight_product(lambda_weight(1.0, 1, ONE_PLUS),
                           lambda_weight(2.0, 1, ONE_PLUS))
        assert np.allclose(w(pts), lambda_weight(3.0, 1, ONE_PLUS)(pts))

    def test_inverse_exponents_cancel(self):
        pts = np.linspace(-6, 6, 41)
        w = weight_product(lambda_weight(1.0, 1), lambda_weight(-1.0, 1))
        assert np.allclose(w(pts), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weight_product(lambda_weight(1.0, 1), lambda_weight(1.0, 2))

    @given(st.floats(-3, 3), st.floats(-3, 3),
           st.floats(-8, 8))
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, p, q, v):
        a, b = lambda_weight(p, 1), lambda_weight(q, 1)
        pts = np.array([v])
        left = weight_product(a, b)(pts)
        right = weight_product(b, a)(pts)
        assert np.allclose(left, right, rtol=1e-12)


class TestConventions:
    @given(st.floats(-3, 3), st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_factor_bounded_by_sqrt2_power(self, p, v):
        pts = np.array([v])
        smooth = lambda_weight(p, 1, SMOOTH)(pts)[0]
        literal = lambda_weight(p, 1, ONE_PLUS)(pts)[0]
        ratio = smooth / literal
        lo, hi = 2.0 ** (-abs(p) / 2.0), 2.0 ** (abs(p) / 2.0)
        assert lo - 1e-12 <= ratio <= hi + 1e-12

    def test_bracket_forms(self):
        v = np.array([3.0])
        assert bracket(v, SMOOTH)[0] == pytest.approx(np.sqrt(10.0))
        assert bracket(v, ONE_PLUS)[0] == pytest.approx(4.0)


class TestParseWeight:
    def test_tags(self):
        assert parse_weight("lambda:p=2", 1)(np.array([0.0]))[0] == 1.0
        assert parse_weight("const:3", 2)(np.array([[1.0, 1.0]]))[0] == 3.0
        w = parse_weight("expr:1/lam", 1)
        assert w(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            parse_weight("mystery:1", 1)
