"""Symbol classes: derivative access, seminorms, closure constructors."""
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab.expressions import coord_symbols, parse_scalar_expr
from fiolab.grids import GridSpec
from fiolab.symbols import (LowerBoundError, SymbolField, derivative_symbol,
                            product_symbol, reciprocal_symbol,
                            seminorm_estimate)
from fiolab.weights import lambda_weight, parse_weight

X = sp.Symbol("x", real=True)


def gaussian_field(**kw):
    return SymbolField.from_expr("exp(-x**2)", (X,), **kw)


class TestEvalDerivative:
    def test_order_zero(self):
        assert gaussian_field().derivative((0,), [0.0])[0] == 1.0

    def test_odd_derivative_vanishes_at_center(self):
        assert gaussian_field().derivative((1,), [0.0])[0] == 0.0

    def test_first_derivative_value(self):
        v = gaussian_field().derivative((1,), [1.0])[0]
        assert v == pytest.approx(-2.0 * np.exp(-1.0), abs=1e-12)


class TestSeminormEstimate:
    def test_constant_field(self):
        a = SymbolField.constant(1.0, 1)
        assert seminorm_estimate(a, (0,), GridSpec(1, 8.0, 33)) == 1.0

    def test_gaussian_first_derivative(self):
        # sup 2|x| e^{-x^2} = sqrt(2/e) at x = 1/sqrt(2)
        c = seminorm_estimate(gaussian_field(), (1,), GridSpec(1, 4.0, 4001))
        assert c == pytest.approx(np.sqrt(2.0 / np.e), abs=1e-5)

    def test_lambda_squared_in_own_class(self):
        a = SymbolField.from_expr(1 + X ** 2, (X,),
                                  weight=lambda_weight(2.0, 1), rho=1.0)
        c = seminorm_estimate(a, (0,), GridSpec(1, 8.0, 65))
        assert c == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(4, 7))
    @settings(max_examples=10, deadline=None)
    def test_monotone_under_refinement(self, k):
        # finer grids only see more points, so the sup estimate cannot drop
        a = gaussian_field()
        coarse = seminorm_estimate(a, (2,), GridSpec(1, 4.0, 2 ** k))
        fine = seminorm_estimate(a, (2,), GridSpec(1, 4.0, 2 ** (k + 2)))
        assert fine >= coarse - 1e-12


class TestDerivativeSymbol:
    def test_constant_derivative_is_zero(self):
        d = derivative_symbol(SymbolField.constant(1.0, 1), (1,))
        assert np.allclose(d(np.linspace(-3, 3, 11)), 0.0)

    def test_gaussian_stays_in_class(self):
        d = derivative_symbol(gaussian_field(rho=0.0), (1,))
        assert np.isfinite(seminorm_estimate(d, (0,), GridSpec(1, 8.0, 65)))

    def test_lambda_squared_drops_one_power(self):
        # d(1+x^2) = 2x declared with weight lambda^2 * lambda^-1 = lambda
        a = SymbolField.from_expr(1 + X ** 2, (X,),
                                  weight=lambda_weight(2.0, 1), rho=1.0)
        d = derivative_symbol(a, (1,))
        c = seminorm_estimate(d, (0,), GridSpec(1, 64.0, 4097))
        assert c == pytest.approx(2.0, abs=1e-3)

    def test_definition_consistency(self):
        # seminorm of the derivative field at order 0 equals the order-alpha
        # seminorm of the original field on the same grid
        grid = GridSpec(1, 6.0, 301)
        a = gaussian_field(weight=lambda_weight(0.0, 1), rho=0.5)
        direct = seminorm_estimate(a, (2,), grid)
        via_field = seminorm_estimate(derivative_symbol(a, (2,)), (0,), grid)
        assert via_field == pytest.approx(direct, rel=1e-10)


class TestProductSymbol:
    def test_multiplication_by_one(self):
        b = gaussian_field()
        p = product_symbol(SymbolField.constant(1.0, 1,
                                                weight=lambda_weight(0.0, 1)),
                           SymbolField.constant(1.0, 1))
        pts = np.linspace(-3, 3, 11)
        q = product_symbol(SymbolField.from_expr(sp.Integer(1), (X,)), b)
        assert np.allclose(q(pts), b(pts))
        assert np.allclose(p(pts), 1.0)

    def test_gaussian_square(self):
        q = product_symbol(gaussian_field(), gaussian_field())
        c = seminorm_estimate(q, (0,), GridSpec(1, 4.0, 400))
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_lambda_times_lambda(self):
        lam = SymbolField.from_expr(sp.sqrt(1 + X ** 2), (X,),
                                    weight=lambda_weight(1.0, 1))
        q = product_symbol(lam, lam)
        assert q.weight.l == 2.0
        c = seminorm_estimate(q, (0,), GridSpec(1, 8.0, 65))
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        y0, y1 = sp.symbols("y0 y1", real=True)
        b = SymbolField.from_expr(y0 * y1, (y0, y1))
        with pytest.raises(ValueError):
            product_symbol(gaussian_field(), b)


class TestReciprocalSymbol:
    def test_reciprocal_of_one(self):
        r = reciprocal_symbol(SymbolField.constant(1.0, 1), C0=1.0, mu=0.0)
        assert np.allclose(r(np.linspace(-3, 3, 7)), 1.0)

    def test_lambda_squared_reciprocal(self):
        a = SymbolField.from_expr(1 + X ** 2, (X,),
                                  weight=lambda_weight(2.0, 1), rho=1.0)
        r = reciprocal_symbol(a, C0=0.5, mu=2.0, grid=GridSpec(1, 8.0, 65))
        # declared weight lambda^2 * lambda^-4 = lambda^-2; ratio identically 1
        c = seminorm_estimate(r, (0,), GridSpec(1, 8.0, 65))
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound_violation_reports_witness(self):
        with pytest.raises(LowerBoundError) as info:
            reciprocal_symbol(gaussian_field(), C0=1.0, mu=0.0,
                              grid=GridSpec(1, 4.0, 17))
        assert info.value.witness is not None

    def test_pointwise_inverse(self):
        a = SymbolField.from_expr(1 + X ** 2, (X,),
                                  weight=lambda_weight(2.0, 1), rho=1.0)
        r = reciprocal_symbol(a, C0=0.5, mu=2.0)
        pts = np.linspace(-5, 5, 21)
        assert np.allclose(a(pts) * r(pts), 1.0, rtol=1e-13)


class TestValidation:
    def test_rho_range(self):
        with pytest.raises(ValueError):
            SymbolField.from_expr("exp(-x**2)", (X,), rho=1.5)

    def test_weight_dimension(self):
        with pytest.raises(ValueError):
            SymbolField.from_expr("exp(-x**2)", (X,),
                                  weight=lambda_weight(0.0, 2))

    @pytest.mark.parametrize("tag", ["expr:v1", "expr:0*v1"])
    def test_weight_must_be_finite_and_positive(self, tag):
        a = gaussian_field(weight=parse_weight(tag, 1))
        with pytest.raises(ValueError, match="finite and positive"):
            seminorm_estimate(a, (0,), GridSpec(1, 4.0, 16))


class TestParsePrefixes:
    def test_bare_prefix_names_the_single_coordinate(self):
        x0, t0 = coord_symbols("x", 1) + coord_symbols("theta", 1)
        assert parse_scalar_expr("x*theta + x0", (x0, t0)) == x0 * t0 + x0

    def test_shared_prefix_stays_undefined(self):
        xs = coord_symbols("x", 2)
        expr = parse_scalar_expr("x + x1", xs)
        assert expr.free_symbols - set(xs)
