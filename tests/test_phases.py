"""Phase functions and hypothesis verifiers."""
import numpy as np
import pytest

from fiolab.expressions import diff_multi, evaluate
from fiolab.phases import (DEFAULT_CAP, GROWTH_TOL, GeneratingFunction,
                           omega_domain_membership, lambda_equivalence,
                           quadratic_generating, special_phase, verify_G2,
                           verify_G3, verify_H2, verify_H3, verify_H3star,
                           verify_separation)
from fiolab.weights import bracket


def assert_witness_measures_constant(rep, expr, variables):
    """The witness is where constants[alpha] of the last failing alpha is
    measured."""
    failing = [a for a, seq in rep.per_radius.items()
               if seq[-1] > DEFAULT_CAP
               or (seq[-2] > 1e-9 and seq[-1] > GROWTH_TOL * seq[-2])]
    alpha = failing[-1]
    pt = np.array([rep.witness])
    d = diff_multi(expr, variables, alpha)
    ratio = np.abs(evaluate(d, variables, pt)) / bracket(pt) ** (2 - sum(alpha))
    assert float(ratio[0]) == pytest.approx(rep.constants[alpha], rel=1e-12)


def test_generating_function_rejects_names_outside_its_variables():
    with pytest.raises(ValueError, match="theta1, x1"):
        GeneratingFunction.from_expr("x1*theta1", 1)


class TestSpecialPhase:
    def test_bilinear(self, S_xt):
        phi = special_phase(S_xt)
        pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        assert np.allclose(phi(pts), (pts[:, 0] - pts[:, 1]) * pts[:, 2])
        assert np.allclose(phi.grad_theta(pts)[:, 0], pts[:, 0] - pts[:, 1])

    def test_chirp_theta_gradient(self, S_chirp):
        phi = special_phase(S_chirp)
        pts = np.array([[1.0, 2.0, 3.0]])
        # grad_theta phi = x + theta - y
        assert phi.grad_theta(pts)[0, 0] == pytest.approx(1.0 + 3.0 - 2.0)

    def test_y_gradient_is_minus_theta(self, rng):
        for expr in ("x*theta", "x*theta + theta**2/2", "2*x*theta"):
            phi = special_phase(GeneratingFunction.from_expr(expr, 1))
            pts = rng.uniform(-5, 5, (50, 3))
            assert np.allclose(phi.grad_y(pts)[:, 0], -pts[:, 2])

    def test_gradients_match_finite_differences(self, S_chirp, rng):
        phi = special_phase(S_chirp)
        pts = rng.uniform(-3, 3, (100, 3))
        h = 1e-6
        for axis, grad in ((0, phi.grad_x), (1, phi.grad_y),
                           (2, phi.grad_theta)):
            plus = pts.copy()
            plus[:, axis] += h
            minus = pts.copy()
            minus[:, axis] -= h
            fd = (phi(plus) - phi(minus)) / (2 * h)
            assert np.allclose(grad(pts)[:, 0], fd, atol=1e-6)


class TestVerifyH2:
    def test_bilinear_passes_with_bounded_constants(self, phi_xt):
        rep = verify_H2(phi_xt)
        assert rep.passed
        # |theta| / lambda(x,y,theta) <= 1 for the (0,0,1) derivative... the
        # (0,0,1) derivative of (x-y)theta is x - y, bounded by sqrt(2)*lambda
        assert rep.constants[(0, 0, 1)] <= np.sqrt(2.0) + 1e-9

    def test_bilinear_third_derivatives_vanish(self, phi_xt):
        rep = verify_H2(phi_xt)
        third = [c for a, c in rep.constants.items() if sum(a) == 3]
        assert third and max(third) == 0.0

    def test_quartic_coupling_fails(self):
        phi = special_phase(GeneratingFunction.from_expr("x**4*theta", 1))
        rep = verify_H2(phi)
        assert not rep.passed and rep.witness is not None
        assert_witness_measures_constant(rep, phi.expr, phi.variables)


class TestVerifyH3:
    def test_bilinear_passes(self, phi_xt):
        rep = verify_H3(phi_xt, radii=(4.0, 8.0))
        assert rep.passed
        assert rep.constants["K1"] >= 0.29
        assert rep.constants["K2"] <= 1.8

    def test_no_x_coupling_fails(self):
        phi = special_phase(GeneratingFunction.from_expr("theta**2/2", 1))
        rep = verify_H3(phi, radii=(4.0, 8.0, 16.0, 32.0, 64.0))
        assert not rep.passed and rep.witness is not None

    def test_h3star_bilinear(self, phi_xt):
        assert verify_H3star(phi_xt, radii=(4.0, 8.0)).passed


class TestVerifyG2:
    def test_bilinear_delta_one(self, S_xt):
        rep = verify_G2(S_xt)
        assert rep.passed and rep.constants["delta0"] == pytest.approx(1.0)

    def test_constant_mixed_term(self):
        S = GeneratingFunction.from_expr("x*theta + x**2/2 + theta**2/2", 1)
        assert verify_G2(S).constants["delta0"] == pytest.approx(1.0)

    def test_no_coupling_fails(self):
        S = quadratic_generating({((2,), (0,)): 1.0, ((0,), (2,)): 1.0}, 1)
        rep = verify_G2(S)
        assert not rep.passed
        assert rep.constants["delta0"] == 0.0
        assert rep.witness is not None


class TestVerifyG3:
    def test_bilinear_passes(self, S_xt):
        rep = verify_G3(S_xt)
        assert rep.passed
        third = [c for a, c in rep.constants.items() if sum(a) == 3]
        assert max(third) == 0.0

    def test_n2_quadratic_bounded(self):
        coeffs = {((1, 0), (1, 0)): 1.0, ((1, 0), (0, 1)): 1.0,
                  ((0, 1), (0, 1)): 1.0}
        rep = verify_G3(quadratic_generating(coeffs, 2))
        assert rep.passed
        assert max(rep.constants.values()) <= 2.0 * 1.0 + 1e-9

    def test_exponential_coupling_fails(self):
        S = GeneratingFunction.from_expr("exp(x)*theta", 1)
        rep = verify_G3(S)
        assert not rep.passed and rep.witness is not None
        assert_witness_measures_constant(rep, S.expr, S.variables)


class TestSeparation:
    triples = [(0.0, 1.0, 0.5), (2.0, -1.0, 3.0), (0.3, 0.7, -2.0)]

    def test_bilinear(self, S_xt):
        rep = verify_separation(S_xt, self.triples)
        assert rep.passed and rep.constants["C"] == pytest.approx(1.0)

    def test_theta_shift_cancels(self, S_chirp):
        rep = verify_separation(S_chirp, self.triples)
        assert rep.constants["C"] == pytest.approx(1.0)

    def test_double_coupling(self):
        S = GeneratingFunction.from_expr("2*x*theta", 1)
        rep = verify_separation(S, self.triples)
        assert rep.constants["C"] == pytest.approx(0.5)

    def test_degenerate_pairs_skipped(self, S_xt):
        with pytest.raises(ValueError):
            verify_separation(S_xt, [(1.0, 1.0, 0.0)])


class TestOmegaDomain:
    def test_on_diagonal(self, S_xt):
        assert omega_domain_membership(S_xt, 0.5, (1.0, 1.0, 0.0))

    def test_off_diagonal(self, S_xt):
        assert not omega_domain_membership(S_xt, 0.5, (0.0, 1.0, 0.0))

    def test_chirp_membership(self, S_chirp):
        # |1.1 - 1.05|^2 = 0.0025 < 0.01 * (1 + 1.1025 + 0.01)
        assert omega_domain_membership(S_chirp, 0.01, (1.0, 1.05, 0.1))

    def test_lambda_equivalence_on_members(self, S_xt):
        rep = lambda_equivalence(S_xt, eps0=0.01)
        assert rep["members"] > 0
        assert 0.5 <= rep["ratio_min"] <= rep["ratio_max"] <= 2.0
        assert rep["y_over_lambda_max"] <= 2.0


class TestQuadraticGenerating:
    def test_identity_case(self):
        S = quadratic_generating({((1,), (1,)): 1.0}, 1)
        pts = np.array([[2.0, 3.0]])
        assert S(pts)[0] == pytest.approx(6.0)
        assert verify_G2(S).constants["delta0"] == pytest.approx(1.0)

    def test_mixed_hessian_constant(self):
        coeffs = {((1, 0), (1, 0)): 1.0, ((1, 0), (0, 1)): 1.0,
                  ((0, 1), (0, 1)): 1.0}
        S = quadratic_generating(coeffs, 2)
        h = S.mixed_hess(np.array([[0.5, -1.0, 2.0, 0.3]]))[0]
        assert np.allclose(h, np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert abs(np.linalg.det(h)) == pytest.approx(1.0)

    def test_non_quadratic_rejected(self):
        with pytest.raises(ValueError):
            quadratic_generating({((1,), (0,)): 1.0}, 1)


class TestLemmaCrossCheck:
    """G2 + G3 passing implies H2 + H3 passing for the induced phase."""

    def test_bilinear(self, S_xt):
        assert verify_G2(S_xt).passed and verify_G3(S_xt).passed
        phi = special_phase(S_xt)
        assert verify_H2(phi).passed and verify_H3(phi).passed

    def test_chirp(self, S_chirp):
        assert verify_G2(S_chirp).passed and verify_G3(S_chirp).passed
        phi = special_phase(S_chirp)
        assert verify_H2(phi).passed and verify_H3(phi).passed
