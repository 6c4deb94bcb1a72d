"""Composition diagnostics: predicted vs extracted pseudodifferential symbol,
seminorm-based norm bounds, compactness probes."""
import numpy as np
import pytest
import sympy as sp

from fiolab.grids import GridSpec
from fiolab.operators import Route, adjoint, compose, discretize_fio
from fiolab.pdo import (DeterminantFloorError, NewtonError, OutOfBandError,
                        Which, compactness_probe,
                        compare_symbols, cv_bound_check, cv_seminorm,
                        extract_symbol, predicted_symbol,
                        refinement_ratio, theta_inverse)
from fiolab.phases import GeneratingFunction
from fiolab.symbols import SymbolField
from fiolab.weights import bracket

WIDE_GAUSS = "exp(-(x**2+theta**2)/25)"


def ffstar(S, amp, grid, route=Route.KERNEL):
    F = discretize_fio(S, amp, grid, grid, grid.dual(), route)
    return compose(F, adjoint(F))


class TestLambdaAt:
    """The bracket weight lambda(x, theta) of a stacked point."""

    def test_origin(self):
        assert bracket(np.array([[0.0, 0.0]]))[0] == 1.0

    def test_three_four(self):
        assert bracket(np.array([[3.0, 4.0]]))[0] == pytest.approx(
            np.sqrt(26.0))


class TestThetaInverse:
    def test_affine_frequency_map(self):
        # grad_x S = 2 theta + ... for S = 2 x theta + theta^2/2 the map is
        # xi = 2 theta, independent of x; wait - grad_x = 2 theta, so
        # theta(xi) = xi / 2 ... with S as below grad_x = 2 theta exactly
        S = GeneratingFunction.from_expr("2*x*theta + theta**2/2", 1)
        assert theta_inverse(S, 1.0, 3.0)[0] == pytest.approx(1.5)

    def test_identity_map(self, S_xt):
        assert theta_inverse(S_xt, 0.3, -2.5)[0] == pytest.approx(-2.5)

    def test_degenerate_hessian_rejected(self):
        S = GeneratingFunction.from_expr("theta**2/2", 1)
        with pytest.raises(NewtonError):
            theta_inverse(S, 0.0, 1.0)


class TestPredictedSymbol:
    def test_unit_amplitude_identity_case(self, S_xt):
        base, value = predicted_symbol(S_xt, "1", 0.0, 0.0)
        assert np.allclose(base, [0.0, 0.0])
        assert value == pytest.approx(1.0)

    def test_base_point_uses_frequency_variable(self, S_xt):
        base, _ = predicted_symbol(S_xt, "1", 0.5, 2.0)
        # FF* lives at (x, grad_x S) = (0.5, 2.0)
        assert np.allclose(base, [0.5, 2.0])
        base2, _ = predicted_symbol(S_xt, "1", 0.5, 2.0, which=Which.FSTARF)
        # F*F lives at (grad_theta S, theta) = (0.5, 2.0) for S = x theta
        assert np.allclose(base2, [0.5, 2.0])

    def test_determinant_scaling(self):
        S = GeneratingFunction.from_expr("2*x*theta", 1)
        _, value = predicted_symbol(S, "1", 0.0, 0.0)
        assert value == pytest.approx(0.5)

    def test_determinant_floor(self):
        S = GeneratingFunction.from_expr("theta**2/2", 1)
        with pytest.raises(DeterminantFloorError):
            predicted_symbol(S, "1", 0.0, 0.0)

    def test_value_that_is_not_finite_rejected(self, S_xt):
        # |a|^2 overflows a double
        with pytest.raises(ValueError, match="not finite"):
            predicted_symbol(S_xt, "1e300", 0.0, 0.0)


class TestExtractSymbol:
    def test_identity_composition_symbol_is_one(self, S_xt, grid256):
        C = ffstar(S_xt, "1", grid256, Route.SPECTRAL)
        assert abs(extract_symbol(C, 0.0, 0.0) - 1.0) < 1e-4

    def test_x_independence_for_multiplier(self, S_xt, grid256):
        C = ffstar(S_xt, "1", grid256, Route.SPECTRAL)
        v0 = extract_symbol(C, 0.0, 1.0)
        v1 = extract_symbol(C, 1.5, 1.0)
        assert abs(v0 - v1) < 1e-10

    @pytest.mark.parametrize("x", [20.0, -20.0])
    def test_base_point_beyond_the_grid_rejected(self, S_xt, x):
        grid = GridSpec(1, 8.0, 64, dft_aligned=True)
        C = ffstar(S_xt, "1", grid, Route.SPECTRAL)
        with pytest.raises(OutOfBandError, match="grid radius"):
            extract_symbol(C, x, 0.0)


class TestCompareSymbols:
    def test_slowly_varying_amplitude(self, S_xt, grid256):
        C = ffstar(S_xt, WIDE_GAUSS, grid256)
        est = compare_symbols(S_xt, WIDE_GAUSS, C,
                              [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
        assert est.max_rel_error < 0.05

    def test_refinement_improves_rescaled_multiplier(self):
        # S = 2 x theta doubles frequencies: keep |xi| small to stay
        # below the y-grid Nyquist rate on both resolutions
        S = GeneratingFunction.from_expr("2*x*theta", 1)
        pts = [(3.0, 0.5), (4.0, 1.0), (3.0, 1.5)]
        ests = []
        for m in (256, 512):
            g = GridSpec(1, 8.0, m, dft_aligned=True)
            C = ffstar(S, "1", g)
            ests.append(compare_symbols(S, "1", C, pts,
                                        window_half_width=2.0))
        assert ests[0].max_rel_error < 0.05
        assert refinement_ratio(ests[0], ests[1]) <= 0.6


class TestCvSeminorm:
    def test_constant_symbol(self):
        x, xi = sp.symbols("x xi", real=True)
        sig = SymbolField.from_expr(sp.Integer(1), (x, xi))
        rep = cv_seminorm(sig, 1, GridSpec(2, 6.0, 200))
        assert rep.Q_k == pytest.approx(1.0)
        assert rep.table[(0, 1)] == 0.0

    def test_monotone_in_k(self):
        x, xi = sp.symbols("x xi", real=True)
        sig = SymbolField.from_expr(sp.exp(-x ** 2 - xi ** 2), (x, xi))
        grid = GridSpec(2, 6.0, 200)
        q0 = cv_seminorm(sig, 0, grid).Q_k
        q1 = cv_seminorm(sig, 1, grid).Q_k
        q2 = cv_seminorm(sig, 2, grid).Q_k
        assert q0 <= q1 <= q2

    def test_negative_sigma_raises(self):
        x, xi = sp.symbols("x xi", real=True)
        sig = SymbolField.from_expr(xi - 1, (x, xi))
        # the first grid point is (-6, -6), where sigma = -7
        with pytest.raises(ValueError, match=r"-7 at the grid point "
                                             r"\[-6.0, -6.0\]"):
            cv_seminorm(sig, 1, GridSpec(2, 6.0, 200))

    def test_gaussian_first_order_value(self):
        # Q_1 = sup(e^{-r^2}) + sup(2|x| e^{-r^2}) * 2 = 1 + 2 sqrt(2/e)
        x, xi = sp.symbols("x xi", real=True)
        sig = SymbolField.from_expr(sp.exp(-x ** 2 - xi ** 2), (x, xi))
        q1 = cv_seminorm(sig, 1, GridSpec(2, 6.0, 400)).Q_k
        assert q1 == pytest.approx(1.0 + 2.0 * np.sqrt(2.0 / np.e), abs=1e-2)


class TestCvBoundCheck:
    def test_unitary_multiplier_saturates(self, S_xt, grid256):
        F = discretize_fio(S_xt, "1", grid256, grid256, grid256.dual(),
                           Route.SPECTRAL)
        x, xi = sp.symbols("x xi", real=True)
        rep = cv_bound_check(F, cv_seminorm(SymbolField.from_expr(
            sp.Integer(1), (x, xi)), 1, GridSpec(2, 6.0, 100)))
        assert rep.passed
        assert rep.ratio == pytest.approx(1.0, abs=1e-6)

    def test_bound_scales_with_gamma(self, S_xt, grid256):
        F = discretize_fio(S_xt, "1", grid256, grid256, grid256.dual(),
                           Route.SPECTRAL)
        x, xi = sp.symbols("x xi", real=True)
        Q = cv_seminorm(SymbolField.from_expr(sp.Integer(1), (x, xi)), 1,
                        GridSpec(2, 6.0, 100))
        # the certified bound is (gamma * Q_k)^{1/2}
        assert cv_bound_check(F, Q, gamma=2.0).bound == pytest.approx(
            np.sqrt(2.0))
        assert not cv_bound_check(F, Q, gamma=0.5).passed


class TestCompactnessProbe:
    coarse = GridSpec(1, 8.0, 256, dft_aligned=True)
    fine = GridSpec(1, 8.0, 512, dft_aligned=True)

    def probe(self, amp, route=Route.KERNEL):
        S = GeneratingFunction.from_expr("x*theta", 1)
        Fc = discretize_fio(S, amp, self.coarse, self.coarse,
                            self.coarse.dual(), route)
        Ff = discretize_fio(S, amp, self.fine, self.fine,
                            self.fine.dual(), route)
        return compactness_probe(Fc, Ff)

    def test_unitary_identity_is_noncompact(self):
        rep = self.probe("1", Route.SPECTRAL)
        assert rep.verdict == "NONCOMPACT-CONSISTENT"
        assert rep.plateau_fine >= 1.3 * rep.plateau_coarse

    def test_smoothing_amplitude_is_compact(self):
        rep = self.probe("exp(-(x**2+theta**2)/4)")
        assert rep.verdict == "COMPACT-CONSISTENT"
        assert rep.tail_fine < 0.01

    def test_decaying_order_is_compact(self):
        rep = self.probe("1/lam**2")
        assert rep.verdict == "COMPACT-CONSISTENT"

    def test_slowly_decaying_amplitude_inconclusive(self):
        assert self.probe("1/lam").verdict == "INCONCLUSIVE"

    def test_tail_index_validation(self):
        S = GeneratingFunction.from_expr("x*theta", 1)
        F = discretize_fio(S, "1", self.coarse, self.coarse,
                           self.coarse.dual(), Route.SPECTRAL)
        for tail_index in (10 ** 6, -1):
            with pytest.raises(ValueError):
                compactness_probe(F, F, tail_index=tail_index)
