"""Oscillatory integrals: regularization, partition of unity, integration
by parts with the exact transpose operator."""
import dataclasses

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab import oscillatory
from fiolab.oscillatory import (ConvergenceError, CutoffKind, CutoffSpec,
                                IBPOperator, OutsideDomainError, chi,
                                chi_derivative, chi_expr, choose_eps0,
                                fio_apply_ibp, omega_partition,
                                regularized_fio_apply)
from fiolab.phases import GeneratingFunction, special_phase
from fiolab.symbols import as_expr

A_ONE = "1"
F_GAUSS = "exp(-y**2/2)"


class TestChi:
    def test_plateau_and_support(self):
        assert float(chi(0.5)) == 1.0
        assert float(chi(1.0)) == 1.0
        assert float(chi(2.0)) == 0.0
        assert float(chi(3.0)) == 0.0

    def test_midpoint(self):
        assert float(chi(1.5)) == pytest.approx(0.5)
        assert float(chi_derivative(1.5, 1)) == pytest.approx(-2.0)

    def test_monotone_nonincreasing(self):
        t = np.linspace(0.0, 3.0, 301)
        v = chi(t)
        assert np.all(np.diff(v) <= 1e-12)

    def test_derivatives_vanish_at_junctions(self):
        # C-infinity matching: every derivative tends to 0 at t = 1 and t = 2
        for m in (1, 2, 3):
            assert abs(float(chi_derivative(1.0 + 1e-9, m))) < 1e-3
            assert abs(float(chi_derivative(2.0 - 1e-9, m))) < 1e-3

    def test_symbolic_expression_matches(self):
        t = sp.Symbol("t", real=True)
        e = chi_expr(t)
        for val in (0.3, 1.2, 1.7, 2.5):
            assert float(e.subs(t, val)) == pytest.approx(float(chi(val)),
                                                          abs=1e-12)

    @pytest.mark.parametrize("m", range(5))
    def test_derivatives_exactly_zero_beyond_two(self, m):
        # the premise of the short (tL)^k u where omega's ratio is >= 2
        for t in (2.0, np.nextafter(2.0, 3.0), 2.5, 3.0, 1e6):
            assert float(chi_derivative(t, m)) == 0.0
        assert np.all(chi_derivative(np.linspace(2.0, 9.0, 701), m) == 0.0)

    @given(st.floats(1.0 + 1e-6, 2.0 - 1e-6))
    @settings(max_examples=40, deadline=None)
    def test_range_in_unit_interval(self, t):
        v = float(chi(t))
        assert 0.0 <= v <= 1.0


class TestCutoffSpec:
    def test_gaussian_radius_covers_tail(self):
        # e^{-r^2/(2 sigma^2)} <= tail at the reported radius
        spec = CutoffSpec(CutoffKind.GAUSSIAN)
        r = spec.radius(4.0, tail=1e-14)
        assert np.exp(-r ** 2 / (2 * 16.0)) <= 1e-14 * (1 + 1e-9)

    def test_bump_radius_is_support_edge(self):
        spec = CutoffSpec(CutoffKind.SMOOTH_BUMP)
        assert spec.radius(4.0) == pytest.approx(8.0)


class TestRegularizedApply:
    """F = identity when S = x*theta and a = 1: the limit must return f(x)."""

    def test_identity_at_origin(self, phi_xt):
        res = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0)
        assert abs(res.value - 1.0) < 5e-4
        # the residual sequence must certify the limit it reports
        _, last = res.sigma_residuals[-1]
        assert abs(res.value - 1.0) < 10 * max(last, 1e-12)

    def test_identity_off_origin(self, phi_xt):
        res = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 1.0,
                                    schedule=(16, 32, 64, 128, 256))
        assert abs(res.value - np.exp(-0.5)) < 1e-5

    def test_cutoff_gap_reported(self, phi_xt):
        res = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0)
        assert res.cutoff_gap is not None
        assert res.cutoff_gap < 1e-3

    def test_limit_independent_of_cutoff_shape(self, phi_xt):
        kwargs = dict(schedule=(16, 32, 64, 128, 256), compute_gap=False)
        g = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0, **kwargs)
        b = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0,
                                  cutoff=CutoffSpec(CutoffKind.SMOOTH_BUMP),
                                  **kwargs)
        assert abs(g.value - b.value) < 1e-8

    def test_residuals_recorded_per_sigma(self, phi_xt):
        res = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0)
        sigmas = [s for s, _ in res.sigma_residuals]
        assert sigmas == sorted(sigmas) and len(sigmas) >= 3

    def test_divergent_schedule_raises(self, phi_xt):
        # the theta**2 amplitude makes the sigma values diverge, so the
        # residuals of the three-entry schedule cannot decrease
        with pytest.raises(ConvergenceError):
            regularized_fio_apply("theta**2", phi_xt, F_GAUSS, 0.0,
                                  schedule=(0.5, 1, 2), compute_gap=False)


class TestSeparableRoute:
    """Special phase, y-free amplitude, Gaussian cutoff: the separable sum
    reorders the tensor-trapezoid sum on the same grids."""

    @pytest.mark.parametrize("a, f, x", [(A_ONE, F_GAUSS, 1.0),
                                         ("exp(-theta**2/8)", "1", 0.0),
                                         ("exp(-theta**2/8)", "1", 1.0)])
    def test_matches_tensor_sum(self, phi_xt, monkeypatch, a, f, x):
        # theta reaches about 2000 at sigma = 256 with a = 1, where a step
        # rounded at that scale moves the sum by about 5e-12
        real = oscillatory._separable_quadrature
        seen = []

        def spy(theta_fn, f_fn, xv, sigma, y_ax, t_ax):
            val = real(theta_fn, f_fn, xv, sigma, y_ax, t_ax)
            seen.append((sigma, y_ax, t_ax, val))
            return val
        monkeypatch.setattr(oscillatory, "_separable_quadrature", spy)
        schedule = (16, 32, 64, 128, 256)
        regularized_fio_apply(a, phi_xt, f, x, schedule=schedule,
                              compute_gap=False)
        assert [sigma for sigma, *_ in seen] == list(schedule)
        y, t = phi_xt.yvars[0], phi_xt.tvars[0]
        core = sp.lambdify((y, t), (
            sp.exp(sp.I * phi_xt.expr) * as_expr(a, phi_xt.variables)
            * as_expr(f, (y,))).subs(phi_xt.xvars[0], x), "numpy")
        for sigma, y_ax, t_ax, val in seen:
            ref = oscillatory._tiled_quadrature(
                lambda Y, T: core(Y, T) * np.exp(
                    -(x * x + Y * Y + T * T) / (2.0 * sigma ** 2)),
                y_ax, t_ax)
            assert abs(val - ref) <= 1e-12 * abs(ref), sigma

    @pytest.mark.parametrize("extra, a, kind, route", [
        ("0", A_ONE, CutoffKind.GAUSSIAN, "separable"),
        ("0", "exp(-y**2/8)", CutoffKind.GAUSSIAN, "tensor"),
        ("0", A_ONE, CutoffKind.SMOOTH_BUMP, "tensor"),
        ("y**2/8", A_ONE, CutoffKind.GAUSSIAN, "tensor")])
    def test_route_chosen_by_input(self, phi_xt, monkeypatch, extra, a, kind,
                                   route):
        # extra is added to the phase; y**2/8 makes it non-special
        real = oscillatory._tiled_quadrature
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(oscillatory, "_tiled_quadrature", counting)
        phi = dataclasses.replace(phi_xt, expr=phi_xt.expr + as_expr(
            extra, phi_xt.variables))
        res = regularized_fio_apply(a, phi, F_GAUSS, 0.0, schedule=(4, 8),
                                    cutoff=CutoffSpec(kind),
                                    compute_gap=False)
        assert [q["route"] for q in res.quadrature] == [route, route]
        assert len(calls) == (2 if route == "tensor" else 0)


class TestOmegaPartition:
    def test_critical_set_value_one(self, phi_xt):
        assert omega_partition(phi_xt, 0.5, [(1.0, 1.0, 0.0)])[0] == 1.0

    def test_elliptic_point_value_zero(self, phi_xt):
        # D = 4, lambda^2 = 5, quot = 4 / (0.4 * 5) = 2 -> chi = 0
        assert omega_partition(phi_xt, 0.4, [(0.0, 2.0, 0.0)])[0] == 0.0

    def test_transition_value(self, phi_xt):
        eps = 2.0 / (3.0 * 1.5)
        assert omega_partition(phi_xt, eps,
                               [(0.0, 1.0, 1.0)])[0] == pytest.approx(0.5)

    def test_values_partition_range(self, phi_xt, rng):
        pts = rng.uniform(-5, 5, (200, 3))
        w = omega_partition(phi_xt, 0.4, pts)
        assert np.all((0.0 <= w) & (w <= 1.0))


class TestIBPOperator:
    def test_choose_eps0(self, phi_xt):
        assert choose_eps0(phi_xt) == pytest.approx(0.4)

    def test_coefficient_value(self, phi_xt):
        op = IBPOperator(phi_xt, 0.4)
        # at (0, 1, 1): grad_y phi = -1, D = 2, F = -(-1)/(2i) = -i/2
        assert op.F(np.array([[0.0, 1.0, 1.0]]))[0] == pytest.approx(-0.5j)

    def test_identity_residual_zero_on_domain(self, phi_xt, rng):
        op = IBPOperator(phi_xt, 0.4)
        pts = rng.uniform(-4, 4, (400, 3))
        inside = pts[omega_partition(phi_xt, 0.4, pts) == 0.0][:100]
        assert len(inside) >= 50
        assert op.identity_residual(inside) == 0.0

    def test_guard_rejects_critical_points(self, phi_xt):
        op = IBPOperator(phi_xt, 0.4)
        with pytest.raises(OutsideDomainError):
            op.F(np.array([[1.0, 1.0, 0.0]]))

    def test_coefficient_decay(self, phi_xt):
        # at x = y = 0 the coefficient F = theta/(i D) = 1/(i theta): the
        # 1/lambda decay demanded of the coefficients is exact here
        op = IBPOperator(phi_xt, 0.4)
        thetas = np.array([4.0, 8.0, 16.0, 32.0])
        pts = np.stack([np.zeros(4), np.zeros(4), thetas], axis=-1)
        mags = np.abs(op.F(pts))
        assert np.allclose(mags, 1.0 / thetas, rtol=1e-12)

    def test_transpose_integrates_to_zero(self, phi_xt):
        # tL(g) is a pure divergence, so its integral over the plane vanishes
        # for rapidly decaying g — the defining property of the transpose
        y, t = phi_xt.yvars[0], phi_xt.tvars[0]
        g = sp.exp(-(y - 3) ** 2 - (t - 3) ** 2)
        tl = IBPOperator(phi_xt, 0.4).apply_transpose(g, k=1)
        fn = sp.lambdify((phi_xt.xvars[0], y, t), tl, "numpy")
        # integrate over a box covering supp g but clear of the critical
        # point (y = x, theta = 0); x = -5 keeps it outside the box
        ax = np.linspace(-3.0, 9.0, 961)
        yy, tt = np.meshgrid(ax, ax, indexing="ij")
        h = ax[1] - ax[0]
        total = np.sum(fn(-5.0, yy, tt)) * h * h
        assert abs(total) < 1e-8

    def test_invalid_eps0(self, phi_xt):
        with pytest.raises(ValueError):
            IBPOperator(phi_xt, 0.0)


class TestFioApplyIBP:
    def test_k0_matches_regularized(self, phi_xt):
        direct = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=0, R=12.0)
        reg = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0)
        assert abs(direct.value - reg.value) < 1e-5

    def test_k2_absolutely_convergent_value(self, phi_xt):
        res = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=12.0)
        assert abs(res.value - 1.0) < 1e-6
        assert res.ibp_order == 2

    def test_tail_mass_decreases_with_k(self, phi_xt):
        t0 = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=0, R=12.0).tail_mass
        t2 = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=12.0).tail_mass
        assert t2 < 0.05 * t0

    def test_truncation_radius_reported(self, phi_xt):
        res = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=0, R=8.0)
        assert res.truncation_radius == 8.0


def ibp_callables(phi, k):
    """`_ibp_callables` with the arguments fio_apply_ibp(A_ONE, phi, F_GAUSS,
    0.0, k, R) passes, so the symbolic build is shared with those calls."""
    yv, tv = phi.yvars[0], phi.tvars[0]
    u = as_expr(A_ONE, phi.variables).subs(phi.xvars[0], 0.0) * \
        as_expr(F_GAUSS, (yv,))
    return oscillatory._ibp_callables(
        u, phi.expr.subs(phi.xvars[0], 0.0), yv, tv, 0.0,
        float(choose_eps0(phi, 0.0)), k)


class TestIBPRegions:
    def test_short_term_matches_full_where_omega_vanishes(self, phi_xt, rng):
        # where the ratio is >= 2 the omega-free term (tL)^k u equals the
        # term evaluated with omega's jet
        _, _, ratio_fn, kfold = ibp_callables(phi_xt, 2)
        Y, T = rng.uniform(-24.0, 24.0, (2, 20000))
        outer = ratio_fn(Y, T) >= 2.0
        assert outer.sum() > 10000
        full = kfold(Y[outer], T[outer], True)
        short = kfold(Y[outer], T[outer], False)
        assert np.all(np.abs(short - full) <= 1e-10 * np.abs(full))

    def test_nan_ratio_reaches_full_expression(self, phi_xt, monkeypatch):
        # a NaN ratio at the grid edge y = -R, where the true ratio is >= 2:
        # it must go to the evaluation with omega (NaN there, as omega's jet
        # reads the ratio), not to the omega-free one, so the finiteness
        # check fires
        R = 12.0
        real = oscillatory._ibp_callables
        seen = []

        def patched(*args):
            u_fn, phase_fn, ratio_fn, kfold = real(*args)

            def nan_ratio(Y, T):
                r = np.array(np.broadcast_to(ratio_fn(Y, T), np.shape(Y)))
                r[np.asarray(Y) == -R] = np.nan
                return r

            def term(Y, T, with_omega):
                vals = kfold(Y, T, with_omega)
                if not with_omega:
                    return vals
                nan = np.isnan(nan_ratio(Y, T))
                seen.append(int(nan.sum()))
                return np.where(nan, np.nan, vals)
            return u_fn, phase_fn, nan_ratio, term
        monkeypatch.setattr(oscillatory, "_ibp_callables", patched)
        with pytest.raises(FloatingPointError, match="non-finite integrand"):
            fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=R)
        assert sum(seen) > 0


class TestIBPJets:
    """The Taylor-jet evaluation of the k-fold term against the symbolic
    product-rule expansion of `IBPOperator.apply_transpose`."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("S, a", [
        ("x*theta", "1"),
        ("x*theta + theta**2/2", "1"),
        ("x*theta + theta**2/2", "exp(I*theta)*(1 + x*y)"),
    ], ids=["xt", "chirp", "chirp-complex"])
    def test_matches_symbolic_transpose(self, S, a, k):
        phi = special_phase(GeneratingFunction.from_expr(S, 1))
        xs, yv, tv = phi.variables
        x = 0.7
        eps0 = choose_eps0(phi, x)
        u = as_expr(a, phi.variables) * as_expr(F_GAUSS, (yv,))
        _, _, ratio_fn, kfold = oscillatory._ibp_callables(
            u.subs(xs, x), phi.expr.subs(xs, x), yv, tv, x, float(eps0), k)

        op = IBPOperator(phi, eps0)
        ratio = op.denom / (eps0 * (1 + xs ** 2 + yv ** 2 + tv ** 2))
        omega = oscillatory._chi_atom(0)(ratio)
        reference = sp.lambdify(
            (xs, yv, tv), op.apply_transpose((1 - omega) * u, k),
            modules=[oscillatory._chi_modules(k), "numpy"], cse=True)

        Y, T = np.random.default_rng(k).uniform(-6.0, 6.0, (2, 6000))
        r = ratio_fn(Y, T)
        annulus, outer = (r > 1.0) & (r < 2.0), r >= 2.0
        assert annulus.sum() > 500 and outer.sum() > 500
        for m, with_omega in ((annulus, True), (outer, True),
                              (outer, False)):
            want = reference(x, Y[m], T[m])
            got = kfold(Y[m], T[m], with_omega)
            err = np.max(np.abs(got - want))
            assert err <= 1e-12 * np.max(np.abs(want))

    def test_chi_derivatives_match_mpmath(self):
        def profile(t):
            b_left = mpmath.exp(-1 / (t - 1))
            b_right = mpmath.exp(-1 / (2 - t))
            return b_right / (b_left + b_right)
        grid = np.linspace(1.0, 2.0, 20001)[1:-1]
        for m in range(5):
            scale = np.max(np.abs(chi_derivative(grid, m)))
            for t in (1.03, 1.2, 1.5, 1.8, 1.97):
                with mpmath.workdps(50):
                    exact = float(mpmath.diff(profile, mpmath.mpf(t), m))
                err = abs(float(chi_derivative(t, m)) - exact)
                assert err <= 1e-14 * scale, (m, t, err / scale)

    def test_transition_value_bit_identical(self):
        # the bump cutoff reads chi^(0): it must stay the profile's formula
        t = np.linspace(1.0, 2.0, 10 ** 6 + 2)[1:-1]
        with np.errstate(all="ignore"):
            formula = sp.lambdify(oscillatory._T, oscillatory._CHI_TRANSITION,
                                  modules="numpy")(t)
        assert np.array_equal(chi(t), formula)
