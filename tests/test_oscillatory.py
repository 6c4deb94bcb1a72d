"""Oscillatory integrals: regularization, partition of unity, integration
by parts with the exact transpose operator."""
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiolab import jets, oscillatory
from fiolab.expressions import lambdify
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


#: (a, f, x) of the route-against-tensor-sum comparisons
SEPARABLE_CASES = [(A_ONE, F_GAUSS, 1.0), ("exp(-theta**2/8)", "1", 0.0),
                   ("exp(-theta**2/8)", "1", 1.0)]


def _core(phi, a, f, x):
    """e^{i phi} a f at x as a numpy function of (y, theta)."""
    y, t = phi.yvars[0], phi.tvars[0]
    return sp.lambdify((y, t), (
        sp.exp(sp.I * phi.expr) * as_expr(a, phi.variables)
        * as_expr(f, (y,))).subs(phi.xvars[0], x), "numpy")


class TestSeparableRoute:
    """Special phase, y-free amplitude, Gaussian cutoff: the separable sum
    reorders the tensor-trapezoid sum on the same grids."""

    @pytest.mark.parametrize("a, f, x", SEPARABLE_CASES)
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
        core = _core(phi_xt, a, f, x)
        for sigma, y_ax, t_ax, val in seen:
            ref = oscillatory._tiled_quadrature(
                lambda Y, T: core(Y, T) * np.exp(
                    -(x * x + Y * Y + T * T) / (2.0 * sigma ** 2)),
                y_ax, t_ax)
            assert abs(val - ref) <= 1e-12 * abs(ref), sigma

    @pytest.mark.parametrize("extra, a, kind, route", [
        ("0", A_ONE, CutoffKind.GAUSSIAN, "separable"),
        ("0", "exp(-y**2/8)", CutoffKind.GAUSSIAN, "tensor"),
        ("0", A_ONE, CutoffKind.SMOOTH_BUMP, "split"),
        ("y**2/8", A_ONE, CutoffKind.GAUSSIAN, "tensor"),
        ("y**2/8", A_ONE, CutoffKind.SMOOTH_BUMP, "tensor")])
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


class TestExpTable:
    """The factored tables of e^{-i t y} behind the separable and split
    routes."""

    @staticmethod
    def _direct(table, delta, t):
        return table * (1.0 - 1j * np.outer(t, delta))

    @pytest.mark.parametrize("ny", [1, 2, 3, 7, 422, 6191])
    def test_matches_direct_exponentials(self, ny):
        # Q = ceil(sqrt(ny)) does not divide ny = 3, 7, 422 or 6191
        y_ax = np.linspace(-9.4, 9.4, ny)
        t = np.concatenate([np.linspace(-2055.5, 2055.5, 41), [1e-3]])
        table, delta = oscillatory._exp_table(t, y_ax)
        assert table.shape == (len(t), ny)
        # np.exp rounds the phase t y by up to half an ulp of it, and the
        # factors round their own phases t y_{pQ} and t q h_y, as large as
        # the row's largest phase |t| max|y|: a few ulp of that
        eps = np.finfo(float).eps
        row_phase = np.abs(t)[:, None] * np.max(np.abs(y_ax))
        assert np.all(np.abs(self._direct(table, delta, t)
                             - np.exp(-1j * np.outer(t, y_ax)))
                      <= 4 * eps * (1.0 + row_phase))

    def test_fourier_sum_matches_direct_sum(self, rng):
        # the sizes of the separable route's sigma = 256 quadrature in
        # test_identity_off_origin, on 64 sampled columns
        sigma = 256.0
        y_ax = np.linspace(-9.404103566194431, 9.404103566194431, 6191)
        t_ax = np.linspace(-2055.5442263120535, 2055.5442263120535, 8192)
        c = oscillatory._trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0]) \
            * np.exp(-y_ax ** 2 / 2.0) * np.exp(-(y_ax / sigma) ** 2 / 2.0)
        got = oscillatory._fourier_sum(c, y_ax, t_ax)
        cols = rng.choice(len(t_ax), 64, replace=False)
        want = np.exp(-1j * np.outer(t_ax[cols], y_ax)) @ c
        assert np.max(np.abs(got[cols] - want)) <= 1e-13 * np.sum(np.abs(c))


class TestSplitBumpRoute:
    """Special phase, y-free amplitude, smooth bump: the theta columns on
    which the bump is exactly 1 take the separable sum, those on which it
    is exactly 0 are skipped, and only the rest are summed point by point,
    on the same grids as the tensor sum."""

    @pytest.mark.parametrize("a, f, x", SEPARABLE_CASES)
    def test_matches_tensor_sum(self, phi_xt, monkeypatch, a, f, x):
        real = oscillatory._split_bump_quadrature
        seen = []

        def spy(theta_fn, f_fn, x2, sigma, cut, y_ax, t_ax):
            val, counts = real(theta_fn, f_fn, x2, sigma, cut, y_ax, t_ax)
            seen.append((x2, sigma, cut, y_ax, t_ax, val, counts))
            return val, counts
        monkeypatch.setattr(oscillatory, "_split_bump_quadrature", spy)
        schedule = (16, 32, 64, 128, 256)
        res = regularized_fio_apply(a, phi_xt, f, x, schedule=schedule,
                                    cutoff=CutoffSpec(CutoffKind.SMOOTH_BUMP),
                                    compute_gap=False)
        assert [sigma for _, sigma, *_ in seen] == list(schedule)
        assert [q["columns"] for q in res.quadrature] == [
            counts for *_, counts in seen]
        # both summed column classes occur somewhere in the schedule
        assert all(any(counts[name] for *_, counts in seen) for name in (
            "separable", "transition"))
        core = _core(phi_xt, a, f, x)
        for x2, sigma, cut, y_ax, t_ax, val, counts in seen:
            assert sum(counts.values()) == len(t_ax)
            ref = oscillatory._tiled_quadrature(
                lambda Y, T: core(Y, T) * cut.at_r2(
                    x2 + (Y / sigma) ** 2 + (T / sigma) ** 2),
                y_ax, t_ax)
            assert abs(val - ref) <= 1e-12 * abs(ref), sigma

    #: sigma, x, the y radius and the grid sizes; theta spans the bump's
    #: support [-2 sigma, 2 sigma]
    GRIDS = dict(sigma=st.floats(0.25, 512.0), x=st.floats(-1200.0, 1200.0),
                 ry=st.floats(0.05, 1200.0), ny=st.integers(2, 65),
                 nt=st.integers(2, 400))

    @staticmethod
    def _grid(sigma, x, ry, ny, nt):
        """(cutoff, x2, y_ax, t_ax, cutoff on the tensor grid)."""
        cut = CutoffSpec(CutoffKind.SMOOTH_BUMP)
        x2 = np.square(x / sigma)
        y_ax = np.linspace(-ry, ry, ny)
        t_ax = np.linspace(-2.0 * sigma, 2.0 * sigma, nt)
        Y, T = np.meshgrid(y_ax, t_ax, indexing="ij")
        return cut, x2, y_ax, t_ax, cut.at_r2(
            x2 + (Y / sigma) ** 2 + (T / sigma) ** 2)

    @given(**GRIDS)
    @settings(max_examples=150, deadline=None)
    def test_column_classes_are_exact(self, sigma, x, ry, ny, nt):
        # the whole column, evaluated as the tensor integrand does, is
        # exactly 1.0 on an all-1 column and exactly 0.0 on an all-0 one
        cut, x2, y_ax, t_ax, g = self._grid(sigma, x, ry, ny, nt)
        ones, zeros = oscillatory._bump_columns(cut, x2, sigma, y_ax, t_ax)
        assert not np.any(ones & zeros)
        assert np.all(g[:, ones] == 1.0)
        assert np.all(g[:, zeros] == 0.0)
        # and a column left out of both is not constant at 1 or at 0
        mixed = ~(ones | zeros)
        assert not np.any(np.all(g[:, mixed] == 1.0, axis=0)
                          | np.all(g[:, mixed] == 0.0, axis=0))

    @given(**GRIDS)
    @example(sigma=4.0, x=0.0, ry=1.0, ny=9, nt=3)  # one all-1 column
    @settings(max_examples=60, deadline=None)
    def test_matches_tensor_sum_on_any_grid(self, sigma, x, ry, ny, nt):
        # the routes round the phase y t differently, by a few ulp of
        # max |y t| per term, and add the terms in another order
        cut, x2, y_ax, t_ax, _ = self._grid(sigma, x, ry, ny, nt)

        def theta_fn(t):
            return np.exp(0.7j * t)

        def f_fn(y):
            return 1.0 / (1.0 + y * y)

        def term(Y, T):
            return theta_fn(T) * f_fn(Y) * np.exp(-1j * Y * T) * cut.at_r2(
                x2 + (Y / sigma) ** 2 + (T / sigma) ** 2)
        val, counts = oscillatory._split_bump_quadrature(
            theta_fn, f_fn, x2, sigma, cut, y_ax, t_ax)
        assert sum(counts.values()) == nt
        ref = oscillatory._tiled_quadrature(term, y_ax, t_ax)
        scale = oscillatory._tiled_quadrature(
            lambda Y, T: np.abs(term(Y, T)), y_ax, t_ax).real
        ulps = ry * 2.0 * sigma + ny + nt
        assert abs(val - ref) <= 2 * np.finfo(float).eps * ulps * scale

    def test_empty_transition_and_all_zero_grids(self):
        # x far outside the bump's support: every column is 0; no
        # transition column: the separable sum alone
        cut = CutoffSpec(CutoffKind.SMOOTH_BUMP)
        y_ax, t_ax = np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 11)
        val, counts = oscillatory._split_bump_quadrature(
            lambda t: np.exp(1j * t), lambda y: np.exp(-y * y), np.inf, 4.0,
            cut, y_ax, t_ax)
        assert (val, counts) == (0j, {"separable": 0, "transition": 0,
                                      "zero": 11})
        val, counts = oscillatory._split_bump_quadrature(
            lambda t: np.exp(1j * t), lambda y: np.exp(-y * y), 0.0, 4.0,
            cut, y_ax, t_ax)
        assert counts == {"separable": 11, "transition": 0, "zero": 0}
        ref = oscillatory._tiled_quadrature(
            lambda Y, T: np.exp(1j * T - Y * Y - 1j * Y * T), y_ax, t_ax)
        assert abs(val - ref) <= 1e-14 * abs(ref)


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

    def test_rejects_names_outside_the_variables(self, phi_xt):
        with pytest.raises(ValueError, match="y1"):
            fio_apply_ibp(A_ONE, phi_xt, "exp(-y1**2/2)", 0.0, k=0, R=8.0)

    @pytest.mark.parametrize("R", [8.0, 10.0, 11.0])
    def test_psi_support_reaching_the_box_raises(self, phi_xt, R):
        # at x = 0.7, s0 is about 7.9 and psi's support radius about 11.2;
        # without the split these calls returned 14.8, -8.54 and -31.0
        # against the exact f(0.7) = 0.923
        with pytest.raises(ValueError, match=rf"s0 = .*R = {R:g}"):
            fio_apply_ibp(A_ONE, phi_xt, "exp(-(y-0.3)**2/2)", 0.7, k=4, R=R)

    def test_k0_needs_no_psi_split(self, phi_xt):
        res = fio_apply_ibp(A_ONE, phi_xt, "exp(-(y-0.3)**2/2)", 0.7, k=0,
                            R=8.0)
        assert abs(res.value - math.exp(-0.08)) < 1e-6
        assert res.decisions["psi_split"] is False
        assert res.decisions["local_radius"] >= 8.0
        assert all(res.decisions[name] is None for name in (
            "local_step_asked", "local_step", "local_cap_hit"))

    def test_off_origin_value_and_decisions(self, phi_xt):
        # exact value f(0.7) = exp(-0.08); psi's disk at x = 0.7 needs more
        # than 4096 local points per axis, so the cap widens the step
        res = fio_apply_ibp(A_ONE, phi_xt, "exp(-(y-0.3)**2/2)", 0.7, k=2,
                            R=24.0)
        assert abs(res.value - math.exp(-0.08)) < 1e-6
        d = res.decisions
        assert d["eps0"] == choose_eps0(phi_xt, 0.7)
        assert d["psi_split"] is True and d["local_cap_hit"] is True
        assert d["local_radius"] == math.sqrt(2.0) * d["s0"] < 24.0
        assert d["local_step"] > d["local_step_asked"]
        assert d["local_step"] == pytest.approx(
            2.0 * d["local_radius"] / 4095, rel=1e-12)
        # the record holds plain numbers only: it reads the same in JSON
        assert json.loads(json.dumps(d)) == d

    def test_decisions_without_the_cap(self, phi_xt):
        d = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=6.0).decisions
        assert d["local_cap_hit"] is False
        assert d["local_step"] <= d["local_step_asked"]


def test_ibp_value_independent_of_blas_threads(tmp_path):
    """The k-fold term calls no BLAS routine: one and two OpenBLAS threads
    give the same value and tail mass, to the last bit."""
    script = (
        "from fiolab.oscillatory import fio_apply_ibp\n"
        "from fiolab.phases import GeneratingFunction, special_phase\n"
        "phi = special_phase(GeneratingFunction.from_expr('x*theta', 1))\n"
        f"res = fio_apply_ibp({A_ONE!r}, phi, {F_GAUSS!r}, 0.0, k=2, R=6.0)\n"
        "print(repr(res.value), repr(res.tail_mass))\n")
    src = str(Path(oscillatory.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        outs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1] and outs[0].strip()


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

    def test_nan_ratio_reaches_full_expression(self, phi_xt, monkeypatch,
                                               cpus):
        # a NaN ratio at the grid edge y = -R, where the true ratio is >= 2:
        # it must go to the evaluation with omega (NaN there, as omega's jet
        # reads the ratio), not to the omega-free one, so the finiteness
        # check fires
        R = 12.0
        real = oscillatory._ibp_callables
        seen = []
        # the spy appends inside the integrand: a forked share's appends
        # would never reach this process
        cpus(1)

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


class TestIBPSupport:
    """The local psi-grid evaluates the integrand only where psi > 0."""

    def test_masked_local_sum_equals_full_grid_sum(self, phi_xt,
                                                   monkeypatch):
        R = 6.0
        masked = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=R)

        def full_grid(integrand, weight, phase):
            return lambda Y, T: integrand(Y, T) * weight(Y, T) * phase(Y, T)
        monkeypatch.setattr(oscillatory, "_on_support", full_grid)
        full = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=R)
        assert masked.value == full.value
        assert masked.tail_mass == full.tail_mass

    def test_no_point_outside_psi_reaches_the_kfold_term(self, phi_xt,
                                                          monkeypatch, cpus):
        real_callables = oscillatory._ibp_callables
        real_on_support = oscillatory._on_support
        real_quadrature = oscillatory._tiled_quadrature
        state = {"local": False, "points": [], "psi": None, "axes": []}
        # the spy records inside the integrand: a forked share's points
        # would never reach this process
        cpus(1)

        def callables(*args):
            u_fn, phase_fn, ratio_fn, kfold = real_callables(*args)

            def counted(Y, T, with_omega):
                if state["local"]:
                    state["points"].append((Y, T))
                return kfold(Y, T, with_omega)
            return u_fn, phase_fn, ratio_fn, counted

        def on_support(integrand, weight, phase):
            state["psi"] = weight
            local = real_on_support(integrand, weight, phase)

            def flagged(Y, T):
                state["local"] = True
                try:
                    return local(Y, T)
                finally:
                    state["local"] = False
            return flagged

        def quadrature(fn, y_ax, t_ax):
            state["axes"].append(y_ax)
            return real_quadrature(fn, y_ax, t_ax)
        monkeypatch.setattr(oscillatory, "_ibp_callables", callables)
        monkeypatch.setattr(oscillatory, "_on_support", on_support)
        monkeypatch.setattr(oscillatory, "_tiled_quadrature", quadrature)
        fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=6.0)

        Y = np.concatenate([y for y, _ in state["points"]])
        T = np.concatenate([t for _, t in state["points"]])
        assert Y.size > 0 and np.all(state["psi"](Y, T) > 0.0)
        # the local grid does hold psi = 0 points: its square's corners
        loc_ax = state["axes"][-1]
        grid_y, grid_t = np.meshgrid(loc_ax, loc_ax, indexing="ij")
        assert np.mean(state["psi"](grid_y, grid_t) == 0.0) > 0.15


class TestTileShares:
    """`_tiled_quadrature` deals its tiles to forked shares and adds the
    tile sums in tile order: the same sums as one process, bit for bit."""

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_two_shares_equal_one(self, phi_xt, cpus, forks, k):
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=k,
                                         R=6.0))
        one, two = results
        assert two.value == one.value and two.tail_mass == one.tail_mass
        # at R = 6 the coarse grid is one tile; the local grid of k > 0
        # (1260 columns, five tiles) is the one that forks
        assert len(forks) == (1 if k else 0)

    def test_error_in_a_child_tile_reaches_the_caller(self, cpus):
        cpus(2)
        parent = os.getpid()
        t_ax = np.linspace(-1.0, 1.0, 600)  # tiles 0 and 2 here, 1 forked

        def integrand(Y, T):
            if os.getpid() != parent:
                raise FloatingPointError(
                    "non-finite integrand away from the guard")
            return np.ones(Y.shape, dtype=complex)
        with pytest.raises(FloatingPointError, match="non-finite integrand"):
            oscillatory._tiled_quadrature(integrand, t_ax[:7], t_ax)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_tail_pairs_are_summed_in_tile_order(self, cpus):
        y_ax, t_ax = np.linspace(-1.0, 1.0, 5), np.linspace(-3.0, 3.0, 900)

        def integrand(Y, T):
            return np.exp(1j * Y * T), float(np.sum(np.sin(T) ** 2)) * 0.1
        got = []
        for n in (1, 2, 3):
            cpus(n)
            got.append(oscillatory._tiled_quadrature(integrand, y_ax, t_ax))
        assert got[1] == got[0] and got[2] == got[0]
        tail = 0.0
        for start in range(0, 900, 256):
            tail += integrand(*np.meshgrid(y_ax, t_ax[start:start + 256],
                                           indexing="ij"))[1]
        assert got[0][1] == tail


@functools.cache
def chi_atom(m: int):
    """Atomic sympy function standing for chi^(m); differentiation raises m.
    It keeps the symbolic reference's omega small: `chi_modules` binds the
    atoms to `chi_derivative` when the reference is lambdified."""
    def fdiff(self, argindex=1, _m=m):
        return chi_atom(_m + 1)(self.args[0])
    return type(f"chi{m}", (sp.Function,), {"fdiff": fdiff, "nargs": (1,)})


def chi_modules(max_order: int) -> dict:
    """The numpy functions chi0..chi{max_order} of the atoms `chi_atom`."""
    return {f"chi{m}": (lambda t, _m=m: chi_derivative(t, _m))
            for m in range(max_order + 1)}


class TestIBPJets:
    """The Taylor-jet evaluation of the k-fold term against the symbolic
    product-rule expansion of `IBPOperator.apply_transpose`."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
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
        omega = chi_atom(0)(ratio)
        reference = sp.lambdify(
            (xs, yv, tv), op.apply_transpose((1 - omega) * u, k),
            modules=[chi_modules(k), "numpy"], cse=True)

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_compose_matches_symbolic_derivatives(self, k):
        # the jet of f(g) from f's Taylor coefficients at g_0 and g's jet,
        # against the jet of the symbolic composition
        y, t, z = sp.symbols("y t z", real=True)
        g = y * sp.sin(t) + 1 / (1 + y ** 2)
        f = sp.exp(-z) * sp.cos(3 * z)
        Y, T = np.random.default_rng(k).uniform(-2.0, 2.0, (2, 500))
        g_jet = jets.evaluate(lambdify((y, t), jets.derivatives(g, y, t, k)),
                              Y, T, k)
        s = [np.broadcast_to(lambdify(z, sp.diff(f, z, m)
                                      / math.factorial(m))(g_jet[0, 0]),
                             Y.shape) for m in range(k + 1)]
        want = jets.evaluate(lambdify((y, t), jets.derivatives(
            f.subs(z, g), y, t, k)), Y, T, k)
        got = jets.compose(s, g_jet, k)
        scale = np.max(np.abs(want), axis=(0, 1))
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("k", [2, 4])
    def test_kfold_independent_of_block_boundaries(self, phi_xt, k):
        # one block and 3 points in one call, against the same points in
        # two calls whose blocks end elsewhere
        _, _, ratio_fn, kfold = ibp_callables(phi_xt, k)
        n = oscillatory._JET_CHUNK + 3
        Y, T = np.random.default_rng(k).uniform(-6.0, 6.0, (2, n))
        r = ratio_fn(Y, T)
        assert np.any((r > 1.0) & (r < 2.0)) and np.any(r >= 2.0)
        whole = kfold(Y, T, True)
        split = np.concatenate([kfold(Y[:5], T[:5], True),
                                kfold(Y[5:], T[5:], True)])
        assert np.array_equal(whole, split)

    def test_chi_coefficients_are_scaled_chi_derivatives(self):
        t = np.concatenate([np.linspace(0.0, 3.0, 30001),
                            [np.nextafter(1.0, 2.0), np.nextafter(2.0, 1.0),
                             np.nan]])
        assert np.any(t <= 1.0) and np.any(t >= 2.0)
        coefficients = oscillatory._chi_coefficients(t, 4)
        assert np.all(coefficients[:, -1] == 0.0)  # NaN
        for m in range(5):
            assert np.all(coefficients[m] * math.factorial(m)
                          == chi_derivative(t, m))

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
