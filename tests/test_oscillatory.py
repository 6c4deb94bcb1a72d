"""Oscillatory integrals: regularization, partition of unity, integration
by parts with the exact transpose operator."""
import cmath
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
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
from fiolab.phases import (GeneratingFunction, conjugate_mirror,
                           special_phase)
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

    @pytest.mark.parametrize("a, f, message", [
        (A_ONE, "1/y", "f is not finite at y = 0.0"),
        ("1/y", F_GAUSS, r"a-envelope .* is not finite at theta = 0.0"),
    ], ids=["f", "a"])
    def test_non_finite_profile_raises(self, phi_xt, a, f, message):
        # a profile with no decay radius used to get radius 1: a = 1/y on
        # the tensor route then summed a 40 x 8 (y, theta) grid to 5e-15
        with pytest.raises(ValueError, match=message):
            regularized_fio_apply(a, phi_xt, f, 0.0, compute_gap=False)

    @pytest.mark.parametrize("schedule", [(), (8, 4), (0, 4), (-4, 8),
                                          (4, 8, math.inf), (4, math.nan, 8)])
    def test_rejects_a_schedule_that_is_empty_or_not_increasing(
            self, phi_xt, schedule):
        # a sigma that is not finite is rejected too: an infinite one used
        # to reach np.linspace, which warned, and then failed on the
        # a-envelope at theta = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="schedule must be non-empty, positive, "
                                     "finite and increasing"):
                regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0,
                                      schedule=schedule)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_x_that_is_not_finite(self, phi_xt, x):
        with pytest.raises(ValueError, match=rf"x must be finite: {x}"):
            regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, x)

    def test_divergent_schedule_raises(self, phi_xt):
        # the theta**2 amplitude makes the sigma values diverge, so the
        # residuals of the three-entry schedule cannot decrease
        with pytest.raises(ConvergenceError):
            regularized_fio_apply("theta**2", phi_xt, F_GAUSS, 0.0,
                                  schedule=(0.5, 1, 2), compute_gap=False)


def _gaussian_sigma_value(x: float, sigma: float, k: float) -> complex:
    """I_sigma(x), the Gaussian cutoff's value on S = x theta, a = 1 and
    f = e^{-y^2/2 + i k y}:
    I_sigma = (1/2 pi) int int e^{i (x - y) t} f(y)
              e^{-(x^2 + y^2 + t^2) / (2 sigma^2)} dy dt.
    With B = 1 + sigma^-2, the y-integral is
    sqrt(2 pi / B) e^{-(t - k)^2 / (2 B)}; with A = sigma^-2 + 1/B, the
    t-integral of e^{i x t} times that and e^{-t^2 / (2 sigma^2)} is
    sqrt(2 pi / A) e^{b^2 / (2 A) - k^2 / (2 B)}, b = k/B + i x, so
    I_sigma = e^{-x^2 / (2 sigma^2)} e^{(k/B + i x)^2 / (2 A) - k^2 / (2 B)}
              / sqrt(A B).
    The exponent is written without its cancellation: k^2 / (2 A B^2) -
    k^2 / (2 B) = -k^2 / (2 sigma^2 A B), since 1 - A B = -B / sigma^2;
    at k = 20 the two terms are about 200 each, and their difference
    would carry 3e-14 of rounding."""
    s2 = sigma ** -2
    B = 1.0 + s2
    A = s2 + 1.0 / B
    return cmath.exp(-x * x * s2 / 2 - k * k * s2 / (2 * A * B)
                     + 1j * k * x / (A * B) - x * x / (2 * A)) / math.sqrt(
                         A * B)


def _sigma_passes(monkeypatch, *args, **kwargs):
    """regularized_fio_apply(*args, **kwargs), the (sigma, value) of each
    special-route pass (the value is the pass's sum / 2 pi, as the schedule
    sees it) and what `_spectral_radius` returned for each pass; a call
    that raises ConvergenceError gives its partial result."""
    quadrature, probe = oscillatory._special_quadrature, \
        oscillatory._spectral_radius
    passes, probed = [], []

    def spy(*spy_args):
        val, entries = quadrature(*spy_args)
        passes.append((spy_args[3], val / (2.0 * np.pi)))
        return val, entries

    def probe_spy(*probe_args):
        probed.append(probe(*probe_args))
        return probed[-1]
    monkeypatch.setattr(oscillatory, "_special_quadrature", spy)
    monkeypatch.setattr(oscillatory, "_spectral_radius", probe_spy)
    try:
        res = regularized_fio_apply(*args, **kwargs)
    except ConvergenceError as exc:
        res = exc.result
    finally:
        monkeypatch.setattr(oscillatory, "_special_quadrature", quadrature)
        monkeypatch.setattr(oscillatory, "_spectral_radius", probe)
    return res, passes, probed


class TestThetaRadius:
    """On the special route the theta range is where |a F| lives, F the
    y-sum of f g, read from one FFT over the period of the cutoff grid's
    y axis; the y step keeps F's aliases off that range."""

    @pytest.mark.parametrize("x", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("k", [0.0, 20.0, -20.0])
    def test_every_sigma_value_matches_the_closed_form(self, phi_xt,
                                                       monkeypatch, k, x):
        # k = 20: F lives on 12 <= theta <= 28 (k = -20: on -28..-12, the
        # side a probe of theta >= 0 would miss).  A y step with aliases
        # R + 12 apart, R the theta range, puts one inside the range (100 %
        # off at sigma = 64..256); on the cutoff's range, 8 sigma, g_t hid
        # it only down to 1.2e-12 at sigma = 16
        f = F_GAUSS if k == 0.0 else f"exp(-y**2/2 + {k:g}*I*y)"
        schedule = (16, 32, 64, 128, 256)
        _, passes, probed = _sigma_passes(
            monkeypatch, A_ONE, phi_xt, f, x, schedule=schedule,
            compute_gap=False)
        assert [sigma for sigma, _ in passes] == list(schedule)
        assert None not in probed
        for sigma, value in passes:
            want = _gaussian_sigma_value(x, sigma, k)
            assert abs(value - want) <= 2e-14 * abs(want), sigma

    @pytest.mark.parametrize("k", [50.0, 100.0, 200.0, 400.0])
    def test_probed_passes_hold_within_the_grids_reach(self, phi_xt,
                                                       monkeypatch, k):
        # the transform of f = e^{-y^2/2 + i k y} lives on |t - k| <= 8.03.
        # A probe that read F on a window [-W, W] of a y axis whose aliases
        # lie 2W + 12 apart would take an alias for content inside the
        # window (0.94 off at k = 50, sigma = 16).  Over the whole period
        # of the cutoff grid's y axis, every pass that reads a radius holds
        # wherever that grid resolves f, k + 8.03 below half its period
        # (rt + 12) / 2; beyond it, the cutoff's grid aliases f as well
        # (0.09 off at k = 200, sigma = 32)
        f = f"exp(-y**2/2 + {k:g}*I*y)"
        _, passes, probed = _sigma_passes(
            monkeypatch, A_ONE, phi_xt, f, 0.3,
            schedule=(16, 32, 64, 128, 256), compute_gap=False)
        checked = 0
        for (sigma, value), radii in zip(passes, probed):
            reach = (CutoffSpec().radius(sigma) + 12.0) / 2.0
            if radii is not None and k + 8.03 < reach:
                assert abs(value - _gaussian_sigma_value(0.3, sigma, k)) \
                    <= 1e-12, sigma
                checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("sigma", [1e10, 1e13, 1e100, 1e307])
    def test_huge_sigma_returns_the_limit(self, phi_xt, sigma):
        # the cutoff's range, 8 sigma, used to widen the step at the point
        # cap (-1.39e6 at 1e10), to make the phases non-finite (1e100) or
        # to overflow the point count (1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = regularized_fio_apply(A_ONE, phi_xt, F_GAUSS, 0.0,
                                        schedule=(sigma,))
        assert abs(res.value - 1.0) <= 1e-12
        assert [q["capped"] for q in res.quadrature] == [False, False]

    @pytest.mark.parametrize("kind, sigma, tol", [
        (CutoffKind.SMOOTH_BUMP, 16384, 1e-12),
        (CutoffKind.SMOOTH_BUMP, 1e8, 1e-12),
        (CutoffKind.SMOOTH_BUMP, 1e300, 1e-12),
        (CutoffKind.GAUSSIAN, 1e8, 1e-12),
        (CutoffKind.GAUSSIAN, 1e300, 1e-12),
        (CutoffKind.GAUSSIAN, 2048, 1e-6)])
    def test_huge_sigma_returns_the_limit_of_a_narrow_amplitude(
            self, phi_xt, kind, sigma, tol):
        # a = e^{-theta^2} lives on |theta| <= 5.7, inside the first step
        # of 2048 samples of the cutoff's range (8.03 sigma for the
        # Gaussian, 2 sigma for the bump) from sigma = 1450 and 5800: read
        # from those samples alone, the range fell to [-1, 1], 5.2e-2 off.
        # The limit is (2 pi)^-1 int e^{-theta^2} sqrt(2 pi) e^{-theta^2/2}
        # = 1/sqrt 3; the Gaussian's own bias at sigma = 2048 is 6.9e-8
        res = regularized_fio_apply("exp(-theta**2)", phi_xt, F_GAUSS, 0.0,
                                    schedule=(sigma,), cutoff=CutoffSpec(kind))
        assert abs(res.value - 1.0 / math.sqrt(3.0)) <= tol

    @settings(max_examples=40, deadline=None)
    @example(kind=CutoffKind.GAUSSIAN, c=3.0, log_sigma=300.0)
    @example(kind=CutoffKind.SMOOTH_BUMP, c=0.05, log_sigma=8.0)
    @given(kind=st.sampled_from(CutoffKind), c=st.floats(0.05, 3.0),
           log_sigma=st.floats(8.0, 300.0))
    def test_huge_sigma_returns_the_limit_of_any_gaussian_amplitude(
            self, phi_xt, kind, c, log_sigma):
        # (2 pi)^-1 int e^{-c theta^2} sqrt(2 pi) e^{-theta^2/2} dtheta
        # = 1/sqrt(2c + 1), for sigma log-uniform in [1e8, 1e300]
        res = regularized_fio_apply(f"exp(-{c!r}*theta**2)", phi_xt, F_GAUSS,
                                    0.0, schedule=(10.0 ** log_sigma,),
                                    cutoff=CutoffSpec(kind),
                                    compute_gap=False)
        assert abs(res.value - 1.0 / math.sqrt(2.0 * c + 1.0)) <= 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "the theta step comes from the phase alone (ROADMAP item 15), not "
        "from a: at sigma = 1e8 the value is 4.8e-8 off at c = 7 and 1.4e-2 "
        "off at c = 50, whose pass has 12 theta nodes of step 0.27 (41 "
        "nodes give 2.2e-16)"))
    @pytest.mark.parametrize("c", [7.0, 50.0])
    def test_narrower_amplitude_than_the_theta_step(self, phi_xt, c):
        res = regularized_fio_apply(f"exp(-{c!r}*theta**2)", phi_xt, F_GAUSS,
                                    0.0, schedule=(1e8,), compute_gap=False)
        assert abs(res.value - 1.0 / math.sqrt(2.0 * c + 1.0)) <= 1e-12

    def test_uncountable_fallback_grid_names_sigma(self, phi_xt):
        # f = 1/(1+y^2) is cut at y = 64, so its transform never decays and
        # the pass keeps the cutoff's range, whose point count overflows
        with pytest.raises(ValueError, match=r"the gaussian cutoff's grid "
                           r"at sigma = 1e\+307: the axis .* has no finite "
                           r"point count"):
            regularized_fio_apply(A_ONE, phi_xt, "1/(1+y**2)", 0.0,
                                  schedule=(1e307,))

    def test_fallback_keeps_the_cutoffs_grids(self, phi_xt, monkeypatch):
        # every pass of this call falls back, and sums the grids the
        # cutoff's range gives, bit for bit as a call with no probe
        args = (A_ONE, phi_xt, "1/(1+y**2)", 0.3)
        kwargs = dict(schedule=(16, 32, 64))
        res, passes, probed = _sigma_passes(monkeypatch, *args, **kwargs)
        assert probed == [None] * 4
        assert [(q["ny"], q["nt"]) for q in res.quadrature] == [
            (2863, 3122), (5480, 6242), (8192, 8192), (2854, 3110)]
        monkeypatch.setattr(oscillatory, "_spectral_radius",
                            lambda *probe_args: None)
        forced, forced_passes, _ = _sigma_passes(monkeypatch, *args,
                                                 **kwargs)
        assert repr(passes) == repr(forced_passes)
        assert repr(dataclasses.astuple(res)) == repr(
            dataclasses.astuple(forced))


#: f = sech y, whose transform pi sech(pi theta / 2) falls below 1e-14 of
#: its peak only at |theta| = 21, past the bump's all-1 columns at sigma = 16
F_SECH = "2/(exp(y) + exp(-y))"

#: (a, f, x) of the route-against-tensor-sum comparisons
SEPARABLE_CASES = [(A_ONE, F_GAUSS, 1.0), ("exp(-theta**2/8)", "1", 0.0),
                   ("exp(-theta**2/8)", "1", 1.0),
                   (A_ONE, "exp(-y**2/2 + I*y)", 1.0), (A_ONE, F_SECH, 1.0)]

#: the bump's column classes that occur in each pass of the schedule
#: 16, ..., 256 of each case: f Gaussian, the transforms of f g live on
#: |theta| <= 9.4, inside the all-1 columns at every sigma; f = 1 does not
#: decay, so its passes keep the theta range of a and the bump; and sech y
#: reaches past the all-1 columns at sigma = 16 and 32
_ONLY_FACTORED = [{"separable"}] * 5
BUMP_CLASSES = {
    (A_ONE, F_GAUSS, 1.0): _ONLY_FACTORED,
    ("exp(-theta**2/8)", "1", 0.0): [{"transition"}, {"transition"},
                                     {"separable", "transition"},
                                     {"separable"}, {"separable"}],
    (A_ONE, "exp(-y**2/2 + I*y)", 1.0): _ONLY_FACTORED,
    (A_ONE, F_SECH, 1.0): [{"transition", "zero"}, {"transition"},
                           {"separable"}, {"separable"}, {"separable"}]}
BUMP_CLASSES["exp(-theta**2/8)", "1", 1.0] = BUMP_CLASSES[
    "exp(-theta**2/8)", "1", 0.0]


#: sigma, x, the y radius and the grid sizes of the special route's
#: property tests; theta spans the bump's support [-2 sigma, 2 sigma]
SPECIAL_GRIDS = dict(sigma=st.floats(0.25, 512.0),
                     x=st.floats(-1200.0, 1200.0), ry=st.floats(0.05, 1200.0),
                     ny=st.integers(2, 65), nt=st.integers(2, 400))


def _special_grid(kind, sigma, x, ry, ny, nt):
    """(cutoff, x2, y_ax, t_ax, cutoff on the tensor grid)."""
    cut = CutoffSpec(kind)
    x2 = np.square(x / sigma)
    y_ax = np.linspace(-ry, ry, ny)
    t_ax = np.linspace(-2.0 * sigma, 2.0 * sigma, nt)
    Y, T = np.meshgrid(y_ax, t_ax, indexing="ij")
    return cut, x2, y_ax, t_ax, cut.at_r2(
        x2 + (Y / sigma) ** 2 + (T / sigma) ** 2)


def _core(phi, a, f, x):
    """e^{i phi} a f at x as a numpy function of (y, theta)."""
    y, t = phi.yvars[0], phi.tvars[0]
    return sp.lambdify((y, t), (
        sp.exp(sp.I * phi.expr) * as_expr(a, phi.variables)
        * as_expr(f, (y,))).subs(phi.xvars[0], x), "numpy")


class TestSpecialRoute:
    """Special phase, y-free amplitude: for either cutoff, the special route
    sums the tensor-trapezoid grid by theta column, a Fourier sum over y on
    each factored column (every column of the Gaussian, the all-1 columns
    of the bump), nothing on an all-0 column and point by point on the
    bump's transition columns."""

    @pytest.mark.parametrize("a, f, x", SEPARABLE_CASES)
    @pytest.mark.parametrize("kind", list(CutoffKind))
    def test_matches_tensor_sum(self, phi_xt, monkeypatch, kind, a, f, x):
        # theta reaches about 2000 at sigma = 256 with a = 1, where a step
        # rounded at that scale moves the sum by about 5e-12
        real = oscillatory._special_quadrature
        seen = []

        def spy(theta_fn, f_fn, x2, sigma, cut, y_ax, t_ax, mirror):
            val, entries = real(theta_fn, f_fn, x2, sigma, cut, y_ax, t_ax,
                                mirror)
            seen.append((x2, sigma, cut, y_ax, t_ax, val, entries))
            return val, entries
        monkeypatch.setattr(oscillatory, "_special_quadrature", spy)
        schedule = (16, 32, 64, 128, 256)
        res = regularized_fio_apply(a, phi_xt, f, x, schedule=schedule,
                                    cutoff=CutoffSpec(kind),
                                    compute_gap=False)
        assert [sigma for _, sigma, *_ in seen] == list(schedule)
        # folded exactly where the proof holds: every case but the complex f
        assert [entries["theta_mirror"] for *_, entries in seen] == [
            "I*y" not in f] * len(schedule)
        # an axis that the point cap widened has exactly 8192 points
        assert res.quadrature == [
            {"sigma": sigma, "cutoff": kind.value, "ny": len(y_ax),
             "nt": len(t_ax), "capped": 8192 in (len(y_ax), len(t_ax)),
             **entries}
            for _, sigma, _, y_ax, t_ax, _, entries in seen]
        if kind is CutoffKind.SMOOTH_BUMP:
            # the classes cover the grid, and are those the case gets
            counts = [entries["columns"] for *_, entries in seen]
            assert [sum(c.values()) for c in counts] == [
                len(t_ax) for *_, t_ax, _, _ in seen]
            assert [{name for name, n in c.items() if n} for c in counts] \
                == BUMP_CLASSES[a, f, x]
        core = _core(phi_xt, a, f, x)
        for x2, sigma, cut, y_ax, t_ax, val, _ in seen:
            ref = oscillatory._tiled_quadrature(
                lambda Y, T: core(Y, T) * cut.at_r2(
                    x2 + (Y / sigma) ** 2 + (T / sigma) ** 2),
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
        assert [q["capped"] for q in res.quadrature] == [False, False]
        assert len(calls) == (2 if route == "tensor" else 0)

    @given(kind=st.sampled_from(CutoffKind), mirror=st.booleans(),
           **SPECIAL_GRIDS)
    @example(kind=CutoffKind.SMOOTH_BUMP, mirror=False, sigma=4.0, x=0.0,
             ry=1.0, ny=9, nt=3)  # one all-1 column
    @example(kind=CutoffKind.GAUSSIAN, mirror=False, sigma=0.25, x=8.0,
             ry=0.05, ny=2, nt=2)  # the exponent's rounding, 19 eps ulps
    @example(kind=CutoffKind.GAUSSIAN, mirror=False, sigma=31.5, x=1200.0,
             ry=763.0, ny=5, nt=7)  # a subnormal sum, 370 eps ulps scale
    @example(kind=CutoffKind.SMOOTH_BUMP, mirror=True, sigma=256.0, x=1.0,
             ry=9.4, ny=65, nt=399)  # folded, the middle node set to 0.0
    @settings(max_examples=60, deadline=None)
    def test_matches_tensor_sum_on_any_grid(self, kind, mirror, sigma, x, ry,
                                            ny, nt):
        # the routes round the phase y t differently, by a few ulp of
        # max |y t| per term, and add the terms in another order; the term
        # is conjugate-symmetric in t (S = 0.7 t, a real f), and folded
        # onto t >= 0 its nodes t < 0 move to the exact mirrors of the
        # nodes t > 0, by a few ulp of 2 sigma, which the phase multiplies
        # by at most ry
        cut, x2, y_ax, t_ax, _ = _special_grid(kind, sigma, x, ry, ny, nt)

        def r2(Y, T):
            return x2 + (Y / sigma) ** 2 + (T / sigma) ** 2

        def theta_fn(t):
            return np.exp(0.7j * t)

        def f_fn(y):
            return 1.0 / (1.0 + y * y)

        def term(Y, T):
            return theta_fn(T) * f_fn(Y) * np.exp(-1j * Y * T) * cut.at_r2(
                r2(Y, T))
        val, entries = oscillatory._special_quadrature(
            theta_fn, f_fn, x2, sigma, cut, y_ax, t_ax, mirror)
        assert entries["theta_mirror"] is mirror
        if "columns" in entries:
            assert sum(entries["columns"].values()) == nt
        ref = oscillatory._tiled_quadrature(term, y_ax, t_ax)
        scale = oscillatory._tiled_quadrature(
            lambda Y, T: np.abs(term(Y, T)), y_ax, t_ax).real
        eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        ulps = ry * 2.0 * sigma + ny + nt
        bound = 2 * eps * ulps * scale
        if kind is CutoffKind.GAUSSIAN:
            # the bump's factored columns are exactly 1.0; the Gaussian's
            # factors e^{-y^2/(2 sigma^2)} e^{-(x^2+t^2)/(2 sigma^2)} round
            # the exponent apart from the tensor integrand's e^{-r2/2}, a
            # few ulp of r2 per term, and where a factor or a term is
            # subnormal it rounds by up to half the smallest subnormal,
            # which the weights (summing to 2 ry and 4 sigma) then scale
            bound += 2 * eps * oscillatory._tiled_quadrature(
                lambda Y, T: np.abs(term(Y, T)) * r2(Y, T), y_ax, t_ax).real \
                + 2 * tiny * (ny + 2.0 * ry) * (nt + 4.0 * sigma)
        assert abs(val - ref) <= bound

    @pytest.mark.parametrize("mirror", [False, True])
    def test_transition_tiles_land_on_the_nodes(self, mirror):
        # x = 1.5 sigma: every column the bump does not zero is a transition
        # column, up to |t| = 1.32 sigma = 1320, summed on its own row of
        # `_exp_table`, in tiles of 128 columns; a flat f and a = 1, whose
        # sums over y line up next to t = 2 pi m / h_y.  Against a long
        # double sum of the same terms on the same nodes (the folded sum on
        # its exact mirror nodes), to within one rounding of the scale
        sigma, x2 = 1000.0, 2.25
        cut = CutoffSpec(CutoffKind.SMOOTH_BUMP)
        y_ax = np.linspace(-30.0, 30.0, 601)
        t_ax = np.linspace(-2000.0, 2000.0, 1024)
        val, entries = oscillatory._special_quadrature(
            np.ones_like, np.ones_like, x2, sigma, cut, y_ax, t_ax, mirror)
        assert entries["columns"] == {"separable": 0, "zero": 348,
                                      "transition": 676}
        t = t_ax
        wt = oscillatory._trapezoid_weights(len(t_ax), t_ax[1] - t_ax[0])
        if mirror:
            t, wt = oscillatory._mirror_half(t, wt)
        wy = oscillatory._trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0])
        terms = (wy[:, None] * wt * cut.at_r2(
            x2 + (y_ax[:, None] / sigma) ** 2 + (t / sigma) ** 2)).astype(
                np.longdouble)
        phase = np.outer(y_ax.astype(np.longdouble), t.astype(np.longdouble))
        want = complex(float(np.sum(terms * np.cos(phase))),
                       0.0 if mirror else float(-np.sum(terms
                                                        * np.sin(phase))))
        assert abs(val - want) <= np.finfo(float).eps * float(np.sum(terms))

    @pytest.mark.parametrize("kind, zero, whole", [
        (CutoffKind.GAUSSIAN, {"route": "separable", "theta_mirror": False},
         {"route": "separable", "theta_mirror": False}),
        (CutoffKind.SMOOTH_BUMP,
         {"columns": {"separable": 0, "zero": 11, "transition": 0},
          "route": "split", "theta_mirror": False},
         {"columns": {"separable": 11, "zero": 0, "transition": 0},
          "route": "split", "theta_mirror": False})])
    def test_empty_transition_and_all_zero_grids(self, kind, zero, whole):
        # x far outside the cutoff's support: the sum is 0 (the bump's
        # columns are all 0); no transition column: the Fourier sum alone
        cut = CutoffSpec(kind)
        y_ax, t_ax = np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 11)
        val, entries = oscillatory._special_quadrature(
            lambda t: np.exp(1j * t), lambda y: np.exp(-y * y), np.inf, 4.0,
            cut, y_ax, t_ax)
        assert (val, entries) == (0j, zero)
        val, entries = oscillatory._special_quadrature(
            lambda t: np.exp(1j * t), lambda y: np.exp(-y * y), 0.0, 4.0,
            cut, y_ax, t_ax)
        assert entries == whole
        ref = oscillatory._tiled_quadrature(
            lambda Y, T: np.exp(1j * T - Y * Y - 1j * Y * T) * cut.at_r2(
                (Y / 4.0) ** 2 + (T / 4.0) ** 2), y_ax, t_ax)
        assert abs(val - ref) <= 1e-14 * abs(ref)


#: (a, f, x) whose special-route term sympy proves conjugate-symmetric in
#: theta, and (S, a, f, x) whose term is not: S even in part (the chirp), a
#: odd in theta, f complex
FOLDED = [(A_ONE, F_GAUSS, 0.0), ("1/(1+theta**2)", F_GAUSS, 0.0),
          (A_ONE, "exp(-(y-0.3)**2/2)", 0.7),
          ("1/(1+theta**2)", "exp(-(y-0.3)**2/2)", 0.7)]
UNFOLDED = [("x*theta + theta**2/2", A_ONE, F_GAUSS, 0.5),
            ("x*theta", "theta", F_GAUSS, 0.5),
            ("x*theta", A_ONE, "exp(-y**2/2 + I*y)", 0.0)]


def _special_passes(monkeypatch, *args, **kwargs):
    """regularized_fio_apply(*args, **kwargs) and the (value, mirror) of
    each of its `_special_quadrature` calls."""
    real = oscillatory._special_quadrature
    seen = []

    def spy(*spy_args):
        val, entries = real(*spy_args)
        seen.append((val, spy_args[-1]))
        return val, entries
    monkeypatch.setattr(oscillatory, "_special_quadrature", spy)
    res = regularized_fio_apply(*args, **kwargs)
    monkeypatch.setattr(oscillatory, "_special_quadrature", real)
    return res, seen


class TestSpecialRouteMirror:
    """The special route sums over theta >= 0 exactly when sympy proves its
    term conjugate-symmetric in theta, and then moves each value by
    rounding only."""

    @pytest.mark.parametrize("a, f, x", FOLDED)
    @pytest.mark.parametrize("kind", list(CutoffKind))
    def test_matches_the_full_sum(self, phi_xt, monkeypatch, kind, a, f, x):
        # each sigma pass and the other cutoff's gap pass, against the same
        # call summed over the whole theta axis
        kwargs = dict(schedule=(8, 16, 32), cutoff=CutoffSpec(kind))
        folded, folded_passes = _special_passes(monkeypatch, a, phi_xt, f, x,
                                                **kwargs)
        monkeypatch.setattr(oscillatory, "conjugate_mirror",
                            lambda *args: False)
        full, full_passes = _special_passes(monkeypatch, a, phi_xt, f, x,
                                            **kwargs)
        assert [q["theta_mirror"] for q in folded.quadrature] == [True] * 4
        assert [q["theta_mirror"] for q in full.quadrature] == [False] * 4
        assert [m for _, m in folded_passes] == [True] * 4
        assert [m for _, m in full_passes] == [False] * 4
        assert all(v.imag == 0.0 for v, _ in folded_passes)
        assert folded.value.imag == 0.0
        for (v_folded, _), (v_full, _) in zip(folded_passes, full_passes):
            assert abs(v_folded - v_full) <= 1e-12 * abs(v_full)
        assert abs(folded.value - full.value) <= 1e-12 * abs(full.value)
        # the gap is a difference of two values that each move
        assert abs(folded.cutoff_gap - full.cutoff_gap) \
            <= 1e-12 * abs(full.value)
        # the records count the whole axis
        assert [{k: v for k, v in q.items() if k != "theta_mirror"}
                for q in folded.quadrature] == [
            {k: v for k, v in q.items() if k != "theta_mirror"}
            for q in full.quadrature]

    @pytest.mark.parametrize("S, a, f, x", UNFOLDED)
    @pytest.mark.parametrize("kind", list(CutoffKind))
    def test_unproven_sums_the_whole_axis(self, monkeypatch, kind, S, a, f,
                                          x):
        phi = special_phase(GeneratingFunction.from_expr(S, 1))
        u, phi_yt = (as_expr(a, phi.variables) * as_expr(f, phi.yvars),
                     phi.expr)
        assert not conjugate_mirror(phi_yt.subs(phi.xvars[0], x),
                                    u.subs(phi.xvars[0], x), phi.tvars[0])
        kwargs = dict(schedule=(8, 16, 32), cutoff=CutoffSpec(kind))
        res, passes = _special_passes(monkeypatch, a, phi, f, x, **kwargs)
        assert [q["theta_mirror"] for q in res.quadrature] == [False] * 4
        assert [m for _, m in passes] == [False] * 4
        # the same instructions, and so the same bits, as a call whose proof
        # is forced to fail
        monkeypatch.setattr(oscillatory, "conjugate_mirror",
                            lambda *args: False)
        forced, forced_passes = _special_passes(monkeypatch, a, phi, f, x,
                                                **kwargs)
        assert repr(passes) == repr(forced_passes)
        assert repr(dataclasses.astuple(res)) == repr(
            dataclasses.astuple(forced))


class TestExpTable:
    """The factored tables of e^{-i t y} behind the special route's
    Fourier sums and transition columns."""

    @pytest.mark.parametrize("ny", [1, 2, 3, 7, 422, 6191])
    def test_matches_direct_exponentials(self, ny):
        # Q = ceil(sqrt(ny)) does not divide ny = 3, 7, 422 or 6191
        y_ax = np.linspace(-9.4, 9.4, ny)
        t = np.concatenate([np.linspace(-2055.5, 2055.5, 41), [1e-3]])
        table = oscillatory._exp_table(t, y_ax)
        assert table.shape == (len(t), ny)
        # np.exp rounds the phase t y by up to half an ulp of it, as large
        # as the row's largest phase |t| max|y|: a few ulp of that
        eps = np.finfo(float).eps
        row_phase = np.abs(t)[:, None] * np.max(np.abs(y_ax))
        assert np.all(np.abs(table - np.exp(-1j * np.outer(t, y_ax)))
                      <= 4 * eps * (1.0 + row_phase))
        # the table takes the rounding of its phases back, so it is within
        # a few rounding errors of a complex product of the exact value,
        # however large t y (sampled: 25 points y_j of each row)
        with mpmath.workdps(40):
            for j in np.unique(np.linspace(0, ny - 1, 25).astype(int)):
                for k, t_k in enumerate(t):
                    exact = complex(mpmath.expj(-mpmath.mpf(t_k)
                                                * mpmath.mpf(y_ax[j])))
                    assert abs(table[k, j] - exact) <= 4 * eps

    def test_fourier_sum_matches_direct_sum(self, rng):
        # the sizes of the Gaussian's sigma = 256 special quadrature in
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

    def test_fourier_sum_lands_on_the_nodes(self):
        # a flat c (f = 1): F is evaluated at t_k, not at the split node
        # t_{aB} + b h an ulp or two away, nor with the phases' rounding.
        # The columns next to t = 2 pi m / h_y, where every term has the
        # same phase and errors add up coherently, and random ones; the
        # reference sums in long double
        y_ax = np.linspace(-30.0, 30.0, 6191)
        t_ax = np.linspace(-2000.0, 2000.0, 8192)
        c = oscillatory._trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0])
        got = oscillatory._fourier_sum(c, y_ax, t_ax)
        alias = 2.0 * np.pi / (y_ax[1] - y_ax[0]) * np.arange(-3, 4)
        near = np.searchsorted(t_ax, alias[np.abs(alias) <= 2000.0])
        near = np.concatenate([near - 1, near])
        cols = np.concatenate([near, np.random.default_rng(0).choice(
            len(t_ax), 64 - len(near), replace=False)])
        phase = np.outer(t_ax[cols].astype(np.longdouble),
                         y_ax.astype(np.longdouble))
        c_long = c.astype(np.longdouble)
        error = np.hypot(got[cols].real - np.cos(phase) @ c_long,
                         got[cols].imag + np.sin(phase) @ c_long)
        assert np.max(error) <= 1e-13 * np.sum(np.abs(c))


class TestSplitBumpRoute:
    """The smooth bump's column classes on the special route: a column is
    taken as all-1 or all-0 only if the tensor integrand's own cutoff
    values are."""

    @given(**SPECIAL_GRIDS)
    @settings(max_examples=150, deadline=None)
    def test_column_classes_are_exact(self, sigma, x, ry, ny, nt):
        # the whole column, evaluated as the tensor integrand does, is
        # exactly 1.0 on an all-1 column and exactly 0.0 on an all-0 one
        cut, x2, y_ax, t_ax, g = _special_grid(CutoffKind.SMOOTH_BUMP, sigma,
                                               x, ry, ny, nt)
        ones, zeros = oscillatory._bump_columns(cut, x2, sigma, y_ax, t_ax)
        assert not np.any(ones & zeros)
        assert np.all(g[:, ones] == 1.0)
        assert np.all(g[:, zeros] == 0.0)
        # and a column left out of both is not constant at 1 or at 0
        mixed = ~(ones | zeros)
        assert not np.any(np.all(g[:, mixed] == 1.0, axis=0)
                          | np.all(g[:, mixed] == 0.0, axis=0))
        # the all-1 columns are one run of the axis with no all-0 column
        # inside it, so the route sums their hull with no mask
        if np.any(ones):
            first, last = np.flatnonzero(ones)[[0, -1]]
            assert np.all(ones[first:last + 1])
            assert not np.any(zeros[first:last + 1])


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

    @pytest.mark.parametrize("R", [0.0, -3.0, math.nan, math.inf])
    @pytest.mark.parametrize("k", [0, 2])
    def test_rejects_R_that_is_not_finite_and_positive(self, phi_xt, k, R):
        with pytest.raises(ValueError, match=r"R must be finite and > 0"):
            fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=k, R=R)

    @pytest.mark.parametrize("k", [2.5, -1, math.nan])
    def test_rejects_k_that_is_not_a_non_negative_integer(self, phi_xt, k):
        with pytest.raises(ValueError, match=r"k must be an integer >= 0"):
            fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=k, R=6.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_x_that_is_not_finite(self, phi_xt, x):
        with pytest.raises(ValueError, match=rf"x must be finite: {x}"):
            fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, x, k=2, R=6.0)

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
        # (0.7 - y) theta and a real f are conjugate-symmetric in theta
        assert d["theta_mirror"] is True and res.value.imag == 0.0
        assert set(d) == {"eps0", "s0", "local_radius", "psi_split",
                          "theta_mirror", "coarse_cap_hit", "local_step_asked",
                          "local_step", "local_cap_hit"}
        # the record holds plain numbers only: it reads the same in JSON
        assert json.loads(json.dumps(d)) == d

    def test_decisions_without_the_cap(self, phi_xt):
        d = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=6.0).decisions
        assert d["local_cap_hit"] is False and d["coarse_cap_hit"] is False
        assert d["local_step"] <= d["local_step_asked"]


#: (a, f, x, k) whose integrand sympy proves conjugate-symmetric in theta
MIRRORED = [(A_ONE, F_GAUSS, 0.0, 0), (A_ONE, F_GAUSS, 0.0, 2),
            (A_ONE, F_GAUSS, 0.0, 4), (A_ONE, "exp(-(y-0.3)**2/2)", 0.7, 2),
            ("1/(1+theta**2)", F_GAUSS, 0.0, 2)]
#: (a, f, x, k) whose integrand is not: a odd in theta, f complex
UNMIRRORED = [("theta", F_GAUSS, 0.0, 2), (A_ONE, "exp(-y**2/2 + I*y)", 0.0, 2)]


def ibp_build(phi, a, f, x, k):
    """The `_ibp_callables` arguments of fio_apply_ibp(a, phi, f, x, k, R)."""
    xv, phi_yt, a_yt, f_expr = oscillatory._at_point(a, phi, f, x)
    return (a_yt * f_expr, phi_yt, phi.yvars[0], phi.tvars[0], xv,
            float(choose_eps0(phi, xv)), k)


class TestThetaMirror:
    """`fio_apply_ibp` sums both grids over theta >= 0 exactly when sympy
    proves its integrand conjugate-symmetric in theta."""

    @pytest.mark.parametrize("a, f, x, k", MIRRORED + UNMIRRORED)
    def test_decided_by_the_proof(self, phi_xt, a, f, x, k):
        u, phi_yt, _, tv, *_ = ibp_build(phi_xt, a, f, x, k)
        assert conjugate_mirror(phi_yt, u, tv) is ((a, f, x, k) in MIRRORED)

    @pytest.mark.parametrize("a, f, x, k", MIRRORED)
    def test_matches_the_full_grid(self, phi_xt, monkeypatch, a, f, x, k):
        # R = 12 holds psi's disk at x = 0.7 (local radius 11.2)
        mirrored = fio_apply_ibp(a, phi_xt, f, x, k=k, R=12.0)
        monkeypatch.setattr(oscillatory, "conjugate_mirror",
                            lambda *args: False)
        full = fio_apply_ibp(a, phi_xt, f, x, k=k, R=12.0)
        assert mirrored.decisions["theta_mirror"] is True
        assert full.decisions["theta_mirror"] is False
        assert mirrored.value.imag == 0.0
        assert abs(mirrored.value - full.value) <= 1e-12 * abs(full.value)
        assert abs(mirrored.tail_mass - full.tail_mass) \
            <= 1e-12 * full.tail_mass

    @pytest.mark.parametrize("a, f, x, k", UNMIRRORED)
    def test_unproven_takes_the_full_grid(self, phi_xt, monkeypatch, a, f,
                                          x, k):
        real = oscillatory._tiled_quadrature
        seen = []

        def recording(fn, y_ax, t_ax, mirror=False):
            seen.append(mirror)
            return real(fn, y_ax, t_ax, mirror)
        monkeypatch.setattr(oscillatory, "_tiled_quadrature", recording)
        res = fio_apply_ibp(a, phi_xt, f, x, k=k, R=12.0)
        assert res.decisions["theta_mirror"] is False
        # both grids whole: the instructions, and so the bits, of the sums
        # before the mirror
        assert seen == [False, False]

    @given(case=st.sampled_from(MIRRORED + UNMIRRORED
                                + [("exp(I*theta)/(1+theta**2)", F_GAUSS,
                                    0.0, 2)]),
           y=st.floats(-12.0, 12.0), t=st.floats(0.0, 12.0))
    @settings(max_examples=80, deadline=None)
    def test_proven_integrand_is_conjugate_symmetric(self, phi_xt, case, y,
                                                     t):
        # both grids lie in [-12, 12]^2 at R = 12; a proof that accepted a
        # case it should not would show here as I(y, -t) != conj I(y, t)
        build = ibp_build(phi_xt, *case)
        u, phi_yt, _, tv, *_ = build
        if not conjugate_mirror(phi_yt, u, tv):
            return
        values, phase = oscillatory._ibp_integrand(
            *oscillatory._ibp_callables(*build))
        Y, T = np.array([y, y]), np.array([t, -t])
        plus, minus = values(Y, T) * phase(Y, T)
        eps = np.finfo(float).eps
        assert abs(minus - np.conj(plus)) <= 8 * eps * abs(plus)


def test_grid_reports_the_point_cap(phi_xt):
    # at x = 0, d phi / d theta = -y and d phi / d y = -theta: a y radius of
    # 3000 asks for about 21 000 points at step 2 pi / 22, more than the
    # cap of 8192, and a radius of 30 for about 212 of them
    y_ax, t_ax, _, capped = oscillatory._grid(phi_xt, 0.0, 3000.0, 10.0, 12.0)
    assert capped is True and len(y_ax) == 8192
    assert y_ax[1] - y_ax[0] > 2.0 * np.pi / 22.0
    y_ax, t_ax, step, capped = oscillatory._grid(phi_xt, 0.0, 30.0, 10.0, 12.0)
    assert capped is False
    assert y_ax[1] - y_ax[0] <= 2.0 * np.pi / 22.0
    assert t_ax[1] - t_ax[0] <= step == 2.0 * np.pi / 42.0


def test_axis_rejects_a_point_count_that_is_not_finite():
    # 2 radius / step overflows; it used to reach int() as an OverflowError
    with pytest.raises(ValueError, match="has no finite point count"):
        oscillatory._axis(1e308, 1e-3)
    assert len(oscillatory._axis(1e300, 1e-3)[0]) == 8192


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
    return oscillatory._ibp_callables(*ibp_build(phi, A_ONE, F_GAUSS, 0.0, k))


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
        oscillatory._local_sum.cache_clear()

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

        def quadrature(fn, y_ax, t_ax, mirror=False):
            state["axes"].append(y_ax)
            return real_quadrature(fn, y_ax, t_ax, mirror)
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


class TestLocalSumMemo:
    """`fio_apply_ibp` sums each local psi-grid once per process: calls
    that differ only in R share the sum, calls whose grid differs do not."""

    @staticmethod
    def spy(monkeypatch, local=None):
        """Record the last point of each axis `_tiled_quadrature` sums
        over; the local grids (radius below R) go to `local` if given."""
        real = oscillatory._tiled_quadrature
        ends = []

        def recording(fn, y_ax, t_ax, mirror=False):
            ends.append(float(y_ax[-1]))
            if local is not None and ends[-1] not in (12.0, 24.0):
                return local(fn, y_ax, t_ax, mirror)
            return real(fn, y_ax, t_ax, mirror)
        monkeypatch.setattr(oscillatory, "_tiled_quadrature", recording)
        return ends

    def test_R24_reuses_the_R12_local_sum(self, phi_xt, monkeypatch):
        ends = self.spy(monkeypatch)
        first = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=12.0)
        second = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=24.0)
        radius = first.decisions["local_radius"]
        assert second.decisions["local_radius"] == radius
        assert ends == [12.0, radius, 24.0]
        oscillatory._local_sum.cache_clear()
        fresh = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=24.0)
        assert ends[3:] == [24.0, radius]
        assert repr(second.value) == repr(fresh.value)
        assert repr(second.tail_mass) == repr(fresh.tail_mass)

    def test_a_different_s0_gets_its_own_local_sum(self, phi_xt,
                                                   monkeypatch):
        # at x = 0.7, s0 reads 7.943077 at R = 12 and 7.94 at R = 24; the
        # local grids (16.8 M points each) are recorded, not summed
        ends = self.spy(monkeypatch, local=lambda fn, y_ax, t_ax, mirror: 0j)
        f = "exp(-(y-0.3)**2/2)"
        radii = [fio_apply_ibp(A_ONE, phi_xt, f, 0.7, k=2, R=R).decisions[
            "local_radius"] for R in (12.0, 24.0)]
        assert radii[0] != radii[1]
        assert ends == [12.0, radii[0], 24.0, radii[1]]

    def test_a_raising_local_grid_caches_nothing(self, phi_xt, monkeypatch):
        def failing(fn, y_ax, t_ax, mirror):
            raise FloatingPointError("non-finite integrand away from the guard")
        ends = self.spy(monkeypatch, local=failing)
        with pytest.raises(FloatingPointError, match="non-finite integrand"):
            fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=12.0)
        assert oscillatory._local_sum.cache_info().currsize == 0
        monkeypatch.undo()
        ends = self.spy(monkeypatch)
        res = fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=12.0)
        assert ends == [12.0, res.decisions["local_radius"]]
        assert abs(res.value - 1.0) < 1e-6


class TestTileShares:
    """`_tiled_quadrature` deals its tiles to forked shares and adds the
    tile sums in tile order: the same sums as one process, bit for bit."""

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_two_shares_equal_one(self, phi_xt, cpus, forks, k):
        results = []
        for n in (1, 2):
            cpus(n)
            oscillatory._local_sum.cache_clear()
            results.append(fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=k,
                                         R=6.0))
        one, two = results
        assert two.value == one.value and two.tail_mass == one.tail_mass
        # at R = 6 the coarse grid is one tile; the local grid of k > 0
        # (1260 columns, mirrored to its 630 columns theta >= 0, three
        # tiles) is the one that forks
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
            return np.exp(1j * Y * T), np.ravel(np.sin(T) ** 2)
        got = []
        for n in (1, 2, 3):
            cpus(n)
            got.append(oscillatory._tiled_quadrature(integrand, y_ax, t_ax))
        assert got[1] == got[0] and got[2] == got[0]
        hy, ht = y_ax[1] - y_ax[0], t_ax[1] - t_ax[0]
        tail = 0.0
        for start in range(0, 900, 256):
            terms = integrand(*np.meshgrid(y_ax, t_ax[start:start + 256],
                                           indexing="ij"))[1]
            tail += float(np.sum(terms)) * hy * ht
        assert got[0][1] == tail


def whole_tiles(fn, y_ax, t_ax, mirror=False):
    """`_tiled_quadrature`'s sums with each tile evaluated in one piece, in
    one process: the reference of its row blocks.  With mirror, the tiles
    cover the nodes t >= 0 of t_ax (the middle one of an odd count exactly
    0), each t > 0 weighted twice, and the sums are real parts."""
    hy, ht = y_ax[1] - y_ax[0], t_ax[1] - t_ax[0]
    wy = oscillatory._trapezoid_weights(len(y_ax), hy)
    wt = oscillatory._trapezoid_weights(len(t_ax), ht)
    if mirror:
        first = len(t_ax) // 2
        t_ax = np.r_[0.0, t_ax[first + 1:]] if len(t_ax) % 2 \
            else t_ax[first:]
        wt = wt[first:] * np.where(t_ax > 0.0, 2.0, 1.0)
    total, tail, paired = 0.0 + 0.0j, 0.0, False
    for start in range(0, len(t_ax), 256):
        cols = slice(start, start + 256)
        out = fn(*np.meshgrid(y_ax, t_ax[cols], indexing="ij"))
        if isinstance(out, tuple):
            out, terms = out
            tail += float(np.sum(terms)) * hy * ht
            paired = True
        part = np.einsum("i,ij,j->", wy, out, wt[cols])
        total += part.real if mirror else part
    return (total, tail) if paired else total


class TestRowBlocks:
    """`_tiled_quadrature` evaluates each tile in blocks of `_BLOCK_ROWS` y
    rows: the sums are those of whole tiles, bit for bit, and no integrand
    call sees more than one block."""

    @staticmethod
    def spy(monkeypatch):
        """Record (fn, y_ax, t_ax) of every grid `_tiled_quadrature` sums,
        and the shape of every (Y, T) block fn is called on."""
        real = oscillatory._tiled_quadrature
        grids, blocks = [], []

        def recording(fn, y_ax, t_ax, mirror=False):
            grids.append((fn, y_ax, t_ax, mirror))

            def spied(Y, T):
                blocks.append((len(grids) - 1, Y.shape))
                return fn(Y, T)
            return real(spied, y_ax, t_ax, mirror)
        monkeypatch.setattr(oscillatory, "_tiled_quadrature", recording)
        return real, grids, blocks

    def test_blocks_equal_whole_tiles(self, phi_xt, monkeypatch):
        real, grids, _ = self.spy(monkeypatch)
        fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=12.0)
        (coarse, y_ax, t_ax, mirrored), (local, loc_ax, _, _) = grids
        assert mirrored
        rows = oscillatory._BLOCK_ROWS
        # 292 and 1260 rows: neither is a multiple of a block
        assert len(y_ax) % rows and len(loc_ax) % rows
        mid = len(loc_ax) // 2
        cases = [(coarse, y_ax, t_ax),
                 (coarse, y_ax[:rows // 2 + 3], t_ax),
                 (local, loc_ax, loc_ax[mid - 300:mid + 300]),
                 (local, loc_ax[mid - 20:mid + rows - 21], loc_ax)]
        for fn, ys, ts in cases:
            got, ref = real(fn, ys, ts), whole_tiles(fn, ys, ts)
            assert repr(got) == repr(ref)
        assert isinstance(got, complex) and len(real(*cases[1])) == 2
        # mirrored: the even local axis (630 columns theta > 0), and an odd
        # coarse axis, whose middle column theta = 0 counts once; linspace
        # leaves that node 1.8e-15 above 0, and the fold takes it as 0
        odd = np.linspace(-t_ax[-1], t_ax[-1], 375)
        assert t_ax[-1] == 12.0 and odd[187] > 0.0
        for fn, ys, ts in [(local, loc_ax, loc_ax), (coarse, y_ax, odd)]:
            got = real(fn, ys, ts, True)
            assert repr(got) == repr(whole_tiles(fn, ys, ts, mirror=True))
        assert got[0].imag == 0.0

    def test_no_call_sees_more_than_one_block(self, phi_xt, monkeypatch,
                                              cpus):
        # the spy records inside the integrand: a forked share's blocks
        # would never reach this process
        cpus(1)
        _, grids, blocks = self.spy(monkeypatch)
        fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=2, R=12.0)
        rows = oscillatory._BLOCK_ROWS
        assert len(grids) == 2
        for i, (_, y_ax, t_ax, mirror) in enumerate(grids):
            # a mirrored grid evaluates its columns theta >= 0 only
            assert mirror
            columns = (len(t_ax) + 1) // 2
            shapes = [shape for grid, shape in blocks if grid == i]
            assert max(r for r, _ in shapes) == rows
            assert all(r <= rows and c <= 256 for r, c in shapes)
            assert sum(r * c for r, c in shapes) == len(y_ax) * columns

    def test_traced_peak_of_a_k4_call(self, phi_xt, cpus):
        # 34.1 MB with whole tiles, 14.7 MB in blocks of 64 rows; the
        # symbolic build is made first, as criterion 3's R = 12 call finds
        # it after the k = 2 ones
        cpus(1)
        ibp_callables(phi_xt, 4)
        tracemalloc.start()
        try:
            fio_apply_ibp(A_ONE, phi_xt, F_GAUSS, 0.0, k=4, R=12.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20


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

    @pytest.mark.parametrize("x", [0.0, 0.7])
    @pytest.mark.parametrize("S, extra", [
        ("x*theta", None),
        ("x*theta + theta**2/2", None),
        ("x*theta + theta**3/6", None),
        ("x*theta", "y**2*theta/4"),
    ], ids=["xt", "chirp", "cubic", "not-special"])
    def test_coefficient_jets_match_symbolic_derivatives(self, S, extra, x):
        # h's and the ratio's jets by Taylor arithmetic from grad phi and
        # lambda^2, against the symbolic derivatives of h = grad phi / D
        # and of the ratio D / (eps0 lambda^2) (their build before the
        # Taylor arithmetic); the not-special phase gives z varying mixed
        # rows
        k = 4
        phi = special_phase(GeneratingFunction.from_expr(S, 1))
        if extra is not None:
            phi = dataclasses.replace(
                phi, expr=phi.expr + as_expr(extra, phi.variables))
        xs, yv, tv = phi.variables
        eps0 = float(choose_eps0(phi, x))
        phase = phi.expr.subs(xs, x)
        denom, h_y, h_t = oscillatory._ibp_coefficients(phase, yv, tv)
        lam2 = 1 + sp.Float(x) ** 2 + yv ** 2 + tv ** 2
        t_ratio = denom / (eps0 * lam2)
        h_references = [jets.lambdify_rows(h, yv, tv, k) for h in (h_y, h_t)]
        ratio_reference = jets.lambdify_rows(t_ratio, yv, tv, k)
        z_rows, h_jet, ratio_jet = oscillatory._coefficient_jets(
            sp.diff(phase, yv), sp.diff(phase, tv), lam2, yv, tv, eps0, k)

        Y, T = np.random.default_rng(7).uniform(-6.0, 6.0, (2, 20000))
        r = lambdify((yv, tv), t_ratio)(Y, T)
        annulus, outer = (r > 1.0) & (r < 2.0), r >= 2.0
        assert annulus.sum() > 200 and outer.sum() > 200
        for m in (annulus, outer):
            y, t = Y[m], T[m]
            z = z_rows(y, t)
            # interleaved: row 2i is coefficient i of h_y, 2i + 1 of h_t
            h_want = [row for pair in zip(*(h(y, t) for h in h_references))
                      for row in pair]
            pairs = [(h_jet(z), h_want),
                     (ratio_jet(z, y, t)[1:], ratio_reference(y, t)[1:])]
            for got, want in pairs:
                got, want = (
                    np.array([np.broadcast_to(row, y.shape) for row in rows])
                    for rows in (got, want))
                scale = np.max(np.abs(want), axis=1)
                err = np.max(np.abs(got - want), axis=1)
                assert np.all(err <= 1e-13 * scale), np.max(err / scale)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_compose_matches_symbolic_derivatives(self, k):
        # the jet of f(g) from f's Taylor coefficients at g_0 and g's jet,
        # against the jet of the symbolic composition
        y, t, z = sp.symbols("y t z", real=True)
        g = y * sp.sin(t) + 1 / (1 + y ** 2)
        f = sp.exp(-z) * sp.cos(3 * z)
        Y, T = np.random.default_rng(k).uniform(-2.0, 2.0, (2, 500))
        g_jet = jets.lambdify_rows(g, y, t, k)(Y, T)
        s = [np.broadcast_to(lambdify(z, sp.diff(f, z, m)
                                      / math.factorial(m))(g_jet[0]),
                             Y.shape) for m in range(k + 1)]
        want = np.array([np.broadcast_to(row, Y.shape) for row in
                         jets.lambdify_rows(f.subs(z, g), y, t, k)(Y, T)])
        got = np.array([np.broadcast_to(row, Y.shape)
                        for row in jets.compose(s, g_jet, k)])
        scale = np.max(np.abs(want), axis=0)
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
