"""Oscillatory integrals: cutoff regularization and integration by parts.

Two routes to the same value of the oscillatory integral applied to a test
function:

* `regularized_fio_apply` multiplies the amplitude by a scaled cutoff
  g(./sigma) with g(0) = 1 and follows the values along an increasing sigma
  schedule; the limit must not depend on the cutoff shape.  When the phase
  is special (phi = S(x, theta) - y theta, i.e. d phi/dy = -theta), the
  amplitude does not depend on y and g is the Gaussian, the integrand
  factors as e^{i S(theta)} a(theta) e^{-(x^2+theta^2)/(2 sigma^2)} times
  f(y) e^{-y^2/(2 sigma^2)} e^{-i y theta}.  The tensor-trapezoid sum then
  splits into a 1-D Fourier sum over y at each theta node (one complex
  GEMM) and a sum over theta: the same grid, the same weights, the same
  terms, only added in another order.  Every other case (the smooth bump,
  a y-dependent amplitude, a non-special phase) is summed on the tensor
  grid, which is also the reference the tests compare against.

* `fio_apply_ibp` splits the domain with the smooth partition omega (built
  from the ratio (|grad_y phi|^2 + |grad_theta phi|^2) / lambda^2), treats
  the near-critical part by direct quadrature, and applies the k-th power of
  the transpose of the first-order operator L (with L e^{i phi} = e^{i phi})
  to the rest.  The iterated transpose is evaluated on Taylor jets in
  (y, theta) (`jets`): sympy differentiates only the amplitude, the two
  coefficients of L and omega, each up to order k, and every transpose is
  exact jet arithmetic, never nested numerical differentiation.
  `IBPOperator.apply_transpose` keeps the symbolic product-rule expansion
  as the reference the tests compare against.  The k-fold term is
  evaluated by region of the partition ratio: it is 0 where the ratio is
  <= 1, the omega-free (tL)^k u where it is >= 2 (omega vanishes
  identically there), and only on the annulus between needs omega's jet
  with its chi-derivatives.

Quadrature is tensor-trapezoid with grid spacing chosen from the sampled
phase gradients (Nyquist plus a smoothness margin), which gives
super-algebraic accuracy for smooth integrands that decay inside the box.
Only n = N = 1 is supported here.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from . import jets
from .expressions import evaluate
from .phases import PhaseField
from .symbols import as_expr
from .weights import bracket

class ConvergenceError(RuntimeError):
    """Sigma residuals stopped decreasing; carries the partial result (value
    NaN, the residual table and the quadratures that ran)."""

    def __init__(self, message, result: OscIntegralResult):
        super().__init__(message)
        self.result = result


class OutsideDomainError(ValueError):
    """Coefficient evaluation requested below the eps0*lambda^2 guard."""


# The fixed module bump chi: identically 1 on [-1, 1], identically 0 outside
# (-2, 2), C-infinity and monotone on the transition.  Full smoothness
# matters: the k-fold transposed operator differentiates chi up to k times
# and the tensor-trapezoid rule only keeps spectral accuracy while the
# integrand stays smooth.
_T = sp.Symbol("_chi_arg", real=True)
_B_LEFT = sp.exp(-1 / (_T - 1))
_B_RIGHT = sp.exp(-1 / (2 - _T))
_CHI_TRANSITION = _B_RIGHT / (_B_LEFT + _B_RIGHT)

def _chi_taylor(t: np.ndarray, order: int) -> List[np.ndarray]:
    """Taylor coefficients s_0..s_order of the transition profile at points
    1 < t < 2.  The profile is s = sigma(z) with z = 1/(t-1) - 1/(2-t) and
    sigma the logistic function, so s' = s (1 - s) z'.  s_0 and 1 - s_0 are
    seeded from B_R/(B_L + B_R) and B_L/(B_L + B_R): the first is the
    profile's own formula, and the second keeps 1 - s accurate where s is
    close to 1."""
    b_left = np.exp(-1 / (t - 1))
    b_right = np.exp(-1 / (2 - t))
    s = [b_right / (b_left + b_right)]
    if order == 0:
        return s
    s_bar = [b_left / (b_left + b_right)]
    # z' has coefficients (j+1) z_{j+1}, z_j = (-1)^j/(t-1)^{j+1} - 1/(2-t)^{j+1}
    inv_left, inv_right = 1 / (t - 1), 1 / (2 - t)
    pow_left, pow_right = inv_left, inv_right
    dz, p = [], []
    for j in range(order):
        pow_left, pow_right = pow_left * inv_left, pow_right * inv_right
        dz.append((j + 1) * ((-1) ** (j + 1) * pow_left - pow_right))
        p.append(sum(s[i] * s_bar[j - i] for i in range(j + 1)))
        step = sum(p[i] * dz[j - i] for i in range(j + 1)) / (j + 1)
        s.append(step)
        s_bar.append(-step)
    return s


def chi_derivative(t, m: int = 0) -> np.ndarray:
    """chi^(m)(t) for t >= 0 (chi is even; callers pass the even argument).

    On the transition 1 < t < 2 it is m! times the m-th Taylor coefficient
    of `_chi_taylor`: exact Taylor arithmetic, with chi^(0) computed by the
    profile's own formula."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros(t.shape, dtype=float)
    if m == 0:
        out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            vals = _chi_taylor(t[mid], m)[m]
            if m:
                vals = math.factorial(m) * vals
        out[mid] = np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
    return out[0] if scalar else out


def chi(t) -> np.ndarray:
    """The fixed module bump: 1 on [-1,1], smooth and monotone on [1,2], 0 beyond."""
    return chi_derivative(np.abs(np.asarray(t, dtype=float)), 0)


def chi_expr(t: sp.Expr) -> sp.Expr:
    """Symbolic piecewise form of the bump (for inspection, not iteration)."""
    return sp.Piecewise((1, t <= 1), (0, t >= 2),
                        (_CHI_TRANSITION.subs(_T, t), True))


@functools.cache
def _chi_atom(m: int):
    """Atomic sympy function standing for chi^(m); differentiation raises m.

    Keeping chi-derivatives atomic (instead of exploding the transition
    profile inline) keeps the derivatives of omega small; lambdify binds
    the atoms to `chi_derivative` at evaluation time.
    """
    def fdiff(self, argindex=1, _m=m):
        return _chi_atom(_m + 1)(self.args[0])
    return type(f"chi{m}", (sp.Function,), {"fdiff": fdiff, "nargs": (1,)})


def _chi_modules(max_order: int) -> dict:
    return {f"chi{m}": (lambda t, _m=m: chi_derivative(t, _m))
            for m in range(max_order + 1)}


class CutoffKind(Enum):
    GAUSSIAN = "gaussian"
    SMOOTH_BUMP = "smooth_bump"


@dataclass(frozen=True)
class CutoffSpec:
    """Regularizing cutoff g with g(0) = 1, applied as g(./sigma)."""

    kind: CutoffKind = CutoffKind.GAUSSIAN

    def __call__(self, points) -> np.ndarray:
        return self.at_r2(np.sum(np.asarray(points, dtype=float) ** 2,
                                 axis=-1))

    def at_r2(self, r2) -> np.ndarray:
        """g at the squared radius r2 = |point|^2."""
        if self.kind is CutoffKind.GAUSSIAN:
            return np.exp(-r2 / 2.0)
        return chi(np.sqrt(r2))

    def radius(self, sigma: float, tail: float = 1e-14) -> float:
        """Radius beyond which g(./sigma) is below `tail`."""
        if self.kind is CutoffKind.SMOOTH_BUMP:
            return 2.0 * sigma
        return sigma * float(np.sqrt(-2.0 * np.log(tail)))


@dataclass
class OscIntegralResult:
    """Value of an oscillatory integral plus its convergence diagnostics."""

    value: complex
    sigma_residuals: List[Tuple[float, float]] = field(default_factory=list)
    cutoff_gap: Optional[float] = None
    ibp_order: int = 0
    truncation_radius: float = 0.0
    tail_mass: Optional[float] = None
    #: one record per regularized quadrature, in the order they ran (the
    #: sigma schedule, then the cutoff-gap pass): sigma, cutoff kind, grid
    #: sizes ny x nt and the route ("separable" or "tensor") that summed it
    quadrature: List[dict] = field(default_factory=list)


def _require_1d(phi: PhaseField):
    if phi.n != 1 or phi.N != 1:
        raise NotImplementedError("oscillatory quadrature supports n = N = 1")


def omega_partition(phi: PhaseField, eps: float, points) -> np.ndarray:
    """The partition value chi((|grad_y phi|^2+|grad_theta phi|^2)/(eps*lambda^2)).

    1 where the gradient quotient is <= eps, 0 where it is >= 2*eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    gy = phi.grad_y(points)
    gt = phi.grad_theta(points)
    d = np.sum(gy * gy, axis=-1) + np.sum(gt * gt, axis=-1)
    quot = d / (eps * bracket(points) ** 2)
    out = chi(quot)
    return out if out.shape else float(out)


def _ibp_coefficients(phase: sp.Expr, y: sp.Symbol, t: sp.Symbol):
    """(D, h_y, h_t) with D = (d_y phase)^2 + (d_t phase)^2 and
    h = (d phase)/D, real for a real phase: L = (h_y d/dy + h_t d/dt)/i
    has L e^{i phase} = e^{i phase}."""
    dy = sp.diff(phase, y)
    dt = sp.diff(phase, t)
    denom = dy ** 2 + dt ** 2
    return denom, dy / denom, dt / denom


class IBPOperator:
    """The operator L with L e^{i phi} = e^{i phi} and its exact transpose.

    tL w = -(d_y(c_y w) + d_theta(c_t w)) = F dw/dy + G dw/dtheta + H w with
    F = -c_y = -(d phi/dy)/(i D), G = -c_t and H = -div(c_y, c_t)
    (D = |grad_y phi|^2+|grad_theta phi|^2).  H picks up derivatives of 1/D
    as well; without them the k-fold transpose would not preserve the
    integral.
    """

    def __init__(self, phi: PhaseField, eps0: float):
        _require_1d(phi)
        if eps0 <= 0:
            raise ValueError("eps0 must be positive")
        self.phi = phi
        self.eps0 = eps0
        self.denom, h_y, h_t = _ibp_coefficients(
            phi.expr, phi.yvars[0], phi.tvars[0])
        self.c_y, self.c_t = h_y / sp.I, h_t / sp.I

    def _guard(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = evaluate(self.denom, self.phi.variables, points).real
        lam2 = bracket(points) ** 2
        bad = d < self.eps0 * lam2
        if np.any(bad):
            raise OutsideDomainError(
                f"point {points[np.argmax(bad)]} below the eps0*lambda^2 guard")
        return points

    def F(self, points) -> np.ndarray:
        """The d/dy coefficient -c_y of tL, guarded."""
        return evaluate(-self.c_y, self.phi.variables, self._guard(points))

    def apply_transpose(self, expr: sp.Expr, k: int = 1) -> sp.Expr:
        """(tL)^k expr, expanded by the symbolic product rule: the reference
        the Taylor-jet evaluation of `fio_apply_ibp` is tested against."""
        return _transpose_power(expr, self.c_y, self.c_t,
                                self.phi.yvars[0], self.phi.tvars[0], k)

    def identity_residual(self, points) -> float:
        """max |L e^{i phi} / e^{i phi} - 1| over the given Omega_0 points."""
        points = self._guard(points)
        gy = self.phi.grad_y(points)[..., 0]
        gt = self.phi.grad_theta(points)[..., 0]
        d = evaluate(self.denom, self.phi.variables, points).real
        # L e^{i phi} = e^{i phi} * (i gy * c_y + i gt * c_t)
        val = (gy * gy + gt * gt) / d
        return float(np.max(np.abs(val - 1.0)))


def _transpose_power(w: sp.Expr, c_y: sp.Expr, c_t: sp.Expr, y: sp.Symbol,
                     t: sp.Symbol, k: int) -> sp.Expr:
    """(tL)^k w with tL w = -(d_y(c_y w) + d_t(c_t w)), by the product rule."""
    for _ in range(int(k)):
        w = -(sp.diff(c_y * w, y) + sp.diff(c_t * w, t))
    return w


def choose_eps0(phi: PhaseField, x: float = 0.0) -> float:
    """Largest partition threshold eps in (0.4, 0.3, ..., 0.01) for which
    lambda^2 <= C(eps)|y|^2 holds on supp omega_eps (sampled on an 81^2
    grid of [-8, 8]^2, |y| >= 0.5) with C(eps) <= 1e4; else 0.01."""
    _require_1d(phi)
    candidates = (0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01)
    ax = np.linspace(-8.0, 8.0, 81)
    yy, tt = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([np.full(yy.size, x), yy.ravel(), tt.ravel()], axis=-1)
    gy = phi.grad_y(pts)[..., 0]
    gt = phi.grad_theta(pts)[..., 0]
    d = gy * gy + gt * gt
    lam2 = bracket(pts) ** 2
    absy = np.abs(pts[:, 1])
    for eps in candidates:
        on_supp = (d / (eps * lam2) < 2.0) & (absy >= 0.5)
        if not np.any(on_supp):
            continue
        c = float(np.max(lam2[on_supp] / absy[on_supp] ** 2))
        if c <= 1e4:
            return eps
    return candidates[-1]


# ---------------------------------------------------------------------------
# quadrature plumbing


def _decay_radius(profile: Callable[[np.ndarray], np.ndarray],
                  start: float) -> float:
    """Radius beyond which the 1-D profile, sampled at 2048 points of
    [0, start], stays below 1e-14 * max."""
    r = np.linspace(0.0, start, 2048)
    v = np.abs(profile(r))
    peak = float(np.max(v))
    if peak == 0.0:
        return 1.0
    above = np.nonzero(v > 1e-14 * peak)[0]
    edge = r[above[-1]] if len(above) else 0.0
    return float(min(start, edge * 1.05 + 1.0))


def _trapezoid_weights(npts: int, spacing: float) -> np.ndarray:
    w = np.full(npts, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _axis(radius: float, freq: float, margin: float):
    """Linspace of [-radius, radius] with step <= 2 pi / (freq + margin),
    capped at 8192 points."""
    h = 2.0 * np.pi / (freq + margin)
    npts = int(np.ceil(2.0 * radius / h)) + 1
    return np.linspace(-radius, radius, min(npts, 8192))


def _tiled_quadrature(fn, y_ax, t_ax):
    """Accumulate sum w_y w_t fn(y, t) over the tensor grid, in tiles of 256
    theta columns."""
    tile = 256
    wy = _trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0])
    wt = _trapezoid_weights(len(t_ax), t_ax[1] - t_ax[0])
    total = 0.0 + 0.0j
    for start in range(0, len(t_ax), tile):
        tt = t_ax[start:start + tile]
        Y, T = np.meshgrid(y_ax, tt, indexing="ij")
        vals = fn(Y, T)
        total += np.einsum("i,ij,j->", wy, vals, wt[start:start + tile])
    return total


def _fourier_sum(c, y_ax, t_ax) -> np.ndarray:
    """F_k = sum_j c_j e^{-i y_j t_k} at every point t_k of the linspace
    axis t_ax, as one complex GEMM over the split index k = a*B + b with
    B = ceil(sqrt(nt)): e^{-i y t_k} = e^{-i y t_{aB}} e^{-i y b h}, so
    (nt/B + B)*ny exponentials replace nt*ny."""
    nt = len(t_ax)
    B = int(np.ceil(np.sqrt(nt)))
    # linspace's own step: t_ax[1] - t_ax[0] carries the rounding of t_ax[0]
    # (about 2e-13 at |theta| = 2000), which b and y multiply into the phase
    h = (t_ax[-1] - t_ax[0]) / (nt - 1)
    head = np.exp(-1j * np.outer(t_ax[::B], y_ax)) * c
    step = np.exp(-1j * np.outer(np.arange(B) * h, y_ax))
    return (head @ step.T).ravel()[:nt]


def _separable_quadrature(theta_fn, f_fn, xv: float, sigma: float,
                          y_ax, t_ax) -> complex:
    """The tensor-trapezoid sum of e^{i S(t)} a(t) f(y) e^{-i y t}
    e^{-(x^2+y^2+t^2)/(2 sigma^2)} over y_ax x t_ax, where theta_fn(t) =
    e^{i S(t)} a(t): the same discrete sum as `_tiled_quadrature` with the
    Gaussian cutoff, summed over y first by `_fourier_sum`."""
    wy = _trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0])
    wt = _trapezoid_weights(len(t_ax), t_ax[1] - t_ax[0])
    c = wy * np.broadcast_to(f_fn(y_ax), y_ax.shape) \
        * np.exp(-(y_ax / sigma) ** 2 / 2.0)
    g_t = np.exp(-((xv / sigma) ** 2 + (t_ax / sigma) ** 2) / 2.0)
    theta_vals = np.broadcast_to(theta_fn(t_ax), t_ax.shape)
    return complex(np.sum(wt * theta_vals * g_t * _fourier_sum(c, y_ax,
                                                                t_ax)))


def regularized_fio_apply(a, phi: PhaseField, f, x: float,
                          schedule: Sequence[float] = (4, 8, 16, 32, 64),
                          cutoff: CutoffSpec = CutoffSpec(CutoffKind.GAUSSIAN),
                          compute_gap: bool = True) -> OscIntegralResult:
    """Cutoff-regularized oscillatory integral along an increasing sigma
    schedule, with extrapolated limit and cutoff-independence diagnostics.

    A Gaussian-cutoff quadrature takes the separable route when the phase
    is special (phi = S(x, theta) - y theta) and a does not depend on y;
    every other quadrature takes the tensor route.  Both sum the same
    trapezoid grid, recorded in `OscIntegralResult.quadrature`."""
    _require_1d(phi)
    schedule = [float(s) for s in schedule]
    if any(s2 <= s1 for s1, s2 in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be increasing")
    xv = float(x)
    yv, tv = phi.yvars[0], phi.tvars[0]
    phi_yt = phi.expr.subs(phi.xvars[0], xv)
    a_yt = as_expr(a, phi.variables).subs(phi.xvars[0], xv)
    f_expr = as_expr(f, (yv,))

    core = sp.exp(sp.I * phi_yt) * a_yt * f_expr
    core_fn = sp.lambdify((yv, tv), core, modules="numpy", cse=True)
    f_fn = sp.lambdify(yv, f_expr, modules="numpy")
    aenv_fn = sp.lambdify((yv, tv), sp.Abs(a_yt), modules="numpy")
    # S(theta) = phi + y theta; y-free exactly when d phi / dy = -theta
    s_t = sp.expand(phi_yt + yv * tv)
    theta_fn = None
    if yv not in s_t.free_symbols | a_yt.free_symbols:
        theta_fn = sp.lambdify(tv, sp.exp(sp.I * s_t) * a_yt,
                               modules="numpy")
    quadrature = []

    f_rad = _decay_radius(lambda r: np.abs(np.broadcast_to(f_fn(r), r.shape)),
                          start=64.0)

    def one_sigma(sigma: float, cut: CutoffSpec) -> Tuple[complex, float]:
        ry = min(f_rad, cut.radius(sigma))
        # theta decay: amplitude envelope (over a few y slices) times cutoff
        rt0 = cut.radius(sigma)
        ys = np.linspace(-ry, ry, 9)

        def envelope(r):
            env = np.zeros_like(r)
            for yv_ in ys:
                env = np.maximum(env, np.abs(np.broadcast_to(
                    aenv_fn(np.full_like(r, yv_), r), r.shape)))
            return env * np.abs(cut(r[:, None] / sigma))
        rt = _decay_radius(envelope, start=rt0)

        pts = np.stack([np.full(441, xv),
                        np.repeat(np.linspace(-ry, ry, 21), 21),
                        np.tile(np.linspace(-rt, rt, 21), 21)], axis=-1)
        freq_y = float(np.max(np.abs(phi.grad_y(pts)))) + 0.0
        freq_t = float(np.max(np.abs(phi.grad_theta(pts))))
        y_ax = _axis(ry, max(freq_y, rt), 12.0)
        t_ax = _axis(rt, freq_t, 12.0)

        def integrand(Y, T):
            vals = np.asarray(core_fn(Y, T), dtype=complex)
            return vals * cut.at_r2((xv / sigma) ** 2 + (Y / sigma) ** 2
                                    + (T / sigma) ** 2)

        separable = theta_fn is not None and cut.kind is CutoffKind.GAUSSIAN
        if separable:
            val = _separable_quadrature(theta_fn, f_fn, xv, sigma, y_ax, t_ax)
        else:
            val = _tiled_quadrature(integrand, y_ax, t_ax)
        quadrature.append({"sigma": sigma, "cutoff": cut.kind.value,
                           "ny": len(y_ax), "nt": len(t_ax),
                           "route": "separable" if separable else "tensor"})
        return val / (2.0 * np.pi), rt

    values = []
    rt_final = 0.0
    for sigma in schedule:
        v, rt_final = one_sigma(sigma, cutoff)
        values.append(v)

    limit = _aitken(values)
    residuals = [(s, float(abs(v - limit))) for s, v in zip(schedule, values)]
    tail = [r for _, r in residuals[-3:]]
    noise_floor = 1e-12 * max(abs(limit), 1.0)
    if len(tail) == 3 and not (tail[0] >= tail[1] >= tail[2]) \
            and any(r > noise_floor for r in tail):
        raise ConvergenceError(
            f"sigma residuals not decreasing: {residuals}",
            OscIntegralResult(value=np.nan + 0j, sigma_residuals=residuals,
                              quadrature=quadrature))

    gap = None
    if compute_gap:
        other = CutoffSpec(CutoffKind.SMOOTH_BUMP
                           if cutoff.kind is CutoffKind.GAUSSIAN
                           else CutoffKind.GAUSSIAN)
        v_other, _ = one_sigma(schedule[-1], other)
        gap = float(abs(v_other - values[-1]))

    return OscIntegralResult(value=complex(limit), sigma_residuals=residuals,
                             cutoff_gap=gap, ibp_order=0,
                             truncation_radius=float(rt_final),
                             quadrature=quadrature)


def _aitken(values: Sequence[complex]) -> complex:
    if len(values) < 3:
        return values[-1]
    v0, v1, v2 = values[-3:]
    d1, d2 = v1 - v0, v2 - v1
    den = d2 - d1
    if abs(den) < 1e-14 * max(abs(d1), abs(d2), 1e-300):
        return v2
    return v2 - d2 * d2 / den


#: points per block of the jet evaluation.  A block's largest array, the 110
#: coefficient pairs of a k = 4 transpose step, then takes 1.8 MB, about one
#: core's L2 cache; blocks of 512 and 1024 points ran criterion 3 slower.
_JET_CHUNK = 2048


@functools.lru_cache(maxsize=8)
def _ibp_callables(u, phi_yt, yv, tv, xv: float, eps0: float, k: int):
    """Lambdified u, phi and the omega-partition ratio, and for k > 0 the
    k-fold term (tL)^k[(1-omega)u] as a function of (Y, T, with_omega).

    With h = grad phi / D real, tL w = i (d_y(h_y w) + d_t(h_t w)), so the
    term is i^k T^k[(1-omega)u] with T w = d_y(h_y w) + d_t(h_t w).  It is
    evaluated on Taylor jets of order k: sympy differentiates only u, h_y,
    h_t and omega, each up to order k, and every T costs one order of the
    jet.  with_omega=False drops omega, which vanishes with all its
    derivatives where the ratio is >= 2.

    None of them depends on the truncation radius, so calls that differ
    only in R share one symbolic build.
    """
    denom, h_y, h_t = _ibp_coefficients(phi_yt, yv, tv)
    lam2 = 1 + sp.Float(xv) ** 2 + yv ** 2 + tv ** 2
    t_ratio = denom / (eps0 * lam2)

    u_fn = sp.lambdify((yv, tv), u, modules="numpy", cse=True)
    phase_fn = sp.lambdify((yv, tv), phi_yt, modules="numpy", cse=True)
    ratio_fn = sp.lambdify((yv, tv), t_ratio, modules="numpy", cse=True)
    if k == 0:
        return u_fn, phase_fn, ratio_fn, None

    u_jet = jets.lambdify((yv, tv), jets.derivatives(u, yv, tv, k))
    h_jet = jets.lambdify((yv, tv), [
        d for pair in zip(jets.derivatives(h_y, yv, tv, k),
                          jets.derivatives(h_t, yv, tv, k)) for d in pair])
    omega_jet = jets.lambdify(
        (yv, tv), jets.derivatives(_chi_atom(0)(t_ratio), yv, tv, k),
        modules=[_chi_modules(k), "numpy"])
    rotation = 1j ** k

    def kfold(Y, T, with_omega: bool) -> np.ndarray:
        out = np.empty(Y.shape, dtype=complex)
        for start in range(0, Y.size, _JET_CHUNK):
            y, t = Y[start:start + _JET_CHUNK], T[start:start + _JET_CHUNK]
            w = jets.evaluate(u_jet, y, t, k)
            if with_omega:
                one_minus = -jets.evaluate(omega_jet, y, t, k)
                one_minus[0] += 1.0
                w = jets.multiply(one_minus, w, k)
            w = jets.divergence_power(jets.evaluate(h_jet, y, t, k), w, k)
            out[start:start + _JET_CHUNK] = rotation * jets.as_complex(w)
        return out
    return u_fn, phase_fn, ratio_fn, kfold


def fio_apply_ibp(a, phi: PhaseField, f, x: float, k: int,
                  R: float) -> OscIntegralResult:
    """Truncated-box evaluation with the k-fold transposed operator applied
    to the far-from-critical part of the integrand.

    value = integral over [-R, R]^2 of
        e^{i phi} * (omega * a * f  +  (tL)^k[(1 - omega) * a * f])
    which for every k equals the oscillatory integral up to truncation and
    quadrature error; larger k buys faster decay of the truncated tail.
    The k-fold term is evaluated on Taylor jets of order k (see
    `_ibp_callables`), in three regions of the partition ratio
    r = D / (eps0 lambda^2): it vanishes where r <= 1 (omega = 1); where
    r >= 2, omega and all its derivatives vanish, so it is (tL)^k u; omega's
    jet with its chi-derivatives is evaluated only on the annulus 1 < r < 2
    (and at any NaN r, so that a non-finite value is still caught).
    The partition threshold eps0 is `choose_eps0(phi, x)`.
    `tail_mass` reports the absolute integrand mass on the outer half-shell,
    the quantity whose decay order improves with k.
    """
    _require_1d(phi)
    k = int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    xv = float(x)
    eps0 = choose_eps0(phi, xv)
    yv, tv = phi.yvars[0], phi.tvars[0]
    phi_yt = phi.expr.subs(phi.xvars[0], xv)
    a_yt = as_expr(a, phi.variables).subs(phi.xvars[0], xv)
    f_expr = as_expr(f, (yv,))
    u_fn, phase_fn, ratio_fn, kfold = _ibp_callables(
        a_yt * f_expr, phi_yt, yv, tv, xv, float(eps0), k)
    margin = 64.0

    def integrand_values(Y, T):
        """omega*u + (tL)^k[(1-omega)*u], without the e^{i phi} factor,
        with the k-fold term evaluated by region of the ratio."""
        with np.errstate(all="ignore"):
            ratio = np.broadcast_to(
                np.asarray(ratio_fn(Y, T), dtype=float), Y.shape)
            u = np.asarray(u_fn(Y, T), dtype=complex)
            vals = np.where(ratio < 2.0, chi(ratio), 0.0) * u
            if k == 0:
                vals = vals + np.where(ratio <= 1.0, 0.0,
                                       1.0 - chi(ratio)) * u
            else:
                far = np.zeros(Y.shape, dtype=complex)
                outer = ratio >= 2.0
                annulus = ~(outer | (ratio <= 1.0))
                for m, with_omega in ((outer, False), (annulus, True)):
                    if np.any(m):
                        far[m] = kfold(Y[m], T[m], with_omega)
                vals = vals + far
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("non-finite integrand away from the guard")
        return vals

    def phase_factor(Y, T):
        return np.exp(1j * np.asarray(phase_fn(Y, T), dtype=float))

    # The chi-transition annulus (1 < ratio < 2) carries very large
    # chi-derivatives after k transposes.  Split the integral with a smooth
    # radial partition psi: the small psi-zone gets a dedicated fine grid,
    # the smooth remainder the frequency-matched coarse grid.
    probe = np.linspace(0.0, R, 4096)
    rays = [(1.0, 0.0), (0.0, 1.0), (0.7071, 0.7071), (0.7071, -0.7071)]
    with np.errstate(all="ignore"):
        ray_ratio = np.min([np.asarray(
            ratio_fn(cy * probe, ct * probe), dtype=float)
            for cy, ct in rays], axis=0)
    inside = np.nonzero(ray_ratio < 2.0)[0]
    s0 = float(probe[inside[-1]]) * 1.05 + 0.1 if len(inside) else 1.0
    local_radius = float(np.sqrt(2.0) * s0)  # psi support edge
    use_split = k > 0 and local_radius < R

    def psi(Y, T):
        return chi((Y * Y + T * T) / (s0 * s0))

    pts = np.stack([np.full(441, xv),
                    np.repeat(np.linspace(-R, R, 21), 21),
                    np.tile(np.linspace(-R, R, 21), 21)], axis=-1)
    freq_y = float(np.max(np.abs(phi.grad_y(pts))))
    freq_t = float(np.max(np.abs(phi.grad_theta(pts))))
    y_ax = _axis(R, freq_y, margin)
    t_ax = _axis(R, freq_t, margin)

    tail_acc = [0.0]
    hy = y_ax[1] - y_ax[0]
    ht = t_ax[1] - t_ax[0]

    def coarse_integrand(Y, T):
        vals = integrand_values(Y, T)
        shell = np.maximum(np.abs(Y), np.abs(T)) >= R / 2.0
        tail_acc[0] += float(np.sum(np.abs(vals[shell]))) * hy * ht
        if use_split:
            vals = vals * (1.0 - psi(Y, T))
        return vals * phase_factor(Y, T)

    val = _tiled_quadrature(coarse_integrand, y_ax, t_ax)

    if use_split:
        h_loc = min(float(np.sqrt(eps0)) / 128.0,
                    2.0 * np.pi / (max(freq_y, freq_t) + margin))
        npts = int(np.ceil(2.0 * local_radius / h_loc)) + 1
        loc_ax = np.linspace(-local_radius, local_radius, min(npts, 4096))

        def local_integrand(Y, T):
            return integrand_values(Y, T) * psi(Y, T) * phase_factor(Y, T)

        val = val + _tiled_quadrature(local_integrand, loc_ax, loc_ax)

    val = val / (2.0 * np.pi)
    return OscIntegralResult(value=complex(val), ibp_order=k,
                             truncation_radius=float(R),
                             tail_mass=tail_acc[0] / (2.0 * np.pi))
