"""Oscillatory integrals: cutoff regularization and integration by parts.

Two routes to the same value of the oscillatory integral applied to a test
function:

* `regularized_fio_apply` multiplies the amplitude by a scaled cutoff
  g(./sigma) with g(0) = 1 and follows the values along an increasing sigma
  schedule; the limit must not depend on the cutoff shape.  Each quadrature
  sums one tensor-trapezoid grid by one of two routes:

  - special: when the phase is special (phi = S(x, theta) - y theta,
    i.e. d phi/dy = -theta) and the amplitude does not depend on y, each
    term is e^{i S(theta)} a(theta) f(y) e^{-i y theta} times the cutoff.
    On a theta column where the cutoff is g_y(y) g_t(theta), the column is
    w_theta g_t e^{i S} a times a Fourier sum over y of w_y f g_y: the same
    terms, added in another order.  The Gaussian factors so on every
    column (record route "separable"); the radial bump only where it is
    exactly 1.0 at every y, a column where it is exactly 0.0 adds nothing,
    and the transition columns between are summed point by point (route
    "split").  A column vanishes wherever a times the y-sum F of f g does,
    whatever sigma is, so each pass sums the theta range where
    envelope |F| lives, read from one FFT of F's terms over the period
    of the cutoff grid's y axis (`_spectral_radius`), with a y step that
    keeps F's aliases off that range: the bench's sigma = 256 pass (x = 1,
    f Gaussian) sums 94 x 69 points, not the 6191 x 8192 of the cutoff's
    range, 8 sigma.  A pass whose |F| does not decay inside that period
    (an f that is not smooth, or that is cut at |y| = 64) keeps the
    cutoff's range and grid.  The Fourier sums are complex GEMMs whose
    exponential tables are outer products of short ones, each exponential
    exact to first order in the rounding of its phase and of the split of
    its node (`_exp_table`): a `regularized` pass of the bench (x = 1,
    sigma up to 256) evaluates 1.44 k complex exponentials instead of
    6.77 k (`_fourier_sum`, which also lands F exactly on each theta node;
    61.8 k on the cutoff's ranges); a transition column is a row of
    `_exp_table` times the bump.
    When sympy proves phi(y, -theta) = -conj phi(y, theta) and
    a(-theta) f(y) = conj(a(theta) f(y)) at the point x
    (`conjugate_mirror`; S = x theta at any x with a real f, for one), the
    term at (y, -theta) is the conjugate of the term at (y, theta), since
    the cutoff and the trapezoid weights are even in theta, and so is the
    column at -theta of the column at theta.  Every pass, Gaussian or
    bump, then sums its columns theta >= 0 only, each theta > 0 counted
    twice, and the value is the real part (record "theta_mirror"): half
    the Fourier-sum rows, and half the transition columns and so half the
    cutoff evaluations.
  - tensor: every other case (a y-dependent amplitude, a non-special
    phase) is summed on the tensor grid, which is also the reference the
    tests compare the special route against.

* `fio_apply_ibp` splits the domain with the smooth partition omega (built
  from the ratio (|grad_y phi|^2 + |grad_theta phi|^2) / lambda^2), treats
  the near-critical part by direct quadrature, and applies the k-th power of
  the transpose of the first-order operator L (with L e^{i phi} = e^{i phi})
  to the rest.  The iterated transpose is evaluated on Taylor jets in
  (y, theta) (`jets`), each a list of rows that are arrays over the points
  or Python numbers: sympy differentiates only the amplitude, the two
  components of grad phi and lambda^2, each up to order k, and a
  derivative it finds constant is a number row, multiplied as a scalar
  (skipped where it is 0) by the one jet kernel.  The jets of L's
  coefficients and of the partition ratio are Taylor arithmetic on those,
  a quotient by z = d_y phi - i d_theta phi (`_coefficient_jets`); omega's
  jet is composed from the bump's Taylor coefficients and the ratio's
  jet, and every transpose is exact jet arithmetic, never nested
  numerical differentiation.
  `IBPOperator.apply_transpose` keeps the symbolic product-rule expansion
  as the reference the tests compare against.  The k-fold term is
  evaluated by region of the partition ratio: it is 0 where the ratio is
  <= 1, the omega-free (tL)^k u where it is >= 2 (omega vanishes
  identically there), and only on the annulus between needs omega's jet.
  The local grid around the critical set evaluates the integrand only on
  the support of its radial weight psi.  Its sum does not read R, so it is
  kept for the process (`_local_sum`): criterion 3's calls at R = 12 and
  R = 24, which share s0 and the grid, sum it once.  Where the k-fold term
  reads u's own jet, sympy's identically-zero derivatives of u (every
  theta derivative of a theta-free u) are number-0 rows, which every
  transpose skips.
  When sympy proves phi(y, -theta) = -conj phi(y, theta) and
  u(y, -theta) = conj u(y, theta) at the point x (`conjugate_mirror`;
  S = x theta at any x with a real f, for one), the whole integrand is
  conjugate-symmetric in theta: h_y = d_y phi / D is odd in theta and
  h_t = d_theta phi / D even, so T w = d_y(h_y w) + d_theta(h_t w) has
  (T w)(y, -theta) = -(T v)(y, theta) for v(y, theta) = w(y, -theta), and
  tL = i T maps conjugate-symmetric functions to conjugate-symmetric ones
  (T has real coefficients), while the partition ratio, omega, psi and the
  tail shell are even in theta.  Both grids are then summed over their
  nodes theta >= 0 only, each theta > 0 counted twice, and the value is
  the real part (`_tiled_quadrature`): half the integrand points.

Quadrature is tensor-trapezoid with grid spacing chosen from the sampled
phase gradients (Nyquist plus a smoothness margin, `_grid`), which gives
super-algebraic accuracy for smooth integrands that decay inside the box.
Every tensor grid (the tensor route, and both grids of `fio_apply_ibp`) is
evaluated by `_tiled_quadrature`, whose tiles of 256 theta columns are
dealt round-robin to the calling process and to `os.fork()`ed children, one
process per allowed CPU (`shares`); the tile sums are added in tile order,
so the results are bit-identical to one process.  A tile is evaluated in
blocks of `_BLOCK_ROWS` y rows into one array of its values, so a process
holds one tile's values plus the integrand's temporaries on one row block:
the off-origin call x = 0.7, k = 2, R = 24 (a 4096-point local y axis and
its 2048 local theta columns >= 0), alone in a fresh process on 2 CPUs,
peaks at about 92 MB RSS in the caller and 82 MB in its child, as on the
whole grid.  Every integrand is pointwise, so the sums are those of whole
tiles, bit for bit.
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

from . import jets, shares
from .expressions import evaluate, lambdify
from .phases import PhaseField, conjugate_mirror
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
    b_left, b_right = t - 1.0, 2.0 - t
    for b in (b_left, b_right):  # B_L = e^{-1/(t-1)}, B_R = e^{-1/(2-t)}
        np.divide(-1.0, b, out=b)
        np.exp(b, out=b)
    total = b_left + b_right
    if order == 0:
        return [np.divide(b_right, total, out=total)]
    s = [b_right / total]
    s_bar = [b_left / total]
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


#: transition points per block of `_chi_coefficients`.  On a 1570 x 256
#: tile of the bump's transition columns (2 cores, min of 30 calls),
#: the smooth bump's `CutoffSpec.at_r2` took 24-32 ns a point at 16384,
#: against 37-42 ns with the whole tile in one block.
_CHI_BLOCK = 16384


def _chi_coefficients(t, order: int) -> np.ndarray:
    """Taylor coefficients s_m = chi^(m)(t)/m!, m = 0..order, at points
    t >= 0 (chi is even; callers pass the even argument), shape
    (order + 1,) + t.shape.

    By region: 1, 0, 0, ... where t <= 1; all 0 where t >= 2 or t is NaN;
    `_chi_taylor` on the transition 1 < t < 2, in blocks so that its
    temporaries stay in cache.  There s_0 = B_R/(B_L + B_R) is finite (at
    most one of B_L and B_R underflows), and a higher coefficient that
    over- or underflows to a non-finite value next to t = 1 or t = 2 is 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((order + 1,) + t.shape)
    out[0][t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        values = t[mid]
        higher = np.empty((order, values.size))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            for start in range(0, values.size, _CHI_BLOCK):
                block = slice(start, start + _CHI_BLOCK)
                taylor = _chi_taylor(values[block], order)
                values[block] = taylor[0]  # s_0 replaces the points it used
                for row, coefficient in zip(higher[:, block], taylor[1:]):
                    row[...] = coefficient
        out[0][mid] = values
        for row, coefficient in zip(out[1:], higher):
            row[mid] = np.nan_to_num(coefficient, copy=False, nan=0.0,
                                     posinf=0.0, neginf=0.0)
    return out


def chi_derivative(t, m: int = 0) -> np.ndarray:
    """chi^(m)(t) for t >= 0: m! times the m-th coefficient of
    `_chi_coefficients`, exact Taylor arithmetic, with chi^(0) computed by
    the transition profile's own formula."""
    t = np.asarray(t, dtype=float)
    out = _chi_coefficients(np.atleast_1d(t), m)[m]
    if m:
        out *= math.factorial(m)
    return out[0] if t.ndim == 0 else out


def chi(t) -> np.ndarray:
    """The fixed module bump: 1 on [-1,1], smooth and monotone on [1,2], 0 beyond."""
    return chi_derivative(np.abs(np.asarray(t, dtype=float)), 0)


def chi_expr(t: sp.Expr) -> sp.Expr:
    """Symbolic piecewise form of the bump (for inspection, not iteration)."""
    return sp.Piecewise((1, t <= 1), (0, t >= 2),
                        (_CHI_TRANSITION.subs(_T, t), True))


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
        return chi_derivative(np.sqrt(r2))

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
    #: the theta radius of the last sigma pass of the schedule (the box
    #: radius R for `fio_apply_ibp`): where the a-envelope times the cutoff
    #: falls below 1e-14, or on a special-route pass that reads it, where
    #: the a-envelope times |F| does, F the y-sum of f g
    truncation_radius: float = 0.0
    tail_mass: Optional[float] = None
    #: one record per regularized quadrature, in the order they ran (the
    #: sigma schedule, then the cutoff-gap pass): sigma, cutoff kind, grid
    #: sizes ny x nt, whether the point cap on an axis widened its step
    #: ("capped") and the route that summed it: "tensor", or on the
    #: special route "separable" (Gaussian cutoff, every column factored)
    #: or "split" (smooth bump), whose record also counts its theta columns
    #: by class under "columns": "separable", "transition" and "zero"; a
    #: special-route record says under "theta_mirror" whether the pass was
    #: summed over theta >= 0 only.  ny, nt and the column counts are those
    #: of the whole grid either way, a folded column theta > 0 counted twice.
    #: On the special route nt spans the theta range where |a F| lives when
    #: the pass reads it, so f Gaussian gives "separable" bump columns only
    quadrature: List[dict] = field(default_factory=list)
    #: the choices `fio_apply_ibp` made for the caller: the partition
    #: threshold "eps0", psi's radius "s0" and support edge "local_radius"
    #: (sqrt(2) s0), "psi_split" (k > 0), whether both grids were summed
    #: over theta >= 0 only ("theta_mirror"), whether the point cap widened a
    #: step of the coarse grid ("coarse_cap_hit"), and for the local grid
    #: the step asked for ("local_step_asked"), the step of the grid used
    #: ("local_step") and whether the point cap widened it
    #: ("local_cap_hit"); the three local entries are None without a split
    decisions: dict = field(default_factory=dict)


def _require_1d(phi: PhaseField):
    if phi.n != 1 or phi.N != 1:
        raise NotImplementedError("oscillatory quadrature supports n = N = 1")


def _at_point(a, phi: PhaseField, f, x: float):
    """(x, phi and a restricted to the point x, f over y), the setup of both
    routes.  A phase with n or N other than 1 raises NotImplementedError,
    an x that is not finite ValueError."""
    _require_1d(phi)
    xv = float(x)
    if not math.isfinite(xv):
        raise ValueError(f"x must be finite: {xv}")
    return (xv, phi.expr.subs(phi.xvars[0], xv),
            as_expr(a, phi.variables).subs(phi.xvars[0], xv),
            as_expr(f, phi.yvars))


def _grad_norm2(phi: PhaseField, points) -> np.ndarray:
    """|grad_y phi|^2 + |grad_theta phi|^2 at the points (..., 3)."""
    gy, gt = phi.grad_y(points), phi.grad_theta(points)
    return np.sum(gy * gy, axis=-1) + np.sum(gt * gt, axis=-1)


def omega_partition(phi: PhaseField, eps: float, points) -> np.ndarray:
    """The partition value chi((|grad_y phi|^2+|grad_theta phi|^2)/(eps*lambda^2)).

    1 where the gradient quotient is <= eps, 0 where it is >= 2*eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    quot = _grad_norm2(phi, points) / (eps * bracket(points) ** 2)
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
        d = evaluate(self.denom, self.phi.variables, points).real
        # L e^{i phi} = e^{i phi} * (i gy * c_y + i gt * c_t)
        val = _grad_norm2(self.phi, points) / d
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
    d = _grad_norm2(phi, pts)
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


def _edge(r: np.ndarray, v: np.ndarray, name: str,
          var: str) -> Tuple[float, int]:
    """(radius, k) of the 1-D profile with values v at the samples
    0 = r[0] < ... < r[-1]: r[k] is the last sample where |v| is above
    1e-14 * max, and the profile is taken to stay below that rule beyond
    radius = min(r[-1], 1.05 r[k] + 1); a profile that is 0 at every sample
    gives radius 1 and k the last index.  A sample where the profile is not
    finite (f = 1/y at 0) leaves no edge to find: ValueError naming the
    profile and the sample point."""
    v = np.abs(v)
    bad = np.flatnonzero(~np.isfinite(v))
    if len(bad):
        raise ValueError(f"{name} is not finite at {var} = "
                         f"{float(r[bad[0]])!r}, so it has no decay radius")
    peak = float(np.max(v))
    if peak == 0.0:
        return 1.0, len(r) - 1
    k = int(np.nonzero(v > 1e-14 * peak)[0][-1])
    return float(min(r[-1], r[k] * 1.05 + 1.0)), k


def _decay_radius(profile: Callable[[np.ndarray], np.ndarray],
                  start: float, name: str, var: str) -> float:
    """Radius beyond which the 1-D profile stays below 1e-14 * max, the
    `_edge` of 2048 samples of [0, start].  Where that radius lands below
    the sample r[k + 1] after the edge (an edge among the first samples of
    a wide range, as for a = e^{-theta^2} under a cutoff of radius 8
    sigma), the profile between them went unseen: the edge is located
    once on the halvings r[k + 1] / 2^j, j = 0 .. 2046, and 0, and
    [0, s] is sampled linearly again, s the first halving past it."""
    r = np.linspace(0.0, start, 2048)
    while True:
        with np.errstate(all="ignore"):
            radius, k = _edge(r, profile(r), name, var)
        if k + 1 == len(r) or radius >= r[k + 1]:
            return radius
        halvings = np.r_[0.0, np.ldexp(r[k + 1], np.arange(2 - len(r), 1))]
        with np.errstate(all="ignore"):
            _, k = _edge(halvings, profile(halvings), name, var)
        r = np.linspace(0.0, halvings[min(k + 1, len(r) - 1)], len(r))


def _trapezoid_weights(npts: int, spacing: float) -> np.ndarray:
    w = np.full(npts, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


#: points per axis of a regularized quadrature's grid at most; a radius that
#: needs more widens the step (recorded as "capped")
_AXIS_CAP = 8192


def _axis(radius: float, step: float, cap: int = _AXIS_CAP):
    """(linspace of [-radius, radius] with step <= `step`, whether the cap
    on its points widened the step).  A radius so large that the point
    count is not finite raises ValueError."""
    npts = np.ceil(2.0 * radius / step) + 1.0
    if not np.isfinite(npts):
        raise ValueError(f"the axis [-{radius:g}, {radius:g}] at step "
                         f"{step:g} has no finite point count")
    return np.linspace(-radius, radius, int(min(npts, cap))), bool(npts > cap)


def _grid(phi: PhaseField, xv: float, ry: float, rt: float, margin: float,
          y_floor: float = 0.0):
    """The trapezoid axes of the box [-ry, ry] x [-rt, rt] at x, the step
    for the larger of their frequencies, and whether `_axis`'s point cap
    widened either axis's step.  An axis's step is 2 pi / (freq + margin)
    with freq the largest |d phi| in its variable on a 21 x 21 grid of the
    box (on y at least y_floor)."""
    pts = np.stack([np.full(441, xv),
                    np.repeat(np.linspace(-ry, ry, 21), 21),
                    np.tile(np.linspace(-rt, rt, 21), 21)], axis=-1)
    freq_y = float(np.max(np.abs(phi.grad_y(pts))))
    freq_t = float(np.max(np.abs(phi.grad_theta(pts))))
    y_ax, y_capped = _axis(ry, 2.0 * np.pi / (max(freq_y, y_floor) + margin))
    t_ax, t_capped = _axis(rt, 2.0 * np.pi / (freq_t + margin))
    return (y_ax, t_ax, 2.0 * np.pi / (max(freq_y, freq_t) + margin),
            y_capped or t_capped)


def _mirror_count(t) -> np.ndarray:
    """How many nodes of a mirrored theta axis the node t >= 0 stands for:
    2 where t > 0 (itself and -t), 1 at t = 0."""
    return np.where(t > 0.0, 2.0, 1.0)


def _mirror_half(t_ax, wt):
    """The nodes theta >= 0 of the linspace t_ax, each standing for its
    exact mirror -theta too, and their trapezoid weights wt times
    `_mirror_count`.  linspace can round a node theta < 0 an ulp or two
    away from the negated node theta > 0, and the middle node of an odd
    count away from 0; here that middle node is 0.0."""
    first = len(t_ax) // 2
    half = t_ax[first:].copy()
    if len(t_ax) % 2:
        half[0] = 0.0
    return half, wt[first:] * _mirror_count(half)


def _tiled_quadrature(fn, y_ax, t_ax, mirror: bool = False):
    """sum w_y w_t fn(y, t) over the tensor grid, in tiles of 256 theta
    columns.  fn(Y, T) returns the complex integrand on a block of points,
    or a pair (values, tail_terms) with a 1-D float array of tail terms;
    the result is then the pair of the sum and the tail, which is each
    tile's sum of tail terms times the cell area hy * ht, summed over the
    tiles.

    With mirror, fn is conjugate-symmetric in t, fn(y, -t) = conj fn(y, t),
    and the sum runs over the nodes t >= 0 of t_ax only (`_mirror_half`),
    each t > 0 weighted twice: the sum is the real part of that.  Its tail
    terms must carry their node's `_mirror_count` themselves.

    Each tile is evaluated in blocks of `_BLOCK_ROWS` y rows into one
    complex array of its values, so no integrand temporary is larger than
    one block.  fn must be pointwise (a value depends only on its own
    point), and a tile's tail terms are concatenated in row order before
    they are summed, so a tile's sums are those of the whole tile evaluated
    at once.  The tiles are dealt round-robin to the calling process and to
    forked children (`shares.in_shares`), and their sums are added here in
    tile order, so every sum is the one a single process gives, bit for
    bit."""
    tile = 256
    hy, ht = y_ax[1] - y_ax[0], t_ax[1] - t_ax[0]
    wy = _trapezoid_weights(len(y_ax), hy)
    wt = _trapezoid_weights(len(t_ax), ht)
    if mirror:
        t_ax, wt = _mirror_half(t_ax, wt)
    starts = range(0, len(t_ax), tile)

    def tile_sum(i):
        cols = slice(starts[i], starts[i] + tile)
        vals = np.empty((len(y_ax), len(t_ax[cols])), dtype=complex)
        tails = []
        for start in range(0, len(y_ax), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            Y, T = np.meshgrid(y_ax[rows], t_ax[cols], indexing="ij")
            out = fn(Y, T)
            if isinstance(out, tuple):
                out, tail = out
                tails.append(tail)
            vals[rows] = out
        tail = (float(np.sum(np.concatenate(tails))) * hy * ht
                if tails else None)
        part = np.einsum("i,ij,j->", wy, vals, wt[cols])
        return (part.real if mirror else part), tail

    total, tail_total, paired = 0.0 + 0.0j, 0.0, False
    for part, tail in shares.in_shares(tile_sum, len(starts)):
        total += part
        if tail is not None:
            tail_total += tail
            paired = True
    return (total, tail_total) if paired else total


def _linspace_step(ax) -> float:
    """The step of the linspace ax as linspace computes it: ax[1] - ax[0]
    carries the rounding of ax[0] (about 2e-13 at |theta| = 2000), which
    a multiple of the step and the other axis multiply into the phase."""
    return (ax[-1] - ax[0]) / max(len(ax) - 1, 1)


def _residual(x, a, b):
    """x - (a + b) exactly, for an x within an ulp or two of a + b: the
    rounding of the sum a + b (Knuth's two-sum), and then the difference
    of two numbers an ulp apart."""
    s = a + b
    late = s - a
    return (x - s) - ((a - (s - late)) + (b - late))


def _split(ax) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base, offset, delta) of the split index j = p*Q + q of the linspace
    ax, Q = ceil(sqrt(len(ax))): base = ax[::Q], offset = q times the step,
    and delta_j = ax[j] - (base_p + offset_q) exactly, an ulp or two of
    ax[j] in a sawtooth that a sum over the axis would pick up coherently
    (1e-13 of a sum over y at ny = 6191, |t| = 2000)."""
    n = len(ax)
    Q = int(np.ceil(np.sqrt(n)))
    base = ax[::Q]
    offset = np.arange(Q) * _linspace_step(ax)
    return base, offset, _residual(ax, np.repeat(base, Q)[:n],
                                   np.tile(offset, len(base))[:n])


def _exp_table(t, y_ax) -> np.ndarray:
    """E with E[k, j] = e^{-i t_k y_j} for every t_k in t and every point
    y_j of the linspace y_ax, up to a few rounding errors of a complex
    product while |t_k y_j| stays below about 1e8 (`_exp_outer`).

    E, shape (len(t), ny), is built from the split index j = p*Q + q of
    `_split`: E[k, pQ + q] = e^{-i t_k y_{pQ}} e^{-i t_k q h_y}
    (1 - i t_k delta_j), so each row is the outer product of P + Q
    exponentials, P = ceil(ny/Q), cut to ny, and (P + Q) exponentials
    replace ny.  The last factor takes the split's miss delta_j back to
    first order, up to (t_k delta_j)^2 / 2, about 1e-22 at |t y| = 2e4."""
    t = np.asarray(t, dtype=float)
    ny = len(y_ax)
    base, offset, delta = _split(y_ax)
    # 1 - i t_k delta_j, times the two exponentials, on the (k, p, q)
    # layout of j = p*Q + q
    table = np.empty((len(t), len(base), len(offset)), dtype=complex)
    table.real = 1.0
    np.multiply.outer(-t, np.pad(delta, (0, table[0].size - ny)).reshape(
        table.shape[1:]), out=table.imag)
    table *= _exp_outer(t, base)[:, :, None]
    table *= _exp_outer(t, offset)[:, None, :]
    return table.reshape(len(t), -1)[:, :ny]


def _exp_outer(t, y) -> np.ndarray:
    """e^{-i t_k y_j} for every pair, with the rounding of the product
    t_k y_j (up to half an ulp of it, 3.6e-12 at |t y| = 6e4) taken back to
    first order: the exact error of the product (Dekker's two-product, on
    Veltkamp's split of each factor) rides as the factor 1 - i error, and
    what is left, error^2 / 2, is below an ulp of 1 while |t y| < 1e8.
    Left in the phases, that rounding put `_fourier_sum` 2e-13 of
    sum |c_j| off at the flat c described there."""
    t, y = np.asarray(t, dtype=float)[:, None], np.asarray(y, dtype=float)
    phase = t * y
    t_hi, t_lo = _veltkamp(t)
    y_hi, y_lo = _veltkamp(y)
    error = (((t_hi * y_hi - phase) + t_hi * y_lo) + t_lo * y_hi) + t_lo * y_lo
    return np.exp(-1j * phase) * (1.0 - 1j * error)


def _veltkamp(a):
    """(hi, lo) with a = hi + lo exactly, each of at most 26 significant
    bits, so that the product of two parts is exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _fourier_sum(c, y_ax, t_ax) -> np.ndarray:
    """F_k = sum_j c_j e^{-i y_j t_k} at every point t_k of the linspace
    axis t_ax, as a complex GEMM over the split index k = a*B + b of
    `_split`: e^{-i y t'_k} = e^{-i y t_{aB}} e^{-i y b h}.  Its two
    tables come from `_exp_table`, which splits y the same way, so
    (nt/B + B)(ny/Q + Q) exponentials build them instead of (nt/B + B) ny:
    28.8 k instead of 1.13 M at nt = 8192, ny = 6191.  The split misses
    t_k by the delta epsilon_k of `_split`, so a second GEMM, with the head
    rows scaled by y, adds F's first-order term
    -i epsilon_k sum_j c_j y_j e^{-i y_j t'_k}: F is then that of t_k.  F
    at t'_k is up to 1.5e-12 of sum |c_j| off at a flat c (|y| <= 30,
    ny = 6191, |t| <= 2000, nt = 8192), next to t = 2 pi m / h_y, where
    every term has the same phase and the offsets add up coherently."""
    nt = len(t_ax)
    t_base, t_offset, epsilon = _split(t_ax)
    head = _exp_table(t_base, y_ax)
    step = _exp_table(t_offset, y_ax).T
    head *= c
    plain = (head @ step).ravel()[:nt]
    head *= y_ax
    return plain - 1j * epsilon * (head @ step).ravel()[:nt]


def _bump_columns(cut: CutoffSpec, x2, sigma: float, y_ax, t_ax):
    """Masks (ones, zeros) of the theta columns on which the cutoff
    g(|(x, y, t)|/sigma), computed by the tensor integrand's own expression,
    is exactly 1.0, resp. exactly 0.0, at every y of y_ax.  The squared
    radius grows with |y| in rounded arithmetic too, and g does not grow
    with it, so testing the largest |y| (for 1) and the smallest (for 0)
    decides the whole column."""
    absy = np.abs(y_ax)

    def at(y):
        return cut.at_r2(x2 + (np.full(t_ax.shape, y) / sigma) ** 2
                         + (t_ax / sigma) ** 2)
    return at(np.max(absy)) == 1.0, at(np.min(absy)) == 0.0


def _special_quadrature(theta_fn, f_fn, x2, sigma: float, cut: CutoffSpec,
                        y_ax, t_ax, mirror: bool = False):
    """The tensor-trapezoid sum of e^{i S(t)} a(t) f(y) e^{-i y t}
    g(|(x, y, t)|/sigma) over y_ax x t_ax, theta_fn(t) = e^{i S(t)} a(t),
    by theta column.  The Gaussian g is g_y(y) g_t(t) on every column, and
    a column is w_t theta_fn(t) g_t(t) times the `_fourier_sum` of
    w_y f(y) g_y(y).  The bump's columns are classed by `_bump_columns`: an
    all-1 column is w_t theta_fn(t) times the `_fourier_sum` of w_y f(y), an
    all-0 column adds nothing, and a transition column is the sum over y of
    its row of `_exp_table` times g and w_y f.  Returns the sum and the
    record's fields, which say under "theta_mirror" whether the sum was
    folded, and for the bump count its columns by class.

    With mirror, the term is conjugate-symmetric in t (the column at -t is
    the conjugate of the column at t), and the sum runs over the columns
    t >= 0 of t_ax only (`_mirror_half`), each t > 0 weighted twice: the
    sum is the real part of that.  The record still counts the columns of
    the whole axis, a column t > 0 as two."""
    wy = _trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0])
    wt = _trapezoid_weights(len(t_ax), t_ax[1] - t_ax[0])
    if mirror:
        t_ax, wt = _mirror_half(t_ax, wt)
    c = wy * np.broadcast_to(f_fn(y_ax), y_ax.shape)
    w_theta = wt * np.broadcast_to(theta_fn(t_ax), t_ax.shape)
    total = 0j
    if cut.kind is CutoffKind.GAUSSIAN:
        g_t = np.exp(-(x2 + (t_ax / sigma) ** 2) / 2.0)
        total += np.sum(w_theta * g_t * _fourier_sum(
            c * np.exp(-(y_ax / sigma) ** 2 / 2.0), y_ax, t_ax))
        entries = {"route": "separable"}
    else:
        ones, zeros = _bump_columns(cut, x2, sigma, y_ax, t_ax)
        count = np.broadcast_to(_mirror_count(t_ax) if mirror else 1,
                                t_ax.shape)
        columns = {"separable": int(np.sum(count[ones])),
                   "zero": int(np.sum(count[zeros]))}
        columns["transition"] = (int(np.sum(count)) - columns["separable"]
                                 - columns["zero"])
        entries = {"columns": columns, "route": "split"}
        if np.any(ones):
            # the all-1 columns are those with |t| below a bound: one run of
            # the axis
            first, last = np.flatnonzero(ones)[[0, -1]]
            hull = slice(first, last + 1)
            total += np.sum(w_theta[hull] * _fourier_sum(c, y_ax, t_ax[hull]))
        transition = np.flatnonzero(~(ones | zeros))
        for start in range(0, len(transition), 128):
            cols = transition[start:start + 128]
            table = _exp_table(t_ax[cols], y_ax)
            table *= cut.at_r2(x2 + (y_ax / sigma) ** 2
                               + (t_ax[cols, None] / sigma) ** 2)
            total += np.sum(w_theta[cols] * (table @ c))
    entries["theta_mirror"] = mirror
    return complex(total.real if mirror else total), entries


def _spectral_radius(f_fn, envelope, x2, sigma: float, cut: CutoffSpec,
                     ry: float, rt: float, margin: float):
    """(R, R_F): where the special route's theta-integrand lives, R, and
    where its y-sum lives, R_F, read from f rather than from the cutoff; or
    None where they cannot be read, and the cutoff's radius rt stands.

    A theta column of the special route is w_t e^{i S} a g_t times the
    y-sum F(t) = sum_j w_j f(y_j) g(x, y_j, 0) e^{-i y_j t} (exactly for the
    Gaussian, on the all-1 columns for the bump), a trapezoid Fourier
    transform of f g: the integrand lives where envelope(t) |F(t)| does
    (envelope = max |a| times g_t, as for rt), however far g reaches.  F
    is summed on the y axis of the cutoff's own grid (step
    2 pi / (rt + margin), at most `_AXIS_CAP` points), so it sees every
    frequency of f g that grid sees.  On that axis F is periodic, with
    period P = 2 pi / h_y, and |F| over the whole period, at steps of
    P / (2 ny), is the modulus of one zero-padded FFT of the y-sum's terms:
    content of f g beyond P / 2, which that grid aliases too, shows up
    somewhere in the period, so no part of the period can hide it.  R_F
    and R are `_edge`'s rule on |F| and on envelope |F|, both
    signs of t.

    None where |F| does not fall below the rule inside the period (an f
    that is not smooth, or cut at 64 like 1/(1+y^2)), where R does not
    fall below rt, or where the terms or |F| are not finite (the pass then
    raises)."""
    # the y axis `_axis(ry, 2 pi / (rt + margin))` gives, but built here:
    # at sigma = 1e307 its point count is infinite, which `_axis` rejects
    # and this caps at `_AXIS_CAP`, so the probe still reads R there
    count = np.ceil(2.0 * ry / (2.0 * np.pi / (rt + margin))) + 1.0
    y_ax = np.linspace(-ry, ry, int(min(count, _AXIS_CAP)))
    h = _linspace_step(y_ax)
    c = (_trapezoid_weights(len(y_ax), h)
         * np.broadcast_to(f_fn(y_ax), y_ax.shape)
         * cut.at_r2(x2 + (y_ax / sigma) ** 2))
    # |F| at t_k = k P / n for k = 0..n/2 and at -t_k, n = 2 ny; a term
    # that is not finite leaves none of them finite
    n = 2 * len(y_ax)
    spectrum = np.abs(np.fft.fft(c, n))
    if not np.all(np.isfinite(spectrum)):
        return None
    at_plus = spectrum[:n // 2 + 1]
    at_minus = np.roll(spectrum[::-1], 1)[:n // 2 + 1]
    t = np.linspace(0.0, np.pi / h, len(at_plus))  # the t_k of [0, P/2]
    radius_f, _ = _edge(t, np.maximum(at_plus, at_minus), "F", "theta")
    if radius_f >= t[-1]:
        return None
    try:
        radius, _ = _edge(t, np.maximum(envelope(t) * at_plus,
                                        envelope(-t) * at_minus),
                          "the a-envelope times |F|", "theta")
    except ValueError:  # the envelope is not finite at some -t
        return None
    return (radius, radius_f) if radius < rt else None


def regularized_fio_apply(a, phi: PhaseField, f, x: float,
                          schedule: Sequence[float] = (4, 8, 16, 32, 64),
                          cutoff: CutoffSpec = CutoffSpec(CutoffKind.GAUSSIAN),
                          compute_gap: bool = True) -> OscIntegralResult:
    """Cutoff-regularized oscillatory integral along an increasing sigma
    schedule, with extrapolated limit and cutoff-independence diagnostics.

    A quadrature takes the special route (see the module docstring) when
    the phase is special (phi = S(x, theta) - y theta) and a does not
    depend on y, and the tensor route otherwise; both sum the same
    trapezoid grid, recorded in `OscIntegralResult.quadrature`.
    A grid spans y over the decay radius of f (at most 64) and of the
    cutoff, and theta over the decay radius of the a-envelope times the
    cutoff, 8 sigma for a = 1 and the Gaussian.  On the special route a
    pass sums instead the theta range where the a-envelope times |F|, F
    the y-sum of f g, falls below the same 1e-14 rule, with a y step whose
    aliases of F stay off that range (`_spectral_radius`): a range that
    stops growing with sigma once the cutoff is wider than |a F|, so
    sigma = 1e307 on f Gaussian at x = 0 sums 94 x 66 points.  A pass
    whose |F| does not fall below the rule (an f that is not smooth, or
    that is cut at 64) keeps the cutoff's range and grid, bit for bit;
    there a grid whose point count is not finite (sigma = 1e307 on
    f = 1/(1+y^2)) raises ValueError naming sigma.
    On the special route, when sympy proves phi(y, -theta) =
    -conj phi(y, theta) and a(-theta) f(y) = conj(a(theta) f(y)) at x
    (`conjugate_mirror`), every pass sums the columns theta >= 0 only,
    taken as exact mirrors of the columns theta < 0, each theta > 0 counted
    twice, and its value is the real part of that sum (record
    "theta_mirror").  This halves the Fourier-sum rows and the bump's
    transition columns, and moves each value by rounding only.  A call
    whose proof fails, or that sympy cannot decide, sums the whole axis.
    A quadrature whose value is not finite (an f or a that is not finite
    on the grid), an x that is not finite, and a schedule whose last sigma
    gives a cutoff of the call (the gap pass's included) a radius that is
    not finite raise ValueError."""
    schedule = [float(s) for s in schedule]
    if not schedule or not math.isfinite(schedule[-1]) or not all(
            s1 < s2 for s1, s2 in zip([0.0] + schedule, schedule)):
        raise ValueError(f"schedule must be non-empty, positive, finite "
                         f"and increasing: {schedule}")
    other = CutoffSpec(CutoffKind.SMOOTH_BUMP
                       if cutoff.kind is CutoffKind.GAUSSIAN
                       else CutoffKind.GAUSSIAN)
    for cut in (cutoff, other) if compute_gap else (cutoff,):
        # the radius grows with sigma: the last one is the largest
        if not math.isfinite(cut.radius(schedule[-1])):
            raise ValueError(f"schedule: sigma = {schedule[-1]!r} gives the "
                             f"{cut.kind.value} cutoff a radius that is not "
                             f"finite")
    xv, phi_yt, a_yt, f_expr = _at_point(a, phi, f, x)
    yv, tv = phi.yvars[0], phi.tvars[0]

    f_fn = lambdify(yv, f_expr)
    aenv_fn = lambdify((yv, tv), sp.Abs(a_yt))
    # S(theta) = phi + y theta; y-free exactly when d phi / dy = -theta
    s_t = sp.expand(phi_yt + yv * tv)
    theta_fn = core_fn = None
    mirror = False
    if yv not in s_t.free_symbols | a_yt.free_symbols:
        theta_fn = lambdify(tv, sp.exp(sp.I * s_t) * a_yt)
        mirror = conjugate_mirror(phi_yt, a_yt * f_expr, tv)
    else:  # the tensor route's integrand
        core_fn = lambdify((yv, tv), sp.exp(sp.I * phi_yt) * a_yt * f_expr)
    quadrature = []

    f_rad = _decay_radius(lambda r: np.abs(np.broadcast_to(f_fn(r), r.shape)),
                          start=64.0, name="f", var="y")

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
        rt = _decay_radius(
            envelope, start=rt0, var="theta",
            name="the a-envelope (max over y of |a| times the cutoff)")

        def integrand(Y, T):
            vals = np.asarray(core_fn(Y, T), dtype=complex)
            return vals * cut.at_r2(x2 + (Y / sigma) ** 2 + (T / sigma) ** 2)

        # a huge x saturates the cutoff to 0; a non-finite integrand is
        # caught below, by the value it gives
        with np.errstate(all="ignore"):
            x2 = np.square(xv / sigma)
            y_floor = rt
            if theta_fn is not None:
                probed = _spectral_radius(f_fn, envelope, x2, sigma, cut, ry,
                                          rt, 12.0)
                if probed is not None:
                    # F's content, |t| <= R_F, aliased 2 pi / h_y away,
                    # stays off the theta range [-R, R]
                    rt, radius_f = probed
                    y_floor = rt + radius_f
            try:
                y_ax, t_ax, _, capped = _grid(phi, xv, ry, rt, 12.0,
                                              y_floor=y_floor)
            except ValueError as exc:
                raise ValueError(f"the {cut.kind.value} cutoff's grid at "
                                 f"sigma = {sigma:g}: {exc}") from None
            record = {"sigma": sigma, "cutoff": cut.kind.value,
                      "ny": len(y_ax), "nt": len(t_ax), "capped": capped}
            if theta_fn is None:
                val = _tiled_quadrature(integrand, y_ax, t_ax)
                record["route"] = "tensor"
            else:
                val, entries = _special_quadrature(theta_fn, f_fn, x2, sigma,
                                                   cut, y_ax, t_ax, mirror)
                record.update(entries)
        if not np.isfinite(val):
            raise ValueError(f"the {cut.kind.value} cutoff's quadrature at "
                             f"sigma = {sigma:g} is not finite: {val}")
        quadrature.append(record)
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


def _on_support(integrand, weight, phase):
    """(Y, T) -> integrand * weight * phase, with integrand and phase
    evaluated only where weight > 0 and an exact 0 elsewhere: the same
    values as the full product wherever the integrand is finite."""
    def weighted(Y, T):
        w = weight(Y, T)
        on = w > 0.0
        w, Y, T = w[on], Y[on], T[on]
        vals = integrand(Y, T) * w * phase(Y, T)
        out = np.zeros(on.shape, dtype=complex)
        out[on] = vals
        return out
    return weighted


#: points per block of the jet evaluation.  The jet kernel makes a few numpy
#: calls per coefficient pair, each on one row of at most 128 KB here (8192
#: complex values), so larger blocks spend less per point on call overhead
#: until the jets leave the cache.  Warm k = 4, R = 12 calls of criterion 3,
#: median of four alternated calls on 2 cores: 1.86 s at 2048 points,
#: 1.50-1.69 s at 4096, 1.34-1.53 s at 8192, 1.54-1.57 s at 16384 and
#: 1.87 s at 32768.
_JET_CHUNK = 8192

#: y rows per block of a `_tiled_quadrature` tile: every integrand
#: temporary holds at most this many rows of the tile's 256 columns.
#: Criterion 3's six calls in a fresh process on 2 cores, median of five
#: alternated passes (wall, peak RSS of the caller and of its child): 1.24 s,
#: 87.2 and 76.7 MB at 32 rows; 1.14 s, 88.5 and 77.8 MB at 64; 1.15 s, 91.5
#: and 80.1 MB at 128; 1.25 s, 111.4 and 98.1 MB with whole tiles.
_BLOCK_ROWS = 64

#: points per axis of `fio_apply_ibp`'s local grid at most; a radius that
#: needs more widens the step (recorded as "local_cap_hit")
_LOCAL_CAP = 4096


@functools.lru_cache(maxsize=8)
def _ibp_callables(u, phi_yt, yv, tv, xv: float, eps0: float, k: int):
    """Lambdified u, phi and the omega-partition ratio, and the k-fold
    term (tL)^k[(1-omega)u] as a function of (Y, T, with_omega); at k = 0
    it is (1-omega)u.

    With h = grad phi / D real, tL w = i (d_y(h_y w) + d_t(h_t w)), so the
    term is i^k T^k[(1-omega)u] with T w = d_y(h_y w) + d_t(h_t w).  It is
    evaluated on Taylor jets of order k, lists of rows that are arrays over
    the points or Python numbers (`jets`): sympy differentiates only u, the
    two components of grad phi and lambda^2, each up to order k, and every
    T costs one order of the jet.  The coefficient jets are Taylor
    arithmetic on those (`_coefficient_jets`), and omega = chi(r) is never
    differentiated symbolically: its jet is `jets.compose` of chi's Taylor
    coefficients at r_0, which a lambdified function of the ratio returns
    (`_chi_coefficients` bound to the undefined function chi0), with the
    ratio's jet.  with_omega=False drops omega, which vanishes with all
    its derivatives where r >= 2; there the jet is u's own, in which a
    row that sympy found identically 0 (for a theta-free u, every row with
    a theta derivative) is the number 0, which every T skips.

    None of them depends on the truncation radius, so calls that differ
    only in R share one symbolic build (and, through `_local_sum`, one sum
    of the local grid).
    """
    dy, dt = sp.diff(phi_yt, yv), sp.diff(phi_yt, tv)
    lam2 = 1 + sp.Float(xv) ** 2 + yv ** 2 + tv ** 2
    t_ratio = (dy ** 2 + dt ** 2) / (eps0 * lam2)

    u_fn = lambdify((yv, tv), u)
    phase_fn = lambdify((yv, tv), phi_yt)
    ratio_fn = lambdify((yv, tv), t_ratio)
    u_rows = jets.lambdify_rows(u, yv, tv, k)
    # k = 0 takes no transpose step, so it needs no coefficient jets
    if k:
        z_rows, h_jet, ratio_jet = _coefficient_jets(dy, dt, lam2, yv, tv,
                                                     eps0, k)
    # chi0(r): chi's Taylor coefficients at r_0, shape (k + 1, points)
    omega_parts = lambdify(
        (yv, tv), [sp.Function("chi0")(t_ratio), t_ratio],
        {"chi0": lambda r: _chi_coefficients(r, k)})
    rotation = 1j ** k

    def kfold(Y, T, with_omega: bool) -> np.ndarray:
        out = np.empty(Y.shape, dtype=complex)
        for start in range(0, Y.size, _JET_CHUNK):
            y, t = Y[start:start + _JET_CHUNK], T[start:start + _JET_CHUNK]
            w = u_rows(y, t)
            z = z_rows(y, t) if k else None
            if with_omega:
                s, r0 = omega_parts(y, t)
                ratio = [r0, *ratio_jet(z, y, t)[1:]] if k else [r0]
                omega = jets.compose(s, ratio, k)
                w = jets.multiply([1.0 - omega[0], *(-c for c in omega[1:])],
                                  w, k)
            w = jets.divergence_power(h_jet(z), w, k) if k else w[0]
            out[start:start + _JET_CHUNK] = rotation * w
        return out
    return u_fn, phase_fn, ratio_fn, kfold


def _coefficient_jets(dy, dt, lam2, yv, tv, eps0: float, k: int):
    """(z_rows, h_jet, ratio_jet): the jets of order k of L's coefficients
    h = grad phi / D and of the partition ratio r = D / (eps0 lambda^2),
    by Taylor arithmetic from the sympy components dy, dt of grad phi and
    from lambda^2.  z_rows(y, t) returns the jet of z = dy - i dt
    (`jets.lambdify_rows`), h_jet(z) the jets of (h_y, h_t) interleaved as
    `jets.divergence_power` reads them (row 2i is coefficient i of h_y,
    2i + 1 that of h_t), and ratio_jet(z, y, t) r's jet, whose row 0 the
    caller replaces with r_0 from its own lambdified ratio.  Every jet is a
    list of rows, arrays over the points or Python numbers.

    For a real phase D = z conj(z) and h_y + i h_t = 1/z, so h's rows are
    the real and imaginary parts of `jets.divide` of 1 by z, and r's jet
    is `jets.divide` of z conj(z) by eps0 lambda^2.  On a special phase,
    phi = S(x, theta) - y theta, z's row d_y z = i is a constant that
    sympy finds exactly, and so is its row d_theta z = -1 at S = x theta,
    whose rows of order 2 and above are 0: the constants multiply as
    scalars and the 0 rows are skipped."""
    z_rows = jets.lambdify_rows(dy - sp.I * dt, yv, tv, k)
    scale_rows = jets.lambdify_rows(eps0 * lam2, yv, tv, k)
    one = [1.0] + [0.0] * (len(jets.jet_indices(k)) - 1)

    def h_jet(z):
        return [part for q in jets.divide(one, z, k)
                for part in (q.real, q.imag)]

    def ratio_jet(z, y, t):
        re, im = [row.real for row in z], [row.imag for row in z]
        d = [a + b for a, b in zip(jets.multiply(re, re, k),
                                   jets.multiply(im, im, k))]
        return jets.divide(d, scale_rows(y, t), k)
    return z_rows, h_jet, ratio_jet


def _ibp_integrand(u_fn, phase_fn, ratio_fn, kfold):
    """From `_ibp_callables`' functions, the integrand of `fio_apply_ibp`
    without the e^{i phi} factor, omega*u + (tL)^k[(1-omega)*u] with the
    k-fold term evaluated by region of the ratio, and that factor."""
    def values(Y, T):
        with np.errstate(all="ignore"):
            ratio = np.broadcast_to(
                np.asarray(ratio_fn(Y, T), dtype=float), Y.shape)
            # chi is exactly 0 where the ratio is >= 2 or NaN
            vals = chi(ratio) * np.asarray(u_fn(Y, T), dtype=complex)
            outer = ratio >= 2.0
            annulus = ~(outer | (ratio <= 1.0))
            for m, with_omega in ((outer, False), (annulus, True)):
                if np.any(m):
                    vals[m] += kfold(Y[m], T[m], with_omega)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("non-finite integrand away from the guard")
        return vals

    def phase_factor(Y, T):
        return np.exp(1j * np.asarray(phase_fn(Y, T), dtype=float))
    return values, phase_factor


def _psi(s0: float):
    """The radial partition psi = chi(rho^2 / s0^2) as a function of
    (Y, T); its support is the disk of radius sqrt(2) s0."""
    def psi(Y, T):
        return chi((Y * Y + T * T) / (s0 * s0))
    return psi


@functools.lru_cache(maxsize=8)
def _local_sum(u, phi_yt, yv, tv, xv: float, eps0: float, k: int,
               s0: float, npts: int, mirror: bool) -> complex:
    """The sum of psi times the integrand of `fio_apply_ibp` (the
    `_ibp_callables` build of the first seven arguments) over the local
    grid: the square [-sqrt(2) s0, sqrt(2) s0]^2 with npts points per axis,
    evaluated only where psi > 0 (`_on_support`), and with mirror (the
    integrand is conjugate-symmetric in theta) on its half theta >= 0
    (`_tiled_quadrature`).

    Those are all the sum reads, so the calls of one process that differ
    only in R (criterion 3's R = 12 and R = 24, where s0 and the grid are
    the same) sum it once; a call whose s0 or point count differs gets its
    own sum.  An exception is not cached.  The build, `_on_support` and
    `_tiled_quadrature` are looked up at each call, so every sum that is
    not a repeat evaluates them as they stand."""
    values, phase_factor = _ibp_integrand(
        *_ibp_callables(u, phi_yt, yv, tv, xv, eps0, k))
    local_radius = float(np.sqrt(2.0) * s0)
    loc_ax = np.linspace(-local_radius, local_radius, npts)
    return _tiled_quadrature(
        _on_support(values, _psi(s0), phase_factor), loc_ax, loc_ax, mirror)


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
    jet, composed from chi's Taylor coefficients and the ratio's jet, is
    evaluated only on the annulus 1 < r < 2 (and at any NaN r, so that a
    non-finite value is still caught).
    For k > 0 the integral is split by a radial partition psi into a local
    part on a fine grid and the rest on the coarse grid.  The local grid is
    a square around psi's disk: the integrand is evaluated only where
    psi > 0 and is an exact 0 on the corners, so every sum is the one the
    full grid gives.  A non-finite integrand there is still caught by the
    coarse grid, which covers those corners.  The local grid does not
    depend on R, so its sum is kept for the process (`_local_sum`): calls
    that differ only in R share one symbolic build and one local sum, and
    only their coarse grids are summed apart.
    A k that is not an integer >= 0, an x that is not finite, an R that is
    not finite and > 0, and a k > 0 call whose psi support reaches the box
    (local radius sqrt(2) s0 >= R) raise ValueError.
    The partition threshold eps0 is `choose_eps0(phi, x)`.
    `tail_mass` reports the absolute integrand mass on the outer half-shell,
    the quantity whose decay order improves with k.
    When sympy proves phi(y, -theta) = -conj phi(y, theta) and
    u(y, -theta) = conj u(y, theta) at x, u = a f (`conjugate_mirror`),
    the integrand is conjugate-symmetric in theta (see the module
    docstring): both grids are summed over their nodes theta >= 0 only,
    taken as exact mirrors of the nodes theta < 0, each theta > 0 counted
    twice, the value is the real part of that sum, and `tail_mass` counts
    the theta > 0 shell terms twice.  This halves the integrand points and
    moves the value by rounding only (at most 6e-14 relative on criterion
    3's calls).  A call whose proof fails, or that sympy cannot decide, sums
    the whole grids.
    `decisions` records eps0, s0, the local radius, whether the psi split
    ran, whether the grids were mirrored ("theta_mirror"), whether the
    point cap widened the coarse grid's step and the local grid's step.
    Both grids are summed by `_tiled_quadrature` in forked tile shares on
    every allowed CPU; the value and `tail_mass` are the ones a single
    process gives, bit for bit.
    """
    if not (float(k).is_integer() and k >= 0):
        raise ValueError(f"k must be an integer >= 0: {k}")
    k = int(k)
    R = float(R)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"R must be finite and > 0: {R}")
    xv, phi_yt, a_yt, f_expr = _at_point(a, phi, f, x)
    eps0 = choose_eps0(phi, xv)
    build = (a_yt * f_expr, phi_yt, phi.yvars[0], phi.tvars[0], xv,
             float(eps0), k)
    callables = _ibp_callables(*build)
    ratio_fn = callables[2]
    mirror = conjugate_mirror(phi_yt, build[0], phi.tvars[0])
    integrand_values, phase_factor = _ibp_integrand(*callables)

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
    if k > 0 and local_radius >= R:
        # without the split, the k-fold term's large chi-derivatives would
        # be summed on the coarse grid alone: a wrong value, silently
        raise ValueError(
            f"k = {k} needs psi's support inside the box: the local radius "
            f"sqrt(2) s0 = {local_radius:.6g} (s0 = {s0:.6g}) is not below "
            f"R = {R:g}")
    psi = _psi(s0)

    y_ax, t_ax, h_fine, coarse_capped = _grid(phi, xv, R, R, 64.0)

    def coarse_integrand(Y, T):
        vals = integrand_values(Y, T)
        shell = np.maximum(np.abs(Y), np.abs(T)) >= R / 2.0
        tail_terms = np.abs(vals[shell])
        if mirror:
            tail_terms *= _mirror_count(T[shell])
        if k > 0:
            vals = vals * (1.0 - psi(Y, T))
        return vals * phase_factor(Y, T), tail_terms

    val, tail = _tiled_quadrature(coarse_integrand, y_ax, t_ax, mirror)

    decisions = {"eps0": float(eps0), "s0": s0, "local_radius": local_radius,
                 "psi_split": k > 0, "theta_mirror": mirror,
                 "coarse_cap_hit": coarse_capped,
                 "local_step_asked": None,
                 "local_step": None, "local_cap_hit": None}
    if k > 0:
        h_loc = min(float(np.sqrt(eps0)) / 128.0, h_fine)
        loc_ax, capped = _axis(local_radius, h_loc, _LOCAL_CAP)
        decisions.update(local_step_asked=h_loc,
                         local_step=float(loc_ax[1] - loc_ax[0]),
                         local_cap_hit=capped)
        val = val + _local_sum(*build, s0, len(loc_ax), mirror)

    val = val / (2.0 * np.pi)
    return OscIntegralResult(value=complex(val), ibp_order=k,
                             truncation_radius=float(R),
                             tail_mass=tail / (2.0 * np.pi),
                             decisions=decisions)
