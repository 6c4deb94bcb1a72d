"""Oscillatory integrals: cutoff regularization and integration by parts.

Two routes to the same value of the oscillatory integral applied to a test
function:

* `regularized_fio_apply` multiplies the amplitude by a scaled cutoff
  g(./sigma) with g(0) = 1 and follows the values along an increasing sigma
  schedule; the limit must not depend on the cutoff shape.  Each quadrature
  sums one tensor-trapezoid grid by one of three routes:

  - separable: when the phase is special (phi = S(x, theta) - y theta,
    i.e. d phi/dy = -theta), the amplitude does not depend on y and g is
    the Gaussian, the integrand factors as
    e^{i S(theta)} a(theta) e^{-(x^2+theta^2)/(2 sigma^2)} times
    f(y) e^{-y^2/(2 sigma^2)} e^{-i y theta}.  The sum then splits into a
    1-D Fourier sum over y at each theta node (a complex GEMM) and a sum
    over theta: the same grid, the same weights, the same terms, only
    added in another order.  Both linspace axes are split into about
    sqrt(n) blocks, so the exponential tables of the GEMM are outer
    products of short ones: a `regularized` pass of the bench (x = 1,
    sigma up to 256) evaluates 72 k complex exponentials instead of
    2.09 M (`_exp_table`, `_fourier_sum`).
  - split: the same phase and amplitude with the smooth bump, which is
    radial and so not a product in (y, theta).  On a theta column where
    the bump is exactly 1.0 at every y, each term is
    e^{i S} a f(y) e^{-i y theta} times 1, so the column is the separable
    route's Fourier sum without its Gaussian factor, again the same terms
    in another order; a column where it is exactly 0.0 adds nothing; only
    the transition columns between are summed point by point, from one
    (y, column) table of exponentials for all tiles of columns (11 k
    exponentials at the bench's sigma = 256 instead of 223 k).
  - tensor: every other case (a y-dependent amplitude, a non-special
    phase) is summed on the tensor grid, which is also the reference the
    tests compare the other two against.

* `fio_apply_ibp` splits the domain with the smooth partition omega (built
  from the ratio (|grad_y phi|^2 + |grad_theta phi|^2) / lambda^2), treats
  the near-critical part by direct quadrature, and applies the k-th power of
  the transpose of the first-order operator L (with L e^{i phi} = e^{i phi})
  to the rest.  The iterated transpose is evaluated on Taylor jets in
  (y, theta) (`jets`): sympy differentiates only the amplitude, the two
  coefficients of L and the partition ratio, each up to order k; omega's
  jet is composed from the bump's Taylor coefficients and the ratio's jet,
  and every transpose is exact jet arithmetic, never nested numerical
  differentiation.
  `IBPOperator.apply_transpose` keeps the symbolic product-rule expansion
  as the reference the tests compare against.  The k-fold term is
  evaluated by region of the partition ratio: it is 0 where the ratio is
  <= 1, the omega-free (tL)^k u where it is >= 2 (omega vanishes
  identically there), and only on the annulus between needs omega's jet.
  The local grid around the critical set evaluates the integrand only on
  the support of its radial weight psi.

Quadrature is tensor-trapezoid with grid spacing chosen from the sampled
phase gradients (Nyquist plus a smoothness margin), which gives
super-algebraic accuracy for smooth integrands that decay inside the box.
Every tensor grid (the tensor route, and both grids of `fio_apply_ibp`) is
evaluated by `_tiled_quadrature`, whose tiles of 256 theta columns are
dealt round-robin to the calling process and to `os.fork()`ed children, one
process per allowed CPU (`shares`); the tile sums are added in tile order,
so the results are bit-identical to one process.
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
#: tile of the split route's transition columns (2 cores, min of 30 calls),
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
    truncation_radius: float = 0.0
    tail_mass: Optional[float] = None
    #: one record per regularized quadrature, in the order they ran (the
    #: sigma schedule, then the cutoff-gap pass): sigma, cutoff kind, grid
    #: sizes ny x nt and the route ("separable", "split" or "tensor") that
    #: summed it; a "split" record also counts its theta columns by class
    #: under "columns": "separable", "transition" and "zero"
    quadrature: List[dict] = field(default_factory=list)
    #: the choices `fio_apply_ibp` made for the caller: the partition
    #: threshold "eps0", psi's radius "s0" and support edge "local_radius"
    #: (sqrt(2) s0), "psi_split" (k > 0), and for the local grid the step
    #: asked for ("local_step_asked"), the step of the grid used
    #: ("local_step") and whether the point cap widened it
    #: ("local_cap_hit"); the three local entries are None without a split
    decisions: dict = field(default_factory=dict)


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
    """sum w_y w_t fn(y, t) over the tensor grid, in tiles of 256 theta
    columns.  fn(Y, T) returns the integrand on one tile, or a pair
    (values, tail) with a float tail that is summed over the tiles too; the
    result is then the pair of the two sums.

    The tiles are dealt round-robin to the calling process and to forked
    children (`shares.in_shares`), and their sums are added here in tile
    order, so every sum is the one a single process gives, bit for bit."""
    tile = 256
    wy = _trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0])
    wt = _trapezoid_weights(len(t_ax), t_ax[1] - t_ax[0])
    starts = range(0, len(t_ax), tile)

    def tile_sum(i):
        cols = slice(starts[i], starts[i] + tile)
        Y, T = np.meshgrid(y_ax, t_ax[cols], indexing="ij")
        out = fn(Y, T)
        vals, tail = out if isinstance(out, tuple) else (out, None)
        return np.einsum("i,ij,j->", wy, vals, wt[cols]), tail

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


def _exp_table(t, y_ax) -> Tuple[np.ndarray, np.ndarray]:
    """(E, delta) with e^{-i t_k y_j} = E[k, j] (1 - i t_k delta_j) for
    every t_k in t and every point y_j of the linspace y_ax, up to
    (t_k delta_j)^2 / 2, about 1e-22 at |t y| = 2e4.

    E, shape (len(t), ny), is built from the split index j = p*Q + q with
    Q = ceil(sqrt(ny)): E[k, pQ + q] = e^{-i t_k y_{pQ}} e^{-i t_k q h_y},
    so each row is the outer product of P + Q exponentials, P = ceil(ny/Q),
    cut to ny, and (P + Q) exponentials replace ny.  The split grid
    y_{pQ} + q h_y misses y_j by delta_j, an ulp or two of y_j in a
    sawtooth that a sum over y would pick up coherently (1e-13 of the sum
    at ny = 6191, |t| = 2000), so callers add the term -i t_k delta_j."""
    t = np.asarray(t, dtype=float)
    ny = len(y_ax)
    Q = int(np.ceil(np.sqrt(ny)))
    base = y_ax[::Q, None]
    offset = np.arange(Q) * _linspace_step(y_ax)
    table = np.exp(-1j * np.outer(t, base))[:, :, None] * np.exp(
        -1j * np.outer(t, offset))[:, None, :]
    # y_j - (base + offset), exactly: the sum's rounding (Knuth's two-sum)
    # and then the difference of two numbers an ulp apart
    split = base + offset
    late = split - base
    rounding = (base - (split - late)) + (offset - late)
    delta = (y_ax - split.ravel()[:ny]) - rounding.ravel()[:ny]
    return table.reshape(len(t), -1)[:, :ny], delta


def _fourier_sum(c, y_ax, t_ax) -> np.ndarray:
    """F_k = sum_j c_j e^{-i y_j t_k} at every point t_k of the linspace
    axis t_ax, as a complex GEMM over the split index k = a*B + b with
    B = ceil(sqrt(nt)): e^{-i y t_k} = e^{-i y t_{aB}} e^{-i y b h}.  Its
    two tables come from `_exp_table`, which splits y the same way, so
    (nt/B + B)(ny/Q + Q) exponentials build them instead of (nt/B + B) ny:
    28.8 k instead of 1.13 M at nt = 8192, ny = 6191.  A second GEMM, with
    the head rows scaled by delta, sums the correction term of
    `_exp_table`."""
    nt = len(t_ax)
    B = int(np.ceil(np.sqrt(nt)))
    head, delta = _exp_table(t_ax[::B], y_ax)
    step, _ = _exp_table(np.arange(B) * _linspace_step(t_ax), y_ax)
    head *= c
    plain = (head @ step.T).ravel()[:nt]
    head *= delta
    return plain - 1j * t_ax * (head @ step.T).ravel()[:nt]


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
    with np.errstate(over="ignore"):  # a huge x saturates the cutoff to 0
        x2 = np.square(xv / sigma)
    g_t = np.exp(-(x2 + (t_ax / sigma) ** 2) / 2.0)
    theta_vals = np.broadcast_to(theta_fn(t_ax), t_ax.shape)
    return complex(np.sum(wt * theta_vals * g_t * _fourier_sum(c, y_ax,
                                                                t_ax)))


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


def _split_bump_quadrature(theta_fn, f_fn, x2, sigma: float,
                           cut: CutoffSpec, y_ax, t_ax):
    """The tensor-trapezoid sum of e^{i S(t)} a(t) f(y) e^{-i y t}
    g(|(x, y, t)|/sigma) over y_ax x t_ax for a cutoff g that is exactly 1
    near the origin and exactly 0 far from it, summed by theta column:
    where g is 1 on the whole column the column's term is
    w_t e^{i S(t)} a(t) sum_j w_j f(y_j) e^{-i y_j t}, the `_fourier_sum` of
    the Gaussian route without its factor; where g is 0 it is 0; only the
    transition columns are summed point by point.  Returns the sum and the
    column counts."""
    wy = _trapezoid_weights(len(y_ax), y_ax[1] - y_ax[0])
    wt = _trapezoid_weights(len(t_ax), t_ax[1] - t_ax[0])
    ones, zeros = _bump_columns(cut, x2, sigma, y_ax, t_ax)
    counts = {"separable": int(np.count_nonzero(ones)),
              "zero": int(np.count_nonzero(zeros))}
    counts["transition"] = len(t_ax) - counts["separable"] - counts["zero"]
    c = wy * np.broadcast_to(f_fn(y_ax), y_ax.shape)
    w_theta = wt * np.broadcast_to(theta_fn(t_ax), t_ax.shape)
    total = 0j
    if counts["separable"]:
        # the all-1 columns are those with |t| below a bound, one run of
        # the linspace; the mask keeps the sum exact if they were not
        first, last = np.flatnonzero(ones)[[0, -1]]
        hull = slice(first, last + 1)
        total += np.sum((w_theta[hull] * _fourier_sum(c, y_ax, t_ax[hull]))[
            ones[hull]])
    transition = np.flatnonzero(~(ones | zeros))
    if len(transition):
        # on a tile of consecutive columns, e^{-i y t_{k0+b}} =
        # e^{-i y t_{k0}} e^{-i y b h}: one head row per tile and one (b, y)
        # table for all of them replace an exponential per point; the
        # correction term of `_exp_table` rides as a second row
        tile = 128
        step, delta = _exp_table(np.arange(tile) * _linspace_step(t_ax),
                                 y_ax)
        tiles = list(_tiles(transition, tile))
        heads, _ = _exp_table(t_ax[[k0 for k0, _ in tiles]], y_ax)
        heads *= c
        y_scaled2 = (y_ax[:, None] / sigma) ** 2
        for (k0, k1), head in zip(tiles, heads):
            g = cut.at_r2(x2 + y_scaled2 + (t_ax[k0:k1] / sigma) ** 2)
            plain, fix = np.stack([head, head * delta]) @ (
                g * step.T[:, :k1 - k0])
            total += np.sum(w_theta[k0:k1]
                            * (plain - 1j * t_ax[k0:k1] * fix))
    return complex(total), counts


def _tiles(columns, tile: int):
    """(start, stop) of the runs of consecutive indices in the sorted
    `columns`, each cut into tiles of at most `tile` indices."""
    for run in np.split(columns, np.flatnonzero(np.diff(columns) > 1) + 1):
        for start in range(0, len(run), tile):
            yield run[start], run[min(start + tile, len(run)) - 1] + 1


def regularized_fio_apply(a, phi: PhaseField, f, x: float,
                          schedule: Sequence[float] = (4, 8, 16, 32, 64),
                          cutoff: CutoffSpec = CutoffSpec(CutoffKind.GAUSSIAN),
                          compute_gap: bool = True) -> OscIntegralResult:
    """Cutoff-regularized oscillatory integral along an increasing sigma
    schedule, with extrapolated limit and cutoff-independence diagnostics.

    When the phase is special (phi = S(x, theta) - y theta) and a does not
    depend on y, a Gaussian-cutoff quadrature takes the separable route and
    a smooth-bump one the split route: theta columns on which the bump is
    exactly 1.0 take the separable route's Fourier sum, which then adds the
    same terms as the tensor sum, columns on which it is exactly 0.0 are
    skipped, and only the transition columns are summed point by point.
    Every other quadrature takes the tensor route.  All three sum the same
    trapezoid grid, recorded in `OscIntegralResult.quadrature`."""
    _require_1d(phi)
    schedule = [float(s) for s in schedule]
    if not all(s1 < s2 for s1, s2 in zip([0.0] + schedule, schedule)):
        raise ValueError(f"schedule must be positive and increasing: "
                         f"{schedule}")
    xv = float(x)
    yv, tv = phi.yvars[0], phi.tvars[0]
    phi_yt = phi.expr.subs(phi.xvars[0], xv)
    a_yt = as_expr(a, phi.variables).subs(phi.xvars[0], xv)
    f_expr = as_expr(f, (yv,))

    core = sp.exp(sp.I * phi_yt) * a_yt * f_expr
    core_fn = lambdify((yv, tv), core)
    f_fn = lambdify(yv, f_expr)
    aenv_fn = lambdify((yv, tv), sp.Abs(a_yt))
    # S(theta) = phi + y theta; y-free exactly when d phi / dy = -theta
    s_t = sp.expand(phi_yt + yv * tv)
    theta_fn = None
    if yv not in s_t.free_symbols | a_yt.free_symbols:
        theta_fn = lambdify(tv, sp.exp(sp.I * s_t) * a_yt)
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

        with np.errstate(over="ignore"):  # as in _separable_quadrature
            x2 = np.square(xv / sigma)

        def integrand(Y, T):
            vals = np.asarray(core_fn(Y, T), dtype=complex)
            return vals * cut.at_r2(x2 + (Y / sigma) ** 2 + (T / sigma) ** 2)

        record = {"sigma": sigma, "cutoff": cut.kind.value,
                  "ny": len(y_ax), "nt": len(t_ax)}
        if theta_fn is None:
            val = _tiled_quadrature(integrand, y_ax, t_ax)
            record["route"] = "tensor"
        elif cut.kind is CutoffKind.GAUSSIAN:
            val = _separable_quadrature(theta_fn, f_fn, xv, sigma, y_ax, t_ax)
            record["route"] = "separable"
        else:
            val, record["columns"] = _split_bump_quadrature(
                theta_fn, f_fn, x2, sigma, cut, y_ax, t_ax)
            record["route"] = "split"
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
#: calls per coefficient pair, each on one (lanes, points) row of at most
#: 128 KB here, so larger blocks spend less per point on call overhead until
#: the jets leave the cache.  Warm k = 4, R = 12 calls of criterion 3, median
#: of four alternated calls on 2 cores: 1.86 s at 2048 points, 1.50-1.69 s at
#: 4096, 1.34-1.53 s at 8192, 1.54-1.57 s at 16384 and 1.87 s at 32768.
_JET_CHUNK = 8192

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
    evaluated on Taylor jets of order k: sympy differentiates only u, h_y,
    h_t and the ratio r, each up to order k, and every T costs one order of
    the jet.  omega = chi(r) is never differentiated symbolically: its jet
    is `jets.compose` of chi's Taylor coefficients at r_0, which the
    ratio's lambdified jet returns first (`_chi_coefficients` bound to the
    undefined function chi0), with the ratio's jet.  with_omega=False
    drops omega, which vanishes with all its derivatives where r >= 2.

    None of them depends on the truncation radius, so calls that differ
    only in R share one symbolic build.
    """
    denom, h_y, h_t = _ibp_coefficients(phi_yt, yv, tv)
    lam2 = 1 + sp.Float(xv) ** 2 + yv ** 2 + tv ** 2
    t_ratio = denom / (eps0 * lam2)

    u_fn = lambdify((yv, tv), u)
    phase_fn = lambdify((yv, tv), phi_yt)
    ratio_fn = lambdify((yv, tv), t_ratio)
    u_jet = lambdify((yv, tv), jets.derivatives(u, yv, tv, k))
    # k = 0 takes no transpose step, so it needs no jet of h
    h_jet = None if k == 0 else lambdify((yv, tv), [
        d for pair in zip(jets.derivatives(h_y, yv, tv, k),
                          jets.derivatives(h_t, yv, tv, k)) for d in pair])
    # chi0(r): chi's Taylor coefficients at r_0, shape (k + 1, points)
    omega_parts = lambdify(
        (yv, tv), [sp.Function("chi0")(t_ratio),
                   *jets.derivatives(t_ratio, yv, tv, k)],
        {"chi0": lambda r: _chi_coefficients(r, k)})
    rotation = 1j ** k

    def kfold(Y, T, with_omega: bool) -> np.ndarray:
        out = np.empty(Y.shape, dtype=complex)
        for start in range(0, Y.size, _JET_CHUNK):
            y, t = Y[start:start + _JET_CHUNK], T[start:start + _JET_CHUNK]
            w = jets.evaluate(u_jet, y, t, k)
            if with_omega:
                s, *ratio = omega_parts(y, t)
                one_minus = -jets.compose(
                    s, jets.from_values(ratio, y.size, k), k)
                one_minus[0] += 1.0
                w = jets.multiply(one_minus, w, k)
            w = (jets.divergence_power(jets.evaluate(h_jet, y, t, k), w, k)
                 if k else w[0])
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
    jet, composed from chi's Taylor coefficients and the ratio's jet, is
    evaluated only on the annulus 1 < r < 2 (and at any NaN r, so that a
    non-finite value is still caught).
    For k > 0 the integral is split by a radial partition psi into a local
    part on a fine grid and the rest on the coarse grid.  The local grid is
    a square around psi's disk: the integrand is evaluated only where
    psi > 0 and is an exact 0 on the corners, so every sum is the one the
    full grid gives.  A non-finite integrand there is still caught by the
    coarse grid, which covers those corners.
    A k > 0 call whose psi support reaches the box (local radius
    sqrt(2) s0 >= R) raises ValueError.
    The partition threshold eps0 is `choose_eps0(phi, x)`.
    `tail_mass` reports the absolute integrand mass on the outer half-shell,
    the quantity whose decay order improves with k.  `decisions` records
    eps0, s0, the local radius and the local grid's step.
    Both grids are summed by `_tiled_quadrature` in forked tile shares on
    every allowed CPU; the value and `tail_mass` are the ones a single
    process gives, bit for bit.
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
            vals = np.where(ratio < 2.0, chi(ratio), 0.0) \
                * np.asarray(u_fn(Y, T), dtype=complex)
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

    def psi(Y, T):
        return chi((Y * Y + T * T) / (s0 * s0))

    pts = np.stack([np.full(441, xv),
                    np.repeat(np.linspace(-R, R, 21), 21),
                    np.tile(np.linspace(-R, R, 21), 21)], axis=-1)
    freq_y = float(np.max(np.abs(phi.grad_y(pts))))
    freq_t = float(np.max(np.abs(phi.grad_theta(pts))))
    y_ax = _axis(R, freq_y, margin)
    t_ax = _axis(R, freq_t, margin)

    hy = y_ax[1] - y_ax[0]
    ht = t_ax[1] - t_ax[0]

    def coarse_integrand(Y, T):
        vals = integrand_values(Y, T)
        shell = np.maximum(np.abs(Y), np.abs(T)) >= R / 2.0
        tail = float(np.sum(np.abs(vals[shell]))) * hy * ht
        if k > 0:
            vals = vals * (1.0 - psi(Y, T))
        return vals * phase_factor(Y, T), tail

    val, tail = _tiled_quadrature(coarse_integrand, y_ax, t_ax)

    decisions = {"eps0": float(eps0), "s0": s0, "local_radius": local_radius,
                 "psi_split": k > 0, "local_step_asked": None,
                 "local_step": None, "local_cap_hit": None}
    if k > 0:
        h_loc = min(float(np.sqrt(eps0)) / 128.0,
                    2.0 * np.pi / (max(freq_y, freq_t) + margin))
        npts = int(np.ceil(2.0 * local_radius / h_loc)) + 1
        loc_ax = np.linspace(-local_radius, local_radius,
                             min(npts, _LOCAL_CAP))
        decisions.update(local_step_asked=h_loc,
                         local_step=float(loc_ax[1] - loc_ax[0]),
                         local_cap_hit=npts > _LOCAL_CAP)

        val = val + _tiled_quadrature(
            _on_support(integrand_values, psi, phase_factor), loc_ax, loc_ax)

    val = val / (2.0 * np.pi)
    return OscIntegralResult(value=complex(val), ibp_order=k,
                             truncation_radius=float(R),
                             tail_mass=tail / (2.0 * np.pi),
                             decisions=decisions)
