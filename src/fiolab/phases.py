"""Phase functions and their hypothesis verifiers.

Generic phases phi(x, y, theta) are checked against growth/equivalence
hypotheses; the special phase phi = S(x, theta) - y.theta is built from a
generating function S with a uniformly nondegenerate mixed Hessian.

All verifiers are sampling checks: they return estimated constants on tensor
grids [-R, R]^d for several R (growth failures are asymptotic, so a single
box cannot expose them), never proofs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import sympy as sp

from .expressions import (check_names, coord_symbols, diff_multi, evaluate,
                          multi_indices)
from .grids import GridSpec
from .weights import bracket

DEFAULT_RADII = (4.0, 8.0, 16.0)
DEFAULT_CAP = 1e6
DEFAULT_FLOOR = 1e-8
#: ratio between successive-R constants above which we call the growth
#: unbounded (a bounded constant approaches its sup, ratio -> 1)
GROWTH_TOL = 3.0
#: ratio below which a lower constant (K1, delta0) is called decaying
DECAY_TOL = 0.6
DEFAULT_EPS0 = 0.01


@dataclass
class HypothesisReport:
    """Estimated constants for one hypothesis, with a worst-case witness."""

    name: str
    constants: dict
    passed: bool
    witness: Optional[tuple] = None
    per_radius: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "constants": {str(k): v for k, v in self.constants.items()},
            "pass": self.passed,
            "witness": list(self.witness) if self.witness else None,
            "per_radius": {str(k): v for k, v in self.per_radius.items()},
        }


def _gradient(expr: sp.Expr, variables, block, points) -> np.ndarray:
    """Columns d expr / dv for v in `block`, evaluated over `variables`."""
    cols = [evaluate(sp.diff(expr, v), variables, points) for v in block]
    return np.stack([np.asarray(c, dtype=float) for c in cols], axis=-1)


@dataclass
class GeneratingFunction:
    """S(x, theta) with exact first/second derivatives."""

    n: int
    expr: sp.Expr
    xvars: Tuple[sp.Symbol, ...]
    tvars: Tuple[sp.Symbol, ...]

    @property
    def variables(self):
        return self.xvars + self.tvars

    def __call__(self, points) -> np.ndarray:
        return evaluate(self.expr, self.variables, points).real

    def grad_x(self, points) -> np.ndarray:
        return _gradient(self.expr, self.variables, self.xvars, points)

    def grad_theta(self, points) -> np.ndarray:
        return _gradient(self.expr, self.variables, self.tvars, points)

    def mixed_hess(self, points) -> np.ndarray:
        """d2S/dx_i dtheta_j as an (..., n, n) array."""
        points = np.asarray(points, dtype=float)
        rows = []
        for xi in self.xvars:
            row = [evaluate(sp.diff(self.expr, xi, tj), self.variables, points)
                   for tj in self.tvars]
            rows.append(np.stack([np.asarray(c, dtype=float) for c in row],
                                 axis=-1))
        return np.stack(rows, axis=-2)

    @classmethod
    def from_expr(cls, expr, n: int):
        """S from a formula or expression over x0.. and theta0..; any other
        symbol raises ValueError."""
        xvars = coord_symbols("x", n)
        tvars = coord_symbols("theta", n)
        return cls(n=n, expr=check_names(expr, xvars + tvars), xvars=xvars,
                   tvars=tvars)


@dataclass
class PhaseField:
    """phi(x, y, theta) with exact gradient and Hessian access."""

    n: int
    N: int
    expr: sp.Expr
    xvars: Tuple[sp.Symbol, ...]
    yvars: Tuple[sp.Symbol, ...]
    tvars: Tuple[sp.Symbol, ...]

    @property
    def variables(self):
        return self.xvars + self.yvars + self.tvars

    def __call__(self, points) -> np.ndarray:
        return evaluate(self.expr, self.variables, points).real

    def grad_x(self, points):
        return _gradient(self.expr, self.variables, self.xvars, points)

    def grad_y(self, points):
        return _gradient(self.expr, self.variables, self.yvars, points)

    def grad_theta(self, points):
        return _gradient(self.expr, self.variables, self.tvars, points)

    def derivative(self, alpha, points) -> np.ndarray:
        """d^alpha phi, alpha over the (x, y, theta) coordinates jointly."""
        d = diff_multi(self.expr, self.variables, alpha)
        return evaluate(d, self.variables, points)


def special_phase(S: GeneratingFunction) -> PhaseField:
    """phi(x, y, theta) = S(x, theta) - <y, theta>."""
    yvars = coord_symbols("y", S.n)
    expr = S.expr - sum(y * t for y, t in zip(yvars, S.tvars))
    return PhaseField(n=S.n, N=S.n, expr=expr,
                      xvars=S.xvars, yvars=yvars, tvars=S.tvars)


def conjugate_mirror(phase: sp.Expr, amplitude: sp.Expr,
                     theta: sp.Symbol) -> bool:
    """Whether sympy proves phase(-theta) = -conj phase(theta) (-phase for a
    real phase) and amplitude(-theta) = conj amplitude(theta): each
    difference expands to 0, and one it cannot decide is not taken.  Then
    e^{i phase} amplitude at -theta is the complex conjugate of its value
    at theta, so the theta and -theta terms of a sum over a mirrored theta
    axis add up to twice a real part."""
    flip = {theta: -theta}
    return all(sp.expand(f.xreplace(flip) + sign * sp.conjugate(f)) == 0
               for f, sign in ((phase, 1), (amplitude, -1)))


def quadratic_generating(coeffs: dict, n: int) -> GeneratingFunction:
    """S = sum C_{alpha,beta} x^alpha theta^beta over |alpha|+|beta| = 2.

    `coeffs` maps (alpha, beta) multi-index pairs (tuples of length n) to
    real constants.
    """
    xvars = coord_symbols("x", n)
    tvars = coord_symbols("theta", n)
    expr = sp.Integer(0)
    for (alpha, beta), c in coeffs.items():
        alpha = tuple(int(k) for k in alpha)
        beta = tuple(int(k) for k in beta)
        if sum(alpha) + sum(beta) != 2:
            raise ValueError(f"({alpha}, {beta}) is not quadratic")
        term = sp.Float(c)
        for v, k in zip(xvars, alpha):
            term *= v ** k
        for v, k in zip(tvars, beta):
            term *= v ** k
        expr += term
    return GeneratingFunction(n=n, expr=expr, xvars=xvars, tvars=tvars)


def _grids(dim: int, radii):
    # Closed boxes sampled with an axis containing 0 and +-r: ratios that
    # degenerate along a coordinate axis (e.g. at large x with y = theta = 0)
    # must be seen exactly, not at a grid offset that scales with r.
    for r in radii:
        axis = np.linspace(-r, r, _default_ppa(dim))
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        yield np.stack([m.ravel() for m in mesh], axis=-1)


def _default_ppa(dim: int) -> int:
    return {1: 33, 2: 17, 3: 13}.get(dim, 7)


def _verify_growth(name, expr, variables) -> HypothesisReport:
    """Estimate C_alpha = sup |d^alpha expr| / lambda^(2 - |alpha|) for
    |alpha| <= 3 on the DEFAULT_RADII boxes.

    Fails when a constant exceeds DEFAULT_CAP or grows by more than
    GROWTH_TOL between the two largest radii (asymptotically unbounded
    ratio).  The witness is the argmax at the largest radius for the last
    failing multi-index, the point where the reported constants[alpha] is
    measured.
    """
    dim = len(variables)
    constants, per_radius = {}, {}
    passed, witness = True, None
    for alpha in multi_indices(dim, 3):
        order = sum(alpha)
        d = diff_multi(expr, variables, alpha)
        seq = []
        for pts in _grids(dim, DEFAULT_RADII):
            vals = np.abs(evaluate(d, variables, pts))
            ratio = vals / bracket(pts) ** (2 - order)
            i = int(np.argmax(ratio))
            seq.append(float(ratio[i]))
        constants[alpha] = seq[-1]
        per_radius[alpha] = seq
        grows = seq[-2] > 1e-9 and seq[-1] > GROWTH_TOL * seq[-2]
        if seq[-1] > DEFAULT_CAP or grows:
            witness = tuple(pts[i])  # pts, i: the largest radius
            passed = False
    return HypothesisReport(name=name, constants=constants, passed=passed,
                            witness=witness, per_radius=per_radius)


def verify_H2(phi: PhaseField) -> HypothesisReport:
    """C_{a,b,g} = sup |d phi| / lambda^(2 - order) per multi-index over
    (x, y, theta); see _verify_growth."""
    return _verify_growth("H2", phi.expr, phi.variables)


def _lower_scan(values_fn, dim: int, radii):
    """values_fn(pts) over the `_grids` boxes of the radii: the per-radius
    minima and maxima, the point of the minimum at the largest radius, and
    whether that minimum decays (falls below DECAY_TOL times the one
    before)."""
    mins, maxs, witness = [], [], None
    for pts in _grids(dim, radii):
        values = values_fn(pts)
        i = int(np.argmin(values))
        mins.append(float(values[i]))
        maxs.append(float(np.max(values)))
        witness = tuple(pts[i])
    decays = (len(mins) >= 2 and mins[-2] > 0
              and mins[-1] < DECAY_TOL * mins[-2])
    return mins, maxs, witness, decays


def _verify_equivalence(phi: PhaseField, name: str, image_fn, radii):
    """K1 is the min of the ratio at the largest radius: it fails at or
    below DEFAULT_FLOOR or when it shrinks below DECAY_TOL times its value
    at the previous radius."""
    k1s, k2s, worst_pt, decays = _lower_scan(
        lambda pts: bracket(image_fn(pts)) / bracket(pts),
        phi.n + phi.n + phi.N, radii)
    k1, k2 = k1s[-1], max(k2s)
    passed = bool(k1 > DEFAULT_FLOOR and not decays)
    return HypothesisReport(
        name=name, constants={"K1": k1, "K2": k2}, passed=passed,
        witness=None if passed else worst_pt,
        per_radius={"K1": k1s, "K2": k2s})


def verify_H3(phi: PhaseField, radii=DEFAULT_RADII) -> HypothesisReport:
    """K1 <= lambda(grad_y phi, grad_theta phi, y)/lambda(x, y, theta) <= K2."""
    def image(pts):
        y = pts[:, phi.n:2 * phi.n]
        return np.concatenate(
            [phi.grad_y(pts), phi.grad_theta(pts), y], axis=-1)
    return _verify_equivalence(phi, "H3", image, radii)


def verify_H3star(phi: PhaseField, radii=DEFAULT_RADII) -> HypothesisReport:
    """Same equivalence with the field (x, grad_theta phi, grad_x phi)."""
    def image(pts):
        x = pts[:, :phi.n]
        return np.concatenate(
            [x, phi.grad_theta(pts), phi.grad_x(pts)], axis=-1)
    return _verify_equivalence(phi, "H3*", image, radii)


def verify_G2(S: GeneratingFunction) -> HypothesisReport:
    """delta0 = inf |det d2S/dx dtheta| over the DEFAULT_RADII boxes; fails
    below DEFAULT_FLOOR or when the box minimum shrinks by DECAY_TOL."""
    mins, _, worst_pt, decays = _lower_scan(
        lambda pts: np.abs(np.linalg.det(S.mixed_hess(pts))), 2 * S.n,
        DEFAULT_RADII)
    delta0 = min(mins)
    passed = bool(delta0 >= DEFAULT_FLOOR and not decays)
    return HypothesisReport(name="G2", constants={"delta0": delta0},
                            passed=passed,
                            witness=None if passed else worst_pt,
                            per_radius={"delta0": mins})


def verify_G3(S: GeneratingFunction) -> HypothesisReport:
    """As verify_H2, restricted to (x, theta) and lambda(x, theta)."""
    return _verify_growth("G3", S.expr, S.variables)


def verify_separation(S: GeneratingFunction, triples) -> HypothesisReport:
    """C = max |x - x'| / |grad_theta S(x,.) - grad_theta S(x',.)| over
    triples; fails above DEFAULT_CAP.

    `triples` is an iterable of (x, x', theta); degenerate pairs x = x' are
    skipped.
    """
    triples = np.asarray(triples, dtype=float)
    if triples.ndim == 2 and S.n == 1:
        triples = triples[:, :, None]
    x, xp, th = triples[:, 0], triples[:, 1], triples[:, 2]
    keep = np.linalg.norm(x - xp, axis=-1) > 0
    if not np.any(keep):
        raise ValueError("all pairs degenerate (x = x')")
    x, xp, th = x[keep], xp[keep], th[keep]
    g = S.grad_theta(np.concatenate([x, th], axis=-1))
    gp = S.grad_theta(np.concatenate([xp, th], axis=-1))
    num = np.linalg.norm(x - xp, axis=-1)
    den = np.linalg.norm(g - gp, axis=-1)
    with np.errstate(divide="ignore"):
        ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
    i = int(np.argmax(ratio))
    c = float(ratio[i])
    passed = bool(np.isfinite(c) and c <= DEFAULT_CAP)
    witness = None if passed else (tuple(x[i]), tuple(xp[i]), tuple(th[i]))
    return HypothesisReport(name="separation", constants={"C": c},
                            passed=passed, witness=witness)


def omega_domain_membership(S: GeneratingFunction, eps0: float,
                            point) -> bool:
    """Is (x, y, theta) in the region |grad_theta S - y|^2 < eps0*|(x,y,theta)|^2?"""
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    point = np.atleast_1d(np.asarray(point, dtype=float))
    n = S.n
    x, y, th = point[:n], point[n:2 * n], point[2 * n:]
    g = S.grad_theta(np.concatenate([x, th])[None, :])[0]
    lhs = float(np.sum((g - y) ** 2))
    rhs = eps0 * float(np.sum(point * point))
    return lhs < rhs


def lambda_equivalence(S: GeneratingFunction,
                       eps0: float = DEFAULT_EPS0) -> dict:
    """Sample the domain above on [-8, 8]^3n and report how
    lambda(x,y,theta)/lambda(x,theta) and |y|/lambda(x,theta) behave on its
    members."""
    n = S.n
    dim = 3 * n
    pts = GridSpec(dim, 8.0, _default_ppa(dim)).mesh()
    x, y, th = pts[:, :n], pts[:, n:2 * n], pts[:, 2 * n:]
    g = S.grad_theta(np.concatenate([x, th], axis=-1))
    inside = np.sum((g - y) ** 2, axis=-1) < eps0 * np.sum(pts * pts, axis=-1)
    if not np.any(inside):
        return {"members": 0}
    sel = pts[inside]
    xt = np.concatenate([sel[:, :n], sel[:, 2 * n:]], axis=-1)
    ratio = bracket(sel) / bracket(xt)
    ybound = np.linalg.norm(sel[:, n:2 * n], axis=-1) / bracket(xt)
    return {
        "members": int(np.sum(inside)),
        "ratio_min": float(np.min(ratio)),
        "ratio_max": float(np.max(ratio)),
        "y_over_lambda_max": float(np.max(ybound)),
    }
