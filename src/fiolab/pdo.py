"""Pseudodifferential checks for FF* and F*F.

The composition FF* is (approximately) a pseudodifferential operator whose
symbol at the base point (x, grad_x S(x,theta)) is
|a(x,theta)|^2 / |det d^2 S / dx dtheta|.  This module predicts that value in
closed form, extracts the actual symbol from a dense discretization by a
windowed transform of the kernel rows, and compares the two; it also
computes the derivative-sum seminorms Q_k entering the L2-boundedness bound
and probes compactness through singular-value tails at two resolutions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .expressions import evaluate, multi_indices
from .grids import GridSpec
from .operators import DiscreteOperator, operator_norm, singular_values
from .phases import GeneratingFunction
from .symbols import SymbolField, _derivative_values, as_expr
from .weights import bracket

DEFAULT_DELTA_FLOOR = 1e-8
DEFAULT_PREDICTED_FLOOR = 1e-3


class Which(Enum):
    FFSTAR = "FFSTAR"
    FSTARF = "FSTARF"


class DeterminantFloorError(ValueError):
    pass


class OutOfBandError(ValueError):
    pass


class NewtonError(RuntimeError):
    pass


@dataclass
class SymbolSample:
    x: float
    xi: float
    extracted: complex
    predicted: float
    rel_error: Optional[float]


@dataclass
class PdoSymbolEstimate:
    samples: List[SymbolSample] = field(default_factory=list)
    window: Optional[dict] = None

    @property
    def max_rel_error(self) -> float:
        errs = [s.rel_error for s in self.samples if s.rel_error is not None]
        return max(errs) if errs else 0.0


@dataclass
class SeminormReport:
    k: int
    Q_k: float
    table: dict = field(default_factory=dict)


@dataclass
class CompactnessReport:
    verdict: str  # COMPACT-CONSISTENT | NONCOMPACT-CONSISTENT | INCONCLUSIVE
    tail_index: int
    tail_coarse: float
    tail_fine: float
    plateau_coarse: int
    plateau_fine: int
    spectrum_coarse: np.ndarray
    spectrum_fine: np.ndarray


def predicted_symbol(S: GeneratingFunction, a, x, theta,
                     which: Which = Which.FFSTAR,
                     delta_floor: float = DEFAULT_DELTA_FLOOR
                     ) -> Tuple[np.ndarray, float]:
    """(base point, value): value = |a|^2 / |det mixed hessian| at (x, theta).

    Base point is (x, grad_x S) for FF* and (grad_theta S, theta) for F*F.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    pt = np.concatenate([x, theta])[None, :]
    det = float(np.abs(np.linalg.det(S.mixed_hess(pt)))[0])
    if det < delta_floor:
        raise DeterminantFloorError(
            f"|det| = {det:.3g} below floor {delta_floor:.3g}")
    amp = evaluate(as_expr(a, S.variables), S.variables, pt)[0]
    value = abs(complex(amp)) ** 2 / det
    if which is Which.FFSTAR:
        base = np.concatenate([x, S.grad_x(pt)[0]])
    else:
        base = np.concatenate([S.grad_theta(pt)[0], theta])
    return base, value


def theta_inverse(S: GeneratingFunction, x, xi, guess=None,
                  delta_floor: float = DEFAULT_DELTA_FLOOR,
                  tol: float = 1e-12, max_iterations: int = 50) -> np.ndarray:
    """Solve grad_x S(x, theta) = xi for theta by Newton iteration."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    theta = np.array(guess if guess is not None else xi, dtype=float)
    for _ in range(max_iterations):
        pt = np.concatenate([x, theta])[None, :]
        res = S.grad_x(pt)[0] - xi
        if np.linalg.norm(res) < tol:
            return theta
        jac = S.mixed_hess(pt)[0]  # d grad_x S / d theta
        if abs(np.linalg.det(jac)) < delta_floor / 2.0:
            raise NewtonError(f"Jacobian degenerate at theta={theta}")
        theta = theta - np.linalg.solve(jac, res)
    raise NewtonError(f"no convergence in {max_iterations} iterations")


def _window_profile(offsets: np.ndarray, half_width: float,
                    flat_fraction: float = 0.7) -> np.ndarray:
    """Flat-top window: 1 on the inner fraction, cosine roll-off outside."""
    u = np.abs(offsets) / half_width
    w = np.zeros_like(u)
    w[u <= flat_fraction] = 1.0
    ramp = (u > flat_fraction) & (u < 1.0)
    w[ramp] = 0.5 * (1.0 + np.cos(
        np.pi * (u[ramp] - flat_fraction) / (1.0 - flat_fraction)))
    return w


def extract_symbol(FFstar: DiscreteOperator, x: float, xi: float,
                   window_half_width: Optional[float] = None) -> complex:
    """sigma(x, xi) = sum_y w_y K(x, y) win(y - x) e^{-i (x - y) xi}.

    Windowed inverse quantization of the kernel row nearest to x.
    """
    grid = FFstar.row_grid
    if grid.dim != 1 or FFstar.col_grid.dim != 1:
        raise NotImplementedError("extraction supports n = 1")
    dx = grid.spacing
    dy = FFstar.col_grid.spacing
    if window_half_width is None:
        window_half_width = 32.0 * dy
    if window_half_width < 8.0 * dy:
        raise ValueError("window must span at least 8 grid spacings")
    nyquist = np.pi / dy
    if abs(xi) > nyquist:
        raise OutOfBandError(f"|xi| = {abs(xi):.3g} beyond band {nyquist:.3g}")
    i = grid.nearest_index([x])
    xg = grid.axis()[i]
    y = FFstar.col_grid.axis()
    kernel_row = FFstar.matrix[i] / np.sqrt(dx * dy)
    win = _window_profile(y - xg, window_half_width)
    return complex(np.sum(dy * kernel_row * win *
                          np.exp(-1j * (xg - y) * xi)))


def compare_symbols(S: GeneratingFunction, a, FFstar: DiscreteOperator,
                    sample_points: Sequence[Tuple[float, float]],
                    which: Which = Which.FFSTAR,
                    window_half_width: Optional[float] = None,
                    predicted_floor: float = DEFAULT_PREDICTED_FLOOR
                    ) -> PdoSymbolEstimate:
    """Extracted-vs-predicted symbol at (x, theta) samples.

    Relative error is recorded whenever the predicted value sits above the
    floor (tiny predictions drown in extraction noise by design).
    """
    dy = FFstar.col_grid.spacing
    hw = window_half_width if window_half_width is not None else 32.0 * dy
    est = PdoSymbolEstimate(window={
        "half_width": hw, "spacings": hw / dy, "profile": "flat-top cosine"})
    for (x, theta) in sample_points:
        base, pred = predicted_symbol(S, a, x, theta, which)
        if pred < 0:
            raise AssertionError("predicted symbol must be nonnegative")
        extracted = extract_symbol(FFstar, float(base[0]), float(base[1]),
                                   window_half_width=hw)
        rel = abs(extracted - pred) / pred if pred >= predicted_floor else None
        est.samples.append(SymbolSample(x=float(x), xi=float(base[1]),
                                        extracted=extracted, predicted=pred,
                                        rel_error=rel))
    return est


def refinement_ratio(coarse: PdoSymbolEstimate, fine: PdoSymbolEstimate,
                     sample_lambdas: Optional[Sequence[float]] = None,
                     lambda_min: float = 3.0) -> float:
    """max over samples of error(fine)/error(coarse), restricted to samples
    with bracket weight >= lambda_min when sample_lambdas is given."""
    ratios = []
    for idx, (c, f) in enumerate(zip(coarse.samples, fine.samples)):
        if c.rel_error is None or f.rel_error is None or c.rel_error == 0.0:
            continue
        if sample_lambdas is not None and sample_lambdas[idx] < lambda_min:
            continue
        ratios.append(f.rel_error / c.rel_error)
    if not ratios:
        raise ValueError("no comparable samples above the floors")
    return float(max(ratios))


def cv_seminorm(sigma: SymbolField, k: int, grid) -> SeminormReport:
    """Q_k = sum over |alpha| <= k of the grid supremum of |d^alpha sigma|."""
    k = int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    points = grid.mesh() if isinstance(grid, GridSpec) else \
        np.asarray(grid, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    table = {}
    total = 0.0
    for alpha in multi_indices(sigma.dim, k):
        sup = float(np.max(np.abs(_derivative_values(sigma, alpha, points))))
        table[tuple(alpha)] = sup
        total += float(sup)
    return SeminormReport(k=k, Q_k=total, table=table)


@dataclass
class BoundCheckReport:
    norm: float
    bound: float
    ratio: float
    passed: bool


def cv_bound_check(F: DiscreteOperator, Q: SeminormReport,
                   gamma: float = 1.0, slack: float = 1e-6
                   ) -> BoundCheckReport:
    """Checks the measured operator norm against (gamma * Q_k)^{1/2}."""
    norm = operator_norm(F)
    bound = float(np.sqrt(gamma * Q.Q_k))
    return BoundCheckReport(norm=norm, bound=bound,
                            ratio=norm / bound if bound > 0 else np.inf,
                            passed=bool(norm <= bound * (1.0 + slack)))


def compactness_probe(F_coarse: DiscreteOperator, F_fine: DiscreteOperator,
                      tail_index: Optional[int] = None,
                      tail_cut: float = 0.01, plateau_cut: float = 0.5,
                      growth: float = 1.3, stability: float = 0.10
                      ) -> CompactnessReport:
    """Singular-value diagnostics at two resolutions.

    NONCOMPACT-CONSISTENT: the plateau count (s_j >= plateau_cut * s_max)
    grows by >= `growth` under refinement.  COMPACT-CONSISTENT: the value at
    a fixed tail index is < tail_cut at both resolutions and stable within
    `stability`.  Anything else: INCONCLUSIVE.  The report carries both
    spectra.
    """
    sc = singular_values(F_coarse)
    sf = singular_values(F_fine)
    if tail_index is None:
        tail_index = int(0.8 * len(sc))
    if tail_index >= len(sc):
        raise ValueError("tail index beyond the coarse spectrum")
    smax = max(float(sc[0]), float(sf[0]))
    if smax == 0.0:
        return CompactnessReport("COMPACT-CONSISTENT", tail_index,
                                 0.0, 0.0, 0, 0, sc, sf)
    pc = int(np.sum(sc >= plateau_cut * smax))
    pf = int(np.sum(sf >= plateau_cut * smax))
    tc = float(sc[tail_index])
    tf = float(sf[tail_index])
    # a genuinely growing plateau adds many states, not one or two cells
    if pc > 0 and pf >= growth * pc and pf - pc >= 4:
        verdict = "NONCOMPACT-CONSISTENT"
    elif tc < tail_cut and tf < tail_cut and \
            abs(tf - tc) <= stability * max(tc, 1e-12):
        verdict = "COMPACT-CONSISTENT"
    else:
        verdict = "INCONCLUSIVE"
    return CompactnessReport(verdict=verdict, tail_index=tail_index,
                             tail_coarse=tc, tail_fine=tf,
                             plateau_coarse=pc, plateau_fine=pf,
                             spectrum_coarse=sc, spectrum_fine=sf)


def lambda_at(x: float, theta: float) -> float:
    """Convenience: bracket weight of the stacked point (x, theta)."""
    return float(bracket(np.array([[x, theta]]))[0])
