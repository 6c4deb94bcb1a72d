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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .expressions import evaluate, multi_indices
from .grids import GridSpec
from .operators import (DiscreteOperator, ReflectionBlocks, operator_norm,
                        singular_values)
from .phases import GeneratingFunction
from .symbols import SymbolField, as_expr

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
    #: the record `singular_values` returned with each side's spectrum
    svd_coarse: dict
    svd_fine: dict


def predicted_symbol(S: GeneratingFunction, a, x, theta,
                     which: Which = Which.FFSTAR) -> Tuple[np.ndarray, float]:
    """(base point, value): value = |a|^2 / |det mixed hessian| at (x, theta).

    Base point is (x, grad_x S) for FF* and (grad_theta S, theta) for F*F.
    A |det| below DEFAULT_DELTA_FLOOR raises DeterminantFloorError, a value
    that is not finite ValueError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    pt = np.concatenate([x, theta])[None, :]
    det = float(np.abs(np.linalg.det(S.mixed_hess(pt)))[0])
    if det < DEFAULT_DELTA_FLOOR:
        raise DeterminantFloorError(
            f"|det| = {det:.3g} below floor {DEFAULT_DELTA_FLOOR:.3g}")
    amp = evaluate(as_expr(a, S.variables), S.variables, pt)[0]
    try:
        value = abs(complex(amp)) ** 2 / det
    except OverflowError:
        value = np.inf
    if not np.isfinite(value):
        raise ValueError(f"predicted symbol {value} at x = {x.tolist()}, "
                         f"theta = {theta.tolist()} is not finite")
    if which is Which.FFSTAR:
        base = np.concatenate([x, S.grad_x(pt)[0]])
    else:
        base = np.concatenate([S.grad_theta(pt)[0], theta])
    return base, value


def theta_inverse(S: GeneratingFunction, x, xi) -> np.ndarray:
    """Solve grad_x S(x, theta) = xi for theta by Newton iteration from
    theta = xi: at most 50 steps, to a residual below 1e-12."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    theta = np.array(xi, dtype=float)
    for _ in range(50):
        pt = np.concatenate([x, theta])[None, :]
        res = S.grad_x(pt)[0] - xi
        if np.linalg.norm(res) < 1e-12:
            return theta
        jac = S.mixed_hess(pt)[0]  # d grad_x S / d theta
        if abs(np.linalg.det(jac)) < DEFAULT_DELTA_FLOOR / 2.0:
            raise NewtonError(f"Jacobian degenerate at theta={theta}")
        theta = theta - np.linalg.solve(jac, res)
    raise NewtonError("no convergence in 50 iterations")


def _window_profile(offsets: np.ndarray, half_width: float) -> np.ndarray:
    """Flat-top window: 1 on the inner 70%, cosine roll-off outside."""
    flat_fraction = 0.7
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

    Windowed inverse quantization of the kernel row nearest to x; x must
    lie within the row grid's radius and xi within the column grid's band.
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
    if not abs(x) <= grid.radius:
        raise OutOfBandError(f"|x| = {abs(x):.3g} beyond grid radius "
                             f"{grid.radius:.3g}")
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
                    window_half_width: Optional[float] = None
                    ) -> PdoSymbolEstimate:
    """Extracted-vs-predicted symbol at (x, theta) samples.

    Relative error is recorded whenever the predicted value sits at or above
    DEFAULT_PREDICTED_FLOOR (tiny predictions drown in extraction noise by
    design).
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
        rel = abs(extracted - pred) / pred \
            if pred >= DEFAULT_PREDICTED_FLOOR else None
        est.samples.append(SymbolSample(x=float(x), xi=float(base[1]),
                                        extracted=extracted, predicted=pred,
                                        rel_error=rel))
    return est


def refinement_ratio(coarse: PdoSymbolEstimate,
                     fine: PdoSymbolEstimate) -> float:
    """max over samples of error(fine)/error(coarse)."""
    ratios = []
    for c, f in zip(coarse.samples, fine.samples):
        if c.rel_error is None or f.rel_error is None or c.rel_error == 0.0:
            continue
        ratios.append(f.rel_error / c.rel_error)
    if not ratios:
        raise ValueError("no comparable samples above the floors")
    return float(max(ratios))


def cv_seminorm(sigma: SymbolField, k: int, grid: GridSpec) -> SeminormReport:
    """Q_k = sum over |alpha| <= k of the grid supremum of |d^alpha sigma|;
    a negative k raises ValueError, and so does a sigma that is negative
    at a grid point: sigma stands for the symbol of F F*, which is >= 0."""
    k = int(k)
    points = grid.mesh()
    table = {}
    total = 0.0
    for alpha in multi_indices(sigma.dim, k):
        values = sigma.derivative(alpha, points)
        if not any(alpha) and np.any(np.real(values) < 0):
            i = int(np.argmax(np.real(values) < 0))
            raise ValueError(f"sigma must be >= 0, but it is "
                             f"{np.real(values[i]):.6g} at the grid point "
                             f"{points[i].tolist()}")
        sup = float(np.max(np.abs(values)))
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
                   gamma: float = 1.0) -> BoundCheckReport:
    """Checks the measured operator norm against (gamma * Q_k)^{1/2}, with
    a relative slack of 1e-6.  gamma must be finite and positive."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma {gamma} must be finite and positive")
    norm = operator_norm(F)
    bound = float(np.sqrt(gamma * Q.Q_k))
    return BoundCheckReport(norm=norm, bound=bound,
                            ratio=norm / bound if bound > 0 else np.inf,
                            passed=bool(norm <= bound * (1.0 + 1e-6)))


def check_tail_index(count: int, tail_index: Optional[int] = None) -> int:
    """The index `compactness_probe` reads in a coarse spectrum of `count`
    values: tail_index, or int(0.8 count) when it is None; ValueError when
    it is outside 0 .. count - 1."""
    if tail_index is None:
        tail_index = int(0.8 * count)
    if not 0 <= tail_index < count:
        raise ValueError(f"tail index {tail_index} outside the coarse "
                         f"spectrum of {count} values")
    return tail_index


def compactness_probe(F_coarse: Union[DiscreteOperator, ReflectionBlocks],
                      F_fine: Union[DiscreteOperator, ReflectionBlocks],
                      tail_index: Optional[int] = None) -> CompactnessReport:
    """Singular-value diagnostics at two resolutions.

    NONCOMPACT-CONSISTENT: the plateau count (s_j >= 0.5 * s_max) grows by
    a factor >= 1.3 under refinement.  COMPACT-CONSISTENT: the value at a
    fixed tail index is < 0.01 at both resolutions and stable within 10%.
    Anything else: INCONCLUSIVE.  The tail index defaults to int(0.8 M) for
    a coarse spectrum of M values (`check_tail_index`).  Each side is an
    operator or its reflection blocks (`discretize_blocks`), decomposed
    once by `singular_values`.  The report carries both spectra and the
    record that call returned with each: `singular_values` decomposes a
    real matrix in real arithmetic ("imag_bound" 0), and a complex kernel
    that is real up to rounding as Re K, which moves each singular value by
    at most ||Im K||_F (Weyl's inequality), recorded relative to sigma_max
    as "imag_bound" and at most 1e-12 on that path.  A matrix symmetric under
    the grid reflection up to rounding is split into two blocks
    ("blocks"), which moves each value by at most ||K - PKP||_F / 2,
    recorded as "reflection_bound"; for blocks built directly, that is the
    asymmetry `discretize_blocks` measured on the fixed rows and columns,
    the only entries where its proof leaves K - PKP free.
    """
    sc, svd_coarse = singular_values(F_coarse)
    sf, svd_fine = singular_values(F_fine)
    tail_index = check_tail_index(len(sc), tail_index)
    smax = max(float(sc[0]), float(sf[0]))
    if smax == 0.0:
        return CompactnessReport("COMPACT-CONSISTENT", tail_index,
                                 0.0, 0.0, 0, 0, sc, sf, svd_coarse, svd_fine)
    pc = int(np.sum(sc >= 0.5 * smax))
    pf = int(np.sum(sf >= 0.5 * smax))
    tc = float(sc[tail_index])
    tf = float(sf[tail_index])
    # a genuinely growing plateau adds many states, not one or two cells
    if pc > 0 and pf >= 1.3 * pc and pf - pc >= 4:
        verdict = "NONCOMPACT-CONSISTENT"
    elif tc < 0.01 and tf < 0.01 and abs(tf - tc) <= 0.10 * max(tc, 1e-12):
        verdict = "COMPACT-CONSISTENT"
    else:
        verdict = "INCONCLUSIVE"
    return CompactnessReport(verdict=verdict, tail_index=tail_index,
                             tail_coarse=tc, tail_fine=tf,
                             plateau_coarse=pc, plateau_fine=pf,
                             spectrum_coarse=sc, spectrum_fine=sf,
                             svd_coarse=svd_coarse, svd_fine=svd_fine)

