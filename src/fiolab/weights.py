"""Tempered weights m : R^d -> [0, inf) and their algebra.

A weight is tempered when m(x) <= C0 * m(x1) * (1 + |x1 - x|)^l for all
pairs; here this inequality is *certified on finite pair sets only*, with an
explicit cap on the estimated C0.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
import sympy as sp

from .expressions import evaluate, parse_scalar_expr


class LambdaConvention(Enum):
    SQRT_SUM_SQUARES = "sqrt_sum_squares"   # (1 + |v|^2)^(1/2), smooth
    ONE_PLUS_NORM = "one_plus_norm"         # 1 + |v|


#: Module default: the smooth bracket, needed wherever we differentiate.
DEFAULT_CONVENTION = LambdaConvention.SQRT_SUM_SQUARES


class DegenerateWeightError(ValueError):
    """Weight vanished where the temperedness ratio needs to divide by it."""


def norm(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return np.sqrt(np.sum(points * points, axis=-1))


def bracket(points, conv: LambdaConvention = DEFAULT_CONVENTION) -> np.ndarray:
    """The weight lambda(v): smooth (1+|v|^2)^(1/2) or literal 1+|v|."""
    r = norm(points)
    if conv is LambdaConvention.ONE_PLUS_NORM:
        return 1.0 + r
    return np.sqrt(1.0 + r * r)


@dataclass(frozen=True)
class WeightSpec:
    """A positive scalar field with optional temperedness metadata (C0, l)."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    C0: Optional[float]
    l: Optional[float]
    tag: str

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None] if self.dim == 1 else points[None, :]
        if points.shape[-1] != self.dim:
            raise ValueError(
                f"weight '{self.tag}' has dim {self.dim}, got points of dim "
                f"{points.shape[-1]}"
            )
        return np.asarray(self.fn(points), dtype=float)


def lambda_weight(p: float, dim: int,
                  conv: LambdaConvention = DEFAULT_CONVENTION) -> WeightSpec:
    """The model weight lambda^p.

    Temperedness metadata: l = |p| with C0 = 1 for the 1+|v| form.  The
    smooth form obeys lambda(x) <= sqrt(2)*lambda(x1)*(1+|x1-x|), so it gets
    C0 = 2^(|p|/2), which must be finite (ValueError otherwise).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    try:
        c0 = 1.0 if conv is LambdaConvention.ONE_PLUS_NORM \
            else 2.0 ** (abs(p) / 2.0)
    except OverflowError:
        c0 = np.inf
    if not np.isfinite(c0):
        raise ValueError(f"lambda weight p = {p:g}: C0 = {c0} is not finite")
    return WeightSpec(
        dim=dim,
        fn=lambda pts: bracket(pts, conv) ** p,
        C0=c0,
        l=abs(p),
        tag=f"lambda:p={p:g}",
    )


def constant_weight(value: float, dim: int) -> WeightSpec:
    if value <= 0:
        raise ValueError("constant weight must be positive")
    return WeightSpec(
        dim=dim,
        fn=lambda pts: np.full(pts.shape[:-1], float(value)),
        C0=1.0,
        l=0.0,
        tag=f"const:{value:g}",
    )


@dataclass(frozen=True)
class TemperedReport:
    C0_estimate: float
    passed: bool
    l_candidate: float
    witness: Optional[tuple] = None


def verify_tempered(w: WeightSpec, pairs, l_candidate: float,
                    c0_cap: float = 1e6) -> TemperedReport:
    """Estimate C0 = max m(x) / (m(x1) * (1+|x1-x|)^l) over the given pairs.

    This is a sampling check, never a proof.  `pairs` is an iterable of
    (x, x1) point pairs (or an array of shape (k, 2, dim)).
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim == 2 and w.dim == 1:
        pairs = pairs[:, :, None]
    if pairs.size == 0:
        raise ValueError("pairs must be nonempty")
    x = pairs[:, 0]
    x1 = pairs[:, 1]
    mx = w(x)
    mx1 = w(x1)
    if np.any(mx1 == 0.0):
        bad = x1[np.argmax(mx1 == 0.0)]
        raise DegenerateWeightError(f"weight '{w.tag}' vanishes at {bad}")
    dist = norm(x1 - x)
    ratio = mx / (mx1 * (1.0 + dist) ** l_candidate)
    i = int(np.argmax(ratio))
    c0 = float(ratio[i])
    passed = bool(np.isfinite(c0) and c0 <= c0_cap)
    witness = None if passed else (tuple(x[i]), tuple(x1[i]))
    return TemperedReport(C0_estimate=c0, passed=passed,
                          l_candidate=l_candidate, witness=witness)


def weight_product(w1: WeightSpec, w2: WeightSpec) -> WeightSpec:
    if w1.dim != w2.dim:
        raise ValueError(f"dimension mismatch: {w1.dim} vs {w2.dim}")
    if w1.C0 is not None and w2.C0 is not None:
        c0, l = w1.C0 * w2.C0, (w1.l or 0.0) + (w2.l or 0.0)
    else:
        c0 = l = None
    return WeightSpec(
        dim=w1.dim,
        fn=lambda pts, a=w1.fn, b=w2.fn: a(pts) * b(pts),
        C0=c0,
        l=l,
        tag=f"({w1.tag})*({w2.tag})",
    )


def parse_weight(tag: str, dim: int) -> WeightSpec:
    """Parse a config weight tag: `lambda:p=2`, `const:1`, `expr:<formula>`.

    An `expr:` formula is read by `expressions.parse_scalar_expr` over the
    components v1..vd, so it has the names and checks of every fiolab
    formula (`r` is |v| and `lam` the smooth bracket weight); a formula
    that fails them or is not real raises ValueError.
    """
    tag = tag.strip()
    if tag.startswith("lambda:"):
        body = tag[len("lambda:"):]
        if not body.startswith("p="):
            raise ValueError(f"bad lambda weight tag: {tag!r}")
        return lambda_weight(float(body[2:]), dim)
    if tag.startswith("const:"):
        return constant_weight(float(tag[len("const:"):]), dim)
    if tag.startswith("expr:"):
        comps = sp.symbols(f"v1:{dim + 1}")
        expr = parse_scalar_expr(tag[len("expr:"):], comps)
        if expr.is_extended_real is False or expr.has(sp.I):
            raise ValueError(f"weight {tag!r} is not real")
        return WeightSpec(dim=dim,
                          fn=lambda pts: evaluate(expr, comps, pts),
                          C0=None, l=None, tag=tag)
    raise ValueError(f"unknown weight tag: {tag!r}")
