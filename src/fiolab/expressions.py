"""Shared sympy plumbing: coordinate symbols, cached lambdify, vector eval."""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import sympy as sp

_LAMBDIFY_CACHE: dict = {}


def coord_symbols(prefix: str, count: int) -> Tuple[sp.Symbol, ...]:
    """Real coordinate symbols prefix0..prefix{count-1}."""
    return tuple(sp.Symbol(f"{prefix}{i}", real=True) for i in range(count))


def lambdified(expr: sp.Expr, variables: Sequence[sp.Symbol]):
    key = (sp.srepr(expr), tuple(variables))
    fn = _LAMBDIFY_CACHE.get(key)
    if fn is None:
        fn = sp.lambdify(tuple(variables), expr, modules="numpy")
        _LAMBDIFY_CACHE[key] = fn
    return fn


def evaluate(expr: sp.Expr, variables: Sequence[sp.Symbol], points) -> np.ndarray:
    """Evaluate `expr` on points of shape (..., len(variables)).

    Returns an array of shape points.shape[:-1]; complex iff the result is.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1 and len(variables) == 1:
        points = points[:, None]
    if points.shape[-1] != len(variables):
        raise ValueError(
            f"expected points of dim {len(variables)}, got {points.shape[-1]}"
        )
    fn = lambdified(expr, variables)
    cols = [points[..., i] for i in range(len(variables))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = fn(*cols)
    out = np.asarray(out)
    if out.shape != points.shape[:-1]:
        out = np.broadcast_to(out, points.shape[:-1]).copy()
    return out


def parse_scalar_expr(formula: str, variables: Sequence[sp.Symbol]) -> sp.Expr:
    """Parse a formula over the given coordinate symbols.

    Allowed besides the coordinates: exp, sin, cos, sqrt, pi, I, and `lam`
    (the smooth bracket over all coordinates).  A bare prefix stands for the
    one coordinate that carries it: over (x0, y0, theta0) a formula may write
    x, y and theta, while over (x0, x1) a bare x stays undefined.
    """
    local = {str(v): v for v in variables}
    prefixes = [str(v).rstrip("0123456789") for v in variables]
    for prefix, v in zip(prefixes, variables):
        if prefix != str(v) and prefixes.count(prefix) == 1:
            local.setdefault(prefix, v)
    local["lam"] = sp.sqrt(1 + sum(v ** 2 for v in variables))
    local.update({"exp": sp.exp, "sin": sp.sin, "cos": sp.cos,
                  "sqrt": sp.sqrt, "pi": sp.pi, "I": sp.I})
    return sp.sympify(formula, locals=local)


def multi_indices(dim: int, max_total: int, min_total: int = 0):
    """All multi-indices alpha in N^dim with min_total <= |alpha| <= max_total."""
    def rec(d, budget):
        if d == 1:
            for i in range(budget + 1):
                yield (i,)
            return
        for i in range(budget + 1):
            for rest in rec(d - 1, budget - i):
                yield (i,) + rest
    for idx in rec(dim, max_total):
        if min_total <= sum(idx) <= max_total:
            yield idx


def diff_multi(expr: sp.Expr, variables: Sequence[sp.Symbol],
               alpha: Sequence[int]) -> sp.Expr:
    if len(alpha) != len(variables):
        raise ValueError("multi-index length must match variable count")
    out = expr
    for v, k in zip(variables, alpha):
        if k:
            out = sp.diff(out, v, k)
    return out
