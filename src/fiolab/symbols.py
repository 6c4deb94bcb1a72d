"""Weighted symbol classes: evaluable smooth fields with seminorm checks.

A field `a` belongs to the class with weight (m, rho) when every derivative
obeys |d^alpha a| <= C_alpha * m * lambda^(-rho*|alpha|).  Class metadata is
declared by the constructor and *verified* on grids, never inferred.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import sympy as sp

from .expressions import check_names, coord_symbols, diff_multi, evaluate
from .grids import GridSpec
from .weights import (WeightSpec, bracket, constant_weight, lambda_weight,
                      weight_product)


class LowerBoundError(ValueError):
    """Reciprocal lower bound |a| >= C0*lambda^mu failed; carries a witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


@dataclass
class SymbolField:
    """A smooth complex field `expr` over `variables`, with declared class
    metadata (weight m, rho) and exact derivatives of any order."""

    variables: Tuple[sp.Symbol, ...]
    weight: WeightSpec
    rho: float
    expr: sp.Expr

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.weight.dim != self.dim:
            raise ValueError("weight dimension must match field dimension")

    @property
    def dim(self) -> int:
        return len(self.variables)

    def __call__(self, points) -> np.ndarray:
        return evaluate(self.expr, self.variables, points)

    def derivative(self, alpha, points) -> np.ndarray:
        """d^alpha a on points of shape (..., dim)."""
        d = diff_multi(self.expr, self.variables, alpha)
        return evaluate(d, self.variables, points)

    @classmethod
    def from_expr(cls, expr, variables, weight=None, rho=0.0):
        variables = tuple(variables)
        if weight is None:
            weight = constant_weight(1.0, len(variables))
        return cls(variables=variables, weight=weight, rho=rho,
                   expr=check_names(expr, variables))

    @classmethod
    def constant(cls, value, dim, weight=None):
        variables = coord_symbols("v", dim)
        if weight is None:
            weight = constant_weight(1.0, dim)
        return cls(variables=variables, weight=weight, rho=0.0,
                   expr=check_names(value, variables))


def as_expr(a, variables: Sequence[sp.Symbol]) -> sp.Expr:
    """`a` as a sympy expression over the caller's `variables`.

    `a` is a formula string, a sympy expression, a SymbolField on as many
    coordinates (renamed to `variables`) or a number.  A string, or a
    number as its repr, goes through `parse_scalar_expr`: sympify(0.1 + 0.2)
    would keep only 15 digits and lambdify to 0.3, and the repr of inf or
    nan is rejected.  A symbol outside `variables` raises ValueError.
    """
    if isinstance(a, SymbolField):
        if a.dim != len(variables):
            raise ValueError(
                f"field must live on {len(variables)} coordinates")
        a = a.expr.xreplace(dict(zip(a.variables, variables)))
    elif not isinstance(a, (str, sp.Expr)):
        a = repr(complex(a))
    return check_names(a, variables)


def seminorm_estimate(a: SymbolField, alpha, grid: GridSpec) -> float:
    """sup over the grid of |d^alpha a| / (m * lambda^(-rho|alpha|)).

    Raises ValueError unless the weight is finite and positive on the grid.
    """
    alpha = tuple(int(k) for k in np.atleast_1d(alpha))
    points = grid.mesh()
    num = np.abs(a.derivative(alpha, points))
    w = a.weight(points)
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise ValueError(
            f"weight '{a.weight.tag}' is not finite and positive on the grid")
    denom = w * bracket(points) ** (-a.rho * sum(alpha))
    return float(np.max(num / denom))


def derivative_symbol(a: SymbolField, alpha) -> SymbolField:
    """d^alpha a, declared in the class with weight m*lambda^(-rho|alpha|)."""
    alpha = tuple(int(k) for k in np.atleast_1d(alpha))
    new_weight = a.weight
    if a.rho * sum(alpha) != 0:
        new_weight = weight_product(
            a.weight, lambda_weight(-a.rho * sum(alpha), a.dim))
    return SymbolField(variables=a.variables, weight=new_weight, rho=a.rho,
                       expr=diff_multi(a.expr, a.variables, alpha))


def product_symbol(a: SymbolField, b: SymbolField) -> SymbolField:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.variables != b.variables:
        raise ValueError("fields must share coordinate symbols")
    rho = min(a.rho, b.rho)
    weight = weight_product(a.weight, b.weight)
    return SymbolField(variables=a.variables, weight=weight, rho=rho,
                       expr=a.expr * b.expr)


def reciprocal_symbol(a: SymbolField, C0: float, mu: float,
                      grid=None) -> SymbolField:
    """1/a with weight m*lambda^(-2*mu), after checking |a| >= C0*lambda^mu
    on `grid` (a GridSpec; by default 17 points per axis on [-8, 8]^dim)."""
    if grid is None:
        grid = GridSpec(a.dim, 8.0, 17)
    points = grid.mesh()
    vals = np.abs(a(points))
    floor = C0 * bracket(points) ** mu
    bad = vals < floor
    if np.any(bad):
        i = int(np.argmax(bad))
        raise LowerBoundError(
            f"|a| = {vals[i]:.6g} < {floor[i]:.6g} at {points[i]}",
            witness=tuple(points[i]))
    weight = weight_product(a.weight, lambda_weight(-2.0 * mu, a.dim))
    return SymbolField(variables=a.variables, weight=weight, rho=a.rho,
                       expr=1 / a.expr)
