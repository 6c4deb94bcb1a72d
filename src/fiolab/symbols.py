"""Weighted symbol classes: evaluable smooth fields with seminorm checks.

A field `a` belongs to the class with weight (m, rho) when every derivative
obeys |d^alpha a| <= C_alpha * m * lambda^(-rho*|alpha|).  Class metadata is
declared by the constructor and *verified* on grids, never inferred.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from .expressions import (coord_symbols, diff_multi, evaluate,
                          parse_scalar_expr)
from .grids import GridSpec
from .weights import (WeightSpec, bracket, constant_weight, lambda_weight,
                      weight_product)

#: highest derivative order allowed for black-box (finite-difference) fields
FD_MAX_ORDER = 4


class DerivativeOrderError(ValueError):
    pass


class DomainError(ValueError):
    pass


class LowerBoundError(ValueError):
    """Reciprocal lower bound |a| >= C0*lambda^mu failed; carries a witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


@dataclass
class SeminormTable:
    """Estimated constants C_alpha per multi-index, with the grid used."""

    entries: dict = field(default_factory=dict)
    grid: Optional[dict] = None

    def record(self, alpha: Tuple[int, ...], value: float, grid: GridSpec):
        self.entries[tuple(alpha)] = float(value)
        self.grid = grid.descriptor()

    def to_json(self) -> str:
        payload = {
            "entries": [
                {"alpha": list(a), "C_alpha": c}
                for a, c in sorted(self.entries.items())
            ],
            "grid": self.grid,
        }
        return json.dumps(payload, sort_keys=True)


@dataclass
class SymbolField:
    """A smooth complex field with declared class metadata (weight m, rho).

    Fields built from the expression grammar carry exact derivatives of any
    order; black-box callables fall back to central differences with one
    Richardson level, capped at order FD_MAX_ORDER.
    """

    variables: Tuple[sp.Symbol, ...]
    weight: WeightSpec
    rho: float
    expr: Optional[sp.Expr] = None
    fn: Optional[Callable] = None
    domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    seminorms: SeminormTable = field(default_factory=SeminormTable)

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.expr is None and self.fn is None:
            raise ValueError("need an expression or a callable")
        if self.weight.dim != self.dim:
            raise ValueError("weight dimension must match field dimension")

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def has_exact_derivatives(self) -> bool:
        return self.expr is not None

    def __call__(self, points) -> np.ndarray:
        points = self._check_domain(points)
        if self.expr is not None:
            return evaluate(self.expr, self.variables, points)
        return np.asarray(self.fn(points))

    def _check_domain(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1 and self.dim == 1:
            points = points[:, None]
        if self.domain is not None:
            inside = np.asarray(self.domain(points))
            if not np.all(inside):
                bad = points[np.argmin(inside)]
                raise DomainError(f"point {bad} outside symbol domain")
        return points

    @classmethod
    def from_expr(cls, expr, variables, weight=None, rho=0.0, domain=None):
        variables = tuple(variables)
        if isinstance(expr, str):
            expr = parse_scalar_expr(expr, variables)
        if weight is None:
            weight = constant_weight(1.0, len(variables))
        return cls(variables=variables, weight=weight, rho=rho,
                   expr=sp.sympify(expr), domain=domain)

    @classmethod
    def constant(cls, value, dim, weight=None, rho=0.0):
        variables = coord_symbols("v", dim)
        if weight is None:
            weight = constant_weight(1.0, dim)
        return cls(variables=variables, weight=weight, rho=rho,
                   expr=sp.sympify(value))


def as_expr(a, variables: Sequence[sp.Symbol]) -> sp.Expr:
    """`a` as a sympy expression over the caller's `variables`.

    `a` is a formula string, a sympy expression, an expression-backed
    SymbolField on as many coordinates (renamed to `variables`) or a number.
    A number is parsed from its repr: sympify(0.1 + 0.2) would keep only 15
    digits and lambdify to 0.3.
    """
    if isinstance(a, str):
        return parse_scalar_expr(a, variables)
    if isinstance(a, SymbolField):
        if a.expr is None:
            raise ValueError("need an expression-backed field")
        if a.dim != len(variables):
            raise ValueError(
                f"field must live on {len(variables)} coordinates")
        return a.expr.xreplace(dict(zip(a.variables, variables)))
    if isinstance(a, sp.Expr):
        return a
    return sp.sympify(repr(complex(a)))


def _fd_derivative(fn, point, alpha, dim):
    """Central differences with one Richardson level along each axis in turn."""
    order = sum(alpha)
    if order == 0:
        return complex(np.asarray(fn(point[None, :])).ravel()[0]), 0.0

    # peel one derivative off the first active axis, recurse on the rest
    axis = next(i for i, k in enumerate(alpha) if k)
    rest = list(alpha)
    rest[axis] -= 1
    h = (np.finfo(float).eps ** (1.0 / 3.0)) * max(1.0, abs(point[axis]))

    def d(hh):
        p_plus = point.copy()
        p_minus = point.copy()
        p_plus[axis] += hh
        p_minus[axis] -= hh
        vp, _ = _fd_derivative(fn, p_plus, tuple(rest), dim)
        vm, _ = _fd_derivative(fn, p_minus, tuple(rest), dim)
        return (vp - vm) / (2.0 * hh)

    d1 = d(h)
    d2 = d(h / 2.0)
    richardson = (4.0 * d2 - d1) / 3.0
    return richardson, abs(richardson - d2)


def eval_derivative(a: SymbolField, point, alpha) -> Tuple[complex, float]:
    """Derivative d^alpha a(point); returns (value, error_estimate)."""
    alpha = tuple(int(k) for k in np.atleast_1d(alpha))
    if len(alpha) != a.dim:
        raise ValueError("multi-index length must match field dimension")
    point = np.atleast_1d(np.asarray(point, dtype=float))
    a._check_domain(point[None, :])
    if a.has_exact_derivatives:
        d = diff_multi(a.expr, a.variables, alpha)
        val = evaluate(d, a.variables, point[None, :]).ravel()[0]
        return complex(val), 0.0
    if sum(alpha) > FD_MAX_ORDER:
        raise DerivativeOrderError(
            f"order {sum(alpha)} exceeds finite-difference cap {FD_MAX_ORDER}"
        )
    return _fd_derivative(a.fn, point.copy(), alpha, a.dim)


def _derivative_values(a: SymbolField, alpha, points) -> np.ndarray:
    if a.has_exact_derivatives:
        d = diff_multi(a.expr, a.variables, alpha)
        return evaluate(d, a.variables, points)
    return np.array([eval_derivative(a, p, alpha)[0] for p in points])


def seminorm_estimate(a: SymbolField, alpha, grid) -> float:
    """sup over the grid of |d^alpha a| / (m * lambda^(-rho|alpha|))."""
    alpha = tuple(int(k) for k in np.atleast_1d(alpha))
    if isinstance(grid, GridSpec):
        points = grid.mesh()
        gdesc = grid
    else:
        points = np.asarray(grid, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        gdesc = GridSpec(a.dim, float(np.max(np.abs(points))) or 1.0,
                         len(points))
    points = a._check_domain(points)
    num = np.abs(_derivative_values(a, alpha, points))
    w = a.weight(points)
    if np.any(w == 0.0):
        raise ZeroDivisionError("weight vanishes on the grid")
    denom = w * bracket(points) ** (-a.rho * sum(alpha))
    est = float(np.max(num / denom))
    a.seminorms.record(alpha, est, gdesc)
    return est


def derivative_symbol(a: SymbolField, alpha) -> SymbolField:
    """d^alpha a, declared in the class with weight m*lambda^(-rho|alpha|)."""
    alpha = tuple(int(k) for k in np.atleast_1d(alpha))
    if not a.has_exact_derivatives:
        raise DerivativeOrderError("derivative_symbol needs exact derivatives")
    new_weight = a.weight
    if a.rho * sum(alpha) != 0:
        new_weight = weight_product(
            a.weight, lambda_weight(-a.rho * sum(alpha), a.dim))
    return SymbolField(variables=a.variables, weight=new_weight, rho=a.rho,
                       expr=diff_multi(a.expr, a.variables, alpha),
                       domain=a.domain)


def product_symbol(a: SymbolField, b: SymbolField) -> SymbolField:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.variables != b.variables:
        raise ValueError("fields must share coordinate symbols")
    rho = min(a.rho, b.rho)
    weight = weight_product(a.weight, b.weight)
    if a.has_exact_derivatives and b.has_exact_derivatives:
        return SymbolField(variables=a.variables, weight=weight, rho=rho,
                           expr=a.expr * b.expr, domain=a.domain or b.domain)
    return SymbolField(
        variables=a.variables, weight=weight, rho=rho,
        fn=lambda pts: np.asarray(a(pts)) * np.asarray(b(pts)),
        domain=a.domain or b.domain)


def reciprocal_symbol(a: SymbolField, C0: float, mu: float,
                      grid=None) -> SymbolField:
    """1/a with weight m*lambda^(-2*mu), after checking |a| >= C0*lambda^mu."""
    if grid is None:
        grid = GridSpec(a.dim, 8.0, 17)
    points = grid.mesh() if isinstance(grid, GridSpec) else np.asarray(grid)
    if points.ndim == 1:
        points = points[:, None]
    vals = np.abs(a(points))
    floor = C0 * bracket(points) ** mu
    bad = vals < floor
    if np.any(bad):
        i = int(np.argmax(bad))
        raise LowerBoundError(
            f"|a| = {vals[i]:.6g} < {floor[i]:.6g} at {points[i]}",
            witness=tuple(points[i]))
    weight = weight_product(a.weight, lambda_weight(-2.0 * mu, a.dim))
    if a.has_exact_derivatives:
        return SymbolField(variables=a.variables, weight=weight, rho=a.rho,
                           expr=1 / a.expr, domain=a.domain)
    return SymbolField(variables=a.variables, weight=weight, rho=a.rho,
                       fn=lambda pts: 1.0 / np.asarray(a(pts)),
                       domain=a.domain)
