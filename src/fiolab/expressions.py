"""Shared sympy plumbing: coordinate symbols, formulas, derivatives, and
`lambdify`, fiolab's one call of `sympy.lambdify`.  Its code names numpy
functions by qualified name (numpy.exp) in a namespace holding only the
numpy module, so no call runs `from numpy import *`, which would import
numpy.f2py and numpy.testing.
"""
from __future__ import annotations

import io
import tokenize
from typing import Optional, Sequence, Tuple

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

_LAMBDIFY_CACHE: dict = {}


class _ProductPowerPrinter(NumPyPrinter):
    """NumPyPrinter that writes x**n, for an integer 2 <= |n| <= 8, as a
    product: numpy evaluates a power other than 2 or -1 with pow(), several
    times slower than the multiplications."""

    def _print_Pow(self, expr, rational=False):
        n = expr.exp
        if n.is_Integer and 2 <= abs(n) <= 8:
            product = "*".join([f"({self._print(expr.base)})"] * abs(int(n)))
            return f"({product})" if n > 0 else f"(1/({product}))"
        return super()._print_Pow(expr, rational=rational)


def lambdify(args, expr, functions: Optional[dict] = None):
    """The numpy function of `expr` (an expression or a list of them) over
    `args`, with common subexpressions eliminated and integer powers
    multiplied out.  `functions` maps the names of undefined sympy
    functions in `expr` to their numpy implementations."""
    printer = _ProductPowerPrinter({
        "fully_qualified_modules": True, "inline": True,
        "allow_unknown_functions": True, "user_functions": {}})
    namespace = {"numpy": np}
    modules = [functions, namespace] if functions else [namespace]
    return sp.lambdify(args, expr, modules=modules, cse=True,
                       printer=printer)


def coord_symbols(prefix: str, count: int) -> Tuple[sp.Symbol, ...]:
    """Real coordinate symbols prefix0..prefix{count-1}."""
    return tuple(sp.Symbol(f"{prefix}{i}", real=True) for i in range(count))


def lambdified(expr: sp.Expr, variables: Sequence[sp.Symbol]):
    key = (sp.srepr(expr), tuple(variables))
    fn = _LAMBDIFY_CACHE.get(key)
    if fn is None:
        fn = lambdify(tuple(variables), expr)
        _LAMBDIFY_CACHE[key] = fn
    return fn


def evaluate(expr: sp.Expr, variables: Sequence[sp.Symbol], points) -> np.ndarray:
    """Evaluate `expr` on points of shape (..., len(variables)).

    Returns an array of shape points.shape[:-1]; complex iff the result is.
    A constant expression comes back as a read-only broadcast view of its
    one value, which holds no buffer of that shape.
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
        out = np.broadcast_to(out, points.shape[:-1])
    return out


def parse_scalar_expr(formula: str, variables: Sequence[sp.Symbol]) -> sp.Expr:
    """Parse a formula over the given coordinate symbols: fiolab's one path
    from formula text to a sympy expression.

    Python's arithmetic operators, numbers and these names are allowed: the
    coordinates, exp, log, sin, cos, sqrt, pi, I, `lam` (the smooth bracket
    over all coordinates) and `r` (their Euclidean norm).  A bare prefix
    stands for the one coordinate that carries it: over (x0, y0, theta0) a
    formula may write x, y and theta, while over (x0, x1) a bare x is
    undefined.  The names are read from the formula's tokens before sympy
    evaluates it, so any other name, a string literal or a factorial `!`
    raises ValueError naming it, as does text that does not parse or a
    result that is not a finite expression.
    """
    local = {str(v): v for v in variables}
    prefixes = [str(v).rstrip("0123456789") for v in variables]
    for prefix, v in zip(prefixes, variables):
        if prefix != str(v) and prefixes.count(prefix) == 1:
            local.setdefault(prefix, v)
    norm2 = sum(v ** 2 for v in variables)
    local.update(lam=sp.sqrt(1 + norm2), r=sp.sqrt(norm2), exp=sp.exp,
                 log=sp.log, sin=sp.sin, cos=sp.cos, sqrt=sp.sqrt, pi=sp.pi,
                 I=sp.I)
    formula = formula.replace("\n", "")  # as sympify does before it parses
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(formula).readline))
        undefined = sorted({tok.string for tok in tokens
                            if tok.type == tokenize.NAME} - set(local))
        if undefined:
            raise ValueError(f"names undefined {', '.join(undefined)}")
        for tok in tokens:
            if tok.type == tokenize.STRING or tok.string == "!":
                raise ValueError(f"{tok.string!r} is not allowed")
        expr = sp.sympify(formula, locals=local)
    except (tokenize.TokenError, SyntaxError, sp.SympifyError, TypeError,
            AttributeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad formula {formula!r}: {exc}") from exc
    if not isinstance(expr, sp.Expr):
        raise ValueError(f"formula {formula!r} is not an expression")
    if expr.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        raise ValueError(f"formula {formula!r} is not finite")
    return expr


def check_names(expr, variables: Sequence[sp.Symbol]) -> sp.Expr:
    """`expr` as a sympy expression that names no symbol outside
    `variables`.  Text goes through `parse_scalar_expr`; a sympy expression
    or a number through sympify in strict mode, which reads no text, and a
    symbol outside `variables` raises ValueError naming it."""
    if isinstance(expr, str):
        return parse_scalar_expr(expr, variables)
    expr = sp.sympify(expr, strict=True)
    stray = expr.free_symbols - set(variables)
    if stray:
        raise ValueError(
            f"{expr} names {', '.join(sorted(map(str, stray)))}, not among "
            f"its variables {', '.join(map(str, variables))}")
    return expr


def multi_indices(dim: int, max_total: int):
    """All multi-indices alpha in N^dim with |alpha| <= max_total; a
    negative max_total raises ValueError."""
    if max_total < 0:
        raise ValueError(f"derivative order {max_total} must be >= 0")
    if dim == 1:
        for i in range(max_total + 1):
            yield (i,)
        return
    for i in range(max_total + 1):
        for rest in multi_indices(dim - 1, max_total - i):
            yield (i,) + rest


def diff_multi(expr: sp.Expr, variables: Sequence[sp.Symbol],
               alpha: Sequence[int]) -> sp.Expr:
    if len(alpha) != len(variables):
        raise ValueError("multi-index length must match variable count")
    out = expr
    for v, k in zip(variables, alpha):
        if k:
            out = sp.diff(out, v, k)
    return out
