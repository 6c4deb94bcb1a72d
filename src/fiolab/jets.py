"""Truncated Taylor jets in (y, theta), for integration by parts.

A jet of order n at a point holds the Taylor coefficients
w_ab = d_y^a d_theta^b w / (a! b!) for a + b <= n, in graded order (degree
by degree, a descending), so the jet truncated to a lower order is a prefix
of its rows.  Arrays are coefficient-major, shape (ncoef, lanes, points):
one lane for a real function, two (real and imaginary part) for a complex
one, so every product of jets is real arithmetic.

A product of two jets is a convolution of their coefficients.  It is
evaluated as a gather over a table of coefficient pairs followed by one
GEMM with a summing matrix; a derivative is a shift of the coefficients,
folded into that matrix.  Every coefficient is exact Taylor arithmetic
(Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13),
not a difference quotient.  The input jets come from symbolic derivatives.
"""
from __future__ import annotations

import functools
import math
from typing import List, Tuple

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter


@functools.cache
def jet_indices(order: int) -> Tuple[Tuple[int, int], ...]:
    """The multi-indices (a, b) with a + b <= order, in graded order."""
    return tuple((a, d - a) for d in range(order + 1)
                 for a in range(d, -1, -1))


def derivatives(expr: sp.Expr, y: sp.Symbol, t: sp.Symbol,
                order: int) -> List[sp.Expr]:
    """d_y^a d_t^b expr for every (a, b) of `jet_indices(order)`, each
    taken from the previous one by a single derivative."""
    out = {(0, 0): expr}
    for a, b in jet_indices(order)[1:]:
        out[a, b] = (sp.diff(out[a, b - 1], t) if b
                     else sp.diff(out[a - 1, 0], y))
    return [out[ab] for ab in jet_indices(order)]


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


def lambdify(args, exprs: List[sp.Expr], modules="numpy"):
    """sympy.lambdify of a derivative list, with common subexpressions
    eliminated and integer powers multiplied out."""
    printer = _ProductPowerPrinter({
        "fully_qualified_modules": False, "inline": True,
        "allow_unknown_functions": True, "user_functions": {}})
    return sp.lambdify(args, exprs, modules=modules, cse=True,
                       printer=printer)


@functools.cache
def _inverse_factorials(order: int) -> np.ndarray:
    return np.array([1.0 / (math.factorial(a) * math.factorial(b))
                     for a, b in jet_indices(order)])


def evaluate(fn, y: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
    """The jets, shape (ncoef, lanes, points), of a function lambdified
    from `derivatives(..., order)`: each derivative is scaled by
    1/(a! b!).  When fn returns r derivative lists interleaved (the i-th
    derivative of each, in turn), row r*i + j of the result is coefficient
    i of the j-th function."""
    values = fn(y, t)
    repeat = len(values) // len(jet_indices(order))
    lanes = 2 if any(np.iscomplexobj(v) for v in values) else 1
    out = np.empty((len(values), lanes, y.size))
    for row, value in zip(out, values):
        row[0] = np.real(value)
        if lanes == 2:
            row[1] = np.imag(value)
    out *= np.repeat(_inverse_factorials(order), repeat)[:, None, None]
    return out


def _gather_sum(left: np.ndarray, right: np.ndarray, ia, ib,
                matrix: np.ndarray) -> np.ndarray:
    """matrix @ (left[ia] * right[ib]) over the pair index, per lane and
    point."""
    pairs = left[ia] * right[ib]
    lanes = pairs.shape[1]
    return (matrix @ pairs.reshape(len(ia), -1)).reshape(
        matrix.shape[0], lanes, -1)


@functools.cache
def _product_table(order: int):
    index = jet_indices(order)
    position = {ab: i for i, ab in enumerate(index)}
    ia, ib, rows = [], [], []
    for i, (a1, b1) in enumerate(index):
        for j, (a2, b2) in enumerate(index):
            if a1 + a2 + b1 + b2 <= order:
                ia.append(i)
                ib.append(j)
                rows.append(position[a1 + a2, b1 + b2])
    matrix = np.zeros((len(index), len(ia)))
    matrix[rows, np.arange(len(ia))] = 1.0
    return np.array(ia), np.array(ib), matrix


def multiply(f: np.ndarray, g: np.ndarray, order: int) -> np.ndarray:
    """The product jet f g, truncated to `order` (f and g are jets of at
    least that order; a one-lane jet multiplies each lane of the other)."""
    ia, ib, matrix = _product_table(order)
    return _gather_sum(f, g, ia, ib, matrix)


@functools.cache
def _divergence_table(order: int):
    """Pairs and weights of w -> d_y(c_y w) + d_t(c_t w), from a jet of
    `order` to one of order - 1; c_y and c_t are read interleaved (row
    2i is coefficient i of c_y, row 2i + 1 that of c_t)."""
    index = jet_indices(order)
    lower = {ab: i for i, ab in enumerate(jet_indices(order - 1))}
    ia, ib, rows, weights = [], [], [], []
    for axis in (0, 1):
        for i, alpha in enumerate(index):
            for j, beta in enumerate(index):
                gamma = [alpha[0] + beta[0], alpha[1] + beta[1]]
                if sum(gamma) > order or gamma[axis] == 0:
                    continue
                ia.append(2 * i + axis)
                ib.append(j)
                # d/d axis of the monomial: gamma[axis] times one degree less
                weights.append(float(gamma[axis]))
                gamma[axis] -= 1
                rows.append(lower[tuple(gamma)])
    matrix = np.zeros((len(lower), len(ia)))
    matrix[rows, np.arange(len(ia))] = weights
    return np.array(ia), np.array(ib), matrix


def divergence_power(c: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """T^k w at the expansion points, shape (lanes, points), where
    T w = d_y(c_y w) + d_t(c_t w): w is a jet of order k and c the
    interleaved jets of (c_y, c_t) of order at least k.  Each step costs
    one order of the jet."""
    for order in range(k, 0, -1):
        ia, ib, matrix = _divergence_table(order)
        w = _gather_sum(c, w, ia, ib, matrix)
    return w[0]


def as_complex(lanes: np.ndarray) -> np.ndarray:
    """A complex array from the (one or two) lanes of a jet coefficient."""
    return lanes[0] + 1j * lanes[1] if len(lanes) == 2 else lanes[0] + 0j
