"""Truncated Taylor jets in (y, theta), for integration by parts.

A jet of order n at a point holds the Taylor coefficients
w_ab = d_y^a d_theta^b w / (a! b!) for a + b <= n, in graded order (degree
by degree, a descending), so the jet truncated to a lower order is a prefix
of its rows.  Arrays are coefficient-major, shape (ncoef, lanes, points):
one lane for a real function, two (real and imaginary part) for a complex
one, so every product of jets is real arithmetic.

A product of two jets is a convolution of their coefficients, and a
derivative is a shift of them.  Both follow a plan of coefficient pairs
(a, b, row, weight): one kernel multiplies row a of one jet by row b of
the other, scales the product by the weight (a derivative's factor) and
adds it in place to the output row, so each pair costs one product of
(lanes, points) arrays.  Every coefficient is exact Taylor arithmetic
(Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13),
not a difference quotient.  The input jets are values of the symbolic
derivatives listed by `derivatives`, turned into one numpy function by
`expressions.lambdify`.
"""
from __future__ import annotations

import functools
import math
from typing import List, Tuple

import numpy as np
import sympy as sp


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


@functools.cache
def _inverse_factorials(order: int) -> np.ndarray:
    return np.array([1.0 / (math.factorial(a) * math.factorial(b))
                     for a, b in jet_indices(order)])


def evaluate(fn, y: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
    """The jets, shape (ncoef, lanes, points), of a function that
    `expressions.lambdify` built from `derivatives(..., order)`: each
    derivative is scaled by 1/(a! b!).  When fn returns r derivative lists
    interleaved (the i-th derivative of each, in turn), row r*i + j of the
    result is coefficient i of the j-th function."""
    return from_values(fn(y, t), y.size, order)


def from_values(values, size: int, order: int) -> np.ndarray:
    """`evaluate` of the derivative values such a function returned at
    `size` points."""
    repeat = len(values) // len(jet_indices(order))
    lanes = 2 if any(np.iscomplexobj(v) for v in values) else 1
    out = np.empty((len(values), lanes, size))
    scales = np.repeat(_inverse_factorials(order), repeat)
    for row, value, scale in zip(out, values, scales):
        np.multiply(np.real(value), scale, out=row[0])
        if lanes == 2:
            np.multiply(np.imag(value), scale, out=row[1])
    return out


def _accumulate(left: np.ndarray, right: np.ndarray, plan,
                rows: int) -> np.ndarray:
    """The jet whose row r is the sum of weight * left[a] * right[b] over
    the plan's pairs (a, b, r, weight), per lane and point; a one-lane jet
    multiplies each lane of a two-lane one."""
    shape = np.broadcast_shapes(left.shape[1:], right.shape[1:])
    out = np.zeros((rows, *shape))
    tmp = np.empty(shape)
    for a, b, row, weight in plan:
        np.multiply(left[a], right[b], out=tmp)
        if weight != 1.0:
            tmp *= weight
        out[row] += tmp
    return out


@functools.cache
def _product_table(order: int):
    index = jet_indices(order)
    position = {ab: i for i, ab in enumerate(index)}
    return tuple((i, j, position[a1 + a2, b1 + b2], 1.0)
                 for i, (a1, b1) in enumerate(index)
                 for j, (a2, b2) in enumerate(index)
                 if a1 + a2 + b1 + b2 <= order)


@functools.cache
def _shift_table(order: int):
    """`_product_table` without the pairs of the left jet's constant term:
    the product of g - g_0 and another jet."""
    return tuple(pair for pair in _product_table(order) if pair[0] != 0)


def multiply(f: np.ndarray, g: np.ndarray, order: int) -> np.ndarray:
    """The product jet f g, truncated to `order` (f and g are jets of at
    least that order; a one-lane jet multiplies each lane of the other)."""
    return _accumulate(f, g, _product_table(order), len(jet_indices(order)))


def compose(s, g: np.ndarray, order: int) -> np.ndarray:
    """The jet of f(g) to `order`, from the univariate Taylor coefficients
    s[m] = f^(m)(g_0)/m!, m = 0..order (arrays over the points), and the
    jet g of order at least `order`.

    With d = g - g_0, f(g) = sum_m s_m d^m is summed by Horner's rule,
    p_m = s_m + d p_{m+1}.  d has no constant term, so p_m is needed only
    to order - m: the m-th inner sum is truncated there, and the product
    d p skips the pairs of d's constant term (91 of 125 pairs remain at
    order 4), which would only add exact zeros."""
    # rows of p beyond order - m stay 0 until that step fills them
    p = np.zeros((len(jet_indices(order)), *g.shape[1:]))
    p[0] = s[order]
    for m in range(order - 1, -1, -1):
        rows = len(jet_indices(order - m))
        p[:rows] = _accumulate(g, p, _shift_table(order - m), rows)
        p[0] += s[m]
    return p


@functools.cache
def _divergence_table(order: int):
    """Pairs and weights of w -> d_y(c_y w) + d_t(c_t w), from a jet of
    `order` to one of order - 1; c_y and c_t are read interleaved (row
    2i is coefficient i of c_y, row 2i + 1 that of c_t)."""
    index = jet_indices(order)
    lower = {ab: i for i, ab in enumerate(jet_indices(order - 1))}
    plan = []
    for axis in (0, 1):
        for i, alpha in enumerate(index):
            for j, beta in enumerate(index):
                gamma = [alpha[0] + beta[0], alpha[1] + beta[1]]
                if sum(gamma) > order or gamma[axis] == 0:
                    continue
                # d/d axis of the monomial: gamma[axis] times one degree less
                weight = float(gamma[axis])
                gamma[axis] -= 1
                plan.append((2 * i + axis, j, lower[tuple(gamma)], weight))
    return tuple(plan)


def divergence_power(c: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """T^k w at the expansion points, shape (lanes, points), where
    T w = d_y(c_y w) + d_t(c_t w): w is a jet of order k and c the
    interleaved jets of (c_y, c_t) of order at least k.  Each step costs
    one order of the jet."""
    for order in range(k, 0, -1):
        w = _accumulate(c, w, _divergence_table(order),
                        len(jet_indices(order - 1)))
    return w[0]


def as_complex(lanes: np.ndarray) -> np.ndarray:
    """A complex array from the (one or two) lanes of a jet coefficient."""
    return lanes[0] + 1j * lanes[1] if len(lanes) == 2 else lanes[0] + 0j
