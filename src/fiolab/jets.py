"""Truncated Taylor jets in (y, theta), for integration by parts.

A jet of order n at a point holds the Taylor coefficients
w_ab = d_y^a d_theta^b w / (a! b!) for a + b <= n, in graded order (degree
by degree, a descending), so the jet truncated to a lower order is a prefix
of its rows.  A jet is a list of rows, and each row is an array over the
points (real or complex) or a Python number: `lambdify_rows` gives a row
that sympy found constant as its number, and 0 where sympy found it 0.

A product of two jets is a convolution of their coefficients, and a
derivative is a shift of them.  Both follow a plan that lists, for each
output row, its pairs (a, b, weight): one kernel adds
weight * left[a] * right[b] in place to the row, skips every pair with a
row that is the number 0, and multiplies number rows as scalars, so a
row all of whose pairs read numbers is a number and a row no pair reaches
is the number 0.  `multiply`, `compose`, `divide` and `divergence_power`
all run on it, and each row equals, bit for bit, the row that full arrays
of the same values give, unless it multiplies two complex numbers (that
product is Python's, not numpy's).  Every coefficient is exact Taylor
arithmetic (Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM
2008, ch. 13), not a difference quotient.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence, Tuple

import numpy as np
import sympy as sp

from .expressions import lambdify


@functools.cache
def jet_indices(order: int) -> Tuple[Tuple[int, int], ...]:
    """The multi-indices (a, b) with a + b <= order, in graded order."""
    return tuple((a, d - a) for d in range(order + 1)
                 for a in range(d, -1, -1))


def lambdify_rows(expr: sp.Expr, y: sp.Symbol, t: sp.Symbol, order: int):
    """The function (Y, T) -> rows of expr's jet of `order`.  sympy takes
    each derivative d_y^a d_t^b expr from the previous one by a single
    derivative, and each row is that derivative times the float
    1/(a! b!).  A row free of y and t other than row 0 is its Python
    number (a float for a real one, else a complex; 0.0 where sympy found
    it 0); the other rows, arrays of Y's shape, come from one lambdified
    function."""
    index = jet_indices(order)
    derivative = {(0, 0): expr}
    for a, b in index[1:]:
        derivative[a, b] = (sp.diff(derivative[a, b - 1], t) if b
                            else sp.diff(derivative[a - 1, 0], y))
    scales = [1.0 / (math.factorial(a) * math.factorial(b))
              for a, b in index]
    varying = [i for i, ab in enumerate(index)
               if i == 0 or derivative[ab].free_symbols & {y, t}]
    fn = lambdify((y, t), [derivative[index[i]] for i in varying])
    numbers = [None if i in varying else scales[i] * (
        float(d) if d.is_real else complex(d))
        for i, d in enumerate(derivative[ab] for ab in index)]

    def rows(Y, T) -> list:
        out = list(numbers)
        for i, value in zip(varying, fn(Y, T)):
            out[i] = np.broadcast_to(value, np.shape(Y)) * scales[i]
        return out
    return rows


def _is_zero(row) -> bool:
    return not isinstance(row, np.ndarray) and row == 0


def _sum(left: Sequence, right: Sequence, pairs, dtype):
    """The sum of weight * left[a] * right[b] over the pairs (a, b, weight),
    added in order; a pair with a row that is the number 0 is left out.
    Products of numbers are numbers until the first array term, which is a
    new array of `dtype` that the later terms are added to in place; the
    number 0 for no term."""
    total = tmp = None
    for a, b, weight in pairs:
        x, y = left[a], right[b]
        if _is_zero(x) or _is_zero(y):
            continue
        if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
            term = x * y
        elif isinstance(total, np.ndarray):
            if tmp is None:
                tmp = np.empty_like(total)
            term = np.multiply(x, y, out=tmp)
        else:
            term = np.multiply(x, y, dtype=dtype)
        if weight != 1.0:
            term *= weight
        if isinstance(total, np.ndarray):
            total += term
        else:
            # addition commutes, so the number so far is added to the term
            if total is not None:
                term += total
            total = term
    return 0.0 if total is None else total


def _accumulate(left: Sequence, right: Sequence, plan) -> list:
    """The rows of the jet whose row r is `_sum` of the pairs plan[r]."""
    dtype = np.result_type(*left, *right)
    return [_sum(left, right, pairs, dtype) for pairs in plan]


@functools.cache
def _product_plan(order: int):
    """For each row of a product jet to `order`, its pairs (i, j, 1.0) of
    a left row i and a right row j, i ascending."""
    index = jet_indices(order)
    position = {ab: i for i, ab in enumerate(index)}
    rows = [[] for _ in index]
    for i, (a1, b1) in enumerate(index):
        for j, (a2, b2) in enumerate(index):
            if a1 + a2 + b1 + b2 <= order:
                rows[position[a1 + a2, b1 + b2]].append((i, j, 1.0))
    return tuple(map(tuple, rows))


def multiply(f: Sequence, g: Sequence, order: int) -> list:
    """The product jet f g, truncated to `order` (f and g are jets of at
    least that order)."""
    return _accumulate(f, g, _product_plan(order))


def compose(s: Sequence, g: Sequence, order: int) -> list:
    """The jet of f(g) to `order`, from the univariate Taylor coefficients
    s[m] = f^(m)(g_0)/m!, m = 0..order (arrays over the points), and the
    jet g of order at least `order`.

    With d = g - g_0, f(g) = sum_m s_m d^m is summed by Horner's rule,
    p_m = s_m + d p_{m+1}.  d's row 0 is the number 0, so the product d p
    skips the pairs that read it, and p_m is needed only to order - m:
    the m-th inner product is truncated there."""
    d = [0.0, *g[1:]]
    # rows of p beyond order - m are 0 until that step fills them
    p = [s[order]] + [0.0] * (len(jet_indices(order)) - 1)
    for m in range(order - 1, -1, -1):
        p[:len(jet_indices(order - m))] = multiply(d, p, order - m)
        p[0] = s[m]  # (d p)_0 = 0
    return p


def divide(f: Sequence, z: Sequence, order: int) -> list:
    """The jet of f/z to `order`, from the jets f and z, real or complex
    (z's row 0 an array).

    z q = f gives q_0 = f_0/z_0 and, row by row in graded order,
    q_r = (f_r - sum z_i q_j) / z_0 over the product's pairs (i, j) with
    i >= 1, whose q_j is an earlier row (Griewank and Walther, ch. 13).
    The sum is `_sum` of those pairs, so a row of z or q that is the
    number 0 adds no product.  A row of q that is 0 by structure is the
    number 0."""
    rows = len(jet_indices(order))
    # every row of q, and so every product, has the type of the quotient
    dtype = np.result_type(*f[:rows], *z[:rows])
    inverse = np.divide(1.0, z[0], dtype=dtype)
    minus_inverse = -inverse
    q = [f[0] * inverse]
    for f_r, pairs in zip(f[1:rows], _product_plan(order)[1:]):
        # the first pair, (0, r), reads the row q_r being solved for
        total = _sum(z, q, pairs[1:], dtype)
        if _is_zero(total):
            q.append(0.0 if _is_zero(f_r) else f_r * inverse)
            continue
        # (f_r - total) / z_0, as (total - f_r) * (-1/z_0) in place
        if not _is_zero(f_r):
            total -= f_r
        total *= minus_inverse
        q.append(total)
    return q


@functools.cache
def _divergence_plan(order: int):
    """For each row of the jet of w -> d_y(c_y w) + d_t(c_t w), of order
    - 1 from a w of `order`, its pairs (i, j, weight) of a row i of c and
    a row j of w; c_y and c_t are read interleaved (row 2i is coefficient i
    of c_y, row 2i + 1 that of c_t)."""
    index = jet_indices(order)
    lower = {ab: i for i, ab in enumerate(jet_indices(order - 1))}
    rows = [[] for _ in lower]
    for axis in (0, 1):
        for i, alpha in enumerate(index):
            for j, beta in enumerate(index):
                gamma = [alpha[0] + beta[0], alpha[1] + beta[1]]
                if sum(gamma) > order or gamma[axis] == 0:
                    continue
                # d/d axis of the monomial: gamma[axis] times one degree less
                weight = float(gamma[axis])
                gamma[axis] -= 1
                rows[lower[tuple(gamma)]].append((2 * i + axis, j, weight))
    return tuple(map(tuple, rows))


def divergence_power(c: Sequence, w: Sequence, k: int):
    """T^k w at the expansion points (row 0 of the last jet), where
    T w = d_y(c_y w) + d_t(c_t w): w is a jet of order k and c the
    interleaved jets of (c_y, c_t) of order at least k.  Each step costs
    one order of the jet, and skips the pairs that read a row of c or w
    that is the number 0 (for a theta-free w, every row with a theta
    derivative)."""
    for order in range(k, 0, -1):
        w = _accumulate(c, w, _divergence_plan(order))
    return w[0]
