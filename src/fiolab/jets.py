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
`expressions.lambdify`.  `multiply_rows` and `divide` take jets as lists of
rows instead (`lambdify_rows`): a row sympy found constant is a Python
number, multiplied as a scalar, and a row it found 0 is skipped.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import List, Sequence, Tuple

import numpy as np
import sympy as sp

from .expressions import lambdify


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


def coefficients(expr: sp.Expr, y: sp.Symbol, t: sp.Symbol,
                 order: int) -> List[sp.Expr]:
    """The Taylor coefficients d_y^a d_t^b expr / (a! b!) of
    `jet_indices(order)`, as sympy expressions."""
    return [d / (math.factorial(a) * math.factorial(b))
            for d, (a, b) in zip(derivatives(expr, y, t, order),
                                 jet_indices(order))]


def lambdify_rows(coefs: Sequence[sp.Expr], y: sp.Symbol, t: sp.Symbol):
    """The function (Y, T) -> rows of the jet whose coefficients are the
    sympy expressions `coefs` (`coefficients`).  A row free of y and t
    other than row 0 is its Python number (a float for a real one, else a
    complex; 0.0 where sympy found it 0), so that `multiply_rows` and
    `divide` multiply it as a scalar or skip it; the other rows, arrays of
    Y's shape, come from one lambdified function."""
    varying = [i for i, c in enumerate(coefs)
               if i == 0 or c.free_symbols & {y, t}]
    fn = lambdify((y, t), [coefs[i] for i in varying])
    numbers = [None if i in varying else float(c) if c.is_real
               else complex(c) for i, c in enumerate(coefs)]

    def rows(Y, T) -> list:
        out = list(numbers)
        for i, value in zip(varying, fn(Y, T)):
            out[i] = np.broadcast_to(value, np.shape(Y))
        return out
    return rows


@functools.cache
def _inverse_factorials(order: int) -> np.ndarray:
    return np.array([1.0 / (math.factorial(a) * math.factorial(b))
                     for a, b in jet_indices(order)])


def evaluate(fn, y: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
    """The jet, shape (ncoef, lanes, points), of a function that
    `expressions.lambdify` built from `derivatives(..., order)`: each
    derivative is scaled by 1/(a! b!)."""
    values = fn(y, t)
    lanes = 2 if any(np.iscomplexobj(v) for v in values) else 1
    out = np.empty((len(values), lanes, y.size))
    for row, value, scale in zip(out, values, _inverse_factorials(order)):
        np.multiply(np.real(value), scale, out=row[0])
        if lanes == 2:
            np.multiply(np.imag(value), scale, out=row[1])
    return out


def _accumulate(left: np.ndarray, right: np.ndarray, plan,
                rows: int) -> np.ndarray:
    """The jet whose row r is the sum of weight * left[a] * right[b] over
    the plan's pairs (a, b, r, weight), per lane and point; a one-lane jet
    multiplies each lane of a two-lane one.  Each row's first product is
    written in place, and a row no pair reaches is 0."""
    shape = np.broadcast_shapes(left.shape[1:], right.shape[1:])
    out = np.empty((rows, *shape))
    tmp = np.empty(shape)
    written = [False] * rows
    for a, b, row, weight in plan:
        if written[row]:
            np.multiply(left[a], right[b], out=tmp)
            if weight != 1.0:
                tmp *= weight
            out[row] += tmp
        else:
            np.multiply(left[a], right[b], out=out[row])
            if weight != 1.0:
                out[row] *= weight
            written[row] = True
    for row, done in enumerate(written):
        if not done:
            out[row] = 0.0
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
def _row_pairs(order: int, skip_left: frozenset, skip_right: frozenset):
    """For each row of a product jet to `order`, the pairs (i, j) of
    `_product_table` whose left row i is not in skip_left and whose right
    row j is not in skip_right, in the table's order."""
    rows = [[] for _ in jet_indices(order)]
    for i, j, row, _ in _product_table(order):
        if i not in skip_left and j not in skip_right:
            rows[row].append((i, j))
    return tuple(map(tuple, rows))


def _is_zero(row) -> bool:
    return np.ndim(row) == 0 and row == 0


def _total(terms: list):
    """The sum of the terms, added in order in place into the first; the
    number 0 for none."""
    return functools.reduce(operator.iadd, terms[1:], terms[0]) if terms \
        else 0.0


def multiply_rows(f: Sequence, g: Sequence, order: int) -> list:
    """The rows of the product jet f g to `order`, from the rows of two
    real jets (as `lambdify_rows` returns them: arrays over the points or
    Python floats).  A pair with a row that is the number 0 is left out,
    and a row that is a number multiplies as a scalar, so a row of the
    product all of whose pairs read numbers is a number; every row equals
    that from dense rows, bit for bit."""
    rows = len(jet_indices(order))
    zero_f = frozenset(i for i in range(rows) if _is_zero(f[i]))
    zero_g = frozenset(j for j in range(rows) if _is_zero(g[j]))
    return [_total([f[i] * g[j] for i, j in pairs])
            for pairs in _row_pairs(order, zero_f, zero_g)]


def divide(f: Sequence, z: Sequence, order: int) -> list:
    """The rows of the jet of f/z to `order`, from the rows of f and z, real
    or complex (as `lambdify_rows` returns them: arrays over the points or
    Python numbers, z's row 0 an array).

    z q = f gives q_0 = f_0/z_0 and, row by row in graded order,
    q_r = (f_r - sum z_i q_j) / z_0 over the product's pairs (i, j) with
    i >= 1, whose q_j is an earlier row (Griewank and Walther, ch. 13).  As
    in `multiply_rows`, a 0 row of z adds no pair and a number multiplies
    as a scalar: each product is the one a full array of that row gives,
    in the same order, so the rows equal those from dense rows of f and z.
    A row of q that is 0 by structure is the number 0."""
    rows = len(jet_indices(order))
    # every row of q, and so every product, has the type of the quotient
    inverse = np.divide(1.0, z[0],
                        dtype=np.result_type(*f[:rows], *z[:rows]))
    minus_inverse = -inverse
    q = [f[0] * inverse]
    skip = frozenset(i for i in range(rows) if i == 0 or _is_zero(z[i]))
    for f_r, pairs in zip(f[1:rows], _row_pairs(order, skip,
                                                frozenset())[1:]):
        total = _total([z[i] * q[j] for i, j in pairs if not _is_zero(q[j])])
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
def _divergence_table(order: int, zero: frozenset = frozenset()):
    """Pairs and weights of w -> d_y(c_y w) + d_t(c_t w), from a jet of
    `order` to one of order - 1; c_y and c_t are read interleaved (row
    2i is coefficient i of c_y, row 2i + 1 that of c_t).  The pairs that
    read a row of w listed in `zero` are left out."""
    index = jet_indices(order)
    lower = {ab: i for i, ab in enumerate(jet_indices(order - 1))}
    plan = []
    for axis in (0, 1):
        for i, alpha in enumerate(index):
            for j, beta in enumerate(index):
                gamma = [alpha[0] + beta[0], alpha[1] + beta[1]]
                if sum(gamma) > order or gamma[axis] == 0 or j in zero:
                    continue
                # d/d axis of the monomial: gamma[axis] times one degree less
                weight = float(gamma[axis])
                gamma[axis] -= 1
                plan.append((2 * i + axis, j, lower[tuple(gamma)], weight))
    return tuple(plan)


def divergence_power(c: np.ndarray, w: np.ndarray, k: int,
                     zero: frozenset = frozenset()) -> np.ndarray:
    """T^k w at the expansion points, shape (lanes, points), where
    T w = d_y(c_y w) + d_t(c_t w): w is a jet of order k and c the
    interleaved jets of (c_y, c_t) of order at least k.  Each step costs
    one order of the jet.  `zero` lists rows of w that are 0 at every
    point (a derivative sympy returned as 0): the first step skips the
    pairs that read them, which would only add products with 0."""
    for order in range(k, 0, -1):
        w = _accumulate(c, w, _divergence_table(order, zero),
                        len(jet_indices(order - 1)))
        zero = frozenset()
    return w[0]


def as_complex(lanes: np.ndarray) -> np.ndarray:
    """A complex array from the (one or two) lanes of a jet coefficient."""
    return lanes[0] + 1j * lanes[1] if len(lanes) == 2 else lanes[0] + 0j
