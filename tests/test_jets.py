"""Truncated Taylor jet arithmetic against the exact Taylor coefficients of
random polynomials and their quotients, from exact polynomial arithmetic
over the Gaussian rationals: products, quotients, composition and the
transpose step T, on jets whose rows are arrays over the points or Python
numbers."""
import math

import numpy as np
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fiolab import jets

Y, T = sp.symbols("y t", real=True)

#: expansion points, exact so the reference coefficients are exact
POINTS = tuple((sp.Rational(y), sp.Rational(t))
               for y, t in (("-3/2", "1/3"), ("0", "1"), ("5/4", "-2")))
YS, TS = (np.array([float(point[axis]) for point in POINTS])
          for axis in (0, 1))

orders = st.integers(0, 4)
coefficients = st.integers(-3, 3)


@st.composite
def polynomials(draw, degree=3):
    """A real polynomial expression in (y, t) of total degree <= `degree`
    with small integer coefficients."""
    return sp.Add(*(draw(coefficients) * Y ** a * T ** (d - a)
                    for d in range(degree + 1) for a in range(d + 1)))


def poly(expr):
    """expr as an exact polynomial in (y, t) over the Gaussian rationals."""
    return sp.Poly(expr, Y, T, domain=sp.QQ_I)


def taylor(num, order, den=1):
    """d_y^a d_t^b (num/den) / (a! b!) at each of POINTS, for (a, b) in
    `jet_indices(order)`: shape (ncoef, points), complex.  num and den are
    polynomials, and each derivative of the quotient is held exactly as a
    polynomial N over a power den^m, from num/den^1 by
    d(N/D^m) = (dN D - m N dD)/D^(m+1) (for den = 1 the derivatives of
    num)."""
    num, den = poly(num), poly(den)
    derivative = {(0, 0): (num, 1)}
    for a, b in jets.jet_indices(order)[1:]:
        var = T if b else Y
        n, m = derivative[a, b - 1] if b else derivative[a - 1, 0]
        derivative[a, b] = (n.diff(var) * den - m * n * den.diff(var), m + 1)
    return np.array([[complex(n(y, t) / den(y, t) ** m
                              / (math.factorial(a) * math.factorial(b)))
                      for y, t in POINTS]
                     for (n, m), (a, b) in zip(derivative.values(),
                                               jets.jet_indices(order))])


def rows(expr, order):
    """The rows of expr's jet at POINTS from `jets.lambdify_rows`: arrays,
    and Python numbers where sympy found a coefficient constant."""
    return jets.lambdify_rows(sp.sympify(expr), Y, T, order)(YS, TS)


def dense(rows):
    """The rows as one complex array of shape (ncoef, points)."""
    return np.array([np.broadcast_to(row, len(POINTS)) for row in rows],
                    dtype=complex)


def assert_matches(got, want):
    """The rows `got` (one row if `want` is one) equal the complex
    coefficients `want` up to rounding."""
    got = np.broadcast_to(got, want.shape) if want.ndim == 1 else dense(got)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def with_imaginary(re, im, is_complex):
    return re + sp.I * im if is_complex else re


@settings(max_examples=30, deadline=None)
@given(order=orders, p=polynomials(), q=polynomials(),
       is_complex=st.booleans())
def test_lambdify_rows_matches_taylor_coefficients(order, p, q, is_complex):
    # a row other than row 0 is a Python number exactly where its
    # coefficient is constant
    expr = with_imaginary(p, q, is_complex)
    got = rows(expr, order)
    assert_matches(got, taylor(expr, order))
    constant = [a + b > 0 and not sp.diff(expr, Y, a, T, b).free_symbols
                for a, b in jets.jet_indices(order)]
    assert [not isinstance(row, np.ndarray) for row in got] == constant


@settings(max_examples=30, deadline=None)
@given(order=orders, f_re=polynomials(), f_im=polynomials(),
       g_re=polynomials(), g_im=polynomials(),
       parts=st.tuples(st.booleans(), st.booleans()))
def test_multiply_matches_taylor_coefficients(order, f_re, f_im, g_re, g_im,
                                              parts):
    f = with_imaginary(f_re, f_im, parts[0])
    g = with_imaginary(g_re, g_im, parts[1])
    got = jets.multiply(rows(f, order), rows(g, order), order)
    assert len(got) == len(jets.jet_indices(order))
    assert_matches(got, taylor(poly(f) * poly(g), order))


@settings(max_examples=30, deadline=None)
@given(order=orders, g=polynomials(),
       q=st.lists(coefficients, min_size=1, max_size=5))
def test_compose_matches_taylor_coefficients(order, g, q):
    # the jet of q(g) from q's Taylor coefficients at g's value
    z = sp.Symbol("z")
    outer = sp.Add(*(c * z ** m for m, c in enumerate(q)))
    s = [np.array([float(sp.diff(outer, z, m).subs(z, g.xreplace(
        {Y: y, T: t})) / math.factorial(m)) for y, t in POINTS])
         for m in range(order + 1)]
    assert_matches(jets.compose(s, rows(g, order), order),
                   taylor(outer.subs(z, g), order))


@settings(max_examples=30, deadline=None)
@given(k=orders, w_re=polynomials(), w_im=polynomials(),
       c_y=polynomials(degree=2), c_t=polynomials(degree=2),
       is_complex=st.booleans())
def test_divergence_power_matches_taylor_coefficients(k, w_re, w_im, c_y,
                                                      c_t, is_complex):
    # T w = d_y(c_y w) + d_t(c_t w), applied k times; c is read interleaved
    w = with_imaginary(w_re, w_im, is_complex)
    c = [row for pair in zip(rows(c_y, k), rows(c_t, k)) for row in pair]
    want, cy, ct = poly(w), poly(c_y), poly(c_t)
    for _ in range(k):
        want = (cy * want).diff(Y) + (ct * want).diff(T)
    assert_matches(jets.divergence_power(c, rows(w, k), k),
                   taylor(want, 0)[0])


@settings(max_examples=40, deadline=None)
@given(order=orders, p_re=polynomials(degree=2), p_im=polynomials(degree=2),
       f_re=st.one_of(st.none(), polynomials()), f_im=polynomials(),
       parts=st.sampled_from(["real", "complex p", "complex f", "both"]))
def test_divide_matches_taylor_coefficients(order, p_re, p_im, f_re, f_im,
                                            parts):
    # the jet of f/p (1/p when f_re is None), real or complex, for a random
    # polynomial p with p != 0 at the expansion points, against the exact
    # derivatives of the quotient
    p = with_imaginary(p_re, p_im, parts in ("complex p", "both"))
    assume(all(p.xreplace({Y: y, T: t}) != 0 for y, t in POINTS))
    f = None if f_re is None else with_imaginary(
        f_re, f_im, parts in ("complex f", "both"))
    want = taylor(1 if f is None else f, order, den=p)
    f_rows = ([1.0] + [0.0] * (len(want) - 1) if f is None
              else rows(f, order))
    got = jets.divide(f_rows, rows(p, order), order)
    assert len(got) == len(want)
    assert_matches(got, want)


@settings(max_examples=30, deadline=None)
@given(order=orders, seed=st.integers(0, 2 ** 32 - 1),
       is_complex=st.booleans())
def test_compose_equals_full_product_horner(order, seed, is_complex):
    # Horner's rule with the full product of d = g - g_0, whose row 0 is
    # an array of zeros, adds only exact zeros more than compose
    rng = np.random.default_rng(seed)
    ncoef = len(jets.jet_indices(order))
    g = rng.standard_normal((ncoef, 64))
    if is_complex:
        g = g + 1j * rng.standard_normal((ncoef, 64))
    s = rng.standard_normal((order + 1, 64))
    d = [np.zeros(64), *g[1:]]
    p = [s[order]] + [np.zeros(64)] * (ncoef - 1)
    for m in range(order - 1, -1, -1):
        p[:len(jets.jet_indices(order - m))] = jets.multiply(d, p, order - m)
        p[0] = p[0] + s[m]
    for got, want in zip(jets.compose(s, list(g), order), p, strict=True):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(order=orders, seed=st.integers(0, 2 ** 32 - 1),
       parts=st.tuples(st.booleans(), st.booleans()),
       theta_free=st.booleans())
def test_number_rows_equal_full_rows(order, seed, parts, theta_free):
    # rows given as the number 0 are skipped and numbers multiply as
    # scalars: the same rows, bit for bit, as full arrays of those values.
    # A product of two complex numbers is Python's, not numpy's, so
    # `multiply` is not given two complex jets
    rng = np.random.default_rng(seed)
    index = jets.jet_indices(order)

    def random_rows(is_complex, size=len(index)):
        out = []
        for i in range(size):
            value = rng.standard_normal(64)
            if is_complex:
                value = value + 1j * rng.standard_normal(64)
            kind = 2 if i == 0 else rng.integers(3)
            out.append(value if kind == 2 else 0.0 if kind == 0
                       else value[0].item())
        out[0] = out[0] + 4.0  # a denominator away from 0
        return out

    def full(rows):
        return [np.full(64, row) if np.ndim(row) == 0 else row
                for row in rows]

    f, g = random_rows(parts[0]), random_rows(parts[1])
    real = random_rows(False)
    c = random_rows(False, 2 * len(index))
    if theta_free:  # a theta-free w, as sympy's derivatives give it
        g = [0.0 if b else row for row, (_, b) in zip(g, index)]
    s = rng.standard_normal((order + 1, 64))
    cases = [(jets.divide, (f, g, order)),
             (jets.multiply, (real, g, order)),
             (jets.multiply, (f, real, order)),
             (lambda *a: [jets.divergence_power(*a)], (c, g, order)),
             (jets.compose, (s, g, order))]
    for op, (left, right, n) in cases:
        sparse, want = op(left, right, n), op(full(left), full(right), n)
        assert len(sparse) == len(want)
        for got, row in zip(sparse, want):
            assert np.array_equal(np.broadcast_to(got, (64,)), row)
