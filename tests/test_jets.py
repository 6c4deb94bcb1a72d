"""Truncated Taylor jet arithmetic against sympy's exact Taylor coefficients
of random polynomials: products, composition and the transpose step T."""
import math

import numpy as np
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab import jets

Y, T = sp.symbols("y t", real=True)

#: expansion points, exact so the reference coefficients are exact
POINTS = tuple((sp.Rational(y), sp.Rational(t))
               for y, t in (("-3/2", "1/3"), ("0", "1"), ("5/4", "-2")))

orders = st.integers(0, 4)
coefficients = st.integers(-3, 3)


@st.composite
def polynomials(draw, degree=3):
    """A real polynomial in (y, t) of total degree <= `degree` with small
    integer coefficients."""
    return sp.Poly(sum(draw(coefficients) * Y ** a * T ** (d - a)
                       for d in range(degree + 1) for a in range(d + 1)),
                   Y, T)


def taylor(p, order):
    """d_y^a d_t^b p / (a! b!) at each of POINTS, for (a, b) in
    `jet_indices(order)`: shape (ncoef, points), complex."""
    return np.array([[complex(p.diff((Y, a), (T, b)).eval(point)
                              / (math.factorial(a) * math.factorial(b)))
                      for point in POINTS]
                     for a, b in jets.jet_indices(order)])


def as_jet(p, order, lanes):
    """The jet of p at POINTS with one lane (its real part) or two."""
    coef = taylor(p, order)
    parts = (coef.real,) if lanes == 1 else (coef.real, coef.imag)
    return np.stack(parts, axis=1)


def assert_matches(got, want):
    """`got`, of shape (ncoef, lanes, points) or (lanes, points), equals
    the complex coefficients `want` up to rounding."""
    value = got[..., 0, :] + (1j * got[..., 1, :] if got.shape[-2] == 2
                              else 0.0)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(value - want)) <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(order=orders, f_re=polynomials(), f_im=polynomials(),
       g_re=polynomials(), g_im=polynomials(),
       lanes=st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_multiply_matches_taylor_coefficients(order, f_re, f_im, g_re, g_im,
                                              lanes):
    # a one-lane jet is real, so its polynomial keeps only the real part;
    # products of jets are real arithmetic, so one factor is always real
    f = f_re if lanes[0] == 1 else f_re + sp.I * f_im
    g = g_re if lanes[1] == 1 else g_re + sp.I * g_im
    got = jets.multiply(as_jet(f, order, lanes[0]),
                        as_jet(g, order, lanes[1]), order)
    assert got.shape[1] == max(lanes)
    assert_matches(got, taylor(f * g, order))


@settings(max_examples=30, deadline=None)
@given(order=orders, g=polynomials(),
       q=st.lists(coefficients, min_size=1, max_size=5))
def test_compose_matches_taylor_coefficients(order, g, q):
    # the jet of q(g) from q's Taylor coefficients at g's value
    z = sp.Symbol("z")
    outer = sp.Poly(sum(c * z ** m for m, c in enumerate(q)), z)
    g_jet = as_jet(g, order, 1)
    s = [np.array([float(outer.diff((z, m)).eval(g.eval(point))
                         / math.factorial(m)) for point in POINTS])
         for m in range(order + 1)]
    composed = sum((c * g ** m for m, c in enumerate(q)), sp.Poly(0, Y, T))
    assert_matches(jets.compose(s, g_jet, order), taylor(composed, order))


@settings(max_examples=30, deadline=None)
@given(k=orders, w_re=polynomials(), w_im=polynomials(),
       c_y=polynomials(degree=2), c_t=polynomials(degree=2),
       lanes=st.sampled_from([1, 2]))
def test_divergence_power_matches_taylor_coefficients(k, w_re, w_im, c_y,
                                                      c_t, lanes):
    # T w = d_y(c_y w) + d_t(c_t w), applied k times; c is read interleaved
    w = w_re if lanes == 1 else w_re + sp.I * w_im
    c = np.stack([as_jet(c_y, k, 1), as_jet(c_t, k, 1)], axis=1).reshape(
        -1, 1, len(POINTS))
    want = w
    for _ in range(k):
        want = (c_y * want).diff(Y) + (c_t * want).diff(T)
    got = jets.divergence_power(c, as_jet(w, k, lanes), k)
    assert got.shape == (lanes, len(POINTS))
    assert_matches(got, taylor(want, 0)[0])


@settings(max_examples=30, deadline=None)
@given(order=orders, seed=st.integers(0, 2 ** 32 - 1),
       lanes=st.sampled_from([1, 2]))
def test_compose_equals_full_product_horner(order, seed, lanes):
    # compose skips the product pairs of d's constant term; Horner's rule
    # with the full product of d = g - g_0 adds only exact zeros more
    rng = np.random.default_rng(seed)
    ncoef = len(jets.jet_indices(order))
    g = rng.standard_normal((ncoef, lanes, 64))
    s = rng.standard_normal((order + 1, 64))
    d = g.copy()
    d[0] = 0.0
    p = np.zeros_like(d)
    p[0] = s[order]
    for m in range(order - 1, -1, -1):
        p[:len(jets.jet_indices(order - m))] = jets.multiply(d, p, order - m)
        p[0] += s[m]
    assert np.array_equal(jets.compose(s, g, order), p)
