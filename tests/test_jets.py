"""Truncated Taylor jet arithmetic against sympy's exact Taylor coefficients
of random polynomials: products, quotients, composition and the transpose
step T."""
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


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       lanes=st.sampled_from([1, 2]), theta_free=st.booleans())
def test_divergence_power_skipping_zero_rows_equals_full(k, seed, lanes,
                                                         theta_free):
    # the rows of w listed as zero are 0 at every point: leaving out the
    # first step's pairs that read them changes no value
    rng = np.random.default_rng(seed)
    index = jets.jet_indices(k)
    if theta_free:  # a theta-free w, as sympy's derivatives give it
        zero = frozenset(i for i, (_, b) in enumerate(index) if b)
    else:
        zero = frozenset(int(i) for i in rng.choice(
            len(index), size=rng.integers(0, len(index) + 1), replace=False))
    c = rng.standard_normal((2 * len(index), 1, 64))
    w = rng.standard_normal((len(index), lanes, 64))
    w[sorted(zero)] = 0.0
    assert np.array_equal(jets.divergence_power(c, w, k, zero),
                          jets.divergence_power(c, w, k))


def row_values(expr, order):
    """The rows of expr's jet at POINTS from `jets.lambdify_rows`: arrays,
    and Python numbers where sympy found a coefficient constant."""
    ys, ts = (np.array([float(point[axis]) for point in POINTS])
              for axis in (0, 1))
    return jets.lambdify_rows(jets.coefficients(expr, Y, T, order), Y, T)(
        ys, ts)


def dense(rows):
    """The rows as one complex array of shape (ncoef, points)."""
    return np.array([np.broadcast_to(row, len(POINTS)) for row in rows],
                    dtype=complex)


def assert_rows_match(rows, want):
    """Rows equal the complex coefficients `want` up to rounding, in the
    scale of `assert_matches`."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(dense(rows) - want)) <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(order=orders, f=polynomials(), g=polynomials())
def test_multiply_rows_matches_taylor_coefficients(order, f, g):
    got = jets.multiply_rows(row_values(f.as_expr(), order),
                             row_values(g.as_expr(), order), order)
    assert_rows_match(got, taylor(f * g, order))


@settings(max_examples=40, deadline=None)
@given(order=orders, p_re=polynomials(degree=2), p_im=polynomials(degree=2),
       f_re=st.one_of(st.none(), polynomials()), f_im=polynomials(),
       parts=st.sampled_from(["real", "complex p", "complex f", "both"]))
def test_divide_matches_taylor_coefficients(order, p_re, p_im, f_re, f_im,
                                            parts):
    # the jet of f/p (1/p when f_re is None), real or complex, for a random
    # polynomial p with p != 0 at the expansion points, against the exact
    # derivatives of the quotient
    p = p_re.as_expr() + (sp.I * p_im.as_expr()
                          if parts in ("complex p", "both") else 0)
    assume(all(p.xreplace({Y: y, T: t}) != 0 for y, t in POINTS))
    f = None if f_re is None else f_re.as_expr() + (
        sp.I * f_im.as_expr() if parts in ("complex f", "both") else 0)
    numerator = 1 if f is None else f
    want = np.array([[complex(d.xreplace({Y: y, T: t})) for y, t in POINTS]
                     for d in jets.coefficients(numerator / p, Y, T, order)])
    f_rows = ([1.0] + [0.0] * (len(want) - 1) if f is None
              else row_values(numerator, order))
    got = jets.divide(f_rows, row_values(p, order), order)
    assert len(got) == len(want)
    assert_rows_match(got, want)


@settings(max_examples=40, deadline=None)
@given(order=orders, seed=st.integers(0, 2 ** 32 - 1),
       parts=st.sampled_from([(False, False), (False, True), (True, False),
                              (True, True)]))
def test_sparse_rows_equal_dense_rows(order, seed, parts):
    # rows given as the number 0 are skipped and numbers multiply as
    # scalars: the same jets, bit for bit, as full arrays of those rows
    # (`multiply_rows` takes real jets, `divide` real or complex ones)
    rng = np.random.default_rng(seed)
    ncoef = len(jets.jet_indices(order))

    def random_rows(is_complex):
        rows = []
        for i in range(ncoef):
            value = rng.standard_normal(64)
            if is_complex:
                value = value + 1j * rng.standard_normal(64)
            kind = 2 if i == 0 else rng.integers(3)
            rows.append(value if kind == 2 else 0.0 if kind == 0
                        else value[0].item())
        rows[0] = rows[0] + 4.0  # a denominator away from 0
        return rows

    def full(rows):
        return [np.full(64, row) if np.ndim(row) == 0 else row
                for row in rows]

    f, z = random_rows(parts[0]), random_rows(parts[1])
    real_f, real_z = random_rows(False), random_rows(False)
    for sparse, dense_rows in (
            (jets.divide(f, z, order), jets.divide(full(f), full(z), order)),
            (jets.multiply_rows(real_f, real_z, order),
             jets.multiply_rows(full(real_f), full(real_z), order))):
        assert len(sparse) == len(dense_rows) == ncoef
        for got, want in zip(sparse, dense_rows):
            assert np.array_equal(np.broadcast_to(got, (64,)), want)
