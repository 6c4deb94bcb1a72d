"""Discretized operators: kernel evaluation, routes, algebra, norms, I/O."""
import functools
import json
import os
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fiolab import operators
from fiolab.expressions import evaluate
from fiolab.grids import GridSpec
from fiolab.operators import (AlignmentError, DiscreteOperator,
                              GridMismatchError, IterationError,
                              OperatorFormatError, Route, adjoint, apply,
                              compose, discretize_fio, gaussian_samples,
                              kernel_eval, load_operator, operator_norm,
                              save_operator, singular_values)
from fiolab.oscillatory import fio_apply_ibp
from fiolab.pdo import predicted_symbol
from fiolab.phases import GeneratingFunction, special_phase
from fiolab.symbols import SymbolField, as_expr

A_GAUSS = "exp(-theta**2/4)"


@pytest.fixture(scope="module")
def chirp_op(S_chirp, grid256):
    return discretize_fio(S_chirp, "1", grid256, grid256, grid256.dual(),
                          Route.SPECTRAL)


class TestGridSpec:
    def test_dual_spacing_product(self, grid256):
        dual = grid256.dual()
        assert dual.spacing * grid256.spacing == pytest.approx(
            2 * np.pi / 256, rel=1e-14)
        assert dual.dft_aligned

    def test_axis_contains_origin(self, grid256):
        i = grid256.nearest_index(0.0)
        assert grid256.axis()[i] == 0.0

    def test_descriptor_roundtrip_identity(self, grid256):
        assert grid256.descriptor() == grid256.descriptor()


class TestKernelEval:
    """K(x, y) = (2 pi)^{-1} integral of e^{i(x-y)theta} a(theta):
    for a = e^{-theta^2} this is (2 pi)^{-1} sqrt(pi) e^{-(x-y)^2/4}."""

    def test_diagonal_value(self, S_xt):
        k = kernel_eval(S_xt, "exp(-theta**2)", 0.0, 0.0,
                        GridSpec(1, 40.0, 4096), taper=False)
        assert k == pytest.approx(np.sqrt(np.pi) / (2 * np.pi), abs=1e-14)

    def test_off_diagonal_value(self, S_xt):
        k = kernel_eval(S_xt, "exp(-theta**2)", 2.0, 0.0,
                        GridSpec(1, 40.0, 4096), taper=False)
        assert k == pytest.approx(
            np.exp(-1.0) * np.sqrt(np.pi) / (2 * np.pi), abs=1e-14)

    def test_translation_invariance_in_x_minus_y(self, S_xt):
        tg = GridSpec(1, 40.0, 4096)
        k1 = kernel_eval(S_xt, "exp(-theta**2)", 2.0, 0.0, tg, taper=False)
        k2 = kernel_eval(S_xt, "exp(-theta**2)", 3.0, 1.0, tg, taper=False)
        assert k1 == pytest.approx(k2, abs=1e-13)


class TestRoutes:
    def test_kernel_and_spectral_agree(self, S_chirp, grid256):
        tg = grid256.dual()
        Fk = discretize_fio(S_chirp, A_GAUSS, grid256, grid256, tg,
                            Route.KERNEL)
        Fs = discretize_fio(S_chirp, A_GAUSS, grid256, grid256, tg,
                            Route.SPECTRAL)
        assert np.max(np.abs(Fk.matrix - Fs.matrix)) < 1e-12

    @given(c=st.sampled_from(["0", "1"]),
           a=st.sampled_from(["1", A_GAUSS, "1/(1+theta**2)"]),
           M=st.sampled_from([64, 128, 256]))
    @settings(max_examples=12, deadline=None)
    def test_kernel_and_spectral_agree_on_any_input(self, c, a, M):
        # the identity (c = 0) and chirp (c = 1) phases, amplitudes from
        # constant to Gaussian decay, and three grid sizes
        grid = GridSpec(1, 8.0, M, dft_aligned=True)
        Fk, Fs = (discretize_fio(chirp(c), a, grid, grid, grid.dual(),
                                 route) for route in Route)
        assert np.max(np.abs(Fk.matrix - Fs.matrix)) < 1e-12

    def test_spectral_requires_aligned_grids(self, S_chirp, grid256):
        with pytest.raises(AlignmentError):
            discretize_fio(S_chirp, "1", grid256, grid256,
                           GridSpec(1, 8.0, 256), Route.SPECTRAL)

    def test_apply_matches_direct_transform(self, S_chirp, grid256,
                                            chirp_op):
        # oracle: forward DFT of f, then quadrature of
        # e^{i(x theta + theta^2/2)} fhat(theta) d theta / (2 pi)
        tg = grid256.dual()
        th, xs = tg.axis(), grid256.axis()
        f = gaussian_samples(grid256, 0.0, 1.0)
        fhat = np.array([np.sum(f * np.exp(-1j * t * xs)) * grid256.spacing
                         for t in th])
        direct = np.array([
            np.sum(np.exp(1j * (x * th + th ** 2 / 2)) * fhat)
            * tg.spacing / (2 * np.pi) for x in xs])
        assert np.max(np.abs(apply(chirp_op, f) - direct)) < 1e-12


def point_list_matrix(S, a, grid, route, real=False):
    """The weighted operator matrix by the point-list formula: S and a
    evaluated on every (x, theta) pair of one (M^2, 2) array, and every
    factor applied out of place; the reference of the in-place build.

    With real=True, the formula of a kernel that is real by mirror
    symmetry: the pairs with theta >= 0 only, each theta > 0 weighted
    twice, and E as interleaved (Re, Im) columns against the rows
    cos(theta y), sin(theta y) of a real GEMM.  That GEMM runs on the
    build's blocks of x rows: OpenBLAS's dgemm can round a row block apart
    from one product over all rows (M = 300), where its zgemm does not."""
    xs, th, tg = grid.mesh(), grid.dual().mesh(), grid.dual()
    edge = 0.9 * tg.radius
    tau = np.ones(tg.points)
    outer = np.abs(tg.axis()) > edge
    u = (np.abs(tg.axis()[outer]) - edge) / (tg.radius - edge)
    tau[outer] = 0.5 * (1.0 + np.cos(np.pi * np.clip(u, 0.0, 1.0)))
    weight = tau * (tg.spacing / (2.0 * np.pi))
    if real:
        nodes = np.arange((tg.points + 1) // 2, tg.points)
        th = th[nodes]
        weight = weight[nodes] * np.where(2 * nodes == tg.points, 1.0, 2.0)
    xt = np.concatenate([np.repeat(xs, len(th), axis=0),
                         np.tile(th, (len(xs), 1))], axis=-1)
    svals = evaluate(S.expr, S.variables, xt).reshape(len(xs), len(th))
    avals = np.asarray(evaluate(as_expr(a, S.variables), S.variables, xt),
                       dtype=complex).reshape(len(xs), len(th))
    e = np.exp(1j * svals) * avals * weight
    m, dy = grid.points, grid.spacing
    if real:
        angle = np.outer(th[:, 0], grid.axis())
        table = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        e, table = e.view(float), table.reshape(-1, m)
        blocks = range(0, len(xs), operators._BUILD_ROWS)
        product = np.concatenate([e[i:i + operators._BUILD_ROWS] @ table
                                  for i in blocks])
        return np.sqrt(dy) * product * np.sqrt(dy)
    if route is Route.SPECTRAL:
        col = np.exp(1j * tg.radius * dy * np.arange(m))
        p = np.fft.fft(np.eye(m) * col[None, :], axis=0)
        row = np.exp(1j * tg.spacing * grid.radius * np.arange(m)) \
            * np.exp(-1j * tg.radius * grid.radius)
        p = dy * row[:, None] * p
    else:
        p = np.exp(-1j * (th @ xs.T)) * dy
    return np.sqrt(dy) * (e @ p / dy) * np.sqrt(dy)


class TestNonFiniteAmplitude:
    """e^{iS} a that is not finite at a node: a ValueError naming the
    amplitude and the first such node, and no numpy warning."""

    @pytest.mark.parametrize("route", Route)
    def test_build_names_the_first_node(self, S_xt, grid256, route):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"amplitude a = 1/x0 gives e\^\(iS\) a = .* at x = "
                    r"\[0\.0\], theta = \[-50\.26.*\], which is not finite")):
                discretize_fio(S_xt, "1/x", grid256, grid256, grid256.dual(),
                               route)

    @pytest.mark.parametrize("route", Route)
    def test_overflowing_matrix_names_its_first_entry(self, S_xt, grid256,
                                                       route):
        # e^{iS} a is finite, the sums over theta overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"operator matrix overflows: its entry at x = \[-8\.0\], "
                    r"y = \[-8\.0\] is ")):
                discretize_fio(S_xt, "1e308", grid256, grid256,
                               grid256.dual(), route)


class TestInPlaceBuild:
    """The build holds P, the result and one row block of E at its peak,
    and gives the bits of the point-list formula."""

    @pytest.mark.parametrize("M", [64, 256])
    @pytest.mark.parametrize("a", ["1", "1/lam", "exp(-theta**2)",
                                   "exp(-(x**2+theta**2)/25)"])
    @pytest.mark.parametrize("c", ["0", "1"], ids=["xtheta", "chirp"])
    @pytest.mark.parametrize("route", Route)
    def test_bits_of_the_point_list_formula(self, route, c, a, M):
        # S = x theta with these amplitudes is mirror-symmetric: its KERNEL
        # build is real
        grid = GridSpec(1, 8.0, M, dft_aligned=True)
        F = discretize_fio(chirp(c), a, grid, grid, grid.dual(), route)
        ref = point_list_matrix(chirp(c), a, grid, route,
                                real=route is Route.KERNEL and c == "0")
        assert F.matrix.dtype == ref.dtype
        assert F.matrix.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("a", ["1", "exp(-(x**2+theta**2)/25)"])
    @pytest.mark.parametrize("route", Route)
    def test_row_blocks_equal_one_gemm(self, route, a):
        # three blocks of x rows, the last one short; the point-list
        # formula multiplies all rows in one GEMM
        M = 2 * operators._BUILD_ROWS + 44
        grid = GridSpec(1, 8.0, M, dft_aligned=True)
        F = discretize_fio(chirp("1"), a, grid, grid, grid.dual(), route)
        ref = point_list_matrix(chirp("1"), a, grid, route)
        assert F.matrix.tobytes() == ref.tobytes()

    def test_kernel_build_peak_is_three_matrices(self, S_xt):
        # P, the result and one 128-row block of E: 2.88 times the
        # matrix's bytes; the point-list build peaked at 4.54 times
        grid = GridSpec(1, 4.0, 512, dft_aligned=True)
        discretize_fio(S_xt, "1/lam", grid, grid, grid.dual())  # warm
        tracemalloc.start()
        try:
            F = discretize_fio(S_xt, "1/lam", grid, grid, grid.dual())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * F.matrix.nbytes


def mirror_bound(S, a, grid):
    """A bound, entry by entry, on |K - K_c| for the real build K of a
    mirror-symmetric kernel and the complex point-list formula K_c.

    Both sum the terms T_j(x, y) = e^{i(S(x, theta_j) - theta_j y)}
    a(x, theta_j) tau_j w dy of every node j >= 1 (scaled by sqrt(dx dy)).
    K_c takes the term of node M - j at theta_{M-j} = -theta_j + d_j; K takes
    conj T_j instead.  The mirror node's rounding d_j (at most one ulp of
    Theta, and 0 for most nodes) moves the term by its theta-derivative,
    (|d_theta S - y| + |d_theta a / a|) d_j |T_j|; the two paths round the
    phase products S(x, theta) and theta y apart, 2u (|S| + |theta y|)
    |T_j|; and exp, cos, sin, the amplitude and the products add a few u
    |T_j|, taken as 8u |T_j|.  With |d_theta S - y| <= |d_theta S| + |y|
    that is eps_j(x, y) = alpha_j(x) + beta_j(x) |y| per term.

    These per-term differences are rounding errors whose signs vary with
    the node, so the sum of M of them grows like their root sum of
    squares (the probabilistic rounding error analysis of Higham and
    Mary, SIAM J. Sci. Comput. 41 (2019) A2815): the bound is
    4 sqrt(sum_j eps_j^2), a deviation exceeded with probability below
    2 e^{-8} per entry, plus sqrt(M) u sum_j |T_j| for the two sums' own
    rounding.  The worst case sum_j eps_j, all signs aligned, would be
    4.8e-13 max|K| for a = 1 at M = 1024; this bound stays below 1e-13
    max|K| for S = x theta at M <= 1024 (7.7e-14 for a = 1, the
    largest), and the largest measured difference is 3.3e-14."""
    u = np.finfo(float).eps / 2
    tg, x = grid.dual(), grid.axis()
    th, points = tg.axis(), tg.points
    d = np.zeros(points)
    d[1:] = np.abs(th[1:] + th[:0:-1])
    xt = np.stack(np.broadcast_arrays(x[:, None], th[None, :]), axis=-1)
    a_expr, t = as_expr(a, S.variables), S.tvars[0]

    def size(expr):
        return np.abs(evaluate(expr, S.variables, xt))
    terms = size(a_expr) * operators._theta_weights(tg, True) * grid.spacing
    alpha = terms * ((size(sp.diff(S.expr, t))
                      + size(sp.diff(a_expr, t) / a_expr)) * d
                     + 2 * u * size(S.expr) + 8 * u)
    beta = terms * (d + 2 * u * np.abs(th))
    y = np.abs(x)[None, :]
    rss = np.sqrt(np.sum(alpha ** 2, axis=1)[:, None]
                  + 2 * y * np.sum(alpha * beta, axis=1)[:, None]
                  + y ** 2 * np.sum(beta ** 2, axis=1)[:, None])
    return 4 * rss + np.sqrt(points) * u * np.sum(terms, axis=1)[:, None]


MIRROR_AMPLITUDES = ["1", "1/lam", "exp(-theta**2)", "exp(-(x**2+theta**2)/25)"]


class TestMirrorBuild:
    """A KERNEL kernel that is real by mirror symmetry (n = 1, S odd and a
    conjugate-even in theta, the unmirrored node -Theta tapered to 0) is
    built in real arithmetic over theta >= 0 and stored as float64; every
    other build keeps its complex bits."""

    @pytest.mark.parametrize("s, a", [
        *[("x*theta", a) for a in MIRROR_AMPLITUDES],
        ("x*theta + theta**3/6", "1/lam"),
        ("x*theta", "exp(I*theta - theta**2)")])  # complex, conjugate-even
    def test_real_when_mirror_symmetric(self, s, a):
        grid = GridSpec(1, 8.0, 64, dft_aligned=True)
        F = discretize_fio(GeneratingFunction.from_expr(s, 1), a, grid, grid,
                           grid.dual())
        assert F.matrix.dtype == np.float64
        assert F.provenance["arithmetic"] == "real"

    @pytest.mark.parametrize("s, a, taper", [
        ("x*theta + theta**2/2", "1", True),   # the chirp
        ("x*theta", "1", False),               # -Theta keeps weight 1
        ("x**2 + x*theta", "1", True),         # S not odd in theta
        ("x*theta", "theta", True),            # a not conjugate-even
        ("x*theta", "I*exp(-theta**2)", True),  # even, not conjugate-even
        ("I*x*theta", "1", True),              # odd, e^{iS} not conj-even
    ], ids=["chirp", "untapered", "S-not-odd", "a-odd", "a-imaginary",
            "S-imaginary"])
    def test_complex_otherwise(self, s, a, taper):
        grid = GridSpec(1, 8.0, 64, dft_aligned=True)
        S = GeneratingFunction.from_expr(s, 1)
        F = discretize_fio(S, a, grid, grid, grid.dual(), taper=taper)
        assert F.matrix.dtype == np.complex128
        assert F.provenance["arithmetic"] == "complex"
        if taper:  # the complex point-list formula, bit for bit
            ref = point_list_matrix(S, a, grid, Route.KERNEL)
            assert F.matrix.tobytes() == ref.tobytes()

    def test_complex_in_two_dimensions(self):
        grid = GridSpec(2, 4.0, 8, dft_aligned=True)
        S = GeneratingFunction.from_expr("x0*theta0 + x1*theta1", 2)
        F = discretize_fio(S, "1", grid, grid, grid.dual())
        assert F.matrix.dtype == np.complex128
        assert F.provenance["arithmetic"] == "complex"

    def test_spectral_route_stays_complex(self, S_xt, grid256):
        # and decides nothing, so its provenance does not change
        F = discretize_fio(S_xt, "1", grid256, grid256, grid256.dual(),
                           Route.SPECTRAL)
        assert F.matrix.dtype == np.complex128
        assert set(F.provenance) == {"route", "config"}

    @pytest.mark.parametrize("M, R", [(64, 8.0), (255, 8.0), (300, 8.0),
                                      (512, 4.0), (1024, 4.0)])
    @pytest.mark.parametrize("a", MIRROR_AMPLITUDES)
    def test_close_to_the_complex_formula(self, S_xt, a, M, R):
        grid = GridSpec(1, R, M, dft_aligned=True)
        F = discretize_fio(S_xt, a, grid, grid, grid.dual())
        ref = point_list_matrix(S_xt, a, grid, Route.KERNEL)
        bound = mirror_bound(S_xt, a, grid)
        assert np.max(bound) <= 1e-13 * np.max(np.abs(ref))
        assert np.all(np.abs(F.matrix - ref) <= bound)

    def test_cubic_phase_within_its_bound(self):
        # d_theta S = x + theta^2 / 2 is large at the band's edge: the
        # bound grows with it, and still holds
        S = GeneratingFunction.from_expr("x*theta + theta**3/6", 1)
        grid = GridSpec(1, 8.0, 256, dft_aligned=True)
        F = discretize_fio(S, "1/lam", grid, grid, grid.dual())
        ref = point_list_matrix(S, "1/lam", grid, Route.KERNEL)
        assert np.all(np.abs(F.matrix - ref) <= mirror_bound(S, "1/lam", grid))

    @pytest.mark.parametrize("a, R", [("1/lam", 4.0), ("1", 8.0)],
                             ids=["compact_decay", "noncompact_identity"])
    @pytest.mark.parametrize("M", [256, 512])
    def test_singular_values_of_the_complex_build(self, S_xt, a, R, M):
        # Weyl: |sigma_j(K) - sigma_j(K_c)| <= ||K - K_c||_2 <= ||K - K_c||_F
        grid = GridSpec(1, R, M, dft_aligned=True)
        F = discretize_fio(S_xt, a, grid, grid, grid.dual())
        ref = point_list_matrix(S_xt, a, grid, Route.KERNEL)
        got, _ = singular_values(F)
        want = np.linalg.svd(ref, compute_uv=False)
        assert np.max(np.abs(got - want)) <= np.linalg.norm(F.matrix - ref) \
            + svd_rounding(ref) * want[0]

    @pytest.mark.parametrize("a", ["1", "exp(-(x**2+theta**2)/25)"])
    def test_three_row_blocks(self, S_xt, a):
        # the last one short
        M = 2 * operators._BUILD_ROWS + 44
        grid = GridSpec(1, 8.0, M, dft_aligned=True)
        F = discretize_fio(S_xt, a, grid, grid, grid.dual())
        ref = point_list_matrix(S_xt, a, grid, Route.KERNEL, real=True)
        assert F.matrix.tobytes() == ref.tobytes()

    def test_save_and_load(self, S_xt, tmp_path):
        grid = GridSpec(1, 4.0, 128, dft_aligned=True)
        F = discretize_fio(S_xt, "1/lam", grid, grid, grid.dual())
        save_operator(F, str(tmp_path / "op.fop"))
        back = load_operator(str(tmp_path / "op.fop"))
        assert back.matrix.dtype == np.complex128
        assert np.array_equal(back.matrix, F.matrix)
        assert back.provenance == F.provenance
        assert singular_values(back)[0].tobytes() == \
            singular_values(F)[0].tobytes()

    def test_svd_takes_the_real_matrix_as_it_is(self, S_xt, monkeypatch):
        # the real matrix is symmetric under the grid reflection: its SVD
        # is that of the two blocks, merged, and within the recorded bound
        # of the SVD of the whole
        grid = GridSpec(1, 4.0, 64, dft_aligned=True)
        F = discretize_fio(S_xt, "1/lam", grid, grid, grid.dual())

        def fail(matrix):
            raise AssertionError("_imag_part of a real matrix")
        monkeypatch.setattr(operators, "_imag_part", fail)
        s, record = singular_values(F)
        blocks = np.concatenate([
            np.linalg.svd(b, compute_uv=False)
            for b in operators._reflection_blocks(F.matrix)])
        assert s.tobytes() == np.sort(blocks)[::-1].tobytes()
        assert record == {"arithmetic": "real", "imag_bound": 0.0,
                          "blocks": [[33, 33], [31, 31]],
                          "reflection_bound": record["reflection_bound"]}
        want = np.linalg.svd(F.matrix, compute_uv=False)
        assert np.max(np.abs(s - want)) <= (
            record["reflection_bound"] + svd_rounding(F.matrix)) * want[0]

    def test_algebra_on_the_real_matrix(self, S_xt):
        # apply, adjoint, compose and the norm give the values of the same
        # matrix held as complex
        grid = GridSpec(1, 8.0, 128, dft_aligned=True)
        F = discretize_fio(S_xt, "exp(-(x**2+theta**2)/25)", grid, grid,
                           grid.dual())
        assert not np.array_equal(F.matrix, F.matrix.T)
        Fc = DiscreteOperator(F.matrix.astype(complex), F.row_grid,
                              F.col_grid, F.provenance)
        u = gaussian_samples(grid, 0.5, 1.0) * (1 + 2j)
        assert np.allclose(apply(F, u), apply(Fc, u), rtol=0, atol=1e-15)
        assert adjoint(F).matrix.dtype == np.float64
        assert np.allclose(compose(F, adjoint(F)).matrix,
                           compose(Fc, adjoint(Fc)).matrix, rtol=0,
                           atol=1e-15)
        assert operator_norm(F) == pytest.approx(operator_norm(Fc),
                                                 abs=1e-12)

    def test_apply_complex_vector_in_real_arithmetic(self, S_xt):
        # F u with a complex u on a float64 matrix: the real matrix against
        # u's (re, im) columns.  The complex-held matrix forms the same
        # products (its imaginary parts are 0); the two sums can differ
        # only by rounding, at most a few n eps of sum |M| |u| per entry
        grid = GridSpec(1, 8.0, 300, dft_aligned=True)
        F = discretize_fio(S_xt, "1/lam", grid, grid, grid.dual())
        Fc = DiscreteOperator(F.matrix.astype(complex), F.row_grid,
                              F.col_grid, F.provenance)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        got, want = apply(F, u), apply(Fc, u)
        assert got.dtype == np.complex128
        scale = (np.abs(F.matrix) @ np.abs(u)) * np.sqrt(
            F.quad_weights / F.row_weights)
        bound = 4 * 300 * np.finfo(float).eps * scale
        assert np.all(np.abs(got.real - want.real) <= bound)
        assert np.all(np.abs(got.imag - want.imag) <= bound)

    def test_apply_complex_vector_makes_no_complex_matrix(self, S_xt):
        grid = GridSpec(1, 4.0, 512, dft_aligned=True)
        F = discretize_fio(S_xt, "1/lam", grid, grid, grid.dual())
        u = gaussian_samples(grid, 0.5, 1.0) * (1 + 2j)
        apply(F, u)  # warm
        tracemalloc.start()
        try:
            apply(F, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < F.matrix.nbytes

    @pytest.mark.parametrize("s, route", [
        ("x*theta", Route.KERNEL), ("x*theta + theta**2/2", Route.KERNEL),
        ("x*theta + theta**2/2", Route.SPECTRAL)],
        ids=["real", "complex", "spectral"])
    def test_amplitude_parsed_once_per_build(self, monkeypatch, s, route):
        # three row blocks; the matrix keeps the bits of the point-list
        # formula (TestInPlaceBuild)
        calls = []
        parse = operators.as_expr

        def counting(a, variables):
            calls.append(a)
            return parse(a, variables)
        monkeypatch.setattr(operators, "as_expr", counting)
        grid = GridSpec(1, 8.0, 2 * operators._BUILD_ROWS + 44,
                        dft_aligned=True)
        discretize_fio(GeneratingFunction.from_expr(s, 1), "1/lam", grid,
                       grid, grid.dual(), route)
        assert calls == ["1/lam"]

    @pytest.mark.parametrize("node", [40, 0], ids=["mirrored", "-Theta"])
    def test_names_the_first_non_finite_node_as_complex(self, S_xt, node):
        # a = 1/(theta^2 - theta_node^2) is infinite at theta_node and at
        # its mirror: the message names the first in full-grid order, as
        # the complex SPECTRAL build on the same nodes does.  -Theta is not
        # in the real sum but is checked
        grid = GridSpec(1, 8.0, 64, dft_aligned=True)
        theta = float(grid.dual().axis()[node])
        a = f"1/(theta**2 - {theta ** 2!r})"
        assert operators._real_by_mirror(
            S_xt, as_expr(a, S_xt.variables),
            operators._theta_weights(grid.dual(), True))
        messages = []
        for route in Route:
            with pytest.raises(ValueError) as info:
                discretize_fio(S_xt, a, grid, grid, grid.dual(), route)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"theta = [{-abs(theta)!r}]" in messages[0]


class TestAlgebra:
    def test_adjoint_consistency(self, chirp_op, grid256):
        u = gaussian_samples(grid256, 0.0, 1.0)
        v = gaussian_samples(grid256, 1.0, 0.7)
        lhs = chirp_op.inner(apply(chirp_op, u), v)
        rhs = chirp_op.inner(u, apply(adjoint(chirp_op), v))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_adjoint_involution(self, chirp_op):
        assert np.array_equal(adjoint(adjoint(chirp_op)).matrix,
                              chirp_op.matrix)

    def test_compose_shape_and_hermitian(self, chirp_op):
        C = compose(chirp_op, adjoint(chirp_op))
        assert C.matrix.shape == (256, 256)
        assert np.max(np.abs(C.matrix - C.matrix.conj().T)) < 1e-12

    def test_compose_rejects_mismatched_grids(self, S_chirp, chirp_op):
        g2 = GridSpec(1, 8.0, 128, dft_aligned=True)
        other = discretize_fio(S_chirp, "1", g2, g2, g2.dual(),
                               Route.SPECTRAL)
        with pytest.raises(GridMismatchError):
            compose(chirp_op, other)

    def test_composition_kernel_against_quadrature(self, S_chirp, grid256):
        # (FF*)(x, x') = (2 pi)^{-1} integral |a|^2 e^{i(S(x,t) - S(x',t))} dt
        tg = grid256.dual()
        F = discretize_fio(S_chirp, A_GAUSS, grid256, grid256, tg,
                           Route.KERNEL)
        C = compose(F, adjoint(F))
        th = tg.axis()
        i, j = 128, 140
        x1, x2 = grid256.axis()[i], grid256.axis()[j]
        oracle = np.sum(np.exp(-th ** 2 / 2)
                        * np.exp(1j * (x1 - x2) * th)) * tg.spacing / (2 * np.pi)
        assert C.matrix[i, j] / grid256.spacing == pytest.approx(oracle,
                                                                 abs=1e-13)


class TestNorms:
    def test_chirp_is_unitary(self, chirp_op):
        assert operator_norm(chirp_op) == pytest.approx(1.0, abs=1e-7)

    def test_norm_squared_matches_composition_norm(self, chirp_op):
        tol = 1e-8
        n = operator_norm(chirp_op, tol=tol)
        m = operator_norm(compose(chirp_op, adjoint(chirp_op)), tol=tol)
        assert abs(n ** 2 - m) <= 2 * tol

    def test_singular_values_nonincreasing(self, chirp_op):
        sv, _ = singular_values(chirp_op)
        assert np.all(np.diff(sv) <= 1e-12)
        assert len(sv) == 256

    def test_singular_values_count(self, chirp_op):
        assert len(singular_values(chirp_op, 10)[0]) == 10

    def test_norm_equals_top_singular_value(self, S_chirp, grid256):
        F = discretize_fio(S_chirp, A_GAUSS, grid256, grid256,
                           grid256.dual(), Route.SPECTRAL)
        assert operator_norm(F) == pytest.approx(
            float(singular_values(F, 1)[0][0]), abs=1e-7)

    def test_non_finite_iterate_raises_at_once(self, chirp_op):
        # F*F overflows: the first iterate is not finite, and the iteration
        # stops there instead of running its 10000 steps on NaN
        huge = DiscreteOperator(1e200 * chirp_op.matrix, chirp_op.row_grid,
                                chirp_op.col_grid, chirp_op.provenance)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IterationError,
                               match=r"step [1-3]: the iterate .* not finite"):
                operator_norm(huge)

    @given(st.floats(0.25, 4.0))
    @settings(max_examples=10, deadline=None)
    def test_norm_scales_linearly(self, S_chirp, grid256, c):
        F = discretize_fio(S_chirp, "1", grid256, grid256, grid256.dual(),
                           Route.SPECTRAL)
        scaled = discretize_fio(S_chirp, f"{c!r}", grid256, grid256,
                                grid256.dual(), Route.SPECTRAL)
        assert operator_norm(scaled) == pytest.approx(
            c * operator_norm(F), rel=1e-6)


def svd_rounding(matrix) -> float:
    """A bound on LAPACK's own error in one singular value, relative to
    sigma_max: a small multiple of n eps."""
    return 8.0 * max(matrix.shape) * np.finfo(float).eps


def spy_on_svd(monkeypatch) -> list:
    """The matrices np.linalg.svd is given from here on.  Where LAPACK does
    not converge (it may not on an entry that is not finite), the spy
    returns nan values, so that `singular_values` still returns its
    record."""
    given, svd = [], np.linalg.svd

    def spy(m, **kwargs):
        given.append(m)
        try:
            return svd(m, **kwargs)
        except np.linalg.LinAlgError:
            return np.full(min(m.shape), np.nan)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return given


class TestRealArithmeticSvd:
    """A kernel that is real up to rounding has its SVD taken of Re K: each
    singular value moves by at most ||Im K||_2 (Weyl), which the record
    bounds by ||Im K||_F / sigma_max; any other kernel keeps its bits."""

    @pytest.mark.parametrize("a, R", [("1/lam", 4.0), ("1", 8.0),
                                      ("exp(-theta**2)", 8.0)],
                             ids=["compact_decay", "noncompact_identity",
                                  "multiplier_norm"])
    @pytest.mark.parametrize("M", [64, 128])
    def test_bundled_kernels_within_the_recorded_bound(self, S_xt, a, R, M):
        # the kernels of the three SVD scenarios, as the runner builds
        # them, at small M
        grid = GridSpec(1, R, M, dft_aligned=True)
        F = discretize_fio(S_xt, a, grid, grid, grid.dual())
        want = np.linalg.svd(F.matrix, compute_uv=False)
        got, record = singular_values(F)
        assert record["arithmetic"] == "real"
        assert record["imag_bound"] <= 1e-12
        assert record["blocks"] == [[M // 2 + 1] * 2, [M // 2 - 1] * 2]
        assert record["reflection_bound"] <= 1e-12
        assert np.max(np.abs(got - want)) <= (
            record["imag_bound"] + svd_rounding(F.matrix)) * want[0]

    def test_complex_kernel_keeps_its_bits(self):
        # the cubic phase is odd, so PKP is conj K: ||K - PKP||_F / 2 is
        # about 11 ||K||_F / sqrt(M), far above the reflection rule
        grid = GridSpec(1, 8.0, 256, dft_aligned=True)
        F = discretize_fio(
            GeneratingFunction.from_expr("x*theta + theta**3/6", 1), "1",
            grid, grid, grid.dual(), Route.SPECTRAL)
        got, record = singular_values(F)
        assert np.array_equal(got, np.linalg.svd(F.matrix, compute_uv=False))
        assert record["arithmetic"] == "complex"
        assert (record["blocks"], record["reflection_bound"]) == (None, 0.0)

    def test_huge_kernel_keeps_its_relative_spectrum(self, S_xt):
        # ||K||_F of K * 1e300 overflows unless K is scaled first
        grid = GridSpec(1, 4.0, 64, dft_aligned=True)
        F = discretize_fio(S_xt, "1/lam", grid, grid, grid.dual())
        huge = DiscreteOperator(1e300 * F.matrix, F.row_grid, F.col_grid,
                                F.provenance)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(np.abs(huge.matrix) ** 2))
        got, record = singular_values(huge)
        assert record["arithmetic"] == "real"
        assert record["imag_bound"] == pytest.approx(
            singular_values(F)[1]["imag_bound"], rel=1e-12)
        want = np.linalg.svd(F.matrix, compute_uv=False)
        assert np.max(np.abs(got / got[0] - want / want[0])) <= \
            record["imag_bound"] + svd_rounding(F.matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 1.0)])
    def test_non_finite_kernel_never_takes_the_real_path(self, monkeypatch,
                                                         bad):
        matrix = np.zeros((8, 8), dtype=complex)
        matrix[3, 5] = bad
        grid = GridSpec(1, 1.0, 8)
        F = DiscreteOperator(matrix, grid, grid, {})
        given = spy_on_svd(monkeypatch)
        with np.errstate(all="ignore"):
            _, record = singular_values(F)
        assert [m.dtype for m in given] == [np.dtype(complex)]
        assert record["arithmetic"] == "complex"

    def test_zero_kernel(self):
        grid = GridSpec(1, 1.0, 8)
        F = DiscreteOperator(np.zeros((8, 8), dtype=complex), grid, grid, {})
        got, record = singular_values(F)
        assert np.array_equal(got, np.zeros(8))
        assert record == {"arithmetic": "real", "imag_bound": 0.0,
                          "blocks": None, "reflection_bound": 0.0}

    @settings(max_examples=60, deadline=None)
    @example(m=6, n=4, seed=0, log_delta=None)
    @example(m=6, n=4, seed=0, log_delta=-16.0)
    @example(m=6, n=4, seed=0, log_delta=-10.0)
    @given(m=st.integers(2, 12), n=st.integers(2, 12),
           seed=st.integers(0, 2 ** 32 - 1),
           log_delta=st.one_of(st.just(None), st.floats(-18.0, -8.0)))
    def test_within_the_perturbation_on_either_side(self, m, n, seed,
                                                    log_delta):
        # K = A + i delta B with A and B real: the real path (||delta B||_F
        # below 1e-12 ||K||_F / sqrt(min(m, n))) moves each singular value
        # by at most ||delta B||_2 <= ||delta B||_F; the complex path gives
        # np.linalg.svd's own bits
        rng = np.random.default_rng(seed)
        delta = 0.0 if log_delta is None else 10.0 ** log_delta
        imag = delta * rng.standard_normal((m, n))
        matrix = rng.standard_normal((m, n)) + 1j * imag
        F = DiscreteOperator(matrix, GridSpec(1, 1.0, m), GridSpec(1, 1.0, n),
                             {})
        want = np.linalg.svd(matrix, compute_uv=False)
        got, record = singular_values(F)
        real = np.linalg.norm(imag) <= 1e-12 * np.linalg.norm(matrix) \
            / np.sqrt(min(m, n))
        assert record["arithmetic"] == (
            "real" if real else "complex")
        if real:
            assert np.max(np.abs(got - want)) <= np.linalg.norm(imag) + \
                svd_rounding(matrix) * want[0]
        else:
            assert np.array_equal(got, want)


def reflect(matrix):
    """PKP by fancy indexing: row i to -i mod m, column j to -j mod n."""
    m, n = matrix.shape
    return matrix[np.ix_(-np.arange(m) % m, -np.arange(n) % n)]


def reflection_basis(m):
    """(even, odd) orthonormal columns, built one by one: e_i for i = -i
    mod m, and (e_i +- e_{m-i}) / sqrt 2 for the pairs, i = 1 .. m // 2."""
    even, odd = [], []
    for i in range(m // 2 + 1):
        v = np.zeros(m)
        v[i] += 1.0
        v[-i % m] += 1.0
        even.append(v / np.linalg.norm(v))
        if i != -i % m:
            w = np.zeros(m)
            w[i], w[-i % m] = 1.0, -1.0
            odd.append(w / np.sqrt(2.0))
    return np.array(even).T, np.array(odd).reshape(-1, m).T


class TestReflectionSplit:
    """A matrix symmetric under the grid reflection P up to rounding,
    ||K - PKP||_F / 2 <= 1e-12 ||K||_F / sqrt(min(m, n)), has its SVD taken
    of the even and odd blocks of (K + PKP) / 2: each value moves by at
    most ||K - PKP||_F / 2 (Weyl), which the record bounds relative to
    sigma_max.  Any other matrix keeps np.linalg.svd's own bits."""

    @settings(max_examples=60, deadline=None)
    @example(m=64, n=64, seed=0, complex_=False, log_delta=None)
    @example(m=64, n=64, seed=1, complex_=True, log_delta=-14.0)
    @example(m=64, n=64, seed=2, complex_=False, log_delta=-10.0)
    @example(m=6, n=4, seed=0, complex_=True, log_delta=-16.0)
    @example(m=5, n=8, seed=0, complex_=False, log_delta=-9.0)
    @given(m=st.integers(2, 12), n=st.integers(2, 12),
           seed=st.integers(0, 2 ** 32 - 1), complex_=st.booleans(),
           log_delta=st.one_of(st.just(None), st.floats(-18.0, -8.0)))
    def test_within_the_asymmetry_on_either_side(self, m, n, seed, complex_,
                                                 log_delta):
        # K = (a P-symmetric matrix) + delta (a P-antisymmetric matrix)
        rng = np.random.default_rng(seed)

        def draw():
            a = rng.standard_normal((m, n))
            return a + 1j * rng.standard_normal((m, n)) if complex_ else a
        a, b = draw(), draw()
        delta = 0.0 if log_delta is None else 10.0 ** log_delta
        matrix = (a + reflect(a)) / 2 + delta * (b - reflect(b)) / 2
        F = DiscreteOperator(matrix, GridSpec(1, 1.0, m), GridSpec(1, 1.0, n),
                             {})
        want = np.linalg.svd(matrix, compute_uv=False)
        got, record = singular_values(F)
        asym = np.linalg.norm(matrix - reflect(matrix)) / 2
        split = asym <= 1e-12 * np.linalg.norm(matrix) / np.sqrt(min(m, n))
        assert (record["blocks"] is not None) == split
        if split:
            assert len(got) == min(m, n)
            assert record["reflection_bound"] == pytest.approx(
                asym / got[0], rel=1e-6, abs=0.0)
            assert np.max(np.abs(got - want)) <= asym + \
                svd_rounding(matrix) * want[0]
        else:
            assert np.array_equal(got, want)
            assert record["reflection_bound"] == 0.0

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (5, 8), (8, 5), (7, 7),
                                      (6, 6)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_of_the_symmetric_part(self, m, n, dtype):
        # against Q^T (K + PKP)/2 Q in an explicitly built basis, for a K
        # that is not symmetric
        rng = np.random.default_rng(m * 16 + n)
        matrix = rng.standard_normal((m, n)).astype(dtype)
        if dtype is complex:
            matrix += 1j * rng.standard_normal((m, n))
        (er, orow), (ec, ocol) = reflection_basis(m), reflection_basis(n)
        sym = (matrix + reflect(matrix)) / 2
        even, odd = operators._reflection_blocks(matrix)
        tol = 1e-14 * np.max(np.abs(matrix))
        assert np.max(np.abs(er.T @ sym @ ocol), initial=0.0) <= tol
        assert np.max(np.abs(orow.T @ sym @ ec), initial=0.0) <= tol
        assert even.shape == (er.shape[1], ec.shape[1])
        assert odd.shape == (orow.shape[1], ocol.shape[1])
        assert np.max(np.abs(even - er.T @ sym @ ec)) <= tol
        assert np.max(np.abs(odd - orow.T @ sym @ ocol), initial=0.0) <= tol

    def test_complex_kernel_splits(self):
        # the chirp's KERNEL build at M = 64 is complex and P-symmetric up
        # to rounding (S is even in (x, theta) jointly)
        grid = GridSpec(1, 8.0, 64, dft_aligned=True)
        F = discretize_fio(chirp("1"), "1", grid, grid, grid.dual())
        got, record = singular_values(F)
        assert F.matrix.dtype == np.complex128
        assert record["arithmetic"] == "complex"
        assert record["blocks"] == [[33, 33], [31, 31]]
        assert record["reflection_bound"] <= 1e-12
        want = np.linalg.svd(F.matrix, compute_uv=False)
        assert np.max(np.abs(got - want)) <= (
            record["reflection_bound"] + svd_rounding(F.matrix)) * want[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_not_split(self, monkeypatch, bad):
        matrix = np.zeros((8, 8))
        matrix[3, 5] = bad
        grid = GridSpec(1, 1.0, 8)
        F = DiscreteOperator(matrix, grid, grid, {})
        given = spy_on_svd(monkeypatch)
        with np.errstate(all="ignore"):
            _, record = singular_values(F)
        assert [m.shape for m in given] == [(8, 8)]
        assert record["blocks"] is None


class TestReflectionBlocks:
    """`discretize_blocks` builds the even and odd blocks of (K + PKP) / 2
    without K where sympy proves the kernel real and reflection-symmetric
    and the fixed rows and columns pass the split rule; `discretize_fio`
    with `singular_values` is the reference."""

    @pytest.mark.parametrize("R", [4.0, 8.0])
    @pytest.mark.parametrize("M", [64, 256, 512])
    @pytest.mark.parametrize("a", ["1", "1/lam", "exp(-theta**2)",
                                   "1/lam**2"])
    def test_matches_the_full_build(self, S_xt, a, M, R):
        grid = GridSpec(1, R, M, dft_aligned=True)
        args = (S_xt, a, grid, grid, grid.dual())
        blocks, F = operators.discretize_blocks(*args), discretize_fio(*args)
        (got, record), (want, reference) = (singular_values(blocks),
                                            singular_values(F))
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]
        scale = np.max(np.abs(F.matrix))
        for built, split in zip((blocks.even, blocks.odd),
                                operators._reflection_blocks(F.matrix)):
            assert np.max(np.abs(built - split)) <= 1e-14 * scale
        assert record["arithmetic"] == "real" and record["imag_bound"] == 0.0
        assert record["blocks"] == reference["blocks"] == [
            [M // 2 + 1, M // 2 + 1], [M // 2 - 1, M // 2 - 1]]
        # the asymmetry of the fixed rows and columns is the full matrix's
        assert record["reflection_bound"] == pytest.approx(
            reference["reflection_bound"], rel=1e-2)
        assert record["reflection_bound"] <= 1e-12

    def test_count_and_cap(self, S_xt, monkeypatch):
        grid = GridSpec(1, 4.0, 64, dft_aligned=True)
        blocks = operators.discretize_blocks(S_xt, "1/lam", grid, grid,
                                             grid.dual())
        assert np.array_equal(singular_values(blocks, 5)[0],
                              singular_values(blocks)[0][:5])
        monkeypatch.setattr(operators, "SVD_CAP", 63)
        with pytest.raises(ValueError, match="capped at 63"):
            singular_values(blocks)

    @pytest.mark.parametrize("S, a, M, taper, evaluated, split", [
        # outside the proof, nothing is evaluated: the chirp (a complex
        # kernel), a(-x, -theta) != a(x, theta), an odd M, and a weighted
        # node -Theta (taper off), whose full build sums complex terms
        ("x*theta + theta**2/2", "1", 64, True, False, True),
        ("x*theta", "1/lam + x/10", 64, True, False, False),
        ("x*theta", "1", 63, True, False, False),
        ("x*theta", "1", 64, False, False, True),
        # proved, but the row x = -R is far from symmetric, so K is not
        # split either; and a zero kernel, which is decomposed whole
        ("x*theta + x**3*theta**3/100", "1/lam", 64, True, True, False),
        ("x*theta", "1 + I*x*theta", 64, True, True, False),
        ("x*theta", "0", 64, True, True, False),
    ])
    def test_not_built_outside_the_proof(self, monkeypatch, S, a, M, taper,
                                         evaluated, split):
        grid = GridSpec(1, 8.0, M, dft_aligned=True)
        S = GeneratingFunction.from_expr(S, 1)
        args = (S, a, grid, grid, grid.dual())
        calls = []
        phase_amp = operators._phase_amp_matrix

        def spy(*call, **kwargs):
            calls.append(call)
            return phase_amp(*call, **kwargs)
        monkeypatch.setattr(operators, "_phase_amp_matrix", spy)
        assert operators.discretize_blocks(*args, taper=taper) is None
        assert bool(calls) == evaluated
        F = discretize_fio(*args, taper=taper)
        assert (singular_values(F)[1]["blocks"] is not None) == split

    @pytest.mark.parametrize("a, message", [
        ("1/x**2", "gives e\\^\\(iS\\) a = \\(inf\\+nanj\\) at x = \\[0.0\\]"),
        ("1e308", "a reflection block of the operator matrix overflows")])
    def test_non_finite_raises(self, S_xt, a, message):
        grid = GridSpec(1, 4.0, 64, dft_aligned=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                operators.discretize_blocks(S_xt, a, grid, grid, grid.dual())


class TestAmplitudeForms:
    """Every accepted amplitude form gives the same operator, bit for bit."""

    grid = GridSpec(1, 8.0, 64, dft_aligned=True)

    def build(self, S, a):
        F = discretize_fio(S, a, self.grid, self.grid, self.grid.dual())
        return F.matrix, predicted_symbol(S, a, 0.5, -0.25)[1]

    def assert_identical(self, S, forms):
        (m0, p0), *rest = [self.build(S, a) for a in forms]
        for m, p in rest:
            assert np.array_equal(m, m0) and p == p0

    def test_string_expr_and_field(self, S_chirp):
        expr = sp.exp(-S_chirp.tvars[0] ** 2)
        field = SymbolField.from_expr(expr, S_chirp.variables)
        self.assert_identical(S_chirp, ["exp(-theta**2)", expr, field])

    def test_float_keeps_every_digit(self, S_chirp):
        forms = [0.1 + 0.2, "0.30000000000000004"]
        self.assert_identical(S_chirp, forms)
        phi = special_phase(S_chirp)
        v0, v1 = [fio_apply_ibp(a, phi, "exp(-y**2/2)", 0.0, k=0, R=4.0).value
                  for a in forms]
        assert v0 == v1


class TestPersistence:
    def test_weights_from_grids(self, chirp_op, grid256):
        assert chirp_op.quad_weights == grid256.spacing
        assert adjoint(chirp_op).row_weights == grid256.spacing

    def test_roundtrip(self, chirp_op, tmp_path):
        p = tmp_path / "op.fop"
        save_operator(chirp_op, str(p))
        back = load_operator(str(p))
        assert np.array_equal(back.matrix, chirp_op.matrix)
        assert np.array_equal(back.quad_weights, chirp_op.quad_weights)

    def test_magic_bytes(self, chirp_op, tmp_path):
        p = tmp_path / "op.fop"
        save_operator(chirp_op, str(p))
        assert p.read_bytes()[:8] == b"FIOLAB01"

    def test_corrupt_magic_rejected(self, chirp_op, tmp_path):
        p = tmp_path / "op.fop"
        save_operator(chirp_op, str(p))
        data = bytearray(p.read_bytes())
        data[:8] = b"BOGUS!!!"
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_operator(str(p))

    @pytest.mark.parametrize("damage", [
        lambda b: b[:12],                     # ends inside the length field
        lambda b: b[:-1],                     # payload one byte short
        lambda b: b + bytes(16),              # one trailing matrix entry
        lambda b: b"FIOLAB01" + struct.pack("<Q", 0),  # no header at all
    ], ids=["truncated-length", "truncated-payload", "extended", "headerless"])
    def test_damaged_file_rejected(self, chirp_op, tmp_path, damage):
        p = tmp_path / "op.fop"
        save_operator(chirp_op, str(p))
        p.write_bytes(damage(p.read_bytes()))
        with pytest.raises(OperatorFormatError):
            load_operator(str(p))

    @staticmethod
    def saved_with_header(F, path, edit):
        """Save F, then rewrite the file's JSON header by `edit`."""
        save_operator(F, str(path))
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        edit(header)
        new = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new
                         + blob[16 + hlen:])
        return header

    def test_header_missing_key_rejected(self, chirp_op, tmp_path):
        p = tmp_path / "op.fop"
        self.saved_with_header(chirp_op, p, lambda h: h.pop("shape"))
        with pytest.raises(OperatorFormatError):
            load_operator(str(p))

    def test_header_records_format_version(self, chirp_op, tmp_path):
        header = self.saved_with_header(chirp_op, tmp_path / "op.fop",
                                        lambda h: None)
        assert header["format"] == 1

    def test_versionless_file_loads_bit_exact(self, chirp_op, tmp_path):
        # files written before the header had a format field
        p = tmp_path / "op.fop"
        header = self.saved_with_header(chirp_op, p, lambda h: h.pop("format"))
        assert "format" not in header
        back = load_operator(str(p))
        assert back.matrix.tobytes() == chirp_op.matrix.tobytes()
        assert (back.row_grid, back.col_grid, back.provenance) == (
            chirp_op.row_grid, chirp_op.col_grid, chirp_op.provenance)

    @pytest.mark.parametrize("version", [0, 2, 1.0, "1", True, None, [1]])
    def test_other_format_rejected(self, chirp_op, tmp_path, version):
        p = tmp_path / "op.fop"
        self.saved_with_header(chirp_op, p,
                               lambda h: h.update(format=version))
        with pytest.raises(OperatorFormatError, match="format"):
            load_operator(str(p))


class TestGaussianSamples:
    def test_unit_width(self, grid256):
        f = gaussian_samples(grid256, 0.0, 1.0)
        i = grid256.nearest_index(0.0)
        assert f[i] == pytest.approx(1.0)

    def test_width_floor_enforced(self, grid256):
        with pytest.raises(ValueError):
            gaussian_samples(grid256, 0.0, 1e-9)


@functools.cache
def chirp(c: str) -> GeneratingFunction:
    """S = x*theta + c*theta^2/2 (built once per c)."""
    return GeneratingFunction.from_expr(f"x*theta + ({c})*theta**2/2", 1)


def complex_vectors(size):
    return hnp.arrays(np.complex128, size, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False))


class TestProperties:
    """Contracts over drawn inputs: the adjoint identity and the binary
    format's round trip."""

    @given(c=st.sampled_from(["0", "1/4", "1/2", "1", "-3/4"]),
           a=st.sampled_from(["1", A_GAUSS]), route=st.sampled_from(Route),
           points=st.sampled_from([8, 16, 32]),
           radius=st.floats(2.0, 8.0), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_adjoint_identity(self, c, a, route, points, radius, data):
        # <F u, v> = <u, F* v> up to rounding of the two sums: a few ulp of
        # h sum_ij |v_i| |M_ij| |u_j| per term, and below the normal range
        # the spacing of subnormal products
        grid = GridSpec(1, radius, points, dft_aligned=True)
        F = discretize_fio(chirp(c), a, grid, grid, grid.dual(), route)
        u = data.draw(complex_vectors(points))
        v = data.draw(complex_vectors(points))
        lhs = F.inner(apply(F, u), v)
        rhs = F.inner(u, apply(adjoint(F), v))
        bound = grid.spacing * (np.abs(v) @ np.abs(F.matrix) @ np.abs(u))
        assert abs(lhs - rhs) <= 8 * points * np.finfo(float).eps * bound \
            + np.finfo(float).tiny

    @given(rows=st.integers(2, 6), cols=st.integers(2, 6),
           radii=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
           aligned=st.tuples(st.booleans(), st.booleans()),
           provenance=st.dictionaries(st.text(max_size=8), st.one_of(
               st.text(max_size=8), st.integers(), st.booleans(),
               st.floats(allow_nan=False))), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_save_load_round_trip_is_bit_exact(self, rows, cols, radii,
                                               aligned, provenance, data):
        # every matrix entry, NaN payloads, infinities, signed zeros and
        # subnormals included, and the grids and provenance come back
        matrix = data.draw(hnp.arrays(np.complex128, (rows, cols)))
        F = DiscreteOperator(matrix, GridSpec(1, radii[0], rows, aligned[0]),
                             GridSpec(1, radii[1], cols, aligned[1]),
                             provenance)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = (os.path.join(tmp, n) for n in ("a", "b"))
            save_operator(F, first)
            back = load_operator(first)
            save_operator(back, second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()
        assert back.matrix.tobytes() == F.matrix.tobytes()
        assert back.matrix.shape == F.matrix.shape
        assert (back.row_grid, back.col_grid) == (F.row_grid, F.col_grid)
        assert back.provenance == provenance
