"""Discretized operators: kernel evaluation, routes, algebra, norms, I/O."""
import functools
import json
import os
import struct
import tempfile

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from fiolab.symbols import SymbolField

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
        sv = singular_values(chirp_op)
        assert np.all(np.diff(sv) <= 1e-12)
        assert len(sv) == 256

    def test_singular_values_count(self, chirp_op):
        assert len(singular_values(chirp_op, 10)) == 10

    def test_norm_equals_top_singular_value(self, S_chirp, grid256):
        F = discretize_fio(S_chirp, A_GAUSS, grid256, grid256,
                           grid256.dual(), Route.SPECTRAL)
        assert operator_norm(F) == pytest.approx(
            float(singular_values(F, 1)[0]), abs=1e-7)

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

    def test_header_missing_key_rejected(self, chirp_op, tmp_path):
        p = tmp_path / "op.fop"
        save_operator(chirp_op, str(p))
        blob = p.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        del header["shape"]
        new = json.dumps(header).encode()
        p.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new
                      + blob[16 + hlen:])
        with pytest.raises(OperatorFormatError):
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
