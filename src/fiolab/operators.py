"""Dense discretizations of the operator with kernel
K(x, y) = (2 pi)^{-n} * integral of e^{i(S(x,theta) - y.theta)} a(x,theta).

Two independent builders: the KERNEL route performs the theta-quadrature
entry by entry; the SPECTRAL route composes an FFT-based discrete Fourier
transform with the e^{iS} a multiplier on DFT-aligned grids.  Quadrature
weights are folded symmetrically (W^{1/2} K W^{1/2}) into the stored matrix
so the matrix adjoint coincides with the L2(grid) adjoint exactly.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np
import sympy as sp

from .expressions import evaluate
from .grids import GridSpec
from .phases import GeneratingFunction, conjugate_mirror
from .symbols import as_expr

MAGIC = b"FIOLAB01"
#: the header's "format" field; a header without one is read as this format
FORMAT = 1


class Route(Enum):
    KERNEL = "KERNEL"
    SPECTRAL = "SPECTRAL"


class GridMismatchError(ValueError):
    pass


class AlignmentError(ValueError):
    """SPECTRAL route requested without DFT-aligned y/theta grids."""


class IterationError(RuntimeError):
    pass


class OperatorFormatError(ValueError):
    """File that does not follow the binary operator layout."""


def _grids_equal(g1: GridSpec, g2: GridSpec) -> bool:
    return (g1.dim, g1.points) == (g2.dim, g2.points) and \
        abs(g1.radius - g2.radius) < 1e-12


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense operator between two uniform grids.

    `matrix` holds W_row^{1/2} K W_col^{1/2}; the grids are uniform, so
    each side has one quadrature weight, spacing^dim.
    """

    matrix: np.ndarray
    row_grid: GridSpec
    col_grid: GridSpec
    provenance: dict

    def __post_init__(self):
        m = self.matrix
        if m.shape != (self.row_grid.size, self.col_grid.size):
            raise GridMismatchError(
                f"matrix shape {m.shape} does not match grids "
                f"({self.row_grid.size}, {self.col_grid.size})")

    @property
    def quad_weights(self) -> float:
        return self.col_grid.spacing ** self.col_grid.dim

    @property
    def row_weights(self) -> float:
        return self.row_grid.spacing ** self.row_grid.dim

    def inner(self, u, v) -> complex:
        """Weighted L2 inner product <u, v> on the column grid."""
        return complex(np.sum(self.quad_weights * np.asarray(u)
                              * np.conj(np.asarray(v))))


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _taper_1d(axis: np.ndarray, radius: float) -> np.ndarray:
    """Cosine roll-off on the outer tenth of [-radius, radius]."""
    edge = 0.9 * radius
    t = np.ones_like(axis)
    outer = np.abs(axis) > edge
    u = (np.abs(axis[outer]) - edge) / (radius - edge)
    t[outer] = 0.5 * (1.0 + np.cos(np.pi * np.clip(u, 0.0, 1.0)))
    return t


def _theta_taper(theta_grid: GridSpec, enabled: bool) -> np.ndarray:
    if not enabled:
        return np.ones(theta_grid.size)
    t1 = _taper_1d(theta_grid.axis(), theta_grid.radius)
    out = t1
    for _ in range(theta_grid.dim - 1):
        out = np.multiply.outer(out, t1)
    return out.ravel()


def _phase_amp_matrix(S: GeneratingFunction, a_expr: sp.Expr,
                      x_points: np.ndarray, th: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """E[i, k] = e^{i S(x_i, th_k)} a(x_i, th_k) weights_k, for the
    amplitude a already parsed by `as_expr`.

    The (x, theta) point list lives only while S and a are evaluated on it,
    and E is scaled in place: a real amplitude stays real, and numpy casts
    it to complex inside the multiply, so the bits are those of a complex
    one.  A value of e^{iS} a that is not finite raises ValueError naming
    the amplitude and the first (x, theta) node where it is, without a
    numpy warning."""
    n = S.n
    xt = np.empty((len(x_points), len(th), 2 * n))
    xt[..., :n] = x_points[:, None, :]
    xt[..., n:] = th[None, :, :]
    svals = evaluate(S.expr, S.variables, xt)
    avals = evaluate(a_expr, S.variables, xt)
    del xt
    e = 1j * svals
    del svals
    with np.errstate(all="ignore"):
        np.exp(e, out=e)
        e *= avals
    del avals
    if not np.isfinite(e).all():
        i, k = np.argwhere(~np.isfinite(e))[0]
        raise ValueError(
            f"the amplitude a = {a_expr} gives e^(iS) a = {e[i, k]} at x = "
            f"{x_points[i].tolist()}, theta = {th[k].tolist()}, which is "
            f"not finite")
    e *= weights[None, :]
    return e


def _theta_weights(theta_grid: GridSpec, taper: bool) -> np.ndarray:
    """tau_k w_k / (2 pi)^n: the taper times the trapezoid weight."""
    w = theta_grid.spacing ** theta_grid.dim / (2.0 * np.pi) ** theta_grid.dim
    return _theta_taper(theta_grid, taper) * w


def kernel_eval(S: GeneratingFunction, a, x, y, theta_grid: GridSpec,
                taper: bool = True) -> complex:
    """Pointwise kernel value by tapered trapezoid quadrature in theta."""
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=float))
    th = theta_grid.mesh()
    e = _phase_amp_matrix(S, as_expr(a, S.variables), x, th,
                          _theta_weights(theta_grid, taper))[0]
    return complex(np.sum(e * np.exp(-1j * (th @ y))))


def _dft_synthesis_matrix(y_grid: GridSpec, theta_grid: GridSpec) -> np.ndarray:
    """P[k, j] = e^{-i theta_k y_j} dy via FFT on aligned 1-D grids."""
    m = y_grid.points
    dy, dth = y_grid.spacing, theta_grid.spacing
    r, big = y_grid.radius, theta_grid.radius
    col = np.exp(1j * big * dy * np.arange(m))
    p = np.eye(m, dtype=complex)
    p *= col[None, :]
    p = np.fft.fft(p, axis=0)
    row = np.exp(1j * dth * r * np.arange(m)) * np.exp(-1j * big * r)
    # the row factor stays the left operand: numpy's complex multiply is
    # not commutative bit for bit
    return np.multiply(dy * row[:, None], p, out=p)


def _quadrature_synthesis_matrix(y_grid: GridSpec,
                                 theta_grid: GridSpec) -> np.ndarray:
    """P[k, j] = e^{-i theta_k . y_j} dy^n, entry by entry."""
    p = -1j * (theta_grid.mesh() @ y_grid.mesh().T)
    np.exp(p, out=p)
    p *= y_grid.spacing ** y_grid.dim
    return p


def _mirror_synthesis_table(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T[2k] = cos(theta_k y), T[2k + 1] = sin(theta_k y), built in place.

    Against E viewed as interleaved (Re E_k, Im E_k) pairs, one real GEMM
    gives sum_k Re(E_k e^{-i theta_k y})."""
    table = np.empty((len(theta), 2, len(y)))
    np.multiply.outer(theta, y, out=table[:, 1])
    np.cos(table[:, 1], out=table[:, 0])
    np.sin(table[:, 1], out=table[:, 1])
    return table.reshape(2 * len(theta), len(y))


def _real_by_mirror(S: GeneratingFunction, a_expr: sp.Expr,
                    weights: np.ndarray) -> bool:
    """Whether the KERNEL route's kernel is real by mirror symmetry: n = 1,
    sympy proves S(x, -theta) = -conj S(x, theta) and a(x, -theta) =
    conj a(x, theta) (`conjugate_mirror`), and the one node without a
    mirror, -Theta, has weight 0.  Then the theta and -theta terms of each
    entry are complex conjugates."""
    return (S.n == 1 and weights[0] == 0.0
            and conjugate_mirror(S.expr, a_expr, S.tvars[0]))


def _mirror_nodes(points: int) -> Tuple[np.ndarray, np.ndarray]:
    """(node indices, multiplicities) of the real build: node 0 (-Theta,
    weight 0, evaluated only for the finiteness check), then every node
    theta >= 0.  Node j >= 1 mirrors node points - j, so a node theta > 0
    stands for the pair +-theta (2) and the node at 0, for even points,
    for itself (1)."""
    nodes = np.r_[0, (points + 1) // 2:points]
    return nodes, np.where(2 * nodes == points, 1.0, 2.0)


#: x rows of E per block of `discretize_fio`.  Each block is one GEMM into
#: its rows of the result; a complex build has the bits of one GEMM over
#: all rows, while OpenBLAS's real dgemm can round a block apart from that
#: (at M = 300, not at 256, 512 or 1024).
_BUILD_ROWS = 128


def discretize_fio(S: GeneratingFunction, a, x_grid: GridSpec,
                   y_grid: GridSpec, theta_grid: GridSpec,
                   route: Route = Route.KERNEL,
                   taper: bool = True) -> DiscreteOperator:
    """Dense matrix of the operator, by the requested build route.  An
    e^{iS} a that is not finite at a node, or a matrix entry that
    overflows, raises ValueError without a numpy warning.

    A KERNEL build whose kernel is real by mirror symmetry (see
    `_real_by_mirror`) is summed in real arithmetic over the nodes
    theta >= 0, each theta > 0 counted twice, and stored as float64; any
    other build is complex128.  A KERNEL build's provenance records which
    as "arithmetic"."""
    if x_grid.dim != S.n or y_grid.dim != S.n or theta_grid.dim != S.n:
        raise GridMismatchError("grid dimensions must match the phase")
    if route is Route.SPECTRAL:
        if S.n != 1:
            raise NotImplementedError("SPECTRAL route supports n = 1")
        if not (y_grid.dft_aligned and theta_grid.dft_aligned):
            raise AlignmentError("SPECTRAL route needs dft_aligned y/theta grids")
        if y_grid.points != theta_grid.points or \
                abs(y_grid.spacing * theta_grid.spacing
                    - 2.0 * np.pi / y_grid.points) > 1e-12:
            raise AlignmentError("y and theta grids are not a DFT pair")
    a = as_expr(a, S.variables)  # parsed once: every row block reuses it
    th = theta_grid.mesh()
    weights = _theta_weights(theta_grid, taper)
    real = route is Route.KERNEL and _real_by_mirror(S, a, weights)
    # P (or the real table) first, then E on a block of x rows at a time,
    # its product written into those rows of the result: at its peak a
    # build holds P, the result and one block of E with its point list
    if route is Route.SPECTRAL:
        p = _dft_synthesis_matrix(y_grid, theta_grid)
    elif real:
        nodes, multiplicity = _mirror_nodes(theta_grid.points)
        th, weights = th[nodes], weights[nodes] * multiplicity
        p = _mirror_synthesis_table(th[1:, 0], y_grid.axis())
    else:
        p = _quadrature_synthesis_matrix(y_grid, theta_grid)
    x_points = x_grid.mesh()
    matrix = np.empty((len(x_points), p.shape[1]),
                      dtype=float if real else complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(x_points), _BUILD_ROWS):
            rows = slice(start, start + _BUILD_ROWS)
            try:
                e = _phase_amp_matrix(S, a, x_points[rows], th, weights)
            except ValueError:
                if real:  # name the first such node in full-grid order
                    full = theta_grid.mesh()
                    _phase_amp_matrix(S, a, x_points[rows], full,
                                      np.ones(len(full)))
                raise
            np.matmul(e[:, 1:].view(float) if real else e, p,
                      out=matrix[rows])
        del e, p
        if not real:
            matrix /= y_grid.spacing ** y_grid.dim  # drop P's dy: folded below
        matrix *= np.sqrt(x_grid.spacing ** x_grid.dim)
        matrix *= np.sqrt(y_grid.spacing ** y_grid.dim)
    # a finite E can still overflow in the sums over theta
    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise ValueError(
            f"the operator matrix overflows: its entry at x = "
            f"{x_points[i].tolist()}, y = {y_grid.mesh()[j].tolist()} is "
            f"{matrix[i, j]}")
    prov = {
        "route": route.value,
        "config": _config_hash({
            "S": sp.srepr(S.expr),
            "x": x_grid.descriptor(),
            "y": y_grid.descriptor(),
            "theta": theta_grid.descriptor(),
            "taper": taper,
        }),
    }
    if route is Route.KERNEL:
        prov["arithmetic"] = "real" if real else "complex"
    return DiscreteOperator(matrix=matrix, row_grid=x_grid, col_grid=y_grid,
                            provenance=prov)


def apply(F: DiscreteOperator, u) -> np.ndarray:
    """Sampled F u: quadrature-weighted matrix-vector product."""
    u = np.asarray(u)
    if u.shape != (F.col_grid.size,):
        raise GridMismatchError(
            f"expected {F.col_grid.size} samples, got {u.shape}")
    wc = np.sqrt(F.quad_weights)
    wr = np.sqrt(F.row_weights)
    if np.iscomplexobj(u) and not np.iscomplexobj(F.matrix):
        # the real matrix against u's (re, im) columns: real products, and
        # no complex copy of the matrix
        v = np.ascontiguousarray(wc * u, dtype=complex)
        return (F.matrix @ v.view(float).reshape(-1, 2)).view(
            complex).ravel() / wr
    return (F.matrix @ (wc * u)) / wr


def adjoint(F: DiscreteOperator) -> DiscreteOperator:
    return DiscreteOperator(matrix=F.matrix.conj().T,
                            row_grid=F.col_grid, col_grid=F.row_grid,
                            provenance={**F.provenance, "adjoint": True})


def compose(A: DiscreteOperator, B: DiscreteOperator) -> DiscreteOperator:
    """A after B; weighted matrices compose exactly.  An overflowing
    product is left non-finite for the caller to report, without a numpy
    warning."""
    if not _grids_equal(A.col_grid, B.row_grid):
        raise GridMismatchError("inner grids do not match")
    prov = {"route": "COMPOSE",
            "config": _config_hash({"A": A.provenance, "B": B.provenance})}
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = A.matrix @ B.matrix
    return DiscreteOperator(matrix=matrix,
                            row_grid=A.row_grid, col_grid=B.col_grid,
                            provenance=prov)


def operator_norm(F: DiscreteOperator, tol: float = 1e-8) -> float:
    """sqrt of the top eigenvalue of F*F by power iteration from a seeded
    random start, at most 10000 steps; a non-finite iterate raises
    IterationError at once, without a numpy warning."""
    a = F.matrix
    rng = np.random.default_rng(7)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    prev = None
    prev_inc = None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, 10_001):
            if np.iscomplexobj(a):
                # a^H (a v) without a conjugated copy of a; the same bits
                w = ((a @ v).conj() @ a).conj()
            else:
                # a^T (a v) on v's (re, im) columns: real products, and
                # no complex copy of a
                w = (a.T @ (a @ v.view(float).reshape(-1, 2))).view(
                    complex).ravel()
            lam = float(np.real(np.vdot(v, w)))
            nw = np.linalg.norm(w)
            if not np.isfinite(nw):
                raise IterationError(
                    f"power iteration step {step}: the iterate F*F v is not "
                    f"finite (norm {nw})")
            if nw == 0.0:
                return 0.0
            v = w / nw
            if prev is not None:
                inc = abs(lam - prev)
                # remaining error of the geometric eigenvalue sequence:
                # inc * r / (1 - r) with r the observed increment ratio
                if inc == 0.0:
                    return float(np.sqrt(max(lam, 0.0)))
                if prev_inc is not None and prev_inc > 0.0:
                    r = min(inc / prev_inc, 0.999)
                    if inc * r / (1.0 - r) <= tol * max(abs(lam), 1e-300):
                        return float(np.sqrt(max(lam, 0.0)))
                prev_inc = inc
            prev = lam
    raise IterationError("power iteration did not converge in 10000 steps")


#: the largest row or column count `singular_values` decomposes
SVD_CAP = 4096

#: `discretize_blocks` builds K's reflection blocks only when the part they
#: leave out, ||K - PKP||_F / 2, is at most _REAL_SVD_TOL ||K||_F /
#: sqrt(min(m, n)) (`_below_rounding`); since ||K||_F <= sqrt(min(m, n))
#: sigma_max, their SVDs move no singular value by more than
#: _REAL_SVD_TOL sigma_max
_REAL_SVD_TOL = 1e-12


def _frobenius(part: np.ndarray) -> float:
    """||part||_F of a 2-D array, summed by numpy rather than BLAS, so that
    it does not depend on the BLAS thread count."""
    parts = (part.real, part.imag) if np.iscomplexobj(part) else (part,)
    return math.sqrt(sum(float(np.einsum("ij,ij->", p, p)) for p in parts))


def _below_rounding(part: float, total: float,
                    shape: Tuple[int, int]) -> bool:
    """The split rule of `discretize_blocks`: whether the part of an m x n
    matrix of norm `total` that its reflection blocks drop, of norm `part`,
    is at most _REAL_SVD_TOL total / sqrt(min(m, n))."""
    return part <= _REAL_SVD_TOL * total / math.sqrt(min(shape))


def _axis_reflection(m: int) -> Tuple[slice, slice, slice]:
    """(fixed, pairs, mirrors): the indices of an axis of length m that the
    reflection i -> -i mod m fixes (0, and m/2 for even m), the pairs
    i = 1 .. ceil(m/2) - 1, and their mirrors m - i in the same order."""
    h = (m - 1) // 2
    fixed = slice(0, m // 2 + 1, m // 2) if m % 2 == 0 else slice(0, 1)
    return fixed, slice(1, h + 1), slice(m - 1, m - h - 1, -1)


@dataclass(frozen=True)
class ReflectionBlocks:
    """The even and odd blocks of (K + PKP) / 2 of an operator K, P the grid
    reflection (row index i to -i mod m, column index j to -j mod n), built
    by `discretize_blocks` without K, and `asymmetry` = ||K - PKP||_F / 2,
    the part of K they leave out.

    On an axis, each index that P fixes gives the unit vector e_i, and each
    pair i, m - i the vectors (e_i + e_{m-i}) / sqrt 2 (even) and
    (e_i - e_{m-i}) / sqrt 2 (odd).  In that orthonormal basis
    (K + PKP) / 2 is block diagonal, the even vectors against the even and
    the odd against the odd, so its singular values are those of the two
    blocks together (A. Cantoni and P. Butler, Linear Algebra Appl. 13
    (1976), for the eigenvalues of centrosymmetric matrices).  K's shape
    is the sum of the two blocks' shapes."""

    even: np.ndarray
    odd: np.ndarray
    asymmetry: float


def discretize_blocks(S: GeneratingFunction, a, x_grid: GridSpec,
                      y_grid: GridSpec, theta_grid: GridSpec,
                      taper: bool = True) -> Optional[ReflectionBlocks]:
    """The reflection blocks of the KERNEL route's matrix K (`discretize_fio`
    with the same arguments), built without K; None where they are not.

    They are built when n = 1, both grids have an even point count, the
    kernel is real by mirror symmetry (`_real_by_mirror`), and sympy proves
    S(-x, theta) = -conj S(x, theta) and a(-x, theta) = conj a(x, theta)
    (`conjugate_mirror` in x), so that S(-x, -theta) = S(x, theta) and
    a(-x, -theta) = a(x, theta).  The real build's E[r, k] (e^{iS} a times
    the weight and multiplicity of the node theta_k >= 0) then has an even
    real part and an odd imaginary part in x, and K = C + Sn with
    C = sum_k Re E cos(theta_k y) even in x and in y, Sn = sum_k Im E
    sin(theta_k y) odd in both.  So E is evaluated on the rows x_r <= 0 only,
    and with c = sqrt(dx) sqrt(dy), D = 1 at the fixed indices 0 and m / 2
    and sqrt 2 at the paired ones, the even block is c D C D over the rows
    and columns 0 .. m / 2 (plus Sn at the fixed-fixed entries, which are
    their own mirrors), and the odd block 2 c Sn over the paired ones: half
    of the full build's e^{iS} a evaluations and a quarter of its products.

    The proof does not reach the fixed rows and columns: x_0 = -R is its own
    mirror on the grid, while -x_0 = R is not a node.  There K - PKP is
    2 Sn, whose norm the same product gives; the blocks are None when it
    fails the split rule (`_below_rounding`) ||K - PKP||_F / 2 <= 1e-12
    ||K||_F / sqrt(min(m, n)), as it does for S = x theta +
    x^3 theta^3 / 100, and for a zero K.  This proof and this rule are the
    only place an SVD is split: `singular_values` decomposes an operator
    whole.  A non-finite e^{iS} a (named at its node theta >= 0) or block
    entry raises ValueError."""
    if (S.n, x_grid.dim, y_grid.dim, theta_grid.dim) != (1, 1, 1, 1) or \
            x_grid.points % 2 or y_grid.points % 2:
        return None
    a = as_expr(a, S.variables)
    weights = _theta_weights(theta_grid, taper)
    if not (_real_by_mirror(S, a, weights)
            and conjugate_mirror(S.expr, a, S.xvars[0])):
        return None
    nodes, multiplicity = _mirror_nodes(theta_grid.points)
    th = theta_grid.mesh()[nodes]
    rows, cols = x_grid.points // 2 + 1, y_grid.points // 2 + 1  # x, y <= 0
    e = _phase_amp_matrix(S, a, x_grid.mesh()[:rows], th,
                          weights[nodes] * multiplicity)[:, 1:]
    table = np.multiply.outer(th[1:, 0], y_grid.axis()[:cols])
    fr, pr, _ = _axis_reflection(x_grid.points)
    fc, pc, _ = _axis_reflection(y_grid.points)
    with np.errstate(over="ignore", invalid="ignore"):
        even = np.ascontiguousarray(e.real) @ np.cos(table)
        sn = np.ascontiguousarray(e.imag) @ np.sin(table, out=table)
        del e, table
        even[fr, fc] += sn[fr, fc]
        for part in (even, sn):
            part *= math.sqrt(x_grid.spacing)
            part *= math.sqrt(y_grid.spacing)
        even[pr, pc] *= 2.0
        even[fr, pc] *= math.sqrt(2.0)
        even[pr, fc] *= math.sqrt(2.0)
        odd = sn[pr, pc] * 2.0
    if not (np.isfinite(even).all() and np.isfinite(sn).all()):
        raise ValueError("a reflection block of the operator matrix overflows")
    parts = (even, odd, sn[fr, pc], sn[pr, fc])
    scale = max(float(np.max(np.abs(part), initial=0.0)) for part in parts)
    if scale == 0.0:
        return None
    squares = [_frobenius(part / scale) ** 2 for part in parts]
    asym = math.sqrt(2.0 * (squares[2] + squares[3]))  # each entry and mirror
    total = math.sqrt(squares[0] + squares[1] + asym ** 2)
    if not _below_rounding(asym, total, (x_grid.size, y_grid.size)):
        return None
    return ReflectionBlocks(even, odd, asym * scale)


def singular_values(F: Union[DiscreteOperator, ReflectionBlocks],
                    count: Optional[int] = None) -> Tuple[np.ndarray, dict]:
    """(values, record): the singular values in decreasing order, the first
    `count` of them when count is given (a negative count raises
    ValueError), and how they were taken.

    An operator's matrix K is decomposed as it is, with np.linalg.svd's own
    bits: in real arithmetic when it is real (a KERNEL build that is real
    by mirror symmetry), and when it is complex with every entry finite and
    an imaginary part exactly 0 (a real operator written by `save_operator`
    and read back), as Re K, which moves nothing; in complex arithmetic
    otherwise.  `ReflectionBlocks`, which `discretize_blocks` builds where
    sympy proves the symmetry, have the SVDs of their even and odd blocks
    merged in decreasing order; by Weyl's inequality for singular values
    (Golub and Van Loan, Matrix Computations, 4th ed., Cor. 8.6.2) each
    value is within their asymmetry of K's.

    The record is read from what was decomposed: "arithmetic", "real" or
    "complex"; "blocks", the shapes of the even and odd blocks, or None
    for an operator; and "reflection_bound" = asymmetry / sigma_max, which
    bounds by how much of sigma_max the split can have moved any singular
    value (0 for an operator)."""
    if count is not None and count < 0:
        raise ValueError(f"count {count} must be >= 0")
    split = isinstance(F, ReflectionBlocks)
    shape = np.add(F.even.shape, F.odd.shape) if split else F.matrix.shape
    if max(shape) > SVD_CAP:
        raise ValueError(f"dense decomposition capped at {SVD_CAP}")
    if split:
        blocks = (F.even, F.odd)
    else:
        matrix = F.matrix
        if np.iscomplexobj(matrix) and not matrix.imag.any() and \
                np.isfinite(matrix).all():
            matrix = matrix.real
        blocks = (matrix,)
    s = np.concatenate([np.linalg.svd(block, compute_uv=False)
                        for block in blocks])
    if split:
        s = np.sort(s)[::-1]
    sigma_max = float(s[0])
    record = {"arithmetic": "complex" if np.iscomplexobj(blocks[0])
              else "real",
              "blocks": [list(b.shape) for b in blocks] if split else None,
              "reflection_bound": 0.0}
    if split and sigma_max > 0.0:
        record["reflection_bound"] = F.asymmetry / sigma_max
    return (s[:count] if count is not None else s), record


def save_operator(F: DiscreteOperator, path: str) -> None:
    """Binary layout: magic, u64 header length, JSON header (with the
    format version), row-major complex128 little-endian matrix."""
    header = json.dumps({
        "format": FORMAT,
        "row_grid": F.row_grid.descriptor(),
        "col_grid": F.col_grid.descriptor(),
        "provenance": F.provenance,
        "shape": list(F.matrix.shape),
    }, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(F.matrix,
                                      dtype="<c16").tobytes(order="C"))


def load_operator(path: str) -> DiscreteOperator:
    """Read a file written by `save_operator`, or a versionless one from
    before the header had a format field; OperatorFormatError when the file
    is truncated, extended, its header is incomplete or names another
    format."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise OperatorFormatError("not an operator file")
    start = len(MAGIC) + 8
    if len(blob) < start:
        raise OperatorFormatError("file ends before the header length")
    (hlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
    try:
        header = json.loads(blob[start:start + hlen].decode())
        rows, cols = (int(k) for k in header["shape"])
        rg = GridSpec(**header["row_grid"])
        cg = GridSpec(**header["col_grid"])
        provenance = header["provenance"]
        version = header.get("format", FORMAT)
    except (ValueError, KeyError, TypeError) as exc:
        raise OperatorFormatError(f"bad operator header: {exc!r}") from exc
    if type(version) is not int or version != FORMAT:
        raise OperatorFormatError(
            f"operator format {version!r}, this reader knows {FORMAT}")
    payload = blob[start + hlen:]
    if len(payload) != 16 * rows * cols:
        raise OperatorFormatError(
            f"payload of {len(payload)} bytes, expected {16 * rows * cols}")
    data = np.frombuffer(payload, dtype="<c16").reshape(rows, cols)
    return DiscreteOperator(matrix=np.array(data), row_grid=rg, col_grid=cg,
                            provenance=provenance)


def gaussian_samples(grid: GridSpec, center: float = 0.0,
                     width: Optional[float] = None) -> np.ndarray:
    """Band-limited test family: e^{-(y-c)^2 / (2 s^2)} with s >= 4 spacings."""
    s = width if width is not None else 4.0 * grid.spacing
    if s < 4.0 * grid.spacing:
        raise ValueError("width below the aliasing-safe floor of 4 spacings")
    pts = grid.mesh()
    r2 = np.sum((pts - center) ** 2, axis=-1)
    return np.exp(-r2 / (2.0 * s * s))
