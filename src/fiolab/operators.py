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
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
import sympy as sp

from .expressions import evaluate
from .grids import GridSpec
from .phases import GeneratingFunction
from .symbols import as_expr

MAGIC = b"FIOLAB01"


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


def _phase_amp_matrix(S: GeneratingFunction, a, x_points: np.ndarray,
                      theta_grid: GridSpec, taper: bool) -> np.ndarray:
    """E[i, k] = e^{i S(x_i, theta_k)} a(x_i, theta_k) tau_k w_k / (2 pi)^n."""
    th = theta_grid.mesh()
    nx, nth = len(x_points), len(th)
    xt = np.concatenate([
        np.repeat(x_points, nth, axis=0),
        np.tile(th, (nx, 1)),
    ], axis=-1)
    svals = evaluate(S.expr, S.xvars + S.tvars, xt).reshape(nx, nth)
    avals = np.asarray(evaluate(as_expr(a, S.variables), S.variables, xt),
                       dtype=complex).reshape(nx, nth)
    tau = _theta_taper(theta_grid, taper)
    w = theta_grid.spacing ** theta_grid.dim / (2.0 * np.pi) ** theta_grid.dim
    return np.exp(1j * svals) * avals * (tau * w)[None, :]


def kernel_eval(S: GeneratingFunction, a, x, y, theta_grid: GridSpec,
                taper: bool = True) -> complex:
    """Pointwise kernel value by tapered trapezoid quadrature in theta."""
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=float))
    e = _phase_amp_matrix(S, a, x, theta_grid, taper)[0]
    th = theta_grid.mesh()
    return complex(np.sum(e * np.exp(-1j * (th @ y))))


def _dft_synthesis_matrix(y_grid: GridSpec, theta_grid: GridSpec) -> np.ndarray:
    """P[k, j] = e^{-i theta_k y_j} dy via FFT on aligned 1-D grids."""
    m = y_grid.points
    dy, dth = y_grid.spacing, theta_grid.spacing
    r, big = y_grid.radius, theta_grid.radius
    col = np.exp(1j * big * dy * np.arange(m))
    p = np.fft.fft(np.eye(m) * col[None, :], axis=0)
    row = np.exp(1j * dth * r * np.arange(m)) * np.exp(-1j * big * r)
    return dy * row[:, None] * p


def discretize_fio(S: GeneratingFunction, a, x_grid: GridSpec,
                   y_grid: GridSpec, theta_grid: GridSpec,
                   route: Route = Route.KERNEL,
                   taper: bool = True) -> DiscreteOperator:
    """Dense matrix of the operator, by the requested build route."""
    if x_grid.dim != S.n or y_grid.dim != S.n or theta_grid.dim != S.n:
        raise GridMismatchError("grid dimensions must match the phase")
    e = _phase_amp_matrix(S, a, x_grid.mesh(), theta_grid, taper)
    if route is Route.SPECTRAL:
        if S.n != 1:
            raise NotImplementedError("SPECTRAL route supports n = 1")
        if not (y_grid.dft_aligned and theta_grid.dft_aligned):
            raise AlignmentError("SPECTRAL route needs dft_aligned y/theta grids")
        if y_grid.points != theta_grid.points or \
                abs(y_grid.spacing * theta_grid.spacing
                    - 2.0 * np.pi / y_grid.points) > 1e-12:
            raise AlignmentError("y and theta grids are not a DFT pair")
        p = _dft_synthesis_matrix(y_grid, theta_grid)
    else:
        th = theta_grid.mesh()
        p = np.exp(-1j * (th @ y_grid.mesh().T)) * \
            y_grid.spacing ** y_grid.dim
    kernel = e @ p / y_grid.spacing ** y_grid.dim  # drop dy: folded below
    wr = np.sqrt(x_grid.spacing ** x_grid.dim)
    wc = np.sqrt(y_grid.spacing ** y_grid.dim)
    matrix = wr * kernel * wc
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
    return (F.matrix @ (wc * u)) / wr


def adjoint(F: DiscreteOperator) -> DiscreteOperator:
    return DiscreteOperator(matrix=F.matrix.conj().T,
                            row_grid=F.col_grid, col_grid=F.row_grid,
                            provenance={**F.provenance, "adjoint": True})


def compose(A: DiscreteOperator, B: DiscreteOperator) -> DiscreteOperator:
    """A after B; weighted matrices compose exactly."""
    if not _grids_equal(A.col_grid, B.row_grid):
        raise GridMismatchError("inner grids do not match")
    prov = {"route": "COMPOSE",
            "config": _config_hash({"A": A.provenance, "B": B.provenance})}
    return DiscreteOperator(matrix=A.matrix @ B.matrix,
                            row_grid=A.row_grid, col_grid=B.col_grid,
                            provenance=prov)


def operator_norm(F: DiscreteOperator, tol: float = 1e-8) -> float:
    """sqrt of the top eigenvalue of F*F by power iteration from a seeded
    random start, at most 10000 steps."""
    a = F.matrix
    rng = np.random.default_rng(7)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    prev = None
    prev_inc = None
    for _ in range(10_000):
        w = a.conj().T @ (a @ v)
        lam = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
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


def singular_values(F: DiscreteOperator,
                    count: Optional[int] = None) -> np.ndarray:
    """The singular values in decreasing order, the first `count` of them
    when count is given (a negative count raises ValueError)."""
    if count is not None and count < 0:
        raise ValueError(f"count {count} must be >= 0")
    if max(F.matrix.shape) > 4096:
        raise ValueError("dense decomposition capped at 4096")
    s = np.linalg.svd(F.matrix, compute_uv=False)
    return s[:count] if count is not None else s


def save_operator(F: DiscreteOperator, path: str) -> None:
    """Binary layout: magic, u64 header length, JSON header, row-major
    complex128 little-endian matrix."""
    header = json.dumps({
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
    """Read a file written by `save_operator`; OperatorFormatError when the
    file is truncated, extended or its header is incomplete."""
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
    except (ValueError, KeyError, TypeError) as exc:
        raise OperatorFormatError(f"bad operator header: {exc!r}") from exc
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
