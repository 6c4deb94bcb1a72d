"""Uniform tensor grids on [-R, R]^d, optionally DFT-aligned with a dual grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with `points` nodes per axis on [-radius, radius]^dim.

    Nodes are x_j = -radius + j * spacing, j = 0..points-1.  When
    `dft_aligned` is set, the grid and its dual satisfy dx * dtheta = 2*pi/M
    exactly, so the trapezoid sums reproduce the discrete Fourier pair.
    """

    dim: int
    radius: float
    points: int
    dft_aligned: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"radius {self.radius!r} must be > 0, with a "
                             f"finite spacing")

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.points

    @property
    def size(self) -> int:
        return self.points ** self.dim

    def axis(self) -> np.ndarray:
        return -self.radius + self.spacing * np.arange(self.points)

    def mesh(self) -> np.ndarray:
        """All grid points as an (points**dim, dim) array, C-ordered."""
        ax = self.axis()
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def dual(self) -> "GridSpec":
        """Frequency grid paired with this one: dx * dtheta = 2*pi/points."""
        theta_radius = np.pi / self.spacing
        g = GridSpec(self.dim, theta_radius, self.points, dft_aligned=True)
        if abs(self.spacing * g.spacing - 2.0 * np.pi / self.points) > 1e-12:
            raise AssertionError("dual grid failed alignment invariant")
        return g

    def nearest_index(self, point) -> int:
        """Flat index of the grid node closest to `point`."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        ax = self.axis()
        idx = [int(np.argmin(np.abs(ax - c))) for c in point]
        flat = 0
        for i in idx:
            flat = flat * self.points + i
        return flat

    def descriptor(self) -> dict:
        return {
            "dim": self.dim,
            "radius": self.radius,
            "points": self.points,
            "dft_aligned": self.dft_aligned,
        }

