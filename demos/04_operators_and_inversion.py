"""Dense discretization of the operators and the Fourier-inversion check.

An operator F f(x) = (2 pi)^-1 double-integral of e^(i(S(x,theta) - y.theta))
a f(y) dy dtheta is discretized as a dense matrix on aligned grids, either by
quadrature of the kernel in theta (KERNEL route) or as inverse-DFT o
multiplier o DFT (SPECTRAL route, exact on aligned grids).  For S = x.theta
and a = 1 the operator is the identity on band-limited functions.
"""
import tempfile

import numpy as np

from fiolab.grids import GridSpec
from fiolab.operators import (Route, adjoint, apply, compose, discretize_fio,
                              gaussian_samples, load_operator, operator_norm,
                              save_operator, singular_values)
from fiolab.phases import GeneratingFunction

grid = GridSpec(1, 8.0, 256, dft_aligned=True)
theta_grid = grid.dual()
print(f"x spacing {grid.spacing:.4f}, dual theta spacing "
      f"{theta_grid.spacing:.4f}, product 2 pi / M = "
      f"{grid.spacing * theta_grid.spacing:.6f}")

# -- inversion identity -----------------------------------------------------
S = GeneratingFunction.from_expr("x*theta", 1)
F = discretize_fio(S, "1", grid, grid, theta_grid, Route.SPECTRAL,
                   taper=False)
g = gaussian_samples(grid, 0.5, 1.0)
err = np.linalg.norm(apply(F, g) - g) / np.linalg.norm(g)
print(f"inversion error on a Gaussian: {err:.2e}")

# -- the two discretization routes agree ------------------------------------
Sc = GeneratingFunction.from_expr("x*theta + theta**2/2", 1)
Fk = discretize_fio(Sc, "exp(-theta**2/4)", grid, grid, theta_grid,
                    Route.KERNEL)
Fs = discretize_fio(Sc, "exp(-theta**2/4)", grid, grid, theta_grid,
                    Route.SPECTRAL)
print(f"kernel vs spectral route gap: "
      f"{np.max(np.abs(Fk.matrix - Fs.matrix)):.2e}")

# -- norms and spectra ------------------------------------------------------
chirp = discretize_fio(Sc, "1", grid, grid, theta_grid, Route.SPECTRAL)
print(f"chirp operator norm: {operator_norm(chirp):.9f} (unitary, exact 1)")
sv = singular_values(chirp, 5)
print(f"leading singular values: {np.round(sv, 6)}")

C = compose(chirp, adjoint(chirp))
print(f"norm of FF*: {operator_norm(C):.9f} (= norm(F)^2)")

# -- binary persistence -----------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    save_operator(chirp, f"{tmp}/chirp_demo.fop")
    back = load_operator(f"{tmp}/chirp_demo.fop")
print(f"save/load roundtrip exact: "
      f"{np.array_equal(back.matrix, chirp.matrix)}")
