"""Numerical laboratory for oscillatory-integral (Fourier integral)
operators with tempered-weight symbols.

The package verifies, at desk scale, that the classical machinery behaves
as advertised: oscillatory integrals acquire well-defined values through
cutoff regularization and integration by parts; the composition FF* is
pseudodifferential with a computable symbol; and symbol decay governs
L2 boundedness and compactness.
"""

__version__ = "0.1.0"

from .grids import GridSpec
from .weights import (DEFAULT_CONVENTION, DegenerateWeightError,
                      LambdaConvention, TemperedReport, WeightSpec, bracket,
                      constant_weight, lambda_weight, parse_weight,
                      verify_tempered, weight_product)
from .symbols import (LowerBoundError, SymbolField, derivative_symbol,
                      product_symbol, reciprocal_symbol, seminorm_estimate)
from .phases import (GeneratingFunction, HypothesisReport, PhaseField,
                     lambda_equivalence, omega_domain_membership,
                     quadratic_generating, special_phase, verify_G2,
                     verify_G3, verify_H2, verify_H3, verify_H3star,
                     verify_separation)
from .oscillatory import (ConvergenceError, CutoffKind, CutoffSpec,
                          IBPOperator, OscIntegralResult, OutsideDomainError,
                          chi, chi_expr, choose_eps0, fio_apply_ibp,
                          omega_partition, regularized_fio_apply)
from .operators import (AlignmentError, DiscreteOperator, GridMismatchError,
                        IterationError, ReflectionBlocks, Route, adjoint,
                        apply, compose, discretize_blocks, discretize_fio,
                        gaussian_samples, kernel_eval, load_operator,
                        operator_norm, save_operator, singular_values)
from .pdo import (BoundCheckReport, CompactnessReport, PdoSymbolEstimate,
                  SeminormReport, Which, compactness_probe, compare_symbols,
                  cv_bound_check, cv_seminorm, extract_symbol,
                  predicted_symbol, refinement_ratio, theta_inverse)
from .runner import RunManifest, ScenarioError, load_scenario, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
