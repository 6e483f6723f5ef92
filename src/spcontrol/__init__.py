"""Null-control toolkit for stochastic parabolic equations on scenario trees.

Modules: `grid` (1-D mesh and discrete operators), `scenario` (binary noise
tree and adapted fields), `spde` (forward/backward steppers built as exact
transposes), `carleman` (weight family, coefficient asymptotics, weighted
ratio checks), `control` (penalized HUM null controls and cost exponents),
`experiments` (observability constants and scaling sweeps), `cli` (batch
front-end).
"""

from .errors import NumericsError
from .grid import SpatialGrid, build_grid, gradient, gradient_transpose, weak_divergence
from .scenario import (ScenarioTree, AdaptedField, build_tree, build_path, expectation,
                       qt_integral, martingale_part, reconstruct_children, mean_square_norm)
from .spde import (ProblemCoefficients, CoefficientTables, ForwardSolution, BackwardSolution,
                   TreeStepper, PathStepper, duality_gap, forward_state_matrix,
                   backward_state_matrix)
from .carleman import (PsiFunction, CarlemanWeightSet, AppendixCoefficients,
                       DiffusionCoefficient, CarlemanRatio, build_psi, eval_weights,
                       lambda_threshold, lambda_threshold_forward, appendix_coeffs,
                       leading_order_check, carleman_ratio_backward, carleman_ratio_forward)
from .control import (HumConfig, HumReport, HumResult, k_cost_exponent, m_cost_exponent,
                      dual_functional, hum_forward, hum_backward, hum_backward_collapsed)
from .experiments import (ObservabilityEstimate, ScalingTable, SweepError,
                          observability_constant, cost_scaling_sweep, epsilon_sweep)

__version__ = "0.1.0"
