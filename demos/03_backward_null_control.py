"""Null control of the backward problem, and its deterministic degeneration.

The backward equation prescribes terminal data and asks for a single control
u on G0 driving the *initial* state to zero.  The dual variable is now a
deterministic vector (the initial datum of the forward adjoint), so the CG
iteration runs in R^N; preconditioned by a Cholesky factor of the dense
Gramian plus eps I, it converges in one step.

When the noise coupling a2 vanishes the whole construction degenerates to a
deterministic parabolic HUM problem; the tree solution then agrees with a
single-branch solve to rounding precision, which this script verifies.
"""

import numpy as np

from spcontrol import (HumConfig, ProblemCoefficients, TreeStepper, build_grid, build_path,
                       build_tree, hum_backward)

grid = build_grid(L=1.0, N=32, g0=(0.1, 0.95), g1=(0.3, 0.7))
tree = build_tree(M=8, T=1.0)
coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.5, b=0.5)
stepper = TreeStepper(grid, tree, coeffs)
yT = np.tile(np.sin(np.pi * grid.x), (tree.n_nodes(tree.M), 1))

print(f"{'eps':>8} | {'E|y(0)|^2':>12} | {'|u|^2':>12} | {'CG iters':>8}")
print("-" * 50)
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    res = hum_backward(grid, tree, coeffs, yT,
                       HumConfig(epsilon=eps, cg_tol=1e-10, cg_max_iter=4000),
                       stepper=stepper)
    r = res.report
    print(f"{eps:8.0e} | {r.terminal_norm:12.4e} | {r.control_cost:12.4e} | {r.cg_iterations:8d}")
print(f"\ncost exponent M = {r.cost_exponent:.3f}, bound ratio = {r.bound_ratio:.3e}")

print("\ndeterministic degeneration (a2 = 0):")
det = ProblemCoefficients(a=0.15, a1=1.0, a2=0.0, b=0.5)
cfg = HumConfig(epsilon=1e-3, cg_tol=1e-12, cg_max_iter=2000)
yT_vec = np.sin(np.pi * grid.x)
on_tree = hum_backward(grid, tree, det, np.tile(yT_vec, (tree.n_nodes(tree.M), 1)), cfg)
collapsed = hum_backward(grid, build_path(tree.M, tree.T), det, yT_vec[None, :], cfg)
dev = np.abs(on_tree.adjoint_data - collapsed.adjoint_data).max()
print(f"  max |tree - collapsed| on the dual variable = {dev:.3e}")
