"""How the observability constant blows up as the horizon shrinks.

For the pure-decay instance the best constant in

    E|z(T)|^2  <=  c_obs(T) * E int_{Q0} z^2 dx dt

is estimated by generalized power iteration on the (energy, observation)
operator pencil.  Plotting log c_obs against 1/T reveals the e^{C/T} form;
the competing e^{C/T^4} law from earlier theory fits the same data visibly
worse.
"""

import numpy as np

from spcontrol import ProblemCoefficients, build_grid, build_tree, observability_constant
from spcontrol.experiments import cost_scaling_sweep

grid = build_grid(L=1.0, N=32, g0=(0.3, 0.8), g1=(0.45, 0.65))
coeffs = ProblemCoefficients(a=0.05)

table = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0],
                           quantity="observability", direction="forward_1_5",
                           m_per_time=32.0, iters=30, seed=11)
print(f"{'T':>6} | {'steps':>5} | {'c_obs':>12} | {'exponent M(T)':>13}")
print("-" * 48)
for row in table.rows:
    print(f"{row['T']:6.2f} | {row['M']:5d} | {row['value']:12.4e} | {row['exponent']:13.3f}")
print(f"\nlog c_obs ~ {table.slope:.3f} / T + {table.intercept:.3f}")
print(f"R^2 of the 1/T law    : {table.r2:.4f}")
print(f"R^2 of the 1/T^4 law  : {table.r2_alt:.4f}   (reported for contrast)")

# The backward direction's constant, sup |z(0)|^2 / (E int_{Q0} z^2 + E int_Q Z^2),
# is taken penalized, with eps E|z(T)|^2 added below at eps = h^2: it is then the
# top eigenvalue of the forward-HUM Riccati value matrix P_0, an N x N matrix.
print("\nbackward direction at T = 1 (noisy adjoint this time, a2 = 0.3):")
tree = build_tree(6, 1.0)
noisy = ProblemCoefficients(a=0.2, a2=0.3)
est = observability_constant(grid, tree, noisy, direction="backward_1_3", iters=8, seed=0)
for k, val in enumerate(est.rayleigh, start=1):
    print(f"  iter {k}: Rayleigh quotient of P_0 {val:.6e}")
print(f"c_obs (backward direction, eps = h^2 = {est.epsilon:.3e}) = {est.c_obs:.6e}")
