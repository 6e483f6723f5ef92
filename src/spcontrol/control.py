"""Penalized HUM null controls for the forward and backward problems.

Both constructions minimize a strictly convex quadratic over adjoint data p:

    Phi(p) = 1/2 <Gram p, p> + eps/2 <p, p> + <lin, p>

where Gram is the observation Gramian (solve the adjoint, restrict to the
observation quantities, inject them back as controls, read off the reachable
state) and lin transports the problem data.  Because the tree solvers are
exact transposes of each other, Gram is self-adjoint to rounding and plain
conjugate gradients is the right minimizer.  The optimal penalized state
satisfies  y_opt = -eps * p_opt  (forward target y(T)) respectively
y_opt(0) = +eps * p_opt  (backward problem), so the terminal/initial energy
decays like eps^2 |p|^2 as the penalty is driven to zero.

Forward problem: p is terminal adjoint data on the leaves, the control pair
is (u, v) = (1_{G0} z_half, Z).  Backward problem: p is the deterministic
initial datum of the forward adjoint and the single control is u = 1_{G0} z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpatialGrid
from .scenario import AdaptedField, ScenarioTree, build_path, mean_square_norm
from .spde import TreeStepper

__all__ = [
    "HumConfig",
    "HumReport",
    "HumResult",
    "k_cost_exponent",
    "m_cost_exponent",
    "dual_functional",
    "hum_forward",
    "hum_backward",
    "hum_backward_collapsed",
]


def k_cost_exponent(T: float, a1_inf: float, a2_inf: float, b1_inf: float, b2_inf: float) -> float:
    """Cost exponent for the forward problem:

    K = 1 + 1/T + |a1|^{2/3} + T|a1| + |a2|^{2/3} + T|a2|^2 + (1+T)|B1|^2 + |B2|^2
    """
    if T <= 0:
        raise ValueError("T must be positive")
    return (1.0 + 1.0 / T + a1_inf ** (2.0 / 3.0) + T * a1_inf
            + a2_inf ** (2.0 / 3.0) + T * a2_inf ** 2
            + (1.0 + T) * b1_inf ** 2 + b2_inf ** 2)


def m_cost_exponent(T: float, a1_inf: float, a2_inf: float, b_inf: float) -> float:
    """Cost exponent for the backward problem:

    M = 1 + 1/T + |a1|^{2/3} + T|a1| + (1+T)|a2|^2 + (1+T)|B|^2
    """
    if T <= 0:
        raise ValueError("T must be positive")
    return (1.0 + 1.0 / T + a1_inf ** (2.0 / 3.0) + T * a1_inf
            + (1.0 + T) * (a2_inf ** 2 + b_inf ** 2))


@dataclass(frozen=True)
class HumConfig:
    """Penalization weight and conjugate-gradient controls."""

    epsilon: float
    cg_tol: float = 1e-9
    cg_max_iter: int = 2000
    bound_c: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError("cg_tol must lie in (0, 1)")


@dataclass
class HumReport:
    epsilon: float
    control_cost: float
    terminal_norm: float
    uncontrolled_norm: float
    cg_iterations: int
    cg_residual: float
    cg_converged: bool
    cost_exponent: float
    bound_ratio: float
    identity_residual: float


@dataclass
class HumResult:
    u: AdaptedField
    v: AdaptedField | None
    y: object
    adjoint_data: np.ndarray
    report: HumReport
    cg_trace: dict


def _cg(apply_op, b, inner, tol: float, max_iter: int, x0=None):
    """Conjugate gradients for an SPD operator; returns (x, trace).

    The trace records relative residuals and the quadratic functional
    1/2 <x, Ax> - <b, x>, which must be non-increasing.
    """
    b_norm = np.sqrt(inner(b, b))
    if b_norm == 0.0 and x0 is None:
        return np.zeros_like(b), {"iterations": 0, "residuals": [], "values": [],
                                  "converged": True, "residual": 0.0}
    if x0 is None:
        x = np.zeros_like(b)
        ax = np.zeros_like(b)
    else:
        x = np.array(x0, dtype=float)
        ax = apply_op(x)
    r = b - ax
    d = r.copy()
    rr = inner(r, r)
    residuals = []
    values = []
    converged = np.sqrt(rr) <= tol * b_norm
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        if converged:
            n_iter -= 1
            break
        q = apply_op(d)
        dq = inner(d, q)
        if dq <= 0.0:
            break  # operator lost positivity to rounding; stop with best iterate
        step = rr / dq
        x += step * d
        ax += step * q
        r -= step * q
        rr_new = inner(r, r)
        residuals.append(np.sqrt(rr_new) / b_norm)
        values.append(0.5 * inner(x, ax) - inner(b, x))
        if residuals[-1] <= tol:
            converged = True
            break
        d = r + (rr_new / rr) * d
        rr = rr_new
    return x, {"iterations": n_iter, "residuals": residuals, "values": values,
               "converged": converged, "residual": residuals[-1] if residuals else 0.0}


# -- forward problem -------------------------------------------------------


class _ForwardDual:
    """Gramian, linear term and quadratures for the forward HUM problem."""

    def __init__(self, stepper: TreeStepper):
        self.st = stepper
        grid, tree = stepper.grid, stepper.tree
        self.leaf_weight = tree.node_weight(tree.M) * grid.h

    def inner(self, p, q) -> float:
        return self.leaf_weight * float(np.sum(p * q))

    def observation(self, bwd) -> float:
        """E int_{Q0} z_half^2 + E int_Q Z^2 (all time levels)."""
        grid, tree = self.st.grid, self.st.tree
        total = 0.0
        for n in range(tree.M):
            w = tree.dt * tree.node_weight(n) * grid.h
            zh = bwd.z_half[n]
            total += w * (float(np.sum(zh[:, grid.g0_mask] ** 2)) + float(np.sum(bwd.Z[n] ** 2)))
        return total

    def gram(self, p):
        bwd = self.st.backward(p, mode="adjoint_1_3")
        y = self.st.forward(np.zeros(self.st.grid.N), u=bwd.z_half, v=bwd.Z)
        return y.y[self.st.tree.M], bwd

    def apply(self, p, eps: float):
        return self.gram(p)[0] + eps * p


def dual_functional(grid: SpatialGrid, tree: ScenarioTree, coeffs, y0, eps: float, zT,
                    stepper: TreeStepper | None = None) -> dict:
    """Value and gradient of the forward dual functional at leaf data zT.

    value    = 1/2 E int_{Q0} z^2 + 1/2 E int_Q Z^2 + eps/2 E|zT|^2 + <y0, z(0)>
    gradient = y(T; y0, u=1_{G0} z, v=Z) + eps zT        (leaf field)

    The gradient is the Riesz representative in the probability-weighted
    terminal inner product; a central finite difference of `value` along any
    direction reproduces it to rounding (the functional is quadratic).
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    dual = _ForwardDual(st)
    zT = np.asarray(zT, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    bwd = st.backward(zT, mode="adjoint_1_3")
    y = st.forward(y0, u=bwd.z_half, v=bwd.Z)
    value = (0.5 * dual.observation(bwd) + 0.5 * eps * dual.inner(zT, zT)
             + grid.h * float(np.dot(y0, bwd.z[0][0])))
    gradient = y.y[tree.M] + eps * zT
    return {"value": value, "gradient": gradient}


def hum_forward(grid: SpatialGrid, tree: ScenarioTree, coeffs, y0, config: HumConfig,
                stepper: TreeStepper | None = None, p_start=None) -> HumResult:
    """Drive E|y(T)|^2 to O(eps) with the control pair (u, v) = (1_{G0} z, Z).

    Solves (Gram + eps I) p = -b by CG, where b is the free terminal state;
    the controlled terminal state equals -eps p at the optimum.  CG
    non-convergence is reported, not raised.
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    dual = _ForwardDual(st)
    y0 = np.asarray(y0, dtype=float)
    eps = config.epsilon
    b = st.forward(y0).y[tree.M]
    uncontrolled = dual.inner(b, b)
    p, trace = _cg(lambda q: dual.apply(q, eps), -b, dual.inner,
                   config.cg_tol, config.cg_max_iter, x0=p_start)
    bwd = st.backward(p, mode="adjoint_1_3")
    u = AdaptedField([grid.g0_mask * bwd.z_half[n] for n in range(tree.M)])
    v = AdaptedField([bwd.Z[n].copy() for n in range(tree.M)])
    y = st.forward(y0, u=bwd.z_half, v=bwd.Z)
    terminal = mean_square_norm(tree, grid, y.y, tree.M)
    cost = dual.observation(bwd)
    pairing = grid.h * float(np.dot(y0, bwd.z[0][0]))
    identity = cost + terminal / eps + pairing
    scale = cost + terminal / eps + abs(pairing) + 1e-300
    exponent = k_cost_exponent(tree.T, st.tab.a1_inf, st.tab.a2_inf, st.tab.b1_inf, st.tab.b2_inf)
    y0_norm = grid.h * float(np.dot(y0, y0))
    bound = cost / (np.exp(config.bound_c * exponent) * y0_norm) if y0_norm > 0 else 0.0
    report = HumReport(epsilon=eps, control_cost=cost, terminal_norm=terminal,
                       uncontrolled_norm=uncontrolled, cg_iterations=trace["iterations"],
                       cg_residual=trace["residual"], cg_converged=trace["converged"],
                       cost_exponent=exponent, bound_ratio=bound,
                       identity_residual=abs(identity) / scale)
    return HumResult(u=u, v=v, y=y, adjoint_data=p, report=report, cg_trace=trace)


# -- backward problem ------------------------------------------------------


class _BackwardDual:
    """Gramian and quadratures for the backward HUM problem (dual lives in R^N)."""

    def __init__(self, stepper: TreeStepper):
        self.st = stepper
        # the backward solve copies its terminal data, so one zero leaf field serves every call
        self.zero_leaves = np.zeros((stepper.tree.n_nodes(stepper.tree.M), stepper.grid.N))

    def inner(self, p, q) -> float:
        return self.st.grid.h * float(np.dot(p, q))

    def observation(self, z_field) -> float:
        grid, tree = self.st.grid, self.st.tree
        total = 0.0
        for n in range(tree.M):
            w = tree.dt * tree.node_weight(n) * grid.h
            total += w * float(np.sum(z_field[n][:, grid.g0_mask] ** 2))
        return total

    def gram(self, p):
        z = self.st.forward(p, mode="adjoint_1_5")
        ctrl = self.st.backward(self.zero_leaves, mode="controlled_1_2", u=z.y)
        return -ctrl.z[0][0], z

    def apply(self, p, eps: float):
        return self.gram(p)[0] + eps * p


def hum_backward(grid: SpatialGrid, tree: ScenarioTree, coeffs, yT, config: HumConfig,
                 stepper: TreeStepper | None = None) -> HumResult:
    """Drive E|y(0)|^2 to O(eps) for the backward problem with u = 1_{G0} z.

    The dual variable is the deterministic initial datum of the forward
    adjoint; CG solves (Gram + eps I) p = y_free(0) and the controlled
    initial state equals +eps p at the optimum.
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    dual = _BackwardDual(st)
    yT = np.asarray(yT, dtype=float)
    eps = config.epsilon
    free = st.backward(yT, mode="controlled_1_2")
    b = free.z[0][0]
    uncontrolled = dual.inner(b, b)
    p, trace = _cg(lambda q: dual.apply(q, eps), b, dual.inner,
                   config.cg_tol, config.cg_max_iter)
    z = st.forward(p, mode="adjoint_1_5")
    u = AdaptedField([grid.g0_mask * z.y[n] for n in range(tree.M)])
    controlled = st.backward(yT, mode="controlled_1_2", u=z.y)
    initial = grid.h * float(np.dot(controlled.z[0][0], controlled.z[0][0]))
    cost = dual.observation(z.y)
    pairing = dual.inner(b, p)
    identity = cost + initial / eps - pairing
    scale = cost + initial / eps + abs(pairing) + 1e-300
    exponent = m_cost_exponent(tree.T, st.tab.a1_inf, st.tab.a2_inf, st.tab.b_inf)
    yT_norm = tree.node_weight(tree.M) * grid.h * float(np.sum(yT * yT))
    bound = cost / (np.exp(config.bound_c * exponent) * yT_norm) if yT_norm > 0 else 0.0
    report = HumReport(epsilon=eps, control_cost=cost, terminal_norm=initial,
                       uncontrolled_norm=uncontrolled, cg_iterations=trace["iterations"],
                       cg_residual=trace["residual"], cg_converged=trace["converged"],
                       cost_exponent=exponent, bound_ratio=bound,
                       identity_residual=abs(identity) / scale)
    return HumResult(u=u, v=None, y=controlled, adjoint_data=p, report=report, cg_trace=trace)


def hum_backward_collapsed(grid: SpatialGrid, n_steps: int, T: float, coeffs, yT_vec,
                           config: HumConfig) -> HumResult:
    """Deterministic single-branch twin of hum_backward (zero-noise oracle).

    hum_backward itself, run on `build_path(n_steps, T)`.  With a2 = 0 and
    terminal data constant across leaves the tree problem degenerates to this
    one; the two must agree to rounding/CG tolerance.
    """
    yT = np.asarray(yT_vec, dtype=float).reshape(1, grid.N)
    return hum_backward(grid, build_path(n_steps, T), coeffs, yT, config)
