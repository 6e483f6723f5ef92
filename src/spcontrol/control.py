"""Penalized HUM null controls for the forward and backward problems.

Both constructions minimize a strictly convex quadratic over adjoint data p:

    Phi(p) = 1/2 <Gram p, p> + eps/2 <p, p> + <lin, p>

where Gram is the observation Gramian (solve the adjoint, restrict to the
observation quantities, inject them back as controls, read off the reachable
state) and lin transports the problem data.  Because the tree solvers are
exact transposes of each other, Gram is self-adjoint to rounding and
conjugate gradients applies.  Unpreconditioned, its iteration count grows
like eps^{-1/2}, so hum_forward and hum_backward precondition CG with the
exact inverse of Gram + eps I, built from N x N matrices: forward, the
discrete Riccati recursion of the tracking LQ problem on the tree
(_ForwardRiccati); backward, a Cholesky factor of the dense Gramian that
the second-moment recursions of _forward_pencil give.  CG still measures its residual through
the Gramian's own sweeps, so its convergence test keeps its meaning; one
iteration reaches rounding level except at the smallest eps, where rounding
in the preconditioner costs one or two more.  The optimal penalized state
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
from scipy.linalg import cho_factor, cho_solve

from .grid import SpatialGrid
from .scenario import (AdaptedField, ScenarioTree, build_path, martingale_part,
                       mean_square_norm, qt_integral)
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
        if self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be >= 1")


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


def _cg(apply_op, b, inner, tol: float, max_iter: int, x0=None, precond=None):
    """Conjugate gradients for an SPD operator; returns (x, trace).

    `precond` applies an SPD approximation of the operator's inverse (None:
    the identity).  Convergence is always tested on the unpreconditioned
    relative residual |b - A x| / |b|, and the trace reports the last one
    measured, the start residual when no iteration ran.  The trace also
    records the quadratic functional 1/2 <x, Ax> - <b, x>, which must be
    non-increasing.
    """
    b_norm = np.sqrt(inner(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b), {"iterations": 0, "residuals": [], "values": [],
                                  "converged": True, "residual": 0.0}
    if x0 is None:
        x = np.zeros_like(b)
        ax = np.zeros_like(b)
    else:
        x = np.array(x0, dtype=float)
        ax = apply_op(x)
    r = b - ax
    z = r if precond is None else precond(r)
    d = z.copy()
    rz = inner(r, z)
    residual = np.sqrt(inner(r, r)) / b_norm
    residuals = []
    values = []
    converged = residual <= tol
    n_iter = 0
    while not converged and n_iter < max_iter:
        q = apply_op(d)
        dq = inner(d, q)
        if dq <= 0.0 or rz <= 0.0:
            break  # positivity lost to rounding or underflow; stop with best iterate
        step = rz / dq
        x += step * d
        ax += step * q
        r -= step * q
        n_iter += 1
        residual = np.sqrt(inner(r, r)) / b_norm
        residuals.append(residual)
        values.append(0.5 * inner(x, ax) - inner(b, x))
        converged = residual <= tol
        if not converged:
            z = r if precond is None else precond(r)
            rz_new = inner(r, z)
            d = z + (rz_new / rz) * d
            rz = rz_new
    return x, {"iterations": n_iter, "residuals": residuals, "values": values,
               "converged": converged, "residual": residual}


def _hum_report(config: HumConfig, trace: dict, cost: float, final_norm: float,
                uncontrolled: float, pairing: float, exponent: float, data_norm: float) -> HumReport:
    """Report of a HUM solve whose optimum satisfies cost + final_norm/eps + pairing = 0.

    final_norm: energy of the penalized controlled state (y(T) forward, y(0) backward);
    pairing: signed pairing of the problem data with the adjoint datum;
    data_norm: energy of that data, which scales the cost bound e^{bound_c * exponent}.
    """
    eps = config.epsilon
    identity = cost + final_norm / eps + pairing
    scale = cost + final_norm / eps + abs(pairing) + 1e-300
    bound = cost / (np.exp(config.bound_c * exponent) * data_norm) if data_norm > 0 else 0.0
    return HumReport(epsilon=eps, control_cost=cost, terminal_norm=final_norm,
                     uncontrolled_norm=uncontrolled, cg_iterations=trace["iterations"],
                     cg_residual=trace["residual"], cg_converged=trace["converged"],
                     cost_exponent=exponent, bound_ratio=bound,
                     identity_residual=abs(identity) / scale)


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


class _ForwardRiccati:
    """(Gram + eps I)^{-1} of the forward HUM problem, through its tracking LQ problem.

    For leaf data r, p = (Gram + eps I)^{-1} r equals (r - y_M) / eps, where
    y_M ends the state (from y_0 = 0) under the control pair minimizing

        1/2 E sum_n dt (|1_{G0} u_n|^2 + |v_n|^2) + 1/(2 eps) E|y_M - r|^2

    on the general-mode step y_{n+1}^{+/-} = S^{-1}(G y + dt 1_{G0} u +/- sqrt(dt)(B y + v)),
    G = I + dt A_n, B = B_n.  The value is 1/2 y^T P_n y + s_n^T y + const.  The
    discrete Riccati recursion (Yong & Zhou, Stochastic Controls, ch. 6) runs once
    per eps, with no tree: P_M = I/eps, Q = S^{-1} P_{n+1} S^{-1},

        K_u = -(I + dt Q_gg)^{-1} (Q G)_g,   K_v = -(I + Q)^{-1} Q B,
        P_n = G^T Q (G + dt 1_{G0} K_u) + dt B^T Q (B + K_v),

    with g the G0 rows.  Each application folds the feedforward back from
    s_M = -r/eps (w = S^{-1} s_{n+1}, split into conditional mean m and martingale mu):

        k_u = -(I + dt Q_gg)^{-1} m_g,   k_v = -(I + Q)^{-1} mu,
        s_n = G^T (dt Q 1_{G0} k_u + m) + dt B^T (Q k_v + mu),

    then runs the closed loop u = K_u y + k_u, v = K_v y + k_v through the
    stepper's own forward sweep.  On a path the noise, K_v and the B terms drop.
    Gains are column-form matrices and fields are rows, so a gain K acts as y @ K.T.
    """

    def __init__(self, stepper: TreeStepper, eps: float):
        self.st, self.eps = stepper, eps
        grid, tree, dt = stepper.grid, stepper.tree, stepper.dt
        g = grid.g0_mask
        eye = np.eye(grid.N)
        p = eye / eps
        self.fold: list = [None] * tree.M  # per level: Q, G^T, B^T and the two factors
        self.gains: list = [None] * tree.M  # per level: K_u, K_v
        for n in range(tree.M - 1, -1, -1):
            q = stepper._solve(n + 1, stepper._solve(n + 1, p).T)
            q = 0.5 * (q + q.T)
            drift, bt = stepper.general_terms(n, eye)  # rows of the identity: A_n^T, B_n^T
            gt = eye + dt * drift
            cu = cho_factor(np.eye(int(g.sum())) + dt * q[np.ix_(g, g)])
            ku = -cho_solve(cu, (q @ gt.T)[g])
            closed = gt.T.copy()
            closed[g] += dt * ku
            p = gt @ q @ closed
            cv = kv = None
            if tree.branching:
                cv = cho_factor(eye + q)
                kv = -cho_solve(cv, q @ bt.T)
                p += dt * (bt @ q @ (bt.T + kv))
            p = 0.5 * (p + p.T)
            self.fold[n] = (q, gt, bt, cu, cv)
            self.gains[n] = (ku, kv)
        self.p0 = p  # from y_0 and r = 0 the minimal cost is 1/2 y_0^T P_0 y_0

    def __call__(self, r):
        st, eps = self.st, self.eps
        grid, tree, dt = st.grid, st.tree, st.dt
        g = grid.g0_mask
        s = -r / eps
        feed: list = [None] * tree.M
        for n in range(tree.M - 1, -1, -1):
            q, gt, bt, cu, cv = self.fold[n]
            w = st._solve(n + 1, s)
            m, mu = martingale_part(tree, w) if tree.branching else (w, None)
            k_u = -cho_solve(cu, m[:, g].T).T
            s = (m + dt * k_u @ q[g]) @ gt.T
            k_v = 0.0
            if mu is not None:
                k_v = -cho_solve(cv, mu.T).T
                s += dt * (mu + k_v @ q) @ bt.T
            feed[n] = (k_u, k_v)

        def feedback(n, y):
            ku, kv = self.gains[n]
            k_u, k_v = feed[n]
            u = np.zeros_like(y)
            u[:, g] = y @ ku.T + k_u
            return u, (y @ kv.T + k_v if tree.branching else 0.0)

        y_m = st.forward(np.zeros(grid.N), feedback=feedback).y[tree.M]
        return (r - y_m) / eps


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

    Solves (Gram + eps I) p = -b by CG preconditioned with the Riccati
    inverse, where b is the free terminal state; the controlled terminal
    state equals -eps p at the optimum.  CG non-convergence is reported, not
    raised.
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    dual = _ForwardDual(st)
    y0 = np.asarray(y0, dtype=float)
    eps = config.epsilon
    b = st.forward(y0).y[tree.M]
    uncontrolled = dual.inner(b, b)
    p, trace = _cg(lambda q: dual.apply(q, eps), -b, dual.inner, config.cg_tol,
                   config.cg_max_iter, x0=p_start, precond=_ForwardRiccati(st, eps))
    bwd = st.backward(p, mode="adjoint_1_3")
    u = AdaptedField([grid.g0_mask * bwd.z_half[n] for n in range(tree.M)])
    v = AdaptedField([bwd.Z[n].copy() for n in range(tree.M)])
    y = st.forward(y0, u=bwd.z_half, v=bwd.Z)
    report = _hum_report(
        config, trace, cost=dual.observation(bwd), final_norm=mean_square_norm(tree, grid, y.y, tree.M),
        uncontrolled=uncontrolled, pairing=grid.h * float(np.dot(y0, bwd.z[0][0])),
        exponent=k_cost_exponent(tree.T, st.tab.a1_inf, st.tab.a2_inf, st.tab.b1_inf, st.tab.b2_inf),
        data_norm=grid.h * float(np.dot(y0, y0)))
    return HumResult(u=u, v=v, y=y, adjoint_data=p, report=report, cg_trace=trace)


# -- backward problem ------------------------------------------------------


class _BackwardDual:
    """Gramian and inner product of the backward HUM problem (dual lives in R^N)."""

    def __init__(self, stepper: TreeStepper):
        self.st = stepper
        # the backward solve copies its terminal data, so one zero leaf field serves every call
        self.zero_leaves = np.zeros((stepper.tree.n_nodes(stepper.tree.M), stepper.grid.N))

    def inner(self, p, q) -> float:
        return self.st.grid.h * float(np.dot(p, q))

    def gram(self, p):
        z = self.st.forward(p, mode="adjoint_1_5")
        ctrl = self.st.backward(self.zero_leaves, mode="controlled_1_2", u=z.y)
        return -ctrl.z[0][0], z

    def apply(self, p, eps: float):
        return self.gram(p)[0] + eps * p


def _forward_pencil(stepper: TreeStepper):
    """Dense (energy, observation) operator pair on R^N for the forward direction.

    The matrices of z0 -> E|z(T)|^2 and z0 -> E int_{Q0} |z|^2 (the backward-HUM
    Gramian) for the forward adjoint z_{n+1} = G_n z_n +/- sqrt(dt) H_n z_n, where
    G_n = S_{n+1}^{-1}(I + dt A_n) and H_n = S_{n+1}^{-1} B_n.  These second moments
    follow exactly from N x N backward recursions instead of 2^M-leaf sweeps:

      X_n = G_n^T X_{n+1} G_n + dt H_n^T X_{n+1} H_n,                    X_M = I,
      O_n = G_n^T O_{n+1} G_n + dt H_n^T O_{n+1} H_n + dt diag(1_{G0}),  O_M = 0.

    G_n and H_n are the identity's rows pushed through the stepper's own step
    terms and solve; on a path the noise term is absent.
    """
    grid, tree, dt = stepper.grid, stepper.tree, stepper.dt
    eye = np.eye(grid.N)
    forms = np.stack([eye, np.zeros_like(eye)])  # (X_M, O_M)
    for n in range(tree.M - 1, -1, -1):
        drift, noise = stepper.adjoint_1_5_terms(n, eye)
        gt = stepper._solve(n + 1, eye + dt * drift)  # rows of the identity: G_n^T
        step = gt @ forms @ gt.T
        if tree.branching:  # a2 = 0 makes this term exactly zero
            ht = stepper._solve(n + 1, noise)  # H_n^T
            step += dt * (ht @ forms @ ht.T)
        step[1] += dt * np.diag(grid.g0_mask)
        forms = step
    return 0.5 * (forms[0] + forms[0].T), 0.5 * (forms[1] + forms[1].T)


def hum_backward(grid: SpatialGrid, tree: ScenarioTree, coeffs, yT, config: HumConfig,
                 stepper: TreeStepper | None = None) -> HumResult:
    """Drive E|y(0)|^2 to O(eps) for the backward problem with u = 1_{G0} z.

    The dual variable is the deterministic initial datum of the forward
    adjoint; CG, preconditioned by the Cholesky factor of the dense Gramian
    plus eps I, solves (Gram + eps I) p = y_free(0), and the controlled
    initial state equals +eps p at the optimum.
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    dual = _BackwardDual(st)
    yT = np.asarray(yT, dtype=float)
    eps = config.epsilon
    free = st.backward(yT, mode="controlled_1_2")
    b = free.z[0][0]
    uncontrolled = dual.inner(b, b)
    factor = cho_factor(_forward_pencil(st)[1] + eps * np.eye(grid.N))
    p, trace = _cg(lambda q: dual.apply(q, eps), b, dual.inner, config.cg_tol,
                   config.cg_max_iter, precond=lambda r: cho_solve(factor, r))
    z = st.forward(p, mode="adjoint_1_5")
    u = AdaptedField([grid.g0_mask * z.y[n] for n in range(tree.M)])
    controlled = st.backward(yT, mode="controlled_1_2", u=z.y)
    y_0 = controlled.z[0][0]
    report = _hum_report(
        config, trace, cost=qt_integral(tree, grid, z.y, square=True, mask=grid.g0_mask),
        final_norm=dual.inner(y_0, y_0), uncontrolled=uncontrolled, pairing=-dual.inner(b, p),
        exponent=m_cost_exponent(tree.T, st.tab.a1_inf, st.tab.a2_inf, st.tab.b_inf),
        data_norm=tree.node_weight(tree.M) * grid.h * float(np.sum(yT * yT)))
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
