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
(_ForwardRiccati), applied as per-level N x N maps (its feedforward folded
down the tree, its closed loop marched up); backward, a Cholesky factor
(LAPACK dpotrf, through `_lapack`) of the dense Gramian that the
second-moment recursions of _forward_pencil give.  Every such N x N
recursion steps down the levels through one lazy loop, `_recursion`.  CG
starts from p = 0 and measures its residual through the Gramian itself, so
its convergence test keeps its meaning; one iteration reaches rounding level
except at the smallest eps, where rounding in the preconditioner costs more.
Forward, the first direction, the Riccati inverse at -b (b the free terminal
state), is the pure feedback march of y0 through the closed loop
(`_ForwardRiccati.feedback_direction`), since with a zero target the LQ
optimum has no feedforward; the feedforward fold and its drives are built
only if CG needs a second iteration.  The march also skips the general map's
(r - y_M) / eps, which cancels at the scale |b| / eps, so on the desk problem
one forward iteration suffices down to eps = 1e-10, and at most 11 down to
eps = 1e-14.  The forward Gramian runs on the stepper's per-level sibling-pair
maps (_ForwardDual.gram), the backward one is the dense matrix its
preconditioner factors (_BackwardDual.gram), so no CG iteration sweeps a
stencil.  The forward free solution and the backward solve's pair at p after
CG stay stencil sweeps, and the HUM identity residual pairs them with the
N x N route, so every report cross-checks it against the stencil.  The
optimal penalized state satisfies  y_opt = -eps * p_opt  (forward target
y(T)) respectively y_opt(0) = +eps * p_opt  (backward problem), so the
terminal/initial energy decays like eps^2 |p|^2 as the penalty is driven to
zero.

A forward Gramian application also returns its by-products, in one flat
buffer: the adjoint fields that become the controls, and the state those
controls drive from zero.  They are linear in p, so CG keeps them current at
its iterate as it keeps Gram p, with one scale or axpy of the buffer a step,
and hum_forward builds the controls, the controlled state (free solution plus
carried state) and the report from them: one Gramian application per CG
iteration and no sweep on p after CG.  The control cost is one weighted dot
over the buffer's leading [z_half | Z] blocks.  Summed over the CG steps rather
than swept afresh from p, these fields differ from a fresh sweep by rounding
only.

Forward problem: p is terminal adjoint data on the leaves, the control pair
is (u, v) = (1_{G0} z_half, Z).  Backward problem: p is the deterministic
initial datum of the forward adjoint and the single control is u = 1_{G0} z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dpotrf, dpotrs
from .errors import NumericsError
from .grid import SpatialGrid
from .scenario import (AdaptedField, ScenarioTree, martingale_part, mean_square_norm, qt_integral,
                       reconstruct_children)
from .spde import ForwardSolution, TreeStepper

__all__ = [
    "HumConfig",
    "HumReport",
    "HumResult",
    "k_cost_exponent",
    "m_cost_exponent",
    "dual_functional",
    "hum_forward",
    "hum_backward",
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
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError("cg_tol must lie in (0, 1)")
        if self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be >= 1")
        if not np.isfinite(self.bound_c):
            raise ValueError(f"bound_c must be finite, got {self.bound_c}")


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
    log10_bound_ratio: float
    identity_residual: float


@dataclass
class HumResult:
    u: AdaptedField
    v: AdaptedField | None
    y: object
    adjoint_data: np.ndarray
    report: HumReport
    cg_trace: dict


def _axpy(step: float, new, acc):
    """acc + step * new over by-products (one array each, None for none), in place.

    acc None stands for zero; then `new`, the operator's own array, is scaled in
    place and becomes the accumulator.
    """
    if new is None:
        return acc
    if acc is None:
        new *= step
        return new
    acc += step * new
    return acc


def _cg(apply_op, b, inner, tol: float, max_iter: int, precond=None, *, z0=None):
    """Conjugate gradients for an SPD operator; returns (x, trace).

    `apply_op(x)` returns (A x, by-products): one fresh array, linear in x and
    sharing no memory with A x, which CG may update in place, or None where the
    caller needs none.  CG starts from x = 0 and keeps the by-products current
    at its iterate the way it keeps A x, by linearity (one scale or axpy a
    step), so trace["products"] holds them at the returned x without a further
    application of the operator; None stands for zero by-products (b = 0, or
    no step taken) or for none.

    `precond` applies an SPD approximation of the operator's inverse (None:
    the identity); it runs only at the top of an iteration that will use it,
    so none runs after the last step.  `z0` is the caller's precond(b), say
    in closed form: the first step is the line search along it, and CG then
    restarts from precond(r).  The step is measured through the operator, so
    a wrong z0 only costs iterations; one with <b, z0> <= 0 is no descent
    direction and is not used.  Convergence is always tested on the
    unpreconditioned relative residual |b - A x| / |b|, and the trace
    reports the last one measured, the start residual (exactly 1, as r = b)
    when no iteration ran.  The trace also records the quadratic functional
    1/2 <x, Ax> - <b, x>, which must be non-increasing.  CG runs on b
    divided by a power of two near max|b|, and the steps that build x's
    by-products carry that factor back: the scaling is exact, so it changes
    no bit where nothing underflows, and tiny data does not read as b = 0.
    |r| is measured on r / max|r| where <r, r> underflows, so a nonzero
    residual never reads as zero.  A non-finite b or residual is a
    NumericsError, never a converged solve.
    """
    def norm(r, what):
        rr = inner(r, r)
        if np.finfo(float).tiny <= rr < np.inf:
            return np.sqrt(rr)
        top = np.max(np.abs(r))
        if not np.isfinite(top):
            raise NumericsError(f"non-finite {what} in conjugate gradients")
        return top * np.sqrt(inner(r / top, r / top)) if top > 0.0 else 0.0

    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(b)))[1] - 1)  # max|b| / scale in [1, 2)
    b = b / scale
    b_norm = norm(b, "right-hand side")
    if b_norm == 0.0:
        return np.zeros_like(b), {"iterations": 0, "residuals": [], "values": [],
                                  "converged": True, "residual": 0.0, "products": None}
    x, ax, r, products = np.zeros_like(b), np.zeros_like(b), b.copy(), None
    z = None if z0 is None else z0 / scale
    rz_new = None if z is None else inner(r, z)
    if z is not None and not rz_new > 0.0:
        z = None  # not a descent direction
    restart = z is not None  # after the caller's direction, start afresh from precond(r)
    d = None  # the search direction; None starts afresh from z
    residual = 1.0  # r is b
    residuals = []
    values = []
    converged = residual <= tol
    n_iter = 0
    while not converged and n_iter < max_iter:
        if z is None:
            z = r.copy() if precond is None else precond(r)  # r itself changes below
            rz_new = inner(r, z)
        d = z if d is None else z + (rz_new / rz) * d
        rz, z = rz_new, None
        q, q_products = apply_op(d)
        dq = inner(d, q)
        if dq <= 0.0 or rz <= 0.0:
            break  # positivity lost to rounding or underflow; stop with best iterate
        step = rz / dq
        x += step * d
        ax += step * q
        products = _axpy(step * scale, q_products, products)
        r -= step * q
        n_iter += 1
        residual = norm(r, "residual") / b_norm
        residuals.append(residual)
        values.append((0.5 * inner(x, ax) - inner(b, x)) * scale * scale)
        converged = residual <= tol
        if restart:
            d, restart = None, False
    return x * scale, {"iterations": n_iter, "residuals": residuals, "values": values,
                       "converged": converged, "residual": residual, "products": products}


def _penalized(gram, eps: float):
    """The CG operator q -> (Gram q + eps q, by-products of Gram at q)."""
    def apply_op(q):
        gq, products = gram(q)
        return gq + eps * q, products
    return apply_op


def _cholesky(matrix, what: str) -> np.ndarray:
    """Upper Cholesky factor of an SPD matrix (LAPACK dpotrf); `what` names it if that fails."""
    factor, info = dpotrf(matrix, clean=0)
    if info != 0:
        raise NumericsError(f"{what} is not positive definite (dpotrf info = {info})")
    return factor


def _cho_solve(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve with a _cholesky factor (LAPACK dpotrs) for the columns of rhs."""
    out, info = dpotrs(factor, rhs)
    if info != 0:
        raise NumericsError(f"dpotrs rejected its argument {-info}")
    return out


def _finite(field: np.ndarray, where: str) -> np.ndarray:
    """`field` itself, or a NumericsError naming where it went non-finite."""
    if not np.isfinite(field).all():
        raise NumericsError(f"non-finite values in {where}")
    return field


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
    log_bound = config.bound_c * exponent
    return HumReport(epsilon=eps, control_cost=cost, terminal_norm=final_norm,
                     uncontrolled_norm=uncontrolled, cg_iterations=trace["iterations"],
                     cg_residual=trace["residual"], cg_converged=trace["converged"],
                     cost_exponent=exponent,
                     bound_ratio=_bound_ratio(cost, log_bound, data_norm),
                     log10_bound_ratio=float(_log_bound_ratio(cost, log_bound, data_norm) / np.log(10)),
                     identity_residual=abs(identity) / scale)


def _log_bound_ratio(cost: float, log_bound: float, data_norm: float) -> float:
    """ln(cost / (e^{log_bound} * data_norm)) from logs, finite wherever cost and data are
    positive, however far e^{log_bound} is past the float range; -inf for zero cost or data."""
    if not (cost > 0.0 and data_norm > 0.0):
        return -np.inf
    return np.log(cost) - log_bound - np.log(data_norm)


def _bound_ratio(cost: float, log_bound: float, data_norm: float) -> float:
    """cost / (e^{log_bound} * data_norm), 0 for zero data.

    Formed directly where that denominator is a finite positive float, and from logs
    (`_log_bound_ratio`) where e^{log_bound} overflows (bound_c * K > 709, as at small T)
    or underflows, so neither case warns or reads as 0 / inf.  Below the least subnormal
    (desk at T = 1e-3: about 5e-434) it still reads 0, and only its log shows it.
    """
    if not data_norm > 0:
        return 0.0
    with np.errstate(over="ignore", under="ignore"):
        denominator = np.exp(log_bound) * data_norm
        if 0.0 < denominator < np.inf:
            return cost / denominator
        return np.exp(_log_bound_ratio(cost, log_bound, data_norm))


# -- forward problem -------------------------------------------------------


class _ForwardDual:
    """Gramian, linear term and quadratures for the forward HUM problem.

    A Gramian application writes all its by-products into one flat buffer: each level's
    [z_half | Z] block (levels 0..M-1, one (nodes, 2N) block each), then z(0), then the
    state y_0 .. y_M; `unpack` reads them back as per-level views.
    """

    def __init__(self, stepper: TreeStepper):
        self.st = stepper
        grid, tree, n = stepper.grid, stepper.tree, stepper.grid.N
        self.leaf_weight = tree.node_weight(tree.M) * grid.h
        rows = [tree.n_nodes(k) for k in range(tree.M + 1)]
        self._layout, end = [], 0
        for shape in [(r, 2 * n) for r in rows[:-1]] + [(1, n)] + [(r, n) for r in rows]:
            start, end = end, end + shape[0] * shape[1]
            self._layout.append((slice(start, end), shape))
        self._observed = slice(0, self._layout[tree.M][0].start)  # the [z_half | Z] blocks
        # the observation quadrature dt 2^-n h [1_{G0}, 1], a row and a column factor
        level_weight = tree.dt * grid.h * np.array([tree.node_weight(k) for k in range(tree.M)])
        self._row_weight = np.repeat(level_weight, rows[:-1])
        self._col_weight = np.ones(2 * n)
        self._col_weight[:n] = grid.g0_mask

    def inner(self, p, q) -> float:
        return self.leaf_weight * float((p * q).sum())

    def _blocks(self, products):
        """The buffer's per-level views: ([z_half | Z] per level, z(0), y per level)."""
        views = [products[s].reshape(shape) for s, shape in self._layout]
        m = self.st.tree.M
        return views[:m], views[m], views[m + 1:]

    def unpack(self, products):
        """(z_half, Z, [z(0)], y): per-level views into a Gramian application's by-products."""
        zz, z0, y = self._blocks(products)
        n = self.st.grid.N
        return [a[:, :n] for a in zz], [a[:, n:] for a in zz], [z0], y

    def pack(self, z_half, Z) -> np.ndarray:
        """The [z_half | Z] blocks of the buffer layout, for `observation`."""
        return np.concatenate([np.hstack(pair) for pair in zip(z_half, Z)]).ravel()

    def observation(self, products) -> float:
        """E int_{Q0} z_half^2 + E int_Q Z^2 (all time levels), from the [z_half | Z] blocks
        that lead the buffer layout (`pack` makes them from fields)."""
        observed = products[self._observed].reshape(-1, 2 * self.st.grid.N)
        return float(self._row_weight @ (np.square(observed) @ self._col_weight))

    def gram(self, p):
        """(Gram p, by-products): the adjoint's z_half, Z and z(0), and the state y driven from 0,
        in one buffer (`unpack`); Gram p is the buffer's y_M level, a view.

        The stencil pair (adjoint_1_3 fold, then the forward sweep under u = z_half, v = Z) on
        the stepper's sibling-pair maps (`pair_steps`): fold a level's children into its
        [z_half | Z] block and that into z_n down the tree, two products a level, then march
        each level's children from y_n and that block up it, two products and an add (one
        product at y_0 = 0).  On a path nothing splits (Z = 0).  Non-finite data, checked
        before any product, or a non-finite level, checked in one pass at the end and then
        looked up in the order the levels were made, is a NumericsError.
        """
        st, tree = self.st, self.st.tree
        z = _finite(p, f"the forward Gramian's leaf data at level {tree.M}")
        products = np.empty(self._layout[-1][0].stop)
        zz, z0, y = self._blocks(products)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a NumericsError
            for n in range(tree.M - 1, -1, -1):
                down, fold, _, _ = st.pair_steps[n]
                np.matmul(z.reshape(zz[n].shape[0], -1), down, out=zz[n])
                z = np.matmul(zz[n], fold, out=z0 if n == 0 else None)
            y[0][:] = 0.0
            for n in range(tree.M):
                _, _, up_y, up_zz = st.pair_steps[n]
                children = np.matmul(zz[n], up_zz, out=y[n + 1].reshape(zz[n].shape[0], -1))
                if n:
                    children += y[n] @ up_y
        # one pass: the sum of squares is non-finite if any entry is (or if it overflows, which
        # the per-level lookup then passes)
        if not np.isfinite(np.dot(products, products)):
            for n in range(tree.M - 1, -1, -1):
                _finite(zz[n], f"the forward Gramian's adjoint at level {n}")
            _finite(z0, "the forward Gramian's adjoint at level 0")
            for n in range(1, tree.M + 1):
                _finite(y[n], f"the forward Gramian's state at level {n}")
        return y[tree.M], products


class _ForwardRiccati:
    """(Gram + eps I)^{-1} of the forward HUM problem, through its tracking LQ problem.

    For leaf data r, p = (Gram + eps I)^{-1} r equals (r - y_M) / eps, where
    y_M ends the state (from y_0 = 0) under the control pair minimizing

        1/2 E sum_n dt (|1_{G0} u_n|^2 + |v_n|^2) + 1/(2 eps) E|y_M - r|^2

    on the general-mode step y_{n+1}^{+/-} = S^{-1}(G y + dt 1_{G0} u +/- sqrt(dt)(B y + v)),
    G = I + dt A_n, B = B_n, S = S_{n+1}.  The value is 1/2 y^T P_n y + s_n^T y + const.  The
    discrete Riccati recursion (Yong & Zhou, Stochastic Controls, ch. 6) runs once
    per eps, with no tree: P_M = I/eps, Q = S^{-1} P_{n+1} S^{-1},

        K_u = -(I + dt Q_gg)^{-1} (Q G)_g,   K_v = -(I + Q)^{-1} Q B,
        P_n = G^T Q (G + dt 1_{G0} K_u) + dt B^T Q (B + K_v),

    with g the G0 rows, one contiguous run (`grid.g0_slice`), and gbar the nodes outside
    it.  Formed as written, G_g + dt (K_u)_g and B + K_v cancel nearly equal terms as Q
    grows like 1/eps (Verhaegen & Van Dooren, IEEE TAC 31, 1986), so the set-up solves
    for them instead:

        G_g + dt K_u = (I + dt Q_gg)^{-1} (G_g - dt Q_{g,gbar} G_gbar),   B + K_v = (I + Q)^{-1} B,

    with Q from two products with the stepper's cached S^{-1} (`inverse_steps`), not
    symmetrised, as dpotrf reads its upper triangle only.  The set-up steps its levels down
    from M through `_recursion`, as far as a reader asks (`reach`): a level keeps its factors,
    loop maps, closed loop and Q, from which `value` forms P_n.  So the loop and P_n at depth
    d take d levels, bit for bit those of a recursion of depth d on this one's last steps, and
    a failing level fails the first reader that reaches it; `p0` is P_0, built on first use.
    The optimum is the feedback u = K_u y + k_u, v = K_v y + k_v: the closed loop
    Phi_n = S^{-1}(G + dt 1_{G0} K_u), its noise part Psi_n = S^{-1}(B + K_v), and the
    feedforward through the drives D_u = -dt S^{-1}_{:g} (I + dt Q_gg)^{-1} S^{-1}_{g:} and
    D_v = -S^{-1} (I + Q)^{-1} S^{-1} on the conditional mean m and martingale part mu of
    s_{n+1}.  So an application is N x N maps only: fold s_M = -r/eps down the tree,
    s_n = Phi_n^T m + dt Psi_n^T mu, then march y_{n+1}^{+/-} = Phi_n y + D_u m +/- sqrt(dt)
    (Psi_n y + D_v mu) up it.  On a path the noise, K_v, Psi and D_v drop.  Gains are
    column-form matrices and fields are rows, so a gain K acts as y @ K.T; `loop` holds the
    row maps Phi_n^T, Psi_n^T, with S^{-1} from `inverse_steps`.  At r = -b, b the free
    terminal state of some y_0, the target is zero and the optimum is the feedback alone:
    `feedback_direction` marches y_0 through the loop and needs no drives.
    """

    def __init__(self, stepper: TreeStepper, eps: float):
        self.st, self.eps = stepper, eps
        m, g = stepper.tree.M, stepper.grid.g0_slice
        self._eyes = np.eye(stepper.grid.N), np.eye(g.stop - g.start)
        self.factors: list = [None] * m  # per level: Cholesky factors of I + dt Q_gg, I + Q
        self.loop: list = [None] * m  # per level: Phi_n^T, Psi_n^T (None on a path)
        self._closed: list = [None] * m  # per level: G + dt 1_{G0} K_u, B + K_v (None on a path), Q
        self._low = m  # the lowest level stepped

    def _step(self, n: int, _) -> None:
        """Level n: its factors, loop maps and closed loop, from P_{n+1} (P_M = I/eps)."""
        st, dt, g = self.st, self.st.dt, self.st.grid.g0_slice
        eye, eye_g = self._eyes
        p = eye / self.eps if n == st.tree.M - 1 else self.value(n + 1)
        gt, bt = st.general_steps[n]
        inv = st.inverse_steps[n + 1]
        q = inv @ p @ inv  # not symmetrised: dpotrf reads the upper triangle only
        closed = gt.T.copy()
        cu = _cholesky(eye_g + dt * q[g, g], f"I + dt Q_gg of level {n}")
        q_off = q[g].copy()
        q_off[:, g] = 0.0  # Q_{g, gbar}, so q_off @ G = Q_{g, gbar} G_gbar
        closed[g] = _cho_solve(cu, closed[g] - dt * (q_off @ closed))
        cv = bkv = psi = None
        if st.tree.branching:
            cv = _cholesky(eye + q, f"I + Q of level {n}")
            bkv = _cho_solve(cv, bt.T)
            psi = bkv.T @ inv
        self.factors[n], self.loop[n], self._closed[n] = (cu, cv), (closed.T @ inv, psi), (closed, bkv, q)

    def reach(self, n: int) -> None:
        """Step the recursion down to level n, if it has not got there, by a fresh `_recursion`: one
        kept on this object would hold the object through its step, a cycle only gc frees."""
        if self.loop[n] is None:
            next(_recursion(self._low, self._step, None, [self._low - n]))
            self._low = n

    def value(self, n: int) -> np.ndarray:
        """P_n = G^T Q (G + dt 1_{G0} K_u) + dt B^T Q (B + K_v) from level n's Q and closed loop,
        stepping down to level n first: from y_n at r = 0 the minimal cost is 1/2 y_n^T P_n y_n."""
        self.reach(n)
        gt, bt = self.st.general_steps[n]
        closed, bkv, q = self._closed[n]
        p = gt @ q @ closed
        if bkv is not None:
            p += self.st.dt * (bt @ q @ bkv)
        return 0.5 * (p + p.T)

    p0 = cached_property(lambda self: self.value(0))  # P_0, built on first use

    def gains(self, n: int) -> tuple:
        """Level n's K_u = (closed_g - G_g) / dt and K_v = (B + K_v) - B (None on a path)."""
        self.reach(n)
        g, (gt, bt), (closed, bkv, _) = self.st.grid.g0_slice, self.st.general_steps[n], self._closed[n]
        return (closed[g] - gt.T[g]) / self.st.dt, None if bkv is None else bkv - bt.T

    @cached_property
    def drives(self) -> list:
        """Per level: the row maps D_u^T, D_v^T (None on a path), built by the first application."""
        st, g = self.st, self.st.grid.g0_slice
        return [(-st.dt * inv[:, g] @ _cho_solve(cu, inv[g]),
                 None if cv is None else -inv @ _cho_solve(cv, inv))
                for inv, (cu, cv) in zip(st.inverse_steps[1:], self.factors)]

    def feedback_costs(self, y0, depths=None):
        """hum_forward's (control cost, terminal norm) from y0, with no tree: at r = 0 the optimum
        is the feedback u = K_u y, v = K_v y, so both are `_moment_forms` of the closed loop
        Phi_n, Psi_n with source K_u^T K_u + K_v^T K_v.  With `depths`, an iterator of the pair
        at each depth, the recursions' of that depth on this one's last steps: the moment
        recursion steps the Riccati's levels as it reaches them."""
        def level(n):
            ku, kv = self.gains(n)
            return (*self.loop[n], ku.T @ ku + (0.0 if kv is None else kv.T @ kv))

        inner = self.st.grid.inner
        pairs = ((inner(y0, cost @ y0), inner(y0, terminal @ y0))
                 for terminal, cost in _moment_forms(self.st, level, depths or [self.st.tree.M]))
        return pairs if depths else next(pairs)

    def feedback_direction(self, y0):
        """This map at -b, b the free terminal state of y0, from the closed loop alone.

        The state from 0 that tracks -b, plus the free state of y0, is the state from y0
        that tracks 0, whose optimum is the feedback: so y_M + b = y^cl_M, y0 marched by
        y^cl_{n+1} = Phi_n y^cl_n +/- sqrt(dt) Psi_n y^cl_n, and the map gives
        (-b - y_M) / eps = -y^cl_M / eps.  No drive is built and no feedforward folded.
        """
        tree = self.st.tree
        self.reach(0)
        y = _finite(np.asarray(y0, dtype=float).reshape(1, self.st.grid.N),
                    f"the Riccati preconditioner's initial state at eps = {self.eps:g}")
        for phit, psit in self.loop:
            y = y @ phit if psit is None else reconstruct_children(tree, y @ phit, y @ psit)
        return _finite(-y / self.eps, f"the Riccati preconditioner at eps = {self.eps:g}")

    def __call__(self, r):
        tree, dt = self.st.tree, self.st.dt
        self.reach(0)
        s = -_finite(r, f"the Riccati preconditioner's data at eps = {self.eps:g}") / self.eps
        drive: list = [None] * tree.M
        for n in range(tree.M - 1, -1, -1):  # on a path: no noise, no split
            (phit, psit), (du, dv) = self.loop[n], self.drives[n]
            m, mu = martingale_part(tree, s) if tree.branching else (s, None)
            drive[n] = (m @ du, None if mu is None else mu @ dv)
            s = m @ phit.T if mu is None else m @ phit.T + dt * (mu @ psit.T)
        y = np.zeros((1, self.st.grid.N))
        for (phit, psit), (d_u, d_v) in zip(self.loop, drive):
            y = y @ phit + d_u if psit is None else reconstruct_children(tree, y @ phit + d_u, y @ psit + d_v)
        return _finite((r - y) / self.eps, f"the Riccati preconditioner at eps = {self.eps:g}")


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
    value = (0.5 * dual.observation(dual.pack(bwd.z_half, bwd.Z)) + 0.5 * eps * dual.inner(zT, zT)
             + grid.inner(y0, bwd.z[0][0]))
    gradient = y.y[tree.M] + eps * zT
    return {"value": value, "gradient": gradient}


def hum_forward(grid: SpatialGrid, tree: ScenarioTree, coeffs, y0, config: HumConfig,
                stepper: TreeStepper | None = None, *, free=None) -> HumResult:
    """Drive E|y(T)|^2 to O(eps) with the control pair (u, v) = (1_{G0} z, Z).

    Solves (Gram + eps I) p = -b by CG preconditioned with the Riccati
    inverse, where b is the free terminal state; the controlled terminal
    state equals -eps p at the optimum.  CG starts from p = 0, and its first
    direction is that inverse at -b, the closed-loop march of y0, so a
    one-iteration solve applies the Gramian once and the general
    preconditioner never.  CG non-convergence is reported, not raised.  The
    controls, the cost and the pairing come from the adjoint fields CG
    carries at p, and the state is the free solution plus the state CG
    carries, so no sweep runs on p after CG.  `free`, if given, is
    `stepper.forward(y0)` (the free solution, which depends on neither eps
    nor the CG settings); None computes it.
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    dual = _ForwardDual(st)
    y0 = np.asarray(y0, dtype=float)
    eps = config.epsilon
    free = st.forward(y0) if free is None else free
    b = free.y[tree.M]
    uncontrolled = dual.inner(b, b)
    riccati = _ForwardRiccati(st, eps)
    p, trace = _cg(_penalized(dual.gram, eps), -b, dual.inner, config.cg_tol, config.cg_max_iter,
                   precond=riccati, z0=riccati.feedback_direction(y0))
    products = trace.pop("products")
    if products is None:  # CG took no step, so p = 0 and its by-products are the Gramian's at 0
        products = dual.gram(p)[1]
    z_half, Z, (z0,), y_ctrl = dual.unpack(products)
    u = AdaptedField([grid.g0_mask * zh for zh in z_half])
    y = ForwardSolution(y=AdaptedField([f + c for f, c in zip(free.y.levels, y_ctrl)]))
    report = _hum_report(
        config, trace, cost=dual.observation(products), final_norm=mean_square_norm(tree, grid, y.y, tree.M),
        uncontrolled=uncontrolled, pairing=grid.inner(y0, z0[0]),
        exponent=k_cost_exponent(tree.T, st.tab.a1_inf, st.tab.a2_inf, st.tab.b1_inf, st.tab.b2_inf),
        data_norm=grid.inner(y0, y0))
    return HumResult(u=u, v=AdaptedField(Z), y=y, adjoint_data=p, report=report, cg_trace=trace)


# -- backward problem ------------------------------------------------------


class _BackwardDual:
    """Gramian of the backward HUM problem (dual lives in R^N, paired by grid.inner): obs, the
    dense observation form of the forward adjoint (`_forward_pencil`), which the stencil pair
    (an adjoint_1_5 sweep of p, then the controlled_1_2 fold of it on G0) matches to rounding."""

    def __init__(self, stepper: TreeStepper):
        self.obs = _forward_pencil(stepper)[1]

    def gram(self, p):
        """(Gram p, by-products): obs @ p, and none (None)."""
        return self.obs @ p, None


def _recursion(m: int, step, state, depths):
    """The one top-down loop of the N x N recursions: state = step(n, state) for n = m - 1, m - 2,
    ..., yielding the state after each of `depths` (non-decreasing, at most m) steps, and stepping
    no further than asked, so a failing step raises for the first depth that reaches it."""
    for done, depth in zip([0, *depths], depths):
        for n in range(m - done - 1, m - depth - 1, -1):
            state = step(n, state)
        yield state


def _moment_forms(stepper: TreeStepper, level, depths=None):
    """Matrices of y_0 -> E|y_M|^2 and y_0 -> E sum_n dt y_n^T S_n y_n, with no tree.

    For y_{n+1} = Phi_n y_n +/- sqrt(dt) Psi_n y_n, `level(n)` gives (Phi_n^T, Psi_n^T
    or None on a path, S_n), and the second moments follow from N x N recursions:

      X_n = Phi_n^T X_{n+1} Phi_n + dt Psi_n^T X_{n+1} Psi_n,           X_M = I,
      O_n = Phi_n^T O_{n+1} Phi_n + dt Psi_n^T O_{n+1} Psi_n + dt S_n,  O_M = 0.

    With `depths` (non-decreasing, at most M), an iterator instead of the pair after that many
    steps down from level M (`_recursion`), bit for bit a recursion of that depth on this one's
    last steps.
    """
    def step(n, forms):
        phit, psit, source = level(n)
        out = phit @ forms @ phit.T
        if psit is not None:
            out += stepper.dt * (psit @ forms @ psit.T)
        out[1] += stepper.dt * source
        return out

    start = np.stack([np.eye(stepper.grid.N), np.zeros((stepper.grid.N,) * 2)])  # (X_M, O_M)
    pairs = ((0.5 * (f[0] + f[0].T), 0.5 * (f[1] + f[1].T))
             for f in _recursion(stepper.tree.M, step, start, depths or [stepper.tree.M]))
    return pairs if depths else next(pairs)


def _forward_pencil(stepper: TreeStepper, depths=None):
    """Forward-direction (energy, observation) pair: z0 -> E|z(T)|^2, E int_{Q0} |z|^2.

    `_moment_forms` of the forward adjoint: Phi_n^T, Psi_n^T are the stepper's adjoint_1_5
    `increments` of the identity's rows solved with S_{n+1}^{-1}, once for each distinct step
    (`first_step`); with `depths`, the pairs at those depths.
    """
    eye, observed = np.eye(stepper.grid.N), np.diag(stepper.grid.g0_mask)
    built = {}

    def level(n):
        first = stepper.first_step[n]
        if first not in built:
            base, noise = stepper.increments(n, "adjoint_1_5", eye)
            # a forward row runs on a path only where a2 = 0 makes the noise term exactly zero
            built[first] = (stepper._solve(n + 1, base),
                            stepper._solve(n + 1, noise) if stepper.tree.branching else None, observed)
        # the recursion runs n = M-1..0, so step `first` is the last to ask for its maps
        return built.pop(first) if n == first else built[first]

    return _moment_forms(stepper, level, depths)


def hum_backward(grid: SpatialGrid, tree: ScenarioTree, coeffs, yT, config: HumConfig,
                 stepper: TreeStepper | None = None) -> HumResult:
    """Drive E|y(0)|^2 to O(eps) for the backward problem with u = 1_{G0} z.

    The dual variable is the deterministic initial datum of the forward adjoint.
    CG solves (obs + eps I) p = y_free(0) on the dense Gramian, preconditioned by
    the Cholesky factor of that matrix; the controlled initial state equals +eps p
    at the optimum.  One stencil pair at p then gives the adjoint z, the control
    and the controlled solution, so a solve sweeps once forward and twice backward
    at any iteration count, and the HUM identity checks the dense solve against
    the stencil.
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    dual = _BackwardDual(st)
    yT = np.asarray(yT, dtype=float)
    eps = config.epsilon
    b = st.backward(yT, mode="controlled_1_2").z[0][0]
    uncontrolled = grid.inner(b, b)
    factor = _cholesky(dual.obs + eps * np.eye(grid.N), f"obs + eps I at eps = {eps:g}")
    p, trace = _cg(_penalized(dual.gram, eps), b, grid.inner, config.cg_tol, config.cg_max_iter,
                   precond=lambda r: _cho_solve(factor, r))
    del trace["products"]
    z = st.forward(p, mode="adjoint_1_5").y
    u = AdaptedField([grid.g0_mask * z[n] for n in range(tree.M)])
    controlled = st.backward(yT, mode="controlled_1_2", u=z)
    y_0 = controlled.z[0][0]
    report = _hum_report(
        config, trace, cost=qt_integral(tree, grid, z, square=True, mask=grid.g0_mask),
        final_norm=grid.inner(y_0, y_0), uncontrolled=uncontrolled, pairing=-grid.inner(b, p),
        exponent=m_cost_exponent(tree.T, st.tab.a1_inf, st.tab.a2_inf, st.tab.b_inf),
        data_norm=tree.node_weight(tree.M) * grid.h * float((yT * yT).sum()))
    return HumResult(u=u, v=None, y=controlled, adjoint_data=p, report=report, cg_trace=trace)
