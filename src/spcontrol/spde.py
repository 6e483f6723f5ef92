"""Scenario-tree time steppers for the controlled and adjoint parabolic pairs.

Every equation here is one step map per level: a drift part A_n and a noise
part B_n, with the diffusion implicit and the lower-order terms explicit and
adapted.  The forward sweep is

    (I - dt*E(t_{n+1})) y_{n+1}^{+/-} = y_n + dt*drift(t_n) +/- sqrt(dt)*noise(t_n)

with E the conservative elliptic stencil.  The backward sweep is its
algebraic transpose: fold each sibling pair through the same SPD solve, split
into conditional mean ("half step" value) and martingale part, then apply the
transposed lower-order couplings:

    w = S_{n+1}^{-1} children
    z_half_n = (w_+ + w_-)/2,   Z_n = (w_+ - w_-)/(2 sqrt(dt))
    z_n = z_half_n - dt*(F0_n + weak_div(F_n))

where for the adjoint of the controlled forward equation the sources are the
couplings F0 = -a1*z_half - a2*Z and F = z_half*B1 + Z*B2.  Because solve,
gradient transpose, and weights mirror the forward operations exactly, the
discrete duality identity

    E<y(T), zT> = <y0, z(0)> + E int_{Q0} u * z_half + E int_Q v * Z

holds to rounding; everything in the HUM construction leans on that.  Note
the two roles of the backward solution: the nodal values z (consistent with
the backward equation) carry the initial pairing, while the half-step values
z_half carry the space-time pairings and the control feedback.

Both sweeps exist once, in TreeStepper, for every mode.  On a single-branch
path (`scenario.build_path`) nothing splits: the noise term drops out, Z = 0.

Solvers are pure: steppers hold only immutable per-level factorizations and
coefficient tables, so independent solves may run concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import NumericsError
from .grid import SpatialGrid, gradient, weak_divergence
from .scenario import (AdaptedField, ScenarioTree, build_path, martingale_part,
                       reconstruct_children)

__all__ = [
    "ProblemCoefficients",
    "CoefficientTables",
    "ForwardSolution",
    "BackwardSolution",
    "TreeStepper",
    "PathStepper",
    "duality_gap",
    "forward_state_matrix",
    "backward_state_matrix",
]

FORWARD_MODES = ("general", "adjoint_1_5")
BACKWARD_MODES = ("generic", "adjoint_1_3", "controlled_1_2")


def _sample(spec, times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tabulate a scalar/callable coefficient on a times-by-points grid."""
    out = np.empty((times.size, x.size))
    if callable(spec):
        # non-finite samples are reported by the caller, naming the coefficient
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for k, t in enumerate(times):
                out[k] = np.broadcast_to(np.asarray(spec(t, x), dtype=float), x.shape)
    else:
        out[:] = float(spec)
    return out


@dataclass(frozen=True)
class CoefficientTables:
    """Coefficients sampled on the time grid; sup-norms cached from samples.

    a_faces holds the diffusion coefficient at faces for every level 0..M
    (the implicit solve at level n uses a_faces[n]); the zeroth-order and
    convection tables are sampled at the left endpoints t_0..t_{M-1} only
    (adapted evaluation).
    """

    times: np.ndarray
    a_faces: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b: np.ndarray
    beta: float
    a1_inf: float
    a2_inf: float
    b1_inf: float
    b2_inf: float
    b_inf: float


class ProblemCoefficients:
    """Coefficient bundle for the forward (1.1)-type and backward (1.2)-type problems.

    Each entry is a constant or a callable f(t, x) -> values: `a` is the
    diffusion coefficient (>= beta > 0), a1/b1 the drift zeroth-order and
    convection coefficients, a2/b2 their diffusion-part counterparts, and `b`
    the convection field of the backward controlled problem.
    """

    def __init__(self, a=1.0, a1=0.0, a2=0.0, b1=0.0, b2=0.0, b=0.0):
        self.a, self.a1, self.a2, self.b1, self.b2, self.b = a, a1, a2, b1, b2, b

    def sample(self, grid: SpatialGrid, times: np.ndarray) -> CoefficientTables:
        times = np.asarray(times, dtype=float)
        a_faces = _sample(self.a, times, grid.faces)
        left = times[:-1]
        tabs = {k: _sample(getattr(self, k), left, grid.x) for k in ("a1", "a2", "b1", "b2", "b")}
        for name, table, at in (("a", a_faces, times), *((k, v, left) for k, v in tabs.items())):
            bad = ~np.isfinite(table).all(axis=1)
            if bad.any():
                raise ValueError(f"coefficient {name} is not finite at t = {at[bad.argmax()]:.6g}")
        beta = float(a_faces.min())
        if beta <= 0.0:
            raise ValueError(f"diffusion coefficient must stay positive; min sample = {beta}")
        sup = {k: float(np.abs(v).max()) for k, v in tabs.items()}
        return CoefficientTables(times=times, a_faces=a_faces, beta=beta,
                                 a1=tabs["a1"], a2=tabs["a2"], b1=tabs["b1"],
                                 b2=tabs["b2"], b=tabs["b"],
                                 a1_inf=sup["a1"], a2_inf=sup["a2"], b1_inf=sup["b1"],
                                 b2_inf=sup["b2"], b_inf=sup["b"])


@dataclass
class ForwardSolution:
    """State of a forward solve: y over levels 0..M."""

    y: AdaptedField


@dataclass
class BackwardSolution:
    """State pair of a backward solve.

    z: nodal values over levels 0..M (level M is the terminal datum);
    Z: martingale part over levels 0..M-1;
    z_half: half-step conditional means over levels 0..M-1 (the values the
    duality pairings integrate and the HUM feedback injects).
    In controlled_1_2 mode the same slots hold the controlled pair (y, Y).
    """

    z: AdaptedField
    Z: AdaptedField
    z_half: AdaptedField


class _StepperBase:
    """Shared per-level factorization of S_n = I - dt*E(t_n).

    (E u)_i = [a_{i+1/2}(u_{i+1} - u_i) - a_{i-1/2}(u_i - u_{i-1})] / h^2, zero Dirichlet
    closure: S_n is SPD tridiagonal for a > 0, kept as its LDL^T factor (LAPACK dpttrf).
    dpttrs solves every row by the same loop, so no row depends on how many come with it.
    """

    def __init__(self, grid: SpatialGrid, times: np.ndarray, dt: float, coeffs):
        self.grid = grid
        self.dt = float(dt)
        self.tab = coeffs if isinstance(coeffs, CoefficientTables) else coeffs.sample(grid, times)
        h2 = grid.h * grid.h
        self._facts = [None]
        for n in range(1, times.size):
            af = self.tab.a_faces[n]
            d, e, info = dpttrf(1.0 + self.dt * (af[:-1] + af[1:]) / h2, -self.dt * af[1:-1] / h2)
            if info != 0:
                raise NumericsError(f"implicit step matrix of level {n} is not positive definite")
            self._facts.append((d, e))
        cfl = self.dt * (self.tab.b1_inf ** 2 / self.tab.beta + self.tab.a1_inf)
        if cfl > 1.0:
            warnings.warn(f"explicit lower-order terms are large: dt*(|B1|^2/beta + |a1|) = {cfl:.3g} > 1",
                          RuntimeWarning, stacklevel=3)

    def _solve(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """Apply S_level^{-1} to rows of rhs (the solve is symmetric)."""
        out = dpttrs(*self._facts[level], rhs.T)[0].T  # a non-finite rhs propagates into `out`
        if not np.isfinite(out).all():
            raise NumericsError(f"non-finite values after implicit solve into level {level}")
        return out


class TreeStepper(_StepperBase):
    """Forward/backward solvers on a scenario tree for one coefficient set."""

    def __init__(self, grid: SpatialGrid, tree: ScenarioTree, coeffs):
        super().__init__(grid, tree.times, tree.dt, coeffs)
        self.tree = tree

    # -- forward ---------------------------------------------------------

    def general_terms(self, n: int, y: np.ndarray):
        """Drift a1*y + b1*grad(y) and noise a2*y + b2*grad(y) of the general step at level n."""
        tab = self.tab
        grad = gradient(self.grid, y)
        return tab.a1[n] * y + tab.b1[n] * grad, tab.a2[n] * y + tab.b2[n] * grad

    def adjoint_1_5_terms(self, n: int, y: np.ndarray):
        """Drift -a1*y + weak_div(b*y) and noise -a2*y of the adjoint_1_5 step at level n."""
        tab = self.tab
        return -(tab.a1[n] * y) + weak_divergence(self.grid, tab.b[n] * y), -(tab.a2[n] * y)

    def forward(self, y0, u=None, v=None, drift_src=None, drift_div=None,
                mode: str = "general", feedback=None) -> ForwardSolution:
        """March level 0 -> M; see module docstring for the step map.

        general mode:      drift = a1*y + b1*grad(y) + 1_{G0} u [+ drift_src
                           + weak_div(drift_div)], noise = a2*y + b2*grad(y) + v.
                           `feedback(n, y) -> (u_n, v_n)` adds a control pair
                           computed from the level-n state (closed loop).
        adjoint_1_5 mode:  drift = -a1*y + weak_div(y*b), noise = -a2*y
                           (controls/sources not accepted).
        On a single-branch path nothing splits and the noise drops out.
        """
        if mode not in FORWARD_MODES:
            raise ValueError(f"unknown forward mode {mode!r}")
        if mode == "adjoint_1_5" and any(s is not None for s in (u, v, drift_src, drift_div,
                                                                 feedback)):
            raise ValueError("adjoint_1_5 mode takes no controls or sources")
        grid, tree = self.grid, self.tree
        y0 = np.asarray(y0, dtype=float).reshape(1, grid.N)
        if not np.isfinite(y0).all():
            raise NumericsError("non-finite initial state")
        mask = grid.g0_mask
        levels = [y0.copy()]
        for n in range(tree.M):
            y = levels[n]
            if mode == "general":
                drift, noise = self.general_terms(n, y)
                if u is not None:
                    drift = drift + mask * u[n]
                if drift_src is not None:
                    drift = drift + drift_src[n]
                if drift_div is not None:
                    drift = drift + weak_divergence(grid, drift_div[n])
                if v is not None:
                    noise = noise + v[n]
                if feedback is not None:
                    fu, fv = feedback(n, y)
                    drift = drift + mask * fu
                    noise = noise + fv
            else:
                drift, noise = self.adjoint_1_5_terms(n, y)
            base = y + self.dt * drift
            if tree.n_nodes(n + 1) > y.shape[0]:
                base = reconstruct_children(tree, base, noise)
            levels.append(self._solve(n + 1, base))
        return ForwardSolution(y=AdaptedField(levels))

    # -- backward --------------------------------------------------------

    def backward(self, zT, mode: str = "generic", f0=None, f_div=None, u=None) -> BackwardSolution:
        """Fold level M -> 0 through the transposed step map.

        generic mode:        z_n = z_half_n - dt*(f0_n + weak_div(f_div_n));
        adjoint_1_3 mode:    sources are the couplings F0 = -a1*z_half - a2*Z,
                             F = z_half*b1 + Z*b2;
        controlled_1_2 mode: z_n = z_half_n - dt*(a1*z_half + b*grad(z_half)
                             + a2*Z + 1_{G0} u_n).
        On a single-branch path there is no sibling to fold: z_half = w, Z = 0.
        """
        if mode not in BACKWARD_MODES:
            raise ValueError(f"unknown backward mode {mode!r}")
        if mode != "generic" and (f0 is not None or f_div is not None):
            raise ValueError("explicit sources are only accepted in generic mode")
        if mode != "controlled_1_2" and u is not None:
            raise ValueError("a control is only accepted in controlled_1_2 mode")
        grid, tree, tab = self.grid, self.tree, self.tab
        cur = np.asarray(zT, dtype=float)
        if cur.shape != (tree.n_nodes(tree.M), grid.N):
            raise ValueError(f"terminal data must have shape {(tree.n_nodes(tree.M), grid.N)}, got {cur.shape}")
        if not np.isfinite(cur).all():
            raise NumericsError("non-finite terminal data")
        mask = grid.g0_mask
        z_levels: list = [None] * (tree.M + 1)
        z_half_levels: list = [None] * tree.M
        mart_levels: list = [None] * tree.M
        z_levels[tree.M] = cur.copy()
        for n in range(tree.M - 1, -1, -1):
            w = self._solve(n + 1, cur)
            if tree.n_nodes(n) < w.shape[0]:
                z_half, z_mart = martingale_part(tree, w)
            else:
                z_half, z_mart = w, np.zeros_like(w)
            if mode == "adjoint_1_3":
                src = -(tab.a1[n] * z_half) - tab.a2[n] * z_mart
                flux = tab.b1[n] * z_half + tab.b2[n] * z_mart
                corr = src + weak_divergence(grid, flux)
            elif mode == "controlled_1_2":
                corr = tab.a1[n] * z_half + tab.b[n] * gradient(grid, z_half) + tab.a2[n] * z_mart
                if u is not None:
                    corr = corr + mask * u[n]
            else:
                corr = np.zeros_like(z_half)
                if f0 is not None:
                    corr = corr + f0[n]
                if f_div is not None:
                    corr = corr + weak_divergence(grid, f_div[n])
            cur = z_half - self.dt * corr
            z_levels[n], z_half_levels[n], mart_levels[n] = cur, z_half, z_mart
        return BackwardSolution(z=AdaptedField(z_levels), Z=AdaptedField(mart_levels),
                                z_half=AdaptedField(z_half_levels))


class PathStepper:
    """Single-branch deterministic counterpart of TreeStepper.

    A thin entry point: TreeStepper's sweeps on `build_path(n_steps, T)`.
    Used as the collapsed-tree oracle (zero-noise degeneration) and for
    time-resolved runs whose tree would be too deep; `forward` returns the
    states stacked into one array of shape (n_steps+1, N).
    """

    def __init__(self, grid: SpatialGrid, n_steps: int, T: float, coeffs):
        self.stepper = TreeStepper(grid, build_path(n_steps, T), coeffs)

    def forward(self, y0) -> np.ndarray:
        return np.concatenate(self.stepper.forward(y0).y.levels)


def duality_gap(grid, tree, coeffs, y0, u, v, zT) -> float:
    """Relative defect of the discrete duality identity (pure rounding noise).

    |E<y(T), zT> - <y0, z(0)> - E int_{Q0} u z - E int_Q v Z| divided by the
    sum of the magnitudes of the four terms, where y solves the controlled
    forward problem and (z, Z) the adjoint backward problem.
    """
    stepper = TreeStepper(grid, tree, coeffs)
    fwd = stepper.forward(y0, u=u, v=v)
    bwd = stepper.backward(zT, mode="adjoint_1_3")
    t_terminal = tree.node_weight(tree.M) * grid.h * float(np.sum(fwd.y[tree.M] * bwd.z[tree.M]))
    t_initial = grid.h * float(np.dot(np.ravel(y0), bwd.z[0][0]))
    t_u = 0.0
    t_v = 0.0
    for n in range(tree.M):
        w = tree.dt * tree.node_weight(n) * grid.h
        if u is not None:
            t_u += w * float(np.sum((grid.g0_mask * u[n]) * bwd.z_half[n]))
        if v is not None:
            t_v += w * float(np.sum(v[n] * bwd.Z[n]))
    gap = abs(t_terminal - t_initial - t_u - t_v)
    scale = abs(t_terminal) + abs(t_initial) + abs(t_u) + abs(t_v)
    if scale == 0.0:
        return 0.0
    return gap / scale


def forward_state_matrix(stepper: TreeStepper) -> np.ndarray:
    """Dense matrix of y0 -> y(T) (leaf-flattened rows), homogeneous problem."""
    grid, tree = stepper.grid, stepper.tree
    leaf_dim = tree.n_nodes(tree.M) * grid.N
    out = np.empty((leaf_dim, grid.N))
    for j in range(grid.N):
        e = np.zeros(grid.N)
        e[j] = 1.0
        out[:, j] = stepper.forward(e).y[tree.M].ravel()
    return out


def backward_state_matrix(stepper: TreeStepper) -> np.ndarray:
    """Dense matrix of zT -> z(0) for the adjoint backward solver."""
    grid, tree = stepper.grid, stepper.tree
    n_leaves = tree.n_nodes(tree.M)
    out = np.empty((grid.N, n_leaves * grid.N))
    zT = np.zeros((n_leaves, grid.N))
    for k in range(n_leaves * grid.N):
        zT.ravel()[k] = 1.0
        out[:, k] = stepper.backward(zT, mode="adjoint_1_3").z[0][0]
        zT.ravel()[k] = 0.0
    return out
