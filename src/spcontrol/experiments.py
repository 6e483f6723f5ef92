"""Batch drivers: observability constants, cost/constant scaling in T, eps sweeps.

The observability constant is the largest generalized Rayleigh quotient of
the pair (energy form, observation form):

  backward direction:  sup E|z(0)|^2 / (E int_{Q0} z^2 + E int_Q Z^2)
  forward direction:   sup E|z(T)|^2 /  E int_{Q0} z^2

Both are estimated by generalized power iteration p <- G^{-1} M p, with M
the energy form and G the observation form (the HUM Gramian); iterates are
normalized by G and the reported quotient <M p, p>/<G p, p> is
non-decreasing.  In the forward direction both forms act on R^N: they are
second moments of the forward adjoint, assembled densely by N x N backward
recursions over the time levels (no tree sweep, hence no depth cap).  In the
backward direction the dual lives on the leaves: M alternates a tree sweep
with its transpose, and G^{-1} is applied by warm-started inner CG on
`control._ForwardDual.gram`; those sweeps keep the depth cap.

All randomness flows from an explicit seed; sweep rows are independent and
deterministic given that seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .control import (HumConfig, _cg, _forward_pencil, _ForwardDual, hum_forward, k_cost_exponent,
                      m_cost_exponent)
from .errors import NumericsError
from .grid import SpatialGrid
from .scenario import DEFAULT_DEPTH_CAP, ScenarioTree, build_tree
from .spde import ProblemCoefficients, TreeStepper

__all__ = [
    "ObservabilityEstimate",
    "ScalingTable",
    "SweepError",
    "DIRECTIONS",
    "MIN_POWER_ITERS",
    "observability_constant",
    "cost_scaling_sweep",
    "epsilon_sweep",
]

DIRECTIONS = ("forward_1_5", "backward_1_3")  # observability_constant's two quotients
MIN_POWER_ITERS = 5  # observability_constant's fewest iterations

# inner CG that applies G^{-1} in the backward-direction power iteration
_INNER_TOL = 1e-10
_INNER_MAX_ITER = 400


@dataclass
class ObservabilityEstimate:
    c_obs: float
    iterations: int
    rayleigh: list
    residual: float
    direction: str


class SweepError(RuntimeError):
    """A sweep row failed; `partial` carries the rows completed so far."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def _pencil_power_iteration(energy, obs, iters: int, rng) -> list:
    """Generalized power iteration for a dense symmetric pencil.

    The pencil is restricted to the numerically observable subspace
    (observation eigenvalues above rounding resolution); in the whitened
    coordinates the iteration is plain symmetric power iteration, whose
    Rayleigh quotients are certified lower bounds on the top generalized
    eigenvalue.
    """
    lam_o, vec_o = np.linalg.eigh(obs)
    keep = lam_o > max(1e-14 * lam_o.max(), 0.0)
    if not keep.any():
        raise NumericsError("observation form vanished on a nonzero iterate")
    basis = vec_o[:, keep] / np.sqrt(lam_o[keep])
    reduced = basis.T @ energy @ basis
    reduced = 0.5 * (reduced + reduced.T)
    q = rng.standard_normal(reduced.shape[0])
    rayleigh = []
    for _ in range(iters):
        q = reduced @ q
        norm = float(np.dot(q, q))
        if norm <= 0.0:
            raise NumericsError("observation form vanished on a nonzero iterate")
        q = q / np.sqrt(norm)
        rayleigh.append(float(q @ reduced @ q))
    return rayleigh


def observability_constant(grid: SpatialGrid, tree: ScenarioTree, coeffs,
                           direction: str = "forward_1_5", iters: int = 30,
                           seed: int = 0, stepper: TreeStepper | None = None) -> ObservabilityEstimate:
    """Estimate the observability constant by generalized power iteration.

    Every iterate's quotient is a certified lower bound on the constant; the
    reported trace is the running best of those bounds (safeguarded
    iteration), so it is non-decreasing by construction even when the
    near-singular observation solve makes raw quotients wobble at rounding
    level.
    """
    if iters < MIN_POWER_ITERS:
        raise ValueError(f"iters must be >= {MIN_POWER_ITERS}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    rng = np.random.default_rng(seed)
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    if direction == "forward_1_5":
        energy, obs = _forward_pencil(st)
        rayleigh = _pencil_power_iteration(energy, obs, iters, rng)
    else:
        dual = _ForwardDual(st)
        leaf_shape = (tree.n_nodes(tree.M), grid.N)

        def gram(p):
            return dual.gram(p)[0], ()

        p = rng.standard_normal(leaf_shape)
        while dual.inner(p, dual.gram(p)[0]) <= 0.0:
            p = rng.standard_normal(leaf_shape)  # reseed: invisible iterate
        rayleigh = []
        for _ in range(iters):
            gp, (_, _, (z0,), _) = dual.gram(p)
            z0 = z0[0]
            den = dual.inner(p, gp)
            if den <= 0.0:
                raise NumericsError("observation form vanished on a nonzero iterate")
            rayleigh.append(grid.inner(z0, z0) / den)
            mp = st.forward(z0).y[tree.M]
            p, _ = _cg(gram, mp, dual.inner, _INNER_TOL, _INNER_MAX_ITER,
                       x0=p * (rayleigh[-1] if rayleigh[-1] > 0 else 1.0))
            p = p / np.sqrt(max(dual.inner(p, dual.gram(p)[0]), 1e-300))
    rayleigh = np.maximum.accumulate(np.asarray(rayleigh, dtype=float))
    resid = abs(rayleigh[-1] - rayleigh[-2]) / abs(rayleigh[-1]) if len(rayleigh) > 1 else np.inf
    return ObservabilityEstimate(c_obs=float(rayleigh[-1]), iterations=iters,
                                 rayleigh=[float(r) for r in rayleigh],
                                 residual=float(resid), direction=direction)


@dataclass
class ScalingTable:
    """Rows of (T, value, exponent) plus the fitted e^{s/T} law.

    slope/intercept/r2 fit log(value) against 1/T; r2_alt reports how the
    competing 1/T^4 law fares on the same data (reported, never asserted).
    """

    quantity: str
    rows: list
    slope: float
    intercept: float
    r2: float
    r2_alt: float


def _ols(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def cost_scaling_sweep(coeffs: ProblemCoefficients, grid: SpatialGrid, t_values,
                       quantity: str = "observability", direction: str = "forward_1_5",
                       m_per_time: float = 8.0, iters: int = 30,
                       seed: int = 0) -> ScalingTable:
    """Tabulate c_obs or control cost against T and fit the e^{C/T} law.

    The number of time steps per row follows round(m_per_time * T), so the
    step size is held roughly constant across rows (flagged by the M column).
    Forward-direction observability rows take their pencil from N x N moment
    recursions, which allocate nothing per tree node, so they keep every M;
    when the adjoint is noise-free (a2 = 0) the row runs on a single-branch
    path (flagged by the collapsed column).  Rows that sweep the tree (control
    cost, backward direction) have their depth clipped to
    scenario.DEFAULT_DEPTH_CAP.  Control-cost rows use eps = h^2.  Rows are
    computed in sorted-T order; a row failure aborts the sweep with the
    completed rows attached to the raised SweepError.
    """
    t_values = sorted(float(t) for t in t_values)
    if len(t_values) < 4:
        raise ValueError("need at least 4 distinct T values for the fit")
    if not 0.0 < m_per_time < np.inf:
        raise ValueError(f"m_per_time must be positive and finite, got {m_per_time}")
    moments = quantity == "observability" and direction == "forward_1_5"
    rows = []
    for T in t_values:
        n_steps = max(2, int(round(m_per_time * T)))
        try:
            tree = build_tree(n_steps if moments else min(n_steps, DEFAULT_DEPTH_CAP), T)
            tab = coeffs.sample(grid, tree.times)
            if moments:  # uncapped: the pencil allocates no per-node field
                tree = replace(tree, branching=tab.a2_inf > 0.0)
            st = TreeStepper(grid, tree, tab)
            if quantity == "observability":
                value = observability_constant(grid, tree, coeffs, direction=direction,
                                               iters=iters, seed=seed, stepper=st).c_obs
            elif quantity == "control_cost":
                res = hum_forward(grid, tree, coeffs, np.sin(np.pi * grid.x / grid.L),
                                  HumConfig(epsilon=grid.h ** 2), stepper=st)
                value = res.report.control_cost
            else:
                raise ValueError(f"unknown quantity {quantity!r}")
            if direction == "backward_1_3" or quantity == "control_cost":
                expo = k_cost_exponent(T, tab.a1_inf, tab.a2_inf, tab.b1_inf, tab.b2_inf)
            else:
                expo = m_cost_exponent(T, tab.a1_inf, tab.a2_inf, tab.b_inf)
            rows.append({"T": T, "M": tree.M, "collapsed": not tree.branching,
                         "value": value, "exponent": expo})
        except Exception as exc:  # noqa: BLE001 - partial table must survive
            raise SweepError(f"sweep row T = {T} failed: {exc}", rows) from exc
    x = 1.0 / np.array([r["T"] for r in rows])
    y = np.log(np.array([r["value"] for r in rows]))
    slope, intercept, r2 = _ols(x, y)
    _, _, r2_alt = _ols(x ** 4, y)
    return ScalingTable(quantity=quantity, rows=rows, slope=slope, intercept=intercept,
                        r2=r2, r2_alt=r2_alt)


def epsilon_sweep(coeffs: ProblemCoefficients, grid: SpatialGrid, tree: ScenarioTree,
                  y0, eps_values, cg_tol: float = 1e-10, cg_max_iter: int = 8000) -> list:
    """Run hum_forward across decreasing eps; rows carry norm/cost/iteration data.

    Every eps must be positive and finite (ValueError before any row runs).
    All rows share one stepper and one free solution: the uncontrolled sweep
    of y0 does not depend on eps, so it runs once, inside the first row, and
    every row's hum_forward receives it whole, since the controlled state is
    the free one plus what that row's CG carries.

    The terminal norm must decrease strictly along the sweep and the control
    cost stays within the uniform penalty-free bound; both are the caller's
    (or the acceptance suite's) assertions, this function only tabulates.
    """
    eps_values = [float(e) for e in eps_values]
    if not all(0.0 < e < np.inf for e in eps_values):
        raise ValueError(f"eps values must be positive and finite, got {eps_values}")
    if len(eps_values) < 3 or any(a <= b for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("need >= 3 strictly decreasing eps values")
    tree.n_nodes(tree.M)  # a tree too deep to sweep is bad input, not a failed row
    st = TreeStepper(grid, tree, coeffs)
    y0 = np.asarray(y0, dtype=float)
    free = None
    rows = []
    for eps in eps_values:
        try:
            if free is None:
                free = st.forward(y0)
            # only the report is kept, so a row's fields are freed before the next row runs
            r = hum_forward(grid, tree, coeffs, y0, HumConfig(epsilon=eps, cg_tol=cg_tol,
                                                              cg_max_iter=cg_max_iter),
                            stepper=st, free=free).report
        except Exception as exc:  # noqa: BLE001
            raise SweepError(f"sweep row eps = {eps} failed: {exc}", rows) from exc
        rows.append({"epsilon": eps, "terminal_norm": r.terminal_norm,
                     "control_cost": r.control_cost, "cg_iterations": r.cg_iterations,
                     "cg_converged": r.cg_converged,
                     "uncontrolled_norm": r.uncontrolled_norm})
    return rows
