"""Batch drivers: observability constants, cost/constant scaling in T, eps sweeps.

The observability constant is the largest generalized Rayleigh quotient of
the pair (energy form, observation form):

  backward direction:  sup E|z(0)|^2 / (E int_{Q0} z^2 + E int_Q Z^2 + eps E|z(T)|^2)
  forward direction:   sup E|z(T)|^2 /  E int_{Q0} z^2

Both directions assemble a dense symmetric N x N pair and run the same
generalized power iteration p <- G^{-1} M p on it, with M the energy form
and G the observation form; the reported quotient is non-decreasing.  In
the forward direction the pair is the second moments of the forward
adjoint, from N x N backward recursions over the time levels.  In the
backward direction it is (P_0(eps), I): by LQ duality the penalized
quotient is the top eigenvalue of the value matrix P_0 of the forward HUM
problem's tracking LQ problem (`control._ForwardRiccati`), at eps = h^2
(Boyer, Hubert & Le Rousseau 2010).  Neither direction sweeps the tree,
so neither allocates a per-node field or meets the depth cap.

All randomness flows from an explicit seed; sweep rows are independent and
deterministic given that seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .control import (HumConfig, _forward_pencil, _ForwardRiccati, hum_forward, k_cost_exponent,
                      m_cost_exponent)
# perfbench/tracer.py patches the name `_cg` in this module, so it stays importable here
from .control import _cg  # noqa: F401
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


@dataclass
class ObservabilityEstimate:
    c_obs: float
    iterations: int
    rayleigh: list
    residual: float
    direction: str
    epsilon: float | None = None  # the backward quotient's penalty; None in the forward direction


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

    Forward: the pencil of `control._forward_pencil`.  Backward: the pair
    (P_0(eps), I) with eps = h^2, the rule of `[hum] epsilon = auto`, reported
    in `epsilon`.  Every iterate's quotient is a lower bound on the pencil's
    top eigenvalue; the reported trace is their running best, so it is
    non-decreasing by construction even where rounding makes raw quotients
    wobble.
    """
    if iters < MIN_POWER_ITERS:
        raise ValueError(f"iters must be >= {MIN_POWER_ITERS}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    rng = np.random.default_rng(seed)
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    epsilon = None
    if direction == "forward_1_5":
        energy, obs = _forward_pencil(st)
    else:
        epsilon = grid.h ** 2
        energy, obs = _ForwardRiccati(st, epsilon).p0, np.eye(grid.N)
    rayleigh = np.maximum.accumulate(_pencil_power_iteration(energy, obs, iters, rng))
    resid = abs(rayleigh[-1] - rayleigh[-2]) / abs(rayleigh[-1]) if len(rayleigh) > 1 else np.inf
    return ObservabilityEstimate(c_obs=float(rayleigh[-1]), iterations=iters,
                                 rayleigh=[float(r) for r in rayleigh],
                                 residual=float(resid), direction=direction, epsilon=epsilon)


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
    Observability rows of either direction take their pencil from N x N
    recursions, which allocate nothing per tree node, so they keep every M;
    when the forward adjoint is noise-free (a2 = 0) a forward row runs on a
    single-branch path (flagged by the collapsed column), while backward rows
    stay on the tree.  Control-cost rows sweep the tree, so their depth is
    clipped to scenario.DEFAULT_DEPTH_CAP; they use eps = h^2.  An unknown
    quantity or direction, or fewer than 4 distinct T values, is a ValueError
    before any row runs.  Rows are computed in sorted-T order; a row failure
    aborts the sweep with the completed rows attached to the raised SweepError.
    """
    if quantity not in ("observability", "control_cost"):
        raise ValueError(f"unknown quantity {quantity!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    t_values = sorted(float(t) for t in t_values)
    if len(set(t_values)) < 4:
        raise ValueError("need at least 4 distinct T values for the fit")
    if not 0.0 < m_per_time < np.inf:
        raise ValueError(f"m_per_time must be positive and finite, got {m_per_time}")
    observability = quantity == "observability"
    rows = []
    for T in t_values:
        n_steps = max(2, int(round(m_per_time * T)))
        try:
            # uncapped where the pencil allocates no per-node field
            tree = build_tree(n_steps if observability else min(n_steps, DEFAULT_DEPTH_CAP), T)
            tab = coeffs.sample(grid, tree.times)
            if observability and direction == "forward_1_5":
                tree = replace(tree, branching=tab.a2_inf > 0.0)
            st = TreeStepper(grid, tree, tab)
            if observability:
                value = observability_constant(grid, tree, coeffs, direction=direction,
                                               iters=iters, seed=seed, stepper=st).c_obs
            else:
                res = hum_forward(grid, tree, coeffs, np.sin(np.pi * grid.x / grid.L),
                                  HumConfig(epsilon=grid.h ** 2), stepper=st)
                value = res.report.control_cost
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
