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
(Boyer, Hubert & Le Rousseau 2010).  Control-cost rows take the same moment
recursion on that problem's feedback loop.  So no cost_scaling_sweep row
sweeps the tree, runs CG or allocates a per-node field, and none is clipped.
Rows of one dt = T / M whose coefficients do not depend on t repeat one step,
so a shorter row's recursions are a longer row's last steps: a row of any kind
reads its value off the longest such row's recursions at its own depth.

All randomness flows from an explicit seed; every sweep row's value is the one
it takes alone, deterministic given that seed.
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
from .scenario import ScenarioTree, build_tree
from .spde import ProblemCoefficients, TreeStepper, step_keys

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
POWER_BLOCK = 30  # most power iterates per block: its 2^ceil(log2(b + 2)) rows stay <= 32


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
    coordinates it is plain symmetric power iteration on a matrix R, whose
    Rayleigh quotients <v_k, v_{k+1}> / <v_k, v_k>, v_k = R^k q0 for k = 1..iters,
    are certified lower bounds on the top generalized eigenvalue.  A block of at
    most POWER_BLOCK iterates comes from squared powers of R over a power of two
    above its infinity norm, so none overflows, and starts from the last block's
    last iterate, normalized, so none underflows.
    """
    for name, form in (("energy", energy), ("observation", obs)):
        if not np.isfinite(form).all():
            raise NumericsError(f"{name} form is not finite")
    lam_o, vec_o = np.linalg.eigh(obs)
    keep = lam_o > max(1e-14 * lam_o.max(), 0.0)
    if not keep.any():
        raise NumericsError("observation form vanished on a nonzero iterate")
    basis = vec_o[:, keep] / np.sqrt(lam_o[keep])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        reduced = basis.T @ energy @ basis
        reduced = 0.5 * (reduced + reduced.T)
        norm = np.abs(reduced).sum(axis=1).max()
    if not np.isfinite(norm):
        raise NumericsError("whitened energy form is not finite")
    exp = np.frexp(norm)[1]  # 2^exp > ||R||_inf
    q, rayleigh = rng.standard_normal(reduced.shape[0]), []
    while len(rayleigh) < iters:
        b = min(iters - len(rayleigh), POWER_BLOCK)
        k = (b + 1).bit_length()  # ceil(log2(b + 2)): 2^k rows hold q and its first 2^k - 1 iterates
        block, power = np.empty((2 ** k, len(q))), np.ldexp(reduced, -exp)
        block[0] = q
        for j in range(k):  # rows [2^j, 2^{j+1}) are R^{2^j} times rows [0, 2^j)
            power = power @ power if j else power
            np.matmul(block[:2 ** j], power, out=block[2 ** j:2 ** (j + 1)])
        norms = np.einsum("ij,ij->i", block[1:b + 1], block[1:b + 1])
        if not (norms > 0.0).all():
            raise NumericsError("observation form vanished on a nonzero iterate")
        dots = np.einsum("ij,ij->i", block[1:b + 1], block[2:b + 2])
        rayleigh.extend(np.ldexp(dots / norms, exp).tolist())
        q = block[b] / np.sqrt(norms[-1])
    return rayleigh


def observability_constant(grid: SpatialGrid, tree: ScenarioTree, coeffs,
                           direction: str = "forward_1_5", iters: int = 30,
                           seed: int = 0) -> ObservabilityEstimate:
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
    return next(_estimates(TreeStepper(grid, tree, coeffs), direction, [tree.M], iters, seed))


def _estimates(st: TreeStepper, direction: str, depths, iters: int, seed: int):
    """observability_constant's estimate at each of `depths`, off one recursion on `st`: forward,
    the pencil of `control._forward_pencil`; backward, (P_n(eps), I) with eps = h^2."""
    if direction == "forward_1_5":
        epsilon, pencils = None, _forward_pencil(st, depths)
    else:
        ric = _ForwardRiccati(st, st.grid.h ** 2)
        epsilon, pencils = ric.eps, ((ric.value(st.tree.M - d), np.eye(st.grid.N)) for d in depths)
    for pencil in pencils:
        rayleigh = np.maximum.accumulate(_pencil_power_iteration(*pencil, iters, np.random.default_rng(seed)))
        resid = abs(rayleigh[-1] - rayleigh[-2]) / abs(rayleigh[-1]) if len(rayleigh) > 1 else np.inf
        yield ObservabilityEstimate(c_obs=float(rayleigh[-1]), iterations=iters,
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
    epsilon: float | None  # the penalty of the rows; None for forward observability


def _ols(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope * x + intercept and its R^2, from the centred sums."""
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    ss_tot = float(dy @ dy)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, float(y.mean() - slope * x.mean()), r2


def cost_scaling_sweep(coeffs: ProblemCoefficients, grid: SpatialGrid, t_values,
                       quantity: str = "observability", direction: str = "forward_1_5",
                       m_per_time: float = 8.0, iters: int = 30,
                       seed: int = 0) -> ScalingTable:
    """Tabulate c_obs or control cost against T and fit the e^{C/T} law.

    Each row takes M = max(2, round(m_per_time * T)) steps of dt = T / M (1 / m_per_time
    when m_per_time * T is a whole number >= 2, near it otherwise): every row comes from
    N x N recursions, so no row is clipped.  A row runs on a single-branch path (the
    collapsed column) when its recursion is noise-free: a forward observability row when
    a2 = 0, every other row (backward observability, control cost) when a2 = b2 = 0.
    Control-cost rows are hum_forward's cost of steering sin(pi x / L) at eps = h^2, in the
    forward direction only.  Each row's host is the longest row whose last steps are bit
    for bit the row's steps (equal dt, branching and `spde.step_keys`), often itself; one
    recursion on the host's stepper gives each of its rows' values at the row's depth: the
    forward pencil, P_n (`control._ForwardRiccati.value`) with the identity, or the
    Riccati's `feedback_costs`.  It steps as deep as its rows ask, so a failing level fails
    the first row that reaches it.  Rows are planned up to the first T whose tree or tables
    fail to build; that error fails its row.  `epsilon` is the rows' penalty (None for forward
    observability).  An unknown name, a control-cost sweep in the backward direction, a T
    or m_per_time that is not positive and finite, fewer than 4 distinct T values or, for
    observability, iters < MIN_POWER_ITERS is a ValueError before any row runs.  Rows run
    in sorted-T order; a row failure aborts the sweep with the completed rows attached to
    the raised SweepError.
    """
    if quantity not in ("observability", "control_cost"):
        raise ValueError(f"unknown quantity {quantity!r}")
    observability = quantity == "observability"
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if not observability and direction != "forward_1_5":
        raise ValueError(f"control-cost rows are forward HUM costs: direction {direction!r} does not apply")
    t_values = sorted(float(t) for t in t_values)
    if not all(0.0 < T < np.inf for T in t_values):
        raise ValueError(f"T values must be positive and finite, got {t_values}")
    if len(set(t_values)) < 4:
        raise ValueError("need at least 4 distinct T values for the fit")
    if not 0.0 < m_per_time < np.inf:
        raise ValueError(f"m_per_time must be positive and finite, got {m_per_time}")
    if observability and iters < MIN_POWER_ITERS:
        raise ValueError(f"iters must be >= {MIN_POWER_ITERS}")
    forward_obs = observability and direction == "forward_1_5"
    epsilon = None if forward_obs else grid.h ** 2
    plans, failure = [], None  # per row (tree, tables), up to the first T whose build fails
    for T in t_values:
        try:
            tree = build_tree(max(2, int(round(m_per_time * T))), T)
            tab = coeffs.sample(grid, tree.times)
        except Exception as exc:  # noqa: BLE001 - raised at its row, after the rows before it
            failure = exc
            break
        # noise: forward observability's adjoint has -a2, every other row's state (a2, b2)
        noisy = tab.a2_inf + (0.0 if forward_obs else tab.b2_inf) > 0.0
        plans.append((replace(tree, branching=noisy), tab))
    keys = [(tree.dt, tree.branching, step_keys(tab)) for tree, tab in plans]
    # a row's host: the last, so longest, row whose last steps are bit for bit the row's steps
    host = [max(j for j, b in enumerate(keys[i:], i) if a[:2] == b[:2] and b[2][-len(a[2]):] == a[2])
            for i, a in enumerate(keys)]
    rows, hosted = [], {}  # hosted: host row -> the values of the rows it hosts, in order
    try:
        for T, (tree, tab), j in zip(t_values, plans, host):
            if j not in hosted:  # this is the first row j hosts
                st = TreeStepper(grid, *plans[j])
                depths = [p[0].M for p, h in zip(plans, host) if h == j]
                if observability:
                    hosted[j] = (est.c_obs for est in _estimates(st, direction, depths, iters, seed))
                else:
                    y0 = np.sin(np.pi * grid.x / grid.L)
                    hosted[j] = (cost for cost, _ in _ForwardRiccati(st, epsilon).feedback_costs(y0, depths))
            value = next(hosted[j])
            expo = (m_cost_exponent(T, tab.a1_inf, tab.a2_inf, tab.b_inf) if forward_obs else
                    k_cost_exponent(T, tab.a1_inf, tab.a2_inf, tab.b1_inf, tab.b2_inf))
            rows.append({"T": T, "M": tree.M, "collapsed": not tree.branching,
                         "value": value, "exponent": expo})
        if failure is not None:
            raise failure
    except Exception as exc:  # noqa: BLE001 - partial table must survive
        raise SweepError(f"sweep row T = {t_values[len(rows)]} failed: {exc}", rows) from exc
    x = 1.0 / np.array([r["T"] for r in rows])
    y = np.log(np.array([r["value"] for r in rows]))
    slope, intercept, r2 = _ols(x, y)
    _, _, r2_alt = _ols(x ** 4, y)
    return ScalingTable(quantity=quantity, rows=rows, slope=slope, intercept=intercept,
                        r2=r2, r2_alt=r2_alt, epsilon=epsilon)


def epsilon_sweep(coeffs: ProblemCoefficients, grid: SpatialGrid, tree: ScenarioTree,
                  y0, eps_values, cg_tol: float = 1e-10, cg_max_iter: int = 8000) -> list:
    """Run hum_forward across decreasing eps; rows carry norm/cost/iteration/identity-residual data.

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
    free, rows = None, []
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
                     "cg_converged": r.cg_converged, "identity_residual": r.identity_residual,
                     "uncontrolled_norm": r.uncontrolled_norm})
    return rows
