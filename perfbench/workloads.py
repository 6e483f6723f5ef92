"""The three benchmark workloads: generated config, set-up, inputs, task, checks.

Every workload builds its problem the way a user of the command line does:
INI text -> `cli.parse_config` -> `RunConfig.build_problem`, so coefficients
are the compiled expressions users run.  The benchmark seed is written into
`[experiment] seed`; every seeded input is drawn from it, so the package
receives only the generated config and the generated inputs.

A task is one unit of user work.  `inputs` returns a pool of task inputs
drawn before timing starts; task k runs pool item k mod len(pool).  Package
functions are always looked up through their module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import math

import numpy as np

# The desk problem of demos/desk.ini, copied here so that editing the demo
# never changes what the benchmark measures.
_DESK = """\
[problem]
L = 1.0
N = {N}
M = 8
T = 1.0
g0 = 0.1, 0.95
g1 = 0.3, 0.7
a = 0.15
a1 = 1.0
a2 = 0.5
b1 = 0.5 * sin(pi * x)
b2 = 0.5
b = 0.5
"""

# HUM identity residual above which a forward-HUM row counts as failed; the
# seed commit reaches 1e-12 or less on this problem.
IDENTITY_TOL = 1e-8


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


class Workload:
    """Defaults for the optional hooks; each workload overrides what it uses."""

    def capture(self, spc) -> dict:
        """Install result pass-throughs before any set-up; returns the task state."""
        return {}

    def setup(self, spc, cfg, grid, tree, coeffs, state) -> None:
        """Build what the tasks reuse (timed as part of set-up)."""

    def check_run(self, summary: dict) -> list:
        return []


class HumEps(Workload):
    """Warm-started forward-HUM penalty sweep (the CLI `sweep-eps` path)."""

    name = "hum-eps"

    def config_text(self, seed: int) -> str:
        return _DESK.format(N=32) + f"""
[hum]
cg_tol = 1e-10
cg_max_iter = 8000

[experiment]
seed = {seed}
eps_values = 1e-1, 1e-2, 1e-3, 1e-4
"""

    def capture(self, spc) -> dict:
        # The forward-HUM reports (HUM identity residual) are not part of the
        # sweep rows; a pass-through records them for the checks.
        reports = []
        original = spc.experiments.hum_forward

        def hum_forward(*args, **kwargs):
            res = original(*args, **kwargs)
            reports.append(res.report)
            return res

        spc.experiments.hum_forward = hum_forward
        return {"reports": reports}

    def inputs(self, spc, cfg, grid, tree, state) -> list:
        # initial state: sin(pi x) plus a seeded mix of the next three modes
        rng = np.random.default_rng(cfg.experiment.seed)
        coef = np.concatenate([[1.0], 0.3 * rng.standard_normal(3)])
        y0 = sum(c * np.sin((k + 1) * np.pi * grid.x / grid.L) for k, c in enumerate(coef))
        return [y0]

    def task(self, spc, cfg, grid, tree, coeffs, state, y0) -> dict:
        reports = state["reports"]
        reports.clear()
        rows = spc.experiments.epsilon_sweep(coeffs, grid, tree, y0, cfg.experiment.eps_values,
                                             cg_tol=cfg.hum.cg_tol,
                                             cg_max_iter=cfg.hum.cg_max_iter)
        return {
            "terminal_norm": [r["terminal_norm"] for r in rows],
            "control_cost": [r["control_cost"] for r in rows],
            "uncontrolled_norm": rows[-1]["uncontrolled_norm"],
            "cg_iterations": [r["cg_iterations"] for r in rows],
            "cg_converged": [bool(r["cg_converged"]) for r in rows],
            "identity_residual": [r.identity_residual for r in reports],
        }

    def check(self, out: dict) -> list:
        """Acceptance criterion 4 plus convergence and the HUM identity."""
        norms, costs = out["terminal_norm"], out["control_cost"]
        problems = []
        if not all(a > b for a, b in zip(norms, norms[1:])):
            problems.append(f"terminal norm not strictly decreasing: {norms}")
        if not out["uncontrolled_norm"] >= 1e3 * norms[-1]:
            reduction = out["uncontrolled_norm"] / norms[-1]
            problems.append(f"reduction at the last eps below 1e3: {reduction:.4g}")
        if not (_finite_positive(costs) and max(costs) <= 2.0 * min(costs)):
            problems.append(f"control cost outside a factor 2: {costs}")
        if not all(out["cg_converged"]):
            problems.append(f"CG did not converge: iterations {out['cg_iterations']}")
        resid = out["identity_residual"]
        if len(resid) != len(norms) or not all(r <= IDENTITY_TOL for r in resid):
            problems.append(f"HUM identity residual above {IDENTITY_TOL}: {resid}")
        return problems

    def summary(self, outs: list) -> dict:
        out = outs[0]
        return {"control_cost": out["control_cost"], "terminal_norm": out["terminal_norm"]}


class SweepT(Workload):
    """Observability constant against the horizon T on the tree path."""

    name = "sweep-t"

    def config_text(self, seed: int) -> str:
        return _DESK.format(N=32) + f"""
[experiment]
seed = {seed}
t_values = 0.25, 0.5, 1.0, 2.0
m_per_time = 6
power_iters = 30
direction = forward_1_5
"""

    def inputs(self, spc, cfg, grid, tree, state) -> list:
        # the seeded power-iteration start vector is drawn inside the sweep
        return [cfg.experiment.seed]

    def task(self, spc, cfg, grid, tree, coeffs, state, seed) -> dict:
        ex = cfg.experiment
        table = spc.experiments.cost_scaling_sweep(coeffs, grid, ex.t_values,
                                                   quantity="observability",
                                                   direction=ex.direction,
                                                   m_per_time=ex.m_per_time,
                                                   iters=ex.power_iters, seed=seed)
        return {"M": [r["M"] for r in table.rows],
                "collapsed": [bool(r["collapsed"]) for r in table.rows],
                "c_obs": [r["value"] for r in table.rows], "r2": table.r2}

    def check(self, out: dict) -> list:
        problems = []
        if not _finite_positive(out["c_obs"]):
            problems.append(f"c_obs not finite and positive: {out['c_obs']}")
        if not _finite_positive([out["r2"]]):
            problems.append(f"R^2 not finite and positive: {out['r2']}")
        if any(out["collapsed"]):
            problems.append("a row took the collapsed path; the workload measures the tree path")
        return problems

    def summary(self, outs: list) -> dict:
        return {"c_obs": outs[0]["c_obs"], "r2": outs[0]["r2"]}


class CarlemanFine(Workload):
    """Source-driven backward Carleman ratios on a fine mesh (N = 128)."""

    name = "carleman-fine"

    def config_text(self, seed: int) -> str:
        return _DESK.format(N=128) + f"""
[carleman]
mu = 1.0
exclude = 1
lambda_multiples = 1, 2, 4
samples = 32

[experiment]
seed = {seed}
"""

    def setup(self, spc, cfg, grid, tree, coeffs, state) -> None:
        car = spc.carleman
        psi = car.build_psi(grid)
        lam0 = car.lambda_threshold(cfg.carleman.mu, psi, tree.T, c0=cfg.carleman.c0)
        weights = [car.eval_weights(psi, m * lam0, cfg.carleman.mu, tree)
                   for m in cfg.carleman.lambda_multiples]
        state["stepper"] = spc.spde.TreeStepper(grid, tree, coeffs)
        state["weights"] = weights

    def inputs(self, spc, cfg, grid, tree, state) -> list:
        # the instance stream of the CLI carleman-check command
        rng = np.random.default_rng(cfg.experiment.seed)
        field = spc.scenario.AdaptedField
        return [(rng.standard_normal((tree.n_nodes(tree.M), grid.N)),
                 field.random(tree, grid.N, rng, n_levels=tree.M),
                 field.random(tree, grid.N, rng, n_levels=tree.M))
                for _ in range(cfg.carleman.samples)]

    def task(self, spc, cfg, grid, tree, coeffs, state, instance) -> dict:
        zT, f0, f_div = instance
        res = [spc.carleman.carleman_ratio_backward(grid, tree, coeffs, w, zT, mode="sources",
                                                    f0=f0, f_div=f_div,
                                                    exclude=cfg.carleman.exclude,
                                                    stepper=state["stepper"])
               for w in state["weights"]]
        return {"ratio": [r.ratio for r in res], "lhs": [r.lhs for r in res],
                "rhs": [r.rhs for r in res]}

    def check(self, out: dict) -> list:
        if not all(math.isfinite(r) and r >= 0.0 for r in out["ratio"]):
            return [f"ratio not finite: {out['ratio']}"]
        return []

    def summary(self, outs: list) -> dict:
        # the ratio barely moves when the solution does (lhs and rhs share the
        # weighted state term), so the medians of lhs and rhs are kept too
        return {f"median_{key}": [float(m) for m in np.median([o[key] for o in outs], axis=0)]
                for key in ("ratio", "lhs", "rhs")}

    def check_run(self, summary: dict) -> list:
        med = summary["median_ratio"]
        if not all(a >= b for a, b in zip(med, med[1:])):
            return [f"median ratio increases with lambda: {med}"]
        return []


WORKLOADS = {w.name: w for w in (HumEps(), SweepT(), CarlemanFine())}
