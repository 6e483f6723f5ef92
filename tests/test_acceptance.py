"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete (they are also flushed through the raw stdout so they
survive pytest's capture).
"""

import sys
import time

import numpy as np
import pytest

from spcontrol import (AdaptedField, ProblemCoefficients, TreeStepper, backward_state_matrix,
                       build_grid, build_path, build_tree, duality_gap, forward_state_matrix)
from spcontrol.carleman import (build_psi, carleman_ratio_backward, carleman_ratio_forward,
                                eval_weights, lambda_threshold, lambda_threshold_forward,
                                leading_order_check)
from spcontrol.control import (HumConfig, dual_functional, hum_backward, hum_forward,
                               k_cost_exponent, m_cost_exponent)
from spcontrol.experiments import cost_scaling_sweep


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_discrete_duality():
    """Lemma 1.1 duality gap <= 1e-10 on 20 seeded random instances."""
    t0 = time.time()
    grid = build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(8, 1.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        c = ProblemCoefficients(a=float(rng.uniform(0.5, 1.5)),
                                a1=float(rng.uniform(-1.0, 1.0)) or 0.3,
                                a2=float(rng.uniform(0.1, 0.6)),
                                b1=float(rng.uniform(-0.5, 0.5)) or 0.2,
                                b2=float(rng.uniform(0.1, 0.5)),
                                b=float(rng.uniform(-0.5, 0.5)))
        y0 = rng.standard_normal(grid.N)
        u = AdaptedField.random(tree, grid.N, rng, n_levels=tree.M)
        v = AdaptedField.random(tree, grid.N, rng, n_levels=tree.M)
        zT = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
        worst = max(worst, duality_gap(grid, tree, c, y0, u, v, zT))
    elapsed = time.time() - t0
    _report(1, worst <= 1e-10 and elapsed <= 10.0,
            f"max duality gap {worst:.3e} over 20 instances in {elapsed:.1f}s")


def test_criterion_02_transpose_exactness():
    """Dense adjoint identity at N=8, M=4 to 1e-12 elementwise."""
    grid = build_grid(1.0, 8, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(4, 1.0)
    coeffs = ProblemCoefficients(a=lambda t, x: 1.0 + 0.3 * np.sin(2 * np.pi * x),
                                 a1=0.8, a2=0.5, b1=0.4, b2=0.3, b=0.5)
    st = TreeStepper(grid, tree, coeffs)
    fwd = 2.0 ** (-tree.M) * forward_state_matrix(st).T
    bwd = backward_state_matrix(st)
    nz = (fwd != 0) | (bwd != 0)
    dev = float((np.abs(fwd - bwd)[nz] / np.maximum(np.abs(fwd), np.abs(bwd))[nz]).max())
    _report(2, dev <= 1e-12, f"max elementwise relative deviation {dev:.3e}")


def test_criterion_03_dual_gradient_finite_differences():
    """Dual-functional gradient vs central differences, 10 directions."""
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(6, 1.0)
    coeffs = ProblemCoefficients(a=0.5, a1=0.8, a2=0.4, b1=0.3, b2=0.3, b=0.4)
    st = TreeStepper(grid, tree, coeffs)
    rng = np.random.default_rng(99)
    y0 = rng.standard_normal(grid.N)
    zT = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
    eps, step = 1e-2, 1e-5
    leaf_w = tree.node_weight(tree.M) * grid.h
    grad = dual_functional(grid, tree, coeffs, y0, eps, zT, stepper=st)["gradient"]
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(zT.shape)
        vp = dual_functional(grid, tree, coeffs, y0, eps, zT + step * d, stepper=st)["value"]
        vm = dual_functional(grid, tree, coeffs, y0, eps, zT - step * d, stepper=st)["value"]
        fd = (vp - vm) / (2.0 * step)
        directional = leaf_w * float(np.sum(grad * d))
        worst = max(worst, abs(fd - directional) / max(abs(directional), 1.0))
    _report(3, worst <= 1e-6, f"max relative gradient error {worst:.3e}")


def test_criterion_04_hum_forward_sweep():
    """Thm 1.1 instance: terminal norm strictly decreasing, >= 1e3 reduction,
    control cost within a factor 2 across the eps sweep."""
    t0 = time.time()
    grid = build_grid(1.0, 32, (0.1, 0.95), (0.3, 0.7))
    tree = build_tree(8, 1.0)
    coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.5, b1=0.5, b2=0.5, b=0.5)
    st = TreeStepper(grid, tree, coeffs)
    y0 = np.sin(np.pi * grid.x / grid.L)
    rows = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        res = hum_forward(grid, tree, coeffs, y0,
                          HumConfig(epsilon=eps, cg_tol=1e-10, cg_max_iter=8000), stepper=st)
        rows.append(res.report)
    elapsed = time.time() - t0
    norms = [r.terminal_norm for r in rows]
    costs = [r.control_cost for r in rows]
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    reduction = rows[-1].uncontrolled_norm / norms[-1]
    cost_var = max(costs) / min(costs)
    ok = (decreasing and reduction >= 1e3 and cost_var <= 2.0
          and all(r.cg_converged for r in rows) and elapsed <= 120.0)
    _report(4, ok, f"decreasing={decreasing} reduction={reduction:.1f} "
                   f"cost variation={cost_var:.2f} in {elapsed:.1f}s")


def test_criterion_05_hum_backward_sweep_and_degeneration():
    """Thm 1.2 instance: initial norm driven down by >= 1e3; the a2 = 0 case
    matches the collapsed deterministic solve to 1e-12."""
    grid = build_grid(1.0, 32, (0.1, 0.95), (0.3, 0.7))
    tree = build_tree(8, 1.0)
    coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.5, b=0.5)
    st = TreeStepper(grid, tree, coeffs)
    yT = np.tile(np.sin(np.pi * grid.x / grid.L), (tree.n_nodes(tree.M), 1))
    norms = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        res = hum_backward(grid, tree, coeffs, yT,
                           HumConfig(epsilon=eps, cg_tol=1e-10, cg_max_iter=8000),
                           stepper=st)
        norms.append(res.report.terminal_norm)
    reduction = res.report.uncontrolled_norm / norms[-1]
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))

    det_coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.0, b=0.5)
    cfg = HumConfig(epsilon=1e-3, cg_tol=1e-12, cg_max_iter=2000)
    yT_vec = np.sin(np.pi * grid.x / grid.L)
    res_tree = hum_backward(grid, tree, det_coeffs,
                            np.tile(yT_vec, (tree.n_nodes(tree.M), 1)), cfg)
    res_path = hum_backward(grid, build_path(tree.M, tree.T), det_coeffs, yT_vec[None, :], cfg)
    scale = float(np.abs(res_path.adjoint_data).max())
    det_dev = float(np.abs(res_tree.adjoint_data - res_path.adjoint_data).max()) / scale
    ok = decreasing and reduction >= 1e3 and det_dev <= 1e-12
    _report(5, ok, f"decreasing={decreasing} reduction={reduction:.1f} "
                   f"deterministic deviation={det_dev:.2e}")


def test_criterion_06_zero_noise_oracle():
    """a2 = B2 = 0 with deterministic data: Z vanishes bitwise and the forward
    solution equals the single-branch deterministic solve bitwise."""
    grid = build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(7, 1.0)
    coeffs = ProblemCoefficients(a=lambda t, x: 1.0 + 0.2 * np.sin(2 * np.pi * x),
                                 a1=0.6, b1=0.4)
    st = TreeStepper(grid, tree, coeffs)
    y0 = np.sin(np.pi * grid.x)
    fwd = st.forward(y0)
    det = np.concatenate(TreeStepper(grid, build_path(tree.M, tree.T), coeffs).forward(y0).y.levels)
    bitwise = all(np.array_equal(fwd.y[n], np.tile(det[n], (tree.n_nodes(n), 1)))
                  for n in range(tree.M + 1))
    bwd = st.backward(np.tile(det[-1], (tree.n_nodes(tree.M), 1)), mode="adjoint_1_3")
    z_zero = all(np.all(bwd.Z[n] == 0.0) for n in range(tree.M))
    _report(6, bitwise and z_zero, f"single-branch bitwise={bitwise} Z==0 bitwise={z_zero}")


def test_criterion_07_heat_decay_oracle():
    """Eigenmode decay rate within 5% of (pi/L)^2 at N = 64, M = 64."""
    grid = build_grid(1.0, 64, (0.3, 0.8), (0.45, 0.65))
    T = 0.5
    path = TreeStepper(grid, build_path(64, T), ProblemCoefficients(a=1.0))
    y = np.concatenate(path.forward(np.sin(np.pi * grid.x / grid.L)).y.levels)
    rate = -np.log(np.linalg.norm(y[-1]) / np.linalg.norm(y[0])) / T
    target = (np.pi / grid.L) ** 2
    err = abs(rate - target) / target
    _report(7, err <= 0.05, f"decay rate {rate:.4f} vs {target:.4f} (rel err {err:.3%})")


def test_criterion_08_cost_exponent_formulas():
    """K and M closed forms reproduce the hand substitutions."""
    k_ok = (abs(k_cost_exponent(1.0, 0.0, 0.0, 0.0, 0.0) - 2.0) <= 1e-14
            and abs(k_cost_exponent(1.0, 1.0, 0.0, 0.0, 0.0) - 4.0) <= 1e-14
            and abs(k_cost_exponent(0.5, 0.0, 2.0, 0.0, 0.0)
                    - (5.0 + 2.0 ** (2.0 / 3.0))) <= 1e-14)
    m_ok = (abs(m_cost_exponent(1.0, 0.0, 0.0, 0.0) - 2.0) <= 1e-14
            and abs(m_cost_exponent(1.0, 0.0, 0.0, 1.0) - 4.0) <= 1e-14
            and abs(m_cost_exponent(2.0, 0.0, 1.0, 0.0) - 4.5) <= 1e-14)
    _report(8, k_ok and m_ok, f"K substitutions ok={k_ok}, M substitutions ok={m_ok}")


def test_criterion_09_carleman_ratio_stability():
    """Thm 2.1 / Thm 3.3 source-driven ratios over 50 seeded samples: finite
    maxima at threshold; the backward medians do not increase along
    lambda x {1, 2, 4} (the forward ratios stay bounded there)."""
    t0 = time.time()
    grid = build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(8, 1.0)
    coeffs = ProblemCoefficients(a=1.0, a1=1.0, a2=0.5, b1=0.5, b2=0.5, b=0.5)
    st = TreeStepper(grid, tree, coeffs)
    psi = build_psi(grid)
    rng = np.random.default_rng(42)

    mu = 1.0
    lam0 = lambda_threshold(mu, psi, tree.T)
    samples = [(rng.standard_normal((tree.n_nodes(tree.M), grid.N)),
                AdaptedField.random(tree, grid.N, rng, n_levels=tree.M),
                AdaptedField.random(tree, grid.N, rng, n_levels=tree.M))
               for _ in range(50)]
    medians = []
    max_at_thr = None
    for mult in (1.0, 2.0, 4.0):
        w = eval_weights(psi, mult * lam0, mu, tree)
        ratios = [carleman_ratio_backward(grid, tree, coeffs, w, zT, mode="sources",
                                          f0=f0, f_div=fd, stepper=st).ratio
                  for zT, f0, fd in samples]
        if mult == 1.0:
            max_at_thr = max(ratios)
        medians.append(float(np.median(ratios)))
    backward_ok = (np.isfinite(max_at_thr)
                   and medians[0] >= medians[1] >= medians[2])

    mu0 = 8.0
    lam0_f = lambda_threshold_forward(tree.T)
    fsamples = [(rng.standard_normal(grid.N),
                 AdaptedField.random(tree, grid.N, rng, n_levels=tree.M),
                 AdaptedField.random(tree, grid.N, rng, n_levels=tree.M),
                 AdaptedField.random(tree, grid.N, rng, n_levels=tree.M))
                for _ in range(50)]
    fmax = []
    for mult in (1.0, 2.0, 4.0):
        w = eval_weights(psi, mult * lam0_f, mu0, tree)
        ratios = [carleman_ratio_forward(grid, tree, coeffs, w, z0, f1=f1, f2=f2,
                                         f_div=fd, stepper=st).ratio
                  for z0, f1, f2, fd in fsamples]
        fmax.append(max(ratios))
    forward_ok = all(np.isfinite(m) for m in fmax)
    elapsed = time.time() - t0
    _report(9, backward_ok and forward_ok and elapsed <= 180.0,
            f"backward medians {['%.4f' % m for m in medians]} (max@thr {max_at_thr:.3f}), "
            f"forward maxima {['%.3f' % m for m in fmax]} in {elapsed:.1f}s")


def test_criterion_10_appendix_asymptotics():
    """Thm 5.2: A-deviation decays with log-log slope <= -0.8; B > 0 and
    c11 >= half its leading bound outside G1 at mu = 64."""
    grid = build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65))
    psi = build_psi(grid)
    rows = leading_order_check(psi, 1.0, [8.0, 16.0, 32.0, 64.0], 1.0, grid)
    slope = float(np.polyfit(np.log([r.mu for r in rows]),
                             np.log([r.dev_A for r in rows]), 1)[0])
    last = rows[-1]
    ok = slope <= -0.8 and last.min_B > 0.0 and last.c11_margin >= 0.5
    _report(10, ok, f"dev_A slope {slope:.2f}, min B ratio {last.min_B:.3f}, "
                    f"c11 margin {last.c11_margin:.3f} at mu = 64")


def test_criterion_11_observability_scaling():
    """Sharp-constant form: log c_obs vs 1/T fit with positive slope and
    R^2 >= 0.9 over T in {0.25, 0.5, 1, 2} with zero potentials."""
    t0 = time.time()
    grid = build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65))
    coeffs = ProblemCoefficients(a=0.05)
    table = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0],
                               quantity="observability", direction="forward_1_5",
                               m_per_time=32.0, iters=30, seed=11)
    elapsed = time.time() - t0
    ok = table.slope > 0.0 and table.r2 >= 0.9 and elapsed <= 300.0
    _report(11, ok, f"slope {table.slope:.3f}, R^2 {table.r2:.4f} "
                    f"(1/T^4 fit R^2 {table.r2_alt:.4f}) in {elapsed:.1f}s")


def test_criterion_12_psi_construction():
    """Lemma 2.1 invariants for 10 random G1 placements; C4 joins to 1e-9."""
    rng = np.random.default_rng(7)
    ok = True
    worst_join = 0.0
    for _ in range(10):
        lo = rng.uniform(0.12, 0.55)
        width = rng.uniform(0.12, min(0.3, 0.9 - lo))
        grid = build_grid(1.0, 32, (0.05, 0.96), (lo, lo + width))
        psi = build_psi(grid)
        ok &= bool(np.all(psi.psi > 0.0))
        ok &= abs(psi.evaluate(np.array([0.0]))[0]) <= 1e-12
        ok &= abs(psi.evaluate(np.array([grid.L]))[0]) <= 1e-12
        ok &= bool(np.all(np.abs(psi.dpsi[~grid.g1_mask]) > 0.0))
        for knot, side in ((psi.g1[0], "left"), (psi.g1[1], "right")):
            for order in range(5):
                outer = psi.evaluate(np.array([knot]), order, side=side)[0]
                cap = psi.evaluate(np.array([knot]), order, side="auto")[0]
                jump = abs(outer - cap) / max(abs(cap), 1.0)
                worst_join = max(worst_join, jump)
    ok &= worst_join <= 1e-9
    _report(12, ok, f"10 placements valid, worst C4 join jump {worst_join:.2e}")
