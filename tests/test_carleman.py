import dataclasses

import numpy as np
import pytest

from spcontrol import (AdaptedField, NumericsError, ProblemCoefficients, TreeStepper,
                       build_grid, build_tree)
from spcontrol.carleman import (CarlemanRatio, DiffusionCoefficient, appendix_coeffs,
                                build_psi, carleman_ratio_backward,
                                carleman_ratio_forward, eval_weights, lambda_threshold,
                                lambda_threshold_forward, leading_order_check)


def _psi_invariants(grid, psi):
    assert np.all(psi.psi > 0.0)
    assert abs(psi.evaluate(np.array([0.0]))[0]) <= 1e-12
    assert abs(psi.evaluate(np.array([grid.L]))[0]) <= 1e-12
    outside = ~grid.g1_mask
    assert np.all(np.abs(psi.dpsi[outside]) > 0.0)


def test_psi_invariants_random_placements():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lo = rng.uniform(0.1, 0.55)
        width = rng.uniform(0.12, min(0.3, 0.92 - lo))
        grid = build_grid(1.0, 32, (0.05, 0.96), (lo, lo + width))
        psi = build_psi(grid)
        _psi_invariants(grid, psi)
        # C4 joins: one-sided derivatives agree through order 4
        for knot, side in ((psi.g1[0], "left"), (psi.g1[1], "right")):
            for order in range(5):
                outer = psi.evaluate(np.array([knot]), order, side=side)[0]
                cap = psi.evaluate(np.array([knot]), order, side="auto")[0]
                assert abs(outer - cap) <= 1e-9 * max(abs(cap), 1.0)


@pytest.mark.parametrize("order", [-1, 6])
def test_psi_derivative_order_out_of_range_raises(order):
    psi = build_psi(build_grid(1.0, 16, (0.2, 0.8), (0.4, 0.6)))
    with pytest.raises(ValueError, match="order"):
        psi.evaluate(np.array([0.1, 0.5, 0.9]), order)


def test_psi_symmetric_for_centered_region():
    grid = build_grid(1.0, 31, (0.2, 0.8), (0.4, 0.6))
    psi = build_psi(grid)
    assert psi.x_c == pytest.approx(0.5)
    quarter = psi.evaluate(np.array([0.25]), 1)[0]
    three_quarter = psi.evaluate(np.array([0.75]), 1)[0]
    assert quarter > 0.0 and three_quarter < 0.0
    assert quarter == pytest.approx(-three_quarter, rel=1e-12)
    assert np.allclose(psi.psi, psi.psi[::-1], rtol=1e-12)


def test_psi_off_center_critical_point():
    grid = build_grid(1.0, 32, (0.1, 0.9), (0.2, 0.4))
    psi = build_psi(grid)
    assert psi.x_c == pytest.approx(0.3)
    _psi_invariants(grid, psi)


def test_psi_rejects_narrow_region():
    grid = build_grid(1.0, 16, (0.2, 0.8), (0.45, 0.55))
    with pytest.raises(ValueError, match="at least"):
        build_psi(grid, (0.49, 0.51))


def test_weight_values_by_substitution():
    # grid with a node exactly at the critical point so psi = 1 there
    grid = build_grid(1.0, 15, (0.2, 0.55), (0.25, 0.5))
    psi = build_psi(grid)
    node = np.argmin(np.abs(grid.x - psi.x_c))
    assert grid.x[node] == pytest.approx(psi.x_c)
    assert psi.psi[node] == pytest.approx(1.0)
    tree = build_tree(8, 1.0)
    w = eval_weights(psi, 1.0, 1.0, tree)
    k = w.row(tree.M // 2)  # t = T/2
    T = tree.T
    assert w.phi[k, node] == pytest.approx(4.0 * np.e / T ** 2, rel=1e-12)
    assert w.alpha[k, node] == pytest.approx(4.0 * (np.e - np.e ** 2) / T ** 2, rel=1e-12)


def test_weight_signs_and_monotonicity(grid32):
    psi = build_psi(grid32)
    tree = build_tree(8, 1.0)
    w = eval_weights(psi, 3.0, 2.0, tree)
    assert np.all(w.alpha < 0.0)
    assert np.all(w.l < 0.0)  # hence 0 < theta < 1
    # theta decreasing toward t = 0: earliest tabulated level is the smallest
    assert np.all(w.l[0] < w.l[1])


def test_log_theta_linear_in_lambda(grid32):
    psi = build_psi(grid32)
    tree = build_tree(6, 1.0)
    w1 = eval_weights(psi, 7.0, 2.0, tree)
    w2 = eval_weights(psi, 14.0, 2.0, tree)
    assert np.array_equal(w2.l, 2.0 * w1.l)


def test_lambda_threshold_values():
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.45, 0.65))
    psi = build_psi(grid)
    mu = np.log(10.0) / 2.0  # e^{2 mu |psi|_inf} = 10
    assert lambda_threshold(mu, psi, 1.0) == pytest.approx(11.0)
    assert lambda_threshold(mu, psi, 2.0) == pytest.approx(24.0)
    assert lambda_threshold(mu, psi, 1.0, c0=5.0) == pytest.approx(55.0)
    assert lambda_threshold(mu, psi, 2.0, c0=5.0) == pytest.approx(120.0)
    assert lambda_threshold_forward(1.0) == pytest.approx(2.0)
    assert lambda_threshold_forward(2.0, c0=3.0) == pytest.approx(18.0)


def test_appendix_critical_node_reduction():
    # at the critical node psi' = 0 and a = 1: A = l_xx - l_t
    grid = build_grid(1.0, 15, (0.2, 0.55), (0.25, 0.5))
    psi = build_psi(grid)
    lam, mu, t, T = 30.0, 4.0, 0.5, 1.0
    co = appendix_coeffs(psi, 1.0, lam, mu, t, T, grid.x)
    node = np.argmin(np.abs(grid.x - psi.x_c))
    # independent term-by-term evaluation
    tau = 1.0 / (t * (T - t))
    phi = tau * np.exp(mu * 1.0)
    alpha = tau * (np.exp(mu) - np.exp(2.0 * mu))
    p2 = psi.evaluate(np.array([psi.x_c]), 2)[0]
    l_xx = lam * mu * phi * p2  # psi' = 0 kills the mu^2 term
    l_t = lam * (-(T - 2.0 * t) * tau) * alpha
    assert co.A[node] == pytest.approx(l_xx - l_t, rel=1e-12)


def test_appendix_lambda_scaling_quadratic():
    grid = build_grid(1.0, 32, (0.1, 0.9), (0.3, 0.7))
    psi = build_psi(grid)
    mu, t, T = 16.0, 0.5, 1.0
    outside = ~grid.g1_mask
    ratios = []
    for lam in 2.0 ** np.arange(6, 13):
        c1 = appendix_coeffs(psi, 1.0, lam, mu, t, T, grid.x)
        c2 = appendix_coeffs(psi, 1.0, 2.0 * lam, mu, t, T, grid.x)
        ratios.append(np.abs(c2.A / c1.A)[outside].mean())
    # quadratic leading term: the doubling ratio approaches 4 from below
    assert abs(ratios[-1] - 4.0) < abs(ratios[0] - 4.0)
    assert ratios[-1] == pytest.approx(4.0, abs=0.05)


def test_appendix_c11_margin_large_mu():
    # the margin holds where the slope is bounded away from zero, i.e. outside
    # G1 (inside the cap psi' -> 0 and no finite mu dominates psi'')
    grid = build_grid(1.0, 32, (0.1, 0.9), (0.3, 0.7))
    psi = build_psi(grid)
    mu = 64.0
    lam = lambda_threshold(mu, psi, 1.0)
    co = appendix_coeffs(psi, 1.0, lam, mu, 0.5, 1.0, grid.x)
    outside = ~grid.g1_mask
    assert np.all(np.abs(psi.dpsi[outside]) > 0.0)
    assert np.all(co.c11[outside] >= co.c11_lead[outside] * (1.0 - 10.0 / mu))


def test_leading_order_deviations_decay(grid32):
    psi = build_psi(grid32)
    rows = leading_order_check(psi, 1.0, [8.0, 16.0, 32.0, 64.0], 1.0, grid32)
    dev_a = [r.dev_A for r in rows]
    dev_b = [r.dev_B for r in rows]
    # deviations shrink monotonically after the first dyadic value
    assert all(a > b for a, b in zip(dev_a, dev_a[1:]))
    assert all(a > b for a, b in zip(dev_b[1:], dev_b[2:]))
    # decay-rate consistency between mu = 8 and mu = 32
    assert dev_a[0] / dev_a[2] >= 1.9
    assert dev_b[0] / dev_b[2] >= 3.0
    # positivity of B and the c11 margin at the largest mu
    assert rows[-1].min_B > 0.0
    assert rows[-1].c11_margin >= 0.5


def test_appendix_coeffs_via_weight_table(grid32):
    psi = build_psi(grid32)
    tree = build_tree(8, 1.0)
    w = eval_weights(psi, 40.0, 4.0, tree)
    t = float(w.times[w.row(4)])
    co = appendix_coeffs(psi, DiffusionCoefficient(1.0), w.lam, w.mu, t, w.T, grid32.x)
    assert co.t == tree.times[4]
    assert np.all(np.isfinite(co.B))
    with pytest.raises(ValueError):
        w.row(0)  # t = 0 has no weights


def test_ratio_zero_data(grid32, tree8, full_coeffs):
    psi = build_psi(grid32)
    w = eval_weights(psi, lambda_threshold(1.0, psi, tree8.T), 1.0, tree8)
    zT = np.zeros((tree8.n_nodes(tree8.M), grid32.N))
    res = carleman_ratio_backward(grid32, tree8, full_coeffs, w, zT, mode="sources")
    assert res.ratio == 0.0 and res.lhs == 0.0
    resf = carleman_ratio_forward(grid32, tree8, full_coeffs, w, np.zeros(grid32.N))
    assert resf.ratio == 0.0


def test_backward_ratio_median_sweep(grid32, tree8):
    coeffs = ProblemCoefficients(a=1.0, a1=1.0, a2=0.5, b1=0.5, b2=0.5, b=0.5)
    st = TreeStepper(grid32, tree8, coeffs)
    psi = build_psi(grid32)
    mu = 1.0
    lam0 = lambda_threshold(mu, psi, tree8.T)
    rng = np.random.default_rng(42)
    instances = [(rng.standard_normal((tree8.n_nodes(tree8.M), grid32.N)),
                  AdaptedField.random(tree8, grid32.N, rng, n_levels=tree8.M),
                  AdaptedField.random(tree8, grid32.N, rng, n_levels=tree8.M))
                 for _ in range(15)]
    medians = []
    for mult in (1.0, 2.0, 4.0):
        w = eval_weights(psi, mult * lam0, mu, tree8)
        ratios = [carleman_ratio_backward(grid32, tree8, coeffs, w, zT, mode="sources",
                                          f0=f0, f_div=fd, stepper=st).ratio
                  for zT, f0, fd in instances]
        assert np.isfinite(ratios).all()
        medians.append(np.median(ratios))
    assert medians[0] >= medians[1] >= medians[2]


def test_eval_weights_bound_violation_raises(grid32, tree8):
    # a strongly negative profile entry keeps alpha < 0 but breaks
    # |phi_t| <= T phi^2 there; the check must not depend on assert (python -O)
    psi = build_psi(grid32)
    bad = psi.psi.copy()
    bad[3] = -10.0
    with pytest.raises(NumericsError, match=r"\|phi_t\| <= T phi\^2"):
        eval_weights(dataclasses.replace(psi, psi=bad), 10.0, 2.0, tree8)


def test_backward_ratio_lemma_baseline(grid32, tree8, full_coeffs):
    # no-flux configuration: random F0 and terminal data, ratio finite
    psi = build_psi(grid32)
    w = eval_weights(psi, lambda_threshold(1.0, psi, tree8.T), 1.0, tree8)
    rng = np.random.default_rng(21)
    st = TreeStepper(grid32, tree8, full_coeffs)
    for _ in range(5):
        zT = rng.standard_normal((tree8.n_nodes(tree8.M), grid32.N))
        f0 = AdaptedField.random(tree8, grid32.N, rng, n_levels=tree8.M)
        r = carleman_ratio_backward(grid32, tree8, full_coeffs, w, zT,
                                    mode="sources", f0=f0, stepper=st)
        assert np.isfinite(r.ratio) and r.ratio > 0.0
        assert r.rhs_terms["flux"] == 0.0


def test_backward_ratio_observability_config(grid32, tree8, full_coeffs):
    psi = build_psi(grid32)
    w = eval_weights(psi, lambda_threshold(1.0, psi, tree8.T), 1.0, tree8)
    rng = np.random.default_rng(5)
    ratios = []
    st = TreeStepper(grid32, tree8, full_coeffs)
    for _ in range(10):
        zT = rng.standard_normal((tree8.n_nodes(tree8.M), grid32.N))
        r = carleman_ratio_backward(grid32, tree8, full_coeffs, w, zT, stepper=st)
        ratios.append(r.ratio)
    assert np.isfinite(ratios).all() and max(ratios) < 10.0


def test_forward_ratio_stable_under_refinement(tree8):
    rng = np.random.default_rng(7)
    vals = []
    for N in (16, 32):
        grid = build_grid(1.0, N, (0.3, 0.8), (0.45, 0.65))
        coeffs = ProblemCoefficients(a=1.0)
        psi = build_psi(grid)
        w = eval_weights(psi, 30.0 * lambda_threshold_forward(tree8.T), 8.0, tree8)
        z0 = rng.standard_normal(grid.N)
        f1 = AdaptedField.random(tree8, grid.N, rng, n_levels=tree8.M)
        r = carleman_ratio_forward(grid, tree8, coeffs, w, z0, f1=f1)
        assert np.isfinite(r.ratio) and r.ratio > 0.0
        vals.append(r.ratio)
    assert abs(np.log(vals[1] / vals[0])) <= np.log(3.0)


def test_forward_ratio_adjoint_config_bounded(grid32, tree8, full_coeffs):
    psi = build_psi(grid32)
    w = eval_weights(psi, 10.0 * lambda_threshold_forward(tree8.T), 8.0, tree8)
    rng = np.random.default_rng(8)
    st = TreeStepper(grid32, tree8, full_coeffs)
    ratios = [carleman_ratio_forward(grid32, tree8, full_coeffs, w,
                                     rng.standard_normal(grid32.N),
                                     mode="adjoint_1_5", stepper=st).ratio
              for _ in range(10)]
    assert np.isfinite(ratios).all() and max(ratios) < 10.0


def _node_integral(grid, tree, w, field, power, levels, shift, mask=None):
    """Node-by-node I[th^2 phi^power field^2] with th^2 phi^p = exp(2l + p log phi - shift)."""
    total = 0.0
    for n in levels:
        for node in range(tree.n_nodes(n)):
            for i in range(grid.N):
                if mask is None or mask[i]:
                    wt = np.exp(2.0 * w.l[n - 1, i] + power * w.log_phi[n - 1, i] - shift)
                    total += tree.dt * 0.5 ** n * grid.h * wt * field[n][node, i] ** 2
    return total


def _node_gradient(grid, z):
    padded = np.pad(np.asarray(z, dtype=float), ((0, 0), (1, 1)))
    return (padded[:, 2:] - padded[:, :-2]) / (2.0 * grid.h)


def _reference_ratio(grid, tree, w, z, sources, mu):
    levels = range(2, tree.M - 1)  # exclude = 1
    shift = 2.0 * max(w.l[n - 1].max() for n in levels)
    lam = w.lam
    grad = {n: _node_gradient(grid, z[n]) for n in levels}
    lhs = {"state": lam ** 3 * mu ** 4 * _node_integral(grid, tree, w, z, 3.0, levels, shift),
           "gradient": lam * mu ** 2 * _node_integral(grid, tree, w, grad, 1.0, levels, shift)}
    rhs = {"observation": lam ** 3 * mu ** 4 * _node_integral(grid, tree, w, z, 3.0, levels, shift,
                                                               mask=grid.g0_mask)}
    for name, f, power, factor in sources:
        rhs[name] = factor * _node_integral(grid, tree, w, f, power, levels, shift)
    return lhs, rhs, shift


def _assert_terms_match(res, lhs, rhs, shift):
    assert res.log_shift == pytest.approx(shift, rel=1e-13)
    assert list(res.lhs_terms) == list(lhs) and list(res.rhs_terms) == list(rhs)
    for got, want in ((res.lhs_terms, lhs), (res.rhs_terms, rhs)):
        for name in want:
            assert want[name] > 0.0
            assert got[name] == pytest.approx(want[name], rel=1e-13), name
    assert res.ratio == pytest.approx(sum(lhs.values()) / sum(rhs.values()), rel=1e-13)


def test_ratio_terms_recomputed_node_by_node(full_coeffs):
    grid = build_grid(1.0, 8, (0.2, 0.8), (0.35, 0.65))
    tree = build_tree(5, 1.0)
    psi = build_psi(grid)
    st = TreeStepper(grid, tree, full_coeffs)
    tab = st.tab
    rng = np.random.default_rng(11)
    zT = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
    z0 = rng.standard_normal(grid.N)
    f0, f1, f2 = (AdaptedField.random(tree, grid.N, rng, n_levels=tree.M) for _ in range(3))

    mu = 2.0
    wb = eval_weights(psi, 2.0 * lambda_threshold(mu, psi, tree.T), mu, tree)
    l2m2 = wb.lam ** 2 * mu ** 2
    sol = st.backward(zT, mode="adjoint_1_3")
    F0 = [-tab.a1[n] * sol.z_half[n] - tab.a2[n] * sol.Z[n] for n in range(tree.M)]
    F = [tab.b1[n] * sol.z_half[n] + tab.b2[n] * sol.Z[n] for n in range(tree.M)]
    res = carleman_ratio_backward(grid, tree, full_coeffs, wb, zT, stepper=st)
    _assert_terms_match(res, *_reference_ratio(grid, tree, wb, sol.z, (
        ("f0", F0, 0.0, 1.0), ("flux", F, 2.0, l2m2), ("martingale", sol.Z, 2.0, l2m2)), mu))

    sol = st.backward(zT, mode="generic", f0=f0, f_div=f1)
    res = carleman_ratio_backward(grid, tree, full_coeffs, wb, zT, mode="sources",
                                  f0=f0, f_div=f1, stepper=st)
    _assert_terms_match(res, *_reference_ratio(grid, tree, wb, sol.z, (
        ("f0", f0, 0.0, 1.0), ("flux", f1, 2.0, l2m2), ("martingale", sol.Z, 2.0, l2m2)), mu))

    # forward: mu = 4 is frozen in the weight only; the reference prefactors
    # are lam^3, lam, lam^2 (a stray mu^k would be off by a factor >= 16)
    wf = eval_weights(psi, 10.0 * lambda_threshold_forward(tree.T), 4.0, tree)
    lam2 = wf.lam ** 2
    y = st.forward(z0, v=f2, drift_src=f1, drift_div=f0).y
    res = carleman_ratio_forward(grid, tree, full_coeffs, wf, z0, f1=f1, f2=f2, f_div=f0,
                                 stepper=st)
    _assert_terms_match(res, *_reference_ratio(grid, tree, wf, y, (
        ("f1", f1, 0.0, 1.0), ("f2", f2, 2.0, lam2), ("flux", f0, 2.0, lam2)), 1.0))

    y = st.forward(z0, mode="adjoint_1_5").y
    res = carleman_ratio_forward(grid, tree, full_coeffs, wf, z0, mode="adjoint_1_5", stepper=st)
    _assert_terms_match(res, *_reference_ratio(grid, tree, wf, y, (
        ("f1", [-tab.a1[n] * y[n] for n in range(tree.M)], 0.0, 1.0),
        ("f2", [-tab.a2[n] * y[n] for n in range(tree.M)], 2.0, lam2),
        ("flux", [tab.b[n] * y[n] for n in range(tree.M)], 2.0, lam2)), 1.0))


def test_appendix_variable_diffusion_matches_differences():
    # a = 1 + 0.3 sin(pi x) + 0.2 t: every a_x, a_xx, a_t term is switched on
    grid = build_grid(1.0, 32, (0.1, 0.9), (0.3, 0.7))
    psi = build_psi(grid)
    a = DiffusionCoefficient(value=lambda t, x: 1.0 + 0.3 * np.sin(np.pi * x) + 0.2 * t,
                             dx=lambda t, x: 0.3 * np.pi * np.cos(np.pi * x),
                             dxx=lambda t, x: -0.3 * np.pi ** 2 * np.sin(np.pi * x),
                             dt=0.2)
    # small lam and mu, so that the a_x, a_xx and a_t terms are not swamped
    lam, mu, t, T, d = 1.0, 2.0, 0.3, 1.0, 1e-4
    x = grid.x[~grid.g1_mask]

    def at(tt, xx):
        co = appendix_coeffs(psi, a, lam, mu, tt, T, xx)
        av = a.value(tt, xx)
        lx = lam * mu * np.exp(mu * psi.evaluate(xx)) / (tt * (T - tt)) * psi.evaluate(xx, 1)
        return co, av, lx

    co, av, lx = at(t, x)
    (cp, ap, lxp), (cm, am, lxm) = at(t, x + d), at(t, x - d)
    a_half_p, a_half_m = a.value(t, x + 0.5 * d), a.value(t, x - 0.5 * d)
    A_t = (at(t + d, x)[0].A - at(t - d, x)[0].A) / (2.0 * d)
    B = (2.0 * (co.A * co.Psi + (cp.A * ap * lxp - cm.A * am * lxm) / (2.0 * d)) - A_t
         + (a_half_p * (cp.Psi - co.Psi) - a_half_m * (co.Psi - cm.Psi)) / d ** 2)
    c11 = (2.0 * av * (ap * lxp - am * lxm) / (2.0 * d) - (ap ** 2 * lxp - am ** 2 * lxm) / (2.0 * d)
           + 0.5 * 0.2 - co.Psi * av)
    assert np.max(np.abs(co.B - B) / np.abs(co.B)) <= 1e-5
    assert np.max(np.abs(co.c11 - c11) / np.abs(co.c11)) <= 1e-5
