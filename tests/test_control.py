from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from spcontrol import (NumericsError, ProblemCoefficients, TreeStepper, build_grid, build_path,
                       build_tree, control, experiments)
from spcontrol.cli import parse_config
from spcontrol.control import (HumConfig, _BackwardDual, _bound_ratio, _cg, _cholesky, _ForwardDual,
                               _ForwardRiccati, _log_bound_ratio, dual_functional, hum_backward, hum_forward,
                               k_cost_exponent, m_cost_exponent)
from spcontrol.scenario import martingale_part, qt_integral, reconstruct_children


def test_k_exponent_paper_substitutions():
    assert k_cost_exponent(1.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert k_cost_exponent(1.0, 1.0, 0.0, 0.0, 0.0) == pytest.approx(4.0, rel=1e-15)
    assert k_cost_exponent(0.5, 0.0, 2.0, 0.0, 0.0) == pytest.approx(5.0 + 2.0 ** (2.0 / 3.0), rel=1e-15)


def test_m_exponent_paper_substitutions():
    assert m_cost_exponent(1.0, 0.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert m_cost_exponent(1.0, 0.0, 0.0, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert m_cost_exponent(2.0, 0.0, 1.0, 0.0) == pytest.approx(4.5, rel=1e-15)


@pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
def test_cost_exponents_refuse_a_horizon_build_path_refuses(T):
    with pytest.raises(ValueError) as path:
        build_path(4, T)
    for exponent in (lambda: k_cost_exponent(T, 0.0, 0.0, 0.0, 0.0), lambda: m_cost_exponent(T, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError) as exc:
            exponent()
        assert str(exc.value) == str(path.value) == f"T must be positive and finite, got {T}"


def test_hum_config_validation():
    with pytest.raises(ValueError):
        HumConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        HumConfig(epsilon=1e-3, cg_tol=2.0)


@pytest.fixture(scope="module")
def hum_setup():
    grid = build_grid(1.0, 16, (0.2, 0.85), (0.35, 0.7))
    tree = build_tree(6, 1.0)
    coeffs = ProblemCoefficients(a=0.2, a1=0.8, a2=0.4, b1=0.3, b2=0.3, b=0.4)
    return grid, tree, coeffs, TreeStepper(grid, tree, coeffs)


def test_dual_functional_zero_data(hum_setup):
    grid, tree, coeffs, st = hum_setup
    y0 = np.sin(np.pi * grid.x)
    zT = np.zeros((tree.n_nodes(tree.M), grid.N))
    out = dual_functional(grid, tree, coeffs, y0, 1e-2, zT, stepper=st)
    assert out["value"] == 0.0
    b = st.forward(y0).y[tree.M]
    assert np.allclose(out["gradient"], b, rtol=1e-14)


def test_dual_functional_positive_quadratic(hum_setup):
    grid, tree, coeffs, st = hum_setup
    rng = np.random.default_rng(0)
    eps = 1e-2
    leaf_w = tree.node_weight(tree.M) * grid.h
    for _ in range(5):
        zT = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
        out = dual_functional(grid, tree, coeffs, np.zeros(grid.N), eps, zT, stepper=st)
        assert out["value"] >= 0.5 * eps * leaf_w * np.sum(zT * zT)


@pytest.mark.parametrize("build", [build_tree, build_path])
def test_dual_functional_value_is_the_flat_buffer_formula(hum_setup, build):
    """The value, through `qt_integral` and `mean_square_norm`, is the weighted dot over the
    stacked [z_half | Z] blocks it replaced (weights dt 2^-n h [1_{G0}, 1], leaf weight 2^-M h)
    to 1e-14 relative; the gradient, the controlled terminal state plus eps zT, keeps its bits."""
    grid, tree, coeffs, st = hum_setup
    if build is build_path:
        tree = build_path(tree.M, tree.T)
        st = TreeStepper(grid, tree, coeffs)
    rng = np.random.default_rng(4)
    eps, y0 = 1e-2, rng.standard_normal(grid.N)
    zT = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
    out = dual_functional(grid, tree, coeffs, y0, eps, zT, stepper=st)
    bwd = st.backward(zT, mode="adjoint_1_3")
    rows = [tree.n_nodes(n) for n in range(tree.M)]
    row_weight = np.repeat(tree.dt * grid.h * np.array([tree.node_weight(n) for n in range(tree.M)]), rows)
    col_weight = np.concatenate([grid.g0_mask, np.ones(grid.N)])
    blocks = np.concatenate([np.hstack(pair) for pair in zip(bwd.z_half, bwd.Z)])
    old = (0.5 * float(row_weight @ (np.square(blocks) @ col_weight))
           + 0.5 * eps * tree.node_weight(tree.M) * grid.h * float((zT * zT).sum())
           + grid.inner(y0, bwd.z[0][0]))
    assert out["value"] == pytest.approx(old, rel=1e-14, abs=0.0)
    y = st.forward(y0, u=bwd.z_half, v=bwd.Z)
    assert np.array_equal(out["gradient"], y.y[tree.M] + eps * zT)


def test_dual_gradient_matches_central_differences(hum_setup):
    grid, tree, coeffs, st = hum_setup
    rng = np.random.default_rng(1)
    y0 = rng.standard_normal(grid.N)
    zT = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
    eps, step = 1e-2, 1e-5
    leaf_w = tree.node_weight(tree.M) * grid.h
    out = dual_functional(grid, tree, coeffs, y0, eps, zT, stepper=st)
    for _ in range(10):
        d = rng.standard_normal(zT.shape)
        vp = dual_functional(grid, tree, coeffs, y0, eps, zT + step * d, stepper=st)["value"]
        vm = dual_functional(grid, tree, coeffs, y0, eps, zT - step * d, stepper=st)["value"]
        fd = (vp - vm) / (2.0 * step)
        directional = leaf_w * float(np.sum(out["gradient"] * d))
        assert abs(fd - directional) <= 1e-6 * max(abs(directional), 1.0)


def test_hum_forward_zero_initial_state(hum_setup):
    grid, tree, coeffs, st = hum_setup
    res = hum_forward(grid, tree, coeffs, np.zeros(grid.N),
                      HumConfig(epsilon=1e-2), stepper=st)
    assert res.report.cg_iterations == 0
    assert res.report.terminal_norm == 0.0
    assert all(np.all(res.u[n] == 0.0) for n in range(tree.M))
    assert all(np.all(res.v[n] == 0.0) for n in range(tree.M))


def test_hum_forward_optimality_identity(hum_setup):
    grid, tree, coeffs, st = hum_setup
    res = hum_forward(grid, tree, coeffs, np.sin(np.pi * grid.x),
                      HumConfig(epsilon=1e-3, cg_tol=1e-11, cg_max_iter=4000), stepper=st)
    assert res.report.cg_converged
    assert res.report.identity_residual <= 1e-8
    # controlled terminal state equals -eps * adjoint data at the optimum
    assert np.allclose(res.y.y[tree.M], -res.report.epsilon * res.adjoint_data,
                       atol=1e-10 * np.abs(res.adjoint_data).max())
    assert res.report.bound_ratio > 0.0 and np.isfinite(res.report.bound_ratio)


def test_hum_forward_scaling_equivariance(hum_setup):
    grid, tree, coeffs, st = hum_setup
    cfg = HumConfig(epsilon=1e-2, cg_tol=1e-12, cg_max_iter=3000)
    y0 = np.sin(np.pi * grid.x)
    r1 = hum_forward(grid, tree, coeffs, y0, cfg, stepper=st)
    r2 = hum_forward(grid, tree, coeffs, 2.0 * y0, cfg, stepper=st)
    assert r2.report.control_cost == pytest.approx(4.0 * r1.report.control_cost, rel=1e-9)
    for n in range(tree.M):
        assert np.allclose(r2.u[n], 2.0 * r1.u[n], rtol=1e-8, atol=1e-14)


def test_hum_forward_eps_sweep_decreases(hum_setup):
    grid, tree, coeffs, st = hum_setup
    y0 = np.sin(np.pi * grid.x)
    norms = []
    for eps in (1e-1, 1e-2, 1e-3):
        res = hum_forward(grid, tree, coeffs, y0,
                          HumConfig(epsilon=eps, cg_tol=1e-10, cg_max_iter=3000), stepper=st)
        norms.append(res.report.terminal_norm)
    assert norms[0] > norms[1] > norms[2]


def test_cg_functional_trace_monotone(hum_setup):
    grid, tree, coeffs, st = hum_setup
    res = hum_forward(grid, tree, coeffs, np.sin(np.pi * grid.x),
                      HumConfig(epsilon=1e-3, cg_tol=1e-300, cg_max_iter=3000), stepper=st)
    vals = res.cg_trace["values"]
    assert len(vals) > 2
    assert all(a >= b - 1e-12 * abs(a) for a, b in zip(vals, vals[1:]))


def test_hum_forward_reports_nonconvergence(hum_setup):
    grid, tree, coeffs, st = hum_setup
    cfg = HumConfig(epsilon=1e-4, cg_tol=1e-300, cg_max_iter=3)
    res = hum_forward(grid, tree, coeffs, np.sin(np.pi * grid.x), cfg, stepper=st)
    assert not res.report.cg_converged
    assert res.report.cg_iterations == 3
    assert res.report.cg_residual > cfg.cg_tol


def test_cost_monotone_as_horizon_shrinks(hum_setup):
    grid, _, coeffs, _ = hum_setup
    y0 = np.sin(np.pi * grid.x)
    costs = []
    for T in (1.0, 0.5, 0.25):
        tree = build_tree(6, T)
        res = hum_forward(grid, tree, coeffs, y0,
                          HumConfig(epsilon=1e-3, cg_tol=1e-10, cg_max_iter=4000))
        costs.append(res.report.control_cost)
    assert costs[0] < costs[1] < costs[2]


def test_hum_backward_zero_terminal(hum_setup):
    grid, tree, coeffs, st = hum_setup
    yT = np.zeros((tree.n_nodes(tree.M), grid.N))
    res = hum_backward(grid, tree, coeffs, yT, HumConfig(epsilon=1e-2), stepper=st)
    assert res.report.cg_iterations == 0
    assert all(np.all(res.u[n] == 0.0) for n in range(tree.M))


def test_hum_backward_drives_initial_state_down(hum_setup):
    grid, tree, coeffs, st = hum_setup
    yT = np.tile(np.sin(np.pi * grid.x), (tree.n_nodes(tree.M), 1))
    norms = []
    for eps in (1e-1, 1e-2, 1e-3):
        res = hum_backward(grid, tree, coeffs, yT,
                           HumConfig(epsilon=eps, cg_tol=1e-11, cg_max_iter=2000), stepper=st)
        norms.append(res.report.terminal_norm)
        assert res.report.identity_residual <= 1e-8
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] <= 1e-2 * res.report.uncontrolled_norm


def test_hum_backward_deterministic_degeneration():
    grid = build_grid(1.0, 24, (0.2, 0.85), (0.35, 0.7))
    tree = build_tree(6, 1.0)
    coeffs = ProblemCoefficients(a=0.2, a1=0.8, a2=0.0, b=0.4)
    cfg = HumConfig(epsilon=1e-3, cg_tol=1e-12, cg_max_iter=1000)
    yT_vec = np.sin(np.pi * grid.x)
    res_tree = hum_backward(grid, tree, coeffs,
                            np.tile(yT_vec, (tree.n_nodes(tree.M), 1)), cfg)
    res_path = hum_backward(grid, build_path(tree.M, tree.T), coeffs, yT_vec[None, :], cfg)
    scale = np.abs(res_path.adjoint_data).max()
    assert np.abs(res_tree.adjoint_data - res_path.adjoint_data).max() <= 1e-12 * scale
    assert res_tree.report.terminal_norm == pytest.approx(res_path.report.terminal_norm,
                                                          rel=1e-12)


def _count_riccati(monkeypatch):
    """Count `_ForwardRiccati` applications; returns a reader of the counts so far and of
    the instances whose drives were built."""
    calls, made = [], []
    call, init = _ForwardRiccati.__call__, _ForwardRiccati.__init__
    monkeypatch.setattr(_ForwardRiccati, "__call__", lambda self, r: calls.append(r) or call(self, r))
    monkeypatch.setattr(_ForwardRiccati, "__init__", lambda self, *args: made.append(self) or init(self, *args))
    return lambda: {"calls": len(calls), "drives_built": sum("drives" in ric.__dict__ for ric in made)}


@pytest.mark.parametrize("z0", [None, np.array([1.0, 0.5, 1.0 / 3.0])], ids=["cold", "z0"])
def test_cg_reports_start_residual_without_budget(z0):
    # CG starts from x = 0, and a caller's first direction takes no step without a budget
    mat = np.diag([1.0, 2.0, 3.0])
    b = np.array([1.0, 1.0, 1.0])
    _, trace = _cg(lambda q: (mat @ q, None), b, np.dot, 1e-9, 0, z0=z0)
    assert trace["iterations"] == 0 and not trace["converged"]
    assert trace["residual"] == pytest.approx(1.0, rel=1e-15)


@pytest.fixture
def spd6():
    a = np.random.default_rng(0).standard_normal((6, 6))
    return a @ a.T + 6.0 * np.eye(6), np.random.default_rng(1).standard_normal(6)


def test_cg_does_not_converge_on_an_underflowed_residual(spd6):
    # below ~1e-154 <r, r> underflows to zero; the residual must still be measured
    mat, b = spd6
    _, trace = _cg(lambda q: (mat @ q, None), b, np.dot, 1e-300, 200)
    assert not trace["converged"]
    assert trace["residual"] > 1e-300
    assert all(r > 0.0 for r in trace["residuals"])


def test_cg_solves_data_whose_norm_underflows(spd6):
    mat, b = spd6
    b = b * 1e-170  # <b, b> underflows to zero
    x, trace = _cg(lambda q: (mat @ q, None), b, np.dot, 1e-12, 200)
    exact = np.linalg.solve(mat, b)
    assert trace["converged"] and trace["iterations"] > 0
    assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cg_rejects_a_non_finite_right_hand_side(value):
    # a NaN once read as |b| = 0 (x = 0, converged), an inf as a converged NaN solution
    mat = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(NumericsError, match="non-finite right-hand side"):
        _cg(lambda q: (mat @ q, None), np.array([value, 1.0, 1.0]), np.dot, 1e-9, 10)


def test_cg_rejects_a_non_finite_residual():
    with pytest.raises(NumericsError, match="non-finite residual"):
        _cg(lambda q: (np.full_like(q, np.nan), None), np.ones(3), np.dot, 1e-9, 10)


@pytest.mark.parametrize("power", [-40, 40])
@pytest.mark.parametrize("case", ["z0", "preconditioned"])
def test_cg_is_homogeneous_under_powers_of_two(spd6, case, power):
    """b -> 2^power b scales x and every by-product by 2^power and the functional by
    2^(2 power), bit for bit, and leaves the residual trace as it is."""
    mat, b = spd6
    by = np.random.default_rng(2).standard_normal((4, 6))

    def apply_op(q):
        return mat @ q, np.concatenate((by @ q, 3.0 * q, np.cumsum(q)))

    def solve(rhs):
        if case == "z0":  # the exact solution as first direction: one step converges
            return _cg(apply_op, rhs, np.dot, 1e-10, 50, z0=np.linalg.solve(mat, rhs))
        return _cg(apply_op, rhs, np.dot, 1e-14, 50, precond=lambda r: r / np.diag(mat))

    x, trace = solve(b)
    x_s, trace_s = solve(np.ldexp(b, power))
    assert trace["converged"] and trace_s["iterations"] == trace["iterations"]
    assert trace["iterations"] == 1 if case == "z0" else trace["iterations"] > 2
    assert np.array_equal(x_s, np.ldexp(x, power))
    assert trace_s["residuals"] == trace["residuals"] and trace_s["residual"] == trace["residual"]
    assert trace_s["values"] == [np.ldexp(v, 2 * power) for v in trace["values"]]
    assert np.array_equal(trace_s["products"], np.ldexp(trace["products"], power))


def test_bound_ratio_past_the_exponential_range():
    # the direct quotient while e^{bound_c K} * |data|^2 is a finite positive float
    assert _bound_ratio(2.0, 1.5, 4.0) == 2.0 / (np.exp(1.5) * 4.0)
    # past it from logs: e^710 overflows, e^-800 underflows
    assert _bound_ratio(1e300, 710.0, 2.0) == pytest.approx(np.exp(np.log(1e300) - 710.0) / 2.0,
                                                           rel=1e-12)
    assert _bound_ratio(1e-300, -800.0, 1e200) == pytest.approx(
        1e-300 * np.exp(400.0) * np.exp(400.0) / 1e200, rel=1e-12)
    assert _bound_ratio(0.0, 800.0, 1.0) == 0.0
    assert _bound_ratio(1.0, 800.0, 0.0) == 0.0
    # below the least subnormal (desk at T = 1e-3: about 1e-434) only the log reads
    assert _bound_ratio(0.25, 1000.0, 0.5) == 0.0
    assert _log_bound_ratio(0.25, 1000.0, 0.5) == pytest.approx(np.log(0.5) - 1000.0, rel=1e-15)
    assert _log_bound_ratio(2.0, 1.5, 4.0) == pytest.approx(np.log(_bound_ratio(2.0, 1.5, 4.0)), rel=1e-15)
    assert _log_bound_ratio(0.0, 800.0, 1.0) == _log_bound_ratio(1.0, 800.0, 0.0) == -np.inf


def test_hum_config_bound_c_needs_only_be_finite():
    # bound_c = 0 makes the cost bound the plain cost/data ratio
    for value in (0.0, -1.0):
        assert HumConfig(epsilon=1e-3, bound_c=value).bound_c == value
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="bound_c must be finite"):
            HumConfig(epsilon=1e-3, bound_c=value)


def test_hum_config_rejects_nonpositive_cg_budget():
    for budget in (0, -3):
        with pytest.raises(ValueError, match="cg_max_iter"):
            HumConfig(epsilon=1e-3, cg_max_iter=budget)


# -- preconditioned HUM against the unpreconditioned oracle -----------------

GRID8 = build_grid(1.0, 8, (0.2, 0.85), (0.4, 0.65))


@pytest.fixture(scope="module", params=[build_tree, build_path])
def lq_setup(request, full_coeffs):
    return TreeStepper(GRID8, request.param(5, 1.0), full_coeffs)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_riccati_preconditioner_inverts_penalized_gramian(lq_setup, eps):
    st = lq_setup
    dual = _ForwardDual(st)
    r = np.random.default_rng(5).standard_normal((st.tree.n_nodes(st.tree.M), GRID8.N))
    p = _ForwardRiccati(st, eps)(r)
    back = dual.gram(p)[0] + eps * p
    assert np.sqrt(dual.inner(back - r, back - r) / dual.inner(r, r)) <= 1e-10


def test_riccati_preconditioner_rejects_non_finite_data(lq_setup):
    # checked before any product: an infinite entry raises no numpy RuntimeWarning first
    ric = _ForwardRiccati(lq_setup, 1e-2)
    for value in (np.nan, np.inf):
        r = np.zeros((lq_setup.tree.n_nodes(lq_setup.tree.M), GRID8.N))
        r[-1, 3] = value
        with pytest.raises(NumericsError, match="non-finite values in the Riccati preconditioner's data"):
            ric(r)
        y0 = np.zeros(GRID8.N)
        y0[3] = value
        with pytest.raises(NumericsError, match="Riccati preconditioner's initial state"):
            ric.feedback_direction(y0)


def _reference_levels(st, eps):
    """The Riccati recursion with scipy's cho_factor/cho_solve and fresh step matrices:
    P_0 and, per level, (Q, G^T, B^T, the factors of I + dt Q_gg and I + Q, K_u, K_v).
    Q comes from the cached S^{-1}, and the closed loop's G0 rows and B + K_v from solves."""
    g, dt, eye = st.grid.g0_slice, st.dt, np.eye(st.grid.N)
    p, levels = eye / eps, [None] * st.tree.M
    for n in range(st.tree.M - 1, -1, -1):
        inv = st.inverse_steps[n + 1]
        q = inv @ p @ inv
        drift, bt = st.apply(n, "general", (eye,))
        gt = eye + dt * drift
        closed = gt.T.copy()
        cu = cho_factor(np.eye(g.stop - g.start) + dt * q[g, g])
        q_off = q[g].copy()
        q_off[:, g] = 0.0
        closed[g] = cho_solve(cu, closed[g] - dt * (q_off @ closed))
        ku = (closed[g] - gt.T[g]) / dt
        p = gt @ q @ closed
        cv = kv = None
        if st.tree.branching:
            cv = cho_factor(eye + q)
            bkv = cho_solve(cv, bt.T)
            kv = bkv - bt.T
            p += dt * (bt @ q @ bkv)
        p = 0.5 * (p + p.T)
        levels[n] = (q, gt, bt, cu, cv, ku, kv)
    return p, levels


def _reference_riccati(st, eps):
    """P_0 and the gains (K_u, K_v) per level of `_reference_levels`."""
    p, levels = _reference_levels(st, eps)
    return p, [level[-2:] for level in levels]


def _stencil_application(st, eps, r):
    """(Gram + eps I)^{-1} r as the stencil closed loop: fold the feedforward k back with
    S^{-1} and Cholesky solves, then march u = K_u y + k_u, v = K_v y + k_v through the
    general step (apply, implicit solve, split)."""
    tree, g, dt = st.tree, st.grid.g0_mask, st.dt
    _, levels = _reference_levels(st, eps)
    s, feed = -r / eps, [None] * tree.M
    for n in range(tree.M - 1, -1, -1):
        q, gt, bt, cu, cv, _, _ = levels[n]
        w = st._solve(n + 1, s)
        m, mu = martingale_part(tree, w) if tree.branching else (w, None)
        k_u = -cho_solve(cu, m[:, g].T).T
        s = (m + dt * k_u @ q[g]) @ gt.T
        k_v = None
        if mu is not None:
            k_v = -cho_solve(cv, mu.T).T
            s = s + dt * (mu + k_v @ q) @ bt.T
        feed[n] = (k_u, k_v)
    y = np.zeros((1, st.grid.N))
    for n in range(tree.M):
        (*_, ku, kv), (k_u, k_v) = levels[n], feed[n]
        drift, noise = st.apply(n, "general", (y,))
        drift[:, g] += y @ ku.T + k_u
        base = y + dt * drift
        if tree.branching:
            base = reconstruct_children(tree, base, noise + y @ kv.T + k_v)
        y = st._solve(n + 1, base)
    return (r - y) / eps


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("case", ["tree", "path", "desk"])
def test_riccati_application_matches_the_stencil_closed_loop(full_coeffs, criterion4, case, eps):
    # eps = 1e-8 agrees to about 1.4e-12 only, as rounding grows like 1/eps
    if case == "desk":
        st = criterion4[3]
    else:
        st = TreeStepper(GRID8, (build_tree if case == "tree" else build_path)(5, 1.0), full_coeffs)
    r = np.random.default_rng(11).standard_normal((st.tree.n_nodes(st.tree.M), st.grid.N))
    p, ref = _ForwardRiccati(st, eps)(r), _stencil_application(st, eps, r)
    assert np.max(np.abs(p - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("case", ["tree", "path", "desk"])
def test_feedback_direction_is_the_preconditioner_at_the_free_state(full_coeffs, criterion4, case, eps):
    if case == "desk":
        st = criterion4[3]
    else:
        st = TreeStepper(GRID8, (build_tree if case == "tree" else build_path)(5, 1.0), full_coeffs)
    y0 = np.sin(np.pi * st.grid.x) + 0.3 * np.cos(3 * np.pi * st.grid.x)
    b = st.forward(y0).y[st.tree.M]
    ric = _ForwardRiccati(st, eps)
    ref = ric(-b)
    direction = ric.feedback_direction(y0)
    assert direction.shape == ref.shape
    # the general map forms (-b - y_M) / eps, which cancels at the scale |b| / eps (on desk at
    # eps <= 1e-5 that exceeds 100 max|ref|); the feedback march cancels nothing
    scale = max(np.max(np.abs(ref)), 1e-2 * np.max(np.abs(b)) / eps)
    assert np.max(np.abs(direction - ref)) <= 1e-12 * scale
    dual = _ForwardDual(st)

    def residual(p):
        res = dual.gram(p)[0] + eps * p + b
        return np.sqrt(dual.inner(res, res) / dual.inner(b, b))

    # and it is no worse a solution: at small eps usually several times better
    assert residual(direction) <= 2.0 * max(residual(ref), 1e-13)


@pytest.mark.parametrize("wrong", ["scaled", "random", "reversed"])
def test_a_wrong_feedback_direction_costs_only_iterations(hum_setup, monkeypatch, wrong):
    """CG measures its first step through the Gramian, so a wrong first direction still
    reaches the solution; one that is no descent direction is not used."""
    grid, tree, coeffs, st = hum_setup
    y0 = np.sin(np.pi * grid.x) + 0.2 * np.cos(2 * np.pi * grid.x)
    cfg = HumConfig(epsilon=1e-3, cg_tol=1e-12, cg_max_iter=50)
    ref = hum_forward(grid, tree, coeffs, y0, cfg, stepper=st)
    direction = _ForwardRiccati.feedback_direction
    noise = np.random.default_rng(7).standard_normal(ref.adjoint_data.shape)
    spoil = {"scaled": lambda d: 1.1 * d, "random": lambda d: d + 0.5 * np.max(np.abs(d)) * noise,
             "reversed": lambda d: -d}[wrong]
    monkeypatch.setattr(_ForwardRiccati, "feedback_direction", lambda self, y: spoil(direction(self, y)))
    riccati_counts = _count_riccati(monkeypatch)
    res = hum_forward(grid, tree, coeffs, y0, cfg, stepper=st)
    assert res.report.cg_converged
    top = np.max(np.abs(ref.adjoint_data))
    assert np.max(np.abs(res.adjoint_data - ref.adjoint_data)) <= 1e-9 * top
    assert res.report.control_cost == pytest.approx(ref.report.control_cost, rel=1e-10)
    # scaled: the line search undoes the scale; random: it leaves a residual, and CG restarts
    # from the general map, exact to rounding; reversed: dropped, the general map starts
    iterations, calls = {"scaled": (1, 0), "random": (2, 1), "reversed": (1, 1)}[wrong]
    assert res.report.cg_iterations == iterations
    assert riccati_counts() == {"calls": calls, "drives_built": calls}


@pytest.mark.parametrize("eps", [1e-1, 1e-4])
def test_riccati_matches_scipy_cholesky_reference(lq_setup, eps):
    # LAPACK dpotrf/dpotrs called directly give the bits of cho_factor/cho_solve
    ric = _ForwardRiccati(lq_setup, eps)
    p0, gains = _reference_riccati(lq_setup, eps)
    assert np.array_equal(ric.p0, p0)
    for n, (ku_ref, kv_ref) in enumerate(gains):
        ku, kv = ric.gains(n)
        assert np.array_equal(ku, ku_ref)
        assert (kv is None and kv_ref is None) or np.array_equal(kv, kv_ref)


def test_cholesky_names_an_indefinite_matrix():
    with pytest.raises(NumericsError, match=r"I \+ Q of level 3 is not positive definite"):
        _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), "I + Q of level 3")


def test_epsilon_sweep_builds_step_matrices_once(monkeypatch):
    """general_steps and inverse_steps are built once per stepper, whatever the number of eps,
    and once per distinct step: with constant coefficients the identity goes through
    apply/_solve once in all, with an a1 that varies in t once per level."""
    tree = build_tree(5, 1.0)
    eye = np.eye(GRID8.N)
    identity_calls, solve_calls = [], []
    apply, solve = TreeStepper.apply, TreeStepper._solve

    def counted(self, n, mode, fields, *args, **kwargs):
        if np.array_equal(fields[0], eye):
            identity_calls.append(n)
        return apply(self, n, mode, fields, *args, **kwargs)

    def counted_solve(self, n, rhs):
        if np.array_equal(rhs, eye):
            solve_calls.append(n)
        return solve(self, n, rhs)

    for a1, built in ((0.5, [0]), (lambda t, x: 0.5 + t, list(range(tree.M)))):
        coeffs = ProblemCoefficients(a=0.5, a1=a1, a2=0.3, b1=0.2, b2=0.2)
        st = TreeStepper(GRID8, tree, coeffs)
        assert st.inverse_steps[0] is None
        for n in range(1, tree.M + 1):
            assert st.inverse_steps[n].tobytes() == st._solve(n, np.eye(GRID8.N)).tobytes()
        identity_calls.clear()
        solve_calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(TreeStepper, "apply", counted)
            patch.setattr(TreeStepper, "_solve", counted_solve)
            experiments.epsilon_sweep(coeffs, GRID8, tree, np.sin(np.pi * GRID8.x),
                                      [1e-1, 1e-2, 1e-3, 1e-4])
        assert sorted(identity_calls) == built
        assert sorted(solve_calls) == [n + 1 for n in built]


def test_hum_forward_with_given_free_state_is_bitwise_the_same(hum_setup):
    grid, tree, coeffs, st = hum_setup
    y0 = np.sin(np.pi * grid.x) + 0.2 * np.cos(2 * np.pi * grid.x)
    cfg = HumConfig(epsilon=1e-3, cg_tol=1e-10)
    ref = hum_forward(grid, tree, coeffs, y0, cfg, stepper=st)
    res = hum_forward(grid, tree, coeffs, y0, cfg, stepper=st, free=st.forward(y0))
    assert repr(res.report) == repr(ref.report)  # repr round-trips every float exactly
    assert res.adjoint_data.tobytes() == ref.adjoint_data.tobytes()
    for field, field_ref in ((res.u, ref.u), (res.v, ref.v), (res.y.y, ref.y.y)):
        assert [a.tobytes() for a in field.levels] == [a.tobytes() for a in field_ref.levels]


def test_epsilon_sweep_runs_the_free_sweep_once(monkeypatch):
    tree = build_tree(5, 1.0)
    coeffs = ProblemCoefficients(a=0.5, a1=0.5, a2=0.3, b1=0.2, b2=0.2)
    free_sweeps = []
    forward = TreeStepper.forward

    def counted(self, y0, *args, **kwargs):
        if not args and not kwargs:  # no control, source or feedback: the free state
            free_sweeps.append(y0)
        return forward(self, y0, *args, **kwargs)

    monkeypatch.setattr(TreeStepper, "forward", counted)
    rows = experiments.epsilon_sweep(coeffs, GRID8, tree, np.sin(np.pi * GRID8.x),
                                     [1e-1, 1e-2, 1e-3, 1e-4])
    assert len(rows) == 4 and len(free_sweeps) == 1


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
def test_riccati_value_is_optimal_cost(lq_setup, eps):
    """1/2 h y0^T P_0 y0 is the minimal penalized cost 1/2 (cost + terminal / eps)."""
    st = lq_setup
    y0 = np.sin(np.pi * GRID8.x) + 0.3 * np.cos(3 * np.pi * GRID8.x)
    res = hum_forward(GRID8, st.tree, None, y0, HumConfig(epsilon=eps, cg_tol=1e-12), stepper=st)
    assert res.report.cg_converged
    value = 0.5 * GRID8.h * y0 @ _ForwardRiccati(st, eps).p0 @ y0
    penalized = 0.5 * (res.report.control_cost + res.report.terminal_norm / eps)
    assert value == pytest.approx(penalized, rel=1e-12)


@pytest.fixture(scope="module")
def criterion4():
    grid = build_grid(1.0, 32, (0.1, 0.95), (0.3, 0.7))
    tree = build_tree(8, 1.0)
    coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.5, b1=0.5, b2=0.5, b=0.5)
    return grid, tree, coeffs, TreeStepper(grid, tree, coeffs)


def _plain_cg(monkeypatch):
    """Run the HUM solves with unpreconditioned CG: no preconditioner and no preconditioned start."""
    plain_cg = control._cg
    monkeypatch.setattr(control, "_cg", lambda *args, precond=None, z0=None, **kw: plain_cg(*args, **kw))


@pytest.mark.parametrize("which,eps", [("forward", 1e-2), ("forward", 1e-4),
                                       ("backward", 1e-2), ("backward", 1e-4)])
def test_preconditioned_hum_matches_plain_cg(criterion4, monkeypatch, which, eps):
    grid, tree, coeffs, st = criterion4
    y0 = np.sin(np.pi * grid.x / grid.L)
    cfg = HumConfig(epsilon=eps, cg_tol=1e-12, cg_max_iter=8000)
    if which == "forward":
        def solve():
            return hum_forward(grid, tree, coeffs, y0, cfg, stepper=st).report
    else:
        def solve():
            return hum_backward(grid, tree, coeffs, np.tile(y0, (tree.n_nodes(tree.M), 1)), cfg,
                                stepper=st).report
    pcg = solve()
    _plain_cg(monkeypatch)
    plain = solve()
    assert pcg.cg_converged and plain.cg_converged
    assert pcg.cg_iterations <= 2 < plain.cg_iterations
    assert pcg.control_cost == pytest.approx(plain.control_cost, rel=1e-8)
    assert pcg.terminal_norm == pytest.approx(plain.terminal_norm, rel=1e-8)


def test_hum_forward_runs_at_eps_1e_8(criterion4):
    grid, tree, coeffs, st = criterion4
    y0 = np.sin(np.pi * grid.x / grid.L)
    rows = [hum_forward(grid, tree, coeffs, y0, HumConfig(epsilon=eps, cg_tol=1e-10),
                        stepper=st).report for eps in (1e-4, 1e-8)]
    assert rows[1].cg_converged and rows[1].cg_iterations <= 3
    assert rows[1].terminal_norm < rows[0].terminal_norm
    assert rows[1].identity_residual <= 1e-8


@pytest.fixture(scope="module")
def desk():
    desk_ini = Path(__file__).resolve().parents[1] / "demos" / "desk.ini"
    grid, tree, coeffs = parse_config(desk_ini).build_problem()
    return grid, tree, coeffs, TreeStepper(grid, tree, coeffs)


def test_hum_forward_converges_at_small_eps_on_desk(desk):
    """Desk, y0 = sin(pi x), cg_tol = 1e-9: every solve from eps = 1e-8 to 1e-14 converges.
    Down to 1e-13 it takes no more iterations than a closed loop formed by cancelling
    G_g + dt K_u and B + K_v took (1, 1, 2, 2, 2, 6; measured 1, 1, 1, 2, 2, 4), and at
    1e-14 at most 20, where that loop took 551 (measured 11)."""
    grid, tree, coeffs, st = desk
    y0 = np.sin(np.pi * grid.x / grid.L)
    free = st.forward(y0)
    budget = {1e-8: 1, 1e-9: 1, 1e-10: 2, 1e-11: 2, 1e-12: 2, 1e-13: 6, 1e-14: 20}
    for eps, most in budget.items():
        report = hum_forward(grid, tree, coeffs, y0, HumConfig(epsilon=eps, cg_tol=1e-9),
                             stepper=st, free=free).report
        assert report.cg_converged, eps
        assert report.cg_iterations <= most, eps


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_backward_identity_residual_sees_a_wrong_dense_gramian(desk, monkeypatch, eps):
    """Negative control: CG runs on the dense Gramian and the report's z and state come from
    the stencil, so the HUM identity pairs the two.  A symmetric perturbation of 1e-10 max|obs|
    in the dense matrix lifts the desk residual above 1e-12 (measured 2.3e-11 at eps = 1e-2,
    7.7e-9 at 1e-6; unperturbed 2.5e-16 and 6.3e-16)."""
    grid, tree, coeffs, st = desk
    yT = np.tile(np.sin(np.pi * grid.x / grid.L), (tree.n_nodes(tree.M), 1))
    cfg = HumConfig(epsilon=eps, cg_tol=1e-9, cg_max_iter=4000)
    assert hum_backward(grid, tree, coeffs, yT, cfg, stepper=st).report.identity_residual <= 1e-14
    pencil = control._forward_pencil

    def perturbed(stepper):
        energy, obs = pencil(stepper)
        bump = np.random.default_rng(0).standard_normal(obs.shape)
        bump += bump.T
        return energy, obs + (1e-10 * np.max(np.abs(obs)) / np.max(np.abs(bump))) * bump

    monkeypatch.setattr(control, "_forward_pencil", perturbed)
    assert hum_backward(grid, tree, coeffs, yT, cfg, stepper=st).report.identity_residual > 1e-12


def _mp_loop(st, eps, digits=60):
    """Per level (Phi_n^T, Psi_n^T) of the Riccati recursion in `digits`-digit arithmetic, as
    written in `_ForwardRiccati`'s docstring (K_u, K_v, then G + dt 1_{G0} K_u and B + K_v), on
    the stepper's G, B and the exact inverse of its S (the entries its dpttrf factors)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        def exact(a):
            return np.array([[mpmath.mpf(float(x)) for x in row] for row in a], dtype=object)

        def inverse(a):
            return np.array(mpmath.inverse(mpmath.matrix(a.tolist())).tolist(), dtype=object)

        g, h2, dt = st.grid.g0_mask, st.grid.h * st.grid.h, mpmath.mpf(st.dt)
        eye = exact(np.eye(st.grid.N))
        p, loop = eye / mpmath.mpf(eps), [None] * st.tree.M
        for n in range(st.tree.M - 1, -1, -1):
            af, off = st.tab.a_faces[n + 1], -st.dt * st.tab.a_faces[n + 1][1:-1] / h2
            inv = inverse(exact(np.diag(1.0 + st.dt * (af[:-1] + af[1:]) / h2)
                                + np.diag(off, 1) + np.diag(off, -1)))
            gt, bt = (exact(a) for a in st.general_steps[n])
            q = inv @ p @ inv
            ku = -inverse(eye[np.ix_(g, g)] + dt * q[np.ix_(g, g)]) @ (q @ gt.T)[g]
            kv = -inverse(eye + q) @ q @ bt.T
            closed = gt.T.copy()
            closed[g] += dt * ku
            loop[n] = (closed.T @ inv, (bt + kv.T) @ inv)
            p = gt @ q @ closed + dt * (bt @ q @ (bt.T + kv))
        return [tuple(a.astype(float) for a in level) for level in loop]


@pytest.mark.parametrize("eps,phi_bound,psi_bound", [(1e-2, 1e-14, 1e-14), (1e-6, 1e-13, 2e-13),
                                                     (1e-10, 1e-9, 5e-9)])
def test_riccati_loop_matches_a_60_digit_recursion(eps, phi_bound, psi_bound):
    """Phi_n^T and Psi_n^T within a relative max error of a 60-digit run (N = 10, M = 4, desk
    coefficients).  Measured: 6.7e-16 / 1.9e-15, 1.3e-14 / 4.5e-14 and 1.6e-10 / 5.1e-10 at
    eps = 1e-2, 1e-6, 1e-10; forming G_g + dt K_u and B + K_v as differences gave 5.4e-13 /
    2.2e-11 at 1e-6 and 5.1e-9 / 1.8e-7 at 1e-10."""
    grid = build_grid(1.0, 10, (0.1, 0.9), (0.3, 0.7))
    coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.5, b1=lambda t, x: 0.5 * np.sin(np.pi * x), b2=0.5)
    st = TreeStepper(grid, build_tree(4, 1.0), coeffs)
    ref = _mp_loop(st, eps)
    ric = _ForwardRiccati(st, eps)
    ric.reach(0)
    loop = ric.loop
    for k, bound in ((0, phi_bound), (1, psi_bound)):
        error = max(np.max(np.abs(a[k] - b[k])) / np.max(np.abs(b[k])) for a, b in zip(loop, ref))
        assert error <= bound, (k, error)


# -- control cost and terminal norm from the closed loop's moment forms --------


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
@pytest.mark.parametrize("build", [None, build_path], ids=["criterion4", "path"])
def test_feedback_costs_match_hum_forward(criterion4, build, eps):
    grid, tree, coeffs, st = criterion4
    if build is not None:
        st = TreeStepper(grid, build(16, 1.0), coeffs)
    y0 = np.sin(np.pi * grid.x / grid.L)
    ric = _ForwardRiccati(st, eps)
    cost, terminal = ric.feedback_costs(y0)
    report = hum_forward(grid, st.tree, coeffs, y0,
                         HumConfig(epsilon=eps, cg_tol=1e-12, cg_max_iter=8000), stepper=st).report
    assert report.cg_converged
    assert cost == pytest.approx(report.control_cost, rel=1e-10)
    assert terminal == pytest.approx(report.terminal_norm, rel=1e-10)
    # the HUM identity: the penalized optimum is the value h y0^T P_0 y0
    assert cost + terminal / eps == pytest.approx(grid.inner(y0, ric.p0 @ y0), rel=1e-12)


def test_feedback_costs_of_a_zero_noise_tree_are_the_paths():
    # M = 20 is past the depth cap: the moment forms allocate nothing per tree node
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.4, 0.6))
    coeffs = ProblemCoefficients(a=0.2, a1=1.0, b1=lambda t, x: 0.3 * np.sin(np.pi * x))
    tree_costs, path_costs = (_ForwardRiccati(TreeStepper(grid, build(20, 1.0), coeffs), grid.h ** 2)
                              .feedback_costs(np.sin(np.pi * grid.x)) for build in (build_tree, build_path))
    assert tree_costs == path_costs


# -- controls, state and report from CG's own sweeps ------------------------


def _assert_close_levels(levels, ref, rtol=1e-12):
    """Every level within rtol of the reference field's max magnitude (exact where it is 0)."""
    top = max(float(np.max(np.abs(a))) for a in ref)
    assert len(levels) == len(ref)
    for a, b in zip(levels, ref):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rtol * top


@pytest.fixture(scope="module", params=[build_tree, build_path])
def carried_setup(request):
    grid = build_grid(1.0, 16, (0.2, 0.85), (0.35, 0.7))
    coeffs = ProblemCoefficients(a=0.2, a1=0.8, a2=0.4, b1=0.3, b2=0.3, b=0.4)
    return TreeStepper(grid, request.param(6, 1.0), coeffs)


@pytest.mark.parametrize("case", ["cold", "zero", "eps1e-8"])
@pytest.mark.parametrize("plain", [False, True], ids=["pcg", "plain"])
def test_hum_forward_outputs_match_fresh_sweeps_of_p(carried_setup, monkeypatch, plain, case):
    st = carried_setup
    grid, tree = st.grid, st.tree
    y0 = np.zeros(grid.N) if case == "zero" else np.sin(np.pi * grid.x) + 0.2 * np.cos(2 * np.pi * grid.x)
    if plain:
        _plain_cg(monkeypatch)
    cfg = HumConfig(epsilon=1e-8 if case == "eps1e-8" else 1e-3, cg_tol=1e-10, cg_max_iter=200)
    res = hum_forward(grid, tree, None, y0, cfg, stepper=st)
    bwd = st.backward(res.adjoint_data, mode="adjoint_1_3")
    y = st.forward(y0, u=bwd.z_half, v=bwd.Z)
    _assert_close_levels(res.u.levels, [grid.g0_mask * zh for zh in bwd.z_half.levels])
    _assert_close_levels(res.v.levels, bwd.Z.levels)
    _assert_close_levels(res.y.y.levels, y.y.levels)
    cost = (qt_integral(tree, grid, bwd.z_half, square=True, mask=grid.g0_mask)
            + qt_integral(tree, grid, bwd.Z, square=True))
    assert res.report.control_cost == pytest.approx(cost, rel=1e-12, abs=0.0)
    if case == "zero":
        assert all(not a.any() for a in res.u.levels + res.v.levels + res.y.y.levels)


@pytest.mark.parametrize("case", ["cold", "zero", "eps1e-8"])
@pytest.mark.parametrize("plain", [False, True], ids=["pcg", "plain"])
def test_hum_backward_outputs_match_fresh_sweeps_of_p(carried_setup, monkeypatch, plain, case):
    """The report and state, from the stencil pair at p, against the dense Gramian obs of the
    moment recursions (`_forward_pencil`): the cost is <p, obs p> and the controlled initial
    state b - obs p, b the free one, each within 1e-12 of its scale (measured at most 3.5e-14
    and 1.0e-14); a symmetric error of 1e-10 max|obs| in obs lifts both past 1e-9."""
    st = carried_setup
    grid, tree = st.grid, st.tree
    shape = (tree.n_nodes(tree.M), grid.N)
    yT = np.zeros(shape) if case == "zero" else (
        np.sin(np.pi * grid.x) + 0.1 * np.random.default_rng(2).standard_normal(shape))
    if plain:
        _plain_cg(monkeypatch)
    cfg = HumConfig(epsilon=1e-8 if case == "eps1e-8" else 1e-3, cg_tol=1e-10, cg_max_iter=200)
    res = hum_backward(grid, tree, None, yT, cfg, stepper=st)
    p, obs = res.adjoint_data, control._forward_pencil(st)[1]
    b = st.backward(yT, mode="controlled_1_2").z[0][0]
    assert res.report.control_cost == pytest.approx(grid.inner(p, obs @ p), rel=1e-12, abs=0.0)
    assert np.max(np.abs(res.y.z[0][0] - (b - obs @ p))) <= 1e-12 * np.max(np.abs(b))
    if case == "zero":
        assert all(not a.any() for a in res.u.levels + res.y.z.levels)


def test_one_cg_iteration_runs_one_gramian_application(hum_setup, monkeypatch):
    """At one CG iteration no sweep runs on p after a forward solve's CG, and a backward
    solve's CG sweeps no stencil at any iteration count."""
    grid, tree, coeffs, st = hum_setup
    y0 = np.sin(np.pi * grid.x)
    free = st.forward(y0)
    sweeps = {"forward": 0, "backward": 0}
    for name in sweeps:
        def counted(self, *args, _sweep=getattr(TreeStepper, name), _name=name, **kwargs):
            sweeps[_name] += 1
            return _sweep(self, *args, **kwargs)
        monkeypatch.setattr(TreeStepper, name, counted)
    grams = {_ForwardDual: [], _BackwardDual: []}
    for cls, calls in grams.items():
        def counted_gram(self, p, _gram=cls.gram, _calls=calls):
            _calls.append(p)
            return _gram(self, p)
        monkeypatch.setattr(cls, "gram", counted_gram)
    riccati_counts = _count_riccati(monkeypatch)
    cfg = HumConfig(epsilon=1e-2, cg_tol=1e-10)
    # forward: one Gramian application on the N x N step maps, along the Riccati feedback
    # direction; no general preconditioner application and no drives, and nothing sweeps
    res = hum_forward(grid, tree, coeffs, y0, cfg, stepper=st, free=free)
    assert res.report.cg_iterations == 1 and len(grams[_ForwardDual]) == 1
    assert riccati_counts() == {"calls": 0, "drives_built": 0}
    assert sweeps == {"forward": 0, "backward": 0}
    # backward: the free solution, then one stencil pair at p after CG; the Gramian is dense
    yT = np.tile(y0, (tree.n_nodes(tree.M), 1))
    sweeps.update(forward=0, backward=0)
    res = hum_backward(grid, tree, coeffs, yT, cfg, stepper=st)
    assert res.report.cg_iterations == 1 and len(grams[_BackwardDual]) == 1
    assert sweeps == {"forward": 1, "backward": 2}
    # plain CG: many iterations, one dense Gramian application each, and the same sweeps
    _plain_cg(monkeypatch)
    sweeps.update(forward=0, backward=0)
    grams[_BackwardDual].clear()
    res = hum_backward(grid, tree, coeffs, yT, HumConfig(epsilon=1e-4, cg_tol=1e-10), stepper=st)
    assert res.report.cg_converged and res.report.cg_iterations >= 10
    assert len(grams[_BackwardDual]) == res.report.cg_iterations
    assert sweeps == {"forward": 1, "backward": 2}


def test_one_iteration_forward_solve_builds_neither_p0_nor_drives(lq_setup, full_coeffs, monkeypatch):
    """P_0 and the drives are built on first use, and no one-iteration solve uses them;
    P_0 read afterwards is the reference recursion's, bit for bit."""
    st, eps = lq_setup, 1e-2
    made, p0_builds = [], []
    init, value = _ForwardRiccati.__init__, _ForwardRiccati.value
    monkeypatch.setattr(_ForwardRiccati, "__init__", lambda self, *args: made.append(self) or init(self, *args))
    monkeypatch.setattr(_ForwardRiccati, "value",
                        lambda self, n: (n == 0 and p0_builds.append(n)) or value(self, n))
    res = hum_forward(st.grid, st.tree, full_coeffs, np.sin(np.pi * st.grid.x),
                      HumConfig(epsilon=eps, cg_tol=1e-10), stepper=st)
    assert res.report.cg_iterations == 1 and len(made) == 1
    assert p0_builds == [] and "drives" not in made[0].__dict__
    p0_ref, _ = _reference_riccati(st, eps)
    assert np.array_equal(made[0].p0, p0_ref) and made[0].p0 is made[0].p0
    assert p0_builds == [0]


def test_observation_sums_in_the_order_of_the_masked_fields():
    """The observation quadrature, one weighted dot over the [z_half | Z] blocks that lead a Gramian
    application's buffer, is the per-level sum over the masked fields z_half[:, g0_mask] and Z to
    1e-14 relative."""
    grid = build_grid(1.0, 24, (0.1, 0.95), (0.3, 0.7))
    rng = np.random.default_rng(3)
    for tree in (build_tree(6, 1.0), build_path(6, 1.0)):
        dual = _ForwardDual(TreeStepper(grid, tree, ProblemCoefficients(a=0.2)))
        weights = [tree.dt * tree.node_weight(n) * grid.h for n in range(tree.M)]
        for _ in range(20):
            z_half = [rng.standard_normal((tree.n_nodes(n), grid.N)) for n in range(tree.M)]
            Z = [rng.standard_normal((tree.n_nodes(n), grid.N)) for n in range(tree.M)]
            masked = sum(w * (float(np.sum(zh[:, grid.g0_mask] ** 2)) + float(np.sum(z ** 2)))
                         for w, zh, z in zip(weights, z_half, Z))
            blocks = np.concatenate([np.hstack(pair) for pair in zip(z_half, Z)]).ravel()
            assert dual.observation(blocks) == pytest.approx(masked, rel=1e-14, abs=0.0)


# -- the forward Gramian on the stepper's N x N step maps ----------------------


def _stencil_gram(st, p):
    """The forward Gramian as the stencil pair: the adjoint_1_3 fold of p, then the
    forward sweep from 0 under u = z_half, v = Z; returns what `_ForwardDual.gram` does."""
    bwd = st.backward(p, mode="adjoint_1_3")
    y = st.forward(np.zeros(st.grid.N), u=bwd.z_half, v=bwd.Z)
    return y.y[st.tree.M], (bwd.z_half.levels, bwd.Z.levels, bwd.z.levels[:1], y.y.levels)


@pytest.mark.parametrize("case", ["tree", "path", "desk"])
def test_gram_maps_match_the_stencil_pair(full_coeffs, criterion4, case):
    if case == "desk":
        st = criterion4[3]
    else:
        st = TreeStepper(GRID8, (build_tree if case == "tree" else build_path)(5, 1.0), full_coeffs)
    p = np.random.default_rng(13).standard_normal((st.tree.n_nodes(st.tree.M), st.grid.N))
    dual = _ForwardDual(st)
    gp, products = dual.gram(p)
    gp_ref, ref = _stencil_gram(st, p)
    _assert_close_levels([gp], [gp_ref], rtol=1e-13)
    unpacked = dual.unpack(products)
    assert len(unpacked) == len(ref) == 4
    for levels, ref_levels in zip(unpacked, ref):  # z_half, Z, [z(0)], y
        _assert_close_levels(levels, ref_levels, rtol=1e-13)


def _block_pair_maps(st, n):
    """Level n's sibling-pair maps (down, fold, up_y, up_zz) as block formulas over
    (G^T, B^T) = general_steps[n], S^{-1} = inverse_steps[n + 1] and s = sqrt(dt):

      down = [[S^{-1}/2, S^{-1}/(2s)], [S^{-1}/2, -S^{-1}/(2s)]],   fold = [[G], [dt B]],
      up_y = [(G^T + s B^T) S^{-1} | (G^T - s B^T) S^{-1}],
      up_zz = [[dt 1_{G0} S^{-1}, dt 1_{G0} S^{-1}], [s S^{-1}, -s S^{-1}]];

    on a path down = [S^{-1} | 0], up_y = G^T S^{-1}, up_zz = [[dt 1_{G0} S^{-1}], [0]]."""
    dt, s, g0 = st.dt, st.tree.sqrt_dt, st.grid.g0_mask[:, None]
    (gt, bt), inv = st.general_steps[n], st.inverse_steps[n + 1]
    fold, observed, zero = np.vstack((gt.T, dt * bt.T)), dt * g0 * inv, np.zeros_like(inv)
    if not st.tree.branching:
        return np.hstack((inv, zero)), fold, gt @ inv, np.vstack((observed, zero))
    half, mart = 0.5 * inv, inv / (2.0 * s)
    return (np.vstack((np.hstack((half, mart)), np.hstack((half, -mart)))), fold,
            np.hstack(((gt + s * bt) @ inv, (gt - s * bt) @ inv)),
            np.vstack((np.hstack((observed, observed)), np.hstack((s * inv, -s * inv)))))


@pytest.mark.parametrize("build", [build_tree, build_path])
def test_pair_maps_are_the_block_formulas(desk, build):
    """The pair maps, the level steps run on the identity's rows, are the block formulas
    to rounding: within 1e-15 of each map's max entry on desk (measured <= 6.1e-16)."""
    grid, tree, coeffs, _ = desk
    st = TreeStepper(grid, build(tree.M, tree.T), coeffs)
    for n in range(st.tree.M):
        for got, want in zip(st.pair_steps[n], _block_pair_maps(st, n), strict=True):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("where,level", [("data", "leaf data at level 5"),
                                         ("infinite data", "leaf data at level 5"),
                                         ("initial adjoint", "adjoint at level 0"),
                                         ("mid-level adjoint", "adjoint at level 2"),
                                         ("state", "state at level 1"),
                                         ("mid-level state", "state at level 3")])
def test_gram_rejects_non_finite_levels(full_coeffs, where, level):
    """Leaf data is checked before any product, so inf raises no RuntimeWarning first; a level
    that goes non-finite inside the application is found in one pass at its end, named by the
    first bad level in the order the levels were made, and, as the suite turns RuntimeWarning
    into an error, reported by the NumericsError alone."""
    st = TreeStepper(GRID8, build_tree(5, 1.0), full_coeffs)
    p = np.ones((st.tree.n_nodes(st.tree.M), GRID8.N))
    if where.endswith("data"):
        p[-1, 3] = np.inf if where == "infinite data" else np.nan
    else:  # one bad entry in a pair map: a NaN in level 2's fold into [z_half | Z], an inf in
        # level 0's fold into z(0) (the fold's last product, which the march never reads), or an
        # inf in the march into level n + 1, whose sums then meet inf - inf, which numpy warns of
        n, k, bad = {"mid-level adjoint": (2, 0, np.nan), "initial adjoint": (0, 1, np.inf),
                     "state": (0, 3, np.inf), "mid-level state": (2, 2, np.inf)}[where]
        maps = list(st.pair_steps[n])
        maps[k] = maps[k].copy()
        maps[k][1, 2] = bad
        st.pair_steps = st.pair_steps[:n] + [tuple(maps)] + st.pair_steps[n + 1:]
    with pytest.raises(NumericsError, match=f"non-finite values in the forward Gramian's {level}$"):
        _ForwardDual(st).gram(p)


def test_free_stencil_solution_cross_checks_the_step_maps(hum_setup):
    """The free solution is a stencil sweep and the Gramian runs on the step maps, so the HUM
    identity pairs the two: a 1e-6 error in the maps' G_n = I + dt A_n shows in its residual.
    The error E enters the fold (G + E) and the march (G^T + E^T) alike, so the Gramian
    stays the symmetric one of a perturbed step and CG still converges."""
    grid, tree, coeffs, _ = hum_setup
    y0 = np.sin(np.pi * grid.x)
    cfg = HumConfig(epsilon=1e-3, cg_tol=1e-12)
    st = TreeStepper(grid, tree, coeffs)
    assert hum_forward(grid, tree, coeffs, y0, cfg, stepper=st).report.identity_residual <= 1e-11
    rng = np.random.default_rng(3)
    perturbed = TreeStepper(grid, tree, coeffs)
    maps = []
    for n, (down, fold, up_y, up_zz) in enumerate(st.pair_steps):
        bump = 1e-6 * rng.standard_normal((grid.N, grid.N))  # E^T, on the row map G^T
        fold = fold + np.vstack((bump.T, np.zeros_like(bump)))
        maps.append((down, fold, up_y + np.hstack((bump @ st.inverse_steps[n + 1],) * 2), up_zz))
    perturbed.pair_steps = maps
    report = hum_forward(grid, tree, coeffs, y0, cfg, stepper=perturbed).report
    assert report.cg_converged
    assert report.identity_residual > 1e-8
