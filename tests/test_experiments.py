import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spcontrol import ProblemCoefficients, TreeStepper, build_grid, build_path, build_tree
from spcontrol import control, experiments
from spcontrol.cli import parse_config
from spcontrol.control import (HumConfig, _ForwardDual, _ForwardRiccati, hum_forward,
                               k_cost_exponent, m_cost_exponent)
from spcontrol.errors import NumericsError
from spcontrol.experiments import (SweepError, _forward_pencil, _pencil_power_iteration,
                                   cost_scaling_sweep, epsilon_sweep, observability_constant)


@pytest.fixture(scope="module")
def obs_setup():
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    tree = build_tree(5, 1.0)
    coeffs = ProblemCoefficients(a=0.2)
    return grid, tree, coeffs


def test_rayleigh_trace_monotone_and_plateau(obs_setup):
    grid, tree, coeffs = obs_setup
    est = observability_constant(grid, tree, coeffs, direction="forward_1_5",
                                 iters=30, seed=0)
    assert est.c_obs > 0.0
    ray = est.rayleigh
    assert all(b >= a for a, b in zip(ray, ray[1:]))
    est2 = observability_constant(grid, tree, coeffs, direction="forward_1_5",
                                  iters=60, seed=0)
    assert abs(est2.c_obs - est.c_obs) <= 0.01 * est.c_obs


def test_c_obs_dominates_random_quotients(obs_setup):
    grid, tree, coeffs = obs_setup
    st = TreeStepper(grid, tree, coeffs)
    est = observability_constant(grid, tree, coeffs, direction="forward_1_5",
                                 iters=40, seed=0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        z0 = rng.standard_normal(grid.N)
        z = st.forward(z0, mode="adjoint_1_5")
        num = tree.node_weight(tree.M) * grid.h * float(np.sum(z.y[tree.M] ** 2))
        den = sum(tree.dt * tree.node_weight(n) * grid.h
                  * float(np.sum(z.y[n][:, grid.g0_mask] ** 2)) for n in range(tree.M))
        assert num / den <= est.c_obs * (1.0 + 1e-9)


def test_full_observation_energy_bound(obs_setup):
    """With observation everywhere and pure decay, c_obs <= 1/T: the terminal
    energy never exceeds any earlier level's energy (monotonicity oracle)."""
    grid, tree, coeffs = obs_setup
    st = TreeStepper(grid, tree, coeffs)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = st.forward(rng.standard_normal(grid.N), mode="adjoint_1_5")
        energies = [float(np.sum(z.y[n][0] ** 2)) for n in range(tree.M + 1)]
        assert all(a >= b for a, b in zip(energies, energies[1:]))
    grid_all = dataclasses.replace(grid, g0_mask=np.ones(grid.N, dtype=bool))
    est = observability_constant(grid_all, tree, coeffs, direction="forward_1_5",
                                 iters=30, seed=0)
    assert est.c_obs <= (1.0 / tree.T) * (1.0 + 1e-9)


def test_backward_direction_estimate(obs_setup):
    grid, tree, coeffs = obs_setup
    st = TreeStepper(grid, tree, coeffs)
    est = observability_constant(grid, tree, coeffs, direction="backward_1_3",
                                 iters=10, seed=0)
    assert est.c_obs > 0.0
    assert est.epsilon == grid.h ** 2
    assert all(b >= a for a, b in zip(est.rayleigh, est.rayleigh[1:]))
    # quotient dominates random samples, unpenalized and in the penalized form it is the sup of
    rng = np.random.default_rng(9)
    leaf_weight = tree.node_weight(tree.M) * grid.h
    for _ in range(20):
        p = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
        bwd = st.backward(p, mode="adjoint_1_3")
        num = grid.h * float(np.dot(bwd.z[0][0], bwd.z[0][0]))
        den = sum(tree.dt * tree.node_weight(n) * grid.h
                  * (float(np.sum(bwd.z_half[n][:, grid.g0_mask] ** 2))
                     + float(np.sum(bwd.Z[n] ** 2))) for n in range(tree.M))
        assert num / den <= est.c_obs * (1.0 + 1e-6)
        assert num / (den + est.epsilon * leaf_weight * float(np.sum(p * p))) <= est.c_obs * (1.0 + 1e-12)


_RICCATI_COEFFS = ProblemCoefficients(a=lambda t, x: 0.2 + 0.1 * np.sin(np.pi * x), a1=1.0, a2=0.5,
                                      b1=lambda t, x: 0.5 * np.sin(np.pi * x), b2=0.5)


def _dense_penalized_quotient(stepper, eps):
    """Oracle: sup_p h|z(0)|^2 / (<p, Gram p> + eps |p|^2) over leaf data p, densely.

    The leaf Gramian and the map p -> z(0) are assembled column by column from
    `_ForwardDual.gram`; the sup over p is then the top eigenvalue of
    h L D^{-1} L^T, with L that map and D the penalized Gramian's matrix.
    """
    dual = _ForwardDual(stepper)
    grid, tree = stepper.grid, stepper.tree
    shape = (tree.n_nodes(tree.M), grid.N)
    n = shape[0] * shape[1]
    gram, z0_map = np.empty((n, n)), np.empty((grid.N, n))
    for j in range(n):
        gp, products = dual.gram(np.eye(n)[j].reshape(shape))
        gram[:, j], z0_map[:, j] = gp.ravel(), dual.unpack(products)[2][0][0]
    penalized = dual.leaf_weight * (gram + eps * np.eye(n))
    quotient = grid.h * z0_map @ np.linalg.solve(0.5 * (penalized + penalized.T), z0_map.T)
    return np.linalg.eigvalsh(0.5 * (quotient + quotient.T))[-1]


@pytest.mark.parametrize("build,n,m", [(build_tree, 8, 4), (build_tree, 16, 4), (build_path, 16, 8)])
def test_backward_constant_matches_dense_penalized_quotient(build, n, m):
    grid = build_grid(1.0, n, (0.3, 0.8), (0.4, 0.6))
    st = TreeStepper(grid, build(m, 1.0), _RICCATI_COEFFS)
    est = observability_constant(grid, st.tree, _RICCATI_COEFFS, direction="backward_1_3")
    assert est.c_obs == pytest.approx(_dense_penalized_quotient(st, grid.h ** 2), rel=1e-12)
    for eps in (1e-2, 1e-4):
        top = np.linalg.eigvalsh(_ForwardRiccati(st, eps).p0)[-1]
        assert top == pytest.approx(_dense_penalized_quotient(st, eps), rel=1e-12)


def test_backward_constant_non_increasing_in_eps():
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.4, 0.6))
    st = TreeStepper(grid, build_tree(6, 1.0), _RICCATI_COEFFS)
    tops = [np.linalg.eigvalsh(_ForwardRiccati(st, eps).p0)[-1] for eps in np.logspace(-8, -1, 15)]
    assert all(a >= b for a, b in zip(tops, tops[1:]))


def test_backward_value_matrix_of_a_zero_noise_tree_is_the_paths():
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.4, 0.6))
    coeffs = ProblemCoefficients(a=0.2, a1=1.0, b1=lambda t, x: 0.3 * np.sin(np.pi * x))
    tree_p0, path_p0 = (_ForwardRiccati(TreeStepper(grid, build(20, 1.0), coeffs), grid.h ** 2).p0
                        for build in (build_tree, build_path))
    assert np.array_equal(tree_p0, path_p0)


def _swept_pencil(stepper):
    """Oracle: the forward pencil column by column from tree sweeps.

    z is the adjoint_1_5 sweep of e_j; obs[:, j] is minus the initial state of the
    controlled_1_2 fold from zero leaves under u = z (the backward-HUM Gramian's stencil
    pair), and energy[:, j] folds the leaf field z(T) back to level 0.
    """
    n, tree = stepper.grid.N, stepper.tree
    zero_leaves = np.zeros((tree.n_nodes(tree.M), n))
    energy = np.empty((n, n))
    obs = np.empty((n, n))
    for j in range(n):
        z = stepper.forward(np.eye(n)[j], mode="adjoint_1_5").y
        obs[:, j] = -stepper.backward(zero_leaves, mode="controlled_1_2", u=z).z[0][0]
        energy[:, j] = stepper.backward(z[tree.M], mode="controlled_1_2").z[0][0]
    return energy, obs


def _pencil_stepper(build):
    if build == "desk":
        desk_ini = Path(__file__).resolve().parents[1] / "demos" / "desk.ini"
        return TreeStepper(*parse_config(desk_ini).build_problem())
    grid = build_grid(1.0, 8, (0.2, 0.85), (0.4, 0.65))
    coeffs = ProblemCoefficients(a=lambda t, x: 0.2 + 0.1 * x + 0.05 * t, a1=0.7,
                                 a2=lambda t, x: 0.4 + 0.1 * np.cos(np.pi * x), b1=0.2, b2=0.1,
                                 b=lambda t, x: 0.3 * np.sin(np.pi * x) + 0.1 * t)
    return TreeStepper(grid, build(6, 0.8), coeffs)


@pytest.mark.parametrize("build", [build_tree, build_path, "desk"])
def test_forward_pencil_moments_match_tree_sweeps(build):
    st = _pencil_stepper(build)
    energy, obs = _forward_pencil(st)
    ref_energy, ref_obs = _swept_pencil(st)
    for got, ref in ((energy, ref_energy), (obs, ref_obs)):
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("quantity,direction", [("observability", "forward_1_5"),
                                                ("observability", "backward_1_3"),
                                                ("control_cost", "forward_1_5")],
                         ids=["forward_1_5", "backward_1_3", "control_cost"])
def test_forward_observability_needs_no_tree_sweep(monkeypatch, quantity, direction):
    """No sweep row (either pencil, or a control cost) sweeps the tree or runs CG, so no depth
    cap applies and every row keeps dt = 1 / m_per_time."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("tree sweep or CG in a sweep row")

    monkeypatch.setattr(TreeStepper, "forward", no_sweep)
    monkeypatch.setattr(TreeStepper, "backward", no_sweep)
    monkeypatch.setattr(control, "_cg", no_sweep)
    monkeypatch.setattr(experiments, "_cg", no_sweep)
    grid = build_grid(1.0, 12, (0.2, 0.85), (0.4, 0.65))
    coeffs = ProblemCoefficients(a=0.2, a1=0.5, a2=0.3, b=0.2)
    if quantity == "observability":
        est = observability_constant(grid, build_tree(6, 1.0), coeffs, direction=direction,
                                     iters=10, seed=0)
        assert est.c_obs > 0.0
    t_values, m_per_time = [0.5, 1.0, 2.0, 5.0], 8.0
    table = cost_scaling_sweep(coeffs, grid, t_values, quantity=quantity, direction=direction,
                               m_per_time=m_per_time, iters=10, seed=0)
    assert [r["M"] for r in table.rows] == [max(2, round(m_per_time * T)) for T in t_values]
    assert table.rows[-1]["M"] == 40  # past the depth cap, on a branching tree
    assert not any(r["collapsed"] for r in table.rows)
    assert table.epsilon == (None if (quantity, direction) == ("observability", "forward_1_5")
                             else grid.h ** 2)
    assert all(np.isfinite(r["value"]) and r["value"] > 0.0 for r in table.rows)


def test_vanishing_observation_flagged():
    rng = np.random.default_rng(0)
    with pytest.raises(NumericsError):
        _pencil_power_iteration(np.eye(3), np.zeros((3, 3)), 5, rng)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("form", ["energy", "observation"])
def test_non_finite_pencil_flagged(form, bad):
    """A NaN or inf entry in either form is named, not read as a quotient or a vanished form."""
    pencil = {"energy": np.eye(3), "observation": np.eye(3)}
    pencil[form][0, 0] = bad
    with pytest.raises(NumericsError, match=f"{form} form is not finite"):
        _pencil_power_iteration(pencil["energy"], pencil["observation"], 5, np.random.default_rng(0))


def test_overflowing_whitened_pencil_flagged():
    """A finite pencil whose whitened energy form overflows is named, not read as a vanished
    observation form (nor raised as numpy's overflow warning)."""
    with pytest.raises(NumericsError, match="whitened energy form is not finite"):
        _pencil_power_iteration(1e300 * np.eye(3), np.diag([1e-10, 1.0, 1.0]), 5, np.random.default_rng(0))


@pytest.mark.parametrize("t_dependent", [False, True], ids=["constant", "t-dependent"])
@pytest.mark.parametrize("noisy", [True, False], ids=["tree", "path"])
@pytest.mark.parametrize("direction", ["forward_1_5", "backward_1_3"])
def test_observability_estimates_are_the_power_iteration_of_their_pencil(direction, noisy, t_dependent):
    """observability_constant and the sweep's observability rows are the running best of
    `_pencil_power_iteration` on their direction's pencil, bit for bit: forward `_forward_pencil`,
    backward (P_0(h^2), I); without noise the sweep's rows run on a path."""
    grid = build_grid(1.0, 12, (0.2, 0.85), (0.4, 0.65))
    coeffs = ProblemCoefficients(a=0.2, a1=(lambda t, x: 0.5 + 0.5 * t) if t_dependent else 0.5,
                                 a2=0.3 * noisy, b2=0.2 * noisy, b=0.2)
    build = build_tree if noisy else build_path

    def oracle(M, T):
        st = TreeStepper(grid, build(M, T), coeffs)
        pencil = (_forward_pencil(st) if direction == "forward_1_5"
                  else (_ForwardRiccati(st, grid.h ** 2).p0, np.eye(grid.N)))
        return np.maximum.accumulate(_pencil_power_iteration(*pencil, 12, np.random.default_rng(3))).tolist()

    est = observability_constant(grid, build(5, 1.0), coeffs, direction=direction, iters=12, seed=3)
    assert est.rayleigh == oracle(5, 1.0) and est.c_obs == est.rayleigh[-1]
    table = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0], direction=direction,
                               m_per_time=4.0, iters=12, seed=3)
    assert [r["collapsed"] for r in table.rows] == [not noisy] * 4
    assert [r["value"] for r in table.rows] == [oracle(r["M"], r["T"])[-1] for r in table.rows]


def _power_loop(energy, obs, iters, rng):
    """Oracle: the whitened generalized power iteration one iterate at a time, each quotient
    that of the normalized iterate."""
    lam_o, vec_o = np.linalg.eigh(obs)
    keep = lam_o > max(1e-14 * lam_o.max(), 0.0)
    basis = vec_o[:, keep] / np.sqrt(lam_o[keep])
    reduced = basis.T @ energy @ basis
    reduced = 0.5 * (reduced + reduced.T)
    q, rayleigh = rng.standard_normal(reduced.shape[0]), []
    for _ in range(iters):
        q = reduced @ q
        norm = float(np.dot(q, q))
        if norm <= 0.0:
            raise NumericsError("observation form vanished on a nonzero iterate")
        q = q / np.sqrt(norm)
        rayleigh.append(float(q @ reduced @ q))
    return rayleigh


def _assert_power_blocks_are_the_loop(energy, obs, iters, seed, rtol):
    got = _pencil_power_iteration(energy, obs, iters, np.random.default_rng(seed))
    want = np.array(_power_loop(energy, obs, iters, np.random.default_rng(seed)))
    assert len(got) == iters
    assert np.max(np.abs(np.array(got) - want) / np.abs(want)) <= rtol


@pytest.fixture(scope="module")
def sweep_pencils():
    """The forward pencils of the sweep-t benchmark's rows (desk, m_per_time = 6, on trees) and
    of criterion 11's (a = 0.05, N = 32, m_per_time = 32, on paths)."""
    grid, coeffs = _desk_problem(False)
    pencils = [_forward_pencil(TreeStepper(grid, build_tree(max(2, round(6.0 * T)), T), coeffs))
               for T in (0.25, 0.5, 1.0, 2.0)]
    grid = build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65))
    return pencils + [_forward_pencil(TreeStepper(grid, build_path(round(32.0 * T), T),
                                                  ProblemCoefficients(a=0.05)))
                      for T in (0.25, 0.5, 1.0, 2.0)]


# MIN_POWER_ITERS, one block, one past it, two blocks, one past them, and seven blocks
@pytest.mark.parametrize("iters", [5, 30, 31, 60, 61, 200])
def test_power_blocks_are_the_power_loop(sweep_pencils, iters):
    for energy, obs in sweep_pencils:
        for seed in (0, 5, 11):
            _assert_power_blocks_are_the_loop(energy, obs, iters, seed, 1e-13)


@pytest.mark.parametrize("scale", [1e17, 1e-17])
@pytest.mark.parametrize("iters", [5, 30, 31, 60, 61, 200])
def test_power_blocks_are_the_power_loop_on_a_scaled_pencil(scale, iters):
    rng = np.random.default_rng(7)
    a, c = rng.standard_normal((2, 12, 12))
    energy, obs = scale * (a @ a.T), (c @ c.T + np.eye(12)) / scale
    _assert_power_blocks_are_the_loop(energy, obs, iters, 3, 1e-12)


def test_power_blocks_renormalize_between_blocks():
    """A rank-one pencil whose top eigenvalue is 254 / 2048 of the power of two over its infinity
    norm: 200 iterates that no block renormalized would fall below the smallest double."""
    u = np.r_[np.sqrt(127.0), np.ones(127)]
    _assert_power_blocks_are_the_loop(np.outer(u, u), np.eye(128), 200, 0, 1e-13)


@pytest.mark.parametrize("iters", [5, 61])
def test_zero_energy_flagged(iters):
    with pytest.raises(NumericsError, match="vanished"):
        _pencil_power_iteration(np.zeros((3, 3)), np.eye(3), iters, np.random.default_rng(0))


def test_iters_guard(obs_setup):
    grid, tree, coeffs = obs_setup
    with pytest.raises(ValueError):
        observability_constant(grid, tree, coeffs, iters=3)


def test_scaling_sweep_blowup_and_fit():
    grid = build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65))
    coeffs = ProblemCoefficients(a=0.05)
    table = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0],
                               quantity="observability", direction="forward_1_5",
                               m_per_time=32.0, iters=30, seed=11)
    values = [r["value"] for r in table.rows]
    assert all(a > b for a, b in zip(values, values[1:]))  # blow-up as T -> 0
    assert table.slope > 0.0
    assert table.r2 >= 0.9
    # the exponent column reproduces the closed-form M formula exactly
    for r in table.rows:
        assert r["exponent"] == m_cost_exponent(r["T"], 0.0, 0.0, 0.0)


def _polyfit_ols(x, y):
    """Oracle: the line fit of y against x by np.polyfit, R^2 from its residuals."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    return slope, intercept, 1.0 - ss_res / float(np.sum((y - y.mean()) ** 2))


@pytest.mark.parametrize("case", ["desk", "criterion-11"])
def test_closed_form_fit_is_polyfit(case):
    """The centred-sum fit of the table (e^{s/T} law) and of 1/T^4 within 1e-12 of np.polyfit's."""
    if case == "desk":
        cfg = parse_config(Path(__file__).resolve().parents[1] / "demos" / "desk.ini")
        grid, _, coeffs = cfg.build_problem()
        ex = cfg.experiment
        table = cost_scaling_sweep(coeffs, grid, ex.t_values, direction=ex.direction,
                                   m_per_time=ex.m_per_time, iters=ex.power_iters, seed=ex.seed)
    else:
        table = cost_scaling_sweep(ProblemCoefficients(a=0.05), build_grid(1.0, 32, (0.3, 0.8), (0.45, 0.65)),
                                   [0.25, 0.5, 1.0, 2.0], m_per_time=32.0, iters=30, seed=11)
    x = 1.0 / np.array([r["T"] for r in table.rows])
    y = np.log([r["value"] for r in table.rows])
    assert (table.slope, table.intercept, table.r2) == experiments._ols(x, y)
    assert table.r2_alt == experiments._ols(x ** 4, y)[2]
    for xs in (x, x ** 4):
        for got, want in zip(experiments._ols(xs, y), _polyfit_ols(xs, y), strict=True):
            assert abs(got - want) <= 1e-12 * abs(want)


def test_closed_form_fit_of_constant_data():
    assert experiments._ols(np.array([1.0, 2.0, 4.0, 8.0]), np.full(4, 0.5)) == (0.0, 0.5, 1.0)


def test_scaling_sweep_k_exponent_column():
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    coeffs = ProblemCoefficients(a=0.3, a1=0.5, a2=0.2, b1=0.1, b2=0.1)
    table = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 0.75, 1.0],
                               quantity="control_cost", m_per_time=6.0, seed=3)
    for r in table.rows:
        assert r["exponent"] == k_cost_exponent(r["T"], 0.5, 0.2, 0.1, 0.1)


def test_control_cost_rows_of_a_zero_noise_tree_run_on_a_path(monkeypatch):
    """With a2 = b2 = 0 a control-cost row equals the tree's and factors no I + Q."""
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.4, 0.6))
    coeffs = ProblemCoefficients(a=0.2, a1=1.0, b1=lambda t, x: 0.3 * np.sin(np.pi * x))
    t_values, y0 = [0.25, 0.5, 1.0, 2.0], np.sin(np.pi * grid.x / grid.L)
    on_trees = [_ForwardRiccati(TreeStepper(grid, build_tree(max(2, round(6.0 * T)), T), coeffs),
                                grid.h ** 2).feedback_costs(y0)[0] for T in t_values]
    factored = []
    cholesky = control._cholesky
    monkeypatch.setattr(control, "_cholesky", lambda a, what: factored.append(what) or cholesky(a, what))
    table = cost_scaling_sweep(coeffs, grid, t_values, quantity="control_cost", m_per_time=6.0)
    assert all(r["collapsed"] for r in table.rows)
    assert [r["value"] for r in table.rows] == on_trees
    assert factored and not any(what.startswith("I + Q") for what in factored)


def test_backward_observability_rows_of_a_zero_noise_tree_run_on_a_path(monkeypatch):
    """With a2 = b2 = 0 a backward observability row equals the tree's and factors no I + Q."""
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.4, 0.6))
    coeffs = ProblemCoefficients(a=0.2, a1=1.0, b1=lambda t, x: 0.3 * np.sin(np.pi * x))
    t_values = [0.25, 0.5, 1.0, 2.0]
    on_trees = [observability_constant(grid, build_tree(max(2, round(6.0 * T)), T), coeffs,
                                       direction="backward_1_3", iters=10, seed=2).c_obs
                for T in t_values]
    factored = []
    cholesky = control._cholesky
    monkeypatch.setattr(control, "_cholesky", lambda a, what: factored.append(what) or cholesky(a, what))
    table = cost_scaling_sweep(coeffs, grid, t_values, direction="backward_1_3", m_per_time=6.0,
                               iters=10, seed=2)
    assert all(r["collapsed"] for r in table.rows)
    assert [r["value"] for r in table.rows] == on_trees
    assert factored and not any(what.startswith("I + Q") for what in factored)


def test_scaling_sweep_determinism():
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    coeffs = ProblemCoefficients(a=0.1)
    t1 = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0], iters=20, seed=5)
    t2 = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0], iters=20, seed=5)
    assert [r["value"] for r in t1.rows] == [r["value"] for r in t2.rows]


def test_scaling_sweep_partial_table_on_failure():
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    # diffusion turns nonpositive for t > 1.5: the T = 2 row must fail
    coeffs = ProblemCoefficients(a=lambda t, x: 1.0 - 0.6 * t)
    with pytest.raises(SweepError) as err:
        cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0], iters=10, seed=1)
    assert [r["T"] for r in err.value.partial] == [0.25, 0.5, 1.0]


def _desk_problem(t_dependent: bool):
    """demos/desk.ini's grid and coefficients; t_dependent swaps a1 = 1 for a1 = 1 + t / 2."""
    grid, _, coeffs = parse_config(Path(__file__).resolve().parents[1] / "demos" / "desk.ini").build_problem()
    if t_dependent:
        coeffs = ProblemCoefficients(**{**vars(coeffs), "a1": lambda t, x: 1.0 + 0.5 * t})
    return grid, coeffs


# every sweep row kind, on the desk coefficients and with a1 = 1 + t / 2; a forward
# observability row's id names only the coefficients
_ROW_KINDS = [pytest.param(quantity, direction, t_dependent,
                           id=("t-dependent" if t_dependent else "desk") + kind)
              for quantity, direction, kind in (("observability", "forward_1_5", ""),
                                                ("observability", "backward_1_3", "-backward_1_3"),
                                                ("control_cost", "forward_1_5", "-control_cost"))
              for t_dependent in (False, True)]


def _alone(grid, coeffs, quantity, direction, T, m_per_time, iters, seed):
    """The value of a sweep row run alone, on its own tree."""
    tree = build_tree(max(2, round(m_per_time * T)), T)
    if quantity == "observability":
        return observability_constant(grid, tree, coeffs, direction=direction, iters=iters, seed=seed).c_obs
    ric = _ForwardRiccati(TreeStepper(grid, tree, coeffs), grid.h ** 2)
    return ric.feedback_costs(np.sin(np.pi * grid.x / grid.L))[0]


@pytest.mark.parametrize("quantity,direction,t_dependent", _ROW_KINDS)
@pytest.mark.parametrize("m_per_time", [6.0, 8.0, 32.0])
def test_scaling_sweep_forward_rows_are_their_own_observability_constants(quantity, direction, t_dependent,
                                                                         m_per_time):
    """Rows of every kind read off a longer row's recursion are bit for bit the row on its own
    tree: `observability_constant` in either direction, or the control cost of its own Riccati."""
    grid, coeffs = _desk_problem(t_dependent)
    t_values = [0.25, 0.5, 1.0, 2.0]
    table = cost_scaling_sweep(coeffs, grid, t_values, quantity=quantity, direction=direction,
                               m_per_time=m_per_time, iters=12, seed=4)
    alone = [_alone(grid, coeffs, quantity, direction, T, m_per_time, 12, 4) for T in t_values]
    assert [r["value"] for r in table.rows] == alone


@pytest.mark.parametrize("quantity,direction,t_dependent", _ROW_KINDS)
def test_scaling_sweep_forward_rows_share_one_recursion(monkeypatch, quantity, direction, t_dependent):
    """Desk rows T = 0.25, 0.5, 1, 2 at m_per_time = 32 (M = 8, 16, 32, 64, one dt) build one
    stepper and step one 64-level recursion, where one per row took four and 120 levels; with a
    coefficient that depends on t no row's steps repeat another's, so nothing is shared.  The
    recursion is the forward rows' moment recursion and the other rows' Riccati set-up; a
    control-cost row's moment recursion steps the same levels of the Riccati's loop."""
    made, moments, riccati = [], [], []
    stepper, moment_forms, step = experiments.TreeStepper, control._moment_forms, _ForwardRiccati._step
    monkeypatch.setattr(experiments, "TreeStepper", lambda *args: made.append(args) or stepper(*args))
    monkeypatch.setattr(control, "_moment_forms", lambda st, level, depths=None: moment_forms(
        st, lambda n: moments.append(n) or level(n), depths))
    monkeypatch.setattr(_ForwardRiccati, "_step", lambda self, n, q: riccati.append(n) or step(self, n, q))
    grid, coeffs = _desk_problem(t_dependent)
    table = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0], quantity=quantity, direction=direction,
                               m_per_time=32.0, iters=5)
    assert [r["M"] for r in table.rows] == [8, 16, 32, 64]
    steppers, levels = (4, 120) if t_dependent else (1, 64)
    assert len(made) == steppers
    assert len(moments) == (0 if direction == "backward_1_3" else levels)
    assert len(riccati) == (0 if quantity == "observability" and direction == "forward_1_5" else levels)


def test_backward_sweep_fails_only_the_rows_that_reach_a_failing_level(monkeypatch):
    """The Riccati set-up steps only as far as its rows ask: with level 31 of the host (M = 64)
    made to fail, the rows M = 8, 16 and 32 (levels 32 .. 63) complete and M = 64 fails."""
    cholesky = control._cholesky

    def failing(matrix, what):
        if int(what.rsplit(" ", 1)[1]) < 32:
            raise NumericsError(f"{what} made to fail")
        return cholesky(matrix, what)

    monkeypatch.setattr(control, "_cholesky", failing)
    grid, coeffs = _desk_problem(False)
    with pytest.raises(SweepError, match="T = 2.0 failed: I [+] dt Q_gg of level 31 made to fail") as err:
        cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 1.0, 2.0], direction="backward_1_3",
                           m_per_time=32.0, iters=5)
    assert [r["M"] for r in err.value.partial] == [8, 16, 32]


@pytest.mark.parametrize("t_values", [[0.5, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]],
                         ids=["three", "duplicates"])
def test_scaling_sweep_needs_four_rows(t_values):
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    with pytest.raises(ValueError, match="4 distinct T values"):
        cost_scaling_sweep(ProblemCoefficients(), grid, t_values)


@pytest.mark.parametrize("kwargs,what", [({"quantity": "bogus"}, "unknown quantity 'bogus'"),
                                         ({"direction": "sideways"}, "unknown direction 'sideways'"),
                                         ({"quantity": "control_cost", "direction": "backward_1_3"},
                                          "direction 'backward_1_3' does not apply"),
                                         ({"t_values": [0.25, 0.5, 1.0, np.nan, 2.0]}, "got .*nan"),
                                         ({"t_values": [0.25, 0.5, 1.0, np.inf, 2.0]}, "got .*inf"),
                                         ({"t_values": [0.0, 0.5, 1.0, 2.0]}, r"got \[0\.0,"),
                                         ({"t_values": [-1.0, 0.5, 1.0, 2.0]}, r"got \[-1\.0,"),
                                         ({"iters": 4}, "iters must be >= 5")])
def test_scaling_sweep_rejects_unknown_names_before_any_row(monkeypatch, kwargs, what):
    """Bad names, a T that is not positive and finite, and too few power iterations are
    ValueErrors before any row is built (a NaN T used to run three rows first)."""
    def no_row(*args, **kw):
        raise AssertionError("a sweep row ran")

    monkeypatch.setattr(experiments, "build_tree", no_row)
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    with pytest.raises(ValueError, match=what):
        cost_scaling_sweep(ProblemCoefficients(), grid, **{"t_values": [0.25, 0.5, 1.0, 2.0], **kwargs})


def test_epsilon_sweep_rows_and_guards():
    grid = build_grid(1.0, 16, (0.2, 0.85), (0.35, 0.7))
    tree = build_tree(5, 1.0)
    coeffs = ProblemCoefficients(a=0.2, a1=0.5, a2=0.3, b1=0.2, b2=0.2)
    y0 = np.sin(np.pi * grid.x)
    rows = epsilon_sweep(coeffs, grid, tree, y0, [1e-1, 1e-2, 1e-3])
    tn = [r["terminal_norm"] for r in rows]
    assert tn[0] > tn[1] > tn[2]
    assert all(r["cg_converged"] for r in rows)
    with pytest.raises(ValueError):
        epsilon_sweep(coeffs, grid, tree, y0, [1e-1, 1e-2])
    with pytest.raises(ValueError):
        epsilon_sweep(coeffs, grid, tree, y0, [1e-3, 1e-2, 1e-1])


def test_epsilon_sweep_huge_penalty_means_no_control():
    grid = build_grid(1.0, 16, (0.2, 0.85), (0.35, 0.7))
    tree = build_tree(5, 1.0)
    coeffs = ProblemCoefficients(a=0.2, a1=0.5, a2=0.3, b1=0.2, b2=0.2)
    rows = epsilon_sweep(coeffs, grid, tree, np.sin(np.pi * grid.x), [1e3, 1e-1, 1e-2])
    first = rows[0]
    assert first["control_cost"] <= 1e-4 * first["terminal_norm"]
    assert first["terminal_norm"] == pytest.approx(first["uncontrolled_norm"], rel=1e-2)


def test_epsilon_sweep_rows_are_the_per_eps_hum_forward_reports():
    """Acceptance criterion 4 solves each eps with hum_forward on one stepper; sweep-eps runs
    epsilon_sweep.  Both take the same route, so their rows agree to the bit."""
    grid = build_grid(1.0, 32, (0.1, 0.95), (0.3, 0.7))
    tree = build_tree(8, 1.0)
    coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.5, b1=0.5, b2=0.5, b=0.5)
    y0 = np.sin(np.pi * grid.x / grid.L)
    eps_values = [1e-1, 1e-2, 1e-3, 1e-4]
    rows = epsilon_sweep(coeffs, grid, tree, y0, eps_values, cg_tol=1e-10, cg_max_iter=8000)
    st = TreeStepper(grid, tree, coeffs)
    keys = ("terminal_norm", "control_cost", "cg_iterations", "cg_converged", "identity_residual")
    for eps, row in zip(eps_values, rows, strict=True):
        report = hum_forward(grid, tree, coeffs, y0, HumConfig(epsilon=eps, cg_tol=1e-10, cg_max_iter=8000),
                             stepper=st).report
        assert [row[k] for k in keys] == [getattr(report, k) for k in keys]


@pytest.mark.parametrize("eps_values", [[np.nan, 1e-2, 1e-3], [np.inf, 1e-2, 1e-3],
                                        [1e-1, 1e-2, 0.0], [1e-1, 1e-2, -1e-2]],
                         ids=["nan", "inf", "zero", "negative"])
def test_epsilon_sweep_rejects_nonpositive_or_nonfinite_eps(eps_values):
    # each list passes the strictly-decreasing check, so only the eps check can stop it
    grid = build_grid(1.0, 16, (0.2, 0.85), (0.35, 0.7))
    with pytest.raises(ValueError, match="positive and finite"):
        epsilon_sweep(ProblemCoefficients(), grid, build_tree(5, 1.0), np.sin(np.pi * grid.x),
                      eps_values)


@pytest.mark.parametrize("m_per_time", [-3.0, 0.0, np.nan, np.inf])
def test_scaling_sweep_rejects_nonpositive_or_nonfinite_m_per_time(m_per_time):
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    with pytest.raises(ValueError, match="m_per_time must be positive and finite"):
        cost_scaling_sweep(ProblemCoefficients(), grid, [0.25, 0.5, 1.0, 2.0],
                           m_per_time=m_per_time)


# -- refinement: the desk numbers converge at first order in dt ----------------------

_REFINEMENT = """
import json
import numpy as np
from spcontrol import ProblemCoefficients, TreeStepper, build_grid, build_tree
from spcontrol.control import _ForwardRiccati
# demos/desk.ini's coefficients, G0 and G1, at N = M
coeffs = ProblemCoefficients(a=0.15, a1=1.0, a2=0.5, b1=lambda t, x: 0.5 * np.sin(np.pi * x), b2=0.5, b=0.5)
rows = []
for n in (32, 64, 128):
    grid = build_grid(1.0, n, (0.1, 0.95), (0.3, 0.7))
    ric = _ForwardRiccati(TreeStepper(grid, build_tree(n, 1.0), coeffs), grid.h ** 2)
    # control cost as cost_scaling_sweep's rows take it; backward c_obs = lambda_max(P_0(h^2))
    rows.append([ric.feedback_costs(np.sin(np.pi * grid.x / grid.L))[0], float(np.linalg.eigvalsh(ric.p0)[-1])])
print(json.dumps(rows))
"""


def test_desk_numbers_converge_under_refinement():
    """At N = M = 32, 64, 128 and eps = h^2, each successive difference of the control cost
    and of the backward c_obs shrinks by a factor >= 1.8 (measured 2.19 and 2.11): first order
    in dt.  It runs in a fresh interpreter with one BLAS thread: numpy's and scipy's OpenBLAS
    each keep a thread pool, and on a 2-CPU host the two pools make the N = 128 Riccati
    recursion over ten times slower."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _REFINEMENT], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    rows = np.array(json.loads(done.stdout))
    assert rows.shape == (3, 2)
    first, second = rows[1] - rows[0], rows[2] - rows[1]
    assert np.all(first < 0.0) and np.all(second < 0.0)  # both decrease towards their limits
    assert np.all(first / second >= 1.8)
