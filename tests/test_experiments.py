import dataclasses

import numpy as np
import pytest

from spcontrol import ProblemCoefficients, TreeStepper, build_grid, build_path, build_tree
from spcontrol import control, experiments
from spcontrol.control import (_BackwardDual, _ForwardDual, _ForwardRiccati, k_cost_exponent,
                               m_cost_exponent)
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
                                 iters=40, seed=0, stepper=st)
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
                                 iters=10, seed=0, stepper=st)
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
        gp, (_, _, (z0,), _) = dual.gram(np.eye(n)[j].reshape(shape))
        gram[:, j], z0_map[:, j] = gp.ravel(), z0[0]
    penalized = dual.leaf_weight * (gram + eps * np.eye(n))
    quotient = grid.h * z0_map @ np.linalg.solve(0.5 * (penalized + penalized.T), z0_map.T)
    return np.linalg.eigvalsh(0.5 * (quotient + quotient.T))[-1]


@pytest.mark.parametrize("build,n,m", [(build_tree, 8, 4), (build_tree, 16, 4), (build_path, 16, 8)])
def test_backward_constant_matches_dense_penalized_quotient(build, n, m):
    grid = build_grid(1.0, n, (0.3, 0.8), (0.4, 0.6))
    st = TreeStepper(grid, build(m, 1.0), _RICCATI_COEFFS)
    est = observability_constant(grid, st.tree, _RICCATI_COEFFS, direction="backward_1_3", stepper=st)
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

    obs[:, j] is the backward-HUM Gramian applied to e_j; energy[:, j] folds
    the resulting leaf field z(T) back to level 0 through the transpose sweep.
    """
    n = stepper.grid.N
    dual = _BackwardDual(stepper)
    energy = np.empty((n, n))
    obs = np.empty((n, n))
    for j in range(n):
        obs[:, j], (z, *_) = dual.gram(np.eye(n)[j])
        energy[:, j] = stepper.backward(z[stepper.tree.M], mode="controlled_1_2").z[0][0]
    return energy, obs


@pytest.mark.parametrize("build", [build_tree, build_path])
def test_forward_pencil_moments_match_tree_sweeps(build):
    grid = build_grid(1.0, 8, (0.2, 0.85), (0.4, 0.65))
    coeffs = ProblemCoefficients(a=lambda t, x: 0.2 + 0.1 * x + 0.05 * t, a1=0.7,
                                 a2=lambda t, x: 0.4 + 0.1 * np.cos(np.pi * x), b1=0.2, b2=0.1,
                                 b=lambda t, x: 0.3 * np.sin(np.pi * x) + 0.1 * t)
    st = TreeStepper(grid, build(6, 0.8), coeffs)
    energy, obs = _forward_pencil(st)
    ref_energy, ref_obs = _swept_pencil(st)
    for got, ref in ((energy, ref_energy), (obs, ref_obs)):
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("direction", ["forward_1_5", "backward_1_3"])
def test_forward_observability_needs_no_tree_sweep(monkeypatch, direction):
    """Neither direction's pencil sweeps the tree or runs CG, so no depth cap applies to it."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("tree sweep or CG in an observability pencil")

    monkeypatch.setattr(TreeStepper, "forward", no_sweep)
    monkeypatch.setattr(TreeStepper, "backward", no_sweep)
    monkeypatch.setattr(control, "_cg", no_sweep)
    monkeypatch.setattr(experiments, "_cg", no_sweep)
    grid = build_grid(1.0, 12, (0.2, 0.85), (0.4, 0.65))
    coeffs = ProblemCoefficients(a=0.2, a1=0.5, a2=0.3, b=0.2)
    est = observability_constant(grid, build_tree(6, 1.0), coeffs, direction=direction,
                                 iters=10, seed=0)
    assert est.c_obs > 0.0
    table = cost_scaling_sweep(coeffs, grid, [0.5, 1.0, 2.0, 5.0], direction=direction,
                               m_per_time=8.0, iters=10, seed=0)
    assert [r["M"] for r in table.rows] == [4, 8, 16, 40]
    assert not any(r["collapsed"] for r in table.rows)
    assert all(np.isfinite(r["value"]) and r["value"] > 0.0 for r in table.rows)


def test_vanishing_observation_flagged():
    rng = np.random.default_rng(0)
    with pytest.raises(NumericsError):
        _pencil_power_iteration(np.eye(3), np.zeros((3, 3)), 5, rng)


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


def test_scaling_sweep_k_exponent_column():
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    coeffs = ProblemCoefficients(a=0.3, a1=0.5, a2=0.2, b1=0.1, b2=0.1)
    table = cost_scaling_sweep(coeffs, grid, [0.25, 0.5, 0.75, 1.0],
                               quantity="control_cost", m_per_time=6.0, seed=3)
    for r in table.rows:
        assert r["exponent"] == k_cost_exponent(r["T"], 0.5, 0.2, 0.1, 0.1)


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


@pytest.mark.parametrize("t_values", [[0.5, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]],
                         ids=["three", "duplicates"])
def test_scaling_sweep_needs_four_rows(t_values):
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    with pytest.raises(ValueError, match="4 distinct T values"):
        cost_scaling_sweep(ProblemCoefficients(), grid, t_values)


@pytest.mark.parametrize("kwargs,what", [({"quantity": "bogus"}, "unknown quantity 'bogus'"),
                                         ({"direction": "sideways"}, "unknown direction 'sideways'")])
def test_scaling_sweep_rejects_unknown_names_before_any_row(monkeypatch, kwargs, what):
    def no_row(*args, **kw):
        raise AssertionError("a sweep row ran")

    monkeypatch.setattr(experiments, "build_tree", no_row)
    grid = build_grid(1.0, 16, (0.25, 0.8), (0.4, 0.6))
    with pytest.raises(ValueError, match=what):
        cost_scaling_sweep(ProblemCoefficients(), grid, [0.25, 0.5, 1.0, 2.0], **kwargs)


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
