import dataclasses

import numpy as np
import pytest

from spcontrol import (AdaptedField, NumericsError, ProblemCoefficients, TreeStepper, build_grid,
                       build_path, build_tree, duality_gap, mean_square_norm, spde, weak_divergence)
from spcontrol._lapack import dpttrf
from spcontrol.control import _forward_pencil, _moment_forms


def test_zero_data_gives_zero_solutions(grid16, tree6, full_coeffs):
    st = TreeStepper(grid16, tree6, full_coeffs)
    fwd = st.forward(np.zeros(grid16.N))
    assert all(np.all(fwd.y[n] == 0.0) for n in range(tree6.M + 1))
    bwd = st.backward(np.zeros((tree6.n_nodes(tree6.M), grid16.N)), mode="adjoint_1_3")
    assert all(np.all(bwd.z[n] == 0.0) for n in range(tree6.M + 1))
    assert all(np.all(bwd.Z[n] == 0.0) for n in range(tree6.M))


def test_zero_noise_matches_single_branch_bitwise(grid16, tree6):
    coeffs = ProblemCoefficients(a=1.0, a1=0.7, b1=0.3)
    st = TreeStepper(grid16, tree6, coeffs)
    y0 = np.sin(np.pi * grid16.x)
    fwd = st.forward(y0)
    det = np.concatenate(TreeStepper(grid16, build_path(tree6.M, tree6.T), coeffs).forward(y0).y.levels)
    for n in range(tree6.M + 1):
        assert np.array_equal(fwd.y[n], np.tile(det[n], (tree6.n_nodes(n), 1)))
    # martingale part of the deterministic solution vanishes exactly
    bwd = st.backward(np.tile(det[-1], (tree6.n_nodes(tree6.M), 1)), mode="adjoint_1_3")
    assert all(np.all(bwd.Z[n] == 0.0) for n in range(tree6.M))


def test_zero_noise_backward_matches_single_branch_bitwise(grid16, tree6):
    """With a2 = b2 = 0 and leaf-constant data every backward mode on the tree
    repeats the single-path run row for row, with Z = 0."""
    coeffs = ProblemCoefficients(a=lambda t, x: 1.0 + 0.2 * np.sin(2 * np.pi * x),
                                 a1=0.7, b1=0.3, b=0.4)
    path = build_path(tree6.M, tree6.T)
    on_tree = TreeStepper(grid16, tree6, coeffs)
    on_path = TreeStepper(grid16, path, coeffs)
    zT = np.cos(np.pi * grid16.x)

    def sources(tree, fn):
        return AdaptedField.from_function(tree, grid16, fn, n_levels=tree6.M)

    def f0(t, x):
        return np.sin(3 * x) + t

    def flux(t, x):
        return x * (1.0 - x) * np.exp(-t)

    runs = [("generic", {"f0": f0, "f_div": flux}), ("adjoint_1_3", {}),
            ("controlled_1_2", {"u": flux})]
    for mode, fns in runs:
        tree_kw = {k: sources(tree6, fn) for k, fn in fns.items()}
        path_kw = {k: sources(path, fn) for k, fn in fns.items()}
        bt = on_tree.backward(np.tile(zT, (tree6.n_nodes(tree6.M), 1)), mode=mode, **tree_kw)
        bp = on_path.backward(zT[None, :], mode=mode, **path_kw)
        for n in range(tree6.M + 1):
            assert np.array_equal(bt.z[n], np.tile(bp.z[n], (tree6.n_nodes(n), 1))), (mode, n)
        for n in range(tree6.M):
            rows = (tree6.n_nodes(n), 1)
            assert np.array_equal(bt.z_half[n], np.tile(bp.z_half[n], rows)), (mode, n)
            assert np.all(bt.Z[n] == 0.0) and np.all(bp.Z[n] == 0.0), (mode, n)


def test_heat_kernel_decay_rate():
    grid = build_grid(1.0, 64, (0.3, 0.8), (0.45, 0.65))
    path = TreeStepper(grid, build_path(64, 0.5), ProblemCoefficients(a=1.0))
    y = np.concatenate(path.forward(np.sin(np.pi * grid.x)).y.levels)
    rate = -np.log(np.linalg.norm(y[-1]) / np.linalg.norm(y[0])) / 0.5
    assert abs(rate - np.pi ** 2) / np.pi ** 2 <= 0.05


def test_duality_gap_random_instances(grid16, tree6, full_coeffs):
    rng = np.random.default_rng(2)
    zT = rng.standard_normal((tree6.n_nodes(tree6.M), grid16.N))
    y0 = rng.standard_normal(grid16.N)
    # initial data only
    gap = duality_gap(grid16, tree6, full_coeffs, y0, None, None, zT)
    assert gap <= 1e-11
    # controls only
    u = AdaptedField.random(tree6, grid16.N, rng, n_levels=tree6.M)
    v = AdaptedField.random(tree6, grid16.N, rng, n_levels=tree6.M)
    gap = duality_gap(grid16, tree6, full_coeffs, np.zeros(grid16.N), u, v, zT)
    assert gap <= 1e-11
    # everything at once
    gap = duality_gap(grid16, tree6, full_coeffs, y0, u, v, zT)
    assert gap <= 1e-11


def test_duality_gap_zero_inputs(grid16, tree6, full_coeffs):
    zT = np.zeros((tree6.n_nodes(tree6.M), grid16.N))
    assert duality_gap(grid16, tree6, full_coeffs, np.zeros(grid16.N), None, None, zT) == 0.0


@pytest.mark.parametrize("tree", [build_tree(4, 1.0), build_path(4, 1.0)], ids=["tree", "path"])
@pytest.mark.parametrize("forward_mode,backward_mode",
                         [("general", "adjoint_1_3"), ("adjoint_1_5", "controlled_1_2")])
def test_dense_transpose_exactness(full_coeffs, tree, forward_mode, backward_mode):
    # each backward mode folds with the transpose of its forward pair
    grid = build_grid(1.0, 8, (0.3, 0.8), (0.45, 0.65))
    st = TreeStepper(grid, tree, full_coeffs)
    leaves = tree.n_nodes(tree.M)
    eye = np.eye(leaves * grid.N)
    fwd = tree.node_weight(tree.M) * np.stack(
        [st.forward(e, mode=forward_mode).y[tree.M].ravel() for e in np.eye(grid.N)])
    bwd = np.stack([st.backward(e.reshape(leaves, grid.N), mode=backward_mode).z[0][0]
                    for e in eye], axis=1)
    nz = (fwd != 0) | (bwd != 0)
    dev = (np.abs(fwd - bwd)[nz] / np.maximum(np.abs(fwd), np.abs(bwd))[nz]).max()
    assert dev <= 1e-12


def test_forward_solution_is_linear(grid16, tree6, full_coeffs):
    st = TreeStepper(grid16, tree6, full_coeffs)
    rng = np.random.default_rng(9)
    y0a, y0b = rng.standard_normal((2, grid16.N))
    u = AdaptedField.random(tree6, grid16.N, rng, n_levels=tree6.M)
    v = AdaptedField.random(tree6, grid16.N, rng, n_levels=tree6.M)
    full = st.forward(2.0 * y0a + y0b, u=u, v=v)
    za = st.forward(y0a).y[tree6.M]
    zb = st.forward(y0b).y[tree6.M]
    zu = st.forward(np.zeros(grid16.N), u=u).y[tree6.M]
    zv = st.forward(np.zeros(grid16.N), v=v).y[tree6.M]
    combo = 2.0 * za + zb + zu + zv
    assert np.allclose(full.y[tree6.M], combo, rtol=1e-12, atol=1e-14)


def test_energy_estimate_direction(grid16, tree6):
    """Gronwall-type bound: E|z(0)|^2 <= e^{cT} E|z(t)|^2 + c' E int Z^2,
    with the fitted c growing with |a1|."""
    rng = np.random.default_rng(12)
    samples = [rng.standard_normal((tree6.n_nodes(tree6.M), grid16.N)) for _ in range(8)]
    c_prime = 4.0
    fitted = []
    for a1 in (0.0, 1.0, 2.0):
        coeffs = ProblemCoefficients(a=1.0, a1=a1, a2=0.3, b1=0.3, b2=0.3)
        st = TreeStepper(grid16, tree6, coeffs)
        worst = 0.0
        for zT in samples:
            bwd = st.backward(zT, mode="adjoint_1_3")
            e0 = mean_square_norm(tree6, grid16, bwd.z, 0)
            mid = tree6.M // 2
            emid = mean_square_norm(tree6, grid16, bwd.z, mid)
            zint = sum(tree6.dt * mean_square_norm(tree6, grid16, bwd.Z, n)
                       for n in range(tree6.M))
            resid = max(e0 - c_prime * zint, 1e-300)
            worst = max(worst, np.log(resid / emid) / tree6.T)
        fitted.append(worst)
        assert np.isfinite(worst)
    assert fitted[0] <= fitted[1] <= fitted[2]


def test_cfl_warning():
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(4, 1.0)
    with pytest.warns(RuntimeWarning, match="explicit lower-order") as caught:
        TreeStepper(grid, tree, ProblemCoefficients(a=0.05, a1=0.0, b1=1.0))
    assert caught[0].filename == __file__  # the warning names the constructor's caller


def test_one_stepper_class_keeps_the_traced_names():
    # perfbench's tracer patches __init__ and _solve through spde._StepperBase, and reads them off
    # the class's own __dict__
    assert spde._StepperBase is TreeStepper
    assert "__init__" in TreeStepper.__dict__ and "_solve" in TreeStepper.__dict__


def test_nonfinite_inputs_raise(grid16, tree6, full_coeffs):
    st = TreeStepper(grid16, tree6, full_coeffs)
    bad = np.full(grid16.N, np.nan)
    with pytest.raises(NumericsError):
        st.forward(bad)
    zT = np.zeros((tree6.n_nodes(tree6.M), grid16.N))
    zT[0, 0] = np.inf
    with pytest.raises(NumericsError):
        st.backward(zT, mode="adjoint_1_3")


def test_nonfinite_control_names_solve_level(grid16, tree6, full_coeffs):
    # the implicit solve skips scipy's input check; its own output check must
    # still catch a NaN that enters through the right-hand side
    st = TreeStepper(grid16, tree6, full_coeffs)
    u = AdaptedField.zeros(tree6.M, grid16.N)
    u[2][0, 5] = np.nan
    with pytest.raises(NumericsError, match="implicit solve into level 3"):
        st.forward(np.zeros(grid16.N), u=u)


def _dense_step_matrix(st, level):
    """S_level = I - dt*E assembled from the face samples, as the docstring states."""
    af, N = st.tab.a_faces[level], st.grid.N
    E = (np.diag(af[1:-1], 1) + np.diag(af[1:-1], -1) - np.diag(af[:-1] + af[1:])) / st.grid.h ** 2
    return np.eye(N) - st.dt * E


@pytest.mark.parametrize("N", [4, 32, 128])
def test_implicit_solve_matches_dense_solve(N):
    grid = build_grid(1.0, N, (0.3, 0.8), (0.45, 0.65))
    coeffs = ProblemCoefficients(a=lambda t, x: 1.0 + 0.5 * np.sin(3 * np.pi * x) + 0.8 * t)
    st = TreeStepper(grid, build_path(6, 1.0), coeffs)
    rhs = np.random.default_rng(N).standard_normal((5, N))
    for level in range(1, 7):
        ref = np.linalg.solve(_dense_step_matrix(st, level), rhs.T).T
        out = st._solve(level, rhs.copy())  # the solve consumes its rhs
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_implicit_solve_row_count_invariance(grid32, full_coeffs):
    # acceptance criterion 6 (zero-noise tree == path, bitwise) rests on this:
    # a row's solution must not depend on how many rows are solved with it
    st = TreeStepper(grid32, build_path(3, 1.0), full_coeffs)
    rhs = np.random.default_rng(6).standard_normal((256, grid32.N))
    alone = np.concatenate([st._solve(2, rhs[k:k + 1].copy()) for k in range(rhs.shape[0])])
    for block in (2, 3, 64, 256):
        together = np.concatenate([st._solve(2, rhs[k:k + block].copy())
                                   for k in range(0, rhs.shape[0], block)])
        assert np.array_equal(together, alone), (
            f"implicit solve of {block} rows at once differs from one row at a time; "
            "a GEMM-style solve breaks the bitwise tree/path identity")


def test_inverse_steps_solve_an_identity_each(grid16, tree6, full_coeffs):
    # the solve consumes its rhs, so with every step distinct (a depends on t) a shared identity
    # would come out of the first build as S_1^{-1} and spoil every later one
    st = TreeStepper(grid16, tree6, full_coeffs)
    assert st.first_step == list(range(tree6.M))
    for n in range(1, tree6.M + 1):
        assert st.inverse_steps[n].tobytes() == st._solve(n, np.eye(grid16.N)).tobytes()


@pytest.mark.parametrize("tree", [build_tree(4, 1.0), build_path(4, 1.0)], ids=["tree", "path"])
def test_sweeps_leave_their_data_unchanged(grid16, tree, full_coeffs):
    st = TreeStepper(grid16, tree, full_coeffs)
    rng = np.random.default_rng(21)
    y0, zT = rng.standard_normal(grid16.N), rng.standard_normal((tree.n_nodes(tree.M), grid16.N))
    u, v, f0, f_div = (AdaptedField.random(tree, grid16.N, rng, n_levels=tree.M) for _ in range(4))
    data = (y0, zT, *u.levels, *v.levels, *f0.levels, *f_div.levels)
    before = [a.tobytes() for a in data]
    st.forward(y0, u=u, v=v, drift_src=f0, drift_div=f_div)
    st.forward(y0, mode="adjoint_1_5")
    for mode in ("adjoint_1_3", "controlled_1_2"):
        st.backward(zT, mode=mode)
    st.backward(zT, mode="generic", f0=f0, f_div=f_div)
    st.backward(zT, mode="controlled_1_2", u=u)
    assert [a.tobytes() for a in data] == before


def test_backward_solution_survives_later_folds(grid16, tree6, full_coeffs):
    # backward() copies each z_n before the next level's solve consumes it, and its z_half, Z and
    # level M are arrays no later solve on the same stepper writes
    st = TreeStepper(grid16, tree6, full_coeffs)
    rng = np.random.default_rng(22)
    zT = rng.standard_normal((tree6.n_nodes(tree6.M), grid16.N))
    sol = st.backward(zT, mode="adjoint_1_3")
    fields = [*sol.z.levels, *sol.z_half.levels, *sol.Z.levels]
    before = [a.tobytes() for a in fields]
    for n, z, _, _ in st.fold(zT, mode="adjoint_1_3"):
        assert z.tobytes() == before[n]  # the fold's own levels are the stored ones
    st.backward(sol.z[tree6.M], mode="adjoint_1_3")
    list(st.fold(rng.standard_normal(zT.shape)))
    assert [a.tobytes() for a in fields] == before


@pytest.mark.parametrize("tree", [build_tree(4, 1.0), build_path(4, 1.0)])
def test_general_steps_are_the_step_on_the_identity(grid16, tree, full_coeffs):
    st = TreeStepper(grid16, tree, full_coeffs)
    eye = np.eye(grid16.N)
    steps = st.general_steps
    assert len(steps) == tree.M and st.general_steps is steps  # built once per stepper
    for n, (gt, bt) in enumerate(steps):
        drift, noise = st.apply(n, "general", (eye,))
        assert np.array_equal(gt, eye + st.dt * drift)
        assert np.array_equal(bt, noise)


def test_factorization_failure_names_level(grid16, tree6):
    # the constructor takes hand-built tables as they are; sample() would
    # reject a negative diffusion coefficient
    tab = ProblemCoefficients(a=1.0).sample(grid16, tree6.times)
    a_faces = tab.a_faces.copy()
    a_faces[3, 5] = -10.0
    with pytest.raises(NumericsError, match="level 3 is not positive definite"):
        TreeStepper(grid16, tree6, dataclasses.replace(tab, a_faces=a_faces))


def test_mode_validation(grid16, tree6, full_coeffs):
    st = TreeStepper(grid16, tree6, full_coeffs)
    zT = np.zeros((tree6.n_nodes(tree6.M), grid16.N))
    with pytest.raises(ValueError):
        st.backward(zT, mode="nonsense")
    with pytest.raises(ValueError):
        st.forward(np.zeros(grid16.N), mode="nonsense")
    with pytest.raises(ValueError):
        st.backward(zT, mode="adjoint_1_3", u=AdaptedField.zeros(tree6.M, grid16.N))
    with pytest.raises(ValueError):
        st.forward(np.zeros(grid16.N), u=AdaptedField.zeros(tree6.M, grid16.N),
                   mode="adjoint_1_5")


@pytest.mark.parametrize("tree", [build_tree(6, 1.0), build_path(6, 1.0)], ids=["tree", "path"])
def test_fold_without_martingale_parts_solves_the_sibling_means(grid16, tree, full_coeffs):
    # levels whose Z the caller does not read solve S^{-1} of the sibling means: the same z and
    # z_half to rounding, Z None on a tree (zero on a path), and the levels read keep their Z
    st = TreeStepper(grid16, tree, full_coeffs)
    rng = np.random.default_rng(27)
    zT = rng.standard_normal((tree.n_nodes(tree.M), grid16.N))
    f0, f_div = (AdaptedField.random(tree, grid16.N, rng, n_levels=tree.M) for _ in range(2))
    sol = st.backward(zT, mode="generic", f0=f0, f_div=f_div)
    reads = range(2, 4)
    for n, z, z_half, z_mart in st.fold(zT, "generic", f0, f_div, mart_levels=reads):
        for got, want in ((z, sol.z[n]), (z_half, sol.z_half[n]), (z_mart, sol.Z[n])):
            if got is None:
                assert n not in reads and tree.branching
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    for mode in ("adjoint_1_3", "controlled_1_2"):
        with pytest.raises(ValueError, match="only accepted in generic mode"):
            next(st.fold(zT, mode, mart_levels=reads))


def test_backward_shape_validation(grid16, tree6, full_coeffs):
    st = TreeStepper(grid16, tree6, full_coeffs)
    with pytest.raises(ValueError):
        st.backward(np.zeros((3, grid16.N)), mode="generic")


@pytest.mark.parametrize("given", ["f0", "f_div"])
def test_generic_backward_takes_one_source_alone(grid16, tree6, full_coeffs, given):
    # a source left out counts as zero
    st = TreeStepper(grid16, tree6, full_coeffs)
    rng = np.random.default_rng(4)
    zT = rng.standard_normal((tree6.n_nodes(tree6.M), grid16.N))
    src = AdaptedField.random(tree6, grid16.N, rng, n_levels=tree6.M)
    zeros = AdaptedField.zeros(tree6.M, grid16.N)
    alone = st.backward(zT, mode="generic", **{given: src})
    spelled = st.backward(zT, mode="generic", **{given: src, ("f_div" if given == "f0" else "f0"): zeros})
    for n in range(tree6.M + 1):
        np.testing.assert_allclose(alone.z[n], spelled.z[n], rtol=1e-14, atol=1e-14)


def test_generic_fold_keeps_the_textbook_bits(full_coeffs):
    # z_n = z_half_n - dt*(f0_n + weak_div(f_div_n)), level by level, to the bit (N = 128)
    grid = build_grid(1.0, 128, (0.1, 0.95), (0.3, 0.7))
    tree = build_tree(6, 1.0)
    st = TreeStepper(grid, tree, full_coeffs)
    rng = np.random.default_rng(13)
    zT = rng.standard_normal((tree.n_nodes(tree.M), grid.N))
    f0, f_div = (AdaptedField.random(tree, grid.N, rng, n_levels=tree.M) for _ in range(2))
    sol = st.backward(zT, mode="generic", f0=f0, f_div=f_div)
    assert np.array_equal(sol.z[tree.M], zT)
    for n in range(tree.M):
        w = st._solve(n + 1, sol.z[n + 1].copy())
        z_half = 0.5 * (w[0::2] + w[1::2])
        assert np.array_equal(sol.z_half[n], z_half)
        assert np.array_equal(sol.Z[n], 0.5 * (w[0::2] - w[1::2]) / tree.sqrt_dt)
        assert np.array_equal(sol.z[n], z_half - tree.dt * (f0[n] + weak_divergence(grid, f_div[n])))


def test_coefficient_tables_cache_sup_norms(grid16, tree6, full_coeffs):
    tab = full_coeffs.sample(grid16, tree6.times)
    assert tab.a1_inf == pytest.approx(np.abs(tab.a1).max())
    assert tab.b_inf == pytest.approx(np.abs(tab.b).max())
    assert tab.beta == pytest.approx(tab.a_faces.min())
    assert tab.beta > 0


def test_coefficient_positivity_enforced(grid16, tree6):
    coeffs = ProblemCoefficients(a=lambda t, x: 0.5 - t)
    with pytest.raises(ValueError):
        coeffs.sample(grid16, tree6.times)


@pytest.mark.parametrize("name", ["a", "a1", "a2", "b1", "b2", "b"])
def test_nonfinite_coefficient_rejected_at_sampling(grid16, tree6, name):
    # log(0.5 - t): -inf at t = 0.5, NaN after it (numpy warns and returns them)
    coeffs = ProblemCoefficients(**{name: lambda t, x: 1.0 + np.log(0.5 - t + 0.0 * x)})
    with pytest.raises(ValueError, match=rf"coefficient {name} is not finite at t = 0\.5"):
        coeffs.sample(grid16, tree6.times)


def test_nonfinite_coefficient_named_in_table_order(grid16, tree6):
    # b1 is +inf at t = 0.5 only and b NaN from t = 1/6 on: the first table in the order
    # a, a1, a2, b1, b2, b that fails is named, with the first time it fails at
    def spike(t, x):
        return np.where(t == 0.5, np.inf, 0.5) + 0.0 * x

    coeffs = ProblemCoefficients(b1=spike, b=lambda t, x: np.where(t > 0.1, np.nan, 0.0) + 0.0 * x)
    with pytest.raises(ValueError, match=r"^coefficient b1 is not finite at t = 0\.5$"):
        coeffs.sample(grid16, tree6.times)
    with pytest.raises(ValueError, match=r"^coefficient b is not finite at t = 0\.166667$"):
        ProblemCoefficients(b1=0.5, b=coeffs.b).sample(grid16, tree6.times)


@pytest.mark.parametrize("a,b2", [(0.1, 0.45), (0.1, 0.5)])
def test_stochastic_parabolicity_enforced(grid16, tree6, a, b2):
    with pytest.raises(ValueError, match=r"coefficients a and b2 violate stochastic parabolicity: "
                                         r"min\(2a - b2\^2\) = -0\.\d+ <= 0 at t = 0$"):
        ProblemCoefficients(a=a, b2=b2).sample(grid16, tree6.times)


def test_stochastic_parabolicity_names_the_first_failing_time(grid16, tree6):
    # 2a - b2^2 = 0.15 - 0.24 t turns negative past t = 0.625; b2 is sampled at t = k / 6, k < 6
    coeffs = ProblemCoefficients(a=lambda t, x: 0.2 - 0.12 * t + 0.0 * x, b2=0.5)
    with pytest.raises(ValueError, match=r"= -0\.01 <= 0 at t = 0\.666667$"):
        coeffs.sample(grid16, tree6.times)


def test_stochastic_parabolicity_accepts_the_desk_margin(grid16, tree6):
    # demos/desk.ini: 2 * 0.15 - 0.5^2 = 0.05
    tab = ProblemCoefficients(a=0.15, a2=0.5, b2=0.5).sample(grid16, tree6.times)
    assert tab.b2_inf == 0.5


_CONSTANT = {"a": 0.8, "a1": 0.7, "a2": 0.3, "b1": 0.2, "b2": 0.4, "b": 0.5}


def _step_tables(case, grid, tree):
    """Coefficient tables whose steps repeat (or not) as `case` says: "t in <name>" varies that
    coefficient alone in t, and "negative-zero" differs from its neighbours only in the sign
    of a zero a2 row."""
    coeffs = dict(_CONSTANT)
    if case.startswith("t in "):
        name = case[5:]
        coeffs[name] = lambda t, x, c=coeffs[name]: c + 0.1 * t + 0.05 * np.sin(np.pi * x)
    elif case == "piecewise":
        coeffs["a1"] = lambda t, x: 1.0 + (t >= 0.5)
    elif case == "piecewise a":  # a_faces[n + 1] belongs to step n
        coeffs["a"] = lambda t, x: 0.8 + 0.2 * (t >= 0.5)
    elif case == "negative-zero":
        coeffs["a2"] = 0.0
    tab = ProblemCoefficients(**coeffs).sample(grid, tree.times)
    if case == "negative-zero":
        a2 = tab.a2.copy()
        a2[2] = -0.0
        tab = dataclasses.replace(tab, a2=a2)
    return tab


_FIRST_STEPS = {"constant": [0, 0, 0, 0], **{f"t in {name}": [0, 1, 2, 3] for name in _CONSTANT},
                "piecewise": [0, 0, 2, 2], "piecewise a": [0, 1, 1, 1], "negative-zero": [0, 0, 2, 0]}


def _step_bytes(built):
    """The bytes of a per-step build's arrays, nested as it nests them (None stays None)."""
    if isinstance(built, (list, tuple)):
        return [_step_bytes(x) for x in built]
    return None if built is None else built.tobytes()


@pytest.mark.parametrize("tree", [build_tree(4, 1.0), build_path(4, 1.0)], ids=["tree", "path"])
@pytest.mark.parametrize("case", list(_FIRST_STEPS))
def test_shared_step_builds_match_per_level_builds(grid16, tree, case):
    """Each per-step object is built once per distinct step (by bytes, so -0.0 is not 0.0) and
    is bit for bit what a fresh build at every level gives: the dpttrf factors, general_steps,
    inverse_steps, pair_steps, adjoint_steps and the forward pencil on them."""
    st = TreeStepper(grid16, tree, _step_tables(case, grid16, tree))
    assert st.first_step == _FIRST_STEPS[case]
    eye, dt, h2 = np.eye(grid16.N), st.dt, grid16.h * grid16.h
    for n, first in enumerate(st.first_step):
        af = st.tab.a_faces[n + 1]
        d, e, info = dpttrf(1.0 + dt * (af[:-1] + af[1:]) / h2, -dt * af[1:-1] / h2)
        assert info == 0
        assert [x.tobytes() for x in st._facts[n + 1]] == [d.tobytes(), e.tobytes()]
        drift, noise = st.apply(n, "general", (eye,))
        assert [m.tobytes() for m in st.general_steps[n]] == [(eye + dt * drift).tobytes(), noise.tobytes()]
        assert st.inverse_steps[n + 1].tobytes() == st._solve(n + 1, np.eye(grid16.N)).tobytes()
        assert st._facts[n + 1] is st._facts[first + 1]
        assert st.general_steps[n] is st.general_steps[first]
        assert st.inverse_steps[n + 1] is st.inverse_steps[first + 1]
    unshared = TreeStepper(grid16, tree, st.tab)
    unshared.first_step = list(range(tree.M))  # each build made afresh at its own level
    for name in ("general_steps", "inverse_steps", "pair_steps", "adjoint_steps"):
        assert _step_bytes(getattr(st, name)) == _step_bytes(getattr(unshared, name)), name
    distinct = len(set(st.first_step))
    for built in (st._facts[1:], st.general_steps, st.inverse_steps[1:], st.pair_steps, st.adjoint_steps):
        assert len({id(x) for x in built}) == distinct
    if case == "negative-zero":  # a value-keyed share would have handed step 2 step 0's +0.0 noise
        assert st.general_steps[2][1].tobytes() != st.general_steps[0][1].tobytes()

    def fresh(n):  # the forward pencil's maps built afresh at every level
        drift, noise = st.apply(n, "adjoint_1_5", (eye,))
        return (st._solve(n + 1, eye + dt * drift),
                st._solve(n + 1, noise) if tree.branching else None, np.diag(grid16.g0_mask))

    for n in range(tree.M):
        assert _step_bytes(st.adjoint_steps[n]) == _step_bytes(fresh(n)[:2])
    for shared, ref in zip(_forward_pencil(st), _moment_forms(st, fresh)):
        assert shared.tobytes() == ref.tobytes()
