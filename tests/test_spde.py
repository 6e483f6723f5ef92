import numpy as np
import pytest

from spcontrol import (AdaptedField, NumericsError, PathStepper, ProblemCoefficients,
                       TreeStepper, backward_state_matrix, build_grid, build_path, build_tree,
                       duality_gap, forward_state_matrix, mean_square_norm)


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
    det = PathStepper(grid16, tree6.M, tree6.T, coeffs).forward(y0)
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
    path = PathStepper(grid, 64, 0.5, ProblemCoefficients(a=1.0))
    y = path.forward(np.sin(np.pi * grid.x))
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


def test_dense_transpose_exactness(full_coeffs):
    grid = build_grid(1.0, 8, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(4, 1.0)
    st = TreeStepper(grid, tree, full_coeffs)
    fwd = 2.0 ** (-tree.M) * forward_state_matrix(st).T
    bwd = backward_state_matrix(st)
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
    with pytest.warns(RuntimeWarning, match="explicit lower-order"):
        TreeStepper(grid, tree, ProblemCoefficients(a=0.05, a1=0.0, b1=1.0))


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


def test_backward_shape_validation(grid16, tree6, full_coeffs):
    st = TreeStepper(grid16, tree6, full_coeffs)
    with pytest.raises(ValueError):
        st.backward(np.zeros((3, grid16.N)), mode="generic")


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
