import numpy as np
import pytest

from spcontrol import (PathStepper, ProblemCoefficients, build_grid, gradient,
                       gradient_transpose, weak_divergence)


def test_build_grid_masks_small_example():
    grid = build_grid(1.0, 7, (0.25, 0.75), (0.4, 0.6))
    assert grid.h == pytest.approx(0.125)
    assert list(np.where(grid.g0_mask)[0] + 1) == [3, 4, 5]
    assert list(np.where(grid.g1_mask)[0] + 1) == [4]


def test_build_grid_rejects_bad_regions():
    with pytest.raises(ValueError):
        build_grid(1.0, 7, (0.0, 0.5), (0.1, 0.2))  # g0 touches the boundary
    with pytest.raises(ValueError):
        build_grid(1.0, 7, (0.25, 0.75), (0.2, 0.6))  # g1 not inside g0
    with pytest.raises(ValueError):
        build_grid(1.0, 3, (0.25, 0.75), (0.4, 0.6))  # N too small


def test_build_grid_mask_count_by_enumeration():
    # independent oracle: enumerate x_i = i*h inside the open interval
    L, N, g0 = 2.0, 15, (0.5, 1.5)
    h = L / (N + 1)
    expected = sum(1 for i in range(1, N + 1) if g0[0] < i * h < g0[1])
    assert expected == 7
    grid = build_grid(L, N, g0, (0.9, 1.1))
    assert int(grid.g0_mask.sum()) == expected


# The elliptic stencil is tested through the band the steppers factor: one
# implicit step y1 = S^{-1} y0 with S = I - dt*E and all lower-order terms off.


def _implicit_step(grid, a, dt):
    return PathStepper(grid, 1, dt, ProblemCoefficients(a=a))


def _stencil(grid, a, dt=1e-3):
    """Dense E recovered from the stepper's implicit step: E = (I - S) / dt."""
    step = _implicit_step(grid, a, dt)
    s_inv = np.stack([step.forward(e)[1] for e in np.eye(grid.N)], axis=1)
    return (np.eye(grid.N) - np.linalg.inv(s_inv)) / dt


def test_elliptic_constant_coefficient_stencil():
    # N = 4 interior nodes at h = 0.2: diagonal -2/h^2, off-diagonal 1/h^2
    grid = build_grid(1.0, 4, (0.3, 0.8), (0.45, 0.65))
    dense = _stencil(grid, 1.0)
    assert np.allclose(np.diag(dense), -50.0, rtol=1e-10)
    assert np.allclose(np.diag(dense, 1), 25.0, rtol=1e-10)
    assert np.allclose(np.diag(dense, -1), 25.0, rtol=1e-10)
    assert np.allclose(np.diag(dense, 2), 0.0, atol=1e-9)


def test_elliptic_eigenfunction_second_order():
    # the discrete sine mode decays by 1/(1 + dt*lambda_h) per implicit step,
    # lambda_h = pi^2 + O(h^2)
    dt = 0.1
    errs = []
    for N in (32, 65):
        grid = build_grid(1.0, N, (0.3, 0.8), (0.45, 0.65))
        u = np.sin(np.pi * grid.x)
        y1 = _implicit_step(grid, 1.0, dt).forward(u)[1]
        errs.append(np.abs(y1 - u / (1.0 + dt * np.pi ** 2)).max() / np.abs(u).max())
    # h halves from N=32 to N=65; O(h^2) means error drops by >= 3.5
    assert errs[0] / errs[1] >= 3.5


def test_elliptic_symmetry_variable_coefficient():
    # the implicit solve is symmetric, which the transposed sweeps rely on
    grid = build_grid(1.0, 12, (0.3, 0.8), (0.45, 0.65))
    step = _implicit_step(grid, lambda t, x: 1.0 + x, 0.05)
    rng = np.random.default_rng(4)
    for _ in range(10):
        u, v = rng.standard_normal((2, grid.N))
        lhs = float(np.dot(step.forward(u)[1], v))
        rhs = float(np.dot(u, step.forward(v)[1]))
        assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(u) * np.linalg.norm(v)


def test_elliptic_rejects_nonpositive_coefficient():
    grid = build_grid(1.0, 8, (0.3, 0.8), (0.45, 0.65))
    with pytest.raises(ValueError, match="positive"):
        _implicit_step(grid, lambda t, x: x - 0.5, 0.1)


def test_elliptic_spd_by_inverse_power_iteration():
    grid = build_grid(1.0, 8, (0.3, 0.8), (0.45, 0.65))
    dense = -_stencil(grid, lambda t, x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    assert np.allclose(dense, dense.T, rtol=0.0, atol=1e-9 * np.abs(dense).max())
    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.N)
    for _ in range(200):
        v = np.linalg.solve(dense, v)
        v /= np.linalg.norm(v)
    lam_min = float(v @ dense @ v)
    assert lam_min > 0.0
    # discrete Poincare scale: smallest eigenvalue close to beta * pi^2
    assert lam_min >= 0.5 * np.pi ** 2


def test_gradient_divergence_zero():
    grid = build_grid(1.0, 8, (0.3, 0.8), (0.45, 0.65))
    assert np.all(gradient(grid, np.zeros(grid.N)) == 0.0)
    assert np.all(weak_divergence(grid, np.zeros(grid.N)) == 0.0)


def test_weak_divergence_is_negative_transpose():
    grid = build_grid(1.0, 16, (0.3, 0.8), (0.45, 0.65))
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(grid.N)
        q = rng.standard_normal(grid.N)
        lhs = grid.inner(weak_divergence(grid, q), u)
        rhs = -grid.inner(q, gradient(grid, u))
        scale = np.linalg.norm(u) * np.linalg.norm(q)
        assert abs(lhs - rhs) <= 1e-13 * scale


@pytest.mark.parametrize("N", [4, 33, 65])
def test_skew_stencil_serves_all_three_operators(N):
    # with zero ghosts the centered stencil is skew: its transpose is its
    # negative and the weak divergence is the stencil itself, bit for bit
    grid = build_grid(1.0, N, (0.3, 0.8), (0.45, 0.65))
    rng = np.random.default_rng(N)
    q = rng.standard_normal((5, N)) * 10.0 ** rng.uniform(-5.0, 5.0, (5, N))
    assert np.array_equal(weak_divergence(grid, q), gradient(grid, q))
    assert np.array_equal(gradient_transpose(grid, q), -gradient(grid, q))


def test_gradient_transpose_matrices_match():
    grid = build_grid(1.0, 9, (0.3, 0.8), (0.45, 0.65))
    eye = np.eye(grid.N)
    d = np.stack([gradient(grid, eye[j]) for j in range(grid.N)], axis=1)
    dt = np.stack([gradient_transpose(grid, eye[j]) for j in range(grid.N)], axis=1)
    assert np.array_equal(d.T, dt)


def test_gradient_quadratic_profile():
    grid = build_grid(1.0, 20, (0.3, 0.8), (0.45, 0.65))
    u = grid.x * (grid.L - grid.x)
    g = gradient(grid, u)
    # centered differences are exact on quadratics (ghost zeros are the true
    # boundary values here)
    assert np.allclose(g, grid.L - 2 * grid.x, atol=1e-13)


def test_gradient_second_order_on_smooth_profile():
    errs = []
    for N in (32, 65):
        grid = build_grid(1.0, N, (0.3, 0.8), (0.45, 0.65))
        u = np.sin(2 * np.pi * grid.x)
        g = gradient(grid, u)
        interior = slice(1, -1)
        err = np.abs(g - 2 * np.pi * np.cos(2 * np.pi * grid.x))[interior].max()
        errs.append(err)
    assert errs[0] / errs[1] >= 3.5
