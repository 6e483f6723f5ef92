from pathlib import Path

import numpy as np
import pytest

from spcontrol import (AdaptedField, build_grid, build_path, build_tree, expectation,
                       martingale_part, qt_integral, reconstruct_children)


def test_build_tree_basic_counts():
    tree = build_tree(2, 1.0)
    assert tree.total_nodes == 7
    assert tree.dt == pytest.approx(0.5)
    assert tree.node_weight(2) == pytest.approx(0.25)
    tree = build_tree(8, 2.0)
    assert tree.total_nodes == 511
    assert tree.dt == pytest.approx(0.25)


def test_build_tree_guards():
    with pytest.raises(ValueError, match="M = 20 exceeds the depth cap 16"):
        build_tree(20, 1.0).n_nodes(0)
    with pytest.raises(ValueError):
        build_tree(1, 1.0)
    with pytest.raises(ValueError):
        build_tree(4, 0.0)


def test_only_scenario_names_the_depth_cap():
    # the cap is decided where per-node arrays are sized (ScenarioTree.n_nodes) and nowhere else
    package = Path(__file__).resolve().parents[1] / "src" / "spcontrol"
    namers = {path.name for path in package.glob("*.py") if "DEFAULT_DEPTH_CAP" in path.read_text()}
    assert namers == {"scenario.py"}


def test_level_weights_sum_to_one():
    tree = build_tree(6, 1.0)
    for n in range(tree.M + 1):
        assert tree.n_nodes(n) * tree.node_weight(n) == pytest.approx(1.0)


def _brownian_sums(tree, n_space):
    """Field whose node values are the accumulated increment sums."""
    levels = [np.zeros((1, n_space))]
    for n in range(tree.M):
        prev = levels[n]
        cur = np.empty((2 * prev.shape[0], n_space))
        cur[0::2] = prev + tree.sqrt_dt
        cur[1::2] = prev - tree.sqrt_dt
        levels.append(cur)
    return AdaptedField(levels)


def test_expectation_constant_and_martingale():
    tree = build_tree(5, 1.0)
    const = AdaptedField([np.full((1 << n, 3), 2.5) for n in range(tree.M + 1)])
    assert np.allclose(expectation(tree, const, 4), 2.5)
    w = _brownian_sums(tree, 2)
    for n in range(tree.M + 1):
        assert np.allclose(expectation(tree, w, n), 0.0, atol=1e-14)
    # increments have the exact Brownian variance
    leaf_sq = AdaptedField([lvl ** 2 for lvl in w.levels])
    assert np.allclose(expectation(tree, leaf_sq, tree.M), tree.M * tree.dt)


def test_expectation_matches_brute_force_enumeration():
    tree = build_tree(3, 1.0)
    rng = np.random.default_rng(3)
    field = AdaptedField.random(tree, 4, rng)
    # oracle: explicit 2^3-term weighted sum at the leaf level
    acc = np.zeros(4)
    for j in range(8):
        acc += field[3][j] * (0.5 ** 3)
    assert np.allclose(expectation(tree, field, 3), acc, atol=1e-15)


def test_qt_integral_constant_field():
    grid = build_grid(1.0, 15, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(4, 1.0)
    ones = AdaptedField([np.ones((1 << n, grid.N)) for n in range(tree.M + 1)])
    total = qt_integral(tree, grid, ones)
    # rectangle rule: h * N = L - h, times T
    assert total == pytest.approx(tree.T * grid.h * grid.N, rel=1e-12)
    masked = qt_integral(tree, grid, ones, mask=grid.g0_mask)
    assert masked == pytest.approx(tree.T * grid.h * grid.g0_mask.sum(), rel=1e-12)
    # one-cell tolerance against the interval measure
    assert abs(masked - (grid.g0[1] - grid.g0[0]) * tree.T) <= grid.h * tree.T


def test_qt_integral_time_ramp():
    grid = build_grid(1.0, 31, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(10, 1.0)
    ramp = AdaptedField.from_function(tree, grid, lambda t, x: t * np.ones_like(x))
    total = qt_integral(tree, grid, ramp)
    exact = tree.T ** 2 * grid.L / 2.0
    assert abs(total - exact) <= (tree.dt + grid.h) * tree.T * grid.L


def test_qt_integral_linearity_and_positivity():
    grid = build_grid(1.0, 8, (0.3, 0.8), (0.45, 0.65))
    tree = build_tree(4, 1.0)
    rng = np.random.default_rng(0)
    f = AdaptedField.random(tree, grid.N, rng)
    g = AdaptedField.random(tree, grid.N, rng)
    lin = AdaptedField([2.0 * a + 3.0 * b for a, b in zip(f.levels, g.levels)])
    assert qt_integral(tree, grid, lin) == pytest.approx(
        2.0 * qt_integral(tree, grid, f) + 3.0 * qt_integral(tree, grid, g), rel=1e-12)
    assert qt_integral(tree, grid, f, square=True) > 0.0


def test_martingale_part_closed_forms():
    tree = build_tree(4, 1.0)
    same = np.tile(np.array([[1.0, 2.0]]), (8, 1))
    mean, z = martingale_part(tree, same)
    assert np.all(z == 0.0)
    assert np.allclose(mean, [1.0, 2.0])

    # children equal to the increment itself represent W: Z = 1
    incr = np.empty((8, 1))
    incr[0::2] = tree.sqrt_dt
    incr[1::2] = -tree.sqrt_dt
    _, z = martingale_part(tree, incr)
    assert np.allclose(z, 1.0, atol=1e-14)

    sigma = 0.7
    expo = np.empty((8, 1))
    expo[0::2] = np.exp(sigma * tree.sqrt_dt)
    expo[1::2] = np.exp(-sigma * tree.sqrt_dt)
    _, z = martingale_part(tree, expo)
    assert np.allclose(z, np.sinh(sigma * tree.sqrt_dt) / tree.sqrt_dt, rtol=1e-13)
    assert z[0, 0] == pytest.approx(sigma, rel=2 * sigma ** 2 * tree.dt)


def test_tower_property_exact():
    tree = build_tree(6, 1.0)
    rng = np.random.default_rng(5)
    field = AdaptedField.random(tree, 3, rng)
    # expectation of the conditional means equals the level expectation, bitwise
    mean, _ = martingale_part(tree, field[4])
    lifted = AdaptedField([field[n] for n in range(3)] + [mean])
    assert np.array_equal(expectation(tree, lifted, 3), expectation(tree, field, 4))


def test_martingale_reconstruction():
    # sibling sums/differences exactly representable (short mantissas) and
    # sqrt(dt) a power of two: the round trip is bitwise
    tree = build_tree(4, 4.0)
    assert tree.sqrt_dt == 1.0
    rng = np.random.default_rng(6)
    children = rng.integers(-10_000, 10_000, size=(16, 5)) / 1024.0
    mean, z = martingale_part(tree, children)
    assert np.array_equal(reconstruct_children(tree, mean, z), children)

    # generic data and dt: exact to one rounding
    tree = build_tree(6, 1.0)
    children = rng.standard_normal((64, 5))
    mean, z = martingale_part(tree, children)
    back = reconstruct_children(tree, mean, z)
    assert np.abs(back - children).max() <= 4e-16 * np.abs(children).max()


def test_martingale_split_and_reconstruction_keep_the_textbook_bits():
    # the in-place forms round exactly as the plain expressions do
    tree = build_tree(8, 1.0)
    rng = np.random.default_rng(12)
    children = rng.standard_normal((256, 128))
    mean, z = martingale_part(tree, children)
    plus, minus = children[0::2], children[1::2]
    assert np.array_equal(mean, 0.5 * (plus + minus))
    assert np.array_equal(z, 0.5 * (plus - minus) / tree.sqrt_dt)
    c, d = rng.standard_normal((2, 128, 128))
    out = reconstruct_children(tree, c, d)
    assert np.array_equal(out[0::2], c + d * tree.sqrt_dt)
    assert np.array_equal(out[1::2], c - d * tree.sqrt_dt)


def test_single_path_tree_and_fields():
    path = build_path(5, 2.0)
    assert [path.n_nodes(n) for n in range(6)] == [1] * 6
    assert path.node_weight(3) == 1.0 and path.total_nodes == 6
    assert np.array_equal(path.times, build_tree(5, 2.0).times)
    field = AdaptedField([np.ones((1, 3))] * 4)
    assert len(field) == 4
    with pytest.raises(ValueError, match="level 2"):
        AdaptedField([np.ones((1, 3)), np.ones((1, 3)), np.ones((2, 3))])
    with pytest.raises(ValueError, match="level 2"):
        AdaptedField([np.ones((1, 3)), np.ones((2, 3)), np.ones((1, 3))])
    with pytest.raises(ValueError):
        build_path(0, 1.0)
