"""Randomized laws: each fast path against its oracle on drawn well-posed instances.

The draws are derandomized, so every run tests the same instances.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from test_control import _stencil_gram  # noqa: E402
from test_experiments import _assert_power_blocks_are_the_loop  # noqa: E402

from spcontrol import (ProblemCoefficients, TreeStepper, backward_state_matrix, build_grid,  # noqa: E402
                       build_path, build_tree, duality_gap, forward_state_matrix)
from spcontrol.carleman import (build_psi, carleman_ratio_backward, eval_weights,  # noqa: E402
                                lambda_threshold)
from spcontrol.grid import gradient  # noqa: E402
from spcontrol.control import _ForwardDual, _forward_pencil  # noqa: E402
from spcontrol.experiments import MIN_POWER_ITERS  # noqa: E402

LAWS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@hs.composite
def instances(draw):
    """A stepper on a well-posed problem, random leaf data for it and the generator that drew it.

    N 6..13, M 2..4, a tree or a path over T in [0.25, 1], G0 a random run of interior nodes
    off the boundary nodes, and coefficients constant or varying in (t, x): a >= 0.6 a0 with
    |b2| <= 0.9 sqrt(1.2 a0), so 2a - b2^2 > 0, and |a1| <= 1, b1^2 <= 0.3 a0, so the
    explicit terms stay below the warning dt (|b1|^2 / beta + |a1|) > 1.
    """
    n, m = draw(hs.integers(6, 13)), draw(hs.integers(2, 4))
    build = draw(hs.sampled_from([build_tree, build_path]))
    first = draw(hs.integers(1, n - 2))
    last = draw(hs.integers(first, n - 2))
    h = 1.0 / (n + 1)
    grid = build_grid(1.0, n, ((first + 0.5) * h, (last + 1.5) * h), ((first + 0.75) * h, (last + 1.25) * h))

    def coefficient(scale):
        c, k = scale * draw(hs.floats(-1.0, 1.0)), draw(hs.integers(1, 3))
        return (lambda t, x: c * np.cos(k * np.pi * x + t)) if draw(hs.booleans()) else c

    a0, k = draw(hs.floats(0.1, 1.5)), draw(hs.integers(1, 3))
    a = (lambda t, x: a0 * (1.0 + 0.4 * np.sin(k * np.pi * x + t))) if draw(hs.booleans()) else a0
    coeffs = ProblemCoefficients(a=a, a1=coefficient(1.0), a2=coefficient(1.0),
                                 b1=coefficient(np.sqrt(0.3 * a0)), b2=coefficient(0.9 * np.sqrt(1.2 * a0)),
                                 b=coefficient(1.0))
    st = TreeStepper(grid, build(m, draw(hs.floats(0.25, 1.0))), coeffs)
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    return st, rng.standard_normal((st.tree.n_nodes(st.tree.M), n)), rng


@LAWS
@given(instances())
def test_forward_gram_on_pair_maps_is_the_stencil_pair(instance):
    """`_ForwardDual.gram` on the sibling-pair maps: Gram p and every unpacked by-product level
    (z_half, Z, z(0), y) within 1e-13 of the stencil pair's max on that field."""
    st, p, _ = instance
    dual = _ForwardDual(st)
    gp, products = dual.gram(p)
    gp_ref, ref = _stencil_gram(st, p)
    for levels, ref_levels in zip(([gp], *dual.unpack(products)), ([gp_ref], *ref), strict=True):
        top = max(float(np.max(np.abs(a))) for a in ref_levels)
        assert len(levels) == len(ref_levels)
        for a, b in zip(levels, ref_levels):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * top


@LAWS
@given(instances())
def test_duality_identity_holds_to_rounding(instance):
    """The forward level step and the backward one are transposes: the duality gap of the
    controlled pair at random (y0, u, v, zT) is at most 1e-10."""
    st, zT, rng = instance
    grid, tree = st.grid, st.tree
    y0 = rng.standard_normal(grid.N)
    u, v = ([rng.standard_normal((tree.n_nodes(n), grid.N)) for n in range(tree.M)] for _ in range(2))
    assert duality_gap(grid, tree, st.tab, y0, u, v, zT) <= 1e-10


@LAWS
@given(instances())
def test_dense_backward_map_is_the_forward_transpose(instance):
    """The dense maps y0 -> y(T) and zT -> z(0) are transposes under the leaf weight: every
    entry within 1e-12 of the map's max entry."""
    st = instance[0]
    fwd = st.tree.node_weight(st.tree.M) * forward_state_matrix(st).T
    bwd = backward_state_matrix(st)
    assert np.max(np.abs(fwd - bwd)) <= 1e-12 * np.max(np.abs(fwd))


@LAWS
@given(instances(), hs.sampled_from([("adjoint_1_3", False, False), ("sources", True, True),
                                     ("sources", True, False), ("sources", False, True),
                                     ("sources", False, False)]))
def test_node_sum_carleman_quadrature_is_the_node_by_node_one(instance, case):
    """`carleman_ratio_backward` on per-level node sums, folding as it goes: every lhs and rhs term of
    two weight sets within 1e-13 (relative) of the terms summed node by node over the
    quadrature levels of `backward()`'s full solution, the sources given (random or None) or
    the adjoint_1_3 couplings -a1 z_half - a2 Z, b1 z_half + b2 Z from the coefficient tables."""
    (st, zT, rng), (mode, with_f0, with_div) = instance, case
    grid, tree, tab = st.grid, st.tree, st.tab
    f0, f_div = ([rng.standard_normal((tree.n_nodes(n), grid.N)) for n in range(tree.M)] if given else None
                 for given in (with_f0, with_div))
    exclude = int(rng.integers(0, (tree.M - 2) // 2 + 1))
    psi = build_psi(grid, (0.3, 0.7))
    lam0 = lambda_threshold(1.0, psi, tree.T)
    weight_sets = [eval_weights(psi, m * lam0, mu, tree) for m, mu in ((1.0, 1.0), (3.0, 1.5))]
    got = carleman_ratio_backward(grid, tree, tab, weight_sets, zT, mode, f0, f_div, exclude, stepper=st)
    if mode == "adjoint_1_3":
        sol = st.backward(zT, mode="adjoint_1_3")
        f0 = [-tab.a1[n] * sol.z_half[n] - tab.a2[n] * sol.Z[n] for n in range(tree.M)]
        f_div = [tab.b1[n] * sol.z_half[n] + tab.b2[n] * sol.Z[n] for n in range(tree.M)]
    else:
        sol = st.backward(zT, mode="generic", f0=f0, f_div=f_div)
    levels = range(1 + exclude, tree.M - exclude)
    for weights, ratio in zip(weight_sets, got, strict=True):
        lam, mu = weights.lam, weights.mu
        shift = 2.0 * max(weights.l[n - 1].max() for n in levels)

        def integral(field, power, mask=1.0, grad=False):
            if field is None:
                return 0.0
            total = 0.0
            for n in levels:
                w = mask * np.exp(2.0 * weights.l[n - 1] + power * weights.log_phi[n - 1] - shift)
                for node in field[n]:
                    f = gradient(grid, node[None])[0] if grad else node
                    total += tree.dt * tree.node_weight(n) * grid.h * float(np.sum(w * f * f))
            return total

        want = {"state": lam ** 3 * mu ** 4 * integral(sol.z, 3.0),
                "gradient": lam * mu * mu * integral(sol.z, 1.0, grad=True),
                "observation": lam ** 3 * mu ** 4 * integral(sol.z, 3.0, grid.g0_mask),
                "f0": integral(f0, 0.0), "flux": lam * lam * mu * mu * integral(f_div, 2.0),
                "martingale": lam * lam * mu * mu * integral(sol.Z, 2.0)}
        terms = {**ratio.lhs_terms, **ratio.rhs_terms}
        assert terms.keys() == want.keys()
        for name, value in want.items():
            assert abs(terms[name] - value) <= 1e-13 * abs(value), name


@LAWS
@given(instances())
def test_power_blocks_are_the_power_loop_on_forward_pencils(instance):
    """On the forward pencil, the block power iteration's quotients within 1e-12 (relative) of
    the one-iterate-at-a-time loop's, from the same seeded start, over one to three blocks."""
    st, _, rng = instance
    iters, seed = int(rng.integers(MIN_POWER_ITERS, 91)), int(rng.integers(2 ** 32))
    _assert_power_blocks_are_the_loop(*_forward_pencil(st), iters, seed, 1e-12)


@hs.composite
def t_free_pencils(draw):
    """Grid, coefficients constant or varying in x only, and a tree or path on one dt, with
    an M-level depth and the depths k <= M to read the forward pencil at."""
    n, m = draw(hs.integers(4, 10)), draw(hs.integers(2, 7))
    grid = build_grid(1.0, n, (0.2, 0.8), (0.35, 0.65))

    def coefficient(scale):
        c, k = scale * draw(hs.floats(-1.0, 1.0)), draw(hs.integers(1, 3))
        return (lambda t, x: c * np.cos(k * np.pi * x)) if draw(hs.booleans()) else c

    a0 = draw(hs.floats(0.1, 1.5))
    coeffs = ProblemCoefficients(a=a0, a1=coefficient(1.0), a2=coefficient(1.0),
                                 b1=coefficient(np.sqrt(0.3 * a0)), b=coefficient(1.0))
    tree = draw(hs.sampled_from([build_tree, build_path]))(m, draw(hs.floats(0.25, 1.0)))
    depths = sorted(draw(hs.lists(hs.integers(1, m), min_size=1, max_size=4)))
    return grid, coeffs, tree, depths


@LAWS
@given(t_free_pencils())
def test_forward_pencil_at_depth_k_is_the_k_level_pencil(case):
    """With no coefficient depending on t, the forward pencil an M-level recursion gives at
    depth k is bit for bit the pencil of k levels of the same dt (the first k of the M)."""
    grid, coeffs, tree, depths = case
    pencils = _forward_pencil(TreeStepper(grid, tree, coeffs), depths)
    for k, (energy, obs) in zip(depths, pencils, strict=True):
        short = dataclasses.replace(tree, M=k, T=float(tree.times[k]), times=tree.times[:k + 1])
        ref_energy, ref_obs = _forward_pencil(TreeStepper(grid, short, coeffs))
        assert np.array_equal(energy, ref_energy) and np.array_equal(obs, ref_obs)
