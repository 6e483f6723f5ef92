"""Binary scenario tree for the driving noise and the algebra of adapted fields.

The Brownian motion is replaced by a recombining-free binary tree: at every
step the increment is +sqrt(dt) or -sqrt(dt) with probability 1/2, so level n
holds 2^n nodes of weight 2^-n.  This weak order-1 approximation is chosen
because backward equations solve *exactly* on it (the martingale part is a
finite difference of sibling values, no regression), which in turn makes the
duality pairings used by HUM exact in floating point.

Child ordering convention: node j at level n has children 2j ("+" branch) and
2j+1 ("-" branch) at level n+1.  All reductions sum left-to-right within a
level (numpy's deterministic order), so results are reproducible bit for bit.
A single-branch path (`build_path`) is the degenerate tree with one node of
weight 1 per level: the noise-free history, on which the same solvers run with
the martingale part identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ScenarioTree",
    "AdaptedField",
    "build_tree",
    "build_path",
    "expectation",
    "qt_integral",
    "martingale_part",
    "reconstruct_children",
    "mean_square_norm",
]

DEFAULT_DEPTH_CAP = 16


@dataclass(frozen=True)
class ScenarioTree:
    """Binary tree of Brownian histories over [0, T] with M steps.

    With branching=False (see `build_path`) every level holds a single node
    of weight 1.
    """

    M: int
    T: float
    dt: float
    sqrt_dt: float
    times: np.ndarray = field(repr=False)
    branching: bool = True

    def n_nodes(self, level: int) -> int:
        """Nodes at a level; refused past the depth cap, which bounds every per-node array."""
        if not 0 <= level <= self.M:
            raise ValueError(f"level {level} outside 0..{self.M}")
        if not self.branching:
            return 1
        if self.M > DEFAULT_DEPTH_CAP:
            nodes = (1 << (self.M + 1)) - 1
            mb = nodes * 64 * 8 / 1e6  # one N=64 field, float64
            raise ValueError(
                f"M = {self.M} exceeds the depth cap {DEFAULT_DEPTH_CAP}: {nodes} nodes "
                f"(~{mb:.0f} MB for a single N=64 field)")
        return 1 << level

    def node_weight(self, level: int) -> float:
        return 2.0 ** (-level) if self.branching else 1.0

    @property
    def total_nodes(self) -> int:
        return (1 << (self.M + 1)) - 1 if self.branching else self.M + 1


def build_tree(M: int, T: float) -> ScenarioTree:
    """Build the tree; `ScenarioTree.n_nodes` refuses per-node arrays past the depth cap."""
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    return replace(build_path(M, T), branching=True)


def build_path(M: int, T: float) -> ScenarioTree:
    """Single-branch path over [0, T] with M steps: one node of weight 1 per level.

    It holds M + 1 nodes instead of 2^(M+1) - 1, so it has no depth cap.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    dt = T / M
    times = dt * np.arange(M + 1)
    return ScenarioTree(M=int(M), T=float(T), dt=dt, sqrt_dt=float(np.sqrt(dt)), times=times,
                        branching=False)


class AdaptedField:
    """One spatial vector per tree node, levels 0..n_levels-1.

    Level n is stored as an array of shape (2^n, N), or (1, N) at every level
    on a single-branch path (told apart by level 1).  Adaptedness is
    structural: solvers only ever write level n from data at levels <= n
    (forward) or define level n from its children after the fact (backward).
    """

    def __init__(self, levels):
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        path = len(self.levels) > 1 and self.levels[1].shape[:1] == (1,)
        for n, a in enumerate(self.levels):
            rows = 1 if path else 1 << n
            if a.ndim != 2 or a.shape[0] != rows:
                raise ValueError(f"level {n} must have shape ({rows}, N), got {a.shape}")

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, n: int) -> np.ndarray:
        return self.levels[n]

    @property
    def n_space(self) -> int:
        return self.levels[0].shape[1]

    def copy(self) -> "AdaptedField":
        return AdaptedField([a.copy() for a in self.levels])

    @classmethod
    def zeros(cls, n_levels: int, n_space: int) -> "AdaptedField":
        return cls([np.zeros((1 << n, n_space)) for n in range(n_levels)])

    @classmethod
    def from_function(cls, tree: ScenarioTree, grid, fn, n_levels: int | None = None) -> "AdaptedField":
        """Deterministic field fn(t, x) replicated across each level's nodes."""
        n_levels = tree.M + 1 if n_levels is None else n_levels
        levels = []
        for n in range(n_levels):
            row = np.broadcast_to(np.asarray(fn(tree.times[n], grid.x), dtype=float), (grid.N,))
            levels.append(np.tile(row, (tree.n_nodes(n), 1)))
        return cls(levels)

    @classmethod
    def random(cls, tree: ScenarioTree, n_space: int, rng: np.random.Generator,
               n_levels: int | None = None) -> "AdaptedField":
        n_levels = tree.M + 1 if n_levels is None else n_levels
        return cls([rng.standard_normal((tree.n_nodes(n), n_space)) for n in range(n_levels)])


def expectation(tree: ScenarioTree, field, level: int) -> np.ndarray:
    """Probability-weighted node average at a level.

    Reduces by successive sibling means (exact halving at every fold), so the
    result coincides bit for bit with iterated conditional expectations: the
    tower property is exact by construction, and the reduction order is fixed.
    """
    vals = np.asarray(field[level], dtype=float)
    if vals.shape[0] != tree.n_nodes(level):
        raise ValueError(f"level {level} expects {tree.n_nodes(level)} nodes, got {vals.shape[0]}")
    while vals.shape[0] > 1:
        vals = 0.5 * (vals[0::2] + vals[1::2])
    return vals[0].copy()


def qt_integral(tree: ScenarioTree, grid, field, square: bool = False,
                mask: np.ndarray | None = None) -> float:
    """Time-space-probability integral with left-endpoint time quadrature.

    Sums dt * 2^-n * h * field (or field squared) over the levels 0..M-1 the
    field holds; `mask` restricts the spatial sum (e.g. to G0, as in the
    backward-HUM control cost).
    """
    total = 0.0
    for n in range(min(len(field), tree.M)):
        vals = np.asarray(field[n], dtype=float)
        if mask is not None:
            vals = vals[:, mask]
        block = float(np.sum(vals * vals)) if square else float(np.sum(vals))
        total += tree.dt * tree.node_weight(n) * grid.h * block
    return total


def martingale_part(tree: ScenarioTree, child_values) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and martingale coefficient from sibling pairs.

    Given level n+1 values (2^{n+1}, N) returns
    E_n = (v_plus + v_minus)/2 and Z_n = (v_plus - v_minus)/(2 sqrt(dt)),
    both of shape (2^n, N).
    """
    vals = np.asarray(child_values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[0] % 2:
        raise ValueError(f"child level must hold an even number >= 2 of nodes, got shape {vals.shape}")
    plus, minus = vals[0::2], vals[1::2]
    cond_mean = 0.5 * (plus + minus)
    z = 0.5 * (plus - minus) / tree.sqrt_dt
    return cond_mean, z


def reconstruct_children(tree: ScenarioTree, cond_mean, z) -> np.ndarray:
    """Inverse of martingale_part: children = E_n +/- Z_n * sqrt(dt)."""
    cond_mean = np.asarray(cond_mean, dtype=float)
    bump = np.asarray(z, dtype=float) * tree.sqrt_dt
    out = np.empty((2 * cond_mean.shape[0], cond_mean.shape[1]))
    out[0::2] = cond_mean + bump
    out[1::2] = cond_mean - bump
    return out


def mean_square_norm(tree: ScenarioTree, grid, field, level: int) -> float:
    """E of the squared discrete L2 norm at a level: 2^-n * h * sum of squares."""
    vals = np.asarray(field[level], dtype=float)
    return tree.node_weight(level) * grid.h * float(np.sum(vals * vals))
