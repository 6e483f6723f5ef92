"""1-D Dirichlet mesh and the discrete spatial operators everything else uses.

All fields live on the interior nodes x_i = i*h, i = 1..N, of a uniform mesh
over (0, L) with homogeneous Dirichlet ends (ghost values are zero).  Two
operators fix the discrete calculus of the lower-order terms (the steppers
assemble the conservative stencil of d/dx(a(x) d/dx) from face samples of a
themselves, directly into their tridiagonal LDL^T implicit factor):

* centered first-derivative stencil (zero ghost closure at the boundary);
* weak divergence, defined as minus the transpose of that stencil, so the
  discrete integration-by-parts identity <div q, u> = -<q, grad u> holds to
  rounding.  The tree solvers rely on this exact pairing, not on the
  boundary consistency order.  With zero ghosts the stencil is skew, so the
  weak divergence is the stencil itself and its transpose is its negative.

Grids are immutable after construction; all functions here are pure and safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpatialGrid",
    "build_grid",
    "gradient",
    "gradient_transpose",
    "weak_divergence",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform interior mesh of (0, L) with control-region node masks.

    g0_mask marks nodes inside the control/observation region G0, g1_mask the
    sub-region G1 used to build the Carleman weight; G1 is strictly inside G0
    and G0 strictly inside (0, L).
    """

    L: float
    N: int
    h: float
    x: np.ndarray
    g0_mask: np.ndarray
    g1_mask: np.ndarray
    g0: tuple[float, float]
    g1: tuple[float, float]

    @property
    def faces(self) -> np.ndarray:
        """Midpoint coordinates x_{i+1/2}, i = 0..N (N+1 values)."""
        return (np.arange(self.N + 1) + 0.5) * self.h

    def inner(self, u, v) -> float:
        """Discrete L2 inner product h * sum(u*v) over interior nodes."""
        return self.h * float(np.dot(np.ravel(u), np.ravel(v)))


def build_grid(L: float, N: int, g0: tuple[float, float], g1: tuple[float, float]) -> SpatialGrid:
    """Build the interior mesh and the G0/G1 node masks.

    g0 and g1 are open intervals with g1 strictly inside g0 and g0 strictly
    inside (0, L); a node belongs to a mask iff it lies strictly inside the
    interval.
    """
    if N < 4:
        raise ValueError(f"N must be >= 4, got {N}")
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    a0, b0 = map(float, g0)
    a1, b1 = map(float, g1)
    if not (0.0 < a0 < b0 < L):
        raise ValueError(f"g0 = ({a0}, {b0}) must satisfy 0 < a < b < {L} (must not touch the boundary)")
    if not (a0 < a1 < b1 < b0):
        raise ValueError(f"g1 = ({a1}, {b1}) is not strictly contained in g0 = ({a0}, {b0})")

    h = L / (N + 1)
    x = h * np.arange(1, N + 1)
    g0_mask = (x > a0) & (x < b0)
    g1_mask = (x > a1) & (x < b1)
    if not g0_mask.any():
        raise ValueError(f"g0 = ({a0}, {b0}) contains no mesh node at N = {N}")
    if g0_mask[0] or g0_mask[-1]:
        raise ValueError("g0 touches the first or last interior node; refine or shrink g0")
    return SpatialGrid(L=float(L), N=int(N), h=h, x=x, g0_mask=g0_mask, g1_mask=g1_mask,
                       g0=(a0, b0), g1=(a1, b1))


def gradient(grid: SpatialGrid, u) -> np.ndarray:
    """Centered difference with zero ghost values: (u_{i+1} - u_{i-1}) / 2h."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != grid.N:
        raise ValueError(f"expected last axis of length {grid.N}, got shape {u.shape}")
    two_h = 2.0 * grid.h
    out = np.empty_like(u)
    out[..., 0] = u[..., 1] / two_h
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / two_h
    out[..., -1] = -u[..., -2] / two_h
    return out


def gradient_transpose(grid: SpatialGrid, q) -> np.ndarray:
    """Exact transpose of `gradient`: the stencil is skew, so this is -gradient."""
    return -gradient(grid, q)


def weak_divergence(grid: SpatialGrid, q) -> np.ndarray:
    """Divergence in the duality sense: weak_divergence = -(gradient)^T = gradient."""
    return gradient(grid, q)
