"""Scenario-tree time steppers for the controlled and adjoint parabolic pairs.

Every equation here is one pair of per-level operators, a drift part A_n and a
noise part B_n, with the diffusion implicit and the lower-order terms explicit
and adapted.  An operator is a triple of coefficient tables (c0, cg, cd) that
maps y to c0*y + cg*grad(y) + weak_div(cd*y).  The forward sweep applies a pair,

    (I - dt*E(t_{n+1})) y_{n+1}^{+/-} = y_n + dt*(A_n y_n + sources) +/- sqrt(dt)*(B_n y_n + v_n)

with E the conservative elliptic stencil: mode general (the controlled forward
problem) has A = (a1, b1, -), B = (a2, b2, -), and mode adjoint_1_5 (the
forward adjoint) A = (-a1, -, b), B = (-a2, -, -).  The backward sweep is its
algebraic transpose: fold each sibling pair through the same SPD solve, split
into conditional mean ("half step" value) and martingale part, then apply the
transposed pair, under the rule (c0, cg, cd)^T = (c0, -cd, -cg), which holds
because weak_div = -grad^T:

    w = S_{n+1}^{-1} children
    z_half_n = (w_+ + w_-)/2,   Z_n = (w_+ - w_-)/(2 sqrt(dt))
    z_n = z_half_n + dt*(A_n^T z_half_n + B_n^T Z_n) - dt*(F0_n + weak_div(F_n))

Mode adjoint_1_3 (the adjoint of the controlled problem) transposes the
general pair, controlled_1_2 (the controlled backward problem) the
adjoint_1_5 pair; uncoupled marches given sources with no pair, and generic, its
transpose, folds given sources F0, F.  Each direction has one level step, which
the sweeps and every per-step N x N map run, and both take their numbers from
the same tables through one routine, so the discrete duality identity

    E<y(T), zT> = <y0, z(0)> + E int_{Q0} u * z_half + E int_Q v * Z

holds to rounding by construction; everything in the HUM construction leans on
that.  Generic mode's correction reads no Z, so where its caller reads none
either, a generic fold solves only the sibling means, S^{-1}((c_+ + c_-)/2)
(S^{-1} is linear, row by row).  Note the two roles of the backward solution:
the nodal values z carry the initial pairing, while the half-step values z_half
carry the space-time pairings and the HUM controls.  On a single-branch path
(`scenario.build_path`) nothing splits: the noise term drops out, Z = 0.

Solvers are pure: steppers hold only immutable factorizations, coefficient
tables and data-independent step matrices (built on first use, the same
whoever builds them, once for each distinct step), so independent solves may
run concurrently.  The implicit solve consumes its right-hand side (the rows
are overwritten by the result), so every caller hands it a buffer of its own;
the solutions `forward` and `backward` return are arrays no later solve touches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import NumericsError
from .grid import SpatialGrid, gradient, weak_divergence
from .scenario import AdaptedField, ScenarioTree, martingale_part, qt_integral, reconstruct_children

__all__ = [
    "ProblemCoefficients",
    "CoefficientTables",
    "ForwardSolution",
    "BackwardSolution",
    "TreeStepper",
    "duality_gap",
    "forward_state_matrix",
    "backward_state_matrix",
]

# Each forward mode's pair (A, B); an operator (c0, cg, cd) names CoefficientTables
# fields, None for an absent term, a leading "-" for the negated table; uncoupled: no pair.
_PAIRS = {"general": (("a1", "b1", None), ("a2", "b2", None)),
          "adjoint_1_5": (("-a1", None, "b"), ("-a2", None, None)), "uncoupled": None}
# the forward pair each backward mode folds with the transpose of
_TRANSPOSES = {"generic": "uncoupled", "adjoint_1_3": "general", "controlled_1_2": "adjoint_1_5"}
# what each mode's sweep applies through TreeStepper.apply (see TreeStepper); no pair, empty rows
_BLOCKS = {**{mode: tuple((op,) for op in pair) if pair else ((), ()) for mode, pair in _PAIRS.items()},
           **{mode: (tuple((("-" + c0).replace("--", ""), cd, cg) for c0, cg, cd in _PAIRS[pair] or ()),)
              for mode, pair in _TRANSPOSES.items()}}
_TABLES = sorted({name for block in _BLOCKS.values() for row in block for op in row for name in op if name})


def _at(n: int, fields: dict) -> dict:
    """Level n of each field given (not None), by name."""
    return {name: field[n] for name, field in fields.items() if field is not None}


def _sample(spec, times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tabulate a scalar/callable coefficient on a times-by-points grid."""
    out = np.empty((times.size, x.size))
    if callable(spec):
        # a callable marked time_independent (cli.compile_expression's x-only expressions) is
        # evaluated at the first time only, and that row is the one every time would give
        once = getattr(spec, "time_independent", False)
        # non-finite samples are reported by the caller, naming the coefficient
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for k, t in enumerate(times[:1] if once else times):
                out[k] = np.broadcast_to(np.asarray(spec(t, x), dtype=float), x.shape)
        if once:
            out[1:] = out[:1]
    else:
        out[:] = float(spec)
    return out


@dataclass(frozen=True)
class CoefficientTables:
    """Coefficients sampled on the time grid; sup-norms cached from samples.

    a_faces holds the diffusion coefficient at faces for every level 0..M
    (the implicit solve at level n uses a_faces[n]); the zeroth-order and
    convection tables are sampled at the left endpoints t_0..t_{M-1} only
    (adapted evaluation).
    """

    times: np.ndarray
    a_faces: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b: np.ndarray
    beta: float
    a1_inf: float
    a2_inf: float
    b1_inf: float
    b2_inf: float
    b_inf: float


class ProblemCoefficients:
    """Coefficient bundle for the forward (1.1)-type and backward (1.2)-type problems.

    Each entry is a constant or a callable f(t, x) -> values: `a` is the
    diffusion coefficient (>= beta > 0), a1/b1 the drift zeroth-order and
    convection coefficients, a2/b2 their diffusion-part counterparts, and `b`
    the convection field of the backward controlled problem.  `sample` rejects
    (ValueError) a non-finite sample, a <= 0, and a violation of stochastic
    parabolicity 2a - b2^2 > 0.
    """

    def __init__(self, a=1.0, a1=0.0, a2=0.0, b1=0.0, b2=0.0, b=0.0):
        self.a, self.a1, self.a2, self.b1, self.b2, self.b = a, a1, a2, b1, b2, b

    def sample(self, grid: SpatialGrid, times: np.ndarray) -> CoefficientTables:
        times = np.asarray(times, dtype=float)
        a_faces = _sample(self.a, times, grid.faces)
        left = times[:-1]
        tabs = {k: _sample(getattr(self, k), left, grid.x) for k in ("a1", "a2", "b1", "b2", "b")}
        # a nan or inf sample carries through the stacked sup norm; only then is the first named
        sup = np.abs(np.stack(tuple(tabs.values()))).max(axis=(1, 2))
        if not (np.isfinite(sup).all() and np.isfinite(a_faces).all()):
            for name, table, at in (("a", a_faces, times), *((k, v, left) for k, v in tabs.items())):
                bad = ~np.isfinite(table).all(axis=1)
                if bad.any():
                    raise ValueError(f"coefficient {name} is not finite at t = {at[bad.argmax()]:.6g}")
        beta = float(a_faces.min())
        if beta <= 0.0:
            raise ValueError(f"diffusion coefficient must stay positive; min sample = {beta}")
        # stochastic parabolicity 2a - b2^2 > 0: per node the smaller face value of a, at the
        # left endpoints where b2 is sampled
        margin = 2.0 * np.minimum(a_faces[:-1, :-1], a_faces[:-1, 1:]) - tabs["b2"] ** 2
        bad = (margin <= 0.0).any(axis=1)
        if bad.any():
            k = bad.argmax()
            raise ValueError(f"coefficients a and b2 violate stochastic parabolicity: "
                             f"min(2a - b2^2) = {margin[k].min():.6g} <= 0 at t = {left[k]:.6g}")
        return CoefficientTables(times=times, a_faces=a_faces, beta=beta, **tabs,
                                 **{k + "_inf": float(v) for k, v in zip(tabs, sup)})


def step_keys(tab: CoefficientTables) -> list:
    """Per step n, what makes two steps of one dt the same: the bytes (-0.0 is not 0.0) step n reads."""
    steps = np.concatenate((tab.a_faces[1:], tab.a1, tab.a2, tab.b1, tab.b2, tab.b), axis=1)
    return [row.tobytes() for row in steps]


@dataclass
class ForwardSolution:
    """State of a forward solve: y over levels 0..M."""

    y: AdaptedField


@dataclass
class BackwardSolution:
    """State pair of a backward solve.

    z: nodal values over levels 0..M (level M is the terminal datum);
    Z: martingale part over levels 0..M-1;
    z_half: half-step conditional means over levels 0..M-1 (the values the
    duality pairings integrate and the HUM controls inject).
    In controlled_1_2 mode the same slots hold the controlled pair (y, Y).
    """

    z: AdaptedField
    Z: AdaptedField
    z_half: AdaptedField


class TreeStepper:
    """Forward/backward solvers on a scenario tree for one coefficient set.

    A forward mode applies its pair, the column (A; B); a backward mode folds with the
    row (-A^T, -B^T) of the pair it transposes, by -(c0, cg, cd)^T = (-c0, cd, cg).
    Each direction has one level step (`step_up`; `split`, then `correct`), which the
    sweeps run on the tree's levels and the per-step maps on the identity's rows.

    The implicit matrix S_n = I - dt*E(t_n), (E u)_i = [a_{i+1/2}(u_{i+1} - u_i) -
    a_{i-1/2}(u_i - u_{i-1})] / h^2 with zero Dirichlet closure, is SPD tridiagonal for a > 0
    and kept as its LDL^T factor (LAPACK dpttrf, through `_lapack`).  dpttrs solves every row
    by the same loop, so no row depends on how many come with it.  Every per-step build (this
    factor, `general_steps`, `inverse_steps`, `pair_steps`, the forward pencil's maps) runs once
    for each distinct step and is shared by the steps whose coefficient bytes repeat it
    (`first_step`): with coefficients that do not depend on t, once in all.  The build is the
    one that step would make alone, so no result moves a bit.
    """

    def __init__(self, grid: SpatialGrid, tree: ScenarioTree, coeffs):
        self.grid, self.tree = grid, tree
        self.dt = float(tree.dt)
        self.tab = coeffs if isinstance(coeffs, CoefficientTables) else coeffs.sample(grid, tree.times)
        first: dict = {}
        self.first_step = [first.setdefault(key, n) for n, key in enumerate(step_keys(self.tab))]
        self._facts = [None] + self._each_step(self._factor)
        cfl = self.dt * (self.tab.b1_inf ** 2 / self.tab.beta + self.tab.a1_inf)
        if cfl > 1.0:
            warnings.warn(f"explicit lower-order terms are large: dt*(|B1|^2/beta + |a1|) = {cfl:.3g} > 1",
                          RuntimeWarning, stacklevel=2)
        tab = vars(self.tab)  # each table the blocks name, the negated ones made once
        self.tables = {name: -tab[name[1:]] if name[0] == "-" else tab[name] for name in _TABLES}

    def _each_step(self, build) -> list:
        """[build(n) for every step n], built at the first of each set of bit-identical steps
        and shared by the others, which `first_step` names."""
        out = []
        for n, first in enumerate(self.first_step):
            out.append(build(n) if first == n else out[first])
        return out

    def _factor(self, n: int):
        """The LDL^T factor (d, e) of S_{n+1}, the implicit matrix of step n."""
        af, h2 = self.tab.a_faces[n + 1], self.grid.h * self.grid.h
        d, e, info = dpttrf(1.0 + self.dt * (af[:-1] + af[1:]) / h2, -self.dt * af[1:-1] / h2)
        if info != 0:
            raise NumericsError(f"implicit step matrix of level {n + 1} is not positive definite")
        return d, e

    def _solve(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """Apply S_level^{-1} to rows of rhs (the solve is symmetric), consuming rhs: C-contiguous
        float rows are overwritten by the result, which is returned, so a caller that still needs
        rhs passes a copy."""
        out = dpttrs(*self._facts[level], rhs.T, overwrite_b=1)[0].T  # a non-finite rhs propagates
        if not np.isfinite(out).all():
            raise NumericsError(f"non-finite values after implicit solve into level {level}")
        return out

    def apply(self, n: int, mode: str, fields, split: bool = False) -> list:
        """Each row of mode's block at level n on `fields`: zeroth + weak_div(flux).

        split=True gives the parts (zeroth-order part, flux or None); an empty row
        (modes uncoupled, generic) gives None.  The bits rest on this order: c0*x, then cg*grad(x)
        (grad once per field), field by field; the flux sums cd*x over the fields.
        """
        tables, grads = self.tables, [None] * len(fields)
        out = []
        for row in _BLOCKS[mode]:
            acc = div = None
            for j, (c0, cg, cd) in enumerate(row):
                x = fields[j]
                term = tables[c0][n] * x
                if cg is not None:
                    if grads[j] is None:
                        grads[j] = gradient(self.grid, x)
                    term += tables[cg][n] * grads[j]
                acc = term if acc is None else np.add(acc, term, out=acc)
                if cd is not None:
                    div = tables[cd][n] * x if div is None else np.add(div, tables[cd][n] * x, out=div)
            out.append((acc, div) if split else acc if div is None else acc + weak_divergence(self.grid, div))
        return out

    def increments(self, n: int, mode: str, y, u=None, v=None, src=None, div=None) -> tuple:
        """Step n's increments of the rows y: (y + dt*drift, noise), fresh arrays, with
        drift = A y [+ 1_{G0} u + src + weak_div(div)] and noise = B y [+ v] (A y, B y = 0
        in uncoupled mode)."""
        drift, noise = (np.zeros_like(y) if r is None else r for r in self.apply(n, mode, (y,)))
        if u is not None:
            drift += self.grid.g0_mask * u
        if src is not None:
            drift += src
        if div is not None:
            drift += weak_divergence(self.grid, div)
        if v is not None:
            noise += v
        return np.add(y, np.multiply(self.dt, drift, out=drift), out=drift), noise

    def step_up(self, n: int, mode: str, y, **sources) -> np.ndarray:
        """The forward level step n on the rows y: the `increments`, split into sibling
        children on a tree, then S_{n+1}^{-1}."""
        base, noise = self.increments(n, mode, y, **sources)
        if self.tree.branching:
            base = reconstruct_children(self.tree, base, noise)
        return self._solve(n + 1, base)

    def split(self, n: int, children, mart: bool = True) -> tuple:
        """The backward level step's first half: w = S_{n+1}^{-1} children (the solve consumes them),
        split on a tree into (z_half, Z), the sibling mean and martingale part; on a path (w, 0).
        mart=False on a tree solves only the sibling means (a fresh buffer) into z_half, Z None."""
        if not mart and self.tree.branching:
            mean = np.add(children[0::2], children[1::2])
            return self._solve(n + 1, np.multiply(mean, 0.5, out=mean)), None
        w = self._solve(n + 1, children)
        return martingale_part(self.tree, w) if self.tree.branching else (w, np.zeros_like(w))

    def correct(self, n: int, mode: str, z_half, Z, f0=None, f_div=None, u=None) -> np.ndarray:
        """Its second half: z_n = z_half - dt*(couplings + f0 + 1_{G0} u + weak_div(f_div)), the
        couplings -(A^T z_half + B^T Z) being mode's row (none in generic mode)."""
        corr, = self.apply(n, mode, (z_half, Z))  # a fresh array: the sources add in place
        if u is not None:
            corr += self.grid.g0_mask * u
        if f_div is not None:  # only generic mode has sources, so corr is None here
            corr = weak_divergence(self.grid, f_div)
        if f0 is not None:
            corr = np.array(f0, dtype=float) if corr is None else np.add(corr, f0, out=corr)
        if corr is None:
            return z_half.copy()
        return np.add(np.multiply(corr, -self.dt, out=corr), z_half, out=corr)

    @cached_property
    def general_steps(self) -> list:
        """Per level n: (G^T, B^T) = (I + dt A_n^T, B_n^T), the general `increments` of the
        identity's rows, shared by every Riccati set-up on this stepper (one per eps of a sweep)
        and, like every per-step build, by bit-identical steps."""
        eye = np.eye(self.grid.N)
        return self._each_step(lambda n: self.increments(n, "general", eye))

    @cached_property
    def inverse_steps(self) -> list:
        """Per level n = 1..M: S_n^{-1} = `_solve(n, I)`, shared like general_steps (None at level 0)."""
        return [None] + self._each_step(lambda n: self._solve(n + 1, np.eye(self.grid.N)))

    @cached_property
    def pair_steps(self) -> list:
        """Per level n: the general step and its adjoint_1_3 fold as sibling-pair maps
        (down, fold, up_y, up_zz), shared like general_steps.

        Siblings are adjacent rows, so a level's (2^{n+1}, N) field is a (2^n, 2N) view, each
        row [+ child | - child] (one child, N wide, on a path).  As row maps,

          [z_half | Z] = children @ down,   z_n = [z_half | Z] @ fold,
          children = y_n @ up_y + [u | v] @ up_zz

        are the backward level step and the general forward step under controls (u, v), each
        run on the identity's rows: down is the `split` of the identity sibling pairs, fold the
        `correct` of (z_half, Z) = (I, 0) and (0, I), and up_y, up_zz the `step_up` of y = I,
        u = I and v = I, in one call each.  12 N^2 floats a distinct step on a tree; only the
        forward HUM Gramian builds them.
        """
        n_space = self.grid.N
        halves, marts = (np.eye(2 * n_space, n_space, -k * n_space) for k in range(2))  # (I; 0), (0; I)
        y, u, v = (np.eye(3 * n_space, n_space, -k * n_space) for k in range(3))

        def step(n):
            up = self.step_up(n, "general", y, u=u, v=v).reshape(3 * n_space, -1)
            down = np.hstack(self.split(n, np.eye(up.shape[1]).reshape(-1, n_space)))
            return down, self.correct(n, "adjoint_1_3", halves, marts), up[:n_space], up[n_space:]

        return self._each_step(step)

    def forward(self, y0, u=None, v=None, drift_src=None, drift_div=None,
                mode: str = "general", top: int | None = None) -> ForwardSolution:
        """March level 0 -> top (None: M) by `step_up` with mode's pair (A, B) under the controls
        (u, v) and sources (drift_src, weak_div(drift_div)), which adjoint_1_5 mode does not take."""
        if mode not in _PAIRS:
            raise ValueError(f"unknown forward mode {mode!r}")
        sources = {"u": u, "v": v, "src": drift_src, "div": drift_div}
        if mode == "adjoint_1_5" and any(s is not None for s in sources.values()):
            raise ValueError(f"{mode} mode takes no controls or sources")
        grid, tree = self.grid, self.tree
        y0 = np.asarray(y0, dtype=float).reshape(1, grid.N)
        if not np.isfinite(y0).all():
            raise NumericsError("non-finite initial state")
        tree.n_nodes(tree.M)  # refuses a tree past the depth cap
        levels = [y0.copy()]
        for n in range(tree.M if top is None else top):
            levels.append(self.step_up(n, mode, levels[n], **_at(n, sources)))
        return ForwardSolution(y=AdaptedField(levels))

    def fold(self, zT, mode: str = "generic", f0=None, f_div=None, u=None, mart_levels=None):
        """The backward level loop: yields (n, z_n, z_half_n, Z_n) from level M - 1 down to 0, each
        level `split` then `correct`, with the sources f0, weak_div(f_div) in generic mode only and
        the control u in controlled_1_2 mode only.  zT is never written, but the next level's
        solve consumes z_n: a caller that keeps z_n copies it before drawing the next level.
        mart_levels (generic mode only: any other mode's `correct` reads Z) names the levels whose Z
        the caller reads (None: all); the others `split` with mart=False."""
        if mode not in _TRANSPOSES:
            raise ValueError(f"unknown backward mode {mode!r}")
        if mode != "generic" and (f0 is not None or f_div is not None or mart_levels is not None):
            raise ValueError("explicit sources and mart_levels are only accepted in generic mode")
        if mode != "controlled_1_2" and u is not None:
            raise ValueError("a control is only accepted in controlled_1_2 mode")
        grid, tree = self.grid, self.tree
        z = np.asarray(zT, dtype=float)
        if z.shape != (tree.n_nodes(tree.M), grid.N):
            raise ValueError(f"terminal data must have shape {(tree.n_nodes(tree.M), grid.N)}, "
                             f"got {z.shape}")
        if not np.isfinite(z).all():
            raise NumericsError("non-finite terminal data")
        reads = range(tree.M) if mart_levels is None else mart_levels
        if tree.M - 1 in reads or not tree.branching:
            z = z.copy()  # the first solve consumes it; sibling means are a fresh buffer
        sources = {"f0": f0, "f_div": f_div, "u": u}
        for n in range(tree.M - 1, -1, -1):
            z_half, z_mart = self.split(n, z, n in reads)
            z = self.correct(n, mode, z_half, z_mart, **_at(n, sources))
            yield n, z, z_half, z_mart

    def backward(self, zT, mode: str = "generic", f0=None, f_div=None, u=None) -> BackwardSolution:
        """Every level of `fold` (modes, sources and control as there), each z_n copied before the
        next level's solve consumes it, and zT copied at level M: no later solve touches them."""
        levels = [(z.copy(), z_half, z_mart) for _, z, z_half, z_mart in self.fold(zT, mode, f0, f_div, u)]
        z, z_half, z_mart = zip(*levels[::-1])
        return BackwardSolution(z=AdaptedField([*z, np.array(zT, dtype=float)]), Z=AdaptedField(z_mart),
                                z_half=AdaptedField(z_half))


# perfbench/tracer.py patches TreeStepper.__init__ and TreeStepper._solve through this name
_StepperBase = TreeStepper


def duality_gap(grid, tree, coeffs, y0, u, v, zT) -> float:
    """Relative defect of the discrete duality identity (pure rounding noise).

    |E<y(T), zT> - <y0, z(0)> - E int_{Q0} u z - E int_Q v Z| divided by the
    sum of the magnitudes of the four terms, where y solves the controlled
    forward problem and (z, Z) the adjoint backward problem.
    """
    stepper = TreeStepper(grid, tree, coeffs)
    fwd = stepper.forward(y0, u=u, v=v)
    bwd = stepper.backward(zT, mode="adjoint_1_3")
    t_terminal = tree.node_weight(tree.M) * grid.h * float(np.sum(fwd.y[tree.M] * bwd.z[tree.M]))
    t_initial = grid.inner(y0, bwd.z[0][0])
    t_u = 0.0 if u is None else qt_integral(
        tree, grid, [(grid.g0_mask * u[n]) * bwd.z_half[n] for n in range(tree.M)])
    t_v = 0.0 if v is None else qt_integral(tree, grid, [v[n] * bwd.Z[n] for n in range(tree.M)])
    gap = abs(t_terminal - t_initial - t_u - t_v)
    scale = abs(t_terminal) + abs(t_initial) + abs(t_u) + abs(t_v)
    return gap / scale if scale else 0.0


def forward_state_matrix(stepper: TreeStepper) -> np.ndarray:
    """Dense matrix of y0 -> y(T) (leaf-flattened rows), homogeneous problem."""
    return np.stack([stepper.forward(e).y[stepper.tree.M].ravel() for e in np.eye(stepper.grid.N)], axis=1)


def backward_state_matrix(stepper: TreeStepper) -> np.ndarray:
    """Dense matrix of zT -> z(0) for the adjoint backward solver."""
    zT = np.zeros((stepper.tree.n_nodes(stepper.tree.M), stepper.grid.N))
    out = np.empty((stepper.grid.N, zT.size))
    for k in range(zT.size):
        zT.ravel()[k] = 1.0
        out[:, k] = stepper.backward(zT, mode="adjoint_1_3").z[0][0]
        zT.ravel()[k] = 0.0
    return out
