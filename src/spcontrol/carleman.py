"""Carleman weight family, appendix coefficient formulas, and ratio checks.

The weight scaffold is a piecewise-quintic profile psi on [0, L]: zero at both
ends, positive inside, a single critical point at the center of G1, and
nonvanishing slope outside G1.  On top of it sit the singular-in-time weights

    phi   = e^{mu psi} / (t(T-t))
    alpha = (e^{mu psi} - e^{2 mu max psi}) / (t(T-t))        (< 0 on (0,T))
    l     = lambda alpha,   theta = e^l                        (0 < theta < 1)

At the parameter sizes the estimates require, theta**2 underflows to zero in
raw float64, so every weighted integral here works with a common log-space
shift: integrals are reported in units of e^{2(l - l_ref)} with l_ref the
maximum of l over the integration region.  Ratios of such integrals are
shift-invariant, which is all the bounded-ratio checks need.

Weight tables are immutable after evaluation; ratio computations over sample
batches are independent and safe to run concurrently.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .grid import SpatialGrid, gradient
from .scenario import ScenarioTree, _level_weight, _positive_horizon
from .spde import TreeStepper, _sample

__all__ = [
    "PsiFunction",
    "CarlemanWeightSet",
    "AppendixCoefficients",
    "DiffusionCoefficient",
    "CarlemanRatio",
    "build_psi",
    "eval_weights",
    "lambda_threshold",
    "lambda_threshold_forward",
    "appendix_coeffs",
    "leading_order_check",
    "carleman_ratio_backward",
    "carleman_ratio_forward",
]

# safety factor keeping the side pieces strictly monotone (see build_psi)
_CAP_SAFETY = 0.9
_PSI_MAX = 1.0  # max psi: the cap 1 - curv*(x - x_c)^2 peaks at x_c


def _profile(g1, x_c, curv, quint_left, quint_right, x, order, side):
    """Evaluate the piecewise profile or a derivative (order <= 5) at points x."""
    if not 0 <= order <= 5:
        raise ValueError(f"derivative order must lie in 0..5, got {order}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c, d = g1
    if side not in ("auto", "left", "right"):
        raise ValueError(f"unknown side {side!r}")
    in_left = x <= c if side == "left" else x < c
    in_right = x >= d if side == "right" else x > d
    in_cap = ~(in_left | in_right)
    out = np.zeros_like(x)
    if order == 0:
        out[in_cap] = (1.0 - curv * (x - x_c) ** 2)[in_cap]
    elif order == 1:
        out[in_cap] = (-2.0 * curv * (x - x_c))[in_cap]
    elif order == 2:
        out[in_cap] = -2.0 * curv
    for where, knot, quint in ((in_left, c, quint_left), (in_right, d, quint_right)):
        s = x[where] - knot
        val_k = 1.0 - curv * (knot - x_c) ** 2
        slope_k = -2.0 * curv * (knot - x_c)
        out[where] = (  # only the requested derivative is evaluated
            lambda: val_k + slope_k * s - curv * s * s + quint * s ** 5,
            lambda: slope_k - 2.0 * curv * s + 5.0 * quint * s ** 4,
            lambda: -2.0 * curv + 20.0 * quint * s ** 3,
            lambda: 60.0 * quint * s ** 2,
            lambda: 120.0 * quint * s,
            lambda: 120.0 * quint * np.ones_like(s),
        )[order]()
    return out


@dataclass(frozen=True)
class PsiFunction:
    """Piecewise-quintic weight profile, tabulated with its slope on the mesh.

    Pieces: rising quintic on [0, c], parabolic cap 1 - curv*(x - x_c)^2 on
    [c, d] = g1, falling quintic on [d, L]; all joins are C^4 by construction
    (third and fourth derivatives vanish identically at the knots).
    """

    g1: tuple[float, float]
    x_c: float
    curv: float
    quint_left: float
    quint_right: float
    psi: np.ndarray
    dpsi: np.ndarray

    def evaluate(self, x, order: int = 0, side: str = "auto") -> np.ndarray:
        """Evaluate psi or a derivative (order <= 5) at arbitrary points.

        `side` resolves which piece to use exactly at a knot: "auto" assigns
        knots to the cap, "left"/"right" force the adjacent outer piece
        (used by the C^4 join checks).
        """
        return _profile(self.g1, self.x_c, self.curv, self.quint_left, self.quint_right,
                        x, order, side)


def build_psi(grid: SpatialGrid, g1: tuple[float, float] | None = None) -> PsiFunction:
    """Construct the weight profile for a given interior interval g1.

    The cap is the parabola 1 - curv*(x - x_c)^2 on g1; the side pieces are
    the unique quintics matching five derivatives at the knots and vanishing
    at the boundary.  Choosing curv <= 0.9 / max(x_c, L - x_c)^2 makes both
    quintic coefficients strictly signed, hence psi strictly monotone outside
    the cap: |psi'| > 0 on every node outside g1.
    """
    g1 = grid.g1 if g1 is None else (float(g1[0]), float(g1[1]))
    c, d = g1
    L = grid.L
    if not (0.0 < c < d < L):
        raise ValueError(f"g1 = ({c}, {d}) must lie strictly inside (0, {L})")
    min_width = 2.0 * grid.h
    if d - c < min_width:
        raise ValueError(f"g1 width {d - c:.6g} is too narrow for this mesh; need at least {min_width:.6g}")
    x_c = 0.5 * (c + d)
    curv = _CAP_SAFETY / max(x_c, L - x_c) ** 2
    # quintic coefficients from the boundary conditions psi(0) = psi(L) = 0
    val_c = 1.0 - curv * (c - x_c) ** 2
    slope_c = -2.0 * curv * (c - x_c)
    quint_left = (val_c - slope_c * c - curv * c * c) / c ** 5
    val_d = 1.0 - curv * (d - x_c) ** 2
    slope_d = -2.0 * curv * (d - x_c)
    quint_right = -(val_d + slope_d * (L - d) - curv * (L - d) ** 2) / (L - d) ** 5

    psi0, dpsi = (_profile(g1, x_c, curv, quint_left, quint_right, grid.x, k, "auto")
                  for k in (0, 1))
    psi = PsiFunction(g1=g1, x_c=x_c, curv=curv, quint_left=quint_left,
                      quint_right=quint_right, psi=psi0, dpsi=dpsi)
    outside = ~((grid.x > c) & (grid.x < d))
    if not np.all(psi.psi > 0.0):
        raise NumericsError("psi construction failed: non-positive interior value")
    if not np.all(np.abs(psi.dpsi[outside]) > 0.0):
        raise NumericsError("psi construction failed: vanishing slope outside g1")
    return psi


def _at_least(low: float, **params) -> None:
    """The estimates' floors, lambda, mu >= 1 and exclude >= 0: a ValueError names the first
    parameter that is not finite and >= low."""
    for name, value in params.items():
        if not low <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= {low:g}, got {value:g}")


def lambda_threshold(mu: float, psi: PsiFunction, T: float, c0: float = 1.0) -> float:
    """Parameter floor c0*(e^{2 mu max psi} * T + T^2) for the backward estimates."""
    _at_least(1.0, mu=mu)
    _positive_horizon(T)
    with np.errstate(over="ignore"):  # an overflow is lambda = inf, which the floors refuse
        return c0 * (np.exp(2.0 * mu * _PSI_MAX) * T + T * T)


def lambda_threshold_forward(T: float, c0: float = 1.0) -> float:
    """Parameter floor c0*(T + T^2) for the forward estimates (mu is frozen there)."""
    _positive_horizon(T)
    return c0 * (T + T * T)


@dataclass(frozen=True)
class CarlemanWeightSet:
    """phi, alpha, l tabulated on interior tree levels (t = 0, T excluded).

    Row k corresponds to tree level k + 1.  theta = e^l is never formed
    directly: a weighted integral exponentiates 2l + power*log_phi less a
    log shift, the maximum of 2l over its quadrature levels.
    """

    lam: float
    mu: float
    T: float
    times: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    l: np.ndarray
    log_phi: np.ndarray

    def row(self, tree_level: int) -> int:
        k = tree_level - 1
        if not 0 <= k < self.times.size:
            raise ValueError(f"tree level {tree_level} has no tabulated weights (t = 0, T excluded)")
        return k


def eval_weights(psi: PsiFunction, lam: float, mu: float, tree: ScenarioTree) -> CarlemanWeightSet:
    """Tabulate the weight family on the tree's interior time levels."""
    _at_least(1.0, lam=lam, mu=mu)
    T = tree.T
    times = tree.times[1:-1]
    tau = 1.0 / (times * (T - times))
    e_mu_psi = np.exp(mu * psi.psi)
    e2 = np.exp(2.0 * mu * _PSI_MAX)
    phi = tau[:, None] * e_mu_psi[None, :]
    alpha = tau[:, None] * (e_mu_psi - e2)[None, :]
    if not np.all(alpha < 0.0):
        raise NumericsError("alpha must be negative on (0, T) x G")
    l = lam * alpha
    log_phi = np.log(tau)[:, None] + mu * psi.psi[None, :]
    # spot checks of the textbook bounds (explicit, so that python -O keeps them)
    gfac = -(T - 2.0 * times) * tau
    for bound, holds in (
            ("phi >= 4 e^{mu min psi} / T^2",
             phi >= 4.0 * np.exp(mu * psi.psi.min()) / T ** 2 * (1.0 - 1e-12)),
            ("|phi_t| <= T phi^2", np.abs(gfac[:, None] * phi) <= T * phi * phi * (1.0 + 1e-12)),
            ("|alpha_t| <= T e^{2 mu max psi} phi^2",
             np.abs(gfac[:, None] * alpha) <= T * e2 * phi * phi * (1.0 + 1e-12))):
        if not np.all(holds):
            raise NumericsError(f"weight bound {bound} violated")
    return CarlemanWeightSet(lam=float(lam), mu=float(mu), T=T, times=times,
                             phi=phi, alpha=alpha, l=l, log_phi=log_phi)


# -- appendix coefficient formulas (1-D instantiation) --------------------


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Diffusion coefficient and the analytic derivatives the formulas need (constants or f(t, x))."""

    value: object = 1.0
    dx: object = 0.0
    dxx: object = 0.0
    dt: object = 0.0
    dxt: object = 0.0


@dataclass(frozen=True)
class AppendixCoefficients:
    """Nodal values of the weighted-identity coefficients at one time level."""

    t: float
    A: np.ndarray
    B: np.ndarray
    c11: np.ndarray
    Psi: np.ndarray
    A_lead: np.ndarray
    B_lead: np.ndarray
    c11_lead: np.ndarray


def appendix_coeffs(psi: PsiFunction, a, lam: float, mu: float, t: float, T: float,
                    x: np.ndarray) -> AppendixCoefficients:
    """Evaluate A, B, c^{11}, Psi at time t in (0, T), once lam and mu pass their floors.

    `a` is a constant or a DiffusionCoefficient.  1-D instantiation with
    Psi = -2 a l_xx:

        A    = a l_x^2 - a_x l_x - a l_xx - Psi - l_t
        B    = 2 [A Psi + (A a l_x)_x] - A_t + (a Psi_x)_x
        c11  = 2 a (a l_x)_x - (a^2 l_x)_x + a_t / 2 - Psi a

    with l_x = lam mu phi psi', l_xx = lam mu^2 phi psi'^2 + lam mu phi psi''
    and all time derivatives taken analytically through phi and alpha.
    The leading-order companions are A_lead = lam^2 mu^2 phi^2 a psi'^2,
    B_lead = 2 beta^2 lam^3 mu^4 phi^3 psi'^4 and
    c11_lead = beta^2 lam mu^2 phi psi'^2, with beta = min a at time t.
    """
    _at_least(1.0, lam=lam, mu=mu)
    if not isinstance(a, DiffusionCoefficient):
        a = DiffusionCoefficient(value=float(a))
    if not (0.0 < t < T):
        raise ValueError(f"level time {t} must be strictly inside (0, {T})")

    p, p2, p3, p4 = (psi.evaluate(x, order) for order in range(1, 5))
    tau = 1.0 / (t * (T - t))
    e_mu_psi = np.exp(mu * psi.evaluate(x, 0))
    phi = tau * e_mu_psi
    alpha = tau * (e_mu_psi - np.exp(2.0 * mu * _PSI_MAX))
    g = -(T - 2.0 * t) * tau
    g_t = 2.0 * tau + (T - 2.0 * t) ** 2 * tau * tau

    lx = lam * mu * phi * p
    lxx = lam * mu * mu * phi * p * p + lam * mu * phi * p2
    lxxx = lam * mu ** 3 * phi * p ** 3 + 3.0 * lam * mu * mu * phi * p * p2 + lam * mu * phi * p3
    lxxxx = (lam * mu ** 4 * phi * p ** 4 + 6.0 * lam * mu ** 3 * phi * p * p * p2
             + 3.0 * lam * mu * mu * phi * p2 * p2 + 4.0 * lam * mu * mu * phi * p * p3
             + lam * mu * phi * p4)
    lt = lam * g * alpha
    ltt = lam * (g_t + g * g) * alpha
    lxt = g * lx
    lxxt = g * lxx

    av, ax, axx, at, axt = (_sample(spec, np.array([t]), x)[0]
                            for spec in (a.value, a.dx, a.dxx, a.dt, a.dxt))

    Psi = -2.0 * av * lxx
    Psi_x = -2.0 * (ax * lxx + av * lxxx)
    Psi_xx = -2.0 * (axx * lxx + 2.0 * ax * lxxx + av * lxxxx)

    A = av * lx * lx - ax * lx - av * lxx - Psi - lt
    A_x = ax * lx * lx + 2.0 * av * lx * lxx - axx * lx + av * lxxx - lxt
    A_t = (at * (lx * lx + lxx) + 2.0 * av * lx * lxt - axt * lx - ax * lxt
           + av * lxxt - ltt)
    B = (2.0 * (A * Psi + A_x * av * lx + A * (ax * lx + av * lxx))
         - A_t + (ax * Psi_x + av * Psi_xx))
    c11 = 2.0 * av * (ax * lx + av * lxx) - (2.0 * av * ax * lx + av * av * lxx) + 0.5 * at - Psi * av

    beta = float(av.min())
    A_lead = lam * lam * mu * mu * phi * phi * av * p * p
    B_lead = 2.0 * beta * beta * lam ** 3 * mu ** 4 * phi ** 3 * p ** 4
    c11_lead = beta * beta * lam * mu * mu * phi * p * p
    for name, arr in (("A", A), ("B", B), ("c11", c11), ("Psi", Psi)):
        if not np.all(np.isfinite(arr)):
            raise NumericsError(f"appendix coefficient {name} overflowed at t = {t}")
    return AppendixCoefficients(t=t, A=A, B=B, c11=c11, Psi=Psi, A_lead=A_lead, B_lead=B_lead,
                                c11_lead=c11_lead)


@dataclass(frozen=True)
class DeviationRow:
    """Leading-order deviations for one (mu, lambda) pair, nodes outside G1."""

    mu: float
    lam: float
    dev_A: float
    dev_B: float
    min_B: float
    c11_margin: float


def leading_order_check(psi: PsiFunction, a, mu_values, T: float, grid: SpatialGrid,
                        c0: float = 1.0) -> list[DeviationRow]:
    """Tabulate relative deviations from the leading asymptotics.

    For each mu the pair is (mu, threshold(mu)).  Deviations are taken over
    nodes outside G1 (where psi' is bounded away from zero) and nine interior
    times T/10, ..., 9T/10: dev_A = max |A - A_lead| / |A_lead|, dev_B
    likewise, min_B = min B / B_lead, and c11_margin = min c11 / c11_lead.
    """
    outside = ~grid.g1_mask
    times = np.linspace(T / 10, T * 9 / 10, 9)
    rows = []
    for mu in mu_values:
        lam = lambda_threshold(mu, psi, T, c0=c0)
        dev_a = dev_b = 0.0
        min_b = margin = np.inf
        for t in times:
            co = appendix_coeffs(psi, a, lam, mu, float(t), T, grid.x)
            dev_a = max(dev_a, float(np.max(np.abs(co.A - co.A_lead)[outside] / co.A_lead[outside])))
            dev_b = max(dev_b, float(np.max(np.abs(co.B - co.B_lead)[outside] / np.abs(co.B)[outside])))
            min_b = min(min_b, float(np.min(co.B[outside] / co.B_lead[outside])))
            margin = min(margin, float(np.min(co.c11[outside] / co.c11_lead[outside])))
        rows.append(DeviationRow(mu=float(mu), lam=float(lam), dev_A=dev_a, dev_B=dev_b,
                                 min_B=min_b, c11_margin=margin))
    return rows


# -- weighted Carleman ratios ---------------------------------------------


@dataclass(frozen=True)
class CarlemanRatio:
    """One weighted-inequality evaluation: lhs terms, rhs terms, their ratio.

    Integrals are expressed in units of e^{log_shift}; the ratio is
    shift-invariant.
    """

    lhs: float
    lhs_terms: dict
    rhs: float
    rhs_terms: dict
    ratio: float
    log_shift: float


def _quad_levels(tree: ScenarioTree, exclude: int) -> range:
    """Levels 1 + exclude .. M - 1 - exclude, the ratios' quadrature: a ValueError if none remains."""
    _at_least(0.0, exclude=exclude)
    levels = range(1 + exclude, tree.M - exclude)
    if not levels:
        raise ValueError(f"exclude = {exclude} leaves no quadrature level: M = {tree.M} must be >= "
                         f"2 + 2 x exclude = {2 + 2 * exclude}")
    return levels


def _reduce(st: TreeStepper, weights, levels: range, per_level, sources, backward: bool):
    """The weighted inequality shared by both estimates, for one weight set (a CarlemanRatio) or
    each of a sequence of them (a list), on the fields of `per_level`:

    lhs  = lam^3 mu^4 I[th^2 phi^3 z^2] + lam mu^2 I[th^2 phi |grad z|^2]
    rhs  = lam^3 mu^4 I_{G0}[th^2 phi^3 z^2] + sum of factor * I[th^2 phi^power F^2]

    per_level yields (n, (z, F, ...)) for each quadrature level n, the sources F in the order of
    `sources`, a sequence of (name, power) whose factor is 1 at power 0 and lam^2 mu^2 at power 2;
    an absent source (None) has term 0.  The backward estimate reads mu from each set; the forward
    one freezes mu in the weight, so its prefactors take mu = 1.

    Each level is reduced to its node sums as it comes, z's, grad z's and each source's, whatever
    the number of sets, and every term is a sum of them,

        I[th^2 phi^p F^2] = sum_n dt 2^-n h <w_n^p, sum over the nodes of F_n^2>,

    in units of e^shift: the weight rows w_n^p = th^2 phi^p of a power come from one exp
    over all quadrature levels with the factors dt 2^-n h folded in, each term is one dot
    product (the state and observation terms share z's sums), and the G0 mask zeroes
    entries of the weight rows.  A non-finite node sum is a NumericsError naming field and level,
    a source's before z's, which a non-finite source makes non-finite too.
    """
    grid, tree, single = st.grid, st.tree, isinstance(weights, CarlemanWeightSet)
    sums = []
    for n, fields in per_level:
        fields = (fields[0], gradient(grid, fields[0]), *fields[1:])
        sums = sums or [None if f is None else np.empty((len(levels), grid.N)) for f in fields]
        for out, field in zip(sums, fields):
            if field is not None:
                np.einsum("ij,ij->j", *[np.asarray(field, dtype=float)] * 2, out=out[n - levels[0]])
    for name, s in [*zip(("z", "grad z", *(name for name, _ in sources)), sums)][::-1]:
        if s is not None and not np.isfinite(s).all():
            k = np.flatnonzero(~np.isfinite(s).all(axis=1))[0]
            raise NumericsError(f"Carleman field {name} is not finite at level {levels[k]}")
    z_sums, grad_sums, *f_sums = sums
    quad = np.array([_level_weight(tree, grid, n) for n in levels])[:, None]
    ratios = []
    for ws in (weights,) if single else weights:
        rows = slice(ws.row(levels[0]), ws.row(levels[-1]) + 1)
        two_l = 2.0 * ws.l[rows]
        shift = float(two_l.max())  # max 2l over the quadrature levels: doubling is exact
        tables = {}  # power -> weight rows, built once however many terms use them

        def weight(power):
            if power not in tables:  # exp(2l + power*log_phi - shift) * quad, in place
                w = np.multiply(power, ws.log_phi[rows])
                w += two_l
                w -= shift
                tables[power] = np.multiply(np.exp(w, out=w), quad, out=w)
            return tables[power]

        lam, mu = ws.lam, ws.mu if backward else 1.0
        try:  # the largest prefactor, as lam, mu >= 1
            lam3mu4 = lam ** 3 * mu ** 4
        except OverflowError:
            lam3mu4 = np.inf
        if lam3mu4 == np.inf:
            raise NumericsError(f"Carleman prefactor lam^3 mu^4 overflows at lam = {lam:.6g}, mu = {mu:.6g}")
        lhs_terms = {
            "state": lam3mu4 * float(np.vdot(weight(3.0), z_sums)),
            "gradient": lam * mu * mu * float(np.vdot(weight(1.0), grad_sums)),
        }
        rhs_terms = {"observation": lam3mu4 * float(np.vdot(weight(3.0) * grid.g0_mask, z_sums))}
        for (name, power), f in zip(sources, f_sums, strict=True):
            factor = lam * lam * mu * mu if power else 1.0
            rhs_terms[name] = 0.0 if f is None else factor * float(np.vdot(weight(power), f))
        lhs = sum(lhs_terms.values())
        rhs = sum(rhs_terms.values())
        if rhs == 0.0:
            if lhs > 0.0:
                raise NumericsError("Carleman rhs vanished while lhs is positive")
            lhs = rhs = ratio = 0.0
        else:
            ratio = lhs / rhs
        ratios.append(CarlemanRatio(lhs=lhs, lhs_terms=lhs_terms, rhs=rhs, rhs_terms=rhs_terms,
                                    ratio=ratio, log_shift=shift))
    return ratios[0] if single else ratios


def carleman_ratio_backward(grid: SpatialGrid, tree: ScenarioTree, coeffs,
                            weights: CarlemanWeightSet | Sequence[CarlemanWeightSet], zT,
                            mode: str = "adjoint_1_3", f0=None, f_div=None, exclude: int = 1,
                            stepper: TreeStepper | None = None) -> CarlemanRatio | list[CarlemanRatio]:
    """Weighted-inequality ratio for the backward solution driven by zT: for one
    CarlemanWeightSet a CarlemanRatio, for a sequence of them a list, one per set, from one fold.

    mode "sources": generic backward equation with supplied sources F0 and
    divergence flux F (F = 0 recovers the no-flux special case).
    mode "adjoint_1_3": sources are the couplings F0 = -a1 z - a2 Z,
    F = z b1 + Z b2 (the observability configuration).

    lhs  = lam^3 mu^4 I[th^2 phi^3 z^2] + lam mu^2 I[th^2 phi |grad z|^2]
    rhs  = lam^3 mu^4 I_{G0}[th^2 phi^3 z^2] + I[th^2 F0^2]
           + lam^2 mu^2 I[th^2 phi^2 |F|^2] + lam^2 mu^2 I[th^2 phi^2 Z^2]

    The fold holds one level's fields at a time.  No level below the lowest quadrature level is
    folded: none enters the ratio, and an error that would arise only there does not surface.
    Z is read on the quadrature levels only, so in sources mode (generic, no couplings) the
    levels above them solve only the sibling means.
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    levels = _quad_levels(st.tree, exclude)
    if mode not in ("adjoint_1_3", "sources"):
        raise ValueError(f"unknown ratio mode {mode!r}")
    if mode == "adjoint_1_3" and (f0 is not None or f_div is not None):
        raise ValueError("adjoint_1_3 mode derives its sources from the solution")
    fold = st.fold(zT, "generic", f0, f_div, mart_levels=levels) if mode == "sources" else st.fold(zT, mode)

    def per_level():  # a quadrature level's fields, then the next level's solve consumes z
        for n, z, z_half, z_mart in fold:
            if n in levels:
                if mode == "adjoint_1_3":
                    (s0, s_div), = st.apply(n, "adjoint_1_3", (z_half, z_mart), split=True)
                else:
                    s0, s_div = (None if f is None else f[n] for f in (f0, f_div))
                yield n, (z, s0, s_div, z_mart)
            if n == levels[0]:
                return

    sources = (("f0", 0.0), ("flux", 2.0), ("martingale", 2.0))
    return _reduce(st, weights, levels, per_level(), sources, backward=True)


def carleman_ratio_forward(grid: SpatialGrid, tree: ScenarioTree, coeffs,
                           weights: CarlemanWeightSet | Sequence[CarlemanWeightSet], z0,
                           f1=None, f2=None, f_div=None, mode: str = "sources", exclude: int = 1,
                           stepper: TreeStepper | None = None) -> CarlemanRatio | list[CarlemanRatio]:
    """Weighted-inequality ratio for the forward equation: for one CarlemanWeightSet a
    CarlemanRatio, for a sequence of them a list, one per set, from one march.

    mu is frozen in the weight (phi and theta are those of `weights`), so the
    prefactors carry no mu: lam^3, lam and lam^2 where the backward estimate
    has lam^3 mu^4, lam mu^2 and lam^2 mu^2.

    mode "sources": dz - (a z_x)_x dt = (f1 + div f_div) dt + f2 dW driven by
    the supplied sources, with no coupling (the stepper's uncoupled march, whatever
    a1, a2, b1, b2 and b are).  mode "adjoint_1_5": the observability
    configuration F1 = -a1 z, F2 = -a2 z, F = z b via the adjoint solver.

    lhs  = lam^3 I[th^2 phi^3 z^2] + lam I[th^2 phi |grad z|^2]
    rhs  = lam^3 I_{G0}[th^2 phi^3 z^2] + I[th^2 F1^2]
           + lam^2 I[th^2 phi^2 F2^2] + lam^2 I[th^2 phi^2 |F|^2]
    """
    st = stepper if stepper is not None else TreeStepper(grid, tree, coeffs)
    levels = _quad_levels(st.tree, exclude)  # the march stops at the top one: no higher level is read
    if mode == "sources":
        sol = st.forward(z0, v=f2, drift_src=f1, drift_div=f_div, mode="uncoupled", top=levels[-1])
    elif mode == "adjoint_1_5":
        if any(f is not None for f in (f1, f2, f_div)):
            raise ValueError("adjoint_1_5 mode derives its sources from the solution")
        sol = st.forward(z0, mode="adjoint_1_5", top=levels[-1])
        f1, f_div, f2 = {}, {}, {}
        for n in levels:
            (f1[n], f_div[n]), (f2[n], _) = st.apply(n, "adjoint_1_5", (sol.y[n],), split=True)
    else:
        raise ValueError(f"unknown ratio mode {mode!r}")
    fields = ((n, (sol.y[n], *(None if f is None else f[n] for f in (f1, f2, f_div)))) for n in levels)
    sources = (("f1", 0.0), ("f2", 2.0), ("flux", 2.0))
    return _reduce(st, weights, levels, fields, sources, backward=False)
