"""Batch front-end: INI-style config, subcommands, CSV + text reports.

Each subcommand computes its CSV rows, report lines, `.dat` lines (or none)
and CG failures; `run` alone writes them, to `<name>.csv`, `<name>.dat` and
`<name>_report.txt`, once the computation returns.  Output files are
deterministic for a fixed config and seed: headers echo the resolved
configuration, floats are printed with 17 significant digits, no timestamps.
Exit codes: 0 success, 1 config/validation error, 2 numerical failure.  A
sweep row that fails leaves only the CSV of the completed rows.  A CG solve
that misses its tolerance in control-forward, control-backward or sweep-eps
is a numerical failure too: every output is written as usual, then the
command reports the failure on stderr and exits 2.  The output directory is
created at the first write, so a command that fails on its input leaves none.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .carleman import (build_psi, carleman_ratio_backward, eval_weights, lambda_threshold,
                       leading_order_check)
from .control import HumConfig, hum_backward, hum_forward
from .errors import NumericsError
from .experiments import (DIRECTIONS, MIN_POWER_ITERS, SweepError, _ols, cost_scaling_sweep,
                          epsilon_sweep, observability_constant)
from .grid import build_grid
from .scenario import AdaptedField, build_tree, mean_square_norm
from .spde import ProblemCoefficients, TreeStepper

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Config problem with file/line context."""


# -- coefficient expressions ------------------------------------------------

_ALLOWED_FUNCS = {name: getattr(np, name) for name in
                  ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e, **_ALLOWED_FUNCS}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
                  ast.Call, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.Mod, ast.USub, ast.UAdd)


def compile_expression(text: str, where: str):
    """Compile an arithmetic expression in (t, x) into a coefficient callable.

    An expression that names neither t nor x is a constant and comes back as
    its float value, which ProblemCoefficients samples in one assignment
    instead of one evaluation per time level; one that names x but not t
    comes back marked `time_independent`, which `spde._sample` evaluates once
    for all time levels.  Either way the tables are the same.
    """
    try:
        node = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{where}: cannot parse expression {text!r}: {exc.msg}") from None
    for sub in ast.walk(node):
        if not isinstance(sub, _ALLOWED_NODES):
            raise ConfigError(f"{where}: disallowed syntax {type(sub).__name__!r} in {text!r}")
        if isinstance(sub, ast.Name) and sub.id not in _ALLOWED_NAMES and sub.id not in ("t", "x"):
            raise ConfigError(f"{where}: unknown name {sub.id!r} in {text!r}")
        if isinstance(sub, ast.Call):
            if not isinstance(sub.func, ast.Name) or sub.func.id not in _ALLOWED_FUNCS:
                raise ConfigError(f"{where}: only {sorted(_ALLOWED_FUNCS)} may be called in {text!r}")
    code = compile(node, "<coefficient>", "eval")

    def fn(t, x):
        return eval(code, {"__builtins__": {}}, {**_ALLOWED_NAMES, "t": t, "x": x})

    try:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            probe = np.asarray(fn(0.1, np.array([0.25, 0.5])), dtype=float)
    except Exception as exc:  # noqa: BLE001 - surface any evaluation problem at parse time
        raise ConfigError(f"{where}: expression {text!r} fails to evaluate: {exc}") from None
    names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    if "t" in names:
        return fn
    if "x" in names:
        fn.time_independent = True
        return fn
    return float(probe)


# -- config schema -----------------------------------------------------------


@dataclass
class ProblemSection:
    L: float = 1.0
    N: int = 32
    M: int = 8
    T: float = 1.0
    g0: tuple = (0.3, 0.8)
    g1: tuple = (0.45, 0.65)
    a: str = "1.0"
    a1: str = "0.0"
    a2: str = "0.0"
    b1: str = "0.0"
    b2: str = "0.0"
    b: str = "0.0"


@dataclass
class CarlemanSection:
    mu: float = 1.0
    c0: float = 1.0
    exclude: int = 1
    lambda_multiples: tuple = (1.0, 2.0, 4.0)
    samples: int = 20
    mu_values: tuple = (8.0, 16.0, 32.0, 64.0)


@dataclass
class HumSection:
    epsilon: str = "auto"
    cg_tol: float = 1e-9
    cg_max_iter: int = 2000
    bound_c: float = 1.0


@dataclass
class ExperimentSection:
    seed: int = 1234
    t_values: tuple = (0.25, 0.5, 1.0, 2.0)
    eps_values: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    m_per_time: float = 32.0
    power_iters: int = 30
    direction: str = "forward_1_5"
    output_dir: str = "out"


@dataclass
class RunConfig:
    problem: ProblemSection
    carleman: CarlemanSection
    hum: HumSection
    experiment: ExperimentSection
    _built: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def build_problem(self):
        """(grid, tree, coeffs) of [problem].

        Built once, when parse_config validates the file, and kept; built
        again only if [problem] has been edited since.
        """
        key = astuple(self.problem)
        if self._built[0] != key:
            p = self.problem
            grid = build_grid(p.L, p.N, p.g0, p.g1)
            tree = build_tree(p.M, p.T)
            coeffs = ProblemCoefficients(**{name: compile_expression(getattr(p, name),
                                                                     f"[problem] {name}")
                                            for name in ("a", "a1", "a2", "b1", "b2", "b")})
            self._built = (key, (grid, tree, coeffs))
        return self._built[1]

    def epsilon(self, grid) -> float:
        if self.hum.epsilon == "auto":
            return grid.h ** 2
        try:
            return float(self.hum.epsilon)
        except ValueError:
            raise ValueError("epsilon must be 'auto' or a number") from None

    def hum_config(self, grid) -> HumConfig:
        return HumConfig(epsilon=self.epsilon(grid), cg_tol=self.hum.cg_tol,
                         cg_max_iter=self.hum.cg_max_iter, bound_c=self.hum.bound_c)

    def echo(self) -> list[str]:
        """Header of every CSV and report: the seed, then the resolved configuration."""
        lines = [f"seed = {self.experiment.seed}"]
        for section_name, section in (("problem", self.problem), ("carleman", self.carleman),
                                       ("hum", self.hum), ("experiment", self.experiment)):
            for f in fields(section):
                val = getattr(section, f.name)
                if isinstance(val, tuple):
                    val = ", ".join(_fmt(v) for v in val)
                lines.append(f"{section_name}.{f.name} = {val}")
        return lines


def _parse_scalar(raw: str, kind, where: str):
    """`raw` as an int or float where the default is one; other keys keep the text."""
    if kind not in (int, float):
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}") from None


def _parse_tuple(raw: str, where: str) -> tuple:
    try:
        vals = tuple(float(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {raw!r}") from None
    if not vals:
        raise ConfigError(f"{where}: empty list")
    return vals


_SECTION_TYPES = {"problem": ProblemSection, "carleman": CarlemanSection,
                  "hum": HumSection, "experiment": ExperimentSection}


def parse_config(path) -> RunConfig:
    """Parse and fully validate an INI-style config file.

    Unknown sections or keys, and a repeated section or key, are rejected
    with the offending line number; a [problem] section must be present, everything else falls back to
    defaults (which are echoed into every output header).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    sections: dict[str, dict] = {}
    headers: dict[str, int] = {}  # section -> line of its header
    current = None
    for lineno, rawline in enumerate(path.read_text().splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTION_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")
            if name in headers:
                raise ConfigError(f"{path}:{lineno}: [{name}] repeated (first at line {headers[name]})")
            headers[name], current = lineno, sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {rawline.strip()!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any section")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in current:
            raise ConfigError(f"{path}:{lineno}: [{name}] {key} repeated (first at line {current[key][1]})")
        current[key] = (value, lineno)

    if "problem" not in sections:
        raise ConfigError(f"{path}: missing required section [problem]")

    built = {}
    for name, cls in _SECTION_TYPES.items():
        defaults = cls()
        known = {f.name: f for f in fields(cls)}
        for key, (value, lineno) in sections.get(name, {}).items():
            where = f"{path}:{lineno}: [{name}] {key}"
            if key not in known:
                raise ConfigError(f"{where}: unknown key")
            default = getattr(defaults, key)
            if isinstance(default, tuple):
                setattr(defaults, key, _parse_tuple(value, where))
            else:
                setattr(defaults, key, _parse_scalar(value, type(default), where))
        built[name] = defaults

    cfg = RunConfig(problem=built["problem"], carleman=built["carleman"],
                    hum=built["hum"], experiment=built["experiment"])
    _validate(cfg, path)
    return cfg


def _validate(cfg: RunConfig, path) -> None:
    p = cfg.problem
    if len(p.g0) != 2 or len(p.g1) != 2:
        raise ConfigError(f"{path}: [problem] g0/g1 must be two numbers each")
    try:
        grid, _, _ = cfg.build_problem()
    except ConfigError as exc:  # a coefficient expression; its message names the key
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: [problem] {exc}") from None
    try:
        cfg.hum_config(grid)
    except ValueError as exc:
        raise ConfigError(f"{path}: [hum] {exc}") from None
    c, e = cfg.carleman, cfg.experiment
    positive = (lambda v: 0.0 < v < np.inf, "positive and finite")  # NaN fails every comparison
    at_least_1 = (lambda v: 1.0 <= v < np.inf, "finite and >= 1")
    for key, values, (test, rule) in (
            ("[carleman] mu", c.mu, at_least_1), ("[carleman] c0", c.c0, positive),
            ("[carleman] lambda_multiples", c.lambda_multiples, positive),
            ("[carleman] mu_values", c.mu_values, at_least_1),
            ("[carleman] samples", c.samples, (lambda v: v >= 1, ">= 1")),
            ("[carleman] exclude", c.exclude, (lambda v: v >= 0, ">= 0")),
            ("[experiment] seed", e.seed, (lambda v: v >= 0, ">= 0")),
            ("[experiment] power_iters", e.power_iters,
             (lambda v: v >= MIN_POWER_ITERS, f">= {MIN_POWER_ITERS}")),
            ("[experiment] m_per_time", e.m_per_time, positive),
            ("[experiment] t_values", e.t_values, positive),
            ("[experiment] eps_values", e.eps_values, positive)):
        if not all(map(test, np.atleast_1d(values))):
            raise ConfigError(f"{path}: {key} must be {rule}")
    if e.direction not in DIRECTIONS:
        raise ConfigError(f"{path}: [experiment] direction must be {' or '.join(DIRECTIONS)}")


# -- output helpers ----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write(path: Path, lines) -> None:
    """Write one output file; its directory is created at the first write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


# -- subcommands -------------------------------------------------------------


def _cmd_simulate(cfg):
    grid, tree, coeffs = cfg.build_problem()
    sol = TreeStepper(grid, tree, coeffs).forward(np.sin(np.pi * grid.x / grid.L))
    rows = [(n, tree.times[n], mean_square_norm(tree, grid, sol.y, n)) for n in range(tree.M + 1)]
    return rows, [
        f"initial mean-square norm = {_fmt(rows[0][2])}",
        f"terminal mean-square norm = {_fmt(rows[-1][2])}",
    ], None, []


def _hum_command(cfg, which: str):
    grid, tree, coeffs = cfg.build_problem()
    hum_cfg = cfg.hum_config(grid)
    if which == "forward":
        res = hum_forward(grid, tree, coeffs, np.sin(np.pi * grid.x / grid.L), hum_cfg)
        exp_name = "K"
    else:
        yT = np.tile(np.sin(np.pi * grid.x / grid.L), (tree.n_nodes(tree.M), 1))
        res = hum_backward(grid, tree, coeffs, yT, hum_cfg)
        exp_name = "M"
    r = res.report
    trace_rows = [(k + 1, rr, vv) for k, (rr, vv) in
                  enumerate(zip(res.cg_trace["residuals"], res.cg_trace["values"]))]
    failures = ([] if r.cg_converged else
                [f"{r.cg_iterations} iterations, relative residual {_fmt(r.cg_residual)}"])
    return trace_rows, [
        f"epsilon = {_fmt(r.epsilon)}",
        f"terminal_norm = {_fmt(r.terminal_norm)}",
        f"uncontrolled_norm = {_fmt(r.uncontrolled_norm)}",
        f"control_cost = {_fmt(r.control_cost)}",
        f"{exp_name} = {_fmt(r.cost_exponent)}",
        f"bound_ratio = {_fmt(r.bound_ratio)}",
        f"log10_bound_ratio = {_fmt(r.log10_bound_ratio)}",
        f"cg_iterations = {r.cg_iterations}",
        f"cg_converged = {r.cg_converged}",
        f"identity_residual = {_fmt(r.identity_residual)}",
    ], None, failures


def _cmd_observability(cfg):
    grid, tree, coeffs = cfg.build_problem()
    est = observability_constant(grid, tree, coeffs, direction=cfg.experiment.direction,
                                 iters=cfg.experiment.power_iters, seed=cfg.experiment.seed)
    return [(k + 1, v) for k, v in enumerate(est.rayleigh)], [
        f"direction = {est.direction}",
        *([] if est.epsilon is None else [f"epsilon = {_fmt(est.epsilon)}"]),
        f"c_obs = {_fmt(est.c_obs)}",
        f"iterations = {est.iterations}",
        f"last_relative_change = {_fmt(est.residual)}",
    ], None, []


def _cmd_carleman_check(cfg):
    grid, tree, coeffs = cfg.build_problem()
    psi = build_psi(grid)
    mu = cfg.carleman.mu
    lam0 = lambda_threshold(mu, psi, tree.T, c0=cfg.carleman.c0)
    mults = cfg.carleman.lambda_multiples
    # eval_weights refuses it too, but only after the stepper is built and the samples are drawn
    for mult in (m for m in mults if m * lam0 < 1.0):
        raise ConfigError(f"[carleman] lambda_multiples: {mult:.6g} x lambda_threshold {lam0:.6g} is "
                          "below 1; raise the multiple or [carleman] c0")
    exclude = cfg.carleman.exclude
    if tree.M < 2 + 2 * exclude:  # no quadrature level would remain between the excluded ones
        raise ConfigError(f"[carleman] exclude = {exclude} leaves no quadrature level: [problem] M = "
                          f"{tree.M} must be >= 2 + 2 x exclude = {2 + 2 * exclude}")
    st = TreeStepper(grid, tree, coeffs)
    rng = np.random.default_rng(cfg.experiment.seed)
    instances = [(rng.standard_normal((tree.n_nodes(tree.M), grid.N)),
                  AdaptedField.random(tree, grid.N, rng, n_levels=tree.M),
                  AdaptedField.random(tree, grid.N, rng, n_levels=tree.M))
                 for _ in range(cfg.carleman.samples)]
    weight_sets = [eval_weights(psi, mult * lam0, mu, tree) for mult in mults]
    # the backward solution does not depend on lambda: one solve per instance
    results = [carleman_ratio_backward(grid, tree, coeffs, weight_sets, zT, mode="sources", f0=f0, f_div=fd,
                                       exclude=exclude, stepper=st) for zT, f0, fd in instances]
    rows, lines = [], [f"mu = {_fmt(mu)}", f"lambda_threshold = {_fmt(lam0)}"]
    for j, mult in enumerate(mults):
        ratios = [res[j].ratio for res in results]
        rows += [(k, mult, res[j].lhs, res[j].rhs, res[j].ratio) for k, res in enumerate(results)]
        lines.append(f"lambda x{_fmt(mult)}: median_ratio = {_fmt(float(np.median(ratios)))}, "
                     f"max_ratio = {_fmt(float(np.max(ratios)))}")
    return rows, lines, None, []


def _cmd_appendix_check(cfg):
    grid, tree, coeffs = cfg.build_problem()
    psi = build_psi(grid)
    # the coefficient formulas need analytic space/time derivatives of a; the config surface
    # supports the constant case only: compile_expression gives a float for it
    if not isinstance(coeffs.a, float):
        raise ConfigError("appendix-check requires a constant diffusion coefficient a, "
                          "an expression naming neither t nor x")
    rows = leading_order_check(psi, coeffs.a, cfg.carleman.mu_values, tree.T, grid, c0=cfg.carleman.c0)
    # a relative deviation at rounding level (<= 64 eps) is noise, not the asymptotics
    noise = 64.0 * np.finfo(float).eps
    fit = [r for r in rows if r.dev_A > noise]
    lines = []
    if len(fit) < len(rows):
        lines.append("left out of the slope fit, dev_A <= 64 eps: mu = "
                     + ", ".join(_fmt(r.mu) for r in rows if r.dev_A <= noise))
    if len({r.mu for r in fit}) >= 2:
        slope = _ols(np.log([r.mu for r in fit]), np.log([r.dev_A for r in fit]))[0]
        lines.append(f"dev_A log-log slope = {_fmt(slope)}")
    return [(r.mu, r.lam, r.dev_A, r.dev_B, r.min_B, r.c11_margin) for r in rows], lines, None, []


def _cmd_sweep_t(cfg):
    grid, _, coeffs = cfg.build_problem()
    if len(set(cfg.experiment.t_values)) < 4:
        raise ConfigError("sweep-T needs at least 4 distinct T values in [experiment] t_values")
    table = cost_scaling_sweep(coeffs, grid, cfg.experiment.t_values,
                               quantity="observability", direction=cfg.experiment.direction,
                               m_per_time=cfg.experiment.m_per_time,
                               iters=cfg.experiment.power_iters, seed=cfg.experiment.seed)
    return table.rows, [
        f"quantity = {table.quantity}",
        *([f"epsilon = {_fmt(table.epsilon)}"] if table.epsilon is not None else []),
        f"fit log(value) = slope / T + intercept",
        f"slope = {_fmt(table.slope)}",
        f"intercept = {_fmt(table.intercept)}",
        f"r2 = {_fmt(table.r2)}",
        f"r2 against 1/T^4 (reported only) = {_fmt(table.r2_alt)}",
    ], [f"{_fmt(1.0 / r['T'])} {_fmt(np.log(r['value']))}" for r in table.rows], []


def _cmd_sweep_eps(cfg):
    grid, tree, coeffs = cfg.build_problem()
    eps = cfg.experiment.eps_values
    if len(eps) < 3 or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigError("sweep-eps needs at least 3 strictly decreasing values in "
                          "[experiment] eps_values")
    rows = epsilon_sweep(coeffs, grid, tree, np.sin(np.pi * grid.x / grid.L), eps,
                         cg_tol=cfg.hum.cg_tol, cg_max_iter=cfg.hum.cg_max_iter)
    decreasing = all(a["terminal_norm"] > b["terminal_norm"] for a, b in zip(rows, rows[1:]))
    costs = [r["control_cost"] for r in rows]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero cost: inf, or nan if all are
        variation = np.float64(max(costs)) / min(costs)
    dat = [f"{_fmt(r['epsilon'])} {_fmt(r['terminal_norm'])}" for r in rows]
    failures = [f"eps = {_fmt(r['epsilon'])} after {r['cg_iterations']} iterations"
                for r in rows if not r["cg_converged"]]
    return rows, [
        f"rows = {len(rows)}",
        f"terminal_norm strictly decreasing = {decreasing}",
        f"control_cost variation (max/min) = {_fmt(variation)}",
        f"uncontrolled_norm = {_fmt(rows[-1]['uncontrolled_norm'])}",
    ], dat, failures


_CG_COLUMNS = ["iteration", "relative_residual", "dual_value"]
_DISPATCH = {  # name -> (CSV columns, command)
    "simulate": (["level", "t", "mean_square_norm"], _cmd_simulate),
    "control-forward": (_CG_COLUMNS, lambda cfg: _hum_command(cfg, "forward")),
    "control-backward": (_CG_COLUMNS, lambda cfg: _hum_command(cfg, "backward")),
    "observability": (["iteration", "rayleigh"], _cmd_observability),
    "carleman-check": (["sample", "lambda_multiple", "lhs", "rhs", "ratio"], _cmd_carleman_check),
    "appendix-check": (["mu", "lambda", "dev_A", "dev_B", "min_B_ratio", "c11_margin"],
                       _cmd_appendix_check),
    "sweep-T": (["T", "M", "collapsed", "value", "exponent"], _cmd_sweep_t),
    "sweep-eps": (["epsilon", "terminal_norm", "control_cost", "cg_iterations", "cg_converged"],
                  _cmd_sweep_eps),
}
SUBCOMMANDS = tuple(_DISPATCH)


def run(subcommand: str, config: RunConfig) -> int:
    """Run a subcommand, write its files and return the process exit code."""
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")
    columns, command = _DISPATCH[subcommand]
    out, echo = Path(config.experiment.output_dir), config.echo()

    def write_csv(rows):
        table = ([row[c] for c in columns] if isinstance(row, dict) else row for row in rows)
        _write(out / f"{subcommand}.csv", [f"# {line}" for line in (f"command = {subcommand}", *echo)]
               + [",".join(columns)] + [",".join(map(_fmt, row)) for row in table])

    try:
        rows, report, dat, failures = command(config)
    except SweepError as exc:
        write_csv(exc.partial)
        raise
    write_csv(rows)
    if dat is not None:
        _write(out / f"{subcommand}.dat", dat)
    _write(out / f"{subcommand}_report.txt",
           [f"{subcommand} report", "=" * (len(subcommand) + 7), *echo, "", *report])
    if failures:
        print(f"numerical failure: CG did not converge ({'; '.join(failures)})", file=sys.stderr)
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spcontrol",
                                     description="Null-control experiments for stochastic "
                                                 "parabolic equations on scenario trees.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI-style config file")
    parser.add_argument("--output-dir", default=None, help="override [experiment] output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.output_dir is not None:
            cfg.experiment.output_dir = args.output_dir
        code = run(args.subcommand, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, SweepError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
